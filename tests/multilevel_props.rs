//! Property gates for the multilevel subsystem (ISSUE 10 satellite 3).
//!
//! Three contracts, each over random layered graphs:
//!
//! * every multilevel output certifies clean through the independent
//!   `sparcs_audit` gate and never costs more than the plain `list`
//!   strawman on the same problem;
//! * the coarsening tower's projection maps are total and surjective at
//!   every level, and every coarse graph preserves precedence (validates
//!   as a DAG);
//! * the delay-sum lower bound (critical path vs. resource area) never
//!   exceeds the exact optimum on instances the exact solver can finish
//!   (soundness oracle), and is never looser than the analyzer's pure
//!   critical-path bound.

use proptest::prelude::*;
use sparcs::audit::Severity;
use sparcs::core::delay::delay_sum_bound_ns;
use sparcs::core::partitioning::MemoryMode;
use sparcs::core::PartitionOptions;
use sparcs::dfg::gen::{layered, LayeredConfig};
use sparcs::dfg::{Resources, TaskGraph};
use sparcs::estimate::Architecture;
use sparcs::flow::FlowSession;
use sparcs::multilevel::{coarsen, CoarsenConfig, MultilevelConfig};
use sparcs::strategy::parse_spec;

fn small_graph() -> impl Strategy<Value = TaskGraph> {
    (0u64..500, 2u32..5, 2u32..5).prop_map(|(seed, layers, width)| {
        layered(
            &LayeredConfig {
                layers,
                min_width: 2,
                max_width: width.max(2),
                clbs: (50, 300),
                delay_ns: (100, 900),
                words: (1, 8),
                ..LayeredConfig::default()
            },
            seed,
        )
    })
}

fn board() -> Architecture {
    Architecture::xc4044_wildforce()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// (a) Audited-clean outputs that never lose to the plain list seed.
    #[test]
    fn multilevel_certifies_and_never_loses_to_list(g in small_graph()) {
        let session = FlowSession::new(g, board());
        let options = PartitionOptions::default();
        let ml = session
            .partition_with(parse_spec("multilevel", &options).unwrap().as_ref())
            .expect("multilevel partitions every feasible layered instance");
        let errors: Vec<_> = ml
            .certify(MemoryMode::Net)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        prop_assert!(errors.is_empty(), "audit errors: {errors:?}");
        if let Ok(list) = session
            .partition_with(parse_spec("list", &options).unwrap().as_ref())
        {
            // The guard contract: multilevel never costs more than the
            // strawman, whenever the strawman produces a *valid* design.
            if list.validate(MemoryMode::Net).is_empty() {
                prop_assert!(
                    ml.design.latency_ns <= list.design.latency_ns,
                    "multilevel {} > list {}",
                    ml.design.latency_ns,
                    list.design.latency_ns
                );
            }
        }
    }

    /// (b) Projection maps are total + surjective and precedence survives
    /// contraction at every level of the tower.
    #[test]
    fn tower_projection_preserves_coverage_and_precedence(
        g in small_graph(),
        seed in 0u64..100,
    ) {
        let tower = coarsen(
            &g,
            &board(),
            &CoarsenConfig {
                coarsest_tasks: 2,
                max_levels: 24,
                min_shrink_per_mille: 1,
                seed,
            },
        )
        .expect("coarsening never fails on a valid DAG");
        for l in 0..tower.maps.len() {
            let fine = &tower.graphs[l];
            let coarse = &tower.graphs[l + 1];
            prop_assert_eq!(tower.maps[l].len(), fine.task_count());
            let mut covered = vec![false; coarse.task_count()];
            for &m in &tower.maps[l] {
                prop_assert!(m < coarse.task_count());
                covered[m] = true;
            }
            prop_assert!(covered.iter().all(|&c| c), "level {} not surjective", l);
            prop_assert!(coarse.validate().is_ok(), "level {} broke precedence", l + 1);
            // Every fine edge either stays inside a coarse node or maps to
            // a forward coarse edge — precedence is *preserved*, not just
            // acyclicity.
            for e in fine.edges() {
                let (cu, cv) = (tower.maps[l][e.src.index()], tower.maps[l][e.dst.index()]);
                if cu != cv {
                    prop_assert!(
                        coarse
                            .successors(sparcs::dfg::TaskId(cu as u32))
                            .any(|s| s.index() == cv),
                        "fine edge {:?} lost at level {}",
                        e,
                        l
                    );
                }
            }
        }
    }

    /// (c) Delay-sum bound soundness oracle: bound ≤ exact optimum
    /// wherever the exact solver finishes, and never looser than the
    /// analyzer's pure critical-path bound.
    #[test]
    fn lagrangian_bound_is_sound_and_dominates_the_cp_bound(g in small_graph()) {
        let arch = board();
        let bound = delay_sum_bound_ns(&g, &arch.resources).expect("bound");
        let cp = sparcs::analyze::critical_path_lb_ns(&g).expect("analyzer bound");
        prop_assert!(
            bound >= cp,
            "delay-sum bound {} looser than critical path {}",
            bound,
            cp
        );
        let session = FlowSession::new(g, arch);
        let exact = session
            .partition_with(parse_spec("ilp", &PartitionOptions::default()).unwrap().as_ref())
            .expect("small instances solve exactly");
        if exact.design.stats.proven_optimal {
            prop_assert!(
                bound <= exact.design.sum_delay_ns,
                "bound {} exceeds the proven-optimal delay sum {}",
                bound,
                exact.design.sum_delay_ns
            );
        }
    }
}

/// A deterministic end-to-end splat on a graph big enough to force real
/// coarsening: the multilevel design must still certify and beat/match
/// plain list.
#[test]
fn multilevel_coarsens_and_certifies_on_a_larger_graph() {
    let g = layered(
        &LayeredConfig {
            layers: 12,
            min_width: 6,
            max_width: 12,
            clbs: (20, 200),
            delay_ns: (100, 900),
            words: (1, 16),
            ..LayeredConfig::default()
        },
        99,
    );
    let mut arch = Architecture::xc4044_wildforce();
    arch.resources = Resources::clbs(2_000);
    let tower = coarsen(
        &g,
        &arch,
        &CoarsenConfig {
            coarsest_tasks: 48,
            max_levels: 24,
            min_shrink_per_mille: 20,
            seed: MultilevelConfig::default().seed,
        },
    )
    .expect("coarsen");
    assert!(tower.levels() > 1, "this graph must actually coarsen");
    let session = FlowSession::new(g, arch);
    let stage = session
        .partition_with(
            parse_spec("multilevel", &PartitionOptions::default())
                .unwrap()
                .as_ref(),
        )
        .expect("multilevel");
    assert!(stage
        .certify(MemoryMode::Net)
        .iter()
        .all(|d| d.severity != Severity::Error));
}
