//! Soundness gate for the `sparcs_analyze` pre-solve layer.
//!
//! The analyzer's pruning contract is one-sided: a static conviction must
//! imply the exact ILP would also prove the spec infeasible, and every
//! certified lower bound must sit at or below the solved optimum. These
//! properties pin both directions over random layered graphs, plus the
//! widened-DCT regression the acceptance gate names: the cap the paper's
//! §4 space cannot meet is pruned statically, and nothing feasible is.

use proptest::prelude::*;
use sparcs::analyze;
use sparcs::core::partitioning::MemoryMode;
use sparcs::core::{IlpPartitioner, PartitionError, PartitionOptions};
use sparcs::dfg::gen::{layered, LayeredConfig};
use sparcs::dfg::Resources;
use sparcs::estimate::Architecture;
use sparcs::flow::{ExploreSpace, FlowSession};
use sparcs::jpeg::{dct_task_graph, EstimateBackend};

fn small_graph_strategy() -> impl Strategy<Value = sparcs::dfg::TaskGraph> {
    (0u64..1_000, 2u32..4, 2u32..4).prop_map(|(seed, layers, width)| {
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

fn arch(clbs: u64, mem: u64) -> Architecture {
    let mut a = Architecture::xc4044_wildforce();
    a.resources = Resources::clbs(clbs);
    a.memory_words = mem;
    a
}

fn ilp_with_cap(cap: Option<u32>) -> PartitionOptions {
    PartitionOptions {
        max_partitions: cap,
        ..PartitionOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    /// Pruned ⇒ ILP-infeasible: a partition-count conviction at cap
    /// `lb − 1` is always confirmed by the exact solver. (Every task fits
    /// the 400-CLB device, so the conviction can only come from the
    /// certified counting argument, not trivial unschedulability.)
    #[test]
    fn partition_count_convictions_are_ilp_infeasible(g in small_graph_strategy()) {
        let dev = arch(400, 1_000_000);
        let an = analyze::analyze(&g, &dev, MemoryMode::Net).expect("layered graphs are DAGs");
        prop_assert!(an.schedulable, "tasks are capped at 300 CLBs");
        prop_assume!(an.partition_count_lb >= 2);
        let cap = an.partition_count_lb - 1;
        prop_assert_eq!(
            an.static_verdict(Some(cap)),
            Some(analyze::rules::PARTITION_COUNT_BOUND)
        );
        let err = IlpPartitioner::new(dev, ilp_with_cap(Some(cap)))
            .partition(&g)
            .expect_err("the conviction claims no feasible partitioning exists");
        prop_assert!(
            matches!(err, PartitionError::NoFeasibleSolution { .. }),
            "solver must agree the pruned spec is infeasible, got {err}"
        );
    }

    /// Pruned ⇒ ILP-infeasible, memory direction: when the forced-crossing
    /// boundary bound exceeds the board memory, the exact solver finds no
    /// feasible partitioning at any cap.
    #[test]
    fn memory_convictions_are_ilp_infeasible(g in small_graph_strategy()) {
        let dev = arch(400, 1_000_000);
        let an = analyze::analyze(&g, &dev, MemoryMode::Net).expect("DAG");
        prop_assume!(an.memory_lb_words > 0);
        let starved = arch(400, an.memory_lb_words - 1);
        let an = analyze::analyze(&g, &starved, MemoryMode::Net).expect("DAG");
        prop_assert_eq!(an.static_verdict(None), Some(analyze::rules::MEMORY_BOUND));
        let err = IlpPartitioner::new(starved, ilp_with_cap(None))
            .partition(&g)
            .expect_err("boundary memory below the certified bound");
        prop_assert!(matches!(err, PartitionError::NoFeasibleSolution { .. }), "{err}");
    }

    /// Every certified lower bound sits at or below the solved optimum:
    /// the critical path bounds `Σ d_p`, the counting bound bounds `N`,
    /// and the ledger bounds `N·CT`.
    #[test]
    fn certified_bounds_never_exceed_the_ilp_optimum(g in small_graph_strategy()) {
        let dev = arch(700, 1_000_000);
        let an = analyze::analyze(&g, &dev, MemoryMode::Net).expect("DAG");
        let design = IlpPartitioner::new(dev.clone(), PartitionOptions::default()).partition(&g);
        prop_assume!(design.is_ok());
        let design = design.expect("checked");
        prop_assert!(
            an.objective_lb_ns <= design.sum_delay_ns,
            "critical-path bound {} exceeds the optimum Σd_p {}",
            an.objective_lb_ns,
            design.sum_delay_ns
        );
        let n = u64::from(design.partitioning.partition_count());
        prop_assert!(u64::from(an.partition_count_lb) <= n);
        prop_assert!(an.reconfig_lb_ns <= n * dev.reconfig_time_ns);
        // The solved design validates, so the boundary-memory bound cannot
        // exceed what the board holds.
        prop_assert!(an.memory_lb_words <= dev.memory_words);
    }
}

/// The acceptance gate's pinned regression: on the widened DCT explore
/// space (caps {2, 4} on the paper's board), the cap-2 specs are pruned
/// statically under the partition-count rule, every surviving candidate
/// ranks, and nothing feasible was pruned — the exact solver confirms
/// cap 2 is infeasible.
#[test]
fn widened_dct_explore_statically_prunes_only_infeasible_caps() {
    let dct = dct_task_graph(EstimateBackend::PaperCalibrated).expect("graph builds");
    let board = Architecture::xc4044_wildforce();
    let session = FlowSession::new(dct.graph.clone(), board.clone());

    let mut space = ExploreSpace::for_workload(4096);
    space.include_list = false;
    space.max_partitions = vec![Some(2), Some(4)];
    let exploration = session.explore(&space).expect("the cap-4 half is feasible");

    assert!(
        exploration.coverage.skipped_static() >= 1,
        "the cap-2 spec must be pruned statically: {:?}",
        exploration.coverage
    );
    assert_eq!(exploration.coverage.skipped_infeasible(), 0);
    let static_rules: Vec<_> = exploration
        .coverage
        .skips
        .iter()
        .filter_map(|s| s.rule())
        .collect();
    assert_eq!(static_rules, vec![analyze::rules::PARTITION_COUNT_BOUND]);
    assert!(
        !exploration.candidates.is_empty(),
        "cap-4 candidates still rank"
    );

    // Zero feasible candidates pruned: the solver agrees cap 2 is dead.
    let err = IlpPartitioner::new(board, ilp_with_cap(Some(2)))
        .partition(&dct.graph)
        .expect_err("the DCT needs at least 3 partitions on the XC4044");
    assert!(
        matches!(err, PartitionError::NoFeasibleSolution { .. }),
        "{err}"
    );
}
