//! Strategy-quality regression guards on the pinned §4 DCT model.
//!
//! The strategy algebra's contract is *monotone refinement*: a seeded
//! chain never costs more than its seed. These guards pin that on the
//! paper's own case study — `list+kl` (and `list+anneal`) must never rank
//! behind the plain list heuristic, and the racing portfolio must keep
//! returning the proven exact optimum. Both refiners are deterministic
//! (steepest descent / seeded RNG), so the asserted costs are bit-stable
//! and safe for CI.

use sparcs::core::model::ModelConfig;
use sparcs::core::partitioning::MemoryMode;
use sparcs::core::PartitionOptions;
use sparcs::estimate::Architecture;
use sparcs::flow::{FlowSession, PartitionedFlow};
use sparcs::jpeg::{dct_task_graph, EstimateBackend};
use sparcs::strategy::parse_spec;

fn dct_problem() -> (FlowSession, PartitionOptions) {
    let dct = dct_task_graph(EstimateBackend::PaperCalibrated).expect("graph builds");
    let session = FlowSession::new(dct.graph.clone(), Architecture::xc4044_wildforce());
    let options = PartitionOptions {
        model: ModelConfig {
            declared_symmetry: dct.symmetry_groups.clone(),
            ..ModelConfig::default()
        },
        ..PartitionOptions::default()
    };
    (session, options)
}

fn run<'a>(
    session: &'a FlowSession,
    options: &PartitionOptions,
    spec: &str,
) -> PartitionedFlow<'a> {
    session
        .partition_with(parse_spec(spec, options).expect("spec parses").as_ref())
        .expect(spec)
}

#[test]
fn refined_list_never_ranks_behind_plain_list_on_the_pinned_dct() {
    let (session, options) = dct_problem();
    let list = run(&session, &options, "list");
    for spec in ["list+kl", "list+anneal", "list+kl+anneal"] {
        let refined = run(&session, &options, spec);
        assert!(
            refined.design.latency_ns <= list.design.latency_ns,
            "{spec} regressed: {} ns > list {} ns",
            refined.design.latency_ns,
            list.design.latency_ns
        );
        assert!(
            refined.validate(MemoryMode::Net).is_empty(),
            "{spec} produced an invalid design"
        );
    }
}

/// The multilevel pipeline (coarsen / solve / uncoarsen) must keep pace
/// with the strongest single-level chain on pinned graphs: never behind
/// `list+kl` on the DCT model or on the pinned layered family. Both
/// sides are deterministic, so the ranking is bit-stable in CI.
#[test]
fn multilevel_never_ranks_behind_refined_list_on_pinned_graphs() {
    let (session, options) = dct_problem();
    let kl = run(&session, &options, "list+kl");
    let ml = run(&session, &options, "multilevel");
    assert!(
        ml.design.latency_ns <= kl.design.latency_ns,
        "multilevel regressed on dct: {} ns > list+kl {} ns",
        ml.design.latency_ns,
        kl.design.latency_ns
    );
    assert!(ml.validate(MemoryMode::Net).is_empty());

    let mut dev = Architecture::xc4044_wildforce();
    dev.resources = sparcs::dfg::Resources::clbs(700);
    for seed in [3u64, 11, 42] {
        let g = sparcs::dfg::gen::layered(&sparcs::dfg::gen::LayeredConfig::default(), seed);
        let session = FlowSession::new(g, dev.clone());
        let options = PartitionOptions::default();
        let kl = run(&session, &options, "list+kl");
        let ml = run(&session, &options, "multilevel");
        assert!(
            ml.design.latency_ns <= kl.design.latency_ns,
            "multilevel regressed on layered-{seed}: {} ns > list+kl {} ns",
            ml.design.latency_ns,
            kl.design.latency_ns
        );
        assert!(ml.validate(MemoryMode::Net).is_empty());
    }
}

#[test]
fn refinement_chains_are_deterministic_on_the_pinned_dct() {
    let (session, options) = dct_problem();
    for spec in ["list+kl", "list+anneal", "multilevel"] {
        let a = run(&session, &options, spec);
        let b = run(&session, &options, spec);
        assert_eq!(
            a.design.partitioning.assignment(),
            b.design.partitioning.assignment(),
            "{spec} is not run-to-run deterministic"
        );
    }
}

#[test]
fn exact_solve_never_ranks_behind_refined_list_on_the_pinned_dct() {
    let (session, options) = dct_problem();
    let exact = run(&session, &options, "ilp");
    let kl = run(&session, &options, "list+kl");
    assert!(
        exact.design.latency_ns <= kl.design.latency_ns,
        "ilp {} ns > list+kl {} ns",
        exact.design.latency_ns,
        kl.design.latency_ns
    );
}

#[test]
fn portfolio_matches_the_exact_optimum_on_the_pinned_dct() {
    let (session, options) = dct_problem();
    let exact = run(&session, &options, "ilp");
    assert!(exact.design.stats.proven_optimal);
    let portfolio = run(&session, &options, "portfolio");
    assert_eq!(portfolio.design.latency_ns, exact.design.latency_ns);
    assert!(portfolio.design.stats.proven_optimal);
}
