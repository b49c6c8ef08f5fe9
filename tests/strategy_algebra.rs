//! End-to-end tests of the composable strategy algebra on the paper's §4
//! DCT model: budgets and cooperative cancellation reach into the
//! branch-and-bound loop, refinement chains beat (or match) their seeds,
//! and portfolio racing returns the best feasible design deterministically.

use sparcs::core::model::ModelConfig;
use sparcs::core::partitioning::MemoryMode;
use sparcs::core::search::{CancelToken, SearchCtx};
use sparcs::core::PartitionOptions;
use sparcs::estimate::Architecture;
use sparcs::flow::{ExploreSpace, FlowSession, IlpStrategy};
use sparcs::jpeg::{dct_task_graph, EstimateBackend};
use sparcs::strategy::{parse_spec, Portfolio};
use std::time::{Duration, Instant};

/// The §4 DCT problem: paper-calibrated estimates on the XC4044 board,
/// with the symmetry groups declared exactly as the case study does.
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

/// A cancelled exact solve hands back its incumbent — observed through
/// `SolveStats` — instead of dying, and the design is still feasible.
#[test]
fn cancelled_ilp_returns_its_incumbent_with_stats() {
    let (session, options) = dct_problem();
    let token = CancelToken::new();
    token.cancel();
    let stage = session
        .partition_with_search(
            &IlpStrategy::with_options(options),
            &SearchCtx::unbounded().and_cancel(token),
        )
        .expect("the warm-started solver always holds the list incumbent");
    assert!(stage.design.stats.cancelled, "cancellation is observable");
    assert!(!stage.design.stats.proven_optimal);
    assert!(stage.validate(MemoryMode::Net).is_empty());
}

/// The acceptance scenario: a 50 ms-deadline portfolio on the DCT graph
/// returns a feasible design promptly — the exact racer stops
/// cooperatively at the deadline and the race still crowns a feasible
/// winner (at worst a refined list seed).
#[test]
fn deadline_portfolio_on_dct_returns_a_feasible_design_promptly() {
    let (session, options) = dct_problem();
    let portfolio = Portfolio::standard(options);
    let t0 = Instant::now();
    let stage = session
        .partition_with_search(
            &portfolio,
            &SearchCtx::with_timeout(Duration::from_millis(50)),
        )
        .expect("a feasible design exists well inside the budget");
    let elapsed = t0.elapsed();
    assert!(stage.validate(MemoryMode::Net).is_empty());
    // "Promptly": racers poll between branch-and-bound nodes / refinement
    // rounds, so the overshoot is a few node relaxations — CI machines get
    // a generous ceiling, but nothing like an uncancelled solve.
    assert!(
        elapsed < Duration::from_secs(10),
        "portfolio took {elapsed:?} against a 50 ms budget"
    );
}

/// Without a deadline the portfolio's winner (cost, name, position order)
/// is identical for any job count — jobs only changes wall-clock, never
/// the answer.
#[test]
fn portfolio_winner_is_identical_across_job_counts_on_dct() {
    let (session, options) = dct_problem();
    let mut baseline: Option<(Vec<_>, u64, bool)> = None;
    for jobs in [1, 2] {
        let mut portfolio = Portfolio::standard(options.clone());
        portfolio.jobs = jobs;
        let stage = session.partition_with(&portfolio).unwrap();
        let key = (
            stage.design.partitioning.assignment().to_vec(),
            stage.design.latency_ns,
            stage.design.stats.proven_optimal,
        );
        match &baseline {
            None => baseline = Some(key),
            Some(b) => assert_eq!(*b, key, "jobs = {jobs}"),
        }
    }
    let (_, latency, proven) = baseline.unwrap();
    assert!(proven, "the exact racer proves the paper's optimum");
    // And the winner is exactly the standalone exact result.
    let (session2, options2) = dct_problem();
    let exact = session2
        .partition_with(&IlpStrategy::with_options(options2))
        .unwrap();
    assert_eq!(latency, exact.design.latency_ns);
}

/// Refinement chains on the paper DCT: `list+kl` and `list+anneal` are
/// valid and never cost more than the plain list seed (the acceptance
/// criterion), and the whole grid ranks deterministically for any
/// exploration job count, refined specs included.
#[test]
fn refined_specs_rank_deterministically_and_beat_their_seed() {
    let (session, options) = dct_problem();
    let seed = session
        .partition_with(parse_spec("list", &options).unwrap().as_ref())
        .unwrap();
    for spec in ["list+kl", "list+anneal"] {
        let refined = session
            .partition_with(parse_spec(spec, &options).unwrap().as_ref())
            .unwrap();
        assert!(refined.validate(MemoryMode::Net).is_empty(), "{spec}");
        assert!(
            refined.design.latency_ns <= seed.design.latency_ns,
            "{spec}: {} > list {}",
            refined.design.latency_ns,
            seed.design.latency_ns
        );
    }

    let space = |jobs: u32| {
        let mut space = ExploreSpace::for_workload(10_000);
        space.ilp_options = options.clone();
        space.specs = vec!["list+kl".into(), "list+anneal".into(), "memlist".into()];
        space.jobs = jobs;
        space.cache = None;
        space
    };
    let ranking = |jobs: u32| {
        session
            .explore(&space(jobs))
            .unwrap()
            .candidates
            .iter()
            .map(|c| (c.strategy.clone(), c.total_ns, c.partition_count, c.k))
            .collect::<Vec<_>>()
    };
    let serial = ranking(1);
    assert!(serial.iter().any(|(s, ..)| s == "list+kl"));
    assert_eq!(serial, ranking(2), "refined specs rank identically");
}

/// A budgeted exploration bypasses the cache (bounded searches are not
/// pure functions of the problem) but still ranks feasible designs.
#[test]
fn budgeted_explore_bypasses_the_cache_and_still_ranks() {
    use sparcs::cache::PartitionCache;
    use std::sync::Arc;
    let (session, options) = dct_problem();
    let cache = Arc::new(PartitionCache::new());
    let mut space = ExploreSpace::for_workload(10_000);
    space.ilp_options = options;
    space.budget = Some(Duration::from_secs(3600)); // generous: everything finishes
    space.cache = Some(Arc::clone(&cache));
    let exploration = session.explore(&space).unwrap();
    assert!(!exploration.candidates.is_empty());
    assert!(
        cache.is_empty(),
        "bounded searches must never populate the cache"
    );
    assert_eq!(cache.stats().lookups(), 0);
}
