//! The ISSUE 10 acceptance scenario at scale: `--partitioner multilevel`
//! partitions a 10k-node `dfg::gen` layered graph to an audited-feasible
//! design within a search budget in which the exact ILP cannot finish.
//!
//! Compiled out under debug assertions (like the streaming smoke); the CI
//! workflow runs it in release.
#![cfg(not(debug_assertions))]

use std::time::{Duration, Instant};

use sparcs::audit::Severity;
use sparcs::core::partitioning::MemoryMode;
use sparcs::core::search::SearchCtx;
use sparcs::core::PartitionOptions;
use sparcs::dfg::gen::{scaled, ScaledConfig};
use sparcs::dfg::Resources;
use sparcs::estimate::Architecture;
use sparcs::flow::FlowSession;
use sparcs::strategy::parse_spec;

/// A board big enough that a 10k-node graph needs a few dozen partitions
/// (not a thousand): the scale suite pairs big graphs with big devices.
fn big_board() -> Architecture {
    let mut a = Architecture::xc4044_wildforce();
    a.resources = Resources::clbs(50_000);
    a.memory_words = 4_000_000;
    a
}

#[test]
fn multilevel_partitions_ten_thousand_nodes_within_budget() {
    let g = scaled(&ScaledConfig::preset_10k(), 10);
    let session = FlowSession::new(g, big_board());
    let spec = parse_spec("multilevel", &PartitionOptions::default()).expect("spec");
    let budget = Duration::from_secs(60);
    let t0 = Instant::now();
    let stage = session
        .partition_with_search(spec.as_ref(), &SearchCtx::with_timeout(budget))
        .expect("multilevel must partition the 10k-node suite member");
    let wall = t0.elapsed();
    // The partitioner is cooperative: the budget plus one bounded scan of
    // slack. (Generous ×2 margin so a loaded CI box does not flake.)
    assert!(
        wall < budget * 2,
        "multilevel overran its budget: {wall:?} vs {budget:?}"
    );
    assert!(
        stage.validate(MemoryMode::Net).is_empty(),
        "the 10k-node design must be feasible"
    );
    assert!(
        stage
            .certify(MemoryMode::Net)
            .iter()
            .all(|d| d.severity != Severity::Error),
        "the 10k-node design must certify clean"
    );
    assert!(
        stage.design.partitioning.partition_count() >= 2,
        "a 10k-node graph cannot fit one configuration"
    );
}

/// The contrast half of the acceptance criterion: on a graph far beyond
/// the exact solver's reach (1.2k nodes already is — model rows grow as
/// `edges × partitions`, and the budget check sits *between* node
/// relaxations, so the graph must stay small enough for single LP
/// relaxations to finish at all), the same short budget leaves the ILP
/// with a cancelled, unproven incumbent, while multilevel hands back a
/// feasible design under the identical budget.
#[test]
fn exact_ilp_cannot_finish_where_multilevel_can() {
    let g = scaled(&ScaledConfig::preset(1_200), 10);
    let session = FlowSession::new(g, big_board());
    let budget = Duration::from_secs(5);

    let ilp = parse_spec("ilp", &PartitionOptions::default()).expect("spec");
    let exact = session
        .partition_with_search(ilp.as_ref(), &SearchCtx::with_timeout(budget))
        .expect("the warm-started solver returns its incumbent on timeout");
    assert!(
        !exact.design.stats.proven_optimal,
        "1.2k nodes must be beyond the exact solver in {budget:?}"
    );
    assert!(exact.design.stats.cancelled, "the budget must have fired");

    let ml = parse_spec("multilevel", &PartitionOptions::default()).expect("spec");
    let stage = session
        .partition_with_search(ml.as_ref(), &SearchCtx::with_timeout(budget * 6))
        .expect("multilevel");
    assert!(stage.validate(MemoryMode::Net).is_empty());
    assert!(stage
        .certify(MemoryMode::Net)
        .iter()
        .all(|d| d.severity != Severity::Error));
}
