//! Scale smoke for the two checkers on the seed-10 10k-node `gen::scaled`
//! graph (the graph e2ebench's `scaled-10k` workload streams): the
//! analyzer's bound facts, its lint count per rule and a digest of its
//! whole JSON report are pinned in both memory modes, and the `list` and
//! `memlist` designs and their fissions must audit clean. It asserts no
//! wall time; e2ebench times these calls.
//!
//! Compiled out under debug assertions (like the multilevel scale smoke);
//! the CI workflow runs it in release.
#![cfg(not(debug_assertions))]

use std::collections::BTreeMap;

use sparcs::analyze::{analyze, rules};
use sparcs::audit::audit_fission;
use sparcs::core::partitioning::MemoryMode;
use sparcs::core::PartitionOptions;
use sparcs::dfg::gen::{scaled, ScaledConfig};
use sparcs::dfg::Resources;
use sparcs::estimate::Architecture;
use sparcs::flow::FlowSession;
use sparcs::strategy::parse_spec;

/// The 50k-CLB / 4M-word board the scale suite pairs with 10k nodes.
fn big_board() -> Architecture {
    let mut a = Architecture::xc4044_wildforce();
    a.resources = Resources::clbs(50_000);
    a.memory_words = 4_000_000;
    a
}

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn analyzer_facts_and_lints_are_pinned_at_ten_thousand_nodes() {
    let g = scaled(&ScaledConfig::preset_10k(), 10);
    // Digests of the whole report, every witness and lint string
    // included: a faster analyzer must leave them as they are. A generator
    // that keeps edge widths consistent changes them, like the lint count
    // below.
    for (mode, digest) in [
        (MemoryMode::Net, 0x6485_464b_6238_eba9_u64),
        (MemoryMode::Edge, 0xb729_9fa5_832d_ddd7),
    ] {
        let an = analyze(&g, &big_board(), mode).expect("a generated graph is a DAG");
        assert_eq!(
            fnv64(an.to_json().as_bytes()),
            digest,
            "{mode:?} report changed"
        );
        let facts: Vec<(&str, u64)> = an.facts.iter().map(|f| (f.rule, f.bound)).collect();
        assert_eq!(
            facts,
            vec![
                (rules::CRITICAL_PATH_BOUND, 79_236),
                (rules::AREA_BOUND, 9_524),
                (rules::PARTITION_COUNT_BOUND, 23),
                (rules::MEMORY_BOUND, 0),
                (rules::TEMP_MEMORY_BOUND, 16),
                (rules::RECONFIG_LEDGER_BOUND, 2_300_000_000),
            ],
            "{mode:?}"
        );
        assert!(an.schedulable);
        assert_eq!(an.partition_count_lb, 23);
        assert_eq!(an.objective_lb_ns, 79_236);
        let mut per_rule: BTreeMap<&str, usize> = BTreeMap::new();
        for lint in &an.lints {
            *per_rule.entry(lint.rule).or_default() += 1;
        }
        // `gen::scaled` draws each edge's width independently of its
        // producer's output width, so many edges are wider than their
        // producer; a generator that keeps widths consistent changes this.
        assert_eq!(
            per_rule,
            BTreeMap::from([(rules::WIDTH_MISMATCH, 53_546)]),
            "{mode:?}"
        );
    }
}

#[test]
fn list_and_memlist_designs_and_fissions_audit_clean() {
    let session = FlowSession::new(scaled(&ScaledConfig::preset_10k(), 10), big_board());
    for spec in ["list", "memlist"] {
        let strategy = parse_spec(spec, &PartitionOptions::default()).expect("spec");
        let stage = session
            .partition_with(strategy.as_ref())
            .expect("the heuristics partition the 10k-node graph");
        for mode in [MemoryMode::Net, MemoryMode::Edge] {
            assert_eq!(stage.certify(mode), Vec::new(), "{spec} design, {mode:?}");
        }
        let analyzed = stage.analyze().expect("fission analysis");
        let diags = audit_fission(
            session.graph(),
            &analyzed.design.partitioning,
            &analyzed.fission,
            session.arch(),
        );
        assert_eq!(diags, Vec::new(), "{spec} fission");
    }
}
