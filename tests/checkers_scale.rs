//! Scale smoke for the parser and the two checkers on the seed-10
//! 10k-node `gen::scaled` graph (the graph e2ebench's `scaled-10k`
//! workload streams): its `.tg` text is pinned by length and digest and
//! must parse back to the generated graph; the analyzer's bound facts,
//! its lint count per rule and a digest of its whole JSON report are
//! pinned in both memory modes; and the `list` and `memlist` designs
//! parsed from that text are pinned (partition count, latency, a digest of
//! the delay vector) and must audit clean with their fissions. A race on
//! a 50k-edge star checks that the parser stays linear in a task's
//! out-degree, against the quadratic parser it replaced. Only that race
//! reads a clock; e2ebench times the rest.
//!
//! Compiled out under debug assertions (like the multilevel scale smoke);
//! the CI workflow runs it in release.
#![cfg(not(debug_assertions))]

#[path = "support/parse_oracle.rs"]
mod parse_oracle;

use std::collections::BTreeMap;
use std::time::Instant;

use sparcs::analyze::{analyze, rules};
use sparcs::audit::audit_fission;
use sparcs::core::partitioning::MemoryMode;
use sparcs::core::PartitionOptions;
use sparcs::dfg::gen::{scaled, ScaledConfig};
use sparcs::dfg::parse::{parse, to_text};
use sparcs::dfg::{Resources, TaskGraph};
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
fn the_ten_thousand_node_text_is_pinned_and_parses_back() {
    let g = scaled(&ScaledConfig::preset_10k(), 10);
    let text = to_text(&g);
    assert_eq!(text.len(), 3_804_812);
    assert_eq!(fnv64(text.as_bytes()), 0x98d1_4d7e_cb17_f8e7);
    assert_eq!(parse(&text), Ok(g));
}

#[test]
fn list_and_memlist_designs_and_fissions_audit_clean() {
    let text = to_text(&scaled(&ScaledConfig::preset_10k(), 10));
    let session = FlowSession::from_text(&text, big_board()).expect("the text parses");
    for spec in ["list", "memlist"] {
        let strategy = parse_spec(spec, &PartitionOptions::default()).expect("spec");
        let stage = session
            .partition_with(strategy.as_ref())
            .expect("the heuristics partition the 10k-node graph");
        let design = &stage.design;
        let delays: Vec<u8> = design
            .partition_delays_ns
            .iter()
            .flat_map(|d| d.to_le_bytes())
            .collect();
        assert_eq!(design.partitioning.partition_count(), 23, "{spec}");
        assert_eq!(design.latency_ns, 2_300_094_459, "{spec}");
        assert_eq!(fnv64(&delays), 0xa7cd_ce99_f76f_1f85, "{spec} delays");
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

/// One hub feeding 50,000 tasks: the replaced parser scanned the hub's
/// successors for a duplicate on every edge line.
#[test]
fn parser_is_ten_times_the_oracle_on_a_fifty_thousand_edge_star() {
    let mut g = TaskGraph::new("star");
    let hub = g.add_task("hub", Resources::clbs(1), 1, 1);
    for i in 0..50_000 {
        let leaf = g.add_task(format!("s{i}"), Resources::clbs(1), 1, 1);
        g.add_edge(hub, leaf, 1).expect("a new edge");
    }
    let text = to_text(&g);
    let t0 = Instant::now();
    let ours = parse(&text);
    let fast = t0.elapsed();
    let t0 = Instant::now();
    let oracle = parse_oracle::parse(&text);
    let slow = t0.elapsed();
    assert_eq!(ours, oracle);
    assert_eq!(ours, Ok(g));
    assert!(
        slow >= fast * 10,
        "parse took {fast:?}, the oracle {slow:?}"
    );
}
