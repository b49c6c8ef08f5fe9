//! The analyzer's mutation corpus: one seeded defect per rule id.
//!
//! Mirrors the audit layer's corpus discipline — each test takes an honest
//! graph, plants exactly one class of defect (an oversized task, a forged
//! reference value, a widened edge, …), and pins the exact
//! [`sparcs_analyze::rules`] id that convicts it. A final sweep certifies
//! that honest graphs come back conviction-free: the analyzer distrusts
//! everything but convicts nothing feasible.

use sparcs_analyze::{analyze, crosscheck_critical_path, rules, Analysis, Severity};
use sparcs_core::partitioning::MemoryMode;
use sparcs_dfg::{gen, Resources, TaskGraph};
use sparcs_estimate::Architecture;

fn arch(clbs: u64, mem: u64) -> Architecture {
    let mut a = Architecture::xc4044_wildforce();
    a.resources = Resources::clbs(clbs);
    a.memory_words = mem;
    a
}

fn analyze_net(g: &TaskGraph, a: &Architecture) -> Analysis {
    analyze(g, a, MemoryMode::Net).expect("corpus graphs are DAGs")
}

/// The defect must be convicted under `rule` and no other error rule.
fn assert_lints(an: &Analysis, rule: &str, severity: Severity) {
    let hits: Vec<_> = an.lints.iter().filter(|l| l.rule == rule).collect();
    assert!(
        !hits.is_empty(),
        "expected a {rule} lint, got {:?}",
        an.lints
    );
    assert!(hits.iter().all(|l| l.severity == severity), "{hits:?}");
}

fn assert_silent_on(an: &Analysis, rule: &str) {
    assert!(
        !an.lints.iter().any(|l| l.rule == rule),
        "rule {rule} must not fire here: {:?}",
        an.lints
    );
}

// ---------------------------------------------------------------------------
// Conviction rules: static_verdict names exactly the planted defect.
// ---------------------------------------------------------------------------

#[test]
fn oversized_task_is_convicted_under_unschedulable() {
    let mut g = gen::fig4_example();
    let big = g.add_task("monster", Resources::clbs(5_000), 10, 1);
    g.add_env_output("tap", 1, [big]).expect("valid port");
    let an = analyze_net(&g, &arch(1_600, 65_536));
    assert_eq!(an.static_verdict(None), Some(rules::UNSCHEDULABLE));
    assert!(!an.schedulable);
    assert_lints(&an, rules::UNSCHEDULABLE, Severity::Error);
    // The honest fig4 graph is schedulable on the same board.
    let honest = analyze_net(&gen::fig4_example(), &arch(1_600, 65_536));
    assert_eq!(honest.static_verdict(None), None);
    assert_silent_on(&honest, rules::UNSCHEDULABLE);
}

#[test]
fn cap_below_the_counting_bound_is_convicted_under_partition_count() {
    // Four 900-CLB tasks in a chain on a 1000-CLB device: one task per
    // partition, so the certified lower bound is 4.
    let g = gen::chain(4, 900, 10, 1);
    let an = analyze_net(&g, &arch(1_000, 65_536));
    assert_eq!(an.partition_count_lb, 4);
    assert_eq!(
        an.static_verdict(Some(3)),
        Some(rules::PARTITION_COUNT_BOUND)
    );
    // At the bound itself the analyzer cannot rule the spec out.
    assert_eq!(an.static_verdict(Some(4)), None);
}

#[test]
fn forced_crossing_above_board_memory_is_convicted_under_memory_bound() {
    // Two 900-CLB tasks cannot share a 1000-CLB device, so their edge is
    // forced across a boundary; its 8 net words exceed a 4-word board.
    let mut g = TaskGraph::new("forced");
    let a = g.add_task("a", Resources::clbs(900), 10, 8);
    let b = g.add_task("b", Resources::clbs(900), 10, 1);
    g.add_edge(a, b, 8).expect("acyclic");
    g.add_env_input("in", 1, [a]).expect("valid");
    g.add_env_output("out", 1, [b]).expect("valid");
    let an = analyze_net(&g, &arch(1_000, 4));
    assert_eq!(an.memory_lb_words, 8);
    assert_eq!(an.static_verdict(None), Some(rules::MEMORY_BOUND));
    // With enough board memory the same graph passes.
    let an = analyze_net(&g, &arch(1_000, 8));
    assert_eq!(an.static_verdict(None), None);
}

// ---------------------------------------------------------------------------
// Bound facts: each certified value tracks a seeded mutation.
// ---------------------------------------------------------------------------

#[test]
fn critical_path_bound_tracks_a_delay_mutation() {
    let honest = analyze_net(&gen::fig4_example(), &arch(1_600, 65_536));
    assert_eq!(honest.objective_lb_ns, 700, "fig4's known critical path");
    // Inflate one on-path delay: the certified bound must follow the new
    // longest path, not the memoized old one.
    let mut g = gen::fig4_example();
    let b1 = g
        .task_ids()
        .find(|&t| g.task(t).name == "b1")
        .expect("fig4 has b1");
    g.task_mut(b1).delay_ns = 900;
    let mutated = analyze_net(&g, &arch(1_600, 65_536));
    assert_eq!(mutated.objective_lb_ns, 1_300, "900 + 100 + 200 + 100");
    assert_eq!(
        mutated.fact(rules::CRITICAL_PATH_BOUND).map(|f| f.bound),
        Some(1_300)
    );
}

#[test]
fn area_bound_tracks_a_clb_mutation() {
    // Two independent 100 ns tasks on a 1000-CLB device: the critical path
    // is 100 ns, but the work cannot be packed tighter than the device is
    // wide — ⌈(600·100 + 600·100) / 1000⌉ = 120 ns.
    let packed = |a_clbs| {
        let mut g = TaskGraph::new("packed");
        g.add_task("a", Resources::clbs(a_clbs), 100, 1);
        g.add_task("b", Resources::clbs(600), 100, 1);
        g
    };
    let board = arch(1_000, 65_536);
    let honest = analyze_net(&packed(600), &board);
    assert_eq!(honest.fact(rules::AREA_BOUND).map(|f| f.bound), Some(120));
    assert_eq!(honest.objective_lb_ns, 120);
    // Enlarge one task: the area fact and the objective bound follow it,
    // while the critical-path fact stays put.
    let mutated = analyze_net(&packed(900), &board);
    assert_eq!(mutated.fact(rules::AREA_BOUND).map(|f| f.bound), Some(150));
    assert_eq!(mutated.objective_lb_ns, 150, "⌈(900·100 + 600·100) / 1000⌉");
    for an in [&honest, &mutated] {
        assert_eq!(
            an.fact(rules::CRITICAL_PATH_BOUND).map(|f| f.bound),
            Some(100)
        );
    }
}

#[test]
fn forged_reference_is_convicted_under_bound_divergence() {
    // The two critical-path computations are independent; a forged
    // reference is exactly the defect the cross-check exists to catch.
    let lint = crosscheck_critical_path(700, 650).expect("700 != 650 must convict");
    assert_eq!(lint.rule, rules::BOUND_DIVERGENCE);
    assert_eq!(lint.severity, Severity::Error);
    assert!(crosscheck_critical_path(700, 700).is_none());
    // And an honest analysis never diverges.
    let honest = analyze_net(&gen::fig4_example(), &arch(1_600, 65_536));
    assert_silent_on(&honest, rules::BOUND_DIVERGENCE);
}

#[test]
fn temp_memory_bound_tracks_ports_but_never_convicts() {
    // A 100-word env input on a 4-word board: m_i_temp is over budget, but
    // the feasibility system constrains boundary words, not m_i_temp — the
    // fact is informational and must never prune.
    let mut g = TaskGraph::new("wide-io");
    let a = g.add_task("a", Resources::clbs(10), 10, 1);
    g.add_env_input("in", 100, [a]).expect("valid");
    g.add_env_output("out", 1, [a]).expect("valid");
    let an = analyze_net(&g, &arch(1_600, 4));
    assert_eq!(an.temp_memory_lb_words, 101, "100 in + 1 out through `a`");
    assert_eq!(
        an.fact(rules::TEMP_MEMORY_BOUND).map(|f| f.bound),
        Some(101)
    );
    assert_eq!(an.static_verdict(None), None, "m_i_temp never convicts");
}

#[test]
fn reconfig_ledger_tracks_the_partition_bound() {
    let g = gen::chain(4, 900, 10, 1);
    let mut board = arch(1_000, 65_536);
    board.reconfig_time_ns = 7;
    let an = analyze_net(&g, &board);
    assert_eq!(an.partition_count_lb, 4);
    assert_eq!(an.reconfig_lb_ns, 28, "4 loads at CT = 7 ns");
    assert_eq!(
        an.fact(rules::RECONFIG_LEDGER_BOUND).map(|f| f.bound),
        Some(28)
    );
}

// ---------------------------------------------------------------------------
// Graph lints: one planted structural defect each.
// ---------------------------------------------------------------------------

#[test]
fn widened_edge_is_convicted_under_width_mismatch() {
    let mut g = TaskGraph::new("wide-edge");
    let a = g.add_task("a", Resources::clbs(10), 10, 2);
    let b = g.add_task("b", Resources::clbs(10), 10, 1);
    g.add_edge(a, b, 9).expect("acyclic");
    g.add_env_input("in", 1, [a]).expect("valid");
    g.add_env_output("out", 1, [b]).expect("valid");
    let an = analyze_net(&g, &arch(1_600, 65_536));
    assert_lints(&an, rules::WIDTH_MISMATCH, Severity::Error);
    assert!(an.has_errors());
}

#[test]
fn unobserved_task_is_convicted_under_dead_node() {
    // `stray` writes no env output and reaches no task that does.
    let mut g = TaskGraph::new("dead");
    let a = g.add_task("a", Resources::clbs(10), 10, 1);
    let stray = g.add_task("stray", Resources::clbs(10), 10, 1);
    g.add_edge(a, stray, 1).expect("acyclic");
    g.add_env_input("in", 1, [a]).expect("valid");
    g.add_env_output("out", 1, [a]).expect("valid");
    let an = analyze_net(&g, &arch(1_600, 65_536));
    let dead: Vec<_> = an
        .lints
        .iter()
        .filter(|l| l.rule == rules::DEAD_NODE)
        .collect();
    assert_eq!(dead.len(), 1, "exactly the stray task: {:?}", an.lints);
    assert!(dead[0].details.contains("stray"));
    assert_eq!(dead[0].severity, Severity::Warning);
    assert!(!an.has_errors(), "dead nodes warn, they do not convict");
}

#[test]
fn constant_output_is_convicted_under_unreachable_output() {
    // `const_tap` is written by a task no env input feeds.
    let mut g = TaskGraph::new("const");
    let a = g.add_task("a", Resources::clbs(10), 10, 1);
    let orphan = g.add_task("orphan", Resources::clbs(10), 10, 1);
    g.add_env_input("in", 1, [a]).expect("valid");
    g.add_env_output("out", 1, [a]).expect("valid");
    g.add_env_output("const_tap", 1, [orphan]).expect("valid");
    let an = analyze_net(&g, &arch(1_600, 65_536));
    let hits: Vec<_> = an
        .lints
        .iter()
        .filter(|l| l.rule == rules::UNREACHABLE_OUTPUT)
        .collect();
    assert_eq!(hits.len(), 1, "{:?}", an.lints);
    assert!(hits[0].details.contains("const_tap"));
    assert_eq!(hits[0].severity, Severity::Warning);
}

// ---------------------------------------------------------------------------
// Honest graphs certify conviction-free.
// ---------------------------------------------------------------------------

#[test]
fn honest_layered_graphs_are_never_convicted_on_a_generous_board() {
    // Every task fits, the board memory dwarfs any net, and no cap is
    // given: nothing is prunable, and the generator wires every task to
    // the environment so no structural lint can fire either. The word
    // range is pinned so edge widths always match producer outputs (the
    // default config draws them independently, which is exactly the
    // defect `width-mismatch` exists to flag).
    let generous = arch(1_000_000, 1_000_000_000);
    let cfg = gen::LayeredConfig {
        words: (4, 4),
        ..gen::LayeredConfig::default()
    };
    for seed in 0..40 {
        let g = gen::layered(&cfg, seed);
        let an = analyze_net(&g, &generous);
        assert_eq!(an.static_verdict(None), None, "seed {seed}: {:?}", an.lints);
        assert!(!an.has_errors(), "seed {seed}: {:?}", an.lints);
        assert_eq!(an.partition_count_lb, 1, "everything fits together");
    }
}
