//! The mutation corpus: seeded defects the certifier must reject.
//!
//! Each test takes a *real* artifact from the pipeline — the §4 DCT
//! experiment's partitioned design, fission analysis, streamed time
//! reports, or a hand-checked MILP — plants one class of defect, and pins
//! the exact [`sparcs_audit::rules`] id the auditor rejects it under.
//! A final property block certifies that genuine pipeline outputs (the
//! exact ILP over random layered graphs, the paper's DCT design) come
//! back with zero diagnostics — the auditor distrusts everything but
//! convicts nothing honest.

use proptest::prelude::*;
use sparcs::casestudy::DctExperiment;
use sparcs::flow::FlowSession;
use sparcs_audit::{
    audit_design, audit_fission, audit_segments, audit_solution, audit_time_report, rules,
    Diagnostic, Severity,
};
use sparcs_core::partitioning::{MemoryMode, Partitioning};
use sparcs_core::SequencingStrategy;
use sparcs_dfg::{Resources, TaskId};
use sparcs_ilp::{Model, Sense, Solution, Status};
use sparcs_rtr::{CountingSink, IdhSequencer, Sequencer, SyntheticSource, TimeReport};

fn exp() -> DctExperiment {
    // Assembly routes through the global partition cache, so the ILP
    // solve behind this happens once per test process.
    DctExperiment::paper().expect("the paper experiment assembles")
}

fn rule_ids(diags: &[Diagnostic]) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = diags.iter().map(|d| d.rule).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// The defect class must be convicted under its own rule id.
fn assert_rejects(diags: &[Diagnostic], rule: &str) {
    assert!(
        diags.iter().any(|d| d.rule == rule),
        "expected a {rule} diagnostic, got {:?}:\n{}",
        rule_ids(diags),
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn assert_silent_on(diags: &[Diagnostic], rule: &str) {
    assert!(
        !diags.iter().any(|d| d.rule == rule),
        "rule {rule} must not fire here, got:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ---------------------------------------------------------------------------
// Honest artifacts certify clean.
// ---------------------------------------------------------------------------

#[test]
fn real_dct_design_and_fission_certify_clean() {
    let e = exp();
    let diags = audit_design(&e.dct.graph, &e.arch, &e.design, MemoryMode::Net);
    assert!(diags.is_empty(), "design: {diags:?}");
    let diags = audit_fission(&e.dct.graph, &e.design.partitioning, &e.fission, &e.arch);
    assert!(diags.is_empty(), "fission: {diags:?}");

    // The explicit schedule derived from the partitioning is also clean.
    let segments = segments_of(&e);
    let diags = audit_segments(&e.dct.graph, &segments);
    assert!(diags.is_empty(), "segments: {diags:?}");
}

#[test]
fn real_streamed_report_certifies_clean() {
    let e = exp();
    let (report, _) = streamed_report(&e, 2 * e.fission.k);
    let diags = audit_time_report(
        &e.dct.graph,
        &e.design.partitioning,
        &e.fission,
        SequencingStrategy::Idh,
        2 * e.fission.k,
        &report,
    );
    assert!(diags.is_empty(), "report: {diags:?}");
}

fn segments_of(e: &DctExperiment) -> Vec<Vec<TaskId>> {
    let part = &e.design.partitioning;
    let mut segments = vec![Vec::new(); part.partition_count() as usize];
    for t in e.dct.graph.task_ids() {
        segments[part.partition_of(t).0 as usize].push(t);
    }
    segments
}

fn streamed_report(e: &DctExperiment, computations: u64) -> (TimeReport, u64) {
    let rtr = e.rtr_design();
    let idh = IdhSequencer::new(&e.arch, &rtr);
    let mut source = SyntheticSource::new(computations, rtr.primary_input_words);
    let mut sink = CountingSink::new();
    let report = idh.run(&mut source, &mut sink).expect("streamed run");
    (report, computations)
}

// ---------------------------------------------------------------------------
// Design-level mutations.
// ---------------------------------------------------------------------------

/// Class 1: a producer moved after its consumer (Eq. 2 inverted).
#[test]
fn mutation_precedence_inversion() {
    let e = exp();
    let mut design = e.design.clone();
    // Swap the assignments across a partition-crossing edge.
    let edge = e
        .dct
        .graph
        .edges()
        .iter()
        .find(|edge| {
            design.partitioning.partition_of(edge.src) < design.partitioning.partition_of(edge.dst)
        })
        .expect("the 3-partition DCT design has crossing edges");
    let mut assignment = design.partitioning.assignment().to_vec();
    assignment.swap(edge.src.index(), edge.dst.index());
    design.partitioning = Partitioning::new(assignment);
    let diags = audit_design(&e.dct.graph, &e.arch, &design, MemoryMode::Net);
    assert_rejects(&diags, rules::PRECEDENCE_INVERSION);
}

/// Class 2: a partition overflowing the device's CLBs (Eq. 6). This is a
/// feasibility defect, so it must come back warning-class: the flow gate
/// leaves it to the validate/require_valid machinery instead of hard
/// failing a capacity-blind heuristic.
#[test]
fn mutation_resource_overflow() {
    let e = exp();
    let mut arch = e.arch.clone();
    arch.resources = Resources::clbs(1);
    let diags = audit_design(&e.dct.graph, &arch, &e.design, MemoryMode::Net);
    assert_rejects(&diags, rules::RESOURCE_OVERFLOW);
    assert!(diags
        .iter()
        .filter(|d| d.rule == rules::RESOURCE_OVERFLOW)
        .all(|d| d.severity == Severity::Warning));
}

/// Class 3: boundary storage beyond the board memory (Eq. 3).
#[test]
fn mutation_memory_overflow() {
    let e = exp();
    let mut arch = e.arch.clone();
    arch.memory_words = 1;
    let diags = audit_design(&e.dct.graph, &arch, &e.design, MemoryMode::Net);
    assert_rejects(&diags, rules::MEMORY_OVERFLOW);
    assert!(diags
        .iter()
        .filter(|d| d.rule == rules::MEMORY_OVERFLOW)
        .all(|d| d.severity == Severity::Warning));
}

/// Class 4: per-segment delays redistributed with their sum preserved.
/// The forged vector must be caught per entry — and precisely because the
/// sum is preserved, the objective rule must stay silent: the auditor
/// recomputes the objective from the graph, never from the claimed
/// vector, so this mutation separates the two rules.
#[test]
fn mutation_segment_delay_rotation() {
    let e = exp();
    let mut design = e.design.clone();
    let last = design.partition_delays_ns.len() - 1;
    design.partition_delays_ns[0] += 1;
    design.partition_delays_ns[last] -= 1;
    let diags = audit_design(&e.dct.graph, &e.arch, &design, MemoryMode::Net);
    assert_rejects(&diags, rules::SEGMENT_DELAY);
    assert_silent_on(&diags, rules::OBJECTIVE_MISMATCH);
}

/// Class 5: the claimed latency off by one (with an untouched, honest
/// delay vector — the dual of class 4).
#[test]
fn mutation_objective_mismatch() {
    let e = exp();
    let mut design = e.design.clone();
    design.latency_ns -= 1;
    let diags = audit_design(&e.dct.graph, &e.arch, &design, MemoryMode::Net);
    assert_rejects(&diags, rules::OBJECTIVE_MISMATCH);
    assert_silent_on(&diags, rules::SEGMENT_DELAY);
}

/// Class 6: a truncated schedule — delay vector shorter than the segment
/// count, and an assignment that does not cover the graph.
#[test]
fn mutation_schedule_truncated() {
    let e = exp();
    let mut design = e.design.clone();
    design.partition_delays_ns.pop();
    let diags = audit_design(&e.dct.graph, &e.arch, &design, MemoryMode::Net);
    assert_rejects(&diags, rules::SCHEDULE_TRUNCATED);

    let mut design = e.design.clone();
    let mut assignment = design.partitioning.assignment().to_vec();
    assignment.pop();
    design.partitioning = Partitioning::new(assignment);
    let diags = audit_design(&e.dct.graph, &e.arch, &design, MemoryMode::Net);
    assert_rejects(&diags, rules::SCHEDULE_TRUNCATED);
}

/// Class 7: a task scheduled twice in the explicit segment form.
#[test]
fn mutation_duplicate_assignment() {
    let e = exp();
    let mut segments = segments_of(&e);
    let dup = segments[0][0];
    segments.last_mut().expect("segments").push(dup);
    let diags = audit_segments(&e.dct.graph, &segments);
    assert_rejects(&diags, rules::DUPLICATE_ASSIGNMENT);
}

// ---------------------------------------------------------------------------
// Fission-level mutations.
// ---------------------------------------------------------------------------

/// Class 8: a boundary transfer invented in the `m_i_temp` budget.
#[test]
fn mutation_boundary_conservation() {
    let e = exp();
    let mut fission = e.fission.clone();
    fission.m_temp_words[1] += 1;
    let diags = audit_fission(&e.dct.graph, &e.design.partitioning, &fission, &e.arch);
    assert_rejects(&diags, rules::BOUNDARY_CONSERVATION);
}

/// Class 9: a fission factor violating Eq. 9 for the block geometry.
#[test]
fn mutation_fission_k() {
    let e = exp();
    let mut fission = e.fission.clone();
    fission.k += 1;
    let diags = audit_fission(&e.dct.graph, &e.design.partitioning, &fission, &e.arch);
    assert_rejects(&diags, rules::FISSION_K);
}

/// Class 10: the analysis embedding different board constants than the
/// architecture it is certified against.
#[test]
fn mutation_arch_mismatch() {
    let e = exp();
    let mut fission = e.fission.clone();
    fission.reconfig_time_ns += 1;
    let diags = audit_fission(&e.dct.graph, &e.design.partitioning, &fission, &e.arch);
    assert_rejects(&diags, rules::ARCH_MISMATCH);
}

// ---------------------------------------------------------------------------
// Report-level mutations.
// ---------------------------------------------------------------------------

/// Class 11: a tampered total and a stale report (wrong workload), both
/// convicted against the §4 accounting.
#[test]
fn mutation_report_inconsistent() {
    let e = exp();
    let workload = 2 * e.fission.k;
    let (honest, _) = streamed_report(&e, workload);

    let mut report = honest;
    report.total_ns += 1;
    let diags = audit_time_report(
        &e.dct.graph,
        &e.design.partitioning,
        &e.fission,
        SequencingStrategy::Idh,
        workload,
        &report,
    );
    assert_rejects(&diags, rules::REPORT_INCONSISTENT);

    // The honest report offered for a different run is stale.
    let diags = audit_time_report(
        &e.dct.graph,
        &e.design.partitioning,
        &e.fission,
        SequencingStrategy::Idh,
        workload + 1,
        &honest,
    );
    assert_rejects(&diags, rules::REPORT_INCONSISTENT);
}

// ---------------------------------------------------------------------------
// Solution-level mutations (hand-checked MILP: min x + 2y, x + y >= 1,
// x and y binary; the unique optimum is x = 1, y = 0 at objective 1).
// ---------------------------------------------------------------------------

fn tiny_model() -> (Model, sparcs_ilp::Var, sparcs_ilp::Var) {
    let mut m = Model::new("tiny");
    let x = m.add_binary("x");
    let y = m.add_binary("y");
    m.add_constraint("cover", [(x, 1.0), (y, 1.0)], Sense::Ge, 1.0);
    m.set_objective_min([(x, 1.0), (y, 2.0)]);
    (m, x, y)
}

fn solution(x: Vec<f64>, objective: f64) -> Solution {
    Solution {
        x,
        objective,
        bound: objective,
        nodes: 1,
        pivots: 1,
        cold_solves: 1,
        status: Status::Optimal,
    }
}

#[test]
fn tiny_model_honest_solution_certifies_clean() {
    let (m, _, _) = tiny_model();
    let diags = audit_solution(&m, &solution(vec![1.0, 0.0], 1.0));
    assert!(diags.is_empty(), "{diags:?}");
}

/// Class 12: a component outside its variable bounds.
#[test]
fn mutation_solution_bounds() {
    let (m, _, _) = tiny_model();
    let diags = audit_solution(&m, &solution(vec![2.0, 0.0], 2.0));
    assert_rejects(&diags, rules::SOLUTION_BOUNDS);
}

/// Class 13: a binary variable holding a fractional value (the LP
/// relaxation passed off as the integer optimum).
#[test]
fn mutation_solution_integrality() {
    let (m, _, _) = tiny_model();
    let diags = audit_solution(&m, &solution(vec![0.5, 0.5], 1.5));
    assert_rejects(&diags, rules::SOLUTION_INTEGRALITY);
    assert_silent_on(&diags, rules::SOLUTION_CONSTRAINT);
    assert_silent_on(&diags, rules::SOLUTION_OBJECTIVE);
}

/// Class 14: a violated constraint row with honest bounds and objective.
#[test]
fn mutation_solution_constraint() {
    let (m, _, _) = tiny_model();
    let diags = audit_solution(&m, &solution(vec![0.0, 0.0], 0.0));
    assert_rejects(&diags, rules::SOLUTION_CONSTRAINT);
    assert_silent_on(&diags, rules::SOLUTION_BOUNDS);
}

/// Class 15: a claimed objective the vector does not evaluate to.
#[test]
fn mutation_solution_objective() {
    let (m, _, _) = tiny_model();
    let diags = audit_solution(&m, &solution(vec![1.0, 0.0], 2.0));
    assert_rejects(&diags, rules::SOLUTION_OBJECTIVE);
    assert_silent_on(&diags, rules::SOLUTION_CONSTRAINT);
}

// ---------------------------------------------------------------------------
// Property: the real pipeline never gets convicted.
// ---------------------------------------------------------------------------

fn small_graph_strategy() -> impl Strategy<Value = sparcs::dfg::TaskGraph> {
    use sparcs::dfg::gen::{layered, LayeredConfig};
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Every design the production flow hands out — exact ILP through the
    /// mandatory certification gate — re-certifies with zero diagnostics
    /// of any severity on a device generous enough for the graph.
    #[test]
    fn pipeline_designs_certify_clean(g in small_graph_strategy()) {
        let mut arch = sparcs::estimate::Architecture::xc4044_wildforce();
        arch.resources = Resources::clbs(700);
        arch.memory_words = 1_000_000;
        let session = FlowSession::new(g, arch);
        let flow = session.partition();
        prop_assume!(flow.is_ok());
        let flow = flow.expect("checked");
        let diags = flow.certify(MemoryMode::Net);
        prop_assert!(diags.is_empty(), "convicted an honest design: {diags:?}");
    }
}

/// And the paper's own design survives certification end to end via the
/// flow gate (a [`sparcs::flow::FlowError::Certification`] here would
/// abort assembly inside [`DctExperiment::paper`] itself).
#[test]
fn dct_case_study_passes_the_flow_gate() {
    let e = exp();
    assert_eq!(e.design.partitioning.partition_count(), 3);
    assert_eq!(e.design.latency_ns, 3 * e.arch.reconfig_time_ns + 8_440);
}
