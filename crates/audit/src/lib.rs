//! Independent certification of everything the SPARCS solvers produce.
//!
//! The optimizer stack (the exact ILP of `sparcs_core::ilp`, the heuristic
//! strategies, the fission analysis, the streaming simulators) is the only
//! thing that *checks* the optimizer stack everywhere else in the
//! workspace: `Partitioning::validate` shares helper code with the model
//! generator, the fission analysis re-reports its own inputs, and the
//! `TimeReport`s are compared against formulas evaluated by the same crate
//! that produced them. A plausible-but-wrong design sails through all of
//! that. This crate is the adversary: it re-derives every legality
//! condition **from first principles** — its own topological sort, its own
//! longest-path delays, its own boundary-memory accounting, its own §2.2
//! timing formulas — and deliberately calls none of the production
//! validation paths (`Partitioning::validate`, `memory::boundary_words`,
//! `delay::partition_delays`, the solver). The only shared surface is the
//! plain data types being judged.
//!
//! Checks are grouped by artifact:
//!
//! * [`audit_design`] — a [`PartitionedDesign`] against the paper's
//!   feasibility system: Eq. 2 precedence, Eq. 6 resources, Eq. 3 boundary
//!   memory, plus the delay/latency identities the solver *claims*
//!   (`partition_delays_ns`, `sum_delay_ns`, `latency_ns`) recomputed from
//!   the graph rather than trusted from `SolveStats`.
//! * [`audit_segments`] — an explicit temporal schedule (task lists per
//!   segment): every task exactly once, precedence across segments.
//! * [`audit_fission`] — a [`FissionAnalysis`] against its graph: the
//!   per-partition `m_i_temp` word conservation, block rounding, Eq. 9's
//!   `k`, and the delay vector it carries.
//! * [`audit_time_report`] — a streamed [`TimeReport`] against the §4
//!   FDH/IDH accounting, re-evaluated from the fission geometry.
//! * [`audit_solution`] — a raw MILP [`Solution`] against its [`Model`]:
//!   bounds, integrality, every constraint row, and the objective
//!   re-evaluated from the solution vector.
//!
//! Every violation is a machine-readable [`Diagnostic`]. Severity encodes
//! *provenance*, not importance: [`Severity::Error`] marks internal
//! inconsistencies no honest producer can emit (forged objective, delays
//! that do not match the assignment, truncated or duplicated schedules) —
//! evidence of a solver bug; [`Severity::Warning`] marks architecture
//! feasibility violations (precedence, resource, memory capacity), which
//! capacity-blind heuristics produce legitimately and the flow layer
//! already treats as *infeasible candidates* rather than bugs. The
//! `FlowSession` post-pass therefore hard-fails on errors, while benches,
//! the CLI `audit` subcommand and the end-to-end tests demand an empty
//! diagnostic list outright.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sparcs_core::fission::FissionAnalysis;
use sparcs_core::ilp::PartitionedDesign;
use sparcs_core::partitioning::{MemoryMode, Partitioning};
use sparcs_core::SequencingStrategy;
use sparcs_dfg::graph::Edge;
use sparcs_dfg::{TaskGraph, TaskId};
use sparcs_estimate::Architecture;
use sparcs_ilp::{Model, Sense, Solution, Status, VarKind};
use sparcs_rtr::TimeReport;
use std::fmt;

/// Stable rule identifiers, one per defect class the certifier can reject.
/// These are the `rule` values of emitted [`Diagnostic`]s and the contract
/// the mutation corpus pins: each seeded defect class must be rejected
/// under its own id.
pub mod rules {
    /// A data edge runs backwards in time: its producer is assigned to a
    /// later temporal segment than its consumer (paper Eq. 2).
    pub const PRECEDENCE_INVERSION: &str = "precedence-inversion";
    /// A partition's summed task resources exceed the device capacity
    /// (paper Eq. 6).
    pub const RESOURCE_OVERFLOW: &str = "resource-overflow";
    /// Words stored across a partition boundary exceed the board memory
    /// `M_max` (paper Eq. 3).
    pub const MEMORY_OVERFLOW: &str = "memory-overflow";
    /// A per-segment delay does not match the longest path of the tasks
    /// actually assigned to that segment.
    pub const SEGMENT_DELAY: &str = "segment-delay";
    /// A claimed objective (`sum_delay_ns`, `latency_ns`, or a fission
    /// total) disagrees with the value recomputed from the design.
    pub const OBJECTIVE_MISMATCH: &str = "objective-mismatch";
    /// The schedule does not cover the design: a task appears in no
    /// segment, a vector has the wrong length, or a segment index is out
    /// of range.
    pub const SCHEDULE_TRUNCATED: &str = "schedule-truncated";
    /// A task is assigned to more than one temporal segment.
    pub const DUPLICATE_ASSIGNMENT: &str = "duplicate-assignment";
    /// The fission analysis budgets fewer (or more) words for a partition
    /// than the partition actually moves per computation — a boundary
    /// transfer was dropped from (or invented in) the `m_i_temp`
    /// accounting, or a memory block is smaller than the data it must
    /// hold.
    pub const BOUNDARY_CONSERVATION: &str = "boundary-conservation";
    /// The fission factor `k` (or the waste it implies) violates Eq. 9
    /// for the block geometry and board memory.
    pub const FISSION_K: &str = "fission-k";
    /// The analysis embeds different board constants (`CT`, `D_m`) than
    /// the architecture it is being certified against.
    pub const ARCH_MISMATCH: &str = "arch-mismatch";
    /// A streamed `TimeReport` disagrees with the §4 FDH/IDH accounting
    /// re-derived from the fission geometry and workload.
    pub const REPORT_INCONSISTENT: &str = "report-inconsistent";
    /// A solution component violates its variable bounds, or the vector
    /// has the wrong arity.
    pub const SOLUTION_BOUNDS: &str = "solution-bounds";
    /// A binary/integer variable holds a fractional value.
    pub const SOLUTION_INTEGRALITY: &str = "solution-integrality";
    /// A constraint row is violated by the solution vector.
    pub const SOLUTION_CONSTRAINT: &str = "solution-constraint";
    /// The reported objective (or dual bound) disagrees with the value
    /// re-evaluated from the solution vector.
    pub const SOLUTION_OBJECTIVE: &str = "solution-objective";
}

/// What a diagnostic's rule class implies about its producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// An architecture-feasibility violation: fatal for realization, but a
    /// legitimate outcome of capacity-blind heuristics — the flow layer
    /// treats these designs as infeasible candidates, not bugs.
    Warning,
    /// An internal inconsistency no honest producer can emit; evidence of
    /// a solver/strategy bug. The mandatory `FlowSession` post-pass fails
    /// on these.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One certified violation: which rule, how bad, where, and the recomputed
/// evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id from [`rules`].
    pub rule: &'static str,
    /// See [`Severity`].
    pub severity: Severity,
    /// Where in the artifact (`"edge t3->t5"`, `"partition 2"`,
    /// `"boundary 1/2"`, `"design"`, …).
    pub location: String,
    /// Human-readable evidence: the claimed value and the independently
    /// recomputed one.
    pub details: String,
}

impl Diagnostic {
    fn error(rule: &'static str, location: impl Into<String>, details: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Error,
            location: location.into(),
            details: details.into(),
        }
    }

    fn warning(
        rule: &'static str,
        location: impl Into<String>,
        details: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Warning,
            location: location.into(),
            details: details.into(),
        }
    }

    /// Renders the diagnostic as one JSON object (machine-readable CLI
    /// output; no serde dependency so the certifier stays leaf-light).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        format!(
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"location\":\"{}\",\"details\":\"{}\"}}",
            esc(self.rule),
            self.severity,
            esc(&self.location),
            esc(&self.details)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule, self.location, self.details
        )
    }
}

/// `true` when any diagnostic is [`Severity::Error`] — the condition the
/// mandatory flow post-pass fails on.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

// ---------------------------------------------------------------------------
// First-principles graph helpers. These intentionally re-implement what
// `sparcs_dfg`/`sparcs_core` already offer (adjacency, topological order,
// partition delays, boundary words): the whole point of the certifier is
// that a bug in the production code paths cannot hide itself here. Every
// helper reads the raw `g.edges()` list, never `TaskGraph`'s own adjacency.
// The segment delays take one pass when every edge runs forward and one
// pass per segment otherwise, each written here, so forged designs are
// still priced exactly.
// ---------------------------------------------------------------------------

/// Out-edge index from the raw edge list: entry `t` holds the edges
/// leaving task `t`, in edge-list order. Each audit builds it once and
/// hands it to the helpers below that walk a task's consumers.
fn own_out_edges(g: &TaskGraph) -> Vec<Vec<&Edge>> {
    let mut out: Vec<Vec<&Edge>> = vec![Vec::new(); g.task_count()];
    for e in g.edges() {
        out[e.src.index()].push(e);
    }
    out
}

/// Kahn's algorithm over the raw edge list and its `out_edges` index.
/// Returns `None` on a cycle.
fn own_topo_order(g: &TaskGraph, out_edges: &[Vec<&Edge>]) -> Option<Vec<TaskId>> {
    let n = g.task_count();
    let mut indegree = vec![0usize; n];
    for e in g.edges() {
        indegree[e.dst.index()] += 1;
    }
    let mut frontier: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = frontier.pop() {
        order.push(TaskId(i as u32));
        for e in &out_edges[i] {
            let s = e.dst.index();
            indegree[s] -= 1;
            if indegree[s] == 0 {
                frontier.push(s);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Longest root→leaf path per temporal segment, counting only the delays
/// of tasks assigned to that segment (the convention behind
/// `partition_delays_ns` everywhere in the workspace). `assignment[t]` is
/// the segment of task `t` (each below `n`); `n` the segment count.
///
/// When every edge runs forward in time, a path enters each segment at
/// most once, so its tasks there are one run and one pass prices every
/// segment: a task extends only the same-segment predecessors. A backward
/// edge lets a path leave a segment and re-enter it, with both visits
/// counted, so such an assignment (one the precedence rule already
/// flags) takes one masked pass per segment instead.
fn own_segment_delays(
    g: &TaskGraph,
    out_edges: &[Vec<&Edge>],
    assignment: &[u32],
    n: u32,
) -> Option<Vec<u64>> {
    let order = own_topo_order(g, out_edges)?;
    let forward = g
        .edges()
        .iter()
        .all(|e| assignment[e.src.index()] <= assignment[e.dst.index()]);
    Some(if forward {
        own_forward_segment_delays(g, assignment, n, &order)
    } else {
        own_masked_segment_delays(g, assignment, n, &order)
    })
}

/// The one-pass rule of [`own_segment_delays`], for forward assignments.
fn own_forward_segment_delays(
    g: &TaskGraph,
    assignment: &[u32],
    n: u32,
    order: &[TaskId],
) -> Vec<u64> {
    let mut same_segment_preds: Vec<Vec<usize>> = vec![Vec::new(); g.task_count()];
    for e in g.edges() {
        let (s, d) = (e.src.index(), e.dst.index());
        if assignment[s] == assignment[d] {
            same_segment_preds[d].push(s);
        }
    }
    let mut delays = vec![0u64; n as usize];
    let mut dist = vec![0u64; g.task_count()];
    for &t in order {
        let i = t.index();
        let from_preds = same_segment_preds[i]
            .iter()
            .map(|&q| dist[q])
            .max()
            .unwrap_or(0);
        dist[i] = from_preds + g.task(t).delay_ns;
        let longest = &mut delays[assignment[i] as usize];
        *longest = (*longest).max(dist[i]);
    }
    delays
}

/// One whole-graph longest path per segment, other segments' tasks
/// weighted 0: exact for any assignment, and the reference the one-pass
/// rule is tested against.
fn own_masked_segment_delays(
    g: &TaskGraph,
    assignment: &[u32],
    n: u32,
    order: &[TaskId],
) -> Vec<u64> {
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); g.task_count()];
    for e in g.edges() {
        preds[e.dst.index()].push(e.src.index());
    }
    let mut delays = vec![0u64; n as usize];
    let mut dist = vec![0u64; g.task_count()];
    for p in 0..n {
        for d in dist.iter_mut() {
            *d = 0;
        }
        let mut longest = 0u64;
        for &t in order {
            let i = t.index();
            let from_preds = preds[i].iter().map(|&q| dist[q]).max().unwrap_or(0);
            let own = if assignment[i] == p {
                g.task(t).delay_ns
            } else {
                0
            };
            dist[i] = from_preds + own;
            longest = longest.max(dist[i]);
        }
        delays[p as usize] = longest;
    }
    delays
}

/// Words stored across each of the `N − 1` partition boundaries, from the
/// raw edge list (paper Eq. 3 under either accounting convention).
fn own_boundary_words(
    g: &TaskGraph,
    out_edges: &[Vec<&Edge>],
    assignment: &[u32],
    n: u32,
    mode: MemoryMode,
) -> Vec<u64> {
    if n <= 1 {
        return Vec::new();
    }
    let mut out = vec![0u64; (n - 1) as usize];
    match mode {
        MemoryMode::Edge => {
            // Each straddling edge stores its own payload copy.
            for e in g.edges() {
                let (ps, pd) = (assignment[e.src.index()], assignment[e.dst.index()]);
                for b in ps..pd.min(n) {
                    out[b as usize] += e.words;
                }
            }
        }
        MemoryMode::Net => {
            // One stored copy per produced value, live until its last
            // consumer's segment.
            for (t, task) in g.tasks() {
                let ps = assignment[t.index()];
                let last = out_edges[t.index()]
                    .iter()
                    .map(|e| assignment[e.dst.index()])
                    .max()
                    .unwrap_or(ps);
                for b in ps..last.min(n) {
                    out[b as usize] += task.output_words;
                }
            }
        }
    }
    out
}

/// One segment's per-computation word traffic, re-derived (paper §2.2/§4
/// `m_i_temp` accounting: environment words counted once per
/// consuming/producing partition, net semantics for inter-task values —
/// a consumer reads at most the producer's stored value).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SegIo {
    env_in: u64,
    cross_in: u64,
    cross_out: u64,
    env_out: u64,
}

impl SegIo {
    /// The paper's `m_i_temp`: everything moved per computation.
    fn moved(&self) -> u64 {
        self.env_in + self.cross_in + self.cross_out + self.env_out
    }
}

fn own_segment_io(
    g: &TaskGraph,
    out_edges: &[Vec<&Edge>],
    assignment: &[u32],
    n: u32,
) -> Vec<SegIo> {
    let mut io = vec![SegIo::default(); n as usize];
    for (_, port) in g.env_inputs() {
        let mut parts: Vec<u32> = port.tasks.iter().map(|&t| assignment[t.index()]).collect();
        parts.sort_unstable();
        parts.dedup();
        for p in parts {
            io[p as usize].env_in += port.words;
        }
    }
    for (_, port) in g.env_outputs() {
        let mut parts: Vec<u32> = port.tasks.iter().map(|&t| assignment[t.index()]).collect();
        parts.sort_unstable();
        parts.dedup();
        for p in parts {
            io[p as usize].env_out += port.words;
        }
    }
    for (t, task) in g.tasks() {
        let ps = assignment[t.index()];
        let mut words_into: Vec<(u32, u64)> = Vec::new();
        for e in &out_edges[t.index()] {
            let pd = assignment[e.dst.index()];
            if pd == ps {
                continue;
            }
            match words_into.iter_mut().find(|(p, _)| *p == pd) {
                Some((_, w)) => *w += e.words,
                None => words_into.push((pd, e.words)),
            }
        }
        if !words_into.is_empty() {
            io[ps as usize].cross_out += task.output_words;
            for (p, w) in words_into {
                io[p as usize].cross_in += w.min(task.output_words);
            }
        }
    }
    io
}

// ---------------------------------------------------------------------------
// Artifact audits.
// ---------------------------------------------------------------------------

/// Certifies a [`PartitionedDesign`] against the graph and architecture it
/// claims to solve: schedule shape, Eq. 2 precedence, Eq. 6 resources,
/// Eq. 3 boundary memory under `mode`, and the delay/latency identities
/// recomputed from scratch.
pub fn audit_design(
    g: &TaskGraph,
    arch: &Architecture,
    design: &PartitionedDesign,
    mode: MemoryMode,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let part: &Partitioning = &design.partitioning;
    let n = part.partition_count();
    let raw = part.assignment();
    if raw.len() != g.task_count() {
        diags.push(Diagnostic::error(
            rules::SCHEDULE_TRUNCATED,
            "design",
            format!(
                "assignment covers {} tasks but the graph has {}",
                raw.len(),
                g.task_count()
            ),
        ));
        return diags; // nothing below can index safely
    }
    let assignment: Vec<u32> = raw.iter().map(|p| p.0).collect();
    if let Some((t, &p)) = assignment.iter().enumerate().find(|&(_, &p)| p >= n) {
        diags.push(Diagnostic::error(
            rules::SCHEDULE_TRUNCATED,
            format!("task t{t}"),
            format!("assigned to segment {p} but the schedule has {n} segments"),
        ));
        return diags;
    }
    let out_edges = own_out_edges(g);
    let mut seen = vec![false; n as usize];
    for &p in &assignment {
        seen[p as usize] = true;
    }
    for (p, seen) in seen.iter().enumerate() {
        if !seen {
            diags.push(Diagnostic::error(
                rules::SCHEDULE_TRUNCATED,
                format!("partition {p}"),
                "temporal segment holds no tasks — the schedule loads an empty configuration"
                    .to_string(),
            ));
        }
    }

    // Eq. 2: every edge must run forward in time.
    for e in g.edges() {
        let (ps, pd) = (assignment[e.src.index()], assignment[e.dst.index()]);
        if ps > pd {
            diags.push(Diagnostic::warning(
                rules::PRECEDENCE_INVERSION,
                format!("edge {}->{}", e.src, e.dst),
                format!("producer runs in segment {ps}, after its consumer's segment {pd}"),
            ));
        }
    }

    // Eq. 6: summed task resources fit the device, per partition.
    let cap = &arch.resources;
    let mut used = vec![[0u64; 4]; n as usize];
    for (t, task) in g.tasks() {
        let u = &mut used[assignment[t.index()] as usize];
        u[0] += task.resources.clbs;
        u[1] += task.resources.flip_flops;
        u[2] += task.resources.mult_blocks;
        u[3] += task.resources.bram_words;
    }
    let caps = [
        ("clbs", cap.clbs),
        ("flip_flops", cap.flip_flops),
        ("mult_blocks", cap.mult_blocks),
        ("bram_words", cap.bram_words),
    ];
    for (p, u) in used.iter().enumerate() {
        for (i, &(name, have)) in caps.iter().enumerate() {
            if u[i] > have {
                diags.push(Diagnostic::warning(
                    rules::RESOURCE_OVERFLOW,
                    format!("partition {p}"),
                    format!("uses {} {name} but the device has {have}", u[i]),
                ));
            }
        }
    }

    // Eq. 3: boundary memory within M_max.
    for (b, &words) in own_boundary_words(g, &out_edges, &assignment, n, mode)
        .iter()
        .enumerate()
    {
        if words > arch.memory_words {
            diags.push(Diagnostic::warning(
                rules::MEMORY_OVERFLOW,
                format!("boundary {b}/{}", b + 1),
                format!(
                    "stores {words} words, {} over the board's {} ({:?} accounting)",
                    words - arch.memory_words,
                    arch.memory_words,
                    mode
                ),
            ));
        }
    }

    // The delay vector, recomputed. A cycle makes delays undefined (and is
    // itself a fatal precedence defect).
    let Some(recomputed) = own_segment_delays(g, &out_edges, &assignment, n) else {
        diags.push(Diagnostic::error(
            rules::PRECEDENCE_INVERSION,
            "design",
            "the task graph contains a dependency cycle — no temporal order exists".to_string(),
        ));
        return diags;
    };
    if design.partition_delays_ns.len() != n as usize {
        diags.push(Diagnostic::error(
            rules::SCHEDULE_TRUNCATED,
            "design",
            format!(
                "schedule claims {} per-segment delays for {} segments",
                design.partition_delays_ns.len(),
                n
            ),
        ));
    } else {
        for (p, (&claimed, &actual)) in design
            .partition_delays_ns
            .iter()
            .zip(recomputed.iter())
            .enumerate()
        {
            if claimed != actual {
                diags.push(Diagnostic::error(
                    rules::SEGMENT_DELAY,
                    format!("partition {p}"),
                    format!(
                        "claims a segment delay of {claimed} ns; the tasks assigned there have a \
                         longest path of {actual} ns"
                    ),
                ));
            }
        }
    }

    // The objective identities, from the recomputed delays (never from the
    // claimed vector — a forged vector must not vouch for a forged sum).
    let sum: u64 = recomputed.iter().sum();
    if design.sum_delay_ns != sum {
        diags.push(Diagnostic::error(
            rules::OBJECTIVE_MISMATCH,
            "design",
            format!(
                "claims sum_delay_ns = {} but the segments' longest paths sum to {sum}",
                design.sum_delay_ns
            ),
        ));
    }
    let latency = u64::from(n) * arch.reconfig_time_ns + sum;
    if design.latency_ns != latency {
        diags.push(Diagnostic::error(
            rules::OBJECTIVE_MISMATCH,
            "design",
            format!(
                "claims latency_ns = {} but N*CT + sum of delays = {}*{} + {sum} = {latency}",
                design.latency_ns, n, arch.reconfig_time_ns
            ),
        ));
    }
    diags
}

/// Certifies an explicit temporal schedule — one task list per segment, in
/// execution order: every graph task appears in exactly one segment, and
/// every data edge runs forward across the segment order.
pub fn audit_segments(g: &TaskGraph, segments: &[Vec<TaskId>]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let n = g.task_count();
    let mut segment_of: Vec<Option<usize>> = vec![None; n];
    let mut counts = vec![0usize; n];
    for (s, seg) in segments.iter().enumerate() {
        for &t in seg {
            if t.index() >= n {
                diags.push(Diagnostic::error(
                    rules::SCHEDULE_TRUNCATED,
                    format!("segment {s}"),
                    format!("references {t}, which is not a task of this graph"),
                ));
                continue;
            }
            counts[t.index()] += 1;
            if counts[t.index()] > 1 {
                let first = segment_of[t.index()].unwrap_or(s);
                diags.push(Diagnostic::error(
                    rules::DUPLICATE_ASSIGNMENT,
                    format!("{t}"),
                    format!("scheduled in segment {first} and again in segment {s}"),
                ));
            } else {
                segment_of[t.index()] = Some(s);
            }
        }
    }
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            diags.push(Diagnostic::error(
                rules::SCHEDULE_TRUNCATED,
                format!("t{i}"),
                "task appears in no temporal segment — the schedule never executes it".to_string(),
            ));
        }
    }
    for e in g.edges() {
        if let (Some(ps), Some(pd)) = (segment_of[e.src.index()], segment_of[e.dst.index()]) {
            if ps > pd {
                diags.push(Diagnostic::warning(
                    rules::PRECEDENCE_INVERSION,
                    format!("edge {}->{}", e.src, e.dst),
                    format!("producer runs in segment {ps}, after its consumer's segment {pd}"),
                ));
            }
        }
    }
    diags
}

/// Certifies a [`FissionAnalysis`] against the graph/partitioning it was
/// derived from and the architecture it claims: `m_i_temp` conservation
/// (every boundary transfer budgeted), block rounding, Eq. 9's `k`, the
/// waste accounting, and the per-segment delay vector the analysis embeds.
pub fn audit_fission(
    g: &TaskGraph,
    part: &Partitioning,
    fission: &FissionAnalysis,
    arch: &Architecture,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if fission.reconfig_time_ns != arch.reconfig_time_ns
        || fission.transfer_ns_per_word != arch.transfer_ns_per_word
    {
        diags.push(Diagnostic::error(
            rules::ARCH_MISMATCH,
            "fission",
            format!(
                "analysis embeds CT = {} ns, D_m = {} ns/word; the architecture has CT = {}, \
                 D_m = {}",
                fission.reconfig_time_ns,
                fission.transfer_ns_per_word,
                arch.reconfig_time_ns,
                arch.transfer_ns_per_word
            ),
        ));
    }
    let n = part.partition_count();
    if fission.n_partitions != n
        || part.assignment().len() != g.task_count()
        || part.assignment().iter().any(|p| p.0 >= n)
    {
        diags.push(Diagnostic::error(
            rules::SCHEDULE_TRUNCATED,
            "fission",
            format!(
                "analysis covers {} partitions but the partitioning has {} over {} of {} tasks",
                fission.n_partitions,
                n,
                part.assignment().len(),
                g.task_count()
            ),
        ));
        return diags;
    }
    let assignment: Vec<u32> = part.assignment().iter().map(|p| p.0).collect();
    let out_edges = own_out_edges(g);

    // m_i_temp conservation: the block budget must equal what the
    // partition actually moves per computation (§2.2's m_i_temp = words
    // read in + words written out).
    let io = own_segment_io(g, &out_edges, &assignment, n);
    let moved: Vec<u64> = io.iter().map(SegIo::moved).collect();
    if fission.m_temp_words.len() != n as usize || fission.block_words.len() != n as usize {
        diags.push(Diagnostic::error(
            rules::SCHEDULE_TRUNCATED,
            "fission",
            format!(
                "analysis carries {} m_temp / {} block entries for {n} partitions",
                fission.m_temp_words.len(),
                fission.block_words.len()
            ),
        ));
        return diags;
    }
    for (p, (&budgeted, &actual)) in fission.m_temp_words.iter().zip(moved.iter()).enumerate() {
        if budgeted != actual {
            diags.push(Diagnostic::error(
                rules::BOUNDARY_CONSERVATION,
                format!("partition {p}"),
                format!(
                    "budgets {budgeted} words per computation but the partition moves {actual} \
                     (a boundary transfer was {})",
                    if budgeted < actual {
                        "dropped"
                    } else {
                        "invented"
                    }
                ),
            ));
        }
    }
    for (p, (&block, &m)) in fission.block_words.iter().zip(moved.iter()).enumerate() {
        if block < m {
            diags.push(Diagnostic::error(
                rules::BOUNDARY_CONSERVATION,
                format!("partition {p}"),
                format!("memory block holds {block} words but each computation moves {m}"),
            ));
        } else if block != m && block != m.next_power_of_two() {
            diags.push(Diagnostic::error(
                rules::FISSION_K,
                format!("partition {p}"),
                format!(
                    "block of {block} words is neither exact ({m}) nor power-of-two rounded ({})",
                    m.next_power_of_two()
                ),
            ));
        }
    }

    // Eq. 9: k = floor(M_max / max block).
    let max_block = fission.block_words.iter().copied().max().unwrap_or(0);
    let expected_k = arch
        .memory_words
        .checked_div(max_block)
        .unwrap_or(arch.memory_words.max(1));
    if expected_k == 0 {
        diags.push(Diagnostic::error(
            rules::FISSION_K,
            "fission",
            format!(
                "a single computation's largest block ({max_block} words) exceeds board memory \
                 ({}) — no k exists",
                arch.memory_words
            ),
        ));
    } else if fission.k != expected_k {
        diags.push(Diagnostic::error(
            rules::FISSION_K,
            "fission",
            format!(
                "claims k = {} but Eq. 9 gives floor({} / {max_block}) = {expected_k}",
                fission.k, arch.memory_words
            ),
        ));
    }
    let expected_waste: u64 = fission.k
        * fission
            .block_words
            .iter()
            .zip(moved.iter())
            .map(|(&b, &m)| b.saturating_sub(m))
            .sum::<u64>();
    if fission.wasted_words != expected_waste {
        diags.push(Diagnostic::error(
            rules::FISSION_K,
            "fission",
            format!(
                "claims {} wasted words per run; the rounding actually wastes {expected_waste}",
                fission.wasted_words
            ),
        ));
    }

    // The embedded delay vector and per-computation RTR delay.
    match own_segment_delays(g, &out_edges, &assignment, n) {
        Some(recomputed) => {
            if fission.partition_delays_ns.len() != n as usize {
                diags.push(Diagnostic::error(
                    rules::SCHEDULE_TRUNCATED,
                    "fission",
                    format!(
                        "analysis carries {} per-segment delays for {n} partitions",
                        fission.partition_delays_ns.len()
                    ),
                ));
            } else {
                for (p, (&claimed, &actual)) in fission
                    .partition_delays_ns
                    .iter()
                    .zip(recomputed.iter())
                    .enumerate()
                {
                    if claimed != actual {
                        diags.push(Diagnostic::error(
                            rules::SEGMENT_DELAY,
                            format!("partition {p}"),
                            format!(
                                "fission carries a segment delay of {claimed} ns; the longest \
                                 path there is {actual} ns"
                            ),
                        ));
                    }
                }
            }
            let sum: u64 = recomputed.iter().sum();
            if fission.rtr_delay_ns != sum {
                diags.push(Diagnostic::error(
                    rules::OBJECTIVE_MISMATCH,
                    "fission",
                    format!(
                        "claims a per-computation RTR delay of {} ns; the segments sum to {sum}",
                        fission.rtr_delay_ns
                    ),
                ));
            }
        }
        None => diags.push(Diagnostic::error(
            rules::PRECEDENCE_INVERSION,
            "fission",
            "the task graph contains a dependency cycle — no temporal order exists".to_string(),
        )),
    }
    diags
}

/// Certifies a streamed [`TimeReport`] against the §4 accounting for the
/// given sequencing strategy, re-derived from the fission geometry:
/// additivity (`total = reconfig + compute + exposed`), the
/// reconfiguration count and cost, the exact per-batch exposed-transfer
/// sums (FDH serialized, IDH double-buffered with exposed
/// prologue/epilogue halves), and the words-moved ledger.
///
/// Run [`audit_fission`] first — this check trusts the fission geometry it
/// is handed only because that audit pins it to the graph.
pub fn audit_time_report(
    g: &TaskGraph,
    part: &Partitioning,
    fission: &FissionAnalysis,
    strategy: SequencingStrategy,
    workload: u64,
    report: &TimeReport,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let loc = match strategy {
        SequencingStrategy::Fdh => "report(FDH)",
        SequencingStrategy::Idh => "report(IDH)",
    };
    if report.computations != workload {
        diags.push(Diagnostic::error(
            rules::REPORT_INCONSISTENT,
            loc,
            format!(
                "report covers {} computations but this run streamed {workload} — a stale report",
                report.computations
            ),
        ));
    }
    if report.total_ns != report.reconfig_ns + report.compute_ns + report.exposed_transfer_ns {
        diags.push(Diagnostic::error(
            rules::REPORT_INCONSISTENT,
            loc,
            format!(
                "total {} ns != reconfig {} + compute {} + exposed {}",
                report.total_ns, report.reconfig_ns, report.compute_ns, report.exposed_transfer_ns
            ),
        ));
    }
    let ct = u128::from(fission.reconfig_time_ns);
    if report.reconfig_ns != u128::from(report.reconfigurations) * ct {
        diags.push(Diagnostic::error(
            rules::REPORT_INCONSISTENT,
            loc,
            format!(
                "reconfig time {} ns != {} reconfigurations x CT {} ns",
                report.reconfig_ns, report.reconfigurations, fission.reconfig_time_ns
            ),
        ));
    }
    let n = fission.n_partitions;
    let k = fission.k;
    if k == 0
        || fission.block_words.len() != n as usize
        || fission.partition_delays_ns.len() != n as usize
        || n == 0
    {
        // Malformed geometry is audit_fission's finding; the timing
        // formulas below are undefined over it.
        return diags;
    }
    let assignment: Vec<u32> = part.assignment().iter().map(|p| p.0).collect();
    if assignment.len() != g.task_count() || assignment.iter().any(|&p| p >= n) {
        return diags; // malformed partitioning: audit_design's finding
    }
    // The executable design drains exactly the environment-output words
    // (once per producing partition) to its sink after the last
    // configuration.
    let env_out: u64 = own_segment_io(g, &own_out_edges(g), &assignment, n)
        .iter()
        .map(|io| io.env_out)
        .sum();
    let dm = u128::from(fission.transfer_ns_per_word);
    let batches = workload.div_ceil(k).max(1);
    let sum_delay: u128 = fission
        .partition_delays_ns
        .iter()
        .map(|&d| u128::from(d))
        .sum();
    let (reconfigs, compute, exposed, words) = match strategy {
        SequencingStrategy::Fdh => {
            // Per batch: load block 1's inputs, cascade through all N
            // configurations, read the final outputs — fully serialized.
            let in_words = k * fission.block_words[0];
            let out_words = k * env_out;
            (
                u128::from(batches) * u128::from(n),
                u128::from(batches) * u128::from(k) * sum_delay,
                u128::from(batches) * dm * u128::from(in_words + out_words),
                batches * (in_words + out_words),
            )
        }
        SequencingStrategy::Idh => {
            // Each configuration loaded once; per batch the host overlaps
            // the in-flight half-transfers (next input load + previous
            // output read) with compute, with one exposed prologue and
            // epilogue half per configuration.
            let mut exposed: u128 = fission
                .block_words
                .iter()
                .map(|&b| 2 * dm * u128::from(k * b))
                .sum();
            for b in 0..batches {
                let halves = u128::from(b + 1 < batches) + u128::from(b > 0);
                for (i, &block) in fission.block_words.iter().enumerate() {
                    let batch_compute = u128::from(k) * u128::from(fission.partition_delays_ns[i]);
                    let half_transfer = dm * u128::from(k * block);
                    exposed += (halves * half_transfer).saturating_sub(batch_compute);
                }
            }
            let words: u64 = batches * fission.block_words.iter().map(|&b| 2 * k * b).sum::<u64>();
            (
                u128::from(n),
                u128::from(batches) * u128::from(k) * sum_delay,
                exposed,
                words,
            )
        }
    };
    let checks: [(&str, u128, u128); 4] = [
        (
            "reconfigurations",
            u128::from(report.reconfigurations),
            reconfigs,
        ),
        ("compute_ns", report.compute_ns, compute),
        ("exposed_transfer_ns", report.exposed_transfer_ns, exposed),
        (
            "words_transferred",
            u128::from(report.words_transferred),
            u128::from(words),
        ),
    ];
    for (field, got, expected) in checks {
        if got != expected {
            diags.push(Diagnostic::error(
                rules::REPORT_INCONSISTENT,
                loc,
                format!(
                    "{field} = {got} disagrees with the §4 accounting for {workload} \
                     computations in {batches} batches of k = {k}: expected {expected}"
                ),
            ));
        }
    }
    diags
}

/// Certifies a raw MILP [`Solution`] against its [`Model`] without running
/// any solver code: vector arity, variable bounds, integrality of
/// integer/binary variables, every constraint row re-evaluated term by
/// term, the objective re-evaluated from the vector, and the dual bound's
/// side of the objective.
pub fn audit_solution(model: &Model, sol: &Solution) -> Vec<Diagnostic> {
    /// Matches the branch-and-bound's integrality tolerance (`TOLERANCE`
    /// in `sparcs_ilp::branch`) — the feasibility slack the solver itself
    /// promises.
    const TOL: f64 = 1e-6;
    let mut diags = Vec::new();
    if sol.x.len() != model.var_count() {
        diags.push(Diagnostic::error(
            rules::SOLUTION_BOUNDS,
            "solution",
            format!(
                "solution has {} components for a model with {} variables",
                sol.x.len(),
                model.var_count()
            ),
        ));
        return diags;
    }
    for (i, &xi) in sol.x.iter().enumerate() {
        let v = sparcs_ilp::Var(i as u32);
        let (lo, hi) = model.var_bounds(v);
        if !xi.is_finite() || xi < lo - TOL || xi > hi + TOL {
            diags.push(Diagnostic::error(
                rules::SOLUTION_BOUNDS,
                model.var_name(v).to_string(),
                format!("value {xi} outside bounds [{lo}, {hi}]"),
            ));
        }
        if matches!(model.var_kind(v), VarKind::Binary | VarKind::Integer)
            && (xi - xi.round()).abs() > TOL
        {
            diags.push(Diagnostic::error(
                rules::SOLUTION_INTEGRALITY,
                model.var_name(v).to_string(),
                format!("integer variable holds fractional value {xi}"),
            ));
        }
    }
    for c in model.constraints() {
        // Re-evaluate the row ourselves, in term order (so an exact
        // re-derivation of the solver's own arithmetic cannot diverge by
        // summation order).
        let mut lhs = 0.0f64;
        for &(v, coef) in &c.expr.terms {
            lhs += coef * sol.x[v.index()];
        }
        let violated = match c.sense {
            Sense::Le => lhs > c.rhs + TOL,
            Sense::Ge => lhs < c.rhs - TOL,
            Sense::Eq => (lhs - c.rhs).abs() > TOL,
        };
        if violated {
            diags.push(Diagnostic::error(
                rules::SOLUTION_CONSTRAINT,
                c.name.clone(),
                format!(
                    "row evaluates to {lhs} which violates `{} {} {}`",
                    lhs,
                    match c.sense {
                        Sense::Le => "<=",
                        Sense::Ge => ">=",
                        Sense::Eq => "=",
                    },
                    c.rhs
                ),
            ));
        }
    }
    let mut objective = 0.0f64;
    for &(v, coef) in &model.objective().expr().terms {
        objective += coef * sol.x[v.index()];
    }
    let slack = TOL * (1.0 + sol.objective.abs());
    if (objective - sol.objective).abs() > slack {
        diags.push(Diagnostic::error(
            rules::SOLUTION_OBJECTIVE,
            "solution",
            format!(
                "claims objective {} but the vector evaluates to {objective}",
                sol.objective
            ),
        ));
    }
    // The dual bound must sit on the optimistic side of the incumbent
    // (minimize: below; maximize: above), and meet it when optimality is
    // claimed — up to the solver's documented anti-degeneracy
    // perturbation, which scales with the variable count.
    if sol.status != Status::Cancelled {
        let perturbation = 1e-4 * (1.0 + sol.objective.abs());
        let wrong_side = if model.objective().is_max() {
            sol.bound < sol.objective - perturbation
        } else {
            sol.bound > sol.objective + perturbation
        };
        if wrong_side {
            diags.push(Diagnostic::error(
                rules::SOLUTION_OBJECTIVE,
                "solution",
                format!(
                    "dual bound {} sits on the wrong side of the objective {}",
                    sol.bound, sol.objective
                ),
            ));
        }
        if sol.status == Status::Optimal && (sol.bound - sol.objective).abs() > perturbation {
            diags.push(Diagnostic::error(
                rules::SOLUTION_OBJECTIVE,
                "solution",
                format!(
                    "claims optimality but bound {} and objective {} disagree beyond the \
                     perturbation slack",
                    sol.bound, sol.objective
                ),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcs_core::partitioning::PartitionId;
    use sparcs_dfg::Resources;

    /// a(10ns, 4w) → b(20ns, 2w) → c(30ns, 1w), env in 4 → a, env out 1 ← c.
    fn chain() -> TaskGraph {
        let mut g = TaskGraph::new("chain");
        let a = g.add_task("a", Resources::clbs(10), 10, 4);
        let b = g.add_task("b", Resources::clbs(10), 20, 2);
        let c = g.add_task("c", Resources::clbs(10), 30, 1);
        g.add_edge(a, b, 4).expect("edge a->b");
        g.add_edge(b, c, 2).expect("edge b->c");
        g.add_env_input("in", 4, [a]).expect("env in");
        g.add_env_output("out", 1, [c]).expect("env out");
        g
    }

    fn arch() -> Architecture {
        Architecture {
            name: "test".into(),
            resources: Resources::clbs(25),
            memory_words: 64,
            memory_word_bits: 16,
            reconfig_time_ns: 1000,
            transfer_ns_per_word: 2,
        }
    }

    fn honest_design(_g: &TaskGraph, arch: &Architecture) -> PartitionedDesign {
        // a | b,c — the claims worked out by hand: segment 0's longest
        // path counts only a (10 ns), segment 1's counts b + c (50 ns).
        let part = Partitioning::new(vec![PartitionId(0), PartitionId(1), PartitionId(1)]);
        let delays = vec![10, 50];
        let sum = 60;
        PartitionedDesign {
            partitioning: part,
            partition_delays_ns: delays,
            sum_delay_ns: sum,
            latency_ns: 2 * arch.reconfig_time_ns + sum,
            stats: sparcs_core::ilp::SolveStats {
                attempted_n: Vec::new(),
                nodes: 0,
                pivots: 0,
                cold_solves: 0,
                wall: std::time::Duration::ZERO,
                proven_optimal: false,
                cancelled: false,
                delay_mode: sparcs_core::model::DelayMode::PartitionSum,
            },
        }
    }

    #[test]
    fn honest_design_certifies_clean() {
        let g = chain();
        let a = arch();
        let d = honest_design(&g, &a);
        assert_eq!(audit_design(&g, &a, &d, MemoryMode::Net), Vec::new());
        assert_eq!(audit_design(&g, &a, &d, MemoryMode::Edge), Vec::new());
    }

    #[test]
    fn forged_latency_is_an_objective_mismatch() {
        let g = chain();
        let a = arch();
        let mut d = honest_design(&g, &a);
        d.latency_ns -= 1;
        let diags = audit_design(&g, &a, &d, MemoryMode::Net);
        assert!(diags.iter().any(|d| d.rule == rules::OBJECTIVE_MISMATCH));
        assert!(has_errors(&diags));
    }

    #[test]
    fn rotated_delays_are_segment_delay_errors() {
        let g = chain();
        let a = arch();
        let mut d = honest_design(&g, &a);
        d.partition_delays_ns.rotate_right(1);
        // Rotation preserves the sum, so only the per-segment rule fires.
        let diags = audit_design(&g, &a, &d, MemoryMode::Net);
        assert!(diags.iter().any(|d| d.rule == rules::SEGMENT_DELAY));
        assert!(!diags.iter().any(|d| d.rule == rules::OBJECTIVE_MISMATCH));
    }

    #[test]
    fn backwards_edge_is_a_precedence_inversion() {
        let g = chain();
        let a = arch();
        let mut d = honest_design(&g, &a);
        // Swap a and c across segments: both edges now run backwards.
        d.partitioning = Partitioning::new(vec![PartitionId(1), PartitionId(1), PartitionId(0)]);
        let diags = audit_design(&g, &a, &d, MemoryMode::Net);
        assert!(diags.iter().any(|d| d.rule == rules::PRECEDENCE_INVERSION));
    }

    #[test]
    fn one_word_memory_overflow_is_caught() {
        let g = chain();
        let mut a = arch();
        let d = honest_design(&g, &a);
        // Boundary stores a's 4-word net; a board one word smaller loses.
        a.memory_words = 3;
        let diags = audit_design(&g, &a, &d, MemoryMode::Net);
        assert!(diags.iter().any(|d| d.rule == rules::MEMORY_OVERFLOW));
        assert!(!has_errors(&diags), "capacity is a warning-class finding");
    }

    #[test]
    fn segment_audit_catches_duplicates_and_truncation() {
        let g = chain();
        let dup = vec![vec![TaskId(0)], vec![TaskId(0), TaskId(1), TaskId(2)]];
        assert!(audit_segments(&g, &dup)
            .iter()
            .any(|d| d.rule == rules::DUPLICATE_ASSIGNMENT));
        let truncated = vec![vec![TaskId(0)], vec![TaskId(1)]];
        assert!(audit_segments(&g, &truncated)
            .iter()
            .any(|d| d.rule == rules::SCHEDULE_TRUNCATED));
        let clean = vec![vec![TaskId(0)], vec![TaskId(1), TaskId(2)]];
        assert_eq!(audit_segments(&g, &clean), Vec::new());
    }

    /// Reference for `own_boundary_words`: the same accounting with, in
    /// Net mode, one scan of the whole edge list per producer.
    fn reference_boundary_words(
        g: &TaskGraph,
        assignment: &[u32],
        n: u32,
        mode: MemoryMode,
    ) -> Vec<u64> {
        if n <= 1 {
            return Vec::new();
        }
        let mut out = vec![0u64; (n - 1) as usize];
        match mode {
            MemoryMode::Edge => {
                for e in g.edges() {
                    let (ps, pd) = (assignment[e.src.index()], assignment[e.dst.index()]);
                    for b in ps..pd.min(n) {
                        out[b as usize] += e.words;
                    }
                }
            }
            MemoryMode::Net => {
                for (t, task) in g.tasks() {
                    let ps = assignment[t.index()];
                    let last = g
                        .edges()
                        .iter()
                        .filter(|e| e.src == t)
                        .map(|e| assignment[e.dst.index()])
                        .max()
                        .unwrap_or(ps);
                    for b in ps..last.min(n) {
                        out[b as usize] += task.output_words;
                    }
                }
            }
        }
        out
    }

    /// Reference for `own_segment_io`: the same accounting with one scan
    /// of the whole edge list per producer.
    fn reference_segment_io(g: &TaskGraph, assignment: &[u32], n: u32) -> Vec<SegIo> {
        let mut io = vec![SegIo::default(); n as usize];
        for (_, port) in g.env_inputs() {
            let mut parts: Vec<u32> = port.tasks.iter().map(|&t| assignment[t.index()]).collect();
            parts.sort_unstable();
            parts.dedup();
            for p in parts {
                io[p as usize].env_in += port.words;
            }
        }
        for (_, port) in g.env_outputs() {
            let mut parts: Vec<u32> = port.tasks.iter().map(|&t| assignment[t.index()]).collect();
            parts.sort_unstable();
            parts.dedup();
            for p in parts {
                io[p as usize].env_out += port.words;
            }
        }
        for (t, task) in g.tasks() {
            let ps = assignment[t.index()];
            let mut words_into: Vec<(u32, u64)> = Vec::new();
            for e in g.edges().iter().filter(|e| e.src == t) {
                let pd = assignment[e.dst.index()];
                if pd == ps {
                    continue;
                }
                match words_into.iter_mut().find(|(p, _)| *p == pd) {
                    Some((_, w)) => *w += e.words,
                    None => words_into.push((pd, e.words)),
                }
            }
            if !words_into.is_empty() {
                io[ps as usize].cross_out += task.output_words;
                for (p, w) in words_into {
                    io[p as usize].cross_in += w.min(task.output_words);
                }
            }
        }
        io
    }

    #[test]
    fn out_edge_index_matches_the_quadratic_references() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use sparcs_dfg::gen::{scaled, ScaledConfig};
        let mut rng = StdRng::seed_from_u64(16);
        for seed in 0..8u64 {
            let g = scaled(&ScaledConfig::preset(65 + 30 * seed as u32), seed);
            let out_edges = own_out_edges(&g);
            let order = own_topo_order(&g, &out_edges).unwrap();
            for n in [1u32, 2, 3, 7, 20] {
                // Uniform draws run many edges backwards; segments follow
                // topological position in the forward assignment; only the
                // first and last segments are used in the sparse one.
                let random: Vec<u32> = g.task_ids().map(|_| rng.gen_range(0..n)).collect();
                let mut forward = vec![0u32; g.task_count()];
                for (pos, t) in order.iter().enumerate() {
                    forward[t.index()] = (pos * n as usize / order.len()) as u32;
                }
                let sparse: Vec<u32> = g
                    .task_ids()
                    .map(|_| if rng.gen_bool(0.5) { 0 } else { n - 1 })
                    .collect();
                for a in [&random, &forward, &sparse] {
                    for mode in [MemoryMode::Net, MemoryMode::Edge] {
                        assert_eq!(
                            own_boundary_words(&g, &out_edges, a, n, mode),
                            reference_boundary_words(&g, a, n, mode),
                            "seed {seed}, N = {n}, {mode:?}"
                        );
                    }
                    assert_eq!(
                        own_segment_io(&g, &out_edges, a, n),
                        reference_segment_io(&g, a, n),
                        "seed {seed}, N = {n}"
                    );
                }
            }
        }
    }

    /// The one-pass segment delays against the audit's masked reference,
    /// on forward assignments cut from a random topological order; any
    /// assignment, backward edges included, must price like the reference.
    #[test]
    fn one_pass_segment_delays_match_the_masked_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use sparcs_dfg::gen::{layered, scaled, LayeredConfig, ScaledConfig};
        let deep = LayeredConfig {
            layers: 12,
            max_width: 8,
            edge_prob: 0.3,
            ..LayeredConfig::default()
        };
        let mut graphs = Vec::new();
        for seed in 0..4 {
            graphs.push(layered(&LayeredConfig::default(), seed));
            graphs.push(layered(&deep, seed));
        }
        for seed in 0..3 {
            graphs.push(scaled(&ScaledConfig::preset(300), seed));
        }
        let mut rng = StdRng::seed_from_u64(24);
        for g in &graphs {
            let n = g.task_count();
            let out_edges = own_out_edges(g);
            let order = own_topo_order(g, &out_edges).unwrap();
            for _ in 0..25 {
                // Kahn's algorithm with a random ready task each step.
                let mut indegree = vec![0usize; n];
                for e in g.edges() {
                    indegree[e.dst.index()] += 1;
                }
                let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
                let mut shuffled = Vec::with_capacity(n);
                while !ready.is_empty() {
                    let i = ready.swap_remove(rng.gen_range(0..ready.len()));
                    shuffled.push(i);
                    for e in &out_edges[i] {
                        indegree[e.dst.index()] -= 1;
                        if indegree[e.dst.index()] == 0 {
                            ready.push(e.dst.index());
                        }
                    }
                }
                let segments = rng.gen_range(1..=n.min(30)) as u32;
                let mut cuts: Vec<usize> = (1..segments).map(|_| rng.gen_range(1..n)).collect();
                cuts.sort_unstable();
                let mut forward = vec![0u32; n];
                for (pos, &i) in shuffled.iter().enumerate() {
                    forward[i] = cuts.partition_point(|&c| c <= pos) as u32;
                }
                assert_eq!(
                    own_forward_segment_delays(g, &forward, segments, &order),
                    own_masked_segment_delays(g, &forward, segments, &order),
                    "{}: forward cut at {cuts:?}",
                    g.name()
                );
                let drawn: Vec<u32> = (0..n).map(|_| rng.gen_range(0..segments)).collect();
                for a in [&forward, &drawn] {
                    assert_eq!(
                        own_segment_delays(g, &out_edges, a, segments),
                        Some(own_masked_segment_delays(g, a, segments, &order)),
                        "{}",
                        g.name()
                    );
                }
            }
        }
    }

    #[test]
    fn json_rendering_escapes_and_round_trips_fields() {
        let d = Diagnostic::error(rules::OBJECTIVE_MISMATCH, "de\"sign", "a\nb");
        let json = d.to_json();
        assert!(json.contains("\"rule\":\"objective-mismatch\""));
        assert!(json.contains("de\\\"sign"));
        assert!(json.contains("a\\nb"));
    }
}
