//! Pre-solve static analysis over the task-graph IR.
//!
//! `sparcs_audit` is the *post-hoc* half of the trust story: it certifies
//! what the solvers already produced. This crate is the *pre-solve* half —
//! it abstract-interprets a [`TaskGraph`] + [`Architecture`] +
//! [`MemoryMode`] into **certified interval facts** before a single simplex
//! pivot runs:
//!
//! * a critical-path lower bound on the ILP objective `Σ d_p` (sound in
//!   both delay modes: in `ExactPaths` the longest path's delay is split
//!   across the partitions it visits and each piece is ≤ that partition's
//!   `d_p`; in `PartitionSum` the objective counts every task delay once),
//! * an area lower bound on the same objective
//!   (`sparcs_core::delay::area_bound_ns`: work cannot be packed tighter
//!   than the device is wide),
//! * a resource-ceiling lower bound on the partition count — the paper's
//!   preprocessing `⌈ΣR(t)/R_max⌉` plus a precedence-aware refinement via
//!   ancestor/descendant closures,
//! * boundary-word and §2.2 `m_i_temp` memory lower bounds per
//!   [`MemoryMode`],
//! * a reconfiguration-ledger lower bound on total FDH/IDH configuration
//!   time (`N_lb × CT`),
//!
//! each emitted as a [`Fact`] `{ rule, bound, witness }` with stable rule
//! ids mirroring the audit layer's diagnostic scheme — alongside graph
//! [`Lint`]s (dead nodes, unreachable outputs, width mismatches,
//! unschedulable tasks).
//!
//! Because every fact is a *sound* bound (true for every feasible design,
//! proved from the graph alone), two downstream uses are safe by
//! construction: [`Analysis::static_verdict`] prunes provably-infeasible
//! candidates before the exact solver is even launched (a pruned spec can
//! never be one the ILP would have solved), and
//! [`Analysis::objective_lb_ns`] plus the reconfiguration ledger is a
//! certified latency floor a degraded answer can be served against. The
//! objective bound is the same delay-sum bound the exact partitioner
//! applies as its branch-and-bound root bound.
//!
//! Audit-style independence: the critical-path bound is computed **twice**
//! — once through `sparcs_dfg::algo::critical_path` and once through this
//! crate's own Kahn order + longest-path recurrence over the raw edge
//! list. The emitted bound is the *minimum* of the two (sound as long as
//! either computation is), and a disagreement raises an error-severity
//! [`rules::BOUND_DIVERGENCE`] lint instead of being papered over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sparcs_core::partitioning::MemoryMode;
use sparcs_dfg::graph::EnvDirection;
use sparcs_dfg::{algo, GraphError, Resources, TaskGraph, TaskId};
use sparcs_estimate::Architecture;
use std::fmt;

/// Stable rule identifiers: one per certified bound and one per lint
/// class. These are the `rule` values of emitted [`Fact`]s/[`Lint`]s, the
/// ids [`Analysis::static_verdict`] convicts a candidate under, and the
/// contract the mutation corpus pins.
pub mod rules {
    /// Lower bound on the ILP objective `Σ d_p` in ns: the delay-weighted
    /// critical path of the whole graph (paper Figure 4's measure applied
    /// to the unpartitioned DAG).
    pub const CRITICAL_PATH_BOUND: &str = "critical-path-bound";
    /// Lower bound on the ILP objective `Σ d_p` in ns from packing: every
    /// partition's delay is at least its slowest task's, and Eq. 6 caps
    /// what one partition holds, so `Σ d_p ≥ max_k ⌈Σ_t r_{t,k}·δ_t /
    /// R_k⌉` (`sparcs_core::delay::area_bound_ns`).
    pub const AREA_BOUND: &str = "area-bound";
    /// Lower bound on the temporal partition count: the paper's
    /// preprocessing `⌈ΣR(t)/R_max⌉` sharpened by the precedence-closure
    /// refinement (for every task `t`, partitions `0..=p(t)` must hold
    /// `ancestors(t) ∪ {t}` and `p(t)..N` must hold `descendants(t) ∪
    /// {t}`, so `N ≥ bins(anc) + bins(desc) − 1`).
    pub const PARTITION_COUNT_BOUND: &str = "partition-count-bound";
    /// Lower bound on the words some partition boundary must store (paper
    /// Eq. 3): edges whose endpoints cannot share a configuration are
    /// forced to cross, and all forced in-edges of one consumer (resp.
    /// out-edges of one producer) are live at the same boundary.
    pub const MEMORY_BOUND: &str = "memory-bound";
    /// Lower bound on the §2.2 per-partition temp memory `m_i_temp`: a
    /// partition containing task `t` must hold every environment input
    /// feeding `t` and every environment output `t` writes.
    pub const TEMP_MEMORY_BOUND: &str = "temp-memory-bound";
    /// Lower bound on total reconfiguration time paid by any FDH/IDH
    /// schedule: each of the `N_lb` configurations is loaded at least
    /// once, so the ledger opens at `N_lb × CT` ns.
    pub const RECONFIG_LEDGER_BOUND: &str = "reconfig-ledger-bound";
    /// A task whose result can never reach any environment output — it
    /// burns area and delay for data the host will never observe.
    pub const DEAD_NODE: &str = "dead-node";
    /// An environment output none of whose writers is fed (even
    /// transitively) by any environment input — the port emits constants.
    pub const UNREACHABLE_OUTPUT: &str = "unreachable-output";
    /// An edge claiming to carry more words than its producer produces
    /// (`B(u,v) > output_words(u)`).
    pub const WIDTH_MISMATCH: &str = "width-mismatch";
    /// A task that exceeds the device capacity on its own (or demands a
    /// resource kind the device has none of): no partition count can
    /// schedule it.
    pub const UNSCHEDULABLE: &str = "unschedulable-under-cap";
    /// The independent critical-path recomputation disagrees with
    /// `sparcs_dfg::algo::critical_path` — one of the two is buggy; the
    /// emitted bound falls back to the smaller (still-sound) value.
    pub const BOUND_DIVERGENCE: &str = "bound-divergence";
}

/// How bad a [`Lint`] is — mirrors `sparcs_audit::Severity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Wasteful or suspicious but legal (dead nodes, constant outputs).
    Warning,
    /// The graph is malformed or can never be scheduled; downstream
    /// stages would fail on it.
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

/// One certified interval fact: a sound bound with the evidence that
/// proves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact {
    /// Stable rule id from [`rules`].
    pub rule: &'static str,
    /// The bound value (ns for time rules, count for
    /// [`rules::PARTITION_COUNT_BOUND`], words for the memory rules). All
    /// bounds are lower bounds over every feasible design.
    pub bound: u64,
    /// Human-readable derivation: what was summed/maximized and why the
    /// bound is sound.
    pub witness: String,
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bound[{}] {}: {}", self.rule, self.bound, self.witness)
    }
}

/// One graph lint: a structural defect found without solving anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Stable rule id from [`rules`].
    pub rule: &'static str,
    /// See [`Severity`].
    pub severity: Severity,
    /// Where in the graph (`"t3"`, `"edge t1->t4"`, `"env out 2"`).
    pub location: String,
    /// What is wrong and the numbers behind it.
    pub details: String,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule, self.location, self.details
        )
    }
}

/// The full pre-solve report for one `(graph, architecture, memory mode)`
/// problem statement: every certified fact, every lint, and the scalar
/// bounds the flow layer prunes/seeds with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// Name of the analyzed graph (for reports).
    pub graph: String,
    /// All certified bounds, in emission order.
    pub facts: Vec<Fact>,
    /// All lints, in emission order.
    pub lints: Vec<Lint>,
    /// Lower bound on the ILP objective `Σ d_p` in ns: the larger of the
    /// [`rules::CRITICAL_PATH_BOUND`] and [`rules::AREA_BOUND`] facts (0
    /// for an empty graph).
    pub objective_lb_ns: u64,
    /// Lower bound on the number of temporal partitions (0 for an empty
    /// graph). Meaningless when [`Analysis::schedulable`] is false.
    pub partition_count_lb: u32,
    /// Lower bound on the words stored at the fullest partition boundary
    /// of any feasible partitioning under the analyzed [`MemoryMode`].
    pub memory_lb_words: u64,
    /// Lower bound on `max_i m_i_temp` (§2.2): environment I/O resident
    /// with the busiest single task. Informational — the feasibility
    /// system constrains boundary words, not `m_i_temp`, so this bound
    /// never prunes.
    pub temp_memory_lb_words: u64,
    /// Lower bound on total reconfiguration time in ns (`N_lb × CT`).
    pub reconfig_lb_ns: u64,
    /// Whether every task individually fits the device. When false,
    /// [`Analysis::static_verdict`] convicts under
    /// [`rules::UNSCHEDULABLE`] for every cap.
    pub schedulable: bool,
    /// The board memory `M_max` the analysis judged against.
    pub board_memory_words: u64,
    /// The memory accounting mode the bounds were derived under.
    pub memory_mode: MemoryMode,
}

impl Analysis {
    /// The fact emitted under `rule`, if any.
    pub fn fact(&self, rule: &str) -> Option<&Fact> {
        self.facts.iter().find(|f| f.rule == rule)
    }

    /// `true` when any lint is [`Severity::Error`] — the condition the
    /// `sparcs analyze` CLI exits nonzero on.
    pub fn has_errors(&self) -> bool {
        self.lints.iter().any(|l| l.severity == Severity::Error)
    }

    /// Judges a candidate `(this graph, this architecture, max_partitions
    /// cap)` without solving: returns the convicting rule id when the
    /// candidate is **provably infeasible** — a task that fits no device
    /// configuration, a boundary-memory lower bound above `M_max`, or a
    /// partition-count lower bound above the cap. `None` means the
    /// analysis cannot rule the candidate out (it may still be infeasible
    /// for reasons only the exact solver can see).
    ///
    /// Soundness contract (pinned by the flow-level proptest): every
    /// conviction returned here is a candidate the exact ILP also proves
    /// infeasible — a feasible spec is never pruned.
    pub fn static_verdict(&self, max_partitions: Option<u32>) -> Option<&'static str> {
        if !self.schedulable {
            return Some(rules::UNSCHEDULABLE);
        }
        if self.memory_lb_words > self.board_memory_words {
            return Some(rules::MEMORY_BOUND);
        }
        if let Some(cap) = max_partitions {
            if self.partition_count_lb > cap {
                return Some(rules::PARTITION_COUNT_BOUND);
            }
        }
        None
    }

    /// Renders the whole report as one JSON object (hand-rolled like the
    /// audit layer's, so the analyzer stays serde-free). Every fact and
    /// lint is escaped straight into the one returned buffer: at 100k
    /// tasks the report runs to hundreds of megabytes.
    pub fn to_json(&self) -> String {
        use fmt::Write as _;
        let mut out = String::from("{\"graph\":\"");
        esc_into(&mut out, &self.graph);
        let _ = write!(
            out,
            "\",\"memory_mode\":\"{:?}\",\"schedulable\":{},\"facts\":[",
            self.memory_mode, self.schedulable
        );
        for (i, f) in self.facts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":\"");
            esc_into(&mut out, f.rule);
            let _ = write!(out, "\",\"bound\":{},\"witness\":\"", f.bound);
            esc_into(&mut out, &f.witness);
            out.push_str("\"}");
        }
        out.push_str("],\"lints\":[");
        for (i, l) in self.lints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":\"");
            esc_into(&mut out, l.rule);
            let _ = write!(out, "\",\"severity\":\"{}\",\"location\":\"", l.severity);
            esc_into(&mut out, &l.location);
            out.push_str("\",\"details\":\"");
            esc_into(&mut out, &l.details);
            out.push_str("\"}");
        }
        out.push_str("]}");
        out
    }
}

/// Appends `s` to `out` as the body of a JSON string.
fn esc_into(out: &mut String, s: &str) {
    use fmt::Write as _;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Cross-checks the independently recomputed critical path against the
/// production `sparcs_dfg::algo` value: a disagreement is an
/// error-severity [`rules::BOUND_DIVERGENCE`] lint (the emitted fact then
/// uses the smaller, still-sound value). Public so the mutation corpus can
/// convict the rule with a forged reference value.
pub fn crosscheck_critical_path(own_ns: u64, reference_ns: u64) -> Option<Lint> {
    (own_ns != reference_ns).then(|| Lint {
        rule: rules::BOUND_DIVERGENCE,
        severity: Severity::Error,
        location: "critical path".to_string(),
        details: format!(
            "independent recomputation found {own_ns} ns but dfg::algo::critical_path \
             reports {reference_ns} ns; emitting the smaller value"
        ),
    })
}

// ---------------------------------------------------------------------------
// Independent recomputation (audit-style: raw edge list, own Kahn order).
// ---------------------------------------------------------------------------

/// Kahn's algorithm over the raw edge list, sharing no code with
/// `TaskGraph::topological_order`. Returns `None` on a cycle.
fn own_topo_order(g: &TaskGraph) -> Option<Vec<usize>> {
    let n = g.task_count();
    let mut indegree = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in g.edges() {
        indegree[e.dst.index()] += 1;
        succs[e.src.index()].push(e.dst.index());
    }
    let mut frontier: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = frontier.pop() {
        order.push(i);
        for &s in &succs[i] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                frontier.push(s);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Longest delay-weighted root→leaf path, recomputed from scratch.
fn own_critical_path_ns(g: &TaskGraph, order: &[usize]) -> u64 {
    let n = g.task_count();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in g.edges() {
        preds[e.dst.index()].push(e.src.index());
    }
    // dist[i] = max over paths ending at i of Σ delays (including i).
    let mut dist = vec![0u64; n];
    for &i in order {
        let here = g.task(TaskId(i as u32)).delay_ns;
        let best_in = preds[i].iter().map(|&p| dist[p]).max().unwrap_or(0);
        dist[i] = best_in + here;
    }
    dist.into_iter().max().unwrap_or(0)
}

/// The graph-only piece of [`analyze`]: the certified critical-path lower
/// bound on the ILP objective `Σ d_p`, in ns. Double-computed like the
/// full analysis (own Kahn + `dfg::algo`), returning the smaller — and
/// therefore sound-regardless — value. It needs no architecture, so one
/// call covers every board.
///
/// # Errors
///
/// [`GraphError::Cycle`] (and friends) when the graph does not validate.
pub fn critical_path_lb_ns(g: &TaskGraph) -> Result<u64, GraphError> {
    let cp = critical_paths(g)?;
    Ok(cp.own_ns.min(cp.reference_ns))
}

/// Both critical paths of [`critical_paths`], the reference path's tasks,
/// and the own topological order they were computed over.
struct CriticalPaths {
    own_ns: u64,
    reference_ns: u64,
    reference_tasks: Vec<TaskId>,
    order: Vec<usize>,
}

/// Both critical-path computations plus the reference path's task list.
fn critical_paths(g: &TaskGraph) -> Result<CriticalPaths, GraphError> {
    // The reference orders the graph with `TaskGraph::topological_order`,
    // so a cycle comes back as the `GraphError::Cycle` that `validate`
    // gives.
    let (reference_ns, reference_tasks) = match algo::critical_path(g)? {
        Some(cp) => (cp.delay_ns, cp.tasks),
        None => (0, Vec::new()),
    };
    let order = own_topo_order(g).ok_or(
        // Unreachable once the reference found an order; name task 0 if
        // it somehow fires.
        GraphError::Cycle(TaskId(0)),
    )?;
    let own_ns = own_critical_path_ns(g, &order);
    Ok(CriticalPaths {
        own_ns,
        reference_ns,
        reference_tasks,
        order,
    })
}

// ---------------------------------------------------------------------------
// Precedence-closure sums, one column block at a time.
// ---------------------------------------------------------------------------

/// Tasks per column block of [`closure_sums`]. A block holds one bit row of
/// `CLOSURE_BLOCK / 64` words per task, so the pass needs `V · 512` bytes
/// (5 MB at 10k tasks, 51 MB at 100k) however much of the graph each task
/// reaches.
const CLOSURE_BLOCK: usize = 4096;

/// Adjacency over topological positions in compressed rows: the
/// neighbours of position `p` are `adj[start[p]..start[p + 1]]`.
struct Adjacency {
    start: Vec<usize>,
    adj: Vec<u32>,
}

impl Adjacency {
    /// Groups the `(from, to)` pairs by `from`, keeping their order.
    fn new(n: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut start = vec![0usize; n + 1];
        for (from, _) in pairs.clone() {
            start[from as usize + 1] += 1;
        }
        for p in 0..n {
            start[p + 1] += start[p];
        }
        let mut fill = start.clone();
        let mut adj = vec![0u32; start[n]];
        for (from, to) in pairs {
            adj[fill[from as usize]] = to;
            fill[from as usize] += 1;
        }
        Adjacency { start, adj }
    }

    fn of(&self, p: usize) -> &[u32] {
        &self.adj[self.start[p]..self.start[p + 1]]
    }
}

/// The components of a resource vector, in a fixed kind order.
fn kinds(r: &Resources) -> [u64; 4] {
    [r.clbs, r.flip_flops, r.mult_blocks, r.bram_words]
}

/// The bit-sliced weights of one column block. Plane `i` masks the block
/// tasks whose demand of kind `planes[i].0` has bit `planes[i].1` set, so
/// a row's demand of kind `k` is `Σ popcount(row & plane) << bit` over the
/// planes of `k`: exact, and no pair is visited alone.
struct BitPlanes {
    /// `(kind, bit)` of each plane; only bits some block task sets.
    planes: Vec<(usize, u32)>,
    /// Word `w` of plane `i` is `masks[w * planes.len() + i]`.
    masks: Vec<u64>,
}

impl BitPlanes {
    fn new(block: &[Resources]) -> Self {
        let mut used = [0u64; 4];
        for r in block {
            for (u, v) in used.iter_mut().zip(kinds(r)) {
                *u |= v;
            }
        }
        let planes: Vec<(usize, u32)> = (0..4)
            .flat_map(|k| {
                (0..64)
                    .filter(move |b| used[k] >> b & 1 == 1)
                    .map(move |b| (k, b))
            })
            .collect();
        let mut masks = vec![0u64; block.len().div_ceil(64) * planes.len()];
        for (j, r) in block.iter().enumerate() {
            let demand = kinds(r);
            for (i, &(k, b)) in planes.iter().enumerate() {
                masks[j / 64 * planes.len() + i] |= (demand[k] >> b & 1) << (j % 64);
            }
        }
        BitPlanes { planes, masks }
    }

    /// The summed demand of the block tasks set in `row`; `counts` is
    /// scratch of one slot per plane.
    fn weigh(&self, row: &[u64], counts: &mut [u64]) -> Resources {
        counts.fill(0);
        let per_word = self.planes.len();
        for (w, &bits) in row.iter().enumerate() {
            if bits == 0 {
                continue;
            }
            let masks = &self.masks[w * per_word..][..per_word];
            for (c, &m) in counts.iter_mut().zip(masks) {
                *c += u64::from((bits & m).count_ones());
            }
        }
        let mut sum = [0u64; 4];
        for (&(k, b), &c) in self.planes.iter().zip(counts.iter()) {
            sum[k] += c << b;
        }
        Resources::new(sum[0], sum[1], sum[2], sum[3])
    }
}

/// Every task's ancestor and descendant resource sums (itself excluded),
/// indexed by task id, exactly.
///
/// Tasks are numbered by their position in `order` (a topological order),
/// and the positions are cut into column blocks of `block`. For each block,
/// a bit row per task marks the block tasks it reaches: descendant rows
/// fill in reverse topological order from successors, ancestor rows in
/// topological order from predecessors. Only positions before the block's
/// end can reach into it, and only positions from its start can be reached
/// from it, so each direction touches the rows it can fill. Each row is
/// weighed by [`BitPlanes`], so the cost is `O((E + V·planes) · V / 64)`
/// word operations in `V · block / 8` bytes.
fn closure_sums(g: &TaskGraph, order: &[usize], block: usize) -> (Vec<Resources>, Vec<Resources>) {
    let n = order.len();
    let mut pos = vec![0u32; n];
    for (p, &t) in order.iter().enumerate() {
        pos[t] = p as u32;
    }
    let arcs = g
        .edges()
        .iter()
        .map(|e| (pos[e.src.index()], pos[e.dst.index()]));
    let succ = Adjacency::new(n, arcs.clone());
    let pred = Adjacency::new(n, arcs.map(|(u, v)| (v, u)));
    let res: Vec<Resources> = order
        .iter()
        .map(|&t| g.task(TaskId(t as u32)).resources)
        .collect();
    let mut anc = vec![Resources::ZERO; n];
    let mut desc = vec![Resources::ZERO; n];
    let mut rows: Vec<u64> = Vec::new();
    for lo in (0..n).step_by(block) {
        let hi = (lo + block).min(n);
        let words = (hi - lo).div_ceil(64);
        let planes = BitPlanes::new(&res[lo..hi]);
        let mut counts = vec![0u64; planes.planes.len()];
        let word = |j: usize| (j - lo) / 64;
        let mask = |j: usize| 1u64 << ((j - lo) % 64);

        // Descendants: row p (p < hi) at rows[p * words..].
        rows.clear();
        rows.resize(hi * words, 0);
        for p in (0..hi).rev() {
            let (head, tail) = rows.split_at_mut((p + 1) * words);
            let row = &mut head[p * words..];
            for &s in succ.of(p) {
                let s = s as usize;
                if s >= hi {
                    continue;
                }
                // Row s only marks positions after s.
                let first = (s + 1).saturating_sub(lo) / 64;
                let from = &tail[(s - p - 1) * words..][..words];
                for (r, &w) in row[first..].iter_mut().zip(&from[first..]) {
                    *r |= w;
                }
                if s >= lo {
                    row[word(s)] |= mask(s);
                }
            }
            desc[order[p]] += planes.weigh(row, &mut counts);
        }

        // Ancestors: row p (p >= lo) at rows[(p - lo) * words..].
        rows.clear();
        rows.resize((n - lo) * words, 0);
        for p in lo..n {
            let (head, tail) = rows.split_at_mut((p - lo) * words);
            let row = &mut tail[..words];
            for &q in pred.of(p) {
                let q = q as usize;
                if q < lo {
                    continue;
                }
                // Row q only marks positions before q.
                let end = (q.min(hi) - lo).div_ceil(64);
                let from = &head[(q - lo) * words..][..words];
                for (r, &w) in row[..end].iter_mut().zip(&from[..end]) {
                    *r |= w;
                }
                if q < hi {
                    row[word(q)] |= mask(q);
                }
            }
            anc[order[p]] += planes.weigh(row, &mut counts);
        }
    }
    (anc, desc)
}

/// Every task reachable from `starts` by steps to `next` (the starts
/// included): one search in `O(V + E)`.
fn reached_from<I: Iterator<Item = TaskId>>(
    g: &TaskGraph,
    starts: impl Iterator<Item = TaskId>,
    next: impl Fn(TaskId) -> I,
) -> Vec<bool> {
    let mut seen = vec![false; g.task_count()];
    let mut stack: Vec<TaskId> = starts
        .filter(|t| !std::mem::replace(&mut seen[t.index()], true))
        .collect();
    while let Some(t) = stack.pop() {
        for u in next(t) {
            if !std::mem::replace(&mut seen[u.index()], true) {
                stack.push(u);
            }
        }
    }
    seen
}

// ---------------------------------------------------------------------------
// The analysis itself.
// ---------------------------------------------------------------------------

/// Abstract-interprets `g` against `arch` under `mode`, producing every
/// certified bound and lint. Pure and solver-free: nothing here launches
/// the simplex. The cost is dominated by the precedence-closure sums of
/// the partition-count bound: `O((E + V·planes)·V/64)` word operations
/// over one 4,096-task column block of bit rows at a time (`V·512` bytes),
/// with no reachable pair visited alone. The `dead-node` and
/// `unreachable-output` lints take one graph search each.
///
/// # Errors
///
/// Returns [`GraphError::Cycle`] when the graph is not a DAG — there is
/// nothing sound to certify about a cyclic "schedule".
pub fn analyze(
    g: &TaskGraph,
    arch: &Architecture,
    mode: MemoryMode,
) -> Result<Analysis, GraphError> {
    let mut facts = Vec::new();
    let mut lints = Vec::new();

    // --- Critical-path objective bound, computed twice. -------------------
    let CriticalPaths {
        own_ns: own_cp,
        reference_ns: ref_cp,
        reference_tasks: cp_tasks,
        order,
    } = critical_paths(g)?;
    if let Some(lint) = crosscheck_critical_path(own_cp, ref_cp) {
        lints.push(lint);
    }
    let critical_path_ns = own_cp.min(ref_cp);
    let path_names: Vec<&str> = cp_tasks.iter().map(|&t| g.task(t).name.as_str()).collect();
    facts.push(Fact {
        rule: rules::CRITICAL_PATH_BOUND,
        bound: critical_path_ns,
        witness: format!(
            "delay-weighted critical path [{}] recomputed independently ({own_cp} ns) and \
             via dfg::algo ({ref_cp} ns); every schedule's Σ d_p is at least this in both \
             delay modes",
            path_names.join(" -> ")
        ),
    });

    // --- Area objective bound. ---------------------------------------------
    let (area_ns, kind) = sparcs_core::delay::area_bound_ns(g, &arch.resources);
    facts.push(Fact {
        rule: rules::AREA_BOUND,
        bound: area_ns,
        witness: match kind {
            Some(kind) => format!(
                "ceil(sum_t R(t)·delay(t) / R_max) over {kind}, the tightest resource kind: \
                 each partition's delay is at least its slowest task's and its tasks fit \
                 R_max, so every schedule's Σ d_p is at least this"
            ),
            None => "no task demands a resource kind the device has".to_string(),
        },
    });
    let objective_lb_ns = critical_path_ns.max(area_ns);

    // --- Schedulability + partition-count bound. ---------------------------
    let mut schedulable = true;
    for (t, task) in g.tasks() {
        if !task.resources.fits_within(&arch.resources) {
            schedulable = false;
            lints.push(Lint {
                rule: rules::UNSCHEDULABLE,
                severity: Severity::Error,
                location: t.to_string(),
                details: format!(
                    "task `{}` needs {} but the device caps at {}; no partition count \
                     can schedule it",
                    task.name, task.resources, arch.resources
                ),
            });
        }
    }
    let total: Resources = g.tasks().map(|(_, t)| t.resources).sum();
    let n0 = total.min_bins(&arch.resources);
    if n0.is_none() && g.task_count() > 0 && schedulable {
        // Demand on a zero-capacity component that no single task trips
        // (possible only with zero-area tasks summing to demand — defensive).
        schedulable = false;
        lints.push(Lint {
            rule: rules::UNSCHEDULABLE,
            severity: Severity::Error,
            location: "graph".to_string(),
            details: format!(
                "total demand {} includes a resource kind the device ({}) has none of",
                total, arch.resources
            ),
        });
    }
    let mut partition_count_lb: u64 = if g.task_count() == 0 {
        0
    } else {
        n0.unwrap_or(0)
    };
    let mut refinement_witness = String::new();
    if schedulable && g.task_count() > 0 {
        let (anc, desc) = closure_sums(g, &order, CLOSURE_BLOCK);
        for t in g.task_ids() {
            let me = g.task(t).resources;
            let (Some(up), Some(down)) = (
                (anc[t.index()] + me).min_bins(&arch.resources),
                (desc[t.index()] + me).min_bins(&arch.resources),
            ) else {
                continue;
            };
            let through = up + down - 1;
            if through > partition_count_lb {
                partition_count_lb = through;
                refinement_witness = format!(
                    "; precedence closure through `{}` needs {up} partition(s) upstream \
                     and {down} downstream (sharing one)",
                    g.task(t).name
                );
            }
        }
    }
    if schedulable {
        facts.push(Fact {
            rule: rules::PARTITION_COUNT_BOUND,
            bound: partition_count_lb,
            witness: format!(
                "preprocessing bound ceil(sum R(t) / R_max) with SumR(t) = {} on R_max = {} \
                 gives {}{}",
                total,
                arch.resources,
                n0.unwrap_or(0),
                refinement_witness
            ),
        });
    }

    // --- Boundary-memory bound (Eq. 3). ------------------------------------
    // An edge (u, v) whose endpoint areas cannot share the device forces
    // p(u) < p(v): at boundary p(v)-1 every forced in-edge of v is live,
    // and at boundary p(u) every forced out-edge of u is live.
    let forced = |u: TaskId, v: TaskId| {
        !(g.task(u).resources + g.task(v).resources).fits_within(&arch.resources)
    };
    let mut memory_lb_words = 0u64;
    let mut memory_witness = String::from("no edge is forced to cross a boundary");
    for v in g.task_ids() {
        let mut edge_sum = 0u64;
        let mut net_producers: Vec<TaskId> = Vec::new();
        for e in g.in_edges(v) {
            if forced(e.src, v) {
                edge_sum += e.words;
                if !net_producers.contains(&e.src) {
                    net_producers.push(e.src);
                }
            }
        }
        let live = match mode {
            MemoryMode::Edge => edge_sum,
            MemoryMode::Net => net_producers.iter().map(|&u| g.task(u).output_words).sum(),
        };
        if live > memory_lb_words {
            memory_lb_words = live;
            memory_witness = format!(
                "{} forced in-edge(s) of `{}` are all live at the boundary below it",
                net_producers.len(),
                g.task(v).name
            );
        }
    }
    for u in g.task_ids() {
        let mut edge_sum = 0u64;
        let mut any = false;
        for e in g.out_edges(u) {
            if forced(u, e.dst) {
                edge_sum += e.words;
                any = true;
            }
        }
        let live = match mode {
            MemoryMode::Edge => edge_sum,
            MemoryMode::Net => {
                if any {
                    g.task(u).output_words
                } else {
                    0
                }
            }
        };
        if live > memory_lb_words {
            memory_lb_words = live;
            memory_witness = format!(
                "the forced out-edges of `{}` are all live at the boundary above it",
                g.task(u).name
            );
        }
    }
    facts.push(Fact {
        rule: rules::MEMORY_BOUND,
        bound: memory_lb_words,
        witness: format!(
            "{memory_witness} ({mode:?} accounting, M_max = {})",
            arch.memory_words
        ),
    });

    // --- m_i_temp bound (§2.2). --------------------------------------------
    // Each task's env-input and env-output words, from one pass over the
    // ports.
    let mut env_words = vec![(0u64, 0u64); g.task_count()];
    for port in g.env_ports() {
        for t in &port.tasks {
            let (ins, outs) = &mut env_words[t.index()];
            match port.direction {
                EnvDirection::Input => *ins += port.words,
                EnvDirection::Output => *outs += port.words,
            }
        }
    }
    let mut temp_memory_lb_words = 0u64;
    let mut temp_witness = String::from("no task touches an environment port");
    for (t, &(ins, outs)) in g.task_ids().zip(&env_words) {
        if ins + outs > temp_memory_lb_words {
            temp_memory_lb_words = ins + outs;
            temp_witness = format!(
                "any partition containing `{}` holds its {ins} env-input + {outs} env-output \
                 words",
                g.task(t).name
            );
        }
    }
    facts.push(Fact {
        rule: rules::TEMP_MEMORY_BOUND,
        bound: temp_memory_lb_words,
        witness: temp_witness,
    });

    // --- Reconfiguration ledger (§4). --------------------------------------
    let reconfig_lb_ns = if schedulable {
        partition_count_lb.saturating_mul(arch.reconfig_time_ns)
    } else {
        0
    };
    facts.push(Fact {
        rule: rules::RECONFIG_LEDGER_BOUND,
        bound: reconfig_lb_ns,
        witness: format!(
            "each of the >= {partition_count_lb} configurations is loaded at least once at \
             CT = {} ns",
            arch.reconfig_time_ns
        ),
    });

    // --- Graph lints. --------------------------------------------------------
    for e in g.edges() {
        if e.words > g.task(e.src).output_words {
            lints.push(Lint {
                rule: rules::WIDTH_MISMATCH,
                severity: Severity::Error,
                location: format!("edge {}->{}", e.src, e.dst),
                details: format!(
                    "edge carries {} words but producer `{}` outputs only {}",
                    e.words,
                    g.task(e.src).name,
                    g.task(e.src).output_words
                ),
            });
        }
    }
    // One backward search from the writers finds every observed task.
    let mut writers = g
        .env_outputs()
        .flat_map(|(_, p)| p.tasks.iter().copied())
        .peekable();
    if writers.peek().is_some() {
        let observed = reached_from(g, writers, |t| g.predecessors(t));
        for t in g.task_ids() {
            if !observed[t.index()] {
                lints.push(Lint {
                    rule: rules::DEAD_NODE,
                    severity: Severity::Warning,
                    location: t.to_string(),
                    details: format!(
                        "task `{}` reaches no environment output; its result is never \
                         observed by the host",
                        g.task(t).name
                    ),
                });
            }
        }
    }
    // One forward search from the fed tasks finds every fed writer.
    let mut fed = g
        .env_inputs()
        .flat_map(|(_, p)| p.tasks.iter().copied())
        .peekable();
    if fed.peek().is_some() {
        let fed_or_downstream = reached_from(g, fed, |t| g.successors(t));
        for (id, port) in g.env_outputs() {
            if !port.tasks.iter().any(|w| fed_or_downstream[w.index()]) {
                lints.push(Lint {
                    rule: rules::UNREACHABLE_OUTPUT,
                    severity: Severity::Warning,
                    location: id.to_string(),
                    details: format!(
                        "environment output `{}` depends on no environment input; it can \
                         only emit constants",
                        port.name
                    ),
                });
            }
        }
    }

    Ok(Analysis {
        graph: g.name().to_string(),
        facts,
        lints,
        objective_lb_ns,
        partition_count_lb: u32::try_from(partition_count_lb).unwrap_or(u32::MAX),
        memory_lb_words,
        temp_memory_lb_words,
        reconfig_lb_ns,
        schedulable,
        board_memory_words: arch.memory_words,
        memory_mode: mode,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcs_dfg::{gen, Resources};

    fn arch(clbs: u64, mem: u64) -> Architecture {
        let mut a = Architecture::xc4044_wildforce();
        a.resources = Resources::clbs(clbs);
        a.memory_words = mem;
        a
    }

    #[test]
    fn fig4_bounds_are_the_known_values() {
        let g = gen::fig4_example();
        let a = arch(1200, 100);
        let an = analyze(&g, &a, MemoryMode::Net).unwrap();
        assert_eq!(an.objective_lb_ns, 700, "critical path of fig4");
        assert_eq!(critical_path_lb_ns(&g).unwrap(), 700);
        assert!(an.schedulable);
        assert!(an.partition_count_lb >= 1);
        assert!(!an.has_errors(), "{:?}", an.lints);
        assert_eq!(an.static_verdict(Some(4)), None);
        assert_eq!(
            an.fact(rules::CRITICAL_PATH_BOUND).map(|f| f.bound),
            Some(700)
        );
        assert_eq!(
            an.reconfig_lb_ns,
            u64::from(an.partition_count_lb) * a.reconfig_time_ns
        );
    }

    #[test]
    fn chain_closure_refinement_beats_the_area_bound() {
        // Ten 100-CLB tasks in a chain on a 1000-CLB device: the area bound
        // says 1 partition, and the closure refinement cannot beat it (all
        // ten fit together). Shrink the device to 100 CLBs: area bound 10,
        // closure bound through the middle also 10 — and on a 150-CLB device
        // the area bound is 7 while adjacent tasks still cannot pair up
        // arbitrarily; the refinement must never *exceed* a feasible count.
        let g = gen::chain(10, 100, 10, 1);
        let a = arch(100, 1000);
        let an = analyze(&g, &a, MemoryMode::Net).unwrap();
        assert_eq!(an.partition_count_lb, 10, "one task per partition");
        let a = arch(1000, 1000);
        let an = analyze(&g, &a, MemoryMode::Net).unwrap();
        assert_eq!(an.partition_count_lb, 1);
    }

    #[test]
    fn partition_cap_below_the_bound_is_convicted() {
        let g = gen::chain(4, 100, 10, 1);
        let a = arch(100, 1000);
        let an = analyze(&g, &a, MemoryMode::Net).unwrap();
        assert_eq!(an.partition_count_lb, 4);
        assert_eq!(
            an.static_verdict(Some(3)),
            Some(rules::PARTITION_COUNT_BOUND)
        );
        assert_eq!(an.static_verdict(Some(4)), None);
        assert_eq!(an.static_verdict(None), None);
    }

    #[test]
    fn forced_crossing_memory_bound_is_convicted() {
        // Two 100-CLB tasks on a 150-CLB device: the edge must cross, so the
        // boundary stores its words; a 3-word board cannot hold 50.
        let mut g = sparcs_dfg::TaskGraph::new("forced");
        let a_t = g.add_task("a", Resources::clbs(100), 10, 50);
        let b_t = g.add_task("b", Resources::clbs(100), 10, 1);
        g.add_edge(a_t, b_t, 50).unwrap();
        let dev = arch(150, 3);
        let an = analyze(&g, &dev, MemoryMode::Net).unwrap();
        assert_eq!(an.memory_lb_words, 50);
        assert_eq!(an.static_verdict(None), Some(rules::MEMORY_BOUND));
        let roomy = arch(150, 64);
        let an = analyze(&g, &roomy, MemoryMode::Net).unwrap();
        assert_eq!(an.static_verdict(None), None);
    }

    #[test]
    fn edge_mode_counts_edges_net_mode_counts_producers() {
        // One producer feeding two consumers over 30-word edges, all forced
        // to cross (every pair overflows the device).
        let mut g = sparcs_dfg::TaskGraph::new("fanout");
        let p = g.add_task("p", Resources::clbs(100), 10, 30);
        let c1 = g.add_task("c1", Resources::clbs(100), 10, 1);
        let c2 = g.add_task("c2", Resources::clbs(100), 10, 1);
        g.add_edge(p, c1, 30).unwrap();
        g.add_edge(p, c2, 30).unwrap();
        let dev = arch(150, 1000);
        let edge = analyze(&g, &dev, MemoryMode::Edge).unwrap();
        assert_eq!(edge.memory_lb_words, 60, "both edges live above p");
        let net = analyze(&g, &dev, MemoryMode::Net).unwrap();
        assert_eq!(net.memory_lb_words, 30, "one net live above p");
    }

    #[test]
    fn oversized_task_is_unschedulable() {
        let g = gen::fig4_example();
        let a = arch(100, 1000);
        let an = analyze(&g, &a, MemoryMode::Net).unwrap();
        assert!(!an.schedulable);
        assert!(an.has_errors());
        assert_eq!(an.static_verdict(None), Some(rules::UNSCHEDULABLE));
        assert!(an.lints.iter().any(|l| l.rule == rules::UNSCHEDULABLE));
    }

    #[test]
    fn temp_memory_bound_tracks_env_ports() {
        let mut g = sparcs_dfg::TaskGraph::new("env");
        let t = g.add_task("t", Resources::clbs(10), 10, 4);
        g.add_env_input("x", 64, [t]).unwrap();
        g.add_env_output("y", 16, [t]).unwrap();
        let an = analyze(&g, &arch(100, 1000), MemoryMode::Net).unwrap();
        assert_eq!(an.temp_memory_lb_words, 80);
        // Informational only: the verdict never convicts on it.
        let tiny = analyze(&g, &arch(100, 8), MemoryMode::Net).unwrap();
        assert_eq!(tiny.static_verdict(None), None);
    }

    #[test]
    fn lints_fire_on_seeded_defects_and_stay_silent_on_fig4() {
        let g = gen::fig4_example();
        let an = analyze(&g, &arch(1200, 100), MemoryMode::Net).unwrap();
        assert!(
            an.lints.is_empty(),
            "fig4 must be lint-clean: {:?}",
            an.lints
        );

        // Width mismatch: an edge wider than its producer's output.
        let mut g = sparcs_dfg::TaskGraph::new("wide");
        let a_t = g.add_task("a", Resources::clbs(10), 10, 2);
        let b_t = g.add_task("b", Resources::clbs(10), 10, 1);
        g.add_edge(a_t, b_t, 5).unwrap();
        let an = analyze(&g, &arch(100, 100), MemoryMode::Net).unwrap();
        assert!(an.lints.iter().any(|l| l.rule == rules::WIDTH_MISMATCH));
        assert!(an.has_errors());
    }

    #[test]
    fn dead_node_and_unreachable_output_lints() {
        let mut g = sparcs_dfg::TaskGraph::new("dead");
        let a_t = g.add_task("a", Resources::clbs(10), 10, 1);
        let b_t = g.add_task("b", Resources::clbs(10), 10, 1);
        let c_t = g.add_task("c", Resources::clbs(10), 10, 1);
        g.add_edge(a_t, b_t, 1).unwrap();
        g.add_env_input("in", 4, [a_t]).unwrap();
        g.add_env_output("out", 4, [b_t]).unwrap();
        // c is disconnected: dead (reaches no output) and its own source of
        // constants if it wrote one.
        g.add_env_output("ghost", 4, [c_t]).unwrap();
        let an = analyze(&g, &arch(100, 100), MemoryMode::Net).unwrap();
        assert!(
            an.lints
                .iter()
                .any(|l| l.rule == rules::UNREACHABLE_OUTPUT && l.details.contains("ghost")),
            "{:?}",
            an.lints
        );
        // a and b are observed; c writes `ghost` so it is not dead — drop
        // the ghost port instead to see the dead-node case.
        let mut g = sparcs_dfg::TaskGraph::new("dead2");
        let a_t = g.add_task("a", Resources::clbs(10), 10, 1);
        let b_t = g.add_task("b", Resources::clbs(10), 10, 1);
        let c_t = g.add_task("c", Resources::clbs(10), 10, 1);
        g.add_edge(a_t, b_t, 1).unwrap();
        g.add_env_output("out", 4, [b_t]).unwrap();
        let an = analyze(&g, &arch(100, 100), MemoryMode::Net).unwrap();
        let dead: Vec<_> = an
            .lints
            .iter()
            .filter(|l| l.rule == rules::DEAD_NODE)
            .collect();
        assert_eq!(dead.len(), 1, "{:?}", an.lints);
        assert_eq!(dead[0].location, c_t.to_string());
    }

    #[test]
    fn crosscheck_convicts_divergence() {
        assert!(crosscheck_critical_path(700, 700).is_none());
        let lint = crosscheck_critical_path(700, 699).unwrap();
        assert_eq!(lint.rule, rules::BOUND_DIVERGENCE);
        assert_eq!(lint.severity, Severity::Error);
    }

    #[test]
    fn empty_graph_is_trivially_fine() {
        let g = sparcs_dfg::TaskGraph::new("empty");
        let an = analyze(&g, &arch(100, 100), MemoryMode::Net).unwrap();
        assert_eq!(an.objective_lb_ns, 0);
        assert_eq!(an.partition_count_lb, 0);
        assert_eq!(an.static_verdict(Some(1)), None);
        assert!(!an.has_errors());
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let g = gen::fig4_example();
        let an = analyze(&g, &arch(1200, 100), MemoryMode::Net).unwrap();
        let json = an.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"critical-path-bound\""));
        assert!(json.contains("\"bound\":700"));
        assert!(json.contains("\"lints\":[]"));
    }

    /// `to_json` as it was before it wrote into one buffer: a `String` per
    /// fact and lint, joined, then copied through `format!`.
    fn joined_json(an: &Analysis) -> String {
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
        let facts: Vec<String> = an
            .facts
            .iter()
            .map(|f| {
                format!(
                    "{{\"rule\":\"{}\",\"bound\":{},\"witness\":\"{}\"}}",
                    esc(f.rule),
                    f.bound,
                    esc(&f.witness)
                )
            })
            .collect();
        let lints: Vec<String> = an
            .lints
            .iter()
            .map(|l| {
                format!(
                    "{{\"rule\":\"{}\",\"severity\":\"{}\",\"location\":\"{}\",\"details\":\"{}\"}}",
                    esc(l.rule),
                    l.severity,
                    esc(&l.location),
                    esc(&l.details)
                )
            })
            .collect();
        format!(
            "{{\"graph\":\"{}\",\"memory_mode\":\"{:?}\",\"schedulable\":{},\"facts\":[{}],\"lints\":[{}]}}",
            esc(&an.graph),
            an.memory_mode,
            an.schedulable,
            facts.join(","),
            lints.join(",")
        )
    }

    #[test]
    fn json_written_in_place_matches_the_joined_rendering() {
        // Names that need escaping, an unschedulable task and edges wider
        // than their producers, so the report has several lints.
        let mut g = sparcs_dfg::TaskGraph::new("q\"b\\s\n\t\u{1}é");
        let a = g.add_task("a\"1", Resources::clbs(10), 10, 2);
        let b = g.add_task("b\\2", Resources::clbs(500), 20, 1);
        let c = g.add_task("c\n3", Resources::clbs(10), 30, 1);
        g.add_edge(a, b, 5).unwrap();
        g.add_edge(b, c, 4).unwrap();
        g.add_env_input("in\t", 2, [a]).unwrap();
        for mode in [MemoryMode::Net, MemoryMode::Edge] {
            let an = analyze(&g, &arch(100, 100), mode).unwrap();
            assert!(an.lints.len() >= 3, "{:?}", an.lints);
            assert_eq!(an.to_json(), joined_json(&an));
        }
        let an = analyze(&gen::fig4_example(), &arch(1200, 100), MemoryMode::Net).unwrap();
        assert_eq!(an.to_json(), joined_json(&an));
    }

    /// `analyze` reports a cycle as `TaskGraph::validate` does, naming the
    /// same task (here not task 0).
    #[test]
    fn a_cyclic_graph_fails_like_validate() {
        let mut g = sparcs_dfg::TaskGraph::new("cyclic");
        let a = g.add_task("a", Resources::clbs(10), 10, 1);
        let b = g.add_task("b", Resources::clbs(10), 10, 1);
        let c = g.add_task("c", Resources::clbs(10), 10, 1);
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, c, 1).unwrap();
        g.add_edge(c, b, 1).unwrap();
        assert_eq!(g.validate(), Err(GraphError::Cycle(b)));
        for mode in [MemoryMode::Net, MemoryMode::Edge] {
            assert_eq!(
                analyze(&g, &arch(100, 100), mode),
                Err(GraphError::Cycle(b))
            );
        }
        assert_eq!(critical_path_lb_ns(&g), Err(GraphError::Cycle(b)));
    }

    /// A random DAG of `n` tasks with nonzero CLB, flip-flop and
    /// multiplier demands. Tasks sit at shuffled ranks, so topological
    /// order differs from id order; an edge joins two tasks at most
    /// `window` ranks apart, so a small window gives a deep, narrow graph.
    fn random_dag(n: u32, window: u32, seed: u64) -> sparcs_dfg::TaskGraph {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rank: Vec<u32> = (0..n).collect();
        for i in (1..rank.len()).rev() {
            rank.swap(i, rng.gen_range(0..=i));
        }
        let mut g = sparcs_dfg::TaskGraph::new(format!("random-{n}-{seed}"));
        for i in 0..n {
            let r = Resources::new(
                rng.gen_range(10..=200u64),
                rng.gen_range(5..=150u64),
                rng.gen_range(1..=3u64),
                0,
            );
            g.add_task(format!("t{i}"), r, rng.gen_range(10..=500u64), 4);
        }
        let p = (2.0 / f64::from(window)).min(1.0);
        for u in 0..n {
            for v in 0..n {
                let (ru, rv) = (rank[u as usize], rank[v as usize]);
                if ru < rv && rv - ru <= window && rng.gen_bool(p) {
                    g.add_edge(TaskId(u), TaskId(v), 4).unwrap();
                }
            }
        }
        g
    }

    /// The partition-count fact computed the slow, obvious way: one DFS per
    /// task in each direction, summed and binned.
    fn reference_partition_count(g: &sparcs_dfg::TaskGraph, cap: &Resources) -> (u64, String) {
        let closure_sum = |t: TaskId, downstream: bool| {
            let mut seen = vec![false; g.task_count()];
            let mut stack = vec![t];
            let mut sum = Resources::ZERO;
            while let Some(u) = stack.pop() {
                let next: Vec<TaskId> = if downstream {
                    g.successors(u).collect()
                } else {
                    g.predecessors(u).collect()
                };
                for v in next {
                    if !std::mem::replace(&mut seen[v.index()], true) {
                        sum += g.task(v).resources;
                        stack.push(v);
                    }
                }
            }
            sum
        };
        let total: Resources = g.tasks().map(|(_, t)| t.resources).sum();
        let n0 = total.min_bins(cap).unwrap();
        let (mut lb, mut refinement) = (n0, String::new());
        for t in g.task_ids() {
            let me = g.task(t).resources;
            let up = (closure_sum(t, false) + me).min_bins(cap).unwrap();
            let down = (closure_sum(t, true) + me).min_bins(cap).unwrap();
            if up + down - 1 > lb {
                lb = up + down - 1;
                refinement = format!(
                    "; precedence closure through `{}` needs {up} partition(s) upstream \
                     and {down} downstream (sharing one)",
                    g.task(t).name
                );
            }
        }
        let witness = format!(
            "preprocessing bound ceil(sum R(t) / R_max) with SumR(t) = {total} on R_max = \
             {cap} gives {n0}{refinement}"
        );
        (lb, witness)
    }

    #[test]
    fn partition_count_bound_matches_a_dfs_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut refined = 0;
        for seed in 0..24 {
            let n = rng.gen_range(60..=300u32);
            let window = [1, 4, n][seed as usize % 3];
            let g = random_dag(n, window, seed);
            // Each kind capped at 1-1.6 times its largest single demand, so
            // every task fits and rounding at the closure's ends can beat
            // ⌈ΣR/R_max⌉.
            let mut cap = |kind: fn(&Resources) -> u64| {
                let largest = g.tasks().map(|(_, t)| kind(&t.resources)).max().unwrap();
                largest * rng.gen_range(100..=160u64) / 100
            };
            let mut a = arch(0, 1_000_000);
            a.resources = Resources::new(
                cap(|r| r.clbs),
                cap(|r| r.flip_flops),
                cap(|r| r.mult_blocks),
                0,
            );
            let (lb, witness) = reference_partition_count(&g, &a.resources);
            refined += usize::from(witness.contains("precedence closure"));
            for mode in [MemoryMode::Net, MemoryMode::Edge] {
                let an = analyze(&g, &a, mode).unwrap();
                assert_eq!(
                    u64::from(an.partition_count_lb),
                    lb,
                    "seed {seed}, {mode:?}"
                );
                let fact = an.fact(rules::PARTITION_COUNT_BOUND).unwrap();
                assert_eq!(fact.bound, lb);
                assert_eq!(fact.witness, witness, "seed {seed}, {mode:?}");
            }
        }
        assert!(
            refined > 0,
            "the sweep never exercised the closure refinement"
        );
    }

    /// The closure sums taken over the dense reachability matrix (a
    /// `V²`-bit closure filled in reverse topological order) with a walk
    /// over every reachable pair: each pair `t ⇒ j` adds R(j) below t and
    /// R(t) above j. Indexed by task id, like [`closure_sums`].
    fn pair_walk_sums(g: &sparcs_dfg::TaskGraph) -> (Vec<Resources>, Vec<Resources>) {
        let n = g.task_count();
        let words = n.div_ceil(64);
        let mut reach = vec![0u64; n * words];
        for &t in g.topological_order().unwrap().iter().rev() {
            let mut row = vec![0u64; words];
            for s in g.successors(t) {
                for (r, &w) in row.iter_mut().zip(&reach[s.index() * words..]) {
                    *r |= w;
                }
                row[s.index() / 64] |= 1 << (s.index() % 64);
            }
            reach[t.index() * words..][..words].copy_from_slice(&row);
        }
        let mut anc = vec![Resources::ZERO; n];
        let mut desc = vec![Resources::ZERO; n];
        for t in 0..n {
            for j in (0..n).filter(|&j| reach[t * words + j / 64] >> (j % 64) & 1 == 1) {
                desc[t] += g.task(TaskId(j as u32)).resources;
                anc[j] += g.task(TaskId(t as u32)).resources;
            }
        }
        (anc, desc)
    }

    /// [`random_dag`] with all four resource kinds nonzero and about one
    /// demand in ten drawn up to 2⁴⁰, so high bit planes are weighed too.
    fn heavy_dag(n: u32, window: u32, seed: u64) -> sparcs_dfg::TaskGraph {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut g = random_dag(n, window, seed);
        let mut rng = StdRng::seed_from_u64(!seed);
        let mut demand = || {
            if rng.gen_bool(0.1) {
                rng.gen_range(1..=1u64 << 40)
            } else {
                rng.gen_range(1..=300u64)
            }
        };
        for t in 0..n {
            g.task_mut(TaskId(t)).resources =
                Resources::new(demand(), demand(), demand(), demand());
        }
        g
    }

    #[test]
    fn blocked_closure_sums_match_the_pair_walk() {
        for n in [1u32, 63, 64, 65, 127, 128, 129, 300] {
            for seed in 0..3u64 {
                let window = [1, 8, n][seed as usize];
                let g = heavy_dag(n, window, u64::from(n) * 10 + seed);
                let expected = pair_walk_sums(&g);
                let kahn: Vec<usize> = g
                    .topological_order()
                    .unwrap()
                    .iter()
                    .map(|t| t.index())
                    .collect();
                for order in [own_topo_order(&g).unwrap(), kahn] {
                    for block in [64, 65, 128, CLOSURE_BLOCK] {
                        assert!(
                            closure_sums(&g, &order, block) == expected,
                            "n = {n}, window = {window}, block = {block}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reachability_lints_match_a_per_task_dfs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let (mut dead, mut unreachable, mut clean) = (0, 0, 0);
        for seed in 0..60u64 {
            let n = rng.gen_range(1..=90u32);
            let mut g = random_dag(n, [1, 4, n][seed as usize % 3], seed);
            // A few ports, each on a random set of tasks: some tasks reach
            // no writer, and some outputs are fed by no input.
            let mut ids: Vec<TaskId> = g.task_ids().collect();
            for port in 0..rng.gen_range(0..=6) {
                let k = rng.gen_range(1..=3.min(ids.len()));
                for i in 0..k {
                    let j = rng.gen_range(i..ids.len());
                    ids.swap(i, j);
                }
                let tasks = ids[..k].to_vec();
                let words = rng.gen_range(1..=64u64);
                if rng.gen_bool(0.5) {
                    g.add_env_input(format!("in{port}"), words, tasks).unwrap();
                } else {
                    g.add_env_output(format!("out{port}"), words, tasks)
                        .unwrap();
                }
            }
            // Per task, a DFS for everything it reaches, itself included.
            let reaches: Vec<Vec<bool>> = g
                .task_ids()
                .map(|t| {
                    let mut seen = vec![false; g.task_count()];
                    let mut stack = vec![t];
                    while let Some(u) = stack.pop() {
                        if !std::mem::replace(&mut seen[u.index()], true) {
                            stack.extend(g.successors(u));
                        }
                    }
                    seen
                })
                .collect();
            let writers: Vec<TaskId> = g.env_outputs().flat_map(|(_, p)| p.tasks.clone()).collect();
            let fed: Vec<TaskId> = g.env_inputs().flat_map(|(_, p)| p.tasks.clone()).collect();
            let expected_dead: Vec<String> = g
                .task_ids()
                .filter(|&t| {
                    !writers.is_empty() && !writers.iter().any(|w| reaches[t.index()][w.index()])
                })
                .map(|t| t.to_string())
                .collect();
            let expected_unreachable: Vec<String> = g
                .env_outputs()
                .filter(|(_, p)| {
                    !fed.is_empty()
                        && !p
                            .tasks
                            .iter()
                            .any(|w| fed.iter().any(|i| reaches[i.index()][w.index()]))
                })
                .map(|(id, _)| id.to_string())
                .collect();
            let an = analyze(&g, &arch(1_000, 1_000_000), MemoryMode::Net).unwrap();
            let located = |rule: &str| -> Vec<String> {
                an.lints
                    .iter()
                    .filter(|l| l.rule == rule)
                    .map(|l| l.location.clone())
                    .collect()
            };
            assert_eq!(located(rules::DEAD_NODE), expected_dead, "seed {seed}");
            assert_eq!(
                located(rules::UNREACHABLE_OUTPUT),
                expected_unreachable,
                "seed {seed}"
            );
            dead += expected_dead.len();
            unreachable += expected_unreachable.len();
            clean += usize::from(!writers.is_empty() && expected_dead.is_empty());
        }
        assert!(
            dead > 0 && unreachable > 0 && clean > 0,
            "the sweep must find dead tasks ({dead}), constant outputs ({unreachable}) and \
             graphs with every task observed ({clean})"
        );
    }

    #[test]
    fn temp_memory_bound_keeps_the_first_busiest_task() {
        // `b` and `c` tie at 12 words; the witness names the first of them.
        let mut g = sparcs_dfg::TaskGraph::new("tie");
        let a = g.add_task("a", Resources::clbs(10), 10, 1);
        let b = g.add_task("b", Resources::clbs(10), 10, 1);
        let c = g.add_task("c", Resources::clbs(10), 10, 1);
        g.add_env_input("x", 4, [a, b]).unwrap();
        g.add_env_input("y", 8, [b, c]).unwrap();
        g.add_env_output("z", 4, [c]).unwrap();
        let an = analyze(&g, &arch(100, 1000), MemoryMode::Net).unwrap();
        let fact = an.fact(rules::TEMP_MEMORY_BOUND).unwrap();
        assert_eq!(fact.bound, 12);
        assert_eq!(
            fact.witness,
            "any partition containing `b` holds its 12 env-input + 0 env-output words"
        );
    }

    #[test]
    fn bounds_hold_on_random_layered_graphs() {
        // Sanity sweep (the cross-solver soundness proptest lives at the
        // facade level): bounds are monotone and internally consistent.
        for seed in 0..32 {
            let cfg = gen::LayeredConfig {
                layers: 3,
                min_width: 2,
                max_width: 3,
                ..gen::LayeredConfig::default()
            };
            let g = gen::layered(&cfg, seed);
            let a = arch(700, 1_000_000);
            let an = analyze(&g, &a, MemoryMode::Net).unwrap();
            assert!(an.schedulable || an.lints.iter().any(|l| l.severity == Severity::Error));
            assert!(an.objective_lb_ns <= algo::total_delay(&g));
            assert!(u64::from(an.partition_count_lb) <= g.task_count() as u64);
            assert_eq!(
                an.reconfig_lb_ns,
                u64::from(an.partition_count_lb) * a.reconfig_time_ns
            );
        }
    }
}
