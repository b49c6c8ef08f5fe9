//! Warm-started, parallel branch-and-bound for mixed 0/1-integer programs.
//!
//! Each node tightens the bounds of one fractional integer variable
//! (`x ≤ ⌊v⌋` / `x ≥ ⌈v⌉`) and re-optimizes the parent's LP basis with a
//! few *dual simplex* pivots — phase 1 runs (at most) once at the root,
//! never per node. The search is a best-bound/dive hybrid: workers pop the
//! node with the best relaxation bound from a shared heap, then dive
//! depth-first (child nearer the LP value first) re-using the factorized
//! basis in place, pushing the sibling for later. Nodes carry
//! parent-pointer *bound deltas* instead of full bound vectors, plus an
//! [`Arc`]-shared basis snapshot.
//!
//! Pruning is threefold: the relaxation bound against the shared incumbent
//! (an atomic, so workers see improvements immediately), *reduced-cost
//! fixing* of nonbasic 0/1 variables whose reduced cost exceeds the
//! bound-to-incumbent gap (the fix rides along on both children's deltas),
//! and a caller-supplied warm incumbent (e.g. the list-based temporal
//! partitioner's solution) that tightens all of it from the first node.
//!
//! With `jobs > 1` the tree is explored by that many workers sharing the
//! heap and incumbent; the search stays exhaustive, so the *proven optimal
//! objective is identical for every job count* (node counts and the
//! witness assignment may differ between runs — only the serial default is
//! deterministic node-for-node).
//!
//! The search also stops *cooperatively*: a [`SolveOptions::deadline`] or a
//! flipped [`CancelToken`] is observed between node relaxations, and a
//! stopped solve returns its best incumbent with [`Status::Cancelled`] plus
//! the tightest still-open relaxation bound ([`Solution::bound`]) instead
//! of dying — the contract portfolio racing and budgeted exploration build
//! on.

use crate::model::{Model, ModelError, VarKind};
use crate::simplex::{LpError, RelaxOutcome, VStat, Workspace};
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A shareable cooperative-cancellation flag, checked by the
/// branch-and-bound workers between node relaxations.
///
/// Tokens form parent chains: [`CancelToken::child`] yields a token that
/// reports cancelled as soon as *either* itself or any ancestor is
/// cancelled, so a caller can revoke a whole family of racing solves with
/// one [`CancelToken::cancel`] while each racer keeps a private flag for
/// first-winner cancellation.
#[derive(Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Default)]
struct TokenInner {
    flag: AtomicBool,
    parent: Option<CancelToken>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that is cancelled whenever `self` (or any of `self`'s
    /// ancestors) is — plus whenever the child itself is cancelled.
    pub fn child(&self) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                flag: AtomicBool::new(false),
                parent: Some(self.clone()),
            }),
        }
    }

    /// Requests cancellation of this token (and every child derived from
    /// it). Irrevocable.
    pub fn cancel(&self) {
        // relaxed-ok: the flag is monotonic (false→true, never back) and
        // carries no payload — no other memory is published with it, so
        // observers need only *eventually* see the store, which every
        // ordering guarantees. Checked exhaustively by the interleaving
        // models in crates/ilp/tests/interleavings.rs.
        self.inner.flag.store(true, Ordering::Relaxed);
    }

    /// Whether this token or any ancestor has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        let mut cur = Some(self);
        while let Some(token) = cur {
            // relaxed-ok: polling a monotonic flag; a stale `false` only
            // delays a cooperative stop by one more poll, never loses it.
            if token.inner.flag.load(Ordering::Relaxed) {
                return true;
            }
            cur = token.inner.parent.as_ref();
        }
        false
    }
}

impl fmt::Debug for CancelToken {
    /// Renders the token's *identity* (the shared allocation address), not
    /// just its state: options carrying distinct live tokens must never
    /// alias in `Debug`-rendered cache keys, because their solves can stop
    /// at different points.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CancelToken@{:p}", Arc::as_ptr(&self.inner))?;
        if self.is_cancelled() {
            write!(f, "(cancelled)")?;
        }
        Ok(())
    }
}

/// Options controlling the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Maximum number of explored nodes (LP re-optimizations) before
    /// giving up.
    pub max_nodes: usize,
    /// Simplex pivot budget per node relaxation.
    pub max_simplex_iters: usize,
    /// Integrality tolerance.
    pub tolerance: f64,
    /// Known-feasible assignment used as the initial incumbent (checked
    /// against the model; an invalid warm start is an error).
    pub warm_incumbent: Option<Vec<f64>>,
    /// Worker threads exploring subtrees (`<= 1` = serial). The proven
    /// optimal objective is the same for every value; node/pivot counts
    /// are only deterministic for the serial default.
    pub jobs: u32,
    /// Wall-clock deadline. When it passes mid-search the solve stops
    /// cooperatively (checked between node relaxations) and returns its
    /// best incumbent with [`Status::Cancelled`] plus the tightest
    /// still-open relaxation bound — or [`SolveError::Cancelled`] when no
    /// incumbent exists yet.
    pub deadline: Option<Instant>,
    /// External cancellation flag, same cooperative semantics as
    /// [`Self::deadline`]. Lets a portfolio of racing solves stop the
    /// losers the moment a winner is proven.
    pub cancel: Option<CancelToken>,
    /// A **proven** bound on the optimum in the model's orientation (a
    /// lower bound for minimization, an upper bound for maximization) —
    /// e.g. the delay-sum bound the temporal partitioner certifies before
    /// the solve. Two effects: the search stops with
    /// [`Status::Optimal`] the moment an incumbent's objective meets the
    /// bound (no exhaustion needed — with a warm incumbent already at the
    /// bound the tree is never opened and `nodes == 0`), and
    /// [`Solution::bound`] is clamped to never report looser than it, so
    /// cancelled solves inherit the static bound even when their own
    /// frontier proved nothing. Soundness is the *caller's* contract: an
    /// unproven value here can make the solver claim optimality for a
    /// suboptimal incumbent. `None` (the default) changes nothing.
    pub root_bound: Option<f64>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_nodes: 1_000_000,
            max_simplex_iters: 200_000,
            tolerance: 1e-6,
            warm_incumbent: None,
            jobs: 1,
            deadline: None,
            cancel: None,
            root_bound: None,
        }
    }
}

impl SolveOptions {
    /// Installs `bound` as the root bound unless an at-least-as-tight one
    /// is already set, so independently derived bounds (a caller's own,
    /// the temporal partitioner's delay-sum bound) *compose*: the
    /// branch-and-bound always sees the tightest proven one.
    ///
    /// `bound` must be a proven *lower* bound on a minimization
    /// objective (tighter = larger, which is what the keep-the-max rule
    /// implements); maximization models manage [`Self::root_bound`]
    /// directly. Soundness remains the caller's contract, exactly as
    /// documented on [`Self::root_bound`].
    pub fn tighten_root_bound(&mut self, bound: f64) {
        match self.root_bound {
            Some(existing) if existing >= bound => {}
            _ => self.root_bound = Some(bound),
        }
    }
}

/// Final status of a successful solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The returned solution is proven optimal.
    Optimal,
    /// A feasible solution was found but the node limit stopped the proof of
    /// optimality.
    Feasible,
    /// A feasible solution was found but the search was cancelled (deadline
    /// or [`CancelToken`]) before the proof of optimality; the returned
    /// [`Solution::bound`] tells how far the incumbent could still be from
    /// the optimum.
    Cancelled,
}

/// A feasible (and usually optimal) MILP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Assignment per variable; integer variables hold exact integral values.
    pub x: Vec<f64>,
    /// Objective value in the model's orientation.
    pub objective: f64,
    /// Best proven bound on the optimum, in the model's orientation (a
    /// lower bound for minimization, an upper bound for maximization).
    /// Equals [`Self::objective`] (up to the anti-degeneracy perturbation,
    /// ~1e-7 per variable) when optimality was proven; for a stopped search
    /// it is the tightest relaxation bound still open when the search
    /// aborted, so `|objective - bound|` bounds the remaining gap.
    pub bound: f64,
    /// Nodes explored by the search (LP relaxations solved).
    pub nodes: usize,
    /// Simplex iterations across every relaxation (pivots + bound flips).
    pub pivots: usize,
    /// Cold (phase-1 capable) solves performed; warm starts keep this at 1
    /// for the root unless a basis had to be rebuilt from scratch.
    pub cold_solves: usize,
    /// Wall-clock time of the search.
    pub wall: Duration,
    /// Whether optimality was proven.
    pub status: Status,
}

impl Solution {
    /// Simplex throughput of the search: pivots (plus bound flips) per
    /// wall-clock second — the headline number the fissioned kernel layer
    /// is benchmarked on (see `BENCH_ilp.json`). Zero for an instantaneous
    /// solve rather than a division by zero.
    pub fn pivots_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.pivots as f64 / secs
        } else {
            0.0
        }
    }
}

/// Failure modes of [`solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The model itself is malformed.
    Model(ModelError),
    /// No feasible integer assignment exists.
    Infeasible,
    /// The relaxation (and hence the MILP) is unbounded.
    Unbounded,
    /// The node limit was reached before any feasible solution was found.
    NodeLimit(usize),
    /// A node relaxation exhausted its simplex pivot budget.
    SimplexLimit(usize),
    /// A node relaxation failed numerically (see [`crate::simplex::LpError`]).
    Numerical(String),
    /// A supplied warm incumbent violates the model.
    BadWarmStart(Vec<String>),
    /// The search was cancelled (deadline or [`CancelToken`]) before any
    /// feasible solution was found.
    Cancelled,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Model(e) => write!(f, "invalid model: {e}"),
            SolveError::Infeasible => write!(f, "model is infeasible"),
            SolveError::Unbounded => write!(f, "model is unbounded"),
            SolveError::NodeLimit(n) => write!(f, "node limit {n} reached without a solution"),
            SolveError::SimplexLimit(n) => write!(f, "simplex iteration limit {n} exceeded"),
            SolveError::Numerical(c) => write!(f, "numerical failure on constraint `{c}`"),
            SolveError::BadWarmStart(v) => {
                write!(f, "warm incumbent violates: {}", v.join(", "))
            }
            SolveError::Cancelled => {
                write!(f, "search cancelled before any feasible solution")
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl From<ModelError> for SolveError {
    fn from(e: ModelError) -> Self {
        SolveError::Model(e)
    }
}

/// One link of a node's parent-pointer bound-delta chain. `changes` holds
/// absolute replacement bounds; a child's full bound vector is the root
/// bounds with every chain link applied root-first.
struct Delta {
    parent: Option<Arc<Delta>>,
    changes: Vec<(u32, f64, f64)>,
}

/// A node awaiting processing: where it is in the tree (delta chain), the
/// basis to warm-start from, and the parent relaxation bound it inherited.
struct Node {
    chain: Option<Arc<Delta>>,
    /// Basis snapshot of the parent's optimal solve; `None` = cold root.
    basis: Option<Arc<[u8]>>,
    /// Parent LP objective in the minimization key (pruning bound).
    bound: f64,
}

/// Heap entry: best (lowest) bound first, FIFO among ties.
struct HeapNode {
    node: Node,
    seq: u64,
}

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.node.bound == other.node.bound && self.seq == other.seq
    }
}
impl Eq for HeapNode {}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: invert so the smallest bound pops first.
        other
            .node
            .bound
            .total_cmp(&self.node.bound)
            .then(other.seq.cmp(&self.seq))
    }
}

struct Queue {
    heap: BinaryHeap<HeapNode>,
    active: usize,
    aborted: bool,
    seq: u64,
    /// Relaxation bounds of popped-but-unfinished nodes. A worker's dive
    /// only tightens its node's bound, so the pop-time value is a valid
    /// (conservative) member of the frontier minimum computed at abort.
    in_flight: Vec<f64>,
}

struct Shared<'a> {
    model: &'a Model,
    opts: &'a SolveOptions,
    int_vars: Vec<usize>,
    root_bounds: Vec<(f64, f64)>,
    queue: Mutex<Queue>,
    cv: Condvar,
    /// Best known integer solution: `(minimization key, x)`.
    incumbent: Mutex<Option<(f64, Vec<f64>)>>,
    /// Read-mostly mirror of the incumbent key for cheap pruning.
    incumbent_key: AtomicF64,
    /// [`SolveOptions::root_bound`] translated into the internal
    /// minimization key orientation; incumbents at or below it end the
    /// search as proven optimal.
    root_key: Option<f64>,
    nodes: AtomicUsize,
    node_limit_hit: AtomicBool,
    cancel_hit: AtomicBool,
    /// Set when the search stopped because an incumbent met the root
    /// bound — an *optimality* stop, unlike the two flags above.
    root_bound_hit: AtomicBool,
    /// Tightest still-open relaxation bound (minimization key) captured
    /// when the search aborted; `None` for searches that ran to completion.
    stop_bound: Mutex<Option<f64>>,
    error: Mutex<Option<SolveError>>,
}

/// An `f64` behind an `AtomicU64` (bit transmutation, CAS on improve).
struct AtomicF64(std::sync::atomic::AtomicU64);

impl AtomicF64 {
    fn new(v: f64) -> Self {
        AtomicF64(std::sync::atomic::AtomicU64::new(v.to_bits()))
    }
    fn get(&self) -> f64 {
        // relaxed-ok: advisory pruning bound. The true incumbent lives
        // under `Shared::incumbent`'s mutex; this mirror is only ever set
        // *while holding that lock* (offer_incumbent), so it can lag worse
        // than the truth but never advertise better — a stale read merely
        // prunes less. Checked exhaustively by the interleaving models in
        // crates/ilp/tests/interleavings.rs.
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
    fn set(&self, v: f64) {
        // relaxed-ok: see `get` — writes are serialized by the incumbent
        // mutex, and readers tolerate staleness by construction.
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }
}

impl<'a> Shared<'a> {
    fn incumbent_key(&self) -> f64 {
        self.incumbent_key.get()
    }

    /// Installs a better incumbent; returns whether it improved.
    fn offer_incumbent(&self, key: f64, x: Vec<f64>) -> bool {
        let mut guard = self.incumbent.lock().expect("incumbent lock");
        let improves = guard
            .as_ref()
            .is_none_or(|(cur, _)| key < cur - self.opts.tolerance);
        if improves {
            *guard = Some((key, x));
            self.incumbent_key.set(key);
        }
        improves
    }

    fn record_error(&self, e: SolveError) {
        let mut guard = self.error.lock().expect("error lock");
        guard.get_or_insert(e);
        let mut q = self.queue.lock().expect("queue lock");
        q.aborted = true;
        q.heap.clear();
        self.cv.notify_all();
    }

    /// Whether the caller asked the search to stop (cancel token flipped or
    /// the wall-clock deadline passed). Checked between node relaxations —
    /// the cooperative-cancellation granularity is one LP re-optimization.
    fn stop_requested(&self) -> bool {
        if self
            .opts
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
        {
            return true;
        }
        self.opts.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Aborts the search, recording the tightest still-open relaxation
    /// bound (heap frontier plus in-flight nodes) before draining the
    /// queue, so the caller can report the proven optimality gap. `flag`
    /// names the reason (node budget vs. cancellation).
    fn abort_search(&self, flag: &AtomicBool) {
        // relaxed-ok: the swap only elects *one* caller to record the stop
        // bound (atomicity does that alone); the state it publishes —
        // frontier bound, aborted flag, drained heap — travels under the
        // queue mutex acquired right after, not through this flag.
        if !flag.swap(true, Ordering::Relaxed) {
            let mut q = self.queue.lock().expect("queue lock");
            if !q.aborted {
                let frontier = q
                    .heap
                    .iter()
                    .map(|hn| hn.node.bound)
                    .chain(q.in_flight.iter().copied())
                    .fold(f64::INFINITY, f64::min);
                *self.stop_bound.lock().expect("bound lock") = Some(frontier);
                q.aborted = true;
                q.heap.clear();
            }
            self.cv.notify_all();
        }
    }

    /// Claims one node budget slot; aborts the search when the caller
    /// requested a stop or the node budget is exhausted.
    fn claim_node(&self) -> bool {
        if self.stop_requested() {
            self.abort_search(&self.cancel_hit);
            return false;
        }
        // relaxed-ok: budget counter — fetch_add's atomicity alone makes
        // slot claims exact; no other memory is published through it.
        let n = self.nodes.fetch_add(1, Ordering::Relaxed);
        if n >= self.opts.max_nodes {
            // relaxed-ok: undoing this thread's own over-claim above.
            self.nodes.fetch_sub(1, Ordering::Relaxed);
            self.abort_search(&self.node_limit_hit);
            false
        } else {
            true
        }
    }

    fn push_node(&self, node: Node) {
        let mut q = self.queue.lock().expect("queue lock");
        if q.aborted {
            return;
        }
        let seq = q.seq;
        q.seq += 1;
        q.heap.push(HeapNode { node, seq });
        self.cv.notify_one();
    }

    /// Pops the best-bound node, blocking while other workers may still
    /// produce work. `None` = search over.
    fn pop_node(&self) -> Option<Node> {
        let mut q = self.queue.lock().expect("queue lock");
        loop {
            if q.aborted {
                return None;
            }
            if let Some(hn) = q.heap.pop() {
                q.active += 1;
                q.in_flight.push(hn.node.bound);
                return Some(hn.node);
            }
            if q.active == 0 {
                self.cv.notify_all();
                return None;
            }
            q = self.cv.wait(q).expect("queue wait");
        }
    }

    fn finish_node(&self, bound: f64) {
        let mut q = self.queue.lock().expect("queue lock");
        q.active -= 1;
        if let Some(pos) = q.in_flight.iter().position(|&b| b == bound) {
            q.in_flight.swap_remove(pos);
        }
        if q.active == 0 && q.heap.is_empty() {
            self.cv.notify_all();
        }
    }

    /// Materializes a node's bound vector into `scratch`: root bounds +
    /// delta chain applied root-first (later links overwrite, i.e.
    /// tighten). The two buffers belong to the worker so the per-node
    /// materialization reuses their capacity instead of allocating.
    fn bounds_into(&self, chain: &Option<Arc<Delta>>, scratch: &mut NodeScratch) {
        scratch.bounds.clear();
        scratch.bounds.extend_from_slice(&self.root_bounds);
        scratch.links.clear();
        let mut cur = chain.as_ref();
        while let Some(d) = cur {
            scratch.links.push(Arc::clone(d));
            cur = d.parent.as_ref();
        }
        for d in scratch.links.drain(..).rev() {
            for &(v, lo, hi) in &d.changes {
                scratch.bounds[v as usize] = (lo, hi);
            }
        }
    }
}

/// Solves the mixed 0/1-integer program to proven optimality (or until the
/// node limit, in which case the best incumbent is returned with
/// [`Status::Feasible`]).
///
/// Optimality is proven against an internally perturbed objective (the
/// anti-degeneracy device of [`crate::simplex`]); the returned solution is
/// therefore optimal for the original objective to within
/// `tolerance + 2e-7·n` in the worst case — exactly optimal whenever
/// distinct feasible objective values are farther apart than that, which
/// holds for any integral-data model (and for the nanosecond-granular
/// partitioning models by a factor of ~10⁷). The reported `objective` is
/// always evaluated on the original expression.
///
/// # Errors
///
/// See [`SolveError`]; in particular [`SolveError::Infeasible`] when no
/// integral assignment satisfies the constraints.
pub fn solve(model: &Model, opts: &SolveOptions) -> Result<Solution, SolveError> {
    let t0 = Instant::now();
    model.validate()?;
    let n = model.var_count();
    let int_vars: Vec<usize> = (0..n)
        .filter(|&i| {
            matches!(
                model.var_kind(crate::model::Var(i as u32)),
                VarKind::Binary | VarKind::Integer
            )
        })
        .collect();
    let root_bounds: Vec<(f64, f64)> = (0..n)
        .map(|i| model.var_bounds(crate::model::Var(i as u32)))
        .collect();

    // The caller's proven bound, in the internal minimization key space.
    let root_key = opts
        .root_bound
        .map(|rb| if model.objective().is_max() { -rb } else { rb });

    let mut warm_best: Option<(f64, Vec<f64>)> = None;
    if let Some(warm) = &opts.warm_incumbent {
        let viol = model.violations(warm, opts.tolerance.max(1e-6));
        if !viol.is_empty() {
            return Err(SolveError::BadWarmStart(viol));
        }
        let mut x = warm.clone();
        round_ints(&mut x, &int_vars);
        // Keyed in the perturbed space like every other incumbent (the
        // perturbation is a pure function of the model, so every worker's
        // workspace agrees on it).
        let k = Workspace::new(model).perturbed_objective_of(&x);
        warm_best = Some((k, x));
    }

    let shared = Shared {
        model,
        opts,
        int_vars,
        root_bounds,
        queue: Mutex::new(Queue {
            heap: BinaryHeap::new(),
            active: 0,
            aborted: false,
            seq: 0,
            in_flight: Vec::new(),
        }),
        cv: Condvar::new(),
        incumbent_key: AtomicF64::new(warm_best.as_ref().map_or(f64::INFINITY, |(k, _)| *k)),
        incumbent: Mutex::new(warm_best),
        root_key,
        nodes: AtomicUsize::new(0),
        node_limit_hit: AtomicBool::new(false),
        cancel_hit: AtomicBool::new(false),
        root_bound_hit: AtomicBool::new(false),
        stop_bound: Mutex::new(None),
        error: Mutex::new(None),
    };
    // A warm incumbent that already meets the proven root bound makes the
    // whole tree redundant: never open the root, prove optimality at zero
    // nodes. Judged on the *original* objective — the root bound is a
    // statement about the model, not about the perturbed key space.
    let warm_meets_root = match (
        root_key,
        shared.incumbent.lock().expect("incumbent lock").as_ref(),
    ) {
        (Some(rk), Some((_, x))) => {
            let o = model.objective().expr().eval(x);
            let omin = if model.objective().is_max() { -o } else { o };
            omin <= rk + opts.tolerance
        }
        _ => false,
    };
    if !warm_meets_root {
        shared.push_node(Node {
            chain: None,
            basis: None,
            bound: f64::NEG_INFINITY,
        });
    }

    let jobs = opts.jobs.max(1);
    let stats = if jobs <= 1 {
        worker(&shared)
    } else {
        let collected: Mutex<WorkerStats> = Mutex::new(WorkerStats::default());
        let mut pool = scoped_threadpool::Pool::new(jobs);
        pool.scoped(|scope| {
            for _ in 0..jobs {
                scope.execute(|| {
                    let local = worker(&shared);
                    let mut total = collected.lock().expect("stats lock");
                    total.pivots += local.pivots;
                    total.cold_solves += local.cold_solves;
                });
            }
        });
        collected.into_inner().expect("stats lock")
    };

    if let Some(e) = shared.error.lock().expect("error lock").take() {
        return Err(e);
    }
    // relaxed-ok: read after every worker has been joined by the scoped
    // pool above — the join is a synchronization point, so this and the two
    // loads below see the final values regardless of the load ordering.
    let nodes = shared.nodes.load(Ordering::Relaxed);
    let hit_limit = shared.node_limit_hit.load(Ordering::Relaxed); // relaxed-ok: post-join
    let hit_cancel = shared.cancel_hit.load(Ordering::Relaxed); // relaxed-ok: post-join
    let stop_bound = shared.stop_bound.lock().expect("bound lock").take();
    let best = shared.incumbent.lock().expect("incumbent lock").take();
    match best {
        Some((key, x)) => {
            // The proven bound is the tightest still-open frontier bound at
            // abort time, clipped by the incumbent itself (an exhausted
            // search proves the incumbent optimal) and never looser than
            // the caller's proven root bound. Keys live in the internal
            // minimization orientation; flip for max models.
            let mut key_bound = stop_bound.unwrap_or(f64::INFINITY).min(key);
            if let Some(rk) = root_key {
                key_bound = key_bound.max(rk);
            }
            Ok(Solution {
                objective: model.objective().expr().eval(&x),
                bound: if model.objective().is_max() {
                    -key_bound
                } else {
                    key_bound
                },
                x,
                nodes,
                pivots: stats.pivots,
                cold_solves: stats.cold_solves,
                wall: t0.elapsed(),
                status: if hit_cancel {
                    Status::Cancelled
                } else if hit_limit {
                    Status::Feasible
                } else {
                    Status::Optimal
                },
            })
        }
        None => {
            if hit_cancel {
                Err(SolveError::Cancelled)
            } else if hit_limit {
                Err(SolveError::NodeLimit(opts.max_nodes))
            } else {
                Err(SolveError::Infeasible)
            }
        }
    }
}

#[derive(Default)]
struct WorkerStats {
    pivots: usize,
    cold_solves: usize,
}

/// One worker: pop best-bound nodes, dive each subtree in place.
fn worker(shared: &Shared<'_>) -> WorkerStats {
    let mut ws = Workspace::new(shared.model);
    let mut scratch = NodeScratch::default();
    while let Some(node) = shared.pop_node() {
        let bound = node.bound;
        process_subtree(shared, &mut ws, &mut scratch, node);
        shared.finish_node(bound);
    }
    WorkerStats {
        pivots: ws.iterations(),
        cold_solves: ws.cold_starts(),
    }
}

/// Per-worker reusable staging for node materialization: the bound vector,
/// the chain-walk stack, and the basis-snapshot bytes. Cleared per node,
/// never reallocated once warm.
#[derive(Default)]
struct NodeScratch {
    bounds: Vec<(f64, f64)>,
    links: Vec<Arc<Delta>>,
    snap: Vec<u8>,
}

/// Solves `node` and dives: branch, re-optimize the nearer child in place,
/// push the sibling. Errors are recorded in the shared state.
fn process_subtree(shared: &Shared<'_>, ws: &mut Workspace, scratch: &mut NodeScratch, node: Node) {
    let tol = shared.opts.tolerance;
    // Bound-prune at pop time: the incumbent may have improved since push.
    if node.bound >= shared.incumbent_key() - tol {
        return;
    }
    if !shared.claim_node() {
        return;
    }
    shared.bounds_into(&node.chain, scratch);
    ws.set_bounds_full(&scratch.bounds);
    let mut outcome = match &node.basis {
        Some(snap) => ws.warm_solve(snap, shared.opts.max_simplex_iters),
        None => ws.solve_root(shared.opts.max_simplex_iters),
    };
    let mut chain = node.chain;

    loop {
        let relax = match outcome {
            Ok(r) => r,
            Err(LpError::IterationLimit(_)) => {
                shared.record_error(SolveError::SimplexLimit(shared.opts.max_simplex_iters));
                return;
            }
            Err(LpError::Numerical { constraint }) => {
                shared.record_error(SolveError::Numerical(constraint));
                return;
            }
        };
        match relax {
            RelaxOutcome::Infeasible => return,
            RelaxOutcome::Unbounded => {
                shared.record_error(SolveError::Unbounded);
                return;
            }
            RelaxOutcome::Optimal => {}
        }
        let obj = ws.objective_internal();
        let inc = shared.incumbent_key();
        if obj >= inc - tol {
            return; // pruned by bound
        }
        let x = ws.extract_x();

        // Most fractional integer variable.
        let mut branch_var: Option<(usize, f64)> = None;
        let mut best_frac = tol;
        for &i in &shared.int_vars {
            let v = x[i];
            let frac = (v - v.round()).abs();
            if frac > best_frac {
                best_frac = frac;
                branch_var = Some((i, v));
            }
        }
        let Some((bv, v)) = branch_var else {
            // Integer feasible: verify against the original rows (the warm
            // path skips the per-solve check) and offer as incumbent.
            let mut xi = x;
            round_ints(&mut xi, &shared.int_vars);
            for c in shared.model.constraints() {
                // Rounding each near-integral variable moves the row by up
                // to Σ|coef|·tol on top of the LP feasibility slack; only a
                // violation beyond both is numerical corruption.
                let (mut maxc, mut sumc) = (1.0f64, 0.0f64);
                for &(_, coef) in &c.expr.terms {
                    maxc = maxc.max(coef.abs());
                    sumc += coef.abs();
                }
                if !c.satisfied_by(&xi, 1e-5 * maxc + tol * sumc) {
                    shared.record_error(SolveError::Numerical(c.name.clone()));
                    return;
                }
            }
            // The incumbent key lives in the same perturbed minimization
            // space as the relaxation bounds, so the search solves the
            // perturbed MILP *exactly* (tie nodes prune; any job count
            // proves the same perturbed optimum). Reported objectives are
            // re-evaluated on the original expression at the end.
            let k = ws.perturbed_objective_of(&xi);
            let o = shared.model.objective().expr().eval(&xi);
            if shared.offer_incumbent(k, xi) {
                // An incumbent meeting the caller's proven root bound is
                // optimal — no open node can beat a proven bound. Stop the
                // search without raising the limit/cancel flags so the
                // result reports `Status::Optimal`.
                if let Some(rk) = shared.root_key {
                    let omin = if shared.model.objective().is_max() {
                        -o
                    } else {
                        o
                    };
                    if omin <= rk + tol {
                        shared.abort_search(&shared.root_bound_hit);
                    }
                }
            }
            return;
        };

        // Reduced-cost fixing: nonbasic 0/1 variables whose reduced cost
        // exceeds the gap can never flip in this subtree.
        let mut fixes: Vec<(u32, f64, f64)> = Vec::new();
        if inc.is_finite() {
            let gap = inc - tol - obj;
            for &i in &shared.int_vars {
                if i == bv {
                    continue;
                }
                let (lo, hi) = ws.bound_of(i);
                if hi - lo != 1.0 {
                    continue; // only 0/1-range variables
                }
                match ws.status_of(i) {
                    VStat::AtLower if ws.reduced_cost(i) > gap => {
                        fixes.push((i as u32, lo, lo));
                    }
                    VStat::AtUpper if -ws.reduced_cost(i) > gap => {
                        fixes.push((i as u32, hi, hi));
                    }
                    _ => {}
                }
            }
        }

        let (lo_bv, hi_bv) = ws.bound_of(bv);
        let floor = v.floor();
        let ceil = v.ceil();
        let down = (bv as u32, lo_bv, hi_bv.min(floor));
        let up = (bv as u32, lo_bv.max(ceil), hi_bv);
        // Dive toward the nearer child; push the other.
        let (dive, push) = if v - floor <= ceil - v {
            (down, up)
        } else {
            (up, down)
        };
        ws.snapshot_into(&mut scratch.snap);
        let snapshot: Arc<[u8]> = Arc::from(&scratch.snap[..]);
        let mut push_changes = fixes.clone();
        push_changes.push(push);
        shared.push_node(Node {
            chain: Some(Arc::new(Delta {
                parent: chain.clone(),
                changes: push_changes,
            })),
            basis: Some(snapshot),
            bound: obj,
        });

        let mut dive_changes = fixes;
        dive_changes.push(dive);
        for &(var, lo, hi) in &dive_changes {
            ws.set_bound(var as usize, lo, hi);
        }
        chain = Some(Arc::new(Delta {
            parent: chain,
            changes: dive_changes,
        }));
        if !shared.claim_node() {
            return;
        }
        outcome = ws.reoptimize(shared.opts.max_simplex_iters);
    }
}

fn round_ints(x: &mut [f64], int_vars: &[usize]) {
    for &i in int_vars {
        x[i] = x[i].round();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense, Var};

    fn solve_default(m: &Model) -> Solution {
        solve(m, &SolveOptions::default()).unwrap()
    }

    #[test]
    fn pure_lp_passes_through() {
        let mut m = Model::new("lp");
        let x = m.add_continuous("x", 0.0, 3.0);
        m.set_objective_max([(x, 2.0)]);
        let s = solve_default(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 6.0).abs() < 1e-6);
        assert_eq!(s.cold_solves, 1, "exactly the root solves cold");
    }

    #[test]
    fn knapsack_classic() {
        // Items (weight, profit): LP relaxation is fractional, MILP = 220.
        let mut m = Model::new("knap");
        let items = [(10.0, 60.0), (20.0, 100.0), (30.0, 120.0)];
        let vars: Vec<Var> = (0..3).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_constraint(
            "cap",
            vars.iter().zip(&items).map(|(&v, &(w, _))| (v, w)),
            Sense::Le,
            50.0,
        );
        m.set_objective_max(vars.iter().zip(&items).map(|(&v, &(_, p))| (v, p)));
        let s = solve_default(&m);
        assert!((s.objective - 220.0).abs() < 1e-6);
        assert_eq!(s.x[0], 0.0);
        assert_eq!(s.x[1], 1.0);
        assert_eq!(s.x[2], 1.0);
        assert!(s.pivots > 0);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y, 2x + 2y <= 5, integer → LP gives 2.5, MILP gives 2.
        let mut m = Model::new("int");
        let x = m.add_integer("x", 0.0, 10.0);
        let y = m.add_integer("y", 0.0, 10.0);
        m.add_constraint("c", [(x, 2.0), (y, 2.0)], Sense::Le, 5.0);
        m.set_objective_max([(x, 1.0), (y, 1.0)]);
        let s = solve_default(&m);
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_binary_system() {
        let mut m = Model::new("inf");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint("a", [(x, 1.0), (y, 1.0)], Sense::Ge, 2.0);
        m.add_constraint("b", [(x, 1.0)], Sense::Le, 0.0);
        m.add_constraint("c", [(y, 1.0)], Sense::Le, 0.0);
        assert_eq!(
            solve(&m, &SolveOptions::default()).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn infeasible_by_integrality_gap() {
        // 2x = 1 has the LP solution x = 0.5 but no integer solution.
        let mut m = Model::new("gap");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("odd", [(x, 2.0)], Sense::Eq, 1.0);
        assert_eq!(
            solve(&m, &SolveOptions::default()).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn unbounded_reported() {
        let mut m = Model::new("unb");
        let x = m.add_integer("x", 0.0, f64::INFINITY);
        m.set_objective_max([(x, 1.0)]);
        assert_eq!(
            solve(&m, &SolveOptions::default()).unwrap_err(),
            SolveError::Unbounded
        );
    }

    #[test]
    fn warm_start_accepted_and_beaten() {
        let mut m = Model::new("warm");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Le, 1.0);
        m.set_objective_max([(x, 3.0), (y, 2.0)]);
        // Warm incumbent: pick y (objective 2); optimum is x (3).
        let mut warm = vec![0.0; 2];
        warm[y.index()] = 1.0;
        let s = solve(
            &m,
            &SolveOptions {
                warm_incumbent: Some(warm),
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert!((s.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn bad_warm_start_rejected() {
        let mut m = Model::new("bad-warm");
        let x = m.add_binary("x");
        m.add_constraint("c", [(x, 1.0)], Sense::Le, 0.0);
        let err = solve(
            &m,
            &SolveOptions {
                warm_incumbent: Some(vec![1.0]),
                ..SolveOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SolveError::BadWarmStart(_)));
    }

    #[test]
    fn node_limit_with_incumbent_returns_feasible() {
        // A model where the root LP is fractional; with node limit 1 the
        // warm incumbent must be returned as Feasible.
        let mut m = Model::new("lim");
        let vars: Vec<Var> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_constraint("c", vars.iter().map(|&v| (v, 2.0)), Sense::Le, 5.0);
        m.set_objective_max(vars.iter().map(|&v| (v, 1.0)));
        let warm = vec![0.0; 6];
        let s = solve(
            &m,
            &SolveOptions {
                max_nodes: 1,
                warm_incumbent: Some(warm),
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert_eq!(s.status, Status::Feasible);
    }

    #[test]
    fn equality_selection_problem() {
        // Choose exactly 2 of 4 items minimizing cost.
        let mut m = Model::new("pick2");
        let costs = [5.0, 1.0, 4.0, 2.0];
        let vars: Vec<Var> = (0..4).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_constraint("count", vars.iter().map(|&v| (v, 1.0)), Sense::Eq, 2.0);
        m.set_objective_min(vars.iter().zip(costs).map(|(&v, c)| (v, c)));
        let s = solve_default(&m);
        assert!((s.objective - 3.0).abs() < 1e-6);
        assert_eq!(s.x[1], 1.0);
        assert_eq!(s.x[3], 1.0);
    }

    #[test]
    fn product_linearization_in_optimization() {
        // max x + y − 2·(x AND y): optimum picks exactly one of x, y → 1.
        let mut m = Model::new("and");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        let z = m.add_binary_product("z", x, y);
        m.set_objective_max([(x, 1.0), (y, 1.0), (z, -2.0)]);
        let s = solve_default(&m);
        assert!((s.objective - 1.0).abs() < 1e-6);
        assert_eq!(s.x[z.index()], s.x[x.index()] * s.x[y.index()]);
    }

    #[test]
    fn mixed_integer_continuous() {
        // min y s.t. y >= 1.5 x, x binary, x >= 1 → x = 1, y = 1.5.
        let mut m = Model::new("mix");
        let x = m.add_binary("x");
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constraint("link", [(y, 1.0), (x, -1.5)], Sense::Ge, 0.0);
        m.add_constraint("on", [(x, 1.0)], Sense::Ge, 1.0);
        m.set_objective_min([(y, 1.0)]);
        let s = solve_default(&m);
        assert!((s.objective - 1.5).abs() < 1e-6);
        assert_eq!(s.x[x.index()], 1.0);
    }

    /// A 12-item knapsack with correlated profits — enough tree for the
    /// parallel path to actually share work.
    fn chunky_knapsack() -> Model {
        let mut m = Model::new("par");
        let vars: Vec<Var> = (0..12).map(|i| m.add_binary(format!("x{i}"))).collect();
        let w = [
            13.0, 7.0, 11.0, 5.0, 17.0, 3.0, 9.0, 15.0, 4.0, 8.0, 6.0, 12.0,
        ];
        let p = [
            19.0, 10.0, 16.0, 8.0, 25.0, 5.0, 13.0, 22.0, 7.0, 12.0, 9.0, 17.0,
        ];
        m.add_constraint(
            "cap",
            vars.iter().zip(w).map(|(&v, wi)| (v, wi)),
            Sense::Le,
            40.0,
        );
        m.set_objective_max(vars.iter().zip(p).map(|(&v, pi)| (v, pi)));
        m
    }

    #[test]
    fn parallel_jobs_prove_the_same_objective() {
        let m = chunky_knapsack();
        let serial = solve_default(&m);
        assert_eq!(serial.status, Status::Optimal);
        for jobs in [2, 4] {
            let par = solve(
                &m,
                &SolveOptions {
                    jobs,
                    ..SolveOptions::default()
                },
            )
            .unwrap();
            assert_eq!(par.status, Status::Optimal, "jobs = {jobs}");
            assert!(
                (par.objective - serial.objective).abs() < 1e-6,
                "jobs = {jobs}: {} vs {}",
                par.objective,
                serial.objective
            );
            assert!(m.violations(&par.x, 1e-6).is_empty());
        }
    }

    #[test]
    fn serial_node_count_is_deterministic() {
        let m = chunky_knapsack();
        let a = solve_default(&m);
        let b = solve_default(&m);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.pivots, b.pivots);
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn cancelled_solve_returns_the_warm_incumbent_and_a_bound() {
        let m = chunky_knapsack();
        let cancel = CancelToken::new();
        cancel.cancel();
        // All-zero is feasible for the knapsack: the pre-cancelled search
        // must hand it back untouched instead of erroring out.
        let s = solve(
            &m,
            &SolveOptions {
                warm_incumbent: Some(vec![0.0; 12]),
                cancel: Some(cancel),
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert_eq!(s.status, Status::Cancelled);
        assert_eq!(s.objective, 0.0);
        // Max model: the bound is an upper bound on the optimum, and the
        // root was never explored, so it is trivially +inf.
        assert!(s.bound >= s.objective);
        assert_eq!(s.nodes, 0);
    }

    #[test]
    fn cancelled_solve_without_incumbent_errors() {
        let m = chunky_knapsack();
        let s = solve(
            &m,
            &SolveOptions {
                deadline: Some(Instant::now() - Duration::from_millis(1)),
                ..SolveOptions::default()
            },
        );
        assert_eq!(s.unwrap_err(), SolveError::Cancelled);
    }

    #[test]
    fn uncancelled_token_does_not_perturb_the_search() {
        let m = chunky_knapsack();
        let baseline = solve_default(&m);
        let s = solve(
            &m,
            &SolveOptions {
                cancel: Some(CancelToken::new()),
                deadline: Some(Instant::now() + Duration::from_secs(3600)),
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.objective, baseline.objective);
        assert_eq!(s.nodes, baseline.nodes);
        assert!((s.bound - s.objective).abs() < 1e-5, "optimal proves bound");
    }

    #[test]
    fn root_bound_proves_optimality_early() {
        let m = chunky_knapsack();
        let baseline = solve_default(&m);
        assert_eq!(baseline.status, Status::Optimal);
        let s = solve(
            &m,
            &SolveOptions {
                root_bound: Some(baseline.objective),
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.objective, baseline.objective);
        assert!(
            s.nodes < baseline.nodes,
            "the bound must cut the proof short: {} vs {}",
            s.nodes,
            baseline.nodes
        );
        assert!((s.bound - s.objective).abs() < 1e-5);
    }

    #[test]
    fn warm_incumbent_meeting_root_bound_never_opens_the_tree() {
        let m = chunky_knapsack();
        let baseline = solve_default(&m);
        let s = solve(
            &m,
            &SolveOptions {
                warm_incumbent: Some(baseline.x.clone()),
                root_bound: Some(baseline.objective),
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.nodes, 0, "proof complete before the root node");
        assert_eq!(s.objective, baseline.objective);
        assert!((s.bound - s.objective).abs() < 1e-5);
    }

    #[test]
    fn root_bound_tightens_the_cancelled_bound() {
        // Pre-cancelled search: the frontier proves nothing (the root was
        // never explored), so without a root bound the reported bound is
        // +inf for this max model; the injected proven bound replaces it.
        let m = chunky_knapsack();
        let cancel = CancelToken::new();
        cancel.cancel();
        let s = solve(
            &m,
            &SolveOptions {
                warm_incumbent: Some(vec![0.0; 12]),
                cancel: Some(cancel),
                root_bound: Some(250.0),
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert_eq!(s.status, Status::Cancelled);
        assert_eq!(s.objective, 0.0);
        assert_eq!(s.bound, 250.0, "static bound survives the cancellation");
    }

    #[test]
    fn loose_root_bound_changes_nothing() {
        // A bound far below the optimum (for this max model) never fires:
        // node-for-node identical to the default search.
        let m = chunky_knapsack();
        let baseline = solve_default(&m);
        let s = solve(
            &m,
            &SolveOptions {
                root_bound: Some(1e6),
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.objective, baseline.objective);
        assert_eq!(s.nodes, baseline.nodes);
        assert_eq!(s.pivots, baseline.pivots);
    }

    #[test]
    fn cancel_tokens_chain_through_children() {
        let parent = CancelToken::new();
        let child = parent.child();
        let sibling = parent.child();
        assert!(!child.is_cancelled());
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "children never cancel upward");
        assert!(!sibling.is_cancelled());
        parent.cancel();
        assert!(sibling.is_cancelled(), "parents cancel every child");
    }

    #[test]
    fn stats_are_populated() {
        let m = chunky_knapsack();
        let s = solve_default(&m);
        assert!(s.nodes >= 1);
        assert!(s.pivots >= 1);
        assert_eq!(s.cold_solves, 1, "warm starts everywhere but the root");
        assert!(s.wall > Duration::ZERO);
    }
}
