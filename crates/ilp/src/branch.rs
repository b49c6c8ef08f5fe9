//! Warm-started branch-and-bound for mixed 0/1-integer programs.
//!
//! Each node tightens the bounds of one fractional integer variable
//! (`x ≤ ⌊v⌋` / `x ≥ ⌈v⌉`) and re-optimizes the parent's LP basis with a
//! few *dual simplex* pivots — phase 1 runs (at most) once at the root,
//! never per node. The search is a best-bound/dive hybrid: pop the node
//! with the best relaxation bound from a heap, then dive depth-first
//! (child nearer the LP value first) re-using the factorized basis in
//! place, pushing the sibling for later. Nodes carry parent-pointer *bound
//! deltas* instead of full bound vectors, plus a shared basis snapshot.
//!
//! Pruning is threefold: the relaxation bound against the incumbent,
//! *reduced-cost fixing* of nonbasic 0/1 variables whose reduced cost
//! exceeds the bound-to-incumbent gap (the fix rides along on both
//! children's deltas), and a caller-supplied warm incumbent (e.g. the
//! list-based temporal partitioner's solution) that tightens all of it from
//! the first node.
//!
//! The search runs on the calling thread and is deterministic node for
//! node: the same model and options explore the same nodes in the same
//! order. It reads no clock. It stops *cooperatively* through the caller's
//! `stop` signal, polled before every node relaxation and every simplex
//! pivot, so even a long root relaxation honours it; a stopped solve
//! returns its best incumbent with [`Status::Cancelled`] plus the tightest
//! still-open relaxation bound ([`Solution::bound`]) instead of dying — the
//! contract portfolio racing and budgeted exploration build on.

use crate::model::{Model, ModelError, VarKind};
use crate::simplex::{LpError, RelaxOutcome, VStat, Workspace};
use std::collections::BinaryHeap;
use std::fmt;
use std::rc::Rc;

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
    /// A feasible solution was found but the caller's stop signal ended
    /// the search before the proof of optimality; the returned
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
    /// Whether optimality was proven.
    pub status: Status,
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
    /// The caller's stop signal ended the search before any feasible
    /// solution was found.
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
    parent: Option<Rc<Delta>>,
    changes: Vec<(u32, f64, f64)>,
}

/// A node awaiting processing: where it is in the tree (delta chain), the
/// basis to warm-start from, and the parent relaxation bound it inherited.
struct Node {
    chain: Option<Rc<Delta>>,
    /// Basis snapshot of the parent's optimal solve; `None` = cold root.
    basis: Option<Rc<[u8]>>,
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

/// Why the search ended before exhausting the tree.
enum Halt {
    /// The caller's stop signal fired.
    Stopped,
    /// The node budget ran out.
    NodeLimit,
    /// An incumbent met the caller's proven root bound — an *optimality*
    /// stop, unlike the two above.
    RootBound,
    /// A relaxation failed; the solve returns this error.
    Failed(SolveError),
}

/// The search state: the open-node heap, the incumbent, and the one
/// workspace whose factorized basis every dive re-uses in place.
struct Search<'a> {
    model: &'a Model,
    opts: &'a SolveOptions,
    stop: &'a dyn Fn() -> bool,
    int_vars: Vec<usize>,
    root_bounds: Vec<(f64, f64)>,
    /// [`SolveOptions::root_bound`] translated into the internal
    /// minimization key orientation; incumbents at or below it end the
    /// search as proven optimal.
    root_key: Option<f64>,
    heap: BinaryHeap<HeapNode>,
    seq: u64,
    /// Best known integer solution: `(minimization key, x)`.
    incumbent: Option<(f64, Vec<f64>)>,
    nodes: usize,
    ws: Workspace,
    /// Reusable staging for node materialization: the bound vector, the
    /// chain-walk stack, and the basis-snapshot bytes. Cleared per node,
    /// never reallocated once warm.
    bounds: Vec<(f64, f64)>,
    links: Vec<Rc<Delta>>,
    snap: Vec<u8>,
}

impl Search<'_> {
    fn incumbent_key(&self) -> f64 {
        self.incumbent.as_ref().map_or(f64::INFINITY, |(k, _)| *k)
    }

    /// Whether `x` meets the caller's proven root bound. Judged on the
    /// *original* objective — the root bound is a statement about the
    /// model, not about the perturbed key space. Such an incumbent is
    /// optimal: no open node can beat a proven bound.
    fn meets_root_bound(&self, x: &[f64]) -> bool {
        self.root_key.is_some_and(|rk| {
            let o = self.model.objective().expr().eval(x);
            let omin = if self.model.objective().is_max() {
                -o
            } else {
                o
            };
            omin <= rk + self.opts.tolerance
        })
    }

    /// Claims one node of the budget, polling the caller's stop signal
    /// first (the simplex polls it again between pivots).
    fn claim_node(&mut self) -> Result<(), Halt> {
        if (self.stop)() {
            return Err(Halt::Stopped);
        }
        if self.nodes >= self.opts.max_nodes {
            return Err(Halt::NodeLimit);
        }
        self.nodes += 1;
        Ok(())
    }

    fn push(&mut self, node: Node) {
        self.heap.push(HeapNode {
            node,
            seq: self.seq,
        });
        self.seq += 1;
    }

    /// Loads a node's bound vector into the workspace: root bounds + delta
    /// chain applied root-first (later links overwrite, i.e. tighten).
    fn load_bounds(&mut self, chain: &Option<Rc<Delta>>) {
        self.bounds.clear();
        self.bounds.extend_from_slice(&self.root_bounds);
        self.links.clear();
        let mut cur = chain.as_ref();
        while let Some(d) = cur {
            self.links.push(Rc::clone(d));
            cur = d.parent.as_ref();
        }
        for d in self.links.drain(..).rev() {
            for &(v, lo, hi) in &d.changes {
                self.bounds[v as usize] = (lo, hi);
            }
        }
        self.ws.set_bounds_full(&self.bounds);
    }

    /// Solves `node` and dives: branch, re-optimize the nearer child in
    /// place, push the sibling.
    fn process_subtree(&mut self, node: Node) -> Result<(), Halt> {
        let tol = self.opts.tolerance;
        let budget = self.opts.max_simplex_iters;
        // Bound-prune at pop time: the incumbent may have improved since push.
        if node.bound >= self.incumbent_key() - tol {
            return Ok(());
        }
        self.claim_node()?;
        self.load_bounds(&node.chain);
        let stop = self.stop;
        let mut outcome = match &node.basis {
            Some(snap) => self.ws.warm_solve(snap, budget, stop),
            None => self.ws.solve_root(budget, stop),
        };
        let mut chain = node.chain;

        loop {
            match outcome {
                Ok(RelaxOutcome::Optimal) => {}
                Ok(RelaxOutcome::Infeasible) => return Ok(()),
                Ok(RelaxOutcome::Unbounded) => return Err(Halt::Failed(SolveError::Unbounded)),
                // A relaxation cut short by the stop signal leaves its node
                // open at the pop-time bound, exactly like a stop between
                // nodes.
                Err(LpError::Stopped) => return Err(Halt::Stopped),
                Err(LpError::IterationLimit(_)) => {
                    return Err(Halt::Failed(SolveError::SimplexLimit(budget)))
                }
                Err(LpError::Numerical { constraint }) => {
                    return Err(Halt::Failed(SolveError::Numerical(constraint)))
                }
            }
            let obj = self.ws.objective_internal();
            let inc = self.incumbent_key();
            if obj >= inc - tol {
                return Ok(()); // pruned by bound
            }
            let x = self.ws.extract_x();

            // Most fractional integer variable.
            let mut branch_var: Option<(usize, f64)> = None;
            let mut best_frac = tol;
            for &i in &self.int_vars {
                let v = x[i];
                let frac = (v - v.round()).abs();
                if frac > best_frac {
                    best_frac = frac;
                    branch_var = Some((i, v));
                }
            }
            let Some((bv, v)) = branch_var else {
                return self.offer_integral(x);
            };

            // Reduced-cost fixing: nonbasic 0/1 variables whose reduced cost
            // exceeds the gap can never flip in this subtree.
            let mut fixes: Vec<(u32, f64, f64)> = Vec::new();
            if inc.is_finite() {
                let gap = inc - tol - obj;
                for &i in &self.int_vars {
                    if i == bv {
                        continue;
                    }
                    let (lo, hi) = self.ws.bound_of(i);
                    if hi - lo != 1.0 {
                        continue; // only 0/1-range variables
                    }
                    match self.ws.status_of(i) {
                        VStat::AtLower if self.ws.reduced_cost(i) > gap => {
                            fixes.push((i as u32, lo, lo));
                        }
                        VStat::AtUpper if -self.ws.reduced_cost(i) > gap => {
                            fixes.push((i as u32, hi, hi));
                        }
                        _ => {}
                    }
                }
            }

            let (lo_bv, hi_bv) = self.ws.bound_of(bv);
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
            self.ws.snapshot_into(&mut self.snap);
            let mut push_changes = fixes.clone();
            push_changes.push(push);
            self.push(Node {
                chain: Some(Rc::new(Delta {
                    parent: chain.clone(),
                    changes: push_changes,
                })),
                basis: Some(Rc::from(&self.snap[..])),
                bound: obj,
            });

            let mut dive_changes = fixes;
            dive_changes.push(dive);
            for &(var, lo, hi) in &dive_changes {
                self.ws.set_bound(var as usize, lo, hi);
            }
            chain = Some(Rc::new(Delta {
                parent: chain,
                changes: dive_changes,
            }));
            self.claim_node()?;
            outcome = self.ws.reoptimize(budget, stop);
        }
    }

    /// Verifies an integer-feasible relaxation against the original rows
    /// (the warm path skips the per-solve check) and offers it as the
    /// incumbent.
    fn offer_integral(&mut self, mut x: Vec<f64>) -> Result<(), Halt> {
        let tol = self.opts.tolerance;
        round_ints(&mut x, &self.int_vars);
        for c in self.model.constraints() {
            // Rounding each near-integral variable moves the row by up to
            // Σ|coef|·tol on top of the LP feasibility slack; only a
            // violation beyond both is numerical corruption.
            let (mut maxc, mut sumc) = (1.0f64, 0.0f64);
            for &(_, coef) in &c.expr.terms {
                maxc = maxc.max(coef.abs());
                sumc += coef.abs();
            }
            if !c.satisfied_by(&x, 1e-5 * maxc + tol * sumc) {
                return Err(Halt::Failed(SolveError::Numerical(c.name.clone())));
            }
        }
        // The incumbent key lives in the same perturbed minimization space
        // as the relaxation bounds, so the search solves the perturbed MILP
        // *exactly* (tie nodes prune). Reported objectives are re-evaluated
        // on the original expression at the end.
        let key = self.ws.perturbed_objective_of(&x);
        let improves = self
            .incumbent
            .as_ref()
            .is_none_or(|(cur, _)| key < cur - tol);
        if improves {
            let optimal = self.meets_root_bound(&x);
            self.incumbent = Some((key, x));
            if optimal {
                return Err(Halt::RootBound);
            }
        }
        Ok(())
    }
}

/// Solves the mixed 0/1-integer program to proven optimality, or until the
/// node limit or the caller's `stop` signal ends the search early. `stop`
/// is polled before every node relaxation and every simplex pivot; pass
/// `&|| false` to run to completion.
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
/// A search ended by the node limit returns its best incumbent with
/// [`Status::Feasible`]; one ended by `stop` returns it with
/// [`Status::Cancelled`]. Either way [`Solution::bound`] is the tightest
/// relaxation bound still open at that moment.
///
/// # Errors
///
/// See [`SolveError`]; in particular [`SolveError::Infeasible`] when no
/// integral assignment satisfies the constraints, and
/// [`SolveError::Cancelled`] when `stop` fired before any incumbent was
/// found.
pub fn solve(
    model: &Model,
    opts: &SolveOptions,
    stop: &dyn Fn() -> bool,
) -> Result<Solution, SolveError> {
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

    let mut incumbent = None;
    if let Some(warm) = &opts.warm_incumbent {
        let viol = model.violations(warm, opts.tolerance.max(1e-6));
        if !viol.is_empty() {
            return Err(SolveError::BadWarmStart(viol));
        }
        let mut x = warm.clone();
        round_ints(&mut x, &int_vars);
        // Keyed in the perturbed space like every other incumbent. The
        // perturbation is a pure function of the model, so a scratch
        // workspace gives the search's key. The search allocates its own
        // workspace after this one is freed: reusing this one made
        // e2ebench's `dct-paper` synth and explore ~13% slower on a 2-vCPU
        // Xeon with identical node and pivot counts (cause unverified;
        // likely memory layout).
        incumbent = Some((Workspace::new(model).perturbed_objective_of(&x), x));
    }

    let mut search = Search {
        model,
        opts,
        stop,
        int_vars,
        root_bounds,
        // The caller's proven bound, in the internal minimization key space.
        root_key: opts
            .root_bound
            .map(|rb| if model.objective().is_max() { -rb } else { rb }),
        heap: BinaryHeap::new(),
        seq: 0,
        incumbent,
        nodes: 0,
        ws: Workspace::new(model),
        bounds: Vec::new(),
        links: Vec::new(),
        snap: Vec::new(),
    };
    // A warm incumbent that already meets the proven root bound makes the
    // whole tree redundant: never open the root, prove optimality at zero
    // nodes.
    let warm_meets_root = search
        .incumbent
        .as_ref()
        .is_some_and(|(_, x)| search.meets_root_bound(x));
    if !warm_meets_root {
        search.push(Node {
            chain: None,
            basis: None,
            bound: f64::NEG_INFINITY,
        });
    }

    let mut halt = None;
    let mut stop_bound = f64::INFINITY;
    while let Some(HeapNode { node, .. }) = search.heap.pop() {
        let popped = node.bound;
        if let Err(h) = search.process_subtree(node) {
            // The tightest still-open relaxation bound: the heap frontier
            // plus the node being processed, whose pop-time bound stays
            // valid because a dive only tightens it.
            stop_bound = search
                .heap
                .iter()
                .map(|hn| hn.node.bound)
                .fold(popped, f64::min);
            halt = Some(h);
            break;
        }
    }
    let status = match halt {
        Some(Halt::Failed(e)) => return Err(e),
        Some(Halt::Stopped) => Status::Cancelled,
        Some(Halt::NodeLimit) => Status::Feasible,
        Some(Halt::RootBound) | None => Status::Optimal,
    };
    let Some((key, x)) = search.incumbent else {
        return Err(match status {
            Status::Cancelled => SolveError::Cancelled,
            Status::Feasible => SolveError::NodeLimit(opts.max_nodes),
            Status::Optimal => SolveError::Infeasible,
        });
    };
    // The proven bound is the stop-time frontier, clipped by the incumbent
    // itself (an exhausted search proves the incumbent optimal) and never
    // looser than the caller's proven root bound. Keys live in the
    // internal minimization orientation; flip for max models.
    let mut key_bound = stop_bound.min(key);
    if let Some(rk) = search.root_key {
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
        nodes: search.nodes,
        pivots: search.ws.iterations(),
        cold_solves: search.ws.cold_starts(),
        status,
    })
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
    use std::cell::Cell;

    fn solve_default(m: &Model) -> Solution {
        solve(m, &SolveOptions::default(), &|| false).unwrap()
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
            solve(&m, &SolveOptions::default(), &|| false).unwrap_err(),
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
            solve(&m, &SolveOptions::default(), &|| false).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn unbounded_reported() {
        let mut m = Model::new("unb");
        let x = m.add_integer("x", 0.0, f64::INFINITY);
        m.set_objective_max([(x, 1.0)]);
        assert_eq!(
            solve(&m, &SolveOptions::default(), &|| false).unwrap_err(),
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
            &|| false,
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
            &|| false,
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
            &|| false,
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

    /// A 12-item knapsack with correlated profits — enough tree for a
    /// stop signal to land at many different depths.
    fn chunky_knapsack() -> Model {
        let mut m = Model::new("chunky");
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
        // All-zero is feasible for the knapsack: a search stopped before
        // its first node must hand it back untouched instead of erroring.
        let s = solve(
            &m,
            &SolveOptions {
                warm_incumbent: Some(vec![0.0; 12]),
                ..SolveOptions::default()
            },
            &|| true,
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
        let s = solve(&m, &SolveOptions::default(), &|| true);
        assert_eq!(s.unwrap_err(), SolveError::Cancelled);
    }

    #[test]
    fn uncancelled_token_does_not_perturb_the_search() {
        // A stop signal that never fires is polled before every node and
        // every pivot, and changes nothing else.
        let m = chunky_knapsack();
        let baseline = solve_default(&m);
        let polls = Cell::new(0usize);
        let s = solve(&m, &SolveOptions::default(), &|| {
            polls.set(polls.get() + 1);
            false
        })
        .unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.objective, baseline.objective);
        assert_eq!((s.nodes, s.pivots), (baseline.nodes, baseline.pivots));
        assert!(
            polls.get() >= s.nodes + s.pivots,
            "polled per node and pivot"
        );
        assert!((s.bound - s.objective).abs() < 1e-5, "optimal proves bound");
    }

    #[test]
    fn stopping_on_poll_k_returns_a_sound_incumbent_and_bound() {
        // Firing the stop signal on its k-th poll ends the search before
        // node k, between nodes or inside a relaxation. Whatever the search
        // holds by then is feasible and no better than the optimum, and the
        // reported bound still covers the optimum (this is a max model:
        // objective ≤ optimum ≤ bound).
        let m = chunky_knapsack();
        let optimum = solve_default(&m).objective;
        let mut mid_search_bounds = 0;
        for k in 1..40 {
            let polls = Cell::new(0usize);
            let stop = || {
                polls.set(polls.get() + 1);
                polls.get() >= k
            };
            match solve(&m, &SolveOptions::default(), &stop) {
                Ok(s) => {
                    assert!(s.nodes <= k, "k = {k}: {} nodes", s.nodes);
                    assert!(m.violations(&s.x, 1e-6).is_empty(), "k = {k}");
                    assert!(s.objective <= optimum + 1e-6, "k = {k}");
                    assert!(
                        optimum <= s.bound + 1e-5,
                        "k = {k}: bound {} below the optimum {optimum}",
                        s.bound
                    );
                    if s.status == Status::Cancelled && s.bound.is_finite() {
                        mid_search_bounds += 1;
                    }
                }
                Err(e) => assert_eq!(e, SolveError::Cancelled, "k = {k}"),
            }
        }
        assert!(
            mid_search_bounds > 0,
            "some stop must land after the first dive, with a finite frontier"
        );
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
            &|| false,
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
            &|| false,
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
        let s = solve(
            &m,
            &SolveOptions {
                warm_incumbent: Some(vec![0.0; 12]),
                root_bound: Some(250.0),
                ..SolveOptions::default()
            },
            &|| true,
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
            &|| false,
        )
        .unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.objective, baseline.objective);
        assert_eq!(s.nodes, baseline.nodes);
        assert_eq!(s.pivots, baseline.pivots);
    }

    #[test]
    fn stats_are_populated() {
        let m = chunky_knapsack();
        let s = solve_default(&m);
        assert!(s.nodes >= 1);
        assert!(s.pivots >= 1);
        assert_eq!(s.cold_solves, 1, "warm starts everywhere but the root");
    }
}
