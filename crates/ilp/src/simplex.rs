//! Sparse revised simplex with warm-started dual re-optimization.
//!
//! Replaces the original dense full-tableau implementation. The LP is held
//! in *computational standard form*: every constraint row gets a slack
//! (`A·x + s = b`, the row's sense encoded in the slack's bounds), variable
//! bounds are handled implicitly (nonbasic variables sit at a bound, never
//! as extra rows), and the basis inverse is a product-form eta file over
//! the sparse column-major matrix ([`crate::basis`], [`crate::sparse`]).
//!
//! Two iteration engines share the factorization:
//!
//! * a **bounded primal simplex** (Dantzig pricing, bound-flip ratio test,
//!   Bland fallback after a degeneracy stall) used for the classic
//!   phase-1/phase-2 sequence when no dual-feasible start exists;
//! * a **dual simplex** (Forrest–Goldfarb steepest-edge pricing, a
//!   bound-flipping "long step" ratio test, incremental reduced-cost
//!   updates) used whenever a dual-feasible basis is at hand — which is the common case: the cost structure of the
//!   partitioning models admits a dual-feasible slack basis, so the root
//!   solves without any phase 1, and branch-and-bound re-optimizes each
//!   node from its parent's basis in a handful of dual pivots instead of a
//!   cold two-phase solve.
//!
//! The dual engine's hot loops run as *fissioned SoA kernels*
//! ([`crate::kernels`]): steepest-edge pricing is a vectorizable
//! violation scan over row-indexed parallel slices (`xb`/`lo_b`/`hi_b`)
//! plus a scalar score-and-argmax pass, and the ratio test is a
//! candidate-gather over the maintained nonbasic index list plus the
//! sequential bound-flip selection that carries the recurrence. The
//! fissioned forms are arithmetic-preserving — same operations, order and
//! tie-breaks as the fused scalar references kept in this crate's
//! `tests/kernels.rs` — so the pivot trajectory is bit-identical; only
//! the rate changes (see `BENCH_ilp.json`).
//!
//! The public [`solve_lp`]/[`solve_lp_with_bounds`] entry points keep their
//! original signatures; `Workspace` is the crate-internal warm-start
//! surface consumed by [`crate::branch`].

use crate::basis::Basis;
use crate::model::{Model, Sense, Var};
use crate::sparse::SparseMat;
use std::fmt;

/// Zero tolerance for reduced costs and coefficient cleanup.
const EPS: f64 = 1e-9;
/// Preferred minimum pivot magnitude; entries in `(EPS, PIVOT_TOL]` are
/// last-resort pivots only.
const PIVOT_TOL: f64 = 1e-7;
/// Primal feasibility tolerance (on scaled rows).
const FEAS_TOL: f64 = 1e-7;
/// Dual feasibility tolerance for reduced costs.
const DUAL_TOL: f64 = 1e-7;
/// Degenerate steps tolerated before switching to Bland-style selection.
const STALL_LIMIT: usize = 256;

/// A solved LP relaxation.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal assignment in the *original* variable space.
    pub x: Vec<f64>,
    /// Objective value in the original orientation (max stays max).
    pub objective: f64,
    /// Simplex iterations spent (all phases, pivots plus bound flips).
    pub iterations: usize,
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal basic solution was found.
    Optimal(LpSolution),
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

/// Hard failure of the simplex routine (distinct from model infeasibility).
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The iteration budget was exhausted before convergence.
    IterationLimit(usize),
    /// The caller's stop signal fired before convergence (only the
    /// branch-and-bound passes one; [`solve_lp`] never stops early).
    Stopped,
    /// The computed basic solution failed the post-solve feasibility check —
    /// numerical corruption was detected rather than silently returned.
    Numerical {
        /// The first violated constraint's name.
        constraint: String,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::IterationLimit(n) => write!(f, "simplex iteration limit {n} exceeded"),
            LpError::Stopped => write!(f, "simplex stopped by the caller"),
            LpError::Numerical { constraint } => {
                write!(f, "numerical failure: solution violates `{constraint}`")
            }
        }
    }
}

impl std::error::Error for LpError {}

/// Solves the continuous relaxation of `model` with its declared bounds.
///
/// Integrality restrictions are ignored; binaries relax to `[0, 1]`.
///
/// # Errors
///
/// Returns [`LpError::IterationLimit`] if the pivot budget is exhausted.
pub fn solve_lp(model: &Model, max_iters: usize) -> Result<LpOutcome, LpError> {
    let bounds: Vec<(f64, f64)> = (0..model.var_count())
        .map(|i| model.var_bounds(Var(i as u32))) // cast-ok: var_count is Var(u32)-bounded
        .collect();
    solve_lp_with_bounds(model, &bounds, max_iters)
}

/// Solves the continuous relaxation with per-variable bound overrides
/// (`bounds.len()` must equal `model.var_count()`).
///
/// # Errors
///
/// Returns [`LpError::IterationLimit`] if the pivot budget is exhausted.
///
/// # Panics
///
/// Panics if `bounds.len() != model.var_count()`.
pub fn solve_lp_with_bounds(
    model: &Model,
    bounds: &[(f64, f64)],
    max_iters: usize,
) -> Result<LpOutcome, LpError> {
    assert_eq!(bounds.len(), model.var_count(), "one bound pair per var");
    let mut ws = Workspace::new(model);
    ws.set_bounds_full(bounds);
    let outcome = ws.solve_root(max_iters, &|| false)?;
    Ok(match outcome {
        RelaxOutcome::Infeasible => LpOutcome::Infeasible,
        RelaxOutcome::Unbounded => LpOutcome::Unbounded,
        RelaxOutcome::Optimal => {
            let x = ws.extract_x();
            // Post-solve verification against the original named rows: a
            // claimed-optimal solution violating a constraint means
            // numerical corruption, reported as an error rather than a
            // wrong answer.
            for c in model.constraints() {
                let scale = c
                    .expr
                    .terms
                    .iter()
                    .map(|&(_, coef)| coef.abs())
                    .fold(1.0f64, f64::max);
                if !c.satisfied_by(&x, 1e-5 * scale) {
                    return Err(LpError::Numerical {
                        constraint: c.name.clone(),
                    });
                }
            }
            let objective = model.objective().expr().eval(&x);
            LpOutcome::Optimal(LpSolution {
                x,
                objective,
                iterations: ws.iterations(),
            })
        }
    })
}

/// Where a nonbasic variable currently rests — the kernel layer's
/// [`ColStatus`](crate::kernels::ColStatus), shared so the workspace's
/// status array feeds the fissioned scans without conversion.
pub(crate) type VStat = crate::kernels::ColStatus;

fn vstat_from_u8(v: u8) -> VStat {
    match v {
        0 => VStat::Basic,
        1 => VStat::AtLower,
        2 => VStat::AtUpper,
        _ => VStat::Free,
    }
}

/// Result of one relaxation solve (bound/solution read back separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RelaxOutcome {
    /// The workspace holds an optimal basic solution.
    Optimal,
    /// No feasible point under the current bounds.
    Infeasible,
    /// The objective is unbounded (only reachable from a cold start).
    Unbounded,
}

enum StepOutcome {
    Optimal,
    /// Primal: no blocking ratio. Dual: no entering column.
    Ray,
}

/// Which cost vector [`Workspace::compute_duals`] reads — selecting a
/// workspace-owned vector instead of passing a slice kills the
/// `cost.clone()` that every refactor/warm-start path used to pay.
#[derive(Clone, Copy)]
enum CostKind {
    /// The real (perturbed, minimization-oriented) objective.
    Phase2,
    /// The artificial-infeasibility objective built by `solve_root`.
    Phase1,
}

/// The warm-startable solver state for one model: sparse standard form,
/// factorized basis, current bounds/values/duals. One workspace serves many
/// solves — the branch-and-bound reuses it across nodes, changing only
/// bounds (and the basis snapshot when jumping subtrees).
pub(crate) struct Workspace {
    m: usize,
    /// Structural variable count (columns `0..n` mirror the model's vars).
    n: usize,
    /// Total columns: structural, slack (`n..n+m`), artificial
    /// (`n+m..n+2m`; fixed at zero outside phase 1).
    n_total: usize,
    mat: SparseMat,
    /// Internal minimization costs (objective negated for maximization).
    cost: Vec<f64>,
    /// Scaled right-hand side.
    rhs: Vec<f64>,

    lo: Vec<f64>,
    hi: Vec<f64>,
    vstat: Vec<VStat>,
    /// `basic[r]` = column basic at row position `r`.
    basic: Vec<usize>,
    basis: Basis,
    /// Basic values by position.
    xb: Vec<f64>,
    /// Reduced costs (valid for nonbasic columns after a solve).
    d: Vec<f64>,
    iterations: usize,
    cold_starts: usize,
    /// Eta count/nnz right after the last reinversion — the refactor
    /// policy triggers on *growth* since then, not on the absolute size
    /// (reinversion itself legitimately produces one eta per structural
    /// basic column).
    eta_base: (usize, usize),
    /// Dual steepest-edge weights per row position (`||B^{-T}e_r||^2`,
    /// maintained by the Forrest-Goldfarb update; reset to 1 whenever the
    /// basis is replaced wholesale rather than pivoted).
    dse: Vec<f64>,
    /// Scratch vectors (kept to avoid per-iteration allocation).
    w: Vec<f64>,
    rho: Vec<f64>,
    alpha: Vec<f64>,
    tau: Vec<f64>,
    /// Ascending nonbasic column list (fixed *structural* columns
    /// included; fixed slacks/artificials dropped at rebuild — see
    /// [`Self::rebuild_nonbasic`]), maintained incrementally across
    /// pivots. The fissioned scans and every recomputation pass iterate
    /// this instead of dense `0..n_total`.
    nonbasic: Vec<u32>,
    /// Bounds of the basic column at each row position — SoA mirrors of
    /// `lo[basic[r]]`/`hi[basic[r]]` so pricing reads flat slices.
    lo_b: Vec<f64>,
    hi_b: Vec<f64>,
    /// Pricing scratch, one violation magnitude per row (`-1.0` = feasible).
    viols: Vec<f64>,
    /// Dual-value scratch for `compute_duals`.
    y: Vec<f64>,
    /// Ratio-test candidate scratch `(ratio, column)`.
    cands: Vec<(f64, u32)>,
    /// Bound-flip scratch for the long-step ratio test.
    flips: Vec<usize>,
    /// Phase-1 cost vector, built on demand by `solve_root`.
    phase1_cost: Vec<f64>,
    /// Reinversion scratch: working vectors plus the retired eta pools,
    /// recycled so per-node refactorization stops hitting the allocator.
    reinvert_scratch: crate::basis::ReinvertScratch,
}

impl Workspace {
    /// Builds the standard form: row-equilibrated sparse matrix with slack
    /// and artificial columns. Bounds start unset; call
    /// [`Self::set_bounds_full`] before solving.
    pub(crate) fn new(model: &Model) -> Workspace {
        let m = model.constraint_count();
        let n = model.var_count();
        let n_total = n + 2 * m;
        // Row equilibration: scale each row to max |coefficient| 1 so the
        // unit-magnitude assignment rows and the nanosecond-magnitude delay
        // rows meet the same tolerances.
        let scales: Vec<f64> = model
            .constraints()
            .iter()
            .map(|c| {
                let maxc = c
                    .expr
                    .terms
                    .iter()
                    .map(|&(_, v)| v.abs())
                    .fold(0.0f64, f64::max);
                if maxc > 0.0 {
                    1.0 / maxc
                } else {
                    1.0
                }
            })
            .collect();
        let mut columns = model.columns(|i| scales[i]);
        columns.resize(n_total, Vec::new());
        let mut rhs = vec![0.0; m];
        for (i, c) in model.constraints().iter().enumerate() {
            rhs[i] = c.rhs * scales[i];
            columns[n + i].push((i, 1.0)); // slack
            columns[n + m + i].push((i, 1.0)); // artificial
        }
        let mat = SparseMat::from_columns(m, columns);
        let maximize = model.objective().is_max();
        let mut cost = vec![0.0; n_total];
        for &(v, c) in &model.objective().expr().terms {
            cost[v.index()] += if maximize { -c } else { c };
        }
        // Deterministic cost perturbation on zero-cost bounded columns.
        // Assignment-style models leave most binaries costless, making the
        // dual simplex wander a fully degenerate polytope (every ratio 0);
        // distinct tiny costs make the min-ratio selection act nearly
        // lexicographically. Each term contributes at most
        // `2e-7·range⁻¹·max(|lo|,|hi|) ≤ 2e-7` to the objective, so the
        // whole perturbation shifts it by under `2e-7·n`. Branch-and-bound
        // runs entirely in this perturbed space (bounds and incumbent keys
        // alike — see `crate::branch`), which keeps tie nodes pruning
        // exactly; reported objectives are always re-evaluated on the
        // original expression, never on the perturbed costs.
        for (j, c) in cost.iter_mut().enumerate().take(n) {
            if *c == 0.0 {
                let (l, h) = model.var_bounds(Var(j as u32)); // cast-ok: j < n = var_count, Var(u32)-bounded
                if l.is_finite() && h.is_finite() {
                    let range = (h - l).max(1.0);
                    *c = 1e-7 * hash_unit(j as u64) / range; // cast-ok: usize widens losslessly to u64
                }
            }
        }
        let mut lo = vec![0.0; n_total];
        let mut hi = vec![0.0; n_total];
        for (i, c) in model.constraints().iter().enumerate() {
            let (slo, shi) = match c.sense {
                Sense::Le => (0.0, f64::INFINITY),
                Sense::Ge => (f64::NEG_INFINITY, 0.0),
                Sense::Eq => (0.0, 0.0),
            };
            lo[n + i] = slo;
            hi[n + i] = shi;
            // Artificials are fixed at zero outside phase 1.
            lo[n + m + i] = 0.0;
            hi[n + m + i] = 0.0;
        }
        let mut ws = Workspace {
            m,
            n,
            n_total,
            mat,
            cost,
            rhs,
            lo,
            hi,
            vstat: vec![VStat::AtLower; n_total],
            basic: Vec::new(),
            basis: Basis::identity(m),
            xb: vec![0.0; m],
            d: vec![0.0; n_total],
            iterations: 0,
            cold_starts: 0,
            eta_base: (0, 0),
            dse: vec![1.0; m],
            w: vec![0.0; m],
            rho: vec![0.0; m],
            alpha: vec![0.0; n_total],
            tau: vec![0.0; m],
            nonbasic: Vec::with_capacity(n_total),
            lo_b: vec![0.0; m],
            hi_b: vec![0.0; m],
            viols: vec![0.0; m],
            y: vec![0.0; m],
            cands: Vec::new(),
            flips: Vec::new(),
            phase1_cost: Vec::new(),
            reinvert_scratch: crate::basis::ReinvertScratch::default(),
        };
        ws.rebuild_nonbasic();
        ws
    }

    /// Cumulative simplex iterations over the workspace's lifetime.
    pub(crate) fn iterations(&self) -> usize {
        self.iterations
    }

    /// Cold (from-scratch, phase-1 capable) solves performed.
    pub(crate) fn cold_starts(&self) -> usize {
        self.cold_starts
    }

    /// The perturbed internal (minimization-oriented) objective of an
    /// arbitrary structural assignment — the branch-and-bound incumbent
    /// key, kept in the same space as the relaxation bounds so tie nodes
    /// prune exactly.
    pub(crate) fn perturbed_objective_of(&self, x: &[f64]) -> f64 {
        x.iter().zip(&self.cost).map(|(&xj, &cj)| cj * xj).sum()
    }

    /// Replaces the structural bounds wholesale (slack/artificial bounds
    /// are fixed by construction).
    pub(crate) fn set_bounds_full(&mut self, bounds: &[(f64, f64)]) {
        assert_eq!(bounds.len(), self.n);
        for (j, &(l, h)) in bounds.iter().enumerate() {
            self.lo[j] = l;
            self.hi[j] = h;
        }
    }

    /// Tightens one structural variable's bounds.
    pub(crate) fn set_bound(&mut self, var: usize, lo: f64, hi: f64) {
        debug_assert!(var < self.n);
        self.lo[var] = lo;
        self.hi[var] = hi;
    }

    /// Current bounds of a structural variable.
    pub(crate) fn bound_of(&self, var: usize) -> (f64, f64) {
        (self.lo[var], self.hi[var])
    }

    /// Reduced cost of a structural variable in the internal minimization
    /// orientation (valid after an optimal solve).
    pub(crate) fn reduced_cost(&self, var: usize) -> f64 {
        self.d[var]
    }

    /// Basis status of a structural variable.
    pub(crate) fn status_of(&self, var: usize) -> VStat {
        self.vstat[var]
    }

    /// Serializes the basis into a reusable buffer (cleared first) —
    /// branch-and-bound snapshots every node, so the staging buffer lives
    /// with the search, not with the call.
    pub(crate) fn snapshot_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend(self.vstat.iter().map(|&s| s as u8)); // cast-ok: VStat is a fieldless enum with < 256 variants
    }

    /// Objective of the current solution in the internal minimization
    /// orientation (the branch-and-bound pruning key). One pass over the
    /// basis positions plus one over the nonbasic structural columns —
    /// called once per node, so no `basic` scans per variable.
    pub(crate) fn objective_internal(&self) -> f64 {
        let mut obj = 0.0;
        for (r, &col) in self.basic.iter().enumerate() {
            if self.cost[col] != 0.0 {
                obj += self.cost[col] * self.xb[r];
            }
        }
        for &j32 in &self.nonbasic {
            let j = j32 as usize; // cast-ok: u32 column ids widen losslessly to usize
            if j >= self.n {
                break;
            }
            if self.cost[j] != 0.0 {
                obj += self.cost[j] * self.nonbasic_value(j);
            }
        }
        obj
    }

    /// Resting value of a *nonbasic* column.
    #[inline]
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.vstat[j] {
            VStat::AtLower => self.lo[j],
            VStat::AtUpper => self.hi[j],
            VStat::Free => 0.0,
            VStat::Basic => unreachable!("nonbasic value of a basic column"),
        }
    }

    /// Extracts the structural solution, clamped into the current bounds.
    pub(crate) fn extract_x(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        for &j32 in &self.nonbasic {
            let j = j32 as usize; // cast-ok: u32 column ids widen losslessly to usize
            if j >= self.n {
                break;
            }
            x[j] = self.nonbasic_value(j);
        }
        for (r, &col) in self.basic.iter().enumerate() {
            if col < self.n {
                x[col] = self.xb[r].clamp(self.lo[col], self.hi[col]);
            }
        }
        x
    }

    // --- basis/value bookkeeping -------------------------------------------

    /// Rebuilds the ascending nonbasic column list from the status array
    /// (called whenever the basis is replaced wholesale; pivots maintain
    /// the list incrementally via [`Self::nonbasic_pivot_swap`]).
    ///
    /// Fixed *non-structural* columns are left out: they are skipped by
    /// every consumer anyway (`lo ≥ hi` guards, zero resting value, zero
    /// contribution to `x_B` and the objective) and the artificials plus
    /// equality-row slacks outnumber the live columns several times over,
    /// so carrying them would make each per-pivot pass mostly skip work.
    /// Structural columns stay: a branching fix (`lo == hi ≠ 0`) still
    /// contributes its resting value to `compute_xb`/`extract_x`, and
    /// structural bounds can widen between rebuilds (`set_bounds_full` per
    /// node). Slack bounds never change after construction, and artificial
    /// bounds only widen inside `solve_root`'s phase 1, which starts them
    /// *basic* and maintains the list incrementally from there — a rebuild
    /// never has to re-admit either.
    fn rebuild_nonbasic(&mut self) {
        self.nonbasic.clear();
        for j in 0..self.n_total {
            if self.vstat[j] != VStat::Basic && !(j >= self.n && self.lo[j] >= self.hi[j]) {
                self.nonbasic.push(j as u32); // cast-ok: j < n_total, Var(u32)-bounded
            }
        }
    }

    /// Refreshes the by-row-position bound mirrors `lo_b`/`hi_b`.
    fn sync_basic_bounds(&mut self) {
        for (r, &col) in self.basic.iter().enumerate() {
            self.lo_b[r] = self.lo[col];
            self.hi_b[r] = self.hi[col];
        }
    }

    /// Maintains the nonbasic list across one pivot: `enter` became basic,
    /// `leave` became nonbasic. Keeps the list sorted so iteration order
    /// (and hence floating-point summation order) matches a dense scan.
    fn nonbasic_pivot_swap(&mut self, enter: usize, leave: usize) {
        let e = self
            .nonbasic
            .binary_search(&(enter as u32)) // cast-ok: enter < n_total, Var(u32)-bounded
            .expect("entering column was nonbasic");
        self.nonbasic.remove(e);
        let l = self
            .nonbasic
            .binary_search(&(leave as u32)) // cast-ok: leave < n_total, Var(u32)-bounded
            .expect_err("leaving column was basic");
        self.nonbasic.insert(l, leave as u32); // cast-ok: leave < n_total, Var(u32)-bounded
    }

    /// Recomputes the basic values `x_B = B⁻¹(b − N·x_N)` from scratch.
    /// Walks the nonbasic list (ascending, so the accumulation order is
    /// identical to the dense scan it replaced), reuses `xb`'s buffer, and
    /// refreshes the basic-bound mirrors.
    fn compute_xb(&mut self) {
        let mut v = std::mem::take(&mut self.xb);
        v.clear();
        v.extend_from_slice(&self.rhs);
        for &j32 in &self.nonbasic {
            let j = j32 as usize; // cast-ok: u32 column ids widen losslessly to usize
            let xj = self.nonbasic_value(j);
            if xj != 0.0 {
                self.mat.col_axpy(j, -xj, &mut v);
            }
        }
        self.basis.ftran(&mut v);
        self.xb = v;
        self.sync_basic_bounds();
    }

    /// Recomputes every reduced cost of the selected cost vector, walking
    /// the nonbasic list. Fixed columns keep `d = 0` — their reduced costs
    /// are never read (dual feasibility short-circuits on `lo ≥ hi`, the
    /// ratio test skips fixed columns, and reduced-cost fixing only looks
    /// at unit-range columns).
    fn compute_duals(&mut self, kind: CostKind) {
        let cost: &[f64] = match kind {
            CostKind::Phase2 => &self.cost,
            CostKind::Phase1 => &self.phase1_cost,
        };
        for (r, &col) in self.basic.iter().enumerate() {
            self.y[r] = cost[col];
        }
        self.basis.btran(&mut self.y);
        self.d.fill(0.0);
        for &j32 in &self.nonbasic {
            let j = j32 as usize; // cast-ok: u32 column ids widen losslessly to usize
            if self.lo[j] >= self.hi[j] {
                continue;
            }
            self.d[j] = cost[j] - self.mat.col_dot(j, &self.y);
        }
    }

    /// Refactorizes the basis from its column set and refreshes values.
    fn refactor(&mut self) -> Result<(), LpError> {
        let n = self.n;
        let re = Basis::reinvert_with(
            &self.mat,
            &self.basic,
            |r| n + r,
            &mut self.reinvert_scratch,
        )
        .map_err(|_| LpError::Numerical {
            constraint: "singular basis".into(),
        })?;
        // Columns the repair dropped become nonbasic at their nearest
        // bound; the repair slacks become basic.
        for col in &re.dropped {
            self.vstat[*col] = nearest_status(self.lo[*col], self.hi[*col]);
        }
        for &col in &re.assign {
            self.vstat[col] = VStat::Basic;
        }
        self.basic = re.assign;
        let old = std::mem::replace(&mut self.basis, re.basis);
        self.reinvert_scratch.recycle(old);
        self.eta_base = (self.basis.eta_count(), self.basis.eta_nnz());
        self.rebuild_nonbasic();
        self.compute_xb();
        Ok(())
    }

    fn maybe_refactor(&mut self) -> Result<bool, LpError> {
        let grown_count = self.basis.eta_count() - self.eta_base.0;
        let grown_nnz = self.basis.eta_nnz() - self.eta_base.1;
        if grown_count > 64 || grown_nnz > 8 * self.m + 512 {
            self.refactor()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    // --- cold start ---------------------------------------------------------

    /// Solves from scratch under the current bounds: a dual-feasible slack
    /// basis when the costs admit one (no phase 1 at all), otherwise the
    /// classic primal phase-1/phase-2 sequence with artificials. `stop` is
    /// polled before every pivot, here and in the other entry points.
    pub(crate) fn solve_root(
        &mut self,
        budget: usize,
        stop: &dyn Fn() -> bool,
    ) -> Result<RelaxOutcome, LpError> {
        self.cold_starts += 1;
        for j in 0..self.n {
            if self.lo[j] > self.hi[j] + EPS {
                return Ok(RelaxOutcome::Infeasible);
            }
        }
        let mut left = budget;
        if self.try_dual_feasible_start() {
            let out = self
                .dual_simplex(&mut left, stop)
                .map_err(|e| budget_err(e, budget))?;
            return Ok(out);
        }

        // ---- phase 1: minimize artificial infeasibility -------------------
        // Structural and slack columns rest at their nearest bound; each
        // row's artificial absorbs the residual, with one-sided bounds and
        // a ±1 cost pushing it to zero.
        for j in 0..self.n + self.m {
            self.vstat[j] = nearest_status(self.lo[j], self.hi[j]);
        }
        let mut resid = std::mem::take(&mut self.xb);
        resid.clear();
        resid.extend_from_slice(&self.rhs);
        for j in 0..self.n + self.m {
            let xj = self.nonbasic_value(j);
            if xj != 0.0 {
                self.mat.col_axpy(j, -xj, &mut resid);
            }
        }
        self.phase1_cost.clear();
        self.phase1_cost.resize(self.n_total, 0.0);
        self.basic.clear();
        for (i, &r) in resid.iter().enumerate() {
            let a = self.n + self.m + i;
            if r >= 0.0 {
                self.lo[a] = 0.0;
                self.hi[a] = r;
                self.phase1_cost[a] = 1.0;
            } else {
                self.lo[a] = r;
                self.hi[a] = 0.0;
                self.phase1_cost[a] = -1.0;
            }
            self.vstat[a] = VStat::Basic;
            self.basic.push(a);
        }
        self.basis = Basis::identity(self.m);
        self.eta_base = (0, 0);
        self.dse.iter_mut().for_each(|g| *g = 1.0);
        self.xb = resid;
        self.rebuild_nonbasic();
        self.sync_basic_bounds();
        match self.primal_simplex(CostKind::Phase1, &mut left, stop) {
            Ok(StepOutcome::Optimal) => {}
            Ok(StepOutcome::Ray) => {
                // Phase 1 is bounded below by zero; an unbounded ray can
                // only mean numerical corruption.
                return Err(LpError::Numerical {
                    constraint: "phase-1 objective".into(),
                });
            }
            Err(e) => return Err(budget_err(e, budget)),
        }
        let infeas: f64 = self
            .basic
            .iter()
            .zip(&self.xb)
            .map(|(&col, &v)| self.phase1_cost[col] * v)
            .sum::<f64>()
            + (0..self.n_total)
                .filter(|&j| self.vstat[j] != VStat::Basic && self.phase1_cost[j] != 0.0)
                .map(|j| self.phase1_cost[j] * self.nonbasic_value(j))
                .sum::<f64>();
        if infeas > 1e-6 {
            return Ok(RelaxOutcome::Infeasible);
        }
        // Re-fix the artificials at zero; basic ones sit degenerate at 0.
        for i in 0..self.m {
            let a = self.n + self.m + i;
            self.lo[a] = 0.0;
            self.hi[a] = 0.0;
            if self.vstat[a] != VStat::Basic {
                self.vstat[a] = VStat::AtLower;
            }
        }

        // ---- phase 2: the real objective ----------------------------------
        match self.primal_simplex(CostKind::Phase2, &mut left, stop) {
            Ok(StepOutcome::Optimal) => Ok(RelaxOutcome::Optimal),
            Ok(StepOutcome::Ray) => Ok(RelaxOutcome::Unbounded),
            Err(e) => Err(budget_err(e, budget)),
        }
    }

    /// Tries to set up a dual-feasible all-slack basis: every cost-bearing
    /// column must own the bound its cost sign demands. Returns `false`
    /// (workspace untouched) when some column cannot comply.
    fn try_dual_feasible_start(&mut self) -> bool {
        let mut stat = Vec::with_capacity(self.n_total);
        for j in 0..self.n_total {
            let c = self.cost[j];
            let (l, h) = (self.lo[j], self.hi[j]);
            let s = if c > DUAL_TOL {
                if !l.is_finite() {
                    return false;
                }
                VStat::AtLower
            } else if c < -DUAL_TOL {
                if !h.is_finite() {
                    return false;
                }
                VStat::AtUpper
            } else {
                nearest_status(l, h)
            };
            stat.push(s);
        }
        self.vstat = stat;
        self.basic = (0..self.m).map(|i| self.n + i).collect();
        for i in 0..self.m {
            self.vstat[self.n + i] = VStat::Basic;
        }
        self.basis = Basis::identity(self.m);
        self.eta_base = (0, 0);
        self.dse.iter_mut().for_each(|g| *g = 1.0);
        self.rebuild_nonbasic();
        self.compute_xb();
        self.compute_duals(CostKind::Phase2);
        true
    }

    // --- warm start ---------------------------------------------------------

    /// Restores a basis snapshot (from [`Self::snapshot`]) under the
    /// current bounds and dual-re-optimizes. Falls back to a cold solve if
    /// the snapshot's basis turns out numerically unusable or dual
    /// infeasible (repairs can perturb the duals).
    pub(crate) fn warm_solve(
        &mut self,
        snapshot: &[u8],
        budget: usize,
        stop: &dyn Fn() -> bool,
    ) -> Result<RelaxOutcome, LpError> {
        debug_assert_eq!(snapshot.len(), self.n_total);
        for j in 0..self.n {
            if self.lo[j] > self.hi[j] + EPS {
                return Ok(RelaxOutcome::Infeasible);
            }
        }
        for (j, &s) in snapshot.iter().enumerate() {
            self.vstat[j] = vstat_from_u8(s);
        }
        self.basic.clear();
        for j in 0..self.n_total {
            if self.vstat[j] == VStat::Basic {
                self.basic.push(j);
            }
        }
        if self.basic.len() != self.m || self.refactor().is_err() {
            return self.solve_root(budget, stop);
        }
        // The snapshot's basis has nothing in common with whatever this
        // workspace held before: restart the steepest-edge reference.
        self.dse.iter_mut().for_each(|g| *g = 1.0);
        self.compute_duals(CostKind::Phase2);
        if !self.dual_feasible() {
            return self.solve_root(budget, stop);
        }
        let mut left = budget;
        self.dual_simplex(&mut left, stop)
            .map_err(|e| budget_err(e, budget))
    }

    /// Re-optimizes in place after bound changes (the dive fast path: the
    /// factorization, values and duals carry over; only `x_B` is refreshed).
    pub(crate) fn reoptimize(
        &mut self,
        budget: usize,
        stop: &dyn Fn() -> bool,
    ) -> Result<RelaxOutcome, LpError> {
        for j in 0..self.n {
            if self.lo[j] > self.hi[j] + EPS {
                return Ok(RelaxOutcome::Infeasible);
            }
        }
        self.compute_xb();
        let mut left = budget;
        self.dual_simplex(&mut left, stop)
            .map_err(|e| budget_err(e, budget))
    }

    fn dual_feasible(&self) -> bool {
        self.nonbasic.iter().all(|&j32| {
            let j = j32 as usize; // cast-ok: u32 column ids widen losslessly to usize
            match self.vstat[j] {
                VStat::Basic => true,
                VStat::AtLower => self.lo[j] >= self.hi[j] || self.d[j] >= -DUAL_TOL,
                VStat::AtUpper => self.lo[j] >= self.hi[j] || self.d[j] <= DUAL_TOL,
                VStat::Free => self.d[j].abs() <= DUAL_TOL,
            }
        })
    }

    // --- primal simplex -----------------------------------------------------

    fn primal_simplex(
        &mut self,
        kind: CostKind,
        left: &mut usize,
        stop: &dyn Fn() -> bool,
    ) -> Result<StepOutcome, LpError> {
        let mut stall = 0usize;
        loop {
            if *left == 0 {
                return Err(LpError::IterationLimit(0));
            }
            if stop() {
                return Err(LpError::Stopped);
            }
            self.compute_duals(kind);
            let bland = stall > STALL_LIMIT;

            // Entering column.
            let mut enter: Option<(usize, f64)> = None; // (col, score)
            for &j32 in &self.nonbasic {
                let j = j32 as usize; // cast-ok: u32 column ids widen losslessly to usize
                if self.lo[j] >= self.hi[j] {
                    continue;
                }
                let dj = self.d[j];
                let score = match self.vstat[j] {
                    VStat::AtLower if dj < -EPS => -dj,
                    VStat::AtUpper if dj > EPS => dj,
                    VStat::Free if dj.abs() > EPS => dj.abs(),
                    _ => continue,
                };
                if bland {
                    enter = Some((j, score));
                    break;
                }
                if enter.is_none_or(|(_, s)| score > s) {
                    enter = Some((j, score));
                }
            }
            let Some((q, _)) = enter else {
                return Ok(StepOutcome::Optimal);
            };
            *left -= 1;
            self.iterations += 1;

            // Direction: +1 when x_q increases.
            let sigma = match self.vstat[q] {
                VStat::AtLower => 1.0,
                VStat::AtUpper => -1.0,
                VStat::Free => {
                    if self.d[q] < 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
                VStat::Basic => unreachable!(),
            };
            self.w.iter_mut().for_each(|x| *x = 0.0);
            self.mat.col_axpy(q, 1.0, &mut self.w);
            self.basis.ftran(&mut self.w);

            // Ratio test with bound flips; two-tier pivot tolerance.
            let range = self.hi[q] - self.lo[q];
            let mut t_best = if range.is_finite() {
                range
            } else {
                f64::INFINITY
            };
            let mut leave: Option<usize> = None; // position
            let mut leave_mag = 0.0f64;
            let mut fallback: Option<(usize, f64, f64)> = None; // (pos, t, mag)
            for (r, &wr) in self.w.iter().enumerate() {
                let step = sigma * wr;
                let (xbr, col) = (self.xb[r], self.basic[r]);
                let (t, mag) = if step > EPS {
                    if !self.lo[col].is_finite() {
                        continue;
                    }
                    (((xbr - self.lo[col]) / step).max(0.0), step)
                } else if step < -EPS {
                    if !self.hi[col].is_finite() {
                        continue;
                    }
                    (((xbr - self.hi[col]) / step).max(0.0), -step)
                } else {
                    continue;
                };
                if mag > PIVOT_TOL {
                    if t < t_best - EPS || (t < t_best + EPS && mag > leave_mag) {
                        t_best = t.min(t_best);
                        leave = Some(r);
                        leave_mag = mag;
                    }
                } else if fallback
                    .as_ref()
                    .is_none_or(|&(_, ft, fm)| t < ft - EPS || (t < ft + EPS && mag > fm))
                {
                    fallback = Some((r, t, mag));
                }
            }
            // Use a tiny pivot only if nothing better blocks earlier.
            if leave.is_none() {
                if let Some((r, t, _)) = fallback {
                    if t < t_best - EPS || !t_best.is_finite() {
                        t_best = t;
                        leave = Some(r);
                    }
                }
            }

            if leave.is_none() && !t_best.is_finite() {
                return Ok(StepOutcome::Ray);
            }
            match leave {
                None => {
                    // Bound flip: x_q runs to its opposite bound.
                    let t = t_best;
                    if t > 0.0 {
                        for (r, &wr) in self.w.iter().enumerate() {
                            if wr != 0.0 {
                                self.xb[r] -= sigma * t * wr;
                            }
                        }
                    }
                    self.vstat[q] = match self.vstat[q] {
                        VStat::AtLower => VStat::AtUpper,
                        VStat::AtUpper => VStat::AtLower,
                        other => other,
                    };
                    if t <= EPS {
                        stall += 1;
                    } else {
                        stall = 0;
                    }
                }
                Some(r) => {
                    let t = t_best.max(0.0);
                    let xq_new = match self.vstat[q] {
                        VStat::Free => sigma * t,
                        _ => self.nonbasic_value(q) + sigma * t,
                    };
                    for (i, &wi) in self.w.iter().enumerate() {
                        if wi != 0.0 {
                            self.xb[i] -= sigma * t * wi;
                        }
                    }
                    let lcol = self.basic[r];
                    self.vstat[lcol] = if sigma * self.w[r] > 0.0 {
                        VStat::AtLower
                    } else {
                        VStat::AtUpper
                    };
                    self.basic[r] = q;
                    self.vstat[q] = VStat::Basic;
                    self.xb[r] = xq_new;
                    self.nonbasic_pivot_swap(q, lcol);
                    self.lo_b[r] = self.lo[q];
                    self.hi_b[r] = self.hi[q];
                    let w = std::mem::take(&mut self.w);
                    self.basis.push_pivot(r, &w);
                    self.w = w;
                    if t <= EPS {
                        stall += 1;
                    } else {
                        stall = 0;
                    }
                    if self.maybe_refactor()? {
                        // Values were refreshed from the new factorization.
                    }
                }
            }
        }
    }

    // --- dual simplex -------------------------------------------------------

    fn dual_simplex(
        &mut self,
        left: &mut usize,
        stop: &dyn Fn() -> bool,
    ) -> Result<RelaxOutcome, LpError> {
        let mut stall = 0usize;
        let mut bland = false;
        let mut retried_infeasible = false;
        loop {
            if *left == 0 {
                return Err(LpError::IterationLimit(0));
            }
            if stop() {
                return Err(LpError::Stopped);
            }
            // Once degeneracy trips the Bland rule, keep it for the rest of
            // the solve — alternating selection modes can itself cycle.
            bland = bland || stall > STALL_LIMIT;

            // Leaving row: dual steepest-edge pricing — the worst
            // infeasibility normalized by the row norm `viol^2 / gamma_r`.
            // The hot path is fissioned: a pure score scan over the SoA row
            // arrays, then the argmax recurrence. Bland mode (the violated
            // basic variable with the smallest *variable* index) needs
            // `basic[r]` for its tie-break, so it keeps the fused loop.
            let leave: Option<(usize, bool)> = if bland {
                let mut best: Option<(usize, bool)> = None;
                for r in 0..self.m {
                    let v = self.xb[r];
                    let below = if v < self.lo_b[r] - FEAS_TOL {
                        true
                    } else if v > self.hi_b[r] + FEAS_TOL {
                        false
                    } else {
                        continue;
                    };
                    if best.is_none_or(|(lr, _)| self.basic[r] < self.basic[lr]) {
                        best = Some((r, below));
                    }
                }
                best
            } else {
                crate::kernels::dual_price_scan(
                    &self.xb,
                    &self.lo_b,
                    &self.hi_b,
                    FEAS_TOL,
                    &mut self.viols,
                );
                crate::kernels::dual_price_argmax(&self.viols, &self.dse)
                    .map(|r| (r, self.xb[r] < self.lo_b[r] - FEAS_TOL))
            };
            let Some((r, below)) = leave else {
                return Ok(RelaxOutcome::Optimal);
            };
            *left -= 1;
            self.iterations += 1;

            // Row r of B⁻¹·A, gathered for the live nonbasic columns only.
            // Entries for basic and fixed columns go stale rather than
            // being zeroed — nothing downstream reads them: the ratio scan
            // walks the same list with the same fixed skip, and the dual
            // update below runs over the pre-pivot list.
            self.rho.iter_mut().for_each(|x| *x = 0.0);
            self.rho[r] = 1.0;
            self.basis.btran(&mut self.rho);
            for &j32 in &self.nonbasic {
                let j = j32 as usize; // cast-ok: u32 column ids widen losslessly to usize
                if self.lo[j] >= self.hi[j] {
                    continue;
                }
                // Slack and artificial columns are unit columns; spelling
                // the dot out (`0.0 + 1.0·ρ_i`) keeps the result
                // bit-identical to `col_dot` while skipping its indexing.
                self.alpha[j] = if j >= self.n + self.m {
                    0.0 + 1.0 * self.rho[j - self.n - self.m]
                } else if j >= self.n {
                    0.0 + 1.0 * self.rho[j - self.n]
                } else {
                    self.mat.col_dot(j, &self.rho)
                };
            }

            // Bound-flipping dual ratio test ("long step"): walk the
            // sign-eligible columns in ascending |d|/|α| order. A candidate
            // whose whole range cannot absorb the remaining infeasibility
            // is *flipped* bound-to-bound (no basis change — its reduced
            // cost crosses zero once the final θ is applied); the first
            // candidate that can absorb the rest enters the basis. Without
            // this, a 0/1-heavy model makes the entering variable overshoot
            // its own range and the violation migrates instead of
            // shrinking. Pivots above PIVOT_TOL are preferred; a knife-edge
            // floor of 1e-8 is the last resort. Bland mode uses the plain
            // single-candidate rule with exact comparisons (finiteness over
            // speed).
            let col_l = self.basic[r];
            let target = if below {
                self.lo[col_l]
            } else {
                self.hi[col_l]
            };
            let viol_abs = (self.xb[r] - target).abs();
            let mut enter: Option<usize> = None;
            self.flips.clear();
            for pass in 0..2 {
                let floor = if pass == 0 { PIVOT_TOL } else { 1e-8 };
                // Fissioned candidate collection: the pure
                // eligibility/ratio gather lives in the kernel layer; the
                // flip/enter walk below carries the remaining-violation
                // recurrence and stays here.
                crate::kernels::dual_ratio_scan(
                    &self.nonbasic,
                    &self.vstat,
                    &self.lo,
                    &self.hi,
                    &self.d,
                    &self.alpha,
                    below,
                    floor,
                    &mut self.cands,
                );
                if self.cands.is_empty() {
                    continue;
                }
                if bland {
                    // Exact min ratio, ties to the smallest column index
                    // (the pair sorts exactly that way).
                    enter = self
                        .cands
                        .iter()
                        .copied()
                        .min_by(|a, b| a.partial_cmp(b).expect("ratios are finite"))
                        .map(|(_, j)| j as usize); // cast-ok: u32 column ids widen losslessly to usize
                } else {
                    self.cands
                        .sort_unstable_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
                    let mut remaining = viol_abs;
                    let slack = FEAS_TOL * (1.0 + viol_abs);
                    for &(_, j) in &self.cands {
                        let j = j as usize; // cast-ok: u32 column ids widen losslessly to usize
                        let range = self.hi[j] - self.lo[j];
                        let capacity = range * self.alpha[j].abs(); // ∞ stays ∞
                        if capacity < remaining - slack {
                            self.flips.push(j);
                            remaining -= capacity;
                        } else {
                            enter = Some(j);
                            break;
                        }
                    }
                    if enter.is_none() {
                        if remaining <= slack {
                            // The capacities summed to the violation up to
                            // roundoff: the last flip candidate is really
                            // the (degenerate) entering variable.
                            enter = self.flips.pop();
                        } else {
                            // Even flipping every candidate cannot absorb
                            // the infeasibility on this pass.
                            self.flips.clear();
                        }
                    }
                }
                if enter.is_some() {
                    break;
                }
            }
            let Some(q) = enter else {
                // No entering column certifies infeasibility — but verify
                // against a fresh factorization once, so stale alphas never
                // fabricate the certificate.
                if retried_infeasible {
                    return Ok(RelaxOutcome::Infeasible);
                }
                retried_infeasible = true;
                self.refactor()?;
                self.compute_duals(CostKind::Phase2);
                continue;
            };
            retried_infeasible = false;

            self.w.iter_mut().for_each(|x| *x = 0.0);
            self.mat.col_axpy(q, 1.0, &mut self.w);
            self.basis.ftran(&mut self.w);
            let wr = self.w[r];
            if wr.abs() <= 1e-8 || (wr - self.alpha[q]).abs() > 1e-6 * (1.0 + wr.abs()) {
                // The row and column views of the pivot disagree: the
                // factorization has drifted. Refactor and retry the
                // iteration (the counter already advanced, so this cannot
                // loop forever within the budget).
                self.refactor()?;
                self.compute_duals(CostKind::Phase2);
                stall += 1;
                continue;
            }

            // Commit the bound flips in one combined update:
            // x_B -= B⁻¹·Σ (a_j · signed range_j).
            if !self.flips.is_empty() {
                self.rho.iter_mut().for_each(|x| *x = 0.0);
                for &j in &self.flips {
                    let range = self.hi[j] - self.lo[j];
                    let (step, to) = match self.vstat[j] {
                        VStat::AtLower => (range, VStat::AtUpper),
                        VStat::AtUpper => (-range, VStat::AtLower),
                        _ => unreachable!("only bounded columns are flipped"),
                    };
                    self.mat.col_axpy(j, step, &mut self.rho);
                    self.vstat[j] = to;
                }
                self.basis.ftran(&mut self.rho);
                for (i, &ui) in self.rho.iter().enumerate() {
                    if ui != 0.0 {
                        self.xb[i] -= ui;
                    }
                }
            }

            let delta = self.xb[r] - target;
            let dx = delta / wr;
            for (i, &wi) in self.w.iter().enumerate() {
                if wi != 0.0 {
                    self.xb[i] -= dx * wi;
                }
            }
            let xq_new = match self.vstat[q] {
                VStat::Free => dx,
                _ => self.nonbasic_value(q) + dx,
            };

            // Incremental dual update: d_j ← d_j − θ·α_j, θ = d_q/α_q. Runs
            // over the *pre-pivot* nonbasic list: q's entry is overwritten
            // by `d[q] = 0` just below, the leaving column is excluded (its
            // α was zero in the fused original, so it never moved), and
            // fixed columns keep their `d = 0` placeholder.
            let theta = self.d[q] / self.alpha[q];
            if theta != 0.0 {
                for &j32 in &self.nonbasic {
                    let j = j32 as usize; // cast-ok: u32 column ids widen losslessly to usize
                    if self.lo[j] >= self.hi[j] {
                        continue;
                    }
                    let a = self.alpha[j];
                    if a != 0.0 {
                        self.d[j] -= theta * a;
                    }
                }
            }
            self.d[col_l] = -theta;
            self.d[q] = 0.0;

            self.vstat[col_l] = if below {
                VStat::AtLower
            } else {
                VStat::AtUpper
            };
            self.basic[r] = q;
            self.vstat[q] = VStat::Basic;
            self.xb[r] = xq_new;
            self.nonbasic_pivot_swap(q, col_l);
            self.lo_b[r] = self.lo[q];
            self.hi_b[r] = self.hi[q];

            // Forrest-Goldfarb steepest-edge update: with tau = B^{-T}w,
            //   gamma_r' = gamma_r / w_r^2,
            //   gamma_i' = gamma_i - 2(w_i/w_r)tau_i + (w_i/w_r)^2 gamma_r.
            self.tau.copy_from_slice(&self.w);
            self.basis.btran(&mut self.tau);
            // The weight refresh and the eta push walk the same nonzeros
            // of `w`, so they share one sweep; per-row updates are
            // independent, making the fused pass bit-identical to two.
            let gamma_r = self.dse[r].max(1e-10);
            let (dse, tau) = (&mut self.dse, &self.tau);
            self.basis.push_pivot_visit(r, &self.w, |i, wi| {
                let ratio_i = wi / wr;
                let g = dse[i] - 2.0 * ratio_i * tau[i] + ratio_i * ratio_i * gamma_r;
                dse[i] = g.max(1e-4);
            });
            self.dse[r] = (gamma_r / (wr * wr)).max(1e-4);

            // Progress = the dual objective gain θ·Δ (a long step's bound
            // flips are progress in themselves); steps that move nothing
            // count toward the stall.
            if (theta * delta).abs() <= 1e-9 && self.flips.is_empty() {
                stall += 1;
            } else {
                stall = 0;
            }
            if self.maybe_refactor()? {
                self.compute_duals(CostKind::Phase2);
            }
        }
    }
}

/// A deterministic pseudo-random value in `[1, 2)` per column index
/// (splitmix64 finalizer), used to size the degeneracy-breaking cost
/// perturbation.
fn hash_unit(j: u64) -> f64 {
    let mut z = j.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    1.0 + (z >> 11) as f64 / (1u64 << 53) as f64 // cast-ok: both operands fit in 53 bits, so the f64s are exact
}

/// The nonbasic resting status nearest to feasibility for given bounds.
fn nearest_status(lo: f64, hi: f64) -> VStat {
    if lo.is_finite() {
        VStat::AtLower
    } else if hi.is_finite() {
        VStat::AtUpper
    } else {
        VStat::Free
    }
}

/// Reports an exhausted pivot loop against the caller's whole budget; a
/// stop passes through unchanged.
fn budget_err(e: LpError, budget: usize) -> LpError {
    match e {
        LpError::IterationLimit(_) => LpError::IterationLimit(budget),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    const ITERS: usize = 100_000;

    fn opt(model: &Model) -> LpSolution {
        match solve_lp(model, ITERS).unwrap() {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_max_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  → (2, 6), obj 36.
        let mut m = Model::new("wyndor");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint("c1", [(x, 1.0)], Sense::Le, 4.0);
        m.add_constraint("c2", [(y, 2.0)], Sense::Le, 12.0);
        m.add_constraint("c3", [(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        m.set_objective_max([(x, 3.0), (y, 5.0)]);
        let s = opt(&m);
        assert!((s.objective - 36.0).abs() < 1e-6);
        assert!((s.x[0] - 2.0).abs() < 1e-6);
        assert!((s.x[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn minimization_with_ge_rows_uses_phase1() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2 → x = 10, y = 0, obj = 20.
        let mut m = Model::new("ge");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint("cover", [(x, 1.0), (y, 1.0)], Sense::Ge, 10.0);
        m.add_constraint("xmin", [(x, 1.0)], Sense::Ge, 2.0);
        m.set_objective_min([(x, 2.0), (y, 3.0)]);
        let s = opt(&m);
        assert!((s.objective - 20.0).abs() < 1e-6, "obj = {}", s.objective);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 6, x − y = 0 → x = y = 2, obj 4.
        let mut m = Model::new("eq");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint("a", [(x, 1.0), (y, 2.0)], Sense::Eq, 6.0);
        m.add_constraint("b", [(x, 1.0), (y, -1.0)], Sense::Eq, 0.0);
        m.set_objective_min([(x, 1.0), (y, 1.0)]);
        let s = opt(&m);
        assert!((s.x[0] - 2.0).abs() < 1e-6);
        assert!((s.x[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new("inf");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint("lo", [(x, 1.0)], Sense::Ge, 2.0);
        assert_eq!(solve_lp(&m, ITERS).unwrap(), LpOutcome::Infeasible);
    }

    #[test]
    fn contradictory_rows_infeasible() {
        let mut m = Model::new("inf2");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint("a", [(x, 1.0), (y, 1.0)], Sense::Eq, 1.0);
        m.add_constraint("b", [(x, 1.0), (y, 1.0)], Sense::Eq, 3.0);
        assert_eq!(solve_lp(&m, ITERS).unwrap(), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new("unb");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.set_objective_max([(x, 1.0)]);
        assert_eq!(solve_lp(&m, ITERS).unwrap(), LpOutcome::Unbounded);
    }

    #[test]
    fn bounded_by_variable_upper_bound() {
        let mut m = Model::new("ub");
        let x = m.add_continuous("x", 0.0, 7.5);
        m.set_objective_max([(x, 2.0)]);
        let s = opt(&m);
        assert!((s.objective - 15.0).abs() < 1e-6);
    }

    #[test]
    fn negative_lower_bounds_shift_correctly() {
        // min x s.t. x >= -5 → x = -5.
        let mut m = Model::new("neg");
        let x = m.add_continuous("x", -5.0, 5.0);
        m.set_objective_min([(x, 1.0)]);
        let s = opt(&m);
        assert!((s.x[0] + 5.0).abs() < 1e-6);
    }

    #[test]
    fn free_variable_split() {
        // min −x + 2y s.t. x + y = 1, x free, y >= 0 → x = 1, obj −1.
        let mut m = Model::new("free");
        let x = m.add_continuous("x", f64::NEG_INFINITY, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint("sum", [(x, 1.0), (y, 1.0)], Sense::Eq, 1.0);
        m.set_objective_min([(x, -1.0), (y, 2.0)]);
        let s = opt(&m);
        assert!((s.x[0] - 1.0).abs() < 1e-6);
        assert!((s.objective + 1.0).abs() < 1e-6);
    }

    #[test]
    fn free_variable_goes_negative() {
        // min x s.t. x free, x + y = 0, 0 <= y <= 3 → x = -3.
        let mut m = Model::new("free2");
        let x = m.add_continuous("x", f64::NEG_INFINITY, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, 3.0);
        m.add_constraint("sum", [(x, 1.0), (y, 1.0)], Sense::Eq, 0.0);
        m.set_objective_min([(x, 1.0)]);
        let s = opt(&m);
        assert!((s.x[0] + 3.0).abs() < 1e-6, "x = {}", s.x[0]);
    }

    #[test]
    fn fixed_variable_via_equal_bounds() {
        let mut m = Model::new("fix");
        let x = m.add_continuous("x", 2.0, 2.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Le, 5.0);
        m.set_objective_max([(y, 1.0)]);
        let s = opt(&m);
        assert!((s.x[0] - 2.0).abs() < 1e-9);
        assert!((s.x[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn beale_cycling_instance_terminates() {
        // Beale's classic cycling example; the stall fallback must end it.
        let mut m = Model::new("beale");
        let x4 = m.add_continuous("x4", 0.0, f64::INFINITY);
        let x5 = m.add_continuous("x5", 0.0, f64::INFINITY);
        let x6 = m.add_continuous("x6", 0.0, f64::INFINITY);
        let x7 = m.add_continuous("x7", 0.0, f64::INFINITY);
        m.add_constraint(
            "r1",
            [(x4, 0.25), (x5, -60.0), (x6, -0.04), (x7, 9.0)],
            Sense::Le,
            0.0,
        );
        m.add_constraint(
            "r2",
            [(x4, 0.5), (x5, -90.0), (x6, -0.02), (x7, 3.0)],
            Sense::Le,
            0.0,
        );
        m.add_constraint("r3", [(x6, 1.0)], Sense::Le, 1.0);
        m.set_objective_min([(x4, -0.75), (x5, 150.0), (x6, -0.02), (x7, 6.0)]);
        let s = opt(&m);
        assert!((s.objective + 0.05).abs() < 1e-6, "obj = {}", s.objective);
    }

    #[test]
    fn degenerate_assignment_lp_is_integral() {
        // 2x2 assignment problem LP relaxation: naturally integral optimum.
        let mut m = Model::new("assign");
        let c = [[4.0, 1.0], [2.0, 3.0]];
        let mut v = [[Var(0); 2]; 2];
        for i in 0..2 {
            for j in 0..2 {
                v[i][j] = m.add_continuous(format!("a{i}{j}"), 0.0, 1.0);
            }
        }
        for i in 0..2 {
            m.add_constraint(
                format!("row{i}"),
                (0..2).map(|j| (v[i][j], 1.0)),
                Sense::Eq,
                1.0,
            );
            m.add_constraint(
                format!("col{i}"),
                (0..2).map(|j| (v[j][i], 1.0)),
                Sense::Eq,
                1.0,
            );
        }
        m.set_objective_min((0..2).flat_map(|i| (0..2).map(move |j| (v[i][j], c[i][j]))));
        let s = opt(&m);
        assert!((s.objective - 3.0).abs() < 1e-6); // a01 + a10 = 1 + 2
    }

    #[test]
    fn bounds_override_tightens_solution() {
        let mut m = Model::new("ovr");
        let x = m.add_continuous("x", 0.0, 10.0);
        m.set_objective_max([(x, 1.0)]);
        let out = solve_lp_with_bounds(&m, &[(0.0, 4.0)], ITERS).unwrap();
        match out {
            LpOutcome::Optimal(s) => assert!((s.x[0] - 4.0).abs() < 1e-6),
            other => panic!("{other:?}"),
        }
        // Inverted override is infeasible.
        let out = solve_lp_with_bounds(&m, &[(5.0, 4.0)], ITERS).unwrap();
        assert_eq!(out, LpOutcome::Infeasible);
    }

    #[test]
    fn trivially_false_empty_row_is_infeasible() {
        let mut m = Model::new("triv");
        let _x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint("nope", [], Sense::Ge, 3.0);
        assert_eq!(solve_lp(&m, ITERS).unwrap(), LpOutcome::Infeasible);
    }

    #[test]
    fn trivially_true_empty_row_is_ignored() {
        let mut m = Model::new("triv2");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint("ok", [], Sense::Le, 3.0);
        m.set_objective_max([(x, 1.0)]);
        let s = opt(&m);
        assert!((s.x[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let mut m = Model::new("limit");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Le, 15.0);
        m.set_objective_max([(x, 1.0), (y, 1.0)]);
        assert!(matches!(solve_lp(&m, 0), Err(LpError::IterationLimit(0))));
    }

    #[test]
    fn warm_solve_reuses_the_parent_basis() {
        // Knapsack LP: solve, tighten one variable, dual re-optimize from
        // the snapshot; the result must match a cold solve of the child.
        let mut m = Model::new("warm");
        let items = [(10.0, 60.0), (20.0, 100.0), (30.0, 120.0)];
        let vars: Vec<Var> = (0..3).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_constraint(
            "cap",
            vars.iter().zip(&items).map(|(&v, &(w, _))| (v, w)),
            Sense::Le,
            50.0,
        );
        m.set_objective_max(vars.iter().zip(&items).map(|(&v, &(_, p))| (v, p)));
        let mut ws = Workspace::new(&m);
        ws.set_bounds_full(&[(0.0, 1.0); 3]);
        assert_eq!(
            ws.solve_root(ITERS, &|| false).unwrap(),
            RelaxOutcome::Optimal
        );
        let root_obj = ws.objective_internal();
        let mut snap = Vec::new();
        ws.snapshot_into(&mut snap);
        let root_iters = ws.iterations();

        // Child: x2 <= 0.
        ws.set_bound(2, 0.0, 0.0);
        assert_eq!(
            ws.warm_solve(&snap, ITERS, &|| false).unwrap(),
            RelaxOutcome::Optimal
        );
        let warm_obj = ws.objective_internal();
        let warm_pivots = ws.iterations() - root_iters;

        let cold = solve_lp_with_bounds(&m, &[(0.0, 1.0), (0.0, 1.0), (0.0, 0.0)], ITERS).unwrap();
        let LpOutcome::Optimal(cold) = cold else {
            panic!("{cold:?}");
        };
        // Internal orientation is minimization of the negated objective.
        assert!(
            (warm_obj - -cold.objective).abs() < 1e-6,
            "warm {warm_obj} vs cold {}",
            -cold.objective
        );
        // Root LP relaxation: x0 = x1 = 1, x2 = 2/3 → 240.
        assert!((root_obj + 240.0).abs() < 1e-4, "root {root_obj}");
        assert!(
            warm_pivots <= 3,
            "a one-bound change must cost a handful of dual pivots, took {warm_pivots}"
        );
    }

    #[test]
    fn reoptimize_after_in_place_bound_change() {
        let mut m = Model::new("dive");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Le, 12.0);
        m.set_objective_max([(x, 2.0), (y, 1.0)]);
        let mut ws = Workspace::new(&m);
        ws.set_bounds_full(&[(0.0, 10.0), (0.0, 10.0)]);
        assert_eq!(
            ws.solve_root(ITERS, &|| false).unwrap(),
            RelaxOutcome::Optimal
        );
        assert!((ws.objective_internal() - -22.0).abs() < 1e-6); // x=10,y=2
        ws.set_bound(0, 0.0, 4.0);
        assert_eq!(
            ws.reoptimize(ITERS, &|| false).unwrap(),
            RelaxOutcome::Optimal
        );
        assert!((ws.objective_internal() - -16.0).abs() < 1e-6); // x=4,y=8
        let x_now = ws.extract_x();
        assert!((x_now[0] - 4.0).abs() < 1e-6);
        assert!((x_now[1] - 8.0).abs() < 1e-6);
    }
}
