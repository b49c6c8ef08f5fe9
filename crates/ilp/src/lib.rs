//! # sparcs-ilp — a linear-programming and 0/1 mixed-integer solver
//!
//! The DAC'99 temporal-partitioning paper solves its model with CPLEX. No
//! commercial solver is available to this reproduction, so this crate is a
//! from-scratch exact solver sized for the paper's models (hundreds of
//! variables and constraints), built the way production MILP codes are:
//!
//! * [`Model`] — a mathematical-programming model builder: continuous,
//!   integer and binary variables with bounds, linear constraints, a linear
//!   objective, and the product-linearization helpers the paper relies on to
//!   turn `w ≥ y·y` into linear rows.
//! * [`sparse`] — compressed-column storage for the constraint matrix.
//! * [`basis`] — the product-form basis factorization (eta file +
//!   sparsity-ordered reinversion) behind every `B⁻¹` application.
//! * [`kernels`] — the loop-fissioned hot-path kernels of the dual simplex
//!   (pure candidate scans split from the recurrence-carrying selection
//!   passes, the paper's own transformation applied to the solver), with
//!   the fused scalar originals kept as the reference specification.
//! * [`simplex`] — a sparse revised simplex over implicit variable bounds:
//!   a bounded primal (phase 1/2 fallback) and a dual simplex with
//!   steepest-edge pricing and a bound-flipping ratio test, able to
//!   re-optimize from a warm basis after bound changes in a handful of
//!   pivots.
//! * [`branch`] — warm-started branch-and-bound: best-bound/dive hybrid
//!   search, parent-pointer bound deltas, reduced-cost fixing. It runs on
//!   the calling thread, deterministic node for node, and stops only when
//!   the caller's `stop` signal fires. Phase 1 runs once at the root, never
//!   per node.
//! * [`enumerate`] — an exponential 0/1 enumeration solver used as a test
//!   oracle on tiny models.
//!
//! # Example: a 0/1 knapsack
//!
//! ```
//! use sparcs_ilp::{Model, Sense, SolveOptions};
//!
//! # fn main() -> Result<(), sparcs_ilp::SolveError> {
//! let mut m = Model::new("knapsack");
//! let items = [(10.0, 60.0), (20.0, 100.0), (30.0, 120.0)];
//! let vars: Vec<_> = items
//!     .iter()
//!     .enumerate()
//!     .map(|(i, _)| m.add_binary(format!("x{i}")))
//!     .collect();
//! // capacity 50
//! m.add_constraint(
//!     "cap",
//!     vars.iter().zip(&items).map(|(&v, &(w, _))| (v, w)),
//!     Sense::Le,
//!     50.0,
//! );
//! m.set_objective_max(vars.iter().zip(&items).map(|(&v, &(_, p))| (v, p)));
//! let sol = sparcs_ilp::solve(&m, &SolveOptions::default(), &|| false)?;
//! assert!((sol.objective - 220.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basis;
pub mod branch;
pub mod enumerate;
pub mod kernels;
pub mod model;
pub mod simplex;
pub mod sparse;

pub use branch::{solve, Solution, SolveError, SolveOptions, Status};
pub use model::{Constraint, LinExpr, Model, ModelError, Objective, Sense, Var, VarKind};
pub use simplex::{LpOutcome, LpSolution};
