//! Mathematical-programming model builder.
//!
//! A [`Model`] collects variables, linear constraints and a linear objective.
//! It is solver-agnostic data: [`crate::simplex`] solves its continuous
//! relaxation, [`crate::branch`] its mixed 0/1-integer form. The builder also
//! provides the *linearization* helper the paper cites ("linearization
//! techniques have been used successfully before in \[7\]"): products of two
//! binary variables become a fresh binary with three inequality rows.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Handle to a model variable (dense index).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Var(pub u32);

impl Var {
    /// Dense index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Integrality class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VarKind {
    /// Continuous within its bounds.
    Continuous,
    /// Binary: integer restricted to {0, 1}.
    Binary,
    /// General integer within its bounds.
    Integer,
}

/// Comparison sense of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sense {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

impl fmt::Display for Sense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sense::Le => "<=",
            Sense::Ge => ">=",
            Sense::Eq => "=",
        })
    }
}

/// A linear expression `Σ coeff_i · var_i` (terms with duplicate variables
/// are merged on construction).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct LinExpr {
    /// `(variable, coefficient)` pairs, sorted by variable, coefficients
    /// nonzero and merged.
    pub terms: Vec<(Var, f64)>,
}

impl LinExpr {
    /// Builds an expression from an iterator of terms, merging duplicates and
    /// dropping zero coefficients.
    pub fn new(terms: impl IntoIterator<Item = (Var, f64)>) -> Self {
        let mut v: Vec<(Var, f64)> = terms.into_iter().collect();
        v.sort_by_key(|(var, _)| *var);
        let mut merged: Vec<(Var, f64)> = Vec::with_capacity(v.len());
        for (var, c) in v {
            match merged.last_mut() {
                Some((lv, lc)) if *lv == var => *lc += c,
                _ => merged.push((var, c)),
            }
        }
        merged.retain(|(_, c)| *c != 0.0);
        LinExpr { terms: merged }
    }

    /// A single-variable expression `1·v`.
    pub fn var(v: Var) -> Self {
        LinExpr {
            terms: vec![(v, 1.0)],
        }
    }

    /// Evaluates the expression for the given dense assignment.
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.terms.iter().map(|(v, c)| c * x[v.index()]).sum()
    }
}

impl FromIterator<(Var, f64)> for LinExpr {
    fn from_iter<I: IntoIterator<Item = (Var, f64)>>(iter: I) -> Self {
        LinExpr::new(iter)
    }
}

/// One constraint row `expr (≤|≥|=) rhs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Diagnostic name (shows up in infeasibility reports and LP export).
    pub name: String,
    /// Left-hand side.
    pub expr: LinExpr,
    /// Comparison sense.
    pub sense: Sense,
    /// Right-hand side constant.
    pub rhs: f64,
}

impl Constraint {
    /// Whether the assignment `x` satisfies this row within `tol`.
    pub fn satisfied_by(&self, x: &[f64], tol: f64) -> bool {
        let lhs = self.expr.eval(x);
        match self.sense {
            Sense::Le => lhs <= self.rhs + tol,
            Sense::Ge => lhs >= self.rhs - tol,
            Sense::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// Optimization direction plus linear objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize the expression.
    Minimize(LinExpr),
    /// Maximize the expression.
    Maximize(LinExpr),
}

impl Objective {
    /// The underlying expression.
    pub fn expr(&self) -> &LinExpr {
        match self {
            Objective::Minimize(e) | Objective::Maximize(e) => e,
        }
    }

    /// `true` for maximization.
    pub fn is_max(&self) -> bool {
        matches!(self, Objective::Maximize(_))
    }
}

/// Errors detected while building or validating a model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A variable's lower bound exceeds its upper bound.
    InvertedBounds(Var),
    /// A coefficient or bound is NaN/infinite where a finite value is needed.
    NonFinite(String),
    /// A referenced variable does not belong to this model.
    UnknownVar(Var),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvertedBounds(v) => write!(f, "variable {v} has lo > hi"),
            ModelError::NonFinite(what) => write!(f, "non-finite value in {what}"),
            ModelError::UnknownVar(v) => write!(f, "variable {v} not in model"),
        }
    }
}

impl std::error::Error for ModelError {}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct VarData {
    pub name: String,
    pub kind: VarKind,
    pub lo: f64,
    pub hi: f64,
}

/// A mixed 0/1-integer linear program.
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    name: String,
    pub(crate) vars: Vec<VarData>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: Objective,
}

impl Model {
    /// Creates an empty model (objective defaults to `Minimize 0`).
    pub fn new(name: impl Into<String>) -> Self {
        Model {
            name: name.into(),
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: Objective::Minimize(LinExpr::default()),
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a continuous variable with bounds `[lo, hi]` (`hi` may be
    /// `f64::INFINITY`).
    pub fn add_continuous(&mut self, name: impl Into<String>, lo: f64, hi: f64) -> Var {
        self.push_var(name.into(), VarKind::Continuous, lo, hi)
    }

    /// Adds a binary variable (`{0, 1}`).
    pub fn add_binary(&mut self, name: impl Into<String>) -> Var {
        self.push_var(name.into(), VarKind::Binary, 0.0, 1.0)
    }

    /// Adds a general integer variable with inclusive bounds.
    pub fn add_integer(&mut self, name: impl Into<String>, lo: f64, hi: f64) -> Var {
        self.push_var(name.into(), VarKind::Integer, lo, hi)
    }

    fn push_var(&mut self, name: String, kind: VarKind, lo: f64, hi: f64) -> Var {
        let v = Var(self.vars.len() as u32);
        self.vars.push(VarData { name, kind, lo, hi });
        v
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var_name(&self, v: Var) -> &str {
        &self.vars[v.index()].name
    }

    /// Kind of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var_kind(&self, v: Var) -> VarKind {
        self.vars[v.index()].kind
    }

    /// Bounds of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var_bounds(&self, v: Var) -> (f64, f64) {
        let d = &self.vars[v.index()];
        (d.lo, d.hi)
    }

    /// The constraint rows.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// Adds a constraint `Σ terms (sense) rhs`.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: impl IntoIterator<Item = (Var, f64)>,
        sense: Sense,
        rhs: f64,
    ) {
        self.constraints.push(Constraint {
            name: name.into(),
            expr: LinExpr::new(terms),
            sense,
            rhs,
        });
    }

    /// Sets a minimization objective.
    pub fn set_objective_min(&mut self, terms: impl IntoIterator<Item = (Var, f64)>) {
        self.objective = Objective::Minimize(LinExpr::new(terms));
    }

    /// Sets a maximization objective.
    pub fn set_objective_max(&mut self, terms: impl IntoIterator<Item = (Var, f64)>) {
        self.objective = Objective::Maximize(LinExpr::new(terms));
    }

    /// Linearizes the product `z = x · y` of two *binary* variables.
    ///
    /// Adds a fresh binary `z` with the classic three rows
    /// `z ≤ x`, `z ≤ y`, `z ≥ x + y − 1` and returns it. This is the
    /// transformation the paper applies to its Equations (4)–(5).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `x` or `y` is not binary.
    pub fn add_binary_product(&mut self, name: impl Into<String>, x: Var, y: Var) -> Var {
        debug_assert_eq!(self.var_kind(x), VarKind::Binary);
        debug_assert_eq!(self.var_kind(y), VarKind::Binary);
        let name = name.into();
        let z = self.add_binary(name.clone());
        self.add_constraint(
            format!("{name}_le_x"),
            [(z, 1.0), (x, -1.0)],
            Sense::Le,
            0.0,
        );
        self.add_constraint(
            format!("{name}_le_y"),
            [(z, 1.0), (y, -1.0)],
            Sense::Le,
            0.0,
        );
        self.add_constraint(
            format!("{name}_ge_sum"),
            [(z, 1.0), (x, -1.0), (y, -1.0)],
            Sense::Ge,
            -1.0,
        );
        z
    }

    /// The constraint matrix in column-major nonzero form: entry `j` lists
    /// the `(row, coefficient)` pairs of variable `j`'s column, with
    /// `scale_row(i)` applied to row `i` (pass `|_| 1.0` for the raw
    /// matrix). This is the hand-off to the sparse revised simplex
    /// ([`crate::sparse::SparseMat::from_columns`]); building it here keeps
    /// the row-major builder representation a [`Model`] implementation
    /// detail.
    pub fn columns(&self, scale_row: impl Fn(usize) -> f64) -> Vec<Vec<(usize, f64)>> {
        let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.vars.len()];
        for (i, c) in self.constraints.iter().enumerate() {
            let s = scale_row(i);
            for &(v, coef) in &c.expr.terms {
                if coef != 0.0 {
                    columns[v.index()].push((i, coef * s));
                }
            }
        }
        columns
    }

    /// Validates variable bounds, coefficient finiteness and variable
    /// references.
    ///
    /// # Errors
    ///
    /// Returns the first [`ModelError`] found.
    pub fn validate(&self) -> Result<(), ModelError> {
        for (i, d) in self.vars.iter().enumerate() {
            let v = Var(i as u32);
            if !d.lo.is_finite() && d.lo != f64::NEG_INFINITY {
                return Err(ModelError::NonFinite(format!("lower bound of {v}")));
            }
            if !d.hi.is_finite() && d.hi != f64::INFINITY {
                return Err(ModelError::NonFinite(format!("upper bound of {v}")));
            }
            if d.lo > d.hi {
                return Err(ModelError::InvertedBounds(v));
            }
        }
        let check_expr = |e: &LinExpr, what: &str| -> Result<(), ModelError> {
            for &(v, c) in &e.terms {
                if v.index() >= self.vars.len() {
                    return Err(ModelError::UnknownVar(v));
                }
                if !c.is_finite() {
                    return Err(ModelError::NonFinite(format!("coefficient in {what}")));
                }
            }
            Ok(())
        };
        for c in &self.constraints {
            check_expr(&c.expr, &c.name)?;
            if !c.rhs.is_finite() {
                return Err(ModelError::NonFinite(format!("rhs of {}", c.name)));
            }
        }
        check_expr(self.objective.expr(), "objective")?;
        Ok(())
    }

    /// Checks a full assignment against every constraint, bound and
    /// integrality restriction; returns the names of violated items.
    pub fn violations(&self, x: &[f64], tol: f64) -> Vec<String> {
        let mut out = Vec::new();
        for (i, d) in self.vars.iter().enumerate() {
            let xi = x[i];
            if xi < d.lo - tol || xi > d.hi + tol {
                out.push(format!("bounds of {}", d.name));
            }
            if matches!(d.kind, VarKind::Binary | VarKind::Integer) && (xi - xi.round()).abs() > tol
            {
                out.push(format!("integrality of {}", d.name));
            }
        }
        for c in &self.constraints {
            if !c.satisfied_by(x, tol) {
                out.push(c.name.clone());
            }
        }
        out
    }

    /// Exports the model in CPLEX LP file format (for debugging / external
    /// cross-checks).
    pub fn to_lp_format(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "\\ model {}", self.name);
        let dir = if self.objective.is_max() {
            "Maximize"
        } else {
            "Minimize"
        };
        let _ = writeln!(s, "{dir}");
        let _ = write!(s, " obj:");
        for (v, c) in &self.objective.expr().terms {
            let _ = write!(s, " {c:+} {}", self.vars[v.index()].name);
        }
        let _ = writeln!(s, "\nSubject To");
        for c in &self.constraints {
            let _ = write!(s, " {}:", c.name);
            for (v, coef) in &c.expr.terms {
                let _ = write!(s, " {coef:+} {}", self.vars[v.index()].name);
            }
            let _ = writeln!(s, " {} {}", c.sense, c.rhs);
        }
        let _ = writeln!(s, "Bounds");
        for d in &self.vars {
            let _ = writeln!(s, " {} <= {} <= {}", d.lo, d.name, d.hi);
        }
        let _ = writeln!(s, "Binaries");
        for d in &self.vars {
            if d.kind == VarKind::Binary {
                let _ = writeln!(s, " {}", d.name);
            }
        }
        let _ = writeln!(s, "End");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linexpr_merges_and_drops_zeros() {
        let e = LinExpr::new([(Var(1), 2.0), (Var(0), 1.0), (Var(1), 3.0), (Var(2), 0.0)]);
        assert_eq!(e.terms, vec![(Var(0), 1.0), (Var(1), 5.0)]);
        assert_eq!(e.eval(&[10.0, 1.0, 99.0]), 15.0);
    }

    #[test]
    fn linexpr_cancels_to_empty() {
        let e = LinExpr::new([(Var(0), 2.5), (Var(0), -2.5)]);
        assert!(e.terms.is_empty());
    }

    #[test]
    fn constraint_satisfaction() {
        let c = Constraint {
            name: "c".into(),
            expr: LinExpr::new([(Var(0), 1.0), (Var(1), 1.0)]),
            sense: Sense::Le,
            rhs: 3.0,
        };
        assert!(c.satisfied_by(&[1.0, 2.0], 1e-9));
        assert!(!c.satisfied_by(&[2.0, 2.0], 1e-9));
        let eq = Constraint {
            sense: Sense::Eq,
            ..c.clone()
        };
        assert!(eq.satisfied_by(&[1.5, 1.5], 1e-9));
        assert!(!eq.satisfied_by(&[1.0, 1.0], 1e-9));
    }

    #[test]
    fn binary_product_linearization_is_exact() {
        // For all four corners of (x, y), z must equal x*y under the rows.
        for (xv, yv) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            let mut m = Model::new("prod");
            let x = m.add_binary("x");
            let y = m.add_binary("y");
            let z = m.add_binary_product("z", x, y);
            // The rows force z == x*y at binary corners: check both candidate
            // values of z and confirm exactly x*y survives.
            let mut feasible = Vec::new();
            for zv in [0.0, 1.0] {
                let mut assignment = vec![0.0; m.var_count()];
                assignment[x.index()] = xv;
                assignment[y.index()] = yv;
                assignment[z.index()] = zv;
                if m.violations(&assignment, 1e-9).is_empty() {
                    feasible.push(zv);
                }
            }
            assert_eq!(feasible, vec![xv * yv], "x={xv} y={yv}");
        }
    }

    #[test]
    fn validate_catches_inverted_bounds_and_unknown_vars() {
        let mut m = Model::new("bad");
        let v = m.add_continuous("v", 2.0, 1.0);
        assert_eq!(m.validate(), Err(ModelError::InvertedBounds(v)));

        let mut m2 = Model::new("bad2");
        let _ = m2.add_binary("x");
        m2.add_constraint("ghost", [(Var(9), 1.0)], Sense::Le, 0.0);
        assert_eq!(m2.validate(), Err(ModelError::UnknownVar(Var(9))));
    }

    #[test]
    fn validate_catches_nan() {
        let mut m = Model::new("nan");
        let x = m.add_binary("x");
        m.add_constraint("c", [(x, f64::NAN)], Sense::Le, 1.0);
        assert!(matches!(m.validate(), Err(ModelError::NonFinite(_))));
    }

    #[test]
    fn violations_reports_bounds_integrality_and_rows() {
        let mut m = Model::new("v");
        let x = m.add_binary("x");
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constraint("cap", [(x, 1.0), (y, 1.0)], Sense::Le, 5.0);
        let bad = {
            let mut a = vec![0.0; 2];
            a[x.index()] = 0.5; // fractional
            a[y.index()] = 11.0; // out of bounds, row violated
            a
        };
        let v = m.violations(&bad, 1e-9);
        assert!(v.iter().any(|s| s.contains("integrality")));
        assert!(v.iter().any(|s| s.contains("bounds")));
        assert!(v.iter().any(|s| s == "cap"));
    }

    #[test]
    fn lp_export_mentions_everything() {
        let mut m = Model::new("exp");
        let x = m.add_binary("pick");
        let y = m.add_continuous("load", 0.0, 4.0);
        m.add_constraint("row1", [(x, 3.0), (y, 1.0)], Sense::Ge, 2.0);
        m.set_objective_min([(y, 1.0)]);
        let lp = m.to_lp_format();
        assert!(lp.contains("Minimize"));
        assert!(lp.contains("row1"));
        assert!(lp.contains("pick"));
        assert!(lp.contains(">= 2"));
        assert!(lp.contains("Binaries"));
    }
}
