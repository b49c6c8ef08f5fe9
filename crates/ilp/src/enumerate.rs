//! Exhaustive 0/1 enumeration — a test oracle for the branch-and-bound
//! solver.
//!
//! Only models whose integer variables are all *binary* are supported, and
//! continuous variables must be absent (the oracle enumerates corners, it
//! does not solve LPs). Complexity is `O(2^n)`: use on tiny models only.

use crate::model::{Model, VarKind};

/// Result of exhaustive enumeration.
#[derive(Debug, Clone, PartialEq)]
pub enum EnumOutcome {
    /// Best feasible assignment and its objective.
    Optimal {
        /// The optimal 0/1 assignment.
        x: Vec<f64>,
        /// Its objective value.
        objective: f64,
    },
    /// No corner satisfies the constraints.
    Infeasible,
}

/// Errors from [`brute_force`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnumError {
    /// The model contains a continuous or general-integer variable.
    NotPureBinary,
    /// Too many binaries to enumerate (`n > 24`).
    TooLarge(usize),
}

impl std::fmt::Display for EnumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnumError::NotPureBinary => write!(f, "model is not pure binary"),
            EnumError::TooLarge(n) => write!(f, "{n} binaries is too many to enumerate"),
        }
    }
}

impl std::error::Error for EnumError {}

/// Enumerates every 0/1 corner and returns the best feasible one.
///
/// # Errors
///
/// [`EnumError::NotPureBinary`] if any variable is continuous or general
/// integer; [`EnumError::TooLarge`] beyond 24 variables.
pub fn brute_force(model: &Model, tol: f64) -> Result<EnumOutcome, EnumError> {
    let n = model.var_count();
    for i in 0..n {
        if model.var_kind(crate::model::Var(i as u32)) != VarKind::Binary {
            return Err(EnumError::NotPureBinary);
        }
    }
    if n > 24 {
        return Err(EnumError::TooLarge(n));
    }
    let maximize = model.objective().is_max();
    let mut best: Option<(Vec<f64>, f64)> = None;
    for mask in 0u32..(1u32 << n) {
        let x: Vec<f64> = (0..n)
            .map(|i| if mask >> i & 1 == 1 { 1.0 } else { 0.0 })
            .collect();
        if !model.violations(&x, tol).is_empty() {
            continue;
        }
        let obj = model.objective().expr().eval(&x);
        let better = match &best {
            None => true,
            Some((_, b)) => {
                if maximize {
                    obj > *b
                } else {
                    obj < *b
                }
            }
        };
        if better {
            best = Some((x, obj));
        }
    }
    Ok(match best {
        Some((x, objective)) => EnumOutcome::Optimal { x, objective },
        None => EnumOutcome::Infeasible,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::{solve, SolveError, SolveOptions};
    use crate::model::{Model, Sense, Var};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rejects_non_binary_models() {
        let mut m = Model::new("c");
        m.add_continuous("x", 0.0, 1.0);
        assert_eq!(brute_force(&m, 1e-9), Err(EnumError::NotPureBinary));
    }

    #[test]
    fn rejects_oversized_models() {
        let mut m = Model::new("big");
        for i in 0..25 {
            m.add_binary(format!("x{i}"));
        }
        assert_eq!(brute_force(&m, 1e-9), Err(EnumError::TooLarge(25)));
    }

    /// Random small binary programs: branch-and-bound must agree with the
    /// brute-force oracle on feasibility and objective value.
    #[test]
    fn branch_and_bound_matches_oracle_on_random_models() {
        let mut rng = StdRng::seed_from_u64(0xDAC99);
        for trial in 0..60 {
            let n = rng.gen_range(2..=8);
            let rows = rng.gen_range(1..=5);
            let mut m = Model::new(format!("rand{trial}"));
            let vars: Vec<Var> = (0..n).map(|i| m.add_binary(format!("x{i}"))).collect();
            for r in 0..rows {
                let terms: Vec<(Var, f64)> = vars
                    .iter()
                    .map(|&v| (v, rng.gen_range(-5..=5) as f64))
                    .collect();
                let sense = match rng.gen_range(0..3) {
                    0 => Sense::Le,
                    1 => Sense::Ge,
                    _ => Sense::Eq,
                };
                let rhs = rng.gen_range(-6..=6) as f64;
                m.add_constraint(format!("r{r}"), terms, sense, rhs);
            }
            let obj: Vec<(Var, f64)> = vars
                .iter()
                .map(|&v| (v, rng.gen_range(-9..=9) as f64))
                .collect();
            if rng.gen_bool(0.5) {
                m.set_objective_max(obj);
            } else {
                m.set_objective_min(obj);
            }

            let oracle = brute_force(&m, 1e-7).unwrap();
            let bb = solve(&m, &SolveOptions::default(), &|| false);
            match (oracle, bb) {
                (EnumOutcome::Infeasible, Err(SolveError::Infeasible)) => {}
                (EnumOutcome::Optimal { objective, .. }, Ok(sol)) => {
                    assert!(
                        (objective - sol.objective).abs() < 1e-6,
                        "trial {trial}: oracle {objective} vs bb {} \nmodel: {}",
                        sol.objective,
                        m.to_lp_format()
                    );
                    assert!(m.violations(&sol.x, 1e-6).is_empty());
                }
                (o, b) => panic!("trial {trial}: oracle {o:?} vs bb {b:?}"),
            }
        }
    }
}
