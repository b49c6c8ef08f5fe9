//! Property tests: the warm-started sparse branch-and-bound must agree
//! with the exhaustive 0/1 oracle on feasibility and objective, and a
//! search stopped part-way must stay sound against the same oracle.

use proptest::prelude::*;
use sparcs_ilp::enumerate::{brute_force, EnumOutcome};
use sparcs_ilp::{solve, Model, Sense, SolveError, SolveOptions, Status, Var};
use std::cell::Cell;

/// A randomly generated small 0/1 model: up to 7 binaries, up to 5 rows of
/// small integer coefficients (integral data keeps objective gaps >= 1, so
/// "agree within tolerance" means "agree exactly" for these).
#[derive(Debug, Clone)]
struct RandomModel {
    n: usize,
    rows: Vec<(Vec<i64>, u8, i64)>,
    objective: Vec<i64>,
    maximize: bool,
}

fn build(spec: &RandomModel) -> Model {
    let mut m = Model::new("prop");
    let vars: Vec<Var> = (0..spec.n).map(|i| m.add_binary(format!("x{i}"))).collect();
    for (ri, (coeffs, sense, rhs)) in spec.rows.iter().enumerate() {
        let sense = match sense % 3 {
            0 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        };
        m.add_constraint(
            format!("r{ri}"),
            vars.iter().zip(coeffs).map(|(&v, &c)| (v, c as f64)),
            sense,
            *rhs as f64,
        );
    }
    let obj = vars
        .iter()
        .zip(&spec.objective)
        .map(|(&v, &c)| (v, c as f64));
    if spec.maximize {
        m.set_objective_max(obj);
    } else {
        m.set_objective_min(obj);
    }
    m
}

fn model_strategy() -> impl Strategy<Value = RandomModel> {
    (
        2usize..=7,
        prop::collection::vec(
            (prop::collection::vec(-5i64..=5, 7), any::<u8>(), -6i64..=6),
            1..=5,
        ),
        prop::collection::vec(-9i64..=9, 7),
        any::<bool>(),
    )
        .prop_map(|(n, raw_rows, raw_obj, maximize)| RandomModel {
            n,
            rows: raw_rows
                .into_iter()
                .map(|(mut coeffs, sense, rhs)| {
                    coeffs.truncate(n);
                    (coeffs, sense, rhs)
                })
                .collect(),
            objective: {
                let mut o = raw_obj;
                o.truncate(n);
                o
            },
            maximize,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Branch-and-bound agrees with the exhaustive oracle on feasibility
    /// and (for feasible models) on the objective, and its witness is
    /// model-feasible.
    #[test]
    fn matches_brute_force_oracle(spec in model_strategy()) {
        let m = build(&spec);
        let oracle = brute_force(&m, 1e-7).expect("pure binary by construction");
        let bb = solve(&m, &SolveOptions::default(), &|| false);
        match (oracle, bb) {
            (EnumOutcome::Infeasible, Err(SolveError::Infeasible)) => {}
            (EnumOutcome::Optimal { objective, .. }, Ok(sol)) => {
                prop_assert!(
                    (objective - sol.objective).abs() < 1e-6,
                    "oracle {} vs solver {}\nmodel: {}",
                    objective,
                    sol.objective,
                    m.to_lp_format()
                );
                prop_assert!(
                    m.violations(&sol.x, 1e-6).is_empty(),
                    "witness violates: {:?}",
                    m.violations(&sol.x, 1e-6)
                );
            }
            (o, b) => prop_assert!(
                false,
                "disagree: oracle {o:?} vs solver {b:?}\nmodel: {}",
                m.to_lp_format()
            ),
        }
    }

    /// A search whose stop signal fires on its k-th poll keeps the
    /// oracle's promises: any incumbent it returns is feasible and no
    /// better than the optimum, the reported bound still covers the
    /// optimum, and at most k nodes were explored. With nothing in hand it
    /// reports `Cancelled`; a search that finishes first agrees with the
    /// oracle exactly.
    #[test]
    fn stopping_after_k_polls_stays_sound(spec in model_strategy(), k in 1usize..16) {
        let m = build(&spec);
        let oracle = brute_force(&m, 1e-7).expect("pure binary by construction");
        let polls = Cell::new(0usize);
        let stop = || {
            polls.set(polls.get() + 1);
            polls.get() >= k
        };
        match (oracle, solve(&m, &SolveOptions::default(), &stop)) {
            (_, Err(SolveError::Cancelled)) | (EnumOutcome::Infeasible, Err(SolveError::Infeasible)) => {}
            (EnumOutcome::Optimal { objective, .. }, Ok(sol)) => {
                prop_assert!(sol.nodes <= k, "k {k}: {} nodes", sol.nodes);
                prop_assert!(m.violations(&sol.x, 1e-6).is_empty());
                // In the minimization orientation: bound ≤ optimum ≤ incumbent.
                let sign = if spec.maximize { -1.0 } else { 1.0 };
                prop_assert!(
                    sign * objective <= sign * sol.objective + 1e-6,
                    "k {k}: incumbent {} beats the optimum {objective}\nmodel: {}",
                    sol.objective,
                    m.to_lp_format()
                );
                prop_assert!(
                    sign * sol.bound <= sign * objective + 1e-5,
                    "k {k}: bound {} excludes the optimum {objective}\nmodel: {}",
                    sol.bound,
                    m.to_lp_format()
                );
                if sol.status == Status::Optimal {
                    prop_assert!((objective - sol.objective).abs() < 1e-6);
                }
            }
            (o, b) => prop_assert!(
                false,
                "k {k}: oracle {o:?} vs solver {b:?}\nmodel: {}",
                m.to_lp_format()
            ),
        }
    }
}
