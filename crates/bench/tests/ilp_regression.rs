//! Deterministic solver regression guards on the pinned §4 DCT model.
//!
//! Wall time is too noisy for CI, but the branch-and-bound is
//! deterministic node-for-node, so node counts make a stable regression
//! axis: the warm-started solver must never explore more nodes than the
//! seed dense-tableau solver did on the same model (409 at N = 3), must
//! run phase 1 exactly once (the dual warm start's whole point), and must
//! keep the §4 optimum bit-stable.

use sparcs_core::model::{build_model, ModelConfig, PartitionModel};
use sparcs_ilp::{solve, SolveOptions, Status};
use sparcs_jpeg::{dct_task_graph, EstimateBackend};

/// The seed solver's node count on the DCT model at N = 3 (measured at the
/// parent commit; recorded in `BENCH_ilp.json` as `seed_baseline`).
const SEED_NODES_N3: usize = 409;

/// The §4 DCT model at partition bound `n`, with the declared row symmetry.
fn dct_model(n: u32) -> PartitionModel {
    let dct = dct_task_graph(EstimateBackend::PaperCalibrated).expect("graph builds");
    let arch = sparcs_estimate::Architecture::xc4044_wildforce();
    let cfg = ModelConfig {
        declared_symmetry: dct.symmetry_groups.clone(),
        ..ModelConfig::default()
    };
    build_model(&dct.graph, &arch, n, &cfg).expect("model builds")
}

fn solve_dct_n3() -> sparcs_ilp::Solution {
    solve(&dct_model(3).model, &SolveOptions::default(), &|| false).expect("model is feasible")
}

#[test]
fn warm_started_solver_explores_no_more_nodes_than_the_seed() {
    let sol = solve_dct_n3();
    assert!((sol.objective - 8_440.0).abs() < 1e-6, "§4 optimum moved");
    assert_eq!(sol.status, Status::Optimal);
    assert!(
        sol.nodes <= SEED_NODES_N3,
        "node regression: {} explored, seed needed {SEED_NODES_N3}",
        sol.nodes
    );
    assert_eq!(
        sol.cold_solves, 1,
        "phase 1 must run once at the root, never per node"
    );
    assert!(sol.pivots > 0);
}

/// The search order is pinned, not just repeatable: N = 3 takes exactly
/// the node and pivot counts recorded as `prefission_baseline` in
/// `BENCH_ilp.json`, in debug and release builds alike.
#[test]
fn serial_dct_solve_is_deterministic() {
    let a = solve_dct_n3();
    let b = solve_dct_n3();
    assert_eq!(
        (a.nodes, a.pivots),
        (232, 3_935),
        "the N = 3 search order moved"
    );
    assert_eq!(a.nodes, b.nodes);
    assert_eq!(a.pivots, b.pivots);
    assert_eq!(a.x, b.x);
}

/// The acceptance gate's root-bound regression: injecting the analyzer's
/// certified critical-path bound as `SolveOptions::root_bound` (exactly
/// what `FlowSession::explore` does) still proves the §4 N = 4 optimum
/// bit-stable, never explores more nodes than the PR 7 pre-fission
/// baseline (417), and floors the reported proof bound at the injection.
#[test]
fn injected_root_bound_preserves_the_n4_objective_and_node_budget() {
    const PREFISSION_NODES_N4: usize = 417;
    let dct = dct_task_graph(EstimateBackend::PaperCalibrated).expect("graph builds");
    let pm = dct_model(4);
    let cp = sparcs_analyze::critical_path_lb_ns(&dct.graph).expect("DCT graph is a DAG");
    assert_eq!(cp, 5_920, "the DCT's certified critical path moved");
    let sol = solve(
        &pm.model,
        &SolveOptions {
            root_bound: Some(cp as f64), // cast-ok: exact below 2^53
            ..SolveOptions::default()
        },
        &|| false,
    )
    .expect("model is feasible");
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective - 8_440.0).abs() < 1e-6, "§4 optimum moved");
    assert!(
        sol.nodes <= PREFISSION_NODES_N4,
        "node regression under a root bound: {} explored, baseline {PREFISSION_NODES_N4}",
        sol.nodes
    );
    assert!(
        sol.bound >= cp as f64, // cast-ok: exact below 2^53
        "the injected root bound must floor the proof bound: {}",
        sol.bound
    );
}

/// The §4 optimum (Σd = 8 440 ns) does not depend on the partition bound,
/// so raising `N` only grows the model. The seed solver could not finish
/// N = 5 inside its default pivot budget; the warm-started branch-and-bound
/// must prove N = 4..=6 optimal under default options.
#[test]
fn optimum_is_invariant_in_the_partition_bound() {
    for n in 4..=6u32 {
        let sol = solve(&dct_model(n).model, &SolveOptions::default(), &|| false)
            .expect("model is feasible");
        assert!((sol.objective - 8_440.0).abs() < 1e-6, "N={n}");
        assert_eq!(sol.status, Status::Optimal, "N={n} must prove optimality");
    }
}
