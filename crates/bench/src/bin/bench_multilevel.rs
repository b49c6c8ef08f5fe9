//! `bench-multilevel` — the machine-readable multilevel-partitioner
//! trajectory.
//!
//! Two sweeps, written to `BENCH_multilevel.json` at the workspace root:
//!
//! * **quality** — on instances the exact ILP can still finish (the §4
//!   DCT model and small layered graphs), the design latency of every
//!   strategy in [`SPECS`] next to the proven optimum, so the heuristics'
//!   and the coarsening's quality loss are pinned numbers instead of
//!   folklore;
//! * **scale** — on `dfg::gen::scaled` graphs from 1k to 10k nodes
//!   (far beyond the exact solver), wall time, tower depth, partition
//!   count and the Lagrangian bound next to the pure critical-path bound
//!   it dominates.
//!
//! ```text
//! cargo run --release -p sparcs_bench --bin bench-multilevel
//! ```

use serde::Serialize;
use sparcs::core::model::ModelConfig;
use sparcs::core::search::SearchCtx;
use sparcs::core::PartitionOptions;
use sparcs::estimate::Architecture;
use sparcs::flow::FlowSession;
use sparcs::jpeg::{dct_task_graph, EstimateBackend};
use sparcs::strategy::parse_spec;
use sparcs_dfg::gen::{self, LayeredConfig, ScaledConfig};
use sparcs_dfg::Resources;
use sparcs_multilevel::{partition_multilevel, MultilevelConfig};
use std::time::Instant;

/// The strategies the quality sweep ranks on every instance.
const SPECS: [&str; 5] = ["list", "list+kl", "list+anneal", "multilevel", "ilp"];

/// One strategy's design on one quality instance.
#[derive(Debug, Serialize)]
struct StrategyCost {
    spec: &'static str,
    latency_ns: u64,
    partitions: u32,
    proven_optimal: bool,
}

/// Every strategy on one exact-feasible instance.
#[derive(Debug, Serialize)]
struct QualityRow {
    problem: String,
    tasks: usize,
    costs: Vec<StrategyCost>,
    /// `multilevel / ilp` when the exact solve is proven; 1.0 means the
    /// coarsening lost nothing.
    quality_ratio: Option<f64>,
    /// Fraction of the list→optimum gap closed by `list+kl` (1.0 = all).
    kl_gap_closed: Option<f64>,
}

/// One scaled graph's multilevel run, beyond the exact solver's reach.
#[derive(Debug, Serialize)]
struct ScaleRow {
    nodes: usize,
    wall_ms: f64,
    tower_levels: usize,
    coarsest_tasks: usize,
    partitions: u32,
    latency_ns: u64,
    initial_solver: &'static str,
    winner: &'static str,
    /// The Lagrangian dual bound on `Σ d_p` (ns).
    lagrangian_lb_ns: u64,
    /// The pure critical-path bound the Lagrangian bound dominates.
    critical_path_lb_ns: u64,
    /// `(lagrangian − critical_path) / lagrangian`: how much the
    /// dualized resource facts tighten the floor on this instance.
    lagrangian_tightening: f64,
    binding: &'static str,
}

#[derive(Debug, Serialize)]
struct MultilevelTrajectory {
    generated_by: &'static str,
    quality: Vec<QualityRow>,
    scale: Vec<ScaleRow>,
}

fn quality_row(session: &FlowSession, options: &PartitionOptions, problem: &str) -> QualityRow {
    let mut costs = Vec::new();
    for spec in SPECS {
        let strategy = parse_spec(spec, options).expect("spec parses");
        match session.partition_with(strategy.as_ref()) {
            Ok(stage) => costs.push(StrategyCost {
                spec,
                latency_ns: stage.design.latency_ns,
                partitions: stage.design.partitioning.partition_count(),
                proven_optimal: stage.design.stats.proven_optimal,
            }),
            Err(e) => println!("[ML] {problem}: {spec} infeasible ({e})"),
        }
    }
    for c in &costs {
        println!(
            "[ML] {problem:<12} {:<12} {:>10} ns over {} partitions{}",
            c.spec,
            c.latency_ns,
            c.partitions,
            if c.proven_optimal { ", proven" } else { "" }
        );
    }
    let latency = |spec: &str| costs.iter().find(|c| c.spec == spec).map(|c| c.latency_ns);
    let exact = costs
        .iter()
        .find(|c| c.spec == "ilp" && c.proven_optimal)
        .map(|c| c.latency_ns);
    // cast-ok: latencies are far below 2^53 ns
    let quality_ratio = exact
        .zip(latency("multilevel"))
        .map(|(ilp, ml)| ml as f64 / ilp as f64);
    let kl_gap_closed = match (latency("list"), latency("list+kl"), exact) {
        // cast-ok: latencies are far below 2^53 ns
        (Some(list), Some(kl), Some(ilp)) if list > ilp => {
            Some((list - kl) as f64 / (list - ilp) as f64)
        }
        _ => None,
    };
    QualityRow {
        problem: problem.to_string(),
        tasks: session.graph().task_count(),
        costs,
        quality_ratio,
        kl_gap_closed,
    }
}

fn scale_row(nodes: usize) -> ScaleRow {
    let g = gen::scaled(
        &ScaledConfig::preset(u32::try_from(nodes).expect("suite sizes fit u32")),
        10,
    );
    let mut arch = Architecture::xc4044_wildforce();
    arch.resources = Resources::clbs(50_000);
    arch.memory_words = 4_000_000;
    let cfg = MultilevelConfig::default();
    let t0 = Instant::now();
    let out = partition_multilevel(
        &g,
        &arch,
        &cfg,
        &PartitionOptions::default(),
        &SearchCtx::unbounded(),
    )
    .expect("the scale suite pairs big graphs with big devices");
    let wall = t0.elapsed();
    let latency_ns =
        sparcs::core::delay::total_latency_ns(&g, &out.partitioning, arch.reconfig_time_ns)
            .expect("the generated graph is a DAG");
    let critical_path_ns =
        sparcs::analyze::critical_path_lb_ns(&g).expect("the generated graph is a DAG");
    let (area_ns, area_kind) = sparcs::core::delay::area_bound_ns(&g, &arch.resources);
    let (bound_ns, binding) = match area_kind {
        Some(kind) if area_ns > critical_path_ns => (area_ns, kind),
        _ => (critical_path_ns, "critical-path"),
    };
    let lagrangian_tightening = if bound_ns > 0 {
        // cast-ok: bounds are far below 2^53 ns
        (bound_ns - critical_path_ns) as f64 / bound_ns as f64
    } else {
        0.0
    };
    let row = ScaleRow {
        nodes,
        wall_ms: wall.as_secs_f64() * 1e3,
        tower_levels: out.levels,
        coarsest_tasks: out.coarsest_tasks,
        partitions: out.partitioning.partition_count(),
        latency_ns,
        initial_solver: out.initial.name(),
        winner: out.winner,
        lagrangian_lb_ns: bound_ns,
        critical_path_lb_ns: critical_path_ns,
        lagrangian_tightening,
        binding,
    };
    println!(
        "[ML] {nodes:>6} nodes: {:.0} ms, {} levels -> {} coarse tasks, {} partitions, {} seed, lagrangian +{:.1}% over cp ({})",
        row.wall_ms,
        row.tower_levels,
        row.coarsest_tasks,
        row.partitions,
        row.initial_solver,
        row.lagrangian_tightening * 100.0,
        row.binding
    );
    row
}

fn main() {
    let mut quality = Vec::new();

    // The paper's §4 DCT model: the pinned case study.
    let dct = dct_task_graph(EstimateBackend::PaperCalibrated).expect("graph builds");
    let session = FlowSession::new(dct.graph.clone(), Architecture::xc4044_wildforce());
    let options = PartitionOptions {
        model: ModelConfig {
            declared_symmetry: dct.symmetry_groups.clone(),
            ..ModelConfig::default()
        },
        ..PartitionOptions::default()
    };
    quality.push(quality_row(&session, &options, "dct-paper"));

    // Small layered graphs the exact solver still proves.
    let cfg = LayeredConfig {
        layers: 3,
        min_width: 2,
        max_width: 3,
        ..LayeredConfig::default()
    };
    let mut dev = Architecture::xc4044_wildforce();
    dev.resources = Resources::clbs(700);
    for seed in 0..6 {
        let g = gen::layered(&cfg, seed);
        let session = FlowSession::new(g, dev.clone());
        quality.push(quality_row(
            &session,
            &PartitionOptions::default(),
            &format!("layered-{seed}"),
        ));
    }

    let scale: Vec<ScaleRow> = [1_000, 2_000, 5_000, 10_000]
        .into_iter()
        .map(scale_row)
        .collect();

    let trajectory = MultilevelTrajectory {
        generated_by: "cargo run --release -p sparcs_bench --bin bench-multilevel",
        quality,
        scale,
    };
    let json = serde_json::to_string_pretty(&trajectory).expect("trajectory serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_multilevel.json");
    std::fs::write(path, format!("{json}\n")).expect("workspace root is writable");
    println!("[ML] wrote {path}");
}
