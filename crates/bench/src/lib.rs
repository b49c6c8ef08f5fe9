//! # sparcs_bench — the table/figure regeneration harness
//!
//! Shared machinery for the `repro-tables` binary: the paper's image list,
//! analytic timing rows for Tables 1–2 (exactly the sequencers' cost model
//! — cross-validated against the functional simulator in the workspace
//! integration tests), the break-even sweep and the XC6000 conjecture.
//! Wall-time measurement lives in the end-to-end benchmark (`e2ebench/`);
//! this crate's `bench-ilp` and `bench-multilevel` bins record the solver
//! and multilevel sweeps it does not cover.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;
use sparcs::casestudy::DctExperiment;
use sparcs::flow::{Exploration, ExploreSpace, FlowSession};
use sparcs_core::fission::FissionAnalysis;
use sparcs_core::model::ModelConfig;
use sparcs_core::PartitionOptions;
use sparcs_estimate::{paper, Architecture};

/// One row of a Table-1/Table-2 style comparison.
#[derive(Debug, Clone, Serialize)]
pub struct TableRow {
    /// Synthetic image label (the paper's files are unavailable; rows are
    /// parameterized by block count — see [`TABLE_BLOCKS`]).
    pub image: String,
    /// 4×4 DCT block count `I`.
    pub blocks: u64,
    /// Software loop count `I_sw = ⌈I/k⌉`.
    pub i_sw: u64,
    /// RTR total time in seconds.
    pub rtr_secs: f64,
    /// Static total time in seconds.
    pub static_secs: f64,
    /// `(static − rtr)/static` in percent (negative = RTR slower).
    pub improvement_pct: f64,
}

/// The block counts used for the table rows. The largest is the paper's
/// "245,760 blocks of DCT computation"; the rest are the decreasing sizes a
/// 1999 image corpus would produce, kept multiples of `k = 2048` so batch
/// arithmetic is exact.
pub const TABLE_BLOCKS: [u64; 8] = [
    245_760, 122_880, 61_440, 30_720, 16_384, 8_192, 4_096, 2_048,
];

/// Returns the paper experiment. Assembly goes through the global
/// [`sparcs::cache::PartitionCache`], so the nontrivial ILP solve happens
/// once per process no matter how many tables or explorations ask
/// — the content-hashed cache replaced the `OnceLock` this harness used to
/// carry for the same purpose, and unlike it also covers the non-paper
/// variants (`XC6000`, `D_m` sweeps) each under their own key.
pub fn experiment() -> DctExperiment {
    DctExperiment::paper().expect("the paper experiment assembles")
}

/// Analytic total time of the **static** design for `blocks` computations —
/// identical to `sparcs_rtr::StaticSequencer`'s accounting.
pub fn static_total_ns(arch: &Architecture, blocks: u64) -> u128 {
    let delay = u128::from(paper::STATIC_DELAY_NS);
    let dm = u128::from(arch.transfer_ns_per_word);
    let duplex = 32u128; // 16 in + 16 out
    let step = (dm * duplex).max(delay);
    u128::from(arch.reconfig_time_ns)
        + u128::from(blocks) * delay
        + u128::from(blocks) * (step - delay)
        + dm * 16 // prologue
        + dm * 16 // epilogue
}

/// Analytic total time of the **FDH** strategy — identical to
/// `sparcs_rtr::FdhSequencer`'s accounting (serialized transfers, whole
/// blocks).
pub fn fdh_total_ns(fission: &FissionAnalysis, arch: &Architecture, blocks: u64) -> u128 {
    let i_sw = u128::from(fission.software_loop_count(blocks));
    let k = u128::from(fission.k);
    let dm = u128::from(arch.transfer_ns_per_word);
    let in_block = u128::from(fission.block_words[0]);
    let out_words = 16u128; // the design's Z output
    let compute: u128 = fission
        .partition_delays_ns
        .iter()
        .map(|&d| k * u128::from(d))
        .sum();
    let reconfig = u128::from(fission.n_partitions) * u128::from(arch.reconfig_time_ns);
    i_sw * (dm * k * in_block + reconfig + compute + dm * k * out_words)
}

/// Analytic total time of the **IDH** strategy with double-buffered
/// transfers — delegates to the fission analysis (identical to
/// `sparcs_rtr::IdhSequencer`).
pub fn idh_total_ns(fission: &FissionAnalysis, blocks: u64) -> u128 {
    u128::from(fission.idh_total_time_overlapped_ns(blocks))
}

/// Builds Table 1 (FDH versus static).
pub fn table1(exp: &DctExperiment) -> Vec<TableRow> {
    TABLE_BLOCKS
        .iter()
        .enumerate()
        .map(|(i, &blocks)| {
            let rtr = fdh_total_ns(&exp.fission, &exp.arch, blocks) as f64 / 1e9;
            let st = static_total_ns(&exp.arch, blocks) as f64 / 1e9;
            TableRow {
                image: format!("img{}", i + 1),
                blocks,
                i_sw: exp.fission.software_loop_count(blocks),
                rtr_secs: rtr,
                static_secs: st,
                improvement_pct: (st - rtr) / st * 100.0,
            }
        })
        .collect()
}

/// Builds Table 2 (IDH versus static).
pub fn table2(exp: &DctExperiment) -> Vec<TableRow> {
    TABLE_BLOCKS
        .iter()
        .enumerate()
        .map(|(i, &blocks)| {
            let rtr = idh_total_ns(&exp.fission, blocks) as f64 / 1e9;
            let st = static_total_ns(&exp.arch, blocks) as f64 / 1e9;
            TableRow {
                image: format!("img{}", i + 1),
                blocks,
                i_sw: exp.fission.software_loop_count(blocks),
                rtr_secs: rtr,
                static_secs: st,
                improvement_pct: (st - rtr) / st * 100.0,
            }
        })
        .collect()
}

/// The §4 XC6000 conjecture: the same design on a 500 µs-reconfiguration
/// device. Returns Table-2-style rows.
pub fn xc6000_table() -> Vec<TableRow> {
    let exp = DctExperiment::with(
        sparcs_jpeg::EstimateBackend::PaperCalibrated,
        Architecture::xc6200_fast_reconfig(),
    )
    .expect("xc6000 experiment assembles");
    table2(&exp)
}

/// Walks the Flow API's whole candidate space (partitioner × block
/// rounding × sequencing) over the §4 DCT graph and returns the designs
/// ranked by total time for `workload` blocks — the paper's Table-1/2
/// comparison produced by exploration instead of hand-wiring.
pub fn dct_exploration(workload: u64) -> Exploration {
    let exp = experiment();
    let session = FlowSession::new(exp.dct.graph.clone(), exp.arch.clone());
    let mut space = ExploreSpace::for_workload(workload);
    space.ilp_options = PartitionOptions {
        model: ModelConfig {
            declared_symmetry: exp.dct.symmetry_groups.clone(),
            ..ModelConfig::default()
        },
        ..PartitionOptions::default()
    };
    session
        .explore(&space)
        .expect("the DCT graph always has feasible candidates")
}

/// One point of the break-even sweep: reconfiguration overhead versus
/// compute saving as a function of the batch size `k` (memory capacity).
#[derive(Debug, Clone, Serialize)]
pub struct BreakEvenPoint {
    /// Batch size (computations per configuration run).
    pub k: u64,
    /// Memory words needed for this batch size (`k · 32`).
    pub memory_words: u64,
    /// Per-batch reconfiguration overhead amortized per computation (ns).
    pub reconfig_per_computation_ns: u64,
    /// Whether the RTR design beats the static design at this `k`
    /// (ignoring transfers, the paper's break-even criterion).
    pub rtr_wins: bool,
}

/// Sweeps `k` to find the paper's break-even (*"roughly 42,553 blocks …
/// in each temporal partition"*; our formula `N·CT / (static − rtr)` gives
/// 39,683 — the paper used a slightly different per-block delta, with the
/// same conclusion).
pub fn break_even_sweep(exp: &DctExperiment) -> (u64, Vec<BreakEvenPoint>) {
    let be = exp
        .fission
        .break_even_computations(paper::STATIC_DELAY_NS)
        .expect("the RTR design is faster per computation");
    let points = [512u64, 2_048, 8_192, 16_384, 32_768, 39_683, 45_000, 65_536]
        .iter()
        .map(|&k| {
            let reconfig = 3 * exp.arch.reconfig_time_ns / k;
            let saving = paper::STATIC_DELAY_NS - exp.fission.rtr_delay_ns;
            BreakEvenPoint {
                k,
                memory_words: k * 32,
                reconfig_per_computation_ns: reconfig,
                rtr_wins: reconfig < saving,
            }
        })
        .collect();
    (be, points)
}

/// Sensitivity of the Table-2 headline number to the calibrated `D_m`
/// (the paper does not state its host-transfer delay).
pub fn dm_sensitivity(blocks: u64) -> Vec<(u64, f64)> {
    [0u64, 12, 25, 50, 100]
        .iter()
        .map(|&dm| {
            let mut arch = Architecture::xc4044_wildforce();
            arch.transfer_ns_per_word = dm;
            let exp =
                DctExperiment::with(sparcs_jpeg::EstimateBackend::PaperCalibrated, arch.clone())
                    .expect("experiment assembles");
            let rtr = idh_total_ns(&exp.fission, blocks) as f64;
            let st = static_total_ns(&arch, blocks) as f64;
            (dm, (st - rtr) / st * 100.0)
        })
        .collect()
}

/// Renders rows as an aligned text table (for `repro-tables`).
pub fn render_table(title: &str, rows: &[TableRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = writeln!(
        s,
        "{:<8} {:>10} {:>6} {:>12} {:>12} {:>12}",
        "image", "blocks", "I_sw", "RTR (s)", "static (s)", "improve (%)"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<8} {:>10} {:>6} {:>12.4} {:>12.4} {:>12.1}",
            r.image, r.blocks, r.i_sw, r.rtr_secs, r.static_secs, r.improvement_pct
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_fdh_never_beats_static() {
        let exp = experiment();
        for row in table1(&exp) {
            assert!(
                row.improvement_pct < 0.0,
                "{}: FDH must lose at every size (paper: 'no improvement at all')",
                row.blocks
            );
        }
    }

    #[test]
    fn table2_idh_beats_static_at_scale_and_improves_with_size() {
        let exp = experiment();
        let rows = table2(&exp);
        let big = &rows[0];
        // Paper: 42 % at 245,760 blocks.
        assert!(big.improvement_pct > 35.0, "got {}", big.improvement_pct);
        assert!(big.improvement_pct < 45.0, "got {}", big.improvement_pct);
        for w in rows.windows(2) {
            assert!(
                w[0].improvement_pct >= w[1].improvement_pct,
                "improvement grows with image size"
            );
        }
    }

    #[test]
    fn xc6000_improves_even_small_images() {
        let rows = xc6000_table();
        let big = &rows[0];
        // Paper: "the improvement … is calculated to be 47%".
        assert!(
            (big.improvement_pct - 47.0).abs() < 2.0,
            "got {}",
            big.improvement_pct
        );
        // And small images improve too ("even for smaller image sizes").
        assert!(rows.last().unwrap().improvement_pct > 20.0);
    }

    #[test]
    fn break_even_near_paper_value() {
        let exp = experiment();
        let (be, points) = break_even_sweep(&exp);
        // Ours: 3·100 ms / 7.56 µs = 39,683; paper quotes "roughly 42,553".
        assert_eq!(be, 39_683);
        assert!(points.iter().any(|p| p.rtr_wins));
        assert!(points.iter().any(|p| !p.rtr_wins));
        // k = 2048 (the real memory) is far below break-even.
        let k2048 = points.iter().find(|p| p.k == 2_048).unwrap();
        assert!(!k2048.rtr_wins);
    }

    #[test]
    fn exploration_best_matches_the_paper_design() {
        let exploration = dct_exploration(245_760);
        let best = exploration.best();
        // The winner is the paper's flow: exact ILP partitioning, IDH
        // sequencing, 3 partitions, k = 2048.
        assert_eq!(best.strategy, "ilp");
        assert_eq!(best.sequencing.to_string(), "IDH");
        assert_eq!(best.partition_count, 3);
        assert_eq!(best.k, 2_048);
        for w in exploration.candidates.windows(2) {
            assert!(w[0].total_ns <= w[1].total_ns);
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let exp = experiment();
        let s = render_table("Table 1", &table1(&exp));
        assert!(s.contains("245760"));
        assert!(s.contains("2048"));
    }
}
