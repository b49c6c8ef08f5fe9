//! Loop fission and throughput analysis (paper §2.2).
//!
//! For DSP-style applications the task graph sits inside an implicit loop
//! over the input stream. A naive RTR design reloads all `N` configurations
//! for *every* iteration (`k·N·CT` overhead); loop fission transforms the
//! design so each configuration processes `k` iterations back-to-back, where
//!
//! ```text
//! k = ⌊ M_max / max_i m_i_temp ⌋        (the paper's Equation 9)
//! ```
//!
//! and the host re-runs the whole RTR sequence `I_sw = ⌈I / k⌉` times. Two
//! sequencing strategies trade reconfiguration against host traffic:
//!
//! * **FDH** (*Final Data to Host*): run all `N` partitions on each batch of
//!   `k` computations → overhead `N·CT·I_sw`;
//! * **IDH** (*Intermediate Data to Host*): keep one configuration loaded and
//!   stream every batch through it, saving/restoring intermediate data via
//!   the host → overhead `N·CT + 2·k·I_sw·D_m·Σ_i m_i_temp`.

use crate::memory;
use crate::partitioning::Partitioning;
use serde::{Deserialize, Serialize};
use sparcs_dfg::TaskGraph;
use sparcs_estimate::Architecture;
use std::fmt;

/// How per-partition memory blocks are sized (paper §3).
///
/// Address generation with arbitrary block sizes needs a multiplier;
/// rounding each partition's block up to a power of two replaces the
/// multiply by concatenation at the price of wasted memory — *"this tradeoff
/// ... has to be made for each RTR architecture. The computation of k ...
/// has to be changed accordingly."*
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum BlockRounding {
    /// Blocks sized exactly at `m_i_temp` (multiplier-based addressing).
    #[default]
    Exact,
    /// Blocks rounded up to the next power of two (concatenation-based
    /// addressing).
    PowerOfTwo,
}

/// The two host-sequencing strategies of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SequencingStrategy {
    /// Final Data to Host: reconfigure through all partitions per batch.
    Fdh,
    /// Intermediate Data to Host: one reconfiguration pass, intermediate
    /// data shuttled through the host between batches.
    Idh,
}

impl fmt::Display for SequencingStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SequencingStrategy::Fdh => "FDH",
            SequencingStrategy::Idh => "IDH",
        })
    }
}

/// Errors from fission analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FissionError {
    /// Some partition's per-computation memory block exceeds `M_max`
    /// outright (not even one computation fits).
    MemoryTooSmall {
        /// The partition whose block does not fit.
        partition: u32,
        /// Its block size in words.
        block_words: u64,
    },
    /// The design has no partitions.
    EmptyDesign,
}

impl fmt::Display for FissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FissionError::MemoryTooSmall {
                partition,
                block_words,
            } => write!(
                f,
                "partition {partition} needs {block_words} words per computation > M_max"
            ),
            FissionError::EmptyDesign => write!(f, "cannot analyze an empty design"),
        }
    }
}

impl std::error::Error for FissionError {}

/// Result of the loop-fission analysis for one partitioned design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FissionAnalysis {
    /// Number of temporal partitions `N`.
    pub n_partitions: u32,
    /// Per-partition per-computation memory `m_i_temp` in words.
    pub m_temp_words: Vec<u64>,
    /// Per-partition block size after rounding (equals `m_temp_words` for
    /// [`BlockRounding::Exact`]).
    pub block_words: Vec<u64>,
    /// Computations per configuration run, the paper's `k` (Eq. 9).
    pub k: u64,
    /// Memory words wasted per run by power-of-two rounding
    /// (`k · Σ_i (block_i − m_i)`).
    pub wasted_words: u64,
    /// Per-computation RTR delay `Σ d_p` in ns.
    pub rtr_delay_ns: u64,
    /// Per-partition delays `d_p` in ns.
    pub partition_delays_ns: Vec<u64>,
    /// Reconfiguration time `CT` in ns.
    pub reconfig_time_ns: u64,
    /// Host↔memory transfer delay `D_m` in ns/word.
    pub transfer_ns_per_word: u64,
}

impl FissionAnalysis {
    /// Analyzes a partitioned design against `arch`.
    ///
    /// `partition_delays_ns` are the `d_p` values of the design (from
    /// [`crate::delay::partition_delays`] or the ILP solution).
    ///
    /// # Errors
    ///
    /// See [`FissionError`].
    pub fn analyze(
        g: &TaskGraph,
        part: &Partitioning,
        partition_delays_ns: &[u64],
        arch: &Architecture,
        rounding: BlockRounding,
    ) -> Result<FissionAnalysis, FissionError> {
        let n = part.partition_count();
        if n == 0 {
            return Err(FissionError::EmptyDesign);
        }
        let m_temp_words = memory::per_partition_words(g, part);
        let block_words: Vec<u64> = m_temp_words
            .iter()
            .map(|&m| match rounding {
                BlockRounding::Exact => m,
                BlockRounding::PowerOfTwo => m.max(1).next_power_of_two(),
            })
            .collect();
        let max_block = block_words.iter().copied().max().unwrap_or(0);
        if max_block > arch.memory_words {
            let partition = block_words
                .iter()
                .position(|&b| b > arch.memory_words)
                .expect("some block exceeds memory") as u32;
            return Err(FissionError::MemoryTooSmall {
                partition,
                block_words: block_words[partition as usize],
            });
        }
        // Eq. 9: k = ⌊M_max / max_i block_i⌋ (paper assumes m_i > 0; a
        // design with no memory traffic can batch arbitrarily — cap at
        // M_max so numbers stay meaningful).
        let k = arch
            .memory_words
            .checked_div(max_block)
            .unwrap_or(arch.memory_words.max(1));
        let wasted: u64 = block_words
            .iter()
            .zip(&m_temp_words)
            .map(|(&b, &m)| (b - m) * k)
            .sum();
        Ok(FissionAnalysis {
            n_partitions: n,
            m_temp_words,
            block_words,
            k,
            wasted_words: wasted,
            rtr_delay_ns: partition_delays_ns.iter().sum(),
            partition_delays_ns: partition_delays_ns.to_vec(),
            reconfig_time_ns: arch.reconfig_time_ns,
            transfer_ns_per_word: arch.transfer_ns_per_word,
        })
    }

    /// `I_sw = ⌈I / k⌉`: how many times the host software loop re-runs the
    /// RTR sequence for `total` computations.
    pub fn software_loop_count(&self, total: u64) -> u64 {
        total.div_ceil(self.k.max(1))
    }

    /// Reconfiguration overhead of processing `total` computations *without*
    /// loop fission: every computation reloads all `N` configurations
    /// (`k·N·CT` with `k = total`).
    pub fn unfissioned_overhead_ns(&self, total: u64) -> u64 {
        total * self.n_partitions as u64 * self.reconfig_time_ns
    }

    /// FDH overhead for `total` computations: `N·CT·I_sw`.
    pub fn fdh_overhead_ns(&self, total: u64) -> u64 {
        self.n_partitions as u64 * self.reconfig_time_ns * self.software_loop_count(total)
    }

    /// IDH overhead for `total` computations:
    /// `N·CT + 2·k·I_sw·D_m·Σ_i m_i_temp`.
    pub fn idh_overhead_ns(&self, total: u64) -> u64 {
        let m_sum: u64 = self.m_temp_words.iter().sum();
        self.n_partitions as u64 * self.reconfig_time_ns
            + 2 * self.k * self.software_loop_count(total) * self.transfer_ns_per_word * m_sum
    }

    /// Total RTR time (compute + overhead) for `total` computations under a
    /// strategy, with host transfers fully serialized (the paper's literal
    /// overhead formulas).
    pub fn total_time_ns(&self, strategy: SequencingStrategy, total: u64) -> u64 {
        let compute = total * self.rtr_delay_ns;
        compute
            + match strategy {
                SequencingStrategy::Fdh => self.fdh_overhead_ns(total),
                SequencingStrategy::Idh => self.idh_overhead_ns(total),
            }
    }

    /// Total IDH time with **double-buffered** host transfers: while the
    /// FPGA processes batch `j`, the host streams the traffic actually in
    /// flight — batch `j+1`'s input load and batch `j−1`'s output read.
    /// With `C_i = k·d_i` (batch compute) and `H_i = k·D_m·block_i` (one
    /// half-transfer), a partition therefore costs, over `B` batches,
    ///
    /// ```text
    /// H_i                                    (exposed: load batch 0)
    /// + 2·max(C_i, H_i)                      (first/last batch: one half in flight)
    /// + (B − 2)·max(C_i, 2·H_i)              (interior batches: both halves)
    /// + H_i                                  (exposed: read batch B−1)
    /// ```
    ///
    /// collapsing to `2·H_i + C_i` when `B = 1` (the boundary halves *are*
    /// all the traffic — nothing overlaps a single batch's compute).
    /// Charging every batch the full `2·H_i` would double-count the
    /// boundary halves already exposed as prologue/epilogue and overstate
    /// IDH on bus-bound designs, skewing the FDH/IDH break-even.
    ///
    /// The paper's measured Table 2 matches this overlapped model far better
    /// than the serialized formula (`tests/paper_numbers.rs`): its 42 % / 47 %
    /// improvements coincide with transfers hidden behind computation.
    pub fn idh_total_time_overlapped_ns(&self, total: u64) -> u64 {
        let batches = self.software_loop_count(total);
        let mut t = self.n_partitions as u64 * self.reconfig_time_ns;
        if batches == 0 {
            // An empty workload streams and computes nothing.
            return t;
        }
        for (i, &d) in self.partition_delays_ns.iter().enumerate() {
            let batch_compute = self.k * d;
            let half_transfer = self.k * self.transfer_ns_per_word * self.block_words[i];
            // Prologue (load batch 0) + epilogue (read the last batch).
            t += 2 * half_transfer;
            if batches == 1 {
                t += batch_compute;
            } else {
                t += 2 * batch_compute.max(half_transfer)
                    + (batches - 2) * batch_compute.max(2 * half_transfer);
            }
        }
        t
    }

    /// Picks the cheaper strategy for `total` computations — *"[IDH] will be
    /// beneficial over the FDH method, if the overhead to save and restore
    /// the intermediate data is less than the reconfiguration overhead."*
    pub fn choose_strategy(&self, total: u64) -> SequencingStrategy {
        if self.idh_overhead_ns(total) <= self.fdh_overhead_ns(total) {
            SequencingStrategy::Idh
        } else {
            SequencingStrategy::Fdh
        }
    }

    /// Break-even batch size: computations per partition needed before the
    /// reconfiguration overhead drops below the execution-time *savings* of
    /// the RTR design relative to a static design of per-computation delay
    /// `static_delay_ns`. Returns `None` when the RTR design is not faster
    /// per computation (no break-even exists).
    pub fn break_even_computations(&self, static_delay_ns: u64) -> Option<u64> {
        let saving = static_delay_ns.checked_sub(self.rtr_delay_ns)?;
        if saving == 0 {
            return None;
        }
        Some((self.n_partitions as u64 * self.reconfig_time_ns).div_ceil(saving))
    }
}

impl fmt::Display for FissionAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N = {}, m_temp = {:?} words, k = {}, RTR delay {} ns/computation",
            self.n_partitions, self.m_temp_words, self.k, self.rtr_delay_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioning::PartitionId;
    use sparcs_dfg::Resources;

    /// A miniature of the DCT shape: partition memory blocks (32, 16, 16)
    /// via env I/O and crossing values.
    fn dctish() -> (TaskGraph, Partitioning) {
        let mut g = TaskGraph::new("dctish");
        // One stand-in task per partition; words tuned to hit (32, 16, 16).
        let t1 = g.add_task("t1", Resources::clbs(100), 3_400, 16);
        let t2 = g.add_task("t2", Resources::clbs(100), 2_520, 8);
        let t3 = g.add_task("t3", Resources::clbs(100), 2_520, 8);
        g.add_edge(t1, t2, 8).unwrap();
        g.add_edge(t1, t3, 8).unwrap();
        g.add_env_input("x", 16, [t1]).unwrap();
        g.add_env_output("z12", 8, [t2]).unwrap();
        g.add_env_output("z34", 8, [t3]).unwrap();
        let p = Partitioning::new(vec![PartitionId(0), PartitionId(1), PartitionId(2)]);
        (g, p)
    }

    fn analysis() -> FissionAnalysis {
        let (g, p) = dctish();
        let arch = Architecture::xc4044_wildforce();
        FissionAnalysis::analyze(&g, &p, &[3_400, 2_520, 2_520], &arch, BlockRounding::Exact)
            .unwrap()
    }

    #[test]
    fn paper_k_is_2048() {
        let a = analysis();
        assert_eq!(a.m_temp_words, vec![32, 16, 16]);
        // k = 65536 / max(32,16,16) = 2048 — the paper's number.
        assert_eq!(a.k, 2048);
        assert_eq!(a.rtr_delay_ns, 8_440);
    }

    #[test]
    fn software_loop_count_paper_example() {
        let a = analysis();
        // 245,760 blocks → I_sw = 120 (Table 1/2 largest image).
        assert_eq!(a.software_loop_count(245_760), 120);
        assert_eq!(a.software_loop_count(1), 1);
        assert_eq!(a.software_loop_count(2_049), 2);
    }

    #[test]
    fn fission_reduces_overhead_by_factor_k() {
        let a = analysis();
        let total = 245_760;
        assert_eq!(a.unfissioned_overhead_ns(total), total * 3 * 100_000_000);
        assert_eq!(a.fdh_overhead_ns(total), 120 * 3 * 100_000_000);
        assert!(a.unfissioned_overhead_ns(total) / a.fdh_overhead_ns(total) == 2048);
    }

    #[test]
    fn idh_beats_fdh_at_paper_scale() {
        let a = analysis();
        let total = 245_760;
        assert!(a.idh_overhead_ns(total) < a.fdh_overhead_ns(total));
        assert_eq!(a.choose_strategy(total), SequencingStrategy::Idh);
    }

    #[test]
    fn fdh_wins_when_transfer_is_expensive() {
        let mut a = analysis();
        a.transfer_ns_per_word = 10_000_000; // pathological bus
        assert_eq!(a.choose_strategy(245_760), SequencingStrategy::Fdh);
    }

    #[test]
    fn break_even_matches_formula() {
        let a = analysis();
        // 3 × 100 ms / (16 µs − 8.44 µs) = 300e6 / 7560 ≈ 39,683 (the paper
        // quotes "roughly 42,553" from a slightly different per-block delta).
        let be = a.break_even_computations(16_000).unwrap();
        assert_eq!(be, 39_683);
        // No break-even when RTR is slower per computation.
        assert_eq!(a.break_even_computations(8_440), None);
        assert_eq!(a.break_even_computations(100), None);
    }

    #[test]
    fn power_of_two_rounding_wastes_memory_but_simplifies_addressing() {
        let (g, p) = dctish();
        let arch = Architecture::xc4044_wildforce();
        let a = FissionAnalysis::analyze(
            &g,
            &p,
            &[3_400, 2_520, 2_520],
            &arch,
            BlockRounding::PowerOfTwo,
        )
        .unwrap();
        // (32, 16, 16) are already powers of two: no waste, same k.
        assert_eq!(a.block_words, vec![32, 16, 16]);
        assert_eq!(a.wasted_words, 0);
        assert_eq!(a.k, 2048);

        // Perturb: an extra env word makes partition 1 use 33 words → block
        // 64, k halves, waste = 31 × k.
        let mut g2 = g.clone();
        let t1 = sparcs_dfg::TaskId(0);
        g2.add_env_input("pad", 1, [t1]).unwrap();
        let a2 = FissionAnalysis::analyze(
            &g2,
            &p,
            &[3_400, 2_520, 2_520],
            &arch,
            BlockRounding::PowerOfTwo,
        )
        .unwrap();
        assert_eq!(a2.block_words[0], 64);
        assert_eq!(a2.k, 1024);
        assert_eq!(a2.wasted_words, 31 * 1024);
        let exact =
            FissionAnalysis::analyze(&g2, &p, &[3_400, 2_520, 2_520], &arch, BlockRounding::Exact)
                .unwrap();
        assert_eq!(exact.k, 65_536 / 33);
        assert!(exact.k > a2.k);
    }

    #[test]
    fn memory_too_small_detected() {
        let (g, p) = dctish();
        let arch = Architecture::xc4044_wildforce().with_memory_words(31);
        let err =
            FissionAnalysis::analyze(&g, &p, &[1, 1, 1], &arch, BlockRounding::Exact).unwrap_err();
        assert_eq!(
            err,
            FissionError::MemoryTooSmall {
                partition: 0,
                block_words: 32
            }
        );
    }

    #[test]
    fn overlapped_idh_hides_transfers_behind_compute() {
        let a = analysis();
        let total = 245_760;
        // Batch compute (2048 × 3400 ns ≈ 7 ms) dwarfs batch traffic
        // (2 × 2048 × 25 × 32 ns ≈ 3.3 ms): transfers vanish, leaving
        // N·CT + compute + per-partition prologue/epilogue.
        let t = a.idh_total_time_overlapped_ns(total);
        let compute = total * 8_440;
        let n_ct = 3 * 100_000_000;
        assert!(t >= compute + n_ct);
        let exposed = t - compute - n_ct;
        // Exposed traffic: Σ_i 2·k·D_m·block_i = 2·2048·25·64 ≈ 6.6 ms.
        assert_eq!(exposed, 2 * 2_048 * 25 * 64);
        // And the overlapped total beats the serialized one.
        assert!(t < a.total_time_ns(SequencingStrategy::Idh, total));
    }

    #[test]
    fn overlapped_idh_exposes_transfers_when_bus_is_slow() {
        let mut a = analysis();
        a.transfer_ns_per_word = 1_000_000; // 1 ms per word: bus-bound
        let total = 4_096; // two batches
        let t = a.idh_total_time_overlapped_ns(total);
        // Per partition: batches now cost the transfer time, not compute —
        // and with exactly two batches each one has only a single half in
        // flight (batch 0 preloads batch 1; batch 1 drains batch 0), so a
        // partition costs 4 half-transfers, not 6.
        let expected: u64 = 3 * 100_000_000
            + a.block_words
                .iter()
                .map(|&b| {
                    let half = 2_048 * 1_000_000 * b;
                    half + half + half + half
                })
                .sum::<u64>();
        assert_eq!(t, expected);
    }

    #[test]
    fn overlapped_idh_empty_workload_is_finite() {
        // `--inputs 0` reaches this model through `explore`; zero batches
        // must not underflow the interior-batch term.
        let a = analysis();
        assert_eq!(a.idh_total_time_overlapped_ns(0), 3 * 100_000_000);
        assert_eq!(a.total_time_ns(SequencingStrategy::Fdh, 0), 0);
    }

    #[test]
    fn overlapped_idh_single_batch_exposes_only_the_boundary_halves() {
        let mut a = analysis();
        a.transfer_ns_per_word = 1_000_000; // bus-bound, to make the bug visible
        let total = 100; // one batch
                         // One batch has no overlap window at all: its input load is the
                         // prologue, its output read the epilogue, and its compute runs
                         // alone in between. The old accounting charged an extra
                         // max(C, 2·half) ≫ C here, double-counting both boundary halves.
        let expected: u64 = 3 * 100_000_000
            + a.block_words
                .iter()
                .zip(&a.partition_delays_ns)
                .map(|(&b, &d)| 2 * 2_048 * 1_000_000 * b + 2_048 * d)
                .sum::<u64>();
        assert_eq!(a.idh_total_time_overlapped_ns(total), expected);
    }

    #[test]
    fn total_time_composition() {
        let a = analysis();
        let total = 10_000;
        let fdh = a.total_time_ns(SequencingStrategy::Fdh, total);
        assert_eq!(
            fdh,
            total * 8_440 + a.fdh_overhead_ns(total),
            "compute + overhead"
        );
        let idh = a.total_time_ns(SequencingStrategy::Idh, total);
        assert!(idh < fdh, "IDH wins at 10k computations too");
    }

    use sparcs_dfg::TaskGraph;
}
