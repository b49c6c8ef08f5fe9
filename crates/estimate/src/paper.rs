//! Paper-calibrated estimation constants.
//!
//! §4 of the paper reports the exact numbers its DSS estimator produced for
//! the JPEG/DCT case study. For table-fidelity experiments we use those
//! numbers directly rather than our re-derived component library (which
//! lands within ~25 % — see [`crate::estimator`] tests). Every constant
//! below is quoted from the paper:
//!
//! * T1 tasks: 70 CLBs; T2 tasks: 180 CLBs.
//! * Temporal partition 1 (16 × T1): 68 cycles at 50 ns.
//! * Temporal partitions 2 and 3 (8 × T2 each): 36 cycles at 70 ns.
//! * Static all-in-one design: 160 cycles at 100 ns.
//! * Per-computation intermediate memory: 32 words in partition 1 (16 input
//!   + 16 output), 16 words in partitions 2 and 3 (8 + 8).

use crate::estimator::TaskEstimate;
use sparcs_dfg::Resources;

/// CLBs of a T1 task (paper: "the FPGA resources to be 70 CLBs").
pub const T1_CLBS: u64 = 70;
/// CLBs of a T2 task (paper: "FPGA resources needed are 180 CLBs").
pub const T2_CLBS: u64 = 180;

/// Cycles of temporal partition 1 for one computation (16 parallel T1).
pub const PARTITION1_CYCLES: u32 = 68;
/// Clock period of temporal partition 1 in ns.
pub const PARTITION1_CLOCK_NS: u64 = 50;
/// Cycles of temporal partitions 2/3 for one computation (8 parallel T2).
pub const PARTITION23_CYCLES: u32 = 36;
/// Clock period of temporal partitions 2/3 in ns.
pub const PARTITION23_CLOCK_NS: u64 = 70;

/// Cycles of the static (single-configuration) DCT design per computation.
pub const STATIC_CYCLES: u32 = 160;
/// Clock period of the static design in ns.
pub const STATIC_CLOCK_NS: u64 = 100;

/// Per-computation delay of the static design in ns (16 µs).
pub const STATIC_DELAY_NS: u64 = STATIC_CYCLES as u64 * STATIC_CLOCK_NS;

/// Per-computation delay of RTR partition 1 in ns (3.4 µs).
pub const PARTITION1_DELAY_NS: u64 = PARTITION1_CYCLES as u64 * PARTITION1_CLOCK_NS;
/// Per-computation delay of RTR partitions 2/3 in ns (2.52 µs).
pub const PARTITION23_DELAY_NS: u64 = PARTITION23_CYCLES as u64 * PARTITION23_CLOCK_NS;

/// Per-computation intermediate memory of partition 1 in words.
pub const PARTITION1_MEMORY_WORDS: u64 = 32;
/// Per-computation intermediate memory of partitions 2/3 in words.
pub const PARTITION23_MEMORY_WORDS: u64 = 16;

/// Estimate of one T1 task.
///
/// All 16 T1 tasks execute in parallel inside partition 1, so the per-task
/// delay equals the partition-1 delay; the ILP's path-max delay measure then
/// reproduces the paper's partition delays exactly.
pub fn t1_estimate() -> TaskEstimate {
    TaskEstimate::from_cycles(
        Resources::clbs(T1_CLBS),
        PARTITION1_CYCLES,
        PARTITION1_CLOCK_NS,
    )
}

/// Estimate of one T2 task (see [`t1_estimate`] for the delay convention).
pub fn t2_estimate() -> TaskEstimate {
    TaskEstimate::from_cycles(
        Resources::clbs(T2_CLBS),
        PARTITION23_CYCLES,
        PARTITION23_CLOCK_NS,
    )
}

/// RTR per-computation delay over all three partitions in ns (8.44 µs; the
/// paper notes it is 7560 ns less than the static 16 µs).
pub fn rtr_total_delay_ns() -> u64 {
    PARTITION1_DELAY_NS + 2 * PARTITION23_DELAY_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_delay_arithmetic() {
        assert_eq!(STATIC_DELAY_NS, 16_000);
        assert_eq!(PARTITION1_DELAY_NS, 3_400);
        assert_eq!(PARTITION23_DELAY_NS, 2_520);
        assert_eq!(rtr_total_delay_ns(), 8_440);
        // "this RTR design takes 7560 ns less than the static design"
        assert_eq!(STATIC_DELAY_NS - rtr_total_delay_ns(), 7_560);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents the paper's arithmetic
    fn partition1_fits_and_partition2_fits() {
        // 16 × 70 = 1120 ≤ 1600 and 8 × 180 = 1440 ≤ 1600.
        assert!(16 * T1_CLBS <= 1600);
        assert!(8 * T2_CLBS <= 1600);
        // but 16 × 180 = 2880 does not fit: T2 needs two partitions.
        assert!(16 * T2_CLBS > 1600);
    }

    #[test]
    fn memory_words_match_paper_k() {
        // k = 64K / max(32, 16, 16) = 2048.
        let k = 65_536 / PARTITION1_MEMORY_WORDS.max(PARTITION23_MEMORY_WORDS);
        assert_eq!(k, 2048);
    }
}
