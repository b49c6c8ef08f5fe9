//! Target architecture parameters.
//!
//! The paper's formal architecture constraints are `R_max` (FPGA resource
//! capacity), `M_max` (temporary on-board memory size) and `CT`
//! (reconfiguration time). The loop-fission analysis additionally needs
//! `D_m`, the delay of communicating one memory element between the host and
//! the board memory. [`Architecture`] bundles all four with the memory word
//! width, and ships presets for the boards discussed in §4.

use serde::{Deserialize, Serialize};
use sparcs_dfg::Resources;
use std::fmt;

/// One reconfigurable-board target: FPGA capacity, board memory, and timing.
///
/// # Examples
///
/// ```
/// use sparcs_estimate::Architecture;
///
/// let board = Architecture::xc4044_wildforce();
/// assert_eq!(board.resources.clbs, 1600);
/// assert_eq!(board.memory_words, 65_536);
/// assert_eq!(board.reconfig_time_ns, 100_000_000); // 100 ms
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Architecture {
    /// Board name for reports.
    pub name: String,
    /// FPGA resource capacity, the paper's `R_max`.
    pub resources: Resources,
    /// On-board memory size in words, the paper's `M_max`.
    pub memory_words: u64,
    /// Memory word width in bits.
    pub memory_word_bits: u32,
    /// Reconfiguration time `CT` in nanoseconds.
    pub reconfig_time_ns: u64,
    /// Host↔board per-word transfer delay `D_m` in nanoseconds.
    ///
    /// The paper does not state this number; the preset value (25 ns/word) is
    /// calibrated from the described 33 MHz, 32-bit PCI link with a simple
    /// handshaking protocol; `repro-tables` prints how the Table 2 headline
    /// moves with it.
    pub transfer_ns_per_word: u64,
}

impl Architecture {
    /// The paper's experimental board: a single Xilinx XC4044 FPGA with
    /// 1600 CLBs, one 64K × 32-bit memory bank, 100 ms reconfiguration, on a
    /// 33 MHz PCI bus.
    pub fn xc4044_wildforce() -> Self {
        Architecture {
            name: "XC4044/WildForce".into(),
            resources: Resources::clbs(1600),
            memory_words: 65_536,
            memory_word_bits: 32,
            reconfig_time_ns: 100_000_000,
            transfer_ns_per_word: 25,
        }
    }

    /// The paper's §4 conjecture: an XC6000-series device with a 500 µs
    /// reconfiguration overhead, same board otherwise.
    pub fn xc6200_fast_reconfig() -> Self {
        Architecture {
            name: "XC6000 (500 us reconfig)".into(),
            reconfig_time_ns: 500_000,
            ..Architecture::xc4044_wildforce()
        }
    }

    /// A Time-Multiplexed-FPGA-class device (the paper cites Trimberger's
    /// TM-FPGA with nanosecond-scale context switches): 5 µs here to stay
    /// conservative about off-chip state.
    pub fn time_multiplexed() -> Self {
        Architecture {
            name: "Time-Multiplexed FPGA".into(),
            reconfig_time_ns: 5_000,
            ..Architecture::xc4044_wildforce()
        }
    }

    /// Returns a copy with a different memory size (used by the memory
    /// ablation sweeps).
    pub fn with_memory_words(&self, words: u64) -> Self {
        Architecture {
            memory_words: words,
            ..self.clone()
        }
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}, {} x {}-bit words, CT = {} ms, D_m = {} ns/word",
            self.name,
            self.resources,
            self.memory_words,
            self.memory_word_bits,
            self.reconfig_time_ns as f64 / 1e6,
            self.transfer_ns_per_word
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_constants() {
        let b = Architecture::xc4044_wildforce();
        assert_eq!(b.resources, Resources::clbs(1600));
        assert_eq!(b.memory_words, 64 * 1024);
        assert_eq!(b.memory_word_bits, 32);
        assert_eq!(b.reconfig_time_ns, 100_000_000);

        let x = Architecture::xc6200_fast_reconfig();
        assert_eq!(x.reconfig_time_ns, 500_000);
        assert_eq!(x.resources, b.resources);
    }

    #[test]
    fn display_is_informative() {
        let s = Architecture::xc4044_wildforce().to_string();
        assert!(s.contains("1600 CLBs"));
        assert!(s.contains("100 ms"));
    }
}
