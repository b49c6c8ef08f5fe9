//! Multi-kind FPGA resource vectors.
//!
//! The paper's resource constraint (its Equation 6) is written for a single
//! resource kind — typically configurable logic blocks (CLBs) — but notes that
//! *"similar equations can be added if multiple resource types exist in the
//! FPGA"*. [`Resources`] is a small fixed vector over the resource kinds that
//! matter for the devices modeled in this reproduction (1990s Xilinx parts plus
//! a block-RAM/DSP generalization so ablations can exercise the
//! multi-constraint path of the partitioner).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A vector of FPGA resource quantities.
///
/// Used both for task costs (`R(t)` in the paper) and for device capacities
/// (`R_max`). All comparisons used by feasibility checks are *component-wise*:
/// a cost fits a capacity iff every component fits.
///
/// # Examples
///
/// ```
/// use sparcs_dfg::Resources;
///
/// let t1 = Resources::clbs(70);
/// let t2 = Resources::clbs(180);
/// let device = Resources::clbs(1600);
/// assert!((t1 * 16).fits_within(&device));
/// assert!(!(t2 * 16).fits_within(&device));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Resources {
    /// Configurable logic blocks (the paper's primary resource).
    pub clbs: u64,
    /// Dedicated flip-flops outside CLBs (0 for XC4000-class devices).
    pub flip_flops: u64,
    /// Dedicated multiplier blocks (0 for XC4000-class devices).
    pub mult_blocks: u64,
    /// Embedded RAM, in words (0 for XC4000-class devices).
    pub bram_words: u64,
}

impl Resources {
    /// The zero resource vector.
    pub const ZERO: Resources = Resources {
        clbs: 0,
        flip_flops: 0,
        mult_blocks: 0,
        bram_words: 0,
    };

    /// Creates a new resource vector with every component given explicitly.
    pub fn new(clbs: u64, flip_flops: u64, mult_blocks: u64, bram_words: u64) -> Self {
        Resources {
            clbs,
            flip_flops,
            mult_blocks,
            bram_words,
        }
    }

    /// A vector with only the CLB component set — the common case for the
    /// XC4044 experiments in the paper.
    pub fn clbs(clbs: u64) -> Self {
        Resources {
            clbs,
            ..Resources::ZERO
        }
    }

    /// Returns `true` when every component of `self` is less than or equal to
    /// the corresponding component of `capacity`.
    pub fn fits_within(&self, capacity: &Resources) -> bool {
        self.clbs <= capacity.clbs
            && self.flip_flops <= capacity.flip_flops
            && self.mult_blocks <= capacity.mult_blocks
            && self.bram_words <= capacity.bram_words
    }

    /// Component-wise saturating subtraction (slack remaining in a device).
    pub fn saturating_sub(&self, other: &Resources) -> Resources {
        Resources {
            clbs: self.clbs.saturating_sub(other.clbs),
            flip_flops: self.flip_flops.saturating_sub(other.flip_flops),
            mult_blocks: self.mult_blocks.saturating_sub(other.mult_blocks),
            bram_words: self.bram_words.saturating_sub(other.bram_words),
        }
    }

    /// The ceiling of the component-wise ratio `self / capacity`, i.e. the
    /// minimum number of capacity-sized bins needed if the cost were perfectly
    /// divisible. This is the paper's *preprocessing step* lower bound on the
    /// number of temporal partitions (`⌈ΣR(t) / R_max⌉`).
    ///
    /// Components with zero capacity and zero demand contribute nothing;
    /// a component with zero capacity but nonzero demand yields `None`
    /// (no feasible partition count exists).
    pub fn min_bins(&self, capacity: &Resources) -> Option<u64> {
        fn ratio(demand: u64, cap: u64) -> Option<u64> {
            match (demand, cap) {
                (0, _) => Some(0),
                (_, 0) => None,
                (d, c) => Some(d.div_ceil(c)),
            }
        }
        let bins = ratio(self.clbs, capacity.clbs)?
            .max(ratio(self.flip_flops, capacity.flip_flops)?)
            .max(ratio(self.mult_blocks, capacity.mult_blocks)?)
            .max(ratio(self.bram_words, capacity.bram_words)?);
        Some(bins.max(1))
    }

    /// Iterates over `(kind name, demand)` pairs for the nonzero components —
    /// used by the ILP model generator to emit one constraint per kind.
    pub fn components(&self) -> impl Iterator<Item = (&'static str, u64)> {
        [
            ("clbs", self.clbs),
            ("flip_flops", self.flip_flops),
            ("mult_blocks", self.mult_blocks),
            ("bram_words", self.bram_words),
        ]
        .into_iter()
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            clbs: self.clbs + rhs.clbs,
            flip_flops: self.flip_flops + rhs.flip_flops,
            mult_blocks: self.mult_blocks + rhs.mult_blocks,
            bram_words: self.bram_words + rhs.bram_words,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl Sub for Resources {
    type Output = Resources;
    fn sub(self, rhs: Resources) -> Resources {
        Resources {
            clbs: self.clbs - rhs.clbs,
            flip_flops: self.flip_flops - rhs.flip_flops,
            mult_blocks: self.mult_blocks - rhs.mult_blocks,
            bram_words: self.bram_words - rhs.bram_words,
        }
    }
}

impl Mul<u64> for Resources {
    type Output = Resources;
    fn mul(self, rhs: u64) -> Resources {
        Resources {
            clbs: self.clbs * rhs,
            flip_flops: self.flip_flops * rhs,
            mult_blocks: self.mult_blocks * rhs,
            bram_words: self.bram_words * rhs,
        }
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, |acc, r| acc + r)
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} CLBs", self.clbs)?;
        if self.flip_flops > 0 {
            write!(f, ", {} FFs", self.flip_flops)?;
        }
        if self.mult_blocks > 0 {
            write!(f, ", {} MULTs", self.mult_blocks)?;
        }
        if self.bram_words > 0 {
            write!(f, ", {} BRAM words", self.bram_words)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_is_component_wise() {
        let a = Resources::new(10, 5, 0, 0);
        let cap = Resources::new(10, 4, 0, 0);
        assert!(!a.fits_within(&cap), "flip-flop component must be checked");
        assert!(a.fits_within(&Resources::new(10, 5, 0, 0)));
    }

    #[test]
    fn arithmetic_round_trips() {
        let a = Resources::new(3, 1, 4, 1);
        let b = Resources::new(5, 9, 2, 6);
        assert_eq!((a + b) - b, a);
        assert_eq!(a * 3, a + a + a);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Resources = (1..=4).map(|i| Resources::clbs(i * 10)).sum();
        assert_eq!(total, Resources::clbs(100));
    }

    #[test]
    fn min_bins_matches_paper_preprocessing() {
        // DCT case study: 16 tasks of 70 CLBs + 16 of 180 CLBs on a 1600-CLB
        // device. Total = 1120 + 2880 = 4000 → lower bound ⌈4000/1600⌉ = 3.
        let total = Resources::clbs(70) * 16 + Resources::clbs(180) * 16;
        assert_eq!(total.min_bins(&Resources::clbs(1600)), Some(3));
    }

    #[test]
    fn min_bins_zero_capacity_with_demand_is_none() {
        let t = Resources::new(10, 0, 2, 0);
        assert_eq!(t.min_bins(&Resources::clbs(100)), None);
        assert_eq!(t.min_bins(&Resources::new(100, 0, 2, 0)), Some(1));
    }

    #[test]
    fn min_bins_is_at_least_one() {
        assert_eq!(Resources::ZERO.min_bins(&Resources::clbs(10)), Some(1));
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        let a = Resources::clbs(5);
        let b = Resources::clbs(9);
        assert_eq!(a.saturating_sub(&b), Resources::ZERO);
        assert_eq!(b.saturating_sub(&a), Resources::clbs(4));
    }

    #[test]
    fn display_hides_zero_components() {
        assert_eq!(Resources::clbs(1600).to_string(), "1600 CLBs");
        assert_eq!(Resources::new(10, 0, 2, 0).to_string(), "10 CLBs, 2 MULTs");
    }
}
