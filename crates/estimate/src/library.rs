//! Component library characterized for XC4000-class devices.
//!
//! The paper: *"The HLS tool makes use of a component library characterized
//! for the particular reconfigurable device, to estimate the resource and
//! delay."* This module is that library. Cost/delay curves are calibrated so
//! that the §4 datapoints come out right:
//!
//! * a 9-bit multiplier datapath task (the DCT's `T1`) estimates ≈ 70 CLBs,
//! * a 17-bit multiplier datapath task (`T2`) estimates ≈ 180 CLBs,
//! * 9-bit multiply fits a 50 ns clock, 17-bit multiply a 70 ns clock.
//!
//! XC4000 CLBs hold two 4-input function generators and two flip-flops, hence
//! the `width/2` terms for ripple-carry arithmetic and registers.

use crate::opgraph::OpKind;
use serde::{Deserialize, Serialize};

/// Cost and delay models for functional units, registers and control logic.
///
/// See [`ComponentLibrary::xc4000`] for the calibrated preset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentLibrary {
    /// Library name for reports.
    pub name: String,
    /// Multiplier delay model `intercept + slope·bits` (ns).
    pub mul_delay: (f64, f64),
    /// Adder/subtractor delay model `intercept + slope·bits` (ns).
    pub add_delay: (f64, f64),
    /// Comparator / logic delay model `intercept + slope·bits` (ns).
    pub logic_delay: (f64, f64),
    /// Board memory access time (ns).
    pub mem_access_ns: f64,
    /// Fixed CLB cost of the board-memory interface (address/data registers,
    /// handshake).
    pub mem_interface_clbs: u64,
    /// Controller CLB cost per FSM state, plus a fixed base.
    pub ctrl_base_clbs: u64,
    /// See `ctrl_base_clbs`.
    pub ctrl_clbs_per_4_states: u64,
    /// Floorplan/routing overhead multiplier applied to the final CLB count
    /// (the paper incorporates layout-driven estimation [10, 11]; 1.0 keeps
    /// raw sums).
    pub layout_overhead: f64,
}

impl ComponentLibrary {
    /// The calibrated XC4000-class library (see module docs).
    pub fn xc4000() -> Self {
        ComponentLibrary {
            name: "XC4000".into(),
            mul_delay: (27.5, 2.5),
            add_delay: (8.0, 0.6),
            logic_delay: (6.0, 0.4),
            mem_access_ns: 35.0,
            mem_interface_clbs: 8,
            ctrl_base_clbs: 2,
            ctrl_clbs_per_4_states: 1,
            layout_overhead: 1.0,
        }
    }

    /// CLB cost of one functional unit of `kind` at `bits` operand width.
    pub fn fu_clbs(&self, kind: OpKind, bits: u32) -> u64 {
        let b = bits as u64;
        match kind {
            // Array multiplier: ~b²/2 CLBs (two partial-product bits/CLB).
            OpKind::Mul => (b * b).div_ceil(2),
            // Ripple-carry arithmetic: 2 bits per CLB.
            OpKind::Add | OpKind::Sub | OpKind::Cmp => b.div_ceil(2),
            OpKind::Logic => b.div_ceil(4),
            // The memory port hardware is shared; its cost is accounted once
            // via `mem_interface_clbs`.
            OpKind::MemRead | OpKind::MemWrite => 0,
        }
    }

    /// Combinational delay (ns) of one operation of `kind` at `bits` width.
    pub fn fu_delay_ns(&self, kind: OpKind, bits: u32) -> f64 {
        let b = bits as f64;
        let lin = |(i, s): (f64, f64)| i + s * b;
        match kind {
            OpKind::Mul => lin(self.mul_delay),
            OpKind::Add | OpKind::Sub => lin(self.add_delay),
            OpKind::Cmp | OpKind::Logic => lin(self.logic_delay),
            OpKind::MemRead | OpKind::MemWrite => self.mem_access_ns,
        }
    }

    /// CLB cost of a `bits`-wide register (2 flip-flops per CLB).
    pub fn register_clbs(&self, bits: u32) -> u64 {
        (bits as u64).div_ceil(2)
    }

    /// CLB cost of an FSM controller with `states` states.
    pub fn controller_clbs(&self, states: u32) -> u64 {
        self.ctrl_base_clbs + (states as u64).div_ceil(4) * self.ctrl_clbs_per_4_states
    }

    /// Applies the floorplan overhead multiplier to a raw CLB count.
    pub fn with_layout_overhead(&self, raw_clbs: u64) -> u64 {
        (raw_clbs as f64 * self.layout_overhead).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_paper_multiplier_clocks() {
        let lib = ComponentLibrary::xc4000();
        // 9-bit multiply at exactly 50 ns, 17-bit at 70 ns (paper's clocks).
        assert!((lib.fu_delay_ns(OpKind::Mul, 9) - 50.0).abs() < 1e-9);
        assert!((lib.fu_delay_ns(OpKind::Mul, 17) - 70.0).abs() < 1e-9);
    }

    #[test]
    fn multiplier_cost_grows_quadratically() {
        let lib = ComponentLibrary::xc4000();
        assert_eq!(lib.fu_clbs(OpKind::Mul, 9), 41);
        assert_eq!(lib.fu_clbs(OpKind::Mul, 17), 145);
        assert!(lib.fu_clbs(OpKind::Mul, 17) > 3 * lib.fu_clbs(OpKind::Mul, 9));
    }

    #[test]
    fn adder_cost_is_two_bits_per_clb() {
        let lib = ComponentLibrary::xc4000();
        assert_eq!(lib.fu_clbs(OpKind::Add, 16), 8);
        assert_eq!(lib.fu_clbs(OpKind::Add, 24), 12);
        assert_eq!(lib.fu_clbs(OpKind::Add, 17), 9);
    }

    #[test]
    fn paper_static_allocation_fits_xc4044() {
        // "The FPGA could fit two 9 bit multipliers, two 17 bit multipliers,
        // two 16 bit adders and two 24 bit adders" — with registers and
        // control, our library should put that near but within 1600 CLBs.
        let lib = ComponentLibrary::xc4000();
        let fus = 2 * lib.fu_clbs(OpKind::Mul, 9)
            + 2 * lib.fu_clbs(OpKind::Mul, 17)
            + 2 * lib.fu_clbs(OpKind::Add, 16)
            + 2 * lib.fu_clbs(OpKind::Add, 24);
        assert!(fus < 1600, "FU cost {fus} must leave room");
        assert!(fus > 300, "FU cost {fus} should be substantial");
    }

    #[test]
    fn memory_ops_cost_nothing_but_take_time() {
        let lib = ComponentLibrary::xc4000();
        assert_eq!(lib.fu_clbs(OpKind::MemRead, 32), 0);
        assert!(lib.fu_delay_ns(OpKind::MemRead, 32) > 0.0);
    }

    #[test]
    fn controller_and_register_models() {
        let lib = ComponentLibrary::xc4000();
        assert_eq!(lib.register_clbs(19), 10);
        assert_eq!(lib.controller_clbs(8), 4);
        assert_eq!(lib.controller_clbs(9), 5);
    }

    #[test]
    fn layout_overhead_scales() {
        let mut lib = ComponentLibrary::xc4000();
        assert_eq!(lib.with_layout_overhead(100), 100);
        lib.layout_overhead = 1.15;
        assert_eq!(lib.with_layout_overhead(100), 115);
    }
}
