//! Behavior-level task estimation.
//!
//! An [`Estimator`] turns an operation graph into a [`TaskEstimate`]:
//! the FPGA resources `R(t)` and execution delay `D(t)` the paper's ILP
//! model consumes, plus the clock/cycle decomposition the RTR simulator
//! reports. Resource accounting follows the DSS structure: functional
//! units + registers (from live-value analysis) + controller (one FSM state
//! per schedule cycle) + the board-memory interface, all inflated by the
//! library's floorplan-overhead factor.

use crate::library::ComponentLibrary;
use crate::opgraph::OpGraph;
use crate::schedule::{self, Allocation, ScheduleError};
use serde::{Deserialize, Serialize};
use sparcs_dfg::Resources;
use std::fmt;

/// Synthesis cost estimate of one task (or of a whole static design).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskEstimate {
    /// FPGA resources, the paper's `R(t)`.
    pub resources: Resources,
    /// Execution delay of one activation in ns, the paper's `D(t)`.
    pub delay_ns: u64,
    /// Schedule length in clock cycles.
    pub cycles: u32,
    /// Selected clock period in ns.
    pub clock_ns: u64,
}

impl TaskEstimate {
    /// Builds an estimate directly from cycle count and clock (used by the
    /// paper-calibrated backend).
    pub fn from_cycles(resources: Resources, cycles: u32, clock_ns: u64) -> Self {
        TaskEstimate {
            resources,
            delay_ns: cycles as u64 * clock_ns,
            cycles,
            clock_ns,
        }
    }
}

impl fmt::Display for TaskEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}, {} cycles @ {} ns = {} ns",
            self.resources, self.cycles, self.clock_ns, self.delay_ns
        )
    }
}

/// Errors from estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimateError {
    /// The operation graph could not be scheduled.
    Schedule(ScheduleError),
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::Schedule(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EstimateError {}

impl From<ScheduleError> for EstimateError {
    fn from(e: ScheduleError) -> Self {
        EstimateError::Schedule(e)
    }
}

/// The component-library-backed estimation engine.
///
/// `max_clock_ns` is the paper's *user constraint* ("the maximum clock-width
/// for the design"): the chosen clock never exceeds it, and slower components
/// become multi-cycle operations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Estimator {
    lib: ComponentLibrary,
    max_clock_ns: u64,
}

impl Estimator {
    /// Creates an estimator over `lib` with the given clock-width constraint.
    pub fn new(lib: ComponentLibrary, max_clock_ns: u64) -> Self {
        Estimator { lib, max_clock_ns }
    }

    /// The library in use.
    pub fn library(&self) -> &ComponentLibrary {
        &self.lib
    }

    /// The user clock constraint in ns.
    pub fn max_clock_ns(&self) -> u64 {
        self.max_clock_ns
    }

    /// Picks the clock period for a graph: the slowest single-cycle-able
    /// component, capped by the user constraint.
    pub fn choose_clock_ns(&self, g: &OpGraph) -> u64 {
        let slowest = g
            .ops()
            .map(|(_, o)| self.lib.fu_delay_ns(o.kind, o.bits))
            .fold(0.0f64, f64::max);
        let clock = slowest.ceil() as u64;
        clock.clamp(1, self.max_clock_ns)
    }

    /// Estimates a task with a minimal allocation (one unit per op kind) —
    /// the cheapest datapath, as DSS would pick for a small task.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::Schedule`] when the graph is cyclic.
    pub fn estimate(&self, g: &OpGraph) -> Result<TaskEstimate, EstimateError> {
        self.estimate_with(g, &Allocation::minimal_for(g))
    }

    /// Estimates a task under an explicit allocation.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::Schedule`] when the graph is cyclic or the
    /// allocation lacks a compatible unit.
    pub fn estimate_with(
        &self,
        g: &OpGraph,
        alloc: &Allocation,
    ) -> Result<TaskEstimate, EstimateError> {
        let clock_ns = self.choose_clock_ns(g);
        let sched = schedule::list_schedule(g, alloc, &self.lib, clock_ns)?;

        let fu = alloc.fu_clbs(&self.lib);
        let mem = if g.ops().any(|(_, o)| o.kind.uses_memory_port()) {
            self.lib.mem_interface_clbs
        } else {
            0
        };
        // Registers: XC4000 CLBs carry two flip-flops alongside their
        // function generators, so datapath CLBs provide "free" FFs; only
        // register bits beyond that capacity cost extra CLBs.
        let widest = g.ops().map(|(_, o)| o.bits).max().unwrap_or(0);
        let reg_bits = sched.max_live_values as u64 * widest as u64;
        let free_ffs = 2 * (fu + mem);
        let regs = reg_bits.saturating_sub(free_ffs).div_ceil(2);
        let ctrl = self.lib.controller_clbs(sched.latency_cycles.max(1));
        let clbs = self.lib.with_layout_overhead(fu + regs + ctrl + mem);

        Ok(TaskEstimate {
            resources: Resources::clbs(clbs),
            delay_ns: sched.latency_cycles as u64 * clock_ns,
            cycles: sched.latency_cycles,
            clock_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opgraph::{OpGraph, OpKind};

    fn est() -> Estimator {
        Estimator::new(ComponentLibrary::xc4000(), 100)
    }

    /// The T1 task of the DCT case study: 4-element vector product with a
    /// 9-bit multiplier. The paper's DSS estimated 70 CLBs; our library is
    /// calibrated to land within 25 %.
    #[test]
    fn t1_estimate_near_paper() {
        let g = OpGraph::vector_product(4, 8, 9);
        let e = est().estimate(&g).unwrap();
        let clbs = e.resources.clbs as f64;
        assert!(
            (clbs - 70.0).abs() / 70.0 < 0.25,
            "T1 estimate {clbs} CLBs vs paper 70"
        );
        assert_eq!(e.clock_ns, 50, "9-bit multiply sets a 50 ns clock");
    }

    /// T2: 17-bit multiplier vector product, paper estimate 180 CLBs.
    #[test]
    fn t2_estimate_near_paper() {
        let g = OpGraph::vector_product(4, 12, 17);
        let e = est().estimate(&g).unwrap();
        let clbs = e.resources.clbs as f64;
        assert!(
            (clbs - 180.0).abs() / 180.0 < 0.25,
            "T2 estimate {clbs} CLBs vs paper 180"
        );
        assert_eq!(e.clock_ns, 70, "17-bit multiply sets a 70 ns clock");
    }

    #[test]
    fn clock_respects_user_constraint() {
        let g = OpGraph::vector_product(4, 12, 17);
        let fast = Estimator::new(ComponentLibrary::xc4000(), 40);
        let e = fast.estimate(&g).unwrap();
        assert_eq!(e.clock_ns, 40);
        // 70 ns multiply now takes 2 cycles; delay must not shrink.
        let slow = est().estimate(&g).unwrap();
        assert!(e.cycles > slow.cycles);
    }

    #[test]
    fn delay_is_cycles_times_clock() {
        let g = OpGraph::vector_product(4, 8, 9);
        let e = est().estimate(&g).unwrap();
        assert_eq!(e.delay_ns, e.cycles as u64 * e.clock_ns);
    }

    #[test]
    fn bigger_allocation_costs_more_resources_but_less_time() {
        let g = OpGraph::vector_product(8, 8, 9);
        let e_min = est().estimate(&g).unwrap();
        let e_unc = est()
            .estimate_with(&g, &Allocation::unconstrained_for(&g))
            .unwrap();
        assert!(e_unc.resources.clbs > e_min.resources.clbs);
        assert!(e_unc.cycles <= e_min.cycles);
    }

    #[test]
    fn pure_compute_task_skips_memory_interface() {
        let mut g = OpGraph::new();
        let a = g.add_op(OpKind::Add, 8, "a");
        let b = g.add_op(OpKind::Add, 9, "b");
        g.add_dep(a, b);
        let e = est().estimate(&g).unwrap();
        // 2 adds on one 9-bit adder (5 CLBs) + 1 reg + ctrl: small.
        assert!(e.resources.clbs < 30, "{}", e.resources.clbs);
    }

    #[test]
    fn from_cycles_constructor() {
        let e = TaskEstimate::from_cycles(Resources::clbs(70), 68, 50);
        assert_eq!(e.delay_ns, 3400);
    }
}
