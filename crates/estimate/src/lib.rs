//! # sparcs-estimate — behavior-level estimation for reconfigurable synthesis
//!
//! The DAC'99 flow starts with *task estimation*: a high-level-synthesis
//! estimator (the authors' DSS system) derives, for every task of the
//! behavior task graph, the FPGA resources `R(t)` and execution delay `D(t)`
//! it would need on the target device, honoring a user clock-width
//! constraint. This crate reproduces that engine:
//!
//! * [`arch`] — target architecture parameters (`R_max`, `M_max`, `CT`, and
//!   the host↔memory transfer delay `D_m`) with presets for the paper's
//!   XC4044/WildForce-class board and the conjectured XC6000 board.
//! * [`opgraph`] — operation-level data-flow graphs describing a task's
//!   internals (the granularity below the task graph).
//! * [`library`] — a component library characterized for XC4000-class
//!   devices: cost and delay of adders, multipliers, registers, … by bit
//!   width, plus floorplan-overhead modeling.
//! * [`schedule`] — resource-constrained list scheduling of operation graphs
//!   (the mechanism behind cycle-count estimation).
//! * [`estimator`] — ties the above together into one [`TaskEstimate`] per
//!   task, scheduled on the cheapest allocation (one unit per operation
//!   kind) unless the caller passes its own.
//! * [`paper`] — the *paper-calibrated* backend that reports the exact §4
//!   constants (70/180 CLBs, 68 cycles @ 50 ns, …) for table-fidelity runs.
//!
//! # Example
//!
//! ```
//! use sparcs_estimate::{estimator::Estimator, library::ComponentLibrary, opgraph::OpGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = ComponentLibrary::xc4000();
//! let est = Estimator::new(lib, 100 /* max clock ns */);
//! let vp = OpGraph::vector_product(4, 8, 9);
//! let e = est.estimate(&vp)?;
//! assert!(e.resources.clbs > 0 && e.delay_ns > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod estimator;
pub mod library;
pub mod opgraph;
pub mod paper;
pub mod schedule;

pub use arch::Architecture;
pub use estimator::{EstimateError, Estimator, TaskEstimate};
pub use library::ComponentLibrary;
pub use opgraph::{OpGraph, OpId, OpKind};
