//! # sparcs-rtr — a run-time-reconfigured board simulator
//!
//! The paper evaluates on a physical board: one Xilinx XC4044 on a
//! WildForce-class PCI card with a 64K×32 SRAM, driven by a Pentium host.
//! This crate is the simulated substitute: a deterministic,
//! integer-nanosecond model of
//!
//! * the **host sequencers** implementing the paper's FDH and IDH loops and
//!   the static (single-configuration) baseline, which charge `CT` per
//!   configuration load and `D_m` per host-side word transfer,
//! * the **on-board memory**, modelled by its budget (a design's `k`
//!   batched blocks must fit `M_max` words) and by those `D_m` transfer
//!   charges, not by storing words: the values that stay resident across
//!   reconfigurations live in each computation's value history
//!   ([`design`]),
//!
//! with the measurement probes the paper describes (*"we measured the
//! execution times by inserting probes in the software code at points where
//! the reconfigurable board was invoked"*).
//!
//! Configurations are *functional*: each partition carries a kernel closure
//! that actually computes its outputs, so the simulator validates both the
//! timing shape of Tables 1–2 and the bit-exactness of the partitioned DCT
//! against the software reference.
//!
//! Host execution is *streaming*: the [`host::Sequencer`] drivers pull one
//! batch of `k` computations at a time from an [`stream::InputSource`] and
//! push results into an [`stream::OutputSink`], so host memory is bounded
//! by `min(k, I)` slots of the batch geometry instead of the workload size;
//! [`host::Sequencer::run_slice`] runs a materialized slice through them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod design;
pub mod host;
pub mod report;
pub mod stream;

pub use design::{BatchKernel, Configuration, Kernel, RtrDesign, StaticDesign, MAX_BATCH_LANES};
pub use host::{FdhSequencer, HostError, IdhSequencer, PhaseProfile, Sequencer, StaticSequencer};
pub use report::TimeReport;
pub use stream::{CountingSink, InputSource, OutputSink, SliceSource, SyntheticSource, VecSink};
