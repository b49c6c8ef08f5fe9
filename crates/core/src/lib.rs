//! # sparcs-core — automated temporal partitioning and loop fission
//!
//! This crate implements the primary contribution of the DAC'99 paper
//! *"An Automated Temporal Partitioning and Loop Fission Approach for FPGA
//! Based Reconfigurable Synthesis of DSP Applications"*:
//!
//! 1. **Temporal partitioning** ([`ilp`], [`model`]): an exact ILP
//!    formulation that divides a behavior task graph into temporal segments
//!    configured one after another on the FPGA, honoring resource and
//!    on-board-memory constraints while minimizing design latency
//!    `N·CT + Σ d_p`. A list-based heuristic ([`list`]) reproduces the
//!    strawman the paper compares against in §4.
//! 2. **Loop fission** ([`fission`]): the throughput transformation that runs
//!    `k` computations per configuration to amortize the reconfiguration
//!    overhead, including the `k = ⌊M_max / max_i m_i⌋` memory analysis and
//!    the FDH / IDH host-sequencing strategies, plus host-code generation
//!    ([`codegen`]).
//!
//! Supporting modules: [`partitioning`] (the result type and its validator),
//! [`delay`] (the Figure-4 path-max partition delay measure), [`memory`]
//! (boundary-crossing and per-partition memory accounting), [`refine`]
//! (KL-style and simulated-annealing improvement of any seed partitioning)
//! and [`search`] (wall-clock budgets and cooperative cancellation threaded
//! through every partitioner).
//!
//! # Quick example
//!
//! ```
//! use sparcs_core::{ilp::IlpPartitioner, PartitionOptions};
//! use sparcs_dfg::gen;
//! use sparcs_estimate::Architecture;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = gen::fig4_example();
//! let arch = Architecture::xc4044_wildforce().with_memory_words(1024);
//! let part = IlpPartitioner::new(arch, PartitionOptions::default()).partition(&graph)?;
//! assert!(part.partitioning.partition_count() >= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
pub mod delay;
pub mod fission;
pub mod ilp;
pub mod list;
pub mod memory;
pub mod model;
pub mod partitioning;
pub mod refine;
pub mod search;

pub use fission::{FissionAnalysis, SequencingStrategy};
pub use ilp::{IlpPartitioner, PartitionError, PartitionOptions, PartitionedDesign};
pub use partitioning::{PartitionId, Partitioning};
pub use search::{CancelToken, SearchBudget, SearchCtx};
