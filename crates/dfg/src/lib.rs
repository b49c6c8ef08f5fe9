//! # sparcs-dfg — behavior-level task graphs for reconfigurable synthesis
//!
//! This crate provides the *behavior task graph* representation used throughout
//! SPARCS-RS, the Rust reproduction of the DAC'99 paper *"An Automated Temporal
//! Partitioning and Loop Fission Approach for FPGA Based Reconfigurable
//! Synthesis of DSP Applications"* (Kaul, Vemuri, Govindarajan, Ouaiss).
//!
//! The paper's input specification (its Figure 3) is a directed acyclic graph
//! of coarse-grain *tasks* enclosed in an implicit outer loop. Each task `t`
//! carries a synthesis cost — FPGA resources `R(t)` and execution delay `D(t)`
//! — produced by a high-level-synthesis estimator, and each edge `t_i → t_j`
//! carries the number of data units `B(t_i, t_j)` communicated between the two
//! tasks. Tasks may additionally read data from, and write data to, the
//! *environment* (`B(env, t)` / `B(t, env)` in the paper's notation).
//!
//! # Quick example
//!
//! ```
//! use sparcs_dfg::{TaskGraph, Resources};
//!
//! # fn main() -> Result<(), sparcs_dfg::GraphError> {
//! let mut g = TaskGraph::new("pipeline");
//! let a = g.add_task("a", Resources::clbs(100), 350, 1);
//! let b = g.add_task("b", Resources::clbs(200), 50, 1);
//! g.add_edge(a, b, 1)?;
//! g.add_env_input("in", 4, [a])?;
//! g.add_env_output("out", 1, [b])?;
//! let order = g.topological_order()?;
//! assert_eq!(order, vec![a, b]);
//! # Ok(())
//! # }
//! ```
//!
//! # Modules
//!
//! * [`graph`] — the [`TaskGraph`] container, its builder API and validation.
//! * [`resources`] — multi-kind FPGA resource vectors ([`Resources`]).
//! * [`algo`] — levels and critical paths (no reachability matrix).
//! * [`paths`] — root→leaf path enumeration (the paper's `P_{ls}` set).
//! * [`gen`] — deterministic task-graph generators for tests and ablations.
//! * [`dot`] — Graphviz export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod dot;
pub mod gen;
pub mod graph;
pub mod parse;
pub mod paths;
pub mod resources;

pub use graph::{EnvPort, EnvPortId, GraphError, Task, TaskGraph, TaskId};
pub use paths::{PathBudgetExceeded, TaskPath};
pub use resources::Resources;
