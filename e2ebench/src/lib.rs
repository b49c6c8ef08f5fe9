//! The sparcs end-to-end benchmark: one command that runs a named
//! workload from a seed, prints every end-to-end metric by name with its
//! unit, checks every output, and (traced) splits the time by layer.
//! See `README.md` next to this crate.

pub mod checks;
pub mod layers;
pub mod ops;
pub mod pace;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;
