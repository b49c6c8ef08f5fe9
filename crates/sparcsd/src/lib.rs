//! # sparcsd — the crash-safe resident partitioning service
//!
//! A daemon wrapping the `sparcs` design flow behind a Unix socket, built
//! so that *nothing acknowledged is ever lost* and *nothing served is
//! ever uncertified*:
//!
//! - [`journal`] — an append-only, checksummed, fsync'd event log; the
//!   job graph is replayed from its longest valid prefix on startup, so a
//!   `kill -9` at any instant loses at most the unacknowledged tail.
//! - [`graph`] — the in-memory job state machine (queued → claimed →
//!   done/failed/cancelled) with lease-based orphan recovery and
//!   exponential-backoff retry.
//! - [`store`] — a disk-backed content-addressed result store shared
//!   across daemons; the in-memory `PartitionCache` becomes a
//!   read-through tier above it.
//! - [`server`] — workers, the newline-delimited-JSON protocol,
//!   admission control, and graceful degradation (deadline-expired
//!   solves serve their audited incumbent plus a proven bound).
//! - [`faults`] — deterministic, env-driven fault injection (crashes,
//!   I/O errors, delays, dropped connections) so the recovery claims
//!   above are *tested*, not asserted.
//! - [`hash`] — the FNV-1a hash used by journal checksums and store
//!   filenames.
//!
//! The wire types and the client live in the facade
//! ([`sparcs::service`]) so any `sparcs` user can talk
//! to a daemon without depending on this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod graph;
pub mod hash;
pub mod journal;
pub mod server;
pub mod store;
