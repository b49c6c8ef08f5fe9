//! The `sparcsd` line protocol: wire types and a blocking client.
//!
//! The resident design service (`crates/sparcsd`) listens on a Unix
//! domain socket and speaks newline-delimited JSON: every request is one
//! [`Request`] serialized on a single line, every reply one [`Response`].
//! This module owns the wire vocabulary so the `sparcs` CLI client and the
//! `sparcsd` daemon cannot drift apart — the daemon crate depends on this
//! facade and reuses these exact types.
//!
//! ## Protocol grammar
//!
//! ```text
//! conn    := request '\n'            ; one request per connection
//! request := Submit | Status | Result | Cancel | Stats | Shutdown
//! reply   := response '\n'           ; exactly one response per request
//! ```
//!
//! Requests and responses are the externally-tagged JSON renderings of
//! [`Request`] and [`Response`], e.g.
//!
//! ```text
//! {"Submit":{"spec":{"graph":"...","arch":"xc4044",...}}}
//! {"Submitted":{"job":3}}
//! ```
//!
//! The protocol is deliberately one-shot per connection: a client connects,
//! writes one line, reads one line, and the connection closes. That makes
//! dropped connections (a crash-test staple) harmless — the client retries
//! with a fresh connection and the daemon journals nothing it did not
//! acknowledge... with one documented exception: a `Submit` is journaled
//! *before* the acknowledgement is written, so a connection dropped between
//! the two leaves an accepted job the client never heard about
//! (at-least-once submission). [`Response::Submitted`] returns the job id;
//! idempotent clients can `Status` before resubmitting.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Everything the daemon needs to reproduce a partitioning problem: the
/// full problem statement plus service-level execution policy. The
/// statement part (graph text, architecture, partitioner spec and its
/// options) is exactly what keys the content-addressed result store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The task graph in the `sparcs_dfg::parse` text format.
    pub graph: String,
    /// Target board preset: `"xc4044"`, `"xc6200"` or `"tm"`.
    pub arch: String,
    /// Partitioner spec in the [`crate::strategy::parse_spec`] grammar
    /// (`"ilp"`, `"list+kl"`, `"portfolio"`, …).
    pub partitioner: String,
    /// Wall-clock solve budget in milliseconds. The clock starts when a
    /// worker *claims* the job, never at submission — queue wait does not
    /// consume solve budget. `None` runs to completion (subject to the
    /// daemon's admission policy).
    pub budget_ms: Option<u64>,
    /// Hard cap on the partition count, when the client wants one.
    pub max_partitions: Option<u32>,
    /// Validate and certify under per-edge memory accounting instead of
    /// the paper's net accounting.
    pub edge_memory: bool,
    /// How many times a job whose worker dies (crash, fault injection,
    /// lease expiry) is re-attempted before it is failed permanently.
    /// Zero means "use the daemon's default".
    pub max_attempts: u32,
}

impl JobSpec {
    /// A spec with service defaults: exact ILP on the XC4044 board, no
    /// budget, daemon-default retry policy.
    pub fn new(graph: impl Into<String>) -> Self {
        JobSpec {
            graph: graph.into(),
            arch: "xc4044".into(),
            partitioner: "ilp".into(),
            budget_ms: None,
            max_partitions: None,
            edge_memory: false,
            max_attempts: 0,
        }
    }
}

/// One client request (one line on the wire).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Request {
    /// Enqueue a partitioning job. Subject to admission control: a budget
    /// above the daemon's cap or a full queue is rejected outright.
    Submit {
        /// The job to run.
        spec: JobSpec,
    },
    /// Report a job's current state.
    Status {
        /// Job id from [`Response::Submitted`].
        job: u64,
    },
    /// Fetch a finished job's certified result. With `wait_ms` the daemon
    /// holds the request until the job settles or the wait expires. A
    /// wait still pending when the daemon shuts down answers `not-done`
    /// at once; the job stays journaled and runs after a restart.
    Result {
        /// Job id from [`Response::Submitted`].
        job: u64,
        /// How long to block waiting for the job to settle (`None`: answer
        /// immediately).
        wait_ms: Option<u64>,
    },
    /// Cancel a job: a queued job is withdrawn; a running job's search is
    /// cooperatively cancelled and serves its audited incumbent if it has
    /// one.
    Cancel {
        /// Job id from [`Response::Submitted`].
        job: u64,
    },
    /// Service counters (queue depths, cache and store traffic).
    Stats,
    /// Ask the daemon to drain and exit (used by tests and orderly
    /// restarts; `kill -9` is the *tested* alternative).
    Shutdown,
}

/// A job's lifecycle state as reported over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobPhase {
    /// Accepted, waiting for a worker (possibly in retry backoff).
    Queued,
    /// Claimed by a worker and solving.
    Running,
    /// Finished with a certified result available.
    Done,
    /// Failed permanently (infeasible, or retries exhausted).
    Failed,
    /// Cancelled before any result existed.
    Cancelled,
}

impl fmt::Display for JobPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// The certified outcome of a finished job.
///
/// Every result the daemon serves has passed the independent
/// [`sparcs_audit`](crate::audit) certifier *at serve time* — a result
/// read back from the disk store is re-audited before it crosses the
/// wire, so a corrupted or mis-produced design can never be served.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResultSummary {
    /// Spec of the strategy that produced the design.
    pub strategy: String,
    /// Task → partition assignment (dense task order).
    pub assignment: Vec<u32>,
    /// Number of temporal partitions.
    pub partitions: u32,
    /// Per-partition delays in ns.
    pub partition_delays_ns: Vec<u64>,
    /// `Σ d_p` in ns.
    pub sum_delay_ns: u64,
    /// `N·CT + Σ d_p` in ns — the served incumbent's latency.
    pub latency_ns: u64,
    /// A *proven* lower bound on any feasible design's latency: the
    /// incumbent's own latency when optimality was proven, otherwise the
    /// pre-solve analyzer's certified bound — so a deadline-expired or
    /// cancelled solve still answers with `(incumbent, bound)` instead of
    /// an error.
    pub bound_ns: u64,
    /// Whether the solve proved optimality.
    pub proven_optimal: bool,
    /// Whether the search was stopped (deadline or cancel) and this is the
    /// best incumbent found, not a proven optimum.
    pub cancelled: bool,
}

/// One daemon reply (one line on the wire).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Response {
    /// The job was admitted and journaled durably.
    Submitted {
        /// Id to poll with.
        job: u64,
    },
    /// A job's current state.
    Status {
        /// The queried job.
        job: u64,
        /// Lifecycle phase.
        phase: JobPhase,
        /// Claim attempts so far (0 while never claimed).
        attempts: u32,
        /// Human-readable detail (worker name, failure reason, backoff).
        detail: String,
    },
    /// A finished job's certified result.
    Result {
        /// The queried job.
        job: u64,
        /// The certified summary.
        result: ResultSummary,
    },
    /// Cancellation was recorded (the final phase says what it did).
    Cancelled {
        /// The cancelled job.
        job: u64,
        /// Phase after the cancel was applied.
        phase: JobPhase,
    },
    /// Service counters.
    Stats {
        /// Snapshot of the daemon's counters.
        stats: ServiceStats,
    },
    /// The request was rejected or failed; `code` is stable and
    /// machine-matchable, `message` is for humans.
    Error {
        /// Stable error code (`"over-budget"`, `"queue-full"`,
        /// `"unknown-job"`, `"bad-spec"`, `"not-done"`, `"failed"`, …).
        code: String,
        /// Human-readable explanation.
        message: String,
    },
    /// Acknowledgement for requests with nothing to report (`Shutdown`).
    Ok,
}

/// Daemon counters served by [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Jobs waiting for a worker.
    pub queued: u64,
    /// Jobs currently claimed.
    pub running: u64,
    /// Jobs finished with a result.
    pub done: u64,
    /// Jobs failed permanently.
    pub failed: u64,
    /// Jobs cancelled before completion.
    pub cancelled: u64,
    /// In-memory cache hits.
    pub cache_hits: u64,
    /// In-memory cache misses.
    pub cache_misses: u64,
    /// In-memory cache evictions.
    pub cache_evictions: u64,
    /// Results answered from the shared disk store.
    pub store_hits: u64,
    /// Journal events replayed at the last startup.
    pub replayed_events: u64,
}

/// A client-side failure talking to the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// The socket could not be reached or the connection broke mid-request
    /// (the daemon may have crashed — or a fault injection dropped us).
    Io(std::io::Error),
    /// The daemon answered something that does not parse as a
    /// [`Response`].
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "service connection failed: {e}"),
            ClientError::Protocol(m) => write!(f, "service protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Protocol(_) => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking protocol client: one fresh connection per request.
#[derive(Debug, Clone)]
pub struct Client {
    socket: PathBuf,
    timeout: Option<Duration>,
}

impl Client {
    /// A client for the daemon listening at `socket`, with a 30 s default
    /// read timeout so a hung daemon cannot wedge the CLI.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        Client {
            socket: socket.into(),
            timeout: Some(Duration::from_secs(30)),
        }
    }

    /// Overrides the per-request read timeout (`None` blocks forever —
    /// what `Result { wait_ms: None }` polling loops want).
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// The socket path this client talks to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Sends one request and reads the one response.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the socket is unreachable or drops;
    /// [`ClientError::Protocol`] when the reply does not parse.
    pub fn request(&self, request: &Request) -> Result<Response, ClientError> {
        let mut stream = UnixStream::connect(&self.socket)?;
        stream.set_read_timeout(self.timeout)?;
        let line = serde_json::to_string(request)
            .map_err(|e| ClientError::Protocol(format!("unencodable request: {e}")))?;
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply)?;
        if reply.is_empty() {
            return Err(ClientError::Protocol(
                "connection closed before a response arrived".into(),
            ));
        }
        serde_json::from_str(reply.trim_end())
            .map_err(|e| ClientError::Protocol(format!("unparsable response {reply:?}: {e}")))
    }

    /// Convenience: submit and return the job id.
    ///
    /// # Errors
    ///
    /// See [`Self::request`]; a daemon-side rejection surfaces as
    /// [`ClientError::Protocol`] carrying the error code and message.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, ClientError> {
        match self.request(&Request::Submit { spec })? {
            Response::Submitted { job } => Ok(job),
            Response::Error { code, message } => Err(ClientError::Protocol(format!(
                "rejected [{code}]: {message}"
            ))),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_the_wire_encoding() {
        let reqs = vec![
            Request::Submit {
                spec: JobSpec {
                    budget_ms: Some(250),
                    max_partitions: Some(4),
                    edge_memory: true,
                    max_attempts: 3,
                    ..JobSpec::new("in a 16\n")
                },
            },
            Request::Status { job: 7 },
            Request::Result {
                job: 7,
                wait_ms: Some(1000),
            },
            Request::Result {
                job: 8,
                wait_ms: None,
            },
            Request::Cancel { job: 7 },
            Request::Stats,
            Request::Shutdown,
        ];
        for r in reqs {
            let line = serde_json::to_string(&r).expect("encodes");
            assert!(!line.contains('\n'), "one request = one line: {line}");
            let back: Request = serde_json::from_str(&line).expect("decodes");
            assert_eq!(back, r);
        }
    }

    #[test]
    fn responses_round_trip_the_wire_encoding() {
        let resps = vec![
            Response::Submitted { job: 1 },
            Response::Status {
                job: 1,
                phase: JobPhase::Running,
                attempts: 2,
                detail: "worker-0".into(),
            },
            Response::Result {
                job: 1,
                result: ResultSummary {
                    strategy: "ilp".into(),
                    assignment: vec![0, 0, 1],
                    partitions: 2,
                    partition_delays_ns: vec![10, 20],
                    sum_delay_ns: 30,
                    latency_ns: 50,
                    bound_ns: 50,
                    proven_optimal: true,
                    cancelled: false,
                },
            },
            Response::Cancelled {
                job: 1,
                phase: JobPhase::Cancelled,
            },
            Response::Stats {
                stats: ServiceStats {
                    queued: 1,
                    done: 2,
                    ..ServiceStats::default()
                },
            },
            Response::Error {
                code: "over-budget".into(),
                message: "budget 10s exceeds the 1s admission cap".into(),
            },
            Response::Ok,
        ];
        for r in resps {
            let line = serde_json::to_string(&r).expect("encodes");
            assert!(!line.contains('\n'), "one response = one line: {line}");
            let back: Response = serde_json::from_str(&line).expect("decodes");
            assert_eq!(back, r);
        }
    }

    #[test]
    fn unreachable_socket_is_an_io_error() {
        let client = Client::new("/nonexistent/sparcsd.sock");
        match client.request(&Request::Stats) {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
