//! The resident daemon: workers, the Unix-socket protocol, admission
//! control, retry, and graceful degradation.
//!
//! ## Architecture
//!
//! One [`run`] call owns everything: the replayed [`JobGraph`] + its
//! [`Journal`] behind one mutex (every mutation is journal-append *then*
//! in-memory apply, so memory is always a pure function of the journaled
//! prefix), a pool of worker threads claiming jobs under that lock, and a
//! blocking accept loop handing each connection to a scoped thread.
//! A job's claim and progress records are appended without an fsync;
//! every other record is fsynced before the daemon acts on it (the rule
//! and why it holds are in [`crate::journal`]).
//! One condvar wakes both workers (new/requeued jobs) and clients blocked
//! in `Result { wait_ms }`. Every event that makes a job claimable or
//! settled is applied under the state lock, and waiters check and wait on
//! that one guard, so no wakeup is lost. No worker claims a submitted job
//! before the connection thread has written its ack, so a crash on the
//! claim path can never cost a client the id of a job the journal already
//! holds.
//!
//! `Shutdown` sets a flag and then connects once to the daemon's own
//! socket, so the blocked `accept` returns and the loop sees the flag.
//! The listener closes at once; pending `Result` waits answer
//! `not-done`; only in-flight solves are waited for.
//!
//! ## Serving tiers
//!
//! `submit` parses and validates each spec once, before admitting it, and
//! keeps the result for the worker that claims the job. A job with
//! nothing kept — replayed after a restart, or requeued — parses its
//! journaled spec again.
//!
//! A claimed job is answered from the cheapest tier that can prove its
//! answer: the in-memory [`PartitionCache`], then the shared disk
//! [`ResultStore`], then a fresh solve. *Every* tier passes the mandatory
//! `sparcs_audit` certification gate before a byte crosses the wire — a
//! cached or stored assignment is rebuilt into a full design, re-audited,
//! and its numbers compared against the stored ones; any disagreement is
//! a miss, never a served lie.
//!
//! ## Determinism rule
//!
//! Only deterministic results are memoized: a solve that ran with no
//! budget and whose cancel token never fired. Budgeted/cancelled results
//! are served (with their certified bound) but never published to either
//! tier — the repo-wide no-memoized-budgeted-results invariant, now held
//! across processes.
//!
//! ## Degradation
//!
//! A deadline-expired or cancelled solve that holds an audited incumbent
//! serves it as a normal `Done` result with `cancelled: true` and a
//! *proven* lower bound (`sparcs_analyze`'s certified objective +
//! reconfiguration bounds) — the client gets `(incumbent, bound)` instead
//! of an error. Transient failures (injected store errors, expired
//! leases) requeue with exponential backoff up to the job's attempt
//! bound; only then does the job fail.

use crate::faults;
use crate::graph::{backoff_ms, JobGraph, JobState, DEFAULT_MAX_ATTEMPTS};
use crate::journal::{Event, Journal};
use crate::store::ResultStore;
use sparcs::cache::PartitionCache;
use sparcs::core::model::ModelConfig;
use sparcs::core::partitioning::{MemoryMode, PartitionId, Partitioning};
use sparcs::core::search::{CancelToken, SearchCtx};
use sparcs::core::{PartitionOptions, PartitionedDesign};
use sparcs::estimate::Architecture;
use sparcs::flow::{
    design_from_partitioning, statement_key, DesignContext, FlowError, FlowSession,
    PartitionStrategy,
};
use sparcs::service::{JobPhase, JobSpec, Request, Response, ResultSummary, ServiceStats};
use sparcs::strategy::parse_spec;
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Per-daemon state directory (holds `journal.jsonl`). Never share
    /// this between daemons — the *store* is the shared tier.
    pub data_dir: PathBuf,
    /// The content-addressed result store directory, shareable across
    /// concurrent daemons.
    pub store_dir: PathBuf,
    /// Worker threads.
    pub workers: usize,
    /// Admission cap: with a cap set, submits must carry a budget of at
    /// most this many ms; unbounded work is rejected. `None` admits
    /// anything.
    pub max_budget_ms: Option<u64>,
    /// Maximum jobs queued + running before submits are rejected.
    pub queue_cap: usize,
    /// How long a claim is honored before its worker is presumed dead.
    pub lease: Duration,
    /// Default attempt bound for specs that leave `max_attempts` at 0.
    pub default_max_attempts: u32,
}

impl Config {
    /// A config with service defaults (2 workers, 1024-job queue, 60 s
    /// lease, 3 attempts, no admission cap).
    pub fn new(
        socket: impl Into<PathBuf>,
        data_dir: impl Into<PathBuf>,
        store_dir: impl Into<PathBuf>,
    ) -> Self {
        Config {
            socket: socket.into(),
            data_dir: data_dir.into(),
            store_dir: store_dir.into(),
            workers: 2,
            max_budget_ms: None,
            queue_cap: 1024,
            lease: Duration::from_secs(60),
            default_max_attempts: DEFAULT_MAX_ATTEMPTS,
        }
    }
}

/// The journaled state: graph + journal under one lock, so every mutation
/// is append-then-apply atomically with respect to other threads.
struct State {
    graph: JobGraph,
    journal: Journal,
}

impl State {
    /// Appends `ev` under the per-record rule of [`crate::journal`]: a
    /// claim or a progress note is written without an fsync, and the
    /// job's next record (`Done`, `Failed` or `Requeued`, each fsynced)
    /// flushes it. Every other event is fsynced before this returns.
    fn append(&mut self, ev: &Event) -> io::Result<()> {
        match ev {
            Event::Claimed { .. } | Event::Progress { .. } => self.journal.append_unsynced(ev),
            _ => self.journal.append(ev),
        }
    }

    /// Journal-then-apply. On append failure the event is NOT applied —
    /// the caller must treat the transition as never having happened.
    fn record(&mut self, ev: &Event) -> io::Result<()> {
        self.append(ev)?;
        self.graph.apply(ev, Some(Instant::now()));
        Ok(())
    }

    /// Append-then-apply for completion-class events, where in-memory
    /// progress beats durability: on append failure the event still
    /// applies (clients are served now) and a warning names the gap. A
    /// restart simply replays to the pre-event state and re-derives the
    /// same deterministic outcome.
    fn record_lossy(&mut self, ev: &Event) {
        if let Err(e) = self.append(ev) {
            eprintln!("sparcsd: journal append failed ({e}); applying in memory only");
        }
        self.graph.apply(ev, Some(Instant::now()));
    }
}

/// Everything the worker/connection threads share.
struct Shared {
    state: Mutex<State>,
    /// Wakes workers (new work) and result-waiters (state changed).
    wakeup: Condvar,
    shutdown: AtomicBool,
    /// Cancel tokens of currently-running solves, for `Cancel` and lease
    /// reaping.
    cancels: Mutex<HashMap<u64, CancelToken>>,
    /// Jobs journaled by `submit` whose ack `handle_conn` has not yet
    /// written; workers skip them. Changed only while `state` is held, and
    /// taken after it.
    /// Empty after replay: a restarted daemon owes no ack.
    unacked: Mutex<HashSet<u64>>,
    /// What `submit` parsed for each admitted job no worker has claimed
    /// yet; the claiming worker takes it out. Filled and cancelled under
    /// `state` (taken after it), so it holds only queued jobs and
    /// `queue_cap` bounds it. Empty after replay.
    prepared: Mutex<HashMap<u64, Prepared>>,
    cache: PartitionCache,
    store: ResultStore,
    replayed: u64,
    config: Config,
}

impl Shared {
    /// Replays the journal under `config.data_dir` and opens the result
    /// store. Also returns the bytes of torn tail the replay truncated.
    fn open(config: Config) -> io::Result<(Shared, u64)> {
        std::fs::create_dir_all(&config.data_dir)?;
        let (journal, replay) = Journal::open(config.data_dir.join("journal.jsonl"))?;
        let graph = JobGraph::replay(&replay.events);
        let store = ResultStore::open(&config.store_dir)?;
        let shared = Shared {
            state: Mutex::new(State { graph, journal }),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cancels: Mutex::new(HashMap::new()),
            unacked: Mutex::new(HashSet::new()),
            prepared: Mutex::new(HashMap::new()),
            cache: PartitionCache::new(),
            store,
            replayed: replay.events.len() as u64,
            config,
        };
        Ok((shared, replay.truncated_bytes))
    }
}

/// Maps an `--arch` wire name to its board preset.
pub fn parse_arch(name: &str) -> Option<Architecture> {
    match name {
        "xc4044" => Some(Architecture::xc4044_wildforce()),
        "xc6200" => Some(Architecture::xc6200_fast_reconfig()),
        "tm" => Some(Architecture::time_multiplexed()),
        _ => None,
    }
}

/// The search context for a claimed job, built **at claim time**: the
/// budget clock starts the moment a worker picks the job up, never at
/// submission, so queue wait cannot silently consume solve budget. The
/// regression test below pins this — a job that waited in the queue
/// longer than its whole budget still gets its full budget to solve.
pub fn search_for(spec: &JobSpec) -> SearchCtx {
    match spec.budget_ms {
        Some(ms) => SearchCtx::with_timeout(Duration::from_millis(ms)),
        None => SearchCtx::unbounded(),
    }
}

/// A parsed, validated job: the session and strategy ready to run.
struct Prepared {
    session: FlowSession,
    strategy: Box<dyn PartitionStrategy>,
    /// [`certified_bound`], derived on first use so the analyzer runs at
    /// most once per served answer.
    bound_ns: OnceCell<u64>,
}

fn prepare(spec: &JobSpec) -> Result<Prepared, String> {
    let arch = parse_arch(&spec.arch)
        .ok_or_else(|| format!("unknown arch {:?} (xc4044 | xc6200 | tm)", spec.arch))?;
    let session =
        FlowSession::from_text(&spec.graph, arch).map_err(|e| format!("bad graph: {e}"))?;
    let options = PartitionOptions {
        model: ModelConfig {
            memory_mode: if spec.edge_memory {
                MemoryMode::Edge
            } else {
                MemoryMode::Net
            },
            ..ModelConfig::default()
        },
        max_partitions: spec.max_partitions,
        ..PartitionOptions::default()
    };
    let strategy =
        parse_spec(&spec.partitioner, &options).map_err(|e| format!("bad partitioner: {e}"))?;
    Ok(Prepared {
        session,
        strategy,
        bound_ns: OnceCell::new(),
    })
}

/// The certified latency lower bound for this problem: the pre-solve
/// analyzer's objective bound (`Σ d_p`) plus its reconfiguration bound
/// (`N_lb × CT`). Both are proven facts about *any* feasible design, so a
/// degraded answer still carries a trustworthy optimality gap.
fn certified_bound(prepared: &Prepared) -> u64 {
    *prepared.bound_ns.get_or_init(|| {
        let ctx = prepared.session.context();
        sparcs_analyze::analyze(&ctx.graph, &ctx.arch, prepared.strategy.memory_mode())
            .map(|a| a.objective_lb_ns + a.reconfig_lb_ns)
            .unwrap_or(0)
    })
}

fn summarize(
    prepared: &Prepared,
    design: &PartitionedDesign,
    strategy_name: &str,
) -> ResultSummary {
    let proven = design.stats.proven_optimal;
    let bound_ns = if proven {
        design.latency_ns
    } else {
        certified_bound(prepared)
    };
    ResultSummary {
        strategy: strategy_name.to_string(),
        assignment: design
            .partitioning
            .assignment()
            .iter()
            .map(|p| p.0)
            .collect(),
        partitions: design.partitioning.partition_count(),
        partition_delays_ns: design.partition_delays_ns.clone(),
        sum_delay_ns: design.sum_delay_ns,
        latency_ns: design.latency_ns,
        bound_ns,
        proven_optimal: proven,
        cancelled: design.stats.cancelled,
    }
}

/// A strategy that "solves" by replaying a known assignment — how cached
/// and stored results re-enter the standard flow so the mandatory audit
/// gate re-certifies them before they are served. Never memoizable
/// (`config_key` is `None`): it is the *consumer* of the cache, not a
/// producer.
struct ReplayStrategy {
    name: String,
    partitioning: Partitioning,
    mode: MemoryMode,
}

impl PartitionStrategy for ReplayStrategy {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn partition(
        &self,
        ctx: &DesignContext,
        _search: &SearchCtx,
    ) -> Result<PartitionedDesign, FlowError> {
        design_from_partitioning(ctx, self.partitioning.clone())
    }

    fn config_key(&self) -> Option<String> {
        None
    }

    fn memory_mode(&self) -> MemoryMode {
        self.mode
    }
}

/// Re-certifies an assignment from either cache tier: rebuilds it into a
/// full design (through the flow's audit gate) and re-derives every
/// number. Returns the servable summary only when the rebuilt numbers
/// match the remembered ones exactly; any disagreement — failed audit,
/// infeasible rebuild, drifted delays — is a miss and the caller
/// re-solves. Also returns the certified rebuilt design for promotion.
fn recertify(
    prepared: &Prepared,
    remembered: &ResultSummary,
) -> Option<(ResultSummary, PartitionedDesign)> {
    let ids: Vec<PartitionId> = remembered
        .assignment
        .iter()
        .map(|&p| PartitionId(p))
        .collect();
    let replay = ReplayStrategy {
        name: remembered.strategy.clone(),
        partitioning: Partitioning::new(ids),
        mode: prepared.strategy.memory_mode(),
    };
    let flow = prepared
        .session
        .partition_with_search(&replay, &SearchCtx::unbounded())
        .ok()?;
    let mut design = flow.design;
    let matches = design.latency_ns == remembered.latency_ns
        && design.sum_delay_ns == remembered.sum_delay_ns
        && design.partition_delays_ns == remembered.partition_delays_ns
        && design.partitioning.partition_count() == remembered.partitions;
    if !matches {
        return None;
    }
    design.stats.proven_optimal = remembered.proven_optimal;
    let summary = summarize(prepared, &design, &remembered.strategy);
    Some((summary, design))
}

/// How one claim attempt ended.
enum Outcome {
    /// A certified result to serve.
    Served(ResultSummary),
    /// Retrying cannot help (bad spec, infeasible, certification bug).
    Permanent(String),
    /// Worth retrying with backoff (injected/real store I/O failure).
    Transient(String),
}

fn progress(shared: &Shared, job: u64, detail: &str) {
    let mut st = shared.state.lock().expect("state lock");
    st.record_lossy(&Event::Progress {
        job,
        detail: detail.to_string(),
    });
}

/// Executes one claimed job through the serving tiers, on what `submit`
/// prepared for it, or on its journaled spec when nothing was kept.
fn execute(shared: &Shared, job: u64, spec: &JobSpec, token: CancelToken) -> Outcome {
    let kept = shared.prepared.lock().expect("prepared lock").remove(&job);
    let prepared = match kept.map_or_else(|| prepare(spec), Ok) {
        Ok(p) => p,
        Err(msg) => return Outcome::Permanent(msg),
    };
    let key = statement_key(prepared.session.context(), prepared.strategy.as_ref());

    if let Some(k) = &key {
        // Tier 1: in-memory (this daemon's previous answers).
        if let Some(hit) = shared.cache.get(k) {
            let remembered = summarize(&prepared, &hit, &prepared.strategy.name());
            if let Some((summary, _)) = recertify(&prepared, &remembered) {
                progress(shared, job, "served from the in-memory cache");
                return Outcome::Served(summary);
            }
        }
        // Tier 2: the shared disk store (any daemon's previous answers).
        if let Some(stored) = shared.store.load(k.as_str()) {
            if let Some((summary, design)) = recertify(&prepared, &stored) {
                progress(shared, job, "served from the shared result store");
                shared.cache.insert(k.clone(), Arc::new(design));
                return Outcome::Served(summary);
            }
        }
    }

    // Tier 3: solve. The budget clock starts here — at claim, not submit.
    progress(shared, job, "solving");
    let search = search_for(spec).and_cancel(token.clone());
    let flow = match prepared
        .session
        .partition_with_search(prepared.strategy.as_ref(), &search)
    {
        Ok(flow) => flow,
        Err(e) if e.is_infeasible() => return Outcome::Permanent(format!("infeasible: {e}")),
        Err(e) => return Outcome::Permanent(e.to_string()),
    };
    faults::crash_point("worker.solve.post");
    let strategy_name = flow.strategy.clone();
    let summary = summarize(&prepared, &flow.design, &strategy_name);

    // Publish only deterministic results: unbudgeted, never cancelled.
    let deterministic =
        spec.budget_ms.is_none() && !flow.design.stats.cancelled && !token.is_cancelled();
    if deterministic {
        if let Some(k) = &key {
            if let Err(e) = shared.store.publish(k.as_str(), &summary) {
                // The solve is discarded on purpose: the retry re-solves
                // deterministically and re-attempts the publish, which is
                // exactly the recovery path the fault tests exercise.
                return Outcome::Transient(format!("result store publish failed: {e}"));
            }
            shared
                .cache
                .insert(k.clone(), Arc::new(flow.design.clone()));
        }
    }
    Outcome::Served(summary)
}

/// Runs one claimed job end to end and journals its outcome.
fn run_job(shared: &Shared, job: u64, spec: &JobSpec, attempt: u32) {
    faults::crash_point("worker.claim.post");
    let token = CancelToken::new();
    shared
        .cancels
        .lock()
        .expect("cancel registry lock")
        .insert(job, token.clone());
    let outcome = execute(shared, job, spec, token);
    shared
        .cancels
        .lock()
        .expect("cancel registry lock")
        .remove(&job);

    let mut st = shared.state.lock().expect("state lock");
    let max_attempts = st
        .graph
        .job(job)
        .map(|j| j.max_attempts(shared.config.default_max_attempts))
        .unwrap_or(1);
    let ev = match outcome {
        Outcome::Served(result) => Event::Done { job, result },
        Outcome::Permanent(reason) => Event::Failed { job, reason },
        Outcome::Transient(reason) if attempt >= max_attempts => Event::Failed {
            job,
            reason: format!("{reason} (gave up after attempt {attempt}/{max_attempts})"),
        },
        Outcome::Transient(reason) => Event::Requeued {
            job,
            attempt,
            backoff_ms: backoff_ms(attempt),
            reason,
        },
    };
    st.record_lossy(&ev);
    drop(st);
    shared.wakeup.notify_all();
}

/// One worker thread: reap expired leases, claim, execute, repeat.
fn worker_loop(shared: &Shared, index: usize) {
    let name = format!("worker-{index}");
    loop {
        let mut st = shared.state.lock().expect("state lock");
        // `Shutdown` sets the flag under this lock, then wakes everyone.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let claimed = {
            let now = Instant::now();
            // Reap orphaned claims (dead or hung workers) first.
            for (orphan, attempts) in st.graph.expired_claims(now) {
                if let Some(tok) = shared
                    .cancels
                    .lock()
                    .expect("cancel registry lock")
                    .remove(&orphan)
                {
                    tok.cancel();
                }
                let max = st
                    .graph
                    .job(orphan)
                    .map(|j| j.max_attempts(shared.config.default_max_attempts))
                    .unwrap_or(1);
                let ev = if attempts >= max {
                    Event::Failed {
                        job: orphan,
                        reason: format!("lease expired (gave up after attempt {attempts}/{max})"),
                    }
                } else {
                    Event::Requeued {
                        job: orphan,
                        attempt: attempts,
                        backoff_ms: backoff_ms(attempts),
                        reason: "lease expired".into(),
                    }
                };
                st.record_lossy(&ev);
                shared.wakeup.notify_all();
            }
            // Claim: pick + journal + apply under one lock — two workers
            // racing one job serialize here, exactly one wins.
            let next = {
                let unacked = shared.unacked.lock().expect("unacked lock");
                st.graph
                    .ready(Instant::now())
                    .find(|job| !unacked.contains(job))
            };
            match next {
                Some(job) => {
                    let Some(j) = st.graph.job(job) else {
                        continue;
                    };
                    let attempts = j.attempts;
                    let max = j.max_attempts(shared.config.default_max_attempts);
                    // Live paths requeue only below the bound, so this is a
                    // replayed claim: the daemon that made the last attempt
                    // stopped before finishing it.
                    if attempts >= max {
                        st.record_lossy(&Event::Failed {
                            job,
                            reason: format!(
                                "gave up after attempt {attempts}/{max}: \
                                 the daemon stopped during the last attempt"
                            ),
                        });
                        shared.wakeup.notify_all();
                        continue;
                    }
                    let (spec, attempt) = (j.spec.clone(), attempts + 1);
                    let ev = Event::Claimed {
                        job,
                        worker: name.clone(),
                        attempt,
                        lease_ms: shared.config.lease.as_millis() as u64,
                    };
                    match st.record(&ev) {
                        Ok(()) => Some((job, spec, attempt)),
                        // Could not journal the claim: do not run it.
                        Err(e) => {
                            eprintln!("sparcsd: claim journaling failed: {e}");
                            None
                        }
                    }
                }
                None => None,
            }
        };
        match claimed {
            Some((job, spec, attempt)) => {
                drop(st);
                run_job(shared, job, &spec, attempt);
            }
            // Waits on the guard the claim check held: an ack that frees
            // a job does so under this lock, so its wakeup cannot fall
            // between the check and the wait.
            None => {
                let _ = shared
                    .wakeup
                    .wait_timeout(st, Duration::from_millis(50))
                    .expect("state lock");
            }
        }
    }
}

fn err(code: &str, message: impl Into<String>) -> Response {
    Response::Error {
        code: code.to_string(),
        message: message.into(),
    }
}

fn submit(shared: &Shared, spec: JobSpec) -> Response {
    // Admission: budget cap first — over-budget work never parses a graph.
    if let Some(cap) = shared.config.max_budget_ms {
        match spec.budget_ms {
            None => {
                return err(
                    "over-budget",
                    format!("admission cap is {cap} ms; unbounded work is not admitted"),
                )
            }
            Some(b) if b > cap => {
                return err(
                    "over-budget",
                    format!("budget {b} ms exceeds the {cap} ms admission cap"),
                )
            }
            _ => {}
        }
    }
    let prepared = match prepare(&spec) {
        Ok(p) => p,
        Err(msg) => return err("bad-spec", msg),
    };
    let mut st = shared.state.lock().expect("state lock");
    let (queued, running, ..) = st.graph.counts();
    if (queued + running) as usize >= shared.config.queue_cap {
        return err(
            "queue-full",
            format!(
                "{} jobs in flight, cap is {}",
                queued + running,
                shared.config.queue_cap
            ),
        );
    }
    let job = st.graph.next_job_id();
    // Journaled (fsync'd) before the acknowledgement: an acked submit is
    // durable by contract. Held back from the workers until `handle_conn`
    // has written the ack; it then wakes them.
    match st.record(&Event::Submitted { job, spec }) {
        Ok(()) => {
            shared.unacked.lock().expect("unacked lock").insert(job);
            shared
                .prepared
                .lock()
                .expect("prepared lock")
                .insert(job, prepared);
            Response::Submitted { job }
        }
        Err(e) => err("journal", format!("could not journal the submit: {e}")),
    }
}

fn status(shared: &Shared, job: u64) -> Response {
    let st = shared.state.lock().expect("state lock");
    match st.graph.job(job) {
        Some(j) => Response::Status {
            job,
            phase: j.phase(),
            attempts: j.attempts,
            detail: j.detail.clone(),
        },
        None => err("unknown-job", format!("no job {job}")),
    }
}

fn result(shared: &Shared, job: u64, wait_ms: Option<u64>) -> Response {
    let deadline = wait_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut st = shared.state.lock().expect("state lock");
    loop {
        enum Peek {
            Missing,
            Done(ResultSummary),
            Failed(String),
            Cancelled,
            Pending(JobPhase),
        }
        let peek = match st.graph.job(job) {
            None => Peek::Missing,
            Some(j) => match &j.state {
                JobState::Done { result } => Peek::Done(result.clone()),
                JobState::Failed { reason } => Peek::Failed(reason.clone()),
                JobState::Cancelled => Peek::Cancelled,
                _ => Peek::Pending(j.phase()),
            },
        };
        match peek {
            Peek::Missing => return err("unknown-job", format!("no job {job}")),
            Peek::Done(result) => return Response::Result { job, result },
            Peek::Failed(reason) => return err("failed", reason),
            Peek::Cancelled => return err("cancelled", "the job was cancelled before completing"),
            Peek::Pending(phase) => {
                let now = Instant::now();
                let Some(d) = deadline else {
                    return err("not-done", format!("job is {phase}"));
                };
                if shared.shutdown.load(Ordering::SeqCst) {
                    return err(
                        "not-done",
                        format!("job is still {phase}; the daemon is shutting down"),
                    );
                }
                if now >= d {
                    return err("not-done", format!("job is still {phase} after the wait"));
                }
                let step = (d - now).min(Duration::from_millis(50));
                st = shared.wakeup.wait_timeout(st, step).expect("state lock").0;
            }
        }
    }
}

fn cancel(shared: &Shared, job: u64) -> Response {
    let mut st = shared.state.lock().expect("state lock");
    let Some(j) = st.graph.job(job) else {
        return err("unknown-job", format!("no job {job}"));
    };
    match j.phase() {
        JobPhase::Queued => {
            st.record_lossy(&Event::Cancelled { job });
            shared.prepared.lock().expect("prepared lock").remove(&job);
            drop(st);
            shared.wakeup.notify_all();
            Response::Cancelled {
                job,
                phase: JobPhase::Cancelled,
            }
        }
        JobPhase::Running => {
            drop(st);
            // Cooperative: the solver stops at its next poll and serves
            // its audited incumbent (or fails with no-incumbent). The
            // job's final phase is whatever that produces.
            if let Some(tok) = shared
                .cancels
                .lock()
                .expect("cancel registry lock")
                .get(&job)
                .cloned()
            {
                tok.cancel();
            }
            Response::Cancelled {
                job,
                phase: JobPhase::Running,
            }
        }
        phase => Response::Cancelled { job, phase },
    }
}

fn stats(shared: &Shared) -> Response {
    let st = shared.state.lock().expect("state lock");
    let (queued, running, done, failed, cancelled) = st.graph.counts();
    let journal_syncs = st.journal.syncs();
    drop(st);
    let cache = shared.cache.stats();
    let store = shared.store.stats();
    Response::Stats {
        stats: ServiceStats {
            queued,
            running,
            done,
            failed,
            cancelled,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            store_hits: store.hits,
            replayed_events: shared.replayed,
            journal_syncs,
        },
    }
}

fn dispatch(shared: &Shared, req: Request) -> Response {
    match req {
        Request::Submit { spec } => submit(shared, spec),
        Request::Status { job } => status(shared, job),
        Request::Result { job, wait_ms } => result(shared, job, wait_ms),
        Request::Cancel { job } => cancel(shared, job),
        Request::Stats => stats(shared),
        Request::Shutdown => {
            // Set under the state lock, so a `Result` waiter either sees
            // the flag or is already waiting when the wakeup comes.
            let first = {
                let _st = shared.state.lock().expect("state lock");
                !shared.shutdown.swap(true, Ordering::SeqCst)
            };
            shared.wakeup.notify_all();
            // The accept loop checks the flag after every accept: one
            // connection of our own unblocks it.
            if first {
                if let Err(e) = UnixStream::connect(&shared.config.socket) {
                    eprintln!("sparcsd: could not wake the accept loop: {e}");
                }
            }
            Response::Ok
        }
    }
}

fn handle_conn(shared: &Shared, stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut line = String::new();
    if BufReader::new(&stream).read_line(&mut line).is_err() {
        return;
    }
    let response = match serde_json::from_str::<Request>(line.trim_end()) {
        Ok(req) => dispatch(shared, req),
        Err(e) => err("bad-request", format!("unparsable request: {e}")),
    };
    reply(&stream, &response);
    if let Response::Submitted { job } = response {
        // The ack went out or never will: the job is claimable now. Freed
        // under the state lock, so a worker is either still before its
        // claim check or already waiting when the wakeup comes.
        let st = shared.state.lock().expect("state lock");
        shared.unacked.lock().expect("unacked lock").remove(&job);
        drop(st);
        shared.wakeup.notify_all();
    }
}

/// Writes one response line; an injected drop or an encode failure
/// writes nothing.
fn reply(mut stream: &UnixStream, response: &Response) {
    if faults::drop_point("proto.reply") {
        return; // injected connection drop: the client sees EOF, retries
    }
    let mut out = match serde_json::to_string(response) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sparcsd: unencodable response: {e}");
            return;
        }
    };
    out.push('\n');
    let _ = stream.write_all(out.as_bytes());
}

/// Binds the listening socket, evicting a stale socket file (a previous
/// daemon that died without cleanup) but refusing to evict a *live* one.
fn bind_socket(path: &std::path::Path) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already listening on {}", path.display()),
                ));
            }
            std::fs::remove_file(path)?;
            UnixListener::bind(path)
        }
        Err(e) => Err(e),
    }
}

/// Runs the daemon until a `Shutdown` request arrives. Replays the
/// journal, binds the socket, spawns the workers, and serves.
///
/// The accept loop blocks in `accept`; `Shutdown` wakes it by connecting
/// to the socket once. The loop then drops that connection unserved,
/// closes the listener and removes the socket file, so later clients get
/// an error at once. Pending `Result` waits answer `not-done`, workers
/// claim nothing new, and `run` returns when the in-flight solves finish.
///
/// # Errors
///
/// Startup failures only (journal/store/socket I/O); serving errors are
/// per-connection and never take the daemon down.
pub fn run(config: Config) -> io::Result<()> {
    let (shared, truncated_bytes) = Shared::open(config)?;
    let listener = bind_socket(&shared.config.socket)?;
    println!(
        "sparcsd: listening on {} ({} event(s) replayed, {} byte(s) of torn tail truncated)",
        shared.config.socket.display(),
        shared.replayed,
        truncated_bytes,
    );
    let _ = io::stdout().flush();
    let shared = &shared;
    std::thread::scope(|s| {
        for index in 0..shared.config.workers.max(1) {
            s.spawn(move || worker_loop(shared, index));
        }
        loop {
            let accepted = listener.accept();
            // The wake connection, or a client that raced it: unserved.
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, _)) => {
                    s.spawn(move || handle_conn(shared, stream));
                }
                Err(e) => {
                    eprintln!("sparcsd: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        drop(listener);
        let _ = std::fs::remove_file(&shared.config.socket);
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_names_cover_every_preset() {
        for name in ["xc4044", "xc6200", "tm"] {
            assert!(parse_arch(name).is_some(), "{name} must parse");
        }
        assert!(parse_arch("virtex").is_none());
    }

    #[test]
    fn budget_clock_starts_at_claim_time_not_submit_time() {
        // Regression: a job whose *queue wait* already exceeded its whole
        // budget must still get the full budget when a worker claims it.
        // The spec (the "submit") exists well before the claim...
        let spec = JobSpec {
            budget_ms: Some(40),
            ..JobSpec::new("graph g\n")
        };
        let submitted_at = Instant::now();
        std::thread::sleep(Duration::from_millis(60)); // queue wait > budget

        // ...and the search context is only built at claim time.
        let claimed_at = Instant::now();
        let search = search_for(&spec);
        assert!(
            !search.stop_requested(),
            "queue wait must not consume solve budget"
        );
        let deadline = search.deadline().expect("budgeted job has a deadline");
        assert!(
            deadline >= claimed_at + Duration::from_millis(30),
            "the full budget is available from the claim"
        );
        assert!(
            deadline > submitted_at + Duration::from_millis(60),
            "the deadline is anchored to the claim, not the submit"
        );
    }

    #[test]
    fn unbudgeted_jobs_search_unbounded() {
        assert!(search_for(&JobSpec::new("graph g\n")).is_unbounded());
    }

    #[test]
    fn certified_bound_is_positive_and_below_optimum_for_fig4() {
        let prepared = prepare(&JobSpec::new(sparcs::dfg::parse::to_text(
            &sparcs::dfg::gen::fig4_example(),
        )))
        .expect("fig4 prepares");
        let bound = certified_bound(&prepared);
        assert!(bound > 0, "fig4 has a nonzero certified bound");
        let flow = prepared
            .session
            .partition_with_search(prepared.strategy.as_ref(), &SearchCtx::unbounded())
            .expect("fig4 solves");
        assert!(
            bound <= flow.design.latency_ns,
            "a certified bound never exceeds a feasible design's latency"
        );
    }

    #[test]
    fn certified_bound_is_the_analyzers_latency_bound_for_the_dct() {
        let dct = sparcs::jpeg::dct_task_graph(sparcs::jpeg::EstimateBackend::PaperCalibrated)
            .expect("the DCT graph builds");
        let prepared =
            prepare(&JobSpec::new(sparcs::dfg::parse::to_text(&dct.graph))).expect("prepares");
        let ctx = prepared.session.context();
        let analysis = sparcs_analyze::analyze(&ctx.graph, &ctx.arch, MemoryMode::Net)
            .expect("the DCT graph is a DAG");
        let bound = certified_bound(&prepared);
        assert_eq!(bound, analysis.objective_lb_ns + analysis.reconfig_lb_ns);
        // Three configurations at CT = 100 ms, plus the 6916 ns area bound
        // the exact solver proves against (the critical path gives 5920).
        assert_eq!(bound, 300_006_916);
    }

    #[test]
    fn recertify_rejects_tampered_numbers() {
        let spec = JobSpec::new(sparcs::dfg::parse::to_text(
            &sparcs::dfg::gen::fig4_example(),
        ));
        let prepared = prepare(&spec).expect("prepares");
        let flow = prepared
            .session
            .partition_with_search(prepared.strategy.as_ref(), &SearchCtx::unbounded())
            .expect("solves");
        let honest = summarize(&prepared, &flow.design, "ilp");
        assert!(
            recertify(&prepared, &honest).is_some(),
            "an honest summary re-certifies"
        );
        let mut lie = honest.clone();
        lie.latency_ns -= 1;
        assert!(
            recertify(&prepared, &lie).is_none(),
            "a tampered latency is a miss, never served"
        );
    }

    #[test]
    fn submit_hands_its_parse_to_the_claiming_worker() {
        let root =
            std::env::temp_dir().join(format!("sparcsd-server-{}-handoff", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let config = Config::new(root.join("sock"), root.join("data"), root.join("store"));
        let (shared, _) = Shared::open(config).expect("opens");
        let fig4 = JobSpec::new(sparcs::dfg::parse::to_text(
            &sparcs::dfg::gen::fig4_example(),
        ));
        let kept = |shared: &Shared| shared.prepared.lock().expect("prepared lock").len();

        let Response::Submitted { job } = submit(&shared, fig4.clone()) else {
            panic!("fig4 is admitted");
        };
        assert_eq!(kept(&shared), 1, "submit keeps what it parsed");
        // The worker runs on that parse: it never reads the spec it is
        // handed, so one it could not parse does not matter.
        let unparsable = JobSpec::new("not a graph");
        assert!(matches!(
            execute(&shared, job, &unparsable, CancelToken::new()),
            Outcome::Served(_)
        ));
        assert_eq!(kept(&shared), 0, "the claim took it");
        // With nothing kept (a replayed or requeued job) the spec is parsed.
        assert!(matches!(
            execute(&shared, job, &unparsable, CancelToken::new()),
            Outcome::Permanent(msg) if msg.starts_with("bad graph")
        ));

        // Cancelling a queued job drops what was kept for it.
        let Response::Submitted { job } = submit(&shared, fig4) else {
            panic!("fig4 is admitted");
        };
        assert_eq!(kept(&shared), 1);
        assert!(matches!(
            cancel(&shared, job),
            Response::Cancelled {
                phase: JobPhase::Cancelled,
                ..
            }
        ));
        assert_eq!(kept(&shared), 0);
        drop(shared);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        assert!(prepare(&JobSpec {
            arch: "virtex".into(),
            ..JobSpec::new("graph g\n")
        })
        .is_err());
        assert!(prepare(&JobSpec::new("not a graph")).is_err());
        assert!(prepare(&JobSpec {
            partitioner: "magic".into(),
            ..JobSpec::new(sparcs::dfg::parse::to_text(
                &sparcs::dfg::gen::fig4_example()
            ))
        })
        .is_err());
    }
}
