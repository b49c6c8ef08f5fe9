//! The in-memory job graph: the state machine the journal's events drive.
//!
//! The graph itself does no I/O — the server appends an [`Event`] to the
//! [`crate::journal::Journal`] first, then applies it here, so the
//! in-memory state is always a pure function of the durable event prefix.
//! On startup the same [`JobGraph::apply`] replays the journal (with
//! `now = None`), which is what makes crash recovery equal to live
//! operation by construction.
//!
//! ## Lifecycle
//!
//! ```text
//! Submitted ──> Queued ──claim──> Claimed ──> Done
//!                 ^                  │   └──> Failed
//!                 └──requeue (backoff, bounded attempts)──┘
//!               Queued ──cancel──> Cancelled
//! ```
//!
//! A claim carries a lease: a claimed job whose lease has expired is
//! presumed orphaned (its worker died or hung) and goes back to the queue
//! with exponential backoff, up to the job's attempt bound. On journal
//! replay every `Claimed` is treated as already-orphaned — the claiming
//! process is provably dead — so a crashed daemon's jobs are re-claimable
//! the moment it restarts, not a lease later.

use crate::journal::Event;
use sparcs::service::{JobPhase, JobSpec, ResultSummary};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Default bound on claim attempts when a spec leaves `max_attempts` at 0.
pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;

/// First retry backoff; attempt `n` waits `RETRY_BASE_MS << (n-1)`.
pub const RETRY_BASE_MS: u64 = 100;

/// Backoff ceiling.
pub const RETRY_CAP_MS: u64 = 10_000;

/// Exponential backoff before attempt `attempt + 1`, capped. Deliberately
/// jitter-free: the daemon is deterministic under test, and its workers
/// contend on a local mutex, not a thundering-herd remote.
pub fn backoff_ms(attempt: u32) -> u64 {
    RETRY_BASE_MS
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
        .min(RETRY_CAP_MS)
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting for a worker (`not_before` carries retry backoff).
    Queued {
        /// Claimable only once this instant passes (`None`: immediately).
        not_before: Option<Instant>,
    },
    /// Claimed and (presumably) being solved.
    Claimed {
        /// The claiming worker, for diagnostics.
        worker: String,
        /// When the claim was journaled.
        since: Instant,
        /// How long the claim is honored before the worker is presumed
        /// dead.
        lease: Duration,
    },
    /// Finished with a certified result.
    Done {
        /// The served result.
        result: ResultSummary,
    },
    /// Failed permanently.
    Failed {
        /// Why.
        reason: String,
    },
    /// Cancelled while still queued.
    Cancelled,
}

/// One job: its spec and current state.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Journal-assigned id.
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Claim attempts consumed (0 while never claimed).
    pub attempts: u32,
    /// Last progress detail (worker name, tier, failure reason).
    pub detail: String,
}

impl Job {
    /// The wire-visible phase of this job.
    pub fn phase(&self) -> JobPhase {
        match self.state {
            JobState::Queued { .. } => JobPhase::Queued,
            JobState::Claimed { .. } => JobPhase::Running,
            JobState::Done { .. } => JobPhase::Done,
            JobState::Failed { .. } => JobPhase::Failed,
            JobState::Cancelled => JobPhase::Cancelled,
        }
    }

    /// The attempt bound for this job (spec override or daemon default).
    pub fn max_attempts(&self, default_max: u32) -> u32 {
        if self.spec.max_attempts > 0 {
            self.spec.max_attempts
        } else {
            default_max.max(1)
        }
    }
}

/// The whole job graph, rebuilt from the journal on startup.
#[derive(Debug, Default, PartialEq)]
pub struct JobGraph {
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
}

impl JobGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a graph from a replayed event prefix (`now = None`
    /// semantics: every claim in the journal belongs to a dead process and
    /// is immediately re-claimable).
    pub fn replay(events: &[Event]) -> Self {
        let mut g = Self::new();
        for ev in events {
            g.apply(ev, None);
        }
        g
    }

    /// The id the next submitted job will get.
    pub fn next_job_id(&self) -> u64 {
        self.next_id
    }

    /// The job with this id.
    pub fn job(&self, id: u64) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// All jobs, id-ordered.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Jobs per phase: `(queued, running, done, failed, cancelled)`.
    pub fn counts(&self) -> (u64, u64, u64, u64, u64) {
        let mut c = (0, 0, 0, 0, 0);
        for job in self.jobs.values() {
            match job.state {
                JobState::Queued { .. } => c.0 += 1,
                JobState::Claimed { .. } => c.1 += 1,
                JobState::Done { .. } => c.2 += 1,
                JobState::Failed { .. } => c.3 += 1,
                JobState::Cancelled => c.4 += 1,
            }
        }
        c
    }

    /// Applies one journaled event. `now` is the apply instant for live
    /// operation; `None` means journal replay, where claims belong to a
    /// dead process (requeued instantly) and requeue backoff is considered
    /// already served by the crash.
    pub fn apply(&mut self, ev: &Event, now: Option<Instant>) {
        match ev {
            Event::Submitted { job, spec } => {
                self.jobs.insert(
                    *job,
                    Job {
                        id: *job,
                        spec: spec.clone(),
                        state: JobState::Queued { not_before: None },
                        attempts: 0,
                        detail: String::new(),
                    },
                );
                self.next_id = self.next_id.max(job + 1);
            }
            Event::Claimed {
                job,
                worker,
                attempt,
                lease_ms,
            } => {
                if let Some(j) = self.jobs.get_mut(job) {
                    if j.is_terminal() {
                        return;
                    }
                    j.attempts = (*attempt).max(j.attempts);
                    j.detail = format!("claimed by {worker}");
                    j.state = match now {
                        Some(now) => JobState::Claimed {
                            worker: worker.clone(),
                            since: now,
                            lease: Duration::from_millis(*lease_ms),
                        },
                        // Replay: the claimer is dead; requeue immediately.
                        None => JobState::Queued { not_before: None },
                    };
                }
            }
            Event::Progress { job, detail } => {
                if let Some(j) = self.jobs.get_mut(job) {
                    j.detail = detail.clone();
                }
            }
            Event::Requeued {
                job,
                attempt,
                backoff_ms,
                reason,
            } => {
                if let Some(j) = self.jobs.get_mut(job) {
                    if j.is_terminal() {
                        return;
                    }
                    j.attempts = (*attempt).max(j.attempts);
                    j.detail = format!("retrying after: {reason}");
                    j.state = JobState::Queued {
                        not_before: now.map(|n| n + Duration::from_millis(*backoff_ms)),
                    };
                }
            }
            Event::Done { job, result } => {
                if let Some(j) = self.jobs.get_mut(job) {
                    if j.is_terminal() {
                        return;
                    }
                    j.state = JobState::Done {
                        result: result.clone(),
                    };
                }
            }
            Event::Failed { job, reason } => {
                if let Some(j) = self.jobs.get_mut(job) {
                    if j.is_terminal() {
                        return;
                    }
                    j.detail = reason.clone();
                    j.state = JobState::Failed {
                        reason: reason.clone(),
                    };
                }
            }
            Event::Cancelled { job } => {
                if let Some(j) = self.jobs.get_mut(job) {
                    if j.is_terminal() {
                        return;
                    }
                    j.state = JobState::Cancelled;
                }
            }
        }
    }

    /// The ids of jobs that are queued and past their backoff, lowest
    /// first. Claim atomicity comes from the caller holding the state lock
    /// across the pick + journal append + `apply`: two workers racing one
    /// job see the claim serialized, so exactly one wins.
    pub fn ready(&self, now: Instant) -> impl Iterator<Item = u64> + '_ {
        self.jobs
            .values()
            .filter(move |j| match j.state {
                JobState::Queued { not_before } => not_before.is_none_or(|nb| nb <= now),
                _ => false,
            })
            .map(|j| j.id)
    }

    /// The lowest-id job [`Self::ready`] yields.
    pub fn next_ready(&self, now: Instant) -> Option<u64> {
        self.ready(now).next()
    }

    /// Claimed jobs whose lease expired at `now` (orphaned workers),
    /// with their consumed attempt counts.
    pub fn expired_claims(&self, now: Instant) -> Vec<(u64, u32)> {
        self.jobs
            .values()
            .filter_map(|j| match j.state {
                JobState::Claimed { since, lease, .. } if now.duration_since(since) >= lease => {
                    Some((j.id, j.attempts))
                }
                _ => None,
            })
            .collect()
    }
}

impl Job {
    fn is_terminal(&self) -> bool {
        matches!(
            self.state,
            JobState::Done { .. } | JobState::Failed { .. } | JobState::Cancelled
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::new("graph g\ntask t clbs=1 delay=1 out=1 kind=K\n")
    }

    fn submitted(job: u64) -> Event {
        Event::Submitted { job, spec: spec() }
    }

    fn claimed(job: u64, attempt: u32) -> Event {
        Event::Claimed {
            job,
            worker: "w0".into(),
            attempt,
            lease_ms: 30_000,
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_ms(1), RETRY_BASE_MS);
        assert_eq!(backoff_ms(2), RETRY_BASE_MS * 2);
        assert_eq!(backoff_ms(3), RETRY_BASE_MS * 4);
        assert_eq!(backoff_ms(30), RETRY_CAP_MS);
        assert_eq!(backoff_ms(0), RETRY_BASE_MS, "attempt 0 is sane");
    }

    #[test]
    fn replayed_claims_requeue_immediately() {
        let now = Instant::now();
        let g = JobGraph::replay(&[submitted(0), claimed(0, 1)]);
        let job = g.job(0).expect("job exists");
        assert_eq!(job.phase(), JobPhase::Queued, "claimer is dead");
        assert_eq!(job.attempts, 1, "the attempt still counts");
        assert_eq!(g.next_ready(now), Some(0), "immediately re-claimable");
    }

    #[test]
    fn live_claims_hold_until_their_lease_expires() {
        let mut g = JobGraph::new();
        let t0 = Instant::now();
        g.apply(&submitted(0), Some(t0));
        g.apply(
            &Event::Claimed {
                job: 0,
                worker: "w0".into(),
                attempt: 1,
                lease_ms: 1_000,
            },
            Some(t0),
        );
        assert_eq!(g.next_ready(t0), None, "claimed job is not ready");
        assert!(g.expired_claims(t0).is_empty());
        let late = t0 + Duration::from_millis(1_500);
        assert_eq!(g.expired_claims(late), vec![(0, 1)], "lease expired");
    }

    #[test]
    fn requeue_backoff_gates_readiness_live_but_not_on_replay() {
        let mut g = JobGraph::new();
        let t0 = Instant::now();
        g.apply(&submitted(0), Some(t0));
        g.apply(&claimed(0, 1), Some(t0));
        g.apply(
            &Event::Requeued {
                job: 0,
                attempt: 1,
                backoff_ms: 200,
                reason: "injected".into(),
            },
            Some(t0),
        );
        assert_eq!(g.next_ready(t0), None, "backoff holds the job");
        assert_eq!(g.next_ready(t0 + Duration::from_millis(250)), Some(0));

        // Replay of the same prefix: the crash already served the wait.
        let r = JobGraph::replay(&[
            submitted(0),
            claimed(0, 1),
            Event::Requeued {
                job: 0,
                attempt: 1,
                backoff_ms: 200,
                reason: "injected".into(),
            },
        ]);
        assert_eq!(r.next_ready(Instant::now()), Some(0));
    }

    #[test]
    fn terminal_states_are_sticky() {
        let mut g = JobGraph::new();
        g.apply(&submitted(0), None);
        g.apply(&Event::Cancelled { job: 0 }, None);
        // A worker that raced the cancel and still finished must not
        // resurrect the job.
        g.apply(
            &Event::Failed {
                job: 0,
                reason: "late".into(),
            },
            None,
        );
        assert_eq!(g.job(0).expect("exists").phase(), JobPhase::Cancelled);
    }

    #[test]
    fn counts_and_ids_track_the_event_stream() {
        let mut g = JobGraph::new();
        g.apply(&submitted(0), None);
        g.apply(&submitted(1), None);
        g.apply(&submitted(2), None);
        g.apply(&claimed(1, 1), Some(Instant::now()));
        g.apply(&Event::Cancelled { job: 2 }, None);
        assert_eq!(g.counts(), (1, 1, 0, 0, 1));
        assert_eq!(g.next_job_id(), 3);
    }
}
