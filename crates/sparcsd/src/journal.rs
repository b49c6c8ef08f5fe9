//! The persistent job journal: append-only, checksummed JSONL.
//!
//! Every state transition of the job graph — submit, claim, progress,
//! requeue, done, failed, cancelled — is one [`Event`], serialized as one
//! line and written before the daemon acts on it. On startup the journal
//! is replayed to rebuild the job graph, so `kill -9` at any instant loses
//! nothing that was acknowledged.
//!
//! ## Durability: which records are fsynced
//!
//! [`Journal::append`] fsyncs its record before returning;
//! [`Journal::append_unsynced`] only writes it. The daemon fsyncs every
//! record a client or a later decision relies on — `Submitted` (before
//! the ack), `Done`, `Failed`, `Requeued`, `Cancelled` — and writes a
//! job's `Claimed` and `Progress` without one:
//!
//! - a process crash (`abort`, `kill -9`) loses no written byte: it sits
//!   in the page cache and reaches the disk anyway;
//! - the job's next fsynced record flushes them, because `sync_data`
//!   flushes the whole file;
//! - an OS crash or power loss can therefore lose only an unsynced claim
//!   or progress tail, and replay then requeues the job from its
//!   `Submitted`, one attempt earlier.
//!
//! ## Record format
//!
//! ```text
//! {"seq":3,"crc":"8a1f00c2d4e6b970","event":{"Submitted":{...}}}\n
//! ```
//!
//! `seq` numbers records contiguously from 0; `crc` is FNV-1a 64 over
//! `"<seq>\u{1f}<event-json>"`. A record is valid only if the line parses,
//! the checksum matches the re-serialized event, and the sequence number
//! is exactly the successor of the previous record.
//!
//! ## Recovery semantics: the longest checksummed prefix
//!
//! Replay applies records in order and stops at the *first* invalid one —
//! torn tail (a crash mid-append left half a line), checksum mismatch (bit
//! rot or a flip anywhere in the record), bad sequence number — and the
//! file is truncated back to the end of the last valid record, so the next
//! append extends a clean prefix instead of burying garbage mid-file. This
//! "longest checksummed prefix" rule is pinned by a proptest that corrupts
//! journals at random and compares against an oracle.
//!
//! Stopping (rather than skipping and continuing) is deliberate: events
//! are causally ordered — applying a `Done` whose `Claimed` was corrupted
//! would fabricate history. Everything after the first invalid record is
//! unacknowledged by construction (a submit is fsynced before the daemon
//! replies), so truncation never discards an acknowledged fact.

use crate::faults;
use crate::hash::fnv64;
use serde::{Deserialize, Serialize};
use sparcs::service::{JobSpec, ResultSummary};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// One durable job-graph state transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A job was admitted. Journaled before the client is acknowledged:
    /// an acked submit is durable by contract.
    Submitted {
        /// The job id assigned at admission.
        job: u64,
        /// The full job spec (the journal alone can rebuild the queue).
        spec: JobSpec,
    },
    /// A worker claimed the job. The solve budget clock starts *here*,
    /// never at submit — queue wait must not consume solve budget.
    Claimed {
        /// The claimed job.
        job: u64,
        /// Claiming worker (diagnostic).
        worker: String,
        /// 1-based attempt number.
        attempt: u32,
        /// Lease duration in ms; a claim older than its lease is
        /// re-claimable (the worker is presumed dead).
        lease_ms: u64,
    },
    /// Informational progress marker (which tier answered, solve began).
    Progress {
        /// The job making progress.
        job: u64,
        /// Human-readable detail.
        detail: String,
    },
    /// The job went back to the queue after a transient failure or an
    /// expired lease, with exponential backoff.
    Requeued {
        /// The requeued job.
        job: u64,
        /// Attempt count consumed so far.
        attempt: u32,
        /// Backoff before the job is claimable again. Applied from the
        /// moment the event is journaled; on replay the wait is already
        /// served by the crash itself, so the job is immediately ready.
        backoff_ms: u64,
        /// Why the attempt failed.
        reason: String,
    },
    /// The job finished with a certified result.
    Done {
        /// The finished job.
        job: u64,
        /// The certified result served to clients.
        result: ResultSummary,
    },
    /// The job failed permanently.
    Failed {
        /// The failed job.
        job: u64,
        /// Why.
        reason: String,
    },
    /// The job was cancelled before any result existed.
    Cancelled {
        /// The cancelled job.
        job: u64,
    },
}

impl Event {
    /// The job this event is about.
    pub fn job(&self) -> u64 {
        match *self {
            Event::Submitted { job, .. }
            | Event::Claimed { job, .. }
            | Event::Progress { job, .. }
            | Event::Requeued { job, .. }
            | Event::Done { job, .. }
            | Event::Failed { job, .. }
            | Event::Cancelled { job } => job,
        }
    }
}

/// The on-disk framing of one event.
#[derive(Debug, Serialize, Deserialize)]
struct Record {
    seq: u64,
    crc: String,
    event: Event,
}

/// Checksum material for a record: sequence number and the event's exact
/// JSON rendering, separated so they cannot alias.
fn crc_of(seq: u64, event_json: &str) -> String {
    format!(
        "{:016x}",
        fnv64(format!("{seq}\u{1f}{event_json}").as_bytes())
    )
}

/// Renders one journal line (with trailing newline). The event is
/// serialized once and framed by hand, byte for byte as serializing a
/// [`Record`] would frame it, so journals written either way replay alike.
fn encode(seq: u64, event: &Event) -> io::Result<String> {
    let event_json = serde_json::to_string(event).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unencodable event: {e}"),
        )
    })?;
    let crc = crc_of(seq, &event_json);
    Ok(format!(
        "{{\"seq\":{seq},\"crc\":\"{crc}\",\"event\":{event_json}}}\n"
    ))
}

/// What a replay recovered.
#[derive(Debug)]
pub struct Replay {
    /// The events of the longest checksummed prefix, in order.
    pub events: Vec<Event>,
    /// Bytes of invalid tail that were discarded.
    pub truncated_bytes: u64,
}

/// Replays journal bytes up to the longest checksummed prefix. Returns the
/// recovered events and the byte length of that prefix (callers truncate
/// the file there). Pure — the proptest oracle runs this on corrupted
/// buffers directly.
pub fn replay_bytes(bytes: &[u8]) -> (Vec<Event>, usize) {
    let mut events = Vec::new();
    let mut valid_len = 0usize;
    let mut offset = 0usize;
    while offset < bytes.len() {
        // A record must end in a newline: a tail without one is torn.
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let line = &bytes[offset..offset + nl];
        let Ok(text) = std::str::from_utf8(line) else {
            break;
        };
        let Ok(record) = serde_json::from_str::<Record>(text) else {
            break;
        };
        if record.seq != events.len() as u64 {
            break;
        }
        // Checksum the *re-serialized* event: any bit of the line that
        // survives parsing but changes the event content changes this.
        let Ok(event_json) = serde_json::to_string(&record.event) else {
            break;
        };
        if crc_of(record.seq, &event_json) != record.crc {
            break;
        }
        events.push(record.event);
        offset += nl + 1;
        valid_len = offset;
    }
    (events, valid_len)
}

/// The append-only journal file.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    /// Fsynced appends since this journal was opened.
    syncs: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replaying its contents.
    /// An invalid tail is truncated away durably before the journal is
    /// handed out, so every subsequent append extends a clean prefix.
    ///
    /// # Errors
    ///
    /// Any I/O failure opening, reading, or truncating the file.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<(Journal, Replay)> {
        let path = path.into();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        // Existing records are the whole point: replay, then truncate back
        // to the valid prefix ourselves — never on open.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (events, valid_len) = replay_bytes(&bytes);
        let truncated = bytes.len() - valid_len;
        if truncated > 0 {
            file.set_len(valid_len as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        let journal = Journal {
            file,
            path,
            next_seq: events.len() as u64,
            syncs: 0,
        };
        Ok((
            journal,
            Replay {
                events,
                truncated_bytes: truncated as u64,
            },
        ))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records replayed plus records appended so far.
    pub fn len(&self) -> u64 {
        self.next_seq
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.next_seq == 0
    }

    /// Fsynced appends since this journal was opened.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Appends one event durably: the record is written and fsynced before
    /// this returns. Fault points: `journal.append.pre` (I/O),
    /// `journal.append.mid` (crash with half the record on disk — the torn
    /// tail the recovery path must truncate), `journal.append.post`
    /// (crash with the record fully durable).
    ///
    /// # Errors
    ///
    /// Any I/O failure; the caller must treat the event as not recorded.
    pub fn append(&mut self, event: &Event) -> io::Result<()> {
        self.write(event, true)
    }

    /// Appends one event without an fsync: the record survives any crash
    /// of this process, and the next [`Self::append`] makes it durable
    /// against power loss too (see the module docs for which events may
    /// take this path). Same fault points as [`Self::append`];
    /// `journal.append.post` then fires with the record written, unsynced.
    ///
    /// # Errors
    ///
    /// Any I/O failure; the caller must treat the event as not recorded.
    pub fn append_unsynced(&mut self, event: &Event) -> io::Result<()> {
        self.write(event, false)
    }

    fn write(&mut self, event: &Event, sync: bool) -> io::Result<()> {
        faults::io_point("journal.append.pre")?;
        let line = encode(self.next_seq, event)?;
        if faults::crash_armed("journal.append.mid") {
            // Torn write: half the record reaches the disk, then the
            // process dies without cleanup. Recovery must drop this tail.
            let half = &line.as_bytes()[..line.len() / 2];
            // durable-ok: an injected torn record, written only to be cut
            // off by the next replay; the process aborts right after.
            let _ = self.file.write_all(half);
            let _ = self.file.sync_data();
            eprintln!("sparcsd: injected crash at journal.append.mid");
            std::process::abort();
        }
        // durable-ok: the record is fsynced below; an unsynced one (a
        // claim or a progress note) is flushed by its job's next fsynced
        // record — `Done`, `Failed` or `Requeued` — and a process crash
        // before that keeps the written bytes.
        self.file.write_all(line.as_bytes())?;
        if sync {
            self.file.sync_data()?;
            self.syncs += 1;
        }
        self.next_seq += 1;
        faults::crash_point("journal.append.post");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(job: u64) -> Event {
        Event::Progress {
            job,
            detail: format!("step {job}"),
        }
    }

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "sparcsd-journal-{}-{name}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn appends_replay_in_order() {
        let path = temp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, replay) = Journal::open(&path).expect("opens");
            assert!(replay.events.is_empty());
            assert!(j.is_empty());
            for i in 0..5 {
                if i % 2 == 0 {
                    j.append(&ev(i)).expect("appends");
                } else {
                    j.append_unsynced(&ev(i)).expect("appends unsynced");
                }
            }
            assert_eq!((j.len(), j.syncs()), (5, 3));
        }
        let (j, replay) = Journal::open(&path).expect("reopens");
        assert_eq!(replay.events, (0..5).map(ev).collect::<Vec<_>>());
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!((j.len(), j.syncs()), (5, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hand_framed_records_match_the_record_serialization() {
        let spec = JobSpec {
            budget_ms: Some(250),
            ..JobSpec::new("graph g\ntask \"a\" clbs=1 delay=1 out=1 kind=P1 # Δ\t\u{1}\n")
        };
        let result = ResultSummary {
            strategy: "list+kl".into(),
            assignment: vec![0, 1, 1],
            partitions: 2,
            partition_delays_ns: vec![40, 60],
            sum_delay_ns: 100,
            latency_ns: 200_000_100,
            bound_ns: 200_000_000,
            proven_optimal: false,
            cancelled: true,
        };
        let events = [
            Event::Submitted { job: 0, spec },
            Event::Claimed {
                job: 1,
                worker: "worker-0".into(),
                attempt: 2,
                lease_ms: 60_000,
            },
            ev(2),
            Event::Requeued {
                job: 3,
                attempt: 1,
                backoff_ms: 100,
                reason: "with \"quotes\" and back\\slash".into(),
            },
            Event::Done { job: 4, result },
            Event::Failed {
                job: 5,
                reason: "newline\nand unicode 𝛑".into(),
            },
            Event::Cancelled { job: u64::MAX },
        ];
        for (i, event) in events.iter().enumerate() {
            for seq in [i as u64, 1 << 40, u64::MAX] {
                let event_json = serde_json::to_string(event).expect("encodes");
                let record = Record {
                    seq,
                    crc: crc_of(seq, &event_json),
                    event: event.clone(),
                };
                let mut expected = serde_json::to_string(&record).expect("encodes");
                expected.push('\n');
                assert_eq!(encode(seq, event).expect("encodes"), expected);
            }
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = temp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).expect("opens");
            for i in 0..3 {
                j.append(&ev(i)).expect("appends");
            }
        }
        // Simulate a crash mid-append: half a record at the tail.
        let mut bytes = std::fs::read(&path).expect("reads");
        let torn = encode(3, &ev(3)).expect("encodes");
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        std::fs::write(&path, &bytes).expect("writes");

        let (mut j, replay) = Journal::open(&path).expect("recovers");
        assert_eq!(replay.events.len(), 3, "clean prefix survives");
        assert!(replay.truncated_bytes > 0, "tail was discarded");
        // The journal is immediately appendable and the new record lands
        // at the sequence the truncation exposed.
        j.append(&ev(99)).expect("appends after recovery");
        let (_, replay) = Journal::open(&path).expect("reopens");
        assert_eq!(replay.events.len(), 4);
        assert_eq!(replay.events[3], ev(99));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checksum_mismatch_ends_the_prefix() {
        let path = temp("bitflip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).expect("opens");
            for i in 0..4 {
                j.append(&ev(i)).expect("appends");
            }
        }
        let mut bytes = std::fs::read(&path).expect("reads");
        // Flip one bit inside the second record's payload.
        let second_start = bytes
            .iter()
            .position(|&b| b == b'\n')
            .expect("first newline")
            + 1;
        bytes[second_start + 30] ^= 0x04;
        std::fs::write(&path, &bytes).expect("writes");

        let (_, replay) = Journal::open(&path).expect("recovers");
        assert_eq!(
            replay.events.len(),
            1,
            "replay stops at the first corrupt record"
        );
        assert_eq!(replay.events[0], ev(0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sequence_gaps_end_the_prefix() {
        let path = temp("seqgap");
        let _ = std::fs::remove_file(&path);
        let mut bytes = encode(0, &ev(0)).expect("encodes").into_bytes();
        // A record with a skipped sequence number (valid crc for itself).
        bytes.extend_from_slice(encode(2, &ev(2)).expect("encodes").as_bytes());
        std::fs::write(&path, &bytes).expect("writes");
        let (events, valid_len) = replay_bytes(&bytes);
        assert_eq!(events.len(), 1);
        assert!(valid_len < bytes.len());
        let _ = std::fs::remove_file(&path);
    }
}
