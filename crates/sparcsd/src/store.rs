//! The disk-backed, content-addressed result store — the cross-process
//! tier of the partition cache.
//!
//! Results are keyed by the *full rendered problem statement* (the same
//! [`sparcs::cache::CacheKey`] material the in-memory `PartitionCache`
//! uses: the graph's exact compact rendering, then the board and the
//! strategy), so two daemons sharing a store directory deduplicate one
//! another's solves. The filename is only a 64-bit FNV of the statement;
//! the statement itself is embedded in every file and compared on read, so
//! a filename collision degrades to a store miss, never to serving a
//! design solved for a different problem — the same collision-proofing
//! argument the in-memory tier makes. A change to the rendering only
//! costs misses: a record stored under the old statement is never found
//! again, and its problem is solved afresh.
//!
//! ## Durability and cross-process safety
//!
//! A publish writes a temp file (named with the writer's pid, so two
//! daemons never collide on it), fsyncs it, atomically renames it over the
//! final name, and fsyncs the directory. Readers therefore observe either
//! nothing or a complete record; a crash mid-publish leaves only a dead
//! temp file that is ignored (and swept on the next open). Two daemons
//! racing the same statement both write the full deterministic result, and
//! whichever rename lands second simply replaces identical bytes.
//!
//! ## What may be stored
//!
//! Only results of *deterministic* solves: a run that went to completion
//! with no deadline and no fired cancellation. A budgeted or cancelled
//! solve depends on wall clock and scheduling, not just the statement —
//! the repo-wide rule that such results must never be memoized holds
//! across processes exactly as it does in memory. Enforced at the call
//! site ([`crate::server`]) and re-checked here.

use crate::faults;
use crate::hash::fnv64;
use serde::{Deserialize, Serialize};
use sparcs::service::ResultSummary;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The on-disk record: the full statement (collision proof) + the result.
#[derive(Debug, Serialize, Deserialize)]
struct StoredResult {
    statement: String,
    result: ResultSummary,
}

/// Read/write counters of a [`ResultStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Reads answered from disk.
    pub hits: u64,
    /// Reads that found nothing usable (absent, collided, corrupt).
    pub misses: u64,
    /// Results durably published.
    pub publishes: u64,
}

/// A content-addressed result directory, shareable across processes.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    publishes: AtomicU64,
}

impl ResultStore {
    /// Opens (creating if needed) the store at `dir` and sweeps dead temp
    /// files left by crashed publishers.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or scanning the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            // Only our own pid's leftovers are provably dead; another live
            // daemon's temp file may be mid-publish.
            let prefix = format!(".tmp-{}-", std::process::id());
            if name.to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(ResultStore {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, statement: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.json", fnv64(statement.as_bytes())))
    }

    /// Looks a statement up. Every failure mode — absent file, injected
    /// I/O error, unparsable bytes, filename collision (embedded statement
    /// differs) — is a miss: the caller re-solves, it never mis-serves.
    pub fn load(&self, statement: &str) -> Option<ResultSummary> {
        let loaded = self.try_load(statement);
        // Standalone statistics counters: exact via fetch_add, nothing is
        // ordered by them.
        match &loaded {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed), // relaxed-ok: counter
            None => self.misses.fetch_add(1, Ordering::Relaxed),  // relaxed-ok: counter
        };
        loaded
    }

    fn try_load(&self, statement: &str) -> Option<ResultSummary> {
        faults::io_point("store.load.pre").ok()?;
        let mut text = String::new();
        File::open(self.path_for(statement))
            .ok()?
            .read_to_string(&mut text)
            .ok()?;
        let stored: StoredResult = serde_json::from_str(&text).ok()?;
        (stored.statement == statement).then_some(stored.result)
    }

    /// Durably publishes a deterministic result under its statement:
    /// temp file (pid-unique) → fsync → atomic rename → directory fsync.
    /// Fault points: `store.publish.pre` (I/O), `store.publish.mid`
    /// (crash with only the temp file on disk), `store.publish.post`
    /// (crash after the result is durable).
    ///
    /// # Errors
    ///
    /// Any I/O failure; the result is then not (reliably) published and
    /// the caller may retry.
    pub fn publish(&self, statement: &str, result: &ResultSummary) -> io::Result<()> {
        faults::io_point("store.publish.pre")?;
        let record = StoredResult {
            statement: statement.to_string(),
            result: result.clone(),
        };
        let text = serde_json::to_string_pretty(&record).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unencodable result: {e}"),
            )
        })?;
        let hash = fnv64(statement.as_bytes());
        let tmp = self
            .dir
            .join(format!(".tmp-{}-{hash:016x}", std::process::id()));
        {
            // durable-ok: this is the fsync'd append path itself — the temp
            // file is synced below and then atomically renamed into place.
            let mut f = File::create(&tmp)?;
            // durable-ok: the temp file's bytes, synced on the next line;
            // readers never see the file before the rename.
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        if faults::crash_armed("store.publish.mid") {
            eprintln!("sparcsd: injected crash at store.publish.mid");
            std::process::abort();
        }
        std::fs::rename(&tmp, self.path_for(statement))?;
        // Make the rename itself durable.
        File::open(&self.dir)?.sync_all()?;
        // relaxed-ok: statistics counter.
        self.publishes.fetch_add(1, Ordering::Relaxed);
        faults::crash_point("store.publish.post");
        Ok(())
    }

    /// Counters so far.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            // relaxed-ok: advisory snapshot of independent counters.
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed), // relaxed-ok: see above
            publishes: self.publishes.load(Ordering::Relaxed), // relaxed-ok: see above
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(latency: u64) -> ResultSummary {
        ResultSummary {
            strategy: "ilp".into(),
            assignment: vec![0, 1],
            partitions: 2,
            partition_delays_ns: vec![latency / 2, latency / 2],
            sum_delay_ns: latency,
            latency_ns: latency,
            bound_ns: latency,
            proven_optimal: true,
            cancelled: false,
        }
    }

    fn temp_store(name: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("sparcsd-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::open(dir).expect("opens")
    }

    #[test]
    fn publish_then_load_roundtrips() {
        let store = temp_store("roundtrip");
        assert!(store.load("stmt-a").is_none(), "empty store misses");
        store.publish("stmt-a", &summary(100)).expect("publishes");
        assert_eq!(store.load("stmt-a"), Some(summary(100)));
        assert_eq!(
            store.stats(),
            StoreStats {
                hits: 1,
                misses: 1,
                publishes: 1
            }
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn filename_collisions_miss_instead_of_misserving() {
        let store = temp_store("collision");
        store.publish("statement one", &summary(100)).expect("ok");
        // Forge a collision: overwrite the *file* for a different
        // statement with statement one's hash-named path content.
        let forged = store.path_for("statement two");
        std::fs::copy(store.path_for("statement one"), forged).expect("copies");
        assert_eq!(
            store.load("statement two"),
            None,
            "embedded statement disagrees -> miss, never a wrong answer"
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_files_are_a_miss() {
        let store = temp_store("corrupt");
        store.publish("stmt", &summary(10)).expect("ok");
        std::fs::write(store.path_for("stmt"), b"{half a rec").expect("writes");
        assert_eq!(store.load("stmt"), None);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn own_temp_files_are_swept_on_open() {
        let store = temp_store("sweep");
        let tmp = store
            .dir()
            .join(format!(".tmp-{}-deadbeef", std::process::id()));
        std::fs::write(&tmp, b"dead publisher").expect("writes");
        let reopened = ResultStore::open(store.dir()).expect("reopens");
        assert!(!tmp.exists(), "dead temp file swept");
        assert!(reopened.load("anything").is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
