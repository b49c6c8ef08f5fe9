//! Exhaustive interleaving checks for the two lock-free protocols the
//! workspace's concurrency rests on, modeled over the `interleave`
//! deterministic explorer (every schedule up to the preemption bound is
//! executed, so a passing test is a proof over that space, not a lucky
//! run). The branch-and-bound itself is single-threaded and shares
//! nothing; it sees cancellation only through the stop signal its caller
//! derives from a `SearchCtx`.
//!
//! 1. **Cancellation chaining** (`CancelToken` in
//!    `crates/core/src/search.rs`): a relaxed store into a parent flag
//!    must be observed by every child checking the ancestor chain after
//!    joining the canceller, and cancellation is monotonic — once
//!    observed, never unobserved.
//! 2. **Portfolio first-winner** (`Portfolio::partition` in
//!    `src/strategy.rs`): slot-per-entry collection makes the winner a
//!    pure function of the outcome slots, so it is identical across all
//!    schedules, and the decisive racer's cancel is visible to every loser
//!    that checks after the winner published.
//!
//! The models rebuild each protocol skeleton from `interleave` shims —
//! same operations, same orderings (`Relaxed` everywhere, as in
//! production) — rather than linking the production types, because the
//! production atomics are real `std` atomics the explorer cannot
//! schedule. Each model is annotated with the production code it
//! mirrors.

use interleave::sync::atomic::{AtomicBool, AtomicUsize};
use interleave::sync::Mutex;
use interleave::{thread, Builder, Ordering};
use std::sync::Arc;

/// Model of `CancelToken`: a parent flag plus per-child flags, with
/// `is_cancelled` walking the ancestor chain exactly like
/// `search.rs::CancelToken::is_cancelled`.
struct TokenModel {
    flag: AtomicBool,
    parent: Option<Arc<TokenModel>>,
}

impl TokenModel {
    fn root() -> Arc<Self> {
        Arc::new(TokenModel {
            flag: AtomicBool::new(false),
            parent: None,
        })
    }

    fn child(self: &Arc<Self>) -> Arc<Self> {
        Arc::new(TokenModel {
            flag: AtomicBool::new(false),
            parent: Some(Arc::clone(self)),
        })
    }

    fn cancel(&self) {
        // search.rs `CancelToken::cancel` — a single relaxed store.
        self.flag.store(true, Ordering::Relaxed);
    }

    fn is_cancelled(&self) -> bool {
        // search.rs `CancelToken::is_cancelled` — walk the ancestor chain.
        let mut cur = Some(self);
        while let Some(t) = cur {
            if t.flag.load(Ordering::Relaxed) {
                return true;
            }
            cur = t.parent.as_deref();
        }
        false
    }
}

/// No lost cancellation: after joining the thread that cancelled the
/// *parent*, both children must observe cancellation through the chain —
/// in every interleaving of the canceller with two concurrently polling
/// workers.
#[test]
fn cancel_token_chain_never_loses_a_cancellation() {
    let report = Builder::new().max_preemptions(2).check(|| {
        let root = TokenModel::root();
        let (a, b) = (root.child(), root.child());

        // Two racers poll their own tokens (as racing searches do between
        // node relaxations) and remember the last thing they saw.
        let wa = {
            let a = Arc::clone(&a);
            thread::spawn(move || a.is_cancelled())
        };
        let canceller = {
            let root = Arc::clone(&root);
            thread::spawn(move || root.cancel())
        };
        let wb = {
            let b = Arc::clone(&b);
            thread::spawn(move || b.is_cancelled())
        };

        let seen_a = wa.join();
        let seen_b = wb.join();
        canceller.join();

        // Concurrent polls may legitimately race the cancel either way…
        let _ = (seen_a, seen_b);
        // …but after the canceller is joined, the chain MUST report
        // cancelled — this is the lost-cancellation case the relaxed
        // store must not permit.
        assert!(a.is_cancelled(), "child A lost the parent cancellation");
        assert!(b.is_cancelled(), "child B lost the parent cancellation");
        assert!(root.is_cancelled());
    });
    assert!(report.exhaustive, "exploration hit a cap");
}

/// Cancellation is monotonic: once any poll of a token observes
/// cancelled, every later poll of the same token observes it too, in
/// every schedule.
#[test]
fn cancel_token_is_monotonic() {
    let report = Builder::new().max_preemptions(2).check(|| {
        let root = TokenModel::root();
        let child = root.child();

        let canceller = {
            let root = Arc::clone(&root);
            thread::spawn(move || root.cancel())
        };
        let poller = {
            let child = Arc::clone(&child);
            thread::spawn(move || {
                let first = child.is_cancelled();
                let second = child.is_cancelled();
                (first, second)
            })
        };

        let (first, second) = poller.join();
        canceller.join();
        assert!(
            !first || second,
            "cancellation went backwards: observed then unobserved"
        );
    });
    assert!(report.exhaustive, "exploration hit a cap");
}

/// Model of the portfolio race (strategy.rs `Portfolio::partition`):
/// racers write their outcomes into per-entry slots, the decisive racer
/// cancels the race on success, and the winner is selected from the slots
/// *after* all racers are joined. The decisive entry is slot 0, as in `Portfolio::standard`.
#[test]
fn portfolio_picks_a_deterministic_winner_and_cancels_losers() {
    // Collect the winner of every schedule; they must all agree.
    let winners = Arc::new(std::sync::Mutex::new(std::collections::BTreeSet::new()));
    let sink = Arc::clone(&winners);
    let report = Builder::new().max_preemptions(2).check(move || {
        let stop = TokenModel::root();
        // Slot-per-entry outcome collection (scoped_map in strategy.rs):
        // index = entry position, value = latency key or None (cancelled
        // racer with nothing to hand in).
        let slots: Arc<Vec<Mutex<Option<u64>>>> =
            Arc::new(vec![Mutex::new(None), Mutex::new(None), Mutex::new(None)]);
        // How many losers saw the cancel before finishing (≥ 0; all of
        // them if the decisive racer ran first).
        let observed_cancel = Arc::new(AtomicUsize::new(0));

        // Decisive racer: proves optimality at key 100, cancels the race
        // (the decisive arm of `Portfolio::partition`).
        let decisive = {
            let stop = Arc::clone(&stop);
            let slots = Arc::clone(&slots);
            thread::spawn(move || {
                *slots[0].lock() = Some(100);
                stop.cancel();
            })
        };
        // Cooperative losers: poll the race token; when cancelled they
        // still hand in their best-so-far (here: a worse key), matching
        // "cancelled cooperative racers still hand in their best-so-far
        // designs".
        let losers: Vec<_> = [(1usize, 150u64), (2, 120)]
            .into_iter()
            .map(|(slot, key)| {
                let stop = stop.child();
                let slots = Arc::clone(&slots);
                let observed = Arc::clone(&observed_cancel);
                thread::spawn(move || {
                    if stop.is_cancelled() {
                        observed.fetch_add(1, Ordering::Relaxed);
                    }
                    *slots[slot].lock() = Some(key);
                })
            })
            .collect();

        decisive.join();
        for h in losers {
            h.join();
        }
        // After the decisive join, the cancel must be visible to any
        // fresh poll — no lost first-winner cancellation.
        assert!(stop.is_cancelled());

        // Winner selection is a pure fold over the slots in entry order
        // (the ranking loop of `Portfolio::partition`): smallest key wins,
        // ties to the earliest slot.
        let mut winner: Option<(u64, usize)> = None;
        for (i, slot) in slots.iter().enumerate() {
            if let Some(key) = *slot.lock() {
                if winner.is_none_or(|(k, _)| key < k) {
                    winner = Some((key, i));
                }
            }
        }
        let (key, slot) = winner.map_or((u64::MAX, usize::MAX), |w| w);
        if let Ok(mut set) = sink.lock() {
            set.insert((key, slot));
        }
        assert_eq!(
            (key, slot),
            (100, 0),
            "decisive optimum must win in every schedule"
        );
    });
    assert!(report.exhaustive, "exploration hit a cap");
    let set = winners.lock().expect("winner collector intact");
    assert_eq!(set.len(), 1, "winner differed across schedules: {set:?}");
}
