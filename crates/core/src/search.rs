//! Search budgets and cooperative cancellation for partitioners.
//!
//! Every search-aware partitioner entrypoint takes a [`SearchCtx`]: an
//! optional wall-clock deadline plus an optional [`CancelToken`]. It is
//! the only place either lives: the exact solver underneath reads no clock
//! and is handed nothing but [`SearchCtx::stop_requested`] as its stop
//! signal. The context is *cooperative* — strategies check it between
//! units of work (a branch-and-bound node, a refinement pass) and, when
//! stopped, return the best design found so far instead of dying.
//! [`SearchCtx::unbounded`] recovers the classic run-to-completion
//! behaviour and is the default everywhere a caller does not thread a
//! context explicitly.
//!
//! Budgeted searches are *not deterministic* — how far a solve gets before
//! the deadline depends on machine load — so results produced under a
//! bounded context must never be memoized. [`SearchCtx::is_unbounded`] is
//! the test caches use.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cooperative-cancellation flag.
///
/// Tokens form parent chains: [`CancelToken::child`] yields a token that
/// reports cancelled as soon as *either* itself or any ancestor is
/// cancelled, so a caller can revoke a whole family of racing solves with
/// one [`CancelToken::cancel`] while each racer keeps a private flag for
/// first-winner cancellation.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug, Default)]
struct TokenInner {
    flag: AtomicBool,
    parent: Option<CancelToken>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that is cancelled whenever `self` (or any of `self`'s
    /// ancestors) is — plus whenever the child itself is cancelled.
    pub fn child(&self) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                flag: AtomicBool::new(false),
                parent: Some(self.clone()),
            }),
        }
    }

    /// Requests cancellation of this token (and every child derived from
    /// it). Irrevocable.
    pub fn cancel(&self) {
        // relaxed-ok: the flag is monotonic (false→true, never back) and
        // carries no payload — no other memory is published with it, so
        // observers need only *eventually* see the store, which every
        // ordering guarantees. Checked exhaustively by the interleaving
        // models in crates/ilp/tests/interleavings.rs.
        self.inner.flag.store(true, Ordering::Relaxed);
    }

    /// Whether this token or any ancestor has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        let mut cur = Some(self);
        while let Some(token) = cur {
            // relaxed-ok: polling a monotonic flag; a stale `false` only
            // delays a cooperative stop by one more poll, never loses it.
            if token.inner.flag.load(Ordering::Relaxed) {
                return true;
            }
            cur = token.inner.parent.as_ref();
        }
        false
    }
}

/// The search context threaded through every search-aware
/// `partition(&ctx, &SearchCtx)` entrypoint: an optional deadline plus an
/// optional cancellation token.
#[derive(Debug, Clone, Default)]
pub struct SearchCtx {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl SearchCtx {
    /// No budget, no cancellation: classic run-to-completion semantics.
    /// This is what the legacy one-shot strategy surface implicitly uses.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A context that stops `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// A context that stops at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        SearchCtx {
            deadline: Some(deadline),
            cancel: None,
        }
    }

    /// Attaches (or replaces) the cancellation token.
    pub fn and_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The absolute deadline, when one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the search should stop now (token cancelled or deadline
    /// passed). Cooperative strategies poll this between units of work.
    pub fn stop_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether this context can never stop a search: no deadline and no
    /// cancellation token. Only unbounded searches are deterministic, so
    /// only their results may be memoized.
    pub fn is_unbounded(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none()
    }

    /// A derived context for one racer of a portfolio: same deadline, plus
    /// a fresh shared token that is a child of this context's own token (so
    /// cancelling the parent still stops every racer). Returns the shared
    /// token too — the racer that proves a winner cancels the whole race
    /// with it.
    pub fn race_child(&self) -> (SearchCtx, CancelToken) {
        let token = self
            .cancel
            .as_ref()
            .map_or_else(CancelToken::new, CancelToken::child);
        (
            SearchCtx {
                deadline: self.deadline,
                cancel: Some(token.clone()),
            },
            token,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_stops() {
        let ctx = SearchCtx::unbounded();
        assert!(ctx.is_unbounded());
        assert!(!ctx.stop_requested());
        assert!(ctx.deadline().is_none());
    }

    #[test]
    fn expired_budget_requests_stop() {
        let ctx = SearchCtx::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(!ctx.is_unbounded());
        assert!(ctx.stop_requested());
        let live = SearchCtx::with_timeout(Duration::from_secs(3600));
        assert!(!live.is_unbounded());
        assert!(!live.stop_requested());
    }

    #[test]
    fn cancellation_flows_into_race_children() {
        let root = CancelToken::new();
        let ctx = SearchCtx::unbounded().and_cancel(root.clone());
        assert!(!ctx.is_unbounded(), "a token forbids caching");
        let (child_ctx, race) = ctx.race_child();
        assert!(!child_ctx.stop_requested());
        root.cancel();
        assert!(child_ctx.stop_requested(), "parent cancels the race");
        assert!(race.is_cancelled());
    }

    #[test]
    fn race_winner_cancels_only_the_race() {
        let parent = CancelToken::new();
        let ctx = SearchCtx::unbounded().and_cancel(parent.clone());
        let (child_ctx, race) = ctx.race_child();
        race.cancel();
        assert!(child_ctx.stop_requested());
        assert!(!parent.is_cancelled());
        assert!(!ctx.stop_requested());
    }

    #[test]
    fn cancel_tokens_chain_through_children() {
        let parent = CancelToken::new();
        let child = parent.child();
        let sibling = parent.child();
        assert!(!child.is_cancelled());
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "children never cancel upward");
        assert!(!sibling.is_cancelled());
        parent.cancel();
        assert!(sibling.is_cancelled(), "parents cancel every child");
    }
}
