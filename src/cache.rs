//! Content-keyed partition caching.
//!
//! Temporal partitioning is the expensive stage of the flow — the exact ILP
//! re-solves a branch-and-bound model that can dwarf everything around it —
//! yet [`FlowSession::explore`](crate::flow::FlowSession::explore), the §4
//! [`DctExperiment`](crate::casestudy::DctExperiment) and the bench harness
//! all pose *identical* partitioning problems over and over: same graph,
//! same board, same options. [`PartitionCache`] memoizes those solves under
//! the whole problem statement
//! (`graph + architecture + strategy configuration → PartitionedDesign`),
//! so each distinct problem is solved exactly once per process no matter
//! how many sessions, explorations or tables ask for it.
//!
//! Keys are the *full* rendered problem statement, not a digest of it:
//! the graph's exact compact rendering
//! ([`TaskGraph::write_key`](sparcs_dfg::TaskGraph::write_key), every
//! field, strings quoted) and the stable `Debug` renderings of the other
//! inputs (`Architecture`, the strategy name and configuration, plain
//! data), concatenated with field separators. So equal problems render
//! equally, any field change (memory mode, solver budget, partition cap,
//! an edge weight…) changes the key, and *distinct problems can never
//! alias* — the map hashes internally, so a hash collision degrades to a
//! bucket probe, never to handing back a design solved for a different
//! graph. Strategies opt in by implementing
//! [`PartitionStrategy::config_key`](crate::flow::PartitionStrategy::config_key);
//! a strategy that cannot describe its configuration stays uncached rather
//! than risking stale hits.
//!
//! The cache is safe to share across threads (exploration workers hit it
//! concurrently) and stores designs behind [`Arc`], so a hit costs a clone
//! of the solved design, not a re-solve.
//!
//! The in-memory tier is *bounded*: every cache carries a capacity cap
//! (default [`PartitionCache::DEFAULT_CAPACITY`]) and evicts the
//! least-recently-used design when full, so a long-running process — the
//! `sparcsd` resident service above all — cannot grow the map without
//! limit. Eviction is safe by construction: the cache is a pure memo
//! table, so dropping an entry only costs a future re-solve (or, in the
//! daemon, a disk-tier read — the `sparcsd` result store stays
//! authoritative). [`CacheStats`] counts hits, misses and evictions.

use sparcs_core::PartitionedDesign;
use sparcs_dfg::TaskGraph;
use std::collections::HashMap;
use std::fmt::{Debug, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A cache key: the full rendered problem statement. Build one with
/// [`CacheKey::builder`], feeding every input that influences the solve.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey(String);

/// Accumulates the renderings of a problem's inputs into a [`CacheKey`].
#[derive(Debug, Default)]
pub struct CacheKeyBuilder {
    material: String,
}

impl CacheKey {
    /// An empty builder.
    pub fn builder() -> CacheKeyBuilder {
        CacheKeyBuilder::default()
    }

    /// The full rendered problem statement this key is. The `sparcsd`
    /// disk store embeds this string in every stored result and compares
    /// it on read, so a filename-hash collision degrades to a store miss,
    /// never to serving a design solved for a different problem.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl CacheKeyBuilder {
    /// Feeds a value through its `Debug` rendering, followed by a field
    /// separator so adjacent values cannot alias
    /// (`("ab","c")` ≠ `("a","bc")`).
    pub fn push(mut self, value: &impl Debug) -> Self {
        let _ = write!(self.material, "{value:?}");
        self.material.push('\u{1f}');
        self
    }

    /// Feeds a task graph through its exact compact rendering
    /// ([`TaskGraph::write_key`]), followed by the field separator. The
    /// rendering quotes every string with `{:?}`, so it never holds a raw
    /// separator.
    pub fn push_graph(mut self, graph: &TaskGraph) -> Self {
        graph.write_key(&mut self.material);
        self.material.push('\u{1f}');
        self
    }

    /// The finished key.
    pub fn build(self) -> CacheKey {
        CacheKey(self.material)
    }
}

/// Hit/miss/eviction counters of a [`PartitionCache`] (monotonic per
/// cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to solve and insert.
    pub misses: u64,
    /// Designs dropped to keep the map within its capacity cap.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// One cached design plus the LRU stamp of its last touch.
#[derive(Debug)]
struct Slot {
    design: Arc<PartitionedDesign>,
    last_used: u64,
}

/// A thread-safe, capacity-bounded `problem statement → PartitionedDesign`
/// memo table with least-recently-used eviction.
#[derive(Debug)]
pub struct PartitionCache {
    map: Mutex<HashMap<CacheKey, Slot>>,
    /// Maximum designs held at once; the least recently used one is
    /// evicted to admit a new insert at capacity.
    capacity: usize,
    /// Monotonic touch counter backing the LRU stamps.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PartitionCache {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl PartitionCache {
    /// Default capacity cap: generous for exploration sweeps (a widened
    /// DCT exploration solves a few dozen distinct statements), small
    /// enough that a resident daemon serving arbitrary traffic stays at
    /// bounded memory.
    pub const DEFAULT_CAPACITY: usize = 512;

    /// An empty cache with the default capacity cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `capacity` designs (at least one
    /// slot is always kept, so a zero capacity behaves as one).
    pub fn with_capacity(capacity: usize) -> Self {
        PartitionCache {
            map: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The capacity cap this cache evicts at.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The process-wide shared cache. [`crate::flow`] and
    /// [`crate::casestudy`] route through this instance by default, so the
    /// CLI, tests and benches all amortize one another's solves.
    pub fn global() -> &'static PartitionCache {
        Self::global_cell().get_or_init(|| Arc::new(PartitionCache::new()))
    }

    /// The global cache as a shareable handle (for
    /// [`crate::flow::ExploreSpace::cache`]).
    pub fn global_handle() -> Arc<PartitionCache> {
        Arc::clone(Self::global_cell().get_or_init(|| Arc::new(PartitionCache::new())))
    }

    fn global_cell() -> &'static OnceLock<Arc<PartitionCache>> {
        static GLOBAL: OnceLock<Arc<PartitionCache>> = OnceLock::new();
        &GLOBAL
    }

    /// Returns the design under `key`, solving with `solve` and inserting
    /// on a miss. Errors are returned to the caller and never cached — an
    /// infeasible candidate re-asks the solver, a solved design never does.
    ///
    /// The solver runs *outside* the map lock, so concurrent explorers
    /// never serialize on one another's solves. Two threads racing on the
    /// same key may both solve; the first insert wins and both return the
    /// same cached design, keeping results independent of scheduling.
    ///
    /// # Errors
    ///
    /// Whatever `solve` returns on failure.
    pub fn get_or_solve<E>(
        &self,
        key: CacheKey,
        solve: impl FnOnce() -> Result<PartitionedDesign, E>,
    ) -> Result<Arc<PartitionedDesign>, E> {
        if let Some(hit) = self.get(&key) {
            return Ok(hit);
        }
        let design = Arc::new(solve()?);
        Ok(self.insert(key, design))
    }

    /// Looks the key up, counting a hit or a miss and refreshing the LRU
    /// stamp on a hit. This is the public read half of the read-through
    /// tiering `sparcsd` builds on top (memory first, then its disk
    /// store, then the solver).
    pub fn get(&self, key: &CacheKey) -> Option<Arc<PartitionedDesign>> {
        let mut map = self.map.lock().expect("cache lock");
        // relaxed-ok: the stamp only orders evictions among entries; the
        // map lock already serializes map access, and a momentarily stale
        // stamp can only make LRU slightly approximate, never unsound.
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        match map.get_mut(key) {
            Some(slot) => {
                slot.last_used = now;
                // relaxed-ok: statistics counter, no ordering dependency.
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&slot.design))
            }
            None => {
                // relaxed-ok: standalone statistics counter — nothing
                // reads it to make a decision, and fetch_add keeps the
                // count itself exact.
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) a design under `key`, evicting the least
    /// recently used entry if the cache is at capacity. Returns the design
    /// now cached under the key — when two threads race on the same key
    /// the first insert wins and both get the same `Arc`, keeping results
    /// independent of scheduling. The write half of `sparcsd`'s
    /// read-through tiering: disk-tier hits are promoted here.
    pub fn insert(&self, key: CacheKey, design: Arc<PartitionedDesign>) -> Arc<PartitionedDesign> {
        let mut map = self.map.lock().expect("cache lock");
        // relaxed-ok: see `get` — stamps only order evictions.
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        if !map.contains_key(&key) && map.len() >= self.capacity {
            // O(n) victim scan: capacities are small (hundreds) and
            // eviction only happens on inserts past capacity, so the scan
            // is far cheaper than the solve that preceded it.
            if let Some(victim) = map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone())
            {
                map.remove(&victim);
                // relaxed-ok: statistics counter, no ordering dependency.
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let slot = map.entry(key).or_insert(Slot {
            design,
            last_used: now,
        });
        slot.last_used = now;
        Arc::clone(&slot.design)
    }

    /// Cached designs.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache lock").len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            // relaxed-ok: advisory snapshot of statistics counters; the
            // loads need no mutual ordering — a momentarily torn
            // hit/miss/eviction triple is fine for reporting.
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed), // relaxed-ok: see above
            evictions: self.evictions.load(Ordering::Relaxed), // relaxed-ok: see above
        }
    }

    /// Drops every cached design (counters keep running).
    pub fn clear(&self) {
        self.map.lock().expect("cache lock").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcs_core::ilp::SolveStats;
    use sparcs_core::model::DelayMode;
    use sparcs_core::partitioning::{PartitionId, Partitioning};

    fn design(latency: u64) -> PartitionedDesign {
        PartitionedDesign {
            partitioning: Partitioning::new(vec![PartitionId(0)]),
            partition_delays_ns: vec![latency],
            sum_delay_ns: latency,
            latency_ns: latency,
            stats: SolveStats {
                attempted_n: Vec::new(),
                nodes: 0,
                pivots: 0,
                cold_solves: 0,
                wall: std::time::Duration::ZERO,
                proven_optimal: false,
                cancelled: false,
                delay_mode: DelayMode::PartitionSum,
            },
        }
    }

    fn key(parts: &[&str]) -> CacheKey {
        let mut b = CacheKey::builder();
        for p in parts {
            b = b.push(p);
        }
        b.build()
    }

    #[test]
    fn keys_separate_adjacent_fields() {
        assert_ne!(key(&["ab", "c"]), key(&["a", "bc"]));
        // And equal inputs key equally.
        assert_eq!(key(&["a", "b"]), key(&["a", "b"]));
    }

    #[test]
    fn second_lookup_skips_the_solver() {
        let cache = PartitionCache::new();
        let first = cache
            .get_or_solve::<()>(key(&["p"]), || Ok(design(10)))
            .expect("solves");
        let second = cache
            .get_or_solve::<()>(key(&["p"]), || panic!("must not re-solve"))
            .expect("hits");
        assert_eq!(first.latency_ns, second.latency_ns);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(cache.stats().lookups(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = PartitionCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        cache.insert(key(&["a"]), Arc::new(design(1)));
        cache.insert(key(&["b"]), Arc::new(design(2)));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.get(&key(&["a"])).is_some());
        cache.insert(key(&["c"]), Arc::new(design(3)));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(&["a"])).is_some(), "recently used survives");
        assert!(cache.get(&key(&["b"])).is_none(), "LRU entry was evicted");
        assert!(cache.get(&key(&["c"])).is_some());
        assert_eq!(cache.stats().evictions, 1);
        // An evicted key is simply re-solvable: the memo table stays a
        // pure cache.
        let back = cache
            .get_or_solve::<()>(key(&["b"]), || Ok(design(2)))
            .expect("re-solves");
        assert_eq!(back.latency_ns, 2);
    }

    #[test]
    fn refreshing_an_existing_key_does_not_evict() {
        let cache = PartitionCache::with_capacity(2);
        cache.insert(key(&["a"]), Arc::new(design(1)));
        cache.insert(key(&["b"]), Arc::new(design(2)));
        // Re-inserting a resident key at capacity must not push anything
        // out (the map does not grow).
        cache.insert(key(&["a"]), Arc::new(design(1)));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn racing_inserts_keep_the_first_design() {
        let cache = PartitionCache::new();
        let first = cache.insert(key(&["k"]), Arc::new(design(7)));
        let second = cache.insert(key(&["k"]), Arc::new(design(9)));
        assert_eq!(first.latency_ns, 7);
        assert_eq!(second.latency_ns, 7, "first insert wins the slot");
    }

    #[test]
    fn distinct_keys_solve_separately() {
        let cache = PartitionCache::new();
        let a = cache
            .get_or_solve::<()>(key(&["a"]), || Ok(design(1)))
            .unwrap();
        let b = cache
            .get_or_solve::<()>(key(&["b"]), || Ok(design(2)))
            .unwrap();
        assert_ne!(a.latency_ns, b.latency_ns);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = PartitionCache::new();
        let err: Result<_, &str> = cache.get_or_solve(key(&["k"]), || Err("infeasible"));
        assert_eq!(err.unwrap_err(), "infeasible");
        assert!(cache.is_empty());
        // The key stays askable and a later success is cached.
        let ok = cache.get_or_solve::<&str>(key(&["k"]), || Ok(design(3)));
        assert_eq!(ok.expect("solves now").latency_ns, 3);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = PartitionCache::new();
        cache
            .get_or_solve::<()>(key(&["x"]), || Ok(design(5)))
            .unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }
}
