//! The composable partitioner algebra: seeds, refinement passes, and
//! portfolio racing.
//!
//! The flow's [`PartitionStrategy`] trait is the algebra's unit; this
//! module provides the combinators that build bigger strategies out of
//! smaller ones:
//!
//! * [`Seeded`] — run any strategy as a *seed*, then improve its
//!   partitioning with a chain of [`Refinement`] passes ([`KlRefiner`],
//!   [`AnnealRefiner`]). Refinement never worsens the seed's latency and
//!   preserves feasibility, so `list+kl` is a drop-in upgrade of the §4
//!   strawman.
//! * [`MemoryAwareListStrategy`] — the list seed that validates word
//!   capacity *during* packing instead of producing designs that fail
//!   validation downstream.
//! * [`Portfolio`] — race boxed strategies (including the exact ILP
//!   sharded across candidate partition bounds `N₀`, `N₀+1`) on the scoped
//!   thread pool, cancel the losers the moment a decisive racer proves
//!   optimality or the deadline passes, and pick the winner by a
//!   deterministic `(cost, name, position)` order.
//! * [`MultilevelStrategy`] — the coarsen/solve/uncoarsen pipeline from
//!   [`sparcs_multilevel`] as a raceable seed: exact at the coarsest
//!   level, gain-sequence refinement on the way back up, never worse
//!   than plain `list`.
//! * [`parse_spec`] — the CLI-facing spec grammar
//!   (`seed[+pass…]` over `ilp | list | memlist | multilevel` with
//!   passes `kl | anneal | fm`, plus the standalone `portfolio`).
//!
//! Budgets and cancellation thread through everything via [`SearchCtx`]:
//! a `Portfolio` hands each racer a child token of its own context, so an
//! outer deadline stops the whole race while a proven winner stops only
//! its siblings.

use crate::flow::{
    default_explore_jobs, design_from_partitioning, DesignContext, FlowError, IlpStrategy,
    ListStrategy, PartitionStrategy,
};
use scoped_threadpool::scoped_map;
use sparcs_core::list::partition_list_memory_aware;
use sparcs_core::model::DelayMode;
use sparcs_core::partitioning::{MemoryMode, Partitioning};
use sparcs_core::refine::{anneal_refine, kl_refine, kl_refine_gains, AnnealSchedule, GainConfig};
use sparcs_core::search::SearchCtx;
use sparcs_core::{PartitionOptions, PartitionedDesign};
use sparcs_multilevel::{partition_multilevel, MultilevelConfig};

/// An iterative improvement pass over a seed partitioning. Implementations
/// must preserve feasibility (precedence + resources + memory, as checked
/// by [`Partitioning::validate`]) and never return a partitioning with
/// higher design latency than the seed; they should poll the [`SearchCtx`]
/// between rounds and return their best-so-far when stopped.
pub trait Refinement: Send + Sync {
    /// Short stable name, used in composed specs (`"kl"`, `"anneal"`).
    fn name(&self) -> &'static str;

    /// Full rendering of the pass's configuration, for cache keys. Every
    /// field that influences the result must appear (RNG seeds and
    /// temperature schedules included), so equal keys mean equal outputs.
    fn config_key(&self) -> String;

    /// Improves `seed` for the context's graph and architecture.
    ///
    /// # Errors
    ///
    /// See [`FlowError`]; a pass with nothing to improve returns the seed.
    fn refine(
        &self,
        seed: &Partitioning,
        ctx: &DesignContext,
        search: &SearchCtx,
    ) -> Result<Partitioning, FlowError>;

    /// The memory-accounting convention this pass's feasibility checks
    /// use; a [`Seeded`] chain reports its last pass's mode as the whole
    /// composition's (see [`PartitionStrategy::memory_mode`]).
    fn memory_mode(&self) -> MemoryMode {
        MemoryMode::Net
    }
}

/// The Kernighan–Lin-style move/swap refinement pass
/// ([`sparcs_core::refine::kl_refine`]) behind the [`Refinement`] trait.
///
/// The steepest-descent pass is followed by the true gain-sequence chain
/// search ([`sparcs_core::refine::kl_refine_gains`]): descent stops at the
/// first round with no strictly improving single move, and the chain
/// search then walks *through* zero-gain plateaus via tentative move
/// sequences with best-prefix commit — the fix for the `kl_gap_closed ≈ 0`
/// plateau the DCT packing exposed.
#[derive(Debug, Clone)]
pub struct KlRefiner {
    /// Maximum steepest-descent rounds (each applies the single best
    /// improving move or swap).
    pub max_rounds: usize,
    /// Gain-sequence knobs (chain length, scan caps).
    pub gain_config: GainConfig,
    /// Memory mode used when checking candidate feasibility.
    pub memory_mode: MemoryMode,
}

impl Default for KlRefiner {
    fn default() -> Self {
        KlRefiner {
            max_rounds: 64,
            gain_config: GainConfig::default(),
            memory_mode: MemoryMode::Net,
        }
    }
}

impl Refinement for KlRefiner {
    fn name(&self) -> &'static str {
        "kl"
    }

    fn config_key(&self) -> String {
        format!("{self:?}")
    }

    fn refine(
        &self,
        seed: &Partitioning,
        ctx: &DesignContext,
        search: &SearchCtx,
    ) -> Result<Partitioning, FlowError> {
        let descended = kl_refine(
            &ctx.graph,
            &ctx.arch,
            self.memory_mode,
            seed,
            self.max_rounds,
            search,
        )?;
        Ok(kl_refine_gains(
            &ctx.graph,
            &ctx.arch,
            self.memory_mode,
            &descended,
            &self.gain_config,
            search,
        )?)
    }

    fn memory_mode(&self) -> MemoryMode {
        self.memory_mode
    }
}

/// The pure gain-sequence (Fiduccia–Mattheyses-style) refinement pass
/// ([`sparcs_core::refine::kl_refine_gains`]) behind the [`Refinement`]
/// trait: tentative move chains through zero-gain (and temporarily
/// infeasible) states, best-prefix commit. Spec name `fm`.
#[derive(Debug, Clone, Default)]
pub struct GainRefiner {
    /// Chain length, pass count and scan caps.
    pub config: GainConfig,
    /// Memory mode used when checking candidate feasibility.
    pub memory_mode: MemoryMode,
}

impl Refinement for GainRefiner {
    fn name(&self) -> &'static str {
        "fm"
    }

    fn config_key(&self) -> String {
        format!("{self:?}")
    }

    fn refine(
        &self,
        seed: &Partitioning,
        ctx: &DesignContext,
        search: &SearchCtx,
    ) -> Result<Partitioning, FlowError> {
        Ok(kl_refine_gains(
            &ctx.graph,
            &ctx.arch,
            self.memory_mode,
            seed,
            &self.config,
            search,
        )?)
    }

    fn memory_mode(&self) -> MemoryMode {
        self.memory_mode
    }
}

/// The simulated-annealing refinement pass
/// ([`sparcs_core::refine::anneal_refine`]) behind the [`Refinement`]
/// trait. Deterministic for a fixed [`AnnealSchedule`] (seeded RNG), and
/// the schedule is part of the config key so caching stays sound.
#[derive(Debug, Clone, Default)]
pub struct AnnealRefiner {
    /// Temperature schedule and RNG seed.
    pub schedule: AnnealSchedule,
    /// Memory mode used when checking candidate feasibility.
    pub memory_mode: MemoryMode,
}

impl Refinement for AnnealRefiner {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn config_key(&self) -> String {
        format!("{self:?}")
    }

    fn refine(
        &self,
        seed: &Partitioning,
        ctx: &DesignContext,
        search: &SearchCtx,
    ) -> Result<Partitioning, FlowError> {
        Ok(anneal_refine(
            &ctx.graph,
            &ctx.arch,
            self.memory_mode,
            seed,
            &self.schedule,
            search,
        )?)
    }

    fn memory_mode(&self) -> MemoryMode {
        self.memory_mode
    }
}

/// `seed + passes`: runs the seed strategy, then folds the refinement
/// chain over its partitioning. The composed spec renders as
/// `"<seed>+<pass>+…"` (e.g. `"list+kl"`), and the config key renders the
/// *full compose chain* so cached designs can never alias across different
/// chains.
pub struct Seeded {
    /// The constructive seed strategy.
    pub seed: Box<dyn PartitionStrategy>,
    /// Refinement passes, applied in order.
    pub passes: Vec<Box<dyn Refinement>>,
}

impl Seeded {
    /// Composes a seed with a refinement chain.
    pub fn new(seed: Box<dyn PartitionStrategy>, passes: Vec<Box<dyn Refinement>>) -> Self {
        Seeded { seed, passes }
    }
}

impl PartitionStrategy for Seeded {
    fn name(&self) -> String {
        let mut name = self.seed.name();
        for pass in &self.passes {
            name.push('+');
            name.push_str(pass.name());
        }
        name
    }

    fn partition_cap(&self) -> Option<u32> {
        // Refinement passes move tasks between partitions but never add
        // one, so the seed's hard cap bounds the whole chain.
        self.seed.partition_cap()
    }

    fn partition(
        &self,
        ctx: &DesignContext,
        search: &SearchCtx,
    ) -> Result<PartitionedDesign, FlowError> {
        let seed_design = self.seed.partition(ctx, search)?;
        // A stop observed around any pass means the chain may have been
        // truncated (passes return their best-so-far when stopped) — keep
        // that visible in the stats, like a cancelled exact solve.
        let mut truncated = seed_design.stats.cancelled;
        let mut partitioning = seed_design.partitioning.clone();
        for pass in &self.passes {
            truncated |= search.stop_requested();
            partitioning = pass.refine(&partitioning, ctx, search)?;
        }
        truncated |= search.stop_requested();
        let mut design = design_from_partitioning(ctx, partitioning)?;
        // Carry the seed's solver *counters* (the refinement itself does no
        // solving); the rest must describe the design actually returned: an
        // optimality proof only survives if the passes changed nothing, and
        // a changed design's delays were recomputed under the partition-sum
        // convention, not the seed model's delay rows.
        let unchanged = design.partitioning == seed_design.partitioning;
        let mut stats = seed_design.stats;
        if unchanged {
            design.stats = stats;
        } else {
            stats.proven_optimal = false;
            stats.delay_mode = DelayMode::PartitionSum;
            design.stats = stats;
        }
        design.stats.cancelled = truncated;
        Ok(design)
    }

    fn config_key(&self) -> Option<String> {
        // An unkeyable seed poisons the whole chain (no caching).
        let mut key = self.seed.config_key()?;
        for pass in &self.passes {
            key.push('\u{1f}');
            key.push_str(pass.name());
            key.push(':');
            key.push_str(&pass.config_key());
        }
        Some(key)
    }

    fn memory_mode(&self) -> MemoryMode {
        // The last pass has the final say on feasibility (each pass
        // re-checks under its own mode), so its convention is the one the
        // composed design should be judged by; a bare seed reports its own.
        self.passes
            .last()
            .map_or_else(|| self.seed.memory_mode(), |pass| pass.memory_mode())
    }
}

/// The memory-aware list seed: greedy packing that validates word capacity
/// at every partition boundary while packing
/// ([`partition_list_memory_aware`]), so its designs always pass
/// validation — and its failures name the boundary that broke.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryAwareListStrategy {
    /// Memory accounting convention to pack under.
    pub memory_mode: MemoryMode,
}

impl PartitionStrategy for MemoryAwareListStrategy {
    fn name(&self) -> String {
        "memlist".into()
    }

    // One shot with nothing to interrupt: the search context is unused.
    fn partition(
        &self,
        ctx: &DesignContext,
        _search: &SearchCtx,
    ) -> Result<PartitionedDesign, FlowError> {
        let partitioning = partition_list_memory_aware(&ctx.graph, &ctx.arch, self.memory_mode)?;
        design_from_partitioning(ctx, partitioning)
    }

    fn config_key(&self) -> Option<String> {
        Some(format!("{:?}", self.memory_mode))
    }

    fn memory_mode(&self) -> MemoryMode {
        self.memory_mode
    }
}

/// The multilevel coarsen/solve/uncoarsen pipeline
/// ([`sparcs_multilevel::partition_multilevel`]) behind the strategy
/// trait: heavy-edge coarsening to a size the exact ILP can handle, exact
/// (or memory-aware list) solve at the coarsest level, then projection
/// down the tower with gain-sequence refinement at every level — the
/// scalable seed for graphs far beyond the exact solver's reach. Spec
/// name `multilevel`.
#[derive(Debug, Clone, Default)]
pub struct MultilevelStrategy {
    /// Coarsening, refinement and exactness-gate knobs.
    pub config: MultilevelConfig,
    /// Options for the coarsest-level exact solve (budgets, memory mode,
    /// warm starts). `options.model.memory_mode` should agree with
    /// `config.memory_mode`; [`parse_spec`] keeps them in sync.
    pub options: PartitionOptions,
}

impl MultilevelStrategy {
    /// A multilevel strategy whose feasibility checks (and coarsest ILP)
    /// follow `options.model.memory_mode`.
    pub fn with_options(options: PartitionOptions) -> Self {
        MultilevelStrategy {
            config: MultilevelConfig {
                memory_mode: options.model.memory_mode,
                ..MultilevelConfig::default()
            },
            options,
        }
    }
}

impl PartitionStrategy for MultilevelStrategy {
    fn name(&self) -> String {
        "multilevel".into()
    }

    fn partition(
        &self,
        ctx: &DesignContext,
        search: &SearchCtx,
    ) -> Result<PartitionedDesign, FlowError> {
        let outcome =
            partition_multilevel(&ctx.graph, &ctx.arch, &self.config, &self.options, search)?;
        let mut design = design_from_partitioning(ctx, outcome.partitioning)?;
        design.stats.proven_optimal = outcome.proven_optimal;
        design.stats.cancelled = outcome.cancelled;
        Ok(design)
    }

    fn config_key(&self) -> Option<String> {
        Some(format!("{:?}\u{1f}{:?}", self.config, self.options))
    }

    fn memory_mode(&self) -> MemoryMode {
        self.config.memory_mode
    }

    // No `partition_cap` override: the heuristic fallback and the final
    // guard do not enforce `options.max_partitions`, so the honest cap is
    // the default "uncapped".
}

/// One racer of a [`Portfolio`].
pub struct PortfolioEntry {
    /// The strategy this racer runs.
    pub strategy: Box<dyn PartitionStrategy>,
    /// Whether this racer's *proven-optimal* success settles the race: the
    /// portfolio cancels every other racer the moment a decisive entry
    /// returns a proven optimum. Only flag entries whose optimum is known
    /// to be globally optimal (the full relaxation-loop ILP, or the shard
    /// pinned at the resource lower bound `N₀` — the paper's
    /// first-feasible-is-optimal argument); a shard at `N₀+1` proves a
    /// conditional optimum only.
    pub decisive: bool,
}

impl PortfolioEntry {
    /// A non-decisive racer.
    pub fn racer(strategy: Box<dyn PartitionStrategy>) -> Self {
        PortfolioEntry {
            strategy,
            decisive: false,
        }
    }

    /// A decisive racer (see [`Self::decisive`]).
    pub fn decisive(strategy: Box<dyn PartitionStrategy>) -> Self {
        PortfolioEntry {
            strategy,
            decisive: true,
        }
    }
}

/// Races strategies concurrently and returns the best feasible design.
///
/// Every racer gets a child [`SearchCtx`] sharing the caller's budget plus
/// one race-wide [`CancelToken`](sparcs_core::CancelToken); a decisive
/// racer that proves optimality cancels the race, and cancelled
/// cooperative racers still hand in their best-so-far designs. The winner
/// is picked by the deterministic order `(latency, spec name, entry
/// position)` over everything handed in, so whenever the same racers
/// finish, the same winner is chosen — in particular, with no deadline the
/// decisive exact entry always finishes and wins every tie (its name sorts
/// first), making the winner identical for any job count. Racers that
/// stopped empty-handed count as infeasible; hard errors propagate.
///
/// Racing is inherently timing-dependent in *which* losers finish, so a
/// portfolio opts out of caching ([`PartitionStrategy::config_key`] is
/// `None`).
pub struct Portfolio {
    /// The racers, in tie-break position order.
    pub entries: Vec<PortfolioEntry>,
    /// Concurrent racers. Defaults to one thread per entry — it is a
    /// *race*, and under a deadline a sequential walk would let the first
    /// racer burn the whole budget before the others start. `<= 1` runs
    /// them sequentially in order (decisive entries first is then the
    /// sensible layout); the winner is identical for any value either way.
    pub jobs: u32,
    /// Memory accounting used to validate racer designs before ranking: a
    /// memory-blind racer (the plain list seed) may hand in a design that
    /// violates the board, and the portfolio must never crown it.
    pub memory_mode: MemoryMode,
}

impl Portfolio {
    /// A portfolio over explicit entries, racing all of them concurrently
    /// (one thread per entry; at least [`default_explore_jobs`]).
    pub fn new(entries: Vec<PortfolioEntry>) -> Self {
        Portfolio {
            jobs: (entries.len() as u32).max(default_explore_jobs()),
            entries,
            memory_mode: MemoryMode::Net,
        }
    }

    /// The standard race: the exact ILP sharded across candidate partition
    /// bounds — `N₀` pinned (decisive) while a second shard walks the rest
    /// of the relaxation loop from `N₀+1`, so together they cover every
    /// bound the classic loop would and the race never trades exactness
    /// for speed — against `list+kl` and `list+anneal` refinement chains.
    /// `options` configures the ILP shards, and its memory mode
    /// (`options.model.memory_mode`) governs both the refiners'
    /// feasibility checks and the portfolio's own validation.
    pub fn standard(options: PartitionOptions) -> Self {
        let memory_mode = options.model.memory_mode;
        let mut portfolio = Self::new(vec![
            PortfolioEntry::decisive(Box::new(IlpStrategy::at_bound_offset(options.clone(), 0))),
            PortfolioEntry::racer(Box::new(IlpStrategy::from_bound_offset(options.clone(), 1))),
            PortfolioEntry::racer(Box::new(Seeded::new(
                Box::new(ListStrategy::new()),
                vec![Box::new(KlRefiner {
                    memory_mode,
                    ..KlRefiner::default()
                })],
            ))),
            PortfolioEntry::racer(Box::new(Seeded::new(
                Box::new(ListStrategy::new()),
                vec![Box::new(AnnealRefiner {
                    memory_mode,
                    ..AnnealRefiner::default()
                })],
            ))),
            PortfolioEntry::racer(Box::new(MultilevelStrategy::with_options(options))),
        ]);
        portfolio.memory_mode = memory_mode;
        portfolio
    }
}

impl PartitionStrategy for Portfolio {
    fn name(&self) -> String {
        "portfolio".into()
    }

    fn partition(
        &self,
        ctx: &DesignContext,
        search: &SearchCtx,
    ) -> Result<PartitionedDesign, FlowError> {
        if self.entries.is_empty() {
            return Err(FlowError::NoFeasibleCandidate);
        }
        let (race_ctx, stop) = search.race_child();
        // Slot-per-entry collection: outcomes are ordered by entry
        // position, never by thread scheduling.
        let outcomes = scoped_map(self.jobs.max(1), &self.entries, |entry| {
            let result = entry.strategy.partition(ctx, &race_ctx);
            if entry.decisive {
                if let Ok(design) = &result {
                    if design.stats.proven_optimal {
                        stop.cancel(); // winner proven: stop the losers
                    }
                }
            }
            result
        });
        let mut winner: Option<(u64, String, PartitionedDesign)> = None;
        let mut hard_error: Option<FlowError> = None;
        for (entry, outcome) in self.entries.iter().zip(outcomes) {
            match outcome {
                Ok(design) => {
                    if !design
                        .partitioning
                        .validate(&ctx.graph, &ctx.arch, self.memory_mode)
                        .is_empty()
                    {
                        continue; // a blind racer's invalid design never wins
                    }
                    let key = (design.latency_ns, entry.strategy.name());
                    let better = winner
                        .as_ref()
                        .is_none_or(|(cost, name, _)| key < (*cost, name.clone()));
                    if better {
                        winner = Some((key.0, key.1, design));
                    }
                }
                // Infeasible-class outcomes (including racers cancelled
                // before finding anything) just drop out of the ranking.
                Err(e) if e.is_infeasible() => {}
                Err(e) => {
                    hard_error.get_or_insert(e);
                }
            }
        }
        if let Some(e) = hard_error {
            // A racer hitting a bug outranks any winner: losing it silently
            // would hide real failures behind whichever racer happened to
            // finish.
            return Err(e);
        }
        match winner {
            Some((_, _, design)) => Ok(design),
            None => Err(FlowError::NoFeasibleCandidate),
        }
    }

    fn memory_mode(&self) -> MemoryMode {
        self.memory_mode
    }
}

/// Parses a strategy *spec* into a boxed strategy.
///
/// Grammar: `portfolio` (the [`Portfolio::standard`] race), or
/// `<seed>[+<pass>…]` with seeds `ilp` (exact, configured by `options`),
/// `list` (the §4 strawman), `memlist` (memory-aware list) and
/// `multilevel` (coarsen/solve/uncoarsen), and passes `kl` (move/swap
/// descent plus gain-sequence chains), `anneal` (simulated annealing) and
/// `fm` (pure gain-sequence chains). Examples: `"ilp"`, `"list+kl"`,
/// `"multilevel+fm"`, `"memlist+kl+anneal"`. The memory accounting of
/// every produced piece — the memlist packer, the refiners' feasibility
/// checks, the portfolio's validation — follows
/// `options.model.memory_mode`, so `--edge-memory` applies to the whole
/// chain, not just the exact solver.
///
/// # Errors
///
/// [`FlowError::Spec`] naming the unknown seed or pass.
pub fn parse_spec(
    spec: &str,
    options: &PartitionOptions,
) -> Result<Box<dyn PartitionStrategy>, FlowError> {
    let spec = spec.trim();
    let memory_mode = options.model.memory_mode;
    if spec == "portfolio" {
        return Ok(Box::new(Portfolio::standard(options.clone())));
    }
    let mut parts = spec.split('+');
    let seed_name = parts.next().unwrap_or_default();
    let seed: Box<dyn PartitionStrategy> = match seed_name {
        "ilp" => Box::new(IlpStrategy::with_options(options.clone())),
        "list" => Box::new(ListStrategy::new()),
        "memlist" => Box::new(MemoryAwareListStrategy { memory_mode }),
        "multilevel" => Box::new(MultilevelStrategy::with_options(options.clone())),
        other => {
            return Err(FlowError::Spec(format!(
                "unknown seed strategy {other:?} in spec {spec:?} \
                 (expected ilp, list, memlist, multilevel, or portfolio)"
            )))
        }
    };
    let mut passes: Vec<Box<dyn Refinement>> = Vec::new();
    for pass in parts {
        passes.push(match pass {
            "kl" => Box::new(KlRefiner {
                memory_mode,
                ..KlRefiner::default()
            }) as Box<dyn Refinement>,
            "anneal" => Box::new(AnnealRefiner {
                memory_mode,
                ..AnnealRefiner::default()
            }),
            "fm" => Box::new(GainRefiner {
                memory_mode,
                ..GainRefiner::default()
            }),
            other => {
                return Err(FlowError::Spec(format!(
                    "unknown refinement pass {other:?} in spec {spec:?} \
                     (expected kl, anneal, or fm)"
                )))
            }
        });
    }
    if passes.is_empty() {
        Ok(seed)
    } else {
        Ok(Box::new(Seeded::new(seed, passes)))
    }
}

/// The specs [`parse_spec`] understands, for usage text and docs.
pub const SPEC_GRAMMAR: &str =
    "ilp | list | memlist | multilevel [+kl|+anneal|+fm ...] | portfolio";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSession;
    use sparcs_dfg::gen;
    use sparcs_estimate::Architecture;

    fn session() -> FlowSession {
        FlowSession::new(gen::fig4_example(), Architecture::xc4044_wildforce())
    }

    #[test]
    fn specs_parse_and_render_their_compose_chain() {
        let options = PartitionOptions::default();
        for (spec, expect) in [
            ("ilp", "ilp"),
            ("list", "list"),
            ("memlist", "memlist"),
            ("list+kl", "list+kl"),
            ("list+anneal", "list+anneal"),
            ("memlist+kl+anneal", "memlist+kl+anneal"),
            ("multilevel", "multilevel"),
            ("multilevel+fm", "multilevel+fm"),
            ("list+fm", "list+fm"),
            ("portfolio", "portfolio"),
        ] {
            let strategy = parse_spec(spec, &options).expect(spec);
            assert_eq!(strategy.name(), expect);
        }
        for bad in ["", "lst", "list+klx", "portfolio+kl"] {
            let err = match parse_spec(bad, &options) {
                Err(e) => e,
                Ok(_) => panic!("{bad:?} must not parse"),
            };
            assert!(matches!(err, FlowError::Spec(_)), "{bad:?}");
            assert!(!err.is_infeasible(), "a bad spec is a hard error");
        }
    }

    #[test]
    fn spec_memory_mode_follows_the_options() {
        use sparcs_core::model::ModelConfig;
        let edge = PartitionOptions {
            model: ModelConfig {
                memory_mode: MemoryMode::Edge,
                ..ModelConfig::default()
            },
            ..PartitionOptions::default()
        };
        // The whole chain — packer and refiners — must inherit the mode
        // (visible through the rendered config keys), so `--edge-memory`
        // is never silently dropped by a composed spec.
        for spec in ["memlist", "list+kl", "list+anneal", "multilevel", "list+fm"] {
            let key = parse_spec(spec, &edge).unwrap().config_key().unwrap();
            assert!(key.contains("Edge"), "{spec} key ignores the mode: {key}");
        }
        let portfolio = Portfolio::standard(edge);
        assert_eq!(portfolio.memory_mode, MemoryMode::Edge);
    }

    #[test]
    fn seeded_chains_cache_keys_include_every_pass() {
        let options = PartitionOptions::default();
        let plain = parse_spec("list", &options).unwrap();
        let kl = parse_spec("list+kl", &options).unwrap();
        let both = parse_spec("list+kl+anneal", &options).unwrap();
        let keys = [
            plain.config_key().unwrap(),
            kl.config_key().unwrap(),
            both.config_key().unwrap(),
        ];
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[1], keys[2]);
        assert!(keys[1].contains("kl"));
        assert!(keys[2].contains("anneal"));
        // The racing portfolio must opt out of caching entirely.
        assert!(parse_spec("portfolio", &options)
            .unwrap()
            .config_key()
            .is_none());
    }

    #[test]
    fn refined_strategies_never_lose_to_their_seed() {
        let s = session();
        let options = PartitionOptions::default();
        let seed = s
            .partition_with(parse_spec("list", &options).unwrap().as_ref())
            .unwrap();
        for spec in ["list+kl", "list+anneal", "memlist+kl"] {
            let refined = s
                .partition_with(parse_spec(spec, &options).unwrap().as_ref())
                .unwrap();
            assert!(
                refined.design.latency_ns <= seed.design.latency_ns,
                "{spec}: {} > seed {}",
                refined.design.latency_ns,
                seed.design.latency_ns
            );
            assert!(refined.validate(MemoryMode::Net).is_empty(), "{spec}");
        }
    }

    #[test]
    fn refinement_drops_stale_optimality_claims() {
        let s = session();
        let options = PartitionOptions::default();
        let ilp_kl = s
            .partition_with(parse_spec("ilp+kl", &options).unwrap().as_ref())
            .unwrap();
        // KL cannot improve a proven optimum, so the chain keeps the claim
        // only because the partitioning is unchanged.
        let ilp = s.partition_with(&IlpStrategy::new()).unwrap();
        assert_eq!(ilp_kl.design.latency_ns, ilp.design.latency_ns);
    }

    #[test]
    fn portfolio_returns_the_exact_optimum_and_cancels_losers() {
        let s = session();
        let portfolio = Portfolio::standard(PartitionOptions::default());
        let stage = s.partition_with(&portfolio).unwrap();
        let exact = s.partition_with(&IlpStrategy::new()).unwrap();
        assert_eq!(stage.design.latency_ns, exact.design.latency_ns);
        assert!(stage.design.stats.proven_optimal);
    }

    #[test]
    fn portfolio_winner_is_identical_for_any_job_count() {
        let s = session();
        let mut baseline: Option<(Vec<_>, u64)> = None;
        for jobs in [1, 2, 4] {
            let mut portfolio = Portfolio::standard(PartitionOptions::default());
            portfolio.jobs = jobs;
            let stage = s.partition_with(&portfolio).unwrap();
            let key = (
                stage.design.partitioning.assignment().to_vec(),
                stage.design.latency_ns,
            );
            match &baseline {
                None => baseline = Some(key),
                Some(b) => assert_eq!(*b, key, "jobs = {jobs}"),
            }
        }
    }

    /// The review scenario for bound sharding: packing that needs far more
    /// than `N₀+1` partitions. The pinned `N₀` shard is infeasible, but the
    /// `N₀+1..` shard walks the loop to the first feasible bound, so the
    /// portfolio still returns a *proven* optimum instead of quietly
    /// crowning a heuristic.
    #[test]
    fn portfolio_keeps_exactness_when_early_bounds_are_infeasible() {
        use sparcs_dfg::{Resources, TaskGraph};
        let mut g = TaskGraph::new("chain-of-ten");
        let mut prev = None;
        for i in 0..10 {
            let t = g.add_task(format!("t{i}"), Resources::clbs(60), 10, 1);
            if let Some(p) = prev {
                g.add_edge(p, t, 1).unwrap();
            }
            prev = Some(t);
        }
        // 100 CLBs: N₀ = ⌈600/100⌉ = 6, but no two 60-CLB tasks co-locate,
        // so the first feasible bound is 10.
        let mut dev = Architecture::xc4044_wildforce();
        dev.resources = Resources::clbs(100);
        let s = FlowSession::new(g, dev);
        let stage = s
            .partition_with(&Portfolio::standard(PartitionOptions::default()))
            .unwrap();
        assert_eq!(stage.design.partitioning.partition_count(), 10);
        assert!(
            stage.design.stats.proven_optimal,
            "the N₀+1.. shard must carry the relaxation loop to a proof"
        );
        let exact = s.partition_with(&IlpStrategy::new()).unwrap();
        assert_eq!(stage.design.latency_ns, exact.design.latency_ns);
    }

    #[test]
    fn multilevel_matches_the_exact_optimum_on_the_paper_example() {
        // The Fig. 4 graph is below the coarsening floor, so the pipeline
        // degenerates to the exact solve on the original graph — the
        // optimality proof must survive the trip through the subsystem.
        let s = session();
        let options = PartitionOptions::default();
        let ml = s
            .partition_with(parse_spec("multilevel", &options).unwrap().as_ref())
            .unwrap();
        let exact = s.partition_with(&IlpStrategy::new()).unwrap();
        assert_eq!(ml.design.latency_ns, exact.design.latency_ns);
        assert!(ml.validate(MemoryMode::Net).is_empty());
        assert!(ml.design.stats.proven_optimal);
    }

    #[test]
    fn empty_portfolio_and_all_infeasible_portfolio_err_infeasible() {
        let s = session();
        let empty = Portfolio::new(Vec::new());
        let err = s.partition_with(&empty).unwrap_err();
        assert!(matches!(err, FlowError::NoFeasibleCandidate));
        assert!(err.is_infeasible(), "explore can skip hopeless portfolios");
        // A portfolio whose only racer is capped below the resource lower
        // bound comes up empty the same way.
        let options = PartitionOptions {
            max_partitions: Some(1),
            ..PartitionOptions::default()
        };
        let hopeless = Portfolio::new(vec![PortfolioEntry::racer(Box::new(
            IlpStrategy::with_options(options),
        ))]);
        let err = s.partition_with(&hopeless).unwrap_err();
        assert!(matches!(err, FlowError::NoFeasibleCandidate));
    }
}
