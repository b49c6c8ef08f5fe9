//! The Flow pipeline API — one composable way to run the whole synthesis
//! chain.
//!
//! Every entry point of this workspace (the `sparcs` CLI, the §4 case
//! study, the examples, the bench harness) drives the same sequence: build
//! or parse a task graph, pick a target [`Architecture`], temporally
//! partition, analyze loop fission, and emit or simulate the result. This
//! module makes that sequence a first-class object instead of hand-wired
//! glue:
//!
//! * [`FlowSession`] owns the immutable inputs (a [`DesignContext`]) and
//!   hands out typed stages — a session can be partitioned many times, with
//!   different strategies, without rebuilding anything.
//! * [`PartitionStrategy`] abstracts *how* the temporal partitioning is
//!   produced. It is the unit of the *strategy algebra*
//!   ([`crate::strategy`]): every strategy takes a [`SearchCtx`] — a
//!   wall-clock budget plus a cancellation token — and composes: the
//!   paper's exact ILP ([`IlpStrategy`]), the §4 list strawman
//!   ([`ListStrategy`]), seeded refinement chains (`list+kl`,
//!   `list+anneal`) and racing portfolios all plug in behind one
//!   interface.
//! * [`PartitionedFlow`] → [`AnalyzedFlow`] carry the design through the
//!   fission analysis to host-code generation, so a caller can stop at
//!   whichever stage it needs.
//! * [`AnalyzedFlow::run`] executes the design on the simulated board as a
//!   *stream*: batches of `k` computations are pulled from an
//!   [`InputSource`] and pushed into an [`OutputSink`], so a multi-gigabyte
//!   workload runs at constant host memory while the [`TimeReport`]
//!   accumulates incrementally.
//! * [`FlowSession::explore`] evaluates a whole candidate space — every
//!   strategy × architecture × partition-cap × block rounding × sequencing
//!   choice — against a workload and returns the designs ranked by total
//!   execution time: the paper's Table-1/Table-2 comparison as an API.
//!   Candidates are independent, so exploration fans them out across a
//!   scoped thread pool ([`ExploreSpace::jobs`]) and memoizes the expensive
//!   partitioning solves in a [`PartitionCache`]; the ranking is
//!   deterministic — identical for any job count, cached or not.
//!
//! ```
//! use sparcs::flow::FlowSession;
//! use sparcs::estimate::Architecture;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = sparcs::dfg::gen::fig4_example();
//! let session = FlowSession::new(graph, Architecture::xc4044_wildforce());
//! let analyzed = session.partition()?.analyze()?;
//! println!("{} partitions, k = {}",
//!          analyzed.design.partitioning.partition_count(), analyzed.fission.k);
//! # Ok(())
//! # }
//! ```

use crate::cache::{CacheKey, PartitionCache};
use scoped_threadpool::scoped_map;
use sparcs_analyze::Analysis;
use sparcs_core::fission::{BlockRounding, FissionAnalysis, FissionError};
use sparcs_core::ilp::SolveStats;
use sparcs_core::list::{partition_list, ListError};
use sparcs_core::memory::partition_io;
use sparcs_core::partitioning::{MemoryMode, Partitioning, Violation};
use sparcs_core::search::SearchCtx;
use sparcs_core::{
    codegen, IlpPartitioner, PartitionError, PartitionOptions, PartitionedDesign,
    SequencingStrategy,
};
use sparcs_dfg::{parse, GraphError, TaskGraph};
use sparcs_estimate::Architecture;
use sparcs_ilp::SolveError;
use sparcs_rtr::stream::splitmix64;
use sparcs_rtr::{
    Configuration, FdhSequencer, HostError, IdhSequencer, InputSource, OutputSink, RtrDesign,
    Sequencer, StaticDesign, StaticSequencer, TimeReport, MAX_BATCH_LANES,
};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Errors from any stage of a flow.
#[derive(Debug)]
pub enum FlowError {
    /// The graph text did not parse.
    Parse(parse::ParseError),
    /// The graph is invalid (cycle, unknown task, …).
    Graph(GraphError),
    /// The ILP partitioner failed.
    Partition(PartitionError),
    /// The list partitioner failed.
    List(ListError),
    /// The loop-fission analysis failed.
    Fission(FissionError),
    /// A streaming host execution failed (memory budget or input shape —
    /// see [`HostError`]).
    Host(HostError),
    /// The analyzed design cannot be lifted to an executable streaming
    /// design (no environment inputs/outputs to stream, or a partition
    /// that moves no data).
    NotExecutable(String),
    /// A strategy produced a partitioning that violates the architecture's
    /// feasibility conditions — with the violation list kept, so coverage
    /// reports can say *which* constraint broke (backwards edge, resource
    /// overflow, boundary memory).
    Infeasible(Vec<Violation>),
    /// A strategy spec (see [`crate::strategy::parse_spec`]) did not parse.
    Spec(String),
    /// An exploration (or a strategy portfolio) had no feasible candidate
    /// to return.
    NoFeasibleCandidate,
    /// The independent certifier ([`sparcs_audit`]) found error-class
    /// diagnostics in a design a strategy returned: the design's own
    /// numbers (delays, latency, schedule shape) disagree with what the
    /// certifier re-derives from first principles. This is always a bug in
    /// the producing strategy, never a property of the problem — it is
    /// *not* an infeasible-class error and is never skipped.
    Certification(Vec<sparcs_audit::Diagnostic>),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Parse(e) => write!(f, "{e}"),
            FlowError::Graph(e) => write!(f, "{e}"),
            FlowError::Partition(e) => write!(f, "{e}"),
            FlowError::List(e) => write!(f, "{e}"),
            FlowError::Fission(e) => write!(f, "{e}"),
            FlowError::Host(e) => write!(f, "{e}"),
            FlowError::NotExecutable(reason) => {
                write!(f, "design is not executable as a stream: {reason}")
            }
            FlowError::Infeasible(violations) => {
                write!(f, "partitioning violates the architecture: ")?;
                for (i, v) in violations.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
            FlowError::Spec(spec) => write!(f, "{spec}"),
            FlowError::NoFeasibleCandidate => {
                write!(f, "no partitioning strategy produced a feasible design")
            }
            FlowError::Certification(diags) => {
                write!(f, "design failed independent certification: ")?;
                for (i, d) in diags.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
        }
    }
}

impl FlowError {
    /// Whether this error means *this candidate cannot be realized* (an
    /// expected exploration outcome — a memory-blind heuristic produced an
    /// oversized design, no partitioning exists under the cap, a solver
    /// budget ran out) as opposed to an internal failure (malformed graph,
    /// broken model, numerical trouble) that indicates a bug and must never
    /// be silently skipped. [`FlowSession::explore`] skips infeasible
    /// candidates and propagates everything else.
    pub fn is_infeasible(&self) -> bool {
        match self {
            FlowError::Partition(e) => matches!(
                e,
                PartitionError::NoFeasibleSolution { .. }
                    | PartitionError::TaskTooLarge(_)
                    | PartitionError::Solver(
                        SolveError::Infeasible
                            | SolveError::NodeLimit(_)
                            | SolveError::SimplexLimit(_)
                            | SolveError::Cancelled
                    )
            ),
            FlowError::List(ListError::TaskTooLarge(_) | ListError::MemoryInfeasible { .. }) => {
                true
            }
            FlowError::Fission(FissionError::MemoryTooSmall { .. }) => true,
            // A produced-but-invalid partitioning, and a portfolio whose
            // every racer came up empty, are candidate outcomes too.
            FlowError::Infeasible(_) | FlowError::NoFeasibleCandidate => true,
            FlowError::Parse(_)
            | FlowError::Graph(_)
            | FlowError::List(ListError::Graph(_))
            | FlowError::Fission(FissionError::EmptyDesign)
            | FlowError::Host(_)
            | FlowError::NotExecutable(_)
            | FlowError::Spec(_)
            | FlowError::Certification(_) => false,
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Parse(e) => Some(e),
            FlowError::Graph(e) => Some(e),
            FlowError::Partition(e) => Some(e),
            FlowError::List(e) => Some(e),
            FlowError::Fission(e) => Some(e),
            FlowError::Host(e) => Some(e),
            FlowError::NotExecutable(_)
            | FlowError::Infeasible(_)
            | FlowError::Spec(_)
            | FlowError::NoFeasibleCandidate
            | FlowError::Certification(_) => None,
        }
    }
}

impl From<parse::ParseError> for FlowError {
    fn from(e: parse::ParseError) -> Self {
        FlowError::Parse(e)
    }
}

impl From<GraphError> for FlowError {
    fn from(e: GraphError) -> Self {
        FlowError::Graph(e)
    }
}

impl From<PartitionError> for FlowError {
    fn from(e: PartitionError) -> Self {
        FlowError::Partition(e)
    }
}

impl From<ListError> for FlowError {
    fn from(e: ListError) -> Self {
        FlowError::List(e)
    }
}

impl From<FissionError> for FlowError {
    fn from(e: FissionError) -> Self {
        FlowError::Fission(e)
    }
}

impl From<HostError> for FlowError {
    fn from(e: HostError) -> Self {
        FlowError::Host(e)
    }
}

impl From<sparcs_multilevel::MultilevelError> for FlowError {
    fn from(e: sparcs_multilevel::MultilevelError) -> Self {
        use sparcs_multilevel::MultilevelError;
        match e {
            MultilevelError::Graph(g) => FlowError::Graph(g),
            MultilevelError::TaskTooLarge(t) => {
                FlowError::Partition(PartitionError::TaskTooLarge(t))
            }
            MultilevelError::Infeasible { violations } => FlowError::Infeasible(violations),
        }
    }
}

/// The immutable inputs every stage reads: the behavior task graph and the
/// target board.
#[derive(Debug, Clone)]
pub struct DesignContext {
    /// The behavior task graph under synthesis.
    pub graph: TaskGraph,
    /// The reconfigurable target.
    pub arch: Architecture,
}

/// A built-in candidate of an [`ExploreSpace`]: the boxed strategy plus
/// the partition cap it reports under.
type BuiltinStrategy = (Box<dyn PartitionStrategy>, Option<u32>);

/// How a temporal partitioning is produced — the unit of the strategy
/// algebra. Implementations must return a design whose partitioning
/// respects precedence (every edge runs forward in time) and per-partition
/// resource bounds. Strategies are shared by reference across exploration
/// and portfolio worker threads, hence `Send + Sync`.
///
/// Strategies are *search-aware*: [`Self::partition`] takes a [`SearchCtx`]
/// carrying a wall-clock budget and a cancellation token, and cooperative
/// implementations (the ILP's branch-and-bound, the refinement passes)
/// return their best design so far when stopped instead of dying; a
/// one-shot strategy with nothing to interrupt simply ignores the context.
pub trait PartitionStrategy: Send + Sync {
    /// The strategy's *spec*: the full rendering of its compose chain
    /// (`"ilp"`, `"list+kl"`, `"portfolio"`, …), used in reports,
    /// exploration tables and cache keys.
    fn name(&self) -> String;

    /// Partitions the context's graph for its architecture, under the
    /// given search context. Cooperative strategies poll
    /// [`SearchCtx::stop_requested`] between units of work and return the
    /// best feasible design found so far when stopped (erring only when
    /// they have nothing at all to return).
    ///
    /// # Errors
    ///
    /// Strategy-specific; see [`FlowError`].
    fn partition(
        &self,
        ctx: &DesignContext,
        search: &SearchCtx,
    ) -> Result<PartitionedDesign, FlowError>;

    /// The full rendering of this strategy's *configuration* (not of the
    /// problem — the graph and architecture are keyed separately).
    /// Together with [`Self::name`] it forms the strategy part of a
    /// [`PartitionCache`] key, so two values with equal names and config
    /// keys must produce identical designs on identical contexts — render
    /// every field that influences the result (a `Debug` format of the
    /// options struct is usually exactly right; composed strategies append
    /// every pass's configuration). The default `None` opts the strategy
    /// out of caching entirely — correct (if slow) for strategies that
    /// cannot describe their configuration or are not deterministic (a
    /// racing portfolio). Results computed under a *bounded* [`SearchCtx`]
    /// are never cached regardless, since how far a budgeted search gets
    /// is not a function of the key.
    fn config_key(&self) -> Option<String> {
        None
    }

    /// The memory-accounting convention this strategy's own feasibility
    /// reasoning uses — the mode its designs should be validated and
    /// certified under ([`PartitionedFlow::certify`]). The default is the
    /// paper's net accounting; strategies configured for per-edge
    /// accounting override this so downstream checks judge them by the
    /// rules they actually played by.
    fn memory_mode(&self) -> MemoryMode {
        MemoryMode::Net
    }

    /// The hard partition-count cap this strategy solves under, if any —
    /// what the [`sparcs_analyze`] pre-pass judges the
    /// `partition-count-bound` verdict against. `None` (the default) means
    /// uncapped: the count bound can then never convict the spec, only the
    /// memory and schedulability bounds can.
    fn partition_cap(&self) -> Option<u32> {
        None
    }
}

/// The paper's exact ILP temporal partitioner behind the strategy trait.
#[derive(Debug, Clone, Default)]
pub struct IlpStrategy {
    /// Options forwarded to [`IlpPartitioner`].
    pub options: PartitionOptions,
}

impl IlpStrategy {
    /// The default exact partitioner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An exact partitioner with explicit options (memory mode, symmetry
    /// groups, solver budgets, …).
    pub fn with_options(options: PartitionOptions) -> Self {
        IlpStrategy { options }
    }
}

impl PartitionStrategy for IlpStrategy {
    fn name(&self) -> String {
        "ilp".into()
    }

    fn partition(
        &self,
        ctx: &DesignContext,
        search: &SearchCtx,
    ) -> Result<PartitionedDesign, FlowError> {
        Ok(IlpPartitioner::new(ctx.arch.clone(), self.options.clone())
            .partition_with_search(&ctx.graph, search)?)
    }

    fn config_key(&self) -> Option<String> {
        // `PartitionOptions` is plain data with a stable `Debug` rendering
        // (deadlines and tokens live only in the `SearchCtx`); any change
        // (memory mode, node budgets, symmetry, partition cap, warm
        // incumbent) changes the key.
        Some(format!("{:?}", self.options))
    }

    fn memory_mode(&self) -> MemoryMode {
        self.options.model.memory_mode
    }

    fn partition_cap(&self) -> Option<u32> {
        self.options.max_partitions
    }
}

/// The §4 list-scheduling strawman behind the strategy trait. Latency-blind
/// and memory-blind, but fast — the baseline every exploration includes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ListStrategy;

impl ListStrategy {
    /// The list heuristic.
    pub fn new() -> Self {
        ListStrategy
    }
}

impl PartitionStrategy for ListStrategy {
    fn name(&self) -> String {
        "list".into()
    }

    // One shot with nothing to interrupt: the search context is unused.
    fn partition(
        &self,
        ctx: &DesignContext,
        _search: &SearchCtx,
    ) -> Result<PartitionedDesign, FlowError> {
        let partitioning = partition_list(&ctx.graph, &ctx.arch)?;
        design_from_partitioning(ctx, partitioning)
    }

    fn config_key(&self) -> Option<String> {
        Some(String::new()) // the list heuristic has no configuration
    }
}

/// The content-addressed cache key for solving `ctx` with `strategy`: the
/// full rendered problem statement (graph, architecture, strategy name,
/// strategy configuration). `None` when the strategy cannot render a
/// stable configuration (a racing portfolio), in which case its results
/// must never be memoized. Deadlines and cancellation tokens never reach
/// a key: they live only in the [`SearchCtx`], and bounded searches skip
/// the cache altogether.
///
/// This is the *single* statement-key definition: the in-process
/// [`PartitionCache`] and `sparcsd`'s shared disk-backed result store both
/// key by it, which is what makes the disk tier a transparent promotion of
/// the in-memory one.
pub fn statement_key(ctx: &DesignContext, strategy: &dyn PartitionStrategy) -> Option<CacheKey> {
    let config = strategy.config_key()?;
    Some(
        CacheKey::builder()
            .push_graph(&ctx.graph)
            .push(&ctx.arch)
            .push(&strategy.name())
            .push(&config)
            .build(),
    )
}

/// Solves `ctx` with `strategy`, going through `cache` when a cache is
/// given, the strategy can render its configuration, *and* the search is
/// unbounded — a budgeted or cancellable solve is not a pure function of
/// the problem statement, so its result must never be memoized.
fn partition_cached(
    ctx: &DesignContext,
    strategy: &dyn PartitionStrategy,
    cache: Option<&PartitionCache>,
    search: &SearchCtx,
) -> Result<Arc<PartitionedDesign>, FlowError> {
    let cache = cache.filter(|_| search.is_unbounded());
    match (cache, statement_key(ctx, strategy)) {
        (Some(cache), Some(key)) => cache.get_or_solve(key, || strategy.partition(ctx, search)),
        _ => Ok(Arc::new(strategy.partition(ctx, search)?)),
    }
}

/// Assembles a [`PartitionedDesign`] (delays, latency, heuristic stats)
/// from a bare assignment — shared by non-ILP strategies, the refinement
/// combinators in [`crate::strategy`], [`PartitionedFlow::map_partitioning`],
/// and `sparcsd`'s replay path (which rebuilds a stored assignment into a
/// full design so the mandatory audit gate can re-certify it before the
/// daemon serves it).
///
/// # Errors
///
/// Returns [`FlowError::Graph`] when the assignment does not shape the
/// graph into a forward-in-time DAG of partitions.
pub fn design_from_partitioning(
    ctx: &DesignContext,
    partitioning: Partitioning,
) -> Result<PartitionedDesign, FlowError> {
    Ok(PartitionedDesign::from_partitioning(
        &ctx.graph,
        &ctx.arch,
        partitioning,
        SolveStats::default(),
    )?)
}

/// A flow run: owns the [`DesignContext`] and hands out typed stages.
#[derive(Debug, Clone)]
pub struct FlowSession {
    ctx: DesignContext,
}

impl FlowSession {
    /// Starts a session over an in-memory graph.
    pub fn new(graph: TaskGraph, arch: Architecture) -> Self {
        FlowSession {
            ctx: DesignContext { graph, arch },
        }
    }

    /// Starts a session by parsing the `sparcs_dfg::parse` text format.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Parse`] on malformed graph text.
    pub fn from_text(text: &str, arch: Architecture) -> Result<Self, FlowError> {
        Ok(Self::new(parse::parse(text)?, arch))
    }

    /// The immutable inputs.
    pub fn context(&self) -> &DesignContext {
        &self.ctx
    }

    /// The task graph under synthesis.
    pub fn graph(&self) -> &TaskGraph {
        &self.ctx.graph
    }

    /// The target board.
    pub fn arch(&self) -> &Architecture {
        &self.ctx.arch
    }

    /// Partitions with the default exact ILP strategy.
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn partition(&self) -> Result<PartitionedFlow<'_>, FlowError> {
        self.partition_with(&IlpStrategy::new())
    }

    /// Partitions with any [`PartitionStrategy`], unbounded (the strategy
    /// runs to completion).
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn partition_with(
        &self,
        strategy: &dyn PartitionStrategy,
    ) -> Result<PartitionedFlow<'_>, FlowError> {
        self.partition_with_search(strategy, &SearchCtx::unbounded())
    }

    /// Partitions with any [`PartitionStrategy`] under a [`SearchCtx`]:
    /// the budget and cancellation token are threaded into the strategy
    /// (and, for the exact ILP, all the way into the branch-and-bound
    /// loop). A stopped cooperative strategy returns its best design so
    /// far — check [`sparcs_core::ilp::SolveStats::cancelled`] on the
    /// result to see whether the search ran to completion.
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn partition_with_search(
        &self,
        strategy: &dyn PartitionStrategy,
        search: &SearchCtx,
    ) -> Result<PartitionedFlow<'_>, FlowError> {
        let design = strategy.partition(&self.ctx, search)?;
        let flow = PartitionedFlow {
            ctx: &self.ctx,
            design,
            strategy: strategy.name(),
        };
        flow.certified(strategy.memory_mode())
    }

    /// Like [`Self::partition_with`], but memoized: the solve is answered
    /// from `cache` when the same graph + architecture + strategy
    /// configuration was solved before (in this or any other session
    /// sharing the cache).
    ///
    /// # Errors
    ///
    /// See [`FlowError`]. Errors are never cached; a failing problem is
    /// re-attempted on the next call.
    pub fn partition_with_cache(
        &self,
        strategy: &dyn PartitionStrategy,
        cache: &PartitionCache,
    ) -> Result<PartitionedFlow<'_>, FlowError> {
        let design = partition_cached(&self.ctx, strategy, Some(cache), &SearchCtx::unbounded())?;
        let flow = PartitionedFlow {
            ctx: &self.ctx,
            design: (*design).clone(),
            strategy: strategy.name(),
        };
        flow.certified(strategy.memory_mode())
    }

    /// Evaluates the whole candidate space — strategy × architecture ×
    /// partition cap × rounding × sequencing — and returns the designs
    /// ranked by total execution time for the given workload. See
    /// [`ExploreSpace`].
    ///
    /// Candidates are independent; with [`ExploreSpace::jobs`] > 1 they are
    /// evaluated on a scoped thread pool, and with a cache attached
    /// ([`ExploreSpace::cache`], on by default) identical partitioning
    /// problems are solved once. Neither changes the result: outcomes are
    /// collected per candidate slot and ranked by a stable sort, so the
    /// ranking is identical for every job count and cache state.
    ///
    /// # Errors
    ///
    /// *Infeasible* candidates (no partitioning under the cap, memory too
    /// small, solver budget exhausted — see [`FlowError::is_infeasible`])
    /// are skipped and counted in [`Exploration::coverage`]. *Hard* errors
    /// (malformed graph, broken model, numerical failure) indicate bugs,
    /// not infeasibility, and are propagated — the first one in candidate
    /// order. Returns [`FlowError::NoFeasibleCandidate`] when every
    /// candidate was skipped.
    pub fn explore(&self, space: &ExploreSpace) -> Result<Exploration, FlowError> {
        // One immutable context per target board (the session's own when
        // the space names none); workers share them by reference.
        let contexts: Vec<DesignContext> = if space.architectures.is_empty() {
            vec![self.ctx.clone()]
        } else {
            space
                .architectures
                .iter()
                .map(|arch| DesignContext {
                    graph: self.ctx.graph.clone(),
                    arch: arch.clone(),
                })
                .collect()
        };

        // One deadline for the whole exploration, fixed up front so every
        // worker races the same clock. `partition_cached` bypasses the
        // cache automatically for bounded searches.
        let search = match space.budget {
            Some(budget) => SearchCtx::with_timeout(budget),
            None => SearchCtx::unbounded(),
        };

        // The static pre-pass, once per board: its bounds depend on the
        // graph, the board and the validation memory mode, never on the
        // strategy, so every spec on a board reads the same analysis.
        let analyses = scoped_map(space.jobs, &contexts, |ctx| {
            sparcs_analyze::analyze(&ctx.graph, &ctx.arch, space.memory_mode)
        })
        .into_iter()
        .collect::<Result<Vec<Analysis>, GraphError>>()?;

        let builtins = space.builtin_strategies()?;
        let strategies: Vec<(&dyn PartitionStrategy, Option<u32>)> = builtins
            .iter()
            .map(|(boxed, cap)| (boxed.as_ref(), *cap))
            .chain(
                space
                    .extra_strategies
                    .iter()
                    .map(|boxed| (boxed.as_ref(), None)),
            )
            .collect();
        let specs: Vec<(
            &DesignContext,
            &Analysis,
            &dyn PartitionStrategy,
            Option<u32>,
        )> = contexts
            .iter()
            .zip(&analyses)
            .flat_map(|(ctx, analysis)| {
                strategies
                    .iter()
                    .map(move |&(s, cap)| (ctx, analysis, s, cap))
            })
            .collect();

        // `scoped_map` hands every spec its own result slot, so outcomes
        // are ordered by spec position, never by thread scheduling.
        let outcomes = scoped_map(space.jobs, &specs, |&(ctx, analysis, strategy, cap)| {
            evaluate_spec(ctx, analysis, strategy, cap, space, &search)
        });

        let mut coverage = ExploreCoverage {
            specs: specs.len(),
            ..ExploreCoverage::default()
        };
        let mut candidates = Vec::new();
        for outcome in outcomes {
            let outcome = outcome?;
            coverage.skipped_infeasible += usize::from(outcome.skipped_infeasible);
            coverage.skipped_invalid += usize::from(outcome.skipped_invalid);
            coverage.skipped_static += usize::from(outcome.skipped_static);
            coverage.skipped_fission += outcome.skipped_fission;
            coverage.ranked_specs += usize::from(!outcome.candidates.is_empty());
            coverage.skips.extend(outcome.skips);
            candidates.extend(outcome.candidates);
        }
        if candidates.is_empty() {
            return Err(FlowError::NoFeasibleCandidate);
        }
        // Stable sort over deterministic input order ⇒ deterministic
        // ranking, ties resolved by spec position. Grouped by workload
        // first: totals for different `I` values are not comparable.
        candidates.sort_by_key(|c| (c.workload, c.total_ns, c.partition_count, c.k));
        Ok(Exploration {
            candidates,
            coverage,
        })
    }
}

/// Why one candidate spec fell out of an exploration's ranking — the typed
/// record behind [`ExploreCoverage::skips`]. Every variant carries the
/// spec's identity (strategy spec string + architecture name); `Display`
/// renders the same `"<strategy> on <arch>: <reason>"` lines the coverage
/// report always printed, so the accounting is no longer stringly-typed
/// without changing a byte of CLI output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipReason {
    /// The partitioner reported the spec infeasible (no partitioning under
    /// the cap, memory too small, solver budget exhausted).
    Infeasible {
        /// Strategy spec (e.g. `"ilp"`, `"list+kl"`).
        strategy: String,
        /// Architecture name.
        arch: String,
        /// The partitioner's error rendering.
        detail: String,
    },
    /// The strategy produced a design that failed architecture validation.
    Invalid {
        /// Strategy spec.
        strategy: String,
        /// Architecture name.
        arch: String,
        /// The violation list rendering.
        detail: String,
    },
    /// One rounding's fission analysis found the board memory too small.
    Fission {
        /// Strategy spec.
        strategy: String,
        /// Architecture name.
        arch: String,
        /// The fission error rendering.
        detail: String,
    },
    /// The [`sparcs_analyze`] pre-pass proved the spec infeasible before
    /// any solve was launched.
    Static {
        /// Strategy spec.
        strategy: String,
        /// Architecture name.
        arch: String,
        /// The convicting analyzer rule id (see [`sparcs_analyze::rules`]).
        rule: &'static str,
        /// The certified bound versus the limit it exceeds.
        detail: String,
    },
}

impl SkipReason {
    /// The convicting analyzer rule id, for [`SkipReason::Static`] skips.
    pub fn rule(&self) -> Option<&'static str> {
        match self {
            SkipReason::Static { rule, .. } => Some(rule),
            _ => None,
        }
    }

    /// The strategy spec this skip belongs to.
    pub fn strategy(&self) -> &str {
        match self {
            SkipReason::Infeasible { strategy, .. }
            | SkipReason::Invalid { strategy, .. }
            | SkipReason::Fission { strategy, .. }
            | SkipReason::Static { strategy, .. } => strategy,
        }
    }
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::Infeasible {
                strategy,
                arch,
                detail,
            }
            | SkipReason::Invalid {
                strategy,
                arch,
                detail,
            }
            | SkipReason::Fission {
                strategy,
                arch,
                detail,
            } => write!(f, "{strategy} on {arch}: {detail}"),
            SkipReason::Static {
                strategy,
                arch,
                rule,
                detail,
            } => write!(
                f,
                "{strategy} on {arch}: statically pruned [{rule}]: {detail}"
            ),
        }
    }
}

/// What one candidate spec (strategy × architecture × cap) contributed.
#[derive(Default)]
struct SpecOutcome {
    candidates: Vec<ExploredCandidate>,
    /// The partitioner reported the spec infeasible.
    skipped_infeasible: bool,
    /// The partitioning failed architecture validation.
    skipped_invalid: bool,
    /// The static pre-pass convicted the spec before any solve.
    skipped_static: bool,
    /// Roundings whose fission analysis found the memory too small.
    skipped_fission: usize,
    /// Typed reasons for everything skipped above, labelled with the spec
    /// (for [`ExploreCoverage::skips`]).
    skips: Vec<SkipReason>,
}

/// Evaluates one spec: partition (through the cache), validate, then fan
/// the rounding × sequencing grid out over the one analyzed design —
/// everything downstream shares it through [`Arc`] instead of cloning.
fn evaluate_spec(
    ctx: &DesignContext,
    analysis: &Analysis,
    strategy: &dyn PartitionStrategy,
    max_partitions: Option<u32>,
    space: &ExploreSpace,
    search: &SearchCtx,
) -> Result<SpecOutcome, FlowError> {
    let mut outcome = SpecOutcome::default();
    // Static pre-pass: a solver is never launched on a spec the analyzer
    // proves dead. The analysis ran under the *validation* memory mode —
    // the gate every ranked candidate must clear — so a memory or
    // schedulability conviction means no design of any strategy could have
    // survived, and a partition-count conviction (judged against this
    // spec's cap) means the exact solver could only have proven
    // infeasibility the slow way.
    let cap = max_partitions.or(strategy.partition_cap());
    if let Some(rule) = analysis.static_verdict(cap) {
        let detail = match rule {
            sparcs_analyze::rules::PARTITION_COUNT_BOUND => format!(
                "partition-count lower bound {} exceeds the cap {}",
                analysis.partition_count_lb,
                cap.map_or_else(|| "-".into(), |c| c.to_string()),
            ),
            sparcs_analyze::rules::MEMORY_BOUND => format!(
                "boundary-memory lower bound {} words exceeds the board's {}",
                analysis.memory_lb_words, analysis.board_memory_words,
            ),
            _ => "a task exceeds the device capacity at every partition count".into(),
        };
        outcome.skipped_static = true;
        outcome.skips.push(SkipReason::Static {
            strategy: strategy.name(),
            arch: ctx.arch.name.clone(),
            rule,
            detail,
        });
        return Ok(outcome);
    }
    let design = match partition_cached(ctx, strategy, space.cache.as_deref(), search) {
        Ok(design) => design,
        Err(e) if e.is_infeasible() => {
            outcome.skipped_infeasible = true;
            outcome.skips.push(SkipReason::Infeasible {
                strategy: strategy.name(),
                arch: ctx.arch.name.clone(),
                detail: e.to_string(),
            });
            return Ok(outcome);
        }
        Err(e) => return Err(e),
    };
    // A strategy may be memory- or precedence-blind; exploration only
    // ranks designs that validate — and the violation list names which
    // feasibility condition broke.
    let violations = design
        .partitioning
        .validate(&ctx.graph, &ctx.arch, space.memory_mode);
    if !violations.is_empty() {
        outcome.skipped_invalid = true;
        outcome.skips.push(SkipReason::Invalid {
            strategy: strategy.name(),
            arch: ctx.arch.name.clone(),
            detail: FlowError::Infeasible(violations).to_string(),
        });
        return Ok(outcome);
    }
    for &rounding in &space.roundings {
        let fission = match FissionAnalysis::analyze(
            &ctx.graph,
            &design.partitioning,
            &design.partition_delays_ns,
            &ctx.arch,
            rounding,
        ) {
            Ok(fission) => Arc::new(fission),
            Err(e) => {
                let e = FlowError::from(e);
                if e.is_infeasible() {
                    outcome.skipped_fission += 1;
                    outcome.skips.push(SkipReason::Fission {
                        strategy: strategy.name(),
                        arch: ctx.arch.name.clone(),
                        detail: e.to_string(),
                    });
                    continue;
                }
                return Err(e);
            }
        };
        for &sequencing in &space.sequencings {
            for &workload in &space.workloads {
                let total_ns = candidate_total_ns(&fission, sequencing, workload);
                outcome.candidates.push(ExploredCandidate {
                    strategy: strategy.name(),
                    arch: ctx.arch.name.clone(),
                    max_partitions,
                    rounding,
                    sequencing,
                    workload,
                    partition_count: design.partitioning.partition_count(),
                    k: fission.k,
                    latency_ns: design.latency_ns,
                    total_ns,
                    design: Arc::clone(&design),
                    fission: Arc::clone(&fission),
                });
            }
        }
    }
    Ok(outcome)
}

/// Total execution time of a fissioned design for `workload` computations
/// under a sequencing strategy — IDH uses the overlapped-transfer model, as
/// the paper's Table 2 does. The single cost model behind both
/// [`AnalyzedFlow::total_time_ns`] and exploration ranking.
fn candidate_total_ns(
    fission: &FissionAnalysis,
    sequencing: SequencingStrategy,
    workload: u64,
) -> u64 {
    match sequencing {
        SequencingStrategy::Fdh => fission.total_time_ns(SequencingStrategy::Fdh, workload),
        SequencingStrategy::Idh => fission.idh_total_time_overlapped_ns(workload),
    }
}

/// Stage 2: a partitioned design, still attached to its context.
#[derive(Debug, Clone)]
pub struct PartitionedFlow<'a> {
    ctx: &'a DesignContext,
    /// The partitioning plus its latency numbers.
    pub design: PartitionedDesign,
    /// Spec of the strategy that produced it (e.g. `"list+kl"`).
    pub strategy: String,
}

impl<'a> PartitionedFlow<'a> {
    /// Rewrites the assignment (e.g. to canonicalize symmetric solutions)
    /// and recomputes delays and latency so the stage stays consistent.
    /// Solver stats (including the optimality claim) carry over unchanged —
    /// valid when the rewrite only permutes tasks within symmetry groups,
    /// which is the intended use.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Graph`] if the rewritten assignment breaks the
    /// delay computation (not a DAG-shaped assignment).
    pub fn map_partitioning(
        self,
        rewrite: impl FnOnce(&DesignContext, Partitioning) -> Partitioning,
    ) -> Result<Self, FlowError> {
        let partitioning = rewrite(self.ctx, self.design.partitioning);
        let mut design = design_from_partitioning(self.ctx, partitioning)?;
        design.stats = self.design.stats;
        Ok(PartitionedFlow { design, ..self })
    }

    /// Runs the independent certifier ([`sparcs_audit::audit_design`])
    /// over this stage's design: every embedded number (per-partition
    /// delays, their sum, the latency) and every feasibility condition
    /// (precedence, resources, boundary memory under `mode`) is re-derived
    /// from the graph and architecture with no shared code with the
    /// producing solver, and every disagreement comes back as a
    /// [`sparcs_audit::Diagnostic`]. Error-severity diagnostics mean the
    /// producer mis-reported its own design (a bug); warning-severity ones
    /// mean an architecture-infeasible design (an expected outcome for
    /// capacity-blind heuristics, also caught by [`Self::validate`]).
    pub fn certify(&self, mode: MemoryMode) -> Vec<sparcs_audit::Diagnostic> {
        sparcs_audit::audit_design(&self.ctx.graph, &self.ctx.arch, &self.design, mode)
    }

    /// The mandatory certification gate every
    /// [`FlowSession::partition_with_search`]-family entry point passes
    /// its stage through: error-class diagnostics (internal inconsistency
    /// — the strategy lied about its own design) become
    /// [`FlowError::Certification`]; warnings (architecture feasibility)
    /// pass through to the existing [`Self::validate`] /
    /// [`Self::require_valid`] machinery, which decides per call site
    /// whether a capacity-blind heuristic's oversized design is a skipped
    /// candidate or an error.
    fn certified(self, mode: MemoryMode) -> Result<Self, FlowError> {
        let diags = self.certify(mode);
        if sparcs_audit::has_errors(&diags) {
            return Err(FlowError::Certification(diags));
        }
        Ok(self)
    }

    /// Checks the partitioning against the architecture.
    pub fn validate(&self, mode: MemoryMode) -> Vec<Violation> {
        self.design
            .partitioning
            .validate(&self.ctx.graph, &self.ctx.arch, mode)
    }

    /// Like [`Self::validate`], but errors with the kept violation list
    /// ([`FlowError::Infeasible`], an infeasible-class error) when any
    /// feasibility condition breaks — so callers can both gate on validity
    /// and report *which* constraint was broken.
    ///
    /// # Errors
    ///
    /// [`FlowError::Infeasible`] carrying every violation found.
    pub fn require_valid(self, mode: MemoryMode) -> Result<Self, FlowError> {
        let violations = self.validate(mode);
        if violations.is_empty() {
            Ok(self)
        } else {
            Err(FlowError::Infeasible(violations))
        }
    }

    /// Stage 3 with the default exact block rounding.
    ///
    /// # Errors
    ///
    /// See [`FlowError::Fission`].
    pub fn analyze(self) -> Result<AnalyzedFlow<'a>, FlowError> {
        self.analyze_with(BlockRounding::Exact)
    }

    /// Stage 3: the loop-fission analysis (`k`, memory blocks, FDH/IDH
    /// timing models).
    ///
    /// # Errors
    ///
    /// See [`FlowError::Fission`].
    pub fn analyze_with(self, rounding: BlockRounding) -> Result<AnalyzedFlow<'a>, FlowError> {
        let fission = FissionAnalysis::analyze(
            &self.ctx.graph,
            &self.design.partitioning,
            &self.design.partition_delays_ns,
            &self.ctx.arch,
            rounding,
        )?;
        Ok(AnalyzedFlow {
            ctx: self.ctx,
            design: self.design,
            fission,
            strategy: self.strategy,
        })
    }
}

/// Stage 3: a partitioned design with its loop-fission analysis.
#[derive(Debug, Clone)]
pub struct AnalyzedFlow<'a> {
    ctx: &'a DesignContext,
    /// The partitioning plus its latency numbers.
    pub design: PartitionedDesign,
    /// The fission analysis (`k`, block geometry, strategies).
    pub fission: FissionAnalysis,
    /// Spec of the strategy that produced the partitioning.
    pub strategy: String,
}

impl AnalyzedFlow<'_> {
    /// The context this design was synthesized for.
    pub fn context(&self) -> &DesignContext {
        self.ctx
    }

    /// Total execution time for `workload` computations under a sequencing
    /// strategy (IDH uses the overlapped-transfer model, as the paper's
    /// Table 2 does).
    pub fn total_time_ns(&self, sequencing: SequencingStrategy, workload: u64) -> u64 {
        candidate_total_ns(&self.fission, sequencing, workload)
    }

    /// The cheaper sequencing strategy for `workload` computations, judged
    /// by the same models [`Self::total_time_ns`] reports — so the
    /// recommendation always agrees with the numbers printed next to it.
    /// (The paper's §2.2 overhead criterion lives in
    /// [`FissionAnalysis::choose_strategy`]; it compares *serialized* IDH
    /// transfers and can disagree with the overlapped totals.)
    pub fn choose_sequencing(&self, workload: u64) -> SequencingStrategy {
        if self.total_time_ns(SequencingStrategy::Idh, workload)
            <= self.total_time_ns(SequencingStrategy::Fdh, workload)
        {
            SequencingStrategy::Idh
        } else {
            SequencingStrategy::Fdh
        }
    }

    /// Stage 4: the generated host sequencer code.
    pub fn host_code(&self, sequencing: SequencingStrategy) -> String {
        codegen::host_code(&self.fission, sequencing)
    }

    /// Lifts the analyzed design to an *executable* [`RtrDesign`] for the
    /// simulated board: one configuration per temporal partition, with the
    /// fission analysis' exact block geometry (so simulated timings agree
    /// with the analytic models) and the graph's per-partition I/O widths
    /// from [`partition_io`]. Task graphs carry no behaviour, so each
    /// partition gets a deterministic *mixing* kernel — a pure function of
    /// its input words — which keeps streamed and materialized executions
    /// bit-comparable without pretending to know the application's math.
    /// Each configuration carries the kernel twice: the scalar reference
    /// and a lane-parallel batch form doing the same arithmetic per lane.
    ///
    /// # Errors
    ///
    /// [`FlowError::NotExecutable`] when the graph has no environment
    /// inputs or outputs to stream, or a partition moves no data.
    pub fn executable_design(&self) -> Result<RtrDesign, FlowError> {
        let g = &self.ctx.graph;
        let io = partition_io(g, &self.design.partitioning);
        let primary: u64 = g.env_inputs().map(|(_, port)| port.words).sum();
        if primary == 0 {
            return Err(FlowError::NotExecutable(
                "graph has no environment inputs to stream".into(),
            ));
        }
        if io.iter().map(|p| p.env_out).sum::<u64>() == 0 {
            return Err(FlowError::NotExecutable(
                "graph has no environment outputs to stream".into(),
            ));
        }
        const MIX_SEED: u64 = 0xD6E8_FEB8_6659_FD93;
        let mut configurations = Vec::with_capacity(io.len());
        let mut history_len = primary;
        for (i, pio) in io.iter().enumerate() {
            let (in_w, out_w) = (pio.input_words(), pio.output_words());
            if in_w + out_w == 0 {
                return Err(FlowError::NotExecutable(format!(
                    "partition {} moves no data",
                    i + 1
                )));
            }
            // Input selector: environment words come from the primary
            // region, crossing words from earlier partitions' output
            // regions (cycling — word-level provenance is below the task
            // graph's resolution, and only the *counts* carry timing).
            let prior_out = history_len - primary;
            let mut selector = Vec::with_capacity(in_w as usize);
            selector.extend((0..pio.env_in).map(|j| (j % primary) as u32));
            selector.extend((0..pio.cross_in).map(|j| {
                if prior_out > 0 {
                    (primary + (j % prior_out)) as u32
                } else {
                    (j % primary) as u32
                }
            }));
            let kernel = move |ins: &[i32], out: &mut [i32]| {
                let mut acc = MIX_SEED ^ ins.len() as u64;
                for &v in ins {
                    acc = splitmix64(acc ^ u64::from(v as u32));
                }
                for (j, o) in out.iter_mut().enumerate() {
                    *o = splitmix64(acc ^ j as u64) as i32;
                }
            };
            // The same mix with lanes innermost: one accumulator per lane,
            // so the serial chain of one computation runs across lanes.
            let batch_kernel =
                move |lanes: usize, ins: &[i32], outs: &mut [i32], _: &mut Vec<i32>| {
                    let mut acc = [MIX_SEED ^ in_w; MAX_BATCH_LANES];
                    let acc = &mut acc[..lanes];
                    for row in ins.chunks_exact(lanes) {
                        for (a, &v) in acc.iter_mut().zip(row) {
                            *a = splitmix64(*a ^ u64::from(v as u32));
                        }
                    }
                    for (j, row) in outs.chunks_exact_mut(lanes).enumerate() {
                        for (o, &a) in row.iter_mut().zip(&*acc) {
                            *o = splitmix64(a ^ j as u64) as i32;
                        }
                    }
                };
            configurations.push(
                Configuration::new(
                    format!("P{}", i + 1),
                    self.design.partition_delays_ns[i],
                    selector,
                    out_w,
                    kernel,
                )
                .with_batch_kernel(batch_kernel)
                .with_block_words(self.fission.block_words[i]),
            );
            history_len += out_w;
        }
        // Design outputs: each partition's environment-output words, taken
        // from the head of its output region.
        let mut output_selector = Vec::new();
        let mut region = primary;
        for pio in &io {
            output_selector.extend((0..pio.env_out).map(|j| (region + j) as u32));
            region += pio.output_words();
        }
        Ok(RtrDesign::new(
            configurations,
            primary,
            output_selector,
            self.fission.k,
        ))
    }

    /// The single-configuration baseline equivalent of
    /// [`Self::executable_design`]: the whole pipeline as one kernel with
    /// the design's summed per-computation delay.
    ///
    /// # Errors
    ///
    /// See [`Self::executable_design`].
    pub fn static_equivalent(&self) -> Result<StaticDesign, FlowError> {
        Ok(self.executable_design()?.to_static())
    }

    /// Streams a workload through the executable design on the simulated
    /// board under `sequencing`, pulling whole `k`-computation batches from
    /// `source` and pushing results into `sink` — host memory stays bounded
    /// by `min(k, I)` slots of the design's blocks, never by the workload
    /// size.
    /// Returns the incrementally accumulated [`TimeReport`], identical to
    /// what the materializing `sparcs_rtr::run_*` wrappers report for the
    /// same workload.
    ///
    /// # Errors
    ///
    /// [`FlowError::NotExecutable`] when the design cannot be lifted (see
    /// [`Self::executable_design`]); [`FlowError::Host`] on board-level
    /// failures (memory budget, input shape).
    pub fn run(
        &self,
        sequencing: SequencingStrategy,
        source: &mut dyn InputSource,
        sink: &mut dyn OutputSink,
    ) -> Result<TimeReport, FlowError> {
        let design = self.executable_design()?;
        let report = match sequencing {
            SequencingStrategy::Fdh => FdhSequencer::new(&self.ctx.arch, &design).run(source, sink),
            SequencingStrategy::Idh => IdhSequencer::new(&self.ctx.arch, &design).run(source, sink),
        }?;
        Ok(report)
    }

    /// Streams a workload through the *static* baseline equivalent — the
    /// comparison row every paper table carries, behind the same
    /// source/sink interface as [`Self::run`].
    ///
    /// # Errors
    ///
    /// See [`Self::run`].
    pub fn run_static_baseline(
        &self,
        source: &mut dyn InputSource,
        sink: &mut dyn OutputSink,
    ) -> Result<TimeReport, FlowError> {
        let design = self.static_equivalent()?;
        Ok(StaticSequencer::new(&self.ctx.arch, &design).run(source, sink)?)
    }
}

/// The candidate space [`FlowSession::explore`] walks.
pub struct ExploreSpace {
    /// Workloads (total computations `I`) the candidates are ranked for —
    /// one candidate per entry per design point, so a single exploration
    /// answers "which design wins at every scale" (the ROADMAP's workload
    /// grid). Candidates are grouped by workload in the ranking; see
    /// [`Exploration::best_for`].
    pub workloads: Vec<u64>,
    /// Block roundings to try (varies the fission `k`).
    pub roundings: Vec<BlockRounding>,
    /// Host sequencing strategies to evaluate.
    pub sequencings: Vec<SequencingStrategy>,
    /// Memory mode used to validate candidates.
    pub memory_mode: MemoryMode,
    /// Whether the built-in exact ILP partitioner is a candidate.
    pub include_ilp: bool,
    /// Whether the built-in list heuristic is a candidate.
    pub include_list: bool,
    /// Additional built-in candidates named by strategy *spec* (the
    /// [`crate::strategy::parse_spec`] grammar: `"list+kl"`,
    /// `"memlist+anneal"`, `"portfolio"`, …), each resolved against
    /// [`Self::ilp_options`]. Empty by default.
    pub specs: Vec<String>,
    /// Wall-clock budget for the whole exploration: every candidate's
    /// search shares one deadline fixed when [`FlowSession::explore`]
    /// starts. Cooperative strategies return their best design so far at
    /// the deadline; candidates stopped before finding anything are
    /// skipped (and counted) like any other infeasible candidate. Budgeted
    /// explorations bypass the partition cache — how far a bounded search
    /// gets is not a pure function of the problem — and are *not*
    /// run-to-run deterministic.
    pub budget: Option<Duration>,
    /// Extra strategies beyond the built-in ILP + list pair.
    pub extra_strategies: Vec<Box<dyn PartitionStrategy>>,
    /// Partitioner options shared by the built-in ILP candidates.
    pub ilp_options: PartitionOptions,
    /// Partition-bound caps swept for the built-in ILP candidates: one ILP
    /// candidate per entry, with `None` meaning "no explicit cap" (the
    /// [`ExploreSpace::ilp_options`] cap, usually the task count). An empty
    /// list behaves like `vec![None]`. The cap trades solution quality
    /// against reconfiguration count — a first-class exploration axis.
    pub max_partitions: Vec<Option<u32>>,
    /// Target boards to rank across — one full candidate grid per entry, so
    /// a single exploration answers "which board wins for this workload"
    /// (the paper's §4 XC6000 conjecture as an axis). Empty means the
    /// session's own architecture.
    pub architectures: Vec<Architecture>,
    /// Worker threads evaluating candidates (≤ 1 = serial). The ranking is
    /// identical for every value. Defaults to [`default_explore_jobs`].
    pub jobs: u32,
    /// Partition cache consulted per candidate; `None` disables caching.
    /// Defaults to the process-wide [`PartitionCache::global_handle`].
    pub cache: Option<Arc<PartitionCache>>,
}

impl ExploreSpace {
    /// The default space for a workload: ILP and list partitioners, both
    /// block roundings, both sequencing strategies, on the session's own
    /// architecture, cached, with [`default_explore_jobs`] workers.
    pub fn for_workload(workload: u64) -> Self {
        Self::for_workloads(vec![workload])
    }

    /// The default space ranked across a whole workload grid — one
    /// candidate per `I` value per design point, in a single exploration.
    pub fn for_workloads(workloads: Vec<u64>) -> Self {
        ExploreSpace {
            workloads,
            roundings: vec![BlockRounding::Exact, BlockRounding::PowerOfTwo],
            sequencings: vec![SequencingStrategy::Fdh, SequencingStrategy::Idh],
            memory_mode: MemoryMode::Net,
            include_ilp: true,
            include_list: true,
            specs: Vec::new(),
            budget: None,
            extra_strategies: Vec::new(),
            ilp_options: PartitionOptions::default(),
            max_partitions: vec![None],
            architectures: Vec::new(),
            jobs: default_explore_jobs(),
            cache: Some(PartitionCache::global_handle()),
        }
    }

    /// The widened space the ROADMAP asks for: everything
    /// [`Self::for_workload`] enables *plus* a partition-cap sweep and the
    /// three preset boards (XC4044/WildForce, the §4 XC6000 conjecture, a
    /// time-multiplexed device), ranked in one exploration.
    pub fn widened(workload: u64) -> Self {
        ExploreSpace {
            max_partitions: vec![None, Some(2), Some(4)],
            architectures: vec![
                Architecture::xc4044_wildforce(),
                Architecture::xc6200_fast_reconfig(),
                Architecture::time_multiplexed(),
            ],
            ..Self::for_workload(workload)
        }
    }

    /// The built-in strategies this space enables, each with the partition
    /// cap it reports under.
    ///
    /// # Errors
    ///
    /// [`FlowError::Spec`] when an entry of [`Self::specs`] does not
    /// parse.
    fn builtin_strategies(&self) -> Result<Vec<BuiltinStrategy>, FlowError> {
        let mut builtins: Vec<BuiltinStrategy> = Vec::new();
        if self.include_ilp {
            let caps: &[Option<u32>] = if self.max_partitions.is_empty() {
                &[None]
            } else {
                &self.max_partitions
            };
            for &cap in caps {
                let mut options = self.ilp_options.clone();
                // Report the *effective* cap (axis value, else the shared
                // options cap) so candidates never look uncapped when the
                // solver was in fact bounded.
                let effective = cap.or(options.max_partitions);
                options.max_partitions = effective;
                builtins.push((Box::new(IlpStrategy::with_options(options)), effective));
            }
        }
        if self.include_list {
            // The heuristic ignores the cap axis: one candidate.
            builtins.push((Box::new(ListStrategy::new()), None));
        }
        for spec in &self.specs {
            builtins.push((crate::strategy::parse_spec(spec, &self.ilp_options)?, None));
        }
        Ok(builtins)
    }
}

/// The default exploration worker count: the machine's available
/// parallelism, or 1 when it is unknown.
pub fn default_explore_jobs() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| u32::try_from(n.get()).unwrap_or(u32::MAX))
}

/// Short stable label for a block rounding (exploration tables).
pub fn rounding_label(rounding: BlockRounding) -> &'static str {
    match rounding {
        BlockRounding::Exact => "exact",
        BlockRounding::PowerOfTwo => "pow2",
    }
}

/// One evaluated point of an exploration.
#[derive(Debug, Clone)]
pub struct ExploredCandidate {
    /// Partitioning strategy spec (the full compose chain, e.g.
    /// `"list+kl"`).
    pub strategy: String,
    /// Name of the architecture this candidate targets.
    pub arch: String,
    /// The effective partition-bound cap this candidate was solved under
    /// (the sweep-axis value, else the space's shared options cap; `None`
    /// = genuinely uncapped).
    pub max_partitions: Option<u32>,
    /// Block rounding used by the fission analysis.
    pub rounding: BlockRounding,
    /// Host sequencing strategy.
    pub sequencing: SequencingStrategy,
    /// The workload (total computations `I`) this candidate was ranked for.
    pub workload: u64,
    /// Number of temporal partitions.
    pub partition_count: u32,
    /// Computations per configuration run.
    pub k: u64,
    /// Single-computation design latency `N·CT + Σd` in ns.
    pub latency_ns: u64,
    /// Total execution time for the explored workload in ns.
    pub total_ns: u64,
    /// The partitioned design (shared with every candidate of its spec).
    pub design: Arc<PartitionedDesign>,
    /// The fission analysis (shared with the sequencing siblings).
    pub fission: Arc<FissionAnalysis>,
}

/// How much of the candidate space an exploration actually ranked — the
/// coverage record [`FlowSession::explore`] attaches to its result so a
/// caller can tell "best of everything" from "best of what survived".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExploreCoverage {
    /// Partitioning specs attempted (strategy × architecture × cap).
    pub specs: usize,
    /// Specs that contributed at least one ranked candidate.
    pub ranked_specs: usize,
    /// Specs skipped because the partitioner reported them infeasible.
    pub skipped_infeasible: usize,
    /// Specs skipped because the partitioning failed validation against
    /// the architecture.
    pub skipped_invalid: usize,
    /// Specs the [`sparcs_analyze`] pre-pass proved infeasible before any
    /// solver was launched — the convicting rule id is in [`Self::skips`]
    /// ([`SkipReason::rule`]).
    pub skipped_static: usize,
    /// Per-rounding analyses skipped because the fission analysis found
    /// the board memory too small.
    pub skipped_fission: usize,
    /// Why each skip happened, typed ([`SkipReason`]) and ordered by
    /// candidate-spec position (deterministic for any job count); the
    /// `Display` rendering is the familiar
    /// `"<strategy> on <arch>: <reason>"` line, e.g.
    /// `"… boundary 0 stores 51 words > M_max"`.
    pub skips: Vec<SkipReason>,
}

/// Summed [`SolveStats`] over an exploration's distinct designs
/// (see [`Exploration::solver_totals`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverTotals {
    /// Distinct partitioned designs behind the ranking.
    pub designs: usize,
    /// Branch-and-bound nodes across them.
    pub nodes: usize,
    /// Simplex iterations across them.
    pub pivots: usize,
    /// Cold LP solves across them.
    pub cold_solves: usize,
    /// Summed solver wall time (not elapsed exploration time: candidates
    /// run in parallel and cached designs carry their original solve).
    pub wall: std::time::Duration,
}

/// The ranked result of [`FlowSession::explore`].
#[derive(Debug, Clone)]
pub struct Exploration {
    /// All feasible candidates, best (lowest total time) first.
    pub candidates: Vec<ExploredCandidate>,
    /// How much of the space was ranked versus skipped.
    pub coverage: ExploreCoverage,
}

impl Exploration {
    /// The winning candidate (of the smallest explored workload, when the
    /// space carried a grid — candidates are grouped by workload).
    ///
    /// # Panics
    ///
    /// [`FlowSession::explore`] never returns an empty exploration, but
    /// `candidates` is public — this panics if a caller has drained it.
    pub fn best(&self) -> &ExploredCandidate {
        &self.candidates[0]
    }

    /// The winning candidate for one workload of the grid, or `None` when
    /// that `I` value was not part of the explored space.
    pub fn best_for(&self, workload: u64) -> Option<&ExploredCandidate> {
        self.candidates.iter().find(|c| c.workload == workload)
    }

    /// Aggregate solver statistics across the exploration's *distinct*
    /// partitioning solves (candidates share their design via [`Arc`], so
    /// summing per candidate would overcount each solve once per rounding
    /// x sequencing x workload tuple). Cached designs report the stats of
    /// the run that originally solved them.
    pub fn solver_totals(&self) -> SolverTotals {
        let mut seen: Vec<*const PartitionedDesign> = Vec::new();
        let mut totals = SolverTotals::default();
        for c in &self.candidates {
            let ptr = Arc::as_ptr(&c.design);
            if seen.contains(&ptr) {
                continue;
            }
            seen.push(ptr);
            totals.designs += 1;
            totals.nodes += c.design.stats.nodes;
            totals.pivots += c.design.stats.pivots;
            totals.cold_solves += c.design.stats.cold_solves;
            totals.wall += c.design.stats.wall;
        }
        totals
    }

    /// The distinct workloads present in the ranking, in ranked order.
    pub fn workloads(&self) -> Vec<u64> {
        let mut ws: Vec<u64> = self.candidates.iter().map(|c| c.workload).collect();
        ws.dedup();
        ws
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcs_dfg::{gen, Resources, TaskId};

    fn session() -> FlowSession {
        FlowSession::new(gen::fig4_example(), Architecture::xc4044_wildforce())
    }

    #[test]
    fn stages_compose_end_to_end() {
        let s = session();
        let analyzed = s.partition().unwrap().analyze().unwrap();
        assert!(analyzed.design.partitioning.partition_count() >= 1);
        assert!(analyzed.fission.k >= 1);
        let code = analyzed.host_code(analyzed.choose_sequencing(10_000));
        assert!(code.contains("N_CONFIGS"));
    }

    #[test]
    fn both_builtin_strategies_run_through_the_trait() {
        let s = session();
        for strategy in [&IlpStrategy::new() as &dyn PartitionStrategy, &ListStrategy] {
            let stage = s.partition_with(strategy).unwrap();
            assert_eq!(stage.strategy, strategy.name());
            assert!(stage.design.partitioning.partition_count() >= 1);
        }
    }

    #[test]
    fn ilp_never_loses_to_list_on_latency() {
        let s = session();
        let ilp = s.partition().unwrap();
        let list = s.partition_with(&ListStrategy).unwrap();
        assert!(ilp.design.latency_ns <= list.design.latency_ns);
    }

    #[test]
    fn map_partitioning_recomputes_delays() {
        let s = session();
        let stage = s.partition().unwrap();
        let before = stage.design.partition_delays_ns.clone();
        // The identity rewrite must be a fixpoint.
        let same = stage.map_partitioning(|_, p| p).unwrap();
        assert_eq!(same.design.partition_delays_ns, before);
    }

    #[test]
    fn explore_ranks_by_total_time_and_prefers_idh_at_scale() {
        let s = session();
        let exploration = s.explore(&ExploreSpace::for_workload(1_000_000)).unwrap();
        let best = exploration.best();
        for w in exploration.candidates.windows(2) {
            assert!(w[0].total_ns <= w[1].total_ns, "candidates are ranked");
        }
        assert_eq!(best.sequencing, SequencingStrategy::Idh);
        // The winner is never beaten by any other evaluated candidate.
        assert!(exploration
            .candidates
            .iter()
            .all(|c| c.total_ns >= best.total_ns));
    }

    #[test]
    fn explore_space_narrows_every_axis() {
        let s = session();
        let mut space = ExploreSpace::for_workload(10_000);
        space.include_ilp = false;
        space.roundings = vec![BlockRounding::PowerOfTwo];
        space.sequencings = vec![SequencingStrategy::Fdh];
        let exploration = s.explore(&space).unwrap();
        assert!(!exploration.candidates.is_empty());
        for c in &exploration.candidates {
            assert_eq!(c.strategy, "list");
            assert_eq!(c.rounding, BlockRounding::PowerOfTwo);
            assert_eq!(c.sequencing, SequencingStrategy::Fdh);
        }
    }

    #[test]
    fn workload_grid_ranks_each_workload_separately() {
        let s = session();
        let exploration = s
            .explore(&ExploreSpace::for_workloads(vec![10_000, 1_000_000]))
            .unwrap();
        assert_eq!(exploration.workloads(), vec![10_000, 1_000_000]);
        for w in exploration.workloads() {
            let best = exploration.best_for(w).unwrap();
            assert_eq!(best.workload, w);
            assert!(exploration
                .candidates
                .iter()
                .filter(|c| c.workload == w)
                .all(|c| c.total_ns >= best.total_ns));
        }
        assert!(exploration.best_for(42).is_none());
        // Candidates are grouped by workload and ranked within each group.
        for pair in exploration.candidates.windows(2) {
            assert!(pair[0].workload <= pair[1].workload);
            if pair[0].workload == pair[1].workload {
                assert!(pair[0].total_ns <= pair[1].total_ns);
            }
        }
        assert_eq!(exploration.best().workload, 10_000);
    }

    #[test]
    fn executable_design_matches_fission_geometry() {
        let s = session();
        let analyzed = s.partition().unwrap().analyze().unwrap();
        let d = analyzed.executable_design().unwrap();
        let blocks: Vec<u64> = d.configurations.iter().map(|c| c.block_words).collect();
        assert_eq!(blocks, analyzed.fission.block_words);
        assert_eq!(d.k, analyzed.fission.k);
        assert_eq!(d.delay_per_computation_ns(), analyzed.fission.rtr_delay_ns);
        // The synthetic kernels are pure: one computation is reproducible.
        let ins: Vec<i32> = (0..d.primary_input_words as i32).collect();
        assert_eq!(d.compute_one(&ins), d.compute_one(&ins));
        // And the static equivalent composes the same pipeline.
        let stat = analyzed.static_equivalent().unwrap();
        assert_eq!(stat.input_words, d.primary_input_words);
        assert_eq!(stat.output_words, d.output_words());
        let mut stat_out = vec![0i32; stat.output_words as usize];
        (stat.kernel)(&ins, &mut stat_out);
        assert_eq!(stat_out, d.compute_one(&ins));
    }

    #[test]
    fn graphs_without_environment_io_are_not_executable() {
        use sparcs_dfg::Resources;
        let mut g = sparcs_dfg::TaskGraph::new("no-env");
        let a = g.add_task("a", Resources::clbs(10), 100, 1);
        let b = g.add_task("b", Resources::clbs(10), 100, 1);
        g.add_edge(a, b, 1).unwrap();
        let s = FlowSession::new(g, Architecture::xc4044_wildforce());
        let analyzed = s.partition().unwrap().analyze().unwrap();
        let err = analyzed.executable_design().unwrap_err();
        assert!(matches!(err, FlowError::NotExecutable(_)));
        assert!(!err.is_infeasible());
    }

    #[test]
    fn from_text_round_trips_the_example_graph() {
        let text = parse::to_text(&gen::fig4_example());
        let s = FlowSession::from_text(&text, Architecture::xc4044_wildforce()).unwrap();
        assert_eq!(s.graph().task_count(), gen::fig4_example().task_count());
    }

    /// The comparable identity of a candidate (everything but the shared
    /// design/fission payloads).
    fn ranking(e: &Exploration) -> Vec<(String, String, String, String, u32, u64, u64)> {
        e.candidates
            .iter()
            .map(|c| {
                (
                    c.strategy.to_string(),
                    c.arch.clone(),
                    format!("{:?}", c.rounding),
                    c.sequencing.to_string(),
                    c.partition_count,
                    c.k,
                    c.total_ns,
                )
            })
            .collect()
    }

    #[test]
    fn widened_ranking_is_identical_for_any_jobs_and_cache_state() {
        let s = session();
        let space = |jobs: u32, cache: Option<Arc<PartitionCache>>| {
            let mut space = ExploreSpace::widened(100_000);
            space.jobs = jobs;
            space.cache = cache;
            space
        };
        let baseline = s.explore(&space(1, None)).unwrap();
        assert!(
            baseline.coverage.specs >= 8,
            "widened space: ≥2 caps × ≥2 archs × 2 strategies"
        );
        let cache = Arc::new(PartitionCache::new());
        for jobs in [1, 2, 4] {
            let cached = s.explore(&space(jobs, Some(Arc::clone(&cache)))).unwrap();
            assert_eq!(ranking(&baseline), ranking(&cached), "jobs = {jobs}");
            assert_eq!(baseline.coverage, cached.coverage, "jobs = {jobs}");
        }
        // The cache answered every repeat solve: distinct problems are
        // solved once no matter how many explorations asked.
        let stats = cache.stats();
        assert_eq!(stats.misses as usize, cache.len());
        assert!(stats.hits >= 2 * stats.misses, "2 of 3 runs fully cached");
    }

    #[test]
    fn infeasible_partition_cap_is_statically_pruned() {
        let s = session();
        let mut space = ExploreSpace::for_workload(10_000);
        // fig4's resource lower bound is 2 partitions; a hard cap of 1 is
        // provably infeasible — the analyzer pre-pass must convict it
        // before any solver launches, counted, not fatal and not silent.
        space.max_partitions = vec![Some(1), None];
        let exploration = s.explore(&space).unwrap();
        assert_eq!(exploration.coverage.skipped_static, 1);
        assert_eq!(exploration.coverage.skipped_infeasible, 0);
        assert_eq!(
            exploration.coverage.ranked_specs,
            exploration.coverage.specs - 1
        );
        assert!(exploration
            .candidates
            .iter()
            .all(|c| c.max_partitions != Some(1)));
        // Coverage says *why* the capped spec was skipped — with the
        // convicting analyzer rule id.
        assert_eq!(exploration.coverage.skips.len(), 1);
        let skip = &exploration.coverage.skips[0];
        assert_eq!(
            skip.rule(),
            Some(sparcs_analyze::rules::PARTITION_COUNT_BOUND)
        );
        assert_eq!(skip.strategy(), "ilp");
        let line = skip.to_string();
        assert!(line.contains("statically pruned"), "skip reason: {line}");
        assert!(line.contains("partition-count-bound"), "{line}");
    }

    #[test]
    fn solver_cap_failures_still_count_as_infeasible() {
        // A spec the analyzer cannot convict (cap == the certified lower
        // bound) but the solver proves infeasible anyway must still land in
        // `skipped_infeasible` with the classic reason line — the static
        // pre-pass narrows the solver's work, never rewrites its verdicts.
        use sparcs_dfg::Resources;
        // Two independent 700-CLB tasks + a 700-CLB sink: area bound says
        // ⌈2100/1200⌉ = 2, but no 2-partition split fits (any pair
        // overflows 1200 CLBs — every partition holds exactly one task).
        let mut g = sparcs_dfg::TaskGraph::new("tight");
        let a = g.add_task("a", Resources::clbs(700), 100, 1);
        let b = g.add_task("b", Resources::clbs(700), 100, 1);
        let c = g.add_task("c", Resources::clbs(700), 100, 1);
        g.add_edge(a, c, 1).unwrap();
        g.add_edge(b, c, 1).unwrap();
        let mut arch = Architecture::xc4044_wildforce();
        arch.resources = Resources::clbs(1200);
        let s = FlowSession::new(g, arch);
        let mut space = ExploreSpace::for_workload(10_000);
        space.include_list = false;
        space.max_partitions = vec![Some(2)];
        let err = s.explore(&space).unwrap_err();
        assert!(matches!(err, FlowError::NoFeasibleCandidate));
        // With an uncapped sibling the capped spec's skip is recorded.
        space.max_partitions = vec![Some(2), None];
        let exploration = s.explore(&space).unwrap();
        assert_eq!(exploration.coverage.skipped_infeasible, 1);
        assert_eq!(exploration.coverage.skipped_static, 0);
        let line = exploration.coverage.skips[0].to_string();
        assert!(line.contains("no feasible partitioning"), "{line}");
    }

    struct BrokenStrategy;
    impl PartitionStrategy for BrokenStrategy {
        fn name(&self) -> String {
            "broken".into()
        }
        fn partition(
            &self,
            _ctx: &DesignContext,
            _search: &SearchCtx,
        ) -> Result<PartitionedDesign, FlowError> {
            // A cycle report from a validated DAG can only mean a bug.
            Err(FlowError::Graph(GraphError::Cycle(sparcs_dfg::TaskId(0))))
        }
    }

    #[test]
    fn hard_errors_propagate_instead_of_being_swallowed() {
        let s = session();
        let mut space = ExploreSpace::for_workload(10_000);
        space.extra_strategies = vec![Box::new(BrokenStrategy)];
        let err = s.explore(&space).unwrap_err();
        assert!(matches!(err, FlowError::Graph(GraphError::Cycle(_))));
        assert!(!err.is_infeasible());
    }

    /// Piles every task into partition 0 — resource-infeasible on fig4's
    /// board, so exploration must reject it at validation.
    struct OnePartitionStrategy;
    impl PartitionStrategy for OnePartitionStrategy {
        fn name(&self) -> String {
            "one-partition".into()
        }
        fn partition(
            &self,
            ctx: &DesignContext,
            _search: &SearchCtx,
        ) -> Result<PartitionedDesign, FlowError> {
            let n = ctx.graph.task_count();
            let partitioning =
                Partitioning::new(vec![sparcs_core::partitioning::PartitionId(0); n]);
            design_from_partitioning(ctx, partitioning)
        }
    }

    #[test]
    fn invalid_designs_are_counted_not_ranked() {
        let s = session();
        let mut space = ExploreSpace::for_workload(10_000);
        space.include_ilp = false;
        space.include_list = false;
        space.extra_strategies = vec![Box::new(OnePartitionStrategy)];
        let err = s.explore(&space).unwrap_err();
        assert!(matches!(err, FlowError::NoFeasibleCandidate));
        // With a feasible sibling the invalid spec is recorded in coverage.
        let mut space = ExploreSpace::for_workload(10_000);
        space.include_list = false;
        space.extra_strategies = vec![Box::new(OnePartitionStrategy)];
        let exploration = s.explore(&space).unwrap();
        assert_eq!(exploration.coverage.skipped_invalid, 1);
        assert!(exploration.candidates.iter().all(|c| c.strategy == "ilp"));
        // The skip names the strategy and the violated constraint.
        assert_eq!(exploration.coverage.skips.len(), 1);
        let skip = exploration.coverage.skips[0].to_string();
        assert!(skip.contains("one-partition"), "skip reason: {skip}");
        assert!(skip.contains("exceeds device resources"), "{skip}");
    }

    #[test]
    fn partition_with_cache_matches_uncached() {
        let s = session();
        let cache = PartitionCache::new();
        let strategy = IlpStrategy::new();
        let uncached = s.partition_with(&strategy).unwrap();
        let first = s.partition_with_cache(&strategy, &cache).unwrap();
        let second = s.partition_with_cache(&strategy, &cache).unwrap();
        assert_eq!(
            uncached.design.partitioning.assignment(),
            first.design.partitioning.assignment()
        );
        assert_eq!(first.design.latency_ns, second.design.latency_ns);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    /// The statement key of solving `g` on `arch` with `strategy`.
    fn key_of(g: &TaskGraph, arch: &Architecture, strategy: &dyn PartitionStrategy) -> CacheKey {
        let s = FlowSession::new(g.clone(), arch.clone());
        statement_key(s.context(), strategy).expect("both strategies render a configuration")
    }

    /// A small graph in which field number `change` (if any) differs from
    /// the base graph, and how many fields there are to change.
    fn graph_with_change(change: Option<usize>) -> (TaskGraph, usize) {
        let field = std::cell::Cell::new(0);
        let changed = || {
            field.set(field.get() + 1);
            change == Some(field.get() - 1)
        };
        let num = |base: u64| base + u64::from(changed());
        let text = |base: &str| format!("{base}{}", if changed() { "'" } else { "" });
        let mut g = TaskGraph::new(text("g"));
        for i in 0..3 {
            let resources = Resources::new(num(10), num(2), num(1), num(0));
            g.add_task_kind(
                text(&format!("t{i}")),
                text("T1"),
                resources,
                num(100),
                num(4),
            );
        }
        let src = |base: u32| TaskId(base + u32::from(changed()));
        g.add_edge(src(0), TaskId(2), num(4)).unwrap();
        g.add_edge(TaskId(0), TaskId(1), num(4)).unwrap();
        let (name, words) = (text("x"), num(8));
        let readers = [src(0), TaskId(2)];
        if changed() {
            g.add_env_output(name, words, readers).unwrap();
        } else {
            g.add_env_input(name, words, readers).unwrap();
        }
        let (name, words) = (text("y"), num(4));
        let writers: &[TaskId] = if changed() {
            &[TaskId(1), TaskId(2)]
        } else {
            &[TaskId(2)]
        };
        g.add_env_output(name, words, writers.iter().copied())
            .unwrap();
        (g, field.get())
    }

    #[test]
    fn statement_keys_change_with_every_field_of_graph_board_and_options() {
        let arch = Architecture::xc4044_wildforce();
        let ilp = IlpStrategy::new();
        let (base, fields) = graph_with_change(None);
        assert!(fields >= 20, "{fields} graph fields");
        let mut keys = vec![
            key_of(&base, &arch, &ilp),
            key_of(&base, &arch, &ListStrategy),
        ];
        for i in 0..fields {
            keys.push(key_of(&graph_with_change(Some(i)).0, &arch, &ilp));
        }
        let boards: [fn(&mut Architecture); 9] = [
            |a| a.name.push('\''),
            |a| a.resources.clbs += 1,
            |a| a.resources.flip_flops += 1,
            |a| a.resources.mult_blocks += 1,
            |a| a.resources.bram_words += 1,
            |a| a.memory_words += 1,
            |a| a.memory_word_bits += 1,
            |a| a.reconfig_time_ns += 1,
            |a| a.transfer_ns_per_word += 1,
        ];
        for change in boards {
            let mut a = arch.clone();
            change(&mut a);
            keys.push(key_of(&base, &a, &ilp));
        }
        let options: [fn(&mut PartitionOptions); 11] = [
            |o| o.model.memory_mode = MemoryMode::Edge,
            |o| o.model.path_budget += 1,
            |o| o.model.symmetry_breaking ^= true,
            |o| o.model.declared_symmetry = vec![vec![TaskId(0), TaskId(1)]],
            |o| o.model.density_cuts ^= true,
            |o| o.solve.max_nodes += 1,
            |o| o.solve.max_simplex_iters += 1,
            |o| o.solve.tolerance *= 2.0,
            |o| o.solve.warm_incumbent = Some(vec![0.0]),
            |o| o.solve.root_bound = Some(1.0),
            |o| o.max_partitions = Some(2),
        ];
        for change in options {
            let mut o = PartitionOptions::default();
            change(&mut o);
            keys.push(key_of(&base, &arch, &IlpStrategy::with_options(o)));
        }
        let distinct: std::collections::HashSet<&CacheKey> = keys.iter().collect();
        assert_eq!(
            distinct.len(),
            keys.len(),
            "some change left the key as it was"
        );
    }

    #[test]
    fn statement_keys_of_awkward_names_cannot_alias() {
        // Task (name, kind) pairs that a rendering joining raw strings with
        // spaces, quotes or the key separator would confuse.
        let tasks = [
            ("a 1", "x"),
            ("a", "1 x"),
            ("a\" \"1", "x"),
            ("a", "1\" \"x"),
            ("a\u{1f}", "x"),
            ("a", "\u{1f}x"),
        ];
        let arch = Architecture::xc4044_wildforce();
        let mut keys = Vec::new();
        for graph in ["g", "g 1", "g\u{1f}", "g; tasks 0:"] {
            for (name, kind) in tasks {
                let mut g = TaskGraph::new(graph);
                g.add_task_kind(name, kind, Resources::clbs(1), 1, 1);
                g.add_env_output(name, 1, [TaskId(0)]).unwrap();
                let key = key_of(&g, &arch, &ListStrategy);
                // One separator after each of the four fields, none inside.
                assert_eq!(key.as_str().matches('\u{1f}').count(), 4, "{key:?}");
                keys.push(key);
            }
        }
        let distinct: std::collections::HashSet<&CacheKey> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len());
    }

    #[test]
    fn statement_keys_survive_a_text_round_trip() {
        let dct = sparcs_jpeg::dct_task_graph(sparcs_jpeg::EstimateBackend::PaperCalibrated)
            .expect("the DCT graph builds");
        let arch = Architecture::xc4044_wildforce();
        for g in [
            gen::fig4_example(),
            dct.graph,
            gen::layered(&gen::LayeredConfig::default(), 5),
            gen::scaled(&gen::ScaledConfig::preset(300), 3),
        ] {
            let back = parse::parse(&parse::to_text(&g)).expect("to_text output parses");
            assert_eq!(
                key_of(&back, &arch, &ListStrategy),
                key_of(&g, &arch, &ListStrategy),
                "{}",
                g.name()
            );
        }
    }

    #[test]
    fn cache_keys_differ_across_architectures_and_options() {
        let g = gen::fig4_example();
        let cache = PartitionCache::new();
        let strategy = IlpStrategy::new();
        FlowSession::new(g.clone(), Architecture::xc4044_wildforce())
            .partition_with_cache(&strategy, &cache)
            .unwrap();
        FlowSession::new(g, Architecture::xc6200_fast_reconfig())
            .partition_with_cache(&strategy, &cache)
            .unwrap();
        assert_eq!(cache.len(), 2, "distinct boards, distinct keys");
        assert_eq!(cache.stats().hits, 0);
    }
}
