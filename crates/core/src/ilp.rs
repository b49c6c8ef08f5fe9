//! The ILP temporal-partitioning driver.
//!
//! Implements the paper's *Preprocessing* and *Model Generation and Solution*
//! steps: start from the resource lower bound
//! `N₀ = ⌈ΣR(t) / R_max⌉`, build the model for `N₀`, solve; on infeasibility
//! *"relax the partition bound N by 1, and rebuild and solve the model till
//! we get a solution. The solution obtained is optimal for the given task
//! graph."* The list-based heuristic seeds the branch-and-bound incumbent
//! whenever its result is feasible, and the certified delay-sum bound
//! ([`delay::delay_sum_bound_ns`]) is the root bound of every solve.

use crate::delay;
use crate::list;
use crate::model::{self, DelayMode, ModelBuildError, ModelConfig};
use crate::partitioning::Partitioning;
use crate::search::SearchCtx;
use sparcs_dfg::{GraphError, TaskGraph, TaskId};
use sparcs_estimate::Architecture;
use sparcs_ilp::{SolveError, SolveOptions, Status};
use std::fmt;
use std::time::{Duration, Instant};

/// Options for [`IlpPartitioner`].
#[derive(Debug, Clone, Default)]
pub struct PartitionOptions {
    /// Model-generation configuration (memory mode, cuts, symmetry, paths).
    pub model: ModelConfig,
    /// Branch-and-bound configuration.
    pub solve: SolveOptions,
    /// Hard cap on the partition bound (defaults to the task count).
    pub max_partitions: Option<u32>,
    /// Pin the relaxation loop to the single partition bound `N₀ + offset`
    /// (where `N₀` is the resource lower bound) instead of walking
    /// `N₀..=max`. A portfolio shards the exact solve across candidate
    /// bounds by racing one pinned partitioner per offset — the solution at
    /// offset 0 is the paper's first-feasible (hence optimal) answer
    /// whenever it exists, and offset 1 covers the relaxation concurrently.
    pub bound_offset: Option<u32>,
    /// Start the relaxation loop at `N₀ + offset` instead of `N₀`, still
    /// walking up to the cap (ignored when [`Self::bound_offset`] pins a
    /// single bound). The portfolio's second shard uses 1: the pinned
    /// first shard proves `N₀` while this one covers `N₀+1..=max`, so the
    /// pair still solves every bound the classic loop would.
    pub min_bound_offset: u32,
}

/// Statistics of a successful partitioning run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveStats {
    /// Partition bounds attempted, in order (the last one succeeded).
    pub attempted_n: Vec<u32>,
    /// Branch-and-bound nodes over all attempts.
    pub nodes: usize,
    /// Simplex iterations (pivots + bound flips) over all attempts.
    pub pivots: usize,
    /// Cold (phase-1 capable) LP solves; the warm-started search keeps
    /// this at one per attempted bound unless a basis had to be rebuilt.
    pub cold_solves: usize,
    /// Wall-clock time spent building and solving the models.
    pub wall: Duration,
    /// Whether the final solve proved optimality.
    pub proven_optimal: bool,
    /// Whether the search was cancelled cooperatively (deadline or
    /// [`crate::search::CancelToken`]) and returned its incumbent instead
    /// of a proven optimum.
    pub cancelled: bool,
    /// How delay rows were generated in the final model.
    pub delay_mode: DelayMode,
}

impl Default for SolveStats {
    /// The stats of a design no exact solve produced: nothing attempted,
    /// nothing proven, delays in partition-sum accounting.
    fn default() -> Self {
        SolveStats {
            attempted_n: Vec::new(),
            nodes: 0,
            pivots: 0,
            cold_solves: 0,
            wall: Duration::ZERO,
            proven_optimal: false,
            cancelled: false,
            delay_mode: DelayMode::PartitionSum,
        }
    }
}

impl SolveStats {
    /// Simplex throughput over the whole run: pivots (plus bound flips)
    /// per wall-clock second of model building and solving. Zero for an
    /// instantaneous run rather than a division by zero.
    pub fn pivots_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.pivots as f64 / secs
        } else {
            0.0
        }
    }
}

impl fmt::Display for SolveStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N tried {:?}: {} nodes, {} pivots ({:.0}/s), {} cold solves, {:.3} ms, {}",
            self.attempted_n,
            self.nodes,
            self.pivots,
            self.pivots_per_sec(),
            self.cold_solves,
            self.wall.as_secs_f64() * 1e3,
            if self.proven_optimal {
                "proven optimal"
            } else if self.cancelled {
                "feasible (search cancelled)"
            } else {
                "feasible (budget hit)"
            }
        )
    }
}

/// A temporally partitioned design: the assignment plus its latency numbers.
#[derive(Debug, Clone)]
pub struct PartitionedDesign {
    /// The task→partition assignment.
    pub partitioning: Partitioning,
    /// Per-partition delays `d_p` in ns.
    pub partition_delays_ns: Vec<u64>,
    /// `Σ d_p` in ns (the ILP objective).
    pub sum_delay_ns: u64,
    /// `N·CT + Σ d_p` in ns (the paper's optimality goal, Eq. 8).
    pub latency_ns: u64,
    /// Solver statistics.
    pub stats: SolveStats,
}

impl PartitionedDesign {
    /// Prices `partitioning` on `g` for `arch`: the per-partition delays
    /// `d_p`, their sum, and the latency `N·CT + Σ d_p` (Eq. 8). Every
    /// design, exact or heuristic, is assembled here.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] if the graph is not a DAG.
    pub fn from_partitioning(
        g: &TaskGraph,
        arch: &Architecture,
        partitioning: Partitioning,
        stats: SolveStats,
    ) -> Result<Self, GraphError> {
        let partition_delays_ns = delay::partition_delays(g, &partitioning)?;
        let sum_delay_ns: u64 = partition_delays_ns.iter().sum();
        let latency_ns =
            u64::from(partitioning.partition_count()) * arch.reconfig_time_ns + sum_delay_ns;
        Ok(PartitionedDesign {
            partitioning,
            partition_delays_ns,
            sum_delay_ns,
            latency_ns,
            stats,
        })
    }
}

impl fmt::Display for PartitionedDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | Σd = {} ns, latency = {} ns",
            self.partitioning, self.sum_delay_ns, self.latency_ns
        )
    }
}

/// Errors from [`IlpPartitioner::partition`].
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// The task graph is invalid (cycle, etc.).
    Graph(GraphError),
    /// A single task exceeds the device and can never be placed.
    TaskTooLarge(TaskId),
    /// No feasible partitioning exists up to the partition cap.
    NoFeasibleSolution {
        /// Largest bound tried.
        tried_up_to: u32,
    },
    /// Model generation failed.
    Model(ModelBuildError),
    /// The MILP solver failed for a reason other than infeasibility.
    Solver(SolveError),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Graph(e) => write!(f, "{e}"),
            PartitionError::TaskTooLarge(t) => {
                write!(f, "task {t} exceeds the device capacity")
            }
            PartitionError::NoFeasibleSolution { tried_up_to } => {
                write!(
                    f,
                    "no feasible partitioning with up to {tried_up_to} partitions"
                )
            }
            PartitionError::Model(e) => write!(f, "{e}"),
            PartitionError::Solver(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<GraphError> for PartitionError {
    fn from(e: GraphError) -> Self {
        PartitionError::Graph(e)
    }
}

impl From<ModelBuildError> for PartitionError {
    fn from(e: ModelBuildError) -> Self {
        PartitionError::Model(e)
    }
}

/// The exact temporal partitioner (paper §2.1).
#[derive(Debug, Clone)]
pub struct IlpPartitioner {
    arch: Architecture,
    opts: PartitionOptions,
}

impl IlpPartitioner {
    /// Creates a partitioner for the given architecture and options.
    pub fn new(arch: Architecture, opts: PartitionOptions) -> Self {
        IlpPartitioner { arch, opts }
    }

    /// The target architecture.
    pub fn architecture(&self) -> &Architecture {
        &self.arch
    }

    /// Partitions `g`, returning the minimum-latency design.
    ///
    /// # Errors
    ///
    /// See [`PartitionError`].
    pub fn partition(&self, g: &TaskGraph) -> Result<PartitionedDesign, PartitionError> {
        self.partition_with_search(g, &SearchCtx::unbounded())
    }

    /// Partitions `g` under a [`SearchCtx`]: [`SearchCtx::stop_requested`]
    /// is the stop signal of every branch-and-bound solve of the relaxation
    /// loop, and is checked between bound attempts. Every solve
    /// starts from [`SolveOptions::root_bound`] tightened with
    /// [`delay::delay_sum_bound_ns`], a pure function of `(g, device)`, so
    /// the search stops the moment an incumbent meets it. A stopped
    /// search returns the best incumbent found so far (with
    /// [`SolveStats::cancelled`] set and `proven_optimal` false), or
    /// [`SolveError::Cancelled`] when it was stopped before finding any
    /// feasible design.
    ///
    /// # Errors
    ///
    /// See [`PartitionError`].
    pub fn partition_with_search(
        &self,
        g: &TaskGraph,
        search: &SearchCtx,
    ) -> Result<PartitionedDesign, PartitionError> {
        g.validate()?;
        // Every task must individually fit the device.
        for (t, task) in g.tasks() {
            if !task.resources.fits_within(&self.arch.resources) {
                return Err(PartitionError::TaskTooLarge(t));
            }
        }
        if g.task_count() == 0 {
            let stats = SolveStats {
                proven_optimal: true,
                delay_mode: DelayMode::ExactPaths { path_count: 0 },
                ..SolveStats::default()
            };
            let empty = Partitioning::new(Vec::new());
            return Ok(PartitionedDesign::from_partitioning(
                g, &self.arch, empty, stats,
            )?);
        }

        // Preprocessing: resource lower bound on N.
        let n0 = g
            .total_resources()
            .min_bins(&self.arch.resources)
            .ok_or_else(|| {
                // Some component has demand but zero capacity; name a task.
                let t = g
                    .tasks()
                    .find(|(_, task)| !task.resources.fits_within(&self.arch.resources))
                    .map(|(t, _)| t)
                    .unwrap_or(TaskId(0));
                PartitionError::TaskTooLarge(t)
            })? as u32;
        let n_max = self.opts.max_partitions.unwrap_or(g.task_count() as u32);
        if n_max < n0 {
            // The cap is documented as hard: a bound below the resource
            // lower bound admits no feasible model, and silently raising it
            // would make capped exploration sweeps lie about their axis.
            return Err(PartitionError::NoFeasibleSolution { tried_up_to: n_max });
        }
        // The model's objective is Σ_p d_p (N·CT is constant per bound), so
        // the delay-sum bound holds at every bound of the loop. u64 ns →
        // f64 objective space is exact: delay sums stay far below 2^53 ns.
        let root_bound = delay::delay_sum_bound_ns(g, &self.arch.resources)? as f64;

        // Warm start from the list heuristic whenever its design is valid.
        let warm = list::partition_list(g, &self.arch).ok().filter(|p| {
            p.validate(g, &self.arch, self.opts.model.memory_mode)
                .is_empty()
        });

        // Bound sharding: a pinned offset solves exactly one bound of the
        // relaxation loop; a floor offset walks the rest of the loop from
        // there (racing portfolios pair the two so every bound is covered
        // concurrently).
        let (n_lo, n_hi) = match self.opts.bound_offset {
            Some(offset) => {
                let n = n0.saturating_add(offset);
                if n > n_max {
                    return Err(PartitionError::NoFeasibleSolution { tried_up_to: n_max });
                }
                (n, n)
            }
            None => {
                let lo = n0.saturating_add(self.opts.min_bound_offset);
                if lo > n_max {
                    return Err(PartitionError::NoFeasibleSolution { tried_up_to: n_max });
                }
                (lo, n_max)
            }
        };

        let t0 = Instant::now();
        // Totals over every attempted bound.
        let mut stats = SolveStats::default();
        // A stopped search with nothing from the solver still has the
        // validated list seed in hand whenever warm-starting was possible —
        // hand that back (flagged cancelled) instead of dying; the seed may
        // use more partitions than the bound being solved (it then never
        // reached the solver as an incumbent), but it is a feasible design.
        let cancelled_fallback = |mut stats: SolveStats| {
            let Some(partitioning) = warm.clone() else {
                return Err(PartitionError::Solver(SolveError::Cancelled));
            };
            stats.wall = t0.elapsed();
            stats.cancelled = true;
            Ok(PartitionedDesign::from_partitioning(
                g,
                &self.arch,
                partitioning,
                stats,
            )?)
        };
        let stop = || search.stop_requested();
        for n in n_lo..=n_hi {
            // Between attempts the loop is a cooperative check point. The
            // first attempt always reaches the solver — it degrades to the
            // warm incumbent on its own when the search is already stopped.
            if n > n_lo && search.stop_requested() {
                return cancelled_fallback(stats);
            }
            stats.attempted_n.push(n);
            let pm = model::build_model(g, &self.arch, n, &self.opts.model)?;
            let mut solve_opts = self.opts.solve.clone();
            solve_opts.tighten_root_bound(root_bound);
            if let Some(w) = warm
                .as_ref()
                .and_then(|p| pm.encode_warm_start(g, p, &self.opts.model))
            {
                solve_opts.warm_incumbent = Some(w);
            }
            match sparcs_ilp::solve(&pm.model, &solve_opts, &stop) {
                Ok(sol) => {
                    stats.nodes += sol.nodes;
                    stats.pivots += sol.pivots;
                    stats.cold_solves += sol.cold_solves;
                    stats.wall = t0.elapsed();
                    stats.proven_optimal = sol.status == Status::Optimal;
                    stats.cancelled = sol.status == Status::Cancelled;
                    stats.delay_mode = pm.delay_mode;
                    let partitioning = pm.decode(&sol);
                    return Ok(PartitionedDesign::from_partitioning(
                        g,
                        &self.arch,
                        partitioning,
                        stats,
                    )?);
                }
                Err(SolveError::Infeasible) => {
                    // Paper: relax the partition bound by 1 and rebuild.
                    continue;
                }
                Err(SolveError::Cancelled) => {
                    // Stopped without a solver incumbent (the list seed may
                    // not encode at this bound); fall back to the seed.
                    return cancelled_fallback(stats);
                }
                Err(e) => return Err(PartitionError::Solver(e)),
            }
        }
        Err(PartitionError::NoFeasibleSolution { tried_up_to: n_hi })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioning::MemoryMode;
    use sparcs_dfg::{gen, Resources};

    fn arch(clbs: u64, mem: u64) -> Architecture {
        let mut a = Architecture::xc4044_wildforce();
        a.resources = Resources::clbs(clbs);
        a.memory_words = mem;
        a
    }

    fn partition(g: &TaskGraph, a: &Architecture) -> PartitionedDesign {
        IlpPartitioner::new(a.clone(), PartitionOptions::default())
            .partition(g)
            .unwrap()
    }

    use sparcs_dfg::TaskGraph;

    #[test]
    fn fig4_two_partitions_with_paper_delays() {
        let g = gen::fig4_example();
        let a = arch(1200, 100);
        let d = partition(&g, &a);
        assert_eq!(d.partitioning.partition_count(), 2);
        assert_eq!(d.partition_delays_ns, vec![400, 300]);
        assert_eq!(d.sum_delay_ns, 700);
        assert_eq!(d.latency_ns, 2 * a.reconfig_time_ns + 700);
        assert!(d.stats.proven_optimal);
        assert_eq!(d.stats.attempted_n, vec![2]);
        assert!(d.partitioning.validate(&g, &a, MemoryMode::Net).is_empty());
    }

    #[test]
    fn single_partition_when_everything_fits() {
        let g = gen::fig4_example();
        let a = arch(2000, 100);
        let d = partition(&g, &a);
        assert_eq!(d.partitioning.partition_count(), 1);
        assert_eq!(d.sum_delay_ns, 700, "critical path");
    }

    #[test]
    fn relaxes_n_when_memory_blocks_the_lower_bound() {
        // Three 100-CLB tasks in a chain with huge intermediate values.
        // Resource bound says 2 partitions (device 200), but memory of 3
        // words forbids the a|bc and ab|c splits through the 50-word value —
        // only the 1-word value may cross: ab|c. Make both values big to
        // force N = 3 infeasible → relax... Actually with both big the graph
        // cannot be split at all and must error. Use one big, one small:
        let mut g = TaskGraph::new("relax");
        let a = g.add_task("a", Resources::clbs(100), 10, 50);
        let b = g.add_task("b", Resources::clbs(100), 10, 1);
        let c = g.add_task("c", Resources::clbs(100), 10, 50);
        g.add_edge(a, b, 50).unwrap();
        g.add_edge(b, c, 1).unwrap();
        let dev = arch(200, 3);
        let d = partition(&g, &dev);
        // Only feasible 2-split: {a,b} | {c} crossing the 1-word value.
        assert_eq!(d.partitioning.partition_count(), 2);
        assert_eq!(
            d.partitioning.partition_of(a),
            d.partitioning.partition_of(b)
        );
        assert!(d
            .partitioning
            .validate(&g, &dev, MemoryMode::Net)
            .is_empty());
    }

    #[test]
    fn task_too_large_is_reported() {
        let g = gen::fig4_example();
        let a = arch(400, 100);
        let err = IlpPartitioner::new(a, PartitionOptions::default())
            .partition(&g)
            .unwrap_err();
        assert!(matches!(err, PartitionError::TaskTooLarge(_)));
    }

    #[test]
    fn no_feasible_solution_when_memory_never_fits() {
        // A chain where every value is bigger than the memory: any split is
        // memory-infeasible, and the whole graph exceeds the device, so no N
        // works.
        let mut g = TaskGraph::new("hopeless");
        let a = g.add_task("a", Resources::clbs(100), 10, 50);
        let b = g.add_task("b", Resources::clbs(100), 10, 50);
        g.add_edge(a, b, 50).unwrap();
        let dev = arch(150, 3);
        let err = IlpPartitioner::new(dev, PartitionOptions::default())
            .partition(&g)
            .unwrap_err();
        assert_eq!(err, PartitionError::NoFeasibleSolution { tried_up_to: 2 });
    }

    #[test]
    fn empty_graph_partitions_trivially() {
        let g = TaskGraph::new("empty");
        let d = partition(&g, &arch(100, 10));
        assert_eq!(d.partitioning.partition_count(), 0);
        assert_eq!(d.latency_ns, 0);
    }

    #[test]
    fn ilp_beats_or_matches_list_heuristic_on_random_graphs() {
        let cfg = gen::LayeredConfig {
            layers: 3,
            min_width: 2,
            max_width: 3,
            ..gen::LayeredConfig::default()
        };
        let mut ilp_strictly_better = 0;
        for seed in 0..8 {
            let g = gen::layered(&cfg, seed);
            let dev = arch(700, 1_000_000);
            let Ok(list_part) = crate::list::partition_list(&g, &dev) else {
                continue;
            };
            let d = partition(&g, &dev);
            let list_delays = crate::delay::partition_delays(&g, &list_part).unwrap();
            let list_latency = list_part.partition_count() as u64 * dev.reconfig_time_ns
                + list_delays.iter().sum::<u64>();
            assert!(
                d.latency_ns <= list_latency,
                "seed {seed}: ilp {} > list {list_latency}",
                d.latency_ns
            );
            if d.latency_ns < list_latency {
                ilp_strictly_better += 1;
            }
        }
        assert!(ilp_strictly_better > 0, "ILP should win at least once");
    }

    #[test]
    fn pinned_bound_offset_solves_exactly_one_bound() {
        let g = gen::fig4_example();
        let a = arch(1200, 100); // resource lower bound: 2 partitions
        let pinned = |offset: u32| {
            IlpPartitioner::new(
                a.clone(),
                PartitionOptions {
                    bound_offset: Some(offset),
                    ..PartitionOptions::default()
                },
            )
            .partition(&g)
        };
        let d0 = pinned(0).unwrap();
        assert_eq!(d0.stats.attempted_n, vec![2]);
        assert_eq!(d0.sum_delay_ns, 700);
        let d1 = pinned(1).unwrap();
        assert_eq!(d1.stats.attempted_n, vec![3]);
        assert!(d1.stats.proven_optimal);
        // An offset beyond the hard cap has nothing to solve.
        let err = IlpPartitioner::new(
            a,
            PartitionOptions {
                bound_offset: Some(1),
                max_partitions: Some(2),
                ..PartitionOptions::default()
            },
        )
        .partition(&g)
        .unwrap_err();
        assert_eq!(err, PartitionError::NoFeasibleSolution { tried_up_to: 2 });
    }

    #[test]
    fn floor_bound_offset_walks_the_rest_of_the_relaxation_loop() {
        let g = gen::fig4_example();
        let a = arch(1200, 100); // resource lower bound: 2 partitions
        let d = IlpPartitioner::new(
            a,
            PartitionOptions {
                min_bound_offset: 1,
                ..PartitionOptions::default()
            },
        )
        .partition(&g)
        .unwrap();
        // The shard starts at N₀+1 = 3 and keeps relaxing like the classic
        // loop would.
        assert_eq!(d.stats.attempted_n[0], 3);
        assert!(d.stats.proven_optimal);
        // A floor beyond the cap has nothing to solve.
        let g2 = gen::fig4_example();
        let err = IlpPartitioner::new(
            arch(1200, 100),
            PartitionOptions {
                min_bound_offset: 2,
                max_partitions: Some(2),
                ..PartitionOptions::default()
            },
        )
        .partition(&g2)
        .unwrap_err();
        assert_eq!(err, PartitionError::NoFeasibleSolution { tried_up_to: 2 });
    }

    #[test]
    fn cancelled_search_returns_the_warm_incumbent() {
        use crate::search::CancelToken;
        // Two chains of 500-CLB tasks on a 1000-CLB device. The list seed
        // {a1,b1}|{a2,b2} (Σd = 600) sits above the 400 ns delay-sum
        // bound, so only the tree search could prove it optimal. (On fig4
        // the seed meets the bound and is proven at node zero.)
        let mut g = TaskGraph::new("two-chains");
        let a1 = g.add_task("a1", Resources::clbs(500), 300, 1);
        let b1 = g.add_task("b1", Resources::clbs(500), 100, 1);
        let a2 = g.add_task("a2", Resources::clbs(500), 100, 1);
        let b2 = g.add_task("b2", Resources::clbs(500), 300, 1);
        g.add_edge(a1, a2, 1).unwrap();
        g.add_edge(b1, b2, 1).unwrap();
        let a = arch(1000, 100);
        let token = CancelToken::new();
        token.cancel();
        // The warm-started solver holds the list incumbent before the first
        // node; a pre-cancelled search must hand it back, flagged.
        let d = IlpPartitioner::new(a.clone(), PartitionOptions::default())
            .partition_with_search(&g, &SearchCtx::unbounded().and_cancel(token))
            .unwrap();
        assert!(d.stats.cancelled);
        assert!(!d.stats.proven_optimal);
        assert!(d.partitioning.validate(&g, &a, MemoryMode::Net).is_empty());
        // Without a valid warm start there is no incumbent to return. On
        // the chain a→b→c the memory-blind list packs {a,b}|{c}, cutting
        // the 50-word value b→c that a 3-word memory cannot hold, so its
        // seed fails validation and the pre-stopped solver starts
        // empty-handed ({a}|{b,c} would cross only a's 1-word value).
        let mut g = TaskGraph::new("heavy-edge");
        let ta = g.add_task("a", Resources::clbs(100), 10, 1);
        let tb = g.add_task("b", Resources::clbs(100), 10, 50);
        let tc = g.add_task("c", Resources::clbs(100), 10, 1);
        g.add_edge(ta, tb, 1).unwrap();
        g.add_edge(tb, tc, 50).unwrap();
        let dev = arch(200, 3);
        let seed = crate::list::partition_list(&g, &dev).unwrap();
        assert!(!seed.validate(&g, &dev, MemoryMode::Net).is_empty());
        let token = CancelToken::new();
        token.cancel();
        let err = IlpPartitioner::new(dev, PartitionOptions::default())
            .partition_with_search(&g, &SearchCtx::unbounded().and_cancel(token))
            .unwrap_err();
        assert_eq!(err, PartitionError::Solver(SolveError::Cancelled));
    }

    #[test]
    fn cancelled_search_falls_back_to_an_unencodable_list_seed() {
        use crate::search::CancelToken;
        // Independent tasks sized 100/60/70/30 on a 130-CLB device: the
        // resource lower bound is 2 (260/130), but the greedy list packs
        // {100},{60,70},{30} — three partitions, so the seed cannot encode
        // into the N = 2 model and the solver starts with no incumbent. A
        // cancelled solve must still return the (feasible) list design.
        let mut g = TaskGraph::new("wasteful-greedy");
        for (name, clbs) in [("a", 100u64), ("b", 60), ("c", 70), ("d", 30)] {
            g.add_task(name, Resources::clbs(clbs), 10, 1);
        }
        let dev = arch(130, 1_000_000);
        let seed = crate::list::partition_list(&g, &dev).unwrap();
        assert_eq!(seed.partition_count(), 3, "greedy wastes a partition");
        let token = CancelToken::new();
        token.cancel();
        let d = IlpPartitioner::new(dev.clone(), PartitionOptions::default())
            .partition_with_search(&g, &SearchCtx::unbounded().and_cancel(token))
            .expect("the list seed is a feasible fallback");
        assert!(d.stats.cancelled);
        assert!(!d.stats.proven_optimal);
        assert_eq!(d.partitioning.assignment(), seed.assignment());
        assert!(d
            .partitioning
            .validate(&g, &dev, MemoryMode::Net)
            .is_empty());
    }
}
