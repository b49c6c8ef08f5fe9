//! Multilevel temporal partitioning: coarsen / solve / uncoarsen.
//!
//! The exact §3 branch-and-bound tops out around a few hundred variables;
//! real DSP dataflow graphs are orders of magnitude bigger. This crate
//! scales the flow the way hybrid-reconfigurable practice does
//! (Galanis et al.): contract the task graph down to a size the exact
//! solver *can* handle, solve there, then project the assignment back up
//! level by level, repairing and improving with gain-sequence KL/FM
//! refinement at each level.
//!
//! The pipeline, per [`partition_multilevel`]:
//!
//! 1. **Coarsen** — [`coarsen::coarsen`] contracts heavy data edges under
//!    a precedence-safe eligibility rule into a [`coarsen::Tower`] of
//!    validated coarse graphs with total projection maps.
//! 2. **Initial solve** — the exact ILP partitions the coarsest graph
//!    when its variable count fits a budget; otherwise the memory-aware
//!    list heuristic seeds the tower.
//! 3. **Uncoarsen** — the assignment is projected down one level at a
//!    time and refined with `sparcs_core::refine::kl_refine_gains`, whose
//!    violation-tolerant gain key also *repairs* projections whose
//!    conservative coarse memory accounting overshot.
//! 4. **Guard** — the result is compared against plain `list` and
//!    memory-aware `list` on the original graph and the best feasible
//!    candidate wins, so multilevel is never worse than the heuristics it
//!    is meant to beat.
//! 5. **Certificate** — the winner is proven optimal when it meets the
//!    latency floor `⌈ΣR(t)/R_max⌉·CT +`
//!    [`sparcs_core::delay::delay_sum_bound_ns`], or when the exact solve
//!    ran on the uncoarsened graph and won.

pub mod coarsen;

use sparcs_core::ilp::{PartitionError, PartitionOptions};
use sparcs_core::list::{partition_list, partition_list_memory_aware};
use sparcs_core::partitioning::MemoryMode;
use sparcs_core::refine::{kl_refine, kl_refine_gains, GainConfig};
use sparcs_core::{IlpPartitioner, PartitionId, Partitioning, SearchCtx};
use sparcs_dfg::{GraphError, TaskGraph, TaskId};
use sparcs_estimate::Architecture;

pub use coarsen::{coarsen, CoarsenConfig, Tower};
use sparcs_core::partitioning::Violation;

/// Use the exact ILP at the coarsest level only while
/// `tasks × (min_bins + 2)` stays within this variable budget; beyond it
/// the memory-aware list heuristic seeds the tower.
const EXACT_VAR_LIMIT: usize = 160;

/// Above this task count a level's refinement caps its scans and restricts
/// moves to adjacent slots, keeping per-level cost near-linear on 10k-node
/// graphs, and the guard's flat candidates go unpolished.
const WIDE_GRAPH_TASKS: usize = 512;

/// Configuration of [`partition_multilevel`]. Every field influences the
/// result, so strategy layers render the whole struct into cache keys.
#[derive(Debug, Clone, PartialEq)]
pub struct MultilevelConfig {
    /// Seed for the deterministic heavy-edge matching tie-break.
    pub seed: u64,
    /// Coarsen until at most this many tasks remain.
    pub coarsest_tasks: usize,
    /// Hard cap on coarsening levels.
    pub max_levels: usize,
    /// Abandon coarsening when a round shrinks less than this ‰.
    pub min_shrink_per_mille: u32,
    /// Boundary-memory accounting mode for every feasibility check.
    pub memory_mode: MemoryMode,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            seed: 0x51ca1e,
            coarsest_tasks: 48,
            max_levels: 24,
            min_shrink_per_mille: 20,
            memory_mode: MemoryMode::Net,
        }
    }
}

/// Errors of [`partition_multilevel`].
#[derive(Debug, Clone, PartialEq)]
pub enum MultilevelError {
    /// The input graph is not a valid DAG.
    Graph(GraphError),
    /// A single task exceeds the device by itself — no partitioning of
    /// any quality can place it.
    TaskTooLarge(TaskId),
    /// No candidate (multilevel, memory-aware list, plain list) produced
    /// a feasible design; the least-violating candidate's diagnostics
    /// are attached.
    Infeasible {
        /// Violations of the best infeasible candidate.
        violations: Vec<Violation>,
    },
}

impl std::fmt::Display for MultilevelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultilevelError::Graph(e) => write!(f, "invalid task graph: {e}"),
            MultilevelError::TaskTooLarge(t) => {
                write!(f, "task {t} exceeds the device resources by itself")
            }
            MultilevelError::Infeasible { violations } => write!(
                f,
                "no feasible multilevel design ({} violations in the best candidate)",
                violations.len()
            ),
        }
    }
}

impl std::error::Error for MultilevelError {}

impl From<GraphError> for MultilevelError {
    fn from(e: GraphError) -> Self {
        MultilevelError::Graph(e)
    }
}

/// Which algorithm produced the coarsest-level seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialSolver {
    /// Exact branch-and-bound ILP (variable budget respected).
    Ilp,
    /// Memory-aware list scheduling (ILP skipped or failed).
    MemList,
    /// Plain list scheduling (memory-aware list failed too).
    List,
}

impl InitialSolver {
    /// Stable lower-case name for reports and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            InitialSolver::Ilp => "ilp",
            InitialSolver::MemList => "memlist",
            InitialSolver::List => "list",
        }
    }
}

/// The result of [`partition_multilevel`]: the partitioning plus the
/// evidence of how it was produced.
#[derive(Debug, Clone)]
pub struct MultilevelOutcome {
    /// The final (feasible) partitioning of the *original* graph.
    pub partitioning: Partitioning,
    /// Levels in the coarsening tower (1 = no coarsening happened).
    pub levels: usize,
    /// Task count of the coarsest graph.
    pub coarsest_tasks: usize,
    /// Which solver seeded the coarsest level.
    pub initial: InitialSolver,
    /// True when the final design provably attains the global optimum:
    /// it uses the minimum possible partition count and its delay sum
    /// meets the delay-sum bound exactly.
    pub proven_optimal: bool,
    /// True when the search budget expired or a cancel was observed —
    /// the result is feasible but refinement may have stopped early.
    pub cancelled: bool,
    /// Name of the guard candidate that won (`"multilevel"`,
    /// `"memlist"` or `"list"`).
    pub winner: &'static str,
}

/// Runs the full coarsen / solve / uncoarsen pipeline on `g`.
///
/// `ilp_opts` configures the coarsest-level exact solve (budget, jobs,
/// warm starts). The `search` context bounds the whole
/// pipeline cooperatively — on stop, the best feasible design found so
/// far is returned with `cancelled = true`.
///
/// # Errors
///
/// [`MultilevelError::Graph`] for a cyclic input,
/// [`MultilevelError::TaskTooLarge`] when a single task cannot fit the
/// device, and [`MultilevelError::Infeasible`] when no candidate design
/// satisfies the feasibility conditions.
pub fn partition_multilevel(
    g: &TaskGraph,
    arch: &Architecture,
    cfg: &MultilevelConfig,
    ilp_opts: &PartitionOptions,
    search: &SearchCtx,
) -> Result<MultilevelOutcome, MultilevelError> {
    g.validate()?;
    for (id, t) in g.tasks() {
        if !t.resources.fits_within(&arch.resources) {
            return Err(MultilevelError::TaskTooLarge(id));
        }
    }
    if g.task_count() == 0 {
        return Ok(MultilevelOutcome {
            partitioning: Partitioning::new(Vec::new()),
            levels: 1,
            coarsest_tasks: 0,
            initial: InitialSolver::List,
            proven_optimal: true,
            cancelled: false,
            winner: "multilevel",
        });
    }

    // 1. Coarsen.
    let tower = coarsen::coarsen(
        g,
        arch,
        &CoarsenConfig {
            coarsest_tasks: cfg.coarsest_tasks,
            max_levels: cfg.max_levels,
            min_shrink_per_mille: cfg.min_shrink_per_mille,
            seed: cfg.seed,
        },
    )?;
    let coarsest = tower.coarsest();

    // 2. Initial solve at the coarsest level.
    let min_bins = coarsest
        .total_resources()
        .min_bins(&arch.resources)
        .unwrap_or(1);
    let vars = coarsest.task_count().saturating_mul(
        usize::try_from(min_bins)
            .unwrap_or(usize::MAX)
            .saturating_add(2),
    );
    let mut cancelled = false;
    // When the tower has a single level the "coarsest" graph IS the input,
    // so an exact coarsest solve carries its optimality proof to the output
    // (nothing is projected or refined afterwards).
    let mut exact_on_original = false;
    let (mut assignment, initial) = if vars <= EXACT_VAR_LIMIT && !search.stop_requested() {
        let mut opts = ilp_opts.clone();
        // A deterministic budget (unlike a wall-clock deadline it cannot
        // make results machine-dependent): past it the solver hands back
        // its incumbent unproven, and the guard still ranks it honestly.
        opts.solve.max_nodes = opts.solve.max_nodes.min(20_000);
        match IlpPartitioner::new(arch.clone(), opts).partition_with_search(coarsest, search) {
            Ok(design) => {
                cancelled |= design.stats.cancelled;
                // A partition cap makes the ILP's proof conditional on the
                // cap; only an uncapped solve proves the global optimum.
                exact_on_original = design.stats.proven_optimal
                    && tower.levels() == 1
                    && ilp_opts.max_partitions.is_none();
                (
                    design.partitioning.assignment().to_vec(),
                    InitialSolver::Ilp,
                )
            }
            Err(PartitionError::Graph(e)) => return Err(MultilevelError::Graph(e)),
            // Infeasible-at-coarse (conservative memory), budget exhausted,
            // solver trouble: fall back to the heuristic seed — the guard
            // at the end keeps the contract honest either way.
            Err(_) => heuristic_seed(coarsest, arch, cfg.memory_mode),
        }
    } else {
        heuristic_seed(coarsest, arch, cfg.memory_mode)
    };

    // 3. Uncoarsen: project down one level at a time and refine.
    for level in (0..tower.maps.len()).rev() {
        let fine = &tower.graphs[level];
        let projected: Vec<PartitionId> = tower.maps[level]
            .iter()
            .map(|&coarse_idx| assignment[coarse_idx])
            .collect();
        let seeded = Partitioning::new(projected);
        let refined = refine_level(fine, arch, cfg, &seeded, search)?;
        // kl_refine_gains compacts, so re-expand to raw slot ids.
        assignment = refined.assignment().to_vec();
        cancelled |= search.stop_requested();
    }

    // 4. Guard: never worse than the plain heuristics on the real graph.
    // Each flat seed gets the same bounded refinement pass the v-cycle
    // levels get, so the ranking compares polished designs with polished
    // designs — the coarsening can only help, never hurt.
    let multilevel = Partitioning::new(assignment);
    let mut candidates: Vec<(&'static str, Partitioning)> = vec![("multilevel", multilevel)];
    if let Ok(p) = partition_list_memory_aware(g, arch, cfg.memory_mode) {
        candidates.push(("memlist", polish(g, arch, cfg, &p, search)?));
    }
    if let Ok(p) = partition_list(g, arch) {
        candidates.push(("list", polish(g, arch, cfg, &p, search)?));
    }
    let mut best: Option<(usize, u64, &'static str, Partitioning)> = None;
    let mut best_violations: Vec<Violation> = Vec::new();
    for (name, p) in candidates {
        let violations = p.validate(g, arch, cfg.memory_mode);
        let cost = sparcs_core::delay::total_latency_ns(g, &p, arch.reconfig_time_ns)?;
        let key = (violations.len(), cost);
        let better = best.as_ref().is_none_or(|(bv, bc, _, _)| key < (*bv, *bc));
        if better {
            best_violations = violations;
            best = Some((key.0, key.1, name, p));
        }
    }
    let Some((violation_count, sum_key, winner, partitioning)) = best else {
        return Err(MultilevelError::Infeasible {
            violations: Vec::new(),
        });
    };
    if violation_count > 0 {
        return Err(MultilevelError::Infeasible {
            violations: best_violations,
        });
    }

    // 5. Optimality certificate: the latency of any feasible design is at
    // least `min_bins(total) · CT + Σ d_p bound`; meeting it exactly
    // proves global optimality.
    let graph_min_bins = g.total_resources().min_bins(&arch.resources).unwrap_or(1);
    let floor = graph_min_bins
        .saturating_mul(arch.reconfig_time_ns)
        .saturating_add(sparcs_core::delay::delay_sum_bound_ns(g, &arch.resources)?);
    let proven_optimal =
        !cancelled && (sum_key == floor || (exact_on_original && winner == "multilevel"));

    Ok(MultilevelOutcome {
        partitioning,
        levels: tower.levels(),
        coarsest_tasks: tower.coarsest().task_count(),
        initial,
        proven_optimal,
        cancelled,
        winner,
    })
}

/// Coarsest-level heuristic seed: memory-aware list, then plain list.
/// Plain list cannot fail here (every coarse task fits the device by the
/// coarsening eligibility rule), but degrade gracefully to a one-slot
/// assignment rather than panicking if it ever does.
fn heuristic_seed(
    g: &TaskGraph,
    arch: &Architecture,
    mode: MemoryMode,
) -> (Vec<PartitionId>, InitialSolver) {
    if let Ok(p) = partition_list_memory_aware(g, arch, mode) {
        return (p.assignment().to_vec(), InitialSolver::MemList);
    }
    if let Ok(p) = partition_list(g, arch) {
        return (p.assignment().to_vec(), InitialSolver::List);
    }
    (vec![PartitionId(0); g.task_count()], InitialSolver::List)
}

/// Below this task count a level affords the exhaustive single-move
/// descent and an uncapped gain scan; above it the scans tier down.
const EXHAUSTIVE_TASKS: usize = 96;

/// A guard candidate's full polish: on small graphs the same
/// `kl_refine` descent + gain-sequence pipeline the `list+kl` strategy
/// chain runs (so the guard can never rank behind it), on wide graphs
/// just the bounded gain pass.
fn polish(
    g: &TaskGraph,
    arch: &Architecture,
    cfg: &MultilevelConfig,
    seed: &Partitioning,
    search: &SearchCtx,
) -> Result<Partitioning, GraphError> {
    if g.task_count() > WIDE_GRAPH_TASKS {
        // On wide graphs the flat candidates are rank-only backstops:
        // refining each would cost as much as the whole v-cycle.
        return Ok(seed.clone());
    }
    let descended = if g.task_count() <= EXHAUSTIVE_TASKS {
        kl_refine(g, arch, cfg.memory_mode, seed, search)?
    } else {
        seed.clone()
    };
    refine_level(g, arch, cfg, &descended, search)
}

/// One uncoarsening level's refinement, with the wide-graph scan caps.
fn refine_level(
    g: &TaskGraph,
    arch: &Architecture,
    cfg: &MultilevelConfig,
    seed: &Partitioning,
    search: &SearchCtx,
) -> Result<Partitioning, GraphError> {
    let tasks = g.task_count();
    let gain = if tasks > WIDE_GRAPH_TASKS {
        // Every gain evaluation costs O(V + E) — milliseconds at 10k
        // tasks — so a wide level bounds evaluations per step, chain
        // length and pass count hard: most of the quality was already
        // won on the cheap coarse levels, the wide levels only polish
        // the boundary.
        GainConfig {
            passes: 2,
            max_chain: 8,
            max_scan: 256,
            adjacent_only: true,
        }
    } else if tasks > EXHAUSTIVE_TASKS {
        // Mid-tower levels still face `tasks × partitions` candidate
        // moves per chain step; capped adjacent-only scanning keeps a
        // pass linear in the boundary while the coarsest levels
        // (≤ 96 tasks) retain the full exhaustive scan.
        GainConfig {
            passes: 4,
            max_chain: 12,
            max_scan: 512,
            adjacent_only: true,
        }
    } else {
        GainConfig::default()
    };
    kl_refine_gains(g, arch, cfg.memory_mode, seed, &gain, search)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcs_core::ilp::PartitionOptions;
    use sparcs_dfg::gen;

    fn run(g: &TaskGraph, arch: &Architecture) -> MultilevelOutcome {
        partition_multilevel(
            g,
            arch,
            &MultilevelConfig::default(),
            &PartitionOptions::default(),
            &SearchCtx::unbounded(),
        )
        .expect("multilevel partitioning")
    }

    #[test]
    fn feasible_on_the_default_layered_graph() {
        let g = gen::layered(&gen::LayeredConfig::default(), 2);
        let arch = Architecture::xc4044_wildforce();
        let out = run(&g, &arch);
        assert!(out
            .partitioning
            .validate(&g, &arch, MemoryMode::Net)
            .is_empty());
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let g = gen::layered(&gen::LayeredConfig::default(), 4);
        let arch = Architecture::xc4044_wildforce();
        let a = run(&g, &arch);
        let b = run(&g, &arch);
        assert_eq!(a.partitioning, b.partitioning);
        assert_eq!(a.winner, b.winner);
    }

    #[test]
    fn empty_graph_is_trivially_optimal() {
        let g = TaskGraph::new("empty");
        let arch = Architecture::xc4044_wildforce();
        let out = run(&g, &arch);
        assert_eq!(out.partitioning.assignment().len(), 0);
        assert!(out.proven_optimal);
    }

    #[test]
    fn oversized_task_is_reported() {
        let mut g = TaskGraph::new("big");
        let t = g.add_task("huge", sparcs_dfg::Resources::clbs(1_000_000), 10, 1);
        let arch = Architecture::xc4044_wildforce();
        let err = partition_multilevel(
            &g,
            &arch,
            &MultilevelConfig::default(),
            &PartitionOptions::default(),
            &SearchCtx::unbounded(),
        )
        .expect_err("must fail");
        assert_eq!(err, MultilevelError::TaskTooLarge(t));
    }

    #[test]
    fn scaled_graph_partitions_feasibly_with_a_roomy_device() {
        // A 600-node scaled graph on a big device: the exact solver could
        // never touch this, the multilevel pipeline must.
        let g = gen::scaled(&gen::ScaledConfig::preset(600), 17);
        let arch = Architecture {
            name: "big".into(),
            resources: sparcs_dfg::Resources::clbs(4_000),
            ..Architecture::xc4044_wildforce()
        };
        let out = run(&g, &arch);
        assert!(out
            .partitioning
            .validate(&g, &arch, MemoryMode::Net)
            .is_empty());
        assert!(out.levels > 1, "600 nodes must coarsen");
    }
}
