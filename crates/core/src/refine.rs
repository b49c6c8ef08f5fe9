//! Iterative refinement of temporal partitionings.
//!
//! The paper's flow picks one partitioner and stops; hybrid-partitioning
//! practice (Galanis et al., Chen et al.) instead *seeds* with a cheap
//! constructive heuristic and improves it with local search. This module
//! implements the two classic passes behind that shape, both operating on a
//! [`Partitioning`] under the full §2.1 feasibility conditions (precedence,
//! per-partition resources, boundary memory — whatever
//! [`Partitioning::validate`] checks):
//!
//! * [`kl_refine`] — a Kernighan–Lin-style steepest-descent pass over
//!   single-task *moves* and pairwise *swaps*; deterministic, monotone.
//! * [`anneal_refine`] — seeded simulated annealing over the same move
//!   neighbourhood with a fixed geometric temperature schedule;
//!   deterministic, and never worse than its input because the best-ever
//!   design is returned.
//!
//! Both passes are *cooperative*: they poll the [`SearchCtx`] between
//! rounds (and inside long scans) and return the best design found so far
//! when stopped. Partition ids order execution in time, so refinement
//! moves tasks across the seed's *existing* temporal slots — it never
//! opens a new partition, but a move may empty one, which
//! [`Partitioning::new`] compacts away: the result can have *fewer*
//! partitions than the seed (that is how refinement can also win back the
//! `N·CT` reconfiguration term).

use crate::delay::total_latency_ns;
use crate::partitioning::{MemoryMode, PartitionId, Partitioning};
use crate::search::SearchCtx;
use rand::{rngs::StdRng, Rng, SeedableRng};
use sparcs_dfg::{GraphError, TaskGraph};
use sparcs_estimate::Architecture;

/// Evaluates an assignment: its compacted partitioning and design latency,
/// or `None` when it violates any feasibility condition.
fn evaluate(
    g: &TaskGraph,
    arch: &Architecture,
    mode: MemoryMode,
    assignment: &[PartitionId],
) -> Option<(u64, Partitioning)> {
    let p = Partitioning::new(assignment.to_vec());
    if !p.validate(g, arch, mode).is_empty() {
        return None;
    }
    let cost = total_latency_ns(g, &p, arch.reconfig_time_ns).ok()?;
    Some((cost, p))
}

/// Steepest-descent rounds of [`kl_refine`] (each applies the single best
/// improving move or swap).
const KL_MAX_ROUNDS: usize = 64;

/// Kernighan–Lin-style refinement: repeatedly applies the single best
/// strictly improving feasible change — moving one task to another
/// partition, or swapping two tasks across partitions — until no change
/// improves the latency, `KL_MAX_ROUNDS` rounds ran, or the search was
/// stopped. The scan order (tasks ascending, targets ascending, swap pairs
/// lexicographic) and the strict-improvement rule make the result
/// deterministic, and the returned partitioning never has higher latency
/// than the seed.
///
/// # Errors
///
/// Returns [`GraphError::Cycle`] if `g` is not a DAG.
pub fn kl_refine(
    g: &TaskGraph,
    arch: &Architecture,
    mode: MemoryMode,
    seed: &Partitioning,
    search: &SearchCtx,
) -> Result<Partitioning, GraphError> {
    let n = seed.partition_count();
    let tasks = g.task_count();
    if n <= 1 || tasks == 0 {
        return Ok(seed.clone());
    }
    let mut best = seed.clone();
    let mut best_cost = total_latency_ns(g, seed, arch.reconfig_time_ns)?;
    let mut assignment = seed.assignment().to_vec();
    // A round scans O(V·N + V²) candidates, each costing a full validate +
    // delay evaluation — far too long between stop checks on big graphs.
    // Poll inside the scan too, every 64 evaluations (same cadence as the
    // annealer); a mid-scan stop abandons the round and returns the best
    // applied state.
    let mut evals = 0u32;
    let mut scan_stopped = |search: &SearchCtx| {
        evals += 1;
        evals.is_multiple_of(64) && search.stop_requested()
    };
    'rounds: for _round in 0..KL_MAX_ROUNDS {
        if search.stop_requested() {
            break;
        }
        let mut round_best: Option<(u64, Vec<PartitionId>)> = None;
        let mut consider = |candidate: &[PartitionId]| {
            if let Some((cost, _)) = evaluate(g, arch, mode, candidate) {
                let improves = cost < round_best.as_ref().map_or(best_cost, |(c, _)| *c);
                if improves {
                    round_best = Some((cost, candidate.to_vec()));
                }
            }
        };
        // Single-task moves.
        let mut candidate = assignment.clone();
        for t in 0..tasks {
            let home = assignment[t];
            for q in 0..n {
                if PartitionId(q) == home {
                    continue;
                }
                if scan_stopped(search) {
                    break 'rounds;
                }
                candidate[t] = PartitionId(q);
                consider(&candidate);
            }
            candidate[t] = home;
        }
        // Pairwise swaps across partitions.
        for a in 0..tasks {
            for b in (a + 1)..tasks {
                if assignment[a] == assignment[b] {
                    continue;
                }
                if scan_stopped(search) {
                    break 'rounds;
                }
                candidate.swap(a, b);
                consider(&candidate);
                candidate.swap(a, b);
            }
        }
        let Some((cost, chosen)) = round_best else {
            break; // local optimum
        };
        assignment = chosen;
        best_cost = cost;
        best = Partitioning::new(assignment.clone());
    }
    Ok(best)
}

/// Scores an assignment for gain-sequence search: the number of
/// feasibility violations plus the design latency, compared
/// lexicographically. Unlike [`evaluate`], infeasible states are ranked
/// rather than discarded — that is what lets a tentative chain pass
/// *through* a violation on its way to a better feasible state, and what
/// lets the pass repair an infeasible seed (a projected coarse
/// assignment whose conservative memory accounting overshot).
fn gain_key(
    g: &TaskGraph,
    arch: &Architecture,
    mode: MemoryMode,
    assignment: &[PartitionId],
) -> Option<(usize, u64)> {
    let p = Partitioning::new(assignment.to_vec());
    let violations = p.validate(g, arch, mode).len();
    let cost = total_latency_ns(g, &p, arch.reconfig_time_ns).ok()?;
    Some((violations, cost))
}

/// Configuration of [`kl_refine_gains`] — the true gain-sequence
/// (Fiduccia–Mattheyses-style) pass that fixes the single-move early
/// exit of [`kl_refine`]: a chain of tentative moves is explored even
/// when individual moves have zero or negative gain, and the best
/// *prefix* of the chain is committed. The default is the full search the
/// `kl` and `fm` strategy passes run; the multilevel pipeline narrows it
/// on large graphs.
#[derive(Debug, Clone, PartialEq)]
pub struct GainConfig {
    /// Maximum commit passes (each explores one tentative chain).
    pub passes: usize,
    /// Tentative moves per chain; each moved task is locked for the rest
    /// of the chain (the classic FM discipline that forces exploration
    /// instead of oscillation).
    pub max_chain: usize,
    /// Candidate evaluations per chain step; `0` scans every candidate.
    /// Large graphs cap the scan so one step costs bounded work — the
    /// scan cursor rotates between steps, so capped scans still cover
    /// the whole task set across a chain.
    pub max_scan: usize,
    /// Restrict moves to temporally adjacent partitions (slot ± 1). On
    /// large graphs almost all gain lives on the boundary between
    /// consecutive slots, and the restriction cuts a factor `N` from
    /// every scan.
    pub adjacent_only: bool,
}

impl Default for GainConfig {
    fn default() -> Self {
        GainConfig {
            passes: 16,
            max_chain: 24,
            max_scan: 0,
            adjacent_only: false,
        }
    }
}

/// True gain-sequence KL/FM refinement: each pass explores a chain of
/// tentative single-task moves — always applying the best available move
/// even when its gain is zero or negative, locking the moved task — and
/// then commits the best *prefix* of the chain, judged by the
/// lexicographic key `(feasibility violations, latency)`. A pass that
/// finds no strictly improving prefix ends the search.
///
/// This is the fix for [`kl_refine`]'s single-move early exit: a
/// steepest-descent pass stops at the first round with no strictly
/// improving single move, even when a *sequence* of moves through
/// zero-gain intermediate states reaches a better design. The chain
/// discipline walks through those plateaus (and through temporarily
/// *infeasible* states), and the best-prefix commit keeps the result
/// monotone: the returned partitioning is never worse than the seed
/// under the same key — in particular a feasible seed stays feasible,
/// and an infeasible seed can only lose violations, never gain any.
///
/// Deterministic (fixed scan order, first-minimum tie break, no RNG);
/// polls the [`SearchCtx`] inside scans and returns the best committed
/// state when stopped. Never opens a new partition.
///
/// # Errors
///
/// Returns [`GraphError::Cycle`] if `g` is not a DAG.
pub fn kl_refine_gains(
    g: &TaskGraph,
    arch: &Architecture,
    mode: MemoryMode,
    seed: &Partitioning,
    cfg: &GainConfig,
    search: &SearchCtx,
) -> Result<Partitioning, GraphError> {
    let n = seed.partition_count();
    let tasks = g.task_count();
    if n <= 1 || tasks == 0 {
        return Ok(seed.clone());
    }
    // Seed key: tolerate an infeasible seed (repair mode) but surface a
    // cyclic graph as the error it is.
    total_latency_ns(g, seed, arch.reconfig_time_ns)?;
    let mut best = seed.assignment().to_vec();
    let mut best_key = match gain_key(g, arch, mode, &best) {
        Some(k) => k,
        None => return Ok(seed.clone()),
    };
    let mut evals = 0u32;
    let mut scan_stopped = |search: &SearchCtx| {
        evals += 1;
        evals.is_multiple_of(64) && search.stop_requested()
    };
    // Rotating scan start so capped scans cover different tasks each step.
    let mut cursor = 0usize;
    'passes: for _pass in 0..cfg.passes {
        if search.stop_requested() {
            break;
        }
        let start = best.clone();
        let start_key = best_key;
        let mut current = start.clone();
        let mut locked = vec![false; tasks];
        // The chain as (task, target) moves plus the key reached after
        // each; committing a prefix replays it over `start`.
        let mut chain: Vec<(usize, PartitionId, (usize, u64))> = Vec::new();
        for _step in 0..cfg.max_chain {
            let mut step_best: Option<(usize, PartitionId, (usize, u64))> = None;
            let mut scanned = 0usize;
            for offset in 0..tasks {
                let t = (cursor + offset) % tasks;
                if locked[t] {
                    continue;
                }
                let home = current[t];
                let targets: Vec<u32> = if cfg.adjacent_only {
                    let mut v = Vec::with_capacity(2);
                    if home.0 > 0 {
                        v.push(home.0 - 1);
                    }
                    if home.0 + 1 < n {
                        v.push(home.0 + 1);
                    }
                    v
                } else {
                    (0..n).filter(|&q| PartitionId(q) != home).collect()
                };
                for q in targets {
                    if scan_stopped(search) {
                        break 'passes;
                    }
                    current[t] = PartitionId(q);
                    if let Some(key) = gain_key(g, arch, mode, &current) {
                        let better = step_best
                            .as_ref()
                            .is_none_or(|(_, _, best_k)| key < *best_k);
                        if better {
                            step_best = Some((t, PartitionId(q), key));
                        }
                    }
                    current[t] = home;
                    scanned += 1;
                }
                if cfg.max_scan > 0 && scanned >= cfg.max_scan {
                    break;
                }
            }
            let Some((t, to, key)) = step_best else {
                break; // every task locked or no target evaluates
            };
            current[t] = to;
            locked[t] = true;
            cursor = (t + 1) % tasks;
            chain.push((t, to, key));
        }
        // Commit the best strict-improvement prefix, if any.
        let prefix = chain
            .iter()
            .enumerate()
            .min_by_key(|(i, (_, _, key))| (*key, *i))
            .filter(|(_, (_, _, key))| *key < start_key)
            .map(|(i, _)| i);
        let Some(upto) = prefix else {
            break; // no chain prefix improves: gain-sequence optimum
        };
        let mut committed = start;
        for (t, to, _) in &chain[..=upto] {
            committed[*t] = *to;
        }
        best_key = chain[upto].2;
        best = committed;
    }
    Ok(Partitioning::new(best))
}

/// Seed of the deterministic `StdRng` driving [`anneal_refine`]'s
/// proposals and acceptance.
const ANNEAL_SEED: u64 = 0x5bac5;
/// Proposal iterations of [`anneal_refine`].
const ANNEAL_ITERATIONS: u32 = 3_000;
/// Initial temperature as a *fraction of the seed design's latency* — an
/// absolute temperature in ns would not transfer across problems.
const ANNEAL_INITIAL_TEMP: f64 = 0.05;
/// Geometric cooling factor applied per iteration.
const ANNEAL_COOLING: f64 = 0.998;

/// Simulated-annealing refinement over the same move/swap neighbourhood as
/// [`kl_refine`]: proposals are drawn from a seeded [`StdRng`], worsening
/// feasible moves are accepted with probability `exp(-Δ/T)` under a fixed
/// geometric cooling schedule, and the best feasible design ever visited
/// is returned — so the result is deterministic and never has higher
/// latency than the seed.
///
/// # Errors
///
/// Returns [`GraphError::Cycle`] if `g` is not a DAG.
pub fn anneal_refine(
    g: &TaskGraph,
    arch: &Architecture,
    mode: MemoryMode,
    seed: &Partitioning,
    search: &SearchCtx,
) -> Result<Partitioning, GraphError> {
    let n = seed.partition_count();
    let tasks = g.task_count();
    if n <= 1 || tasks == 0 {
        return Ok(seed.clone());
    }
    let seed_cost = total_latency_ns(g, seed, arch.reconfig_time_ns)?;
    let mut rng = StdRng::seed_from_u64(ANNEAL_SEED);
    let mut current = seed.assignment().to_vec();
    let mut current_cost = seed_cost;
    let mut best = seed.clone();
    let mut best_cost = seed_cost;
    let mut temp = ANNEAL_INITIAL_TEMP * seed_cost as f64;
    for i in 0..ANNEAL_ITERATIONS {
        // Poll coarsely: one proposal costs microseconds, the check is an
        // atomic load plus (rarely) a clock read.
        if i.is_multiple_of(64) && search.stop_requested() {
            break;
        }
        let mut candidate = current.clone();
        let t = rng.gen_range(0..tasks);
        if rng.gen_bool(0.5) {
            let q = rng.gen_range(0..n);
            candidate[t] = PartitionId(q);
        } else {
            let u = rng.gen_range(0..tasks);
            candidate.swap(t, u);
        }
        temp *= ANNEAL_COOLING;
        if candidate == current {
            continue;
        }
        let Some((cost, partitioning)) = evaluate(g, arch, mode, &candidate) else {
            continue; // infeasible neighbour: reject
        };
        let delta = cost as f64 - current_cost as f64;
        let accept = delta <= 0.0 || rng.gen_bool((-delta / temp.max(1e-9)).exp().min(1.0));
        if accept {
            current = candidate;
            current_cost = cost;
            if cost < best_cost {
                best_cost = cost;
                best = partitioning;
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::partition_list;
    use sparcs_dfg::{gen, Resources};

    fn device(clbs: u64) -> Architecture {
        let mut a = Architecture::xc4044_wildforce();
        a.resources = Resources::clbs(clbs);
        a
    }

    fn latency(g: &TaskGraph, p: &Partitioning, a: &Architecture) -> u64 {
        total_latency_ns(g, p, a.reconfig_time_ns).unwrap()
    }

    /// The paper's list-partitioner pathology in miniature: the greedy pass
    /// fills partition 1's leftover CLBs with a *dependent* task `t`
    /// (stretching partition 1's critical path) while the long independent
    /// task `u` gets pushed to partition 2, where nothing overlaps it. The
    /// optimum swaps them: `{h, u} | {t}` runs `u` in parallel with `h`.
    fn eager_trap() -> (TaskGraph, Architecture) {
        let mut g = TaskGraph::new("eager-trap");
        let h = g.add_task("h", Resources::clbs(800), 500, 1);
        let t = g.add_task("t", Resources::clbs(400), 200, 1);
        let _u = g.add_task("u", Resources::clbs(800), 600, 1);
        g.add_edge(h, t, 1).unwrap();
        (g, device(1600))
    }

    use sparcs_dfg::TaskGraph;

    #[test]
    fn kl_fixes_the_eager_list_seed_by_swapping() {
        let (g, a) = eager_trap();
        let seed = partition_list(&g, &a).unwrap();
        // Greedy packs {h, t} (1200 CLBs) and exiles u: Σd = 700 + 600.
        assert_eq!(latency(&g, &seed, &a), 2 * a.reconfig_time_ns + 1300);
        let refined = kl_refine(&g, &a, MemoryMode::Net, &seed, &SearchCtx::unbounded()).unwrap();
        assert!(refined.validate(&g, &a, MemoryMode::Net).is_empty());
        // The t/u swap reaches the optimum: max(500, 600) + 200.
        assert_eq!(latency(&g, &refined, &a), 2 * a.reconfig_time_ns + 800);
    }

    #[test]
    fn kl_never_worsens_the_fig4_seed() {
        let g = gen::fig4_example();
        let a = device(1200);
        let seed = partition_list(&g, &a).unwrap();
        let refined = kl_refine(&g, &a, MemoryMode::Net, &seed, &SearchCtx::unbounded()).unwrap();
        assert!(refined.validate(&g, &a, MemoryMode::Net).is_empty());
        assert!(latency(&g, &refined, &a) <= latency(&g, &seed, &a));
    }

    #[test]
    fn anneal_never_worsens_and_is_deterministic() {
        let g = gen::fig4_example();
        let a = device(1200);
        let seed = partition_list(&g, &a).unwrap();
        let once = anneal_refine(&g, &a, MemoryMode::Net, &seed, &SearchCtx::unbounded()).unwrap();
        let twice = anneal_refine(&g, &a, MemoryMode::Net, &seed, &SearchCtx::unbounded()).unwrap();
        assert_eq!(once.assignment(), twice.assignment(), "seeded = repeatable");
        assert!(once.validate(&g, &a, MemoryMode::Net).is_empty());
        assert!(latency(&g, &once, &a) <= latency(&g, &seed, &a));
    }

    #[test]
    fn cancelled_refinement_returns_the_seed_unchanged() {
        use crate::search::CancelToken;
        let g = gen::fig4_example();
        let a = device(1200);
        let seed = partition_list(&g, &a).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let ctx = SearchCtx::unbounded().and_cancel(token);
        let kl = kl_refine(&g, &a, MemoryMode::Net, &seed, &ctx).unwrap();
        assert_eq!(kl.assignment(), seed.assignment());
        let sa = anneal_refine(&g, &a, MemoryMode::Net, &seed, &ctx).unwrap();
        assert_eq!(sa.assignment(), seed.assignment());
    }

    /// The single-move early-exit pathology in miniature: merging both
    /// halves of partition 0 into partition 1 saves a whole
    /// reconfiguration, but every *single* move or swap is zero-gain, so
    /// steepest descent ends its pass immediately. The gain-sequence
    /// chain walks through the zero-gain intermediate and commits the
    /// two-move prefix.
    fn plateau_trap() -> (TaskGraph, Architecture, Partitioning) {
        let mut g = TaskGraph::new("plateau-trap");
        let _a = g.add_task("a", Resources::clbs(300), 100, 1);
        let _b = g.add_task("b", Resources::clbs(300), 100, 1);
        let _c = g.add_task("c", Resources::clbs(200), 300, 1);
        let _e = g.add_task("e", Resources::clbs(200), 300, 1);
        let (g, a) = (g, device(1000));
        let seed = Partitioning::new(vec![
            PartitionId(0),
            PartitionId(0),
            PartitionId(1),
            PartitionId(1),
        ]);
        assert!(seed.validate(&g, &a, MemoryMode::Net).is_empty());
        (g, a, seed)
    }

    #[test]
    fn legacy_kl_stalls_on_the_zero_gain_plateau() {
        let (g, a, seed) = plateau_trap();
        let refined = kl_refine(&g, &a, MemoryMode::Net, &seed, &SearchCtx::unbounded()).unwrap();
        // The executable reference for the old behavior: no strictly
        // improving single change exists, so the pass ends at the seed.
        assert_eq!(refined.assignment(), seed.assignment());
    }

    #[test]
    fn gain_sequence_crosses_the_plateau_and_merges_the_partitions() {
        let (g, a, seed) = plateau_trap();
        let refined = kl_refine_gains(
            &g,
            &a,
            MemoryMode::Net,
            &seed,
            &GainConfig::default(),
            &SearchCtx::unbounded(),
        )
        .unwrap();
        assert!(refined.validate(&g, &a, MemoryMode::Net).is_empty());
        assert_eq!(refined.partition_count(), 1, "both halves must merge");
        assert_eq!(latency(&g, &refined, &a), a.reconfig_time_ns + 300);
        assert!(latency(&g, &refined, &a) < latency(&g, &seed, &a));
    }

    #[test]
    fn gain_sequence_never_worsens_and_is_deterministic() {
        let g = gen::fig4_example();
        let a = device(1200);
        let seed = partition_list(&g, &a).unwrap();
        let cfg = GainConfig::default();
        let once = kl_refine_gains(
            &g,
            &a,
            MemoryMode::Net,
            &seed,
            &cfg,
            &SearchCtx::unbounded(),
        )
        .unwrap();
        let twice = kl_refine_gains(
            &g,
            &a,
            MemoryMode::Net,
            &seed,
            &cfg,
            &SearchCtx::unbounded(),
        )
        .unwrap();
        assert_eq!(once.assignment(), twice.assignment());
        assert!(once.validate(&g, &a, MemoryMode::Net).is_empty());
        assert!(latency(&g, &once, &a) <= latency(&g, &seed, &a));
    }

    #[test]
    fn gain_sequence_repairs_an_infeasible_seed_when_a_neighbor_is_feasible() {
        // Two independent 600-CLB tasks crammed into one partition of an
        // 800-CLB device: the seed violates Eq. 6, and moving either task
        // to the other partition repairs it.
        let mut g = TaskGraph::new("repair");
        let _x = g.add_task("x", Resources::clbs(600), 100, 1);
        let _y = g.add_task("y", Resources::clbs(600), 100, 1);
        let _z = g.add_task("z", Resources::clbs(100), 50, 1);
        let a = device(800);
        let seed = Partitioning::new(vec![PartitionId(0), PartitionId(0), PartitionId(1)]);
        assert!(!seed.validate(&g, &a, MemoryMode::Net).is_empty());
        let refined = kl_refine_gains(
            &g,
            &a,
            MemoryMode::Net,
            &seed,
            &GainConfig::default(),
            &SearchCtx::unbounded(),
        )
        .unwrap();
        assert!(
            refined.validate(&g, &a, MemoryMode::Net).is_empty(),
            "the violation-ranked chain must repair the seed"
        );
    }

    #[test]
    fn gain_sequence_respects_scan_caps_and_cancellation() {
        use crate::search::CancelToken;
        let g = gen::fig4_example();
        let a = device(1200);
        let seed = partition_list(&g, &a).unwrap();
        // A capped scan still never worsens the seed.
        let capped = GainConfig {
            max_scan: 2,
            adjacent_only: true,
            ..GainConfig::default()
        };
        let refined = kl_refine_gains(
            &g,
            &a,
            MemoryMode::Net,
            &seed,
            &capped,
            &SearchCtx::unbounded(),
        )
        .unwrap();
        assert!(latency(&g, &refined, &a) <= latency(&g, &seed, &a));
        // A pre-cancelled search returns the seed unchanged.
        let token = CancelToken::new();
        token.cancel();
        let ctx = SearchCtx::unbounded().and_cancel(token);
        let stopped =
            kl_refine_gains(&g, &a, MemoryMode::Net, &seed, &GainConfig::default(), &ctx).unwrap();
        assert_eq!(stopped.assignment(), seed.assignment());
    }

    #[test]
    fn single_partition_seeds_pass_through() {
        let g = gen::fig4_example();
        let a = device(2000);
        let seed = partition_list(&g, &a).unwrap();
        assert_eq!(seed.partition_count(), 1);
        let refined = kl_refine(&g, &a, MemoryMode::Net, &seed, &SearchCtx::unbounded()).unwrap();
        assert_eq!(refined.assignment(), seed.assignment());
    }
}
