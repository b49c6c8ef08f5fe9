//! Partition delay — the paper's Figure 4 measure — and the certified
//! lower bound on its sum.
//!
//! *"The delay of design execution on a partition will be the maximum delay
//! among all the paths of the task graph mapped to that partition."* For a
//! root→leaf path `π` and partition `p`, only the tasks of `π` that sit in
//! `p` contribute; `d_p = max_π Σ_{t ∈ π ∩ p} D(t)`.
//!
//! [`partition_delays`] computes this without enumerating paths, in one
//! pass over a topological order when every edge runs forward
//! (`p(src) ≤ p(dst)`, Eq. 2's temporal order). A root→leaf path then
//! visits partitions in non-decreasing order, so its tasks in `p` form
//! one contiguous run and `d_p` is the longest path of `p`'s induced
//! subgraph: each task extends only its same-partition predecessors, and
//! all partitions are priced at once in `O(V + E)`.
//!
//! A backward edge lets a path leave `p` and come back, and the
//! definition counts both visits, so an assignment that breaks Eq. 2
//! (a forged design, say) takes the general pass: for each partition,
//! weight tasks by `D(t)` inside it and `0` outside, then take the
//! longest weighted root→leaf path by dynamic programming, exact because
//! weights are non-negative and every task lies on some root→leaf path.
//! That is `O(N·(V + E))`. An `O(E)` check of the premise picks the pass.
//!
//! # The delay-sum lower bound
//!
//! [`delay_sum_bound_ns`] bounds the ILP objective `Σ_p d_p` from below
//! for *every* feasible partitioning, before anything is solved. Two facts
//! hold for every feasible design:
//!
//! 1. **Path fact.** For any root→leaf path `P`, the masked delays satisfy
//!    `Σ_p d_p ≥ Σ_p Σ_{t∈P∩p} δ_t = Σ_{t∈P} δ_t`, so `Σ_p d_p` is at least
//!    the graph's critical-path delay.
//! 2. **Area fact** ([`area_bound_ns`]). `d_p ≥ max_{t∈p} δ_t` (every task
//!    lies on some root→leaf path). Fix a resource kind `k` with capacity
//!    `R_k > 0`. Because Eq. 6 forces `Σ_{t∈p} r_{t,k} ≤ R_k`, the weights
//!    `r_{t,k}/R_k` form a sub-probability distribution over each
//!    partition, hence `d_p ≥ Σ_{t∈p} (r_{t,k}/R_k)·δ_t`, and summing over
//!    partitions: `Σ_p d_p ≥ (Σ_t r_{t,k}·δ_t)/R_k`. The objective is an
//!    integer number of nanoseconds, so the ceiling is still a bound.
//!
//! The area fact is the Lagrangian dual of Eq. 6 restricted to the price
//! family `μ_t = (r_{t,k}/R_k)·δ_t`: the dual function is linear in the
//! multipliers, so its maximum sits at a single resource kind, and the
//! critical path is the zero-multiplier vertex. Both facts also bound the
//! `PartitionSum` delay rows, which over-approximate `d_p`.

use crate::partitioning::Partitioning;
use sparcs_dfg::{algo, GraphError, Resources, TaskGraph, TaskId};

/// Per-partition delays `d_p` in nanoseconds (index = partition id).
///
/// # Errors
///
/// Returns [`GraphError::Cycle`] if the graph is not a DAG.
pub fn partition_delays(g: &TaskGraph, part: &Partitioning) -> Result<Vec<u64>, GraphError> {
    let order = g.topological_order()?;
    let runs_forward = g
        .edges()
        .iter()
        .all(|e| part.partition_of(e.src) <= part.partition_of(e.dst));
    Ok(if runs_forward {
        forward_delays(g, part, &order)
    } else {
        masked_delays(g, part, &order)
    })
}

/// One pass for an assignment whose edges all run forward: `best[t]` is
/// the longest path ending at `t` within `t`'s partition.
fn forward_delays(g: &TaskGraph, part: &Partitioning, order: &[TaskId]) -> Vec<u64> {
    let mut delays = vec![0u64; part.partition_count() as usize];
    let mut best = vec![0u64; g.task_count()];
    for &t in order {
        let p = part.partition_of(t);
        let from_preds = g
            .predecessors(t)
            .filter(|&q| part.partition_of(q) == p)
            .map(|q| best[q.index()])
            .max()
            .unwrap_or(0);
        best[t.index()] = g.task(t).delay_ns + from_preds;
        // A (deserialized) assignment may name partitions past the count;
        // like the masked pass, such tasks price no partition.
        if let Some(d_p) = delays.get_mut(p.index()) {
            *d_p = (*d_p).max(best[t.index()]);
        }
    }
    delays
}

/// One whole-graph longest-path pass per partition, with the tasks of
/// other partitions weighted 0: exact for any assignment.
fn masked_delays(g: &TaskGraph, part: &Partitioning, order: &[TaskId]) -> Vec<u64> {
    let n_parts = part.partition_count() as usize;
    let mut delays = vec![0u64; n_parts];
    // best[t] = max over paths ending at t of the partition-masked sum.
    let mut best = vec![0u64; g.task_count()];
    for p in 0..n_parts {
        for b in best.iter_mut() {
            *b = 0;
        }
        let mut d_p = 0u64;
        for &t in order {
            let w = if part.partition_of(t).index() == p {
                g.task(t).delay_ns
            } else {
                0
            };
            let from_preds = g
                .predecessors(t)
                .map(|q| best[q.index()])
                .max()
                .unwrap_or(0);
            best[t.index()] = w + from_preds;
            d_p = d_p.max(best[t.index()]);
        }
        delays[p] = d_p;
    }
    delays
}

/// Total design latency for one computation: `N·CT + Σ d_p`
/// (the paper's optimality goal).
///
/// # Errors
///
/// Returns [`GraphError::Cycle`] if the graph is not a DAG.
pub fn total_latency_ns(
    g: &TaskGraph,
    part: &Partitioning,
    reconfig_time_ns: u64,
) -> Result<u64, GraphError> {
    let d: u64 = partition_delays(g, part)?.iter().sum();
    Ok(part.partition_count() as u64 * reconfig_time_ns + d)
}

/// The area fact (see the module docs): `max_k ⌈Σ_t r_{t,k}·δ_t / R_k⌉`
/// in ns over the resource kinds the device has, with the kind that
/// attains it (`None` when no task demands any of them).
///
/// Kinds with zero capacity are skipped: a task demanding one makes the
/// instance infeasible outright, which is the solver's diagnosis to make,
/// not the bound's.
pub fn area_bound_ns(g: &TaskGraph, capacity: &Resources) -> (u64, Option<&'static str>) {
    // Σ_t r_{t,k}·δ_t per kind, in u128: each product fits, and the task
    // count is far below the remaining headroom.
    let mut weighted = [0u128; 4];
    for (_, t) in g.tasks() {
        for (w, (_, r)) in weighted.iter_mut().zip(t.resources.components()) {
            *w += u128::from(r) * u128::from(t.delay_ns);
        }
    }
    let mut best = (0, None);
    for ((kind, cap), w) in capacity.components().zip(weighted) {
        if cap == 0 {
            continue;
        }
        let bound = u64::try_from(w.div_ceil(u128::from(cap))).unwrap_or(u64::MAX);
        if bound > best.0 {
            best = (bound, Some(kind));
        }
    }
    best
}

/// The certified lower bound on `Σ_p d_p` for every feasible partitioning
/// of `g` on a device with `capacity`: the larger of the critical path and
/// [`area_bound_ns`]. [`crate::IlpPartitioner`] applies it as the
/// branch-and-bound's root bound on every solve.
///
/// # Errors
///
/// Returns [`GraphError::Cycle`] if the graph is not a DAG.
pub fn delay_sum_bound_ns(g: &TaskGraph, capacity: &Resources) -> Result<u64, GraphError> {
    let critical_path_ns = algo::critical_path(g)?.map_or(0, |p| p.delay_ns);
    Ok(critical_path_ns.max(area_bound_ns(g, capacity).0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioning::PartitionId;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use sparcs_dfg::gen::{LayeredConfig, ScaledConfig};
    use sparcs_dfg::{gen, paths};

    /// Figure 4 reproduction: partition 1 delay = max(350, 400, 150) = 400,
    /// partition 2 delay = 300.
    #[test]
    fn fig4_partition_delays() {
        let g = gen::fig4_example();
        let assign: Vec<PartitionId> = (0..7).map(|i| PartitionId(u32::from(i >= 5))).collect();
        let part = Partitioning::new(assign);
        let d = partition_delays(&g, &part).unwrap();
        assert_eq!(d, vec![400, 300]);
    }

    #[test]
    fn fig4_total_latency_includes_reconfig() {
        let g = gen::fig4_example();
        let assign: Vec<PartitionId> = (0..7).map(|i| PartitionId(u32::from(i >= 5))).collect();
        let part = Partitioning::new(assign);
        // 2 partitions × 1000 ns CT + 400 + 300.
        assert_eq!(total_latency_ns(&g, &part, 1000).unwrap(), 2700);
    }

    #[test]
    fn single_partition_delay_is_critical_path() {
        let g = gen::fig4_example();
        let part = Partitioning::new(vec![PartitionId(0); 7]);
        let d = partition_delays(&g, &part).unwrap();
        let cp = sparcs_dfg::algo::critical_path(&g).unwrap().unwrap();
        assert_eq!(d, vec![cp.delay_ns]);
    }

    /// The DP must agree with explicit path enumeration on random graphs.
    #[test]
    fn dp_matches_path_enumeration() {
        for seed in 0..10 {
            let g = gen::layered(&sparcs_dfg::gen::LayeredConfig::default(), seed);
            // Arbitrary 3-way partition by level parity.
            let lv = sparcs_dfg::algo::levels(&g).unwrap();
            let assign: Vec<PartitionId> = g
                .task_ids()
                .map(|t| PartitionId(lv.asap[t.index()] * 3 / lv.depth.max(1)))
                .collect();
            let part = Partitioning::new(assign);
            let dp = partition_delays(&g, &part).unwrap();

            let all_paths = paths::enumerate_paths(&g, 1_000_000).unwrap();
            for p in part.partitions() {
                let by_enum = all_paths
                    .iter()
                    .map(|path| {
                        path.tasks
                            .iter()
                            .filter(|&&t| part.partition_of(t) == p)
                            .map(|&t| g.task(t).delay_ns)
                            .sum::<u64>()
                    })
                    .max()
                    .unwrap_or(0);
                assert_eq!(dp[p.index()], by_enum, "seed {seed}, {p}");
            }
        }
    }

    /// A random topological order: Kahn's algorithm taking a random ready
    /// task each step.
    fn random_order(g: &TaskGraph, rng: &mut StdRng) -> Vec<TaskId> {
        let mut indegree: Vec<usize> = g.task_ids().map(|t| g.in_degree(t)).collect();
        let mut ready: Vec<TaskId> = g.task_ids().filter(|t| indegree[t.index()] == 0).collect();
        let mut order = Vec::with_capacity(g.task_count());
        while !ready.is_empty() {
            let t = ready.swap_remove(rng.gen_range(0..ready.len()));
            order.push(t);
            for s in g.successors(t) {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    ready.push(s);
                }
            }
        }
        order
    }

    /// The one-pass rule against the masked pass it replaces on forward
    /// assignments, made by cutting a random topological order at random
    /// points; uniform draws, which run edges backwards, must take the
    /// masked pass, on which the one-pass rule would be wrong.
    #[test]
    fn one_pass_delays_match_the_masked_pass() {
        let deep = LayeredConfig {
            layers: 12,
            max_width: 8,
            edge_prob: 0.3,
            ..LayeredConfig::default()
        };
        let mut graphs = vec![gen::fig4_example()];
        for seed in 0..4 {
            graphs.push(gen::layered(&LayeredConfig::default(), seed));
            graphs.push(gen::layered(&deep, seed));
        }
        for seed in 0..3 {
            graphs.push(gen::scaled(&ScaledConfig::preset(300), seed));
        }
        let mut rng = StdRng::seed_from_u64(24);
        let mut one_pass_would_be_wrong = 0;
        for g in &graphs {
            let n = g.task_count();
            let reference = g.topological_order().unwrap();
            for _ in 0..25 {
                let order = random_order(g, &mut rng);
                let segments = rng.gen_range(1..=n.min(30));
                let mut cuts: Vec<usize> = (1..segments).map(|_| rng.gen_range(1..n)).collect();
                cuts.sort_unstable();
                let mut assignment = vec![PartitionId(0); n];
                for (pos, t) in order.iter().enumerate() {
                    assignment[t.index()] = PartitionId(cuts.partition_point(|&c| c <= pos) as u32);
                }
                let part = Partitioning::new(assignment);
                assert!(g
                    .edges()
                    .iter()
                    .all(|e| part.partition_of(e.src) <= part.partition_of(e.dst)));
                assert_eq!(
                    partition_delays(g, &part).unwrap(),
                    masked_delays(g, &part, &reference),
                    "{}: forward cut at {cuts:?}",
                    g.name()
                );

                let drawn: Vec<PartitionId> = (0..n)
                    .map(|_| PartitionId(rng.gen_range(0..segments as u32)))
                    .collect();
                let part = Partitioning::new(drawn);
                let masked = masked_delays(g, &part, &reference);
                assert_eq!(partition_delays(g, &part).unwrap(), masked, "{}", g.name());
                if forward_delays(g, &part, &reference) != masked {
                    one_pass_would_be_wrong += 1;
                }
            }
        }
        assert!(one_pass_would_be_wrong > 0);
    }

    #[test]
    fn interleaved_partitions_mask_correctly() {
        // Chain a(10) -> b(20) -> c(30) with partitions 0, 1, 0:
        // invalid temporally, but the delay measure is still defined:
        // d_0 = 10 + 30 = 40 (both on the single path), d_1 = 20.
        let mut g = TaskGraph::new("chain");
        let a = g.add_task("a", Resources::ZERO, 10, 1);
        let b = g.add_task("b", Resources::ZERO, 20, 1);
        let c = g.add_task("c", Resources::ZERO, 30, 1);
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, c, 1).unwrap();
        let part = Partitioning::new(vec![PartitionId(0), PartitionId(1), PartitionId(0)]);
        assert_eq!(partition_delays(&g, &part).unwrap(), vec![40, 20]);
    }

    /// `(clbs, delay)` pairs in a dependency chain.
    fn chain(tasks: &[(u64, u64)]) -> TaskGraph {
        let mut g = TaskGraph::new("chain");
        let mut prev = None;
        for (i, &(clbs, delay)) in tasks.iter().enumerate() {
            let t = g.add_task(format!("t{i}"), Resources::clbs(clbs), delay, 1);
            if let Some(p) = prev {
                g.add_edge(p, t, 1).unwrap();
            }
            prev = Some(t);
        }
        g
    }

    #[test]
    fn critical_path_dominates_when_the_device_is_roomy() {
        let g = chain(&[(10, 100), (10, 200), (10, 300)]);
        let roomy = Resources::clbs(10_000);
        assert_eq!(area_bound_ns(&g, &roomy), (1, Some("clbs")));
        assert_eq!(delay_sum_bound_ns(&g, &roomy).unwrap(), 600);
    }

    #[test]
    fn area_dominates_on_a_packed_device() {
        // Two parallel tasks, each 600 of 1000 CLBs, delay 100: critical
        // path is 100, but they cannot share a partition, so Σ d_p ≥ 200.
        // Area bound: ⌈(600·100 + 600·100)/1000⌉ = 120 — sound (≤ 200)
        // and strictly better than the path bound.
        let mut g = TaskGraph::new("parallel");
        g.add_task("a", Resources::clbs(600), 100, 1);
        g.add_task("b", Resources::clbs(600), 100, 1);
        let packed = Resources::clbs(1_000);
        assert_eq!(area_bound_ns(&g, &packed), (120, Some("clbs")));
        assert_eq!(delay_sum_bound_ns(&g, &packed).unwrap(), 120);
    }

    #[test]
    fn zero_capacity_dimensions_are_skipped() {
        // flip_flops demand with zero capacity must not divide by zero or
        // poison the bound.
        let mut g = TaskGraph::new("ff");
        g.add_task("a", Resources::new(10, 64, 0, 0), 100, 1);
        let device = Resources::clbs(100);
        assert_eq!(area_bound_ns(&g, &device), (10, Some("clbs")));
        assert_eq!(delay_sum_bound_ns(&g, &device).unwrap(), 100);
    }

    #[test]
    fn empty_graph_bounds_at_zero() {
        let g = TaskGraph::new("empty");
        assert_eq!(area_bound_ns(&g, &Resources::clbs(100)), (0, None));
        assert_eq!(delay_sum_bound_ns(&g, &Resources::clbs(100)).unwrap(), 0);
    }
}
