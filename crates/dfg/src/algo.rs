//! DAG algorithms over [`TaskGraph`]: levels and critical paths.
//!
//! These are the analyses the temporal partitioner and the list-based baseline
//! need: ASAP levels order coarsening rounds, and delay-weighted longest
//! paths give both the critical path (a latency lower bound) and the
//! per-partition delay measure of the paper's Figure 4. No transitive-closure
//! matrix is kept: `sparcs_analyze` takes its precedence-closure sums one
//! column block at a time.

use crate::graph::{GraphError, TaskGraph, TaskId};

/// Per-task level assignments computed by [`levels`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    /// ASAP level: longest edge-count distance from any root (roots are 0).
    pub asap: Vec<u32>,
    /// Number of distinct ASAP levels (`max(asap) + 1`), 0 for empty graphs.
    pub depth: u32,
}

/// Computes ASAP levels for every task.
///
/// # Errors
///
/// Returns [`GraphError::Cycle`] if the graph is not a DAG.
pub fn levels(g: &TaskGraph) -> Result<Levels, GraphError> {
    let order = g.topological_order()?;
    let n = g.task_count();
    let mut asap = vec![0u32; n];
    for &t in &order {
        for s in g.successors(t) {
            asap[s.index()] = asap[s.index()].max(asap[t.index()] + 1);
        }
    }
    let depth = if n == 0 {
        0
    } else {
        asap.iter().copied().max().unwrap_or(0) + 1
    };
    Ok(Levels { asap, depth })
}

/// Result of a delay-weighted longest-path computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Total delay along the path in nanoseconds (sum of task delays).
    pub delay_ns: u64,
    /// The tasks on the path, root first.
    pub tasks: Vec<TaskId>,
}

/// Computes the delay-weighted critical path of the whole graph: the
/// root→leaf path maximizing `Σ D(t)`. This is the latency of the design when
/// everything fits in a single configuration, and a lower bound on `Σ d_p`.
///
/// Returns `None` for an empty graph.
///
/// # Errors
///
/// Returns [`GraphError::Cycle`] if the graph is not a DAG.
pub fn critical_path(g: &TaskGraph) -> Result<Option<CriticalPath>, GraphError> {
    let order = g.topological_order()?;
    if order.is_empty() {
        return Ok(None);
    }
    let n = g.task_count();
    // best[t] = max over paths starting at t of total delay; next[t] on path.
    let mut best = vec![0u64; n];
    let mut next: Vec<Option<TaskId>> = vec![None; n];
    for &t in order.iter().rev() {
        let ti = t.index();
        best[ti] = g.task(t).delay_ns;
        for s in g.successors(t) {
            let cand = g.task(t).delay_ns + best[s.index()];
            if cand > best[ti] {
                best[ti] = cand;
                next[ti] = Some(s);
            }
        }
    }
    let start = g
        .roots()
        .into_iter()
        .max_by_key(|t| best[t.index()])
        .expect("non-empty DAG has a root");
    let mut tasks = vec![start];
    let mut cur = start;
    while let Some(nx) = next[cur.index()] {
        tasks.push(nx);
        cur = nx;
    }
    Ok(Some(CriticalPath {
        delay_ns: best[start.index()],
        tasks,
    }))
}

/// Sum of task delays over the whole graph — the worst-case serial latency.
pub fn total_delay(g: &TaskGraph) -> u64 {
    g.tasks().map(|(_, t)| t.delay_ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraph;
    use crate::resources::Resources;

    /// The delay-estimation example of the paper's Figure 4: two partitions,
    /// three paths with delays 350/400/150 ns in partition 1 and 300 ns in
    /// partition 2. Here we build the full (unpartitioned) graph.
    fn fig4_like() -> (TaskGraph, Vec<TaskId>) {
        let mut g = TaskGraph::new("fig4");
        // Partition-1 tasks: three parallel chains.
        let a1 = g.add_task("a1", Resources::clbs(1), 100, 1);
        let a2 = g.add_task("a2", Resources::clbs(1), 250, 1);
        let b1 = g.add_task("b1", Resources::clbs(1), 300, 1);
        let b2 = g.add_task("b2", Resources::clbs(1), 100, 1);
        let c1 = g.add_task("c1", Resources::clbs(1), 150, 1);
        // Partition-2 tasks: one chain of 300 ns.
        let d1 = g.add_task("d1", Resources::clbs(1), 200, 1);
        let d2 = g.add_task("d2", Resources::clbs(1), 100, 1);
        g.add_edge(a1, a2, 1).unwrap();
        g.add_edge(b1, b2, 1).unwrap();
        g.add_edge(a2, d1, 1).unwrap();
        g.add_edge(b2, d1, 1).unwrap();
        g.add_edge(c1, d1, 1).unwrap();
        g.add_edge(d1, d2, 1).unwrap();
        (g, vec![a1, a2, b1, b2, c1, d1, d2])
    }

    #[test]
    fn levels_diamond() {
        let mut g = TaskGraph::new("d");
        let a = g.add_task("a", Resources::ZERO, 1, 1);
        let b = g.add_task("b", Resources::ZERO, 1, 1);
        let c = g.add_task("c", Resources::ZERO, 1, 1);
        let d = g.add_task("d", Resources::ZERO, 1, 1);
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(a, c, 1).unwrap();
        g.add_edge(b, d, 1).unwrap();
        g.add_edge(c, d, 1).unwrap();
        let lv = levels(&g).unwrap();
        assert_eq!(lv.asap, vec![0, 1, 1, 2]);
        assert_eq!(lv.depth, 3);
    }

    #[test]
    fn critical_path_fig4() {
        let (g, t) = fig4_like();
        let cp = critical_path(&g).unwrap().unwrap();
        // b1(300) + b2(100) + d1(200) + d2(100) = 700 ns.
        assert_eq!(cp.delay_ns, 700);
        assert_eq!(cp.tasks, vec![t[2], t[3], t[5], t[6]]);
    }

    #[test]
    fn critical_path_empty_graph_is_none() {
        let g = TaskGraph::new("empty");
        assert_eq!(critical_path(&g).unwrap(), None);
    }

    #[test]
    fn critical_path_single_task() {
        let mut g = TaskGraph::new("one");
        let a = g.add_task("a", Resources::ZERO, 42, 1);
        let cp = critical_path(&g).unwrap().unwrap();
        assert_eq!(cp.delay_ns, 42);
        assert_eq!(cp.tasks, vec![a]);
    }

    #[test]
    fn total_delay_sums_everything() {
        let (g, _) = fig4_like();
        assert_eq!(total_delay(&g), 100 + 250 + 300 + 100 + 150 + 200 + 100);
    }
}
