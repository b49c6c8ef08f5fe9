//! The behavior task graph container and its builder API.
//!
//! A [`TaskGraph`] is the paper's input specification (Figure 3): a DAG of
//! tasks with data edges, plus *environment ports* that model data read from
//! or written to the world outside the FPGA (the on-board memory filled by the
//! host). Environment ports are first-class because the paper's §4 memory
//! accounting counts *distinct* data values, not edge multiplicities: the same
//! input column of the DCT is read by four tasks but occupies its word count
//! only once.

use crate::resources::Resources;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a task within its [`TaskGraph`].
///
/// Indices are dense (`0..graph.task_count()`), which downstream layers (the
/// ILP model generator, the simulator) exploit for array-indexed lookups.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The dense index of this task.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of an environment port within its [`TaskGraph`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct EnvPortId(pub u32);

impl EnvPortId {
    /// The dense index of this port.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EnvPortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "env{}", self.0)
    }
}

/// A coarse-grain task: one node of the behavior task graph.
///
/// `resources` and `delay_ns` are the synthesis costs `R(t)` and `D(t)` the
/// paper obtains from its HLS estimation engine; `output_words` is the size of
/// the value this task produces (shared by all of its consumers — the *net*
/// view used for deduplicated memory accounting).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Task {
    /// Human-readable name (unique names are recommended but not enforced).
    pub name: String,
    /// FPGA resources consumed by the synthesized task, `R(t)`.
    pub resources: Resources,
    /// Execution delay of one activation in nanoseconds, `D(t)`.
    pub delay_ns: u64,
    /// Words produced by one activation (the size of the task's output net).
    pub output_words: u64,
    /// Free-form kind tag (e.g. `"T1"`/`"T2"` for the DCT study); used by
    /// reports and by the paper-calibrated estimator.
    pub kind: String,
}

/// A data dependency edge `src → dst` carrying `words` data units.
///
/// `words` is the paper's `B(t_i, t_j)`. When several consumers read the same
/// produced value, each edge still records the full transfer size; the *net*
/// size lives on the producer's [`Task::output_words`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Producer task.
    pub src: TaskId,
    /// Consumer task.
    pub dst: TaskId,
    /// Data units communicated, `B(src, dst)`.
    pub words: u64,
}

/// Direction of an environment port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EnvDirection {
    /// Data flows from the environment into the design (`B(env, t)`).
    Input,
    /// Data flows from the design out to the environment (`B(t, env)`).
    Output,
}

/// A named block of data exchanged with the environment.
///
/// An input port is *consumed* by one or more tasks; an output port is
/// *produced* by one or more tasks. The port's `words` is the distinct data
/// size regardless of how many tasks touch it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnvPort {
    /// Port name (e.g. `"X col 0"`).
    pub name: String,
    /// Distinct words stored for this port.
    pub words: u64,
    /// Input or output.
    pub direction: EnvDirection,
    /// Tasks that read (for inputs) or write (for outputs) this port.
    pub tasks: Vec<TaskId>,
}

/// Errors reported by [`TaskGraph`] construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A referenced task id does not exist in the graph.
    UnknownTask(TaskId),
    /// An edge would connect a task to itself.
    SelfLoop(TaskId),
    /// The same directed edge was added twice.
    DuplicateEdge(TaskId, TaskId),
    /// The graph contains a directed cycle (a task on the cycle is reported).
    Cycle(TaskId),
    /// An environment port lists no tasks.
    EmptyEnvPort(String),
    /// An environment port lists the same task twice.
    DuplicateEnvTask(String, TaskId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownTask(t) => write!(f, "unknown task {t}"),
            GraphError::SelfLoop(t) => write!(f, "self loop on task {t}"),
            GraphError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            GraphError::Cycle(t) => write!(f, "task graph contains a cycle through {t}"),
            GraphError::EmptyEnvPort(n) => write!(f, "environment port `{n}` lists no tasks"),
            GraphError::DuplicateEnvTask(n, t) => {
                write!(f, "environment port `{n}` lists task {t} twice")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// The behavior task graph: a DAG of [`Task`]s, data [`Edge`]s and
/// environment ports, with an implicit outer loop (the paper's Figure 3).
///
/// The graph is a plain data structure — construction is incremental through
/// [`TaskGraph::add_task`] / [`TaskGraph::add_edge`], and acyclicity is
/// enforced lazily by [`TaskGraph::validate`] (also invoked by every
/// algorithm that requires a DAG).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskGraph {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    env_ports: Vec<EnvPort>,
    /// Outgoing adjacency: `succ[t]` = indices into `edges`.
    succ: Vec<Vec<usize>>,
    /// Incoming adjacency: `pred[t]` = indices into `edges`.
    pred: Vec<Vec<usize>>,
}

impl TaskGraph {
    /// Creates an empty task graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraph {
            name: name.into(),
            tasks: Vec::new(),
            edges: Vec::new(),
            env_ports: Vec::new(),
            succ: Vec::new(),
            pred: Vec::new(),
        }
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a task and returns its id.
    ///
    /// `delay_ns` is `D(t)`; `output_words` sizes the value the task produces.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        resources: Resources,
        delay_ns: u64,
        output_words: u64,
    ) -> TaskId {
        self.add_task_kind(name, "", resources, delay_ns, output_words)
    }

    /// Adds a task with an explicit kind tag (e.g. `"T1"`).
    pub fn add_task_kind(
        &mut self,
        name: impl Into<String>,
        kind: impl Into<String>,
        resources: Resources,
        delay_ns: u64,
        output_words: u64,
    ) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task {
            name: name.into(),
            resources,
            delay_ns,
            output_words,
            kind: kind.into(),
        });
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        id
    }

    /// Adds a directed data edge `src → dst` carrying `words` data units.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownTask`] for out-of-range ids,
    /// [`GraphError::SelfLoop`] when `src == dst`, and
    /// [`GraphError::DuplicateEdge`] when the edge already exists. Cycles are
    /// *not* detected here (see [`TaskGraph::validate`]).
    pub fn add_edge(&mut self, src: TaskId, dst: TaskId, words: u64) -> Result<(), GraphError> {
        self.check_task(src)?;
        self.check_task(dst)?;
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        if self.succ[src.index()]
            .iter()
            .any(|&e| self.edges[e].dst == dst)
        {
            return Err(GraphError::DuplicateEdge(src, dst));
        }
        self.append_edge(src, dst, words);
        Ok(())
    }

    /// Appends the edge `src → dst` without [`TaskGraph::add_edge`]'s
    /// duplicate scan. The caller has checked that both ids exist and
    /// that `src != dst`, and checks for repeats afterwards with
    /// [`TaskGraph::first_repeated_edge`].
    pub(crate) fn append_edge(&mut self, src: TaskId, dst: TaskId, words: u64) {
        let idx = self.edges.len();
        self.edges.push(Edge { src, dst, words });
        self.succ[src.index()].push(idx);
        self.pred[dst.index()].push(idx);
    }

    /// The index of the first edge that repeats an earlier one (same
    /// `src` and `dst`), in `O(V + E)`: each task's out-edges are walked
    /// in insertion order, marking the consumers seen from that task.
    pub(crate) fn first_repeated_edge(&self) -> Option<usize> {
        let mut seen_from = vec![u32::MAX; self.tasks.len()];
        let mut first: Option<usize> = None;
        for (src, out) in self.succ.iter().enumerate() {
            for &e in out {
                let dst = self.edges[e].dst.index();
                if seen_from[dst] == src as u32 {
                    first = Some(first.map_or(e, |f| f.min(e)));
                    break;
                }
                seen_from[dst] = src as u32;
            }
        }
        first
    }

    /// Declares an environment *input* port of `words` distinct words read by
    /// `consumers`, returning its id.
    ///
    /// # Errors
    ///
    /// Returns an error when `consumers` is empty, repeats a task, or names an
    /// unknown task.
    pub fn add_env_input(
        &mut self,
        name: impl Into<String>,
        words: u64,
        consumers: impl IntoIterator<Item = TaskId>,
    ) -> Result<EnvPortId, GraphError> {
        self.add_env_port(name.into(), words, EnvDirection::Input, consumers)
    }

    /// Declares an environment *output* port of `words` distinct words written
    /// by `producers`, returning its id.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TaskGraph::add_env_input`].
    pub fn add_env_output(
        &mut self,
        name: impl Into<String>,
        words: u64,
        producers: impl IntoIterator<Item = TaskId>,
    ) -> Result<EnvPortId, GraphError> {
        self.add_env_port(name.into(), words, EnvDirection::Output, producers)
    }

    fn add_env_port(
        &mut self,
        name: String,
        words: u64,
        direction: EnvDirection,
        tasks: impl IntoIterator<Item = TaskId>,
    ) -> Result<EnvPortId, GraphError> {
        let tasks: Vec<TaskId> = tasks.into_iter().collect();
        if tasks.is_empty() {
            return Err(GraphError::EmptyEnvPort(name));
        }
        let mut seen = BTreeSet::new();
        for &t in &tasks {
            self.check_task(t)?;
            if !seen.insert(t) {
                return Err(GraphError::DuplicateEnvTask(name, t));
            }
        }
        let id = EnvPortId(self.env_ports.len() as u32);
        self.env_ports.push(EnvPort {
            name,
            words,
            direction,
            tasks,
        });
        Ok(id)
    }

    fn check_task(&self, t: TaskId) -> Result<(), GraphError> {
        if t.index() < self.tasks.len() {
            Ok(())
        } else {
            Err(GraphError::UnknownTask(t))
        }
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The task record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids from *this* graph never are).
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Mutable access to a task (used by estimators to fill in costs).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task_mut(&mut self, id: TaskId) -> &mut Task {
        &mut self.tasks[id.index()]
    }

    /// Iterates over all task ids in dense order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Iterates over all tasks with their ids.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i as u32), t))
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// All environment ports.
    pub fn env_ports(&self) -> &[EnvPort] {
        &self.env_ports
    }

    /// Environment input ports.
    pub fn env_inputs(&self) -> impl Iterator<Item = (EnvPortId, &EnvPort)> {
        self.env_ports_dir(EnvDirection::Input)
    }

    /// Environment output ports.
    pub fn env_outputs(&self) -> impl Iterator<Item = (EnvPortId, &EnvPort)> {
        self.env_ports_dir(EnvDirection::Output)
    }

    fn env_ports_dir(&self, dir: EnvDirection) -> impl Iterator<Item = (EnvPortId, &EnvPort)> {
        self.env_ports
            .iter()
            .enumerate()
            .filter(move |(_, p)| p.direction == dir)
            .map(|(i, p)| (EnvPortId(i as u32), p))
    }

    /// Successor tasks of `t` (one entry per out-edge).
    pub fn successors(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.succ[t.index()].iter().map(|&e| self.edges[e].dst)
    }

    /// Predecessor tasks of `t` (one entry per in-edge).
    pub fn predecessors(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.pred[t.index()].iter().map(|&e| self.edges[e].src)
    }

    /// Out-edges of `t`.
    pub fn out_edges(&self, t: TaskId) -> impl Iterator<Item = &Edge> + '_ {
        self.succ[t.index()].iter().map(|&e| &self.edges[e])
    }

    /// In-edges of `t`.
    pub fn in_edges(&self, t: TaskId) -> impl Iterator<Item = &Edge> + '_ {
        self.pred[t.index()].iter().map(|&e| &self.edges[e])
    }

    /// In-degree of `t`.
    pub fn in_degree(&self, t: TaskId) -> usize {
        self.pred[t.index()].len()
    }

    /// Out-degree of `t`.
    pub fn out_degree(&self, t: TaskId) -> usize {
        self.succ[t.index()].len()
    }

    /// Root tasks — the paper's `T_r`: tasks with no predecessors.
    pub fn roots(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.in_degree(t) == 0)
            .collect()
    }

    /// Leaf tasks — the paper's `T_l`: tasks with no successors.
    pub fn leaves(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|&t| self.out_degree(t) == 0)
            .collect()
    }

    /// Total resources over all tasks (`ΣR(t)`, the preprocessing numerator).
    pub fn total_resources(&self) -> Resources {
        self.tasks.iter().map(|t| t.resources).sum()
    }

    /// Validates that the graph is a DAG.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] naming a task on some directed cycle.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.topological_order().map(|_| ())
    }

    /// Computes a topological order of the tasks (Kahn's algorithm,
    /// deterministic: ready tasks are processed in ascending id order).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] if the graph is not a DAG.
    pub fn topological_order(&self) -> Result<Vec<TaskId>, GraphError> {
        let n = self.tasks.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.pred[i].len()).collect();
        // BTreeSet keeps the frontier sorted so the order is deterministic.
        let mut ready: BTreeSet<TaskId> =
            self.task_ids().filter(|t| indeg[t.index()] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&t) = ready.iter().next() {
            ready.remove(&t);
            order.push(t);
            for s in self.successors(t) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    ready.insert(s);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            let on_cycle = self
                .task_ids()
                .find(|t| indeg[t.index()] > 0)
                .expect("cycle implies a task with remaining in-degree");
            Err(GraphError::Cycle(on_cycle))
        }
    }

    /// Appends an exact, compact rendering of the whole graph to `out`:
    /// equal graphs render equally, and distinct graphs distinctly. Content
    /// keys (the flow's partition cache, `sparcsd`'s result store) use it
    /// in place of the derived `Debug`, which is about five times longer.
    ///
    /// Strings are quoted with `{:?}`, so a name cannot run into the next
    /// field, and every list is preceded by its length. `succ` and `pred`
    /// are left out: every constructor derives them from `edges`. Each
    /// record is destructured in full, so a new field does not compile
    /// until it is rendered here.
    pub fn write_key(&self, out: &mut String) {
        use fmt::Write as _;
        let TaskGraph {
            name,
            tasks,
            edges,
            env_ports,
            succ: _,
            pred: _,
        } = self;
        let _ = write!(out, "graph {name:?}; tasks {}:", tasks.len());
        for task in tasks {
            let Task {
                name,
                resources,
                delay_ns,
                output_words,
                kind,
            } = task;
            let Resources {
                clbs,
                flip_flops,
                mult_blocks,
                bram_words,
            } = resources;
            let _ = write!(
                out,
                " {name:?} {kind:?} {clbs} {flip_flops} {mult_blocks} {bram_words} {delay_ns} \
                 {output_words},"
            );
        }
        let _ = write!(out, "; edges {}:", edges.len());
        for edge in edges {
            let Edge { src, dst, words } = edge;
            let _ = write!(out, " {}>{} {words},", src.0, dst.0);
        }
        let _ = write!(out, "; ports {}:", env_ports.len());
        for port in env_ports {
            let EnvPort {
                name,
                words,
                direction,
                tasks,
            } = port;
            let direction = match direction {
                EnvDirection::Input => "in",
                EnvDirection::Output => "out",
            };
            let _ = write!(out, " {name:?} {direction} {words} {}:", tasks.len());
            for t in tasks {
                let _ = write!(out, " {}", t.0);
            }
            out.push(',');
        }
    }
}

impl fmt::Display for TaskGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task graph `{}`: {} tasks, {} edges, {} env ports",
            self.name,
            self.tasks.len(),
            self.edges.len(),
            self.env_ports.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (TaskGraph, [TaskId; 4]) {
        let mut g = TaskGraph::new("diamond");
        let a = g.add_task("a", Resources::clbs(10), 100, 1);
        let b = g.add_task("b", Resources::clbs(20), 200, 1);
        let c = g.add_task("c", Resources::clbs(30), 300, 1);
        let d = g.add_task("d", Resources::clbs(40), 400, 1);
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(a, c, 1).unwrap();
        g.add_edge(b, d, 1).unwrap();
        g.add_edge(c, d, 1).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn build_and_query_diamond() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.task_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.roots(), vec![a]);
        assert_eq!(g.leaves(), vec![d]);
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(g.predecessors(d).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(g.total_resources(), Resources::clbs(100));
    }

    #[test]
    fn topological_order_is_deterministic_and_valid() {
        let (g, _) = diamond();
        let order = g.topological_order().unwrap();
        assert_eq!(order.len(), 4);
        let pos = |t: TaskId| order.iter().position(|&x| x == t).unwrap();
        for e in g.edges() {
            assert!(pos(e.src) < pos(e.dst), "edge {} -> {}", e.src, e.dst);
        }
        // Deterministic: b (t1) before c (t2) since both become ready together.
        assert_eq!(order, vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)]);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = TaskGraph::new("g");
        let a = g.add_task("a", Resources::ZERO, 0, 0);
        assert_eq!(g.add_edge(a, a, 1), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut g = TaskGraph::new("g");
        let a = g.add_task("a", Resources::ZERO, 0, 0);
        let b = g.add_task("b", Resources::ZERO, 0, 0);
        g.add_edge(a, b, 1).unwrap();
        assert_eq!(g.add_edge(a, b, 2), Err(GraphError::DuplicateEdge(a, b)));
    }

    #[test]
    fn unknown_task_rejected() {
        let mut g = TaskGraph::new("g");
        let a = g.add_task("a", Resources::ZERO, 0, 0);
        let ghost = TaskId(42);
        assert_eq!(g.add_edge(a, ghost, 1), Err(GraphError::UnknownTask(ghost)));
        assert_eq!(
            g.add_env_input("x", 4, [ghost]).unwrap_err(),
            GraphError::UnknownTask(ghost)
        );
    }

    #[test]
    fn cycle_detected_by_validate() {
        let mut g = TaskGraph::new("g");
        let a = g.add_task("a", Resources::ZERO, 0, 0);
        let b = g.add_task("b", Resources::ZERO, 0, 0);
        let c = g.add_task("c", Resources::ZERO, 0, 0);
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, c, 1).unwrap();
        g.add_edge(c, a, 1).unwrap();
        assert!(matches!(g.validate(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn env_ports_are_validated_and_partitioned_by_direction() {
        let mut g = TaskGraph::new("g");
        let a = g.add_task("a", Resources::ZERO, 0, 1);
        let b = g.add_task("b", Resources::ZERO, 0, 1);
        g.add_env_input("in", 4, [a, b]).unwrap();
        g.add_env_output("out", 2, [b]).unwrap();
        assert_eq!(g.env_inputs().count(), 1);
        assert_eq!(g.env_outputs().count(), 1);
        assert_eq!(
            g.add_env_input("bad", 1, []).unwrap_err(),
            GraphError::EmptyEnvPort("bad".into())
        );
        assert_eq!(
            g.add_env_input("dup", 1, [a, a]).unwrap_err(),
            GraphError::DuplicateEnvTask("dup".into(), a)
        );
    }

    #[test]
    fn write_key_renders_every_field() {
        let mut g = TaskGraph::new("g");
        let a = g.add_task_kind("a", "T1", Resources::new(1, 2, 3, 4), 5, 6);
        let b = g.add_task("b \"q\"", Resources::clbs(7), 8, 9);
        g.add_edge(a, b, 10).unwrap();
        g.add_env_input("in", 11, [a]).unwrap();
        g.add_env_output("out", 12, [a, b]).unwrap();
        let mut key = String::new();
        g.write_key(&mut key);
        assert_eq!(
            key,
            r#"graph "g"; tasks 2: "a" "T1" 1 2 3 4 5 6, "b \"q\"" "" 7 0 0 0 8 9,; edges 1: 0>1 10,; ports 2: "in" in 11 1: 0, "out" out 12 2: 0 1,"#
        );
    }

    #[test]
    fn serde_round_trip() {
        let (g, _) = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let back: TaskGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
