//! ILP model generation for temporal partitioning.
//!
//! Faithful encoding of the paper's §2.1 formulation for a fixed partition
//! bound `N`:
//!
//! * **Uniqueness** (Eq. 1): every task sits in exactly one partition.
//! * **Temporal order** (Eq. 2): a producer can never sit in a later
//!   partition than its consumer.
//! * **Memory** (Eq. 3–5): data crossing each boundary must fit `M_max`.
//!   The paper defines the crossing indicators `w` through products of `y`
//!   variables and linearizes them; we emit the standard exact linearization
//!   `w_b ≥ Σ_{q≤b} y_src,q − Σ_{q≤b} y_dst,q` directly (one row per edge and
//!   boundary instead of three). When the worst-case crossing traffic already
//!   fits `M_max`, the `w` layer is provably redundant and skipped.
//! * **Resources** (Eq. 6): per-partition sums bounded by `R_max`, one row
//!   per resource kind with nonzero capacity.
//! * **Delay** (Eq. 7): for every root→leaf path and partition,
//!   `Σ_{t∈π} D(t)·y_tp ≤ d_p`. Path enumeration is budgeted; beyond the
//!   budget the generator falls back to the safe per-partition-sum bound
//!   `Σ_t D(t)·y_tp ≤ d_p` (exact for serial partitions, conservative
//!   otherwise — reported via [`DelayMode`]).
//! * **Objective** (Eq. 8): minimize `Σ d_p` (`N·CT` is constant for fixed
//!   `N` and added back by the driver).
//!
//! Two solver-strength extensions beyond the paper's rows:
//!
//! * **Symmetry breaking**: interchangeable tasks (identical costs and
//!   identical predecessor/successor sets) are forced into non-decreasing
//!   partition order, collapsing the factorial search over identical DCT
//!   vector products.
//! * **Density cuts**: for any delay threshold `D`, a partition that hosts
//!   `ρ` CLBs worth of tasks with `D(t) ≥ D` must satisfy
//!   `d_p ≥ D·ρ/R_max` — valid because `ρ > 0` implies some such task is
//!   present (so `d_p ≥ D`) and `ρ ≤ R_max`. These tighten the LP bound that
//!   plain Eq. 7 leaves loose on fractional `y`.

use crate::partitioning::{MemoryMode, PartitionId, Partitioning};
use sparcs_dfg::{paths, GraphError, TaskGraph, TaskId};
use sparcs_estimate::Architecture;
use sparcs_ilp::{Model, Sense, Solution, Var};
use std::fmt;

/// How the delay constraints were generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayMode {
    /// One row per root→leaf path and partition (exact Figure-4 semantics).
    ExactPaths {
        /// Number of enumerated paths.
        path_count: usize,
    },
    /// Per-partition serial-sum upper bound (used beyond the path budget).
    PartitionSum,
}

/// Maximum number of root→leaf paths enumerated for Eq. 7; a graph with
/// more paths gets the [`DelayMode::PartitionSum`] rows instead.
const PATH_BUDGET: usize = 10_000;

/// Configuration of the model generator.
#[derive(Debug, Clone, Default)]
pub struct ModelConfig {
    /// Edge-based (Eq. 3 literal) or net-based (§4 accounting) memory.
    pub memory_mode: MemoryMode,
    /// Symmetry groups declared by the caller, on top of the auto-detected
    /// ones. Members must have identical costs and identical
    /// predecessor/successor sets (validated).
    pub declared_symmetry: Vec<Vec<TaskId>>,
}

/// Errors from model generation.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelBuildError {
    /// The task graph is invalid.
    Graph(GraphError),
    /// A declared symmetry group member does not satisfy the
    /// interchangeability requirements.
    BadSymmetryGroup(TaskId),
    /// `n` must be at least 1.
    ZeroPartitions,
}

impl fmt::Display for ModelBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelBuildError::Graph(e) => write!(f, "{e}"),
            ModelBuildError::BadSymmetryGroup(t) => {
                write!(f, "task {t} is not interchangeable with its declared group")
            }
            ModelBuildError::ZeroPartitions => write!(f, "partition bound must be >= 1"),
        }
    }
}

impl std::error::Error for ModelBuildError {}

impl From<GraphError> for ModelBuildError {
    fn from(e: GraphError) -> Self {
        ModelBuildError::Graph(e)
    }
}

/// A generated temporal-partitioning model for a fixed `N`, with the
/// variable registry needed to decode solutions.
#[derive(Debug, Clone)]
pub struct PartitionModel {
    /// The underlying mixed 0/1 program.
    pub model: Model,
    /// Partition bound `N` the model was generated for.
    pub n: u32,
    /// How delay rows were generated.
    pub delay_mode: DelayMode,
    /// `y[t][p]` assignment variables.
    y: Vec<Vec<Var>>,
    /// `d[p]` partition-delay variables.
    d: Vec<Var>,
    /// Crossing indicator variables (empty when the memory layer is skipped).
    cross: Vec<CrossVar>,
}

/// Registry entry for one crossing indicator (Eq. 4–5 `w` variable).
#[derive(Debug, Clone, Copy)]
enum CrossVar {
    /// Edge-mode `w`: 1 iff `src` sits at or before `boundary` and `dst`
    /// after it.
    Edge {
        var: Var,
        src: TaskId,
        dst: TaskId,
        boundary: u32,
    },
    /// Net-mode `w`: 1 iff `producer` sits at or before `boundary` and some
    /// consumer after it.
    Net {
        var: Var,
        producer: TaskId,
        boundary: u32,
    },
}

impl PartitionModel {
    /// The assignment variable `y_tp`.
    pub fn y(&self, t: TaskId, p: u32) -> Var {
        self.y[t.index()][p as usize]
    }

    /// The delay variable `d_p`.
    pub fn d(&self, p: u32) -> Var {
        self.d[p as usize]
    }

    /// Decodes a solver solution into a [`Partitioning`] (empty partitions
    /// compact away).
    ///
    /// # Panics
    ///
    /// Panics if the solution vector does not belong to this model.
    pub fn decode(&self, sol: &Solution) -> Partitioning {
        let assignment: Vec<PartitionId> = self
            .y
            .iter()
            .map(|row| {
                let p = row
                    .iter()
                    .position(|v| sol.x[v.index()] > 0.5)
                    .expect("uniqueness row guarantees one assignment");
                PartitionId(p as u32)
            })
            .collect();
        Partitioning::new(assignment)
    }

    /// Encodes a known-feasible partitioning (with at most `n` partitions)
    /// as a warm-start assignment vector for the solver.
    ///
    /// Interchangeable-task symmetry chains are satisfied by canonicalizing
    /// the encoding: within each symmetry class, partition labels are sorted
    /// and re-assigned to members in ascending task order (safe because class
    /// members are indistinguishable to every model constraint).
    ///
    /// Returns `None` if the partitioning uses more than `n` partitions.
    pub fn encode_warm_start(
        &self,
        g: &TaskGraph,
        part: &Partitioning,
        cfg: &ModelConfig,
    ) -> Option<Vec<f64>> {
        if part.partition_count() > self.n {
            return None;
        }
        let mut assignment: Vec<u32> = g.task_ids().map(|t| part.partition_of(t).0).collect();
        // Canonicalize within symmetry classes.
        for class in symmetry_classes(g, cfg) {
            let mut labels: Vec<u32> = class.iter().map(|t| assignment[t.index()]).collect();
            labels.sort_unstable();
            for (t, label) in class.iter().zip(labels) {
                assignment[t.index()] = label;
            }
        }
        let mut x = vec![0.0; self.model.var_count()];
        for (ti, row) in self.y.iter().enumerate() {
            x[row[assignment[ti] as usize].index()] = 1.0;
        }
        // Partition delays for the canonicalized assignment. The value must
        // satisfy the model's delay rows, which depend on its delay mode:
        // `ExactPaths` bounds `d_p` by in-partition critical paths, while
        // the `PartitionSum` fallback (path budget exceeded) uses the
        // coarser `d_p ≥ Σ_{t∈p} δ_t` — there the warm `d_p` must be the
        // plain delay sum or the vector violates its own rows.
        match self.delay_mode {
            DelayMode::ExactPaths { .. } => {
                let canon = Partitioning::new(assignment.iter().map(|&p| PartitionId(p)).collect());
                let delays = crate::delay::partition_delays(g, &canon).ok()?;
                // `canon` is compacted; map its delays back onto raw labels.
                let mut used: Vec<u32> = assignment.clone();
                used.sort_unstable();
                used.dedup();
                for (di, &raw) in used.iter().enumerate() {
                    x[self.d[raw as usize].index()] = delays[di] as f64;
                }
            }
            DelayMode::PartitionSum => {
                let mut sums = vec![0u64; self.n as usize];
                for (t, task) in g.tasks() {
                    sums[assignment[t.index()] as usize] += task.delay_ns;
                }
                for (p, &sum) in sums.iter().enumerate() {
                    x[self.d[p].index()] = sum as f64;
                }
            }
        }
        // Crossing indicators take their implied values.
        for cv in &self.cross {
            match *cv {
                CrossVar::Edge {
                    var,
                    src,
                    dst,
                    boundary,
                } => {
                    let crossing =
                        assignment[src.index()] <= boundary && assignment[dst.index()] > boundary;
                    x[var.index()] = f64::from(u8::from(crossing));
                }
                CrossVar::Net {
                    var,
                    producer,
                    boundary,
                } => {
                    let max_consumer = g
                        .successors(producer)
                        .map(|s| assignment[s.index()])
                        .max()
                        .unwrap_or(assignment[producer.index()]);
                    let crossing =
                        assignment[producer.index()] <= boundary && max_consumer > boundary;
                    x[var.index()] = f64::from(u8::from(crossing));
                }
            }
        }
        Some(x)
    }
}

/// Builds the temporal-partitioning model for a fixed bound `n`.
///
/// # Errors
///
/// See [`ModelBuildError`].
pub fn build_model(
    g: &TaskGraph,
    arch: &Architecture,
    n: u32,
    cfg: &ModelConfig,
) -> Result<PartitionModel, ModelBuildError> {
    if n == 0 {
        return Err(ModelBuildError::ZeroPartitions);
    }
    g.validate()?;
    validate_declared_symmetry(g, cfg)?;

    let t_count = g.task_count();
    let mut model = Model::new(format!("temporal-partitioning-{}-N{}", g.name(), n));

    // --- variables ---------------------------------------------------------
    let y: Vec<Vec<Var>> = (0..t_count)
        .map(|t| {
            (0..n)
                .map(|p| model.add_binary(format!("y_t{t}_p{p}")))
                .collect()
        })
        .collect();
    let total_delay: u64 = g.tasks().map(|(_, t)| t.delay_ns).sum();
    let d: Vec<Var> = (0..n)
        .map(|p| model.add_continuous(format!("d_p{p}"), 0.0, total_delay as f64))
        .collect();

    // --- Eq. 1: uniqueness --------------------------------------------------
    for (ti, row) in y.iter().enumerate() {
        model.add_constraint(
            format!("uniq_t{ti}"),
            row.iter().map(|&v| (v, 1.0)),
            Sense::Eq,
            1.0,
        );
    }

    // --- Eq. 2: temporal order ----------------------------------------------
    // For each edge t1 → t2 and each partition p2 < N−1:
    //   y_{t2,p2} + Σ_{p1 > p2} y_{t1,p1} ≤ 1.
    for (ei, e) in g.edges().iter().enumerate() {
        for p2 in 0..n.saturating_sub(1) {
            let mut terms = vec![(y[e.dst.index()][p2 as usize], 1.0)];
            terms.extend(((p2 + 1)..n).map(|p1| (y[e.src.index()][p1 as usize], 1.0)));
            model.add_constraint(format!("order_e{ei}_p{p2}"), terms, Sense::Le, 1.0);
        }
    }

    // --- Eq. 3–5: memory ----------------------------------------------------
    // Skip the whole layer when even the worst case fits M_max.
    let worst_crossing: u64 = match cfg.memory_mode {
        MemoryMode::Edge => g.edges().iter().map(|e| e.words).sum(),
        MemoryMode::Net => g
            .tasks()
            .filter(|(t, _)| g.out_degree(*t) > 0)
            .map(|(_, task)| task.output_words)
            .sum(),
    };
    let mut cross: Vec<CrossVar> = Vec::new();
    if n > 1 && worst_crossing > arch.memory_words {
        match cfg.memory_mode {
            MemoryMode::Edge => {
                for b in 0..(n - 1) {
                    let mut mem_terms = Vec::new();
                    for (ei, e) in g.edges().iter().enumerate() {
                        let w = model.add_binary(format!("w_e{ei}_b{b}"));
                        cross.push(CrossVar::Edge {
                            var: w,
                            src: e.src,
                            dst: e.dst,
                            boundary: b,
                        });
                        // w ≥ Σ_{q≤b} y_src,q − Σ_{q≤b} y_dst,q
                        let mut terms = vec![(w, 1.0)];
                        for q in 0..=b {
                            terms.push((y[e.src.index()][q as usize], -1.0));
                            terms.push((y[e.dst.index()][q as usize], 1.0));
                        }
                        model.add_constraint(format!("wdef_e{ei}_b{b}"), terms, Sense::Ge, 0.0);
                        mem_terms.push((w, e.words as f64));
                    }
                    model.add_constraint(
                        format!("mem_b{b}"),
                        mem_terms,
                        Sense::Le,
                        arch.memory_words as f64,
                    );
                }
            }
            MemoryMode::Net => {
                for b in 0..(n - 1) {
                    let mut mem_terms = Vec::new();
                    for (t, task) in g.tasks() {
                        if g.out_degree(t) == 0 {
                            continue;
                        }
                        let w = model.add_binary(format!("net_t{}_b{b}", t.0));
                        cross.push(CrossVar::Net {
                            var: w,
                            producer: t,
                            boundary: b,
                        });
                        for s in g.successors(t) {
                            let mut terms = vec![(w, 1.0)];
                            for q in 0..=b {
                                terms.push((y[t.index()][q as usize], -1.0));
                                terms.push((y[s.index()][q as usize], 1.0));
                            }
                            model.add_constraint(
                                format!("netdef_t{}_s{}_b{b}", t.0, s.0),
                                terms,
                                Sense::Ge,
                                0.0,
                            );
                        }
                        mem_terms.push((w, task.output_words as f64));
                    }
                    model.add_constraint(
                        format!("mem_b{b}"),
                        mem_terms,
                        Sense::Le,
                        arch.memory_words as f64,
                    );
                }
            }
        }
    }

    // --- Eq. 6: resources ---------------------------------------------------
    let caps: Vec<(&'static str, u64)> = arch.resources.components().collect();
    for (kind_idx, &(kind, cap)) in caps.iter().enumerate() {
        let demands: Vec<u64> = g
            .tasks()
            .map(|(_, t)| t.resources.components().nth(kind_idx).expect("kind").1)
            .collect();
        if demands.iter().all(|&r| r == 0) {
            continue;
        }
        for p in 0..n {
            model.add_constraint(
                format!("res_{kind}_p{p}"),
                g.task_ids()
                    .filter(|t| demands[t.index()] > 0)
                    .map(|t| (y[t.index()][p as usize], demands[t.index()] as f64)),
                Sense::Le,
                cap as f64,
            );
        }
    }

    // --- Eq. 7: delay -------------------------------------------------------
    let delay_mode = match paths::enumerate_paths(g, PATH_BUDGET) {
        Ok(all_paths) => {
            for (pi, path) in all_paths.iter().enumerate() {
                for p in 0..n {
                    let mut terms: Vec<(Var, f64)> = path
                        .tasks
                        .iter()
                        .map(|&t| (y[t.index()][p as usize], g.task(t).delay_ns as f64))
                        .collect();
                    terms.push((d[p as usize], -1.0));
                    model.add_constraint(format!("delay_path{pi}_p{p}"), terms, Sense::Le, 0.0);
                }
            }
            DelayMode::ExactPaths {
                path_count: all_paths.len(),
            }
        }
        Err(paths::EnumerateError::Budget(_)) => {
            for p in 0..n {
                let mut terms: Vec<(Var, f64)> = g
                    .tasks()
                    .map(|(t, task)| (y[t.index()][p as usize], task.delay_ns as f64))
                    .collect();
                terms.push((d[p as usize], -1.0));
                model.add_constraint(format!("delay_sum_p{p}"), terms, Sense::Le, 0.0);
            }
            DelayMode::PartitionSum
        }
        Err(paths::EnumerateError::Graph(e)) => return Err(ModelBuildError::Graph(e)),
    };

    // --- density cuts -------------------------------------------------------
    if arch.resources.clbs > 0 {
        let mut thresholds: Vec<u64> = g.tasks().map(|(_, t)| t.delay_ns).collect();
        thresholds.sort_unstable_by(|a, b| b.cmp(a));
        thresholds.dedup();
        thresholds.truncate(8);
        let rmax = arch.resources.clbs as f64;
        for (di, &thr) in thresholds.iter().enumerate() {
            if thr == 0 {
                continue;
            }
            for p in 0..n {
                let mut terms: Vec<(Var, f64)> = g
                    .tasks()
                    .filter(|(_, t)| t.delay_ns >= thr && t.resources.clbs > 0)
                    .map(|(t, task)| {
                        (
                            y[t.index()][p as usize],
                            thr as f64 * task.resources.clbs as f64 / rmax,
                        )
                    })
                    .collect();
                if terms.is_empty() {
                    continue;
                }
                terms.push((d[p as usize], -1.0));
                model.add_constraint(format!("density_{di}_p{p}"), terms, Sense::Le, 0.0);
            }
        }
    }

    // --- symmetry breaking --------------------------------------------------
    for class in symmetry_classes(g, cfg) {
        for pair in class.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            for p in 0..n.saturating_sub(1) {
                // Σ_{q≤p} y_a,q ≥ Σ_{q≤p} y_b,q
                let mut terms = Vec::with_capacity(2 * (p as usize + 1));
                for q in 0..=p {
                    terms.push((y[a.index()][q as usize], 1.0));
                    terms.push((y[b.index()][q as usize], -1.0));
                }
                model.add_constraint(format!("sym_t{}_t{}_p{p}", a.0, b.0), terms, Sense::Ge, 0.0);
            }
        }
    }

    // --- Eq. 8: objective ---------------------------------------------------
    model.set_objective_min(d.iter().map(|&v| (v, 1.0)));

    Ok(PartitionModel {
        model,
        n,
        delay_mode,
        y,
        d,
        cross,
    })
}

/// Computes the symmetry classes used by the model: declared groups plus
/// auto-detected ones. Classes are disjoint; auto-detection skips tasks
/// already covered by declared groups.
fn symmetry_classes(g: &TaskGraph, cfg: &ModelConfig) -> Vec<Vec<TaskId>> {
    let mut classes: Vec<Vec<TaskId>> = Vec::new();
    let mut covered = vec![false; g.task_count()];
    for group in &cfg.declared_symmetry {
        let mut sorted = group.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() >= 2 {
            for &t in &sorted {
                covered[t.index()] = true;
            }
            classes.push(sorted);
        }
    }
    // Auto-detection: identical costs and identical pred/succ sets.
    let signature = |t: TaskId| {
        let task = g.task(t);
        let mut preds: Vec<TaskId> = g.predecessors(t).collect();
        preds.sort_unstable();
        let mut succs: Vec<TaskId> = g.successors(t).collect();
        succs.sort_unstable();
        (
            task.kind.clone(),
            task.resources,
            task.delay_ns,
            task.output_words,
            preds,
            succs,
        )
    };
    let mut buckets: Vec<(_, Vec<TaskId>)> = Vec::new();
    for t in g.task_ids() {
        if covered[t.index()] {
            continue;
        }
        let sig = signature(t);
        match buckets.iter_mut().find(|(s, _)| *s == sig) {
            Some((_, v)) => v.push(t),
            None => buckets.push((sig, vec![t])),
        }
    }
    for (_, v) in buckets {
        if v.len() >= 2 {
            classes.push(v);
        }
    }
    classes
}

/// Validates that declared symmetry groups really are interchangeable at the
/// model level (equal costs and equal predecessor/successor sets).
fn validate_declared_symmetry(g: &TaskGraph, cfg: &ModelConfig) -> Result<(), ModelBuildError> {
    for group in &cfg.declared_symmetry {
        let Some((&first, rest)) = group.split_first() else {
            continue;
        };
        if first.index() >= g.task_count() {
            return Err(ModelBuildError::Graph(GraphError::UnknownTask(first)));
        }
        let key = |t: TaskId| {
            let task = g.task(t);
            let mut preds: Vec<TaskId> = g.predecessors(t).collect();
            preds.sort_unstable();
            let mut succs: Vec<TaskId> = g.successors(t).collect();
            succs.sort_unstable();
            (
                task.resources,
                task.delay_ns,
                task.output_words,
                preds,
                succs,
            )
        };
        let first_key = key(first);
        for &t in rest {
            if t.index() >= g.task_count() {
                return Err(ModelBuildError::Graph(GraphError::UnknownTask(t)));
            }
            if key(t) != first_key {
                return Err(ModelBuildError::BadSymmetryGroup(t));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcs_dfg::{gen, Resources, TaskGraph};
    use sparcs_ilp::{solve, SolveOptions};

    fn arch_small(clbs: u64, mem: u64) -> Architecture {
        let mut a = Architecture::xc4044_wildforce();
        a.resources = Resources::clbs(clbs);
        a.memory_words = mem;
        a
    }

    #[test]
    fn fig4_model_solves_to_paper_delays() {
        let g = gen::fig4_example();
        // 1000 CLBs for the five P1 tasks + 1000 for the two P2 tasks; the
        // device holds 1200, so two partitions are necessary and sufficient.
        let arch = arch_small(1200, 100);
        let pm = build_model(&g, &arch, 2, &ModelConfig::default()).unwrap();
        let sol = solve(&pm.model, &SolveOptions::default(), &|| false).unwrap();
        // Optimal split: chains in partition 1 (delay 400), sink chain in
        // partition 2 (delay 300) → Σ d = 700.
        assert!(
            (sol.objective - 700.0).abs() < 1e-6,
            "obj {}",
            sol.objective
        );
        let part = pm.decode(&sol);
        assert_eq!(part.partition_count(), 2);
        let delays = crate::delay::partition_delays(&g, &part).unwrap();
        assert_eq!(delays, vec![400, 300]);
    }

    #[test]
    fn infeasible_when_task_bigger_than_device() {
        let g = gen::fig4_example(); // largest task: 500 CLBs
        let arch = arch_small(400, 100);
        let pm = build_model(&g, &arch, 7, &ModelConfig::default()).unwrap();
        let err = solve(&pm.model, &SolveOptions::default(), &|| false).unwrap_err();
        assert_eq!(err, sparcs_ilp::SolveError::Infeasible);
    }

    #[test]
    fn memory_constraint_forces_different_split() {
        // Chain a(big out) → b → c. Splitting after `a` stores 100 words;
        // with M_max = 10 the model must split after `b` instead.
        let mut g = TaskGraph::new("memsplit");
        let a = g.add_task("a", Resources::clbs(60), 100, 100);
        let b = g.add_task("b", Resources::clbs(60), 100, 1);
        let c = g.add_task("c", Resources::clbs(60), 100, 1);
        g.add_edge(a, b, 100).unwrap();
        g.add_edge(b, c, 1).unwrap();
        // Device fits two tasks per partition.
        let arch = arch_small(120, 10);
        let pm = build_model(&g, &arch, 2, &ModelConfig::default()).unwrap();
        let sol = solve(&pm.model, &SolveOptions::default(), &|| false).unwrap();
        let part = pm.decode(&sol);
        assert_eq!(part.partition_of(a), part.partition_of(b), "a,b together");
        assert_ne!(part.partition_of(b), part.partition_of(c));
        assert!(part.validate(&g, &arch, MemoryMode::Net).is_empty());
    }

    #[test]
    fn memory_layer_skipped_when_worst_case_fits() {
        let g = gen::fig4_example();
        let arch = arch_small(1200, 1_000_000);
        let pm = build_model(&g, &arch, 2, &ModelConfig::default()).unwrap();
        assert!(
            !pm.model
                .constraints()
                .iter()
                .any(|c| c.name.starts_with("mem_")),
            "no memory rows expected"
        );
    }

    #[test]
    fn edge_vs_net_memory_feasibility_differs() {
        // One producer (4-word value) feeding two consumers across a split:
        // edge mode counts 8 words, net mode 4. With M_max = 5 only net mode
        // can split after the producer; edge mode must co-locate. Force the
        // split with resources: producer alone fills a partition.
        let mut g = TaskGraph::new("edgenet");
        let a = g.add_task("a", Resources::clbs(100), 10, 4);
        let b = g.add_task("b", Resources::clbs(100), 10, 1);
        let c = g.add_task("c", Resources::clbs(100), 10, 1);
        g.add_edge(a, b, 4).unwrap();
        g.add_edge(a, c, 4).unwrap();
        let arch = arch_small(200, 5);
        let net_cfg = ModelConfig::default();
        let pm = build_model(&g, &arch, 2, &net_cfg).unwrap();
        let sol = solve(&pm.model, &SolveOptions::default(), &|| false).unwrap();
        let part = pm.decode(&sol);
        assert!(part.validate(&g, &arch, MemoryMode::Net).is_empty());

        let edge_cfg = ModelConfig {
            memory_mode: MemoryMode::Edge,
            ..ModelConfig::default()
        };
        let pm = build_model(&g, &arch, 2, &edge_cfg).unwrap();
        // Edge mode: any split stores 8 > 5 words; but everything together
        // needs 300 > 200 CLBs. Infeasible at N = 2 regardless of layout?
        // Splitting {a,b}|{c} stores only edge a→c = 4 ≤ 5: feasible. The
        // solver must find such a split and it must be edge-feasible.
        let sol = solve(&pm.model, &SolveOptions::default(), &|| false).unwrap();
        let part = pm.decode(&sol);
        assert!(part.validate(&g, &arch, MemoryMode::Edge).is_empty());
    }

    #[test]
    fn symmetry_classes_detected_for_parallel_twins() {
        // Two identical middle tasks with equal pred/succ sets.
        let mut g = TaskGraph::new("twins");
        let s = g.add_task("s", Resources::clbs(1), 5, 1);
        let m1 = g.add_task("m1", Resources::clbs(7), 9, 1);
        let m2 = g.add_task("m2", Resources::clbs(7), 9, 1);
        let t = g.add_task("t", Resources::clbs(1), 5, 1);
        for m in [m1, m2] {
            g.add_edge(s, m, 1).unwrap();
            g.add_edge(m, t, 1).unwrap();
        }
        let classes = symmetry_classes(&g, &ModelConfig::default());
        assert_eq!(classes, vec![vec![m1, m2]]);
    }

    #[test]
    fn declared_symmetry_is_validated() {
        let mut g = TaskGraph::new("bad");
        let a = g.add_task("a", Resources::clbs(1), 5, 1);
        let b = g.add_task("b", Resources::clbs(2), 5, 1); // different cost
        let cfg = ModelConfig {
            declared_symmetry: vec![vec![a, b]],
            ..ModelConfig::default()
        };
        let arch = arch_small(100, 100);
        assert_eq!(
            build_model(&g, &arch, 2, &cfg).unwrap_err(),
            ModelBuildError::BadSymmetryGroup(b)
        );
    }

    #[test]
    fn zero_partitions_rejected() {
        let g = gen::fig4_example();
        let arch = arch_small(1200, 100);
        assert_eq!(
            build_model(&g, &arch, 0, &ModelConfig::default()).unwrap_err(),
            ModelBuildError::ZeroPartitions
        );
    }

    #[test]
    fn partition_sum_fallback_beyond_path_budget() {
        // A complete ladder of 15 stages with 2 tasks each: every task
        // feeds both tasks of the next stage, so there are 2^15 root→leaf
        // paths, beyond the enumeration budget.
        let mut g = TaskGraph::new("ladder");
        let mut prev: Vec<TaskId> = Vec::new();
        for stage in 0..15 {
            let this: Vec<TaskId> = (0..2)
                .map(|i| g.add_task(format!("s{stage}_{i}"), Resources::clbs(100), 10, 1))
                .collect();
            for &src in &prev {
                for &dst in &this {
                    g.add_edge(src, dst, 1).unwrap();
                }
            }
            prev = this;
        }
        assert!(paths::count_paths(&g).unwrap() > PATH_BUDGET as u128);
        // 3000 CLBs of tasks on a 1600-CLB device: two partitions needed.
        let arch = arch_small(1600, 100);
        let pm = build_model(&g, &arch, 2, &ModelConfig::default()).unwrap();
        assert_eq!(pm.delay_mode, DelayMode::PartitionSum);
        // Still solvable; objective becomes the serial-sum bound.
        let sol = solve(&pm.model, &SolveOptions::default(), &|| false).unwrap();
        let part = pm.decode(&sol);
        assert!(part.validate(&g, &arch, MemoryMode::Net).is_empty());
    }

    #[test]
    fn multi_resource_constraints_force_splits() {
        // Three tasks, each tiny in CLBs but using 2 multiplier blocks; the
        // device has 4 CLB-room for all three but only 2 multipliers, so at
        // least two partitions are needed and the model must see it.
        let mut g = TaskGraph::new("multi");
        let r = Resources::new(10, 0, 2, 0);
        let a = g.add_task("a", r, 5, 1);
        let b = g.add_task("b", r, 5, 1);
        let c = g.add_task("c", r, 5, 1);
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, c, 1).unwrap();
        let mut arch = arch_small(1_000, 100);
        arch.resources = Resources::new(1_000, 0, 2, 0);
        // N = 1 and N = 2 are infeasible (3 tasks × 2 mults > 2 per partition
        // allows only 1 task per partition).
        for n in [1, 2] {
            let pm = build_model(&g, &arch, n, &ModelConfig::default()).unwrap();
            assert_eq!(
                solve(&pm.model, &SolveOptions::default(), &|| false).unwrap_err(),
                sparcs_ilp::SolveError::Infeasible,
                "N = {n}"
            );
        }
        let pm = build_model(&g, &arch, 3, &ModelConfig::default()).unwrap();
        let sol = solve(&pm.model, &SolveOptions::default(), &|| false).unwrap();
        let part = pm.decode(&sol);
        assert_eq!(part.partition_count(), 3);
    }

    #[test]
    fn density_cuts_tighten_the_lp_relaxation() {
        // The DCT shape: 16 light T1 tasks feeding 16 heavy T2 tasks on a
        // 1600-CLB device needing N = 3. The plain LP spreads y fractionally
        // and bottoms out at the critical path (5920 ns); the density cuts
        // force Σd_p ≥ D·ΣR/R_max ≈ 6300 ns — closer to the 8440 optimum.
        let mut g = TaskGraph::new("dense");
        let mut first = Vec::new();
        for i in 0..16 {
            first.push(g.add_task(format!("a{i}"), Resources::clbs(70), 3_400, 1));
        }
        for i in 0..16 {
            let t = g.add_task(format!("b{i}"), Resources::clbs(180), 2_520, 1);
            for &f in &first {
                g.add_edge(f, t, 1).unwrap();
            }
        }
        let arch = arch_small(1_600, 1_000_000);
        let with = build_model(&g, &arch, 3, &ModelConfig::default()).unwrap();
        let without = without_density_rows(&with.model);
        assert!(without.constraint_count() < with.model.constraint_count());
        let bound = |m: &sparcs_ilp::Model| match sparcs_ilp::simplex::solve_lp(m, 200_000).unwrap()
        {
            sparcs_ilp::LpOutcome::Optimal(s) => s.objective,
            other => panic!("{other:?}"),
        };
        let b_with = bound(&with.model);
        let b_without = bound(&without);
        assert!(
            b_with > b_without + 1.0,
            "cuts must tighten: {b_with} vs {b_without}"
        );
        // And the integer optimum is identical under both models.
        let o_with = solve(&with.model, &SolveOptions::default(), &|| false)
            .unwrap()
            .objective;
        let o_without = solve(&without, &SolveOptions::default(), &|| false)
            .unwrap()
            .objective;
        assert!((o_with - o_without).abs() < 1e-6);
    }

    /// A copy of `m` without its `density_*` rows.
    fn without_density_rows(m: &sparcs_ilp::Model) -> sparcs_ilp::Model {
        use sparcs_ilp::VarKind;
        let mut out = sparcs_ilp::Model::new(m.name());
        for i in 0..m.var_count() {
            let v = Var(i as u32);
            let (lo, hi) = m.var_bounds(v);
            match m.var_kind(v) {
                VarKind::Binary => out.add_binary(m.var_name(v)),
                VarKind::Integer => out.add_integer(m.var_name(v), lo, hi),
                VarKind::Continuous => out.add_continuous(m.var_name(v), lo, hi),
            };
        }
        for c in m.constraints() {
            if !c.name.starts_with("density_") {
                out.add_constraint(c.name.clone(), c.expr.terms.clone(), c.sense, c.rhs);
            }
        }
        out.set_objective_min(m.objective().expr().terms.clone());
        out
    }

    #[test]
    fn warm_start_round_trip() {
        let g = gen::fig4_example();
        let arch = arch_small(1200, 100);
        let cfg = ModelConfig::default();
        let pm = build_model(&g, &arch, 2, &cfg).unwrap();
        let assign: Vec<PartitionId> = (0..7).map(|i| PartitionId(u32::from(i >= 5))).collect();
        let part = Partitioning::new(assign);
        let warm = pm.encode_warm_start(&g, &part, &cfg).unwrap();
        assert!(
            pm.model.violations(&warm, 1e-6).is_empty(),
            "warm start must satisfy the model: {:?}",
            pm.model.violations(&warm, 1e-6)
        );
        let opts = SolveOptions {
            warm_incumbent: Some(warm),
            ..SolveOptions::default()
        };
        let sol = solve(&pm.model, &opts, &|| false).unwrap();
        assert!((sol.objective - 700.0).abs() < 1e-6);
    }
}
