//! The Figure-8 DCT behavior task graph.
//!
//! *"The entire DCT is a collection of 32 tasks, where each task is a vector
//! product. … There are two kinds of tasks in the task graph, T1 and T2,
//! whose structure is similar to the vector product, but whose bit widths
//! differ. A collection of 8 tasks, forms a row of the 4x4 output matrix …
//! The entire task graph consists of 4 such collections of tasks."*
//!
//! Concretely, with `Z = C·X·Cᵀ`:
//!
//! * `T1[r][c]` computes `Y[r][c] = Σ_k C[r][k]·X[k][c]` — it reads column
//!   `c` of the input block (an environment port of 4 words shared by the
//!   four T1 tasks of column `c`) and produces one word;
//! * `T2[r][c]` computes `Z[r][c] = Σ_k Y[r][k]·C[c][k]` — it reads the four
//!   T1 outputs of row `r` (edges of one word each) and produces one word of
//!   the output row port.
//!
//! Environment accounting therefore gives partition 1 sixteen input words
//! plus sixteen crossing words (the paper's 32), and each T2 partition eight
//! in plus eight out (the paper's 16).

use sparcs_dfg::{GraphError, TaskGraph, TaskId};
use sparcs_estimate::estimator::Estimator;
use sparcs_estimate::opgraph::OpGraph;
use sparcs_estimate::{paper, EstimateError, TaskEstimate};

/// Which estimation backend supplies `R(t)` / `D(t)` for the DCT tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimateBackend {
    /// The exact §4 constants (70/180 CLBs, partition clocks) — used by the
    /// table reproductions.
    #[default]
    PaperCalibrated,
    /// The first-principles component-library estimator (lands within ~25 %
    /// of the paper; used by ablations).
    ComponentLibrary,
}

/// The generated DCT task graph plus its bookkeeping.
#[derive(Debug, Clone)]
pub struct DctTaskGraph {
    /// The 32-task behavior graph.
    pub graph: TaskGraph,
    /// `t1[r][c]` task ids.
    pub t1: [[TaskId; 4]; 4],
    /// `t2[r][c]` task ids.
    pub t2: [[TaskId; 4]; 4],
    /// Symmetry groups for the ILP model: the four T1 tasks of each row are
    /// interchangeable, as are the four T2 tasks of each row.
    pub symmetry_groups: Vec<Vec<TaskId>>,
    /// The estimates used for T1 and T2 tasks.
    pub t1_estimate: TaskEstimate,
    /// See `t1_estimate`.
    pub t2_estimate: TaskEstimate,
}

/// Builds the DCT task graph with the given estimation backend.
///
/// # Errors
///
/// Returns an [`EstimateError`] if the component-library backend fails to
/// schedule the vector products (cannot happen for the shipped library) —
/// graph construction itself is infallible by design.
pub fn dct_task_graph(backend: EstimateBackend) -> Result<DctTaskGraph, EstimateError> {
    let (t1_est, t2_est) = match backend {
        EstimateBackend::PaperCalibrated => (paper::t1_estimate(), paper::t2_estimate()),
        EstimateBackend::ComponentLibrary => {
            let est = Estimator::new(
                sparcs_estimate::ComponentLibrary::xc4000(),
                paper::STATIC_CLOCK_NS,
            );
            let t1 = est.estimate(&OpGraph::vector_product(4, 8, 9))?;
            let t2 = est.estimate(&OpGraph::vector_product(4, 12, 17))?;
            (t1, t2)
        }
    };

    let mut g = TaskGraph::new("dct-4x4");
    let mut t1 = [[TaskId(0); 4]; 4];
    let mut t2 = [[TaskId(0); 4]; 4];
    for r in 0..4 {
        for c in 0..4 {
            t1[r][c] = g.add_task_kind(
                format!("T1_{r}{c}"),
                "T1",
                t1_est.resources,
                t1_est.delay_ns,
                1,
            );
        }
    }
    for r in 0..4 {
        for c in 0..4 {
            t2[r][c] = g.add_task_kind(
                format!("T2_{r}{c}"),
                "T2",
                t2_est.resources,
                t2_est.delay_ns,
                1,
            );
        }
    }
    // Data dependencies: T2[r][c] reads all four Y[r][k] = T1[r][k] outputs.
    for r in 0..4 {
        for c in 0..4 {
            for k in 0..4 {
                g.add_edge(t1[r][k], t2[r][c], 1)
                    .expect("bipartite rows are acyclic");
            }
        }
    }
    // Environment inputs: column c of X (4 words) read by T1[*][c].
    for c in 0..4 {
        let consumers: Vec<TaskId> = (0..4).map(|r| t1[r][c]).collect();
        g.add_env_input(format!("X_col{c}"), 4, consumers)
            .expect("valid consumers");
    }
    // Environment outputs: row r of Z (4 words) produced by T2[r][*].
    for r in 0..4 {
        let producers: Vec<TaskId> = (0..4).map(|c| t2[r][c]).collect();
        g.add_env_output(format!("Z_row{r}"), 4, producers)
            .expect("valid producers");
    }

    let mut symmetry_groups = Vec::with_capacity(8);
    for r in 0..4 {
        symmetry_groups.push(t1[r].to_vec());
        symmetry_groups.push(t2[r].to_vec());
    }

    Ok(DctTaskGraph {
        graph: g,
        t1,
        t2,
        symmetry_groups,
        t1_estimate: t1_est,
        t2_estimate: t2_est,
    })
}

impl DctTaskGraph {
    /// Validates the graph structure (always a DAG for this constructor).
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from the underlying validation.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.graph.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcs_dfg::Resources;

    fn dct() -> DctTaskGraph {
        dct_task_graph(EstimateBackend::PaperCalibrated).expect("paper backend is infallible")
    }

    #[test]
    fn thirty_two_tasks_two_kinds() {
        let d = dct();
        assert_eq!(d.graph.task_count(), 32);
        let t1s = d.graph.tasks().filter(|(_, t)| t.kind == "T1").count();
        let t2s = d.graph.tasks().filter(|(_, t)| t.kind == "T2").count();
        assert_eq!((t1s, t2s), (16, 16));
        d.validate().unwrap();
    }

    #[test]
    fn paper_costs_attached() {
        let d = dct();
        assert_eq!(d.t1_estimate.resources, Resources::clbs(70));
        assert_eq!(d.t2_estimate.resources, Resources::clbs(180));
        assert_eq!(d.t1_estimate.delay_ns, 3_400);
        assert_eq!(d.t2_estimate.delay_ns, 2_520);
    }

    #[test]
    fn bipartite_row_structure() {
        let d = dct();
        // 16 T2 tasks × 4 in-edges = 64 edges.
        assert_eq!(d.graph.edge_count(), 64);
        for r in 0..4 {
            for c in 0..4 {
                let preds: Vec<TaskId> = d.graph.predecessors(d.t2[r][c]).collect();
                assert_eq!(preds.len(), 4);
                for k in 0..4 {
                    assert!(
                        preds.contains(&d.t1[r][k]),
                        "T2[{r}][{c}] reads Y[{r}][{k}]"
                    );
                }
            }
        }
    }

    #[test]
    fn env_ports_are_sixteen_words_each_way() {
        let d = dct();
        let in_words: u64 = d.graph.env_inputs().map(|(_, p)| p.words).sum();
        let out_words: u64 = d.graph.env_outputs().map(|(_, p)| p.words).sum();
        assert_eq!(in_words, 16, "the 4x4 input block");
        assert_eq!(out_words, 16, "the 4x4 output block");
    }

    #[test]
    fn total_resources_match_paper_preprocessing() {
        let d = dct();
        // ΣR = 16·70 + 16·180 = 4000 → N₀ = ⌈4000/1600⌉ = 3.
        let total = d.graph.total_resources();
        assert_eq!(total, Resources::clbs(4000));
        assert_eq!(total.min_bins(&Resources::clbs(1600)), Some(3));
    }

    #[test]
    fn symmetry_groups_cover_all_rows() {
        let d = dct();
        assert_eq!(d.symmetry_groups.len(), 8);
        assert!(d.symmetry_groups.iter().all(|g| g.len() == 4));
        let mut all: Vec<TaskId> = d.symmetry_groups.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 32, "groups are disjoint and cover all tasks");
    }

    #[test]
    fn component_library_backend_close_to_paper() {
        let d = dct_task_graph(EstimateBackend::ComponentLibrary).unwrap();
        let t1 = d.t1_estimate.resources.clbs as f64;
        let t2 = d.t2_estimate.resources.clbs as f64;
        assert!((t1 - 70.0).abs() / 70.0 < 0.25, "T1 {t1}");
        assert!((t2 - 180.0).abs() / 180.0 < 0.25, "T2 {t2}");
    }

    #[test]
    fn roots_and_leaves_are_the_stages() {
        let d = dct();
        assert_eq!(d.graph.roots().len(), 16, "all T1 are roots");
        assert_eq!(d.graph.leaves().len(), 16, "all T2 are leaves");
    }
}
