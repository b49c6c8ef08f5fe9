//! The paper's §4 JPEG/DCT case study, wired end to end.
//!
//! [`DctExperiment`] runs the whole flow on the Figure-8 task graph: task
//! estimation → exact ILP temporal partitioning → loop-fission analysis —
//! and then *builds the executable design*: every temporal partition becomes
//! a functional [`Configuration`] whose kernel evaluates exactly the vector
//! products assigned to it, reading its inputs from the simulated board
//! memory. Running the FDH/IDH sequencers on synthetic images therefore
//! checks both the timing shape of Tables 1–2 and the bit-exactness of the
//! partitioned DCT against the monolithic fixed-point reference.
//!
//! Among the many delay-optimal solutions (all T2 tasks are
//! interchangeable), the experiment canonicalizes the T2 assignment to whole
//! output rows in partition order — the memory-minimizing tie-break the
//! paper's tool evidently applied, giving the quoted `(32, 16, 16)` words.

use crate::cache::PartitionCache;
use crate::flow::{FlowError, FlowSession, IlpStrategy};
use sparcs_core::fission::FissionAnalysis;
use sparcs_core::model::ModelConfig;
use sparcs_core::partitioning::{MemoryMode, PartitionId, Partitioning};
use sparcs_core::{PartitionOptions, PartitionedDesign};
use sparcs_dfg::TaskId;
use sparcs_estimate::{paper, Architecture};
use sparcs_jpeg::fixed::{coef_matrix, t1_vector_product, t2_vector_product};
use sparcs_jpeg::{dct_task_graph, DctTaskGraph, EstimateBackend};
use sparcs_rtr::{Configuration, InputSource, RtrDesign, StaticDesign};
use std::fmt;

/// Errors from assembling the case study.
#[derive(Debug)]
pub enum CaseStudyError {
    /// Estimation failed.
    Estimate(sparcs_estimate::EstimateError),
    /// The synthesis flow (partitioning or fission) failed.
    Flow(FlowError),
}

impl fmt::Display for CaseStudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseStudyError::Estimate(e) => write!(f, "{e}"),
            CaseStudyError::Flow(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CaseStudyError {}

impl From<sparcs_estimate::EstimateError> for CaseStudyError {
    fn from(e: sparcs_estimate::EstimateError) -> Self {
        CaseStudyError::Estimate(e)
    }
}

impl From<FlowError> for CaseStudyError {
    fn from(e: FlowError) -> Self {
        CaseStudyError::Flow(e)
    }
}

/// The assembled §4 experiment.
#[derive(Debug, Clone)]
pub struct DctExperiment {
    /// The Figure-8 task graph and its bookkeeping.
    pub dct: DctTaskGraph,
    /// The target board.
    pub arch: Architecture,
    /// The ILP partitioning result (canonicalized — see module docs).
    pub design: PartitionedDesign,
    /// The loop-fission analysis (`k`, strategies, …).
    pub fission: FissionAnalysis,
}

impl DctExperiment {
    /// The experiment exactly as the paper ran it: paper-calibrated
    /// estimates on the XC4044/WildForce board.
    ///
    /// # Errors
    ///
    /// See [`CaseStudyError`].
    pub fn paper() -> Result<Self, CaseStudyError> {
        Self::with(
            EstimateBackend::PaperCalibrated,
            Architecture::xc4044_wildforce(),
        )
    }

    /// The experiment with a chosen estimation backend and board.
    ///
    /// # Errors
    ///
    /// See [`CaseStudyError`].
    pub fn with(backend: EstimateBackend, arch: Architecture) -> Result<Self, CaseStudyError> {
        let dct = dct_task_graph(backend)?;
        let opts = PartitionOptions {
            model: ModelConfig {
                declared_symmetry: dct.symmetry_groups.clone(),
                ..ModelConfig::default()
            },
            ..PartitionOptions::default()
        };
        let session = FlowSession::new(dct.graph.clone(), arch.clone());
        // The ILP solve dominates experiment assembly and is identical for
        // identical (graph, board, options) triples — the global partition
        // cache answers every re-assembly after the first, which is what
        // lets tests, benches and explorations build experiments freely.
        let analyzed = session
            .partition_with_cache(&IlpStrategy::with_options(opts), PartitionCache::global())?
            // Canonicalization permutes tasks within declared symmetry
            // groups only, so the ILP's optimality claim survives.
            .map_partitioning(|_, p| canonicalize_rows(&dct, &p))?
            .analyze()?;
        Ok(DctExperiment {
            dct,
            arch,
            design: analyzed.design,
            fission: analyzed.fission,
        })
    }

    /// Validates the partitioning against the architecture.
    pub fn violations(&self) -> Vec<sparcs_core::partitioning::Violation> {
        self.design
            .partitioning
            .validate(&self.dct.graph, &self.arch, MemoryMode::Net)
    }

    /// Builds the executable RTR design: one functional configuration per
    /// temporal partition, with input selectors derived from the task graph
    /// (partition 3 reads the partition-1 values that stay resident while
    /// partition 2 runs — the paper's Figure 6 situation).
    pub fn rtr_design(&self) -> RtrDesign {
        let part = &self.design.partitioning;
        let n = part.partition_count();
        // Value → history-index map. History: 16 X words (column-major:
        // X[k][c] at index c·4+k), then each partition's outputs in order.
        // A T1/T2 task's output is keyed by its TaskId.
        let mut value_index: Vec<Option<u32>> = vec![None; self.dct.graph.task_count()];
        let mut history_len: u32 = 16;
        let coef = coef_matrix();
        let (t1_ids, t2_ids) = (self.dct.t1, self.dct.t2);
        // Position helpers: for a task id, find its (r, c) and stage.
        let locate = |t: TaskId| -> (bool, usize, usize) {
            for r in 0..4 {
                for c in 0..4 {
                    if t1_ids[r][c] == t {
                        return (true, r, c);
                    }
                    if t2_ids[r][c] == t {
                        return (false, r, c);
                    }
                }
            }
            unreachable!("every task is a T1 or T2");
        };

        let mut configurations = Vec::with_capacity(n as usize);
        for p in part.partitions() {
            let tasks = part.tasks_in(p);
            // Outputs of this partition: values consumed later (T1 outputs
            // with a consumer outside p) plus every T2 output (environment).
            let mut outputs: Vec<TaskId> = Vec::new();
            for &t in &tasks {
                let (is_t1, _, _) = locate(t);
                let crosses = if is_t1 {
                    self.dct
                        .graph
                        .successors(t)
                        .any(|s| part.partition_of(s) != p)
                } else {
                    true // Z values leave through the environment
                };
                if crosses {
                    outputs.push(t);
                }
            }
            outputs.sort_unstable();

            // External inputs: X columns for T1 tasks; Y values produced in
            // earlier partitions for T2 tasks.
            let mut selector: Vec<u32> = Vec::new();
            let push_unique = |sel: &mut Vec<u32>, idx: u32| -> usize {
                match sel.iter().position(|&v| v == idx) {
                    Some(pos) => pos,
                    None => {
                        sel.push(idx);
                        sel.len() - 1
                    }
                }
            };
            // Plan the kernel as two fissioned passes over one flat value
            // scratch: `vals[0..in_w]` holds the selected inputs and
            // `vals[in_w..]` the partition's local results, so every
            // operand is a single absolute index — no per-operand source
            // dispatch in the hot loop. T1 results never depend on other
            // locals and T2 reads only inputs and T1 locals, so running
            // all T1 products before all T2 products preserves dataflow.
            /// One T1 product: `vals[dst] = coef[r] · vals[xs]`.
            #[derive(Clone, Copy)]
            struct T1Op {
                r: u8,
                xs: [u8; 4],
                dst: u8,
            }
            /// One T2 product: `vals[dst] = vals[ys] · coef[c]` (rounded).
            #[derive(Clone, Copy)]
            struct T2Op {
                c: u8,
                ys: [u8; 4],
                dst: u8,
            }
            let mut t1_ops: Vec<T1Op> = Vec::new();
            let mut t2_ops: Vec<T2Op> = Vec::new();
            let mut local_of: Vec<Option<usize>> = vec![None; self.dct.graph.task_count()];
            for (li, &t) in tasks.iter().enumerate() {
                local_of[t.index()] = Some(li);
            }
            // Local scratch rows, T1 results strictly before T2 results:
            // with that ordering every op's operand rows sit strictly below
            // its destination row, which is what lets the lane-parallel
            // batch kernel split-borrow its scratch per op.
            let nt1 = tasks.iter().filter(|&&t| locate(t).0).count();
            let mut row_of: Vec<usize> = Vec::with_capacity(tasks.len());
            let (mut t1_rank, mut t2_rank) = (0usize, 0usize);
            for &t in &tasks {
                if locate(t).0 {
                    row_of.push(t1_rank);
                    t1_rank += 1;
                } else {
                    row_of.push(nt1 + t2_rank);
                    t2_rank += 1;
                }
            }
            // Operand indices are planned relative to a moving `in_w`
            // boundary; they are rebased once the selector is final.
            /// A T2 product before rebasing: column `c`, four operands
            /// (`Ok` = selector slot, `Err` = local T1 row), local index.
            type PendingT2 = (usize, [Result<usize, usize>; 4], usize);
            let mut pending_t2: Vec<PendingT2> = Vec::new();
            for &t in &tasks {
                let (is_t1, r, c) = locate(t);
                let li = local_of[t.index()].expect("task in partition");
                if is_t1 {
                    let mut xs = [0u8; 4];
                    for (k, slot) in xs.iter_mut().enumerate() {
                        // X[k][c] lives at history index c·4+k.
                        *slot = push_unique(&mut selector, (c * 4 + k) as u32) as u8;
                    }
                    t1_ops.push(T1Op {
                        r: r as u8,
                        xs,
                        dst: row_of[li] as u8,
                    });
                } else {
                    let mut ys = [Ok(0usize); 4];
                    for (k, slot) in ys.iter_mut().enumerate() {
                        let producer = t1_ids[r][k];
                        *slot = if part.partition_of(producer) == p {
                            // Local: index past the input region (rebased).
                            Err(row_of[local_of[producer.index()].expect("producer in partition")])
                        } else {
                            let hist = value_index[producer.index()]
                                .expect("temporal order: producer already placed");
                            Ok(push_unique(&mut selector, hist))
                        };
                    }
                    pending_t2.push((c, ys, li));
                }
            }
            let in_w = selector.len();
            for op in &mut t1_ops {
                op.dst += in_w as u8;
            }
            for (c, ys, li) in pending_t2 {
                let mut abs = [0u8; 4];
                for (k, slot) in abs.iter_mut().enumerate() {
                    *slot = match ys[k] {
                        Ok(ext) => ext as u8,
                        Err(li) => (in_w + li) as u8,
                    };
                }
                t2_ops.push(T2Op {
                    c: c as u8,
                    ys: abs,
                    dst: (in_w + row_of[li]) as u8,
                });
            }
            // Record this partition's outputs in the history map.
            let mut out_pos: Vec<usize> = Vec::with_capacity(outputs.len());
            for &t in &outputs {
                value_index[t.index()] = Some(history_len);
                history_len += 1;
                out_pos.push(
                    tasks
                        .iter()
                        .position(|&x| x == t)
                        .expect("output belongs to partition"),
                );
            }

            let delay = self.design.partition_delays_ns[p.index()];
            // ≤ 32 selected inputs plus ≤ 32 task locals fit the fixed
            // scratch; a stack array keeps the kernel allocation-free.
            assert!(
                in_w + tasks.len() <= 64,
                "DCT partition scratch exceeds 64 values"
            );
            let out_idx: Vec<u8> = out_pos.iter().map(|&i| (in_w + row_of[i]) as u8).collect();
            let (t1_b, t2_b, out_b) = (t1_ops.clone(), t2_ops.clone(), out_idx.clone());
            let kernel = move |ins: &[i32], out: &mut [i32]| {
                let mut vals = [0i32; 64];
                vals[..ins.len()].copy_from_slice(ins);
                for op in &t1_ops {
                    let col = [
                        vals[op.xs[0] as usize] as i16,
                        vals[op.xs[1] as usize] as i16,
                        vals[op.xs[2] as usize] as i16,
                        vals[op.xs[3] as usize] as i16,
                    ];
                    vals[op.dst as usize] = t1_vector_product(&coef[op.r as usize], &col);
                }
                for op in &t2_ops {
                    let row = [
                        vals[op.ys[0] as usize],
                        vals[op.ys[1] as usize],
                        vals[op.ys[2] as usize],
                        vals[op.ys[3] as usize],
                    ];
                    vals[op.dst as usize] = t2_vector_product(&row, &coef[op.c as usize]);
                }
                for (o, &i) in out.iter_mut().zip(&out_idx) {
                    *o = vals[i as usize];
                }
            };
            // The lane-parallel form of the same plan: each fissioned pass
            // becomes a per-op loop over all lanes, so the four operand
            // streams are unit-stride rows and the products autovectorize.
            // Operand rows always sit below the destination row (see the
            // local-row numbering above), so each op split-borrows scratch.
            let n_rows = in_w + tasks.len();
            let batch_kernel =
                move |lanes: usize, ins: &[i32], outs: &mut [i32], scratch: &mut Vec<i32>| {
                    let need = n_rows * lanes;
                    if scratch.len() < need {
                        scratch.resize(need, 0);
                    }
                    // Stale scratch contents are harmless: every row is
                    // written (inputs copied, locals computed) before read.
                    let vals = &mut scratch[..need];
                    vals[..in_w * lanes].copy_from_slice(&ins[..in_w * lanes]);
                    for op in &t1_b {
                        let (lo, hi) = vals.split_at_mut(op.dst as usize * lanes);
                        let x0 = &lo[op.xs[0] as usize * lanes..][..lanes];
                        let x1 = &lo[op.xs[1] as usize * lanes..][..lanes];
                        let x2 = &lo[op.xs[2] as usize * lanes..][..lanes];
                        let x3 = &lo[op.xs[3] as usize * lanes..][..lanes];
                        let row = &coef[op.r as usize];
                        for (l, y) in hi[..lanes].iter_mut().enumerate() {
                            let col = [x0[l] as i16, x1[l] as i16, x2[l] as i16, x3[l] as i16];
                            *y = t1_vector_product(row, &col);
                        }
                    }
                    for op in &t2_b {
                        let (lo, hi) = vals.split_at_mut(op.dst as usize * lanes);
                        let y0 = &lo[op.ys[0] as usize * lanes..][..lanes];
                        let y1 = &lo[op.ys[1] as usize * lanes..][..lanes];
                        let y2 = &lo[op.ys[2] as usize * lanes..][..lanes];
                        let y3 = &lo[op.ys[3] as usize * lanes..][..lanes];
                        let col = &coef[op.c as usize];
                        for (l, z) in hi[..lanes].iter_mut().enumerate() {
                            let row = [y0[l], y1[l], y2[l], y3[l]];
                            *z = t2_vector_product(&row, col);
                        }
                    }
                    for (o, &row) in out_b.iter().enumerate() {
                        outs[o * lanes..(o + 1) * lanes]
                            .copy_from_slice(&vals[row as usize * lanes..][..lanes]);
                    }
                };
            configurations.push(
                Configuration::new(
                    format!("{p}"),
                    delay,
                    selector,
                    outputs.len() as u64,
                    kernel,
                )
                .with_batch_kernel(batch_kernel),
            );
        }
        // Design output: Z row-major.
        let mut out_sel = Vec::with_capacity(16);
        for r in 0..4 {
            for c in 0..4 {
                out_sel.push(value_index[t2_ids[r][c].index()].expect("Z produced"));
            }
        }
        RtrDesign::new(configurations, 16, out_sel, self.fission.k)
    }

    /// The static baseline: the whole DCT in one configuration
    /// (160 cycles at 100 ns in the paper).
    pub fn static_design(&self) -> StaticDesign {
        StaticDesign::new(paper::STATIC_DELAY_NS, 16, 16, |ins, out| {
            // Input is column-major X; the reference wants rows.
            let mut x = [[0i16; 4]; 4];
            for c in 0..4 {
                for k in 0..4 {
                    x[k][c] = ins[c * 4 + k] as i16;
                }
            }
            let z = sparcs_jpeg::fixed::forward_fixed(&x);
            for (o, v) in out.iter_mut().zip(z.iter().flatten()) {
                *o = *v;
            }
        })
    }

    /// Flattens an image into the design's input stream (column-major 4×4
    /// blocks).
    pub fn input_stream(img: &sparcs_jpeg::Image) -> Vec<i32> {
        img.blocks()
            .iter()
            .flat_map(|b| (0..4).flat_map(move |c| (0..4).map(move |k| i32::from(b[k][c]))))
            .collect()
    }

    /// An [`InputSource`] over the same stream as
    /// [`DctExperiment::input_stream`], computed word by word from the
    /// image's pixels — nothing is flattened up front, so streaming an
    /// image through a sequencer holds only the batch buffers.
    pub fn image_source(img: &sparcs_jpeg::Image) -> ImageBlockSource<'_> {
        ImageBlockSource { img, cursor: 0 }
    }
}

/// Streams an image's DCT input words (column-major 4×4 blocks, raster
/// block order) directly from the pixel store. See
/// [`DctExperiment::image_source`].
#[derive(Debug, Clone)]
pub struct ImageBlockSource<'a> {
    img: &'a sparcs_jpeg::Image,
    cursor: u64,
}

impl InputSource for ImageBlockSource<'_> {
    fn len_words(&self) -> u64 {
        self.img.block_count() * 16
    }

    fn read(&mut self, buf: &mut [i32]) {
        let blocks_per_row = (self.img.width / 4) as u64;
        for (off, slot) in buf.iter_mut().enumerate() {
            let word = self.cursor + off as u64;
            let (block, within) = (word / 16, word % 16);
            let (bx, by) = (block % blocks_per_row, block / blocks_per_row);
            // Column-major within the block: word c·4+k is X[k][c], i.e.
            // the level-shifted pixel at (bx·4 + c, by·4 + k).
            let (c, k) = (within / 4, within % 4);
            let pixel = self.img.pixel((bx * 4 + c) as usize, (by * 4 + k) as usize);
            *slot = i32::from(pixel) - 128;
        }
        self.cursor += buf.len() as u64;
    }
}

/// Reassigns interchangeable T2 tasks so whole output rows group together in
/// partition order, preserving per-partition T1/T2 counts (all constraints
/// are symmetric under this permutation; memory shrinks or stays equal).
fn canonicalize_rows(dct: &DctTaskGraph, part: &Partitioning) -> Partitioning {
    let mut assignment: Vec<PartitionId> = part.assignment().to_vec();
    // Count T2 slots per partition.
    let mut slots: Vec<(PartitionId, usize)> = part
        .partitions()
        .map(|p| {
            let count = part
                .tasks_in(p)
                .iter()
                .filter(|&&t| dct.graph.task(t).kind == "T2")
                .count();
            (p, count)
        })
        .filter(|(_, c)| *c > 0)
        .collect();
    slots.sort_by_key(|&(p, _)| p);
    // Hand out T2 tasks row-major into the slots.
    let mut t2_row_major: Vec<TaskId> = Vec::with_capacity(16);
    for r in 0..4 {
        for c in 0..4 {
            t2_row_major.push(dct.t2[r][c]);
        }
    }
    let mut cursor = 0usize;
    for (p, count) in slots {
        for _ in 0..count {
            assignment[t2_row_major[cursor].index()] = p;
            cursor += 1;
        }
    }
    Partitioning::new(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcs_jpeg::fixed;

    #[test]
    fn paper_experiment_reproduces_section4() {
        let exp = DctExperiment::paper().unwrap();
        assert_eq!(exp.design.partitioning.partition_count(), 3);
        assert_eq!(exp.design.partition_delays_ns, vec![3_400, 2_520, 2_520]);
        assert_eq!(exp.design.sum_delay_ns, 8_440);
        assert_eq!(exp.fission.m_temp_words, vec![32, 16, 16]);
        assert_eq!(exp.fission.k, 2_048);
        assert!(exp.violations().is_empty());
    }

    #[test]
    fn image_source_streams_the_exact_input_stream() {
        let img = sparcs_jpeg::Image::noise(16, 12, 7); // 12 blocks
        let materialized = DctExperiment::input_stream(&img);
        let mut source = DctExperiment::image_source(&img);
        assert_eq!(source.len_words(), materialized.len() as u64);
        // Pull in deliberately awkward chunk sizes.
        let mut streamed = Vec::new();
        let mut remaining = materialized.len();
        for len in std::iter::repeat([7usize, 16, 1, 40]).flatten() {
            let n = len.min(remaining);
            let mut buf = vec![0i32; n];
            source.read(&mut buf);
            streamed.extend_from_slice(&buf);
            remaining -= n;
            if remaining == 0 {
                break;
            }
        }
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn rtr_design_matches_monolithic_dct() {
        let exp = DctExperiment::paper().unwrap();
        let design = exp.rtr_design();
        assert_eq!(design.partition_count(), 3);
        assert_eq!(design.delay_per_computation_ns(), 8_440);
        // Block geometry: the paper's (32, 16, 16).
        let blocks: Vec<u64> = design
            .configurations
            .iter()
            .map(|c| c.block_words)
            .collect();
        assert_eq!(blocks, vec![32, 16, 16]);

        // Bit-exact equivalence on a nontrivial block.
        let mut x = [[0i16; 4]; 4];
        for (i, row) in x.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (i as i16 * 37 + j as i16 * 11) % 128 - 64;
            }
        }
        let reference: Vec<i32> = fixed::forward_fixed(&x).iter().flatten().copied().collect();
        let ins: Vec<i32> = (0..4)
            .flat_map(|c| (0..4).map(move |k| i32::from(x[k][c])))
            .collect();
        assert_eq!(design.compute_one(&ins), reference);
    }
}
