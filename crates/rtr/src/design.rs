//! Executable designs: configurations with timing *and* behaviour.
//!
//! A [`Configuration`] is one temporal partition as loaded onto the FPGA:
//! its per-computation delay (from the HLS estimates), its memory-block
//! geometry (from the loop-fission analysis) and a *kernel* closure that
//! computes its actual outputs, so simulations are bit-exact, not just
//! timing-shaped.
//!
//! ## Dataflow model
//!
//! Per computation, the design maintains a *value history*: the primary
//! input words followed by each configuration's output words in order. A
//! configuration's [`Configuration::input_selector`] picks its input words
//! from that history — which expresses both plain pipelines (each stage
//! reads the previous stage's outputs) and the DCT's pattern where
//! partition 3 reads values produced by partition 1 that merely stay
//! resident in board memory while partition 2 runs. The design's final
//! output is likewise a selector over the history ([`RtrDesign::output_selector`]).

use std::fmt;
use std::sync::Arc;

/// The functional behaviour of one configuration: reads one computation's
/// selected input words and writes its output words into the caller's
/// slice (exactly `output_words` long). The out-parameter form lets the
/// batch drivers run a whole batch of kernels over one contiguous output
/// buffer with zero per-call allocation — and makes a wrong-width result
/// unrepresentable.
pub type Kernel = Arc<dyn Fn(&[i32], &mut [i32]) + Send + Sync>;

/// The lane-parallel (structure-of-arrays) form of [`Kernel`] — the only
/// form the host drivers execute.
///
/// Called as `batch_kernel(lanes, ins, outs, scratch)` where `ins` holds
/// the configuration's input words transposed into `input_words` rows of
/// `lanes` values each (row *r* at `ins[r*lanes..(r+1)*lanes]`, one value
/// per computation lane) and `outs` likewise holds `output_words` rows of
/// `lanes` values to fill. Hosts pass between one and
/// [`MAX_BATCH_LANES`] lanes per call, so kernels may size fixed scratch
/// against that bound. `scratch` is a host-owned buffer reused across
/// calls: kernels may grow it and must not assume it arrives zeroed.
///
/// For every lane a batch kernel must produce exactly what the
/// configuration's scalar [`Kernel`] — the per-computation reference —
/// produces for the same inputs; the equivalence proptests hold it to
/// that.
pub type BatchKernel = Arc<dyn Fn(usize, &[i32], &mut [i32], &mut Vec<i32>) + Send + Sync>;

/// Upper bound on the `lanes` argument of a [`BatchKernel`] call. Chosen
/// so one lane chunk's transposed inputs, outputs and kernel scratch all
/// stay L1/L2-resident.
pub const MAX_BATCH_LANES: usize = 64;

/// One temporal partition as a loadable FPGA configuration.
#[derive(Clone)]
pub struct Configuration {
    /// Name for reports (e.g. `"P1: 16 x T1"`).
    pub name: String,
    /// Delay of one computation on this configuration, in ns.
    pub delay_per_computation_ns: u64,
    /// Which history words this configuration reads (one entry per input
    /// word; indices into the value history — see module docs).
    pub input_selector: Vec<u32>,
    /// Output words produced per computation.
    pub output_words: u64,
    /// Memory-block size per computation (defaults to inputs + outputs —
    /// the paper's `m_i_temp`; larger under power-of-two rounding).
    pub block_words: u64,
    /// The computation itself (per-computation reference form, run by
    /// [`RtrDesign::compute_one`] and [`RtrDesign::to_static`]).
    pub kernel: Kernel,
    /// The lane-parallel form of [`Self::kernel`] the host drivers run:
    /// a per-lane adapter over the scalar kernel unless
    /// [`Self::with_batch_kernel`] attached a native one.
    pub batch_kernel: BatchKernel,
}

impl fmt::Debug for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Configuration")
            .field("name", &self.name)
            .field("delay_per_computation_ns", &self.delay_per_computation_ns)
            .field("input_words", &self.input_selector.len())
            .field("output_words", &self.output_words)
            .field("block_words", &self.block_words)
            .finish_non_exhaustive()
    }
}

impl Configuration {
    /// Creates a configuration reading the given history words. The block
    /// defaults to exactly `inputs + outputs` words. Its batch kernel is a
    /// per-lane adapter: for each lane it gathers the lane's input column
    /// into `scratch`, runs the scalar kernel there, and scatters the
    /// outputs back — correct for any kernel, and allocation-free once
    /// `scratch` holds one row of inputs and outputs.
    ///
    /// # Panics
    ///
    /// Panics if the configuration moves no data at all.
    pub fn new(
        name: impl Into<String>,
        delay_per_computation_ns: u64,
        input_selector: Vec<u32>,
        output_words: u64,
        kernel: impl Fn(&[i32], &mut [i32]) + Send + Sync + 'static,
    ) -> Self {
        assert!(
            !input_selector.is_empty() || output_words > 0,
            "a configuration must move data"
        );
        let block_words = input_selector.len() as u64 + output_words;
        let kernel: Kernel = Arc::new(kernel);
        let scalar = Arc::clone(&kernel);
        let batch_kernel =
            move |lanes: usize, ins: &[i32], outs: &mut [i32], scratch: &mut Vec<i32>| {
                let (iw, ow) = (ins.len() / lanes.max(1), outs.len() / lanes.max(1));
                scratch.resize(iw + ow, 0);
                let (row_in, row_out) = scratch.split_at_mut(iw);
                for l in 0..lanes {
                    for (d, src) in row_in.iter_mut().zip(ins.chunks_exact(lanes)) {
                        *d = src[l];
                    }
                    scalar(row_in, row_out);
                    for (&v, dst) in row_out.iter().zip(outs.chunks_exact_mut(lanes)) {
                        dst[l] = v;
                    }
                }
            };
        Configuration {
            name: name.into(),
            delay_per_computation_ns,
            input_selector,
            output_words,
            block_words,
            kernel,
            batch_kernel: Arc::new(batch_kernel),
        }
    }

    /// Replaces the per-lane adapter with a native lane-parallel kernel —
    /// see [`BatchKernel`] for the layout contract. The scalar kernel stays
    /// the reference; the batch form must match it lane for lane.
    pub fn with_batch_kernel(
        mut self,
        batch_kernel: impl Fn(usize, &[i32], &mut [i32], &mut Vec<i32>) + Send + Sync + 'static,
    ) -> Self {
        self.batch_kernel = Arc::new(batch_kernel);
        self
    }

    /// Input words consumed per computation.
    pub fn input_words(&self) -> u64 {
        self.input_selector.len() as u64
    }

    /// Overrides the block size (power-of-two rounding).
    ///
    /// # Panics
    ///
    /// Panics if `block_words < input_words + output_words`.
    pub fn with_block_words(mut self, block_words: u64) -> Self {
        assert!(
            block_words >= self.input_words() + self.output_words,
            "block must hold the computation's data"
        );
        self.block_words = block_words;
        self
    }
}

/// A run-time reconfigured design: ordered configurations plus the fission
/// batch size `k`.
#[derive(Debug, Clone)]
pub struct RtrDesign {
    /// The temporal partitions in execution order.
    pub configurations: Vec<Configuration>,
    /// Primary input words per computation.
    pub primary_input_words: u64,
    /// Which history words form the design's final output.
    pub output_selector: Vec<u32>,
    /// Computations per configuration run (the fission `k`).
    pub k: u64,
}

impl RtrDesign {
    /// Builds a design with explicit selectors, validating that every
    /// selector index stays within the history available at its stage.
    ///
    /// # Panics
    ///
    /// Panics on empty configurations, zero `k`, or out-of-range selector
    /// indices (these are construction bugs, not runtime conditions).
    pub fn new(
        configurations: Vec<Configuration>,
        primary_input_words: u64,
        output_selector: Vec<u32>,
        k: u64,
    ) -> Self {
        assert!(
            !configurations.is_empty(),
            "need at least one configuration"
        );
        assert!(k >= 1, "k must be positive");
        let mut history = primary_input_words;
        for (i, c) in configurations.iter().enumerate() {
            for &idx in &c.input_selector {
                assert!(
                    u64::from(idx) < history,
                    "configuration {i} selects history word {idx} of {history}"
                );
            }
            history += c.output_words;
        }
        for &idx in &output_selector {
            assert!(
                u64::from(idx) < history,
                "output selects history word {idx} of {history}"
            );
        }
        assert!(!output_selector.is_empty(), "design must produce output");
        RtrDesign {
            configurations,
            primary_input_words,
            output_selector,
            k,
        }
    }

    /// Convenience constructor for plain pipelines: each configuration reads
    /// exactly the previous configuration's outputs (the first reads the
    /// primary input), and the design outputs the last stage's words.
    ///
    /// # Panics
    ///
    /// Panics if consecutive interface widths disagree (see
    /// [`RtrDesign::new`] for the other conditions).
    pub fn linear(configurations: Vec<Configuration>, k: u64) -> Self {
        assert!(
            !configurations.is_empty(),
            "need at least one configuration"
        );
        let primary = configurations[0].input_words();
        let mut base = 0u64;
        let mut prev_words = primary;
        let mut fixed = Vec::with_capacity(configurations.len());
        for (i, mut c) in configurations.into_iter().enumerate() {
            assert_eq!(
                c.input_words(),
                prev_words,
                "configuration {i} input width mismatches the previous stage"
            );
            c.input_selector = (base..base + prev_words).map(|v| v as u32).collect();
            base += prev_words;
            prev_words = c.output_words;
            fixed.push(c);
        }
        let out: Vec<u32> = (base..base + prev_words).map(|v| v as u32).collect();
        RtrDesign::new(fixed, primary, out, k)
    }

    /// Number of temporal partitions `N`.
    pub fn partition_count(&self) -> u32 {
        self.configurations.len() as u32
    }

    /// Per-computation delay over all partitions, `Σ d_p`.
    pub fn delay_per_computation_ns(&self) -> u64 {
        self.configurations
            .iter()
            .map(|c| c.delay_per_computation_ns)
            .sum()
    }

    /// Largest per-computation block among partitions.
    pub fn max_block_words(&self) -> u64 {
        self.configurations
            .iter()
            .map(|c| c.block_words)
            .max()
            .unwrap_or(0)
    }

    /// Output words per computation.
    pub fn output_words(&self) -> u64 {
        self.output_selector.len() as u64
    }

    /// Runs one computation through every scalar kernel (no timing, no
    /// memory model), with per-stage temporaries — the *reference
    /// specification* the lane-chunked batch drivers in [`crate::host`]
    /// are checked against.
    ///
    /// # Panics
    ///
    /// Panics if `input` length differs from `primary_input_words`.
    pub fn compute_one(&self, input: &[i32]) -> Vec<i32> {
        assert_eq!(input.len() as u64, self.primary_input_words);
        let mut history = input.to_vec();
        for c in &self.configurations {
            let ins: Vec<i32> = c
                .input_selector
                .iter()
                .map(|&i| history[i as usize])
                .collect();
            let base = history.len();
            history.resize(base + c.output_words as usize, 0);
            (c.kernel)(&ins, &mut history[base..]);
        }
        self.output_selector
            .iter()
            .map(|&i| history[i as usize])
            .collect()
    }

    /// Collapses the pipeline into its single-configuration equivalent:
    /// one kernel computing the whole design per computation, with the
    /// summed per-partition delay — the baseline row of every paper table.
    /// (Kernels are shared via `Arc`, so the embedded clone is cheap.)
    pub fn to_static(&self) -> StaticDesign {
        let pipeline = self.clone();
        StaticDesign::new(
            self.delay_per_computation_ns(),
            self.primary_input_words,
            self.output_words(),
            move |x, out| out.copy_from_slice(&pipeline.compute_one(x)),
        )
    }
}

/// The static (single-configuration) baseline design.
#[derive(Clone)]
pub struct StaticDesign {
    /// Per-computation delay in ns (the paper's 160 cycles × 100 ns).
    pub delay_per_computation_ns: u64,
    /// Input words per computation.
    pub input_words: u64,
    /// Output words per computation.
    pub output_words: u64,
    /// The full computation.
    pub kernel: Kernel,
}

impl fmt::Debug for StaticDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StaticDesign")
            .field("delay_per_computation_ns", &self.delay_per_computation_ns)
            .field("input_words", &self.input_words)
            .field("output_words", &self.output_words)
            .finish_non_exhaustive()
    }
}

impl StaticDesign {
    /// Creates the static baseline.
    pub fn new(
        delay_per_computation_ns: u64,
        input_words: u64,
        output_words: u64,
        kernel: impl Fn(&[i32], &mut [i32]) + Send + Sync + 'static,
    ) -> Self {
        StaticDesign {
            delay_per_computation_ns,
            input_words,
            output_words,
            kernel: Arc::new(kernel),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn double_kernel(words: u64) -> Configuration {
        Configuration::new(
            "double",
            100,
            (0..words as u32).collect(),
            words,
            |x, out| {
                for (o, v) in out.iter_mut().zip(x) {
                    *o = v * 2;
                }
            },
        )
    }

    #[test]
    fn linear_pipeline_composes() {
        let design = RtrDesign::linear(vec![double_kernel(2), double_kernel(2)], 4);
        assert_eq!(design.compute_one(&[1, 5]), vec![4, 20]);
        assert_eq!(design.partition_count(), 2);
        assert_eq!(design.delay_per_computation_ns(), 200);
        assert_eq!(design.max_block_words(), 4);
        assert_eq!(design.output_words(), 2);
    }

    #[test]
    fn selectors_can_skip_stages() {
        // Stage 1: in 2 → out 2 (doubles). Stage 2 reads the ORIGINAL
        // inputs (history 0..2), not stage 1's outputs; design outputs
        // stage1 ++ stage2.
        let s1 = Configuration::new("s1", 10, vec![0, 1], 2, |x, o| {
            o.copy_from_slice(&[x[0] * 2, x[1] * 2]);
        });
        let s2 = Configuration::new("s2", 10, vec![0, 1], 2, |x, o| {
            o.copy_from_slice(&[x[0] + 1, x[1] + 1]);
        });
        let d = RtrDesign::new(vec![s1, s2], 2, vec![2, 3, 4, 5], 1);
        assert_eq!(d.compute_one(&[10, 20]), vec![20, 40, 11, 21]);
    }

    #[test]
    #[should_panic(expected = "selects history word")]
    fn out_of_range_selector_panics() {
        let s1 = Configuration::new("s1", 10, vec![5], 1, |x, o| o.copy_from_slice(x));
        let _ = RtrDesign::new(vec![s1], 2, vec![0], 1);
    }

    #[test]
    #[should_panic(expected = "input width mismatches")]
    fn linear_mismatch_panics() {
        let s1 = Configuration::new("s1", 10, vec![0, 1], 3, |x, o| {
            o.copy_from_slice(&[x[0], x[1], 0]);
        });
        let s2 = Configuration::new("s2", 10, vec![0, 1], 2, |x, o| o.copy_from_slice(x));
        let _ = RtrDesign::linear(vec![s1, s2], 1);
    }

    #[test]
    fn block_override_validated() {
        let c = double_kernel(3).with_block_words(8);
        assert_eq!(c.block_words, 8);
    }

    #[test]
    #[should_panic(expected = "block must hold")]
    fn too_small_block_panics() {
        let _ = double_kernel(3).with_block_words(4);
    }

    #[test]
    #[should_panic(expected = "at least one configuration")]
    fn empty_design_panics() {
        let _ = RtrDesign::linear(vec![], 4);
    }

    #[test]
    fn to_static_collapses_the_pipeline() {
        let design = RtrDesign::linear(vec![double_kernel(2), double_kernel(2)], 4);
        let stat = design.to_static();
        assert_eq!(stat.delay_per_computation_ns, 200);
        assert_eq!((stat.input_words, stat.output_words), (2, 2));
        let mut out = [0i32; 2];
        (stat.kernel)(&[1, 5], &mut out);
        assert_eq!(out.to_vec(), design.compute_one(&[1, 5]));
    }

    #[test]
    fn debug_impls_do_not_expose_kernels() {
        let s = format!("{:?}", double_kernel(2));
        assert!(s.contains("delay_per_computation_ns"));
        let st = StaticDesign::new(16_000, 16, 16, |x, o| o.copy_from_slice(x));
        assert!(format!("{st:?}").contains("16000"));
    }
}
