//! Host sequencers: static baseline, FDH and IDH (paper §2.2).
//!
//! All three sequencers are *functional* — they run each configuration's
//! kernel on real data — and *timed* with one consistent transfer
//! convention: host↔memory traffic moves whole per-computation blocks
//! (`block_words` per direction), exactly the granularity of the paper's
//! "Load block j / Read block j" listings and of its IDH overhead formula
//! `2·k·I_sw·D_m·m_i`. Board memory enters as that `D_m` charge and as the
//! `k · max block ≤ M_max` budget; the words that stay resident between
//! configurations live in each computation's value history (see
//! [`crate::design`]).
//!
//! ## The streaming drivers
//!
//! Execution is a *batch-pull* loop: a [`Sequencer`] pulls one batch of
//! `k` computations' input words from an [`InputSource`], runs every
//! slot's kernel, and pushes the batch's real outputs into an
//! [`OutputSink`] before touching the next batch. Host buffers hold
//! `min(k, I)` slots (at least one): one value history per slot, whose
//! length is fixed by the design, plus one lane chunk of
//! structure-of-arrays rows. They never grow with the workload, so a
//! synthetic multi-gigabyte stream runs at constant memory, and a short
//! stream on a huge board does not allocate the whole board. The
//! [`TimeReport`] accumulates incrementally alongside the data, charged
//! per `k`-slot batch from the formulas, not from the buffers.
//!
//! Within a batch the RTR drivers are *loop-fissioned* like the designs
//! they simulate. There is one execute path: `execute_batch` walks the
//! slots in chunks of up to [`MAX_BATCH_LANES`] lanes and runs a load
//! pass (gather the chunk's selected inputs straight into
//! structure-of-arrays rows), a compute pass (one call of the
//! configuration's [`crate::design::BatchKernel`] over every lane) and a
//! store pass (scatter the outputs to the histories). A
//! configuration without a native batch kernel runs its scalar
//! [`Configuration::kernel`] through the per-lane adapter that
//! [`Configuration::new`] installs; the scalar kernel stays the
//! reference, and streaming tests pin both forms bit-identical.
//! [`PhaseProfile`] reports the host nanoseconds of each pass (the
//! end-to-end benchmark reports them as `rtr.load.ms`, `rtr.compute.ms`
//! and `rtr.store.ms`).
//!
//! [`Sequencer::run_slice`] is the slice-in/vector-out convenience over
//! these drivers ([`SliceSource`] in, [`VecSink`] out), with bit-identical
//! outputs and timings.
//!
//! ## Timing conventions
//!
//! `D_m` is calibrated as `Architecture::transfer_ns_per_word` documents.
//!
//! * **Static**: one configuration load, then per pulled computation
//!   `max(delay, duplex transfer)` — input/output streaming is double
//!   buffered behind computation, with one exposed prologue/epilogue.
//! * **FDH**: fully serialized — per pulled batch the driver charges the
//!   batch input load, the full reconfiguration cascade, the kernels, and
//!   the batch output read; the cascade dominates by orders of magnitude,
//!   so overlap would change nothing visible.
//! * **IDH**: double buffered per batch: each batch costs
//!   `max(k·d_i, in-flight traffic)`, where the in-flight traffic is the
//!   next batch's input load plus the previous batch's output read (so the
//!   first and last batch overlap only one half-transfer, and a single
//!   batch overlaps none); one half-transfer prologue and epilogue per
//!   partition is exposed. This matches the loop-fission analysis'
//!   `idh_total_time_overlapped_ns` exactly. The *timing* walks
//!   configurations in the paper's order (each loaded once, all batches
//!   streamed through it); the *data* loop is batch-major so no
//!   whole-workload intermediate store is ever held — per-slot computations
//!   are independent, so the outputs and the accumulated report are
//!   identical either way.
//!
//! Every run processes whole batches of `k` computations — the synthesized
//! datapath always iterates `k` times, and when the real input count `I` is
//! not a multiple of `k` the tail slots compute garbage that the host simply
//! does not push downstream (*"only the first I computations from the output
//! will have to be picked up"*).

use crate::design::{Configuration, RtrDesign, StaticDesign, MAX_BATCH_LANES};
use crate::report::TimeReport;
use crate::stream::{InputSource, OutputSink, SliceSource, VecSink};
use sparcs_estimate::Architecture;
use std::fmt;
use std::time::Instant;

/// Host wall-clock nanoseconds spent in each phase of the fissioned batch
/// loop — *measured* time on the simulating host, not simulated board time
/// (that is [`TimeReport`]'s job). The RTR drivers process every batch as
/// load-all / compute-all / store-all passes over contiguous buffers;
/// this records where the host actually spends its cycles.
///
/// [`StaticSequencer`] is not fissioned (its board block holds a single
/// computation); it reports its whole per-computation loop under
/// [`PhaseProfile::compute_ns`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Input staging: source pulls, history seeding, gathers into the
    /// kernels' input rows.
    pub load_ns: u64,
    /// Kernel execution over whole batches.
    pub compute_ns: u64,
    /// Output stores: history appends, the design's output gather, sink
    /// pushes.
    pub store_ns: u64,
}

/// Elapsed nanoseconds since `t0`, saturated into `u64`.
fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Errors from the host sequencers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// The design's batched blocks do not fit the board memory.
    MemoryBudget {
        /// Words needed (`k · max block`).
        needed: u64,
        /// Words available (`M_max`).
        available: u64,
    },
    /// The input length is not a multiple of the design's input width.
    InputShape {
        /// Required divisor.
        expected_multiple: u64,
    },
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::MemoryBudget { needed, available } => {
                write!(
                    f,
                    "design needs {needed} words but the board has {available}"
                )
            }
            HostError::InputShape { expected_multiple } => {
                write!(f, "input length must be a multiple of {expected_multiple}")
            }
        }
    }
}

impl std::error::Error for HostError {}

/// A timed host-execution driver: pulls whole batches from an
/// [`InputSource`], runs them through the simulated board, and pushes the
/// results into an [`OutputSink`] — constant host memory in the workload
/// size. Implemented by [`StaticSequencer`], [`FdhSequencer`] and
/// [`IdhSequencer`].
pub trait Sequencer {
    /// Short name for reports ("static", "FDH", "IDH").
    fn name(&self) -> &'static str;

    /// Input words pulled per computation.
    fn input_words(&self) -> u64;

    /// Output words pushed per computation.
    fn output_words(&self) -> u64;

    /// Streams the whole source through the board into the sink, returning
    /// the incremental time report.
    ///
    /// # Errors
    ///
    /// See [`HostError`].
    fn run(
        &self,
        source: &mut dyn InputSource,
        sink: &mut dyn OutputSink,
    ) -> Result<TimeReport, HostError> {
        self.run_profiled(source, sink).map(|(report, _)| report)
    }

    /// Streams like [`Sequencer::run`], additionally returning the host's
    /// measured wall-clock [`PhaseProfile`] over the batch phases.
    ///
    /// # Errors
    ///
    /// See [`HostError`].
    fn run_profiled(
        &self,
        source: &mut dyn InputSource,
        sink: &mut dyn OutputSink,
    ) -> Result<(TimeReport, PhaseProfile), HostError>;

    /// Convenience: runs a materialized slice and collects the outputs, as
    /// a provided method over the streaming driver.
    ///
    /// # Errors
    ///
    /// See [`HostError`].
    fn run_slice(&self, inputs: &[i32]) -> Result<(Vec<i32>, TimeReport), HostError> {
        let mut source = SliceSource::new(inputs);
        let mut sink = VecSink::new();
        let report = self.run(&mut source, &mut sink)?;
        Ok((sink.into_vec(), report))
    }
}

/// Validates the per-computation input width against the source length and
/// returns the computation count.
fn computation_count(in_w: u64, source: &dyn InputSource) -> Result<u64, HostError> {
    let len = source.len_words();
    if in_w == 0 || !len.is_multiple_of(in_w) {
        return Err(HostError::InputShape {
            expected_multiple: in_w.max(1),
        });
    }
    Ok(len / in_w)
}

/// The static (single-configuration) baseline behind the [`Sequencer`] API.
#[derive(Debug, Clone, Copy)]
pub struct StaticSequencer<'a> {
    arch: &'a Architecture,
    design: &'a StaticDesign,
}

impl<'a> StaticSequencer<'a> {
    /// A driver for `design` on `arch`.
    pub fn new(arch: &'a Architecture, design: &'a StaticDesign) -> Self {
        StaticSequencer { arch, design }
    }
}

impl Sequencer for StaticSequencer<'_> {
    fn name(&self) -> &'static str {
        "static"
    }

    fn input_words(&self) -> u64 {
        self.design.input_words
    }

    fn output_words(&self) -> u64 {
        self.design.output_words
    }

    fn run_profiled(
        &self,
        source: &mut dyn InputSource,
        sink: &mut dyn OutputSink,
    ) -> Result<(TimeReport, PhaseProfile), HostError> {
        let (arch, design) = (self.arch, self.design);
        let in_w = design.input_words;
        let computations = computation_count(in_w, source)?;
        if in_w + design.output_words > arch.memory_words {
            return Err(HostError::MemoryBudget {
                needed: in_w + design.output_words,
                available: arch.memory_words,
            });
        }
        let mut report = TimeReport {
            reconfig_ns: u128::from(arch.reconfig_time_ns),
            reconfigurations: 1,
            computations,
            ..TimeReport::default()
        };
        let duplex_words = in_w + design.output_words;
        let transfer_ns = u128::from(arch.transfer_ns_per_word) * u128::from(duplex_words);
        let delay = u128::from(design.delay_per_computation_ns);
        let mut exposed = u128::from(arch.transfer_ns_per_word) * u128::from(in_w); // prologue
        let mut buf = vec![0i32; in_w as usize]; // cast-ok: in_w is a word count bounded by board memory, far below usize::MAX
        let mut out = vec![0i32; design.output_words as usize]; // cast-ok: output_words is bounded by board memory, far below usize::MAX
        let t0 = Instant::now();
        for _ in 0..computations {
            source.read(&mut buf);
            (design.kernel)(&buf, &mut out);
            sink.write(&out);
            // Double-buffered: streaming hides behind computation.
            exposed += transfer_ns.saturating_sub(delay);
            report.compute_ns += delay;
            report.words_transferred += duplex_words;
        }
        let profile = PhaseProfile {
            compute_ns: ns_since(t0),
            ..PhaseProfile::default()
        };
        exposed += u128::from(arch.transfer_ns_per_word) * u128::from(design.output_words); // epilogue
        report.exposed_transfer_ns = exposed;
        report.total_ns = report.reconfig_ns + report.compute_ns + report.exposed_transfer_ns;
        Ok((report, profile))
    }
}

/// Reusable per-batch staging for the fissioned RTR drivers, laid out as
/// flat structure-of-arrays buffers: all slots' value histories live in
/// one contiguous slot-major vector of fixed stride (the history length is
/// a design constant), and each phase gathers into or computes over one
/// contiguous scratch vector reused across batches. Capacity is bounded by
/// the design geometry and `min(k, I)` slots, never by the workload — and
/// after warm-up no batch allocates at all.
struct BatchBuffers {
    /// Staged primary input words for one batch (`slots · in_w`).
    input: Vec<i32>,
    /// All slots' value histories, flattened slot-major (`slots × stride`).
    histories: Vec<i32>,
    /// History words per slot (primary inputs + every stage's outputs).
    stride: usize,
    /// History words currently valid — identical for every slot, because
    /// the fissioned loop advances each stage for the whole batch at once.
    filled: usize,
    /// Load-phase gather target: one lane chunk's selected inputs as
    /// `input_words` rows of up to [`MAX_BATCH_LANES`] lanes, the layout
    /// the batch kernel reads.
    soa_in: Vec<i32>,
    /// Compute-phase SoA staging: one lane chunk's outputs, row-major.
    soa_out: Vec<i32>,
    /// Reusable scratch handed to batch kernels (never assumed zeroed).
    kernel_scratch: Vec<i32>,
    /// One batch's selected output words.
    output: Vec<i32>,
}

impl BatchBuffers {
    /// The buffers for a stream of `computations`, sized by the slots the
    /// stream fills — `min(k, computations)`, at least one. Only a
    /// single-batch stream has fewer real computations than `k`, and its
    /// missing slots would only ever hold padding.
    fn new(design: &RtrDesign, computations: u64) -> Self {
        // cast-ok: slots <= k, a batch width bounded by board memory / block_words
        let slots = design.k.min(computations).max(1) as usize;
        let stride = design.primary_input_words as usize // cast-ok: word counts are bounded by board memory, far below usize::MAX
            + design
                .configurations
                .iter()
                .map(|c| c.output_words as usize) // cast-ok: word counts are bounded by board memory, far below usize::MAX
                .sum::<usize>();
        let max_in = design
            .configurations
            .iter()
            .map(|c| c.input_selector.len())
            .max()
            .unwrap_or(0);
        let max_out = design
            .configurations
            .iter()
            .map(|c| c.output_words as usize) // cast-ok: word counts are bounded by board memory, far below usize::MAX
            .max()
            .unwrap_or(0);
        BatchBuffers {
            input: vec![0; slots * design.primary_input_words as usize], // cast-ok: word counts are bounded by board memory, far below usize::MAX
            histories: vec![0; slots * stride],
            stride,
            filled: 0,
            soa_in: Vec::with_capacity(max_in * MAX_BATCH_LANES),
            soa_out: Vec::with_capacity(max_out * MAX_BATCH_LANES),
            kernel_scratch: Vec::new(),
            output: Vec::with_capacity(slots * design.output_selector.len()),
        }
    }

    /// Load phase, batch level: pulls the next `real` computations from
    /// `source` into the staged buffer (zero-padding the garbage tail
    /// slots) and seeds every slot's history with its primary input words.
    fn stage(&mut self, design: &RtrDesign, source: &mut dyn InputSource, real: u64) {
        let in_w = design.primary_input_words as usize; // cast-ok: word counts are bounded by board memory, far below usize::MAX
        let real_words = real as usize * in_w; // cast-ok: real <= k, a batch width bounded by board memory
        source.read(&mut self.input[..real_words]);
        self.input[real_words..].fill(0);
        for (slot, hist) in self.histories.chunks_exact_mut(self.stride).enumerate() {
            hist[..in_w].copy_from_slice(&self.input[slot * in_w..(slot + 1) * in_w]);
        }
        self.filled = in_w;
    }

    /// Store phase, batch level: pushes the first `real` slots' output
    /// words — gathered by the last configuration's store pass in
    /// [`execute_batch`] — into `sink`.
    fn drain(&mut self, design: &RtrDesign, sink: &mut dyn OutputSink, real: u64) {
        // cast-ok: real <= k, a batch width bounded by board memory
        sink.write(&self.output[..real as usize * design.output_selector.len()]);
    }
}

/// Validates the memory budget and source shape shared by the RTR drivers,
/// returning `(computations, batches)`. A zero-computation stream still
/// occupies one (all-padding) batch — the hardware loop always runs `k`
/// slots.
fn rtr_shape(
    arch: &Architecture,
    design: &RtrDesign,
    source: &dyn InputSource,
) -> Result<(u64, u64), HostError> {
    let needed = design.k * design.max_block_words();
    if needed > arch.memory_words {
        return Err(HostError::MemoryBudget {
            needed,
            available: arch.memory_words,
        });
    }
    let computations = computation_count(design.primary_input_words, source)?;
    let batches = computations.div_ceil(design.k).max(1);
    Ok((computations, batches))
}

/// Runs one configuration over every slot of the batch — the host's one
/// execute path. The slots are walked in chunks of up to
/// [`MAX_BATCH_LANES`] lanes, and each chunk runs three fissioned passes:
///
/// 1. **Load**: gather each lane's selected input words (from the staged
///    primary image when the selector reads only primary words, else from
///    the history rows) straight into the structure-of-arrays rows the
///    kernel reads.
/// 2. **Compute**: one [`BatchKernel`] call covers every lane of the chunk
///    — a native lane-parallel kernel, or the per-lane adapter over the
///    scalar kernel.
/// 3. **Store**: scatter the outputs to the history rows while still
///    cache-hot; on the last configuration, also gather the design's
///    output words.
///
/// Per-slot computations are independent, so the chunked order is
/// bit-identical to a slot-at-a-time walk. The chunk size keeps the whole
/// working set — staged inputs, SoA rows and history rows —
/// cache-resident across all three passes.
///
/// [`BatchKernel`]: crate::design::BatchKernel
fn execute_batch(
    config: &Configuration,
    bufs: &mut BatchBuffers,
    profile: &mut PhaseProfile,
    drain_selector: Option<&[u32]>,
) {
    let (iw, ow) = (config.input_selector.len(), config.output_words as usize); // cast-ok: word counts are bounded by board memory, far below usize::MAX
    let (stride, filled) = (bufs.stride, bufs.filled);
    let BatchBuffers {
        input,
        histories,
        soa_in,
        soa_out,
        kernel_scratch,
        output,
        ..
    } = bufs;
    let slots = histories.len() / stride;
    if let Some(osel) = drain_selector {
        output.clear();
        output.resize(slots * osel.len(), 0);
    }
    // The primary-input region of every history row is written once by
    // `stage` and never overwritten, so a configuration whose selector
    // reads only primary words can gather from the denser staged input
    // image instead of striding across the full history rows.
    let p_iw = input.len() / slots;
    let from_primary = config
        .input_selector
        .iter()
        .all(|&sel| (sel as usize) < p_iw); // cast-ok: u32 selector indices widen losslessly to usize
    let mut chunk = 0usize;
    while chunk < slots {
        let lanes = MAX_BATCH_LANES.min(slots - chunk);

        // Load: gather straight into the SoA rows the batch kernel reads.
        let t0 = Instant::now();
        soa_in.clear();
        soa_in.resize(iw * lanes, 0);
        let (src, src_stride) = if from_primary {
            (&input[chunk * p_iw..(chunk + lanes) * p_iw], p_iw)
        } else {
            (&histories[chunk * stride..(chunk + lanes) * stride], stride)
        };
        for (row, &sel) in soa_in.chunks_exact_mut(lanes).zip(&config.input_selector) {
            let sel = sel as usize; // cast-ok: u32 selector indices widen losslessly to usize
            for (dst, lane) in row.iter_mut().zip(src.chunks_exact(src_stride)) {
                *dst = lane[sel];
            }
        }
        profile.load_ns += ns_since(t0);

        // Compute: one kernel call covers every lane in the chunk.
        let t1 = Instant::now();
        soa_out.clear();
        soa_out.resize(ow * lanes, 0);
        (config.batch_kernel)(lanes, soa_in, soa_out, kernel_scratch);
        profile.compute_ns += ns_since(t1);

        // Store: scatter the SoA outputs to the history rows.
        let t2 = Instant::now();
        let window = &mut histories[chunk * stride..(chunk + lanes) * stride];
        for (l, hist) in window.chunks_exact_mut(stride).enumerate() {
            let cells = hist[filled..filled + ow].iter_mut();
            for (dst, src_row) in cells.zip(soa_out.chunks_exact(lanes)) {
                *dst = src_row[l];
            }
        }
        // This is the last configuration: gather the design's output
        // words for the whole chunk while its rows are still hot,
        // instead of re-streaming the histories in a separate pass.
        if let Some(osel) = drain_selector {
            let rows = output[chunk * osel.len()..(chunk + lanes) * osel.len()]
                .chunks_exact_mut(osel.len())
                .zip(window.chunks_exact(stride));
            for (dst, hist) in rows {
                for (d, &sel) in dst.iter_mut().zip(osel) {
                    *d = hist[sel as usize]; // cast-ok: u32 selector indices widen losslessly to usize
                }
            }
        }
        profile.store_ns += ns_since(t2);
        chunk += lanes;
    }
    bufs.filled += ow;
}

/// The **FDH** (Final Data to Host) driver: for every pulled batch of `k`
/// computations, reconfigure through all `N` partitions, then push the final
/// outputs (the paper's first listing). Transfers are serialized — the
/// reconfiguration cascade dominates this strategy by construction.
#[derive(Debug, Clone, Copy)]
pub struct FdhSequencer<'a> {
    arch: &'a Architecture,
    design: &'a RtrDesign,
}

impl<'a> FdhSequencer<'a> {
    /// A driver for `design` on `arch`.
    pub fn new(arch: &'a Architecture, design: &'a RtrDesign) -> Self {
        FdhSequencer { arch, design }
    }
}

impl Sequencer for FdhSequencer<'_> {
    fn name(&self) -> &'static str {
        "FDH"
    }

    fn input_words(&self) -> u64 {
        self.design.primary_input_words
    }

    fn output_words(&self) -> u64 {
        self.design.output_words()
    }

    fn run_profiled(
        &self,
        source: &mut dyn InputSource,
        sink: &mut dyn OutputSink,
    ) -> Result<(TimeReport, PhaseProfile), HostError> {
        let (arch, design) = (self.arch, self.design);
        let (computations, batches) = rtr_shape(arch, design, source)?;
        let k = design.k;
        let dm = u128::from(arch.transfer_ns_per_word);
        let mut buffers = BatchBuffers::new(design, computations);
        let mut profile = PhaseProfile::default();
        let mut report = TimeReport {
            computations,
            ..TimeReport::default()
        };
        for b in 0..batches {
            let real = k.min(computations - (b * k).min(computations));
            // "Load block j of input data for Configuration 1 into memory."
            let in_words = k * design.configurations[0].block_words;
            report.exposed_transfer_ns += dm * u128::from(in_words);
            report.words_transferred += in_words;

            let t0 = Instant::now();
            buffers.stage(design, source, real);
            profile.load_ns += ns_since(t0);
            for (ci, config) in design.configurations.iter().enumerate() {
                // "Load Configuration i onto FPGA."
                report.reconfig_ns += u128::from(arch.reconfig_time_ns);
                report.reconfigurations += 1;
                // "Send Start Signal … Wait for Finish Signal."
                let drain = (ci + 1 == design.configurations.len())
                    .then_some(design.output_selector.as_slice());
                execute_batch(config, &mut buffers, &mut profile, drain);
                report.compute_ns += u128::from(k * config.delay_per_computation_ns);
            }
            // "Read block j of output data from memory of Configuration N."
            let out_words = k * design.output_words();
            report.exposed_transfer_ns += dm * u128::from(out_words);
            report.words_transferred += out_words;
            let t1 = Instant::now();
            buffers.drain(design, sink, real);
            profile.store_ns += ns_since(t1);
        }
        report.total_ns = report.reconfig_ns + report.compute_ns + report.exposed_transfer_ns;
        Ok((report, profile))
    }
}

/// The **IDH** (Intermediate Data to Host) driver: each configuration is
/// loaded once and *all* batches stream through it, with intermediate data
/// saved to and restored from the host (the paper's second listing), double
/// buffered per batch.
///
/// The timing model is exactly that configuration-major loop. The *data*
/// loop, however, runs batch-major (every batch passes through all `N`
/// kernels before the next batch is pulled): per-slot computations are
/// independent, so outputs and the accumulated [`TimeReport`] are identical
/// to the configuration-major order while the host holds only one batch of
/// intermediate state instead of the whole workload's.
#[derive(Debug, Clone, Copy)]
pub struct IdhSequencer<'a> {
    arch: &'a Architecture,
    design: &'a RtrDesign,
}

impl<'a> IdhSequencer<'a> {
    /// A driver for `design` on `arch`.
    pub fn new(arch: &'a Architecture, design: &'a RtrDesign) -> Self {
        IdhSequencer { arch, design }
    }
}

impl Sequencer for IdhSequencer<'_> {
    fn name(&self) -> &'static str {
        "IDH"
    }

    fn input_words(&self) -> u64 {
        self.design.primary_input_words
    }

    fn output_words(&self) -> u64 {
        self.design.output_words()
    }

    fn run_profiled(
        &self,
        source: &mut dyn InputSource,
        sink: &mut dyn OutputSink,
    ) -> Result<(TimeReport, PhaseProfile), HostError> {
        let (arch, design) = (self.arch, self.design);
        let (computations, batches) = rtr_shape(arch, design, source)?;
        let k = design.k;
        let dm = u128::from(arch.transfer_ns_per_word);
        let mut buffers = BatchBuffers::new(design, computations);
        let mut profile = PhaseProfile::default();
        let mut report = TimeReport {
            computations,
            ..TimeReport::default()
        };
        for config in &design.configurations {
            // "Load Configuration i onto FPGA." — once per partition.
            report.reconfig_ns += u128::from(arch.reconfig_time_ns);
            report.reconfigurations += 1;
            // Prologue (batch 0's input load) and epilogue (the last
            // batch's output read) are exposed, once per partition.
            report.exposed_transfer_ns += 2 * dm * u128::from(k * config.block_words);
        }
        for b in 0..batches {
            let real = k.min(computations - (b * k).min(computations));
            let t0 = Instant::now();
            buffers.stage(design, source, real);
            profile.load_ns += ns_since(t0);
            for (ci, config) in design.configurations.iter().enumerate() {
                let drain = (ci + 1 == design.configurations.len())
                    .then_some(design.output_selector.as_slice());
                execute_batch(config, &mut buffers, &mut profile, drain);
                let batch_compute = u128::from(k * config.delay_per_computation_ns);
                let half_transfer = dm * u128::from(k * config.block_words);
                // Steady state: while batch b computes on this
                // configuration, the host streams the traffic actually in
                // flight — batch b+1's input load and batch b−1's output
                // read. The boundary halves (batch 0's load, the last
                // batch's read) are the exposed prologue and epilogue
                // charged above; charging every batch the full two halves
                // would double-count them.
                let in_flight_halves = u128::from(b + 1 < batches) + u128::from(b > 0);
                report.compute_ns += batch_compute;
                report.exposed_transfer_ns +=
                    (in_flight_halves * half_transfer).saturating_sub(batch_compute);
                report.words_transferred += 2 * k * config.block_words;
            }
            let t1 = Instant::now();
            buffers.drain(design, sink, real);
            profile.store_ns += ns_since(t1);
        }
        report.total_ns = report.reconfig_ns + report.compute_ns + report.exposed_transfer_ns;
        Ok((report, profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Configuration;
    use crate::stream::{CountingSink, SyntheticSource};

    fn arch() -> Architecture {
        Architecture::xc4044_wildforce()
    }

    /// Two-stage pipeline: stage 1 doubles, stage 2 adds 1. 2 words in/out.
    fn two_stage(k: u64) -> RtrDesign {
        let c1 = Configuration::new("double", 1_000, vec![0, 1], 2, |x, out| {
            for (o, v) in out.iter_mut().zip(x) {
                *o = v * 2;
            }
        });
        let c2 = Configuration::new("inc", 500, vec![0, 1], 2, |x, out| {
            for (o, v) in out.iter_mut().zip(x) {
                *o = v + 1;
            }
        });
        RtrDesign::linear(vec![c1, c2], k)
    }

    fn static_equiv() -> StaticDesign {
        StaticDesign::new(2_000, 2, 2, |x, out| {
            for (o, v) in out.iter_mut().zip(x) {
                *o = v * 2 + 1;
            }
        })
    }

    fn inputs(n: usize) -> Vec<i32> {
        (0..n as i32 * 2).collect()
    }

    #[test]
    fn fdh_and_idh_compute_the_same_answer_as_static() {
        let d = two_stage(4);
        let s = static_equiv();
        let xs = inputs(10);
        let (o_static, _) = StaticSequencer::new(&arch(), &s).run_slice(&xs).unwrap();
        let (o_fdh, _) = FdhSequencer::new(&arch(), &d).run_slice(&xs).unwrap();
        let (o_idh, _) = IdhSequencer::new(&arch(), &d).run_slice(&xs).unwrap();
        assert_eq!(o_static, o_fdh);
        assert_eq!(o_static, o_idh);
        assert_eq!(o_static.len(), 20);
        assert_eq!(o_static[0], 1); // 0·2+1
        assert_eq!(o_static[3], 7); // 3·2+1
                                    // And both match the pure functional reference.
        assert_eq!(&o_fdh[0..2], d.compute_one(&xs[0..2]).as_slice());
    }

    #[test]
    fn partial_batches_discard_garbage_slots() {
        // 5 computations with k = 4 → 2 batches, 3 garbage slots dropped.
        let d = two_stage(4);
        let xs = inputs(5);
        let (o, r) = FdhSequencer::new(&arch(), &d).run_slice(&xs).unwrap();
        assert_eq!(o.len(), 10);
        assert_eq!(r.computations, 5);
        let (o2, _) = IdhSequencer::new(&arch(), &d).run_slice(&xs).unwrap();
        assert_eq!(o, o2);
    }

    #[test]
    fn fdh_reconfigures_per_batch_idh_once_per_partition() {
        let d = two_stage(2);
        let xs = inputs(8); // 4 batches
        let (_, fdh) = FdhSequencer::new(&arch(), &d).run_slice(&xs).unwrap();
        let (_, idh) = IdhSequencer::new(&arch(), &d).run_slice(&xs).unwrap();
        assert_eq!(fdh.reconfigurations, 4 * 2);
        assert_eq!(idh.reconfigurations, 2);
        assert!(idh.total_ns < fdh.total_ns);
    }

    #[test]
    fn fdh_timing_matches_paper_formula() {
        let d = two_stage(4);
        let xs = inputs(8); // 2 batches
        let (_, r) = FdhSequencer::new(&arch(), &d).run_slice(&xs).unwrap();
        // N·CT·I_sw = 2 × 100 ms × 2.
        assert_eq!(r.reconfig_ns, 2 * 2 * 100_000_000);
        // Compute: k·I_sw per stage.
        assert_eq!(r.compute_ns, u128::from(8 * (1_000 + 500) as u64));
        // Transfer: k·block_1 in + k·out_sel out, per batch.
        assert_eq!(r.words_transferred, 2 * (4 * 4 + 4 * 2));
    }

    #[test]
    fn idh_timing_matches_overlapped_model() {
        let d = two_stage(4);
        let xs = inputs(8); // 2 batches
        let (_, r) = IdhSequencer::new(&arch(), &d).run_slice(&xs).unwrap();
        // Per partition over 2 batches: half + 2·max(C, half) + half (each
        // boundary batch overlaps exactly one half-transfer), plus N·CT.
        let dm = 25u128;
        let mut expect = 2 * 100_000_000u128;
        for (delay, block) in [(1_000u64, 4u64), (500, 4)] {
            let c = u128::from(4 * delay);
            let half = dm * u128::from(4 * block);
            expect += half + 2 * c.max(half) + half;
        }
        assert_eq!(r.total_ns, expect);
    }

    /// Regression for the boundary-half double-count: on a bus-bound
    /// 2-batch design the steady-state loop used to charge each batch the
    /// full `2·half` while the prologue/epilogue exposed the boundary
    /// halves again. Hand computation, k = 2, two stages of 4-word blocks,
    /// D_m = 10 µs/word:
    ///
    /// ```text
    /// half        = 10_000 × 2 × 4            =  80_000 ns
    /// stage "double" (C = 2·1000):  80_000 + 2×(80_000 − 2_000) + 80_000 = 316_000
    /// stage "inc"    (C = 2·500):   80_000 + 2×(80_000 − 1_000) + 80_000 = 318_000
    /// total = 2×CT + compute (4_000 + 2_000) + 316_000 + 318_000
    ///       = 200_000_000 + 640_000
    /// ```
    ///
    /// (The old accounting charged 200_960_000.)
    #[test]
    fn idh_boundary_halves_not_double_counted() {
        let mut a = arch();
        a.transfer_ns_per_word = 10_000;
        let d = two_stage(2);
        let xs = inputs(4); // 2 batches of k = 2
        let (o, r) = IdhSequencer::new(&a, &d).run_slice(&xs).unwrap();
        assert_eq!(r.total_ns, 200_640_000);
        assert_eq!(r.compute_ns, 6_000);
        assert_eq!(r.exposed_transfer_ns, 634_000);
        // The fix changes accounting only; the data is untouched.
        assert_eq!(o, FdhSequencer::new(&a, &d).run_slice(&xs).unwrap().0);
    }

    #[test]
    fn skip_stage_dataflow_works_under_both_sequencers() {
        // DCT-like pattern: stage 2 ignores stage 1's output and reads the
        // primary input; the design output interleaves both stages.
        let s1 = Configuration::new("s1", 100, vec![0, 1], 2, |x, o| {
            o.copy_from_slice(&[x[0] * 2, x[1] * 2]);
        });
        let s2 = Configuration::new("s2", 100, vec![0, 1], 2, |x, o| {
            o.copy_from_slice(&[x[0] + 1, x[1] + 1]);
        });
        let d = RtrDesign::new(vec![s1, s2], 2, vec![2, 4, 3, 5], 2);
        let xs = vec![10, 20, 30, 40];
        let (o_fdh, _) = FdhSequencer::new(&arch(), &d).run_slice(&xs).unwrap();
        let (o_idh, _) = IdhSequencer::new(&arch(), &d).run_slice(&xs).unwrap();
        assert_eq!(o_fdh, vec![20, 11, 40, 21, 60, 31, 80, 41]);
        assert_eq!(o_fdh, o_idh);
    }

    /// A partition of source tasks reads no words: its empty gather must
    /// still stream, under both RTR sequencers.
    #[test]
    fn configurations_reading_no_words_stream() {
        let c1 = Configuration::new("const", 100, vec![], 1, |_, o| o[0] = 7);
        let c2 = Configuration::new("add", 100, vec![0, 1], 1, |x, o| o[0] = x[0] + x[1]);
        let d = RtrDesign::new(vec![c1, c2], 1, vec![2], 2);
        for seq in [
            &FdhSequencer::new(&arch(), &d) as &dyn Sequencer,
            &IdhSequencer::new(&arch(), &d),
        ] {
            let (out, _) = seq.run_slice(&[1, 2, 3]).unwrap();
            assert_eq!(out, vec![8, 9, 10], "{}", seq.name());
        }
    }

    #[test]
    fn memory_budget_enforced() {
        let d = two_stage(65_536); // 65536 × 4 words ≫ 64K
        assert!(matches!(
            FdhSequencer::new(&arch(), &d).run_slice(&inputs(4)),
            Err(HostError::MemoryBudget { .. })
        ));
    }

    #[test]
    fn input_shape_enforced() {
        let d = two_stage(4);
        assert_eq!(
            FdhSequencer::new(&arch(), &d)
                .run_slice(&[1, 2, 3])
                .unwrap_err(),
            HostError::InputShape {
                expected_multiple: 2
            }
        );
        let s = static_equiv();
        assert!(matches!(
            StaticSequencer::new(&arch(), &s).run_slice(&[1]),
            Err(HostError::InputShape { .. })
        ));
    }

    #[test]
    fn static_hides_streaming_behind_compute() {
        let s = static_equiv(); // 2000 ns ≫ 4 words × 25 ns
        let xs = inputs(100);
        let (_, r) = StaticSequencer::new(&arch(), &s).run_slice(&xs).unwrap();
        // total = CT + I·delay + prologue(2×25) + epilogue(2×25).
        assert_eq!(r.total_ns, 100_000_000 + 100 * 2_000 + 50 + 50);
    }

    #[test]
    fn static_exposes_streaming_when_bus_bound() {
        let mut a = arch();
        a.transfer_ns_per_word = 10_000; // 4 words × 10 µs ≫ 2 µs compute
        let s = static_equiv();
        let (_, r) = StaticSequencer::new(&a, &s).run_slice(&inputs(10)).unwrap();
        // Per computation the step is the transfer (40 µs), not compute.
        let expected = 100_000_000u128 + 10 * 40_000 + 20_000 + 20_000;
        assert_eq!(r.total_ns, expected);
    }

    #[test]
    fn streamed_synthetic_run_matches_materialized_wrapper() {
        // The same synthetic workload, once pulled batch-by-batch into a
        // counting sink and once materialized through the wrapper: byte
        // identical outputs (by digest) and identical reports.
        let d = two_stage(4);
        let a = arch();
        for seq in [
            &FdhSequencer::new(&a, &d) as &dyn Sequencer,
            &IdhSequencer::new(&a, &d),
        ] {
            let mut materialized = vec![0i32; 2 * 13];
            SyntheticSource::new(13, 2).read(&mut materialized);
            let (expect_out, expect_report) = seq.run_slice(&materialized).unwrap();

            let mut source = SyntheticSource::new(13, 2);
            let mut sink = CountingSink::new();
            let report = seq.run(&mut source, &mut sink).unwrap();
            assert_eq!(report, expect_report, "{}", seq.name());
            assert_eq!(sink.words(), expect_out.len() as u64);
            assert_eq!(sink.digest(), CountingSink::digest_of(&expect_out));
        }
    }

    #[test]
    fn sequencer_trait_reports_design_geometry() {
        let d = two_stage(4);
        let s = static_equiv();
        let a = arch();
        let fdh = FdhSequencer::new(&a, &d);
        assert_eq!(fdh.name(), "FDH");
        assert_eq!((fdh.input_words(), fdh.output_words()), (2, 2));
        let stat = StaticSequencer::new(&a, &s);
        assert_eq!(stat.name(), "static");
        assert_eq!((stat.input_words(), stat.output_words()), (2, 2));
        assert_eq!(IdhSequencer::new(&a, &d).name(), "IDH");
    }
}
