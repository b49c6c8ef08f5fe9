//! The four user operations, driven through the public flow API exactly
//! as the CLI and daemon drive them — the end-to-end measurement path,
//! never traced.

use crate::workload::{
    ExploreCase, Statement, DCT_STREAM_COMPUTATIONS, DCT_STREAM_DIGEST, GENERATED_STREAM_BATCHES,
};
use sparcs::core::fission::FissionAnalysis;
use sparcs::core::partitioning::Partitioning;
use sparcs::core::search::SearchCtx;
use sparcs::core::{PartitionOptions, PartitionedDesign};
use sparcs::dfg::TaskGraph;
use sparcs::estimate::Architecture;
use sparcs::flow::{Exploration, FlowError, FlowSession, PartitionStrategy};
use sparcs::rtr::{
    CountingSink, FdhSequencer, IdhSequencer, PhaseProfile, RtrDesign, Sequencer, StaticSequencer,
    SyntheticSource, TimeReport,
};
use sparcs::strategy::{parse_spec, Portfolio};
use std::time::{Duration, Instant};

/// Worker threads for explore and the portfolio race: the machine's
/// processor count.
pub fn threads() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| u32::try_from(n.get()).unwrap_or(1))
}

/// `parse_spec`, except that a portfolio races on `threads` threads
/// instead of one per racer.
///
/// # Errors
///
/// An unknown spec.
pub fn strategy_for(
    spec: &str,
    options: &PartitionOptions,
    threads: u32,
) -> Result<Box<dyn PartitionStrategy>, FlowError> {
    if spec == "portfolio" {
        let mut portfolio = Portfolio::standard(options.clone());
        portfolio.jobs = threads;
        return Ok(Box::new(portfolio));
    }
    parse_spec(spec, options)
}

/// A synthesized statement: the certified design and its fission.
#[derive(Debug, Clone)]
pub struct Synthesized {
    /// The partitioned design.
    pub design: PartitionedDesign,
    /// Its loop-fission analysis.
    pub fission: FissionAnalysis,
}

/// Synthesizes one statement as `sparcs partition` + `fission` do:
/// parse the `.tg` text, partition through the mandatory certification
/// gate, analyze fission.
///
/// # Errors
///
/// Any flow error, rendered.
pub fn synthesize(s: &Statement, threads: u32) -> Result<Synthesized, String> {
    let strategy = strategy_for(&s.spec, &s.options, threads).map_err(|e| e.to_string())?;
    let session = FlowSession::from_text(&s.text, s.arch.clone()).map_err(|e| e.to_string())?;
    let analyzed = session
        .partition_with_search(strategy.as_ref(), &SearchCtx::unbounded())
        .and_then(|p| p.analyze())
        .map_err(|e| e.to_string())?;
    Ok(Synthesized {
        design: analyzed.design,
        fission: analyzed.fission,
    })
}

/// One synthesis pass: every statement in order. Returns the pass's wall
/// time and each statement's outcome.
pub fn synth_pass(
    statements: &[Statement],
    threads: u32,
) -> (Duration, Vec<Result<Synthesized, String>>) {
    let t0 = Instant::now();
    let out = statements.iter().map(|s| synthesize(s, threads)).collect();
    (t0.elapsed(), out)
}

/// One cold exploration (fresh cache, `threads` workers).
pub fn explore(case: &ExploreCase, threads: u32) -> (Duration, Result<Exploration, String>) {
    let session = FlowSession::new(case.graph.clone(), case.arch.clone());
    let space = case.space(threads);
    let t0 = Instant::now();
    let out = session.explore(&space).map_err(|e| e.to_string());
    (t0.elapsed(), out)
}

/// What one stream runs and checks against.
pub struct StreamCase {
    /// The board.
    pub arch: Architecture,
    /// The executable design streamed.
    pub design: RtrDesign,
    /// Graph, partitioning and fission, for the time-report audit.
    pub graph: TaskGraph,
    /// See [`Self::graph`].
    pub partitioning: Partitioning,
    /// See [`Self::graph`].
    pub fission: FissionAnalysis,
    /// Computations per stream.
    pub computations: u64,
    /// Input seed (`None`: the source's default, which the pinned DCT
    /// digest was recorded with).
    pub seed: Option<u64>,
    /// Timed streams per round (short streams repeat for more samples).
    pub repeats: usize,
    /// Digest the stream must produce, when pinned.
    pub pinned_digest: Option<u64>,
}

impl StreamCase {
    /// The stream for a workload: the executable lift of `statement`'s
    /// synthesized design, fed inputs from `seed`, or (`None`) the §4 DCT
    /// design with its functional kernels.
    ///
    /// # Errors
    ///
    /// Flow errors while synthesizing or lifting the design.
    pub fn build(
        statement: Option<&Statement>,
        seed: u64,
        threads: u32,
    ) -> Result<StreamCase, String> {
        let Some(statement) = statement else {
            let exp = sparcs::casestudy::DctExperiment::paper().map_err(|e| e.to_string())?;
            return Ok(StreamCase {
                design: exp.rtr_design(),
                arch: exp.arch,
                graph: exp.dct.graph,
                partitioning: exp.design.partitioning,
                fission: exp.fission,
                computations: DCT_STREAM_COMPUTATIONS,
                seed: None,
                repeats: 3,
                pinned_digest: Some(DCT_STREAM_DIGEST),
            });
        };
        let strategy = strategy_for(&statement.spec, &statement.options, threads)
            .map_err(|e| e.to_string())?;
        let session = FlowSession::new(statement.graph.clone(), statement.arch.clone());
        let analyzed = session
            .partition_with(strategy.as_ref())
            .and_then(|p| p.analyze())
            .map_err(|e| e.to_string())?;
        let design = analyzed.executable_design().map_err(|e| e.to_string())?;
        Ok(StreamCase {
            computations: GENERATED_STREAM_BATCHES * design.k,
            design,
            arch: statement.arch.clone(),
            graph: statement.graph.clone(),
            partitioning: analyzed.design.partitioning.clone(),
            fission: analyzed.fission.clone(),
            seed: Some(seed),
            // One wide stream already takes most of a second.
            repeats: 1,
            pinned_digest: None,
        })
    }

    fn source(&self, words_per_computation: u64) -> SyntheticSource {
        match self.seed {
            Some(seed) => {
                SyntheticSource::with_seed(self.computations, words_per_computation, seed)
            }
            None => SyntheticSource::new(self.computations, words_per_computation),
        }
    }

    /// Host words per computation (in + out).
    pub fn words_per_computation(&self) -> u64 {
        self.design.primary_input_words + self.design.output_words()
    }

    /// Streams through `sequencer`, returning the report, the host phase
    /// profile and the output digest.
    ///
    /// # Errors
    ///
    /// Host errors, rendered.
    pub fn run(&self, sequencer: &dyn Sequencer) -> Result<Streamed, String> {
        let mut source = self.source(sequencer.input_words());
        let mut sink = CountingSink::new();
        let t0 = Instant::now();
        let (report, profile) = sequencer
            .run_profiled(&mut source, &mut sink)
            .map_err(|e| e.to_string())?;
        Ok(Streamed {
            wall: t0.elapsed(),
            report,
            profile,
            digest: sink.digest(),
        })
    }

    /// The measured stream: IDH, as `sparcs run` picks for these sizes.
    ///
    /// # Errors
    ///
    /// See [`Self::run`].
    pub fn run_idh(&self) -> Result<Streamed, String> {
        self.run(&IdhSequencer::new(&self.arch, &self.design))
    }

    /// The same stream under FDH.
    ///
    /// # Errors
    ///
    /// See [`Self::run`].
    pub fn run_fdh(&self) -> Result<Streamed, String> {
        self.run(&FdhSequencer::new(&self.arch, &self.design))
    }

    /// The same stream through the design's static equivalent.
    ///
    /// # Errors
    ///
    /// See [`Self::run`].
    pub fn run_static(&self) -> Result<Streamed, String> {
        let baseline = self.design.to_static();
        self.run(&StaticSequencer::new(&self.arch, &baseline))
    }
}

/// One finished stream.
#[derive(Debug, Clone)]
pub struct Streamed {
    /// Host wall time.
    pub wall: Duration,
    /// The simulated-board time report.
    pub report: TimeReport,
    /// Host wall time per batch phase.
    pub profile: PhaseProfile,
    /// FNV digest of every output word.
    pub digest: u64,
}
