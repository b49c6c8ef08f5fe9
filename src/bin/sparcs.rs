//! `sparcs` — command-line driver for the temporal-partitioning flow.
//!
//! ```text
//! sparcs partition <graph.tg> [flow options]
//! sparcs fission   <graph.tg> [flow options] [--pow2] [--inputs I]
//! sparcs codegen   <graph.tg> [flow options] [--strategy fdh|idh]
//! sparcs explore   <graph.tg> [flow options] [--workload N[,N...]]
//! sparcs run       <graph.tg> [flow options] [--seq static|fdh|idh]
//!                             [--workload I] [--synthetic]
//! sparcs audit     <graph.tg> [flow options] [--json]   # alias: lint
//! sparcs dot       <graph.tg>                 # Graphviz, partition-clustered
//! sparcs example                              # print a sample graph file
//! ```
//!
//! Graph files use the `sparcs_dfg::parse` text format (see `sparcs
//! example`). Every subcommand drives the [`sparcs::flow`] pipeline; the
//! temporal partitioner is selectable with `--partitioner <spec>` using
//! the [`sparcs::strategy`] grammar — `ilp`, `list`, `memlist`, refinement
//! chains like `list+kl` / `list+anneal`, and `portfolio` (race them all,
//! first proven optimum wins). `--budget-ms N` bounds the search: a
//! cooperative partitioner returns its best design when the deadline
//! passes.
//!
//! `run` executes the synthesized design on the simulated board as a
//! *stream*: with `--synthetic` the workload is generated on the fly and
//! only counted/digested on the way out, so host memory stays bounded by
//! the batch geometry no matter how large `I` is; without it, input words
//! are read from stdin and output words stream to stdout.
//!
//! `audit` (alias `lint`) runs the synthesized design through the
//! independent certifier ([`sparcs::audit`]): the partitioning, every
//! number the partitioner reported, and the fission analysis are
//! re-derived from first principles and every disagreement is printed as
//! a diagnostic (`--json` for one JSON object per line). Exit status is
//! nonzero when any diagnostic — error or warning — is found.

use sparcs::core::fission::{BlockRounding, FissionAnalysis, SequencingStrategy};
use sparcs::core::model::ModelConfig;
use sparcs::core::partitioning::MemoryMode;
use sparcs::core::search::SearchCtx;
use sparcs::core::PartitionOptions;
use sparcs::dfg::{dot, parse, Resources};
use sparcs::estimate::Architecture;
use sparcs::flow::{rounding_label, AnalyzedFlow, ExploreSpace, FlowSession, PartitionStrategy};
use sparcs::service::{Client, JobSpec, Request, Response};
use sparcs::strategy::{parse_spec, SPEC_GRAMMAR};
use std::process::ExitCode;
use std::time::Duration;

struct Flags {
    path: Option<String>,
    clbs: Option<u64>,
    memory: Option<u64>,
    ct_ns: Option<u64>,
    dm_ns: Option<u64>,
    pow2: bool,
    edge_memory: bool,
    inputs: Option<u64>,
    workloads: Vec<u64>,
    strategy: Option<SequencingStrategy>,
    seq: Option<SeqChoice>,
    synthetic: bool,
    partitioner: Option<String>,
    budget_ms: Option<u64>,
    jobs: Option<u32>,
    max_partitions: Vec<u32>,
    archs: Vec<ArchPreset>,
    ilp_stats: bool,
    json: bool,
    // Service (sparcsd) flags.
    socket: Option<String>,
    data: Option<String>,
    store: Option<String>,
    wait_ms: Option<u64>,
    workers: Option<u64>,
    max_budget_ms: Option<u64>,
    max_attempts: Option<u64>,
}

impl Flags {
    /// The workload grid: `--workload` entries, else the `--inputs` value,
    /// else the default single workload.
    fn workload_grid(&self) -> Vec<u64> {
        if !self.workloads.is_empty() {
            self.workloads.clone()
        } else {
            vec![self.inputs.unwrap_or(1_000_000)]
        }
    }

    /// The single workload for commands that take exactly one (`fission`,
    /// `codegen`, `run`).
    fn single_workload(&self) -> Result<u64, CliError> {
        let grid = self.workload_grid();
        if grid.len() > 1 {
            return Err(CliError::Usage(
                "this command takes a single workload (one --workload value)".into(),
            ));
        }
        Ok(grid[0])
    }
}

/// What `run` executes: the RTR design under one sequencing, or the static
/// baseline.
#[derive(Clone, Copy)]
enum SeqChoice {
    Static,
    Rtr(SequencingStrategy),
}

/// The board presets `--arch` selects (repeatable for `explore`).
#[derive(Clone, Copy)]
enum ArchPreset {
    Xc4044,
    Xc6200,
    TimeMultiplexed,
}

impl ArchPreset {
    /// The name this preset goes by on the service wire (`JobSpec::arch`).
    fn wire_name(self) -> &'static str {
        match self {
            ArchPreset::Xc4044 => "xc4044",
            ArchPreset::Xc6200 => "xc6200",
            ArchPreset::TimeMultiplexed => "tm",
        }
    }

    fn build(self) -> Architecture {
        match self {
            ArchPreset::Xc4044 => Architecture::xc4044_wildforce(),
            ArchPreset::Xc6200 => Architecture::xc6200_fast_reconfig(),
            ArchPreset::TimeMultiplexed => Architecture::time_multiplexed(),
        }
    }
}

/// A CLI failure: usage-class errors re-print the usage text; runtime
/// errors (bad file, infeasible graph) only report themselves.
enum CliError {
    Usage(String),
    Runtime(String),
}

impl CliError {
    fn runtime(e: impl std::fmt::Display) -> Self {
        CliError::Runtime(e.to_string())
    }
}

fn usage() -> &'static str {
    "usage: sparcs <partition|fission|codegen|explore|run|audit|analyze|dot|example> [graph.tg] [options]\n\
     \x20      sparcs <serve|submit|status|result|cancel|svc-stats> ... --socket PATH\n\
     options: --clbs N  --memory WORDS  --ct NS  --dm NS  --pow2  --edge-memory\n\
              --inputs I  --workload N[,N...] (explore ranks every entry)\n\
              --strategy fdh|idh\n\
              --partitioner SPEC (ilp | list | memlist | multilevel [+kl|+anneal|+fm ...] | portfolio)\n\
              --budget-ms N (search deadline; cooperative partitioners return\n\
                             their best feasible design when it passes)\n\
              --seq static|fdh|idh  --synthetic (run: generated stream, counted sink)\n\
              --arch xc4044|xc6200|tm (repeatable: explore ranks across boards)\n\
              --max-partitions N[,N...] (cap the ILP; a list sweeps explore)\n\
              --jobs N (explore workers; rankings are identical for any N)\n\
              --ilp-stats (print solver nodes/pivots/cold-solves/wall time)\n\
              --json (audit: one JSON diagnostic per line)\n\
     `audit` (alias `lint`) re-derives the synthesized design's legality\n\
     with the independent certifier and reports every disagreement\n\
     `analyze` reports certified pre-solve bounds and graph lints without\n\
     solving anything (exit is nonzero on error-class lints)\n\
     resident service (crash-safe daemon, see README `Resident service`):\n\
       serve --socket S --data DIR --store DIR [--workers N] [--max-budget-ms MS]\n\
       submit graph.tg --socket S [--arch A] [--partitioner SPEC] [--budget-ms MS]\n\
              [--max-partitions N] [--edge-memory] [--max-attempts N] [--wait-ms MS]\n\
       status|result|cancel JOB --socket S   (result takes [--wait-ms MS])\n\
       svc-stats --socket S\n\
     run `sparcs example` for a sample graph file"
}

fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let mut f = Flags {
        path: None,
        clbs: None,
        memory: None,
        ct_ns: None,
        dm_ns: None,
        pow2: false,
        edge_memory: false,
        inputs: None,
        workloads: Vec::new(),
        strategy: None,
        seq: None,
        synthetic: false,
        partitioner: None,
        budget_ms: None,
        jobs: None,
        max_partitions: Vec::new(),
        archs: Vec::new(),
        ilp_stats: false,
        json: false,
        socket: None,
        data: None,
        store: None,
        wait_ms: None,
        workers: None,
        max_budget_ms: None,
        max_attempts: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| -> Result<u64, CliError> {
            it.next()
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))?
                .replace('_', "")
                .parse()
                .map_err(|_| CliError::Usage(format!("{name} needs a number")))
        };
        match a.as_str() {
            "--clbs" => f.clbs = Some(grab("--clbs")?),
            "--memory" => f.memory = Some(grab("--memory")?),
            "--ct" => f.ct_ns = Some(grab("--ct")?),
            "--dm" => f.dm_ns = Some(grab("--dm")?),
            "--inputs" => f.inputs = Some(grab("--inputs")?),
            "--workload" => {
                let raw = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--workload needs a value".into()))?;
                for part in raw.split(',') {
                    let n: u64 = part
                        .replace('_', "")
                        .parse()
                        .map_err(|_| CliError::Usage(format!("bad --workload entry {part:?}")))?;
                    f.workloads.push(n);
                }
            }
            "--pow2" => f.pow2 = true,
            "--ilp-stats" => f.ilp_stats = true,
            "--json" => f.json = true,
            "--edge-memory" => f.edge_memory = true,
            "--synthetic" => f.synthetic = true,
            "--seq" => {
                f.seq = Some(match it.next().map(String::as_str) {
                    Some("static") => SeqChoice::Static,
                    Some("fdh") => SeqChoice::Rtr(SequencingStrategy::Fdh),
                    Some("idh") => SeqChoice::Rtr(SequencingStrategy::Idh),
                    other => return Err(CliError::Usage(format!("bad --seq {other:?}"))),
                })
            }
            "--strategy" => {
                f.strategy = Some(match it.next().map(String::as_str) {
                    Some("fdh") => SequencingStrategy::Fdh,
                    Some("idh") => SequencingStrategy::Idh,
                    other => return Err(CliError::Usage(format!("bad --strategy {other:?}"))),
                })
            }
            "--partitioner" => {
                let spec = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--partitioner needs a spec".into()))?;
                // Validate the grammar up front (with throwaway options) so
                // typos fail as usage errors, not mid-flow.
                parse_spec(spec, &PartitionOptions::default()).map_err(|e| {
                    CliError::Usage(format!("bad --partitioner: {e} (grammar: {SPEC_GRAMMAR})"))
                })?;
                f.partitioner = Some(spec.clone());
            }
            "--budget-ms" => {
                let ms = grab("--budget-ms")?;
                if ms == 0 {
                    return Err(CliError::Usage(
                        "--budget-ms needs a positive number".into(),
                    ));
                }
                f.budget_ms = Some(ms);
            }
            "--jobs" => {
                let n = grab("--jobs")?;
                if n == 0 {
                    return Err(CliError::Usage("--jobs needs a positive number".into()));
                }
                f.jobs = Some(n.min(u64::from(u32::MAX)) as u32);
            }
            "--max-partitions" => {
                let raw = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--max-partitions needs a value".into()))?;
                for part in raw.split(',') {
                    let n: u32 = part.replace('_', "").parse().map_err(|_| {
                        CliError::Usage(format!("bad --max-partitions entry {part:?}"))
                    })?;
                    if n == 0 {
                        return Err(CliError::Usage(
                            "--max-partitions entries must be positive".into(),
                        ));
                    }
                    f.max_partitions.push(n);
                }
            }
            "--socket" => {
                f.socket = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| CliError::Usage("--socket needs a path".into()))?,
                )
            }
            "--data" => {
                f.data = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| CliError::Usage("--data needs a directory".into()))?,
                )
            }
            "--store" => {
                f.store = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| CliError::Usage("--store needs a directory".into()))?,
                )
            }
            "--wait-ms" => f.wait_ms = Some(grab("--wait-ms")?),
            "--workers" => f.workers = Some(grab("--workers")?),
            "--max-budget-ms" => f.max_budget_ms = Some(grab("--max-budget-ms")?),
            "--max-attempts" => f.max_attempts = Some(grab("--max-attempts")?),
            "--arch" => f.archs.push(match it.next().map(String::as_str) {
                Some("xc4044") => ArchPreset::Xc4044,
                Some("xc6200") => ArchPreset::Xc6200,
                Some("tm") => ArchPreset::TimeMultiplexed,
                other => return Err(CliError::Usage(format!("bad --arch {other:?}"))),
            }),
            other if other.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown flag {other}")))
            }
            other => {
                if f.path.replace(other.to_string()).is_some() {
                    return Err(CliError::Usage("multiple graph files given".into()));
                }
            }
        }
    }
    Ok(f)
}

/// Applies the numeric board overrides on top of a preset.
fn with_overrides(mut a: Architecture, f: &Flags) -> Architecture {
    if let Some(c) = f.clbs {
        a.resources = Resources::clbs(c);
    }
    if let Some(m) = f.memory {
        a.memory_words = m;
    }
    if let Some(ct) = f.ct_ns {
        a.reconfig_time_ns = ct;
    }
    if let Some(dm) = f.dm_ns {
        a.transfer_ns_per_word = dm;
    }
    a
}

fn architecture(f: &Flags) -> Architecture {
    let base = f
        .archs
        .first()
        .copied()
        .unwrap_or(ArchPreset::Xc4044)
        .build();
    with_overrides(base, f)
}

fn session(f: &Flags) -> Result<FlowSession, CliError> {
    let path = f
        .path
        .as_ref()
        .ok_or_else(|| CliError::Usage("no graph file given".into()))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
    FlowSession::from_text(&text, architecture(f))
        .map_err(|e| CliError::Runtime(format!("{path}: {e}")))
}

fn partition_options(f: &Flags) -> PartitionOptions {
    PartitionOptions {
        model: ModelConfig {
            memory_mode: if f.edge_memory {
                MemoryMode::Edge
            } else {
                MemoryMode::Net
            },
            ..ModelConfig::default()
        },
        // Outside `explore` the first (usually only) cap applies directly.
        max_partitions: f.max_partitions.first().copied(),
        ..PartitionOptions::default()
    }
}

/// The partitioner behind `--partitioner` (a [`sparcs::strategy`] spec;
/// defaults to the exact ILP).
fn strategy_of(f: &Flags) -> Result<Box<dyn PartitionStrategy>, CliError> {
    let spec = f.partitioner.as_deref().unwrap_or("ilp");
    parse_spec(spec, &partition_options(f))
        .map_err(|e| CliError::Usage(format!("bad --partitioner: {e} (grammar: {SPEC_GRAMMAR})")))
}

/// The search context for one command: a deadline `--budget-ms` from now,
/// or unbounded.
fn search_ctx(f: &Flags) -> SearchCtx {
    match f.budget_ms {
        Some(ms) => SearchCtx::with_timeout(Duration::from_millis(ms)),
        None => SearchCtx::unbounded(),
    }
}

fn analyze<'a>(s: &'a FlowSession, f: &Flags) -> Result<AnalyzedFlow<'a>, CliError> {
    s.partition_with_search(strategy_of(f)?.as_ref(), &search_ctx(f))
        .map_err(CliError::runtime)?
        .analyze_with(if f.pow2 {
            BlockRounding::PowerOfTwo
        } else {
            BlockRounding::Exact
        })
        .map_err(CliError::runtime)
}

/// The `run` subcommand: streams a workload through the synthesized design
/// on the simulated board. With `--synthetic` the input is generated on the
/// fly and the output only counted/digested — constant host memory for any
/// `I`; otherwise input words come from stdin and output words go to
/// stdout (one computation per line), with the report on stderr.
fn run_command(f: &Flags) -> Result<(), CliError> {
    use sparcs::rtr::{
        CountingSink, FdhSequencer, IdhSequencer, Sequencer, SliceSource, StaticSequencer,
        SyntheticSource, VecSink,
    };
    let s = session(f)?;
    let analyzed = analyze(&s, f)?;
    let workload = f.single_workload()?;
    if !f.synthetic && (f.inputs.is_some() || !f.workloads.is_empty()) {
        return Err(CliError::Usage(
            "run reads its workload from stdin; --workload/--inputs only apply with --synthetic"
                .into(),
        ));
    }
    // Built once; every lane below (and the static collapse) reuses it.
    let design = analyzed.executable_design().map_err(CliError::runtime)?;
    let (in_w, out_w) = (design.primary_input_words, design.output_words());
    // `--seq` wins, then `--strategy`; otherwise the flow picks the cheaper
    // sequencing for the computations actually streamed.
    let choose = |computations: u64| match f.seq {
        Some(c) => c,
        None => SeqChoice::Rtr(
            f.strategy
                .unwrap_or_else(|| analyzed.choose_sequencing(computations)),
        ),
    };
    let execute = |choice: SeqChoice,
                   source: &mut dyn sparcs::rtr::InputSource,
                   sink: &mut dyn sparcs::rtr::OutputSink| {
        match choice {
            SeqChoice::Static => {
                StaticSequencer::new(s.arch(), &design.to_static()).run(source, sink)
            }
            SeqChoice::Rtr(SequencingStrategy::Fdh) => {
                FdhSequencer::new(s.arch(), &design).run(source, sink)
            }
            SeqChoice::Rtr(SequencingStrategy::Idh) => {
                IdhSequencer::new(s.arch(), &design).run(source, sink)
            }
        }
        .map_err(CliError::runtime)
    };
    let seq_name = |choice: SeqChoice| match choice {
        SeqChoice::Static => "static".to_string(),
        SeqChoice::Rtr(st) => st.to_string(),
    };
    if f.synthetic {
        let words_in = workload.checked_mul(in_w).ok_or_else(|| {
            CliError::Usage(format!(
                "--workload {workload} x {in_w} input words overflows the stream"
            ))
        })?;
        let choice = choose(workload);
        let seq_name = seq_name(choice);
        let mut source = SyntheticSource::new(workload, in_w);
        let mut sink = CountingSink::new();
        let report = execute(choice, &mut source, &mut sink)?;
        println!("graph : {}", s.graph());
        println!("target: {}", s.arch());
        println!(
            "design: {} partitions, k = {}, {in_w} words in / {out_w} words out per computation",
            design.partition_count(),
            design.k,
        );
        println!(
            "stream: synthetic, I = {workload} ({words_in} words in, {} words out, nothing materialized)",
            sink.words(),
        );
        println!("seq   : {seq_name}");
        println!("report: {report}");
        println!("digest: {:016x}", sink.digest());
    } else {
        let mut text = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
            .map_err(CliError::runtime)?;
        let words: Vec<i32> = text
            .split_whitespace()
            .map(|w| {
                w.parse::<i32>()
                    .map_err(|_| CliError::Runtime(format!("bad input word {w:?}")))
            })
            .collect::<Result<_, _>>()?;
        // Sequencing defaults to what is cheapest for the stream that
        // actually arrived, not for a nominal workload.
        let choice = choose(words.len() as u64 / in_w.max(1));
        let seq_name = seq_name(choice);
        let mut source = SliceSource::new(&words);
        let mut sink = VecSink::new();
        let report = execute(choice, &mut source, &mut sink)?;
        for computation in sink.data().chunks(out_w.max(1) as usize) {
            let line: Vec<String> = computation.iter().map(i32::to_string).collect();
            println!("{}", line.join(" "));
        }
        eprintln!("seq   : {seq_name}");
        eprintln!("report: {report}");
    }
    Ok(())
}

fn real_main() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::Usage("no command given".into()));
    };
    let f = parse_flags(rest)?;
    match cmd.as_str() {
        "example" => {
            println!("{}", parse::to_text(&sparcs::dfg::gen::fig4_example()));
        }
        "dot" => {
            let s = session(&f)?;
            match s.partition_with_search(strategy_of(&f)?.as_ref(), &search_ctx(&f)) {
                Ok(stage) => println!(
                    "{}",
                    dot::to_dot_partitioned(s.graph(), |t| Some(
                        stage.design.partitioning.partition_of(t).0
                    ))
                ),
                Err(_) => println!("{}", dot::to_dot(s.graph())),
            }
        }
        "partition" => {
            let s = session(&f)?;
            println!("graph : {}", s.graph());
            println!("target: {}", s.arch());
            let stage = s
                .partition_with_search(strategy_of(&f)?.as_ref(), &search_ctx(&f))
                .map_err(CliError::runtime)?;
            let d = &stage.design;
            println!("result: {} (via {})", d.partitioning, stage.strategy);
            println!("delays: {:?} ns", d.partition_delays_ns);
            println!(
                "latency: {} ns ({} partitions x {} ns CT + {} ns), optimal = {}{}",
                d.latency_ns,
                d.partitioning.partition_count(),
                s.arch().reconfig_time_ns,
                d.sum_delay_ns,
                d.stats.proven_optimal,
                if d.stats.cancelled {
                    " (search cancelled at the budget; best incumbent shown)"
                } else {
                    ""
                }
            );
            if f.ilp_stats {
                println!("solver : {}", d.stats);
            }
        }
        "fission" => {
            let i = f.single_workload()?;
            let s = session(&f)?;
            let analyzed = analyze(&s, &f)?;
            let fa = &analyzed.fission;
            println!("partitioning: {}", analyzed.design.partitioning);
            println!("fission     : {fa}");
            println!(
                "blocks      : {:?} words (wasted {}/run)",
                fa.block_words, fa.wasted_words
            );
            println!(
                "I = {i}: FDH {:.4} s | IDH {:.4} s (overlapped) -> {}",
                analyzed.total_time_ns(SequencingStrategy::Fdh, i) as f64 / 1e9,
                analyzed.total_time_ns(SequencingStrategy::Idh, i) as f64 / 1e9,
                analyzed.choose_sequencing(i)
            );
        }
        "codegen" => {
            let s = session(&f)?;
            let analyzed = analyze(&s, &f)?;
            let workload = f.single_workload()?;
            let strategy = f
                .strategy
                .unwrap_or_else(|| analyzed.choose_sequencing(workload));
            println!("{}", analyzed.host_code(strategy));
        }
        "run" => run_command(&f)?,
        "audit" | "lint" => {
            let s = session(&f)?;
            let strategy = strategy_of(&f)?;
            // Deliberately bypass the flow's certification gate (which would
            // convert error-class findings into a FlowError before they can
            // be listed): partition raw, then report everything the
            // certifier has to say about what the strategy returned.
            let design = strategy
                .partition(s.context(), &search_ctx(&f))
                .map_err(CliError::runtime)?;
            let mode = strategy.memory_mode();
            let mut diags = sparcs::audit::audit_design(s.graph(), s.arch(), &design, mode);
            let rounding = if f.pow2 {
                BlockRounding::PowerOfTwo
            } else {
                BlockRounding::Exact
            };
            match FissionAnalysis::analyze(
                s.graph(),
                &design.partitioning,
                &design.partition_delays_ns,
                s.arch(),
                rounding,
            ) {
                Ok(fission) => diags.extend(sparcs::audit::audit_fission(
                    s.graph(),
                    &design.partitioning,
                    &fission,
                    s.arch(),
                )),
                Err(e) => {
                    eprintln!("note: fission analysis unavailable ({e}); design-level audit only")
                }
            }
            if f.json {
                for d in &diags {
                    println!("{}", d.to_json());
                }
            } else {
                for d in &diags {
                    println!("{d}");
                }
            }
            if diags.is_empty() {
                println!(
                    "audit: clean — {} partitions via {}, every number re-derived and confirmed",
                    design.partitioning.partition_count(),
                    strategy.name(),
                );
            } else {
                let errors = diags
                    .iter()
                    .filter(|d| d.severity == sparcs::audit::Severity::Error)
                    .count();
                return Err(CliError::Runtime(format!(
                    "audit found {} diagnostic(s) ({errors} error-class)",
                    diags.len(),
                )));
            }
        }
        "analyze" => {
            let s = session(&f)?;
            let mode = if f.edge_memory {
                MemoryMode::Edge
            } else {
                MemoryMode::Net
            };
            let analysis =
                sparcs::analyze::analyze(s.graph(), s.arch(), mode).map_err(CliError::runtime)?;
            if f.json {
                println!("{}", analysis.to_json());
            } else {
                for fact in &analysis.facts {
                    println!("{fact}");
                }
                for lint in &analysis.lints {
                    println!("{lint}");
                }
                let verdict = match analysis.static_verdict(f.max_partitions.first().copied()) {
                    Some(rule) => format!("statically infeasible [{rule}]"),
                    None => "no static infeasibility".to_string(),
                };
                println!(
                    "analyze: {} — {} fact(s), {} lint(s), {verdict}",
                    analysis.graph,
                    analysis.facts.len(),
                    analysis.lints.len(),
                );
            }
            let errors = analysis
                .lints
                .iter()
                .filter(|l| l.severity == sparcs::analyze::Severity::Error)
                .count();
            if errors > 0 {
                return Err(CliError::Runtime(format!(
                    "analyze found {errors} error-class lint(s)"
                )));
            }
        }
        "explore" => {
            let s = session(&f)?;
            let mut space = ExploreSpace::for_workloads(f.workload_grid());
            space.ilp_options = partition_options(&f);
            // The options cap is the per-candidate axis below, not a shared
            // floor for every candidate.
            space.ilp_options.max_partitions = None;
            if f.edge_memory {
                space.memory_mode = MemoryMode::Edge;
            }
            // The flow flags narrow or widen the candidate space instead of
            // being ignored: --partitioner pins the strategy axis, --pow2
            // the rounding axis, --strategy the sequencing axis;
            // --max-partitions and --arch *add* axis points.
            match f.partitioner.as_deref() {
                Some("ilp") => space.include_list = false,
                Some("list") => space.include_ilp = false,
                Some(spec) => {
                    // A composed spec pins the strategy axis to itself. The
                    // cap axis below only feeds the built-in ILP candidates,
                    // so a requested cap must reach the spec through its
                    // options instead of being silently dropped — and a
                    // *sweep* has no spec to fan over.
                    space.include_ilp = false;
                    space.include_list = false;
                    space.specs = vec![spec.to_string()];
                    if f.max_partitions.len() > 1 {
                        return Err(CliError::Usage(
                            "--max-partitions sweeps apply to the built-in ilp candidates; \
                             a composed --partitioner spec takes a single cap"
                                .into(),
                        ));
                    }
                    space.ilp_options.max_partitions = f.max_partitions.first().copied();
                }
                None => {}
            }
            if let Some(ms) = f.budget_ms {
                space.budget = Some(Duration::from_millis(ms));
            }
            if f.pow2 {
                space.roundings = vec![BlockRounding::PowerOfTwo];
            }
            if let Some(seq) = f.strategy {
                space.sequencings = vec![seq];
            }
            if !f.max_partitions.is_empty() {
                space.max_partitions = f.max_partitions.iter().map(|&n| Some(n)).collect();
            }
            if !f.archs.is_empty() {
                space.architectures = f
                    .archs
                    .iter()
                    .map(|&preset| with_overrides(preset.build(), &f))
                    .collect();
            }
            if let Some(jobs) = f.jobs {
                space.jobs = jobs;
            }
            let exploration = s.explore(&space).map_err(CliError::runtime)?;
            println!("graph : {}", s.graph());
            println!("target: {}", s.arch());
            println!(
                "{:<5} {:>9} {:>11} {:<17} {:>6} {:>4} {:>4} {:>4} {:>8} {:>13} {:>12}",
                "rank",
                "I",
                "partitioner",
                "arch",
                "round",
                "seq",
                "N",
                "maxN",
                "k",
                "latency (ns)",
                "total (s)"
            );
            let mut rank = 0;
            let mut current_workload = None;
            for c in &exploration.candidates {
                // Ranks restart per workload group: totals across
                // different `I` values are not comparable.
                if current_workload != Some(c.workload) {
                    current_workload = Some(c.workload);
                    rank = 0;
                }
                rank += 1;
                println!(
                    "{:<5} {:>9} {:>11} {:<17.17} {:>6} {:>4} {:>4} {:>4} {:>8} {:>13} {:>12.4}",
                    rank,
                    c.workload,
                    c.strategy,
                    c.arch,
                    rounding_label(c.rounding),
                    c.sequencing.to_string(),
                    c.partition_count,
                    c.max_partitions.map_or("-".to_string(), |n| n.to_string()),
                    c.k,
                    c.latency_ns,
                    c.total_ns as f64 / 1e9,
                );
            }
            let cov = &exploration.coverage;
            println!(
                "coverage: {}/{} specs ranked ({} infeasible, {} invalid, {} fission-skipped, {} static-pruned), jobs = {}",
                cov.ranked_specs,
                cov.specs,
                cov.skipped_infeasible,
                cov.skipped_invalid,
                cov.skipped_fission,
                cov.skipped_static,
                space.jobs,
            );
            for skip in &cov.skips {
                println!("  skipped: {skip}");
            }
            if f.ilp_stats {
                let t = exploration.solver_totals();
                println!(
                    "solver: {} designs, {} B&B nodes, {} pivots, {} cold solves, {:.3} ms summed solve time",
                    t.designs,
                    t.nodes,
                    t.pivots,
                    t.cold_solves,
                    t.wall.as_secs_f64() * 1e3,
                );
            }
            for w in exploration.workloads() {
                let best = exploration.best_for(w).expect("workload was explored");
                println!(
                    "best: {} + {} on {} ({} partitions, k = {}) for I = {}",
                    best.strategy, best.sequencing, best.arch, best.partition_count, best.k, w
                );
            }
        }
        "serve" => serve(&f)?,
        "submit" => {
            let path = f
                .path
                .as_deref()
                .ok_or_else(|| CliError::Usage("submit needs a graph file".into()))?;
            let graph = std::fs::read_to_string(path).map_err(CliError::runtime)?;
            let mut spec = JobSpec::new(graph);
            if let Some(preset) = f.archs.first() {
                spec.arch = preset.wire_name().to_string();
            }
            if let Some(p) = &f.partitioner {
                spec.partitioner = p.clone();
            }
            spec.budget_ms = f.budget_ms;
            spec.max_partitions = f.max_partitions.first().copied();
            spec.edge_memory = f.edge_memory;
            if let Some(n) = f.max_attempts {
                spec.max_attempts = n.min(u64::from(u32::MAX)) as u32;
            }
            let client = client(&f)?;
            let job = client
                .submit(spec)
                .map_err(|e| CliError::Runtime(e.to_string()))?;
            println!("job   : {job}");
            if let Some(wait_ms) = f.wait_ms {
                render(service_request(
                    &client,
                    &Request::Result {
                        job,
                        wait_ms: Some(wait_ms),
                    },
                )?)?;
            }
        }
        "status" => render(service_request(
            &client(&f)?,
            &Request::Status { job: job_arg(&f)? },
        )?)?,
        "result" => render(service_request(
            &client(&f)?,
            &Request::Result {
                job: job_arg(&f)?,
                wait_ms: f.wait_ms,
            },
        )?)?,
        "cancel" => render(service_request(
            &client(&f)?,
            &Request::Cancel { job: job_arg(&f)? },
        )?)?,
        "svc-stats" => render(service_request(&client(&f)?, &Request::Stats)?)?,
        other => return Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
    Ok(())
}

/// Runs the resident daemon in the foreground by launching the `sparcsd`
/// binary: `$SPARCSD_BIN` if set, else the sibling of this executable,
/// else `sparcsd` on `PATH`.
fn serve(f: &Flags) -> Result<(), CliError> {
    let socket = socket_of(f)?;
    let data = f
        .data
        .as_deref()
        .ok_or_else(|| CliError::Usage("serve needs --data DIR".into()))?;
    let store = f
        .store
        .as_deref()
        .ok_or_else(|| CliError::Usage("serve needs --store DIR".into()))?;
    let bin = std::env::var("SPARCSD_BIN").ok().unwrap_or_else(|| {
        std::env::current_exe()
            .ok()
            .map(|p| p.with_file_name("sparcsd"))
            .filter(|p| p.exists())
            .map(|p| p.to_string_lossy().into_owned())
            .unwrap_or_else(|| "sparcsd".to_string())
    });
    let mut cmd = std::process::Command::new(&bin);
    cmd.arg("--socket")
        .arg(socket)
        .arg("--data")
        .arg(data)
        .arg("--store")
        .arg(store);
    if let Some(w) = f.workers {
        cmd.arg("--workers").arg(w.to_string());
    }
    if let Some(ms) = f.max_budget_ms {
        cmd.arg("--max-budget-ms").arg(ms.to_string());
    }
    if let Some(n) = f.max_attempts {
        cmd.arg("--max-attempts").arg(n.to_string());
    }
    let status = cmd
        .status()
        .map_err(|e| CliError::Runtime(format!("could not launch {bin}: {e}")))?;
    if !status.success() {
        return Err(CliError::Runtime(format!("sparcsd exited with {status}")));
    }
    Ok(())
}

fn socket_of(f: &Flags) -> Result<String, CliError> {
    f.socket
        .clone()
        .ok_or_else(|| CliError::Usage("service commands need --socket PATH".into()))
}

fn client(f: &Flags) -> Result<Client, CliError> {
    Ok(Client::new(socket_of(f)?))
}

/// The positional argument of status/result/cancel, as a job id.
fn job_arg(f: &Flags) -> Result<u64, CliError> {
    f.path
        .as_deref()
        .ok_or_else(|| CliError::Usage("this command needs a job id".into()))?
        .parse()
        .map_err(|_| CliError::Usage("the job id must be a number".into()))
}

fn service_request(client: &Client, request: &Request) -> Result<Response, CliError> {
    client
        .request(request)
        .map_err(|e| CliError::Runtime(e.to_string()))
}

/// Prints a daemon response; protocol-level errors become runtime errors.
fn render(response: Response) -> Result<(), CliError> {
    match response {
        Response::Submitted { job } => println!("job   : {job}"),
        Response::Status {
            job,
            phase,
            attempts,
            detail,
        } => {
            let detail = if detail.is_empty() {
                String::new()
            } else {
                format!(" — {detail}")
            };
            println!("job {job}: {phase} (attempt {attempts}){detail}");
        }
        Response::Result { job, result } => {
            println!("job {job}: done (via {})", result.strategy);
            println!("partitions: {}", result.partitions);
            println!("delays    : {:?} ns", result.partition_delays_ns);
            println!(
                "latency   : {} ns (bound {} ns), optimal = {}{}",
                result.latency_ns,
                result.bound_ns,
                result.proven_optimal,
                if result.cancelled {
                    " (degraded: budget expired; audited incumbent + proven bound)"
                } else {
                    ""
                }
            );
        }
        Response::Cancelled { job, phase } => println!("job {job}: cancel delivered ({phase})"),
        Response::Stats { stats } => {
            println!(
                "jobs : {} queued, {} running, {} done, {} failed, {} cancelled",
                stats.queued, stats.running, stats.done, stats.failed, stats.cancelled
            );
            println!(
                "cache: {} hits, {} misses, {} evictions; store: {} hits",
                stats.cache_hits, stats.cache_misses, stats.cache_evictions, stats.store_hits
            );
            println!(
                "journal: {} event(s) replayed at startup",
                stats.replayed_events
            );
        }
        Response::Ok => println!("ok"),
        Response::Error { code, message } => {
            return Err(CliError::Runtime(format!("{code}: {message}")))
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n{}", usage());
            ExitCode::FAILURE
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
