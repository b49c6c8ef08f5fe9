//! One benchmark run: set-up, warm-up, measured rounds, checks, and the
//! metrics report.
//!
//! A *round* is one synthesis pass, one exploration, one stream and (on
//! the flow workloads) one serve batch. The untraced run measures rounds
//! through the public flow API until `--seconds` have passed (at least
//! [`MIN_ROUNDS`]) and reports medians. The traced run alternates an
//! untraced and a traced re-enactment of the round through the layer
//! calls ([`crate::layers`]) and reports per-layer numbers, the tracing
//! overhead and the share of operation time the layer spans cover.

use crate::checks::{self, Ledger, Repeats};
use crate::layers::{self, Counts};
use crate::ops::{self, StreamCase, Streamed, Synthesized};
use crate::pace;
use crate::serve::{closed_loop, Daemon, Served, CLIENTS};
use crate::stats::{geomean, median, tail};
use crate::trace::{self, Tracer};
use crate::workload::{self, Inputs, Kind};
use sparcs::core::partitioning::MemoryMode;
use sparcs::core::SequencingStrategy;
use sparcs::flow::Exploration;
use sparcs::multilevel::{coarsen, CoarsenConfig, MultilevelConfig};
use sparcs::rtr::PhaseProfile;
use sparcs::service::JobSpec;
use sparcsd::graph::JobGraph;
use sparcsd::journal::{Event, Journal};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Measured rounds per run, at least.
pub const MIN_ROUNDS: usize = 3;
/// Measured rounds per run, at most.
pub const MAX_ROUNDS: usize = 40;
/// Untraced/traced round pairs per traced run, at least (per-layer
/// numbers are per-round means, not medians).
pub const MIN_TRACED_ROUNDS: usize = 2;
/// Share of the service workload's measured time spent on rounds; the
/// closed loop gets about the rest (and about as much again for its
/// replay).
pub const SERVICE_ROUND_SHARE: f64 = 0.5;
/// Closed-loop requests per second of `--seconds` on the service
/// workload: sized so the loop takes about the rest of the measured time
/// on the 2-vCPU host this benchmark was written on (~40 requests/s).
pub const SERVICE_REQUESTS_PER_SECOND: f64 = 20.0;
/// Where runs keep daemon state and write traces, under the working
/// directory.
pub const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics: name and unit, in report order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("synth_s", "s"),
    ("explore_s", "s"),
    ("stream_mwords_per_s", "Mwords/s"),
    ("latency_over_bound", "ratio"),
    ("design_total_s", "model_s"),
    ("peak_rss_mib", "MiB"),
    ("svc_p50_ms", "ms"),
    ("svc_tail_ms", "ms"),
    ("svc_jobs_per_s", "jobs/s"),
];

/// Per-layer metrics of the traced run: name and unit, in report order.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("dfg.parse.ms", "ms"),
    ("dfg.parse.mb_per_s", "MB/s"),
    ("analyze.ms", "ms"),
    ("analyze.calls_per_explore", "count"),
    ("core.list.ms", "ms"),
    ("core.memlist.ms", "ms"),
    ("core.refine.kl.ms", "ms"),
    ("core.refine.anneal.ms", "ms"),
    ("multilevel.coarsen.ms", "ms"),
    ("multilevel.ms", "ms"),
    ("multilevel.levels", "count"),
    ("multilevel.coarsest_tasks", "count"),
    ("ilp.solve.ms", "ms"),
    ("ilp.nodes", "count"),
    ("ilp.pivots", "count"),
    ("ilp.pivots_per_s", "1/s"),
    ("ilp.cold_solves", "count"),
    ("strategy.portfolio.ms", "ms"),
    ("audit.design.ms", "ms"),
    ("audit.fission.ms", "ms"),
    ("audit.diagnostics", "count"),
    ("core.fission.ms", "ms"),
    ("flow.explore.candidates", "count"),
    ("flow.explore.skipped", "count"),
    ("flow.explore.cache_hit_share", "ratio"),
    ("rtr.load.ms", "ms"),
    ("rtr.compute.ms", "ms"),
    ("rtr.store.ms", "ms"),
    ("rtr.words_per_computation", "count"),
    ("sparcsd.submit.ms", "ms"),
    ("sparcsd.result.ms", "ms"),
    ("sparcsd.replay.ms", "ms"),
    ("sparcsd.journal_append.ms", "ms"),
    ("sparcsd.cache_hit_share", "ratio"),
    ("sparcsd.store_hits", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.coverage_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// The operation spans a coverage share is computed over.
const OPERATIONS: [&str; 4] = ["synth", "explore", "stream", "serve.request"];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Kind,
    /// Input seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// Unknown flags or values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => {
                    seed = value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?
                }
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("--seconds {value:?} is not a positive number"))?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                    };
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The run's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// No operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Every metric of the run's kind, in table order.
    pub metrics: Vec<Metric>,
}

impl Report {
    fn new(ledger: &Ledger, table: &[(&'static str, &'static str)], values: &[f64]) -> Report {
        Report {
            correct: ledger.failed == 0,
            attempted: ledger.attempted,
            failed: ledger.failed,
            metrics: table
                .iter()
                .zip(values)
                .map(|(&(name, unit), &value)| Metric { name, value, unit })
                .collect(),
        }
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs the benchmark in the working directory; daemon state lives under
/// [`OUT_DIR`] and is removed afterwards, traces stay there.
///
/// # Errors
///
/// Set-up failures, or a synthesis so broken nothing can be streamed.
pub fn run(args: &Args) -> Result<Report, String> {
    let run_dir = Path::new(OUT_DIR).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = run_in(args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

/// Closed-loop requests of a service run measuring `seconds`.
fn service_requests(seconds: f64) -> usize {
    // cast-ok: a positive number of seconds times a small rate.
    ((seconds * SERVICE_REQUESTS_PER_SECOND) as usize).clamp(CLIENTS, workload::SERVICE_SEQUENCE)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A stable digest of an assignment vector.
fn assignment_digest(assignment: &[u32]) -> u64 {
    assignment.iter().fold(0x9e37_79b9_7f4a_7c15, |acc, &p| {
        sparcs::rtr::stream::splitmix64(acc ^ u64::from(p))
    })
}

/// Peak resident set (VmHWM) of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything a run checks against, plus the running tallies.
struct Bench {
    kind: Kind,
    seconds: f64,
    threads: u32,
    inputs: Inputs,
    jobs: Vec<JobSpec>,
    ledger: Ledger,
    repeats: Repeats,
    audited: HashSet<usize>,
}

impl Bench {
    fn daemon(&self) -> &Daemon {
        self.inputs
            .daemon
            .as_ref()
            .expect("the daemon is up between restarts")
    }

    fn observe(&mut self, name: &str, value: impl std::fmt::Display) -> Result<(), String> {
        self.repeats.observe(name, value)
    }

    /// Checks a synthesis pass; `full` also audits every design and
    /// fission. Returns the pass's `latency_over_bound`.
    fn check_synth(&mut self, results: &[Result<Synthesized, String>], full: bool) -> f64 {
        let mut ratios = Vec::new();
        for (i, (s, result)) in self.inputs.synth.iter().zip(results).enumerate() {
            let spec = format!("{i}:{}", s.spec);
            let repeats = &mut self.repeats;
            let outcome = result.as_ref().map_err(Clone::clone).and_then(|syn| {
                let d = &syn.design;
                checks::latency_matches(s.pinned_latency_ns, d.latency_ns)?;
                if d.latency_ns < s.bound_ns {
                    return Err(format!(
                        "latency {} ns below the certified bound {} ns",
                        d.latency_ns, s.bound_ns
                    ));
                }
                ratios.push(d.latency_ns as f64 / s.bound_ns as f64);
                let assignment: Vec<u32> =
                    d.partitioning.assignment().iter().map(|p| p.0).collect();
                repeats.observe(&format!("latency[{spec}]"), d.latency_ns)?;
                repeats.observe(
                    &format!("assignment[{spec}]"),
                    assignment_digest(&assignment),
                )?;
                if s.spec == "ilp" {
                    repeats.observe("ilp.nodes[synth]", d.stats.nodes)?;
                    repeats.observe("ilp.pivots[synth]", d.stats.pivots)?;
                }
                if full {
                    checks::design_audits_clean(&s.graph, &s.arch, d, MemoryMode::Net)?;
                    checks::fission_audits_clean(&s.graph, &d.partitioning, &syn.fission, &s.arch)?;
                }
                Ok(())
            });
            self.ledger.record(&format!("synth {spec}"), outcome);
        }
        let lob = geomean(&ratios);
        let outcome = self.observe("latency_over_bound", format!("{lob:.12}"));
        self.ledger.record("latency_over_bound", outcome);
        lob
    }

    /// Checks an exploration; returns the top candidate's total time.
    fn check_explore(&mut self, result: &Result<Exploration, String>, full: bool) -> Option<u64> {
        let case = &self.inputs.explore;
        let repeats = &mut self.repeats;
        let outcome = result.as_ref().map_err(Clone::clone).and_then(|ex| {
            let best = ex.best();
            repeats.observe("flow.explore.candidates", ex.candidates.len())?;
            repeats.observe("design_total_ns", best.total_ns)?;
            if full {
                let arch = [
                    case.arch.clone(),
                    sparcs::estimate::Architecture::xc4044_wildforce(),
                    sparcs::estimate::Architecture::xc6200_fast_reconfig(),
                    sparcs::estimate::Architecture::time_multiplexed(),
                ]
                .into_iter()
                .find(|a| a.name == best.arch)
                .ok_or_else(|| format!("unknown board {}", best.arch))?;
                checks::design_audits_clean(&case.graph, &arch, &best.design, MemoryMode::Net)?;
                checks::fission_audits_clean(
                    &case.graph,
                    &best.design.partitioning,
                    &best.fission,
                    &arch,
                )?;
            }
            Ok(best.total_ns)
        });
        let best = outcome.as_ref().ok().copied();
        self.ledger.record("explore", outcome.map(|_| ()));
        best
    }

    /// Checks one stream; returns it when it ran.
    fn check_stream(&mut self, result: Result<Streamed, String>) -> Option<Streamed> {
        let outcome = result.and_then(|s| {
            self.observe("stream.digest", format!("{:016x}", s.digest))?;
            Ok(s)
        });
        let streamed = outcome.as_ref().ok().cloned();
        self.ledger.record("stream", outcome.map(|_| ()));
        streamed
    }

    /// Checks served results: pinned latencies, the certified bound, one
    /// re-audit per distinct statement, and identical answers to every
    /// repeat of a statement.
    fn check_served(&mut self, served: &[Served]) {
        for s in served {
            let stmt = &self.inputs.serve_pool[s.statement];
            let (repeats, audited) = (&mut self.repeats, &mut self.audited);
            let outcome = s.result.as_ref().map_err(Clone::clone).and_then(|r| {
                checks::latency_matches(stmt.pinned_latency_ns, r.latency_ns)?;
                if r.latency_ns < stmt.bound_ns {
                    // (A bound of 0 was not precomputed: nothing to check.)
                    return Err(format!(
                        "served latency {} ns below the certified bound {} ns",
                        r.latency_ns, stmt.bound_ns
                    ));
                }
                repeats.observe(
                    &format!("served[{}]", s.statement),
                    assignment_digest(&r.assignment),
                )?;
                if audited.insert(s.statement) {
                    checks::served_result_audits_clean(&stmt.graph, &stmt.arch, r)?;
                }
                Ok(())
            });
            self.ledger.record("serve", outcome);
        }
    }

    /// One flow-workload serve batch: the whole request sequence.
    fn serve_batch(&mut self, tracer: &Tracer) -> (Vec<Served>, Duration) {
        let (served, wall) = closed_loop(
            self.daemon(),
            &self.jobs,
            &self.inputs.serve_sequence,
            tracer,
        );
        self.check_served(&served);
        (served, wall)
    }

    /// The service workload's closed loop: the first `requests` of the
    /// request sequence, an orderly shutdown, a restart over the same
    /// journal and store, and a replay of the same requests. A fixed
    /// count, not a time limit, keeps the mix of fresh solves and repeats
    /// the same from run to run. Returns every round trip, the loops' wall
    /// time and the restart time.
    fn serve_with_restart(
        &mut self,
        requests: usize,
        tracer: &Tracer,
    ) -> Result<(Vec<Served>, Duration, Duration), String> {
        let sequence = self.inputs.serve_sequence[..requests].to_vec();
        let (mut served, wall_a) = closed_loop(self.daemon(), &self.jobs, &sequence, tracer);
        self.check_served(&served);
        let daemon = self.inputs.daemon.take().expect("the daemon is up");
        let dir = daemon.dir().to_path_buf();
        daemon.stop()?;
        let t0 = Instant::now();
        self.inputs.daemon = Some(Daemon::start(&dir).map_err(|e| format!("restart: {e}"))?);
        let restart = t0.elapsed();
        let (again, wall_b) = closed_loop(self.daemon(), &self.jobs, &sequence, tracer);
        self.check_served(&again);
        served.extend(again);
        Ok((served, wall_a + wall_b, restart))
    }

    /// Streams once more under FDH and through the static equivalent: all
    /// three digests must agree (and match the pinned one), and both
    /// sequencers' time reports must audit clean.
    fn final_stream_checks(&mut self, case: &StreamCase, idh: &Streamed) {
        let baseline = case.run_static();
        let outcome = baseline.clone().and_then(|b| {
            checks::digest_matches(idh.digest, b.digest, case.pinned_digest)?;
            checks::report_audits_clean(
                &case.graph,
                &case.partitioning,
                &case.fission,
                SequencingStrategy::Idh,
                case.computations,
                &idh.report,
            )
        });
        self.ledger.record("stream IDH vs static", outcome);
        let outcome = case.run_fdh().and_then(|f| {
            let b = baseline?;
            checks::digest_matches(f.digest, b.digest, case.pinned_digest)?;
            checks::report_audits_clean(
                &case.graph,
                &case.partitioning,
                &case.fission,
                SequencingStrategy::Fdh,
                case.computations,
                &f.report,
            )
        });
        self.ledger.record("stream FDH vs static", outcome);
    }
}

fn run_in(args: &Args, run_dir: &Path) -> Result<Report, String> {
    let kind = args.workload;
    let name = kind.name();
    eprintln!("[{name}] seed {} set-up x{SETUPS}", args.seed);
    let mut setup_s = Vec::new();
    let mut inputs: Option<Inputs> = None;
    pace::calibrate(); // first touch of the calibration table
    for i in 0..SETUPS {
        let dir = run_dir.join(format!("sparcsd{i}"));
        let (fresh, wall, pace) = pace::timed(|| workload::setup(kind, args.seed, &dir));
        let fresh = fresh.map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(secs(wall) * pace);
        if let Some(mut old) = inputs.replace(fresh) {
            if let Some(d) = old.daemon.take() {
                d.stop()?;
            }
        }
    }
    let inputs = inputs.expect("at least one set-up");
    let jobs = inputs.serve_pool.iter().map(|s| s.job()).collect();
    let mut bench = Bench {
        kind,
        seconds: args.seconds,
        threads: ops::threads(),
        inputs,
        jobs,
        ledger: Ledger::default(),
        repeats: Repeats::default(),
        audited: HashSet::new(),
    };

    // Warm-up round, fully audited; it also lifts the stream design.
    let t0 = Instant::now();
    let step = |what: &str| eprintln!("[{name}] warm-up: {what} at {:.1} s", secs(t0.elapsed()));
    let off = Tracer::new(false);
    let (_, synth0) = ops::synth_pass(&bench.inputs.synth, bench.threads);
    step("synthesized");
    bench.check_synth(&synth0, true);
    step("audited");
    let case = StreamCase::build(
        bench.inputs.stream_statement.as_ref(),
        args.seed,
        bench.threads,
    )
    .map_err(|e| format!("the stream design did not synthesize: {e}"))?;
    step("stream design built");
    let (_, ex0) = ops::explore(&bench.inputs.explore, bench.threads);
    bench.check_explore(&ex0, true);
    step("explored");
    let first_stream = bench
        .check_stream(case.run_idh())
        .ok_or("the warm-up stream failed")?;
    step("streamed");
    if kind != Kind::Service {
        bench.serve_batch(&off);
        step("served");
    }

    let report = if args.trace {
        traced(&mut bench, &case, run_dir)?
    } else {
        measured(&mut bench, &case, setup_s)?
    };
    bench.final_stream_checks(&case, &first_stream);
    if let Some(d) = bench.inputs.daemon.take() {
        let outcome = d.stop();
        bench.ledger.record("daemon shutdown", outcome);
    }
    eprintln!(
        "[{name}] {} attempted, {} failed (failed_share {:.4})",
        bench.ledger.attempted,
        bench.ledger.failed,
        bench.ledger.failed_share()
    );
    for m in &bench.ledger.messages {
        eprintln!("[{name}] FAILED {m}");
    }
    Ok(Report {
        correct: bench.ledger.failed == 0,
        attempted: bench.ledger.attempted,
        failed: bench.ledger.failed,
        ..report
    })
}

/// The untraced run: end-to-end metrics.
fn measured(bench: &mut Bench, case: &StreamCase, setup_s: Vec<f64>) -> Result<Report, String> {
    let name = bench.kind.name();
    let off = Tracer::new(false);
    let (mut synth, mut explore, mut stream) = (Vec::new(), Vec::new(), Vec::new());
    let (mut served, mut serve_wall, mut serve_pace) = (Vec::new(), Duration::ZERO, Vec::new());
    let (mut lob, mut best_total) = (0.0, 0u64);
    let round_seconds = bench.seconds
        * if bench.kind == Kind::Service {
            SERVICE_ROUND_SHARE
        } else {
            1.0
        };
    let rounds_wanted = |round: usize, elapsed: Duration| {
        round < MIN_ROUNDS || (secs(elapsed) < round_seconds && round < MAX_ROUNDS)
    };
    // Raw wall-clock samples, for the human summary only.
    let (mut raw_synth, mut raw_explore, mut raw_stream) = (Vec::new(), Vec::new(), Vec::new());
    let t_start = Instant::now();
    let mut round = 0;
    while rounds_wanted(round, t_start.elapsed()) {
        let ((wall, results), _, pace) =
            pace::timed(|| ops::synth_pass(&bench.inputs.synth, bench.threads));
        synth.push(secs(wall) * pace);
        raw_synth.push(secs(wall));
        lob = bench.check_synth(&results, false);
        let ((wall, result), _, pace) =
            pace::timed(|| ops::explore(&bench.inputs.explore, bench.threads));
        explore.push(secs(wall) * pace);
        raw_explore.push(secs(wall));
        best_total = bench.check_explore(&result, false).unwrap_or(best_total);
        for _ in 0..case.repeats {
            let (result, _, pace) = pace::timed(|| case.run_idh());
            if let Some(s) = bench.check_stream(result) {
                let mwords = (case.computations * case.words_per_computation()) as f64 / 1e6;
                stream.push(mwords / (secs(s.wall) * pace));
                raw_stream.push(mwords / secs(s.wall));
            }
        }
        if bench.kind != Kind::Service {
            let ((batch, wall), pace) = pace::sampled(|| bench.serve_batch(&off));
            served.extend(batch);
            serve_wall += wall;
            serve_pace.push(pace);
        }
        round += 1;
        eprintln!(
            "[{name}] round {round}: synth {:.3} s, explore {:.3} s, stream {:.1} Mwords/s \
             (raw {:.3} s, {:.3} s, {:.1} Mwords/s)",
            synth.last().copied().unwrap_or(0.0),
            explore.last().copied().unwrap_or(0.0),
            stream.last().copied().unwrap_or(0.0),
            raw_synth.last().copied().unwrap_or(0.0),
            raw_explore.last().copied().unwrap_or(0.0),
            raw_stream.last().copied().unwrap_or(0.0),
        );
    }
    eprintln!(
        "[{name}] raw wall medians: synth {:.4} s, explore {:.4} s, stream {:.2} Mwords/s",
        median(&raw_synth),
        median(&raw_explore),
        median(&raw_stream)
    );
    if bench.kind == Kind::Service {
        let requests = service_requests(bench.seconds);
        let (outcome, pace) = pace::sampled(|| bench.serve_with_restart(requests, &off));
        let (all, wall, restart) = outcome?;
        eprintln!(
            "[{name}] {} requests, restart {:.1} ms",
            all.len(),
            secs(restart) * 1e3
        );
        served = all;
        serve_wall = wall;
        serve_pace.push(pace);
    }
    let totals: Vec<f64> = served.iter().map(|s| s.total_ms).collect();
    let t = tail(&totals, 10);
    let p50 = median(&totals);
    // The median sits on the daemon's accept-poll floor (sleeps, which do
    // not scale with CPU speed); the tail's excess over it is CPU time
    // (fresh solves), so only that excess is host-paced.
    let paced_tail = p50 + (t.value - p50) * median(&serve_pace);
    eprintln!(
        "[{name}] svc tail: p{} = {:.2} ms over {} samples ({} beyond), host-paced {:.2} ms",
        t.percentile, t.value, t.samples, t.beyond, paced_tail
    );
    let mut sorted = totals.clone();
    sorted.sort_by(f64::total_cmp);
    let deciles: Vec<String> = (0..=10)
        .map(|d| format!("{:.1}", sorted[(d * (sorted.len() - 1)) / 10]))
        .collect();
    eprintln!("[{name}] svc latency deciles (ms): {}", deciles.join(" "));
    let values = [
        median(&setup_s),
        median(&synth),
        median(&explore),
        median(&stream),
        lob,
        best_total as f64 / 1e9,
        peak_rss_mib(),
        p50,
        paced_tail,
        served.len() as f64 / secs(serve_wall).max(1e-9),
    ];
    for ((name_, unit), v) in END_TO_END.iter().zip(values) {
        eprintln!("[{name}] {name_} = {v} {unit}");
    }
    Ok(Report::new(&bench.ledger, &END_TO_END, &values))
}

/// One re-enacted round through the layer calls; returns the stream's
/// phase profile.
fn layered_round(
    bench: &mut Bench,
    case: &StreamCase,
    tracer: &Tracer,
    counts: &mut Counts,
) -> Option<PhaseProfile> {
    let results = layers::synth_pass(tracer, &bench.inputs.synth, bench.threads, counts);
    for (i, r) in results.into_iter().enumerate() {
        let s = &bench.inputs.synth[i];
        let (spec, pinned) = (format!("{i}:{}", s.spec), s.pinned_latency_ns);
        let outcome = r.and_then(|latency| {
            checks::latency_matches(pinned, latency)?;
            bench.observe(&format!("latency[{spec}]"), latency)
        });
        bench
            .ledger
            .record(&format!("layered synth {spec}"), outcome);
    }
    let outcome =
        layers::explore(tracer, &bench.inputs.explore, bench.threads, counts).and_then(|ex| {
            bench.observe("flow.explore.candidates", ex.candidates)?;
            bench.observe("design_total_ns", ex.best_total_ns)
        });
    bench.ledger.record("layered explore", outcome);
    let streamed = bench.check_stream(layers::stream(tracer, case));
    if bench.kind != Kind::Service {
        bench.serve_batch(tracer);
    }
    for (name, value) in [
        ("layered.ilp.nodes", counts.ilp_nodes),
        ("layered.ilp.pivots", counts.ilp_pivots),
        ("multilevel.levels", counts.multilevel_levels),
    ] {
        let outcome = bench.observe(name, value);
        bench.ledger.record("repeat", outcome);
    }
    streamed.map(|s| s.profile)
}

/// The traced run: per-layer metrics.
fn traced(bench: &mut Bench, case: &StreamCase, run_dir: &Path) -> Result<Report, String> {
    let name = bench.kind.name();
    let on = Tracer::new(true);
    let off = Tracer::new(false);
    let (mut untraced, mut traced_walls) = (Vec::new(), Vec::new());
    let mut totals = Counts::default();
    let mut profiles = Vec::new();
    let t_start = Instant::now();
    let mut rounds = 0usize;
    while rounds < MIN_TRACED_ROUNDS
        || (secs(t_start.elapsed()) < bench.seconds && rounds < MAX_ROUNDS)
    {
        // Host-paced, so drift between the two halves of a pair does not
        // read as tracing overhead.
        let (_, wall, pace) =
            pace::timed(|| layered_round(bench, case, &off, &mut Counts::default()));
        untraced.push(secs(wall) * pace);
        let mut counts = Counts::default();
        let (profile, wall, pace) = pace::timed(|| layered_round(bench, case, &on, &mut counts));
        profiles.extend(profile);
        traced_walls.push(secs(wall) * pace);
        totals.add(&counts);
        rounds += 1;
        eprintln!(
            "[{name}] traced round {rounds}: untraced {:.3} s, traced {:.3} s",
            untraced[rounds - 1],
            traced_walls[rounds - 1]
        );
    }
    if bench.kind == Kind::Service {
        bench.serve_with_restart(service_requests(bench.seconds) / 2, &on)?;
    }
    probes(bench, &on, run_dir)?;
    let stats = bench.daemon().stats()?;

    let spans = on.spans();
    write_traces(bench, &spans);
    let selfs = trace::self_times(&spans);
    let per_round = rounds as f64;
    let self_ms = |layer: &str| -> f64 {
        let ns: u64 = spans
            .iter()
            .filter(|s| s.name == layer)
            .map(|s| selfs[&s.id])
            .sum();
        ns as f64 / 1e6
    };
    let median_ms = |layer: &str| -> f64 {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == layer)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        median(&d)
    };
    let (op_total, op_self) = spans
        .iter()
        .filter(|s| OPERATIONS.contains(&s.name))
        .fold((0u64, 0u64), |(t, o), s| {
            (t + s.duration_ns(), o + selfs[&s.id])
        });
    let coverage = 1.0 - op_self as f64 / op_total.max(1) as f64;
    let ilp_secs = self_ms("ilp.solve") / 1e3;
    let explores = totals.explores.max(1) as f64;
    let mean_profile = |f: fn(&PhaseProfile) -> u64| {
        profiles.iter().map(f).sum::<u64>() as f64 / 1e6 / profiles.len().max(1) as f64
    };
    let lookups = stats.cache_hits + stats.cache_misses;
    let values = [
        self_ms("dfg.parse") / per_round,
        totals.parse_bytes as f64 / 1e6 / (self_ms("dfg.parse") / 1e3).max(1e-12),
        self_ms("analyze") / per_round,
        totals.analyze_calls as f64 / explores,
        self_ms("core.list") / per_round,
        self_ms("core.memlist") / per_round,
        self_ms("core.refine.kl") / per_round,
        self_ms("core.refine.anneal") / per_round,
        median_ms("multilevel.coarsen"),
        self_ms("multilevel") / per_round,
        totals.multilevel_levels as f64,
        totals.multilevel_coarsest_tasks as f64,
        self_ms("ilp.solve") / per_round,
        totals.ilp_nodes as f64 / per_round,
        totals.ilp_pivots as f64 / per_round,
        if ilp_secs > 0.0 {
            totals.ilp_pivots as f64 / ilp_secs
        } else {
            0.0
        },
        totals.ilp_cold_solves as f64 / per_round,
        self_ms("strategy.portfolio") / per_round,
        self_ms("audit.design") / per_round,
        self_ms("audit.fission") / per_round,
        totals.audit_diagnostics as f64,
        self_ms("core.fission") / per_round,
        totals.explore_candidates as f64 / explores,
        totals.explore_skipped as f64 / explores,
        totals.cache_hits as f64 / totals.cache_lookups.max(1) as f64,
        mean_profile(|p| p.load_ns),
        mean_profile(|p| p.compute_ns),
        mean_profile(|p| p.store_ns),
        case.words_per_computation() as f64,
        median_ms("sparcsd.submit"),
        median_ms("sparcsd.result"),
        median_ms("sparcsd.replay"),
        median_ms("sparcsd.journal_append"),
        stats.cache_hits as f64 / lookups.max(1) as f64,
        stats.store_hits as f64,
        median(&traced_walls) / median(&untraced).max(1e-12) - 1.0,
        coverage,
        1.0 - coverage,
    ];
    for ((name_, unit), v) in PER_LAYER.iter().zip(values) {
        eprintln!("[{name}] {name_} = {v} {unit}");
    }
    Ok(Report::new(&bench.ledger, &PER_LAYER, &values))
}

/// Layer calls that are not part of any operation, timed on the
/// workload's own inputs: the multilevel coarsener alone, journal
/// appends of the workload's jobs, and a replay of the daemon's journal.
fn probes(bench: &mut Bench, tracer: &Tracer, run_dir: &Path) -> Result<(), String> {
    let op = tracer.op();
    let ml = MultilevelConfig::default();
    let config = CoarsenConfig {
        coarsest_tasks: ml.coarsest_tasks,
        max_levels: ml.max_levels,
        min_shrink_per_mille: ml.min_shrink_per_mille,
        seed: ml.seed,
    };
    if let Some(s) = bench
        .inputs
        .synth
        .iter()
        .find(|s| s.spec.starts_with("multilevel"))
    {
        for _ in 0..3 {
            let outcome = tracer
                .span(op, "multilevel.coarsen", |_| {
                    coarsen(&s.graph, &s.arch, &config)
                })
                .map(|_| ())
                .map_err(|e| e.to_string());
            bench.ledger.record("probe coarsen", outcome);
        }
    }
    let scratch = run_dir.join("probe-journal.jsonl");
    let (mut journal, _) = Journal::open(&scratch).map_err(|e| format!("probe journal: {e}"))?;
    for (job, &statement) in bench.inputs.serve_sequence.iter().take(16).enumerate() {
        let event = Event::Submitted {
            job: job as u64,
            spec: bench.jobs[statement].clone(),
        };
        let outcome = tracer
            .span(op, "sparcsd.journal_append", |_| journal.append(&event))
            .map_err(|e| e.to_string());
        bench.ledger.record("probe journal append", outcome);
    }
    let live = bench.daemon().dir().join("data").join("journal.jsonl");
    for i in 0..3 {
        let copy = run_dir.join(format!("probe-replay-{i}.jsonl"));
        std::fs::copy(&live, &copy).map_err(|e| format!("probe replay copy: {e}"))?;
        let outcome = tracer.span(op, "sparcsd.replay", |_| {
            Journal::open(&copy).map(|(_, replay)| JobGraph::replay(&replay.events))
        });
        bench.ledger.record(
            "probe replay",
            outcome.map(|_| ()).map_err(|e| e.to_string()),
        );
    }
    Ok(())
}

/// Writes the spans as JSON lines and Chrome trace-event JSON under
/// [`OUT_DIR`]`/traces`.
fn write_traces(bench: &Bench, spans: &[trace::Span]) {
    let dir = PathBuf::from(OUT_DIR).join("traces");
    let stem = format!("{}-{}", bench.kind.name(), std::process::id());
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}.jsonl")),
                trace::to_json_lines(spans),
            )
        })
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}.trace.json")),
                trace::to_chrome(spans),
            )
        });
    match written {
        Ok(()) => eprintln!(
            "[{}] traces written to {}/{stem}.*",
            bench.kind.name(),
            dir.display()
        ),
        Err(e) => eprintln!("[{}] could not write traces: {e}", bench.kind.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = args("--workload dct-paper --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Kind::DctPaper, 3, 10.0, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("--workload service --trace 2").is_err());
        assert!(args("--workload service --seconds").is_err());
    }

    #[test]
    fn the_report_is_one_json_line_with_every_metric() {
        let ledger = Ledger {
            attempted: 4,
            failed: 0,
            messages: Vec::new(),
        };
        let values: Vec<f64> = (0..END_TO_END.len()).map(|i| i as f64 + 0.5).collect();
        let json = Report::new(&ledger, &END_TO_END, &values).to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0"));
        assert!(!json.contains('\n'));
        for (name, unit) in END_TO_END {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
    }

    /// The metric tables here and `BENCHMARK.json` name the same metrics.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // only the benchmark's own files are present
        };
        let listed = text.matches("\"bound\"").count() + text.matches("\"better\"").count();
        let mut names = 0;
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
            names += 1;
        }
        // Every end-to-end entry has a bound and a direction, every
        // per-layer entry a direction.
        assert_eq!(listed, 2 * END_TO_END.len() + PER_LAYER.len());
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len());
    }
}
