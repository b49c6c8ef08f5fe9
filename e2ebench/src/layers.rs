//! The traced run: each operation re-enacted from this file as the chain
//! of public layer calls the flow makes, with a span around every call.
//!
//! With a disabled [`Tracer`] the same code is the untraced counterpart
//! the tracing overhead is measured against.

use crate::ops::{strategy_for, StreamCase, Streamed};
use crate::trace::{Ctx, Tracer};
use crate::workload::{ExploreCase, Statement, PAPER_BLOCKS};
use sparcs::cache::PartitionCache;
use sparcs::core::fission::{BlockRounding, FissionAnalysis};
use sparcs::core::partitioning::MemoryMode;
use sparcs::core::search::SearchCtx;
use sparcs::core::{PartitionOptions, PartitionedDesign, SequencingStrategy};
use sparcs::estimate::Architecture;
use sparcs::flow::{design_from_partitioning, statement_key, DesignContext, FlowError};
use sparcs::multilevel::{partition_multilevel, MultilevelConfig};
use sparcs::strategy::{AnnealRefiner, GainRefiner, KlRefiner, Refinement};

/// Work counts gathered at the layer boundaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// `.tg` bytes parsed.
    pub parse_bytes: u64,
    /// `sparcs_analyze::analyze` calls.
    pub analyze_calls: u64,
    /// Explorations re-enacted.
    pub explores: u64,
    /// Branch-and-bound nodes over the exact solves.
    pub ilp_nodes: u64,
    /// Simplex iterations over them.
    pub ilp_pivots: u64,
    /// Cold LP solves over them.
    pub ilp_cold_solves: u64,
    /// Multilevel tower depth (last multilevel call).
    pub multilevel_levels: u64,
    /// Coarsest task count (last multilevel call).
    pub multilevel_coarsest_tasks: u64,
    /// Audit diagnostics found (errors and warnings).
    pub audit_diagnostics: u64,
    /// Ranked exploration candidates.
    pub explore_candidates: u64,
    /// Skipped exploration specs and roundings.
    pub explore_skipped: u64,
    /// Partition-cache lookups during exploration.
    pub cache_lookups: u64,
    /// Partition-cache hits during exploration.
    pub cache_hits: u64,
}

impl Counts {
    /// Adds another round's counts (tower shape: the latest seen).
    pub fn add(&mut self, o: &Counts) {
        self.parse_bytes += o.parse_bytes;
        self.analyze_calls += o.analyze_calls;
        self.explores += o.explores;
        self.ilp_nodes += o.ilp_nodes;
        self.ilp_pivots += o.ilp_pivots;
        self.ilp_cold_solves += o.ilp_cold_solves;
        self.multilevel_levels = o.multilevel_levels;
        self.multilevel_coarsest_tasks = o.multilevel_coarsest_tasks;
        self.audit_diagnostics += o.audit_diagnostics;
        self.explore_candidates += o.explore_candidates;
        self.explore_skipped += o.explore_skipped;
        self.cache_lookups += o.cache_lookups;
        self.cache_hits += o.cache_hits;
    }
}

fn rendered<T, E: std::fmt::Display>(r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// Partitions through the layer the spec names: the exact solver, a list
/// packer, the multilevel V-cycle or the portfolio race, then each
/// refinement pass in order.
fn partition_layers(
    tracer: &Tracer,
    ctx: Ctx,
    spec: &str,
    options: &PartitionOptions,
    dctx: &DesignContext,
    threads: u32,
    counts: &mut Counts,
) -> Result<PartitionedDesign, FlowError> {
    let search = SearchCtx::unbounded();
    if spec == "portfolio" {
        let strategy = strategy_for(spec, options, threads)?;
        return tracer.span(ctx, "strategy.portfolio", |_| {
            strategy.partition(dctx, &search)
        });
    }
    let mut parts = spec.split('+');
    let seed = parts.next().unwrap_or_default();
    let memory_mode = options.model.memory_mode;
    let mut design = match seed {
        "ilp" => {
            let strategy = strategy_for(seed, options, threads)?;
            let design = tracer.span(ctx, "ilp.solve", |_| strategy.partition(dctx, &search))?;
            counts.ilp_nodes += design.stats.nodes as u64;
            counts.ilp_pivots += design.stats.pivots as u64;
            counts.ilp_cold_solves += design.stats.cold_solves as u64;
            design
        }
        "list" | "memlist" => {
            let strategy = strategy_for(seed, options, threads)?;
            let name = if seed == "list" {
                "core.list"
            } else {
                "core.memlist"
            };
            tracer.span(ctx, name, |_| strategy.partition(dctx, &search))?
        }
        "multilevel" => {
            let config = MultilevelConfig {
                memory_mode,
                ..MultilevelConfig::default()
            };
            let outcome = tracer.span(ctx, "multilevel", |_| {
                partition_multilevel(&dctx.graph, &dctx.arch, &config, options, &search)
            })?;
            counts.multilevel_levels = outcome.levels as u64;
            counts.multilevel_coarsest_tasks = outcome.coarsest_tasks as u64;
            design_from_partitioning(dctx, outcome.partitioning)?
        }
        other => return Err(FlowError::Spec(format!("unknown seed {other:?}"))),
    };
    for pass in parts {
        let (name, refiner): (&'static str, Box<dyn Refinement>) = match pass {
            "kl" => (
                "core.refine.kl",
                Box::new(KlRefiner {
                    memory_mode,
                    ..KlRefiner::default()
                }),
            ),
            "anneal" => (
                "core.refine.anneal",
                Box::new(AnnealRefiner {
                    memory_mode,
                    ..AnnealRefiner::default()
                }),
            ),
            "fm" => (
                "core.refine.fm",
                Box::new(GainRefiner {
                    memory_mode,
                    ..GainRefiner::default()
                }),
            ),
            other => return Err(FlowError::Spec(format!("unknown pass {other:?}"))),
        };
        let refined = tracer.span(ctx, name, |_| {
            refiner.refine(&design.partitioning, dctx, &search)
        })?;
        design = design_from_partitioning(dctx, refined)?;
    }
    Ok(design)
}

/// One statement's synthesis as layer calls: parse, partition, certify,
/// fission, fission audit. Returns the design's latency.
fn synth_statement(
    tracer: &Tracer,
    ctx: Ctx,
    s: &Statement,
    threads: u32,
    counts: &mut Counts,
) -> Result<u64, String> {
    let graph = tracer.span(ctx, "dfg.parse", |_| {
        rendered(sparcs::dfg::parse::parse(&s.text))
    })?;
    counts.parse_bytes += s.text.len() as u64;
    let dctx = DesignContext {
        graph,
        arch: s.arch.clone(),
    };
    let design = rendered(partition_layers(
        tracer, ctx, &s.spec, &s.options, &dctx, threads, counts,
    ))?;
    let diags = tracer.span(ctx, "audit.design", |_| {
        sparcs::audit::audit_design(&dctx.graph, &dctx.arch, &design, MemoryMode::Net)
    });
    counts.audit_diagnostics += diags.len() as u64;
    let fission = tracer.span(ctx, "core.fission", |_| {
        rendered(FissionAnalysis::analyze(
            &dctx.graph,
            &design.partitioning,
            &design.partition_delays_ns,
            &dctx.arch,
            BlockRounding::Exact,
        ))
    })?;
    let fdiags = tracer.span(ctx, "audit.fission", |_| {
        sparcs::audit::audit_fission(&dctx.graph, &design.partitioning, &fission, &dctx.arch)
    });
    counts.audit_diagnostics += fdiags.len() as u64;
    match diags.iter().chain(&fdiags).next() {
        Some(d) => Err(format!("{}: {d}", s.spec)),
        None => Ok(design.latency_ns),
    }
}

/// A synthesis pass as layer calls; returns each statement's latency.
pub fn synth_pass(
    tracer: &Tracer,
    statements: &[Statement],
    threads: u32,
    counts: &mut Counts,
) -> Vec<Result<u64, String>> {
    let op = tracer.op();
    tracer.span(op, "synth", |ctx| {
        statements
            .iter()
            .map(|s| synth_statement(tracer, ctx, s, threads, counts))
            .collect()
    })
}

/// The outcome of a re-enacted exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Explored {
    /// Ranked candidates.
    pub candidates: u64,
    /// The top-ranked candidate's modelled total time, ns.
    pub best_total_ns: u64,
}

/// The candidate specs of an exploration: `(spec, options, cap)` in the
/// order `ExploreSpace` builds them.
fn explore_specs(
    case: &ExploreCase,
) -> Result<Vec<(String, PartitionOptions, Option<u32>)>, String> {
    let space = case.space(1);
    let mut options = space.ilp_options.clone();
    if options.solve.root_bound.is_none() {
        let lb = rendered(sparcs::analyze::critical_path_lb_ns(&case.graph))?;
        // cast-ok: as in `ExploreSpace`, delay sums stay far below 2^53 ns.
        options.solve.root_bound = Some(lb as f64);
    }
    let mut specs = Vec::new();
    if space.include_ilp {
        let caps = if space.max_partitions.is_empty() {
            vec![None]
        } else {
            space.max_partitions.clone()
        };
        for cap in caps {
            let effective = cap.or(options.max_partitions);
            let capped = PartitionOptions {
                max_partitions: effective,
                ..options.clone()
            };
            specs.push(("ilp".to_string(), capped, effective));
        }
    }
    if space.include_list {
        specs.push(("list".to_string(), options.clone(), None));
    }
    for spec in &space.specs {
        specs.push((spec.clone(), options.clone(), None));
    }
    Ok(specs)
}

/// An exploration as layer calls, serial, through a fresh partition
/// cache: per (board, spec) the static pre-pass, the partition, the
/// validation, and one fission analysis per rounding.
///
/// # Errors
///
/// Hard (non-infeasible) errors, rendered.
pub fn explore(
    tracer: &Tracer,
    case: &ExploreCase,
    threads: u32,
    counts: &mut Counts,
) -> Result<Explored, String> {
    let op = tracer.op();
    tracer.span(op, "explore", |ctx| {
        let space = case.space(1);
        let archs: Vec<Architecture> = if space.architectures.is_empty() {
            vec![case.arch.clone()]
        } else {
            space.architectures.clone()
        };
        let specs = explore_specs(case)?;
        let cache = PartitionCache::new();
        let mut best: Option<u64> = None;
        let mut candidates = 0u64;
        for arch in archs {
            let dctx = DesignContext {
                graph: case.graph.clone(),
                arch,
            };
            for (spec, options, cap) in &specs {
                let analysis = tracer.span(ctx, "analyze", |_| {
                    rendered(sparcs::analyze::analyze(
                        &dctx.graph,
                        &dctx.arch,
                        space.memory_mode,
                    ))
                })?;
                counts.analyze_calls += 1;
                let strategy = rendered(strategy_for(spec, options, threads))?;
                if analysis
                    .static_verdict(cap.or(strategy.partition_cap()))
                    .is_some()
                {
                    counts.explore_skipped += 1;
                    continue;
                }
                let mut solve =
                    || partition_layers(tracer, ctx, spec, options, &dctx, threads, counts);
                let outcome = match statement_key(&dctx, strategy.as_ref()) {
                    Some(key) => cache.get_or_solve(key, solve),
                    None => solve().map(std::sync::Arc::new),
                };
                let design = match outcome {
                    Ok(d) => d,
                    Err(e) if e.is_infeasible() => {
                        counts.explore_skipped += 1;
                        continue;
                    }
                    Err(e) => return Err(e.to_string()),
                };
                if !design
                    .partitioning
                    .validate(&dctx.graph, &dctx.arch, space.memory_mode)
                    .is_empty()
                {
                    counts.explore_skipped += 1;
                    continue;
                }
                for &rounding in &space.roundings {
                    let fission = tracer.span(ctx, "core.fission", |_| {
                        FissionAnalysis::analyze(
                            &dctx.graph,
                            &design.partitioning,
                            &design.partition_delays_ns,
                            &dctx.arch,
                            rounding,
                        )
                    });
                    let Ok(fission) = fission else {
                        counts.explore_skipped += 1;
                        continue;
                    };
                    for &sequencing in &space.sequencings {
                        let total = match sequencing {
                            SequencingStrategy::Fdh => {
                                fission.total_time_ns(SequencingStrategy::Fdh, PAPER_BLOCKS)
                            }
                            SequencingStrategy::Idh => {
                                fission.idh_total_time_overlapped_ns(PAPER_BLOCKS)
                            }
                        };
                        candidates += 1;
                        best = Some(best.map_or(total, |b| b.min(total)));
                    }
                }
            }
        }
        let stats = cache.stats();
        counts.cache_lookups += stats.lookups();
        counts.cache_hits += stats.hits;
        counts.explores += 1;
        counts.explore_candidates += candidates;
        Ok(Explored {
            candidates,
            best_total_ns: best.ok_or("no feasible candidate")?,
        })
    })
}

/// A stream as one host-layer call.
///
/// # Errors
///
/// Host errors, rendered.
pub fn stream(tracer: &Tracer, case: &StreamCase) -> Result<Streamed, String> {
    let op = tracer.op();
    tracer.span(op, "stream", |ctx| {
        tracer.span(ctx, "rtr.host", |_| case.run_idh())
    })
}
