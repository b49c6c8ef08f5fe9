//! Correctness checks on every output the benchmark measures, and the
//! ledger that counts attempted and failed operations.
//!
//! An operation fails on an `Err` result; on any `sparcs_audit`
//! diagnostic (error or warning) on a design, its fission, or a stream's
//! time report; on a pinned latency or digest that does not match; on a
//! stream digest that differs from the static baseline's; on a served
//! result that does not re-audit clean here; and on a deterministic count
//! that does not repeat exactly.

use sparcs::core::fission::FissionAnalysis;
use sparcs::core::partitioning::{MemoryMode, PartitionId, Partitioning};
use sparcs::core::{PartitionedDesign, SequencingStrategy};
use sparcs::dfg::TaskGraph;
use sparcs::estimate::Architecture;
use sparcs::flow::{design_from_partitioning, DesignContext};
use sparcs::rtr::TimeReport;
use sparcs::service::ResultSummary;
use std::collections::BTreeMap;

/// Attempted and failed operations, with the first failure messages.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why (capped, for stderr).
    pub messages: Vec<String>,
}

impl Ledger {
    /// Counts one operation and records it failed when `outcome` is an
    /// error.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.messages.len() < 32 {
                self.messages.push(format!("{what}: {e}"));
            }
        }
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn clean(what: &str, diags: &[sparcs::audit::Diagnostic]) -> Result<(), String> {
    match diags.first() {
        None => Ok(()),
        Some(first) => Err(format!(
            "{} {what} diagnostic(s), first: {first}",
            diags.len()
        )),
    }
}

/// The design audits clean under `mode`, warnings included.
///
/// # Errors
///
/// The diagnostics found.
pub fn design_audits_clean(
    g: &TaskGraph,
    arch: &Architecture,
    design: &PartitionedDesign,
    mode: MemoryMode,
) -> Result<(), String> {
    clean(
        "design",
        &sparcs::audit::audit_design(g, arch, design, mode),
    )
}

/// The fission analysis audits clean.
///
/// # Errors
///
/// The diagnostics found.
pub fn fission_audits_clean(
    g: &TaskGraph,
    part: &Partitioning,
    fission: &FissionAnalysis,
    arch: &Architecture,
) -> Result<(), String> {
    clean(
        "fission",
        &sparcs::audit::audit_fission(g, part, fission, arch),
    )
}

/// A stream's time report audits clean against the §4 formulas.
///
/// # Errors
///
/// The diagnostics found.
pub fn report_audits_clean(
    g: &TaskGraph,
    part: &Partitioning,
    fission: &FissionAnalysis,
    sequencing: SequencingStrategy,
    computations: u64,
    report: &TimeReport,
) -> Result<(), String> {
    clean(
        "time-report",
        &sparcs::audit::audit_time_report(g, part, fission, sequencing, computations, report),
    )
}

/// An exact answer has the pinned latency.
///
/// # Errors
///
/// The latency found versus the pinned one.
pub fn latency_matches(pinned: Option<u64>, latency_ns: u64) -> Result<(), String> {
    match pinned {
        Some(p) if p != latency_ns => Err(format!("latency {latency_ns} ns, pinned {p} ns")),
        _ => Ok(()),
    }
}

/// A streamed digest equals the static baseline's and, when pinned, the
/// pinned digest.
///
/// # Errors
///
/// Which digest differs.
pub fn digest_matches(streamed: u64, baseline: u64, pinned: Option<u64>) -> Result<(), String> {
    if streamed != baseline {
        return Err(format!(
            "stream digest {streamed:016x} differs from the static baseline's {baseline:016x}"
        ));
    }
    match pinned {
        Some(p) if p != streamed => Err(format!(
            "stream digest {streamed:016x} differs from the pinned {p:016x}"
        )),
        _ => Ok(()),
    }
}

/// A served result re-audits clean in this process: its assignment is
/// rebuilt into a design from the statement's graph and board, audited,
/// and every number it claims is compared with the rebuilt one.
///
/// # Errors
///
/// Why the served result cannot be trusted.
pub fn served_result_audits_clean(
    g: &TaskGraph,
    arch: &Architecture,
    served: &ResultSummary,
) -> Result<(), String> {
    if served.assignment.len() != g.task_count() {
        return Err(format!(
            "assignment covers {} of {} tasks",
            served.assignment.len(),
            g.task_count()
        ));
    }
    let ctx = DesignContext {
        graph: g.clone(),
        arch: arch.clone(),
    };
    let partitioning =
        Partitioning::new(served.assignment.iter().map(|&p| PartitionId(p)).collect());
    let design = design_from_partitioning(&ctx, partitioning).map_err(|e| e.to_string())?;
    design_audits_clean(g, arch, &design, MemoryMode::Net)?;
    let claimed = (
        served.partitions,
        &served.partition_delays_ns,
        served.sum_delay_ns,
        served.latency_ns,
    );
    let rebuilt = (
        design.partitioning.partition_count(),
        &design.partition_delays_ns,
        design.sum_delay_ns,
        design.latency_ns,
    );
    if claimed != rebuilt {
        return Err(format!(
            "served numbers {claimed:?} differ from the re-derived {rebuilt:?}"
        ));
    }
    if served.bound_ns > served.latency_ns {
        return Err(format!(
            "served bound {} ns above its latency {} ns",
            served.bound_ns, served.latency_ns
        ));
    }
    Ok(())
}

/// Deterministic counts seen across rounds; a count that does not repeat
/// exactly is flagged.
#[derive(Debug, Default)]
pub struct Repeats {
    first: BTreeMap<String, String>,
}

impl Repeats {
    /// Records `value` for `name`.
    ///
    /// # Errors
    ///
    /// The first and the current value when they differ.
    pub fn observe(&mut self, name: &str, value: impl std::fmt::Display) -> Result<(), String> {
        let value = value.to_string();
        match self.first.get(name) {
            None => {
                self.first.insert(name.to_string(), value);
                Ok(())
            }
            Some(first) if *first == value => Ok(()),
            Some(first) => Err(format!("{name} read {first} first, now {value}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{DCT_EXACT_LATENCY_NS, DCT_STREAM_DIGEST};
    use sparcs::casestudy::DctExperiment;
    use sparcs::rtr::{
        CountingSink, IdhSequencer, Sequencer, StaticSequencer, SyntheticSource, VecSink,
    };

    fn summary_of(design: &PartitionedDesign) -> ResultSummary {
        ResultSummary {
            strategy: "ilp".into(),
            assignment: design
                .partitioning
                .assignment()
                .iter()
                .map(|p| p.0)
                .collect(),
            partitions: design.partitioning.partition_count(),
            partition_delays_ns: design.partition_delays_ns.clone(),
            sum_delay_ns: design.sum_delay_ns,
            latency_ns: design.latency_ns,
            bound_ns: design.latency_ns,
            proven_optimal: true,
            cancelled: false,
        }
    }

    /// A small clean run of every check: nothing fails.
    #[test]
    fn a_clean_run_counts_no_failure() {
        let exp = DctExperiment::paper().expect("the paper experiment assembles");
        let mut ledger = Ledger::default();
        let g = &exp.dct.graph;
        let part = &exp.design.partitioning;
        ledger.record(
            "design",
            design_audits_clean(g, &exp.arch, &exp.design, MemoryMode::Net),
        );
        ledger.record(
            "fission",
            fission_audits_clean(g, part, &exp.fission, &exp.arch),
        );
        ledger.record(
            "latency",
            latency_matches(Some(DCT_EXACT_LATENCY_NS), exp.design.latency_ns),
        );
        let design = exp.rtr_design();
        let n = 4 * design.k;
        let mut sink = CountingSink::new();
        let report = IdhSequencer::new(&exp.arch, &design)
            .run(&mut SyntheticSource::new(n, 16), &mut sink)
            .expect("streams");
        let mut base = CountingSink::new();
        StaticSequencer::new(&exp.arch, &design.to_static())
            .run(&mut SyntheticSource::new(n, 16), &mut base)
            .expect("streams");
        ledger.record("digest", digest_matches(sink.digest(), base.digest(), None));
        ledger.record(
            "report",
            report_audits_clean(g, part, &exp.fission, SequencingStrategy::Idh, n, &report),
        );
        ledger.record(
            "served",
            served_result_audits_clean(g, &exp.arch, &summary_of(&exp.design)),
        );
        let mut repeats = Repeats::default();
        ledger.record("repeat", repeats.observe("ilp.nodes", 225));
        ledger.record("repeat", repeats.observe("ilp.nodes", 225));
        assert_eq!(ledger.failed, 0, "{:?}", ledger.messages);
        assert_eq!(ledger.attempted, 8);
    }

    #[test]
    fn a_flipped_digest_word_counts_as_failed() {
        let exp = DctExperiment::paper().expect("the paper experiment assembles");
        let design = exp.rtr_design();
        let n = 2 * design.k;
        let mut sink = VecSink::new();
        IdhSequencer::new(&exp.arch, &design)
            .run(&mut SyntheticSource::new(n, 16), &mut sink)
            .expect("streams");
        let honest = CountingSink::digest_of(sink.data());
        let mut words = sink.into_vec();
        words[12_345] ^= 1;
        let flipped = CountingSink::digest_of(&words);
        let mut ledger = Ledger::default();
        ledger.record("honest", digest_matches(honest, honest, None));
        ledger.record("flipped", digest_matches(flipped, honest, None));
        ledger.record(
            "pinned",
            digest_matches(honest, honest, Some(DCT_STREAM_DIGEST)),
        );
        assert_eq!((ledger.attempted, ledger.failed), (3, 2));
    }

    #[test]
    fn a_non_optimal_dct_assignment_counts_as_failed() {
        let exp = DctExperiment::paper().expect("the paper experiment assembles");
        // Move one task into its own fourth partition at the end: still a
        // legal schedule, one reconfiguration slower.
        let mut assignment = exp.design.partitioning.assignment().to_vec();
        let last = (0..assignment.len())
            .rev()
            .find(|&i| {
                exp.dct
                    .graph
                    .successors(sparcs::dfg::TaskId(i as u32))
                    .next()
                    .is_none()
            })
            .expect("the DCT has sink tasks");
        assignment[last] = PartitionId(3);
        let ctx = DesignContext {
            graph: exp.dct.graph.clone(),
            arch: exp.arch.clone(),
        };
        let worse = design_from_partitioning(&ctx, Partitioning::new(assignment))
            .expect("a forward assignment");
        let mut ledger = Ledger::default();
        ledger.record(
            "worse",
            latency_matches(Some(DCT_EXACT_LATENCY_NS), worse.latency_ns),
        );
        assert_eq!(ledger.failed, 1, "latency {}", worse.latency_ns);
    }

    #[test]
    fn a_tampered_served_assignment_counts_as_failed() {
        let exp = DctExperiment::paper().expect("the paper experiment assembles");
        let honest = summary_of(&exp.design);
        // Swap the partitions of a producer and its consumer: precedence
        // breaks, and the claimed numbers no longer match.
        let mut tampered = honest.clone();
        let first_p0 = tampered
            .assignment
            .iter()
            .position(|&p| p == 0)
            .expect("P1");
        let first_p2 = tampered
            .assignment
            .iter()
            .position(|&p| p == 2)
            .expect("P3");
        tampered.assignment.swap(first_p0, first_p2);
        let mut short = honest.clone();
        short.assignment.pop();
        let mut lying = honest.clone();
        lying.latency_ns -= 1;
        let mut ledger = Ledger::default();
        for (what, s) in [
            ("honest", &honest),
            ("tampered", &tampered),
            ("short", &short),
            ("lying", &lying),
        ] {
            ledger.record(
                what,
                served_result_audits_clean(&exp.dct.graph, &exp.arch, s),
            );
        }
        assert_eq!(
            (ledger.attempted, ledger.failed),
            (4, 3),
            "{:?}",
            ledger.messages
        );
    }

    #[test]
    fn a_count_that_does_not_repeat_is_flagged() {
        let mut repeats = Repeats::default();
        assert!(repeats.observe("ilp.pivots", 3829).is_ok());
        assert!(repeats.observe("ilp.pivots", 3829).is_ok());
        assert!(repeats.observe("ilp.pivots", 3830).is_err());
        assert!(repeats.observe("latency_over_bound", 1.25).is_ok());
        assert!(repeats.observe("latency_over_bound", 1.25).is_ok());
    }
}
