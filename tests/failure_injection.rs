//! Failure-path integration tests: every user-facing error surface of the
//! flow, exercised end to end.

use sparcs::core::fission::{BlockRounding, FissionAnalysis, FissionError};
use sparcs::core::{IlpPartitioner, PartitionError, PartitionOptions};
use sparcs::dfg::{Resources, TaskGraph};
use sparcs::estimate::Architecture;
use sparcs::rtr::{
    Configuration, FdhSequencer, HostError, IdhSequencer, RtrDesign, Sequencer, StaticDesign,
    StaticSequencer,
};

fn arch(clbs: u64, mem: u64) -> Architecture {
    let mut a = Architecture::xc4044_wildforce();
    a.resources = Resources::clbs(clbs);
    a.memory_words = mem;
    a
}

#[test]
fn partitioner_reports_oversized_tasks() {
    let mut g = TaskGraph::new("big");
    let t = g.add_task("whale", Resources::clbs(5_000), 100, 1);
    let err = IlpPartitioner::new(arch(1_600, 1_000), PartitionOptions::default())
        .partition(&g)
        .unwrap_err();
    assert_eq!(err, PartitionError::TaskTooLarge(t));
}

#[test]
fn partitioner_reports_memory_dead_ends() {
    // Two tasks that cannot share a partition, connected by a value larger
    // than the memory: no N works.
    let mut g = TaskGraph::new("deadend");
    let a = g.add_task("a", Resources::clbs(1_000), 10, 900);
    let b = g.add_task("b", Resources::clbs(1_000), 10, 1);
    g.add_edge(a, b, 900).unwrap();
    let err = IlpPartitioner::new(arch(1_600, 100), PartitionOptions::default())
        .partition(&g)
        .unwrap_err();
    assert!(matches!(err, PartitionError::NoFeasibleSolution { .. }));
}

#[test]
fn fission_rejects_blocks_larger_than_memory() {
    let mut g = TaskGraph::new("wide");
    let a = g.add_task("a", Resources::clbs(100), 10, 80);
    let b = g.add_task("b", Resources::clbs(100), 10, 1);
    g.add_edge(a, b, 80).unwrap();
    g.add_env_input("in", 40, [a]).unwrap();
    g.add_env_output("out", 1, [b]).unwrap();
    let dev = arch(150, 100);
    let design = IlpPartitioner::new(dev.clone(), PartitionOptions::default())
        .partition(&g)
        .expect("partitionable");
    // Partition 1 needs 40 + 80 = 120 words per computation > 100.
    let err = FissionAnalysis::analyze(
        &g,
        &design.partitioning,
        &design.partition_delays_ns,
        &dev,
        BlockRounding::Exact,
    )
    .unwrap_err();
    assert_eq!(
        err,
        FissionError::MemoryTooSmall {
            partition: 0,
            block_words: 120
        }
    );
}

#[test]
fn sequencers_reject_bad_input_shapes_and_budgets() {
    let c = Configuration::new("id", 100, vec![0, 1, 2], 3, |x, o| o.copy_from_slice(x));
    let d = RtrDesign::linear(vec![c], 8);
    let dev = arch(1_600, 10); // 8 × 6-word blocks > 10 words
    assert!(matches!(
        FdhSequencer::new(&dev, &d).run_slice(&[1, 2, 3]),
        Err(HostError::MemoryBudget {
            needed: 48,
            available: 10
        })
    ));
    let dev = arch(1_600, 1_000);
    assert_eq!(
        IdhSequencer::new(&dev, &d)
            .run_slice(&[1, 2, 3, 4])
            .unwrap_err(),
        HostError::InputShape {
            expected_multiple: 3
        }
    );
    let s = StaticDesign::new(100, 4, 4, |x, o| o.copy_from_slice(x));
    assert!(matches!(
        StaticSequencer::new(&arch(1_600, 6), &s).run_slice(&[0; 8]),
        Err(HostError::MemoryBudget { .. })
    ));
}

#[test]
fn empty_input_streams_are_ok() {
    let c = Configuration::new("id", 100, vec![0], 1, |x, o| o.copy_from_slice(x));
    let d = RtrDesign::linear(vec![c], 4);
    let dev = arch(1_600, 1_000);
    // Zero computations still execute one (padded) batch — the hardware
    // loop always runs k slots; no outputs are read back.
    let (out, report) = FdhSequencer::new(&dev, &d)
        .run_slice(&[])
        .expect("empty stream runs");
    assert!(out.is_empty());
    assert_eq!(report.computations, 0);
}

#[test]
fn kernel_width_is_enforced_by_construction() {
    // The out-parameter kernel contract makes a wrong-width result
    // unrepresentable: the kernel always receives exactly `output_words`
    // slots, no matter what it would have "returned" under the old API.
    let c = Configuration::new("w", 100, vec![0], 2, |x, out| {
        assert_eq!(out.len(), 2, "kernel sees its declared width");
        out.fill(x[0]);
    });
    let d = RtrDesign::linear(vec![c], 1);
    assert_eq!(d.compute_one(&[7]), vec![7, 7]);
}

#[test]
fn cyclic_graph_rejected_by_partitioner() {
    let mut g = TaskGraph::new("cycle");
    let a = g.add_task("a", Resources::clbs(10), 1, 1);
    let b = g.add_task("b", Resources::clbs(10), 1, 1);
    g.add_edge(a, b, 1).unwrap();
    g.add_edge(b, a, 1).unwrap();
    let err = IlpPartitioner::new(arch(100, 100), PartitionOptions::default())
        .partition(&g)
        .unwrap_err();
    assert!(matches!(err, PartitionError::Graph(_)));
}

#[test]
fn parse_errors_are_user_readable() {
    let err =
        sparcs::dfg::parse::parse("task a clbs=1 delay=1 out=1\nedge a -> ghost").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 2"), "{msg}");
    assert!(msg.contains("ghost"), "{msg}");
}
