//! Every quotable number of the paper's §4, asserted against this
//! reproduction in one place (`repro-tables` prints the same numbers as
//! tables).

use sparcs::casestudy::DctExperiment;
use sparcs::estimate::paper;
use std::sync::OnceLock;

fn exp() -> &'static DctExperiment {
    static EXP: OnceLock<DctExperiment> = OnceLock::new();
    EXP.get_or_init(|| DctExperiment::paper().expect("experiment assembles"))
}

#[test]
fn estimates_t1_70_clbs_t2_180_clbs() {
    assert_eq!(exp().dct.t1_estimate.resources.clbs, 70);
    assert_eq!(exp().dct.t2_estimate.resources.clbs, 180);
}

#[test]
fn three_partitions_16t1_8t2_8t2() {
    let part = &exp().design.partitioning;
    assert_eq!(part.partition_count(), 3);
    let kinds: Vec<(usize, usize)> = part
        .partitions()
        .map(|p| {
            let tasks = part.tasks_in(p);
            let t1 = tasks
                .iter()
                .filter(|t| exp().dct.graph.task(**t).kind == "T1")
                .count();
            (t1, tasks.len() - t1)
        })
        .collect();
    assert_eq!(kinds, vec![(16, 0), (0, 8), (0, 8)]);
}

#[test]
fn partition_delays_68c50_36c70_36c70() {
    assert_eq!(exp().design.partition_delays_ns, vec![3_400, 2_520, 2_520]);
}

#[test]
fn rtr_saves_7560_ns_per_computation() {
    assert_eq!(paper::STATIC_DELAY_NS - exp().design.sum_delay_ns, 7_560);
}

#[test]
fn memory_32_16_16_words_and_k_2048() {
    assert_eq!(exp().fission.m_temp_words, vec![32, 16, 16]);
    // "Therefore we can compute 64k/max(32,16,16) = 2048 blocks"
    assert_eq!(exp().fission.k, 2_048);
}

#[test]
fn software_loop_count_for_245760_blocks() {
    // Table rows: I_sw = ceil(245760 / 2048) = 120.
    assert_eq!(exp().fission.software_loop_count(245_760), 120);
}

#[test]
fn break_even_is_tens_of_thousands_of_blocks() {
    // Paper: "roughly 42,553"; our formula: 3·CT/(16µs − 8.44µs) = 39,683.
    let be = exp()
        .fission
        .break_even_computations(paper::STATIC_DELAY_NS)
        .expect("RTR is faster per computation");
    assert_eq!(be, 39_683);
    assert!(be > exp().fission.k, "memory caps k far below break-even");
}

#[test]
fn fdh_never_improves_idh_wins_at_scale() {
    use sparcs::core::SequencingStrategy;
    let f = &exp().fission;
    let static_ns = |i: u64| i as u128 * u128::from(paper::STATIC_DELAY_NS);
    // FDH loses at every table size.
    for &i in &[2_048u64, 16_384, 245_760] {
        assert!(
            u128::from(f.total_time_ns(SequencingStrategy::Fdh, i)) > static_ns(i),
            "FDH at {i}"
        );
    }
    // IDH (overlapped) wins at the paper's largest size by ~40 %.
    let idh = f.idh_total_time_overlapped_ns(245_760) as f64;
    let st = static_ns(245_760) as f64;
    let improvement = (st - idh) / st * 100.0;
    assert!(
        improvement > 35.0 && improvement < 45.0,
        "improvement {improvement}% (paper: 42%)"
    );
}

/// The §4 FDH/IDH break-even, re-derived with the corrected overlapped
/// transfer model (boundary half-transfers exposed once, not double
/// counted). On the XC4044 design every batch is compute-bound, so
///
/// ```text
/// IDH(B batches) = 3·CT + Σ_i 2·H_i + B·Σ_i C_i
/// FDH(B batches) = B·3·CT + B·Σ_i C_i        (at I = B·k exactly)
/// FDH − IDH      = (B − 1)·3·CT − Σ_i 2·H_i
/// ```
///
/// with `Σ_i 2·H_i = 2·2048·25·(32+16+16) = 6_553_600 ns`: FDH wins a
/// single batch by exactly the exposed boundary transfers, and IDH wins
/// from the second batch on — the break-even sits at `I = k = 2048`.
#[test]
fn idh_fdh_break_even_with_fixed_transfer_model() {
    use sparcs::core::SequencingStrategy;
    let f = &exp().fission;
    let fdh = |i: u64| f.total_time_ns(SequencingStrategy::Fdh, i);
    let idh = |i: u64| f.idh_total_time_overlapped_ns(i);
    // One batch: FDH cheaper by exactly Σ 2·H_i.
    assert_eq!(fdh(2_048) + 6_553_600, idh(2_048));
    // A second batch brings another 3·CT of FDH reconfiguration: IDH wins.
    assert!(idh(2_049) < fdh(2_049));
    assert!(idh(245_760) < fdh(245_760));
}

#[test]
fn partitioning_is_proven_optimal_and_feasible() {
    assert!(exp().design.stats.proven_optimal);
    assert!(exp().violations().is_empty());
}

#[test]
fn ilp_relaxation_loop_started_at_lower_bound() {
    // Preprocessing: ⌈4000/1600⌉ = 3, feasible on the first try.
    assert_eq!(exp().design.stats.attempted_n, vec![3]);
}

#[test]
fn certified_bounds_sit_below_the_proven_latency() {
    use sparcs::analyze::rules;
    // Before any solve: Σ d_p ≥ 5920 ns along the critical path, and ≥
    // 6916 ns because 4000 CLBs of work cannot be packed tighter than the
    // 1600-CLB device is wide; N ≥ 3.
    let an = sparcs::analyze::analyze(
        &exp().dct.graph,
        &exp().arch,
        sparcs::core::partitioning::MemoryMode::Net,
    )
    .expect("the DCT graph is a DAG");
    let fact = |rule| an.fact(rule).map(|f| f.bound);
    assert_eq!(fact(rules::CRITICAL_PATH_BOUND), Some(5_920));
    assert_eq!(fact(rules::AREA_BOUND), Some(6_916));
    assert_eq!(an.objective_lb_ns, 6_916);
    assert_eq!(an.partition_count_lb, 3);
    assert_eq!(exp().design.latency_ns, 300_008_440);
}

/// §4's strawman: the list partitioner packs T2 tasks into partition 1
/// beside the T1s, which the paper says "would have increased the delay".
#[test]
fn list_strawman_mixes_two_t2_into_partition_1() {
    use sparcs::core::delay::partition_delays;
    use sparcs::core::list::partition_list;
    use sparcs::core::PartitionId;
    let g = &exp().dct.graph;
    let list = partition_list(g, &exp().arch).expect("tasks fit the device");
    let t2_in_p1 = list
        .tasks_in(PartitionId(0))
        .iter()
        .filter(|t| g.task(**t).kind == "T2")
        .count();
    assert_eq!(t2_in_p1, 2);
    let list_sum: u64 = partition_delays(g, &list).expect("DAG").iter().sum();
    assert_eq!(list_sum, 10_960);
    assert!(list_sum > exp().design.sum_delay_ns);
}

/// Eq. 3 counts boundary words per edge; §4 counts distinct values. Every
/// DCT value that crosses a boundary feeds four T2 tasks, so the edge model
/// charges four times the words.
#[test]
fn boundary_words_16_8_by_value_64_32_by_edge() {
    use sparcs::core::memory::boundary_words;
    use sparcs::core::partitioning::MemoryMode;
    let (g, part) = (&exp().dct.graph, &exp().design.partitioning);
    assert_eq!(boundary_words(g, part, MemoryMode::Net), vec![16, 8]);
    assert_eq!(boundary_words(g, part, MemoryMode::Edge), vec![64, 32]);
}

/// Figure 5: unfissioned, every computation pays every reconfiguration;
/// FDH pays them once per batch of `k`, so fission divides the overhead by
/// exactly `k`. FDH wins a single batch, IDH every larger workload.
#[test]
fn fission_divides_overhead_by_k_and_idh_wins_past_one_batch() {
    use sparcs::core::SequencingStrategy;
    let f = &exp().fission;
    for i in [2_048u64, 16_384, 245_760] {
        assert_eq!(
            f.unfissioned_overhead_ns(i) / f.fdh_overhead_ns(i),
            f.k,
            "I = {i}"
        );
    }
    assert_eq!(f.choose_strategy(2_048), SequencingStrategy::Fdh);
    assert_eq!(f.choose_strategy(16_384), SequencingStrategy::Idh);
    assert_eq!(f.choose_strategy(245_760), SequencingStrategy::Idh);
}
