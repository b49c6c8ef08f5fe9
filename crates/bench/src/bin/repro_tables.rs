//! `repro-tables` — prints every table and figure of the DAC'99 paper next
//! to the values this reproduction computes, and dumps a machine-readable
//! JSON record (`repro_tables.json`, or the path in `REPRO_JSON`).
//! `tests/paper_numbers.rs` asserts the same numbers.
//!
//! Run with `cargo run --release -p sparcs_bench --bin repro-tables`.

use serde::Serialize;
use sparcs_bench::{
    break_even_sweep, dct_exploration, dm_sensitivity, experiment, render_table, table1, table2,
    xc6000_table,
};
use sparcs_estimate::paper;

#[derive(Serialize)]
struct Record {
    partitioning: String,
    partition_delays_ns: Vec<u64>,
    sum_delay_ns: u64,
    m_temp_words: Vec<u64>,
    k: u64,
    break_even_blocks: u64,
    table1: Vec<sparcs_bench::TableRow>,
    table2: Vec<sparcs_bench::TableRow>,
    xc6000: Vec<sparcs_bench::TableRow>,
    dm_sensitivity_pct: Vec<(u64, f64)>,
}

fn main() {
    let exp = experiment();

    println!("== Section 4: temporal partitioning of the DCT ==");
    println!("paper : 3 partitions, 16xT1 | 8xT2 | 8xT2, CPLEX solve 3.5 s (1999)");
    let part = &exp.design.partitioning;
    for p in part.partitions() {
        let t1 = part
            .tasks_in(p)
            .iter()
            .filter(|t| exp.dct.graph.task(**t).kind == "T1")
            .count();
        let t2 = part.tasks_in(p).len() - t1;
        println!("ours  : {p} = {t1} x T1 + {t2} x T2");
    }
    println!(
        "ours  : delays {:?} ns (paper: 68cyc@50ns, 36cyc@70ns, 36cyc@70ns)",
        exp.design.partition_delays_ns
    );
    println!(
        "ours  : RTR {} ns vs static {} ns per computation (paper saving: 7560 ns, ours: {})",
        exp.design.sum_delay_ns,
        paper::STATIC_DELAY_NS,
        paper::STATIC_DELAY_NS - exp.design.sum_delay_ns
    );
    println!(
        "ours  : m_temp = {:?} words, k = {} (paper: 32/16/16, k = 2048)",
        exp.fission.m_temp_words, exp.fission.k
    );

    let (be, sweep) = break_even_sweep(&exp);
    println!("\n== Section 4: break-even analysis ==");
    println!("paper : roughly 42,553 blocks per partition");
    println!("ours  : {be} blocks (= 3 x CT / (16 us - 8.44 us))");
    for p in &sweep {
        println!(
            "        k = {:>6} ({:>8} words): reconfig/comp = {:>6} ns -> {}",
            p.k,
            p.memory_words,
            p.reconfig_per_computation_ns,
            if p.rtr_wins {
                "RTR wins"
            } else {
                "static wins"
            }
        );
    }

    let t1 = table1(&exp);
    println!("\n== Table 1: DCT execution time, FDH strategy ==");
    println!("paper : \"we did not see any improvement at all\" (RTR slower everywhere)");
    print!("{}", render_table("ours  :", &t1));

    let t2 = table2(&exp);
    println!("\n== Table 2: DCT execution time, IDH strategy ==");
    println!("paper : 42% improvement at 245,760 blocks, growing with image size");
    print!("{}", render_table("ours  :", &t2));

    let x = xc6000_table();
    println!("\n== Section 4: XC6000 conjecture (CT = 500 us) ==");
    println!("paper : improvement \"calculated to be 47%\" for the largest file");
    print!("{}", render_table("ours  :", &x));

    let exploration = dct_exploration(245_760);
    println!("\n== Flow exploration: partitioner x rounding x sequencing at 245,760 blocks ==");
    for (rank, c) in exploration.candidates.iter().enumerate() {
        println!(
            "        #{:<2} {:>4}/{:<5} + {} (N = {}, k = {:>5}): {:>8.4} s",
            rank + 1,
            c.strategy,
            sparcs::flow::rounding_label(c.rounding),
            c.sequencing,
            c.partition_count,
            c.k,
            c.total_ns as f64 / 1e9
        );
    }

    let dm = dm_sensitivity(245_760);
    println!("\n== Calibration: D_m sensitivity of Table 2's headline number ==");
    for (d, pct) in &dm {
        println!("        D_m = {d:>3} ns/word -> improvement {pct:.1}%");
    }

    let record = Record {
        partitioning: part.to_string(),
        partition_delays_ns: exp.design.partition_delays_ns.clone(),
        sum_delay_ns: exp.design.sum_delay_ns,
        m_temp_words: exp.fission.m_temp_words.clone(),
        k: exp.fission.k,
        break_even_blocks: be,
        table1: t1,
        table2: t2,
        xc6000: x,
        dm_sensitivity_pct: dm,
    };
    let json = serde_json::to_string_pretty(&record).expect("record serializes");
    let path = std::env::var("REPRO_JSON").unwrap_or_else(|_| "repro_tables.json".into());
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("note: could not write {path}: {e}");
    } else {
        println!("\nwrote {path}");
    }
}
