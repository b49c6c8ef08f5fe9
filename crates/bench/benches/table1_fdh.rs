//! E5 — Table 1: DCT execution time under the FDH strategy.
//!
//! Prints the regenerated table (analytic rows; the functional simulator
//! cross-validates them in `tests/rtr_tables.rs`) and measures the
//! simulator on a small image.

use criterion::{criterion_group, criterion_main, Criterion};
use sparcs::casestudy::DctExperiment;
use sparcs_bench::{experiment, render_table, table1};
use sparcs_jpeg::Image;
use sparcs_rtr::{FdhSequencer, Sequencer};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let exp = experiment();
    let rows = table1(&exp);
    print!(
        "{}",
        render_table(
            "[table1] FDH vs static (paper: no improvement at all):",
            &rows
        )
    );
    assert!(rows.iter().all(|r| r.improvement_pct < 0.0));

    // Functional simulation of a small image under FDH.
    let img = Image::gradient(128, 128); // 1024 blocks
    let stream = DctExperiment::input_stream(&img);
    let design = exp.rtr_design();
    let mut group = c.benchmark_group("table1");
    group.sample_size(20);
    group.bench_function("fdh_simulate_1024_blocks", |b| {
        b.iter(|| {
            FdhSequencer::new(black_box(&exp.arch), black_box(&design))
                .run_slice(black_box(&stream))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
