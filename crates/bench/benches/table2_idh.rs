//! E6 — Table 2: DCT execution time under the IDH strategy.
//!
//! The paper's headline: 42 % improvement over the static design at 245,760
//! blocks, growing with image size. Prints the regenerated table and
//! measures the functional IDH simulation.

use criterion::{criterion_group, criterion_main, Criterion};
use sparcs::casestudy::DctExperiment;
use sparcs_bench::{experiment, render_table, table2};
use sparcs_jpeg::Image;
use sparcs_rtr::{IdhSequencer, Sequencer};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let exp = experiment();
    let rows = table2(&exp);
    print!(
        "{}",
        render_table(
            "[table2] IDH vs static (paper: 42% at 245,760 blocks):",
            &rows
        )
    );
    let headline = rows.iter().find(|r| r.blocks == 245_760).expect("row");
    assert!(
        headline.improvement_pct > 35.0 && headline.improvement_pct < 45.0,
        "headline {}",
        headline.improvement_pct
    );

    let img = Image::gradient(128, 128); // 1024 blocks
    let stream = DctExperiment::input_stream(&img);
    let design = exp.rtr_design();
    let mut group = c.benchmark_group("table2");
    group.sample_size(20);
    group.bench_function("idh_simulate_1024_blocks", |b| {
        b.iter(|| {
            IdhSequencer::new(black_box(&exp.arch), black_box(&design))
                .run_slice(black_box(&stream))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
