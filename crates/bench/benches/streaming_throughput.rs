//! Streaming host-execution throughput: words/sec through the batch-pull
//! sequencer drivers at fixed host memory.
//!
//! The streamed lane pulls a synthetic workload through the §4 DCT design
//! one `k`-computation batch at a time and only counts/digests the output
//! (no allocation proportional to `I`); the materialized lane is the
//! `run_slice` wrapper over the same workload. The bench asserts
//! bit-exact agreement between the two up front, then reports both lanes'
//! throughput (primary-stream words per second).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sparcs_bench::experiment;
use sparcs_rtr::{
    CountingSink, FdhSequencer, IdhSequencer, InputSource, Sequencer, SyntheticSource, VecSink,
};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let exp = experiment();
    let design = exp.rtr_design();
    let computations = 16_384u64; // 8 batches of k = 2048
    let in_w = design.primary_input_words;
    let stream_words = computations * (in_w + design.output_words());

    // Streamed and materialized executions are bit-identical (outputs and
    // report) before anything is timed.
    let idh = IdhSequencer::new(&exp.arch, &design);
    let mut source = SyntheticSource::new(computations, in_w);
    let mut counted = CountingSink::new();
    let streamed_report = idh.run(&mut source, &mut counted).unwrap();
    let mut materialized = vec![0i32; (computations * in_w) as usize];
    SyntheticSource::new(computations, in_w).read(&mut materialized);
    let (out, wrapped_report) = idh.run_slice(&materialized).unwrap();
    assert_eq!(streamed_report, wrapped_report);
    assert_eq!(counted.digest(), CountingSink::digest_of(&out));

    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);
    group.throughput(Throughput::Elements(stream_words));
    group.bench_function("idh_streamed_16384", |b| {
        b.iter(|| {
            let mut source = SyntheticSource::new(computations, in_w);
            let mut sink = CountingSink::new();
            idh.run(black_box(&mut source), &mut sink).unwrap();
            black_box(sink.words())
        })
    });
    group.bench_function("idh_materialized_16384", |b| {
        b.iter(|| {
            IdhSequencer::new(black_box(&exp.arch), black_box(&design))
                .run_slice(black_box(&materialized))
        })
    });
    let fdh = FdhSequencer::new(&exp.arch, &design);
    group.bench_function("fdh_streamed_16384", |b| {
        b.iter(|| {
            let mut source = SyntheticSource::new(computations, in_w);
            let mut sink = CountingSink::new();
            fdh.run(black_box(&mut source), &mut sink).unwrap();
            black_box(sink.words())
        })
    });
    // The slice wrappers themselves are the streamed drivers plus a
    // VecSink; keep one lane pinning that path too.
    group.bench_function("idh_slice_wrapper_16384", |b| {
        b.iter(|| {
            let mut source = SyntheticSource::new(computations, in_w);
            let mut sink = VecSink::new();
            idh.run(black_box(&mut source), &mut sink).unwrap();
            black_box(sink.into_vec().len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
