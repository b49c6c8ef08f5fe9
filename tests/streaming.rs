//! Streaming host-execution integration: the chunked batch-pull drivers
//! must be byte-identical — outputs *and* `TimeReport` — to the
//! materialized `run_slice` wrapper, from the `sparcs_rtr` sequencers up
//! through `AnalyzedFlow::run`, including non-multiple-of-`k` tails and
//! workloads far too large to materialize.

use proptest::prelude::*;
use sparcs::core::SequencingStrategy;
use sparcs::estimate::Architecture;
use sparcs::flow::FlowSession;
use sparcs::rtr::{
    Configuration, CountingSink, FdhSequencer, IdhSequencer, InputSource, RtrDesign, Sequencer,
    StaticSequencer, SyntheticSource, VecSink,
};

/// Materializes a synthetic workload so the slice wrapper can be run
/// on exactly the words a fresh [`SyntheticSource`] will stream.
fn materialize(computations: u64, words: u64) -> Vec<i32> {
    let mut data = vec![0i32; (computations * words) as usize];
    SyntheticSource::new(computations, words).read(&mut data);
    data
}

/// Asserts one sequencer's streamed run (fresh synthetic source, vector
/// sink) is byte-identical to its `run_slice` wrapper on the materialized
/// words, and that the counting sink sees the same stream.
fn assert_streamed_equals_materialized(
    seq: &dyn Sequencer,
    computations: u64,
) -> Result<(), TestCaseError> {
    let materialized = materialize(computations, seq.input_words());
    let (expect_out, expect_report) = seq.run_slice(&materialized).expect("wrapper runs");

    let mut sink = VecSink::new();
    let report = seq
        .run(
            &mut SyntheticSource::new(computations, seq.input_words()),
            &mut sink,
        )
        .expect("streamed run succeeds");
    prop_assert_eq!(&report, &expect_report, "{} report", seq.name());
    prop_assert_eq!(sink.data(), expect_out.as_slice(), "{} output", seq.name());

    let mut counted = CountingSink::new();
    let counted_report = seq
        .run(
            &mut SyntheticSource::new(computations, seq.input_words()),
            &mut counted,
        )
        .expect("counted run succeeds");
    prop_assert_eq!(counted_report, expect_report);
    prop_assert_eq!(counted.words(), expect_out.len() as u64);
    prop_assert_eq!(counted.digest(), CountingSink::digest_of(&expect_out));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Chunked streamed execution is byte-identical (outputs and
    /// `TimeReport`) to the materialized wrappers for random pipelines
    /// across all three sequencers — including workloads that are not a
    /// multiple of `k` (garbage tail slots) and empty workloads.
    #[test]
    fn streamed_runs_match_materialized_wrappers(
        seed in 0u64..500,
        stages in 1usize..4,
        words in 1u64..4,
        k in 1u64..6,
        comps in 0u64..20,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let configs: Vec<Configuration> = (0..stages)
            .map(|i| {
                let mul = rng.gen_range(-3i32..=3);
                let add = rng.gen_range(-5i32..=5);
                Configuration::new(
                    format!("s{i}"),
                    rng.gen_range(100u64..2_000),
                    (0..words as u32).collect(),
                    words,
                    move |x: &[i32], out: &mut [i32]| {
                        for (o, v) in out.iter_mut().zip(x) {
                            *o = v * mul + add;
                        }
                    },
                )
            })
            .collect();
        let design = RtrDesign::linear(configs, k);
        let dev = Architecture::xc4044_wildforce();
        assert_streamed_equals_materialized(&FdhSequencer::new(&dev, &design), comps)?;
        assert_streamed_equals_materialized(&IdhSequencer::new(&dev, &design), comps)?;
        // The same collapse AnalyzedFlow::static_equivalent performs.
        let monolith = design.to_static();
        assert_streamed_equals_materialized(&StaticSequencer::new(&dev, &monolith), comps)?;
    }

    /// A design whose configurations carry lane-parallel batch kernels is
    /// output- and digest-identical to the same design running its scalar
    /// kernels slot-at-a-time — the fissioned compute-all phase must be
    /// invisible to the sink on random pipelines and random batch shapes.
    #[test]
    fn batch_kernels_are_digest_identical_to_scalar(
        seed in 0u64..500,
        stages in 1usize..4,
        words in 1u64..4,
        k in 1u64..70, // past MAX_BATCH_LANES so multi-chunk batches occur
        comps in 0u64..150,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut scalar_cfgs = Vec::new();
        let mut batch_cfgs = Vec::new();
        for i in 0..stages {
            let mul = rng.gen_range(-3i32..=3);
            let add = rng.gen_range(-5i32..=5);
            let delay = rng.gen_range(100u64..2_000);
            let make_scalar = move || {
                move |x: &[i32], out: &mut [i32]| {
                    for (o, v) in out.iter_mut().zip(x) {
                        *o = v * mul + add;
                    }
                }
            };
            scalar_cfgs.push(Configuration::new(
                format!("s{i}"),
                delay,
                (0..words as u32).collect(),
                words,
                make_scalar(),
            ));
            batch_cfgs.push(
                Configuration::new(
                    format!("s{i}"),
                    delay,
                    (0..words as u32).collect(),
                    words,
                    make_scalar(),
                )
                // Word-major SoA: row r of `ins`/`outs` holds word r for
                // every lane of the chunk.
                .with_batch_kernel(move |lanes, ins: &[i32], outs: &mut [i32], _scratch| {
                    for r in 0..words as usize {
                        for l in 0..lanes {
                            outs[r * lanes + l] = ins[r * lanes + l] * mul + add;
                        }
                    }
                }),
            );
        }
        let scalar_design = RtrDesign::linear(scalar_cfgs, k);
        let batch_design = RtrDesign::linear(batch_cfgs, k);
        let dev = Architecture::xc4044_wildforce();
        for (mk_scalar, mk_batch) in [
            (
                &FdhSequencer::new(&dev, &scalar_design) as &dyn Sequencer,
                &FdhSequencer::new(&dev, &batch_design) as &dyn Sequencer,
            ),
            (
                &IdhSequencer::new(&dev, &scalar_design),
                &IdhSequencer::new(&dev, &batch_design),
            ),
        ] {
            let mut scalar_sink = VecSink::new();
            let scalar_report = mk_scalar
                .run(&mut SyntheticSource::new(comps, words), &mut scalar_sink)
                .expect("scalar run succeeds");
            let mut batch_sink = VecSink::new();
            let batch_report = mk_batch
                .run(&mut SyntheticSource::new(comps, words), &mut batch_sink)
                .expect("batch run succeeds");
            prop_assert_eq!(&batch_report, &scalar_report, "{} report", mk_batch.name());
            prop_assert_eq!(batch_sink.data(), scalar_sink.data(), "{} output", mk_batch.name());
            let mut counted = CountingSink::new();
            mk_batch
                .run(&mut SyntheticSource::new(comps, words), &mut counted)
                .expect("batch counted run succeeds");
            prop_assert_eq!(counted.digest(), CountingSink::digest_of(scalar_sink.data()));
        }
    }
}

/// The non-multiple-of-`k` tail: one full batch plus a partial one whose
/// garbage slots must never reach the sink, under both RTR sequencers.
#[test]
fn tail_slots_are_dropped_by_the_streamed_drivers() {
    let c1 = Configuration::new("x3", 700, vec![0, 1], 2, |x, out| {
        for (o, v) in out.iter_mut().zip(x) {
            *o = v * 3;
        }
    });
    let c2 = Configuration::new("minus1", 300, vec![0, 1], 2, |x, out| {
        for (o, v) in out.iter_mut().zip(x) {
            *o = v - 1;
        }
    });
    let design = RtrDesign::linear(vec![c1, c2], 4);
    let dev = Architecture::xc4044_wildforce();
    let comps = 6u64; // k = 4 → 2 batches, 2 garbage tail slots
    for seq in [
        &FdhSequencer::new(&dev, &design) as &dyn Sequencer,
        &IdhSequencer::new(&dev, &design),
    ] {
        let mut sink = VecSink::new();
        let report = seq
            .run(&mut SyntheticSource::new(comps, 2), &mut sink)
            .unwrap();
        assert_eq!(report.computations, 6, "{}", seq.name());
        assert_eq!(
            sink.data().len(),
            12,
            "{}: 6 computations × 2 words",
            seq.name()
        );
        let (expect_out, expect_report) = seq.run_slice(&materialize(comps, 2)).unwrap();
        assert_eq!(sink.data(), expect_out.as_slice());
        assert_eq!(report, expect_report);
    }
}

/// `AnalyzedFlow::run` with the synthetic source and counting sink reports
/// exactly what the slice wrapper reports on the materialized equivalent,
/// and the simulated IDH total agrees with the analytic overlapped model
/// the exploration ranks by.
#[test]
fn analyzed_flow_run_matches_wrappers_and_analytic_model() {
    let session = FlowSession::new(
        sparcs::dfg::gen::fig4_example(),
        Architecture::xc4044_wildforce(),
    );
    let analyzed = session.partition().unwrap().analyze().unwrap();
    let design = analyzed.executable_design().unwrap();
    let in_w = design.primary_input_words;
    let workload = 10_000u64;
    let materialized = materialize(workload, in_w);

    for sequencing in [SequencingStrategy::Fdh, SequencingStrategy::Idh] {
        let mut source = SyntheticSource::new(workload, in_w);
        let mut sink = CountingSink::new();
        let report = analyzed.run(sequencing, &mut source, &mut sink).unwrap();
        let arch = &analyzed.context().arch;
        let wrapper = match sequencing {
            SequencingStrategy::Fdh => FdhSequencer::new(arch, &design).run_slice(&materialized),
            SequencingStrategy::Idh => IdhSequencer::new(arch, &design).run_slice(&materialized),
        }
        .unwrap();
        assert_eq!(report, wrapper.1, "{sequencing} report");
        assert_eq!(sink.words(), wrapper.0.len() as u64);
        assert_eq!(sink.digest(), CountingSink::digest_of(&wrapper.0));
        if sequencing == SequencingStrategy::Idh {
            // The simulator and the analytic overlapped model agree on the
            // executable design's exact block geometry.
            assert_eq!(
                report.total_ns,
                u128::from(analyzed.fission.idh_total_time_overlapped_ns(workload))
            );
        }
    }

    // The static baseline streams through the same interface.
    let stat = analyzed.static_equivalent().unwrap();
    let mut source = SyntheticSource::new(workload, in_w);
    let mut sink = CountingSink::new();
    let report = analyzed
        .run_static_baseline(&mut source, &mut sink)
        .unwrap();
    let (expect_out, expect_report) = StaticSequencer::new(&analyzed.context().arch, &stat)
        .run_slice(&materialized)
        .unwrap();
    assert_eq!(report, expect_report);
    assert_eq!(sink.digest(), CountingSink::digest_of(&expect_out));
}

/// The DCT case study streams straight from the image pixels: the
/// word-by-word [`sparcs::casestudy::ImageBlockSource`] drives the same
/// bit-exact coefficients as the materialized input stream.
#[test]
fn dct_image_source_streams_bit_exact_coefficients() {
    use sparcs::casestudy::DctExperiment;
    use sparcs::jpeg::Image;
    let exp = DctExperiment::paper().unwrap();
    let design = exp.rtr_design();
    let img = Image::noise(32, 32, 0xBEEF); // 64 blocks
    let (expect_out, expect_report) = IdhSequencer::new(&exp.arch, &design)
        .run_slice(&DctExperiment::input_stream(&img))
        .unwrap();
    let mut source = DctExperiment::image_source(&img);
    let mut sink = CountingSink::new();
    let report = IdhSequencer::new(&exp.arch, &design)
        .run(&mut source, &mut sink)
        .unwrap();
    assert_eq!(report, expect_report);
    assert_eq!(sink.digest(), CountingSink::digest_of(&expect_out));
}

/// Release-mode smoke: a million-computation workload streams through
/// `AnalyzedFlow::run` with generator source and counting sink — no
/// buffer anywhere grows with `I` — and the incremental report matches the
/// analytic IDH model exactly. (Compiled out under debug assertions; the
/// CI workflow runs it in release.)
#[test]
#[cfg(not(debug_assertions))]
fn large_stream_smoke_at_constant_memory() {
    let session = FlowSession::new(
        sparcs::dfg::gen::fig4_example(),
        Architecture::xc4044_wildforce(),
    );
    let analyzed = session.partition().unwrap().analyze().unwrap();
    let design = analyzed.executable_design().unwrap();
    let workload = 1_048_576u64; // ≥ 10⁶ computations, 3 words each
    let mut source = SyntheticSource::new(workload, design.primary_input_words);
    let mut sink = CountingSink::new();
    let report = analyzed
        .run(SequencingStrategy::Idh, &mut source, &mut sink)
        .unwrap();
    assert_eq!(report.computations, workload);
    assert_eq!(sink.words(), workload * design.output_words());
    assert_eq!(
        report.total_ns,
        u128::from(analyzed.fission.idh_total_time_overlapped_ns(workload))
    );
    // Determinism: the digest is a function of (seed, design) only.
    let mut again = CountingSink::new();
    analyzed
        .run(
            SequencingStrategy::Idh,
            &mut SyntheticSource::new(workload, design.primary_input_words),
            &mut again,
        )
        .unwrap();
    assert_eq!(again.digest(), sink.digest());
}
