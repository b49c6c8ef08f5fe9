//! End-to-end integration: the partitioned DCT runs on the simulated board
//! under every sequencing strategy, produces bit-exact coefficients, and its
//! measured times match the analytic cost models the tables are built from.

use sparcs::casestudy::DctExperiment;
use sparcs::estimate::paper;
use sparcs::jpeg::{fixed, Image};
use sparcs::rtr::{FdhSequencer, IdhSequencer, Sequencer, StaticSequencer};
use std::sync::OnceLock;

fn exp() -> &'static DctExperiment {
    static EXP: OnceLock<DctExperiment> = OnceLock::new();
    EXP.get_or_init(|| DctExperiment::paper().expect("experiment assembles"))
}

fn reference_coefficients(img: &Image) -> Vec<i32> {
    img.blocks()
        .iter()
        .flat_map(|b| {
            let z = fixed::forward_fixed(b);
            z.into_iter().flatten().collect::<Vec<i32>>()
        })
        .collect()
}

#[test]
fn all_three_designs_are_bit_exact_on_an_image() {
    let img = Image::noise(64, 64, 0xD0C7); // 256 blocks, worst-case content
    let stream = DctExperiment::input_stream(&img);
    let design = exp().rtr_design();
    let stat = exp().static_design();

    let (z_static, _) = StaticSequencer::new(&exp().arch, &stat)
        .run_slice(&stream)
        .expect("static runs");
    let (z_fdh, _) = FdhSequencer::new(&exp().arch, &design)
        .run_slice(&stream)
        .expect("fdh runs");
    let (z_idh, _) = IdhSequencer::new(&exp().arch, &design)
        .run_slice(&stream)
        .expect("idh runs");
    let reference = reference_coefficients(&img);

    assert_eq!(z_static, reference, "static kernel is the fixed-point DCT");
    assert_eq!(z_fdh, reference, "FDH partitioned result");
    assert_eq!(z_idh, reference, "IDH partitioned result");
}

#[test]
fn simulator_matches_analytic_idh_model() {
    let img = Image::gradient(256, 128); // 2048 blocks = exactly one batch
    let stream = DctExperiment::input_stream(&img);
    let design = exp().rtr_design();
    let (_, t) = IdhSequencer::new(&exp().arch, &design)
        .run_slice(&stream)
        .expect("idh runs");
    let analytic = exp().fission.idh_total_time_overlapped_ns(2_048);
    assert_eq!(t.total_ns, u128::from(analytic));
}

#[test]
fn simulator_matches_analytic_fdh_model() {
    let img = Image::gradient(256, 128); // one batch
    let stream = DctExperiment::input_stream(&img);
    let design = exp().rtr_design();
    let (_, t) = FdhSequencer::new(&exp().arch, &design)
        .run_slice(&stream)
        .expect("fdh runs");
    // One batch: k·block_1 in + 3 CT + k·Σd + k·16 out.
    let k = u128::from(exp().fission.k);
    let dm = u128::from(exp().arch.transfer_ns_per_word);
    let expected = dm * k * 32
        + 3 * u128::from(exp().arch.reconfig_time_ns)
        + k * u128::from(exp().design.sum_delay_ns)
        + dm * k * 16;
    assert_eq!(t.total_ns, expected);
}

#[test]
fn simulator_matches_analytic_static_model() {
    let img = Image::gradient(64, 64); // 256 blocks
    let stream = DctExperiment::input_stream(&img);
    let stat = exp().static_design();
    let (_, t) = StaticSequencer::new(&exp().arch, &stat)
        .run_slice(&stream)
        .expect("static runs");
    let dm = u128::from(exp().arch.transfer_ns_per_word);
    // 32 words × 25 ns = 800 ns hides under the 16 µs compute.
    let expected = u128::from(exp().arch.reconfig_time_ns)
        + 256 * u128::from(paper::STATIC_DELAY_NS)
        + dm * 16
        + dm * 16;
    assert_eq!(t.total_ns, expected);
}

#[test]
fn idh_beats_fdh_and_loses_to_static_only_on_small_images() {
    let design = exp().rtr_design();
    let stat = exp().static_design();
    // Small image: static wins (reconfiguration cannot amortize).
    let small = DctExperiment::input_stream(&Image::gradient(64, 32)); // 128 blocks
    let (_, t_small_idh) = IdhSequencer::new(&exp().arch, &design)
        .run_slice(&small)
        .expect("idh");
    let (_, t_small_static) = StaticSequencer::new(&exp().arch, &stat)
        .run_slice(&small)
        .expect("static");
    assert!(t_small_static.total_ns < t_small_idh.total_ns);
    let (_, t_small_fdh) = FdhSequencer::new(&exp().arch, &design)
        .run_slice(&small)
        .expect("fdh");
    assert!(t_small_static.total_ns < t_small_fdh.total_ns);
    // On a single batch FDH and IDH reconfigure equally often; IDH pulls
    // ahead as soon as a second batch would trigger another FDH cascade.
    let medium = DctExperiment::input_stream(&Image::gradient(256, 256)); // 4096 blocks
    let (_, t_med_idh) = IdhSequencer::new(&exp().arch, &design)
        .run_slice(&medium)
        .expect("idh");
    let (_, t_med_fdh) = FdhSequencer::new(&exp().arch, &design)
        .run_slice(&medium)
        .expect("fdh");
    assert!(t_med_idh.total_ns < t_med_fdh.total_ns);
}

#[test]
fn partial_batches_match_reference_too() {
    // 300 blocks = 1 full batch of 2048 slots would be wasteful — the
    // sequencers pad and discard; outputs must still be exact.
    let img = Image::checkerboard(80, 60); // 300 blocks
    let stream = DctExperiment::input_stream(&img);
    let design = exp().rtr_design();
    let (z, report) = FdhSequencer::new(&exp().arch, &design)
        .run_slice(&stream)
        .expect("fdh runs");
    assert_eq!(z, reference_coefficients(&img));
    assert_eq!(report.computations, 300);
}

#[test]
fn host_code_generation_reflects_the_design() {
    use sparcs::core::codegen;
    use sparcs::core::SequencingStrategy;
    let fdh = codegen::host_code(&exp().fission, SequencingStrategy::Fdh);
    assert!(fdh.contains("#define N_CONFIGS 3"));
    assert!(fdh.contains("#define K_PER_RUN 2048"));
    assert!(fdh.contains("#define BLOCK_WORDS_P1 32"));
    let idh = codegen::host_code(&exp().fission, SequencingStrategy::Idh);
    assert!(idh.contains("read_intermediate_output_block"));
}

#[test]
fn xc6000_experiment_improves_even_modest_images() {
    let exp6 = DctExperiment::with(
        sparcs::jpeg::EstimateBackend::PaperCalibrated,
        sparcs::estimate::Architecture::xc6200_fast_reconfig(),
    )
    .expect("assembles");
    let design = exp6.rtr_design();
    let stat = exp6.static_design();
    let img = Image::gradient(256, 128); // 2048 blocks — small for 100 ms CT
    let stream = DctExperiment::input_stream(&img);
    let (_, t_idh) = IdhSequencer::new(&exp6.arch, &design)
        .run_slice(&stream)
        .expect("idh");
    let (_, t_static) = StaticSequencer::new(&exp6.arch, &stat)
        .run_slice(&stream)
        .expect("static");
    assert!(
        t_idh.total_ns < t_static.total_ns,
        "fast reconfiguration flips the small-image verdict"
    );
}
