//! The paper's §4 experiment end to end: JPEG compression with the DCT on
//! the (simulated) reconfigurable board.
//!
//! The DCT runs on the RTR design under both sequencing strategies and as a
//! static design; the rest of the JPEG pipeline (quantization, zig-zag,
//! Huffman) runs in software on the hardware-produced coefficients — the
//! co-design split of the paper. Run with `cargo run --release --example
//! jpeg_rtr`.

use sparcs::casestudy::DctExperiment;
use sparcs::jpeg::{pipeline, Image};
use sparcs::rtr::{FdhSequencer, IdhSequencer, Sequencer, StaticSequencer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let exp = DctExperiment::paper()?;
    println!("flow result: {}", exp.design.partitioning);
    println!(
        "  delays {:?} ns | m_temp {:?} words | k = {}",
        exp.design.partition_delays_ns, exp.fission.m_temp_words, exp.fission.k
    );

    // A synthetic test image (the paper's image files are unavailable).
    let img = Image::smooth(256, 256); // 4096 blocks
    let stream = DctExperiment::input_stream(&img);
    println!(
        "\nimage: {}x{} = {} DCT blocks",
        img.width,
        img.height,
        img.block_count()
    );

    let design = exp.rtr_design();
    let stat = exp.static_design();

    let (z_static, t_static) = StaticSequencer::new(&exp.arch, &stat).run_slice(&stream)?;
    let (z_fdh, t_fdh) = FdhSequencer::new(&exp.arch, &design).run_slice(&stream)?;
    let (z_idh, t_idh) = IdhSequencer::new(&exp.arch, &design).run_slice(&stream)?;

    assert_eq!(z_static, z_fdh, "FDH must be bit-exact");
    assert_eq!(z_static, z_idh, "IDH must be bit-exact");
    println!("\nDCT coefficients identical across all three designs (bit-exact).");

    println!("\ntiming on the XC4044/WildForce board model:");
    println!("  static: {t_static}");
    println!("  FDH   : {t_fdh}");
    println!("  IDH   : {t_idh}");
    println!(
        "  IDH improvement over static: {:.1}% (grows with image size; 41% at 245,760 blocks)",
        t_idh.improvement_over_pct(&t_static)
    );

    // Software half of the co-design: compress with the software pipeline
    // and report size/fidelity (the coefficients the hardware produced are
    // the pipeline's DCT stage by construction — see casestudy tests).
    let compressed = pipeline::encode(&img, 80)?;
    let decoded = pipeline::decode(&compressed)?;
    println!(
        "\nJPEG software half: {} bytes payload, PSNR {:.1} dB at quality 80",
        compressed.payload_bytes(),
        decoded.psnr(&img).expect("same dimensions")
    );
    Ok(())
}
