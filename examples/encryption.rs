//! Block-cipher encryption — the third DSP application class the paper's
//! introduction motivates for run-time reconfiguration ("Image processing,
//! Template Matching, Encryption algorithms").
//!
//! An XTEA-style cipher (32 Feistel rounds) streams blocks through the
//! reconfigurable device: the rounds are split into four temporal partitions
//! of eight rounds each, each partition's kernel really encrypts, and the
//! result is checked bit-exactly against the monolithic software cipher
//! under both sequencing strategies. Run with
//! `cargo run --release --example encryption`.

use sparcs::core::fission::BlockRounding;
use sparcs::dfg::{Resources, TaskGraph};
use sparcs::estimate::estimator::Estimator;
use sparcs::estimate::opgraph::{OpGraph, OpKind};
use sparcs::estimate::{Architecture, ComponentLibrary};
use sparcs::flow::FlowSession;
use sparcs::rtr::{Configuration, FdhSequencer, IdhSequencer, RtrDesign, Sequencer};

const KEY: [u32; 4] = [0x0123_4567, 0x89AB_CDEF, 0xFEDC_BA98, 0x7654_3210];
const DELTA: u32 = 0x9E37_79B9;

/// One XTEA round pair applied to (v0, v1) starting at round index `r0`,
/// for `rounds` rounds.
fn xtea_rounds(mut v0: u32, mut v1: u32, r0: u32, rounds: u32) -> (u32, u32) {
    let mut sum = DELTA.wrapping_mul(r0);
    for _ in 0..rounds {
        v0 = v0.wrapping_add(
            (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                ^ (sum.wrapping_add(KEY[(sum & 3) as usize])),
        );
        sum = sum.wrapping_add(DELTA);
        v1 = v1.wrapping_add(
            (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                ^ (sum.wrapping_add(KEY[((sum >> 11) & 3) as usize])),
        );
    }
    (v0, v1)
}

/// Operation graph of an eight-round stage, for area/delay estimation:
/// per round ≈ 6 adds + 4 xors/shifts per half.
fn stage_ops() -> OpGraph {
    let mut g = OpGraph::new();
    let mut prev = None;
    let rd0 = g.add_op(OpKind::MemRead, 32, "v0");
    let rd1 = g.add_op(OpKind::MemRead, 32, "v1");
    for r in 0..8 {
        for half in 0..2 {
            let sh = g.add_op(OpKind::Logic, 32, format!("shift{r}_{half}"));
            let mix = g.add_op(OpKind::Add, 32, format!("mix{r}_{half}"));
            let key = g.add_op(OpKind::Add, 32, format!("key{r}_{half}"));
            let xor = g.add_op(OpKind::Logic, 32, format!("xor{r}_{half}"));
            let acc = g.add_op(OpKind::Add, 32, format!("acc{r}_{half}"));
            g.add_dep(sh, mix);
            g.add_dep(mix, xor);
            g.add_dep(key, xor);
            g.add_dep(xor, acc);
            if let Some(p) = prev {
                g.add_dep(p, sh);
            } else {
                g.add_dep(rd0, sh);
                g.add_dep(rd1, sh);
            }
            prev = Some(acc);
        }
    }
    let wr0 = g.add_op(OpKind::MemWrite, 32, "c0");
    let wr1 = g.add_op(OpKind::MemWrite, 32, "c1");
    g.add_dep(prev.expect("rounds exist"), wr0);
    g.add_dep(prev.expect("rounds exist"), wr1);
    g
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let est = Estimator::new(ComponentLibrary::xc4000(), 100);
    let stage = est.estimate(&stage_ops())?;
    println!("8-round stage estimate: {stage}");

    // Behavior graph: four cascaded 8-round stages.
    let mut g = TaskGraph::new("xtea");
    let mut prev = None;
    for i in 0..4 {
        let t = g.add_task_kind(
            format!("rounds_{}_{}", i * 8, i * 8 + 7),
            "XTEA",
            stage.resources,
            stage.delay_ns,
            2,
        );
        if let Some(p) = prev {
            g.add_edge(p, t, 2)?;
        } else {
            g.add_env_input("plaintext", 2, [t])?;
        }
        prev = Some(t);
    }
    g.add_env_output("ciphertext", 2, [prev.expect("stages")])?;

    // Device sized to hold one stage at a time → 4 temporal partitions.
    let mut arch = Architecture::xc4044_wildforce();
    arch.resources = Resources::clbs(stage.resources.clbs + 50);
    let session = FlowSession::new(g, arch.clone());
    let analyzed = session
        .partition()?
        .analyze_with(BlockRounding::PowerOfTwo)?;
    let (design, fission) = (&analyzed.design, &analyzed.fission);
    println!("partitioning: {}", design.partitioning);
    println!("fission     : {fission}");

    // Executable RTR design: each partition encrypts 8 rounds. Words are
    // bit-cast u32 halves.
    let configs: Vec<Configuration> = (0..4u32)
        .map(|i| {
            Configuration::new(
                format!("rounds {}..{}", i * 8, i * 8 + 8),
                design.partition_delays_ns[i as usize],
                vec![0, 1],
                2,
                move |x: &[i32], out: &mut [i32]| {
                    // Stage i resumes the key schedule at round 8·i.
                    let (v0, v1) = xtea_rounds(x[0] as u32, x[1] as u32, i * 8, 8);
                    out.copy_from_slice(&[v0 as i32, v1 as i32]);
                },
            )
        })
        .collect();
    let rtr = RtrDesign::linear(configs, fission.k);

    // Encrypt a stream and verify against the monolithic software cipher.
    let plaintext: Vec<i32> = (0..10_000i32)
        .map(|v| v.wrapping_mul(2_654_435_761u32 as i32))
        .collect();
    let (ct_fdh, t_fdh) = FdhSequencer::new(&arch, &rtr).run_slice(&plaintext)?;
    let (ct_idh, t_idh) = IdhSequencer::new(&arch, &rtr).run_slice(&plaintext)?;
    assert_eq!(ct_fdh, ct_idh);
    for (i, pair) in plaintext.chunks(2).enumerate() {
        let (c0, c1) = xtea_rounds(pair[0] as u32, pair[1] as u32, 0, 32);
        assert_eq!(ct_fdh[2 * i] as u32, c0, "block {i}");
        assert_eq!(ct_fdh[2 * i + 1] as u32, c1, "block {i}");
    }
    println!("\n5000 blocks encrypted bit-exactly on the RTR board model:");
    println!("  FDH: {t_fdh}");
    println!("  IDH: {t_idh}");
    println!(
        "  chosen strategy for this stream: {}",
        fission.choose_strategy(5_000)
    );
    Ok(())
}
