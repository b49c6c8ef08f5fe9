//! Kernel regression gate: the fissioned pricing kernels must not fall
//! behind the fused scalar reference they replaced.
//!
//! The fission PR's whole premise is that splitting the dual pricing loop
//! into a vectorizable scan plus a scalar argmax is at worst free and in
//! an optimized build a win. This gate races the two forms on synthetic
//! rows shaped like the pinned DCT `N = 4` basis and asserts the fissioned
//! form's throughput is no worse than the reference's divided by a
//! generous 1.2× noise floor — CI boxes are loud, and the point is to
//! catch a future change that quietly de-vectorizes the scan (an
//! accidental recurrence, a branch in the hot lane), not to flake on
//! scheduler jitter.
//!
//! Measurement protocol: trials of the two forms are *interleaved* so both
//! see the same machine conditions, and the median trial time is compared
//! (the median is robust to a single preempted trial where the minimum of
//! one side only is not).
//!
//! The throughput assertion only runs in optimized builds — in a debug
//! build neither form is vectorized and the scan's bounds checks swamp the
//! comparison, so like the large-stream smoke in `tests/streaming.rs` the
//! race is compiled out under `debug_assertions` and CI runs this test
//! again under `--release`. The equivalence check runs in every build.

use sparcs_ilp::kernels::{self, reference};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Deterministic splitmix64, matching the kernel proptests.
fn prand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (prand(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Rows shaped like the DCT `N = 4` basis: most feasible, ~6% violating.
fn pricing_rows(m: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut s = 0x5eed_u64;
    let mut xb = Vec::with_capacity(m);
    let mut lo = Vec::with_capacity(m);
    let mut hi = Vec::with_capacity(m);
    let mut dse = Vec::with_capacity(m);
    for _ in 0..m {
        let l = unit(&mut s) * 4.0 - 2.0;
        let h = l + 1.0 + unit(&mut s) * 3.0;
        let v = match prand(&mut s) % 100 {
            0..=2 => l - 0.5 - unit(&mut s),
            3..=5 => h + 0.5 + unit(&mut s),
            _ => l + (h - l) * unit(&mut s),
        };
        xb.push(v);
        lo.push(l);
        hi.push(h);
        dse.push(0.5 + unit(&mut s) * 8.0);
    }
    (xb, lo, hi, dse)
}

fn median(mut v: Vec<Duration>) -> Duration {
    v.sort();
    v[v.len() / 2]
}

#[test]
fn fissioned_pricing_keeps_up_with_the_fused_reference() {
    const M: usize = 564;
    const ITERS: usize = 3000;
    const TRIALS: usize = 9;

    let (xb, lo, hi, dse) = pricing_rows(M);
    let feas_tol = 1e-7;
    let mut viols = vec![0.0_f64; M];

    // The gate is about speed; equivalence is the proptests' job — but a
    // mismatch here would make the race meaningless, so check once.
    kernels::dual_price_scan(&xb, &lo, &hi, feas_tol, &mut viols);
    assert_eq!(
        kernels::dual_price_argmax(&viols, &dse),
        reference::dual_price(&xb, &lo, &hi, &dse, feas_tol),
    );

    if cfg!(debug_assertions) {
        println!(
            "debug build: equivalence checked, throughput race skipped \
             (CI re-runs this test under --release)"
        );
        return;
    }

    let mut fissioned_trials = Vec::with_capacity(TRIALS);
    let mut fused_trials = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            kernels::dual_price_scan(
                black_box(&xb),
                black_box(&lo),
                black_box(&hi),
                feas_tol,
                &mut viols,
            );
            black_box(kernels::dual_price_argmax(&viols, black_box(&dse)));
        }
        fissioned_trials.push(t0.elapsed());

        let t0 = Instant::now();
        for _ in 0..ITERS {
            black_box(reference::dual_price(
                black_box(&xb),
                black_box(&lo),
                black_box(&hi),
                black_box(&dse),
                feas_tol,
            ));
        }
        fused_trials.push(t0.elapsed());
    }

    let fissioned = median(fissioned_trials);
    let fused = median(fused_trials);
    let ratio = fused.as_secs_f64() / fissioned.as_secs_f64();
    println!(
        "pricing over {M} rows, median of {TRIALS}x{ITERS}: \
         fissioned {fissioned:?}, fused reference {fused:?}, speedup {ratio:.2}x"
    );

    // fissioned throughput >= reference / 1.2 — i.e. fission is allowed to
    // be up to 20% slower before the gate trips, so CI noise doesn't flake
    // but a de-vectorized scan (typically 2-4x slower than the fused loop
    // it no longer beats) is caught.
    assert!(
        fissioned.as_secs_f64() <= fused.as_secs_f64() * 1.2,
        "fissioned pricing regressed: {fissioned:?} vs fused {fused:?} ({ratio:.2}x)"
    );
}
