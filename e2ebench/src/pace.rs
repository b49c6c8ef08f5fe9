//! Host-speed calibration.
//!
//! On a shared host the CPU's speed drifts by tens of percent over
//! seconds (frequency changes, a busy hyperthread sibling). Every timed
//! sample is bracketed by a fixed integer workload, and its wall time is
//! scaled by how fast that workload ran at the time, against a reference
//! speed: CPU-bound times are reported in seconds of a host running at
//! the reference speed, so drift between runs cancels while a change in
//! the program's own work does not.

use sparcs::rtr::stream::splitmix64;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Calibration workload iterations (about 1.6 ms at the reference speed).
const ITERATIONS: u64 = 200_000;
/// The calibration workload's time at the reference speed, ns: its
/// typical time on the 2-vCPU x86-64 host this benchmark was written on.
pub const REFERENCE_NS: f64 = 1_600_000.0;

/// Runs the calibration workload once; returns its wall time.
pub fn calibrate() -> Duration {
    thread_local! {
        static TABLE: std::cell::RefCell<Vec<u64>> = std::cell::RefCell::new(vec![0; TABLE_WORDS]);
    }
    TABLE.with(|table| {
        let mut table = table.borrow_mut();
        let t0 = Instant::now();
        let mut x = 0x5eed_u64;
        for i in 0..ITERATIONS {
            x = splitmix64(x ^ i);
            let slot = (x as usize) & (TABLE_WORDS - 1);
            table[slot] = table[slot].wrapping_add(x);
        }
        black_box(&*table);
        t0.elapsed()
    })
}

/// The calibration table: 4 MiB, so the workload also depends on the
/// shared cache and memory the measured code competes for.
const TABLE_WORDS: usize = 1 << 19;

/// Calibrations on each side of a timed sample.
const BRACKET: usize = 3;

/// Times `f` between calibrations. Returns its result, its raw wall time,
/// and the speed factor `REFERENCE_NS / calibration ns` (1 at the
/// reference speed, below 1 on a slower host), from the median of the
/// calibrations just before and just after.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration, f64) {
    let mut cal: Vec<f64> = (0..BRACKET).map(|_| ns(calibrate())).collect();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed();
    cal.extend((0..BRACKET).map(|_| ns(calibrate())));
    (out, wall, REFERENCE_NS / crate::stats::median(&cal))
}

/// How often [`sampled`] calibrates.
const SAMPLE_PERIOD: Duration = Duration::from_millis(100);

/// Runs `f` while a background thread calibrates every
/// [`SAMPLE_PERIOD`]; returns its result and the speed factor from the
/// median calibration. For work too concurrent or too long to bracket.
pub fn sampled<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            calibrate(); // first touch of this thread's table
            let mut cal = Vec::new();
            loop {
                cal.push(ns(calibrate()));
                if stop.load(Ordering::Acquire) {
                    return cal;
                }
                std::thread::sleep(SAMPLE_PERIOD);
            }
        });
        let out = f();
        stop.store(true, Ordering::Release);
        let cal = sampler.join().expect("calibration sampler");
        (out, REFERENCE_NS / crate::stats::median(&cal))
    })
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}
