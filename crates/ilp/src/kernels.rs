//! Loop-fissioned hot-path kernels for the dual simplex.
//!
//! The paper this repo reproduces is about *loop fission*: splitting a loop
//! whose body mixes vectorizable statements with recurrence-carrying ones
//! into one pure pass the compiler can autovectorize plus one sequential
//! pass that carries the recurrence. This module applies that discipline to
//! the solver's own hot loops, working over the workspace's
//! structure-of-arrays layout (parallel `Vec`s of basic values, bounds,
//! steepest-edge weights, reduced costs and pivot-row entries — never
//! per-column struct access):
//!
//! * **Dual steepest-edge pricing** fissions into [`dual_price_scan`] (a
//!   pure, branch-light score computation over four parallel `f64` slices)
//!   followed by [`dual_price_argmax`] (the sequential first-strict-max
//!   recurrence).
//! * **The bound-flipping ratio test** fissions into [`dual_ratio_scan`]
//!   (eligibility + ratio computation appended to a reusable candidate
//!   scratch buffer) followed by the sequential sort/flip/enter walk that
//!   stays in [`crate::simplex`] because it carries the
//!   remaining-violation recurrence.
//!
//! The original fused scalar loops are the specification. They live in
//! this crate's integration test `tests/kernels.rs`, which asserts the
//! fissioned passes make *bit-identical* selections (same leaving row,
//! same candidate set in the same order) and races the two pricing forms
//! as a CI throughput gate. The fissioned passes are `pub` for the
//! solver and that test — they are not a general-purpose API.

/// Where a nonbasic column rests, as the kernels see it (a `u8`-sized
/// mirror of the workspace's status array so candidate scans read one flat
/// byte slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ColStatus {
    /// In the basis (never a ratio-test candidate).
    Basic = 0,
    /// Nonbasic at its lower bound.
    AtLower = 1,
    /// Nonbasic at its upper bound.
    AtUpper = 2,
    /// Free nonbasic, resting at zero.
    Free = 3,
}

/// Scan pass of the dual steepest-edge pricing loop: for every basis row
/// `r` writes the primal violation magnitude into `viols[r]`, or `-1.0`
/// when the row is feasible. Pure elementwise arithmetic over three
/// parallel slices (basic values, basic lower/upper bounds by row
/// position) — no recurrence, no division, and the equal-length reslices
/// hoist the bounds checks so the autovectorizer turns the body into
/// compares and blends. The division-bearing score `viol²/γ_r` is *not*
/// computed here: on a typical dual iteration ~95% of rows are feasible,
/// and a vectorized scan would pay the divide in every lane where the
/// selection pass pays it only for actual candidates.
///
/// `feas_tol` is the primal feasibility tolerance on scaled rows.
#[inline]
pub fn dual_price_scan(xb: &[f64], lo_b: &[f64], hi_b: &[f64], feas_tol: f64, viols: &mut [f64]) {
    let m = xb.len();
    let (xb, lo_b, hi_b, viols) = (&xb[..m], &lo_b[..m], &hi_b[..m], &mut viols[..m]);
    for r in 0..m {
        let v = xb[r];
        // The comparisons mirror the fused loop bit for bit — `v < lo - t`
        // is not the same predicate as `lo - v > t` at the knife edge, and
        // the pivot trajectory must not depend on which form runs. The
        // two selects apply the below-bound case last so it wins when a
        // degenerate `hi < lo - 2t` row triggers both, exactly like the
        // fused loop's `if`/`else if` ordering.
        let mut out = -1.0;
        out = if v > hi_b[r] + feas_tol {
            v - hi_b[r]
        } else {
            out
        };
        out = if v < lo_b[r] - feas_tol {
            lo_b[r] - v
        } else {
            out
        };
        viols[r] = out;
    }
}

/// Selection pass of the dual pricing loop: scores each violated row
/// (`viols[r] >= 0.0`; `-1.0` marks feasible rows) as `viol²/γ_r` and
/// returns the first row attaining the strict maximum. This is the
/// recurrence the scan pass was fissioned away from; it reproduces the
/// fused loop's tie-break exactly (first candidate wins, later candidates
/// must be strictly better) and keeps the division off the scan's
/// vector lanes by paying it per candidate, like the fused loop did.
#[inline]
pub fn dual_price_argmax(viols: &[f64], dse: &[f64]) -> Option<usize> {
    let mut leave: Option<(usize, f64)> = None;
    for (r, &viol) in viols.iter().enumerate() {
        if viol >= 0.0 {
            let score = viol * viol / dse[r].max(1e-10);
            if leave.is_none_or(|(_, best)| score > best) {
                leave = Some((r, score));
            }
        }
    }
    leave.map(|(r, _)| r)
}

/// Candidate-collection pass of the bound-flipping dual ratio test: walks
/// the (ascending) nonbasic column list and appends every sign-eligible
/// column's `(ratio, column)` pair to `cands`. Pure gather/compute over the
/// workspace's parallel arrays; the sequential flip/enter selection that
/// consumes `cands` carries the remaining-violation recurrence and stays in
/// the solver.
///
/// Fixed columns (`lo ≥ hi`) are skipped *before* `alpha` is read — the
/// pivot-row entries of fixed columns are never computed.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn dual_ratio_scan(
    nonbasic: &[u32],
    status: &[ColStatus],
    lo: &[f64],
    hi: &[f64],
    d: &[f64],
    alpha: &[f64],
    below: bool,
    floor: f64,
    cands: &mut Vec<(f64, u32)>,
) {
    cands.clear();
    for &j32 in nonbasic {
        let j = j32 as usize; // cast-ok: u32 column ids widen losslessly to usize
        if lo[j] >= hi[j] {
            continue;
        }
        let a = alpha[j];
        let eligible = match (status[j], below) {
            (ColStatus::AtLower, true) => a < -floor,
            (ColStatus::AtLower, false) => a > floor,
            (ColStatus::AtUpper, true) => a > floor,
            (ColStatus::AtUpper, false) => a < -floor,
            (ColStatus::Free, _) => a.abs() > floor,
            (ColStatus::Basic, _) => false,
        };
        if !eligible {
            continue;
        }
        let dj = match status[j] {
            ColStatus::AtLower => d[j].max(0.0),
            ColStatus::AtUpper => (-d[j]).max(0.0),
            _ => d[j].abs(),
        };
        cands.push((dj / a.abs(), j32));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasible_rows_price_to_none() {
        let xb = [0.5, 0.0, 1.0];
        let lo_b = [0.0; 3];
        let hi_b = [1.0; 3];
        let dse = [1.0; 3];
        let mut viols = vec![0.0; 3];
        dual_price_scan(&xb, &lo_b, &hi_b, 1e-7, &mut viols);
        assert_eq!(dual_price_argmax(&viols, &dse), None);
    }
}
