//! Product-form basis factorization for the revised simplex.
//!
//! The basis inverse is kept as an *eta file*: a sequence of elementary
//! column transformations such that `B⁻¹ = E_k · … · E_1`. Every simplex
//! pivot appends one eta (built from the entering column's `B⁻¹·a_q`);
//! [`Basis::reinvert`] rebuilds a short file from scratch for an arbitrary
//! basic column set, assigning each column a pivot row as it goes.
//!
//! Reinversion processes columns in ascending nonzero count, so the
//! identity-like slack columns (the bulk of any LP basis here) claim their
//! own rows with *no* eta at all and only the structural basic columns
//! contribute fill — the sparse analogue of the classic
//! triangularize-then-bump ordering, with the bump handled by the same
//! greedy pivot search.
//!
//! The eta file itself is stored structure-of-arrays: one flat `(row,
//! value)` entry pool shared by every eta, with a per-eta start offset.
//! ftran/btran — four of them per dual pivot — then walk two contiguous
//! arrays instead of chasing one heap allocation per eta, and
//! [`Basis::push_pivot`] appends entries in place instead of allocating.

use crate::sparse::SparseMat;
/// The factorized basis `B⁻¹ = E_k · … · E_1` (positions are row indices).
///
/// Etas are stored structure-of-arrays: eta `e` pivots on row
/// `pivot_row[e]` and owns the entry range `starts[e]..starts[e + 1]` of
/// the flat `idx`/`val` pools (the `1/pivot` diagonal entry included).
#[derive(Debug, Clone)]
pub struct Basis {
    m: usize,
    /// Pivot row of each eta.
    pivot_row: Vec<u32>,
    /// Entry-pool start of each eta, plus one trailing end offset.
    starts: Vec<u32>,
    /// Row indices of all eta entries, eta-major.
    idx: Vec<u32>,
    /// Values of all eta entries, parallel to `idx`.
    val: Vec<f64>,
    /// Pool position of each eta's diagonal (`1/pivot`) entry, so the
    /// FTRAN inner loops run branch-free around it.
    diag: Vec<u32>,
}

/// Reinversion failure: the proposed column set does not span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingularBasis;

/// Pivot magnitudes below this are never accepted during reinversion.
const REINVERT_TOL: f64 = 1e-9;

impl Basis {
    /// The identity basis (no etas).
    pub fn identity(m: usize) -> Self {
        Basis {
            m,
            pivot_row: Vec::new(),
            starts: vec![0],
            idx: Vec::new(),
            val: Vec::new(),
            diag: Vec::new(),
        }
    }

    /// Number of etas accumulated since the last reinversion.
    pub fn eta_count(&self) -> usize {
        self.pivot_row.len()
    }

    /// Total stored eta entries (ftran/btran cost proxy).
    pub fn eta_nnz(&self) -> usize {
        self.idx.len()
    }

    /// Solves `B·x = v` in place (`x` overwrites `v`).
    pub fn ftran(&self, v: &mut [f64]) {
        debug_assert_eq!(v.len(), self.m);
        for (e, &r) in self.pivot_row.iter().enumerate() {
            let t = v[r as usize];
            if t == 0.0 {
                continue;
            }
            let (lo, hi) = (self.starts[e] as usize, self.starts[e + 1] as usize);
            // Rows within one eta are distinct, so the split around the
            // diagonal entry computes exactly what the branchy walk did.
            let d = self.diag[e] as usize;
            for (&i, &ev) in self.idx[lo..d].iter().zip(&self.val[lo..d]) {
                v[i as usize] += ev * t;
            }
            for (&i, &ev) in self.idx[d + 1..hi].iter().zip(&self.val[d + 1..hi]) {
                v[i as usize] += ev * t;
            }
            v[r as usize] = self.val[d] * t;
        }
    }

    /// Solves `Bᵀ·y = v` in place (`y` overwrites `v`).
    pub fn btran(&self, v: &mut [f64]) {
        debug_assert_eq!(v.len(), self.m);
        for (e, &r) in self.pivot_row.iter().enumerate().rev() {
            let (lo, hi) = (self.starts[e] as usize, self.starts[e + 1] as usize);
            let mut acc = 0.0;
            for (&i, &ev) in self.idx[lo..hi].iter().zip(&self.val[lo..hi]) {
                acc += ev * v[i as usize];
            }
            v[r as usize] = acc;
        }
    }

    /// Appends the eta for a pivot at position `r` with direction
    /// `w = B⁻¹·a_q` (the entering column in the current basis). Entries go
    /// straight into the flat pools — no per-pivot allocation.
    ///
    /// # Panics
    ///
    /// Debug-panics on a (near-)zero pivot element.
    pub fn push_pivot(&mut self, r: usize, w: &[f64]) {
        let pivot = w[r];
        debug_assert!(pivot.abs() > 1e-12, "pivot on (near-)zero element");
        let inv = 1.0 / pivot;
        for (i, &wi) in w.iter().enumerate() {
            if i == r {
                self.diag.push(self.idx.len() as u32);
                self.idx.push(i as u32);
                self.val.push(inv);
            } else if wi != 0.0 {
                self.idx.push(i as u32);
                self.val.push(-wi * inv);
            }
        }
        self.pivot_row.push(r as u32);
        self.starts.push(self.idx.len() as u32);
    }

    /// [`Self::push_pivot`] that also hands every stored off-diagonal row
    /// `(i, w[i])` to `visit` as it goes: callers fold their own
    /// per-row update (e.g. the steepest-edge weight refresh) into the
    /// same sweep of `w` instead of scanning it twice. The stored eta and
    /// the visit set are exactly [`Self::push_pivot`]'s.
    pub fn push_pivot_visit(&mut self, r: usize, w: &[f64], mut visit: impl FnMut(usize, f64)) {
        let pivot = w[r];
        debug_assert!(pivot.abs() > 1e-12, "pivot on (near-)zero element");
        let inv = 1.0 / pivot;
        for (i, &wi) in w.iter().enumerate() {
            if i == r {
                self.diag.push(self.idx.len() as u32);
                self.idx.push(i as u32);
                self.val.push(inv);
            } else if wi != 0.0 {
                self.idx.push(i as u32);
                self.val.push(-wi * inv);
                visit(i, wi);
            }
        }
        self.pivot_row.push(r as u32);
        self.starts.push(self.idx.len() as u32);
    }

    /// [`Self::push_pivot`] from pre-gathered `(row, value)` nonzeros in
    /// ascending row order (`stage` must include the diagonal row `r`).
    /// The stored eta is identical to the dense walk's: same rows, same
    /// `-w_i / pivot` arithmetic, same order.
    fn push_pivot_staged(&mut self, r: usize, stage: &[(u32, f64)]) {
        let pivot = stage
            .iter()
            .find(|&&(i, _)| i as usize == r)
            .expect("diagonal row present in stage")
            .1;
        debug_assert!(pivot.abs() > 1e-12, "pivot on (near-)zero element");
        let inv = 1.0 / pivot;
        for &(i, wi) in stage {
            if i as usize == r {
                self.diag.push(self.idx.len() as u32);
                self.idx.push(i);
                self.val.push(inv);
            } else {
                self.idx.push(i);
                self.val.push(-wi * inv);
            }
        }
        self.pivot_row.push(r as u32);
        self.starts.push(self.idx.len() as u32);
    }

    /// [`Self::push_pivot`] for a direction held as dense values plus an
    /// ascending nonzero pattern: only the listed rows are inspected, and
    /// the stored eta is identical to the dense walk's (the pattern covers
    /// every nonzero, explicit zeros are skipped either way).
    pub(crate) fn push_pivot_sparse(&mut self, r: usize, w: &[f64], pattern: &[u32]) {
        let pivot = w[r];
        debug_assert!(pivot.abs() > 1e-12, "pivot on (near-)zero element");
        let inv = 1.0 / pivot;
        for &i in pattern {
            let wi = w[i as usize];
            if i as usize == r {
                self.diag.push(self.idx.len() as u32);
                self.idx.push(i);
                self.val.push(inv);
            } else if wi != 0.0 {
                self.idx.push(i);
                self.val.push(-wi * inv);
            }
        }
        self.pivot_row.push(r as u32);
        self.starts.push(self.idx.len() as u32);
    }

    /// [`Self::ftran`] for a right-hand side that is zero outside
    /// `pattern`: etas whose pivot row is unmarked are skipped (their
    /// multiplier is exactly `0.0`, the same skip the dense walk takes),
    /// and rows that gain fill are appended to the pattern. The arithmetic
    /// — operations, operands, order — is exactly the dense walk's.
    ///
    /// Once the pattern covers more than a quarter of the rows, the
    /// bookkeeping costs more than it saves: tracking stops, the remaining
    /// etas run the plain dense walk (its `t == 0.0` skip is the same
    /// skip), and the return value is `true` to tell the caller the
    /// pattern is no longer a complete nonzero cover.
    pub(crate) fn ftran_tracked(
        &self,
        v: &mut [f64],
        marked: &mut [bool],
        pattern: &mut Vec<u32>,
    ) -> bool {
        let wide = self.m / 4;
        let mut dense = false;
        for (e, &r) in self.pivot_row.iter().enumerate() {
            dense = dense || pattern.len() > wide;
            if dense {
                let t = v[r as usize];
                if t == 0.0 {
                    continue;
                }
                let (lo, hi) = (self.starts[e] as usize, self.starts[e + 1] as usize);
                let d = self.diag[e] as usize;
                for (&i, &ev) in self.idx[lo..d].iter().zip(&self.val[lo..d]) {
                    v[i as usize] += ev * t;
                }
                for (&i, &ev) in self.idx[d + 1..hi].iter().zip(&self.val[d + 1..hi]) {
                    v[i as usize] += ev * t;
                }
                v[r as usize] = self.val[d] * t;
                continue;
            }
            if !marked[r as usize] {
                continue;
            }
            let t = v[r as usize];
            if t == 0.0 {
                continue;
            }
            let (lo, hi) = (self.starts[e] as usize, self.starts[e + 1] as usize);
            let d = self.diag[e] as usize;
            for (&i, &ev) in self.idx[lo..d].iter().zip(&self.val[lo..d]) {
                if !marked[i as usize] {
                    marked[i as usize] = true;
                    pattern.push(i);
                }
                v[i as usize] += ev * t;
            }
            for (&i, &ev) in self.idx[d + 1..hi].iter().zip(&self.val[d + 1..hi]) {
                if !marked[i as usize] {
                    marked[i as usize] = true;
                    pattern.push(i);
                }
                v[i as usize] += ev * t;
            }
            v[r as usize] = self.val[d] * t;
        }
        dense
    }

    /// Rebuilds a fresh eta file for the basic column set `basic_cols` of
    /// `mat`, assigning pivot rows greedily (sparsest column first, largest
    /// eligible pivot element). On success returns the basis and the
    /// row-position assignment `assign[r] = column`.
    ///
    /// Columns that cannot claim a row (numerically dependent set) are
    /// *repaired*: the row's own unit column from `units` (the slack of
    /// that row) is pivoted in instead, and the dropped columns are
    /// reported so the caller can mark those variables nonbasic.
    ///
    /// # Errors
    ///
    /// [`SingularBasis`] when even the repair columns cannot complete the
    /// basis (cannot happen for a matrix carrying a full slack identity,
    /// but checked rather than assumed).
    pub fn reinvert(
        mat: &SparseMat,
        basic_cols: &[usize],
        unit_col_of_row: impl Fn(usize) -> usize,
    ) -> Result<Reinverted, SingularBasis> {
        Self::reinvert_with(
            mat,
            basic_cols,
            unit_col_of_row,
            &mut ReinvertScratch::default(),
        )
    }

    /// [`Self::reinvert`] with caller-owned scratch: the working vectors
    /// and the retired factorization's entry pools are reused across
    /// calls, so a solver refactorizing every few dozen pivots stops
    /// paying allocator churn per reinversion.
    pub fn reinvert_with(
        mat: &SparseMat,
        basic_cols: &[usize],
        unit_col_of_row: impl Fn(usize) -> usize,
        scratch: &mut ReinvertScratch,
    ) -> Result<Reinverted, SingularBasis> {
        let m = mat.rows();
        assert_eq!(basic_cols.len(), m, "one basic column per row");
        let mut basis = scratch.take_pool(m);
        let mut assign: Vec<usize> = vec![usize::MAX; m];
        let mut claimed = std::mem::take(&mut scratch.claimed);
        claimed.clear();
        claimed.resize(m, false);
        let mut dropped: Vec<usize> = Vec::new();

        let mut order = std::mem::take(&mut scratch.order);
        order.clear();
        order.extend_from_slice(basic_cols);
        order.sort_unstable_by_key(|&c| mat.col_nnz(c));

        // The working vector is dense values plus an explicit nonzero
        // pattern (marker array + index list): every pass below walks the
        // pattern instead of all `m` rows. Slack-heavy bases — the common
        // case here — then place most columns in O(1) instead of O(m),
        // while the arithmetic stays operation-for-operation identical to
        // a dense walk (unmarked rows are exactly zero).
        let mut w = std::mem::take(&mut scratch.w);
        w.clear();
        w.resize(m, 0.0);
        let mut marked = std::mem::take(&mut scratch.marked);
        marked.clear();
        marked.resize(m, false);
        let mut pattern = std::mem::take(&mut scratch.pattern);
        pattern.clear();
        let mut stage = std::mem::take(&mut scratch.stage);
        // One full-width staging buffer for the whole reinversion: the
        // branchless compaction below writes slots unconditionally, so the
        // buffer must always hold `m` entries (stale slots past the cursor
        // are never read).
        stage.resize(m, (0, 0.0));
        let place = |basis: &mut Basis,
                     claimed: &mut Vec<bool>,
                     assign: &mut Vec<usize>,
                     w: &mut Vec<f64>,
                     marked: &mut Vec<bool>,
                     pattern: &mut Vec<u32>,
                     stage: &mut Vec<(u32, f64)>,
                     col: usize|
         -> bool {
            for (i, v) in mat.col(col) {
                if !marked[i] {
                    marked[i] = true;
                    pattern.push(i as u32);
                }
                w[i] += v;
            }
            let went_dense = basis.ftran_tracked(w, marked, pattern);
            // Two equivalent walks over the result: a dense row sweep when
            // the fill is wide (no sort, ascending by construction), a
            // sorted-pattern sweep when it is narrow. Both visit the
            // nonzeros in ascending row order, so the strict-max pivot
            // scan and the stored eta are identical either way.
            let dense_walk = went_dense || pattern.len() * 4 > m;
            let mut best = REINVERT_TOL;
            let mut best_r = None;
            let mut stage_len = 0usize;
            if dense_walk {
                // Gather the nonzeros (ascending — exactly the rows a
                // dense eta push would store) by branchless compaction:
                // every row writes its slot, only nonzero rows advance
                // the cursor, so the sweep carries no data-dependent
                // branch where the old fused gather-and-scan mispredicted
                // on roughly every other row of a half-dense column. The
                // strict-max pivot scan then walks the compact list —
                // same candidates, same order, same strict `>`, so the
                // chosen pivot and the stored eta are unchanged (zeros
                // can never beat the REINVERT_TOL floor).
                for (r, &wr) in w.iter().enumerate() {
                    stage[stage_len] = (r as u32, wr);
                    stage_len += (wr != 0.0) as usize;
                }
                for &(r32, wr) in &stage[..stage_len] {
                    let r = r32 as usize;
                    if !claimed[r] && wr.abs() > best {
                        best = wr.abs();
                        best_r = Some(r);
                    }
                }
            } else {
                pattern.sort_unstable();
                for &i in pattern.iter() {
                    let r = i as usize;
                    if !claimed[r] && w[r].abs() > best {
                        best = w[r].abs();
                        best_r = Some(r);
                    }
                }
            }
            let placed = match best_r {
                None => false,
                Some(r) => {
                    // A unit column claiming its own untouched row needs no
                    // eta.
                    if dense_walk {
                        let trivial = (w[r] - 1.0).abs() < 1e-14 && stage_len == 1;
                        if !trivial {
                            basis.push_pivot_staged(r, &stage[..stage_len]);
                        }
                    } else {
                        let trivial = (w[r] - 1.0).abs() < 1e-14
                            && pattern
                                .iter()
                                .all(|&i| i as usize == r || w[i as usize] == 0.0);
                        if !trivial {
                            basis.push_pivot_sparse(r, w, pattern);
                        }
                    }
                    claimed[r] = true;
                    assign[r] = col;
                    true
                }
            };
            // Restore the all-zero/unmarked invariant. Once tracking was
            // abandoned the pattern no longer covers every nonzero of `w`
            // (it still covers every *marked* row), so the values need a
            // dense wipe.
            if went_dense {
                w.iter_mut().for_each(|x| *x = 0.0);
            } else {
                for &i in pattern.iter() {
                    w[i as usize] = 0.0;
                }
            }
            for &i in pattern.iter() {
                marked[i as usize] = false;
            }
            pattern.clear();
            placed
        };

        for &col in &order {
            if !place(
                &mut basis,
                &mut claimed,
                &mut assign,
                &mut w,
                &mut marked,
                &mut pattern,
                &mut stage,
                col,
            ) {
                dropped.push(col);
            }
        }
        // Repair: claim leftover rows with their own unit (slack) columns.
        if !dropped.is_empty() {
            while let Some(r0) = claimed.iter().position(|&c| !c) {
                let mut progressed = false;
                for r in r0..m {
                    if claimed[r] {
                        continue;
                    }
                    progressed |= place(
                        &mut basis,
                        &mut claimed,
                        &mut assign,
                        &mut w,
                        &mut marked,
                        &mut pattern,
                        &mut stage,
                        unit_col_of_row(r),
                    );
                }
                if !progressed {
                    return Err(SingularBasis);
                }
            }
        }
        scratch.w = w;
        scratch.marked = marked;
        scratch.claimed = claimed;
        scratch.pattern = pattern;
        scratch.stage = stage;
        scratch.order = order;
        Ok(Reinverted {
            basis,
            assign,
            dropped,
        })
    }
}

/// Reusable buffers for [`Basis::reinvert_with`]: the reinversion working
/// vectors plus (optionally) a retired [`Basis`] whose flat entry pools
/// seed the next factorization's capacity.
#[derive(Debug, Clone, Default)]
pub struct ReinvertScratch {
    w: Vec<f64>,
    marked: Vec<bool>,
    claimed: Vec<bool>,
    pattern: Vec<u32>,
    stage: Vec<(u32, f64)>,
    order: Vec<usize>,
    pool: Option<Basis>,
}

impl ReinvertScratch {
    /// Hands back a retired factorization so its entry-pool capacity is
    /// reused by the next [`Basis::reinvert_with`] call.
    pub fn recycle(&mut self, b: Basis) {
        if self
            .pool
            .as_ref()
            .is_none_or(|p| p.val.capacity() < b.val.capacity())
        {
            self.pool = Some(b);
        }
    }

    /// An empty basis shell of dimension `m`, reusing pooled capacity.
    fn take_pool(&mut self, m: usize) -> Basis {
        match self.pool.take() {
            Some(mut b) => {
                b.m = m;
                b.pivot_row.clear();
                b.starts.clear();
                b.starts.push(0);
                b.idx.clear();
                b.val.clear();
                b.diag.clear();
                b
            }
            None => Basis::identity(m),
        }
    }
}

/// The result of [`Basis::reinvert`].
#[derive(Debug, Clone)]
pub struct Reinverted {
    /// The fresh factorization.
    pub basis: Basis,
    /// `assign[r]` = the column basic at row position `r`.
    pub assign: Vec<usize>,
    /// Columns from the requested set that were replaced by repair slacks.
    pub dropped: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_mat() -> SparseMat {
        // 3x5: [I | two structural columns]
        SparseMat::from_columns(
            3,
            vec![
                vec![(0, 1.0)],
                vec![(1, 1.0)],
                vec![(2, 1.0)],
                vec![(0, 2.0), (1, 1.0)],
                vec![(1, -1.0), (2, 3.0)],
            ],
        )
    }

    #[test]
    fn identity_solves_trivially() {
        let b = Basis::identity(3);
        let mut v = vec![1.0, 2.0, 3.0];
        b.ftran(&mut v);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        b.btran(&mut v);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn reinvert_and_solve_round_trip() {
        let mat = dense_mat();
        // Basis {slack0, col3, col4}: B = [[1,2,0],[0,1,-1],[0,0,3]] (up to
        // row assignment).
        let r = Basis::reinvert(&mat, &[0, 3, 4], |i| i).unwrap();
        assert!(r.dropped.is_empty());
        // ftran must invert B: check B · (B⁻¹ e_k) = e_k for each k.
        for k in 0..3 {
            let mut v = vec![0.0; 3];
            v[k] = 1.0;
            r.basis.ftran(&mut v);
            // x is in position space: column assign[p] has weight x[p].
            let mut recomposed = vec![0.0; 3];
            for (p, &x) in v.iter().enumerate() {
                mat.col_axpy(r.assign[p], x, &mut recomposed);
            }
            for (i, &val) in recomposed.iter().enumerate() {
                let want = if i == k { 1.0 } else { 0.0 };
                assert!((val - want).abs() < 1e-12, "k={k} i={i} got {val}");
            }
        }
    }

    #[test]
    fn btran_is_transpose_of_ftran() {
        let mat = dense_mat();
        let mut r = Basis::reinvert(&mat, &[2, 3, 4], |i| i).unwrap();
        // Add a pivot on top to exercise the eta path in both solves.
        let mut w = vec![0.0; 3];
        mat.col_axpy(0, 1.0, &mut w);
        r.basis.ftran(&mut w);
        if w[0].abs() > 1e-9 {
            r.basis.push_pivot(0, &w);
        }
        // <B⁻¹u, v> == <u, B⁻ᵀv> for random-ish u, v.
        let u = [1.0, -2.0, 0.5];
        let v = [3.0, 0.25, -1.0];
        let mut fu = u.to_vec();
        r.basis.ftran(&mut fu);
        let mut bv = v.to_vec();
        r.basis.btran(&mut bv);
        let lhs: f64 = fu.iter().zip(&v).map(|(a, b)| a * b).sum();
        let rhs: f64 = u.iter().zip(&bv).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-10, "{lhs} vs {rhs}");
    }

    #[test]
    fn slack_heavy_basis_needs_no_etas() {
        let mat = dense_mat();
        let r = Basis::reinvert(&mat, &[0, 1, 2], |i| i).unwrap();
        assert_eq!(r.basis.eta_count(), 0, "identity basis is eta-free");
        assert_eq!(r.assign, vec![0, 1, 2]);
    }

    #[test]
    fn dependent_set_is_repaired_with_unit_columns() {
        // col3 twice: dependent; repair must fall back to a slack.
        let mat = dense_mat();
        let r = Basis::reinvert(&mat, &[3, 3, 4], |i| i).unwrap();
        assert_eq!(r.dropped, vec![3]);
        assert!(r.assign.iter().all(|&c| c != usize::MAX));
    }
}
