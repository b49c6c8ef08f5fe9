//! Compressed sparse-column (CSC) matrix storage for the revised simplex.
//!
//! The solver's constraint matrix is overwhelmingly sparse — 0/±1
//! coefficients from assignment/ordering rows plus a handful of delay
//! weights — so every hot operation (pricing a column against the dual
//! vector, forming `B⁻¹·a_j`) walks a column's nonzeros instead of a dense
//! row. Columns are immutable after [`SparseMat::from_columns`]; the
//! simplex never modifies `A`, only its factorized view of the basis.

/// A read-only sparse matrix in compressed column form.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMat {
    rows: usize,
    col_ptr: Vec<u32>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl SparseMat {
    /// Builds from per-column `(row, value)` lists. Zero entries are
    /// dropped; duplicate rows within a column are summed.
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of range.
    pub fn from_columns(rows: usize, columns: Vec<Vec<(usize, f64)>>) -> Self {
        let mut col_ptr = Vec::with_capacity(columns.len() + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0u32);
        let mut merged: Vec<(usize, f64)> = Vec::new();
        for col in columns {
            merged.clear();
            merged.extend(col);
            merged.sort_unstable_by_key(|&(r, _)| r);
            let mut write: Option<(usize, f64)> = None;
            for (r, v) in merged.drain(..) {
                assert!(r < rows, "row {r} out of range (matrix has {rows} rows)");
                match write {
                    Some((wr, wv)) if wr == r => write = Some((wr, wv + v)),
                    Some((wr, wv)) => {
                        if wv != 0.0 {
                            row_idx.push(wr as u32);
                            values.push(wv);
                        }
                        write = Some((r, v));
                    }
                    None => write = Some((r, v)),
                }
            }
            if let Some((wr, wv)) = write {
                if wv != 0.0 {
                    row_idx.push(wr as u32);
                    values.push(wv);
                }
            }
            col_ptr.push(row_idx.len() as u32);
        }
        SparseMat {
            rows,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Nonzeros of column `j` as `(row, value)` pairs, ascending by row.
    #[inline]
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j] as usize;
        let hi = self.col_ptr[j + 1] as usize;
        self.row_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&r, &v)| (r as usize, v))
    }

    /// Nonzero count of column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        (self.col_ptr[j + 1] - self.col_ptr[j]) as usize
    }

    /// Dot product of column `j` with a dense vector.
    #[inline]
    pub fn col_dot(&self, j: usize, v: &[f64]) -> f64 {
        let lo = self.col_ptr[j] as usize;
        let hi = self.col_ptr[j + 1] as usize;
        let mut acc = 0.0;
        for (idx, val) in self.row_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
            acc += val * v[*idx as usize];
        }
        acc
    }

    /// Adds `scale · column j` into a dense vector.
    #[inline]
    pub fn col_axpy(&self, j: usize, scale: f64, out: &mut [f64]) {
        let lo = self.col_ptr[j] as usize;
        let hi = self.col_ptr[j + 1] as usize;
        for (idx, val) in self.row_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
            out[*idx as usize] += scale * val;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_iterates_columns() {
        let m = SparseMat::from_columns(
            3,
            vec![
                vec![(0, 1.0), (2, -2.0)],
                vec![],
                vec![(1, 3.0), (1, 1.0), (0, 0.0)],
            ],
        );
        assert_eq!(m.rows(), 3);
        assert_eq!(m.nnz(), 3, "zeros dropped, duplicates merged");
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, -2.0)]);
        assert_eq!(m.col(1).count(), 0);
        assert_eq!(m.col(2).collect::<Vec<_>>(), vec![(1, 4.0)]);
    }

    #[test]
    fn dot_and_axpy_agree_with_dense() {
        let m = SparseMat::from_columns(2, vec![vec![(0, 2.0), (1, -1.0)], vec![(1, 5.0)]]);
        let v = [3.0, 7.0];
        assert_eq!(m.col_dot(0, &v), 2.0 * 3.0 - 7.0);
        assert_eq!(m.col_dot(1, &v), 35.0);
        let mut out = [1.0, 1.0];
        m.col_axpy(0, 2.0, &mut out);
        assert_eq!(out, [5.0, -1.0]);
    }

    #[test]
    fn duplicate_rows_cancel_to_zero_are_dropped() {
        let m = SparseMat::from_columns(2, vec![vec![(1, 2.5), (1, -2.5)]]);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_rows() {
        let _ = SparseMat::from_columns(2, vec![vec![(2, 1.0)]]);
    }
}
