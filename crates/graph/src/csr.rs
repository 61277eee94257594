//! Compressed sparse row (CSR) matrix.
//!
//! The rating matrix of a recommendation dataset is extremely sparse
//! (MovieLens-1M is 4.26 % dense, the paper's Douban crawl 0.039 %), so every
//! structure in this workspace that touches ratings is built on this CSR
//! type: `row_ptr` delimits each row's slice inside the parallel `col_idx` /
//! `values` arrays, giving O(1) row access and cache-friendly row iteration.

/// A sparse `rows x cols` matrix of `f64` values in compressed sparse row
/// format.
///
/// Invariants (upheld by all constructors, checked by `debug_assert`s and the
/// property tests):
///
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[rows] == col_idx.len() == values.len()`;
/// * `row_ptr` is non-decreasing;
/// * within each row, column indices are strictly increasing (no duplicate
///   entries) and `< cols`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// An empty matrix with the given shape and no stored entries.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from `(row, col, value)` triplets.
    ///
    /// Triplets may arrive in any order; duplicates are summed, which makes
    /// this constructor convenient for accumulating multi-edges. Entries with
    /// value exactly `0.0` after summing are kept (callers that want pruning
    /// can use [`CsrMatrix::prune_zeros`]).
    ///
    /// # Panics
    ///
    /// Panics if any triplet lies outside `rows x cols`.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f64)]) -> Self {
        Self::from_triplets_with(rows, cols, triplets, |a, b| a + b)
    }

    /// Build from `(row, col, value)` triplets with a caller-chosen duplicate
    /// merge. [`CsrMatrix::from_triplets`] is this with `+`; timestamp
    /// matrices use `f64::max` so a re-rated pair keeps its latest stamp.
    ///
    /// # Panics
    ///
    /// Panics if any triplet lies outside `rows x cols`.
    pub fn from_triplets_with(
        rows: usize,
        cols: usize,
        triplets: &[(u32, u32, f64)],
        merge: impl Fn(f64, f64) -> f64,
    ) -> Self {
        for &(r, c, _) in triplets {
            assert!(
                (r as usize) < rows && (c as usize) < cols,
                "triplet ({r}, {c}) outside {rows}x{cols} matrix"
            );
        }
        // Counting sort by row, then sort each row slice by column and merge
        // duplicates. Two passes over the triplets keeps this O(nnz log nnz)
        // with the log only on per-row slices.
        let mut counts = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            counts[r as usize + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut entries: Vec<(u32, f64)> = vec![(0, 0.0); triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            let slot = cursor[r as usize];
            entries[slot] = (c, v);
            cursor[r as usize] += 1;
        }

        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        for r in 0..rows {
            let slice = &mut entries[counts[r]..counts[r + 1]];
            slice.sort_unstable_by_key(|&(c, _)| c);
            let mut iter = slice.iter().copied().peekable();
            while let Some((c, mut v)) = iter.next() {
                while let Some(&(c2, v2)) = iter.peek() {
                    if c2 == c {
                        v = merge(v, v2);
                        iter.next();
                    } else {
                        break;
                    }
                }
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Build directly from raw CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays violate the CSR invariants documented on the
    /// type.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length mismatch");
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        assert_eq!(
            *row_ptr.last().unwrap(),
            col_idx.len(),
            "row_ptr end mismatch"
        );
        assert_eq!(col_idx.len(), values.len(), "col/value length mismatch");
        for r in 0..rows {
            assert!(
                row_ptr[r] <= row_ptr[r + 1],
                "row_ptr must be non-decreasing"
            );
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in row.windows(2) {
                assert!(
                    w[0] < w[1],
                    "columns must be strictly increasing in row {r}"
                );
            }
            if let Some(&last) = row.last() {
                assert!(
                    (last as usize) < cols,
                    "column index out of bounds in row {r}"
                );
            }
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Column indices and values of row `r` as parallel slices.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Iterate over the `(col, value)` entries of row `r`.
    #[inline]
    pub fn iter_row(&self, r: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (cols, vals) = self.row(r);
        cols.iter().copied().zip(vals.iter().copied())
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Value at `(r, c)` if stored (binary search within the row).
    pub fn get(&self, r: usize, c: u32) -> Option<f64> {
        let (cols, vals) = self.row(r);
        cols.binary_search(&c).ok().map(|i| vals[i])
    }

    /// Sum of the stored values in row `r` (the *weighted degree* when the
    /// matrix is an adjacency block).
    pub fn row_sum(&self, r: usize) -> f64 {
        let (_, vals) = self.row(r);
        vals.iter().sum()
    }

    /// Sum of every stored value.
    pub fn total_sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Whether `other` stores exactly the same `(row, col)` pairs — same
    /// shape, same `row_ptr`, same `col_idx` — regardless of values. Two
    /// same-structure matrices index entry-for-entry into each other, which
    /// is the alignment contract between a rating matrix and its optional
    /// timestamp matrix.
    pub fn same_structure(&self, other: &CsrMatrix) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
    }

    /// The transpose as a new CSR matrix. O(nnz + rows + cols).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.rows {
            for (c, v) in self.iter_row(r) {
                let slot = cursor[c as usize];
                col_idx[slot] = r as u32;
                values[slot] = v;
                cursor[c as usize] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Drop entries whose value is exactly zero.
    pub fn prune_zeros(&self) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        row_ptr.push(0);
        for r in 0..self.rows {
            for (c, v) in self.iter_row(r) {
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Dense matrix-vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec input length");
        assert_eq!(y.len(), self.rows, "matvec output length");
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, v) in self.iter_row(r) {
                acc += v * x[c as usize];
            }
            *out = acc;
        }
    }

    /// Dense transposed matrix-vector product `y = Aᵀ x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `y.len() != cols`.
    pub fn matvec_t(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "matvec_t input length");
        assert_eq!(y.len(), self.cols, "matvec_t output length");
        y.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for (c, v) in self.iter_row(r) {
                y[c as usize] += v * xr;
            }
        }
    }

    /// Materialize as a dense row-major buffer (tests / tiny matrices only).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.rows * self.cols];
        for r in 0..self.rows {
            for (c, v) in self.iter_row(r) {
                out[r * self.cols + c as usize] = v;
            }
        }
        out
    }

    /// Serialize this matrix into a snapshot under `prefix`: sections
    /// `{prefix}.dims` (`[rows, cols]` as `u64`), `{prefix}.row_ptr`
    /// (`u64`), `{prefix}.col_idx` (`u32`) and `{prefix}.values` (`f64`).
    pub fn save_into(&self, w: &mut crate::snapshot::SnapshotWriter, prefix: &str) {
        w.put_u64s(
            &format!("{prefix}.dims"),
            &[self.rows as u64, self.cols as u64],
        );
        let row_ptr: Vec<u64> = self.row_ptr.iter().map(|&p| p as u64).collect();
        w.put_u64s(&format!("{prefix}.row_ptr"), &row_ptr);
        w.put_u32s(&format!("{prefix}.col_idx"), &self.col_idx);
        w.put_f64s(&format!("{prefix}.values"), &self.values);
    }

    /// Deserialize a matrix written by [`CsrMatrix::save_into`] under the
    /// same `prefix`, validating every CSR invariant fallibly: a snapshot
    /// whose arrays are well-formed bytes but violate the structure (a
    /// dimension beyond the `u32` id space, bad `row_ptr` monotonicity,
    /// out-of-range or unsorted columns, length mismatches) fails with
    /// [`SnapshotError::InvalidSection`](crate::snapshot::SnapshotError::InvalidSection)
    /// rather than panicking.
    pub fn load_from(
        snap: &crate::snapshot::Snapshot,
        prefix: &str,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let invalid =
            |section: String, reason: String| SnapshotError::InvalidSection { section, reason };
        let dims_name = format!("{prefix}.dims");
        let dims = snap.usizes(&dims_name)?;
        let [rows, cols] = dims[..] else {
            return Err(invalid(
                dims_name,
                format!("expected [rows, cols], found {} element(s)", dims.len()),
            ));
        };
        // Rows and columns are `u32` ids; a larger dimension would overflow
        // `rows + 1` below or size a catalog-wide allocation downstream.
        if let Some(&dim) = dims.iter().find(|&&d| u32::try_from(d).is_err()) {
            return Err(invalid(
                dims_name,
                format!("dimension {dim} exceeds the u32 id space"),
            ));
        }
        let ptr_name = format!("{prefix}.row_ptr");
        let row_ptr = snap.usizes(&ptr_name)?;
        let col_idx = snap.u32s(&format!("{prefix}.col_idx"))?;
        let values = snap.f64s(&format!("{prefix}.values"))?;

        if row_ptr.len() != rows + 1 {
            return Err(invalid(
                ptr_name,
                format!("length {} != rows + 1 = {}", row_ptr.len(), rows + 1),
            ));
        }
        if row_ptr[0] != 0 {
            return Err(invalid(ptr_name, "row_ptr must start at 0".to_string()));
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(invalid(
                ptr_name,
                "row_ptr must be non-decreasing".to_string(),
            ));
        }
        let nnz = *row_ptr.last().unwrap();
        if col_idx.len() != nnz || values.len() != nnz {
            return Err(invalid(
                format!("{prefix}.col_idx"),
                format!(
                    "row_ptr promises {nnz} entries, found {} columns / {} values",
                    col_idx.len(),
                    values.len()
                ),
            ));
        }
        for r in 0..rows {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err(invalid(
                    format!("{prefix}.col_idx"),
                    format!("columns must be strictly increasing in row {r}"),
                ));
            }
            if let Some(&last) = row.last() {
                if last as usize >= cols {
                    return Err(invalid(
                        format!("{prefix}.col_idx"),
                        format!("column {last} out of bounds in row {r} ({cols} columns)"),
                    ));
                }
            }
        }
        // Every invariant from_raw asserts was just checked fallibly, so
        // this construction cannot panic.
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 1, 2.0),
                (0, 3, 1.0),
                (1, 0, 5.0),
                (2, 2, 3.0),
                (2, 0, 4.0),
            ],
        )
    }

    #[test]
    fn from_triplets_sorts_rows_and_columns() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row(0), (&[1u32, 3][..], &[2.0, 1.0][..]));
        assert_eq!(m.row(2), (&[0u32, 2][..], &[4.0, 3.0][..]));
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]);
        assert_eq!(m.get(0, 0), Some(3.5));
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn from_triplets_with_max_merge_keeps_latest() {
        let m = CsrMatrix::from_triplets_with(
            2,
            2,
            &[(0, 0, 3.0), (0, 0, 7.0), (0, 0, 5.0), (1, 1, 1.0)],
            f64::max,
        );
        assert_eq!(m.get(0, 0), Some(7.0));
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn same_structure_ignores_values() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 1, 2.0), (1, 0, 5.0)]);
        let b = CsrMatrix::from_triplets(2, 3, &[(0, 1, 9.0), (1, 0, -1.0)]);
        let c = CsrMatrix::from_triplets(2, 3, &[(0, 1, 2.0), (1, 2, 5.0)]);
        assert!(a.same_structure(&b));
        assert!(!a.same_structure(&c));
        assert!(!a.same_structure(&CsrMatrix::zeros(2, 3)));
    }

    #[test]
    fn get_returns_none_for_missing() {
        let m = sample();
        assert_eq!(m.get(0, 0), None);
        assert_eq!(m.get(1, 0), Some(5.0));
    }

    #[test]
    fn row_sums_and_total() {
        let m = sample();
        assert_eq!(m.row_sum(0), 3.0);
        assert_eq!(m.row_sum(1), 5.0);
        assert_eq!(m.total_sum(), 15.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.get(1, 0), Some(2.0));
        assert_eq!(t.get(0, 1), Some(5.0));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 3];
        m.matvec(&x, &mut y);
        assert_eq!(y, [2.0 * 2.0 + 4.0, 5.0, 4.0 + 9.0]);
    }

    #[test]
    fn matvec_t_matches_transpose_matvec() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let mut y1 = [0.0; 4];
        m.matvec_t(&x, &mut y1);
        let mut y2 = [0.0; 4];
        m.transpose().matvec(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn empty_matrix_behaves() {
        let m = CsrMatrix::zeros(2, 3);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.row(1), (&[][..], &[][..]));
        let mut y = [1.0, 1.0];
        m.matvec(&[0.0; 3], &mut y);
        assert_eq!(y, [0.0, 0.0]);
    }

    #[test]
    fn prune_zeros_removes_entries() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, -1.0), (0, 1, 1.0)]);
        assert_eq!(m.nnz(), 2);
        let p = m.prune_zeros();
        assert_eq!(p.nnz(), 1);
        assert_eq!(p.get(0, 1), None);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_bounds_triplet_panics() {
        CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn to_dense_layout() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 7.0), (1, 0, 8.0)]);
        assert_eq!(m.to_dense(), vec![0.0, 7.0, 8.0, 0.0]);
    }

    #[test]
    fn snapshot_round_trip_is_exact() {
        use crate::snapshot::{Snapshot, SnapshotWriter};
        let m = sample();
        let mut w = SnapshotWriter::new("CSR", 1);
        m.save_into(&mut w, "m");
        let snap = Snapshot::from_bytes(w.to_bytes()).unwrap();
        let back = CsrMatrix::load_from(&snap, "m").unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn snapshot_load_rejects_invariant_violations_fallibly() {
        use crate::snapshot::{Snapshot, SnapshotError, SnapshotWriter};
        let m = sample();
        // Well-formed container, structurally invalid CSR: row_ptr that
        // does not end at nnz.
        let mut w = SnapshotWriter::new("CSR", 1);
        w.put_u64s("m.dims", &[m.rows() as u64, m.cols() as u64]);
        w.put_u64s("m.row_ptr", &[0, 2, 3, 99]);
        w.put_u32s("m.col_idx", &m.col_idx);
        w.put_f64s("m.values", &m.values);
        let snap = Snapshot::from_bytes(w.to_bytes()).unwrap();
        assert!(matches!(
            CsrMatrix::load_from(&snap, "m"),
            Err(SnapshotError::InvalidSection { .. })
        ));
        // Missing section is its own typed error.
        let mut w = SnapshotWriter::new("CSR", 1);
        w.put_u64s("m.dims", &[3, 4]);
        let snap = Snapshot::from_bytes(w.to_bytes()).unwrap();
        assert!(matches!(
            CsrMatrix::load_from(&snap, "m"),
            Err(SnapshotError::MissingSection(_))
        ));
        // Out-of-range column.
        let mut w = SnapshotWriter::new("CSR", 1);
        w.put_u64s("m.dims", &[1, 2]);
        w.put_u64s("m.row_ptr", &[0, 1]);
        w.put_u32s("m.col_idx", &[5]);
        w.put_f64s("m.values", &[1.0]);
        let snap = Snapshot::from_bytes(w.to_bytes()).unwrap();
        assert!(matches!(
            CsrMatrix::load_from(&snap, "m"),
            Err(SnapshotError::InvalidSection { .. })
        ));
        // Dimensions beyond the u32 id space: `rows + 1` would overflow
        // (an empty row_ptr then matches its wrapped length), and an
        // otherwise valid 2^40-column catalog would size every per-item
        // allocation downstream.
        let cases: [([u64; 2], &[u64]); 2] = [([u64::MAX, 3], &[]), ([2, 1 << 40], &[0, 0, 0])];
        for (dims, row_ptr) in cases {
            let mut w = SnapshotWriter::new("CSR", 1);
            w.put_u64s("m.dims", &dims);
            w.put_u64s("m.row_ptr", row_ptr);
            w.put_u32s("m.col_idx", &[]);
            w.put_f64s("m.values", &[]);
            let snap = Snapshot::from_bytes(w.to_bytes()).unwrap();
            assert!(
                matches!(
                    CsrMatrix::load_from(&snap, "m"),
                    Err(SnapshotError::InvalidSection { .. })
                ),
                "dims {dims:?} must fail typed"
            );
        }
    }
}
