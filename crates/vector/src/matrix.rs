//! Contiguous row-major storage for sets of equal-dimension vectors.

/// A set of `len` vectors of dimension `dim`, stored contiguously in
/// row-major order.
///
/// This is the storage type used for query batches, database vectors,
/// centroid lists and codebooks throughout the workspace. Rows are `f32`;
/// the accelerator model converts to 2-byte formats ([`crate::F16`]) at its
/// own boundaries, mirroring the paper's float16 storage assumption.
///
/// # Example
///
/// ```
/// use anna_vector::VectorSet;
///
/// let mut set = VectorSet::zeros(3, 2);
/// set.row_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
/// assert_eq!(set.row(1), &[4.0, 5.0, 6.0]);
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.dim(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VectorSet {
    dim: usize,
    data: Vec<f32>,
}

impl VectorSet {
    /// Creates a set of `len` zero vectors of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn zeros(dim: usize, len: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        Self {
            dim,
            data: vec![0.0; dim * len],
        }
    }

    /// Creates a set from a flat row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn from_rows(dim: usize, data: &[f32]) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "data length {} is not a multiple of dim {dim}",
            data.len()
        );
        Self {
            dim,
            data: data.to_vec(),
        }
    }

    /// Creates a set by evaluating `f(row, col)` for every element.
    pub fn from_fn(dim: usize, len: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut set = Self::zeros(dim, len);
        for r in 0..len {
            for c in 0..dim {
                set.data[r * dim + c] = f(r, c);
            }
        }
        set
    }

    /// Takes ownership of a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn from_vec(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "data length {} is not a multiple of dim {dim}",
            data.len()
        );
        Self { dim, data }
    }

    /// The dimension of every vector in the set.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The number of vectors in the set.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Returns `true` if the set holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutably borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Borrows the whole backing buffer (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the whole backing buffer (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the set and returns its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterates over rows.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// Appends a vector to the set.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn push(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "pushed vector has wrong dimension");
        self.data.extend_from_slice(v);
    }

    /// Returns a new set containing only the rows whose indices are in `ids`
    /// (in the order given).
    ///
    /// # Panics
    ///
    /// Panics if any id is out of bounds.
    pub fn gather(&self, ids: &[usize]) -> VectorSet {
        let mut out = Vec::with_capacity(ids.len() * self.dim);
        for &id in ids {
            out.extend_from_slice(self.row(id));
        }
        VectorSet {
            dim: self.dim,
            data: out,
        }
    }

    /// Splits each row into `m` contiguous sub-vectors and returns the `j`-th
    /// sub-vector of row `i` (the product-quantization "sub-space view").
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `m`, or the indices are out of
    /// range.
    pub fn subvector(&self, i: usize, m: usize, j: usize) -> &[f32] {
        assert!(
            self.dim.is_multiple_of(m),
            "dim {} not divisible by m {m}",
            self.dim
        );
        assert!(j < m, "sub-vector index {j} out of range for m {m}");
        let sub = self.dim / m;
        let row = self.row(i);
        &row[j * sub..(j + 1) * sub]
    }
}

impl AsRef<[f32]> for VectorSet {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape() {
        let s = VectorSet::zeros(8, 5);
        assert_eq!(s.dim(), 8);
        assert_eq!(s.len(), 5);
        assert!(s.row(4).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_rows_roundtrip() {
        let s = VectorSet::from_rows(2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[1.0, 2.0]);
        assert_eq!(s.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_rows_rejects_ragged_data() {
        let _ = VectorSet::from_rows(3, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_rejected() {
        let _ = VectorSet::zeros(0, 1);
    }

    #[test]
    fn from_fn_fills_by_coordinates() {
        let s = VectorSet::from_fn(3, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(s.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn gather_selects_rows_in_order() {
        let s = VectorSet::from_fn(2, 4, |r, _| r as f32);
        let g = s.gather(&[3, 1]);
        assert_eq!(g.row(0), &[3.0, 3.0]);
        assert_eq!(g.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn subvector_views_are_contiguous_chunks() {
        let s = VectorSet::from_rows(6, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.subvector(0, 3, 0), &[0.0, 1.0]);
        assert_eq!(s.subvector(0, 3, 2), &[4.0, 5.0]);
    }

    #[test]
    fn push_appends_row() {
        let mut s = VectorSet::zeros(2, 0);
        assert!(s.is_empty());
        s.push(&[7.0, 8.0]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.row(0), &[7.0, 8.0]);
    }

    #[test]
    fn iter_yields_all_rows() {
        let s = VectorSet::from_fn(2, 3, |r, _| r as f32);
        let rows: Vec<_> = s.iter().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[2.0, 2.0]);
    }
}
