//! The distance-table kernel: one query sub-vector against **every**
//! codeword of a codeword set at once.
//!
//! LUT construction (`L_i[c] = ‖r_i − B_i[c]‖²` or `q_i · B_i[c]` for all
//! `c`), PQ encoding and k-means assignment (the same table followed by an
//! argmin) are all this one operation. Done codeword by codeword over a
//! row-major set it is a chain of short dependent reductions the compiler
//! cannot vectorise across. [`DimMajor`] stores the set transposed —
//! `[dim d][codeword c]`, tiled in blocks of [`LANES`] codewords — so the
//! kernel can run *vertically*: a block advances together, one codeword
//! per lane.
//!
//! # Vertical means bit-identical
//!
//! Each lane performs exactly [`metric::l2_squared`]'s /
//! [`metric::dot`]'s addition sequence on its own codeword: four strided
//! accumulators over chunks of 4 dimensions, combined as
//! `((a0 + a1) + a2) + a3`, then the tail dimensions in order, with no
//! fused multiply-add. No sum is reassociated across lanes, so every
//! entry equals the scalar function's result bit for bit (NaN payloads
//! aside, which Rust leaves unspecified) and `metric::*` remain the test
//! oracle.
//!
//! [`metric::l2_squared`]: anna_vector::metric::l2_squared
//! [`metric::dot`]: anna_vector::metric::dot

use anna_vector::VectorSet;

/// Codewords that advance together through the kernel, one per lane. Eight
/// f32 lanes × four accumulators take 8 of the baseline x86-64 target's 16
/// SSE registers, leaving the rest for operands, so nothing spills; the
/// arrays widen cleanly where the target has wider vectors.
pub const LANES: usize = 8;

/// A codeword set transposed to dimension-major order in blocks of
/// [`LANES`] codewords: `data[b * dim + d][l]` is component `d` of codeword
/// `b * LANES + l`. Within a block the layout is `[dim d][codeword c]`, so
/// one kernel step loads the same component of [`LANES`] neighbouring
/// codewords as one contiguous lane array. The last block is padded with
/// zero codewords, which never reach an output.
#[derive(Debug, Clone, PartialEq)]
pub struct DimMajor {
    k: usize,
    dim: usize,
    data: Vec<[f32; LANES]>,
}

impl DimMajor {
    /// Transposes `rows` (one codeword per row).
    pub fn new(rows: &VectorSet) -> Self {
        let mut out = Self {
            k: 0,
            dim: rows.dim(),
            data: Vec::new(),
        };
        out.fill(rows);
        out
    }

    /// Re-transposes `rows` into this buffer, reusing its allocation
    /// (k-means does this once per Lloyd iteration).
    pub fn fill(&mut self, rows: &VectorSet) {
        self.k = rows.len();
        self.dim = rows.dim();
        self.data.clear();
        self.data
            .resize(self.k.div_ceil(LANES) * self.dim, [0.0; LANES]);
        for (c, row) in rows.iter().enumerate() {
            let block = &mut self.data[c / LANES * self.dim..][..self.dim];
            for (lanes, &x) in block.iter_mut().zip(row) {
                lanes[c % LANES] = x;
            }
        }
    }

    /// Number of codewords `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Codeword dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `out[c] = ‖v − codeword c‖²` for every codeword, each entry
    /// bit-identical to [`anna_vector::metric::l2_squared`].
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()` or `out.len() != self.k()`.
    pub fn l2_table(&self, v: &[f32], out: &mut [f32]) {
        self.table(v, out, l2_term);
    }

    /// `out[c] = v · codeword c` for every codeword, each entry
    /// bit-identical to [`anna_vector::metric::dot`].
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()` or `out.len() != self.k()`.
    pub fn dot_table(&self, v: &[f32], out: &mut [f32]) {
        self.table(v, out, |a, b| a * b);
    }

    /// The codeword nearest to `v` in L2 and its squared distance: the
    /// argmin of [`DimMajor::l2_table`] without materialising the table.
    /// The first minimum wins, so duplicate codewords resolve to the
    /// lowest id, and a distance that is NaN never wins — the semantics of
    /// a `d < best` scan in ascending codeword order. An empty set yields
    /// `(0, ∞)`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn nearest(&self, v: &[f32]) -> (usize, f32) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let mut best = (0usize, f32::INFINITY);
        for (b, block) in self.blocks().enumerate() {
            let sums = block_sums(block, v, l2_term);
            let c0 = b * LANES;
            for (l, &d) in sums.iter().enumerate().take(self.k - c0) {
                if d < best.1 {
                    best = (c0 + l, d);
                }
            }
        }
        best
    }

    /// The `dim × LANES` blocks in ascending codeword order. (Indexed
    /// rather than `chunks_exact`, whose length division costs as much as a
    /// whole block at `k* = 16`.)
    #[inline(always)]
    fn blocks(&self) -> impl Iterator<Item = &[[f32; LANES]]> {
        (0..self.k.div_ceil(LANES)).map(|b| &self.data[b * self.dim..][..self.dim])
    }

    #[inline(always)]
    fn table(&self, v: &[f32], out: &mut [f32], term: impl Fn(f32, f32) -> f32) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        assert_eq!(out.len(), self.k, "table length mismatch");
        let mut blocks = self.blocks();
        let (full, ragged) = out.as_chunks_mut::<LANES>();
        for (out, block) in full.iter_mut().zip(&mut blocks) {
            *out = block_sums(block, v, &term);
        }
        // `k` not a multiple of LANES: the last block is zero-padded.
        if let Some(block) = blocks.next() {
            ragged.copy_from_slice(&block_sums(block, v, &term)[..ragged.len()]);
        }
    }
}

/// The kernel: reduces `term(v[d], codeword[d])` over `d` for the
/// [`LANES`] codewords of one block (`block[d][l]`, `block.len() ==
/// v.len()`), one codeword per lane, in `metric::{l2_squared, dot}`'s
/// exact order.
#[inline(always)]
fn block_sums(block: &[[f32; LANES]], v: &[f32], term: impl Fn(f32, f32) -> f32) -> [f32; LANES] {
    let (quads, v_quads) = (block.chunks_exact(4), v.chunks_exact(4));
    let (tail, v_tail) = (quads.remainder(), v_quads.remainder());
    let mut acc = [[0.0f32; LANES]; 4];
    for (cols, xs) in quads.zip(v_quads) {
        for ((a, col), &x) in acc.iter_mut().zip(cols).zip(xs) {
            for l in 0..LANES {
                a[l] += term(x, col[l]);
            }
        }
    }
    let mut sum = [0.0f32; LANES];
    for l in 0..LANES {
        sum[l] = acc[0][l] + acc[1][l] + acc[2][l] + acc[3][l];
    }
    for (col, &x) in tail.iter().zip(v_tail) {
        for l in 0..LANES {
            sum[l] += term(x, col[l]);
        }
    }
    sum
}

#[inline(always)]
fn l2_term(a: f32, b: f32) -> f32 {
    let d = a - b;
    d * d
}

#[cfg(test)]
mod tests {
    use super::*;
    use anna_vector::metric;

    #[test]
    fn tables_match_the_scalar_oracle_on_a_ragged_set() {
        // k = 11 (one full block + a 3-lane tail), dim = 6 (one chunk + a
        // 2-dimension tail).
        let rows = VectorSet::from_fn(6, 11, |r, c| ((r * 7 + c * 3) % 13) as f32 * 0.37 - 2.0);
        let dm = DimMajor::new(&rows);
        let v = [0.5, -1.25, 3.0, 0.1, -0.7, 2.2];
        let mut l2 = vec![0.0; 11];
        let mut ip = vec![0.0; 11];
        dm.l2_table(&v, &mut l2);
        dm.dot_table(&v, &mut ip);
        for c in 0..11 {
            assert_eq!(
                l2[c].to_bits(),
                metric::l2_squared(&v, rows.row(c)).to_bits()
            );
            assert_eq!(ip[c].to_bits(), metric::dot(&v, rows.row(c)).to_bits());
        }
    }

    #[test]
    fn nearest_keeps_the_first_of_equal_minima() {
        // Codewords 2 and 9 coincide (9 sits in the second block).
        let mut rows = VectorSet::from_fn(2, 12, |r, c| (r * 5 + c) as f32);
        let dup = rows.row(2).to_vec();
        rows.row_mut(9).copy_from_slice(&dup);
        let dm = DimMajor::new(&rows);
        assert_eq!(dm.nearest(&dup), (2, 0.0));
    }

    #[test]
    fn fill_reuses_the_buffer_and_drops_stale_state() {
        let big = VectorSet::from_fn(3, 20, |r, c| (r + c) as f32);
        let small = VectorSet::from_fn(2, 3, |r, c| (r * 2 + c) as f32);
        let mut dm = DimMajor::new(&big);
        dm.fill(&small);
        assert_eq!(dm, DimMajor::new(&small));
    }

    #[test]
    fn empty_set_has_no_nearest() {
        let dm = DimMajor::new(&VectorSet::zeros(4, 0));
        dm.l2_table(&[0.0; 4], &mut []);
        assert_eq!(dm.nearest(&[0.0; 4]), (0, f32::INFINITY));
    }
}
