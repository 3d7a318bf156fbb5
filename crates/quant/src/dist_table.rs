//! The distance-table kernel: one query sub-vector against **every**
//! codeword of a codeword set at once.
//!
//! LUT construction (`L_i[c] = −‖r_i − B_i[c]‖²` or `q_i · B_i[c]` for all
//! `c`), coarse cluster filtering (the same table over the centroids), PQ
//! encoding and k-means assignment (an L2 table followed by an argmin) are
//! all this one operation. Done codeword by codeword over a row-major set
//! it is a chain of short dependent reductions the compiler cannot
//! vectorise across. [`DimMajor`] stores the set transposed —
//! `[dim d][codeword c]`, tiled in blocks of [`LANES`] codewords — so the
//! kernel can run *vertically*: a block advances together, one codeword
//! per lane.
//!
//! # Two arms
//!
//! Which code runs a pass follows the [`KernelDispatch`] it runs under —
//! the process's one hardware decision, [`KernelDispatch::current`] unless
//! a `_with` twin names another ([`table_arm_name`]):
//!
//! * **portable** — lane arrays of eight codewords (half a block) that the
//!   compiler vectorises for the baseline target: on x86-64 two SSE
//!   registers per array, so four accumulators take 8 of the 16 and
//!   nothing spills. The reference, and what every dispatch but `avx512`
//!   runs (so `ANNA_FORCE_SCALAR`, which pins `scalar`, runs it too).
//! * **avx512** — under the `avx512` dispatch, x86-64 AVX-512F
//!   intrinsics: a whole sixteen-codeword block per step, one ZMM register
//!   per term. L2 similarities leave it negated by a sign-bit flip on the
//!   way to the store, and its `nearest` keeps a running first minimum per
//!   lane in registers. Its loads and stores are value-only (the compiler
//!   turns them into one full-width move each), so the one `unsafe` is the
//!   call into it behind its detected token.
//!
//! # Vertical means bit-identical
//!
//! Each lane of either arm performs exactly [`metric::l2_squared`]'s /
//! [`metric::dot`]'s addition sequence on its own codeword: four strided
//! accumulators over chunks of 4 dimensions, combined as
//! `((a0 + a1) + a2) + a3`, then the tail dimensions in order, with
//! multiply and add as separate operations (never a fused multiply-add).
//! No sum is reassociated across lanes, so every entry equals the scalar
//! function's result bit for bit (NaN payloads aside, which Rust leaves
//! unspecified), the arms equal each other, and `metric::*` remain the
//! test oracle.
//!
//! [`metric::l2_squared`]: anna_vector::metric::l2_squared
//! [`metric::dot`]: anna_vector::metric::dot

#[cfg(target_arch = "x86_64")]
mod avx512;

use anna_vector::{KernelDispatch, Metric, VectorSet};

/// Codewords per block of a [`DimMajor`]: one AVX-512 register of f32.
/// The portable arm walks a block as two halves of eight.
pub const LANES: usize = 16;

/// Codewords per step of the portable arm. Eight f32 lanes × four
/// accumulators take 8 of the baseline x86-64 target's 16 SSE registers,
/// leaving the rest for operands, so nothing spills.
const HALF: usize = LANES / 2;

/// Whether `dispatch` runs the distance-table kernel on the AVX-512 arm
/// (else the portable one): only the `avx512` dispatch does. Both arms
/// return the same entries and the same nearest codeword bit for bit (see
/// the module docs), so the choice is a pure throughput decision.
fn avx512_arm(dispatch: KernelDispatch) -> bool {
    match dispatch {
        KernelDispatch::Avx512 => cfg!(target_arch = "x86_64"),
        KernelDispatch::Scalar | KernelDispatch::Blocked | KernelDispatch::Avx2 => false,
    }
}

/// Stable name of the distance-table arm `dispatch` runs, for reports:
/// `avx512` under the `avx512` dispatch, else `portable`.
pub fn table_arm_name(dispatch: KernelDispatch) -> &'static str {
    if avx512_arm(dispatch) {
        "avx512"
    } else {
        "portable"
    }
}

/// Panics unless the host runs `dispatch`.
fn assert_runs_here(dispatch: KernelDispatch) {
    assert!(
        dispatch.is_available(),
        "distance table on the {} dispatch, which this host cannot run",
        dispatch.name()
    );
}

/// The AVX-512 token for a pass under `dispatch` (which runs here), or
/// `None` for the portable arm.
#[cfg(target_arch = "x86_64")]
fn avx512_token(dispatch: KernelDispatch) -> Option<avx512::Avx512> {
    avx512_arm(dispatch)
        .then(|| avx512::Avx512::detected().expect("the avx512 table arm without AVX-512F"))
}

/// A codeword set transposed to dimension-major order in blocks of
/// [`LANES`] codewords: `data[b * dim + d][l]` is component `d` of codeword
/// `b * LANES + l`. Within a block the layout is `[dim d][codeword c]`, so
/// one kernel step loads the same component of neighbouring codewords as
/// one contiguous lane array. The last block is padded with zero
/// codewords, which never reach an output.
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

    /// `out[c] = metric.similarity(v, codeword c)` for every codeword —
    /// `-‖v − c‖²` for L2, `v · c` for inner product — each entry
    /// bit-identical to [`Metric::similarity`]. Runs the arm of
    /// [`KernelDispatch::current`].
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()` or `out.len() != self.k()`.
    pub fn similarities(&self, metric: Metric, v: &[f32], out: &mut [f32]) {
        self.similarities_with(KernelDispatch::current(), metric, v, out);
    }

    /// [`DimMajor::similarities`] on the arm of an explicit
    /// [`KernelDispatch`] ([`table_arm_name`]) — what the arm-equivalence
    /// tests drive.
    ///
    /// # Panics
    ///
    /// As [`DimMajor::similarities`], and if the host cannot run
    /// `dispatch`.
    pub fn similarities_with(
        &self,
        dispatch: KernelDispatch,
        metric: Metric,
        v: &[f32],
        out: &mut [f32],
    ) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        assert_eq!(out.len(), self.k, "table length mismatch");
        assert_runs_here(dispatch);
        #[cfg(target_arch = "x86_64")]
        if let Some(arm) = avx512_token(dispatch) {
            return arm.similarities(self, metric, v, out);
        }
        match metric {
            Metric::L2 => self.portable_table(v, out, l2_term, |s| -s),
            Metric::InnerProduct => self.portable_table(v, out, |a, b| a * b, |s| s),
        }
    }

    /// The codeword nearest to `v` in L2 and its squared distance: the
    /// argmin of the L2 table without materialising it. The first minimum
    /// wins, so duplicate codewords resolve to the lowest id, and a
    /// distance that is NaN never wins — the semantics of a `d < best` scan
    /// in ascending codeword order. An empty set, or one whose every
    /// distance is NaN or `+∞`, yields `(0, ∞)`. Runs the arm of
    /// [`KernelDispatch::current`].
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn nearest(&self, v: &[f32]) -> (usize, f32) {
        self.nearest_with(KernelDispatch::current(), v)
    }

    /// [`DimMajor::nearest`] on the arm of an explicit [`KernelDispatch`].
    ///
    /// # Panics
    ///
    /// As [`DimMajor::nearest`], and if the host cannot run `dispatch`.
    pub fn nearest_with(&self, dispatch: KernelDispatch, v: &[f32]) -> (usize, f32) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        assert_runs_here(dispatch);
        #[cfg(target_arch = "x86_64")]
        if let Some(arm) = avx512_token(dispatch) {
            return arm.nearest(self, v);
        }
        let mut best = (0usize, f32::INFINITY);
        for (b, block) in self.blocks().enumerate() {
            let c0 = b * LANES;
            let sums = block_sums(block, v, l2_term);
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
        (0..self.k.div_ceil(LANES)).map(|b| self.block(b))
    }

    /// Block `b` of `⌈k / LANES⌉`: `block(b)[d][l]` is component `d` of
    /// codeword `b · LANES + l` (zero past the last codeword) — what a
    /// kernel that runs this module's arithmetic inside a larger pass
    /// reads (`anna-index` builds a lookup table and its u8 image in one).
    ///
    /// # Panics
    ///
    /// Panics if `b >= ⌈k / LANES⌉`.
    #[inline(always)]
    pub fn block(&self, b: usize) -> &[[f32; LANES]] {
        &self.data[b * self.dim..][..self.dim]
    }

    /// The portable table: `out[c] = finish(Σ_d term(v[d], codeword c[d]))`.
    #[inline(always)]
    fn portable_table(
        &self,
        v: &[f32],
        out: &mut [f32],
        term: impl Fn(f32, f32) -> f32,
        finish: impl Fn(f32) -> f32,
    ) {
        let mut blocks = self.blocks();
        let (full, ragged) = out.as_chunks_mut::<LANES>();
        for (out, block) in full.iter_mut().zip(&mut blocks) {
            *out = block_sums(block, v, &term).map(&finish);
        }
        // `k` not a multiple of LANES: the last block is zero-padded.
        if let Some(block) = blocks.next() {
            let sums = block_sums(block, v, &term);
            for (out, &s) in ragged.iter_mut().zip(&sums) {
                *out = finish(s);
            }
        }
    }
}

/// The portable kernel over one block: its two halves' sums, lanes in
/// codeword order.
#[inline(always)]
fn block_sums(block: &[[f32; LANES]], v: &[f32], term: impl Fn(f32, f32) -> f32) -> [f32; LANES] {
    let lo = half_sums::<0>(block, v, &term);
    let hi = half_sums::<1>(block, v, &term);
    std::array::from_fn(|l| if l < HALF { lo[l] } else { hi[l - HALF] })
}

/// The portable kernel: reduces `term(v[d], codeword[d])` over `d` for the
/// [`HALF`] codewords of half `H` of one block (lanes `H · HALF .. (H + 1)
/// · HALF` of `block[d]`, `block.len() == v.len()`), one codeword per lane,
/// in `metric::{l2_squared, dot}`'s exact order.
#[inline(always)]
fn half_sums<const H: usize>(
    block: &[[f32; LANES]],
    v: &[f32],
    term: impl Fn(f32, f32) -> f32,
) -> [f32; HALF] {
    let (quads, v_quads) = (block.chunks_exact(4), v.chunks_exact(4));
    let (tail, v_tail) = (quads.remainder(), v_quads.remainder());
    let mut acc = [[0.0f32; HALF]; 4];
    for (cols, xs) in quads.zip(v_quads) {
        for ((a, col), &x) in acc.iter_mut().zip(cols).zip(xs) {
            for l in 0..HALF {
                a[l] += term(x, col[H * HALF + l]);
            }
        }
    }
    let mut sum = [0.0f32; HALF];
    for l in 0..HALF {
        sum[l] = acc[0][l] + acc[1][l] + acc[2][l] + acc[3][l];
    }
    for (col, &x) in tail.iter().zip(v_tail) {
        for l in 0..HALF {
            sum[l] += term(x, col[H * HALF + l]);
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
        // k = 19 (one full block + a 3-lane tail, so one half of the last
        // block is empty), dim = 6 (one chunk + a 2-dimension tail).
        let rows = VectorSet::from_fn(6, 19, |r, c| ((r * 7 + c * 3) % 13) as f32 * 0.37 - 2.0);
        let dm = DimMajor::new(&rows);
        let v = [0.5, -1.25, 3.0, 0.1, -0.7, 2.2];
        for dispatch in KernelDispatch::available() {
            let mut l2 = vec![0.0; 19];
            let mut ip = vec![0.0; 19];
            dm.similarities_with(dispatch, Metric::L2, &v, &mut l2);
            dm.similarities_with(dispatch, Metric::InnerProduct, &v, &mut ip);
            for c in 0..19 {
                let row = rows.row(c);
                assert_eq!(
                    l2[c].to_bits(),
                    (-metric::l2_squared(&v, row)).to_bits(),
                    "{} l2 {c}",
                    dispatch.name()
                );
                assert_eq!(
                    ip[c].to_bits(),
                    metric::dot(&v, row).to_bits(),
                    "{} ip {c}",
                    dispatch.name()
                );
            }
        }
    }

    #[test]
    fn nearest_keeps_the_first_of_equal_minima() {
        // Codewords 2 and 17 coincide (17 sits in the second block).
        let mut rows = VectorSet::from_fn(2, 20, |r, c| (r * 5 + c) as f32);
        let dup = rows.row(2).to_vec();
        rows.row_mut(17).copy_from_slice(&dup);
        let dm = DimMajor::new(&rows);
        for dispatch in KernelDispatch::available() {
            assert_eq!(
                dm.nearest_with(dispatch, &dup),
                (2, 0.0),
                "{}",
                dispatch.name()
            );
        }
    }

    #[test]
    fn fill_reuses_the_buffer_and_drops_stale_state() {
        let big = VectorSet::from_fn(3, 40, |r, c| (r + c) as f32);
        let small = VectorSet::from_fn(2, 3, |r, c| (r * 2 + c) as f32);
        let mut dm = DimMajor::new(&big);
        dm.fill(&small);
        assert_eq!(dm, DimMajor::new(&small));
    }

    #[test]
    fn empty_set_has_no_nearest() {
        let dm = DimMajor::new(&VectorSet::zeros(4, 0));
        for dispatch in KernelDispatch::available() {
            dm.similarities_with(dispatch, Metric::L2, &[0.0; 4], &mut []);
            assert_eq!(dm.nearest_with(dispatch, &[0.0; 4]), (0, f32::INFINITY));
        }
    }

    #[test]
    fn the_portable_arm_is_always_available_and_first() {
        let dispatches = KernelDispatch::available();
        assert_eq!(table_arm_name(dispatches[0]), "portable");
        assert!(dispatches.contains(&KernelDispatch::current()));
    }

    /// The private arm mappings, named for each of the four dispatches on
    /// x86-64: the distance table and the rescore run `avx512` only under
    /// `avx512`, and the rescore runs `f16c` under `avx2`.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn every_dispatch_names_its_table_and_rescore_arm() {
        use anna_vector::exact::rescore_arm_name;
        use KernelDispatch::*;
        let rows = [
            (Scalar, "portable", "portable"),
            (Blocked, "portable", "portable"),
            (Avx2, "portable", "f16c"),
            (Avx512, "avx512", "avx512"),
        ];
        for (dispatch, table, rescore) in rows {
            let name = dispatch.name();
            assert_eq!(table_arm_name(dispatch), table, "{name} table arm");
            assert_eq!(rescore_arm_name(dispatch), rescore, "{name} rescore arm");
        }
    }
}
