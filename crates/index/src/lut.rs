//! Lookup-table (LUT) construction — the memoization at the heart of
//! PQ-based ANNS (Sections II-B and II-C of the paper).
//!
//! A LUT holds `M × k*` entries; entry `(i, c)` is the contribution of
//! codeword `c` of codebook `B_i` to the similarity. With it, scoring one
//! encoded vector costs `M` lookups and `M − 1` additions.

use anna_quant::pq::PqCodebook;
use anna_quant::DimMajor;
use anna_vector::f16;
use serde::{Deserialize, Serialize};

/// Precision at which LUT entries are stored.
///
/// ANNA's lookup-table SRAM stores 2-byte entries (`2·k*·M` bytes per SCM,
/// Section III-B), so the hardware-faithful mode rounds every entry through
/// binary16. CPU baselines keep f32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LutPrecision {
    /// 4-byte entries (software).
    F32,
    /// 2-byte entries rounded through IEEE binary16 (ANNA hardware).
    F16,
}

/// A query's lookup tables: `m` tables of `k*` entries each, flattened
/// row-major (`table major`: entry `(i, c)` at `i * kstar + c`).
#[derive(Debug, Clone, PartialEq)]
pub struct Lut {
    m: usize,
    kstar: usize,
    entries: Vec<f32>,
    /// The cluster-invariant bias added to every score: `q · c⁽ʲ⁾` for the
    /// inner-product metric, 0 for L2 (where the centroid is folded into
    /// the table entries instead).
    bias: f32,
    /// Precision the table was built at. Remembered so that re-biasing a
    /// hardware-faithful F16 table ([`Lut::with_bias`]) keeps every stored
    /// quantity — entries *and* bias — at the 2-byte SRAM precision.
    precision: LutPrecision,
}

impl Lut {
    /// An empty 0×0 table — a pre-allocatable slot for the reusable-LUT
    /// paths. Fill it with [`Lut::rebuild_l2`] or
    /// [`Lut::clone_rebias_from`] before scoring; its entry buffer is
    /// reused (never shrunk) across rebuilds, so a warm slot rebuilds
    /// without allocating.
    pub fn placeholder() -> Self {
        Self {
            m: 0,
            kstar: 0,
            entries: Vec::new(),
            bias: 0.0,
            precision: LutPrecision::F32,
        }
    }

    /// Builds the inner-product LUT: `L_i[c] = q_i · B_i[c]`, with bias
    /// `q · centroid` to be added after reduction (Section II-C: "the term
    /// q·c⁽ʲ⁾ needs to be added at the end").
    ///
    /// The same table serves every cluster; only the bias changes — use
    /// [`Lut::with_bias`] to re-target it.
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != book.dim()`.
    pub fn build_ip(q: &[f32], book: &PqCodebook, precision: LutPrecision) -> Self {
        assert_eq!(q.len(), book.dim(), "query dimension mismatch");
        let mut lut = Self::placeholder();
        lut.fill(q, book, precision, DimMajor::dot_table);
        lut.apply_precision(precision);
        lut
    }

    /// Builds the L2 LUT for one selected cluster:
    /// `L_i[c] = -‖(q_i − centroid_i) − B_i[c]‖²`.
    ///
    /// The table is cluster-dependent and must be rebuilt for every cluster
    /// the query visits — the reason ANNA double-buffers LUT construction
    /// against similarity computation (Section III-A).
    ///
    /// # Panics
    ///
    /// Panics if dimensions are inconsistent.
    pub fn build_l2(
        q: &[f32],
        centroid: &[f32],
        book: &PqCodebook,
        precision: LutPrecision,
    ) -> Self {
        let mut lut = Self::placeholder();
        let mut residual = Vec::new();
        lut.rebuild_l2(q, centroid, book, precision, &mut residual);
        lut
    }

    /// [`Lut::build_l2`] in place: rebuilds this table for another
    /// `(query, cluster)` pair, reusing the entry buffer and the caller's
    /// `residual` scratch so a hot loop (the batch engine rebuilds one
    /// L2 table per visit) allocates nothing after warm-up.
    ///
    /// Each of the `m` tables is one pass of the distance-table kernel
    /// ([`anna_quant::DimMajor::l2_table`]) over the codebook's
    /// dimension-major copy, vectorised across codewords. The kernel is
    /// vertical — every entry is `-metric::l2_squared(r_i, B_i[c])` bit
    /// for bit — and this is the single shared implementation
    /// ([`build_l2`] delegates here), so a rebuilt table is bit-identical
    /// to a freshly built one: the parallel engine's determinism guarantee
    /// rests on this.
    ///
    /// [`build_l2`]: Lut::build_l2
    ///
    /// # Panics
    ///
    /// Panics if dimensions are inconsistent.
    pub fn rebuild_l2(
        &mut self,
        q: &[f32],
        centroid: &[f32],
        book: &PqCodebook,
        precision: LutPrecision,
        residual: &mut Vec<f32>,
    ) {
        assert_eq!(q.len(), book.dim(), "query dimension mismatch");
        assert_eq!(centroid.len(), book.dim(), "centroid dimension mismatch");
        residual.clear();
        residual.extend(q.iter().zip(centroid).map(|(x, y)| x - y));
        self.fill(residual, book, precision, DimMajor::l2_table);
        for e in &mut self.entries {
            *e = -*e;
        }
        self.apply_precision(precision);
    }

    /// Re-shapes this table for `book` (zero bias) and runs `kernel` once
    /// per table `i` on sub-vector `v_i`, writing table `i`'s `k*` entries.
    fn fill(
        &mut self,
        v: &[f32],
        book: &PqCodebook,
        precision: LutPrecision,
        kernel: impl Fn(&DimMajor, &[f32], &mut [f32]),
    ) {
        self.m = book.m();
        self.kstar = book.kstar();
        self.bias = 0.0;
        self.precision = precision;
        self.entries.clear();
        self.entries.resize(self.m * self.kstar, 0.0);
        let sub = book.sub_dim();
        for i in 0..self.m {
            kernel(
                book.dim_major(i),
                &v[i * sub..(i + 1) * sub],
                &mut self.entries[i * self.kstar..(i + 1) * self.kstar],
            );
        }
    }

    fn apply_precision(&mut self, precision: LutPrecision) {
        if precision == LutPrecision::F16 {
            f16::round_trip_slice(&mut self.entries);
            self.bias = f16::round_trip(self.bias);
        }
    }

    /// Returns a copy of this LUT with a different additive bias (used to
    /// re-target the cluster-invariant inner-product table to another
    /// cluster).
    ///
    /// The bias is stored at the table's own precision: an F16 table rounds
    /// it through binary16, since ANNA's lookup-table SRAM has no
    /// full-precision slot to hold `q·c⁽ʲ⁾` in (Section III-B).
    pub fn with_bias(&self, bias: f32) -> Self {
        let mut out = Self::placeholder();
        out.clone_rebias_from(self, bias);
        out
    }

    /// [`Lut::with_bias`] in place: makes `self` a copy of `base` with
    /// `bias`, reusing this table's entry buffer (the batch engine
    /// re-targets the cluster-invariant inner-product table once per
    /// visit; this keeps that re-targeting allocation-free after
    /// warm-up). Bias precision follows `base`, exactly as
    /// [`Lut::with_bias`] does.
    pub fn clone_rebias_from(&mut self, base: &Lut, bias: f32) {
        self.m = base.m;
        self.kstar = base.kstar;
        self.precision = base.precision;
        self.entries.clear();
        self.entries.extend_from_slice(&base.entries);
        self.bias = match base.precision {
            LutPrecision::F16 => f16::round_trip(bias),
            LutPrecision::F32 => bias,
        };
    }

    /// The precision the table stores its entries (and bias) at.
    pub fn precision(&self) -> LutPrecision {
        self.precision
    }

    /// Number of tables (`M`).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Entries per table (`k*`).
    pub fn kstar(&self) -> usize {
        self.kstar
    }

    /// The additive bias applied after reduction.
    pub fn bias(&self) -> f32 {
        self.bias
    }

    /// Looks up entry `c` of table `i`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[inline]
    pub fn get(&self, i: usize, c: usize) -> f32 {
        self.entries[i * self.kstar + c]
    }

    /// The flat entry buffer (`m × kstar`, table-major), for the scan
    /// kernels.
    pub fn entries(&self) -> &[f32] {
        &self.entries
    }

    /// Storage footprint in bytes at the ANNA 2-byte entry size:
    /// `2·k*·M` (Section III-B sizes the per-SCM lookup-table SRAM this
    /// way — 32 KB for `k* = 256`, `M = 64`).
    pub fn storage_bytes(&self) -> usize {
        2 * self.kstar * self.m
    }

    /// Arithmetic cost of building this table, in multiply(-subtract)-add
    /// operations — `k*·D` multiplies (Section II-B), used by the CPU/GPU
    /// analytic models.
    pub fn build_madds(&self, dim: usize) -> u64 {
        self.kstar as u64 * dim as u64
    }

    /// Scores one decoded vector given its identifiers: `Σ L_i[e_i] + bias`
    /// (the equation of Section II-B's "Efficient Similarity Computation
    /// with Memoization").
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != self.m()` in debug builds.
    #[inline]
    pub fn score(&self, codes: &[u8]) -> f32 {
        debug_assert_eq!(codes.len(), self.m);
        let mut sum = 0.0f32;
        for (i, &c) in codes.iter().enumerate() {
            sum += self.entries[i * self.kstar + c as usize];
        }
        sum + self.bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anna_quant::pq::{PqCodebook, PqConfig};
    use anna_vector::{metric, Metric, VectorSet};

    fn book() -> PqCodebook {
        let data = VectorSet::from_fn(4, 64, |r, c| ((r * 13 + c * 5) % 11) as f32);
        PqCodebook::train(
            &data,
            &PqConfig {
                m: 2,
                kstar: 4,
                iters: 10,
                seed: 0,
            },
        )
    }

    #[test]
    fn ip_lut_score_matches_decoded_dot_product() {
        let book = book();
        let q = [1.0, 2.0, 3.0, 4.0];
        let lut = Lut::build_ip(&q, &book, LutPrecision::F32);
        for c0 in 0..4u8 {
            for c1 in 0..4u8 {
                let decoded = book.decode(&[c0, c1]);
                let want = Metric::InnerProduct.similarity(&q, &decoded);
                let got = lut.score(&[c0, c1]);
                assert!(
                    (want - got).abs() < 1e-4,
                    "codes ({c0},{c1}): {want} vs {got}"
                );
            }
        }
    }

    #[test]
    fn l2_lut_score_matches_decoded_distance() {
        let book = book();
        let q = [1.0, 2.0, 3.0, 4.0];
        let centroid = [0.5, 0.5, 0.5, 0.5];
        let lut = Lut::build_l2(&q, &centroid, &book, LutPrecision::F32);
        for c0 in 0..4u8 {
            for c1 in 0..4u8 {
                // The approximate vector is centroid + residual codeword.
                let r = book.decode(&[c0, c1]);
                let approx: Vec<f32> = centroid.iter().zip(&r).map(|(a, b)| a + b).collect();
                let want = Metric::L2.similarity(&q, &approx);
                let got = lut.score(&[c0, c1]);
                assert!(
                    (want - got).abs() < 1e-4,
                    "codes ({c0},{c1}): {want} vs {got}"
                );
            }
        }
    }

    #[test]
    fn ip_bias_is_centroid_dot_product() {
        let book = book();
        let q = [1.0, 0.0, 2.0, 0.0];
        let centroid = [3.0, 1.0, 0.0, 1.0];
        let lut = Lut::build_ip(&q, &book, LutPrecision::F32).with_bias(metric::dot(&q, &centroid));
        assert_eq!(lut.bias(), 3.0);
        let base = Lut::build_ip(&q, &book, LutPrecision::F32);
        assert_eq!(lut.score(&[0, 0]), base.score(&[0, 0]) + 3.0);
    }

    #[test]
    fn f16_precision_rounds_entries() {
        let book = book();
        let q = [0.1, 0.2, 0.3, 0.4];
        let f32lut = Lut::build_ip(&q, &book, LutPrecision::F32);
        let f16lut = Lut::build_ip(&q, &book, LutPrecision::F16);
        for i in 0..f32lut.entries().len() {
            let rounded = f16::round_trip(f32lut.entries()[i]);
            assert_eq!(f16lut.entries()[i], rounded);
        }
    }

    #[test]
    fn f16_with_bias_rounds_bias_to_table_precision() {
        let book = book();
        let q = [0.1, 0.2, 0.3, 0.4];
        // A bias that is not representable in binary16.
        let raw_bias = 0.1234567f32;
        assert_ne!(f16::round_trip(raw_bias), raw_bias);

        let lut = Lut::build_ip(&q, &book, LutPrecision::F16).with_bias(raw_bias);
        assert_eq!(lut.precision(), LutPrecision::F16);
        assert_eq!(lut.bias(), f16::round_trip(raw_bias));

        // The score must equal the all-2-byte reference: f16 entries summed
        // with an f16 bias — nothing in the pipeline at full precision.
        let base = Lut::build_ip(&q, &book, LutPrecision::F16);
        let want = base.score(&[1, 2]) - base.bias() + f16::round_trip(raw_bias);
        assert_eq!(lut.score(&[1, 2]), want);

        // F32 tables keep the raw bias.
        let f32lut = Lut::build_ip(&q, &book, LutPrecision::F32).with_bias(raw_bias);
        assert_eq!(f32lut.bias(), raw_bias);
    }

    #[test]
    fn storage_matches_sram_sizing() {
        // Section III-B: 2·k*·M bytes; k*=256, M=64 -> 32 KB.
        let data = VectorSet::from_fn(128, 300, |r, c| ((r + c * 3) % 13) as f32);
        let book = PqCodebook::train(
            &data,
            &PqConfig {
                m: 64,
                kstar: 256,
                iters: 1,
                seed: 0,
            },
        );
        let q = vec![0.0f32; 128];
        let lut = Lut::build_ip(&q, &book, LutPrecision::F32);
        assert_eq!(lut.storage_bytes(), 32768);
    }

    #[test]
    fn rebuild_l2_is_bit_identical_to_build_l2_across_shapes() {
        let book = book();
        // One slot reused across different (query, centroid) pairs and
        // precisions must always equal a fresh build, bit for bit.
        let mut slot = Lut::placeholder();
        let mut residual = Vec::new();
        for (qi, precision) in [
            (0usize, LutPrecision::F32),
            (1, LutPrecision::F16),
            (2, LutPrecision::F32),
        ] {
            let q = [qi as f32 + 0.25, 1.5, -2.0, 0.75];
            let centroid = [0.5 * qi as f32, -0.25, 1.0, 2.0];
            slot.rebuild_l2(&q, &centroid, &book, precision, &mut residual);
            let fresh = Lut::build_l2(&q, &centroid, &book, precision);
            assert_eq!(slot.m(), fresh.m());
            assert_eq!(slot.kstar(), fresh.kstar());
            assert_eq!(slot.bias().to_bits(), fresh.bias().to_bits());
            for (a, b) in slot.entries().iter().zip(fresh.entries()) {
                assert_eq!(a.to_bits(), b.to_bits(), "precision {precision:?}");
            }
        }
    }

    #[test]
    fn clone_rebias_matches_with_bias_including_f16_rounding() {
        let book = book();
        let q = [0.1, 0.2, 0.3, 0.4];
        let raw_bias = 0.1234567f32;
        for precision in [LutPrecision::F32, LutPrecision::F16] {
            let base = Lut::build_ip(&q, &book, precision);
            let fresh = base.with_bias(raw_bias);
            let mut slot = Lut::placeholder();
            // Warm the slot with something else first: stale state must
            // be fully overwritten.
            slot.clone_rebias_from(&base, 99.0);
            slot.clone_rebias_from(&base, raw_bias);
            assert_eq!(slot.bias().to_bits(), fresh.bias().to_bits());
            assert_eq!(slot.precision(), fresh.precision());
            assert_eq!(slot.entries(), fresh.entries());
        }
    }

    #[test]
    fn get_agrees_with_score_for_single_table() {
        let book = book();
        let q = [1.0, 1.0, 1.0, 1.0];
        let lut = Lut::build_ip(&q, &book, LutPrecision::F32);
        assert_eq!(lut.score(&[2, 3]), lut.get(0, 2) + lut.get(1, 3));
    }
}
