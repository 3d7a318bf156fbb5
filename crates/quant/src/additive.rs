//! Additive quantization (AQ, Babenko & Lempitsky, CVPR 2014 — reference
//! \[3\] of the ANNA paper).
//!
//! Where PQ concatenates `M` sub-space codewords, AQ *sums* `M` full-
//! dimensional codewords: `x ≈ Σᵢ Bᵢ[cᵢ]` with each `Bᵢ[cᵢ] ∈ ℝᴰ`. The
//! paper's Section VI notes "ANNA can also be slightly extended to
//! support other PQ variations such as AQ, which utilizes M identifiers
//! each associated with D-dimensional codeword" — the scan stays `M` LUT
//! reads plus a reduction:
//!
//! * inner product: `s = Σᵢ Lᵢ[cᵢ]` with `Lᵢ[c] = q·Bᵢ[c]` (LUT build
//!   now costs `M·k*·D` multiply-adds instead of `k*·D`, since every
//!   codeword is full-dimensional);
//! * L2: `-‖q − x̂‖² = 2·Σᵢ Lᵢ[cᵢ] − ‖x̂‖² − ‖q‖²`. The cross terms
//!   between codewords make the sum-of-LUT trick insufficient on its own,
//!   so each encoded vector carries a 2-byte norm correction `‖x̂‖²`
//!   (fetched by the EFM alongside the identifiers); `‖q‖²` is
//!   rank-invariant and dropped.
//!
//! Training is residual (stage-wise) k-means; encoding is greedy or beam
//! search over stages.

use crate::kmeans::{KMeans, KMeansConfig};
use anna_vector::{f16, metric, VectorSet};

/// Configuration for [`AqCodebook::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct AqConfig {
    /// Number of additive stages `M`.
    pub m: usize,
    /// Codewords per stage `k*`.
    pub kstar: usize,
    /// k-means iterations per stage.
    pub iters: usize,
    /// Beam width for encoding (1 = greedy residual quantization).
    pub beam: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AqConfig {
    fn default() -> Self {
        Self {
            m: 4,
            kstar: 16,
            iters: 10,
            beam: 1,
            seed: 0,
        }
    }
}

/// A trained additive codebook: `M` stages of `k*` full-dimensional
/// codewords.
#[derive(Debug, Clone, PartialEq)]
pub struct AqCodebook {
    dim: usize,
    beam: usize,
    /// `m` codebooks, each `kstar × dim`.
    books: Vec<VectorSet>,
}

/// An AQ-encoded vector: `M` identifiers plus the 2-byte norm correction.
#[derive(Debug, Clone, PartialEq)]
pub struct AqCode {
    /// Stage identifiers.
    pub codes: Vec<u8>,
    /// `‖x̂‖²` rounded through the 2-byte on-chip format.
    pub norm_sq: f32,
}

impl AqCodebook {
    /// Trains stage-wise on residuals: stage `i`'s k-means fits what the
    /// first `i` stages left unexplained.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or the config is degenerate.
    pub fn train(data: &VectorSet, config: &AqConfig) -> Self {
        assert!(!data.is_empty(), "cannot train AQ on an empty set");
        assert!(
            config.m > 0 && config.kstar > 1 && config.beam > 0,
            "degenerate config"
        );
        let dim = data.dim();
        let mut residual = data.clone();
        let mut books = Vec::with_capacity(config.m);
        for stage in 0..config.m {
            let km = KMeans::train(
                &residual,
                &KMeansConfig {
                    k: config.kstar,
                    max_iters: config.iters,
                    seed: config.seed.wrapping_add(stage as u64),
                },
            );
            // Subtract each point's assigned codeword.
            let assign = km.assign_all(&residual);
            for (i, &a) in assign.iter().enumerate() {
                let c = km.centroids().row(a).to_vec();
                for (v, w) in residual.row_mut(i).iter_mut().zip(&c) {
                    *v -= w;
                }
            }
            books.push(km.centroids().clone());
        }
        Self {
            dim,
            beam: config.beam,
            books,
        }
    }

    /// Vector dimension `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stages `M`.
    pub fn m(&self) -> usize {
        self.books.len()
    }

    /// Codewords per stage `k*`.
    pub fn kstar(&self) -> usize {
        self.books[0].len()
    }

    /// Stage `i`'s codebook.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.m()`.
    pub fn book(&self, i: usize) -> &VectorSet {
        &self.books[i]
    }

    /// Encodes a vector by beam search over stages (beam 1 = greedy).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn encode(&self, v: &[f32]) -> AqCode {
        assert_eq!(v.len(), self.dim);
        // Beam state: (codes so far, current residual, error).
        let mut beam: Vec<(Vec<u8>, Vec<f32>, f32)> =
            vec![(Vec::new(), v.to_vec(), metric::dot(v, v))];
        for book in &self.books {
            let mut next: Vec<(Vec<u8>, Vec<f32>, f32)> = Vec::new();
            for (codes, residual, _) in &beam {
                for (c, w) in book.iter().enumerate() {
                    let nr = metric::sub(residual, w);
                    let err = metric::dot(&nr, &nr);
                    let mut nc = codes.clone();
                    nc.push(c as u8);
                    next.push((nc, nr, err));
                }
            }
            next.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
            next.truncate(self.beam);
            beam = next;
        }
        let (codes, _, _) = beam.into_iter().next().expect("beam is non-empty");
        let xhat = self.decode(&codes);
        AqCode {
            codes,
            norm_sq: f16::round_trip(metric::dot(&xhat, &xhat)),
        }
    }

    /// Reconstructs `x̂ = Σᵢ Bᵢ[cᵢ]`.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != self.m()` or an identifier is out of
    /// range.
    pub fn decode(&self, codes: &[u8]) -> Vec<f32> {
        assert_eq!(codes.len(), self.m());
        let mut out = vec![0.0f32; self.dim];
        for (i, &c) in codes.iter().enumerate() {
            for (o, w) in out.iter_mut().zip(self.books[i].row(c as usize)) {
                *o += w;
            }
        }
        out
    }

    /// Builds the query's per-stage LUTs: `Lᵢ[c] = q·Bᵢ[c]` (entries f16,
    /// as the hardware SRAM stores them). Cost: `M·k*·D` multiply-adds.
    pub fn build_lut(&self, q: &[f32]) -> Vec<Vec<f32>> {
        assert_eq!(q.len(), self.dim);
        self.books
            .iter()
            .map(|b| {
                (0..b.len())
                    .map(|c| f16::round_trip(metric::dot(q, b.row(c))))
                    .collect()
            })
            .collect()
    }

    /// Inner-product score from the LUTs: `Σᵢ Lᵢ[cᵢ]`.
    pub fn score_ip(lut: &[Vec<f32>], code: &AqCode) -> f32 {
        code.codes
            .iter()
            .enumerate()
            .map(|(i, &c)| lut[i][c as usize])
            .sum()
    }

    /// L2 similarity (up to the rank-invariant `−‖q‖²`):
    /// `2·Σᵢ Lᵢ[cᵢ] − ‖x̂‖²`.
    pub fn score_l2(lut: &[Vec<f32>], code: &AqCode) -> f32 {
        2.0 * Self::score_ip(lut, code) - code.norm_sq
    }

    /// Mean squared reconstruction error over a dataset.
    pub fn reconstruction_error(&self, data: &VectorSet) -> f64 {
        let mut total = 0.0f64;
        for v in data.iter() {
            let approx = self.decode(&self.encode(v).codes);
            total += metric::l2_squared(v, &approx) as f64;
        }
        total / data.len().max(1) as f64
    }

    /// Bytes per encoded vector: `M·log2(k*)/8` identifiers plus the
    /// 2-byte norm correction (the "slight extension" to the EFM fetch).
    pub fn encoded_bytes(&self) -> usize {
        let bits = (usize::BITS - 1) - self.kstar().leading_zeros();
        (self.m() * bits as usize).div_ceil(8) + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pq::{PqCodebook, PqConfig};

    fn data() -> VectorSet {
        VectorSet::from_fn(6, 300, |r, c| {
            let blob = (r % 5) as f32;
            blob * 4.0 + ((r * 17 + c * 3) % 13) as f32 * 0.3 + (c as f32) * 0.1
        })
    }

    fn cfg(beam: usize) -> AqConfig {
        AqConfig {
            m: 3,
            kstar: 8,
            iters: 10,
            beam,
            seed: 0,
        }
    }

    #[test]
    fn more_stages_reduce_error() {
        let d = data();
        let one = AqCodebook::train(&d, &AqConfig { m: 1, ..cfg(1) });
        let three = AqCodebook::train(&d, &cfg(1));
        assert!(
            three.reconstruction_error(&d) < one.reconstruction_error(&d),
            "3 stages ({}) must beat 1 ({})",
            three.reconstruction_error(&d),
            one.reconstruction_error(&d)
        );
    }

    #[test]
    fn beam_encoding_never_loses_to_greedy() {
        let d = data();
        let book = AqCodebook::train(&d, &cfg(1));
        let wide = AqCodebook {
            beam: 8,
            ..book.clone()
        };
        let mut greedy_err = 0.0f64;
        let mut beam_err = 0.0f64;
        for i in (0..d.len()).step_by(13) {
            let v = d.row(i);
            let g = book.decode(&book.encode(v).codes);
            let b = wide.decode(&wide.encode(v).codes);
            greedy_err += metric::l2_squared(v, &g) as f64;
            beam_err += metric::l2_squared(v, &b) as f64;
        }
        assert!(
            beam_err <= greedy_err + 1e-6,
            "beam {beam_err} vs greedy {greedy_err}"
        );
    }

    #[test]
    fn ip_score_matches_decoded_dot_product() {
        let d = data();
        let book = AqCodebook::train(&d, &cfg(2));
        let q = [0.5, -1.0, 2.0, 0.1, 0.3, -0.7];
        let lut = book.build_lut(&q);
        for i in (0..d.len()).step_by(29) {
            let code = book.encode(d.row(i));
            let want = metric::dot(&q, &book.decode(&code.codes));
            let got = AqCodebook::score_ip(&lut, &code);
            assert!(
                (want - got).abs() < 0.05 * (1.0 + want.abs()),
                "{want} vs {got}"
            );
        }
    }

    #[test]
    fn l2_score_orders_like_true_distance() {
        let d = data();
        let book = AqCodebook::train(&d, &cfg(2));
        let q = d.row(0).to_vec();
        let lut = book.build_lut(&q);
        // Rank a handful of vectors by the hardware score and by the true
        // decoded distance; orders must agree.
        let rows = [0usize, 40, 80, 120, 200];
        let mut by_score: Vec<(usize, f32)> = rows
            .iter()
            .map(|&i| (i, AqCodebook::score_l2(&lut, &book.encode(d.row(i)))))
            .collect();
        let mut by_dist: Vec<(usize, f32)> = rows
            .iter()
            .map(|&i| {
                let xhat = book.decode(&book.encode(d.row(i)).codes);
                (i, -metric::l2_squared(&q, &xhat))
            })
            .collect();
        by_score.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        by_dist.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let score_order: Vec<usize> = by_score.iter().map(|&(i, _)| i).collect();
        let dist_order: Vec<usize> = by_dist.iter().map(|&(i, _)| i).collect();
        assert_eq!(score_order, dist_order);
    }

    #[test]
    fn aq_beats_pq_at_matched_bit_budget_on_full_rank_data() {
        // AQ's full-dimensional codewords capture cross-subspace structure
        // a subspace-factorized PQ cannot.
        let d = data();
        let aq = AqCodebook::train(
            &d,
            &AqConfig {
                m: 3,
                kstar: 8,
                iters: 12,
                beam: 4,
                seed: 1,
            },
        );
        let pq = PqCodebook::train(
            &d,
            &PqConfig {
                m: 3,
                kstar: 8,
                iters: 12,
                seed: 1,
            },
        );
        let ae = aq.reconstruction_error(&d);
        let pe = pq.reconstruction_error(&d);
        assert!(
            ae <= pe * 1.1,
            "AQ ({ae}) should be competitive with PQ ({pe})"
        );
    }

    #[test]
    fn encoded_bytes_include_norm_correction() {
        let d = data();
        let book = AqCodebook::train(&d, &cfg(1));
        // 3 stages x 3 bits -> 2 bytes, plus 2-byte norm.
        assert_eq!(book.encoded_bytes(), 4);
    }
}
