//! Optimized Product Quantization (OPQ, Ge et al., TPAMI 2013 — reference
//! \[16\] of the ANNA paper).
//!
//! OPQ learns an orthogonal rotation `R` of the input space so that the
//! rotated data factorizes better across PQ subspaces, then trains ordinary
//! PQ codebooks on `R·x`. Searching applies the same rotation to the query;
//! everything downstream (lookup tables, scan, the ANNA hardware path) is
//! unchanged — which is why the paper lists OPQ among the variations ANNA
//! supports ("OPQ applies rotation to the original database. ANNA can
//! support all these variations since their computation pattern for the
//! search remains the same").
//!
//! Training alternates (the "non-parametric" OPQ procedure):
//! 1. fix `R`, train/encode PQ on the rotated data;
//! 2. fix the codes, solve the orthogonal Procrustes problem
//!    `min_R ‖R·X − X̂‖_F` whose solution is the polar factor of `X̂·Xᵀ`
//!    (computed by [`crate::linalg::SmallMat::polar_orthogonal`]).

use crate::linalg::SmallMat;
use crate::pq::{PqCodebook, PqConfig};
use anna_vector::{metric, VectorSet};

/// Configuration for [`Opq::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct OpqConfig {
    /// Inner PQ configuration.
    pub pq: PqConfig,
    /// Alternating (rotation ↔ codebook) iterations.
    pub outer_iters: usize,
}

impl Default for OpqConfig {
    fn default() -> Self {
        Self {
            pq: PqConfig {
                m: 8,
                kstar: 16,
                iters: 8,
                seed: 0,
            },
            outer_iters: 6,
        }
    }
}

/// A trained OPQ model: an orthogonal rotation plus a PQ codebook over the
/// rotated space.
#[derive(Debug, Clone)]
pub struct Opq {
    dim: usize,
    /// Row-major `D × D` rotation.
    rotation: Vec<f32>,
    codebook: PqCodebook,
}

impl Opq {
    /// Trains an OPQ model on `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `data.dim()` is not divisible by
    /// `config.pq.m`.
    pub fn train(data: &VectorSet, config: &OpqConfig) -> Self {
        assert!(!data.is_empty(), "cannot train OPQ on an empty set");
        let d = data.dim();
        assert!(
            d.is_multiple_of(config.pq.m),
            "dim {} not divisible by m {}",
            d,
            config.pq.m
        );

        // R starts as identity; rotated holds R·x for every row.
        let mut rotation = SmallMat::scaled_identity(d, 1.0);
        let mut rotated = data.clone();
        let mut codebook = PqCodebook::train(&rotated, &config.pq);

        for _ in 0..config.outer_iters {
            // Step 2: Procrustes. Cross-covariance M = Σ x̂ xᵀ over the
            // *original* data, where x̂ = decode(encode(R x)).
            let mut cross = SmallMat::zeros(d);
            for (i, x) in data.iter().enumerate() {
                let xhat = codebook.decode(&codebook.encode(rotated.row(i)));
                for r in 0..d {
                    if xhat[r] == 0.0 {
                        continue;
                    }
                    for c in 0..d {
                        cross[(r, c)] += xhat[r] as f64 * x[c] as f64;
                    }
                }
            }
            let Some(new_r) = cross.polar_orthogonal() else {
                break; // degenerate data: keep the current rotation
            };
            for r in 0..d {
                for c in 0..d {
                    rotation[(r, c)] = new_r[(r, c)];
                }
            }

            // Step 1: re-rotate and retrain the codebooks.
            for (i, x) in data.iter().enumerate() {
                let rx = apply_rotation_f64(&rotation, x);
                rotated.row_mut(i).copy_from_slice(&rx);
            }
            codebook = PqCodebook::train(&rotated, &config.pq);
        }

        let flat: Vec<f32> = (0..d)
            .flat_map(|r| (0..d).map(move |c| (r, c)))
            .map(|(r, c)| rotation[(r, c)] as f32)
            .collect();
        Self {
            dim: d,
            rotation: flat,
            codebook,
        }
    }

    /// Vector dimension `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The learned codebook over the rotated space (hardware-compatible:
    /// feed it to the same LUT/scan machinery as plain PQ).
    pub fn codebook(&self) -> &PqCodebook {
        &self.codebook
    }

    /// Applies the learned rotation to a vector (done to queries before
    /// LUT construction, and to database vectors before encoding).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn rotate(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.dim);
        let d = self.dim;
        (0..d)
            .map(|r| {
                let row = &self.rotation[r * d..(r + 1) * d];
                metric::dot(row, v)
            })
            .collect()
    }

    /// Encodes a vector: rotate, then PQ-encode.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        self.codebook.encode(&self.rotate(v))
    }

    /// Reconstructs the rotated-space approximation from codes.
    pub fn decode_rotated(&self, codes: &[u8]) -> Vec<f32> {
        self.codebook.decode(codes)
    }

    /// Mean squared reconstruction error in the rotated space (equal to
    /// the original-space error because the rotation is orthogonal).
    pub fn reconstruction_error(&self, data: &VectorSet) -> f64 {
        let mut total = 0.0;
        for v in data.iter() {
            let rx = self.rotate(v);
            let approx = self.decode_rotated(&self.encode(v));
            total += metric::l2_squared(&rx, &approx) as f64;
        }
        total / data.len().max(1) as f64
    }

    /// Maximum deviation of `RᵀR` from the identity (orthogonality
    /// check, exposed for validation).
    pub fn orthogonality_error(&self) -> f64 {
        let d = self.dim;
        let mut max = 0.0f64;
        for i in 0..d {
            for j in 0..d {
                let mut s = 0.0f64;
                for k in 0..d {
                    s += self.rotation[k * d + i] as f64 * self.rotation[k * d + j] as f64;
                }
                let want = if i == j { 1.0 } else { 0.0 };
                max = max.max((s - want).abs());
            }
        }
        max
    }
}

fn apply_rotation_f64(r: &SmallMat, v: &[f32]) -> Vec<f32> {
    let d = v.len();
    (0..d)
        .map(|row| {
            let mut s = 0.0f64;
            for (c, &x) in v.iter().enumerate() {
                s += r[(row, c)] * x as f64;
            }
            s as f32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Data whose principal directions straddle the subspace boundary, the
    /// case plain PQ handles poorly and OPQ fixes by rotating.
    fn correlated_data() -> VectorSet {
        VectorSet::from_fn(4, 400, |r, c| {
            let t = (r as f32) * 0.37 + ((r * 13) % 7) as f32;
            // Strong correlation between coords 1 and 2 (different PQ
            // subspaces at m = 2).
            match c {
                0 => (r % 5) as f32 * 0.3,
                1 => t,
                2 => t + ((r * 31) % 3) as f32 * 0.05,
                _ => (r % 3) as f32 * 0.2,
            }
        })
    }

    #[test]
    fn rotation_is_orthogonal() {
        let data = correlated_data();
        let opq = Opq::train(
            &data,
            &OpqConfig {
                pq: PqConfig {
                    m: 2,
                    kstar: 8,
                    iters: 6,
                    seed: 0,
                },
                outer_iters: 4,
            },
        );
        assert!(
            opq.orthogonality_error() < 1e-4,
            "RtR deviates from I by {}",
            opq.orthogonality_error()
        );
    }

    #[test]
    fn rotation_preserves_norms() {
        let data = correlated_data();
        let opq = Opq::train(
            &data,
            &OpqConfig {
                pq: PqConfig {
                    m: 2,
                    kstar: 8,
                    iters: 6,
                    seed: 0,
                },
                outer_iters: 3,
            },
        );
        for i in (0..data.len()).step_by(37) {
            let v = data.row(i);
            let rv = opq.rotate(v);
            assert!(
                (metric::norm(v) - metric::norm(&rv)).abs() < 1e-3 * (1.0 + metric::norm(v)),
                "norm changed under rotation"
            );
        }
    }

    #[test]
    fn opq_beats_plain_pq_on_correlated_data() {
        let data = correlated_data();
        let pq_cfg = PqConfig {
            m: 2,
            kstar: 8,
            iters: 8,
            seed: 0,
        };
        let plain = PqCodebook::train(&data, &pq_cfg);
        let opq = Opq::train(
            &data,
            &OpqConfig {
                pq: pq_cfg,
                outer_iters: 6,
            },
        );
        let pe = plain.reconstruction_error(&data);
        let oe = opq.reconstruction_error(&data);
        assert!(
            oe <= pe * 1.02,
            "OPQ ({oe}) should not lose to plain PQ ({pe}) on cross-correlated data"
        );
    }

    #[test]
    fn codebook_is_hardware_compatible() {
        let data = correlated_data();
        let opq = Opq::train(
            &data,
            &OpqConfig {
                pq: PqConfig {
                    m: 2,
                    kstar: 16,
                    iters: 4,
                    seed: 0,
                },
                outer_iters: 2,
            },
        );
        // Same shape contract as plain PQ: the ANNA path consumes it as-is.
        assert_eq!(opq.codebook().m(), 2);
        assert_eq!(opq.codebook().kstar(), 16);
        let codes = opq.encode(data.row(0));
        assert_eq!(codes.len(), 2);
        assert!(codes.iter().all(|&c| c < 16));
    }

    #[test]
    fn identity_start_means_first_iteration_matches_pq() {
        // With zero outer iterations the model is exactly plain PQ.
        let data = correlated_data();
        let pq_cfg = PqConfig {
            m: 2,
            kstar: 8,
            iters: 5,
            seed: 3,
        };
        let plain = PqCodebook::train(&data, &pq_cfg);
        let opq = Opq::train(
            &data,
            &OpqConfig {
                pq: pq_cfg,
                outer_iters: 0,
            },
        );
        assert!(opq.orthogonality_error() < 1e-12);
        assert_eq!(opq.encode(data.row(7)), plain.encode(data.row(7)));
    }
}
