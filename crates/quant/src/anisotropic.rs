//! ScaNN-style anisotropic (score-aware) product quantization.
//!
//! Faiss trains codebooks to minimize plain reconstruction error; ScaNN
//! (Guo et al., ICML 2020 — reference \[18\] of the ANNA paper) minimizes a
//! *score-aware* loss that penalizes the component of the residual parallel
//! to the datapoint more than the orthogonal component, because only the
//! parallel component perturbs the inner product with a query pointing at
//! the datapoint. The ANNA paper evaluates both model families
//! ("Both algorithms utilize different objective functions to train
//! codebook", Section V-A); this module supplies the ScaNN side.
//!
//! For a datapoint sub-vector `x` with unit direction `u = x/‖x‖` and a
//! codeword `c`, the loss is
//!
//! ```text
//! ℓ(x, c) = η · (uᵀ(c − x))² + (‖c − x‖² − (uᵀ(c − x))²)
//! ```
//!
//! with anisotropy ratio `η = h∥/h⊥ ≥ 1` (η = 1 recovers plain k-means).
//! Training alternates loss-minimizing assignment with the closed-form
//! codeword update: each codeword solves the small linear system
//! `[Σᵢ (I + (η−1) uᵢuᵢᵀ)] c = [Σᵢ (I + (η−1) uᵢuᵢᵀ)] xᵢ`
//! over its assigned points (solved with [`crate::linalg::SmallMat`]).

use crate::kmeans::{KMeans, KMeansConfig};
use crate::linalg::SmallMat;
use crate::pq::PqCodebook;
use anna_vector::{metric, VectorSet};

/// Configuration for [`train`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnisotropicConfig {
    /// Number of sub-vectors `M`.
    pub m: usize,
    /// Codewords per codebook `k*`.
    pub kstar: usize,
    /// Anisotropy ratio `η = h∥/h⊥` (≥ 1; ScaNN's default threshold
    /// `T = 0.2` corresponds to [`eta_for_threshold`]).
    pub eta: f64,
    /// Alternating-minimization iterations.
    pub iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl AnisotropicConfig {
    /// ScaNN16-like configuration for a given `M` and dimension `D`.
    pub fn scann16(m: usize, dim: usize) -> Self {
        Self {
            m,
            kstar: 16,
            eta: eta_for_threshold(0.2, dim),
            iters: 10,
            seed: 0,
        }
    }
}

/// The ScaNN paper's mapping from its score threshold `T` to the anisotropy
/// ratio: `η = (D − 1) · T² / (1 − T²)`, clamped to at least 1.
///
/// # Example
///
/// ```
/// let eta = anna_quant::anisotropic::eta_for_threshold(0.2, 100);
/// assert!(eta > 3.0 && eta < 5.0);
/// ```
pub fn eta_for_threshold(t: f64, dim: usize) -> f64 {
    let t2 = t * t;
    ((dim.saturating_sub(1)) as f64 * t2 / (1.0 - t2)).max(1.0)
}

/// The anisotropic loss between a sub-vector `x` and its quantization `c`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn loss(x: &[f32], c: &[f32], eta: f64) -> f64 {
    assert_eq!(x.len(), c.len());
    let n = metric::norm(x) as f64;
    let r: Vec<f64> = c.iter().zip(x).map(|(a, b)| (*a - *b) as f64).collect();
    let total: f64 = r.iter().map(|v| v * v).sum();
    if n <= 1e-12 {
        return total; // direction undefined; fall back to isotropic
    }
    let par: f64 = r.iter().zip(x).map(|(rv, xv)| rv * (*xv as f64) / n).sum();
    let par2 = par * par;
    eta * par2 + (total - par2)
}

/// Trains anisotropic per-subspace codebooks and returns them as an
/// ordinary [`PqCodebook`] (encoding/decoding and the ANNA hardware path are
/// identical for both model families — that compatibility is one of the
/// paper's design goals).
///
/// # Panics
///
/// Panics if `data` is empty or `data.dim()` is not divisible by
/// `config.m`.
pub fn train(data: &VectorSet, config: &AnisotropicConfig) -> PqCodebook {
    assert!(!data.is_empty(), "cannot train on an empty set");
    assert!(
        data.dim().is_multiple_of(config.m),
        "dim {} not divisible by m {}",
        data.dim(),
        config.m
    );
    assert!(config.eta >= 1.0, "eta must be >= 1");
    let sub = data.dim() / config.m;
    let mut books = Vec::with_capacity(config.m);

    for j in 0..config.m {
        let mut flat = Vec::with_capacity(data.len() * sub);
        for i in 0..data.len() {
            flat.extend_from_slice(data.subvector(i, config.m, j));
        }
        let subset = VectorSet::from_vec(sub, flat);
        books.push(train_subspace(&subset, config, j as u64));
    }
    PqCodebook::from_books(books)
}

fn train_subspace(points: &VectorSet, config: &AnisotropicConfig, salt: u64) -> VectorSet {
    // Initialize with plain k-means, then refine under the anisotropic loss.
    let km = KMeans::train(
        points,
        &KMeansConfig {
            k: config.kstar,
            max_iters: 8,
            seed: config.seed.wrapping_add(salt),
        },
    );
    let mut codewords = km.centroids().clone();
    let k = codewords.len();
    let sub = points.dim();
    let mut assignment = vec![0usize; points.len()];

    for _ in 0..config.iters {
        // Assignment step under the anisotropic loss.
        let mut changed = 0usize;
        for (i, x) in points.iter().enumerate() {
            let mut best = (0usize, f64::INFINITY);
            for (c, w) in codewords.iter().enumerate() {
                let l = loss(x, w, config.eta);
                if l < best.1 {
                    best = (c, l);
                }
            }
            if assignment[i] != best.0 {
                assignment[i] = best.0;
                changed += 1;
            }
        }

        // Update step: per-codeword weighted least squares.
        for c in 0..k {
            let members: Vec<usize> = (0..points.len()).filter(|&i| assignment[i] == c).collect();
            if members.is_empty() {
                continue; // keep the k-means seed
            }
            let mut lhs = SmallMat::zeros(sub);
            let mut rhs = vec![0.0f64; sub];
            for &i in &members {
                let x = points.row(i);
                let n = metric::norm(x) as f64;
                let mut a = SmallMat::scaled_identity(sub, 1.0);
                if n > 1e-12 {
                    let u: Vec<f64> = x.iter().map(|&v| v as f64 / n).collect();
                    a.add_outer(&u, config.eta - 1.0);
                }
                let xi: Vec<f64> = x.iter().map(|&v| v as f64).collect();
                let ax = a.mul_vec(&xi);
                for (r, v) in rhs.iter_mut().zip(&ax) {
                    *r += v;
                }
                lhs.add(&a);
            }
            if let Some(solution) = lhs.solve(&rhs) {
                for (slot, v) in codewords.row_mut(c).iter_mut().zip(&solution) {
                    *slot = *v as f32;
                }
            }
        }

        if changed == 0 {
            break;
        }
    }
    codewords
}

/// Mean anisotropic loss of a codebook over a dataset (the ScaNN training
/// objective), for quality assertions and model comparison.
pub fn dataset_loss(book: &PqCodebook, data: &VectorSet, eta: f64) -> f64 {
    let m = book.m();
    let sub = book.sub_dim();
    let mut total = 0.0f64;
    for v in data.iter() {
        let codes = book.encode(v);
        for (j, &c) in codes.iter().enumerate() {
            let x = &v[j * sub..(j + 1) * sub];
            total += loss(x, book.book(j).row(c as usize), eta);
        }
    }
    total / (data.len().max(1) * m) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pq::{PqCodebook, PqConfig};

    fn radial_data() -> VectorSet {
        // Points along a few rays from the origin — the regime where
        // parallel error matters most for MIPS.
        VectorSet::from_fn(4, 240, |r, c| {
            let ray = r % 6;
            let scale = 1.0 + (r / 6) as f32 * 0.15;
            let base = [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.7, 0.7, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.7, 0.7],
                [0.5, 0.5, 0.5, 0.5],
            ];
            base[ray][c] * scale
        })
    }

    #[test]
    fn eta_one_behaves_like_plain_pq_loss() {
        let x = [1.0, 2.0, 3.0];
        let c = [1.5, 1.5, 3.5];
        let l = loss(&x, &c, 1.0);
        assert!((l - metric::l2_squared(&x, &c) as f64).abs() < 1e-5);
    }

    #[test]
    fn loss_penalizes_parallel_error_more() {
        let x = [1.0, 0.0];
        let parallel_err = [1.5, 0.0]; // residual along x
        let ortho_err = [1.0, 0.5]; // residual orthogonal to x
        let lp = loss(&x, &parallel_err, 4.0);
        let lo = loss(&x, &ortho_err, 4.0);
        assert!(lp > lo, "parallel {lp} should exceed orthogonal {lo}");
        // Both residuals have the same L2 magnitude.
        assert!(
            (metric::l2_squared(&x, &parallel_err) - metric::l2_squared(&x, &ortho_err)).abs()
                < 1e-6
        );
    }

    #[test]
    fn zero_vector_falls_back_to_isotropic() {
        let x = [0.0, 0.0];
        let c = [1.0, 1.0];
        assert!((loss(&x, &c, 8.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn training_beats_plain_pq_on_anisotropic_objective() {
        let data = radial_data();
        let eta = 6.0;
        let plain = PqCodebook::train(
            &data,
            &PqConfig {
                m: 2,
                kstar: 8,
                iters: 15,
                seed: 0,
            },
        );
        let aniso = train(
            &data,
            &AnisotropicConfig {
                m: 2,
                kstar: 8,
                eta,
                iters: 15,
                seed: 0,
            },
        );
        let lp = dataset_loss(&plain, &data, eta);
        let la = dataset_loss(&aniso, &data, eta);
        assert!(
            la <= lp * 1.01,
            "anisotropic training ({la}) should not lose to plain PQ ({lp}) on its own objective"
        );
    }

    #[test]
    fn eta_for_threshold_matches_formula() {
        let eta = eta_for_threshold(0.2, 101);
        assert!((eta - 100.0 * 0.04 / 0.96).abs() < 1e-9);
        // Degenerate cases clamp to 1.
        assert_eq!(eta_for_threshold(0.0, 128), 1.0);
        assert_eq!(eta_for_threshold(0.2, 1), 1.0);
    }

    #[test]
    fn trained_codebook_is_hardware_compatible() {
        // The result is a plain PqCodebook: same encode/decode machinery.
        let data = radial_data();
        let book = train(
            &data,
            &AnisotropicConfig {
                m: 2,
                kstar: 4,
                eta: 4.0,
                iters: 5,
                seed: 0,
            },
        );
        assert_eq!(book.m(), 2);
        assert_eq!(book.kstar(), 4);
        let codes = book.encode(data.row(0));
        assert_eq!(book.decode(&codes).len(), 4);
    }
}
