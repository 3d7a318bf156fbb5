//! Synthetic dataset generation.
//!
//! All generators draw from a mixture of Gaussian blobs (which is what
//! gives IVF clustering something meaningful to find) and then post-process
//! rows to match the character of the dataset family they stand in for.

use anna_vector::{metric, Metric, VectorSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The statistical character of a generated dataset family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Character {
    /// SIFT-like: non-negative integer-quantized local features, L2 metric.
    SiftLike,
    /// Deep-like: L2-normalized dense CNN descriptors, L2 metric.
    DeepLike,
    /// GloVe-like: word embeddings with heavy-tailed norms, inner product.
    GloveLike,
    /// TTI-like (text-to-image): database and queries come from *different*
    /// distributions (queries are shifted/rotated), inner product. This is
    /// the out-of-distribution regime in which `k* = 16` struggles to reach
    /// high recall in the paper's Figure 8.
    TtiLike,
}

impl Character {
    /// The similarity metric this family is searched with in the paper.
    pub fn metric(self) -> Metric {
        match self {
            Character::SiftLike | Character::DeepLike => Metric::L2,
            Character::GloveLike | Character::TtiLike => Metric::InnerProduct,
        }
    }
}

/// A dataset generation request.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Human-readable name (carried into reports).
    pub name: String,
    /// Vector dimension `D`.
    pub dim: usize,
    /// Number of database vectors `N`.
    pub n: usize,
    /// Number of query vectors.
    pub num_queries: usize,
    /// Statistical family.
    pub character: Character,
    /// Number of latent mixture blobs (structure for IVF to exploit).
    pub num_blobs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// A small default spec for tests and examples.
    pub fn small(character: Character) -> Self {
        Self {
            name: format!("{character:?}-small"),
            dim: 16,
            n: 2000,
            num_queries: 32,
            character,
            num_blobs: 20,
            seed: 7,
        }
    }
}

/// A generated dataset: database plus held-out queries.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Name carried from the spec.
    pub name: String,
    /// The metric this dataset is searched with.
    pub metric: Metric,
    /// Database vectors.
    pub db: VectorSet,
    /// Query vectors.
    pub queries: VectorSet,
}

/// Samples a standard normal via Box–Muller (the `rand` crate alone ships
/// no Gaussian distribution; `rand_distr` is intentionally not a
/// dependency).
fn gaussian(rng: &mut StdRng) -> f32 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > 1e-12 {
            return ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32;
        }
    }
}

fn sample_blob_centers(dim: usize, blobs: usize, spread: f32, rng: &mut StdRng) -> VectorSet {
    VectorSet::from_fn(dim, blobs, |_, _| gaussian(rng) * spread)
}

fn sample_mixture(centers: &VectorSet, n: usize, sigma: f32, rng: &mut StdRng) -> VectorSet {
    let dim = centers.dim();
    let mut out = VectorSet::zeros(dim, n);
    for i in 0..n {
        let b = rng.gen_range(0..centers.len());
        let c = centers.row(b).to_vec();
        let row = out.row_mut(i);
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = c[j] + gaussian(rng) * sigma;
        }
    }
    out
}

/// Generates a dataset according to `spec`.
///
/// Deterministic given the spec (including the seed).
///
/// # Panics
///
/// Panics if `n`, `num_queries`, `dim` or `num_blobs` is zero.
///
/// # Example
///
/// ```
/// use anna_data::synth::{self, Character, DatasetSpec};
///
/// let ds = synth::generate(&DatasetSpec::small(Character::SiftLike));
/// assert_eq!(ds.db.len(), 2000);
/// assert!(ds.db.as_slice().iter().all(|&v| v >= 0.0)); // SIFT-like is non-negative
/// ```
pub fn generate(spec: &DatasetSpec) -> Dataset {
    assert!(
        spec.n > 0 && spec.num_queries > 0,
        "empty dataset requested"
    );
    assert!(spec.dim > 0 && spec.num_blobs > 0, "degenerate spec");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let centers = sample_blob_centers(spec.dim, spec.num_blobs, 4.0, &mut rng);
    let mut db = sample_mixture(&centers, spec.n, 1.0, &mut rng);

    // Queries: in-distribution for most families; TTI-like shifts them.
    let mut queries = match spec.character {
        Character::TtiLike => {
            // Different modality: blend each blob center with a random
            // offset and widen the noise — queries live near, but not on,
            // the database manifold.
            let offset: Vec<f32> = (0..spec.dim).map(|_| gaussian(&mut rng) * 2.0).collect();
            let mut q = sample_mixture(&centers, spec.num_queries, 1.8, &mut rng);
            for i in 0..q.len() {
                for (j, slot) in q.row_mut(i).iter_mut().enumerate() {
                    *slot += offset[j];
                }
            }
            q
        }
        _ => sample_mixture(&centers, spec.num_queries, 1.0, &mut rng),
    };

    match spec.character {
        Character::SiftLike => {
            quantize_nonnegative(&mut db);
            quantize_nonnegative(&mut queries);
        }
        Character::DeepLike => {
            normalize_rows(&mut db);
            normalize_rows(&mut queries);
        }
        Character::GloveLike => {
            heavy_tail_scale(&mut db, spec.seed ^ 0x9E37_79B9);
            // Queries keep unit-ish scale: MIPS then prefers large-norm
            // database rows, as with real word frequencies.
            normalize_rows(&mut queries);
        }
        Character::TtiLike => {
            normalize_rows(&mut db);
            normalize_rows(&mut queries);
        }
    }

    Dataset {
        name: spec.name.clone(),
        metric: spec.character.metric(),
        db,
        queries,
    }
}

/// Shifts rows to be non-negative and rounds to integers (SIFT gradient
/// histograms are small non-negative integers).
fn quantize_nonnegative(set: &mut VectorSet) {
    let min = set.as_slice().iter().cloned().fold(f32::INFINITY, f32::min);
    let shift = if min < 0.0 { -min } else { 0.0 };
    for v in set.as_mut_slice() {
        *v = ((*v + shift) * 8.0).round().max(0.0);
    }
}

/// L2-normalizes every row (zero rows are left untouched).
fn normalize_rows(set: &mut VectorSet) {
    for i in 0..set.len() {
        let n = metric::norm(set.row(i));
        if n > 1e-12 {
            for v in set.row_mut(i) {
                *v /= n;
            }
        }
    }
}

/// Scales each row by `exp(g)` for a per-row Gaussian `g`, giving the
/// log-normal norm distribution typical of word embeddings.
fn heavy_tail_scale(set: &mut VectorSet, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..set.len() {
        let s = (gaussian(&mut rng) * 0.4).exp();
        for v in set.row_mut(i) {
            *v *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let spec = DatasetSpec::small(Character::DeepLike);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.db, b.db);
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn different_seeds_differ() {
        let mut spec = DatasetSpec::small(Character::DeepLike);
        let a = generate(&spec);
        spec.seed += 1;
        let b = generate(&spec);
        assert_ne!(a.db, b.db);
    }

    #[test]
    fn sift_like_is_nonnegative_integers() {
        let ds = generate(&DatasetSpec::small(Character::SiftLike));
        for &v in ds.db.as_slice() {
            assert!(v >= 0.0);
            assert_eq!(v, v.round());
        }
        assert_eq!(ds.metric, Metric::L2);
    }

    #[test]
    fn deep_like_rows_are_unit_norm() {
        let ds = generate(&DatasetSpec::small(Character::DeepLike));
        for row in ds.db.iter() {
            assert!((metric::norm(row) - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn glove_like_norms_are_heavy_tailed() {
        let ds = generate(&DatasetSpec::small(Character::GloveLike));
        let norms: Vec<f32> = ds.db.iter().map(metric::norm).collect();
        let max = norms.iter().cloned().fold(0.0f32, f32::max);
        let min = norms.iter().cloned().fold(f32::INFINITY, f32::min);
        assert!(max / min > 2.0, "norm spread too small: {min}..{max}");
        assert_eq!(ds.metric, Metric::InnerProduct);
    }

    #[test]
    fn tti_like_queries_are_out_of_distribution() {
        let ds = generate(&DatasetSpec::small(Character::TtiLike));
        // Mean query should sit away from the mean database vector.
        let dim = ds.db.dim();
        let mut db_mean = vec![0.0f32; dim];
        for r in ds.db.iter() {
            for (s, &v) in db_mean.iter_mut().zip(r) {
                *s += v / ds.db.len() as f32;
            }
        }
        let mut q_mean = vec![0.0f32; dim];
        for r in ds.queries.iter() {
            for (s, &v) in q_mean.iter_mut().zip(r) {
                *s += v / ds.queries.len() as f32;
            }
        }
        let shift = metric::l2_squared(&db_mean, &q_mean).sqrt();
        assert!(
            shift > 0.05,
            "query distribution not shifted (shift {shift})"
        );
    }

    #[test]
    fn blob_structure_exists() {
        // Points from the same generator should have much smaller average
        // distance to their nearest 1% than to a random pair.
        let ds = generate(&DatasetSpec::small(Character::DeepLike));
        let a = ds.db.row(0);
        let mut dists: Vec<f32> = (1..500)
            .map(|i| metric::l2_squared(a, ds.db.row(i)))
            .collect();
        dists.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let near = dists[..5].iter().sum::<f32>() / 5.0;
        let far = dists[dists.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(
            near * 3.0 < far,
            "no cluster structure: near {near}, far {far}"
        );
    }
}
