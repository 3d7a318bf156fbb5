//! Lloyd's k-means with k-means++ initialization.
//!
//! Used twice in the two-level PQ pipeline (Section II-C): once to produce
//! the `|C|` coarse cluster centroids, and once per PQ subspace to produce
//! the `k*` codewords of each codebook.

use crate::dist_table::DimMajor;
use anna_vector::{metric, VectorSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`KMeans::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Number of centroids to learn.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// RNG seed (training is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 16,
            max_iters: 20,
            seed: 0,
        }
    }
}

/// A trained k-means model: the centroid list of Section II-C.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    centroids: VectorSet,
    /// `centroids` transposed for the distance-table kernel; always in
    /// sync (both constructors derive it, nothing mutates either).
    dim_major: DimMajor,
}

impl KMeans {
    /// Trains centroids on `data` with Lloyd's algorithm.
    ///
    /// Initialization is k-means++; empty clusters are re-seeded from the
    /// point currently farthest from its centroid, so the result always has
    /// exactly `config.k` non-degenerate centroids when `data.len() >= k`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `config.k == 0`.
    pub fn train(data: &VectorSet, config: &KMeansConfig) -> Self {
        assert!(!data.is_empty(), "cannot train k-means on an empty set");
        assert!(config.k > 0, "k must be positive");
        let k = config.k.min(data.len());
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut centroids = plus_plus_init(data, k, &mut rng);

        let mut assignment = vec![0usize; data.len()];
        // Transposed once per Lloyd iteration, so it leaves the loop in
        // sync with the final centroids.
        let mut dim_major = DimMajor::new(&centroids);
        for _ in 0..config.max_iters {
            let changed = assign_parallel(data, &dim_major, &mut assignment);
            update_centroids(data, &assignment, &mut centroids, &mut rng);
            dim_major.fill(&centroids);
            if changed == 0 {
                break;
            }
        }
        Self {
            centroids,
            dim_major,
        }
    }

    /// Wraps pre-existing centroids (e.g. loaded from a file) as a model.
    pub fn from_centroids(centroids: VectorSet) -> Self {
        Self {
            dim_major: DimMajor::new(&centroids),
            centroids,
        }
    }

    /// The learned centroids.
    pub fn centroids(&self) -> &VectorSet {
        &self.centroids
    }

    /// The centroids in dimension-major order: the distance-table kernel
    /// over them (assignment, and an index's coarse cluster filtering).
    pub fn dim_major(&self) -> &DimMajor {
        &self.dim_major
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Index of the centroid nearest (in L2) to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from the centroid dimension.
    pub fn assign(&self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.centroids.dim());
        self.dim_major.nearest(v).0
    }

    /// Assigns every row of `data` to its nearest centroid, in parallel.
    pub fn assign_all(&self, data: &VectorSet) -> Vec<usize> {
        let mut out = vec![0usize; data.len()];
        assign_parallel(data, &self.dim_major, &mut out);
        out
    }

    /// Mean squared distance from each point to its assigned centroid — the
    /// k-means objective, exposed so training quality can be asserted.
    pub fn inertia(&self, data: &VectorSet) -> f64 {
        let mut total = 0.0f64;
        for v in data.iter() {
            total += self.dim_major.nearest(v).1 as f64;
        }
        total / data.len().max(1) as f64
    }
}

fn plus_plus_init(data: &VectorSet, k: usize, rng: &mut StdRng) -> VectorSet {
    let mut centroids = VectorSet::zeros(data.dim(), 0);
    let first = rng.gen_range(0..data.len());
    centroids.push(data.row(first));

    let mut dist: Vec<f32> = data
        .iter()
        .map(|v| metric::l2_squared(v, centroids.row(0)))
        .collect();
    while centroids.len() < k {
        let total: f64 = dist.iter().map(|&d| d as f64).sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a centroid; pick uniformly.
            rng.gen_range(0..data.len())
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = data.len() - 1;
            for (i, &d) in dist.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        centroids.push(data.row(next));
        let c = centroids.row(centroids.len() - 1).to_vec();
        for (i, v) in data.iter().enumerate() {
            let d = metric::l2_squared(v, &c);
            if d < dist[i] {
                dist[i] = d;
            }
        }
    }
    centroids
}

/// Reassigns every point; returns the number of points whose assignment
/// changed. Parallel across point chunks.
fn assign_parallel(data: &VectorSet, centroids: &DimMajor, assignment: &mut [usize]) -> usize {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let chunk = data.len().div_ceil(threads).max(1);
    let changed = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for (ci, out) in assignment.chunks_mut(chunk).enumerate() {
            let changed = &changed;
            s.spawn(move || {
                let base = ci * chunk;
                let mut local = 0;
                for (off, slot) in out.iter_mut().enumerate() {
                    let a = centroids.nearest(data.row(base + off)).0;
                    if a != *slot {
                        local += 1;
                        *slot = a;
                    }
                }
                changed.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    changed.into_inner()
}

fn update_centroids(
    data: &VectorSet,
    assignment: &[usize],
    centroids: &mut VectorSet,
    rng: &mut StdRng,
) {
    let dim = data.dim();
    let k = centroids.len();
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0usize; k];
    for (i, v) in data.iter().enumerate() {
        let a = assignment[i];
        counts[a] += 1;
        for (j, &x) in v.iter().enumerate() {
            sums[a * dim + j] += x as f64;
        }
    }
    for c in 0..k {
        if counts[c] == 0 {
            // Re-seed an empty cluster from a random point.
            let pick = rng.gen_range(0..data.len());
            let row = data.row(pick).to_vec();
            centroids.row_mut(c).copy_from_slice(&row);
        } else {
            for j in 0..dim {
                centroids.row_mut(c)[j] = (sums[c * dim + j] / counts[c] as f64) as f32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four tight blobs at the corners of a square.
    fn blobs() -> VectorSet {
        let corners = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)];
        VectorSet::from_fn(2, 400, |r, c| {
            let (cx, cy) = corners[r % 4];
            let jitter = ((r * 37 + c * 11) % 100) as f32 / 1000.0;
            if c == 0 {
                cx + jitter
            } else {
                cy + jitter
            }
        })
    }

    #[test]
    fn recovers_four_blobs() {
        let data = blobs();
        let model = KMeans::train(
            &data,
            &KMeansConfig {
                k: 4,
                max_iters: 30,
                seed: 42,
            },
        );
        assert_eq!(model.k(), 4);
        // Each centroid should be very close to one corner.
        let corners = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)];
        for c in model.centroids().iter() {
            let nearest_corner = corners
                .iter()
                .map(|&(x, y)| metric::l2_squared(c, &[x, y]))
                .fold(f32::INFINITY, f32::min);
            assert!(nearest_corner < 0.1, "centroid {c:?} far from every corner");
        }
        assert!(model.inertia(&data) < 0.1);
    }

    #[test]
    fn assignment_is_consistent_with_assign() {
        let data = blobs();
        let model = KMeans::train(
            &data,
            &KMeansConfig {
                k: 4,
                max_iters: 30,
                seed: 1,
            },
        );
        let all = model.assign_all(&data);
        for i in (0..data.len()).step_by(17) {
            assert_eq!(all[i], model.assign(data.row(i)));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs();
        let cfg = KMeansConfig {
            k: 4,
            max_iters: 10,
            seed: 9,
        };
        let a = KMeans::train(&data, &cfg);
        let b = KMeans::train(&data, &cfg);
        assert_eq!(a.centroids(), b.centroids());
    }

    /// The row-major `metric::l2_squared` scan the kernel replaced.
    fn nearest_row_major(v: &[f32], centroids: &VectorSet) -> usize {
        let mut best = (0usize, f32::INFINITY);
        for (i, c) in centroids.iter().enumerate() {
            let d = metric::l2_squared(v, c);
            if d < best.1 {
                best = (i, d);
            }
        }
        best.0
    }

    /// Lloyd's loop exactly as `train` runs it, but assigning with
    /// [`nearest_row_major`].
    fn train_row_major(data: &VectorSet, config: &KMeansConfig) -> VectorSet {
        let k = config.k.min(data.len());
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut centroids = plus_plus_init(data, k, &mut rng);
        let mut assignment = vec![0usize; data.len()];
        for _ in 0..config.max_iters {
            let mut changed = 0;
            for (slot, v) in assignment.iter_mut().zip(data.iter()) {
                let a = nearest_row_major(v, &centroids);
                if a != *slot {
                    changed += 1;
                    *slot = a;
                }
            }
            update_centroids(data, &assignment, &mut centroids, &mut rng);
            if changed == 0 {
                break;
            }
        }
        centroids
    }

    #[test]
    fn kernel_assignment_trains_bit_identical_to_the_row_major_loop() {
        // Lattice data with many equidistant points (ties must break the
        // same way), dimension 6 (chunk + tail), k = 11 (ragged lanes).
        let data = VectorSet::from_fn(6, 500, |r, c| ((r * 37 + c * 11) % 9) as f32);
        let cfg = KMeansConfig {
            k: 11,
            max_iters: 12,
            seed: 4,
        };
        let model = KMeans::train(&data, &cfg);
        let centroids = train_row_major(&data, &cfg);
        assert_eq!(model.centroids().len(), centroids.len());
        for (a, b) in model.centroids().iter().zip(centroids.iter()) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Final assignments against the final centroids.
        let all = model.assign_all(&data);
        for (i, v) in data.iter().enumerate() {
            let want = nearest_row_major(v, &centroids);
            assert_eq!(all[i], want, "row {i}");
            assert_eq!(model.assign(v), want, "row {i}");
        }
    }

    #[test]
    fn k_clamped_to_data_len() {
        let data = VectorSet::from_rows(2, &[0.0, 0.0, 1.0, 1.0]);
        let model = KMeans::train(
            &data,
            &KMeansConfig {
                k: 10,
                max_iters: 5,
                seed: 0,
            },
        );
        assert_eq!(model.k(), 2);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let data = blobs();
        let few = KMeans::train(
            &data,
            &KMeansConfig {
                k: 2,
                max_iters: 20,
                seed: 3,
            },
        );
        let many = KMeans::train(
            &data,
            &KMeansConfig {
                k: 8,
                max_iters: 20,
                seed: 3,
            },
        );
        assert!(many.inertia(&data) <= few.inertia(&data));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_data_rejected() {
        let data = VectorSet::zeros(2, 0);
        let _ = KMeans::train(&data, &KMeansConfig::default());
    }
}
