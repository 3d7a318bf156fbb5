//! Similarity metrics and their scalar kernels.
//!
//! The paper (Section II-A) defines two similarity metrics: inner product
//! (`s_ip(q, x) = Σ q[i]·x[i]`) and negative squared L2 distance
//! (`s_L2(q, x) = -Σ (q[i]-x[i])²`). Both are *similarities*: larger is more
//! similar, so a single top-k path serves both.

/// The similarity metric used by a search.
///
/// # Example
///
/// ```
/// use anna_vector::Metric;
///
/// let q = [1.0, 2.0];
/// let x = [3.0, 4.0];
/// assert_eq!(Metric::InnerProduct.similarity(&q, &x), 11.0);
/// assert_eq!(Metric::L2.similarity(&q, &x), -8.0); // -( (1-3)^2 + (2-4)^2 )
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Inner-product similarity (maximum inner product search, MIPS).
    InnerProduct,
    /// Negative squared Euclidean distance.
    L2,
}

impl Metric {
    /// Computes the similarity between `q` and `x` (larger = more similar).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the slices have different lengths.
    #[inline]
    pub fn similarity(self, q: &[f32], x: &[f32]) -> f32 {
        match self {
            Metric::InnerProduct => dot(q, x),
            Metric::L2 => -l2_squared(q, x),
        }
    }

    /// Returns `true` for metrics whose two-level-PQ lookup table depends on
    /// the selected coarse centroid.
    ///
    /// Per Section II-C of the paper, the L2 lookup table stores
    /// `-‖(q_i - c_i) - B_i[·]‖²` and must be rebuilt per cluster, while the
    /// inner-product table stores `q_i·B_i[·]` and is cluster-invariant.
    #[inline]
    pub fn lut_depends_on_cluster(self) -> bool {
        matches!(self, Metric::L2)
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Metric::InnerProduct => write!(f, "inner-product"),
            Metric::L2 => write!(f, "l2"),
        }
    }
}

/// Dot product of two equal-length slices, with 4-wide manual unrolling so
/// the compiler reliably vectorizes the hot loop.
///
/// # Panics
///
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let o = i * 4;
        acc[0] += a[o] * b[o];
        acc[1] += a[o + 1] * b[o + 1];
        acc[2] += a[o + 2] * b[o + 2];
        acc[3] += a[o + 3] * b[o + 3];
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn l2_squared(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let o = i * 4;
        let d0 = a[o] - b[o];
        let d1 = a[o + 1] - b[o + 1];
        let d2 = a[o + 2] - b[o + 2];
        let d3 = a[o + 3] - b[o + 3];
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

/// Euclidean (L2) norm of a vector.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Subtracts `b` from `a` element-wise into a new vector (the residual
/// computation `r(x) = x - c` of two-level PQ).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..13).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..13).map(|i| (i * 2) as f32).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot(&a, &b), naive);
    }

    #[test]
    fn l2_squared_matches_naive() {
        let a: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..9).map(|i| (i as f32) * 0.5).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((l2_squared(&a, &b) - naive).abs() < 1e-5);
    }

    #[test]
    fn l2_similarity_is_negative_distance() {
        let q = [0.0, 0.0];
        let x = [3.0, 4.0];
        assert_eq!(Metric::L2.similarity(&q, &x), -25.0);
    }

    #[test]
    fn identical_vectors_maximize_l2_similarity() {
        let q = [1.0, -2.0, 3.0];
        assert_eq!(Metric::L2.similarity(&q, &q), 0.0);
        assert!(Metric::L2.similarity(&q, &[1.0, -2.0, 4.0]) < 0.0);
    }

    #[test]
    fn lut_cluster_dependence_follows_paper() {
        assert!(Metric::L2.lut_depends_on_cluster());
        assert!(!Metric::InnerProduct.lut_depends_on_cluster());
    }

    #[test]
    fn sub_and_add_are_inverses() {
        let a = [5.0, 7.0];
        let b = [2.0, 3.0];
        let r = sub(&a, &b);
        let back: Vec<f32> = r.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert_eq!(back, vec![5.0, 7.0]);
    }

    #[test]
    fn norm_of_unit_vector() {
        assert!((norm(&[0.6, 0.8]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn display_names() {
        assert_eq!(Metric::L2.to_string(), "l2");
        assert_eq!(Metric::InnerProduct.to_string(), "inner-product");
    }
}
