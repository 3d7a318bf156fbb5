//! Cluster/Codebook Processing Module (Section III-B(1)).
//!
//! `N_cu` compute units shared by three modes:
//! 1. **cluster filtering** — broadcast one query element per cycle to all
//!    units, each accumulating a different centroid's partial similarity
//!    (`D·|C|/N_cu` cycles per query);
//! 2. **residual computation** — element-wise `q − c⁽ˢ⁾` at `N_cu`
//!    elements per cycle (`D/N_cu` cycles);
//! 3. **LUT construction** — one unit fills one table; `D·k*/N_cu` cycles
//!    for a query's full set of `M` tables.

use anna_index::{Lut, LutPrecision};
use anna_quant::pq::PqCodebook;
use anna_vector::{f16, metric, Metric, VectorSet};

use crate::pheap::PHeap;

/// Activity counters for the CPM (consumed by the energy model and
/// asserted against the analytic engine in tests).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpmStats {
    /// Cycles spent across all modes.
    pub cycles: f64,
    /// Multiply-add (or subtract-square-add) operations issued.
    pub madds: u64,
    /// Lookup tables constructed.
    pub luts_built: u64,
}

/// The CPM: compute units plus a top-|W| selection unit for filtering.
#[derive(Debug, Clone)]
pub struct Cpm {
    n_cu: usize,
    stats: CpmStats,
}

impl Cpm {
    /// Creates a CPM with `n_cu` compute units.
    ///
    /// # Panics
    ///
    /// Panics if `n_cu == 0`.
    pub fn new(n_cu: usize) -> Self {
        assert!(n_cu > 0, "CPM needs at least one compute unit");
        Self {
            n_cu,
            stats: CpmStats::default(),
        }
    }

    /// Activity so far.
    pub fn stats(&self) -> CpmStats {
        self.stats
    }

    /// Mode 1: scores the query against every centroid (streamed) and
    /// returns the `w` most similar cluster ids, best first, selected by
    /// the hardware top-k unit (f16 score compare — ties therefore break
    /// exactly as the silicon would).
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch or `w == 0`.
    pub fn filter_clusters(
        &mut self,
        q: &[f32],
        centroids: &VectorSet,
        metric: Metric,
        w: usize,
    ) -> Vec<usize> {
        assert_eq!(
            q.len(),
            centroids.dim(),
            "query/centroid dimension mismatch"
        );
        assert!(w > 0, "w must be positive");
        let d = centroids.dim();
        let c = centroids.len();
        self.stats.cycles += d as f64 * c as f64 / self.n_cu as f64;
        self.stats.madds += (d * c) as u64;

        let mut top = PHeap::new(w.min(c));
        for (i, cv) in centroids.iter().enumerate() {
            top.offer(i as u64, metric.similarity(q, cv));
        }
        top.drain_sorted()
            .into_iter()
            .map(|n| n.id as usize)
            .collect()
    }

    /// Mode 2: the residual `q − c⁽ˢ⁾`, rounded through the 2-byte on-chip
    /// format on store.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn residual(&mut self, q: &[f32], centroid: &[f32]) -> Vec<f32> {
        assert_eq!(q.len(), centroid.len());
        self.stats.cycles += q.len() as f64 / self.n_cu as f64;
        self.stats.madds += q.len() as u64;
        let mut r = metric::sub(q, centroid);
        f16::round_trip_slice(&mut r);
        r
    }

    /// Mode 3: builds a query's lookup tables (inner product: the
    /// cluster-invariant `q_i·B_i[·]` table; the caller re-biases per
    /// cluster).
    pub fn build_ip_lut(&mut self, q: &[f32], book: &PqCodebook) -> Lut {
        self.charge_lut(book);
        Lut::build_ip(q, book, LutPrecision::F16)
    }

    /// Mode 3 for L2: builds the cluster-specific table
    /// `-‖(q_i − c_i) − B_i[·]‖²` (internally runs Mode 2 first, as the
    /// hardware does).
    pub fn build_l2_lut(&mut self, q: &[f32], centroid: &[f32], book: &PqCodebook) -> Lut {
        // The residual pass (Mode 2) precedes the fill.
        self.stats.cycles += q.len() as f64 / self.n_cu as f64;
        self.stats.madds += q.len() as u64;
        self.charge_lut(book);
        Lut::build_l2(q, centroid, book, LutPrecision::F16)
    }

    fn charge_lut(&mut self, book: &PqCodebook) {
        self.stats.cycles += (book.dim() * book.kstar()) as f64 / self.n_cu as f64;
        self.stats.madds += (book.dim() * book.kstar()) as u64;
        self.stats.luts_built += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anna_quant::pq::PqConfig;

    fn centroids() -> VectorSet {
        VectorSet::from_fn(4, 10, |r, _| r as f32)
    }

    #[test]
    fn filtering_selects_nearest_and_charges_cycles() {
        let mut cpm = Cpm::new(96);
        let c = centroids();
        let picked = cpm.filter_clusters(&[3.2, 3.2, 3.2, 3.2], &c, Metric::L2, 3);
        assert_eq!(picked[0], 3);
        assert!(picked.contains(&4));
        // D·|C|/N_cu = 4·10/96.
        assert!((cpm.stats().cycles - 40.0 / 96.0).abs() < 1e-9);
        assert_eq!(cpm.stats().madds, 40);
    }

    #[test]
    fn residual_matches_subtraction_with_f16_store() {
        let mut cpm = Cpm::new(96);
        let r = cpm.residual(&[1.0, 2.0], &[0.5, 0.5]);
        assert_eq!(r, vec![0.5, 1.5]);
    }

    #[test]
    fn lut_costs_match_mode3_formula() {
        let data = VectorSet::from_fn(8, 64, |r, c| ((r * 3 + c) % 7) as f32);
        let book = PqCodebook::train(
            &data,
            &PqConfig {
                m: 4,
                kstar: 16,
                iters: 3,
                seed: 0,
            },
        );
        let mut cpm = Cpm::new(96);
        let _ = cpm.build_ip_lut(&[1.0; 8], &book);
        // D·k*/N_cu = 8·16/96.
        assert!((cpm.stats().cycles - 128.0 / 96.0).abs() < 1e-9);
        assert_eq!(cpm.stats().luts_built, 1);
    }

    #[test]
    fn l2_lut_includes_residual_pass() {
        let data = VectorSet::from_fn(8, 64, |r, c| ((r * 3 + c) % 7) as f32);
        let book = PqCodebook::train(
            &data,
            &PqConfig {
                m: 4,
                kstar: 16,
                iters: 3,
                seed: 0,
            },
        );
        let mut cpm = Cpm::new(96);
        let _ = cpm.build_l2_lut(&[1.0; 8], &[0.0; 8], &book);
        // D/N_cu + D·k*/N_cu.
        assert!((cpm.stats().cycles - (8.0 + 128.0) / 96.0).abs() < 1e-9);
    }

    #[test]
    fn filter_w_clamped_to_cluster_count() {
        let mut cpm = Cpm::new(4);
        let picked = cpm.filter_clusters(&[0.0; 4], &centroids(), Metric::L2, 99);
        assert_eq!(picked.len(), 10);
    }
}
