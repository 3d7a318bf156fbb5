//! Similarity Computation Module (Section III-B(3)).
//!
//! Reads `N_u` identifiers per cycle from the encoded vector buffer, uses
//! them to address the lookup tables, sum-reduces the `N_u` values through
//! a pipelined adder tree, adds the inner-product bias where applicable,
//! and feeds the result to its P-heap top-k unit. One vector costs
//! `⌈M/N_u⌉` cycles.

use anna_index::Lut;
use anna_vector::Neighbor;

use crate::pheap::PHeap;

/// SCM activity counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScmStats {
    /// Cycles spent scanning.
    pub cycles: f64,
    /// Vectors scored.
    pub vectors_scored: u64,
    /// LUT reads issued.
    pub lut_reads: u64,
}

/// One SCM instance: adder tree plus top-k unit.
#[derive(Debug, Clone)]
pub struct Scm {
    n_u: usize,
    topk: PHeap,
    stats: ScmStats,
}

impl Scm {
    /// Creates an SCM with an `n_u`-wide reduction tree and a `k`-entry
    /// top-k unit.
    ///
    /// # Panics
    ///
    /// Panics if `n_u == 0` or `k == 0`.
    pub fn new(n_u: usize, k: usize) -> Self {
        assert!(n_u > 0, "SCM needs a non-empty reduction tree");
        Self {
            n_u,
            topk: PHeap::new(k),
            stats: ScmStats::default(),
        }
    }

    /// Activity so far.
    pub fn stats(&self) -> ScmStats {
        self.stats
    }

    /// Scores a slice of unpacked identifier rows against `lut`, pushing
    /// `(ids[i], score)` into the top-k unit.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != rows.len()` or a row width mismatches the
    /// LUT.
    pub fn scan(&mut self, rows: &[Vec<u8>], ids: &[u64], lut: &Lut) {
        assert_eq!(rows.len(), ids.len(), "id/row count mismatch");
        let m = lut.m();
        let cycles_per_vec = m.div_ceil(self.n_u) as f64;
        for (row, &id) in rows.iter().zip(ids) {
            assert_eq!(row.len(), m, "row width mismatches LUT");
            let score = lut.score(row);
            self.topk.offer(id, score);
            self.stats.cycles += cycles_per_vec;
            self.stats.vectors_scored += 1;
            self.stats.lut_reads += m as u64;
        }
    }

    /// Spills the top-k unit's contents to memory records (Section IV-A).
    pub fn spill(&mut self, record_bytes: usize) -> Vec<Neighbor> {
        self.topk.spill(record_bytes)
    }

    /// Restores previously spilled records.
    ///
    /// # Panics
    ///
    /// Panics if more records than `k` are provided or the unit is not
    /// empty.
    pub fn fill(&mut self, records: &[Neighbor], record_bytes: usize) {
        self.topk.fill(records, record_bytes);
    }

    /// Mutable access to the top-k unit (for merging partitions).
    pub fn topk_mut(&mut self) -> &mut PHeap {
        &mut self.topk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anna_index::LutPrecision;
    use anna_quant::pq::{PqCodebook, PqConfig};
    use anna_vector::VectorSet;

    fn lut(m: usize) -> Lut {
        let data = VectorSet::from_fn(m * 2, 64, |r, c| ((r * 5 + c) % 9) as f32);
        let book = PqCodebook::train(
            &data,
            &PqConfig {
                m,
                kstar: 16,
                iters: 3,
                seed: 0,
            },
        );
        Lut::build_ip(&vec![1.0; m * 2], &book, LutPrecision::F16)
    }

    #[test]
    fn scan_cycles_follow_ceil_m_over_nu() {
        let l = lut(8);
        let mut scm = Scm::new(4, 10);
        let rows = vec![vec![0u8; 8]; 5];
        let ids: Vec<u64> = (0..5).collect();
        scm.scan(&rows, &ids, &l);
        // ceil(8/4) = 2 cycles per vector.
        assert_eq!(scm.stats().cycles, 10.0);
        assert_eq!(scm.stats().vectors_scored, 5);
        assert_eq!(scm.stats().lut_reads, 40);
    }

    #[test]
    fn section_3b_example_two_cycles_per_vector() {
        // "when M=128 and N_u=64, the module will take two cycles".
        let mut scm = Scm::new(64, 10);
        let l = {
            let data = VectorSet::from_fn(256, 64, |r, c| ((r + c) % 5) as f32);
            let book = PqCodebook::train(
                &data,
                &PqConfig {
                    m: 128,
                    kstar: 16,
                    iters: 1,
                    seed: 0,
                },
            );
            Lut::build_ip(&vec![0.5; 256], &book, LutPrecision::F16)
        };
        scm.scan(&[vec![0u8; 128]], &[7], &l);
        assert_eq!(scm.stats().cycles, 2.0);
    }

    #[test]
    fn results_come_out_sorted() {
        let l = lut(4);
        let mut scm = Scm::new(4, 3);
        let rows: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8 % 16; 4]).collect();
        let ids: Vec<u64> = (0..8).collect();
        scm.scan(&rows, &ids, &l);
        let res = scm.topk_mut().drain_sorted();
        assert_eq!(res.len(), 3);
        assert!(res[0].score >= res[1].score && res[1].score >= res[2].score);
    }

    #[test]
    fn spill_fill_preserves_state() {
        let l = lut(4);
        let mut a = Scm::new(4, 5);
        let rows: Vec<Vec<u8>> = (0..6).map(|i| vec![(i * 2) as u8 % 16; 4]).collect();
        let ids: Vec<u64> = (0..6).collect();
        a.scan(&rows, &ids, &l);
        let records = a.spill(5);
        let mut b = Scm::new(4, 5);
        b.fill(&records, 5);
        let more_rows = vec![vec![3u8; 4]; 2];
        let more_ids = vec![100u64, 101];
        a.fill(&records, 5);
        a.scan(&more_rows, &more_ids, &l);
        b.scan(&more_rows, &more_ids, &l);
        assert_eq!(a.topk_mut().drain_sorted(), b.topk_mut().drain_sorted());
    }
}
