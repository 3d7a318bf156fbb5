//! P-heap hardware priority queue — ANNA's top-k selection unit
//! (Section III-B(4), after Bhagwan & Lin, INFOCOM 2000).
//!
//! The unit tracks the `k` largest similarity scores seen, accepting one
//! input per cycle; scores are stored at the hardware's 2-byte precision
//! and spill/fill records are 5 bytes (3 B vector id + 2 B score,
//! Section IV-B). This model is functional (it produces the actual result
//! ids) *and* metered (it counts accepted/rejected inputs and spill/fill
//! traffic for the timing and energy models).

use anna_vector::{f16, Neighbor};

/// Activity counters of a P-heap unit, consumed by the energy model.
///
/// Spills (writes to main memory) and fills (reads back) are counted
/// separately so the traffic/energy model can price reads and writes
/// independently, as Table I does. Every field is a plain sum, so
/// [`PHeapStats::accumulate`] is commutative and associative — partial
/// stats can be combined in any order (the same partition-invariance
/// contract `BatchStats` keeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PHeapStats {
    /// Inputs offered (one per cycle).
    pub inputs: u64,
    /// Inputs that displaced an entry (heap write + sift).
    pub accepted: u64,
    /// Spill events (buffer flushes to main memory).
    pub spills: u64,
    /// Bytes written by spills.
    pub spill_bytes: u64,
    /// Fill events (buffer restores from main memory).
    pub fills: u64,
    /// Bytes read by fills.
    pub fill_bytes: u64,
}

impl PHeapStats {
    /// Adds another unit's counters into this one (field-wise sum).
    pub fn accumulate(&mut self, other: &PHeapStats) {
        self.inputs += other.inputs;
        self.accepted += other.accepted;
        self.spills += other.spills;
        self.spill_bytes += other.spill_bytes;
        self.fills += other.fills;
        self.fill_bytes += other.fill_bytes;
    }
}

/// A fixed-capacity hardware priority queue tracking the `k` best scores.
///
/// # Example
///
/// ```
/// use anna_core::pheap::PHeap;
///
/// let mut heap = PHeap::new(2);
/// heap.offer(10, 1.0);
/// heap.offer(11, 5.0);
/// heap.offer(12, 3.0);
/// let best = heap.drain_sorted();
/// assert_eq!(best[0].id, 11);
/// assert_eq!(best[1].id, 12);
/// ```
#[derive(Debug, Clone)]
pub struct PHeap {
    k: usize,
    /// Array-embedded binary min-heap on score, as the P-heap hardware
    /// lays its SRAM banks out.
    heap: Vec<Neighbor>,
    stats: PHeapStats,
}

impl PHeap {
    /// Creates a unit tracking the best `k` entries.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k capacity must be positive");
        Self {
            k,
            heap: Vec::with_capacity(k),
            stats: PHeapStats::default(),
        }
    }

    /// Capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if the unit holds no entries.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Activity counters so far.
    pub fn stats(&self) -> PHeapStats {
        self.stats
    }

    /// Offers one input (one hardware cycle). The score is rounded through
    /// the 2-byte on-chip format before comparison, as the SRAM stores it.
    /// Returns `true` if the entry was kept.
    pub fn offer(&mut self, id: u64, score: f32) -> bool {
        self.stats.inputs += 1;
        let score = f16::round_trip(score);
        if score.is_nan() {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push(Neighbor::new(id, score));
            self.sift_up(self.heap.len() - 1);
            self.stats.accepted += 1;
            return true;
        }
        let worst = self.heap[0];
        let candidate = Neighbor::new(id, score);
        if candidate > worst {
            self.heap[0] = candidate;
            self.sift_down(0);
            self.stats.accepted += 1;
            true
        } else {
            false
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] < self.heap[parent] {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut min = i;
            if l < self.heap.len() && self.heap[l] < self.heap[min] {
                min = l;
            }
            if r < self.heap.len() && self.heap[r] < self.heap[min] {
                min = r;
            }
            if min == i {
                break;
            }
            self.heap.swap(i, min);
            i = min;
        }
    }

    /// Serializes the current contents to spill records and empties the
    /// unit (the "flush its contents to the main memory" path used by the
    /// batched schedule, Section IV-A). Counts `k · record_bytes` traffic.
    pub fn spill(&mut self, record_bytes: usize) -> Vec<Neighbor> {
        self.stats.spills += 1;
        self.stats.spill_bytes += (self.heap.len() * record_bytes) as u64;
        std::mem::take(&mut self.heap)
    }

    /// Restores previously spilled records (the "initialize its contents
    /// from the main memory" path). Counts the fill traffic.
    ///
    /// # Panics
    ///
    /// Panics if more than `k` records are provided.
    pub fn fill(&mut self, records: &[Neighbor], record_bytes: usize) {
        assert!(records.len() <= self.k, "fill exceeds capacity");
        assert!(self.heap.is_empty(), "fill into a non-empty unit");
        self.stats.fills += 1;
        self.stats.fill_bytes += (records.len() * record_bytes) as u64;
        self.heap.extend_from_slice(records);
        // Rebuild heap order.
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Consumes the unit's contents, best first (the end-of-search result
    /// store to memory).
    pub fn drain_sorted(&mut self) -> Vec<Neighbor> {
        let mut v = std::mem::take(&mut self.heap);
        v.sort_by(|a, b| b.cmp(a));
        v
    }

    /// Merges another unit's drained contents into this one (the
    /// intra-query SCM merge of Section IV-A).
    pub fn merge_from(&mut self, other: &mut PHeap) {
        for n in other.drain_sorted() {
            self.offer(n.id, n.score);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_largest() {
        let mut h = PHeap::new(3);
        for (id, s) in [(0, 5.0), (1, 1.0), (2, 9.0), (3, 7.0), (4, 3.0)] {
            h.offer(id, s);
        }
        let ids: Vec<u64> = h.drain_sorted().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![2, 3, 0]);
    }

    #[test]
    fn scores_are_f16_rounded() {
        let mut h = PHeap::new(1);
        h.offer(0, 1.0009766); // not representable in f16
        let out = h.drain_sorted();
        assert_eq!(out[0].score, f16::round_trip(1.0009766));
    }

    #[test]
    fn f16_rounding_can_merge_near_ties() {
        // Two scores that differ by less than an f16 ulp collapse; the
        // lower id then wins — hardware-faithful tie behavior.
        let mut h = PHeap::new(1);
        h.offer(7, 1000.01);
        assert!(
            !h.offer(9, 1000.02),
            "f16-equal score with higher id must lose"
        );
    }

    #[test]
    fn spill_and_fill_roundtrip() {
        let mut h = PHeap::new(4);
        for i in 0..4 {
            h.offer(i, i as f32);
        }
        let records = h.spill(5);
        assert!(h.is_empty());
        assert_eq!(h.stats().spills, 1);
        assert_eq!(h.stats().spill_bytes, 20);
        assert_eq!(h.stats().fills, 0, "a spill is not a fill");
        let mut h2 = PHeap::new(4);
        h2.fill(&records, 5);
        assert_eq!(h2.len(), 4);
        // The restore is accounted as a fill (memory read), not a spill
        // (memory write) — the two directions price differently in Table I.
        assert_eq!(h2.stats().fills, 1);
        assert_eq!(h2.stats().fill_bytes, 20);
        assert_eq!(h2.stats().spills, 0);
        assert_eq!(h2.stats().spill_bytes, 0);
        // Post-fill behavior must be identical to never having spilled.
        h2.offer(9, 1.5);
        let ids: Vec<u64> = h2.drain_sorted().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 2, 9, 1]);
    }

    #[test]
    fn stats_count_inputs_and_accepts() {
        let mut h = PHeap::new(2);
        h.offer(0, 5.0);
        h.offer(1, 6.0);
        h.offer(2, 1.0); // rejected
        let s = h.stats();
        assert_eq!(s.inputs, 3);
        assert_eq!(s.accepted, 2);
    }

    #[test]
    fn merge_combines_partitions() {
        let mut a = PHeap::new(2);
        a.offer(0, 1.0);
        a.offer(1, 4.0);
        let mut b = PHeap::new(2);
        b.offer(2, 3.0);
        b.offer(3, 2.0);
        a.merge_from(&mut b);
        let ids: Vec<u64> = a.drain_sorted().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn matches_software_topk_on_stream() {
        use anna_vector::TopK;
        let mut h = PHeap::new(8);
        let mut t = TopK::new(8);
        let mut state = 42u64;
        for id in 0..1000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = ((state >> 40) as f32) / 100.0;
            let rounded = f16::round_trip(s);
            h.offer(id, s);
            t.push(id, rounded);
        }
        let hv: Vec<u64> = h.drain_sorted().iter().map(|n| n.id).collect();
        let tv: Vec<u64> = t.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(hv, tv);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_k_rejected() {
        let _ = PHeap::new(0);
    }

    #[test]
    fn stats_accumulate_is_commutative() {
        let a = PHeapStats {
            inputs: 1,
            accepted: 2,
            spills: 3,
            spill_bytes: 4,
            fills: 5,
            fill_bytes: 6,
        };
        let b = PHeapStats {
            inputs: 10,
            accepted: 20,
            spills: 30,
            spill_bytes: 40,
            fills: 50,
            fill_bytes: 60,
        };
        let mut ab = a;
        ab.accumulate(&b);
        let mut ba = b;
        ba.accumulate(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.inputs, 11);
        assert_eq!(ab.fill_bytes, 66);
    }
}
