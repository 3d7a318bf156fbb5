//! Bounded top-k selection.
//!
//! [`TopK`] keeps the `k` candidates with the highest similarity seen so
//! far, discarding the rest — the software analogue of ANNA's top-k
//! selection unit (Section III-B(4)): "if the provided input is larger than
//! the minimum of the currently tracked ones, the input is added to the
//! structure, and the already tracked entry with the smallest score is
//! discarded."

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// A search hit: a database vector id and its similarity to the query
/// (larger = more similar).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// Database vector id.
    pub id: u64,
    /// Similarity score (inner product, or negative squared L2 distance).
    pub score: f32,
}

impl Neighbor {
    /// Creates a neighbor record.
    pub fn new(id: u64, score: f32) -> Self {
        Self { id, score }
    }
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    /// Orders so that "greater" means "better": higher score wins, and for
    /// equal scores the lower id wins, making selection deterministic. NaN
    /// scores sort below all others.
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or_else(|| {
                // Treat NaN as the worst score.
                match (self.score.is_nan(), other.score.is_nan()) {
                    (true, false) => Ordering::Less,
                    (false, true) => Ordering::Greater,
                    _ => Ordering::Equal,
                }
            })
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One kept candidate, 16 bytes: the score's order-preserving integer
/// image, the score itself (returned bit for bit, so a kept `-0.0` stays
/// `-0.0`), and the id.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ord: u32,
    score: f32,
    id: u64,
}

impl Slot {
    /// `score` must not be NaN.
    fn new(id: u64, score: f32) -> Self {
        // `+ 0.0` folds -0.0 onto +0.0 (they compare equal as floats, so
        // they must share a key); then the usual sign flip makes unsigned
        // integer order agree with float order from -inf to +inf.
        let bits = (score + 0.0).to_bits();
        let ord = if bits >> 31 == 0 {
            bits | 0x8000_0000
        } else {
            !bits
        };
        Self { ord, score, id }
    }

    /// The rank key: greater = better, exactly [`Neighbor`]'s order on
    /// non-NaN scores (higher score, then lower id) as one integer, so a
    /// comparison is branch-free.
    fn rank(&self) -> u128 {
        (u128::from(self.ord) << 64) | u128::from(!self.id)
    }

    /// [`Slot::rank`] in 64 bits, exact when the id fits in 32: on such
    /// ids `!(id as u32)` orders exactly as `!id` does.
    fn rank64(&self) -> u64 {
        (u64::from(self.ord) << 32) | u64::from(!(self.id as u32))
    }
}

/// How many candidates a [`TopK`] buffers per kept entry before it
/// settles: the buffer holds up to `BUFFER_FACTOR * k` slots. A settle
/// costs O(buffer), so each one is paid for by the `k` appends before it.
/// Larger buffers (`3k`, `4k`: colder, and a floor that lags further) and
/// smaller ones (`1.25k`, `1.5k`: more settles) measured no faster at the
/// repo benchmark's shape.
const BUFFER_FACTOR: usize = 2;

/// Keeps the `k` highest-score [`Neighbor`]s pushed into it — the software
/// P-heap every engine shares.
///
/// An append-only candidate buffer of 16-byte slots plus a **floor**: the
/// rank of a known `k`-th best slot. A candidate at or below the floor can
/// never be among the best `k` and is rejected with one integer
/// comparison; anything else is appended, unordered. When the buffer first
/// holds `k` slots, and again whenever it reaches `2k`, it **settles**: one
/// partial select (`select_nth_unstable`) keeps the best `k` and raises the
/// floor to the worst of them. A push is thus an amortised O(1) sequential
/// write rather than an O(log k) walk of a heap — which matters when a
/// batch interleaves hundreds of selectors, one cold selector per visit
/// (ANNA's P-heap takes one insertion per cycle and spills and fills
/// intermediate top-k between rounds instead of keeping every heap hot,
/// §III-B(4), §IV-C).
///
/// Slots are ordered by the integer rank key `(ordered_bits(score + 0.0),
/// !id)`, which reproduces [`Neighbor`]'s `Ord` exactly where `push` admits
/// values: NaN is rejected before a key is formed, `-0.0` and `0.0` share
/// a key (and then tie-break by id), and `!id` makes the *lower* id the
/// greater key. The order is total, so the kept set — and everything read
/// from it — is the same whenever the buffer happens to settle.
///
/// # Example
///
/// ```
/// use anna_vector::TopK;
///
/// let mut top = TopK::new(2);
/// top.push(0, 1.0);
/// top.push(1, 5.0);
/// top.push(2, 3.0);
/// let hits = top.into_sorted_vec();
/// assert_eq!(hits.len(), 2);
/// assert_eq!(hits[0].id, 1); // best first
/// assert_eq!(hits[1].id, 2);
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    // Rank of a known k-th best slot; 0, below every admissible rank,
    // until the first settle.
    floor: u128,
    // The floor slot's score: the threshold.
    floor_score: f32,
    // Unordered candidates, every one ranked above `floor`; fewer than 2k.
    slots: Vec<Slot>,
}

impl TopK {
    /// Creates a selector that keeps the best `k` entries.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k requires k > 0");
        Self {
            k,
            floor: 0,
            floor_score: f32::NEG_INFINITY,
            slots: Vec::with_capacity(BUFFER_FACTOR * k),
        }
    }

    /// The configured `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of entries [`TopK::into_sorted_vec`] would return now:
    /// the best-`k`-so-far count (`<= k`).
    pub fn len(&self) -> usize {
        self.slots.len().min(self.k)
    }

    /// Returns `true` if no entries have been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Bytes of candidate storage this selector holds (its buffer's
    /// capacity), the cache footprint a batch's live selectors add up to.
    pub fn buffer_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    /// The current rejection threshold: the score of the floor, a `k`-th
    /// best entry as of the last settle — [`f32::NEG_INFINITY`] until `k`
    /// entries have arrived.
    ///
    /// The threshold is a **lower bound** on the true `k`-th best score,
    /// not the score itself: between settles it lags behind what has been
    /// appended, and it only ever rises. A candidate scoring *strictly
    /// below* it is guaranteed to be rejected by [`TopK::push`], so scan
    /// kernels may filter with `score >= threshold` before paying the push;
    /// a lagging threshold only lets more candidates through (telemetry
    /// counts them, results cannot see them). Candidates at exactly the
    /// threshold must still be offered: the id tie-break can rank them
    /// above the floor (equal score, lower id wins). NaN scores fail
    /// `score >= threshold` for every possible threshold, which matches
    /// `push` rejecting them.
    pub fn threshold(&self) -> f32 {
        self.floor_score
    }

    /// Offers a candidate. Returns `false` if it can never be among the
    /// best `k` (NaN, or ranked at or below the floor) and `true` if it was
    /// buffered — so `true` for every candidate in the best `k` so far,
    /// though a buffered candidate may later be settled away.
    pub fn push(&mut self, id: u64, score: f32) -> bool {
        if score.is_nan() {
            return false;
        }
        let slot = Slot::new(id, score);
        if slot.rank() <= self.floor {
            return false;
        }
        self.slots.push(slot);
        // The buffer holds exactly `k` only on the first fill: every
        // settle leaves `k`, and the next push makes it `k + 1`.
        if self.slots.len() == self.k || self.slots.len() == BUFFER_FACTOR * self.k {
            self.settle();
        }
        true
    }

    /// Keeps the best `k` buffered slots and raises the floor to the worst
    /// of them. Needs at least `k` slots.
    fn settle(&mut self) {
        let k = self.k;
        let (_, kth, _) = self
            .slots
            .select_nth_unstable_by_key(k - 1, |slot| std::cmp::Reverse(slot.rank()));
        self.floor = kth.rank();
        self.floor_score = kth.score;
        self.slots.truncate(k);
    }

    /// Merges another selector's contents into this one.
    ///
    /// # Order independence
    ///
    /// Merging is commutative and associative *in the result set*: as long
    /// as every candidate id is pushed at most once across all selectors
    /// being combined, the surviving set (and therefore
    /// [`TopK::into_sorted_vec`]) does not depend on how candidates were
    /// partitioned or in which order partial selectors are merged. This
    /// holds because [`Neighbor`]'s order is total (higher score first,
    /// equal scores broken by lower id, NaN rejected at [`TopK::push`]), so
    /// "the best `k` of a candidate multiset" is unique. The parallel
    /// batch engine (`anna-index`) relies on this to produce bit-identical
    /// results for any thread schedule.
    pub fn merge(&mut self, other: &TopK) {
        for slot in &other.slots {
            self.push(slot.id, slot.score);
        }
    }

    /// Consumes the selector and returns the kept entries, best first:
    /// one settle to the `k` kept slots, then a sort of only those.
    pub fn into_sorted_vec(mut self) -> Vec<Neighbor> {
        if self.slots.len() > self.k {
            self.settle();
        }
        // Descending rank is `sort_neighbors`' order: no NaN is ever kept.
        // Ids below 2^32 sort on the 64-bit key, which orders them exactly
        // as the full one; a wider id keeps the full key.
        if self.slots.iter().all(|slot| slot.id <= u64::from(u32::MAX)) {
            self.slots
                .sort_unstable_by_key(|slot| std::cmp::Reverse(slot.rank64()));
        } else {
            self.slots
                .sort_unstable_by_key(|slot| std::cmp::Reverse(slot.rank()));
        }
        self.slots
            .iter()
            .map(|slot| Neighbor::new(slot.id, slot.score))
            .collect()
    }

    /// Consumes the selector and returns the kept entries — the set
    /// [`TopK::into_sorted_vec`] returns — in no particular order: one
    /// settle and a truncate, no sort. For consumers that reorder the
    /// entries anyway, like the re-rank stage rescoring them.
    pub fn into_unsorted_vec(mut self) -> Vec<Neighbor> {
        if self.slots.len() > self.k {
            self.settle();
        }
        self.slots
            .iter()
            .map(|slot| Neighbor::new(slot.id, slot.score))
            .collect()
    }
}

/// Sorts neighbors best-first by the workspace's *shared* total order:
/// higher score first, equal scores broken by **lower id**, NaN scores
/// last.
///
/// This is the one ranking rule every ranked-result producer must use —
/// [`TopK::into_sorted_vec`], `exact::search`, `ground_truth`, and the
/// re-rank rescorer all rank through [`Neighbor`]'s `Ord`, so truncating
/// any of their outputs to `k` keeps the *same* ids regardless of input
/// order or kernel family. Recall comparisons between pipelines stay
/// stable under score ties (e.g. duplicated database vectors) because the
/// tie always resolves the same way on both sides.
///
/// The order is total over distinct ids, so an unstable sort gives the
/// same output as a stable one without a scratch allocation.
pub fn sort_neighbors(v: &mut [Neighbor]) {
    v.sort_unstable_by(|a, b| b.cmp(a));
}

impl Extend<Neighbor> for TopK {
    fn extend<T: IntoIterator<Item = Neighbor>>(&mut self, iter: T) {
        for n in iter {
            self.push(n.id, n.score);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k() {
        let mut t = TopK::new(3);
        for (id, s) in [(0, 1.0), (1, 9.0), (2, 2.0), (3, 8.0), (4, 5.0)] {
            t.push(id, s);
        }
        let ids: Vec<u64> = t.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 3, 4]);
    }

    #[test]
    fn truncation_under_ties_keeps_lowest_ids() {
        // Six candidates share one score; any k-truncation must keep the
        // lowest ids, independent of push order.
        let orders: [[u64; 6]; 3] = [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [3, 0, 5, 1, 4, 2]];
        for order in orders {
            let mut t = TopK::new(3);
            for id in order {
                t.push(id, 1.0);
            }
            let ids: Vec<u64> = t.into_sorted_vec().iter().map(|n| n.id).collect();
            assert_eq!(
                ids,
                vec![0, 1, 2],
                "push order {order:?} broke the tie rule"
            );
        }
    }

    #[test]
    fn sort_neighbors_pins_score_then_id() {
        let mut v = vec![
            Neighbor::new(7, 1.0),
            Neighbor::new(2, f32::NAN),
            Neighbor::new(3, 1.0),
            Neighbor::new(9, 2.0),
        ];
        sort_neighbors(&mut v);
        let ids: Vec<u64> = v.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![9, 3, 7, 2]);
    }

    #[test]
    fn threshold_is_neg_infinity_while_empty() {
        let t = TopK::new(2);
        assert_eq!(t.threshold(), f32::NEG_INFINITY);
    }

    #[test]
    fn threshold_is_neg_infinity_while_partially_full() {
        let mut t = TopK::new(3);
        t.push(0, 1.0);
        t.push(1, 9.0);
        assert_eq!(t.threshold(), f32::NEG_INFINITY);
    }

    #[test]
    fn threshold_tracks_worst_kept_score_once_full() {
        // The threshold is the worst kept score at each settle — when the
        // k-th entry arrives, then whenever 2k are buffered — and lags
        // (never passing the true k-th best) in between.
        let mut t = TopK::new(2);
        t.push(10, 1.0);
        t.push(11, 2.0); // first fill settles: floor (10, 1.0)
        assert_eq!(t.threshold(), 1.0);
        assert!(t.push(12, 5.0)); // buffered; the 1.0 is not yet gone
        assert_eq!(t.threshold(), 1.0);
        assert!(!t.push(13, 0.5)); // below the floor
        assert!(t.push(14, 3.0)); // 2k buffered: settles to {5.0, 3.0}
        assert_eq!(t.threshold(), 3.0);
        assert_eq!(t.len(), 2);
        // The floor is exclusive: re-offering the floor entry itself (its
        // rank, not just its score) is rejected, while an equal score with
        // a lower id still ranks above it.
        assert!(!t.push(14, 3.0));
        assert!(t.push(1, 3.0));
        let kept: Vec<u64> = t.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(kept, vec![12, 1]);
    }

    #[test]
    fn nan_push_leaves_threshold_and_contents_untouched() {
        // Regression: a NaN candidate must neither enter the buffer nor
        // perturb the threshold at any fill level — and the kernels'
        // `score >= threshold` pre-filter agrees with push for NaN (the
        // comparison is false even against NEG_INFINITY).
        let mut t = TopK::new(2);
        assert!(!t.push(0, f32::NAN));
        assert_eq!(t.threshold(), f32::NEG_INFINITY);
        let nan_passes_filter = f32::NAN
            .partial_cmp(&t.threshold())
            .is_some_and(|o| o.is_ge());
        assert!(!nan_passes_filter);
        t.push(1, 1.0);
        t.push(2, 2.0);
        assert!(!t.push(3, f32::NAN));
        assert_eq!(t.threshold(), 1.0);
        assert_eq!(t.len(), 2);
        let ids: Vec<u64> = t.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn rejects_below_threshold() {
        let mut t = TopK::new(1);
        assert!(t.push(0, 5.0));
        assert!(!t.push(1, 4.0));
        assert!(t.push(2, 6.0));
        assert_eq!(t.into_sorted_vec()[0].id, 2);
    }

    #[test]
    fn ties_break_toward_lower_id() {
        let mut t = TopK::new(1);
        t.push(7, 5.0);
        assert!(!t.push(9, 5.0), "equal score, higher id must lose");
        let mut t2 = TopK::new(1);
        t2.push(9, 5.0);
        assert!(t2.push(7, 5.0), "equal score, lower id must win");
    }

    #[test]
    fn equal_scores_order_by_ascending_id() {
        // Regression: a tie-heavy stream must come back sorted by id within
        // each score level, regardless of insertion order.
        let mut t = TopK::new(4);
        for id in [9u64, 3, 7, 1, 5] {
            t.push(id, 2.5);
        }
        let ids: Vec<u64> = t.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 3, 5, 7]);
    }

    #[test]
    fn merge_order_does_not_change_result_under_ties() {
        // Two partials holding the same tied score level; merging in either
        // order must keep the lowest ids.
        let mut a = TopK::new(2);
        a.push(10, 1.0);
        a.push(30, 1.0);
        let mut b = TopK::new(2);
        b.push(20, 1.0);
        b.push(5, 1.0);

        let mut ab = TopK::new(2);
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = TopK::new(2);
        ba.merge(&b);
        ba.merge(&a);

        let ids_ab: Vec<u64> = ab.into_sorted_vec().iter().map(|n| n.id).collect();
        let ids_ba: Vec<u64> = ba.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids_ab, vec![5, 10]);
        assert_eq!(ids_ab, ids_ba);
    }

    #[test]
    fn sorted_vec_keeps_the_total_order_for_narrow_and_wide_ids() {
        // A tie-heavy stream (scores from 5 levels, both zeros among them)
        // read out against a full sort by `Neighbor`'s order: with ids below
        // 2^32 (the 64-bit key) and with ids that only differ above bit 32
        // (the full key; their low halves collide).
        let mut state = 0x9E37_79B9u64;
        for wide in [false, true] {
            for k in [1usize, 3, 10, 64] {
                let mut t = TopK::new(k);
                let mut all = Vec::new();
                for i in 0..300u64 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let score = [-1.0f32, -0.0, 0.0, 0.5, 2.0][(state >> 61) as usize % 5];
                    let id = if wide { (i << 32) | 7 } else { i };
                    t.push(id, score);
                    all.push(Neighbor::new(id, score));
                }
                sort_neighbors(&mut all);
                all.truncate(k);
                // ±0 tie by id; each kept score comes back bit for bit.
                let bits = |v: &[Neighbor]| -> Vec<(u64, u32)> {
                    v.iter().map(|n| (n.id, n.score.to_bits())).collect()
                };
                assert_eq!(bits(&t.into_sorted_vec()), bits(&all), "wide={wide} k={k}");
            }
        }
    }

    #[test]
    fn nan_scores_are_rejected() {
        let mut t = TopK::new(2);
        assert!(!t.push(0, f32::NAN));
        assert!(t.is_empty());
    }

    #[test]
    fn merge_combines_selectors() {
        let mut a = TopK::new(2);
        a.push(0, 1.0);
        a.push(1, 2.0);
        let mut b = TopK::new(2);
        b.push(2, 3.0);
        b.push(3, 0.5);
        a.merge(&b);
        let ids: Vec<u64> = a.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn merge_with_empty_shard_is_identity() {
        // The sharded fold merges one selector per shard; a shard whose
        // clusters matched nothing contributes an empty selector, which
        // must leave the accumulator untouched — in both directions.
        let mut acc = TopK::new(3);
        acc.push(1, 2.0);
        acc.push(2, 1.0);
        let empty = TopK::new(3);
        acc.merge(&empty);
        let ids: Vec<u64> = acc.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 2]);

        let mut from_empty = TopK::new(3);
        let mut full = TopK::new(3);
        full.push(1, 2.0);
        full.push(2, 1.0);
        from_empty.merge(&full);
        let ids: Vec<u64> = from_empty.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn merging_only_empty_shards_yields_no_results() {
        let mut acc = TopK::new(4);
        for _ in 0..3 {
            acc.merge(&TopK::new(4));
        }
        assert!(acc.is_empty());
        assert_eq!(acc.threshold(), f32::NEG_INFINITY);
        assert!(acc.into_sorted_vec().is_empty());
    }

    #[test]
    fn merge_with_k_larger_than_total_candidates_keeps_everything() {
        // k = 10 but the shards hold only 4 candidates between them: the
        // merged selector must keep all of them, stay under-full (so its
        // threshold still admits anything), and sort them correctly.
        let mut a = TopK::new(10);
        a.push(7, 1.0);
        a.push(3, 4.0);
        let mut b = TopK::new(10);
        b.push(5, 2.0);
        b.push(9, 3.0);
        let mut acc = TopK::new(10);
        acc.merge(&a);
        acc.merge(&b);
        assert_eq!(acc.len(), 4);
        assert_eq!(acc.threshold(), f32::NEG_INFINITY);
        let ids: Vec<u64> = acc.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 9, 5, 7]);
    }

    #[test]
    fn extend_accepts_neighbors() {
        let mut t = TopK::new(2);
        t.extend(vec![
            Neighbor::new(0, 1.0),
            Neighbor::new(1, 3.0),
            Neighbor::new(2, 2.0),
        ]);
        assert_eq!(t.into_sorted_vec()[0].id, 1);
    }

    #[test]
    #[should_panic(expected = "k > 0")]
    fn zero_k_rejected() {
        let _ = TopK::new(0);
    }

    #[test]
    fn matches_full_sort_on_random_input() {
        // Deterministic pseudo-random stream without the rand crate.
        let mut state = 0x1234_5678u64;
        let mut scores = Vec::new();
        for i in 0..500u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = ((state >> 33) as f32) / (u32::MAX as f32);
            scores.push((i, s));
        }
        let mut t = TopK::new(10);
        for &(id, s) in &scores {
            t.push(id, s);
        }
        let got: Vec<u64> = t.into_sorted_vec().iter().map(|n| n.id).collect();
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let want: Vec<u64> = sorted.iter().take(10).map(|&(id, _)| id).collect();
        assert_eq!(got, want);
    }
}
