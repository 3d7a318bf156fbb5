//! Bounded top-k selection.
//!
//! [`TopK`] keeps the `k` candidates with the highest similarity seen so
//! far, discarding the rest — the software analogue of ANNA's top-k
//! selection unit (Section III-B(4)): "if the provided input is larger than
//! the minimum of the currently tracked ones, the input is added to the
//! structure, and the already tracked entry with the smallest score is
//! discarded."

use crate::KernelDispatch;
use std::cmp::Ordering;

/// A search hit: a database vector id and its similarity to the query
/// (larger = more similar).
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// The score's order-preserving integer image: unsigned order on it is
/// float order on non-NaN scores. `+ 0.0` folds `-0.0` onto `+0.0` (they
/// compare equal as floats, so they must share a key); then the usual
/// sign flip orders `-inf` below every finite score below `+inf`. Every
/// admissible image is at least `ord(-inf) = 0x007F_FFFF`, above the empty
/// floor's 0.
#[inline]
fn ord(score: f32) -> u32 {
    let bits = (score + 0.0).to_bits();
    if bits >> 31 == 0 {
        bits | 0x8000_0000
    } else {
        !bits
    }
}

/// The score whose [`ord`] is `ord`: exact for every score but `-0.0`,
/// which comes back as `+0.0`.
#[inline]
fn score_of(ord: u32) -> f32 {
    f32::from_bits(if ord >> 31 == 1 {
        ord & 0x7FFF_FFFF
    } else {
        !ord
    })
}

/// The full rank key: greater = better, exactly [`Neighbor`]'s order on
/// non-NaN scores (higher score, then lower id) as one integer.
#[inline]
fn rank(ord: u32, id: u64) -> u128 {
    (u128::from(ord) << 64) | u128::from(!id)
}

/// How many candidates a [`TopK`] buffers per kept entry before it
/// settles: the buffer holds up to `BUFFER_FACTOR * k` slots. A settle
/// costs O(buffer), so each one is paid for by the `k` appends before it.
/// The factor decides when each settle raises the floor, and so what the
/// scans' `kernel.pruned` counts; no other factor has been measured since
/// the seeded visits changed how many offers a selector meets.
const BUFFER_FACTOR: usize = 2;

/// Keeps the `k` highest-score [`Neighbor`]s pushed into it — the software
/// P-heap every engine shares.
///
/// An append-only candidate buffer plus a **floor**: the rank of a known
/// `k`-th best slot. A candidate at or below the floor can never be among
/// the best `k` and is rejected; anything else is appended, unordered.
/// When the buffer first holds `k` slots, and again whenever it reaches
/// `2k`, it **settles**: it finds the `k`-th best key, keeps the best `k`
/// and raises the floor to the worst of them. A push is thus an amortised
/// O(1) sequential write rather than an O(log k) walk of a heap — which
/// matters when a batch interleaves hundreds of selectors, one cold
/// selector per visit (ANNA's P-heap takes one insertion per cycle and
/// spills and fills intermediate top-k between rounds instead of keeping
/// every heap hot, §III-B(4), §IV-C).
///
/// The buffer is three parallel arrays — each slot's score image
/// (`ord`), id and score — of `2k` slots reserved up front, filled through
/// one length, so an append is three stores and no growth check; a settle
/// reads 4-byte keys: it bisects the score images for the `k`-th largest,
/// counting how many reach each probe, and only ids tied at that image
/// decide by id. Under the `avx512` dispatch the count and the compaction
/// run sixteen slots per instruction (`avx512::settle`); every other
/// dispatch runs the same steps one slot at a time (`settle_portable`).
/// Both keep the same set and floor. [`TopK::reset`] and the `drain_*`
/// read-outs let a caller reuse one selector's buffers for the next query.
///
/// Slots are ordered by the key `(ord(score), !id)`, which reproduces
/// [`Neighbor`]'s `Ord` exactly where `push` admits values: NaN is
/// rejected before a key is formed, `-0.0` and `0.0` share an image (and
/// then tie-break by id), and `!id` makes the *lower* id the greater key.
/// The order is total, so the kept set — and everything read from it — is
/// the same whenever the buffer happens to settle. Each kept score is
/// returned bit for bit (a kept `-0.0` stays `-0.0`).
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
    // The buffer length that triggers the next settle: `k` until the first
    // settle, `BUFFER_FACTOR * k` after.
    settle_at: usize,
    // Rank of a known k-th best slot; 0, below every admissible rank,
    // until the first settle.
    floor: u128,
    // The floor slot's score: the threshold.
    floor_score: f32,
    // The unordered candidates, every one ranked above `floor`, fewer than
    // `settle_at`: slot `i < len` is `(ords[i], ids[i], scores[i])`. Each
    // array holds at least `BUFFER_FACTOR * k` slots, reserved up front.
    len: usize,
    ords: Vec<u32>,
    ids: Vec<u64>,
    scores: Vec<f32>,
}

impl TopK {
    /// Creates a selector that keeps the best `k` entries.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        let mut top = Self {
            k,
            settle_at: k,
            floor: 0,
            floor_score: f32::NEG_INFINITY,
            len: 0,
            ords: Vec::new(),
            ids: Vec::new(),
            scores: Vec::new(),
        };
        top.reset(k);
        top
    }

    /// Empties the selector and makes it keep the best `k`: the state of
    /// [`TopK::new`]`(k)`, in the buffers this one already holds (grown if
    /// `k` needs more slots), so a recycled selector allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn reset(&mut self, k: usize) {
        assert!(k > 0, "top-k requires k > 0");
        let slots = BUFFER_FACTOR * k;
        if self.ords.len() < slots {
            self.ords.resize(slots, 0);
            self.ids.resize(slots, 0);
            self.scores.resize(slots, 0.0);
        }
        self.k = k;
        self.settle_at = k;
        self.floor = 0;
        self.floor_score = f32::NEG_INFINITY;
        self.len = 0;
    }

    /// The configured `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of entries [`TopK::into_sorted_vec`] would return now:
    /// the best-`k`-so-far count (`<= k`).
    pub fn len(&self) -> usize {
        self.len.min(self.k)
    }

    /// Returns `true` if no entries have been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of candidate storage this selector holds (its buffers'
    /// capacity: at least `2k` slots), the cache footprint a batch's live
    /// selectors add up to.
    pub fn buffer_bytes(&self) -> usize {
        self.ords.capacity() * std::mem::size_of::<u32>()
            + self.ids.capacity() * std::mem::size_of::<u64>()
            + self.scores.capacity() * std::mem::size_of::<f32>()
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
        let ord = ord(score);
        if rank(ord, id) <= self.floor {
            return false;
        }
        self.append(ord, id, score);
        true
    }

    /// Offers one block's survivors: `(ids[positions[i]], scores[i])` for
    /// each `i` in order, each only if its score still reaches the live
    /// [`TopK::threshold`] — re-tested per candidate, since a settle on the
    /// way can raise it. Returns how many passed that test (the scan's
    /// offers), whether or not the id tie-break then buffered them: the
    /// same selector state and count as a loop of `score >= threshold`
    /// tests and [`TopK::push`]es, without a NaN test (NaN fails the
    /// threshold test) or a full-rank comparison for a score above the
    /// threshold. One survivor at a time on every dispatch: a sixteen-wide
    /// `avx512` offer (compare, gather, compress-store appends) measured no
    /// faster end to end on `batch_k16`. Between settles the floor is
    /// held in registers and the survivors are appended through one local
    /// length into the slots up to `settle_at`.
    ///
    /// # Panics
    ///
    /// Panics if `positions` and `scores` differ in length or a position
    /// is out of `ids`' range.
    pub fn offer_survivors(&mut self, ids: &[u64], positions: &[u32], scores: &[f32]) -> u64 {
        assert_eq!(positions.len(), scores.len(), "one score per position");
        let mut offered = 0;
        let mut survivors = positions.iter().zip(scores);
        loop {
            // Until the buffer reaches `settle_at`, the floor stands.
            let (floor, floor_score, end) = (self.floor, self.floor_score, self.settle_at);
            let (ords, slot_ids, slot_scores) = (
                &mut self.ords[..end],
                &mut self.ids[..end],
                &mut self.scores[..end],
            );
            let mut len = self.len;
            for (&at, &score) in survivors.by_ref() {
                // NaN fails too.
                if score.partial_cmp(&floor_score).is_none_or(|o| o.is_lt()) {
                    continue;
                }
                offered += 1;
                let (id, ord) = (ids[at as usize], ord(score));
                // Above the floor's score, the rank is above the floor's
                // too; at it, the id decides.
                if score == floor_score && rank(ord, id) <= floor {
                    continue;
                }
                (ords[len], slot_ids[len], slot_scores[len]) = (ord, id, score);
                len += 1;
                if len == end {
                    break;
                }
            }
            self.len = len;
            if len < end {
                return offered;
            }
            self.settle();
        }
    }

    /// Buffers a slot ranked above the floor, settling when the buffer
    /// reaches `settle_at`.
    #[inline]
    fn append(&mut self, ord: u32, id: u64, score: f32) {
        let at = self.len;
        (self.ords[at], self.ids[at], self.scores[at]) = (ord, id, score);
        self.len = at + 1;
        if self.len == self.settle_at {
            self.settle();
        }
    }

    /// Keeps the best `k` buffered slots and raises the floor to the worst
    /// of them. Needs at least `k` slots.
    fn settle(&mut self) {
        #[cfg(target_arch = "x86_64")]
        if KernelDispatch::current() == KernelDispatch::Avx512 && self.len <= avx512::SLOTS {
            // SAFETY: the `avx512` dispatch is current only on a host with
            // its level, which includes `avx512f` and `popcnt`; the buffer
            // holds `k` slots or more (every caller's precondition) and at
            // most `SLOTS`.
            unsafe { avx512::settle(self) };
            return;
        }
        settle_portable(self);
    }

    /// Drops every slot past the first `n`.
    fn keep_first(&mut self, n: usize) {
        self.len = self.len.min(n);
    }

    /// The buffered slots' score images, ids and scores.
    fn slots(&self) -> (&[u32], &[u64], &[f32]) {
        let n = self.len;
        (&self.ords[..n], &self.ids[..n], &self.scores[..n])
    }

    /// The last step of a settle that has kept the best `k` slots, `t`
    /// their least score image: the floor is the kept slot of image `t`
    /// with the greatest id (the `k`-th best), and its score is the
    /// threshold.
    fn raise_floor(&mut self, t: u32) {
        let (ords, ids, _) = self.slots();
        let id = ords
            .iter()
            .zip(ids)
            .filter(|&(&o, _)| o == t)
            .map(|(_, &id)| id)
            .max()
            .expect("a kept slot of the k-th image");
        self.set_floor(t, id);
    }

    /// Makes the kept slot `(t, id)` the floor. Its score is the image's
    /// own, but for the image both zeros share, where the slot's sign is
    /// looked up.
    fn set_floor(&mut self, t: u32, id: u64) {
        debug_assert_eq!(self.len, self.k);
        self.floor = rank(t, id);
        self.floor_score = if t == ord(0.0) {
            let (ords, ids, scores) = self.slots();
            let at = (ords.iter().zip(ids))
                .position(|(&o, &i)| o == t && i == id)
                .expect("the floor slot is kept");
            scores[at]
        } else {
            score_of(t)
        };
        self.settle_at = BUFFER_FACTOR * self.k;
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
        let (_, ids, scores) = other.slots();
        for (&id, &score) in ids.iter().zip(scores) {
            self.push(id, score);
        }
    }

    /// Consumes the selector and returns the kept entries, best first:
    /// [`TopK::drain_sorted`] of a selector no one reuses.
    pub fn into_sorted_vec(mut self) -> Vec<Neighbor> {
        self.drain_sorted()
    }

    /// Returns the kept entries, best first, and leaves the selector empty
    /// for reuse, as [`TopK::reset`] to the same `k` does: one settle to
    /// the `k` kept slots, then a sort of only those. When every kept id
    /// fits 32 bits and no kept score is `-0.0`, the sort is of the 64-bit
    /// keys `(ord(score), !(id as u32))` themselves — which order those
    /// slots exactly as the full key does, written over the ids in place —
    /// and each entry is rebuilt from its key, its score from its image
    /// (exact for every score but `-0.0`); otherwise the entries are
    /// sorted by [`sort_neighbors`].
    pub fn drain_sorted(&mut self) -> Vec<Neighbor> {
        if self.len > self.k {
            self.settle();
        }
        let (_, ids, scores) = self.slots();
        let narrow = ids.iter().all(|&id| id <= u64::from(u32::MAX))
            && scores.iter().all(|s| s.to_bits() != (-0.0f32).to_bits());
        let hits = if narrow {
            let n = self.len;
            let keys = &mut self.ids[..n];
            for (key, &ord) in keys.iter_mut().zip(&self.ords[..n]) {
                *key = (u64::from(ord) << 32) | u64::from(!(*key as u32));
            }
            keys.sort_unstable();
            keys.iter()
                .rev()
                .map(|&key| Neighbor::new(u64::from(!(key as u32)), score_of((key >> 32) as u32)))
                .collect()
        } else {
            let mut hits = self.kept();
            sort_neighbors(&mut hits);
            hits
        };
        self.reset(self.k);
        hits
    }

    /// Consumes the selector and returns the kept entries — the set
    /// [`TopK::into_sorted_vec`] returns — in no particular order:
    /// [`TopK::drain_unsorted`] of a selector no one reuses.
    pub fn into_unsorted_vec(mut self) -> Vec<Neighbor> {
        self.drain_unsorted()
    }

    /// Returns the kept entries — the set [`TopK::drain_sorted`] returns —
    /// in no particular order, and leaves the selector empty for reuse: one
    /// settle, no sort. For consumers that reorder the entries anyway,
    /// like the re-rank stage rescoring them.
    pub fn drain_unsorted(&mut self) -> Vec<Neighbor> {
        if self.len > self.k {
            self.settle();
        }
        let hits = self.kept();
        self.reset(self.k);
        hits
    }

    /// The buffered slots as neighbors, in buffer order.
    fn kept(&self) -> Vec<Neighbor> {
        let (_, ids, scores) = self.slots();
        ids.iter()
            .zip(scores)
            .map(|(&id, &score)| Neighbor::new(id, score))
            .collect()
    }
}

/// The portable settle: [`bisect`] by one-slot-at-a-time counts, then a
/// branch-free compaction of the slots at or above the `k`-th image, in
/// buffer order. When more slots than `k` tie at that image,
/// [`settle_ties`] decides among them by id.
fn settle_portable(top: &mut TopK) {
    let ords = &top.ords[..top.len];
    let (least, most) = ords
        .iter()
        .fold((u32::MAX, 0), |(lo, hi), &o| (lo.min(o), hi.max(o)));
    let t = bisect(
        least,
        most,
        top.k,
        |probe| ords.iter().map(|&o| usize::from(o >= probe)).sum(),
        |probe| ords.iter().copied().filter(|&o| o >= probe).min(),
    );
    if ords.iter().filter(|&&o| o >= t).count() > top.k {
        return settle_ties(top, t);
    }
    let mut kept = 0;
    for i in 0..top.len {
        let (o, id, score) = (top.ords[i], top.ids[i], top.scores[i]);
        (top.ords[kept], top.ids[kept], top.scores[kept]) = (o, id, score);
        kept += usize::from(o >= t);
    }
    top.keep_first(kept);
    top.raise_floor(t);
}

/// The `k`-th largest of a buffer's score images, `least` and `most` its
/// extremes and `1 <= k <=` its length: the largest `t` with at least `k`
/// images `>= t`, by bisection, `count(probe)` the number of images `>=
/// probe`. A probe that exactly `k` images reach ends the search at the
/// least of them, `least_reaching(probe)`.
#[inline(always)]
fn bisect(
    least: u32,
    most: u32,
    k: usize,
    mut count: impl FnMut(u32) -> usize,
    mut least_reaching: impl FnMut(u32) -> Option<u32>,
) -> u32 {
    // At least `k` images reach `lo`; fewer than `k` reach `hi`.
    let (mut lo, mut hi) = (u64::from(least), u64::from(most) + 1);
    while hi - lo > 1 {
        let probe = (lo + (hi - lo) / 2) as u32;
        let n = count(probe);
        if n == k {
            return least_reaching(probe).unwrap_or(probe);
        }
        // A select, not a branch: which way a probe goes is a coin toss.
        let reached = n > k;
        lo = if reached { u64::from(probe) } else { lo };
        hi = if reached { hi } else { u64::from(probe) };
    }
    lo as u32
}

/// A settle whose `k`-th image `t` is shared by more slots than the best
/// `k` can take: the slots above `t` stay, and of those at `t` the ones
/// with the lowest ids fill the rest (a duplicated offer fills one place
/// per copy).
fn settle_ties(top: &mut TopK, t: u32) {
    let (ords, ids, _) = top.slots();
    let above = ords.iter().filter(|&&o| o > t).count();
    let mut tied: Vec<u64> = ords
        .iter()
        .zip(ids)
        .filter(|&(&o, _)| o == t)
        .map(|(_, &id)| id)
        .collect();
    let need = top.k - above;
    let (_, &mut last, _) = tied.select_nth_unstable(need - 1);
    // Places left for the copies of `last` once every lower id is in.
    let mut room = need - tied.iter().filter(|&&id| id < last).count();
    let mut kept = 0;
    for i in 0..top.len {
        let (o, id, score) = (top.ords[i], top.ids[i], top.scores[i]);
        let keep = o > t || (o == t && (id < last || (id == last && room > 0)));
        if o == t && id == last && keep {
            room -= 1;
        }
        if keep {
            (top.ords[kept], top.ids[kept], top.scores[kept]) = (o, id, score);
            kept += 1;
        }
    }
    top.keep_first(kept);
    top.raise_floor(t);
}

/// The `avx512` settle: the portable one's steps, sixteen slots per
/// instruction.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{bisect, settle_ties, TopK};
    use std::arch::x86_64::*;

    /// Most slots [`settle`] keeps in registers: sixteen ZMM registers of
    /// score images. A larger buffer (`k` above 128) settles portably.
    pub(super) const SLOTS: usize = 16 * 16;

    /// [`super::settle_portable`] in ZMM registers: the buffer's score
    /// images are loaded once into sixteen registers (the slots past the
    /// buffer read as 0, below every admissible image, so no probe counts
    /// them), each bisection count is one `vpcmpud` and `popcnt` per
    /// register, and the compaction (`vpcompressd`/`vpcompressq` of each
    /// array, stored at the kept count under a mask of the lanes kept)
    /// reads the buffer sixteen slots at a time, masked to the buffer. It
    /// writes in place: a store at the kept count never passes the slots
    /// already loaded, since no more are kept than read. If more slots
    /// than `k` reached the `k`-th image, the compacted buffer — exactly
    /// the slots at or above it — goes to [`settle_ties`].
    ///
    /// # Safety
    ///
    /// The host supports `avx512f` and `popcnt`; `top` holds at least `k`
    /// and at most [`SLOTS`] slots.
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) unsafe fn settle(top: &mut TopK) {
        let n = top.len;
        // The masked accesses below read and write all three arrays up to
        // the buffer's length.
        assert!(n <= SLOTS && top.ords.len() >= n && top.ids.len() >= n && top.scores.len() >= n);
        let regs = n.div_ceil(16);
        // The live lanes of register `r`: all sixteen below the last, none
        // past it.
        let live = |r: usize| -> u16 { ((1u32 << (n.saturating_sub(16 * r)).min(16)) - 1) as u16 };
        let ords = top.ords.as_mut_ptr();
        // Masked-off lanes read nothing (fault suppression is
        // architectural), so no load leaves the buffer.
        let load = |r: usize| _mm512_maskz_loadu_epi32(live(r), ords.wrapping_add(16 * r).cast());
        let v: [__m512i; SLOTS / 16] = std::array::from_fn(load);
        let (mut least, mut most) = (_mm512_set1_epi32(-1), _mm512_setzero_si512());
        for (r, &v) in v.iter().enumerate() {
            least = _mm512_mask_min_epu32(least, live(r), least, v);
            most = _mm512_max_epu32(most, v);
        }
        let t = bisect(
            _mm512_reduce_min_epu32(least),
            _mm512_reduce_max_epu32(most),
            top.k,
            |probe| {
                let probe = _mm512_set1_epi32(probe as i32);
                v[..regs]
                    .iter()
                    .map(|&v| _mm512_cmpge_epu32_mask(v, probe).count_ones() as usize)
                    .sum()
            },
            |probe| {
                let probe = _mm512_set1_epi32(probe as i32);
                let mut least = _mm512_set1_epi32(-1);
                for &v in &v[..regs] {
                    let reach = _mm512_cmpge_epu32_mask(v, probe);
                    least = _mm512_mask_min_epu32(least, reach, least, v);
                }
                Some(_mm512_reduce_min_epu32(least))
            },
        );
        let (ids, scores) = (top.ids.as_mut_ptr(), top.scores.as_mut_ptr());
        let vt = _mm512_set1_epi32(t as i32);
        // The greatest id among the kept slots of image `t`: the floor's.
        let mut floor_id = _mm512_setzero_si512();
        let mut kept = 0;
        for r in 0..regs {
            let m = live(r);
            let o = load(r);
            let s = _mm512_maskz_loadu_ps(m, scores.add(16 * r));
            let id = [
                _mm512_maskz_loadu_epi64(m as u8, ids.add(16 * r).cast()),
                _mm512_maskz_loadu_epi64((m >> 8) as u8, ids.wrapping_add(16 * r + 8).cast()),
            ];
            let keep = _mm512_mask_cmpge_epu32_mask(m, o, vt);
            let at_t = _mm512_mask_cmpeq_epu32_mask(m, o, vt);
            floor_id = _mm512_mask_max_epu64(floor_id, at_t as u8, floor_id, id[0]);
            floor_id = _mm512_mask_max_epu64(floor_id, (at_t >> 8) as u8, floor_id, id[1]);
            let (low, all) = ((keep as u8).count_ones(), keep.count_ones());
            let out = ((1u32 << all) - 1) as u16;
            _mm512_mask_storeu_epi32(
                ords.add(kept).cast(),
                out,
                _mm512_maskz_compress_epi32(keep, o),
            );
            _mm512_mask_storeu_ps(scores.add(kept), out, _mm512_maskz_compress_ps(keep, s));
            _mm512_mask_storeu_epi64(
                ids.add(kept).cast(),
                ((1u32 << low) - 1) as u8,
                _mm512_maskz_compress_epi64(keep as u8, id[0]),
            );
            _mm512_mask_storeu_epi64(
                ids.wrapping_add(kept + low as usize).cast(),
                ((1u32 << (all - low)) - 1) as u8,
                _mm512_maskz_compress_epi64((keep >> 8) as u8, id[1]),
            );
            kept += all as usize;
        }
        top.keep_first(kept);
        if kept > top.k {
            return settle_ties(top, t);
        }
        top.set_floor(t, _mm512_reduce_max_epu64(floor_id));
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

/// The positions of the `n` best of `scores`, best first, in [`TopK`]'s
/// order: higher score first, equal scores (`-0.0` and `0.0` among them)
/// to the lower position, NaN never — so fewer than `n` when fewer scores
/// are not NaN. The same list as pushing every `(position, score)` into a
/// `TopK::new(n)` and reading its ids out, with no selector: one partial
/// select and one sort of the 64-bit keys `(ord(score), !position)`, the
/// result built in their allocation.
///
/// # Panics
///
/// Panics if `scores` holds more than `2^32` entries.
pub fn best_positions(scores: &[f32], n: usize) -> Vec<usize> {
    assert!(
        scores.len() <= 1 << 32,
        "positions must fit the key's 32 bits"
    );
    let mut keys: Vec<u64> = scores
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_nan())
        .map(|(at, &s)| (u64::from(ord(s)) << 32) | u64::from(!(at as u32)))
        .collect();
    if n == 0 {
        keys.clear();
    } else if keys.len() > n {
        keys.select_nth_unstable_by_key(n - 1, |&key| std::cmp::Reverse(key));
        keys.truncate(n);
    }
    keys.sort_unstable_by_key(|&key| std::cmp::Reverse(key));
    keys.into_iter().map(|key| !(key as u32) as usize).collect()
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
    fn a_drained_selector_is_a_fresh_one() {
        // One selector drained and reset across different `k` (growing and
        // shrinking) and streams must read out what a fresh `TopK::new`
        // fed the same stream reads out, sorted and unsorted.
        let mut state = 0x5EED_u64;
        let mut recycled = TopK::new(3);
        for (round, k) in [3usize, 40, 7, 7, 120, 1].into_iter().enumerate() {
            recycled.reset(k);
            let mut fresh = TopK::new(k);
            for i in 0..500u64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let score = ((state >> 40) % 97) as f32 - 48.0;
                recycled.push(i, score);
                fresh.push(i, score);
            }
            assert_eq!(recycled.threshold(), fresh.threshold(), "round {round}");
            let want = fresh.into_sorted_vec();
            if round % 2 == 0 {
                assert_eq!(recycled.drain_sorted(), want, "round {round}");
            } else {
                let mut got = recycled.drain_unsorted();
                sort_neighbors(&mut got);
                assert_eq!(got, want, "round {round}");
            }
            assert!(recycled.is_empty());
            assert_eq!(recycled.threshold(), f32::NEG_INFINITY);
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
