//! The selector against a reference: whatever mix of single pushes and
//! bulk survivor offers feeds a [`TopK`], however the stream is split
//! between selectors that are then merged, every read-out is "sort
//! everything offered, keep the best `k`" — ids and score bits.
//!
//! The streams are hostile to the selector's keys: NaN, both zeros, runs
//! of equal scores (so settles cut through ties), infinities, and ids that
//! fit 32 bits or only differ above them. Every selector runs the process
//! dispatch: under `avx512` the settles (the read-outs' among them) take
//! their vector arm, under `ANNA_FORCE_SCALAR=1` the portable one, so
//! running the suite both ways covers both.

use anna_testkit::{forall, TestRng};
use anna_vector::{best_positions, sort_neighbors, KernelDispatch, Neighbor, TopK};

/// The `k` values the reference is checked at: the edges, a small odd
/// one, the benchmark's `k`, the largest whose settle fits the vector
/// registers, and one past it.
const KS: [usize; 6] = [1, 2, 7, 100, 128, 256];

/// `(id, score bits)` of `hits`, in order.
fn bits(hits: &[Neighbor]) -> Vec<(u64, u32)> {
    hits.iter().map(|n| (n.id, n.score.to_bits())).collect()
}

/// The reference: every non-NaN candidate, sorted by the shared order,
/// cut to `k`.
fn reference(offered: &[Neighbor], k: usize) -> Vec<(u64, u32)> {
    let mut all: Vec<Neighbor> = offered
        .iter()
        .filter(|n| !n.score.is_nan())
        .copied()
        .collect();
    sort_neighbors(&mut all);
    all.truncate(k);
    bits(&all)
}

/// A score: NaN, a zero of either sign, an infinity, one of four tied
/// levels, or a plain value.
fn score(rng: &mut TestRng) -> f32 {
    match rng.usize(0..10) {
        0 => f32::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => *rng.pick(&[f32::NEG_INFINITY, f32::INFINITY]),
        4..=6 => *rng.pick(&[-2.5, -1.0, 1.0, 3.0]),
        _ => rng.f32(-4.0..4.0),
    }
}

/// `n` candidates with distinct ids: below `2^32`, or spread over the
/// high half so that many share their low 32 bits.
fn stream(rng: &mut TestRng, n: usize, wide: bool) -> Vec<Neighbor> {
    let mut ids: Vec<u64> = (0..n as u64)
        .map(|i| if wide { (i << 32) | 7 } else { 3 * i + 1 })
        .collect();
    // Shuffle, so ids arrive in no particular order.
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.usize(0..i + 1));
    }
    ids.into_iter()
        .map(|id| Neighbor::new(id, score(rng)))
        .collect()
}

/// Feeds `candidates` to `top` in blocks, each either pushed one by one
/// or offered in bulk as a scan's survivors (a block's ids, and the
/// positions and scores of a subset of its rows in ascending position),
/// beside a `shadow` selector that takes the same candidates as one
/// `score >= threshold` test and push each. After every block both must
/// hold the same threshold and read out the same set, and a bulk offer
/// must count what the shadow's tests passed. Returns the candidates
/// offered: all pushed ones, and the survivors of each bulk block.
fn feed(
    rng: &mut TestRng,
    top: &mut TopK,
    shadow: &mut TopK,
    candidates: &[Neighbor],
) -> Vec<Neighbor> {
    let mut offered_all = Vec::new();
    let mut at = 0;
    while at < candidates.len() {
        let block = &candidates[at..(at + rng.usize(1..48)).min(candidates.len())];
        at += block.len();
        if rng.bool() {
            for n in block {
                top.push(n.id, n.score);
                shadow.push(n.id, n.score);
            }
            offered_all.extend_from_slice(block);
        } else {
            // The block's rows; survivors are a subset, ascending.
            let ids: Vec<u64> = block.iter().map(|n| n.id).collect();
            let positions: Vec<u32> = (0..block.len() as u32)
                .filter(|_| rng.usize(0..4) > 0)
                .collect();
            let scores: Vec<f32> = positions.iter().map(|&p| block[p as usize].score).collect();
            let offered = top.offer_survivors(&ids, &positions, &scores);
            let mut passed = 0;
            for &p in &positions {
                let n = block[p as usize];
                offered_all.push(n);
                if n.score >= shadow.threshold() {
                    passed += 1;
                    shadow.push(n.id, n.score);
                }
            }
            assert_eq!(offered, passed, "offers counted");
        }
        assert_eq!(top.threshold().to_bits(), shadow.threshold().to_bits());
        assert_eq!(top.len(), shadow.len());
    }
    assert_eq!(
        bits(&top.clone().into_sorted_vec()),
        bits(&shadow.clone().into_sorted_vec())
    );
    offered_all
}

/// Single and bulk offers interleaved into two selectors, then merged
/// both ways: every read-out — sorted, unsorted (then sorted), after the
/// merge and before it — is the reference's, and the threshold never
/// passes the true `k`-th best of what was offered.
#[test]
fn selector_matches_sort_everything_keep_k() {
    let dispatch = KernelDispatch::current().name();
    forall("selector == sort everything, keep k", 48, |rng| {
        for k in KS {
            for wide in [false, true] {
                let at = format!("k={k} wide={wide} dispatch={dispatch}");
                let n = rng.usize(0..4 * k + 60);
                let all = stream(rng, n, wide);
                let cut = rng.usize(0..n + 1);
                let (first, second) = all.split_at(cut);
                let (mut a, mut b) = (TopK::new(k), TopK::new(k));
                let first = feed(rng, &mut a, &mut TopK::new(k), first);
                let second = feed(rng, &mut b, &mut TopK::new(k), second);
                assert_eq!(
                    bits(&a.clone().into_sorted_vec()),
                    reference(&first, k),
                    "{at}: first"
                );
                assert_eq!(
                    bits(&b.clone().into_sorted_vec()),
                    reference(&second, k),
                    "{at}: second"
                );
                let want = reference(&[first, second].concat(), k);
                if let Some(&(_, kth)) = want.get(k - 1) {
                    for top in [&a, &b] {
                        assert!(
                            top.threshold() <= f32::from_bits(kth),
                            "{at}: threshold passed the k-th best"
                        );
                    }
                }
                let mut ab = a.clone();
                ab.merge(&b);
                let mut ba = b.clone();
                ba.merge(&a);
                assert_eq!(bits(&ab.clone().into_sorted_vec()), want, "{at}: a + b");
                assert_eq!(bits(&ba.into_sorted_vec()), want, "{at}: b + a");
                let mut unsorted = ab.into_unsorted_vec();
                sort_neighbors(&mut unsorted);
                assert_eq!(bits(&unsorted), want, "{at}: unsorted");
            }
        }
    });
}

/// [`best_positions`] lists what a selector of `n` fed every `(position,
/// score)` reads out, for `n` from none to past the scores' count.
#[test]
fn best_positions_is_the_selectors_read_out() {
    forall("best positions == selector read-out", 128, |rng| {
        let scores: Vec<f32> = (0..rng.usize(0..80)).map(|_| score(rng)).collect();
        for n in [0, 1, 2, 7, 32, 100] {
            let want: Vec<usize> = if n == 0 {
                Vec::new()
            } else {
                let mut top = TopK::new(n);
                for (at, &s) in scores.iter().enumerate() {
                    top.push(at as u64, s);
                }
                top.into_sorted_vec()
                    .iter()
                    .map(|h| h.id as usize)
                    .collect()
            };
            assert_eq!(best_positions(&scores, n), want, "n={n} {scores:?}");
        }
    });
}
