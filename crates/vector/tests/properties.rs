//! Property-based tests for the vector substrate (seeded `anna-testkit`
//! harness; failures report a replayable seed).

use anna_testkit::{forall, same_f32_bits, TestRng};
use anna_vector::{exact, f16, sort_neighbors, Metric, Neighbor, TopK, VectorSet};

/// Values within f16's dynamic range so round-trips remain finite.
fn finite_f32(rng: &mut TestRng) -> f32 {
    rng.f32(-6.0e4..6.0e4)
}

/// f32 -> f16 -> f32 error is within half-precision relative epsilon
/// (2^-11) for values in the normal range.
#[test]
fn f16_round_trip_error_bounded() {
    forall("f16 round trip error bounded", 256, |rng| {
        let v = finite_f32(rng);
        let r = f16::round_trip(v);
        let tol = v.abs().max(f32::from(anna_vector::F16::from_bits(0x0400))) * 2.0f32.powi(-11);
        assert!((r - v).abs() <= tol.max(2.0f32.powi(-24)), "v={v} r={r}");
    });
}

/// Round-tripping is idempotent: a value already representable in f16
/// maps to itself.
#[test]
fn f16_round_trip_idempotent() {
    forall("f16 round trip idempotent", 256, |rng| {
        let v = finite_f32(rng);
        let once = f16::round_trip(v);
        let twice = f16::round_trip(once);
        assert_eq!(once.to_bits(), twice.to_bits());
    });
}

/// f16 conversion preserves ordering (monotone).
#[test]
fn f16_conversion_is_monotone() {
    forall("f16 conversion is monotone", 256, |rng| {
        let a = finite_f32(rng);
        let b = finite_f32(rng);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(f16::round_trip(lo) <= f16::round_trip(hi));
    });
}

/// L2 similarity is symmetric and maximized by self-similarity.
#[test]
fn l2_symmetric_and_self_maximal() {
    forall("l2 symmetric and self maximal", 256, |rng| {
        let a = rng.vec_f32(8, -100.0..100.0);
        let b = rng.vec_f32(8, -100.0..100.0);
        let sab = Metric::L2.similarity(&a, &b);
        let sba = Metric::L2.similarity(&b, &a);
        assert!((sab - sba).abs() <= 1e-2 * (1.0 + sab.abs()));
        assert!(Metric::L2.similarity(&a, &a) >= sab - 1e-3);
        assert!(sab <= 0.0);
    });
}

/// Inner product is bilinear in its first argument (up to float error).
#[test]
fn inner_product_scales_linearly() {
    forall("inner product scales linearly", 256, |rng| {
        let a = rng.vec_f32(16, -10.0..10.0);
        let b = rng.vec_f32(16, -10.0..10.0);
        let c = rng.f32(-4.0..4.0);
        let scaled: Vec<f32> = a.iter().map(|x| x * c).collect();
        let lhs = Metric::InnerProduct.similarity(&scaled, &b);
        let rhs = c * Metric::InnerProduct.similarity(&a, &b);
        assert!((lhs - rhs).abs() <= 1e-2 * (1.0 + rhs.abs()));
    });
}

/// TopK returns exactly what a full sort would — including on tie-heavy
/// score streams, where equal scores must order by ascending id.
#[test]
fn topk_matches_sort() {
    forall("topk matches sort", 256, |rng| {
        let n = rng.usize(1..200);
        let k = rng.usize(1..20);
        // Half the cases use a tie-heavy palette so the id tie-break is
        // exercised, not just the score order.
        let scores = if rng.bool() {
            let levels = rng.usize(1..6);
            rng.tie_heavy_scores(n, levels, -1.0e3..1.0e3)
        } else {
            rng.vec_f32(n, -1.0e3..1.0e3)
        };
        let mut t = TopK::new(k);
        for (id, &s) in scores.iter().enumerate() {
            t.push(id as u64, s);
        }
        let got: Vec<u64> = t.into_sorted_vec().iter().map(|n| n.id).collect();

        let mut all: Vec<(u64, f32)> = scores
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, s)| (i as u64, s))
            .collect();
        all.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap().then(x.0.cmp(&y.0)));
        let want: Vec<u64> = all.iter().take(k).map(|&(i, _)| i).collect();
        assert_eq!(got, want);
    });
}

/// Merging per-partition TopKs gives the same result as pushing every
/// candidate into one selector, for any partition of the candidates —
/// the order-independence contract the parallel batch engine relies on.
#[test]
fn topk_merge_is_partition_invariant() {
    forall("topk merge is partition invariant", 128, |rng| {
        let n = rng.usize(1..300);
        let k = rng.usize(1..24);
        let parts = rng.usize(1..9);
        let levels = rng.usize(1..8);
        let scores = rng.tie_heavy_scores(n, levels, -50.0..50.0);

        let mut reference = TopK::new(k);
        for (id, &s) in scores.iter().enumerate() {
            reference.push(id as u64, s);
        }

        // Deal candidates into random partitions, then merge in a random
        // order.
        let mut partials: Vec<TopK> = (0..parts).map(|_| TopK::new(k)).collect();
        for (id, &s) in scores.iter().enumerate() {
            partials[rng.usize(0..parts)].push(id as u64, s);
        }
        let mut merged = TopK::new(k);
        while !partials.is_empty() {
            let pick = rng.usize(0..partials.len());
            merged.merge(&partials.swap_remove(pick));
        }
        assert_eq!(merged.into_sorted_vec(), reference.into_sorted_vec());
    });
}

/// A tie-heavy stream over the values that break float-keyed heaps — both
/// zeros, both infinities, subnormals, the extremes, NaN — with unique ids
/// spread up to `u64::MAX`.
fn hostile_stream(rng: &mut TestRng, n: usize) -> Vec<Neighbor> {
    let subnormal = f32::MIN_POSITIVE / 4.0;
    let mut palette = vec![
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        subnormal,
        -subnormal,
        f32::from_bits(1),
        f32::MAX,
        f32::MIN,
        f32::NAN,
    ];
    palette.extend(rng.vec_f32(3, -2.0..2.0));
    (0..n as u64)
        .map(|i| {
            // Unique by construction: `i` sits in the low bits of each form.
            let id = match rng.below(3) {
                0 => i,
                1 => u64::MAX - i,
                _ => (rng.u64(1..1 << 40) << 16) | i,
            };
            Neighbor::new(id, *rng.pick(&palette))
        })
        .collect()
}

/// `(id, score bits)` of the best `k` of `stream` by a full
/// `sort_neighbors`, NaN dropped — what a `TopK` must hold.
fn best_k_by_full_sort(stream: &[Neighbor], k: usize) -> Vec<(u64, u32)> {
    let mut all: Vec<Neighbor> = stream
        .iter()
        .copied()
        .filter(|n| !n.score.is_nan())
        .collect();
    sort_neighbors(&mut all);
    all.truncate(k);
    all.iter().map(|n| (n.id, n.score.to_bits())).collect()
}

fn kept(top: TopK) -> Vec<(u64, u32)> {
    top.into_sorted_vec()
        .iter()
        .map(|n| (n.id, n.score.to_bits()))
        .collect()
}

/// The selector against a full sort of the same stream, push by push. With
/// `best` the first `k` of the full sort of everything pushed so far:
///
/// * `threshold()` is `-inf` until `k` non-NaN candidates have arrived,
///   then a lower bound on `best`'s last score that the floor rule keeps
///   tight — no lower than the `(2k − 1)`-th best score so far (the floor
///   is a `k`-th best at the last settle, and fewer than `k` candidates
///   have been buffered since);
/// * `push` returns `true` for every candidate in `best`, and `false` for
///   one scoring below the threshold it met;
/// * `len()` is `best.len()`;
/// * a clone's `into_sorted_vec` is `best` — ids and score bits, so a kept
///   `-0.0` comes back as `-0.0`.
///
/// Beside random lengths, streams of `2k − 1`, `2k` and `2k + 1` candidates
/// straddle the buffer's first `2k` settle.
#[test]
fn topk_matches_full_sort_on_hostile_streams() {
    forall("topk == full sort on hostile streams", 96, |rng| {
        let n = rng.usize(1..260);
        for k in [1, 2, 100, n + 7] {
            let lens = if k > n {
                vec![n]
            } else {
                vec![n, 2 * k - 1, 2 * k, 2 * k + 1]
            };
            for len in lens {
                let stream = hostile_stream(rng, len);
                check_every_prefix(&stream, k);
            }
        }
    });
}

fn check_every_prefix(stream: &[Neighbor], k: usize) {
    let mut top = TopK::new(k);
    // Every non-NaN candidate so far, in `sort_neighbors` order.
    let mut sorted: Vec<Neighbor> = Vec::new();
    for (seen, cand) in stream.iter().enumerate() {
        let at = format!("k={k} len={} push #{seen} {cand:?}", stream.len());
        let met = top.threshold();
        let accepted = top.push(cand.id, cand.score);
        if !cand.score.is_nan() {
            let pos = sorted.partition_point(|n| n > cand);
            sorted.insert(pos, *cand);
            if pos < k {
                assert!(accepted, "{at}: a best-k candidate was rejected");
            }
        }
        if cand.score < met {
            assert!(!accepted, "{at}: accepted below the threshold {met}");
        }
        let best = &sorted[..sorted.len().min(k)];
        assert_eq!(top.len(), best.len(), "{at}");
        let threshold = top.threshold();
        if best.len() < k {
            assert_eq!(threshold.to_bits(), f32::NEG_INFINITY.to_bits(), "{at}");
        } else {
            assert!(threshold <= best[k - 1].score, "{at}: {threshold}");
            if let Some(far) = sorted.get(2 * k - 2) {
                assert!(threshold >= far.score, "{at}: {threshold} lags too far");
            }
        }
        let want: Vec<(u64, u32)> = best.iter().map(|n| (n.id, n.score.to_bits())).collect();
        assert_eq!(kept(top.clone()), want, "{at}");
        let mut unsorted = top.clone().into_unsorted_vec();
        sort_neighbors(&mut unsorted);
        let unsorted: Vec<(u64, u32)> =
            unsorted.iter().map(|n| (n.id, n.score.to_bits())).collect();
        assert_eq!(unsorted, want, "{at}: unsorted set");
    }
}

/// A database element: one draw in three from the values a binary16
/// round trip or a vectorised sum can get wrong — f32 and f16 subnormals,
/// the f16 underflow boundary, ±0, ±∞, NaN, the overflow boundary and
/// beyond — else a plain value.
fn hostile_element(rng: &mut TestRng) -> f32 {
    const PALETTE: [f32; 14] = [
        1.0e-40,
        -3.0e-8,
        4.5e-8,
        6.0e-5,
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        65504.0,
        65519.0,
        65520.0,
        -7.0e4,
        1.0e30,
    ];
    if rng.below(3) == 0 {
        *rng.pick(&PALETTE)
    } else {
        rng.f32(-100.0..100.0)
    }
}

/// Every rescore arm the host runs returns the portable arm's ids and
/// score bits (NaN scores compared as NaN) — {L2, IP} × {f16, f32} rows,
/// dims that leave every tail length, hostile elements, duplicated rows
/// (ties), `k` past the candidate count, and 0–3 candidates left over
/// after the groups of four.
#[test]
fn rescore_arms_match_the_portable_arm() {
    let arms = exact::RescoreArm::available();
    println!(
        "rescore arms covered: {:?}",
        arms.iter().map(|a| a.name()).collect::<Vec<_>>()
    );
    forall("rescore arms == portable", 48, |rng| {
        for dim in [1usize, 3, 5, 63, 64] {
            let n = rng.usize(24..48);
            let mut flat: Vec<f32> = (0..n * dim).map(|_| hostile_element(rng)).collect();
            for _ in 0..rng.usize(1..6) {
                let (from, to) = (rng.usize(0..n), rng.usize(0..n));
                flat.copy_within(from * dim..(from + 1) * dim, to * dim);
            }
            let db = VectorSet::from_rows(dim, &flat);
            let q: Vec<f32> = if rng.below(8) == 0 {
                (0..dim).map(|_| hostile_element(rng)).collect()
            } else {
                rng.vec_f32(dim, -100.0..100.0)
            };
            let mut order: Vec<u64> = (0..n as u64).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.usize(0..i + 1));
            }
            for leftover in 0..4 {
                let ids = &order[..4 * rng.usize(0..5) + leftover];
                let k = rng.usize(1..ids.len() + 6);
                for metric in [Metric::L2, Metric::InnerProduct] {
                    for f16_vectors in [true, false] {
                        let run = |arm| {
                            let mut scratch = exact::RescoreScratch::new();
                            let mut out = vec![Neighbor::new(u64::MAX, 1.0)];
                            exact::rescore_subset_with(
                                arm,
                                &q,
                                ids,
                                &db,
                                metric,
                                k,
                                f16_vectors,
                                &mut scratch,
                                &mut out,
                            );
                            out
                        };
                        let want = run(exact::RescoreArm::Portable);
                        assert_eq!(want.len(), k.min(ids.len()));
                        for &arm in &arms {
                            let got = run(arm);
                            let at = format!(
                                "{} dim={dim} c={} k={k} {metric:?} f16={f16_vectors}",
                                arm.name(),
                                ids.len()
                            );
                            assert_eq!(got.len(), want.len(), "{at}");
                            for (g, w) in got.iter().zip(&want) {
                                assert_eq!(g.id, w.id, "{at}: {got:?} vs {want:?}");
                                assert!(
                                    same_f32_bits(g.score, w.score),
                                    "{at}: id {} scored {} vs {}",
                                    g.id,
                                    g.score,
                                    w.score
                                );
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Merge order-independence on the same hostile streams: any dealing of
/// the candidates into partial selectors, merged in any order, keeps the
/// full sort's first `k`.
#[test]
fn topk_merge_is_order_independent_on_hostile_streams() {
    forall("topk merge order independence, hostile", 96, |rng| {
        let n = rng.usize(1..260);
        let stream = hostile_stream(rng, n);
        for k in [1, 2, 100, n + 7] {
            let parts = rng.usize(1..7);
            let mut partials: Vec<TopK> = (0..parts).map(|_| TopK::new(k)).collect();
            for cand in &stream {
                partials[rng.usize(0..parts)].push(cand.id, cand.score);
            }
            let mut merged = TopK::new(k);
            while !partials.is_empty() {
                let pick = rng.usize(0..partials.len());
                merged.merge(&partials.swap_remove(pick));
            }
            assert_eq!(kept(merged), best_k_by_full_sort(&stream, k), "k={k}");
        }
    });
}

/// Exact search's first hit for an L2 query that equals a database row
/// is that row.
#[test]
fn exact_search_finds_identical_vector() {
    forall("exact search finds identical vector", 64, |rng| {
        let n = rng.usize(2..40);
        let flat = rng.vec_f32(n * 4, -50.0..50.0);
        let db = VectorSet::from_rows(4, &flat);
        let target = rng.usize(0..n);
        let q = VectorSet::from_rows(4, db.row(target));
        let hits = exact::search(&q, &db, Metric::L2, 1);
        // The winner must have similarity equal to the self-similarity (ties
        // on duplicate rows may pick a lower id).
        let best = hits[0][0];
        assert_eq!(best.score, 0.0);
        assert_eq!(db.row(best.id as usize), db.row(target));
    });
}
