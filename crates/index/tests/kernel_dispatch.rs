//! Property tests for the kernel-dispatch subsystem: every dispatch path
//! runnable on this host must reproduce the scalar reference **bit for
//! bit** across metrics ({L2, IP}), code widths (`k* = 16` nibbles,
//! `k* = 256` bytes), odd and even subquantizer counts, and arbitrary
//! random codes — the summation-order invariant of
//! `anna_index::kernels`, checked end to end. The survivors sink of the
//! SIMD kernels (scores filtered in registers against a per-tile frozen
//! threshold) gets its own test against the per-score-push oracle, from a
//! pre-warmed selector, over every row-load path and block-edge count of
//! the AVX2 and AVX-512 LUT16 kernels and of the AVX-512 gather kernel for
//! byte codes (8- and 16-byte rows loaded whole and bounded first by the
//! u8 pass, every other width's code dwords gathered). (The sink itself is private; its "survivors == tile
//! filtered by the threshold" property is a unit test beside it in
//! `kernels/mod.rs`.) The grouped scan (`scan_group_with`, several
//! visitors of one cluster per call, as the batch engine scans) gets a
//! test against independent one-visitor scans.
//!
//! The environment-variable override (`ANNA_FORCE_SCALAR`) is covered by
//! unit tests of the pure `resolve` rule inside the crate; these tests
//! instead drive every member of [`KernelDispatch::available`] explicitly,
//! so the suite exercises each SIMD path on hosts that have it and stays
//! green on hosts that don't — on an AVX-512 host, where the process-wide
//! dispatch never picks `Avx2`, this is the AVX2 arm's coverage. Run with
//! `--nocapture` to see which arms a host covered and which kernel scored
//! its byte codes.

use anna_index::{kernels, KernelDispatch, Lut, LutPrecision, ScanScratch};
use anna_quant::codes::{CodeWidth, PackedCodes};
use anna_quant::pq::{PqCodebook, PqConfig};
use anna_testkit::TestRng;
use anna_vector::{TopK, VectorSet};

/// One codebook + a matching L2-centroid per shape, deterministic per seed.
fn trained_book(m: usize, kstar: usize, seed: u64) -> (PqCodebook, Vec<f32>) {
    let dim = m * 3;
    let data = anna_vector::VectorSet::from_fn(dim, 160, |r, c| {
        ((r * 29 + c * 13 + seed as usize * 7) % 31) as f32 * 0.5
    });
    let book = PqCodebook::train(
        &data,
        &PqConfig {
            m,
            kstar,
            iters: 5,
            seed,
        },
    );
    let centroid: Vec<f32> = (0..dim).map(|i| ((i * 3 + 1) % 7) as f32 * 0.25).collect();
    (book, centroid)
}

/// Plain nested-loop oracle over `lut.get`, identifiers in ascending
/// subquantizer order, bias last — the addition sequence every kernel
/// must replicate exactly.
fn scalar_reference(codes: &PackedCodes, lut: &Lut) -> Vec<f32> {
    let mut row = vec![0u8; codes.m()];
    (0..codes.len())
        .map(|v| {
            codes.read_into(v, &mut row);
            let mut sum = 0.0f32;
            for (i, &c) in row.iter().enumerate() {
                sum += lut.get(i, c as usize);
            }
            sum + lut.bias()
        })
        .collect()
}

/// `n` rows of `m` identifiers drawn uniformly below `bound` (at most 256).
fn random_codes(
    rng: &mut TestRng,
    m: usize,
    width: CodeWidth,
    bound: usize,
    n: usize,
) -> PackedCodes {
    let mut packed = PackedCodes::new(m, width);
    for _ in 0..n {
        let row: Vec<u8> = (0..m).map(|_| rng.below(bound as u64) as u8).collect();
        packed.push(&row);
    }
    packed
}

/// The full cross-product: dispatch × metric × k* × odd/even m, random
/// query, random codes, random candidate count — scanned scores must be
/// bit-identical to the oracle, and so must the kept top-k set. Byte codes
/// in 8- and 16-byte rows (the AVX-512 gather kernel's loaded rows) also
/// run at every count around the 16-lane group, the 64-lane chunk and the
/// tile, so masked partial-row loads are hit.
#[test]
fn every_dispatch_is_bit_identical_to_scalar_reference() {
    let shapes: Vec<(usize, usize)> = vec![(4, 16), (5, 16), (4, 256), (5, 256)];
    let mut scratch = ScanScratch::new();
    let counts = [1, 15, 16, 17, 63, 64, 65, 3 * kernels::TILE + 37];
    let mut rng = TestRng::new(0x80_16_B7);
    for m in [8usize, 16] {
        // Random codewords: all 256 of every table are distinct, so the
        // table is whole and the gather kernel takes it.
        let books = (0..m)
            .map(|_| VectorSet::from_fn(3, 256, |_, _| rng.f32(-4.0..4.0)))
            .collect();
        let book = PqCodebook::from_books(books);
        let centroid: Vec<f32> = (0..3 * m).map(|_| rng.f32(-1.0..1.0)).collect();
        for n in counts {
            check_every_dispatch(&mut rng, &book, &centroid, Some(n), &mut scratch);
        }
    }
    anna_testkit::forall("dispatch x metric x width x parity", 24, |rng| {
        let &(m, kstar) = rng.pick(&shapes);
        let (book, centroid) = trained_book(m, kstar, 3);
        check_every_dispatch(rng, &book, &centroid, None, &mut scratch);
    });
}

/// One case of [`every_dispatch_is_bit_identical_to_scalar_reference`]: a
/// random IP table or L2 table (against `centroid`) of `book` for a random
/// query, and `n` random codes (`None`: a random count below 600).
fn check_every_dispatch(
    rng: &mut TestRng,
    book: &PqCodebook,
    centroid: &[f32],
    n: Option<usize>,
    scratch: &mut ScanScratch,
) {
    let (m, kstar) = (book.m(), book.kstar());
    let dim = book.dim();
    let q: Vec<f32> = (0..dim)
        .map(|_| rng.usize(0..13) as f32 * 0.5 - 3.0)
        .collect();
    let lut = if rng.usize(0..2) == 0 {
        Lut::build_ip(&q, book, LutPrecision::F32)
    } else {
        Lut::build_l2(&q, centroid, book, LutPrecision::F32)
    };
    let width = if kstar == 16 {
        CodeWidth::U4
    } else {
        CodeWidth::U8
    };
    // Trained k* can be smaller than configured with scarce data;
    // random identifiers must stay below what the LUT actually has.
    let bound = lut.kstar();
    let n = n.unwrap_or_else(|| rng.usize(1..600));
    let codes = random_codes(rng, m, width, bound, n);
    let ids: Vec<u64> = (0..n as u64).collect();
    let want = scalar_reference(&codes, &lut);

    let k = rng.usize(1..20);
    let mut expect = TopK::new(k);
    kernels::scan_with(
        &codes,
        &ids,
        &lut,
        &mut expect,
        KernelDispatch::Scalar,
        scratch,
    );
    let expect = expect.into_sorted_vec();

    for dispatch in KernelDispatch::available() {
        // Raw scores, every vector.
        let got = kernels::score_all_with(&codes, &lut, dispatch);
        assert_eq!(got.len(), want.len());
        for (v, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "m={m} kstar={kstar} dispatch={} vector {v}",
                dispatch.name()
            );
        }
        // Pruned top-k set, including tie-breaks.
        let mut top = TopK::new(k);
        let tally = kernels::scan_with(&codes, &ids, &lut, &mut top, dispatch, scratch);
        assert_eq!(tally.scanned, n as u64);
        assert_eq!(
            top.into_sorted_vec(),
            expect,
            "m={m} kstar={kstar} n={n} k={k} dispatch={}",
            dispatch.name()
        );
    }
}

/// Encoded (non-random) codes through the real encoder, both metrics: the
/// end-to-end path an index search takes.
#[test]
fn encoded_clusters_score_identically_across_dispatches() {
    for (m, kstar) in [(4usize, 16usize), (3, 16), (4, 256)] {
        let (book, centroid) = trained_book(m, kstar, 9);
        let dim = book.dim();
        let data =
            anna_vector::VectorSet::from_fn(dim, 500, |r, c| ((r * 17 + c * 5) % 19) as f32 * 0.3);
        let codes = book.encode_all(&data);
        let ids: Vec<u64> = (0..codes.len() as u64).collect();
        let q: Vec<f32> = (0..dim).map(|i| ((i % 4) as f32) - 1.0).collect();
        let mut scratch = ScanScratch::new();
        for lut in [
            Lut::build_ip(&q, &book, LutPrecision::F32),
            Lut::build_l2(&q, &centroid, &book, LutPrecision::F32),
        ] {
            let want = scalar_reference(&codes, &lut);
            for dispatch in KernelDispatch::available() {
                let got = kernels::score_all_with(&codes, &lut, dispatch);
                for (v, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "m={m} kstar={kstar} dispatch={} vector {v}",
                        dispatch.name()
                    );
                }
                let mut top = TopK::new(25);
                kernels::scan_with(&codes, &ids, &lut, &mut top, dispatch, &mut scratch);
                let mut reference = TopK::new(25);
                kernels::scan_with(
                    &codes,
                    &ids,
                    &lut,
                    &mut reference,
                    KernelDispatch::Scalar,
                    &mut scratch,
                );
                assert_eq!(
                    top.into_sorted_vec(),
                    reference.into_sorted_vec(),
                    "m={m} kstar={kstar} dispatch={} top-k",
                    dispatch.name()
                );
            }
        }
    }
}

/// A codebook trained on fewer than sixteen points has fewer than sixteen
/// codewords (k-means clamps `k` to the point count) and still packs its
/// codes as nibbles. The row loop reads each table at its own stride, so
/// `score_all` under the scalar dispatch scores such codes; only the
/// kernels built around 16-entry tables refuse them.
#[test]
fn scalar_score_all_takes_nibble_codes_against_narrow_tables() {
    let (m, dim) = (4, 8);
    let data = VectorSet::from_fn(dim, 10, |r, c| ((r * 7 + c * 3) % 11) as f32);
    let book = PqCodebook::train(
        &data,
        &PqConfig {
            m,
            kstar: 16,
            iters: 4,
            seed: 2,
        },
    );
    let codes = book.encode_all(&data);
    assert_eq!(codes.width(), CodeWidth::U4);
    let q: Vec<f32> = (0..dim).map(|i| (i % 3) as f32 - 1.0).collect();
    let lut = Lut::build_ip(&q, &book, LutPrecision::F32);
    assert!(lut.kstar() < 16, "k* = {}", lut.kstar());
    let got = kernels::score_all_with(&codes, &lut, KernelDispatch::Scalar);
    let bits = |scores: &[f32]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&scalar_reference(&codes, &lut)));
}

/// The convenience `scan` (process-wide dispatch, whatever this host and
/// environment resolve to) also matches the oracle — whichever path
/// `KernelDispatch::current()` picked.
#[test]
fn process_wide_dispatch_matches_reference() {
    let (book, _) = trained_book(4, 16, 5);
    let dim = book.dim();
    let data = anna_vector::VectorSet::from_fn(dim, 300, |r, c| ((r * 11 + c) % 13) as f32);
    let codes = book.encode_all(&data);
    let ids: Vec<u64> = (0..codes.len() as u64).collect();
    let q = vec![1.5f32; dim];
    let lut = Lut::build_ip(&q, &book, LutPrecision::F32);
    let want = scalar_reference(&codes, &lut);
    let mut top = TopK::new(codes.len());
    let tally = kernels::scan(&codes, &ids, &lut, &mut top);
    let d = KernelDispatch::current().name();
    assert_eq!(tally.scanned, codes.len() as u64, "{d}");
    for h in top.into_sorted_vec() {
        assert_eq!(
            h.score.to_bits(),
            want[h.id as usize].to_bits(),
            "{d} id {}",
            h.id
        );
    }
}

/// A `kstar`-entry codebook with one-dimensional codewords — so a LUT
/// entry is the codeword itself (IP against a query of ones) or minus its
/// square (L2 against a zero residual) — finite except for NaN, `+inf`,
/// `-inf` and `-0.0` codewords at random places, `kstar / 16` of each (one
/// each in a 16-entry book), so about one random row in sixteen meets each.
fn hostile_book(rng: &mut TestRng, m: usize, kstar: usize) -> PqCodebook {
    let mut words: Vec<f32> = (0..m * kstar).map(|_| rng.f32(-8.0..8.0)).collect();
    for hostile in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0] {
        for _ in 0..(kstar / 16).max(1) {
            let at = rng.usize(0..words.len());
            words[at] = hostile;
        }
    }
    PqCodebook::from_books(
        words
            .chunks(kstar)
            .map(|book| VectorSet::from_vec(1, book.to_vec()))
            .collect(),
    )
}

fn kept(top: TopK) -> Vec<(u64, u32)> {
    top.into_sorted_vec()
        .iter()
        .map(|h| (h.id, h.score.to_bits()))
        .collect()
}

/// The survivors path against the scalar per-score-push oracle, starting
/// from a **pre-warmed** selector (so the first tile already filters
/// against a real threshold, and the frozen-per-tile copy goes stale inside
/// a tile), and from one full of `+inf` scores (a threshold no finite
/// score passes).
///
/// Nibble codes (`k* = 16`) cover every LUT16 row-load path: `vb = 4` one
/// load, with `m = 7` leaving the top nibble unused; `vb = 8` two loads
/// de-interleaved; every other width the AVX2 dword gather — which the
/// AVX-512 arm delegates to — incl. ragged odd widths and the `nd = 8`
/// limit; `vb = 33` wider than the AVX2 kernel keeps per lane, so the
/// shared row loop scores every row. Byte codes cover rows shorter than
/// a dword (`m` 1–3, which stay on the blocked kernel), gathered whole
/// dwords (4, 12, 32, 64), rows loaded whole (8, 16) and a shifted last
/// dword (5, 7, 17) under the AVX-512 gather kernel, against a 256-entry book and 40- and 19-entry ones (a LUT
/// narrower than 256, as scarce training data leaves it, which takes the
/// blocked kernel under every dispatch).
///
/// Every shape runs both metrics, NaN/±inf/−0.0 table entries (NaN scores
/// must never surface; `+inf` scores tie and fall to the id rule) and
/// counts around the 16-lane group, the 32- and 64-lane chunks and the
/// tile, the last spanning four tiles so that three blocks start
/// mid-stream. The score tile of every dispatch must equal the scalar
/// reference bit for bit, and `ScanTally::pruned` must be
/// `scanned − offered` on every dispatch, hence equal across the filtering
/// dispatches (`Blocked`, `Avx2`, `Avx512`) from the same starting selector:
/// every book here has a non-finite entry, so no LUT has the u8 image a
/// seeded visit (which prunes against a threshold of its own) needs.
#[test]
fn survivors_scan_matches_per_score_push_from_a_warm_selector() {
    let counts = [
        1,
        15,
        16,
        17,
        31,
        32,
        33,
        63,
        64,
        65,
        255,
        256,
        257,
        3 * kernels::TILE + 37,
    ];
    let nibble_shapes = [4usize, 7, 8, 9, 16, 24, 32, 49, 64, 66].map(|m| (CodeWidth::U4, m, 16));
    let byte_shapes = [1usize, 2, 3, 4, 5, 7, 8, 12, 16, 17, 32, 64]
        .into_iter()
        .flat_map(|m| [256usize, 40, 19].map(|kstar| (CodeWidth::U8, m, kstar)));
    let mut rng = TestRng::new(0x5EED_5CA9);
    let mut scratch = ScanScratch::new();
    for (width, m, kstar) in nibble_shapes.into_iter().chain(byte_shapes) {
        let vb = width.vector_bytes(m);
        let book = hostile_book(&mut rng, m, kstar);
        let luts = [
            Lut::build_ip(&vec![1.0; m], &book, LutPrecision::F32),
            Lut::build_l2(&vec![0.0; m], &vec![0.0; m], &book, LutPrecision::F32),
        ];
        for (lut, metric) in luts.iter().zip(["ip", "l2"]) {
            assert_eq!(lut.kstar(), kstar);
            for n in counts {
                let k = *rng.pick(&[1usize, 10, 100]);
                let codes = random_codes(&mut rng, m, width, kstar, n);
                assert_eq!(codes.vector_bytes(), vb);
                // Ids far from the warm-up's, so equal scores meet both
                // lower and higher ids already in the selector.
                let base = rng.u64(0..1 << 40);
                let ids: Vec<u64> = (0..n as u64).map(|i| base + 3 * i).collect();

                let warm_codes = random_codes(&mut rng, m, width, kstar, 150);
                let warm_ids: Vec<u64> = (0..150u64).map(|i| (1 << 39) + i).collect();
                let mut warm = TopK::new(k);
                kernels::scan_with(
                    &warm_codes,
                    &warm_ids,
                    lut,
                    &mut warm,
                    KernelDispatch::Scalar,
                    &mut scratch,
                );

                let mut expect = warm.clone();
                let all_pushed = kernels::scan_with(
                    &codes,
                    &ids,
                    lut,
                    &mut expect,
                    KernelDispatch::Scalar,
                    &mut scratch,
                );
                assert_eq!((all_pushed.scanned, all_pushed.pruned), (n as u64, 0));
                let expect = kept(expect);
                assert!(expect
                    .iter()
                    .all(|&(_, bits)| !f32::from_bits(bits).is_nan()));
                let reference = scalar_reference(&codes, lut);
                // And from a selector full of `+inf` scores, where only a
                // `+inf` score with a lower id can still enter.
                let saturated = warm_selector(&mut rng, 1, k, lut, width, &mut scratch);
                let mut expect_saturated = saturated.clone();
                kernels::scan_with(
                    &codes,
                    &ids,
                    lut,
                    &mut expect_saturated,
                    KernelDispatch::Scalar,
                    &mut scratch,
                );
                let expect_saturated = kept(expect_saturated);

                let mut pruned = Vec::new();
                for dispatch in KernelDispatch::available() {
                    let at = format!(
                        "{width:?} k*={kstar} vb={vb} m={m} {metric} n={n} k={k} {}",
                        dispatch.name()
                    );
                    let tile = kernels::score_all_with(&codes, lut, dispatch);
                    // A NaN's payload depends on operand order, which no
                    // dispatch fixes; every other score is compared as bits
                    // (so `-0.0` is not `0.0`).
                    let bits = |scores: &[f32]| -> Vec<Option<u32>> {
                        let finite_bits = |s: &f32| (!s.is_nan()).then(|| s.to_bits());
                        scores.iter().map(finite_bits).collect()
                    };
                    assert_eq!(bits(&tile), bits(&reference), "{at}");

                    let mut top = warm.clone();
                    let tally =
                        kernels::scan_with(&codes, &ids, lut, &mut top, dispatch, &mut scratch);
                    assert_eq!(tally.scanned, n as u64, "{at}");
                    assert_eq!(kept(top), expect, "{at}");
                    let mut top = saturated.clone();
                    kernels::scan_with(&codes, &ids, lut, &mut top, dispatch, &mut scratch);
                    assert_eq!(kept(top), expect_saturated, "{at} from +inf");
                    if dispatch != KernelDispatch::Scalar {
                        pruned.push((tally.pruned, at));
                    }
                }
                for pair in pruned.windows(2) {
                    assert_eq!(pair[0].0, pair[1].0, "{} vs {}", pair[0].1, pair[1].1);
                }
            }
        }
    }
    // The kernel each arm selects for the common shapes: only `avx512`
    // has a SIMD kernel for byte codes (the gather kernel, for 256-entry
    // tables and `m >= 4`: 8- and 16-byte rows loaded whole and, in a
    // scan, seeded and bounded by the u8 pass before any row is gathered;
    // every other width's code dwords gathered, only the table lookups
    // gathered on both); every other arm scores them with the blocked
    // kernel, `scalar` with the seed scan. Only `avx512` seeds, at both
    // widths (its LUT16 kernel over 4- and 8-byte rows scores only the
    // rows its u8 pass over nibbles lets through), and only its seeded
    // visits serve a group of visitors per pass over a cluster.
    let arms: Vec<String> = KernelDispatch::available()
        .iter()
        .map(|&d| {
            let (u4_kernel, u8_kernel) = match d {
                KernelDispatch::Scalar => ("seed scan", "seed scan"),
                KernelDispatch::Blocked => ("blocked", "blocked"),
                KernelDispatch::Avx2 => ("lut16", "blocked"),
                KernelDispatch::Avx512 => (
                    "lut16, seeded ×4 over 4- and 8-byte rows",
                    "gather, rows loaded and seeded ×4 at m 8 and 16",
                ),
            };
            format!("{} (u4: {u4_kernel}, u8: {u8_kernel})", d.name())
        })
        .collect();
    println!(
        "kernel_dispatch: arms covered {}; process-wide dispatch {}",
        arms.join(", "),
        KernelDispatch::current().name()
    );
}

/// A selector at one of four distinct starting thresholds, picked by
/// `kind`: empty (`-inf`), full of `+inf` scores (`+inf`: only a `+inf`
/// score with a lower id can still enter), or warmed by a scalar scan of
/// 40 or 400 random rows (two thresholds inside the score range).
fn warm_selector(
    rng: &mut TestRng,
    kind: usize,
    k: usize,
    lut: &Lut,
    width: CodeWidth,
    scratch: &mut ScanScratch,
) -> TopK {
    let mut top = TopK::new(k);
    match kind % 4 {
        0 => {}
        1 => {
            for i in 0..k as u64 {
                top.push((1 << 39) + i, f32::INFINITY);
            }
            assert_eq!(top.threshold(), f32::INFINITY);
        }
        warm => {
            let rows = if warm == 2 { 40 } else { 400 };
            let codes = random_codes(rng, lut.m(), width, lut.kstar(), rows);
            let ids: Vec<u64> = (0..rows as u64).map(|i| (1 << 39) + i).collect();
            kernels::scan_with(&codes, &ids, lut, &mut top, KernelDispatch::Scalar, scratch);
        }
    }
    top
}

/// The grouped scan — several visitors of one cluster, each with its own
/// table and selector, through [`kernels::scan_group_with`] — keeps for
/// every visitor exactly what an independent [`kernels::scan_with`] of its
/// own keeps (ids and score bits), and its tally is the sum of theirs, on
/// every available dispatch. One to five visitors cover a group of one, a
/// partial and a whole group of the AVX-512 LUT16 kernel and a second group
/// after a whole one. Each visitor has its own hostile table (NaN, `±inf`,
/// `-0.0` entries) and a selector warmed to its own threshold, `-inf` and
/// `+inf` included. Nibble codes cover both AVX-512 row loads (`m` 4–8:
/// 4-byte rows, 9–16: 8-byte) and the widths it hands to AVX2 (`m` 17,
/// 32); byte codes run the same shapes through the gather and blocked
/// kernels (`m` 8 and 16: the gather kernel's loaded rows). Counts sit
/// around the 16-lane group, the 64-lane chunk and the tile, the last
/// spanning four tiles.
#[test]
fn grouped_scan_matches_per_query_scans() {
    let counts = [
        1,
        15,
        16,
        17,
        63,
        64,
        65,
        255,
        256,
        257,
        3 * kernels::TILE + 37,
    ];
    let mut rng = TestRng::new(0x64E0_95CA);
    let mut scratch = ScanScratch::new();
    for (width, kstar) in [(CodeWidth::U4, 16usize), (CodeWidth::U8, 256)] {
        for m in [4usize, 7, 8, 9, 16, 17, 32] {
            for visitors in 1..=5 {
                let luts: Vec<Lut> = (0..visitors)
                    .map(|v| {
                        let book = hostile_book(&mut rng, m, kstar);
                        if v % 2 == 0 {
                            Lut::build_ip(&vec![1.0; m], &book, LutPrecision::F32)
                        } else {
                            Lut::build_l2(&vec![0.0; m], &vec![0.0; m], &book, LutPrecision::F32)
                        }
                    })
                    .collect();
                for n in counts {
                    let codes = random_codes(&mut rng, m, width, kstar, n);
                    let base = rng.u64(0..1 << 40);
                    let ids: Vec<u64> = (0..n as u64).map(|i| base + 3 * i).collect();
                    // Visitor v starts at threshold kind v + offset, so
                    // every kind meets every group position.
                    let offset = rng.usize(0..4);
                    let warm: Vec<TopK> = luts
                        .iter()
                        .enumerate()
                        .map(|(v, lut)| {
                            let k = *rng.pick(&[1usize, 10, 100]);
                            warm_selector(&mut rng, v + offset, k, lut, width, &mut scratch)
                        })
                        .collect();
                    for dispatch in KernelDispatch::available() {
                        let at = format!(
                            "{width:?} m={m} n={n} visitors={visitors} {}",
                            dispatch.name()
                        );
                        let mut want_tally = kernels::ScanTally::default();
                        let want: Vec<Vec<(u64, u32)>> = luts
                            .iter()
                            .zip(&warm)
                            .map(|(lut, top)| {
                                let mut top = top.clone();
                                want_tally.accumulate(&kernels::scan_with(
                                    &codes,
                                    &ids,
                                    lut,
                                    &mut top,
                                    dispatch,
                                    &mut scratch,
                                ));
                                kept(top)
                            })
                            .collect();

                        let mut tops = warm.clone();
                        let tally = kernels::scan_group_with(
                            &codes,
                            &ids,
                            &luts,
                            &mut tops,
                            dispatch,
                            &mut scratch,
                        );
                        let got: Vec<Vec<(u64, u32)>> = tops.into_iter().map(kept).collect();
                        for (v, (got, want)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(got, want, "{at} visitor {v}");
                        }
                        assert_eq!(tally, want_tally, "{at}");
                    }
                }
            }
        }
    }
}
