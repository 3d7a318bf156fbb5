//! Property-based tests for the training substrate (seeded `anna-testkit`
//! harness; failures report a replayable seed).

use anna_quant::additive::{AqCodebook, AqConfig};
use anna_quant::codes::{CodeWidth, PackedCodes};
use anna_quant::dist_table::DimMajor;
use anna_quant::kmeans::{KMeans, KMeansConfig};
use anna_quant::linalg::SmallMat;
use anna_quant::opq::{Opq, OpqConfig};
use anna_quant::pq::{PqCodebook, PqConfig};
use anna_testkit::{forall, same_f32_bits, TestRng};
use anna_vector::{metric, VectorSet};

/// Packed codes always round-trip, at both widths and any m.
#[test]
fn packed_codes_roundtrip() {
    forall("packed codes roundtrip", 32, |rng| {
        let m = rng.usize(1..20);
        let nrows = rng.usize(1..30);
        let wide = rng.bool();
        let width = if wide { CodeWidth::U8 } else { CodeWidth::U4 };
        let mut packed = PackedCodes::new(m, width);
        let mut expect = Vec::new();
        for _ in 0..nrows {
            let len = rng.usize(1..20);
            let row = rng.vec_u8(len, 16);
            let mut codes: Vec<u8> = row.iter().cycle().take(m).cloned().collect();
            if wide {
                // Exercise the full byte range in U8 mode.
                for (i, c) in codes.iter_mut().enumerate() {
                    *c = c.wrapping_mul(13).wrapping_add(i as u8);
                }
            }
            packed.push(&codes);
            expect.push(codes);
        }
        assert_eq!(packed.len(), expect.len());
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(&packed.get(i), want);
        }
        // Total storage matches the paper's M*log2(k*)/8 formula per vector.
        assert_eq!(packed.bytes().len(), expect.len() * width.vector_bytes(m));
    });
}

/// k-means inertia never exceeds the inertia of a 1-centroid model
/// (the global mean is the best single centroid).
#[test]
fn kmeans_beats_single_centroid() {
    forall("kmeans beats single centroid", 32, |rng| {
        let seed = rng.u64(0..1000);
        let n = rng.usize(8..60);
        let data = VectorSet::from_fn(3, n, |r, c| {
            ((r as u64 * 2654435761 + c as u64 * 40503 + seed) % 97) as f32
        });
        let one = KMeans::train(
            &data,
            &KMeansConfig {
                k: 1,
                max_iters: 10,
                seed,
            },
        );
        let four = KMeans::train(
            &data,
            &KMeansConfig {
                k: 4,
                max_iters: 10,
                seed,
            },
        );
        assert!(four.inertia(&data) <= one.inertia(&data) + 1e-6);
    });
}

/// Every PQ encode produces in-range identifiers and decode returns the
/// nearest codeword per subspace.
#[test]
fn pq_encode_is_nearest_codeword() {
    forall("pq encode is nearest codeword", 32, |rng| {
        let seed = rng.u64(0..500);
        let data = VectorSet::from_fn(6, 80, |r, c| {
            ((r as u64 * 31 + c as u64 * 17 + seed * 7) % 23) as f32
        });
        let book = PqCodebook::train(
            &data,
            &PqConfig {
                m: 3,
                kstar: 4,
                iters: 6,
                seed,
            },
        );
        for i in 0..data.len() {
            let codes = book.encode(data.row(i));
            for (j, &code) in codes.iter().enumerate() {
                assert!((code as usize) < book.kstar());
                let x = data.subvector(i, 3, j);
                let chosen = metric::l2_squared(x, book.book(j).row(code as usize));
                for alt in 0..book.kstar() {
                    let d = metric::l2_squared(x, book.book(j).row(alt));
                    assert!(
                        chosen <= d + 1e-4,
                        "vector {i} subspace {j}: code {code} (d={chosen}) beaten by {alt} (d={d})"
                    );
                }
            }
        }
    });
}

/// The polar factor of any (well-conditioned) random matrix is
/// orthogonal to machine precision.
#[test]
fn polar_factor_is_always_orthogonal() {
    forall("polar factor is always orthogonal", 32, |rng| {
        let n = rng.usize(2..8);
        let mut m = SmallMat::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = (rng.unit_f64() - 0.5) * 10.0 + if i == j { 3.0 } else { 0.0 };
            }
        }
        if let Some(r) = m.polar_orthogonal() {
            let rtr = r.transpose().mul(&r);
            for i in 0..n {
                for j in 0..n {
                    let want = if i == j { 1.0 } else { 0.0 };
                    assert!(
                        (rtr[(i, j)] - want).abs() < 1e-7,
                        "RtR[{i}{j}] = {}",
                        rtr[(i, j)]
                    );
                }
            }
        }
    });
}

/// OPQ rotations preserve pairwise distances (isometry), for any data.
#[test]
fn opq_rotation_is_an_isometry() {
    forall("opq rotation is an isometry", 16, |rng| {
        let seed = rng.u64(0..100);
        let data = VectorSet::from_fn(4, 120, |r, c| {
            (((r as u64 * 37 + c as u64 * 11 + seed * 13) % 29) as f32) - 14.0
        });
        let opq = Opq::train(
            &data,
            &OpqConfig {
                pq: PqConfig {
                    m: 2,
                    kstar: 4,
                    iters: 3,
                    seed,
                },
                outer_iters: 2,
            },
        );
        for (i, j) in [(0usize, 1usize), (5, 50), (20, 100)] {
            let d_orig = metric::l2_squared(data.row(i), data.row(j));
            let d_rot = metric::l2_squared(&opq.rotate(data.row(i)), &opq.rotate(data.row(j)));
            assert!(
                (d_orig - d_rot).abs() <= 1e-2 * (1.0 + d_orig),
                "distance changed under rotation: {d_orig} vs {d_rot}"
            );
        }
    });
}

/// AQ encode/decode round-trips produce in-range identifiers and the
/// IP LUT score always matches the decoded dot product.
#[test]
fn aq_scores_match_decoded() {
    forall("aq scores match decoded", 16, |rng| {
        let seed = rng.u64(0..100);
        let data = VectorSet::from_fn(4, 100, |r, c| {
            (((r as u64 * 23 + c as u64 * 7 + seed) % 19) as f32) * 0.5
        });
        let book = AqCodebook::train(
            &data,
            &AqConfig {
                m: 2,
                kstar: 4,
                iters: 4,
                beam: 2,
                seed,
            },
        );
        let q: Vec<f32> = (0..4).map(|i| (i as f32) - 1.5).collect();
        let lut = book.build_lut(&q);
        for i in (0..data.len()).step_by(17) {
            let code = book.encode(data.row(i));
            assert!(code.codes.iter().all(|&c| (c as usize) < 4));
            let want = metric::dot(&q, &book.decode(&code.codes));
            let got = AqCodebook::score_ip(&lut, &code);
            assert!(
                (want - got).abs() <= 0.05 * (1.0 + want.abs()),
                "{want} vs {got}"
            );
        }
    });
}

/// Decoding an encoded vector never increases the distance versus any
/// single codeword combination (PQ optimality per subspace implies
/// global optimality of the concatenation).
#[test]
fn pq_reconstruction_is_subspace_optimal() {
    forall("pq reconstruction is subspace optimal", 32, |rng| {
        let seed = rng.u64(0..200);
        let data = VectorSet::from_fn(4, 60, |r, c| {
            (((r + 3) as u64 * 101 + c as u64 * 59 + seed * 11) % 41) as f32
        });
        let book = PqCodebook::train(
            &data,
            &PqConfig {
                m: 2,
                kstar: 4,
                iters: 6,
                seed,
            },
        );
        for i in (0..data.len()).step_by(7) {
            let v = data.row(i);
            let best = book.decode(&book.encode(v));
            let best_d = metric::l2_squared(v, &best);
            // Compare against every possible code combination.
            for c0 in 0..4u8 {
                for c1 in 0..4u8 {
                    let alt = book.decode(&[c0, c1]);
                    assert!(best_d <= metric::l2_squared(v, &alt) + 1e-4);
                }
            }
        }
    });
}

/// The pre-kernel encode/assign loop, kept as the oracle: first strict
/// minimum of `metric::l2_squared` over the row-major codewords.
fn nearest_row_major(v: &[f32], rows: &VectorSet) -> (usize, f32) {
    let mut best = (0usize, f32::INFINITY);
    for (c, w) in rows.iter().enumerate() {
        let d = metric::l2_squared(v, w);
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

/// The distance-table kernel equals `metric::l2_squared` / `metric::dot`
/// bit for bit on every entry: chunk and tail dimensions (`sub` 1..=9),
/// full and ragged lane blocks (`k*` 16, 19, 40, 256), NaN / ±∞ / −0.0
/// inputs (NaNs compare as a class, see [`same_f32_bits`]). `nearest` is
/// the first minimum of that table.
#[test]
fn distance_table_kernel_is_bit_identical_to_scalar_metric() {
    forall("distance table kernel == scalar metric", 96, |rng| {
        let sub = rng.usize(1..10);
        let k = *rng.pick(&[16usize, 19, 40, 256]);
        let special = rng.bool();
        let draw = |rng: &mut TestRng| {
            if special {
                rng.tricky_f32(-4.0..4.0)
            } else {
                rng.f32(-4.0..4.0)
            }
        };
        let flat: Vec<f32> = (0..k * sub).map(|_| draw(rng)).collect();
        let rows = VectorSet::from_vec(sub, flat);
        let v: Vec<f32> = (0..sub).map(|_| draw(rng)).collect();

        let dm = DimMajor::new(&rows);
        assert_eq!((dm.k(), dm.dim()), (k, sub));
        let mut l2 = vec![0.0f32; k];
        let mut ip = vec![0.0f32; k];
        dm.l2_table(&v, &mut l2);
        dm.dot_table(&v, &mut ip);
        for c in 0..k {
            let (want_l2, want_ip) = (
                metric::l2_squared(&v, rows.row(c)),
                metric::dot(&v, rows.row(c)),
            );
            assert!(
                same_f32_bits(l2[c], want_l2),
                "l2 sub={sub} k={k} c={c}: {} vs {want_l2}",
                l2[c]
            );
            assert!(
                same_f32_bits(ip[c], want_ip),
                "dot sub={sub} k={k} c={c}: {} vs {want_ip}",
                ip[c]
            );
        }
        let (got, want) = (dm.nearest(&v), nearest_row_major(&v, &rows));
        assert_eq!(got.0, want.0, "nearest sub={sub} k={k}");
        assert!(same_f32_bits(got.1, want.1));
    });
}

/// `encode` is the old row-major loop on every row of a trained book, and
/// duplicate codewords resolve to the lowest id.
#[test]
fn pq_encode_matches_row_major_loop_and_keeps_lowest_duplicate() {
    forall("pq encode == row-major loop", 12, |rng| {
        let seed = rng.u64(0..500);
        let kstar = *rng.pick(&[16usize, 40, 256]);
        let data = VectorSet::from_fn(10, 300, |r, c| {
            ((r as u64 * 31 + c as u64 * 17 + seed * 7) % 53) as f32 * 0.5
        });
        let book = PqCodebook::train(
            &data,
            &PqConfig {
                m: 2,
                kstar,
                iters: 3,
                seed,
            },
        );
        let mut codes = vec![0u8; book.m()];
        for i in 0..data.len() {
            book.encode_into(data.row(i), &mut codes);
            assert_eq!(codes, book.encode(data.row(i)));
            for (j, &code) in codes.iter().enumerate() {
                let want = nearest_row_major(data.subvector(i, 2, j), book.book(j)).0;
                assert_eq!(code as usize, want, "row {i} subspace {j}");
            }
        }
    });

    // Codewords 3, 11 and 12 coincide (two lane blocks); so do 0 and 1.
    let mut rows = VectorSet::from_fn(2, 16, |r, c| (r * 3 + c) as f32);
    for dup in [11, 12] {
        rows.row_mut(dup).copy_from_slice(&[9.0, 10.0]);
    }
    rows.row_mut(1).copy_from_slice(&[0.0, 1.0]);
    let book = PqCodebook::from_books(vec![rows.clone(), rows]);
    assert_eq!(book.encode(&[9.0, 10.0, 0.1, 0.9]), vec![3, 0]);
}

/// The dimension-major copy is derived state: whichever way a codebook or
/// a k-means model is constructed, it equals a fresh transposition.
#[test]
fn dim_major_copy_stays_in_sync_with_the_row_major_books() {
    let data = VectorSet::from_fn(6, 120, |r, c| ((r * 13 + c * 7) % 19) as f32);
    let trained = PqCodebook::train(
        &data,
        &PqConfig {
            m: 3,
            kstar: 16,
            iters: 4,
            seed: 5,
        },
    );
    let rebuilt = PqCodebook::from_books((0..3).map(|i| trained.book(i).clone()).collect());
    assert_eq!(trained, rebuilt);
    for book in [&trained, &rebuilt] {
        for i in 0..book.m() {
            assert_eq!(book.dim_major(i), &DimMajor::new(book.book(i)));
        }
    }

    let km = KMeans::train(
        &data,
        &KMeansConfig {
            k: 7,
            max_iters: 6,
            seed: 2,
        },
    );
    assert_eq!(km, KMeans::from_centroids(km.centroids().clone()));
}
