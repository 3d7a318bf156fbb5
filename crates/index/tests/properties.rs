//! Property-based tests for the IVF-PQ index and its execution schedules
//! (seeded `anna-testkit` harness; failures report a replayable seed).

use anna_index::{BatchedScan, IvfPqConfig, IvfPqIndex, Lut, LutPrecision, SearchParams};
use anna_quant::dist_table::TableArm;
use anna_quant::pq::PqCodebook;
use anna_testkit::{forall, same_f32_bits, TestRng};
use anna_vector::{f16, metric, Metric, VectorSet};

fn arb_dataset(rng: &mut TestRng) -> VectorSet {
    let n = rng.usize(20..200);
    let seed = rng.u64(0..1000);
    VectorSet::from_fn(8, n, |r, c| {
        let x = (r as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(c as u64)
            .wrapping_add(seed.wrapping_mul(31));
        ((x >> 16) % 64) as f32
    })
}

/// Every database id appears in exactly one inverted list, whatever the
/// data and cluster count.
#[test]
fn inverted_lists_partition() {
    forall("inverted lists partition", 24, |rng| {
        let db = arb_dataset(rng);
        let clusters = rng.usize(2..12);
        let index = IvfPqIndex::build(
            &db,
            &IvfPqConfig {
                metric: Metric::L2,
                num_clusters: clusters,
                m: 4,
                kstar: 16,
                coarse_iters: 3,
                pq_iters: 2,
                ..IvfPqConfig::default()
            },
        );
        let mut seen = vec![0usize; db.len()];
        for c in 0..index.num_clusters() {
            for &id in &index.cluster(c).ids {
                seen[id as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
        let total: usize = index.cluster_sizes().iter().sum();
        assert_eq!(total, db.len());
    });
}

/// The batched cluster-major scan returns exactly what query-major
/// search returns, for both metrics.
#[test]
fn batched_equals_query_major() {
    forall("batched equals query major", 24, |rng| {
        let db = arb_dataset(rng);
        let nprobe = rng.usize(1..6);
        let k = rng.usize(1..8);
        let metric = if rng.bool() {
            Metric::InnerProduct
        } else {
            Metric::L2
        };
        let index = IvfPqIndex::build(
            &db,
            &IvfPqConfig {
                metric,
                num_clusters: 6,
                m: 4,
                kstar: 16,
                coarse_iters: 3,
                pq_iters: 2,
                ..IvfPqConfig::default()
            },
        );
        let queries = db.gather(&(0..db.len().min(9)).collect::<Vec<_>>());
        let params = SearchParams {
            nprobe,
            k,
            ..Default::default()
        };
        let (batched, stats) = BatchedScan::new(&index).run(&queries, &params);
        for (qi, res) in batched.iter().enumerate() {
            let single = index.search(queries.row(qi), &params);
            assert_eq!(res, &single, "query {qi} diverged");
        }
        assert!(stats.code_bytes <= stats.conventional_code_bytes);
    });
}

/// Widening the probe never loses results: the top-1 score at nprobe
/// w+1 is at least the top-1 score at w.
#[test]
fn nprobe_monotone_in_best_score() {
    forall("nprobe monotone in best score", 24, |rng| {
        let db = arb_dataset(rng);
        let w = rng.usize(1..5);
        let index = IvfPqIndex::build(
            &db,
            &IvfPqConfig {
                metric: Metric::L2,
                num_clusters: 6,
                m: 4,
                kstar: 16,
                coarse_iters: 3,
                pq_iters: 2,
                ..IvfPqConfig::default()
            },
        );
        let q = db.row(0);
        let a = index.search(
            q,
            &SearchParams {
                nprobe: w,
                k: 1,
                ..Default::default()
            },
        );
        let b = index.search(
            q,
            &SearchParams {
                nprobe: w + 1,
                k: 1,
                ..Default::default()
            },
        );
        if let (Some(x), Some(y)) = (a.first(), b.first()) {
            assert!(y.score >= x.score - 1e-4);
        }
    });
}

/// Compression bookkeeping: stats always reproduce the M·log2(k*)/8
/// formula.
#[test]
fn stats_match_formula() {
    forall("stats match formula", 24, |rng| {
        let db = arb_dataset(rng);
        let wide = rng.bool();
        let (m, kstar) = if wide { (4usize, 256usize) } else { (8, 16) };
        let index = IvfPqIndex::build(
            &db,
            &IvfPqConfig {
                metric: Metric::L2,
                num_clusters: 4,
                m,
                kstar,
                coarse_iters: 2,
                pq_iters: 2,
                ..IvfPqConfig::default()
            },
        );
        let stats = index.stats();
        let bytes_per_vec = (m * if wide { 8 } else { 4 }).div_ceil(8) as u64;
        assert_eq!(stats.code_bytes, db.len() as u64 * bytes_per_vec);
        assert_eq!(stats.raw_bytes, db.len() as u64 * 16);
    });
}

/// Every LUT entry is the scalar metric function's value bit for bit, at
/// both precisions: `-metric::l2_squared(r_i, B_i[c])` / `metric::dot(q_i,
/// B_i[c])`, rounded through binary16 for `F16`. Covers chunk and tail
/// sub-dimensions (1..=9), ragged `k*` (a scarce training set yields fewer
/// codewords than configured), NaN / ±∞ / −0.0 inputs (NaNs compare as a
/// class, see [`same_f32_bits`]), and a reused slot — on every
/// distance-table arm the host runs, each through the explicit-arm builds
/// beside the process-wide ones.
#[test]
fn lut_entries_equal_the_scalar_metric_oracle() {
    forall("lut entries == scalar metric oracle", 64, |rng| {
        let sub = rng.usize(1..10);
        let m = rng.usize(1..4);
        let kstar = *rng.pick(&[16usize, 19, 40, 256]);
        let special = rng.bool();
        let draw = |rng: &mut TestRng| {
            if special {
                rng.tricky_f32(-4.0..4.0)
            } else {
                rng.f32(-4.0..4.0)
            }
        };
        let books = (0..m)
            .map(|_| VectorSet::from_vec(sub, (0..kstar * sub).map(|_| draw(rng)).collect()))
            .collect();
        let book = PqCodebook::from_books(books);
        let q: Vec<f32> = (0..m * sub).map(|_| draw(rng)).collect();
        let centroid: Vec<f32> = (0..m * sub).map(|_| draw(rng)).collect();
        let residual = metric::sub(&q, &centroid);

        let mut slot = Lut::placeholder();
        let mut arm_slot = Lut::placeholder();
        let mut scratch = Vec::new();
        for precision in [LutPrecision::F32, LutPrecision::F16] {
            let round = |x: f32| match precision {
                LutPrecision::F32 => x,
                LutPrecision::F16 => f16::round_trip(x),
            };
            let l2 = Lut::build_l2(&q, &centroid, &book, precision);
            let ip = Lut::build_ip(&q, &book, precision);
            slot.rebuild_l2(&q, &centroid, &book, precision, &mut scratch);
            for arm in TableArm::available() {
                let arm_ip = Lut::build_ip_with(arm, &q, &book, precision);
                arm_slot.rebuild_l2_with(arm, &q, &centroid, &book, precision, &mut scratch);
                for i in 0..m {
                    let span = i * sub..(i + 1) * sub;
                    for c in 0..kstar {
                        let w = book.book(i).row(c);
                        let want_l2 = round(-metric::l2_squared(&residual[span.clone()], w));
                        let want_ip = round(metric::dot(&q[span.clone()], w));
                        let at = format!("{precision:?} sub={sub} k*={kstar} entry ({i},{c})");
                        assert!(same_f32_bits(l2.get(i, c), want_l2), "l2 {at}");
                        assert!(same_f32_bits(slot.get(i, c), want_l2), "l2 slot {at}");
                        assert!(same_f32_bits(ip.get(i, c), want_ip), "ip {at}");
                        let at = format!("{} {at}", arm.name());
                        assert!(same_f32_bits(arm_slot.get(i, c), want_l2), "l2 {at}");
                        assert!(same_f32_bits(arm_ip.get(i, c), want_ip), "ip {at}");
                    }
                }
            }
        }
    });
}
