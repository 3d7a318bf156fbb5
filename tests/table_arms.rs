//! The distance-table arms at the repo benchmark's shape, owned by tier-1:
//! dim 64, `m = 16`, `k*` 16 and 256. The distance-table kernel builds
//! every LUT, every PQ code, every coarse assignment and every cluster
//! filter, on the arm of the process's [`KernelDispatch::current`]
//! (`avx512` under the `avx512` dispatch, else `portable`; so
//! `ANNA_FORCE_SCALAR` runs `portable`). The arm of every dispatch the
//! host runs must give the portable arm's results bit for bit: LUT entries
//! (L2 and inner product), codes, coarse assignments and `filter_clusters`
//! order (both metrics) — and the index this process built and searches
//! must hold exactly those. A failure names the dispatch that diverged,
//! its arm, and the process-wide dispatch.

use anna::index::{IvfPqConfig, IvfPqIndex, KernelDispatch, Lut, LutPrecision, Trainer};
use anna::quant::dist_table::{table_arm_name, DimMajor};
use anna::vector::{Metric, TopK, VectorSet};
use anna_testkit::TestRng;

const DIM: usize = 64;
const M: usize = 16;
const ROWS: usize = 2_048;
const QUERIES: usize = 16;
const NPROBE: usize = 8;

/// SIFT-like rows: small non-negative integers, heavy with exact ties.
fn rows(rng: &mut TestRng, n: usize) -> VectorSet {
    VectorSet::from_vec(DIM, (0..n * DIM).map(|_| rng.below(24) as f32).collect())
}

/// The `nprobe` centroids most similar to `q` under `metric` on the arm
/// of `dispatch`, best first: `filter_clusters`' selection over one table.
fn filter(dispatch: KernelDispatch, centroids: &DimMajor, metric: Metric, q: &[f32]) -> Vec<u64> {
    let mut sims = vec![0.0f32; centroids.k()];
    centroids.similarities_with(dispatch, metric, q, &mut sims);
    let mut top = TopK::new(NPROBE);
    for (i, &s) in sims.iter().enumerate() {
        top.push(i as u64, s);
    }
    top.into_sorted_vec().iter().map(|n| n.id).collect()
}

fn bits(lut: &Lut) -> Vec<u32> {
    lut.entries().iter().map(|e| e.to_bits()).collect()
}

fn every_arm_agrees(kstar: usize) {
    let mut rng = TestRng::new(0xA7_256 + kstar as u64);
    let data = rows(&mut rng, ROWS);
    let queries = rows(&mut rng, QUERIES);
    let index = IvfPqIndex::build(
        &data,
        &IvfPqConfig {
            metric: Metric::L2,
            num_clusters: 64,
            m: M,
            kstar,
            trainer: Trainer::Faiss,
            coarse_iters: 4,
            pq_iters: 4,
            seed: 31,
        },
    );
    let book = index.codebook();
    assert_eq!(book.kstar(), kstar, "training left a narrower book");
    let centroids = DimMajor::new(index.centroids());
    let sub = book.sub_dim();
    let current = KernelDispatch::current().name();
    let reference = KernelDispatch::Scalar; // runs the portable arm

    // Coarse assignment and residual codes on an explicit dispatch's arm.
    let assign = |dispatch, v: &[f32]| centroids.nearest_with(dispatch, v);
    let encode = |dispatch, v: &[f32]| -> Vec<u8> {
        (0..M)
            .map(|j| {
                book.dim_major(j)
                    .nearest_with(dispatch, &v[j * sub..(j + 1) * sub])
                    .0 as u8
            })
            .collect()
    };
    let residual = |v: &[f32], c: usize| -> Vec<f32> {
        v.iter()
            .zip(index.centroids().row(c))
            .map(|(x, y)| x - y)
            .collect()
    };

    // The index this process built holds the portable arm's assignment and
    // codes for every row.
    for c in 0..index.num_clusters() {
        let cluster = index.cluster(c);
        for (i, &id) in cluster.ids.iter().enumerate() {
            let v = data.row(id as usize);
            assert_eq!(
                assign(reference, v).0,
                c,
                "k*={kstar} row {id}: assigned by {current}"
            );
            assert_eq!(
                cluster.codes.get(i),
                encode(reference, &residual(v, c)),
                "k*={kstar} row {id}: encoded by {current}"
            );
        }
    }

    for dispatch in KernelDispatch::available() {
        let at = |what: &str| {
            format!(
                "k*={kstar} {what}: dispatch {} ({}; process dispatch {current})",
                dispatch.name(),
                table_arm_name(dispatch)
            )
        };
        for v in data.iter().step_by(7) {
            let want = assign(reference, v);
            let got = assign(dispatch, v);
            assert_eq!(
                (got.0, got.1.to_bits()),
                (want.0, want.1.to_bits()),
                "{}",
                at("coarse assignment")
            );
            let r = residual(v, want.0);
            assert_eq!(
                encode(dispatch, &r),
                encode(reference, &r),
                "{}",
                at("codes")
            );
        }
        let mut slot = Lut::placeholder();
        let mut portable = Lut::placeholder();
        let mut scratch = Vec::new();
        for q in queries.iter() {
            for metric in [Metric::L2, Metric::InnerProduct] {
                assert_eq!(
                    filter(dispatch, &centroids, metric, q),
                    filter(reference, &centroids, metric, q),
                    "{}",
                    at(&format!("{metric} filter order"))
                );
            }
            let order = index.filter_clusters(q, NPROBE);
            let want: Vec<u64> = order.iter().map(|&c| c as u64).collect();
            assert_eq!(
                filter(dispatch, &centroids, Metric::L2, q),
                want,
                "{}",
                at("filter_clusters order")
            );
            for &c in &order {
                let centroid = index.centroids().row(c);
                slot.rebuild_l2_with(dispatch, q, centroid, book, LutPrecision::F32, &mut scratch);
                portable.rebuild_l2_with(
                    reference,
                    q,
                    centroid,
                    book,
                    LutPrecision::F32,
                    &mut scratch,
                );
                assert_eq!(bits(&slot), bits(&portable), "{}", at("L2 LUT"));
            }
            let ip = Lut::build_ip_with(dispatch, q, book, LutPrecision::F32);
            let want = Lut::build_ip_with(reference, q, book, LutPrecision::F32);
            assert_eq!(bits(&ip), bits(&want), "{}", at("IP LUT"));
        }
    }
}

#[test]
fn every_table_arm_agrees_at_the_benchmark_shape() {
    every_arm_agrees(16);
    every_arm_agrees(256);
}
