//! Property-based tests for the accelerator model (seeded `anna-testkit`
//! harness; failures report a replayable seed).

use anna_core::engine::{analytic, cycle};
use anna_core::{
    plan, AnnaConfig, BatchWorkload, PHeap, QueryWorkload, ScmAllocation, SearchShape,
};
use anna_testkit::{forall, TestRng};
use anna_vector::{f16, Metric, TopK};

fn arb_shape(rng: &mut TestRng) -> SearchShape {
    let (kstar, m) = *rng.pick(&[(16usize, 4usize), (16, 8), (256, 4), (256, 8)]);
    let metric = *rng.pick(&[Metric::L2, Metric::InnerProduct]);
    SearchShape {
        d: m * 2,
        m,
        kstar,
        metric,
        num_clusters: rng.usize(8..64),
        k: rng.usize(10..1000),
    }
}

/// The P-heap (with f16 score rounding) always agrees with a software
/// top-k selector fed the same f16-rounded scores.
#[test]
fn pheap_matches_software_topk() {
    forall("pheap matches software topk", 48, |rng| {
        let n = rng.usize(1..300);
        let scores = rng.vec_f32(n, -1.0e3..1.0e3);
        let k = rng.usize(1..20);
        let mut heap = PHeap::new(k);
        let mut topk = TopK::new(k);
        for (id, &s) in scores.iter().enumerate() {
            heap.offer(id as u64, s);
            topk.push(id as u64, f16::round_trip(s));
        }
        let h: Vec<u64> = heap.drain_sorted().iter().map(|n| n.id).collect();
        let t: Vec<u64> = topk.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(h, t);
    });
}

/// Spilling and filling a P-heap never changes subsequent behavior.
#[test]
fn pheap_spill_fill_is_transparent() {
    forall("pheap spill fill is transparent", 48, |rng| {
        let n1 = rng.usize(1..100);
        let first = rng.vec_f32(n1, -100.0..100.0);
        let n2 = rng.usize(1..100);
        let second = rng.vec_f32(n2, -100.0..100.0);
        let k = rng.usize(1..10);
        let mut direct = PHeap::new(k);
        let mut spilled = PHeap::new(k);
        for (id, &s) in first.iter().enumerate() {
            direct.offer(id as u64, s);
            spilled.offer(id as u64, s);
        }
        let records = spilled.spill(5);
        let mut resumed = PHeap::new(k);
        resumed.fill(&records, 5);
        for (off, &s) in second.iter().enumerate() {
            let id = (1000 + off) as u64;
            direct.offer(id, s);
            resumed.offer(id, s);
        }
        assert_eq!(direct.drain_sorted(), resumed.drain_sorted());
    });
}

/// Analytic single-query timing is monotone in cluster sizes and never
/// beats the bandwidth bound.
#[test]
fn analytic_single_query_sane() {
    forall("analytic single query sane", 48, |rng| {
        let shape = arb_shape(rng);
        let sizes: Vec<usize> = (0..rng.usize(1..32))
            .map(|_| rng.usize(1..50_000))
            .collect();
        let g = *rng.pick(&[1usize, 2, 4, 8, 16]);
        let cfg = AnnaConfig::paper();
        let w = QueryWorkload {
            shape,
            visited_cluster_sizes: sizes.clone(),
        };
        let r = analytic::single_query(&cfg, &w, g);
        assert!(r.cycles > 0.0);
        assert!(r.cycles + 1e-6 >= r.traffic.total() as f64 / cfg.bytes_per_cycle());

        // Doubling every cluster can only slow the query down.
        let big = QueryWorkload {
            shape,
            visited_cluster_sizes: sizes.iter().map(|&s| s * 2).collect(),
        };
        let rb = analytic::single_query(&cfg, &big, g);
        assert!(rb.cycles >= r.cycles);
    });
}

/// The batch schedule covers every (query, cluster) visit exactly once
/// regardless of allocation.
#[test]
fn schedule_is_a_partition() {
    forall("schedule is a partition", 48, |rng| {
        let shape = arb_shape(rng);
        let b = rng.usize(1..40);
        let w = rng.usize(1..6);
        let g = *rng.pick(&[1usize, 2, 4, 8, 16]);
        let cfg = AnnaConfig::paper();
        let c = shape.num_clusters;
        let workload = BatchWorkload {
            shape,
            cluster_sizes: (0..c).map(|i| 10 + i * 3).collect(),
            visits: (0..b)
                .map(|q| {
                    (0..w.min(c))
                        .map(|i| (q * 7 + i * 3) % c)
                        .collect::<Vec<_>>()
                })
                .map(|mut v: Vec<usize>| {
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect(),
        };
        let schedule = plan::plan(
            &cfg.plan_params(),
            &workload,
            ScmAllocation::IntraQuery { scm_per_query: g },
        );
        let mut count = vec![0usize; b];
        for round in &schedule.rounds {
            assert!(round.queries.len() <= schedule.queries_per_round);
            for &q in &round.queries {
                assert!(workload.visits[q].contains(&round.cluster));
                count[q] += 1;
            }
        }
        for (q, visits) in workload.visits.iter().enumerate() {
            assert_eq!(count[q], visits.len(), "query {q} visit count");
        }
        // Each non-empty visited cluster fetches exactly once.
        let visited: std::collections::HashSet<usize> =
            workload.visits.iter().flatten().cloned().collect();
        assert_eq!(schedule.clusters_fetched() as usize, visited.len());
    });
}

/// Analytic and event-driven batch engines agree within tolerance and
/// report identical code traffic, on arbitrary workloads.
#[test]
fn engines_agree_on_random_batches() {
    forall("engines agree on random batches", 48, |rng| {
        let shape = arb_shape(rng);
        let b = rng.usize(4..32);
        let cfg = AnnaConfig::paper();
        let c = shape.num_clusters;
        let cluster_sizes: Vec<usize> = (0..c).map(|_| rng.usize(100..20_100)).collect();
        let visits: Vec<Vec<usize>> = (0..b)
            .map(|_| {
                let w = rng.usize(1..5);
                let mut v: Vec<usize> = (0..w).map(|_| rng.usize(0..c)).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let workload = BatchWorkload {
            shape,
            cluster_sizes,
            visits,
        };
        let a = analytic::batch(&cfg, &workload, ScmAllocation::Auto);
        let cy = cycle::batch(&cfg, &workload, ScmAllocation::Auto);
        assert_eq!(a.traffic.code_bytes, cy.traffic.code_bytes);
        assert_eq!(a.traffic.topk_spill_bytes, cy.traffic.topk_spill_bytes);
        assert_eq!(a.traffic.topk_fill_bytes, cy.traffic.topk_fill_bytes);
        let ratio = cy.cycles / a.cycles;
        assert!(
            (0.6..1.6).contains(&ratio),
            "engines diverge: ratio {ratio}"
        );
    });
}

/// The event-driven engine tracks the analytic engine on arbitrary
/// single-query workloads (the analytic prologue serializes the first
/// cluster's fetch, so at small W the streaming engine runs up to
/// ~1.5x faster; from W >= 3 the band tightens), and serialized stages
/// never beat the double-buffered pipeline.
#[test]
fn event_engine_tracks_analytic() {
    forall("event engine tracks analytic", 48, |rng| {
        let shape = arb_shape(rng);
        let sizes: Vec<usize> = (0..rng.usize(3..10))
            .map(|_| rng.usize(500..30_000))
            .collect();
        let g = *rng.pick(&[1usize, 4, 16]);
        let cfg = AnnaConfig::paper();
        let w = QueryWorkload {
            shape,
            visited_cluster_sizes: sizes,
        };
        let a = analytic::single_query(&cfg, &w, g);
        let ev = cycle::single_query(&cfg, &w, g);
        let ratio = ev.cycles / a.cycles;
        assert!((0.6..1.4).contains(&ratio), "ratio {ratio}");
        assert_eq!(ev.traffic, a.traffic);

        let serial = analytic::single_query_unbuffered(&cfg, &w, g);
        assert!(serial.cycles + 1e-6 >= a.cycles, "unbuffered beat buffered");
        assert_eq!(serial.traffic.total(), a.traffic.total());
    });
}

/// More memory bandwidth never slows either engine down.
#[test]
fn bandwidth_monotonicity() {
    forall("bandwidth monotonicity", 48, |rng| {
        let shape = arb_shape(rng);
        let sizes: Vec<usize> = (0..rng.usize(1..16))
            .map(|_| rng.usize(100..20_000))
            .collect();
        let slow = AnnaConfig {
            mem_bandwidth_gbps: 16.0,
            ..AnnaConfig::paper()
        };
        let fast = AnnaConfig {
            mem_bandwidth_gbps: 256.0,
            ..AnnaConfig::paper()
        };
        let w = QueryWorkload {
            shape,
            visited_cluster_sizes: sizes,
        };
        let rs = analytic::single_query(&slow, &w, 16);
        let rf = analytic::single_query(&fast, &w, 16);
        assert!(rf.cycles <= rs.cycles + 1e-6);
        let cs = cycle::single_query(&slow, &w, 16);
        let cf = cycle::single_query(&fast, &w, 16);
        assert!(cf.cycles <= cs.cycles + 1e-6);
    });
}
