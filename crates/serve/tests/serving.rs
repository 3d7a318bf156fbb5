//! Serving-layer invariants: replay-identical batch composition, explicit
//! shed/timeout outcomes, exact predicted == measured traffic for every
//! dispatched batch, and mixed-`k` result correctness against the
//! query-at-a-time reference.

use anna_index::{BatchedScan, IvfPqConfig, IvfPqIndex, LutPrecision, SearchParams};
use anna_plan::{ClusterCacheSim, EnginePlan, RerankMode, RerankPolicy, RerankPrecision};
use anna_serve::{compose, execute, Admission, Outcome, Request, ServeConfig, TierPricing};
use anna_telemetry::Telemetry;
use anna_testkit::{forall, TestRng};
use anna_vector::{Metric, VectorSet};

/// Blobby data so the coarse quantizer produces unevenly sized clusters.
fn clustered(dim: usize, n: usize, salt: usize) -> VectorSet {
    VectorSet::from_fn(dim, n, |r, c| {
        let blob = ((r + salt) % 9) as f32;
        blob * 25.0 + ((r * 31 + c * 7 + salt * 13) % 11) as f32 * 0.3
    })
}

fn build(metric: Metric, salt: usize) -> (VectorSet, IvfPqIndex) {
    let data = clustered(8, 600, salt);
    let cfg = IvfPqConfig {
        metric,
        num_clusters: 12,
        m: 4,
        kstar: 16,
        coarse_iters: 3,
        pq_iters: 2,
        ..IvfPqConfig::default()
    };
    let index = IvfPqIndex::build(&data, &cfg);
    (data, index)
}

/// A sorted open-loop trace with heterogeneous k / nprobe / deadlines.
/// Half the traces are bursty: each gap is zero with probability 1/2, so
/// the batcher also meets clusters of simultaneous arrivals.
fn arb_trace(rng: &mut TestRng, n: usize, pool: usize) -> Vec<Request> {
    let bursty = rng.bool();
    let mut t = 0u64;
    (0..n)
        .map(|i| {
            if !(bursty && rng.bool()) {
                t += rng.u64(0..400_000);
            }
            Request {
                id: i as u64,
                query_row: rng.usize(0..pool),
                k: *rng.pick(&[3usize, 5, 8]),
                nprobe: rng.usize(1..6),
                arrival_ns: t,
                deadline_ns: *rng.pick(&[u64::MAX, 50_000_000_000]),
            }
        })
        .collect()
}

fn serve_cfg(rng: &mut TestRng) -> ServeConfig {
    ServeConfig {
        max_batch: rng.usize(2..17),
        max_wait_ns: rng.u64(100_000..2_000_000),
        queue_capacity: rng.usize(8..64),
        service_bytes_per_sec: rng.u64(1_000_000..4_000_000_000),
        shape_candidates: rng.usize(1..4),
        rerank: None,
        tier: None,
    }
}

/// The tentpole determinism property: composing the same seeded trace
/// twice yields `==` schedules — identical batch compositions, plans,
/// priced quotes, and admission decisions — and the schedule is
/// consistent: batches dispatch in nondecreasing virtual time, no request
/// is dispatched twice, and none before it arrives.
#[test]
fn composition_is_replay_identical() {
    forall("serve composition replay", 8, |rng| {
        let salt = rng.usize(0..1000);
        let (data, index) = build(*rng.pick(&[Metric::L2, Metric::InnerProduct]), salt);
        let n = rng.usize(10..60);
        let trace = arb_trace(rng, n, data.len());
        let cfg = serve_cfg(rng);
        let a = compose(&BatchedScan::new(&index), &data, &trace, &cfg);
        let b = compose(&BatchedScan::new(&index), &data, &trace, &cfg);
        assert_eq!(a, b, "same trace composed different schedules");
        assert_eq!(
            a.dispatched()
                + a.admissions
                    .iter()
                    .filter(|d| !matches!(d, Admission::Dispatched { .. }))
                    .count(),
            trace.len(),
            "requests leaked"
        );
        let mut seen = vec![false; trace.len()];
        let mut last_dispatch = 0;
        for batch in &a.batches {
            assert!(
                batch.dispatch_ns >= last_dispatch,
                "dispatch went backwards"
            );
            last_dispatch = batch.dispatch_ns;
            for &i in &batch.requests {
                assert!(!seen[i], "request {i} dispatched twice");
                seen[i] = true;
                assert!(
                    trace[i].arrival_ns <= batch.dispatch_ns,
                    "request {i} dispatched before it arrived"
                );
            }
        }
    });
}

/// Executing the schedule measures exactly the traffic the batcher priced,
/// for every batch, and the answered results match the query-at-a-time
/// reference truncated to each request's own `k` — across thread counts.
#[test]
fn executed_batches_match_prediction_and_reference() {
    forall("serve predicted == measured", 4, |rng| {
        let salt = rng.usize(0..1000);
        let metric = *rng.pick(&[Metric::L2, Metric::InnerProduct]);
        let (data, index) = build(metric, salt);
        let n = rng.usize(12..40);
        let trace = arb_trace(rng, n, data.len());
        let cfg = serve_cfg(rng);
        let schedule = compose(&BatchedScan::new(&index), &data, &trace, &cfg);
        let tel = Telemetry::disabled();
        let report = execute(&BatchedScan::new(&index), &data, &trace, &schedule, 1, &tel);

        assert!(
            report.all_traffic_match,
            "a batch diverged from its priced plan"
        );
        for b in &report.batches {
            assert!(b.traffic_match, "batch {} traffic mismatch", b.seq);
        }
        assert_eq!(
            report.completed + report.shed + report.timed_out,
            trace.len(),
            "outcomes must partition the trace"
        );

        for (i, r) in trace.iter().enumerate() {
            match report.outcomes[i] {
                Outcome::Completed { .. } => {
                    let got = report.results[i].as_ref().expect("completed => results");
                    let want = index.search(
                        data.row(r.query_row),
                        &SearchParams {
                            nprobe: r.nprobe,
                            k: r.k,
                            lut_precision: LutPrecision::F32,
                        },
                    );
                    assert_eq!(got, &want, "request {i} diverged from reference");
                }
                _ => assert!(report.results[i].is_none()),
            }
        }

        // Parallel execution answers bit-identically.
        let report4 = execute(&BatchedScan::new(&index), &data, &trace, &schedule, 4, &tel);
        assert_eq!(report4.results, report.results, "4 threads diverged");
        assert!(report4.all_traffic_match);
    });
}

/// Two-phase serving: the batcher prices the re-rank stage into every
/// batch's quote, execution measures exactly those bytes, and the
/// answers match the query-at-a-time two-phase reference.
#[test]
fn two_phase_schedule_prices_and_measures_rerank_bytes() {
    forall("serve two-phase predicted == measured", 4, |rng| {
        let salt = rng.usize(0..1000);
        let metric = *rng.pick(&[Metric::L2, Metric::InnerProduct]);
        let (data, index) = build(metric, salt);
        // Uniform k / nprobe so every request shares its batch's shape
        // and the query-at-a-time reference is exact.
        let k = rng.usize(3..9);
        let nprobe = rng.usize(2..6);
        let mut t = 0u64;
        let trace: Vec<Request> = (0..rng.usize(10..30))
            .map(|i| {
                t += rng.u64(0..400_000);
                Request {
                    id: i as u64,
                    query_row: rng.usize(0..data.len()),
                    k,
                    nprobe,
                    arrival_ns: t,
                    deadline_ns: u64::MAX,
                }
            })
            .collect();
        let policy = RerankPolicy {
            mode: *rng.pick(&[
                RerankMode::Fixed(RerankPrecision::F16),
                RerankMode::Fixed(RerankPrecision::F32),
                RerankMode::Adaptive,
            ]),
            alpha: rng.usize(2..5),
        };
        let cfg = ServeConfig {
            rerank: Some(policy),
            ..serve_cfg(rng)
        };
        let schedule = compose(&BatchedScan::new(&index), &data, &trace, &cfg);
        for b in &schedule.batches {
            let EnginePlan::ClusterMajor { plan, .. } = &b.plan else {
                panic!("the batcher composed a non-cluster-major plan");
            };
            assert!(plan.rerank.is_some(), "two-phase plan lost its stage");
            assert_eq!(b.k_scan, policy.k_first(b.k_exec));
            assert!(b.predicted.rerank_vector_bytes > 0);
            assert!(b.predicted.rerank_candidate_bytes > 0);
        }

        let tel = Telemetry::disabled();
        let report = execute(
            &BatchedScan::with_rerank_db(&index, &data),
            &data,
            &trace,
            &schedule,
            1,
            &tel,
        );
        assert!(
            report.all_traffic_match,
            "a two-phase batch diverged from its priced plan"
        );
        for (i, r) in trace.iter().enumerate() {
            if let Outcome::Completed { .. } = report.outcomes[i] {
                let got = report.results[i].as_ref().expect("completed => results");
                let want = index.search_two_phase(
                    data.row(r.query_row),
                    &SearchParams {
                        nprobe: r.nprobe,
                        k: r.k,
                        lut_precision: LutPrecision::F32,
                    },
                    &policy,
                    &data,
                );
                assert_eq!(got, &want, "request {i} diverged from two-phase reference");
            }
        }

        let report4 = execute(
            &BatchedScan::with_rerank_db(&index, &data),
            &data,
            &trace,
            &schedule,
            4,
            &tel,
        );
        assert_eq!(report4.results, report.results, "4 threads diverged");
        assert!(report4.all_traffic_match);
    });
}

/// A queue at capacity sheds arrivals explicitly instead of growing
/// without bound: with a tiny queue and a burst far larger than it, some
/// requests must be shed, and each shed decision records the depth.
#[test]
fn overload_sheds_at_admission() {
    let (data, index) = build(Metric::L2, 7);
    // 40 simultaneous arrivals into a queue of 4 that cannot drain (the
    // window stays open for 1 ms of virtual time after the burst).
    let trace: Vec<Request> = (0..40)
        .map(|i| Request {
            id: i,
            query_row: (i as usize * 13) % data.len(),
            k: 5,
            nprobe: 3,
            arrival_ns: 1_000,
            deadline_ns: u64::MAX,
        })
        .collect();
    let cfg = ServeConfig {
        max_batch: 64,
        max_wait_ns: 1_000_000,
        queue_capacity: 4,
        ..ServeConfig::default()
    };
    let schedule = compose(&BatchedScan::new(&index), &data, &trace, &cfg);
    let shed: Vec<_> = schedule
        .admissions
        .iter()
        .filter_map(|d| match d {
            Admission::Shed { queue_depth } => Some(*queue_depth),
            _ => None,
        })
        .collect();
    assert_eq!(shed.len(), 36, "queue of 4 must shed the other 36");
    assert!(shed.iter().all(|&d| d >= 4), "shed depth below capacity");
    assert_eq!(schedule.dispatched(), 4);
}

/// Requests whose predicted completion cannot make the deadline are
/// dropped with an explicit timeout outcome rather than dispatched dead.
#[test]
fn hopeless_requests_time_out_explicitly() {
    let (data, index) = build(Metric::L2, 3);
    let trace: Vec<Request> = (0..8)
        .map(|i| Request {
            id: i,
            query_row: (i as usize * 29) % data.len(),
            k: 5,
            nprobe: 3,
            arrival_ns: 1_000 * i,
            // 1 µs budget against a ~milliseconds predicted service time.
            deadline_ns: 1_000,
        })
        .collect();
    let cfg = ServeConfig {
        max_batch: 8,
        max_wait_ns: 100_000,
        // Absurdly slow predicted server: everything must time out.
        service_bytes_per_sec: 1,
        ..ServeConfig::default()
    };
    let schedule = compose(&BatchedScan::new(&index), &data, &trace, &cfg);
    assert_eq!(schedule.dispatched(), 0, "no dead request may dispatch");
    assert!(schedule
        .admissions
        .iter()
        .all(|d| matches!(d, Admission::TimedOut { .. })));

    let tel = Telemetry::enabled();
    let report = execute(&BatchedScan::new(&index), &data, &trace, &schedule, 1, &tel);
    assert_eq!(report.timed_out, 8);
    assert_eq!(report.completed, 0);
    assert_eq!(report.latency.count, 0);
    let snap = tel.snapshot_json().unwrap();
    assert!(snap.contains("\"serve.timed_out\":8"), "{snap}");
}

/// The size threshold closes a window early: a burst of `max_batch`
/// requests dispatches at the burst's arrival time, not a full max-wait
/// later.
#[test]
fn size_threshold_closes_before_max_wait() {
    let (data, index) = build(Metric::L2, 11);
    let trace: Vec<Request> = (0..6)
        .map(|i| Request {
            id: i,
            query_row: i as usize * 17 % data.len(),
            k: 4,
            nprobe: 2,
            arrival_ns: 10_000 + i,
            deadline_ns: u64::MAX,
        })
        .collect();
    let cfg = ServeConfig {
        max_batch: 6,
        max_wait_ns: 60_000_000, // 60 ms: must not wait this long
        queue_capacity: 64,
        service_bytes_per_sec: 4_000_000_000,
        shape_candidates: 1,
        rerank: None,
        tier: None,
    };
    let schedule = compose(&BatchedScan::new(&index), &data, &trace, &cfg);
    assert_eq!(schedule.batches.len(), 1);
    let b = &schedule.batches[0];
    assert_eq!(b.requests.len(), 6);
    assert_eq!(
        b.dispatch_ns,
        trace.last().unwrap().arrival_ns,
        "size threshold must close at the filling arrival"
    );
}

/// An under-full window closes at `open + max_wait`, bounding the queue
/// wait of a lone request.
#[test]
fn max_wait_bounds_a_lone_request() {
    let (data, index) = build(Metric::L2, 5);
    let trace = vec![Request {
        id: 0,
        query_row: 42,
        k: 5,
        nprobe: 3,
        arrival_ns: 7_000,
        deadline_ns: u64::MAX,
    }];
    let cfg = ServeConfig {
        max_wait_ns: 250_000,
        ..ServeConfig::default()
    };
    let schedule = compose(&BatchedScan::new(&index), &data, &trace, &cfg);
    assert_eq!(schedule.batches.len(), 1);
    assert_eq!(schedule.batches[0].dispatch_ns, 7_000 + 250_000);
}

/// Untiered configs quote no tier split: `predicted_tier` is `None` and
/// every candidate shape's disk bytes are zero.
#[test]
fn untiered_configs_quote_no_tier_split() {
    let (data, index) = build(Metric::L2, 17);
    let mut rng = TestRng::new(0xD15C);
    let trace = arb_trace(&mut rng, 24, data.len());
    let schedule = compose(
        &BatchedScan::new(&index),
        &data,
        &trace,
        &ServeConfig::default(),
    );
    assert!(!schedule.batches.is_empty());
    for b in &schedule.batches {
        assert!(b.predicted_tier.is_none());
        assert!(b.quotes.iter().all(|q| q.predicted_disk_bytes == 0));
    }
}

/// Tiered composition splits every quote's code bytes across the two
/// tiers, exactly covers the base prediction, and replays identically.
#[test]
fn tiered_quotes_split_code_bytes_across_tiers() {
    forall("tiered quotes split bytes", 6, |rng| {
        let (data, index) = build(*rng.pick(&[Metric::L2, Metric::InnerProduct]), 23);
        let n = rng.usize(12..40);
        let trace = arb_trace(rng, n, data.len());
        let capacity = rng.u64(0..40_000);
        let cfg = ServeConfig {
            tier: Some(TierPricing {
                disk_bytes_per_sec: rng.u64(1_000_000..100_000_000),
                cache: ClusterCacheSim::new(capacity),
            }),
            ..serve_cfg(rng)
        };
        let schedule = compose(&BatchedScan::new(&index), &data, &trace, &cfg);
        for b in &schedule.batches {
            let tier = b.predicted_tier.expect("tiered config must quote a split");
            assert_eq!(
                tier.total_code_bytes(),
                b.predicted.code_bytes,
                "batch {}: tier split must cover the code bytes",
                b.seq
            );
            for q in &b.quotes {
                assert!(q.predicted_disk_bytes <= q.predicted_bytes);
            }
            if capacity == 0 {
                assert_eq!(tier.disk_code_bytes, b.predicted.code_bytes);
                assert_eq!(tier.cache_hits, 0);
            }
        }
        // Tiered composition is as replayable as untiered composition.
        assert_eq!(
            schedule,
            compose(&BatchedScan::new(&index), &data, &trace, &cfg),
            "tiered batcher is not replayable"
        );
    });
}

/// The composer's cache warms across batches: a repetitive trace over a
/// large cache pays storage-tier bytes on the first dispatch only, while
/// a zero-capacity cache pays them on every dispatch.
#[test]
fn cache_warming_moves_later_batches_off_the_storage_tier() {
    let (data, index) = build(Metric::L2, 29);
    // One identical request per second: every batch visits the same
    // clusters, and the huge gaps make each request its own batch under
    // any service-time prediction.
    let trace: Vec<Request> = (0..6)
        .map(|i| Request {
            id: i,
            query_row: 42,
            k: 5,
            nprobe: 4,
            arrival_ns: 1_000_000_000 * (i + 1),
            deadline_ns: u64::MAX,
        })
        .collect();
    let with_capacity = |cap: u64| ServeConfig {
        max_wait_ns: 100_000,
        tier: Some(TierPricing {
            disk_bytes_per_sec: 100_000_000,
            cache: ClusterCacheSim::new(cap),
        }),
        ..ServeConfig::default()
    };
    let cold = compose(&BatchedScan::new(&index), &data, &trace, &with_capacity(0));
    let warm = compose(
        &BatchedScan::new(&index),
        &data,
        &trace,
        &with_capacity(u64::MAX),
    );
    assert_eq!(cold.batches.len(), trace.len());
    assert_eq!(warm.batches.len(), trace.len());
    for (i, (c, w)) in cold.batches.iter().zip(&warm.batches).enumerate() {
        assert_eq!(c.predicted.code_bytes, w.predicted.code_bytes, "batch {i}");
        let (ct, wt) = (c.predicted_tier.unwrap(), w.predicted_tier.unwrap());
        assert_eq!(ct.disk_code_bytes, c.predicted.code_bytes, "cold batch {i}");
        if i == 0 {
            assert_eq!(wt.disk_code_bytes, w.predicted.code_bytes);
        } else {
            assert_eq!(wt.disk_code_bytes, 0, "warm batch {i} should hit");
            assert_eq!(wt.cache_code_bytes, w.predicted.code_bytes);
            // A cache hit is quoted as strictly faster service than the
            // same bytes ground through the slow storage tier.
            assert!(w.predicted_service_ns < c.predicted_service_ns, "batch {i}");
        }
    }
}

/// The tiered service-time prediction charges each tier at its own rate:
/// `ceil(ram_bytes / ram_rate) + ceil(disk_bytes / disk_rate)`.
#[test]
fn tier_service_time_adds_the_storage_term() {
    let (data, index) = build(Metric::L2, 31);
    let trace = vec![Request {
        id: 0,
        query_row: 7,
        k: 5,
        nprobe: 4,
        arrival_ns: 1_000,
        deadline_ns: u64::MAX,
    }];
    let ram_rate = 4_000_000_000u64;
    let disk_rate = 10_000_000u64;
    let base_cfg = ServeConfig {
        service_bytes_per_sec: ram_rate,
        ..ServeConfig::default()
    };
    let tier_cfg = ServeConfig {
        tier: Some(TierPricing {
            disk_bytes_per_sec: disk_rate,
            cache: ClusterCacheSim::new(0),
        }),
        ..base_cfg.clone()
    };
    let plain = compose(&BatchedScan::new(&index), &data, &trace, &base_cfg);
    let tiered = compose(&BatchedScan::new(&index), &data, &trace, &tier_cfg);
    let (p, t) = (&plain.batches[0], &tiered.batches[0]);
    assert_eq!(p.predicted, t.predicted, "pricing itself is tier-agnostic");
    let disk = t.predicted_tier.unwrap().disk_code_bytes;
    assert!(disk > 0);
    let want = ((t.predicted.total() - disk) as u128 * 1_000_000_000).div_ceil(ram_rate as u128)
        as u64
        + (disk as u128 * 1_000_000_000).div_ceil(disk_rate as u128) as u64;
    assert_eq!(t.predicted_service_ns, want);
    assert!(t.predicted_service_ns > p.predicted_service_ns);
}
