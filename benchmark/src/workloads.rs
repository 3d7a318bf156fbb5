//! The six workloads and the two kinds of *pass* (a workload's fixed,
//! seeded unit of work) they are made of.
//!
//! Every pass drives the system only through the API ROADMAP item 3
//! keeps: the `SearchEngine` trait, called through `&dyn SearchEngine`
//! (because `BatchedScan`'s inherent `plan()` shadows the trait's), and
//! `anna_serve::{compose, execute}`. It never calls `BatchedScan::run*`
//! or `IvfPqIndex::search*`, which item 3(a) deletes.

use crate::trace::Recorder;
use anna_engine::{PlanOptions, QuerySpec, SearchEngine};
use anna_plan::{EnginePlan, RerankMode, RerankPolicy, TierTraffic};
use anna_serve::{Outcome, Request, ServeConfig};
use anna_telemetry::Telemetry;
use anna_vector::{Neighbor, VectorSet};
use std::time::Instant;

/// Batch layout of the tiered workload.
pub const TIERED_BATCHES: usize = 16;
pub const TIERED_BATCH: usize = 64;
pub const TIERED_SHARDS: usize = 4;
pub const NPROBE: usize = 8;

/// Open-loop trace of the serve workload. `service_bytes_per_sec` is
/// fixed, never calibrated, so the schedule replays bit-identically.
pub const SERVE_REQUESTS: usize = 2048;
pub const SERVE_RATE_PER_S: f64 = 3000.0;
pub const SERVE_DEADLINE_NS: u64 = 50_000_000;

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 64,
        max_wait_ns: 2_000_000,
        queue_capacity: 256,
        service_bytes_per_sec: 300_000_000,
        shape_candidates: 3,
        rerank: None,
        tier: None,
    }
}

pub fn two_phase_policy() -> RerankPolicy {
    RerankPolicy {
        mode: RerankMode::Adaptive,
        alpha: 10,
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Closed loop over the pool in uniform batches of `batch` queries.
    Closed {
        k: usize,
        batch: usize,
        two_phase: bool,
    },
    /// Re-opened tiered shards, then skewed batches.
    Tiered,
    /// `compose()` + `execute()` over a Poisson trace.
    Serve,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub kstar: usize,
    pub kind: Kind,
    /// Correctness floor on `recall10` at full scale: 0.02 below the
    /// lowest value seen over seeds 1..=10 and 17 spot-checked others
    /// (`BENCHMARK.json` has no field for it, so it lives here).
    pub recall_floor: f64,
    /// Timed set-ups per run (`setup_s` is the fastest). The k*=256
    /// set-up takes about 5 s, so it gets two: more would not fit the
    /// driver's time budget.
    pub setup_repeats: usize,
}

/// Why each workload exists is recorded once, in `BENCHMARK.json` (and
/// expanded in the README).
pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "batch_k16",
        kstar: 16,
        kind: Kind::Closed {
            k: 100,
            batch: 512,
            two_phase: false,
        },
        recall_floor: 0.978,
        setup_repeats: 4,
    },
    WorkloadSpec {
        name: "batch_k256",
        kstar: 256,
        kind: Kind::Closed {
            k: 100,
            batch: 512,
            two_phase: false,
        },
        recall_floor: 0.978,
        setup_repeats: 2,
    },
    WorkloadSpec {
        name: "single_query",
        kstar: 16,
        kind: Kind::Closed {
            k: 100,
            batch: 1,
            two_phase: false,
        },
        recall_floor: 0.978,
        setup_repeats: 4,
    },
    WorkloadSpec {
        name: "two_phase",
        kstar: 16,
        kind: Kind::Closed {
            k: 10,
            batch: 512,
            two_phase: true,
        },
        recall_floor: 0.978,
        setup_repeats: 4,
    },
    WorkloadSpec {
        name: "tiered_half",
        kstar: 16,
        kind: Kind::Tiered,
        recall_floor: 0.977,
        setup_repeats: 4,
    },
    WorkloadSpec {
        name: "serve_poisson",
        kstar: 16,
        kind: Kind::Serve,
        recall_floor: 0.616,
        setup_repeats: 4,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One request of a pass, in result order.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpec {
    pub row: usize,
    pub k: usize,
}

/// One batch handed to an engine: the gathered queries and their specs,
/// prepared once outside every timed region.
pub struct Batch {
    pub rows: Vec<usize>,
    pub queries: VectorSet,
    pub specs: Vec<QuerySpec>,
}

impl Batch {
    pub fn uniform(pool: &VectorSet, rows: Vec<usize>, k: usize) -> Batch {
        Batch {
            queries: pool.gather(&rows),
            specs: vec![QuerySpec { k, scope: NPROBE }; rows.len()],
            rows,
        }
    }

    pub fn requests(&self) -> impl Iterator<Item = RequestSpec> + '_ {
        self.rows
            .iter()
            .zip(&self.specs)
            .map(|(&row, s)| RequestSpec { row, k: s.k })
    }
}

/// What must repeat exactly from pass to pass (and, per seed, from run
/// to run): byte totals, plan shape, cache events and serve decisions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Facts {
    /// `TrafficReport::total()` summed over the pass's batches.
    pub bytes: u64,
    pub plan_rounds: u64,
    pub clusters_fetched: u64,
    pub spill_bytes: u64,
    pub tier: TierTraffic,
    pub batches: u64,
    pub dispatched: u64,
    pub shed: u64,
    pub timed_out: u64,
    pub shapes_priced: u64,
}

/// An executed plan kept for the probes (traced passes only).
pub struct Replay {
    pub plan: EnginePlan,
    pub rows: Vec<usize>,
    /// Index of each query's request in [`Pass::results`].
    pub request_ids: Vec<usize>,
    /// Per-query result count (the request's own `k`).
    pub ks: Vec<usize>,
}

/// Serve-only timing detail for the per-layer serve metrics.
#[derive(Default)]
pub struct ServeDetail {
    pub queue_wait_ns: Vec<u64>,
    /// `(predicted, measured)` service time per dispatched batch.
    pub service_ns: Vec<(u64, u64)>,
    pub deadline_missed: u64,
}

#[derive(Default)]
pub struct Pass {
    /// Host wall time over the request paths.
    pub path_ns: u64,
    /// Wall latency of every answered request.
    pub latencies_ns: Vec<u64>,
    /// Per request, in request order; empty when unanswered.
    pub results: Vec<Vec<Neighbor>>,
    pub facts: Facts,
    /// Shed + timed out + deadline-missed + requests in a batch whose
    /// `verify()` failed.
    pub failed: u64,
    pub verify_errors: Vec<String>,
    pub replay: Vec<Replay>,
    pub serve: ServeDetail,
}

/// The program's present tracing cost is part of the traced round.
fn telemetry_for(rec: &Recorder) -> Telemetry {
    if rec.is_enabled() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    }
}

fn plan_facts(plan: &EnginePlan, facts: &mut Facts) {
    match plan {
        EnginePlan::ClusterMajor { plan, .. } => {
            facts.plan_rounds += plan.rounds.len() as u64;
            facts.clusters_fetched += plan.clusters_fetched();
        }
        EnginePlan::Sharded(sharded) => {
            for (_, plan) in &sharded.per_shard {
                facts.plan_rounds += plan.rounds.len() as u64;
                facts.clusters_fetched += plan.clusters_fetched();
            }
        }
        EnginePlan::Graph { .. } => {}
    }
}

/// A pass of engine batches, one request path in flight: scope → plan →
/// price → execute → verify per batch, one `Instant` pair around it.
pub fn engine_pass(
    engine: &dyn SearchEngine,
    batches: &[Batch],
    options: &PlanOptions,
    threads: usize,
    rec: &mut Recorder,
) -> Pass {
    let tel = telemetry_for(rec);
    let mut pass = Pass::default();
    for batch in batches {
        rec.next_request();

        let start = Instant::now();
        let root = rec.begin("request");
        let span = rec.begin("engine.scope");
        let scopes: Vec<Vec<usize>> = batch
            .queries
            .iter()
            .zip(&batch.specs)
            .map(|(q, spec)| engine.query_scope(q, spec))
            .collect();
        rec.end(span);
        let span = rec.begin("engine.plan");
        let plan = engine.plan(&batch.queries, &batch.specs, &scopes, options);
        rec.end(span);
        let span = rec.begin("engine.price");
        let predicted = engine.price(&plan);
        rec.end(span);
        let span = rec.begin("engine.execute");
        let run = engine.execute(&batch.queries, &plan, threads, &tel);
        rec.end(span);
        let span = rec.begin("engine.verify");
        let predicted_tier = match &plan {
            EnginePlan::Sharded(sharded) => Some(&sharded.predicted_tier),
            _ => None,
        };
        let verified = engine.verify(&predicted, predicted_tier, &run.measured);
        rec.end(span);
        rec.end(root);
        let path_ns = start.elapsed().as_nanos() as u64;

        pass.path_ns += path_ns;
        if let Err(message) = verified {
            pass.failed += batch.rows.len() as u64;
            pass.verify_errors.push(message);
        }
        pass.latencies_ns
            .extend(std::iter::repeat_n(path_ns, batch.rows.len()));
        pass.facts.bytes += predicted.total();
        pass.facts.spill_bytes += predicted.topk_spill_bytes;
        pass.facts.batches += 1;
        pass.facts.dispatched += batch.rows.len() as u64;
        plan_facts(&plan, &mut pass.facts);
        if let Some(tier) = &run.measured.tier {
            pass.facts.tier.accumulate(tier);
        }
        if rec.is_enabled() {
            let first = pass.results.len();
            pass.replay.push(Replay {
                plan,
                rows: batch.rows.clone(),
                request_ids: (first..first + batch.rows.len()).collect(),
                ks: batch.specs.iter().map(|s| s.k).collect(),
            });
        }
        pass.results.extend(run.results);
    }
    pass
}

/// A pass of the serve workload: `compose()` + `execute()` over the
/// whole trace. Arrivals are virtual, so the generator is never late;
/// a request's latency is its virtual queue wait plus the measured
/// service time of the batch that carried it.
pub fn serve_pass(
    engine: &dyn SearchEngine,
    pool: &VectorSet,
    trace: &[Request],
    config: &ServeConfig,
    threads: usize,
    rec: &mut Recorder,
) -> Pass {
    let tel = telemetry_for(rec);
    rec.next_request();

    let start = Instant::now();
    let root = rec.begin("request");
    let span = rec.begin("serve.compose");
    let schedule = anna_serve::compose(engine, pool, trace, config);
    rec.end(span);
    let span = rec.begin("serve.execute");
    let report = anna_serve::execute(engine, pool, trace, &schedule, threads, &tel);
    rec.end(span);
    rec.end(root);
    let path_ns = start.elapsed().as_nanos() as u64;

    let mut pass = Pass {
        path_ns,
        ..Pass::default()
    };
    for outcome in &report.outcomes {
        match *outcome {
            Outcome::Completed {
                queue_wait_ns,
                latency_ns,
                deadline_missed,
                ..
            } => {
                pass.latencies_ns.push(latency_ns);
                pass.serve.queue_wait_ns.push(queue_wait_ns);
                pass.serve.deadline_missed += deadline_missed as u64;
            }
            Outcome::Shed { .. } | Outcome::TimedOut { .. } => {}
        }
    }
    pass.failed = (report.shed + report.timed_out) as u64 + pass.serve.deadline_missed;
    for batch in &report.batches {
        pass.serve
            .service_ns
            .push((batch.predicted_service_ns, batch.measured_service_ns));
        pass.facts.bytes += batch.predicted_bytes;
        if !batch.traffic_match {
            pass.failed += batch.size as u64;
            pass.verify_errors.push(format!(
                "serve batch {}: predicted != measured traffic",
                batch.seq
            ));
        }
    }
    pass.facts.batches = schedule.batches.len() as u64;
    pass.facts.dispatched = schedule.dispatched() as u64;
    pass.facts.shed = report.shed as u64;
    pass.facts.timed_out = report.timed_out as u64;
    for batch in &schedule.batches {
        pass.facts.shapes_priced += batch.quotes.len() as u64;
        pass.facts.spill_bytes += batch.predicted.topk_spill_bytes;
        plan_facts(&batch.plan, &mut pass.facts);
    }
    pass.results = report
        .results
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect();
    if rec.is_enabled() {
        pass.replay = schedule
            .batches
            .into_iter()
            .map(|batch| Replay {
                rows: batch.requests.iter().map(|&i| trace[i].query_row).collect(),
                ks: batch.requests.iter().map(|&i| trace[i].k).collect(),
                request_ids: batch.requests,
                plan: batch.plan,
            })
            .collect();
    }
    pass
}
