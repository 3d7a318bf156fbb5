//! The dynamic micro-batcher: a deterministic discrete-event machine over
//! a virtual-time arrival trace.
//!
//! The batcher turns an open-loop arrival trace into a sequence of
//! [`PlannedBatch`]es plus one explicit admission decision per request:
//!
//! 1. **Admission** — an arriving request is shed when the queue is at
//!    capacity (backpressure toward the client).
//! 2. **Window close** — a batch window closes on whichever fires first:
//!    the *max-wait deadline* (`open + max_wait_ns`) or the *size
//!    threshold* (`max_batch` queued requests), deferred until the
//!    (virtual) server is free — a batch the worker pool cannot accept is
//!    not closed, which is what lets the queue exert backpressure.
//! 3. **Shape pricing** — at close, candidate batch shapes (prefixes of
//!    the FIFO queue) are planned and priced in bytes through the
//!    engine-agnostic [`SearchEngine`] pipeline — the *exact* tagged
//!    [`EnginePlan`] each shape would execute; the shape with the lowest
//!    predicted bytes per query wins (ties prefer the larger batch).
//! 4. **Deadline filter** — requests the predicted completion time
//!    (`close + predicted_service`) would already put past their deadline
//!    are dropped with an explicit timeout outcome instead of burning
//!    service capacity on dead answers.
//!
//! Everything here is integer arithmetic over the virtual clock plus the
//! plan layer's deterministic byte accounting — **no floats, no host
//! clock** — so composing the same trace twice yields bit-identical
//! schedules. The property harness asserts exactly that (replay-identical
//! batch compositions), which is what makes open-loop serving results
//! debuggable: any batch in a report can be re-derived offline from the
//! trace and the config.

use std::collections::VecDeque;

use crate::request::Request;
use anna_engine::{PlanOptions, QuerySpec, SearchEngine};
use anna_plan::{ClusterCacheSim, EnginePlan, RerankPolicy, TierTraffic, TrafficReport};
use anna_vector::VectorSet;

/// Two-tier pricing for serving over a tiered (disk-backed) index.
///
/// When set on [`ServeConfig::tier`], the batcher prices every candidate
/// shape with [`anna_plan::TrafficModel::price_tiered`] against an evolving
/// clone of the index's cluster-cache state: quotes split code bytes into
/// bytes-from-cache and bytes-from-storage, shape selection weighs each
/// tier by its service rate, and the composer's cache advances batch by
/// batch exactly as the tiered runtime's will — the same (cluster, bytes,
/// visits) sequence drives both, which is what keeps the quoted
/// [`TierTraffic`] equal to what a tiered execution of the schedule
/// measures (the property the index crate's sharded/tiered tests pin).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierPricing {
    /// Service rate for bytes that miss the cache (storage tier), in
    /// bytes per second. Bytes served from cache keep moving at
    /// [`ServeConfig::service_bytes_per_sec`].
    pub disk_bytes_per_sec: u64,
    /// The cluster-cache policy state of the index the schedule will run
    /// against, snapshotted at composition start (e.g.
    /// `TieredIndex::cache_sim`). The composer clones and advances it as
    /// batches commit.
    pub cache: ClusterCacheSim,
}

/// Serving-layer configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Size threshold: a window holding this many requests closes
    /// immediately (once the server is free).
    pub max_batch: usize,
    /// Max-wait deadline: a window older than this closes even when
    /// under-full — the latency half of the latency/throughput tradeoff.
    pub max_wait_ns: u64,
    /// Admission bound on queued (not yet dispatched) requests; arrivals
    /// beyond it are shed.
    pub queue_capacity: usize,
    /// Predicted service rate in priced bytes per second, used for the
    /// virtual-time queue dynamics (server-busy deferral, deadline
    /// prediction). Calibrate with [`crate::calibrate_service_rate`] or
    /// fix it in tests for exact replay.
    pub service_bytes_per_sec: u64,
    /// How many candidate prefix shapes the batcher prices per close
    /// (including the full prefix; at least 1).
    pub shape_candidates: usize,
    /// Two-phase serving: when set, every batch runs the over-fetch +
    /// re-rank pipeline under this policy. The batcher prices the re-rank
    /// stage's bytes (candidate records + vector fetches) into its shape
    /// quotes and deadline predictions, and the executor asserts them
    /// against the measured stats like every first-pass component.
    pub rerank: Option<RerankPolicy>,
    /// Two-tier serving: when set, shape quotes split code bytes across
    /// the cache and storage tiers, service-time predictions charge each
    /// tier at its own rate, and the batcher threads the cluster-cache
    /// state through the schedule (see [`TierPricing`]).
    pub tier: Option<TierPricing>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_wait_ns: 2_000_000, // 2 ms
            queue_capacity: 512,
            service_bytes_per_sec: 4_000_000_000, // ~4 GB/s until calibrated
            shape_candidates: 3,
            rerank: None,
            tier: None,
        }
    }
}

/// One priced candidate batch shape considered at a window close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeQuote {
    /// Prefix length priced.
    pub size: usize,
    /// TrafficModel-predicted total bytes for that prefix's shaped plan.
    pub predicted_bytes: u64,
    /// Of `predicted_bytes`, the code bytes predicted to come from the
    /// storage tier (cache misses). Zero when no tier is configured.
    pub predicted_disk_bytes: u64,
}

/// One batch the batcher committed to dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedBatch {
    /// Position in the schedule (dispatch order).
    pub seq: usize,
    /// Virtual time the batch's window opened.
    pub open_ns: u64,
    /// Virtual time the window closed and the batch dispatched.
    pub dispatch_ns: u64,
    /// Trace indices of the dispatched requests, FIFO order.
    pub requests: Vec<usize>,
    /// The final result count per query: the largest `k` in the batch
    /// (per-request results are truncated back to their own `k`).
    pub k_exec: usize,
    /// The first-pass heap size the engine runs with:
    /// `policy.k_first(k_exec)` under a two-phase config, `k_exec`
    /// otherwise.
    pub k_scan: usize,
    /// The exact engine-tagged plan the engine will execute.
    pub plan: EnginePlan,
    /// The TrafficModel's byte-exact prediction for `plan` — the
    /// executor asserts the measured bytes equal this, component for
    /// component.
    pub predicted: TrafficReport,
    /// Under a tiered config, the predicted cache/storage split of
    /// `predicted.code_bytes` (with the composer's cache state as of this
    /// batch); `None` otherwise.
    pub predicted_tier: Option<TierTraffic>,
    /// Predicted service time: cache-tier bytes at the configured byte
    /// rate plus (under a tiered config) storage-tier bytes at the disk
    /// rate.
    pub predicted_service_ns: u64,
    /// Every candidate shape priced at this close (the chosen one
    /// included), for the report's pricing audit trail.
    pub quotes: Vec<ShapeQuote>,
}

/// Per-request admission decision, aligned with the trace by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Dispatched in schedule batch `batch`.
    Dispatched {
        /// Batch sequence number.
        batch: usize,
    },
    /// Shed at arrival (queue full).
    Shed {
        /// Queue depth at the rejecting arrival.
        queue_depth: usize,
    },
    /// Dropped at a window close because the predicted completion missed
    /// the deadline.
    TimedOut {
        /// Virtual wait accumulated when dropped.
        predicted_wait_ns: u64,
    },
}

/// The batcher's deterministic output: batches plus per-request decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSchedule {
    /// Dispatched batches in dispatch order.
    pub batches: Vec<PlannedBatch>,
    /// One decision per trace request.
    pub admissions: Vec<Admission>,
    /// Virtual time the (virtual) server frees after the last batch.
    pub server_free_ns: u64,
}

impl BatchSchedule {
    /// Total requests dispatched across all batches.
    pub fn dispatched(&self) -> usize {
        self.batches.iter().map(|b| b.requests.len()).sum()
    }
}

/// Prices one prefix of the queue: engine plan plus prediction.
struct PrefixPricing {
    plan: EnginePlan,
    predicted: TrafficReport,
    /// Tier split of the prediction (tiered configs only).
    predicted_tier: Option<TierTraffic>,
    /// The cache state after this prefix would execute; committed to the
    /// composer when the batch dispatches, discarded otherwise.
    cache_after: Option<ClusterCacheSim>,
}

struct Composer<'a> {
    engine: &'a dyn SearchEngine,
    queries: &'a VectorSet,
    trace: &'a [Request],
    cfg: &'a ServeConfig,
    /// Per-trace-index resolved search scope, computed once on first use.
    visit_cache: Vec<Option<Vec<usize>>>,
    /// Evolving cluster-cache state under a tiered config: candidate
    /// pricings clone it, committed batches advance it.
    cache: Option<ClusterCacheSim>,
}

impl<'a> Composer<'a> {
    fn spec(&self, idx: usize) -> QuerySpec {
        let r = &self.trace[idx];
        QuerySpec {
            k: r.k,
            scope: r.nprobe,
        }
    }

    fn visits(&mut self, idx: usize) -> &Vec<usize> {
        if self.visit_cache[idx].is_none() {
            let r = &self.trace[idx];
            self.visit_cache[idx] = Some(
                self.engine
                    .query_scope(self.queries.row(r.query_row), &self.spec(idx)),
            );
        }
        self.visit_cache[idx].as_ref().unwrap()
    }

    /// Builds the engine plan + traffic prediction for the request
    /// indices `idxs` (deterministic: `SearchEngine::plan` is a pure
    /// function of its inputs and the traffic model is pure integer
    /// arithmetic over the plan).
    fn price(&mut self, idxs: &[usize]) -> PrefixPricing {
        let specs: Vec<QuerySpec> = idxs.iter().map(|&i| self.spec(i)).collect();
        let scopes: Vec<Vec<usize>> = idxs.iter().map(|&i| self.visits(i).clone()).collect();
        let rows: Vec<usize> = idxs.iter().map(|&i| self.trace[i].query_row).collect();
        let batch_queries = self.queries.gather(&rows);
        let options = PlanOptions {
            rerank: self.cfg.rerank,
        };
        let plan = self.engine.plan(&batch_queries, &specs, &scopes, &options);
        let (predicted, predicted_tier, cache_after) = match &self.cache {
            Some(state) => {
                let mut sim = state.clone();
                let (report, tier) = self.engine.price_tiered(&plan, &mut sim);
                (report, Some(tier), Some(sim))
            }
            None => (self.engine.price(&plan), None, None),
        };
        PrefixPricing {
            plan,
            predicted,
            predicted_tier,
            cache_after,
        }
    }

    /// Predicted service time for a priced batch: cache-tier bytes at
    /// `service_bytes_per_sec` plus storage-tier bytes at the configured
    /// disk rate (the whole prediction at the base rate when untiered).
    fn service_ns(&self, predicted: &TrafficReport, tier: Option<&TierTraffic>) -> u64 {
        let total = predicted.total();
        let disk = tier.map_or(0, |t| t.disk_code_bytes).min(total);
        let rate = self.cfg.service_bytes_per_sec.max(1) as u128;
        let mut ns = ((total - disk) as u128 * 1_000_000_000).div_ceil(rate);
        if let Some(tp) = &self.cfg.tier {
            let disk_rate = tp.disk_bytes_per_sec.max(1) as u128;
            ns += (disk as u128 * 1_000_000_000).div_ceil(disk_rate);
        }
        ns.min(u64::MAX as u128) as u64
    }

    /// The shape-selection cost of a quote. Untiered, it is the predicted
    /// total bytes; tiered, each tier's bytes are weighted by the *other*
    /// tier's rate (the common-denominator form of the predicted service
    /// time), so selection stays pure integer arithmetic and reduces to
    /// bytes-per-query when the tiers move at one rate.
    fn shape_cost(&self, q: &ShapeQuote) -> u128 {
        match &self.cfg.tier {
            None => q.predicted_bytes as u128,
            Some(tp) => {
                let disk = q.predicted_disk_bytes.min(q.predicted_bytes);
                let ram = (q.predicted_bytes - disk) as u128;
                ram * tp.disk_bytes_per_sec.max(1) as u128
                    + disk as u128 * self.cfg.service_bytes_per_sec.max(1) as u128
            }
        }
    }
}

/// The candidate prefix sizes priced at a close: `n`, then `shape_candidates - 1`
/// geometrically shrinking prefixes (3n/4, n/2, n/4, …), deduplicated,
/// all at least 1.
fn candidate_sizes(n: usize, shapes: usize) -> Vec<usize> {
    let mut out = vec![n];
    let mut cur = n;
    while out.len() < shapes.max(1) {
        cur = (cur * 3 / 4).max(1);
        if cur == *out.last().unwrap() {
            break;
        }
        out.push(cur);
    }
    out
}

/// Composes the deterministic batch schedule for `trace` served out of
/// `queries` over any [`SearchEngine`] under `cfg`.
///
/// Arrivals must be sorted by `arrival_ns` (the generator's contract).
/// The returned schedule is a pure function of its inputs: composing the
/// same trace twice yields `==` schedules, including every plan round and
/// every priced candidate shape.
///
/// # Panics
///
/// Panics if arrivals are unsorted, a `query_row` is out of range of
/// `queries`, or `cfg.max_batch == 0` / `cfg.queue_capacity == 0`.
/// Engine-specific plan constraints also apply (e.g. the graph engine
/// rejects [`ServeConfig::rerank`]).
pub fn compose(
    engine: &dyn SearchEngine,
    queries: &VectorSet,
    trace: &[Request],
    cfg: &ServeConfig,
) -> BatchSchedule {
    assert!(cfg.max_batch > 0, "max_batch must be positive");
    assert!(cfg.queue_capacity > 0, "queue_capacity must be positive");
    let mut composer = Composer {
        engine,
        queries,
        trace,
        cfg,
        visit_cache: vec![None; trace.len()],
        cache: cfg.tier.as_ref().map(|t| t.cache.clone()),
    };
    let mut admissions: Vec<Option<Admission>> = vec![None; trace.len()];
    let mut batches: Vec<PlannedBatch> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    // Virtual time the open window wants to close (None: no open window).
    let mut trigger: Option<u64> = None;
    let mut window_open: u64 = 0;
    let mut server_free: u64 = 0;

    let fire = |close: u64,
                open: u64,
                queue: &mut VecDeque<usize>,
                server_free: &mut u64,
                admissions: &mut Vec<Option<Admission>>,
                batches: &mut Vec<PlannedBatch>,
                composer: &mut Composer| {
        let n_avail = queue.len().min(composer.cfg.max_batch);
        debug_assert!(n_avail > 0);
        let prefix: Vec<usize> = queue.iter().take(n_avail).copied().collect();

        // Price candidate shapes; pick min predicted bytes per query via
        // cross-multiplication (no floats), ties to the larger batch.
        let mut quotes: Vec<ShapeQuote> = Vec::new();
        let mut priced: Vec<PrefixPricing> = Vec::new();
        for &size in &candidate_sizes(n_avail, composer.cfg.shape_candidates) {
            let p = composer.price(&prefix[..size]);
            quotes.push(ShapeQuote {
                size,
                predicted_bytes: p.predicted.total(),
                predicted_disk_bytes: p.predicted_tier.map_or(0, |t| t.disk_code_bytes),
            });
            priced.push(p);
        }
        let mut best = 0usize;
        for i in 1..quotes.len() {
            let (a, b) = (&quotes[i], &quotes[best]);
            let lhs = composer.shape_cost(a) * b.size as u128;
            let rhs = composer.shape_cost(b) * a.size as u128;
            if lhs < rhs || (lhs == rhs && a.size > b.size) {
                best = i;
            }
        }
        let chosen_size = quotes[best].size;
        let mut pricing = priced.swap_remove(best);
        let mut chosen: Vec<usize> = prefix[..chosen_size].to_vec();

        // Deadline filter: drop requests whose predicted completion is
        // already past their deadline, then re-price the survivors once
        // (the dropped requests shrink the plan, never grow it).
        let mut service = composer.service_ns(&pricing.predicted, pricing.predicted_tier.as_ref());
        let predicted_done = close.saturating_add(service);
        let survivors: Vec<usize> = chosen
            .iter()
            .copied()
            .filter(|&i| predicted_done <= composer.trace[i].deadline_at())
            .collect();
        if survivors.len() < chosen.len() {
            for &i in &chosen {
                if !survivors.contains(&i) {
                    admissions[i] = Some(Admission::TimedOut {
                        predicted_wait_ns: close.saturating_sub(composer.trace[i].arrival_ns),
                    });
                }
            }
            if !survivors.is_empty() {
                pricing = composer.price(&survivors);
                service = composer.service_ns(&pricing.predicted, pricing.predicted_tier.as_ref());
            }
            chosen = survivors;
        }

        for _ in 0..chosen_size {
            queue.pop_front();
        }
        if !chosen.is_empty() {
            let seq = batches.len();
            for &i in &chosen {
                admissions[i] = Some(Admission::Dispatched { batch: seq });
            }
            // The committed batch advances the composer's cache so the
            // next window is quoted against the state the tiered runtime
            // will actually be in.
            if let Some(after) = pricing.cache_after.take() {
                composer.cache = Some(after);
            }
            batches.push(PlannedBatch {
                seq,
                open_ns: open,
                dispatch_ns: close,
                requests: chosen,
                k_exec: pricing.plan.k_exec(),
                k_scan: pricing.plan.k_scan(),
                plan: pricing.plan,
                predicted: pricing.predicted,
                predicted_tier: pricing.predicted_tier,
                predicted_service_ns: service,
                quotes,
            });
            *server_free = close.saturating_add(service);
        }
    };

    let mut last_arrival = 0u64;
    for i in 0..trace.len() {
        let t = trace[i].arrival_ns;
        assert!(t >= last_arrival, "arrivals must be sorted by time");
        last_arrival = t;

        // Fire every window close due before this arrival.
        while let Some(tr) = trigger {
            let close = tr.max(server_free);
            if close > t || queue.is_empty() {
                break;
            }
            fire(
                close,
                window_open,
                &mut queue,
                &mut server_free,
                &mut admissions,
                &mut batches,
                &mut composer,
            );
            if queue.is_empty() {
                trigger = None;
            } else {
                // Leftover requests already waited a full window: close
                // again as soon as the server frees.
                trigger = Some(close);
                window_open = close;
            }
        }

        if queue.len() >= cfg.queue_capacity {
            admissions[i] = Some(Admission::Shed {
                queue_depth: queue.len(),
            });
            continue;
        }
        if queue.is_empty() && trigger.is_none() {
            window_open = t;
            trigger = Some(t.saturating_add(cfg.max_wait_ns));
        }
        queue.push_back(i);
        if queue.len() >= cfg.max_batch {
            // Size threshold reached: pull the close forward to now.
            trigger = Some(trigger.map_or(t, |tr| tr.min(t)));
        }
    }

    // Drain: fire remaining windows in virtual time.
    while !queue.is_empty() {
        let close = trigger.map_or(server_free, |tr| tr.max(server_free));
        fire(
            close,
            window_open,
            &mut queue,
            &mut server_free,
            &mut admissions,
            &mut batches,
            &mut composer,
        );
        trigger = Some(close);
        window_open = close;
    }

    BatchSchedule {
        batches,
        admissions: admissions
            .into_iter()
            .map(|a| a.expect("every request receives exactly one decision"))
            .collect(),
        server_free_ns: server_free,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_sizes_shrink_and_dedup() {
        assert_eq!(candidate_sizes(64, 3), vec![64, 48, 36]);
        assert_eq!(candidate_sizes(2, 4), vec![2, 1]);
        assert_eq!(candidate_sizes(1, 5), vec![1]);
        assert_eq!(candidate_sizes(10, 1), vec![10]);
    }
}
