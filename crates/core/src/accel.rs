//! The functional accelerator: ANNA running against a real index.
//!
//! The datapath is written once — the CPM filters clusters and fills f16
//! lookup tables, the EFM fetches and unpacks codes, and SCM groups reduce
//! and select through P-heap top-k units — as two short drivers over it:
//! the baseline single-query pipeline (`search_one`) and the
//! memory-traffic-optimized Section IV schedule (`search_batch`), which
//! executes a [`BatchPlan`](anna_plan::BatchPlan) exactly as the plan
//! prices it. [`Anna`] runs them over the index's own structures. Results
//! are therefore *bit-faithful to the hardware datapath*, and each run
//! returns the [`TimingReport`] the analytic engine prices for the same
//! workload.

use std::collections::HashMap;

use anna_index::{IvfPqIndex, Lut};
use anna_plan::ScmAllocation;
use anna_telemetry::Telemetry;
use anna_vector::{f16, metric, Metric, Neighbor, VectorSet};

use crate::config::{AnnaConfig, ValidateConfigError};
use crate::engine::analytic;
use crate::modules::crossbar::{Crossbar, Routing};
use crate::modules::scm::ScmStats;
use crate::modules::{Cpm, Efm, Scm};
use crate::pheap::{PHeap, PHeapStats};
use crate::timing::{BatchWorkload, QueryWorkload, SearchShape, TimingReport};

/// A cluster staged in the encoded-vector buffer: unpacked identifier rows
/// plus the ids they belong to. Stays valid across the rounds of one
/// cluster, so only the first of them fetches.
struct Buffered<'a> {
    ids: &'a [u64],
    rows: Vec<Vec<u8>>,
}

/// The on-chip modules of one run over an index, plus the counters of
/// the per-round SCM groups (whose instances are throwaways) and the
/// per-(query, partition) top-k spill slots.
struct Datapath<'a> {
    cfg: &'a AnnaConfig,
    index: &'a IvfPqIndex,
    spilled: HashMap<(usize, usize), Vec<Neighbor>>,
    k: usize,
    cpm: Cpm,
    efm: Efm,
    scm: ScmStats,
    pheap: PHeapStats,
}

impl<'a> Datapath<'a> {
    fn new(cfg: &'a AnnaConfig, index: &'a IvfPqIndex, k: usize) -> Self {
        Self {
            cpm: Cpm::new(cfg.n_cu),
            efm: Efm::new(cfg.encoded_buffer_bytes),
            scm: ScmStats::default(),
            pheap: PHeapStats::default(),
            cfg,
            index,
            spilled: HashMap::new(),
            k,
        }
    }

    /// CPM Mode 1 with the hardware's f16 score compare.
    fn filter(&mut self, q: &[f32], w: usize) -> Vec<usize> {
        let (centroids, metric) = (self.index.centroids(), self.index.metric());
        self.cpm.filter_clusters(q, centroids, metric, w)
    }

    /// The cluster-invariant inner-product base LUT (none under L2, whose
    /// tables depend on the residual).
    fn ip_base(&mut self, q: &[f32]) -> Option<Lut> {
        match self.index.metric() {
            Metric::InnerProduct => Some(self.cpm.build_ip_lut(q, self.index.codebook())),
            Metric::L2 => None,
        }
    }

    /// The LUT for (`q`, cluster `cid`) through the CPM (f16 entries,
    /// f16-rounded inner-product bias).
    fn lut(&mut self, ip_base: Option<&Lut>, q: &[f32], cid: usize) -> Lut {
        let centroid = self.index.centroids().row(cid);
        match ip_base {
            Some(base) => base.with_bias(f16::round_trip(metric::dot(q, centroid))),
            None => self.cpm.build_l2_lut(q, centroid, self.index.codebook()),
        }
    }

    /// Pulls cluster `cid` through the EFM into the encoded-vector buffer.
    fn fetch(&mut self, cid: usize) -> Buffered<'a> {
        let cluster = self.index.cluster(cid);
        let rows = self
            .efm
            .fetch(cluster)
            .into_iter()
            .flat_map(|(_, rows)| rows)
            .collect();
        Buffered {
            ids: &cluster.ids,
            rows,
        }
    }

    /// A fresh group of `g` SCMs, after checking the crossbar can realize
    /// the buffer→SCM routing for that partition count.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or larger than the silicon's top-k units.
    fn scm_group(&self, g: usize) -> Vec<Scm> {
        assert!(self.k > 0, "k must be positive");
        assert!(
            self.k <= self.cfg.topk,
            "k={} exceeds the top-k unit's {} entries",
            self.k,
            self.cfg.topk
        );
        let xb = Crossbar::paper(self.cfg.n_scm);
        let routing = if g == 1 {
            Routing::Broadcast
        } else {
            Routing::Partition { stripes: g }
        };
        let routes = xb.route(routing).expect("allocation divides N_SCM");
        xb.verify(&routes)
            .expect("crossbar routing is conflict-free");
        (0..g).map(|_| Scm::new(self.cfg.n_u, self.k)).collect()
    }

    /// Scans the buffered cluster, striped across the group's SCMs.
    fn scan(&self, scms: &mut [Scm], buf: &Buffered<'_>, lut: &Lut) {
        let len = buf.ids.len();
        let chunk = len.div_ceil(scms.len()).max(1);
        for (part, scm) in scms.iter_mut().enumerate() {
            let (lo, hi) = ((part * chunk).min(len), ((part + 1) * chunk).min(len));
            scm.scan(&buf.rows[lo..hi], &buf.ids[lo..hi], lut);
        }
    }

    /// Folds a group's counters before its instances drop.
    fn retire(&mut self, scms: &mut [Scm]) {
        for scm in scms {
            let s = scm.stats();
            self.scm.cycles += s.cycles;
            self.scm.vectors_scored += s.vectors_scored;
            self.scm.lut_reads += s.lut_reads;
            self.pheap.accumulate(&scm.topk_mut().stats());
        }
    }

    /// Merges a finished query's partitions into its result records and
    /// retires the group.
    fn finish(&mut self, mut scms: Vec<Scm>) -> Vec<Neighbor> {
        let mut merged = PHeap::new(self.k);
        for scm in &mut scms {
            merged.merge_from(scm.topk_mut());
        }
        self.retire(&mut scms);
        self.pheap.accumulate(&merged.stats());
        merged.drain_sorted()
    }

    /// The batch workload (visit lists) for a query set, filtered by the
    /// CPM so the plan matches what the silicon would select.
    fn workload(&mut self, queries: &VectorSet, w: usize) -> BatchWorkload {
        BatchWorkload {
            shape: shape_of(self.index, self.k),
            cluster_sizes: self.index.cluster_sizes(),
            visits: queries.iter().map(|q| self.filter(q, w)).collect(),
        }
    }

    /// Bridges the module counters into `tel` (commutative sums, so the
    /// totals are schedule-invariant).
    fn report(&self, tel: &Telemetry) {
        let cpm = self.cpm.stats();
        tel.counter_add("cpm.cycles", cpm.cycles as u64);
        tel.counter_add("cpm.madds", cpm.madds);
        tel.counter_add("cpm.luts_built", cpm.luts_built);
        let efm = self.efm.stats();
        tel.counter_add("efm.clusters_fetched", efm.clusters_fetched);
        tel.counter_add("efm.code_bytes", efm.code_bytes);
        tel.counter_add("efm.meta_bytes", efm.meta_bytes);
        tel.counter_add("efm.identifiers_unpacked", efm.identifiers_unpacked);
        tel.counter_add("efm.segments", efm.segments);
        tel.counter_add("scm.cycles", self.scm.cycles as u64);
        tel.counter_add("scm.vectors_scored", self.scm.vectors_scored);
        tel.counter_add("scm.lut_reads", self.scm.lut_reads);
        tel.counter_add("pheap.inputs", self.pheap.inputs);
        tel.counter_add("pheap.accepted", self.pheap.accepted);
        tel.counter_add("pheap.spills", self.pheap.spills);
        tel.counter_add("pheap.spill_bytes", self.pheap.spill_bytes);
        tel.counter_add("pheap.fills", self.pheap.fills);
        tel.counter_add("pheap.fill_bytes", self.pheap.fill_bytes);
    }
}

fn shape_of(index: &IvfPqIndex, k: usize) -> SearchShape {
    let (book, centroids) = (index.codebook(), index.centroids());
    SearchShape {
        d: centroids.dim(),
        m: book.m(),
        kstar: book.kstar(),
        metric: index.metric(),
        num_clusters: centroids.len(),
        k,
    }
}

/// One query through the baseline pipeline: filter, then for each of the
/// `w` selected clusters build its LUT, fetch it and scan it with all
/// `N_SCM` SCMs as one group (the paper's latency configuration), whose
/// top-k state stays on-chip until the final merge and result store.
///
/// # Panics
///
/// Panics if `q` mismatches the model's dimension or `k` is out of range.
fn search_one(
    cfg: &AnnaConfig,
    index: &IvfPqIndex,
    q: &[f32],
    w: usize,
    k: usize,
) -> (Vec<Neighbor>, TimingReport) {
    let mut dp = Datapath::new(cfg, index, k);
    let selected = dp.filter(q, w);
    let ip_base = dp.ip_base(q);
    let g = cfg.n_scm;
    let mut scms = dp.scm_group(g);
    let mut visited_cluster_sizes = Vec::with_capacity(selected.len());
    for &cid in &selected {
        let lut = dp.lut(ip_base.as_ref(), q, cid);
        let buf = dp.fetch(cid);
        dp.scan(&mut scms, &buf, &lut);
        visited_cluster_sizes.push(buf.ids.len());
    }
    let hits = dp.finish(scms);
    let workload = QueryWorkload {
        shape: shape_of(index, k),
        visited_cluster_sizes,
    };
    (hits, analytic::single_query(cfg, &workload, g))
}

/// A batch under the memory-traffic-optimized schedule (Section IV),
/// honouring the plan it prices: a cluster is fetched only by the round
/// that `fetches_codes` and its unpacked rows serve every query and
/// partition until the next fetch; a query's SCM group fills from its
/// spill slots only when resuming, spills only if it will resume, and on
/// its last round merges and stores the result.
///
/// When `tel` is enabled, the stages are timed as spans (`accel.plan`,
/// `accel.rounds` with one `accel.round` trace event per round, one
/// `accel.merge` per query) and the module counters are bridged into the
/// snapshot as `cpm.*` / `efm.*` / `scm.*` / `pheap.*`.
///
/// # Panics
///
/// Panics if dimensions mismatch or `k` is out of range.
fn search_batch(
    cfg: &AnnaConfig,
    index: &IvfPqIndex,
    queries: &VectorSet,
    w: usize,
    k: usize,
    alloc: ScmAllocation,
    tel: &Telemetry,
) -> (Vec<Vec<Neighbor>>, TimingReport) {
    let mut dp = Datapath::new(cfg, index, k);
    assert_eq!(queries.dim(), index.dim(), "query dimension mismatch");
    let workload = {
        let _span = tel.span("accel.plan");
        dp.workload(queries, w)
    };
    let plan = anna_plan::plan(&cfg.plan_params(), &workload, alloc);
    let g = plan.scm_per_query;
    let record = cfg.topk_record_bytes;
    let timed = tel.is_enabled();
    let ip_bases: Vec<Option<Lut>> = queries.iter().map(|q| dp.ip_base(q)).collect();

    // The plan's own resume rule (`BatchPlan::round_topk_units`): a query
    // fills in every round after its first and spills in every round
    // before its last.
    let mut rounds_left = vec![0usize; queries.len()];
    for &qi in plan.rounds.iter().flat_map(|r| &r.queries) {
        rounds_left[qi] += 1;
    }
    let mut resuming = vec![false; queries.len()];
    let mut results = vec![Vec::new(); queries.len()];
    let mut buffered = None;

    let rounds_span = tel.span("accel.rounds");
    for round in &plan.rounds {
        let start = if timed { tel.now_ns() } else { 0 };
        if round.fetches_codes {
            buffered = Some(dp.fetch(round.cluster));
        }
        let buf = buffered
            .as_ref()
            .expect("a cluster's first round fetches its codes");
        for &qi in &round.queries {
            let lut = dp.lut(ip_bases[qi].as_ref(), queries.row(qi), round.cluster);
            let mut scms = dp.scm_group(g);
            if resuming[qi] {
                for (part, scm) in scms.iter_mut().enumerate() {
                    let slot = dp
                        .spilled
                        .remove(&(qi, part))
                        .expect("fill of a slot that was never spilled");
                    scm.fill(&slot, record);
                }
            }
            dp.scan(&mut scms, buf, &lut);
            rounds_left[qi] -= 1;
            if rounds_left[qi] > 0 {
                for (part, scm) in scms.iter_mut().enumerate() {
                    dp.spilled.insert((qi, part), scm.spill(record));
                }
                resuming[qi] = true;
                dp.retire(&mut scms);
            } else {
                let _span = tel.span("accel.merge");
                results[qi] = dp.finish(scms);
            }
        }
        if timed {
            let dur = tel.now_ns().saturating_sub(start);
            tel.trace_event_ns("accel.round", round.cluster as u64, start, dur);
        }
    }
    drop(rounds_span);
    if timed {
        dp.report(tel);
    }

    // Price timing off the very plan just executed, so the report's
    // traffic matches the functional run's schedule exactly.
    (results, analytic::batch_plan(cfg, &workload, &plan))
}

/// ANNA bound to a database index.
///
/// # Example
///
/// ```
/// use anna_core::{Anna, AnnaConfig};
/// use anna_index::{IvfPqConfig, IvfPqIndex};
/// use anna_vector::{Metric, VectorSet};
///
/// let data = VectorSet::from_fn(8, 512, |r, c| ((r * 31 + c * 7) % 29) as f32);
/// let index = IvfPqIndex::build(&data, &IvfPqConfig {
///     metric: Metric::L2, num_clusters: 16, m: 4, kstar: 16,
///     ..IvfPqConfig::default()
/// });
/// let anna = Anna::new(AnnaConfig::paper(), &index).unwrap();
/// let (hits, timing) = anna.search(data.row(3), 4, 10);
/// assert_eq!(hits.len(), 10);
/// assert!(timing.cycles > 0.0);
/// ```
#[derive(Debug)]
pub struct Anna<'a> {
    cfg: AnnaConfig,
    index: &'a IvfPqIndex,
}

impl<'a> Anna<'a> {
    /// Binds a configuration to an index.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid, the index's `k*`
    /// is not supported by the hardware (16 or 256), or a database id does
    /// not fit the 3-byte id of a top-k record (3 B id + 2 B score,
    /// Section IV-B), which would silently corrupt results.
    pub fn new(cfg: AnnaConfig, index: &'a IvfPqIndex) -> Result<Self, ValidateConfigError> {
        cfg.validate()?;
        let kstar = index.codebook().kstar();
        if kstar != 16 && kstar != 256 {
            return Err(ValidateConfigError::unsupported_kstar(kstar));
        }
        let max_id = (1u64 << 24) - 1;
        if (0..index.num_clusters()).any(|c| index.cluster(c).ids.iter().any(|&id| id > max_id)) {
            return Err(ValidateConfigError::id_overflow());
        }
        Ok(Self { cfg, index })
    }

    /// The bound configuration.
    pub fn config(&self) -> &AnnaConfig {
        &self.cfg
    }

    /// The bound index.
    pub fn index(&self) -> &IvfPqIndex {
        self.index
    }

    /// The timing shape for a top-`k` search against this index.
    pub fn shape(&self, k: usize) -> SearchShape {
        shape_of(self.index, k)
    }

    /// Runs one query in baseline mode, visiting the `w` most similar
    /// clusters and returning the top-`k` hits plus the timing report
    /// (intra-query parallelism over all SCMs, as the paper's latency
    /// evaluation uses).
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != index.dim()`, `k == 0` or `k` exceeds the
    /// configured top-k capacity.
    pub fn search(&self, q: &[f32], w: usize, k: usize) -> (Vec<Neighbor>, TimingReport) {
        search_one(&self.cfg, self.index, q, w, k)
    }

    /// Builds the batch workload (visit lists) for a query set, using the
    /// CPM's hardware filtering (f16 score compare) so the plan matches
    /// what the silicon would select.
    pub fn plan_batch(&self, queries: &VectorSet, w: usize, k: usize) -> BatchWorkload {
        Datapath::new(&self.cfg, self.index, k).workload(queries, w)
    }

    /// Runs a batch under the memory-traffic-optimized schedule
    /// (Section IV), exercising the real spill/fill and SCM-partition
    /// paths, and returns per-query results plus the timing report.
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch, `k == 0` or `k` exceeds the
    /// configured top-k capacity.
    pub fn search_batch(
        &self,
        queries: &VectorSet,
        w: usize,
        k: usize,
        alloc: ScmAllocation,
    ) -> (Vec<Vec<Neighbor>>, TimingReport) {
        self.search_batch_traced(queries, w, k, alloc, &Telemetry::disabled())
    }

    /// [`Anna::search_batch`] with a telemetry sink: stage spans
    /// (`accel.plan`, `accel.rounds`, `accel.round`, `accel.merge`) and
    /// the hardware module counters (`cpm.*` / `efm.*` / `scm.*` /
    /// `pheap.*`), which equal what the executed plan prices. Results are
    /// bit-identical to the uninstrumented run.
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch, `k == 0` or `k` exceeds the
    /// configured top-k capacity.
    pub fn search_batch_traced(
        &self,
        queries: &VectorSet,
        w: usize,
        k: usize,
        alloc: ScmAllocation,
        tel: &Telemetry,
    ) -> (Vec<Vec<Neighbor>>, TimingReport) {
        search_batch(&self.cfg, self.index, queries, w, k, alloc, tel)
    }
}

/// The result of a multi-instance scale-out run (the paper's "ANNA ×12").
#[derive(Debug, Clone)]
pub struct ScaleOutReport {
    /// Instances used.
    pub instances: usize,
    /// Per-instance timing reports (round-robin query partition).
    pub per_instance: Vec<TimingReport>,
    /// Total queries across instances.
    pub total_queries: usize,
    /// Batch makespan in seconds (the slowest instance).
    pub makespan_seconds: f64,
}

impl ScaleOutReport {
    /// Aggregate throughput: all queries / the slowest instance's time.
    pub fn qps(&self) -> f64 {
        self.total_queries as f64 / self.makespan_seconds
    }

    /// Load imbalance: slowest instance time over the mean (1.0 =
    /// perfectly balanced). Skewed cluster populations raise this.
    pub fn imbalance(&self) -> f64 {
        if self.per_instance.is_empty() {
            return 1.0;
        }
        let mean = self.per_instance.iter().map(|r| r.cycles).sum::<f64>()
            / self.per_instance.len() as f64;
        let max = self
            .per_instance
            .iter()
            .map(|r| r.cycles)
            .fold(0.0f64, f64::max);
        max / mean.max(1.0)
    }
}

/// Runs `instances` identical ANNA accelerators, each with its own memory
/// system, splitting a batch round-robin (the paper's "ANNA ×12"
/// comparison against the V100, Section V-B).
///
/// # Panics
///
/// Panics if `instances == 0`.
pub fn scale_out(
    cfg: &AnnaConfig,
    workload: &BatchWorkload,
    alloc: ScmAllocation,
    instances: usize,
) -> ScaleOutReport {
    assert!(instances > 0, "need at least one instance");
    let mut per_instance = Vec::new();
    let mut total = 0usize;
    let mut makespan = 0.0f64;
    for inst in 0..instances {
        let visits: Vec<Vec<usize>> = workload
            .visits
            .iter()
            .enumerate()
            .filter(|(q, _)| q % instances == inst)
            .map(|(_, v)| v.clone())
            .collect();
        if visits.is_empty() {
            continue;
        }
        let sub = BatchWorkload {
            shape: workload.shape,
            cluster_sizes: workload.cluster_sizes.clone(),
            visits,
        };
        let r = analytic::batch(cfg, &sub, alloc);
        total += r.queries;
        makespan = makespan.max(r.seconds(cfg));
        per_instance.push(r);
    }
    ScaleOutReport {
        instances,
        per_instance,
        total_queries: total,
        makespan_seconds: makespan,
    }
}

/// Aggregate throughput of `instances` accelerators — convenience wrapper
/// around [`scale_out`].
///
/// # Panics
///
/// Panics if `instances == 0`.
pub fn scale_out_qps(
    cfg: &AnnaConfig,
    workload: &BatchWorkload,
    alloc: ScmAllocation,
    instances: usize,
) -> f64 {
    if workload.b() == 0 {
        return 0.0;
    }
    scale_out(cfg, workload, alloc, instances).qps()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anna_index::{IvfPqConfig, LutPrecision, SearchParams};

    fn setup(metric: Metric) -> (VectorSet, IvfPqIndex) {
        let data = VectorSet::from_fn(8, 800, |r, c| {
            let blob = (r % 10) as f32;
            blob * 15.0 + ((r * 31 + c * 7) % 10) as f32 * 0.3
        });
        let index = IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                metric,
                num_clusters: 10,
                m: 4,
                kstar: 16,
                ..IvfPqConfig::default()
            },
        );
        (data, index)
    }

    #[test]
    fn functional_matches_software_reference() {
        // ANNA's datapath (f16 LUT + P-heap) must agree with the software
        // reference at the same precision.
        let (data, index) = setup(Metric::L2);
        let anna = Anna::new(AnnaConfig::paper(), &index).unwrap();
        let params = SearchParams {
            nprobe: 4,
            k: 8,
            lut_precision: LutPrecision::F16,
        };
        for row in [3usize, 99, 400, 777] {
            let (hw, _) = anna.search(data.row(row), 4, 8);
            let sw = index.search(data.row(row), &params);
            let hw_ids: Vec<u64> = hw.iter().map(|n| n.id).collect();
            let sw_ids: Vec<u64> = sw.iter().map(|n| n.id).collect();
            // Scores pass through f16 in hardware; ids of the top set must
            // match as sets (ties may reorder within equal f16 scores).
            let mut a = hw_ids.clone();
            let mut b = sw_ids.clone();
            a.sort_unstable();
            b.sort_unstable();
            // Compare scores instead where id sets differ due to f16 ties.
            if a != b {
                for (x, y) in hw.iter().zip(&sw) {
                    assert!(
                        (x.score - y.score).abs() <= 0.01 * (1.0 + y.score.abs()),
                        "rank score mismatch: {x:?} vs {y:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_matches_single_query_results() {
        let (data, index) = setup(Metric::L2);
        let anna = Anna::new(AnnaConfig::paper(), &index).unwrap();
        let rows = [0usize, 50, 333, 799];
        let queries = data.gather(&rows);
        let (batched, _) = anna.search_batch(
            &queries,
            3,
            6,
            ScmAllocation::IntraQuery { scm_per_query: 4 },
        );
        for (bi, &row) in rows.iter().enumerate() {
            let (single, _) = anna.search(data.row(row), 3, 6);
            let b_ids: Vec<u64> = batched[bi].iter().map(|n| n.id).collect();
            let s_ids: Vec<u64> = single.iter().map(|n| n.id).collect();
            assert_eq!(b_ids, s_ids, "row {row}");
        }
    }

    #[test]
    fn inner_product_paths_work() {
        let (data, index) = setup(Metric::InnerProduct);
        let anna = Anna::new(AnnaConfig::paper(), &index).unwrap();
        let queries = data.gather(&[1, 2]);
        let (res, timing) = anna.search_batch(&queries, 3, 5, ScmAllocation::Auto);
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].len(), 5);
        assert!(timing.cycles > 0.0);
    }

    #[test]
    fn traced_batch_bridges_module_counters_without_changing_results() {
        // Predicted == measured inside the accelerator model: the bridged
        // module counters equal what the executed plan prices.
        for metric in [Metric::L2, Metric::InnerProduct] {
            let (data, index) = setup(metric);
            let anna = Anna::new(AnnaConfig::paper(), &index).unwrap();
            let queries = data.gather(&(0..24).collect::<Vec<_>>());
            for alloc in [
                ScmAllocation::InterQuery,
                ScmAllocation::IntraQuery { scm_per_query: 4 },
                ScmAllocation::Auto,
            ] {
                let tel = Telemetry::enabled();
                let (traced, timing) = anna.search_batch_traced(&queries, 3, 6, alloc, &tel);
                let (plain, _) = anna.search_batch(&queries, 3, 6, alloc);
                assert_eq!(traced, plain, "telemetry must not perturb results");

                let workload = anna.plan_batch(&queries, 3, 6);
                let plan = anna_plan::plan(&anna.config().plan_params(), &workload, alloc);
                let (fills, spills) = plan.total_topk_units();
                assert!(spills > 0, "a multi-round batch must spill");
                let g = plan.scm_per_query as u64;
                let luts = match metric {
                    Metric::L2 => workload.total_visits(),
                    Metric::InnerProduct => queries.len() as u64,
                };
                let traffic = timing.traffic;
                let scanned = timing.activity.topk_inputs as u64;
                for (name, expected) in [
                    ("cpm.luts_built", luts),
                    ("efm.clusters_fetched", plan.clusters_fetched()),
                    ("efm.code_bytes", traffic.code_bytes),
                    ("efm.meta_bytes", traffic.cluster_meta_bytes),
                    ("scm.vectors_scored", scanned),
                    ("pheap.spills", spills * g),
                    ("pheap.fills", fills * g),
                ] {
                    let got = tel.registry().unwrap().counter(name).get();
                    assert_eq!(got, expected, "{metric} {alloc:?}: {name}");
                }
                // A partial heap spills fewer records than the full-k unit
                // the plan prices; every spilled record is filled back.
                let counter = |name: &str| tel.registry().unwrap().counter(name).get();
                assert!(counter("pheap.spill_bytes") <= traffic.topk_spill_bytes);
                assert_eq!(counter("pheap.fill_bytes"), counter("pheap.spill_bytes"));
                assert!(counter("pheap.inputs") > scanned, "merges offer too");
                // The CPM meter covers the batched filter as well as the
                // LUT fills (the timing model charges inner-product fills
                // per visit, the datapath builds one base table per query).
                if metric == Metric::L2 {
                    let metered = counter("cpm.cycles") as f64;
                    // (The counter truncates to whole cycles.)
                    assert!((metered - timing.activity.cpm_cycles).abs() < 1.0 + 1e-6);
                }

                // Stage spans made it onto the timeline.
                let trace = tel.chrome_trace_json().unwrap();
                for name in ["accel.plan", "accel.rounds", "accel.round", "accel.merge"] {
                    assert!(trace.contains(name), "missing {name} span");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the top-k unit")]
    fn k_beyond_the_topk_unit_is_rejected() {
        let (data, index) = setup(Metric::L2);
        let cfg = AnnaConfig {
            topk: 8,
            ..AnnaConfig::paper()
        };
        let anna = Anna::new(cfg, &index).unwrap();
        let _ = anna.search(data.row(0), 2, 9);
    }

    #[test]
    fn timing_reports_are_consistent() {
        let (data, index) = setup(Metric::L2);
        let anna = Anna::new(AnnaConfig::paper(), &index).unwrap();
        let (_, single) = anna.search(data.row(0), 4, 8);
        assert_eq!(single.queries, 1);
        assert!(single.traffic.code_bytes > 0);
        let queries = data.gather(&(0..32).collect::<Vec<_>>());
        let (_, batched) = anna.search_batch(&queries, 4, 8, ScmAllocation::Auto);
        assert_eq!(batched.queries, 32);
        // The optimization can only reduce code traffic vs 32 single runs.
        assert!(batched.traffic.code_bytes <= 32 * single.traffic.code_bytes);
    }

    #[test]
    fn module_activity_matches_timing_model() {
        // The functional modules and the analytic engine must agree on the
        // CPM work a single L2 query implies.
        let (data, index) = setup(Metric::L2);
        let anna = Anna::new(AnnaConfig::paper(), &index).unwrap();
        let q = data.row(5);
        let mut cpm = Cpm::new(anna.config().n_cu);
        let selected = cpm.filter_clusters(q, index.centroids(), index.metric(), 4);
        for &cid in &selected {
            let _ = cpm.build_l2_lut(q, index.centroids().row(cid), index.codebook());
        }
        let (_, timing) = anna.search(q, 4, 8);
        assert!(
            (cpm.stats().cycles - timing.activity.cpm_cycles).abs()
                < 1e-6 * timing.activity.cpm_cycles.max(1.0),
            "module CPM cycles {} vs engine {}",
            cpm.stats().cycles,
            timing.activity.cpm_cycles
        );
    }

    #[test]
    fn efm_code_traffic_matches_timing_model() {
        let (data, index) = setup(Metric::L2);
        let anna = Anna::new(AnnaConfig::paper(), &index).unwrap();
        let q = data.row(9);
        let mut cpm = Cpm::new(anna.config().n_cu);
        let mut efm = Efm::new(anna.config().encoded_buffer_bytes);
        let selected = cpm.filter_clusters(q, index.centroids(), index.metric(), 4);
        for &cid in &selected {
            let _ = efm.fetch(index.cluster(cid));
        }
        let (_, timing) = anna.search(q, 4, 8);
        assert_eq!(efm.stats().code_bytes, timing.traffic.code_bytes);
    }

    #[test]
    fn rejects_unsupported_kstar() {
        let data = VectorSet::from_fn(8, 200, |r, c| ((r + c) % 7) as f32);
        let index = IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                num_clusters: 4,
                m: 4,
                kstar: 16,
                ..IvfPqConfig::default()
            },
        );
        // Valid case builds fine...
        assert!(Anna::new(AnnaConfig::paper(), &index).is_ok());
        // ...and an invalid config is rejected.
        let bad = AnnaConfig {
            n_u: 0,
            ..AnnaConfig::paper()
        };
        assert!(Anna::new(bad, &index).is_err());
    }

    #[test]
    fn new_rejects_oversized_ids() {
        use anna_index::ivf::Cluster;
        use anna_quant::codes::{CodeWidth, PackedCodes};
        use anna_quant::kmeans::KMeans;
        // Hand-build an index whose id exceeds 2^24 - 1.
        let (_, index) = setup(Metric::L2);
        let with_id = |id: u64| {
            let mut codes = PackedCodes::new(4, CodeWidth::U4);
            codes.push(&[0, 0, 0, 0]);
            let mut clusters: Vec<Cluster> = (0..index.num_clusters())
                .map(|i| index.cluster(i).clone())
                .collect();
            clusters[0] = Cluster {
                ids: vec![id],
                codes,
            };
            IvfPqIndex::from_parts(
                Metric::L2,
                KMeans::from_centroids(index.centroids().clone()),
                index.codebook().clone(),
                clusters,
            )
        };
        let edge = with_id((1 << 24) - 1);
        assert!(Anna::new(AnnaConfig::paper(), &edge).is_ok());
        let bad = with_id(1 << 24);
        assert_eq!(
            Anna::new(AnnaConfig::paper(), &bad).unwrap_err(),
            ValidateConfigError::id_overflow()
        );
    }

    #[test]
    fn scale_out_increases_throughput() {
        let (data, index) = setup(Metric::L2);
        let anna = Anna::new(AnnaConfig::paper(), &index).unwrap();
        let queries = data.gather(&(0..64).collect::<Vec<_>>());
        let workload = anna.plan_batch(&queries, 4, 8);
        let one = scale_out_qps(anna.config(), &workload, ScmAllocation::Auto, 1);
        let twelve = scale_out_qps(anna.config(), &workload, ScmAllocation::Auto, 12);
        assert!(
            twelve > one,
            "12 instances ({twelve}) should beat one ({one})"
        );
    }

    #[test]
    fn scale_out_report_accounts_every_query() {
        let (data, index) = setup(Metric::L2);
        let anna = Anna::new(AnnaConfig::paper(), &index).unwrap();
        let queries = data.gather(&(0..50).collect::<Vec<_>>());
        let workload = anna.plan_batch(&queries, 4, 8);
        let report = scale_out(anna.config(), &workload, ScmAllocation::Auto, 7);
        assert_eq!(report.total_queries, 50);
        assert_eq!(report.per_instance.len(), 7);
        let per_instance_sum: usize = report.per_instance.iter().map(|r| r.queries).sum();
        assert_eq!(per_instance_sum, 50);
        assert!(report.imbalance() >= 1.0);
        assert!(report.qps() > 0.0);
        // Makespan equals the slowest instance.
        let slowest = report
            .per_instance
            .iter()
            .map(|r| r.seconds(anna.config()))
            .fold(0.0f64, f64::max);
        assert!((report.makespan_seconds - slowest).abs() < 1e-12);
    }
}
