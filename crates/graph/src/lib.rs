//! Deterministic beam-search graph engine behind the shared
//! [`SearchEngine`] trait.
//!
//! The second index family on the ANNA substrate (ROADMAP item 3): a
//! degree-bounded proximity graph in the NSW/Vamana family, built by
//! seeded incremental insertion and searched with best-first beam
//! traversal over *PQ-compressed* vectors — the graph analogue of the
//! IVF-PQ engine's ADC scans, reusing `anna-vector` metrics and
//! `anna-quant` codebooks.
//!
//! Two properties make the engine fit the workspace's accounting
//! discipline:
//!
//! * **Tie-pinned determinism.** Construction and traversal order are
//!   pure functions of `(data, config)` and `(graph, query, beam)`: the
//!   frontier is a [`BinaryHeap`] over [`Neighbor`]'s total order (higher
//!   score first, ties to the lower id), entry points come from a seeded
//!   SplitMix64 stream, and queries are embarrassingly parallel — so
//!   results and traffic counters are bit-identical at every thread
//!   count.
//! * **Byte-exact pricing.** `plan()` *runs* the deterministic traversal
//!   and records each query's footprint (adjacency fetches, code scans);
//!   `execute()` re-traces the identical walk and measures. The
//!   [`TrafficModel`](anna_plan::TrafficModel) prices the footprints in
//!   the cluster-major byte vocabulary (adjacency → `cluster_meta_bytes`,
//!   PQ scans → `code_bytes`), so predicted == measured holds exactly,
//!   like every other engine.

#![deny(missing_docs)]

use std::collections::BinaryHeap;

use anna_engine::{EngineRun, MeasuredTraffic, PlanOptions, QuerySpec, SearchEngine};
use anna_plan::{EnginePlan, GraphPlan, GraphQueryPlan, GraphShape, GraphWorkload};
use anna_quant::codes::PackedCodes;
use anna_quant::pq::{PqCodebook, PqConfig};
use anna_telemetry::Telemetry;
use anna_vector::{Metric, Neighbor, VectorSet};

/// Construction parameters for a [`PqGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphConfig {
    /// Similarity metric.
    pub metric: Metric,
    /// PQ sub-vector count `M` (must divide the data dimension).
    pub m: usize,
    /// Codewords per codebook `k*` (16 or 256).
    pub kstar: usize,
    /// Maximum out-degree; adjacency lists are stored padded to this
    /// width, so every visited node fetches the same `degree · 4` bytes.
    pub degree: usize,
    /// Beam width used while inserting nodes during construction.
    pub build_beam: usize,
    /// Seed for the entry-point stream (construction and search).
    pub seed: u64,
    /// Number of seeded entry points the traversal starts from.
    pub entry_candidates: usize,
}

impl Default for GraphConfig {
    fn default() -> Self {
        Self {
            metric: Metric::L2,
            m: 4,
            kstar: 16,
            degree: 16,
            build_beam: 32,
            seed: 0x5EED_CAFE,
            entry_candidates: 4,
        }
    }
}

/// SplitMix64 step — the same tiny generator `anna-testkit` uses, inlined
/// so the graph crate stays free of test-harness dependencies in its
/// build path.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A degree-bounded proximity graph over PQ-compressed vectors.
pub struct PqGraph {
    metric: Metric,
    dim: usize,
    codebook: PqCodebook,
    codes: PackedCodes,
    /// Out-neighbors per node, each at most `degree` long, sorted by
    /// similarity to the node (best first, ties to the lower id).
    adjacency: Vec<Vec<u32>>,
    /// Seeded entry points (sorted, deduplicated).
    entries: Vec<u32>,
    degree: usize,
}

impl std::fmt::Debug for PqGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PqGraph")
            .field("num_nodes", &self.adjacency.len())
            .field("degree", &self.degree)
            .field("entries", &self.entries)
            .finish_non_exhaustive()
    }
}

impl PqGraph {
    /// Builds the graph by seeded incremental insertion: nodes join in
    /// ascending id order; each new node beam-searches the partial graph
    /// with *exact* f32 similarity (construction quality should not
    /// depend on PQ error), links to its best `degree` discoveries, and
    /// adds reverse edges pruned back to the best `degree` per node
    /// (ties to the lower id). Vectors are PQ-trained and encoded once;
    /// search-time scans read only the codes.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, `config.m` does not divide the
    /// dimension, `config.kstar` is not 16/256, or
    /// `config.degree == 0`.
    pub fn build(data: &VectorSet, config: &GraphConfig) -> PqGraph {
        assert!(!data.is_empty(), "cannot build a graph over no vectors");
        assert!(config.degree > 0, "degree must be positive");
        assert!(
            data.len() <= u32::MAX as usize,
            "u32 node ids cover at most 2^32 vectors"
        );
        let pq_config = match config.kstar {
            16 => PqConfig::k16(config.m),
            256 => PqConfig::k256(config.m),
            other => panic!("ANNA supports k* of 16 and 256, got {other}"),
        };
        let codebook = PqCodebook::train(data, &pq_config);
        let codes = codebook.encode_all(data);
        let n = data.len();
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 1..n {
            let q = data.row(i);
            let beam = config.build_beam.max(config.degree);
            // Entry points into the partial graph: node 0 plus seeded
            // picks below i.
            let mut entries = vec![0u32];
            for t in 0..config.entry_candidates {
                entries.push(
                    (splitmix(config.seed ^ (i as u64) ^ ((t as u64) << 32)) % i as u64) as u32,
                );
            }
            entries.sort_unstable();
            entries.dedup();
            let found = exact_beam_search(data, &adjacency, &entries, q, config.metric, beam);
            let links = robust_prune(data, found, config.degree, config.metric);
            for &l in &links {
                adjacency[l as usize].push(i as u32);
                if adjacency[l as usize].len() > config.degree {
                    let base = data.row(l as usize);
                    let pool: Vec<Neighbor> = adjacency[l as usize]
                        .iter()
                        .map(|&nb| Neighbor {
                            id: nb as u64,
                            score: config.metric.similarity(base, data.row(nb as usize)),
                        })
                        .collect();
                    adjacency[l as usize] = robust_prune(data, pool, config.degree, config.metric);
                }
            }
            adjacency[i] = links;
        }
        // Search-time entry points: seeded picks over the full id range.
        let mut entries = vec![0u32];
        for t in 0..config.entry_candidates {
            entries.push((splitmix(config.seed ^ ((t as u64) << 16)) % n as u64) as u32);
        }
        entries.sort_unstable();
        entries.dedup();
        PqGraph {
            metric: config.metric,
            dim: data.dim(),
            codebook,
            codes,
            adjacency,
            entries,
            degree: config.degree,
        }
    }

    /// The similarity metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Vector dimension `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of graph nodes.
    pub fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// Maximum out-degree (adjacency lists are priced padded to this).
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The seeded entry points the traversal starts from.
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// Node `i`'s out-neighbors (best first).
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.adjacency[i]
    }

    /// The trained PQ codebook.
    pub fn codebook(&self) -> &PqCodebook {
        &self.codebook
    }

    /// The graph-search shape for per-query result count `k`.
    pub fn shape(&self, k: usize) -> GraphShape {
        GraphShape {
            d: self.dim,
            m: self.codebook.m(),
            kstar: self.codebook.kstar(),
            metric: self.metric,
            num_nodes: self.num_nodes(),
            degree: self.degree,
            k,
        }
    }

    /// Best-first beam traversal for one query at beam width `ef`,
    /// scoring nodes with ADC over the PQ codes. Returns the best `ef`
    /// nodes found, best first, plus the traversal footprint (adjacency
    /// fetches, code scans). Pure in `(self, q, ef)` — the planner and the
    /// executor call this same function and must observe identical
    /// footprints.
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != self.dim()` or `ef == 0`.
    pub fn traverse(&self, q: &[f32], ef: usize) -> (Vec<Neighbor>, GraphQueryPlan) {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        assert!(ef > 0, "beam width must be positive");
        let adc = AdcTable::build(q, &self.codebook, self.metric);
        let mut scored = vec![false; self.num_nodes()];
        let mut frontier: BinaryHeap<Neighbor> = BinaryHeap::new();
        let mut results = Beam::new(ef);
        let mut footprint = GraphQueryPlan::default();
        let mut code_buf = vec![0u8; self.codebook.m()];
        for &e in &self.entries {
            let id = e as usize;
            if scored[id] {
                continue;
            }
            scored[id] = true;
            footprint.scanned += 1;
            self.codes.read_into(id, &mut code_buf);
            let score = adc.score(&code_buf);
            results.push(Neighbor::new(e as u64, score));
            frontier.push(Neighbor {
                id: e as u64,
                score,
            });
        }
        while let Some(best) = frontier.pop() {
            // Every remaining candidate is worse than `best`; once the
            // beam is full and `best` cannot improve it, expansion stops.
            if results.is_full() && best.score < results.worst_score() {
                break;
            }
            footprint.visited += 1;
            for &nb in &self.adjacency[best.id as usize] {
                let id = nb as usize;
                if scored[id] {
                    continue;
                }
                scored[id] = true;
                footprint.scanned += 1;
                self.codes.read_into(id, &mut code_buf);
                let score = adc.score(&code_buf);
                if results.push(Neighbor::new(nb as u64, score)) || !results.is_full() {
                    frontier.push(Neighbor {
                        id: nb as u64,
                        score,
                    });
                }
            }
        }
        (results.best, footprint)
    }
}

/// The beam of a best-first traversal: the best `ef` neighbors seen so far
/// by [`Neighbor`]'s order, kept sorted best first, NaN rejected. Unlike a
/// lazily settled selector it answers, after every push, whether the
/// candidate is among the best `ef` and what the current worst is — the
/// two live reads that decide the walk.
struct Beam {
    ef: usize,
    best: Vec<Neighbor>,
}

impl Beam {
    fn new(ef: usize) -> Self {
        Self {
            ef,
            best: Vec::with_capacity(ef),
        }
    }

    fn is_full(&self) -> bool {
        self.best.len() == self.ef
    }

    /// The worst kept score; only meaningful once the beam is full.
    fn worst_score(&self) -> f32 {
        self.best.last().map_or(f32::NEG_INFINITY, |n| n.score)
    }

    /// Offers a candidate; returns whether it is now among the best `ef`.
    fn push(&mut self, n: Neighbor) -> bool {
        if n.score.is_nan() {
            return false;
        }
        if self.is_full() {
            if self.best.last().is_some_and(|worst| n <= *worst) {
                return false;
            }
            self.best.pop();
        }
        let at = self.best.partition_point(|kept| *kept > n);
        self.best.insert(at, n);
        true
    }
}

/// Vamana-style occlusion pruning (RobustPrune at α = 1) over a pool
/// whose scores are similarities to the base point: repeatedly keep the
/// candidate most similar to the base (ties to the lower id), then drop
/// every remaining candidate that is at least as similar to the kept
/// one as to the base. Nearby clumps collapse to one edge each,
/// so edges toward *distinct directions* — including long inter-cluster
/// links — survive; plain nearest-`degree` pruning would keep only the
/// local clump and fragment clustered data into disconnected components.
fn robust_prune(data: &VectorSet, mut pool: Vec<Neighbor>, degree: usize, m: Metric) -> Vec<u32> {
    // Neighbor's total order: higher score first, ties to the lower id.
    pool.sort_by(|a, b| b.cmp(a));
    pool.dedup_by_key(|nb| nb.id);
    let mut kept = Vec::with_capacity(degree);
    while let Some(p) = pool.first().copied() {
        kept.push(p.id as u32);
        if kept.len() == degree {
            break;
        }
        let pv = data.row(p.id as usize);
        pool.retain(|c| c.id != p.id && m.similarity(pv, data.row(c.id as usize)) < c.score);
    }
    kept
}

/// Construction-time best-first traversal with exact f32 scoring over
/// `data`, restricted to the already-inserted prefix reachable from
/// `entries`. Returns up to `beam` neighbors, best first.
fn exact_beam_search(
    data: &VectorSet,
    adjacency: &[Vec<u32>],
    entries: &[u32],
    q: &[f32],
    m: Metric,
    beam: usize,
) -> Vec<Neighbor> {
    let mut scored = vec![false; data.len()];
    let mut frontier: BinaryHeap<Neighbor> = BinaryHeap::new();
    let mut results = Beam::new(beam);
    for &e in entries {
        let id = e as usize;
        if scored[id] {
            continue;
        }
        scored[id] = true;
        let score = m.similarity(q, data.row(id));
        results.push(Neighbor::new(e as u64, score));
        frontier.push(Neighbor {
            id: e as u64,
            score,
        });
    }
    while let Some(best) = frontier.pop() {
        if results.is_full() && best.score < results.worst_score() {
            break;
        }
        for &nb in &adjacency[best.id as usize] {
            let id = nb as usize;
            if scored[id] {
                continue;
            }
            scored[id] = true;
            let score = m.similarity(q, data.row(id));
            if results.push(Neighbor::new(nb as u64, score)) || !results.is_full() {
                frontier.push(Neighbor {
                    id: nb as u64,
                    score,
                });
            }
        }
    }
    results.best
}

/// A flat asymmetric-distance table: `table[j·k* + c]` is sub-space `j`'s
/// contribution of codeword `c` to the similarity (absolute encoding, no
/// residuals — the graph has no coarse centroids).
struct AdcTable {
    table: Vec<f32>,
    kstar: usize,
}

impl AdcTable {
    /// One pass of the distance-table kernel ([`anna_quant::dist_table`])
    /// per sub-space; every entry is bit-identical to `metric::dot` /
    /// `-metric::l2_squared` on the row-major codeword.
    fn build(q: &[f32], codebook: &PqCodebook, m: Metric) -> AdcTable {
        let sub = codebook.sub_dim();
        let kstar = codebook.kstar();
        let mut table = vec![0f32; codebook.m() * kstar];
        for (j, entries) in table.chunks_mut(kstar).enumerate() {
            let qj = &q[j * sub..(j + 1) * sub];
            match m {
                Metric::InnerProduct => codebook.dim_major(j).dot_table(qj, entries),
                Metric::L2 => {
                    codebook.dim_major(j).l2_table(qj, entries);
                    entries.iter_mut().for_each(|e| *e = -*e);
                }
            }
        }
        AdcTable { table, kstar }
    }

    fn score(&self, codes: &[u8]) -> f32 {
        codes
            .iter()
            .enumerate()
            .map(|(j, &c)| self.table[j * self.kstar + c as usize])
            .sum()
    }
}

impl SearchEngine for PqGraph {
    fn name(&self) -> &'static str {
        "graph"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    /// The graph's scope is its seeded entry set — query-independent, so
    /// callers get the ids the traversal will start from.
    fn query_scope(&self, _q: &[f32], _spec: &QuerySpec) -> Vec<usize> {
        self.entries.iter().map(|&e| e as usize).collect()
    }

    /// Plans by *running* the deterministic traversal per query and
    /// recording its footprint. Beam width is `spec.scope.max(spec.k)`.
    ///
    /// # Panics
    ///
    /// Panics if a re-rank policy is requested (the graph engine is
    /// single-phase) or the specs are not uniform in `k`.
    fn plan(
        &self,
        queries: &VectorSet,
        specs: &[QuerySpec],
        _scopes: &[Vec<usize>],
        options: &PlanOptions,
    ) -> EnginePlan {
        assert!(
            options.rerank.is_none(),
            "the graph engine has no re-rank phase"
        );
        assert_eq!(specs.len(), queries.len(), "one spec per query");
        let k = specs.first().map(|s| s.k).unwrap_or(1).max(1);
        assert!(
            specs.iter().all(|s| s.k == k || specs.is_empty()),
            "graph plans require a uniform k across the batch"
        );
        let beams: Vec<usize> = specs.iter().map(|s| s.scope.max(s.k)).collect();
        let per_query = queries
            .iter()
            .zip(&beams)
            .map(|(q, &ef)| self.traverse(q, ef).1)
            .collect();
        EnginePlan::Graph {
            workload: GraphWorkload {
                shape: self.shape(k),
                beams,
            },
            plan: GraphPlan { per_query },
        }
    }

    /// Re-traces every query's planned traversal on up to `threads`
    /// workers (atomic-cursor claiming into per-query slots — results
    /// and counters are bit-identical at every thread count) and
    /// measures the traffic the plan predicted.
    ///
    /// # Panics
    ///
    /// Panics if `plan` is not a graph plan, was built for a different
    /// batch size, or `threads == 0`.
    fn execute(
        &self,
        queries: &VectorSet,
        plan: &EnginePlan,
        threads: usize,
        tel: &Telemetry,
    ) -> EngineRun {
        let EnginePlan::Graph { workload, plan } = plan else {
            panic!("graph engine handed a {} plan", plan.engine());
        };
        assert_eq!(
            workload.b(),
            queries.len(),
            "plan was built for a different batch"
        );
        assert!(threads > 0, "at least one worker required");
        let k = workload.shape.k;
        let b = queries.len();
        let mut slots: Vec<(Vec<Neighbor>, GraphQueryPlan)> = vec![Default::default(); b];
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let workers = threads.min(b.max(1));
        // Workers claim query indices off an atomic cursor and write
        // disjoint per-query slots, so the output is independent of
        // thread scheduling.
        let slot_ptr = SlotWriter(slots.as_mut_ptr());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let writer = &slot_ptr;
                    loop {
                        let qi = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if qi >= b {
                            return;
                        }
                        let ef = workload.beams[qi];
                        let (mut hits, footprint) = self.traverse(queries.row(qi), ef);
                        hits.truncate(k);
                        // SAFETY: each qi is claimed exactly once, so no
                        // two workers write the same slot.
                        unsafe { writer.write(qi, (hits, footprint)) };
                    }
                });
            }
        });
        let mut measured = MeasuredTraffic::default();
        let shape = &workload.shape;
        let mut results = Vec::with_capacity(b);
        let mut planned_total = GraphQueryPlan::default();
        for (qi, (hits, footprint)) in slots.into_iter().enumerate() {
            measured.cluster_meta_bytes += footprint.visited * shape.adjacency_bytes_per_node();
            measured.code_bytes += footprint.scanned * shape.encoded_bytes_per_vector() as u64;
            planned_total.visited += plan.per_query[qi].visited;
            planned_total.scanned += plan.per_query[qi].scanned;
            results.push(hits);
        }
        tel.counter_add("engine.graph.queries", b as u64);
        tel.counter_add("engine.graph.visited_nodes", planned_total.visited);
        tel.counter_add("engine.graph.scanned_codes", planned_total.scanned);
        EngineRun { results, measured }
    }
}

/// Raw-pointer slot writer for the scoped worker pool: workers claim
/// disjoint indices, so writes never alias.
struct SlotWriter<T>(*mut T);

unsafe impl<T: Send> Sync for SlotWriter<T> {}

impl<T> SlotWriter<T> {
    /// # Safety
    ///
    /// `i` must be in bounds and claimed by exactly one caller.
    unsafe fn write(&self, i: usize, value: T) {
        unsafe { self.0.add(i).write(value) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anna_vector::exact;

    fn clustered(dim: usize, n: usize) -> VectorSet {
        // The row-scaled epsilon keeps every row distinct: exact
        // duplicate vectors are unreachable pathologies for *any*
        // proximity graph (every in-edge to the higher-id copy is
        // occluded by the lower-id one), so the generator avoids them.
        VectorSet::from_fn(dim, n, |r, c| {
            (r % 9) as f32 * 11.0 + ((r * 31 + c * 7) % 17) as f32 * 0.3 + r as f32 * 1e-3
        })
    }

    fn config(metric: Metric) -> GraphConfig {
        GraphConfig {
            metric,
            degree: 8,
            build_beam: 24,
            ..GraphConfig::default()
        }
    }

    #[test]
    fn build_respects_degree_bound_and_is_seeded() {
        let data = clustered(8, 300);
        let g = PqGraph::build(&data, &config(Metric::L2));
        assert_eq!(g.num_nodes(), 300);
        for i in 0..g.num_nodes() {
            assert!(g.neighbors(i).len() <= g.degree(), "node {i} over degree");
        }
        // Same seed, same graph; different seed, (almost surely) not.
        let same = PqGraph::build(&data, &config(Metric::L2));
        for i in 0..g.num_nodes() {
            assert_eq!(g.neighbors(i), same.neighbors(i), "node {i} not seeded");
        }
    }

    #[test]
    fn traversal_is_deterministic_and_plan_matches_execution() {
        for metric in [Metric::L2, Metric::InnerProduct] {
            let data = clustered(8, 400);
            let g = PqGraph::build(&data, &config(metric));
            let queries = data.gather(&(0..12).map(|i| i * 33 % 400).collect::<Vec<_>>());
            let specs = vec![QuerySpec { k: 5, scope: 20 }; queries.len()];
            let scopes: Vec<Vec<usize>> = queries
                .iter()
                .map(|q| g.query_scope(q, &specs[0]))
                .collect();
            let plan = g.plan(&queries, &specs, &scopes, &PlanOptions::default());
            let predicted = g.price(&plan);
            let tel = Telemetry::disabled();
            let base = g.execute(&queries, &plan, 1, &tel);
            g.verify(&predicted, None, &base.measured)
                .expect("graph predicted == measured");
            for threads in [2usize, 4, 8] {
                let run = g.execute(&queries, &plan, threads, &tel);
                assert_eq!(run.results, base.results, "{metric:?} threads={threads}");
                assert_eq!(run.measured, base.measured, "{metric:?} threads={threads}");
            }
        }
    }

    #[test]
    fn wider_beams_do_not_hurt_recall_much_and_reach_truth_at_scale() {
        let data = clustered(8, 500);
        // Fine quantizer (m=8, k*=256 over dim 8 = per-scalar codebooks):
        // this test isolates *traversal* quality, so PQ error must not be
        // the recall ceiling the way it is with the default m=4/k*=16.
        let g = PqGraph::build(
            &data,
            &GraphConfig {
                m: 8,
                kstar: 256,
                ..config(Metric::L2)
            },
        );
        let queries = data.gather(&(0..16).collect::<Vec<_>>());
        let truth = exact::search(&queries, &data, Metric::L2, 5);
        let recall_at = |ef: usize| {
            let specs = vec![QuerySpec { k: 5, scope: ef }; queries.len()];
            let scopes: Vec<Vec<usize>> = queries
                .iter()
                .map(|q| g.query_scope(q, &specs[0]))
                .collect();
            let plan = g.plan(&queries, &specs, &scopes, &PlanOptions::default());
            let run = g.execute(&queries, &plan, 2, &Telemetry::disabled());
            let mut hit = 0usize;
            for (got, want) in run.results.iter().zip(&truth) {
                let want_ids: Vec<u64> = want.iter().map(|n| n.id).collect();
                hit += got.iter().filter(|n| want_ids.contains(&n.id)).count();
            }
            hit as f64 / (queries.len() * 5) as f64
        };
        let narrow = recall_at(8);
        let wide = recall_at(128);
        assert!(
            wide >= narrow,
            "recall should not degrade with beam width: {narrow} -> {wide}"
        );
        assert!(wide >= 0.8, "wide-beam recall too low: {wide}");
    }

    #[test]
    fn results_are_truncated_to_k_and_ids_are_node_ids() {
        let data = clustered(8, 200);
        let g = PqGraph::build(&data, &config(Metric::L2));
        let queries = data.gather(&[3, 77]);
        let specs = vec![QuerySpec { k: 3, scope: 40 }; 2];
        let scopes: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| g.query_scope(q, &specs[0]))
            .collect();
        let plan = g.plan(&queries, &specs, &scopes, &PlanOptions::default());
        let run = g.execute(&queries, &plan, 1, &Telemetry::disabled());
        for hits in &run.results {
            assert_eq!(hits.len(), 3);
            for n in hits {
                assert!((n.id as usize) < 200);
            }
            assert!(hits[0].score >= hits[2].score);
        }
    }

    #[test]
    #[should_panic(expected = "no re-rank phase")]
    fn rerank_is_rejected() {
        let data = clustered(8, 64);
        let g = PqGraph::build(&data, &config(Metric::L2));
        let queries = data.gather(&[0]);
        let specs = vec![QuerySpec { k: 2, scope: 8 }];
        let scopes = vec![g.query_scope(queries.row(0), &specs[0])];
        g.plan(
            &queries,
            &specs,
            &scopes,
            &PlanOptions {
                rerank: Some(anna_plan::RerankPolicy {
                    mode: anna_plan::RerankMode::Adaptive,
                    alpha: 4,
                }),
            },
        );
    }
}
