//! The two-level IVF-PQ index (Section II-C of the paper).

use crate::kernels;
use crate::lut::Lut;
use crate::SearchParams;
use anna_quant::anisotropic::{self, AnisotropicConfig};
use anna_quant::codes::PackedCodes;
use anna_quant::dist_table::DimMajor;
use anna_quant::kmeans::{KMeans, KMeansConfig};
use anna_quant::pq::{PqCodebook, PqConfig};
use anna_vector::{metric, Metric, Neighbor, TopK, VectorSet};
use serde::{Deserialize, Serialize};

/// Which codebook training objective to use — the difference between the
/// paper's "Faiss" and "ScaNN" model families (Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trainer {
    /// Plain reconstruction-error k-means per subspace (Faiss).
    Faiss,
    /// Score-aware anisotropic loss (ScaNN / Guo et al. 2020).
    Scann,
}

/// Configuration for [`IvfPqIndex::build`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IvfPqConfig {
    /// Similarity metric.
    pub metric: Metric,
    /// Number of coarse clusters `|C|` (the paper uses 10000 for
    /// billion-scale and 250 for million-scale datasets).
    pub num_clusters: usize,
    /// Number of PQ sub-vectors `M`.
    pub m: usize,
    /// Codewords per codebook `k*` (16 or 256).
    pub kstar: usize,
    /// Codebook objective.
    pub trainer: Trainer,
    /// Coarse k-means iterations.
    pub coarse_iters: usize,
    /// Codebook training iterations.
    pub pq_iters: usize,
    /// RNG seed for all training stages.
    pub seed: u64,
}

impl Default for IvfPqConfig {
    fn default() -> Self {
        Self {
            metric: Metric::L2,
            num_clusters: 64,
            m: 8,
            kstar: 16,
            trainer: Trainer::Faiss,
            coarse_iters: 15,
            pq_iters: 10,
            seed: 0,
        }
    }
}

/// One inverted list: the ids and packed residual codes of every database
/// vector assigned to a cluster, stored contiguously (Section II-C: "these
/// encoded vectors belonging to this specific cluster are stored together").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Global database ids, aligned with the code rows.
    pub ids: Vec<u64>,
    /// Packed PQ codes of the residuals.
    pub codes: PackedCodes,
}

impl Cluster {
    /// Number of vectors in the cluster (`|C_i|`).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the cluster is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Bytes of encoded vectors the EFM must fetch for this cluster:
    /// `(M · log2 k* / 8) · |C_i|` (Section IV-B).
    pub fn encoded_bytes(&self) -> u64 {
        (self.codes.vector_bytes() * self.len()) as u64
    }
}

/// Size statistics of a built index, in bytes, for the compression-ratio
/// bookkeeping of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexStats {
    /// Total number of indexed vectors `N`.
    pub num_vectors: u64,
    /// Bytes of packed codes across all clusters.
    pub code_bytes: u64,
    /// Bytes of centroids at 2-byte elements (`2·D·|C|`).
    pub centroid_bytes: u64,
    /// Bytes of codebooks at 2-byte elements (`2·k*·D`).
    pub codebook_bytes: u64,
    /// Bytes the original uncompressed vectors would occupy at float16
    /// (`2·N·D`).
    pub raw_bytes: u64,
}

impl IndexStats {
    /// Achieved compression ratio `raw / code` (the paper's 4:1 / 8:1 axis
    /// counts only the encoded vectors against the raw data).
    pub fn compression_ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.code_bytes.max(1) as f64
    }
}

/// Cluster filtering: the `nprobe` centroids of `centroids` most similar to
/// `q` under `metric`, best first. One pass of the distance-table kernel
/// scores every centroid — each similarity `metric.similarity(q, c)` bit
/// for bit — and the selector takes them in centroid order, so ties keep
/// the lowest id.
pub(crate) fn filter_clusters(
    centroids: &DimMajor,
    metric: Metric,
    q: &[f32],
    nprobe: usize,
) -> Vec<usize> {
    let mut similarities = vec![0.0f32; centroids.k()];
    centroids.similarities(metric, q, &mut similarities);
    let mut top = TopK::new(nprobe.clamp(1, centroids.k()));
    for (i, &s) in similarities.iter().enumerate() {
        top.push(i as u64, s);
    }
    top.into_sorted_vec()
        .into_iter()
        .map(|n| n.id as usize)
        .collect()
}

/// A two-level product-quantization index.
///
/// See the [crate-level documentation](crate) for the search pipeline and
/// an end-to-end example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IvfPqIndex {
    metric: Metric,
    coarse: KMeans,
    codebook: PqCodebook,
    clusters: Vec<Cluster>,
    dim: usize,
    num_vectors: u64,
}

impl IvfPqIndex {
    /// Builds an index over `data`:
    /// 1. trains `|C|` coarse centroids with k-means,
    /// 2. computes residuals `r(x) = x − c⁽ʲ⁾`,
    /// 3. trains the PQ codebook on the residuals (Faiss or ScaNN
    ///    objective),
    /// 4. encodes every residual and groups codes by cluster.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, `data.dim()` is not divisible by
    /// `config.m`, or `config.kstar` is not 16 or 256 when packing.
    pub fn build(data: &VectorSet, config: &IvfPqConfig) -> Self {
        assert!(!data.is_empty(), "cannot index an empty dataset");
        let coarse = KMeans::train(
            data,
            &KMeansConfig {
                k: config.num_clusters,
                max_iters: config.coarse_iters,
                seed: config.seed,
            },
        );
        let assignment = coarse.assign_all(data);

        // Residuals, in data order.
        let mut residuals = VectorSet::zeros(data.dim(), 0);
        for (i, v) in data.iter().enumerate() {
            let c = coarse.centroids().row(assignment[i]);
            residuals.push(&metric::sub(v, c));
        }

        let codebook = match config.trainer {
            Trainer::Faiss => PqCodebook::train(
                &residuals,
                &PqConfig {
                    m: config.m,
                    kstar: config.kstar,
                    iters: config.pq_iters,
                    seed: config.seed.wrapping_add(1),
                },
            ),
            Trainer::Scann => anisotropic::train(
                &residuals,
                &AnisotropicConfig {
                    m: config.m,
                    kstar: config.kstar,
                    eta: anisotropic::eta_for_threshold(0.2, data.dim()),
                    iters: config.pq_iters,
                    seed: config.seed.wrapping_add(1),
                },
            ),
        };

        let width = PqConfig {
            m: config.m,
            kstar: config.kstar,
            iters: 0,
            seed: 0,
        }
        .code_width();

        let k = coarse.k();
        let mut clusters: Vec<Cluster> = (0..k)
            .map(|_| Cluster {
                ids: Vec::new(),
                codes: PackedCodes::new(config.m, width),
            })
            .collect();
        let mut codes = vec![0u8; codebook.m()];
        for (i, r) in residuals.iter().enumerate() {
            let cl = &mut clusters[assignment[i]];
            cl.ids.push(i as u64);
            codebook.encode_into(r, &mut codes);
            cl.codes.push(&codes);
        }

        Self {
            metric: config.metric,
            coarse,
            codebook,
            clusters,
            dim: data.dim(),
            num_vectors: data.len() as u64,
        }
    }

    /// Reassembles an index from previously trained/persisted parts
    /// (see [`crate::io`] for the binary format).
    ///
    /// # Panics
    ///
    /// Panics if the parts are mutually inconsistent (dimension mismatch,
    /// cluster count mismatch, or id/code count divergence).
    pub fn from_parts(
        metric: Metric,
        coarse: KMeans,
        codebook: PqCodebook,
        clusters: Vec<Cluster>,
    ) -> Self {
        let dim = coarse.centroids().dim();
        assert_eq!(codebook.dim(), dim, "codebook dimension mismatch");
        assert_eq!(clusters.len(), coarse.k(), "cluster count mismatch");
        let mut num_vectors = 0u64;
        for (i, cl) in clusters.iter().enumerate() {
            assert_eq!(
                cl.ids.len(),
                cl.codes.len(),
                "cluster {i}: id/code count mismatch"
            );
            assert_eq!(
                cl.codes.m(),
                codebook.m(),
                "cluster {i}: code width mismatch"
            );
            num_vectors += cl.ids.len() as u64;
        }
        Self {
            metric,
            coarse,
            codebook,
            clusters,
            dim,
            num_vectors,
        }
    }

    /// The similarity metric the index was built for.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Vector dimension `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed vectors `N`.
    pub fn num_vectors(&self) -> u64 {
        self.num_vectors
    }

    /// Number of coarse clusters `|C|`.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The coarse centroids.
    pub fn centroids(&self) -> &VectorSet {
        self.coarse.centroids()
    }

    /// The PQ codebook.
    pub fn codebook(&self) -> &PqCodebook {
        &self.codebook
    }

    /// The `i`-th inverted list.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_clusters()`.
    pub fn cluster(&self, i: usize) -> &Cluster {
        &self.clusters[i]
    }

    /// Every inverted list, indexed by cluster id.
    pub(crate) fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Cluster sizes `|C_i|`, the key input to the simulator's timing model.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        self.clusters.iter().map(Cluster::len).collect()
    }

    /// Size statistics for compression-ratio bookkeeping.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            num_vectors: self.num_vectors,
            code_bytes: self.clusters.iter().map(Cluster::encoded_bytes).sum(),
            centroid_bytes: 2 * (self.dim as u64) * self.num_clusters() as u64,
            codebook_bytes: self.codebook.storage_bytes() as u64,
            raw_bytes: 2 * self.num_vectors * self.dim as u64,
        }
    }

    /// Appends new vectors to the index without retraining: each vector is
    /// assigned to its nearest coarse centroid, its residual is encoded
    /// with the existing codebook, and the codes join that cluster's
    /// inverted list. Returns the ids assigned to the new vectors
    /// (continuing after the current maximum).
    ///
    /// Quantization quality for the new vectors is only as good as the
    /// existing model's fit — the standard IVF-PQ insertion trade-off.
    ///
    /// # Panics
    ///
    /// Panics if `vectors.dim() != self.dim()`.
    pub fn add(&mut self, vectors: &VectorSet) -> Vec<u64> {
        assert_eq!(vectors.dim(), self.dim, "vector dimension mismatch");
        let mut ids = Vec::with_capacity(vectors.len());
        let mut residual = Vec::with_capacity(self.dim);
        let mut codes = vec![0u8; self.codebook.m()];
        for v in vectors.iter() {
            let cid = self.coarse.assign(v);
            let centroid = self.coarse.centroids().row(cid);
            residual.clear();
            residual.extend(v.iter().zip(centroid).map(|(x, y)| x - y));
            self.codebook.encode_into(&residual, &mut codes);
            let id = self.num_vectors;
            self.clusters[cid].ids.push(id);
            self.clusters[cid].codes.push(&codes);
            self.num_vectors += 1;
            ids.push(id);
        }
        ids
    }

    /// Step 1 of the search (cluster filtering): the `nprobe` most similar
    /// centroids to `q`, best first.
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != self.dim()`.
    pub fn filter_clusters(&self, q: &[f32], nprobe: usize) -> Vec<usize> {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        filter_clusters(self.coarse.dim_major(), self.metric, q, nprobe)
    }

    /// Builds the LUT for `q` against cluster `cluster_id` (steps 2 of the
    /// search): cluster-invariant with a `q·c` bias for inner product,
    /// cluster-specific for L2.
    pub fn build_lut(&self, q: &[f32], cluster_id: usize, params: &SearchParams) -> Lut {
        match self.metric {
            Metric::InnerProduct => {
                let c = self.coarse.centroids().row(cluster_id);
                Lut::build_ip(q, &self.codebook, params.lut_precision).with_bias(metric::dot(q, c))
            }
            Metric::L2 => Lut::build_l2(
                q,
                self.coarse.centroids().row(cluster_id),
                &self.codebook,
                params.lut_precision,
            ),
        }
    }

    /// Searches one query (query-major schedule, the left side of
    /// Figure 5): filter clusters, then for each selected cluster build or
    /// re-bias the LUT and scan its codes.
    ///
    /// This is the crate's oracle: every batch engine (see
    /// [`crate::engines`]) is checked against it bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != self.dim()`.
    pub fn search(&self, q: &[f32], params: &SearchParams) -> Vec<Neighbor> {
        let selected = self.filter_clusters(q, params.nprobe);
        let mut top = TopK::new(params.k);

        // Inner-product tables are cluster-invariant: build once, re-bias.
        let shared_ip = match self.metric {
            Metric::InnerProduct => Some(Lut::build_ip(q, &self.codebook, params.lut_precision)),
            Metric::L2 => None,
        };

        let dispatch = kernels::KernelDispatch::current();
        let mut scratch = kernels::ScanScratch::new();
        for cid in selected {
            let cluster = &self.clusters[cid];
            if cluster.is_empty() {
                continue;
            }
            let lut = match &shared_ip {
                Some(base) => base.with_bias(metric::dot(q, self.coarse.centroids().row(cid))),
                None => self.build_lut(q, cid, params),
            };
            kernels::scan_with(
                &cluster.codes,
                &cluster.ids,
                &lut,
                &mut top,
                dispatch,
                &mut scratch,
            );
        }
        top.into_sorted_vec()
    }

    /// Two-phase single-query search: over-fetch `policy.k_first(params.k)`
    /// candidates with the quantized scan, then rescore the survivors
    /// against `db` (the original vectors, row id == database id) at the
    /// policy's precision and keep the final `params.k`.
    ///
    /// A reference implementation only — the query-major oracle the
    /// batched two-phase engine must match bit for bit. Production
    /// two-phase batches run through the engine pipeline with
    /// `PlanOptions::rerank` (see [`crate::engines`]).
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != self.dim()`, `db.dim() != self.dim()`, or
    /// `params.k == 0`.
    pub fn search_two_phase(
        &self,
        q: &[f32],
        params: &SearchParams,
        policy: &anna_plan::RerankPolicy,
        db: &VectorSet,
    ) -> Vec<Neighbor> {
        assert_eq!(db.dim(), self.dim, "re-rank source dimension mismatch");
        assert!(params.k > 0, "k must be positive");
        let k_first = policy.k_first(params.k);
        let first = SearchParams {
            nprobe: params.nprobe,
            k: k_first,
            lut_precision: params.lut_precision,
        };
        let survivors = self.search(q, &first);
        // The same plan-time controller decision the batched path's
        // RerankStage carries: pool = total codes in the visited clusters.
        let pool: usize = self
            .filter_clusters(q, params.nprobe)
            .into_iter()
            .map(|c| self.clusters[c].len())
            .sum();
        let decision = policy.query_decision(k_first, pool);
        let ids: Vec<u64> = survivors.iter().map(|n| n.id).collect();
        let mut scratch = anna_vector::exact::RescoreScratch::new();
        let mut out = Vec::new();
        if ids.is_empty() {
            return out;
        }
        anna_vector::exact::rescore_subset_into(
            q,
            &ids,
            db,
            self.metric,
            params.k,
            decision.precision == anna_plan::RerankPrecision::F16,
            &mut scratch,
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LutPrecision;

    /// Clustered data where nearest neighbors are unambiguous.
    fn clustered(dim: usize, n: usize) -> VectorSet {
        VectorSet::from_fn(dim, n, |r, c| {
            let blob = (r % 8) as f32;
            blob * 20.0 + ((r * 31 + c * 7) % 10) as f32 * 0.2
        })
    }

    fn build(metric: Metric, kstar: usize) -> (VectorSet, IvfPqIndex) {
        let data = clustered(8, 600);
        let cfg = IvfPqConfig {
            metric,
            num_clusters: 8,
            m: 4,
            kstar,
            ..IvfPqConfig::default()
        };
        let index = IvfPqIndex::build(&data, &cfg);
        (data, index)
    }

    #[test]
    fn l2_search_returns_same_blob() {
        // Many blob members share PQ codes (scores tie), so exact self-ids
        // are ambiguous; what must hold is that every returned hit comes
        // from the query's blob, whose centers are 20·√8 apart.
        let (data, index) = build(Metric::L2, 16);
        let params = SearchParams {
            nprobe: 2,
            k: 5,
            lut_precision: LutPrecision::F32,
        };
        for i in (0..data.len()).step_by(29) {
            let res = index.search(data.row(i), &params);
            assert_eq!(res.len(), 5);
            for n in &res {
                assert_eq!(
                    n.id % 8,
                    (i % 8) as u64,
                    "query {i}: hit {} from the wrong blob",
                    n.id
                );
            }
        }
    }

    #[test]
    fn vector_finds_itself_inner_product() {
        let (data, index) = build(Metric::InnerProduct, 16);
        // For IP, a vector's best match under PQ need not be itself, but the
        // top hits must come from the same blob (ids congruent mod 8).
        let params = SearchParams {
            nprobe: 3,
            k: 5,
            lut_precision: LutPrecision::F32,
        };
        let res = index.search(data.row(7), &params); // blob 7, the largest values
        assert!(!res.is_empty());
        assert_eq!(
            res[0].id % 8,
            7,
            "top hit {} should be in blob 7",
            res[0].id
        );
    }

    #[test]
    fn full_nprobe_visits_every_nonempty_cluster() {
        let (data, index) = build(Metric::L2, 16);
        let params = SearchParams {
            nprobe: index.num_clusters(),
            k: 3,
            lut_precision: LutPrecision::F32,
        };
        // With all clusters probed, results equal exhaustive PQ scoring.
        let res = index.search(data.row(0), &params);
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].id, 0);
    }

    #[test]
    fn cluster_ids_partition_the_dataset() {
        let (data, index) = build(Metric::L2, 16);
        let mut seen = vec![false; data.len()];
        for c in 0..index.num_clusters() {
            for &id in &index.cluster(c).ids {
                assert!(!seen[id as usize], "id {id} in two clusters");
                seen[id as usize] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "some ids missing from inverted lists"
        );
    }

    #[test]
    fn stats_reflect_compression() {
        let (_, index) = build(Metric::L2, 16);
        let stats = index.stats();
        assert_eq!(stats.num_vectors, 600);
        assert_eq!(stats.raw_bytes, 2 * 600 * 8);
        // M=4 at 4 bits = 2 bytes per vector vs 16 raw -> 8:1.
        assert_eq!(stats.code_bytes, 600 * 2);
        assert!((stats.compression_ratio() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn filter_clusters_orders_by_similarity() {
        let (data, index) = build(Metric::L2, 16);
        let order = index.filter_clusters(data.row(0), index.num_clusters());
        assert_eq!(order.len(), index.num_clusters());
        let sims: Vec<f32> = order
            .iter()
            .map(|&c| Metric::L2.similarity(data.row(0), index.centroids().row(c)))
            .collect();
        for w in sims.windows(2) {
            assert!(w[0] >= w[1], "cluster order not sorted: {sims:?}");
        }
    }

    #[test]
    fn add_appends_searchable_vectors() {
        let (data, mut index) = build(Metric::L2, 16);
        let n0 = index.num_vectors();
        // Insert copies of two existing rows shifted slightly.
        let mut extra = VectorSet::zeros(8, 0);
        for &row in &[10usize, 20] {
            let mut v = data.row(row).to_vec();
            v[0] += 0.01;
            extra.push(&v);
        }
        let new_ids = index.add(&extra);
        assert_eq!(new_ids, vec![n0, n0 + 1]);
        assert_eq!(index.num_vectors(), n0 + 2);
        // The new ids live in exactly one inverted list each.
        let mut found = 0;
        for c in 0..index.num_clusters() {
            found += index.cluster(c).ids.iter().filter(|&&id| id >= n0).count();
        }
        assert_eq!(found, 2, "new ids missing from inverted lists");
        // A full-probe, full-k search retrieves them (many blob-mates share
        // the same PQ code, so tie-breaking can rank them below older ids
        // at small k — but they must be present in the candidate set).
        let params = SearchParams {
            nprobe: index.num_clusters(),
            k: index.num_vectors() as usize,
            lut_precision: LutPrecision::F32,
        };
        let res = index.search(extra.row(0), &params);
        assert!(
            res.iter().any(|h| h.id == n0),
            "inserted vector {n0} not retrievable"
        );
        // Its score equals the best score (it ties with its code-mates).
        let mine = res.iter().find(|h| h.id == n0).unwrap().score;
        assert!(
            (res[0].score - mine).abs() < 1e-3,
            "inserted vector scored off the top tie"
        );
        // The inverted lists still partition all ids.
        let total: usize = index.cluster_sizes().iter().sum();
        assert_eq!(total as u64, index.num_vectors());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn add_rejects_wrong_dimension() {
        let (_, mut index) = build(Metric::L2, 16);
        index.add(&VectorSet::zeros(4, 1));
    }

    #[test]
    fn scann_trainer_builds_compatible_index() {
        let data = clustered(8, 400);
        let cfg = IvfPqConfig {
            metric: Metric::InnerProduct,
            num_clusters: 8,
            m: 4,
            kstar: 16,
            trainer: Trainer::Scann,
            pq_iters: 4,
            ..IvfPqConfig::default()
        };
        let index = IvfPqIndex::build(&data, &cfg);
        let params = SearchParams {
            nprobe: 4,
            k: 3,
            lut_precision: LutPrecision::F32,
        };
        let res = index.search(data.row(15), &params);
        assert_eq!(res.len(), 3);
    }

    #[test]
    fn f16_ip_scores_match_all_2byte_reference() {
        use anna_vector::f16;
        // In the hardware-faithful F16 mode every stored quantity — LUT
        // entries *and* the q·c⁽ʲ⁾ bias — lives in the 2-byte lookup-table
        // SRAM. Recompute each returned score from that all-2-byte
        // reference and demand exact equality; before the fix the search
        // path added a full-precision f32 bias the SRAM could never hold.
        let (data, index) = build(Metric::InnerProduct, 16);
        let q = data.row(7);
        let params = SearchParams {
            nprobe: index.num_clusters(),
            k: 8,
            lut_precision: LutPrecision::F16,
        };
        let hits = index.search(q, &params);
        assert!(!hits.is_empty());
        let base = Lut::build_ip(q, index.codebook(), LutPrecision::F16);
        for hit in &hits {
            let (cid, pos) = (0..index.num_clusters())
                .find_map(|c| {
                    index
                        .cluster(c)
                        .ids
                        .iter()
                        .position(|&id| id == hit.id)
                        .map(|p| (c, p))
                })
                .expect("hit id present in some inverted list");
            let codes = index.cluster(cid).codes.get(pos);
            let bias = f16::round_trip(metric::dot(q, index.centroids().row(cid)));
            let want = codes
                .iter()
                .enumerate()
                .map(|(i, &c)| base.get(i, c as usize))
                .sum::<f32>()
                + bias;
            assert_eq!(
                hit.score, want,
                "id {}: score not reproducible from 2-byte quantities",
                hit.id
            );
        }
    }

    #[test]
    fn f16_lut_changes_scores_only_slightly() {
        let (data, index) = build(Metric::L2, 16);
        let p32 = SearchParams {
            nprobe: 4,
            k: 5,
            lut_precision: LutPrecision::F32,
        };
        let p16 = SearchParams {
            nprobe: 4,
            k: 5,
            lut_precision: LutPrecision::F16,
        };
        let a = index.search(data.row(123), &p32);
        let b = index.search(data.row(123), &p16);
        // Top hit should coincide; scores may differ by f16 rounding.
        assert_eq!(a[0].id, b[0].id);
        assert!((a[0].score - b[0].score).abs() <= 1.0 + a[0].score.abs() * 0.01);
    }
}
