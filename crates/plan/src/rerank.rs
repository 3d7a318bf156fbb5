//! The re-rank stage of the two-phase (over-fetch + rescore) pipeline,
//! as a first-class part of the plan IR.
//!
//! The fixed `(k*, nprobe)` operating point pins recall at build time:
//! once the codes are quantized, the only way the single-phase pipeline
//! can buy recall is to scan more bytes. A *two-phase* pipeline instead
//! over-fetches `alpha * k` candidates with the cheap encoded-code scan
//! and then rescores only those survivors against a higher-precision
//! representation of the vectors (2-byte f16 copies or the exact 4-byte
//! f32 originals), trading a small targeted fetch for the recall the
//! quantized scores lose.
//!
//! A [`RerankStage`] is attached to a [`BatchPlan`](crate::BatchPlan) and
//! priced by [`TrafficModel`](crate::TrafficModel) exactly like every
//! other plan component, so the workspace's predicted == measured byte
//! invariant extends to the second phase:
//!
//! * **candidate records** — the first pass writes each survivor's
//!   `(id, score)` record out and the re-ranker reads it back
//!   (`2 · Σ c_q · record_bytes`);
//! * **vector fetches** — each candidate's vector is fetched at the
//!   query's re-rank precision (`Σ c_q · D · bytes_per_element`);
//! * **rescore results** — the final `B · k` records replace the first
//!   pass's result stores.
//!
//! Per-query candidate counts are a *plan-time* function of the workload
//! (`c_q = min(k_first, Σ |C_i| over q's visited clusters)`), which is
//! what keeps the pricing exact: the first pass keeps at most `k_first`
//! candidates and scores every code of every visited cluster, so the
//! survivor count is known before execution.
//!
//! [`RerankPolicy`] is the controller that turns a knob pair
//! `(mode, alpha)` into a per-query [`RerankQuery`] decision — see the
//! method docs for the adaptive byte-equalizing escalation rule.

use crate::workload::BatchWorkload;

/// Element width the re-rank stage fetches candidate vectors at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerankPrecision {
    /// 2-byte binary16 copies of the vectors (elements rounded through
    /// f16 on fetch, distances accumulated in f32) — half the traffic of
    /// exact rescoring at a quantization error far below the PQ codes'.
    F16,
    /// The exact 4-byte f32 vectors.
    F32,
}

impl RerankPrecision {
    /// Bytes fetched per vector element at this precision.
    pub fn bytes_per_element(self) -> u64 {
        match self {
            RerankPrecision::F16 => 2,
            RerankPrecision::F32 => 4,
        }
    }

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            RerankPrecision::F16 => "f16",
            RerankPrecision::F32 => "f32",
        }
    }
}

/// The re-rank decision for one query of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RerankQuery {
    /// First-pass survivors this query rescoring — exactly
    /// `min(k_first, Σ visited cluster sizes)`.
    pub candidates: usize,
    /// Vector-fetch precision for this query's candidates.
    pub precision: RerankPrecision,
}

/// The re-rank stage of a two-phase plan: per-query candidate counts and
/// precisions plus the final `k`, carried on the
/// [`BatchPlan`](crate::BatchPlan) so every consumer (software engine,
/// traffic model, serving batcher) prices and executes the same second
/// phase.
#[derive(Debug, Clone, PartialEq)]
pub struct RerankStage {
    /// Final results per query (the first pass over-fetched more).
    pub k: usize,
    /// Bytes per spilled candidate record (id + score; the paper's packed
    /// 5 B). Carried here so measured accounting cannot drift from the
    /// pricing parameters the stage was built under.
    pub record_bytes: u64,
    /// One decision per batch query, query order.
    pub queries: Vec<RerankQuery>,
}

impl RerankStage {
    /// Total first-pass survivors across the batch.
    pub fn total_candidates(&self) -> u64 {
        self.queries.iter().map(|q| q.candidates as u64).sum()
    }

    /// Candidate-record traffic: each survivor's record is spilled by the
    /// first pass and filled by the re-ranker (`2 · Σ c_q · record`).
    pub fn candidate_record_bytes(&self) -> u64 {
        2 * self.total_candidates() * self.record_bytes
    }

    /// Vector-fetch traffic at `d` elements per vector: each query pays
    /// its own precision (`Σ c_q · d · bytes_per_element`).
    pub fn vector_fetch_bytes(&self, d: usize) -> u64 {
        self.queries
            .iter()
            .map(|q| q.candidates as u64 * d as u64 * q.precision.bytes_per_element())
            .sum()
    }

    /// Sanity checks: positive `k`, one decision per batch query.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on violation.
    pub fn assert_valid(&self, b: usize) {
        assert!(self.k > 0, "re-rank k must be positive");
        assert!(self.record_bytes > 0, "record_bytes must be positive");
        assert_eq!(
            self.queries.len(),
            b,
            "re-rank stage must carry one decision per batch query"
        );
    }
}

/// How the controller assigns per-query re-rank precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerankMode {
    /// Every query rescored at the same precision.
    Fixed(RerankPrecision),
    /// Byte-equalizing escalation: f16 by default, but queries whose
    /// candidate pool is small enough that exact f32 rescoring fits the
    /// same per-query byte budget are escalated to f32 for free (see
    /// [`RerankPolicy::query_decision`]).
    Adaptive,
}

impl RerankMode {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            RerankMode::Fixed(RerankPrecision::F16) => "f16",
            RerankMode::Fixed(RerankPrecision::F32) => "f32",
            RerankMode::Adaptive => "adaptive",
        }
    }
}

/// The two-phase controller knobs: over-fetch factor and precision mode.
///
/// A policy is a pure value — the per-query decisions it produces are a
/// deterministic plan-time function of the workload, so the same policy
/// over the same workload always prices and executes identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RerankPolicy {
    /// Precision mode (fixed or adaptive escalation).
    pub mode: RerankMode,
    /// Over-fetch factor: the first pass keeps `alpha * k` candidates
    /// (`alpha >= 1`; 1 degenerates to rescoring the single-phase result).
    pub alpha: usize,
}

impl RerankPolicy {
    /// The first-pass heap size for final `k`: `alpha * k`.
    pub fn k_first(&self, k: usize) -> usize {
        self.alpha.max(1) * k.max(1)
    }

    /// The controller's per-query decision given the first-pass heap size
    /// and the query's candidate pool (total codes its visited clusters
    /// hold).
    ///
    /// * `candidates = min(k_first, pool)` — a query cannot over-fetch
    ///   more survivors than its visited clusters contain.
    /// * Precision: fixed modes use their precision unconditionally. The
    ///   adaptive mode budgets each query `k_first · D · 2` vector-fetch
    ///   bytes (full over-fetch at f16) and escalates a query to exact
    ///   f32 when its whole pool fits that budget (`2 · pool <= k_first`)
    ///   — sparse queries get exact rescoring for free, dense queries
    ///   stay at f16.
    pub fn query_decision(&self, k_first: usize, pool: usize) -> RerankQuery {
        let candidates = k_first.min(pool);
        let precision = match self.mode {
            RerankMode::Fixed(p) => p,
            RerankMode::Adaptive => {
                if 2 * pool <= k_first {
                    RerankPrecision::F32
                } else {
                    RerankPrecision::F16
                }
            }
        };
        RerankQuery {
            candidates,
            precision,
        }
    }

    /// Builds the [`RerankStage`] for a *first-pass* workload (one whose
    /// `shape.k` is already the over-fetch heap size `alpha * k`),
    /// emitting the final `k` and one [`RerankQuery`] per batch query.
    ///
    /// # Panics
    ///
    /// Panics if `workload.shape.k < k` (the first pass must over-fetch at
    /// least the final `k`) or a visit references an out-of-range cluster.
    pub fn stage(&self, workload: &BatchWorkload, k: usize, record_bytes: u64) -> RerankStage {
        let k_first = workload.shape.k;
        assert!(
            k_first >= k,
            "first-pass k ({k_first}) must be >= final k ({k})"
        );
        let queries = workload
            .visits
            .iter()
            .map(|visit| {
                let pool: usize = visit.iter().map(|&c| workload.cluster_sizes[c]).sum();
                self.query_decision(k_first, pool)
            })
            .collect();
        let stage = RerankStage {
            k,
            record_bytes,
            queries,
        };
        stage.assert_valid(workload.b());
        stage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SearchShape;
    use anna_vector::Metric;

    fn workload(k_first: usize) -> BatchWorkload {
        BatchWorkload {
            shape: SearchShape {
                d: 8,
                m: 4,
                kstar: 16,
                metric: Metric::L2,
                num_clusters: 4,
                k: k_first,
            },
            cluster_sizes: vec![100, 10, 3, 0],
            visits: vec![vec![0, 1], vec![2], vec![2, 3]],
        }
    }

    #[test]
    fn candidates_clamp_to_the_visited_pool() {
        let policy = RerankPolicy {
            mode: RerankMode::Fixed(RerankPrecision::F32),
            alpha: 4,
        };
        let stage = policy.stage(&workload(40), 10, 5);
        let counts: Vec<usize> = stage.queries.iter().map(|q| q.candidates).collect();
        // Pools: 110, 3, 3 -> clamp to min(40, pool).
        assert_eq!(counts, vec![40, 3, 3]);
        assert_eq!(stage.total_candidates(), 46);
        assert_eq!(stage.candidate_record_bytes(), 2 * 46 * 5);
        assert_eq!(stage.vector_fetch_bytes(8), 46 * 8 * 4);
    }

    #[test]
    fn adaptive_mode_escalates_sparse_queries_to_f32() {
        let policy = RerankPolicy {
            mode: RerankMode::Adaptive,
            alpha: 4,
        };
        let stage = policy.stage(&workload(40), 10, 5);
        // Pool 110 > 20: stays f16. Pools of 3 fit the f32-within-f16
        // budget (2*3 <= 40): escalate.
        assert_eq!(stage.queries[0].precision, RerankPrecision::F16);
        assert_eq!(stage.queries[1].precision, RerankPrecision::F32);
        assert_eq!(stage.queries[2].precision, RerankPrecision::F32);
        // Mixed precisions price per query: 40·d·2 + 3·d·4 + 3·d·4.
        assert_eq!(stage.vector_fetch_bytes(8), 40 * 8 * 2 + 2 * (3 * 8 * 4));
    }

    #[test]
    fn alpha_one_keeps_the_single_phase_candidate_count() {
        let policy = RerankPolicy {
            mode: RerankMode::Fixed(RerankPrecision::F32),
            alpha: 1,
        };
        assert_eq!(policy.k_first(10), 10);
        let d = policy.query_decision(10, 1000);
        assert_eq!(d.candidates, 10);
    }

    #[test]
    #[should_panic(expected = "must be >= final k")]
    fn stage_rejects_underfetching_first_pass() {
        let policy = RerankPolicy {
            mode: RerankMode::Fixed(RerankPrecision::F16),
            alpha: 2,
        };
        let _ = policy.stage(&workload(5), 10, 5);
    }

    #[test]
    fn precision_bytes_and_names_are_stable() {
        assert_eq!(RerankPrecision::F16.bytes_per_element(), 2);
        assert_eq!(RerankPrecision::F32.bytes_per_element(), 4);
        assert_eq!(RerankPrecision::F16.name(), "f16");
        assert_eq!(RerankMode::Adaptive.name(), "adaptive");
        assert_eq!(RerankMode::Fixed(RerankPrecision::F32).name(), "f32");
    }
}
