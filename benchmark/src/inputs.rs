//! Everything the benchmark generates from `--seed`: the dataset, exact
//! ground truth, the skewed row draw and the Poisson arrival trace. The
//! program under test only ever sees the generated data.

use anna_data::recall::{self, GroundTruth};
use anna_data::synth::{self, Character, DatasetSpec};
use anna_index::{IvfPqConfig, IvfPqIndex};
use anna_serve::Request;
use anna_vector::VectorSet;
use std::time::Instant;

/// Vector dimension.
pub const DIM: usize = 64;
/// PQ sub-vectors per code.
pub const M: usize = 16;
/// Query pool rows (every workload draws its requests from this pool).
pub const POOL: usize = 512;
/// Ground truth depth: recall is measured against the exact top-10.
pub const TRUTH_K: usize = 10;

/// Dataset and index scale. The full scale keeps ≈3 100 codes per
/// cluster (the paper's million-scale list length) while leaving room in
/// the driver's time budget to set up three times per run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Database vectors.
    pub n: usize,
    /// Rows the index is trained on; the rest go through `add`.
    pub train_n: usize,
    /// Coarse clusters.
    pub num_clusters: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        n: 100_000,
        train_n: 12_500,
        num_clusters: 32,
    };
    pub const SMOKE: Scale = Scale {
        n: 20_000,
        train_n: 2_500,
        num_clusters: 32,
    };
}

/// SplitMix64: the benchmark's own generator for everything that is not
/// the dataset itself (row draws, arrival gaps, per-request knobs).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// The generated inputs shared by every workload.
pub struct Inputs {
    /// Database vectors; row index == database id.
    pub db: VectorSet,
    /// The query pool.
    pub pool: VectorSet,
    /// Exact top-[`TRUTH_K`] per pool row.
    pub truth: GroundTruth,
    pub generate_s: f64,
    pub ground_truth_s: f64,
}

pub fn generate(seed: u64, scale: Scale) -> Inputs {
    let start = Instant::now();
    // The pool is the generated set's last rows, held out of the
    // database, rather than `Dataset::queries`: `synth` shifts database
    // and queries to non-negative by separately derived amounts, which
    // offsets the queries from the database by a seed-dependent distance
    // (recall10 ranged 0.65 to 0.99 over ten seeds).
    let dataset = synth::generate(&DatasetSpec {
        name: "benchmark".into(),
        dim: DIM,
        n: scale.n + POOL,
        num_queries: 1,
        character: Character::SiftLike,
        num_blobs: 2048,
        seed,
    });
    let metric = dataset.metric;
    let mut db = dataset.db.into_vec();
    let pool = VectorSet::from_vec(DIM, db.split_off(scale.n * DIM));
    let db = VectorSet::from_vec(DIM, db);
    let generate_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let truth = recall::ground_truth(&pool, &db, metric, TRUTH_K);
    let ground_truth_s = start.elapsed().as_secs_f64();
    Inputs {
        db,
        pool,
        truth,
        generate_s,
        ground_truth_s,
    }
}

/// The training split and the rows that arrive later through `add`,
/// materialised once so set-up repeats time only the program.
pub struct Split {
    pub train: VectorSet,
    pub rest: VectorSet,
}

pub fn split(inputs: &Inputs, scale: Scale) -> Split {
    let rows = |range: std::ops::Range<usize>| inputs.db.gather(&range.collect::<Vec<_>>());
    Split {
        train: rows(0..scale.train_n),
        rest: rows(scale.train_n..scale.n),
    }
}

/// One timed index set-up: train on the split's first rows, then take
/// the rest through the write path. Ids continue in row order, so
/// database id == row of `Inputs::db`.
pub struct BuiltIndex {
    pub index: IvfPqIndex,
    pub train_s: f64,
    pub add_s: f64,
}

pub fn build_index(split: &Split, scale: Scale, kstar: usize) -> BuiltIndex {
    let start = Instant::now();
    let mut index = IvfPqIndex::build(
        &split.train,
        &IvfPqConfig {
            num_clusters: scale.num_clusters,
            m: M,
            kstar,
            ..IvfPqConfig::default()
        },
    );
    let train_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    index.add(&split.rest);
    let add_s = start.elapsed().as_secs_f64();
    BuiltIndex {
        index,
        train_s,
        add_s,
    }
}

/// `count` pool rows with cubic skew: `floor(u³ · POOL)`, so low rows are
/// drawn far more often and the touched cluster set is uneven.
pub fn skewed_rows(rng: &mut SplitMix64, count: usize) -> Vec<usize> {
    (0..count)
        .map(|_| {
            let u = rng.next_f64();
            ((u * u * u) * POOL as f64) as usize
        })
        .collect()
}

/// Seeded open-loop arrival trace: exponential gaps at `rate_per_s`,
/// `k ∈ {10, 20, 50}`, `nprobe ∈ {4, 8, 16}`, rows uniform over the pool.
pub fn poisson_trace(
    rng: &mut SplitMix64,
    requests: usize,
    rate_per_s: f64,
    deadline_ns: u64,
) -> Vec<Request> {
    const KS: [usize; 3] = [10, 20, 50];
    const NPROBES: [usize; 3] = [4, 8, 16];
    let mut arrival_ns = 0u64;
    (0..requests)
        .map(|id| {
            let gap_s = -(1.0 - rng.next_f64()).ln() / rate_per_s;
            arrival_ns += (gap_s * 1e9) as u64;
            Request {
                id: id as u64,
                query_row: rng.below(POOL),
                k: KS[rng.below(KS.len())],
                nprobe: NPROBES[rng.below(NPROBES.len())],
                arrival_ns,
                deadline_ns,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        let trace = |seed| poisson_trace(&mut SplitMix64::new(seed), 64, 3000.0, 50_000_000);
        assert_eq!(trace(1), trace(1));
        assert_ne!(trace(1), trace(2));
        assert!(trace(1)
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns));

        let rows = skewed_rows(&mut SplitMix64::new(3), 4096);
        assert!(rows.iter().all(|&r| r < POOL));
        // Cubic skew: half the draws land in the first eighth of the pool.
        let low = rows.iter().filter(|&&r| r < POOL / 8).count();
        assert!((1800..2300).contains(&low), "{low}");
    }
}
