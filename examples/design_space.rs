//! Design-space exploration: sweep ANNA's design parameters (`N_u`,
//! `N_SCM`, memory bandwidth, SCM allocation) on a billion-scale workload
//! and see where the design moves between compute- and memory-bound —
//! "One should carefully set ANNA design parameters (e.g., N_u, N_cu,
//! N_scm) so that the system is not heavily bottlenecked by computations
//! or memory accesses" (Section IV-B).
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use anna::core::engine::analytic;
use anna::core::engine::cycle::{self, StallBreakdown};
use anna::core::{AnnaConfig, BatchWorkload, QueryWorkload, ScmAllocation, SearchShape};
use anna::data::ClusterSizeModel;
use anna::vector::Metric;

fn workload(batch: usize) -> BatchWorkload {
    let clusters = ClusterSizeModel::skewed(1_000_000_000, 10_000, 0.35, 9);
    BatchWorkload {
        shape: SearchShape {
            d: 128,
            m: 64,
            kstar: 256,
            metric: Metric::L2,
            num_clusters: 10_000,
            k: 1000,
        },
        cluster_sizes: clusters.sizes().to_vec(),
        visits: clusters.sample_query_visits(batch, 32, 9),
    }
}

fn row(label: &str, cfg: &AnnaConfig, w: &BatchWorkload, alloc: ScmAllocation) {
    let r = analytic::batch(cfg, w, alloc);
    println!(
        "{label:>28}: {:>10.0} QPS  ({})",
        r.qps(cfg),
        match r.bound() {
            anna::core::Bound::Memory => "memory-bound",
            anna::core::Bound::Compute => "compute-bound",
        }
    );
}

fn main() {
    let w = workload(512);
    let base = AnnaConfig::paper();
    println!("SIFT1B-class, 4:1, W=32, B=512\n");

    println!("-- reduction width N_u (paper: 64) --");
    for n_u in [8usize, 16, 32, 64, 128] {
        row(
            &format!("N_u = {n_u}"),
            &AnnaConfig {
                n_u,
                ..base.clone()
            },
            &w,
            ScmAllocation::Auto,
        );
    }

    println!("\n-- SCM count N_SCM (paper: 16) --");
    for n_scm in [4usize, 8, 16, 32] {
        row(
            &format!("N_SCM = {n_scm}"),
            &AnnaConfig {
                n_scm,
                ..base.clone()
            },
            &w,
            ScmAllocation::Auto,
        );
    }

    println!("\n-- memory bandwidth (paper: 64 GB/s) --");
    for bw in [16.0f64, 32.0, 64.0, 128.0, 256.0, 900.0] {
        row(
            &format!("{bw} GB/s"),
            &AnnaConfig {
                mem_bandwidth_gbps: bw,
                ..base.clone()
            },
            &w,
            ScmAllocation::Auto,
        );
    }

    println!("\n-- SCM allocation (inter- vs intra-query) --");
    for g in [1usize, 2, 4, 8, 16] {
        row(
            &format!("{g} SCMs per query"),
            &base,
            &w,
            ScmAllocation::IntraQuery { scm_per_query: g },
        );
    }
    row(
        "Auto (paper's B*W/|C| rule)",
        &base,
        &w,
        ScmAllocation::Auto,
    );

    // Where do single-query cycles actually go? The event-driven engine
    // attributes every scan-phase cycle from its scan windows.
    println!("\n-- stall attribution (single query, W=32) --");
    let q = QueryWorkload {
        shape: w.shape,
        visited_cluster_sizes: vec![100_000; 32],
    };
    for (label, cfg, g) in [
        ("paper (64 GB/s, 16 SCM)", base.clone(), 16usize),
        (
            "narrow tree (N_u=8, 1 SCM)",
            AnnaConfig {
                n_u: 8,
                ..base.clone()
            },
            1,
        ),
        (
            "fat memory (256 GB/s)",
            AnnaConfig {
                mem_bandwidth_gbps: 256.0,
                ..base.clone()
            },
            16,
        ),
    ] {
        let (r, rounds) = cycle::single_query_traced(&cfg, &q, g);
        let st = StallBreakdown::attribute(&r, &rounds);
        let scan = r.cycles - r.filter_cycles;
        println!(
            "{label:>26}: {:>9.0} cycles | scm busy {:>4.1}% | data stall {:>4.1}% | lut stall {:>4.1}% | mem util {:>4.1}%",
            r.cycles,
            100.0 * st.scm_busy / scan,
            100.0 * st.scm_wait_data / scan,
            100.0 * st.scm_wait_lut / scan,
            100.0 * st.mem_busy / r.cycles,
        );
    }
}
