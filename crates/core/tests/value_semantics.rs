//! Value semantics of the configuration and workload types: they clone,
//! compare structurally, and are shared across worker threads.

use anna_core::{AnnaConfig, BatchWorkload, QueryWorkload, SearchShape};
use anna_vector::Metric;

fn shape() -> SearchShape {
    SearchShape {
        d: 128,
        m: 64,
        kstar: 256,
        metric: Metric::L2,
        num_clusters: 10_000,
        k: 1000,
    }
}

#[test]
fn config_is_cloneable_and_comparable() {
    let a = AnnaConfig::paper();
    let b = a.clone();
    assert_eq!(a, b);
    let c = AnnaConfig {
        n_u: 32,
        ..a.clone()
    };
    assert_ne!(a, c);
}

#[test]
fn workloads_compare_structurally() {
    let w1 = QueryWorkload {
        shape: shape(),
        visited_cluster_sizes: vec![1, 2, 3],
    };
    let w2 = w1.clone();
    assert_eq!(w1, w2);
    let b1 = BatchWorkload {
        shape: shape(),
        cluster_sizes: vec![10; 4],
        visits: vec![vec![0], vec![1, 2]],
    };
    assert_eq!(b1, b1.clone());
    assert_eq!(b1.b(), 2);
}

#[test]
fn send_sync_for_shared_state() {
    // C-SEND-SYNC: the types fleets of worker threads share.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AnnaConfig>();
    assert_send_sync::<BatchWorkload>();
    assert_send_sync::<anna_core::PHeap>();
    assert_send_sync::<anna_core::AreaPowerModel>();
}
