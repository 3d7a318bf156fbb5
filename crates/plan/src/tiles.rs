//! Crossbar work-tiling for the cluster-major schedule.
//!
//! ANNA assigns work to its 16 similarity-computation modules (SCMs)
//! through a crossbar: the cluster-major schedule is cut into
//! *(cluster, query-group)* tiles, and each tile is routed to an SCM group
//! (Section IV-A). [`crossbar_tiles`] is the single implementation of that
//! cut — [`plan()`](crate::plan()) turns the tiles into timed
//! [`Round`](crate::Round)s, and the software batch engine executes the
//! same tiles on its worker pool, so every backend agrees on work
//! placement by construction.

/// One unit of batch work: one query group scored against one cluster —
/// the software mirror of a crossbar grant to an SCM group (and of one
/// timed [`Round`](crate::Round) in a [`BatchPlan`](crate::BatchPlan)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTile {
    /// Cluster whose codes this tile scans.
    pub cluster: usize,
    /// Queries scored in this tile (ascending, `≤ queries_per_tile`).
    pub queries: Vec<usize>,
    /// Whether this is the first tile of its cluster — the one that pays
    /// the code fetch (later tiles of the same cluster reuse the buffer).
    pub fetches_codes: bool,
}

/// Cuts per-cluster visitor lists into cluster-major [`ClusterTile`]s.
///
/// `visiting[c]` lists the queries visiting cluster `c` (the inverted
/// "array of arrays" of Section IV-A, as produced by
/// [`BatchWorkload::visitors_per_cluster`](crate::BatchWorkload::visitors_per_cluster)).
/// Clusters with no visitors produce no tiles. `queries_per_tile` bounds
/// the query group per tile — the accelerator uses `N_SCM / g`; `0` means
/// unbounded (one tile per visited cluster, which is what the software
/// engine wants since a thread scores its whole query group anyway).
pub fn crossbar_tiles(visiting: &[Vec<usize>], queries_per_tile: usize) -> Vec<ClusterTile> {
    let cap = if queries_per_tile == 0 {
        usize::MAX
    } else {
        queries_per_tile
    };
    let mut tiles = Vec::new();
    for (cluster, qs) in visiting.iter().enumerate() {
        if qs.is_empty() {
            continue;
        }
        for (chunk_idx, chunk) in qs.chunks(cap).enumerate() {
            tiles.push(ClusterTile {
                cluster,
                queries: chunk.to_vec(),
                fetches_codes: chunk_idx == 0,
            });
        }
    }
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_skip_empty_clusters_and_split_large_ones() {
        let visiting = vec![vec![0, 1, 2, 3, 4], vec![], vec![7]];
        let tiles = crossbar_tiles(&visiting, 2);
        assert_eq!(tiles.len(), 4);
        assert_eq!(tiles[0].queries, vec![0, 1]);
        assert!(tiles[0].fetches_codes);
        assert_eq!(tiles[1].queries, vec![2, 3]);
        assert!(!tiles[1].fetches_codes);
        assert_eq!(tiles[2].queries, vec![4]);
        assert!(!tiles[2].fetches_codes);
        assert_eq!(tiles[3].cluster, 2);
        assert!(tiles[3].fetches_codes);
    }

    #[test]
    fn zero_group_bound_means_one_tile_per_cluster() {
        let visiting = vec![vec![0; 1000], vec![1]];
        let tiles = crossbar_tiles(&visiting, 0);
        assert_eq!(tiles.len(), 2);
        assert_eq!(tiles[0].queries.len(), 1000);
    }

    #[test]
    fn tiles_partition_every_visit_exactly_once() {
        let visiting = vec![vec![0, 2, 4], vec![1, 3], vec![], vec![0, 1, 2, 3, 4, 5]];
        for cap in [0, 1, 2, 3, 7] {
            let tiles = crossbar_tiles(&visiting, cap);
            let mut seen: Vec<(usize, usize)> = tiles
                .iter()
                .flat_map(|t| t.queries.iter().map(move |&q| (t.cluster, q)))
                .collect();
            seen.sort_unstable();
            let mut expect: Vec<(usize, usize)> = visiting
                .iter()
                .enumerate()
                .flat_map(|(c, qs)| qs.iter().map(move |&q| (c, q)))
                .collect();
            expect.sort_unstable();
            assert_eq!(seen, expect, "cap {cap}");
        }
    }

    #[test]
    fn exactly_one_fetch_per_visited_cluster() {
        let visiting = vec![vec![0; 17], vec![], vec![1; 5], vec![2]];
        let tiles = crossbar_tiles(&visiting, 4);
        for cluster in [0, 2, 3] {
            let fetches = tiles
                .iter()
                .filter(|t| t.cluster == cluster && t.fetches_codes)
                .count();
            assert_eq!(fetches, 1, "cluster {cluster}");
        }
    }
}
