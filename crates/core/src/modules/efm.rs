//! Encoded Vector Fetch Module (Section III-B(2)).
//!
//! Fetches a selected cluster's metadata and packed codes from main
//! memory, unpacks the sub-byte identifiers with its shifter hardware, and
//! stages them in the (double-buffered) encoded vector buffer. Clusters
//! larger than the buffer are streamed in buffer-sized portions.

use anna_index::ivf::Cluster;

/// EFM activity counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EfmStats {
    /// Clusters fetched.
    pub clusters_fetched: u64,
    /// Code bytes read from memory.
    pub code_bytes: u64,
    /// Metadata bytes read (one 64 B line per cluster).
    pub meta_bytes: u64,
    /// Identifiers unpacked.
    pub identifiers_unpacked: u64,
    /// Buffer-sized segments streamed (1 for clusters that fit).
    pub segments: u64,
}

/// The EFM: fetch, unpack and buffer encoded vectors.
#[derive(Debug, Clone)]
pub struct Efm {
    buffer_bytes: usize,
    stats: EfmStats,
}

impl Efm {
    /// Creates an EFM with the given encoded-vector buffer capacity.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_bytes == 0`.
    pub fn new(buffer_bytes: usize) -> Self {
        assert!(buffer_bytes > 0, "EFM buffer must be non-empty");
        Self {
            buffer_bytes,
            stats: EfmStats::default(),
        }
    }

    /// Activity so far.
    pub fn stats(&self) -> EfmStats {
        self.stats
    }

    /// Fetches a cluster: accounts the metadata line and code bytes, and
    /// returns the unpacked identifier rows segment by segment (the
    /// double-buffer streaming of Section III-B: "a contiguous portion of
    /// the cluster's data is first fetched, and the next contiguous
    /// portion ... while the current buffer is utilized").
    ///
    /// Each segment is a `(start_vector, rows)` pair where `rows` holds
    /// the unpacked `M`-identifier rows.
    pub fn fetch(&mut self, cluster: &Cluster) -> Vec<(usize, Vec<Vec<u8>>)> {
        self.stats.clusters_fetched += 1;
        self.stats.meta_bytes += 64;
        self.stats.code_bytes += cluster.encoded_bytes();

        let bytes_per_vec = cluster.codes.vector_bytes().max(1);
        let vecs_per_segment = (self.buffer_bytes / bytes_per_vec).max(1);
        let mut segments = Vec::new();
        let mut start = 0;
        while start < cluster.len() {
            let end = (start + vecs_per_segment).min(cluster.len());
            let mut rows = Vec::with_capacity(end - start);
            for v in start..end {
                let mut row = vec![0u8; cluster.codes.m()];
                cluster.codes.read_into(v, &mut row);
                self.stats.identifiers_unpacked += row.len() as u64;
                rows.push(row);
            }
            segments.push((start, rows));
            self.stats.segments += 1;
            start = end;
        }
        segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anna_quant::codes::{CodeWidth, PackedCodes};

    fn cluster(n: usize, m: usize) -> Cluster {
        let mut codes = PackedCodes::new(m, CodeWidth::U4);
        for i in 0..n {
            let row: Vec<u8> = (0..m).map(|j| ((i + j) % 16) as u8).collect();
            codes.push(&row);
        }
        Cluster {
            ids: (0..n as u64).collect(),
            codes,
        }
    }

    #[test]
    fn small_cluster_is_one_segment() {
        let mut efm = Efm::new(1 << 20);
        let cl = cluster(100, 8);
        let segs = efm.fetch(&cl);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].1.len(), 100);
        assert_eq!(efm.stats().segments, 1);
        assert_eq!(efm.stats().code_bytes, 100 * 4); // 8 nibbles = 4 B
        assert_eq!(efm.stats().meta_bytes, 64);
    }

    #[test]
    fn oversized_cluster_streams_in_portions() {
        // Buffer fits 16 vectors of 4 bytes.
        let mut efm = Efm::new(64);
        let cl = cluster(50, 8);
        let segs = efm.fetch(&cl);
        assert_eq!(segs.len(), 4); // 16+16+16+2
        assert_eq!(segs[3].0, 48);
        assert_eq!(segs[3].1.len(), 2);
        assert_eq!(efm.stats().segments, 4);
    }

    #[test]
    fn unpacked_rows_match_direct_reads() {
        let mut efm = Efm::new(1 << 10);
        let cl = cluster(20, 6);
        let segs = efm.fetch(&cl);
        for (start, rows) in segs {
            for (off, row) in rows.iter().enumerate() {
                assert_eq!(row, &cl.codes.get(start + off));
            }
        }
        assert_eq!(efm.stats().identifiers_unpacked, 20 * 6);
    }
}
