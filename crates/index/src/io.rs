//! Index persistence: one dependency-free binary format, the *segment*.
//!
//! The format stores exactly the "trained model" triple the paper's host
//! ships to the accelerator (Section V-A: "a list of centroids, ii)
//! codebooks, and iii) encoded vectors"), so a model trained once can be
//! reloaded by later sessions or other tools.
//!
//! Everything the search keeps resident (centroids, codebooks, and a
//! per-cluster directory) is grouped at the front, and each cluster's
//! cold block (ids + packed codes) is individually addressable through
//! the directory, so a tiered reader can map the hot state once and fetch
//! blocks on demand (see [`crate::tiered`]). All integers are
//! little-endian:
//!
//! ```text
//! magic   8 B   "ANNAIDX\x02"
//! metric  1 B   0 = L2, 1 = inner product
//! dim     4 B   u32
//! |C|     4 B   u32
//! m       4 B   u32
//! k*      4 B   u32
//! centroids   |C|·dim f32
//! codebooks   m · k* · (dim/m) f32
//! directory   per cluster: len u64, block offset u64, block bytes u64
//! cold region per cluster: ids len·u64, packed codes len·bytes_per_vec
//! ```
//!
//! The magic's last byte is the format version; version 1 (a sequential
//! stream with codes interleaved into the hot state) is no longer read.
//! Directory offsets are relative to the cold-region start, and the
//! entries must tile the region contiguously in cluster order
//! (`offset_i = offset_{i-1} + bytes_{i-1}`) — the reader rejects
//! anything else, which is what makes an out-of-bounds or overlapping
//! offset detectable without knowing the file size.

use crate::ivf::{Cluster, IvfPqIndex};
use anna_quant::codes::{CodeWidth, PackedCodes};
use anna_quant::kmeans::KMeans;
use anna_quant::pq::PqCodebook;
use anna_vector::{Metric, VectorSet};
use std::io::{self, Read, Write};

const MAGIC: [u8; 8] = *b"ANNAIDX\x02";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn write_f32s<W: Write>(w: &mut W, vs: &[f32]) -> io::Result<()> {
    for &v in vs {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Chunk size for incremental reads: a corrupted header must fail with an
/// EOF error after at most one chunk of over-allocation, never by
/// attempting a giant up-front allocation.
const READ_CHUNK: usize = 1 << 16;

fn read_bytes_chunked<R: Read>(r: &mut R, n: usize) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(n.min(READ_CHUNK));
    let mut remaining = n;
    let mut chunk = [0u8; READ_CHUNK];
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK);
        r.read_exact(&mut chunk[..take])?;
        out.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    Ok(out)
}

fn read_f32s<R: Read>(r: &mut R, n: usize) -> io::Result<Vec<f32>> {
    let bytes = read_bytes_chunked(r, n.checked_mul(4).ok_or_else(|| bad("size overflow"))?)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Writes an index to `w` as a segment: hot state (centroids,
/// codebooks, per-cluster directory) up front, then each cluster's cold
/// block (ids + packed codes) at the directory's offsets. A mutable
/// reference can be passed for writers you want to keep using.
///
/// [`read_index`] reads it back whole; a tiered reader
/// ([`crate::tiered::TieredIndex`]) reads it lazily, keeping only the
/// hot state resident.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_segment<W: Write>(mut w: W, index: &IvfPqIndex) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&[match index.metric() {
        Metric::L2 => 0u8,
        Metric::InnerProduct => 1,
    }])?;
    write_u32(&mut w, index.dim() as u32)?;
    write_u32(&mut w, index.num_clusters() as u32)?;
    write_u32(&mut w, index.codebook().m() as u32)?;
    write_u32(&mut w, index.codebook().kstar() as u32)?;

    write_f32s(&mut w, index.centroids().as_slice())?;
    for j in 0..index.codebook().m() {
        write_f32s(&mut w, index.codebook().book(j).as_slice())?;
    }
    // Directory: blocks tile the cold region contiguously in cluster
    // order, so offsets are a running sum of block sizes.
    let mut offset = 0u64;
    for i in 0..index.num_clusters() {
        let cl = index.cluster(i);
        let bytes = cl.len() as u64 * 8 + cl.codes.bytes().len() as u64;
        write_u64(&mut w, cl.len() as u64)?;
        write_u64(&mut w, offset)?;
        write_u64(&mut w, bytes)?;
        offset += bytes;
    }
    for i in 0..index.num_clusters() {
        let cl = index.cluster(i);
        for &id in &cl.ids {
            write_u64(&mut w, id)?;
        }
        w.write_all(cl.codes.bytes())?;
    }
    Ok(())
}

/// One directory entry: where a cluster's cold block lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Vectors in the cluster (`|C_i|`).
    pub len: usize,
    /// Block offset relative to the cold-region start.
    pub offset: u64,
    /// Block size in bytes (`len·8` ids + `len·bytes_per_vec` codes).
    pub bytes: u64,
}

/// The resident half of a segment: everything a tiered reader keeps
/// in memory while cold code blocks stay on storage.
#[derive(Debug, Clone)]
pub struct SegmentHot {
    /// Similarity metric the index was built for.
    pub metric: Metric,
    /// Vector dimension `D`.
    pub dim: usize,
    /// Coarse centroids (the cluster-filter input).
    pub centroids: VectorSet,
    /// PQ codebooks (the LUT input).
    pub codebook: PqCodebook,
    /// Per-cluster block directory.
    pub directory: Vec<SegmentEntry>,
}

impl SegmentHot {
    /// The packed-code width implied by the codebook's `k*`.
    ///
    /// # Panics
    ///
    /// Never panics for a `SegmentHot` produced by [`read_segment_hot`]
    /// (the reader rejects unsupported `k*`).
    pub fn code_width(&self) -> CodeWidth {
        match self.codebook.kstar() {
            16 => CodeWidth::U4,
            256 => CodeWidth::U8,
            other => unreachable!("unsupported k* {other} survived validation"),
        }
    }

    /// Absolute byte offset of the cold region in the segment file
    /// (header + centroids + codebooks + directory).
    pub fn blocks_start(&self) -> u64 {
        let c = self.directory.len() as u64;
        let m = self.codebook.m() as u64;
        let kstar = self.codebook.kstar() as u64;
        let sub = (self.dim / self.codebook.m()) as u64;
        8 + 1 + 16 + c * self.dim as u64 * 4 + m * kstar * sub * 4 + c * 24
    }

    /// Cluster sizes `|C_i|` from the directory.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        self.directory.iter().map(|e| e.len).collect()
    }

    /// Parses cluster `i`'s cold block (as read from the segment at the
    /// directory's offset) into a [`Cluster`].
    ///
    /// # Errors
    ///
    /// Returns an error if `block` is not exactly the directory's size
    /// for cluster `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range of the directory.
    pub fn parse_block(&self, i: usize, block: &[u8]) -> io::Result<Cluster> {
        let entry = &self.directory[i];
        if block.len() as u64 != entry.bytes {
            return Err(bad(format!(
                "cluster {i}: block is {} bytes, directory says {}",
                block.len(),
                entry.bytes
            )));
        }
        let (id_bytes, code_bytes) = block.split_at(entry.len * 8);
        let ids: Vec<u64> = id_bytes
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .collect();
        Ok(Cluster {
            ids,
            codes: PackedCodes::from_bytes(
                self.codebook.m(),
                self.code_width(),
                entry.len,
                code_bytes.to_vec(),
            ),
        })
    }
}

/// Reads and validates the hot half of a segment, stopping at the
/// cold-region boundary. This is the tiered reader's entry point; pair
/// it with [`SegmentHot::parse_block`] for on-demand block loads.
///
/// # Errors
///
/// Returns an error on I/O failure, a bad magic or version, an
/// unsupported metric or `k*`, inconsistent header sizes, or a directory
/// whose entries do not tile the cold region contiguously (truncated
/// tables, out-of-place offsets, or block sizes disagreeing with
/// lengths).
pub fn read_segment_hot<R: Read>(mut r: R) -> io::Result<SegmentHot> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(bad("not an ANNA segment (bad magic or version)"));
    }
    let mut mb = [0u8; 1];
    r.read_exact(&mut mb)?;
    let metric = match mb[0] {
        0 => Metric::L2,
        1 => Metric::InnerProduct,
        other => return Err(bad(format!("unknown metric tag {other}"))),
    };
    let dim = read_u32(&mut r)? as usize;
    let c = read_u32(&mut r)? as usize;
    let m = read_u32(&mut r)? as usize;
    let kstar = read_u32(&mut r)? as usize;
    if dim == 0 || c == 0 || m == 0 || !dim.is_multiple_of(m) || dim > 1 << 16 || c > 1 << 28 {
        return Err(bad(format!("inconsistent header: dim={dim} |C|={c} m={m}")));
    }
    let width = match kstar {
        16 => CodeWidth::U4,
        256 => CodeWidth::U8,
        other => return Err(bad(format!("unsupported k* {other}"))),
    };
    let centroids = VectorSet::from_vec(dim, read_f32s(&mut r, c * dim)?);
    let sub = dim / m;
    let mut books = Vec::with_capacity(m);
    for _ in 0..m {
        books.push(VectorSet::from_vec(sub, read_f32s(&mut r, kstar * sub)?));
    }
    let codebook = PqCodebook::from_books(books);

    let vb = width.vector_bytes(m);
    let mut directory = Vec::with_capacity(c.min(READ_CHUNK));
    let mut expected_offset = 0u64;
    for i in 0..c {
        let len = read_u64(&mut r)? as usize;
        let offset = read_u64(&mut r)?;
        let bytes = read_u64(&mut r)?;
        let want = (len as u64)
            .checked_mul(8 + vb as u64)
            .ok_or_else(|| bad("cluster size overflow"))?;
        if bytes != want {
            return Err(bad(format!(
                "cluster {i}: directory bytes {bytes} disagree with len {len}"
            )));
        }
        if offset != expected_offset {
            return Err(bad(format!(
                "cluster {i}: block offset {offset} out of place (expected {expected_offset})"
            )));
        }
        expected_offset = expected_offset
            .checked_add(bytes)
            .ok_or_else(|| bad("segment size overflow"))?;
        directory.push(SegmentEntry { len, offset, bytes });
    }
    Ok(SegmentHot {
        metric,
        dim,
        centroids,
        codebook,
        directory,
    })
}

/// Reads a whole segment from `r` into memory (use
/// [`crate::tiered::TieredIndex`] to read one lazily). A mutable
/// reference can be passed for readers you want to keep using.
///
/// # Errors
///
/// Returns every error [`read_segment_hot`] does, an I/O error on a
/// truncated cold region, or an error on a vector id that appears in
/// more than one inverted list.
pub fn read_index<R: Read>(mut r: R) -> io::Result<IvfPqIndex> {
    let hot = read_segment_hot(&mut r)?;
    let mut clusters = Vec::with_capacity(hot.directory.len().min(READ_CHUNK));
    // The inverted lists must partition the id space: `TopK::merge`'s
    // order-independence — and with it the parallel engine's
    // bit-identical guarantee — assumes every candidate id is pushed at
    // most once across all clusters.
    let mut seen_ids = std::collections::HashSet::new();
    for i in 0..hot.directory.len() {
        let block = read_bytes_chunked(&mut r, hot.directory[i].bytes as usize)?;
        let cluster = hot.parse_block(i, &block)?;
        for &id in &cluster.ids {
            if !seen_ids.insert(id) {
                return Err(bad(format!(
                    "duplicate vector id {id}: inverted lists must be disjoint"
                )));
            }
        }
        clusters.push(cluster);
    }
    Ok(IvfPqIndex::from_parts(
        hot.metric,
        KMeans::from_centroids(hot.centroids),
        hot.codebook,
        clusters,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivf::IvfPqConfig;
    use crate::SearchParams;

    fn build(metric: Metric, kstar: usize) -> (VectorSet, IvfPqIndex) {
        let data = VectorSet::from_fn(8, 400, |r, c| ((r * 13 + c * 5) % 23) as f32);
        let index = IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                metric,
                num_clusters: 6,
                m: 4,
                kstar,
                ..IvfPqConfig::default()
            },
        );
        (data, index)
    }

    fn segment(index: &IvfPqIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        write_segment(&mut buf, index).unwrap();
        buf
    }

    #[test]
    fn roundtrip_preserves_search_results() {
        for metric in [Metric::L2, Metric::InnerProduct] {
            for kstar in [16usize, 256] {
                let (data, index) = build(metric, kstar);
                let back = read_index(&segment(&index)[..]).unwrap();
                assert_eq!(back.metric(), metric);
                assert_eq!(back.num_vectors(), index.num_vectors());
                let params = SearchParams {
                    nprobe: 3,
                    k: 5,
                    ..Default::default()
                };
                for row in [0usize, 99, 399] {
                    assert_eq!(
                        back.search(data.row(row), &params),
                        index.search(data.row(row), &params),
                        "{metric} k*={kstar} row {row}"
                    );
                }
            }
        }
    }

    #[test]
    fn loaded_codebooks_carry_an_in_sync_dim_major_copy() {
        // The distance-table kernel reads only the dimension-major copy,
        // so a reader that rebuilt the row-major books alone would build
        // wrong LUTs silently.
        for kstar in [16usize, 256] {
            let (_, index) = build(Metric::L2, kstar);
            let buf = segment(&index);
            let loaded = [
                read_index(&buf[..]).unwrap().codebook().clone(),
                read_segment_hot(&buf[..]).unwrap().codebook,
            ];
            for book in &loaded {
                assert_eq!(book, index.codebook());
                for i in 0..book.m() {
                    assert_eq!(
                        book.dim_major(i),
                        &anna_quant::DimMajor::new(book.book(i)),
                        "k*={kstar} table {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn roundtrip_is_byte_stable() {
        let (_, index) = build(Metric::L2, 16);
        let a = segment(&index);
        assert_eq!(a[..8], *b"ANNAIDX\x02");
        let b = segment(&read_index(&a[..]).unwrap());
        assert_eq!(a, b, "serialization not canonical");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let (_, index) = build(Metric::L2, 16);
        let mut buf = segment(&index);
        buf[0] ^= 0xFF;
        assert!(read_index(&buf[..]).is_err());
        // The retired version-1 stream's magic is no longer read.
        buf[..8].copy_from_slice(b"ANNAIDX\x01");
        assert!(read_index(&buf[..]).is_err());
        assert!(read_segment_hot(&buf[..]).is_err());
    }

    #[test]
    fn truncation_is_rejected() {
        let (_, index) = build(Metric::L2, 16);
        let mut buf = segment(&index);
        buf.truncate(buf.len() / 2);
        assert!(read_index(&buf[..]).is_err());
    }

    /// Absolute byte offsets of every stored id in `buf`, per cluster,
    /// from the segment's directory and cold-region start.
    fn id_slots(buf: &[u8]) -> Vec<Vec<usize>> {
        let hot = read_segment_hot(buf).unwrap();
        let start = hot.blocks_start() as usize;
        hot.directory
            .iter()
            .map(|e| {
                (0..e.len)
                    .map(|s| start + e.offset as usize + s * 8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn duplicate_id_across_clusters_rejected() {
        let (_, index) = build(Metric::L2, 16);
        let mut buf = segment(&index);
        // Overwrite the second id of the first cluster holding at least
        // two with a copy of an id from a *later* cluster — an otherwise
        // well-formed file whose inverted lists are not disjoint.
        let slots = id_slots(&buf);
        let i = slots
            .iter()
            .position(|s| s.len() >= 2)
            .expect("some cluster has >= 2 ids");
        let donor = slots[i + 1..]
            .iter()
            .find_map(|s| s.first().copied())
            .expect("some later cluster is non-empty");
        let (slot, id) = (slots[i][1], buf[donor..donor + 8].to_vec());
        buf[slot..slot + 8].copy_from_slice(&id);

        let err = read_index(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("duplicate vector id"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn duplicate_id_within_one_cluster_rejected() {
        let (_, index) = build(Metric::L2, 16);
        let mut buf = segment(&index);
        // Duplicate the first id of the first cluster with >= 2 ids into
        // its second slot.
        let slots = id_slots(&buf);
        let s = slots
            .iter()
            .find(|s| s.len() >= 2)
            .expect("some cluster has >= 2 ids");
        let first = buf[s[0]..s[0] + 8].to_vec();
        buf[s[1]..s[1] + 8].copy_from_slice(&first);
        let err = read_index(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unsupported_kstar_in_header_rejected() {
        let (_, index) = build(Metric::L2, 16);
        let mut buf = segment(&index);
        // Patch the k* field (offset: 8 magic + 1 metric + 4 + 4 + 4).
        let off = 8 + 1 + 12;
        buf[off..off + 4].copy_from_slice(&32u32.to_le_bytes());
        assert!(read_index(&buf[..]).is_err());
    }
}
