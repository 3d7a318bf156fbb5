//! Robustness tests for the index binary reader: arbitrary corruption must
//! produce an error, never a panic or a bogus index (seeded `anna-testkit`
//! harness; failures report a replayable seed).

use anna_index::{io, IvfPqConfig, IvfPqIndex};
use anna_testkit::forall;
use anna_vector::{Metric, VectorSet};

fn small_index() -> IvfPqIndex {
    let data = VectorSet::from_fn(8, 200, |r, c| ((r * 13 + c * 5) % 23) as f32);
    IvfPqIndex::build(
        &data,
        &IvfPqConfig {
            metric: Metric::L2,
            num_clusters: 4,
            m: 4,
            kstar: 16,
            coarse_iters: 3,
            pq_iters: 2,
            ..IvfPqConfig::default()
        },
    )
}

fn serialized_segment() -> Vec<u8> {
    let mut buf = Vec::new();
    io::write_segment(&mut buf, &small_index()).unwrap();
    buf
}

/// Byte offset of the v2 per-cluster directory (header + centroids +
/// codebooks for the [`small_index`] shape: dim 8, |C| 4, m 4, k* 16).
fn v2_directory_offset() -> usize {
    let (dim, c, m, kstar) = (8usize, 4usize, 4usize, 16usize);
    8 + 1 + 16 + c * dim * 4 + m * kstar * (dim / m) * 4
}

/// Crafted duplicate-id files — otherwise perfectly well-formed — must be
/// rejected with `InvalidData`: duplicated candidate ids break the
/// "pushed at most once" precondition `TopK::merge` determinism rests on.
#[test]
fn crafted_duplicate_id_file_rejected() {
    let pristine = serialized_segment();
    // The byte offset of every stored id, from the segment's directory
    // and cold-region start.
    let hot = io::read_segment_hot(&pristine[..]).unwrap();
    let start = hot.blocks_start() as usize;
    let id_slots: Vec<usize> = hot
        .directory
        .iter()
        .flat_map(|e| (0..e.len).map(move |s| start + e.offset as usize + s * 8))
        .collect();
    assert!(id_slots.len() >= 2, "index too small to craft duplicates");

    forall("crafted duplicate ids rejected", 48, |rng| {
        let mut buf = pristine.clone();
        let src = *rng.pick(&id_slots);
        let dst = *rng.pick(&id_slots);
        if src == dst {
            return; // no-op: copying a slot onto itself leaves ids disjoint
        }
        let id: [u8; 8] = buf[src..src + 8].try_into().unwrap();
        buf[dst..dst + 8].copy_from_slice(&id);
        let err = io::read_index(&buf[..]).expect_err("duplicate ids accepted");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    });
}

/// Truncating a v2 segment anywhere — including mid-directory — yields an
/// error, never a panic. Cuts inside the offset table are the interesting
/// region: the reader must notice the table is short, not index past it.
#[test]
fn v2_truncation_never_panics() {
    let buf = serialized_segment();
    let dir = v2_directory_offset();
    forall("v2 truncation never panics", 64, |rng| {
        // Half the cases target the directory region specifically.
        let cut = if rng.bool() {
            rng.usize(dir..dir + 4 * 24)
        } else {
            ((buf.len() as f64) * rng.unit_f64()) as usize
        };
        let slice = &buf[..cut.min(buf.len())];
        let result = std::panic::catch_unwind(|| io::read_index(slice));
        let inner = result.expect("v2 reader panicked on truncated input");
        if slice.len() < buf.len() {
            assert!(
                inner.is_err(),
                "truncated v2 read at {}/{} succeeded",
                slice.len(),
                buf.len()
            );
        }
        // The hot-only reader must behave the same way.
        let hot = std::panic::catch_unwind(|| io::read_segment_hot(slice))
            .expect("read_segment_hot panicked on truncated input");
        if slice.len() < dir + 4 * 24 {
            assert!(
                hot.is_err(),
                "truncated hot read at {} succeeded",
                slice.len()
            );
        }
    });
}

/// Corrupting a directory entry's offset field breaks the contiguity rule
/// (every block must start where the previous one ended), so the reader
/// must reject it — this is what makes out-of-bounds cluster offsets
/// unrepresentable.
#[test]
fn v2_out_of_place_offsets_rejected() {
    let pristine = serialized_segment();
    let dir = v2_directory_offset();
    forall("v2 bad offsets rejected", 48, |rng| {
        let entry = rng.usize(0..4);
        // Field 1 of the 24 B entry is the offset.
        let slot = dir + entry * 24 + 8;
        let mut buf = pristine.clone();
        let old = u64::from_le_bytes(buf[slot..slot + 8].try_into().unwrap());
        let new = rng.u64(0..1 << 48);
        if new == old {
            return;
        }
        buf[slot..slot + 8].copy_from_slice(&new.to_le_bytes());
        let err = io::read_index(&buf[..]).expect_err("out-of-place offset accepted");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let err = io::read_segment_hot(&buf[..]).expect_err("hot reader accepted it");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    });
}

/// Arbitrary single-byte corruption of a v2 segment never panics the
/// reader.
#[test]
fn v2_corruption_never_panics() {
    let pristine = serialized_segment();
    forall("v2 corruption never panics", 64, |rng| {
        let offset = rng.usize(0..pristine.len());
        let mut buf = pristine.clone();
        buf[offset] = rng.below(256) as u8;
        let result = std::panic::catch_unwind(move || {
            let _ = io::read_index(&buf[..]);
            let _ = io::read_segment_hot(&buf[..]);
        });
        assert!(
            result.is_ok(),
            "v2 reader panicked on corrupt byte {offset}"
        );
    });
}
