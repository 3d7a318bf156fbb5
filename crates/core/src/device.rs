//! A functional device emulator: ANNA executing the host protocol against
//! a byte-accurate DRAM image.
//!
//! [`Device`] runs the *same* datapath and schedule as
//! [`crate::accel::Anna`] — this module holds no search loop — over a
//! different `Store`: the host DMA-writes centroids (as 2-byte floats),
//! cluster metadata lines and packed codes into device memory at the
//! addresses planned by [`crate::host::MemoryLayout`]; a search then
//! *reads everything back out of those bytes* — metadata line → code
//! base/size → code bytes → unpack → scan — spills and fills partial top-k
//! state as 5-byte records in the spill region, and deposits 5-byte result
//! records (3 B id + 2 B score, Section IV-B) in the result region for the
//! host to read.
//!
//! This catches a class of bugs the direct path cannot: wrong addresses,
//! overlapping regions, mis-sized records, or id overflow of the 3-byte
//! record format.

use std::borrow::Cow;
use std::collections::HashMap;

use anna_index::ivf::Cluster;
use anna_index::IvfPqIndex;
use anna_plan::ScmAllocation;
use anna_quant::codes::{CodeWidth, PackedCodes};
use anna_quant::pq::PqCodebook;
use anna_telemetry::Telemetry;
use anna_vector::{Metric, Neighbor, VectorSet, F16};

use crate::accel::{self, Store};
use crate::config::{AnnaConfig, ValidateConfigError};
use crate::host::{MemoryLayout, LINE_BYTES};
use crate::timing::TimingReport;

/// Byte-addressable device DRAM.
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    bytes: Vec<u8>,
}

impl DeviceMemory {
    /// Allocates `size` bytes of zeroed memory.
    pub fn new(size: u64) -> Self {
        Self {
            bytes: vec![0u8; size as usize],
        }
    }

    /// Size in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Writes `data` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the write exceeds the memory size.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let a = addr as usize;
        self.bytes[a..a + data.len()].copy_from_slice(data);
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the read exceeds the memory size.
    pub fn read(&self, addr: u64, len: usize) -> &[u8] {
        let a = addr as usize;
        &self.bytes[a..a + len]
    }

    fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read(addr, 8).try_into().expect("8 bytes"))
    }
}

/// The emulated device: DRAM image + on-chip state.
#[derive(Debug)]
pub struct Device {
    cfg: AnnaConfig,
    mem: DeviceMemory,
    layout: MemoryLayout,
    /// On-chip codebook SRAM contents (loaded by the host).
    codebook: PqCodebook,
    metric: Metric,
    /// Queries the layout's per-query spill and result slots were planned
    /// for, and visits (`max_batch · w`) its query-list region holds.
    max_batch: usize,
    max_visits: usize,
}

impl Device {
    /// Maximum id representable in a 3-byte result record.
    pub const MAX_RECORD_ID: u64 = (1 << 24) - 1;

    /// Boots a device, plans the memory layout for `index` and batches of
    /// up to `max_batch` queries visiting up to `w` clusters each, and
    /// performs the host's model upload (centroids as f16, metadata lines,
    /// packed codes, codebook → SRAM).
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or any database id
    /// exceeds the 3-byte record range (the record format would silently
    /// corrupt results otherwise).
    pub fn boot(
        cfg: AnnaConfig,
        index: &IvfPqIndex,
        max_batch: usize,
        w: usize,
    ) -> Result<Self, ValidateConfigError> {
        cfg.validate()?;
        let kstar = index.codebook().kstar();
        if kstar != 16 && kstar != 256 {
            return Err(ValidateConfigError::unsupported_kstar(kstar));
        }
        for c in 0..index.num_clusters() {
            if index
                .cluster(c)
                .ids
                .iter()
                .any(|&id| id > Self::MAX_RECORD_ID)
            {
                return Err(ValidateConfigError::id_overflow());
            }
        }

        let layout = MemoryLayout::plan(&cfg, index, max_batch, w);
        let mut mem = DeviceMemory::new(layout.results.end());

        // Centroids, 2-byte elements, row-major.
        let mut addr = layout.centroids.base;
        for row in index.centroids().iter() {
            for &v in row {
                mem.write(addr, &F16::from_f32(v).to_bits().to_le_bytes());
                addr += 2;
            }
        }

        // Cluster metadata: one 64 B line per cluster, holding the code
        // base address (8 B) and vector count (8 B).
        for (i, m) in layout.meta.iter().enumerate() {
            let line = layout.cluster_meta.base + LINE_BYTES * i as u64;
            mem.write(line, &m.code_base.to_le_bytes());
            mem.write(line + 8, &m.num_vectors.to_le_bytes());
        }

        // Packed codes. Cluster ids live in the deployment's id-table
        // region, which the emulator does not duplicate in DRAM: searches
        // take the index by reference for them (see `Dram::cluster`).
        for (i, m) in layout.meta.iter().enumerate() {
            mem.write(m.code_base, index.cluster(i).codes.bytes());
        }

        Ok(Self {
            cfg,
            mem,
            layout,
            codebook: index.codebook().clone(),
            metric: index.metric(),
            max_batch,
            max_visits: max_batch * w,
        })
    }

    /// The planned layout (for host-side inspection).
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// Direct access to the DRAM image (tests poke it to emulate
    /// corruption).
    pub fn memory_mut(&mut self) -> &mut DeviceMemory {
        &mut self.mem
    }

    /// Opens the DRAM image as the datapath's [`Store`] for one search of
    /// `batch` queries × `w` clusters, decoding the centroid table the way
    /// the CPM streams it (f16 → f32).
    ///
    /// # Panics
    ///
    /// Panics if the search exceeds the booted layout: its per-query spill
    /// and result slots, or its query lists, would alias other regions.
    fn open<'a>(&'a mut self, index: &'a IvfPqIndex, batch: usize, w: usize) -> Dram<'a> {
        assert!(
            batch <= self.max_batch && batch * w <= self.max_visits,
            "{batch} queries x W={w} exceeds the booted layout ({} queries, {} visits)",
            self.max_batch,
            self.max_visits
        );
        let centroids = self.layout.centroids;
        let table = self.mem.read(centroids.base, centroids.bytes as usize);
        let decoded: Vec<f32> = table
            .chunks_exact(2)
            .map(|b| F16::from_bits(u16::from_le_bytes([b[0], b[1]])).to_f32())
            .collect();
        Dram {
            cfg: &self.cfg,
            mem: &mut self.mem,
            layout: &self.layout,
            codebook: &self.codebook,
            metric: self.metric,
            index,
            centroids: VectorSet::from_vec(self.codebook.dim(), decoded),
            spilled_len: HashMap::new(),
        }
    }

    /// Runs one query through the device: filter on f16 centroids read
    /// from DRAM, scan codes read from DRAM with all `N_SCM` SCMs, write
    /// 5-byte records into the result region, and return the host-decoded
    /// records.
    ///
    /// `index` supplies each cluster's id list (the deployment's id-table
    /// region, passed by reference to avoid duplicating it in the emulated
    /// DRAM).
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != dim`, `k` exceeds the configured top-k, or
    /// `w` exceeds the booted layout's query-list capacity.
    pub fn search(&mut self, q: &[f32], w: usize, k: usize, index: &IvfPqIndex) -> Vec<Neighbor> {
        let mut store = self.open(index, 1, w);
        accel::search_one(store.cfg, &mut store, q, w, k).0
    }

    /// Runs a batch under the memory-traffic-optimized, cluster-major
    /// schedule, with intermediate top-k state spilled to and filled from
    /// the DRAM spill region as real 5-byte records (Section IV-A's
    /// "intermediate top-k results need to be stored in memory").
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch, `k` is out of range, or the batch
    /// (its queries, or its `B · w` visits) exceeds the booted layout's
    /// capacity.
    pub fn search_batch(
        &mut self,
        queries: &VectorSet,
        w: usize,
        k: usize,
        alloc: ScmAllocation,
        index: &IvfPqIndex,
    ) -> Vec<Vec<Neighbor>> {
        self.search_batch_traced(queries, w, k, alloc, index, &Telemetry::disabled())
            .0
    }

    /// [`Device::search_batch`] returning the run's [`TimingReport`] too,
    /// with the stage spans and module counters of
    /// [`Anna::search_batch_traced`](crate::accel::Anna::search_batch_traced)
    /// recorded into `tel`.
    ///
    /// # Panics
    ///
    /// As [`Device::search_batch`].
    pub fn search_batch_traced(
        &mut self,
        queries: &VectorSet,
        w: usize,
        k: usize,
        alloc: ScmAllocation,
        index: &IvfPqIndex,
        tel: &Telemetry,
    ) -> (Vec<Vec<Neighbor>>, TimingReport) {
        let mut store = self.open(index, queries.len(), w);
        accel::search_batch(store.cfg, &mut store, queries, w, k, alloc, tel)
    }
}

/// The DRAM image as the datapath's [`Store`]: every access goes through
/// the layout's addresses and the record format.
struct Dram<'a> {
    cfg: &'a AnnaConfig,
    mem: &'a mut DeviceMemory,
    layout: &'a MemoryLayout,
    codebook: &'a PqCodebook,
    metric: Metric,
    /// The deployment's id tables.
    index: &'a IvfPqIndex,
    centroids: VectorSet,
    /// Records currently held by each (query, partition) spill slot.
    spilled_len: HashMap<(usize, usize), usize>,
}

impl Dram<'_> {
    fn write_records(&mut self, base: u64, records: &[Neighbor]) {
        let rec = self.cfg.topk_record_bytes as u64;
        for (i, n) in records.iter().enumerate() {
            let addr = base + i as u64 * rec;
            self.mem.write(addr, &n.id.to_le_bytes()[..3]);
            self.mem
                .write(addr + 3, &F16::from_f32(n.score).to_bits().to_le_bytes());
        }
    }

    fn read_records(&self, base: u64, len: usize) -> Vec<Neighbor> {
        let rec = self.cfg.topk_record_bytes as u64;
        (0..len as u64)
            .map(|i| {
                let b = self.mem.read(base + i * rec, 5);
                let id = u64::from(b[0]) | u64::from(b[1]) << 8 | u64::from(b[2]) << 16;
                let score = F16::from_bits(u16::from_le_bytes([b[3], b[4]])).to_f32();
                Neighbor::new(id, score)
            })
            .collect()
    }

    /// Bytes of one record set sized for the configured top-k — the stride
    /// of both the spill slots and the result slots.
    fn slot_bytes(&self) -> u64 {
        (self.cfg.topk * self.cfg.topk_record_bytes) as u64
    }

    /// Spill-slot base address for (query, partition): each query owns
    /// `N_SCM` record sets in the spill region.
    fn spill_slot(&self, query: usize, part: usize) -> u64 {
        self.layout.topk_spill.base + (query * self.cfg.n_scm + part) as u64 * self.slot_bytes()
    }
}

impl Store for Dram<'_> {
    fn metric(&self) -> Metric {
        self.metric
    }

    fn codebook(&self) -> &PqCodebook {
        self.codebook
    }

    fn centroids(&self) -> &VectorSet {
        &self.centroids
    }

    fn cluster_sizes(&self) -> Vec<usize> {
        let lines = self.layout.cluster_meta.base;
        (0..self.centroids.len() as u64)
            .map(|i| self.mem.read_u64(lines + LINE_BYTES * i + 8) as usize)
            .collect()
    }

    fn cluster(&self, cid: usize) -> Cow<'_, Cluster> {
        let line = self.layout.cluster_meta.base + LINE_BYTES * cid as u64;
        let code_base = self.mem.read_u64(line);
        let n = self.mem.read_u64(line + 8) as usize;
        let ids = &self.index.cluster(cid).ids;
        assert_eq!(n, ids.len(), "metadata count diverged from id table");
        let book = self.codebook;
        let width = if book.kstar() <= 16 {
            CodeWidth::U4
        } else {
            CodeWidth::U8
        };
        let bytes = self.mem.read(code_base, n * width.vector_bytes(book.m()));
        Cow::Owned(Cluster {
            ids: ids.clone(),
            codes: PackedCodes::from_bytes(book.m(), width, n, bytes.to_vec()),
        })
    }

    fn spill(&mut self, query: usize, part: usize, records: Vec<Neighbor>) {
        self.write_records(self.spill_slot(query, part), &records);
        self.spilled_len.insert((query, part), records.len());
    }

    fn fill(&mut self, query: usize, part: usize) -> Vec<Neighbor> {
        let len = self
            .spilled_len
            .remove(&(query, part))
            .expect("fill of a slot that was never spilled");
        self.read_records(self.spill_slot(query, part), len)
    }

    fn store_result(&mut self, query: usize, records: Vec<Neighbor>) -> Vec<Neighbor> {
        let base = self.layout.results.base + query as u64 * self.slot_bytes();
        self.write_records(base, &records);
        self.read_records(base, records.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::Anna;
    use anna_index::IvfPqConfig;
    use anna_vector::f16;

    fn setup(metric: Metric) -> (VectorSet, IvfPqIndex) {
        let data = VectorSet::from_fn(8, 600, |r, c| {
            let x = (r as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(c as u64 * 31);
            ((x >> 20) % 97) as f32 * 0.5
        });
        let index = IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                metric,
                num_clusters: 8,
                m: 4,
                kstar: 16,
                ..IvfPqConfig::default()
            },
        );
        (data, index)
    }

    /// The same index with its centroids rounded to f16, so the device's
    /// 2-byte centroid image loses nothing and both stores hold the very
    /// same model.
    fn f16_centroids(index: &IvfPqIndex) -> IvfPqIndex {
        use anna_quant::kmeans::KMeans;
        let c = index.centroids();
        let mut rounded = c.as_slice().to_vec();
        f16::round_trip_slice(&mut rounded);
        IvfPqIndex::from_parts(
            index.metric(),
            KMeans::from_centroids(VectorSet::from_vec(c.dim(), rounded)),
            index.codebook().clone(),
            (0..index.num_clusters())
                .map(|i| index.cluster(i).clone())
                .collect(),
        )
    }

    #[test]
    fn device_matches_direct_accelerator() {
        // One datapath over two stores: with a model both formats hold
        // exactly, the DRAM image and the host structures must give the
        // same ids *and* scores.
        for metric in [Metric::L2, Metric::InnerProduct] {
            let (data, index) = setup(metric);
            let index = f16_centroids(&index);
            let mut dev = Device::boot(AnnaConfig::paper(), &index, 8, 4).unwrap();
            let anna = Anna::new(AnnaConfig::paper(), &index).unwrap();
            for row in [1usize, 100, 599] {
                let via_mem = dev.search(data.row(row), 4, 6, &index);
                let (direct, _) = anna.search(data.row(row), 4, 6);
                assert_eq!(via_mem, direct, "{metric} row {row}");
            }
        }
    }

    #[test]
    fn results_round_trip_through_record_format() {
        let (data, index) = setup(Metric::L2);
        let mut dev = Device::boot(AnnaConfig::paper(), &index, 8, 4).unwrap();
        let res = dev.search(data.row(0), 4, 5, &index);
        assert_eq!(res.len(), 5);
        for n in &res {
            assert!(n.id <= Device::MAX_RECORD_ID);
            // Scores must be exactly f16-representable (they came back out
            // of the 2-byte record).
            assert_eq!(n.score, f16::round_trip(n.score));
        }
    }

    #[test]
    fn corrupting_code_memory_changes_results() {
        // The search genuinely reads DRAM: flipping code bytes must be
        // visible (scores change or order shifts).
        let (data, index) = setup(Metric::L2);
        let cfg = AnnaConfig::paper();
        let mut clean = Device::boot(cfg.clone(), &index, 8, 4).unwrap();
        let baseline = clean.search(data.row(7), 8, 10, &index);

        let mut dirty = Device::boot(cfg, &index, 8, 4).unwrap();
        let base = dirty.layout().codes.base;
        let len = dirty.layout().codes.bytes as usize;
        for off in (0..len).step_by(3) {
            let addr = base + off as u64;
            let b = dirty.memory_mut().read(addr, 1)[0] ^ 0xFF;
            dirty.memory_mut().write(addr, &[b]);
        }
        let corrupted = dirty.search(data.row(7), 8, 10, &index);
        assert_ne!(
            baseline, corrupted,
            "corrupted codes did not affect the search"
        );
    }

    #[test]
    fn batched_device_search_matches_accelerator() {
        use anna_plan::ScmAllocation;
        for metric in [Metric::L2, Metric::InnerProduct] {
            let (data, index) = setup(metric);
            let index = f16_centroids(&index);
            let cfg = AnnaConfig::paper();
            let mut dev = Device::boot(cfg.clone(), &index, 16, 4).unwrap();
            let anna = Anna::new(cfg, &index).unwrap();
            let queries = data.gather(&(0..16).map(|i| i * 37 % 600).collect::<Vec<_>>());
            for alloc in [
                ScmAllocation::InterQuery,
                ScmAllocation::IntraQuery { scm_per_query: 4 },
                ScmAllocation::Auto,
            ] {
                let (dev_tel, anna_tel) = (Telemetry::enabled(), Telemetry::enabled());
                let via_mem = dev.search_batch_traced(&queries, 4, 6, alloc, &index, &dev_tel);
                let direct = anna.search_batch_traced(&queries, 4, 6, alloc, &anna_tel);
                assert_eq!(via_mem, direct, "{metric} {alloc:?}");
                // Same schedule, same module activity, byte for byte.
                for name in ["efm.code_bytes", "pheap.spill_bytes", "scm.vectors_scored"] {
                    let get = |t: &Telemetry| t.registry().unwrap().counter(name).get();
                    assert_eq!(get(&dev_tel), get(&anna_tel), "{metric} {alloc:?} {name}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the booted layout")]
    fn batch_beyond_the_booted_layout_is_rejected() {
        use anna_plan::ScmAllocation;
        let (data, index) = setup(Metric::L2);
        let mut dev = Device::boot(AnnaConfig::paper(), &index, 4, 4).unwrap();
        let queries = data.gather(&[0, 1, 2, 3, 4]);
        let _ = dev.search_batch(&queries, 4, 6, ScmAllocation::InterQuery, &index);
    }

    #[test]
    fn batched_device_spills_real_records() {
        use anna_plan::ScmAllocation;
        let (data, index) = setup(Metric::InnerProduct);
        let cfg = AnnaConfig::paper();
        let mut dev = Device::boot(cfg, &index, 16, 6).unwrap();
        let queries = data.gather(&(0..12).collect::<Vec<_>>());
        let res = dev.search_batch(&queries, 6, 5, ScmAllocation::Auto, &index);
        assert_eq!(res.len(), 12);
        // The spill region must contain non-zero record bytes after a
        // multi-round run.
        let base = dev.layout().topk_spill.base;
        let some = dev.memory_mut().read(base, 64);
        assert!(some.iter().any(|&b| b != 0), "spill region never written");
        for r in &res {
            assert_eq!(r.len(), 5);
        }
    }

    #[test]
    fn boot_rejects_oversized_ids() {
        use anna_index::ivf::Cluster;
        use anna_quant::codes::{CodeWidth, PackedCodes};
        use anna_quant::kmeans::KMeans;
        // Hand-build an index whose id exceeds 2^24 - 1.
        let (_, index) = setup(Metric::L2);
        let mut codes = PackedCodes::new(4, CodeWidth::U4);
        codes.push(&[0, 0, 0, 0]);
        let mut clusters: Vec<Cluster> = (0..index.num_clusters())
            .map(|i| index.cluster(i).clone())
            .collect();
        clusters[0] = Cluster {
            ids: vec![1 << 24],
            codes,
        };
        let bad = IvfPqIndex::from_parts(
            Metric::L2,
            KMeans::from_centroids(index.centroids().clone()),
            index.codebook().clone(),
            clusters,
        );
        assert!(Device::boot(AnnaConfig::paper(), &bad, 4, 2).is_err());
    }
}
