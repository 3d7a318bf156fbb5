//! ADC scan kernels: score every encoded vector of a cluster against the
//! LUTs of the queries visiting it and feed each query's top-k selector.
//!
//! # Architecture: dispatch → kernel → group → block score → select
//!
//! The scan is a five-layer subsystem behind one loop,
//! [`scan_group_with`] ([`scan_with`] is its one-visitor case):
//!
//! 1. **Runtime ISA dispatch** ([`KernelDispatch`]) — selected once per
//!    process from the host's CPU features (or `ANNA_FORCE_SCALAR`); it
//!    looks at no codes and no tables.
//! 2. **Kernel** — `Kernel::select` maps the dispatch, the codes' width
//!    and row bytes and the table size onto one kernel, in one place: the
//!    seed scalar loops (`scalar`, the reference); the unrolled four-row
//!    `blocked` kernel; the register-resident LUT16 kernels for `k* = 16`
//!    (`avx512`: one ZMM register per table, 64 codes per iteration, 4-
//!    and 8-byte rows; `avx2`: two YMM halves, 32, every other width); and
//!    the `avx512` gather kernel for `k* = 256` (one `vgatherdps` per
//!    sixteen lookups, rows of at least four bytes).
//! 3. **Visitor groups** — a cluster's visitors are scanned in groups of
//!    the kernel's size: up to four for the `avx512` LUT16 kernel, which
//!    loads each chunk of rows, de-interleaves it and shifts out its nibble
//!    indices once for the whole group, then looks every index up in each
//!    query's register-resident table into that query's own accumulators —
//!    the software form of ANNA's crossbar handing one fetched cluster
//!    block to the SCM of every query in the group (PAPER §III-B, §IV).
//!    Every other kernel takes the visitors one at a time.
//! 4. **Block scoring** — a cluster is walked in blocks of [`TILE`]
//!    vectors, each scored by one `score_block` call into a `Sink` per
//!    query: a tile of every score (what [`score_all`] reads) or, in a
//!    scan, a **survivors sink** — the finished sums are compared with the
//!    query's [`TopK::threshold`] (in registers for the SIMD kernels:
//!    `vcmpps GE_OQ` into a mask) and only the passing vectors are kept, as
//!    `(position, score)` pairs in ascending position in that query's
//!    buffer. ANNA's SCM never materialises a score either — each sum
//!    leaves the adder tree, meets the P-heap minimum, and only winners
//!    enter the heap (PAPER §III-B(4)). Whatever rows a kernel leaves are
//!    finished by one shared row loop (`score_row`). The hot loop is
//!    allocation-free.
//! 5. **Threshold-pruned selection** — every kernel but the seed scan ends
//!    in a survivors sink, and one loop re-tests each kept lane against the
//!    live threshold, in the same ascending order, one query of the group
//!    after another before the next block is scored: only scores passing
//!    `score >= top.threshold()` are offered to [`TopK::push`] (almost
//!    every score in a warm scan loses to the selector's floor, a `k`-th
//!    best as of its last settle). The filter is exact, not approximate:
//!    the threshold is a lower bound on the true `k`-th best score, so
//!    nothing that belongs in the top-k fails it; candidates *at* the
//!    threshold are still offered (the equal-score/lower-id tie-break can
//!    rank them above the floor); and NaN fails the comparison — ordered
//!    in the SIMD compare, `false` in the scalar one — just as
//!    [`TopK::push`] rejects it.
//!
//! # Why a frozen threshold is exact
//!
//! The survivors sink compares each query's sums against a copy of that
//! query's threshold taken when the tile starts, while pushes from that
//! same tile can settle the selector and raise the live one. That is sound
//! because the threshold only ever rises and never passes the true `k`-th
//! best: `frozen <= live <= k-th best` at every moment, so `score >= live`
//! implies `score >= frozen` — every candidate a per-score test against
//! the live threshold would offer is among the kept lanes, and the few
//! extra lanes that passed only the stale copy are dropped by the re-test.
//! (`push` would reject them anyway; the re-test saves that call and keeps
//! [`ScanTally::pruned`] meaning the same thing on every dispatch.) Offers
//! therefore reach the selector in the same order, against the same live
//! threshold, as in a scan that tested every score as it was made.
//!
//! The same holds per query within a group. A group's selectors are
//! distinct (`&mut [TopK]`), so each is raised only by its own offers; its
//! frozen copy is taken at the start of each tile, after its offers from
//! the previous tile; and its offers of a tile are made in ascending
//! position before the next tile is scored. Whether the other members of
//! the group were scored in the same pass changes none of the three, so
//! each selector sees exactly the offers, order and threshold sequence of
//! a [`scan_with`] of its own, and keeps the same top-k and tally.
//!
//! # The summation-order invariant
//!
//! Every dispatch path computes each vector's score with the **identical
//! f32 addition sequence**: table entries accumulated in subquantizer
//! order `i = 0..M` into one accumulator per vector, bias added last.
//! SIMD kernels are vertical (one vector per lane) and blocked kernels
//! give each in-flight vector its own accumulator, so no path reassociates
//! a sum. Scores are therefore bit-identical across dispatches — and the
//! parallel engine's serial-equals-parallel determinism guarantee survives
//! kernel selection.
//!
//! The invariant reaches back through **LUT construction** too. The table
//! entries being summed come from the distance-table kernel
//! ([`anna_quant::dist_table`]), which is vertical in the same sense: one
//! codeword per lane, each lane running exactly
//! [`metric::l2_squared`](anna_vector::metric::l2_squared)'s /
//! [`metric::dot`](anna_vector::metric::dot)'s addition sequence (four
//! strided accumulators over chunks of 4 dimensions, `((a0 + a1) + a2) +
//! a3`, then the tail, no FMA). Every entry is the scalar function's value
//! bit for bit, so a score is the same f32 from query to heap whichever
//! way either stage was vectorised.
//!
//! The two code widths mirror the paper's CPU story: `k* = 16`
//! (Faiss16/ScaNN16) is fast because the 16-entry LUT fits vector
//! registers; `k* = 256` (Faiss256) cannot, which is why the paper finds
//! it slow on CPUs (§II-C/§II-D). The `avx512` gather kernel narrows that
//! gap but does not close it: the 1 KiB tables still live in cache, not in
//! a register, and a gather issues one load per lane, so the `k* = 256`
//! scan stays bound by the core's load ports — the work ANNA's SCM does
//! from its own lookup-table SRAM.

mod blocked;
pub mod dispatch;
mod scalar;

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2;
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx512;

pub use dispatch::KernelDispatch;

use crate::lut::Lut;
use anna_quant::codes::{CodeWidth, PackedCodes};
use anna_vector::TopK;

/// Vectors scored per block: large enough to amortize the selection pass
/// and keep the SIMD main loop busy, small enough that the score tile
/// stays L1-resident.
pub const TILE: usize = 256;

/// Most visitors of one cluster a kernel call scores together. The AVX-512
/// LUT16 kernel holds one chunk's rows in registers and runs every query of
/// the group over them, so the group is sized by the 32 ZMM registers:
/// four accumulators (64 lanes) per query is 16 for four queries, plus 8
/// for the de-interleaved dwords of sixteen 8-byte rows in each of the
/// four lane groups, leaves 8 for the shifted nibble indices, the tables
/// and the permute results. A fifth query would spill accumulators.
pub(crate) const GROUP: usize = 4;

/// Lanes a survivors sink may write past the last survivor: the AVX-512
/// sink stores each sixteen-lane group full width at the survivor count
/// instead of branching on how many passed, so a survivors buffer for a
/// `count`-vector block holds `count + SINK_SLACK` slots.
const SINK_SLACK: usize = 16;

/// Slots per survivors buffer: a whole tile plus the sink's slack.
const SURVIVOR_SLOTS: usize = TILE + SINK_SLACK;

/// Reusable scratch for the scan: one survivors buffer (positions and
/// scores) per member of a visitor group. Thread one instance through a
/// scan loop (per worker, per search) and the hot path performs zero
/// allocations after warm-up.
#[derive(Debug, Default, Clone)]
pub struct ScanScratch {
    scores: Vec<f32>,
    positions: Vec<u32>,
}

impl ScanScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows (never shrinks) the survivors buffers and hands out one
    /// [`Sink::Survivors`] per threshold, member `g`'s in slot `g`, each
    /// [`SURVIVOR_SLOTS`] long.
    fn survivor_sinks(&mut self, thresholds: [f32; GROUP]) -> [Sink<'_>; GROUP] {
        let need = GROUP * SURVIVOR_SLOTS;
        if self.scores.len() < need {
            self.scores.resize(need, 0.0);
        }
        if self.positions.len() < need {
            self.positions.resize(need, 0);
        }
        let mut slots = self
            .positions
            .chunks_exact_mut(SURVIVOR_SLOTS)
            .zip(self.scores.chunks_exact_mut(SURVIVOR_SLOTS));
        std::array::from_fn(|g| {
            let (positions, scores) = slots.next().expect("a slot per group member");
            Sink::Survivors {
                threshold: thresholds[g],
                positions,
                scores,
            }
        })
    }

    /// The first `kept` `(positions, scores)` of member `g`'s survivors
    /// slot, as the last [`Self::survivor_sinks`] filled it.
    fn survivors(&self, g: usize, kept: usize) -> (&[u32], &[f32]) {
        let at = g * SURVIVOR_SLOTS;
        (&self.positions[at..at + kept], &self.scores[at..at + kept])
    }
}

/// Work counters returned by a scan. Feeds the `kernel.codes_scanned` /
/// `kernel.pruned` telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanTally {
    /// Encoded vectors scored, once per visitor (a grouped scan of `n`
    /// codes for `q` visitors scores `q · n`).
    pub scanned: u64,
    /// `scanned` minus the candidates actually offered to [`TopK::push`],
    /// on every dispatch: a score counts as pruned exactly when it was
    /// below the selector's threshold *at the moment it would have been
    /// offered*. The survivors sink compares against a threshold frozen
    /// per tile, but the lanes it keeps are re-checked against the live
    /// one before the push, so the frozen copy never shows here — from the
    /// same starting `TopK`, `Blocked`, `Avx2` and `Avx512` report the same
    /// number (and `Scalar`, which pushes every score, reports 0).
    /// The live threshold is the selector's floor, which lags the true
    /// `k`-th best between settles, so fewer scores prune than an always
    /// exact threshold would allow (at the benchmark's shape, `pruned /
    /// scanned` ≈ 0.964 where a heap's exact threshold gave ≈ 0.974).
    /// Schedule-dependent (the threshold tightens as the scan proceeds),
    /// so this is a telemetry quantity, not a determinism-checked one.
    pub pruned: u64,
}

impl ScanTally {
    /// Adds another tally into this one.
    pub fn accumulate(&mut self, other: &ScanTally) {
        self.scanned += other.scanned;
        self.pruned += other.pruned;
    }
}

/// The code that scores a scan's blocks, chosen once per scan by
/// [`Kernel::select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// The seed scan (`scalar`): every score pushed, no block scored. A
    /// tile under it ([`score_all`]) comes from the row loop alone.
    Scalar,
    /// The four-row blocked kernel (`blocked`), both widths.
    Blocked,
    /// The AVX2 LUT16 kernel (`avx2`): nibble codes against 16-entry
    /// tables, 32 per iteration, rows of at most eight dwords.
    Avx2Lut16,
    /// The AVX-512 LUT16 kernel (`avx512`) over rows of `nd` whole dwords,
    /// up to [`GROUP`] tables per pass over the rows.
    Avx512Lut16 { nd: usize },
    /// The AVX-512 gather kernel (`avx512`): byte codes in rows of four
    /// bytes or more against 256-entry tables.
    Avx512Gather,
}

impl Kernel {
    /// The kernel `dispatch` runs on `codes` against `kstar`-entry tables:
    /// the whole dispatch × code width × row bytes × table size matrix.
    fn select(dispatch: KernelDispatch, codes: &PackedCodes, kstar: usize) -> Kernel {
        use KernelDispatch as D;
        let vb = codes.vector_bytes();
        match (dispatch, codes.width()) {
            (D::Scalar, _) => Kernel::Scalar,
            (D::Avx512, CodeWidth::U4) if vb == 4 || vb == 8 => Kernel::Avx512Lut16 { nd: vb / 4 },
            (D::Avx2 | D::Avx512, CodeWidth::U4) => Kernel::Avx2Lut16,
            (D::Avx512, CodeWidth::U8) if vb >= 4 && kstar == 256 => Kernel::Avx512Gather,
            (D::Blocked, _) | (D::Avx2 | D::Avx512, CodeWidth::U8) => Kernel::Blocked,
        }
    }

    /// How many visitors of one cluster this kernel scores per call:
    /// [`GROUP`] for the AVX-512 LUT16 kernel, one for every other.
    fn group(self) -> usize {
        match self {
            Kernel::Avx512Lut16 { .. } => GROUP,
            _ => 1,
        }
    }

    /// Whether some dispatch selects this kernel for `codes` and a
    /// `kstar`-entry table — the row shape and table size its code assumes.
    fn fits(self, codes: &PackedCodes, kstar: usize) -> bool {
        use KernelDispatch as D;
        [D::Scalar, D::Blocked, D::Avx2, D::Avx512]
            .into_iter()
            .any(|dispatch| Kernel::select(dispatch, codes, kstar) == self)
    }
}

/// How many visitors of a cluster of `codes` a round loop hands
/// [`scan_group_with`] at once under `dispatch`, for `kstar`-entry tables.
pub(crate) fn group_size(dispatch: KernelDispatch, codes: &PackedCodes, kstar: usize) -> usize {
    Kernel::select(dispatch, codes, kstar).group()
}

/// Scans packed codes against `lut`, pushing `(ids[i], score)` into `top`.
///
/// Convenience wrapper over [`scan_with`] using the process-wide
/// [`KernelDispatch::current`] and a local scratch; production loops that
/// scan many clusters should hold a [`ScanScratch`] and call
/// [`scan_with`] to keep the hot path allocation-free.
///
/// # Panics
///
/// Panics if `ids.len() != codes.len()` or the LUT shape does not match
/// the codes.
pub fn scan(codes: &PackedCodes, ids: &[u64], lut: &Lut, top: &mut TopK) -> ScanTally {
    let mut scratch = ScanScratch::new();
    scan_with(
        codes,
        ids,
        lut,
        top,
        KernelDispatch::current(),
        &mut scratch,
    )
}

/// Scans packed codes under an explicit dispatch with caller-owned
/// scratch — the one-visitor case of [`scan_group_with`].
///
/// # Panics
///
/// Panics if `ids.len() != codes.len()`, the LUT table count does not
/// match the codes, or u4 codes meet a non-16-entry LUT.
pub fn scan_with(
    codes: &PackedCodes,
    ids: &[u64],
    lut: &Lut,
    top: &mut TopK,
    dispatch: KernelDispatch,
    scratch: &mut ScanScratch,
) -> ScanTally {
    scan_group_with(
        codes,
        ids,
        std::slice::from_ref(lut),
        std::slice::from_mut(top),
        dispatch,
        scratch,
    )
}

/// Scans one cluster's packed codes for several visitors — query `q`
/// against `luts[q]` into `tops[q]` — under an explicit dispatch with
/// caller-owned scratch: the production entry point, and the only scan
/// loop.
///
/// [`KernelDispatch::Scalar`] runs the seed path (per-score heap push)
/// one visitor at a time. Under every other dispatch, the kernel the
/// dispatch selects for the codes scores a block into one survivors sink
/// per visitor, and only the kept lanes that still pass the live threshold
/// are offered. Where the AVX-512 LUT16 kernel runs (nibble codes in 4- or
/// 8-byte rows), up to four visitors share each block: one pass over the
/// rows feeds every query's tables, and each query's survivors are offered
/// to its own selector before the next block freezes thresholds. Every
/// other kernel scans the visitors one after another. Either way each
/// selector meets the same offers in the same order as a [`scan_with`] of
/// its own, so every `top` and the returned tally (summed over the
/// visitors) are bit-identical to that on every dispatch (see the module
/// docs).
///
/// # Panics
///
/// Panics if `ids.len() != codes.len()`, `luts` and `tops` differ in
/// length, a LUT's table count does not match the codes, or u4 codes meet
/// a non-16-entry LUT.
pub fn scan_group_with(
    codes: &PackedCodes,
    ids: &[u64],
    luts: &[Lut],
    tops: &mut [TopK],
    dispatch: KernelDispatch,
    scratch: &mut ScanScratch,
) -> ScanTally {
    assert_eq!(ids.len(), codes.len(), "id/code count mismatch");
    assert_eq!(luts.len(), tops.len(), "one LUT per selector");
    for lut in luts {
        assert_eq!(codes.m(), lut.m(), "LUT table count mismatch");
    }
    let n = codes.len();
    let scanned = (n * tops.len()) as u64;
    // The narrowest table decides: the gather kernel needs every table of
    // the group whole.
    let Some(kstar) = luts.iter().map(Lut::kstar).min() else {
        return ScanTally::default();
    };
    let kernel = Kernel::select(dispatch, codes, kstar);

    if kernel == Kernel::Scalar {
        for (lut, top) in luts.iter().zip(tops) {
            match codes.width() {
                CodeWidth::U8 => scalar::scan_u8(codes, ids, lut, top),
                CodeWidth::U4 => scalar::scan_u4(codes, ids, lut, top),
            }
        }
        return ScanTally { scanned, pruned: 0 };
    }

    let vb = codes.vector_bytes();
    let group = kernel.group();
    // Candidates handed to `TopK::push`.
    let mut offered = 0u64;
    for (luts, tops) in luts.chunks(group).zip(tops.chunks_mut(group)) {
        let mut start = 0;
        while start < n {
            let count = (n - start).min(TILE);
            // Overlap the next block's DRAM fetch with this block's
            // scoring: the scan streams each cluster exactly once, so the
            // hardware prefetcher restarts cold at every cluster boundary —
            // a software hint per upcoming tile keeps the scan
            // bandwidth-shaped instead of latency-bound (the EFM's job in
            // hardware, Section III-B).
            let next = start + count;
            if next < n {
                prefetch_read(codes.bytes(), next * vb, (n - next).min(TILE) * vb);
            }
            let ids = &ids[start..next];
            // The kernel filters against copies of the thresholds frozen
            // for this tile. A live one only rises, so its frozen copy
            // admits a superset of what can still enter; each kept lane is
            // re-checked before it pays the push. `>=` (not `>`) keeps the
            // equal-score/lower-id tie-break exact.
            let thresholds =
                std::array::from_fn(|g| tops.get(g).map_or(f32::INFINITY, TopK::threshold));
            let kept = {
                let mut sinks = scratch.survivor_sinks(thresholds);
                score_block(kernel, codes, start, count, luts, &mut sinks[..luts.len()])
            };
            for (g, top) in tops.iter_mut().enumerate() {
                let (positions, scores) = scratch.survivors(g, kept[g]);
                for (&j, &score) in positions.iter().zip(scores) {
                    if score >= top.threshold() {
                        offered += 1;
                        top.push(ids[j as usize], score);
                    }
                }
            }
            start = next;
        }
    }
    ScanTally {
        scanned,
        pruned: scanned - offered,
    }
}

/// Issues a read prefetch hint for `bytes[offset..offset + len]`, one
/// cache line at a time. A no-op on non-x86 targets; never reads past the
/// slice (the range is clamped), and a prefetch has no architectural
/// effect, so this cannot perturb results.
#[inline]
#[allow(unused_variables)]
fn prefetch_read(bytes: &[u8], offset: usize, len: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let end = bytes.len().min(offset.saturating_add(len));
        let mut p = offset;
        while p < end {
            // SAFETY: `p < end <= bytes.len()`, so the pointer is inside
            // the slice; prefetch needs no CPU feature beyond SSE (x86_64
            // baseline) and performs no memory access architecturally.
            unsafe { _mm_prefetch(bytes.as_ptr().add(p).cast::<i8>(), _MM_HINT_T0) };
            p += 64;
        }
    }
}

/// Where a kernel puts the scores of a block.
enum Sink<'a> {
    /// Every score, at its vector's position in the block.
    Tile(&'a mut [f32]),
    /// Only the vectors with `score >= threshold`, as parallel
    /// `(position in the block, score)` arrays in ascending position. NaN
    /// scores never pass (the comparison is ordered). Both slices must
    /// hold at least the block's vector count plus [`SINK_SLACK`]; what
    /// lies past the survivors afterwards is junk.
    Survivors {
        threshold: f32,
        positions: &'a mut [u32],
        scores: &'a mut [f32],
    },
}

impl Sink<'_> {
    /// `(threshold to keep from, scores out, positions out)`: the scores
    /// slice is the tile, or the survivors' scores beside `positions`; a
    /// tile keeps everything and has no positions.
    fn parts(&mut self) -> (Option<f32>, &mut [f32], &mut [u32]) {
        match self {
            Sink::Tile(out) => (None, out, &mut []),
            Sink::Survivors {
                threshold,
                positions,
                scores,
            } => (Some(*threshold), scores, positions),
        }
    }

    /// Hands the sink the score of block position `j`, with `written`
    /// scores already in it; returns how many it holds afterwards. Scalar
    /// kernels put their scores one at a time, in ascending position.
    fn put(&mut self, written: usize, j: usize, score: f32) -> usize {
        match self.parts() {
            (None, out, _) => out[j] = score,
            (Some(threshold), scores, positions) if score >= threshold => {
                positions[written] = j as u32;
                scores[written] = score;
            }
            (Some(_), ..) => return written,
        }
        written + 1
    }
}

/// The row loop: vector `v`'s score, its identifiers looked up in
/// subquantizer order at the table's own stride and the bias added last —
/// the seed scan's scorer, and the finish of whatever rows a kernel
/// leaves. A nibble row is read a byte at a time, low nibble (the even
/// subquantizer, as [`PackedCodes`] packs them) first.
#[inline]
fn score_row(codes: &PackedCodes, lut: &Lut, v: usize) -> f32 {
    let (m, vb, kstar) = (codes.m(), codes.vector_bytes(), lut.kstar());
    let (entries, row) = (lut.entries(), &codes.bytes()[v * vb..(v + 1) * vb]);
    let mut sum = 0.0f32;
    match codes.width() {
        CodeWidth::U8 => {
            for (i, &c) in row.iter().enumerate() {
                sum += entries[i * kstar + c as usize];
            }
        }
        CodeWidth::U4 => {
            for (b, &byte) in row.iter().take(m / 2).enumerate() {
                sum += entries[2 * b * kstar + (byte & 0x0F) as usize];
                sum += entries[(2 * b + 1) * kstar + (byte >> 4) as usize];
            }
            if m % 2 == 1 {
                sum += entries[(m - 1) * kstar + (row[m / 2] & 0x0F) as usize];
            }
        }
    }
    sum + lut.bias()
}

/// Scores vectors `[start, start + count)` against each of `luts` with
/// `kernel` into the sink beside it; returns how many scores each sink
/// received (`count` for [`Sink::Tile`], the survivor count for
/// [`Sink::Survivors`]), in `luts` order.
///
/// Whatever rows a kernel leaves — the blocked kernel's last `count % 4`,
/// the AVX2 kernel's past its last whole 32-vector chunk (all of them for
/// rows wider than it keeps per lane), and every row under
/// [`Kernel::Scalar`] and, off x86, the SIMD kernels — are finished by
/// [`score_row`] in ascending position.
///
/// # Panics
///
/// Panics if `luts` is empty, longer than [`GROUP`] or not as long as
/// `sinks`, `kernel` does not fit the codes and a LUT ([`Kernel::fits`]),
/// the host lacks the ISA a SIMD kernel needs, u4 codes meet a
/// non-16-entry LUT under any kernel but [`Kernel::Scalar`] (the row loop
/// reads each table at its own stride), a LUT has fewer tables than the
/// codes have subquantizers, the range exceeds `codes.len()`, a tile is
/// shorter than `count` or a survivors slice shorter than
/// `count + SINK_SLACK`.
fn score_block(
    kernel: Kernel,
    codes: &PackedCodes,
    start: usize,
    count: usize,
    luts: &[Lut],
    sinks: &mut [Sink<'_>],
) -> [usize; GROUP] {
    let (m, width, vb) = (codes.m(), codes.width(), codes.vector_bytes());
    let group = luts.len();
    assert!(
        (1..=GROUP).contains(&group) && sinks.len() == group,
        "{group} LUTs for {} sinks",
        sinks.len()
    );
    for lut in luts {
        let kstar = lut.kstar();
        assert!(
            kernel.fits(codes, kstar),
            "{kernel:?} cannot score {width:?} codes, m = {m}, k* = {kstar}"
        );
        if width == CodeWidth::U4 && kernel != Kernel::Scalar {
            assert_eq!(kstar, 16, "u4 kernel requires a 16-entry LUT");
        }
        assert!(m * kstar <= lut.entries().len());
    }
    let bytes = codes.bytes();
    assert!((start + count) * vb <= bytes.len());
    assert!(16 * vb <= i32::MAX as usize, "row offsets must fit an i32");
    for sink in sinks.iter() {
        match sink {
            Sink::Tile(out) => assert!(count <= out.len()),
            Sink::Survivors {
                positions, scores, ..
            } => assert!(
                count + SINK_SLACK <= positions.len().min(scores.len()),
                "survivors buffers need {SINK_SLACK} slots of slack"
            ),
        }
    }

    let mut written = [0; GROUP];
    // Every kernel but the AVX-512 LUT16 one runs once per table.
    let done = match kernel {
        Kernel::Scalar => 0,
        Kernel::Blocked => {
            let mut done = count;
            for ((lut, sink), written) in luts.iter().zip(sinks.iter_mut()).zip(&mut written) {
                (done, *written) = blocked::score_block(codes, start, count, lut, sink);
            }
            done
        }
        // Off x86 there is no SIMD kernel: the row loop scores the block.
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        _ => 0,
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        _ => {
            let isa_detected = match kernel {
                Kernel::Avx2Lut16 => dispatch::avx2_supported(),
                _ => dispatch::avx512_supported(),
            };
            assert!(isa_detected, "SIMD kernel on a host without its ISA");
            /// The grouped LUT16 kernel over rows of `$nd` dwords for the
            /// `$q` tables of the group.
            macro_rules! lut16 {
                ($nd:literal, $q:literal) => {{
                    let sinks: &mut [Sink<'_>; $q] = sinks.try_into().expect("one sink per LUT");
                    let kept = avx512::lut16_kernel::<$nd, $q>(
                        m,
                        bytes,
                        start,
                        count,
                        std::array::from_fn(|q| luts[q].entries()),
                        std::array::from_fn(|q| luts[q].bias()),
                        sinks,
                    );
                    written[..$q].copy_from_slice(&kept);
                    count
                }};
            }
            // SAFETY: `isa_detected` (asserted just above) is the feature
            // set of whichever kernel the match calls (`avx512_supported`
            // covers the `popcnt` of the AVX-512 sinks). `kernel.fits`
            // (asserted for every LUT at the top) is the shape each kernel
            // assumes: for the gather kernel, byte codes with `m >= 4`
            // against 256-entry tables, so every byte code indexes inside
            // its table; for the AVX-512 LUT16 kernel, nibble rows of
            // `vb = 4 * nd` bytes, with `nd` the arm taken, and 16-entry
            // tables (the u4 assert); the group's length is the `$q` of its
            // arm. The range, table-count, row-offset and sink-length
            // asserts at the top of this function are the kernels' other
            // preconditions.
            unsafe {
                match (kernel, group) {
                    (Kernel::Avx512Lut16 { nd: 1 }, 1) => lut16!(1, 1),
                    (Kernel::Avx512Lut16 { nd: 1 }, 2) => lut16!(1, 2),
                    (Kernel::Avx512Lut16 { nd: 1 }, 3) => lut16!(1, 3),
                    (Kernel::Avx512Lut16 { nd: 1 }, 4) => lut16!(1, 4),
                    (Kernel::Avx512Lut16 { nd: 2 }, 1) => lut16!(2, 1),
                    (Kernel::Avx512Lut16 { nd: 2 }, 2) => lut16!(2, 2),
                    (Kernel::Avx512Lut16 { nd: 2 }, 3) => lut16!(2, 3),
                    (Kernel::Avx512Lut16 { nd: 2 }, 4) => lut16!(2, 4),
                    (Kernel::Avx2Lut16 | Kernel::Avx512Gather, _) => {
                        let mut done = count;
                        for ((lut, sink), written) in luts.iter().zip(&mut *sinks).zip(&mut written)
                        {
                            let (entries, bias) = (lut.entries(), lut.bias());
                            (done, *written) = if kernel == Kernel::Avx2Lut16 {
                                avx2::lut16_kernel(m, vb, bytes, start, count, entries, bias, sink)
                            } else {
                                avx512::gather_kernel(m, bytes, start, count, entries, bias, sink)
                            };
                        }
                        done
                    }
                    _ => unreachable!("{kernel:?} for a group of {group}"),
                }
            }
        }
    };

    for ((lut, sink), written) in luts.iter().zip(sinks.iter_mut()).zip(&mut written) {
        for j in done..count {
            *written = sink.put(*written, j, score_row(codes, lut, start + j));
        }
    }
    written
}

/// Scores a cluster without top-k, returning raw scores (used by tests and
/// by the simulator's functional cross-checks).
///
/// Routed through the same block scorer as production scans (with the
/// process-wide dispatch), so a cross-check exercises the kernel that
/// actually runs.
pub fn score_all(codes: &PackedCodes, lut: &Lut) -> Vec<f32> {
    score_all_with(codes, lut, KernelDispatch::current())
}

/// [`score_all`] under an explicit dispatch.
///
/// # Panics
///
/// Panics if the LUT shape does not match the codes, or if u4 codes meet a
/// non-16-entry LUT under any dispatch but [`KernelDispatch::Scalar`].
pub fn score_all_with(codes: &PackedCodes, lut: &Lut, dispatch: KernelDispatch) -> Vec<f32> {
    assert_eq!(codes.m(), lut.m(), "LUT table count mismatch");
    let kernel = Kernel::select(dispatch, codes, lut.kstar());
    let mut out = vec![0.0f32; codes.len()];
    for (block, tile) in out.chunks_mut(TILE).enumerate() {
        let count = tile.len();
        score_block(
            kernel,
            codes,
            block * TILE,
            count,
            std::slice::from_ref(lut),
            &mut [Sink::Tile(tile)],
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::scalar::{scan_u4, scan_u8};
    use super::*;
    use crate::lut::LutPrecision;
    use anna_quant::pq::{PqCodebook, PqConfig};
    use anna_vector::VectorSet;

    fn setup(kstar: usize, m: usize) -> (PqCodebook, PackedCodes, Vec<u64>, Lut) {
        let dim = m * 2;
        let data = VectorSet::from_fn(dim, 128, |r, c| ((r * 17 + c * 3) % 23) as f32);
        let book = PqCodebook::train(
            &data,
            &PqConfig {
                m,
                kstar,
                iters: 6,
                seed: 1,
            },
        );
        let codes = book.encode_all(&data);
        let ids: Vec<u64> = (0..data.len() as u64).collect();
        let q: Vec<f32> = (0..dim).map(|i| (i % 5) as f32).collect();
        let lut = Lut::build_ip(&q, &book, LutPrecision::F32);
        (book, codes, ids, lut)
    }

    #[test]
    fn u8_kernel_matches_reference_scores() {
        let (_, codes, ids, lut) = setup(256, 4);
        let mut top = TopK::new(codes.len());
        scan(&codes, &ids, &lut, &mut top);
        let hits = top.into_sorted_vec();
        let reference = score_all(&codes, &lut);
        for h in hits {
            assert_eq!(h.score, reference[h.id as usize]);
        }
    }

    #[test]
    fn u4_kernel_matches_reference_scores() {
        let (_, codes, ids, lut) = setup(16, 4);
        assert_eq!(codes.width(), CodeWidth::U4);
        let mut top = TopK::new(codes.len());
        scan(&codes, &ids, &lut, &mut top);
        let hits = top.into_sorted_vec();
        let reference = score_all(&codes, &lut);
        for h in hits {
            assert_eq!(h.score, reference[h.id as usize]);
        }
    }

    #[test]
    fn u4_kernel_handles_odd_m() {
        let dim = 6;
        let data = VectorSet::from_fn(dim, 64, |r, c| ((r * 7 + c) % 9) as f32);
        let book = PqCodebook::train(
            &data,
            &PqConfig {
                m: 3,
                kstar: 16,
                iters: 4,
                seed: 0,
            },
        );
        let codes = book.encode_all(&data);
        let ids: Vec<u64> = (0..64).collect();
        let q = vec![1.0f32; dim];
        let lut = Lut::build_ip(&q, &book, LutPrecision::F32);
        let mut top = TopK::new(64);
        scan(&codes, &ids, &lut, &mut top);
        let reference = score_all(&codes, &lut);
        for h in top.into_sorted_vec() {
            assert_eq!(h.score, reference[h.id as usize]);
        }
    }

    #[test]
    fn kernel_respects_global_ids() {
        let (_, codes, _, lut) = setup(16, 4);
        let ids: Vec<u64> = (0..codes.len() as u64).map(|i| i + 1_000_000).collect();
        let mut top = TopK::new(5);
        scan(&codes, &ids, &lut, &mut top);
        for h in top.into_sorted_vec() {
            assert!(h.id >= 1_000_000);
        }
    }

    /// Scalar reference scorer: plain nested loop over `lut.get`, no
    /// packing tricks — the oracle every dispatch must reproduce exactly
    /// (same summation order, so scores must match bit for bit).
    fn scalar_reference(codes: &PackedCodes, lut: &Lut) -> Vec<f32> {
        let mut buf = vec![0u8; codes.m()];
        (0..codes.len())
            .map(|v| {
                codes.read_into(v, &mut buf);
                let mut sum = 0.0f32;
                for (i, &c) in buf.iter().enumerate() {
                    sum += lut.get(i, c as usize);
                }
                sum + lut.bias()
            })
            .collect()
    }

    /// Random codes need not come from any encoder; the kernels must score
    /// arbitrary identifiers below `bound` (the LUT's `k*`, which can be
    /// smaller than the configured one when training data is scarce).
    fn random_codes(
        rng: &mut anna_testkit::TestRng,
        m: usize,
        width: CodeWidth,
        bound: usize,
        n: usize,
    ) -> PackedCodes {
        let mut packed = PackedCodes::new(m, width);
        for _ in 0..n {
            let row: Vec<u8> = (0..m).map(|_| rng.below(bound as u64) as u8).collect();
            packed.push(&row);
        }
        packed
    }

    #[test]
    fn u4_kernel_matches_scalar_reference_on_random_codes() {
        let (_, _, _, lut) = setup(16, 4);
        anna_testkit::forall("u4 kernel matches scalar reference", 32, |rng| {
            let n = rng.usize(1..120);
            let codes = random_codes(rng, 4, CodeWidth::U4, 16, n);
            let ids: Vec<u64> = (0..n as u64).collect();
            let mut top = TopK::new(n);
            scan_u4(&codes, &ids, &lut, &mut top);
            let want = scalar_reference(&codes, &lut);
            let hits = top.into_sorted_vec();
            assert_eq!(hits.len(), n);
            for h in hits {
                assert_eq!(h.score.to_bits(), want[h.id as usize].to_bits());
            }
        });
    }

    #[test]
    fn u8_kernel_matches_scalar_reference_on_random_codes() {
        let (_, _, _, lut) = setup(256, 4);
        anna_testkit::forall("u8 kernel matches scalar reference", 32, |rng| {
            let n = rng.usize(1..120);
            let codes = random_codes(rng, 4, CodeWidth::U8, lut.kstar(), n);
            let ids: Vec<u64> = (0..n as u64).collect();
            let mut top = TopK::new(n);
            scan_u8(&codes, &ids, &lut, &mut top);
            let want = scalar_reference(&codes, &lut);
            let hits = top.into_sorted_vec();
            assert_eq!(hits.len(), n);
            for h in hits {
                assert_eq!(h.score.to_bits(), want[h.id as usize].to_bits());
            }
        });
    }

    #[test]
    fn u4_kernel_matches_scalar_reference_with_odd_m() {
        let dim = 6;
        let data = VectorSet::from_fn(dim, 64, |r, c| ((r * 7 + c) % 9) as f32);
        let book = PqCodebook::train(
            &data,
            &PqConfig {
                m: 3,
                kstar: 16,
                iters: 4,
                seed: 0,
            },
        );
        let q = vec![0.5f32; dim];
        let lut = Lut::build_ip(&q, &book, LutPrecision::F32);
        anna_testkit::forall("u4 kernel odd m scalar reference", 16, |rng| {
            let n = rng.usize(1..60);
            let codes = random_codes(rng, 3, CodeWidth::U4, 16, n);
            let ids: Vec<u64> = (0..n as u64).collect();
            let mut top = TopK::new(n);
            scan_u4(&codes, &ids, &lut, &mut top);
            let want = scalar_reference(&codes, &lut);
            for h in top.into_sorted_vec() {
                assert_eq!(h.score.to_bits(), want[h.id as usize].to_bits());
            }
        });
    }

    #[test]
    fn every_dispatch_fills_identical_top_k() {
        // Small k on a big candidate set, so the threshold filter actually
        // prunes — the pruned path must still keep the exact top-k set.
        let (_, codes, ids, lut) = setup(16, 4);
        let mut scalar_top = TopK::new(5);
        let mut scratch = ScanScratch::new();
        scan_with(
            &codes,
            &ids,
            &lut,
            &mut scalar_top,
            KernelDispatch::Scalar,
            &mut scratch,
        );
        let want = scalar_top.into_sorted_vec();
        for dispatch in KernelDispatch::available() {
            let mut top = TopK::new(5);
            let tally = scan_with(&codes, &ids, &lut, &mut top, dispatch, &mut scratch);
            assert_eq!(tally.scanned, codes.len() as u64);
            assert_eq!(
                top.into_sorted_vec(),
                want,
                "dispatch {} diverged",
                dispatch.name()
            );
        }
    }

    #[test]
    fn pruned_scores_never_exceed_scanned() {
        let (_, codes, ids, lut) = setup(16, 4);
        let mut scratch = ScanScratch::new();
        let mut top = TopK::new(3);
        let tally = scan_with(
            &codes,
            &ids,
            &lut,
            &mut top,
            KernelDispatch::Blocked,
            &mut scratch,
        );
        assert_eq!(tally.scanned, codes.len() as u64);
        assert!(tally.pruned <= tally.scanned);
        // With k=3 over 128 near-duplicate-free scores, most must prune.
        assert!(tally.pruned > 0, "threshold filter never engaged");
    }

    #[test]
    fn score_all_matches_per_dispatch_reference() {
        for (kstar, m) in [(16usize, 4usize), (256, 4), (16, 3)] {
            let (_, codes, _, lut) = if m == 3 {
                let dim = 6;
                let data = VectorSet::from_fn(dim, 80, |r, c| ((r * 7 + c) % 9) as f32);
                let book = PqCodebook::train(
                    &data,
                    &PqConfig {
                        m,
                        kstar,
                        iters: 4,
                        seed: 0,
                    },
                );
                let codes = book.encode_all(&data);
                let q = vec![1.0f32; dim];
                let lut = Lut::build_ip(&q, &book, LutPrecision::F32);
                (book, codes, Vec::new(), lut)
            } else {
                setup(kstar, m)
            };
            let want = scalar_reference(&codes, &lut);
            for dispatch in KernelDispatch::available() {
                let got = score_all_with(&codes, &lut, dispatch);
                assert_eq!(got.len(), want.len());
                for (v, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "kstar={kstar} m={m} dispatch={} vector {v}",
                        dispatch.name()
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_shapes() {
        // One scratch across changing m/width/len must never corrupt
        // results (buffers grow monotonically and are fully rewritten).
        let mut scratch = ScanScratch::new();
        let (_, codes16, ids16, lut16) = setup(16, 4);
        let (_, codes256, ids256, lut256) = setup(256, 6);
        for _ in 0..3 {
            for dispatch in KernelDispatch::available() {
                let mut a = TopK::new(7);
                scan_with(&codes256, &ids256, &lut256, &mut a, dispatch, &mut scratch);
                let mut b = TopK::new(7);
                scan_with(&codes16, &ids16, &lut16, &mut b, dispatch, &mut scratch);
                let ra = scalar_reference(&codes256, &lut256);
                for h in a.into_sorted_vec() {
                    assert_eq!(h.score.to_bits(), ra[h.id as usize].to_bits());
                }
                let rb = scalar_reference(&codes16, &lut16);
                for h in b.into_sorted_vec() {
                    assert_eq!(h.score.to_bits(), rb[h.id as usize].to_bits());
                }
            }
        }
    }

    #[test]
    fn blocks_larger_than_tile_are_scored_correctly() {
        // > TILE vectors forces multiple blocks (and a ragged tail).
        let n = TILE * 2 + 37;
        let (_, _, _, lut) = setup(16, 4);
        let mut rng = anna_testkit::TestRng::new(11);
        let codes = random_codes(&mut rng, 4, CodeWidth::U4, 16, n);
        let ids: Vec<u64> = (0..n as u64).collect();
        let want = scalar_reference(&codes, &lut);
        let mut scratch = ScanScratch::new();
        for dispatch in KernelDispatch::available() {
            let mut top = TopK::new(n);
            scan_with(&codes, &ids, &lut, &mut top, dispatch, &mut scratch);
            let hits = top.into_sorted_vec();
            assert_eq!(hits.len(), n);
            for h in hits {
                assert_eq!(
                    h.score.to_bits(),
                    want[h.id as usize].to_bits(),
                    "dispatch {}",
                    dispatch.name()
                );
            }
        }
    }

    /// Every row of [`Kernel::select`] (dispatch × code width × row bytes
    /// × table size) with the kernel it picks and that kernel's group. 19-
    /// and 40-entry tables are what scarce training data leaves.
    #[test]
    fn select_truth_table_is_exhaustive() {
        use KernelDispatch::{Avx2, Avx512, Blocked, Scalar};
        let kernel = |c: char| match c {
            'S' => Kernel::Scalar,
            'B' => Kernel::Blocked,
            'A' => Kernel::Avx2Lut16,
            '1' => Kernel::Avx512Lut16 { nd: 1 },
            '2' => Kernel::Avx512Lut16 { nd: 2 },
            'G' => Kernel::Avx512Gather,
            _ => panic!("no kernel {c}"),
        };
        let groups = [
            ('S', 1),
            ('B', 1),
            ('A', 1),
            ('1', GROUP),
            ('2', GROUP),
            ('G', 1),
        ];
        for (c, group) in groups {
            assert_eq!(kernel(c).group(), group, "{c}");
        }
        let row_bytes = [1usize, 2, 4, 8, 12, 33];
        let kstars = [16usize, 19, 40, 256];
        // Per row width, the kernel for each k*.
        let rows = [
            (Scalar, CodeWidth::U4, "SSSS SSSS SSSS SSSS SSSS SSSS"),
            (Scalar, CodeWidth::U8, "SSSS SSSS SSSS SSSS SSSS SSSS"),
            (Blocked, CodeWidth::U4, "BBBB BBBB BBBB BBBB BBBB BBBB"),
            (Blocked, CodeWidth::U8, "BBBB BBBB BBBB BBBB BBBB BBBB"),
            (Avx2, CodeWidth::U4, "AAAA AAAA AAAA AAAA AAAA AAAA"),
            (Avx2, CodeWidth::U8, "BBBB BBBB BBBB BBBB BBBB BBBB"),
            (Avx512, CodeWidth::U4, "AAAA AAAA 1111 2222 AAAA AAAA"),
            (Avx512, CodeWidth::U8, "BBBB BBBB BBBG BBBG BBBG BBBG"),
        ];
        for (dispatch, width, table) in rows {
            for (vb, cells) in row_bytes.into_iter().zip(table.split(' ')) {
                let m = if width == CodeWidth::U4 { 2 * vb } else { vb };
                let codes = PackedCodes::new(m, width);
                assert_eq!(codes.vector_bytes(), vb);
                for (kstar, want) in kstars.into_iter().zip(cells.chars()) {
                    let at = format!("{dispatch:?} {width:?} vb={vb} k*={kstar}");
                    let got = Kernel::select(dispatch, &codes, kstar);
                    assert_eq!(got, kernel(want), "{at}");
                    assert!(got.fits(&codes, kstar), "{at}");
                    let group = groups.iter().find(|&&(c, _)| c == want).expect("listed");
                    assert_eq!(group_size(dispatch, &codes, kstar), group.1, "{at}");
                }
            }
        }
    }

    /// The sink-level statement behind the survivors scan: under the
    /// kernel of every available dispatch, what [`Sink::Survivors`]
    /// receives is exactly what [`Sink::Tile`] receives filtered by
    /// `score >= threshold`, positions ascending — for a threshold that
    /// keeps everything but NaN (`-inf`), two inside the score range, and
    /// one only `+inf` scores reach — and nothing is written past the
    /// sink's `count + SINK_SLACK` slots. Each block is scored for groups
    /// of one to [`GROUP`] tables at once, every member against its own
    /// table and its own threshold, each threshold at every member
    /// position. Nibble shapes cover both AVX-512 row loads (`m` 7 and 8:
    /// 4-byte rows; 16: 8-byte), the width it hands to AVX2 (`m` 24) and
    /// one wider than AVX2 keeps per lane, which it leaves whole to the row
    /// loop (`m` 66); byte shapes cover the gather kernel with whole dwords
    /// (`m` 4, 16) and the shifted last dword (`m` 5, 7, 17), and the
    /// blocked kernel under every dispatch (`m` 2 against a 40-entry
    /// table). Counts sit on both sides of the four-row group, the 16-lane
    /// group, the 32- and 64-lane chunks and a whole tile; tables hold NaN,
    /// `±inf` and `-0.0`.
    #[test]
    fn survivors_sink_is_the_tile_sink_filtered_by_the_threshold() {
        const GUARD: usize = 8;
        const UNTOUCHED: u32 = 0x7FC0_DEAD;
        let thresholds = [f32::NEG_INFINITY, 0.5, f32::INFINITY, -3.0];
        let mut rng = anna_testkit::TestRng::new(0x51_4E_4B);
        let shapes = [
            (CodeWidth::U4, 7usize, 16usize),
            (CodeWidth::U4, 8, 16),
            (CodeWidth::U4, 16, 16),
            (CodeWidth::U4, 24, 16),
            (CodeWidth::U4, 66, 16),
            (CodeWidth::U8, 2, 40),
            (CodeWidth::U8, 4, 256),
            (CodeWidth::U8, 5, 256),
            (CodeWidth::U8, 7, 256),
            (CodeWidth::U8, 16, 256),
            (CodeWidth::U8, 17, 256),
        ];
        for (width, m, kstar) in shapes {
            let luts: Vec<Lut> = (0..GROUP)
                .map(|_| {
                    let mut words: Vec<f32> = (0..m * kstar).map(|_| rng.f32(-8.0..8.0)).collect();
                    for hostile in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0] {
                        let at = rng.usize(0..words.len());
                        words[at] = hostile;
                    }
                    // One-dimensional codewords against a query of ones:
                    // the LUT entries are the codewords.
                    let book = PqCodebook::from_books(
                        words
                            .chunks(kstar)
                            .map(|book| VectorSet::from_vec(1, book.to_vec()))
                            .collect(),
                    );
                    Lut::build_ip(&vec![1.0; m], &book, LutPrecision::F32)
                })
                .collect();
            for n in [1, 3, 4, 5, 15, 16, 17, 63, 64, 65, 255, 256] {
                let codes = random_codes(&mut rng, m, width, kstar, n + 3);
                // A block that starts inside the stream, as tiles do.
                let start = 3;
                for dispatch in KernelDispatch::available() {
                    let kernel = Kernel::select(dispatch, &codes, kstar);
                    let tiles: Vec<Vec<f32>> = luts
                        .iter()
                        .map(|lut| {
                            let mut tile = vec![0.0f32; n];
                            let stored = score_block(
                                kernel,
                                &codes,
                                start,
                                n,
                                std::slice::from_ref(lut),
                                &mut [Sink::Tile(&mut tile)],
                            );
                            assert_eq!(stored[0], n);
                            tile
                        })
                        .collect();
                    for group in 1..=GROUP {
                        for rotation in 0..thresholds.len() {
                            let threshold =
                                |g: usize| thresholds[(g + rotation) % thresholds.len()];
                            let slots = n + SINK_SLACK + GUARD;
                            let mut buffers: Vec<(Vec<u32>, Vec<f32>)> = (0..group)
                                .map(|_| {
                                    (
                                        vec![UNTOUCHED; slots],
                                        vec![f32::from_bits(UNTOUCHED); slots],
                                    )
                                })
                                .collect();
                            let mut sinks: Vec<Sink<'_>> = buffers
                                .iter_mut()
                                .enumerate()
                                .map(|(g, (positions, scores))| Sink::Survivors {
                                    threshold: threshold(g),
                                    positions,
                                    scores,
                                })
                                .collect();
                            let kept =
                                score_block(kernel, &codes, start, n, &luts[..group], &mut sinks);
                            drop(sinks);
                            for (g, (positions, scores)) in buffers.iter().enumerate() {
                                let at = format!(
                                    "{width:?} m={m} n={n} member {g} of {group} threshold={} {} {kernel:?}",
                                    threshold(g),
                                    dispatch.name()
                                );
                                let want: Vec<(u32, u32)> = (0..n as u32)
                                    .zip(&tiles[g])
                                    .filter(|&(_, &score)| score >= threshold(g))
                                    .map(|(j, score)| (j, score.to_bits()))
                                    .collect();
                                let got: Vec<(u32, u32)> = positions[..kept[g]]
                                    .iter()
                                    .zip(&scores[..kept[g]])
                                    .map(|(&j, score)| (j, score.to_bits()))
                                    .collect();
                                assert_eq!(got, want, "{at}");
                                // The slack is the sink's; past it, nothing.
                                let beyond = n + SINK_SLACK;
                                assert!(
                                    positions[beyond..].iter().all(|&p| p == UNTOUCHED),
                                    "{at}"
                                );
                                assert!(
                                    scores[beyond..].iter().all(|s| s.to_bits() == UNTOUCHED),
                                    "{at}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "id/code count mismatch")]
    fn mismatched_id_count_panics() {
        let (_, codes, mut ids, lut) = setup(16, 4);
        ids.pop();
        let mut top = TopK::new(4);
        scan(&codes, &ids, &lut, &mut top);
    }

    #[test]
    #[should_panic(expected = "LUT table count mismatch")]
    fn mismatched_lut_table_count_panics() {
        let (_, codes, ids, _) = setup(16, 4);
        // A LUT with m = 2 tables against m = 4 codes.
        let dim = 4;
        let data = VectorSet::from_fn(dim, 64, |r, c| ((r * 5 + c) % 11) as f32);
        let book = PqCodebook::train(
            &data,
            &PqConfig {
                m: 2,
                kstar: 16,
                iters: 3,
                seed: 0,
            },
        );
        let wrong = Lut::build_ip(&vec![1.0; dim], &book, LutPrecision::F32);
        let mut top = TopK::new(4);
        scan(&codes, &ids, &wrong, &mut top);
    }

    #[test]
    #[should_panic(expected = "u4 kernel requires a 16-entry LUT")]
    fn u4_kernel_rejects_wide_lut() {
        let (_, _, _, wide_lut) = setup(256, 4);
        let mut rng = anna_testkit::TestRng::new(7);
        let codes = random_codes(&mut rng, 4, CodeWidth::U4, 16, 8);
        let ids: Vec<u64> = (0..8).collect();
        let mut top = TopK::new(4);
        scan_u4(&codes, &ids, &wide_lut, &mut top);
    }

    #[test]
    #[should_panic]
    fn u8_kernel_rejects_u4_codes() {
        let (_, _, _, lut) = setup(16, 4);
        let mut rng = anna_testkit::TestRng::new(9);
        let codes = random_codes(&mut rng, 4, CodeWidth::U4, 16, 8);
        let ids: Vec<u64> = (0..8).collect();
        let mut top = TopK::new(4);
        scan_u8(&codes, &ids, &lut, &mut top);
    }

    #[test]
    fn bias_shifts_every_score() {
        let (_, codes, ids, lut) = setup(16, 4);
        let biased = lut.with_bias(100.0);
        let mut a = TopK::new(3);
        let mut b = TopK::new(3);
        scan(&codes, &ids, &lut, &mut a);
        scan(&codes, &ids, &biased, &mut b);
        let av = a.into_sorted_vec();
        let bv = b.into_sorted_vec();
        for (x, y) in av.iter().zip(&bv) {
            assert_eq!(x.id, y.id);
            assert!((y.score - x.score - 100.0).abs() < 1e-3);
        }
    }
}
