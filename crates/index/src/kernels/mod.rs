//! ADC scan kernels: score every encoded vector of a cluster against the
//! LUTs of the queries visiting it and feed each query's top-k selector.
//!
//! # Architecture: dispatch → kernel → group → block score → select
//!
//! The scan is a five-layer subsystem behind one loop,
//! [`scan_group_with`] ([`scan_with`] is its one-visitor case):
//!
//! 1. **Runtime ISA dispatch** ([`KernelDispatch`], the workspace's one
//!    hardware decision) — selected once per process from the host's CPU
//!    features (or `ANNA_FORCE_SCALAR`); it looks at no codes and no
//!    tables.
//! 2. **Kernel** — `Kernel::select` maps the dispatch, the codes' width
//!    and row bytes and the table size onto one kernel, in one place: the
//!    seed scalar loops (`scalar`, the reference); the unrolled four-row
//!    `blocked` kernel; the AVX2 LUT16 kernel for `k* = 16` (two YMM
//!    halves per table, 32 codes per iteration); the `avx512` gather kernel
//!    for `k* = 256` byte codes in rows of four bytes or more other than 8
//!    and 16 (one `vgatherdps` per sixteen lookups, code dwords gathered);
//!    and the two `avx512` kernels that **seed** — nibbles in 4- and 8-byte
//!    rows, bytes in 8- and 16-byte rows. A seeded kernel scans a cluster
//!    as one visit, bounded by each visitor's u8 image of its LUT
//!    (`ByteImage`: tables of 256 bytes, four ZMM registers each, or of
//!    16 bytes, all sixteen in four registers). The image is made with the
//!    table, in the same pass (`avx512::tables_and_image`), whenever a LUT
//!    is built under `avx512` at a seeded shape — once per visit for L2,
//!    once per query for inner product, whose re-biased copies share it —
//!    so the scan only reads it (`ByteBound` adds the visit's bias). One
//!    pass over the whole cluster gives every row's u16 sum — a byte sum
//!    (two `vpermi2b` and a blend per subquantizer of a transposed chunk),
//!    or, for nibbles, a
//!    half sum (one `vpermi2b` per nibble of a row-major register, a
//!    `vpavgb` and a `vpsadbw`) — and the largest sum of each of 256
//!    disjoint row groups, folded before the sums are put in row order (one
//!    word permute per 32 rows). The `k`-th largest of those maxima seeds
//!    the threshold with a proven lower bound on the visit's `k`-th best
//!    score; only the rows whose sum can still reach it become candidates —
//!    a compare per 32 sums, then the kept rows' positions extracted from
//!    the mask (`avx512::candidates`) — and one **exact step** scores the
//!    candidate list at f32. Rows never scored
//!    are [`ScanTally::bound_rejected`]. The exact step is the seeded
//!    shapes' only f32 scorer: a visitor whose LUT has no u8 image hands
//!    it every row at its selector's floor, and [`score_all`] every row at
//!    `−∞`.
//! 3. **Visitor groups** — a cluster's visitors are scanned in groups of
//!    the kernel's size: up to four for the seeded kernels, whose sum pass
//!    loads each chunk of rows once — and transposes it, or makes its
//!    nibble indices — for the whole group, then looks it up in every
//!    member's u8 image; each member then seeds, scores and offers its own
//!    candidates — the software form of ANNA's crossbar handing one fetched
//!    cluster block to the SCM of every query in the group (PAPER §III-B,
//!    §IV). A member whose LUT has no image sits out the sum pass. Every
//!    other kernel takes the visitors one at a time.
//! 4. **Block scoring** — every kernel scores into one destination, the
//!    **survivors sink**: the finished sums are compared with a threshold
//!    (in registers for the SIMD kernels: `vcmpps GE_OQ` into a mask) and
//!    only the passing vectors are kept, as `(position, score)` pairs in
//!    ascending position in the query's buffer. ANNA's SCM never
//!    materialises a score either — each sum leaves the adder tree, meets
//!    the P-heap minimum, and only winners enter the heap (PAPER
//!    §III-B(4)). A kernel that does not seed walks a cluster in blocks of
//!    [`TILE`] vectors, each scored by one `score_block` call against the
//!    threshold as the block starts; a seeded visit is one block of the
//!    whole cluster, whose threshold the u8 pass has already raised to a
//!    proven `k`-th best bound, and which meets it with a u8 upper bound
//!    before the f32 score exists. [`score_all`] is the same sink at `−∞`
//!    scattered into place: `−∞` keeps every score but NaN, and the row
//!    loop fills those in. Whatever rows a kernel leaves are finished by
//!    one shared row loop (`score_row`). The hot loop is allocation-free.
//! 5. **Threshold-pruned selection** — every kernel but the seed scan ends
//!    in a survivors sink, and the selector takes the kept lanes in bulk
//!    ([`TopK::offer_survivors`]), re-testing each against the live
//!    threshold, in the same ascending order, before the next block is
//!    scored: only scores passing `score >= top.threshold()` are offered
//!    (almost every score in a warm scan loses to the selector's floor, a
//!    `k`-th best as of its last settle). The filter is exact, not
//!    approximate: the threshold is a lower bound on the true `k`-th best
//!    score, so nothing that belongs in the top-k fails it; candidates *at* the
//!    threshold are still offered (the equal-score/lower-id tie-break can
//!    rank them above the floor); and NaN fails the comparison — ordered
//!    in the SIMD compare, `false` in the scalar one — just as
//!    [`TopK::push`] rejects it. Each offer is exactly a `score >=
//!    threshold` test and a push, whichever dispatch's arm of the selector
//!    runs it.
//!
//! # Why a frozen threshold is exact
//!
//! The survivors sink compares each query's sums against a copy of that
//! query's threshold taken when the block starts — a tile, or a seeded
//! kernel's whole cluster — while pushes from that same block can settle
//! the selector and raise the live one. That is sound
//! because the threshold only ever rises and never passes the true `k`-th
//! best: `frozen <= live <= k-th best` at every moment, so `score >= live`
//! implies `score >= frozen` — every candidate a per-score test against
//! the live threshold would offer is among the kept lanes, and the few
//! extra lanes that passed only the stale copy are dropped by the re-test.
//! (`push` would reject them anyway; the re-test saves that call and keeps
//! [`ScanTally::pruned`] the same on every dispatch that tests against the
//! live threshold.) Offers therefore reach the selector in the same order,
//! against the same live threshold, as in a scan that tested every score
//! as it was made.
//!
//! The same holds per query within a group. A group's selectors are
//! distinct (`&mut [TopK]`), so each is raised only by its own offers, and
//! a seeded visit's members share only the sum pass, which reads no
//! selector: each member's threshold, candidates and offers are its own,
//! made in ascending position before the next member's. So each selector
//! sees exactly the offers, order and threshold sequence of a
//! [`scan_with`] of its own, and keeps the same top-k and tally.
//!
//! # Why a seeded threshold is exact
//!
//! A seeded visit does not start from the selector's floor. Its sum pass
//! puts every row of the cluster in one of 256 disjoint groups and keeps
//! each group's largest stored sum. When `k < 256` and the cluster has at
//! least `k` rows, at least `k` groups hold a row, so the `k`-th largest
//! maximum `H*` is reached by `k` distinct rows, one per group. Each of
//! them has a byte sum of at least `Q* = ByteBound::guaranteed(H*)` — `H*`
//! itself at `k* = 256`, `2H* − vb` for the half sums of `vb`-byte nibble
//! rows (`avx512::half_sums`) — and every row whose byte sum is at least
//! `Q*` scores at least `ByteBound::lower(Q*)` (the proof is
//! `avx512::byte_sums`'; it uses only `m`, the scale and the magnitude, so
//! it holds for either image), so this visit alone holds `k` rows scoring
//! at least that **seed**, and the query's true `k`-th best — which other
//! visits can only raise — is at least the seed as well. The visit's
//! threshold `T = max(seed, floor)` is therefore a lower bound on the
//! `k`-th best, exactly as the floor is: every row that belongs in the
//! top-k scores `>= T`, so its u8 upper bound reaches `T` and it is a
//! candidate, it is kept (`>=`, so ties at `T` are too), and it is offered
//! in ascending position against the live threshold — every kept score
//! already reaches the seed, so that is the re-test against `max(seed,
//! live)`. A candidate's score comes from the exact step — one
//! `vgatherdps` per lookup at `k* = 256`, one `vpermps` per subquantizer
//! at `k* = 16`, `i` ascending, bias last — so it is the scalar score bit
//! for bit. NaN cannot arise: a LUT has a u8
//! image only when its entries and bias are finite. The selector's order
//! is total, so its kept set is the best `k` of what was offered, which
//! includes everything that belongs there: the scalar path's, bit for
//! bit. Only the count of offers changes: rows between the floor and the
//! seed are pruned without being offered, so [`ScanTally::pruned`] reads
//! higher on a seeded visit than on a dispatch that tests against the
//! floor alone. With fewer than `k` rows, or `k >= 256`, there is no seed
//! and `T` is the floor. A visitor whose LUT has no u8 image has neither
//! seed nor bound: every row is a candidate, at the floor frozen once for
//! the cluster — the frozen threshold above, over one block.
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
//! it slow on CPUs (§II-C/§II-D). At f32 the 1 KiB tables still live in
//! cache, and a gather issues one load per lane, so an exact `k* = 256`
//! score stays bound by the core's load ports — the work ANNA's SCM does
//! from its own lookup-table SRAM. The `avx512` scan sidesteps most of
//! those loads rather than speeding them up: a u8 image of a table is
//! 256 bytes and *does* fit registers (four ZMM), so a cheap low-precision
//! pass bounds every score and full precision decides only the few rows
//! that can still enter the top-k (ANNS-AMP's adaptive mixed precision,
//! applied as a filter rather than an approximation). At `k* = 16` the f32
//! tables already fit, but the same filter still pays: sixteen u8 tables
//! are four registers, one byte lookup serves 64 codes where `vpermps`
//! serves 16, and the seed spares the selector most of its offers. Both
//! bounds hold by construction (`avx512::byte_sums` proves them,
//! `avx512::half_sums` carries them to nibbles), so scores and top-k sets
//! are the scalar path's bit for bit; only the offers fall.

mod blocked;
mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;

pub use anna_vector::KernelDispatch;

use crate::lut::{Lut, LutPrecision};
use anna_quant::codes::{CodeWidth, PackedCodes};
use anna_quant::pq::PqCodebook;
use anna_vector::{Metric, TopK};

/// Vectors scored per block: large enough to amortize the selection pass
/// and keep the SIMD main loop busy, small enough that the score tile
/// stays L1-resident.
pub const TILE: usize = 256;

/// Most visitors of one cluster a seeded visit's byte-sum pass serves:
/// each chunk of rows is loaded once — and, for nibble codes, its indices
/// made once — for every member, whose lookups then read its own u8 image.
/// The group is sized by the 32 ZMM registers. Four 16-entry images over
/// 8-byte rows are 16 registers, plus one packed sum register per member
/// and the two shared index registers; the 16 transposed code registers of
/// a chunk of 16-byte rows and two sum accumulators per member are 24. A
/// fifth member would spill.
pub(crate) const GROUP: usize = 4;

/// Lanes a survivors sink may write past the last survivor: the AVX-512
/// sink stores each sixteen-lane group full width at the survivor count
/// instead of branching on how many passed, so a survivors buffer for a
/// `count`-vector block holds `count + SINK_SLACK` slots.
const SINK_SLACK: usize = 16;

/// Reusable scratch for the scan: one survivors buffer (positions and
/// scores) — a tile's, or a seeded visit's cluster-wide candidate list —
/// and every row's byte sum that an `avx512` seeded visit reads (the u8
/// images it sums travel with their LUTs, `ByteImage`). Thread one
/// instance through a scan loop (per worker, per search) and the hot path
/// performs zero allocations after warm-up.
#[derive(Debug, Default, Clone)]
pub struct ScanScratch {
    survivors: Survivors,
    sums: Vec<u16>,
}

/// The survivors buffer of a [`ScanScratch`].
#[derive(Debug, Default, Clone)]
struct Survivors {
    scores: Vec<f32>,
    positions: Vec<u32>,
}

impl ScanScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Survivors {
    /// Grows (never shrinks) the buffers to `rows + SINK_SLACK` slots and
    /// hands out the first `rows + SINK_SLACK` as one [`Sink`] for a block
    /// of `rows`, which [`Self::kept`] reads back.
    fn sink(&mut self, threshold: f32, rows: usize) -> Sink<'_> {
        let need = rows + SINK_SLACK;
        if self.scores.len() < need {
            self.scores.resize(need, 0.0);
        }
        if self.positions.len() < need {
            self.positions.resize(need, 0);
        }
        Sink {
            threshold,
            positions: &mut self.positions[..need],
            scores: &mut self.scores[..need],
        }
    }

    /// The first `kept` `(positions, scores)`, as the last [`Self::sink`]
    /// was filled.
    fn kept(&self, kept: usize) -> (&[u32], &[f32]) {
        (&self.positions[..kept], &self.scores[..kept])
    }
}

/// Disjoint row groups a seeded visit takes sum maxima over (each of a
/// 64-row chunk's sum slots, per chunk index mod 4); a selector of `k >=
/// SEED_GROUPS` gets no seed.
const SEED_GROUPS: usize = 256;

/// `count` rounded up to whole 64-row chunks: the sums a seeded visit
/// keeps per member for `count` rows.
fn whole_chunks(count: usize) -> usize {
    count.div_ceil(64) * 64
}

/// The u8 image of a LUT, made with its tables in one pass
/// (`avx512::tables_and_image`) wherever a seeded kernel will scan with
/// it: under the `avx512` dispatch, `k* = 16` tables for nibble rows of 4
/// or 8 bytes and `k* = 256` tables for byte rows of 8 or 16 bytes. It
/// travels with its [`Lut`] (re-biasing an inner-product table keeps it:
/// nothing here depends on the bias), so a LUT is quantised once per build
/// — once per visit for L2, once per query for inner product — and every
/// scan of it reads the same bytes. Every other dispatch and shape keeps
/// the table arms and makes no image.
#[derive(Debug, Clone, Default)]
pub(crate) struct ByteImage {
    /// The image's bytes, [`ByteBound::image_len`] of them while `head`
    /// holds; a warm buffer is reused across builds.
    bytes: Vec<u8>,
    /// The image's scale and sums; `None` when the tables have no image:
    /// built on another dispatch or shape, or a non-finite entry, or every
    /// table constant.
    head: Option<ImageHead>,
}

/// What a [`ByteImage`] holds besides its bytes: the scale `s`, `Σ lo_i`
/// and `Σ_i max_v |e_iv|`, before the bias adds to the last two.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ImageHead {
    scale: f32,
    lo_sum: f64,
    magnitude: f64,
}

impl PartialEq for ByteImage {
    /// Equal images: both absent, or the same head and bytes.
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head && (self.head.is_none() || self.bytes == other.bytes)
    }
}

impl ByteImage {
    /// Builds `book`'s `m` tables of `k*` similarities to `v` under
    /// `metric` at `precision` into `entries` together with this image,
    /// when `dispatch` scans such tables in seeded visits
    /// ([`seeded_tables`]); returns whether it did. Otherwise it leaves
    /// `entries` for the table arms to fill, and the LUT without an image.
    /// Each entry is the distance-table kernel's, bit for bit (so the
    /// table arms' too), and the image is the one `avx512::quantise` makes
    /// of those entries.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `entries` does not fit `book`, or if `dispatch`
    /// does not run here.
    pub(crate) fn fill(
        &mut self,
        dispatch: KernelDispatch,
        metric: Metric,
        v: &[f32],
        book: &PqCodebook,
        precision: LutPrecision,
        entries: &mut [f32],
    ) -> bool {
        self.head = None;
        let (m, kstar) = (book.m(), book.kstar());
        if dispatch != KernelDispatch::Avx512 || !seeded_tables(kstar, m) {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            use Metric::{InnerProduct, L2};
            assert!(dispatch.is_available(), "a table pass without its ISA");
            assert!(v.len() == book.dim() && entries.len() == m * kstar);
            self.bytes.resize(ByteBound::image_len(kstar, m), 0);
            let (tables, f16) = (&mut self.bytes[..], precision == LutPrecision::F16);
            // Sixteen tables of 4-dimensional sub-vectors (the benchmark's
            // shape) unrolled, every other shape looped.
            macro_rules! pass {
                ($kstar:literal, $m:literal, $sub:literal) => {
                    match (metric, f16) {
                        (L2, false) => avx512::tables_and_image::<$kstar, true, false, $m, $sub>,
                        (L2, true) => avx512::tables_and_image::<$kstar, true, true, $m, $sub>,
                        (InnerProduct, false) => {
                            avx512::tables_and_image::<$kstar, false, false, $m, $sub>
                        }
                        (InnerProduct, true) => {
                            avx512::tables_and_image::<$kstar, false, true, $m, $sub>
                        }
                    }
                };
            }
            let pass = match (kstar, m, book.dim()) {
                (16, 16, 64) => pass!(16, 16, 4),
                (16, _, _) => pass!(16, 0, 0),
                (_, 16, 64) => pass!(256, 16, 4),
                _ => pass!(256, 0, 0),
            };
            // SAFETY: the `avx512` level (asserted above) includes
            // `avx512f` and `avx512bw`; a seeded shape has `k*` 16 or 256
            // (the const argument) and `m <= BOUND_TABLES`; every codebook
            // of a `PqCodebook` holds its `k*` codewords of `dim / m`
            // dimensions (the `M` and `SUB` arguments where they are not
            // 0), and `v`, `entries` and `tables` were sized above.
            self.head =
                unsafe { pass(book, v, entries, tables) }.map(|(scale, lo_sum, magnitude)| {
                    ImageHead {
                        scale,
                        lo_sum,
                        magnitude,
                    }
                });
            true
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("no avx512 dispatch off x86-64")
    }

    /// Makes this image a copy of `other`, reusing its buffer.
    pub(crate) fn clone_from_image(&mut self, other: &ByteImage) {
        self.head = other.head;
        if other.head.is_some() {
            self.bytes.clear();
            self.bytes.extend_from_slice(&other.bytes);
        }
    }
}

/// Whether `avx512` scans codes against `m` tables of `kstar` entries in
/// seeded visits — the shapes whose LUTs get a [`ByteImage`]: the codes a
/// `k*`-entry codebook writes (nibbles for 16, bytes for 256) in rows a
/// seeded kernel takes ([`Kernel::select`]).
fn seeded_tables(kstar: usize, m: usize) -> bool {
    let width = match kstar {
        16 => CodeWidth::U4,
        256 => CodeWidth::U8,
        _ => return false,
    };
    Kernel::select(KernelDispatch::Avx512, &PackedCodes::new(m, width), kstar).seeds()
}

/// A u8 image of a LUT as an `avx512` seeded visit bounds its scores
/// with: `m` tables of 256 bytes (byte codes) or of 16 (nibble codes),
/// sharing one scale `s`, table `i` offset by its least entry
/// (`avx512::write_image`), plus what turns a row's byte sum `Q` into bounds on
/// its score: [`Self::min_sum`], the least byte sum that can still reach a
/// threshold, and [`Self::lower`], the least score a byte sum guarantees.
/// Both depend only on `m`, the scale and the magnitude, never on the
/// table size, so `avx512::byte_sums`' proofs hold for either image. The
/// nibble pass stores each row's half sum `H` rather than `Q`, with `2H −
/// vb <= Q <= 2H` for rows of `vb` bytes (`avx512::half_sums`);
/// [`Self::least_stored`] and [`Self::guaranteed`] convert.
#[derive(Debug, Clone, Copy)]
struct ByteBound<'a> {
    tables: &'a [u8],
    m: usize,
    /// Entries per table of the LUT quantised: 256 or 16.
    kstar: usize,
    /// `s`: one byte step, in score units.
    scale: f32,
    /// `Σ lo_i + bias`: the score of an all-zero byte row, less the steps.
    floor: f64,
    /// `Σ_i max_v |e_iv| + |bias|`: what the f32 rounding is relative to.
    magnitude: f64,
}

impl<'a> ByteBound<'a> {
    /// The bound a seeded visit takes from `lut`'s u8 image ([`ByteImage`])
    /// at the LUT's bias; `None` — the visitor's candidates are then every
    /// row — when the LUT has no image, or its bias is not finite, or
    /// entries and bias are too large to sum without overflow (`Σ_i max_v
    /// |e_iv| + |bias|` reaching `2^120`).
    fn of(lut: &'a Lut) -> Option<Self> {
        let image = lut.image();
        let head = image.head?;
        Self::biased(&image.bytes, lut.m(), lut.kstar(), head, lut.bias())
    }

    /// The bound of an image `head` of `m` tables of `kstar` in `tables`,
    /// at `bias`: only the floor and the magnitude take the bias.
    fn biased(
        tables: &'a [u8],
        m: usize,
        kstar: usize,
        head: ImageHead,
        bias: f32,
    ) -> Option<Self> {
        if !bias.is_finite() {
            return None;
        }
        let bias = f64::from(bias);
        let magnitude = head.magnitude + bias.abs();
        // Below `2^120`, no partial sum of a score can overflow.
        (magnitude < 2f64.powi(120)).then_some(ByteBound {
            tables: &tables[..Self::image_len(kstar, m)],
            m,
            kstar,
            scale: head.scale,
            floor: head.lo_sum + bias,
            magnitude,
        })
    }

    /// The reference for [`Self::of`]: quantises `lut`'s entries after the
    /// fact (`avx512::quantise`) into the first [`Self::image_len`] of
    /// `tables`; `None` unless the kernel seeds ([`Kernel::seeds`]), and
    /// wherever [`Self::of`] of a LUT built with its image is `None`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel seeds and `tables` is shorter than the image.
    #[cfg(test)]
    fn quantise(kernel: Kernel, lut: &Lut, tables: &'a mut [u8]) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        {
            if !kernel.seeds() {
                return None;
            }
            let (m, kstar) = (lut.m(), lut.kstar());
            let nibbles = matches!(kernel, Kernel::Avx512Lut16 { .. });
            assert!(
                kstar == if nibbles { 16 } else { 256 }
                    && m <= avx512::BOUND_TABLES
                    && lut.entries().len() >= m * kstar
            );
            assert!(
                KernelDispatch::Avx512.is_available(),
                "seeded visit without its ISA"
            );
            if !lut.bias().is_finite() {
                return None;
            }
            let tables = &mut tables[..Self::image_len(kstar, m)];
            // SAFETY: the `avx512` level (asserted above) includes
            // `avx512f` and `avx512bw`; `m` is at most `BOUND_TABLES`, the
            // LUT holds `m` tables of `kstar` (16 or 256, the const
            // argument) and `tables` that image's bytes.
            let (scale, lo_sum, magnitude) = unsafe {
                if nibbles {
                    avx512::quantise::<16>(m, lut.entries(), tables)
                } else {
                    avx512::quantise::<256>(m, lut.entries(), tables)
                }
            }?;
            let head = ImageHead {
                scale,
                lo_sum,
                magnitude,
            };
            Self::biased(tables, m, kstar, head, lut.bias())
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (kernel, lut, tables);
            None
        }
    }

    /// Bytes of an image of `m` tables of `kstar` entries: `m · 256`, or
    /// sixteen tables of 16 whatever `m`.
    fn image_len(kstar: usize, m: usize) -> usize {
        if kstar == 16 {
            16 * 16
        } else {
            m * 256
        }
    }

    /// Table `i`'s byte for code `c`.
    #[cfg(test)]
    fn byte(&self, i: usize, c: usize) -> u8 {
        let at = if self.kstar == 16 {
            128 * (i % 2) + 16 * (i / 2)
        } else {
            i * 256
        };
        self.tables[at + c]
    }

    /// Bytes per row of the codes the image scores: `m` byte codes, or `m`
    /// nibbles two to a byte.
    fn row_bytes(&self) -> usize {
        if self.kstar == 16 {
            self.m.div_ceil(2)
        } else {
            self.m
        }
    }

    /// The least stored sum of a row whose byte sum may reach `min_sum`:
    /// `min_sum` itself, or for a half sum `H` (`Q <= 2H`) `⌈min_sum / 2⌉`.
    fn least_stored(&self, min_sum: u16) -> u16 {
        if self.kstar == 16 {
            min_sum.div_ceil(2)
        } else {
            min_sum
        }
    }

    /// The byte sum every row with stored sum at least `stored` reaches:
    /// `stored` itself, or for a half sum `2·stored − vb`, at least 0.
    fn guaranteed(&self, stored: u16) -> u16 {
        if self.kstar == 16 {
            (2 * stored).saturating_sub(self.row_bytes() as u16)
        } else {
            stored
        }
    }

    /// The least byte sum `Q` a row needs for its exact score to possibly
    /// reach `threshold`: every row with `Q < min_sum` scores below it.
    /// `None` when the bound cannot reject anything: a non-finite
    /// threshold, or one every row's bound reaches.
    fn min_sum(&self, threshold: f32) -> Option<u16> {
        if !threshold.is_finite() {
            return None;
        }
        let (m, s, t) = (self.m as f64, f64::from(self.scale), f64::from(threshold));
        let slack = m * s * 2f64.powi(-14)
            + (m + 1.0) * 2f64.powi(-23) * self.magnitude
            + 2f64.powi(-40) * (t.abs() + self.magnitude);
        let least = ((t - self.floor - slack) / s - m).floor() - 1.0;
        (least >= 1.0).then(|| least.min(f64::from(u16::MAX)) as u16)
    }

    /// A score every row whose byte sum is at least `sum` reaches: the
    /// mirror of [`Self::min_sum`], with the same slack terms, rounded
    /// toward `−∞` to an f32. Finite: the image's entries and bias are.
    fn lower(&self, sum: u16) -> f32 {
        let (m, s, q) = (self.m as f64, f64::from(self.scale), f64::from(sum));
        let slack = m * s * 2f64.powi(-14)
            + (m + 1.0) * 2f64.powi(-23) * self.magnitude
            + 2f64.powi(-40) * (s * q + self.magnitude);
        let least = self.floor + s * q - slack;
        let rounded = least as f32;
        if f64::from(rounded) > least {
            rounded.next_down()
        } else {
            rounded
        }
    }

    /// The seed of a visit to `n` rows by a selector of `k`, given the
    /// [`SEED_GROUPS`] maxima [`Self::byte_sums`] returned for them:
    /// [`Self::lower`] of the byte sum the `k`-th largest maximum
    /// guarantees, which at least `k` distinct rows of the visit reach.
    /// `None` when fewer than `k` groups are sure to hold a row (`n < k`)
    /// or `k >= SEED_GROUPS`.
    fn seed(&self, maxima: &[u16; SEED_GROUPS], n: usize, k: usize) -> Option<f32> {
        if k == 0 || k > n || k >= SEED_GROUPS {
            return None;
        }
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: an image exists only where `quantise` asserted the
            // `avx512` level, which includes `avx512f`, `avx512bw` and
            // `popcnt`.
            let kth = unsafe { avx512::kth_largest(maxima, k) };
            Some(self.lower(self.guaranteed(kth)))
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("no u8 image off x86-64")
    }

    /// Asserts what the image's kernels assume of `codes[start .. start +
    /// count]`: codes of the image's width in rows of [`Self::row_bytes`]
    /// (8 or 16 byte codes, 4 or 8 bytes of nibbles, as `quantise` admits),
    /// inside the stream, row offsets within an `i32`.
    fn check(&self, codes: &PackedCodes, start: usize, count: usize) {
        let (m, vb) = (self.m, self.row_bytes());
        let (width, rows) = if self.kstar == 16 {
            (CodeWidth::U4, [4, 8])
        } else {
            (CodeWidth::U8, [8, 16])
        };
        assert!(
            codes.width() == width && codes.m() == m && codes.vector_bytes() == vb,
            "a u8 image of {m} tables of {} against {:?} codes, m = {}",
            self.kstar,
            codes.width(),
            codes.m()
        );
        assert!(rows.contains(&vb) && self.tables.len() >= Self::image_len(self.kstar, m));
        assert!((start + count) * vb <= codes.bytes().len());
        assert!(
            count.max(64) * vb <= i32::MAX as usize,
            "row offsets must fit an i32"
        );
    }

    /// The byte-sum pass of a visitor group, one pass over the rows for
    /// every member with an image (`images[g]` for member `g`; `None`
    /// skips it): writes the stored sum (byte sum, or half sum for nibble
    /// codes) of every row of `codes[start .. start + count]` against
    /// member `g`'s image to `sums[g · padded .. (g + 1) · padded]`, row
    /// `r` at `r`, `padded` the count rounded up to whole 64-row chunks
    /// ([`whole_chunks`]; `sums` is grown, never shrunk, to `images.len()`
    /// of them), and returns, at `[g]`, the largest stored sum of each of
    /// [`SEED_GROUPS`] disjoint groups of those rows, 0 for a group with
    /// none (`avx512::byte_sums`, `avx512::half_sums`).
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty or longer than [`GROUP`], or if `codes`
    /// do not fit each image ([`Self::check`]).
    fn byte_sums(
        images: &[Option<Self>],
        codes: &PackedCodes,
        start: usize,
        count: usize,
        sums: &mut Vec<u16>,
    ) -> [[u16; SEED_GROUPS]; GROUP] {
        assert!((1..=GROUP).contains(&images.len()));
        for image in images.iter().flatten() {
            image.check(codes, start, count);
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("no u8 image off x86-64");
        #[cfg(target_arch = "x86_64")]
        {
            let mut maxima = [[0; SEED_GROUPS]; GROUP];
            let padded = whole_chunks(count);
            if padded == 0 {
                return maxima;
            }
            if sums.len() < images.len() * padded {
                sums.resize(images.len() * padded, 0);
            }
            // The members with an image, in group order: their tables,
            // their slots and their sums.
            let (mut tables, mut slots, mut q) = ([&[][..]; GROUP], [0; GROUP], 0);
            for (g, image) in images.iter().enumerate() {
                if let Some(image) = image {
                    (tables[q], slots[q]) = (image.tables, g);
                    q += 1;
                }
            }
            let mut member_sums = sums
                .chunks_exact_mut(padded)
                .zip(images)
                .filter_map(|(sums, image)| image.is_some().then_some(sums));
            let bytes = codes.bytes();
            /// The pass `$pass` over rows of `$nd` dwords for the `$q`
            /// members.
            macro_rules! pass {
                ($pass:ident, $nd:literal, $q:literal) => {{
                    let sums: [&mut [u16]; $q] =
                        std::array::from_fn(|_| member_sums.next().expect("sums per member"));
                    let tables: [&[u8]; $q] = std::array::from_fn(|i| tables[i]);
                    for (slot, out) in slots
                        .into_iter()
                        .zip(avx512::$pass::<$nd, $q>(bytes, start, count, tables, sums))
                    {
                        maxima[slot] = out;
                    }
                }};
            }
            // SAFETY: an image exists only where `quantise` asserted the
            // `avx512` level (`avx512f`, `avx512bw`, `avx512vbmi`); `check`
            // asserted, for every member, codes of the image's width in
            // rows of `4 · $nd` bytes (the arm taken: 4 and 8 for nibbles,
            // 8 and 16 for bytes, with `m == 4 · $nd` for bytes), the range
            // inside the stream and the image's bytes; each member's sums
            // are a chunk of `padded`, the range in whole chunks; `$q` is
            // the number of members.
            unsafe {
                match (codes.width(), codes.vector_bytes(), q) {
                    (_, _, 0) => {}
                    (CodeWidth::U4, 4, 1) => pass!(half_sums, 1, 1),
                    (CodeWidth::U4, 4, 2) => pass!(half_sums, 1, 2),
                    (CodeWidth::U4, 4, 3) => pass!(half_sums, 1, 3),
                    (CodeWidth::U4, 4, _) => pass!(half_sums, 1, 4),
                    (CodeWidth::U4, _, 1) => pass!(half_sums, 2, 1),
                    (CodeWidth::U4, _, 2) => pass!(half_sums, 2, 2),
                    (CodeWidth::U4, _, 3) => pass!(half_sums, 2, 3),
                    (CodeWidth::U4, _, _) => pass!(half_sums, 2, 4),
                    (_, 8, 1) => pass!(byte_sums, 2, 1),
                    (_, 8, 2) => pass!(byte_sums, 2, 2),
                    (_, 8, 3) => pass!(byte_sums, 2, 3),
                    (_, 8, _) => pass!(byte_sums, 2, 4),
                    (_, _, 1) => pass!(byte_sums, 4, 1),
                    (_, _, 2) => pass!(byte_sums, 4, 2),
                    (_, _, 3) => pass!(byte_sums, 4, 3),
                    _ => pass!(byte_sums, 4, 4),
                }
            }
            maxima
        }
    }
}

/// The exact step of a seeded kernel (module docs, layer 2), the seeded
/// shapes' only f32 scorer: scores against `lut` the candidates among rows
/// `[start, start + count)` of `codes` and keeps in `sink` those whose
/// score reaches its threshold, positions ascending. With `bound` — the u8
/// image quantised from `lut` and the stored sums [`ByteBound::byte_sums`]
/// left it for the same range — the candidates are the rows whose sum can
/// reach the threshold (`avx512::candidates`); without one, every row.
/// Returns `(scores the sink kept, candidates scored)`.
///
/// # Panics
///
/// Panics if `kernel` does not seed, as [`score_block`] does, if the image
/// does not fit the codes and `lut` ([`ByteBound::check`]) or if `sums` is
/// shorter than the range in whole chunks.
fn exact_step(
    kernel: Kernel,
    codes: &PackedCodes,
    start: usize,
    count: usize,
    lut: &Lut,
    bound: Option<(ByteBound<'_>, &[u16])>,
    sink: &mut Sink<'_>,
) -> (usize, usize) {
    assert!(kernel.seeds(), "{kernel:?} has no exact step");
    check_block(kernel, codes, start, count, lut, sink);
    let bound = bound.map(|(image, sums)| {
        image.check(codes, start, count);
        assert!(image.kstar == lut.kstar() && sums.len() >= whole_chunks(count));
        // No bound below the threshold: every row is a candidate.
        let least = image.least_stored(image.min_sum(sink.threshold).unwrap_or(0));
        (image, sums, least)
    });
    if bound.is_none() {
        for (j, position) in sink.positions[..count].iter_mut().enumerate() {
            *position = j as u32;
        }
    }
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `check_block` asserted the `avx512` level (`avx512f`,
    // `avx512bw`, `avx512vbmi`, `popcnt`) and, through `kernel.fits`, the
    // row shape of the arm taken — nibbles in rows of `4 · nd` bytes against
    // 16-entry tables, or `m = 4 · nd` byte codes against 256-entry ones —
    // the table count, the range, the row offsets and the `count +
    // SINK_SLACK` sink slots (the compaction writes below `count + 4`);
    // `check` and the assert above, the image's layout and the sums' whole
    // chunks, in row order. Every candidate is a row of the range: all of
    // them, or those the compaction keeps.
    unsafe {
        let candidates = match bound {
            Some((_, sums, least)) => avx512::candidates(sums, count, least, sink.positions),
            None => count,
        };
        let (m, entries, bias) = (codes.m(), lut.entries(), lut.bias());
        let bytes = codes.bytes();
        macro_rules! exact {
            ($kstar:literal, $nd:literal) => {
                avx512::exact::<$kstar, $nd>(m, bytes, start, candidates, entries, bias, sink)
            };
        }
        let kept = match kernel {
            Kernel::Avx512Lut16 { nd: 1 } => exact!(16, 1),
            Kernel::Avx512Lut16 { .. } => exact!(16, 2),
            Kernel::Avx512Gather { nd: 2 } => exact!(256, 2),
            _ => exact!(256, 4),
        };
        (kept, candidates)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("no AVX-512 off x86-64")
}

/// Work counters returned by a scan. Feeds the `kernel.codes_scanned` /
/// `kernel.pruned` / `kernel.bound_rejected` / `kernel.exact` telemetry
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanTally {
    /// Encoded vectors scored, once per visitor (a grouped scan of `n`
    /// codes for `q` visitors scores `q · n`).
    pub scanned: u64,
    /// `scanned` minus the candidates actually offered to the selector:
    /// a score counts as pruned exactly when it was below the visit's
    /// threshold *at the moment it would have been offered*. Dispatches
    /// that share a threshold source report the same number from the same
    /// starting `TopK`. Every scan without a seed (`Blocked`, `Avx2`, the
    /// `avx512` gather kernel, and a seeded kernel's visitor whose LUT has
    /// no u8 image) tests against the selector's live threshold: the
    /// survivors sink compares against a copy frozen per block (a tile, or
    /// the whole cluster), but the lanes it keeps are re-checked against
    /// the live one before the push, so the frozen copy never shows here
    /// (`Scalar`, which pushes every score, reports 0). The live threshold is the
    /// selector's floor, which lags the true `k`-th best between settles.
    /// An `avx512` seeded visit — `k* = 16` over 4- and 8-byte rows, `k* =
    /// 256` over 8- and 16-byte rows — tests against the higher of the
    /// floor and its seed, a proven lower bound on the `k`-th best (module
    /// docs), so it prunes more: one query's visit list at the benchmark's
    /// shape (`tests/scan_select_oracle.rs`) offers at most 0.6× what the
    /// floor alone lets through, at either width. Schedule-dependent (the
    /// threshold tightens as the scan proceeds), so this is a telemetry
    /// quantity, not a determinism-checked one.
    pub pruned: u64,
    /// Of `pruned`, the scores an `avx512` seeded visit never computed:
    /// rows whose u8 upper bound fell below the visit's threshold
    /// (`avx512::candidates`). Always `<=
    /// pruned` — such a score is below that threshold too — and 0 on every
    /// other dispatch and row shape. Schedule-dependent like `pruned`.
    pub bound_rejected: u64,
    /// Rows scored at f32: on a seeded visit, the candidates its exact
    /// step scored; on every other scan, every row. So `exact +
    /// bound_rejected == scanned`, and `exact >= scanned − pruned` (a
    /// score is offered only once it exists). Schedule-dependent like
    /// `pruned`.
    pub exact: u64,
}

impl ScanTally {
    /// Adds another tally into this one.
    pub fn accumulate(&mut self, other: &ScanTally) {
        self.scanned += other.scanned;
        self.pruned += other.pruned;
        self.bound_rejected += other.bound_rejected;
        self.exact += other.exact;
    }
}

/// The code that scores a scan's blocks, chosen once per scan by
/// [`Kernel::select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// The seed scan (`scalar`): every score pushed, no block scored. A
    /// block under it ([`score_all`]) comes from the row loop alone.
    Scalar,
    /// The four-row blocked kernel (`blocked`), both widths.
    Blocked,
    /// The AVX2 LUT16 kernel (`avx2`): nibble codes against 16-entry
    /// tables, 32 per iteration, rows of at most eight dwords.
    Avx2Lut16,
    /// The AVX-512 seeded kernel for nibble codes in rows of `nd` whole
    /// dwords (4- and 8-byte rows): a seeded visit per cluster, its
    /// candidates scored by [`exact_step`].
    Avx512Lut16 { nd: usize },
    /// The AVX-512 kernels for byte codes in rows of four bytes or more
    /// against 256-entry tables. Rows of `nd` whole dwords (`nd` 2 or 4: 8-
    /// and 16-byte rows) seed, as `Avx512Lut16` does; every other width
    /// (`nd` 0) runs the gather kernel, its code dwords gathered.
    Avx512Gather { nd: usize },
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
            (D::Avx512, CodeWidth::U8) if vb >= 4 && kstar == 256 => Kernel::Avx512Gather {
                nd: if vb == 8 || vb == 16 { vb / 4 } else { 0 },
            },
            (D::Blocked, _) | (D::Avx2 | D::Avx512, CodeWidth::U8) => Kernel::Blocked,
        }
    }

    /// How many visitors of one cluster this kernel scores per call:
    /// [`GROUP`] for the kernels that seed, one for every other.
    fn group(self) -> usize {
        if self.seeds() {
            GROUP
        } else {
            1
        }
    }

    /// Whether a scan with this kernel takes seeded visits — bounded for
    /// every visitor whose LUT has a u8 image (`ByteBound`) — and scores
    /// with [`exact_step`]: nibble codes in 4- and 8-byte rows and byte
    /// codes in 8- and 16-byte rows, under `avx512`.
    fn seeds(self) -> bool {
        matches!(
            self,
            Kernel::Avx512Lut16 { .. } | Kernel::Avx512Gather { nd: 2 | 4 }
        )
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
/// dispatch selects for the codes scores a block into a survivors sink,
/// and only the kept lanes that still pass the live threshold are offered.
/// Where an `avx512` kernel seeds — nibble codes in 4- or 8-byte rows,
/// byte codes in 8- or 16-byte rows — up to four visitors share a seeded
/// visit instead of tiles: each visitor's LUT is quantised into `scratch`,
/// one pass over the rows gives every visitor with a u8 image the sums it
/// seeds and bounds its scan with, and each scores and offers its own
/// candidates (a visitor without one, every row). Every other kernel scans
/// the visitors one after another, tile by tile. Either way each selector meets the same
/// offers in the same order as a [`scan_with`] of its own, so every `top`
/// and the returned tally (summed over the visitors) are bit-identical to
/// that; every `top` is bit-identical on every dispatch (see the module
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
        return ScanTally {
            scanned,
            exact: scanned,
            ..ScanTally::default()
        };
    }

    // Candidates offered to the selectors, and rows scored at f32.
    let (mut offered, mut exact) = (0u64, 0u64);
    for (luts, tops) in luts
        .chunks(kernel.group())
        .zip(tops.chunks_mut(kernel.group()))
    {
        if kernel.seeds() {
            let (seeded, scored) = seeded_visits(kernel, kstar, codes, ids, luts, tops, scratch);
            offered += seeded;
            exact += scored;
        } else {
            for (lut, top) in luts.iter().zip(tops) {
                offered += tiled_visit(kernel, codes, ids, lut, top, &mut scratch.survivors);
                exact += n as u64;
            }
        }
    }
    ScanTally {
        scanned,
        pruned: scanned - offered,
        bound_rejected: scanned - exact,
        exact,
    }
}

/// Scans all of `codes` for one visitor — `lut` into `top` — tile by tile:
/// each tile is scored into a survivors sink against the threshold frozen
/// for the tile, and the kept lanes are offered before the next tile.
/// Returns how many candidates it offered.
fn tiled_visit(
    kernel: Kernel,
    codes: &PackedCodes,
    ids: &[u64],
    lut: &Lut,
    top: &mut TopK,
    survivors: &mut Survivors,
) -> u64 {
    let (n, vb) = (codes.len(), codes.vector_bytes());
    let mut offered = 0;
    let mut start = 0;
    while start < n {
        let count = (n - start).min(TILE);
        // Overlap the next block's DRAM fetch with this block's scoring:
        // the scan streams each cluster exactly once, so the hardware
        // prefetcher restarts cold at every cluster boundary — a software
        // hint per upcoming tile keeps the scan bandwidth-shaped instead
        // of latency-bound (the EFM's job in hardware, Section III-B).
        let next = start + count;
        if next < n {
            prefetch_read(codes.bytes(), next * vb, (n - next).min(TILE) * vb);
        }
        // The kernel filters against a copy of the threshold frozen for
        // this tile. The live one only rises, so its frozen copy admits a
        // superset of what can still enter; each kept lane is re-checked
        // before it pays the push. `>=` (not `>`) keeps the
        // equal-score/lower-id tie-break exact.
        let kept = score_block(
            kernel,
            codes,
            start,
            count,
            lut,
            &mut survivors.sink(top.threshold(), count),
        );
        let (positions, scores) = survivors.kept(kept);
        offered += top.offer_survivors(&ids[start..next], positions, scores);
        start = next;
    }
    offered
}

/// The seeded visit (module docs, "Why a seeded threshold is exact") of
/// every member of a visitor group — `luts[g]` into `tops[g]`, tables of
/// `kstar` entries: each member's bound comes from its LUT's u8 image
/// ([`ByteBound::of`]); one byte-sum pass over the rows gives each member
/// with an image every row's stored
/// sum and [`SEED_GROUPS`] disjoint groups' maxima; then, one member after
/// another, the threshold is the higher of its selector's and its seed
/// where there is one, every row whose sum can reach it (every row, for a
/// member without an image) is scored by the exact step into one
/// cluster-wide candidate list, and the kept lanes are offered in
/// ascending position. Returns `(offered, rows scored at f32)`.
fn seeded_visits(
    kernel: Kernel,
    kstar: usize,
    codes: &PackedCodes,
    ids: &[u64],
    luts: &[Lut],
    tops: &mut [TopK],
    scratch: &mut ScanScratch,
) -> (u64, u64) {
    let n = codes.len();
    let mut images = [None; GROUP];
    for (lut, image) in luts.iter().zip(&mut images) {
        assert_eq!(lut.kstar(), kstar, "a seeded group of one table size");
        *image = ByteBound::of(lut);
    }
    let images = &images[..luts.len()];
    let maxima = ByteBound::byte_sums(images, codes, 0, n, &mut scratch.sums);
    let padded = whole_chunks(n);
    let (mut offered, mut scored) = (0, 0);
    for (g, ((lut, top), &image)) in luts.iter().zip(tops).zip(images).enumerate() {
        let floor = top.threshold();
        let threshold = image
            .and_then(|image| image.seed(&maxima[g], n, top.k()))
            .map_or(floor, |seed| seed.max(floor));
        let bound = image.map(|image| (image, &scratch.sums[g * padded..(g + 1) * padded]));
        let mut sink = scratch.survivors.sink(threshold, n);
        let (kept, candidates) = exact_step(kernel, codes, 0, n, lut, bound, &mut sink);
        let (positions, scores) = scratch.survivors.kept(kept);
        offered += top.offer_survivors(ids, positions, scores);
        scored += candidates as u64;
    }
    (offered, scored)
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

/// Where a kernel puts the scores of a block: only the vectors with
/// `score >= threshold`, as parallel `(position in the block, score)`
/// arrays in ascending position. NaN scores never pass (the comparison is
/// ordered). Both slices must hold at least the block's vector count plus
/// [`SINK_SLACK`]; what lies past the survivors afterwards is junk.
struct Sink<'a> {
    threshold: f32,
    positions: &'a mut [u32],
    scores: &'a mut [f32],
}

impl Sink<'_> {
    /// Hands the sink the score of block position `j`, with `written`
    /// scores already in it; returns how many it holds afterwards. Scalar
    /// kernels put their scores one at a time, in ascending position.
    fn put(&mut self, written: usize, j: usize, score: f32) -> usize {
        if score >= self.threshold {
            self.positions[written] = j as u32;
            self.scores[written] = score;
            written + 1
        } else {
            written
        }
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

/// Asserts what every kernel assumes of a block of `codes[start ..
/// start + count]` scored against `lut` into `sink`: see
/// [`score_block`]'s panics.
fn check_block(
    kernel: Kernel,
    codes: &PackedCodes,
    start: usize,
    count: usize,
    lut: &Lut,
    sink: &Sink<'_>,
) {
    let (m, width, vb, kstar) = (codes.m(), codes.width(), codes.vector_bytes(), lut.kstar());
    assert!(
        kernel.fits(codes, kstar),
        "{kernel:?} cannot score {width:?} codes, m = {m}, k* = {kstar}"
    );
    if width == CodeWidth::U4 && kernel != Kernel::Scalar {
        assert_eq!(kstar, 16, "u4 kernel requires a 16-entry LUT");
    }
    let isa = match kernel {
        Kernel::Scalar | Kernel::Blocked => KernelDispatch::Blocked,
        Kernel::Avx2Lut16 => KernelDispatch::Avx2,
        _ => KernelDispatch::Avx512,
    };
    assert!(isa.is_available(), "SIMD kernel on a host without its ISA");
    assert!(m * kstar <= lut.entries().len());
    assert!((start + count) * vb <= codes.bytes().len());
    assert!(
        count.max(64) * vb <= i32::MAX as usize,
        "row offsets must fit an i32"
    );
    assert!(
        count + SINK_SLACK <= sink.positions.len().min(sink.scores.len()),
        "survivors buffers need {SINK_SLACK} slots of slack"
    );
}

/// Scores vectors `[start, start + count)` against `lut` with `kernel`
/// into `sink`; returns how many scores the sink kept. A seeded kernel
/// hands every row to its exact step ([`exact_step`]).
///
/// Whatever rows a kernel leaves — the blocked kernel's last `count % 4`,
/// the AVX2 kernel's past its last whole 32-vector chunk (all of them for
/// rows wider than it keeps per lane), and every row under
/// [`Kernel::Scalar`] — are finished by [`score_row`] in ascending
/// position.
///
/// # Panics
///
/// Panics if `kernel` does not fit the codes and the LUT
/// ([`Kernel::fits`]), the host lacks the ISA a SIMD kernel needs, u4
/// codes meet a non-16-entry LUT under any kernel but [`Kernel::Scalar`]
/// (the row loop reads each table at its own stride), the LUT has fewer
/// tables than the codes have subquantizers, the range exceeds
/// `codes.len()`, or a sink slice is shorter than `count + SINK_SLACK`.
fn score_block(
    kernel: Kernel,
    codes: &PackedCodes,
    start: usize,
    count: usize,
    lut: &Lut,
    sink: &mut Sink<'_>,
) -> usize {
    if kernel.seeds() {
        return exact_step(kernel, codes, start, count, lut, None, sink).0;
    }
    check_block(kernel, codes, start, count, lut, sink);
    let (m, vb, bytes) = (codes.m(), codes.vector_bytes(), codes.bytes());
    let (entries, bias) = (lut.entries(), lut.bias());
    let (done, mut written) = match kernel {
        Kernel::Scalar => (0, 0),
        Kernel::Blocked => blocked::score_block(codes, start, count, lut, sink),
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("no SIMD kernel off x86-64"),
        // SAFETY: `check_block` asserted the ISA of whichever kernel the
        // match calls (the `avx512` level covers the gather kernel's
        // `popcnt`) and, through `kernel.fits`, the shape each assumes: for
        // the gather kernel, byte codes with `m >= 4` against 256-entry
        // tables, so every byte code indexes inside its table; for the AVX2
        // kernel, nibble codes against 16-entry tables (the u4 assert).
        // Its range, table-count, row-offset and sink-length asserts are
        // the kernels' other preconditions.
        #[cfg(target_arch = "x86_64")]
        _ => unsafe {
            match kernel {
                Kernel::Avx2Lut16 => {
                    avx2::lut16_kernel(m, vb, bytes, start, count, entries, bias, sink)
                }
                _ => avx512::gather_kernel(m, bytes, start, count, entries, bias, sink),
            }
        },
    };

    for j in done..count {
        written = sink.put(written, j, score_row(codes, lut, start + j));
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

/// [`score_all`] under an explicit dispatch: each tile is scored into
/// survivors at `−∞` and scattered into place. `−∞` keeps every score but
/// NaN, so the rows it rejects are exactly the NaN ones, and the row loop
/// fills those in.
///
/// # Panics
///
/// Panics if the LUT shape does not match the codes, or if u4 codes meet a
/// non-16-entry LUT under any dispatch but [`KernelDispatch::Scalar`].
pub fn score_all_with(codes: &PackedCodes, lut: &Lut, dispatch: KernelDispatch) -> Vec<f32> {
    assert_eq!(codes.m(), lut.m(), "LUT table count mismatch");
    let kernel = Kernel::select(dispatch, codes, lut.kstar());
    let mut survivors = Survivors::default();
    let mut out = vec![f32::NAN; codes.len()];
    for (block, tile) in out.chunks_mut(TILE).enumerate() {
        let count = tile.len();
        let mut sink = survivors.sink(f32::NEG_INFINITY, count);
        let kept = score_block(kernel, codes, block * TILE, count, lut, &mut sink);
        let (positions, scores) = survivors.kept(kept);
        for (&j, &score) in positions.iter().zip(scores) {
            tile[j as usize] = score;
        }
    }
    for (v, score) in out.iter_mut().enumerate() {
        if score.is_nan() {
            *score = score_row(codes, lut, v);
        }
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
    /// and 40-entry tables are what scarce training data leaves; 8- and
    /// 16-byte rows of byte codes are the gather kernel's row-loaded
    /// widths.
    #[test]
    fn select_truth_table_is_exhaustive() {
        use KernelDispatch::{Avx2, Avx512, Blocked, Scalar};
        let kernel = |c: char| match c {
            'S' => Kernel::Scalar,
            'B' => Kernel::Blocked,
            'A' => Kernel::Avx2Lut16,
            '1' => Kernel::Avx512Lut16 { nd: 1 },
            '2' => Kernel::Avx512Lut16 { nd: 2 },
            'G' => Kernel::Avx512Gather { nd: 0 },
            'H' => Kernel::Avx512Gather { nd: 2 },
            'Q' => Kernel::Avx512Gather { nd: 4 },
            _ => panic!("no kernel {c}"),
        };
        let groups = [
            ('S', 1),
            ('B', 1),
            ('A', 1),
            ('1', GROUP),
            ('2', GROUP),
            ('G', 1),
            ('H', GROUP),
            ('Q', GROUP),
        ];
        for (c, group) in groups {
            assert_eq!(kernel(c).group(), group, "{c}");
        }
        let row_bytes = [1usize, 2, 4, 8, 12, 16, 33];
        let kstars = [16usize, 19, 40, 256];
        // Per row width, the kernel for each k*.
        let rows = [
            (Scalar, CodeWidth::U4, "SSSS SSSS SSSS SSSS SSSS SSSS SSSS"),
            (Scalar, CodeWidth::U8, "SSSS SSSS SSSS SSSS SSSS SSSS SSSS"),
            (Blocked, CodeWidth::U4, "BBBB BBBB BBBB BBBB BBBB BBBB BBBB"),
            (Blocked, CodeWidth::U8, "BBBB BBBB BBBB BBBB BBBB BBBB BBBB"),
            (Avx2, CodeWidth::U4, "AAAA AAAA AAAA AAAA AAAA AAAA AAAA"),
            (Avx2, CodeWidth::U8, "BBBB BBBB BBBB BBBB BBBB BBBB BBBB"),
            (Avx512, CodeWidth::U4, "AAAA AAAA 1111 2222 AAAA AAAA AAAA"),
            (Avx512, CodeWidth::U8, "BBBB BBBB BBBG BBBH BBBG BBBQ BBBG"),
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

    /// A LUT whose entries are `words` (`m` tables of `kstar`): one-
    /// dimensional codewords against a query of ones, built on the widest
    /// dispatch this host runs, so that a seeded scan finds the u8 image
    /// it would build whatever the process-wide dispatch is.
    fn lut_of(words: &[f32], m: usize, kstar: usize) -> Lut {
        let book = PqCodebook::from_books(
            words
                .chunks(kstar)
                .map(|book| VectorSet::from_vec(1, book.to_vec()))
                .collect(),
        );
        let widest = *KernelDispatch::available().last().expect("scalar runs");
        Lut::build_ip_with(widest, &vec![1.0; m], &book, LutPrecision::F32)
    }

    /// The table families the survivors and bound tests draw from: entries
    /// uniform in `±8` with NaN, `±inf` and `-0.0` planted (no u8 image);
    /// the same, finite (`-0.0` only); every table constant (zero range,
    /// no image); one outlier of `±1e6` per table beside entries in `±1`,
    /// table 0 constant; magnitudes spread from `1e-30` to `1e30`, either
    /// sign; and entries a hair below a quantisation step (`0` and `255`
    /// fix the step at 1, every other entry is `k + 1 − 2^-10`), where the
    /// bound is within `m · 2^-10` of the score.
    const FAMILIES: [&str; 6] = [
        "hostile",
        "uniform",
        "constant",
        "outlier",
        "magnitudes",
        "steps",
    ];

    fn family_words(
        rng: &mut anna_testkit::TestRng,
        family: &str,
        m: usize,
        kstar: usize,
    ) -> Vec<f32> {
        let mut words: Vec<f32> = match family {
            "constant" => (0..m)
                .flat_map(|_| vec![rng.f32(-8.0..8.0); kstar])
                .collect(),
            "outlier" => (0..m * kstar).map(|_| rng.f32(-1.0..1.0)).collect(),
            "magnitudes" => (0..m * kstar)
                .map(|_| {
                    let sign = if rng.below(2) == 0 { -1.0 } else { 1.0 };
                    sign * 10f32.powf(rng.f32(-30.0..30.0))
                })
                .collect(),
            "steps" => (0..m * kstar)
                .map(|at| match at % kstar {
                    0 => 0.0,
                    c if c == kstar - 1 => 255.0,
                    _ => (rng.below(255) + 1) as f32 - 2f32.powi(-10),
                })
                .collect(),
            _ => (0..m * kstar).map(|_| rng.f32(-8.0..8.0)).collect(),
        };
        match family {
            "hostile" => {
                for hostile in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0] {
                    let at = rng.usize(0..words.len());
                    words[at] = hostile;
                }
            }
            "uniform" => {
                let at = rng.usize(0..words.len());
                words[at] = -0.0;
            }
            "outlier" => {
                for (i, table) in words.chunks_mut(kstar).enumerate() {
                    if i == 0 {
                        table.fill(0.25);
                    } else {
                        let at = rng.usize(0..kstar);
                        table[at] = if rng.below(2) == 0 { -1e6 } else { 1e6 };
                    }
                }
            }
            _ => {}
        }
        words
    }

    /// The sink-level statement behind the survivors scan: under the
    /// kernel of every available dispatch, what the [`Sink`] keeps at a
    /// threshold is exactly what [`score_block`] keeps at `−∞` filtered by
    /// `score >= threshold`, positions ascending — for a threshold that
    /// keeps everything but NaN (`-inf`), two inside the score range, one
    /// only `+inf` scores reach, and, at the edge of the `avx512` bound
    /// pass, each block's own best score, a middle one, and the next f32
    /// above and below each — and nothing is written past the sink's
    /// `count + SINK_SLACK` slots. What `−∞` keeps is every row whose score
    /// is not NaN, each the row loop's ([`score_row`]) bit for bit. A table
    /// goes through its u8 image where it has one, as a seeded visit does:
    /// one byte-sum pass for a group of one to [`GROUP`] images, every
    /// member with its own table and its own threshold, each threshold at
    /// every member position, then each member's bounded exact step; a
    /// table without one is scored by [`score_block`] (under a seeded
    /// kernel, the exact step over every row). Nibble shapes cover both
    /// seeded row widths and images (`m` 7 and 8: 4-byte rows; 16: 8-byte),
    /// the width `avx512` hands to AVX2 (`m` 24) and one wider than AVX2
    /// keeps per lane, which it leaves whole to the row loop (`m` 66); byte
    /// shapes cover the gather kernel with gathered whole dwords (`m` 4),
    /// the seeded rows and the u8 image (`m` 8, 16) and the shifted last
    /// dword (`m` 5, 7, 17), and
    /// the blocked kernel under every dispatch (`m` 2 against a 40-entry
    /// table). Counts sit on both sides of the four-row group, the 16-lane
    /// group, the 32- and 64-lane chunks and a whole tile; tables come from
    /// every one of [`FAMILIES`].
    #[test]
    fn survivors_at_a_threshold_are_the_survivors_at_neg_infinity_filtered() {
        const GUARD: usize = 8;
        const UNTOUCHED: u32 = 0x7FC0_DEAD;
        let fixed = [f32::NEG_INFINITY, 0.5, f32::INFINITY, -3.0];
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
            (CodeWidth::U8, 8, 256),
            (CodeWidth::U8, 16, 256),
            (CodeWidth::U8, 17, 256),
        ];
        let (mut tables, mut sums) = (vec![0; GROUP * 16 * 256], Vec::new());
        let mut unfiltered = Survivors::default();
        let mut rejected = [0; 2];
        for (width, m, kstar) in shapes {
            for family in FAMILIES {
                let luts: Vec<Lut> = (0..GROUP)
                    .map(|_| lut_of(&family_words(&mut rng, family, m, kstar), m, kstar))
                    .collect();
                for n in [1, 3, 4, 5, 15, 16, 17, 63, 64, 65, 255, 256] {
                    let codes = random_codes(&mut rng, m, width, kstar, n + 3);
                    // A block that starts inside the stream, as tiles do.
                    let start = 3;
                    for dispatch in KernelDispatch::available() {
                        let kernel = Kernel::select(dispatch, &codes, kstar);
                        // Per member, `(position, score)` of what `−∞` keeps.
                        let everything: Vec<Vec<(u32, f32)>> = luts
                            .iter()
                            .map(|lut| {
                                let mut sink = unfiltered.sink(f32::NEG_INFINITY, n);
                                let kept = score_block(kernel, &codes, start, n, lut, &mut sink);
                                let (positions, scores) = unfiltered.kept(kept);
                                let kept: Vec<(u32, f32)> = positions
                                    .iter()
                                    .copied()
                                    .zip(scores.iter().copied())
                                    .collect();
                                let want: Vec<(u32, u32)> = (0..n as u32)
                                    .map(|j| (j, score_row(&codes, lut, start + j as usize)))
                                    .filter(|(_, score)| !score.is_nan())
                                    .map(|(j, score)| (j, score.to_bits()))
                                    .collect();
                                let got: Vec<(u32, u32)> =
                                    kept.iter().map(|&(j, s)| (j, s.to_bits())).collect();
                                assert_eq!(got, want, "{width:?} m={m} {family} n={n} {kernel:?}");
                                kept
                            })
                            .collect();
                        // Per member: the fixed thresholds, then its own
                        // block's best and middle finite scores with their
                        // f32 neighbours.
                        let thresholds: Vec<Vec<f32>> = everything
                            .iter()
                            .map(|kept| {
                                let mut list = fixed.to_vec();
                                let mut finite: Vec<f32> = kept
                                    .iter()
                                    .map(|&(_, s)| s)
                                    .filter(|s| s.is_finite())
                                    .collect();
                                finite.sort_by(f32::total_cmp);
                                for at in [finite.len().saturating_sub(1), finite.len() / 2] {
                                    let t = finite.get(at).copied().unwrap_or(0.0);
                                    list.extend([t, t.next_up(), t.next_down()]);
                                }
                                list
                            })
                            .collect();
                        let rotations = thresholds[0].len();
                        for group in 1..=GROUP {
                            for rotation in 0..rotations {
                                let threshold =
                                    |g: usize| thresholds[g][(g + rotation) % rotations];
                                let slots = n + SINK_SLACK + GUARD;
                                let mut buffers: Vec<(Vec<u32>, Vec<f32>)> = (0..group)
                                    .map(|_| {
                                        (
                                            vec![UNTOUCHED; slots],
                                            vec![f32::from_bits(UNTOUCHED); slots],
                                        )
                                    })
                                    .collect();
                                let images: Vec<Option<ByteBound>> = luts[..group]
                                    .iter()
                                    .zip(tables.chunks_exact_mut(16 * 256))
                                    .map(|(lut, tables)| ByteBound::quantise(kernel, lut, tables))
                                    .collect();
                                if images.iter().any(Option::is_some) {
                                    ByteBound::byte_sums(&images, &codes, start, n, &mut sums);
                                }
                                let padded = whole_chunks(n);
                                let kept: Vec<usize> = buffers
                                    .iter_mut()
                                    .zip(&images)
                                    .enumerate()
                                    .map(|(g, ((positions, scores), image))| {
                                        let mut sink = Sink {
                                            threshold: threshold(g),
                                            positions,
                                            scores,
                                        };
                                        let lut = &luts[g];
                                        match *image {
                                            Some(image) => {
                                                let bound = (image, &sums[g * padded..][..padded]);
                                                let (kept, scored) = exact_step(
                                                    kernel,
                                                    &codes,
                                                    start,
                                                    n,
                                                    lut,
                                                    Some(bound),
                                                    &mut sink,
                                                );
                                                rejected[usize::from(kstar == 16)] += n - scored;
                                                kept
                                            }
                                            None => score_block(
                                                kernel, &codes, start, n, lut, &mut sink,
                                            ),
                                        }
                                    })
                                    .collect();
                                for (g, (positions, scores)) in buffers.iter().enumerate() {
                                    let at = format!(
                                        "{width:?} m={m} {family} n={n} member {g} of {group} threshold={} {} {kernel:?}",
                                        threshold(g),
                                        dispatch.name()
                                    );
                                    let want: Vec<(u32, u32)> = everything[g]
                                        .iter()
                                        .filter(|&&(_, score)| score >= threshold(g))
                                        .map(|&(j, score)| (j, score.to_bits()))
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
        // The bounded steps ran and rejected rows at both table sizes
        // wherever the host has them.
        for rejected in rejected {
            assert_eq!(rejected > 0, KernelDispatch::Avx512.is_available());
        }
    }

    /// A codebook of `m` tables of `kstar` codewords of `sub` dimensions,
    /// a query and a centroid, for [`tables_and_image_are_the_reference`]:
    /// `uniform` (values in `±8`); `integers` (small integers, the residual
    /// planted as a codeword of every table, so L2 entries of `−0.0` and
    /// exact ties); `nan` and `inf` (a NaN, or a `±1e25` in the query and a
    /// codeword, so some entries are NaN or `±∞`); `constant` (every
    /// codeword of a table the same); and `edge` (a query of ones, a zero
    /// centroid and one codeword of the first book at `±E` — `E` among
    /// `2^60 − 2^36`, `2^60`, `2^120 − 2^100` and `2^120` — so `Σ max |e|`
    /// lands on either side of `2^120` at either metric).
    fn table_inputs(
        rng: &mut anna_testkit::TestRng,
        family: &str,
        m: usize,
        kstar: usize,
        sub: usize,
    ) -> (PqCodebook, Vec<f32>, Vec<f32>) {
        let dim = m * sub;
        let (mut q, mut centroid) = (rng.vec_f32(dim, -8.0..8.0), rng.vec_f32(dim, -2.0..2.0));
        let mut books: Vec<Vec<f32>> = (0..m)
            .map(|_| rng.vec_f32(kstar * sub, -8.0..8.0))
            .collect();
        match family {
            "integers" => {
                let int = |rng: &mut anna_testkit::TestRng| rng.below(24) as f32;
                q = (0..dim).map(|_| int(rng)).collect();
                centroid = (0..dim).map(|_| int(rng)).collect();
                for (i, book) in books.iter_mut().enumerate() {
                    book.iter_mut().for_each(|x| *x = int(rng) - 12.0);
                    let c = rng.usize(0..kstar);
                    for d in 0..sub {
                        book[c * sub + d] = q[i * sub + d] - centroid[i * sub + d];
                    }
                }
            }
            "nan" | "inf" => {
                let bad = if family == "nan" { f32::NAN } else { 1e25 };
                q[rng.usize(0..dim)] = bad;
                let book = rng.usize(0..m);
                let at = rng.usize(0..kstar * sub);
                books[book][at] = if rng.bool() { bad } else { -bad };
            }
            "constant" => {
                for book in &mut books {
                    let word = book[..sub].to_vec();
                    for c in 0..kstar {
                        book[c * sub..(c + 1) * sub].copy_from_slice(&word);
                    }
                }
            }
            "edge" => {
                q.fill(1.0);
                centroid.fill(0.0);
                let edge = *rng.pick(&[
                    2f32.powi(60) - 2f32.powi(36),
                    2f32.powi(60),
                    2f32.powi(120) - 2f32.powi(100),
                    2f32.powi(120),
                ]);
                let c = rng.usize(0..kstar);
                books[0][c * sub] = if rng.bool() { edge } else { -edge };
            }
            _ => {}
        }
        let books = books
            .into_iter()
            .map(|book| VectorSet::from_vec(sub, book))
            .collect();
        (PqCodebook::from_books(books), q, centroid)
    }

    /// The table-and-image pass ([`ByteImage::fill`]) against its
    /// reference, the table arms and then the reference quantise
    /// ([`ByteBound::quantise`]): at every seeded shape (`k* = 16` at `m`
    /// 7, 8, 15 and 16; `k* = 256` at `m` 8 and 16), sub-vectors of 1, 4,
    /// 5 and 8 dimensions (a tail alone, one quad, both, two quads), every
    /// [`table_inputs`] family, F32 and F16, L2 and inner product (biased
    /// by zero, `±1.5`, `±2^100`, `±∞` and NaN), an `avx512` build's
    /// entries equal the `scalar` build's bit for bit, and its image's
    /// bound ([`ByteBound::of`]) is the reference's — bytes, scale, floor
    /// and magnitude bit for bit, and `None` exactly where the reference
    /// is `None`. Both sides of `2^120` are reached with finite, varied
    /// tables.
    #[test]
    fn tables_and_image_are_the_reference() {
        use anna_vector::Metric;
        use KernelDispatch::{Avx512, Scalar};
        if !Avx512.is_available() {
            return;
        }
        let mut rng = anna_testkit::TestRng::new(0x7AB1E);
        let mut tables = vec![0; 16 * 256];
        // Images, `None`s, and finite varied tables on each side of 2^120.
        let (mut images, mut nones, mut sides) = (0, 0, [0; 2]);
        let shapes = [
            (CodeWidth::U4, 7, 16),
            (CodeWidth::U4, 8, 16),
            (CodeWidth::U4, 15, 16),
            (CodeWidth::U4, 16, 16),
            (CodeWidth::U8, 8, 256),
            (CodeWidth::U8, 16, 256),
        ];
        let families = ["uniform", "integers", "nan", "inf", "constant", "edge"];
        for (width, m, kstar) in shapes {
            let kernel = Kernel::select(Avx512, &PackedCodes::new(m, width), kstar);
            assert!(
                kernel.seeds() && seeded_tables(kstar, m),
                "m={m} k*={kstar}"
            );
            for sub in [1, 4, 5, 8] {
                for family in families {
                    let (book, q, centroid) = table_inputs(&mut rng, family, m, kstar, sub);
                    for precision in [LutPrecision::F32, LutPrecision::F16] {
                        for metric in [Metric::L2, Metric::InnerProduct] {
                            let build = |dispatch| match metric {
                                Metric::L2 => {
                                    Lut::build_l2_with(dispatch, &q, &centroid, &book, precision)
                                }
                                Metric::InnerProduct => {
                                    Lut::build_ip_with(dispatch, &q, &book, precision)
                                }
                            };
                            let (want, got) = (build(Scalar), build(Avx512));
                            let at = format!(
                                "m={m} k*={kstar} sub={sub} {family} {precision:?} {metric:?}"
                            );
                            let bits = |lut: &Lut| -> Vec<u32> {
                                lut.entries().iter().map(|e| e.to_bits()).collect()
                            };
                            assert_eq!(bits(&got), bits(&want), "{at}");
                            assert!(
                                want.image().head.is_none(),
                                "{at}: a scalar build has an image"
                            );
                            let biases: &[f32] = match metric {
                                Metric::L2 => &[0.0],
                                Metric::InnerProduct => &[
                                    0.0,
                                    1.5,
                                    -1.5,
                                    2f32.powi(100),
                                    -(2f32.powi(100)),
                                    f32::INFINITY,
                                    f32::NEG_INFINITY,
                                    f32::NAN,
                                ],
                            };
                            for &bias in biases {
                                let (want, got) = (want.with_bias(bias), got.with_bias(bias));
                                let at = format!("{at} bias={bias}");
                                let reference = ByteBound::quantise(kernel, &want, &mut tables);
                                let made = ByteBound::of(&got);
                                let finite = want.entries().iter().all(|e| e.is_finite())
                                    && bias.is_finite()
                                    && family != "constant";
                                match (reference, made) {
                                    (None, None) => {
                                        nones += 1;
                                        sides[1] += usize::from(finite);
                                    }
                                    (Some(a), Some(b)) => {
                                        images += 1;
                                        assert_eq!((a.m, a.kstar), (b.m, b.kstar), "{at}");
                                        assert_eq!(a.tables, b.tables, "{at}");
                                        assert_eq!(a.scale.to_bits(), b.scale.to_bits(), "{at}");
                                        assert_eq!(a.floor.to_bits(), b.floor.to_bits(), "{at}");
                                        assert_eq!(
                                            a.magnitude.to_bits(),
                                            b.magnitude.to_bits(),
                                            "{at}"
                                        );
                                        sides[0] += usize::from(a.magnitude > 2f64.powi(119));
                                    }
                                    (a, b) => panic!(
                                        "{at}: reference {}, the pass {}",
                                        if a.is_some() { "an image" } else { "none" },
                                        if b.is_some() { "an image" } else { "none" }
                                    ),
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(images > 0 && nones > 0, "{images} images, {nones} none");
        assert!(sides.iter().all(|&n| n > 0), "sides of 2^120: {sides:?}");
    }

    /// The shapes that take seeded visits under `avx512`, as `(code width,
    /// m, k*)`: byte codes in 8- and 16-byte rows, nibble codes in 4-byte
    /// rows (`m` 7, with a padding nibble, and 8) and 8-byte rows.
    const SEEDED_SHAPES: [(CodeWidth, usize, usize); 5] = [
        (CodeWidth::U8, 8, 256),
        (CodeWidth::U8, 16, 256),
        (CodeWidth::U4, 7, 16),
        (CodeWidth::U4, 8, 16),
        (CodeWidth::U4, 16, 16),
    ];

    /// A row's byte sum `Q` against `bound`'s image, and the sum the pass
    /// stores for it: `Q` itself for byte codes, the half sum
    /// `Σ_b ⌈(q_2b + q_2b+1) / 2⌉` over its bytes for nibble codes (a
    /// table past `m` contributes 0).
    fn image_sums(bound: &ByteBound, row: &[u8]) -> (u16, u16) {
        let byte = |i: usize| {
            row.get(i)
                .map_or(0, |&c| u16::from(bound.byte(i, c as usize)))
        };
        let q: u16 = (0..row.len()).map(byte).sum();
        if bound.kstar == 256 {
            return (q, q);
        }
        let half = (0..bound.row_bytes())
            .map(|b| (byte(2 * b) + byte(2 * b + 1)).div_ceil(2))
            .sum();
        (q, half)
    }

    /// The bound pass's premise, row by row: for LUTs of every finite
    /// family at the seeded shapes ([`SEEDED_SHAPES`]: 256-entry and
    /// 16-entry images) and biases from zero to `±1e6` and subnormal, a row
    /// whose exact f32 score — summed in `i = 0..m` order, bias added last
    /// — is the threshold is never rejected: its byte sum reaches
    /// [`ByteBound::min_sum`] of its own score, so the u8 upper bound is at
    /// least the score, and so does the sum the pass stores for it (a
    /// nibble row's half sum) against [`ByteBound::least_stored`]. Rows
    /// are random, all-zero, all-top, alternating zero and top (where the
    /// half sum's slack is spent) and each table's best code; the bound
    /// must also be tight enough to reject the worst random row against
    /// the best on the `uniform` family.
    #[test]
    fn byte_bound_is_at_least_the_exact_score_of_every_row() {
        if !KernelDispatch::Avx512.is_available() {
            return;
        }
        let mut rng = anna_testkit::TestRng::new(0xB0_0D);
        let mut tables = vec![0; 16 * 256];
        for (width, m, kstar) in SEEDED_SHAPES {
            let codes = PackedCodes::new(m, width);
            let kernel = Kernel::select(KernelDispatch::Avx512, &codes, kstar);
            for family in FAMILIES {
                for bias in [0.0f32, 1e6, -1e6, 3.5, f32::from_bits(1)] {
                    let words = family_words(&mut rng, family, m, kstar);
                    let lut = lut_of(&words, m, kstar).with_bias(bias);
                    let Some(bound) = ByteBound::quantise(kernel, &lut, &mut tables) else {
                        assert!(
                            matches!(family, "hostile" | "constant"),
                            "{family} has no image"
                        );
                        continue;
                    };
                    let mut rows: Vec<Vec<u8>> = (0..2_000)
                        .map(|_| (0..m).map(|_| rng.below(kstar as u64) as u8).collect())
                        .collect();
                    rows.push(vec![0; m]);
                    rows.push(vec![(kstar - 1) as u8; m]);
                    // Codes 0 and the last alternating: on the `steps`
                    // family both sit exactly on a step, and every nibble
                    // pair sums odd, so the half sum's `2H − vb` is the
                    // byte sum itself.
                    for first in [0, kstar - 1] {
                        rows.push(
                            (0..m)
                                .map(|i| (first ^ (i % 2 * (kstar - 1))) as u8)
                                .collect(),
                        );
                    }
                    rows.push(
                        (0..m)
                            .map(|i| {
                                let table = &lut.entries()[i * kstar..(i + 1) * kstar];
                                (0..kstar)
                                    .max_by(|&a, &b| table[a].total_cmp(&table[b]))
                                    .unwrap() as u8
                            })
                            .collect(),
                    );
                    let scored: Vec<(f32, u16, u16)> = rows
                        .iter()
                        .map(|row| {
                            let mut score = 0.0f32;
                            for (i, &c) in row.iter().enumerate() {
                                score += lut.get(i, c as usize);
                            }
                            let (sum, stored) = image_sums(&bound, row);
                            (score + lut.bias(), sum, stored)
                        })
                        .collect();
                    for (row, &(score, sum, stored)) in rows.iter().zip(&scored) {
                        if let Some(least) = bound.min_sum(score) {
                            let at = format!(
                                "{family} m={m} k*={kstar} bias={bias} row {row:?}: score {score}"
                            );
                            assert!(sum >= least, "{at}, bytes {sum} < {least}");
                            assert!(
                                stored >= bound.least_stored(least),
                                "{at}, stored {stored} < {}",
                                bound.least_stored(least)
                            );
                        }
                    }
                    if family == "uniform" {
                        let best = scored.iter().map(|s| s.0).fold(f32::MIN, f32::max);
                        let least = bound.min_sum(best).expect("a finite best score");
                        let worst = scored.iter().map(|s| s.2).min().unwrap();
                        assert!(
                            worst < bound.least_stored(least),
                            "m={m} k*={kstar} bias={bias}: nothing rejected"
                        );
                    }
                }
            }
        }
    }

    /// The candidate step reads row `r`'s sum where the sum pass left it,
    /// at `r` (row order, whatever sum slot the pass made it in,
    /// [`avx512::BYTE_SLOTS`], [`avx512::NIBBLE_SLOTS`]): a block whose
    /// row `r` has one code `v(r)` for every subquantizer — `r` itself for
    /// byte codes, a scrambled nibble for nibble codes, so that no two
    /// rows of a register or a slot pattern share it by construction —
    /// against tables whose image is the code's own byte (`c`, or `17·c`
    /// at `k* = 16`), bounds each row by its own score, so a threshold
    /// between two rows rejects exactly the rows below it.
    #[test]
    fn bound_pass_rejects_exactly_the_rows_below_its_threshold() {
        if !KernelDispatch::Avx512.is_available() {
            return;
        }
        let (mut tables, mut sums) = (vec![0; 16 * 256], Vec::new());
        for (width, m, kstar) in SEEDED_SHAPES {
            // Table i's entry c is c (or 17c over sixteen entries): the
            // image is that entry itself, so a row's score is `m` steps of
            // its code.
            let step = 255 / (kstar - 1);
            let words: Vec<f32> = (0..m)
                .flat_map(|_| (0..kstar).map(|c| (step * c) as f32))
                .collect();
            let lut = lut_of(&words, m, kstar);
            let code = |r: usize| {
                if kstar == 256 {
                    r
                } else {
                    ((r * 37) ^ (r >> 3)) % 16
                }
            };
            let mut codes = PackedCodes::new(m, width);
            for r in 0..200 {
                codes.push(&vec![code(r) as u8; m]);
            }
            let kernel = Kernel::select(KernelDispatch::Avx512, &codes, kstar);
            for (start, n) in [(0, 64), (0, 200), (7, 150), (130, 70)] {
                for cut in [0usize, 1, 7, 15, 31, 63, 64, 100, 199] {
                    let bound = ByteBound::quantise(kernel, &lut, &mut tables).expect("an image");
                    let threshold = (m * step * cut) as f32;
                    let mut positions = vec![0u32; n + SINK_SLACK];
                    let mut scores = vec![0.0f32; n + SINK_SLACK];
                    let mut sink = Sink {
                        threshold,
                        positions: &mut positions,
                        scores: &mut scores,
                    };
                    ByteBound::byte_sums(&[Some(bound)], &codes, start, n, &mut sums);
                    let bound = Some((bound, &sums[..]));
                    let (kept, scored) =
                        exact_step(kernel, &codes, start, n, &lut, bound, &mut sink);
                    let rejected = n - scored;
                    let want: Vec<u32> = (0..n as u32)
                        .filter(|&j| code(start + j as usize) >= cut)
                        .collect();
                    let at = format!("m={m} k*={kstar} start={start} n={n} cut={cut}");
                    assert_eq!(positions[..kept], want[..], "{at}");
                    // The bound is within a byte step or two of the
                    // score, so it rejects nearly every row below the cut.
                    let below = n - want.len();
                    assert!(
                        rejected <= below && rejected + 2 >= below,
                        "{at}: {rejected} of {below}"
                    );
                }
            }
        }
    }

    /// The seed's premise, row by row, mirroring
    /// [`byte_bound_is_at_least_the_exact_score_of_every_row`]: for LUTs of
    /// every finite family at the seeded shapes ([`SEEDED_SHAPES`]) and
    /// biases from zero to `±1e6` and subnormal, [`ByteBound::lower`] of a
    /// row's byte sum is at most its exact f32 score — summed in `i =
    /// 0..m` order, bias added last — and so is `lower` of what
    /// [`ByteBound::guaranteed`] makes of the sum the pass stores for it (a
    /// nibble row's half sum). Rows are random, all-zero, all-top,
    /// alternating zero and top (on the `steps` family, rows whose byte sum
    /// is exactly `2H − vb` and whose score is exactly its lower bound's
    /// premise) and each table's best and worst code; the bound must also
    /// be tight enough
    /// that the best row's lower bound beats the worst row's score on the
    /// `uniform` family.
    #[test]
    fn byte_bound_lower_is_at_most_the_exact_score_of_every_row() {
        if !KernelDispatch::Avx512.is_available() {
            return;
        }
        let mut rng = anna_testkit::TestRng::new(0x10_3E);
        let mut tables = vec![0; 16 * 256];
        for (width, m, kstar) in SEEDED_SHAPES {
            let codes = PackedCodes::new(m, width);
            let kernel = Kernel::select(KernelDispatch::Avx512, &codes, kstar);
            for family in FAMILIES {
                for bias in [0.0f32, 1e6, -1e6, 3.5, f32::from_bits(1)] {
                    let words = family_words(&mut rng, family, m, kstar);
                    let lut = lut_of(&words, m, kstar).with_bias(bias);
                    let Some(bound) = ByteBound::quantise(kernel, &lut, &mut tables) else {
                        assert!(
                            matches!(family, "hostile" | "constant"),
                            "{family} has no image"
                        );
                        continue;
                    };
                    let mut rows: Vec<Vec<u8>> = (0..2_000)
                        .map(|_| (0..m).map(|_| rng.below(kstar as u64) as u8).collect())
                        .collect();
                    rows.push(vec![0; m]);
                    rows.push(vec![(kstar - 1) as u8; m]);
                    // Codes 0 and the last alternating: on the `steps`
                    // family both sit exactly on a step, and every nibble
                    // pair sums odd, so the half sum's `2H − vb` is the
                    // byte sum itself.
                    for first in [0, kstar - 1] {
                        rows.push(
                            (0..m)
                                .map(|i| (first ^ (i % 2 * (kstar - 1))) as u8)
                                .collect(),
                        );
                    }
                    for best in [true, false] {
                        rows.push(
                            (0..m)
                                .map(|i| {
                                    let table = &lut.entries()[i * kstar..(i + 1) * kstar];
                                    let order =
                                        |a: &usize, b: &usize| table[*a].total_cmp(&table[*b]);
                                    let code = if best {
                                        (0..kstar).max_by(order)
                                    } else {
                                        (0..kstar).min_by(order)
                                    };
                                    code.unwrap() as u8
                                })
                                .collect(),
                        );
                    }
                    let scored: Vec<(f32, u16, u16)> = rows
                        .iter()
                        .map(|row| {
                            let mut score = 0.0f32;
                            for (i, &c) in row.iter().enumerate() {
                                score += lut.get(i, c as usize);
                            }
                            let (sum, stored) = image_sums(&bound, row);
                            (score + lut.bias(), sum, stored)
                        })
                        .collect();
                    for (row, &(score, sum, stored)) in rows.iter().zip(&scored) {
                        let at = format!(
                            "{family} m={m} k*={kstar} bias={bias} row {row:?}: score {score}"
                        );
                        let lower = bound.lower(sum);
                        assert!(
                            lower.is_finite() && lower <= score,
                            "{at} < lower({sum}) = {lower}"
                        );
                        let lower = bound.lower(bound.guaranteed(stored));
                        assert!(lower <= score, "{at} < lower of stored {stored} = {lower}");
                    }
                    if family == "uniform" {
                        let best = scored.iter().map(|s| s.2).max().unwrap();
                        let worst = scored.iter().map(|s| s.0).fold(f32::MAX, f32::min);
                        assert!(
                            bound.lower(bound.guaranteed(best)) > worst,
                            "m={m} k*={kstar} bias={bias}: the lower bound is too loose to seed anything"
                        );
                    }
                }
            }
        }
    }

    /// The sum passes keep every row of the block for every member of a
    /// group, against a scalar model ([`image_sums`]): row `r`'s stored sum
    /// against member `g`'s image — its byte sum for byte codes, its half
    /// sum for nibble codes — lands in member `g`'s sums at `r` (row
    /// order), and each of member `g`'s [`SEED_GROUPS`] maxima is the
    /// largest sum of its group — sum slot `w` ([`avx512::BYTE_SLOTS`],
    /// [`avx512::NIBBLE_SLOTS`]) of every chunk with the same index mod 4 —
    /// or 0 for a group with no row. Every seeded shape ([`SEEDED_SHAPES`]);
    /// groups of one to [`GROUP`] members, some without an image (left out
    /// of the pass, 0 maxima), each member with tables of its own. Code 0
    /// maps to the top byte of every table, so the zero-code rows past the
    /// block's end would dominate any maximum they entered. Counts sit on
    /// both sides of a chunk, four chunks and the benchmark's list length,
    /// from the stream's start and inside it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn byte_sums_keep_every_row_and_each_groups_maximum() {
        if !KernelDispatch::Avx512.is_available() {
            return;
        }
        let mut rng = anna_testkit::TestRng::new(0x5A_5A);
        let (mut tables, mut sums) = (vec![0; GROUP * 16 * 256], Vec::new());
        let patterns: [&[bool]; 5] = [
            &[true],
            &[true, true],
            &[false, true, true],
            &[true, false, true, false],
            &[true; GROUP],
        ];
        for (width, m, kstar) in SEEDED_SHAPES {
            let codes = random_codes(&mut rng, m, width, kstar, 3_125 + 5);
            let kernel = Kernel::select(KernelDispatch::Avx512, &codes, kstar);
            let images: Vec<ByteBound> = tables
                .chunks_exact_mut(16 * 256)
                .map(|tables| {
                    let mut words = family_words(&mut rng, "uniform", m, kstar);
                    for table in words.chunks_mut(kstar) {
                        table[0] = 9.0;
                    }
                    let lut = lut_of(&words, m, kstar);
                    ByteBound::quantise(kernel, &lut, tables).expect("an image")
                })
                .collect();
            let slots = match (width, codes.vector_bytes()) {
                (CodeWidth::U8, vb) => avx512::BYTE_SLOTS[vb / 16],
                (CodeWidth::U4, vb) => avx512::NIBBLE_SLOTS[vb / 8],
            };
            let mut row = vec![0u8; m];
            for pattern in patterns {
                let group: Vec<Option<ByteBound>> = pattern
                    .iter()
                    .zip(&images)
                    .map(|(&imaged, &image)| imaged.then_some(image))
                    .collect();
                for start in [0usize, 5] {
                    for n in [1usize, 63, 64, 65, 255, 256, 257, 3_125] {
                        let maxima = ByteBound::byte_sums(&group, &codes, start, n, &mut sums);
                        let padded = whole_chunks(n);
                        for (g, image) in group.iter().enumerate() {
                            let at = format!(
                                "m={m} k*={kstar} {pattern:?} member {g} start={start} n={n}"
                            );
                            let mut want = [0u16; SEED_GROUPS];
                            let Some(image) = image else {
                                assert_eq!(maxima[g], want, "{at}");
                                continue;
                            };
                            for r in 0..n {
                                codes.read_into(start + r, &mut row);
                                let (_, sum) = image_sums(image, &row);
                                let got = sums[g * padded + r];
                                assert_eq!(got, sum, "{at} row {r}");
                                let slot = usize::from(slots[r % 64]);
                                let group = &mut want[64 * ((r / 64) % 4) + slot];
                                *group = (*group).max(sum);
                            }
                            assert_eq!(maxima[g], want, "{at}");
                        }
                    }
                }
            }
        }
    }

    /// [`avx512::kth_largest`] is the `k`-th order statistic, largest
    /// first, for every `k` of one to [`SEED_GROUPS`]: on random sums, on
    /// sums heavy with ties, and on all-equal ones at both ends of the
    /// range.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn kth_largest_is_the_kth_order_statistic() {
        if !KernelDispatch::Avx512.is_available() {
            return;
        }
        let mut rng = anna_testkit::TestRng::new(0x0_5E1);
        let top = (avx512::BOUND_TABLES * 255) as u64;
        let sets: Vec<[u16; SEED_GROUPS]> = vec![
            std::array::from_fn(|_| rng.below(top + 1) as u16),
            std::array::from_fn(|_| 100 * rng.below(4) as u16),
            [0; SEED_GROUPS],
            [top as u16; SEED_GROUPS],
        ];
        for values in sets {
            let mut sorted = values;
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            for k in 1..=SEED_GROUPS {
                // SAFETY: the host has the `avx512` level (checked above).
                let got = unsafe { avx512::kth_largest(&values, k) };
                assert_eq!(got, sorted[k - 1], "k={k}");
            }
        }
    }

    /// [`avx512::candidates`] keeps exactly the rows a scalar filter of
    /// `sums >= least` keeps, in ascending position: blocks of whole and
    /// partial chunks and of one group, with no row, one row, every other
    /// row, runs of three to six rows per chunk (on both sides of the four
    /// unconditional extracts) and every row reaching `least`. The padded
    /// sums past the block reach it too (only the block's rows may be
    /// kept), and guard slots past the promised `count + 4` must come back
    /// untouched.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn candidates_are_the_scalar_filter_of_the_sums() {
        if !KernelDispatch::Avx512.is_available() {
            return;
        }
        const LEAST: u16 = 500;
        const GUARD: usize = 64;
        const SENTINEL: u32 = 0xDEAD_BEEF;
        for count in [1, 15, 16, 17, 63, 64, 65, 127, 3125] {
            for name in ["none", "one row", "alternating", "runs", "all"] {
                let reaches = |r: usize| match name {
                    "none" => false,
                    "one row" => r == count / 2,
                    "alternating" => r % 2 == 1,
                    "runs" => r % 64 < 3 + (r / 64) % 4,
                    _ => true,
                };
                let mut sums = vec![u16::MAX; whole_chunks(count)];
                let mut want = Vec::new();
                for (r, sum) in sums.iter_mut().enumerate().take(count) {
                    // Just at `least`, or just below it.
                    *sum = if reaches(r) { LEAST } else { LEAST - 1 };
                    if *sum >= LEAST {
                        want.push(r as u32);
                    }
                }
                let mut positions = vec![SENTINEL; count + 4 + GUARD];
                // SAFETY: the host has the `avx512` level (checked above);
                // `sums` holds whole chunks and `positions` more than
                // `count + 4` slots.
                let n = unsafe { avx512::candidates(&sums, count, LEAST, &mut positions) };
                let at = format!("count {count}, {name}");
                assert_eq!(&positions[..n], &want[..], "{at}");
                assert!(
                    positions[count + 4..].iter().all(|&p| p == SENTINEL),
                    "{at}: a write passed count + 4"
                );
            }
        }
    }

    /// What `top` keeps, as `(id, score bits)` best first.
    fn kept(top: &TopK) -> Vec<(u64, u32)> {
        top.clone()
            .into_sorted_vec()
            .iter()
            .map(|h| (h.id, h.score.to_bits()))
            .collect()
    }

    /// Seeded visits at their edges, through [`scan_with`] against the
    /// scalar oracle: two visits (a cold selector, then a warm one) under
    /// every available dispatch keep what the scalar path keeps, bit for
    /// bit, for `n` ∈ {k − 1, k, 63, 64, 65, 255, 256, 257, 3125} × `k`
    /// ∈ {1, 100, 255, 256, 300} — with no seed where `n < k` or `k >=
    /// SEED_GROUPS` — over random rows and over one row repeated `n`
    /// times, at every seeded shape ([`SEEDED_SHAPES`]: byte codes at `m`
    /// 8 and 16, nibble codes at `m` 7, 8 and 16), for tables with a u8
    /// image and without one (`hostile`: a non-finite entry, the kernel's
    /// tiles). This is also the local check of the seeded visit's `unsafe`
    /// preconditions: the sums padded to whole chunks and the candidate
    /// list of `n + SINK_SLACK`, both grown in one reused scratch.
    #[test]
    fn seeded_visits_keep_the_oracle_top_k_at_the_edges() {
        let mut rng = anna_testkit::TestRng::new(0x5EED);
        let mut scratch = ScanScratch::new();
        let mut rejected = [0; 2];
        for (width, m, kstar) in SEEDED_SHAPES {
            for family in ["uniform", "steps", "hostile"] {
                let luts: Vec<Lut> = (0..2)
                    .map(|_| lut_of(&family_words(&mut rng, family, m, kstar), m, kstar))
                    .collect();
                for k in [1usize, 100, 255, 256, 300] {
                    for n in [k - 1, k, 63, 64, 65, 255, 256, 257, 3_125] {
                        for repeated in [false, true] {
                            let codes = if repeated {
                                let row: Vec<u8> =
                                    (0..m).map(|_| rng.below(kstar as u64) as u8).collect();
                                let mut codes = PackedCodes::new(m, width);
                                for _ in 0..n {
                                    codes.push(&row);
                                }
                                codes
                            } else {
                                random_codes(&mut rng, m, width, kstar, n)
                            };
                            // Distinct ids per visit, interleaved.
                            let ids: Vec<Vec<u64>> = (0..2u64)
                                .map(|v| (0..n as u64).map(|i| 2 * i + v).collect())
                                .collect();
                            let mut oracle = Vec::new();
                            for dispatch in KernelDispatch::available() {
                                let mut top = TopK::new(k);
                                for (visit, (lut, ids)) in luts.iter().zip(&ids).enumerate() {
                                    let tally = scan_with(
                                        &codes,
                                        ids,
                                        lut,
                                        &mut top,
                                        dispatch,
                                        &mut scratch,
                                    );
                                    let at = format!(
                                        "m={m} k*={kstar} {family} k={k} n={n} repeated={repeated} visit {visit} {}",
                                        dispatch.name()
                                    );
                                    assert_eq!(tally.scanned, n as u64, "{at}");
                                    assert!(tally.bound_rejected <= tally.pruned, "{at}");
                                    // The exact step scored every row the
                                    // bound kept, and every offer is one.
                                    assert_eq!(
                                        tally.exact + tally.bound_rejected,
                                        tally.scanned,
                                        "{at}"
                                    );
                                    assert!(tally.exact >= tally.scanned - tally.pruned, "{at}");
                                    rejected[usize::from(kstar == 16)] += tally.bound_rejected;
                                    if dispatch == KernelDispatch::Scalar {
                                        oracle.push(kept(&top));
                                    } else {
                                        assert_eq!(kept(&top), oracle[visit], "{at}");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        for rejected in rejected {
            assert_eq!(rejected > 0, KernelDispatch::Avx512.is_available());
        }
    }

    /// A visitor group's seeded visits are each member's own: for groups
    /// of up to five visitors (a full group and a lone one), some of whose
    /// LUTs have no u8 image (`hostile`, `constant`: those members take
    /// the kernel's tiles), one [`scan_group_with`] call leaves every
    /// selector exactly as a [`scan_with`] of its own does, and returns the
    /// sum of their tallies, on every available dispatch, cold and warm,
    /// at every seeded shape ([`SEEDED_SHAPES`]).
    #[test]
    fn grouped_seeded_visits_are_each_members_own() {
        let mut rng = anna_testkit::TestRng::new(0x6_0_0_9);
        let (mut single, mut grouped) = (ScanScratch::new(), ScanScratch::new());
        let families = ["uniform", "hostile", "steps", "constant", "outlier"];
        for (width, m, kstar) in SEEDED_SHAPES {
            for n in [0usize, 1, 65, 257, 3_125] {
                for k in [1usize, 100, 300] {
                    let codes = random_codes(&mut rng, m, width, kstar, n);
                    let ids: Vec<u64> = (0..n as u64).map(|i| 3 * i + 1).collect();
                    for visitors in [1, 3, 5] {
                        let luts: Vec<Lut> = families[..visitors]
                            .iter()
                            .map(|family| {
                                lut_of(&family_words(&mut rng, family, m, kstar), m, kstar)
                            })
                            .collect();
                        for dispatch in KernelDispatch::available() {
                            let at = format!(
                                "m={m} k*={kstar} n={n} k={k} {visitors} visitors {}",
                                dispatch.name()
                            );
                            let mut own: Vec<TopK> = (0..visitors).map(|_| TopK::new(k)).collect();
                            let mut together = own.clone();
                            // Cold, then warm.
                            for _ in 0..2 {
                                let mut want = ScanTally::default();
                                for (lut, top) in luts.iter().zip(&mut own) {
                                    let tally =
                                        scan_with(&codes, &ids, lut, top, dispatch, &mut single);
                                    want.accumulate(&tally);
                                }
                                let got = scan_group_with(
                                    &codes,
                                    &ids,
                                    &luts,
                                    &mut together,
                                    dispatch,
                                    &mut grouped,
                                );
                                assert_eq!(got, want, "{at}");
                                for (g, (a, b)) in together.iter().zip(&own).enumerate() {
                                    assert_eq!(kept(a), kept(b), "{at} member {g}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Ties at the seed, at `m = 16` over both table sizes (byte codes in
    /// 16-byte rows, nibble codes in 8-byte rows): a cluster holding `k` +
    /// 1 copies of one row —
    /// its best, or its `k/2`-th best — so that its `k`-th order statistic
    /// `S` is shared by at least `k` rows, scanned into a selector that is
    /// cold, or already holds `k` entries at `S` or one ulp above or below
    /// it, with ids both below and above the cluster's. Every dispatch
    /// keeps what the scalar path keeps, bit for bit: ties at the seeded
    /// threshold are still offered and the lower id wins.
    #[test]
    fn seeded_visits_keep_ties_at_the_seed() {
        let mut rng = anna_testkit::TestRng::new(0x71E5);
        let mut scratch = ScanScratch::new();
        let m = 16;
        for (width, kstar) in [(CodeWidth::U8, 256), (CodeWidth::U4, 16)] {
            let lut = lut_of(&family_words(&mut rng, "uniform", m, kstar), m, kstar);
            let score = |row: &[u8]| {
                let sum = row
                    .iter()
                    .enumerate()
                    .fold(0.0f32, |sum, (i, &c)| sum + lut.get(i, c as usize));
                sum + lut.bias()
            };
            for k in [1usize, 10, 100, 255] {
                let random: Vec<Vec<u8>> = (0..600)
                    .map(|_| (0..m).map(|_| rng.below(kstar as u64) as u8).collect())
                    .collect();
                let mut ranked = random.clone();
                ranked.sort_by(|a, b| score(b).total_cmp(&score(a)));
                for rank in [0, k / 2] {
                    let mut rows = random.clone();
                    for _ in 0..k {
                        let at = rng.usize(0..rows.len() + 1);
                        rows.insert(at, ranked[rank].clone());
                    }
                    let mut codes = PackedCodes::new(m, width);
                    for row in &rows {
                        codes.push(row);
                    }
                    let ids: Vec<u64> = (0..rows.len() as u64).map(|i| 2 * i + 1).collect();
                    let mut scores: Vec<f32> = rows.iter().map(|row| score(row)).collect();
                    scores.sort_by(|a, b| b.total_cmp(a));
                    let kth = scores[k - 1];
                    assert_eq!(kth, score(&ranked[rank]));
                    let selectors = [None, Some(kth), Some(kth.next_up()), Some(kth.next_down())];
                    for held in selectors {
                        let mut start = TopK::new(k);
                        if let Some(t) = held {
                            // Even ids from 0 up: below and above the copies'.
                            for i in 0..k as u64 {
                                start.push(4 * i * rows.len() as u64 / k as u64, t);
                            }
                            assert_eq!(start.threshold(), t);
                        }
                        let mut oracle = start.clone();
                        scan_with(
                            &codes,
                            &ids,
                            &lut,
                            &mut oracle,
                            KernelDispatch::Scalar,
                            &mut scratch,
                        );
                        for dispatch in KernelDispatch::available() {
                            let mut top = start.clone();
                            scan_with(&codes, &ids, &lut, &mut top, dispatch, &mut scratch);
                            assert_eq!(
                                kept(&top),
                                kept(&oracle),
                                "k*={kstar} k={k} rank={rank} held at {held:?} {}",
                                dispatch.name()
                            );
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
