//! The workspace's one hardware decision: which instruction set every
//! runtime-dispatched kernel runs on.
//!
//! The dispatch is resolved **once per process** (cached in a
//! `OnceLock`): `ANNA_FORCE_SCALAR` pins the seed scalar path for A/B
//! tests and CI fallback coverage, otherwise CPU feature detection picks
//! the widest level the host runs, and hosts with neither vector level
//! get the unrolled blocked kernel. This module is the only code that
//! reads `ANNA_FORCE_SCALAR` or probes the CPU; every layer derives its
//! arm from the dispatch it is handed (the table on [`KernelDispatch`]).
//! The vector levels exist on x86-64 only; every other target runs
//! `scalar` or `blocked`.

use std::sync::OnceLock;

/// Which instruction set the runtime-dispatched kernels run on, and so
/// which arm each layer runs:
///
/// | dispatch  | detected features                    | scan (`anna-index`)      | distance table (`anna-quant`) | rescore (`exact`) | selector (`TopK`) |
/// |-----------|--------------------------------------|--------------------------|-------------------------------|-------------------|-------------------|
/// | `scalar`  | — (`ANNA_FORCE_SCALAR`)              | seed scalar loops        | `portable`                    | `portable`        | `portable`        |
/// | `blocked` | none                                 | blocked                  | `portable`                    | `portable`        | `portable`        |
/// | `avx2`    | `avx2 + f16c`                        | LUT16 (AVX2) / blocked   | `portable`                    | `f16c`            | `portable`        |
/// | `avx512`  | `avx2 + f16c + avx512f + avx512bw + avx512vbmi + popcnt` | u8 bound + LUT16 / u8 bound + gather | `avx512`  | `avx512`          | `avx512`          |
///
/// A host with AVX-512F but without AVX-512BW/VBMI (Skylake-SP, Cascade
/// Lake) resolves to `avx2`: the `avx512` level is every feature its arms
/// use, and the bound passes of both widths look bytes up with
/// `vpermb`/`vpermi2b`.
/// The kernel each variant scans given codes and tables with is the scan
/// layer's `Kernel::select` decision. Every arm produces bit-identical
/// scores, tables and top-k sets (each layer's module docs state its
/// summation-order invariant), so the dispatch is a pure throughput
/// decision — never a correctness one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelDispatch {
    /// The seed scalar loops: one score at a time, every score pushed
    /// through the top-k heap. The reference every other path must
    /// reproduce bit for bit, and what `ANNA_FORCE_SCALAR` pins.
    Scalar,
    /// The unrolled multi-accumulator blocked kernel (four vectors in
    /// flight, both code widths) into a threshold-pruned survivors sink:
    /// the portable fast path.
    Blocked,
    /// AVX2 + F16C: the register-resident LUT16 kernel for `k* = 16`
    /// (`vpermps` shuffles, the f32 analogue of Faiss16/ScaNN16's
    /// `pshufb`), the blocked kernel for `k* = 256`, and the F16C rescore.
    Avx2,
    /// Everything `Avx2` needs plus `avx512f`, `avx512bw`, `avx512vbmi`
    /// and `popcnt`: a u8 image of each LUT (a 256-entry table in four ZMM
    /// registers, all sixteen 16-entry tables in four) that bounds 64
    /// scores per `vpermi2b` for up to four visitors of a cluster per
    /// pass, then one exact f32 step for the rows the bound keeps (one ZMM
    /// register per 16-entry table, one `vgatherdps` per sixteen lookups
    /// of a 256-entry one); every distance table built sixteen
    /// codewords per step; and the rescore sixteen elements per step
    /// (binary16 rounding on ZMM registers).
    Avx512,
}

/// The widest dispatch this host runs and the process-wide one (the
/// widest unless `ANNA_FORCE_SCALAR`), detected once.
#[inline]
fn detected() -> (KernelDispatch, KernelDispatch) {
    static DETECTED: OnceLock<(KernelDispatch, KernelDispatch)> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let (avx2_f16c, avx512) = features();
        let widest = KernelDispatch::resolve(false, avx2_f16c, avx512);
        let current = KernelDispatch::resolve(env_force_scalar(), avx2_f16c, avx512);
        (widest, current)
    })
}

/// The two detection inputs: `avx2 + f16c`, and `avx512f + avx512bw +
/// avx512vbmi + popcnt`.
#[cfg(target_arch = "x86_64")]
fn features() -> (bool, bool) {
    use std::arch::is_x86_feature_detected as has;
    (
        has!("avx2") && has!("f16c"),
        has!("avx512f") && has!("avx512bw") && has!("avx512vbmi") && has!("popcnt"),
    )
}

/// No vector level exists off x86-64.
#[cfg(not(target_arch = "x86_64"))]
fn features() -> (bool, bool) {
    (false, false)
}

/// `ANNA_FORCE_SCALAR` semantics: set, non-empty and not `"0"` pins the
/// process to [`KernelDispatch::Scalar`].
fn env_force_scalar() -> bool {
    std::env::var_os("ANNA_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0")
}

impl KernelDispatch {
    /// Stable lowercase name, used for telemetry counter labels
    /// (`kernel.dispatch.<name>`) and report keys.
    pub fn name(self) -> &'static str {
        match self {
            KernelDispatch::Scalar => "scalar",
            KernelDispatch::Blocked => "blocked",
            KernelDispatch::Avx2 => "avx2",
            KernelDispatch::Avx512 => "avx512",
        }
    }

    /// Every dispatch runnable on this host, scalar first — what the
    /// property and oracle tests iterate over.
    pub fn available() -> Vec<KernelDispatch> {
        [Self::Scalar, Self::Blocked, Self::Avx2, Self::Avx512]
            .into_iter()
            .filter(|d| d.is_available())
            .collect()
    }

    /// Whether this host runs `self`: the features its level needs were
    /// detected. The portable dispatches run everywhere.
    #[inline]
    pub fn is_available(self) -> bool {
        let (widest, _) = detected();
        match self {
            KernelDispatch::Scalar | KernelDispatch::Blocked => true,
            KernelDispatch::Avx2 => widest != KernelDispatch::Blocked,
            KernelDispatch::Avx512 => widest == KernelDispatch::Avx512,
        }
    }

    /// The process-wide dispatch: resolved on first use from
    /// `ANNA_FORCE_SCALAR` and CPU feature detection, then cached.
    #[inline]
    pub fn current() -> KernelDispatch {
        detected().1
    }

    /// The pure selection rule, separated from environment/CPU probing so
    /// it can be unit-tested exhaustively. Each level needs every feature
    /// of the levels below it.
    fn resolve(force_scalar: bool, avx2_f16c: bool, avx512: bool) -> KernelDispatch {
        if force_scalar {
            KernelDispatch::Scalar
        } else if avx2_f16c && avx512 {
            KernelDispatch::Avx512
        } else if avx2_f16c {
            KernelDispatch::Avx2
        } else {
            KernelDispatch::Blocked
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All eight rows of `resolve(force_scalar, avx2 + f16c, avx512f +
    /// avx512bw + avx512vbmi + popcnt)`: the env override beats detection,
    /// the widest detected level wins, and AVX-512 without the AVX2 level
    /// below it is not a level. (A host with `avx512f` but without
    /// `avx512bw + avx512vbmi` reads `false` in the third column: the
    /// `(false, true, false)` row, `Avx2`.)
    #[test]
    fn resolve_truth_table_is_exhaustive() {
        use KernelDispatch::*;
        let rows = [
            (false, false, false, Blocked),
            (false, true, false, Avx2),
            (false, false, true, Blocked),
            (false, true, true, Avx512),
            (true, false, false, Scalar),
            (true, true, false, Scalar),
            (true, false, true, Scalar),
            (true, true, true, Scalar),
        ];
        for (force_scalar, avx2_f16c, avx512, want) in rows {
            assert_eq!(
                KernelDispatch::resolve(force_scalar, avx2_f16c, avx512),
                want,
                "resolve({force_scalar}, {avx2_f16c}, {avx512})"
            );
        }
    }

    #[test]
    fn available_always_contains_both_portable_paths() {
        let avail = KernelDispatch::available();
        assert_eq!(
            avail[..2],
            [KernelDispatch::Scalar, KernelDispatch::Blocked]
        );
        let (avx2_f16c, avx512) = features();
        assert_eq!(avail.contains(&KernelDispatch::Avx2), avx2_f16c);
        assert_eq!(avail.contains(&KernelDispatch::Avx512), avx2_f16c && avx512);
    }

    #[test]
    fn current_is_stable_and_available() {
        let first = KernelDispatch::current();
        assert_eq!(first, KernelDispatch::current());
        assert!(first.is_available());
        assert_eq!(first == KernelDispatch::Scalar, env_force_scalar());
    }

    #[test]
    fn names_are_stable_telemetry_labels() {
        assert_eq!(KernelDispatch::Scalar.name(), "scalar");
        assert_eq!(KernelDispatch::Blocked.name(), "blocked");
        assert_eq!(KernelDispatch::Avx2.name(), "avx2");
        assert_eq!(KernelDispatch::Avx512.name(), "avx512");
    }
}
