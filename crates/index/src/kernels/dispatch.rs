//! Runtime ISA dispatch for the ADC scan kernels.
//!
//! The dispatch is selected **once per process** (cached in a
//! `OnceLock`): `ANNA_FORCE_SCALAR` pins the seed scalar path for A/B
//! tests and CI fallback coverage, otherwise CPU feature detection picks
//! the widest vector ISA the host runs (`avx512f`, then AVX2), and hosts
//! with neither get the unrolled blocked kernel. A dispatch names an ISA
//! only: which kernel scores a given cluster — by code width, row bytes
//! and table size — is decided in one place, `Kernel::select` in
//! [`crate::kernels`]. Every path produces bit-identical scores (see the
//! module docs of [`crate::kernels`] for the summation-order invariant),
//! so dispatch is a pure throughput decision — never a correctness one.

use std::sync::OnceLock;

/// Which instruction set the scan kernels run on.
///
/// All variants produce bit-identical scores and top-k sets; they differ
/// only in instruction mix and memory behavior. The kernel each variant
/// runs for given codes and tables is `Kernel::select`'s decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelDispatch {
    /// The seed scalar loops: one score at a time, every score pushed
    /// through the top-k heap. The reference every other path must
    /// reproduce bit-for-bit.
    Scalar,
    /// Block scoring with the unrolled multi-accumulator blocked kernel
    /// (four vectors in flight, both code widths) into a survivors sink,
    /// plus the threshold-pruned selection pass. The
    /// portable fast path — also what `k* = 256` uses under `Avx2`, since
    /// 256-entry tables cannot live in vector registers (PAPER §II-C).
    Blocked,
    /// AVX2: the LUT16 kernel for `k* = 16` — nibble codes scored 32 per
    /// iteration from register-resident tables via `vpermps` shuffles (the
    /// f32 analogue of the `pshufb` trick Faiss16/ScaNN16 use), the sums
    /// compared with the top-k threshold in registers. Byte codes run the
    /// blocked kernel.
    Avx2,
    /// AVX-512 kernels for both code widths. A 16-entry f32 table is *one*
    /// ZMM register, so sixteen nibble lookups are a single `vpermps zmm`,
    /// for up to four visitors of a cluster per pass over its rows. A
    /// 256-entry table's sixteen lookups are one `vgatherdps` (its 8- and
    /// 16-byte code rows are loaded, not gathered) — this narrows the
    /// paper's §II-C gap but does not close it, since the table fits no
    /// register and a gather is bound by the load ports. Survivors
    /// leave through a mask-register compare, a register compress and one
    /// store. Which rows and tables each kernel takes is `Kernel::select`'s
    /// decision. Needs `avx512f` (and `popcnt`, which every `avx512f` CPU
    /// has).
    Avx512,
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
    /// property tests and `kernels_sweep` iterate over.
    pub fn available() -> Vec<KernelDispatch> {
        let mut v = vec![KernelDispatch::Scalar, KernelDispatch::Blocked];
        if avx2_supported() {
            v.push(KernelDispatch::Avx2);
        }
        if avx512_supported() {
            v.push(KernelDispatch::Avx512);
        }
        v
    }

    /// The pure selection rule, separated from environment/CPU probing so
    /// it can be unit-tested exhaustively.
    fn resolve(force_scalar: bool, avx2: bool, avx512: bool) -> KernelDispatch {
        if force_scalar {
            KernelDispatch::Scalar
        } else if avx512 {
            KernelDispatch::Avx512
        } else if avx2 {
            KernelDispatch::Avx2
        } else {
            KernelDispatch::Blocked
        }
    }

    /// The process-wide dispatch: resolved on first use from
    /// `ANNA_FORCE_SCALAR` and CPU feature detection, then cached.
    pub fn current() -> KernelDispatch {
        static CURRENT: OnceLock<KernelDispatch> = OnceLock::new();
        *CURRENT.get_or_init(|| {
            KernelDispatch::resolve(
                anna_vector::env_force_scalar(),
                avx2_supported(),
                avx512_supported(),
            )
        })
    }
}

/// Whether the host CPU supports AVX2 (always `false` off x86).
pub(crate) fn avx2_supported() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        false
    }
}

/// Whether the host CPU supports `avx512f`, the one vector feature the
/// AVX-512 kernels use, and `popcnt`, which their survivors sinks count
/// with (every `avx512f` CPU has it); always `false` off x86.
pub(crate) fn avx512_supported() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All eight rows of `resolve(force_scalar, avx2, avx512)`: the env
    /// override beats detection, and the widest detected arm wins.
    #[test]
    fn resolve_truth_table_is_exhaustive() {
        use KernelDispatch::*;
        let rows = [
            (false, false, false, Blocked),
            (false, true, false, Avx2),
            (false, false, true, Avx512),
            (false, true, true, Avx512),
            (true, false, false, Scalar),
            (true, true, false, Scalar),
            (true, false, true, Scalar),
            (true, true, true, Scalar),
        ];
        for (force_scalar, avx2, avx512, want) in rows {
            assert_eq!(
                KernelDispatch::resolve(force_scalar, avx2, avx512),
                want,
                "resolve({force_scalar}, {avx2}, {avx512})"
            );
        }
    }

    #[test]
    fn available_always_contains_both_portable_paths() {
        let avail = KernelDispatch::available();
        assert!(avail.contains(&KernelDispatch::Scalar));
        assert!(avail.contains(&KernelDispatch::Blocked));
        assert_eq!(avail.contains(&KernelDispatch::Avx2), avx2_supported());
        assert_eq!(avail.contains(&KernelDispatch::Avx512), avx512_supported());
    }

    #[test]
    fn current_is_stable_and_available() {
        let first = KernelDispatch::current();
        assert_eq!(first, KernelDispatch::current());
        assert!(KernelDispatch::available().contains(&first));
    }

    #[test]
    fn names_are_stable_telemetry_labels() {
        assert_eq!(KernelDispatch::Scalar.name(), "scalar");
        assert_eq!(KernelDispatch::Blocked.name(), "blocked");
        assert_eq!(KernelDispatch::Avx2.name(), "avx2");
        assert_eq!(KernelDispatch::Avx512.name(), "avx512");
    }
}
