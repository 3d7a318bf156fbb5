//! Minimal IEEE 754 binary16 ("half precision") conversions.
//!
//! The paper assumes 2-byte (float16) storage for vector elements and
//! lookup-table entries (Sections II-B, III-B, IV-B: LUT entries and
//! similarity scores are 2 B each; top-k spill records carry a 2 B score).
//! The accelerator model uses [`F16`] at those boundaries so that on-chip
//! precision and all byte-traffic accounting match the hardware.
//!
//! Only the conversions the workspace needs are implemented; this is not a
//! general arithmetic type (hardware compute units operate internally at
//! higher precision and round on store, which is what we model).
//!
//! The conversions are **IEEE-exact and hardware-backed**. [`F16::from_f32`]
//! rounds to nearest, ties to even, at every magnitude (subnormal halves
//! and the underflow boundary at 2⁻²⁵ included), overflows to ±∞ from
//! 65520 up, and turns a NaN into the quiet NaN with the top nine payload
//! bits; [`F16::to_f32`] is exact and quiets a signalling NaN. That is what
//! x86-64's F16C instructions (`vcvtps2ph` round-to-nearest, `vcvtph2ps`)
//! compute, bit for bit on all 2³² `f32` inputs (an ignored release test
//! checks every one). The two-phase rescore
//! ([`crate::exact::rescore_subset_into`]) runs on those instructions where
//! the host has F16C — chosen once per process; `ANNA_FORCE_SCALAR` pins the
//! software path — and gets the same bits either way. [`round_trip_slice`]
//! stays on the software conversions.

use serde::{Deserialize, Serialize};

/// An IEEE 754 binary16 value stored as its raw bit pattern.
///
/// # Example
///
/// ```
/// use anna_vector::F16;
///
/// let h = F16::from_f32(1.5);
/// assert_eq!(h.to_f32(), 1.5);
/// // Values are rounded to the nearest representable half.
/// let r = F16::from_f32(1.0009766).to_f32();
/// assert!((r - 1.0009766).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// The most negative finite half value (used to initialize top-k state).
    pub const MIN: F16 = F16(0xFBFF);
    /// The most positive finite half value.
    pub const MAX: F16 = F16(0x7BFF);

    /// Converts from `f32` with round-to-nearest-even, clamping overflow to
    /// infinity as IEEE conversion does. A NaN keeps its sign and the top
    /// nine bits of its payload and comes back quiet, as `vcvtps2ph` does.
    pub fn from_f32(v: f32) -> Self {
        let bits = v.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf, or NaN: the top ten fraction bits (quiet bit and nine
            // payload bits) survive, and the quiet bit is set.
            let nan = if frac != 0 {
                0x0200 | (frac >> 13) as u16
            } else {
                0
            };
            return F16(sign | 0x7C00 | nan);
        }

        // Re-bias exponent from 127 to 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            return F16(sign | 0x7C00); // overflow -> inf
        }
        if unbiased >= -14 {
            // Normal half. Keep 10 fraction bits, round-to-nearest-even.
            let half_exp = (unbiased + 15) as u16;
            let shift = 13;
            let mut mant = frac >> shift;
            let rem = frac & ((1 << shift) - 1);
            let halfway = 1 << (shift - 1);
            if rem > halfway || (rem == halfway && (mant & 1) == 1) {
                mant += 1;
            }
            // Mantissa overflow propagates into the exponent correctly
            // because the encodings are adjacent.
            return F16(sign.wrapping_add((half_exp << 10).wrapping_add(mant as u16)));
        }
        if unbiased >= -25 {
            // Subnormal half: value = full * 2^(unbiased-23) with
            // full = 1.frac as a 24-bit integer, and the subnormal unit is
            // 2^-24, so mant = full >> (-unbiased - 1). At 2^-25 <= |v| <
            // 2^-24 that is 0 plus a remainder at or above the halfway
            // point, so the magnitude rounds up to 2^-24 — except exactly
            // 2^-25, a tie, which goes to the even 0.
            let full = frac | 0x0080_0000; // implicit leading 1
            let sh = (-unbiased - 1) as u32;
            let mut mant = full >> sh;
            let rem = full & ((1u32 << sh) - 1);
            let halfway = 1u32 << (sh - 1);
            if rem > halfway || (rem == halfway && (mant & 1) == 1) {
                mant += 1;
            }
            return F16(sign | mant as u16);
        }
        F16(sign) // underflow to zero
    }

    /// Converts to `f32` exactly (every half is representable as a float).
    /// A signalling NaN comes back quiet, as `vcvtph2ps` returns it.
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let frac = (self.0 & 0x03FF) as u32;
        let bits = if exp == 0 {
            if frac == 0 {
                sign // signed zero
            } else {
                // Subnormal half: normalize.
                let mut e = 127 - 15 - 10;
                let mut f = frac;
                while f & 0x0400 == 0 {
                    f <<= 1;
                    e -= 1;
                }
                f &= 0x03FF;
                sign | (((e + 10 + 1) as u32) << 23) | (f << 13)
            }
        } else if exp == 0x1F {
            // Inf, or NaN with the quiet bit set.
            let quiet = if frac != 0 { 0x0040_0000 } else { 0 };
            sign | 0x7F80_0000 | quiet | (frac << 13)
        } else {
            sign | ((exp + 127 - 15) << 23) | (frac << 13)
        };
        f32::from_bits(bits)
    }

    /// Raw bit pattern.
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Constructs from a raw bit pattern.
    pub fn from_bits(bits: u16) -> Self {
        F16(bits)
    }
}

impl From<F16> for f32 {
    fn from(h: F16) -> f32 {
        h.to_f32()
    }
}

/// Rounds an `f32` through binary16 and back, modeling a store to a 2-byte
/// SRAM or DRAM location followed by a load.
///
/// # Example
///
/// ```
/// let v = anna_vector::f16::round_trip(3.14159);
/// assert!((v - 3.14159).abs() < 2e-3);
/// ```
#[inline]
pub fn round_trip(v: f32) -> f32 {
    F16::from_f32(v).to_f32()
}

/// Rounds every element of a slice through binary16 in place.
pub fn round_trip_slice(vs: &mut [f32]) {
    for v in vs {
        *v = round_trip(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let v = i as f32;
            assert_eq!(round_trip(v), v, "integer {i} should be exact in f16");
        }
    }

    #[test]
    fn powers_of_two_roundtrip() {
        for e in -14..=15 {
            let v = (2.0f32).powi(e);
            assert_eq!(round_trip(v), v);
        }
    }

    #[test]
    fn subnormals_roundtrip() {
        let tiny = (2.0f32).powi(-24); // smallest positive half subnormal
        assert_eq!(round_trip(tiny), tiny);
        let sub = 3.0 * (2.0f32).powi(-24);
        assert_eq!(round_trip(sub), sub);
    }

    #[test]
    fn underflow_to_zero() {
        assert_eq!(round_trip((2.0f32).powi(-26)), 0.0);
    }

    #[test]
    fn overflow_to_infinity() {
        assert!(round_trip(1.0e6).is_infinite());
        assert!(round_trip(-1.0e6).is_infinite());
        assert!(round_trip(-1.0e6) < 0.0);
    }

    #[test]
    fn max_and_min_constants() {
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
    }

    #[test]
    fn nan_is_preserved_as_nan() {
        assert!(round_trip(f32::NAN).is_nan());
    }

    #[test]
    fn rounding_error_is_bounded_by_relative_epsilon() {
        // Half has 11 significand bits -> relative error <= 2^-11.
        let vals = [0.1f32, 0.3333, 123.456, 0.00123, 999.5];
        for &v in &vals {
            let r = round_trip(v);
            assert!(
                (r - v).abs() <= v.abs() * (2.0f32).powi(-11),
                "value {v} rounded to {r}"
            );
        }
    }

    #[test]
    fn negative_values_keep_sign() {
        assert_eq!(round_trip(-2.5), -2.5);
    }

    /// The edges `vcvtps2ph` is known to round at: the underflow boundary
    /// (2⁻²⁵ is a tie that goes to the even 0; anything above it rounds up
    /// to the smallest subnormal) and the overflow boundary (65520 is the
    /// midpoint between 65504 and the next binade, and rounds to ∞).
    #[test]
    fn rounding_edges_match_ieee() {
        let p = |e: i32| 2.0f32.powi(e);
        let above = |v: f32| f32::from_bits(v.to_bits() + 1);
        let below = |v: f32| f32::from_bits(v.to_bits() - 1);
        for (v, want) in [
            (p(-25), 0x0000),
            (above(p(-25)), 0x0001),
            (1.5 * p(-25), 0x0001),
            (below(p(-24)), 0x0001),
            (p(-24), 0x0001),
            (1.5 * p(-24), 0x0002), // tie between 1 and 2 ulps: even
            (2.5 * p(-24), 0x0002), // tie between 2 and 3 ulps: even
            (65504.0, 0x7BFF),
            (65519.0, 0x7BFF),
            (below(65520.0), 0x7BFF),
            (65520.0, 0x7C00),
            (f32::MAX, 0x7C00),
            (f32::INFINITY, 0x7C00),
        ] {
            assert_eq!(F16::from_f32(v).to_bits(), want, "{v:e}");
            assert_eq!(F16::from_f32(-v).to_bits(), want | 0x8000, "-{v:e}");
        }
        assert_eq!(round_trip(1.5 * p(-25)), p(-24));
        assert_eq!(round_trip(65519.0), 65504.0);
        assert_eq!(round_trip(65520.0), f32::INFINITY);
    }

    /// NaNs follow the F16C rule both ways: narrowing keeps the sign and
    /// the top nine payload bits and sets the quiet bit; widening sets the
    /// quiet bit.
    #[test]
    fn nans_follow_the_hardware_rule() {
        for (f, want) in [
            (0x7FC0_0000u32, 0x7E00u16), // quiet, no payload
            (0xFFC0_2000, 0xFE01),       // quiet, negative, lowest kept payload bit
            (0x7F80_0001, 0x7E00),       // signalling, payload below the kept bits
            (0x7FA0_0000, 0x7F00),       // signalling, top payload bit
            (0x7FBF_FFFF, 0x7FFF),       // signalling, every payload bit
        ] {
            let h = F16::from_f32(f32::from_bits(f)).to_bits();
            assert_eq!(h, want, "f32 {f:#010x} -> {h:#06x}");
        }
        for (h, want) in [
            (0x7E00u16, 0x7FC0_0000u32), // quiet
            (0x7C01, 0x7FC0_2000),       // signalling, quieted
            (0xFD00, 0xFFE0_0000),       // signalling, negative, top payload bit
            (0x7FFF, 0x7FFF_E000),
        ] {
            let f = F16::from_bits(h).to_f32().to_bits();
            assert_eq!(f, want, "f16 {h:#06x} -> {f:#010x}");
        }
    }

    /// Rounds `vs` in place with the F16C instructions and returns `true`,
    /// or returns `false` on a host without them.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    fn f16c_round_trip(vs: &mut [f32]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = crate::f16c::F16c::detect() {
            hw.round_trip_slice(vs);
            return true;
        }
        false
    }

    /// Value of the non-negative half with magnitude bits `m`, computed
    /// independently of [`F16::to_f32`] in f64; `0x7C00` is treated as the
    /// first value past the top binade, 2¹⁶, which is what rounding to
    /// ∞ is measured against.
    fn magnitude(m: u16) -> f64 {
        let (exp, frac) = (i32::from(m >> 10), f64::from(m & 0x03FF));
        if exp == 0 {
            frac * 2f64.powi(-24)
        } else {
            (1024.0 + frac) * 2f64.powi(exp - 25)
        }
    }

    /// Every one of the 65 536 halves through `to_f32`: exactly the
    /// independent f64 value (NaNs: quiet, sign and payload kept), and
    /// `from_f32` takes every non-NaN one back to itself. On an F16C host
    /// the hardware round trip leaves every converted value bit for bit
    /// unchanged, so `vcvtph2ps` agrees with `to_f32` on all of them.
    #[test]
    fn every_half_converts_exactly() {
        let mut converted = Vec::with_capacity(1 << 16);
        for h in 0..=u16::MAX {
            let x = F16::from_bits(h).to_f32();
            let (sign, m) = (u32::from(h >> 15), h & 0x7FFF);
            if m > 0x7C00 {
                let want = (sign << 31) | 0x7FC0_0000 | (u32::from(m & 0x03FF) << 13);
                assert_eq!(x.to_bits(), want, "NaN half {h:#06x}");
            } else {
                let mag = if m == 0x7C00 {
                    f32::INFINITY
                } else {
                    magnitude(m) as f32
                };
                let want = if sign == 1 { -mag } else { mag };
                assert_eq!(x.to_bits(), want.to_bits(), "half {h:#06x}");
                assert_eq!(F16::from_f32(x).to_bits(), h, "half {h:#06x} back");
            }
            converted.push(x);
        }
        let mut rounded = converted.clone();
        if f16c_round_trip(&mut rounded) {
            for (h, (a, b)) in converted.iter().zip(&rounded).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "half {h:#06x} under F16C");
            }
        }
    }

    /// `from_f32` over every exponent × a strided mantissa sweep, both
    /// signs: each finite input lands on the nearest half (ties to the even
    /// one, 65520 and up to ∞) by an independent f64 check, and on an F16C
    /// host the software round trip equals `vcvtps2ph` + `vcvtph2ps` bit
    /// for bit.
    #[test]
    fn from_f32_sweep_rounds_to_nearest_even() {
        let mut inputs = Vec::new();
        for exp in 0..=255u32 {
            for frac in (0..1u32 << 23).step_by(4093).chain([1, (1 << 23) - 1]) {
                let bits = (exp << 23) | frac;
                inputs.push(f32::from_bits(bits));
                inputs.push(f32::from_bits(bits | 0x8000_0000));
            }
        }
        for &x in &inputs {
            let h = F16::from_f32(x).to_bits();
            if x.is_nan() {
                let want = ((x.to_bits() >> 16) as u16 & 0x8000)
                    | 0x7E00
                    | ((x.to_bits() >> 13) as u16 & 0x03FF);
                assert_eq!(h, want, "{:#010x}", x.to_bits());
                continue;
            }
            assert_eq!(h >> 15 == 1, x.is_sign_negative(), "{x:e}: sign");
            let (m, target) = (h & 0x7FFF, f64::from(x.abs()));
            if m == 0x7C00 {
                assert!(target >= 65520.0, "{x:e} overflowed");
                continue;
            }
            let err = |m: u16| (magnitude(m) - target).abs();
            let near = err(m);
            for neighbour in [m.checked_sub(1), Some(m + 1)].into_iter().flatten() {
                let other = err(neighbour);
                assert!(
                    near <= other,
                    "{x:e} -> {h:#06x}: {neighbour:#06x} is nearer"
                );
                if near == other {
                    assert_eq!(m & 1, 0, "{x:e} -> {h:#06x}: tie not to even");
                }
            }
        }
        let mut rounded = inputs.clone();
        if f16c_round_trip(&mut rounded) {
            for (x, r) in inputs.iter().zip(&rounded) {
                assert_eq!(
                    round_trip(*x).to_bits(),
                    r.to_bits(),
                    "{:#010x} under F16C",
                    x.to_bits()
                );
            }
        }
    }

    /// Every one of the 2³² `f32` bit patterns: the software round trip
    /// equals `vcvtps2ph` + `vcvtph2ps` bit for bit. Minutes in a debug
    /// build, so run it in release: `cargo test --release -p anna-vector
    /// -- --ignored`. Passes vacuously (and says so) without F16C.
    #[test]
    #[ignore]
    fn every_f32_round_trips_like_f16c() {
        let mut buf = vec![0.0f32; 1 << 16];
        for hi in 0..=u16::MAX {
            let base = u32::from(hi) << 16;
            for (lo, v) in buf.iter_mut().enumerate() {
                *v = f32::from_bits(base | lo as u32);
            }
            if !f16c_round_trip(&mut buf) {
                eprintln!("no F16C on this host: nothing to compare against");
                return;
            }
            for (lo, r) in buf.iter().enumerate() {
                let bits = base | lo as u32;
                let want = round_trip(f32::from_bits(bits));
                assert_eq!(want.to_bits(), r.to_bits(), "{bits:#010x}");
            }
        }
    }
}
