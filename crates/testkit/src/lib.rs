//! Hand-rolled, std-only property-test harness.
//!
//! The build environment is air-gapped, so `proptest` is unavailable; this
//! crate provides the pieces the workspace's property tests actually
//! need:
//!
//! * [`TestRng`] — a seeded SplitMix64 generator with the sampling helpers
//!   a generator needs (ranges, vectors, choices, tie-heavy score
//!   streams).
//! * [`forall`] — a runner that derives one deterministic seed per case
//!   from the property name, executes the property under
//!   `catch_unwind`, and on failure re-panics with the property name, case
//!   index, and seed so the exact failing input can be replayed with
//!   [`replay`].
//! * [`same_f32_bits`] — bit equality of floats with NaNs compared as a
//!   class, for "kernel A computes exactly what kernel B does" checks.
//!
//! There is no shrinking: cases are small by construction, and the
//! reported seed reproduces the failure exactly.
//!
//! # Example
//!
//! ```
//! use anna_testkit::{forall, TestRng};
//!
//! forall("sort is idempotent", 64, |rng| {
//!     let len = rng.usize(0..20);
//!     let mut v = rng.vec_i64(len, -50..50);
//!     v.sort();
//!     let twice = {
//!         let mut w = v.clone();
//!         w.sort();
//!         w
//!     };
//!     assert_eq!(v, twice);
//! });
//! ```

#![deny(missing_docs)]

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Seeded pseudo-random generator (SplitMix64) with sampling helpers.
///
/// SplitMix64 passes BigCrush at this output width and — more importantly
/// here — is ~10 lines of dependency-free code with a one-word state, so a
/// failing case is fully described by its seed.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed; equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next uniform 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform `u64` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` in `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn usize(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + self.below((range.end - range.start) as u64) as usize
    }

    /// Uniform `u64` in `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + self.below(range.end - range.start)
    }

    /// Uniform `i64` in `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn i64(&mut self, range: Range<i64>) -> i64 {
        assert!(range.start < range.end, "empty range {range:?}");
        let span = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add(self.below(span) as i64)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or unordered.
    pub fn f32(&mut self, range: Range<f32>) -> f32 {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + (self.unit_f64() as f32) * (range.end - range.start)
    }

    /// Like [`TestRng::f32`], but one draw in eight is instead one of the
    /// values that break sloppy float kernels: NaN, ±∞, −0.0, +0.0.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or unordered.
    pub fn tricky_f32(&mut self, range: Range<f32>) -> f32 {
        if self.below(8) == 0 {
            *self.pick(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0])
        } else {
            self.f32(range)
        }
    }

    /// Uniform `f64` in `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or unordered.
    pub fn f64(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + self.unit_f64() * (range.end - range.start)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// Uniform choice from a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty.
    pub fn pick<'a, T>(&mut self, choices: &'a [T]) -> &'a T {
        assert!(!choices.is_empty(), "pick from empty slice");
        &choices[self.usize(0..choices.len())]
    }

    /// A vector of `len` uniform `f32` draws from `range`.
    pub fn vec_f32(&mut self, len: usize, range: Range<f32>) -> Vec<f32> {
        (0..len).map(|_| self.f32(range.clone())).collect()
    }

    /// A vector of `len` uniform `i64` draws from `range`.
    pub fn vec_i64(&mut self, len: usize, range: Range<i64>) -> Vec<i64> {
        (0..len).map(|_| self.i64(range.clone())).collect()
    }

    /// A vector of `len` uniform `u8` draws below `bound`.
    pub fn vec_u8(&mut self, len: usize, bound: u8) -> Vec<u8> {
        (0..len).map(|_| self.below(bound as u64) as u8).collect()
    }

    /// `len` scores drawn from only `levels` distinct values in `range` —
    /// an adversarial tie-heavy distribution for order-sensitivity tests
    /// (many candidates share a score, so any tie-breaking instability
    /// becomes visible).
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0` or the range is empty.
    pub fn tie_heavy_scores(&mut self, len: usize, levels: usize, range: Range<f32>) -> Vec<f32> {
        assert!(levels > 0, "need at least one level");
        let palette: Vec<f32> = (0..levels).map(|_| self.f32(range.clone())).collect();
        (0..len).map(|_| *self.pick(&palette)).collect()
    }

    /// Derives an independent generator (e.g. for a sub-structure) without
    /// disturbing this stream's reproducibility.
    pub fn fork(&mut self) -> TestRng {
        TestRng::new(self.next_u64())
    }
}

/// Bit equality of two floats, except that any NaN equals any NaN — the
/// comparison for "this kernel computes exactly what that one does". Rust
/// leaves the sign and payload of a NaN produced by arithmetic
/// unspecified (the backend may commute the operands), so NaNs can only be
/// compared as a class; everything else, `-0.0` vs `0.0` included, is
/// compared by bits.
pub fn same_f32_bits(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Deterministic per-case seed: FNV-1a over the property name, mixed with
/// the case index.
fn case_seed(name: &str, case: u32) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^ (case as u64).wrapping_mul(0x9E3779B97F4A7C15)
}

/// Runs `property` for `cases` seeded cases; on the first failure,
/// panics with the property name, case index, seed, and the original
/// message.
///
/// # Panics
///
/// Panics (test failure) when the property panics for any case.
pub fn forall(name: &str, cases: u32, mut property: impl FnMut(&mut TestRng)) {
    for case in 0..cases {
        let seed = case_seed(name, case);
        run_case(name, case, seed, &mut property);
    }
}

/// Re-runs a single case of a property by seed, for replaying a failure
/// reported by [`forall`].
///
/// # Panics
///
/// Panics if the property fails for this seed.
pub fn replay(name: &str, seed: u64, mut property: impl FnMut(&mut TestRng)) {
    run_case(name, u32::MAX, seed, &mut property);
}

fn run_case(name: &str, case: u32, seed: u64, property: &mut impl FnMut(&mut TestRng)) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut rng = TestRng::new(seed);
        property(&mut rng);
    }));
    if let Err(payload) = result {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic payload>");
        panic!("property '{name}' failed at case {case} (replay with seed {seed:#018x}):\n{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seed_deterministic() {
        let mut a = TestRng::new(5);
        let mut b = TestRng::new(5);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_are_respected() {
        forall("ranges respected", 128, |rng| {
            let u = rng.usize(2..9);
            assert!((2..9).contains(&u));
            let f = rng.f32(-3.0..7.0);
            assert!((-3.0..7.0).contains(&f));
            let i = rng.i64(-5..5);
            assert!((-5..5).contains(&i));
        });
    }

    #[test]
    fn tie_heavy_scores_have_few_distinct_values() {
        let mut rng = TestRng::new(99);
        let scores = rng.tie_heavy_scores(500, 4, 0.0..1.0);
        let mut distinct: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= 4, "{} distinct values", distinct.len());
    }

    #[test]
    fn failure_reports_name_case_and_seed() {
        let err = std::panic::catch_unwind(|| {
            forall("always fails", 3, |_| panic!("boom"));
        })
        .expect_err("property should fail");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("'always fails'"), "{msg}");
        assert!(msg.contains("case 0"), "{msg}");
        assert!(msg.contains("seed 0x"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn replay_reproduces_a_case() {
        // Capture the value the first case draws, then replay it.
        let seed = {
            let mut captured = 0u64;
            forall("capture", 1, |rng| captured = rng.next_u64());
            let mut rng = TestRng::new(super::case_seed("capture", 0));
            assert_eq!(rng.next_u64(), captured);
            super::case_seed("capture", 0)
        };
        replay("capture", seed, |rng| {
            let _ = rng.next_u64();
        });
    }

    #[test]
    fn tricky_floats_cover_the_special_values_and_compare_by_bits() {
        let mut rng = TestRng::new(11);
        let draws: Vec<f32> = (0..400).map(|_| rng.tricky_f32(-1.0..1.0)).collect();
        assert!(draws.iter().any(|x| x.is_nan()));
        assert!(draws.contains(&f32::INFINITY) && draws.contains(&f32::NEG_INFINITY));
        assert!(draws.iter().any(|x| x.to_bits() == (-0.0f32).to_bits()));
        assert!(draws.iter().filter(|x| x.is_finite() && **x != 0.0).count() > 300);

        assert!(same_f32_bits(f32::NAN, -f32::NAN));
        assert!(same_f32_bits(1.5, 1.5));
        assert!(!same_f32_bits(0.0, -0.0));
        assert!(!same_f32_bits(f32::NAN, 1.0));
    }

    #[test]
    fn fork_is_reproducible() {
        let mut a = TestRng::new(11);
        let mut b = TestRng::new(11);
        let mut fa = a.fork();
        let mut fb = b.fork();
        assert_eq!(fa.next_u64(), fb.next_u64());
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
