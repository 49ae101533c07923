//! Deterministic pseudo-random numbers for the AutoNCS reproduction.
//!
//! Every stochastic algorithm in the framework — pattern generation,
//! k-means++ seeding, crossbar process variation —
//! takes an explicit `u64` seed and must produce bit-identical results on
//! every platform and every release, because the paper's tables and the
//! perf trajectory are regenerated from those seeds. This crate supplies
//! that substrate with zero external dependencies:
//!
//! * [`Rng`] — Xoshiro256++ (Blackman & Vigna), seeded through SplitMix64
//!   so that any `u64` (including 0) expands to a full 256-bit state.
//! * A small distribution surface: uniform `f64`/`bool`, unbiased integer
//!   and float ranges ([`Rng::gen_range`]), Box–Muller Gaussians
//!   ([`Rng::normal`]), Fisher–Yates [`Rng::shuffle`], and [`Rng::choose`].
//!
//! The output streams are pinned by known-answer tests against an
//! independent reference implementation; changing them is a breaking
//! change for every downstream experiment.
//!
//! # Examples
//!
//! ```
//! use ncs_rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let p = rng.gen_f64();          // uniform in [0, 1)
//! assert!((0.0..1.0).contains(&p));
//! let i = rng.gen_range(0..10usize);
//! assert!(i < 10);
//! let mut xs = [1, 2, 3, 4, 5];
//! rng.shuffle(&mut xs);
//! assert_eq!(xs.iter().sum::<i32>(), 15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 step: the statistically strong 64-bit mixer used to expand a
/// single `u64` seed into Xoshiro state (and available on its own for
/// cheap seed derivation, e.g. per-trial sub-seeds).
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable Xoshiro256++ generator.
///
/// Not cryptographically secure — this is a simulation RNG chosen for
/// speed, equidistribution, and a trivially portable implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose 256-bit state is expanded from `seed`
    /// with SplitMix64, as the Xoshiro authors recommend. Distinct seeds
    /// (including 0) yield well-separated streams.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit output of the Xoshiro256++ stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with the full 53 bits of mantissa
    /// randomness (`next_u64 >> 11` scaled by `2⁻⁵³`).
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fair coin flip (the top bit of the next output).
    #[inline]
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() >> 63 != 0
    }

    /// Uniform sample from `range`: integer `a..b` / `a..=b` ranges are
    /// unbiased (rejection sampling), float `a..b` ranges are
    /// `a + u·(b−a)` with `u ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Unbiased integer in `[0, span)` by rejection sampling
    /// (`arc4random_uniform` style): draws above the largest multiple of
    /// `span` representable in 64 bits are rejected, so no modulo bias.
    #[inline]
    fn bounded_u64(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        if span.is_power_of_two() {
            return self.next_u64() & (span - 1);
        }
        let threshold = span.wrapping_neg() % span;
        loop {
            let v = self.next_u64();
            if v >= threshold {
                return v % span;
            }
        }
    }

    /// Gaussian sample `N(mean, sigma²)` via the Box–Muller transform.
    /// Consumes exactly two uniforms per call (the second transform output
    /// is discarded, keeping call sites' stream positions easy to reason
    /// about).
    pub fn normal(&mut self, mean: f64, sigma: f64) -> f64 {
        let u1 = self.gen_f64().max(1e-12);
        let u2 = self.gen_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + sigma * z
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for k in (1..slice.len()).rev() {
            let j = self.bounded_u64(k as u64 + 1) as usize;
            slice.swap(k, j);
        }
    }

    /// Uniformly chosen element of `slice`, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let idx = self.bounded_u64(slice.len() as u64) as usize;
            Some(&slice[idx])
        }
    }
}

/// Range types [`Rng::gen_range`] accepts, with the element type they
/// produce. Implemented for half-open and inclusive integer ranges and
/// half-open `f64` ranges.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_from(self, rng: &mut Rng) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.bounded_u64(span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from(self, rng: &mut Rng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return start + rng.next_u64() as $t;
                }
                start + rng.bounded_u64(span + 1) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_from(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let v = self.start + rng.gen_f64() * (self.end - self.start);
        // Guard against rounding up to the excluded endpoint for tiny spans.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl SampleRange<f32> for Range<f32> {
    #[inline]
    fn sample_from(self, rng: &mut Rng) -> f32 {
        assert!(self.start < self.end, "gen_range: empty range");
        let v = self.start + rng.gen_f64() as f32 * (self.end - self.start);
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer test: SplitMix64 against the published reference
    /// vectors (seed 0) plus our independently computed seed-42 stream.
    /// If this fails, every seeded experiment in the workspace changes.
    #[test]
    fn splitmix64_known_answers() {
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
        let mut s = 42u64;
        assert_eq!(splitmix64(&mut s), 0xBDD7_3226_2FEB_6E95);
        assert_eq!(splitmix64(&mut s), 0x28EF_E333_B266_F103);
        assert_eq!(splitmix64(&mut s), 0x4752_6757_130F_9F52);
    }

    /// Known-answer test: the Xoshiro256++ stream for three seeds,
    /// cross-checked against an independent Python reference
    /// implementation of Blackman & Vigna's algorithm.
    #[test]
    fn xoshiro_known_answers() {
        let expect: [(u64, [u64; 6]); 3] = [
            (
                0,
                [
                    0x5317_5D61_490B_23DF,
                    0x61DA_6F3D_C380_D507,
                    0x5C0F_DF91_EC9A_7BFC,
                    0x02EE_BF8C_3BBE_5E1A,
                    0x7ECA_04EB_AF4A_5EEA,
                    0x0543_C377_57F0_8D9A,
                ],
            ),
            (
                1,
                [
                    0xCFC5_D07F_6F03_C29B,
                    0xBF42_4132_963F_E08D,
                    0x19A3_7D57_57AA_F520,
                    0xBF08_119F_05CD_56D6,
                    0x2F47_184B_8618_6FA4,
                    0x9729_9FCA_E720_2345,
                ],
            ),
            (
                42,
                [
                    0xD076_4D4F_4476_689F,
                    0x519E_4174_576F_3791,
                    0xFBE0_7CFB_0C24_ED8C,
                    0xB37D_9F60_0CD8_35B8,
                    0xCB23_1C38_7484_6A73,
                    0x968D_9F00_4E50_DE7D,
                ],
            ),
        ];
        for (seed, stream) in expect {
            let mut rng = Rng::seed_from_u64(seed);
            for (i, &want) in stream.iter().enumerate() {
                assert_eq!(rng.next_u64(), want, "seed {seed}, output {i}");
            }
        }
    }

    /// The `f64` stream is a pure function of the u64 stream; pin it too
    /// so a change to the scaling convention cannot slip through.
    #[test]
    fn f64_stream_known_answers() {
        let mut rng = Rng::seed_from_u64(42);
        let expect = [
            0.8143051451229099,
            0.3188210400616611,
            0.9838941681774888,
            0.7011355981347556,
        ];
        for (i, want) in expect.into_iter().enumerate() {
            let got = rng.gen_f64();
            assert_eq!(got, want, "seed 42, f64 output {i}");
        }
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        let mut c = Rng::seed_from_u64(8);
        let sa: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn gen_f64_in_unit_interval_and_well_spread() {
        let mut rng = Rng::seed_from_u64(3);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut rng = Rng::seed_from_u64(4);
        let heads = (0..10_000).filter(|_| rng.gen_bool()).count();
        assert!((4600..5400).contains(&heads), "heads {heads}");
    }

    #[test]
    fn integer_ranges_cover_exactly_the_range() {
        let mut rng = Rng::seed_from_u64(5);
        let mut seen = [0usize; 7];
        for _ in 0..7_000 {
            seen[rng.gen_range(0..7usize)] += 1;
        }
        for (v, &count) in seen.iter().enumerate() {
            assert!(count > 700, "value {v} drawn only {count} times");
        }
        // Inclusive ranges can hit both endpoints.
        let mut lo = false;
        let mut hi = false;
        for _ in 0..1_000 {
            match rng.gen_range(2..=4usize) {
                2 => lo = true,
                4 => hi = true,
                3 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo && hi);
        // Degenerate singleton inclusive range.
        assert_eq!(rng.gen_range(9..=9u64), 9);
    }

    #[test]
    fn float_ranges_stay_inside() {
        let mut rng = Rng::seed_from_u64(6);
        for _ in 0..1_000 {
            let v = rng.gen_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Rng::seed_from_u64(0);
        let _ = rng.gen_range(5..5usize);
    }

    #[test]
    fn normal_matches_moments() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn shuffle_permutes_and_choose_selects() {
        let mut rng = Rng::seed_from_u64(12);
        let mut xs: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            xs, sorted,
            "a 50-element shuffle fixing everything is ~impossible"
        );
        for _ in 0..100 {
            assert!(xs.contains(rng.choose(&xs).unwrap()));
        }
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        let mut single = [9];
        rng.shuffle(&mut single);
        assert_eq!(single, [9]);
    }

    /// Per-seed stream stability for the composed distribution surface:
    /// the exact values the framework's experiments depend on.
    #[test]
    fn distribution_surface_is_stream_stable() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        let seq_a = (
            a.gen_f64(),
            a.gen_bool(),
            a.gen_range(0..1000usize),
            a.gen_range(-1.0..1.0),
            a.normal(0.0, 1.0),
        );
        let seq_b = (
            b.gen_f64(),
            b.gen_bool(),
            b.gen_range(0..1000usize),
            b.gen_range(-1.0..1.0),
            b.normal(0.0, 1.0),
        );
        assert_eq!(seq_a, seq_b);
    }
}
