//! Deterministic pseudo-random number generation for Monte Carlo work.
//!
//! The suite needs reproducible randomness with two extra constraints the
//! usual crates do not give us for free:
//!
//! 1. **offline builds** — no external dependencies, and
//! 2. **stream splitting** — a parent seed must derive independent child
//!    streams by index, so a chunk of Monte Carlo samples draws the same
//!    values no matter which worker thread evaluates it (see
//!    `ssn-core::parallel`).
//!
//! The generator is xoshiro256++ (Blackman & Vigna, public domain), seeded
//! through SplitMix64 exactly as its authors recommend. Both algorithms are
//! small, portable, and have well-studied statistical quality far beyond
//! what variation analysis needs.
//!
//! Normal deviates come from a 256-layer ziggurat (Marsaglia & Tsang 2000,
//! with Doornik's 2005 fix of drawing the layer and the uniform from
//! disjoint bits). A draw that lands inside a layer's rectangle — about
//! 98.5% of them — costs one `next_u64`, a table load and a multiply; only
//! the wedges and the tail beyond `R ≈ 3.654` call `exp`/`ln`.

use std::sync::OnceLock;

/// SplitMix64: a tiny 64-bit generator used to expand seeds and derive
/// independent streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Starts the sequence at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the workhorse generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the full 256-bit state from a single `u64` via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = sm.next_u64();
        }
        // The all-zero state is the one invalid state; SplitMix64 cannot
        // produce four consecutive zeros, but keep the guard explicit.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Self { s }
    }

    /// Derives the `stream`-th independent child generator of `seed`.
    ///
    /// The (seed, stream) pair is hashed through SplitMix64 before state
    /// expansion, so streams 0, 1, 2, ... of the same seed are mutually
    /// independent sequences — the determinism contract of the parallel
    /// Monte Carlo engine rests on this.
    pub fn from_seed_and_stream(seed: u64, stream: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let a = sm.next_u64();
        let mut sm2 = SplitMix64::new(a ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BC05));
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = sm2.next_u64();
        }
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Self { s }
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// A uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty integer range");
        let span = (hi - lo) as u64 + 1;
        // Multiply-shift rejection-free mapping is fine here: span is tiny
        // relative to 2^64, so the bias is immeasurable for test use.
        lo + ((self.next_u64() as u128 * span as u128) >> 64) as usize
    }

    /// A standard normal deviate from the ziggurat.
    ///
    /// One `next_u64` feeds each attempt through disjoint bits: bits 0–7
    /// pick the layer, bit 8 the sign, and bits 11–63 the 53-bit uniform
    /// that places `x` along the layer. Inside the layer's rectangle the
    /// attempt is accepted outright; in a wedge one more uniform decides
    /// against the density, and the base layer's overhang is redrawn from
    /// the exact tail beyond `R ≈ 3.654`.
    pub fn normal(&mut self) -> f64 {
        let z = ziggurat();
        loop {
            let bits = self.next_u64();
            let i = (bits & 0xff) as usize;
            // Bit 8 moved to bit 63, the sign bit of an f64.
            let sign = (bits & 0x100) << 55;
            let x = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * z.x[i];
            if x < z.x[i + 1] {
                return f64::from_bits(x.to_bits() ^ sign);
            }
            let x = if i == 0 {
                self.normal_tail()
            } else {
                // Layer i spans heights f(x[i])..f(x[i+1]) over the wedge.
                let y = z.f[i] + self.uniform() * (z.f[i + 1] - z.f[i]);
                if y >= (-0.5 * x * x).exp() {
                    continue;
                }
                x
            };
            return f64::from_bits(x.to_bits() ^ sign);
        }
    }

    /// A deviate from the standard normal tail beyond [`ZIGGURAT_R`]
    /// (Marsaglia 1964): exact, and needed by about 1 draw in 3900.
    fn normal_tail(&mut self) -> f64 {
        loop {
            // 1 - uniform() lies in (0, 1], so neither logarithm is infinite.
            let a = -(1.0 - self.uniform()).ln() / ZIGGURAT_R;
            let b = -(1.0 - self.uniform()).ln();
            if b + b > a * a {
                return ZIGGURAT_R + a;
            }
        }
    }
}

/// Layers of the ziggurat behind [`Rng::normal`].
const ZIGGURAT_LAYERS: usize = 256;
/// Where the base layer's rectangle ends and its tail begins: the `R` for
/// which 256 layers of equal area close exactly at the mode.
const ZIGGURAT_R: f64 = 3.654152885361009;
/// The common area of every layer under `exp(-x²/2)`, the base layer
/// counting its tail beyond [`ZIGGURAT_R`].
const ZIGGURAT_AREA: f64 = 0.004928673233974655;

/// The ziggurat's layer edges and the density at each.
struct Ziggurat {
    /// Right edges, strictly decreasing: `x[0]` is the width of the base
    /// layer taken as one rectangle of area [`ZIGGURAT_AREA`], `x[1]` is
    /// [`ZIGGURAT_R`], and `x[256]` is 0.
    x: [f64; ZIGGURAT_LAYERS + 1],
    /// `f[i] = exp(-x[i]²/2)`.
    f: [f64; ZIGGURAT_LAYERS + 1],
}

/// The ziggurat tables, built once at first use: layer `i` is the
/// rectangle `[0, x[i]] × [f[i], f[i+1]]`, each of the same area.
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIGGURAT_LAYERS + 1];
        x[0] = ZIGGURAT_AREA / density(ZIGGURAT_R);
        x[1] = ZIGGURAT_R;
        for i in 1..ZIGGURAT_LAYERS - 1 {
            // Solves x[i] * (f(x[i+1]) - f(x[i])) = ZIGGURAT_AREA.
            x[i + 1] = (-2.0 * (ZIGGURAT_AREA / x[i] + density(x[i])).ln()).sqrt();
        }
        let f = x.map(density);
        Ziggurat { x, f }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_moves() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs[0], xs[1]);
        let mut c = SplitMix64::new(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn rng_reproducible_per_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(8);
        assert_ne!(Rng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn streams_are_distinct_and_reproducible() {
        let mut s0 = Rng::from_seed_and_stream(1, 0);
        let mut s1 = Rng::from_seed_and_stream(1, 1);
        let mut s0b = Rng::from_seed_and_stream(1, 0);
        let a: Vec<u64> = (0..16).map(|_| s0.next_u64()).collect();
        let b: Vec<u64> = (0..16).map(|_| s1.next_u64()).collect();
        let a2: Vec<u64> = (0..16).map(|_| s0b.next_u64()).collect();
        assert_eq!(a, a2);
        assert_ne!(a, b);
        // Different parent seeds diverge too.
        let mut other = Rng::from_seed_and_stream(2, 0);
        assert_ne!(a[0], other.next_u64());
    }

    #[test]
    fn uniform_stays_in_range_and_fills_it() {
        let mut r = Rng::seed_from_u64(3);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(lo < 0.01 && hi > 0.99);
        for _ in 0..1000 {
            let x = r.uniform_in(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn usize_in_covers_inclusive_bounds() {
        let mut r = Rng::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let k = r.usize_in(10, 14);
            assert!((10..=14).contains(&k));
            seen[k - 10] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(r.usize_in(3, 3), 3);
    }

    #[test]
    fn normal_stream_is_pinned() {
        // The first draws of Monte Carlo chunk 0 under seed 1. A change
        // here moves every Monte Carlo sample, so it must come with a bump
        // of `ssn_core::montecarlo::MC_STREAM_VERSION`.
        const FIRST: [u64; 16] = [
            0xbff9_a416_3d1b_51ad,
            0xbfe4_8e8d_bf97_c5b7,
            0x3fe9_1fd5_d403_5607,
            0xbffa_e2c9_5e1a_dd99,
            0x3fe4_a4a9_4f57_6511,
            0x3fc2_2699_6369_6e8e,
            0xbffe_c2ed_2dba_ea25,
            0xbfc3_0c0a_4765_599d,
            0x3fd2_d8a7_e28f_db7e,
            0x3fea_f086_11b4_319b,
            0xbfed_4372_69f3_e9d0,
            0xbfec_adc1_a6c0_4c37,
            0x3fef_c1c6_c0d8_dd5b,
            0x3ff9_9942_a77e_0a5f,
            0xbfeb_996d_94f4_9f4a,
            0xbfd0_bfda_e2a2_5335,
        ];
        let mut r = Rng::from_seed_and_stream(1, 0);
        let got: Vec<u64> = (0..16).map(|_| r.normal().to_bits()).collect();
        assert_eq!(got, FIRST);
    }

    #[test]
    fn ziggurat_layers_have_equal_areas_and_edges_fall_to_zero() {
        let z = ziggurat();
        let density = |x: f64| (-0.5 * x * x).exp();
        assert_eq!(z.x[1], ZIGGURAT_R);
        assert_eq!(z.x[ZIGGURAT_LAYERS], 0.0);
        for i in 0..ZIGGURAT_LAYERS {
            assert!(z.x[i] > z.x[i + 1], "x[{i}] = {} <= x[{}]", z.x[i], i + 1);
        }
        for i in 0..=ZIGGURAT_LAYERS {
            assert_eq!(z.f[i], density(z.x[i]));
        }
        // Layers above the base: rectangles of width x[i] between the
        // density at their two edges. The top one closes at the mode only
        // if R and the area are right.
        for i in 1..ZIGGURAT_LAYERS {
            let area = z.x[i] * (z.f[i + 1] - z.f[i]);
            assert!(
                (area / ZIGGURAT_AREA - 1.0).abs() < 1e-9,
                "layer {i}: area {area:e}"
            );
        }
        // The base layer: the rectangle under f(R) plus the tail beyond R
        // (Simpson's rule out to R + 12, where the density is below 1e-40).
        let steps = 20_000;
        let h = 12.0 / steps as f64;
        let tail = (0..=steps)
            .map(|k| {
                let w = if k == 0 || k == steps {
                    1.0
                } else if k % 2 == 1 {
                    4.0
                } else {
                    2.0
                };
                w * density(ZIGGURAT_R + k as f64 * h)
            })
            .sum::<f64>()
            * h
            / 3.0;
        let base = ZIGGURAT_R * density(ZIGGURAT_R) + tail;
        assert!((base / ZIGGURAT_AREA - 1.0).abs() < 1e-9, "base {base:e}");
        assert!((z.x[0] * z.f[1] / ZIGGURAT_AREA - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normal_draws_follow_the_standard_normal() {
        // Standard normal CDF at the bin edges below 0 (the rest follow by
        // symmetry), with R the ziggurat's base edge.
        const PHI: [(f64, f64); 5] = [
            (-ZIGGURAT_R, 1.290_162_438_269_503_3e-4),
            (-3.0, 1.349_898_031_630_094_6e-3),
            (-2.0, 2.275_013_194_817_921e-2),
            (-1.0, 0.158_655_253_931_457_05),
            (-0.5, 0.308_537_538_725_986_9),
        ];
        let mut edges: Vec<(f64, f64)> = PHI.to_vec();
        edges.push((0.0, 0.5));
        edges.extend(PHI.iter().rev().map(|&(z, p)| (-z, 1.0 - p)));

        let n = 1usize << 20;
        let mut r = Rng::seed_from_u64(2002);
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let nf = n as f64;
        // Every tolerance is 5 standard errors of a count or a statistic
        // of n independent draws.
        let within = |count: usize, p: f64| {
            let se = (nf * p * (1.0 - p)).sqrt();
            ((count as f64 - nf * p).abs() < 5.0 * se, nf * p, se)
        };

        let mut counts = vec![0usize; edges.len() + 1];
        for &x in &xs {
            counts[edges.iter().take_while(|&&(z, _)| x >= z).count()] += 1;
        }
        for (bin, &count) in counts.iter().enumerate() {
            let lo = if bin == 0 { 0.0 } else { edges[bin - 1].1 };
            let hi = edges.get(bin).map_or(1.0, |e| e.1);
            let (ok, want, se) = within(count, hi - lo);
            assert!(ok, "bin {bin}: {count} draws, want {want:.1} ± 5 × {se:.1}");
        }

        // The tail path: |x| beyond the base edge R.
        let beyond = xs.iter().filter(|x| x.abs() > ZIGGURAT_R).count();
        let (ok, want, se) = within(beyond, 2.0 * PHI[0].1);
        assert!(ok, "{beyond} draws beyond R, want {want:.1} ± 5 × {se:.1}");

        // Successive draws are uncorrelated: the lag-1 autocorrelation of
        // n draws has standard error 1/sqrt(n).
        let mean = xs.iter().sum::<f64>() / nf;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>();
        let lag1 = xs
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / var;
        assert!(lag1.abs() < 5.0 / nf.sqrt(), "lag-1 correlation {lag1}");
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut r = Rng::seed_from_u64(11);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
        assert!(xs.iter().all(|x| x.is_finite()));
    }
}
