//! Deterministic random-number helpers.
//!
//! Every stochastic decision in the workload generators derives from a
//! [`DetRng`] seeded from an explicit `(seed, stream)` pair, so a simulation
//! is a pure function of its configuration. This is what lets the paper-style
//! "training input vs. reference input" methodology work: the two inputs are
//! simply different seeds and footprint scales.
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna), whose
//! 256-bit state is expanded from the mixed seed by SplitMix64 — the
//! reference seeding procedure for the xoshiro family. No external crates:
//! the container image has no registry access, and a hand-rolled generator
//! also pins the exact sequence across toolchain updates.

/// A deterministic RNG with convenience methods used by workload generation.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
}

/// One SplitMix64 step; used to expand a 64-bit seed into generator state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `2^53`: [`DetRng::unit`] is a 53-bit draw scaled by its inverse.
const UNIT_SCALE: f64 = (1u64 << 53) as f64;

/// Integer cut of probability `p` for [`DetRng::hit`]. For a 53-bit draw
/// `u`, `unit() < p` is `u · 2^-53 < p`; scaling by a power of two is exact,
/// so that is `u < p · 2^53`, and for an integer `u` it is `u < ⌈p · 2^53⌉`.
/// The cast saturates: `p ≤ 0` (or NaN) never hits, `p ≥ 1` always does.
pub fn prob_cut(p: f64) -> u64 {
    (p * UNIT_SCALE).ceil() as u64
}

/// The index [`weight_cuts`] thresholds `cuts` give the 53-bit draw `u`:
/// the number of thresholds at or below it. A branch-free count, as the
/// thresholds are few and ascending.
#[inline]
pub fn picked(cuts: &[u64], u: u64) -> usize {
    cuts.iter().map(|&c| usize::from(u >= c)).sum()
}

/// Integer thresholds for [`DetRng::pick`] that reproduce a float weighted
/// pick over `weights` draw for draw. That pick scales `unit()` by the
/// weights' sum and walks the table subtracting each weight (falling back
/// to the last index); every step is monotone in the draw, so the index it
/// returns is too. Threshold `k` is the smallest 53-bit draw that maps past
/// index `k` (`2^53`, never reached, if none does), found by binary search.
/// Weights must be non-negative and not all zero.
pub fn weight_cuts(weights: &[f64]) -> Vec<u64> {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights sum to zero");
    let float_pick = |u: u64| {
        let mut x = u as f64 * (1.0 / UNIT_SCALE) * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    };
    let end = 1u64 << 53;
    (0..weights.len().saturating_sub(1))
        .map(|k| {
            let (mut lo, mut hi) = (0, end);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if float_pick(mid) > k {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        })
        .collect()
}

impl DetRng {
    /// Create an RNG from a base seed and a stream index. Distinct streams
    /// (e.g. one per object, one per core) are statistically independent.
    pub fn new(seed: u64, stream: u64) -> DetRng {
        // SplitMix64-style mixing of (seed, stream) into a 64-bit state so
        // that nearby (seed, stream) pairs produce unrelated sequences.
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(0x94D0_49BB_1331_11EB);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let mut sm = z;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { state }
    }

    /// Next raw value from the xoshiro256++ core.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
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

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire-style rejection: unbiased, and the retry loop is almost
        // never taken for the small bounds workload generation uses.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let wide = (x as u128) * (bound as u128);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        // 53 high bits → the standard [0, 1) double conversion.
        self.draw53() as f64 * (1.0 / UNIT_SCALE)
    }

    /// The 53 high bits of one draw: the integer behind [`unit`](Self::unit),
    /// which is exactly `draw53() / 2^53`.
    #[inline]
    pub fn draw53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// [`chance`](Self::chance) against a precomputed [`prob_cut`]: one
    /// draw, and `hit(prob_cut(p)) == chance(p)` for every draw.
    #[inline]
    pub fn hit(&mut self, cut: u64) -> bool {
        self.draw53() < cut
    }

    /// Weighted index against precomputed [`weight_cuts`]: one draw, mapped
    /// by [`picked`].
    #[inline]
    pub fn pick(&mut self, cuts: &[u64]) -> usize {
        picked(cuts, self.draw53())
    }

    /// Raw 64-bit value.
    #[inline]
    pub fn raw(&mut self) -> u64 {
        self.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::new(42, 7);
        let mut b = DetRng::new(42, 7);
        for _ in 0..100 {
            assert_eq!(a.raw(), b.raw());
        }
    }

    #[test]
    fn different_streams_differ() {
        let mut a = DetRng::new(42, 0);
        let mut b = DetRng::new(42, 1);
        let same = (0..32).filter(|_| a.raw() == b.raw()).count();
        assert!(same < 2);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(1, 1);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn pick_prefers_heavy_weight() {
        let mut r = DetRng::new(3, 3);
        let cuts = weight_cuts(&[0.01, 0.98, 0.01]);
        let mut counts = [0u32; 3];
        for _ in 0..1000 {
            counts[r.pick(&cuts)] += 1;
        }
        assert!(counts[1] > 900, "counts = {counts:?}");
    }

    #[test]
    fn cuts_saturate_at_the_extremes() {
        assert_eq!(prob_cut(0.0), 0);
        assert_eq!(prob_cut(-0.5), 0);
        assert_eq!(prob_cut(f64::NAN), 0);
        assert_eq!(prob_cut(1.0), 1 << 53);
        // A zero weight owns no draws: its threshold equals its neighbour's.
        let cuts = weight_cuts(&[1.0, 0.0, 1.0]);
        assert_eq!(cuts[0], cuts[1]);
        assert_eq!(weight_cuts(&[2.0]), Vec::<u64>::new());
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(5, 5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.hit(prob_cut(0.0)));
        assert!(r.hit(prob_cut(1.0)));
    }

    #[test]
    fn hit_is_strictly_below_the_cut() {
        let mut r = DetRng::new(11, 4);
        for _ in 0..64 {
            let d = r.clone().draw53();
            assert!(!r.clone().hit(d), "a draw equal to the cut misses");
            assert!(r.hit(d + 1), "a draw one below the cut hits");
        }
    }

    #[test]
    fn unit_is_half_open() {
        let mut r = DetRng::new(9, 9);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
