//! Freeze thresholds `T_{v,t} ∈ [1-4ε, 1-2ε]` (Algorithm 1 line 3,
//! Algorithm 2 line 2d).
//!
//! The MPC analysis *requires* the thresholds to be independent uniform
//! random draws: Lemma 4.8 bounds the probability a vertex's noisy local
//! estimate lands on the wrong side of its threshold by `σ/ε`, which is
//! only possible because the threshold position is random within a window
//! of width `2ε·w'(v)`. A fixed threshold lets an adversarial (or merely
//! unlucky) instance park many vertices right at the decision boundary,
//! where every machine resolves them differently — the E12 ablation
//! measures exactly this failure mode.
//!
//! Thresholds are a pure function of `(seed, phase, vertex, iteration)`,
//! so any machine — and the coupled centralized run of Lemma 4.6 — can
//! evaluate them without communication.
//!
//! # The freeze window
//!
//! Every draw lies in a fixed window `[lo, hi)`: `[1-4ε, 1-2ε)` for
//! [`ThresholdScheme::UniformRandom`], and `lo = hi = 1-3ε` for
//! [`ThresholdScheme::FixedMidpoint`]. A draw costs a fresh ChaCha8
//! generator, yet it can only change the freeze test `y ≥ T·w` when
//! `lo·w ≤ y < hi·w`, so [`ThresholdScheme::freezes`] draws `T` only
//! there. This is exact, not an approximation:
//!
//! * `gen_range(lo..hi)` returns `lo ≤ T < hi`: the draw is `lo` plus a
//!   nonnegative term, and the end is guarded with `next_down`.
//! * For `w ≥ 0`, rounded multiplication is monotone, so
//!   `lo·w ≤ T·w ≤ hi·w`. Weights are positive and residual weights are
//!   clamped at 0.
//! * So `y < lo·w` never freezes and `y ≥ hi·w` always does. A NaN `y`
//!   fails both tests and takes the draw, which also answers `false`.
//!
//! The gate and the draws read the window from one private definition,
//! and no caller passes a window in, so none can gate with a window its
//! draws leave.

use mpc_sim::rng::{composite_rng, streams};
use rand::Rng;

/// Threshold scheme choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdScheme {
    /// Independent uniform draws from `[1-4ε, 1-2ε]` — the paper's scheme.
    UniformRandom,
    /// Fixed midpoint `1-3ε` — the ablation (breaks Lemma 4.8's argument).
    FixedMidpoint,
}

impl ThresholdScheme {
    /// The window `[lo, hi)` every `T_{v,t}` of this scheme lies in:
    /// `[1-4ε, 1-2ε)` for random draws, `lo = hi = 1-3ε` for the fixed
    /// midpoint.
    fn window(&self, epsilon: f64) -> (f64, f64) {
        match self {
            ThresholdScheme::UniformRandom => (1.0 - 4.0 * epsilon, 1.0 - 2.0 * epsilon),
            ThresholdScheme::FixedMidpoint => (1.0 - 3.0 * epsilon, 1.0 - 3.0 * epsilon),
        }
    }

    /// `T_{v,t}` for the given epsilon, derived from
    /// `(seed, phase, vertex, iteration)`.
    pub fn threshold(&self, epsilon: f64, seed: u64, phase: u64, vertex: u32, t: u32) -> f64 {
        debug_assert!(epsilon > 0.0 && epsilon <= 0.25);
        let (lo, hi) = self.window(epsilon);
        match self {
            ThresholdScheme::UniformRandom => {
                // Full-width composite key. An earlier revision packed
                // (phase, vertex, t) into one u64 with shifts
                // (phase << 40 ^ vertex << 8 ^ t), which silently
                // collides once t reaches 256 (bleeding into the vertex
                // field) or phase reaches 2^24 (wrapping off the top) —
                // see the boundary regression tests below.
                let mut rng =
                    composite_rng(seed, streams::THRESHOLD, &[phase, vertex as u64, t as u64]);
                rng.gen_range(lo..hi)
            }
            ThresholdScheme::FixedMidpoint => lo,
        }
    }

    /// The freeze test `y ≥ T_{v,t}·w` (Algorithm 1 line 4a, Algorithm 2
    /// line 2(g)i) for vertex `vertex` at iteration `t` of `phase`, with
    /// `(y, w)` its incident dual sum and (residual) weight, `w ≥ 0`.
    ///
    /// Decides the test against the scheme's window and draws `T` only
    /// when `lo·w ≤ y < hi·w`; the answer always equals
    /// `y >= self.threshold(..) * w` (see the module docs).
    #[inline]
    pub fn freezes(
        &self,
        epsilon: f64,
        seed: u64,
        phase: u64,
        vertex: u32,
        t: u32,
        (y, w): (f64, f64),
    ) -> bool {
        debug_assert!((0.0..f64::INFINITY).contains(&w), "weight {w}");
        let (lo, hi) = self.window(epsilon);
        if y < lo * w {
            return false;
        }
        if y >= hi * w {
            return true;
        }
        y >= self.threshold(epsilon, seed, phase, vertex, t) * w
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            ThresholdScheme::UniformRandom => "random",
            ThresholdScheme::FixedMidpoint => "fixed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 0.1;

    #[test]
    fn random_thresholds_stay_in_window() {
        let s = ThresholdScheme::UniformRandom;
        for v in 0..200u32 {
            for t in 0..10u32 {
                let th = s.threshold(EPS, 1, 0, v, t);
                assert!((1.0 - 4.0 * EPS..1.0 - 2.0 * EPS).contains(&th));
            }
        }
    }

    #[test]
    fn random_thresholds_are_reproducible() {
        let s = ThresholdScheme::UniformRandom;
        assert_eq!(s.threshold(EPS, 5, 2, 17, 3), s.threshold(EPS, 5, 2, 17, 3));
    }

    #[test]
    fn thresholds_vary_across_all_indices() {
        let s = ThresholdScheme::UniformRandom;
        let base = s.threshold(EPS, 1, 1, 1, 1);
        assert_ne!(base, s.threshold(EPS, 2, 1, 1, 1), "seed");
        assert_ne!(base, s.threshold(EPS, 1, 2, 1, 1), "phase");
        assert_ne!(base, s.threshold(EPS, 1, 1, 2, 1), "vertex");
        assert_ne!(base, s.threshold(EPS, 1, 1, 1, 2), "iteration");
    }

    #[test]
    fn random_thresholds_fill_the_window() {
        // Min and max over many draws should approach the window ends:
        // a degenerate generator would fail this.
        let s = ThresholdScheme::UniformRandom;
        let draws: Vec<f64> = (0..2000u32).map(|v| s.threshold(EPS, 9, 0, v, 0)).collect();
        let lo = draws.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = draws.iter().copied().fold(0.0, f64::max);
        let window = 2.0 * EPS;
        assert!(lo < 1.0 - 4.0 * EPS + 0.05 * window);
        assert!(hi > 1.0 - 2.0 * EPS - 0.05 * window);
    }

    #[test]
    fn old_packed_key_boundaries_no_longer_collide() {
        let s = ThresholdScheme::UniformRandom;
        // t >= 256 used to bleed into the vertex field:
        // key(p, v=1, t=0) == key(p, v=0, t=256) under the shift packing.
        assert_ne!(
            s.threshold(EPS, 3, 5, 1, 0),
            s.threshold(EPS, 3, 5, 0, 256),
            "iteration 256 must not alias vertex 1"
        );
        // More generally, every (v, t) with t = v * 256 aliased (v, 0)'s
        // neighborhood; sweep a band around the boundary.
        for v in 1..64u32 {
            assert_ne!(
                s.threshold(EPS, 3, 5, v, 0),
                s.threshold(EPS, 3, 5, 0, v * 256),
                "v={v}"
            );
        }
        // phase >= 2^24 used to wrap off the top of the u64.
        assert_ne!(
            s.threshold(EPS, 3, 0, 7, 2),
            s.threshold(EPS, 3, 1 << 24, 7, 2),
            "phase 2^24 must not alias phase 0"
        );
    }

    #[test]
    fn large_iteration_counts_draw_distinct_thresholds() {
        // Growing iteration schedules must keep drawing fresh randomness
        // arbitrarily far out.
        let s = ThresholdScheme::UniformRandom;
        let draws: Vec<u64> = (0..2048u32)
            .map(|t| s.threshold(EPS, 11, 2, 9, t).to_bits())
            .collect();
        let mut unique = draws.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), draws.len(), "duplicate threshold draws");
    }

    /// The gated freeze test answers exactly as the ungated
    /// `y >= threshold(..) * w`: for both schemes, at ε from 1e-3 up to
    /// 1/4 (where `lo = 0`), for zero, tiny and random weights, with `y`
    /// on each window end, one ulp either side of it, and at random
    /// around the window.
    #[test]
    fn gated_freeze_test_matches_the_threshold_draw() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x6761_7465);
        for scheme in [
            ThresholdScheme::UniformRandom,
            ThresholdScheme::FixedMidpoint,
        ] {
            for eps in [1e-3, 0.03, 0.1, 0.25] {
                let (lo, hi) = scheme.window(eps);
                for case in 0..512 {
                    let w = match case % 3 {
                        0 => 0.0,
                        1 => 1e-300,
                        _ => rng.gen_range(0.0..=1e6),
                    };
                    let (seed, phase) = (rng.gen::<u64>(), rng.gen_range(0..8u64));
                    let (v, t) = (rng.gen::<u32>(), rng.gen_range(0..64u32));
                    let mut ys = Vec::new();
                    for end in [lo * w, hi * w] {
                        ys.extend([end.next_down(), end, end.next_up()]);
                    }
                    // The random window widened by ε on each side.
                    ys.push(w * rng.gen_range(1.0 - 5.0 * eps..1.0 - eps));
                    for y in ys {
                        let gated = scheme.freezes(eps, seed, phase, v, t, (y, w));
                        let drawn = y >= scheme.threshold(eps, seed, phase, v, t) * w;
                        assert_eq!(
                            gated, drawn,
                            "{scheme:?} eps {eps} w {w} y {y} seed {seed} phase {phase} v {v} t {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_midpoint_is_constant() {
        let s = ThresholdScheme::FixedMidpoint;
        assert_eq!(s.threshold(EPS, 1, 2, 3, 4), 1.0 - 3.0 * EPS);
        assert_eq!(s.threshold(EPS, 9, 9, 9, 9), 1.0 - 3.0 * EPS);
    }
}
