//! Q32 fixed-point quantization for the delta congestion accumulator.
//!
//! Incremental evaluation must be bit-identical to a from-scratch
//! rebuild, but floating-point addition is not associative: subtracting a
//! range's old contribution and re-adding its new one visits cells in a
//! different order than a rebuild would, so `f64` accumulation drifts.
//! The delta evaluator therefore accumulates per-cell probabilities as
//! integers: each probability `p ∈ [0, 1]` is quantized once to
//! `round(p · 2³²)` and the per-cell totals are `i64` sums of those
//! integers. Integer addition is associative and commutative, so *any*
//! insertion/removal order reproduces the rebuild totals exactly — no
//! tolerance band and no periodic resynchronization.
//!
//! Headroom: a cell crossed by `n` ranges totals at most `n · 2³²`,
//! which `i64` holds for `n` up to ~2³⁰ — far beyond any floorplan
//! netlist. Dequantization divides by the power-of-two scale, which is
//! exact for every total below 2⁵³ (ami49 peaks near 2⁴²).

/// Fractional bits of the quantized probability representation.
pub const PROBABILITY_FRACTION_BITS: u32 = 32;

/// `2³²` as an `f64`; exact, since powers of two are representable.
// irgrid-lint: allow(C1): 1 << 32 fits u64 and is exactly representable in f64
const SCALE: f64 = (1u64 << PROBABILITY_FRACTION_BITS) as f64;

/// Quantizes a probability to Q32 fixed point, clamping to `[0, 1]`
/// first (scoring kernels can overshoot 1 by an ulp).
///
/// The result is in `0..=2³²`; quantization is deterministic and rounds
/// half away from zero, exactly as `f64::round` would. It is computed
/// without `round`, which on the baseline x86-64 target (no SSE4.1) is a
/// libm call: for `x ∈ [0, 2³²]` the truncation `t = ⌊x⌋` is exact and
/// so is the fraction `x − t`, hence `t + (x − t ≥ ½)` equals
/// `round(x)`.
#[must_use]
pub fn quantize_probability(p: f64) -> i64 {
    let clamped = if p.is_finite() {
        p.clamp(0.0, 1.0)
    } else {
        0.0
    };
    let scaled = clamped * SCALE;
    // irgrid-lint: allow(C1): scaled ∈ [0, 2³²]: truncating to i64 and widening back are exact
    let (whole, whole_f64) = (scaled as i64, scaled as i64 as f64);
    if scaled - whole_f64 >= 0.5 {
        whole + 1
    } else {
        whole
    }
}

/// Converts an `i64` sum of quantized probabilities back to `f64`.
///
/// Exact (hence deterministic) whenever `|total| < 2⁵³`: the division by
/// a power of two only changes the exponent.
#[must_use]
pub fn dequantize_total(total: i64) -> f64 {
    // irgrid-lint: allow(C1): totals stay far below 2⁵³, where i64→f64 is exact
    (total as f64) / SCALE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_are_exact() {
        assert_eq!(quantize_probability(0.0), 0);
        assert_eq!(quantize_probability(1.0), 1i64 << 32);
        assert_eq!(dequantize_total(0), 0.0);
        assert_eq!(dequantize_total(1i64 << 32), 1.0);
    }

    #[test]
    fn out_of_range_inputs_clamp() {
        assert_eq!(quantize_probability(-0.25), 0);
        assert_eq!(quantize_probability(1.0 + 1e-12), 1i64 << 32);
        assert_eq!(quantize_probability(f64::NAN), 0);
        assert_eq!(quantize_probability(f64::INFINITY), 0);
    }

    #[test]
    fn roundtrip_error_bounded_by_half_ulp() {
        for k in 0..=1000 {
            let p = f64::from(k) / 1000.0;
            let q = quantize_probability(p);
            assert!((dequantize_total(q) - p).abs() <= 0.5 / (SCALE));
        }
    }

    #[test]
    fn round_free_quantization_matches_f64_round() {
        // Every scaled value x ∈ [0, 2³²] must quantize to round(x): the
        // integers, the exact ties k + ½, the neighbours one ulp either
        // side of each tie, and ½ − ulp (the largest value that rounds
        // down to 0).
        fn reference(p: f64) -> i64 {
            (p.clamp(0.0, 1.0) * SCALE).round() as i64
        }
        // One ulp down / up for positive finite values.
        let down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let mut scaled = vec![0.0, 1.0, down(0.5), SCALE, SCALE - 0.5];
        for k in [0.0, 1.0, 2.0, 7.0, 1e3, 65_535.0, 1e6, 2.5e9, SCALE - 1.0] {
            let tie = k + 0.5;
            scaled.extend([k, tie, down(tie), up(tie)]);
        }
        for x in scaled {
            let p = x / SCALE; // exact: division by a power of two
            assert_eq!(
                quantize_probability(p),
                reference(p),
                "x = {x:e} ({:#018x})",
                x.to_bits()
            );
        }
        for k in 0..=4096 {
            let p = f64::from(k).sin().abs() * 0.999_9 + f64::from(k) * 1e-9;
            assert_eq!(quantize_probability(p), reference(p), "p = {p}");
        }
    }

    #[test]
    fn sums_are_order_independent() {
        // The whole point: permuting additions/subtractions cannot change
        // an integer total, unlike f64.
        let parts: Vec<i64> = (0..50)
            .map(|k| quantize_probability(f64::from(k).sin().abs()))
            .collect();
        let forward: i64 = parts.iter().sum();
        let backward: i64 = parts.iter().rev().sum();
        assert_eq!(forward, backward);
        let mut with_churn = forward;
        for &p in &parts {
            with_churn -= p;
            with_churn += p;
        }
        assert_eq!(with_churn, forward);
    }
}
