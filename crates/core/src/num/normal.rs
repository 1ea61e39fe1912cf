//! The normal probability density and cumulative distribution.

/// The normal density `φ(x; μ, σ)`.
///
/// Returns 0 when `sigma` is not finite and positive — in the Theorem 1
/// integrand a collapsed variance marks a point adjacent to a pin, whose
/// IR-grid is scored as probability 1 elsewhere (Algorithm step 3.1), so
/// contributing nothing here is the correct behaviour.
///
/// # Examples
///
/// ```
/// use irgrid_core::num::normal_pdf;
///
/// let peak = normal_pdf(0.0, 0.0, 1.0);
/// assert!((peak - 0.398_942_280_401).abs() < 1e-9);
/// assert_eq!(normal_pdf(0.0, 0.0, 0.0), 0.0);
/// ```
#[must_use]
pub fn normal_pdf(x: f64, mu: f64, sigma: f64) -> f64 {
    if !(sigma.is_finite() && sigma > 0.0) {
        return 0.0;
    }
    let z = (x - mu) / sigma;
    (-0.5 * z * z).exp() / (sigma * (2.0 * std::f64::consts::PI).sqrt())
}

/// The error function `erf(x)`, via the Abramowitz & Stegun 7.1.26
/// rational approximation (maximum absolute error `1.5e-7` — three
/// orders of magnitude below the Theorem 1 normal approximation's own
/// deviation from the exact route counts).
///
/// Only elementary arithmetic and `exp` are used, so evaluation is
/// deterministic for a given platform's libm, matching the rest of the
/// congestion pipeline.
///
/// # Examples
///
/// ```
/// use irgrid_core::num::erf;
///
/// assert_eq!(erf(0.0), 0.0);
/// assert!((erf(1.0) - 0.842_700_792_9).abs() < 2e-7);
/// assert!((erf(-1.0) + erf(1.0)).abs() < 1e-15); // odd
/// ```
#[must_use]
pub fn erf(x: f64) -> f64 {
    erf_with_gauss(x).0
}

/// `(erf(x), exp(−x²))` for the price of a single `exp`.
///
/// The A&S rational approximation of `erf` already evaluates `exp(−x²)`
/// internally; integrators built on normal-CDF antiderivatives (the
/// delta evaluator's `ExitCdf`) need both values at every cell boundary,
/// so sharing the exponential halves the transcendental count on the
/// hottest loop in the codebase.
///
/// # Examples
///
/// ```
/// use irgrid_core::num::{erf, erf_with_gauss};
///
/// let (e, g) = erf_with_gauss(1.25);
/// assert_eq!(e, erf(1.25));
/// assert_eq!(g, (-1.25f64 * 1.25).exp());
/// ```
#[must_use]
pub fn erf_with_gauss(x: f64) -> (f64, f64) {
    const P: f64 = 0.327_591_1;
    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    if x == 0.0 {
        // The A&S coefficients sum to 1 only approximately; pin the odd
        // function's root so erf(0) = 0 and Φ(0) = 1/2 hold exactly.
        return (0.0, 1.0);
    }
    let ax = x.abs();
    let gauss = (-ax * ax).exp();
    let t = 1.0 / (1.0 + P * ax);
    let poly = t * (A1 + t * (A2 + t * (A3 + t * (A4 + t * A5))));
    let magnitude = 1.0 - poly * gauss;
    let signed = if x < 0.0 { -magnitude } else { magnitude };
    (signed, gauss)
}

/// `|x|` from which [`erf_gauss_lut`] returns exactly `(±1, 0)`: `erf(x) = 1`
/// and `exp(−x²) = 0` to f64 round-off there (`exp(−6.5²) · poly < 1e-19`).
pub(crate) const ERF_LUT_CUTOFF: f64 = 6.5;

/// Tabulated `(erf(x), exp(−x²))` with linear interpolation — the fast
/// path of [`erf_with_gauss`] for inner loops that evaluate millions of
/// antiderivative boundaries per floorplan move.
///
/// The table samples [`erf_with_gauss`] on `|x| ∈ [0, 6.5]` at step
/// `1/128`; linear interpolation keeps the absolute error under `2e-5`
/// (bounded by `h²·max|f''|/8`: `≈7.4e-6` for `erf`, `≈1.5e-5` for the
/// Gaussian), three orders of magnitude below the congestion model's
/// own approximation error. Beyond the cutoff `erf` has saturated and the Gaussian has
/// underflowed to 0 at f64 precision, so the tails are exact. The table
/// is a pure function of nothing, so results are deterministic and
/// identical across sessions.
///
/// # Examples
///
/// ```
/// use irgrid_core::num::{erf_gauss_lut, erf_with_gauss};
///
/// let (e, g) = erf_gauss_lut(0.8);
/// let (ee, eg) = erf_with_gauss(0.8);
/// assert!((e - ee).abs() < 1e-5 && (g - eg).abs() < 2e-5);
/// assert_eq!(erf_gauss_lut(9.0), (1.0, 0.0));
/// ```
#[must_use]
pub fn erf_gauss_lut(x: f64) -> (f64, f64) {
    /// Samples per unit of `|x|`.
    const STEP_INV: f64 = 128.0;
    const CUTOFF: f64 = ERF_LUT_CUTOFF;
    const LEN: usize = (6.5 * 128.0) as usize + 2; // irgrid-lint: allow(C1): exact small constant product
    static TABLE: std::sync::OnceLock<Vec<(f64, f64)>> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..LEN)
            .map(|i| erf_with_gauss(i as f64 / STEP_INV)) // irgrid-lint: allow(C1): table index, exact in f64
            .collect()
    });
    let ax = x.abs();
    if ax >= CUTOFF {
        return (x.signum(), 0.0);
    }
    let u = ax * STEP_INV;
    let i = u as usize; // irgrid-lint: allow(C1): u ∈ [0, 832) by the cutoff, truncation intended
    let frac = u - i as f64; // irgrid-lint: allow(C1): table index, exact in f64
    let (e0, g0) = table[i];
    let (e1, g1) = table[i + 1];
    let erf_ax = e0 + (e1 - e0) * frac;
    let gauss = g0 + (g1 - g0) * frac;
    (if x < 0.0 { -erf_ax } else { erf_ax }, gauss)
}

/// The standard normal cumulative distribution `Φ(z)`.
///
/// # Examples
///
/// ```
/// use irgrid_core::num::normal_cdf;
///
/// assert!((normal_cdf(0.0) - 0.5).abs() < 1e-15);
/// assert!((normal_cdf(1.959_963_985) - 0.975).abs() < 1e-6);
/// assert!(normal_cdf(-9.0) < 1e-7 && normal_cdf(9.0) > 1.0 - 1e-7);
/// ```
#[must_use]
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num::simpson;

    #[test]
    fn integrates_to_one() {
        let mass = simpson(-8.0, 8.0, 512, |x| normal_pdf(x, 0.0, 1.0));
        assert!((mass - 1.0).abs() < 1e-10, "mass {mass}");
    }

    #[test]
    fn symmetric_about_mean() {
        for d in [0.1, 0.5, 1.7] {
            assert!((normal_pdf(3.0 + d, 3.0, 2.0) - normal_pdf(3.0 - d, 3.0, 2.0)).abs() < 1e-15);
        }
    }

    #[test]
    fn scales_with_sigma() {
        // Peak height is 1/(sigma*sqrt(2*pi)).
        assert!(normal_pdf(0.0, 0.0, 0.5) > normal_pdf(0.0, 0.0, 1.0));
    }

    #[test]
    fn degenerate_sigma_is_zero() {
        assert_eq!(normal_pdf(1.0, 1.0, 0.0), 0.0);
        assert_eq!(normal_pdf(1.0, 1.0, -2.0), 0.0);
        assert_eq!(normal_pdf(1.0, 1.0, f64::NAN), 0.0);
    }

    #[test]
    fn cdf_matches_integrated_pdf() {
        // Φ(b) − Φ(a) against a fine Simpson pass over the density.
        for (a, b) in [(-1.0, 1.0), (0.3, 2.4), (-3.5, -0.2), (-6.0, 6.0)] {
            let quad = simpson(a, b, 2048, |x| normal_pdf(x, 0.0, 1.0));
            let cdf = normal_cdf(b) - normal_cdf(a);
            assert!((quad - cdf).abs() < 1e-6, "[{a},{b}]: {quad} vs {cdf}");
        }
    }

    #[test]
    fn lut_tracks_exact_erf_pair() {
        let mut x = -8.0;
        while x <= 8.0 {
            let (le, lg) = erf_gauss_lut(x);
            let (ee, eg) = erf_with_gauss(x);
            assert!((le - ee).abs() < 1e-5, "erf lut at {x}: {le} vs {ee}");
            assert!((lg - eg).abs() < 2e-5, "gauss lut at {x}: {lg} vs {eg}");
            x += 0.003;
        }
        // Odd/even symmetry is exact.
        let (ep, gp) = erf_gauss_lut(1.234);
        let (en, gn) = erf_gauss_lut(-1.234);
        assert_eq!(ep, -en);
        assert_eq!(gp, gn);
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let mut prev = 0.0;
        let mut z = -10.0;
        while z <= 10.0 {
            let p = normal_cdf(z);
            assert!((0.0..=1.0).contains(&p), "Φ({z}) = {p}");
            assert!(p >= prev, "Φ not monotone at {z}");
            prev = p;
            z += 0.125;
        }
    }
}
