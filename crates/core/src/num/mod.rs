//! Numeric substrate for the congestion models.
//!
//! The probabilistic models need three ingredients:
//!
//! * **binomial coefficients** — route counts `Ta`/`Tb` are binomials
//!   (Formula 1). Counts overflow `u64` beyond ~60×60-cell ranges, so all
//!   production code works with *log* binomials built on a cached
//!   log-factorial table; an exact `u128` binomial is kept as the oracle
//!   for tests;
//! * **the normal density** — the Theorem 1 approximation replaces the
//!   hypergeometric-like `h(x, r, R, Q)` with a normal-like function;
//! * **Simpson's rule** — the paper evaluates Theorem 1's definite
//!   integrals "by Simpson's rule of integration in constant time";
//! * **Q32 quantization** — the delta evaluator accumulates per-cell
//!   probabilities as integers so incremental updates are bit-identical
//!   to a from-scratch rebuild (float addition is not associative).

mod binomial;
mod normal;
mod quantize;
mod simpson;

pub use binomial::{binomial_f64, binomial_u128, ln_binomial, ln_gamma, LnFactorials};
pub(crate) use normal::ERF_LUT_CUTOFF;
pub use normal::{erf, erf_gauss_lut, erf_with_gauss, normal_cdf, normal_pdf};
pub use quantize::{dequantize_total, quantize_probability, PROBABILITY_FRACTION_BITS};
pub use simpson::simpson;
