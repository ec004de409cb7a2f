//! # vap-stats
//!
//! Statistics utilities shared by the `vap` reproduction of Inadomi et al.,
//! *"Analyzing and Mitigating the Impact of Manufacturing Variability in
//! Power-Constrained Supercomputing"* (SC '15).
//!
//! This crate deliberately implements only the statistics the paper relies
//! on, with no external numeric dependencies:
//!
//! * [`descriptive`] — mean / standard deviation / extrema summaries, as
//!   printed in Fig. 2(i) ("Average=112.8W, Standard Deviation=4.51, ...").
//! * [`variation`] — [`worst_case_variation`], the one `max / min` ratio
//!   over a population that Table 3 defines as `Vp` (power), `Vf` (CPU
//!   frequency) and `Vt` (execution time), plus Fig. 1's percent-over-best
//!   axes.
//! * [`regression`] — ordinary least squares with `R²`, used to validate the
//!   linear power-vs-frequency model (Fig. 5, R² ≥ 0.99).
//! * [`correlation`] — Pearson correlation, quantifying Fig. 1(C)'s
//!   negative slowdown-power relationship on Teller.
//! * [`speedup`] — per-benchmark speedup aggregation for Fig. 7 (maximum and
//!   average speedup across benchmarks and power constraints).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod descriptive;
pub mod regression;
pub mod speedup;
pub mod variation;

pub use correlation::pearson;
pub use descriptive::Summary;
pub use regression::LinearFit;
pub use speedup::SpeedupTable;
pub use variation::worst_case_variation;

/// Threshold below which a magnitude is treated as zero by the guards that
/// previously compared floats with `==`.
///
/// The value is intentionally far below any physically meaningful quantity
/// in this project (watts, gigahertz, seconds, their sums of squares) and
/// just above the subnormal range, so the *only* inputs it reclassifies
/// relative to an exact `== 0.0` test are underflow residue. In particular
/// a tiny-but-normal minimum (Fig. 3's near-zero synchronization wait,
/// Vt ≈ 57) still divides normally instead of being clamped — a looser
/// epsilon like `1e-12` would silently change those results.
pub(crate) const NEAR_ZERO: f64 = 1e-300;

/// Is `x` zero for the purposes of division / degeneracy guards?
pub(crate) fn is_near_zero(x: f64) -> bool {
    x.abs() < NEAR_ZERO
}
