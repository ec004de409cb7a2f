//! Frequency sensitivity of execution rate.
//!
//! How much a power cap hurts depends on where a workload sits between
//! CPU-bound and memory-bound (§4.3: "The CPU-boundedness, memory
//! characteristics and synchronization characteristics of an application
//! will determine how much the overall performance impact will be").
//!
//! We model a compute phase's duration with the classic decomposition
//!
//! ```text
//! t(f) = t_ref · ( χ · f_ref/f + (1 − χ) )
//! ```
//!
//! where `χ` is the CPU-bound fraction at the reference frequency: the part
//! of the phase that scales inversely with clock, while `(1 − χ)` (memory
//! stalls, bandwidth-limited traffic) is frequency-invariant. *DGEMM and EP
//! have `χ ≈ 1`; *STREAM `χ ≈ 0.2`.

use crate::units::GigaHertz;

/// CPU-boundedness of a compute phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Boundedness {
    /// Fraction `χ ∈ [0, 1]` of phase time that scales with `1/f`,
    /// evaluated at the reference frequency.
    pub cpu_fraction: f64,
    /// Reference frequency at which `cpu_fraction` was characterized
    /// (typically the nominal maximum).
    pub f_ref: GigaHertz,
}

impl Boundedness {
    /// Construct; `cpu_fraction` is clamped to `[0, 1]`.
    pub fn new(cpu_fraction: f64, f_ref: GigaHertz) -> Self {
        assert!(f_ref.value() > 0.0, "reference frequency must be positive");
        Boundedness { cpu_fraction: cpu_fraction.clamp(0.0, 1.0), f_ref }
    }

    /// A fully CPU-bound phase (`χ = 1`).
    pub fn cpu_bound(f_ref: GigaHertz) -> Self {
        Boundedness::new(1.0, f_ref)
    }

    /// Relative slowdown factor at frequency `f` versus the reference:
    /// `t(f) / t(f_ref) = χ·f_ref/f + (1 − χ)`.
    ///
    /// # Panics
    /// Panics if `f` is non-positive (an upstream frequency-control bug).
    // vap:allow(unit-flow): slowdown is a dimensionless time ratio
    pub fn slowdown(&self, f: GigaHertz) -> f64 {
        assert!(f.value() > 0.0, "frequency must be positive");
        self.cpu_fraction * (self.f_ref.value() / f.value()) + (1.0 - self.cpu_fraction)
    }

    /// Instantaneous execution rate relative to the reference
    /// (`1 / slowdown`). This is what a rank's progress integrator uses when
    /// frequency changes mid-phase under RAPL's feedback control.
    // vap:allow(unit-flow): rate relative to reference is dimensionless
    pub fn relative_rate(&self, f: GigaHertz) -> f64 {
        1.0 / self.slowdown(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_bound_scales_inversely_with_frequency() {
        let b = Boundedness::cpu_bound(GigaHertz(2.7));
        assert!((b.slowdown(GigaHertz(1.35)) - 2.0).abs() < 1e-12);
        assert!((b.slowdown(GigaHertz(2.7)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_is_frequency_insensitive() {
        let b = Boundedness::new(0.0, GigaHertz(2.7));
        assert_eq!(b.slowdown(GigaHertz(1.2)), 1.0);
        assert_eq!(b.slowdown(GigaHertz(2.7)), 1.0);
    }

    #[test]
    fn mixed_phase_interpolates() {
        let b = Boundedness::new(0.5, GigaHertz(2.0));
        // at f = 1.0: 0.5*2 + 0.5 = 1.5
        assert!((b.slowdown(GigaHertz(1.0)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rate_is_the_inverse_slowdown() {
        let b = Boundedness::new(0.8, GigaHertz(2.7));
        let f = GigaHertz(1.8);
        assert!((b.relative_rate(f) * b.slowdown(f) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_above_reference_frequency() {
        // Turbo: running above f_ref speeds a CPU-bound phase up.
        let b = Boundedness::cpu_bound(GigaHertz(2.6));
        assert!(b.slowdown(GigaHertz(3.3)) < 1.0);
    }

    #[test]
    fn fraction_clamped() {
        let b = Boundedness::new(1.5, GigaHertz(2.0));
        assert_eq!(b.cpu_fraction, 1.0);
        let b = Boundedness::new(-0.5, GigaHertz(2.0));
        assert_eq!(b.cpu_fraction, 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_frequency_panics() {
        let b = Boundedness::cpu_bound(GigaHertz(2.0));
        let _ = b.slowdown(GigaHertz(0.0));
    }
}
