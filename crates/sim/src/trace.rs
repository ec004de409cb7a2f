//! Time-series power traces.
//!
//! A [`PowerTrace`] records equally spaced power samples. It holds the
//! power trajectory of a [`crate::dynamics`] run, whose settled tail is
//! compared with the analytic RAPL steady state.

use vap_model::units::{Seconds, Watts};

/// A rejected trace configuration: the sampling interval must be a
/// positive, finite duration for the integrations to make sense.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceError {
    /// The rejected sampling interval.
    pub dt: Seconds,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sampling interval must be positive and finite, got {}", self.dt)
    }
}

impl std::error::Error for TraceError {}

/// An equally sampled power time series.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    dt: Seconds,
    samples: Vec<Watts>,
}

impl PowerTrace {
    /// Create an empty trace sampled every `dt`. Rejects non-positive and
    /// non-finite intervals instead of panicking, so callers fed from
    /// config files or CLI flags get a recoverable error.
    pub fn new(dt: Seconds) -> Result<Self, TraceError> {
        if dt.value() > 0.0 && dt.value().is_finite() {
            Ok(PowerTrace { dt, samples: Vec::new() })
        } else {
            Err(TraceError { dt })
        }
    }

    /// Sampling interval.
    pub fn dt(&self) -> Seconds {
        self.dt
    }

    /// Record one sample.
    pub fn record(&mut self, p: Watts) {
        self.samples.push(p);
    }

    /// All samples.
    pub fn samples(&self) -> &[Watts] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total traced duration.
    pub fn duration(&self) -> Seconds {
        self.dt * self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(vals: &[f64]) -> PowerTrace {
        let mut t = PowerTrace::new(Seconds(0.001)).unwrap();
        for &v in vals {
            t.record(Watts(v));
        }
        t
    }

    #[test]
    fn length_and_duration() {
        let t = trace_of(&[100.0; 1000]);
        assert_eq!(t.len(), 1000);
        assert_eq!(t.duration(), Seconds(1.0));
        assert!(PowerTrace::new(Seconds(0.001)).unwrap().is_empty());
    }

    #[test]
    fn invalid_intervals_are_rejected_not_panicked() {
        for dt in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = PowerTrace::new(Seconds(dt)).unwrap_err();
            assert_eq!(err.dt.value().to_bits(), dt.to_bits());
            assert!(err.to_string().contains("sampling interval"));
        }
    }
}
