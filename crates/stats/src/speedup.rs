//! Speedup aggregation for the Fig. 7 evaluation.
//!
//! The paper reports, per benchmark and per system power constraint `Cs`,
//! the speedup of each budgeting scheme over the Naive baseline, then
//! summarizes: "a maximum speedup of 5.4X and an average speedup of 1.8X
//! ... across all benchmarks". This module owns that bookkeeping.

use std::collections::BTreeMap;

/// One measured cell: a scheme's execution time at a benchmark/constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupCell {
    /// Benchmark name (e.g. `"NPB-BT"`).
    pub benchmark: String,
    /// System-level power constraint in watts.
    pub constraint_w: f64,
    /// Scheme name (e.g. `"VaFs"`).
    pub scheme: String,
    /// Application execution time in seconds.
    pub time_s: f64,
}

/// Accumulates execution times and produces speedups versus a baseline
/// scheme.
#[derive(Debug, Clone, Default)]
pub struct SpeedupTable {
    cells: Vec<SpeedupCell>,
}

impl SpeedupTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one execution time.
    pub fn record(&mut self, benchmark: &str, constraint_w: f64, scheme: &str, time_s: f64) {
        self.cells.push(SpeedupCell {
            benchmark: benchmark.to_string(),
            constraint_w,
            scheme: scheme.to_string(),
            time_s,
        });
    }

    /// Speedup of `scheme` over `baseline` at one (benchmark, constraint)
    /// point: `time(baseline) / time(scheme)`. `None` if either cell is
    /// missing or the scheme time is zero.
    pub fn speedup_at(
        &self,
        benchmark: &str,
        constraint_w: f64,
        scheme: &str,
        baseline: &str,
    ) -> Option<f64> {
        let find = |name: &str| {
            self.cells.iter().find(|c| {
                c.benchmark == benchmark
                    && c.scheme == name
                    && (c.constraint_w - constraint_w).abs() < 1e-6
            })
        };
        let base = find(baseline)?;
        let s = find(scheme)?;
        if s.time_s <= 0.0 {
            return None;
        }
        Some(base.time_s / s.time_s)
    }

    /// All speedups of `scheme` over `baseline`, keyed by
    /// `(benchmark, constraint)` in deterministic order.
    pub fn speedups(&self, scheme: &str, baseline: &str) -> BTreeMap<(String, u64), f64> {
        let mut out = BTreeMap::new();
        for c in &self.cells {
            if c.scheme == scheme {
                if let Some(sp) = self.speedup_at(&c.benchmark, c.constraint_w, scheme, baseline) {
                    // constraints keyed in milliwatts so they order correctly
                    out.insert((c.benchmark.clone(), (c.constraint_w * 1e3) as u64), sp);
                }
            }
        }
        out
    }

    /// The headline pair the paper quotes: `(max, arithmetic mean)` speedup
    /// of `scheme` over `baseline` across every recorded point.
    pub fn headline(&self, scheme: &str, baseline: &str) -> Option<(f64, f64)> {
        let sps: Vec<f64> = self.speedups(scheme, baseline).into_values().collect();
        if sps.is_empty() {
            return None;
        }
        let max = sps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = sps.iter().sum::<f64>() / sps.len() as f64;
        Some((max, mean))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> SpeedupTable {
        let mut t = SpeedupTable::new();
        t.record("BT", 96_000.0, "Naive", 100.0);
        t.record("BT", 96_000.0, "VaFs", 20.0);
        t.record("BT", 115_000.0, "Naive", 60.0);
        t.record("BT", 115_000.0, "VaFs", 40.0);
        t.record("SP", 96_000.0, "Naive", 90.0);
        t.record("SP", 96_000.0, "VaFs", 60.0);
        t
    }

    #[test]
    fn pointwise_speedup() {
        let t = sample_table();
        assert_eq!(t.speedup_at("BT", 96_000.0, "VaFs", "Naive"), Some(5.0));
        assert_eq!(t.speedup_at("BT", 115_000.0, "VaFs", "Naive"), Some(1.5));
        assert_eq!(t.speedup_at("BT", 1.0, "VaFs", "Naive"), None);
    }

    #[test]
    fn headline_max_and_mean() {
        let t = sample_table();
        let (max, mean) = t.headline("VaFs", "Naive").unwrap();
        assert_eq!(max, 5.0);
        assert!((mean - (5.0 + 1.5 + 1.5) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn missing_baseline_yields_none() {
        let mut t = SpeedupTable::new();
        t.record("BT", 96_000.0, "VaFs", 20.0);
        assert_eq!(t.speedup_at("BT", 96_000.0, "VaFs", "Naive"), None);
        assert!(t.headline("VaFs", "Naive").is_none());
    }

    #[test]
    fn zero_time_rejected() {
        let mut t = SpeedupTable::new();
        t.record("BT", 96_000.0, "Naive", 10.0);
        t.record("BT", 96_000.0, "VaFs", 0.0);
        assert_eq!(t.speedup_at("BT", 96_000.0, "VaFs", "Naive"), None);
    }

    #[test]
    fn speedups_map_is_keyed_per_point() {
        let t = sample_table();
        let m = t.speedups("VaFs", "Naive");
        assert_eq!(m.len(), 3);
        assert_eq!(m[&("BT".to_string(), 96_000_000)], 5.0);
    }
}
