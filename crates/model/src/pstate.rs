//! Discrete CPU frequency tables (P-states).
//!
//! Both power-management paths in the paper ultimately act on discrete
//! frequencies: RAPL's internal DVFS picks among the hardware P-states when
//! enforcing a cap, and the FS implementation sets one explicitly through
//! `cpufrequtils`. A [`PStateTable`] owns the sorted list of operating points
//! plus (optionally) a turbo frequency that hardware may enter when uncapped.

use crate::units::GigaHertz;

/// A sorted table of supported CPU frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct PStateTable {
    /// Supported frequencies, ascending, turbo excluded.
    freqs: Vec<GigaHertz>,
    /// Opportunistic turbo frequency, if the part supports Turbo Boost /
    /// Turbo Core. Only reachable when no power cap restricts the module.
    turbo: Option<GigaHertz>,
}

impl PStateTable {
    /// Build a table from an explicit frequency list (any order; duplicates
    /// removed) and an optional turbo point.
    ///
    /// # Panics
    /// Panics if `freqs` is empty or contains non-positive frequencies:
    /// a frequency table is static hardware description, so this is a
    /// configuration bug, not a runtime condition.
    pub fn new(freqs: &[GigaHertz], turbo: Option<GigaHertz>) -> Self {
        assert!(!freqs.is_empty(), "P-state table must not be empty");
        assert!(freqs.iter().all(|f| f.value() > 0.0), "frequencies must be positive");
        let mut v: Vec<GigaHertz> = freqs.to_vec();
        v.sort_by(|a, b| a.value().total_cmp(&b.value()));
        v.dedup();
        if let (Some(t), Some(max)) = (turbo, v.last()) {
            assert!(t.value() >= max.value(), "turbo must be >= nominal max");
        }
        PStateTable { freqs: v, turbo }
    }

    /// Build an evenly spaced table over `[min, max]` with `step` GHz
    /// spacing (inclusive of both ends).
    pub fn evenly_spaced(min: GigaHertz, max: GigaHertz, step: GigaHertz) -> Self {
        let (min, max, step) = (min.value(), max.value(), step.value());
        assert!(min > 0.0 && max >= min && step > 0.0);
        // The loop below pushes at most ceil((max-min)/step) grid points
        // plus the closing max; reserving that bound up front keeps table
        // construction realloc-free (tests/alloc_regression in vap-bench).
        let mut freqs = Vec::with_capacity(((max - min) / step).ceil() as usize + 2);
        let mut i = 0usize;
        loop {
            // Round each grid point to 1 µHz so accumulated floating-point
            // error never leaks into frequency identities (2.0 GHz must be
            // exactly 2.0, not 2.0000000000000004).
            let f = ((min + step * i as f64) * 1e6).round() / 1e6;
            if f >= max - 1e-9 {
                break;
            }
            freqs.push(GigaHertz(f));
            i += 1;
        }
        freqs.push(GigaHertz(max));
        PStateTable::new(&freqs, None)
    }

    /// Attach a turbo frequency to an existing table.
    pub fn with_turbo(mut self, turbo: GigaHertz) -> Self {
        assert!(turbo.value() >= self.f_max().value());
        self.turbo = Some(turbo);
        self
    }

    /// Lowest supported frequency (`f_min` in the paper's Eq. 1).
    pub fn f_min(&self) -> GigaHertz {
        self.freqs[0]
    }

    /// Highest *nominal* frequency (`f_max` in Eq. 1). Turbo is excluded:
    /// the budgeting algorithm plans within the guaranteed range.
    pub fn f_max(&self) -> GigaHertz {
        // The constructor rejects empty tables, so the fallback to `f_min`
        // (which would itself only matter for an empty table) is inert; it
        // exists to keep this accessor panic-free.
        self.freqs.last().copied().unwrap_or_else(|| self.f_min())
    }

    /// The frequency hardware actually runs at when uncapped: turbo if
    /// available, otherwise `f_max`.
    pub fn uncapped(&self) -> GigaHertz {
        self.turbo.unwrap_or_else(|| self.f_max())
    }

    /// All non-turbo operating points, ascending.
    pub fn frequencies(&self) -> &[GigaHertz] {
        &self.freqs
    }

    /// Largest supported frequency `<= f`, or `f_min` when `f` is below the
    /// whole table. This is how a continuous frequency target (e.g. from
    /// Eq. 1) maps onto real hardware without exceeding the power intent.
    pub fn floor(&self, f: GigaHertz) -> GigaHertz {
        let mut best = self.f_min();
        for &p in &self.freqs {
            if p.value() <= f.value() + 1e-9 {
                best = p;
            } else {
                break;
            }
        }
        best
    }

    /// The next P-state strictly below `f`, or `None` at the bottom of the
    /// table. Used by the RAPL feedback loop when throttling down.
    pub fn step_down(&self, f: GigaHertz) -> Option<GigaHertz> {
        self.freqs.iter().rev().find(|p| p.value() < f.value() - 1e-9).copied()
    }

    /// The next P-state strictly above `f` (turbo excluded), or `None` at
    /// the top. Used by the RAPL feedback loop when head-room opens up.
    pub fn step_up(&self, f: GigaHertz) -> Option<GigaHertz> {
        self.freqs.iter().find(|p| p.value() > f.value() + 1e-9).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ha8k_like() -> PStateTable {
        PStateTable::evenly_spaced(GigaHertz(1.2), GigaHertz(2.7), GigaHertz(0.1))
    }

    #[test]
    fn evenly_spaced_endpoints() {
        let t = ha8k_like();
        assert_eq!(t.f_min(), GigaHertz(1.2));
        assert_eq!(t.f_max(), GigaHertz(2.7));
        assert_eq!(t.frequencies().len(), 16);
    }

    #[test]
    fn floor_snaps_down() {
        let t = ha8k_like();
        assert_eq!(t.floor(GigaHertz(2.04)), GigaHertz(2.0));
        assert_eq!(t.floor(GigaHertz(2.06)), GigaHertz(2.0));
        // below the table
        assert_eq!(t.floor(GigaHertz(0.5)), GigaHertz(1.2));
    }

    #[test]
    fn stepping() {
        let t = ha8k_like();
        assert_eq!(t.step_down(GigaHertz(1.2)), None);
        assert_eq!(t.step_up(GigaHertz(2.7)), None);
        assert!((t.step_down(GigaHertz(2.0)).unwrap().value() - 1.9).abs() < 1e-9);
        assert!((t.step_up(GigaHertz(2.0)).unwrap().value() - 2.1).abs() < 1e-9);
    }

    #[test]
    fn turbo_semantics() {
        let t = PStateTable::new(&[GigaHertz(1.2), GigaHertz(2.6)], Some(GigaHertz(3.3)));
        assert_eq!(t.uncapped(), GigaHertz(3.3));
        assert_eq!(t.f_max(), GigaHertz(2.6));
        let nt = PStateTable::new(&[GigaHertz(1.2), GigaHertz(2.6)], None);
        assert_eq!(nt.uncapped(), GigaHertz(2.6));
    }

    #[test]
    fn unordered_duplicated_input_is_normalized() {
        let t = PStateTable::new(
            &[GigaHertz(2.0), GigaHertz(1.0), GigaHertz(2.0), GigaHertz(1.5)],
            None,
        );
        assert_eq!(t.frequencies().len(), 3);
        assert_eq!(t.f_min(), GigaHertz(1.0));
        assert_eq!(t.f_max(), GigaHertz(2.0));
    }

    #[test]
    #[should_panic]
    fn empty_table_panics() {
        let _ = PStateTable::new(&[], None);
    }

    #[test]
    #[should_panic]
    fn turbo_below_nominal_panics() {
        let _ = PStateTable::new(&[GigaHertz(1.0), GigaHertz(2.0)], Some(GigaHertz(1.5)));
    }
}
