//! `cpufrequtils`-style frequency governors.
//!
//! The paper's Frequency Selection (FS) implementation "directly applies
//! the determined CPU frequency by using cpufrequtils, and indirectly
//! manages power consumption" (§5.3). This module models the governor
//! abstraction Linux exposes: a policy that picks the operating frequency
//! within `[min, max]` bounds.

use vap_model::pstate::PStateTable;
use vap_model::units::GigaHertz;

/// A CPU frequency governor.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Governor {
    /// Run at the highest available frequency (turbo if enabled) — the
    /// default for uncapped HPC nodes.
    #[default]
    Performance,
    /// Pin a specific frequency — what `cpufreq-set -f` does and what the
    /// FS scheme uses. The request is snapped **down** to a supported
    /// P-state so the power intent is never exceeded.
    Userspace(GigaHertz),
}

impl Governor {
    /// Resolve the governor to a concrete clock frequency on `pstates`.
    pub fn resolve(&self, pstates: &PStateTable) -> GigaHertz {
        match *self {
            Governor::Performance => pstates.uncapped(),
            Governor::Userspace(f) => pstates.floor(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PStateTable {
        PStateTable::evenly_spaced(GigaHertz(1.2), GigaHertz(2.7), GigaHertz(0.1))
    }

    #[test]
    fn performance_reaches_top() {
        assert_eq!(Governor::Performance.resolve(&table()), GigaHertz(2.7));
        let turbo = PStateTable::evenly_spaced(GigaHertz(1.2), GigaHertz(2.6), GigaHertz(0.1))
            .with_turbo(GigaHertz(3.3));
        assert_eq!(Governor::Performance.resolve(&turbo), GigaHertz(3.3));
    }

    #[test]
    fn userspace_snaps_down_to_supported_pstate() {
        // Eq. 1 produces continuous frequencies; hardware rounds down so
        // the planned power is never exceeded.
        assert_eq!(Governor::Userspace(GigaHertz(2.04)).resolve(&table()), GigaHertz(2.0));
        assert_eq!(Governor::Userspace(GigaHertz(2.0)).resolve(&table()), GigaHertz(2.0));
        // below the table: clamp to f_min
        assert_eq!(Governor::Userspace(GigaHertz(0.8)).resolve(&table()), GigaHertz(1.2));
        // above the table: clamp to f_max (userspace cannot engage turbo)
        assert_eq!(Governor::Userspace(GigaHertz(9.0)).resolve(&table()), GigaHertz(2.7));
    }

    #[test]
    fn default_is_performance() {
        assert_eq!(Governor::default(), Governor::Performance);
    }
}
