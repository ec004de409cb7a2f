//! Table 4's feasibility classification.
//!
//! For each (application, system power constraint `Cs`) pair the paper
//! marks one of three outcomes:
//!
//! * **`X`** — "specific, interesting scenarios": the budget binds and
//!   budgeting matters.
//! * **`•`** — "not sufficiently power constrained from the point of view
//!   of the application's power profile ... no power capping is required".
//! * **`–`** — "extremely power limited and the modules under
//!   consideration cannot be operated even with the minimum CPU frequency".
//!
//! In α terms these are exactly: raw α ≥ 1, 0 ≤ raw α < 1, and raw α < 0.

use crate::alpha::raw_alpha;
use crate::pmt::PowerModelTable;
use vap_model::units::Watts;

/// Outcome of the feasibility test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feasibility {
    /// `•` — the application's uncapped power already fits the budget.
    NotConstrained,
    /// `X` — the budget binds; budgeting determines performance.
    Constrained,
    /// `–` — the budget cannot sustain `f_min` on every module.
    Infeasible,
}

impl Feasibility {
    /// Classify a budget against an application's PMT.
    pub fn classify(budget: Watts, pmt: &PowerModelTable) -> Feasibility {
        let raw = raw_alpha(budget, pmt);
        if raw < 0.0 {
            Feasibility::Infeasible
        } else if raw >= 1.0 {
            Feasibility::NotConstrained
        } else {
            Feasibility::Constrained
        }
    }

    /// The mark Table 4 prints for this outcome.
    pub fn mark(self) -> &'static str {
        match self {
            Feasibility::NotConstrained => "•",
            Feasibility::Constrained => "X",
            Feasibility::Infeasible => "–",
        }
    }

    /// Whether an experiment should be run at this cell (only `X` cells
    /// are interesting — the paper ran exactly those).
    pub fn runnable(self) -> bool {
        self == Feasibility::Constrained
    }
}

impl std::fmt::Display for Feasibility {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mark())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_model::linear::TwoPointModel;
    use vap_model::units::GigaHertz;

    fn pmt() -> PowerModelTable {
        // two modules, each module power 110→55
        let model = |p_max, p_min| {
            TwoPointModel::new(GigaHertz(2.7), GigaHertz(1.2), Watts(p_max), Watts(p_min))
        };
        let entry = |module_id| crate::pmt::PmtEntry {
            module_id,
            cpu: model(100.0, 45.0),
            dram: model(10.0, 10.0),
        };
        PowerModelTable::from_entries(vec![entry(0), entry(1)])
    }

    #[test]
    fn three_regimes() {
        let t = pmt();
        // fleet: min 110, max 220
        assert_eq!(Feasibility::classify(Watts(250.0), &t), Feasibility::NotConstrained);
        assert_eq!(Feasibility::classify(Watts(220.0), &t), Feasibility::NotConstrained);
        assert_eq!(Feasibility::classify(Watts(180.0), &t), Feasibility::Constrained);
        assert_eq!(Feasibility::classify(Watts(110.0), &t), Feasibility::Constrained);
        assert_eq!(Feasibility::classify(Watts(109.0), &t), Feasibility::Infeasible);
    }

    #[test]
    fn marks_match_table4() {
        assert_eq!(Feasibility::NotConstrained.mark(), "•");
        assert_eq!(Feasibility::Constrained.mark(), "X");
        assert_eq!(Feasibility::Infeasible.mark(), "–");
        assert_eq!(Feasibility::Constrained.to_string(), "X");
    }

    #[test]
    fn only_constrained_cells_run() {
        assert!(Feasibility::Constrained.runnable());
        assert!(!Feasibility::NotConstrained.runnable());
        assert!(!Feasibility::Infeasible.runnable());
    }

    // silence unused import warning in non-test builds
    #[test]
    fn anchors_are_what_we_think() {
        let t = pmt();
        assert_eq!(t.entries()[0].cpu.f_max, GigaHertz(2.7));
    }
}
