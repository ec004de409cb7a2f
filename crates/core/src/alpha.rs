//! The α solver and per-module power allocations (paper §5.1, Eqs. 5–9).
//!
//! The objective: *determine the maximum application-specific coefficient
//! α such that the total power consumption across all modules does not
//! exceed the given application-level power constraint.* From Eq. 5,
//!
//! ```text
//!       P_budget − Σᵢ P_module_min,i
//! α ≤ ─────────────────────────────────          (6)
//!       Σᵢ (P_module_max,i − P_module_min,i)
//! ```
//!
//! α is **common to all modules** "in order to ensure consistent
//! performance"; what differs per module is the power needed to realize
//! the common frequency:
//!
//! ```text
//! P_module_i = α·(P_module_max,i − P_module_min,i) + P_module_min,i   (7)
//! P_cpu_i    = P_module_i − P_dram_i                                  (8, 9)
//! ```

use crate::error::BudgetError;
use crate::pmt::PowerModelTable;
use vap_model::linear::Alpha;
use vap_model::units::{GigaHertz, Watts};

/// The raw (unclamped) Eq. 6 bound. Negative values mean the budget
/// cannot sustain `f_min` everywhere; values above 1 mean the budget does
/// not bind.
// vap:allow(unit-flow): α is the paper's dimensionless scaling coefficient
pub fn raw_alpha(budget: Watts, pmt: &PowerModelTable) -> f64 {
    // One pass for the floor, ceiling and span sums: this solve runs on
    // the scheduler's per-event path.
    let (mut min_sum, mut max_sum, mut span_sum) = (Watts::ZERO, Watts::ZERO, 0.0);
    for e in pmt.entries() {
        let m = e.module();
        min_sum += m.p_min;
        max_sum += m.p_max;
        span_sum += m.span().value();
    }
    if span_sum <= 0.0 {
        // Power-flat fleet: any budget above the floor admits α = 1.
        return if budget >= min_sum { 1.0 } else { -1.0 };
    }
    let raw = (budget - min_sum).value() / span_sum;
    // A budget covering the fleet maximum admits α = 1 exactly, whatever
    // the rounding of the span sum against the extrema sums.
    if budget >= max_sum {
        raw.max(1.0)
    } else {
        raw
    }
}

/// Solve Eq. 6 for the maximum feasible α.
///
/// * Budget below the fleet minimum → [`BudgetError::InfeasibleBudget`]
///   (Table 4's "–").
/// * Budget above the fleet maximum → `α = 1` ("α is set to 1.0 when we
///   do not have any power constraints").
pub fn max_alpha(budget: Watts, pmt: &PowerModelTable) -> Result<Alpha, BudgetError> {
    vap_obs::incr("alpha.solves");
    if pmt.is_empty() {
        return Err(BudgetError::NoModules);
    }
    let raw = raw_alpha(budget, pmt);
    Alpha::try_new(raw)
        .ok_or(BudgetError::InfeasibleBudget { budget, fleet_minimum: pmt.fleet_minimum() })
}

/// One module's derived power allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModuleAllocation {
    /// The module allocated to.
    pub module_id: usize,
    /// Total module budget `P_module_i` (Eq. 7).
    pub p_module: Watts,
    /// CPU power cap `P_cpu_i` (Eqs. 8–9) — what PC programs into RAPL.
    pub p_cpu: Watts,
    /// Predicted DRAM power `P_dram_i` at this α.
    pub p_dram: Watts,
    /// The common target frequency (Eq. 1) — what FS pins via cpufreq.
    pub frequency: GigaHertz,
}

/// Derive every module's allocation at coefficient `alpha` (Eqs. 1, 7–9).
pub fn allocations(pmt: &PowerModelTable, alpha: Alpha) -> Vec<ModuleAllocation> {
    pmt.entries()
        .iter()
        .map(|e| {
            let p_cpu = e.cpu.power(alpha);
            let p_dram = e.dram.power(alpha);
            ModuleAllocation {
                module_id: e.module_id,
                p_module: p_cpu + p_dram,
                p_cpu,
                p_dram,
                frequency: e.cpu.frequency(alpha),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmt::{PmtEntry, PowerModelTable};
    use vap_model::linear::TwoPointModel;
    use vap_model::units::GigaHertz;

    /// A hand-built PMT: two modules, one 20% hungrier than the other.
    fn pmt() -> PowerModelTable {
        // module 0: cpu 100→50, dram 12→8  (module 112→58)
        // module 1: cpu 120→60, dram 12→8  (module 132→68)
        let model = |p_max, p_min| {
            TwoPointModel::new(GigaHertz(2.7), GigaHertz(1.2), Watts(p_max), Watts(p_min))
        };
        PowerModelTable::from_entries(vec![
            PmtEntry { module_id: 0, cpu: model(100.0, 50.0), dram: model(12.0, 8.0) },
            PmtEntry { module_id: 1, cpu: model(120.0, 60.0), dram: model(12.0, 8.0) },
        ])
    }

    #[test]
    fn eq6_alpha_matches_hand_computation() {
        let t = pmt();
        // fleet min = 58 + 68 = 126; spans = 54 + 64 = 118
        assert_eq!(t.fleet_minimum(), Watts(126.0));
        let a = max_alpha(Watts(185.0), &t).unwrap();
        assert!((a.value() - (185.0 - 126.0) / 118.0).abs() < 1e-12);
    }

    #[test]
    fn generous_budget_saturates_alpha() {
        let t = pmt();
        assert_eq!(t.fleet_maximum(), Watts(244.0));
        let a = max_alpha(Watts(500.0), &t).unwrap();
        assert_eq!(a, Alpha::MAX);
    }

    #[test]
    fn starvation_budget_is_infeasible() {
        let t = pmt();
        let err = max_alpha(Watts(100.0), &t).unwrap_err();
        assert_eq!(
            err,
            BudgetError::InfeasibleBudget { budget: Watts(100.0), fleet_minimum: Watts(126.0) }
        );
    }

    #[test]
    fn allocations_respect_the_budget_exactly() {
        let t = pmt();
        let budget = Watts(185.0);
        let a = max_alpha(budget, &t).unwrap();
        let allocs = allocations(&t, a);
        let total: Watts = allocs.iter().map(|a| a.p_module).sum();
        assert!((total.value() - budget.value()).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn hungrier_module_gets_more_power_same_frequency() {
        // The core of variation-awareness: equal frequency, unequal power.
        let t = pmt();
        let a = max_alpha(Watts(185.0), &t).unwrap();
        let allocs = allocations(&t, a);
        assert_eq!(allocs[0].frequency, allocs[1].frequency);
        assert!(allocs[1].p_module > allocs[0].p_module);
        assert!(allocs[1].p_cpu > allocs[0].p_cpu);
    }

    #[test]
    fn cpu_cap_is_module_minus_dram() {
        let t = pmt();
        let a = max_alpha(Watts(200.0), &t).unwrap();
        for al in allocations(&t, a) {
            assert!((al.p_cpu + al.p_dram - al.p_module).abs() < Watts(1e-9));
        }
    }

    #[test]
    fn alpha_endpoints_give_anchor_frequencies() {
        let t = pmt();
        let hi = allocations(&t, Alpha::MAX);
        assert_eq!(hi[0].frequency, GigaHertz(2.7));
        assert_eq!(hi[0].p_module, Watts(112.0));
        let lo = allocations(&t, Alpha::MIN);
        assert_eq!(lo[0].frequency, GigaHertz(1.2));
        assert_eq!(lo[1].p_module, Watts(68.0));
    }

    #[test]
    fn empty_pmt_rejected() {
        let t = PowerModelTable::from_entries(Vec::new());
        assert_eq!(max_alpha(Watts(100.0), &t), Err(BudgetError::NoModules));
    }

    #[test]
    fn raw_alpha_reports_unclamped_bound() {
        let t = pmt();
        assert!(raw_alpha(Watts(500.0), &t) > 1.0);
        assert!(raw_alpha(Watts(100.0), &t) < 0.0);
    }
}
