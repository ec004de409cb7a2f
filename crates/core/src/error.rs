//! Error types for the budgeting framework.

use vap_model::units::Watts;

/// Why a budgeting step could not produce a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetError {
    /// The budget cannot sustain every module even at the minimum CPU
    /// frequency — the "–" cells of Table 4. Carries the budget and the
    /// predicted fleet minimum.
    InfeasibleBudget {
        /// The requested application-level budget.
        budget: Watts,
        /// Σ over modules of the predicted minimum module power.
        fleet_minimum: Watts,
    },
    /// The module list was empty.
    NoModules,
    /// A referenced module id is outside the PMT/PVT.
    UnknownModule {
        /// The offending id.
        module_id: usize,
    },
    /// The scheme needs a published TDP the system spec does not provide
    /// (e.g. the Naive scheme on a part without vendor TDP data).
    MissingTdp {
        /// Which domain's TDP is absent (`"CPU"` or `"DRAM"`).
        domain: &'static str,
    },
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::InfeasibleBudget { budget, fleet_minimum } => write!(
                f,
                "budget {budget:.1} below the fleet minimum {fleet_minimum:.1}: modules cannot \
                 be operated even at the minimum CPU frequency"
            ),
            BudgetError::NoModules => write!(f, "no modules allocated"),
            BudgetError::UnknownModule { module_id } => {
                write!(f, "module {module_id} is not covered by the model tables")
            }
            BudgetError::MissingTdp { domain } => {
                write!(f, "system spec publishes no {domain} TDP, required by this scheme")
            }
        }
    }
}

impl std::error::Error for BudgetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = BudgetError::InfeasibleBudget {
            budget: Watts(96_000.0),
            fleet_minimum: Watts(105_000.0),
        };
        let s = e.to_string();
        assert!(s.contains("96000.0"));
        assert!(s.contains("minimum"));
        assert_eq!(BudgetError::NoModules.to_string(), "no modules allocated");
        assert!(BudgetError::UnknownModule { module_id: 7 }.to_string().contains('7'));
    }
}
