//! Fig. 9: total power consumption of every scheme against the enforced
//! constraint.
//!
//! "We have confirmed that all schemes adhere to the power constraint in
//! our results, except the Naive scheme for *STREAM. The main reason why
//! Naive cannot meet the power constraint is because it underestimates
//! DRAM power as it does not take the application characteristics into
//! account" (§6.2). This driver reuses the Fig. 7 campaign measurements
//! and audits each cell's fleet power against its budget.
//!
//! One nuance this reproduction surfaces: the FS implementations trust
//! the calibrated model and let power float (§5.3: FS "has the potential
//! to violate the derived CPU power cap"), so on the workload with the
//! worst calibration (NPB-BT, ≈10% per-module error) VaFs can exceed its
//! budget by the calibration *bias* (a few percent). The capping schemes
//! are structurally immune — RAPL clamps the CPU domain regardless of
//! model error.

use crate::experiments::common::cs_kw;
use crate::experiments::fig7::{Fig7Result, Fig7Row};
use crate::render::{f, Table};
use vap_core::schemes::SchemeId;
use vap_workloads::spec::WorkloadId;

/// One audited cell.
#[derive(Debug, Clone)]
pub struct PowerAudit {
    /// The benchmark.
    pub workload: WorkloadId,
    /// Per-module constraint (W).
    pub cm_w: f64,
    /// The scheme.
    pub scheme: SchemeId,
    /// Measured fleet power (W).
    pub total_power_w: f64,
    /// The enforced budget (W).
    pub budget_w: f64,
}

impl PowerAudit {
    /// Whether the scheme exceeded its constraint beyond structural slack.
    ///
    /// Only the CPU domain is capped (DRAM capping "rarely exists" in
    /// production boards, §3.1.1), so even a strict capping scheme can
    /// overshoot marginally: the linear model's chord lies above the
    /// mildly convex true power curve, letting RAPL settle a touch above
    /// the α-target frequency where the *uncapped* DRAM draws ~1% more
    /// than predicted. The paper's visible Fig. 9 violation
    /// (Naive on *STREAM) is several times larger, so the audit line is
    /// drawn at 2%.
    pub fn violated(&self) -> bool {
        self.total_power_w > self.budget_w * 1.02
    }
}

/// The Fig. 9 audit.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// One audit per campaign cell.
    pub audits: Vec<PowerAudit>,
    /// Fleet size used.
    pub modules: usize,
}

impl Fig9Result {
    /// All violating cells.
    pub fn violations(&self) -> Vec<&PowerAudit> {
        self.audits.iter().filter(|a| a.violated()).collect()
    }
}

/// Audit a completed Fig. 7 campaign.
pub fn audit(campaign: &Fig7Result) -> Fig9Result {
    let n = campaign.modules as f64;
    let audits = campaign
        .rows
        .iter()
        .map(|r: &Fig7Row| PowerAudit {
            workload: r.workload,
            cm_w: r.cm_w,
            scheme: r.scheme,
            total_power_w: r.total_power_w,
            budget_w: r.cm_w * n,
        })
        .collect();
    Fig9Result { audits, modules: campaign.modules }
}

/// Render the audit (total power per scheme, violations flagged).
pub fn render(result: &Fig9Result) -> String {
    let mut t = Table::new(
        &format!("Fig. 9: total power vs constraint ({} modules)", result.modules),
        &["Benchmark", "Cs [kW]", "Scheme", "Total power [kW]", "Within constraint"],
    );
    for a in &result.audits {
        t.row(vec![
            a.workload.to_string(),
            f(cs_kw(a.cm_w, result.modules), 0),
            a.scheme.name().to_string(),
            f(a.total_power_w / 1e3, 1),
            if a.violated() { "VIOLATED".to_string() } else { "yes".to_string() },
        ]);
    }
    let mut out = t.render();
    let violations = result.violations();
    out.push_str(&format!("\n{} violating cells:\n", violations.len()));
    for v in violations {
        out.push_str(&format!(
            "  {} @ {:.0} kW under {}: {:.1} kW > {:.1} kW\n",
            v.workload,
            cs_kw(v.cm_w, result.modules),
            v.scheme.name(),
            v.total_power_w / 1e3,
            v.budget_w / 1e3
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::RunOptions;

    fn result() -> Fig9Result {
        audit(&crate::experiments::fig7::run(&RunOptions {
            modules: Some(96),
            seed: 2015,
            scale: 0.05,
            ..RunOptions::default()
        }))
    }

    #[test]
    fn capping_schemes_always_adhere() {
        let r = result();
        for a in &r.audits {
            if matches!(a.scheme, SchemeId::Pc | SchemeId::VaPc | SchemeId::VaPcOr) {
                assert!(
                    !a.violated(),
                    "{} @ {} W under {} drew {} W over budget {} W",
                    a.workload,
                    a.cm_w,
                    a.scheme.name(),
                    a.total_power_w,
                    a.budget_w
                );
            }
        }
    }

    #[test]
    fn naive_violates_on_stream() {
        // The paper's one documented violation.
        let r = result();
        let naive_stream_violates = r
            .violations()
            .iter()
            .any(|a| a.workload == WorkloadId::Stream && a.scheme == SchemeId::Naive);
        assert!(naive_stream_violates, "expected Naive/*STREAM to exceed its constraint");
    }

    #[test]
    fn variation_aware_schemes_adhere_on_stream() {
        let r = result();
        for a in &r.audits {
            if a.workload == WorkloadId::Stream
                && matches!(a.scheme, SchemeId::VaPc | SchemeId::VaFs)
            {
                assert!(!a.violated(), "{} violated on STREAM at {} W", a.scheme.name(), a.cm_w);
            }
        }
    }

    #[test]
    fn schemes_use_most_of_the_budget() {
        // A budgeting scheme that leaves huge headroom is wasting
        // performance; constrained cells should sit near the line.
        let r = result();
        for a in &r.audits {
            if a.scheme == SchemeId::VaFs {
                assert!(
                    a.total_power_w > a.budget_w * 0.75,
                    "{} @ {} W uses only {:.0}/{:.0} W",
                    a.workload,
                    a.cm_w,
                    a.total_power_w,
                    a.budget_w
                );
            }
        }
    }

    #[test]
    fn render_flags_violations() {
        let s = render(&result());
        assert!(s.contains("VIOLATED"));
        assert!(s.contains("violating cells"));
    }
}
