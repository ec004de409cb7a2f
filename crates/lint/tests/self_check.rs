//! Self-check: the vap workspace itself must be clean under `--deny`.
//!
//! This is the same scan CI runs (`cargo run -p vap-lint -- --deny`),
//! expressed as a test: every finding in the tree must be either
//! suppressed by an inline `vap:allow` marker or recorded in the
//! committed `lint-baseline.toml`. If this test fails after a change,
//! either fix the new violation or (for deliberate, justified debt) add
//! a `vap:allow(rule): reason` marker — growing the baseline is the
//! last resort.

use std::path::PathBuf;

use vap_lint::cli::{scan, Options};

/// The workspace root, two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_clean_under_deny() {
    let out = scan(&Options::new(workspace_root())).expect("workspace scan");
    let new: Vec<String> = out
        .findings
        .iter()
        .filter(|f| f.status == vap_lint::Status::New)
        .map(|f| format!("{}:{}:{} [{}] {}", f.path, f.line, f.column, f.rule, f.message))
        .collect();
    assert!(
        new.is_empty(),
        "vap-lint found {} new violation(s) not covered by vap:allow or lint-baseline.toml:\n{}",
        new.len(),
        new.join("\n")
    );
}

#[test]
fn baseline_has_no_stale_entries() {
    // Debt that has been paid off must leave the ledger, so the baseline
    // only ever shrinks. Regenerate with:
    //   cargo run -p vap-lint -- --write-baseline
    let out = scan(&Options::new(workspace_root())).expect("workspace scan");
    assert_eq!(
        out.summary.stale_baseline_entries, 0,
        "lint-baseline.toml overcounts — regenerate it with --write-baseline"
    );
}

#[test]
fn all_eight_rules_are_registered_in_diagnostic_order() {
    let names: Vec<&str> = vap_lint::rules::all_rules().iter().map(|r| r.name()).collect();
    assert_eq!(
        names,
        [
            "raw-unit-f64",
            "unit-flow",
            "no-panic-in-lib",
            "panic-propagation",
            "no-println-in-lib",
            "float-eq",
            "determinism",
            "shared-state-in-par",
        ]
    );
}

#[test]
fn baseline_carries_no_accepted_debt() {
    // The v2 burndown emptied the ledger: every historical finding was
    // either fixed or justified with an inline vap:allow. Keep it that
    // way — new debt needs a reason at the offending line, not a
    // baseline entry.
    let text = std::fs::read_to_string(workspace_root().join("lint-baseline.toml"))
        .expect("baseline file");
    assert!(!text.contains("[[entry]]"), "lint-baseline.toml has regrown entries:\n{text}");
}

#[test]
fn every_rule_is_exercised_by_the_scan() {
    // A rule silently skipping the whole tree (e.g. a crate-name typo in
    // its scope list) would pass --deny vacuously; assert the scan at
    // least ran all four registered rules over a nonzero file set.
    let out = scan(&Options::new(workspace_root())).expect("workspace scan");
    assert!(out.summary.files > 20, "walker found only {} files", out.summary.files);
}
