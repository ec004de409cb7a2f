//! `profile`'s command line, on the binary: usage, usage errors and their
//! exit codes, all decided before any case is timed, and the rows a
//! filter selects.

use std::process::{Command, Output};

use vap_obs::json::Value;
use vap_report::registry::EXPERIMENTS;

fn profile(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_profile")).args(args).output().expect("run profile")
}

/// The row names of the record `profile args` prints, after checking it
/// exited 0.
fn row_names(args: &[&str]) -> Vec<Value> {
    let out = profile(args);
    assert_eq!(out.status.code(), Some(0), "{args:?}");
    let doc = vap_obs::json::parse(&String::from_utf8_lossy(&out.stdout)).expect("record");
    let Some(Value::Array(cases)) = doc.get("cases") else { panic!("cases array") };
    cases.iter().map(|c| c.get("name").cloned().expect("row name")).collect()
}

#[test]
fn help_prints_usage_and_exits_0() {
    for flag in ["-h", "--help"] {
        let out = profile(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: profile"), "{flag}");
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn unknown_flags_and_a_second_filter_exit_2() {
    for args in [&["--bogus"][..], &["-x"], &["--bench"], &["ledger", "scrape"], &["a", "b"]] {
        let out = profile(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: profile"), "{args:?}");
    }
}

#[test]
fn a_filter_that_matches_nothing_prints_an_empty_record() {
    assert!(row_names(&["no_such_case"]).is_empty());
}

#[test]
fn every_registered_experiment_has_one_report_row() {
    let expected: Vec<Value> =
        EXPERIMENTS.iter().map(|e| Value::from(format!("report/{}", e.name))).collect();
    assert_eq!(row_names(&["report/"]), expected);
    let one = [Value::from("substrates/linear_fit_16_points")];
    assert_eq!(row_names(&["substrates/linear_fit"]), one);
}
