//! The `vap-report` binary's exit codes: `0` on success, `1` when an
//! experiment fails or an output cannot be written, `2` for a command
//! line it cannot run, with the usage naming every experiment.

use std::process::{Command, Output};
use vap_report::registry::EXPERIMENTS;

fn vap_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vap-report")).args(args).output().expect("spawn vap-report")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_name_runs_its_experiment() {
    let out = vap_report(&["table1"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 1"));
}

#[test]
fn usage_errors_exit_2_and_name_every_experiment() {
    for args in [&[][..], &["--help"], &["fig4"], &["fig7", "--bogus"]] {
        let out = vap_report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        for e in EXPERIMENTS {
            assert!(err.contains(e.name), "{args:?}: {err}");
        }
    }
    let out = vap_report(&["fig6", "--modules", "1000001"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--modules must be at most 1000000"));
}

#[test]
fn an_unwritable_csv_exits_1_naming_the_path() {
    // a directory cannot be made under a regular file
    let file = std::env::temp_dir().join(format!("vap-report-cli-{}", std::process::id()));
    std::fs::write(&file, "not a directory").unwrap();
    let dir = file.join("out");
    let out = vap_report(&["table4", "--modules", "8", "--csv", dir.to_str().unwrap()]);
    std::fs::remove_file(&file).unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains(&dir.join("table4.csv").display().to_string()),
        "{}",
        stderr(&out)
    );
}

#[test]
fn a_fleet_too_small_for_the_study_exits_1() {
    let out = vap_report(&["multijob", "--modules", "2", "--scale", "0.02"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("at least 3 modules"), "{}", stderr(&out));
}
