//! `profile`'s command line, on the binary: usage, usage errors and their
//! exit codes, all decided before any case is timed.

use std::process::{Command, Output};

fn profile(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_profile")).args(args).output().expect("run profile")
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
    for args in [&["--bogus"][..], &["-x"], &["ledger", "scrape"], &["--bench", "a", "b"]] {
        let out = profile(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: profile"), "{args:?}");
    }
}

#[test]
fn cargo_bench_flag_and_a_filter_run_the_matching_cases() {
    // cargo passes `--bench` to bench targets; no case matches this
    // filter, so the record is empty
    let out = profile(&["--bench", "no_such_case"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"cases\":[\n]"));
}
