//! A reader that stops early (`vap-lint --index-dump | head -1`) closes
//! the pipe under `vap-lint`'s output. That is an I/O error with exit
//! code 2, never a panic.

use std::path::PathBuf;
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_an_error_not_a_panic() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    // the workspace's index dump is far larger than a pipe buffer, so the
    // write meets the closed read end whenever the child gets to it
    let mut child = Command::new(env!("CARGO_BIN_EXE_vap-lint"))
        .arg("--index-dump")
        .arg("--root")
        .arg(&root)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn vap-lint");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for vap-lint");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.starts_with("vap-lint: error: writing output: "), "stderr: {stderr}");
}
