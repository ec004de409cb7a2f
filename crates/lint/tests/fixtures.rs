//! Fixture-workspace tests for the index-aware rules, plus an index
//! round-trip against the real workspace.
//!
//! `tests/fixtures/ws` is a miniature workspace with *seeded* violations
//! (see its README). Scanning it end-to-end through [`vap_lint::cli::scan`]
//! exercises the whole two-pass pipeline — walk, parse, manifest-derived
//! dependency edges, index build, rule dispatch, `vap:allow` — the way CI
//! runs it, rather than the unit tests' hand-built indices. The
//! released binary's `--format json` and `--index-dump` output for it
//! are pinned byte for byte in `tests/fixtures/ws.json` and
//! `tests/fixtures/ws.index-dump`.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::PathBuf;
use std::process::Command;

use vap_lint::cli::{scan, Options};
use vap_lint::index::{FnInfo, SymbolIndex};
use vap_lint::source::SourceFile;
use vap_lint::{walker, Finding, Status};

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn fixture_findings() -> Vec<Finding> {
    scan(&Options::new(fixture_root())).expect("fixture scan").findings
}

/// The findings of one rule, New only (the seeded set).
fn new_of<'a>(all: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    all.iter().filter(|f| f.rule == rule && f.status == Status::New).collect()
}

#[test]
fn unit_flow_catches_the_seeded_cross_crate_violations() {
    let all = fixture_findings();
    let hits = new_of(&all, "unit-flow");

    // part A: bare literal and projection arithmetic into `Watts`,
    // across the flow -> units crate boundary
    let flow = "crates/flow/src/lib.rs";
    assert!(
        hits.iter()
            .any(|f| f.path == flow && f.message.contains("95.0") && f.message.contains("Watts")),
        "literal into Watts param not caught: {hits:#?}"
    );
    assert!(
        hits.iter()
            .any(|f| f.path == flow && f.message.contains("old.0") && f.message.contains("Watts")),
        "projection arithmetic into Watts param not caught: {hits:#?}"
    );
    // part C: constructor laundering
    assert!(
        hits.iter().any(|f| f.path == flow && f.message.contains("re-wraps")),
        "constructor laundering not caught: {hits:#?}"
    );
    // part B: pub fn returning raw f64 from unit inputs
    assert!(
        hits.iter().any(|f| f.path == "crates/units/src/lib.rs" && f.message.contains("headroom")),
        "pub raw-f64 return not caught: {hits:#?}"
    );
    // exactly the seeded set — the clean fns must stay quiet
    assert_eq!(hits.len(), 4, "{hits:#?}");
}

#[test]
fn unit_flow_allow_marker_is_honored_in_a_full_scan() {
    let all = fixture_findings();
    let duty: Vec<_> = all
        .iter()
        .filter(|f| f.rule == "unit-flow" && f.message.contains("duty_fraction"))
        .collect();
    assert_eq!(duty.len(), 1, "{duty:#?}");
    assert_eq!(duty[0].status, Status::Allowed);
}

#[test]
fn shared_state_catches_mutable_statics_in_par_reachable_crates() {
    let all = fixture_findings();
    let hits = new_of(&all, "shared-state-in-par");
    let shared = "crates/shared/src/lib.rs";
    // vap-fix-shared is reachable only through vap-fix-par's manifest
    // dependency edge — this asserts the closure over Cargo.toml edges
    for name in ["CALLS", "LAST_SEEN", "SCRATCH"] {
        assert!(
            hits.iter().any(|f| f.path == shared && f.message.contains(name)),
            "static `{name}` not caught: {hits:#?}"
        );
    }
    // the immutable table is not a race
    assert!(hits.iter().all(|f| !f.message.contains("TWIDDLE")), "{hits:#?}");
}

#[test]
fn shared_state_catches_the_float_sum_inside_the_par_closure() {
    let all = fixture_findings();
    let hits = new_of(&all, "shared-state-in-par");
    let par = "crates/par/src/lib.rs";
    let in_par: Vec<_> = hits.iter().filter(|f| f.path == par).collect();
    assert_eq!(in_par.len(), 1, "only the f64 sum should fire: {in_par:#?}");
    assert!(in_par[0].message.contains("order-sensitive float `sum`"));
}

#[test]
fn panic_propagation_catches_the_wrapper_around_the_panicker() {
    let all = fixture_findings();
    let hits = new_of(&all, "panic-propagation");
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert_eq!(hits[0].path, "crates/panicky/src/lib.rs");
    assert!(hits[0].message.contains("`configure`"), "{}", hits[0].message);
    assert!(hits[0].message.contains("parse_width"), "{}", hits[0].message);
    // and the panic itself is still reported by no-panic-in-lib
    assert_eq!(new_of(&all, "no-panic-in-lib").len(), 1);
}

/// `vap-lint`'s stdout for the fixture workspace with `flag`, which must
/// exit 0 with nothing on stderr.
fn fixture_output(flag: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_vap-lint"))
        .arg("--root")
        .arg(fixture_root())
        .args(flag)
        .output()
        .expect("run vap-lint");
    assert!(out.status.success(), "{flag:?}: {}", out.status);
    assert!(out.stderr.is_empty(), "{flag:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The committed expected output `tests/fixtures/<name>`.
fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn json_output_matches_the_committed_file() {
    assert_eq!(fixture_output(&["--format", "json"]), golden("ws.json"));
}

#[test]
fn index_dump_matches_the_committed_file() {
    assert_eq!(fixture_output(&["--index-dump"]), golden("ws.index-dump"));
}

/// The *real* workspace's sources and manifest edges, loaded exactly as
/// `scan` loads them (the index borrows the sources, so the caller
/// builds it).
fn real_workspace() -> (Vec<SourceFile>, BTreeMap<String, BTreeSet<String>>) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = walker::workspace_files(&root).expect("walk real workspace");
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|wf| {
            let text = fs::read_to_string(&wf.abs).expect("read source");
            SourceFile::from_source(&wf.rel, &wf.crate_name, &text)
        })
        .collect();
    let deps = walker::crate_dependencies(&root).expect("read manifests");
    (sources, deps)
}

/// The functions a call to `name` with `argc` arguments resolves to, read
/// from `fns` and checked against the shape [`SymbolIndex::resolve`]
/// returns: same count, same first member.
fn members<'i, 's>(
    index: &'i SymbolIndex<'s>,
    name: &str,
    is_method: bool,
    argc: usize,
) -> Vec<&'i FnInfo<'s>> {
    let found: Vec<_> = index
        .fns
        .get(name)
        .into_iter()
        .flatten()
        .filter(|f| f.sig.has_self == is_method && f.sig.arity() == argc)
        .collect();
    let shape = index.resolve(name, is_method, argc);
    assert_eq!(shape.map_or(0, |s| s.count), found.len(), "{name}/{argc}");
    if let Some(s) = shape {
        assert!(std::ptr::eq(index.first_member(name, s), found[0]), "{name}/{argc}");
    }
    found
}

#[test]
fn index_round_trips_real_workspace_signatures() {
    let (sources, deps) = real_workspace();
    let index = SymbolIndex::build(&sources, deps);

    // the four campaign units plus the discovered `Alpha` f64 newtype
    for unit in ["Watts", "GigaHertz", "Seconds", "Joules", "Alpha"] {
        assert!(index.unit_types.contains(unit), "missing unit type {unit}");
    }

    // a free associated fn: Alpha::saturating(raw: f64) -> Alpha
    let sat = members(&index, "saturating", false, 1);
    let sat: Vec<_> = sat.iter().filter(|c| c.file.crate_name == "vap-model").collect();
    assert_eq!(sat.len(), 1, "{sat:#?}");
    assert_eq!(sat[0].file.path, "crates/model/src/linear.rs");
    assert_eq!(sat[0].file.parsed.qualified(sat[0].sig), "Alpha::saturating");
    assert_eq!(sat[0].file.parsed.ret(sat[0].sig), Some("Alpha"));
    assert!(sat[0].sig.is_pub && !sat[0].sig.has_self);

    // a 5-ary free fn with a Result return: vap_sim::dynamics::enforce
    let enf = members(&index, "enforce", false, 5);
    assert!(
        enf.iter().any(|c| c.file.crate_name == "vap-sim"
            && c.file.path == "crates/sim/src/dynamics.rs"
            && c.file.parsed.ret(c.sig).is_some_and(|r| r.contains("DynamicsResult"))),
        "{enf:#?}"
    );

    // a method: DynamicsResult::converged_frequency(&self) -> GigaHertz
    let cf = members(&index, "converged_frequency", true, 0);
    assert!(
        cf.iter().any(|c| c.file.path == "crates/sim/src/dynamics.rs"
            && c.file.parsed.ret(c.sig) == Some("GigaHertz")),
        "{cf:#?}"
    );
    // receiver kind and arity are part of the key
    assert!(members(&index, "converged_frequency", false, 0).is_empty());
    assert!(members(&index, "saturating", false, 2).is_empty());

    // par reachability covers the executor and its heaviest users
    for krate in ["vap-exec", "vap-workloads", "vap-sim"] {
        assert!(index.par_crates.contains(krate), "missing par crate {krate}");
    }

    // the dump (what --index-dump prints) round-trips the same facts
    let dump = index.dump();
    assert!(dump.contains("fn Alpha::saturating [vap-model] crates/model/src/linear.rs:"));
    assert!(dump.contains("units: "));
    assert!(dump.contains("par-crates: "));
}
