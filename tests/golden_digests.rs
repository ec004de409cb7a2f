//! Golden digests: FNV-1a fingerprints of the reproduction's outputs.
//!
//! The behaviour contract is that one seed gives the same bytes at any
//! `--threads`, with observability on or off. The contract test runs
//! every `registry::EXPERIMENTS` entry through one `Context`, as
//! `vap-report all` does, at 48 modules and `--scale 0.05`, and collects
//! each output by name: every entry's CSV and simulated schedule,
//! `stdout` (the entries' texts as printed) and what `Session::finish`
//! exports (`journal.jsonl`, `metrics.csv`, `ledger.csv`, and `summary`
//! as printed). `trace.json` holds wall-clock time and is not digested.
//! Each seed makes four runs:
//!
//! | run | threads | recording | must hold |
//! |---|---|---|---|
//! | A | 1 | ledger armed | every output's digest is its [`DIGESTS`] row |
//! | B | 4 | ledger armed | every output equals A's |
//! | C | 2 | plain session | A's outputs bar the summary, with no ledger lines or `ledger.csv` rows |
//! | D | 2 | none | the experiment files and `stdout` equal A's |
//!
//! Run A is made once per seed and shared: the fig7, schedstudy and
//! driftstudy family checks hold their CSVs, timeline and journal to
//! their [`DIGESTS`] rows from it. A last check pins a 48-module STREAM
//! PVT at three seeds.
//!
//! The constants change only in a commit of their own, after a change
//! that moves outputs on purpose (a recalibrated system, say), and only
//! once reverting that change reproduces every old digest; CHANGES.md
//! names the change and each digest it moved. A failure names every
//! moved output and prints the actual digests, ready to paste in.

use std::collections::BTreeMap;
use std::sync::{OnceLock, PoisonError, RwLock};

use vap::prelude::*;
use vap_obs::Session;
use vap_report::registry::{Context, EXPERIMENTS};
use vap_report::RunOptions;

/// The seeds [`check`] runs a family at.
const SEEDS: [u64; 3] = [1, 42, 0xdead];

/// The contract's seeds, in [`DIGESTS`] column order.
const CONTRACT_SEEDS: [u64; 2] = [2015, 7];

/// 64-bit FNV-1a, the hash the telemetry snapshot seal uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `artifacts` at every seed and compare the digests of what it
/// returns against `golden` (one row per seed, in [`SEEDS`] order).
fn check<const K: usize>(
    family: &str,
    golden: [[u64; K]; 3],
    artifacts: impl Fn(u64) -> [String; K],
) {
    let actual: Vec<[u64; K]> =
        SEEDS.iter().map(|&seed| artifacts(seed).map(|a| fnv1a(a.as_bytes()))).collect();
    let rows = |rows: &[[u64; K]]| rows.iter().map(render).collect::<Vec<_>>().join(", ");
    assert!(
        actual == golden,
        "{family} digests moved\n  expected: [{}]\n  actual:   [{}]",
        rows(&golden),
        rows(&actual)
    );
}

/// One row of digests as source text: `[0x0123_4567_89ab_cdef, …]`.
fn render<const K: usize>(row: &[u64; K]) -> String {
    let cells: Vec<String> = row
        .iter()
        .map(|d| {
            let group = |shift: u32| (d >> shift) & 0xffff;
            format!("0x{:04x}_{:04x}_{:04x}_{:04x}", group(48), group(32), group(16), group(0))
        })
        .collect();
    format!("[{}]", cells.join(", "))
}

/// One run's outputs, by name.
type Outputs = BTreeMap<&'static str, String>;

/// Held shared by the recorded runs and alone by the unrecorded one, so
/// that no session is live anywhere in the process while that one runs:
/// `vap_obs::enabled()` reads false, as in `vap-report` without
/// `--metrics`, `--ledger` or `--trace-out`. It guards no data, so a test
/// that panicked holding it leaves nothing to recover.
static RECORDING: RwLock<()> = RwLock::new(());

/// Run every registry entry through one `Context`, as `all` does, under
/// the session `install` makes (none if `None`).
fn run_all(seed: u64, threads: usize, install: Option<fn() -> Session>) -> Outputs {
    let _alone =
        install.is_none().then(|| RECORDING.write().unwrap_or_else(PoisonError::into_inner));
    let _shared =
        install.is_some().then(|| RECORDING.read().unwrap_or_else(PoisonError::into_inner));
    let session = install.map(|install| install());
    let opts = RunOptions {
        modules: Some(48),
        seed,
        scale: 0.05,
        threads: Some(threads),
        ..RunOptions::default()
    };
    let cx = Context::new(&opts);
    let (mut outputs, mut stdout) = (Outputs::new(), String::new());
    for e in EXPERIMENTS {
        let out = (e.run)(&cx).unwrap_or_else(|err| panic!("{}: {err}", e.name));
        for (name, body) in out.csv.into_iter().chain(out.trace) {
            assert!(outputs.insert(name, body).is_none(), "two entries write {name}");
        }
        stdout += &out.text;
        stdout.push('\n');
    }
    outputs.insert("stdout", stdout);
    if let Some(report) = session.map(Session::finish) {
        outputs.insert("journal.jsonl", report.journal_jsonl);
        outputs.insert("metrics.csv", report.metrics_csv);
        outputs.insert("ledger.csv", report.ledger_csv);
        outputs.insert("summary", report.summary + "\n");
    }
    outputs
}

/// Run A at `CONTRACT_SEEDS[column]`, made once and shared by the
/// contract test and the family checks.
fn run_a(column: usize) -> &'static Outputs {
    static A: [OnceLock<Outputs>; 2] = [OnceLock::new(), OnceLock::new()];
    A[column].get_or_init(|| run_all(CONTRACT_SEEDS[column], 1, Some(Session::install_with_ledger)))
}

/// The names whose values differ between `want` and `got`, or that only
/// one of them holds.
fn moved<V: PartialEq>(
    want: &BTreeMap<&'static str, V>,
    got: &BTreeMap<&'static str, V>,
) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = want.keys().chain(got.keys()).copied().collect();
    names.sort_unstable();
    names.dedup();
    names.retain(|name| want.get(name) != got.get(name));
    names
}

/// Runs A–D at `CONTRACT_SEEDS[column]` and checks each against the
/// rules in the module doc.
fn contract(column: usize) {
    let seed = CONTRACT_SEEDS[column];
    let a = run_a(column);
    let b = run_all(seed, 4, Some(Session::install_with_ledger));
    let mut c = run_all(seed, 2, Some(Session::install));
    let d = run_all(seed, 2, None);

    let digests: BTreeMap<_, _> =
        a.iter().map(|(&name, body)| (name, fnv1a(body.as_bytes()))).collect();
    let recorded: BTreeMap<_, _> = DIGESTS.iter().map(|&(name, row)| (name, row[column])).collect();
    // A plain session records no ledger, and its summary then has no
    // ledger block, so C's summary is not compared.
    c.remove("summary");
    let mut plain = a.clone();
    plain.remove("summary");
    let journal = &a["journal.jsonl"];
    plain.insert(
        "journal.jsonl",
        journal.split_inclusive('\n').filter(|l| !l.starts_with(r#"{"type":"ledger""#)).collect(),
    );
    plain.insert("ledger.csv", String::new());
    let mut unrecorded = a.clone();
    unrecorded.retain(|name, _| {
        !["journal.jsonl", "metrics.csv", "ledger.csv", "summary"].contains(name)
    });

    let failures: Vec<String> = [
        ("A, 1 thread, ledger armed: digests moved", moved(&recorded, &digests)),
        ("B, 4 threads, ledger armed: differs from A", moved(a, &b)),
        ("C, 2 threads, plain session: differs from A", moved(&plain, &c)),
        ("D, 2 threads, no session: differs from A", moved(&unrecorded, &d)),
    ]
    .into_iter()
    .filter(|(_, names)| !names.is_empty())
    .map(|(run, names)| format!("  {run}: {}", names.join(", ")))
    .collect();
    if !failures.is_empty() {
        let table: Vec<String> = digests
            .iter()
            .map(|(name, &digest)| {
                let mut row = DIGESTS.iter().find(|r| r.0 == *name).map_or([0; 2], |r| r.1);
                row[column] = digest;
                format!("    ({name:?}, {}),", render(&row))
            })
            .collect();
        panic!(
            "the contract fails at seed {seed}:\n{}\nrun A's digests:\n\
             const DIGESTS: &[(&str, [u64; 2])] = &[\n{}\n];",
            failures.join("\n"),
            table.join("\n")
        );
    }

    let journal = vap_obs::validate_journal(journal).expect("A's journal validates");
    assert!(
        journal.cells > 0 && journal.ledgers > 0 && journal.decisions > 0 && journal.scenarios > 0,
        "A's journal holds cell, ledger, decision and scenario lines: {journal:?}"
    );
    let metrics = vap_obs::validate_metrics_csv(&a["metrics.csv"]).expect("A's metrics validate");
    assert!(metrics > 0, "A's metrics.csv holds rows");
    let ledger = vap_obs::validate_ledger_csv(&a["ledger.csv"]).expect("A's ledger validates");
    assert!(ledger.tick_rows > 0 && ledger.bin_rows > 0, "A's ledger.csv holds rows: {ledger:?}");
}

#[test]
fn every_output_holds_the_contract_at_seed_2015() {
    contract(0);
}

#[test]
fn every_output_holds_the_contract_at_seed_7() {
    contract(1);
}

/// Checks run A's `names` against their [`DIGESTS`] rows at both seeds.
/// Seed 7 comes first, so that the first family check makes that run
/// while the seed-2015 contract test makes its own.
fn family(names: &[&str]) {
    for column in [1, 0] {
        let a = run_a(column);
        for &name in names {
            let row = DIGESTS.iter().find(|r| r.0 == name).map(|r| render(&[r.1[column]]));
            assert_eq!(
                row,
                Some(render(&[fnv1a(a[name].as_bytes())])),
                "{name} moved at seed {}",
                CONTRACT_SEEDS[column]
            );
        }
    }
}

#[test]
fn fig7_csv_and_journal_match_their_digests() {
    family(&["fig7.csv", "journal.jsonl"]);
}

#[test]
fn schedstudy_csv_timeline_and_journal_match_their_digests() {
    family(&["schedstudy.csv", "sched_schedule.json", "journal.jsonl"]);
}

#[test]
fn driftstudy_csv_and_journal_match_their_digests() {
    family(&["driftstudy.csv", "journal.jsonl"]);
}

#[test]
fn stream_pvt_json_matches_its_digest() {
    check("48-module STREAM PVT [json]", PVT, |seed| {
        let mut cluster = Cluster::with_size(SystemSpec::ha8k(), 48, seed);
        let stream = catalog::get(WorkloadId::Stream);
        [PowerVariationTable::generate_with_threads(&mut cluster, &stream, seed, 2).to_json()]
    });
}

/// `(output, [digest at seed 2015, digest at seed 7])`, by name.
const DIGESTS: &[(&str, [u64; 2])] = &[
    ("ablations.csv", [0x4813_bc5d_4a9c_2d5a, 0x3a0c_faba_a296_b090]),
    ("driftstudy.csv", [0x58cd_8b22_35a0_59d1, 0xa9af_7b09_f871_aa5b]),
    ("fig1.csv", [0xc855_59c5_4ea9_e152, 0x2714_956f_2faa_467b]),
    ("fig2.csv", [0x3fc2_76e7_8435_5579, 0x2725_7862_826c_6923]),
    ("fig3.csv", [0x71f7_0993_ac9b_4083, 0xdf4a_c9d6_72a8_56b9]),
    ("fig5.csv", [0xf17b_a235_599c_bdca, 0xeeba_473f_1382_d287]),
    ("fig6.csv", [0x5097_1721_f78d_fabc, 0xb880_9df8_42ea_11d5]),
    ("fig7.csv", [0x07fa_5950_bb99_a8cd, 0x3a06_a467_6b7c_ce92]),
    ("fig8.csv", [0x01e7_2e88_8424_42cf, 0x2746_81e3_d08f_1104]),
    ("fig9.csv", [0xdce0_796d_aee6_2b4c, 0x9b03_c3e8_de28_d3e7]),
    ("journal.jsonl", [0xc175_c88f_d394_ab20, 0x886c_7cd1_03eb_afad]),
    ("ledger.csv", [0x0d78_278f_6883_7e27, 0xd228_dfbc_11b7_706a]),
    ("metrics.csv", [0xc74e_ba8a_faa4_a67f, 0x91bc_6d4e_3970_6574]),
    ("multijob.csv", [0x0256_3c2d_bdbb_1398, 0x7727_7aee_a9cf_c019]),
    ("sched_schedule.json", [0xa16d_0637_fd43_6ca2, 0x5e44_fc21_33fa_a3c7]),
    ("schedstudy.csv", [0xe31a_9fa3_3e4d_7903, 0x9244_228a_aa46_6805]),
    ("stdout", [0x5ccb_1457_8f4b_c414, 0xe18c_fad8_029a_5ab6]),
    ("summary", [0xf454_385a_3ba8_6721, 0x2df3_29ca_8f92_c92c]),
    ("table4.csv", [0xad36_a63f_3cbd_1255, 0x6d4a_d91c_db75_be03]),
];

const PVT: [[u64; 1]; 3] =
    [[0x0fd1_a464_4a88_a845], [0x26fc_dd27_3f9e_484e], [0x2601_09ce_8971_3c94]];
