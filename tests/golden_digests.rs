//! Golden digests: FNV-1a fingerprints of the deterministic outputs the
//! fleet state feeds — the fig7, schedstudy and driftstudy CSVs with their
//! observability journals, the schedstudy timeline and a STREAM PVT file —
//! at three seeds on two worker threads.
//!
//! The constants were recorded once and are never edited: a refactor of
//! the fleet layout, the PVT sweep or the scenario replay must leave every
//! byte of these outputs unchanged. A failure prints every digest of the
//! failing family, so a deliberate output change shows exactly which
//! artifacts moved.

use vap::prelude::*;
use vap_report::experiments::{drift_study, fig7, sched_study};
use vap_report::{csv, RunOptions};

const SEEDS: [u64; 3] = [1, 42, 0xdead];

/// 64-bit FNV-1a, the hash the telemetry snapshot seal uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn opts(modules: usize, seed: u64, scale: f64) -> RunOptions {
    RunOptions { modules: Some(modules), seed, scale, threads: Some(2), ..RunOptions::default() }
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
    assert!(
        actual == golden,
        "{family} digests moved\n  expected: {}\n  actual:   {}",
        render(&golden),
        render(&actual)
    );
}

fn render<const K: usize>(rows: &[[u64; K]]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r.iter().map(|d| format!("0x{d:016x}")).collect();
            format!("[{}]", cells.join(", "))
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

#[test]
fn fig7_csv_and_journal_match_their_digests() {
    check("fig7 [csv, journal]", FIG7, |seed| {
        let session = vap_obs::Session::install();
        let table = csv::fig7(&fig7::run(&opts(32, seed, 0.02)));
        [table, session.finish().journal_jsonl]
    });
}

#[test]
fn schedstudy_csv_timeline_and_journal_match_their_digests() {
    check("schedstudy [csv, timeline, journal]", SCHEDSTUDY, |seed| {
        let session = vap_obs::Session::install();
        let run = sched_study::run(&opts(48, seed, 0.05));
        [sched_study::to_csv(&run), run.timeline_json, session.finish().journal_jsonl]
    });
}

#[test]
fn driftstudy_csv_and_journal_match_their_digests() {
    check("driftstudy [csv, journal]", DRIFTSTUDY, |seed| {
        let session = vap_obs::Session::install();
        let table = drift_study::to_csv(&drift_study::run(&opts(16, seed, 1.0)));
        [table, session.finish().journal_jsonl]
    });
}

#[test]
fn stream_pvt_json_matches_its_digest() {
    check("48-module STREAM PVT [json]", PVT, |seed| {
        let mut cluster = Cluster::with_size(SystemSpec::ha8k(), 48, seed);
        let stream = catalog::get(WorkloadId::Stream);
        [PowerVariationTable::generate_with_threads(&mut cluster, &stream, seed, 2).to_json()]
    });
}

const FIG7: [[u64; 2]; 3] = [
    [0x548b_9cf2_03ff_1efb, 0xad6c_1946_e390_78c4],
    [0x4c2c_18c6_08c1_b408, 0x6407_e998_62d2_2cd2],
    [0xe0e2_7207_0e56_6b54, 0x8dbd_62a8_36b5_fc21],
];

const SCHEDSTUDY: [[u64; 3]; 3] = [
    [0x9725_d82b_9b7e_98b8, 0xeaf2_efed_1172_0129, 0x26bf_c68e_d9bc_744d],
    [0x6b8c_d384_1604_27a9, 0x727d_9e72_d21a_7ca2, 0x0cba_c17c_5cd3_7c6f],
    [0x3c42_65bc_21ea_2b7f, 0xd6ea_9ea7_a8f8_8576, 0x4a92_370d_b529_1e4f],
];

const DRIFTSTUDY: [[u64; 2]; 3] = [
    [0x12d5_3312_333e_a804, 0x800e_21d2_59fe_28c8],
    [0x786c_100d_299a_3b10, 0x1071_e6a8_c39a_27ef],
    [0x3e87_a702_052c_c79c, 0x3e01_ca7e_0100_ea5f],
];

const PVT: [[u64; 1]; 3] =
    [[0x170f_9db4_2e19_546a], [0x3215_6842_3723_8c91], [0xc120_f03d_0158_3b96]];
