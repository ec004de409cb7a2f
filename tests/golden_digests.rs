//! Golden digests: FNV-1a fingerprints of the deterministic outputs the
//! fleet state feeds — the fig7, schedstudy and driftstudy CSVs with their
//! observability journals, the schedstudy timeline and a STREAM PVT file —
//! at three seeds on two worker threads.
//!
//! A refactor of the fleet layout, the PVT sweep or the scenario replay
//! must leave every byte of these outputs unchanged. The constants change
//! only in a commit of their own, after a change that moves these outputs
//! on purpose (a recalibrated system, say); CHANGES.md names that change
//! and each constant it moved. A failure prints every digest of the
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
    [0x94fd_4d7e_bc0c_3c58, 0x650c_bd08_241d_a69f],
    [0x2e12_ade7_8710_2231, 0x3397_bc3b_4c91_6fd5],
    [0xce94_039b_17d5_7eda, 0xb30a_70e8_8cfe_67cf],
];

const SCHEDSTUDY: [[u64; 3]; 3] = [
    [0x5373_de75_5d8c_4279, 0x026a_fda8_ed62_3d30, 0x3ab2_1a0c_b6f8_186f],
    [0xaf73_6dee_9c27_1822, 0x994c_d5ab_bfd0_b942, 0xe2cc_12ac_2302_65e6],
    [0x481b_eb98_63a0_59c3, 0x8e43_88d7_c19c_d2e1, 0x06e7_2c22_9ceb_8642],
];

const DRIFTSTUDY: [[u64; 2]; 3] = [
    [0xc0e2_16c7_af99_d18d, 0x800e_21d2_59fe_28c8],
    [0xb153_2145_1f32_828e, 0x973e_49ba_6f64_e861],
    [0x7ea5_9e9d_316b_afca, 0x3e01_ca7e_0100_ea5f],
];

const PVT: [[u64; 1]; 3] =
    [[0x0fd1_a464_4a88_a845], [0x26fc_dd27_3f9e_484e], [0x2601_09ce_8971_3c94]];
