//! Guard the committed bench record, `BENCH.json`, against placeholder
//! rot and regressions past its bounds.
//!
//! The record is written by one `profile` run (`cargo run --release -p
//! vap-bench --bin profile > BENCH.json`) and read here through the
//! workspace's JSON parser. Every case row has one shape, `{name, unit,
//! n, median, q1, q3}` (the soak's error and scrape-latency rows add
//! `p95` and `p99`), holds finite numbers ordered `q1 ≤ median ≤ q3`, and rests on
//! at least five samples. The tests below hold the named rows to the
//! targets each subsystem promises.

use std::collections::BTreeMap;
use vap_obs::json::{parse, Fields, Value};
use vap_stats::descriptive::quantile;

/// One case row of the record.
struct Row {
    unit: String,
    n: u64,
    median: f64,
    q1: f64,
    q3: f64,
    tail: Option<(f64, f64)>,
}

struct Bench {
    nproc: u64,
    rows: BTreeMap<String, Row>,
}

impl Bench {
    fn row(&self, name: &str) -> &Row {
        self.rows.get(name).unwrap_or_else(|| panic!("case {name} missing from BENCH.json"))
    }

    /// The median of `name`, which must be a measured positive number.
    fn median(&self, name: &str) -> f64 {
        let median = self.row(name).median;
        assert!(median > 0.0, "{name} must be a measured positive number, got {median}");
        median
    }
}

fn read_row(v: &Value) -> Result<(String, Row), String> {
    let mut f = Fields::of(v)?;
    let name: String = f.get("name")?;
    let row = Row {
        unit: f.get("unit")?,
        n: f.get("n")?,
        median: f.get("median")?,
        q1: f.get("q1")?,
        q3: f.get("q3")?,
        tail: f.get::<Option<f64>>("p95")?.zip(f.get::<Option<f64>>("p99")?),
    };
    f.deny_unknown().map_err(|e| format!("{name}: {e}"))?;
    Ok((name, row))
}

fn read_bench(text: &str) -> Result<Bench, String> {
    let doc = parse(text)?;
    let mut top = Fields::of(&doc)?;
    let host: Value = top.get("host")?;
    let cases: Vec<Value> = top.get("cases")?;
    top.deny_unknown()?;
    let mut host = Fields::of(&host)?;
    let nproc = host.get("nproc")?;
    host.deny_unknown()?;
    let mut rows = BTreeMap::new();
    for case in &cases {
        let (name, row) = read_row(case)?;
        if rows.insert(name.clone(), row).is_some() {
            return Err(format!("case {name} recorded twice"));
        }
    }
    Ok(Bench { nproc, rows })
}

/// Parse `BENCH.json` and check every row's shape.
fn bench() -> Bench {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let bench = read_bench(&text).unwrap_or_else(|e| panic!("malformed BENCH.json: {e}"));
    for (name, row) in &bench.rows {
        assert!(!row.unit.is_empty(), "{name}: empty unit");
        assert!(row.q1 <= row.median && row.median <= row.q3, "{name}: quartiles out of order");
    }
    bench
}

#[test]
fn record_names_its_host_and_rests_every_row_on_five_samples() {
    let bench = bench();
    assert!(bench.nproc >= 1, "nproc must be recorded");
    for (name, row) in &bench.rows {
        assert!(row.n >= 5, "{name} rests on {} samples; a timing needs at least 5", row.n);
    }
}

#[test]
fn campaign_medians_and_speedups_are_measured_numbers() {
    let bench = bench();
    for case in ["campaign_fig7_48", "campaign_table4_96"] {
        for threads in ["threads_1", "threads_2", "threads_4"] {
            bench.median(&format!("{case}/{threads}"));
        }
        bench.median(&format!("{case}/speedup_threads_4"));
    }
}

#[test]
fn fleet_scaling_record_holds_measured_numbers_and_targets() {
    // The fleet-scale story (struct-of-arrays cluster + incremental
    // budgeter) is only real if the committed record carries measured
    // timings — and those timings hit the headline targets: a
    // fig7-equivalent campaign at 100k modules in single-digit seconds,
    // and the scheduler replay above a million events per second.
    let bench = bench();
    for tag in ["10k", "100k", "1m"] {
        bench.median(&format!("construct_{tag}"));
        bench.median(&format!("pvt_sweep_{tag}"));
    }
    assert!(
        bench.median("campaign_100k") < 10.0,
        "fig7-equivalent at 100k modules must finish in single-digit seconds"
    );
    assert!(
        bench.median("sched_events") >= 1e6,
        "scheduler replay must sustain at least 1M events/s"
    );
    // scaling sanity: 1M-module construction must not be catastrophically
    // superlinear vs 100k (columns are flat vecs; 10x modules ≈ 10x time)
    let c100k = bench.median("construct_100k");
    let c1m = bench.median("construct_1m");
    assert!(c1m < c100k * 100.0, "1M construction is superlinear: {c1m}s vs {c100k}s at 100k");
}

#[test]
fn scenario_record_holds_measured_numbers_and_floors() {
    // The non-stationary story is only real if the committed record
    // carries measured timings — and those timings hit the floors the
    // subsystem promises: the full driftstudy grid inside a
    // CI-tolerable window, sub-second schedule generation at 10k
    // modules, and perturbation application fast enough that the
    // scenario layer is never the bottleneck of a campaign.
    let bench = bench();
    assert!(
        bench.median("driftstudy_96") < 120.0,
        "the 48-cell driftstudy grid at 96 modules must stay inside a CI-tolerable window"
    );
    assert!(
        bench.median("gen_mixed_10k") < 1.0,
        "mixed-schedule generation at 10k modules must be sub-second"
    );
    for name in ["aging_apply_96", "aging_apply_10k"] {
        assert!(
            bench.median(name) >= 1e4,
            "{name}: perturbation application must sustain at least 10k events/s"
        );
    }
}

/// Every soak session saw 0 errors: the errors row's p99, which over at
/// most 100 sessions weighs the largest count, reads 0. One failed
/// session among five shows there even where the quartiles read 0.
fn soak_errors(row: &Row) -> Result<(), String> {
    match row.tail {
        Some((_, p99)) if row.n <= 100 && p99 == 0.0 => Ok(()),
        tail => Err(format!("soak errors over {} sessions: p95, p99 {tail:?}", row.n)),
    }
}

#[test]
fn daemon_soak_recorded_nontrivial_errorfree_throughput() {
    let bench = bench();
    assert!(bench.median("daemon_soak/wall") > 1.0, "soak must run for wall-clock seconds");
    bench.median("daemon_soak/prom_scrapes");
    bench.median("daemon_soak/prom_scrapes_per_s");
    bench.median("daemon_soak/json_lines");
    soak_errors(bench.row("daemon_soak/errors")).unwrap_or_else(|e| panic!("{e}"));
    // scrape latency percentiles: measured, positive, and ordered
    let p50 = bench.median("daemon_soak/prom_scrape_ms");
    let latency = bench.row("daemon_soak/prom_scrape_ms");
    let (p95, p99) = latency.tail.expect("the soak latency row carries p95 and p99");
    assert!(p50 <= p95 && p95 <= p99, "percentiles out of order: {p50}/{p95}/{p99}");
}

#[test]
fn ledger_overhead_record_holds_measured_numbers() {
    // The watt-provenance ledger's cost story is only real with measured
    // times on both sides of the flag — and an armed-ledger overhead that
    // stays bounded. Each pair times the armed and the disabled campaign
    // back to back, so the per-pair on/off ratio cancels drift.
    let bench = bench();
    bench.median("ledger_96/off");
    bench.median("ledger_96/on");
    let ratio = bench.row("ledger_96/on_over_off");
    let overhead = 100.0 * (bench.median("ledger_96/on_over_off") - 1.0);
    assert!(overhead < 25.0, "armed-ledger overhead regressed to {overhead}%");
    assert!(ratio.n >= 3, "need at least 3 reps for a median");
}

#[test]
fn one_soak_session_with_errors_fails_the_record() {
    // one failed session of n, quantiles as `profile` takes them
    for n in 1..=100 {
        let sessions: Vec<f64> = (0..n).map(|i| if i == n / 2 { 3.0 } else { 0.0 }).collect();
        let q = |p| quantile(&sessions, p).unwrap();
        let tail = Some((q(0.95), q(0.99)));
        let row = Row { unit: "errors".into(), n, median: q(0.5), q1: q(0.25), q3: q(0.75), tail };
        assert!(n != 5 || row.q3 == 0.0, "the planted session must hide from the quartiles");
        assert!(soak_errors(&row).is_err(), "one failed session in {n} slipped past");
    }
}
