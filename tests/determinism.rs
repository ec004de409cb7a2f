//! Reproducibility: identical seeds must reproduce identical campaigns,
//! and different seeds must actually differ. Long simulation studies are
//! only debuggable if every layer is deterministic.
//!
//! The contract test in `tests/golden_digests.rs` holds every experiment's
//! bytes at 48 modules and `--scale 0.05` to the same seed at 1, 2 and 4
//! threads, recorded or not. The thread-count tests here check the same
//! invariance one study at a time on 8 modules (at `--scale 0.01` where
//! the study reads it), so that a failure names the study.

use vap::prelude::*;

fn campaign(seed: u64) -> (Vec<f64>, Vec<f64>, f64) {
    let n = 48;
    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), n, seed);
    let budgeter = Budgeter::install(&mut cluster, seed);
    let bt = catalog::get(WorkloadId::Bt);
    let ids: Vec<usize> = (0..n).collect();
    let plan = budgeter
        .plan(&mut cluster, SchemeId::VaPc, &bt, Watts(75.0 * n as f64), &ids)
        .expect("75 W/module is feasible");
    let caps: Vec<f64> = plan.allocations.iter().map(|a| a.p_cpu.value()).collect();
    let report = run_region(
        &mut cluster,
        &plan,
        &bt,
        &bt.program(0.02),
        &ids,
        &CommParams::infiniband_fdr(),
        seed,
    );
    let powers: Vec<f64> = report.module_power.iter().map(|p| p.value()).collect();
    (caps, powers, report.makespan().value())
}

#[test]
fn same_seed_reproduces_bit_for_bit() {
    let a = campaign(11);
    let b = campaign(11);
    assert_eq!(a.0, b.0, "plans must be deterministic");
    assert_eq!(a.1, b.1, "measured powers must be deterministic");
    assert_eq!(a.2, b.2, "makespans must be deterministic");
}

#[test]
fn different_seeds_give_different_fleets() {
    let a = campaign(11);
    let b = campaign(12);
    assert_ne!(a.0, b.0, "different silicon lotteries must differ");
}

#[test]
fn pvt_json_round_trip_preserves_plans() {
    let n = 24;
    let seed = 5;
    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), n, seed);
    let budgeter = Budgeter::install(&mut cluster, seed);
    let json = budgeter.pvt().to_json();
    let revived = Budgeter::with_pvt(PowerVariationTable::from_json(&json).unwrap(), seed);

    let mhd = catalog::get(WorkloadId::Mhd);
    let ids: Vec<usize> = (0..n).collect();
    let budget = Watts(80.0 * n as f64);
    let p1 = budgeter.plan(&mut cluster, SchemeId::VaFs, &mhd, budget, &ids).unwrap();
    let p2 = revived.plan(&mut cluster, SchemeId::VaFs, &mhd, budget, &ids).unwrap();
    // Consecutive test runs re-read the MSR energy counters, whose 15.26 µJ
    // quantization residue differs between runs, so the plans agree to the
    // measurement quantum rather than bit-for-bit.
    assert!((p1.alpha.value() - p2.alpha.value()).abs() < 1e-4);
    for (a, b) in p1.allocations.iter().zip(&p2.allocations) {
        assert!((a.p_cpu - b.p_cpu).abs() < Watts(0.01));
        assert!((a.frequency.value() - b.frequency.value()).abs() < 1e-4);
    }
}

#[test]
fn experiment_drivers_are_deterministic() {
    use vap_report::experiments::fig6;
    use vap_report::RunOptions;
    let opts = RunOptions { modules: Some(32), seed: 77, scale: 1.0, ..RunOptions::default() };
    let a = fig6::run(&opts);
    let b = fig6::run(&opts);
    for (x, y) in a.rows.iter().zip(&b.rows) {
        assert_eq!(x.workload, y.workload);
        assert_eq!(x.error_pct, y.error_pct);
    }
}

#[test]
fn campaigns_are_thread_count_invariant() {
    // The contract of the vap-exec layer: a 1-thread and a 4-thread run
    // of every registered experiment must write and print the same bytes.
    use vap_report::registry::{Context, EXPERIMENTS};
    use vap_report::RunOptions;
    let at = |threads: usize| RunOptions {
        modules: Some(8),
        seed: 2015,
        scale: 0.01,
        threads: Some(threads),
        ..RunOptions::default()
    };
    let (serial, parallel) = (at(1), at(4));
    let (serial, parallel) = (Context::new(&serial), Context::new(&parallel));
    for e in EXPERIMENTS {
        let a = (e.run)(&serial).unwrap_or_else(|err| panic!("{}: {err}", e.name));
        let b = (e.run)(&parallel).unwrap_or_else(|err| panic!("{}: {err}", e.name));
        assert_eq!(a, b, "{} output must not depend on --threads", e.name);
    }
}

#[test]
fn sched_study_is_seed_and_thread_count_invariant() {
    // The scheduling study replays a discrete-event trace on every grid
    // cell; its CSV (and the simulated Perfetto timeline riding along)
    // must be byte-identical across thread counts and same-seed reruns.
    use vap_report::experiments::sched_study;
    use vap_report::RunOptions;
    let at = |threads: usize| RunOptions {
        modules: Some(8),
        seed: 2015,
        scale: 0.01,
        threads: Some(threads),
        ..RunOptions::default()
    };
    let serial = sched_study::run(&at(1));
    let parallel = sched_study::run(&at(4));
    assert_eq!(
        sched_study::to_csv(&serial),
        sched_study::to_csv(&parallel),
        "schedstudy CSV must not depend on --threads"
    );
    assert_eq!(
        serial.timeline_json, parallel.timeline_json,
        "simulated timeline must not depend on --threads"
    );
    let again = sched_study::run(&at(1));
    assert_eq!(sched_study::to_csv(&serial), sched_study::to_csv(&again));
}

#[test]
fn drift_study_is_seed_and_thread_count_invariant() {
    // The drift study fans (scenario × recal policy × cap) cells over
    // threads; scenario event streams, faulted sensor readings, and
    // re-calibration sweeps are all seeded, so the CSV must be
    // byte-identical across thread counts and same-seed reruns.
    use vap_report::experiments::drift_study;
    use vap_report::RunOptions;
    let at = |threads: usize| RunOptions {
        modules: Some(8),
        seed: 2015,
        threads: Some(threads),
        ..RunOptions::default()
    };
    let serial = drift_study::run(&at(1));
    let parallel = drift_study::run(&at(4));
    assert_eq!(
        drift_study::to_csv(&serial),
        drift_study::to_csv(&parallel),
        "driftstudy CSV must not depend on --threads"
    );
    let again = drift_study::run(&at(1));
    assert_eq!(drift_study::to_csv(&serial), drift_study::to_csv(&again));
}

#[test]
fn fleet_scale_construction_and_sweep_are_deterministic() {
    // Fleet scale: the SoA layout must stay bit-for-bit reproducible at
    // 10k modules — same-seed fleets identical, different-seed fleets
    // different, and the fleet-native PVT sweep thread-count invariant.
    use vap::core::pvt::PowerVariationTable;
    let n = 10_000;
    let a = Cluster::with_size(SystemSpec::ha8k(), n, 2015);
    let b = Cluster::with_size(SystemSpec::ha8k(), n, 2015);
    assert_eq!(a.len(), n);
    assert_eq!(
        a.total_power().value().to_bits(),
        b.total_power().value().to_bits(),
        "same-seed 10k fleets must agree bitwise"
    );
    for i in [0usize, 1, 4_999, n - 1] {
        let (ma, mb) = (a.module(i), b.module(i));
        let (x, y) = (ma.operating_point(), mb.operating_point());
        assert_eq!(x.clock.value().to_bits(), y.clock.value().to_bits());
        assert_eq!(ma.cpu_power().value().to_bits(), mb.cpu_power().value().to_bits());
    }
    let c = Cluster::with_size(SystemSpec::ha8k(), n, 2016);
    assert_ne!(
        a.total_power().value().to_bits(),
        c.total_power().value().to_bits(),
        "different silicon lotteries must differ"
    );

    let micro = catalog::get(WorkloadId::Stream);
    let sweep = |threads: usize| {
        let mut fleet = Cluster::with_size(SystemSpec::ha8k(), n, 2015);
        PowerVariationTable::generate_with_threads(&mut fleet, &micro, 2015, threads)
    };
    let serial = sweep(1);
    let parallel = sweep(4);
    assert_eq!(serial, parallel, "10k-module PVT sweep must not depend on thread count");
    assert_eq!(serial.len(), n);
}

#[test]
fn observability_journal_is_thread_count_invariant() {
    // Recording a campaign must not perturb it, and the journal itself is
    // part of the deterministic surface: byte-identical at any --threads.
    use vap_report::experiments::fig7;
    use vap_report::{csv, RunOptions};
    let observed = |threads: usize| {
        let session = vap_obs::Session::install();
        let run = fig7::run(&RunOptions {
            modules: Some(8),
            seed: 2015,
            scale: 0.01,
            threads: Some(threads),
            ..RunOptions::default()
        });
        (csv::fig7(&run), session.finish())
    };
    let (csv_1, report_1) = observed(1);
    let (csv_4, report_4) = observed(4);
    assert_eq!(csv_1, csv_4, "recording must not perturb results");
    assert_eq!(
        report_1.journal_jsonl, report_4.journal_jsonl,
        "journal must be byte-identical at any thread count"
    );
    assert_eq!(report_1.metrics_csv, report_4.metrics_csv);
    // sanity: the journal actually observed the campaign
    assert!(report_1.journal_jsonl.contains("scheme.plans"));
    assert!(report_1.journal_jsonl.contains("\"kind\":\"cell\""));
}

#[test]
fn watt_provenance_ledger_is_thread_count_invariant() {
    // The attribution plane is part of the deterministic surface too:
    // with the ledger armed over a scheduling campaign, the journal
    // (ledger ticks + decision records included) and ledger.csv must be
    // byte-identical at any --threads, and the ledger must re-validate
    // (per-tick conservation) on the exported bytes.
    use vap_report::experiments::sched_study;
    use vap_report::RunOptions;
    let attributed = |threads: usize| {
        let session = vap_obs::Session::install_with_ledger();
        let run = sched_study::run(&RunOptions {
            modules: Some(8),
            seed: 2015,
            scale: 0.01,
            threads: Some(threads),
            ..RunOptions::default()
        });
        (sched_study::to_csv(&run), session.finish())
    };
    let (csv_1, report_1) = attributed(1);
    let (csv_4, report_4) = attributed(4);
    assert_eq!(csv_1, csv_4, "arming the ledger must not perturb results");
    assert_eq!(
        report_1.journal_jsonl, report_4.journal_jsonl,
        "journal with ledger + decision records must be byte-identical at any thread count"
    );
    assert_eq!(
        report_1.ledger_csv, report_4.ledger_csv,
        "ledger.csv must be byte-identical at any thread count"
    );
    // the campaign actually recorded attribution and decisions
    assert!(report_1.journal_jsonl.contains("\"type\":\"ledger\""));
    assert!(report_1.journal_jsonl.contains("\"type\":\"decision\""));
    let stats = vap_obs::validate_ledger_csv(&report_1.ledger_csv)
        .expect("exported ledger must re-validate");
    assert!(stats.tick_rows > 0 && stats.bin_rows > 0, "ledger must carry real rows");
    vap_obs::validate_journal(&report_1.journal_jsonl).expect("journal must validate");
}
