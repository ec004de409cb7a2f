//! The service plane's core guarantee: scrapers cannot perturb the
//! simulation. Exporters only ever *read* the snapshot registry, so the
//! published telemetry stream — and the `vap_obs` journal behind it —
//! is byte-for-byte identical whether 0 or 200 clients are attached.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use vap_daemon::config::Mode;
use vap_daemon::{DaemonConfig, Service};
use vap_obs::SnapshotRegistry;
use vap_report::RunOptions;

fn small_opts() -> RunOptions {
    RunOptions {
        modules: Some(12),
        seed: 2015,
        scale: 0.05,
        threads: Some(1),
        ..RunOptions::default()
    }
}

/// Replay the sched campaign, publishing into a registry while `readers`
/// threads hammer the read path; return the checksum stream and report.
fn campaign_stream(readers: usize) -> (Vec<u64>, vap_sched::SchedReport) {
    let registry = SnapshotRegistry::new();
    let done = AtomicBool::new(false);
    let mut checksums = Vec::new();
    let report = std::thread::scope(|scope| {
        for _ in 0..readers {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    let snap = registry.read();
                    assert!(snap.verify(), "reader observed a torn snapshot");
                }
            });
        }
        let campaign = vap_daemon::sensors::SchedCampaign::from_options(&small_opts());
        let report = campaign.run(|snap| {
            let epoch = registry.publish(snap);
            checksums.push(registry.read().checksum);
            assert_eq!(registry.epoch(), epoch);
            ControlFlow::Continue(())
        });
        done.store(true, Ordering::Relaxed);
        report
    });
    (checksums, report)
}

#[test]
fn campaign_stream_is_identical_with_and_without_readers() {
    let (quiet, quiet_report) = campaign_stream(0);
    let (loud, loud_report) = campaign_stream(8);
    assert!(!quiet.is_empty());
    assert_eq!(quiet, loud, "concurrent readers changed the published stream");
    assert_eq!(quiet_report, loud_report, "concurrent readers changed the schedule");
}

/// Run a bounded sweep service, optionally with scraper threads attached
/// to both exporters for the whole run, and return the exit summary.
fn sweep_summary(scrapers: usize) -> vap_daemon::DaemonSummary {
    let cfg = DaemonConfig {
        mode: Mode::Sweep,
        prom_port: 0,
        json_port: 0,
        ticks: 60,
        ..DaemonConfig::default()
    };
    let service = Service::bind(&small_opts(), &cfg).expect("bind on ephemeral ports");
    let prom = service.prom_addr().expect("prometheus address");
    let json = service.json_addr().expect("json address");
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for i in 0..scrapers {
            if i % 2 == 0 {
                scope.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        if let Ok(mut s) = TcpStream::connect(prom) {
                            let _ = write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
                            let mut out = String::new();
                            let _ = s.read_to_string(&mut out);
                        }
                    }
                });
            } else {
                scope.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        if let Ok(s) = TcpStream::connect(json) {
                            let _ = s.set_read_timeout(Some(std::time::Duration::from_millis(50)));
                            let mut line = String::new();
                            let _ = BufReader::new(s).read_line(&mut line);
                        }
                    }
                });
            }
        }
        let summary = service.run().expect("bounded run completes");
        done.store(true, Ordering::Relaxed);
        summary
    })
}

#[test]
fn sweep_outcome_is_independent_of_scraper_count() {
    let quiet = sweep_summary(0);
    let loud = sweep_summary(6);
    assert_eq!(quiet.published, 60);
    assert_eq!(quiet.published, loud.published);
    assert_eq!(quiet.sim_time_s, loud.sim_time_s);
    assert!(loud.registry_reads >= quiet.registry_reads, "scrapers add reads, nothing else");
}

/// End-to-end on the real binary: the `vap_obs` journal a daemon run
/// writes is byte-identical whether or not scrapers were attached.
#[test]
fn journal_is_byte_identical_under_scrape_load() {
    let dir = std::env::temp_dir().join(format!("vap-daemon-journal-{}", std::process::id()));
    let quiet_dir = dir.join("quiet");
    let loud_dir = dir.join("loud");

    let quiet = run_daemon_collecting_journal(&quiet_dir, 0);
    let loud = run_daemon_collecting_journal(&loud_dir, 200);
    assert!(!quiet.is_empty(), "daemon wrote an empty journal");
    assert_eq!(quiet, loud, "scrapers perturbed the daemon's journal");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Launch `vap-daemon` with `--trace-out`, attach `scrapers` concurrent
/// clients mid-run, wait for exit, and return the journal bytes.
fn run_daemon_collecting_journal(dir: &std::path::Path, scrapers: usize) -> Vec<u8> {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_vap-daemon"))
        .args([
            "--mode",
            "sweep",
            "--modules",
            "8",
            "--ticks",
            "90",
            "--accel",
            "60",
            "--prom-port",
            "0",
            "--json-port",
            "0",
            "--trace-out",
        ])
        .arg(dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn vap-daemon");

    // The banner's first two lines carry the ephemeral addresses.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let prom_line = lines.next().expect("banner line 1").expect("readable stdout");
    let json_line = lines.next().expect("banner line 2").expect("readable stdout");
    let prom = prom_line
        .split("http://")
        .nth(1)
        .and_then(|s| s.strip_suffix("/metrics"))
        .expect("prometheus address in banner")
        .to_string();
    let json = json_line.rsplit(' ').next().expect("json address in banner").to_string();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for i in 0..scrapers {
            let prom = &prom;
            let json = &json;
            let done = &done;
            scope.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    if i % 2 == 0 {
                        if let Ok(mut s) = TcpStream::connect(prom) {
                            let _ = write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
                            let mut out = String::new();
                            let _ = s.read_to_string(&mut out);
                        }
                    } else if let Ok(s) = TcpStream::connect(json) {
                        let _ = s.set_read_timeout(Some(std::time::Duration::from_millis(50)));
                        let mut line = String::new();
                        let _ = BufReader::new(s).read_line(&mut line);
                    }
                }
            });
        }
        // drain the rest of stdout so the child never blocks on a full pipe
        for line in lines.by_ref() {
            let _ = line;
        }
        let status = child.wait().expect("wait for vap-daemon");
        done.store(true, Ordering::Relaxed);
        assert!(status.success(), "vap-daemon exited with {status}");
    });

    std::fs::read(dir.join("journal.jsonl")).expect("daemon wrote journal.jsonl")
}
