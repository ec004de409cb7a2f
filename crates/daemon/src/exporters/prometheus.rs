//! Prometheus text-format exporter: `GET /metrics` over the hand-rolled
//! HTTP server, rendering the latest snapshot in the
//! [exposition format](https://prometheus.io/docs/instrumenting/exposition_formats/)
//! (text version 0.0.4 — `# HELP` / `# TYPE` lines plus labelled
//! samples). Scalar metrics are gauges (the snapshot is a point-in-time
//! view, not a counter stream); the snapshot's log-linear histograms are
//! rendered as real `histogram` families with cumulative
//! `_bucket{le=...}` / `_sum` / `_count` samples. `GET /alerts` serves
//! the snapshot's drift alerts as JSON.

use crate::http::{self, Request, Response};
use crate::signal::ShutdownFlag;
use std::fmt::Write as _;
use std::net::TcpListener;
use vap_obs::json::ObjectWriter;
use vap_obs::{SnapshotRegistry, TelemetrySnapshot};

/// Serve `GET /metrics`, `GET /alerts` and a small index page on `/`
/// over HTTP on `listener` until `stop` is raised and the accept loop is
/// woken.
pub fn serve_prometheus(listener: &TcpListener, registry: &SnapshotRegistry, stop: &ShutdownFlag) {
    http::serve(listener, stop, |req: &Request| match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => {
            Response::ok("text/plain; version=0.0.4", render_prometheus(&registry.read()))
        }
        ("GET", "/alerts") => {
            Response::ok("application/json", render_alerts_json(&registry.read()))
        }
        ("GET", "/") => Response::ok(
            "text/plain",
            "vap-daemon: live telemetry for the simulated fleet\n\
             GET /metrics — Prometheus text format\n\
             GET /alerts — drift alerts as JSON\n"
                .to_string(),
        ),
        (_, path) => Response::not_found(path),
    });
}

fn gauge_header(out: &mut String, name: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
}

/// Render one snapshot in the Prometheus text exposition format.
pub fn render_prometheus(snap: &TelemetrySnapshot) -> String {
    // ~200 bytes of header lines per family plus ~40 per sample.
    let mut out = String::with_capacity(2048 + 256 * snap.modules.len());

    gauge_header(&mut out, "vap_snapshot_epoch", "Publish sequence number of this snapshot.");
    let _ = writeln!(out, "vap_snapshot_epoch {}", snap.epoch);

    gauge_header(&mut out, "vap_sim_time_seconds", "Simulated time of this snapshot.");
    let _ = writeln!(out, "vap_sim_time_seconds {}", snap.sim_time_s);

    gauge_header(&mut out, "vap_cluster_power_watts", "Fleet-level power draw.");
    let _ = writeln!(out, "vap_cluster_power_watts {}", snap.total_power_w);

    gauge_header(
        &mut out,
        "vap_cluster_cap_watts",
        "Cluster-level power cap in effect (0 when uncapped).",
    );
    let _ = writeln!(out, "vap_cluster_cap_watts {}", snap.cap_w);

    gauge_header(&mut out, "vap_jobs_running", "Jobs currently running.");
    let _ = writeln!(out, "vap_jobs_running {}", snap.running_jobs);

    gauge_header(&mut out, "vap_jobs_queued", "Jobs currently queued.");
    let _ = writeln!(out, "vap_jobs_queued {}", snap.queued_jobs);

    gauge_header(&mut out, "vap_module_power_watts", "Per-module power draw.");
    for m in &snap.modules {
        let _ = writeln!(out, "vap_module_power_watts{{module=\"{}\"}} {}", m.id, m.power_w);
    }

    gauge_header(&mut out, "vap_module_freq_ghz", "Per-module effective frequency.");
    for m in &snap.modules {
        let _ = writeln!(out, "vap_module_freq_ghz{{module=\"{}\"}} {}", m.id, m.freq_ghz);
    }

    gauge_header(
        &mut out,
        "vap_module_cap_watts",
        "Per-module RAPL cap; absent when the module is uncapped.",
    );
    for m in &snap.modules {
        if let Some(cap) = m.cap_w {
            let _ = writeln!(out, "vap_module_cap_watts{{module=\"{}\"}} {}", m.id, cap);
        }
    }

    gauge_header(&mut out, "vap_module_duty", "Per-module clock-modulation run fraction.");
    for m in &snap.modules {
        let _ = writeln!(out, "vap_module_duty{{module=\"{}\"}} {}", m.id, m.duty);
    }

    gauge_header(
        &mut out,
        "vap_module_throttled",
        "1 when RAPL is actively limiting the module, else 0.",
    );
    for m in &snap.modules {
        let _ =
            writeln!(out, "vap_module_throttled{{module=\"{}\"}} {}", m.id, u8::from(m.throttled));
    }

    gauge_header(
        &mut out,
        "vap_drift_alerts_total",
        "Drift alerts raised over the producer's lifetime.",
    );
    let _ = writeln!(out, "vap_drift_alerts_total {}", snap.drift_alerts);

    for h in &snap.hists {
        let name = format!("vap_{}", h.name);
        let _ = writeln!(out, "# HELP {name} Log-linear histogram published by the producer.");
        let _ = writeln!(out, "# TYPE {name} histogram");
        // Snapshot buckets are per-bucket counts; Prometheus `le` buckets
        // are cumulative.
        let mut cumulative = 0u64;
        for &vap_obs::BucketCount(le, n) in &h.buckets {
            cumulative += n;
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
    }

    out
}

/// Render the snapshot's drift state as one line of JSON, written through
/// the same [`vap_obs::json`] primitives as the ndjson stream.
pub fn render_alerts_json(snap: &TelemetrySnapshot) -> String {
    let mut out = String::with_capacity(128 + 64 * snap.alerts.len());
    let mut o = ObjectWriter::new(&mut out);
    o.field("epoch", &snap.epoch)
        .field("sim_time_s", &snap.sim_time_s)
        .field("drift_alerts", &snap.drift_alerts)
        .field("alerts", &snap.alerts);
    o.end();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_obs::{BucketCount, DriftAlertSample, HistogramSample, ModuleSample};

    fn snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            sim_time_s: 30.0,
            total_power_w: 150.5,
            cap_w: 160.0,
            running_jobs: 2,
            queued_jobs: 5,
            drift_alerts: 3,
            alerts: vec![DriftAlertSample { module: 1, residual_w: 4.5, z: 5.25 }],
            hists: vec![HistogramSample {
                name: "sched_jct_s".to_string(),
                count: 6,
                sum: 31.5,
                buckets: vec![BucketCount(4.0, 2), BucketCount(8.0, 3), BucketCount(16.0, 1)],
            }],
            modules: vec![
                ModuleSample {
                    id: 0,
                    power_w: 80.25,
                    freq_ghz: 2.4,
                    cap_w: Some(80.0),
                    duty: 0.75,
                    throttled: true,
                },
                ModuleSample {
                    id: 1,
                    power_w: 70.25,
                    freq_ghz: 3.1,
                    cap_w: None,
                    duty: 1.0,
                    throttled: false,
                },
            ],
            ..TelemetrySnapshot::default()
        }
        .seal(9)
    }

    #[test]
    fn renders_cluster_and_module_gauges() {
        let text = render_prometheus(&snapshot());
        assert!(text.contains("# TYPE vap_cluster_power_watts gauge"));
        assert!(text.contains("vap_snapshot_epoch 9\n"));
        assert!(text.contains("vap_sim_time_seconds 30\n"));
        assert!(text.contains("vap_cluster_power_watts 150.5\n"));
        assert!(text.contains("vap_jobs_running 2\n"));
        assert!(text.contains("vap_jobs_queued 5\n"));
        assert!(text.contains("vap_module_power_watts{module=\"0\"} 80.25\n"));
        assert!(text.contains("vap_module_freq_ghz{module=\"1\"} 3.1\n"));
        assert!(text.contains("vap_module_duty{module=\"0\"} 0.75\n"));
        assert!(text.contains("vap_module_throttled{module=\"0\"} 1\n"));
        assert!(text.contains("vap_module_throttled{module=\"1\"} 0\n"));
        // uncapped module 1 must have no cap sample; capped module 0 must
        assert!(text.contains("vap_module_cap_watts{module=\"0\"} 80\n"));
        assert!(!text.contains("vap_module_cap_watts{module=\"1\"}"));
        assert!(text.contains("vap_drift_alerts_total 3\n"));
    }

    #[test]
    fn histograms_render_cumulative_prometheus_buckets() {
        let text = render_prometheus(&snapshot());
        assert!(text.contains("# TYPE vap_sched_jct_s histogram"));
        // per-bucket counts 2/3/1 become cumulative 2/5/6
        assert!(text.contains("vap_sched_jct_s_bucket{le=\"4\"} 2\n"));
        assert!(text.contains("vap_sched_jct_s_bucket{le=\"8\"} 5\n"));
        assert!(text.contains("vap_sched_jct_s_bucket{le=\"16\"} 6\n"));
        assert!(text.contains("vap_sched_jct_s_bucket{le=\"+Inf\"} 6\n"));
        assert!(text.contains("vap_sched_jct_s_sum 31.5\n"));
        assert!(text.contains("vap_sched_jct_s_count 6\n"));
    }

    #[test]
    fn every_sample_line_has_help_and_type() {
        let text = render_prometheus(&snapshot());
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let sample = line.split(['{', ' ']).next().unwrap();
            // histogram samples carry the family's _bucket/_sum/_count suffix
            let name = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| sample.strip_suffix(s))
                .unwrap_or(sample);
            assert!(text.contains(&format!("# HELP {name} ")), "missing HELP for {name}");
            let typed = text.contains(&format!("# TYPE {name} gauge"))
                || text.contains(&format!("# TYPE {name} histogram"));
            assert!(typed, "missing TYPE for {name}");
        }
    }

    #[test]
    fn alerts_json_is_parseable_and_complete() {
        let text = render_alerts_json(&snapshot());
        assert!(text.starts_with('{') && text.ends_with("}\n"));
        assert!(text.contains("\"drift_alerts\":3"));
        assert!(text.contains("\"alerts\":[{\"module\":1,\"residual_w\":4.5,\"z\":5.25}]"));
        // an alert-free snapshot renders an empty array, not a null
        let quiet = TelemetrySnapshot::default().seal(1);
        assert!(render_alerts_json(&quiet).contains("\"alerts\":[]"));
        // the body parses, and a non-finite residual is a JSON null
        let mut odd = snapshot();
        odd.alerts[0].residual_w = f64::NAN;
        let body = render_alerts_json(&odd.seal(2));
        let v = vap_obs::json::parse(&body).expect("valid JSON");
        assert!(body.contains("\"residual_w\":null"), "{body}");
        assert_eq!(v.get("epoch"), Some(&vap_obs::json::Value::from(2u64)));
    }
}
