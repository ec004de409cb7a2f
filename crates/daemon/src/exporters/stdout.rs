//! Stdout exporter: prints every Nth snapshot as a one-line summary —
//! the "just show me it's alive" exporter, scaphandre-style.

use std::io::Write;
use vap_obs::{SnapshotRegistry, TelemetrySnapshot};

/// One human-scannable line per printed snapshot.
fn summary_line(snap: &TelemetrySnapshot) -> String {
    let throttled = snap.modules.iter().filter(|m| m.throttled).count();
    format!(
        "epoch {:>6}  t={:>10.1}s  power {:>9.1} W  cap {:>8.1} W  jobs {}/{} run/queue  \
         throttled {}/{}",
        snap.epoch,
        snap.sim_time_s,
        snap.total_power_w,
        snap.cap_w,
        snap.running_jobs,
        snap.queued_jobs,
        throttled,
        snap.modules.len()
    )
}

/// Print a summary of every `every`-th epoch to stdout as it is
/// published, until the registry closes.
pub fn serve_stdout(registry: &SnapshotRegistry, every: u64) {
    let stdout = std::io::stdout();
    let mut epoch = 0;
    while let Some(snap) = registry.wait_newer(epoch) {
        epoch = snap.epoch;
        if epoch.is_multiple_of(every) {
            let _ = writeln!(stdout.lock(), "{}", summary_line(&snap));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_obs::ModuleSample;

    #[test]
    fn summary_counts_throttled_modules() {
        let snap = TelemetrySnapshot {
            sim_time_s: 42.0,
            total_power_w: 240.0,
            cap_w: 320.0,
            running_jobs: 4,
            queued_jobs: 2,
            modules: vec![
                ModuleSample {
                    id: 0,
                    power_w: 80.0,
                    freq_ghz: 2.4,
                    cap_w: Some(80.0),
                    duty: 0.5,
                    throttled: true,
                },
                ModuleSample {
                    id: 1,
                    power_w: 60.0,
                    freq_ghz: 2.8,
                    cap_w: None,
                    duty: 1.0,
                    throttled: false,
                },
            ],
            ..TelemetrySnapshot::default()
        }
        .seal(12);
        let line = summary_line(&snap);
        assert!(line.contains("epoch     12"), "{line}");
        assert!(line.contains("throttled 1/2"), "{line}");
        assert!(line.contains("jobs 4/2"), "{line}");
    }

    #[test]
    fn serve_returns_once_the_registry_closes() {
        let registry = SnapshotRegistry::new();
        registry.publish(TelemetrySnapshot::default());
        registry.close();
        // epoch 1 is not a multiple of 2, so the test prints nothing
        serve_stdout(&registry, 2);
    }
}
