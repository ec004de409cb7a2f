//! The service loop: wire a sensor, the snapshot registry, and the
//! exporters together and run until the sensor finishes, a budget
//! expires, or a signal arrives.
//!
//! Thread layout: the **sensor runs on the caller's thread** (the main
//! thread in the binary, where the `vap_obs::Session` is installed, so
//! the journal sees the campaign), while each exporter gets one scoped
//! thread borrowing the registry. The registry is the only shared state,
//! and a scraper holds its lock only to copy a pointer — which is why
//! the journal written by a daemon run is byte-identical whether 0 or
//! 200 scrapers are attached (`tests/determinism.rs` holds this to
//! `cmp`-level equality).

use crate::clock::{Deadline, Pacer, Stopwatch};
use crate::config::{DaemonConfig, Mode};
use crate::exporters::{serve_json, serve_prometheus, serve_stdout};
use crate::http;
use crate::sensors::{CapSweepSensor, SchedCampaign};
use crate::signal::{self, ShutdownFlag};
use crate::DaemonError;
use std::net::TcpListener;
use std::ops::ControlFlow;
use vap_obs::SnapshotRegistry;
use vap_report::options::RunOptions;
use vap_scenario::{Scenario, ScenarioRuntime};

/// Default fleet size when `--modules` is not given: big enough to show
/// fleet-level variation spread, small enough to tick fast.
const DEFAULT_MODULES: usize = 96;

/// A bound-but-not-yet-running daemon: listeners are open (so ephemeral
/// ports can be reported before the first tick) and the shutdown flag
/// exists (so tests and supervisors can stop a run they started).
pub struct Service {
    opts: RunOptions,
    cfg: DaemonConfig,
    registry: SnapshotRegistry,
    stop: ShutdownFlag,
    prometheus: TcpListener,
    json: TcpListener,
}

/// What a finished daemon run did, for the exit banner.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonSummary {
    /// The sensor mode that ran.
    pub mode: Mode,
    /// Snapshots published into the registry.
    pub published: u64,
    /// Simulated time reached (seconds).
    pub sim_time_s: f64,
    /// Snapshots the registry handed to exporters and scrapers: one per
    /// scrape, per streamed line and per stdout summary check.
    pub registry_reads: u64,
    /// Wall-clock run time (seconds).
    pub wall_s: f64,
    /// Jobs completed, when the sensor was a scheduling campaign.
    pub completed_jobs: Option<usize>,
}

impl std::fmt::Display for DaemonSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = match self.mode {
            Mode::Sweep => "sweep",
            Mode::Sched => "sched",
        };
        write!(
            f,
            "vap-daemon ({mode}): published {} snapshots to {:.1} simulated s \
             in {:.2} wall s; served {} registry reads",
            self.published, self.sim_time_s, self.wall_s, self.registry_reads
        )?;
        if let Some(jobs) = self.completed_jobs {
            write!(f, "; {jobs} jobs completed")?;
        }
        Ok(())
    }
}

/// Bind `port` on localhost (0 picks an ephemeral port).
fn bind_local(port: u16, exporter: &str) -> Result<TcpListener, DaemonError> {
    TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| DaemonError::io(format!("bind {exporter} exporter :{port}"), e))
}

impl Service {
    /// Open the exporters' listeners. Nothing is simulated yet.
    pub fn bind(opts: &RunOptions, cfg: &DaemonConfig) -> Result<Self, DaemonError> {
        Ok(Service {
            opts: opts.clone(),
            cfg: cfg.clone(),
            registry: SnapshotRegistry::new(),
            stop: ShutdownFlag::new(),
            prometheus: bind_local(cfg.prom_port, "prometheus")?,
            json: bind_local(cfg.json_port, "json")?,
        })
    }

    /// Address of the Prometheus HTTP endpoint.
    pub fn prom_addr(&self) -> Result<std::net::SocketAddr, DaemonError> {
        self.prometheus.local_addr().map_err(|e| DaemonError::io("prometheus local_addr", e))
    }

    /// Address of the streaming JSON endpoint.
    pub fn json_addr(&self) -> Result<std::net::SocketAddr, DaemonError> {
        self.json.local_addr().map_err(|e| DaemonError::io("json local_addr", e))
    }

    /// A handle that stops this service when raised (tests, embedders).
    pub fn stop_flag(&self) -> ShutdownFlag {
        self.stop.clone()
    }

    /// Run to completion: installs SIGTERM/SIGINT handlers, serves until
    /// the sensor finishes or a budget/signal stops the run, then joins
    /// every exporter before returning the summary.
    pub fn run(self) -> Result<DaemonSummary, DaemonError> {
        let Service { opts, cfg, registry, stop, prometheus, json } = self;
        signal::install_handlers();
        let watch = Stopwatch::start();

        let outcome = std::thread::scope(|scope| {
            let (registry, stop) = (&registry, &stop);
            let mut exporters = vec![
                ("prometheus", scope.spawn(|| serve_prometheus(&prometheus, registry, stop))),
                ("json", scope.spawn(|| serve_json(&json, registry, stop))),
            ];
            if cfg.stdout_every > 0 {
                exporters
                    .push(("stdout", scope.spawn(|| serve_stdout(registry, cfg.stdout_every))));
            }

            let outcome = drive_sensor(&opts, &cfg, registry, stop);
            // Sensor is done (or failed): release the exporters (closing
            // the registry ends every stream, a connection of our own
            // wakes each accept loop) and wait for in-flight clients.
            stop.raise();
            registry.close();
            http::wake(&prometheus);
            http::wake(&json);
            for (name, handle) in exporters {
                handle
                    .join()
                    .map_err(|_| DaemonError::msg(format!("{name} exporter: thread panicked")))?;
            }
            outcome
        })?;

        Ok(DaemonSummary {
            mode: cfg.mode,
            published: outcome.published,
            sim_time_s: outcome.sim_time_s,
            registry_reads: registry.read_count(),
            wall_s: watch.elapsed_s(),
            completed_jobs: outcome.completed_jobs,
        })
    }
}

/// What the sensor side reports back to the summary.
struct SensorOutcome {
    published: u64,
    sim_time_s: f64,
    completed_jobs: Option<usize>,
}

/// Step the configured sensor on the current thread, publishing every
/// snapshot, until it finishes or a stop condition fires.
fn drive_sensor(
    opts: &RunOptions,
    cfg: &DaemonConfig,
    registry: &SnapshotRegistry,
    stop: &ShutdownFlag,
) -> Result<SensorOutcome, DaemonError> {
    let mut pacer = Pacer::new(cfg.accel);
    let deadline = Deadline::start(cfg.duration_s);
    let mut published = 0u64;
    let mut sim_time_s = 0.0f64;

    let completed_jobs = match cfg.mode {
        Mode::Sweep => {
            let n = opts.modules_or(DEFAULT_MODULES);
            let mut sensor = CapSweepSensor::new(n, opts.seed, cfg.ticks);
            if cfg.scenario != Scenario::Null {
                // Spread the schedule over the tick budget; an unbounded
                // run gets a one-hour horizon (the ladder repeats anyway).
                let horizon_s = if cfg.ticks > 0 { cfg.ticks as f64 } else { 3600.0 };
                sensor = sensor.with_scenario(ScenarioRuntime::new(
                    cfg.scenario,
                    n,
                    horizon_s,
                    opts.seed,
                ));
            }
            while !stop.raised() && !deadline.expired() {
                let Some(snap) = sensor.tick() else { break };
                sim_time_s = snap.sim_time_s;
                registry.publish(snap);
                published += 1;
                pacer.pace(sim_time_s)?;
            }
            None
        }
        Mode::Sched => {
            let campaign = SchedCampaign::with_scenario(opts, cfg.scenario);
            let mut pacing = Ok(());
            let report = campaign.run(|snap| {
                let budget_spent = cfg.ticks > 0 && published >= cfg.ticks;
                if stop.raised() || deadline.expired() || budget_spent {
                    return ControlFlow::Break(());
                }
                sim_time_s = snap.sim_time_s;
                registry.publish(snap);
                published += 1;
                pacing = pacer.pace(sim_time_s);
                if pacing.is_err() {
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            });
            pacing?;
            Some(report.completed_count())
        }
    };

    Ok(SensorOutcome { published, sim_time_s, completed_jobs })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`Service::bind`] + [`Service::run`] in one call.
    fn run(opts: &RunOptions, cfg: &DaemonConfig) -> Result<DaemonSummary, DaemonError> {
        Service::bind(opts, cfg)?.run()
    }

    fn opts(modules: usize) -> RunOptions {
        RunOptions { modules: Some(modules), threads: Some(1), ..RunOptions::default() }
    }

    fn cfg(mode: Mode, ticks: u64) -> DaemonConfig {
        DaemonConfig { mode, prom_port: 0, json_port: 0, ticks, ..DaemonConfig::default() }
    }

    #[test]
    fn sweep_run_honours_the_tick_budget() {
        let summary = run(&opts(4), &cfg(Mode::Sweep, 25)).unwrap();
        assert_eq!(summary.mode, Mode::Sweep);
        assert_eq!(summary.published, 25);
        assert_eq!(summary.sim_time_s, 25.0);
        assert_eq!(summary.completed_jobs, None);
        assert!(summary.to_string().contains("published 25 snapshots"));
    }

    #[test]
    fn sched_run_finishes_the_trace() {
        let options = RunOptions { scale: 0.05, ..opts(16) };
        let summary = run(&options, &cfg(Mode::Sched, 0)).unwrap();
        assert_eq!(summary.mode, Mode::Sched);
        assert!(summary.published > 0);
        assert!(summary.completed_jobs.unwrap() > 0);
        assert!(summary.to_string().contains("jobs completed"));
    }

    #[test]
    fn scenario_flag_reaches_both_sensor_modes() {
        let sweep = DaemonConfig { scenario: Scenario::Heatwave, ..cfg(Mode::Sweep, 40) };
        let summary = run(&opts(4), &sweep).unwrap();
        assert_eq!(summary.published, 40, "a perturbed sweep still honours its tick budget");

        let sched = DaemonConfig { scenario: Scenario::Mixed, ..cfg(Mode::Sched, 0) };
        let options = RunOptions { scale: 0.05, ..opts(16) };
        let summary = run(&options, &sched).unwrap();
        assert!(summary.published > 0, "a perturbed campaign still publishes");
    }

    #[test]
    fn an_unpaceable_run_ends_with_an_error_not_a_hang() {
        for mode in [Mode::Sweep, Mode::Sched] {
            let tiny = DaemonConfig { accel: 1e-300, ..cfg(mode, 3) };
            let options = RunOptions { scale: 0.05, ..opts(4) };
            let err = run(&options, &tiny).unwrap_err();
            assert!(err.to_string().contains("--accel"), "{mode:?}: {err}");
        }
    }

    #[test]
    fn stop_flag_ends_an_unbounded_run() {
        let service = Service::bind(&opts(2), &cfg(Mode::Sweep, 0)).unwrap();
        assert!(service.prom_addr().unwrap().port() > 0);
        assert!(service.json_addr().unwrap().port() > 0);
        let stop = service.stop_flag();
        let stopper = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(150));
            stop.raise();
        });
        let summary = service.run().unwrap();
        stopper.join().unwrap();
        assert!(summary.published > 0, "an unbounded free-run publishes until stopped");
    }
}
