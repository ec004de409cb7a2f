//! Daemon-specific configuration, layered on top of the shared
//! [`vap_report::options::RunOptions`] via
//! [`RunOptions::parse_partial`](vap_report::options::RunOptions::parse_partial):
//! the shared parser keeps `--modules/--seed/--scale/...` and hands the
//! tokens it does not recognize to [`DaemonConfig::parse`].

use vap_scenario::Scenario;

/// What the sensor side of the daemon simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// A capped fleet running a fixed workload while the daemon walks the
    /// paper's cap ladder (95 W → 80 W → 68 W → uncapped, repeating).
    /// One tick = one simulated second.
    #[default]
    Sweep,
    /// A full scheduling campaign (the `sched_study` recipe): trace
    /// replay under a cluster-level power cap with variation-aware
    /// allocation. One tick = one scheduler event.
    Sched,
}

impl Mode {
    /// Parse `sweep` / `sched`.
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "sweep" => Ok(Mode::Sweep),
            "sched" => Ok(Mode::Sched),
            other => Err(format!("--mode must be `sweep` or `sched`, got `{other}`")),
        }
    }
}

/// Command-line configuration for the daemon's serving and pacing plane.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// What to simulate.
    pub mode: Mode,
    /// TCP port for the Prometheus HTTP exporter; 0 picks an ephemeral
    /// port (reported on startup).
    pub prom_port: u16,
    /// TCP port for the line-delimited JSON streaming exporter; 0 picks
    /// an ephemeral port.
    pub json_port: u16,
    /// Print every Nth snapshot to stdout; 0 disables the stdout
    /// exporter.
    pub stdout_every: u64,
    /// Virtual seconds advanced per wall-clock second; 0 free-runs as
    /// fast as the simulation can tick.
    pub accel: f64,
    /// Stop after this much wall-clock time (seconds); 0 runs until the
    /// tick budget, the sensor, or a signal stops the daemon.
    pub duration_s: f64,
    /// Stop after this many sensor ticks; 0 is unbounded (sweep mode
    /// never finishes on its own; sched mode stops when the trace ends).
    pub ticks: u64,
    /// Non-stationary scenario injected into the sensor (`null` keeps
    /// the fleet stationary — the byte-identical historical behavior).
    pub scenario: Scenario,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            mode: Mode::Sweep,
            prom_port: 9500,
            json_port: 9501,
            stdout_every: 0,
            accel: 0.0,
            duration_s: 0.0,
            ticks: 0,
            scenario: Scenario::Null,
        }
    }
}

/// The daemon's flag reference, appended to the shared usage line.
pub const USAGE: &str = "vap-daemon flags: [--mode sweep|sched] [--prom-port N] [--json-port N] \
                         [--stdout-every N] [--accel X] [--duration-s X] [--ticks N] \
                         [--scenario null|heatwave|aging|entropy|faults|shocks|churn|mixed]";

impl DaemonConfig {
    /// Parse the daemon's own flags from the tokens the shared parser
    /// left over. Unknown tokens are an error here — this is the last
    /// parser in the chain, so `--help` prints the shared flags and the
    /// daemon's own.
    pub fn parse(extras: Vec<String>) -> Result<Self, String> {
        let mut cfg = DaemonConfig::default();
        let mut it = extras.into_iter();
        while let Some(flag) = it.next() {
            let mut take = |name: &str| -> Result<String, String> {
                it.next().ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--mode" => cfg.mode = Mode::parse(&take("--mode")?)?,
                "--prom-port" => {
                    cfg.prom_port =
                        take("--prom-port")?.parse().map_err(|e| format!("--prom-port: {e}"))?;
                }
                "--json-port" => {
                    cfg.json_port =
                        take("--json-port")?.parse().map_err(|e| format!("--json-port: {e}"))?;
                }
                "--stdout-every" => {
                    cfg.stdout_every = take("--stdout-every")?
                        .parse()
                        .map_err(|e| format!("--stdout-every: {e}"))?;
                }
                "--accel" => {
                    cfg.accel = take("--accel")?.parse().map_err(|e| format!("--accel: {e}"))?;
                    if !(cfg.accel.is_finite() && cfg.accel >= 0.0) {
                        return Err("--accel must be a non-negative finite number".into());
                    }
                }
                "--duration-s" => {
                    cfg.duration_s =
                        take("--duration-s")?.parse().map_err(|e| format!("--duration-s: {e}"))?;
                    if !(cfg.duration_s.is_finite() && cfg.duration_s >= 0.0) {
                        return Err("--duration-s must be a non-negative finite number".into());
                    }
                }
                "--ticks" => {
                    cfg.ticks = take("--ticks")?.parse().map_err(|e| format!("--ticks: {e}"))?;
                }
                "--scenario" => {
                    let name = take("--scenario")?;
                    cfg.scenario = Scenario::parse(&name).ok_or_else(|| {
                        format!("--scenario: unknown scenario `{name}` ({USAGE})")
                    })?;
                }
                "--help" | "-h" => {
                    return Err(format!(
                        "usage: vap-daemon {}\n{USAGE}",
                        vap_report::options::USAGE
                    ))
                }
                _ => return Err(format!("unknown flag {flag} ({USAGE})")),
            }
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_model::rng::check;
    use vap_report::cli::{hostile_args, HOSTILE_CASES};

    fn parse(args: &[&str]) -> Result<DaemonConfig, String> {
        DaemonConfig::parse(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn defaults() {
        let cfg = parse(&[]).unwrap();
        assert_eq!(cfg, DaemonConfig::default());
        assert_eq!(cfg.mode, Mode::Sweep);
        assert_eq!(cfg.prom_port, 9500);
        assert_eq!(cfg.json_port, 9501);
        assert_eq!(cfg.scenario, Scenario::Null);
    }

    #[test]
    fn flags_parse() {
        let cfg = parse(&[
            "--mode",
            "sched",
            "--prom-port",
            "0",
            "--json-port",
            "0",
            "--stdout-every",
            "10",
            "--accel",
            "50",
            "--duration-s",
            "2.5",
            "--ticks",
            "400",
            "--scenario",
            "heatwave",
        ])
        .unwrap();
        assert_eq!(cfg.mode, Mode::Sched);
        assert_eq!(cfg.prom_port, 0);
        assert_eq!(cfg.json_port, 0);
        assert_eq!(cfg.stdout_every, 10);
        assert_eq!(cfg.accel, 50.0);
        assert_eq!(cfg.duration_s, 2.5);
        assert_eq!(cfg.ticks, 400);
        assert_eq!(cfg.scenario, Scenario::Heatwave);
    }

    #[test]
    fn every_scenario_name_parses() {
        for sc in Scenario::ALL {
            let cfg = parse(&["--scenario", sc.name()]).unwrap();
            assert_eq!(cfg.scenario, sc, "{sc}");
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--mode", "chaos"]).is_err());
        assert!(parse(&["--prom-port", "99999"]).is_err());
        assert!(parse(&["--accel", "-1"]).is_err());
        assert!(parse(&["--duration-s", "-0.5"]).is_err());
        for bad in ["nan", "inf", "-inf", "infinity"] {
            let err = parse(&["--accel", bad]).unwrap_err();
            assert!(err.contains("--accel"), "--accel {bad}: {err}");
            let err = parse(&["--duration-s", bad]).unwrap_err();
            assert!(err.contains("--duration-s"), "--duration-s {bad}: {err}");
        }
        // tiny but finite is a valid (if impractical) pace; the pacer
        // refuses it at run time instead of panicking
        assert_eq!(parse(&["--accel", "1e-300"]).unwrap().accel, 1e-300);
        assert!(parse(&["--ticks"]).is_err());
        assert!(parse(&["--scenario", "meteor"]).is_err());
        assert!(parse(&["--scenario"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn help_lists_the_shared_flags_and_the_daemons_own() {
        let (_, extras) =
            vap_report::RunOptions::parse_partial(["--help".to_string()].into_iter()).unwrap();
        let usage = DaemonConfig::parse(extras).unwrap_err();
        for flag in ["--modules", "--trace-out", "--mode", "--prom-port", "--scenario"] {
            assert!(usage.contains(flag), "{usage}");
        }
    }

    #[test]
    fn hostile_argument_lists_parse_to_documented_ranges_or_fail() {
        let flags = [
            "--mode",
            "sweep",
            "sched",
            "--prom-port",
            "--json-port",
            "--stdout-every",
            "--accel",
            "--duration-s",
            "--ticks",
            "--scenario",
            "heatwave",
            "--modules",
            "--help",
        ];
        check("daemon_config", 0xdae0, HOSTILE_CASES, |rng| {
            let args = hostile_args(rng, &flags);
            let parsed = vap_report::RunOptions::parse_partial(args.into_iter())
                .and_then(|(_, extras)| DaemonConfig::parse(extras));
            if let Ok(cfg) = parsed {
                assert!(cfg.accel.is_finite() && cfg.accel >= 0.0, "{cfg:?}");
                assert!(cfg.duration_s.is_finite() && cfg.duration_s >= 0.0, "{cfg:?}");
            }
        });
    }
}
