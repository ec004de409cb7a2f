//! `daemon-loadgen`: a soak client for a running `vap-daemon`, a command
//! line over [`vap_daemon::soak`].
//!
//! Hammers the Prometheus endpoint with N scrape loops and holds M
//! streaming JSON connections for a wall-clock window, then prints the
//! soak report as JSON (or writes it to `--out`):
//!
//! ```text
//! vap-daemon --mode sweep --prom-port 9500 --json-port 9501 &
//! daemon-loadgen --prom 127.0.0.1:9500 --json 127.0.0.1:9501 \
//!     --prom-clients 8 --json-clients 4 --seconds 10 --out soak.json
//! ```
//!
//! Exit code 0 means every client did useful work and saw no protocol
//! errors; 1 means the soak failed.

use vap_daemon::soak::{soak, SoakConfig, SoakReport};
use vap_obs::json::ToJson;

struct Args {
    prom: String,
    json: String,
    soak: SoakConfig,
    out: Option<String>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            prom: "127.0.0.1:9500".to_string(),
            json: "127.0.0.1:9501".to_string(),
            soak: SoakConfig { prom_clients: 4, json_clients: 2, seconds: 10.0 },
            out: None,
        };
        let mut it = argv;
        while let Some(flag) = it.next() {
            let mut take = |name: &str| -> Result<String, String> {
                it.next().ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--prom" => args.prom = take("--prom")?,
                "--json" => args.json = take("--json")?,
                "--prom-clients" => {
                    args.soak.prom_clients =
                        take("--prom-clients")?.parse().map_err(|e| format!("--prom-clients: {e}"))?;
                }
                "--json-clients" => {
                    args.soak.json_clients =
                        take("--json-clients")?.parse().map_err(|e| format!("--json-clients: {e}"))?;
                }
                "--seconds" => {
                    let seconds: f64 =
                        take("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    // `NaN` and `inf` parse as f64, and a deadline of
                    // either never expires
                    if !(seconds.is_finite() && seconds > 0.0) {
                        return Err("--seconds must be a positive finite number".into());
                    }
                    args.soak.seconds = seconds;
                }
                "--out" => args.out = Some(take("--out")?),
                _ => {
                    return Err(format!(
                        "unknown flag {flag} (usage: [--prom A] [--json A] [--prom-clients N] \
                         [--json-clients N] [--seconds X] [--out PATH])"
                    ))
                }
            }
        }
        Ok(args)
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let report = soak(&args.prom, &args.json, &args.soak);
    let json = report.to_json() + "\n";
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {path}");
        }
        None => print!("{json}"),
    }

    if !report.passed(&args.soak) {
        let SoakReport { scrapes, json_lines, errors, .. } = report;
        eprintln!("soak failed: scrapes={scrapes} lines={json_lines} errors={errors}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn seconds_must_be_positive_and_finite() {
        assert_eq!(parse(&["--seconds", "2.5"]).unwrap().soak.seconds, 2.5);
        for bad in ["0", "-1", "NaN", "nan", "inf", "-inf", "infinity"] {
            let err = parse(&["--seconds", bad]).err().unwrap();
            assert!(err.contains("--seconds"), "--seconds {bad}: {err}");
        }
    }
}
