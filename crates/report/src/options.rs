//! Shared command-line options for `vap-report` and `vap-daemon`.

use std::path::Path;

/// The largest fleet `--modules` accepts: the 1M-module construction and
/// PVT sweep are the largest fleets any recorded run builds.
pub const MAX_MODULES: usize = 1_000_000;

/// The shared flags, as printed by `--help`.
pub const USAGE: &str = "[--modules N] [--seed S] [--scale X] [--csv DIR] [--threads N] \
                         [--trace-out DIR] [--metrics] [--ledger]";

/// Options every experiment understands, shared with `vap-daemon`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Fleet size; `None` means the paper's scale for the experiment.
    pub modules: Option<usize>,
    /// Campaign seed (fleet manufacturing + measurements).
    pub seed: u64,
    /// Workload duration multiplier (1.0 = paper-scale programs).
    pub scale: f64,
    /// Directory to write raw per-figure CSV series into (`--csv DIR`);
    /// `None` prints tables only.
    pub csv_dir: Option<std::path::PathBuf>,
    /// Worker threads for campaign grids and fleet sweeps (`--threads N`);
    /// `None` means available parallelism, `1` runs serially. Results are
    /// identical at any thread count.
    pub threads: Option<usize>,
    /// Directory to write observability artifacts into (`--trace-out DIR`):
    /// a deterministic `journal.jsonl`, a `metrics.csv`, and a Chrome
    /// trace-event `trace.json` (load it in Perfetto / `chrome://tracing`).
    pub trace_out: Option<std::path::PathBuf>,
    /// Print a metrics summary after the run (`--metrics`). Either this or
    /// `trace_out` turns the recorder on; with both off, instrumentation is
    /// a single relaxed atomic load per site.
    pub metrics: bool,
    /// Record the per-tick watt-provenance ledger (`--ledger`): every
    /// tick's budget attributed to `(job, module, domain)` bins, exported
    /// as `ledger.csv` plus journal records. Implies the recorder is on;
    /// without the flag the ledger closures never run (zero allocation,
    /// one relaxed atomic load per tick site).
    pub ledger: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            modules: None,
            seed: 2015,
            scale: 1.0,
            csv_dir: None,
            threads: None,
            trace_out: None,
            metrics: false,
            ledger: false,
        }
    }
}

impl RunOptions {
    /// Parse the shared flags (`--modules N --seed S --scale X`, ...) from
    /// an argument iterator. Tokens this parser does not recognize are
    /// collected (in order) instead of rejected, so a binary with its own
    /// arguments — `vap-report`'s experiment names,
    /// `vap-daemon`'s ports, modes and pacing — can layer its own parser
    /// on top of the shared one. `--help` is passed on too: the last
    /// parser in the chain knows the whole usage.
    pub fn parse_partial(
        args: impl Iterator<Item = String>,
    ) -> Result<(Self, Vec<String>), String> {
        let mut opts = RunOptions::default();
        let mut extras = Vec::new();
        let mut it = args.peekable();
        while let Some(flag) = it.next() {
            let mut take = |name: &str| -> Result<String, String> {
                it.next().ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--modules" => {
                    let n: usize =
                        take("--modules")?.parse().map_err(|e| format!("--modules: {e}"))?;
                    if n == 0 {
                        return Err("--modules must be at least 1".into());
                    }
                    if n > MAX_MODULES {
                        return Err(format!("--modules must be at most {MAX_MODULES}"));
                    }
                    opts.modules = Some(n);
                }
                "--seed" => {
                    opts.seed = take("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--scale" => {
                    opts.scale = take("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?;
                    if !(opts.scale.is_finite() && opts.scale > 0.0) {
                        return Err("--scale must be a positive finite number".into());
                    }
                }
                "--csv" => {
                    opts.csv_dir = Some(std::path::PathBuf::from(take("--csv")?));
                }
                "--threads" => {
                    let n: usize =
                        take("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    opts.threads = Some(n);
                }
                "--trace-out" => {
                    opts.trace_out = Some(std::path::PathBuf::from(take("--trace-out")?));
                }
                "--metrics" => {
                    opts.metrics = true;
                }
                "--ledger" => {
                    opts.ledger = true;
                }
                _ => extras.push(flag),
            }
        }
        Ok((opts, extras))
    }

    /// Fleet size to use given the experiment's paper-scale default.
    pub fn modules_or(&self, default: usize) -> usize {
        self.modules.unwrap_or(default)
    }

    /// Worker thread count: the `--threads` request, or the machine's
    /// available parallelism when unset.
    pub fn threads(&self) -> usize {
        vap_exec::resolve_threads(self.threads)
    }

    /// If `--csv DIR` was given, write `content` to `DIR/name` (creating
    /// the directory) and report the path on stdout.
    ///
    /// # Errors
    ///
    /// A failed write, naming the path.
    pub fn maybe_write_csv(&self, name: &str, content: &str) -> std::io::Result<()> {
        write_into(self.csv_dir.as_deref(), name, content)
    }

    /// [`maybe_write_csv`](Self::maybe_write_csv) for `--trace-out DIR`.
    ///
    /// # Errors
    ///
    /// A failed write, naming the path.
    pub fn maybe_write_trace(&self, name: &str, content: &str) -> std::io::Result<()> {
        write_into(self.trace_out.as_deref(), name, content)
    }
}

fn write_into(dir: Option<&Path>, name: &str, content: &str) -> std::io::Result<()> {
    let Some(dir) = dir else { return Ok(()) };
    let path = dir.join(name);
    std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, content)).map_err(|e| {
        std::io::Error::new(e.kind(), format!("could not write {}: {e}", path.display()))
    })?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shared flags alone: any token they leave over is an error.
    fn parse(args: &[&str]) -> Result<RunOptions, String> {
        let (opts, extras) = RunOptions::parse_partial(args.iter().map(|s| s.to_string()))?;
        match extras.first() {
            Some(token) => Err(format!("unknown flag {token}")),
            None => Ok(opts),
        }
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o, RunOptions::default());
        assert_eq!(o.modules_or(1920), 1920);
    }

    #[test]
    fn flags_parse() {
        let o = parse(&["--modules", "64", "--seed", "7", "--scale", "0.1"]).unwrap();
        assert_eq!(o.modules, Some(64));
        assert_eq!(o.seed, 7);
        assert_eq!(o.scale, 0.1);
        assert_eq!(o.modules_or(1920), 64);
        assert!(o.csv_dir.is_none());
        let o = parse(&["--csv", "/tmp/out"]).unwrap();
        assert_eq!(o.csv_dir.as_deref(), Some(std::path::Path::new("/tmp/out")));
    }

    #[test]
    fn threads_flag_parses_and_resolves() {
        let o = parse(&["--threads", "4"]).unwrap();
        assert_eq!(o.threads, Some(4));
        assert_eq!(o.threads(), 4);
        // unset: whatever the machine has, but always at least one
        assert!(parse(&[]).unwrap().threads() >= 1);
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "x"]).is_err());
    }

    #[test]
    fn observability_flags_parse() {
        let o = parse(&["--trace-out", "/tmp/obs", "--metrics", "--ledger"]).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some(std::path::Path::new("/tmp/obs")));
        assert!(o.metrics);
        assert!(o.ledger);
        let o = parse(&[]).unwrap();
        assert!(o.trace_out.is_none());
        assert!(!o.metrics);
        assert!(!o.ledger, "the ledger is opt-in");
        assert!(parse(&["--trace-out"]).is_err());
    }

    #[test]
    fn degenerate_sizes_are_refused() {
        // an empty fleet has nothing to sweep or rank
        assert_eq!(parse(&["--modules", "0"]).unwrap_err(), "--modules must be at least 1");
        assert_eq!(parse(&["--modules", "1"]).unwrap().modules, Some(1));
        // the workload duration multiplier must be a usable length of time
        for bad in ["nan", "NaN", "inf", "-inf", "infinity", "-0.5", "0", "-0"] {
            let err = parse(&["--scale", bad]).unwrap_err();
            assert!(err.contains("--scale"), "--scale {bad}: {err}");
        }
        assert_eq!(parse(&["--scale", "1e-3"]).unwrap().scale, 1e-3);
    }

    #[test]
    fn csv_writing_is_silent_without_the_flag() {
        assert!(RunOptions::default().maybe_write_csv("x.csv", "a,b\n").is_ok());
        assert!(RunOptions::default().maybe_write_trace("x.json", "{}").is_ok());
    }

    #[test]
    fn an_unwritable_csv_is_an_error_naming_the_path() {
        // a directory cannot be made under a regular file
        let file = std::env::temp_dir().join(format!("vap-csv-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let opts = RunOptions { csv_dir: Some(file.join("out")), ..RunOptions::default() };
        let err = opts.maybe_write_csv("table4.csv", "a,b\n").unwrap_err();
        std::fs::remove_file(&file).unwrap();
        let path = file.join("out").join("table4.csv");
        assert!(err.to_string().contains(&path.display().to_string()), "{err}");
    }

    #[test]
    fn fleets_beyond_the_largest_recorded_one_are_refused() {
        let max = MAX_MODULES.to_string();
        assert_eq!(parse(&["--modules", &max]).unwrap().modules, Some(MAX_MODULES));
        let over = (MAX_MODULES + 1).to_string();
        assert_eq!(parse(&["--modules", &over]).unwrap_err(), "--modules must be at most 1000000");
        assert!(parse(&["--modules", "18446744073709551615"]).is_err());
        assert!(parse(&["--modules", "18446744073709551616"]).is_err());
    }

    #[test]
    fn hostile_argument_lists_parse_to_documented_ranges_or_fail() {
        let flags = [
            "--modules",
            "--seed",
            "--scale",
            "--csv",
            "--threads",
            "--trace-out",
            "--metrics",
            "--ledger",
            "--help",
            "-h",
        ];
        vap_model::rng::check("parse_partial", 0x0b75, crate::cli::HOSTILE_CASES, |rng| {
            let args = crate::cli::hostile_args(rng, &flags);
            if let Ok((o, _)) = RunOptions::parse_partial(args.into_iter()) {
                assert!(o.modules.is_none_or(|n| (1..=MAX_MODULES).contains(&n)), "{o:?}");
                assert!(o.scale.is_finite() && o.scale > 0.0, "{o:?}");
                assert!(o.threads.is_none_or(|n| n >= 1), "{o:?}");
            }
        });
    }

    #[test]
    fn partial_parse_collects_unknown_tokens_in_order() {
        let (o, extras) = RunOptions::parse_partial(
            ["--mode", "sweep", "--seed", "7", "--prom-port", "9500"].iter().map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(o.seed, 7);
        assert_eq!(extras, vec!["--mode", "sweep", "--prom-port", "9500"]);
        // shared-flag errors still abort even in partial mode
        assert!(RunOptions::parse_partial(["--seed".to_string()].into_iter()).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--modules"]).is_err());
        assert!(parse(&["--modules", "abc"]).is_err());
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }
}
