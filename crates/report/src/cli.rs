//! Shared entry point for `vap-report` and `vap-daemon`.
//!
//! [`run_main_with`] parses the common [`RunOptions`], hands the tokens
//! they do not cover to the binary's own parser (experiment names for
//! `vap-report`, ports and pacing for `vap-daemon`), installs a
//! [`vap_obs::Session`] when `--metrics`, `--trace-out` or `--ledger` asks
//! for one (the ledger flag arms the watt-provenance channel on top of the
//! session), runs the body, and exports the observability artifacts on
//! the way out.
//!
//! Exit codes are distinct by failure class so scripts can tell them
//! apart: `0` success, [`EXIT_RUNTIME`] (`1`) for a failure while running
//! or writing outputs, [`EXIT_USAGE`] (`2`) for a command-line problem.

use crate::options::RunOptions;
use std::error::Error;
use vap_model::rng::SplitMix64;

/// Exit code for runtime failures (the body returned an error, or an
/// output could not be written).
pub const EXIT_RUNTIME: i32 = 1;

/// Exit code for command-line errors (unknown flag, bad value, `--help`).
pub const EXIT_USAGE: i32 = 2;

/// The error type bodies report through [`run_main_with`].
pub type MainError = Box<dyn Error>;

/// Print `err` and its whole `source()` chain to stderr.
fn report_error(err: &(dyn Error + 'static)) {
    eprintln!("error: {err}");
    let mut source = err.source();
    while let Some(cause) = source {
        eprintln!("  caused by: {cause}");
        source = cause.source();
    }
}

/// Parse the standard options, hand the tokens `RunOptions` does not
/// recognize to `parse_extras`, run `body` with both, export
/// observability artifacts, and exit with a class-distinct code. Never
/// returns.
pub fn run_main_with<X>(
    parse_extras: impl FnOnce(Vec<String>) -> Result<X, String>,
    body: impl FnOnce(&RunOptions, X) -> Result<(), MainError>,
) -> ! {
    let (opts, extra) = match RunOptions::parse_partial(std::env::args().skip(1))
        .and_then(|(opts, extras)| Ok((opts, parse_extras(extras)?)))
    {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(EXIT_USAGE);
        }
    };

    let session = (opts.metrics || opts.trace_out.is_some() || opts.ledger).then(|| {
        if opts.ledger {
            vap_obs::Session::install_with_ledger()
        } else {
            vap_obs::Session::install()
        }
    });
    let outcome = body(&opts, extra);
    let export = session.map(vap_obs::Session::finish).map(|report| -> Result<(), MainError> {
        if let Some(dir) = &opts.trace_out {
            let written = report.write_to(dir).map_err(|e| -> MainError {
                Box::new(ExportError { dir: dir.display().to_string(), source: e })
            })?;
            for path in written {
                println!("wrote {}", path.display());
            }
        }
        // The per-cell metrics CSV also rides along with the figure CSVs
        // when only `--csv` output is in play.
        opts.maybe_write_csv("metrics.csv", &report.metrics_csv)?;
        if opts.metrics {
            println!("{}", report.summary);
        }
        Ok(())
    });

    for result in [outcome, export.unwrap_or(Ok(()))] {
        if let Err(e) = result {
            report_error(e.as_ref());
            std::process::exit(EXIT_RUNTIME);
        }
    }
    std::process::exit(0);
}

/// Failure to write `--trace-out` artifacts.
#[derive(Debug)]
struct ExportError {
    dir: String,
    source: std::io::Error,
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "could not write observability artifacts to {}", self.dir)
    }
}

impl Error for ExportError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.source)
    }
}

/// Seeded argument lists per parser in the hostile-input tests.
pub const HOSTILE_CASES: usize = 2_000;

/// Values no flag may turn into a panic, a hang or an out-of-range
/// setting: empty, negative, zero, non-finite and overflowing numbers, a
/// lone `--`, non-ASCII text, and the edges of the `--modules` and client
/// bounds.
const HOSTILE_VALUES: [&str; 16] = [
    "",
    "-1",
    "0",
    "nan",
    "inf",
    "1e309",
    "18446744073709551616",
    "--",
    "ünïcödé ✓ 電力",
    "1",
    "3",
    "0.02",
    "1024",
    "1025",
    "1000000",
    "1000001",
];

/// A seeded hostile argument list for a command-line parser's robustness
/// test: up to eight tokens, about half drawn from `flags` (the parser's
/// own) and the rest from the experiment names, `all`, a fixed set of
/// hostile values and a 10 KB string.
pub fn hostile_args(rng: &mut SplitMix64, flags: &[&str]) -> Vec<String> {
    let mut words: Vec<&str> = crate::registry::EXPERIMENTS.iter().map(|e| e.name).collect();
    words.push("all");
    words.extend(HOSTILE_VALUES);
    let len = rng.next_index(9);
    (0..len)
        .map(|_| {
            if rng.next_index(10) == 0 {
                return "9".repeat(10 * 1024);
            }
            let pool = if rng.next_index(2) == 0 && !flags.is_empty() { flags } else { &words };
            pool[rng.next_index(pool.len())].to_string()
        })
        .collect()
}
