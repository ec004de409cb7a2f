//! `vap-report`: regenerate the paper's tables and figures by name.
//!
//! ```text
//! vap-report fig7 --modules 96
//! vap-report all --csv artifacts > results_full_scale.txt
//! ```
//!
//! The names are [`vap_report::registry::EXPERIMENTS`]'s, in any order;
//! `all` runs every one. Each experiment's CSV goes under `--csv DIR`, its
//! simulated schedule (if any) under `--trace-out DIR`, and its tables to
//! stdout. A failed write exits 1, a command-line error 2.

use vap_report::registry::{self, Context};

fn main() -> ! {
    vap_report::cli::run_main_with(registry::select, |opts, experiments| {
        let cx = Context::new(opts);
        for experiment in experiments {
            let out = (experiment.run)(&cx)?;
            if let Some((name, body)) = &out.csv {
                opts.maybe_write_csv(name, body)?;
            }
            if let Some((name, body)) = &out.trace {
                opts.maybe_write_trace(name, body)?;
            }
            println!("{}", out.text);
        }
        Ok(())
    })
}
