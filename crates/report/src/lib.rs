//! # vap-report
//!
//! Experiment drivers and rendering for **every table and figure** in the
//! paper's evaluation, regenerable from the command line by name through
//! the one `vap-report` binary (`cargo run --release -p vap-report -- NAME`):
//!
//! | Paper item | Driver | Name |
//! |---|---|---|
//! | Table 1 (measurement techniques) | [`experiments::table1`] | `table1` |
//! | Table 2 (systems) | [`experiments::table2`] | `table2` |
//! | Fig. 1 (per-socket variation on Cab/Vulcan/Teller) | [`experiments::fig1`] | `fig1` |
//! | Fig. 2 (HA8K module power / frequency / time under caps) | [`experiments::fig2`] | `fig2` |
//! | Fig. 3 (MHD synchronization overhead) | [`experiments::fig3`] | `fig3` |
//! | Fig. 5 (power-vs-frequency linearity) | [`experiments::fig5`] | `fig5` |
//! | Fig. 6 (PMT calibration accuracy) | [`experiments::fig6`] | `fig6` |
//! | Table 4 (feasible constraint grid) | [`experiments::table4`] | `table4` |
//! | Fig. 7 (speedup over Naive) | [`experiments::fig7`] | `fig7` |
//! | Fig. 8 (VaFs detailed behaviour) | [`experiments::fig8`] | `fig8` |
//! | Fig. 9 (total power per scheme) | [`experiments::fig9`] | `fig9` |
//! | Ablations (variation sources, thermal, PVT choice) | [`experiments::ablations`] | `ablations` |
//! | §7 multi-tenant partitioning (extension) | [`experiments::multijob_study`] | `multijob` |
//! | §7 online power scheduling (extension) | [`experiments::sched_study`] | `schedstudy` |
//! | §7 stale-PVT drift & re-calibration (extension) | [`experiments::drift_study`] | `driftstudy` |
//!
//! [`registry::EXPERIMENTS`] is the one list of these names; `all` runs
//! every entry in order. The binary accepts `--modules N` (fleet size;
//! default the paper's scale), `--seed S`, `--scale X` (workload duration
//! multiplier) and `--csv DIR` (dump each figure's raw plottable series,
//! see [`csv`]) so the full 1,920-module campaign and quick laptop runs
//! share one code path. The observability flags `--trace-out DIR`
//! (deterministic `journal.jsonl`, per-cell `metrics.csv`,
//! Perfetto-loadable `trace.json`) and `--metrics` (summary on stdout)
//! record any run through [`cli::run_main_with`] without changing its
//! results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod csv;
pub mod experiments;
pub mod options;
pub mod registry;
pub mod render;

pub use options::RunOptions;
