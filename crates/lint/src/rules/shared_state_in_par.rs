//! `shared-state-in-par`: no mutable shared state or order-sensitive
//! reductions reachable from `vap-exec` worker closures.
//!
//! The deterministic fan-out in `vap-exec` (`par_map`, `par_grid`,
//! `par_map_fleet`) guarantees bit-identical campaign replays only as
//! long as worker closures are pure over their per-item inputs. Two
//! things break that silently:
//!
//! * **module state** in any crate whose code can run inside a worker —
//!   `static mut`, `thread_local!`, or a `static` with interior
//!   mutability (`Mutex`, `RwLock`, atomics, `RefCell`, `OnceLock`, …).
//!   Reachability comes from the symbol index: every crate with a
//!   non-test par call site, plus its transitive `vap-*` dependencies;
//! * **order-sensitive float reductions** written syntactically inside a
//!   par closure — `.sum::<f64>()` / `.product::<f64>()` or a `fold`
//!   seeded with a float accumulator. Float addition is not associative;
//!   if the iterated collection's order ever depends on thread timing,
//!   the reduced value drifts between replays.
//!
//! Deliberate, documented state (e.g. the `vap-obs` recorder's
//! process-wide counters) is `vap:allow`'d with a reason at the
//! definition site.

use super::{Context, Rule};
use crate::diag::Finding;
use crate::parse::{is_float_literal, StaticKind};
use crate::source::SourceFile;

/// The rule's name.
pub(crate) const NAME: &str = "shared-state-in-par";

const STATIC_HELP: &str = "thread state through per-item closure arguments (the par_* APIs \
                           reduce in index order) or move it behind an explicit campaign-scoped \
                           handle; vap:allow at the definition with a reason if the state is \
                           deliberately process-wide and race-safe";

const REDUCTION_HELP: &str = "reduce over a deterministically ordered collection (index order, \
                              as the par_* APIs hand back) or hoist the reduction out of the \
                              closure; vap:allow with a reason if the iteration order is \
                              provably fixed";

/// Type heads that give a `static` interior mutability.
const INTERIOR_MUTABLE: [&str; 11] = [
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "UnsafeCell",
    "OnceLock",
    "OnceCell",
    "LazyLock",
    "AtomicUsize",
    "AtomicU64",
    "AtomicBool",
];

/// The `shared-state-in-par` rule.
pub struct SharedStateInPar;

impl Rule for SharedStateInPar {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "no mutable statics in par-reachable crates, no order-sensitive float reductions in par closures"
    }

    fn check(&self, file: &SourceFile, ctx: &Context<'_>, out: &mut Vec<Finding>) {
        // mutable module state in crates reachable from worker closures
        if ctx.index.par_crates.contains(&file.crate_name) {
            for item in &file.parsed.statics {
                if file.is_test(item.line()) {
                    continue;
                }
                let ty = file.parsed.text(&item.ty);
                let mutable = match item.kind {
                    StaticKind::StaticMut | StaticKind::ThreadLocal => true,
                    StaticKind::Static => {
                        INTERIOR_MUTABLE.iter().any(|t| ty.starts_with(t) || ty.contains("Atomic"))
                    }
                };
                if !mutable {
                    continue; // a plain immutable static cannot race
                }
                let message = format!(
                    "{} `{}: {}` lives in `{}`, which is reachable from vap-exec worker closures",
                    item.kind.label(),
                    file.parsed.text(&item.name),
                    ty,
                    file.crate_name,
                );
                out.push(file.finding(NAME, item.line(), 0, message, STATIC_HELP));
            }
        }
        // order-sensitive float reductions inside par closures
        let parsed = &file.parsed;
        let par_extents: Vec<(usize, usize)> = (parsed.calls.iter())
            .zip(ctx.index.resolutions(file))
            .filter(|(_, r)| r.fans_out())
            .map(|(c, _)| (c.line(), c.end_line()))
            .collect();
        if par_extents.is_empty() {
            return;
        }
        for call in &parsed.calls {
            if !call.is_method
                || !par_extents.iter().any(|&(a, b)| call.line() >= a && call.line() <= b)
            {
                continue;
            }
            let callee = parsed.callee(&file.code, call);
            let float_reduce = match callee {
                "sum" | "product" => parsed
                    .turbofish(&file.code, call)
                    .is_some_and(|t| t.contains("f64") || t.contains("f32")),
                "fold" => parsed
                    .args(call)
                    .first()
                    .and_then(|a| parsed.arg_toks(&file.code, a).next())
                    .is_some_and(|t| is_float_literal(t.text)),
                _ => false,
            };
            if !float_reduce {
                continue;
            }
            let message = format!(
                "order-sensitive float `{callee}` inside a par closure — float addition is not associative",
            );
            out.push(file.finding(NAME, call.line(), call.col(), message, REDUCTION_HELP));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(files: &[(&str, &str, &str)], deps: &[(&str, &[&str])]) -> Vec<Finding> {
        crate::rules::tests::findings(&SharedStateInPar, files, deps)
    }

    const SIM_PAR: (&str, &str, &str) = (
        "crates/sim/src/run.rs",
        "vap-sim",
        "pub fn sweep() {\n    vap_exec::par_map(&xs, 8, |i, x| f(x));\n}\n",
    );

    #[test]
    fn static_in_par_reachable_crate_fires() {
        let hits = findings(
            &[
                SIM_PAR,
                (
                    "crates/obs/src/recorder.rs",
                    "vap-obs",
                    "static LIVE: AtomicUsize = AtomicUsize::new(0);\n",
                ),
            ],
            &[("vap-sim", &["vap-core", "vap-exec"]), ("vap-core", &["vap-obs"])],
        );
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("vap-obs"));
    }

    #[test]
    fn a_ledger_static_would_be_par_reachable() {
        // the watt-provenance sink: ledger ticks are recorded from inside
        // par_grid campaign cells, so any hidden static accumulator in the
        // ledger module races across workers — per-cell tables merged in
        // index order (what vap-obs actually does) is the sanctioned shape
        let hits = findings(
            &[
                SIM_PAR,
                (
                    "crates/obs/src/ledger.rs",
                    "vap-obs",
                    "static TOTALS: Mutex<Vec<f64>> = Mutex::new(Vec::new());\n",
                ),
            ],
            &[("vap-sim", &["vap-core", "vap-exec"]), ("vap-core", &["vap-obs"])],
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("reachable from vap-exec worker closures"));
    }

    #[test]
    fn static_in_unreachable_crate_is_quiet() {
        let hits = findings(
            &[
                SIM_PAR,
                (
                    "crates/report/src/table.rs",
                    "vap-report",
                    "static CACHE: Mutex<u32> = Mutex::new(0);\n",
                ),
            ],
            &[("vap-sim", &["vap-core"]), ("vap-report", &["vap-sim"])],
        );
        assert!(hits.is_empty(), "reverse dependency must not taint");
    }

    #[test]
    fn immutable_static_is_quiet_mutable_kinds_fire() {
        let src = "static TABLE: [f64; 4] = [1.0, 2.0, 3.0, 4.0];\n\
                   static mut COUNTER: u64 = 0;\n\
                   thread_local! {\n    static SCRATCH: RefCell<Vec<f64>> = x;\n}\n";
        let hits = findings(&[SIM_PAR, ("crates/sim/src/state.rs", "vap-sim", src)], &[]);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits[0].message.contains("static mut"));
        assert!(hits[1].message.contains("thread_local"));
    }

    #[test]
    fn float_sum_inside_par_closure_fires() {
        let src = "pub fn sweep(xs: &[Vec<f64>]) {\n    let r = vap_exec::par_map(xs, 8, |i, x| {\n        x.iter().sum::<f64>()\n    });\n}\n";
        let hits = findings(&[("crates/sim/src/run.rs", "vap-sim", src)], &[]);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("sum"));
        assert_eq!(hits[0].line, 3);
    }

    #[test]
    fn float_fold_inside_par_grid_fires() {
        let src = "pub fn sweep(xs: &[Vec<f64>]) {\n    par_grid(cells, 8, |c| {\n        c.iter().fold(0.0, |a, b| a + b)\n    });\n}\n";
        let hits = findings(&[("crates/sim/src/run.rs", "vap-sim", src)], &[]);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("fold"));
    }

    #[test]
    fn float_sum_inside_par_map_fleet_fires() {
        // the PVT sweep fans out through par_map_fleet; a float reduction
        // inside its closure would break the byte-identity the golden
        // digests pin
        let src = "pub fn sweep(fleet: &mut Cluster) {\n    vap_exec::par_map_fleet(fleet, 8, |i, m| {\n        m.samples.iter().sum::<f64>()\n    });\n}\n";
        let hits = findings(&[("crates/sim/src/fleet.rs", "vap-sim", src)], &[]);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("sum"));
    }

    #[test]
    fn par_map_fleet_call_site_puts_crate_in_scope() {
        let fleet_par: (&str, &str, &str) = (
            "crates/sim/src/fleet.rs",
            "vap-sim",
            "pub fn sweep() {\n    vap_exec::par_map_fleet(fleet, 8, |i, m| f(m));\n}\n",
        );
        let hits = findings(
            &[fleet_par, ("crates/sim/src/state.rs", "vap-sim", "static mut SCRATCH: u64 = 0;\n")],
            &[],
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn reductions_outside_par_and_integer_reductions_are_quiet() {
        let src = "pub fn total(xs: &[f64]) -> f64 {\n    xs.iter().sum::<f64>()\n}\n\
                   pub fn sweep(xs: &[Vec<u64>]) {\n    par_map(xs, 8, |i, x| {\n        x.iter().sum::<u64>()\n    });\n}\n";
        let hits = findings(&[("crates/sim/src/run.rs", "vap-sim", src)], &[]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn test_code_par_calls_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {\n        par_map(&xs, 2, |i, x| x.iter().sum::<f64>());\n    }\n}\n";
        let hits = findings(&[("crates/sim/src/run.rs", "vap-sim", src)], &[]);
        assert!(hits.is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "pub fn sweep(xs: &[Vec<f64>]) {\n    par_map(xs, 8, |i, x| {\n        // vap:allow(shared-state-in-par): per-item slice order is fixed\n        x.iter().sum::<f64>()\n    });\n}\n";
        let hits = findings(&[("crates/sim/src/run.rs", "vap-sim", src)], &[]);
        assert!(hits.is_empty());
    }
}
