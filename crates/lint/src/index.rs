//! Pass 1: the workspace symbol index.
//!
//! Built once from every [`SourceFile`]'s parsed items before any rule
//! runs, the index gives pass-2 rules cross-function sight: which
//! parameter types a callee declares three crates away, which functions
//! contain (baselined) panics, which crates hold mutable module state,
//! and which crates' code can run inside `vap-exec` worker closures.
//!
//! A function's panic count comes from the parser's site list
//! ([`crate::parse::ParsedFile::sites`]), not from its body's text: a
//! binary search finds the first site on the body's first line, and the
//! count takes the `no-panic-in-lib` sites up to its last line that are
//! neither in a test region nor `vap:allow`ed.

use std::collections::{BTreeMap, BTreeSet};

use crate::parse::{FnSig, StaticItem};
use crate::source::SourceFile;

/// The four canonical quantity newtypes from `vap-model`. They are
/// `unit!`-macro-generated, so the token parser only ever sees the macro
/// template (`pub struct $name(pub f64);`) — the names must be known
/// a priori. Direct `struct X(f64)` newtypes are discovered dynamically
/// and added alongside.
pub const CANONICAL_UNITS: [&str; 4] = ["Watts", "GigaHertz", "Seconds", "Joules"];

/// The `vap-exec` fan-out entry points whose closures run on worker
/// threads.
pub const PAR_ENTRY_POINTS: [&str; 3] = ["par_map", "par_grid", "par_map_fleet"];

/// Crates that are always shared-state-scoped even without a vap-exec
/// call site: their own threads share their module state.
const ALWAYS_PAR_SCOPED: [&str; 1] = ["vap-daemon"];

/// One indexed function or method.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Defining crate (e.g. `vap-core`).
    pub crate_name: String,
    /// Workspace-relative file path.
    pub path: String,
    /// The parsed signature (line numbers are 0-based file positions).
    pub sig: FnSig,
    /// Panic-capable constructs (`unwrap`/`expect`/`panic!`/…) in the
    /// body, excluding test regions and `vap:allow`'d lines. Always zero
    /// for binary entry points, which are allowed to panic.
    pub panics: usize,
}

/// One indexed module-state item.
#[derive(Debug, Clone)]
pub struct StaticInfo {
    /// Defining crate.
    pub crate_name: String,
    /// Workspace-relative file path.
    pub path: String,
    /// The parsed item (line is a 0-based file position).
    pub item: StaticItem,
}

/// The cross-file symbol table pass-2 rules query.
#[derive(Debug, Clone, Default)]
pub struct SymbolIndex {
    /// Functions and methods, keyed by bare name (collisions kept).
    pub fns: BTreeMap<String, Vec<FnInfo>>,
    /// Module-level state items across the workspace.
    pub statics: Vec<StaticInfo>,
    /// Unit newtype names: the canonical four plus every discovered
    /// direct `f64` tuple newtype.
    pub unit_types: BTreeSet<String>,
    /// `vap-*` dependency edges per crate (from each member's manifest).
    pub deps: BTreeMap<String, BTreeSet<String>>,
    /// Crates whose code can execute inside a `vap-exec` worker closure:
    /// every crate with a non-test `par_map`/`par_grid`/`par_map_fleet`
    /// call site, plus that crate's transitive `vap-*` dependencies.
    pub par_crates: BTreeSet<String>,
}

impl SymbolIndex {
    /// Build the index from parsed files and the crate dependency graph.
    pub fn build(files: &[SourceFile], deps: BTreeMap<String, BTreeSet<String>>) -> SymbolIndex {
        let mut index = SymbolIndex {
            unit_types: CANONICAL_UNITS.iter().map(|s| s.to_string()).collect(),
            deps,
            ..SymbolIndex::default()
        };
        let mut par_roots: BTreeSet<String> = BTreeSet::new();
        for file in files {
            for sig in &file.parsed.fns {
                let panics = if file.is_bin() { 0 } else { count_body_panics(file, sig) };
                index.fns.entry(sig.name.clone()).or_default().push(FnInfo {
                    crate_name: file.crate_name.clone(),
                    path: file.path.clone(),
                    sig: sig.clone(),
                    panics,
                });
            }
            for s in &file.parsed.structs {
                if s.newtype_of.as_deref() == Some("f64") {
                    index.unit_types.insert(s.name.clone());
                }
            }
            for item in &file.parsed.statics {
                if file.in_test.get(item.line).copied().unwrap_or(false) {
                    continue;
                }
                index.statics.push(StaticInfo {
                    crate_name: file.crate_name.clone(),
                    path: file.path.clone(),
                    item: item.clone(),
                });
            }
            for call in &file.parsed.calls {
                if PAR_ENTRY_POINTS.contains(&call.callee.as_str())
                    && !file.in_test.get(call.line).copied().unwrap_or(false)
                {
                    par_roots.insert(file.crate_name.clone());
                }
            }
        }
        // code reachable from a worker closure: the calling crate itself
        // plus everything it (transitively) depends on
        let mut stack: Vec<String> = par_roots.iter().cloned().collect();
        while let Some(c) = stack.pop() {
            if !index.par_crates.insert(c.clone()) {
                continue;
            }
            if let Some(ds) = index.deps.get(&c) {
                stack.extend(ds.iter().cloned());
            }
        }
        // The daemon never fans out through vap-exec, but its exporter
        // threads run concurrently with the sensor loop, so its own
        // module state is held to the same shared-state rules. Inserted
        // after the closure walk on purpose: only the daemon's statics
        // are in scope, not its (non-par) dependency tree.
        for c in ALWAYS_PAR_SCOPED {
            index.par_crates.insert(c.to_string());
        }
        index
    }

    /// Candidate definitions for a call site: same bare name, matching
    /// receiver kind, matching arity. Name collisions return every match
    /// — callers must treat the candidate set conservatively.
    pub fn candidates(&self, callee: &str, is_method: bool, argc: usize) -> Vec<&FnInfo> {
        self.fns
            .get(callee)
            .map(|v| {
                v.iter()
                    .filter(|f| f.sig.has_self == is_method && f.sig.params.len() == argc)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Is `name` one of the workspace's unit newtypes?
    pub fn is_unit_type(&self, name: &str) -> bool {
        self.unit_types.contains(name)
    }

    /// Stable text form for `--index-dump`: one line per item, sorted.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        out.push_str("# vap-lint symbol index\n");
        out.push_str(&format!(
            "units: {}\n",
            self.unit_types.iter().cloned().collect::<Vec<_>>().join(", ")
        ));
        out.push_str(&format!(
            "par-crates: {}\n",
            self.par_crates.iter().cloned().collect::<Vec<_>>().join(", ")
        ));
        for f in self.fns.values().flatten() {
            let params: Vec<String> =
                f.sig.params.iter().map(|p| format!("{}: {}", p.name, p.ty)).collect();
            out.push_str(&format!(
                "fn {} [{}] {}:{} ({}){}{}{}\n",
                f.sig.qualified,
                f.crate_name,
                f.path,
                f.sig.line + 1,
                params.join(", "),
                f.sig.ret.as_deref().map(|r| format!(" -> {r}")).unwrap_or_default(),
                if f.sig.is_pub { " pub" } else { "" },
                if f.panics > 0 { format!(" panics={}", f.panics) } else { String::new() },
            ));
        }
        for s in &self.statics {
            out.push_str(&format!(
                "{} {}: {} [{}] {}:{}\n",
                s.item.kind.label(),
                s.item.name,
                s.item.ty,
                s.crate_name,
                s.path,
                s.item.line + 1,
            ));
        }
        out
    }
}

/// Count the `no-panic-in-lib` sites on the lines of `sig`'s body in
/// `file`, skipping test regions and lines with a `no-panic-in-lib` allow.
fn count_body_panics(file: &SourceFile, sig: &FnSig) -> usize {
    const RULE: &str = "no-panic-in-lib";
    let Some((start, end)) = sig.body else { return 0 };
    // the sites are sorted by line, so the body's sites are one run
    let sites = &file.parsed.sites;
    let first = sites.partition_point(|s| s.line < start);
    sites[first..]
        .iter()
        .take_while(|s| s.line <= end)
        .filter(|s| s.word.rule() == RULE)
        .filter(|s| !file.in_test.get(s.line).copied().unwrap_or(false))
        .filter(|s| !file.is_allowed(RULE, s.line))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(path: &str, crate_name: &str, src: &str) -> SourceFile {
        SourceFile::from_source(path, crate_name, src)
    }

    fn deps(edges: &[(&str, &[&str])]) -> BTreeMap<String, BTreeSet<String>> {
        edges
            .iter()
            .map(|(c, ds)| {
                (c.to_string(), ds.iter().map(|d| d.to_string()).collect::<BTreeSet<_>>())
            })
            .collect()
    }

    #[test]
    fn indexes_signatures_and_counts_panics() {
        let files = vec![sf(
            "crates/core/src/budget.rs",
            "vap-core",
            "pub fn plan(cap: Watts, n: usize) -> GigaHertz {\n    let x = m.get(&k).unwrap();\n    inner(x)\n}\nfn inner(x: u32) -> GigaHertz {\n    GigaHertz(1.2)\n}\n",
        )];
        let index = SymbolIndex::build(&files, BTreeMap::new());
        let plan = &index.fns["plan"][0];
        assert_eq!(plan.sig.params.len(), 2);
        assert_eq!(plan.sig.params[0].ty, "Watts");
        assert_eq!(plan.panics, 1);
        assert_eq!(index.fns["inner"][0].panics, 0);
        let c = index.candidates("plan", false, 2);
        assert_eq!(c.len(), 1);
        assert!(index.candidates("plan", true, 2).is_empty());
        assert!(index.candidates("plan", false, 1).is_empty());
    }

    #[test]
    fn allowed_and_test_panics_are_not_counted() {
        let files = vec![
            sf(
                "crates/core/src/x.rs",
                "vap-core",
                "pub fn f() {\n    // vap:allow(no-panic-in-lib): provably infallible\n    let v = o.unwrap();\n}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        o.unwrap();\n    }\n}\n",
            ),
            // two panics on one line, then a one-line body right below
            sf(
                "crates/core/src/a.rs",
                "vap-core",
                "pub fn two(a: Option<u8>, b: Option<u8>) -> u8 {\n    a.unwrap() + b.expect(\"b\")\n}\nfn next(o: Option<u8>) { o.unwrap(); }\n",
            ),
            // an allowed line between two counted ones
            sf(
                "crates/core/src/b.rs",
                "vap-core",
                "pub fn around(a: Option<u8>, b: Option<u8>) {\n    a.unwrap();\n    // vap:allow(no-panic-in-lib): checked by the caller\n    b.unwrap();\n    panic!(\"after\");\n}\n",
            ),
            // a test module nested inside the body
            sf(
                "crates/core/src/c.rs",
                "vap-core",
                "pub fn outer(x: Option<u8>, z: Option<u8>) {\n    x.unwrap();\n    #[cfg(test)]\n    mod inner {\n        fn inner_t(y: Option<u8>) { y.unwrap(); }\n    }\n    z.unwrap();\n}\n",
            ),
            // a body that ends on the last line, with no newline after it
            sf(
                "crates/core/src/d.rs",
                "vap-core",
                "pub fn last(x: Option<u8>) -> u8 {\n    x.expect(\"set\") }",
            ),
        ];
        let index = SymbolIndex::build(&files, BTreeMap::new());
        // recorded from the per-line needle count the site list replaced
        let counts = [
            ("f", 0),
            ("t", 0),
            ("two", 2),
            ("next", 1),
            ("around", 2),
            ("outer", 2),
            ("inner_t", 0),
            ("last", 1),
        ];
        for (name, panics) in counts {
            assert_eq!(index.fns[name][0].panics, panics, "{name}");
        }
    }

    #[test]
    fn binaries_never_count_panics() {
        let files = vec![sf(
            "crates/report/src/bin/fig1.rs",
            "vap-report",
            "fn main() {\n    run().unwrap();\n}\n",
        )];
        let index = SymbolIndex::build(&files, BTreeMap::new());
        assert_eq!(index.fns["main"][0].panics, 0);
    }

    #[test]
    fn unit_types_merge_canonical_and_discovered() {
        let files = vec![sf(
            "crates/model/src/linear.rs",
            "vap-model",
            "pub struct Alpha(pub f64);\npub struct Count(pub usize);\n",
        )];
        let index = SymbolIndex::build(&files, BTreeMap::new());
        assert!(index.is_unit_type("Watts"));
        assert!(index.is_unit_type("Alpha"));
        assert!(!index.is_unit_type("Count"));
    }

    #[test]
    fn par_reachability_is_transitive_over_deps() {
        let files = vec![
            sf(
                "crates/sim/src/run.rs",
                "vap-sim",
                "pub fn sweep() {\n    vap_exec::par_map(&xs, 8, |i, x| f(x));\n}\n",
            ),
            sf("crates/obs/src/recorder.rs", "vap-obs", "static LIVE: AtomicUsize = X;\n"),
        ];
        let d = deps(&[
            ("vap-sim", &["vap-core", "vap-exec"]),
            ("vap-core", &["vap-model", "vap-obs"]),
            ("vap-report", &["vap-sim"]),
        ]);
        let index = SymbolIndex::build(&files, d);
        for c in ["vap-sim", "vap-core", "vap-model", "vap-obs", "vap-exec"] {
            assert!(index.par_crates.contains(c), "{c} should be par-reachable");
        }
        // depends *on* vap-sim but has no par call site of its own
        assert!(!index.par_crates.contains("vap-report"));
        assert_eq!(index.statics.len(), 1);
    }

    #[test]
    fn test_only_par_calls_do_not_taint() {
        let files = vec![sf(
            "crates/stats/src/lib.rs",
            "vap-stats",
            "#[cfg(test)]\nmod tests {\n    fn t() {\n        vap_exec::par_map(&xs, 2, |i, x| x);\n    }\n}\n",
        )];
        let index = SymbolIndex::build(&files, BTreeMap::new());
        // only the always-scoped daemon remains: no crate earned scope
        // through a call site
        assert_eq!(index.par_crates.iter().collect::<Vec<_>>(), ["vap-daemon"]);
    }

    #[test]
    fn the_daemon_is_always_shared_state_scoped() {
        // no files, no deps, no par call sites — the daemon is in scope
        // anyway, and scope does not leak into its dependency tree
        let d = deps(&[("vap-daemon", &["vap-report", "vap-sched"])]);
        let index = SymbolIndex::build(&[], d);
        assert!(index.par_crates.contains("vap-daemon"));
        assert!(!index.par_crates.contains("vap-report"));
        assert!(!index.par_crates.contains("vap-sched"));
    }

    #[test]
    fn the_scenario_engine_is_par_scoped_through_the_drift_study() {
        // the drift study fans its (scenario × policy × cap) grid through
        // vap_exec::par_grid, and each worker drives a ScenarioRuntime —
        // the scenario engine must inherit shared-state scope through
        // that call site's dependency closure
        let files = vec![sf(
            "crates/report/src/experiments/drift_study.rs",
            "vap-report",
            "pub fn run() {\n    vap_exec::par_grid(&cells, 4, |c| cell(c));\n}\n",
        )];
        let d = deps(&[
            ("vap-report", &["vap-scenario", "vap-sched"]),
            ("vap-scenario", &["vap-sim"]),
        ]);
        let index = SymbolIndex::build(&files, d);
        for c in ["vap-report", "vap-scenario", "vap-sim"] {
            assert!(index.par_crates.contains(c), "{c} should be par-reachable");
        }
    }

    #[test]
    fn dump_is_stable_and_complete() {
        let files = vec![sf(
            "crates/core/src/x.rs",
            "vap-core",
            "pub fn f(w: Watts) -> f64 {\n    w.0\n}\nstatic S: Mutex<u32> = M;\n",
        )];
        let index = SymbolIndex::build(&files, BTreeMap::new());
        let d = index.dump();
        assert!(d.contains("fn f [vap-core] crates/core/src/x.rs:1 (w: Watts) -> f64 pub"));
        assert!(d.contains("static S: Mutex<u32> [vap-core] crates/core/src/x.rs:4"));
        assert!(d.contains("units: "));
        assert_eq!(d, index.dump());
    }
}
