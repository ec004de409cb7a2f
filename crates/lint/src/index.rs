//! Pass 1: the workspace symbol index.
//!
//! Built once from every [`SourceFile`]'s parsed items before any rule
//! runs, the index gives pass-2 rules cross-function sight: which
//! parameter types a callee declares three crates away, which functions
//! contain (baselined) panics, which crates hold mutable module state,
//! and which crates' code can run inside `vap-exec` worker closures.
//!
//! The index borrows what it indexes: a [`FnInfo`] or [`StaticInfo`]
//! points at the signature or item and at the [`SourceFile`] it came
//! from, whose parsed item text holds its names and types, so the index
//! lives no longer than the sources and copies none of their strings.
//!
//! A call resolves by its *shape*: the callee's bare name, receiver kind
//! and arity. Once every file is indexed, and so every unit newtype is
//! known, the index works out each shape's answers once ([`CallShape`]):
//! whether every member declares a parameter unit-typed, and whether
//! every member panics. [`SymbolIndex::resolve`] hands a call site those
//! answers with one map lookup, so a rule does no per-candidate work. The
//! shapes sit in one list for the whole index and their per-parameter
//! flags in another, so building them allocates a few times, not once per
//! name.
//!
//! A crate is a root of the par closure when one of its files has a call
//! [`SourceFile::par_calls`] yields, the same non-test fan-out calls whose
//! closures `shared-state-in-par` searches for float reductions.
//!
//! A function's panic count comes from the parser's site list
//! ([`crate::parse::ParsedFile::sites`]), not from its body's text: a
//! binary search finds the first site on the body's first line, and the
//! count takes the `no-panic-in-lib` sites up to its last line that are
//! neither in a test region nor `vap:allow`ed.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::parse::{FnSig, StaticItem};
use crate::rules::{is_ident_char, no_panic};
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

/// One indexed function or method, borrowed from its source file.
#[derive(Debug, Clone)]
pub struct FnInfo<'a> {
    /// The defining file: its crate, its path, and the item text `sig`
    /// is read through (`file.parsed.qualified(sig)`).
    pub file: &'a SourceFile,
    /// The parsed signature (line numbers are 0-based file positions).
    pub sig: &'a FnSig,
    /// Panic-capable constructs (`unwrap`/`expect`/`panic!`/…) in the
    /// body, excluding test regions and `vap:allow`'d lines. Always zero
    /// for binary entry points, which are allowed to panic.
    pub panics: usize,
}

/// One indexed module-state item, borrowed from its source file.
#[derive(Debug, Clone)]
pub struct StaticInfo<'a> {
    /// The defining file, whose item text holds the item's name and type.
    pub file: &'a SourceFile,
    /// The parsed item (line is a 0-based file position).
    pub item: &'a StaticItem,
}

/// The answers for one call shape: the indexed functions that share a
/// bare name, a receiver kind and an arity (its *members*, in index
/// order). A call site resolves to every member, so a rule fires only
/// when all of them agree.
#[derive(Debug, Clone)]
pub struct CallShape {
    /// The members take `self`.
    has_self: bool,
    /// Position of the first member in the name's [`SymbolIndex::fns`]
    /// list.
    pub first: usize,
    /// Number of members.
    pub count: usize,
    /// Every member panics.
    pub all_panic: bool,
    /// Where the shape's per-parameter unit flags sit in the index's flag
    /// list ([`SymbolIndex::unit_params`]); its length is the arity.
    params: Range<usize>,
}

/// The cross-file symbol table pass-2 rules query, borrowed from the
/// sources it was built from.
#[derive(Debug, Clone, Default)]
pub struct SymbolIndex<'a> {
    /// Functions and methods, keyed by bare name (collisions kept).
    pub fns: BTreeMap<&'a str, Vec<FnInfo<'a>>>,
    /// Module-level state items across the workspace.
    pub statics: Vec<StaticInfo<'a>>,
    /// Unit newtype names: the canonical four plus every discovered
    /// direct `f64` tuple newtype.
    pub unit_types: BTreeSet<&'a str>,
    /// Crates whose code can execute inside a `vap-exec` worker closure:
    /// every crate with a non-test `par_map`/`par_grid`/`par_map_fleet`
    /// call site, plus that crate's transitive `vap-*` dependencies.
    pub par_crates: BTreeSet<String>,
    /// Each bare name's call shapes: a range of `call_shapes`.
    shapes: BTreeMap<&'a str, Range<usize>>,
    /// Every call shape, one run per name in name order; a name's shapes
    /// are in order of their first member.
    call_shapes: Vec<CallShape>,
    /// Every shape's per-parameter unit flags, one run per shape.
    unit_flags: Vec<bool>,
}

impl<'a> SymbolIndex<'a> {
    /// Build the index from parsed files and the crate dependency graph
    /// (`vap-*` dependency edges per crate, from each member's manifest).
    pub fn build(
        files: &'a [SourceFile],
        deps: BTreeMap<String, BTreeSet<String>>,
    ) -> SymbolIndex<'a> {
        let mut fns: BTreeMap<&'a str, Vec<FnInfo<'a>>> = BTreeMap::new();
        let mut statics = Vec::new();
        let mut unit_types: BTreeSet<&'a str> = CANONICAL_UNITS.into_iter().collect();
        let mut par_roots: BTreeSet<&'a str> = BTreeSet::new();
        for file in files {
            let parsed = &file.parsed;
            for sig in &parsed.fns {
                let panics = if file.is_bin() { 0 } else { count_body_panics(file, sig) };
                fns.entry(parsed.name(sig)).or_default().push(FnInfo { file, sig, panics });
            }
            for s in &parsed.structs {
                if s.newtype_of.as_ref().is_some_and(|ty| parsed.text(ty) == "f64") {
                    unit_types.insert(parsed.text(&s.name));
                }
            }
            for item in &parsed.statics {
                if !file.is_test(item.line()) {
                    statics.push(StaticInfo { file, item });
                }
            }
            if file.par_calls().next().is_some() {
                par_roots.insert(file.crate_name.as_str());
            }
        }
        // Only now is every unit type known: a newtype declared in a file
        // that sorts after its callers still makes their parameters
        // unit-typed. Collecting over the sorted names bulk-builds the map;
        // the units, sorted in one slice, are searched faster than the set.
        let (mut call_shapes, mut unit_flags) = (Vec::new(), Vec::new());
        let units: Vec<&str> = unit_types.iter().copied().collect();
        let shapes = fns
            .iter()
            .map(|(&name, fs)| {
                let start = call_shapes.len();
                push_shapes(fs, &units, &mut call_shapes, &mut unit_flags);
                (name, start..call_shapes.len())
            })
            .collect();
        // code reachable from a worker closure: the calling crate itself
        // plus everything it (transitively) depends on
        let mut par_crates = BTreeSet::new();
        let mut stack: Vec<&str> = par_roots.into_iter().collect();
        while let Some(c) = stack.pop() {
            if par_crates.contains(c) {
                continue;
            }
            par_crates.insert(c.to_string());
            if let Some(ds) = deps.get(c) {
                stack.extend(ds.iter().map(String::as_str));
            }
        }
        // The daemon never fans out through vap-exec, but its exporter
        // threads run concurrently with the sensor loop, so its own
        // module state is held to the same shared-state rules. Inserted
        // after the closure walk on purpose: only the daemon's statics
        // are in scope, not its (non-par) dependency tree.
        for c in ALWAYS_PAR_SCOPED {
            par_crates.insert(c.to_string());
        }
        SymbolIndex { fns, statics, unit_types, par_crates, shapes, call_shapes, unit_flags }
    }

    /// The shape a call site resolves to: the functions with the callee's
    /// bare name, receiver kind and arity. `None` when no indexed
    /// function has that shape.
    pub fn resolve(&self, callee: &str, is_method: bool, argc: usize) -> Option<&CallShape> {
        let named = self.shapes.get(callee)?;
        self.call_shapes[named.clone()]
            .iter()
            .find(|s| s.has_self == is_method && s.params.len() == argc)
    }

    /// Per parameter of `shape`: does every member declare it a unit
    /// newtype (`Watts` or `&Watts`, not `&mut Watts`)?
    pub fn unit_params(&self, shape: &CallShape) -> &[bool] {
        &self.unit_flags[shape.params.clone()]
    }

    /// The first member of `shape`, one of `callee`'s shapes.
    pub fn first_member(&self, callee: &str, shape: &CallShape) -> &FnInfo<'a> {
        &self.fns[callee][shape.first]
    }

    /// Is `name` one of the workspace's unit newtypes?
    pub fn is_unit_type(&self, name: &str) -> bool {
        self.unit_types.contains(name)
    }

    /// Does the type text `ty` mention a unit newtype as a whole
    /// identifier (`Watts`, `&Watts`, `Option<Watts>`, not `MilliWatts`)?
    /// Every unit name is one identifier run, so looking up each run of
    /// identifier characters answers
    /// `unit_types.iter().any(|u| type_mentions(ty, u))` in one pass.
    pub fn mentions_unit(&self, ty: &str) -> bool {
        ty.split(|c: char| !is_ident_char(c)).any(|run| self.unit_types.contains(run))
    }

    /// Stable text form for `--index-dump`: one line per item, sorted.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        out.push_str("# vap-lint symbol index\n");
        out.push_str(&format!(
            "units: {}\n",
            self.unit_types.iter().copied().collect::<Vec<_>>().join(", ")
        ));
        out.push_str(&format!(
            "par-crates: {}\n",
            self.par_crates.iter().cloned().collect::<Vec<_>>().join(", ")
        ));
        for f in self.fns.values().flatten() {
            let parsed = &f.file.parsed;
            let params: Vec<String> = parsed
                .params(f.sig)
                .iter()
                .map(|p| format!("{}: {}", parsed.text(&p.name), parsed.text(&p.ty)))
                .collect();
            out.push_str(&format!(
                "fn {} [{}] {}:{} ({}){}{}{}\n",
                parsed.qualified(f.sig),
                f.file.crate_name,
                f.file.path,
                f.sig.line() + 1,
                params.join(", "),
                parsed.ret(f.sig).map(|r| format!(" -> {r}")).unwrap_or_default(),
                if f.sig.is_pub { " pub" } else { "" },
                if f.panics > 0 { format!(" panics={}", f.panics) } else { String::new() },
            ));
        }
        for s in &self.statics {
            out.push_str(&format!(
                "{} {}: {} [{}] {}:{}\n",
                s.item.kind.label(),
                s.file.parsed.text(&s.item.name),
                s.file.parsed.text(&s.item.ty),
                s.file.crate_name,
                s.file.path,
                s.item.line() + 1,
            ));
        }
        out
    }
}

/// A parameter type with its leading `&`s, then surrounding spaces,
/// trimmed: the text that names its unit when it has one (`&Watts` names
/// `Watts`; `&mut Watts` leaves `mut Watts`, which names none).
pub(crate) fn referent(ty: &str) -> &str {
    ty.trim_start_matches('&').trim()
}

/// Append the call shapes of one name's functions `fns` to `shapes`, in
/// order of their first member, and their unit flags to `flags`. A
/// parameter is unit-typed when its [`referent`] is one of `units`, the
/// unit types in sorted order.
fn push_shapes(
    fns: &[FnInfo<'_>],
    units: &[&str],
    shapes: &mut Vec<CallShape>,
    flags: &mut Vec<bool>,
) {
    let start = shapes.len();
    for (k, f) in fns.iter().enumerate() {
        let (has_self, arity, parsed) = (f.sig.has_self, f.sig.arity(), &f.file.parsed);
        let unit = parsed
            .params(f.sig)
            .iter()
            .map(|p| units.binary_search(&referent(parsed.text(&p.ty))).is_ok());
        let same = |s: &&mut CallShape| s.has_self == has_self && s.params.len() == arity;
        match shapes[start..].iter_mut().find(same) {
            Some(s) => {
                s.count += 1;
                s.all_panic &= f.panics > 0;
                for (flag, u) in flags[s.params.clone()].iter_mut().zip(unit) {
                    *flag &= u;
                }
            }
            None => {
                let at = flags.len();
                flags.extend(unit);
                shapes.push(CallShape {
                    has_self,
                    first: k,
                    count: 1,
                    all_panic: f.panics > 0,
                    params: at..flags.len(),
                });
            }
        }
    }
}

/// Count the `no-panic-in-lib` sites on the lines of `sig`'s body in
/// `file`, skipping test regions and lines with a `no-panic-in-lib` allow.
fn count_body_panics(file: &SourceFile, sig: &FnSig) -> usize {
    let Some((start, end)) = sig.body() else { return 0 };
    // the sites are sorted by line, so the body's sites are one run
    let sites = &file.parsed.sites;
    let first = sites.partition_point(|s| s.line() < start);
    sites[first..]
        .iter()
        .take_while(|s| s.line() <= end)
        .filter(|s| s.word.rule() == no_panic::NAME)
        .filter(|s| !file.is_test(s.line()))
        .filter(|s| !file.is_allowed(no_panic::NAME, s.line()))
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
        assert_eq!(plan.sig.arity(), 2);
        let parsed = &plan.file.parsed;
        assert_eq!(parsed.text(&parsed.params(plan.sig)[0].ty), "Watts");
        assert_eq!(plan.panics, 1);
        assert_eq!(index.fns["inner"][0].panics, 0);
        let shape = index.resolve("plan", false, 2).expect("plan/2 resolves");
        assert_eq!((shape.first, shape.count), (0, 1));
        assert_eq!(index.unit_params(shape), [true, false]);
        assert!(shape.all_panic);
        let first = index.first_member("plan", shape);
        assert_eq!(first.file.parsed.qualified(first.sig), "plan");
        assert!(index.resolve("plan", true, 2).is_none());
        assert!(index.resolve("plan", false, 1).is_none());
        assert!(index.resolve("nope", false, 0).is_none());
    }

    #[test]
    fn mentions_unit_agrees_with_type_mentions() {
        use crate::parse::type_mentions;
        let files =
            vec![sf("crates/model/src/linear.rs", "vap-model", "pub struct Alpha(pub f64);\n")];
        let index = SymbolIndex::build(&files, BTreeMap::new());
        let types = [
            "Watts",
            "&Watts",
            "&mut Watts",
            "Option<&'a Watts>",
            "[Watts; 4]",
            "(usize, Watts)",
            "vap_model::Watts",
            "dyn Fn(Watts) -> f64",
            "MilliWatts",
            "WattsPerCore",
            "Watts2",
            "2Watts",
            "_Watts",
            "éWatts",
            "Watts·",
            "αWattsβ",
            "",
            "Alpha",
            "Vec<Alpha>",
            "AlphaBeta",
            "f64",
        ];
        for ty in types {
            let expected = index.unit_types.iter().any(|u| type_mentions(ty, u));
            assert_eq!(index.mentions_unit(ty), expected, "{ty:?}");
        }
        // both answers are pinned, not only their agreement
        assert!(index.mentions_unit("éWatts") && index.mentions_unit("Vec<Alpha>"));
        assert!(!index.mentions_unit("MilliWatts") && !index.mentions_unit("2Watts"));
    }

    #[test]
    fn call_shapes_split_by_receiver_and_arity_and_trim_references() {
        let files = vec![
            sf(
                "crates/a/src/lib.rs",
                "vap-a",
                "pub fn set(cap: &Watts, n: usize) { x.unwrap(); }\n\
                 impl M {\n    pub fn set(&self, cap: Watts, n: usize) {}\n}\n",
            ),
            sf("crates/b/src/lib.rs", "vap-b", "pub fn set(v: Volts, n: usize) { y.unwrap(); }\n"),
            sf("crates/c/src/lib.rs", "vap-c", "pub fn set(cap: &mut Watts) {}\n"),
            // declared after every caller and callee: still a unit
            sf("crates/z/src/lib.rs", "vap-z", "pub struct Volts(pub f64);\n"),
        ];
        let index = SymbolIndex::build(&files, BTreeMap::new());
        let free = index.resolve("set", false, 2).expect("free set/2");
        assert_eq!((free.first, free.count), (0, 2));
        assert_eq!(index.unit_params(free), [true, false]);
        assert!(free.all_panic);
        let method = index.resolve("set", true, 2).expect("method set/2");
        assert_eq!((method.first, method.count), (1, 1));
        assert!(!method.all_panic);
        let one = index.resolve("set", false, 1).expect("free set/1");
        assert_eq!((one.first, one.count), (3, 1));
        // `&mut Watts` trims to `mut Watts`, which is no unit
        assert_eq!(index.unit_params(one), [false]);
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
        let d =
            deps(&[("vap-report", &["vap-scenario", "vap-sched"]), ("vap-scenario", &["vap-sim"])]);
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
