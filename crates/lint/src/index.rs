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
//! every member panics. The shapes sit in one list for the whole index
//! and their per-parameter flags in another, so building them allocates
//! a few times, not once per name. One hash map, keyed by bare name with
//! a fixed FNV-1a hash, holds each name's run of shapes and whether the
//! name is a unit newtype or a `vap-exec` fan-out entry point. The unit
//! and fan-out names go in first, so every by-name question the index
//! answers costs one hash of the name: a call's shape and bits, whether
//! a parameter's type names a unit while the shapes are built, and each
//! identifier run [`SymbolIndex::mentions_unit`] checks. The map is
//! looked up, never iterated, so its order reaches no output.
//!
//! The index then resolves every call once, in one pass over each file's
//! calls: it slices the callee, looks it up once in that map and keeps
//! one 32-bit word per call — the position of its shape, a bit for a
//! unit constructor and a bit for a fan-out call — in one list with a
//! run per file. A call on a test line resolves to nothing. The rules
//! walk a file's calls beside its run and slice a callee again only to
//! build a finding. [`SymbolIndex::resolve`] answers the same question
//! for one callee by name.
//!
//! A crate is a root of the par closure when one of its files has a
//! non-test fan-out call, the same calls whose closures
//! `shared-state-in-par` searches for float reductions.
//!
//! A function's panic count comes from the parser's site list
//! ([`crate::parse::ParsedFile::sites`]), not from its body's text: a
//! binary search finds the first site on the body's first line, and the
//! count takes the `no-panic-in-lib` sites up to its last line that are
//! neither in a test region nor `vap:allow`ed.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use crate::lexer::narrow;
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

/// What one call resolves to, packed in 32 bits: the position of its
/// call shape in the index's shape list, plus one (0 for none), below a
/// bit for a callee that names a unit newtype and a bit for a callee
/// that names a `vap-exec` fan-out entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Resolution(u32);

impl Resolution {
    /// The callee names a unit newtype: the call is a unit constructor.
    const UNIT: u32 = 1 << 31;
    /// The callee names a [`PAR_ENTRY_POINTS`] fan-out.
    const PAR: u32 = 1 << 30;
    /// The bits that hold the shape's position plus one.
    const SHAPE: u32 = Self::PAR - 1;

    /// These flags and the shape at position `k`; a position past what
    /// the bits hold (more than 2^30 - 2 shapes) is stored as no shape.
    fn with_shape(self, k: usize) -> Resolution {
        let at = u32::try_from(k + 1).ok().filter(|&at| at <= Self::SHAPE);
        Resolution(self.0 | at.unwrap_or(0))
    }

    /// The position of the call's shape in the index's shape list.
    fn shape(self) -> Option<usize> {
        (self.0 & Self::SHAPE).checked_sub(1).map(|k| k as usize)
    }

    /// The callee names a unit newtype (`Watts(..)`).
    pub(crate) fn is_unit_constructor(self) -> bool {
        self.0 & Self::UNIT != 0
    }

    /// The callee names a `vap-exec` fan-out entry point.
    pub(crate) fn fans_out(self) -> bool {
        self.0 & Self::PAR != 0
    }
}

/// What the index knows of one bare name.
#[derive(Debug, Clone, Default)]
struct Named {
    /// The name's call shapes: a range of the index's shape list.
    shapes: Range<u32>,
    /// The unit and fan-out bits every call of the name carries.
    flags: Resolution,
}

impl Named {
    /// What a call of this name with receiver kind `is_method` and `argc`
    /// arguments resolves to: its flags, and the shape among its few in
    /// `shapes`, the index's shape list, that has that kind and arity.
    fn resolve(&self, shapes: &[CallShape], is_method: bool, argc: usize) -> Resolution {
        let (from, to) = (self.shapes.start as usize, self.shapes.end as usize);
        let own = shapes.get(from..to).unwrap_or_default();
        match own.iter().position(|s| s.has_self == is_method && s.params.len() == argc) {
            Some(k) => self.flags.with_shape(from + k),
            None => self.flags,
        }
    }
}

/// FNV-1a over a name's bytes: a fixed hash, so a lookup in the index's
/// name map costs one pass over the name and the same on every run. The
/// map is only looked up, never iterated, so its order reaches no output.
/// The names come from the workspace being linted, and names crafted to
/// collide could slow only that workspace's own verdict.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Each bare name the index knows, hashed with [`Fnv1a`].
type Names<'a> = HashMap<&'a str, Named, BuildHasherDefault<Fnv1a>>;

/// Does `name` name a unit newtype, by one lookup in `names`?
fn is_unit(names: &Names<'_>, name: &str) -> bool {
    names.get(name).is_some_and(|n| n.flags.is_unit_constructor())
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
    /// Each bare name that names a function, a unit newtype or a fan-out
    /// entry point.
    names: Names<'a>,
    /// Every call shape, one run per name in name order; a name's shapes
    /// are in order of their first member.
    call_shapes: Vec<CallShape>,
    /// Every shape's per-parameter unit flags, one run per shape.
    unit_flags: Vec<bool>,
    /// The sources the index was built over.
    files: &'a [SourceFile],
    /// Every call's resolution: one run per file of `files`, in order,
    /// each in the order of the file's calls.
    resolutions: Vec<Resolution>,
    /// Where each file's run of `resolutions` starts, then where the last
    /// one ends.
    runs: Vec<usize>,
}

impl<'a> SymbolIndex<'a> {
    /// Build the index from parsed files and the crate dependency graph
    /// (`vap-*` dependency edges per crate, from each member's manifest).
    /// A rule asks it about one of `files` only.
    pub fn build(
        files: &'a [SourceFile],
        deps: BTreeMap<String, BTreeSet<String>>,
    ) -> SymbolIndex<'a> {
        let mut fns: BTreeMap<&'a str, Vec<FnInfo<'a>>> = BTreeMap::new();
        let mut statics = Vec::new();
        let mut unit_types: BTreeSet<&'a str> = CANONICAL_UNITS.into_iter().collect();
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
        }
        // Only now is every unit type known: a newtype declared in a file
        // that sorts after its callers still makes their parameters
        // unit-typed. The unit and fan-out names go in first, so the
        // shapes ask the map whether a parameter's type is a unit.
        let capacity = fns.len() + unit_types.len() + PAR_ENTRY_POINTS.len();
        let mut names = Names::with_capacity_and_hasher(capacity, BuildHasherDefault::default());
        for &name in &unit_types {
            names.entry(name).or_default().flags.0 |= Resolution::UNIT;
        }
        for name in PAR_ENTRY_POINTS {
            names.entry(name).or_default().flags.0 |= Resolution::PAR;
        }
        let (mut call_shapes, mut unit_flags) = (Vec::new(), Vec::new());
        for (&name, fs) in &fns {
            let start = narrow(call_shapes.len());
            push_shapes(fs, &names, &mut call_shapes, &mut unit_flags);
            names.entry(name).or_default().shapes = start..narrow(call_shapes.len());
        }
        // resolve every call once; a crate with a non-test fan-out call
        // roots the par closure
        let mut resolutions = Vec::with_capacity(files.iter().map(|f| f.parsed.calls.len()).sum());
        let mut runs = Vec::with_capacity(files.len() + 1);
        let mut par_roots: BTreeSet<&str> = BTreeSet::new();
        for file in files {
            let (parsed, start) = (&file.parsed, resolutions.len());
            runs.push(start);
            resolutions.extend(parsed.calls.iter().map(|call| {
                if file.is_test(call.line()) {
                    return Resolution::default();
                }
                let Some(named) = names.get(parsed.callee(&file.code, call)) else {
                    return Resolution::default();
                };
                named.resolve(&call_shapes, call.is_method, parsed.args(call).len())
            }));
            if resolutions[start..].iter().any(|r| r.fans_out()) {
                par_roots.insert(file.crate_name.as_str());
            }
        }
        runs.push(resolutions.len());
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
        SymbolIndex {
            fns,
            statics,
            unit_types,
            par_crates,
            names,
            call_shapes,
            unit_flags,
            files,
            resolutions,
            runs,
        }
    }

    /// The shape a call site resolves to: the functions with the callee's
    /// bare name, receiver kind and arity. `None` when no indexed
    /// function has that shape. [`SymbolIndex::build`] resolves every
    /// call of the sources this way once.
    pub fn resolve(&self, callee: &str, is_method: bool, argc: usize) -> Option<&CallShape> {
        self.shape(self.names.get(callee)?.resolve(&self.call_shapes, is_method, argc))
    }

    /// The resolutions of `file`'s calls, one per call in order, or none
    /// when `file` is not one of the sources the index was built over.
    /// The file is found by its place in that slice.
    pub(crate) fn resolutions(&self, file: &SourceFile) -> &[Resolution] {
        let offset = std::ptr::from_ref(file).addr().wrapping_sub(self.files.as_ptr().addr());
        let at = offset / size_of::<SourceFile>();
        match (self.files.get(at), self.runs.get(at..at + 2)) {
            (Some(f), Some(&[start, end])) if std::ptr::eq(f, file) => {
                self.resolutions.get(start..end).unwrap_or_default()
            }
            _ => &[],
        }
    }

    /// The shape a call resolved to, if any.
    pub(crate) fn shape(&self, r: Resolution) -> Option<&CallShape> {
        self.call_shapes.get(r.shape()?)
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

    /// Does the type text `ty` mention a unit newtype as a whole
    /// identifier (`Watts`, `&Watts`, `Option<Watts>`, not `MilliWatts`)?
    /// Every unit name is one identifier run, so looking up each run of
    /// identifier characters in the name map answers
    /// `unit_types.iter().any(|u| type_mentions(ty, u))` in one pass.
    pub fn mentions_unit(&self, ty: &str) -> bool {
        ty.split(|c: char| !is_ident_char(c)).any(|run| is_unit(&self.names, run))
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
/// parameter is unit-typed when its [`referent`] names a unit in `names`.
fn push_shapes(
    fns: &[FnInfo<'_>],
    names: &Names<'_>,
    shapes: &mut Vec<CallShape>,
    flags: &mut Vec<bool>,
) {
    let start = shapes.len();
    for (k, f) in fns.iter().enumerate() {
        let (has_self, arity, parsed) = (f.sig.has_self, f.sig.arity(), &f.file.parsed);
        let unit =
            parsed.params(f.sig).iter().map(|p| is_unit(names, referent(parsed.text(&p.ty))));
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
pub(crate) mod tests {
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

    /// Check every call of every file in `files` against `index`: its
    /// stored resolution gives the shape [`SymbolIndex::resolve`] gives,
    /// whose members are the functions with the callee's name, receiver
    /// kind and arity, and the unit and fan-out bits the callee's name
    /// gives; a call on a test line resolves to nothing. Returns how many
    /// calls resolved to a shape, to a unit constructor, to a fan-out and
    /// sat on a test line.
    fn check_resolutions(files: &[SourceFile], index: &SymbolIndex<'_>) -> [usize; 4] {
        let mut seen = [0; 4];
        for file in files {
            let (parsed, stored) = (&file.parsed, index.resolutions(file));
            assert_eq!(stored.len(), parsed.calls.len(), "{}", file.path);
            for (call, &r) in parsed.calls.iter().zip(stored) {
                let at = format!("{}:{}:{}", file.path, call.line(), call.col());
                if file.is_test(call.line()) {
                    assert_eq!(r, Resolution::default(), "{at}");
                    seen[3] += 1;
                    continue;
                }
                let (callee, argc) = (parsed.callee(&file.code, call), parsed.args(call).len());
                let shape = index.shape(r);
                let by_name = index.resolve(callee, call.is_method, argc);
                assert_eq!(shape.map(std::ptr::from_ref), by_name.map(std::ptr::from_ref), "{at}");
                let members: Vec<(usize, &FnInfo<'_>)> = (index.fns.get(callee).into_iter())
                    .flatten()
                    .enumerate()
                    .filter(|(_, f)| f.sig.has_self == call.is_method && f.sig.arity() == argc)
                    .collect();
                match shape {
                    None => assert!(members.is_empty(), "{at}"),
                    Some(shape) => {
                        assert_eq!(
                            (shape.first, shape.count),
                            (members[0].0, members.len()),
                            "{at}"
                        );
                        assert_eq!(shape.all_panic, members.iter().all(|(_, f)| f.panics > 0));
                        let unit = |f: &FnInfo<'_>, p: usize| {
                            let ty = f.file.parsed.text(&f.file.parsed.params(f.sig)[p].ty);
                            index.unit_types.contains(referent(ty))
                        };
                        let want: Vec<bool> =
                            (0..argc).map(|p| members.iter().all(|(_, f)| unit(f, p))).collect();
                        assert_eq!(index.unit_params(shape), want, "{at}");
                        seen[0] += 1;
                    }
                }
                assert_eq!(r.is_unit_constructor(), index.unit_types.contains(callee), "{at}");
                assert_eq!(r.fans_out(), PAR_ENTRY_POINTS.contains(&callee), "{at}");
                seen[1] += usize::from(r.is_unit_constructor());
                seen[2] += usize::from(r.fans_out());
            }
        }
        seen
    }

    /// A seeded workspace of `n` files over five crates: functions whose
    /// names collide across files, with the names of unit newtypes and of
    /// fan-out entry points among them, free and in `impl` blocks, of
    /// arity 0–3 with unit and other parameter types, some panicking;
    /// newtypes declared in random files; and calls of those names, free
    /// and as methods, nested, turbofished and in fan-out closures, some
    /// in test regions and binaries.
    pub(crate) fn resolution_soup(seed: u64, n: usize) -> Vec<SourceFile> {
        let mut next = draws(seed);
        let names = [
            "plan", "plan", "set", "scale", "run", "Joules", "Volts", "par_map", "par_grid",
            "r#match", "fold", "sum", "spread", "risky",
        ];
        let types = ["Watts", "&Watts", "&mut Watts", "Volts", "f64", "usize", "Option<Watts>"];
        let args = ["1.5", "x.0", "n", "Watts(2.0)", "cap.0 * 1.05", "|a, b| a + b", "\"s\""];
        let crates = ["vap-core", "vap-sim", "vap-report", "vap-exec", "vap-model"];
        (0..n)
            .map(|k| {
                let mut src = String::new();
                let call = |src: &mut String, next: &mut dyn FnMut(usize) -> usize| {
                    let argc = next(4);
                    let list: Vec<&str> = (0..argc).map(|_| args[next(args.len())]).collect();
                    let name = names[next(names.len())];
                    let recv = ["", "x.", "vap_exec::", "self."][next(4)];
                    let fish = ["", "::<f64>"][next(2)];
                    let inner = if next(3) == 0 {
                        format!("{}(y)", names[next(names.len())])
                    } else {
                        String::new()
                    };
                    src.push_str(&format!(
                        "    let _ = {recv}{name}{fish}({}{inner});\n",
                        list.join(", ")
                    ));
                };
                for _ in 0..1 + next(5) {
                    match next(6) {
                        0 => src.push_str(&format!(
                            "pub struct {}(pub f64);\n",
                            ["Volts", "Alpha", "Count"][next(3)]
                        )),
                        1 => {
                            src.push_str("#[cfg(test)]\nmod tests {\n    fn t() {\n");
                            call(&mut src, &mut next);
                            src.push_str("    }\n}\n");
                        }
                        m => {
                            let params: Vec<String> = (0..next(4))
                                .map(|p| format!("p{p}: {}", types[next(types.len())]))
                                .collect();
                            let (open, recv, close) = if m == 2 {
                                ("impl Node {\n", "&self, ", "}\n")
                            } else {
                                ("", "", "")
                            };
                            src.push_str(&format!(
                                "{open}pub fn {}({recv}{}) -> f64 {{\n",
                                names[next(names.len())],
                                params.join(", ")
                            ));
                            if next(2) == 0 {
                                src.push_str("    o.unwrap();\n");
                            }
                            for _ in 0..next(4) {
                                call(&mut src, &mut next);
                            }
                            src.push_str(&format!("    0.0\n}}\n{close}"));
                        }
                    }
                }
                let krate = crates[next(crates.len())];
                let file = ["lib.rs", "bin/tool.rs", "units.rs", "main.rs"][next(4)];
                let path = format!("crates/{}/src/{k}/{file}", &krate[4..]);
                SourceFile::from_source(&path, krate, &src)
            })
            .collect()
    }

    /// A SplitMix64 stream seeded by `seed`, drawn as `next(k)` in `0..k`.
    pub(crate) fn draws(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed;
        move |k| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % k as u64) as usize
        }
    }

    /// A seeded workspace of `n` files, each a random run of call pieces —
    /// callees that name indexed functions, units and fan-outs, opened
    /// free, as methods, by path or turbofished, nested, with closure
    /// heads, literals, comments and CRLF ends, some never closed — with
    /// test regions and fn headers among them, plus one file of the
    /// definitions the calls resolve to.
    pub(crate) fn call_soup(seed: u64, n: usize) -> Vec<SourceFile> {
        let mut next = draws(seed);
        let pieces = [
            "set_cap(",
            "scale(",
            "spread(",
            "risky(",
            "Node::new(",
            "x.fold(",
            "xs.sum::<f64>(",
            "vap_core::budget::plan(",
            "par_map(&xs, 2, ",
            "vap_exec::par_grid(",
            ".par_map_fleet(",
            "Watts(",
            "Volts(",
            "g::<>(",
            "println!(",
            "r#match(",
            ")",
            ")",
            "), ",
            ", ",
            ",,",
            "|a, b| ",
            "move |x| ",
            "||",
            "{ ",
            "} ",
            "2.5",
            "x.0",
            "cap.0 * 1.05",
            "(a + b).0",
            "\"s\"",
            "'c'",
            "r#\"q\"#",
            "/* c */",
            "// note\n",
            "\n",
            "\r\n",
            " ",
            "#[cfg(test)]\nmod t {\n",
            "}\n",
            "fn f() {\n",
            "pub fn g(cap: Watts) -> f64 {\n",
        ];
        let defs = "pub struct Volts(pub f64);\npub fn set_cap(cap: Watts, n: usize) {}\n\
                    pub fn scale(a: &Watts, k: f64) -> f64 { o.unwrap() }\n\
                    pub fn spread(a: Watts, b: Watts, c: usize) {}\n\
                    pub fn risky() { panic!() }\nimpl Node {\n    pub fn new(x: f64) -> Self { o.unwrap() }\n    \
                    pub fn fold(&self, a: f64, f: F) -> f64 { 0.0 }\n}\n";
        let crates = ["vap-sim", "vap-exec", "vap-core", "vap-report", "vap-daemon", "vap"];
        let mut files = vec![SourceFile::from_source("crates/core/src/defs.rs", "vap-core", defs)];
        for k in 0..n {
            let text: String = (0..next(120)).map(|_| pieces[next(pieces.len())]).collect();
            let krate = crates[next(crates.len())];
            let path = format!("crates/{k}/src/{}", ["lib.rs", "bin/b.rs", "main.rs"][next(3)]);
            files.push(SourceFile::from_source(&path, krate, &text));
        }
        files
    }

    #[test]
    fn every_call_is_resolved_once_as_its_callee_name_resolves() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
        let fixture: Vec<SourceFile> = crate::walker::workspace_files(&root)
            .expect("the fixture workspace")
            .iter()
            .map(|wf| {
                let text = std::fs::read_to_string(&wf.abs).expect("a fixture source");
                SourceFile::from_source(&wf.rel, &wf.crate_name, &text)
            })
            .collect();
        let mut seen = [0; 4];
        let soups = (0..40).flat_map(|seed| [resolution_soup(seed, 30), call_soup(seed, 30)]);
        for files in std::iter::once(fixture).chain(soups) {
            let index = SymbolIndex::build(&files, BTreeMap::new());
            for (s, n) in seen.iter_mut().zip(check_resolutions(&files, &index)) {
                *s += n;
            }
            // a file the index was not built over, even an equal copy,
            // has no resolutions
            let copy = files[0].clone();
            assert!(index.resolutions(&copy).is_empty());
        }
        let [shapes, units, fan_outs, tests] = seen;
        assert!(shapes > 2_000 && units > 1_000 && fan_outs > 1_000 && tests > 1_000, "{seen:?}");
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
        assert!(index.unit_types.contains("Watts"));
        assert!(index.unit_types.contains("Alpha"));
        assert!(!index.unit_types.contains("Count"));
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
