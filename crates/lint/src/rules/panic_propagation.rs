//! `panic-propagation`: debt must not hide behind a wrapper.
//!
//! `no-panic-in-lib` sees the `.unwrap()` itself; once that finding is
//! baselined, every *caller* of the panicking function looks clean while
//! still being one edge case away from killing a campaign hours in. This
//! rule uses the symbol index's per-function panic counts to flag library
//! call sites whose callee — resolved by name, receiver kind and arity —
//! is a workspace function containing a (possibly baselined) panic.
//!
//! Resolution is conservative: when several workspace functions share the
//! callee's shape, the call is flagged only if **every** candidate
//! panics; a single clean candidate keeps name collisions quiet. The index
//! decides that once per shape ([`crate::index::CallShape::all_panic`])
//! and resolves every call to its shape once, when it is built; the rule
//! walks the file's calls beside those resolutions, reads a callee's name
//! only to build a finding, and names the shape's first member. Functions
//! whose panics are all `vap:allow`'d count as clean — the allow already
//! argued unreachability.

use super::{Context, Rule};
use crate::diag::Finding;
use crate::parse::FnSig;
use crate::source::SourceFile;

/// The rule's name.
pub(crate) const NAME: &str = "panic-propagation";

const HELP: &str = "burn down the panic in the callee (return a Result) so the debt stops \
                    spreading; vap:allow with a reason if this call provably cannot hit the \
                    panicking path";

/// The `panic-propagation` rule.
pub struct PanicPropagation;

impl Rule for PanicPropagation {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "no library calls into workspace functions that contain (baselined) panics"
    }

    fn check(&self, file: &SourceFile, ctx: &Context<'_>, out: &mut Vec<Finding>) {
        // binaries may panic at top level, so they may also call panickers
        if file.is_bin() {
            return;
        }
        // a call on a test line resolved to nothing
        for (call, &resolved) in file.parsed.calls.iter().zip(ctx.index.resolutions(file)) {
            let Some(shape) = ctx.index.shape(resolved).filter(|s| s.all_panic) else {
                continue;
            };
            let line = call.line();
            let def = ctx.index.first_member(file.parsed.callee(&file.code, call), shape);
            // the panicking function's own body reports via no-panic-in-lib;
            // don't double-flag recursion onto itself
            if shape.count == 1
                && def.file.path == file.path
                && def.sig.body().is_some_and(|(a, b)| line >= a && line <= b)
                && def.sig.line() == file.parsed.enclosing_fn(line).map_or(usize::MAX, FnSig::line)
            {
                continue;
            }
            let caller = file.parsed.enclosing_fn(line).map(|f| file.parsed.qualified(f));
            let message = format!(
                "{} calls `{}` ({}:{}), which contains {} baselined panic{}",
                caller.map_or_else(|| "this code".to_string(), |f| format!("`{f}`")),
                def.file.parsed.qualified(def.sig),
                def.file.path,
                def.sig.line() + 1,
                def.panics,
                if def.panics == 1 { "" } else { "s" },
            );
            out.push(file.finding(NAME, line, call.col(), message, HELP));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(files: &[(&str, &str, &str)]) -> Vec<Finding> {
        crate::rules::tests::findings(&PanicPropagation, files, &[])
    }

    const PANICKER: (&str, &str, &str) = (
        "crates/workloads/src/kernels/ep.rs",
        "vap-workloads",
        "pub fn run_pairs(n: usize) -> f64 {\n    inner(n).expect(\"ep scope failed\")\n}\n",
    );

    #[test]
    fn call_into_baselined_panicker_fires() {
        let hits = findings(&[
            PANICKER,
            (
                "crates/sim/src/bench.rs",
                "vap-sim",
                "pub fn calibrate() -> f64 {\n    run_pairs(1 << 16)\n}\n",
            ),
        ]);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("run_pairs"));
        assert!(hits[0].message.contains("kernels/ep.rs:1"));
        assert!(hits[0].message.contains("`calibrate`"));
    }

    #[test]
    fn clean_callees_and_allowed_panics_are_quiet() {
        let files = [
            (
                "crates/core/src/a.rs",
                "vap-core",
                "pub fn clean(n: usize) -> usize {\n    n + 1\n}\n",
            ),
            (
                "crates/core/src/b.rs",
                "vap-core",
                "pub fn vetted(n: usize) -> usize {\n    // vap:allow(no-panic-in-lib): n is validated at the API boundary\n    TABLE.get(n).unwrap()\n}\n",
            ),
            ("crates/sim/src/x.rs", "vap-sim", "pub fn f() {\n    clean(1);\n    vetted(2);\n}\n"),
        ];
        let hits = findings(&files);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn name_collisions_with_one_clean_candidate_stay_quiet() {
        let files = [
            (
                "crates/core/src/a.rs",
                "vap-core",
                "pub fn lookup(n: usize) -> usize {\n    m.get(n).unwrap()\n}\n",
            ),
            (
                "crates/stats/src/b.rs",
                "vap-stats",
                "pub fn lookup(n: usize) -> usize {\n    n\n}\n",
            ),
            ("crates/sim/src/x.rs", "vap-sim", "pub fn f() {\n    lookup(1);\n}\n"),
        ];
        let hits = findings(&files);
        assert!(hits.is_empty());
    }

    #[test]
    fn arity_and_receiver_kind_must_match() {
        let hits = findings(&[
            PANICKER,
            (
                "crates/sim/src/x.rs",
                "vap-sim",
                "pub fn f() {\n    run_pairs(1, 2);\n    x.run_pairs(3);\n}\n",
            ),
        ]);
        assert!(hits.is_empty(), "wrong arity / method kind must not match");
    }

    #[test]
    fn binaries_and_tests_are_exempt() {
        let hits = findings(&[
            PANICKER,
            ("crates/report/src/bin/fig9.rs", "vap-report", "fn main() {\n    run_pairs(16);\n}\n"),
        ]);
        assert!(hits.is_empty());
        let hits = findings(&[
            PANICKER,
            (
                "crates/sim/src/x.rs",
                "vap-sim",
                "#[cfg(test)]\nmod tests {\n    fn t() {\n        run_pairs(16);\n    }\n}\n",
            ),
        ]);
        assert!(hits.is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "pub fn f() {\n    // vap:allow(panic-propagation): n is a compile-time power of two\n    run_pairs(16);\n}\n";
        let hits = findings(&[PANICKER, ("crates/sim/src/x.rs", "vap-sim", src)]);
        assert!(hits.is_empty());
    }
}
