//! `unit-flow`: raw `f64` values must not cross unit boundaries.
//!
//! The index-aware escalation of `raw-unit-f64`. That rule sees a single
//! declaration; this one follows values *across* functions through the
//! symbol index:
//!
//! * a call site passing a bare `f64` expression — a float literal,
//!   a `.0` newtype projection, or arithmetic over projections — to a
//!   parameter whose indexed type is a unit newtype (`Watts`,
//!   `GigaHertz`, `Seconds`, `Joules`, or a discovered `f64` newtype).
//!   rustc rejects the literal case too, but the lint fires pre-compile
//!   and names the unit the callee expects;
//! * a unit constructor fed another value's `.0` projection —
//!   `Watts(cap.0 * 1.05)` launders a `GigaHertz` (or any other unit)
//!   into `Watts` without the type system noticing;
//! * a `pub` library function that takes unit-typed inputs but returns
//!   bare `f64` — the boundary where dimensioned values escape back into
//!   untyped space and Eq. 1–9 bookkeeping silently degrades.
//!
//! A call resolves to its call shape in the index
//! ([`crate::index::SymbolIndex::resolve`]): every function with the
//! callee's bare name, receiver kind and arity. The shape already knows,
//! per parameter, whether every one of them declares it unit-typed, so
//! the rule looks at an argument only where they all agree, and names the
//! unit and parameter of the shape's first member. The `pub fn` check asks
//! [`crate::index::SymbolIndex::mentions_unit`] about each parameter type.
//!
//! `crates/model/src/units.rs` is exempt: the dimensional algebra
//! (`Watts * Seconds -> Joules`, `.value()`, …) legitimately manipulates
//! raw inner values.

use super::{Context, Rule};
use crate::diag::{Finding, Status};
use crate::index::referent;
use crate::parse::{has_projection, is_bare_f64_arg, type_mentions};
use crate::source::SourceFile;

/// The `unit-flow` rule.
pub struct UnitFlow;

impl Rule for UnitFlow {
    fn name(&self) -> &'static str {
        "unit-flow"
    }

    fn description(&self) -> &'static str {
        "no bare f64 into unit-typed parameters, unit re-wrapping via .0, or pub fns returning f64 from unit inputs"
    }

    fn check(&self, file: &SourceFile, ctx: &Context<'_>, out: &mut Vec<Finding>) {
        // the unit algebra itself works on raw inner values by design
        if file.path.ends_with("/units.rs") {
            return;
        }
        let index = ctx.index;
        for call in &file.parsed.calls {
            if file.in_test.get(call.line).copied().unwrap_or(false) {
                continue;
            }
            let (callee, args) = (file.parsed.callee(&file.code, call), file.parsed.args(call));
            // unit constructor laundering: Watts(x.0), Watts((a + b).0)
            if index.is_unit_type(callee) {
                if let [arg] = args {
                    if has_projection(file.parsed.arg_toks(&file.code, arg)) {
                        out.push(Finding {
                            rule: "unit-flow",
                            path: file.path.clone(),
                            line: call.line + 1,
                            column: call.col + 1,
                            message: format!(
                                "`{callee}({})` re-wraps a raw `.0` projection — the source unit is lost",
                                file.parsed.arg_text(&file.code, arg),
                            ),
                            snippet: file.snippet(call.line).to_string(),
                            help: "convert through the dimensional ops in vap-model \
                                   (crates/model/src/units.rs) or name the conversion in a \
                                   dedicated function; vap:allow with a reason if the rewrap \
                                   is a deliberate unit change",
                            status: Status::New,
                        });
                    }
                }
                continue;
            }
            // bare f64 expression into a unit-typed parameter; conservative:
            // only where every candidate agrees the parameter is unit-typed
            // (name collisions stay quiet), which the shape knows already
            let Some(shape) = index.resolve(callee, call.is_method, args.len()) else {
                continue;
            };
            let units = index.unit_params(shape);
            for (p, arg) in args.iter().enumerate() {
                if !units[p] || !is_bare_f64_arg(file.parsed.arg_toks(&file.code, arg)) {
                    continue;
                }
                let param = &index.first_member(callee, shape).sig.params[p];
                out.push(Finding {
                    rule: "unit-flow",
                    path: file.path.clone(),
                    line: call.line + 1,
                    column: call.col + 1,
                    message: format!(
                        "bare f64 `{}` passed to `{callee}` parameter `{}: {}`",
                        file.parsed.arg_text(&file.code, arg),
                        param.name,
                        referent(&param.ty),
                    ),
                    snippet: file.snippet(call.line).to_string(),
                    help: "wrap the value in the unit the callee declares (e.g. Watts(x)) \
                           at the point where its meaning is known",
                    status: Status::New,
                });
            }
        }
        // pub library fns returning bare f64 computed from unit inputs
        if file.is_bin() {
            return;
        }
        for sig in &file.parsed.fns {
            if !sig.is_pub || file.in_test.get(sig.line).copied().unwrap_or(false) {
                continue;
            }
            let Some(ret) = sig.ret.as_deref() else { continue };
            if !type_mentions(ret, "f64") {
                continue;
            }
            let Some(up) = sig.params.iter().find(|p| index.mentions_unit(&p.ty)) else {
                continue;
            };
            out.push(Finding {
                rule: "unit-flow",
                path: file.path.clone(),
                line: sig.line + 1,
                column: 1,
                message: format!(
                    "pub fn `{}` takes unit-typed `{}: {}` but returns bare `{ret}`",
                    sig.qualified, up.name, up.ty,
                ),
                snippet: file.snippet(sig.line).to_string(),
                help: "return a unit newtype (or a named dimensionless wrapper) so the \
                       quantity's meaning survives the API boundary; vap:allow with a \
                       reason for genuinely dimensionless ratios",
                status: Status::New,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::SymbolIndex;
    use crate::source::SourceFile;
    use std::collections::BTreeMap;

    /// Build an index over `defs` and lint `src` against it.
    fn findings(defs: &[(&str, &str, &str)], path: &str, krate: &str, src: &str) -> Vec<Finding> {
        let mut files: Vec<SourceFile> =
            defs.iter().map(|(p, k, s)| SourceFile::from_source(p, k, s)).collect();
        files.push(SourceFile::from_source(path, krate, src));
        let index = SymbolIndex::build(&files, BTreeMap::new());
        let f = files.last().unwrap();
        let mut out = Vec::new();
        UnitFlow.check(f, &Context { index: &index }, &mut out);
        out.retain(|fi| !f.is_allowed(fi.rule, fi.line - 1));
        out
    }

    const CORE: (&str, &str, &str) = (
        "crates/core/src/budget.rs",
        "vap-core",
        "pub fn plan(cap: Watts, n: usize) -> GigaHertz {\n    GigaHertz(1.2)\n}\n",
    );

    #[test]
    fn literal_into_unit_param_across_crates_fires() {
        let hits = findings(
            &[CORE],
            "crates/sim/src/run.rs",
            "vap-sim",
            "fn sweep() {\n    let f = plan(47.5, 4);\n}\n",
        );
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("Watts"), "{}", hits[0].message);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn projection_arithmetic_into_unit_param_fires() {
        let hits = findings(
            &[CORE],
            "crates/sim/src/run.rs",
            "vap-sim",
            "fn sweep(old: Watts) {\n    let f = plan(old.0 * 1.05, 4);\n}\n",
        );
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn wrapped_value_and_plain_ident_are_quiet() {
        let hits = findings(
            &[CORE],
            "crates/sim/src/run.rs",
            "vap-sim",
            "fn sweep(cap: Watts) {\n    let a = plan(Watts(47.5), 4);\n    let b = plan(cap, 4);\n}\n",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn non_unit_params_accept_literals() {
        // the usize position takes a literal without complaint
        let hits = findings(
            &[CORE],
            "crates/sim/src/run.rs",
            "vap-sim",
            "fn sweep(cap: Watts) {\n    let f = plan(cap, 4);\n}\n",
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn constructor_laundering_fires() {
        let hits = findings(
            &[],
            "crates/core/src/x.rs",
            "vap-core",
            "fn f(freq: GigaHertz) -> Watts {\n    Watts(freq.0 * 8.0)\n}\n",
        );
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("re-wraps"));
    }

    #[test]
    fn constructor_from_literal_is_fine() {
        let hits = findings(
            &[],
            "crates/core/src/x.rs",
            "vap-core",
            "fn f() -> Watts {\n    Watts(47.5)\n}\n",
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn pub_fn_returning_f64_from_unit_inputs_fires() {
        let hits = findings(
            &[],
            "crates/core/src/x.rs",
            "vap-core",
            "pub fn headroom(cap: Watts, used: Watts) -> f64 {\n    cap.value() - used.value()\n}\n",
        );
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("headroom"));
    }

    #[test]
    fn raw_identifier_names_are_indexed() {
        // `r#match` is one name, so both findings fire as they do for `m`
        let src = "pub fn r#match(cap: Watts) -> f64 {\n    cap.0\n}\n\
                   fn sweep() {\n    let f = r#match(1.5 * 2.0);\n}\n";
        let hits = findings(&[], "crates/core/src/x.rs", "vap-core", src);
        assert_eq!(hits.iter().map(|f| f.line).collect::<Vec<_>>(), [5, 1]);
    }

    #[test]
    fn private_fns_and_unit_returns_are_quiet() {
        let src = "fn headroom(cap: Watts) -> f64 {\n    cap.value()\n}\n\
                   pub fn scaled(cap: Watts) -> Watts {\n    cap\n}\n\
                   pub fn count(n: usize) -> f64 {\n    n as f64\n}\n";
        assert!(findings(&[], "crates/core/src/x.rs", "vap-core", src).is_empty());
    }

    #[test]
    fn units_rs_is_exempt() {
        let hits = findings(
            &[],
            "crates/model/src/units.rs",
            "vap-model",
            "pub fn kilowatts(w: Watts) -> f64 {\n    Watts(w.0 / 1000.0).0\n}\n",
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let hits = findings(
            &[],
            "crates/core/src/x.rs",
            "vap-core",
            "// vap:allow(unit-flow): efficiency is a documented dimensionless ratio\n\
             pub fn efficiency(p: Watts, f: GigaHertz) -> f64 {\n    f.0 / p.0\n}\n",
        );
        assert!(hits.is_empty());
    }
}
