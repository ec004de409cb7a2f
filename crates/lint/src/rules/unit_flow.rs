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
use crate::diag::Finding;
use crate::index::referent;
use crate::parse::{has_projection, is_bare_f64_arg, type_mentions};
use crate::source::SourceFile;

/// The rule's name.
pub(crate) const NAME: &str = "unit-flow";

const REWRAP_HELP: &str = "convert through the dimensional ops in vap-model \
                           (crates/model/src/units.rs) or name the conversion in a dedicated \
                           function; vap:allow with a reason if the rewrap is a deliberate unit \
                           change";

const ARG_HELP: &str = "wrap the value in the unit the callee declares (e.g. Watts(x)) at the \
                        point where its meaning is known";

const RETURN_HELP: &str = "return a unit newtype (or a named dimensionless wrapper) so the \
                           quantity's meaning survives the API boundary; vap:allow with a \
                           reason for genuinely dimensionless ratios";

/// The `unit-flow` rule.
pub struct UnitFlow;

impl Rule for UnitFlow {
    fn name(&self) -> &'static str {
        NAME
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
            if file.is_test(call.line) {
                continue;
            }
            let (callee, args) = (file.parsed.callee(&file.code, call), file.parsed.args(call));
            // unit constructor laundering: Watts(x.0), Watts((a + b).0)
            if index.is_unit_type(callee) {
                if let [arg] = args {
                    if has_projection(file.parsed.arg_toks(&file.code, arg)) {
                        let message = format!(
                            "`{callee}({})` re-wraps a raw `.0` projection — the source unit is lost",
                            file.parsed.arg_text(&file.code, arg),
                        );
                        out.push(file.finding(NAME, call.line, call.col, message, REWRAP_HELP));
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
                let message = format!(
                    "bare f64 `{}` passed to `{callee}` parameter `{}: {}`",
                    file.parsed.arg_text(&file.code, arg),
                    param.name,
                    referent(&param.ty),
                );
                out.push(file.finding(NAME, call.line, call.col, message, ARG_HELP));
            }
        }
        // pub library fns returning bare f64 computed from unit inputs
        if file.is_bin() {
            return;
        }
        for sig in &file.parsed.fns {
            if !sig.is_pub || file.is_test(sig.line) {
                continue;
            }
            let Some(ret) = sig.ret.as_deref() else { continue };
            if !type_mentions(ret, "f64") {
                continue;
            }
            let Some(up) = sig.params.iter().find(|p| index.mentions_unit(&p.ty)) else {
                continue;
            };
            let message = format!(
                "pub fn `{}` takes unit-typed `{}: {}` but returns bare `{ret}`",
                sig.qualified, up.name, up.ty,
            );
            out.push(file.finding(NAME, sig.line, 0, message, RETURN_HELP));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(files: &[(&str, &str, &str)]) -> Vec<Finding> {
        crate::rules::tests::findings(&UnitFlow, files, &[])
    }

    const CORE: (&str, &str, &str) = (
        "crates/core/src/budget.rs",
        "vap-core",
        "pub fn plan(cap: Watts, n: usize) -> GigaHertz {\n    GigaHertz(1.2)\n}\n",
    );

    #[test]
    fn literal_into_unit_param_across_crates_fires() {
        let hits = findings(&[
            CORE,
            ("crates/sim/src/run.rs", "vap-sim", "fn sweep() {\n    let f = plan(47.5, 4);\n}\n"),
        ]);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("Watts"), "{}", hits[0].message);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn projection_arithmetic_into_unit_param_fires() {
        let hits = findings(&[
            CORE,
            (
                "crates/sim/src/run.rs",
                "vap-sim",
                "fn sweep(old: Watts) {\n    let f = plan(old.0 * 1.05, 4);\n}\n",
            ),
        ]);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn wrapped_value_and_plain_ident_are_quiet() {
        let src = "fn sweep(cap: Watts) {\n    let a = plan(Watts(47.5), 4);\n    let b = plan(cap, 4);\n}\n";
        let hits = findings(&[CORE, ("crates/sim/src/run.rs", "vap-sim", src)]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn non_unit_params_accept_literals() {
        // the usize position takes a literal without complaint
        let hits = findings(&[
            CORE,
            (
                "crates/sim/src/run.rs",
                "vap-sim",
                "fn sweep(cap: Watts) {\n    let f = plan(cap, 4);\n}\n",
            ),
        ]);
        assert!(hits.is_empty());
    }

    #[test]
    fn constructor_laundering_fires() {
        let hits = findings(&[(
            "crates/core/src/x.rs",
            "vap-core",
            "fn f(freq: GigaHertz) -> Watts {\n    Watts(freq.0 * 8.0)\n}\n",
        )]);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("re-wraps"));
    }

    #[test]
    fn constructor_from_literal_is_fine() {
        let hits = findings(&[(
            "crates/core/src/x.rs",
            "vap-core",
            "fn f() -> Watts {\n    Watts(47.5)\n}\n",
        )]);
        assert!(hits.is_empty());
    }

    #[test]
    fn pub_fn_returning_f64_from_unit_inputs_fires() {
        let src =
            "pub fn headroom(cap: Watts, used: Watts) -> f64 {\n    cap.value() - used.value()\n}\n";
        let hits = findings(&[("crates/core/src/x.rs", "vap-core", src)]);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("headroom"));
    }

    #[test]
    fn raw_identifier_names_are_indexed() {
        // `r#match` is one name, so both findings fire as they do for `m`
        let src = "pub fn r#match(cap: Watts) -> f64 {\n    cap.0\n}\n\
                   fn sweep() {\n    let f = r#match(1.5 * 2.0);\n}\n";
        let hits = findings(&[("crates/core/src/x.rs", "vap-core", src)]);
        assert_eq!(hits.iter().map(|f| f.line).collect::<Vec<_>>(), [5, 1]);
    }

    #[test]
    fn private_fns_and_unit_returns_are_quiet() {
        let src = "fn headroom(cap: Watts) -> f64 {\n    cap.value()\n}\n\
                   pub fn scaled(cap: Watts) -> Watts {\n    cap\n}\n\
                   pub fn count(n: usize) -> f64 {\n    n as f64\n}\n";
        assert!(findings(&[("crates/core/src/x.rs", "vap-core", src)]).is_empty());
    }

    #[test]
    fn units_rs_is_exempt() {
        let hits = findings(&[(
            "crates/model/src/units.rs",
            "vap-model",
            "pub fn kilowatts(w: Watts) -> f64 {\n    Watts(w.0 / 1000.0).0\n}\n",
        )]);
        assert!(hits.is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let hits = findings(&[(
            "crates/core/src/x.rs",
            "vap-core",
            "// vap:allow(unit-flow): efficiency is a documented dimensionless ratio\n\
             pub fn efficiency(p: Watts, f: GigaHertz) -> f64 {\n    f.0 / p.0\n}\n",
        )]);
        assert!(hits.is_empty());
    }
}
