//! `raw-unit-f64`: physical quantities must ride in unit newtypes.
//!
//! In `vap-core`, `vap-model` and `vap-sim`, a declaration whose name
//! suggests power/frequency/time/energy (`*_w`, `*power*`, `*cap*`,
//! `*ghz*`, `*budget*`, `*freq*`, `*watt*`, `*joule*`, `*energy*`,
//! `*turbo*`) must not be typed as bare `f64` — the `Watts` /
//! `GigaHertz` / `Seconds` / `Joules` newtypes in
//! `crates/model/src/units.rs` exist precisely so a module budget cannot
//! be passed where a CPU cap is expected (paper Eqs. 1–9).
//!
//! Detection is declaration-shaped: `name: <type containing f64>` for
//! parameters, struct fields and consts, found line by line, plus every
//! unit-named function whose parsed return type mentions `f64`. `let`
//! bindings and every line strictly inside a parsed fn body are exempt:
//! locals routinely unwrap to `f64` for statistics via `.value()`, and a
//! struct literal's `field: value` there is not a declaration. The
//! signature lines of a fn nested in a body, and every line of a struct
//! declared in one, are checked again.

use super::{is_ident_char, Context, Rule};
use crate::diag::Finding;
use crate::parse::type_mentions;
use crate::source::SourceFile;

/// The rule's name.
pub(crate) const NAME: &str = "raw-unit-f64";

const HELP: &str = "use the unit newtypes from vap-model (crates/model/src/units.rs): \
                    Watts, GigaHertz, Seconds or Joules";

/// Crates whose APIs must be unit-typed.
const SCOPE: [&str; 3] = ["vap-core", "vap-model", "vap-sim"];

/// Substrings that mark a name as carrying a physical quantity.
const UNIT_HINTS: [&str; 10] =
    ["power", "budget", "watt", "freq", "ghz", "joule", "energy", "turbo", "cap", "_w"];

/// Names that contain a hint substring but are not quantities.
const STOPLIST: [&str; 4] = ["capacity", "escape", "recap", "landscape"];

/// The `raw-unit-f64` rule.
pub struct RawUnitF64;

impl Rule for RawUnitF64 {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "power/frequency/time/energy names must use unit newtypes, not bare f64"
    }

    fn check(&self, file: &SourceFile, _ctx: &Context<'_>, out: &mut Vec<Finding>) {
        if !SCOPE.contains(&file.crate_name.as_str()) {
            return;
        }
        let mut in_body = vec![false; file.code.len()];
        for (a, b) in file.parsed.fns.iter().filter_map(|sig| sig.body) {
            if let Some(lines) = in_body.get_mut(a + 1..b) {
                lines.fill(true);
            }
        }
        let signatures =
            file.parsed.fns.iter().map(|sig| (sig.line, sig.body.map_or(sig.line, |(a, _)| a)));
        for (a, b) in signatures.chain(file.parsed.structs.iter().map(|s| s.lines)) {
            if let Some(lines) = in_body.get_mut(a..=b) {
                lines.fill(false);
            }
        }
        for (i, line) in file.code.iter().enumerate() {
            if file.is_test(i) || in_body[i] {
                continue;
            }
            let trimmed = line.trim_start();
            // locals are exempt: statistics code unwraps via `.value()`
            if trimmed.starts_with("let ") || trimmed.starts_with("for ") {
                continue;
            }
            check_declarations(file, i, line, out);
        }
        for sig in &file.parsed.fns {
            let returns_f64 = sig.ret.as_deref().is_some_and(|ret| type_mentions(ret, "f64"));
            if returns_f64 && is_unit_name(&sig.name) && !file.is_test(sig.line) {
                let message =
                    format!("`fn {}` names a physical quantity but returns bare `f64`", sig.name);
                out.push(file.finding(NAME, sig.line, sig.col, message, HELP));
            }
        }
    }
}

/// `name: <type with f64>` parameter / field / const declarations.
fn check_declarations(file: &SourceFile, i: usize, line: &str, out: &mut Vec<Finding>) {
    let bytes = line.as_bytes();
    for (pos, _) in line.match_indices(':') {
        // skip `::` paths
        if bytes.get(pos + 1) == Some(&b':') || (pos > 0 && bytes[pos - 1] == b':') {
            continue;
        }
        let Some((name, name_start)) = ident_before(line, pos) else { continue };
        if !is_unit_name(&name) {
            continue;
        }
        let ty = type_after(line, pos + 1);
        if type_mentions(&ty, "f64") {
            let message = format!("`{name}` names a physical quantity but is typed bare `f64`");
            out.push(file.finding(NAME, i, name_start, message, HELP));
        }
    }
}

/// The identifier directly before byte `pos`, if any.
fn ident_before(line: &str, pos: usize) -> Option<(String, usize)> {
    let head = &line[..pos];
    let trimmed = head.trim_end();
    let end = trimmed.len();
    let start = trimmed
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_ident_char(*c))
        .last()
        .map(|(i, _)| i)?;
    if start == end {
        return None;
    }
    let name = &trimmed[start..end];
    if name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some((name.to_string(), start))
}

/// The type expression after a `:` up to a top-level delimiter.
fn type_after(line: &str, from: usize) -> String {
    let mut depth = 0i32;
    let mut out = String::new();
    for c in line[from..].chars() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' if depth > 0 => depth -= 1,
            ',' | ')' | '{' | '=' | ';' if depth == 0 => break,
            _ => {}
        }
        out.push(c);
    }
    out
}

/// Does `name` look like a physical quantity (and not a stoplisted word)?
fn is_unit_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    if STOPLIST.iter().any(|s| lower.contains(s)) {
        return false;
    }
    UNIT_HINTS.iter().any(|h| if *h == "_w" { lower.ends_with("_w") } else { lower.contains(h) })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(crate_name: &str, src: &str) -> Vec<Finding> {
        crate::rules::tests::findings(&RawUnitF64, &[("x.rs", crate_name, src)], &[])
    }

    #[test]
    fn fires_on_f64_param_with_unit_name() {
        let hits = findings("vap-core", "pub fn plan(budget_w: f64) {}\n");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("budget_w"));
    }

    #[test]
    fn fires_on_struct_field_and_vec() {
        let hits = findings(
            "vap-sim",
            "pub struct R {\n    pub freq_ghz: Vec<f64>,\n    pub cap: f64,\n}\n",
        );
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn fires_on_unit_named_fn_returning_f64() {
        let hits = findings("vap-model", "pub fn total_power(&self) -> f64 {\n");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn return_types_are_read_from_the_parsed_signature() {
        // a `->` inside a parameter's type is not the return type
        let src = "pub fn power_of(f: impl Fn(u8) -> f64) -> Watts {}\n";
        assert!(findings("vap-core", src).is_empty());
        // a return type below the `fn` line, a raw identifier, an `f64`
        // after a nested `->` and one inside a slice are each read whole
        let src = "pub fn freq_table(n: usize)\n    -> f64 {\n}\npub fn r#power() -> f64 {}\n\
                   pub fn power_curve() -> impl Fn(u8) -> f64 {}\npub fn cap_w() -> &[f64] {}\n";
        let at: Vec<_> = findings("vap-core", src).iter().map(|f| (f.line, f.column)).collect();
        assert_eq!(at, [(1, 5), (4, 5), (5, 5), (6, 5)]);
    }

    #[test]
    fn struct_literals_in_fn_bodies_are_not_declarations() {
        let src = "pub struct Row {\n    pub power: Watts,\n    pub n: usize,\n}\n\
                   pub fn row(x: u8) -> Row {\n    let r = Row {\n        power: Watts(x as f64),\n\
                   \x20       n: 1,\n    };\n    Row { power: x as f64, n: 1 }\n}\n";
        assert!(findings("vap-core", src).is_empty());
        // a real field, a parameter and a nested fn's parameter still fire
        let src = "pub struct Row {\n    pub power: f64,\n}\n\
                   pub fn row(\n    cap_w: f64,\n) -> Row {\n    fn inner(budget_w: f64) {}\n\
                   \x20   Row { power: cap_w }\n}\n";
        let at: Vec<_> = findings("vap-core", src).iter().map(|f| (f.line, f.column)).collect();
        assert_eq!(at, [(2, 9), (5, 5), (7, 14)]);
        // so does a field of a struct declared in a body
        let src = "fn f() {\n    struct Local {\n        power: f64,\n    }\n}\n";
        let at: Vec<_> = findings("vap-core", src).iter().map(|f| (f.line, f.column)).collect();
        assert_eq!(at, [(3, 9)]);
    }

    #[test]
    fn quiet_on_newtypes_locals_and_dimensionless() {
        let src = "pub fn plan(budget: Watts, scale: f64) {}\n\
                   let power_sum: f64 = 0.0;\n\
                   pub fn capacity(n: f64) {}\n";
        assert!(findings("vap-core", src).is_empty());
    }

    #[test]
    fn out_of_scope_crates_are_ignored() {
        assert!(findings("vap-report", "pub total_power_w: f64,\n").is_empty());
    }

    #[test]
    fn test_code_is_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(per_module_w: f64) {}\n}\n";
        assert!(findings("vap-core", src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let src =
            "pub perf_power_corr: f64, // vap:allow(raw-unit-f64): correlation is dimensionless\n";
        assert!(findings("vap-model", src).is_empty());
        // and without the marker it fires
        assert_eq!(findings("vap-model", "pub perf_power_corr: f64,\n").len(), 1);
    }
}
