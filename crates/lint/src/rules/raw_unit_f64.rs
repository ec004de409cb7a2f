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
//! parameters, struct fields and consts, plus `fn name(..) -> f64` for
//! unit-named functions. `let` bindings are exempt — locals routinely
//! unwrap to `f64` for statistics via `.value()`.

use super::{is_ident_char, word_occurrences, Context, Rule};
use crate::diag::{Finding, Status};
use crate::source::SourceFile;

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
        "raw-unit-f64"
    }

    fn description(&self) -> &'static str {
        "power/frequency/time/energy names must use unit newtypes, not bare f64"
    }

    fn check(&self, file: &SourceFile, _ctx: &Context<'_>, out: &mut Vec<Finding>) {
        if !SCOPE.contains(&file.crate_name.as_str()) {
            return;
        }
        for (i, line) in file.code.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            let trimmed = line.trim_start();
            // locals are exempt: statistics code unwraps via `.value()`
            if trimmed.starts_with("let ") || trimmed.starts_with("for ") {
                continue;
            }
            check_declarations(file, i, line, out);
            check_return_type(file, i, line, out);
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
        if !word_occurrences(&ty, "f64").is_empty() {
            out.push(Finding {
                rule: "raw-unit-f64",
                path: file.path.clone(),
                line: i + 1,
                column: name_start + 1,
                message: format!("`{name}` names a physical quantity but is typed bare `f64`"),
                snippet: file.snippet(i).to_string(),
                help: "use the unit newtypes from vap-model (crates/model/src/units.rs): \
                       Watts, GigaHertz, Seconds or Joules",
                status: Status::New,
            });
        }
    }
}

/// `fn unit_name(..) -> f64` return types.
fn check_return_type(file: &SourceFile, i: usize, line: &str, out: &mut Vec<Finding>) {
    let Some(fn_pos) = line.find("fn ") else { return };
    if fn_pos > 0 && line[..fn_pos].chars().next_back().is_some_and(is_ident_char) {
        return;
    }
    let after = &line[fn_pos + 3..];
    let name: String = after.trim_start().chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() || !is_unit_name(&name) {
        return;
    }
    let Some(arrow) = line.find("->") else { return };
    let ret = line[arrow + 2..].trim();
    let ret_ty: String =
        ret.chars().take_while(|&c| is_ident_char(c) || "<>:() ".contains(c)).collect();
    if !word_occurrences(&ret_ty, "f64").is_empty() {
        out.push(Finding {
            rule: "raw-unit-f64",
            path: file.path.clone(),
            line: i + 1,
            column: fn_pos + 1,
            message: format!("`fn {name}` names a physical quantity but returns bare `f64`"),
            snippet: file.snippet(i).to_string(),
            help: "use the unit newtypes from vap-model (crates/model/src/units.rs): \
                   Watts, GigaHertz, Seconds or Joules",
            status: Status::New,
        });
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
    use crate::source::SourceFile;

    fn findings(crate_name: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::from_source("x.rs", crate_name, src);
        let mut out = Vec::new();
        RawUnitF64.check(&f, &Context { index: &crate::index::SymbolIndex::default() }, &mut out);
        out.retain(|fi| !f.is_allowed(fi.rule, fi.line - 1));
        out
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
