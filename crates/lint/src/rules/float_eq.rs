//! `float-eq`: no exact `==` / `!=` on floating-point values.
//!
//! Exact float equality silently misclassifies values a ULP away — a
//! near-zero variance slipping past `sxx == 0.0` turns a correlation
//! into `inf`. Comparisons must use an explicit tolerance.
//!
//! Without type inference the rule keys on the operands: a comparison
//! fires when either side is a floating-point literal (`0.0`, `-1.0`, `1e-6`,
//! `2f64`) or an `f64::`/`f32::` associated constant. Variable-vs-
//! variable float comparisons are out of reach of a lexical pass — the
//! literal form is both the common and the dangerous one.

use super::{Context, Rule};
use crate::diag::{Finding, Status};
use crate::source::SourceFile;

/// The `float-eq` rule.
pub struct FloatEq;

impl Rule for FloatEq {
    fn name(&self) -> &'static str {
        "float-eq"
    }

    fn description(&self) -> &'static str {
        "no ==/!= against floating-point operands outside tests"
    }

    fn check(&self, file: &SourceFile, _ctx: &Context<'_>, out: &mut Vec<Finding>) {
        for (i, line) in file.code.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            for (pos, op) in comparison_ops(line) {
                let lhs = token_before(line, pos);
                let rhs = token_after(line, pos + 2);
                if is_float_operand(lhs) || is_float_operand(rhs) {
                    out.push(Finding {
                        rule: "float-eq",
                        path: file.path.clone(),
                        line: i + 1,
                        column: pos + 1,
                        message: format!("floating-point `{op}` comparison"),
                        snippet: file.snippet(i).to_string(),
                        help: "compare with an explicit tolerance, e.g. \
                               `(a - b).abs() < EPS` or a documented near-zero guard",
                        status: Status::New,
                    });
                }
            }
        }
    }
}

/// Byte positions of real `==` / `!=` operators (not `<=`, `>=`, `=>`,
/// `+=`, `===`-like runs, or pattern `..=`). A `-` right after `==` is a
/// unary minus (`x ==-1.0`), not part of an operator run.
fn comparison_ops(line: &str) -> Vec<(usize, &'static str)> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < bytes.len() {
        let pair = &bytes[i..i + 2];
        if pair == b"==" {
            let before = i.checked_sub(1).map(|j| bytes[j]);
            let after = bytes.get(i + 2);
            let op_char = |b: Option<&u8>| {
                matches!(b, Some(b'=' | b'<' | b'>' | b'!' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^' | b'.'))
            };
            if !op_char(before.as_ref()) && (after == Some(&b'-') || !op_char(after)) {
                out.push((i, "=="));
            }
            i += 2;
        } else if pair == b"!=" && bytes.get(i + 2) != Some(&b'=') {
            out.push((i, "!="));
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// Can byte `c` sit inside an operand-ish token?
fn is_word_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b':')
}

/// The operand-ish token ending just before byte `pos` (skipping spaces).
/// An exponent sign belongs to the token only after a digit mantissa and
/// `e`/`E` (`1e-9`, `2.5E+3`), so `n-1` and `e-1` end at the `1`.
fn token_before(line: &str, pos: usize) -> &str {
    let head = line[..pos].trim_end();
    let b = head.as_bytes();
    let mut start = b.len();
    while start > 0 {
        let c = b[start - 1];
        let exponent_sign = matches!(c, b'-' | b'+')
            && start >= 3
            && matches!(b[start - 2], b'e' | b'E')
            && b[start - 3].is_ascii_digit()
            && b.get(start).is_some_and(u8::is_ascii_digit);
        if is_word_byte(c) || exponent_sign {
            start -= 1;
        } else {
            break;
        }
    }
    // every byte taken is ASCII, so `start` is a char boundary
    &head[start..]
}

/// The operand-ish token starting at/after byte `pos` (skipping spaces),
/// with a leading unary minus (`-1.0`).
fn token_after(line: &str, pos: usize) -> &str {
    let rest = line[pos..].trim_start();
    let sign = usize::from(rest.starts_with('-'));
    let len = rest.as_bytes()[sign..]
        .iter()
        .take_while(|&&c| is_word_byte(c))
        .count();
    &rest[..sign + len]
}

/// Is `tok` a float literal (`1.0`, `-1.0`, `1e-6`, `2f64`) or an
/// `f64::`/`f32::` constant path?
fn is_float_operand(tok: &str) -> bool {
    let tok = tok.strip_prefix('-').unwrap_or(tok);
    if tok.starts_with("f64::") || tok.starts_with("f32::") {
        return true;
    }
    let t = tok.trim_end_matches("f64").trim_end_matches("f32");
    let mut chars = t.chars();
    let Some(first) = chars.next() else { return false };
    if !first.is_ascii_digit() {
        return false;
    }
    if t.starts_with("0x") || t.starts_with("0b") || t.starts_with("0o") {
        return false;
    }
    // a float literal has a decimal point or an exponent; `2f64` had its
    // suffix stripped above, leaving a bare int — catch it by comparing
    // lengths
    t.contains('.') || t.contains('e') || t.contains('E') || t.len() != tok.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn findings(src: &str) -> Vec<Finding> {
        let f = SourceFile::from_source("crates/stats/src/x.rs", "vap-stats", src);
        let mut out = Vec::new();
        FloatEq.check(&f, &Context { index: &crate::index::SymbolIndex::default() }, &mut out);
        out.retain(|fi| !f.is_allowed(fi.rule, fi.line - 1));
        out
    }

    #[test]
    fn fires_on_float_literal_comparisons() {
        assert_eq!(findings("if sxx == 0.0 || syy == 0.0 {\n").len(), 2);
        assert_eq!(findings("if x != 1e-6 {\n").len(), 1);
        assert_eq!(findings("if 2.5 == y {\n").len(), 1);
        assert_eq!(findings("if x == 2f64 {\n").len(), 1);
        assert_eq!(findings("if x == f64::INFINITY {\n").len(), 1);
        // negative literals and signed exponents, on either side
        assert_eq!(findings("if x == 1e-9 {\n").len(), 1);
        assert_eq!(findings("if 1e-9 == x {\n").len(), 1);
        assert_eq!(findings("if x == -1.0 {\n").len(), 1);
        assert_eq!(findings("if x ==-1.0 {\n").len(), 1);
        assert_eq!(findings("if x != 2.5E+3 {\n").len(), 1);
        assert_eq!(findings("if 2.5E+3 != x {\n").len(), 1);
    }

    #[test]
    fn quiet_on_integer_and_structural_comparisons() {
        let src = "if xs.len() != ys.len() { }\nif i % 2 == 0 { }\n\
                   if name == other { }\nlet f = |x| x <= 0.5;\nlet g = x >= 1.0;\n\
                   for i in 0..=3 { }\nif version == 1 { }\n\
                   if i == -1 { }\nif n-1 == m { }\nif e-1 == x { }\n\
                   if i ==-1 { }\nif x ==-y { }\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { assert!(x == 0.0); }\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "if x == 0.0 { } // vap:allow(float-eq): sentinel compares exactly\n";
        assert!(findings(src).is_empty());
    }
}
