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
use crate::diag::Finding;
use crate::source::SourceFile;

/// The rule's name.
pub(crate) const NAME: &str = "float-eq";

const HELP: &str = "compare with an explicit tolerance, e.g. `(a - b).abs() < EPS` or a \
                    documented near-zero guard";

/// The `float-eq` rule.
pub struct FloatEq;

impl Rule for FloatEq {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "no ==/!= against floating-point operands outside tests"
    }

    fn check(&self, file: &SourceFile, _ctx: &Context<'_>, out: &mut Vec<Finding>) {
        for (i, line) in file.code.iter().enumerate() {
            if file.is_test(i) {
                continue;
            }
            for (pos, op) in comparison_ops(line) {
                let lhs = token_before(line, pos);
                let rhs = token_after(line, pos + 2);
                if is_float_operand(lhs) || is_float_operand(rhs) {
                    let message = if op == "==" {
                        "floating-point `==` comparison"
                    } else {
                        "floating-point `!=` comparison"
                    };
                    out.push(file.finding(NAME, i, pos, message, HELP));
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
        // both operators end in `=`: jump to the byte before the next one.
        // Search the bytes, since `i + 1` may fall inside a multi-byte
        // character (`é == 1.0`), where slicing the `&str` would panic
        let Some(skip) = bytes[i + 1..].iter().position(|&c| c == b'=') else { break };
        i += skip;
        let pair = &bytes[i..i + 2];
        if pair == b"==" {
            let before = i.checked_sub(1).map(|j| bytes[j]);
            let after = bytes.get(i + 2);
            let op_char = |b: Option<&u8>| {
                matches!(
                    b,
                    Some(
                        b'=' | b'<'
                            | b'>'
                            | b'!'
                            | b'+'
                            | b'-'
                            | b'*'
                            | b'/'
                            | b'%'
                            | b'&'
                            | b'|'
                            | b'^'
                            | b'.'
                    )
                )
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

/// Is `b[i]` an exponent's sign: a `-`/`+` after a digit mantissa and
/// `e`/`E`, before a digit (`1e-9`, `2.5E+3`, but not `n-1` or `e-1`)?
fn is_exponent_sign(b: &[u8], i: usize) -> bool {
    matches!(b[i], b'-' | b'+')
        && i >= 2
        && matches!(b[i - 1], b'e' | b'E')
        && b[i - 2].is_ascii_digit()
        && b.get(i + 1).is_some_and(u8::is_ascii_digit)
}

/// The operand-ish token ending just before byte `pos` (skipping spaces),
/// an exponent's sign included.
fn token_before(line: &str, pos: usize) -> &str {
    let head = line[..pos].trim_end();
    let b = head.as_bytes();
    let mut start = b.len();
    while start > 0 && (is_word_byte(b[start - 1]) || is_exponent_sign(b, start - 1)) {
        start -= 1;
    }
    // every byte taken is ASCII, so `start` is a char boundary
    &head[start..]
}

/// The operand-ish token starting at/after byte `pos` (skipping spaces),
/// with a leading unary minus (`-1.0`) and an exponent's sign.
fn token_after(line: &str, pos: usize) -> &str {
    let rest = line[pos..].trim_start();
    let b = rest.as_bytes();
    let mut end = usize::from(rest.starts_with('-'));
    while end < b.len() && (is_word_byte(b[end]) || is_exponent_sign(b, end)) {
        end += 1;
    }
    &rest[..end]
}

/// Is `tok` a float literal (`1.0`, `-1.0`, `1e-6`, `2f64`) or an
/// `f64::`/`f32::` constant path?
fn is_float_operand(tok: &str) -> bool {
    let tok = tok.strip_prefix('-').unwrap_or(tok);
    tok.starts_with("f64::") || tok.starts_with("f32::") || crate::parse::is_float_literal(tok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        crate::rules::tests::findings(&FloatEq, &[("crates/stats/src/x.rs", "vap-stats", src)], &[])
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
    fn integer_suffixes_are_not_exponents() {
        // the `e` of `usize`/`isize` ends the token; a signed exponent
        // is read whole on either side
        assert!(findings("if n == 1usize {\n").is_empty());
        assert!(findings("if i != 0isize {\n").is_empty());
        assert_eq!(findings("if x == 1e-9 {\n").len(), 1);
        assert_eq!(findings("if 2.5E+3 != x {\n").len(), 1);
    }

    #[test]
    fn multi_byte_code_before_an_operator() {
        // a scrubbed line may start with a multi-byte identifier
        // character, so the scan for `=` must not slice inside it
        let found = findings("é == 1.0\nlet é·x = a != 2.0;\n");
        let at: Vec<(usize, usize)> = found.iter().map(|f| (f.line, f.column)).collect();
        assert_eq!(at, [(1, 4), (2, 15)]);
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
