//! Diagnostics: the [`Finding`] record plus rustc-style human rendering
//! and a stable JSON format (`--format json`).

use std::borrow::Cow;
use std::fmt::Write as _;

/// How a finding is classified after suppression and baselining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// A fresh violation — fails the build under `--deny`.
    New,
    /// Accepted debt recorded in `lint-baseline.toml`.
    Baselined,
    /// Suppressed by an inline `vap:allow` marker.
    Allowed,
}

impl Status {
    /// Stable lowercase name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Status::New => "new",
            Status::Baselined => "baselined",
            Status::Allowed => "allowed",
        }
    }
}

/// One rule violation at one source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule that fired (e.g. `float-eq`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub column: usize,
    /// Human message for this site: borrowed when a rule gives every
    /// site of a kind the same one.
    pub message: Cow<'static, str>,
    /// Trimmed raw source line.
    pub snippet: String,
    /// Rule-level remediation hint.
    pub help: &'static str,
    /// Classification (set after suppression/baselining).
    pub status: Status,
}

/// Aggregate counts for the run summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Files scanned.
    pub files: usize,
    /// All findings, including suppressed ones.
    pub total: usize,
    /// Findings classified [`Status::New`].
    pub new: usize,
    /// Findings classified [`Status::Baselined`].
    pub baselined: usize,
    /// Findings classified [`Status::Allowed`].
    pub allowed: usize,
    /// Baseline entries whose recorded count exceeds what was found —
    /// debt paid off; the baseline can be regenerated tighter.
    pub stale_baseline_entries: usize,
}

/// Render findings the way rustc renders lints.
pub fn render_human(findings: &[Finding], summary: &Summary, deny: bool) -> String {
    // a gutter is as wide as its line number, and a `usize` has at most
    // 20 digits
    const GUTTERS: &str = "                    ";
    let mut out = String::with_capacity(reserve(findings));
    let (mut line_digits, mut column_digits) = ([0; 20], [0; 20]);
    for f in findings {
        if f.status == Status::Allowed {
            continue;
        }
        let (level, note) = match f.status {
            Status::New if deny => ("error", ""),
            Status::New => ("warning", ""),
            _ => ("warning", " (baselined)"),
        };
        let line = decimal(f.line, &mut line_digits);
        let column = decimal(f.column, &mut column_digits);
        let gutter = &GUTTERS[..line.len()];
        out.extend([level, "[", f.rule, "]: ", &f.message, note, "\n"]);
        out.extend([gutter, "--> ", &f.path, ":", line, ":", column, "\n"]);
        out.extend([gutter, " |\n", line, " | ", &f.snippet, "\n", gutter, " |\n"]);
        out.extend([gutter, " = help: ", f.help, "\n\n"]);
    }
    let _ = writeln!(
        out,
        "vap-lint: {} files scanned, {} findings ({} new, {} baselined, {} allowed)",
        summary.files, summary.total, summary.new, summary.baselined, summary.allowed
    );
    if summary.stale_baseline_entries > 0 {
        let _ = writeln!(
            out,
            "vap-lint: {} baseline entr{} now overcount — run with --write-baseline to burn down",
            summary.stale_baseline_entries,
            if summary.stale_baseline_entries == 1 { "y" } else { "ies" }
        );
    }
    out
}

/// Render findings as a stable JSON document.
///
/// Schema (`version` 1):
/// ```json
/// {
///   "version": 1,
///   "findings": [
///     {"rule": "...", "path": "...", "line": 1, "column": 1,
///      "message": "...", "snippet": "...", "help": "...", "status": "new"}
///   ],
///   "summary": {"files": 0, "total": 0, "new": 0, "baselined": 0, "allowed": 0}
/// }
/// ```
pub fn render_json(findings: &[Finding], summary: &Summary) -> String {
    let mut out = String::with_capacity(reserve(findings));
    let (mut line_digits, mut column_digits) = ([0; 20], [0; 20]);
    out.push_str("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n    {\"rule\": " } else { ",\n    {\"rule\": " });
        json_str(&mut out, f.rule);
        out.push_str(", \"path\": ");
        json_str(&mut out, &f.path);
        out.extend([", \"line\": ", decimal(f.line, &mut line_digits)]);
        out.extend([", \"column\": ", decimal(f.column, &mut column_digits), ", \"message\": "]);
        json_str(&mut out, &f.message);
        out.push_str(", \"snippet\": ");
        json_str(&mut out, &f.snippet);
        out.push_str(", \"help\": ");
        json_str(&mut out, f.help);
        out.push_str(", \"status\": ");
        json_str(&mut out, f.status.name());
        out.push('}');
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    let _ = write!(
        out,
        "],\n  \"summary\": {{\"files\": {}, \"total\": {}, \"new\": {}, \"baselined\": {}, \"allowed\": {}}}\n}}\n",
        summary.files, summary.total, summary.new, summary.baselined, summary.allowed
    );
    out
}

/// About the bytes either rendering of `findings` takes: their text
/// fields plus each one's fixed frame and the summary.
fn reserve(findings: &[Finding]) -> usize {
    let text = |f: &Finding| f.rule.len() + f.path.len() + f.message.len() + f.snippet.len();
    findings.iter().map(|f| 160 + text(f) + f.help.len()).sum::<usize>() + 160
}

/// `n` in decimal, written into the end of `buf`.
fn decimal(mut n: usize, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).unwrap_or_default()
}

/// Append `s` to `out` as a JSON string literal.
///
/// Every byte that needs an escape is ASCII, so each run of bytes between
/// two of them ends on a char boundary and is copied whole.
fn json_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            rule: "float-eq",
            path: "crates/stats/src/x.rs".into(),
            line: 33,
            column: 12,
            message: "floating-point `==` comparison".into(),
            snippet: "if sxx == 0.0 {".into(),
            help: "compare with an explicit tolerance",
            status: Status::New,
        }
    }

    #[test]
    fn human_rendering_is_rustc_shaped() {
        let s = Summary { files: 1, total: 1, new: 1, ..Summary::default() };
        let text = render_human(&[finding()], &s, true);
        assert!(text.contains("error[float-eq]"));
        assert!(text.contains("--> crates/stats/src/x.rs:33:12"));
        assert!(text.contains("33 | if sxx == 0.0 {"));
        assert!(text.contains("= help:"));
        assert!(text.contains("1 findings (1 new, 0 baselined, 0 allowed)"));
    }

    #[test]
    fn warn_level_without_deny() {
        let s = Summary { files: 1, total: 1, new: 1, ..Summary::default() };
        let text = render_human(&[finding()], &s, false);
        assert!(text.contains("warning[float-eq]"));
    }

    /// The gutter is as wide as the line number, from 1 to 20 digits;
    /// an allowed finding prints nothing. Recorded from the renderer that
    /// built each gutter with `" ".repeat(line.to_string().len())`.
    #[test]
    fn human_gutters_are_as_wide_as_the_line_number() {
        let at = |line, status| Finding { line, status, ..finding() };
        let findings = [
            at(7, Status::New),
            at(42, Status::Baselined),
            at(333, Status::Allowed),
            at(333, Status::New),
            at(4096, Status::New),
            at(usize::MAX, Status::Baselined),
        ];
        let s = Summary {
            files: 3,
            total: 6,
            new: 3,
            baselined: 2,
            allowed: 1,
            stale_baseline_entries: 1,
        };
        let want = r"warning[float-eq]: floating-point `==` comparison
 --> crates/stats/src/x.rs:7:12
  |
7 | if sxx == 0.0 {
  |
  = help: compare with an explicit tolerance

warning[float-eq]: floating-point `==` comparison (baselined)
  --> crates/stats/src/x.rs:42:12
   |
42 | if sxx == 0.0 {
   |
   = help: compare with an explicit tolerance

warning[float-eq]: floating-point `==` comparison
   --> crates/stats/src/x.rs:333:12
    |
333 | if sxx == 0.0 {
    |
    = help: compare with an explicit tolerance

warning[float-eq]: floating-point `==` comparison
    --> crates/stats/src/x.rs:4096:12
     |
4096 | if sxx == 0.0 {
     |
     = help: compare with an explicit tolerance

warning[float-eq]: floating-point `==` comparison (baselined)
                    --> crates/stats/src/x.rs:18446744073709551615:12
                     |
18446744073709551615 | if sxx == 0.0 {
                     |
                     = help: compare with an explicit tolerance

vap-lint: 3 files scanned, 6 findings (3 new, 2 baselined, 1 allowed)
vap-lint: 1 baseline entry now overcount — run with --write-baseline to burn down
";
        assert_eq!(render_human(&findings, &s, false), want);
        let stale = Summary { stale_baseline_entries: 2, ..Summary::default() };
        assert!(render_human(&[], &stale, false).ends_with(
            "\nvap-lint: 2 baseline entries now overcount — run with --write-baseline to burn down\n"
        ));
    }

    /// Snapshot of the JSON schema: field names, order and escaping are a
    /// contract for CI consumers; change `version` if you change them.
    #[test]
    fn json_schema_snapshot() {
        let mut f = finding();
        f.snippet = "say \"hi\"\tok".into();
        let s = Summary { files: 2, total: 1, new: 1, ..Summary::default() };
        let expected = "{\n  \"version\": 1,\n  \"findings\": [\n    {\"rule\": \"float-eq\", \
                        \"path\": \"crates/stats/src/x.rs\", \"line\": 33, \"column\": 12, \
                        \"message\": \"floating-point `==` comparison\", \
                        \"snippet\": \"say \\\"hi\\\"\\tok\", \
                        \"help\": \"compare with an explicit tolerance\", \"status\": \"new\"}\n  ],\n  \
                        \"summary\": {\"files\": 2, \"total\": 1, \"new\": 1, \"baselined\": 0, \"allowed\": 0}\n}\n";
        assert_eq!(render_json(&[f], &s), expected);
    }

    /// Each string field escapes every byte below 0x20 (`\t`, `\n`, `\r`
    /// by name, the rest as `\u00xx`), `"` and `\`, and keeps DEL and
    /// multi-byte text as they are; findings are joined by `,`. Recorded
    /// from the renderer that escaped each field into a `String` of its
    /// own.
    #[test]
    fn json_escapes_are_pinned_for_every_string_field() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let cases = [
            (
                controls.as_str(),
                "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\
                 \\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\
                 \\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f",
            ),
            ("del \u{7f} stays", "del \u{7f} stays"),
            ("a \"quoted\" \\ path\\", "a \\\"quoted\\\" \\\\ path\\\\"),
            ("\"", "\\\""),
            ("é·\u{3000}🦀 and é\u{1f}·\n", "é·\u{3000}🦀 and é\\u001f·\\n"),
            ("", ""),
        ];
        let s = Summary { files: 1, total: 2, new: 1, baselined: 1, ..Summary::default() };
        for (raw, esc) in cases {
            let f = Finding {
                path: raw.into(),
                message: raw.to_string().into(),
                snippet: raw.into(),
                ..finding()
            };
            let second = Finding { line: 4096, column: 1, status: Status::Baselined, ..finding() };
            let want = format!(
                "{{\n  \"version\": 1,\n  \"findings\": [\n    {{\"rule\": \"float-eq\", \
                 \"path\": \"{esc}\", \"line\": 33, \"column\": 12, \"message\": \"{esc}\", \
                 \"snippet\": \"{esc}\", \"help\": \"compare with an explicit tolerance\", \
                 \"status\": \"new\"}},\n    {{\"rule\": \"float-eq\", \
                 \"path\": \"crates/stats/src/x.rs\", \"line\": 4096, \"column\": 1, \
                 \"message\": \"floating-point `==` comparison\", \"snippet\": \"if sxx == 0.0 {{\", \
                 \"help\": \"compare with an explicit tolerance\", \"status\": \"baselined\"}}\n  ],\n  \
                 \"summary\": {{\"files\": 1, \"total\": 2, \"new\": 1, \"baselined\": 1, \"allowed\": 0}}\n}}\n"
            );
            assert_eq!(render_json(&[f, second], &s), want, "{raw:?}");
        }
    }

    #[test]
    fn empty_findings_render_compact_array() {
        let s = Summary::default();
        let json = render_json(&[], &s);
        assert!(json.contains("\"findings\": []"));
    }
}
