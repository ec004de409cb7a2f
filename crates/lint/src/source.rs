//! The per-file view the rules operate on: scrubbed code, test-region
//! flags and inline `vap:allow` suppression markers.
//!
//! A file's text is held twice, each time as one buffer: `raw`, the
//! source itself, and `code`, its scrubbed copy. Both are [`Lines`], so a
//! line is a `&str` borrowed from its buffer and a snippet is a trimmed
//! slice of `raw`, not a `String` per line.

use crate::lexer::{self, Lines};
use crate::parse;

/// One analyzed source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (stable across OSes —
    /// it is the baseline key).
    pub path: String,
    /// Cargo package the file belongs to (e.g. `vap-core`).
    pub crate_name: String,
    /// Raw source lines (for snippets in diagnostics).
    pub raw: Lines,
    /// Scrubbed lines: comments and literal contents blanked, columns
    /// preserved.
    pub code: Lines,
    /// Whether each line sits inside a `#[cfg(test)]` region.
    pub in_test: Vec<bool>,
    /// Parsed items and call sites (pass-1 input to the symbol index).
    pub parsed: parse::ParsedFile,
    /// Per line: rules suppressed by a `vap:allow(rule)` marker on it.
    allows: Vec<Vec<String>>,
}

impl SourceFile {
    /// Analyze `src` as the contents of `path` inside `crate_name`.
    pub fn from_source(path: &str, crate_name: &str, src: &str) -> Self {
        let scrubbed = lexer::scrub(src);
        let in_test = lexer::test_regions(&scrubbed.code);
        // A marker on a code line covers that line; a marker inside a
        // comment block covers the next code line below it (so multi-line
        // explanation comments work naturally).
        let mut allows = vec![Vec::new(); scrubbed.code.len()];
        for (line, comment) in &scrubbed.comments {
            let comment_only = scrubbed.code.get(*line).is_none_or(|l| l.trim().is_empty());
            let mut target = *line;
            if comment_only {
                target += 1;
                while scrubbed.code.get(target).is_some_and(|l| l.trim().is_empty()) {
                    target += 1;
                }
            }
            if let Some(slot) = allows.get_mut(target) {
                slot.extend(parse_allow_rules(comment));
            }
        }
        let parsed = parse::parse_file(&scrubbed.code);
        SourceFile {
            path: path.replace('\\', "/"),
            crate_name: crate_name.to_string(),
            raw: Lines::new(src.to_string()),
            code: scrubbed.code,
            in_test,
            parsed,
            allows,
        }
    }

    /// Is this file a binary entry point (`src/bin/**` or a crate's
    /// `src/main.rs`)? Binaries may panic and print at top level.
    pub fn is_bin(&self) -> bool {
        self.path.contains("/bin/") || self.path.ends_with("src/main.rs")
    }

    /// Is the finding at 0-based `line` suppressed for `rule`?
    ///
    /// A trailing marker applies to its own line; a marker in a comment
    /// block applies to the next code line below it.
    pub fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.allows.get(line).is_some_and(|rs| rs.iter().any(|r| r == rule))
    }

    /// The raw text of 0-based `line`, trimmed, for diagnostics.
    pub fn snippet(&self, line: usize) -> &str {
        self.raw.get(line).map_or("", str::trim)
    }
}

/// Extract rule names from `vap:allow(rule)` / `vap:allow(a, b): reason`
/// markers inside a comment.
fn parse_allow_rules(comment: &str) -> Vec<String> {
    let mut rules = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("vap:allow(") {
        rest = &rest[pos + "vap:allow(".len()..];
        if let Some(close) = rest.find(')') {
            for rule in rest[..close].split(',') {
                let rule = rule.trim();
                if !rule.is_empty() {
                    rules.push(rule.to_string());
                }
            }
            rest = &rest[close + 1..];
        } else {
            break;
        }
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_markers_cover_same_and_next_line() {
        let src = "\
// vap:allow(no-panic-in-lib): startup config is static
let a = x.unwrap();
let b = y.unwrap(); // vap:allow(no-panic-in-lib): see above
let c = z.unwrap();
";
        let f = SourceFile::from_source("t.rs", "vap-core", src);
        assert!(f.is_allowed("no-panic-in-lib", 1));
        assert!(f.is_allowed("no-panic-in-lib", 2));
        assert!(!f.is_allowed("no-panic-in-lib", 3));
        assert!(!f.is_allowed("float-eq", 1));
    }

    #[test]
    fn marker_in_multi_line_comment_reaches_the_code_below() {
        let src = "\
// vap:allow(no-panic-in-lib): this serialization is of a plain struct
// and therefore cannot fail at runtime

let s = to_string(&x).expect(\"infallible\");
let t = other.unwrap();
";
        let f = SourceFile::from_source("t.rs", "vap-core", src);
        assert!(f.is_allowed("no-panic-in-lib", 3));
        assert!(!f.is_allowed("no-panic-in-lib", 4));
    }

    #[test]
    fn multiple_rules_in_one_marker() {
        let f = SourceFile::from_source(
            "t.rs",
            "vap-core",
            "let x = 1; // vap:allow(float-eq, determinism)\n",
        );
        assert!(f.is_allowed("float-eq", 0));
        assert!(f.is_allowed("determinism", 0));
        assert!(!f.is_allowed("no-panic-in-lib", 0));
    }

    #[test]
    fn snippet_is_trimmed_raw_text() {
        let f = SourceFile::from_source("t.rs", "vap-core", "    let s = \"hi\";\n");
        assert_eq!(f.snippet(0), "let s = \"hi\";");
    }
}
