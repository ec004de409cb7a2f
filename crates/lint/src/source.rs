//! The per-file view the rules operate on: scrubbed code, test-region
//! flags and inline `vap:allow` suppression markers.
//!
//! A file's text is held twice, each time as one buffer: `raw`, the
//! source itself, and `code`, its scrubbed copy. Both are [`Lines`], so a
//! line is a `&str` borrowed from its buffer and a snippet is a trimmed
//! slice of `raw`, not a `String` per line. `raw` reads the source through
//! the line table [`lexer::scrub`] found, so the text is split once. The
//! CLI reads each file once, into a buffer that becomes `raw` itself
//! ([`SourceFile::from_source`] copies a borrowed source once). Every
//! offset a `SourceFile` keeps into its buffers — its line tables', its
//! parsed items', calls' and sites' — is 32 bits, so a file holds at most
//! `u32::MAX` bytes, and the lists behind them are sized to what they
//! hold.
//! Markers are found with one search over the file's comment buffer, each
//! read back within its own line's comment text, and kept as one sorted
//! `(line, rule)` list that [`SourceFile::is_allowed`] searches.
//!
//! The questions every rule asks of a file have one answer here:
//! [`SourceFile::is_test`] for a line in a test region,
//! [`SourceFile::par_calls`] for the non-test fan-out calls, and
//! [`SourceFile::finding`], the one place a finding's path, snippet and
//! 1-based position are filled in.

use std::borrow::Cow;

use crate::diag::{Finding, Status};
use crate::index::PAR_ENTRY_POINTS;
use crate::lexer::{self, Lines, Scrubbed};
use crate::parse::{self, Call};

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
    /// Whether each line sits inside a `#[cfg(test)]` region; ask
    /// [`SourceFile::is_test`].
    pub in_test: Vec<bool>,
    /// Parsed items and call sites (pass-1 input to the symbol index).
    pub parsed: parse::ParsedFile,
    /// `(line, rule)` for each rule a `vap:allow(rule)` marker suppresses
    /// on that line, sorted.
    allows: Vec<(usize, String)>,
}

impl SourceFile {
    /// Analyze `src` as the contents of `path` inside `crate_name`.
    ///
    /// Every offset a `SourceFile` keeps into its buffers is 32 bits, so
    /// `src` must be at most `u32::MAX` bytes long (4 GiB less one byte);
    /// the CLI rejects a longer file before reading it. Past that bound
    /// the offsets saturate, and what lies past it reads back cut short or
    /// empty.
    pub fn from_source(path: &str, crate_name: &str, src: &str) -> Self {
        Self::from_text(path, crate_name, src.to_string())
    }

    /// [`SourceFile::from_source`] for a source the caller owns: `src`
    /// becomes the file's `raw` buffer, not copied.
    pub(crate) fn from_text(path: &str, crate_name: &str, src: String) -> Self {
        let scrubbed = lexer::scrub(&src);
        let in_test = lexer::test_regions(&scrubbed.code);
        let allows = allow_markers(&scrubbed);
        let parsed = parse::parse_file(&scrubbed.code);
        SourceFile {
            path: path.replace('\\', "/"),
            crate_name: crate_name.to_string(),
            raw: Lines::from_ends(src, scrubbed.raw_ends),
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
        self.allows.binary_search_by(|(l, r)| (*l, r.as_str()).cmp(&(line, rule))).is_ok()
    }

    /// Does 0-based `line` sit inside a `#[cfg(test)]` region? A line
    /// past the end of the file does not.
    pub fn is_test(&self, line: usize) -> bool {
        self.in_test.get(line).copied().unwrap_or(false)
    }

    /// The raw text of 0-based `line`, trimmed, for diagnostics.
    pub fn snippet(&self, line: usize) -> &str {
        self.raw.get(line).map_or("", str::trim)
    }

    /// A new finding of `rule` at 0-based `line` and `column` of this
    /// file, with the line's [`snippet`](SourceFile::snippet). A message
    /// that is the same at every site is borrowed, not copied.
    pub fn finding(
        &self,
        rule: &'static str,
        line: usize,
        column: usize,
        message: impl Into<Cow<'static, str>>,
        help: &'static str,
    ) -> Finding {
        Finding {
            rule,
            path: self.path.clone(),
            line: line + 1,
            column: column + 1,
            message: message.into(),
            snippet: self.snippet(line).to_string(),
            help,
            status: Status::New,
        }
    }

    /// The calls outside test regions to a `vap-exec` fan-out entry point
    /// ([`PAR_ENTRY_POINTS`]), whose closures run on worker threads.
    pub fn par_calls(&self) -> impl Iterator<Item = &Call> {
        self.parsed.calls.iter().filter(|c| {
            PAR_ENTRY_POINTS.contains(&self.parsed.callee(&self.code, c)) && !self.is_test(c.line())
        })
    }
}

/// `(line, rule)` for every rule a `vap:allow(rule)` or
/// `vap:allow(a, b): reason` marker names, sorted.
///
/// A marker is read within its own line's comment text, so a
/// `vap:allow(` split over two lines, or one whose `)` is on a later line,
/// names nothing, and a `vap:allow(` inside an earlier marker's rule list
/// is part of that list. A marker on a code line covers that line; a
/// marker in a comment block covers the next code line below it (so
/// multi-line explanation comments work naturally).
fn allow_markers(s: &Scrubbed) -> Vec<(usize, String)> {
    const OPEN: &str = "vap:allow(";
    let mut allows = Vec::new();
    // the `comments` entry holding the current hit, and the end of the
    // last marker's rule list
    let (mut k, mut listed) = (0, 0);
    for (at, _) in s.comment_text.match_indices(OPEN) {
        while s.comments.get(k).is_some_and(|(_, text)| text.end <= at) {
            k += 1;
        }
        let Some((line, text)) = s.comments.get(k) else { break };
        let from = at + OPEN.len();
        if at < listed || from > text.end {
            continue;
        }
        let Some(close) = s.comment_text[from..text.end].find(')') else { continue };
        listed = from + close + 1;
        let target = marker_target(&s.code, *line);
        for rule in s.comment_text[from..from + close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() && target < s.code.len() {
                allows.push((target, rule.to_string()));
            }
        }
    }
    allows.sort_unstable();
    allows
}

/// The line a marker on `line` covers: `line` itself if it holds code,
/// else the first line below it that does.
fn marker_target(code: &Lines, line: usize) -> usize {
    let mut target = line;
    while code.get(target).is_some_and(|l| l.trim().is_empty()) {
        target += 1;
    }
    target
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

    /// One line of a file as the rules see it: scrubbed code, comment
    /// text (empty when the line carries none), raw text, and the rules
    /// a `vap:allow` marker allows there.
    type Row = (&'static str, &'static str, &'static str, &'static [&'static str]);

    fn assert_rows(src: &str, want: &[Row]) {
        let s = lexer::scrub(src);
        let f = SourceFile::from_source("t.rs", "vap-core", src);
        let comments = lexer::tests::comment_texts(&s);
        assert!(comments.windows(2).all(|w| w[0].0 < w[1].0), "{src:?}: {comments:?}");
        let names: Vec<&str> =
            crate::rules::all_rules().iter().map(|r| r.name()).chain(["x"]).collect();
        assert_eq!(s.code.len(), f.code.len());
        assert_eq!(f.raw.len(), f.code.len(), "{src:?}");
        let got: Vec<_> = (0..f.code.len())
            .map(|i| {
                let comment = comments.iter().find(|(l, _)| *l == i).map_or("", |(_, t)| *t);
                let allowed: Vec<&str> =
                    names.iter().copied().filter(|r| f.is_allowed(r, i)).collect();
                (&s.code[i], comment, &f.raw[i], allowed)
            })
            .collect();
        let want: Vec<_> = want.iter().map(|&(c, t, r, a)| (c, t, r, a.to_vec())).collect();
        assert_eq!(got, want, "{src:?}");
    }

    /// Recorded from the line-by-line scrub and the per-line marker
    /// table before the one-pass front end replaced them.
    #[test]
    fn front_end_lines_are_pinned() {
        // CRLF, literal prefixes, a lone `\r` in code, a string and a
        // block comment, a string line ending in `\`, a block comment
        // over two lines and a lone `\r` at end of file
        let crlf = [
            "pub fn lits() { let _a = cr#\"x \"y\" α\"#; let _b = c\"é\\\"\r\"; }",
            "pub fn r#match(x: Option<u8>) -> u8 { let _b = br##\"a \"# b\"##; let _q = b'\\''; x.unwrap() }",
            "pub fn life<'a>(s: &'a str) -> char { let _c = 'a'; s.len(); 'b' }",
            "pub fn cont() -> u8 { let _s = \"ends in \\",
            "    still\r\"; let _m = 1;\r let _n = 'x'; 2 }",
            "/* a /* nested */ block ·\r ",
            "   comment */ pub fn after() {} // vap:allow(unit-flow): tail",
            "pub fn last() {}\r",
        ]
        .join("\r\n");
        assert_rows(
            &crlf,
            &[
                ("pub fn lits() { let _a = c            ; let _b = c      ; }", "", "pub fn lits() { let _a = cr#\"x \"y\" α\"#; let _b = c\"é\\\"\r\"; }", &[]),
                ("pub fn r#match(x: Option<u8>) -> u8 { let _b =               ; let _q =      ; x.unwrap() }", "", "pub fn r#match(x: Option<u8>) -> u8 { let _b = br##\"a \"# b\"##; let _q = b'\\''; x.unwrap() }", &[]),
                ("pub fn life<'a>(s: &'a str) -> char { let _c =    ; s.len();     }", "", "pub fn life<'a>(s: &'a str) -> char { let _c = 'a'; s.len(); 'b' }", &[]),
                ("pub fn cont() -> u8 { let _s =            ", "", "pub fn cont() -> u8 { let _s = \"ends in \\", &[]),
                ("           ; let _m = 1;\r let _n =    ; 2 }", "", "    still\r\"; let _m = 1;\r let _n = 'x'; 2 }", &[]),
                ("                           ", " a  nested  block ·\r ", "/* a /* nested */ block ·\r ", &[]),
                ("              pub fn after() {}                              ", "   comment  vap:allow(unit-flow): tail", "   comment */ pub fn after() {} // vap:allow(unit-flow): tail", &["unit-flow"]),
                ("pub fn last() {}\r", "", "pub fn last() {}\r", &[]),
            ],
        );
        let markers = "\
// vap:allow(no-panic-in-lib
// ): the close is on the next line
let a = x.unwrap();
// vap:al
//low(x): split over two lines
let b = y.unwrap();
let c = z.unwrap(); // vap:allow(no-panic-in-lib): one, vap:allow(float-eq, x): two
// vap:allow(determinism): comment-only, then blank and comment-only lines

/* more */
\x20\x20
let d: HashMap<u8, u8> = HashMap::new(); // \t
// vap:allow(x vap:allow(determinism) y)
let e = 1.0 == w; // vap:allow(float-eq)
";
        assert_rows(
            markers,
            &[
                ("                            ", " vap:allow(no-panic-in-lib", "// vap:allow(no-panic-in-lib", &[]),
                ("                                   ", " ): the close is on the next line", "// ): the close is on the next line", &[]),
                ("let a = x.unwrap();", "", "let a = x.unwrap();", &[]),
                ("         ", " vap:al", "// vap:al", &[]),
                ("                              ", "low(x): split over two lines", "//low(x): split over two lines", &[]),
                ("let b = y.unwrap();", "", "let b = y.unwrap();", &[]),
                ("let c = z.unwrap();                                                                ", " vap:allow(no-panic-in-lib): one, vap:allow(float-eq, x): two", "let c = z.unwrap(); // vap:allow(no-panic-in-lib): one, vap:allow(float-eq, x): two", &["no-panic-in-lib", "float-eq", "x"]),
                ("                                                                          ", " vap:allow(determinism): comment-only, then blank and comment-only lines", "// vap:allow(determinism): comment-only, then blank and comment-only lines", &[]),
                ("", "", "", &[]),
                ("          ", " more ", "/* more */", &[]),
                ("  ", "", "  ", &[]),
                ("let d: HashMap<u8, u8> = HashMap::new();     ", "", "let d: HashMap<u8, u8> = HashMap::new(); // \t", &["determinism"]),
                ("                                        ", " vap:allow(x vap:allow(determinism) y)", "// vap:allow(x vap:allow(determinism) y)", &[]),
                ("let e = 1.0 == w;                       ", " vap:allow(float-eq)", "let e = 1.0 == w; // vap:allow(float-eq)", &["float-eq"]),
            ],
        );
        assert_rows(
            "let f = 1;\n// vap:allow(float-eq): nothing below",
            &[
                ("let f = 1;", "", "let f = 1;", &[]),
                (
                    "                                     ",
                    " vap:allow(float-eq): nothing below",
                    "// vap:allow(float-eq): nothing below",
                    &[],
                ),
            ],
        );
    }

    #[test]
    fn snippet_is_trimmed_raw_text() {
        let f = SourceFile::from_source("t.rs", "vap-core", "    let s = \"hi\";\n");
        assert_eq!(f.snippet(0), "let s = \"hi\";");
    }
}
