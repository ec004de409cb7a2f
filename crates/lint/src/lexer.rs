//! A minimal, line-preserving Rust lexer.
//!
//! The rules in this analyzer are token-level, so a full parse is not
//! needed — but naive substring matching would trip over `".unwrap()"`
//! appearing inside string literals or doc comments. [`scrub`] therefore
//! rewrites a source file so that the *contents* of every comment, string
//! literal, raw string, byte string and character literal are replaced by
//! spaces, while line and column positions of all real code are preserved
//! exactly. Comment text is captured separately so `vap:allow` markers
//! survive the scrubbing.
//!
//! Each file's scrubbed text is held once: [`scrub`] walks the source's
//! bytes and writes one buffer per file, copying every run of ordinary
//! code bytes with a single slice copy and stopping only at the bytes
//! that can change its state. [`Lines`] pairs that buffer with a line
//! table, so a line is a `&str` borrowed from it, and the parser's
//! tokens borrow from those lines in turn. A blanked character becomes
//! exactly one space whatever its UTF-8 width, so a column — the byte
//! offset in the scrubbed line — is the same whether the text before it
//! was ASCII or not.

use std::ops::Index;

/// The lines of one file, held as one buffer plus a table of where each
/// line sits in it.
#[derive(Debug, Clone, Default)]
pub struct Lines {
    text: String,
    /// Byte range of each line in `text`, line terminator excluded.
    spans: Vec<(usize, usize)>,
}

impl Lines {
    /// Split `text` into lines exactly as [`str::lines`] does: at `\n`,
    /// dropping one `\r` right before it, with no empty line after a
    /// final newline.
    pub fn new(text: String) -> Lines {
        let spans = line_spans(&text).collect();
        Lines { text, spans }
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether there are no lines at all.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The 0-based line `i`, if it exists.
    pub fn get(&self, i: usize) -> Option<&str> {
        self.spans.get(i).map(|&(a, b)| &self.text[a..b])
    }

    /// Every line, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> {
        self.spans.iter().map(|&(a, b)| &self.text[a..b])
    }
}

impl Index<usize> for Lines {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        let (a, b) = self.spans[i];
        &self.text[a..b]
    }
}

/// Byte ranges of the lines of `text`, split as [`str::lines`] splits.
fn line_spans(text: &str) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut start = 0usize;
    text.split_inclusive('\n').map(move |piece| {
        let line = piece.strip_suffix('\n').map_or(piece, |l| l.strip_suffix('\r').unwrap_or(l));
        let span = (start, start + line.len());
        start += piece.len();
        span
    })
}

/// The result of scrubbing one source file.
#[derive(Debug, Clone, Default)]
pub struct Scrubbed {
    /// Source lines with comment and literal contents blanked to spaces.
    /// Column positions of surviving code are identical to the input.
    pub code: Lines,
    /// `(line index, comment text)` for every line that carried a comment.
    pub comments: Vec<(usize, String)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Scrub `src`, blanking comments and literals while preserving layout.
pub fn scrub(src: &str) -> Scrubbed {
    let mut text = String::with_capacity(src.len());
    let mut spans = Vec::new();
    let mut comments = Vec::new();
    // the current line's comment text, reused across lines
    let mut comment = String::new();
    let mut state = State::Code;
    for (a, b) in line_spans(src) {
        // line comments never span lines
        if state == State::LineComment {
            state = State::Code;
        }
        let start = text.len();
        scrub_line(&src[a..b], &mut state, &mut text, &mut comment);
        if !comment.trim().is_empty() {
            comments.push((spans.len(), comment.clone()));
        }
        comment.clear();
        spans.push((start, text.len()));
    }
    Scrubbed { code: Lines { text, spans }, comments }
}

/// Scrub one line onto `code`, appending comment text to `comment`.
///
/// An unterminated ordinary string or char at EOL is a syntax error in
/// real Rust unless the line ends with `\`; be forgiving and stay
/// in-state so multi-line strings scrub correctly.
fn scrub_line(line: &str, state: &mut State, code: &mut String, comment: &mut String) {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    // each arm copies (or blanks) the run of bytes that cannot change
    // the state, then handles the byte that ended the run
    while i < bytes.len() {
        match *state {
            State::Code => {
                let end = run_end(bytes, i, |c| matches!(c, b'/' | b'"' | b'\'' | b'r' | b'b'));
                code.push_str(&line[i..end]);
                i = end;
                let Some(&c) = bytes.get(i) else { break };
                if let Some((hashes, len)) = raw_string_open(bytes, i) {
                    *state = State::RawStr(hashes);
                    spaces(code, len);
                    i += len;
                    continue;
                }
                match (c, bytes.get(i + 1)) {
                    (b'/', Some(b'/')) => {
                        *state = State::LineComment;
                        spaces(code, 2);
                        i += 2;
                    }
                    (b'/', Some(b'*')) => {
                        *state = State::BlockComment(1);
                        spaces(code, 2);
                        i += 2;
                    }
                    (b'"', _) => {
                        *state = State::Str;
                        spaces(code, 1);
                        i += 1;
                    }
                    (b'b', Some(b'\'')) => {
                        // byte char literal b'x'
                        *state = State::Char;
                        spaces(code, 2);
                        i += 2;
                    }
                    (b'b', Some(b'"')) => {
                        *state = State::Str;
                        spaces(code, 2);
                        i += 2;
                    }
                    (b'\'', _) if !is_lifetime(line, i) => {
                        *state = State::Char;
                        spaces(code, 1);
                        i += 1;
                    }
                    // a lifetime tick, or a `/`, `r` or `b` that opens nothing
                    _ => {
                        code.push(char::from(c));
                        i += 1;
                    }
                }
            }
            State::LineComment => {
                comment.push_str(&line[i..]);
                blank(code, &line[i..]);
                i = bytes.len();
            }
            State::BlockComment(depth) => {
                let end = run_end(bytes, i, |c| c == b'*' || c == b'/');
                comment.push_str(&line[i..end]);
                blank(code, &line[i..end]);
                i = end;
                let Some(&c) = bytes.get(i) else { break };
                match (c, bytes.get(i + 1)) {
                    (b'*', Some(b'/')) => {
                        *state =
                            if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                        spaces(code, 2);
                        i += 2;
                    }
                    (b'/', Some(b'*')) => {
                        *state = State::BlockComment(depth + 1);
                        spaces(code, 2);
                        i += 2;
                    }
                    _ => {
                        comment.push(char::from(c));
                        spaces(code, 1);
                        i += 1;
                    }
                }
            }
            State::Str | State::Char => {
                let quote = if *state == State::Str { b'"' } else { b'\'' };
                let end = run_end(bytes, i, |c| c == b'\\' || c == quote);
                blank(code, &line[i..end]);
                i = end;
                let Some(&c) = bytes.get(i) else { break };
                if c == b'\\' {
                    // the backslash and the character it escapes, if any
                    spaces(code, 2);
                    i += 1 + line[i + 1..].chars().next().map_or(0, char::len_utf8);
                } else {
                    *state = State::Code;
                    spaces(code, 1);
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                let end = run_end(bytes, i, |c| c == b'"');
                blank(code, &line[i..end]);
                i = end;
                if i == bytes.len() {
                    break;
                }
                // the quote closes the string only if `hashes` `#`s follow
                let len = 1 + hashes as usize;
                if (1..len).all(|k| bytes.get(i + k) == Some(&b'#')) {
                    *state = State::Code;
                    spaces(code, len);
                    i += len;
                } else {
                    spaces(code, 1);
                    i += 1;
                }
            }
        }
    }
}

/// Index of the first byte at or after `from` that `stop` accepts, or
/// the length of `bytes`.
fn run_end(bytes: &[u8], from: usize, stop: impl Fn(u8) -> bool) -> usize {
    bytes[from..].iter().position(|&c| stop(c)).map_or(bytes.len(), |p| from + p)
}

/// Append one space per character of `s`, whatever its UTF-8 width.
fn blank(code: &mut String, s: &str) {
    spaces(code, s.chars().count());
}

/// Append `n` spaces.
fn spaces(code: &mut String, n: usize) {
    code.extend(std::iter::repeat_n(' ', n));
}

/// For `r"`, `r#"`, `br"`, `br#"` etc. starting at `i`: the number of
/// `#`s and the bytes the opener spans.
fn raw_string_open(bytes: &[u8], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    (bytes.get(j) == Some(&b'"')).then_some((hashes, j + 1 - i))
}

/// Distinguish `'a` (lifetime) from `'a'` (char literal) at byte `i` of
/// a `'`.
fn is_lifetime(line: &str, i: usize) -> bool {
    let mut after = line[i + 1..].chars();
    match after.next() {
        // `'x'` is a char literal; `'static` / `'a,` are lifetimes
        Some(c) if c.is_alphabetic() || c == '_' => after.next() != Some('\''),
        _ => false,
    }
}

/// Does `line` read `#[cfg(test)]` once its whitespace is ignored?
fn has_cfg_test(line: &str) -> bool {
    const ATTR: &str = "#[cfg(test)]";
    line.match_indices('#').any(|(pos, _)| {
        let mut rest = line[pos..].chars().filter(|c| !c.is_whitespace());
        ATTR.chars().all(|a| rest.next() == Some(a))
    })
}

/// Per-line flags marking `#[cfg(test)]`-gated regions (the attribute
/// line through the closing brace of the item it gates). Attributes that
/// gate a braceless item (`#[cfg(test)] use foo;`) end at the `;`.
pub fn test_regions(code: &Lines) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut line = 0usize;
    while line < code.len() {
        if !has_cfg_test(&code[line]) {
            line += 1;
            continue;
        }
        // walk forward from the end of this line to the gated item's body
        let mut depth = 0i32;
        let mut end = code.len() - 1;
        let mut entered = false;
        'scan: for (li, l) in code.iter().enumerate().skip(line) {
            let start_col = if li == line {
                // skip past the attribute itself so `#[cfg(test)]`'s own
                // brackets don't confuse the scan
                l.find(']').map(|p| p + 1).unwrap_or(0)
            } else {
                0
            };
            for (ci, c) in l.char_indices() {
                if ci < start_col {
                    continue;
                }
                match c {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => {
                        depth -= 1;
                        if entered && depth <= 0 {
                            end = li;
                            break 'scan;
                        }
                    }
                    ';' if !entered && depth == 0 => {
                        end = li;
                        break 'scan;
                    }
                    _ => {}
                }
            }
        }
        for flag in in_test.iter_mut().take(end + 1).skip(line) {
            *flag = true;
        }
        line = end + 1;
    }
    in_test
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A library file that reaches every lexer state before code on the
    /// same line: non-ASCII text in a char, a string and a block comment,
    /// a multi-line raw string, byte literals, nested block comments,
    /// lifetimes next to char literals and a string continued by a
    /// trailing `\`. Files built from it use CRLF line endings.
    pub(crate) const HOSTILE: [&str; 12] = [
        "pub fn chars(x: Option<u8>) -> u8 { let _c = 'α'; x.unwrap() }",
        "pub fn text(v: f64) -> bool { let _t = \"…·…\"; /* ≥ */ v == 0.0 }",
        "pub fn raw(x: Option<u8>) -> u8 {",
        "    let _r = r#\"first \"quoted\" α line",
        "        x.unwrap() inside\"#; x.unwrap()",
        "}",
        "pub fn bytes(x: Option<u8>) -> u8 { let _b = b\"·\"; let _q = b'\\''; x.unwrap() }",
        "pub fn nested(x: Option<u8>) -> u8 { /* a /* b · */ c */ x.unwrap() }",
        "pub fn life<'a>(s: &'static str, x: Option<&'a str>) -> char { let _c = 'x'; x.unwrap(); 'y' }",
        "pub fn cont(x: Option<u8>) -> u8 { let _s = \"tail ·\\",
        "    still string\"; x.unwrap() }",
        "pub fn map() { let _m = 'β'; let _h: HashMap<u8, u8> = HashMap::new(); }",
    ];

    /// The expected lines and comments were recorded from the
    /// char-by-char scrub this byte-level one replaced: each blanked
    /// character is one space whatever its UTF-8 width, and the trailing
    /// `\` of line 10 blanks to two.
    #[test]
    fn hostile_lexing_keeps_columns() {
        let s = scrub(&(HOSTILE.join("\r\n") + "\r\n"));
        let want = [
            "pub fn chars(x: Option<u8>) -> u8 { let _c =    ; x.unwrap() }",
            "pub fn text(v: f64) -> bool { let _t =      ;         v == 0.0 }",
            "pub fn raw(x: Option<u8>) -> u8 {",
            "    let _r =                         ",
            "                           ; x.unwrap()",
            "}",
            "pub fn bytes(x: Option<u8>) -> u8 { let _b =     ; let _q =      ; x.unwrap() }",
            "pub fn nested(x: Option<u8>) -> u8 {                     x.unwrap() }",
            "pub fn life<'a>(s: &'static str, x: Option<&'a str>) -> char { let _c =    ; x.unwrap();     }",
            "pub fn cont(x: Option<u8>) -> u8 { let _s =          ",
            "                 ; x.unwrap() }",
            "pub fn map() { let _m =    ; let _h: HashMap<u8, u8> = HashMap::new(); }",
        ];
        assert_eq!(s.code.iter().collect::<Vec<_>>(), want);
        assert_eq!(s.comments, [(1, " ≥ ".to_string()), (7, " a  b ·  c ".to_string())]);
    }

    #[test]
    fn lines_drop_crlf_and_the_final_newline() {
        let crlf = Lines::new("one\r\ntwo\r\n".to_string());
        assert_eq!(crlf.iter().collect::<Vec<_>>(), ["one", "two"]);
        assert_eq!(&crlf[1], "two");
        assert_eq!(crlf.get(2), None);
        assert_eq!(crlf.get(usize::MAX), None);
        let trailing = Lines::new("a\n\n".to_string());
        assert_eq!(trailing.iter().collect::<Vec<_>>(), ["a", ""]);
        let empty = Lines::new(String::new());
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.get(0), None);
        assert!(scrub("").code.is_empty());
        // the split is `str::lines`', a lone `\r` included
        for text in ["\n", "x", "a\rb\r\n\r\nc", "tail\r", "\r\r\n"] {
            let lines = Lines::new(text.to_string());
            let want: Vec<&str> = text.lines().collect();
            assert_eq!(lines.iter().collect::<Vec<_>>(), want, "{text:?}");
            assert_eq!(lines.len(), text.lines().count());
        }
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let s = scrub("let x = \".unwrap()\"; // .expect(\nlet y = 1;");
        assert!(!s.code[0].contains("unwrap"));
        assert!(!s.code[0].contains("expect"));
        assert_eq!(&s.code[1], "let y = 1;");
        assert_eq!(s.comments.len(), 1);
        assert!(s.comments[0].1.contains(".expect("));
    }

    #[test]
    fn columns_are_preserved() {
        let src = "abc(\"xy\", 0.0)";
        let s = scrub(src);
        assert_eq!(s.code[0].len(), src.len());
        assert_eq!(s.code[0].find("0.0"), src.find("0.0"));
    }

    #[test]
    fn raw_strings_and_chars() {
        let s = scrub("let a = r#\"panic!\"#; let b = 'x'; let c: &'static str = \"\";");
        assert!(!s.code[0].contains("panic"));
        assert!(s.code[0].contains("'static"), "lifetimes survive: {}", &s.code[0]);
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let s = scrub("a /* one /* two */ still */ b\n/* open\nunreachable!()\n*/ c");
        assert!(s.code[0].starts_with('a'));
        assert!(s.code[0].trim_end().ends_with('b'));
        assert!(!s.code[2].contains("unreachable"));
        assert!(s.code[3].trim_end().ends_with('c'));
    }

    #[test]
    fn multiline_strings_stay_blank() {
        let s = scrub("let x = \"line one\npanic!()\";\nlet y = 2;");
        assert!(!s.code[1].contains("panic"));
        assert_eq!(&s.code[2], "let y = 2;");
    }

    #[test]
    fn cfg_test_region_covers_module() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}";
        let s = scrub(src);
        let flags = test_regions(&s.code);
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_braceless_item() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() {}";
        let s = scrub(src);
        let flags = test_regions(&s.code);
        assert_eq!(flags, vec![true, true, false]);
    }
}
