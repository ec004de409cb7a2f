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
//! [`scrub`] reads a file's bytes once. Each state takes the run of bytes
//! that cannot change it at once — code with one slice copy, comment and
//! literal text as one bulk append of blanks — and stops only at the
//! bytes that can: `/`, a quote, an `r` before `"` or `#` and a `b`
//! before `"`, `'` or `r` in code, each code byte's part read from a
//! 256-entry class table; `\` and the closing quote in literals;
//! `*` and `/` in block comments. Every state's run also stops at `\n` and
//! `\r`, so the same pass finds the line ends — `\n` or `\r\n`, as
//! [`str::lines`] splits; a lone `\r` is text — and returns the source's
//! own line table beside the scrubbed one. A blanked character becomes
//! exactly one space whatever its UTF-8 width, so a column — the byte
//! offset in the scrubbed line — is the same whether the text before it
//! was ASCII or not. The scrubbed copy keeps the source's line ends, so it
//! is as long as the source unless it blanked a multi-byte character or a
//! string's `\` before a line end (which blanks to two spaces). The comment
//! text of every line goes into one buffer per file, with one
//! `(line, range)` entry per line that carries any. The line tables and
//! the comment entries are sized from the file's count of `\n` bytes, its
//! exact line count, and the code and comment buffers from its length, so
//! none of them regrows; the code buffer is then sized to what it holds.
//! [`test_regions`] finds every `#` of a file with one search over its
//! scrubbed buffer, and the end of each item an attribute gates by reading
//! the buffer's bytes through a table of `{`, `}` and `;`.
//!
//! [`Lines`] pairs a buffer with a line table of one `u32` per line, the
//! offset where the line ends, terminator included; a read drops the
//! trailing `\n` or `\r\n` as [`str::lines`] does, for the source and its
//! scrubbed copy alike. A line is a `&str` borrowed from the buffer, and
//! the parser's tokens borrow from the scrubbed buffer, which the cutter
//! reads straight through, line ends and all. The parser keeps none of
//! them: a call's arguments are (line, column) ranges of the scrubbed
//! lines, and their tokens are cut from the buffer again when a rule
//! reads them. The 32-bit offsets bound a file to 4 GiB.

use std::ops::{Index, Range};

/// The lines of one file, held as one buffer plus a table of where each
/// line ends in it.
#[derive(Debug, Clone, Default)]
pub struct Lines {
    text: String,
    /// Where each line ends in `text`, its terminator included, so line
    /// `i` runs from the end of line `i - 1` (or 0) to `ends[i]`.
    ends: Vec<u32>,
}

impl Lines {
    /// `text` read through `ends`, a line table [`scrub`] found in it.
    pub(crate) fn from_ends(text: String, ends: Vec<u32>) -> Lines {
        Lines { text, ends }
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no lines at all.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The 0-based line `i`, if it exists, without its terminator.
    pub fn get(&self, i: usize) -> Option<&str> {
        self.ends.get(i).map(|&end| self.read(i, end))
    }

    /// Every line, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> {
        self.ends.iter().enumerate().map(|(i, &end)| self.read(i, end))
    }

    /// Line `i`, which ends at byte `end`, without its terminator: a `\n`
    /// ends a line, and a `\r` before it is part of the terminator, as
    /// [`str::lines`] reads them.
    fn read(&self, i: usize, end: u32) -> &str {
        let line = self.text.get(self.start(i)..end as usize).unwrap_or_default();
        line.strip_suffix('\n').map_or(line, |l| l.strip_suffix('\r').unwrap_or(l))
    }

    /// Byte offset in the buffer where line `i` starts: where line `i - 1`
    /// ends, or 0.
    pub(crate) fn start(&self, i: usize) -> usize {
        i.checked_sub(1).and_then(|p| self.ends.get(p)).map_or(0, |&e| e as usize)
    }

    /// Bytes in the buffer, line terminators included.
    pub(crate) fn text_len(&self) -> usize {
        self.text.len()
    }

    /// The whole buffer, line terminators included.
    pub(crate) fn buffer(&self) -> &str {
        &self.text
    }

    /// Where each line ends in the buffer, its terminator included.
    pub(crate) fn ends(&self) -> &[u32] {
        &self.ends
    }
}

impl Index<usize> for Lines {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        self.read(i, self.ends[i])
    }
}

/// `n`, a byte offset into a buffer of at most `u32::MAX` bytes, as 32
/// bits. A larger one saturates, so what is read past that bound comes
/// back cut short or empty, never out of bounds.
pub(crate) fn narrow(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// The result of scrubbing one source file.
#[derive(Debug, Clone, Default)]
pub struct Scrubbed {
    /// Source lines with comment and literal contents blanked to spaces.
    /// Column positions of surviving code are identical to the input.
    pub code: Lines,
    /// `(line index, range in comment_text)` for every line whose comment
    /// text is more than whitespace.
    pub comments: Vec<(usize, Range<usize>)>,
    /// The comment text of those lines, one line after another.
    pub comment_text: String,
    /// Where each line ends in the source, its terminator included: the
    /// lines of `code`, split as [`str::lines`] splits.
    pub raw_ends: Vec<u32>,
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

/// What [`scrub`] has written so far, and where the current line starts
/// in the source and in `comment_text`.
struct Out {
    code: String,
    ends: Vec<u32>,
    comments: Vec<(usize, Range<usize>)>,
    comment_text: String,
    raw_ends: Vec<u32>,
    line: (usize, usize),
}

impl Out {
    /// Copy a run of code, or blank a run of comment or literal text and
    /// keep the comment text, as `state` requires.
    fn run(&mut self, state: State, text: &str) {
        match state {
            State::Code => self.code.push_str(text),
            State::LineComment | State::BlockComment(_) => {
                self.comment_text.push_str(text);
                blank(&mut self.code, text);
            }
            State::Str | State::RawStr(_) | State::Char => blank(&mut self.code, text),
        }
    }

    /// End the current line with `terminator` (`\n`, `\r\n`, or nothing
    /// at the end of the source); the next line starts at source byte
    /// `next`.
    fn end_line(&mut self, terminator: &str, next: usize) {
        let comment_start = self.line.1;
        if self.comment_text[comment_start..].trim().is_empty() {
            self.comment_text.truncate(comment_start);
        } else {
            self.comments.push((self.ends.len(), comment_start..self.comment_text.len()));
        }
        self.code.push_str(terminator);
        self.ends.push(narrow(self.code.len()));
        self.raw_ends.push(narrow(next));
        self.line = (next, self.comment_text.len());
    }
}

/// Scrub `src`, blanking comments and literals while preserving layout.
///
/// An unterminated ordinary string or char at EOL is a syntax error in
/// real Rust unless the line ends with `\`; be forgiving and stay
/// in-state so multi-line strings scrub correctly.
pub fn scrub(src: &str) -> Scrubbed {
    let bytes = src.as_bytes();
    // `str::lines` ends a line only at a `\n`, plus a last line that has
    // none, so this is the exact line count
    let lines = bytes.iter().filter(|&&c| c == b'\n').count()
        + usize::from(bytes.last().is_some_and(|&c| c != b'\n'));
    let mut out = Out {
        code: String::with_capacity(src.len()),
        ends: Vec::with_capacity(lines),
        // the comments are read for markers and dropped, so they may take
        // room for a comment on every line and the whole source's text
        comments: Vec::with_capacity(lines),
        comment_text: String::with_capacity(src.len()),
        raw_ends: Vec::with_capacity(lines),
        line: (0, 0),
    };
    let mut state = State::Code;
    let mut i = 0usize;
    // each pass copies (or blanks) the run of bytes that cannot change
    // the state, then handles the byte that ended the run
    while i < bytes.len() {
        let end = match state {
            State::Code => code_run_end(bytes, i),
            // a line comment runs to its line's end; a lone `\r` in it is text
            State::LineComment => {
                let nl = src[i..].find('\n').map_or(bytes.len(), |p| i + p);
                if nl > i && bytes[nl - 1] == b'\r' {
                    nl - 1
                } else {
                    nl
                }
            }
            State::BlockComment(_) => {
                run_end(bytes, i, |c| matches!(c, b'*' | b'/' | b'\n' | b'\r'))
            }
            State::Str => run_end(bytes, i, |c| matches!(c, b'\\' | b'"' | b'\n' | b'\r')),
            State::Char => run_end(bytes, i, |c| matches!(c, b'\\' | b'\'' | b'\n' | b'\r')),
            State::RawStr(_) => run_end(bytes, i, |c| matches!(c, b'"' | b'\n' | b'\r')),
        };
        out.run(state, &src[i..end]);
        i = end;
        let Some(&c) = bytes.get(i) else { break };
        if let Some(len) = line_end(bytes, i) {
            // line comments never span lines
            if state == State::LineComment {
                state = State::Code;
            }
            out.end_line(&src[i..i + len], i + len);
            i += len;
            continue;
        }
        match state {
            State::Code => {
                if let Some((hashes, len)) = raw_string_open(bytes, i) {
                    state = State::RawStr(hashes);
                    spaces(&mut out.code, len);
                    i += len;
                    continue;
                }
                match (c, bytes.get(i + 1)) {
                    (b'/', Some(b'/')) => {
                        state = State::LineComment;
                        spaces(&mut out.code, 2);
                        i += 2;
                    }
                    (b'/', Some(b'*')) => {
                        state = State::BlockComment(1);
                        spaces(&mut out.code, 2);
                        i += 2;
                    }
                    (b'"', _) => {
                        state = State::Str;
                        spaces(&mut out.code, 1);
                        i += 1;
                    }
                    (b'b', Some(b'\'')) => {
                        // byte char literal b'x'
                        state = State::Char;
                        spaces(&mut out.code, 2);
                        i += 2;
                    }
                    (b'b', Some(b'"')) => {
                        state = State::Str;
                        spaces(&mut out.code, 2);
                        i += 2;
                    }
                    (b'\'', _) if !is_lifetime(src, i) => {
                        state = State::Char;
                        spaces(&mut out.code, 1);
                        i += 1;
                    }
                    // a lifetime tick, a lone `\r`, or a `/`, `r` or `b`
                    // that opens nothing
                    _ => {
                        out.code.push(char::from(c));
                        i += 1;
                    }
                }
            }
            State::BlockComment(depth) => match (c, bytes.get(i + 1)) {
                (b'*', Some(b'/')) => {
                    state = if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                    spaces(&mut out.code, 2);
                    i += 2;
                }
                (b'/', Some(b'*')) => {
                    state = State::BlockComment(depth + 1);
                    spaces(&mut out.code, 2);
                    i += 2;
                }
                // a lone `*`, `/` or `\r`
                _ => {
                    out.comment_text.push(char::from(c));
                    spaces(&mut out.code, 1);
                    i += 1;
                }
            },
            State::Str | State::Char if c == b'\\' => {
                // the backslash and the character it escapes, unless the
                // line ends after it
                spaces(&mut out.code, 2);
                i += 1;
                if line_end(bytes, i).is_none() {
                    i += src[i..].chars().next().map_or(0, char::len_utf8);
                }
            }
            State::Str | State::Char if c != b'\r' => {
                // the closing quote
                state = State::Code;
                spaces(&mut out.code, 1);
                i += 1;
            }
            State::RawStr(hashes) if c == b'"' => {
                // the quote closes the string only if `hashes` `#`s follow
                let len = 1 + hashes as usize;
                if (1..len).all(|k| bytes.get(i + k) == Some(&b'#')) {
                    state = State::Code;
                    spaces(&mut out.code, len);
                    i += len;
                } else {
                    spaces(&mut out.code, 1);
                    i += 1;
                }
            }
            // a lone `\r` in a literal: text, like any other byte there
            _ => {
                out.run(state, "\r");
                i += 1;
            }
        }
    }
    if out.line.0 < bytes.len() {
        // the last line has no terminator
        out.end_line("", bytes.len());
    }
    // the copy is as long as the source, so this frees nothing, unless a
    // multi-byte character or a string's `\` before a line end was blanked
    out.code.shrink_to_fit();
    Scrubbed {
        code: Lines { text: out.code, ends: out.ends },
        comments: out.comments,
        comment_text: out.comment_text,
        raw_ends: out.raw_ends,
    }
}

/// What a byte does to a run of code: nothing ([`CODE`]), end it
/// ([`STOP`]: `/`, a quote, a line end), or end it when the byte after it
/// opens a literal ([`RAW`]: an `r` before `"` or `#`; [`BYTE`]: a `b`
/// before `"`, `'` or `r`).
const CODE_CLASS: [u8; 256] = {
    let mut class = [CODE; 256];
    class[b'/' as usize] = STOP;
    class[b'"' as usize] = STOP;
    class[b'\'' as usize] = STOP;
    class[b'\n' as usize] = STOP;
    class[b'\r' as usize] = STOP;
    class[b'r' as usize] = RAW;
    class[b'b' as usize] = BYTE;
    class
};
/// A byte that never ends a run of code.
const CODE: u8 = 0;
/// A byte that always ends a run of code.
const STOP: u8 = 1;
/// An `r`, which may open a raw string.
const RAW: u8 = 2;
/// A `b`, which may open a byte string or char.
const BYTE: u8 = 3;

/// Index of the first byte at or after `from` that can end a run of
/// code: `/`, a quote, a line end, an `r` that may open a raw string
/// (`r"`, `r#`) or a `b` that may open a byte string or char (`b"`, `b'`,
/// `br`); or the length of `bytes`.
fn code_run_end(bytes: &[u8], from: usize) -> usize {
    let mut i = from;
    while let Some(&c) = bytes.get(i) {
        match CODE_CLASS[usize::from(c)] {
            CODE => i += 1,
            RAW if !matches!(bytes.get(i + 1), Some(b'"' | b'#')) => i += 1,
            BYTE if !matches!(bytes.get(i + 1), Some(b'"' | b'\'' | b'r')) => i += 1,
            _ => break,
        }
    }
    i
}

/// Index of the first byte at or after `from` that `stop` accepts, or
/// the length of `bytes`.
fn run_end(bytes: &[u8], from: usize, stop: impl Fn(u8) -> bool) -> usize {
    bytes[from..].iter().position(|&c| stop(c)).map_or(bytes.len(), |p| from + p)
}

/// The length of the line terminator at byte `i` — `\n` or `\r\n` — if
/// one starts there.
fn line_end(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i) {
        Some(b'\n') => Some(1),
        Some(b'\r') if bytes.get(i + 1) == Some(&b'\n') => Some(2),
        _ => None,
    }
}

/// Append one space per character of `s`, whatever its UTF-8 width.
fn blank(code: &mut String, s: &str) {
    spaces(code, s.chars().count());
}

/// Append `n` spaces.
fn spaces(code: &mut String, mut n: usize) {
    const SPACES: &str = "                                                                ";
    while n > SPACES.len() {
        code.push_str(SPACES);
        n -= SPACES.len();
    }
    code.push_str(&SPACES[..n]);
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
fn is_lifetime(text: &str, i: usize) -> bool {
    let mut after = text[i + 1..].chars();
    match after.next() {
        // `'x'` is a char literal; `'static` / `'a,` are lifetimes
        Some(c) if c.is_alphabetic() || c == '_' => after.next() != Some('\''),
        _ => false,
    }
}

/// The length of the `#[cfg(test)]` that opens `text`, through its `]`,
/// if `text` starts with one once its whitespace is ignored.
fn cfg_test_len(text: &str) -> Option<usize> {
    const ATTR: &str = "#[cfg(test)]";
    let mut rest = text.char_indices().filter(|(_, c)| !c.is_whitespace());
    let mut len = 0;
    for a in ATTR.chars() {
        let (at, c) = rest.next().filter(|&(_, c)| c == a)?;
        len = at + c.len_utf8();
    }
    Some(len)
}

/// Per-line flags marking `#[cfg(test)]`-gated regions (the attribute
/// line through the closing brace of the item it gates). Attributes that
/// gate a braceless item (`#[cfg(test)] use foo;`) end at the `;`.
///
/// One search over the buffer finds every `#`; the lines sit in it in
/// order, so a hit's line is found by walking the line table forward. A
/// line's first `#` that opens the attribute within that line starts a
/// region, and the search resumes at the line after the region. The
/// gated item's end is found by reading the buffer's bytes through a
/// class table that marks `{`, `}` and `;`, and its line by a binary
/// search of the line table.
pub fn test_regions(code: &Lines) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let bytes = code.text.as_bytes();
    // the `#` search resumes at byte `from`; `line` is at or before the
    // line that holds it
    let (mut from, mut line) = (0, 0);
    while let Some(hit) = code.text[from..].find('#').map(|p| from + p) {
        // no `#` sits in a terminator, so the hit is on the first line
        // that ends past it
        while code.ends.get(line).is_some_and(|&end| end as usize <= hit) {
            line += 1;
        }
        let Some(text) = code.get(line) else { break };
        let attr_start = hit - code.start(line);
        let Some(len) = text.get(attr_start..).and_then(cfg_test_len) else {
            from = hit + 1;
            continue;
        };
        // walk forward from the end of the attribute to the gated item's
        // body, skipping the attribute itself so `#[cfg(test)]`'s own
        // brackets, and any code before it, don't confuse the scan
        let (mut depth, mut entered) = (0i32, false);
        let mut at = hit + len;
        let stop = loop {
            let Some(skip) = bytes
                .get(at..)
                .and_then(|rest| rest.iter().position(|&c| ITEM_END[usize::from(c)]))
            else {
                break None;
            };
            at += skip;
            match bytes[at] {
                b'{' => {
                    depth += 1;
                    entered = true;
                }
                b'}' => {
                    depth -= 1;
                    if entered && depth <= 0 {
                        break Some(at);
                    }
                }
                b';' if !entered && depth == 0 => break Some(at),
                _ => {}
            }
            at += 1;
        };
        // no `{`, `}` or `;` sits in a terminator, so the stop is on the
        // first line that ends past it
        let end =
            stop.map_or(code.len() - 1, |at| code.ends.partition_point(|&e| e as usize <= at));
        for flag in in_test.iter_mut().take(end + 1).skip(line) {
            *flag = true;
        }
        line = end + 1;
        if line >= code.len() {
            break;
        }
        from = code.start(line);
    }
    in_test
}

/// The bytes that can end a `#[cfg(test)]` item: `{`, `}` and `;`.
const ITEM_END: [bool; 256] = {
    let mut end = [false; 256];
    end[b'{' as usize] = true;
    end[b'}' as usize] = true;
    end[b';' as usize] = true;
    end
};

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

    /// `(line, text)` for every line that carries comment text.
    pub(crate) fn comment_texts(s: &Scrubbed) -> Vec<(usize, &str)> {
        s.comments.iter().map(|(line, r)| (*line, &s.comment_text[r.clone()])).collect()
    }

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
        assert_eq!(comment_texts(&s), [(1, " ≥ "), (7, " a  b ·  c ")]);
    }

    #[test]
    fn lines_drop_crlf_and_the_final_newline() {
        let crlf = scrub("one\r\ntwo\r\n").code;
        assert_eq!(crlf.iter().collect::<Vec<_>>(), ["one", "two"]);
        assert_eq!(&crlf[1], "two");
        assert_eq!(crlf.get(2), None);
        assert_eq!(crlf.get(usize::MAX), None);
        let trailing = scrub("a\n\n").code;
        assert_eq!(trailing.iter().collect::<Vec<_>>(), ["a", ""]);
        let empty = scrub("");
        assert!(empty.code.is_empty());
        assert_eq!(empty.code.len(), 0);
        assert_eq!(empty.code.get(0), None);
        assert!(empty.raw_ends.is_empty());
        // the split is `str::lines`', a lone `\r` included, for the
        // scrubbed lines and the source's own
        for text in ["\n", "x", "a\rb\r\n\r\nc", "tail\r", "\r\r\n"] {
            let s = scrub(text);
            let want: Vec<&str> = text.lines().collect();
            assert_eq!(s.code.iter().collect::<Vec<_>>(), want, "{text:?}");
            assert_eq!(s.code.len(), text.lines().count());
            // the scrubbed copy keeps the line ends, so it is as long as
            // the source
            assert_eq!(s.code.text_len(), text.len(), "{text:?}");
            let raw = Lines::from_ends(text.to_string(), s.raw_ends);
            assert_eq!(raw.iter().collect::<Vec<_>>(), want, "{text:?}");
        }
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let s = scrub("let x = \".unwrap()\"; // .expect(\nlet y = 1;");
        assert!(!s.code[0].contains("unwrap"));
        assert!(!s.code[0].contains("expect"));
        assert_eq!(&s.code[1], "let y = 1;");
        assert_eq!(s.comments.len(), 1);
        assert!(comment_texts(&s)[0].1.contains(".expect("));
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
    fn cfg_test_after_an_index_on_the_same_line() {
        // the region starts after the attribute's own `]`, not after the
        // `]` of `[1u8]`, so the `;` before the attribute ends nothing
        let src = "pub fn f() -> u8 { let a = [1u8]; a[0] } #[cfg(test)] mod t {\n    \
                   fn g(x: Option<u8>) -> u8 { x.unwrap() }\n}\nfn tail() {}";
        let s = scrub(src);
        assert_eq!(test_regions(&s.code), [true, true, true, false]);
        let spaced = scrub("let v = [0]; # [ cfg ( test ) ] mod t {\n}\nfn tail() {}");
        assert_eq!(test_regions(&spaced.code), [true, true, false]);
    }

    /// Recorded from the per-line search: the first `#` on a line that
    /// opens `#[cfg(test)]` (Unicode whitespace ignored) starts a region,
    /// and the search resumes at the line after the region.
    #[test]
    fn cfg_test_search_keeps_its_line_semantics() {
        let regions = |src: &str| test_regions(&scrub(src).code);
        // `#`s that open no attribute before one that does
        assert_eq!(
            regions("#![allow(x)] x # y ##[cfg(test)] mod t {\n}\nfn tail() {}"),
            [true, true, false]
        );
        // the second attribute sits on the region's last line, so it
        // starts no region of its own
        assert_eq!(
            regions("#[cfg(test)] mod a { } #[cfg(test)] mod b {\n    fn t() {}\n}\nfn tail() {}"),
            [true, false, false, false]
        );
        // an attribute on a last line without a newline
        assert_eq!(regions("fn a() {}\n#[cfg(test)]"), [false, true]);
        assert_eq!(regions("fn a() {}\n#[cfg(test)] mod t { fn x() {} }"), [false, true]);
        // Unicode whitespace inside the attribute, and near misses
        assert_eq!(
            regions("#\u{3000}[cfg(\u{a0}test) ] mod t {\n}\nfn tail() {}"),
            [true, true, false]
        );
        assert_eq!(
            regions("#[cfg(tests)] mod t {\n#[cfg(test)\n}\n#[cfg(test)]"),
            [false, false, false, true]
        );
    }

    #[test]
    fn cfg_test_on_braceless_item() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() {}";
        let s = scrub(src);
        let flags = test_regions(&s.code);
        assert_eq!(flags, vec![true, true, false]);
    }
}
