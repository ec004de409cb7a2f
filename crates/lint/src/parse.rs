//! A lightweight token-tree parser over the scrubbed source.
//!
//! The lexical rules (`no-panic-in-lib`, `no-println-in-lib`,
//! `determinism`) need the *words* of one vocabulary
//! ([`crate::rules::Word`]); the index-aware
//! rules (`unit-flow`, `shared-state-in-par`, `panic-propagation`) need
//! *items*: function signatures with typed parameters, newtype structs,
//! `impl` blocks, `static`/`thread_local!` state, and call sites with
//! their argument expressions. This module turns [`crate::lexer::scrub`]
//! output into a flat token stream (identifiers, numbers, and punctuation
//! with `::`/`->` fused), then walks it once, jumping bracket groups, to
//! extract those items. It is *not* a Rust grammar: macro
//! bodies, patterns and generics are skipped or approximated, which is
//! exactly the right trade for a zero-dependency analyzer — unresolvable
//! constructs degrade to "not indexed", never to a false parse.
//!
//! Each token is classified once, as [`tokenize`] cuts it: its one-byte
//! kind says whether it is an identifier, one of the keywords the walk
//! branches on (`fn`, `impl`, `pub`, the keywords that precede no call,
//! …), a number, `::`, `->`, a non-ASCII character, or any other byte,
//! whose kind is the byte itself. The cutter reads the scrubbed buffer
//! straight through, line ends included (they are blanks, and no token
//! reads past a blank), looks each byte's class up in a 256-entry table,
//! and steps over runs of spaces eight bytes at a time. The kind fits in
//! the padding of the 32-byte [`Tok`], so it costs the token vector
//! nothing. Everything after the cut — the walk, call and argument
//! splitting, the `skip_*` helpers and the word pass — matches on kinds,
//! never on token text.
//!
//! One pass over the tokens, before the walk, finds where every `(`, `[`
//! and `{` group ends and notes every vocabulary word: a closer table
//! with one entry per token, whose stack of open groups lives in the
//! table itself, and a [`Site`] in [`ParsedFile::sites`] for each word,
//! which starts at an identifier or a `.`. The table answers every
//! question about where such a group ends, and nothing else counts their
//! nesting. Skipping a group, finding a fn body's end, closing an `impl`
//! or `thread_local!` scope and splitting a call's arguments are lookups
//! in it. One scan, `stop_at`, finds where a parameter, a return type, a
//! `where` clause, a static's type or a tuple struct's field ends: the
//! first token of a caller's stop set outside every group, which it
//! jumps through the table, and outside `<..>`. The table does not pair
//! `<` and `>`, so they alone are counted: by that scan, by
//! `skip_generics`, which also jumps groups through the table, and by
//! `parse_call`'s step back over a turbofish.
//!
//! Nothing here copies the file's text per token or per call. A [`Tok`]
//! borrows its text from the scrubbed [`Lines`], so [`tokenize`]
//! allocates only the token vector, and the tokens and the closer table
//! are transient: [`parse_file`] walks them and drops them, and a
//! [`ParsedFile`] keeps neither. A [`Call`] is a set of 32-bit positions
//! in the scrubbed text: where its callee starts and how long it is, the
//! line of its `)`, and one run of the file's argument list that holds
//! its turbofish, when it has one, as the run's first entry, then its
//! arguments. Each entry is an [`Arg`], a range of [`Pos`] (line, column)
//! places from its first token's start to its last token's end. The
//! ranges start and end where tokens do, so [`ParsedFile::arg_toks`] and
//! [`ParsedFile::turbofish`] cut them again, with the cutter [`tokenize`]
//! uses, into exactly the tokens the parse saw, and
//! [`ParsedFile::callee`] slices its name from the line. A call allocates
//! nothing of its own.
//!
//! The items' text — names, the `Type::name` qualifier of a method (its
//! name is the qualifier's tail), and every parameter, return, newtype
//! and static type — is written into one buffer per file. [`FnSig`],
//! [`Param`], [`StructDef`] and [`StaticItem`] hold `Range<u32>`s of it,
//! read through [`ParsedFile::text`], [`ParsedFile::name`],
//! [`ParsedFile::qualified`] and [`ParsedFile::ret`], and a fn's
//! parameters are one run of the file's parameter list
//! ([`ParsedFile::params`]), so an item allocates nothing of its own
//! either. Every list and the text buffer are sized to what they hold
//! when [`parse_file`] returns. The symbol index borrows the text.

use std::ops::Range;

use crate::lexer::{narrow, Lines};
use crate::rules::{self, Word};

/// One lexical token of scrubbed code, borrowed from the file's lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok<'a> {
    /// Token text (`foo`, `42.5`, `::`, `->`, `(` …).
    pub text: &'a str,
    /// 0-based source line.
    pub line: u32,
    /// 0-based starting column (byte offset in the scrubbed line).
    pub col: u32,
    /// What the token is, found as it was cut.
    pub(crate) kind: Kind,
}

impl Tok<'_> {
    fn is_ident(&self) -> bool {
        self.kind.is_ident()
    }

    /// Does the token start with an identifier byte: is it an
    /// identifier, a keyword or a number?
    pub(crate) fn starts_ident(&self) -> bool {
        self.kind.is_ident() || self.kind == Kind::NUMBER
    }

    /// Where the token starts.
    fn at(&self) -> Pos {
        Pos { line: self.line, col: self.col }
    }

    /// Where the token ends.
    fn end(&self) -> Pos {
        Pos { line: self.line, col: self.col.saturating_add(narrow(self.text.len())) }
    }
}

/// What a token is, one byte found once as [`tokenize`] cuts it. Any
/// ASCII byte that is not a blank and starts no identifier or number is
/// a token of its own kind, the byte itself (`Kind(b'(')`); the other
/// kinds sit above the ASCII range: identifiers, then the keywords the
/// parse branches on, then numbers, `::`, `->` and a non-ASCII
/// character. A raw identifier (`r#match`) is an identifier, never a
/// keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Kind(u8);

impl Kind {
    const IDENT: Kind = Kind(0x80);
    const AS: Kind = Kind(0x81);
    const CRATE: Kind = Kind(0x82);
    const ELSE: Kind = Kind(0x83);
    const ENUM: Kind = Kind(0x84);
    const FN: Kind = Kind(0x85);
    const FOR: Kind = Kind(0x86);
    const IF: Kind = Kind(0x87);
    const IMPL: Kind = Kind(0x88);
    const IN: Kind = Kind(0x89);
    const LOOP: Kind = Kind(0x8A);
    const MATCH: Kind = Kind(0x8B);
    const MOD: Kind = Kind(0x8C);
    const MOVE: Kind = Kind(0x8D);
    const MUT: Kind = Kind(0x8E);
    const PUB: Kind = Kind(0x8F);
    const RETURN: Kind = Kind(0x90);
    const SELF: Kind = Kind(0x91);
    const STATIC: Kind = Kind(0x92);
    const STRUCT: Kind = Kind(0x93);
    const SUPER: Kind = Kind(0x94);
    const THREAD_LOCAL: Kind = Kind(0x95);
    const TRAIT: Kind = Kind(0x96);
    const UNION: Kind = Kind(0x97);
    const WHERE: Kind = Kind(0x98);
    const WHILE: Kind = Kind(0x99);
    const NUMBER: Kind = Kind(0xC0);
    const PATH: Kind = Kind(0xC1);
    const ARROW: Kind = Kind(0xC2);
    const WIDE: Kind = Kind(0xC3);

    /// An identifier or a keyword.
    fn is_ident(self) -> bool {
        (Kind::IDENT.0..Kind::NUMBER.0).contains(&self.0)
    }
}

/// The keywords the parse branches on, each with its kind.
const KEYWORDS: [(&str, Kind); 25] = [
    ("as", Kind::AS),
    ("crate", Kind::CRATE),
    ("else", Kind::ELSE),
    ("enum", Kind::ENUM),
    ("fn", Kind::FN),
    ("for", Kind::FOR),
    ("if", Kind::IF),
    ("impl", Kind::IMPL),
    ("in", Kind::IN),
    ("loop", Kind::LOOP),
    ("match", Kind::MATCH),
    ("mod", Kind::MOD),
    ("move", Kind::MOVE),
    ("mut", Kind::MUT),
    ("pub", Kind::PUB),
    ("return", Kind::RETURN),
    ("self", Kind::SELF),
    ("static", Kind::STATIC),
    ("struct", Kind::STRUCT),
    ("super", Kind::SUPER),
    ("thread_local", Kind::THREAD_LOCAL),
    ("trait", Kind::TRAIT),
    ("union", Kind::UNION),
    ("where", Kind::WHERE),
    ("while", Kind::WHILE),
];

/// Per first byte, one bit for the length of each keyword that starts
/// with that byte, so most identifiers are told from keywords by one
/// lookup.
const KEYWORD_STARTS: [u16; 256] = {
    let mut starts = [0u16; 256];
    let mut k = 0;
    while k < KEYWORDS.len() {
        let word = KEYWORDS[k].0.as_bytes();
        assert!(word.len() < 16, "a keyword's length must fit the bit mask");
        starts[word[0] as usize] |= 1 << word.len();
        k += 1;
    }
    starts
};

/// The kind of the identifier run `word`: its keyword's, or
/// [`Kind::IDENT`].
#[inline]
fn word_kind(word: &[u8]) -> Kind {
    let first = word.first().map_or(0, |&c| usize::from(c));
    if word.len() >= 16 || KEYWORD_STARTS[first] & (1 << word.len()) == 0 {
        return Kind::IDENT;
    }
    KEYWORDS.iter().find(|(k, _)| k.as_bytes() == word).map_or(Kind::IDENT, |&(_, kind)| kind)
}

/// The byte classes of [`CLASS`]. A blank: ASCII whitespace.
const BLANK: u8 = 0;
/// A byte that starts or continues an identifier or number run.
const WORD: u8 = 1;
/// Any other ASCII byte: a token of its own, or the start of `::`/`->`.
const PUNCT: u8 = 2;
/// A byte of a multi-byte UTF-8 character.
const HIGH: u8 = 3;

/// Each byte's class: the ASCII whitespace [`u8::is_ascii_whitespace`]
/// accepts (space, `\t`, `\n`, `\x0C`, `\r`, but not `\x0B`) is
/// [`BLANK`], ASCII letters, digits and `_` are [`WORD`].
const CLASS: [u8; 256] = {
    let mut class = [PUNCT; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        class[b] = if c >= 0x80 {
            HIGH
        } else if c.is_ascii_whitespace() {
            BLANK
        } else if c.is_ascii_alphanumeric() || c == b'_' {
            WORD
        } else {
            PUNCT
        };
        b += 1;
    }
    class
};

/// Fewer scrubbed bytes per token than nearly any file holds, so
/// [`tokenize`] sizes its vector once: the densest file of this workspace
/// and of perfbench's trees holds 3.6–4.1 bytes per token, line ends not
/// counted, the median file about 5.
const TOKEN_BYTES: usize = 3;

/// Tokenize scrubbed lines. Identifier/number runs, raw identifiers
/// included, become one token; `::` and `->` fuse; every other non-space
/// byte is a one-char token. Each token carries its kind.
pub fn tokenize(code: &Lines) -> Vec<Tok<'_>> {
    // the vector is dropped once `parse_file` returns, so it may take
    // room for a dense file's tokens
    let mut toks = Vec::with_capacity(code.text_len() / TOKEN_BYTES);
    toks.extend(cut(code, 0, 0..code.text_len()));
    toks
}

/// The tokens that start in bytes `range` of `code`'s buffer, where line
/// `line` holds `range.start`. The buffer is read straight through: line
/// ends are blanks, and no token reads past a blank, so each token is cut
/// as it would be from its own line alone, and cutting from a byte where
/// a token starts gives the same tokens as cutting from its line's start.
fn cut(code: &Lines, line: usize, range: Range<usize>) -> Cut<'_> {
    let text = code.buffer();
    let end = range.end.min(text.len());
    Cut { text, ends: code.ends(), at: range.start, end, line, line_start: code.start(line) }
}

/// The iterator [`cut`] returns.
#[derive(Clone)]
struct Cut<'a> {
    /// The scrubbed buffer, line ends included.
    text: &'a str,
    /// Where each line ends in `text`.
    ends: &'a [u32],
    /// Where the next token's search starts.
    at: usize,
    /// Where no token may start any more.
    end: usize,
    /// The line that holds `at`, or one before it, and where it starts.
    line: usize,
    line_start: usize,
}

impl<'a> Iterator for Cut<'a> {
    type Item = Tok<'a>;

    #[inline]
    fn next(&mut self) -> Option<Tok<'a>> {
        let bytes = self.text.as_bytes();
        let end = self.end;
        let mut i = skip_blanks(bytes, self.at, end);
        if i >= end {
            self.at = i;
            return None;
        }
        // no token starts in a line end, so it sits on the first line
        // that ends past it
        while let Some(&line_end) = self.ends.get(self.line).filter(|&&e| e as usize <= i) {
            self.line_start = line_end as usize;
            self.line += 1;
        }
        let start = i;
        let c = bytes[i];
        let kind = match CLASS[usize::from(c)] {
            WORD => {
                // a raw identifier (`r#match`) is one token
                let raw = c == b'r'
                    && bytes.get(i + 1) == Some(&b'#')
                    && bytes.get(i + 2).is_some_and(|&b| b.is_ascii_alphabetic() || b == b'_');
                if raw {
                    i += 2;
                }
                i = word_end(bytes, i);
                if c.is_ascii_digit() {
                    // extend numeric runs across `1.5` and `1e-6` shapes
                    // so a float literal is a single token
                    if bytes.get(i) == Some(&b'.')
                        && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
                    {
                        i = word_end(bytes, i + 1);
                    }
                    if matches!(bytes[i - 1], b'e' | b'E')
                        && matches!(bytes.get(i), Some(b'+' | b'-'))
                        && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
                    {
                        i = word_end(bytes, i + 1);
                    }
                    Kind::NUMBER
                } else if raw {
                    Kind::IDENT
                } else {
                    word_kind(&bytes[start..i])
                }
            }
            // multi-byte UTF-8 punctuation (·, α in scrubbed code should
            // not appear — it is blanked — but be byte-safe regardless)
            HIGH => {
                i += self.text[i..].chars().next().map_or(1, char::len_utf8);
                Kind::WIDE
            }
            _ => match bytes.get(i..i + 2) {
                Some(b"::") => {
                    i += 2;
                    Kind::PATH
                }
                Some(b"->") => {
                    i += 2;
                    Kind::ARROW
                }
                _ => {
                    i += 1;
                    Kind(c)
                }
            },
        };
        self.at = i;
        Some(Tok {
            text: &self.text[start..i],
            line: narrow(self.line),
            col: narrow(start - self.line_start),
            kind,
        })
    }
}

/// The first byte at or after `from` that is not a blank, or `end`.
/// Blanked comments and indents are runs of spaces, so eight bytes are
/// read as one word, and the spaces that start it are counted from its
/// trailing zero bits once it is XORed with eight spaces.
#[inline]
fn skip_blanks(bytes: &[u8], from: usize, end: usize) -> usize {
    const SPACES: u64 = u64::from_le_bytes([b' '; 8]);
    let mut i = from;
    loop {
        if let Some(word) = bytes.get(i..end).and_then(<[u8]>::first_chunk::<8>) {
            let rest = u64::from_le_bytes(*word) ^ SPACES;
            if rest == 0 {
                i += 8;
                continue;
            }
            i += (rest.trailing_zeros() / 8) as usize;
        }
        // a space ends no run of spaces; a tab, `\x0C` or `\r` may sit
        // between them
        if i < end && CLASS[usize::from(bytes[i])] == BLANK {
            i += 1;
        } else {
            return i;
        }
    }
}

/// The end of the identifier or number run that continues at `from`.
#[inline]
fn word_end(bytes: &[u8], from: usize) -> usize {
    let mut i = from;
    while i < bytes.len() && CLASS[usize::from(bytes[i])] == WORD {
        i += 1;
    }
    i
}

/// For each token that opens a `(`, `[` or `{` group, the index just past
/// the token that closes it: the first `)`, `]` or `}`, of whichever
/// kind, at which as many groups have closed as opened since; the end of
/// the tokens when none does. Other tokens' entries are unused. The same
/// pass over the tokens notes, in `out`'s [`ParsedFile::sites`], each
/// vocabulary word that starts at one (every word starts with an
/// identifier or a `.`), and in its comparison lines each line where an
/// `=` token touches an `=` or `!` token before it.
///
/// The stack of open groups lives in the table itself: an open group's
/// entry holds the one it sits in, plus one (0 for none), until its
/// closer overwrites it.
fn closers(toks: &[Tok<'_>], out: &mut ParsedFile) -> Vec<u32> {
    let mut close = vec![0u32; toks.len()];
    let mut top = 0u32;
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            Kind(b'(' | b'[' | b'{') => {
                close[i] = top;
                top = narrow(i + 1);
            }
            Kind(b')' | b']' | b'}') if top > 0 => {
                let open = top as usize - 1;
                top = close[open];
                close[open] = narrow(i + 1);
            }
            Kind::IDENT | Kind(b'.') => {
                if let Some(word) = rules::word_at(toks, i) {
                    out.sites.push(Site { word, at: t.at() });
                }
            }
            Kind(b'=') if i > 0 => {
                // `==`, `!=` and longer runs (`===`); a column saturated
                // at `u32::MAX` touches nothing
                let before = &toks[i - 1];
                let touched = matches!(before.kind, Kind(b'=' | b'!'))
                    && before.line == t.line
                    && before.col.checked_add(1) == Some(t.col);
                if touched && out.comparisons.last() != Some(&t.line) {
                    out.comparisons.push(t.line);
                }
            }
            _ => {}
        }
    }
    while top > 0 {
        let open = top as usize - 1;
        top = close[open];
        close[open] = narrow(toks.len());
    }
    close
}

/// The index just past the group whose opener is `toks[at]`, read from
/// the table [`closers`] made.
fn past(close: &[u32], at: usize) -> usize {
    close.get(at).map_or(at + 1, |&c| c as usize)
}

/// The index of the first token from `from` on that `stop` accepts
/// outside every `<..>`, jumping each `(..)`, `[..]` and `{..}` group
/// through the table [`closers`] made; or of the `)`, `]` or `}` that
/// closes the group the scan started in, when that comes first; else the
/// end of `toks`. An opener that `stop` accepts stops the scan rather
/// than being jumped.
fn stop_at(toks: &[Tok<'_>], close: &[u32], from: usize, stop: impl Fn(Kind) -> bool) -> usize {
    let mut angle = 0u32;
    let mut i = from;
    while let Some(t) = toks.get(i) {
        if angle == 0 && stop(t.kind) {
            return i;
        }
        match t.kind {
            Kind(b'(' | b'[' | b'{') => {
                i = past(close, i);
                continue;
            }
            Kind(b')' | b']' | b'}') => return i,
            Kind(b'<') => angle += 1,
            Kind(b'>') => angle = angle.saturating_sub(1),
            _ => {}
        }
        i += 1;
    }
    i.min(toks.len())
}

/// Is `toks[i]` of `kind`?
fn is(toks: &[Tok<'_>], i: usize, kind: Kind) -> bool {
    toks.get(i).is_some_and(|t| t.kind == kind)
}

/// A place in the scrubbed lines: a 0-based line and a byte column in
/// it, each narrowed to 32 bits, so a range of them is as small as a
/// `Range<usize>`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pos {
    line: u32,
    col: u32,
}

/// Where `toks[run]` sits in the scrubbed lines: from the first token's
/// start to the last token's end. An empty run sits at the start of the
/// token after it (the `,`, `)` or `>` that ends it).
fn extent(toks: &[Tok<'_>], run: Range<usize>) -> Range<Pos> {
    let first = toks.get(run.start).map_or(Pos::default(), Tok::at);
    let last = toks.get(run).and_then(<[_]>::last);
    first..last.map_or(first, Tok::end)
}

/// The tokens of `run`, from where a token starts to where one ends,
/// cut again from `code`.
fn recut(code: &Lines, run: Range<Pos>) -> impl Iterator<Item = Tok<'_>> + Clone {
    let (first, last) = (run.start.line as usize, run.end.line as usize);
    let to = (run.end.col as usize).min(code.get(last).map_or(0, str::len));
    cut(code, first, code.start(first) + run.start.col as usize..code.start(last) + to)
}

/// One `name: Type` parameter of an indexed function, read through
/// [`ParsedFile::text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Binding name (`_` for patterns the parser does not resolve).
    pub name: Range<u32>,
    /// Type text with tokens joined canonically (`Vec<f64>`, `&Watts`).
    pub ty: Range<u32>,
}

/// One `fn` signature (free function or `impl` method). Its text is read
/// through [`ParsedFile::name`], [`ParsedFile::qualified`],
/// [`ParsedFile::params`] and [`ParsedFile::ret`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSig {
    /// `Type::name` inside an `impl Type` block, else the bare name.
    qualified: Range<u32>,
    /// Where the bare name, the tail of `qualified`, starts.
    name: u32,
    /// This fn's run of the file's parameter list, the receiver excluded.
    params: Range<u32>,
    /// The return type, empty for `()` or none.
    ret: Range<u32>,
    /// Where the `fn` keyword sits.
    at: Pos,
    /// 0-based inclusive line range of the body, if the fn has one.
    body: Option<(u32, u32)>,
    /// Declared `pub` (any visibility restriction counts as pub).
    pub is_pub: bool,
    /// Takes `self` / `&self` / `&mut self`.
    pub has_self: bool,
}

impl FnSig {
    /// 0-based line of the `fn` keyword.
    pub fn line(&self) -> usize {
        self.at.line as usize
    }

    /// 0-based column of the `fn` keyword.
    pub fn col(&self) -> usize {
        self.at.col as usize
    }

    /// 0-based inclusive line range of the body, if the fn has one.
    pub fn body(&self) -> Option<(usize, usize)> {
        self.body.map(|(a, b)| (a as usize, b as usize))
    }

    /// Number of typed parameters, the receiver excluded.
    pub fn arity(&self) -> usize {
        self.params.len()
    }
}

/// A `struct` definition (newtype detection only needs tuple structs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Type name.
    pub name: Range<u32>,
    /// For single-field tuple structs, the field's type text.
    pub newtype_of: Option<Range<u32>>,
    /// 0-based inclusive line range from the `struct` keyword to its
    /// closing `}`, `)` or `;`.
    lines: (u32, u32),
}

impl StructDef {
    /// 0-based inclusive line range from the `struct` keyword to its
    /// closing `}`, `)` or `;`.
    pub fn lines(&self) -> (usize, usize) {
        (self.lines.0 as usize, self.lines.1 as usize)
    }
}

/// Flavor of a module-level state item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticKind {
    /// `static NAME: T`.
    Static,
    /// `static mut NAME: T`.
    StaticMut,
    /// A `static` inside a `thread_local!` block.
    ThreadLocal,
}

impl StaticKind {
    /// Stable display name.
    pub fn label(self) -> &'static str {
        match self {
            StaticKind::Static => "static",
            StaticKind::StaticMut => "static mut",
            StaticKind::ThreadLocal => "thread_local! static",
        }
    }
}

/// One `static` / `static mut` / `thread_local!` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticItem {
    /// Item name.
    pub name: Range<u32>,
    /// Which flavor of state.
    pub kind: StaticKind,
    /// Type text.
    pub ty: Range<u32>,
    /// 0-based line of the `static` keyword.
    line: u32,
}

impl StaticItem {
    /// 0-based line of the `static` keyword.
    pub fn line(&self) -> usize {
        self.line as usize
    }
}

/// One argument expression at a call site: where its tokens (delimiters
/// included, commas excluded) sit in the scrubbed lines, from its first
/// token's start to its last token's end. Read it with
/// [`ParsedFile::arg_toks`] or [`ParsedFile::arg_text`].
pub type Arg = Range<Pos>;

/// One call site `path::to::f(args)` or `recv.method(args)`. Its names
/// are positions in the scrubbed lines, read back through
/// [`ParsedFile::callee`], [`ParsedFile::turbofish`] and
/// [`ParsedFile::args`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Where the final path segment (the function or method name) starts.
    at: Pos,
    /// Length of that segment.
    callee_len: u32,
    /// 0-based line of the matching close paren.
    end_line: u32,
    /// This call's run of the file's argument list: where the turbofish
    /// type arguments (`f64` in `.sum::<f64>()`) sit, when it has them,
    /// then its arguments.
    args: Range<u32>,
    /// `recv.method(..)` rather than `path(..)`.
    pub is_method: bool,
    /// The run starts with the turbofish.
    has_turbofish: bool,
}

impl Call {
    /// 0-based line of the callee token.
    pub fn line(&self) -> usize {
        self.at.line as usize
    }

    /// 0-based column of the callee token.
    pub fn col(&self) -> usize {
        self.at.col as usize
    }

    /// 0-based line of the matching close paren.
    pub fn end_line(&self) -> usize {
        self.end_line as usize
    }
}

/// Where a vocabulary word starts in the scrubbed lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// Which word.
    pub word: Word,
    /// Where its first token starts.
    at: Pos,
}

impl Site {
    /// 0-based line of the word's first token.
    pub fn line(&self) -> usize {
        self.at.line as usize
    }

    /// 0-based column of the word's first token.
    pub fn col(&self) -> usize {
        self.at.col as usize
    }
}

// The sizes the per-file representation is built around, checked when
// the crate compiles: a token is its text and three 32-bit-or-smaller
// fields, so its kind grows no file's token vector; a call is six 32-bit
// words and two flags.
const _: () = {
    assert!(size_of::<Tok<'static>>() <= 32);
    assert!(size_of::<Pos>() == 8);
    assert!(size_of::<Site>() == 12);
    assert!(size_of::<Call>() <= 32);
    assert!(size_of::<Param>() == 16);
    assert!(size_of::<FnSig>() == 52);
};

/// Everything extracted from one file. Item names and types sit in one
/// text buffer, read through the accessors; every list is sized to what
/// it holds when [`parse_file`] returns.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Function and method signatures, in source order.
    pub fns: Vec<FnSig>,
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// Module-level state items.
    pub statics: Vec<StaticItem>,
    /// Call sites.
    pub calls: Vec<Call>,
    /// Every vocabulary word in the file, in token order (by line, then
    /// column).
    pub sites: Vec<Site>,
    /// Each 0-based line that holds an `==` or `!=` (an `=` or `!` token
    /// touched by an `=` token), once, in order.
    comparisons: Vec<u32>,
    /// Every call's turbofish and arguments, one contiguous run per call,
    /// in call order.
    args: Vec<Arg>,
    /// Every fn's parameters, one contiguous run per fn, in fn order.
    params: Vec<Param>,
    /// Item names, qualifiers and types, one after another.
    text: String,
}

impl ParsedFile {
    /// The item text at `r`: a [`Param`]'s, [`StructDef`]'s or
    /// [`StaticItem`]'s name or type.
    pub fn text(&self, r: &Range<u32>) -> &str {
        self.text.get(widen(r)).unwrap_or_default()
    }

    /// `sig`'s bare name.
    pub fn name(&self, sig: &FnSig) -> &str {
        self.text(&(sig.name..sig.qualified.end))
    }

    /// `Type::name` for a method in an `impl Type` block, else `sig`'s
    /// bare name.
    pub fn qualified(&self, sig: &FnSig) -> &str {
        self.text(&sig.qualified)
    }

    /// `sig`'s typed parameters, the receiver excluded.
    pub fn params(&self, sig: &FnSig) -> &[Param] {
        self.params.get(widen(&sig.params)).unwrap_or_default()
    }

    /// `sig`'s return type text, `None` for `()`.
    pub fn ret(&self, sig: &FnSig) -> Option<&str> {
        (!sig.ret.is_empty()).then(|| self.text(&sig.ret))
    }

    /// The innermost function whose body contains 0-based `line`.
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnSig> {
        self.fns
            .iter()
            .filter(|f| f.body().is_some_and(|(a, b)| a <= line && line <= b))
            .min_by_key(|f| f.body().map_or(usize::MAX, |(a, b)| b - a))
    }

    /// The tokens of `arg`, read from `code`: the scrubbed lines this
    /// file was parsed from.
    pub fn arg_toks<'a>(
        &'a self,
        code: &'a Lines,
        arg: &Arg,
    ) -> impl Iterator<Item = Tok<'a>> + Clone + 'a {
        recut(code, arg.clone())
    }

    /// Canonical text form of `arg` (for diagnostics).
    pub fn arg_text(&self, code: &Lines, arg: &Arg) -> String {
        join_tokens(self.arg_toks(code, arg))
    }

    /// `call`'s callee: the function or method name.
    pub fn callee<'a>(&self, code: &'a Lines, call: &Call) -> &'a str {
        let end = call.col() + call.callee_len as usize;
        code.get(call.line()).and_then(|l| l.get(call.col()..end)).unwrap_or_default()
    }

    /// `call`'s turbofish type arguments, joined (`f64` for
    /// `.sum::<f64>()`).
    pub fn turbofish(&self, code: &Lines, call: &Call) -> Option<String> {
        let at = call.has_turbofish.then_some(call.args.start as usize)?;
        self.args.get(at).map(|r| join_tokens(self.arg_toks(code, r)))
    }

    /// `call`'s argument expressions, split at top-level commas.
    pub fn args(&self, call: &Call) -> &[Arg] {
        let run = self.args.get(widen(&call.args)).unwrap_or_default();
        run.get(usize::from(call.has_turbofish)..).unwrap_or_default()
    }

    /// Each 0-based line that holds an `==` or `!=` outside comments and
    /// literals, once, in order: the only lines on which `float-eq` can
    /// find a comparison.
    pub(crate) fn comparison_lines(&self) -> impl Iterator<Item = usize> + '_ {
        self.comparisons.iter().map(|&line| line as usize)
    }

    /// Give back the room no list or the text buffer fills.
    fn fit(&mut self) {
        self.fns.shrink_to_fit();
        self.structs.shrink_to_fit();
        self.statics.shrink_to_fit();
        self.calls.shrink_to_fit();
        self.sites.shrink_to_fit();
        self.comparisons.shrink_to_fit();
        self.args.shrink_to_fit();
        self.params.shrink_to_fit();
        self.text.shrink_to_fit();
    }
}

/// `r` as a range of `usize` offsets.
fn widen(r: &Range<u32>) -> Range<usize> {
    r.start as usize..r.end as usize
}

/// Append what `write` writes to `text`, and return where it sits.
fn push_text(text: &mut String, write: impl FnOnce(&mut String)) -> Range<u32> {
    let start = narrow(text.len());
    write(text);
    start..narrow(text.len())
}

/// Is `kind` a keyword that looks like `ident (` but starts no call?
fn is_non_call_keyword(kind: Kind) -> bool {
    matches!(
        kind,
        Kind::IF
            | Kind::WHILE
            | Kind::FOR
            | Kind::MATCH
            | Kind::RETURN
            | Kind::IN
            | Kind::AS
            | Kind::MOVE
            | Kind::LOOP
            | Kind::ELSE
    )
}

/// Parse one scrubbed file into items and call sites.
pub fn parse_file(code: &Lines) -> ParsedFile {
    let toks = tokenize(code);
    let mut out = ParsedFile::default();
    let close = closers(&toks, &mut out);
    // each open impl block's self type, and the index past its body
    let mut impls: Vec<(&str, usize)> = Vec::new();
    // the index past an open thread_local! block
    let mut thread_local_end: Option<usize> = None;
    let mut pending_pub = false;
    let mut i = 0usize;
    while i < toks.len() {
        match toks[i].kind {
            Kind(b'}') => {
                // a scope closes at the `}` the table paired with its `{`
                while impls.last().is_some_and(|&(_, end)| end <= i + 1) {
                    impls.pop();
                }
                if thread_local_end.is_some_and(|end| end <= i + 1) {
                    thread_local_end = None;
                }
                pending_pub = false;
                i += 1;
            }
            Kind(b';') => {
                pending_pub = false;
                i += 1;
            }
            Kind::PUB => {
                pending_pub = true;
                // skip a `(crate)` / `(super)` restriction
                if is(&toks, i + 1, Kind(b'(')) {
                    i = past(&close, i + 1);
                } else {
                    i += 1;
                }
            }
            Kind::IMPL => {
                if let Some((self_ty, open)) = parse_impl_header(&toks, &close, i) {
                    impls.push((self_ty, past(&close, open)));
                    i = open + 1;
                } else {
                    i += 1;
                }
                pending_pub = false;
            }
            Kind::FN => {
                let self_ty = impls.last().map(|(ty, _)| *ty);
                if let Some((sig, next)) =
                    parse_fn(&toks, &close, i, pending_pub, self_ty, &mut out)
                {
                    // continue *inside* the body so nested items and call
                    // sites are still visited; only the signature tokens
                    // are consumed here
                    i = next;
                    out.fns.push(sig);
                } else {
                    i += 1;
                }
                pending_pub = false;
            }
            Kind::STRUCT => {
                if let Some((def, next)) = parse_struct(&toks, &close, i, &mut out.text) {
                    out.structs.push(def);
                    i = next;
                } else {
                    i += 1;
                }
                pending_pub = false;
            }
            Kind::STATIC => {
                // `&'static T` has a lifetime tick right before it
                let after_lifetime = i > 0 && toks[i - 1].kind == Kind(b'\'');
                if !after_lifetime {
                    let in_thread_local = thread_local_end.is_some();
                    if let Some((item, next)) =
                        parse_static(&toks, &close, i, in_thread_local, &mut out.text)
                    {
                        out.statics.push(item);
                        i = next;
                        pending_pub = false;
                        continue;
                    }
                }
                i += 1;
            }
            Kind::THREAD_LOCAL if is(&toks, i + 1, Kind(b'!')) && is(&toks, i + 2, Kind(b'{')) => {
                thread_local_end = Some(past(&close, i + 2));
                i += 3;
            }
            Kind(b'(') => {
                if let Some(call) = parse_call(&toks, &close, i, &mut out.args) {
                    out.calls.push(call);
                }
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
    out.fit();
    out
}

/// `impl [<..>] Path [for Path] [where ..] {` → (self type base name,
/// index of the `{`).
fn parse_impl_header<'a>(toks: &[Tok<'a>], close: &[u32], at: usize) -> Option<(&'a str, usize)> {
    let mut i = at + 1;
    if is(toks, i, Kind(b'<')) {
        i = skip_generics(toks, close, i);
    }
    // read path segments; remember the base ident of the last path seen
    // before `{`, preferring the path after `for`
    let mut self_ty = "";
    let mut saw_for = false;
    while let Some(t) = toks.get(i) {
        let name = match t.kind {
            Kind(b'{') => {
                if self_ty.is_empty() {
                    return None;
                }
                return Some((self_ty, i));
            }
            Kind(b';') => return None, // `impl Trait for Type;`-like degenerate
            Kind::FOR => {
                saw_for = true;
                self_ty = "";
                i += 1;
                continue;
            }
            Kind(b'<') => {
                i = skip_generics(toks, close, i);
                continue;
            }
            Kind::WHERE => {
                i = skip_where(toks, close, i);
                continue;
            }
            // a tuple, slice or array self type is named by its first
            // identifier (`(u8, u8)`, `[f64]`, `[f64; N]`), and a `;`
            // inside it ends nothing
            Kind(b'(' | b'[') => {
                let end = past(close, i);
                let first = toks.get(i + 1..end).and_then(|g| g.iter().find(|t| t.is_ident()));
                i = end;
                first
            }
            _ => {
                i += 1;
                Some(t).filter(|t| t.is_ident())
            }
        };
        if let Some(name) = name.filter(|_| self_ty.is_empty() || !saw_for) {
            self_ty = name.text;
        }
    }
    None
}

/// Skip a balanced `<...>` starting at the `<`; returns index after `>`.
/// Each `(..)` and `[..]` group inside is jumped through the table
/// [`closers`] made, so the `;` of `Into<[u8; 4]>` ends nothing.
fn skip_generics(toks: &[Tok<'_>], close: &[u32], at: usize) -> usize {
    let mut depth = 0i32;
    let mut i = at;
    while let Some(t) = toks.get(i) {
        match t.kind {
            Kind(b'(' | b'[') => {
                i = past(close, i);
                continue;
            }
            Kind(b'<') => depth += 1,
            Kind(b'>') => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            // `->` inside fn-pointer generics contains `>` but is fused,
            // so it cannot unbalance the scan; `>>` arrives as two tokens
            Kind(b';' | b'{') => return i, // bail on malformed input
            _ => {}
        }
        i += 1;
    }
    i
}

/// The token range strictly inside the group whose opener is at `at`,
/// and the index after its closer. Input that ends before the group
/// closes lends its last token as the closer; a group opened by the very
/// last token is empty.
fn group(close: &[u32], at: usize) -> (Range<usize>, usize) {
    let close = past(close, at);
    (at + 1..(close - 1).max(at + 1), close)
}

/// Parse `fn name<..>(params) [-> Ret] [where ..] ({ | ;)`, writing its
/// name, parameters and return type into `out`'s item text and parameter
/// list.
///
/// Returns the signature and the token index to resume from (just inside
/// the body brace, so nested items are still visited).
fn parse_fn(
    toks: &[Tok<'_>],
    close: &[u32],
    at: usize,
    is_pub: bool,
    self_ty: Option<&str>,
    out: &mut ParsedFile,
) -> Option<(FnSig, usize)> {
    let name_tok = toks.get(at + 1)?;
    if !name_tok.is_ident() {
        return None;
    }
    let mut i = at + 2;
    if is(toks, i, Kind(b'<')) {
        i = skip_generics(toks, close, i);
    }
    if !is(toks, i, Kind(b'(')) {
        return None;
    }
    let (text_len, first_param) = (out.text.len(), out.params.len());
    let qualified_start = narrow(text_len);
    if let Some(ty) = self_ty {
        out.text.extend([ty, "::"]);
    }
    let name = narrow(out.text.len());
    out.text.push_str(name_tok.text);
    let qualified = qualified_start..narrow(out.text.len());
    // each parameter ends at a `,` outside its groups and `<..>`, or at
    // the list's `)`
    let mut has_self = false;
    let mut start = i + 1;
    loop {
        i = stop_at(toks, close, start, |k| k == Kind(b','));
        has_self |= push_param(&toks[start..i], out);
        match toks.get(i).map(|t| t.kind) {
            Some(Kind(b',')) => start = i + 1,
            Some(Kind(b')')) => break,
            _ => {
                // the list never closes: take back what this fn wrote
                out.text.truncate(text_len);
                out.params.truncate(first_param);
                return None;
            }
        }
    }
    let params = narrow(first_param)..narrow(out.params.len());
    i += 1;
    let mut ret = qualified.end..qualified.end;
    if is(toks, i, Kind::ARROW) {
        let start = i + 1;
        i = stop_at(toks, close, start, |k| matches!(k, Kind(b'{' | b';') | Kind::WHERE));
        ret = push_text(&mut out.text, |text| join_into(text, &toks[start..i]));
        if matches!(out.text(&ret), "" | "()") {
            out.text.truncate(ret.start as usize);
            ret = ret.start..ret.start;
        }
    }
    i = skip_where(toks, close, i);
    // body extent
    let mut body = None;
    let resume;
    if is(toks, i, Kind(b'{')) {
        let close = past(close, i);
        let end_line = toks.get(close.saturating_sub(1)).map_or(toks[i].line, |t| t.line);
        body = Some((toks[i].line, end_line));
        resume = i + 1; // step inside the body
    } else {
        resume = i; // trait method or declaration without body
    }
    let at = toks[at].at();
    Some((FnSig { qualified, name, params, ret, at, body, is_pub, has_self }, resume))
}

/// Add the parameter whose tokens are `ptoks` to `out`'s parameter list
/// and item text, unless it is empty, untyped or the receiver; whether it
/// is the receiver.
fn push_param(ptoks: &[Tok<'_>], out: &mut ParsedFile) -> bool {
    if ptoks.iter().any(|t| t.kind == Kind::SELF) {
        return true;
    }
    let Some(c) = ptoks.iter().position(|t| t.kind == Kind(b':')) else { return false };
    // binding name: the last ident before the colon (`mut x: T`)
    let name = ptoks[..c]
        .iter()
        .rev()
        .find(|t| t.is_ident() && t.kind != Kind::MUT)
        .map_or("_", |t| t.text);
    let name = push_text(&mut out.text, |text| text.push_str(name));
    let ty = push_text(&mut out.text, |text| join_into(text, &ptoks[c + 1..]));
    out.params.push(Param { name, ty });
    false
}

/// Parse `struct Name<..> ( .. ) [where ..] ;` / `struct Name<..> [where ..]
/// { .. }` / `struct Name<..> [where ..] ;`, writing its name and a
/// newtype's field type into `text`.
fn parse_struct(
    toks: &[Tok<'_>],
    close: &[u32],
    at: usize,
    text: &mut String,
) -> Option<(StructDef, usize)> {
    let name_tok = toks.get(at + 1)?;
    if !name_tok.is_ident() {
        return None; // `$name` inside a macro definition, etc.
    }
    let mut i = at + 2;
    if is(toks, i, Kind(b'<')) {
        i = skip_generics(toks, close, i);
    }
    i = skip_where(toks, close, i);
    let mut newtype_of = None;
    match toks.get(i).map(|t| t.kind) {
        Some(Kind(b'(')) => {
            let (inner, end) = group(close, i);
            // one field: no `,` outside its groups and `<..>`
            let fields = &toks[..inner.end];
            let comma = stop_at(fields, close, inner.start, |k| k == Kind(b','));
            if comma == inner.end && !inner.is_empty() {
                // `pub(crate)` leaves bare parens behind; strip them too
                let field = toks[inner].iter().filter(|t| {
                    !matches!(t.kind, Kind::PUB | Kind::CRATE | Kind::SUPER | Kind(b'(' | b')'))
                });
                newtype_of = Some(push_text(text, |text| join_into(text, field)));
            }
            // a tuple struct's `where` clause follows its fields
            i = skip_where(toks, close, end);
        }
        Some(Kind(b'{')) => {
            i = past(close, i);
        }
        _ => {}
    }
    // the last token read is the closing `}` or `)`, or the name or its
    // generics; a `;` right after it ends a unit or tuple struct
    let closer = toks.get(i).filter(|t| t.kind == Kind(b';')).or(toks.get(i - 1));
    let lines = (toks[at].line, closer.map_or(name_tok.line, |t| t.line));
    let name = push_text(text, |text| text.push_str(name_tok.text));
    Some((StructDef { name, newtype_of, lines }, i))
}

/// The index of the `{` or `;` that ends the `where` clause at `at`,
/// outside the groups and `<..>` in it (`F: Fn(u8) -> f64`,
/// `T: Into<[u8; 4]>`), as [`stop_at`] finds it; `at` itself when no
/// clause starts there.
fn skip_where(toks: &[Tok<'_>], close: &[u32], at: usize) -> usize {
    if !is(toks, at, Kind::WHERE) {
        return at;
    }
    stop_at(toks, close, at + 1, |k| matches!(k, Kind(b'{' | b';')))
}

/// Parse `static [mut] NAME: Type` (inside or outside `thread_local!`),
/// writing its name and type into `text`.
fn parse_static(
    toks: &[Tok<'_>],
    close: &[u32],
    at: usize,
    in_thread_local: bool,
    text: &mut String,
) -> Option<(StaticItem, usize)> {
    let mut i = at + 1;
    let mut kind = if in_thread_local { StaticKind::ThreadLocal } else { StaticKind::Static };
    if is(toks, i, Kind::MUT) {
        if !in_thread_local {
            kind = StaticKind::StaticMut;
        }
        i += 1;
    }
    let name_tok = toks.get(i)?;
    if !name_tok.is_ident() {
        return None;
    }
    i += 1;
    if !is(toks, i, Kind(b':')) {
        return None;
    }
    let start = i + 1;
    let i = stop_at(toks, close, start, |k| matches!(k, Kind(b'=' | b';')));
    let item = StaticItem {
        name: push_text(text, |text| text.push_str(name_tok.text)),
        kind,
        ty: push_text(text, |text| join_into(text, &toks[start..i])),
        line: toks[at].line,
    };
    Some((item, i))
}

/// Parse the call whose argument list opens at the `(` at `at`, if the
/// tokens before it name a callee, pushing its turbofish and arguments
/// onto `args`. The calls nested in them are parsed later, so each call's
/// entries stay one run.
fn parse_call(toks: &[Tok<'_>], close: &[u32], at: usize, args: &mut Vec<Arg>) -> Option<Call> {
    // step back over a turbofish `::<..>`
    let mut j = at.checked_sub(1)?;
    let mut turbofish = None;
    if toks[j].kind == Kind(b'>') {
        let end = j;
        let mut depth = 0i32;
        loop {
            match toks[j].kind {
                Kind(b'>') => depth += 1,
                Kind(b'<') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j = j.checked_sub(1)?;
        }
        turbofish = Some(extent(toks, j + 1..end));
        // expect `::` before the `<`
        j = j.checked_sub(1)?;
        if toks[j].kind != Kind::PATH {
            return None;
        }
        j = j.checked_sub(1)?;
    }
    let callee_tok = &toks[j];
    if !callee_tok.is_ident() || is_non_call_keyword(callee_tok.kind) {
        return None;
    }
    // walk the path backwards: ident (:: ident)*
    let mut k = j;
    while k >= 2 && toks[k - 1].kind == Kind::PATH && toks[k - 2].is_ident() {
        k -= 2;
    }
    let before = k.checked_sub(1).map(|p| toks[p].kind);
    // definitions and macros are not calls
    if matches!(
        before,
        Some(Kind::FN | Kind::STRUCT | Kind::ENUM | Kind::UNION | Kind::TRAIT | Kind::MOD)
    ) {
        return None;
    }
    if is(toks, j + 1, Kind(b'!')) {
        return None; // macro, and its `(` follows the `!` anyway
    }
    let is_method = before == Some(Kind(b'.'));
    let first = args.len();
    let has_turbofish = turbofish.is_some();
    args.extend(turbofish);
    // split args at top-level commas, jumping over each nested group
    let (inner, end) = group(close, at);
    let mut start = inner.start;
    // commas inside a closure head `|a, b|` do not split arguments
    let mut in_closure_head = false;
    let mut m = inner.start;
    while m < inner.end {
        match toks[m].kind {
            Kind(b'(' | b'[' | b'{') => {
                m = past(close, m);
                continue;
            }
            Kind(b'|') => {
                if in_closure_head {
                    in_closure_head = false;
                } else {
                    // `|` opens a closure head when an argument starts
                    // with it (bitwise-or never begins an expression);
                    // only `move` may precede the opening pipe
                    in_closure_head = toks[start..m].iter().all(|t| t.kind == Kind::MOVE);
                }
            }
            Kind(b',') if !in_closure_head => {
                args.push(extent(toks, start..m));
                start = m + 1;
            }
            _ => {}
        }
        m += 1;
    }
    if start < inner.end {
        args.push(extent(toks, start..inner.end));
    }
    let end_line = toks.get(end.saturating_sub(1)).map_or(callee_tok.line, |t| t.line);
    Some(Call {
        at: callee_tok.at(),
        callee_len: narrow(callee_tok.text.len()),
        end_line,
        args: narrow(first)..narrow(args.len()),
        is_method,
        has_turbofish,
    })
}

/// Join tokens into canonical type/expression text: no spaces around
/// `::`, `.`, `<`, `>`, `&`, `'` or inside delimiters; single spaces
/// elsewhere.
pub fn join_tokens<'a>(toks: impl IntoIterator<Item = Tok<'a>>) -> String {
    let mut out = String::new();
    join_into(&mut out, toks);
    out
}

/// Append `toks` to `out` as [`join_tokens`] joins them.
fn join_into<'a, T: std::borrow::Borrow<Tok<'a>>>(
    out: &mut String,
    toks: impl IntoIterator<Item = T>,
) {
    let tight_after = |k| {
        matches!(
            k,
            Kind::PATH | Kind::ARROW | Kind(b'.' | b'<' | b'&' | b'\'' | b'(' | b'[' | b'-')
        )
    };
    let tight_before = |k| {
        matches!(k, Kind::PATH | Kind(b'.' | b'<' | b'>' | b',' | b';' | b'(' | b')' | b'[' | b']'))
    };
    let mut prev: Option<Kind> = None;
    for t in toks {
        let t = t.borrow();
        if prev.is_some_and(|p| !tight_after(p)) && !tight_before(t.kind) {
            out.push(' ');
        }
        out.push_str(t.text);
        prev = Some(t.kind);
    }
}

/// Does `ty` mention `name` as a whole path segment (e.g. `Watts`,
/// `&Watts`, `Option<Watts>`, but not `MilliWatts`)?
pub fn type_mentions(ty: &str, name: &str) -> bool {
    let mut from = 0usize;
    while let Some(rel) = ty[from..].find(name) {
        let pos = from + rel;
        let before_ok = !ty[..pos].chars().next_back().is_some_and(super::rules::is_ident_char);
        let after = ty[pos + name.len()..].chars().next();
        let after_ok = !after.is_some_and(super::rules::is_ident_char);
        if before_ok && after_ok {
            return true;
        }
        from = pos + name.len();
    }
    false
}

/// Is this argument a "bare f64" expression: a float-literal arithmetic
/// expression, or anything containing a `.0` tuple/newtype projection?
/// One pass over the tokens answers both.
pub fn is_bare_f64_arg<'a>(toks: impl IntoIterator<Item = Tok<'a>>) -> bool {
    // pure literal arithmetic: every token is a number or an operator,
    // and at least one number is float-shaped
    let (mut literal, mut saw_float) = (true, false);
    let mut before: [Option<Tok<'a>>; 2] = [None, None];
    for t in toks {
        if projects(before, &t) {
            return true;
        }
        match t.kind {
            Kind::NUMBER => saw_float = saw_float || (literal && is_float_literal(t.text)),
            Kind(b'+' | b'-' | b'*' | b'/' | b'(' | b')') => {}
            _ => literal = false,
        }
        before = [before[1], Some(t)];
    }
    literal && saw_float
}

/// Does the token run contain an `x.0` / `(..).0` projection (as opposed
/// to the `.0` inside a float literal, which tokenizes as one number)?
pub fn has_projection<'a>(toks: impl IntoIterator<Item = Tok<'a>>) -> bool {
    let mut before: [Option<Tok<'a>>; 2] = [None, None];
    toks.into_iter().any(|t| {
        let hit = projects(before, &t);
        before = [before[1], Some(t)];
        hit
    })
}

/// Does `t`, after the two tokens `before` it, end an `x.0` / `(..).0` /
/// `v[0].0` projection?
fn projects(before: [Option<Tok<'_>>; 2], t: &Tok<'_>) -> bool {
    matches!(before, [Some(base), Some(dot)]
        if dot.kind == Kind(b'.') && t.text == "0"
            && (base.is_ident() || matches!(base.kind, Kind(b')' | b']'))))
}

/// Is `s` a float literal token (`2.5`, `1e-6`, `3f64`)?
pub fn is_float_literal(s: &str) -> bool {
    if !s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return false;
    }
    if s.starts_with("0x") || s.starts_with("0b") || s.starts_with("0o") {
        return false;
    }
    s.contains('.')
        || s.ends_with("f64")
        || s.ends_with("f32")
        || (s.contains(['e', 'E']) && !s.ends_with(['e', 'E']))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        let scrubbed = crate::lexer::scrub(src);
        parse_file(&scrubbed.code)
    }

    /// `(name, type)` of each of `f`'s parameters.
    fn params_of<'a>(p: &'a ParsedFile, f: &FnSig) -> Vec<(&'a str, &'a str)> {
        p.params(f).iter().map(|q| (p.text(&q.name), p.text(&q.ty))).collect()
    }

    #[test]
    fn fn_signature_with_params_and_return() {
        let p = parse("pub fn plan(cap: Watts, n: usize) -> GigaHertz {\n    body()\n}\n");
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(p.name(f), "plan");
        assert!(f.is_pub);
        assert!(!f.has_self);
        assert_eq!(f.arity(), 2);
        assert_eq!(params_of(&p, f), [("cap", "Watts"), ("n", "usize")]);
        assert_eq!(p.ret(f), Some("GigaHertz"));
        assert_eq!(f.body(), Some((0, 2)));
    }

    #[test]
    fn impl_methods_are_qualified() {
        let src = "impl Cluster {\n    pub fn set_cap(&mut self, cap: Watts) {}\n}\n\
                   impl Display for Watts {\n    fn fmt(&self) {}\n}\n";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.qualified(&p.fns[0]), "Cluster::set_cap");
        assert_eq!(p.name(&p.fns[0]), "set_cap");
        assert!(p.fns[0].has_self);
        assert_eq!(p.fns[0].arity(), 1);
        assert_eq!(p.qualified(&p.fns[1]), "Watts::fmt");
    }

    #[test]
    fn generic_fn_and_multiline_signature() {
        let src = "pub fn par_map<I, T, F>(\n    items: &[I],\n    threads: usize,\n    f: F,\n) -> Vec<T>\nwhere\n    F: Fn(usize) -> T,\n{\n    inner()\n}\n";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(p.name(f), "par_map");
        assert_eq!(params_of(&p, f), [("items", "&[I]"), ("threads", "usize"), ("f", "F")]);
        assert_eq!(p.ret(f), Some("Vec<T>"));
        assert!(f.body().is_some());
    }

    #[test]
    fn newtype_struct_detection() {
        // the last three have `where` clauses, with a `->` and a `;`
        // inside their brackets
        let src = "pub struct Watts(pub f64);\npub struct Pair(f64, f64);\n\
                   pub struct Named { x: f64 }\nstruct Id(usize);\n\
                   struct Multi {\n    x: f64,\n}\nstruct Unit\n;\nstruct Row(\n    f64,\n);\n\
                   struct W<T>\nwhere\n    T: Fn(u8) -> f64,\n{\n    x: T,\n}\n\
                   struct U<T> where T: Copy;\nstruct P<T>(T)\nwhere\n    T: Into<[u8; 4]>;\n";
        let p = parse(src);
        let newtypes: Vec<_> =
            p.structs.iter().map(|s| s.newtype_of.as_ref().map(|ty| p.text(ty))).collect();
        // two fields, named fields, a unit struct or a trailing comma: no
        // newtype
        let want =
            [Some("f64"), None, None, Some("usize"), None, None, None, None, None, Some("T")];
        assert_eq!(newtypes, want);
        let lines: Vec<_> = p.structs.iter().map(StructDef::lines).collect();
        assert_eq!(
            lines,
            [(0, 0), (1, 1), (2, 2), (3, 3), (4, 6), (7, 8), (9, 11), (12, 17), (18, 18), (19, 21)]
        );
        // the clauses' `Fn(u8)` and the body are skipped with the struct
        assert!(p.calls.is_empty());
    }

    #[test]
    fn macro_definition_structs_are_skipped() {
        // `$name` is not an ident token, so the macro template is ignored
        let p = parse(
            "macro_rules! unit {\n    () => {\n        pub struct $name(pub f64);\n    };\n}\n",
        );
        assert!(p.structs.is_empty());
    }

    #[test]
    fn statics_and_thread_locals() {
        let src = "static LIVE: AtomicUsize = AtomicUsize::new(0);\n\
                   static mut COUNTER: u64 = 0;\n\
                   thread_local! {\n    static CURRENT: RefCell<Option<u32>> = x;\n}\n\
                   fn f(s: &'static str) {}\n";
        let p = parse(src);
        assert_eq!(p.statics.len(), 3);
        assert_eq!(p.statics[0].kind, StaticKind::Static);
        assert_eq!(p.text(&p.statics[0].ty), "AtomicUsize");
        assert_eq!(p.statics[1].kind, StaticKind::StaticMut);
        assert_eq!(p.statics[2].kind, StaticKind::ThreadLocal);
        assert_eq!(p.text(&p.statics[2].name), "CURRENT");
        assert_eq!(p.text(&p.statics[2].ty), "RefCell<Option<u32>>");
        // the `&'static str` lifetime did not parse as a static item
        assert_eq!(p.fns.len(), 1);
    }

    #[test]
    fn call_sites_with_args_and_paths() {
        let src = "fn f() {\n    plan(2.5, n);\n    vap_core::budget::plan(x.0 * 1.05);\n    c.set_cap(Watts(60.0));\n}\n";
        let code = crate::lexer::scrub(src).code;
        let p = parse_file(&code);
        let names: Vec<&str> = p.calls.iter().map(|c| p.callee(&code, c)).collect();
        assert!(names.contains(&"plan"));
        assert!(names.contains(&"set_cap"));
        assert!(names.contains(&"Watts"));
        let qualified = p.calls.iter().filter(|c| p.callee(&code, c) == "plan").nth(1).unwrap();
        assert_eq!(p.args(qualified).len(), 1);
        assert!(has_projection(p.arg_toks(&code, &p.args(qualified)[0])));
        let method = p.calls.iter().find(|c| p.callee(&code, c) == "set_cap").unwrap();
        assert!(method.is_method);
        assert_eq!(p.args(method).len(), 1);
        assert!(!is_bare_f64_arg(p.arg_toks(&code, &p.args(method)[0])));
    }

    #[test]
    fn turbofish_and_macro_calls() {
        let src = "fn f() {\n    let s = xs.iter().sum::<f64>();\n    println!(\"{}\", s);\n}\n";
        let code = crate::lexer::scrub(src).code;
        let p = parse_file(&code);
        let sums: Vec<_> = p.calls.iter().filter(|c| p.callee(&code, c) == "sum").collect();
        assert_eq!(sums.len(), 1);
        assert!(sums[0].is_method);
        assert_eq!(p.turbofish(&code, sums[0]).as_deref(), Some("f64"));
        // println! is a macro, not a call
        assert!(!p.calls.iter().any(|c| p.callee(&code, c) == "println"));
    }

    #[test]
    fn multiline_call_extent() {
        let src = "fn f() {\n    par_map(\n        &items,\n        threads,\n        |i, x| x.iter().sum::<f64>(),\n    );\n}\n";
        let code = crate::lexer::scrub(src).code;
        let p = parse_file(&code);
        let c = p.calls.iter().find(|c| p.callee(&code, c) == "par_map").unwrap();
        assert_eq!(c.line(), 1);
        assert_eq!(c.end_line(), 5);
        assert_eq!(p.args(c).len(), 3);
    }

    #[test]
    fn bare_f64_classification() {
        let bare = |src: &str| {
            let code = crate::lexer::scrub(&format!("fn f() {{ g({src}); }}\n")).code;
            let p = parse_file(&code);
            let g = p.calls.iter().find(|c| p.callee(&code, c) == "g").unwrap();
            is_bare_f64_arg(p.arg_toks(&code, &p.args(g)[0]))
        };
        assert!(bare("2.5"));
        assert!(bare("1e-6"));
        assert!(bare("2.0 * 3.5"));
        assert!(bare("x.0"));
        assert!(bare("cap.0 * 1.05"));
        assert!(bare("(a + b).0"));
        assert!(!bare("x"));
        assert!(!bare("Watts(2.5)"));
        assert!(!bare("3"));
        assert!(!bare("n + 1"));
    }

    /// The two-pass classification that [`is_bare_f64_arg`] replaced,
    /// kept as its reference: a projection anywhere, else pure literal
    /// arithmetic with a float-shaped number.
    fn reference_is_bare_f64_arg<'a>(toks: impl Iterator<Item = Tok<'a>> + Clone) -> bool {
        if has_projection(toks.clone()) {
            return true;
        }
        let mut saw_float = false;
        for t in toks {
            if t.kind == Kind::NUMBER {
                if is_float_literal(t.text) {
                    saw_float = true;
                }
                continue;
            }
            if matches!(t.kind, Kind(b'+' | b'-' | b'*' | b'/' | b'(' | b')')) {
                continue;
            }
            return false;
        }
        saw_float
    }

    #[test]
    fn one_pass_bare_f64_matches_the_two_pass_reference() {
        // argument soups: literals, projections and their near misses,
        // operators and groups, in any order
        let pieces = [
            "2.5",
            "1e-6",
            "3",
            "0",
            "x",
            ".",
            "0",
            ".0",
            "x.0",
            "v[0].0",
            "(a + b).0",
            "f(x).0",
            "+",
            "-",
            "*",
            "/",
            "(",
            ")",
            "[",
            "]",
            " ",
            "Watts(",
            "1.5f64",
            "7usize",
            "e",
            "é",
            "x.0.1",
            "r#match",
            "::",
            "f64::NAN",
            "\"s\"",
            "'c'",
        ];
        let sources =
            CALL_CASES.iter().map(|(src, _)| src.to_string()).chain((0..400).map(|seed| {
                format!(
                    "fn f() {{ g({}, {}); }}\n",
                    soup(seed, &pieces, 6),
                    soup(seed + 9_000, &pieces, 3)
                )
            }));
        let (mut checked, mut bare) = (0, 0);
        for src in sources {
            let code = crate::lexer::scrub(&src).code;
            let p = parse_file(&code);
            for arg in p.calls.iter().flat_map(|c| p.args(c)) {
                let got = is_bare_f64_arg(p.arg_toks(&code, arg));
                assert_eq!(got, reference_is_bare_f64_arg(p.arg_toks(&code, arg)), "{src:?}");
                checked += 1;
                bare += usize::from(got);
            }
        }
        assert!(checked > 600 && bare > 100 && checked - bare > 100, "{bare} of {checked}");
    }

    /// Every call in `src`, one line each: `line:col-end_line`, a `.` for
    /// a method, the callee with its turbofish, and the argument texts
    /// between `(..)`, split by ` ; `.
    fn calls_of(src: &str) -> Vec<String> {
        let code = crate::lexer::scrub(src).code;
        let p = parse_file(&code);
        p.calls
            .iter()
            .map(|c| {
                let args: Vec<String> = p.args(c).iter().map(|a| p.arg_text(&code, a)).collect();
                format!(
                    "{}:{}-{} {}{}{} ({})",
                    c.line(),
                    c.col(),
                    c.end_line(),
                    if c.is_method { "." } else { "" },
                    p.callee(&code, c),
                    p.turbofish(&code, c).map_or(String::new(), |t| format!("::<{t}>")),
                    args.join(" ; "),
                )
            })
            .collect()
    }

    /// Sources and their calls as [`calls_of`] renders them, recorded from
    /// `parse_file`, not derived from it, so that any moved name, text or
    /// position fails.
    const CALL_CASES: [(&str, &[&str]); 14] = [
        (
            "fn m() {\n    f(g(a, h(b)), c);\n}\n",
            &["1:4-1 f (g(a, h(b)) ; c)", "1:6-1 g (a ; h(b))", "1:11-1 h (b)"],
        ),
        (
            "fn m() {\n    par_map(&xs, 2, |i, x| x.0 + 1.5);\n}\n",
            &["1:4-1 par_map (&xs ; 2 ; | i, x | x.0 + 1.5)"],
        ),
        (
            "fn m() {\n    spawn(move |a, b| a + b, |x| x, z || w);\n}\n",
            &["1:4-1 spawn (move | a, b | a + b ; | x | x ; z | | w)"],
        ),
        (
            "fn m() {\n    let s = xs.iter().sum::<f64>();\n}\n",
            &["1:15-1 .iter ()", "1:22-1 .sum::<f64> ()"],
        ),
        ("fn m() {\n    vap_core::budget::plan(x);\n}\n", &["1:22-1 plan (x)"]),
        // the macro is not a call; the call in its arguments is
        ("fn m() {\n    println!(\"{}\", f(x));\n}\n", &["1:19-1 f (x)"]),
        (
            "fn m() {\n    let v = fleet\n        .modules()\n        .map(|m| {\n            \
             m.cap(Watts(1.0))\n        })\n        .collect::<Vec<_>>();\n}\n",
            &[
                "2:9-2 .modules ()",
                "3:9-5 .map (| m | { m.cap(Watts(1.0)) })",
                "4:14-4 .cap (Watts(1.0))",
                "4:18-4 Watts (1.0)",
                "6:9-6 .collect::<Vec<_>> ()",
            ],
        ),
        // a file that ends mid-call lends its last token as the `)`
        ("fn m() {\n    g(a, ", &["1:4-1 g (a)"]),
        // scrubbed literals leave empty arguments behind
        ("fn m() {\n    f(\"x\", 'c', y);\n}\n", &["1:4-1 f ( ;  ; y)"]),
        ("fn m() {\n    f(a,,b);\n    g::<>();\n}\n", &["1:4-1 f (a ;  ; b)", "2:4-2 g::<> ()"]),
        // comments between arguments, and a raw identifier
        (
            "fn m() {\n    f(a, // note\n        b /* c */, r#match);\n}\n",
            &["1:4-2 f (a ; b ; r#match)"],
        ),
        // CRLF lines, a signed exponent, a float after a projection and a
        // non-ASCII token
        ("fn m() {\r\n    f(1e-5,\r\n        x.0.1, é);\r\n}\r\n", &["1:4-2 f (1e-5 ; x.0.1 ; é)"]),
        (
            "fn m() {\n    xs.sum::<Vec<Option<f64>>>();\n}\n",
            &["1:7-1 .sum::<Vec<Option<f64>>> ()"],
        ),
        // a literal last argument leaves nothing after the last comma, so
        // it reads as a trailing comma
        ("fn m() {\n    let s = 1;\n    h(br\"z\", b'q', r#\"s\"#);\n}\n", &["2:4-2 h ( ; )"]),
    ];

    #[test]
    fn call_positions_are_pinned() {
        for (src, want) in CALL_CASES {
            assert_eq!(calls_of(src), want, "{src:?}");
        }
    }

    /// Every fn, static and struct in `src`, one line each: a fn as
    /// `line:col pub qualified(self, name: type, ..) -> ret {first-last}`
    /// (flags, return and body only when present), a static as
    /// `line label name: type`, a struct as `first-last struct name(newtype)`.
    fn items_of(src: &str) -> Vec<String> {
        let p = parse(src);
        let fns = p.fns.iter().map(|f| {
            let mut params: Vec<String> =
                params_of(&p, f).iter().map(|(n, t)| format!("{n}: {t}")).collect();
            if f.has_self {
                params.insert(0, "self".into());
            }
            format!(
                "{}:{} {}{}({}){}{}",
                f.line(),
                f.col(),
                if f.is_pub { "pub " } else { "" },
                p.qualified(f),
                params.join(", "),
                p.ret(f).map_or(String::new(), |r| format!(" -> {r}")),
                f.body().map_or(String::new(), |(a, b)| format!(" {{{a}-{b}}}")),
            )
        });
        let statics = p.statics.iter().map(|s| {
            format!("{} {} {}: {}", s.line(), s.kind.label(), p.text(&s.name), p.text(&s.ty))
        });
        let structs = p.structs.iter().map(|s| {
            let (a, b) = s.lines();
            let newtype =
                s.newtype_of.as_ref().map_or(String::new(), |t| format!("({})", p.text(t)));
            format!("{a}-{b} struct {}{newtype}", p.text(&s.name))
        });
        fns.chain(statics).chain(structs).collect()
    }

    /// Sources and their items as [`items_of`] renders them, recorded from
    /// `parse_file` before its scans read the closer table: parameters,
    /// return types, `where` clauses, statics and tuple fields whose
    /// brackets, generics and nested `->` the scans must step over, and
    /// `impl` and `thread_local!` scopes that must close where their
    /// braces do.
    const ITEM_CASES: [(&str, &[&str]); 8] = [
        (
            "pub fn apply<K, F>(f: impl Fn(u8) -> [f64; 2], m: BTreeMap<K, Vec<(u8, u8)>>,\n    \
             g: &dyn Fn(u8, u8) -> (u8, u8), (a, b): (u8, u8), xs: [[u8; 2]; 3]) -> usize {\n    \
             m.len()\n}\n",
            &["0:4 pub apply(f: impl Fn(u8) ->[f64; 2], m: BTreeMap<K, Vec<(u8, u8)>>, \
               g: &dyn Fn(u8, u8) ->(u8, u8), b: (u8, u8), xs: [[u8; 2]; 3]) -> usize {1-3}"],
        ),
        (
            "fn table() -> Box<dyn Fn(u8) -> [f64; 4]> {\n    Box::new(|_| [0.0; 4])\n}\n\
             fn grid<const N: usize>(x: [u8; N]) -> ([u8; N], impl Fn() -> Vec<[u8; 2]>)\n\
             where\n    F: Fn(u8) -> f64,\n{\n    (x, || vec![])\n}\n\
             fn decl(x: u8) -> Option<[u8; 2]>;\n",
            &[
                "0:0 table() -> Box<dyn Fn(u8) ->[f64; 4]> {0-2}",
                "3:0 grid(x: [u8; N]) -> ([u8; N], impl Fn() ->Vec<[u8; 2]>) {6-8}",
                "9:0 decl(x: u8) -> Option<[u8; 2]>",
            ],
        ),
        (
            "static TABLE: [f64; 4] = [0.0; 4];\npub static mut GRID: [[u8; 2]; 3] = [[0; 2]; 3];\n\
             static CACHE: Mutex<BTreeMap<u8, Vec<(u8, u8)>>> = Mutex::new(BTreeMap::new());\n\
             static SPLIT: fn(u8) -> [u8; 2] = split;\n",
            &[
                "0 static TABLE: [f64; 4]",
                "1 static mut GRID: [[u8; 2]; 3]",
                "2 static CACHE: Mutex<BTreeMap<u8, Vec<(u8, u8)>>>",
                "3 static SPLIT: fn(u8) ->[u8; 2]",
            ],
        ),
        (
            "pub struct Pair<T, U>(pub Vec<(T, U)>, [T; 2]) where T: Copy;\n\
             struct Wrap<T>(BTreeMap<T, (u8, u8)>)\nwhere\n    T: Ord + Into<[u8; 4]>;\n\
             struct Call<F>(Box<dyn Fn(u8, u8) -> (u8, u8)>, F) where F: Fn(u8) -> f64;\n\
             struct Grid<const N: usize>([[f64; N]; 2]);\n",
            // a newtype's field text drops every paren, as it drops
            // `pub(crate)`'s
            &[
                "0-0 struct Pair",
                "1-3 struct Wrap(BTreeMap<T, u8, u8>)",
                "4-4 struct Call",
                "5-5 struct Grid([[f64; N]; 2])",
            ],
        ),
        (
            "thread_local! {\n    static DEPTH: Cell<[u8; 2]> = Cell::new([0; 2]);\n    \
             static NAMES: RefCell<Vec<(u8, u8)>> = RefCell::new(Vec::new());\n}\n\
             static AFTER: AtomicUsize = AtomicUsize::new(0);\n\
             fn f() {\n    thread_local! { static IN: u8 = 0; }\n    \
             static LOCAL: [u8; 2] = [0; 2];\n}\n",
            &[
                "5:0 f() {5-8}",
                "1 thread_local! static DEPTH: Cell<[u8; 2]>",
                "2 thread_local! static NAMES: RefCell<Vec<(u8, u8)>>",
                "4 static AFTER: AtomicUsize",
                "6 thread_local! static IN: u8",
                "7 static LOCAL: [u8; 2]",
            ],
        ),
        (
            "fn outer(n: u8) {\n    struct Local;\n    impl Local {\n        \
             fn inner(&self, x: u8) -> u8 { x }\n    }\n    fn helper(y: u8) {}\n}\n\
             impl<T> Outer<T> where T: Into<[u8; 4]> {\n    \
             pub fn method(&self) -> [u8; 4] { todo() }\n}\nfn after(z: u8) {}\n",
            &[
                "0:0 outer(n: u8) {0-6}",
                "3:8 Local::inner(self, x: u8) -> u8 {3-3}",
                "5:4 helper(y: u8) {5-5}",
                "8:8 pub Outer::method(self) -> [u8; 4] {8-8}",
                "10:0 after(z: u8) {10-10}",
                "1-1 struct Local",
            ],
        ),
        (
            "trait Shape {\n    fn area(&self) -> [f64; 2];\n    \
             fn scale(k: f64) -> Self where Self: Sized;\n}\nimpl Shape for Sq {\n    \
             fn area(&self) -> [f64; 2] { [0.0; 2] }\n}\n\
             fn free() -> impl Iterator<Item = (u8, [u8; 2])> { it() }\n",
            &[
                "1:4 area(self) -> [f64; 2]",
                "2:4 scale(k: f64) -> Self",
                "5:4 Sq::area(self) -> [f64; 2] {5-5}",
                "7:0 free() -> impl Iterator<Item =(u8,[u8; 2])> {7-7}",
            ],
        ),
        (
            // a tuple, slice or array self type is named by its first
            // identifier; only a `;` outside its brackets ends the header
            "impl Shape for [f64] {\n    fn area(&self) -> f64 { 0.0 }\n}\n\
             impl Shape for (u8, u8) {\n    fn volume(&self) -> u8 { 0 }\n}\n\
             impl<const N: usize> Shape for [f64; N] {\n    fn perimeter(&self) -> f64 { 0.0 }\n}\n\
             impl Shape for Tri;\nfn loose(x: u8) {}\n",
            &[
                "1:4 f64::area(self) -> f64 {1-1}",
                "4:4 u8::volume(self) -> u8 {4-4}",
                "7:4 f64::perimeter(self) -> f64 {7-7}",
                "10:0 loose(x: u8) {10-10}",
            ],
        ),
    ];

    #[test]
    fn a_semicolon_or_shift_inside_brackets_ends_no_scan() {
        // the `;` of `[u8; 4]` does not end the clause
        let src = "fn risky<T>(x: Option<u8>, t: T) -> u8 where T: Into<[u8; 4]> { x.unwrap() }\n\
                   fn build<T>(t: T)\nwhere\n    T: Into<[u8; 4]> + Fn(u8) -> [f64; 2],\n{\n    \
                   t(1);\n}\n";
        assert_eq!(
            items_of(src),
            ["0:0 risky(x: Option<u8>, t: T) -> u8 {0-0}", "1:0 build(t: T) {4-6}"]
        );
        // the `<` of `1 << 2` sits in a group the scans jump, so it hides
        // no `,`, `{` or `=` after the group
        let src = "fn limit(n: [u8; 1 << 2], m: usize) -> [u8; 1 << 2] { x.unwrap() }\n\
                   static MASKS: [u8; 1 << 2] = [0; 4];\nstruct Pair([u8; 1 << 2], u8);\n\
                   fn after() {}\n";
        assert_eq!(
            items_of(src),
            [
                "0:0 limit(n: [u8; 1<<2], m: usize) -> [u8; 1<<2] {0-0}",
                "3:0 after() {3-3}",
                "1 static MASKS: [u8; 1<<2]",
                "2-2 struct Pair",
            ]
        );
        // nor does the `;` of a bracket inside a fn's or an impl's `<..>`
        // end its generics
        let src = "pub fn pick<T: Into<[u8; 4]>>(t: T) -> u8 { t.unwrap() }\n\
                   impl From<[f64; 4]> for Grid {\n    fn from(x: [f64; 4]) -> Self { g(x) }\n}\n";
        assert_eq!(
            items_of(src),
            ["0:4 pub pick(t: T) -> u8 {0-0}", "2:4 Grid::from(x: [f64; 4]) -> Self {2-2}"]
        );
    }

    #[test]
    fn item_shapes_are_pinned() {
        for (src, want) in ITEM_CASES {
            assert_eq!(items_of(src), want, "{src:?}");
        }
    }

    #[test]
    fn arguments_read_back_as_runs_of_the_file_tokens() {
        let hostile = crate::lexer::tests::HOSTILE;
        let (crlf, lf) = (hostile.join("\r\n"), hostile.join("\n"));
        let sources = CALL_CASES.iter().map(|(src, _)| *src).chain([crlf.as_str(), lf.as_str()]);
        let mut read = 0;
        for src in sources {
            let code = crate::lexer::scrub(src).code;
            let toks = tokenize(&code);
            let p = parse_file(&code);
            for arg in p.calls.iter().flat_map(|c| p.args(c)) {
                let got: Vec<Tok<'_>> = p.arg_toks(&code, arg).collect();
                let Some(first) = got.first() else { continue };
                let at = toks.iter().position(|t| (t.line, t.col) == (first.line, first.col));
                let run = at.and_then(|at| toks.get(at..at + got.len()));
                assert_eq!(run, Some(&got[..]), "{src:?}");
                read += got.len();
            }
        }
        assert!(read > 50, "{read} argument tokens read");
    }

    /// The per-line cut that [`cut`] replaced, kept as its reference:
    /// the tokens of `line`, the 0-based line `line_no`, that start in
    /// `cols`, as `(text, line, column)`.
    fn reference_cut(
        line: &str,
        line_no: usize,
        cols: Range<usize>,
    ) -> impl Iterator<Item = (&str, usize, usize)> {
        let bytes = line.as_bytes();
        let (mut i, end) = (cols.start, cols.end);
        std::iter::from_fn(move || {
            while i < end && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= end {
                return None;
            }
            let start = i;
            let c = bytes[i] as char;
            if c.is_ascii_alphanumeric() || c == '_' {
                // a raw identifier (`r#match`) is one token
                if bytes[i..].starts_with(b"r#")
                    && bytes.get(i + 2).is_some_and(|&b| b.is_ascii_alphabetic() || b == b'_')
                {
                    i += 2;
                }
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                // extend numeric runs across `1.5` and `1e-6` shapes so a
                // float literal is a single token
                if bytes.get(start).is_some_and(u8::is_ascii_digit) {
                    if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                        i += 1;
                        while i < bytes.len()
                            && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                        {
                            i += 1;
                        }
                    }
                    if i > start
                        && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')
                        && i + 1 < bytes.len()
                        && (bytes[i] == b'+' || bytes[i] == b'-')
                        && bytes[i + 1].is_ascii_digit()
                    {
                        i += 1;
                        while i < bytes.len()
                            && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                        {
                            i += 1;
                        }
                    }
                }
            } else if !c.is_ascii() {
                i += line[i..].chars().next().map_or(1, char::len_utf8);
            } else if matches!(&bytes[i..(i + 2).min(bytes.len())], b"::" | b"->") {
                i += 2;
            } else {
                i += 1;
            }
            Some((&line[start..i], line_no, start))
        })
    }

    /// The reference tokens of `code`: [`reference_cut`] line by line.
    fn reference_tokens(code: &Lines) -> Vec<(&str, usize, usize)> {
        code.iter()
            .enumerate()
            .flat_map(|(n, line)| reference_cut(line, n, 0..line.len()))
            .collect()
    }

    /// The depth-counting scan that the closer table replaced, kept as
    /// its reference: the index after the group whose opener is at `at`.
    fn reference_skip_balanced(toks: &[Tok<'_>], at: usize) -> usize {
        let mut depth = 0i32;
        let mut i = at;
        while let Some(t) = toks.get(i) {
            match t.text {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// The kind a token spelled `text` must carry, read from its text.
    fn kind_of(text: &str) -> Kind {
        let keywords = [
            ("as", Kind::AS),
            ("crate", Kind::CRATE),
            ("else", Kind::ELSE),
            ("enum", Kind::ENUM),
            ("fn", Kind::FN),
            ("for", Kind::FOR),
            ("if", Kind::IF),
            ("impl", Kind::IMPL),
            ("in", Kind::IN),
            ("loop", Kind::LOOP),
            ("match", Kind::MATCH),
            ("mod", Kind::MOD),
            ("move", Kind::MOVE),
            ("mut", Kind::MUT),
            ("pub", Kind::PUB),
            ("return", Kind::RETURN),
            ("self", Kind::SELF),
            ("static", Kind::STATIC),
            ("struct", Kind::STRUCT),
            ("super", Kind::SUPER),
            ("thread_local", Kind::THREAD_LOCAL),
            ("trait", Kind::TRAIT),
            ("union", Kind::UNION),
            ("where", Kind::WHERE),
            ("while", Kind::WHILE),
        ];
        let first = text.as_bytes()[0];
        if let Some(&(_, kind)) = keywords.iter().find(|(k, _)| *k == text) {
            kind
        } else if first.is_ascii_digit() {
            Kind::NUMBER
        } else if first.is_ascii_alphabetic() || first == b'_' {
            Kind::IDENT
        } else if text == "::" {
            Kind::PATH
        } else if text == "->" {
            Kind::ARROW
        } else if text.len() == 1 {
            Kind(first)
        } else {
            assert_eq!(text.chars().count(), 1, "{text:?}");
            Kind::WIDE
        }
    }

    /// `n` pieces drawn from `pieces` with a SplitMix64 stream seeded by
    /// `seed`, concatenated.
    fn soup(seed: u64, pieces: &[&str], n: usize) -> String {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..n).map(|_| pieces[(next() % pieces.len() as u64) as usize]).collect()
    }

    /// Blanks, line ends, keywords, numbers and punctuation, and the
    /// shapes a cut must not read across a line end.
    const TOKEN_PIECES: [&str; 58] = [
        " ",
        " ",
        "\t",
        "        ",
        "             ",
        "\n",
        "\r\n",
        "\r",
        "\x0B",
        "\x01",
        "\x0C",
        "\u{3000}",
        "é",
        "·",
        "r#match",
        "r#fn",
        "r#",
        "1e-5",
        "2.5E+3",
        "x.0.1",
        "1.",
        "::",
        "->",
        ":",
        "-",
        ">",
        ".",
        "r#\nmatch",
        ":\n:",
        "-\n>",
        "1.\n5",
        "1e-\n5",
        "r\r\n#x",
        "fn",
        "pub",
        "self",
        "match",
        "thread_local",
        "union",
        "x",
        "_",
        "x1",
        "Watts",
        "0x1F",
        "1usize",
        "3f64",
        "42",
        "(",
        ")",
        "[",
        "]",
        "{",
        "}",
        ",",
        ";",
        "!",
        "#",
        "'",
    ];

    /// The tokens of `src`, each checked against the reference cut and
    /// against the kind its text must carry; the count checked.
    fn check_tokens(src: &str) -> usize {
        let code = crate::lexer::scrub(src).code;
        let toks = tokenize(&code);
        let got: Vec<_> = toks.iter().map(|t| (t.text, t.line as usize, t.col as usize)).collect();
        assert_eq!(got, reference_tokens(&code), "{src:?}");
        for t in &toks {
            assert_eq!(t.kind, kind_of(t.text), "{:?} in {src:?}", t.text);
        }
        // cutting from where a token starts gives the tokens from it on
        for at in (0..toks.len()).step_by(7) {
            let (line, col) = (toks[at].line as usize, toks[at].col as usize);
            let from = code.start(line) + col;
            let tail: Vec<_> = cut(&code, line, from..code.text_len()).collect();
            assert_eq!(tail, toks[at..], "{src:?} from token {at}");
        }
        toks.len()
    }

    #[test]
    fn tokens_match_the_per_line_reference_and_their_texts() {
        let hostile = crate::lexer::tests::HOSTILE;
        let mut checked = check_tokens(&hostile.join("\r\n")) + check_tokens(&hostile.join("\n"));
        for (src, _) in CALL_CASES {
            checked += check_tokens(src);
        }
        for seed in 0..300 {
            checked += check_tokens(&soup(seed, &TOKEN_PIECES, 80));
        }
        assert!(checked > 15_000, "{checked} tokens checked");
    }

    #[test]
    fn closer_table_matches_the_depth_scan_from_every_opener() {
        // mixed kinds, stray closers and groups left open
        let pieces = ["(", ")", "[", "]", "{", "}", "((", "}}", "x", ",", " ", "\n"];
        let mut openers = 0;
        for seed in 0..300 {
            let text = soup(seed, &pieces, 60);
            let code = crate::lexer::scrub(&text).code;
            let toks = tokenize(&code);
            let close = closers(&toks, &mut ParsedFile::default());
            for (at, t) in toks.iter().enumerate() {
                if matches!(t.text, "(" | "[" | "{") {
                    assert_eq!(close[at] as usize, reference_skip_balanced(&toks, at), "{text:?}");
                    openers += 1;
                }
            }
        }
        assert!(openers > 5_000, "{openers} openers checked");
    }

    #[test]
    fn enclosing_fn_resolution() {
        let src = "fn outer() {\n    a();\n}\nfn later() {\n    b();\n}\n";
        let p = parse(src);
        assert_eq!(p.name(p.enclosing_fn(1).unwrap()), "outer");
        assert_eq!(p.name(p.enclosing_fn(4).unwrap()), "later");
    }

    #[test]
    fn type_mention_boundaries() {
        assert!(type_mentions("Watts", "Watts"));
        assert!(type_mentions("&Watts", "Watts"));
        assert!(type_mentions("Option<Watts>", "Watts"));
        assert!(type_mentions("Vec<(usize, Watts)>", "Watts"));
        assert!(!type_mentions("MilliWatts", "Watts"));
        assert!(!type_mentions("WattsPerCore", "Watts"));
        // a multi-byte neighbour (`α`, `·`) is no identifier character and
        // is read without slicing inside it
        assert!(type_mentions("αunwrap·x.unwrap()·", "unwrap"));
        assert!(type_mentions("·panic!·", "panic!"));
        assert!(!type_mentions("xpanic!", "panic!"));
        for name in ["plan", "formula", "uses"] {
            assert!(type_mentions("see E·t formula: plan() uses α", name), "{name}");
        }
    }
}
