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
//! with `::`/`->` fused), then walks it once with balanced-delimiter
//! tracking to extract those items. Every word is found once, in one pass
//! over the tokens after that walk, and kept as a [`Site`] in
//! [`ParsedFile::sites`]. It is *not* a Rust grammar: macro
//! bodies, patterns and generics are skipped or approximated, which is
//! exactly the right trade for a zero-dependency analyzer — unresolvable
//! constructs degrade to "not indexed", never to a false parse.
//!
//! Nothing here copies the file's text. A [`Tok`] borrows its text from
//! the scrubbed [`Lines`], so [`tokenize`] allocates only the token
//! vector, and the tokens are transient: [`parse_file`] walks them and
//! drops them, and a [`ParsedFile`] keeps none. A [`Call`] is a set of
//! positions in the scrubbed text: its callee's line, column and length,
//! its turbofish as a range of [`Pos`] (line, column) places, and its
//! arguments as one run of the file's argument list. An [`Arg`] is such
//! a range too, from its first token's start to its last token's end.
//! The ranges start and end where tokens do, so [`ParsedFile::arg_toks`]
//! and [`ParsedFile::turbofish`] cut them again, with the per-line
//! cutting [`tokenize`] does, into exactly the tokens the parse saw, and
//! [`ParsedFile::callee`] slices its name from the line. A call allocates
//! nothing of its own. Only the items own strings: item names and
//! parameter and return types, which the symbol index borrows.

use std::ops::Range;

use crate::lexer::Lines;
use crate::rules::{self, Word};

/// One lexical token of scrubbed code, borrowed from the file's lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok<'a> {
    /// Token text (`foo`, `42.5`, `::`, `->`, `(` …).
    pub text: &'a str,
    /// 0-based source line.
    pub line: usize,
    /// 0-based starting column (byte offset in the scrubbed line).
    pub col: usize,
}

impl Tok<'_> {
    fn is_ident(&self) -> bool {
        self.text.as_bytes().first().is_some_and(|&c| c.is_ascii_alphabetic() || c == b'_')
    }
}

/// Fewer scrubbed bytes per token than nearly any file holds, so
/// [`tokenize`] sizes its vector once: the densest file of this workspace
/// and of perfbench's trees holds 3.6–4.1 bytes per token, the median
/// file about 5.
const TOKEN_BYTES: usize = 3;

/// Tokenize scrubbed lines. Identifier/number runs, raw identifiers
/// included, become one token; `::` and `->` fuse; every other non-space
/// byte is a one-char token.
pub fn tokenize(code: &Lines) -> Vec<Tok<'_>> {
    // the vector is dropped once `parse_file` returns, so it may take
    // room for a dense file's tokens
    let mut toks = Vec::with_capacity(code.text_len() / TOKEN_BYTES);
    for (line_no, line) in code.iter().enumerate() {
        toks.extend(cut(line, line_no, 0..line.len()));
    }
    toks
}

/// The tokens of `line`, the 0-based line `line_no`, that start in
/// `cols`. Each token is cut from the whole line, so cutting from a
/// column where a token starts gives the same tokens as cutting from 0.
fn cut(line: &str, line_no: usize, cols: Range<usize>) -> impl Iterator<Item = Tok<'_>> + Clone {
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
            // multi-byte UTF-8 punctuation (·, α in scrubbed code should
            // not appear — it is blanked — but be byte-safe regardless)
            i += line[i..].chars().next().map_or(1, char::len_utf8);
        } else if matches!(&bytes[i..(i + 2).min(bytes.len())], b"::" | b"->") {
            i += 2;
        } else {
            i += 1;
        }
        Some(Tok { text: &line[start..i], line: line_no, col: start })
    })
}

/// A place in the scrubbed lines: a 0-based line and a byte column in
/// it, each narrowed to 32 bits, so a range of them is as small as a
/// `Range<usize>`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pos {
    line: u32,
    col: u32,
}

impl Pos {
    fn new(line: usize, col: usize) -> Pos {
        let narrow = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        Pos { line: narrow(line), col: narrow(col) }
    }
}

/// Where `toks[run]` sits in the scrubbed lines: from the first token's
/// start to the last token's end. An empty run sits at the start of the
/// token after it (the `,`, `)` or `>` that ends it).
fn extent(toks: &[Tok<'_>], run: Range<usize>) -> Range<Pos> {
    let first = toks.get(run.start).map_or(Pos::default(), |t| Pos::new(t.line, t.col));
    let last = toks.get(run).and_then(<[_]>::last);
    first..last.map_or(first, |t| Pos::new(t.line, t.col + t.text.len()))
}

/// The tokens of `run`, from where a token starts to where one ends,
/// cut again from `code` line by line.
fn recut(code: &Lines, run: Range<Pos>) -> impl Iterator<Item = Tok<'_>> + Clone {
    let (first, last) = (run.start.line as usize, run.end.line as usize);
    let (from, to) = (run.start.col as usize, run.end.col as usize);
    (first..=last).flat_map(move |n| {
        let line = code.get(n).unwrap_or_default();
        let from = if n == first { from } else { 0 };
        let to = if n == last { to.min(line.len()) } else { line.len() };
        cut(line, n, from..to)
    })
}

/// One `name: Type` parameter of an indexed function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Binding name (`_` for patterns the parser does not resolve).
    pub name: String,
    /// Type text with tokens joined canonically (`Vec<f64>`, `&Watts`).
    pub ty: String,
}

/// One `fn` signature (free function or `impl` method).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSig {
    /// Bare function name.
    pub name: String,
    /// `Type::name` inside an `impl Type` block, else the bare name.
    pub qualified: String,
    /// Declared `pub` (any visibility restriction counts as pub).
    pub is_pub: bool,
    /// Takes `self` / `&self` / `&mut self`.
    pub has_self: bool,
    /// Typed parameters, excluding the receiver.
    pub params: Vec<Param>,
    /// Return type text (`None` for `()`).
    pub ret: Option<String>,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// 0-based column of the `fn` keyword.
    pub col: usize,
    /// 0-based inclusive line range of the body, if the fn has one.
    pub body: Option<(usize, usize)>,
}

/// A `struct` definition (newtype detection only needs tuple structs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// For single-field tuple structs, the field's type text.
    pub newtype_of: Option<String>,
    /// 0-based inclusive line range from the `struct` keyword to its
    /// closing `}`, `)` or `;`.
    pub lines: (usize, usize),
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
    pub name: String,
    /// Which flavor of state.
    pub kind: StaticKind,
    /// Type text.
    pub ty: String,
    /// 0-based line of the `static` keyword.
    pub line: usize,
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
    /// Length of the final path segment (the function or method name),
    /// which starts at `line`/`col`.
    callee_len: usize,
    /// `recv.method(..)` rather than `path(..)`.
    pub is_method: bool,
    /// Where the turbofish type arguments (`f64` in `.sum::<f64>()`) sit,
    /// as an [`Arg`] does.
    turbofish: Option<Arg>,
    /// 0-based line of the callee token.
    pub line: usize,
    /// 0-based column of the callee token.
    pub col: usize,
    /// This call's run of the file's argument list.
    args: Range<usize>,
    /// 0-based line of the matching close paren.
    pub end_line: usize,
}

/// Where a vocabulary word starts in the scrubbed lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// Which word.
    pub word: Word,
    /// 0-based line of its first token.
    pub line: usize,
    /// 0-based column of its first token.
    pub col: usize,
}

/// Everything extracted from one file.
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
    /// Every call's arguments, one contiguous run per call, in call order.
    args: Vec<Arg>,
}

impl ParsedFile {
    /// The innermost function whose body contains 0-based `line`.
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnSig> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(a, b)| a <= line && line <= b))
            .min_by_key(|f| f.body.map(|(a, b)| b - a).unwrap_or(usize::MAX))
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
        let name = code.get(call.line).and_then(|l| l.get(call.col..call.col + call.callee_len));
        name.unwrap_or("")
    }

    /// `call`'s turbofish type arguments, joined (`f64` for
    /// `.sum::<f64>()`).
    pub fn turbofish(&self, code: &Lines, call: &Call) -> Option<String> {
        call.turbofish.as_ref().map(|r| join_tokens(self.arg_toks(code, r)))
    }

    /// `call`'s argument expressions, split at top-level commas.
    pub fn args(&self, call: &Call) -> &[Arg] {
        self.args.get(call.args.clone()).unwrap_or_default()
    }
}

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: [&str; 10] =
    ["if", "while", "for", "match", "return", "in", "as", "move", "loop", "else"];

/// Parse one scrubbed file into items and call sites.
pub fn parse_file(code: &Lines) -> ParsedFile {
    let toks = tokenize(code);
    let mut out = ParsedFile::default();
    // (self type, brace depth the impl body opened at)
    let mut impl_stack: Vec<(&str, i32)> = Vec::new();
    // brace depth at which an open thread_local! body closes
    let mut thread_local_until: Option<i32> = None;
    let mut depth = 0i32;
    let mut pending_pub = false;
    let mut i = 0usize;
    while i < toks.len() {
        match toks[i].text {
            "{" => {
                depth += 1;
                i += 1;
            }
            "}" => {
                depth -= 1;
                while impl_stack.last().is_some_and(|(_, d)| depth < *d) {
                    impl_stack.pop();
                }
                if thread_local_until.is_some_and(|d| depth < d) {
                    thread_local_until = None;
                }
                pending_pub = false;
                i += 1;
            }
            ";" => {
                pending_pub = false;
                i += 1;
            }
            "pub" => {
                pending_pub = true;
                // skip a `(crate)` / `(super)` restriction
                if toks.get(i + 1).is_some_and(|t| t.text == "(") {
                    i = skip_balanced(&toks, i + 1);
                } else {
                    i += 1;
                }
            }
            "impl" => {
                if let Some((self_ty, next)) = parse_impl_header(&toks, i) {
                    depth += 1; // the consumed `{`
                    impl_stack.push((self_ty, depth));
                    i = next;
                } else {
                    i += 1;
                }
                pending_pub = false;
            }
            "fn" => {
                let self_ty = impl_stack.last().map(|(ty, _)| *ty);
                if let Some((sig, next)) = parse_fn(&toks, i, pending_pub, self_ty) {
                    // continue *inside* the body so nested items and call
                    // sites are still visited; only the signature tokens
                    // are consumed here
                    i = next;
                    if sig.body.is_some() {
                        depth += 1; // the consumed body `{`
                    }
                    out.fns.push(sig);
                } else {
                    i += 1;
                }
                pending_pub = false;
            }
            "struct" => {
                if let Some((def, next)) = parse_struct(&toks, i) {
                    out.structs.push(def);
                    i = next;
                } else {
                    i += 1;
                }
                pending_pub = false;
            }
            "static" => {
                // `&'static T` has a lifetime tick right before it
                let after_lifetime = i > 0 && toks[i - 1].text == "'";
                if !after_lifetime {
                    if let Some((item, next)) = parse_static(&toks, i, thread_local_until.is_some())
                    {
                        out.statics.push(item);
                        i = next;
                        pending_pub = false;
                        continue;
                    }
                }
                i += 1;
            }
            "thread_local"
                if toks.get(i + 1).is_some_and(|t| t.text == "!")
                    && toks.get(i + 2).is_some_and(|t| t.text == "{") =>
            {
                depth += 1;
                thread_local_until = Some(depth);
                i += 3;
            }
            "(" => {
                if let Some(call) = parse_call(&toks, i, &mut out.args) {
                    out.calls.push(call);
                }
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
    // one pass notes each word that starts at a token
    for (i, t) in toks.iter().enumerate() {
        if let Some(word) = rules::word_at(&toks, i) {
            out.sites.push(Site { word, line: t.line, col: t.col });
        }
    }
    out
}

/// `impl [<..>] Path [for Path] {` → (self type base name, index after `{`).
fn parse_impl_header<'a>(toks: &[Tok<'a>], at: usize) -> Option<(&'a str, usize)> {
    let mut i = at + 1;
    if toks.get(i).is_some_and(|t| t.text == "<") {
        i = skip_generics(toks, i);
    }
    // read path segments; remember the base ident of the last path seen
    // before `{`, preferring the path after `for`
    let mut self_ty = "";
    let mut saw_for = false;
    while let Some(t) = toks.get(i) {
        match t.text {
            "{" => {
                if self_ty.is_empty() {
                    return None;
                }
                return Some((self_ty, i + 1));
            }
            ";" => return None, // `impl Trait for Type;`-like degenerate
            "for" => {
                saw_for = true;
                self_ty = "";
                i += 1;
            }
            "<" => i = skip_generics(toks, i),
            "where" => {
                // skip ahead to the `{`
                while toks.get(i).is_some_and(|t| t.text != "{") {
                    i += 1;
                }
            }
            _ => {
                if t.is_ident() && (self_ty.is_empty() || !saw_for) {
                    self_ty = t.text;
                }
                i += 1;
            }
        }
    }
    None
}

/// Skip a balanced `<...>` starting at the `<`; returns index after `>`.
fn skip_generics(toks: &[Tok<'_>], at: usize) -> usize {
    let mut depth = 0i32;
    let mut i = at;
    while let Some(t) = toks.get(i) {
        match t.text {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            // `->` inside fn-pointer generics contains `>` but is fused,
            // so it cannot unbalance the scan; `>>` arrives as two tokens
            ";" | "{" => return i, // bail on malformed input
            _ => {}
        }
        i += 1;
    }
    i
}

/// Skip a balanced `(..)` / `[..]` / `{..}` starting at the opener.
fn skip_balanced(toks: &[Tok<'_>], at: usize) -> usize {
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

/// The token range strictly inside the group whose opener is at `at`,
/// and the index after its closer. Input that ends before the group
/// closes lends its last token as the closer; a group opened by the very
/// last token is empty.
fn group(toks: &[Tok<'_>], at: usize) -> (Range<usize>, usize) {
    let close = skip_balanced(toks, at);
    (at + 1..(close - 1).max(at + 1), close)
}

/// Parse `fn name<..>(params) [-> Ret] [where ..] ({ | ;)`.
///
/// Returns the signature and the token index to resume from (just inside
/// the body brace, so nested items are still visited).
fn parse_fn(
    toks: &[Tok<'_>],
    at: usize,
    is_pub: bool,
    self_ty: Option<&str>,
) -> Option<(FnSig, usize)> {
    let name_tok = toks.get(at + 1)?;
    if !name_tok.is_ident() {
        return None;
    }
    let mut i = at + 2;
    if toks.get(i).is_some_and(|t| t.text == "<") {
        i = skip_generics(toks, i);
    }
    if toks.get(i).is_none_or(|t| t.text != "(") {
        return None;
    }
    // split the parameter list at top-level commas
    let mut param_ranges: Vec<Range<usize>> = Vec::new();
    let mut pdepth = 0i32;
    let mut adepth = 0i32; // angle depth, only sane inside type position
    i += 1;
    let mut start = i;
    while let Some(t) = toks.get(i) {
        match t.text {
            "(" | "[" | "{" => pdepth += 1,
            ")" | "]" | "}" if pdepth > 0 => pdepth -= 1,
            ")" => break,
            "<" => adepth += 1,
            ">" if adepth > 0 => adepth -= 1,
            "," if pdepth == 0 && adepth <= 0 => {
                param_ranges.push(start..i);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if toks.get(i).is_none_or(|t| t.text != ")") {
        return None;
    }
    param_ranges.push(start..i);
    i += 1;
    let mut has_self = false;
    let mut params = Vec::new();
    for range in param_ranges {
        let ptoks = &toks[range];
        if ptoks.is_empty() {
            continue;
        }
        if ptoks.iter().any(|t| t.text == "self") {
            has_self = true;
            continue;
        }
        let colon = ptoks.iter().position(|t| t.text == ":");
        let Some(c) = colon else { continue };
        // binding name: the last ident before the colon (`mut x: T`)
        let pname = ptoks[..c]
            .iter()
            .rev()
            .find(|t| t.is_ident() && t.text != "mut")
            .map_or("_", |t| t.text);
        let ty = join_tokens(ptoks[c + 1..].iter().copied());
        params.push(Param { name: pname.to_string(), ty });
    }
    // return type
    let mut ret = None;
    if toks.get(i).is_some_and(|t| t.text == "->") {
        i += 1;
        let start = i;
        let mut adepth = 0i32;
        while let Some(t) = toks.get(i) {
            match t.text {
                "<" | "(" | "[" => adepth += 1,
                ">" | ")" | "]" if adepth > 0 => adepth -= 1,
                "{" | ";" | "where" if adepth <= 0 => break,
                _ => {}
            }
            i += 1;
        }
        ret = Some(join_tokens(toks[start..i].iter().copied()));
    }
    // where clause
    if toks.get(i).is_some_and(|t| t.text == "where") {
        while toks.get(i).is_some_and(|t| t.text != "{" && t.text != ";") {
            i += 1;
        }
    }
    // body extent
    let mut body = None;
    let resume;
    match toks.get(i).map(|t| t.text) {
        Some("{") => {
            let close = skip_balanced(toks, i);
            let end_line = toks.get(close.saturating_sub(1)).map_or(toks[i].line, |t| t.line);
            body = Some((toks[i].line, end_line));
            resume = i + 1; // step inside the body
        }
        _ => resume = i, // trait method or declaration without body
    }
    let name = name_tok.text.to_string();
    let qualified = match self_ty {
        Some(ty) => format!("{ty}::{name}"),
        None => name.clone(),
    };
    Some((
        FnSig {
            name,
            qualified,
            is_pub,
            has_self,
            params,
            ret: ret.filter(|r| !r.is_empty() && r != "()"),
            line: toks[at].line,
            col: toks[at].col,
            body,
        },
        resume,
    ))
}

/// Parse `struct Name<..> ( .. ) ;` / `struct Name { .. }` / `struct Name;`.
fn parse_struct(toks: &[Tok<'_>], at: usize) -> Option<(StructDef, usize)> {
    let name_tok = toks.get(at + 1)?;
    if !name_tok.is_ident() {
        return None; // `$name` inside a macro definition, etc.
    }
    let mut i = at + 2;
    if toks.get(i).is_some_and(|t| t.text == "<") {
        i = skip_generics(toks, i);
    }
    let mut newtype_of = None;
    match toks.get(i).map(|t| t.text) {
        Some("(") => {
            let (inner, close) = group(toks, i);
            let inner = &toks[inner];
            let top_commas = {
                let mut depth = 0i32;
                let mut n = 0usize;
                for t in inner {
                    match t.text {
                        "(" | "[" | "<" => depth += 1,
                        ")" | "]" | ">" if depth > 0 => depth -= 1,
                        "," if depth == 0 => n += 1,
                        _ => {}
                    }
                }
                n
            };
            if top_commas == 0 && !inner.is_empty() {
                // `pub(crate)` leaves bare parens behind; strip them too
                let field = inner
                    .iter()
                    .copied()
                    .filter(|t| !matches!(t.text, "pub" | "crate" | "super" | "(" | ")"));
                newtype_of = Some(join_tokens(field));
            }
            i = close;
        }
        Some("{") => {
            i = skip_balanced(toks, i);
        }
        _ => {}
    }
    // the last token read is the closing `}` or `)`, or the name or its
    // generics; a `;` right after it ends a unit or tuple struct
    let closer = toks.get(i).filter(|t| t.text == ";").or(toks.get(i - 1));
    let lines = (toks[at].line, closer.map_or(name_tok.line, |t| t.line));
    Some((StructDef { name: name_tok.text.to_string(), newtype_of, lines }, i))
}

/// Parse `static [mut] NAME: Type` (inside or outside `thread_local!`).
fn parse_static(toks: &[Tok<'_>], at: usize, in_thread_local: bool) -> Option<(StaticItem, usize)> {
    let mut i = at + 1;
    let mut kind = if in_thread_local { StaticKind::ThreadLocal } else { StaticKind::Static };
    if toks.get(i).is_some_and(|t| t.text == "mut") {
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
    if toks.get(i).is_none_or(|t| t.text != ":") {
        return None;
    }
    i += 1;
    let start = i;
    let mut adepth = 0i32;
    while let Some(t) = toks.get(i) {
        match t.text {
            "<" | "(" | "[" => adepth += 1,
            ">" | ")" | "]" if adepth > 0 => adepth -= 1,
            "=" | ";" if adepth <= 0 => break,
            _ => {}
        }
        i += 1;
    }
    let item = StaticItem {
        name: name_tok.text.to_string(),
        kind,
        ty: join_tokens(toks[start..i].iter().copied()),
        line: toks[at].line,
    };
    Some((item, i))
}

/// Parse the call whose argument list opens at the `(` at `at`, if the
/// tokens before it name a callee, pushing its arguments onto `args`.
/// The calls nested in them are parsed later, so each call's arguments
/// stay one run.
fn parse_call(toks: &[Tok<'_>], at: usize, args: &mut Vec<Arg>) -> Option<Call> {
    // step back over a turbofish `::<..>`
    let mut j = at.checked_sub(1)?;
    let mut turbofish = None;
    if toks[j].text == ">" {
        let close = j;
        let mut depth = 0i32;
        loop {
            match toks[j].text {
                ">" => depth += 1,
                "<" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j = j.checked_sub(1)?;
        }
        turbofish = Some(extent(toks, j + 1..close));
        // expect `::` before the `<`
        j = j.checked_sub(1)?;
        if toks[j].text != "::" {
            return None;
        }
        j = j.checked_sub(1)?;
    }
    let callee_tok = &toks[j];
    if !callee_tok.is_ident() || NON_CALL_KEYWORDS.contains(&callee_tok.text) {
        return None;
    }
    // walk the path backwards: ident (:: ident)*
    let mut k = j;
    while k >= 2 && toks[k - 1].text == "::" && toks[k - 2].is_ident() {
        k -= 2;
    }
    let before = k.checked_sub(1).map(|p| toks[p].text);
    // definitions and macros are not calls
    if matches!(before, Some("fn" | "struct" | "enum" | "union" | "trait" | "mod")) {
        return None;
    }
    if toks.get(j + 1).is_some_and(|t| t.text == "!") {
        return None; // macro, and its `(` follows the `!` anyway
    }
    let is_method = before == Some(".");
    // split args at top-level commas
    let (inner, close) = group(toks, at);
    let first_arg = args.len();
    let mut start = inner.start;
    let mut pdepth = 0i32;
    // commas inside a closure head `|a, b|` do not split arguments
    let mut in_closure_head = false;
    for m in inner.clone() {
        match toks[m].text {
            "(" | "[" | "{" => pdepth += 1,
            ")" | "]" | "}" => pdepth -= 1,
            "|" if pdepth == 0 => {
                if in_closure_head {
                    in_closure_head = false;
                } else {
                    // `|` opens a closure head when an argument starts
                    // with it (bitwise-or never begins an expression);
                    // only `move` may precede the opening pipe
                    in_closure_head = toks[start..m].iter().all(|t| t.text == "move");
                }
            }
            "," if pdepth == 0 && !in_closure_head => {
                args.push(extent(toks, start..m));
                start = m + 1;
            }
            _ => {}
        }
    }
    if start < inner.end {
        args.push(extent(toks, start..inner.end));
    }
    let end_line = toks.get(close.saturating_sub(1)).map_or(callee_tok.line, |t| t.line);
    Some(Call {
        callee_len: callee_tok.text.len(),
        is_method,
        turbofish,
        line: callee_tok.line,
        col: callee_tok.col,
        args: first_arg..args.len(),
        end_line,
    })
}

/// Join tokens into canonical type/expression text: no spaces around
/// `::`, `.`, `<`, `>`, `&`, `'` or inside delimiters; single spaces
/// elsewhere.
pub fn join_tokens<'a>(toks: impl IntoIterator<Item = Tok<'a>>) -> String {
    const TIGHT_AFTER: [&str; 9] = ["::", ".", "<", "&", "'", "(", "[", "-", "->"];
    const TIGHT_BEFORE: [&str; 10] = ["::", ".", "<", ">", ",", ";", "(", ")", "[", "]"];
    let mut out = String::new();
    let mut prev: Option<&str> = None;
    for t in toks {
        if prev.is_some_and(|p| !TIGHT_AFTER.contains(&p)) && !TIGHT_BEFORE.contains(&t.text) {
            out.push(' ');
        }
        out.push_str(t.text);
        prev = Some(t.text);
    }
    out
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
pub fn is_bare_f64_arg<'a>(toks: impl Iterator<Item = Tok<'a>> + Clone) -> bool {
    if has_projection(toks.clone()) {
        return true;
    }
    // pure literal arithmetic: every token is a number or an operator,
    // and at least one number is float-shaped
    let mut saw_float = false;
    for t in toks {
        let s = t.text;
        if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            if is_float_literal(s) {
                saw_float = true;
            }
            continue;
        }
        if matches!(s, "+" | "-" | "*" | "/" | "(" | ")") {
            continue;
        }
        return false;
    }
    saw_float
}

/// Does the token run contain an `x.0` / `(..).0` projection (as opposed
/// to the `.0` inside a float literal, which tokenizes as one number)?
pub fn has_projection<'a>(toks: impl IntoIterator<Item = Tok<'a>>) -> bool {
    let mut before: [Option<Tok<'a>>; 2] = [None, None];
    toks.into_iter().any(|t| {
        let hit = matches!(before, [Some(base), Some(dot)]
            if dot.text == "." && t.text == "0"
                && (base.is_ident() || base.text == ")" || base.text == "]"));
        before = [before[1], Some(t)];
        hit
    })
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

    #[test]
    fn fn_signature_with_params_and_return() {
        let p = parse("pub fn plan(cap: Watts, n: usize) -> GigaHertz {\n    body()\n}\n");
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "plan");
        assert!(f.is_pub);
        assert!(!f.has_self);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0], Param { name: "cap".into(), ty: "Watts".into() });
        assert_eq!(f.params[1].ty, "usize");
        assert_eq!(f.ret.as_deref(), Some("GigaHertz"));
        assert_eq!(f.body, Some((0, 2)));
    }

    #[test]
    fn impl_methods_are_qualified() {
        let src = "impl Cluster {\n    pub fn set_cap(&mut self, cap: Watts) {}\n}\n\
                   impl Display for Watts {\n    fn fmt(&self) {}\n}\n";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].qualified, "Cluster::set_cap");
        assert!(p.fns[0].has_self);
        assert_eq!(p.fns[0].params.len(), 1);
        assert_eq!(p.fns[1].qualified, "Watts::fmt");
    }

    #[test]
    fn generic_fn_and_multiline_signature() {
        let src = "pub fn par_map<I, T, F>(\n    items: &[I],\n    threads: usize,\n    f: F,\n) -> Vec<T>\nwhere\n    F: Fn(usize) -> T,\n{\n    inner()\n}\n";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "par_map");
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[0].ty, "&[I]");
        assert_eq!(f.ret.as_deref(), Some("Vec<T>"));
        assert!(f.body.is_some());
    }

    #[test]
    fn newtype_struct_detection() {
        let src = "pub struct Watts(pub f64);\npub struct Pair(f64, f64);\n\
                   pub struct Named { x: f64 }\nstruct Id(usize);\n\
                   struct Multi {\n    x: f64,\n}\nstruct Unit\n;\nstruct Row(\n    f64,\n);\n";
        let p = parse(src);
        assert_eq!(p.structs.len(), 7);
        assert_eq!(p.structs[0].newtype_of.as_deref(), Some("f64"));
        assert_eq!(p.structs[1].newtype_of, None); // two fields
        assert_eq!(p.structs[2].newtype_of, None); // named fields
        assert_eq!(p.structs[3].newtype_of.as_deref(), Some("usize"));
        let lines: Vec<_> = p.structs.iter().map(|s| s.lines).collect();
        assert_eq!(lines, [(0, 0), (1, 1), (2, 2), (3, 3), (4, 6), (7, 8), (9, 11)]);
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
        assert_eq!(p.statics[0].ty, "AtomicUsize");
        assert_eq!(p.statics[1].kind, StaticKind::StaticMut);
        assert_eq!(p.statics[2].kind, StaticKind::ThreadLocal);
        assert_eq!(p.statics[2].name, "CURRENT");
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
        assert_eq!(c.line, 1);
        assert_eq!(c.end_line, 5);
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
                    c.line,
                    c.col,
                    c.end_line,
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

    #[test]
    fn enclosing_fn_resolution() {
        let src = "fn outer() {\n    a();\n}\nfn later() {\n    b();\n}\n";
        let p = parse(src);
        assert_eq!(p.enclosing_fn(1).unwrap().name, "outer");
        assert_eq!(p.enclosing_fn(4).unwrap().name, "later");
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
