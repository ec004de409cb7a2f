//! The pluggable rule registry.
//!
//! A rule is a stateless checker over one [`SourceFile`] plus the shared
//! workspace [`Context`] (symbol index); the registry in [`all_rules`] is
//! the single place a new rule is wired in. Each rule module spells its
//! kebab-case name once, as its `NAME`, and builds every finding with
//! [`SourceFile::finding`]. The lexical rules
//! (`no-panic-in-lib`, `no-println-in-lib`, `determinism`) share one
//! vocabulary of [`Word`]s: the parser finds every word once per file, in
//! its token pass, and these rules walk the resulting site list
//! ([`crate::parse::ParsedFile::sites`]), each keeping only its scope
//! checks and help text. The other single-file rules (`raw-unit-f64`,
//! `float-eq`) scan lines and ignore the context: `raw-unit-f64` every
//! line and the parsed signatures, `float-eq` only the lines the token
//! pass found an `==` or `!=` on. The index-aware rules (`unit-flow`,
//! `shared-state-in-par`, `panic-propagation`) query it for
//! cross-function facts: the index resolved each of a file's calls once,
//! when it was built, and these rules walk the file's calls beside those
//! resolutions. Rules only *report* — suppression (`vap:allow`) and
//! baselining are applied uniformly by the driver in [`crate::cli`].

use crate::diag::Finding;
use crate::index::SymbolIndex;
use crate::parse::Tok;
use crate::source::SourceFile;
use determinism::NAME as DETERMINISM;
use no_panic::NAME as NO_PANIC;
use no_println::NAME as NO_PRINTLN;

pub mod determinism;
pub mod float_eq;
pub mod no_panic;
pub mod no_println;
pub mod panic_propagation;
pub mod raw_unit_f64;
pub mod shared_state_in_par;
pub mod unit_flow;

/// Shared workspace facts available to every rule during pass 2.
pub struct Context<'a> {
    /// The pass-1 symbol index over the whole workspace.
    pub index: &'a SymbolIndex<'a>,
}

/// A domain-invariant check.
pub trait Rule {
    /// Stable kebab-case name (used in diagnostics, `vap:allow`, the
    /// baseline and `--rule`).
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;
    /// Scan one file, appending findings. `file` must be one of the
    /// sources `ctx.index` was built over: the index finds what the file's
    /// calls resolve to by its place among them.
    fn check(&self, file: &SourceFile, ctx: &Context<'_>, out: &mut Vec<Finding>);
}

/// Every registered rule, in diagnostic order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(raw_unit_f64::RawUnitF64),
        Box::new(unit_flow::UnitFlow),
        Box::new(no_panic::NoPanicInLib),
        Box::new(panic_propagation::PanicPropagation),
        Box::new(no_println::NoPrintlnInLib),
        Box::new(float_eq::FloatEq),
        Box::new(determinism::Determinism),
        Box::new(shared_state_in_par::SharedStateInPar),
    ]
}

/// A word the lexical rules look for, spelled as the tokens of its row in
/// the vocabulary table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Word {
    Unwrap,
    Expect,
    Panic,
    Unreachable,
    Todo,
    Unimplemented,
    Println,
    Print,
    Eprintln,
    Eprint,
    HashMap,
    HashSet,
    ThreadRng,
    RandRng,
    SystemTimeNow,
    InstantNow,
}

/// The vocabulary, one row per [`Word`] in declaration order: the word's
/// tokens, the rule that reports it and the message of its finding.
const VOCABULARY: [(&[&str], &str, &str); 16] = [
    (&[".", "unwrap", "(", ")"], NO_PANIC, "`.unwrap()` can panic in library code"),
    (&[".", "expect", "("], NO_PANIC, "`.expect(..)` can panic in library code"),
    (&["panic", "!"], NO_PANIC, "explicit `panic!` in library code"),
    (&["unreachable", "!"], NO_PANIC, "`unreachable!` can panic in library code"),
    (&["todo", "!"], NO_PANIC, "`todo!` panics when reached in library code"),
    (&["unimplemented", "!"], NO_PANIC, "`unimplemented!` panics when reached in library code"),
    (&["println", "!"], NO_PRINTLN, "`println!` writes to stdout in library code"),
    (&["print", "!"], NO_PRINTLN, "`print!` writes to stdout in library code"),
    (&["eprintln", "!"], NO_PRINTLN, "`eprintln!` writes to stderr in library code"),
    (&["eprint", "!"], NO_PRINTLN, "`eprint!` writes to stderr in library code"),
    (&["HashMap"], DETERMINISM, "`HashMap` has nondeterministic iteration order"),
    (&["HashSet"], DETERMINISM, "`HashSet` has nondeterministic iteration order"),
    (&["thread_rng"], DETERMINISM, "`thread_rng()` draws OS entropy"),
    (&["rand", "::", "rng", "("], DETERMINISM, "`rand::rng()` draws OS entropy"),
    (&["SystemTime", "::", "now"], DETERMINISM, "wall-clock time in simulation logic"),
    (&["Instant", "::", "now"], DETERMINISM, "monotonic clock in simulation logic"),
];

impl Word {
    /// The tokens the word is spelled with.
    fn tokens(self) -> &'static [&'static str] {
        VOCABULARY[self as usize].0
    }

    /// The rule that reports the word.
    pub(crate) fn rule(self) -> &'static str {
        VOCABULARY[self as usize].1
    }

    /// The message of the word's finding.
    fn message(self) -> &'static str {
        VOCABULARY[self as usize].2
    }
}

/// Per first byte, one bit for the length of each word's first token
/// that starts with that byte.
const STARTS: [u16; 256] = {
    let mut starts = [0u16; 256];
    let mut k = 0;
    while k < VOCABULARY.len() {
        let first = VOCABULARY[k].0[0].as_bytes();
        assert!(first.len() < 16, "a first token's length must fit the bit mask");
        starts[first[0] as usize] |= 1 << first.len();
        k += 1;
    }
    starts
};

/// The word that starts at `toks[i]`, if all of its tokens are there.
///
/// A word's tokens touch: each sits on the line of the one before and
/// starts where it ends. A word that does not end in `(` must also end on
/// a word boundary: a next token that touches it must not start with an
/// identifier byte (`x.unwrap()y` and `panic!x` are not words). The
/// tokenizer's identifier and number runs are maximal, so an identifier
/// at either end of a word is never part of a longer one (`_HashMap`,
/// `1e-5HashMap` and `Instant::now_or` hold no word). A raw identifier
/// is read as its bare name (`r#HashMap`, `x.r#unwrap()`).
#[inline]
pub(crate) fn word_at(toks: &[Tok<'_>], i: usize) -> Option<Word> {
    // one table lookup turns most tokens away before the string match
    let text = bare(toks.get(i)?.text).as_bytes();
    let first = *text.first()?;
    if text.len() >= 16 || STARTS[usize::from(first)] & (1 << text.len()) == 0 {
        return None;
    }
    spelled_word_at(toks, i)
}

/// [`word_at`] for a token that passed the first-token table.
fn spelled_word_at(toks: &[Tok<'_>], i: usize) -> Option<Word> {
    let word = match bare(toks[i].text) {
        "." => match bare(toks.get(i + 1)?.text) {
            "unwrap" => Word::Unwrap,
            "expect" => Word::Expect,
            _ => return None,
        },
        "panic" => Word::Panic,
        "unreachable" => Word::Unreachable,
        "todo" => Word::Todo,
        "unimplemented" => Word::Unimplemented,
        "println" => Word::Println,
        "print" => Word::Print,
        "eprintln" => Word::Eprintln,
        "eprint" => Word::Eprint,
        "HashMap" => Word::HashMap,
        "HashSet" => Word::HashSet,
        "thread_rng" => Word::ThreadRng,
        "rand" => Word::RandRng,
        "SystemTime" => Word::SystemTimeNow,
        "Instant" => Word::InstantNow,
        _ => return None,
    };
    let spelling = word.tokens();
    let run = toks.get(i..i + spelling.len())?;
    let touch = |a: &Tok<'_>, b: &Tok<'_>| {
        a.line == b.line && a.col as usize + a.text.len() == b.col as usize
    };
    let spelled = run.iter().zip(spelling).all(|(t, s)| bare(t.text) == *s)
        && run.windows(2).all(|pair| touch(&pair[0], &pair[1]));
    let extended = toks
        .get(i + spelling.len())
        .zip(run.last())
        .is_some_and(|(next, last)| touch(last, next) && next.starts_ident());
    (spelled && (spelling.last() == Some(&"(") || !extended)).then_some(word)
}

/// A token's text, a raw identifier (`r#panic`) read as its bare name.
fn bare(text: &str) -> &str {
    text.strip_prefix("r#").unwrap_or(text)
}

/// Report every site of `rule`'s words in `file` outside test regions,
/// with the help text `help` gives each word.
pub(crate) fn report_sites(
    file: &SourceFile,
    rule: &'static str,
    help: fn(Word) -> &'static str,
    out: &mut Vec<Finding>,
) {
    for site in &file.parsed.sites {
        if site.word.rule() == rule && !file.is_test(site.line()) {
            let (word, line) = (site.word, site.line());
            out.push(file.finding(rule, line, site.col(), word.message(), help(word)));
        }
    }
}

/// Shared helper: is the byte at `idx` part of an identifier?
pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The rule-test harness: index `files` (`(path, crate, source)`)
    /// with the dependency edges `deps`, run `rule` on the last file and
    /// keep the findings no `vap:allow` marker suppresses.
    pub(crate) fn findings(
        rule: &dyn Rule,
        files: &[(&str, &str, &str)],
        deps: &[(&str, &[&str])],
    ) -> Vec<Finding> {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(path, krate, src)| SourceFile::from_source(path, krate, src))
            .collect();
        let deps = deps
            .iter()
            .map(|(c, ds)| (c.to_string(), ds.iter().map(|d| d.to_string()).collect()))
            .collect();
        let index = SymbolIndex::build(&sources, deps);
        let file = sources.last().expect("a file to check");
        let mut out = Vec::new();
        rule.check(file, &Context { index: &index }, &mut out);
        out.retain(|f| !file.is_allowed(f.rule, f.line - 1));
        out
    }

    #[test]
    fn every_word_is_found_where_it_is_spelled() {
        // the first-token table, the match in `word_at` and the
        // vocabulary rows agree, row by row
        use Word::*;
        let all = [
            Unwrap,
            Expect,
            Panic,
            Unreachable,
            Todo,
            Unimplemented,
            Println,
            Print,
            Eprintln,
            Eprint,
            HashMap,
            HashSet,
            ThreadRng,
            RandRng,
            SystemTimeNow,
            InstantNow,
        ];
        assert_eq!(all.len(), VOCABULARY.len());
        for (k, word) in all.into_iter().enumerate() {
            assert_eq!(word as usize, k);
            let code = crate::lexer::scrub(&format!("{} x", word.tokens().concat())).code;
            let toks = crate::parse::tokenize(&code);
            assert_eq!(word_at(&toks, 0), Some(word), "{:?}", word.tokens());
        }
    }

    #[test]
    fn a_callee_naming_a_unit_and_a_panicking_fn_gets_both_findings() {
        // `Joules(..)` is a unit constructor and a call of the panicking
        // `fn Joules`: the re-wrap and the propagated panic both fire
        let src = "pub struct Joules(pub f64);\n\npub fn Joules(x: Option<f64>) -> f64 {\n    \
                   x.unwrap()\n}\n\npub fn rewrap(w: Watts) -> f64 {\n    \
                   let j = Joules(w.0);\n    0.0\n}\n";
        let files = [("crates/core/src/lib.rs", "vap-core", src)];
        let at = |rule: &dyn Rule| -> Vec<_> {
            let hits = findings(rule, &files, &[]);
            hits.iter().map(|f| (f.line, f.column, f.message.to_string())).collect()
        };
        let rewrap = "`Joules(w.0)` re-wraps a raw `.0` projection — the source unit is lost";
        let unit_flow = at(&unit_flow::UnitFlow);
        assert!(unit_flow.contains(&(8, 13, rewrap.to_string())), "{unit_flow:?}");
        let propagated = "`rewrap` calls `Joules` (crates/core/src/lib.rs:3), \
                          which contains 1 baselined panic";
        assert_eq!(at(&panic_propagation::PanicPropagation), [(8, 13, propagated.to_string())]);
    }

    #[test]
    fn raw_identifiers_are_read_as_their_bare_names() {
        let src = "let m = r#HashMap::new();\nr#panic!();\nx.r#unwrap();\nr#match(x);\n";
        let parsed = crate::parse::parse_file(&crate::lexer::scrub(src).code);
        let words: Vec<_> = parsed.sites.iter().map(|s| (s.line(), s.word)).collect();
        assert_eq!(words, [(0, Word::HashMap), (1, Word::Panic), (2, Word::Unwrap)]);
    }
}
