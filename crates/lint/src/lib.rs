//! # vap-lint
//!
//! A workspace-wide domain-invariant static analyzer for the vap
//! reproduction. The simulation campaigns sweep 1,920 modules for hours;
//! a single mixed-up quantity (a module budget passed as a CPU cap) or a
//! nondeterministic iteration order silently corrupts every downstream
//! figure. These invariants are therefore machine-enforced rather than
//! left to convention.
//!
//! Analysis runs in two passes. **Pass 1** lexes and token-tree-parses
//! every workspace file ([`lexer`], [`parse`]) and builds a symbol index
//! ([`index::SymbolIndex`]): function signatures with typed parameters,
//! newtype structs, `static`/`thread_local!` items, per-function panic
//! counts, and the crate dependency graph. The index borrows the parsed
//! items from the sources instead of copying them, is keyed by bare
//! function name and holds no call graph. **Pass 2** runs the rules per
//! file with the index in scope, so cross-function facts (a callee's
//! parameter types three crates away) are one lookup. A call resolves to
//! every indexed function with the callee's name, receiver kind and
//! arity — its call shape — and an index-aware rule fires only when all
//! of those candidates agree. The index decides that once per shape
//! ([`index::CallShape`]: per parameter, is it unit-typed in every
//! candidate; does every candidate panic), so a call site costs one
//! lookup however many candidates it has.
//!
//! The front end reads each file's text once and holds it once per form:
//! one pass of [`lexer::scrub`] writes the scrubbed copy, finds the line
//! ends and gathers every comment into one buffer, so the source and its
//! scrubbed copy are each one buffer with a line table
//! ([`lexer::Lines`]), `vap:allow` markers come from one search of the
//! comment buffer, and tokens borrow from the scrubbed buffer and live
//! only while the file is parsed. A call ([`parse::Call`]) is positions
//! in the scrubbed text — its callee, its turbofish and a run of the
//! file's argument list — whose tokens are cut again from the lines when
//! a rule reads them, so a call site allocates nothing of its own; only the parsed items own strings (names, parameter and
//! return types), and the index borrows those. The parser's token
//! pass also finds each word the lexical rules look for (`.unwrap()`,
//! `println!`, `HashMap`, … — [`rules::Word`]) once per file and keeps
//! the hits as a site list ([`parse::ParsedFile::sites`]):
//! `no-panic-in-lib`, `no-println-in-lib` and `determinism` walk that
//! list instead of searching lines, and the index counts a function's
//! panics with a range lookup in it.
//!
//! The rules share one path to a finding. Each rule spells its name once,
//! asks [`source::SourceFile::is_test`] whether a line is test code and
//! builds every finding with [`source::SourceFile::finding`], which fills
//! in the path, the snippet and the 1-based position; that function is
//! the one place a finding's representation is decided.
//!
//! | Rule | What it forbids |
//! |------|-----------------|
//! | `raw-unit-f64` | a power/frequency/energy-named declaration (`name: <type with f64>`, or `fn name(..) -> f64`) typed bare `f64` in `vap-core`/`vap-model`/`vap-sim` — use the `Watts`/`GigaHertz`/`Seconds`/`Joules` newtypes |
//! | `unit-flow` | a float-literal arithmetic or `.0`-projection argument passed where every candidate callee declares a unit-typed parameter, a unit constructor re-wrapping a `.0` projection (`Watts(f.0 * 8.0)`), and `pub` library fns returning bare `f64` from unit-typed inputs |
//! | `no-panic-in-lib` | `.unwrap()` / `.expect(..)` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` outside `#[cfg(test)]` in library code |
//! | `panic-propagation` | a library call whose every candidate callee contains a panic that is not `vap:allow`ed (baselined debt counts) — one call level deep, across the whole workspace |
//! | `no-println-in-lib` | `println!` / `print!` / `eprintln!` / `eprint!` in library code outside `vap-report` and `vap-lint` — emit through `vap-obs` or return data |
//! | `float-eq` | `==` / `!=` with a float literal (`0.0`, `1e-6`, `2f64`) or an `f64::`/`f32::` constant on either side, outside tests |
//! | `determinism` | `HashMap`/`HashSet` state, `thread_rng` / `rand::rng()` OS entropy and `SystemTime::now` / `Instant::now` wall clocks in `vap-sim`, `vap-mpi`, `vap-core`, `vap-exec`, `vap-sched`, `vap-scenario` and `vap-daemon`, and in `vap-obs`'s `ledger`, `hist`, `decision` and `drift` modules |
//! | `shared-state-in-par` | mutable `static`s in crates reachable from `vap-exec` worker closures (and in `vap-daemon`), and float reductions (`sum`/`product` turbofished to `f64`/`f32`, `fold` seeded with a float literal) inside `par_map`/`par_grid`/`par_map_fleet` closures |
//!
//! The analyzer is deliberately dependency-free: it carries its own
//! comment/string-scrubbing lexer, token-tree parser, directory walker,
//! TOML-subset baseline parser and JSON emitter, so it builds (and can be
//! bootstrapped with a bare `rustc`) even where the crates.io registry is
//! unreachable.
//!
//! Findings can be suppressed inline with
//! `// vap:allow(rule-name): reason` on the offending line or in the
//! comment block above it, or accepted wholesale through the checked-in
//! `lint-baseline.toml` which existing debt burns down against.

pub mod baseline;
pub mod cli;
pub mod diag;
pub mod index;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod source;
pub mod walker;

pub use cli::run;
pub use diag::{Finding, Status};
