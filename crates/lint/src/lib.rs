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
//! counts, and the crate dependency graph. **Pass 2** runs the rules per
//! file with the index in scope, so cross-function facts (a callee's
//! parameter types three crates away) are one lookup.
//!
//! | Rule | What it forbids |
//! |------|-----------------|
//! | `raw-unit-f64` | bare `f64` carrying power/frequency/time/energy in `vap-core`/`vap-model`/`vap-sim` APIs — use the `Watts`/`GigaHertz`/`Seconds`/`Joules` newtypes |
//! | `unit-flow` | bare `f64` expressions flowing into unit-typed parameters at any workspace call site, `.0` re-wrapping between units, and `pub` fns returning raw `f64` from unit-typed inputs |
//! | `no-panic-in-lib` | `.unwrap()` / `.expect(..)` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` outside `#[cfg(test)]` in library code |
//! | `panic-propagation` | library calls into workspace functions whose bodies contain (baselined) panics — debt must not hide behind wrappers |
//! | `no-println-in-lib` | `println!` / `eprintln!` / `dbg!` in library code — emit through `vap-obs` or return data |
//! | `float-eq` | `==` / `!=` against floating-point literals outside tests |
//! | `determinism` | `HashMap`/`HashSet` state and `thread_rng` / `SystemTime::now` / `Instant::now` wall-clock or OS entropy in `vap-sim`/`vap-mpi`/`vap-core` |
//! | `shared-state-in-par` | mutable `static`s in crates reachable from `vap-exec` worker closures, and order-sensitive float reductions inside `par_map`/`par_grid`/`par_map_fleet` closures |
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

pub use cli::{run, Options};
pub use diag::{Finding, Status};
pub use source::SourceFile;
