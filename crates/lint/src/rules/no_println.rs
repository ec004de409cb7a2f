//! `no-println-in-lib`: library code must not write to stdout/stderr.
//!
//! All user-visible output belongs to the CLI layer (`vap-report`
//! binaries, `vap-lint`'s driver) or to the structured observability
//! channel (`vap_obs` counters and spans, exported as journal/CSV/trace
//! artifacts). A stray `println!` deep inside a sweep corrupts piped CSV
//! output, interleaves nondeterministically across worker threads, and is
//! invisible to the journal. Forbidden outside `#[cfg(test)]`:
//! `println!`, `print!`, `eprintln!`, `eprint!`.
//!
//! Exempt: binary entry points (`src/bin/**`, a crate's `src/main.rs`)
//! and the two crates whose *job* is terminal output — `vap-report`
//! (drivers print rendered tables) and `vap-lint` (diagnostic renderer).

use super::{report_sites, Context, Rule};
use crate::diag::Finding;
use crate::source::SourceFile;

/// The rule's name.
pub(crate) const NAME: &str = "no-println-in-lib";

const HELP: &str = "route output through the CLI layer or record it via vap_obs \
                    (incr/observe/span) so it lands in the journal; vap:allow with a reason \
                    if terminal output is genuinely intended here";

/// Crates whose library code legitimately talks to the terminal.
const EXEMPT_CRATES: [&str; 2] = ["vap-report", "vap-lint"];

/// The `no-println-in-lib` rule.
pub struct NoPrintlnInLib;

impl Rule for NoPrintlnInLib {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "no println!/print!/eprintln!/eprint! outside #[cfg(test)] in library code"
    }

    fn check(&self, file: &SourceFile, _ctx: &Context<'_>, out: &mut Vec<Finding>) {
        // binaries and the terminal-facing crates may print
        if !file.is_bin() && !EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
            report_sites(file, NAME, |_| HELP, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, krate: &str, src: &str) -> Vec<Finding> {
        crate::rules::tests::findings(&NoPrintlnInLib, &[(path, krate, src)], &[])
    }

    #[test]
    fn fires_on_each_macro() {
        let src = "println!(\"x\");\nprint!(\"x\");\neprintln!(\"x\");\neprint!(\"x\");\n";
        let hits = findings("crates/core/src/x.rs", "vap-core", src);
        assert_eq!(hits.len(), 4);
        assert!(hits.iter().all(|f| f.rule == "no-println-in-lib"));
    }

    #[test]
    fn macro_names_do_not_double_count() {
        // `print!` must not also fire inside `println!`/`eprintln!`
        let hits = findings("crates/core/src/x.rs", "vap-core", "println!(\"x\");\n");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("println!"));
    }

    #[test]
    fn quiet_in_comments_strings_and_tests() {
        let src = "// println! in a comment\nlet s = \"println!(hidden)\";\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { println!(\"dbg\"); }\n}\n";
        assert!(findings("crates/core/src/x.rs", "vap-core", src).is_empty());
    }

    #[test]
    fn binaries_and_terminal_crates_are_exempt() {
        let src = "println!(\"table\");\n";
        assert!(findings("crates/report/src/bin/fig1.rs", "vap-report", src).is_empty());
        assert!(findings("crates/lint/src/main.rs", "vap-lint", src).is_empty());
        assert!(findings("crates/report/src/cli.rs", "vap-report", src).is_empty());
        assert!(findings("crates/lint/src/cli.rs", "vap-lint", src).is_empty());
        // but the same line in a model crate fires
        assert_eq!(findings("crates/model/src/units.rs", "vap-model", src).len(), 1);
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "// vap:allow(no-println-in-lib): progress line requested by the operator\n\
                   eprintln!(\"sweep {i}\");\n";
        assert!(findings("crates/core/src/x.rs", "vap-core", src).is_empty());
    }
}
