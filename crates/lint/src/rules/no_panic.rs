//! `no-panic-in-lib`: library code must not contain reachable panics.
//!
//! A campaign over 1,920 simulated modules dies hours in if a stray
//! `.unwrap()` meets an edge case; library crates must surface errors as
//! `Result` (`vap_core::error::BudgetError` for budgeting decisions)
//! instead. Forbidden outside `#[cfg(test)]`: `.unwrap()`, `.expect(..)`,
//! `panic!`, `unreachable!`, `todo!`, `unimplemented!`.
//!
//! Binary entry points (`src/bin/**`, a crate's `src/main.rs`) are exempt
//! — top-level error reporting in a CLI may abort. Existing debt is
//! carried by `lint-baseline.toml` and burned down over time.

use super::{report_sites, Context, Rule};
use crate::diag::Finding;
use crate::source::SourceFile;

/// The rule's name.
pub(crate) const NAME: &str = "no-panic-in-lib";

const HELP: &str = "return a Result (e.g. vap_core::error::BudgetError) or restructure so the \
                    failure case cannot arise; vap:allow with a reason if the panic is \
                    provably unreachable";

/// The `no-panic-in-lib` rule.
pub struct NoPanicInLib;

impl Rule for NoPanicInLib {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! outside #[cfg(test)] in library code"
    }

    fn check(&self, file: &SourceFile, _ctx: &Context<'_>, out: &mut Vec<Finding>) {
        // binaries may panic at top level
        if !file.is_bin() {
            report_sites(file, NAME, |_| HELP, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        crate::rules::tests::findings(&NoPanicInLib, &[(path, "vap-core", src)], &[])
    }

    #[test]
    fn fires_on_each_construct() {
        let src = "let a = x.unwrap();\nlet b = y.expect(\"msg\");\npanic!(\"boom\");\n\
                   unreachable!();\ntodo!();\nunimplemented!();\n";
        let hits = findings("crates/core/src/x.rs", src);
        assert_eq!(hits.len(), 6);
    }

    #[test]
    fn quiet_on_non_panicking_relatives() {
        let src = "let a = x.unwrap_or(0);\nlet b = y.unwrap_or_else(|| 1);\n\
                   let c = z.unwrap_or_default();\nlet d = r.expect_err(\"e\");\n\
                   #[should_panic]\nlet e = \"panic!\";\n// panic! in a comment\n";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_modules_and_binaries_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
        assert!(findings("crates/report/src/bin/fig1.rs", "x.unwrap();\n").is_empty());
        assert!(findings("crates/lint/src/main.rs", "x.unwrap();\n").is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "// vap:allow(no-panic-in-lib): serialization of plain structs cannot fail\n\
                   let s = serde_json::to_string(&x).expect(\"infallible\");\n";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }
}
