//! The checked-in debt ledger (`lint-baseline.toml`).
//!
//! Rules that land on an existing codebase always find pre-existing
//! violations. Rather than blocking the tree (or launching with the rules
//! neutered), existing debt is recorded as per-`(rule, path)` counts in a
//! baseline file: `--deny` fails only on findings *beyond* the recorded
//! count, so new debt cannot enter while old debt is burned down. When a
//! file's real count drops below its recorded count the entry is reported
//! as stale and `--write-baseline` tightens the ledger.
//!
//! The format is a deliberately tiny TOML subset (parsed here without a
//! TOML dependency):
//!
//! ```toml
//! [[entry]]
//! rule = "no-panic-in-lib"
//! path = "crates/core/src/pvt.rs"
//! count = 2
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Accepted debt for one `(rule, path)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Rule name (e.g. `no-panic-in-lib`).
    pub rule: String,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Number of accepted findings for this rule in this file.
    pub count: usize,
}

/// The parsed baseline.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// All entries, in file order.
    pub entries: Vec<Entry>,
}

impl Baseline {
    /// Accepted finding count for `(rule, path)` (0 when absent).
    pub fn count(&self, rule: &str, path: &str) -> usize {
        self.entries
            .iter()
            .filter(|e| e.rule == rule && e.path == path)
            .fold(0, |n, e| n.saturating_add(e.count))
    }

    /// Every accepted count keyed by `(rule, path)`, with duplicate
    /// entries summed as [`Baseline::count`] sums them: built once, so a
    /// scan looks each finding up without rescanning the entries.
    pub fn allowances(&self) -> BTreeMap<(&str, &str), usize> {
        let mut map = BTreeMap::new();
        for e in &self.entries {
            let n: &mut usize = map.entry((e.rule.as_str(), e.path.as_str())).or_default();
            *n = n.saturating_add(e.count);
        }
        map
    }

    /// Parse the TOML-subset baseline text.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries: Vec<Entry> = Vec::new();
        let mut open = false;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = i + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[entry]]" {
                if let Some(err) = incomplete(entries.last(), open) {
                    return Err(format!("line {lineno}: previous entry {err}"));
                }
                entries.push(Entry { rule: String::new(), path: String::new(), count: 0 });
                open = true;
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {lineno}: expected `key = value`, got `{line}`"));
            };
            let Some(entry) = entries.last_mut() else {
                return Err(format!("line {lineno}: `{}` outside any [[entry]]", key.trim()));
            };
            let value = value.trim();
            match key.trim() {
                "rule" => entry.rule = unquote(value, lineno)?,
                "path" => entry.path = unquote(value, lineno)?,
                "count" => {
                    entry.count = value.parse().map_err(|_| {
                        format!("line {lineno}: count is not an integer: `{value}`")
                    })?;
                }
                other => return Err(format!("line {lineno}: unknown key `{other}`")),
            }
        }
        if let Some(err) = incomplete(entries.last(), open) {
            return Err(format!("end of file: last entry {err}"));
        }
        Ok(Baseline { entries })
    }

    /// Render back to the canonical TOML-subset text (entries sorted by
    /// rule then path, so regeneration diffs cleanly).
    pub fn render(&self) -> String {
        let mut sorted = self.entries.clone();
        sorted.sort_by(|a, b| (&a.rule, &a.path).cmp(&(&b.rule, &b.path)));
        let mut out = String::from(
            "# vap-lint baseline: accepted pre-existing debt, per (rule, path).\n\
             # `--deny` fails only on findings beyond these counts. Burn entries\n\
             # down over time; regenerate with: cargo run -p vap-lint -- --write-baseline\n",
        );
        for e in &sorted {
            let _ = write!(
                out,
                "\n[[entry]]\nrule = \"{}\"\npath = \"{}\"\ncount = {}\n",
                e.rule, e.path, e.count
            );
        }
        out
    }

    /// Build a baseline from observed `(rule, path, count)` groups,
    /// dropping zero counts.
    pub fn from_counts(counts: &[(String, String, usize)]) -> Baseline {
        Baseline {
            entries: counts
                .iter()
                .filter(|(_, _, n)| *n > 0)
                .map(|(rule, path, n)| Entry { rule: rule.clone(), path: path.clone(), count: *n })
                .collect(),
        }
    }
}

/// Why the entry is unfinished, if it is.
fn incomplete(entry: Option<&Entry>, open: bool) -> Option<&'static str> {
    if !open {
        return None;
    }
    let e = entry?;
    if e.rule.is_empty() {
        Some("is missing `rule`")
    } else if e.path.is_empty() {
        Some("is missing `path`")
    } else if e.count == 0 {
        Some("is missing `count` (or it is 0 — drop the entry instead)")
    } else {
        None
    }
}

/// Strip the surrounding double quotes from a TOML string value.
fn unquote(value: &str, lineno: usize) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("line {lineno}: expected a quoted string, got `{value}`"))?;
    Ok(inner.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# comment
[[entry]]
rule = \"no-panic-in-lib\"
path = \"crates/core/src/pvt.rs\"
count = 2

[[entry]]
rule = \"float-eq\"
path = \"crates/stats/src/variation.rs\"
count = 1
";

    #[test]
    fn parses_and_looks_up_counts() {
        let b = Baseline::parse(SAMPLE).unwrap();
        assert_eq!(b.entries.len(), 2);
        assert_eq!(b.count("no-panic-in-lib", "crates/core/src/pvt.rs"), 2);
        assert_eq!(b.count("float-eq", "crates/stats/src/variation.rs"), 1);
        assert_eq!(b.count("float-eq", "crates/stats/src/other.rs"), 0);
    }

    #[test]
    fn allowances_sum_duplicate_entries_like_count() {
        let dup = "[[entry]]\nrule = \"float-eq\"\n\
                   path = \"crates/stats/src/variation.rs\"\ncount = 3\n";
        let b = Baseline::parse(&format!("{SAMPLE}\n{dup}")).unwrap();
        let map = b.allowances();
        assert_eq!(map.len(), 2);
        assert_eq!(map[&("float-eq", "crates/stats/src/variation.rs")], 4);
        for e in &b.entries {
            assert_eq!(map[&(e.rule.as_str(), e.path.as_str())], b.count(&e.rule, &e.path));
        }
    }

    #[test]
    fn round_trips_through_render() {
        let b = Baseline::parse(SAMPLE).unwrap();
        let rendered = b.render();
        let again = Baseline::parse(&rendered).unwrap();
        assert_eq!(b.entries.len(), again.entries.len());
        for e in &b.entries {
            assert_eq!(again.count(&e.rule, &e.path), e.count);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Baseline::parse("rule = \"x\"\n").is_err()); // outside [[entry]]
        assert!(Baseline::parse("[[entry]]\nrule = \"x\"\n").is_err()); // missing path
        assert!(Baseline::parse("[[entry]]\nrule = x\n").is_err()); // unquoted
        assert!(Baseline::parse("[[entry]]\nbogus = \"x\"\n").is_err()); // unknown key
        assert!(Baseline::parse("[[entry]]\ncount = many\n").is_err()); // non-integer
    }

    #[test]
    fn from_counts_drops_zeroes_and_renders_sorted() {
        let b = Baseline::from_counts(&[
            ("no-panic-in-lib".into(), "b.rs".into(), 1),
            ("float-eq".into(), "a.rs".into(), 2),
            ("float-eq".into(), "z.rs".into(), 0),
        ]);
        assert_eq!(b.entries.len(), 2);
        let text = b.render();
        let float_pos = text.find("float-eq").unwrap();
        let panic_pos = text.find("no-panic-in-lib").unwrap();
        assert!(float_pos < panic_pos);
    }
}
