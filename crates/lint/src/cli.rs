//! Argument parsing and the analysis driver.
//!
//! [`scan`] is the pure pipeline (walk → lex → rules → suppress →
//! baseline-classify) and is what the self-check integration test calls;
//! [`run`] wraps it with rendering, baseline writing and exit codes so
//! `main.rs` stays a two-liner.
//!
//! Exit codes: `0` clean (or violations found but `--deny` not given),
//! `1` new findings under `--deny`, `2` usage or I/O error.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::PathBuf;

use crate::baseline::Baseline;
use crate::diag::{self, Finding, Status, Summary};
use crate::index::SymbolIndex;
use crate::rules;
use crate::source::SourceFile;
use crate::walker;

/// Output format selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// rustc-style diagnostics (default).
    Human,
    /// Stable machine-readable JSON (`--format json`).
    Json,
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root to analyze.
    pub root: PathBuf,
    /// Exit nonzero when new (non-baselined) findings exist.
    pub deny: bool,
    /// Output format.
    pub format: Format,
    /// Explicit baseline path (default: `<root>/lint-baseline.toml`,
    /// tolerated missing unless given explicitly).
    pub baseline: Option<PathBuf>,
    /// Regenerate the baseline from current findings instead of reporting.
    pub write_baseline: bool,
    /// Run only these rules (empty = all).
    pub rules: Vec<String>,
    /// Print the rule table and exit.
    pub list_rules: bool,
    /// Print the pass-1 symbol index and exit (debugging aid).
    pub index_dump: bool,
    /// Print usage and exit.
    pub help: bool,
}

impl Options {
    /// Defaults rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Options {
        Options {
            root: root.into(),
            deny: false,
            format: Format::Human,
            baseline: None,
            write_baseline: false,
            rules: Vec::new(),
            list_rules: false,
            index_dump: false,
            help: false,
        }
    }
}

/// Usage text for `--help` and argument errors.
pub const USAGE: &str = "\
vap-lint: domain-invariant static analysis for the vap workspace

USAGE: vap-lint [OPTIONS]

OPTIONS:
  --deny                exit 1 if any new (non-baselined) finding exists
  --format <human|json> output format (default: human)
  --root <dir>          workspace root (default: current directory)
  --baseline <file>     baseline file (default: <root>/lint-baseline.toml)
  --write-baseline      regenerate the baseline from current findings
  --rule <name>         run only this rule (repeatable)
  --list-rules          print the rule table and exit
  --index-dump          print the pass-1 symbol index and exit
  -h, --help            print this help
";

/// Parse command-line arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::new(".");
    let mut i = 0usize;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--deny" => opts.deny = true,
            "--format" => {
                opts.format = match value(&mut i, "--format")?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}` (human|json)")),
                }
            }
            "--root" => opts.root = PathBuf::from(value(&mut i, "--root")?),
            "--baseline" => opts.baseline = Some(PathBuf::from(value(&mut i, "--baseline")?)),
            "--write-baseline" => opts.write_baseline = true,
            "--rule" => opts.rules.push(value(&mut i, "--rule")?),
            "--list-rules" => opts.list_rules = true,
            "--index-dump" => opts.index_dump = true,
            "-h" | "--help" => opts.help = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(opts)
}

/// Everything a scan produced.
#[derive(Debug)]
pub struct Outcome {
    /// All findings (including suppressed), sorted by location.
    pub findings: Vec<Finding>,
    /// Aggregate counts.
    pub summary: Summary,
    /// Non-allowed findings grouped as `(rule, path, count)` — the shape
    /// a regenerated baseline is built from.
    pub counts: Vec<(String, String, usize)>,
}

/// The most bytes one source file may hold: every offset a [`SourceFile`]
/// keeps into its buffers is 32 bits.
const MAX_SOURCE_BYTES: u64 = u32::MAX as u64;

/// Pass 0: walk the workspace and lex/parse every source file. A file
/// longer than [`MAX_SOURCE_BYTES`] is an error, found from its metadata
/// before it is read.
fn load_files(opts: &Options) -> Result<Vec<SourceFile>, String> {
    let files = walker::workspace_files(&opts.root)
        .map_err(|e| format!("walking {}: {e}", opts.root.display()))?;
    // An empty walk means the root is not a workspace (wrong --root, moved
    // checkout). Erroring beats a green "0 files scanned" in a CI gate.
    if files.is_empty() {
        return Err(format!(
            "no Rust sources found under {} — is this the workspace root?",
            opts.root.display()
        ));
    }
    let mut sources = Vec::with_capacity(files.len());
    for wf in &files {
        let reading = |e: std::io::Error| format!("reading {}: {e}", wf.abs.display());
        let too_long = |len: u64| {
            format!(
                "reading {}: {len} bytes, more than the {MAX_SOURCE_BYTES} a source file may hold",
                wf.abs.display()
            )
        };
        let len = fs::metadata(&wf.abs).map_err(reading)?.len();
        if len > MAX_SOURCE_BYTES {
            return Err(too_long(len));
        }
        let text = fs::read_to_string(&wf.abs).map_err(reading)?;
        // the file may have grown since its metadata was read
        let len = text.len() as u64;
        if len > MAX_SOURCE_BYTES {
            return Err(too_long(len));
        }
        sources.push(SourceFile::from_source(&wf.rel, &wf.crate_name, &text));
    }
    Ok(sources)
}

/// Pass 1: build the workspace symbol index over loaded sources.
fn build_index<'a>(opts: &Options, sources: &'a [SourceFile]) -> Result<SymbolIndex<'a>, String> {
    let deps = walker::crate_dependencies(&opts.root)
        .map_err(|e| format!("reading manifests under {}: {e}", opts.root.display()))?;
    Ok(SymbolIndex::build(sources, deps))
}

/// Walk the workspace, index it, run the rules, apply `vap:allow` and the
/// baseline.
pub fn scan(opts: &Options) -> Result<Outcome, String> {
    let all = rules::all_rules();
    for name in &opts.rules {
        if !all.iter().any(|r| r.name() == name) {
            return Err(format!("unknown rule `{name}` (see --list-rules)"));
        }
    }
    let active: Vec<_> = all
        .into_iter()
        .filter(|r| opts.rules.is_empty() || opts.rules.iter().any(|n| n == r.name()))
        .collect();

    let baseline = load_baseline(opts)?;
    let sources = load_files(opts)?;
    let index = build_index(opts, &sources)?;
    let ctx = rules::Context { index: &index };

    let mut findings: Vec<Finding> = Vec::new();
    for sf in &sources {
        let mut raw = Vec::new();
        for rule in &active {
            rule.check(sf, &ctx, &mut raw);
        }
        for mut f in raw {
            if sf.is_allowed(f.rule, f.line - 1) {
                f.status = Status::Allowed;
            }
            findings.push(f);
        }
    }
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.column, a.rule).cmp(&(&b.path, b.line, b.column, b.rule))
    });

    // Classify against the baseline: within each (rule, path) group the
    // first `baseline.count()` non-allowed findings are accepted debt,
    // anything beyond is new. Findings are sorted by path, so each path's
    // findings are one run, counted per rule and cloned into `counts`
    // once.
    let allowance = baseline.allowances();
    let mut counts: Vec<(String, String, usize)> = Vec::new();
    let mut per_rule: BTreeMap<&'static str, usize> = BTreeMap::new();
    for run in findings.chunk_by_mut(|a, b| a.path == b.path) {
        for f in run.iter_mut().filter(|f| f.status != Status::Allowed) {
            let n = per_rule.entry(f.rule).or_insert(0);
            let accepted = allowance.get(&(f.rule, f.path.as_str())).copied().unwrap_or(0);
            f.status = if *n < accepted { Status::Baselined } else { Status::New };
            *n += 1;
        }
        let path = &run[0].path;
        counts.extend(per_rule.iter().map(|(rule, n)| (rule.to_string(), path.clone(), *n)));
        per_rule.clear();
    }
    counts.sort();

    let mut summary = Summary { files: sources.len(), ..Summary::default() };
    for f in &findings {
        summary.total += 1;
        match f.status {
            Status::New => summary.new += 1,
            Status::Baselined => summary.baselined += 1,
            Status::Allowed => summary.allowed += 1,
        }
    }
    // Entries for rules excluded by --rule produce no findings this run;
    // only judge staleness for the rules that actually executed.
    summary.stale_baseline_entries = baseline
        .entries
        .iter()
        .filter(|e| active.iter().any(|r| r.name() == e.rule))
        .filter(|e| {
            let seen = counts
                .binary_search_by(|(rule, path, _)| {
                    (rule.as_str(), path.as_str()).cmp(&(e.rule.as_str(), e.path.as_str()))
                })
                .map_or(0, |k| counts[k].2);
            seen < e.count
        })
        .count();

    Ok(Outcome { findings, summary, counts })
}

/// Full CLI behavior; returns the process exit code. Standard output goes
/// out in one write to a locked stdout, so a reader that closes the pipe
/// early makes this an I/O error (exit code 2), not a panic.
pub fn run(opts: &Options) -> i32 {
    let (out, code) = match output(opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vap-lint: error: {e}");
            return 2;
        }
    };
    let mut stdout = std::io::stdout().lock();
    match stdout.write_all(out.as_bytes()).and_then(|()| stdout.flush()) {
        Ok(()) => code,
        Err(e) => {
            eprintln!("vap-lint: error: writing output: {e}");
            2
        }
    }
}

/// What [`run`] prints on stdout, and its exit code.
fn output(opts: &Options) -> Result<(String, i32), String> {
    if opts.help {
        return Ok((USAGE.to_string(), 0));
    }
    if opts.list_rules {
        let mut out = String::new();
        for rule in rules::all_rules() {
            out.push_str(&format!("{:<20} {}\n", rule.name(), rule.description()));
        }
        return Ok((out, 0));
    }
    if opts.index_dump {
        // the index borrows the sources, so it is rendered while they live
        let srcs = load_files(opts)?;
        return Ok((build_index(opts, &srcs)?.dump(), 0));
    }
    let outcome = scan(opts)?;
    if opts.write_baseline {
        let b = Baseline::from_counts(&outcome.counts);
        let path = baseline_path(opts);
        fs::write(&path, b.render()).map_err(|e| format!("writing {}: {e}", path.display()))?;
        let out = format!(
            "vap-lint: wrote {} baseline entr{} to {}\n",
            b.entries.len(),
            if b.entries.len() == 1 { "y" } else { "ies" },
            path.display()
        );
        return Ok((out, 0));
    }
    let out = match opts.format {
        Format::Human => diag::render_human(&outcome.findings, &outcome.summary, opts.deny),
        Format::Json => diag::render_json(&outcome.findings, &outcome.summary),
    };
    Ok((out, if opts.deny && outcome.summary.new > 0 { 1 } else { 0 }))
}

/// Effective baseline path for `opts`.
fn baseline_path(opts: &Options) -> PathBuf {
    match &opts.baseline {
        Some(p) => p.clone(),
        None => opts.root.join("lint-baseline.toml"),
    }
}

/// Load the baseline; a missing *default* baseline is an empty one, a
/// missing *explicit* baseline is an error — except under
/// `--write-baseline`, where the file is about to be created anyway.
fn load_baseline(opts: &Options) -> Result<Baseline, String> {
    let path = baseline_path(opts);
    match fs::read_to_string(&path) {
        Ok(text) => Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(_) if opts.baseline.is_none() || opts.write_baseline => Ok(Baseline::default()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags() {
        let o = parse_args(&args(&[
            "--deny",
            "--format",
            "json",
            "--root",
            "/ws",
            "--rule",
            "float-eq",
            "--rule",
            "determinism",
        ]))
        .unwrap();
        assert!(o.deny);
        assert_eq!(o.format, Format::Json);
        assert_eq!(o.root, PathBuf::from("/ws"));
        assert_eq!(o.rules, ["float-eq", "determinism"]);
    }

    #[test]
    fn rejects_bad_args() {
        assert!(parse_args(&args(&["--format", "xml"])).is_err());
        assert!(parse_args(&args(&["--format"])).is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let mut o = Options::new(".");
        o.rules.push("no-such-rule".into());
        assert!(scan(&o).is_err());
    }

    /// Build a scratch workspace with one offending crate.
    fn scratch_workspace(tag: &str) -> PathBuf {
        workspace_with(
            tag,
            "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n\
             pub fn g(y: Option<u32>) -> u32 {\n    y.unwrap()\n}\n",
        )
    }

    /// Build a scratch workspace whose one crate, `vap-core`, has `lib`
    /// as its only source file.
    fn workspace_with(tag: &str, lib: &str) -> PathBuf {
        workspace_of(
            tag,
            &[
                ("crates/core/Cargo.toml", "[package]\nname = \"vap-core\"\n"),
                ("crates/core/src/lib.rs", lib),
            ],
        )
    }

    /// Build a scratch workspace from `(relative path, text)` files.
    fn workspace_of(tag: &str, files: &[(&str, &str)]) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("vap-lint-cli-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for (rel, text) in files {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        }
        root
    }

    #[test]
    fn a_source_past_four_gib_is_an_error_found_before_reading_it() {
        let root = workspace_with("huge", "pub fn ok() {}\n");
        let huge = root.join("crates/core/src/huge.rs");
        // sparse: the file takes no disk, and reading it would take 4 GiB
        // of memory, so only a check of its length before the read passes
        let file = fs::File::create(&huge).unwrap();
        file.set_len(u64::from(u32::MAX) + 1).unwrap();
        let opts = Options::new(&root);
        let err = scan(&opts).unwrap_err();
        assert_eq!(
            err,
            format!(
                "reading {}: 4294967296 bytes, more than the 4294967295 a source file may hold",
                huge.display()
            )
        );
        assert_eq!(run(&opts), 2);
        let dump = Options { index_dump: true, ..Options::new(&root) };
        assert_eq!(run(&dump), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_sources_scan_without_panicking() {
        // a half-saved file is input from outside the process: a file
        // that stops inside any construct must still scan
        let tails = ["g(", "struct W(", "fn f(", "impl X {", "r#\"open", "/* open", "'"];
        for (k, tail) in tails.iter().enumerate() {
            let lib = format!("pub fn ok() {{}}\n{tail}");
            let root = workspace_with(&format!("truncated-{k}"), &lib);
            assert!(scan(&Options::new(&root)).is_ok(), "file ending in {tail:?}");
            let _ = fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn finding_positions_survive_hostile_lexing() {
        // A column is the byte offset in the scrubbed line, where each
        // blanked character is one space whatever its UTF-8 width. These
        // positions were recorded from the char-by-char scrubber that the
        // byte-level one replaced.
        let src = crate::lexer::tests::HOSTILE.join("\r\n") + "\r\n";
        let root = workspace_with("hostile", &src);
        let out = scan(&Options::new(&root)).unwrap();
        let found: Vec<(&str, usize, usize)> =
            out.findings.iter().map(|f| (f.rule, f.line, f.column)).collect();
        assert_eq!(
            found,
            [
                ("no-panic-in-lib", 1, 52),
                ("float-eq", 2, 57),
                ("no-panic-in-lib", 5, 31),
                ("no-panic-in-lib", 7, 69),
                ("no-panic-in-lib", 8, 59),
                ("no-panic-in-lib", 9, 79),
                ("no-panic-in-lib", 11, 21),
                ("determinism", 12, 38),
                ("determinism", 12, 56),
            ]
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn words_match_only_whole_and_unbroken() {
        // Near misses of the lexical rules' words: a space inside a word,
        // an identifier or digit touching either end, or a line break
        // splits it; punctuation and non-ASCII text beside it do not. The
        // findings were recorded from the per-line substring search that
        // the parser's site list replaced.
        let src = "pub fn a(x: Option<u8>) { x. unwrap(); x.unwrap (); x.unwrap()y; \
                   x.unwrap()·; x.unwrap() }\n\
                   pub fn b() { panic !(); panic!x; ·panic!·; eprint!(); print!(); }\n\
                   pub fn c() { rand::rngs::StdRng; rand::rng (); rand::rng(); \
                   Instant::now_or(); Instant :: now(); }\n\
                   pub fn d() { 1e-5HashMap; 1e-HashMap; _HashMap; éHashMap; \
                   x.expect_err(); x.expect (); x.expect(); }\n\
                   pub fn e(x: Option<u8>) { x.\n\
                   unwrap(); x..unwrap(); 2.HashSet; SystemTime::now(); thread_rng(); }\n";
        let root = workspace_with("words", src);
        let out = scan(&Options::new(&root)).unwrap();
        let found: Vec<(&str, usize, usize)> =
            out.findings.iter().map(|f| (f.rule, f.line, f.column)).collect();
        assert_eq!(
            found,
            [
                ("no-panic-in-lib", 1, 67),
                ("no-panic-in-lib", 1, 81),
                ("no-panic-in-lib", 2, 36),
                ("no-println-in-lib", 2, 46),
                ("no-println-in-lib", 2, 57),
                ("determinism", 3, 48),
                ("determinism", 4, 30),
                ("determinism", 4, 51),
                ("no-panic-in-lib", 4, 90),
                ("no-panic-in-lib", 6, 13),
                ("determinism", 6, 26),
                ("determinism", 6, 35),
                ("determinism", 6, 54),
            ]
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn calls_resolve_to_every_same_shaped_candidate() {
        // Same-named functions in three crates. A call fires only when
        // every candidate with its name, receiver kind and arity agrees,
        // and the finding names the first candidate. `Volts` is declared
        // in a file that sorts after both the callees and the caller. The
        // findings were recorded from the per-call candidate filter that
        // the index's call shapes replaced.
        let manifest = |name: &str| format!("[package]\nname = \"vap-{name}\"\n");
        let (a, b, c, caller, zz) =
            (manifest("a"), manifest("b"), manifest("c"), manifest("caller"), manifest("zz"));
        let root = workspace_of(
            "shapes",
            &[
                ("crates/a/Cargo.toml", &a),
                (
                    "crates/a/src/lib.rs",
                    "pub fn split(cap: &Watts, n: usize) -> usize {\n    n\n}\n\
                     pub fn mixed(x: Watts) {}\n\
                     pub fn plain(x: Watts) {}\n\
                     pub fn drive(v: Volts, n: usize) {}\n\
                     pub fn tune(p: Watts) {}\n\
                     pub fn load(n: usize) -> u8 {\n    TABLE.get(n).copied().unwrap()\n}\n\
                     pub fn fetch(n: usize) -> u8 {\n    TABLE.get(n).copied().unwrap()\n}\n",
                ),
                ("crates/b/Cargo.toml", &b),
                (
                    "crates/b/src/lib.rs",
                    "pub fn split(budget: Watts, n: usize) -> usize {\n    n\n}\n\
                     pub fn mixed(x: &mut Watts) {}\n\
                     pub fn plain(x: f64) {}\n\
                     pub fn drive(volts: &Volts, n: usize) {}\n\
                     pub fn tune(p: f64, q: usize) {}\n\
                     pub fn load(n: usize) -> u8 {\n    \
                     TABLE.get(n).copied().expect(\"in range\")\n}\n\
                     pub fn fetch(n: usize) -> u8 {\n    TABLE.get(n).copied().unwrap()\n}\n",
                ),
                ("crates/c/Cargo.toml", &c),
                (
                    "crates/c/src/lib.rs",
                    "pub fn split(w: Watts, n: usize) -> usize {\n    n\n}\n\
                     pub fn mixed(x: Watts) {}\n\
                     pub struct M;\n\
                     impl M {\n    pub fn tune(&self, p: f64) {}\n}\n\
                     pub fn fetch(n: usize) -> u8 {\n    n as u8\n}\n\
                     pub fn spin(n: usize) -> usize {\n    if n > 9 {\n        \
                     o.unwrap();\n    }\n    spin(n + 1)\n}\n",
                ),
                ("crates/caller/Cargo.toml", &caller),
                (
                    "crates/caller/src/lib.rs",
                    "pub fn run(m: M, cap: Watts) {\n    split(95.0, 2);\n    \
                     split(cap.0 * 1.05, 2);\n    mixed(1.5);\n    plain(2.5);\n    \
                     drive(2.5, 1);\n    tune(3.5);\n    tune(3.5, 2);\n    m.tune(3.5);\n    \
                     load(1);\n    fetch(1);\n    spin(0);\n}\n",
                ),
                ("crates/zz/Cargo.toml", &zz),
                ("crates/zz/src/lib.rs", "pub struct Volts(pub f64);\n"),
            ],
        );
        let out = scan(&Options::new(&root)).unwrap();
        let found: Vec<(&str, &str, usize, usize, &str)> = out
            .findings
            .iter()
            .filter(|f| matches!(f.rule, "unit-flow" | "panic-propagation"))
            .map(|f| (f.rule, f.path.as_str(), f.line, f.column, f.message.as_ref()))
            .collect();
        let caller = "crates/caller/src/lib.rs";
        assert_eq!(
            found,
            [
                (
                    "unit-flow",
                    caller,
                    2,
                    5,
                    "bare f64 `95.0` passed to `split` parameter `cap: Watts`"
                ),
                (
                    "unit-flow",
                    caller,
                    3,
                    5,
                    "bare f64 `cap.0 * 1.05` passed to `split` parameter `cap: Watts`"
                ),
                (
                    "unit-flow",
                    caller,
                    6,
                    5,
                    "bare f64 `2.5` passed to `drive` parameter `v: Volts`"
                ),
                ("unit-flow", caller, 7, 5, "bare f64 `3.5` passed to `tune` parameter `p: Watts`"),
                (
                    "panic-propagation",
                    caller,
                    10,
                    5,
                    "`run` calls `load` (crates/a/src/lib.rs:8), which contains 1 baselined panic"
                ),
                (
                    "panic-propagation",
                    caller,
                    12,
                    5,
                    "`run` calls `spin` (crates/c/src/lib.rs:12), which contains 1 baselined panic"
                ),
            ]
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn every_finding_kind_is_pinned() {
        // One site of each kind of finding a rule builds, and one word per
        // lexical help text. The findings were recorded from the rules
        // while each still built its own.
        let root = workspace_of(
            "kinds",
            &[
                ("crates/core/Cargo.toml", "[package]\nname = \"vap-core\"\n"),
                (
                    "crates/core/src/lib.rs",
                    "pub fn set_cap(cap: Watts, n: usize) {}\n\
                     pub fn draw(budget_w: f64) {}\n\
                     pub fn total_power(n: usize) -> f64 {\n    n as f64\n}\n\
                     pub fn rewrap(freq: GigaHertz) -> Watts {\n    Watts(freq.0 * 8.0)\n}\n\
                     pub fn sweep() {\n    set_cap(47.5, 4);\n}\n\
                     pub fn headroom(cap: Watts, used: Watts) -> f64 {\n    cap.value()\n}\n\
                     pub fn risky(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n\
                     pub fn caller() -> u8 {\n    risky(None)\n}\n\
                     pub fn is_zero(x: f64) -> bool {\n    x == 0.0\n}\n\
                     pub fn noisy() {\n    println!(\"p\");\n    let m = HashMap::new();\n    \
                     let s = HashSet::new();\n    let r = thread_rng();\n    \
                     let t = Instant::now();\n}\n",
                ),
                ("crates/daemon/Cargo.toml", "[package]\nname = \"vap-daemon\"\n"),
                (
                    "crates/daemon/src/lib.rs",
                    "static LIVE: AtomicUsize = AtomicUsize::new(0);\n\
                     pub fn fan(xs: &[Vec<f64>]) {\n    \
                     vap_exec::par_map(xs, 2, |_, x| x.iter().sum::<f64>());\n}\n",
                ),
            ],
        );
        let out = scan(&Options::new(&root)).unwrap();
        assert!(out.findings.iter().all(|f| f.status == Status::New));
        let found: Vec<String> = out
            .findings
            .iter()
            .map(|f| {
                let (at, rule) = (format!("{}:{}:{}", f.path, f.line, f.column), f.rule);
                format!("{at} {rule}: {} | {} | {}", f.message, f.snippet, f.help)
            })
            .collect();
        assert_eq!(
            found,
            [
                "crates/core/src/lib.rs:2:13 raw-unit-f64: `budget_w` names a physical quantity \
                 but is typed bare `f64` | pub fn draw(budget_w: f64) {} | use the unit \
                 newtypes from vap-model (crates/model/src/units.rs): Watts, GigaHertz, Seconds \
                 or Joules",
                "crates/core/src/lib.rs:3:5 raw-unit-f64: `fn total_power` names a physical \
                 quantity but returns bare `f64` | pub fn total_power(n: usize) -> f64 { | use \
                 the unit newtypes from vap-model (crates/model/src/units.rs): Watts, GigaHertz, \
                 Seconds or Joules",
                "crates/core/src/lib.rs:7:5 unit-flow: `Watts(freq.0 * 8.0)` re-wraps a raw `.0` \
                 projection — the source unit is lost | Watts(freq.0 * 8.0) | convert through \
                 the dimensional ops in vap-model (crates/model/src/units.rs) or name the \
                 conversion in a dedicated function; vap:allow with a reason if the rewrap is a \
                 deliberate unit change",
                "crates/core/src/lib.rs:10:5 unit-flow: bare f64 `47.5` passed to `set_cap` \
                 parameter `cap: Watts` | set_cap(47.5, 4); | wrap the value in the unit the \
                 callee declares (e.g. Watts(x)) at the point where its meaning is known",
                "crates/core/src/lib.rs:12:1 unit-flow: pub fn `headroom` takes unit-typed `cap: \
                 Watts` but returns bare `f64` | pub fn headroom(cap: Watts, used: Watts) -> f64 \
                 { | return a unit newtype (or a named dimensionless wrapper) so the quantity's \
                 meaning survives the API boundary; vap:allow with a reason for genuinely \
                 dimensionless ratios",
                "crates/core/src/lib.rs:16:6 no-panic-in-lib: `.unwrap()` can panic in library \
                 code | x.unwrap() | return a Result (e.g. vap_core::error::BudgetError) or \
                 restructure so the failure case cannot arise; vap:allow with a reason if the \
                 panic is provably unreachable",
                "crates/core/src/lib.rs:19:5 panic-propagation: `caller` calls `risky` \
                 (crates/core/src/lib.rs:15), which contains 1 baselined panic | risky(None) | \
                 burn down the panic in the callee (return a Result) so the debt stops \
                 spreading; vap:allow with a reason if this call provably cannot hit the \
                 panicking path",
                "crates/core/src/lib.rs:22:7 float-eq: floating-point `==` comparison | x == 0.0 \
                 | compare with an explicit tolerance, e.g. `(a - b).abs() < EPS` or a \
                 documented near-zero guard",
                "crates/core/src/lib.rs:25:5 no-println-in-lib: `println!` writes to stdout in \
                 library code | println!(\"p\"); | route output through the CLI layer or record \
                 it via vap_obs (incr/observe/span) so it lands in the journal; vap:allow with a \
                 reason if terminal output is genuinely intended here",
                "crates/core/src/lib.rs:26:13 determinism: `HashMap` has nondeterministic \
                 iteration order | let m = HashMap::new(); | use BTreeMap or a Vec keyed by \
                 module id — campaign replays must be bit-identical",
                "crates/core/src/lib.rs:27:13 determinism: `HashSet` has nondeterministic \
                 iteration order | let s = HashSet::new(); | use BTreeSet or a sorted Vec — \
                 campaign replays must be bit-identical",
                "crates/core/src/lib.rs:28:13 determinism: `thread_rng()` draws OS entropy | let \
                 r = thread_rng(); | use a seeded vap_model::rng::SplitMix64 threaded from the \
                 campaign seed",
                "crates/core/src/lib.rs:29:13 determinism: monotonic clock in simulation logic | \
                 let t = Instant::now(); | simulation time is stepped explicitly (Seconds); wall \
                 clocks break replay",
                "crates/daemon/src/lib.rs:1:1 shared-state-in-par: static `LIVE: AtomicUsize` \
                 lives in `vap-daemon`, which is reachable from vap-exec worker closures | static \
                 LIVE: AtomicUsize = AtomicUsize::new(0); | thread state through per-item \
                 closure arguments (the par_* APIs reduce in index order) or move it behind an \
                 explicit campaign-scoped handle; vap:allow at the definition with a reason if \
                 the state is deliberately process-wide and race-safe",
                "crates/daemon/src/lib.rs:3:46 shared-state-in-par: order-sensitive float `sum` \
                 inside a par closure — float addition is not associative | \
                 vap_exec::par_map(xs, 2, |_, x| x.iter().sum::<f64>()); | reduce over a \
                 deterministically ordered collection (index order, as the par_* APIs hand back) \
                 or hoist the reduction out of the closure; vap:allow with a reason if the \
                 iteration order is provably fixed",
            ]
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn manifest_comments_and_literal_names_keep_crates_in_scope() {
        // A comment after `[package]`, after the name or after
        // `[dependencies]`, and a TOML literal-string name, each hid a
        // crate (or its dependency edges) from the crate-scoped rules.
        let root = workspace_of(
            "manifest",
            &[
                (
                    "crates/sim/Cargo.toml",
                    "[package] # the simulator\nname = \"vap-sim\" # the simulator\n",
                ),
                (
                    "crates/sim/src/lib.rs",
                    "pub struct S {\n    m: std::collections::HashMap<u32, u32>,\n}\n",
                ),
                ("crates/core/Cargo.toml", "[package]\nname = 'vap-core'\n"),
                (
                    "crates/core/src/lib.rs",
                    "pub struct C {\n    s: std::collections::HashSet<u32>,\n}\n",
                ),
                (
                    "crates/par/Cargo.toml",
                    "[package]\nname = \"vap-par\"\n[dependencies] # workspace crates\n\
                     vap-obs = { path = \"../obs\" }\n",
                ),
                (
                    "crates/par/src/lib.rs",
                    "pub fn fan(xs: &[u32]) {\n    vap_exec::par_map(xs, 2, |_, x| x);\n}\n",
                ),
                ("crates/obs/Cargo.toml", "[package]\nname = \"vap-obs\"\n"),
                ("crates/obs/src/lib.rs", "pub static LIVE: AtomicUsize = AtomicUsize::new(0);\n"),
            ],
        );
        let out = scan(&Options::new(&root)).unwrap();
        let found: Vec<(&str, &str, usize)> =
            out.findings.iter().map(|f| (f.rule, f.path.as_str(), f.line)).collect();
        assert_eq!(
            found,
            [
                ("determinism", "crates/core/src/lib.rs", 2),
                ("shared-state-in-par", "crates/obs/src/lib.rs", 1),
                ("determinism", "crates/sim/src/lib.rs", 2),
            ]
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn baseline_splits_old_debt_from_new() {
        let root = scratch_workspace("split");
        fs::write(
            root.join("lint-baseline.toml"),
            "[[entry]]\nrule = \"no-panic-in-lib\"\npath = \"crates/core/src/lib.rs\"\ncount = 1\n",
        )
        .unwrap();
        let out = scan(&Options::new(&root)).unwrap();
        assert_eq!(out.summary.new, 1);
        assert_eq!(out.summary.baselined, 1);
        assert_eq!(out.summary.stale_baseline_entries, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn overcounting_baseline_is_reported_stale() {
        let root = scratch_workspace("stale");
        fs::write(
            root.join("lint-baseline.toml"),
            "[[entry]]\nrule = \"no-panic-in-lib\"\npath = \"crates/core/src/lib.rs\"\ncount = 5\n",
        )
        .unwrap();
        let out = scan(&Options::new(&root)).unwrap();
        assert_eq!(out.summary.new, 0);
        assert_eq!(out.summary.baselined, 2);
        assert_eq!(out.summary.stale_baseline_entries, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_default_baseline_means_everything_is_new() {
        let root = scratch_workspace("nobase");
        let out = scan(&Options::new(&root)).unwrap();
        assert_eq!(out.summary.new, 2);
        assert_eq!(out.counts, [("no-panic-in-lib".into(), "crates/core/src/lib.rs".into(), 2)]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn rule_filter_does_not_mark_other_rules_baseline_stale() {
        let root = scratch_workspace("filter-stale");
        fs::write(
            root.join("lint-baseline.toml"),
            "[[entry]]\nrule = \"no-panic-in-lib\"\npath = \"crates/core/src/lib.rs\"\ncount = 2\n",
        )
        .unwrap();
        let mut o = Options::new(&root);
        o.rules.push("float-eq".into());
        let out = scan(&o).unwrap();
        assert_eq!(out.summary.stale_baseline_entries, 0, "unrun rule must not look stale");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_or_missing_root_is_an_error_not_a_clean_pass() {
        let root = std::env::temp_dir().join(format!("vap-lint-cli-empty-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        assert!(scan(&Options::new(&root)).is_err(), "empty dir must not scan clean");
        assert!(scan(&Options::new(root.join("nope"))).is_err(), "missing dir must error");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_explicit_baseline_is_an_error() {
        let root = scratch_workspace("explicit");
        let mut o = Options::new(&root);
        o.baseline = Some(root.join("nope.toml"));
        assert!(scan(&o).is_err());
        // ... unless we are about to create it with --write-baseline.
        o.write_baseline = true;
        assert!(scan(&o).is_ok());
        let _ = fs::remove_dir_all(&root);
    }
}
