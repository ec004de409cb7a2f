//! Workspace discovery: which `.rs` files belong to which crate.
//!
//! Dependency-free stand-in for `cargo metadata` + `walkdir`: the
//! workspace layout is known (a root package plus `crates/*`), so the
//! walker enumerates each member's `src/` tree and reads the package name
//! from the first `name = "..."` (or `'...'`) line of its `Cargo.toml`'s
//! `[package]` table. A manifest line's trailing `#` comment is dropped
//! before any header or key is matched. Results are
//! sorted so runs are reproducible byte-for-byte — the ordering is part
//! of the JSON output and baseline contract.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One source file scheduled for analysis.
#[derive(Debug, Clone)]
pub struct WorkspaceFile {
    /// Absolute (or root-joined) path for reading.
    pub abs: PathBuf,
    /// Workspace-relative path with forward slashes (the diagnostic and
    /// baseline key).
    pub rel: String,
    /// Cargo package the file belongs to (e.g. `vap-core`).
    pub crate_name: String,
}

/// Enumerate every member crate's `src/**/*.rs`, sorted by relative path.
pub fn workspace_files(root: &Path) -> io::Result<Vec<WorkspaceFile>> {
    let mut files = Vec::new();
    for member in member_dirs(root)? {
        // not a package (or unreadable): nothing to attribute
        let Ok(text) = fs::read_to_string(member.join("Cargo.toml")) else { continue };
        let Some(crate_name) = package_name(&text) else { continue };
        let src = member.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut |p| {
                files.push(WorkspaceFile {
                    rel: relative(root, p),
                    abs: p.to_path_buf(),
                    crate_name: crate_name.clone(),
                });
            })?;
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

/// The workspace members: the root package plus every `crates/*` dir.
fn member_dirs(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs = vec![root.to_path_buf()];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut subdirs: Vec<PathBuf> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        subdirs.sort();
        dirs.extend(subdirs);
    }
    Ok(dirs)
}

/// Recursively visit `.rs` files under `dir` in sorted order.
///
/// A symlinked directory is not descended into: a link back up the tree
/// (`src/up -> ..`) would otherwise repeat every file below it until the
/// kernel's link-depth limit, and two such links grow the walk
/// exponentially. A symlinked `.rs` file is visited like any other.
fn collect_rs(dir: &Path, visit: &mut dyn FnMut(&Path)) -> io::Result<()> {
    // `DirEntry::file_type` does not follow symlinks
    let mut entries: Vec<(PathBuf, bool)> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| (e.path(), e.file_type().is_ok_and(|t| t.is_dir())))
        .collect();
    entries.sort();
    for (path, is_dir) in entries {
        if is_dir {
            collect_rs(&path, visit)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            visit(&path);
        }
    }
    Ok(())
}

/// The workspace-internal (`vap-*`) dependency edges of every member,
/// read straight off each manifest's `[dependencies]` /
/// `[dev-dependencies]` tables. Handles both `vap-x.workspace = true`
/// and `vap-x = { path = ".." }` spellings.
pub fn crate_dependencies(
    root: &Path,
) -> io::Result<std::collections::BTreeMap<String, std::collections::BTreeSet<String>>> {
    let mut deps = std::collections::BTreeMap::new();
    for member in member_dirs(root)? {
        let Ok(text) = fs::read_to_string(member.join("Cargo.toml")) else { continue };
        let Some(crate_name) = package_name(&text) else { continue };
        let mut edges = std::collections::BTreeSet::new();
        let mut in_deps = false;
        for raw in text.lines() {
            let line = strip_comment(raw);
            if line.starts_with('[') {
                in_deps = matches!(line, "[dependencies]" | "[dev-dependencies]")
                    || line.starts_with("[dependencies.")
                    || line.starts_with("[dev-dependencies.");
                // `[dependencies.vap-x]` table headers name the dep directly
                for prefix in ["[dependencies.", "[dev-dependencies."] {
                    if let Some(rest) = line.strip_prefix(prefix) {
                        let name = rest.trim_end_matches(']').trim();
                        if name.starts_with("vap-") {
                            edges.insert(name.to_string());
                        }
                    }
                }
                continue;
            }
            if !in_deps {
                continue;
            }
            // `vap-x = ...` or `vap-x.workspace = true`
            let key = line.split('=').next().unwrap_or("").trim();
            let key = key.split('.').next().unwrap_or("").trim();
            if key.starts_with("vap-") {
                edges.insert(key.to_string());
            }
        }
        deps.insert(crate_name, edges);
    }
    Ok(deps)
}

/// The `name = "..."` (or `name = '...'`) of a `[package]`, straight off
/// the manifest text.
fn package_name(text: &str) -> Option<String> {
    let mut in_package = false;
    for raw in text.lines() {
        let line = strip_comment(raw);
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if !in_package {
            continue;
        }
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(value) = rest.strip_prefix('=') {
                let name = value.trim().trim_matches(['"', '\'']);
                if !name.is_empty() {
                    return Some(name.to_string());
                }
            }
        }
    }
    None
}

/// One manifest line without its trailing `#` comment, trimmed: the text
/// before the first `#` that is not inside a `"..."` or `'...'` string.
fn strip_comment(line: &str) -> &str {
    let mut quote = None;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match quote {
            // a basic string escapes with `\`; a literal string has no escapes
            Some('"') if escaped => escaped = false,
            Some('"') if c == '\\' => escaped = true,
            Some(q) if c == q => quote = None,
            Some(_) => {}
            None if c == '"' || c == '\'' => quote = Some(c),
            None if c == '#' => return line[..i].trim(),
            None => {}
        }
    }
    line.trim()
}

/// `path` relative to `root`, with forward slashes.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    /// A scratch dir unique to this test process (no tempfile dep).
    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vap-lint-walker-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn finds_member_sources_with_crate_names() {
        let root = scratch("basic");
        fs::create_dir_all(root.join("src")).unwrap();
        fs::write(root.join("Cargo.toml"), "[package]\nname = \"vap\"\n").unwrap();
        fs::write(root.join("src/lib.rs"), "").unwrap();
        fs::create_dir_all(root.join("crates/core/src/sub")).unwrap();
        fs::write(root.join("crates/core/Cargo.toml"), "[package]\nname = \"vap-core\"\n").unwrap();
        fs::write(root.join("crates/core/src/lib.rs"), "").unwrap();
        fs::write(root.join("crates/core/src/sub/m.rs"), "").unwrap();
        fs::write(root.join("crates/core/src/notes.txt"), "").unwrap();

        let files = workspace_files(&root).unwrap();
        let rels: Vec<&str> = files.iter().map(|f| f.rel.as_str()).collect();
        assert_eq!(rels, ["crates/core/src/lib.rs", "crates/core/src/sub/m.rs", "src/lib.rs"]);
        assert_eq!(files[0].crate_name, "vap-core");
        assert_eq!(files[2].crate_name, "vap");
        let _ = fs::remove_dir_all(&root);
    }

    #[cfg(unix)]
    #[test]
    fn symlinked_directories_are_not_walked() {
        use std::os::unix::fs::symlink;
        let root = scratch("symlink");
        let src = root.join("crates/core/src");
        fs::create_dir_all(&src).unwrap();
        fs::write(root.join("crates/core/Cargo.toml"), "[package]\nname = \"vap-core\"\n").unwrap();
        fs::write(src.join("lib.rs"), "").unwrap();
        let rels = |root: &Path| -> Vec<String> {
            workspace_files(root).unwrap().into_iter().map(|f| f.rel).collect()
        };
        // following `up` would read lib.rs again under src/up/src/up/…
        symlink("..", src.join("up")).unwrap();
        assert_eq!(rels(&root), ["crates/core/src/lib.rs"]);
        // a second link would double the walk at every level
        symlink("..", src.join("up2")).unwrap();
        assert_eq!(rels(&root), ["crates/core/src/lib.rs"]);
        // a symlinked source file is still read
        symlink("lib.rs", src.join("alias.rs")).unwrap();
        assert_eq!(rels(&root), ["crates/core/src/alias.rs", "crates/core/src/lib.rs"]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn skips_members_without_a_package_name() {
        let root = scratch("nopkg");
        fs::create_dir_all(root.join("crates/junk/src")).unwrap();
        fs::write(root.join("crates/junk/src/lib.rs"), "").unwrap();
        // no Cargo.toml for the root or for crates/junk
        let files = workspace_files(&root).unwrap();
        assert!(files.is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn dependency_edges_cover_both_spellings() {
        let root = scratch("edges");
        fs::create_dir_all(root.join("crates/sim/src")).unwrap();
        fs::write(
            root.join("crates/sim/Cargo.toml"),
            "[package]\nname = \"vap-sim\"\n\n[dependencies]\n\
             vap-core.workspace = true\nvap-exec = { path = \"../exec\" }\n\
             serde = { version = \"1\" }\n\n[dependencies.vap-model]\npath = \"../model\"\n\n\
             [dev-dependencies]\nvap-stats.workspace = true\n",
        )
        .unwrap();
        let deps = crate_dependencies(&root).unwrap();
        let sim = &deps["vap-sim"];
        for d in ["vap-core", "vap-exec", "vap-model", "vap-stats"] {
            assert!(sim.contains(d), "missing edge {d}");
        }
        assert!(!sim.contains("serde"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_comment_after_the_package_header_keeps_the_name() {
        let name = package_name("[package] # the simulator\nname = \"vap-sim\"\n");
        assert_eq!(name.as_deref(), Some("vap-sim"));
    }

    #[test]
    fn a_comment_after_the_name_is_not_part_of_it() {
        let name = package_name("[package]\nname = \"vap-sim\" # the simulator\n");
        assert_eq!(name.as_deref(), Some("vap-sim"));
        // a `#` inside the quotes is text, not a comment
        let name = package_name("[package]\nname = \"vap-#1\" # first\n");
        assert_eq!(name.as_deref(), Some("vap-#1"));
    }

    #[test]
    fn a_literal_string_name_is_unquoted() {
        let name = package_name("[package]\nname = 'vap-core'\n");
        assert_eq!(name.as_deref(), Some("vap-core"));
    }

    #[test]
    fn a_comment_after_the_dependencies_header_keeps_the_edges() {
        let root = scratch("deps-comment");
        fs::create_dir_all(root.join("crates/par/src")).unwrap();
        fs::write(
            root.join("crates/par/Cargo.toml"),
            "[package]\nname = \"vap-par\"\n\n[dependencies] # workspace crates\n\
             vap-obs = { path = \"../obs\" } # the recorder\n\
             # vap-old = { path = \"../old\" }\n\
             [dev-dependencies.vap-stats] # tests only\npath = \"../stats\"\n",
        )
        .unwrap();
        let deps = crate_dependencies(&root).unwrap();
        let edges: Vec<&str> = deps["vap-par"].iter().map(String::as_str).collect();
        assert_eq!(edges, ["vap-obs", "vap-stats"]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn comments_end_at_the_first_hash_outside_a_string() {
        assert_eq!(strip_comment("  [package]   # x"), "[package]");
        assert_eq!(strip_comment("name = \"a#b\" # c"), "name = \"a#b\"");
        assert_eq!(strip_comment("name = 'a#b' # c"), "name = 'a#b'");
        assert_eq!(strip_comment("name = \"a\\\"#b\" # c"), "name = \"a\\\"#b\"");
        assert_eq!(strip_comment("# all comment"), "");
        assert_eq!(strip_comment("name = \"open # c"), "name = \"open # c");
    }

    #[test]
    fn package_name_ignores_dependency_tables() {
        let manifest =
            "[dependencies]\nname-like = \"1\"\n[package]\nname = \"vap-x\"\nversion = \"0.1.0\"\n";
        assert_eq!(package_name(manifest).as_deref(), Some("vap-x"));
    }
}
