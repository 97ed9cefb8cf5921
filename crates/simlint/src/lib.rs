#![forbid(unsafe_code)]
//! # simlint — workspace-native static analysis for the determinism and
//! unsafety contracts
//!
//! The repository's north-star claim — interference detection that is
//! **bit-identical** across `Serial`/`Pooled` execution — rests on
//! runtime proptests (`engine_equivalence`, `warning_equivalence`).  Nothing
//! in `cargo test` stops the *next* PR from reintroducing a wall-clock read,
//! a `HashMap`-iteration-order dependence, or an unaudited `unsafe` block.
//! This crate is that missing gate: an offline, dependency-free static
//! analysis binary run as `cargo run -p simlint` (locally and in CI, before
//! the test lanes).
//!
//! * [`lexer`] — a minimal Rust lexer (nested block comments, raw strings,
//!   char/byte literals, `#[cfg(test)]` span detection) that separates code
//!   from comments and literal contents, so rules never fire on a `HashMap`
//!   in a doc comment or an `unsafe` inside a raw string.
//! * [`rules`] — the rule engine; see its docs for the rule table and the
//!   justification-comment grammar.
//!
//! The `unwrap-budget` rule ratchets against
//! `crates/simlint/unwrap_budget.txt` ([`BUDGET_PATH`]): a
//! committed per-crate baseline of `.unwrap()`/`.expect(` counts in non-test
//! library code.  Counts above budget fail; counts *below* budget also fail
//! with a message telling you to shrink the baseline — that keeps the file
//! in lockstep with the tree, so the budget can only ever go down.
//!
//! Everything under `crates/shims/` is excluded: shims mimic external
//! crates' APIs and live outside the project's own invariants.

pub mod lexer;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

pub use rules::{Finding, FORBID_UNSAFE_CRATES};

/// Workspace-relative path of the committed unwrap/expect baseline.
pub const BUDGET_PATH: &str = "crates/simlint/unwrap_budget.txt";

/// Lints every workspace `.rs` file under `root` (shims and build
/// artefacts excluded) and returns all findings, sorted by path and line.
///
/// Errors only on environmental failures (unreadable files, missing or
/// malformed baseline) — lint findings are data, not errors.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    collect_rust_files(root, root, &mut files)?;
    files.sort();

    let mut findings = Vec::new();
    let mut unwraps: Vec<(String, usize)> = Vec::new();
    let mut forbid_missing: Vec<&str> = FORBID_UNSAFE_CRATES.to_vec();
    for rel in &files {
        let source = fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        findings.extend(rules::lint_file(rel, &source));

        let crate_name = rules::crate_of(rel).to_string();
        let count = rules::count_unwraps(rel, &source);
        if count > 0 {
            match unwraps.iter_mut().find(|(c, _)| *c == crate_name) {
                Some((_, total)) => *total += count,
                None => unwraps.push((crate_name.clone(), count)),
            }
        }

        if is_crate_root(rel) && declares_forbid_unsafe(&source) {
            forbid_missing.retain(|c| *c != crate_name);
        }
    }

    for crate_name in forbid_missing {
        findings.push(Finding {
            path: crate_root_path(crate_name),
            line: 1,
            rule: "forbid-unsafe",
            message: format!(
                "crate `{crate_name}` must declare `#![forbid(unsafe_code)]` \
                 (only cloudsim's audited pool.rs may use unsafe)"
            ),
        });
    }

    check_budget(root, &unwraps, &mut findings)?;
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

/// The lib.rs (or the umbrella's `src/lib.rs`) path for a crate name.
fn crate_root_path(crate_name: &str) -> String {
    if crate_name == "root" {
        "src/lib.rs".to_string()
    } else {
        format!("crates/{crate_name}/src/lib.rs")
    }
}

fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs"
        || (rel.starts_with("crates/")
            && rel.ends_with("/src/lib.rs")
            && rel.matches('/').count() == 3)
}

/// True when the crate root's *code* (not a comment or string) declares
/// `#![forbid(unsafe_code)]`.
pub fn declares_forbid_unsafe(source: &str) -> bool {
    let masked = lexer::lex(source);
    masked.code.iter().any(|line| {
        let compact: String = line.chars().filter(|c| !c.is_whitespace()).collect();
        compact.contains("#![forbid(unsafe_code)]")
    })
}

/// Compares per-crate unwrap/expect counts against the committed baseline.
///
/// Over budget is a finding; *under* budget is a finding too ("shrink the
/// baseline"), which is what makes the budget a one-way ratchet: the file
/// always states the true ceiling, and the ceiling only moves down.
fn check_budget(
    root: &Path,
    unwraps: &[(String, usize)],
    findings: &mut Vec<Finding>,
) -> Result<(), String> {
    let budget_file = root.join(BUDGET_PATH);
    let text = fs::read_to_string(&budget_file).map_err(|e| {
        format!("{BUDGET_PATH}: {e} (commit a baseline; one `crate count` per line)")
    })?;
    let mut budget: Vec<(String, usize)> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(name), Some(count), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("{BUDGET_PATH}:{}: expected `crate count`", ln + 1));
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("{BUDGET_PATH}:{}: `{count}` is not a count", ln + 1))?;
        budget.push((name.to_string(), count));
    }

    for (crate_name, actual) in unwraps {
        let allowed = budget
            .iter()
            .find(|(c, _)| c == crate_name)
            .map(|&(_, n)| n)
            .unwrap_or(0);
        if *actual > allowed {
            findings.push(Finding {
                path: BUDGET_PATH.to_string(),
                line: 1,
                rule: "unwrap-budget",
                message: format!(
                    "crate `{crate_name}` has {actual} `.unwrap()`/`.expect(` calls in \
                     non-test library code, budget is {allowed}: handle the error or \
                     move the call into test code (the budget only shrinks)"
                ),
            });
        }
    }
    for (crate_name, allowed) in &budget {
        let actual = unwraps
            .iter()
            .find(|(c, _)| c == crate_name)
            .map(|&(_, n)| n)
            .unwrap_or(0);
        if actual < *allowed {
            findings.push(Finding {
                path: BUDGET_PATH.to_string(),
                line: 1,
                rule: "unwrap-budget",
                message: format!(
                    "stale baseline: crate `{crate_name}` now has {actual} \
                     `.unwrap()`/`.expect(` calls but the budget still says {allowed} — \
                     ratchet {BUDGET_PATH} down to {actual}"
                ),
            });
        }
    }
    Ok(())
}

/// Recursively collects workspace-relative `.rs` paths, skipping build
/// artefacts, VCS metadata and the dependency shims.
fn collect_rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            if path == root.join("crates/shims") {
                continue;
            }
            collect_rust_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Ascends from `start` to the first directory whose `Cargo.toml` declares
/// `[workspace]` — the root every path in the findings is relative to.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(format!("no workspace Cargo.toml above {}", start.display()));
        }
    }
}
