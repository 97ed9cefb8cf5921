//! The rule engine: project-invariant checks over `crate::lexer::MaskedFile`
//! views of every workspace source file.
//!
//! | rule id             | invariant                                        |
//! |---------------------|--------------------------------------------------|
//! | `wall-clock`        | no `Instant::now`/`SystemTime` outside `crates/bench` |
//! | `safety-comment`    | every `unsafe` keyword carries an adjacent `// SAFETY:` (or `# Safety` doc) comment |
//! | `hashmap-iteration` | no iteration over `HashMap`/`HashSet` in simulation/control-plane crates without a `// simlint: order-independent` justification |
//! | `forbid-unsafe`     | every functional crate declares `#![forbid(unsafe_code)]` |
//! | `unwrap-budget`     | `.unwrap()`/`.expect(` in non-test library code never exceeds the committed per-crate baseline, which may only shrink |
//! | `test-only-pub`     | no library `pub fn`/`pub const` whose name occurs, outside its own definition, only in `#[cfg(test)]` code and `tests/` directories, without a `// simlint: test-accessor` justification — catches surface only tests reach |
//! | `crate-local-pub`   | no library `pub fn`/`pub const` that real code calls but no file outside its crate's library names, without a `// simlint: test-accessor` justification — catches `pub` that should be `pub(crate)`, which also hides dead code from rustc |
//!
//! Suppression grammar: a justification comment holds on the flagged line
//! or the line directly above it.  `// simlint: order-independent` is the
//! only accepted justification for `hashmap-iteration`, and
//! `// simlint: test-accessor` the only one for `test-only-pub` and
//! `crate-local-pub` (one pass yields at most one finding per item,
//! `test-only-pub` first);
//! `// SAFETY:` (or a `/// # Safety` doc section) is the only one for
//! `safety-comment`.  Nothing suppresses `wall-clock`, `forbid-unsafe` or
//! `unwrap-budget` — those are fixed by moving the code, adding the
//! attribute, or editing the baseline file (shrinking only).

use std::collections::BTreeMap;

use crate::lexer::{lex, MaskedFile};

/// One lint finding, printed as `file:line: rule-id: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (unix separators).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Crates whose `src/` trees feed the simulation or the control plane —
/// the scope of the `hashmap-iteration` rule ("root" is the umbrella).
const ORDER_SENSITIVE_CRATES: &[&str] = &[
    "cloudsim",
    "deepdive",
    "hwsim",
    "root",
    "traces",
    "workloads",
];

/// Crates that must declare `#![forbid(unsafe_code)]` at their root.
pub(crate) const FORBID_UNSAFE_CRATES: &[&str] = &[
    "bench",
    "cloudsim",
    "deepdive",
    "hwsim",
    "root",
    "simlint",
    "traces",
    "workloads",
];

/// The crate a workspace-relative path belongs to ("root" for the umbrella
/// package's `src/`, `tests/`, `examples/`).
pub(crate) fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("root")
}

/// True for non-test *library* code: a crate's `src/` tree (or the
/// umbrella's `src/`), as opposed to `tests/`, `benches/`, `examples/`.
pub(crate) fn is_library_path(path: &str) -> bool {
    match path.strip_prefix("crates/") {
        Some(rest) => {
            let mut parts = rest.splitn(2, '/');
            let _crate = parts.next();
            parts.next().is_some_and(|tail| tail.starts_with("src/"))
        }
        None => path.starts_with("src/"),
    }
}

/// Lints one file's source; `path` is workspace-relative with `/` separators.
pub(crate) fn lint_file(path: &str, source: &str) -> Vec<Finding> {
    let masked = lex(source);
    let mut findings = Vec::new();
    check_wall_clock(path, &masked, &mut findings);
    check_safety_comments(path, &masked, &mut findings);
    check_hashmap_iteration(path, &masked, &mut findings);
    findings
}

/// Counts `.unwrap()`/`.expect(` calls in non-test library lines of one
/// file (0 for test files, fixtures and `#[cfg(test)]` spans).
pub(crate) fn count_unwraps(path: &str, source: &str) -> usize {
    if !is_library_path(path) {
        return 0;
    }
    let masked = lex(source);
    masked
        .code
        .iter()
        .zip(&masked.in_test)
        .filter(|&(_, &in_test)| !in_test)
        .map(|(line, _)| count_occurrences(line, ".unwrap()") + count_occurrences(line, ".expect("))
        .sum()
}

fn count_occurrences(haystack: &str, needle: &str) -> usize {
    let mut count = 0;
    let mut from = 0;
    while let Some(at) = haystack[from..].find(needle) {
        count += 1;
        from += at + needle.len();
    }
    count
}

// ---------------------------------------------------------------- wall-clock

/// Only `crates/bench` may read the wall clock: benches time their own
/// kernels; nothing that produces simulation results may observe real time.
fn check_wall_clock(path: &str, masked: &MaskedFile, findings: &mut Vec<Finding>) {
    if crate_of(path) == "bench" {
        return;
    }
    for (idx, line) in masked.code.iter().enumerate() {
        for token in ["Instant::now", "SystemTime"] {
            if find_word(line, token).is_some() {
                findings.push(Finding {
                    path: path.to_string(),
                    line: idx + 1,
                    rule: "wall-clock",
                    message: format!(
                        "`{token}` outside crates/bench: simulation output must \
                         be a pure function of its seed, never of real time"
                    ),
                });
            }
        }
    }
}

// ------------------------------------------------------------ safety-comment

fn check_safety_comments(path: &str, masked: &MaskedFile, findings: &mut Vec<Finding>) {
    for (idx, line) in masked.code.iter().enumerate() {
        let Some(col) = find_word(line, "unsafe") else {
            continue;
        };
        // One finding per line is enough even if the line has two `unsafe`s.
        let _ = col;
        if has_adjacent_safety_comment(masked, idx) {
            continue;
        }
        findings.push(Finding {
            path: path.to_string(),
            line: idx + 1,
            rule: "safety-comment",
            message: "`unsafe` without an adjacent `// SAFETY:` comment stating \
                      the invariant it relies on"
                .to_string(),
        });
    }
}

/// True when the line itself, or the comment block adjacent to the start
/// of the statement containing it, contains `SAFETY:` or a `# Safety` doc
/// section.  Walking up, comment-only and attribute-only lines keep the
/// block contiguous; a code line that does *not* end a statement (no
/// trailing `;`, `{` or `}`) is treated as the same multi-line statement
/// (`let task: Task =` above an `unsafe { transmute(…) }`), while one that
/// does ends the search.
fn has_adjacent_safety_comment(masked: &MaskedFile, idx: usize) -> bool {
    let is_safety = |c: &str| c.contains("SAFETY:") || c.contains("# Safety");
    if is_safety(&masked.comments[idx]) {
        return true;
    }
    let mut up = idx;
    while up > 0 {
        up -= 1;
        let comment = masked.comments[up].trim();
        let code = masked.code[up].trim();
        let attribute_only = !code.is_empty() && code.starts_with("#[") && code.ends_with(']');
        let statement_continuation = !code.is_empty()
            && !attribute_only
            && !code.ends_with(';')
            && !code.ends_with('{')
            && !code.ends_with('}');
        if !code.is_empty() && !attribute_only && !statement_continuation {
            return false;
        }
        if is_safety(comment) {
            return true;
        }
        if code.is_empty() && comment.is_empty() {
            return false; // blank line breaks adjacency
        }
    }
    false
}

// -------------------------------------------------------- hashmap-iteration

/// Methods whose results depend on `HashMap`/`HashSet` iteration order.
const ORDER_DEPENDENT_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
    ".into_keys()",
    ".into_values()",
];

fn check_hashmap_iteration(path: &str, masked: &MaskedFile, findings: &mut Vec<Finding>) {
    if !ORDER_SENSITIVE_CRATES.contains(&crate_of(path)) || !is_library_path(path) {
        return;
    }
    let maps = collect_hash_bindings(masked);
    if maps.is_empty() {
        return;
    }
    for (idx, line) in masked.code.iter().enumerate() {
        if masked.in_test[idx] {
            continue;
        }
        for name in &maps {
            let hit = ORDER_DEPENDENT_METHODS
                .iter()
                .find(|m| calls_method_on(line, name, m) || continues_chain(masked, idx, name, m))
                .copied()
                .or_else(|| iterated_in_for(line, name).then_some("for … in"));
            let Some(how) = hit else { continue };
            if has_marker(masked, idx, "simlint: order-independent") {
                continue;
            }
            findings.push(Finding {
                path: path.to_string(),
                line: idx + 1,
                rule: "hashmap-iteration",
                message: format!(
                    "iteration over hash-ordered `{name}` ({how}): order is \
                     nondeterministic across processes — use a BTreeMap, sort \
                     the keys, or justify with `// simlint: order-independent`"
                ),
            });
            break; // one finding per line
        }
    }
}

/// Identifiers bound to a `HashMap`/`HashSet` anywhere in the file, found
/// via `name: HashMap<…>` / `name: HashSet<…>` type ascriptions and
/// `let [mut] name = HashMap::…` / `HashSet::…` initialisations.
fn collect_hash_bindings(masked: &MaskedFile) -> Vec<String> {
    let mut names = Vec::new();
    for line in &masked.code {
        collect_ascriptions(line, &mut names);
        collect_initialisations(line, &mut names);
    }
    names.sort();
    names.dedup();
    names
}

fn collect_ascriptions(line: &str, names: &mut Vec<String>) {
    for ty in ["HashMap", "HashSet"] {
        let mut from = 0;
        while let Some(at) = line[from..].find(ty) {
            let abs = from + at;
            from = abs + ty.len();
            if !line[from..].trim_start().starts_with('<') || is_ident_char_before(line, abs) {
                // Part of a longer name, or not a generic type use.
                continue;
            }
            // Walk back over `: (std::collections::)?` to the bound name.
            let before = line[..abs].trim_end();
            let before = before
                .strip_suffix("std::collections::")
                .or_else(|| before.strip_suffix("collections::"))
                .unwrap_or(before)
                .trim_end();
            let before = before.trim_end_matches(['&', ' ']);
            if let Some(before) = before.strip_suffix(':') {
                if let Some(name) = trailing_ident(before.trim_end()) {
                    names.push(name);
                }
            }
        }
    }
}

fn collect_initialisations(line: &str, names: &mut Vec<String>) {
    for ty in ["HashMap::", "HashSet::"] {
        let Some(at) = line.find(ty) else { continue };
        if is_ident_char_before(line, at) {
            continue;
        }
        // `… name = [std::collections::]HashMap::new()` (possibly with a
        // type ascription between name and `=`, handled by the other pass).
        let lhs = line[..at].trim_end();
        let lhs = lhs
            .strip_suffix("std::collections::")
            .or_else(|| lhs.strip_suffix("collections::"))
            .unwrap_or(lhs)
            .trim_end();
        if let Some(lhs) = lhs.strip_suffix('=') {
            if let Some(name) = trailing_ident(lhs.trim_end()) {
                names.push(name);
            }
        }
    }
}

fn is_ident_char_before(line: &str, at: usize) -> bool {
    line[..at]
        .chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ':')
        && !line[..at].ends_with("::")
}

/// The identifier ending at the end of `s`, if any (skips a trailing `mut`).
fn trailing_ident(s: &str) -> Option<String> {
    let ident: String = s
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    if ident == "mut" || ident == "let" {
        return None;
    }
    Some(ident)
}

/// True when `line` calls `method` on `name` (`name.keys()`,
/// `self.name.keys()`, `foo.name.keys()` all count).
fn calls_method_on(line: &str, name: &str, method: &str) -> bool {
    let needle = format!("{name}{method}");
    let mut from = 0;
    while let Some(at) = line[from..].find(&needle) {
        let abs = from + at;
        from = abs + name.len();
        let preceded_by_ident = line[..abs]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !preceded_by_ident {
            return true;
        }
    }
    false
}

/// True when this line *starts* with `method` (rustfmt-broken chain) and
/// the previous non-empty code line's receiver expression ends with `name`
/// — catches `self.by_app_scratch\n    .iter()`.
fn continues_chain(masked: &MaskedFile, idx: usize, name: &str, method: &str) -> bool {
    if !masked.code[idx].trim_start().starts_with(method) {
        return false;
    }
    let mut up = idx;
    while up > 0 {
        up -= 1;
        let code = masked.code[up].trim_end();
        if code.trim().is_empty() {
            continue;
        }
        return trailing_ident(code).is_some_and(|ident| ident == name);
    }
    false
}

/// True when `line` iterates `name` via a `for … in [&[mut]] name` header
/// (direct iteration, equivalent to `.iter()`/`.into_iter()`).
fn iterated_in_for(line: &str, name: &str) -> bool {
    let Some(at) = find_word(line, "for") else {
        return false;
    };
    let Some(in_at) = find_word(&line[at..], "in") else {
        return false;
    };
    let tail = line[at + in_at + 2..].trim_start();
    let tail = tail
        .strip_prefix("&mut ")
        .or_else(|| tail.strip_prefix('&'))
        .unwrap_or(tail)
        .trim_start();
    let tail = tail.strip_prefix("self.").unwrap_or(tail);
    tail.strip_prefix(name)
        .is_some_and(|rest| rest.trim_start().starts_with('{') || rest.trim_start().is_empty())
}

/// True when the flagged line (or the line directly above) carries the
/// justification `marker` in a comment.
fn has_marker(masked: &MaskedFile, idx: usize, marker: &str) -> bool {
    masked.comments[idx].contains(marker) || (idx > 0 && masked.comments[idx - 1].contains(marker))
}

// ------------------------------------- test-only-pub and crate-local-pub

/// Library `pub fn`s and `pub const`s that no other compilation unit
/// needs, across the whole workspace.
///
/// *Definitions* are `pub fn` / `pub const fn` / `pub const NAME` lines of
/// non-test library code; a binary's items (`src/bin/`) are not library
/// surface.  *Uses* are identifier tokens on the code view of every file,
/// the definition line excepted.  A definition is
///
/// * `test-only-pub` when no use outside `#[cfg(test)]` spans and `tests/`
///   directories exists (benches, examples and binaries are real callers);
/// * otherwise `crate-local-pub` when no file outside its crate's library
///   names it.  The library is the crate's `src/` tree without `src/bin/`
///   (the umbrella's `src/` for the root package); the crate's own
///   `tests/`, `benches/` and `src/bin/` compile separately, so they count
///   as outside.
///
/// A name defined more than once is skipped (collisions err toward
/// silence), so common method names (`new`, `config`, `len`) are out of
/// reach here: for them the compiler is the audit — narrow to
/// `pub(crate)`, build every target, and give `pub` back where rustc asks
/// (the procedure CHANGES.md records).  `// simlint: test-accessor`
/// justifies either finding.
pub(crate) fn check_pub_surface(files: &[(String, String)]) -> Vec<Finding> {
    let masked: Vec<MaskedFile> = files.iter().map(|(_, source)| lex(source)).collect();
    // The crate whose library each file belongs to, if it is library code.
    let library: Vec<Option<&str>> = files
        .iter()
        .map(|(path, _)| {
            let binary = path.starts_with("src/bin/") || path.contains("/src/bin/");
            (is_library_path(path) && !binary).then(|| crate_of(path))
        })
        .collect();
    let mut defs: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (f, file) in masked.iter().enumerate() {
        if library[f].is_none() {
            continue;
        }
        for (idx, line) in file.code.iter().enumerate() {
            if let Some(name) = defined_pub_item(line).filter(|_| !file.in_test[idx]) {
                defs.entry(name).or_default().push((f, idx));
            }
        }
    }
    // The one definition of each uncontested name, whether a real caller
    // has been seen, and whether a file outside its library names it.
    let mut unique: BTreeMap<&str, ((usize, usize), bool, bool)> = defs
        .into_iter()
        .filter(|(_, at)| at.len() == 1)
        .map(|(name, at)| (name, (at[0], false, false)))
        .collect();
    for (f, (path, _)) in files.iter().enumerate() {
        let test_dir = path.starts_with("tests/") || path.contains("/tests/");
        for (idx, line) in masked[f].code.iter().enumerate() {
            let real = !test_dir && !masked[f].in_test[idx];
            for token in identifiers(line) {
                if let Some((def, used, outside)) = unique.get_mut(token) {
                    *used |= real && *def != (f, idx);
                    *outside |= library[f] != library[def.0];
                }
            }
        }
    }
    unique
        .into_iter()
        .filter(|&(_, ((f, idx), used, outside))| {
            !(used && outside || has_marker(&masked[f], idx, "simlint: test-accessor"))
        })
        .map(|(name, ((f, idx), used, _))| {
            let (rule, message) = if used {
                (
                    "crate-local-pub",
                    format!(
                        "`{name}` is `pub`, but nothing outside its crate's library \
                         names it: make it `pub(crate)` or private"
                    ),
                )
            } else {
                (
                    "test-only-pub",
                    format!(
                        "`{name}` is `pub`, but only tests reach it: delete it, make \
                         it private, or justify with `// simlint: test-accessor`"
                    ),
                )
            };
            Finding {
                path: files[f].0.clone(),
                line: idx + 1,
                rule,
                message,
            }
        })
        .collect()
}

/// The name a `pub fn` / `pub const fn` / `pub const NAME` line defines
/// (CI's `pub fn` and `pub const` counts use the same shapes).
fn defined_pub_item(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    match rest.strip_prefix("const ") {
        Some(rest) => identifiers(rest.strip_prefix("fn ").unwrap_or(rest)).next(),
        None => identifiers(rest.strip_prefix("fn ")?).next(),
    }
}

/// The identifier tokens of a code line, in order.
fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| t.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

// -------------------------------------------------------------- find helpers

/// Byte offset of `word` in `line` with identifier boundaries on both sides.
fn find_word(line: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(at) = line[from..].find(word) {
        let abs = from + at;
        from = abs + word.len().max(1);
        let left_ok = !is_ident_boundary_violated(line, abs);
        let right = abs + word.len();
        let right_ok = !line[right..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if left_ok && right_ok {
            return Some(abs);
        }
    }
    None
}

fn is_ident_boundary_violated(line: &str, at: usize) -> bool {
    line[..at]
        .chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_at(path: &str, src: &str) -> Vec<String> {
        lint_file(path, src)
            .into_iter()
            .map(|f| format!("{}:{}", f.rule, f.line))
            .collect()
    }

    // ---- wall-clock ----------------------------------------------------

    #[test]
    fn wall_clock_fires_in_simulation_crates() {
        let src = "fn t() { let t0 = std::time::Instant::now(); }\n";
        for path in [
            "crates/cloudsim/src/engine.rs",
            "crates/deepdive/src/controller/mod.rs",
        ] {
            assert_eq!(rules_at(path, src), ["wall-clock:1"]);
        }
    }

    #[test]
    fn wall_clock_fires_on_system_time_too() {
        let src = "fn t() { let now = SystemTime::now(); }\n";
        assert_eq!(
            rules_at("crates/deepdive/src/warning.rs", src),
            ["wall-clock:1"]
        );
    }

    #[test]
    fn wall_clock_is_allowed_in_bench() {
        let src = "fn t() { let t0 = Instant::now(); }\n";
        assert!(rules_at("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_in_comments_and_strings_is_ignored() {
        let src = "// Instant::now() would break determinism\nlet s = \"Instant::now()\";\n";
        assert!(rules_at("crates/cloudsim/src/engine.rs", src).is_empty());
    }

    // ---- safety-comment ------------------------------------------------

    #[test]
    fn unsafe_without_safety_comment_fires() {
        let src = "fn f() {\n    unsafe { do_it() };\n}\n";
        assert_eq!(
            rules_at("crates/cloudsim/src/pm.rs", src),
            ["safety-comment:2"]
        );
    }

    #[test]
    fn unsafe_with_adjacent_safety_comment_is_clean() {
        let src =
            "fn f() {\n    // SAFETY: the pointer outlives the call.\n    unsafe { do_it() };\n}\n";
        assert!(rules_at("crates/cloudsim/src/pm.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_reaches_across_a_statement_continuation() {
        // The comment sits above the statement *start*, the `unsafe` is on a
        // later line of the same statement.
        let src = "fn f() {\n    // SAFETY: closure outlives the scope.\n    let t: Task =\n        unsafe { std::mem::transmute(boxed) };\n}\n";
        assert!(rules_at("crates/cloudsim/src/pm.rs", src).is_empty());
    }

    #[test]
    fn doc_safety_section_satisfies_unsafe_fn() {
        let src = "/// Writes the slot.\n///\n/// # Safety\n/// Caller must hold the token.\nunsafe fn write(p: *mut u8) {}\n";
        assert!(rules_at("crates/cloudsim/src/pm.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_string_or_comment_does_not_fire() {
        let src = "// unsafe is a keyword\nlet s = \"unsafe { }\";\n";
        assert!(rules_at("crates/cloudsim/src/pm.rs", src).is_empty());
    }

    // ---- hashmap-iteration ---------------------------------------------

    #[test]
    fn hashmap_iteration_fires_on_typed_binding() {
        let src =
            "fn f(m: &HashMap<u32, u32>) {\n    for (k, v) in m.iter() { use_kv(k, v); }\n}\n";
        assert_eq!(
            rules_at("crates/deepdive/src/controller.rs", src),
            ["hashmap-iteration:2"]
        );
    }

    #[test]
    fn hashmap_iteration_fires_on_initialisation_and_for_loop() {
        let src = "fn f() {\n    let m = HashMap::new();\n    for k in &m { touch(k); }\n}\n";
        assert_eq!(
            rules_at("crates/cloudsim/src/cluster.rs", src),
            ["hashmap-iteration:3"]
        );
    }

    #[test]
    fn hashmap_iteration_fires_on_a_wrapped_chain() {
        // rustfmt breaks long chains; the receiver ends one line, the
        // method starts the next.
        let src = "fn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n    let v: Vec<_> = m\n        .keys()\n        .collect();\n}\n";
        assert_eq!(
            rules_at("crates/deepdive/src/repository.rs", src),
            ["hashmap-iteration:4"]
        );
    }

    #[test]
    fn order_independent_marker_suppresses_on_same_line() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n    for v in m.values() { *count += v; } // simlint: order-independent\n}\n";
        assert!(rules_at("crates/deepdive/src/controller.rs", src).is_empty());
    }

    #[test]
    fn order_independent_marker_suppresses_from_line_above() {
        let src = "fn f(m: &mut HashMap<u32, Vec<u8>>) {\n    // Clearing touches each group once.  simlint: order-independent\n    for g in m.values_mut() { g.clear(); }\n}\n";
        assert!(rules_at("crates/deepdive/src/controller.rs", src).is_empty());
    }

    #[test]
    fn marker_two_lines_away_does_not_suppress() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n    // simlint: order-independent\n    let _unrelated = 0;\n    for v in m.values() { touch(v); }\n}\n";
        assert_eq!(
            rules_at("crates/deepdive/src/controller.rs", src),
            ["hashmap-iteration:4"]
        );
    }

    #[test]
    fn btreemap_iteration_is_clean() {
        let src =
            "fn f(m: &BTreeMap<u32, u32>) {\n    for (k, v) in m.iter() { use_kv(k, v); }\n}\n";
        assert!(rules_at("crates/deepdive/src/controller.rs", src).is_empty());
    }

    #[test]
    fn hashmap_lookup_without_iteration_is_clean() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n    let v = m.get(&3);\n    m.insert(4, 5);\n}\n";
        assert!(rules_at("crates/deepdive/src/controller.rs", src).is_empty());
    }

    #[test]
    fn hashmap_iteration_inside_cfg_test_is_clean() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(m: &HashMap<u32, u32>) {\n        for v in m.values() { touch(v); }\n    }\n}\n";
        assert!(rules_at("crates/deepdive/src/controller.rs", src).is_empty());
    }

    #[test]
    fn hashmap_iteration_not_enforced_outside_order_sensitive_crates() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n    for v in m.values() { touch(v); }\n}\n";
        assert!(rules_at("crates/simlint/src/rules.rs", src).is_empty());
    }

    // ---- test-only-pub and crate-local-pub ----------------------------

    fn pub_findings(files: &[(&str, &str)]) -> Vec<String> {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|&(path, source)| (path.to_string(), source.to_string()))
            .collect();
        check_pub_surface(&files)
            .into_iter()
            .map(|f| format!("{}:{}:{}", f.rule, f.path, f.line))
            .collect()
    }

    const LIB: &str = "crates/hwsim/src/lib.rs";
    const DEF: &str = "pub fn helper() {}\n";

    #[test]
    fn test_only_pub_fires_on_cfg_test_and_tests_dir_callers() {
        let lib = "pub const fn helper() {}\n#[cfg(test)]\nmod tests {\n    fn t() { super::helper(); }\n}\n";
        let suite = (
            "crates/hwsim/tests/suite.rs",
            "fn t() { hwsim::helper(); }\n",
        );
        assert_eq!(
            pub_findings(&[(LIB, lib), suite]),
            [format!("test-only-pub:{LIB}:1")]
        );
    }

    #[test]
    fn test_only_pub_is_justified_on_or_above_the_definition() {
        let above = "// simlint: test-accessor (pins the reference)\npub fn helper() {}\n";
        let same = "pub fn helper() {} // simlint: test-accessor\n";
        for lib in [above, same] {
            assert!(pub_findings(&[(LIB, lib)]).is_empty(), "{lib}");
        }
    }

    #[test]
    fn test_only_pub_counts_examples_benches_and_binaries_as_callers() {
        for caller in [
            "examples/demo.rs",
            "crates/bench/benches/fig.rs",
            "crates/bench/src/bin/e2e_bench/main.rs",
        ] {
            let files = [(LIB, DEF), (caller, "fn main() { hwsim::helper(); }\n")];
            assert!(pub_findings(&files).is_empty(), "{caller}");
        }
        // A binary's own `pub fn`s are not library surface.
        let bin = ("crates/bench/src/bin/e2e_bench/run.rs", DEF);
        assert!(pub_findings(&[bin]).is_empty());
    }

    #[test]
    fn test_only_pub_skips_names_defined_twice() {
        let other = ("crates/cloudsim/src/lib.rs", DEF);
        assert!(pub_findings(&[(LIB, DEF), other]).is_empty());
    }

    #[test]
    fn test_only_pub_ignores_comments_and_strings() {
        let caller = "// helper() is great\nfn main() { let _ = \"helper\"; }\n";
        let files = [(LIB, DEF), ("examples/demo.rs", caller)];
        assert_eq!(pub_findings(&files), [format!("test-only-pub:{LIB}:1")]);
    }

    /// A real caller inside the defining crate's library.
    const IN_CRATE: (&str, &str) = ("crates/hwsim/src/cache.rs", "fn f() { crate::helper(); }\n");

    #[test]
    fn crate_local_pub_fires_on_a_name_only_its_library_uses() {
        let files = [(LIB, DEF), IN_CRATE];
        assert_eq!(pub_findings(&files), [format!("crate-local-pub:{LIB}:1")]);
        let konst = "pub const LIMIT: u32 = 3;\nfn f() -> u32 { LIMIT }\n";
        assert_eq!(
            pub_findings(&[(LIB, konst)]),
            [format!("crate-local-pub:{LIB}:1")]
        );
    }

    #[test]
    fn crate_local_pub_is_silent_when_another_unit_names_it() {
        for outside in [
            "crates/cloudsim/src/lib.rs",
            "crates/hwsim/tests/suite.rs",
            "crates/hwsim/benches/fig.rs",
            "crates/hwsim/src/bin/tool.rs",
            "examples/demo.rs",
        ] {
            let files = [(LIB, DEF), IN_CRATE, (outside, "use hwsim::helper;\n")];
            assert!(pub_findings(&files).is_empty(), "{outside}");
        }
    }

    #[test]
    fn crate_local_pub_is_justified_by_the_test_accessor_marker() {
        let lib = "pub fn helper() {} // simlint: test-accessor\n";
        assert!(pub_findings(&[(LIB, lib), IN_CRATE]).is_empty());
    }

    #[test]
    fn crate_local_pub_skips_names_defined_twice() {
        let other = ("crates/cloudsim/src/lib.rs", DEF);
        let other_caller = ("crates/cloudsim/src/pm.rs", "fn f() { crate::helper(); }\n");
        assert!(pub_findings(&[(LIB, DEF), IN_CRATE, other, other_caller]).is_empty());
    }

    #[test]
    fn crate_local_pub_ignores_comments_and_strings() {
        let mention = "// hwsim::helper() is great\nfn main() { let _ = \"helper\"; }\n";
        let files = [(LIB, DEF), IN_CRATE, ("examples/demo.rs", mention)];
        assert_eq!(pub_findings(&files), [format!("crate-local-pub:{LIB}:1")]);
    }

    // ---- unwrap budget counting ----------------------------------------

    #[test]
    fn count_unwraps_counts_library_code_only() {
        let src = "\
fn f() {\n\
    let a = x.unwrap();\n\
    let b = y.expect(\"msg\");\n\
}\n\
#[cfg(test)]\n\
mod tests {\n\
    fn t() { z.unwrap(); }\n\
}\n";
        assert_eq!(count_unwraps("crates/hwsim/src/lib.rs", src), 2);
    }

    #[test]
    fn count_unwraps_ignores_comments_strings_and_non_library_paths() {
        let src = "// x.unwrap()\nlet s = \".unwrap()\";\nlet v = w.unwrap();\n";
        assert_eq!(count_unwraps("crates/hwsim/src/lib.rs", src), 1);
        // tests/ and benches/ trees are not library code.
        assert_eq!(count_unwraps("crates/hwsim/tests/integration.rs", src), 0);
        assert_eq!(count_unwraps("crates/bench/benches/epoch.rs", src), 0);
    }

    // ---- path classification -------------------------------------------

    #[test]
    fn crate_of_maps_umbrella_and_member_paths() {
        assert_eq!(crate_of("crates/deepdive/src/controller.rs"), "deepdive");
        assert_eq!(crate_of("src/lib.rs"), "root");
        assert_eq!(crate_of("tests/determinism.rs"), "root");
        assert_eq!(crate_of("examples/outage.rs"), "root");
    }

    #[test]
    fn shims_are_never_library_paths() {
        assert!(!is_library_path("crates/shims/rand/src/lib.rs"));
        assert!(is_library_path("crates/cloudsim/src/engine.rs"));
        assert!(is_library_path("src/lib.rs"));
    }
}
