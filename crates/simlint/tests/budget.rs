//! End-to-end checks of the `unwrap-budget` ratchet and the `forbid-unsafe`
//! rule against a miniature workspace built in a temp directory.

use std::fs;
use std::path::{Path, PathBuf};

fn mini_workspace(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).unwrap();
    }
    fs::create_dir_all(root.join("crates/simlint")).unwrap();
    fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    root
}

fn write_file(root: &Path, rel: &str, contents: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, contents).unwrap();
}

fn rules_of<'a>(findings: &'a [simlint::Finding], rule: &str) -> Vec<&'a simlint::Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn over_budget_and_stale_baseline_both_fire() {
    let root = mini_workspace("budget_two_sided");
    // hwsim has budget 1 but two calls -> over budget.
    // traces has budget 3 but zero calls -> stale baseline.
    write_file(
        &root,
        "crates/simlint/unwrap_budget.txt",
        "# comment\nhwsim 1\ntraces 3\n",
    );
    write_file(
        &root,
        "crates/hwsim/src/lib.rs",
        "#![forbid(unsafe_code)]\nfn f() {\n    a.unwrap();\n    b.expect(\"x\");\n}\n",
    );

    let findings = simlint::lint_workspace(&root).unwrap();
    let budget = rules_of(&findings, "unwrap-budget");
    assert_eq!(budget.len(), 2, "findings: {findings:?}");
    assert!(budget
        .iter()
        .any(|f| f.message.contains("`hwsim` has 2") && f.message.contains("budget is 1")));
    assert!(budget
        .iter()
        .any(|f| f.message.contains("stale baseline") && f.message.contains("`traces`")));
}

#[test]
fn matching_budget_is_clean_and_test_code_is_free() {
    let root = mini_workspace("budget_exact");
    write_file(&root, "crates/simlint/unwrap_budget.txt", "hwsim 1\n");
    write_file(
        &root,
        "crates/hwsim/src/lib.rs",
        "#![forbid(unsafe_code)]\nfn f() { a.unwrap(); }\n\
         #[cfg(test)]\nmod tests {\n    fn t() { b.unwrap(); c.unwrap(); }\n}\n",
    );

    let findings = simlint::lint_workspace(&root).unwrap();
    assert!(
        rules_of(&findings, "unwrap-budget").is_empty(),
        "{findings:?}"
    );
}

#[test]
fn missing_forbid_attribute_is_reported_per_crate() {
    let root = mini_workspace("forbid_missing");
    write_file(&root, "crates/simlint/unwrap_budget.txt", "");
    // hwsim declares the attribute, traces and cloudsim do not.
    write_file(
        &root,
        "crates/hwsim/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    );
    write_file(&root, "crates/traces/src/lib.rs", "pub fn g() {}\n");
    write_file(&root, "crates/cloudsim/src/lib.rs", "pub fn h() {}\n");

    let findings = simlint::lint_workspace(&root).unwrap();
    let forbid = rules_of(&findings, "forbid-unsafe");
    assert!(forbid
        .iter()
        .any(|f| f.path == "crates/traces/src/lib.rs" && f.message.contains("`traces`")));
    assert!(!forbid.iter().any(|f| f.message.contains("`hwsim`")));
    // No crate is exempt: cloudsim is held to the attribute too.
    assert!(forbid
        .iter()
        .any(|f| f.path == "crates/cloudsim/src/lib.rs" && f.message.contains("`cloudsim` must")));
}

#[test]
fn forbid_attribute_in_a_comment_does_not_count() {
    let root = mini_workspace("forbid_comment");
    write_file(&root, "crates/simlint/unwrap_budget.txt", "");
    write_file(
        &root,
        "crates/hwsim/src/lib.rs",
        "// #![forbid(unsafe_code)]\npub fn f() {}\n",
    );

    let findings = simlint::lint_workspace(&root).unwrap();
    assert!(rules_of(&findings, "forbid-unsafe")
        .iter()
        .any(|f| f.message.contains("`hwsim`")));
}

#[test]
fn missing_baseline_is_an_environment_error_not_a_finding() {
    let root = mini_workspace("budget_missing");
    write_file(&root, "crates/hwsim/src/lib.rs", "pub fn f() {}\n");
    let err = simlint::lint_workspace(&root).unwrap_err();
    assert!(err.contains("unwrap_budget.txt"), "{err}");
}

#[test]
fn malformed_baseline_line_is_an_error() {
    let root = mini_workspace("budget_malformed");
    write_file(&root, "crates/simlint/unwrap_budget.txt", "hwsim one\n");
    let err = simlint::lint_workspace(&root).unwrap_err();
    assert!(err.contains("not a count"), "{err}");
}

#[test]
fn shims_are_excluded_from_the_walk() {
    let root = mini_workspace("shims_excluded");
    write_file(&root, "crates/simlint/unwrap_budget.txt", "");
    // A shim full of violations must produce no findings at all.
    write_file(
        &root,
        "crates/shims/rand/src/lib.rs",
        "pub fn f() { unsafe { x() }; let t = Instant::now(); }\n",
    );

    let findings = simlint::lint_workspace(&root).unwrap();
    assert!(
        !findings.iter().any(|f| f.path.contains("shims")),
        "{findings:?}"
    );
}

#[test]
fn declares_forbid_unsafe_tolerates_whitespace() {
    assert!(simlint::declares_forbid_unsafe("#![forbid(unsafe_code)]\n"));
    assert!(simlint::declares_forbid_unsafe(
        "#![forbid( unsafe_code )]\n"
    ));
    assert!(!simlint::declares_forbid_unsafe(
        "// #![forbid(unsafe_code)]\n"
    ));
    assert!(!simlint::declares_forbid_unsafe(
        "let s = \"#![forbid(unsafe_code)]\";\n"
    ));
}
