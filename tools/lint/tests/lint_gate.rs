//! The lint gate's own gate: every violation class fires on its fixture
//! tree, and the real repository tree is clean.

use repo_lint::{lint_tree, Rule, Violation};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // tools/lint -> tools -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("tools/lint sits two levels under the repo root")
        .to_path_buf()
}

fn lint_fixture(name: &str) -> Vec<Violation> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    lint_tree(&root).expect("fixture tree must scan cleanly")
}

/// Asserts the fixture yields at least one violation of `rule` (so the
/// binary exits non-zero on it) and names the expected file.
fn assert_fires(name: &str, rule: Rule, file: &str) -> Vec<Violation> {
    let violations = lint_fixture(name);
    assert!(
        violations.iter().any(|v| v.rule == rule && v.file == file),
        "fixture {name:?} must trip {:?} in {file}; got: {violations:?}",
        rule.id(),
    );
    violations
}

#[test]
fn real_tree_is_clean() {
    let violations = lint_tree(&repo_root()).expect("repo tree must scan cleanly");
    assert!(
        violations.is_empty(),
        "the repository must pass its own lint gate:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn missing_safety_comment_fires() {
    let violations = assert_fires(
        "missing_safety",
        Rule::SafetyComment,
        "crates/fix/src/lib.rs",
    );
    // The unjustified block and the unjustified `unsafe impl` are both
    // flagged; the justified block is not.
    let lines: Vec<usize> = violations
        .iter()
        .filter(|v| v.rule == Rule::SafetyComment)
        .map(|v| v.line)
        .collect();
    assert_eq!(lines, vec![4, 9], "exactly the two unjustified sites");
}

#[test]
fn missing_deny_attr_fires() {
    assert_fires("missing_deny", Rule::DenyAttr, "crates/mpc/src/lib.rs");
}

#[test]
fn std_sync_import_fires() {
    assert_fires("std_sync", Rule::SyncFacade, "vendor/rayon/src/pool.rs");
}

#[test]
fn pinned_allocation_fires() {
    let violations = assert_fires(
        "pinned_alloc",
        Rule::PinnedAlloc,
        "crates/mpc/src/router.rs",
    );
    let count = violations
        .iter()
        .filter(|v| v.rule == Rule::PinnedAlloc)
        .count();
    // `Vec::new(`, `.clone()`, and `vec![` each fire once; the test
    // module's allocations are exempt.
    assert_eq!(count, 3, "got: {violations:?}");
}

#[test]
fn std_sync_in_pipeline_fires() {
    // The pipelined scheduler is sync-facade-pinned exactly like the
    // pool: a direct `std::sync` atomic would dodge the loom build.
    assert_fires(
        "std_sync_pipeline",
        Rule::SyncFacade,
        "crates/mpc/src/pipeline.rs",
    );
}

#[test]
fn pinned_allocation_in_pipeline_fires() {
    let violations = assert_fires(
        "pinned_alloc_pipeline",
        Rule::PinnedAlloc,
        "crates/mpc/src/pipeline.rs",
    );
    let count = violations
        .iter()
        .filter(|v| v.rule == Rule::PinnedAlloc)
        .count();
    // `Vec::new(` and `.clone()` each fire once; the test module's
    // allocations are exempt.
    assert_eq!(count, 2, "got: {violations:?}");
}

#[test]
fn stale_allowlist_entry_fires() {
    assert_fires("stale_allow", Rule::StaleAllow, repo_lint::ALLOWLIST_PATH);
}

#[test]
fn io_unwrap_fires_with_exact_line_allowlist() {
    let violations = assert_fires("io_unwrap", Rule::IoUnwrap, "crates/mpc/src/spill.rs");
    let lines: Vec<usize> = violations
        .iter()
        .filter(|v| v.rule == Rule::IoUnwrap)
        .map(|v| v.line)
        .collect();
    // The `.unwrap()` and `.expect(` on I/O results fire; the
    // allowlisted infallible conversion and the test module are exempt —
    // and the allowlist entry is in use, so `stale-allow` stays quiet.
    assert_eq!(lines, vec![8, 9], "got: {violations:?}");
    assert!(
        violations.iter().all(|v| v.rule != Rule::StaleAllow),
        "the consumed allowlist entry must not be reported stale: {violations:?}"
    );
}

#[test]
fn missing_msg_size_assert_fires() {
    assert_fires(
        "missing_size_assert",
        Rule::MsgSizeAssert,
        "crates/fix/src/msg.rs",
    );
}
