//! `repo-lint` — the workspace's source-level policy gate.
//!
//! A deliberately simple line/token scanner (no `syn`, no parsing): each
//! rule is a textual invariant strong enough to catch the regressions we
//! care about and simple enough that a violation message points at the
//! exact line to fix. The rules:
//!
//! 1. **`safety-comment`** — every `unsafe` block or `unsafe impl` must
//!    be justified by a `// SAFETY:` comment on the same line or in the
//!    comment block immediately above. (`unsafe fn` declarations are
//!    exempt: their obligations are carried by `# Safety` doc sections
//!    and rule 2's `unsafe_op_in_unsafe_fn`, which forces justified
//!    interior blocks. `unsafe trait` contracts live in doc comments.)
//! 2. **`deny-attr`** — `crates/mpc/src/lib.rs` and
//!    `vendor/rayon/src/lib.rs` must keep
//!    `#![deny(unsafe_op_in_unsafe_fn)]`.
//! 3. **`pinned-alloc`** — the zero-allocation-pinned fabric modules
//!    (`crates/mpc/src/router.rs`, `crates/mpc/src/cluster.rs`) must not
//!    use `Vec::new(` / `Box::new(` / `vec![` / `.clone()` outside the
//!    entries of the allowlist file `tools/lint/zero_alloc_allow.txt`
//!    (setup paths and the naive oracle are allowlisted; steady-state
//!    paths are not).
//! 4. **`stale-allow`** — every allowlist entry must still match a line,
//!    so the allowlist shrinks with the code instead of rotting.
//! 5. **`msg-size-assert`** — any file declaring a hot message enum
//!    named exactly `Msg` must keep a `size_of::<Msg>() <= 24` const
//!    assertion (matched with whitespace stripped).
//! 6. **`io-unwrap`** — the recovery-critical modules
//!    (`crates/mpc/src/spill.rs`, `crates/mpc/src/checkpoint.rs`,
//!    `crates/graph/src/outofcore.rs`) must not use `.unwrap(` /
//!    `.expect(` outside the entries of
//!    `tools/lint/io_unwrap_allow.txt`: an I/O failure on these paths is
//!    a *handled fault* (typed `ClusterError` / `Err(String)`), never a
//!    panic. The allowlist carries only infallible conversions (e.g.
//!    fixed-width `try_into().unwrap()` on header slices).
//!
//! Inline `#[cfg(test)]` modules are exempt from rules 3 and 6 (tests
//! may allocate and assert with `unwrap`); rule 1
//! applies there too, matching `clippy::undocumented_unsafe_blocks`
//! which this rule backstops.
//!
//! The scanner walks `crates/` and `vendor/` under the given root;
//! `tools/` is configuration and fixtures, not a lint target.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The allowlist consulted by [`Rule::PinnedAlloc`], relative to the
/// lint root.
pub const ALLOWLIST_PATH: &str = "tools/lint/zero_alloc_allow.txt";

/// The allowlist consulted by [`Rule::IoUnwrap`], relative to the lint
/// root.
pub const IO_ALLOWLIST_PATH: &str = "tools/lint/io_unwrap_allow.txt";

/// Files that must carry `#![deny(unsafe_op_in_unsafe_fn)]`.
const DENY_ATTR_FILES: &[&str] = &["crates/mpc/src/lib.rs", "vendor/rayon/src/lib.rs"];

/// Zero-allocation-pinned modules.
const PINNED_ALLOC_FILES: &[&str] = &["crates/mpc/src/router.rs", "crates/mpc/src/cluster.rs"];

/// Allocation constructs banned in pinned modules.
const BANNED_ALLOC: &[&str] = &["Vec::new(", "Box::new(", "vec![", ".clone()"];

/// Recovery-critical modules: every I/O failure must flow out as a typed
/// error, so panicking result-taps are banned ([`Rule::IoUnwrap`]).
const IO_UNWRAP_FILES: &[&str] = &[
    "crates/mpc/src/spill.rs",
    "crates/mpc/src/checkpoint.rs",
    "crates/graph/src/outofcore.rs",
];

/// Panicking result-taps banned in recovery-critical modules.
const BANNED_IO_UNWRAP: &[&str] = &[".unwrap(", ".expect("];

/// One lint rule; the kebab-case id is what violation output prints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    SafetyComment,
    DenyAttr,
    PinnedAlloc,
    StaleAllow,
    MsgSizeAssert,
    IoUnwrap,
}

impl Rule {
    pub fn id(self) -> &'static str {
        match self {
            Rule::SafetyComment => "safety-comment",
            Rule::DenyAttr => "deny-attr",
            Rule::PinnedAlloc => "pinned-alloc",
            Rule::StaleAllow => "stale-allow",
            Rule::MsgSizeAssert => "msg-size-assert",
            Rule::IoUnwrap => "io-unwrap",
        }
    }
}

/// A single policy violation, pointing at a root-relative file and
/// 1-based line (line 0 = whole-file finding).
#[derive(Debug)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.rule.id(), self.message)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file,
                self.line,
                self.rule.id(),
                self.message
            )
        }
    }
}

/// Lints the tree rooted at `root`, returning every violation found
/// (empty = gate passes). Errors only on I/O failure.
pub fn lint_tree(root: &Path) -> io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    let mut allowlist = load_allowlist(root, ALLOWLIST_PATH)?;
    let mut io_allowlist = load_allowlist(root, IO_ALLOWLIST_PATH)?;

    for rel in collect_rust_files(root)? {
        let text = fs::read_to_string(root.join(&rel))?;
        lint_file(
            &rel,
            &text,
            &mut allowlist,
            &mut io_allowlist,
            &mut violations,
        );
    }

    for required in DENY_ATTR_FILES {
        let path = root.join(required);
        if !path.is_file() {
            continue;
        }
        let text = fs::read_to_string(&path)?;
        if !text.contains("#![deny(unsafe_op_in_unsafe_fn)]") {
            violations.push(Violation {
                file: (*required).into(),
                line: 0,
                rule: Rule::DenyAttr,
                message: "missing `#![deny(unsafe_op_in_unsafe_fn)]`".into(),
            });
        }
    }

    for (list, path) in [
        (&allowlist, ALLOWLIST_PATH),
        (&io_allowlist, IO_ALLOWLIST_PATH),
    ] {
        for (entry, used) in list {
            if !used {
                violations.push(Violation {
                    file: path.into(),
                    line: 0,
                    rule: Rule::StaleAllow,
                    message: format!(
                        "stale allowlist entry (no matching line): `{}: {}`",
                        entry.0, entry.1
                    ),
                });
            }
        }
    }

    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(violations)
}

/// Allowlist entries `(root-relative path, trimmed line content)` mapped
/// to whether a matching line was seen during the scan.
type Allowlist = BTreeMap<(String, String), bool>;

fn load_allowlist(root: &Path, rel_path: &str) -> io::Result<Allowlist> {
    let path = root.join(rel_path);
    let mut entries = BTreeMap::new();
    if !path.is_file() {
        return Ok(entries);
    }
    for line in fs::read_to_string(&path)?.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((file, content)) = line.split_once(": ") else {
            // Malformed entries are themselves stale: they can never match.
            entries.insert((line.to_string(), String::new()), false);
            continue;
        };
        entries.insert((file.trim().to_string(), content.trim().to_string()), false);
    }
    Ok(entries)
}

/// All `.rs` files under `root/crates` and `root/vendor`, root-relative
/// with `/` separators, sorted for deterministic output.
fn collect_rust_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    for top in ["crates", "vendor"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut rel: Vec<String> = files
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| {
            p.components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    rel.sort();
    Ok(rel)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn lint_file(
    rel: &str,
    text: &str,
    allowlist: &mut Allowlist,
    io_allowlist: &mut Allowlist,
    out: &mut Vec<Violation>,
) {
    let lines: Vec<&str> = text.lines().collect();
    // Everything from the first inline `#[cfg(test)]` on is test code
    // (the workspace keeps test modules at end of file); rules 3 and 6
    // stop there, rule 1 keeps going.
    let test_start = lines
        .iter()
        .position(|l| l.trim() == "#[cfg(test)]")
        .unwrap_or(lines.len());

    let alloc_pinned = PINNED_ALLOC_FILES.contains(&rel);
    let io_pinned = IO_UNWRAP_FILES.contains(&rel);

    let mut declares_msg_enum = None;
    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        let trimmed = line.trim();
        let in_tests = i >= test_start;

        check_unsafe_tokens(rel, &lines, i, out);

        if trimmed.starts_with("//") || in_tests {
            continue;
        }

        if alloc_pinned {
            for pat in BANNED_ALLOC {
                if !line.contains(pat) {
                    continue;
                }
                let key = (rel.to_string(), trimmed.to_string());
                if let Some(used) = allowlist.get_mut(&key) {
                    *used = true;
                } else {
                    out.push(Violation {
                        file: rel.into(),
                        line: lineno,
                        rule: Rule::PinnedAlloc,
                        message: format!(
                            "`{pat}` in a zero-allocation-pinned module; move it off the \
                             steady-state path or allowlist the exact line in {ALLOWLIST_PATH}"
                        ),
                    });
                }
                break;
            }
        }

        if io_pinned {
            for pat in BANNED_IO_UNWRAP {
                if !line.contains(pat) {
                    continue;
                }
                let key = (rel.to_string(), trimmed.to_string());
                if let Some(used) = io_allowlist.get_mut(&key) {
                    *used = true;
                } else {
                    out.push(Violation {
                        file: rel.into(),
                        line: lineno,
                        rule: Rule::IoUnwrap,
                        message: format!(
                            "`{pat}` in a recovery-critical module; surface the failure as \
                             a typed error or allowlist the exact line in {IO_ALLOWLIST_PATH}"
                        ),
                    });
                }
                break;
            }
        }

        if declares_msg_enum.is_none()
            && (trimmed.contains("enum Msg {") || trimmed.contains("enum Msg{"))
        {
            declares_msg_enum = Some(lineno);
        }
    }

    if let Some(lineno) = declares_msg_enum {
        let stripped: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        if !stripped.contains("size_of::<Msg>()<=24") {
            out.push(Violation {
                file: rel.into(),
                line: lineno,
                rule: Rule::MsgSizeAssert,
                message: "declares `enum Msg` without a `size_of::<Msg>() <= 24` const \
                          assertion pinning the hot message size"
                    .into(),
            });
        }
    }
}

/// Rule 1: each `unsafe` block/impl on line `i` needs a `// SAFETY:`
/// justification on the same line or in the comment block directly above.
fn check_unsafe_tokens(rel: &str, lines: &[&str], i: usize, out: &mut Vec<Violation>) {
    let line = lines[i];
    let trimmed = line.trim();
    if trimmed.starts_with("//") {
        return;
    }
    // Code portion only: a trailing `// ...` comment cannot introduce an
    // unsafe block (it can carry the justification, checked below).
    let code = match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    };

    let mut search = 0;
    while let Some(pos) = code[search..].find("unsafe") {
        let at = search + pos;
        search = at + "unsafe".len();
        let before = code[..at].chars().next_back();
        let after = code[search..].chars().next();
        if before.is_some_and(|c| c.is_alphanumeric() || c == '_')
            || after.is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            continue; // part of a longer identifier, e.g. `unsafe_op_in_unsafe_fn`
        }
        if inside_string(&code[..at]) {
            continue;
        }
        let next_word: String = code[search..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if next_word == "fn" || next_word == "trait" {
            continue; // declaration obligations live in `# Safety` docs
        }
        if line.contains("SAFETY:") || preceded_by_safety_comment(lines, i) {
            continue;
        }
        out.push(Violation {
            file: rel.into(),
            line: i + 1,
            rule: Rule::SafetyComment,
            message: "`unsafe` without a `// SAFETY:` comment on this line or the comment \
                      block directly above"
                .into(),
        });
        return; // one finding per line is enough
    }
}

/// Whether the comment/attribute block immediately above line `i`
/// contains a `// SAFETY:` line.
fn preceded_by_safety_comment(lines: &[&str], i: usize) -> bool {
    for j in (0..i).rev() {
        let t = lines[j].trim();
        if t.starts_with("// SAFETY:") || t.starts_with("//SAFETY:") {
            return true;
        }
        // Attributes and further comment lines extend the block upward.
        if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#![") {
            continue;
        }
        return false;
    }
    false
}

/// Crude but sufficient: whether `prefix` ends inside a string literal
/// (odd number of unescaped quotes).
fn inside_string(prefix: &str) -> bool {
    let mut open = false;
    let mut chars = prefix.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                chars.next();
            }
            '"' => open = !open,
            _ => {}
        }
    }
    open
}
