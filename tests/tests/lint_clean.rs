//! Tier-1 guard: every project rule holds, so `cargo test` refuses what CI
//! refuses. [`clippy_is_clean`] runs CI's clippy command, which carries two
//! rules: the lint wall (L006) is the root `Cargo.toml`'s `[workspace.lints]`,
//! and panic-freedom (L002) is clippy's panic lints, denied outside tests in
//! the roots of `bqo-exec`, `bqo-format`, `bqo-core` and `bqo-storage`; a
//! deliberate panic carries an `#[expect(clippy::…, reason = "…")]`.
//!
//! The rest are line scanners over every `.rs` file outside `target/`,
//! `.git/`, the vendored shims and this file (whose cases are seeded
//! violations). **L001**: every `unsafe` line carries `// SAFETY:`, and the
//! sites are exactly `UNSAFE_AUDIT.md`'s `path:line` entries. **L003**: every
//! atomic `Ordering::…` line carries `// ORDERING:`. **L004**: every numeric
//! `as` cast in the audited files carries `// CAST-OK:`. **L005**: `ci.yml`
//! runs every suite: it keeps an unfiltered `cargo test … --workspace` run
//! line, and `tests/Cargo.toml` leaves suite discovery on. **L006**: every
//! non-shim member opts into the workspace lints, and the attributes a table
//! cannot carry stay in their crate roots. A marker counts in a `//` comment
//! on the line or in the comment block above it, blank lines included. L003 and L004 skip test
//! code: `tests/` and `examples/` files, and the `#[cfg(test)] mod tests`
//! that must end any other file.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

const SELF: &str = "tests/tests/lint_clean.rs";
const SHIMS: &str = "crates/shims/";
/// The hot-path files whose numeric casts L004 audits: `(directory, stems)`.
const CAST_AUDITED: [(&str, &[&str]); 3] = [
    ("crates/exec/src/", &["join_table", "kernels"]),
    (
        "crates/bitvector/src/",
        &["bitmap", "blocked", "bloom", "hash", "key_index"],
    ),
    (
        "crates/format/src/",
        &["codec", "reader", "writer", "xxhash"],
    ),
];
const NUMERIC: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];
/// `std::sync::atomic::Ordering`'s variants (`cmp::Ordering`'s never match).
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
/// The root `Cargo.toml`'s `[workspace.lints]` entries.
const WALL: [&str; 6] = [
    "unsafe_op_in_unsafe_fn = \"deny\"",
    "missing_debug_implementations = \"warn\"",
    "unreachable_pub = \"warn\"",
    "unfulfilled_lint_expectations = \"deny\"",
    "undocumented_unsafe_blocks = \"deny\"",
    "allow_attributes = \"deny\"",
];
const PANIC_FREE: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, \
    clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]";
/// Crate-root attributes that a crate on workspace lints keeps in its root.
const ROOT_ATTRS: [(&str, &str); 6] = [
    ("crates/bitvector/src/lib.rs", "#![warn(missing_docs)]"),
    ("crates/plan/src/lib.rs", "#![warn(missing_docs)]"),
    ("crates/exec/src/lib.rs", PANIC_FREE),
    ("crates/format/src/lib.rs", PANIC_FREE),
    ("crates/core/src/lib.rs", PANIC_FREE),
    ("crates/storage/src/lib.rs", PANIC_FREE),
];

/// A line's code and its `//` comment, split at the first `//`.
fn split(line: &str) -> (&str, &str) {
    line.split_at(line.find("//").unwrap_or(line.len()))
}

/// Whether `marker` is attached to line `i` (0-based) of `lines`: on the
/// line itself, or in the comment block above it, which a code line ends.
fn has_marker(lines: &[&str], i: usize, marker: &str) -> bool {
    let block = lines[..i].iter().rev().map(|line| split(line));
    let mut block = block.take_while(|(code, _)| code.trim().is_empty());
    split(lines[i]).1.contains(marker) || block.any(|(_, comment)| comment.contains(marker))
}

/// The 0-based line where a file's test code starts (its length if none).
fn test_start(path: &str, lines: &[&str]) -> Result<usize, String> {
    let test_dir = |dir: &str| path.starts_with(dir) || path.contains(&format!("/{dir}"));
    if test_dir("tests/") || test_dir("examples/") {
        return Ok(0);
    }
    let Some(at) = lines.iter().position(|l| l.trim() == "#[cfg(test)]") else {
        return Ok(lines.len());
    };
    let module = &lines[at + 1..];
    let end = module.iter().rposition(|l| !l.trim().is_empty());
    let opens = module.first().is_some_and(|l| l.ends_with("mod tests {"));
    if opens && module.iter().position(|l| *l == "}") == end {
        return Ok(at);
    }
    let refusal = "`#[cfg(test)]` opens no final `mod tests`";
    Err(format!("{path}:{}: {refusal}", at + 1))
}

/// L001's markers, L003 and L004 over one file: its findings and `unsafe` lines.
fn scan(path: &str, text: &str) -> (Vec<String>, Vec<usize>) {
    let (mut findings, mut unsafe_lines) = (Vec::new(), Vec::new());
    if path.starts_with(SHIMS) {
        return (findings, unsafe_lines);
    }
    let lines: Vec<&str> = text.lines().collect();
    let test_from = test_start(path, &lines).unwrap_or_else(|e| {
        findings.push(e);
        lines.len()
    });
    let not_ident = |c: char| !(c.is_alphanumeric() || c == '_');
    let in_dir =
        |(dir, stems): &(&str, &[&str])| stems.iter().any(|s| path == format!("{dir}{s}.rs"));
    let cast_audited = CAST_AUDITED.iter().any(in_dir);
    for (i, line) in lines.iter().enumerate() {
        let code = split(line).0;
        let words: Vec<&str> = code.split(not_ident).filter(|w| !w.is_empty()).collect();
        let pair = |a: &str, bs: &[&str]| words.windows(2).any(|w| w[0] == a && bs.contains(&w[1]));
        let unsafe_site = words.contains(&"unsafe");
        if unsafe_site {
            unsafe_lines.push(i + 1);
        }
        let ordering = i < test_from && pair("Ordering", &ORDERINGS);
        let cast = i < test_from && cast_audited && pair("as", &NUMERIC);
        for (flagged, rule, marker) in [
            (unsafe_site, "L001", "SAFETY:"),
            (ordering, "L003", "ORDERING:"),
            (cast, "L004", "CAST-OK:"),
        ] {
            if flagged && !has_marker(&lines, i, marker) {
                findings.push(format!("{path}:{}: {rule} needs `// {marker}`", i + 1));
            }
        }
    }
    (findings, unsafe_lines)
}

/// L001's inventory: the `unsafe` sites (`path:line`) against the audit's entries.
fn audit(sites: &BTreeSet<String>, audit: &str) -> Vec<String> {
    let is_site = |(p, l): (&str, &str)| p.ends_with(".rs") && l.parse::<usize>().is_ok();
    let mut listed = BTreeSet::new();
    for line in audit.lines() {
        let codes = line.split('`').skip(1).step_by(2);
        listed.extend(codes.filter(|c| c.rsplit_once(':').is_some_and(is_site)));
    }
    let sites: BTreeSet<&str> = sites.iter().map(String::as_str).collect();
    let unlisted = sites.difference(&listed).map(|s| (s, "unlisted"));
    let stale = listed.difference(&sites).map(|s| (s, "stale"));
    unlisted
        .chain(stale)
        .map(|(s, what)| format!("{s}: L001 {what}"))
        .collect()
}

/// Flags that narrow a `cargo test` run to fewer suites or tests.
const NARROWING: &str = "--test --lib --bin --bins --example --doc --exclude -p --package --";

/// L005: `ci` has a `run: cargo test` line over the whole workspace with no
/// narrowing flag or filter, and `tests` (the suites' manifest) does not
/// turn off Cargo's discovery of `tests/tests/*.rs`.
fn suites_unrun(ci: &str, tests: &str) -> Vec<String> {
    let unfiltered = |line: &str| {
        let words: Vec<&str> = line.split_whitespace().collect();
        let flags = words.get(3..).unwrap_or_default();
        words.starts_with(&["run:", "cargo", "test"])
            && flags.contains(&"--workspace")
            && flags
                .iter()
                .all(|w| w.starts_with('-') && !NARROWING.split(' ').any(|n| n == *w))
    };
    let mut findings = Vec::new();
    if !ci.lines().any(unfiltered) {
        findings.push("ci.yml: L005 lacks an unfiltered `cargo test --workspace` run".into());
    }
    let squash = |l: &str| l.split_whitespace().collect::<String>();
    if tests.lines().any(|l| squash(l) == "autotests=false") {
        findings.push("tests/Cargo.toml: L005 sets `autotests = false`".into());
    }
    findings
}

/// L006: the workspace table, each member's opt-in and the crate-root attributes.
fn wall(read: &dyn Fn(&str) -> String) -> Vec<String> {
    let manifest = read("Cargo.toml");
    let mut findings = Vec::new();
    for entry in WALL.iter().filter(|entry| !manifest.contains(*entry)) {
        findings.push(format!("Cargo.toml: L006 lacks {entry}"));
    }
    let (_, members) = manifest.split_once("members = [\n").unwrap_or_default();
    for member in members.lines().take_while(|l| *l != "]") {
        let member = member.trim().trim_matches([',', '"']);
        let opted_in = read(&format!("{member}/Cargo.toml")).contains("[lints]\nworkspace = true");
        if !member.starts_with(SHIMS) && !opted_in {
            findings.push(format!("{member}: L006 lacks `[lints] workspace = true`"));
        }
    }
    let squash = |s: &str| s.split_whitespace().collect::<String>();
    for (root, attr) in ROOT_ATTRS {
        if !squash(&read(root)).contains(&squash(attr)) {
            findings.push(format!("{root}: L006 lacks `{attr}`"));
        }
    }
    findings
}

/// Every `.rs` file under `dir`, outside `target/` and `.git/`, relative to the root.
fn rust_files(dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("a readable directory") {
        let path = entry.expect("a readable entry").path();
        if path.is_dir() && !path.ends_with("target") && !path.ends_with(".git") {
            rust_files(&path, out);
        } else if let Ok(rel) = path.strip_prefix(repo_root()) {
            let rel = rel.to_string_lossy().replace('\\', "/");
            out.extend(rel.ends_with(".rs").then_some(rel));
        }
    }
}

fn repo_root() -> &'static Path {
    let tests_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    tests_dir.parent().expect("tests/ sits in the root")
}

fn read(path: impl AsRef<Path>) -> String {
    std::fs::read_to_string(repo_root().join(path)).unwrap_or_default()
}

#[test]
fn clippy_is_clean() {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-clean");
    let output = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", target)
        .args("clippy --offline --workspace --all-targets -- -D warnings".split(' '))
        .output()
        .expect("cargo runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "clippy failed:\n{stderr}");
}

#[test]
fn workspace_is_lint_clean() {
    let mut files = Vec::new();
    rust_files(repo_root(), &mut files);
    let (mut findings, mut sites) = (Vec::new(), BTreeSet::new());
    for file in files.iter().filter(|file| *file != SELF) {
        let (found, unsafe_lines) = scan(file, &read(file));
        findings.extend(found);
        sites.extend(unsafe_lines.iter().map(|line| format!("{file}:{line}")));
    }
    findings.extend(audit(&sites, &read("UNSAFE_AUDIT.md")));
    let ci = read(".github/workflows/ci.yml");
    findings.extend(suites_unrun(&ci, &read("tests/Cargo.toml")));
    findings.extend(wall(&|path| read(path)));
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}

/// `scan`'s findings, each cut to its `path:line: rule` head.
fn heads(path: &str, text: &str) -> Vec<String> {
    let head = |f: &String| f.split(' ').take(2).collect::<Vec<_>>().join(" ");
    scan(path, text).0.iter().map(head).collect()
}

#[test]
fn each_scanner_flags_its_seeded_violation() {
    let text = "unsafe { f() }\nx.load(Ordering::Relaxed);\nlet y = x as u32;\n";
    let path = "crates/exec/src/kernels.rs";
    let expected = ["1: L001", "2: L003", "3: L004"].map(|head| format!("{path}:{head}"));
    assert_eq!(heads(path, text), expected);
    // Casts are audited in the listed files only.
    assert_eq!(heads("a.rs", text), ["a.rs:1: L001", "a.rs:2: L003"]);

    let (ci, tests) = ("  run: cargo test -q --workspace\n", "[lib]\n");
    assert!(suites_unrun(ci, tests).is_empty());
    let unrun = "ci.yml: L005 lacks an unfiltered `cargo test --workspace` run";
    for narrowed in [
        "# run: cargo test -q --workspace",
        "run: cargo test -q",
        "run: cargo test -q --workspace --test kept",
        "run: cargo test -q --workspace -p bqo-core",
        "run: cargo test -q --workspace kept",
        "run: cargo test -q --workspace -- --skip kept",
    ] {
        assert_eq!(suites_unrun(narrowed, tests), [unrun], "{narrowed}");
    }
    let off = "tests/Cargo.toml: L005 sets `autotests = false`";
    assert_eq!(suites_unrun(ci, "[package]\nautotests = false\n"), [off]);

    let members = "members = [\n  \"crates/a\",\n  \"crates/shims/b\",\n]\n";
    let read = |lints: &'static str| {
        move |path: &str| match path {
            "Cargo.toml" => format!("{members}{}", WALL.join("\n")),
            "crates/a/Cargo.toml" => lints.to_string(),
            _ => ROOT_ATTRS.map(|(_, attr)| attr).concat(),
        }
    };
    assert!(wall(&read("[lints]\nworkspace = true\n")).is_empty());
    let expected = "crates/a: L006 lacks `[lints] workspace = true`";
    assert_eq!(wall(&read("[lints]\n")), [expected]);
}

#[test]
fn audit_entries_and_sites_match_both_ways() {
    let sites = BTreeSet::from(["a.rs:3".to_string(), "a.rs:9".to_string()]);
    let found = audit(&sites, "| `a.rs:3` | ok |\n| `b.rs:4` | `not:a site` |\n");
    assert_eq!(found, ["a.rs:9: L001 unlisted", "b.rs:4: L001 stale"]);
}

#[test]
fn test_code_and_shims_are_exempt() {
    let tests_mod = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { Ordering::SeqCst }\n}\n";
    assert!(heads("a.rs", tests_mod).is_empty());
    assert!(heads("x/tests/t.rs", "Ordering::SeqCst").is_empty());
    assert!(heads("crates/shims/a.rs", "unsafe {}").is_empty());
    // A `#[cfg(test)]` module that does not end the file is refused, not exempt.
    let found = heads("a.rs", &format!("{tests_mod}fn h() {{}}\n"));
    assert_eq!(found, ["a.rs:2: `#[cfg(test)]`", "a.rs:4: L003"]);
}

#[test]
fn markers_attach_through_comment_blocks_only() {
    let text = "// SAFETY: the latch outlives the job,\n\n// which the pool joins.\n\
                unsafe { f() }\nunsafe { g() } // SAFETY: trailing\nunsafe { h() }\n\
                let i = cursor\n    // ORDERING: an index only.\n    .fetch_add(1, Ordering::Relaxed);\n";
    let (found, sites) = scan("a.rs", text);
    assert_eq!(found, ["a.rs:6: L001 needs `// SAFETY:`"]);
    assert_eq!(sites, [4, 5, 6]);
}
