//! `bqo-lint`: the workspace's static-analysis pass.
//!
//! Industrial optimizers ship invariant tooling alongside the engine; this
//! crate is that tooling for the BQO reproduction. It walks every workspace
//! `.rs` file with a small hand-rolled lexer (std-only — the build
//! environment has no registry access) and enforces project rules with
//! rustc-style `file:line:col` diagnostics, exiting non-zero on findings so
//! it gates CI (`cargo run -p bqo-lint`) and the tier-1 suite
//! (`tests/tests/lint_clean.rs`).
//!
//! The rules:
//!
//! * **L001** — every `unsafe` site carries a `// SAFETY:` justification and
//!   is inventoried in `UNSAFE_AUDIT.md` (checked both directions, so the
//!   audit file can never drift from the code).
//! * **L002** — no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in
//!   non-test library code of `exec`/`format`/`core`/`storage`; deliberate
//!   exceptions live in `crates/lint/panic_allowlist.txt` with per-entry
//!   reasons (unused entries are themselves findings).
//! * **L003** — every atomic-ordering use (`Ordering::Relaxed` and friends)
//!   in library code carries a `// ORDERING:` justification — a reviewable
//!   poor-man's race audit over the pool/cancel concurrency surface (the
//!   server and the plan cache keep their counters under their locks and
//!   have none).
//! * **L004** — no bare `as` numeric casts in the probe-kernel and format
//!   hot paths without a `// CAST-OK:` marker (lossless conversions should
//!   use `From`/`try_from` instead).
//! * **L005** — every `tests/tests/*.rs` suite is referenced by name in
//!   `.github/workflows/ci.yml`: no silently unrun suites.
//! * **L006** — the lint wall stands: every workspace crate's `lib.rs`
//!   carries `#![deny(unsafe_op_in_unsafe_fn)]` and
//!   `#![warn(missing_debug_implementations)]`, plus `#![warn(missing_docs)]`
//!   on `bqo-bitvector` and `bqo-plan`, and `#![warn(unreachable_pub)]` on
//!   the eight engine crates whose modules are private (`bqo-bitvector`,
//!   `bqo-storage`, `bqo-format`, `bqo-plan`, `bqo-sql`, `bqo-optimizer`,
//!   `bqo-exec`, `bqo-core`), so a `pub` item their `lib.rs` does not
//!   re-export fails clippy `-D warnings`.
//!
//! Justification markers are ordinary comments attached to the flagged line:
//! trailing on the same line, mid-statement on the line directly above, or
//! in the contiguous comment block ending on the previous line.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod source;

use source::{discover_rs_files, is_test_path, rel_path, SourceFile};
use std::fmt;
use std::path::{Path, PathBuf};

/// Identifies which rule produced a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `unsafe` sites need `// SAFETY:` comments and an `UNSAFE_AUDIT.md`
    /// entry.
    L001,
    /// Panic-freedom in the `exec`/`format`/`core`/`storage` library code.
    L002,
    /// Atomic orderings need `// ORDERING:` justifications.
    L003,
    /// Bare `as` numeric casts in hot paths need `// CAST-OK:` markers.
    L004,
    /// Every integration-test suite must be referenced in the CI workflow.
    L005,
    /// The strict lint wall must be present in every crate root.
    L006,
    /// The file could not be lexed (unterminated literal or comment).
    Lex,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::Lex => write!(f, "lex"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// One finding, pointing at a workspace-relative `path:line:col`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line (1 for file-level findings).
    pub line: usize,
    /// 1-based column (1 for file/line-level findings).
    pub col: usize,
    /// What is wrong and how to fix it.
    pub message: String,
    /// Optional extra context lines (rendered as `note:`s).
    pub notes: Vec<String>,
}

impl Diagnostic {
    fn new(rule: Rule, path: &str, line: usize, col: usize, message: String) -> Self {
        Diagnostic {
            rule,
            path: path.to_string(),
            line,
            col,
            message,
            notes: Vec::new(),
        }
    }

    fn with_note(mut self, note: String) -> Self {
        self.notes.push(note);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule, self.message)?;
        write!(f, "  --> {}:{}:{}", self.path, self.line, self.col)?;
        for note in &self.notes {
            write!(f, "\n  note: {note}")?;
        }
        Ok(())
    }
}

/// What the engine lints and where the project's rule inputs live. All paths
/// are workspace-relative; [`Config::workspace`] builds the project's
/// canonical configuration, and fixture tests build scoped ones.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (everything else is relative to it).
    pub root: PathBuf,
    /// The `UNSAFE_AUDIT.md` inventory checked by L001.
    pub audit_file: String,
    /// The L002 allowlist file.
    pub allowlist_file: String,
    /// Directory prefixes whose non-test code must be panic-free (L002).
    pub panic_free_prefixes: Vec<String>,
    /// Files whose bare `as` numeric casts need `// CAST-OK:` (L004).
    pub cast_audited_files: Vec<String>,
    /// The CI workflow every test suite must be referenced in (L005).
    pub ci_file: String,
    /// Directory holding the integration-test suites (L005).
    pub suites_dir: String,
    /// Crate roots that must carry the lint wall (L006): `(lib.rs path,
    /// required inner attributes)`.
    pub wall: Vec<(String, Vec<&'static str>)>,
    /// Path prefixes excluded from marker rules entirely (vendored shims:
    /// they model external crates.io APIs, not project code).
    pub vendored_prefixes: Vec<String>,
}

/// The two attributes every workspace crate root must carry.
pub const WALL_BASE: [&str; 2] = [
    "#![deny(unsafe_op_in_unsafe_fn)]",
    "#![warn(missing_debug_implementations)]",
];

/// The additional attribute required on the fully-documented crates.
pub const WALL_DOCS: &str = "#![warn(missing_docs)]";

/// The additional attribute required on the engine crates whose modules are
/// private: their `lib.rs` re-export list is their whole public surface.
pub const WALL_SURFACE: &str = "#![warn(unreachable_pub)]";

impl Config {
    /// The project's canonical configuration rooted at `root`.
    pub fn workspace(root: impl Into<PathBuf>) -> Config {
        // Each crate root's attributes beyond `WALL_BASE`.
        let extra: [(&str, &[&'static str]); 12] = [
            ("crates/bitvector/src/lib.rs", &[WALL_DOCS, WALL_SURFACE]),
            ("crates/plan/src/lib.rs", &[WALL_DOCS, WALL_SURFACE]),
            ("crates/storage/src/lib.rs", &[WALL_SURFACE]),
            ("crates/format/src/lib.rs", &[WALL_SURFACE]),
            ("crates/sql/src/lib.rs", &[WALL_SURFACE]),
            ("crates/optimizer/src/lib.rs", &[WALL_SURFACE]),
            ("crates/exec/src/lib.rs", &[WALL_SURFACE]),
            ("crates/workloads/src/lib.rs", &[]),
            ("crates/core/src/lib.rs", &[WALL_SURFACE]),
            ("crates/bench/src/lib.rs", &[]),
            ("crates/lint/src/lib.rs", &[]),
            ("tests/src/lib.rs", &[]),
        ];
        let wall = extra
            .into_iter()
            .map(|(path, attrs)| {
                let attrs = WALL_BASE.iter().chain(attrs).copied().collect();
                (path.to_string(), attrs)
            })
            .collect();
        Config {
            root: root.into(),
            audit_file: "UNSAFE_AUDIT.md".to_string(),
            allowlist_file: "crates/lint/panic_allowlist.txt".to_string(),
            panic_free_prefixes: vec![
                "crates/exec/src/".to_string(),
                "crates/format/src/".to_string(),
                "crates/core/src/".to_string(),
                "crates/storage/src/".to_string(),
            ],
            cast_audited_files: vec![
                "crates/exec/src/join_table.rs".to_string(),
                "crates/exec/src/kernels.rs".to_string(),
                "crates/bitvector/src/bitmap.rs".to_string(),
                "crates/bitvector/src/blocked.rs".to_string(),
                "crates/bitvector/src/bloom.rs".to_string(),
                "crates/bitvector/src/hash.rs".to_string(),
                "crates/bitvector/src/key_index.rs".to_string(),
                "crates/format/src/codec.rs".to_string(),
                "crates/format/src/reader.rs".to_string(),
                "crates/format/src/writer.rs".to_string(),
                "crates/format/src/xxhash.rs".to_string(),
            ],
            ci_file: ".github/workflows/ci.yml".to_string(),
            suites_dir: "tests/tests".to_string(),
            wall,
            vendored_prefixes: vec!["crates/shims/".to_string()],
        }
    }

    fn is_vendored(&self, rel: &str) -> bool {
        self.vendored_prefixes.iter().any(|p| rel.starts_with(p))
    }
}

/// Runs every rule over the workspace described by `config` and returns the
/// findings, sorted by path and position.
pub fn run(config: &Config) -> std::io::Result<Vec<Diagnostic>> {
    let mut diagnostics = Vec::new();
    let mut files = Vec::new();
    for path in discover_rs_files(&config.root)? {
        let rel = rel_path(&config.root, &path);
        if config.is_vendored(&rel) {
            continue;
        }
        let source = std::fs::read_to_string(&path)?;
        match SourceFile::parse(rel.clone(), &source, is_test_path(&rel)) {
            Ok(file) => files.push(file),
            Err(e) => diagnostics.push(Diagnostic::new(Rule::Lex, &rel, e.line, e.col, e.message)),
        }
    }
    diagnostics.extend(rules::safety::check(config, &files)?);
    diagnostics.extend(rules::panics::check(config, &files)?);
    diagnostics.extend(rules::atomics::check(&files));
    diagnostics.extend(rules::casts::check(config, &files));
    diagnostics.extend(rules::ci_coverage::check(config)?);
    diagnostics.extend(rules::wall::check(config, &files));
    diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    Ok(diagnostics)
}

/// Locates the workspace root: an explicit argument wins, then the manifest
/// directory's grandparent (`crates/lint` → workspace), then the current
/// directory. Verified by the presence of the root `Cargo.toml`.
pub fn find_workspace_root(explicit: Option<&Path>) -> Option<PathBuf> {
    let mut candidates: Vec<PathBuf> = Vec::new();
    if let Some(path) = explicit {
        candidates.push(path.to_path_buf());
    }
    if let Some(manifest_dir) = std::env::var_os("CARGO_MANIFEST_DIR") {
        let manifest_dir = PathBuf::from(manifest_dir);
        if let Some(root) = manifest_dir.ancestors().nth(2) {
            candidates.push(root.to_path_buf());
        }
    }
    if let Ok(cwd) = std::env::current_dir() {
        candidates.push(cwd);
    }
    candidates
        .into_iter()
        .find(|dir| dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir())
}
