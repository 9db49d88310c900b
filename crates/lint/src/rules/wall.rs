//! **L006** — the strict lint wall stands. Every workspace crate root must
//! carry the wall's inner attributes, and every crate root must be covered
//! by the wall configuration (so a new crate can't dodge it by omission).

use crate::source::SourceFile;
use crate::{Config, Diagnostic, Rule};

/// Runs the rule over the parsed workspace.
pub fn check(config: &Config, files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    for (lib_path, attrs) in &config.wall {
        let Some(file) = files.iter().find(|f| &f.rel_path == lib_path) else {
            diagnostics.push(Diagnostic::new(
                Rule::L006,
                lib_path,
                1,
                1,
                "crate root named in the lint-wall config does not exist".to_string(),
            ));
            continue;
        };
        for attr in attrs {
            if !file.lines.iter().any(|l| l.trim() == *attr) {
                diagnostics.push(Diagnostic::new(
                    Rule::L006,
                    lib_path,
                    1,
                    1,
                    format!("crate root is missing the lint-wall attribute `{attr}`"),
                ));
            }
        }
    }

    // Coverage check: any crate root not named in the wall config is a
    // finding — new crates must opt in to the wall explicitly.
    for file in files {
        let is_crate_root = file.rel_path.ends_with("/src/lib.rs");
        if !is_crate_root {
            continue;
        }
        if !config.wall.iter().any(|(p, _)| p == &file.rel_path) {
            diagnostics.push(Diagnostic::new(
                Rule::L006,
                &file.rel_path,
                1,
                1,
                "crate root is not covered by the lint-wall configuration; add it to \
                 `Config::workspace`"
                    .to_string(),
            ));
        }
    }
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{WALL_BASE, WALL_DOCS, WALL_SURFACE};

    /// The seven engine crates whose `lib.rs` is their whole surface.
    const SURFACE_ROOTS: [&str; 7] = [
        "crates/bitvector/src/lib.rs",
        "crates/storage/src/lib.rs",
        "crates/format/src/lib.rs",
        "crates/plan/src/lib.rs",
        "crates/optimizer/src/lib.rs",
        "crates/exec/src/lib.rs",
        "crates/core/src/lib.rs",
    ];

    /// The L006 findings `check` reports for one crate root with `attrs`.
    fn findings_for(root: &str, attrs: &[&str]) -> Vec<Diagnostic> {
        let config = Config::workspace(".");
        let file = SourceFile::parse(root.to_string(), &attrs.join("\n"), false).unwrap();
        let findings = check(&config, &[file]);
        findings.into_iter().filter(|d| d.path == root).collect()
    }

    #[test]
    fn a_surface_crate_root_without_unreachable_pub_is_a_finding() {
        for root in SURFACE_ROOTS {
            let walled: Vec<&str> = WALL_BASE.iter().copied().chain([WALL_DOCS]).collect();
            let findings = findings_for(root, &walled);
            assert_eq!(findings.len(), 1, "{root}: {findings:?}");
            assert!(findings[0].message.contains(WALL_SURFACE), "{root}");
            let complete: Vec<&str> = walled.iter().copied().chain([WALL_SURFACE]).collect();
            assert!(findings_for(root, &complete).is_empty(), "{root}");
        }
        // A crate whose modules stay public is not asked for it.
        assert!(findings_for("crates/workloads/src/lib.rs", &WALL_BASE).is_empty());
    }
}
