//! `bqo-lint` CLI: lints the workspace and exits non-zero on findings.
//!
//! Usage: `cargo run -p bqo-lint [-- <workspace-root>]`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let explicit: Option<PathBuf> = std::env::args_os().nth(1).map(PathBuf::from);
    let Some(root) = bqo_lint::find_workspace_root(explicit.as_deref()) else {
        eprintln!("bqo-lint: could not locate the workspace root (pass it as an argument)");
        return ExitCode::FAILURE;
    };
    let config = bqo_lint::Config::workspace(&root);
    match bqo_lint::run(&config) {
        Ok(diagnostics) if diagnostics.is_empty() => {
            println!("bqo-lint: workspace clean ({})", root.display());
            ExitCode::SUCCESS
        }
        Ok(diagnostics) => {
            for d in &diagnostics {
                eprintln!("{d}\n");
            }
            eprintln!("bqo-lint: {} finding(s)", diagnostics.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bqo-lint: i/o error while linting: {e}");
            ExitCode::FAILURE
        }
    }
}
