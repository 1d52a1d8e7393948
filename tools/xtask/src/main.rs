//! Workspace task runner:
//!
//! ```text
//! cargo run -p xtask -- lint [workspace-root]
//! cargo run -p xtask -- api-surface [workspace-root]
//! ```
//!
//! `lint` is the conventions pass CI runs alongside the compiler and exits
//! nonzero if any rule fires (see [`lint`] for the rules); `api-surface`
//! prints each crate's `pub` item count (see [`api_surface`]).

mod api_surface;
mod lint;

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let task = args.next().unwrap_or_default();
    let root = args.next().map(PathBuf::from).unwrap_or_else(|| PathBuf::from("."));
    match task.as_str() {
        "lint" => match lint::run(&root) {
            Ok(findings) if findings.is_empty() => {
                println!("xtask lint: clean");
                ExitCode::SUCCESS
            }
            Ok(findings) => {
                for finding in &findings {
                    eprintln!("{finding}");
                }
                eprintln!("xtask lint: {} finding(s)", findings.len());
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("xtask lint: {e}");
                ExitCode::FAILURE
            }
        },
        "api-surface" => match api_surface::run(&root) {
            Ok(rows) => {
                for (name, items) in &rows {
                    println!("{name:<28} {items:>5}");
                }
                let total: usize = rows.iter().map(|(_, items)| items).sum();
                println!("{:<28} {total:>5}", "total");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xtask api-surface: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("usage: cargo run -p xtask -- <lint|api-surface> [workspace-root]");
            ExitCode::FAILURE
        }
    }
}
