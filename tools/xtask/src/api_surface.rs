//! Counts each crate's `pub` items — the instrument for "did this change
//! make the public surface smaller?".
//!
//! A *pub item* is a non-test source line whose code (comments and strings
//! blanked, see [`crate::lint::analyze`]) starts with `pub ` once trimmed:
//! functions, types, traits, consts, modules, re-export statements and
//! public fields alike. Restricted visibility (`pub(crate)`, `pub(super)`)
//! does not count, a `pub use a::{b, c};` counts once, and enum variants and
//! trait methods are not lines of their own. Crude, but deterministic, and
//! it moves whenever the surface does.

use crate::lint::{analyze, rust_files};
use std::io;
use std::path::Path;

/// `(package name, pub items)` for the root package and every `crates/*`
/// package under `root`, sorted by name.
pub fn run(root: &Path) -> io::Result<Vec<(String, usize)>> {
    let mut dirs = vec![root.to_path_buf()];
    for entry in std::fs::read_dir(root.join("crates"))? {
        dirs.push(entry?.path());
    }
    let mut rows = Vec::new();
    for dir in dirs {
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else { continue };
        let Some(name) = package_name(&manifest) else { continue };
        let mut items = 0;
        for file in rust_files(&dir.join("src"))? {
            items += count_pub_items(&std::fs::read_to_string(file)?);
        }
        rows.push((name, items));
    }
    rows.sort();
    Ok(rows)
}

/// The `name = "..."` of the manifest's `[package]` table.
fn package_name(manifest: &str) -> Option<String> {
    let package = manifest.split("[package]").nth(1)?;
    let line = package.lines().find(|l| l.trim_start().starts_with("name"))?;
    Some(line.split('"').nth(1)?.to_string())
}

fn count_pub_items(source: &str) -> usize {
    analyze(source)
        .iter()
        .filter(|line| !line.in_test && line.code.trim_start().starts_with("pub "))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_pub_lines_outside_tests_comments_and_restricted_visibility() {
        let source = "pub struct A {\n    pub x: u8,\n    y: u8,\n}\n\
                      /// pub fn in_a_doc() {}\n\
                      pub(crate) fn internal() {}\n\
                      pub use a::{b, c};\n\
                      impl A {\n    pub fn new() -> Self { todo() }\n}\n\
                      #[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
        assert_eq!(count_pub_items(source), 4);
    }

    #[test]
    fn package_name_skips_the_workspace_table() {
        let manifest = "[workspace]\nmembers = []\n\n[package]\nname = \"acq-kcore\"\n";
        assert_eq!(package_name(manifest), Some("acq-kcore".to_string()));
    }
}
