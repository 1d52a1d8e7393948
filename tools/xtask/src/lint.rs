//! The conventions the compiler cannot enforce, checked mechanically.
//!
//! Rules:
//!
//! 1. **raw-sync** — the model-checked crates (`acq-core`, `acq-server`,
//!    `acq-durable`) must route every synchronisation primitive through the
//!    `acq-sync` shims; a raw `std::sync::` / `std::thread` reference in
//!    code would be invisible to the model scheduler and silently shrink
//!    the verified surface.
//! 2. **no-panic** — non-test code in the serving crates (`acq-server`,
//!    `acq-durable`) must not `unwrap()`, `expect(..)` or `panic!`: the
//!    server owns long-lived state, so recoverable failures go through
//!    typed errors. A deliberate exception carries a same-line
//!    `// lint: allow(<rule>: <why>)` comment.
//! 3. **safety-comment** — every `unsafe` in first-party crates carries a
//!    `// SAFETY:` comment on the same line or just above it.
//! 4. **doc-pins** — the wire/format constants quoted in
//!    `docs/PROTOCOL.md` and `docs/DURABILITY.md` must match the source
//!    literals they document (protocol version, envelope length, error
//!    code strings, log/snapshot magic bytes).
//! 5. **doc-links** — a Markdown file named in a `//!` / `///` comment of a
//!    first-party source (`crates/`, `tools/`, `src/`, `examples/`, `tests/`)
//!    must exist, at the repository root or under `docs/`: a pointer to a
//!    document that was never written, or was deleted, sends the reader
//!    nowhere.
//!
//! Rules 1–3 are line-oriented over a sanitised view of the source in
//! which comments and string literals are blanked out, so a banned token in
//! a doc example or an error message never fires, and `#[cfg(test)]` blocks
//! are tracked by brace depth and skipped where a rule is non-test only.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose synchronisation must go through the `acq-sync` shims.
const SHIMMED_CRATES: &[&str] = &["crates/acq-core", "crates/acq-server", "crates/acq-durable"];

/// Crates whose non-test code must not panic.
const NO_PANIC_CRATES: &[&str] = &["crates/acq-server", "crates/acq-durable"];

/// Directories whose doc comments may only name Markdown files that exist.
const DOC_LINK_DIRS: &[&str] = &["crates", "tools", "src", "examples", "tests"];

/// One rule violation, printable as `file:line: [rule] message`.
#[derive(Debug)]
pub struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.message)
    }
}

/// Runs every rule against the workspace under `root`.
pub fn run(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for rel in SHIMMED_CRATES {
        for file in rust_files(&root.join(rel).join("src"))? {
            let source = std::fs::read_to_string(&file)?;
            let display = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            check_raw_sync(&display, &source, &mut findings);
            if NO_PANIC_CRATES.iter().any(|c| rel == c) {
                check_no_panic(&display, &source, &mut findings);
            }
        }
    }
    for file in first_party_sources(root)? {
        let source = std::fs::read_to_string(&file)?;
        let display = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        check_safety_comments(&display, &source, &mut findings);
    }
    check_doc_pins(root, &mut findings)?;
    let exists = |name: &str| root.join(name).is_file() || root.join("docs").join(name).is_file();
    for dir in DOC_LINK_DIRS.iter().map(|dir| root.join(dir)).filter(|dir| dir.is_dir()) {
        for file in rust_files(&dir)? {
            let source = std::fs::read_to_string(&file)?;
            let display = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            check_doc_links(&display, &source, exists, &mut findings);
        }
    }
    Ok(findings)
}

/// All `.rs` files under every `crates/*/src` and `tools/*/src`.
fn first_party_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for parent in ["crates", "tools"] {
        let dir = root.join(parent);
        if !dir.is_dir() {
            continue;
        }
        for entry in std::fs::read_dir(&dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                files.extend(rust_files(&src)?);
            }
        }
    }
    Ok(files)
}

/// Recursively collects `.rs` files, sorted for deterministic output.
pub(crate) fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// One source line paired with its sanitised form (comments and string
/// literals blanked) and whether it sits inside a `#[cfg(test)]` block.
pub(crate) struct Line<'a> {
    number: usize,
    raw: &'a str,
    pub(crate) code: String,
    pub(crate) in_test: bool,
}

/// Lexer state carried across lines while sanitising.
enum State {
    Normal,
    Block(u32),
    Str,
    RawStr(u32),
}

/// Produces the sanitised, test-annotated view every rule scans.
pub(crate) fn analyze(source: &str) -> Vec<Line<'_>> {
    let mut lines = Vec::new();
    let mut state = State::Normal;
    // `#[cfg(test)]` region tracking: armed once the attribute is seen,
    // active from its first `{` until braces balance again.
    let mut test_armed = false;
    let mut test_depth = 0usize;
    let mut test_active = false;
    for (idx, raw) in source.lines().enumerate() {
        let code = sanitize_line(raw, &mut state);
        let mut in_test = test_active;
        if !test_active && code.contains("#[cfg(test)]") {
            test_armed = true;
            in_test = true;
        }
        if test_armed || test_active {
            for ch in code.chars() {
                match ch {
                    '{' => {
                        test_depth += 1;
                        test_armed = false;
                        test_active = true;
                        in_test = true;
                    }
                    '}' if test_active => {
                        test_depth = test_depth.saturating_sub(1);
                        if test_depth == 0 {
                            test_active = false;
                        }
                    }
                    _ => {}
                }
            }
        }
        lines.push(Line { number: idx + 1, raw, code, in_test });
    }
    lines
}

/// Blanks comments and string/char literals from one line, carrying
/// multi-line state (block comments, multi-line strings) in `state`.
fn sanitize_line(raw: &str, state: &mut State) -> String {
    let mut out = String::with_capacity(raw.len());
    let bytes = raw.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match state {
            State::Block(depth) => {
                if bytes[i..].starts_with(b"*/") {
                    *depth -= 1;
                    i += 2;
                    if *depth == 0 {
                        *state = State::Normal;
                    }
                } else if bytes[i..].starts_with(b"/*") {
                    *depth += 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            State::Str => {
                if bytes[i] == b'\\' {
                    i += 2;
                } else if bytes[i] == b'"' {
                    *state = State::Normal;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                let terminator_len = 1 + *hashes as usize;
                if bytes[i] == b'"'
                    && bytes[i + 1..].iter().take(*hashes as usize).all(|&b| b == b'#')
                    && bytes[i + 1..].len() >= *hashes as usize
                {
                    *state = State::Normal;
                    i += terminator_len;
                } else {
                    i += 1;
                }
            }
            State::Normal => {
                if bytes[i..].starts_with(b"//") {
                    break;
                } else if bytes[i..].starts_with(b"/*") {
                    *state = State::Block(1);
                    i += 2;
                } else if bytes[i] == b'"' {
                    *state = State::Str;
                    out.push('"');
                    i += 1;
                } else if bytes[i] == b'r'
                    && matches!(bytes.get(i + 1), Some(b'"') | Some(b'#'))
                    && raw_string_hashes(&bytes[i + 1..]).is_some()
                {
                    let hashes = raw_string_hashes(&bytes[i + 1..]).unwrap_or(0);
                    *state = State::RawStr(hashes);
                    i += 2 + hashes as usize;
                } else if bytes[i] == b'\'' {
                    // Char literal or lifetime. A lifetime has no closing
                    // quote within the next few bytes; a char literal does.
                    if let Some(end) = char_literal_end(&bytes[i..]) {
                        i += end;
                    } else {
                        out.push('\'');
                        i += 1;
                    }
                } else {
                    out.push(bytes[i] as char);
                    i += 1;
                }
            }
        }
    }
    out
}

/// If `bytes` (just past a `r`) starts a raw string opener like `#"` or
/// `"`, returns the number of hashes; `None` otherwise.
fn raw_string_hashes(bytes: &[u8]) -> Option<u32> {
    let hashes = bytes.iter().take_while(|&&b| b == b'#').count();
    (bytes.get(hashes) == Some(&b'"')).then_some(hashes as u32)
}

/// Length of a char literal starting at a `'`, or `None` for a lifetime.
fn char_literal_end(bytes: &[u8]) -> Option<usize> {
    if bytes.get(1) == Some(&b'\\') {
        // Escaped char: find the closing quote.
        bytes.iter().skip(2).position(|&b| b == b'\'').map(|p| p + 3)
    } else {
        (bytes.get(2) == Some(&b'\'')).then_some(3)
    }
}

/// Whether the raw line carries a `// lint: allow(...)` exemption.
fn has_allowance(raw: &str) -> bool {
    raw.contains("// lint: allow(")
}

/// Rule 1: raw `std::sync::` / `std::thread` in shimmed crates.
fn check_raw_sync(file: &Path, source: &str, findings: &mut Vec<Finding>) {
    for line in analyze(source) {
        if line.in_test || has_allowance(line.raw) {
            continue;
        }
        for banned in ["std::sync::", "std::thread"] {
            for (pos, _) in line.code.match_indices(banned) {
                // `acq_sync::sync::..` contains no `std::`, but a path like
                // `::std::sync` or a cfg'd re-export should still fire; the
                // only thing to rule out is a longer identifier ending in
                // `std` (none exist, but stay precise).
                let prefix_ok = pos == 0
                    || !line.code.as_bytes()[pos - 1].is_ascii_alphanumeric()
                        && line.code.as_bytes()[pos - 1] != b'_';
                if prefix_ok {
                    findings.push(Finding {
                        file: file.to_path_buf(),
                        line: line.number,
                        rule: "raw-sync",
                        message: format!(
                            "`{banned}` bypasses the acq-sync shims; import via `acq_sync::`"
                        ),
                    });
                    break;
                }
            }
        }
    }
}

/// Rule 2: `unwrap()` / `expect(..)` / `panic!` in non-test serving code.
fn check_no_panic(file: &Path, source: &str, findings: &mut Vec<Finding>) {
    for line in analyze(source) {
        if line.in_test || has_allowance(line.raw) {
            continue;
        }
        for banned in [".unwrap()", ".expect(", "panic!", "unreachable!", "todo!", "unimplemented!"]
        {
            if line.code.contains(banned) {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: line.number,
                    rule: "no-panic",
                    message: format!(
                        "`{banned}` in non-test serving code; return a typed error or add \
                         `// lint: allow(<rule>: <why>)`"
                    ),
                });
            }
        }
    }
}

/// Rule 3: `unsafe` needs a `// SAFETY:` on the same line or within the
/// three lines above.
fn check_safety_comments(file: &Path, source: &str, findings: &mut Vec<Finding>) {
    let lines = analyze(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    for line in &lines {
        let Some(pos) = line.code.find("unsafe") else { continue };
        let after = line.code.as_bytes().get(pos + "unsafe".len());
        if after.is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_') {
            continue; // `unsafe_code` in a lint attribute, not the keyword.
        }
        let documented = (line.number.saturating_sub(4)..line.number)
            .filter_map(|n| raw_lines.get(n))
            .chain(std::iter::once(&line.raw))
            .any(|l| l.contains("SAFETY:"));
        if !documented {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: line.number,
                rule: "safety-comment",
                message: "`unsafe` without a `// SAFETY:` comment on or above it".to_string(),
            });
        }
    }
}

/// Rule 4: the constants the protocol/durability docs quote must match the
/// source literals.
fn check_doc_pins(root: &Path, findings: &mut Vec<Finding>) -> io::Result<()> {
    let frame = std::fs::read_to_string(root.join("crates/acq-server/src/frame.rs"))?;
    let log = std::fs::read_to_string(root.join("crates/acq-durable/src/log.rs"))?;
    let protocol_doc_path = root.join("docs/PROTOCOL.md");
    let durability_doc_path = root.join("docs/DURABILITY.md");
    let protocol_doc = std::fs::read_to_string(&protocol_doc_path)?;
    let durability_doc = std::fs::read_to_string(&durability_doc_path)?;

    let mut pin = |present: bool, file: &Path, message: String| {
        if !present {
            findings.push(Finding { file: file.to_path_buf(), line: 1, rule: "doc-pins", message });
        }
    };

    match const_int(&frame, "PROTOCOL_VERSION") {
        Some(version) => pin(
            protocol_doc.contains(&format!("Protocol version: **{version}**")),
            &protocol_doc_path,
            format!("does not state `Protocol version: **{version}**` (frame.rs says {version})"),
        ),
        None => pin(
            false,
            Path::new("crates/acq-server/src/frame.rs"),
            "cannot parse `PROTOCOL_VERSION`".into(),
        ),
    }
    match const_int(&frame, "ENVELOPE_LEN") {
        Some(len) => pin(
            protocol_doc.contains(&format!("{len}-byte envelope")),
            &protocol_doc_path,
            format!("does not describe the `{len}-byte envelope` frame.rs defines"),
        ),
        None => pin(
            false,
            Path::new("crates/acq-server/src/frame.rs"),
            "cannot parse `ENVELOPE_LEN`".into(),
        ),
    }
    for code in str_consts(&frame) {
        pin(
            protocol_doc.contains(&format!("`{code}`")),
            &protocol_doc_path,
            format!("does not document the error code `{code}` frame.rs defines"),
        );
    }
    for name in ["LOG_MAGIC", "SNAPSHOT_MAGIC"] {
        match byte_string_const(&log, name) {
            Some(bytes) => {
                let hex: Vec<String> = bytes.iter().map(|b| format!("{b:02X}")).collect();
                let hex = hex.join(" ");
                pin(
                    durability_doc.contains(&hex),
                    &durability_doc_path,
                    format!("does not quote `{name}` as `{hex}` (log.rs changed?)"),
                );
            }
            None => pin(
                false,
                Path::new("crates/acq-durable/src/log.rs"),
                format!("cannot parse `{name}`"),
            ),
        }
    }
    Ok(())
}

/// Rule 5: every Markdown file a doc comment names must satisfy `exists`
/// (given the name as written, relative to the repository root).
fn check_doc_links(
    file: &Path,
    source: &str,
    exists: impl Fn(&str) -> bool,
    findings: &mut Vec<Finding>,
) {
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    for (idx, raw) in source.lines().enumerate() {
        let comment = raw.trim_start();
        if !comment.starts_with("//!") && !comment.starts_with("///") {
            continue;
        }
        for name in comment
            .split(|c: char| !is_path_char(c))
            .map(|token| token.trim_end_matches('.'))
            .filter(|name| name.len() > ".md".len() && name.ends_with(".md") && !exists(name))
        {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: idx + 1,
                rule: "doc-links",
                message: format!("doc comment names `{name}`, which does not exist"),
            });
        }
    }
}

/// Value of `pub const <name>: <ty> = <int>;` in `source`.
fn const_int(source: &str, name: &str) -> Option<u64> {
    let tail = source.split(&format!("pub const {name}:")).nth(1)?;
    let value = tail.split('=').nth(1)?.split(';').next()?.trim();
    value.parse().ok()
}

/// Every `pub const NAME: &str = "value";` string in `source`.
fn str_consts(source: &str) -> Vec<String> {
    let mut values = Vec::new();
    for line in source.lines() {
        let trimmed = line.trim();
        if !trimmed.starts_with("pub const ") || !trimmed.contains(": &str = \"") {
            continue;
        }
        if let Some(value) = trimmed.split('"').nth(1) {
            values.push(value.to_string());
        }
    }
    values
}

/// Bytes of `pub const <name>: [u8; N] = *b"...";`, unescaping `\xNN`,
/// `\0`, `\\` and `\"`.
fn byte_string_const(source: &str, name: &str) -> Option<Vec<u8>> {
    let tail = source.split(&format!("pub const {name}:")).nth(1)?;
    let literal = tail.split("*b\"").nth(1)?.split('"').next()?;
    let mut bytes = Vec::new();
    let mut chars = literal.bytes();
    while let Some(b) = chars.next() {
        if b != b'\\' {
            bytes.push(b);
            continue;
        }
        match chars.next()? {
            b'x' => {
                let hi = chars.next()? as char;
                let lo = chars.next()? as char;
                bytes.push((hi.to_digit(16)? * 16 + lo.to_digit(16)?) as u8);
            }
            b'0' => bytes.push(0),
            b'n' => bytes.push(b'\n'),
            b't' => bytes.push(b'\t'),
            b'r' => bytes.push(b'\r'),
            other => bytes.push(other),
        }
    }
    Some(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fixtures assemble banned tokens from pieces so this file stays clean
    // under its own rules if the lint scope ever widens to `tools/`.
    fn banned_sync() -> String {
        ["use std", "::sync::Mutex;"].concat()
    }

    fn banned_unwrap() -> String {
        ["let g = m.lock().", "unwrap", "();"].concat()
    }

    #[test]
    fn raw_sync_fires_in_code_but_not_comments_tests_or_strings() {
        let source = format!(
            "{code}\n/// doc: {code}\n// note: {code}\nlet s = \"{code}\";\n\
             #[cfg(test)]\nmod tests {{\n    {code}\n}}\n",
            code = banned_sync()
        );
        let mut findings = Vec::new();
        check_raw_sync(Path::new("x.rs"), &source, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn no_panic_fires_and_honours_allowances() {
        let allowed = format!("{} // lint: allow(expect: startup only)", banned_unwrap());
        let source = format!("{}\n{allowed}\n", banned_unwrap());
        let mut findings = Vec::new();
        check_no_panic(Path::new("x.rs"), &source, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn no_panic_skips_test_blocks_with_nested_braces() {
        let source = format!(
            "#[cfg(test)]\nmod tests {{\n    fn f() {{\n        {u}\n    }}\n}}\nfn live() {{ {u} }}\n",
            u = banned_unwrap()
        );
        let mut findings = Vec::new();
        check_no_panic(Path::new("x.rs"), &source, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 7, "only the non-test occurrence fires");
    }

    #[test]
    fn safety_rule_accepts_documented_unsafe_and_skips_lint_attributes() {
        let documented =
            "// SAFETY: the slice is checked above.\nlet x = unsafe { *p };\n#![forbid(unsafe_code)]\n";
        let mut findings = Vec::new();
        check_safety_comments(Path::new("x.rs"), documented, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");

        let undocumented = "let x = unsafe { *p };\n";
        check_safety_comments(Path::new("x.rs"), undocumented, &mut findings);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn doc_links_fire_on_missing_files_in_doc_comments_only() {
        // Assembled from pieces so this file's own doc comments stay clean.
        let missing = ["GONE", ".md"].concat();
        let source = format!(
            "//! See {missing} and docs/HERE.md.\n/// Also `HERE.md`, ({missing}).\n\
             // plain comment: {missing}\nlet s = \"{missing}\";\n"
        );
        let mut findings = Vec::new();
        let exists = |name: &str| name == "HERE.md" || name == "docs/HERE.md";
        check_doc_links(Path::new("x.rs"), &source, exists, &mut findings);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 2], "{findings:?}");
        assert!(findings[0].message.contains(&missing));
    }

    #[test]
    fn sanitizer_handles_block_comments_and_char_literals() {
        let mut state = State::Normal;
        assert_eq!(
            sanitize_line("let a = 1; /* hidden */ let b = 2;", &mut state),
            "let a = 1;  let b = 2;"
        );
        let mut state = State::Normal;
        assert_eq!(
            sanitize_line("let c = '\"'; let d = 'x'; let l: &'static str = s;", &mut state),
            "let c = ; let d = ; let l: &'static str = s;"
        );
        let mut state = State::Normal;
        sanitize_line("let open = \"spans", &mut state);
        assert!(matches!(state, State::Str), "string state carries across lines");
    }

    #[test]
    fn const_parsers_extract_the_documented_literals() {
        let source = "pub const PROTOCOL_VERSION: u8 = 1;\npub const ENVELOPE_LEN: usize = 10;\n\
                      pub const BACKPRESSURE: &str = \"backpressure\";\n";
        assert_eq!(const_int(source, "PROTOCOL_VERSION"), Some(1));
        assert_eq!(const_int(source, "ENVELOPE_LEN"), Some(10));
        assert_eq!(str_consts(source), vec!["backpressure".to_string()]);
        let log = "pub const LOG_MAGIC: [u8; 8] = *b\"ACQLOG\\x00\\x01\";\n";
        assert_eq!(byte_string_const(log, "LOG_MAGIC"), Some(b"ACQLOG\x00\x01".to_vec()));
    }
}
