//! Workspace automation. `cargo xtask lint` enforces six source-level
//! policies that rustc/clippy have no lint for:
//!
//! 1. **Panic-freedom in library code** — no `.unwrap()` or `panic!` in
//!    library crates outside `#[cfg(test)]` modules. Invariants must be
//!    stated with `.expect("why this cannot fail")` so a violation names
//!    the broken assumption instead of a line number.
//! 2. **Justified relaxed orderings** — every `Ordering::Relaxed` must be
//!    accompanied by a `// relaxed-ok:` comment (same line or the line
//!    above) explaining why no stronger ordering is needed.
//! 3. **Clock discipline in strategy and solver code** — deterministic
//!    strategy, refinement and branch-and-bound code must not read
//!    `Instant::now()` directly; wall-clock reads belong to the search
//!    driver so runs replay identically.
//! 4. **Justified numeric casts in kernel code** — in the numeric hot
//!    paths (simplex kernels, the board-memory host driver) every bare
//!    `as` cast to a primitive numeric type needs a `// cast-ok:` comment
//!    saying why it cannot truncate, wrap, or lose precision. Elsewhere
//!    clippy's lossless-conversion lints suffice; these files convert
//!    between index and float domains constantly, where a silent
//!    truncation would corrupt a basis or a DMA length, not crash.
//! 5. **Fsync'd writes in the durable tiers** — in the daemon's journal
//!    and result-store modules, a bare `fs::write(`, `File::create(` or
//!    `.write_all(` may bypass the checksummed, fsynced,
//!    atomically-renamed append path that crash recovery depends on; each
//!    needs a `// durable-ok:` comment proving the write still reaches the
//!    disk before anything depends on it.
//! 6. **No environment knobs in library code** — only the daemon's
//!    fault-injection harness (`crates/sparcsd/src/faults.rs`) may call
//!    `env::var`. Every other setting is an argument or is derived from
//!    the machine, so a library result never depends on the caller's
//!    shell.
//!
//! The tool is path-based, not syntax-tree-based: it strips comments and
//! string literals with a small state machine and tracks `#[cfg(test)]`
//! modules by brace depth, which is exact for the rustfmt-formatted code
//! in this workspace.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One policy violation.
struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some(other) => {
            eprintln!("unknown xtask `{other}`\n\nusage: cargo xtask lint");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask lint");
            ExitCode::FAILURE
        }
    }
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut findings = Vec::new();
    for file in library_sources(&root) {
        let Ok(text) = std::fs::read_to_string(&file) else {
            findings.push(Finding {
                file: file.clone(),
                line: 0,
                rule: "io",
                message: "could not read file".to_string(),
            });
            continue;
        };
        let rel = file.strip_prefix(&root).unwrap_or(&file).to_path_buf();
        lint_file(&rel, &text, &mut findings);
    }
    if findings.is_empty() {
        println!("xtask lint: clean");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!("xtask lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// Locates the workspace root: `cargo xtask` runs with the workspace as
/// cwd, but walking up to the first `Cargo.toml` with a `[workspace]`
/// table also works when invoked from a crate directory.
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("process has a current directory");
    let mut dir = cwd.as_path();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir.to_path_buf();
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return cwd,
        }
    }
}

/// Every `.rs` file the policies cover: the facade's `src/` and each
/// `crates/*/src/`, skipping binaries (`/bin/`), vendored stand-ins,
/// integration tests, and this tool itself.
fn library_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut roots = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            if entry.path().file_name().is_some_and(|n| n == "xtask") {
                continue;
            }
            roots.push(entry.path().join("src"));
        }
    }
    for r in roots {
        walk(&r, &mut files);
    }
    files.sort();
    files
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    if dir.file_name().is_some_and(|n| n == "bin") {
        return;
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Files where `Instant::now()` is banned: strategy selection, refinement
/// and the branch-and-bound must be clock-free so identical inputs replay
/// identically. (`crates/core/src/search.rs` is the driver that owns the
/// clock; the solver sees it only as a stop signal.)
const CLOCK_FREE: &[&str] = &[
    "src/strategy.rs",
    "crates/core/src/refine.rs",
    "crates/core/src/list.rs",
    "crates/ilp/src/branch.rs",
];

/// Files where every bare `as` cast to a primitive numeric type must carry
/// a `// cast-ok:` justification: the simplex hot paths and the
/// board-memory host driver, where an unnoticed truncation corrupts a
/// basis index or a transfer length instead of failing loudly.
const CAST_JUSTIFY: &[&str] = &[
    "crates/ilp/src/kernels.rs",
    "crates/ilp/src/simplex.rs",
    "crates/rtr/src/host.rs",
];

/// Files implementing the daemon's durable tiers, where every file write
/// must go through the fsync'd append/publish path: a bare `fs::write(`,
/// `File::create(` or `.write_all(` needs a `// durable-ok:`
/// justification saying why the bytes are still guaranteed durable (or
/// provably disposable).
const DURABLE_STORE: &[&str] = &[
    "crates/sparcsd/src/journal.rs",
    "crates/sparcsd/src/store.rs",
];

/// The only library file allowed to read environment variables: the
/// fault-injection harness, armed by `SPARCSD_FAULTS` in crash tests.
const ENV_READERS: &[&str] = &["crates/sparcsd/src/faults.rs"];

/// Primitive numeric cast targets `cast-needs-justification` covers.
const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Whether the (comment-stripped) line contains a cast expression
/// `... as <numeric type>`. Token-based: `as` must stand alone (not part
/// of an identifier) and the next token must be a primitive numeric type,
/// so `use x as y` imports and generic `as` in paths never match.
fn has_numeric_cast(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut i = 0;
    while let Some(pos) = code[i..].find("as") {
        let start = i + pos;
        let end = start + 2;
        let before_ok = start == 0 || {
            let c = bytes[start - 1] as char;
            !c.is_alphanumeric() && c != '_'
        };
        let after = &code[end..];
        let after_ok = after.starts_with(char::is_whitespace);
        if before_ok && after_ok {
            let target = after.trim_start();
            if NUMERIC_TYPES.iter().any(|t| {
                target.starts_with(t)
                    && target[t.len()..]
                        .chars()
                        .next()
                        .is_none_or(|c| !c.is_alphanumeric() && c != '_')
            }) {
                return true;
            }
        }
        i = end;
    }
    false
}

/// Whether `rel` is one of the workspace-relative paths in `list`.
fn listed(rel: &Path, list: &[&str]) -> bool {
    list.iter()
        .any(|p| rel == Path::new(p) || rel.to_string_lossy().replace('\\', "/") == *p)
}

fn lint_file(rel: &Path, text: &str, findings: &mut Vec<Finding>) {
    let clock_free = listed(rel, CLOCK_FREE);
    let cast_justify = listed(rel, CAST_JUSTIFY);
    let durable_store = listed(rel, DURABLE_STORE);
    let env_reader = listed(rel, ENV_READERS);

    let mut in_block_comment = false;
    // Brace depth where an active `#[cfg(test)]` module body started;
    // while `Some`, lines are test-only and exempt from the policies.
    let mut test_mod_depth: Option<usize> = None;
    let mut pending_test_attr = false;
    let mut depth = 0usize;
    let mut prev_raw = "";
    // A `// relaxed-ok:` / `// cast-ok:` seen in the contiguous comment
    // block directly above the current line justifies the first code line
    // after it.
    let mut relaxed_ok_pending = false;
    let mut cast_ok_pending = false;
    let mut durable_ok_pending = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let code = strip_noise(raw, &mut in_block_comment);
        let comment_only = code.trim().is_empty() && !raw.trim().is_empty();
        if comment_only && raw.contains("relaxed-ok:") {
            relaxed_ok_pending = true;
        }
        if comment_only && raw.contains("cast-ok:") {
            cast_ok_pending = true;
        }
        if comment_only && raw.contains("durable-ok:") {
            durable_ok_pending = true;
        }

        if code.contains("#[cfg(test)]") {
            pending_test_attr = true;
        } else if pending_test_attr && code.contains("mod ") {
            if test_mod_depth.is_none() {
                test_mod_depth = Some(depth);
            }
            pending_test_attr = false;
        } else if pending_test_attr && !code.trim().is_empty() && !code.trim().starts_with("#[") {
            // The attribute gated an item (fn, impl, use) rather than a
            // module; treat the single following item conservatively as
            // exempt only if it opens a brace on this line — otherwise
            // the attribute just stops applying.
            if code.contains('{') && test_mod_depth.is_none() {
                test_mod_depth = Some(depth);
            }
            pending_test_attr = false;
        }

        let in_tests = test_mod_depth.is_some();
        for ch in code.chars() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    if test_mod_depth.is_some_and(|d| depth <= d) {
                        test_mod_depth = None;
                    }
                }
                _ => {}
            }
        }

        if !in_tests {
            if code.contains(".unwrap()") {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: line_no,
                    rule: "no-unwrap",
                    message:
                        "`.unwrap()` in library code; state the invariant with `.expect(\"...\")`"
                            .to_string(),
                });
            }
            if code.contains("panic!") {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: line_no,
                    rule: "no-panic",
                    message:
                        "`panic!` in library code; return an error or `.expect` a named invariant"
                            .to_string(),
                });
            }
            if code.contains("Ordering::Relaxed")
                && !raw.contains("relaxed-ok:")
                && !prev_raw.contains("relaxed-ok:")
                && !relaxed_ok_pending
            {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: line_no,
                    rule: "relaxed-needs-justification",
                    message: "`Ordering::Relaxed` without a `// relaxed-ok:` justification"
                        .to_string(),
                });
            }
            if cast_justify
                && has_numeric_cast(&code)
                && !raw.contains("cast-ok:")
                && !prev_raw.contains("cast-ok:")
                && !cast_ok_pending
            {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: line_no,
                    rule: "cast-needs-justification",
                    message:
                        "bare `as` cast to a numeric type without a `// cast-ok:` justification"
                            .to_string(),
                });
            }
            if durable_store
                && (code.contains("fs::write(")
                    || code.contains("File::create(")
                    || code.contains(".write_all("))
                && !raw.contains("durable-ok:")
                && !prev_raw.contains("durable-ok:")
                && !durable_ok_pending
            {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: line_no,
                    rule: "durable-store-write",
                    message: "bare `fs::write`/`File::create`/`.write_all` in a durable-store \
                              module; use the fsync'd append path or justify with \
                              `// durable-ok:`"
                        .to_string(),
                });
            }
            if !env_reader && code.contains("env::var") {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: line_no,
                    rule: "no-env-knob",
                    message:
                        "`env::var` in library code; take the setting as an argument or derive it"
                            .to_string(),
                });
            }
            if clock_free && code.contains("Instant::now") {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: line_no,
                    rule: "no-clock-in-strategy",
                    message: "direct `Instant::now()` in strategy code; take deadlines from the search driver"
                        .to_string(),
                });
            }
        }

        if !comment_only {
            relaxed_ok_pending = false;
            cast_ok_pending = false;
            durable_ok_pending = false;
        }
        prev_raw = raw;
    }
}

/// Removes comments and the contents of string/char literals from one
/// line, carrying block-comment state across lines. Escapes inside
/// literals are handled; raw strings with `#` guards are rare enough in
/// this workspace that the plain-quote handling covers them.
fn strip_noise(line: &str, in_block_comment: &mut bool) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    let mut in_char = false;
    while let Some(c) = chars.next() {
        if *in_block_comment {
            if c == '*' && chars.peek() == Some(&'/') {
                chars.next();
                *in_block_comment = false;
            }
            continue;
        }
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        if in_char {
            match c {
                '\\' => {
                    chars.next();
                }
                '\'' => in_char = false,
                _ => {}
            }
            continue;
        }
        match c {
            '/' if chars.peek() == Some(&'/') => break,
            '/' if chars.peek() == Some(&'*') => {
                chars.next();
                *in_block_comment = true;
            }
            '"' => {
                in_str = true;
                out.push(c);
            }
            // Lifetime tick vs char literal: a char literal closes with a
            // quote within two characters (`'x'` / `'\n'`).
            '\'' => {
                let mut lookahead = chars.clone();
                let first = lookahead.next();
                let is_char_lit = match first {
                    Some('\\') => true,
                    Some(_) => lookahead.next() == Some('\''),
                    None => false,
                };
                if is_char_lit {
                    in_char = true;
                }
                out.push(c);
            }
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(rel: &str, text: &str) -> Vec<(&'static str, usize)> {
        let mut findings = Vec::new();
        lint_file(Path::new(rel), text, &mut findings);
        findings.into_iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn flags_unwrap_and_panic_outside_tests() {
        let text = "fn f() { x.unwrap(); }\nfn g() { panic!(\"no\"); }\n";
        assert_eq!(
            rules_of("crates/demo/src/lib.rs", text),
            vec![("no-unwrap", 1), ("no-panic", 2)]
        );
    }

    #[test]
    fn test_modules_are_exempt() {
        let text = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); panic!(); }\n}\nfn g() { y.unwrap(); }\n";
        assert_eq!(rules_of("src/lib.rs", text), vec![("no-unwrap", 5)]);
    }

    #[test]
    fn comments_and_strings_do_not_count() {
        let text = "// x.unwrap() in a comment\nfn f() { let s = \"panic!\"; }\n/* panic! */\n";
        assert_eq!(rules_of("src/lib.rs", text), vec![]);
    }

    #[test]
    fn relaxed_requires_justification() {
        let bare = "fn f() { a.load(Ordering::Relaxed); }\n";
        assert_eq!(
            rules_of("src/lib.rs", bare),
            vec![("relaxed-needs-justification", 1)]
        );
        let same_line = "fn f() { a.load(Ordering::Relaxed); } // relaxed-ok: counter\n";
        assert_eq!(rules_of("src/lib.rs", same_line), vec![]);
        let prev_line = "// relaxed-ok: counter\nfn f() { a.load(Ordering::Relaxed); }\n";
        assert_eq!(rules_of("src/lib.rs", prev_line), vec![]);
        let block_above =
            "// relaxed-ok: a longer story\n// spanning several comment lines\nfn f() { a.load(Ordering::Relaxed); }\n";
        assert_eq!(rules_of("src/lib.rs", block_above), vec![]);
        let stale =
            "// relaxed-ok: for the first one\nfn f() { a.load(Ordering::Relaxed); }\nfn g() { b.load(Ordering::Relaxed); }\n";
        assert_eq!(
            rules_of("src/lib.rs", stale),
            vec![("relaxed-needs-justification", 3)]
        );
    }

    #[test]
    fn cast_rule_applies_only_to_kernel_files() {
        let bare = "fn f(i: usize) -> f64 { i as f64 }\n";
        assert_eq!(
            rules_of("crates/ilp/src/kernels.rs", bare),
            vec![("cast-needs-justification", 1)]
        );
        // Outside the kernel list the same cast is clippy's business.
        assert_eq!(rules_of("crates/ilp/src/branch.rs", bare), vec![]);
        let same_line = "fn f(i: usize) -> f64 { i as f64 } // cast-ok: exact below 2^53\n";
        assert_eq!(rules_of("crates/ilp/src/kernels.rs", same_line), vec![]);
        let block_above = "// cast-ok: indices fit in f64\n// (row counts are < 2^20)\nfn f(i: usize) -> f64 { i as f64 }\n";
        assert_eq!(rules_of("crates/ilp/src/kernels.rs", block_above), vec![]);
        // Only *numeric* casts are covered; `as` in imports and trait
        // casts (`as dyn`, `as_ref` idents) never match.
        let non_numeric =
            "use std::fmt as formatting;\nfn g(x: &dyn std::any::Any) { let _ = x as &dyn std::any::Any; }\nfn h() { basis.as_slice(); }\n";
        assert_eq!(rules_of("crates/ilp/src/kernels.rs", non_numeric), vec![]);
        // The justification must sit on or directly above the cast line.
        let stale = "// cast-ok: for the first one\nfn f(i: usize) -> f64 { i as f64 }\nfn g(j: usize) -> f64 { j as f64 }\n";
        assert_eq!(
            rules_of("crates/ilp/src/simplex.rs", stale),
            vec![("cast-needs-justification", 3)]
        );
    }

    #[test]
    fn durable_store_rule_flags_bare_writes_in_the_daemon_tiers() {
        let bare = "fn f() { std::fs::write(&path, bytes).ok(); }\n";
        assert_eq!(
            rules_of("crates/sparcsd/src/store.rs", bare),
            vec![("durable-store-write", 1)]
        );
        let create = "fn f() { let f = File::create(&tmp)?; }\n";
        assert_eq!(
            rules_of("crates/sparcsd/src/journal.rs", create),
            vec![("durable-store-write", 1)]
        );
        // A write into a handle opened elsewhere counts too.
        let write_all = "fn f(&mut self) {\n    self.file.write_all(line.as_bytes())?;\n}\n";
        assert_eq!(
            rules_of("crates/sparcsd/src/journal.rs", write_all),
            vec![("durable-store-write", 2)]
        );
        assert_eq!(rules_of("crates/sparcsd/src/server.rs", write_all), vec![]);
        let justified = "fn f(&mut self) {\n    // durable-ok: fsynced on the next line\n    self.file.write_all(line.as_bytes())?;\n}\n";
        assert_eq!(rules_of("crates/sparcsd/src/journal.rs", justified), vec![]);
        // Outside the durable tiers the same calls are fine.
        assert_eq!(rules_of("crates/sparcsd/src/server.rs", bare), vec![]);
        assert_eq!(rules_of("src/flow.rs", create), vec![]);
        // A justification on the line, directly above, or in the comment
        // block above clears it.
        let same_line =
            "fn f() { let f = File::create(&tmp)?; } // durable-ok: synced then renamed\n";
        assert_eq!(rules_of("crates/sparcsd/src/store.rs", same_line), vec![]);
        let block_above = "// durable-ok: the temp file is fsynced below and\n// atomically renamed into place\nfn f() { let f = File::create(&tmp)?; }\n";
        assert_eq!(rules_of("crates/sparcsd/src/store.rs", block_above), vec![]);
        // Tests inside the module keep their throwaway writes.
        let in_tests =
            "#[cfg(test)]\nmod tests {\n    fn f() { std::fs::write(&p, b\"x\").ok(); }\n}\n";
        assert_eq!(rules_of("crates/sparcsd/src/store.rs", in_tests), vec![]);
        // A stale justification does not leak to later writes.
        let stale = "// durable-ok: for the first one\nfn f() { std::fs::write(&a, x).ok(); }\nfn g() { std::fs::write(&b, y).ok(); }\n";
        assert_eq!(
            rules_of("crates/sparcsd/src/journal.rs", stale),
            vec![("durable-store-write", 3)]
        );
    }

    #[test]
    fn env_rule_exempts_only_the_fault_harness() {
        let text = "fn jobs() -> Option<String> { std::env::var(\"JOBS\").ok() }\n";
        assert_eq!(rules_of("src/flow.rs", text), vec![("no-env-knob", 1)]);
        let os = "fn f() { let _ = env::var_os(\"X\"); }\n";
        assert_eq!(
            rules_of("crates/core/src/lib.rs", os),
            vec![("no-env-knob", 1)]
        );
        assert_eq!(rules_of("crates/sparcsd/src/faults.rs", text), vec![]);
        // Tests, comments and strings may mention it.
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn f() { std::env::var(\"X\").ok(); }\n}\n";
        assert_eq!(rules_of("src/flow.rs", in_tests), vec![]);
        let mention = "// env::var is banned here\nfn f() { let _ = \"env::var\"; }\n";
        assert_eq!(rules_of("src/flow.rs", mention), vec![]);
    }

    #[test]
    fn clock_rule_applies_only_to_strategy_files() {
        let text = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(
            rules_of("src/strategy.rs", text),
            vec![("no-clock-in-strategy", 1)]
        );
        // The branch-and-bound reads no clock either: its caller hands it
        // a stop signal instead.
        assert_eq!(
            rules_of("crates/ilp/src/branch.rs", text),
            vec![("no-clock-in-strategy", 1)]
        );
        assert_eq!(rules_of("crates/core/src/search.rs", text), vec![]);
    }
}
