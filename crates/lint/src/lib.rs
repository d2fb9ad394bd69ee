//! `nrp-lint` — project-specific static analysis for the nrp workspace.
//!
//! `rustc` and clippy cannot see the contracts this repo's value rests on:
//! bitwise thread-invariance of every embedding, documented-only `unsafe` in
//! the parallel kernels, and a serving layer that must never panic on user
//! input.  This crate is a self-contained analyzer (hand-rolled lexer, no
//! crates.io dependencies, consistent with the `vendor/` shim policy) that
//! walks every `.rs` file and enforces them:
//!
//! | rule | checks |
//! |------|--------|
//! | D001 | no `HashMap`/`HashSet` iteration in non-test code |
//! | D002 | no `Instant::now`/`SystemTime` in kernel crates (`linalg`, `core`, `graph`) |
//! | O001 | no `Instant::now`/`SystemTime` outside the clock-owning crate (`nrp-obs`) — non-kernel code routes timing through `nrp_obs::clock` |
//! | D003 | no unseeded RNG construction (`thread_rng`, `from_entropy`, `OsRng`, `rand::random`) |
//! | U001 | every `unsafe` is immediately preceded by a `// SAFETY:` comment |
//! | U002 | `unsafe` is denied outside the allowlisted modules (today: `linalg::parallel`) |
//! | P001 | no `.unwrap()`/`.expect()` in `nrp-serve` request-path modules |
//! | P002 | no `panic!`/`todo!`/`unimplemented!` in request-path modules |
//! | P003 | no slice-index-by-literal in request-path modules |
//! | R001 | every `push`/`push_back` in request-path modules targets a visibly bounded collection (`with_capacity` init or `len()` comparison) |
//! | A001 | no `pub fn base_with` thread-count wrapper beside a `pub fn base_exec` kernel |
//! | A002 | every `*_exec` kernel appears in the `tests/thread_invariance.rs` roster |
//! | L001 | `// nrp-lint: allow(rule)` directives must carry a reason |
//!
//! Findings print as `file:line: rule-id message`.  The escape hatch is a
//! comment on (or directly above) the offending line:
//!
//! ```text
//! // nrp-lint: allow(D002) — StageClock is the designated timing module
//! ```
//!
//! The directive *requires* a reason after a `—`/`-`/`:` separator; without
//! one it suppresses nothing and is itself flagged (L001).  See
//! `CONTRIBUTING.md` § "Project lints" for the policy discussion.

pub mod callgraph;
pub mod lexer;
pub mod locks;
pub mod parser;
pub mod rules;
pub mod semantic;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rules::{analyze, FileReport};

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule identifier (`D001`, `U002`, ...).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(file: &str, line: u32, rule: &str, message: String) -> Self {
        Self {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One `unsafe` occurrence, for the machine-readable inventory artifact.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// `block` | `fn` | `impl` | `trait` | `extern` | `other`.
    pub kind: String,
    /// Whether a `// SAFETY:` comment immediately precedes it.
    pub documented: bool,
    /// Whether the file is on the `unsafe` allowlist.
    pub allowlisted: bool,
    /// Whether the site lives in test/bench/example code.
    pub test_code: bool,
    /// Qualified names of public workspace functions that transitively
    /// reach the function containing this site (call-graph facts; empty
    /// for sites outside any function or before the semantic pass runs).
    pub reachable_from: Vec<String>,
}

impl UnsafeSite {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("file", serde::Value::String(self.file.clone()));
        map.insert(
            "line",
            serde::Value::Number(serde::Number::PosInt(self.line as u64)),
        );
        map.insert("kind", serde::Value::String(self.kind.clone()));
        map.insert("documented", serde::Value::Bool(self.documented));
        map.insert("allowlisted", serde::Value::Bool(self.allowlisted));
        map.insert("test", serde::Value::Bool(self.test_code));
        map.insert(
            "reachable_from",
            serde::Value::Array(
                self.reachable_from
                    .iter()
                    .map(|n| serde::Value::String(n.clone()))
                    .collect(),
            ),
        );
        serde::Value::Object(map)
    }
}

/// Rule configuration.  The defaults encode today's policy; tests override
/// individual fields to probe rule behavior.
#[derive(Debug, Clone)]
pub struct Config {
    /// Files (workspace-relative) where `unsafe` is permitted (U002).
    pub unsafe_allowed: Vec<String>,
    /// Path prefixes of the kernel crates where wall-clock reads are
    /// banned (D002).
    pub kernel_prefixes: Vec<String>,
    /// Kernel-crate files exempt from D002 (designated timing modules).
    /// Empty today: since `StageClock` moved into `nrp-obs`, no kernel
    /// file reads the wall clock at all — exemptions would carry per-site
    /// `allow(D002)` annotations stating their reason in the source.
    pub timing_allowed: Vec<String>,
    /// Path prefixes of the designated clock-owning crate (O001): the only
    /// non-test code allowed to call `Instant::now`/`SystemTime::now`
    /// directly.  Everything else routes timing through
    /// `nrp_obs::clock::now()`, so the workspace has exactly one place
    /// where wall-clock time enters.
    pub clock_owner: Vec<String>,
    /// `nrp-serve` request-path modules covered by the P and R rules.
    /// `fault.rs` is deliberately absent: its `Panic` action panics by
    /// design, and it is compiled out of release builds entirely.
    pub request_path: Vec<String>,
    /// Warm-path roots for the H rules: function names and impl-type names
    /// whose (transitively) reachable code must not allocate.
    pub hot_roots: Vec<String>,
    /// Files whose amortized growth ops (H002: `push`/`reserve`/…) are
    /// proven allocation-free at steady state by a counting-allocator test
    /// — H001 (unconditional allocation) still applies there.
    pub warm_proven: Vec<String>,
    /// Free functions that acquire a lock on behalf of their caller
    /// (`lock_unpoisoned`): call sites count as direct acquisitions and the
    /// wrapper body itself is excluded from the lock analysis.
    pub lock_wrappers: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            unsafe_allowed: vec!["crates/linalg/src/parallel.rs".into()],
            kernel_prefixes: vec![
                "crates/linalg/src/".into(),
                "crates/core/src/".into(),
                "crates/graph/src/".into(),
            ],
            timing_allowed: vec![],
            clock_owner: vec!["crates/obs/src/".into()],
            request_path: vec![
                "crates/serve/src/http.rs".into(),
                "crates/serve/src/server.rs".into(),
                "crates/serve/src/batcher.rs".into(),
                "crates/serve/src/cache.rs".into(),
                "crates/serve/src/client.rs".into(),
                "crates/serve/src/degrade.rs".into(),
            ],
            hot_roots: vec!["forward_push_into".into(), "PushWorkspace".into()],
            warm_proven: vec!["crates/core/src/push.rs".into()],
            lock_wrappers: vec!["lock_unpoisoned".into()],
        }
    }
}

/// Result of a full workspace run.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Every `unsafe` site in the tree, sorted by (file, line), with
    /// call-graph reachability context filled in.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Number of `.rs` files analyzed.
    pub files_checked: usize,
    /// Call sites the semantic pass could not resolve to one candidate.
    pub ambiguities: Vec<callgraph::Ambiguity>,
    /// The `lock-order.json` payload for this tree.
    pub lock_order_json: String,
    /// Coverage numbers behind the lock inventory: every
    /// `Mutex`/`RwLock`/`Condvar` identifier seen, and how many named
    /// declarations they yielded.
    pub lock_type_sites: usize,
    pub lock_decls: usize,
}

/// Lints a single source text under a (possibly virtual) workspace-relative
/// path.  Path-scoped rules (U002, D002, P) key off `relpath`, so fixture
/// tests can probe them by lending a snippet a virtual location.
///
/// Rule A is cross-file and only runs in [`lint_workspace`].
pub fn lint_source(relpath: &str, source: &str, cfg: &Config) -> FileReport {
    analyze(relpath, source, cfg)
}

/// Walks every `.rs` file under `root` (skipping `target`, `vendor`,
/// `.git`, `fixtures` and `node_modules` directories), runs the per-file
/// rules, then the cross-file rule A checks against the
/// `tests/thread_invariance.rs` roster.
pub fn lint_workspace(root: &Path, cfg: &Config) -> io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut report = WorkspaceReport::default();
    let mut sources: Vec<(String, String)> = Vec::new();

    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let file_report = analyze(&rel_str, &source, cfg);
        report.findings.extend(file_report.findings);
        report.unsafe_sites.extend(file_report.unsafe_sites);
        sources.push((rel_str, source));
        report.files_checked += 1;
    }

    // The semantic pass: call graph, lock analysis (K rules), warm-path
    // allocation checking (H rules), transitive panic reachability (P004)
    // and the call-graph-backed A rules.
    let semantic = semantic::analyze_workspace(&sources, cfg);
    report.findings.extend(semantic.findings);
    for site in &mut report.unsafe_sites {
        if let Some(reachers) = semantic
            .unsafe_reachable
            .get(&(site.file.clone(), site.line))
        {
            site.reachable_from = reachers.clone();
        }
    }
    report.ambiguities = semantic.ambiguities;
    report.lock_order_json = semantic.lock_order_json;
    report.lock_type_sites = semantic.lock_type_sites;
    report.lock_decls = semantic.lock_decls;

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report
        .unsafe_sites
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "node_modules"];
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Renders the unsafe inventory as pretty-printed JSON.
pub fn unsafe_inventory_json(sites: &[UnsafeSite]) -> String {
    let array = serde::Value::Array(sites.iter().map(|s| s.to_value()).collect());
    serde_json::to_string_pretty(&array).unwrap_or_else(|_| "[]".into())
}

/// Renders findings (plus the semantic pass's ambiguity report) as the
/// `--format json` payload: a single object with `findings`,
/// `ambiguities` and `files_checked`.
pub fn findings_json(
    findings: &[Finding],
    ambiguities: &[callgraph::Ambiguity],
    files_checked: usize,
) -> String {
    let s = |v: &str| serde::Value::String(v.to_string());
    let n = |v: u64| serde::Value::Number(serde::Number::PosInt(v));
    let findings = findings
        .iter()
        .map(|f| {
            let mut map = serde::Map::new();
            map.insert("file", s(&f.file));
            map.insert("line", n(f.line as u64));
            map.insert("rule", s(&f.rule));
            map.insert("message", s(&f.message));
            serde::Value::Object(map)
        })
        .collect();
    let ambiguities = ambiguities
        .iter()
        .map(|a| {
            let mut map = serde::Map::new();
            map.insert("file", s(&a.file));
            map.insert("line", n(a.line as u64));
            map.insert("caller", s(&a.caller));
            map.insert("callee", s(&a.callee));
            map.insert(
                "candidates",
                serde::Value::Array(a.candidates.iter().map(|c| s(c)).collect()),
            );
            serde::Value::Object(map)
        })
        .collect();
    let mut root = serde::Map::new();
    root.insert("findings", serde::Value::Array(findings));
    root.insert("ambiguities", serde::Value::Array(ambiguities));
    root.insert("files_checked", n(files_checked as u64));
    serde_json::to_string_pretty(&serde::Value::Object(root)).unwrap_or_else(|_| "{}".into())
}
