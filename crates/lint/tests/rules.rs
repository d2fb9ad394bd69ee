//! Fixture-driven rule tests: each known-bad snippet under
//! `tests/fixtures/` must produce exactly the expected `file:line: rule-id`
//! findings, and each false-positive foil must stay clean.  The fixtures
//! directory is excluded from the workspace walk, so these snippets never
//! pollute a `--workspace` run.
//!
//! Path-scoped rules (D002, U002, P) are probed by linting a fixture under a
//! *virtual* workspace-relative path — the same mechanism the CLI exposes as
//! `FILE=VIRTUAL`.

use nrp_lint::{lint_source, Config, Finding};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(line, rule)` pairs of all findings, for order-insensitive comparison.
fn line_rules(findings: &[Finding]) -> Vec<(u32, &str)> {
    findings.iter().map(|f| (f.line, f.rule.as_str())).collect()
}

#[test]
fn d001_catches_every_iteration_shape() {
    let report = lint_source(
        "crates/graph/src/fixture.rs",
        &fixture("d001_hashmap_iteration.rs"),
        &Config::default(),
    );
    assert_eq!(
        line_rules(&report.findings),
        vec![
            (6, "D001"),  // for … in edges.iter()
            (14, "D001"), // for node in nodes
            (22, "D001"), // weights.keys()
            (23, "D001"), // weights.values()
            (29, "D001"), // seen.drain()
        ],
        "{:#?}",
        report.findings
    );
}

#[test]
fn d001_ignores_lookups_btrees_and_test_code() {
    let report = lint_source(
        "crates/graph/src/fixture.rs",
        &fixture("d001_lookup_clean.rs"),
        &Config::default(),
    );
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
}

#[test]
fn d002_fires_only_under_kernel_paths() {
    let source = fixture("d002_timing.rs");
    let cfg = Config::default();
    let in_kernel = lint_source("crates/linalg/src/timing.rs", &source, &cfg);
    assert_eq!(
        line_rules(&in_kernel.findings),
        vec![(6, "D002"), (11, "D002")],
        "{:#?}",
        in_kernel.findings
    );
    // Outside the kernel D002 stays quiet — the same sites are O001's
    // territory (non-kernel code routes timing through `nrp_obs::clock`).
    let outside = lint_source("crates/bench/src/timing.rs", &source, &cfg);
    assert_eq!(
        line_rules(&outside.findings),
        vec![(6, "O001"), (11, "O001")],
        "{:#?}",
        outside.findings
    );
}

#[test]
fn o001_fires_everywhere_but_the_clock_owner_and_tests() {
    let source = fixture("o001_clock.rs");
    let cfg = Config::default();
    let in_serve = lint_source("crates/serve/src/timing.rs", &source, &cfg);
    assert_eq!(
        line_rules(&in_serve.findings),
        vec![(6, "O001"), (10, "O001")], // the line-14 read carries an allow
        "{:#?}",
        in_serve.findings
    );
    let owner = lint_source("crates/obs/src/clock.rs", &source, &cfg);
    assert!(owner.findings.is_empty(), "{:#?}", owner.findings);
    let in_test = lint_source("crates/serve/tests/timing.rs", &source, &cfg);
    assert!(in_test.findings.is_empty(), "{:#?}", in_test.findings);
}

#[test]
fn d003_catches_unseeded_rng_construction() {
    let report = lint_source(
        "crates/core/src/fixture.rs",
        &fixture("d003_rng.rs"),
        &Config::default(),
    );
    assert_eq!(
        line_rules(&report.findings),
        vec![
            (4, "D003"), // thread_rng
            (5, "D003"), // from_entropy
            (6, "D003"), // OsRng
            (7, "D003"), // rand::random
        ],
        "{:#?}",
        report.findings
    );
}

#[test]
fn u001_wants_safety_comments_even_where_unsafe_is_allowed() {
    // Virtual path = the allowlisted module, so U002 stays quiet and the
    // only findings are the two undocumented sites.
    let report = lint_source(
        "crates/linalg/src/parallel.rs",
        &fixture("u001_unsafe.rs"),
        &Config::default(),
    );
    assert_eq!(
        line_rules(&report.findings),
        vec![(10, "U001"), (14, "U001")],
        "{:#?}",
        report.findings
    );
    // The inventory records all three sites, flagging the undocumented two.
    assert_eq!(report.unsafe_sites.len(), 3);
    assert_eq!(
        report.unsafe_sites.iter().filter(|s| s.documented).count(),
        1
    );
    assert!(report.unsafe_sites.iter().all(|s| s.allowlisted));
}

#[test]
fn u002_denies_unsafe_outside_the_allowlist() {
    // Same fixture under a non-allowlisted path: U002 fires on every site,
    // documented or not.
    let report = lint_source(
        "crates/graph/src/graph.rs",
        &fixture("u001_unsafe.rs"),
        &Config::default(),
    );
    let u002: Vec<u32> = report
        .findings
        .iter()
        .filter(|f| f.rule == "U002")
        .map(|f| f.line)
        .collect();
    assert_eq!(u002, vec![6, 10, 14], "{:#?}", report.findings);
    assert!(report.unsafe_sites.iter().all(|s| !s.allowlisted));
}

#[test]
fn p_rules_guard_request_path_modules_only() {
    let source = fixture("p_panics.rs");
    let cfg = Config::default();
    let on_path = lint_source("crates/serve/src/http.rs", &source, &cfg);
    assert_eq!(
        line_rules(&on_path.findings),
        vec![
            (5, "P001"),  // unwrap
            (6, "P001"),  // expect
            (12, "P002"), // panic!
            (14, "P002"), // todo!
            (16, "P002"), // unimplemented!
            (21, "P003"), // headers[0]
        ],
        "{:#?}",
        on_path.findings
    );
    // The identical code in a non-request-path module of the same crate is
    // out of scope for the P rules.
    let off_path = lint_source("crates/serve/src/config.rs", &source, &cfg);
    assert!(off_path.findings.is_empty(), "{:#?}", off_path.findings);
}

#[test]
fn r001_flags_unbounded_growth_on_the_request_path_only() {
    let source = fixture("r001_unbounded_growth.rs");
    let cfg = Config::default();
    let on_path = lint_source("crates/serve/src/http.rs", &source, &cfg);
    assert_eq!(
        line_rules(&on_path.findings),
        vec![
            (9, "R001"),  // sink.push — Vec::new, no visible bound
            (17, "R001"), // inbox.push_back — VecDeque::new, no visible bound
        ],
        "{:#?}",
        on_path.findings
    );
    // `with_capacity` inits (let bindings and struct-literal fields), `len()`
    // comparisons in either direction, reasoned allows and test code are all
    // accepted bound evidence — none of those sites fire above.
    let off_path = lint_source("crates/serve/src/config.rs", &source, &cfg);
    assert!(off_path.findings.is_empty(), "{:#?}", off_path.findings);
}

#[test]
fn lexer_edge_cases_keep_rules_and_line_numbers_exact() {
    // Zero-hash raw strings must end at their quote (the `unwrap` after
    // `r"C:\"` is real code), raw strings must hide their contents, nested
    // block comments must close correctly, and `\`-newline escapes must not
    // shift line numbers.  Linted under a request-path virtual path so the
    // P rules probe all of it.
    let report = lint_source(
        "crates/serve/src/http.rs",
        &fixture("lexer_edges.rs"),
        &Config::default(),
    );
    assert_eq!(
        line_rules(&report.findings),
        vec![
            (6, "P001"),  // after the r"C:\" literal
            (15, "P003"), // after the nested block comment
            (20, "P001"), // expect, past lifetimes and a char literal
            (27, "P001"), // line number survives the \-newline escape
        ],
        "{:#?}",
        report.findings
    );
}

#[test]
fn allow_directives_suppress_with_a_reason_and_flag_without() {
    let report = lint_source(
        "crates/graph/src/fixture.rs",
        &fixture("allow_comments.rs"),
        &Config::default(),
    );
    // The two reasoned directives suppress their D001s; the reason-less one
    // is an L001 *and* its D001 still stands.
    assert_eq!(
        line_rules(&report.findings),
        vec![(16, "L001"), (17, "D001")],
        "{:#?}",
        report.findings
    );
}

#[test]
fn findings_format_as_file_line_rule_message() {
    let report = lint_source(
        "crates/serve/src/http.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        &Config::default(),
    );
    assert_eq!(report.findings.len(), 1);
    let rendered = report.findings[0].to_string();
    assert!(
        rendered.starts_with("crates/serve/src/http.rs:1: P001 "),
        "{rendered}"
    );
}

#[test]
fn rule_a_flags_missing_twin_and_missing_roster_entry() {
    // Rule A is cross-file, so drive it through lint_workspace on a
    // synthetic mini-workspace.
    let dir = tempfile::tempdir().expect("tempdir");
    let root = dir.path();
    std::fs::create_dir_all(root.join("crates/linalg/src")).expect("mkdir");
    std::fs::create_dir_all(root.join("tests")).expect("mkdir");
    std::fs::write(
        root.join("crates/linalg/src/kernels.rs"),
        r#"
pub fn rowsum_exec(n: usize, exec: &Exec) -> f64 { 0.0 }
pub fn rowsum(n: usize) -> f64 { 0.0 }
pub fn colsum_exec(n: usize, exec: &Exec) -> f64 { 0.0 }
pub fn rowsum_with(n: usize, threads: usize) -> f64 { 0.0 }
"#,
    )
    .expect("write kernels");
    // The roster *calls* rowsum_exec but not colsum_exec — A002 is a
    // call-graph fact, so a mere mention in a comment would not count.
    std::fs::write(
        root.join("tests/thread_invariance.rs"),
        "// roster: colsum_exec mentioned but never called\n\
         #[test]\n\
         fn roster() { let _ = rowsum_exec(3, &exec()); }\n",
    )
    .expect("write roster");

    let report = nrp_lint::lint_workspace(root, &Config::default()).expect("walk");
    let rules: Vec<(&str, &str)> = report
        .findings
        .iter()
        .map(|f| (f.rule.as_str(), f.file.as_str()))
        .collect();
    assert_eq!(
        rules,
        vec![
            ("A002", "crates/linalg/src/kernels.rs"), // colsum not in roster
            ("A001", "crates/linalg/src/kernels.rs"), // rowsum_with beside rowsum_exec
        ],
        "{:#?}",
        report.findings
    );
}
