//! The rule engine: per-file token/line analysis for the D (determinism),
//! U (unsafe hygiene), P (panic freedom), R (resource bounds) and
//! L (lint discipline) rules.
//!
//! Rule A (API discipline) needs cross-file information and runs on the
//! workspace call graph in [`crate::semantic`].
//!
//! Every rule here is scoped by *where* code lives:
//!
//! * **test code** — files under `tests/`, `benches/` or `examples/`
//!   directories, plus `#[test]` / `#[cfg(test)]` items anywhere — is exempt
//!   from the D and P rules (tests may unwrap and may iterate however they
//!   like) and from the U002 allowlist (a test-only `unsafe` harness such as
//!   a counting allocator is fine *where it is*), but **not** from U001:
//!   every `unsafe` in the tree needs its `// SAFETY:` argument.
//! * **request-path modules** (rule P) and **kernel crates** (rule D002)
//!   are named in [`Config`].

use crate::lexer::{lex, TokKind, Token};
use crate::{Config, Finding, UnsafeSite};

/// Methods whose receiver order is the hash-iteration order.
const ITERATION_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
    "extract_if",
];

/// Everything one file contributes to the workspace report.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings from the path-scoped rules (D/U/P/L), suppressions applied.
    pub findings: Vec<Finding>,
    /// Every `unsafe` occurrence, for the machine-readable inventory.
    pub unsafe_sites: Vec<UnsafeSite>,
}

/// True for paths whose entire contents are test/bench/example code.
pub fn is_test_path(relpath: &str) -> bool {
    let p = relpath.replace('\\', "/");
    p.starts_with("tests/")
        || p.contains("/tests/")
        || p.starts_with("benches/")
        || p.contains("/benches/")
        || p.starts_with("examples/")
        || p.contains("/examples/")
}

/// Analyzes one file.  `relpath` is workspace-relative with forward slashes
/// — several rules are keyed on it (request-path modules, kernel crates,
/// the unsafe allowlist).
pub fn analyze(relpath: &str, source: &str, cfg: &Config) -> FileReport {
    let toks = lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let file_is_test = is_test_path(relpath);
    let test_mask = test_region_mask(&toks);
    let in_test = |i: usize| file_is_test || test_mask[i];

    let mut findings = Vec::new();
    let mut report = FileReport::default();

    let directives = collect_directives(relpath, &toks, &mut findings);

    rule_d001(relpath, &toks, &in_test, &mut findings);
    rule_d002_d003(relpath, &toks, &in_test, cfg, &mut findings);
    rule_d004(relpath, &toks, &in_test, cfg, &mut findings);
    rule_u(
        relpath,
        &toks,
        &lines,
        &in_test,
        cfg,
        &mut findings,
        &mut report.unsafe_sites,
    );
    rule_p(relpath, &toks, &in_test, cfg, &mut findings);
    rule_r001(relpath, &toks, &in_test, cfg, &mut findings);

    // Apply `// nrp-lint: allow(rule) — reason` suppressions last, so a
    // directive covers whichever rule fired on its target line.
    findings.retain(|f| {
        !directives
            .iter()
            .any(|d| d.rule == f.rule && d.target_line == f.line)
    });
    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    report.findings = findings;
    report
}

// ---------------------------------------------------------------------------
// Test regions
// ---------------------------------------------------------------------------

/// Marks tokens covered by an item carrying a `test`-ish attribute
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ...))]`): the attribute
/// itself, any stacked attributes after it, and the item body through its
/// matching close brace (or terminating semicolon).
pub fn test_region_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && next_sig(toks, i + 1).is_some_and(|j| toks[j].is_punct('[')) {
            let attr_start = i;
            let (attr_end, is_test) = scan_attribute(toks, i);
            if is_test {
                let end = scan_item_end(toks, attr_end + 1);
                for slot in mask.iter_mut().take(end.min(toks.len())).skip(attr_start) {
                    *slot = true;
                }
                i = end;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// From a `#` token, returns (index of the closing `]`, attribute mentions
/// `test`).
fn scan_attribute(toks: &[Token], hash: usize) -> (usize, bool) {
    let mut i = hash + 1;
    let mut depth = 0usize;
    let mut is_test = false;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (i, is_test);
            }
        } else if t.is_ident("test") {
            is_test = true;
        }
        i += 1;
    }
    (toks.len() - 1, is_test)
}

/// From the token after an attribute, returns the index just past the item:
/// consumes stacked attributes, then scans to the matching `}` of the first
/// body brace (or past a terminating `;` for brace-less items).
fn scan_item_end(toks: &[Token], mut i: usize) -> usize {
    // Stacked attributes (`#[cfg(test)] #[ignore] fn ...`).
    while i < toks.len()
        && toks[i].is_punct('#')
        && next_sig(toks, i + 1).is_some_and(|j| toks[j].is_punct('['))
    {
        let (end, _) = scan_attribute(toks, i);
        i = end + 1;
    }
    let mut paren = 0i64;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct(';') && paren == 0 {
            return i + 1;
        } else if t.is_punct('{') && paren == 0 {
            let mut depth = 0i64;
            while i < toks.len() {
                if toks[i].is_punct('{') {
                    depth += 1;
                } else if toks[i].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                i += 1;
            }
            return toks.len();
        }
        i += 1;
    }
    toks.len()
}

/// Index of the next non-comment token at or after `i`.
fn next_sig(toks: &[Token], mut i: usize) -> Option<usize> {
    while i < toks.len() {
        if !toks[i].is_comment() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Index of the previous non-comment token at or before `i`.
fn prev_sig(toks: &[Token], i: usize) -> Option<usize> {
    let mut j = i;
    loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        if !toks[j].is_comment() {
            return Some(j);
        }
    }
}

// ---------------------------------------------------------------------------
// Allow directives (and rule L001)
// ---------------------------------------------------------------------------

struct Directive {
    rule: String,
    target_line: u32,
}

/// Well-formed (reasoned) `allow` directives of a file, as
/// `(rule, target line)` pairs — the semantic pass applies these to the
/// workspace-level findings (K/H/P004) the per-file engine never sees.
pub fn suppressions(toks: &[Token]) -> Vec<(String, u32)> {
    let mut sink = Vec::new();
    collect_directives("", toks, &mut sink)
        .into_iter()
        .map(|d| (d.rule, d.target_line))
        .collect()
}

/// Parses `// nrp-lint: allow(rule-id) — reason` comments.  A directive
/// without a reason is itself a finding (L001) and suppresses nothing.
fn collect_directives(
    relpath: &str,
    toks: &[Token],
    findings: &mut Vec<Finding>,
) -> Vec<Directive> {
    let mut directives = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if !tok.is_comment() || !tok.text.contains("nrp-lint:") {
            continue;
        }
        let Some(rest) = tok.text.split("nrp-lint:").nth(1) else {
            continue;
        };
        let rest = rest.trim_start();
        let parsed = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split_once(')'))
            .map(|(rule, after)| (rule.trim().to_string(), after));
        let Some((rule, after)) = parsed else {
            findings.push(Finding::new(
                relpath,
                tok.line,
                "L001",
                "malformed `nrp-lint:` directive (expected `allow(rule-id) — reason`)".into(),
            ));
            continue;
        };
        let reason = after
            .trim_matches(|c: char| {
                c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':' | ',') || c == '*'
            })
            .trim();
        if reason.is_empty() {
            findings.push(Finding::new(
                relpath,
                tok.line,
                "L001",
                format!("`allow({rule})` without a reason — append `— <why this is sound>`"),
            ));
            continue;
        }
        // A trailing directive covers its own line; a standalone comment
        // covers the next code line.
        let standalone = !toks[..i]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .any(|t| !t.is_comment());
        let target_line = if standalone {
            next_sig(toks, i + 1)
                .map(|j| toks[j].line)
                .unwrap_or(tok.line)
        } else {
            tok.line
        };
        directives.push(Directive { rule, target_line });
    }
    directives
}

// ---------------------------------------------------------------------------
// Rule D001 — HashMap/HashSet iteration
// ---------------------------------------------------------------------------

/// Names bound (as locals, parameters or fields) to a `HashMap`/`HashSet`
/// in this file, found by the declaration patterns `name: [&mut] Hash…` and
/// `name = Hash…::…`.
fn tracked_hash_names(toks: &[Token]) -> Vec<String> {
    let mut tracked = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if !(tok.is_ident("HashMap") || tok.is_ident("HashSet")) {
            continue;
        }
        let Some(mut j) = prev_sig(toks, i) else {
            continue;
        };
        // Skip `&`, `mut` and lifetimes between the binder and the type.
        for _ in 0..3 {
            if toks[j].is_punct('&') || toks[j].is_ident("mut") || toks[j].kind == TokKind::Lifetime
            {
                match prev_sig(toks, j) {
                    Some(p) => j = p,
                    None => break,
                }
            }
        }
        let binder = if toks[j].is_punct(':') || toks[j].is_punct('=') {
            prev_sig(toks, j).map(|p| &toks[p])
        } else {
            None
        };
        if let Some(b) = binder {
            if b.kind == TokKind::Ident && !matches!(b.text.as_str(), "let" | "mut" | "pub") {
                tracked.push(b.text.clone());
            }
        }
    }
    tracked
}

fn rule_d001(
    relpath: &str,
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    let tracked = tracked_hash_names(toks);
    if tracked.is_empty() {
        return;
    }
    let is_tracked = |t: &Token| t.kind == TokKind::Ident && tracked.contains(&t.text);
    for (i, tok) in toks.iter().enumerate() {
        if in_test(i) || tok.is_comment() {
            continue;
        }
        // `<tracked>.iter()` and friends.
        if is_tracked(tok) {
            if let Some(dot) = next_sig(toks, i + 1) {
                if toks[dot].is_punct('.') {
                    if let Some(m) = next_sig(toks, dot + 1) {
                        let method = &toks[m];
                        if method.kind == TokKind::Ident
                            && ITERATION_METHODS.contains(&method.text.as_str())
                            && next_sig(toks, m + 1).is_some_and(|p| toks[p].is_punct('('))
                        {
                            findings.push(Finding::new(
                                relpath,
                                tok.line,
                                "D001",
                                format!(
                                    "`{}.{}()` iterates a HashMap/HashSet in nondeterministic \
                                     order — sort first, use a BTree/Vec, or allow with a reason",
                                    tok.text, method.text
                                ),
                            ));
                        }
                    }
                }
            }
        }
        // `for x in [&mut] <tracked> {`.
        if tok.is_ident("in") {
            let Some(mut j) = next_sig(toks, i + 1) else {
                continue;
            };
            for _ in 0..2 {
                if toks[j].is_punct('&') || toks[j].is_ident("mut") {
                    match next_sig(toks, j + 1) {
                        Some(n) => j = n,
                        None => break,
                    }
                }
            }
            if is_tracked(&toks[j]) && next_sig(toks, j + 1).is_some_and(|b| toks[b].is_punct('{'))
            {
                findings.push(Finding::new(
                    relpath,
                    toks[j].line,
                    "D001",
                    format!(
                        "`for … in {}` iterates a HashMap/HashSet in nondeterministic order — \
                         sort first, use a BTree/Vec, or allow with a reason",
                        toks[j].text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rules D002 (wall-clock in kernel crates), O001 (wall-clock outside the
// clock-owning crate) and D003 (unseeded RNG)
// ---------------------------------------------------------------------------

fn rule_d002_d003(
    relpath: &str,
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    let in_kernel = cfg
        .kernel_prefixes
        .iter()
        .any(|p| relpath.starts_with(p.as_str()));
    let timing_exempt = cfg.timing_allowed.iter().any(|p| p == relpath);
    let kernel = in_kernel && !timing_exempt;
    let clock_owner = cfg
        .clock_owner
        .iter()
        .any(|p| relpath.starts_with(p.as_str()));
    for (i, tok) in toks.iter().enumerate() {
        if in_test(i) || tok.kind != TokKind::Ident {
            continue;
        }
        let path_call = |name: &str| -> bool {
            tok.is_ident(name)
                && next_sig(toks, i + 1).is_some_and(|a| toks[a].is_punct(':'))
                && next_sig(toks, i + 2).is_some_and(|b| toks[b].is_punct(':'))
        };
        if path_call("Instant") || path_call("SystemTime") {
            if kernel {
                findings.push(Finding::new(
                    relpath,
                    tok.line,
                    "D002",
                    format!(
                        "`{}::…` reads the wall clock inside a kernel crate — timing belongs to \
                         the observability layer (`nrp_obs::clock`), or allow with a reason",
                        tok.text
                    ),
                ));
            } else if !in_kernel && !clock_owner && !timing_exempt {
                findings.push(Finding::new(
                    relpath,
                    tok.line,
                    "O001",
                    format!(
                        "`{}::…` reads the wall clock outside the clock-owning crate — route \
                         timing through `nrp_obs::clock::now()`, or allow with a reason",
                        tok.text
                    ),
                ));
            }
        }
        if matches!(
            tok.text.as_str(),
            "thread_rng" | "from_entropy" | "from_os_rng" | "OsRng"
        ) || (path_call("rand")
            && next_sig(toks, i + 3).is_some_and(|j| toks[j].is_ident("random")))
        {
            findings.push(Finding::new(
                relpath,
                tok.line,
                "D003",
                format!(
                    "`{}` constructs an unseeded RNG — every RNG in this workspace must come \
                     from an explicit seed",
                    tok.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule D004 — fused multiply-add in the FMA-free crates
// ---------------------------------------------------------------------------

/// True for a `std::arch` fused multiply-add intrinsic: x86's
/// `_mm*_f[n]madd*`/`_mm*_f[n]msub*` families and AArch64's `vfma*`/`vfms*`.
fn is_fma_intrinsic(name: &str) -> bool {
    (name.starts_with("_mm")
        && ["_fmadd", "_fmsub", "_fnmadd", "_fnmsub"]
            .iter()
            .any(|f| name.contains(f)))
        || name.starts_with("vfma")
        || name.starts_with("vfms")
}

/// True for a string literal that is the value of `enable = "…"` and names
/// the `fma` target feature.
fn enables_fma(toks: &[Token], i: usize) -> bool {
    let tok = &toks[i];
    tok.kind == TokKind::Literal
        && tok.text.starts_with('"')
        && prev_sig(toks, i).is_some_and(|eq| {
            toks[eq].is_punct('=') && prev_sig(toks, eq).is_some_and(|e| toks[e].is_ident("enable"))
        })
        && tok
            .text
            .trim_matches('"')
            .split(',')
            .any(|feature| feature.trim() == "fma")
}

fn rule_d004(
    relpath: &str,
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    if !cfg.fma_free.iter().any(|p| relpath.starts_with(p.as_str())) {
        return;
    }
    for (i, tok) in toks.iter().enumerate() {
        if in_test(i) {
            continue;
        }
        let what = if tok.is_ident("mul_add") {
            "`mul_add`"
        } else if tok.kind == TokKind::Ident && is_fma_intrinsic(&tok.text) {
            "an FMA intrinsic"
        } else if enables_fma(toks, i) {
            "enabling the `fma` target feature"
        } else {
            continue;
        };
        findings.push(Finding::new(
            relpath,
            tok.line,
            "D004",
            format!(
                "{what} fuses a multiply and an add into one rounding, so results would \
                 depend on the instruction set — keep `a * b + c` as two operations"
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// Rules U001/U002 — unsafe hygiene (plus the inventory)
// ---------------------------------------------------------------------------

/// True when the lines immediately above `line` (1-based) form a
/// comment/attribute block containing `SAFETY:` (or the line itself does).
fn has_safety_comment(lines: &[&str], line: u32) -> bool {
    let idx = line as usize - 1;
    if idx >= lines.len() {
        return false;
    }
    if lines[idx].contains("SAFETY:") {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = lines[i].trim_start();
        let continues = t.starts_with("//")
            || t.starts_with("#[")
            || t.starts_with("#!")
            || t.starts_with("/*")
            || t.starts_with('*');
        if !continues {
            return false;
        }
        if t.contains("SAFETY:") {
            return true;
        }
    }
    false
}

fn rule_u(
    relpath: &str,
    toks: &[Token],
    lines: &[&str],
    in_test: &dyn Fn(usize) -> bool,
    cfg: &Config,
    findings: &mut Vec<Finding>,
    inventory: &mut Vec<UnsafeSite>,
) {
    for (i, tok) in toks.iter().enumerate() {
        if !tok.is_ident("unsafe") {
            continue;
        }
        let kind = match next_sig(toks, i + 1) {
            Some(j) if toks[j].is_punct('{') => "block",
            Some(j) if toks[j].is_ident("fn") => "fn",
            Some(j) if toks[j].is_ident("impl") => "impl",
            Some(j) if toks[j].is_ident("trait") => "trait",
            Some(j) if toks[j].is_ident("extern") => "extern",
            _ => "other",
        };
        let documented = has_safety_comment(lines, tok.line);
        let test_code = in_test(i);
        let allowlisted = cfg.unsafe_allowed.iter().any(|p| p == relpath);
        inventory.push(UnsafeSite {
            file: relpath.to_string(),
            line: tok.line,
            kind: kind.to_string(),
            documented,
            allowlisted,
            test_code,
            reachable_from: Vec::new(),
        });
        if !documented {
            findings.push(Finding::new(
                relpath,
                tok.line,
                "U001",
                format!(
                    "`unsafe` {kind} without a `// SAFETY:` comment immediately above — state \
                     the aliasing/lifetime/initialization argument"
                ),
            ));
        }
        if !test_code && !allowlisted {
            findings.push(Finding::new(
                relpath,
                tok.line,
                "U002",
                format!(
                    "`unsafe` is denied outside the allowlisted modules ({}) — move the \
                     unsafety behind a safe kernel API or extend the allowlist deliberately",
                    cfg.unsafe_allowed.join(", ")
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rules P001/P002/P003 — panic freedom in the serving request path
// ---------------------------------------------------------------------------

fn rule_p(
    relpath: &str,
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    if !cfg.request_path.iter().any(|p| p == relpath) {
        return;
    }
    for (i, tok) in toks.iter().enumerate() {
        if in_test(i) || tok.kind != TokKind::Ident {
            continue;
        }
        // P001: `.unwrap()` / `.expect(` — the `_or`/`_err` variants are
        // fine (they do not panic on the request path).
        if matches!(tok.text.as_str(), "unwrap" | "expect")
            && prev_sig(toks, i).is_some_and(|p| toks[p].is_punct('.'))
            && next_sig(toks, i + 1).is_some_and(|n| toks[n].is_punct('('))
        {
            findings.push(Finding::new(
                relpath,
                tok.line,
                "P001",
                format!(
                    "`.{}()` on the serving request path can kill a worker thread — return a \
                     typed `HttpError`/5xx response instead",
                    tok.text
                ),
            ));
        }
        // P002: panic-family macros.
        if matches!(tok.text.as_str(), "panic" | "todo" | "unimplemented")
            && next_sig(toks, i + 1).is_some_and(|n| toks[n].is_punct('!'))
        {
            findings.push(Finding::new(
                relpath,
                tok.line,
                "P002",
                format!(
                    "`{}!` on the serving request path — answer with an error response",
                    tok.text
                ),
            ));
        }
        // P003: slice-index-by-literal (`headers[0]`).
        if let (Some(open), true) = (
            next_sig(toks, i + 1),
            true, // receiver is this ident
        ) {
            if toks[open].is_punct('[') {
                if let Some(lit) = next_sig(toks, open + 1) {
                    if toks[lit].is_integer_literal()
                        && next_sig(toks, lit + 1).is_some_and(|c| toks[c].is_punct(']'))
                    {
                        findings.push(Finding::new(
                            relpath,
                            tok.line,
                            "P003",
                            format!(
                                "`{}[{}]` indexes by literal on the request path — use `.get({})` \
                                 and handle `None`",
                                tok.text, toks[lit].text, toks[lit].text
                            ),
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule R001 — unbounded growth on the serving request path
// ---------------------------------------------------------------------------

/// Methods that grow a collection by one element.
const GROWTH_METHODS: &[&str] = &["push", "push_back"];

/// True when the token at `i` starts a comparison operator.  `forward`
/// selects the reading direction: after a `.len()` call (`x.len() < cap`,
/// `x.len() == cap`) or before the receiver (`cap > x.len()`,
/// `cap >= x.len()`).  A bare `=` only counts as part of `==`/`<=`/`>=`/
/// `!=` — plain assignment (`let n = x.len()`) is not a bound check.
fn comparison_at(toks: &[Token], i: usize, forward: bool) -> bool {
    let t = &toks[i];
    if t.is_punct('<') || t.is_punct('>') {
        return true;
    }
    if t.is_punct('=') {
        return if forward {
            next_sig(toks, i + 1).is_some_and(|n| toks[n].is_punct('='))
        } else {
            prev_sig(toks, i).is_some_and(|p| {
                toks[p].is_punct('=')
                    || toks[p].is_punct('<')
                    || toks[p].is_punct('>')
                    || toks[p].is_punct('!')
            })
        };
    }
    t.is_punct('!') && forward && next_sig(toks, i + 1).is_some_and(|n| toks[n].is_punct('='))
}

/// Collection names this file visibly bounds: bound to a
/// `Type::with_capacity(…)` call (as a `let` binding or a struct-literal
/// field), or compared through `.len()` against a limit somewhere in the
/// file.  Purely syntactic, like [`tracked_hash_names`]: the point is to
/// force every request-path growth site to carry *visible* evidence of its
/// bound (or an `allow` stating it), not to prove the bound.
fn bounded_collection_names(toks: &[Token]) -> Vec<String> {
    let mut bounded = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        // `binder = Type::with_capacity(…)` / `field: Type::with_capacity(…)`.
        if tok.is_ident("with_capacity") {
            let name = prev_sig(toks, i)
                .filter(|&a| toks[a].is_punct(':'))
                .and_then(|a| prev_sig(toks, a))
                .filter(|&b| toks[b].is_punct(':'))
                .and_then(|b| prev_sig(toks, b))
                .filter(|&t| toks[t].kind == TokKind::Ident)
                .and_then(|t| binder_before(toks, t));
            if let Some(name) = name {
                bounded.push(name);
            }
        }
        // `name.len()` adjacent to a comparison — a visible bound check.
        if tok.is_ident("len") && prev_sig(toks, i).is_some_and(|d| toks[d].is_punct('.')) {
            let receiver = prev_sig(toks, i)
                .and_then(|d| prev_sig(toks, d))
                .filter(|&r| toks[r].kind == TokKind::Ident);
            let close = next_sig(toks, i + 1)
                .filter(|&o| toks[o].is_punct('('))
                .and_then(|o| next_sig(toks, o + 1))
                .filter(|&c| toks[c].is_punct(')'));
            let (Some(receiver), Some(close)) = (receiver, close) else {
                continue;
            };
            // Walk `self.free` / `state.queue.inner` back to the start of
            // the place expression, so a comparison before it is seen.
            let mut expr_start = receiver;
            while let Some(dot) = prev_sig(toks, expr_start).filter(|&d| toks[d].is_punct('.')) {
                match prev_sig(toks, dot).filter(|&p| toks[p].kind == TokKind::Ident) {
                    Some(p) => expr_start = p,
                    None => break,
                }
            }
            let cmp_after = next_sig(toks, close + 1).is_some_and(|n| comparison_at(toks, n, true));
            let cmp_before =
                prev_sig(toks, expr_start).is_some_and(|p| comparison_at(toks, p, false));
            if cmp_after || cmp_before {
                bounded.push(toks[receiver].text.clone());
            }
        }
    }
    bounded
}

/// The name bound by an initializer whose right-hand side is
/// `Type::with_capacity(…)`, where `type_idx` is the `Type` token: either
/// the field of a struct-literal `field: Type::with_capacity(…)` or the
/// binding of `let [mut] name[: T] = Type::with_capacity(…)`.
fn binder_before(toks: &[Token], type_idx: usize) -> Option<String> {
    let sep = prev_sig(toks, type_idx)?;
    if toks[sep].is_punct(':') {
        let name = prev_sig(toks, sep)?;
        // A second `:` means this was a path segment (`vec::Vec::…`), not a
        // struct-literal field.
        (toks[name].kind == TokKind::Ident).then(|| toks[name].text.clone())
    } else if toks[sep].is_punct('=') {
        // `let mut name: Vec<X> = Vec::with_capacity(…)` — scan back to the
        // `let` of this statement and take its binding.
        let mut j = sep;
        loop {
            j = prev_sig(toks, j)?;
            let t = &toks[j];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                return None;
            }
            if t.is_ident("let") {
                let mut n = next_sig(toks, j + 1)?;
                if toks[n].is_ident("mut") {
                    n = next_sig(toks, n + 1)?;
                }
                return (toks[n].kind == TokKind::Ident).then(|| toks[n].text.clone());
            }
        }
    } else {
        None
    }
}

/// R001: every `.push(…)` / `.push_back(…)` in a request-path module must
/// target a collection with visible evidence of a bound — a
/// `with_capacity` initialization or a `len()` comparison somewhere in the
/// file — or carry an `allow(R001)` directive stating the bound.  An
/// overload-resilient server must not hold unbounded buffers on the paths
/// attackers (or load spikes) feed.
fn rule_r001(
    relpath: &str,
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    if !cfg.request_path.iter().any(|p| p == relpath) {
        return;
    }
    let bounded = bounded_collection_names(toks);
    for (i, tok) in toks.iter().enumerate() {
        if in_test(i) || tok.kind != TokKind::Ident {
            continue;
        }
        if !GROWTH_METHODS.contains(&tok.text.as_str()) {
            continue;
        }
        let Some(dot) = prev_sig(toks, i).filter(|&d| toks[d].is_punct('.')) else {
            continue;
        };
        if !next_sig(toks, i + 1).is_some_and(|n| toks[n].is_punct('(')) {
            continue;
        }
        let receiver = prev_sig(toks, dot).filter(|&r| toks[r].kind == TokKind::Ident);
        let name = match receiver {
            Some(r) => toks[r].text.clone(),
            None => "<expr>".to_string(),
        };
        if bounded.contains(&name) {
            continue;
        }
        findings.push(Finding::new(
            relpath,
            tok.line,
            "R001",
            format!(
                "`{name}.{}()` grows a collection on the serving request path with no \
                 visible bound — initialize it `with_capacity`, guard it with a `len()` \
                 comparison, or allow with a reason stating the bound",
                tok.text
            ),
        ));
    }
}
