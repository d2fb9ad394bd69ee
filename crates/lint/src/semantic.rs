//! The workspace-level semantic pass: everything that needs the item
//! parser, the call graph and the lock model together.
//!
//! Produces the K findings (via [`crate::locks`]), the H findings (static
//! zero-allocation checking of warm paths), transitive panic reachability
//! (P004), the call-graph-backed A rules, per-unsafe-site reachability for
//! the inventory artifact, and the `lock-order.json` payload.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{Ambiguity, CallGraph, FileIndex};
use crate::lexer::TokKind;
use crate::locks::{analyze_locks, LockAnalysis};
use crate::parser::{next_sig, prev_sig};
use crate::rules::suppressions;
use crate::{Config, Finding};

/// Allocation constructors (H001): `Type::ctor` pairs that always allocate
/// (or may, for `with_capacity`) on the heap.
const ALLOC_TYPES: &[&str] = &[
    "Vec", "VecDeque", "String", "Box", "HashMap", "HashSet", "BTreeMap", "BTreeSet",
];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];

/// Allocating method calls (H001).
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "collect"];

/// Allocating macros (H001).
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Amortized growth operations (H002) — exempt in `warm_proven` files,
/// whose steady-state allocation freedom a counting-allocator test proves.
const GROWTH_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "reserve",
    "resize",
    "append",
];

/// Constructor names exempt from H when the *type* (not a function) is the
/// configured root: building a `PushWorkspace` is the cold path.
const COLD_CTORS: &[&str] = &["new", "with_capacity", "default"];

/// What the semantic pass feeds back into the workspace report.
#[derive(Debug, Default)]
pub struct SemanticReport {
    /// K/H/P004/A findings, file-local suppressions already applied.
    pub findings: Vec<Finding>,
    /// Call sites that resolved to more than one candidate.
    pub ambiguities: Vec<Ambiguity>,
    /// Pretty-printed `lock-order.json` payload.
    pub lock_order_json: String,
    /// Denominator of the lock-coverage self-check: every
    /// `Mutex`/`RwLock`/`Condvar` identifier in the workspace.
    pub lock_type_sites: usize,
    /// Named lock declarations discovered.
    pub lock_decls: usize,
    /// `(file, line)` of each unsafe site -> public functions that
    /// transitively reach its enclosing function.
    pub unsafe_reachable: BTreeMap<(String, u32), Vec<String>>,
}

/// Runs the semantic pass over the full workspace source set.
pub fn analyze_workspace(sources: &[(String, String)], cfg: &Config) -> SemanticReport {
    let files: Vec<FileIndex> = sources
        .iter()
        .map(|(rel, src)| FileIndex::build(rel, src))
        .collect();
    let graph = CallGraph::build(&files);
    let locks = analyze_locks(&files, &graph, cfg);

    let mut report = SemanticReport {
        ambiguities: graph.ambiguities.clone(),
        lock_type_sites: locks.type_sites,
        lock_decls: locks.decls.len(),
        lock_order_json: lock_order_json(&locks),
        ..SemanticReport::default()
    };
    let mut findings = locks.findings.clone();

    rule_h(&files, &graph, cfg, &mut findings);
    rule_p004(&files, &graph, cfg, &mut findings);
    rule_a(&files, &graph, &mut findings);
    report.unsafe_reachable = unsafe_reachability(&files, &graph);

    // File-local `// nrp-lint: allow(rule) — reason` directives suppress
    // semantic findings exactly like per-file ones.
    let mut allowed: BTreeMap<&str, Vec<(String, u32)>> = BTreeMap::new();
    for fi in &files {
        allowed.insert(&fi.relpath, suppressions(&fi.toks));
    }
    findings.retain(|f| {
        !allowed
            .get(f.file.as_str())
            .is_some_and(|sup| sup.iter().any(|(r, l)| *r == f.rule && *l == f.line))
    });
    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    findings.dedup();
    report.findings = findings;
    report
}

/// Root node set for the H rules: functions named in `hot_roots` plus all
/// methods of types named there (minus cold constructors).
fn hot_root_ids(graph: &CallGraph, cfg: &Config) -> BTreeSet<usize> {
    let mut roots = BTreeSet::new();
    for (id, n) in graph.nodes.iter().enumerate() {
        if n.is_test {
            continue;
        }
        let fn_root = cfg.hot_roots.contains(&n.name);
        let ty_root = n
            .impl_type
            .as_deref()
            .is_some_and(|t| cfg.hot_roots.iter().any(|r| r == t))
            && !COLD_CTORS.contains(&n.name.as_str());
        if fn_root || ty_root {
            roots.insert(id);
        }
    }
    roots
}

/// H001/H002 — static zero-allocation checking of warm paths.
fn rule_h(files: &[FileIndex], graph: &CallGraph, cfg: &Config, findings: &mut Vec<Finding>) {
    let roots = hot_root_ids(graph, cfg);
    if roots.is_empty() {
        return;
    }
    let reachable = graph.reachable_from(&roots);
    for &id in &reachable {
        let node = &graph.nodes[id];
        if node.is_test {
            continue;
        }
        let fi = &files[node.file_idx];
        let warm_proven = cfg.warm_proven.contains(&fi.relpath);
        let chain = || chain_from_roots(graph, &roots, id);
        let toks = &fi.toks;
        for i in fi.fns[node.fn_idx].body.clone() {
            let tok = &toks[i];
            if tok.kind != TokKind::Ident {
                continue;
            }
            let name = tok.text.as_str();
            // Macros: `format!(…)`, `vec![…]`.
            if ALLOC_MACROS.contains(&name)
                && next_sig(toks, i + 1).is_some_and(|p| toks[p].is_punct('!'))
            {
                findings.push(Finding::new(
                    &fi.relpath,
                    tok.line,
                    "H001",
                    format!(
                        "`{name}!` allocates on the warm path ({}) — preallocate in the \
                         workspace or return a typed value",
                        chain()
                    ),
                ));
                continue;
            }
            // Constructors: `Vec::new(…)`, `Box::new(…)`, `String::from(…)`.
            if ALLOC_TYPES.contains(&name) {
                if let Some(ctor) = path_segment_after(toks, i) {
                    if ALLOC_CTORS.contains(&ctor.text.as_str()) {
                        findings.push(Finding::new(
                            &fi.relpath,
                            tok.line,
                            "H001",
                            format!(
                                "`{name}::{}` allocates on the warm path ({}) — reuse the \
                                 workspace's buffers instead",
                                ctor.text,
                                chain()
                            ),
                        ));
                        continue;
                    }
                }
            }
            // Method calls: `.to_string()`, `.collect()`, and growth ops.
            let is_method = prev_sig(toks, i).is_some_and(|p| toks[p].is_punct('.'))
                && next_sig(toks, i + 1).is_some_and(|p| toks[p].is_punct('('));
            if is_method && ALLOC_METHODS.contains(&name) {
                findings.push(Finding::new(
                    &fi.relpath,
                    tok.line,
                    "H001",
                    format!(
                        "`.{name}()` allocates on the warm path ({}) — write into a \
                         reused buffer",
                        chain()
                    ),
                ));
                continue;
            }
            if is_method && !warm_proven && GROWTH_METHODS.contains(&name) {
                findings.push(Finding::new(
                    &fi.relpath,
                    tok.line,
                    "H002",
                    format!(
                        "`.{name}()` may grow its container on the warm path ({}) — \
                         preallocate, or move the function into a `warm_proven` file \
                         backed by a counting-allocator test",
                        chain()
                    ),
                ));
            }
        }
    }
}

/// The `Seg` of `Type::Seg` when the token at `ty` is followed by `::`.
fn path_segment_after(toks: &[crate::lexer::Token], ty: usize) -> Option<&crate::lexer::Token> {
    let c1 = next_sig(toks, ty + 1).filter(|&p| toks[p].is_punct(':'))?;
    let c2 = next_sig(toks, c1 + 1).filter(|&p| toks[p].is_punct(':'))?;
    let seg = next_sig(toks, c2 + 1)?;
    (toks[seg].kind == TokKind::Ident).then(|| &toks[seg])
}

/// P004 — transitive panic reachability: panic sites in functions reachable
/// from the request path, outside the request-path files themselves (those
/// are already covered line-by-line by P001/P002).
fn rule_p004(files: &[FileIndex], graph: &CallGraph, cfg: &Config, findings: &mut Vec<Finding>) {
    let roots: BTreeSet<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.is_test && cfg.request_path.contains(&n.file))
        .map(|(id, _)| id)
        .collect();
    if roots.is_empty() {
        return;
    }
    let reachable = graph.reachable_from(&roots);
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for &id in &reachable {
        let node = &graph.nodes[id];
        if node.is_test || cfg.request_path.contains(&node.file) {
            continue;
        }
        let fi = &files[node.file_idx];
        let toks = &fi.toks;
        for i in fi.fns[node.fn_idx].body.clone() {
            let tok = &toks[i];
            if tok.kind != TokKind::Ident {
                continue;
            }
            let panic_site = match tok.text.as_str() {
                "unwrap" | "expect" => {
                    prev_sig(toks, i).is_some_and(|p| toks[p].is_punct('.'))
                        && next_sig(toks, i + 1).is_some_and(|p| toks[p].is_punct('('))
                }
                "panic" | "todo" | "unimplemented" => {
                    next_sig(toks, i + 1).is_some_and(|p| toks[p].is_punct('!'))
                }
                _ => false,
            };
            if !panic_site || !seen.insert((fi.relpath.clone(), tok.line)) {
                continue;
            }
            findings.push(Finding::new(
                &fi.relpath,
                tok.line,
                "P004",
                format!(
                    "`{}` can panic and is reachable from the serving request path ({}) — \
                     return an error, or allow with a proof it cannot fire",
                    tok.text,
                    chain_from_roots(graph, &roots, id)
                ),
            ));
        }
    }
}

/// A001/A002 on call-graph facts: `*_exec` is a kernel's only threaded entry
/// point, so a public `*_with` thread-count wrapper beside it is a finding,
/// and every public `*_exec` kernel needs a call edge from the
/// thread-invariance roster.
fn rule_a(files: &[FileIndex], graph: &CallGraph, findings: &mut Vec<Finding>) {
    const ROSTER: &str = "tests/thread_invariance.rs";
    // Every node the roster file's tests call, plus names as written —
    // method calls on externally-typed receivers still count by name.
    let mut roster_called: BTreeSet<usize> = BTreeSet::new();
    for (id, n) in graph.nodes.iter().enumerate() {
        if n.file == ROSTER {
            roster_called.extend(graph.edges[id].iter().copied());
        }
    }
    let roster_names: BTreeSet<&str> = roster_called
        .iter()
        .map(|&id| graph.nodes[id].name.as_str())
        .collect();

    for node in &graph.nodes {
        if node.is_test || !node.is_pub || !node.name.ends_with("_exec") {
            continue;
        }
        let base = node.name.strip_suffix("_exec").unwrap_or(&node.name);
        if base.is_empty() {
            continue;
        }
        let with = format!("{base}_with");
        for wrapper in files[node.file_idx]
            .fns
            .iter()
            .filter(|d| d.is_pub && !d.is_test && d.name == with)
        {
            findings.push(Finding::new(
                &node.file,
                wrapper.line,
                "A001",
                format!(
                    "`{with}` duplicates `{}` — `*_exec` is the only threaded entry \
                     point; callers pass `Exec::sequential()` or a pooled `Exec`",
                    node.name
                ),
            ));
        }
        if !roster_names.contains(node.name.as_str()) {
            findings.push(Finding::new(
                &node.file,
                node.line,
                "A002",
                format!(
                    "`{}` is never called from the tests/thread_invariance.rs roster — \
                     every Exec kernel must prove bitwise thread-invariance",
                    node.name
                ),
            ));
        }
    }
}

/// For every line with code in a function, which public non-test functions
/// reach it — keyed by `(file, first line..last line)` lookup done by the
/// caller per unsafe site.
fn unsafe_reachability(
    files: &[FileIndex],
    graph: &CallGraph,
) -> BTreeMap<(String, u32), Vec<String>> {
    // Line span per node, from the declaration line to the line of the last
    // body token.
    let mut spans: Vec<(usize, u32, u32)> = Vec::new();
    for (id, n) in graph.nodes.iter().enumerate() {
        let fi = &files[n.file_idx];
        let body = &fi.fns[n.fn_idx].body;
        let end = body
            .end
            .checked_sub(1)
            .and_then(|e| fi.toks.get(e))
            .map(|t| t.line)
            .unwrap_or(n.line);
        spans.push((id, n.line, end.max(n.line)));
    }
    let mut out = BTreeMap::new();
    for fi in files {
        for (i, tok) in fi.toks.iter().enumerate() {
            if !tok.is_ident("unsafe") {
                continue;
            }
            let _ = i;
            let Some(&(node_id, ..)) = spans.iter().find(|&&(id, lo, hi)| {
                graph.nodes[id].file == fi.relpath && tok.line >= lo && tok.line <= hi
            }) else {
                continue;
            };
            let reachers = graph.reaching(&BTreeSet::from([node_id]));
            let mut names: Vec<String> = reachers
                .iter()
                .filter(|&&r| graph.nodes[r].is_pub && !graph.nodes[r].is_test && r != node_id)
                .map(|&r| graph.nodes[r].qualified())
                .collect();
            names.sort();
            names.dedup();
            out.insert((fi.relpath.clone(), tok.line), names);
        }
    }
    out
}

/// `root → … → target` rendered for messages, from whichever root reaches
/// `target` by the shortest chain found first.
fn chain_from_roots(graph: &CallGraph, roots: &BTreeSet<usize>, target: usize) -> String {
    for &r in roots {
        let chain = graph.chain(r, target);
        if !chain.is_empty() {
            return chain.join(" → ");
        }
    }
    graph.nodes[target].qualified()
}

fn s(v: &str) -> serde::Value {
    serde::Value::String(v.to_string())
}

fn n(v: u32) -> serde::Value {
    serde::Value::Number(serde::Number::PosInt(v as u64))
}

fn obj(fields: impl IntoIterator<Item = (&'static str, serde::Value)>) -> serde::Value {
    let mut map = serde::Map::new();
    for (k, v) in fields {
        map.insert(k, v);
    }
    serde::Value::Object(map)
}

/// Renders the lock inventory as the `lock-order.json` artifact.
fn lock_order_json(locks: &LockAnalysis) -> String {
    let decls = serde::Value::Array(
        locks
            .decls
            .iter()
            .map(|d| {
                obj([
                    ("name", s(&d.name)),
                    ("kind", s(d.kind.as_str())),
                    ("file", s(&d.file)),
                    ("line", n(d.line)),
                    ("test", serde::Value::Bool(d.test_code)),
                ])
            })
            .collect(),
    );
    let edges = serde::Value::Array(
        locks
            .edges
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("held", s(&e.held)),
                    ("acquired", s(&e.acquired)),
                    ("file", s(&e.file)),
                    ("line", n(e.line)),
                    ("fn", s(&e.func)),
                ];
                if let Some(via) = &e.via {
                    fields.push(("via", s(via)));
                }
                obj(fields)
            })
            .collect(),
    );
    let waits = serde::Value::Array(
        locks
            .waits
            .iter()
            .map(|w| {
                obj([
                    ("condvar", s(&w.condvar)),
                    ("lock", s(&w.lock)),
                    ("file", s(&w.file)),
                    ("line", n(w.line)),
                    ("fn", s(&w.func)),
                ])
            })
            .collect(),
    );
    let coverage = obj([
        ("type_sites", n(locks.type_sites as u32)),
        ("declared", n(locks.decls.len() as u32)),
    ]);
    let root = obj([
        ("locks", decls),
        ("order_edges", edges),
        ("condvar_waits", waits),
        ("coverage", coverage),
    ]);
    serde_json::to_string_pretty(&root).unwrap_or_else(|_| "{}".into())
}
