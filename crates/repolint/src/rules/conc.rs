//! CONC001–CONC004: cross-crate concurrency safety.
//!
//! The campaign engine runs its grid cells on a worker pool over shared,
//! lock-guarded caches (the trace memo and the artifact store), so the
//! determinism guarantees also depend on lock discipline. These rules
//! combine the guard-liveness pass
//! ([`crate::guards`]) with the workspace call graph:
//!
//! - **CONC001** — a `Mutex`/`RwLock` guard is held across a call that
//!   may block (channel send/recv, `Condvar::wait`, `JoinHandle::join`,
//!   file/socket I/O — including transitively, e.g. through the
//!   `ArtifactStore` disk paths). The diagnostic reconstructs the call
//!   chain from the guarded call site to the blocking sink, DET004-style.
//! - **CONC002** — lock-order cycles: an edge `A -> B` is recorded when
//!   lock B is acquired (directly or through a callee) while a guard on
//!   A is live; any cycle in that graph — including a self-loop, i.e.
//!   re-acquiring a non-reentrant lock — is a potential deadlock.
//! - **CONC003** — non-`Send`-pattern state (`static mut`, `Rc`,
//!   `RefCell`/`Cell`/`UnsafeCell`) reachable from a `thread::spawn`
//!   site through the call graph.
//! - **CONC004** — a spawned thread whose `JoinHandle` is discarded
//!   (`let _ = ...spawn(..)`) in library code: detached threads outlive
//!   shutdown and can race teardown.
//!
//! Propagation through the call graph skips *ubiquitous* method names
//! (`get`, `len`, `clone`, `load`, `store`, ...): the method-call
//! fallback fans those out to every same-named workspace method, and one
//! blocking `Workspace::load` would otherwise taint every atomic
//! `.load(Ordering)` in the tree. Blocking sinks at the *direct* call
//! site are never filtered, only transitive propagation is. See
//! DESIGN.md §3.17 for the full approximation ledger.

use crate::config::RuleCfg;
use crate::diag::Diagnostic;
use crate::rules::{diag_at, SemanticCtx};
use crate::source::FileKind;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Method-name sinks that block regardless of arity.
const METHOD_SINKS: &[&str] = &[
    "recv",
    "recv_timeout",
    "send",
    "wait",
    "wait_timeout",
    "wait_while",
    "accept",
    "connect",
    "flush",
    "sync_all",
    "write_all",
    "read_to_end",
    "read_to_string",
    "read_exact",
];

/// Path-call sinks: suffixes of the qualified spelling.
const PATH_SINKS: &[&str] = &[
    "File::open",
    "File::create",
    "UnixStream::connect",
    "TcpStream::connect",
    "UnixListener::bind",
    "TcpListener::bind",
    "thread::sleep",
];

/// Classify a call display as a direct blocking sink.
fn blocking_sink(display: &str, args: usize) -> Option<String> {
    if let Some(name) = display.strip_prefix('.') {
        if METHOD_SINKS.contains(&name) {
            return Some(display.to_string());
        }
        // `.join` collides with `Vec::join`/`Path::join`, which take an
        // argument; a zero-argument `.join()` is a JoinHandle wait.
        if name == "join" && args == 0 {
            return Some(display.to_string());
        }
        return None;
    }
    let segs: Vec<&str> = display.split("::").collect();
    if segs.len() >= 2 && segs[segs.len() - 2] == "fs" {
        // `std::fs::read`, `fs::write`, `fs::create_dir_all`, ...: all disk I/O.
        return Some(display.to_string());
    }
    for s in PATH_SINKS {
        if display == *s || display.ends_with(&format!("::{s}")) {
            return Some((*s).to_string());
        }
    }
    None
}

/// Ubiquitous method names: never propagated through transitively
/// (the name-based method fan-out makes them connect everything to
/// everything). Deliberately absent: `send`, `recv`, `wait`, `flush`,
/// `join`, `complete` — those carry the blocking signal.
const UBIQUITOUS: &[&str] = &[
    "get",
    "get_mut",
    "clone",
    "len",
    "is_empty",
    "insert",
    "remove",
    "push",
    "pop",
    "entry",
    "or_default",
    "or_insert",
    "or_insert_with",
    "iter",
    "iter_mut",
    "into_iter",
    "values",
    "values_mut",
    "keys",
    "contains_key",
    "contains",
    "take",
    "push_back",
    "pop_front",
    "drain",
    "extend",
    "fetch_add",
    "fetch_sub",
    "load",
    "store",
    "next",
    "map",
    "and_then",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "sum",
    "count",
    "collect",
    "any",
    "all",
    "min",
    "max",
    "cmp",
    "eq",
    "hash",
    "fmt",
    "to_string",
    "as_ref",
    "as_mut",
    "borrow",
    "deref",
    "default",
    "new",
];

/// Should call-graph propagation skip this call site? (Direct sinks are
/// classified before this runs.)
fn skip_propagation(display: &str) -> bool {
    let last = display.rsplit("::").next().unwrap_or(display);
    let name = last.strip_prefix('.').unwrap_or(last);
    UBIQUITOUS.contains(&name) || matches!(name, "lock" | "read" | "write" | "try_lock")
}

/// Why a function may block: either it contains a direct sink, or it
/// calls (a function that calls ... ) one.
#[derive(Debug, Clone)]
enum Blocking {
    Direct { sink: String, line: usize },
    Via { callee: usize, line: usize },
}

/// Per-function may-block classification: reverse BFS from direct-sink
/// functions over the call graph, skipping ubiquitous-name edges.
fn blocking_map(sem: &SemanticCtx<'_>) -> Vec<Option<Blocking>> {
    let table = &sem.table;
    let mut blocking: Vec<Option<Blocking>> = vec![None; table.fns.len()];

    // Reverse edges: callee -> (caller, call line, display).
    let mut rev: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); table.fns.len()];
    for (fi, sites) in sem.graph.calls.iter().enumerate() {
        if table.fns[fi].is_test {
            continue;
        }
        for (si, site) in sites.iter().enumerate() {
            if skip_propagation(&site.display) {
                continue;
            }
            for &t in &site.targets {
                rev[t].push((fi, si, site.line));
            }
        }
    }

    let mut queue = VecDeque::new();
    for (fi, f) in table.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        for call in &sem.conc[fi].calls {
            if let Some(sink) = blocking_sink(&call.display, call.args) {
                blocking[fi] = Some(Blocking::Direct { sink, line: call.line });
                queue.push_back(fi);
                break;
            }
        }
    }
    while let Some(fi) = queue.pop_front() {
        for &(caller, _si, line) in &rev[fi] {
            if blocking[caller].is_none() {
                blocking[caller] = Some(Blocking::Via { callee: fi, line });
                queue.push_back(caller);
            }
        }
    }
    blocking
}

/// Is this function's code eligible for findings under this rule config?
fn in_scope(sem: &SemanticCtx<'_>, cfg: &RuleCfg, fi: usize) -> bool {
    let f = &sem.table.fns[fi];
    if f.is_test || sem.ctxs[f.file].kind == FileKind::Test {
        return false;
    }
    if let Some(crates) = &cfg.crates {
        if !crates.iter().any(|c| c == &f.crate_name) {
            return false;
        }
    }
    true
}

/// Per-function map from `(line, display)` to merged resolved targets,
/// so guard-region uses can be matched back to call-graph edges.
fn target_map(sem: &SemanticCtx<'_>, fi: usize) -> BTreeMap<(usize, String), Vec<usize>> {
    let mut map: BTreeMap<(usize, String), Vec<usize>> = BTreeMap::new();
    for site in &sem.graph.calls[fi] {
        map.entry((site.line, site.display.clone())).or_default().extend(site.targets.iter());
    }
    map
}

/// CONC001: guard held across a (possibly transitive) blocking call.
pub fn check001(sem: &SemanticCtx<'_>, cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    let table = &sem.table;
    let blocking = blocking_map(sem);
    for (fi, fc) in sem.conc.iter().enumerate() {
        if fc.regions.is_empty() || !in_scope(sem, cfg, fi) {
            continue;
        }
        let f = &table.fns[fi];
        let ctx = &sem.ctxs[f.file];
        let targets = target_map(sem, fi);
        for region in &fc.regions {
            if ctx.in_test(region.line) {
                continue;
            }
            for call in &region.uses {
                if let Some(sink) = blocking_sink(&call.display, call.args) {
                    out.push(diag_at(
                        "CONC001",
                        ctx.path,
                        call.line,
                        format!(
                            "guard on `{}` (acquired at {}:{}) is held across blocking call \
                             `{sink}` ({}:{}); shrink the guard scope so the lock is released \
                             before blocking",
                            region.lock, ctx.path, region.line, ctx.path, call.line
                        ),
                    ));
                    continue;
                }
                if skip_propagation(&call.display) {
                    continue;
                }
                let Some(ts) = targets.get(&(call.line, call.display.clone())) else { continue };
                let Some(&t) = ts.iter().find(|&&t| blocking[t].is_some()) else { continue };
                let (chain, sink) = chain_from(sem, &blocking, fi, call.line, t);
                out.push(diag_at(
                    "CONC001",
                    ctx.path,
                    call.line,
                    format!(
                        "guard on `{}` (acquired at {}:{}) is held across a call that may \
                         block; call chain: {} -> {sink}; shrink the guard scope so the lock \
                         is released before blocking",
                        region.lock,
                        ctx.path,
                        region.line,
                        chain.join(" -> ")
                    ),
                ));
            }
        }
    }
}

/// Reconstruct `holder -> callee -> ... -> sink` from the blocking map.
fn chain_from(
    sem: &SemanticCtx<'_>,
    blocking: &[Option<Blocking>],
    holder: usize,
    use_line: usize,
    first: usize,
) -> (Vec<String>, String) {
    let table = &sem.table;
    let path_of = |fi: usize| sem.ctxs[table.fns[fi].file].path;
    let mut chain = vec![format!("`{}`", table.fns[holder].qual())];
    chain.push(format!("`{}` (called at {}:{use_line})", table.fns[first].qual(), path_of(holder)));
    let mut cur = first;
    loop {
        match &blocking[cur] {
            Some(Blocking::Via { callee, line }) => {
                let at = format!("{}:{line}", path_of(cur));
                cur = *callee;
                chain.push(format!("`{}` (called at {at})", table.fns[cur].qual()));
            }
            Some(Blocking::Direct { sink, line }) => {
                return (chain, format!("`{sink}` ({}:{line})", path_of(cur)));
            }
            None => return (chain, "`<blocking>`".to_string()),
        }
    }
}

/// One lock-order edge's first witness.
#[derive(Debug, Clone)]
struct EdgeWitness {
    path: String,
    line: usize,
    in_fn: String,
    via: Option<String>,
}

/// CONC002: cycles in the lock-acquisition-order graph.
pub fn check002(sem: &SemanticCtx<'_>, cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    let table = &sem.table;

    // Fixpoint: locks each function may acquire, directly or through
    // callees (ubiquitous-name edges and test code excluded).
    let mut trans: Vec<BTreeSet<String>> =
        sem.conc.iter().map(|fc| fc.regions.iter().map(|r| r.lock.clone()).collect()).collect();
    loop {
        let mut changed = false;
        for (fi, f) in table.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let mut add: BTreeSet<String> = BTreeSet::new();
            for site in &sem.graph.calls[fi] {
                if skip_propagation(&site.display) {
                    continue;
                }
                for &t in &site.targets {
                    if !table.fns[t].is_test {
                        add.extend(trans[t].iter().cloned());
                    }
                }
            }
            for lock in add {
                changed |= trans[fi].insert(lock);
            }
        }
        if !changed {
            break;
        }
    }

    // Edges A -> B (B acquired while A held), first witness wins.
    let mut edges: BTreeMap<(String, String), EdgeWitness> = BTreeMap::new();
    for (fi, fc) in sem.conc.iter().enumerate() {
        if fc.regions.is_empty() || !in_scope(sem, cfg, fi) {
            continue;
        }
        let f = &table.fns[fi];
        let ctx = &sem.ctxs[f.file];
        let targets = target_map(sem, fi);
        for region in &fc.regions {
            if ctx.in_test(region.line) {
                continue;
            }
            for (lock_b, line) in &region.acquires {
                edges.entry((region.lock.clone(), lock_b.clone())).or_insert(EdgeWitness {
                    path: ctx.path.to_string(),
                    line: *line,
                    in_fn: f.qual(),
                    via: None,
                });
            }
            for call in &region.uses {
                if skip_propagation(&call.display) {
                    continue;
                }
                let Some(ts) = targets.get(&(call.line, call.display.clone())) else { continue };
                for &t in ts {
                    for lock_b in &trans[t] {
                        edges.entry((region.lock.clone(), lock_b.clone())).or_insert(EdgeWitness {
                            path: ctx.path.to_string(),
                            line: call.line,
                            in_fn: f.qual(),
                            via: Some(table.fns[t].qual()),
                        });
                    }
                }
            }
        }
    }

    // Cycle detection over lock names: successor closure per node, then
    // one diagnostic per strongly-connected knot (self-loops included).
    let succ = |a: &String| -> Vec<&String> {
        edges.keys().filter(|(x, _)| x == a).map(|(_, b)| b).collect()
    };
    let reaches = |from: &String, to: &String| -> bool {
        let mut seen: BTreeSet<&String> = BTreeSet::new();
        let mut q: VecDeque<&String> = succ(from).into_iter().collect();
        while let Some(n) = q.pop_front() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                q.extend(succ(n));
            }
        }
        false
    };
    let nodes: BTreeSet<String> = edges.keys().map(|(a, _)| a.clone()).collect();
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for a in &nodes {
        if reported.contains(a) || !reaches(a, a) {
            continue;
        }
        // Canonical cycle: shortest path a -> ... -> a via BFS.
        let cycle = shortest_cycle(a, &edges);
        for n in &cycle {
            reported.insert(n.clone());
        }
        let mut desc = vec![format!("`{a}`")];
        for w in cycle.windows(2) {
            let e = &edges[&(w[0].clone(), w[1].clone())];
            desc.push(render_edge(&w[1], e));
        }
        let last = &edges[&(cycle[cycle.len() - 1].clone(), a.clone())];
        desc.push(render_edge(a, last));
        let first = &edges[&(a.clone(), cycle.get(1).unwrap_or(a).clone())];
        out.push(diag_at(
            "CONC002",
            &first.path,
            first.line,
            format!(
                "lock-order cycle: {}; threads taking these locks in different orders can \
                 deadlock — pick one global order",
                desc.join(" -> ")
            ),
        ));
    }
}

fn render_edge(to: &str, e: &EdgeWitness) -> String {
    match &e.via {
        Some(via) => format!(
            "`{to}` (acquired via `{via}` called at {}:{} in `{}`)",
            e.path, e.line, e.in_fn
        ),
        None => format!("`{to}` (acquired at {}:{} in `{}`)", e.path, e.line, e.in_fn),
    }
}

/// Shortest cycle `start -> ... -> start` over the edge set (the
/// self-loop case returns just `[start]`).
fn shortest_cycle(start: &String, edges: &BTreeMap<(String, String), EdgeWitness>) -> Vec<String> {
    if edges.contains_key(&(start.clone(), start.clone())) {
        return vec![start.clone()];
    }
    let mut parent: BTreeMap<String, String> = BTreeMap::new();
    let mut q = VecDeque::new();
    q.push_back(start.clone());
    while let Some(n) = q.pop_front() {
        for (a, b) in edges.keys() {
            if *a != n {
                continue;
            }
            if b == start {
                let mut path = vec![n.clone()];
                let mut cur = n.clone();
                while let Some(p) = parent.get(&cur) {
                    path.push(p.clone());
                    cur = p.clone();
                }
                path.reverse();
                return path;
            }
            if b != start && !parent.contains_key(b) {
                parent.insert(b.clone(), n.clone());
                q.push_back(b.clone());
            }
        }
    }
    vec![start.clone()]
}

/// Non-`Send`-pattern constructors flagged by CONC003.
const NON_SEND_CTORS: &[(&str, &str)] =
    &[("Rc", "new"), ("RefCell", "new"), ("Cell", "new"), ("UnsafeCell", "new")];

/// CONC003: non-`Send`-pattern state reachable from spawned code.
pub fn check003(sem: &SemanticCtx<'_>, cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    let table = &sem.table;

    // Spawn roots: the spawning function's body *contains* the closure
    // (the expression layer flattens closures into blocks), so reaching
    // from it covers both the closure body and everything it calls.
    let roots: Vec<usize> = sem
        .conc
        .iter()
        .enumerate()
        .filter(|(fi, fc)| !fc.spawns.is_empty() && !table.fns[*fi].is_test)
        .map(|(fi, _)| fi)
        .collect();
    if roots.is_empty() {
        return;
    }

    // `static mut` names per crate, from a raw token scan.
    let mut static_muts: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for pf in &sem.ws.files {
        let toks = &pf.file.tokens;
        for w in toks.windows(3) {
            if w[0].is_ident("static") && w[1].is_ident("mut") && w[2].kind == syn::TokenKind::Ident
            {
                static_muts.entry(pf.crate_name.as_str()).or_default().insert(&w[2].text);
            }
        }
    }

    let state = sem.graph.reach(table, &roots);
    for (fi, reached) in state.iter().enumerate() {
        if reached.is_none() || !in_scope(sem, cfg, fi) {
            continue;
        }
        let f = &table.fns[fi];
        let ctx = &sem.ctxs[f.file];
        let Some((lo, hi)) = f.body else { continue };
        let empty = BTreeSet::new();
        let muts = static_muts.get(f.crate_name.as_str()).unwrap_or(&empty);
        let stmts = syn::expr::parse_stmts(&sem.ws.files[f.file].file.tokens, lo, hi);
        let mut found: Vec<(usize, String)> = Vec::new();
        syn::expr::walk_stmts(&stmts, &mut |e| match e {
            syn::expr::Expr::Call { func, line, .. } => {
                if let syn::expr::Expr::Path { segs, .. } = func.as_ref() {
                    if segs.len() >= 2 {
                        let (ty, m) = (&segs[segs.len() - 2], &segs[segs.len() - 1]);
                        if NON_SEND_CTORS.iter().any(|(t, f)| t == ty && f == m) {
                            found.push((*line, format!("{ty}::{m}")));
                        }
                    }
                }
            }
            syn::expr::Expr::MethodCall { method, args, line, .. }
                if method == "borrow_mut" && args.is_empty() =>
            {
                found.push((*line, ".borrow_mut".to_string()));
            }
            syn::expr::Expr::Path { segs, line, .. }
                if segs.len() == 1 && muts.contains(segs[0].as_str()) =>
            {
                found.push((*line, format!("static mut `{}`", segs[0])));
            }
            _ => {}
        });
        for (line, what) in found {
            if ctx.in_test(line) {
                continue;
            }
            let chain = spawn_chain(sem, &state, fi);
            out.push(diag_at(
                "CONC003",
                ctx.path,
                line,
                format!(
                    "non-Send pattern {what} is reachable from a thread spawn; call chain: \
                     {} -> {what} ({}:{line}); use Arc/Mutex (or atomics) for cross-thread \
                     state",
                    chain.join(" -> "),
                    ctx.path
                ),
            ));
        }
    }
}

/// DET004-style chain reconstruction from the spawn root.
fn spawn_chain(
    sem: &SemanticCtx<'_>,
    state: &[Option<Option<(usize, usize)>>],
    fi: usize,
) -> Vec<String> {
    let table = &sem.table;
    let mut rev = Vec::new();
    let mut cur = fi;
    loop {
        match state[cur] {
            Some(Some((parent, line))) => {
                let caller_file = table.fns[parent].file;
                rev.push(format!(
                    "`{}` (called at {}:{line})",
                    table.fns[cur].qual(),
                    sem.ctxs[caller_file].path
                ));
                cur = parent;
            }
            _ => {
                rev.push(format!("`{}` (spawn site)", table.fns[cur].qual()));
                break;
            }
        }
    }
    rev.reverse();
    rev
}

/// CONC004: discarded `JoinHandle`s in library code.
pub fn check004(sem: &SemanticCtx<'_>, cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    for (fi, fc) in sem.conc.iter().enumerate() {
        if fc.spawns.is_empty() || !in_scope(sem, cfg, fi) {
            continue;
        }
        let f = &sem.table.fns[fi];
        let ctx = &sem.ctxs[f.file];
        if ctx.kind != FileKind::Lib {
            continue;
        }
        for sp in &fc.spawns {
            if !sp.discarded || ctx.in_test(sp.line) {
                continue;
            }
            out.push(diag_at(
                "CONC004",
                ctx.path,
                sp.line,
                format!(
                    "spawned thread's JoinHandle is discarded at {}:{}; a detached thread \
                     outlives shutdown and can race teardown — keep the handle and join it \
                     (or annotate why detaching is safe)",
                    ctx.path, sp.line
                ),
            ));
        }
    }
}
