//! Loop-aware hotness analysis over the token stream and the call graph.
//!
//! The PERF rules (PERF001–PERF004) need two facts the per-file passes
//! cannot provide alone:
//!
//! 1. **Loop-nesting depth per token.** The vendored expression layer
//!    flattens control flow into plain blocks, so loop structure is
//!    recovered here by a bracket-frame scan over each function's body
//!    tokens: a `{` opened by a pending `for`/`while`/`loop` keyword is a
//!    loop frame, and the argument list of an iterator adapter
//!    (`.map(..)`, `.fold(..)`, `.retain(..)`, ...) counts as a loop
//!    frame too, because its closure runs once per element.
//! 2. **A workspace hot set.** Starting from the configured replay entry
//!    points (`Machine::simulate`, `MissStream::build`, SimPoint slice
//!    replay, `CampaignClient::run`), hotness propagates forward over the
//!    [`CallGraph`]: a callee's heat is its caller's heat plus the loop
//!    depth of the call site, capped at [`HEAT_CAP`]. A function whose
//!    call site sits inside a loop is therefore *hotter* than its
//!    caller — the transitive loop amplification the diagnostics report.
//!
//! During the same body scan the per-rule sinks are collected (heap
//! allocations, clones, `dyn` dispatch, formatted output) with their
//! exact token-level loop depth, so the rules in [`crate::rules::perf`]
//! only need to join sinks against the hot set.
//!
//! Known approximations (documented in DESIGN.md §3.18): a call on a
//! single-line loop takes the line's maximum depth; `dyn` receivers are
//! recognised from `fn` parameters and `let` bindings, not struct
//! fields (and an `Option<..dyn..>`/`Result<..dyn..>` wrapper does not
//! count — methods on the wrapper are not virtual calls); loop heads
//! share their line's depth with the body when both occupy one line.
//! Unlike DET004's "may call" reachability, hotness does **not**
//! propagate through method-name fan-out wider than
//! [`HOT_FANOUT_CAP`] candidates: a bare `.new()`/`.push()` site that
//! matches half the workspace says nothing about what is actually hot,
//! and precision is the point of a performance triage. `for` loops
//! desugar to nothing at this token level, so each one contributes a
//! synthetic call edge to the workspace's `next` methods at the loop's
//! body depth — that is how the per-event miss-stream decoder gets hot.

use crate::callgraph::CallGraph;
use crate::symbols::SymbolTable;
use crate::Workspace;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use syn::{Token, TokenKind};

/// Transitive heat is clamped here so recursive cycles terminate; any
/// depth at the cap is already "as hot as it gets" for triage purposes.
pub const HEAT_CAP: u32 = 8;

/// Method-call sites whose name matches more than this many workspace
/// methods are too ambiguous to carry heat (see the module docs).
pub const HOT_FANOUT_CAP: usize = 3;

/// Iterator adapters whose closure argument executes once per element:
/// their argument list counts as one loop level.
const ITER_METHODS: &[&str] = &[
    "for_each",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "try_fold",
    "try_for_each",
    "retain",
    "scan",
    "inspect",
    "take_while",
    "skip_while",
    "position",
    "find",
    "find_map",
    "any",
    "all",
    "partition",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
];

/// Allocation sinks spelled as paths (`Type::assoc`).
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];

/// Allocation sinks spelled as method calls.
const ALLOC_METHODS: &[&str] = &["collect", "to_vec"];

/// Formatted-output macros (`format!` is reported by PERF001 when inside
/// a loop and by PERF004 otherwise; the rules dedupe on [`SinkKind`]).
const FMT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "write", "writeln"];

/// What kind of hot-path liability a sink is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// Heap allocation (`Vec::new`, `vec!`, `.collect()`, `Box::new`, ...).
    Alloc,
    /// `.clone()` / `.to_owned()` call.
    Clone,
    /// Method call through a `dyn`-typed receiver.
    DynCall,
    /// `println!`/`write!`-family formatted output.
    Fmt,
    /// `format!` — an allocation *and* formatting; PERF001 claims it in
    /// loops, PERF004 outside them.
    Format,
}

/// One potential PERF sink inside a function body.
#[derive(Debug, Clone)]
pub struct LoopSink {
    /// Classification.
    pub kind: SinkKind,
    /// Source spelling (`Vec::new`, `.clone`, `policy.choose`, `format!`).
    pub display: String,
    /// 1-based source line.
    pub line: usize,
    /// Loop-nesting depth of the sink token within its function.
    pub depth: u32,
}

/// Loop facts for one function body.
#[derive(Debug, Clone, Default)]
pub struct FnLoops {
    /// Maximum loop depth seen per source line (absent means depth 0).
    line_depth: BTreeMap<usize, u32>,
    /// PERF sink candidates, in token order.
    pub sinks: Vec<LoopSink>,
    /// `(line, body depth)` of each `for` loop — the synthetic
    /// `Iterator::next` call edges the fixpoint adds per iteration.
    pub for_loops: Vec<(usize, u32)>,
}

impl FnLoops {
    /// Loop depth a call site on `line` executes at (the line maximum —
    /// exact when the loop body starts on its own line, an
    /// over-approximation for single-line loops).
    pub fn depth_at(&self, line: usize) -> u32 {
        self.line_depth.get(&line).copied().unwrap_or(0)
    }

    /// Deepest loop nesting anywhere in the body.
    pub fn max_depth(&self) -> u32 {
        self.line_depth.values().copied().max().unwrap_or(0)
    }
}

/// The workspace hot set: per-function heat plus the provenance needed
/// to reconstruct "why is this hot" call chains.
#[derive(Debug, Default)]
pub struct Hotness {
    /// Heat per function (indexed like [`SymbolTable::fns`]); `None`
    /// means not reachable from any entry point.
    pub heat: Vec<Option<u32>>,
    /// For non-root hot functions: `(caller, call line, call-site loop
    /// depth)` of the path that *first discovered* the function. Set
    /// exactly once per function, so walking `via` upward strictly
    /// decreases discovery time — the chain is acyclic by construction
    /// even through recursion (whose later heat bumps keep the original
    /// provenance).
    pub via: Vec<Option<(usize, usize, u32)>>,
    /// Per-function loop facts, indexed like [`SymbolTable::fns`].
    pub loops: Vec<FnLoops>,
}

impl Hotness {
    /// Scan every function body and run the heat fixpoint from `roots`.
    pub fn build(ws: &Workspace, table: &SymbolTable, graph: &CallGraph, roots: &[usize]) -> Self {
        let loops: Vec<FnLoops> = table
            .fns
            .iter()
            .map(|f| match f.body {
                Some((lo, hi)) => {
                    let tokens = &ws.files[f.file].file.tokens;
                    scan_fn(tokens, sig_start(tokens, lo), (lo, hi))
                }
                None => FnLoops::default(),
            })
            .collect();

        let mut heat: Vec<Option<u32>> = vec![None; table.fns.len()];
        let mut via: Vec<Option<(usize, usize, u32)>> = vec![None; table.fns.len()];
        let mut queue = VecDeque::new();
        for &r in roots {
            if !table.fns[r].is_test && heat[r].is_none() {
                heat[r] = Some(0);
                queue.push_back(r);
            }
        }
        // The synthetic `for`-loop callees: every workspace
        // `Iterator`-style `next` method (subject to the same fan-out
        // cap as explicit sites).
        let next_methods: Vec<usize> = table
            .fns_named("next")
            .iter()
            .copied()
            .filter(|&i| table.fns[i].self_ty.is_some() || table.fns[i].in_trait_decl)
            .collect();

        // Worklist max-fixpoint: heat only grows and is capped, so the
        // queue drains even through recursion.
        while let Some(f) = queue.pop_front() {
            let base = match heat[f] {
                Some(h) => h,
                None => continue,
            };
            let push = |targets: &[usize],
                        line: usize,
                        d: u32,
                        heat: &mut Vec<Option<u32>>,
                        via: &mut Vec<Option<(usize, usize, u32)>>,
                        queue: &mut VecDeque<usize>| {
                if targets.len() > HOT_FANOUT_CAP {
                    return;
                }
                let cand = (base + d).min(HEAT_CAP);
                for &t in targets {
                    if table.fns[t].is_test {
                        continue;
                    }
                    if heat[t].is_none_or(|h| cand > h) {
                        if heat[t].is_none() {
                            via[t] = Some((f, line, d));
                        }
                        heat[t] = Some(cand);
                        queue.push_back(t);
                    }
                }
            };
            for site in &graph.calls[f] {
                let d = loops[f].depth_at(site.line);
                push(&site.targets, site.line, d, &mut heat, &mut via, &mut queue);
            }
            for &(line, d) in &loops[f].for_loops {
                push(&next_methods, line, d, &mut heat, &mut via, &mut queue);
            }
        }
        Hotness { heat, via, loops }
    }
}

/// Find the start of a function's signature: walk back from the body's
/// opening brace to the nearest `fn` keyword. (A `fn`-pointer *type* in
/// an earlier parameter stops the walk early; parameters before it are
/// then not scanned for `dyn` — a benign under-approximation.)
fn sig_start(tokens: &[Token], body_lo: usize) -> usize {
    let mut i = body_lo.saturating_sub(1);
    while i > 0 {
        if tokens[i].is_ident("fn") {
            return i;
        }
        i -= 1;
    }
    0
}

/// Collect the names of `dyn`-typed bindings visible in the function:
/// parameters (`policy: &mut dyn RowPolicy`) and `let` bindings with an
/// explicit `dyn`-containing type annotation.
fn dyn_bindings(tokens: &[Token], sig_lo: usize, body: (usize, usize)) -> BTreeSet<String> {
    let mut out = BTreeSet::new();

    // Parameters: inside the signature's top-level parens, an ident
    // immediately followed by `:` opens a parameter whose type region
    // runs to the next `,` (or the closing paren) at depth 1. A `dyn`
    // behind an `Option`/`Result` wrapper does not make the *binding*
    // dyn — methods called on the wrapper are ordinary calls.
    let mut i = sig_lo;
    let mut paren_depth = 0usize;
    let mut param: Option<String> = None;
    let mut wrapped = false;
    while i < body.0 {
        let t = &tokens[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => paren_depth += 1,
                ")" | "]" | "}" => {
                    paren_depth = paren_depth.saturating_sub(1);
                    if paren_depth == 0 {
                        break;
                    }
                }
                "," if paren_depth == 1 => {
                    param = None;
                    wrapped = false;
                }
                _ => {}
            }
        } else if t.kind == TokenKind::Ident {
            if paren_depth == 1
                && param.is_none()
                && tokens.get(i + 1).is_some_and(|n| n.is_punct(":"))
            {
                param = Some(t.text.clone());
                wrapped = false;
                i += 2;
                continue;
            }
            match t.text.as_str() {
                "Option" | "Result" => wrapped = true,
                "dyn" if !wrapped => {
                    if let Some(name) = &param {
                        out.insert(name.clone());
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }

    // `let name: ... dyn ... =` bindings in the body.
    let mut i = body.0;
    while i < body.1.min(tokens.len()) {
        if tokens[i].is_ident("let") {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name_tok) = tokens.get(j) {
                if name_tok.kind == TokenKind::Ident
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct(":"))
                {
                    let mut k = j + 2;
                    let mut is_dyn = false;
                    let mut wrapped = false;
                    while k < body.1.min(tokens.len()) {
                        let t = &tokens[k];
                        if t.is_punct("=") || t.is_punct(";") {
                            break;
                        }
                        if t.is_ident("Option") || t.is_ident("Result") {
                            wrapped = true;
                        }
                        if t.is_ident("dyn") && !wrapped {
                            is_dyn = true;
                        }
                        k += 1;
                    }
                    if is_dyn {
                        out.insert(name_tok.text.clone());
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// After an iterator-method ident at `i`, skip an optional turbofish
/// (`::<..>`) and return the index of the argument-list `(` when this is
/// a call.
fn call_paren_after(tokens: &[Token], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct("::"))
        && tokens.get(j + 1).is_some_and(|t| t.is_punct("<"))
    {
        let mut angle = 0i32;
        j += 1;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "<" => angle += 1,
                    "<<" => angle += 2,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    _ => {}
                }
            }
            j += 1;
            if angle <= 0 {
                break;
            }
        }
    }
    if tokens.get(j).is_some_and(|t| t.is_punct("(")) {
        Some(j)
    } else {
        None
    }
}

/// Scan one function: per-line loop depth plus PERF sink candidates.
/// `sig_lo` is the index of the `fn` keyword; `body` the token range
/// inside the braces.
pub fn scan_fn(tokens: &[Token], sig_lo: usize, body: (usize, usize)) -> FnLoops {
    let dyn_names = dyn_bindings(tokens, sig_lo, body);
    let (lo, hi) = (body.0, body.1.min(tokens.len()));

    let mut out = FnLoops::default();
    // Open bracket frames: `true` marks a loop frame (a `{` opened by a
    // pending loop keyword, or an iterator adapter's argument list).
    let mut frames: Vec<bool> = Vec::new();
    let mut loop_depth = 0u32;
    let mut pending_loop = false;
    // Set when the pending loop keyword was `for`: its `{` also records
    // a synthetic `Iterator::next` edge at the loop's line.
    let mut pending_for: Option<usize> = None;
    let mut loop_paren_at: Option<usize> = None;

    let record = |line: usize, depth: u32, map: &mut BTreeMap<usize, u32>| {
        let e = map.entry(line).or_insert(0);
        if depth > *e {
            *e = depth;
        }
    };

    let mut i = lo;
    while i < hi {
        let t = &tokens[i];
        record(t.line, loop_depth, &mut out.line_depth);
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                "{" => {
                    let is_loop = pending_loop;
                    pending_loop = false;
                    frames.push(is_loop);
                    if is_loop {
                        loop_depth += 1;
                        if let Some(line) = pending_for.take() {
                            out.for_loops.push((line, loop_depth));
                        }
                    }
                }
                "(" => {
                    let is_loop = loop_paren_at == Some(i);
                    frames.push(is_loop);
                    if is_loop {
                        loop_depth += 1;
                    }
                }
                "[" => frames.push(false),
                "}" | ")" | "]" => {
                    if let Some(is_loop) = frames.pop() {
                        if is_loop {
                            loop_depth = loop_depth.saturating_sub(1);
                        }
                    }
                }
                _ => {}
            },
            TokenKind::Ident => {
                let prev_dot = i > lo && tokens[i - 1].is_punct(".");
                let next_bang = tokens.get(i + 1).is_some_and(|n| n.is_punct("!"));
                match t.text.as_str() {
                    "for" | "while" | "loop" if !prev_dot => {
                        pending_loop = true;
                        pending_for = (t.text == "for").then_some(t.line);
                    }
                    "vec" if next_bang => out.sinks.push(LoopSink {
                        kind: SinkKind::Alloc,
                        display: "vec!".to_string(),
                        line: t.line,
                        depth: loop_depth,
                    }),
                    "format" if next_bang => out.sinks.push(LoopSink {
                        kind: SinkKind::Format,
                        display: "format!".to_string(),
                        line: t.line,
                        depth: loop_depth,
                    }),
                    name if FMT_MACROS.contains(&name) && next_bang => out.sinks.push(LoopSink {
                        kind: SinkKind::Fmt,
                        display: format!("{name}!"),
                        line: t.line,
                        depth: loop_depth,
                    }),
                    name if prev_dot
                        && ("clone" == name || "to_owned" == name)
                        && call_paren_after(tokens, i).is_some() =>
                    {
                        out.sinks.push(LoopSink {
                            kind: SinkKind::Clone,
                            display: format!(".{name}"),
                            line: t.line,
                            depth: loop_depth,
                        });
                    }
                    name if prev_dot
                        && ALLOC_METHODS.contains(&name)
                        && call_paren_after(tokens, i).is_some() =>
                    {
                        out.sinks.push(LoopSink {
                            kind: SinkKind::Alloc,
                            display: format!(".{name}"),
                            line: t.line,
                            depth: loop_depth,
                        });
                    }
                    name if prev_dot && ITER_METHODS.contains(&name) => {
                        if let Some(p) = call_paren_after(tokens, i) {
                            loop_paren_at = Some(p);
                        }
                    }
                    name if !prev_dot
                        && dyn_names.contains(name)
                        && tokens.get(i + 1).is_some_and(|n| n.is_punct(".")) =>
                    {
                        if let Some(m) = tokens.get(i + 2) {
                            if m.kind == TokenKind::Ident
                                && call_paren_after(tokens, i + 2).is_some()
                            {
                                out.sinks.push(LoopSink {
                                    kind: SinkKind::DynCall,
                                    display: format!("{name}.{}", m.text),
                                    line: m.line,
                                    depth: loop_depth,
                                });
                            }
                        }
                    }
                    name if !prev_dot
                        && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
                        && tokens.get(i + 2).is_some_and(|n| n.kind == TokenKind::Ident) =>
                    {
                        let assoc = &tokens[i + 2];
                        if ALLOC_PATHS.iter().any(|&(ty, m)| ty == name && m == assoc.text)
                            && call_paren_after(tokens, i + 2).is_some()
                        {
                            out.sinks.push(LoopSink {
                                kind: SinkKind::Alloc,
                                display: format!("{name}::{}", assoc.text),
                                line: t.line,
                                depth: loop_depth,
                            });
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> FnLoops {
        let file = syn::parse_file(src).expect("fixture parses");
        // Single top-level fn fixture.
        let (lo, hi) = file.items[0].body.expect("fn has a body");
        scan_fn(&file.tokens, sig_start(&file.tokens, lo), (lo, hi))
    }

    #[test]
    fn tracks_nested_loop_depth_per_line() {
        let l = scan(
            "fn f(n: usize) {\n\
             \x20   let a = 0;\n\
             \x20   for i in 0..n {\n\
             \x20       step(i);\n\
             \x20       while go() {\n\
             \x20           inner();\n\
             \x20       }\n\
             \x20   }\n\
             }\n",
        );
        assert_eq!(l.depth_at(2), 0, "straight-line code");
        assert_eq!(l.depth_at(4), 1, "loop body");
        assert_eq!(l.depth_at(6), 2, "nested loop body");
        assert_eq!(l.max_depth(), 2);
    }

    #[test]
    fn iterator_adapters_count_as_loops() {
        let l = scan(
            "fn f(v: &[u32]) -> u32 {\n\
             \x20   v.iter().map(|x| {\n\
             \x20       expensive(*x)\n\
             \x20   }).sum()\n\
             }\n",
        );
        assert_eq!(l.depth_at(3), 1, "map closure body runs per element");
    }

    #[test]
    fn collects_alloc_clone_and_fmt_sinks_with_depth() {
        let l = scan(
            "fn f(n: usize, v: Vec<u32>) {\n\
             \x20   let base = Vec::new();\n\
             \x20   for i in 0..n {\n\
             \x20       let w = v.clone();\n\
             \x20       let s = format!(\"{i}\");\n\
             \x20       println!(\"{s}\");\n\
             \x20       let u = w.to_vec();\n\
             \x20   }\n\
             }\n",
        );
        let got: Vec<(SinkKind, &str, u32)> =
            l.sinks.iter().map(|s| (s.kind, s.display.as_str(), s.depth)).collect();
        assert_eq!(
            got,
            vec![
                (SinkKind::Alloc, "Vec::new", 0),
                (SinkKind::Clone, ".clone", 1),
                (SinkKind::Format, "format!", 1),
                (SinkKind::Fmt, "println!", 1),
                (SinkKind::Alloc, ".to_vec", 1),
            ]
        );
    }

    #[test]
    fn dyn_receivers_from_params_and_lets() {
        let l = scan(
            "fn f(policy: &mut dyn Policy, n: usize) {\n\
             \x20   let local: &dyn Other = make();\n\
             \x20   for i in 0..n {\n\
             \x20       policy.choose(i);\n\
             \x20       local.probe();\n\
             \x20       n.checked_add(i);\n\
             \x20   }\n\
             }\n",
        );
        let dyns: Vec<(&str, u32)> = l
            .sinks
            .iter()
            .filter(|s| s.kind == SinkKind::DynCall)
            .map(|s| (s.display.as_str(), s.depth))
            .collect();
        assert_eq!(dyns, vec![("policy.choose", 1), ("local.probe", 1)]);
    }

    #[test]
    fn turbofish_collect_is_still_an_alloc() {
        let l = scan(
            "fn f(v: &[u32]) {\n\
             \x20   for _ in 0..2 {\n\
             \x20       let w = v.iter().collect::<Vec<_>>();\n\
             \x20       drop(w);\n\
             \x20   }\n\
             }\n",
        );
        assert!(
            l.sinks.iter().any(|s| s.kind == SinkKind::Alloc && s.display == ".collect"),
            "{:?}",
            l.sinks
        );
    }
}
