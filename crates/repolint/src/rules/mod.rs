//! The rule set. Each rule is a function over a [`FileCtx`] that pushes
//! [`Diagnostic`]s; severity and crate scoping are applied here so the
//! rules themselves stay focused on pattern matching.

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::diag::{Diagnostic, Severity};
use crate::guards::{self, FnConc};
use crate::hotness::Hotness;
use crate::source::FileCtx;
use crate::symbols::SymbolTable;
use crate::Workspace;

pub mod api001;
pub mod conc;
pub mod det001;
pub mod det002;
pub mod det003;
pub mod det004;
pub mod fp001;
pub mod panic001;
pub mod perf;
pub mod unit001;

type RuleFn = fn(&FileCtx<'_>, &crate::config::RuleCfg, &mut Vec<Diagnostic>);

/// Rule codes in reporting order, paired with their check functions.
pub const ALL: &[(&str, RuleFn)] = &[
    ("DET001", det001::check),
    ("DET002", det002::check),
    ("DET003", det003::check),
    ("PANIC001", panic001::check),
    ("FP001", fp001::check),
    ("UNIT001", unit001::check),
];

/// Shared input to the workspace-wide (semantic) rules: the parsed
/// workspace plus the symbol table and call graph built over it.
pub struct SemanticCtx<'a> {
    /// Parsed workspace files.
    pub ws: &'a Workspace,
    /// Per-file lint contexts, indexed like [`Workspace::files`].
    pub ctxs: &'a [FileCtx<'a>],
    /// Workspace symbol table.
    pub table: SymbolTable,
    /// Workspace call graph.
    pub graph: CallGraph,
    /// Guard-liveness analysis per function, indexed like
    /// [`SymbolTable::fns`].
    pub conc: Vec<FnConc>,
    /// Loop-aware hot-set analysis from the PERF entry points
    /// (empty when every PERF rule is disabled).
    pub hot: Hotness,
}

type SemanticFn = fn(&SemanticCtx<'_>, &crate::config::RuleCfg, &mut Vec<Diagnostic>);

/// Workspace-wide rules, run after the per-file passes. Crate scoping
/// is interpreted *inside* each rule (for DET004 it scopes the sinks,
/// not the roots), so only severity and suppressions are generic here.
pub const SEMANTIC: &[(&str, SemanticFn)] = &[
    ("DET004", det004::check),
    ("API001", api001::check),
    ("CONC001", conc::check001),
    ("CONC002", conc::check002),
    ("CONC003", conc::check003),
    ("CONC004", conc::check004),
    ("PERF001", perf::check001),
    ("PERF002", perf::check002),
    ("PERF003", perf::check003),
    ("PERF004", perf::check004),
];

/// Run every enabled rule over one file; suppressions are applied here.
pub fn run_all(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    for (code, check) in ALL {
        let rule_cfg = cfg.rule(code);
        if rule_cfg.severity == Severity::Allow {
            continue;
        }
        if let Some(crates) = &rule_cfg.crates {
            if !crates.iter().any(|c| c == ctx.crate_name) {
                continue;
            }
        }
        let mut found = Vec::new();
        check(ctx, rule_cfg, &mut found);
        for mut d in found {
            if ctx.suppressed(d.rule, d.line) {
                continue;
            }
            d.severity = rule_cfg.severity;
            out.push(d);
        }
    }
}

/// Run the semantic rules over the whole workspace; the symbol table
/// and call graph are built once and shared. Fails when an enabled
/// rule's `entry_points` names a function the workspace does not have:
/// dropping the root silently would shrink DET004's reach and the PERF
/// hot set without any finding changing.
pub fn run_semantic(
    ws: &Workspace,
    ctxs: &[FileCtx<'_>],
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) -> Result<(), String> {
    if SEMANTIC.iter().all(|(code, _)| cfg.rule(code).severity == Severity::Allow) {
        return Ok(());
    }
    let table = SymbolTable::build(ws);
    for (code, _) in SEMANTIC {
        let rule = cfg.rule(code);
        if rule.severity == Severity::Allow {
            continue;
        }
        if let Some(e) = rule.entry_points.iter().find(|e| !table.fns.iter().any(|f| f.is_entry(e)))
        {
            return Err(format!(
                "[rules.{code}] entry point `{e}` matches no function in the workspace"
            ));
        }
    }
    let graph = CallGraph::build(ws, &table);
    let conc = table
        .fns
        .iter()
        .map(|f| match f.body {
            Some((lo, hi)) => {
                guards::analyze_body(&f.crate_name, &ws.files[f.file].file.tokens, lo, hi)
            }
            None => FnConc::default(),
        })
        .collect();
    // The hot set is shared by the PERF family; its roots are the union
    // of every PERF rule's configured entry points (`Type::method` or
    // bare names — binary `main`s are deliberately *not* roots: a
    // binary's own loops are its business).
    let perf_enabled = SEMANTIC
        .iter()
        .any(|(c, _)| c.starts_with("PERF") && cfg.rule(c).severity != Severity::Allow);
    let hot = if perf_enabled {
        let mut eps: Vec<&String> = Vec::new();
        for (code, _) in SEMANTIC.iter().filter(|(c, _)| c.starts_with("PERF")) {
            eps.extend(cfg.rule(code).entry_points.iter());
        }
        let roots: Vec<usize> = table
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| eps.iter().any(|e| f.is_entry(e)))
            .map(|(i, _)| i)
            .collect();
        Hotness::build(ws, &table, &graph, &roots)
    } else {
        Hotness::default()
    };
    let sem = SemanticCtx { ws, ctxs, table, graph, conc, hot };
    for (code, check) in SEMANTIC {
        let rule_cfg = cfg.rule(code);
        if rule_cfg.severity == Severity::Allow {
            continue;
        }
        let mut found = Vec::new();
        check(&sem, rule_cfg, &mut found);
        for mut d in found {
            if let Some(ctx) = ctxs.iter().find(|c| c.path == d.path) {
                if ctx.suppressed(d.rule, d.line) {
                    continue;
                }
            }
            d.severity = rule_cfg.severity;
            out.push(d);
        }
    }
    Ok(())
}

/// Shared constructor so every rule emits the same shape.
pub(crate) fn diag(
    ctx: &FileCtx<'_>,
    rule: &'static str,
    line: usize,
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        path: ctx.path.to_string(),
        line,
        message,
        related: Vec::new(),
    }
}

/// Constructor for semantic rules, which address files by path.
pub(crate) fn diag_at(rule: &'static str, path: &str, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        path: path.to_string(),
        line,
        message,
        related: Vec::new(),
    }
}

/// Human-readable rationale and fix pattern per rule, for
/// `repolint explain RULEID`.
pub fn explain(code: &str) -> Option<&'static str> {
    Some(match code {
        "DET001" => {
            "DET001 — nondeterministic RNG.\n\
             Why: `thread_rng()`/`from_entropy()` seed from OS entropy, so two runs of the\n\
             same campaign diverge and the parallel-equals-serial witness is void.\n\
             Fix: thread an explicit `SmallRng::seed_from_u64(seed)` (or the workspace\n\
             SplitMix stream) down from the campaign config."
        }
        "DET002" => {
            "DET002 — wall-clock reads in simulation library code.\n\
             Why: `Instant::now()`/`SystemTime::now()` make simulated results depend on\n\
             host scheduling; timing belongs in binaries and reporting layers.\n\
             Fix: model time in cycles inside the simulator; if a read is genuinely\n\
             reporting-only, annotate it `// repolint:allow(DET002) reason`."
        }
        "DET003" => {
            "DET003 — unordered hash iteration feeding ordered output.\n\
             Why: `HashMap`/`HashSet` iteration order is randomized per process, so any\n\
             aggregate built from it is run-dependent.\n\
             Fix: use `BTreeMap`/`BTreeSet`, or collect and sort before aggregating."
        }
        "DET004" => {
            "DET004 — entropy/wall-clock source reachable from a simulation entry point.\n\
             Why: per-site checks (DET001/DET002) cannot see a source hidden behind three\n\
             calls; the campaign's bit-identical guarantee needs the whole call tree clean.\n\
             The diagnostic prints the offending call chain.\n\
             Fix: break the chain — inject time/seed at the entry point and pass values down."
        }
        "PANIC001" => {
            "PANIC001 — `unwrap`/`expect`/`panic!` in library crates.\n\
             Why: one poisoned cell aborts a whole multi-hour campaign instead of failing\n\
             that cell.\n\
             Fix: return a typed error; use `assert!` only for documented invariants."
        }
        "FP001" => {
            "FP001 — exact `f64` equality in checksum/verify code.\n\
             Why: ABFT residual checks compare recomputed sums; `==` on floats makes the\n\
             detector threshold-free and platform-dependent.\n\
             Fix: compare against an explicit tolerance derived from the error model."
        }
        "UNIT001" => {
            "UNIT001 — mixed units in arithmetic.\n\
             Why: cycles + nanoseconds, or bytes + cache lines, silently corrupt derived\n\
             statistics; the unit-taint pass tracks value provenance across calls.\n\
             Fix: convert explicitly (named conversion fns) before mixing."
        }
        "API001" => {
            "API001 — dead `pub` items.\n\
             Why: an exported item no binary, test, bench or other crate references is\n\
             untested surface area that still constrains refactoring.\n\
             Fix: make it private, delete it, or reference it from a test."
        }
        "CONC001" => {
            "CONC001 — Mutex/RwLock guard held across a blocking call.\n\
             Why: blocking (channel send/recv, Condvar::wait, JoinHandle::join, file or\n\
             socket I/O — possibly behind several calls) while holding a lock stalls every\n\
             other thread needing that lock, and with channels in both directions it\n\
             deadlocks. The diagnostic prints the call chain to the blocking sink.\n\
             Fix: shrink the guard scope — copy what you need out of the guarded region in\n\
             an inner block, drop the guard, then block. A receiver shared by design (a\n\
             worker pool's `lock(&rx).recv()`) is annotated, with the reason, at the site."
        }
        "CONC002" => {
            "CONC002 — lock-order cycle.\n\
             Why: if one code path takes A then B and another takes B then A (directly or\n\
             through callees), two threads can each hold one lock and wait forever on the\n\
             other. A self-loop means re-acquiring a non-reentrant lock: instant deadlock.\n\
             Fix: pick one global acquisition order and restructure the path that violates\n\
             it; or merge the two locks if they always travel together."
        }
        "CONC003" => {
            "CONC003 — non-Send-pattern state reachable from spawned code.\n\
             Why: `static mut`, `Rc`, `RefCell`/`Cell`/`UnsafeCell` reached from a\n\
             `thread::spawn` closure (or anything it calls) is a data race or an\n\
             unsynchronized-aliasing bug waiting for the right interleaving.\n\
             Fix: use `Arc` + `Mutex`/`RwLock`, atomics, or pass owned data into the\n\
             closure."
        }
        "PERF001" => {
            "PERF001 — heap allocation inside a loop in hot code.\n\
             Why: the campaign's wall-clock is bounded by the filtered-replay inner loops\n\
             (BENCH_sim.json measures them in Macc/s); an allocator round-trip per event or\n\
             per phase dwarfs the arithmetic it feeds. The hotness analysis proves the loop\n\
             is reachable from a replay entry point and the diagnostic prints that chain.\n\
             Fix: hoist the allocation above the loop, reuse a preallocated buffer\n\
             (`clear()` + refill), or write into a caller-provided slice."
        }
        "PERF002" => {
            "PERF002 — `.clone()` / `.to_owned()` of a non-Copy value in a hot loop.\n\
             Why: cloning a Vec or String per iteration is a hidden allocation plus a\n\
             memcpy; snapshot-style clones inside replay loops (e.g. per-phase rank-busy\n\
             copies) scale with event count, not result size.\n\
             Fix: borrow (`&[...]` accessors instead of cloning getters), restructure to\n\
             copy once before the loop, or use `copy_from_slice` into a reused buffer."
        }
        "PERF003" => {
            "PERF003 — dynamic dispatch through `dyn` in a hot loop.\n\
             Why: an indirect call per replay event blocks inlining of the callee (and\n\
             everything behind it, e.g. the MC's range lookup), costing more than the\n\
             dispatch itself. One virtual call per *request* is the difference between a\n\
             devirtualized inner loop and a pipeline stall per event.\n\
             Fix: make the driving function generic over the trait (`P: Policy + ?Sized`)\n\
             so each concrete policy gets its own monomorphized, inlinable loop; keep the\n\
             `dyn` boundary at the API surface where it runs once."
        }
        "PERF004" => {
            "PERF004 — formatted output in hot-reachable library code.\n\
             Why: `println!`/`write!`/`format!` reachable from a replay entry point does\n\
             formatting work (and possibly I/O plus a stdout lock) inside the simulation's\n\
             call tree; reporting belongs in binaries and the reporting layer, where it\n\
             runs once per campaign rather than once per event.\n\
             Fix: return data and let the caller render it; if a site is genuinely\n\
             diagnostic-only, annotate it `// repolint:allow(PERF004) reason`."
        }
        "CONC004" => {
            "CONC004 — detached thread (discarded JoinHandle) in library code.\n\
             Why: `let _ = thread::spawn(..)` leaks a thread that outlives shutdown; it can\n\
             race teardown, hold resources past drop, and hides panics.\n\
             Fix: keep the handle and join it on the shutdown path; if detaching is the\n\
             design (per-connection servers), annotate the site with the reason."
        }
        _ => return None,
    })
}
