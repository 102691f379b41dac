//! DET004: interprocedural determinism.
//!
//! DET001/DET002 catch entropy and wall-clock reads at the site where
//! they happen; DET004 proves the stronger property the campaign engine
//! actually relies on — that *no such source is reachable* from a
//! simulation entry point through any chain of workspace calls. Roots
//! are the configured `entry_points` (`Type::method` or bare function
//! names) plus every binary `main`; sinks are `Instant::now`,
//! `SystemTime::now`, `thread_rng`, `from_entropy` and `rand::random`
//! call sites in library code of the scoped crates. The diagnostic
//! reconstructs the offending call chain so the path from entry point
//! to source is auditable without rerunning the analysis.
//!
//! The call graph over-approximates (method calls fan out to every
//! same-named workspace method), so a clean DET004 run is a proof
//! sketch, not a heuristic; see DESIGN.md §3.14 for the caveats.

use crate::config::RuleCfg;
use crate::diag::Diagnostic;
use crate::rules::{diag_at, SemanticCtx};
use crate::source::FileKind;

/// Entropy/wall-clock sinks, matched against a call site's source
/// spelling (path suffix or method name).
const SINKS: &[&str] = &["Instant::now", "SystemTime::now", "thread_rng", "from_entropy"];

fn is_sink(display: &str) -> Option<&'static str> {
    for s in SINKS {
        if display == *s
            || display.ends_with(&format!("::{s}"))
            || display == format!(".{}", s.rsplit("::").next().unwrap_or(s))
        {
            return Some(s);
        }
    }
    // `rand::random` only in qualified form; a bare `random()` is too
    // ambiguous to claim as entropy.
    if display == "rand::random" || display.ends_with("::rand::random") {
        return Some("rand::random");
    }
    None
}

/// Run the rule over the workspace.
pub fn check(sem: &SemanticCtx<'_>, cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    let table = &sem.table;

    // Roots: configured entry points plus every binary `main`.
    let mut roots = Vec::new();
    for (i, f) in table.fns.iter().enumerate() {
        let is_entry = cfg.entry_points.iter().any(|e| f.is_entry(e));
        let is_bin_main =
            f.name == "main" && sem.ctxs[f.file].kind == FileKind::Bin && f.self_ty.is_none();
        if is_entry || is_bin_main {
            roots.push(i);
        }
    }

    let state = sem.graph.reach(table, &roots);
    for (fi, reached) in state.iter().enumerate() {
        if reached.is_none() {
            continue;
        }
        let f = &table.fns[fi];
        let ctx = &sem.ctxs[f.file];
        // Sinks only count in library code of the scoped crates:
        // binaries may time things for reporting, and crates whose
        // documented purpose is overhead timing are opted out.
        if ctx.kind != FileKind::Lib {
            continue;
        }
        if let Some(crates) = &cfg.crates {
            if !crates.iter().any(|c| c == &f.crate_name) {
                continue;
            }
        }
        for site in &sem.graph.calls[fi] {
            let Some(sink) = is_sink(&site.display) else { continue };
            if ctx.in_test(site.line) {
                continue;
            }
            let chain = chain_to(sem, &state, fi);
            let root_name = chain.first().cloned().unwrap_or_else(|| format!("`{}`", f.qual()));
            let chain_str = chain.join(" -> ");
            out.push(diag_at(
                "DET004",
                ctx.path,
                site.line,
                format!(
                    "nondeterminism source `{sink}` is reachable from entry point \
                     {root_name}; call chain: {chain_str} -> `{}` ({}:{})",
                    site.display, ctx.path, site.line
                ),
            ));
        }
    }
}

/// Reconstruct `root -> ... -> fns[fi]` from the BFS parent pointers.
/// Every hop after the root is annotated with the call site that first
/// reached it (`caller's file:line`).
fn chain_to(
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
                    "`{}` (called at {}:{})",
                    table.fns[cur].qual(),
                    sem.ctxs[caller_file].path,
                    line
                ));
                cur = parent;
            }
            _ => {
                rev.push(format!("`{}`", table.fns[cur].qual()));
                break;
            }
        }
    }
    rev.reverse();
    rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::Workspace;

    fn lint_ws(sources: &[(&str, &str, &str)], cfg: &Config) -> Vec<Diagnostic> {
        let ws = Workspace::from_sources(sources).expect("fixture parses");
        ws.lint(cfg).expect("entry points resolve")
    }

    /// Config rooting DET004 at the fixtures' `CampaignClient::run`.
    fn det_cfg() -> Config {
        let mut cfg = Config::default();
        cfg.rules.get_mut("DET004").unwrap().entry_points = vec!["CampaignClient::run".to_string()];
        cfg
    }

    #[test]
    fn reports_chain_through_helpers() {
        let cfg = det_cfg();
        let diags = lint_ws(
            &[(
                "crates/core/src/campaign.rs",
                "abft-core",
                "pub struct CampaignClient;\n\
                 impl CampaignClient {\n\
                 \x20   pub fn run(&self) { step_one(); }\n\
                 }\n\
                 fn step_one() { step_two(); }\n\
                 fn step_two() { let _t = std::time::Instant::now(); }\n",
            )],
            &cfg,
        );
        let det: Vec<_> = diags.iter().filter(|d| d.rule == "DET004").collect();
        assert_eq!(det.len(), 1, "{diags:?}");
        let d = det[0];
        assert_eq!(d.line, 6);
        assert!(d.message.contains("`Instant::now`"), "{}", d.message);
        assert!(d.message.contains("`CampaignClient::run`"), "{}", d.message);
        assert!(d.message.contains("`step_one`"), "{}", d.message);
        assert!(d.message.contains("`step_two`"), "{}", d.message);
    }

    #[test]
    fn unreachable_sources_and_tests_stay_quiet() {
        let cfg = det_cfg();
        // The sink lives in a function nothing on the entry path calls,
        // and in a #[cfg(test)] module.
        let diags = lint_ws(
            &[(
                "crates/core/src/campaign.rs",
                "abft-core",
                "pub struct CampaignClient;\n\
                 impl CampaignClient {\n\
                 \x20   pub fn run(&self) { pure(); }\n\
                 }\n\
                 fn pure() {}\n\
                 fn _orphan() { let _ = std::time::SystemTime::now(); }\n\
                 #[cfg(test)]\n\
                 mod tests {\n\
                 \x20   fn helper() { let _ = std::time::Instant::now(); }\n\
                 }\n",
            )],
            &cfg,
        );
        assert!(
            diags.iter().all(|d| d.rule != "DET004"),
            "orphan + test sinks must not fire: {diags:?}"
        );
    }

    #[test]
    fn suppression_covers_the_sink_line() {
        let cfg = det_cfg();
        let diags = lint_ws(
            &[(
                "crates/core/src/campaign.rs",
                "abft-core",
                "pub struct CampaignClient;\n\
                 impl CampaignClient {\n\
                 \x20   pub fn run(&self) {\n\
                 \x20       // repolint:allow(DET002,DET004) wall time is reporting-only metadata\n\
                 \x20       let _t = std::time::Instant::now();\n\
                 \x20   }\n\
                 }\n",
            )],
            &cfg,
        );
        assert!(diags.iter().all(|d| d.rule != "DET004"), "{diags:?}");
    }

    #[test]
    fn crate_scoping_limits_sinks_not_roots() {
        let mut cfg = det_cfg();
        cfg.rules.get_mut("DET004").unwrap().crates = Some(vec!["abft-memsim".to_string()]);
        // Root in abft-core, sink in abft-kernels (out of scope): quiet.
        // Same root reaching a sink in abft-memsim (in scope): fires.
        let diags = lint_ws(
            &[
                (
                    "crates/core/src/campaign.rs",
                    "abft-core",
                    "use abft_kernels::timed_probe;\n\
                     use abft_memsim::advance;\n\
                     pub struct CampaignClient;\n\
                     impl CampaignClient {\n\
                     \x20   pub fn run(&self) { timed_probe(); advance(); }\n\
                     }\n",
                ),
                (
                    "crates/kernels/src/lib.rs",
                    "abft-kernels",
                    "pub fn timed_probe() { let _ = std::time::Instant::now(); }\n",
                ),
                (
                    "crates/memsim/src/lib.rs",
                    "abft-memsim",
                    "pub fn advance() { let _ = std::time::Instant::now(); }\n",
                ),
            ],
            &cfg,
        );
        let det: Vec<_> = diags.iter().filter(|d| d.rule == "DET004").collect();
        assert_eq!(det.len(), 1, "{diags:?}");
        assert_eq!(det[0].path, "crates/memsim/src/lib.rs");
    }
}
