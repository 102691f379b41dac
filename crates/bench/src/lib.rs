//! # abft-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation (Section 5). Each `src/bin/*` binary prints one artifact:
//!
//! | binary | artifact |
//! |---|---|
//! | `fig03_overhead` | Figure 3 — ABFT overhead breakdown |
//! | `tab01_simplified_verification` | Table 1 — simplified-verification speedup |
//! | `tab04_access_classification` | Table 4 — LLC refs by ABFT protection |
//! | `tab05_error_rates` | Table 5 — FIT rates per ECC |
//! | `fig05_memory_energy` | Figure 5 — memory energy, 6 strategies |
//! | `fig06_system_energy` | Figure 6 — system energy, 6 strategies |
//! | `fig07_performance` | Figure 7 — normalized IPC, 6 strategies |
//! | `fig08_weak_scaling` | Figure 8 — weak-scaling benefit vs recovery |
//! | `fig09_strong_scaling` | Figure 9 — strong-scaling benefit vs recovery |
//! | `fig10_dgms_comparison` | Figure 10 — DGMS vs the cooperative scheme |
//! | `cases_error_handling` | Section 4 — Case 1-4 end-to-end drills |
//!
//! All of the memory-simulation binaries describe their grids as
//! [`CampaignSpec`]s and run them through [`CampaignClient`] (see
//! [`run_grid`]), so traces are generated once per process (shared
//! through the [`TraceCache`]), the (kernel x strategy x config) cells
//! run on a rayon pool — set `RAYON_NUM_THREADS` to bound the workers —
//! setting `ABFT_ARTIFACT_STORE` to a directory makes every binary
//! persist and reuse generated traces/miss-streams across processes, and
//! setting `ABFT_SIMPOINT` switches every grid to phase-sampled replay.

use abft_coop_core::{BasicTest, CampaignClient, CampaignRun, CampaignSpec, Progress};
use abft_memsim::workloads::{KernelKind, KernelParams};
use abft_memsim::{MissStream, PackedTrace, SystemConfig, TraceCache};
use std::sync::Arc;

/// Print the standard run header (the Table 3 configuration).
pub fn print_header(title: &str) {
    println!("================================================================");
    println!("{title}");
    println!("Reproduction of Li, Chen, Wu, Vetter — SC 2013 (simulated)");
    println!("================================================================");
    println!("{}", SystemConfig::default().table3());
    println!("----------------------------------------------------------------");
}

/// The standard stderr liveness line for campaign progress.
pub fn report_progress(p: &Progress) {
    eprintln!(
        "[campaign {}/{}] {} / {} / {} ({:.2}s; traces: {} built, {} cache hits)",
        p.completed,
        p.total,
        p.kernel.label(),
        p.strategy.label(),
        p.config_tag,
        p.job_wall.as_secs_f64(),
        p.cache_builds,
        p.cache_hits,
    );
}

/// Run a grid through [`CampaignClient`] with the standard progress
/// line. This is the one entry point the harness binaries use: the
/// client resolves the artifact store (spec-level `store(..)` or the
/// `ABFT_ARTIFACT_STORE` env var) and phase sampling (`sampling(..)` or
/// `ABFT_SIMPOINT`), and executes on the process-wide [`TraceCache`].
pub fn run_grid(spec: &CampaignSpec) -> CampaignRun {
    CampaignClient::local().on_progress(report_progress).run(spec)
}

/// Run the basic tests for all four kernels at the default scale, in
/// parallel. This is the expensive shared computation behind Figures 5-7
/// and Table 4. The raw campaign cells are also dumped to
/// `reproduction-output/basic_tests.json` (best-effort).
pub fn all_basic_tests() -> Vec<BasicTest> {
    let run = run_grid(&CampaignSpec::basic(KernelKind::ALL));
    let json_path = "reproduction-output/basic_tests.json";
    match run.write_json(json_path) {
        Ok(()) => eprintln!("[campaign] wrote {json_path}"),
        Err(e) => eprintln!("[campaign] could not write {json_path}: {e}"),
    }
    run.basic_tests()
}

/// The default-scale packed trace for one kernel, from the process-wide
/// [`TraceCache`] (generated at most once per process). Stream it with
/// [`PackedTrace::replay`]; materialize only when random access is
/// genuinely required.
pub fn kernel_trace(kind: KernelKind) -> Arc<PackedTrace> {
    TraceCache::global().get(KernelParams::default_for(kind))
}

/// The default-scale cache-filtered miss stream for one kernel under the
/// default system config, from the process-wide [`TraceCache`] (the cache
/// hierarchy is simulated at most once per process; every further policy
/// run replays only the L2 miss tail). Replay it with
/// [`abft_memsim::system::Machine::simulate`] or
/// [`abft_coop_core::run_strategy_miss_stream`].
pub fn kernel_miss_stream(kind: KernelKind) -> Arc<MissStream> {
    TraceCache::global().get_filtered(KernelParams::default_for(kind), &SystemConfig::default())
}
