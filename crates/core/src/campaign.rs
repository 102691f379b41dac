//! The campaign cell primitives and result types behind every harness
//! binary.
//!
//! The paper's evaluation (Sections 5.1-5.3) is a grid of
//! (kernel x ECC strategy x system config) simulations. A grid is
//! described by a [`crate::CampaignSpec`] and executed by
//! [`crate::CampaignClient::run`], which expands it into independent
//! jobs on a rayon worker pool. Kernel traces — the dominant fixed
//! cost — are generated once per process through the shared
//! `TraceCache` in the packed 8-byte encoding, and the cache hierarchy
//! is simulated once per (workload x cache geometry x thread count) by
//! the second memo level (`TraceCache::get_filtered`): jobs replay only
//! the `Arc<MissStream>` L2 miss tail through the memory controller and
//! DRAM, which is bit-identical to the full path (cache outcomes are
//! ECC-independent) at O(LLC misses) instead of O(accesses) per grid
//! cell.
//!
//! This module holds the one-cell job primitives ([`run_strategy_source`]
//! and its miss-stream/sampled siblings) and the [`CampaignRun`] a grid
//! produces, with its [`BasicTest`] views and JSON/CSV exports. Every job
//! runs on a fresh [`Machine`], so results are bit-identical regardless
//! of worker count or completion order (the simulator itself is
//! deterministic; see `tests/campaign_determinism.rs`).
//!
//! ```no_run
//! use abft_coop_core::{CampaignClient, CampaignSpec, Strategy};
//! use abft_memsim::KernelKind;
//!
//! let spec = CampaignSpec::basic(KernelKind::ALL); // 4 kernels x 6 strategies
//! let run = CampaignClient::local().run(&spec);    // = 24 jobs, 4 trace generations
//! let dgemm = run.basic_test(KernelKind::Dgemm);
//! println!("W_CK memory energy x{:.2}", dgemm.mem_energy_norm(Strategy::WholeChipkill));
//! run.write_json("reproduction-output/basic_tests.json").unwrap();
//! ```

use crate::experiment::{BasicTest, StrategyResult};
use crate::strategy::Strategy;
use abft_memsim::miss_stream::MissStream;
use abft_memsim::simpoint::SimPointSelection;
use abft_memsim::system::{Machine, SimRequest, SimStats};
use abft_memsim::trace::Trace;
use abft_memsim::workloads::{abft_region_ids, KernelKind, KernelParams};
use abft_memsim::{AccessSource, SystemConfig};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Run one (stream, config, strategy) cell on a fresh machine — the job
/// primitive every campaign cell shares. The source may be anything
/// pull-based: a packed-cache replay, a live kernel generator, or a trace
/// file; the simulator drains it in bounded-memory chunks.
pub fn run_strategy_source<S: AccessSource + ?Sized>(
    mut src: &mut S,
    cfg: &SystemConfig,
    strategy: Strategy,
) -> SimStats {
    let regions = abft_region_ids(src.regions());
    let assign = strategy.assignment(&regions);
    Machine::new(cfg.clone()).simulate(SimRequest::source(&mut src, assign))
}

/// [`run_strategy_source`] over a materialized trace (the compatibility
/// adapter for hand-built traces; bit-identical to streaming).
pub fn run_strategy_job(trace: &Trace, cfg: &SystemConfig, strategy: Strategy) -> SimStats {
    run_strategy_source(&mut trace.replay(), cfg, strategy)
}

/// [`run_strategy_source`] over a cache-filtered miss stream — the fast
/// path every campaign cell takes. Bit-identical to the full run over the
/// stream the [`MissStream`] was filtered from; the machine config's
/// cache geometry and thread count must match the filter's
/// (see [`abft_memsim::trace_cache::FilterKey`]).
pub fn run_strategy_miss_stream(
    ms: &MissStream,
    cfg: &SystemConfig,
    strategy: Strategy,
) -> SimStats {
    let regions = abft_region_ids(ms.regions());
    let assign = strategy.assignment(&regions);
    Machine::new(cfg.clone()).simulate(SimRequest::miss_stream(ms, assign))
}

/// [`run_strategy_miss_stream`] through SimPoint-style phase sampling:
/// replays only the selection's weighted representative slices and scales
/// the accumulated DRAM statistics by cluster weights. An estimate (error
/// bounded empirically in `tests/simpoint_equivalence.rs` and gated in
/// `bench_sim`), not bit-identical — use it when the exact replay's
/// O(LLC misses) is still too slow, e.g. paper-scale matrices.
pub fn run_strategy_sampled(
    ms: &MissStream,
    sel: &SimPointSelection,
    cfg: &SystemConfig,
    strategy: Strategy,
) -> SimStats {
    let regions = abft_region_ids(ms.regions());
    let assign = strategy.assignment(&regions);
    Machine::new(cfg.clone()).simulate(SimRequest::sampled(ms, sel, assign))
}

/// One completed campaign cell.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The kernel the workload models.
    pub kernel: KernelKind,
    /// The full workload (kernel + scale).
    pub workload: KernelParams,
    /// The ECC strategy simulated.
    pub strategy: Strategy,
    /// Tag of the system-config variant (defaults to `"default"`).
    pub config_tag: String,
    /// Simulation statistics.
    pub stats: SimStats,
}

/// Progress snapshot handed to the [`crate::CampaignClient::on_progress`]
/// hook after every completed job.
#[derive(Debug, Clone)]
pub struct Progress {
    /// Jobs completed so far (including this one).
    pub completed: usize,
    /// Total jobs in the grid.
    pub total: usize,
    /// Kernel of the job that just finished.
    pub kernel: KernelKind,
    /// Strategy of the job that just finished.
    pub strategy: Strategy,
    /// Config tag of the job that just finished.
    pub config_tag: String,
    /// Wall-clock of the job that just finished.
    pub job_wall: Duration,
    /// Trace-cache hits so far (process-wide for the cache in use).
    pub cache_hits: u64,
    /// Traces generated so far (process-wide for the cache in use).
    pub cache_builds: u64,
}

/// Aggregate counters for a finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignMetrics {
    /// Jobs executed.
    pub jobs: usize,
    /// Trace-cache lookups served without generating (delta over the run).
    pub cache_hits: u64,
    /// Traces generated during the run.
    pub cache_builds: u64,
    /// Miss-stream lookups served from the memo (delta over the run).
    pub filter_hits: u64,
    /// Miss streams filtered during the run (one cache-hierarchy
    /// simulation each; every other cell skips the caches entirely).
    pub filter_builds: u64,
    /// Artifact-store loads served from disk during the run (zero when
    /// the cache has no store attached).
    pub store_hits: u64,
    /// Artifact-store load attempts that found no usable blob.
    pub store_misses: u64,
    /// Artifact blobs written during the run.
    pub store_writes: u64,
    /// Corrupt artifact blobs evicted during the run.
    pub store_evictions: u64,
    /// Phase-selection lookups served from the memo or the store.
    pub simpoint_hits: u64,
    /// Phase selections actually built (sliced + clustered) during the
    /// run — zero in a warm-store process.
    pub simpoint_builds: u64,
    /// Cells executed through sampled replay (zero when sampling is off).
    pub sampled_cells: usize,
    /// Representative slices replayed across all sampled cells.
    pub slices_replayed: u64,
    /// Worst a-priori heterogeneity error budget across the selections
    /// used (see [`SimPointSelection::est_error`]); 0 when sampling is
    /// off.
    pub est_error_budget: f64,
}

/// Shared per-job progress callback (see
/// [`crate::CampaignClient::on_progress`]).
pub type ProgressHook = Arc<dyn Fn(&Progress) + Send + Sync>;

/// The results of a finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// All cells, in the deterministic grid order
    /// (workload-major, then config, then strategy).
    pub results: Vec<CampaignResult>,
    /// Aggregate counters.
    pub metrics: CampaignMetrics,
}

impl CampaignRun {
    /// The cell for an exact (kernel, strategy, config tag) triple — the
    /// first matching workload when several share a kernel.
    pub fn get(&self, kernel: KernelKind, s: Strategy, tag: &str) -> Option<&CampaignResult> {
        self.results.iter().find(|r| r.kernel == kernel && r.strategy == s && r.config_tag == tag)
    }

    /// Assemble the classic [`BasicTest`] view for one kernel under the
    /// given config tag (rows in the campaign's strategy order).
    pub fn basic_test_for(&self, kernel: KernelKind, tag: &str) -> BasicTest {
        let workload = self
            .results
            .iter()
            .find(|r| r.kernel == kernel && r.config_tag == tag)
            // repolint:allow(PANIC001) documented API contract: caller names a cell the campaign ran
            .unwrap_or_else(|| panic!("campaign has no {} cells tagged {tag:?}", kernel.label()))
            .workload;
        let rows: Vec<StrategyResult> = self
            .results
            .iter()
            .filter(|r| r.workload == workload && r.config_tag == tag)
            .map(|r| StrategyResult { strategy: r.strategy, stats: r.stats.clone() })
            .collect();
        BasicTest { kernel, rows }
    }

    /// [`BasicTest`] view for one kernel under the first config.
    pub fn basic_test(&self, kernel: KernelKind) -> BasicTest {
        let tag = self
            .results
            .first()
            .map(|r| r.config_tag.clone())
            // repolint:allow(PANIC001) documented API contract: views require a non-empty campaign
            .expect("campaign produced no results");
        self.basic_test_for(kernel, &tag)
    }

    /// [`BasicTest`] views for every distinct kernel, in grid order
    /// (first config).
    pub fn basic_tests(&self) -> Vec<BasicTest> {
        let mut kinds: Vec<KernelKind> = Vec::new();
        for r in &self.results {
            if !kinds.contains(&r.kernel) {
                kinds.push(r.kernel);
            }
        }
        kinds.into_iter().map(|k| self.basic_test(k)).collect()
    }

    /// Machine-readable JSON of every cell plus the campaign counters.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"metrics\": {");
        out.push_str(&format!(
            "\"jobs\": {}, \"cache_hits\": {}, \"cache_builds\": {}, \
             \"filter_hits\": {}, \"filter_builds\": {}, \
             \"store_hits\": {}, \"store_misses\": {}, \"store_writes\": {}, \
             \"store_evictions\": {}, \
             \"simpoint_hits\": {}, \"simpoint_builds\": {}, \
             \"sampled_cells\": {}, \"slices_replayed\": {}, \
             \"est_error_budget\": {:.6}",
            self.metrics.jobs,
            self.metrics.cache_hits,
            self.metrics.cache_builds,
            self.metrics.filter_hits,
            self.metrics.filter_builds,
            self.metrics.store_hits,
            self.metrics.store_misses,
            self.metrics.store_writes,
            self.metrics.store_evictions,
            self.metrics.simpoint_hits,
            self.metrics.simpoint_builds,
            self.metrics.sampled_cells,
            self.metrics.slices_replayed,
            self.metrics.est_error_budget,
        ));
        out.push_str("},\n  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let st = &r.stats;
            out.push_str(&format!(
                "    {{\"kernel\": {}, \"workload\": {}, \"strategy\": {}, \"config\": {}, \
                 \"stats\": {{\
                 \"instructions\": {}, \"cycles\": {}, \"seconds\": {:.9}, \"ipc\": {:.6}, \
                 \"mem_dynamic_j\": {:.9}, \"mem_standby_j\": {:.9}, \"mem_total_j\": {:.9}, \
                 \"proc_j\": {:.9}, \"system_j\": {:.9}, \
                 \"l1_hit_rate\": {:.6}, \"l2_hit_rate\": {:.6}, \"row_hit_rate\": {:.6}, \
                 \"dram_reads\": {}, \"dram_writes\": {}, \
                 \"avg_dram_latency_ns\": {:.4}, \"avg_dram_queue_ns\": {:.4}, \
                 \"dram_bandwidth_gbps\": {:.4}}}}}{}\n",
                json_string(r.kernel.label()),
                json_string(&format!("{:?}", r.workload)),
                json_string(r.strategy.label()),
                json_string(&r.config_tag),
                st.instructions,
                st.cycles,
                st.seconds,
                st.ipc(),
                st.mem_dynamic_j(),
                st.mem_standby_j(),
                st.mem_total_j(),
                st.proc_j(),
                st.system_j(),
                st.l1_hit_rate,
                st.l2_hit_rate,
                st.row_hit_rate,
                st.dram_reads,
                st.dram_writes,
                st.avg_dram_latency_ns,
                st.avg_dram_queue_ns,
                st.dram_bandwidth_gbps,
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Machine-readable CSV of every cell — the spreadsheet-shaped
    /// sibling of [`CampaignRun::to_json`], emitted through the same
    /// [`crate::report::ReportSink`] plumbing by the harness binaries.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "kernel,workload,strategy,config,instructions,cycles,seconds,ipc,\
             mem_dynamic_j,mem_standby_j,mem_total_j,proc_j,system_j,\
             l1_hit_rate,l2_hit_rate,row_hit_rate,dram_reads,dram_writes\n",
        );
        for r in &self.results {
            let st = &r.stats;
            out.push_str(&format!(
                "{},{},{},{},{},{},{:.9},{:.6},{:.9},{:.9},{:.9},{:.9},{:.9},\
                 {:.6},{:.6},{:.6},{},{}\n",
                csv_field(r.kernel.label()),
                csv_field(&format!("{:?}", r.workload)),
                csv_field(r.strategy.label()),
                csv_field(&r.config_tag),
                st.instructions,
                st.cycles,
                st.seconds,
                st.ipc(),
                st.mem_dynamic_j(),
                st.mem_standby_j(),
                st.mem_total_j(),
                st.proc_j(),
                st.system_j(),
                st.l1_hit_rate,
                st.l2_hit_rate,
                st.row_hit_rate,
                st.dram_reads,
                st.dram_writes,
            ));
        }
        out
    }

    /// Write [`CampaignRun::to_json`] to a file, creating parent
    /// directories (the harness binaries use `reproduction-output/`).
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

/// Minimal CSV field quoting: fields containing separators or quotes are
/// double-quoted with embedded quotes doubled (RFC 4180).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Minimal JSON string quoting (labels and tags are ASCII in practice).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{CampaignClient, CampaignSpec};
    use abft_memsim::simpoint::SimPointConfig;
    use abft_memsim::workloads::DgemmParams;
    use abft_memsim::TraceCache;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny() -> KernelParams {
        KernelParams::Dgemm(DgemmParams { n: 128, nb: 64, abft: true, verify_interval: 2 })
    }

    fn client(cache: &Arc<TraceCache>) -> CampaignClient {
        CampaignClient::with_cache(Arc::clone(cache))
    }

    #[test]
    fn grid_order_is_workload_config_strategy() {
        let cache = Arc::new(TraceCache::new());
        let spec = CampaignSpec::builder()
            .workload(tiny())
            .strategies([Strategy::NoEcc, Strategy::WholeChipkill])
            .config("a", SystemConfig::default())
            .config("b", SystemConfig::default())
            .threads(2)
            .build();
        let run = client(&cache).run(&spec);
        let seen: Vec<(String, Strategy)> =
            run.results.iter().map(|r| (r.config_tag.clone(), r.strategy)).collect();
        assert_eq!(
            seen,
            vec![
                ("a".into(), Strategy::NoEcc),
                ("a".into(), Strategy::WholeChipkill),
                ("b".into(), Strategy::NoEcc),
                ("b".into(), Strategy::WholeChipkill),
            ]
        );
        assert_eq!(run.metrics.jobs, 4);
        assert_eq!(run.metrics.cache_builds, 1, "one workload = one generation");
        assert_eq!(run.metrics.cache_hits, 0, "only the filter pre-warm touches the trace level");
        assert_eq!(
            run.metrics.filter_builds, 1,
            "both configs share the default cache geometry = one filter pass"
        );
        assert_eq!(run.metrics.filter_hits, 4, "the pre-warm filters; every job hits");
    }

    #[test]
    fn progress_hook_sees_every_job() {
        let cache = Arc::new(TraceCache::new());
        let count = Arc::new(AtomicUsize::new(0));
        let count2 = Arc::clone(&count);
        let spec = CampaignSpec::builder()
            .workload(tiny())
            .strategies([Strategy::NoEcc, Strategy::WholeSecded, Strategy::WholeChipkill])
            .threads(3)
            .build();
        let run = client(&cache)
            .on_progress(move |p| {
                assert!(p.completed <= p.total);
                assert_eq!(p.total, 3);
                count2.fetch_add(1, Ordering::SeqCst);
            })
            .run(&spec);
        assert_eq!(count.load(Ordering::SeqCst), 3);
        assert_eq!(run.results.len(), 3);
    }

    #[test]
    fn basic_test_view_matches_direct_run() {
        let cache = Arc::new(TraceCache::new());
        let run = client(&cache).run(&CampaignSpec::builder().workload(tiny()).threads(2).build());
        let bt = run.basic_test(KernelKind::Dgemm);
        assert_eq!(bt.rows.len(), 6);
        let trace = tiny().build();
        let direct = run_strategy_job(&trace, &SystemConfig::default(), Strategy::WholeChipkill);
        assert_eq!(bt.row(Strategy::WholeChipkill).stats, direct);
    }

    #[test]
    fn sampled_campaign_reports_sampling_metrics() {
        let cache = Arc::new(TraceCache::new());
        let sp = SimPointConfig { interval: 2048, max_phases: 4, ..Default::default() };
        let spec = CampaignSpec::builder()
            .workload(tiny())
            .strategies([Strategy::NoEcc, Strategy::WholeChipkill])
            .sampling(sp)
            .threads(2)
            .build();
        let run = client(&cache).run(&spec);
        assert_eq!(run.metrics.jobs, 2);
        assert_eq!(run.metrics.sampled_cells, 2);
        assert_eq!(run.metrics.simpoint_builds, 1, "one selection per distinct filter key");
        assert!(run.metrics.slices_replayed >= 2, "each cell replays at least one slice");
        assert!((0.0..=1.0).contains(&run.metrics.est_error_budget));
        let json = run.to_json();
        assert!(json.contains("\"sampled_cells\": 2"));
        assert!(json.contains("\"simpoint_builds\": 1"));
        assert!(json.contains("\"est_error_budget\""));
        // An unsampled campaign reports sampling as off.
        let exact = client(&cache)
            .run(&CampaignSpec::builder().workload(tiny()).strategy(Strategy::NoEcc).build());
        assert_eq!(exact.metrics.sampled_cells, 0);
        assert_eq!(exact.metrics.slices_replayed, 0);
        assert_eq!(exact.metrics.est_error_budget, 0.0);
    }

    #[test]
    fn json_is_structurally_sound() {
        let cache = Arc::new(TraceCache::new());
        let run = client(&cache)
            .run(&CampaignSpec::builder().workload(tiny()).strategy(Strategy::NoEcc).build());
        let json = run.to_json();
        assert!(json.contains("\"kernel\": \"FT-DGEMM\""));
        assert!(json.contains("\"strategy\": \"No ECC\""));
        assert!(json.contains("\"cache_builds\": 1"));
        assert!(json.contains("\"filter_builds\": 1"));
        assert!(json.contains("\"filter_hits\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn exports_are_byte_identical_across_runs() {
        // Fresh caches make the counters match too; the reports carry
        // nothing that varies from run to run (no wall-clock fields).
        let spec = CampaignSpec::builder()
            .workload(tiny())
            .strategies([Strategy::NoEcc, Strategy::WholeChipkill])
            .threads(2)
            .build();
        let a = client(&Arc::new(TraceCache::new())).run(&spec);
        let b = client(&Arc::new(TraceCache::new())).run(&spec);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_csv(), b.to_csv());
    }
}
