//! The campaign client: every harness binary's one way to run a
//! simulation grid.
//!
//! [`CampaignSpec`] is the declarative description of a grid — workloads,
//! strategies, tagged config variants, worker count, and optionally an
//! on-disk artifact store — built with [`CampaignSpec::builder`].
//! [`CampaignClient`] executes specs in process, over the process-wide
//! `TraceCache` ([`CampaignClient::local`]) or a private one
//! ([`CampaignClient::with_cache`]), with an [`ArtifactStore`] attached
//! when the spec names a store directory (or the `ABFT_ARTIFACT_STORE`
//! environment variable does).
//!
//! ```no_run
//! use abft_coop_core::{CampaignClient, CampaignSpec, Strategy};
//! use abft_memsim::KernelKind;
//!
//! let spec = CampaignSpec::builder()
//!     .kernel(KernelKind::Dgemm)
//!     .grid(KernelKind::ALL, Strategy::ALL)
//!     .store("artifact-store")
//!     .build();
//! let run = CampaignClient::local().run(&spec);
//! println!("{} cells, {} artifact hits", run.results.len(), run.metrics.store_hits);
//! ```

use crate::campaign::{
    run_strategy_miss_stream, run_strategy_sampled, CampaignMetrics, CampaignResult, CampaignRun,
    Progress, ProgressHook,
};
use crate::strategy::Strategy;
use abft_memsim::simpoint::SimPointConfig;
use abft_memsim::trace_cache::FilterKey;
use abft_memsim::workloads::{KernelKind, KernelParams};
use abft_memsim::{ArtifactStore, SystemConfig, TraceCache};
use rayon::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Environment variable naming a store directory every local grid run
/// should persist artifacts to (the spec's explicit
/// [`CampaignSpecBuilder::store`] wins when both are set).
pub const STORE_ENV: &str = "ABFT_ARTIFACT_STORE";

/// Environment variable enabling SimPoint phase sampling for every local
/// grid run (the spec's explicit [`CampaignSpecBuilder::sampling`] wins
/// when both are set). `1` or `default` selects
/// [`SimPointConfig::default`]; otherwise the value is parsed as
/// `interval,max_phases,seed,iterations[,strata]`. Malformed values
/// degrade to exact replay with a warning — sampling is an accelerator,
/// never a correctness dependency.
pub const SIMPOINT_ENV: &str = "ABFT_SIMPOINT";

/// Parse a [`SIMPOINT_ENV`]-style value: `1`/`default` for the default
/// config, or `interval,max_phases,seed,iterations[,strata]` CSV
/// (`strata` falls back to the default when omitted).
pub fn parse_simpoint_env(value: &str) -> Option<SimPointConfig> {
    let v = value.trim();
    if v.is_empty() {
        return None;
    }
    if v == "1" || v.eq_ignore_ascii_case("default") {
        return Some(SimPointConfig::default());
    }
    let parts: Vec<&str> = v.split(',').map(str::trim).collect();
    if parts.len() != 4 && parts.len() != 5 {
        return None;
    }
    Some(SimPointConfig {
        interval: parts[0].parse().ok()?,
        max_phases: parts[1].parse().ok()?,
        seed: parts[2].parse().ok()?,
        iterations: parts[3].parse().ok()?,
        strata: match parts.get(4) {
            Some(p) => p.parse().ok()?,
            None => SimPointConfig::default().strata,
        },
    })
}

/// A declarative (workload × config × strategy) grid: what to simulate,
/// under which configs, with which ECC strategies, and where (if
/// anywhere) to persist the generated artifacts.
#[derive(Debug, Clone, Default)]
pub struct CampaignSpec {
    workloads: Vec<KernelParams>,
    strategies: Vec<Strategy>,
    configs: Vec<(String, SystemConfig)>,
    threads: Option<usize>,
    store_dir: Option<PathBuf>,
    sampling: Option<SimPointConfig>,
}

impl CampaignSpec {
    /// Start building a spec. An empty spec resolves to the paper's
    /// basic-test grid: all four kernels at default scale, all six
    /// strategies, the default system config.
    pub fn builder() -> CampaignSpecBuilder {
        CampaignSpecBuilder { spec: CampaignSpec::default() }
    }

    /// The basic-test grid for a set of kernels (all six strategies,
    /// default config) — the shape Figures 5-7 and Table 4 share.
    pub fn basic(kinds: impl IntoIterator<Item = KernelKind>) -> CampaignSpec {
        CampaignSpec::builder().kernels(kinds).build()
    }

    /// The workloads the grid covers (defaults resolved).
    pub fn workloads(&self) -> Vec<KernelParams> {
        if self.workloads.is_empty() {
            KernelKind::ALL.iter().map(|&k| KernelParams::default_for(k)).collect()
        } else {
            self.workloads.clone()
        }
    }

    /// The strategies the grid covers (defaults resolved).
    pub fn strategies(&self) -> Vec<Strategy> {
        if self.strategies.is_empty() {
            Strategy::ALL.to_vec()
        } else {
            self.strategies.clone()
        }
    }

    /// The tagged config variants the grid covers (defaults resolved).
    pub fn configs(&self) -> Vec<(String, SystemConfig)> {
        if self.configs.is_empty() {
            vec![("default".to_string(), SystemConfig::default())]
        } else {
            self.configs.clone()
        }
    }

    /// The pinned worker count, if any.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The artifact-store directory, if the spec names one.
    pub fn store_dir(&self) -> Option<&Path> {
        self.store_dir.as_deref()
    }

    /// The SimPoint sampling config, if the spec enables phase sampling.
    pub fn sampling(&self) -> Option<SimPointConfig> {
        self.sampling
    }

    /// Total grid cells the spec expands to.
    pub fn cells(&self) -> usize {
        self.workloads().len() * self.strategies().len() * self.configs().len()
    }
}

/// Fluent constructor for [`CampaignSpec`].
#[derive(Debug, Clone, Default)]
pub struct CampaignSpecBuilder {
    spec: CampaignSpec,
}

impl CampaignSpecBuilder {
    /// Add one kernel at its default (Table-3-scaled) workload.
    pub fn kernel(self, kind: KernelKind) -> Self {
        self.workload(KernelParams::default_for(kind))
    }

    /// Add several kernels at their default workloads.
    pub fn kernels(mut self, kinds: impl IntoIterator<Item = KernelKind>) -> Self {
        self.spec.workloads.extend(kinds.into_iter().map(KernelParams::default_for));
        self
    }

    /// Add one fully-specified workload (kernel + scale).
    pub fn workload(mut self, params: impl Into<KernelParams>) -> Self {
        self.spec.workloads.push(params.into());
        self
    }

    /// Add several fully-specified workloads.
    pub fn workloads(mut self, params: impl IntoIterator<Item = KernelParams>) -> Self {
        self.spec.workloads.extend(params);
        self
    }

    /// Add one strategy (default when none are added: all six).
    pub fn strategy(mut self, s: Strategy) -> Self {
        self.spec.strategies.push(s);
        self
    }

    /// Add several strategies.
    pub fn strategies(mut self, ss: impl IntoIterator<Item = Strategy>) -> Self {
        self.spec.strategies.extend(ss);
        self
    }

    /// Add a whole (kernels × strategies) block in one call.
    pub fn grid(
        self,
        kinds: impl IntoIterator<Item = KernelKind>,
        ss: impl IntoIterator<Item = Strategy>,
    ) -> Self {
        self.kernels(kinds).strategies(ss)
    }

    /// Add a tagged system-config variant (default when none are added:
    /// `("default", SystemConfig::default())`).
    pub fn config(mut self, tag: impl Into<String>, cfg: SystemConfig) -> Self {
        self.spec.configs.push((tag.into(), cfg));
        self
    }

    /// Pin the worker count (`threads(1)` is the serial path).
    pub fn threads(mut self, n: usize) -> Self {
        self.spec.threads = Some(n.max(1));
        self
    }

    /// Persist (and load) generated artifacts under this directory.
    pub fn store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spec.store_dir = Some(dir.into());
        self
    }

    /// Replay only weighted representative slices (SimPoint phase
    /// sampling) instead of the full miss stream for every cell.
    pub fn sampling(mut self, cfg: SimPointConfig) -> Self {
        self.spec.sampling = Some(cfg);
        self
    }

    /// Seal the spec.
    pub fn build(self) -> CampaignSpec {
        self.spec
    }
}

/// The runner every harness binary runs grids through: the in-process
/// engine over a trace cache, plus an optional progress hook.
#[derive(Clone, Default)]
pub struct CampaignClient {
    cache: Option<Arc<TraceCache>>,
    progress: Option<ProgressHook>,
}

impl CampaignClient {
    /// A client over the process-wide [`TraceCache::global`].
    pub fn local() -> CampaignClient {
        CampaignClient::default()
    }

    /// A client over a private cache (isolated counters; what the gate
    /// binaries and tests use to observe cold/warm behaviour cleanly).
    pub fn with_cache(cache: Arc<TraceCache>) -> CampaignClient {
        CampaignClient { cache: Some(cache), progress: None }
    }

    /// Install a per-job progress hook for every grid this client runs.
    /// May be called from worker threads.
    pub fn on_progress(mut self, hook: impl Fn(&Progress) + Send + Sync + 'static) -> Self {
        self.progress = Some(Arc::new(hook));
        self
    }

    /// Execute a spec and collect the full run. Results arrive in the
    /// deterministic grid order (workload-major, then config, then
    /// strategy) regardless of execution order.
    pub fn run(&self, spec: &CampaignSpec) -> CampaignRun {
        let cache = match &self.cache {
            Some(cache) => cache,
            None => TraceCache::global(),
        };
        let dir = spec
            .store_dir()
            .map(PathBuf::from)
            .or_else(|| std::env::var_os(STORE_ENV).map(PathBuf::from));
        if let Some(dir) = dir {
            match ArtifactStore::open(&dir) {
                Ok(store) => cache.attach_store(Arc::new(store)),
                // Degrade to memory-only: a missing or unwritable store
                // directory must never fail the simulation itself.
                Err(e) => {
                    // repolint:allow(PERF004) one-shot config warning before the grid runs
                    eprintln!("[campaign] artifact store {} unavailable: {e}", dir.display())
                }
            }
        }
        let sampling = spec.sampling().or_else(|| {
            let raw = std::env::var_os(SIMPOINT_ENV)?;
            let raw = raw.to_string_lossy();
            let parsed = parse_simpoint_env(&raw);
            // Degrade to exact replay: a malformed sampling knob must
            // never fail (or silently skew) the simulation.
            if parsed.is_none() {
                // repolint:allow(PERF004) one-shot config warning before the grid runs
                eprintln!(
                    "[campaign] ignoring {SIMPOINT_ENV}={raw:?}: expected \
                     \"1\", \"default\", or \"interval,max_phases,seed,iterations\""
                );
            }
            parsed
        });
        let workloads = spec.workloads();
        let strategies = spec.strategies();
        let configs = spec.configs();

        // Deterministic nested order: workload, then config, then strategy.
        let mut jobs: Vec<(KernelParams, usize, Strategy)> = Vec::new();
        for &w in &workloads {
            for c in 0..configs.len() {
                for &s in &strategies {
                    jobs.push((w, c, s));
                }
            }
        }

        let total = jobs.len();
        let completed = AtomicUsize::new(0);
        let hits0 = cache.hits();
        let builds0 = cache.builds();
        let filter_hits0 = cache.miss_hits();
        let filter_builds0 = cache.miss_builds();
        let simpoint_hits0 = cache.simpoint_hits();
        let simpoint_builds0 = cache.simpoint_builds();
        let store0 = cache.store_metrics();

        // Pre-build every distinct miss stream in parallel (each pulls its
        // packed trace through the first memo level on demand). Without
        // this the workload-major job order makes all workers start on the
        // same kernel and serialize behind one memo slot's build; warming
        // first costs max(build times) instead of their sum. Config
        // variants sharing a cache geometry and thread count dedup to one
        // filter pass here.
        let mut distinct: Vec<(KernelParams, usize, FilterKey)> = Vec::new();
        for &w in &workloads {
            for (c, (_, cfg)) in configs.iter().enumerate() {
                let key = FilterKey::new(w, cfg);
                if !distinct.iter().any(|(_, _, k)| *k == key) {
                    distinct.push((w, c, key));
                }
            }
        }

        // For the sampling accounting pass below: the (workload, config)
        // pair of every job, before `jobs` moves into the executor.
        let job_cells: Vec<(KernelParams, usize)> = jobs.iter().map(|&(w, c, _)| (w, c)).collect();

        let execute = || -> Vec<CampaignResult> {
            distinct.into_par_iter().for_each(|(w, c, _)| {
                cache.get_filtered(w, &configs[c].1);
                if let Some(sp) = &sampling {
                    cache.get_simpoints(w, &configs[c].1, sp);
                }
            });
            jobs.into_par_iter()
                .map(|(workload, cfg_idx, strategy)| {
                    let (tag, cfg) = &configs[cfg_idx];
                    // repolint:allow(DET002,DET004) wall time is reporting-only progress metadata
                    let job_start = Instant::now();
                    let ms = cache.get_filtered(workload, cfg);
                    let stats = match &sampling {
                        Some(sp) => {
                            let sel = cache.get_simpoints(workload, cfg, sp);
                            run_strategy_sampled(&ms, &sel, cfg, strategy)
                        }
                        None => run_strategy_miss_stream(&ms, cfg, strategy),
                    };
                    let result = CampaignResult {
                        kernel: workload.kind(),
                        workload,
                        strategy,
                        config_tag: tag.clone(),
                        stats,
                    };
                    if let Some(hook) = &self.progress {
                        let done = completed.fetch_add(1, Ordering::SeqCst) + 1;
                        hook(&Progress {
                            completed: done,
                            total,
                            kernel: result.kernel,
                            strategy,
                            config_tag: result.config_tag.clone(),
                            job_wall: job_start.elapsed(),
                            cache_hits: cache.hits(),
                            cache_builds: cache.builds(),
                        });
                    }
                    result
                })
                .collect()
        };

        let results = match spec.threads() {
            Some(n) => rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("thread pool") // repolint:allow(PANIC001) no recovery path if OS thread spawn fails at startup
                .install(execute),
            None => execute(),
        };

        let store = cache.store_metrics().since(&store0);
        // Snapshot the simpoint counters before the accounting pass below,
        // whose memo lookups would otherwise inflate the hit delta.
        let simpoint_hits = cache.simpoint_hits() - simpoint_hits0;
        let simpoint_builds = cache.simpoint_builds() - simpoint_builds0;
        let mut sampled_cells = 0usize;
        let mut slices_replayed = 0u64;
        let mut est_error_budget = 0.0f64;
        if let Some(sp) = &sampling {
            for (w, c) in job_cells {
                let sel = cache.get_simpoints(w, &configs[c].1, sp);
                sampled_cells += 1;
                slices_replayed += sel.phases().len() as u64;
                est_error_budget = est_error_budget.max(sel.est_error());
            }
        }
        CampaignRun {
            results,
            metrics: CampaignMetrics {
                jobs: total,
                cache_hits: cache.hits() - hits0,
                cache_builds: cache.builds() - builds0,
                filter_hits: cache.miss_hits() - filter_hits0,
                filter_builds: cache.miss_builds() - filter_builds0,
                store_hits: store.hits,
                store_misses: store.misses,
                store_writes: store.writes,
                store_evictions: store.evictions,
                simpoint_hits,
                simpoint_builds,
                sampled_cells,
                slices_replayed,
                est_error_budget,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_memsim::workloads::DgemmParams;

    fn tiny() -> KernelParams {
        KernelParams::Dgemm(DgemmParams { n: 128, nb: 64, abft: true, verify_interval: 2 })
    }

    #[test]
    fn simpoint_env_values_parse_or_degrade() {
        assert_eq!(parse_simpoint_env("1"), Some(SimPointConfig::default()));
        assert_eq!(parse_simpoint_env("default"), Some(SimPointConfig::default()));
        assert_eq!(
            parse_simpoint_env("4096, 8, 7, 12"),
            Some(SimPointConfig {
                interval: 4096,
                max_phases: 8,
                seed: 7,
                iterations: 12,
                strata: SimPointConfig::default().strata,
            })
        );
        assert_eq!(
            parse_simpoint_env("4096,8,7,12,2"),
            Some(SimPointConfig {
                interval: 4096,
                max_phases: 8,
                seed: 7,
                iterations: 12,
                strata: 2
            })
        );
        assert_eq!(parse_simpoint_env(""), None);
        assert_eq!(parse_simpoint_env("4096,8"), None);
        assert_eq!(parse_simpoint_env("4096,8,x,12"), None);
        assert_eq!(parse_simpoint_env("4096,8,7,12,x"), None);
    }

    #[test]
    fn builder_threads_sampling_through_the_spec() {
        let sp = SimPointConfig { interval: 2048, max_phases: 4, ..SimPointConfig::default() };
        let spec = CampaignSpec::builder().workload(tiny()).sampling(sp).build();
        assert_eq!(spec.sampling(), Some(sp));
        assert!(CampaignSpec::builder().build().sampling().is_none());
    }

    #[test]
    fn empty_spec_resolves_to_the_basic_grid() {
        let spec = CampaignSpec::builder().build();
        assert_eq!(spec.workloads().len(), 4);
        assert_eq!(spec.strategies().len(), 6);
        assert_eq!(spec.configs().len(), 1);
        assert_eq!(spec.cells(), 24);
        assert!(spec.store_dir().is_none());
    }

    #[test]
    fn builder_composes_grid_blocks() {
        let spec = CampaignSpec::builder()
            .workload(tiny())
            .strategies([Strategy::NoEcc, Strategy::WholeChipkill])
            .config("a", SystemConfig::default())
            .config("b", SystemConfig::default())
            .threads(2)
            .store("/tmp/unused")
            .build();
        assert_eq!(spec.cells(), 4);
        assert_eq!(spec.threads(), Some(2));
        assert_eq!(spec.store_dir(), Some(Path::new("/tmp/unused")));
    }

    #[test]
    fn local_client_runs_a_spec_through_the_engine() {
        let cache = Arc::new(TraceCache::new());
        let spec =
            CampaignSpec::builder().workload(tiny()).strategy(Strategy::NoEcc).threads(1).build();
        let run = CampaignClient::with_cache(Arc::clone(&cache)).run(&spec);
        assert_eq!(run.results.len(), 1);
        assert_eq!(run.metrics.cache_builds, 1);
        assert_eq!(run.metrics.store_hits, 0, "no store attached");
        // The client and the one-cell primitive agree bit-for-bit.
        let direct = crate::campaign::run_strategy_job(
            &tiny().build(),
            &SystemConfig::default(),
            Strategy::NoEcc,
        );
        assert_eq!(run.results[0].stats, direct);
    }

    #[test]
    fn warm_store_run_skips_generation_in_a_fresh_cache() {
        let dir = std::env::temp_dir().join(format!("abft-client-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = CampaignSpec::builder()
            .workload(tiny())
            .strategies([Strategy::NoEcc, Strategy::WholeChipkill])
            .threads(1)
            .store(&dir)
            .build();

        let cold_cache = Arc::new(TraceCache::new());
        let cold = CampaignClient::with_cache(cold_cache).run(&spec);
        assert_eq!(cold.metrics.cache_builds, 1);
        assert_eq!(cold.metrics.filter_builds, 1);
        assert_eq!(cold.metrics.store_writes, 2, "trace + miss blobs persisted");

        // A fresh cache (fresh-process stand-in) over the warm store:
        // zero regenerations, bit-identical stats.
        let warm_cache = Arc::new(TraceCache::new());
        let warm = CampaignClient::with_cache(warm_cache).run(&spec);
        assert_eq!(warm.metrics.cache_builds, 0, "trace loaded, not regenerated");
        assert_eq!(warm.metrics.filter_builds, 0, "miss stream loaded, not refiltered");
        assert!(warm.metrics.store_hits >= 1);
        assert_eq!(warm.metrics.store_misses, 0);
        for (a, b) in cold.results.iter().zip(&warm.results) {
            assert_eq!(a.stats, b.stats, "warm-disk results must be bit-identical");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
