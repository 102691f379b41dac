//! The store path, measured in `grid-replay`'s traced run: per kernel,
//! one P_CK+P_SD cell through `CampaignClient` with an artifact store —
//! cold (empty store, fresh cache: generate, filter, persist, replay)
//! and then warm (fresh cache over the populated store: load, replay) —
//! and every kernel's blobs saved and loaded directly.
//!
//! Why: the first run of a harness binary is dominated by the L1/L2
//! filter; store writes happen only cold and store reads only warm. The
//! grid's timed loop bypasses both.

use crate::layers::{self, Built};
use crate::run::Run;
use abft_coop_core::{CampaignClient, CampaignRun, CampaignSpec, Strategy};
use abft_memsim::{ArtifactStore, FilterKey, SimStats, SystemConfig, TraceCache};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// The strategy of the store cells.
pub const STRATEGY: Strategy = Strategy::PartialChipkillSecded;

/// One pass through the campaign client on a fresh in-memory cache.
fn pass(spec: &CampaignSpec) -> CampaignRun {
    CampaignClient::with_cache(Arc::new(TraceCache::new())).run(spec)
}

/// Run every kernel's cell cold and then warm through a store under
/// `out`; `refs[k]` is kernel `k`'s in-memory replay of [`STRATEGY`],
/// which both passes must reproduce.
pub fn layer(run: &mut Run, built: &[Built], refs: &[SimStats], out: &Path) {
    let cfg = SystemConfig::default();
    let root = out.join(format!("store-{}", std::process::id()));
    let (mut cold_s, mut warm_s) = (Duration::ZERO, Duration::ZERO);
    let (mut filter_builds, mut store_hits, mut store_misses) = (0u64, 0u64, 0u64);
    for (k, b) in built.iter().enumerate() {
        let name = layers::cell_name(b.params, STRATEGY);
        let spec = CampaignSpec::builder()
            .workload(b.params)
            .strategy(STRATEGY)
            .threads(1)
            .store(root.join(k.to_string()))
            .build();
        let (cold, dc) =
            run.tracer.timed("campaign.cold", &format!("{name}/cold"), |_| 1, || pass(&spec));
        let (warm, dw) =
            run.tracer.timed("campaign.warm", &format!("{name}/warm"), |_| 1, || pass(&spec));
        cold_s += dc;
        warm_s += dw;
        filter_builds += cold.metrics.filter_builds;
        store_hits += warm.metrics.store_hits;
        store_misses += warm.metrics.store_misses;

        let c = &mut run.checks;
        let (cm, wm) = (&cold.metrics, &warm.metrics);
        c.check(cm.cache_builds == 1 && cm.filter_builds == 1, || {
            format!(
                "{name}: cold pass built {} traces, {} miss streams",
                cm.cache_builds, cm.filter_builds
            )
        });
        c.check(wm.cache_builds == 0 && wm.filter_builds == 0, || {
            format!(
                "{name}: warm pass built {} traces, {} miss streams",
                wm.cache_builds, wm.filter_builds
            )
        });
        let stats = |r: &CampaignRun| r.results.first().map(|c| c.stats.clone());
        c.check(stats(&cold).as_ref() == Some(&refs[k]), || {
            format!("{name}: cold pass differs from in-memory replay")
        });
        c.check(stats(&warm) == stats(&cold), || {
            format!("{name}: warm pass differs from cold pass")
        });
    }
    run.set_layer("campaign.cold_start_s", cold_s.as_secs_f64());
    run.set_layer("campaign.warm_start_s", warm_s.as_secs_f64());
    run.set_layer("campaign.filter_builds", filter_builds as f64);
    run.set_layer("campaign.store_hits", store_hits as f64);
    let hits = store_hits as f64;
    run.set_layer("store.hit_rate", hits / (hits + store_misses as f64).max(1.0));
    run.notes.push(format!(
        "store: cold pass {:.4} s, warm pass {:.4} s over {} kernels",
        cold_s.as_secs_f64(),
        warm_s.as_secs_f64(),
        built.len()
    ));

    store_layer(run, built, &cfg, &root.join("layers"));
    let removed = std::fs::remove_dir_all(&root);
    run.checks
        .check(removed.is_ok(), || format!("could not remove {}: {removed:?}", root.display()));
}

/// Save and load every kernel's blobs directly, timing the store layer
/// per byte and checking each blob round-trips.
fn store_layer(run: &mut Run, built: &[Built], cfg: &SystemConfig, dir: &Path) {
    let store = match ArtifactStore::open(dir) {
        Ok(s) => s,
        Err(e) => {
            run.checks.check(false, || format!("cannot open a store in {}: {e}", dir.display()));
            return;
        }
    };
    let size = |p: std::path::PathBuf| std::fs::metadata(p).map_or(0, |m| m.len());
    let mut blob_bytes = 0u64;
    for b in built {
        let cell = layers::build_cell(b.params);
        let key = FilterKey::new(b.params, cfg);
        let (trace_bytes, _) = run.tracer.timed(
            "store.save",
            &cell,
            |n| *n,
            || {
                store
                    .save_trace(b.params, &b.packed)
                    .map_or(0, |()| size(store.trace_path(b.params)))
            },
        );
        let (miss_bytes, _) = run.tracer.timed(
            "store.save",
            &cell,
            |n| *n,
            || store.save_miss(&key, &b.ms).map_or(0, |()| size(store.miss_path(&key))),
        );
        blob_bytes += trace_bytes + miss_bytes;
        let (trace, _) =
            run.tracer.timed("store.load", &cell, |_| trace_bytes, || store.load_trace(b.params));
        let (miss, _) =
            run.tracer.timed("store.load", &cell, |_| miss_bytes, || store.load_miss(&key));
        let c = &mut run.checks;
        c.cross_check(
            &format!("{cell} loaded trace len == PackedTrace::len"),
            trace.map_or(0, |t| t.len()),
            b.packed.len(),
        );
        c.cross_check(
            &format!("{cell} loaded miss events == MissStream::events"),
            miss.map_or(0, |m| m.events()),
            b.ms.events(),
        );
    }
    run.set_layer("store.blob_bytes", blob_bytes as f64);
    run.set_layer("store.save_ns_per_byte", run.tracer.ns_per("store.save", ""));
    run.set_layer("store.load_ns_per_byte", run.tracer.ns_per("store.load", ""));
}
