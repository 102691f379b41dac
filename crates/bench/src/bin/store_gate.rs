//! CI gate for the artifact store: runs the Figure 7 grid (4 kernels x
//! 6 strategies) from a fresh in-memory cache against an on-disk store
//! and writes every cell as one canonical line (floats as exact IEEE-754
//! bit patterns). `scripts/ci.sh` runs it twice in separate processes
//! over the same store directory; the second run passes `--expect` with
//! the first run's output and the gate then asserts
//!
//! * the output files are byte-identical (bit-identical `SimStats`
//!   across processes),
//! * nothing was regenerated (zero trace builds, zero filter builds,
//!   zero SimPoint cluster rebuilds — the grid runs with phase sampling
//!   on, so selections are persisted and reloaded too),
//! * the artifact hit rate is >= 90%.
//!
//! Usage: `store_gate <store-dir> <out-file> [--expect <cold-file>]`

use abft_coop_core::report::format_cell;
use abft_coop_core::{CampaignClient, CampaignSpec};
use abft_memsim::simpoint::SimPointConfig;
use abft_memsim::workloads::KernelKind;
use abft_memsim::TraceCache;
use std::fmt::Write as _;
use std::sync::Arc;

fn fail(msg: &str) -> ! {
    eprintln!("store_gate: {msg}");
    std::process::exit(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (store_dir, out_file) = match (args.first(), args.get(1)) {
        (Some(s), Some(o)) => (s.clone(), o.clone()),
        _ => fail("usage: store_gate <store-dir> <out-file> [--expect <cold-file>]"),
    };
    let expect = match (args.get(2).map(String::as_str), args.get(3)) {
        (Some("--expect"), Some(path)) => Some(path.clone()),
        (None, _) => None,
        _ => fail("usage: store_gate <store-dir> <out-file> [--expect <cold-file>]"),
    };

    // A fresh cache makes every memo miss go to the store, exactly like
    // a fresh process would.
    let cache = Arc::new(TraceCache::new());
    // Sampling on: the gate then also covers the SimPoint selection
    // blobs (built cold, loaded warm, zero rebuilds).
    let spec = CampaignSpec::builder()
        .kernels(KernelKind::ALL)
        .store(&store_dir)
        .sampling(SimPointConfig::default())
        .build();
    let run = CampaignClient::with_cache(cache).run(&spec);
    if run.results.len() != spec.cells() {
        fail(&format!("expected {} cells, got {}", spec.cells(), run.results.len()));
    }

    let mut out = String::new();
    for (i, r) in run.results.iter().enumerate() {
        let _ = writeln!(out, "{}", format_cell(i, r));
    }
    if let Err(e) = std::fs::write(&out_file, &out) {
        fail(&format!("could not write {out_file}: {e}"));
    }

    let m = &run.metrics;
    eprintln!(
        "store_gate: jobs={} cache_builds={} filter_builds={} simpoint_builds={} \
         sampled_cells={} store_hits={} store_misses={} store_writes={} store_evictions={}",
        m.jobs,
        m.cache_builds,
        m.filter_builds,
        m.simpoint_builds,
        m.sampled_cells,
        m.store_hits,
        m.store_misses,
        m.store_writes,
        m.store_evictions,
    );

    if let Some(cold_file) = expect {
        let cold = match std::fs::read_to_string(&cold_file) {
            Ok(c) => c,
            Err(e) => fail(&format!("could not read {cold_file}: {e}")),
        };
        if cold != out {
            fail("warm-disk results differ from the cold run (SimStats not bit-identical)");
        }
        if m.cache_builds != 0 || m.filter_builds != 0 || m.simpoint_builds != 0 {
            fail(&format!(
                "warm-disk run regenerated artifacts: {} trace builds, {} filter builds, \
                 {} simpoint cluster rebuilds",
                m.cache_builds, m.filter_builds, m.simpoint_builds
            ));
        }
        let lookups = m.store_hits + m.store_misses;
        let hit_rate = if lookups == 0 { 0.0 } else { m.store_hits as f64 / lookups as f64 };
        if hit_rate < 0.9 {
            fail(&format!(
                "artifact hit rate {:.2} below the 0.90 gate ({} hits / {} lookups)",
                hit_rate, m.store_hits, lookups
            ));
        }
        println!(
            "store_gate: warm-disk OK — bit-identical grid, zero regenerations, \
             hit rate {hit_rate:.2}"
        );
    } else {
        println!("store_gate: cold run OK — {} artifacts written", m.store_writes);
    }
}
