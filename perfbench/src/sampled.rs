//! The SimPoint layer, measured in `grid-replay`'s traced run on
//! paper-scale FT-CG (41.7 M accesses, 31.2 M miss events): phase
//! selection, sampled replay of all six strategies, and the sampling
//! error against exact replay.
//!
//! Why paper scale: phase selection pays off only on a miss stream far
//! beyond host caches, and the sampling error there is a real accuracy
//! figure. The seed sets `SimPointConfig::seed`.

use crate::layers::{self, Built};
use crate::run::Run;
use abft_coop_core::{run_strategy_miss_stream, run_strategy_sampled, Strategy};
use abft_memsim::{KernelKind, KernelParams, SimPointConfig, SimPointSelection, SystemConfig};

/// The repository's gate on sampled-replay error, in percent.
const MAX_ERR_PCT: f64 = 2.0;

/// Sampled passes over the six strategies; each cell's digest must
/// repeat in every pass.
const PASSES: usize = 3;

fn rel_err_pct(sampled: f64, exact: f64) -> f64 {
    100.0 * (sampled - exact).abs() / exact.abs()
}

pub fn layer(run: &mut Run) {
    let cfg = SystemConfig::default();
    let params = KernelParams::paper_for(KernelKind::Cg);
    let default = SimPointConfig::default();
    let sp = SimPointConfig { seed: default.seed.wrapping_add(run.seed), ..default };
    let label = format!("{}/paper", params.label());

    // Built without spans, so the replay layers' figures stay those of
    // the grid's default-scale kernels. Only the miss stream is kept.
    run.tracer.set_enabled(false);
    let Built { ms, .. } = layers::build(params, &cfg, run);
    run.tracer.set_enabled(run.traced);
    let (sel, d) = run.tracer.timed(
        "simpoint.select",
        &label,
        |_| ms.events(),
        || SimPointSelection::build(&ms, sp),
    );
    run.set_layer("simpoint.select_s", d.as_secs_f64());

    // Exact replay of the P_CK+P_SD cell: the reference for the error.
    let exact_s = Strategy::PartialChipkillSecded;
    let exact_name = format!("{}/exact", layers::cell_name(params, exact_s));
    let (exact, _) = run.tracer.timed(
        "replay.exact",
        &exact_name,
        |_| ms.events(),
        || run_strategy_miss_stream(&ms, &cfg, exact_s),
    );
    run.check_digest(&exact_name, &exact, true);

    let replayed = sel.replayed_events();
    let mut err_pct = 0.0f64;
    for _ in 0..PASSES {
        for s in Strategy::ALL {
            let name = format!("{}/sampled", layers::cell_name(params, s));
            let (stats, _) = run.tracer.timed(
                "simpoint.sampled_replay",
                &name,
                |_| replayed,
                || run_strategy_sampled(&ms, &sel, &cfg, s),
            );
            // Sampled cells depend on the seed; only seed 0 has digests.
            run.check_digest(&name, &stats, run.seed == 0);
            if s == exact_s {
                err_pct = rel_err_pct(stats.cycles as f64, exact.cycles as f64)
                    .max(rel_err_pct(stats.mem_total_j(), exact.mem_total_j()));
            }
        }
    }
    run.checks.check(err_pct <= MAX_ERR_PCT, || {
        format!("sampled error {err_pct:.4}% exceeds the {MAX_ERR_PCT}% gate")
    });
    run.set_layer("simpoint.sampled_err_pct", err_pct);
    run.set_layer("simpoint.replayed_frac", replayed as f64 / ms.events() as f64);
    run.set_layer(
        "simpoint.ns_per_replayed_event",
        run.tracer.ns_per("simpoint.sampled_replay", ""),
    );
    run.notes.push(format!(
        "simpoint seed {:#x}: {} of {} events replayed per cell, {} phases; sampled error {err_pct:.4}%",
        sp.seed,
        replayed,
        ms.events(),
        sel.phases().len()
    ));
}
