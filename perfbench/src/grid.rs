//! `grid-replay`: the Figure 7 grid — four default-scale kernels × six
//! ECC strategies, 24 exact filtered-replay cells — replayed from miss
//! streams built once in set-up.
//!
//! Why: DRAM timing, protection lookup and miss decode do almost all of
//! the timed work; trace generation and the L1/L2 filter do none of it.
//! The traced run also measures the store path (see `store`) and the
//! SimPoint layer on paper-scale FT-CG (see `sampled`).

use crate::layers::{self, Built};
use crate::run::{shuffle, Run};
use crate::{sampled, store};
use abft_coop_core::{run_strategy_miss_stream, run_strategy_source, Strategy};
use abft_memsim::{KernelKind, KernelParams, SimStats, SystemConfig};
use std::path::Path;

/// Build the four kernels' packed traces and miss streams.
fn build_all(run: &mut Run, cfg: &SystemConfig) -> Vec<Built> {
    KernelKind::ALL.iter().map(|&k| layers::build(KernelParams::default_for(k), cfg, run)).collect()
}

pub fn run(run: &mut Run, out: &Path) {
    let cfg = SystemConfig::default();
    let built = run.setup(|run| build_all(run, &cfg));

    // The seed orders the kernels. Each kernel's six cells stay together
    // in the paper's order, as the harness runs them, so whatever the seed
    // the same cell of each kernel is the one that finds its miss stream
    // cold in host caches.
    let mut kernels: Vec<usize> = (0..built.len()).collect();
    shuffle(&mut kernels, run.seed);
    let cells: Vec<(usize, Strategy)> =
        kernels.iter().flat_map(|&k| Strategy::ALL.map(|s| (k, s))).collect();
    let names: Vec<String> =
        cells.iter().map(|&(k, s)| layers::cell_name(built[k].params, s)).collect();

    let mut first: Vec<Option<SimStats>> = vec![None; cells.len()];
    let (mut events, mut secs) = (0u64, 0.0f64);
    run.timed_loop(|run, _| {
        for (i, &(k, s)) in cells.iter().enumerate() {
            let ms = &built[k].ms;
            let (stats, d) = run.cell(
                "replay.cell",
                &names[i],
                |_| ms.events(),
                || run_strategy_miss_stream(ms, &cfg, s),
            );
            events += ms.events();
            secs += d.as_secs_f64();
            // Inputs do not depend on the seed (it only orders the cells),
            // so every seed is held to the committed digests.
            run.check_digest(&names[i], &stats, true);
            first[i].get_or_insert(stats);
        }
    });
    run.set_layer("system.events_per_s", events as f64 / secs);
    run.notes.push(format!("replayed {events} miss events in {secs:.3} host s"));

    // Full-path replay of one cell per kernel, outside the timed window:
    // it must be bit-identical to the filtered cell.
    let full = Strategy::PartialChipkillSecded;
    for (k, b) in built.iter().enumerate() {
        let i = cells.iter().position(|&c| c == (k, full)).expect("every kernel has the cell");
        let (stats, _) = run.tracer.timed(
            "system.full_path",
            &names[i],
            |_| b.packed.len(),
            || run_strategy_source(&mut b.packed.replay(), &cfg, full),
        );
        let same = first[i].as_ref() == Some(&stats);
        run.checks.check(same, || format!("{}: full path differs from filtered replay", names[i]));
    }

    if run.traced {
        let mut refs: Vec<Option<SimStats>> = vec![None; built.len()];
        for (i, &(k, s)) in cells.iter().enumerate() {
            let want = first[i].take().expect("every cell ran");
            layers::passes(run, &built[k].ms, &cfg, s, &names[i], &want);
            if s == store::STRATEGY {
                refs[k] = Some(want);
            }
        }
        let refs: Vec<SimStats> =
            refs.into_iter().map(|r| r.expect("every kernel has the cell")).collect();
        store::layer(run, &built, &refs, out);
        // The grid's inputs go before the paper-scale build comes in, so
        // peak memory is the larger of the two, not their sum.
        drop(built);
        sampled::layer(run);
    }
}
