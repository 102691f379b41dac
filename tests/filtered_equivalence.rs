//! The two-phase pipeline's contract: replaying the cache-filtered
//! `MissStream` of a workload through the memory controller and DRAM must
//! produce bit-identical `SimStats` to running the full access stream —
//! for every kernel, every ECC assignment shape (uniform, relaxed, none),
//! the stateful DGMS granularity policy, and non-default cache geometries
//! and thread counts. Cache outcomes are ECC-independent, so one filter
//! pass per (workload x geometry x threads) serves every policy.
//!
//! Every cell is also pinned to a committed line of
//! `tests/golden/filtered_equivalence.txt` (`<cell> <format_stats>`), so
//! a change that moves both paths in step still fails here. On a
//! mismatch the test names the cell and its first differing field and
//! prints the replacement line; a deliberate modelling change
//! re-baselines by pasting the printed lines over the committed ones.

use abft_coop::abft_coop_core::report::format_stats;
use abft_coop::abft_dgms::{run_dgms, run_dgms_miss_stream};
use abft_coop::abft_memsim::system::Machine;
use abft_coop::abft_memsim::workloads::{CholeskyParams, HplParams};
use abft_coop::abft_memsim::{MissStream, SimStats};
use abft_coop::prelude::*;
use std::sync::Arc;

fn small_grid() -> Vec<KernelParams> {
    vec![
        KernelParams::Dgemm(DgemmParams { n: 256, nb: 64, abft: true, verify_interval: 2 }),
        KernelParams::Cholesky(CholeskyParams { n: 256, nb: 64, abft: true }),
        KernelParams::Cg(CgParams { grid: 96, iterations: 3, abft: true, verify_interval: 2 }),
        KernelParams::Hpl(HplParams { n: 256, nb: 64, abft: true }),
    ]
}

const GOLDEN: &str = include_str!("golden/filtered_equivalence.txt");

/// Record a failure unless both paths' lines for `cell` equal its
/// committed line: the first differing field, then the replacement line.
fn check(failures: &mut Vec<String>, cell: &str, full: &str, filtered: &str) {
    let want = GOLDEN.lines().find_map(|l| l.strip_prefix(cell)?.strip_prefix(' ')).unwrap_or("");
    for (path, got) in [("full", full), ("filtered", filtered)] {
        if got != want {
            let (w, g): (Vec<_>, Vec<_>) = (want.split(' ').collect(), got.split(' ').collect());
            let i = w.iter().zip(&g).take_while(|(a, b)| a == b).count();
            let (w_i, g_i) = (w.get(i).unwrap_or(&"(none)"), g.get(i).unwrap_or(&"(none)"));
            failures.push(format!(
                "{cell}, {path} path: first differing field `{g_i}`, committed `{w_i}`\n{cell} {full}"
            ));
        }
    }
}

fn finish(failures: Vec<String>) {
    assert!(
        failures.is_empty(),
        "cells differ from tests/golden/filtered_equivalence.txt \
         (each failure is followed by its replacement line):\n{}",
        failures.join("\n")
    );
}

fn filter(packed: &Arc<PackedTrace>, cfg: &SystemConfig) -> MissStream {
    MissStream::build(&mut packed.replay(), cfg.l1, cfg.l2, cfg.threads)
}

#[test]
fn filtered_replay_is_bit_identical_for_every_kernel_and_strategy() {
    // Uniform chipkill, uniform SECDED, no ECC, and both relaxed
    // (range-register) assignments — all six strategies — against the
    // full path, for all four kernels, off one shared filter pass each.
    let cfg = SystemConfig::default();
    let mut failures = Vec::new();
    for params in small_grid() {
        let packed = Arc::new(params.build_packed());
        let ms = filter(&packed, &cfg);
        for s in Strategy::ALL {
            let full = run_strategy_source(&mut packed.replay(), &cfg, s);
            let filtered = run_strategy_miss_stream(&ms, &cfg, s);
            let cell = format!("{}/{s:?}", params.label());
            check(&mut failures, &cell, &format_stats(&full), &format_stats(&filtered));
        }
    }
    finish(failures);
}

#[test]
fn filtered_replay_is_bit_identical_under_the_dgms_policy() {
    // The stateful spatial predictor must observe the same DRAM-request
    // sequence; any dropped or reordered access desynchronizes its
    // epoch-based pattern table and shows up here.
    let cfg = SystemConfig::default();
    let mut failures = Vec::new();
    for params in small_grid() {
        let packed = Arc::new(params.build_packed());
        let ms = filter(&packed, &cfg);
        let (full, full_frac) = run_dgms(&mut Machine::new(cfg.clone()), &mut packed.replay());
        let (filtered, frac) = run_dgms_miss_stream(&mut Machine::new(cfg.clone()), &ms);
        let line =
            |s: &SimStats, f: f64| format!("{} dgms_frac={:016x}", format_stats(s), f.to_bits());
        let cell = format!("{}/DGMS", params.label());
        check(&mut failures, &cell, &line(&full, full_frac), &line(&filtered, frac));
    }
    finish(failures);
}

#[test]
fn filtered_replay_is_bit_identical_across_geometries_and_threads() {
    // The filter key is (geometry, threads): shrink the L2, shrink the
    // L1, and vary the thread count (the cycle-compression carry), and
    // the equivalence must hold for each variant's own filter pass.
    let params =
        KernelParams::Dgemm(DgemmParams { n: 256, nb: 64, abft: true, verify_interval: 2 });
    let packed = Arc::new(params.build_packed());
    let base = SystemConfig::default();

    let mut half_l2 = base.clone();
    half_l2.l2.capacity /= 2;
    let mut tiny_l1 = base.clone();
    tiny_l1.l1.capacity /= 4;
    let mut serial = base.clone();
    serial.threads = 1;
    let mut wide = base.clone();
    wide.threads = 8;

    let mut failures = Vec::new();
    for (tag, cfg) in
        [("half-l2", half_l2), ("quarter-l1", tiny_l1), ("1-thread", serial), ("8-thread", wide)]
    {
        let ms = filter(&packed, &cfg);
        for s in [Strategy::WholeChipkill, Strategy::PartialChipkillSecded] {
            let full = run_strategy_source(&mut packed.replay(), &cfg, s);
            let filtered = run_strategy_miss_stream(&ms, &cfg, s);
            let cell = format!("{tag}/{}/{s:?}", params.label());
            check(&mut failures, &cell, &format_stats(&full), &format_stats(&filtered));
        }
    }
    finish(failures);
}

#[test]
fn stall_factor_variants_share_a_filter_but_still_match() {
    // The ablation binaries sweep `stall_factor` across configs with one
    // cache geometry; the memo hands them a single stream. Each variant's
    // filtered replay must still match its own full run.
    let params =
        KernelParams::Cg(CgParams { grid: 96, iterations: 3, abft: true, verify_interval: 2 });
    let packed = Arc::new(params.build_packed());
    let base = SystemConfig::default();
    let ms = filter(&packed, &base);
    let mut failures = Vec::new();
    for mlp in [1.0, 0.5, 0.25] {
        let cfg = SystemConfig { stall_factor: base.stall_factor * mlp, ..base.clone() };
        let full = run_strategy_source(&mut packed.replay(), &cfg, Strategy::WholeChipkill);
        let filtered = run_strategy_miss_stream(&ms, &cfg, Strategy::WholeChipkill);
        let cell = format!("stall-x{mlp}/{}/WholeChipkill", params.label());
        check(&mut failures, &cell, &format_stats(&full), &format_stats(&filtered));
    }
    finish(failures);
}
