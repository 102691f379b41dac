//! The replay pipeline's layers, driven one call batch at a time from
//! outside the program: trace generation, packed decode, the L1/L2
//! filter, miss-stream decode, protection lookup and DRAM timing.
//!
//! The replay layers all run inside `Machine::simulate`, so the traced
//! run times them with three cumulative streaming passes over a cell's
//! miss stream — decode; decode + lookup; decode + lookup + DRAM — and
//! takes each layer's self time as the difference between passes. The
//! passes stream: collecting events into a vector first would cost about
//! a third of the whole replay and swamp the layers being measured.

use crate::run::Run;
use abft_coop_core::{run_strategy_miss_stream, Strategy};
use abft_ecc::EccScheme;
use abft_memsim::dram::{AccessKind, DramStats};
use abft_memsim::workloads::abft_region_ids;
use abft_memsim::{
    AccessSource, Dram, KernelParams, Machine, MemoryController, MissEventKind, MissStream,
    PackedTrace, SimStats, SystemConfig, DEFAULT_CHUNK,
};
use std::sync::Arc;

/// One kernel's replay inputs.
pub struct Built {
    /// The workload parameters.
    pub params: KernelParams,
    /// Its packed access trace.
    pub packed: Arc<PackedTrace>,
    /// Its cache-filtered miss stream.
    pub ms: Arc<MissStream>,
}

/// What the traced set-up learns about one build.
#[derive(Debug, Clone, Copy)]
pub struct BuildInfo {
    /// Kernel label.
    pub kernel: &'static str,
    /// Source accesses.
    pub accesses: u64,
    /// Packed trace bytes.
    pub packed_bytes: u64,
    /// Miss events.
    pub events: u64,
    /// Packed miss-stream bytes.
    pub ms_bytes: u64,
    /// L2 demand misses per source access.
    pub miss_ratio: f64,
}

/// Span-cell prefix of a kernel's set-up spans.
pub fn build_cell(params: KernelParams) -> String {
    format!("{}/build", params.label())
}

/// Generate `params`' packed trace and filter it through `cfg`'s caches.
/// The traced set-up also drains the packed trace on its own, so the
/// filter's time can be separated from the decode it contains.
pub fn build(params: KernelParams, cfg: &SystemConfig, run: &mut Run) -> Built {
    let cell = build_cell(params);
    let (packed, _) = run.tracer.timed(
        "workloads.build_packed",
        &cell,
        |p: &Arc<PackedTrace>| p.len(),
        || Arc::new(params.build_packed()),
    );
    if run.tracer.enabled() {
        let (drained, _) = run.tracer.timed("packed.replay", &cell, |n| *n, || drain(&packed));
        run.checks.cross_check(
            &format!("{cell} packed drain == PackedTrace::len"),
            drained,
            packed.len(),
        );
    }
    let (ms, _) = run.tracer.timed(
        "cache.filter",
        &cell,
        |m: &Arc<MissStream>| m.accesses(),
        || Arc::new(MissStream::build(&mut packed.replay(), cfg.l1, cfg.l2, cfg.threads)),
    );
    if run.tracer.enabled() {
        run.builds.push(BuildInfo {
            kernel: params.label(),
            accesses: ms.accesses(),
            packed_bytes: packed.packed_bytes(),
            events: ms.events(),
            ms_bytes: ms.packed_bytes(),
            miss_ratio: ms.miss_ratio(),
        });
    }
    Built { params, packed, ms }
}

/// Pull every access out of a packed trace; returns how many came out.
fn drain(packed: &Arc<PackedTrace>) -> u64 {
    let mut src = packed.replay();
    let mut buf = Vec::with_capacity(DEFAULT_CHUNK);
    let (mut n, mut acc) = (0u64, 0u64);
    while src.fill(&mut buf, DEFAULT_CHUNK) > 0 {
        n += buf.len() as u64;
        acc = buf.iter().fold(acc, |h, a| h.wrapping_add(a.addr ^ u64::from(a.work)));
    }
    std::hint::black_box(acc);
    n
}

/// Span-cell name of a replay cell.
pub fn cell_name(params: KernelParams, strategy: Strategy) -> String {
    format!("{}/{strategy:?}", params.label())
}

fn scheme_index(s: EccScheme) -> usize {
    match s {
        EccScheme::None => 0,
        EccScheme::Secded => 1,
        EccScheme::Chipkill => 2,
    }
}

/// Pass 1: decode every event.
fn pass_decode(ms: &MissStream) -> u64 {
    let (mut n, mut acc) = (0u64, 0u64);
    for ev in ms.iter() {
        n += 1;
        acc = acc.wrapping_add(ev.core_cycles ^ ev.trigger.addr);
        acc ^= match ev.kind {
            MissEventKind::Writeback(wb) => wb,
            MissEventKind::Demand { writeback } => writeback.unwrap_or(1),
        };
    }
    std::hint::black_box(acc);
    n
}

/// What pass 2 counted.
struct Lookups {
    events: u64,
    per_scheme: [u64; 3],
}

/// Pass 2: decode plus one protection lookup per DRAM request.
fn pass_lookup(ms: &MissStream, mc: &MemoryController) -> Lookups {
    let mut l = Lookups { events: 0, per_scheme: [0; 3] };
    for ev in ms.iter() {
        l.events += 1;
        let (first, second) = match ev.kind {
            MissEventKind::Writeback(wb) => (wb, None),
            MissEventKind::Demand { writeback } => (ev.trigger.addr, writeback),
        };
        l.per_scheme[scheme_index(mc.scheme_for(first))] += 1;
        if let Some(wb) = second {
            l.per_scheme[scheme_index(mc.scheme_for(wb))] += 1;
        }
    }
    l
}

/// What pass 3 produced.
struct DramPass {
    events: u64,
    cycles: u64,
    stats: DramStats,
}

/// Pass 3: decode, lookup and DRAM timing, with arrivals stamped by the
/// replay engine's rule: the event's pure core cycles plus the stall
/// cycles of every demand miss before it.
fn pass_dram(ms: &MissStream, mc: &MemoryController, cfg: &SystemConfig) -> DramPass {
    let mut dram = Dram::new(cfg.clone());
    let cycle_ns = cfg.cycle_ns();
    let mut stall: u64 = 0;
    let mut events = 0u64;
    let kind = |addr| AccessKind::Scheme(mc.scheme_for(addr));
    for ev in ms.iter() {
        events += 1;
        let now = (ev.core_cycles + stall) as f64 * cycle_ns;
        match ev.kind {
            MissEventKind::Writeback(wb) => {
                dram.access_kind(now, wb, true, kind(wb));
            }
            MissEventKind::Demand { writeback } => {
                let addr = ev.trigger.addr;
                let res = dram.access_kind(now, addr, false, kind(addr));
                stall += ((res.completion_ns - now) * cfg.stall_factor / cycle_ns) as u64;
                if let Some(wb) = writeback {
                    dram.access_kind(now, wb, true, kind(wb));
                }
            }
        }
    }
    DramPass { events, cycles: ms.core_cycles() + stall, stats: dram.stats }
}

/// Replay one cell, then run the three cumulative passes over it, and
/// cross-check each pass against the cell's simulated statistics. The
/// replay is timed right beside the passes, so the difference between
/// them — the replay engine's own time — is not skewed by whatever else
/// the host was doing at another moment.
pub fn passes(
    run: &mut Run,
    ms: &MissStream,
    cfg: &SystemConfig,
    strategy: Strategy,
    cell: &str,
    want: &SimStats,
) {
    let mut machine = Machine::new(cfg.clone());
    machine.program_ecc(ms.regions(), &strategy.assignment(&abft_region_ids(ms.regions())));
    let mc = &machine.controller;
    let (replayed, _) = run.tracer.timed(
        "system.simulate",
        cell,
        |_| ms.events(),
        || run_strategy_miss_stream(ms, cfg, strategy),
    );
    let (decoded, _) = run.tracer.timed("pass.decode", cell, |n| *n, || pass_decode(ms));
    let (lookups, _) = run.tracer.timed(
        "pass.decode_lookup",
        cell,
        |l: &Lookups| l.events,
        || pass_lookup(ms, mc),
    );
    let (dp, _) = run.tracer.timed(
        "pass.decode_lookup_dram",
        cell,
        |d: &DramPass| d.events,
        || pass_dram(ms, mc, cfg),
    );
    let c = &mut run.checks;
    c.check(replayed == *want, || format!("{cell}: replay beside the passes differs"));
    c.cross_check(&format!("{cell} decoded events == MissStream::events"), decoded, ms.events());
    for i in 0..3 {
        c.cross_check(
            &format!("{cell} lookups[{i}] == SimStats.per_scheme[{i}]"),
            lookups.per_scheme[i],
            want.per_scheme[i],
        );
        c.cross_check(
            &format!("{cell} dram per_scheme[{i}] == SimStats.per_scheme[{i}]"),
            dp.stats.per_scheme[i],
            want.per_scheme[i],
        );
    }
    c.cross_check(
        &format!("{cell} dram reads == SimStats.dram_reads"),
        dp.stats.reads,
        want.dram_reads,
    );
    c.cross_check(
        &format!("{cell} dram writes == SimStats.dram_writes"),
        dp.stats.writes,
        want.dram_writes,
    );
    c.cross_check(
        &format!("{cell} core cycles + stalls == SimStats.cycles"),
        dp.cycles,
        want.cycles,
    );
    run.dram.push((cell.to_string(), dp.stats));
}
