//! The state one benchmark run carries: seed, span recorder, correctness
//! checks, set-up and timed-loop samples, and the per-layer values the
//! workload fills in.

use crate::layers::BuildInfo;
use crate::trace::Tracer;
use abft_memsim::dram::DramStats;
use abft_memsim::{SimStats, StableDigest};
use rand::{Rng as _, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Fewest timed iterations per run, however long one takes.
pub const MIN_ITERATIONS: usize = 3;

/// Digests of every cell at seed 0, committed beside the benchmark.
const GOLDEN: &str = include_str!("../digests.txt");

/// Correctness checks: every check is attempted once and either passes
/// or counts as failed.
#[derive(Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Count one check; a failure is reported on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {}", what());
        }
        ok
    }

    /// Count one cross-check and print it with its counts.
    pub fn cross_check(&mut self, what: &str, got: u64, want: u64) {
        let ok = self.check(got == want, || format!("{what}: {got} != {want}"));
        println!("cross-check {what}: {got} == {want} {}", if ok { "ok" } else { "MISMATCH" });
    }
}

/// Stable digest over every [`SimStats`] field, bit for bit.
pub fn digest(s: &SimStats) -> u128 {
    let mut d = StableDigest::new();
    for v in [s.instructions, s.cycles, s.dram_reads, s.dram_writes] {
        d.u64(v);
    }
    for v in s.per_scheme {
        d.u64(v);
    }
    for v in [
        s.seconds,
        s.ipc(),
        s.mem_dynamic_j(),
        s.mem_standby_j(),
        s.proc_j(),
        s.l1_hit_rate,
        s.l2_hit_rate,
        s.row_hit_rate,
        s.avg_dram_latency_ns,
        s.avg_dram_queue_ns,
        s.dram_bandwidth_gbps,
    ] {
        d.f64(v);
    }
    d.u64(s.regions.len() as u64);
    for r in &s.regions {
        d.str_token(&r.name);
        d.u64(u64::from(r.abft_protected) | u64::from(r.abft_detectable) << 1);
        for v in [r.refs, r.l1_misses, r.llc_misses] {
            d.u64(v);
        }
    }
    d.finish()
}

/// The committed seed-0 digest of a cell, if the file has one.
pub fn golden(cell: &str) -> Option<u128> {
    GOLDEN.lines().find_map(|line| {
        let (key, hex) = line.split_once(' ')?;
        (key == cell).then(|| u128::from_str_radix(hex.trim(), 16).ok()).flatten()
    })
}

/// The benchmark's seeded generator for cell orders and fault positions;
/// `stream` keeps one use's draws apart from another's.
pub fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
}

/// Shuffle `items` for `seed`; seed 0 keeps the paper's order.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    if seed == 0 {
        return;
    }
    let mut rng = rng(seed, 1);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One run of one workload.
pub struct Run {
    /// Workload seed (0 is the paper's configuration).
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// The span recorder.
    pub tracer: Tracer,
    /// Correctness checks.
    pub checks: Checks,
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Host seconds of each timed iteration run with tracing off.
    pub iter_s: Vec<f64>,
    /// Host seconds of each timed iteration run with tracing on.
    pub iter_traced_s: Vec<f64>,
    /// Host milliseconds of every timed cell, by cell.
    pub cell_ms: BTreeMap<String, Vec<f64>>,
    /// Per-layer values the workload measures directly.
    pub layer: BTreeMap<&'static str, f64>,
    /// Lines describing the run, printed before the result.
    pub notes: Vec<String>,
    /// What the traced set-up learned about each build.
    pub builds: Vec<BuildInfo>,
    /// Simulated DRAM statistics of every traced DRAM pass, by cell.
    pub dram: Vec<(String, DramStats)>,
    iter_acc: Duration,
    first_digest: BTreeMap<String, u128>,
}

impl Run {
    /// A fresh run.
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Run {
        Run {
            seed,
            seconds,
            traced,
            tracer: Tracer::new(traced),
            checks: Checks::default(),
            setup_s: Vec::new(),
            iter_s: Vec::new(),
            iter_traced_s: Vec::new(),
            cell_ms: BTreeMap::new(),
            layer: BTreeMap::new(),
            notes: Vec::new(),
            builds: Vec::new(),
            dram: Vec::new(),
            iter_acc: Duration::ZERO,
            first_digest: BTreeMap::new(),
        }
    }

    /// Build the workload's inputs [`SETUPS`] times, timing each, and
    /// keep the last. The previous build is dropped before the next
    /// starts, so peak memory is that of one build. Only the last build
    /// records spans, so layer figures count each input once.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut Run) -> T) -> T {
        let mut last = None;
        for k in 0..SETUPS {
            drop(last.take());
            self.tracer.set_enabled(self.traced && k + 1 == SETUPS);
            let t = Instant::now();
            let v = build(self);
            self.setup_s.push(t.elapsed().as_secs_f64());
            last = Some(v);
        }
        self.tracer.set_enabled(self.traced);
        last.expect("SETUPS > 0")
    }

    /// The closed loop: one iteration at a time, while the next one is
    /// expected to end within `seconds` (it is assumed to take as long as
    /// the last), and at least [`MIN_ITERATIONS`]. The traced run
    /// records spans on every other iteration, so the recorder's own
    /// overhead is the difference between the two halves.
    pub fn timed_loop(&mut self, mut iteration: impl FnMut(&mut Run, usize)) {
        let start = Instant::now();
        let mut last = 0.0;
        let mut i = 0;
        while i < MIN_ITERATIONS || start.elapsed().as_secs_f64() + last <= self.seconds {
            let traced_iteration = self.traced && i % 2 == 1;
            self.tracer.set_enabled(traced_iteration);
            self.iter_acc = Duration::ZERO;
            let t = Instant::now();
            iteration(self, i);
            last = t.elapsed().as_secs_f64();
            let s = self.iter_acc.as_secs_f64();
            if traced_iteration {
                self.iter_traced_s.push(s);
            } else {
                self.iter_s.push(s);
            }
            i += 1;
        }
        self.tracer.set_enabled(self.traced);
    }

    /// Time one cell of the timed loop: its host latency is a sample of
    /// the cell's latencies, and a span of `count` work items when
    /// tracing.
    pub fn cell<R>(
        &mut self,
        name: &'static str,
        cell: &str,
        count: impl FnOnce(&R) -> u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let (r, d) = self.tracer.timed(name, cell, count, f);
        self.cell_ms.entry(cell.to_string()).or_default().push(d.as_secs_f64() * 1e3);
        self.iter_acc += d;
        (r, d)
    }

    /// Each cell's mean latency over the run's iterations, in ms.
    pub fn cell_means(&self) -> Vec<f64> {
        self.cell_ms.values().filter_map(|v| crate::stats::mean(v)).collect()
    }

    /// Check a cell's statistics: identical to the first iteration's,
    /// and, where `golden` is set, to the committed seed-0 digest.
    pub fn check_digest(&mut self, cell: &str, stats: &SimStats, golden_required: bool) {
        let d = digest(stats);
        let first = *self.first_digest.entry(cell.to_string()).or_insert(d);
        self.checks.check(d == first, || format!("{cell}: statistics changed between iterations"));
        if golden_required {
            let want = golden(cell);
            self.checks.check(want == Some(d), || match want {
                Some(w) => format!("{cell}: digest {d:032x} != committed {w:032x}"),
                None => format!("{cell}: no committed digest (got {d:032x})"),
            });
        }
    }

    /// Set one directly measured per-layer value.
    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_order_and_other_seeds_permute() {
        let mut v: Vec<usize> = (0..24).collect();
        shuffle(&mut v, 0);
        assert_eq!(v, (0..24).collect::<Vec<_>>());
        shuffle(&mut v, 5);
        assert_ne!(v, (0..24).collect::<Vec<_>>());
        let mut again: Vec<usize> = (0..24).collect();
        shuffle(&mut again, 5);
        assert_eq!(v, again, "same seed, same order");
        v.sort_unstable();
        assert_eq!(v, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn digest_sees_every_field() {
        let mut base = SimStats::default();
        base.cycles = 10;
        let mut other = base.clone();
        other.per_scheme[2] = 1;
        assert_ne!(digest(&base), digest(&other));
        other = base.clone();
        other.avg_dram_queue_ns = f64::from_bits(1);
        assert_ne!(digest(&base), digest(&other));
        assert_eq!(digest(&base), digest(&base.clone()));
    }

    #[test]
    fn checks_count_failures() {
        let mut c = Checks::default();
        c.check(true, String::new);
        c.check(false, || "expected".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
    }
}
