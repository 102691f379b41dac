//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark itself makes into
//! the program — one span per call batch (per cell per layer), never
//! per event — and kept in memory until the run ends. Each span carries
//! a work count recorded at the same boundary, so per-layer ratios are
//! measured where the work happens. With tracing off every method is a
//! no-op apart from running the wrapped call.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or phase name, `<module>.<what>`.
    pub name: &'static str,
    /// The cell the span belongs to (`<kernel>/<strategy>`, or a phase).
    pub cell: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Work done inside the span (accesses, events, bytes, ...).
    pub count: u64,
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off (the traced run alternates, to measure
    /// the recorder's own overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn push(&mut self, name: &'static str, cell: &str, start: Instant, dur: Duration, count: u64) {
        self.spans.push(Span {
            name,
            cell: cell.to_string(),
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            count,
        });
    }

    /// Run `f`, time it, and record it as a span whose work count
    /// `count` reads from the result. Returns the result and the elapsed
    /// host time, which callers use whether or not tracing is on.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        cell: &str,
        count: impl FnOnce(&R) -> u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        let dur = start.elapsed();
        if self.enabled {
            let n = count(&r);
            self.push(name, cell, start, dur, n);
        }
        (r, dur)
    }

    /// Summed `(duration ns, count)` of every span named `name` whose cell
    /// starts with `cell_prefix`.
    pub fn total(&self, name: &str, cell_prefix: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.cell.starts_with(cell_prefix))
            .fold((0, 0), |(d, c), s| (d + s.dur_ns, c + s.count))
    }

    /// Nanoseconds per work item over the spans [`Tracer::total`] selects
    /// (0 when there are none).
    pub fn ns_per(&self, name: &str, cell_prefix: &str) -> f64 {
        let (d, c) = self.total(name, cell_prefix);
        if c == 0 {
            0.0
        } else {
            d as f64 / c as f64
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"id\": {id}, \
                 \"name\": \"{}\", \"cell\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}, \"count\": {}}}",
                s.name, s.cell, s.start_ns, s.dur_ns, s.count
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (v, _) = t.timed("x.y", "c", |_| 3, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.len(), 0);
        assert_eq!(t.ns_per("x.y", ""), 0.0);
    }

    #[test]
    fn spans_aggregate_by_name_and_cell() {
        let mut t = Tracer::new(true);
        t.timed("dram.pass", "FT-CG/W_CK", |_| 10, || ());
        t.timed("dram.pass", "FT-HPL/W_CK", |_| 30, || ());
        t.timed("pass.decode", "FT-CG/W_CK", |_| 5, || ());
        assert_eq!(t.len(), 3);
        assert_eq!(t.total("dram.pass", "").1, 40);
        assert_eq!(t.total("dram.pass", "FT-CG").1, 10);
        let jsonl = t.to_jsonl("grid-replay", 7);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"id\": 0, \"name\": \"dram.pass\""));
        assert!(lines[2].contains("\"seed\": 7"));
    }
}
