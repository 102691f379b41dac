//! Report emission for the harness binaries (one per paper
//! table/figure): plain-text table rendering, the [`ReportSink`]
//! trait every binary routes its sections, tables, and JSON/CSV
//! artifacts through, and the bit-exact one-line cell format
//! ([`format_cell`]) the artifact-store gate diffs across processes.

use crate::campaign::CampaignResult;
use crate::strategy::Strategy;
use abft_memsim::workloads::KernelParams;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A rendered table: header plus rows of equal arity.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

/// Format a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format a normalized value with three decimals.
pub fn norm(x: f64) -> String {
    format!("{x:.3}")
}

/// Format joules with adaptive units.
pub fn joules(x: f64) -> String {
    if x >= 1e6 {
        format!("{:.2} MJ", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.2} kJ", x / 1e3)
    } else if x >= 1.0 {
        format!("{x:.2} J")
    } else {
        format!("{:.2} mJ", x * 1e3)
    }
}

/// Stable token for a strategy (no spaces; distinct from the
/// human-facing labels, which embed `+` and spaces).
fn strategy_token(s: Strategy) -> &'static str {
    match s {
        Strategy::NoEcc => "no-ecc",
        Strategy::WholeChipkill => "w-ck",
        Strategy::PartialChipkillNoEcc => "p-ck-no-ecc",
        Strategy::WholeSecded => "w-sd",
        Strategy::PartialSecdedNoEcc => "p-sd-no-ecc",
        Strategy::PartialChipkillSecded => "p-ck-p-sd",
    }
}

/// Stable token for a workload: `kind:field:field:...` with ABFT flags
/// as `0`/`1`.
fn workload_token(p: KernelParams) -> String {
    let flag = |b: bool| u8::from(b);
    match p {
        KernelParams::Dgemm(d) => {
            format!("dgemm:{}:{}:{}:{}", d.n, d.nb, flag(d.abft), d.verify_interval)
        }
        KernelParams::Cholesky(c) => format!("cholesky:{}:{}:{}", c.n, c.nb, flag(c.abft)),
        KernelParams::Cg(c) => {
            format!("cg:{}:{}:{}:{}", c.grid, c.iterations, flag(c.abft), c.verify_interval)
        }
        KernelParams::Hpl(h) => format!("hpl:{}:{}:{}", h.n, h.nb, flag(h.abft)),
    }
}

/// One campaign cell as a single canonical line: its grid index,
/// workload and strategy tokens, config tag, integer counters, and every
/// floating-point field as the hex of its IEEE-754 bit pattern, so two
/// outputs are byte-identical exactly when the `SimStats` are
/// bit-identical.
pub fn format_cell(index: usize, r: &CampaignResult) -> String {
    format!(
        "cell {index} {} {} {} cycles={} instr={} seconds={:016x} ipc={:016x} mem_j={:016x} sys_j={:016x}",
        workload_token(r.workload),
        strategy_token(r.strategy),
        r.config_tag,
        r.stats.cycles,
        r.stats.instructions,
        r.stats.seconds.to_bits(),
        r.stats.ipc().to_bits(),
        r.stats.mem_total_j().to_bits(),
        r.stats.system_j().to_bits(),
    )
}

/// Where a harness binary's output goes: headed sections, rendered
/// tables, free-form notes, and named machine-readable artifacts
/// (`*.json` / `*.csv`). Implementations decide the medium — the
/// terminal ([`StdoutSink`]) or a report file ([`FileSink`]).
///
/// Emission is best-effort by design: a full disk or closed pipe must
/// never fail the simulation whose results are being reported, so
/// implementations log I/O failures instead of propagating them.
pub trait ReportSink {
    /// Start a titled section of the report.
    fn section(&mut self, title: &str);

    /// Emit a rendered table into the current section.
    fn table(&mut self, table: &TextTable);

    /// Emit a free-form line (caveats, totals, provenance).
    fn note(&mut self, text: &str);

    /// Emit a named machine-readable artifact. `name` is a relative
    /// file name whose extension declares the format (`.json`, `.csv`);
    /// file-backed sinks write it under their artifact directory.
    fn artifact(&mut self, name: &str, contents: &str);
}

fn write_artifact_under(dir: &Path, name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let path = dir.join(name);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// The default sink: sections/tables/notes to stdout, artifacts to an
/// artifact directory (`reproduction-output/` unless overridden).
#[derive(Debug, Clone)]
pub struct StdoutSink {
    artifact_dir: PathBuf,
}

impl Default for StdoutSink {
    fn default() -> Self {
        StdoutSink { artifact_dir: PathBuf::from("reproduction-output") }
    }
}

impl StdoutSink {
    /// Sink with the conventional `reproduction-output/` artifact dir.
    pub fn new() -> Self {
        StdoutSink::default()
    }

    /// Sink writing artifacts under `dir` instead.
    pub fn with_artifact_dir(dir: impl Into<PathBuf>) -> Self {
        StdoutSink { artifact_dir: dir.into() }
    }
}

impl ReportSink for StdoutSink {
    fn section(&mut self, title: &str) {
        println!("\n=== {title} ===\n");
    }

    fn table(&mut self, table: &TextTable) {
        println!("{}", table.render());
    }

    fn note(&mut self, text: &str) {
        println!("{text}");
    }

    fn artifact(&mut self, name: &str, contents: &str) {
        match write_artifact_under(&self.artifact_dir, name, contents) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {name}: {e}"),
        }
    }
}

/// A sink writing the rendered report to one file and artifacts as
/// siblings next to it. Buffered; flushed on drop.
#[derive(Debug)]
pub struct FileSink {
    out: std::io::BufWriter<std::fs::File>,
    artifact_dir: PathBuf,
}

impl FileSink {
    /// Create (truncate) `path` for the report text; artifacts land in
    /// its parent directory.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<FileSink> {
        let path = path.as_ref();
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let artifact_dir = path.parent().map_or_else(|| PathBuf::from("."), Path::to_path_buf);
        Ok(FileSink { out: std::io::BufWriter::new(std::fs::File::create(path)?), artifact_dir })
    }

    fn emit(&mut self, text: &str) {
        if let Err(e) = writeln!(self.out, "{text}") {
            eprintln!("warning: report write failed: {e}");
        }
    }
}

impl ReportSink for FileSink {
    fn section(&mut self, title: &str) {
        self.emit(&format!("\n=== {title} ===\n"));
    }

    fn table(&mut self, table: &TextTable) {
        self.emit(&table.render());
    }

    fn note(&mut self, text: &str) {
        self.emit(text);
    }

    fn artifact(&mut self, name: &str, contents: &str) {
        match write_artifact_under(&self.artifact_dir.clone(), name, contents) {
            Ok(path) => self.emit(&format!("wrote {}", path.display())),
            Err(e) => eprintln!("warning: could not write {name}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn file_sink_writes_report_and_sibling_artifacts() {
        let dir = std::env::temp_dir().join(format!("abft-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = dir.join("report.txt");
        {
            let mut sink = FileSink::create(&report).expect("create sink");
            sink.section("Figure X");
            let mut t = TextTable::new(&["k", "v"]);
            t.row(&["a".into(), "1".into()]);
            sink.table(&t);
            sink.note("caveat");
            sink.artifact("figx.json", "{\"ok\": true}");
        }
        let text = std::fs::read_to_string(&report).expect("report exists");
        assert!(text.contains("=== Figure X ==="));
        assert!(text.contains("caveat"));
        let art = std::fs::read_to_string(dir.join("figx.json")).expect("artifact exists");
        assert_eq!(art, "{\"ok\": true}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stdout_sink_writes_artifacts_under_its_directory() {
        let dir = std::env::temp_dir().join(format!("abft-stdout-art-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sink = StdoutSink::with_artifact_dir(&dir);
        sink.artifact("cells.csv", "a,b\n1,2\n");
        let art = std::fs::read_to_string(dir.join("cells.csv")).expect("artifact exists");
        assert_eq!(art, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_lines_carry_distinct_tokens_and_exact_bits() {
        use abft_memsim::workloads::{DgemmParams, KernelKind};
        let tokens: Vec<&str> = Strategy::ALL.iter().map(|&s| strategy_token(s)).collect();
        for (i, t) in tokens.iter().enumerate() {
            assert!(!t.contains(' '), "{t}");
            assert!(!tokens[..i].contains(t), "duplicate token {t}");
        }
        let kinds: Vec<String> =
            KernelKind::ALL.iter().map(|&k| workload_token(KernelParams::default_for(k))).collect();
        assert!(kinds.iter().all(|t| !t.contains(' ')), "{kinds:?}");
        let workload =
            KernelParams::Dgemm(DgemmParams { n: 320, nb: 32, abft: false, verify_interval: 7 });
        let mut stats = abft_memsim::system::SimStats::default();
        stats.cycles = 7;
        stats.seconds = 0.5;
        let cell = CampaignResult {
            kernel: KernelKind::Dgemm,
            workload,
            strategy: Strategy::WholeChipkill,
            config_tag: "default".to_string(),
            stats,
        };
        let line = format_cell(3, &cell);
        assert!(line.starts_with("cell 3 dgemm:320:32:0:7 w-ck default cycles=7 "), "{line}");
        assert!(line.contains(&format!("seconds={:016x}", 0.5f64.to_bits())), "{line}");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.123), "12.3%");
        assert_eq!(norm(1.23456), "1.235");
        assert_eq!(joules(0.5), "500.00 mJ");
        assert_eq!(joules(2.0), "2.00 J");
        assert_eq!(joules(2500.0), "2.50 kJ");
        assert_eq!(joules(2.5e6), "2.50 MJ");
    }
}
