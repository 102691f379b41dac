//! Content-addressed on-disk artifact store for generated traces and
//! cache-filtered miss streams.
//!
//! The [`crate::trace_cache::TraceCache`] memoizes trace generation and
//! cache filtering per process; this module extends that memo to disk so
//! the fixed cost survives process exit. Each artifact is addressed by a
//! stable 128-bit digest of everything that determines its content:
//!
//! * packed traces — the [`KernelParams`] (kernel + scale), which fully
//!   determine the generated reference stream;
//! * miss streams — the [`FilterKey`] (workload × L1/L2 geometry ×
//!   thread count), which fully determines the DRAM-visible tail;
//! * phase selections — the [`FilterKey`] extended with the
//!   [`SimPointConfig`], which fully determines the deterministic
//!   slicing, fingerprinting, and clustering result.
//!
//! Blob layout (`<digest>.trace` / `<digest>.miss` / `<digest>.simpoint`
//! under the store root):
//!
//! ```text
//! header:  magic "ABFTART1" | u32 kind | u32 version | u128 key digest
//! payload: varint-compressed artifact body (xor-delta words)
//! footer:  u64 payload length | u64 FNV-1a checksum | magic "ABFTEND1"
//! ```
//!
//! The footer is verified on every load — length and checksum first, the
//! header key digest against the requested key after — and any mismatch
//! (truncation, bit rot, digest collision, interrupted write that dodged
//! the temp-file rename) **evicts** the entry: the file is deleted and
//! the caller regenerates, so a corrupt blob is never deserialized into a
//! wrong result. Writes go through a temp file in the same directory plus
//! an atomic rename, so a crash mid-write leaves no partial artifact
//! under an addressable name.
//!
//! Counters ([`ArtifactStore::metrics`]) are plumbed through
//! [`crate::trace_cache::TraceCache`] into the campaign layer's metrics.

use crate::config::CacheConfig;
use crate::miss_stream::{MissStream, MissStreamParts, RegionTally, SliceCursor};
use crate::packed::PackedTrace;
use crate::simpoint::{SimPointConfig, SimPointParts, SimPointPhase, SimPointSelection};
use crate::trace::{Region, RegionMap};
use crate::trace_cache::FilterKey;
use crate::workloads::KernelParams;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const BLOB_MAGIC: &[u8; 8] = b"ABFTART1";
const END_MAGIC: &[u8; 8] = b"ABFTEND1";
const FORMAT_VERSION: u32 = 1;
const KIND_TRACE: u32 = 1;
const KIND_MISS: u32 = 2;
const KIND_SIMPOINT: u32 = 3;
const HEADER_BYTES: usize = 8 + 4 + 4 + 16;
const FOOTER_BYTES: usize = 8 + 8 + 8;

/// Why an artifact-store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The blob does not start with the artifact magic.
    BadMagic,
    /// The blob's kind or format version does not match the request.
    BadKind,
    /// The blob is shorter than a header plus footer, or the footer
    /// length disagrees with the file size.
    Truncated,
    /// The payload checksum does not match the footer.
    ChecksumMismatch,
    /// The header's key digest does not match the requested key.
    KeyMismatch,
    /// The payload failed structural decoding.
    Malformed(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "artifact store I/O error: {e}"),
            StoreError::BadMagic => write!(f, "artifact blob has a foreign magic"),
            StoreError::BadKind => write!(f, "artifact blob kind/version mismatch"),
            StoreError::Truncated => write!(f, "artifact blob is truncated"),
            StoreError::ChecksumMismatch => write!(f, "artifact payload checksum mismatch"),
            StoreError::KeyMismatch => write!(f, "artifact key digest mismatch"),
            StoreError::Malformed(what) => write!(f, "artifact payload malformed: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Incremental FNV-1a digest over a canonical byte encoding — the
/// content address of every artifact, and reusable by higher layers
/// (the benchmark digests its grid cells with it) for any value that
/// can be reduced to a stable byte walk.
#[derive(Debug, Clone)]
pub struct StableDigest(u128);

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;
const FNV64_OFFSET: u64 = 0xcbf29ce484222325;
const FNV64_PRIME: u64 = 0x00000100000001b3;

impl StableDigest {
    /// A fresh digest at the FNV-1a offset basis.
    pub fn new() -> Self {
        StableDigest(FNV128_OFFSET)
    }

    /// Fold raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Fold a `u64` (little-endian) into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold an `f64` bit pattern into the digest (exact, not lossy).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold a length-prefixed string token into the digest.
    pub fn str_token(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The 128-bit digest value.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

impl Default for StableDigest {
    fn default() -> Self {
        StableDigest::new()
    }
}

/// FNV-1a 64 over a byte slice (the blob payload checksum).
fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

fn digest_params(d: &mut StableDigest, params: KernelParams) {
    match params {
        KernelParams::Dgemm(p) => {
            d.str_token("dgemm/v1");
            d.u64(p.n as u64);
            d.u64(p.nb as u64);
            d.u64(p.abft as u64);
            d.u64(p.verify_interval as u64);
        }
        KernelParams::Cholesky(p) => {
            d.str_token("cholesky/v1");
            d.u64(p.n as u64);
            d.u64(p.nb as u64);
            d.u64(p.abft as u64);
        }
        KernelParams::Cg(p) => {
            d.str_token("cg/v1");
            d.u64(p.grid as u64);
            d.u64(p.iterations as u64);
            d.u64(p.abft as u64);
            d.u64(p.verify_interval as u64);
        }
        KernelParams::Hpl(p) => {
            d.str_token("hpl/v1");
            d.u64(p.n as u64);
            d.u64(p.nb as u64);
            d.u64(p.abft as u64);
        }
    }
}

fn digest_cache(d: &mut StableDigest, c: &CacheConfig) {
    d.u64(c.capacity as u64);
    d.u64(c.ways as u64);
    d.u64(c.line_bytes as u64);
    d.u64(c.latency_cycles);
}

/// Content address of a packed-trace artifact.
pub fn trace_key(params: KernelParams) -> u128 {
    let mut d = StableDigest::new();
    d.str_token("packed-trace/v1");
    digest_params(&mut d, params);
    d.finish()
}

/// Content address of a miss-stream artifact.
pub fn miss_key(key: &FilterKey) -> u128 {
    let mut d = StableDigest::new();
    d.str_token("miss-stream/v1");
    digest_params(&mut d, key.params);
    digest_cache(&mut d, &key.l1);
    digest_cache(&mut d, &key.l2);
    d.u64(key.threads as u64);
    d.finish()
}

/// Content address of a phase-selection artifact: the miss-stream key
/// extended with every [`SimPointConfig`] field, so any change to the
/// sampling parameters addresses a different blob.
pub fn simpoint_key(key: &FilterKey, cfg: &SimPointConfig) -> u128 {
    let mut d = StableDigest::new();
    d.str_token("simpoint/v1");
    digest_params(&mut d, key.params);
    digest_cache(&mut d, &key.l1);
    digest_cache(&mut d, &key.l2);
    d.u64(key.threads as u64);
    d.u64(cfg.interval);
    d.u64(cfg.max_phases as u64);
    d.u64(cfg.seed);
    d.u64(cfg.iterations as u64);
    d.u64(cfg.strata as u64);
    d.finish()
}

// ---------------------------------------------------------------------
// Varint payload primitives (LEB128; xor-delta compresses the regular
// word streams well — consecutive packed words share high bits).

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint(cur: &mut &[u8]) -> Result<u64, StoreError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = cur.split_first().ok_or(StoreError::Malformed("varint"))?;
        *cur = rest;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(StoreError::Malformed("varint overflow"));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn get_bytes<'a>(cur: &mut &'a [u8], n: usize) -> Result<&'a [u8], StoreError> {
    if cur.len() < n {
        return Err(StoreError::Malformed("short payload"));
    }
    let (head, rest) = cur.split_at(n);
    *cur = rest;
    Ok(head)
}

fn put_regions(buf: &mut Vec<u8>, regions: &RegionMap) {
    put_varint(buf, regions.regions().len() as u64);
    for r in regions.regions() {
        put_varint(buf, r.name.len() as u64);
        buf.extend_from_slice(r.name.as_bytes());
        put_varint(buf, r.base);
        put_varint(buf, r.bytes);
        buf.push(r.abft_protected as u8 | ((r.abft_detectable as u8) << 1));
    }
}

fn get_regions(cur: &mut &[u8]) -> Result<RegionMap, StoreError> {
    let count = get_varint(cur)?;
    if count > crate::packed::MAX_PACKED_REGIONS as u64 {
        return Err(StoreError::Malformed("region count"));
    }
    let mut regions = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let name_len = get_varint(cur)? as usize;
        if name_len > 4096 {
            return Err(StoreError::Malformed("region name length"));
        }
        let name = std::str::from_utf8(get_bytes(cur, name_len)?)
            .map_err(|_| StoreError::Malformed("region name utf-8"))?
            .to_string();
        let base = get_varint(cur)?;
        let bytes = get_varint(cur)?;
        let (&flags, rest) = cur.split_first().ok_or(StoreError::Malformed("region flags"))?;
        *cur = rest;
        regions.push(Region {
            name,
            base,
            bytes,
            abft_protected: flags & 1 != 0,
            abft_detectable: flags & 2 != 0,
        });
    }
    Ok(RegionMap::from_regions(regions))
}

/// Xor-delta + varint encode a word stream; `stride` is the xor
/// distance (1 for packed traces, 2 for two-word miss records so word-0s
/// delta against word-0s and word-1s against word-1s).
fn put_words(buf: &mut Vec<u8>, words: impl Iterator<Item = u64>, count: u64, stride: usize) {
    put_varint(buf, count);
    let mut prev = [0u64; 2];
    for (i, w) in words.enumerate() {
        let slot = i % stride;
        put_varint(buf, w ^ prev[slot]);
        prev[slot] = w;
    }
}

fn get_words(cur: &mut &[u8], stride: usize) -> Result<Vec<u64>, StoreError> {
    let count = get_varint(cur)?;
    // A word costs at least one payload byte; reject counts the
    // remaining payload cannot possibly hold before allocating.
    if count > cur.len() as u64 {
        return Err(StoreError::Malformed("word count"));
    }
    let mut words = Vec::with_capacity(count as usize);
    let mut prev = [0u64; 2];
    for i in 0..count as usize {
        let slot = i % stride;
        let w = get_varint(cur)? ^ prev[slot];
        prev[slot] = w;
        words.push(w);
    }
    Ok(words)
}

fn encode_trace(t: &PackedTrace) -> Vec<u8> {
    let mut buf = Vec::new(); // repolint:allow(PERF001) one buffer per artifact encode
    put_regions(&mut buf, t.regions());
    put_varint(&mut buf, t.len());
    put_varint(&mut buf, t.instructions());
    put_words(&mut buf, t.words(), t.word_count(), 1);
    buf
}

fn decode_trace(mut cur: &[u8]) -> Result<PackedTrace, StoreError> {
    let regions = get_regions(&mut cur)?;
    let len = get_varint(&mut cur)?;
    let instructions = get_varint(&mut cur)?;
    let words = get_words(&mut cur, 1)?;
    if !cur.is_empty() {
        return Err(StoreError::Malformed("trailing trace payload"));
    }
    Ok(PackedTrace::from_raw_parts(regions, words, len, instructions))
}

fn encode_miss(ms: &MissStream) -> Vec<u8> {
    let mut buf = Vec::new();
    put_regions(&mut buf, ms.regions());
    put_varint(&mut buf, ms.events());
    put_varint(&mut buf, ms.accesses());
    put_varint(&mut buf, ms.instructions());
    put_varint(&mut buf, ms.core_cycles());
    put_varint(&mut buf, ms.l1_hits);
    put_varint(&mut buf, ms.l1_misses);
    put_varint(&mut buf, ms.l2_hits);
    put_varint(&mut buf, ms.l2_misses);
    put_varint(&mut buf, ms.raw_tallies().len() as u64);
    for t in ms.raw_tallies() {
        put_varint(&mut buf, t.refs);
        put_varint(&mut buf, t.l1_misses);
        put_varint(&mut buf, t.llc_misses);
    }
    let (l1, l2, threads) = ms.filter_config();
    for c in [&l1, &l2] {
        put_varint(&mut buf, c.capacity as u64);
        put_varint(&mut buf, c.ways as u64);
        put_varint(&mut buf, c.line_bytes as u64);
        put_varint(&mut buf, c.latency_cycles);
    }
    put_varint(&mut buf, threads as u64);
    put_words(&mut buf, ms.raw_words().iter().copied(), ms.raw_words().len() as u64, 2);
    buf
}

fn get_cache_cfg(cur: &mut &[u8]) -> Result<CacheConfig, StoreError> {
    Ok(CacheConfig {
        capacity: get_varint(cur)? as usize,
        ways: get_varint(cur)? as usize,
        line_bytes: get_varint(cur)? as usize,
        latency_cycles: get_varint(cur)?,
    })
}

fn decode_miss(mut cur: &[u8]) -> Result<MissStream, StoreError> {
    let regions = get_regions(&mut cur)?;
    let events = get_varint(&mut cur)?;
    let accesses = get_varint(&mut cur)?;
    let instructions = get_varint(&mut cur)?;
    let core_cycles = get_varint(&mut cur)?;
    let l1_hits = get_varint(&mut cur)?;
    let l1_misses = get_varint(&mut cur)?;
    let l2_hits = get_varint(&mut cur)?;
    let l2_misses = get_varint(&mut cur)?;
    let tally_count = get_varint(&mut cur)?;
    if tally_count != regions.regions().len() as u64 {
        return Err(StoreError::Malformed("tally count"));
    }
    let mut tallies = Vec::with_capacity(tally_count as usize);
    for _ in 0..tally_count {
        tallies.push(RegionTally {
            refs: get_varint(&mut cur)?,
            l1_misses: get_varint(&mut cur)?,
            llc_misses: get_varint(&mut cur)?,
        });
    }
    let l1_cfg = get_cache_cfg(&mut cur)?;
    let l2_cfg = get_cache_cfg(&mut cur)?;
    let threads = get_varint(&mut cur)? as usize;
    let words = get_words(&mut cur, 2)?;
    if !cur.is_empty() {
        return Err(StoreError::Malformed("trailing miss payload"));
    }
    if !words.len().is_multiple_of(2) {
        return Err(StoreError::Malformed("odd miss word count"));
    }
    Ok(MissStream::from_raw_parts(MissStreamParts {
        regions,
        words,
        events,
        accesses,
        instructions,
        core_cycles,
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        tallies,
        l1_cfg,
        l2_cfg,
        threads,
    }))
}

fn encode_simpoint(sel: &SimPointSelection) -> Vec<u8> {
    let mut buf = Vec::new();
    let cfg = sel.config();
    put_varint(&mut buf, cfg.interval);
    put_varint(&mut buf, cfg.max_phases as u64);
    put_varint(&mut buf, cfg.seed);
    put_varint(&mut buf, cfg.iterations as u64);
    put_varint(&mut buf, cfg.strata as u64);
    put_varint(&mut buf, sel.events());
    put_varint(&mut buf, sel.slices());
    put_varint(&mut buf, sel.dim() as u64);
    put_varint(&mut buf, sel.est_error().to_bits());
    for &v in sel.raw_fingerprints() {
        put_varint(&mut buf, v.to_bits());
    }
    for &a in sel.assignments() {
        put_varint(&mut buf, a as u64);
    }
    put_varint(&mut buf, sel.phases().len() as u64);
    for p in sel.phases() {
        put_varint(&mut buf, p.weight.to_bits());
        put_varint(&mut buf, p.start);
        put_varint(&mut buf, p.end);
        put_varint(&mut buf, p.scale.to_bits());
        put_varint(&mut buf, p.cursor.idx as u64);
        put_varint(&mut buf, p.cursor.run_pos as u64);
        put_varint(&mut buf, p.cursor.cycles);
    }
    buf
}

fn decode_simpoint(mut cur: &[u8]) -> Result<SimPointSelection, StoreError> {
    let config = SimPointConfig {
        interval: get_varint(&mut cur)?,
        max_phases: get_varint(&mut cur)? as usize,
        seed: get_varint(&mut cur)?,
        iterations: get_varint(&mut cur)? as usize,
        strata: get_varint(&mut cur)? as usize,
    };
    let events = get_varint(&mut cur)?;
    let slices = get_varint(&mut cur)?;
    let dim = get_varint(&mut cur)? as usize;
    let est_error = f64::from_bits(get_varint(&mut cur)?);
    // Each fingerprint/assignment entry costs at least one payload byte;
    // reject counts the remaining payload cannot possibly hold.
    let fp_count = slices.checked_mul(dim as u64).ok_or(StoreError::Malformed("fp count"))?;
    if fp_count > cur.len() as u64 || slices > cur.len() as u64 {
        return Err(StoreError::Malformed("fp count"));
    }
    let mut fingerprints = Vec::with_capacity(fp_count as usize);
    for _ in 0..fp_count {
        fingerprints.push(f64::from_bits(get_varint(&mut cur)?));
    }
    let mut assignments = Vec::with_capacity(slices as usize);
    for _ in 0..slices {
        let a = get_varint(&mut cur)?;
        if a > u32::MAX as u64 {
            return Err(StoreError::Malformed("cluster id"));
        }
        assignments.push(a as u32);
    }
    let phase_count = get_varint(&mut cur)?;
    if phase_count > slices {
        return Err(StoreError::Malformed("phase count"));
    }
    let mut phases = Vec::with_capacity(phase_count as usize);
    for _ in 0..phase_count {
        let weight = f64::from_bits(get_varint(&mut cur)?);
        let start = get_varint(&mut cur)?;
        let end = get_varint(&mut cur)?;
        let scale = f64::from_bits(get_varint(&mut cur)?);
        let idx = get_varint(&mut cur)? as usize;
        let run_pos = get_varint(&mut cur)? as usize;
        let cycles = get_varint(&mut cur)?;
        if end <= start || end > events {
            return Err(StoreError::Malformed("phase range"));
        }
        phases.push(SimPointPhase {
            weight,
            start,
            end,
            scale,
            cursor: SliceCursor::at(idx, run_pos, cycles),
        });
    }
    if !cur.is_empty() {
        return Err(StoreError::Malformed("trailing simpoint payload"));
    }
    Ok(SimPointSelection::from_raw_parts(SimPointParts {
        config,
        events,
        slices,
        dim,
        fingerprints,
        assignments,
        phases,
        est_error,
    }))
}

// ---------------------------------------------------------------------

/// Load/miss/evict counter snapshot for one [`ArtifactStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Loads served from an intact on-disk blob.
    pub hits: u64,
    /// Load attempts that found no usable blob (absent or evicted).
    pub misses: u64,
    /// Blobs written (each a temp-file + atomic-rename pair).
    pub writes: u64,
    /// Corrupt blobs deleted instead of trusted.
    pub evictions: u64,
}

impl StoreMetrics {
    /// Counter delta against an earlier snapshot of the same store.
    pub fn since(&self, earlier: &StoreMetrics) -> StoreMetrics {
        StoreMetrics {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            writes: self.writes - earlier.writes,
            evictions: self.evictions - earlier.evictions,
        }
    }

    /// Fraction of load attempts served from disk.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Content-addressed on-disk store of packed traces and miss streams.
/// Open one over a directory and attach it to a
/// [`crate::trace_cache::TraceCache`] with
/// [`crate::trace_cache::TraceCache::attach_store`]; warm-disk processes
/// then skip trace generation and cache filtering entirely.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
}

impl ArtifactStore {
    /// Open (creating if absent) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<ArtifactStore, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(ArtifactStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// On-disk path of a packed-trace artifact.
    pub fn trace_path(&self, params: KernelParams) -> PathBuf {
        self.root.join(format!("{:032x}.trace", trace_key(params))) // repolint:allow(PERF001) one path string per store lookup
    }

    /// On-disk path of a miss-stream artifact.
    pub fn miss_path(&self, key: &FilterKey) -> PathBuf {
        self.root.join(format!("{:032x}.miss", miss_key(key)))
    }

    /// On-disk path of a phase-selection artifact.
    pub fn simpoint_path(&self, key: &FilterKey, cfg: &SimPointConfig) -> PathBuf {
        self.root.join(format!("{:032x}.simpoint", simpoint_key(key, cfg)))
    }

    /// Counter snapshot.
    pub fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Load a packed trace, or `None` when absent or evicted as corrupt.
    pub fn load_trace(&self, params: KernelParams) -> Option<PackedTrace> {
        self.load_blob(&self.trace_path(params), KIND_TRACE, trace_key(params), decode_trace)
    }

    /// Persist a packed trace (best-effort; the caller already holds the
    /// in-memory artifact either way).
    pub fn save_trace(&self, params: KernelParams, t: &PackedTrace) -> Result<(), StoreError> {
        self.save_blob(&self.trace_path(params), KIND_TRACE, trace_key(params), encode_trace(t))
    }

    /// Load a miss stream, or `None` when absent or evicted as corrupt.
    pub fn load_miss(&self, key: &FilterKey) -> Option<MissStream> {
        self.load_blob(&self.miss_path(key), KIND_MISS, miss_key(key), decode_miss)
    }

    /// Persist a miss stream.
    pub fn save_miss(&self, key: &FilterKey, ms: &MissStream) -> Result<(), StoreError> {
        self.save_blob(&self.miss_path(key), KIND_MISS, miss_key(key), encode_miss(ms))
    }

    /// Load a phase selection, or `None` when absent or evicted as
    /// corrupt. Warm processes then skip slicing and clustering entirely.
    pub fn load_simpoint(
        &self,
        key: &FilterKey,
        cfg: &SimPointConfig,
    ) -> Option<SimPointSelection> {
        self.load_blob(
            &self.simpoint_path(key, cfg),
            KIND_SIMPOINT,
            simpoint_key(key, cfg),
            decode_simpoint,
        )
    }

    /// Persist a phase selection.
    pub fn save_simpoint(
        &self,
        key: &FilterKey,
        cfg: &SimPointConfig,
        sel: &SimPointSelection,
    ) -> Result<(), StoreError> {
        self.save_blob(
            &self.simpoint_path(key, cfg),
            KIND_SIMPOINT,
            simpoint_key(key, cfg),
            encode_simpoint(sel),
        )
    }

    fn save_blob(
        &self,
        path: &Path,
        kind: u32,
        key: u128,
        payload: Vec<u8>,
    ) -> Result<(), StoreError> {
        let mut blob = Vec::with_capacity(HEADER_BYTES + payload.len() + FOOTER_BYTES); // repolint:allow(PERF001) one blob per artifact write
        blob.extend_from_slice(BLOB_MAGIC);
        blob.extend_from_slice(&kind.to_le_bytes());
        blob.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        blob.extend_from_slice(&key.to_le_bytes());
        blob.extend_from_slice(&payload);
        blob.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        blob.extend_from_slice(&checksum(&payload).to_le_bytes());
        blob.extend_from_slice(END_MAGIC);
        // Temp file + rename: a crash mid-write never leaves a partial
        // blob under an addressable name, and the rename is atomic on
        // the same filesystem.
        let tmp = path.with_extension(format!("tmp{}", std::process::id())); // repolint:allow(PERF001) one temp-file name per artifact write
        std::fs::write(&tmp, &blob)?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn load_blob<T>(
        &self,
        path: &Path,
        kind: u32,
        key: u128,
        decode: impl FnOnce(&[u8]) -> Result<T, StoreError>,
    ) -> Option<T> {
        let blob = match std::fs::read(path) {
            Ok(b) => b,
            Err(_) => {
                // Absent (or unreadable): a plain miss; nothing to evict.
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match Self::verify_and_decode(&blob, kind, key, decode) {
            Ok(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            Err(_) => {
                // Corrupt entries are evicted, never trusted: delete the
                // blob so the caller's regeneration replaces it.
                let _ = std::fs::remove_file(path);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn verify_and_decode<T>(
        blob: &[u8],
        kind: u32,
        key: u128,
        decode: impl FnOnce(&[u8]) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        if blob.len() < HEADER_BYTES + FOOTER_BYTES {
            return Err(StoreError::Truncated);
        }
        if &blob[..8] != BLOB_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let (payload, footer) =
            blob[HEADER_BYTES..].split_at(blob.len() - HEADER_BYTES - FOOTER_BYTES);
        let stored_len =
            u64::from_le_bytes(footer[0..8].try_into().map_err(|_| StoreError::Truncated)?);
        let stored_sum =
            u64::from_le_bytes(footer[8..16].try_into().map_err(|_| StoreError::Truncated)?);
        if &footer[16..24] != END_MAGIC || stored_len != payload.len() as u64 {
            return Err(StoreError::Truncated);
        }
        if stored_sum != checksum(payload) {
            return Err(StoreError::ChecksumMismatch);
        }
        let blob_kind =
            u32::from_le_bytes(blob[8..12].try_into().map_err(|_| StoreError::Truncated)?);
        let version =
            u32::from_le_bytes(blob[12..16].try_into().map_err(|_| StoreError::Truncated)?);
        if blob_kind != kind || version != FORMAT_VERSION {
            return Err(StoreError::BadKind);
        }
        let blob_key =
            u128::from_le_bytes(blob[16..32].try_into().map_err(|_| StoreError::Truncated)?);
        if blob_key != key {
            return Err(StoreError::KeyMismatch);
        }
        decode(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::workloads::DgemmParams;
    use std::sync::Arc;

    fn tiny() -> KernelParams {
        KernelParams::Dgemm(DgemmParams { n: 128, nb: 64, abft: true, verify_interval: 2 })
    }

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("abft-store-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).unwrap()
    }

    #[test]
    fn digests_are_stable_and_key_sensitive() {
        assert_eq!(trace_key(tiny()), trace_key(tiny()));
        let other =
            KernelParams::Dgemm(DgemmParams { n: 256, nb: 64, abft: true, verify_interval: 2 });
        assert_ne!(trace_key(tiny()), trace_key(other));
        let cfg = SystemConfig::default();
        let k1 = FilterKey::new(tiny(), &cfg);
        let mut half = cfg.clone();
        half.l2.capacity /= 2;
        let k2 = FilterKey::new(tiny(), &half);
        assert_ne!(miss_key(&k1), miss_key(&k2));
        assert_ne!(trace_key(tiny()), miss_key(&k1), "kinds are domain-separated");
    }

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        let mut cur = buf.as_slice();
        for &v in &vals {
            assert_eq!(get_varint(&mut cur).unwrap(), v);
        }
        assert!(cur.is_empty());
        assert!(get_varint(&mut cur).is_err(), "empty input is malformed, not a panic");
    }

    #[test]
    fn trace_blob_round_trips_bit_identically() {
        let store = temp_store("trace-rt");
        let built = Arc::new(tiny().build_packed());
        store.save_trace(tiny(), &built).unwrap();
        let loaded = Arc::new(store.load_trace(tiny()).expect("intact blob loads"));
        assert_eq!(loaded.len(), built.len());
        assert_eq!(loaded.instructions(), built.instructions());
        assert_eq!(loaded.materialize().accesses, built.materialize().accesses);
        assert_eq!(store.metrics().hits, 1);
        assert_eq!(store.metrics().writes, 1);
    }

    #[test]
    fn miss_blob_round_trips_bit_identically() {
        let store = temp_store("miss-rt");
        let cfg = SystemConfig::default();
        let key = FilterKey::new(tiny(), &cfg);
        let packed = Arc::new(tiny().build_packed());
        let ms = MissStream::build(&mut packed.replay(), key.l1, key.l2, key.threads);
        store.save_miss(&key, &ms).unwrap();
        let loaded = store.load_miss(&key).expect("intact blob loads");
        assert_eq!(loaded.events(), ms.events());
        assert_eq!(loaded.accesses(), ms.accesses());
        assert_eq!(loaded.core_cycles(), ms.core_cycles());
        assert_eq!(loaded.raw_words(), ms.raw_words());
        assert_eq!(loaded.raw_tallies(), ms.raw_tallies());
        assert!(loaded.matches(&cfg.l1, &cfg.l2, cfg.threads));
        let evs: Vec<_> = loaded.iter().collect();
        let expect: Vec<_> = ms.iter().collect();
        assert_eq!(evs, expect);
    }

    #[test]
    fn simpoint_blob_round_trips_bit_identically() {
        let store = temp_store("simpoint-rt");
        let cfg = SystemConfig::default();
        let key = FilterKey::new(tiny(), &cfg);
        let packed = Arc::new(tiny().build_packed());
        let ms = MissStream::build(&mut packed.replay(), key.l1, key.l2, key.threads);
        let sp = SimPointConfig { interval: 2048, max_phases: 6, ..Default::default() };
        let sel = SimPointSelection::build(&ms, sp);
        store.save_simpoint(&key, &sp, &sel).unwrap();
        let loaded = store.load_simpoint(&key, &sp).expect("intact blob loads");
        assert_eq!(loaded, sel, "selection must round-trip bit-identically");
        // A different sampling config addresses a different blob.
        let other = SimPointConfig { interval: 4096, ..sp };
        assert_ne!(simpoint_key(&key, &sp), simpoint_key(&key, &other));
        assert!(store.load_simpoint(&key, &other).is_none());
    }

    #[test]
    fn absent_blob_is_a_plain_miss() {
        let store = temp_store("absent");
        assert!(store.load_trace(tiny()).is_none());
        let m = store.metrics();
        assert_eq!((m.hits, m.misses, m.evictions), (0, 1, 0));
        assert_eq!(m.hit_rate(), 0.0);
    }

    #[test]
    fn corrupt_blob_is_evicted_not_trusted() {
        let store = temp_store("corrupt");
        let built = tiny().build_packed();
        store.save_trace(tiny(), &built).unwrap();
        let path = store.trace_path(tiny());

        // Flip one payload byte: checksum mismatch, evicted.
        let mut blob = std::fs::read(&path).unwrap();
        blob[HEADER_BYTES + 10] ^= 0x40;
        std::fs::write(&path, &blob).unwrap();
        assert!(store.load_trace(tiny()).is_none());
        assert!(!path.exists(), "corrupt blob must be deleted");
        assert_eq!(store.metrics().evictions, 1);

        // Truncated blob: evicted.
        store.save_trace(tiny(), &built).unwrap();
        let blob = std::fs::read(&path).unwrap();
        std::fs::write(&path, &blob[..blob.len() / 2]).unwrap();
        assert!(store.load_trace(tiny()).is_none());
        assert!(!path.exists());
        assert_eq!(store.metrics().evictions, 2);

        // A fresh save then load works again.
        store.save_trace(tiny(), &built).unwrap();
        assert!(store.load_trace(tiny()).is_some());
    }

    #[test]
    fn wrong_kind_under_the_right_name_is_rejected() {
        let store = temp_store("kind");
        let cfg = SystemConfig::default();
        let key = FilterKey::new(tiny(), &cfg);
        let packed = Arc::new(tiny().build_packed());
        let ms = MissStream::build(&mut packed.replay(), key.l1, key.l2, key.threads);
        store.save_miss(&key, &ms).unwrap();
        // Copy the miss blob over the trace artifact's name: the header
        // kind/key check evicts it rather than decoding garbage.
        std::fs::copy(store.miss_path(&key), store.trace_path(tiny())).unwrap();
        assert!(store.load_trace(tiny()).is_none());
        assert!(!store.trace_path(tiny()).exists());
        assert_eq!(store.metrics().evictions, 1);
    }
}
