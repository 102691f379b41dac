//! Set-associative cache model (LRU, write-back, write-allocate).
//!
//! The hierarchy mirrors the paper's Table 3: split 16 KB 4-way private L1s
//! (we model the D-side the traces exercise) in front of a shared 8 MB
//! 16-way L2. The L2 miss stream — classified per region — is exactly the
//! paper's "last level cache misses ... to blocks with ABFT protection and
//! without ABFT protection" (Table 4).

use crate::config::CacheConfig;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line present.
    Hit,
    /// Line absent; optionally a dirty victim (by line address) was evicted.
    Miss {
        /// Dirty line address pushed out, if any.
        writeback: Option<u64>,
    },
}

/// One set-associative write-back cache.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    line_shift: u32,
    /// `tags[set * ways + way]` = line address (addr >> line_shift), or
    /// `u64::MAX` when invalid.
    tags: Vec<u64>,
    /// LRU stamps, larger = more recent.
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    clock: u64,
}

impl Cache {
    /// Build a cache from its geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        Cache {
            cfg,
            sets,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; sets * cfg.ways],
            stamps: vec![0; sets * cfg.ways],
            dirty: vec![false; sets * cfg.ways],
            clock: 0,
        }
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Access `addr`; on miss the line is filled (write-allocate) and a
    /// dirty victim, if any, is reported for write-back.
    pub fn access(&mut self, addr: u64, write: bool) -> CacheOutcome {
        let line = self.line_of(addr);
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.cfg.ways;
        self.clock += 1;

        // One scan serves both the hit probe and victim selection: while
        // looking for the line, remember the first invalid way and the
        // LRU way among the valid ones, so a miss needs no second pass.
        let mut invalid: Option<usize> = None;
        let mut lru = 0;
        let mut best = u64::MAX;
        for w in 0..self.cfg.ways {
            let tag = self.tags[base + w];
            if tag == line {
                self.stamps[base + w] = self.clock;
                if write {
                    self.dirty[base + w] = true;
                }
                return CacheOutcome::Hit;
            }
            if tag == u64::MAX {
                if invalid.is_none() {
                    invalid = Some(w);
                }
            } else if self.stamps[base + w] < best {
                best = self.stamps[base + w];
                lru = w;
            }
        }
        // Victim priority is unchanged: first invalid way, else LRU.
        let slot = base + invalid.unwrap_or(lru);
        let writeback = if self.tags[slot] != u64::MAX && self.dirty[slot] {
            Some(self.tags[slot] << self.line_shift)
        } else {
            None
        };
        self.tags[slot] = line;
        self.stamps[slot] = self.clock;
        self.dirty[slot] = write;
        CacheOutcome::Miss { writeback }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheConfig { capacity: 512, ways: 2, line_bytes: 64, latency_cycles: 1 })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(matches!(c.access(0x1000, false), CacheOutcome::Miss { writeback: None }));
        assert_eq!(c.access(0x1000, false), CacheOutcome::Hit);
        assert_eq!(c.access(0x103F, false), CacheOutcome::Hit, "same line");
        assert!(matches!(c.access(0x1040, false), CacheOutcome::Miss { .. }), "next line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 lines: line addresses with set bits == 0: stride 4*64=256.
        c.access(0x0000, false);
        c.access(0x0100, false);
        c.access(0x0000, false); // refresh line 0
                                 // Fill third line in set 0: victim must be 0x0100.
        c.access(0x0200, false);
        assert_eq!(c.access(0x0000, false), CacheOutcome::Hit);
        assert!(matches!(c.access(0x0100, false), CacheOutcome::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x0000, true); // dirty
        c.access(0x0100, false);
        let out = c.access(0x0200, false); // evicts 0x0000
        assert_eq!(out, CacheOutcome::Miss { writeback: Some(0x0000) });
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0x0000, false);
        c.access(0x0100, false);
        assert_eq!(c.access(0x0200, false), CacheOutcome::Miss { writeback: None });
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x0000, false);
        c.access(0x0000, true); // hit, now dirty
        c.access(0x0100, false);
        let out = c.access(0x0200, false);
        assert_eq!(out, CacheOutcome::Miss { writeback: Some(0x0000) });
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = tiny();
        // 3 passes over 1 KB (16 lines) in a 512B cache with stride
        // mapping all lines across 4 sets x 2 ways: pure capacity misses.
        for _ in 0..3 {
            for i in 0..16u64 {
                assert!(matches!(c.access(i * 64, false), CacheOutcome::Miss { .. }));
            }
        }
    }
}
