//! Private L1 caches with MESI line states.
//!
//! The L1 is a set-associative, LRU, write-back cache. Tags store full line
//! numbers; a line's coherence state lives with it. The directory (in
//! [`crate::llc`]) drives invalidations and downgrades by calling directly
//! into the owning core's L1.
//!
//! Every table is a primitive `vec![0; n]`: state `0` is
//! [`LineState::Invalid`] and an invalid way's tag is never read, so an
//! empty cache needs no initial writes.

use serde::{Deserialize, Serialize};

use crate::config::CacheConfig;

/// MESI state of an L1 line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum LineState {
    /// Invalid (way empty).
    Invalid = 0,
    /// Shared, clean, possibly in other caches.
    Shared = 1,
    /// Exclusive, clean, only copy.
    Exclusive = 2,
    /// Modified, dirty, only copy.
    Modified = 3,
}

impl LineState {
    /// Decodes a stored state byte (`self as u8` round-trips).
    #[inline]
    fn from_bits(bits: u8) -> Self {
        match bits {
            0 => LineState::Invalid,
            1 => LineState::Shared,
            2 => LineState::Exclusive,
            _ => LineState::Modified,
        }
    }
}

const INVALID: u8 = LineState::Invalid as u8;

/// A victim line evicted to make room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line number of the victim.
    pub line: u64,
    /// Its state at eviction (Modified victims need a writeback).
    pub state: LineState,
}

/// A private set-associative L1 cache model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct L1Cache {
    ways: usize,
    set_mask: u64,
    /// Per-way line number; read only while the way is valid.
    tags: Vec<u64>,
    /// Per-way [`LineState`] as `u8`; zero is `Invalid`.
    states: Vec<u8>,
    /// Per-way last-use stamps for LRU (monotone counter).
    stamps: Vec<u64>,
    tick: u64,
}

impl L1Cache {
    /// Builds an empty cache with the given geometry.
    pub fn new(cfg: &CacheConfig) -> Self {
        cfg.validate();
        let slots = cfg.sets() * cfg.ways;
        Self {
            ways: cfg.ways,
            set_mask: cfg.sets() as u64 - 1,
            tags: vec![0; slots],
            states: vec![INVALID; slots],
            stamps: vec![0; slots],
            tick: 0,
        }
    }

    /// First slot of `line`'s set.
    #[inline]
    fn set_base(&self, line: u64) -> usize {
        (line & self.set_mask) as usize * self.ways
    }

    /// The slot holding `line`, if it is resident.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let base = self.set_base(line);
        (base..base + self.ways).find(|&s| self.tags[s] == line && self.states[s] != INVALID)
    }

    /// Looks up a line, updating LRU on hit. Returns its state if present.
    pub fn lookup(&mut self, line: u64) -> Option<LineState> {
        let s = self.find(line)?;
        self.tick += 1;
        self.stamps[s] = self.tick;
        Some(LineState::from_bits(self.states[s]))
    }

    /// Returns the state without touching LRU (for directory probes).
    pub fn probe(&self, line: u64) -> Option<LineState> {
        self.find(line)
            .map(|s| LineState::from_bits(self.states[s]))
    }

    /// Sets the state of a resident line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn set_state(&mut self, line: u64, state: LineState) {
        let s = self
            .find(line)
            .unwrap_or_else(|| panic!("set_state on non-resident line {line:#x}"));
        self.states[s] = state as u8;
    }

    /// Inserts a line (after a miss), evicting the LRU way if necessary.
    /// Returns the victim, if one was displaced.
    pub fn insert(&mut self, line: u64, state: LineState) -> Option<Evicted> {
        debug_assert!(state != LineState::Invalid, "cannot insert invalid line");
        let base = self.set_base(line);
        // Prefer an invalid way, else the least recently used.
        let mut victim = base;
        let mut victim_stamp = u64::MAX;
        for s in base..base + self.ways {
            if self.states[s] == INVALID {
                victim = s;
                break;
            }
            if self.stamps[s] < victim_stamp {
                victim_stamp = self.stamps[s];
                victim = s;
            }
        }
        let evicted = (self.states[victim] != INVALID).then(|| Evicted {
            line: self.tags[victim],
            state: LineState::from_bits(self.states[victim]),
        });
        self.tick += 1;
        self.tags[victim] = line;
        self.states[victim] = state as u8;
        self.stamps[victim] = self.tick;
        evicted
    }

    /// Invalidates a line (directory-initiated), returning its prior state
    /// if it was resident.
    pub fn invalidate(&mut self, line: u64) -> Option<LineState> {
        let s = self.find(line)?;
        let prior = LineState::from_bits(self.states[s]);
        self.states[s] = INVALID;
        Some(prior)
    }

    /// Downgrades an M/E line to Shared (directory-initiated on a remote
    /// read). Returns true if the line was dirty (needed a writeback).
    pub fn downgrade_to_shared(&mut self, line: u64) -> bool {
        let Some(s) = self.find(line) else {
            return false;
        };
        let dirty = self.states[s] == LineState::Modified as u8;
        self.states[s] = LineState::Shared as u8;
        dirty
    }

    /// Number of resident lines (diagnostics).
    pub fn resident_lines(&self) -> usize {
        self.states.iter().filter(|&&s| s != INVALID).count()
    }

    /// Lists all resident lines with their states, set by set (used to
    /// flush a core's L1 when it is powered down).
    pub fn resident_line_list(&self) -> Vec<(u64, LineState)> {
        self.tags
            .iter()
            .zip(&self.states)
            .filter(|&(_, &st)| st != INVALID)
            .map(|(&line, &st)| (line, LineState::from_bits(st)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> L1Cache {
        // 2 sets x 2 ways x 64 B = 256 B.
        L1Cache::new(&CacheConfig {
            capacity_bytes: 256,
            ways: 2,
            line_bytes: 64,
            hit_latency_cycles: 0,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        assert_eq!(c.lookup(10), None);
        c.insert(10, LineState::Exclusive);
        assert_eq!(c.lookup(10), Some(LineState::Exclusive));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache();
        // Lines 0, 2, 4 map to set 0 (even line numbers with 2 sets).
        c.insert(0, LineState::Shared);
        c.insert(2, LineState::Shared);
        let _ = c.lookup(0); // make line 2 the LRU
        let ev = c.insert(4, LineState::Shared).expect("must evict");
        assert_eq!(ev.line, 2);
        assert_eq!(c.lookup(0), Some(LineState::Shared));
        assert_eq!(c.lookup(2), None);
    }

    #[test]
    fn modified_victim_reported() {
        let mut c = small_cache();
        c.insert(0, LineState::Modified);
        c.insert(2, LineState::Shared);
        let ev = c.insert(4, LineState::Shared).unwrap();
        assert_eq!(ev.state, LineState::Modified);
        assert_eq!(ev.line, 0);
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = small_cache();
        c.insert(7, LineState::Modified);
        assert!(c.downgrade_to_shared(7), "dirty downgrade needs writeback");
        assert_eq!(c.probe(7), Some(LineState::Shared));
        assert_eq!(c.invalidate(7), Some(LineState::Shared));
        assert_eq!(c.probe(7), None);
        assert_eq!(c.invalidate(7), None, "double invalidate is a no-op");
    }

    #[test]
    fn sets_are_independent() {
        let mut c = small_cache();
        c.insert(0, LineState::Shared); // set 0
        c.insert(1, LineState::Shared); // set 1
        c.insert(2, LineState::Shared); // set 0
        c.insert(3, LineState::Shared); // set 1
        assert_eq!(c.resident_lines(), 4, "no eviction across sets");
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn set_state_requires_residency() {
        let mut c = small_cache();
        c.set_state(42, LineState::Shared);
    }
}
