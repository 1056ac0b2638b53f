//! Shared last-level cache with a co-located full-map directory.
//!
//! The paper models "a shared 4MB 16-way last-level cache with 20 cycle hit
//! latency" and "a standard invalidation-based cache coherence protocol
//! with the directory co-located with the last-level cache". The LLC is
//! inclusive: evicting an LLC line back-invalidates any L1 copies.
//!
//! # Storage
//!
//! Each way is four words: the tag, stored as `!line` so that zero marks
//! an empty way (line `u64::MAX` is never stored), the sharer mask, the
//! LRU stamp, and the owner with the dirty bit, where zero means "no
//! owner, clean". An empty way is therefore all-zero bits.
//!
//! The table is split into chunks of `CHUNK_SETS` sets, and a chunk is
//! allocated, as a zeroed `vec![[0; 4]; n]`, on the first insert into one
//! of its sets; a lookup in an unallocated chunk misses. Host memory thus
//! follows the sets a node touches: a node that never runs a task holds
//! no table at all, where a whole 4 MB LLC's directory is 2 MB.
//! Allocating the whole table zeroed up front is not enough on its own:
//! the allocator hands out fresh pages untouched, but a block it recycles
//! from freed memory is zeroed by writing, so a process that drops one
//! rack and builds another would commit every node's full table again.

use serde::{Deserialize, Serialize};

use crate::config::CacheConfig;

/// Directory/LLC metadata for one resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirEntry {
    /// Line number.
    pub line: u64,
    /// Bitmask of cores holding the line in their L1 (bit per core).
    pub sharers: u64,
    /// Core holding the line Modified/Exclusive, if any.
    pub owner: Option<u8>,
    /// Whether the LLC copy is dirty with respect to memory.
    pub dirty: bool,
}

/// An LLC victim that must be handled by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcVictim {
    /// The displaced line's directory entry (sharers need back-invalidation
    /// and dirty data needs a memory writeback).
    pub entry: DirEntry,
}

/// One way's words, indexed by [`TAG`], [`SHARERS`], [`STAMP`] and
/// [`OWNER`].
type Way = [u64; 4];

/// `!line`; zero marks an empty way.
const TAG: usize = 0;
/// Sharer mask.
const SHARERS: usize = 1;
/// Last-use stamp for LRU.
const STAMP: usize = 2;
/// Owner core plus one (zero: no owner), with [`DIRTY`] set when dirty.
const OWNER: usize = 3;
const DIRTY: u64 = 1 << 8;

/// Sets per lazily allocated chunk of the table (32 KB of ways at the
/// paper's 16-way geometry).
const CHUNK_SETS: usize = 64;

/// The shared LLC + directory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Llc {
    sets: usize,
    ways: usize,
    set_mask: u64,
    /// The ways of `CHUNK_SETS` consecutive sets per chunk; a chunk
    /// stays empty until a line is first inserted into one of its sets.
    chunks: Vec<Vec<Way>>,
    tick: u64,
}

fn encode_owner(owner: Option<u8>) -> u64 {
    owner.map_or(0, |o| u64::from(o) + 1)
}

fn owner_of(word: u64) -> Option<u8> {
    (word as u8).checked_sub(1)
}

fn entry_of(way: &Way) -> DirEntry {
    DirEntry {
        line: !way[TAG],
        sharers: way[SHARERS],
        owner: owner_of(way[OWNER]),
        dirty: way[OWNER] & DIRTY != 0,
    }
}

/// Mutable view of one resident line's directory state, returned by
/// [`Llc::lookup_mut`].
#[derive(Debug)]
pub struct DirMut<'a>(&'a mut Way);

impl DirMut<'_> {
    /// Bitmask of cores holding the line in their L1.
    pub fn sharers(&self) -> u64 {
        self.0[SHARERS]
    }

    /// Replaces the sharer mask.
    pub fn set_sharers(&mut self, sharers: u64) {
        self.0[SHARERS] = sharers;
    }

    /// Core holding the line Modified/Exclusive, if any.
    pub fn owner(&self) -> Option<u8> {
        owner_of(self.0[OWNER])
    }

    /// Replaces the owner.
    pub fn set_owner(&mut self, owner: Option<u8>) {
        self.0[OWNER] = (self.0[OWNER] & DIRTY) | encode_owner(owner);
    }

    /// Marks the LLC copy dirty with respect to memory.
    pub fn mark_dirty(&mut self) {
        self.0[OWNER] |= DIRTY;
    }

    /// Drops `core`'s L1 copy: clears its sharer bit and its ownership,
    /// and marks the line dirty when that copy was Modified.
    pub fn release(&mut self, core: usize, modified: bool) {
        self.0[SHARERS] &= !(1u64 << core);
        if self.owner() == Some(core as u8) {
            self.set_owner(None);
        }
        if modified {
            self.mark_dirty();
        }
    }
}

impl Llc {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Builds an empty LLC with the given geometry.
    pub fn new(cfg: &CacheConfig) -> Self {
        cfg.validate();
        let sets = cfg.sets();
        Self {
            sets,
            ways: cfg.ways,
            set_mask: sets as u64 - 1,
            chunks: vec![Vec::new(); sets.div_ceil(CHUNK_SETS)],
            tick: 0,
        }
    }

    /// `line`'s chunk, and the offset of its set's first way in it.
    #[inline]
    fn locate(&self, line: u64) -> (usize, usize) {
        let set = (line & self.set_mask) as usize;
        (set / CHUNK_SETS, set % CHUNK_SETS * self.ways)
    }

    /// `line`'s chunk and way index, if it is resident.
    fn find(&self, line: u64) -> Option<(usize, usize)> {
        let (chunk, base) = self.locate(line);
        let tag = !line;
        let way = self.chunks[chunk]
            .get(base..base + self.ways)?
            .iter()
            .position(|way| way[TAG] == tag)?;
        Some((chunk, base + way))
    }

    /// Looks up a line, updating LRU. Returns a mutable handle to its
    /// directory entry.
    pub fn lookup_mut(&mut self, line: u64) -> Option<DirMut<'_>> {
        let (chunk, slot) = self.find(line)?;
        self.tick += 1;
        let way = &mut self.chunks[chunk][slot];
        way[STAMP] = self.tick;
        Some(DirMut(way))
    }

    /// Reads a line's directory entry without touching LRU.
    pub fn probe(&self, line: u64) -> Option<DirEntry> {
        self.find(line)
            .map(|(chunk, slot)| entry_of(&self.chunks[chunk][slot]))
    }

    /// Inserts a freshly-fetched line; returns the victim entry if a
    /// resident line was displaced (caller back-invalidates its sharers
    /// and writes back dirty data).
    pub fn insert(&mut self, entry: DirEntry) -> Option<LlcVictim> {
        debug_assert_ne!(entry.line, u64::MAX, "line u64::MAX is reserved");
        debug_assert!(self.find(entry.line).is_none(), "line already resident");
        let (chunk, base) = self.locate(entry.line);
        let chunk_ways = self.sets.min(CHUNK_SETS) * self.ways;
        let table = &mut self.chunks[chunk];
        if table.is_empty() {
            *table = vec![[0; 4]; chunk_ways];
        }
        let set = &mut table[base..base + self.ways];
        // Prefer an empty way, else the least recently used.
        let mut victim = 0;
        let mut victim_stamp = u64::MAX;
        for (w, way) in set.iter().enumerate() {
            if way[TAG] == 0 {
                victim = w;
                break;
            }
            if way[STAMP] < victim_stamp {
                victim_stamp = way[STAMP];
                victim = w;
            }
        }
        let displaced = (set[victim][TAG] != 0).then(|| LlcVictim {
            entry: entry_of(&set[victim]),
        });
        self.tick += 1;
        set[victim] = [
            !entry.line,
            entry.sharers,
            self.tick,
            encode_owner(entry.owner) | if entry.dirty { DIRTY } else { 0 },
        ];
        displaced
    }

    /// Removes a line (used when handling inclusive-eviction bookkeeping in
    /// tests); returns its entry.
    pub fn remove(&mut self, line: u64) -> Option<DirEntry> {
        let (chunk, slot) = self.find(line)?;
        let way = &mut self.chunks[chunk][slot];
        let entry = entry_of(way);
        *way = [0; 4];
        Some(entry)
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.chunks
            .iter()
            .flatten()
            .filter(|way| way[TAG] != 0)
            .count()
    }

    #[cfg(test)]
    fn allocated_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| !c.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Llc {
        // 2 sets x 2 ways.
        Llc::new(&CacheConfig {
            capacity_bytes: 256,
            ways: 2,
            line_bytes: 64,
            hit_latency_cycles: 20,
        })
    }

    fn entry(line: u64) -> DirEntry {
        DirEntry {
            line,
            sharers: 0b1,
            owner: None,
            dirty: false,
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut llc = tiny();
        llc.insert(entry(4));
        assert!(llc.lookup_mut(4).is_some());
        assert!(llc.lookup_mut(6).is_none());
    }

    #[test]
    fn sharer_updates_persist() {
        let mut llc = tiny();
        llc.insert(entry(4));
        let mut dir = llc.lookup_mut(4).unwrap();
        dir.set_sharers(dir.sharers() | 0b10);
        assert_eq!(llc.probe(4).unwrap().sharers, 0b11);
    }

    #[test]
    fn eviction_returns_victim_directory_state() {
        let mut llc = tiny();
        let mut a = entry(0);
        a.dirty = true;
        a.sharers = 0b101;
        llc.insert(a);
        llc.insert(entry(2));
        let _ = llc.lookup_mut(2); // make line 0 LRU
        let victim = llc.insert(entry(4)).expect("set full");
        assert_eq!(victim.entry.line, 0);
        assert!(victim.entry.dirty);
        assert_eq!(victim.entry.sharers, 0b101);
    }

    #[test]
    fn hpca_geometry_starts_empty_and_round_trips_extreme_lines() {
        let mut llc = Llc::new(&CacheConfig::hpca_llc());
        assert_eq!(llc.resident_lines(), 0);
        assert_eq!(llc.allocated_chunks(), 0, "a fresh LLC holds no table");
        let stride = llc.sets() as u64;
        let ways = llc.ways() as u64;
        // Line 0 stores an all-ones tag, `u64::MAX - 1` stores tag 1.
        for line in [0, u64::MAX - 1] {
            assert!(llc.probe(line).is_none());
            let stored = DirEntry {
                line,
                sharers: 1 << 63,
                owner: Some(63),
                dirty: true,
            };
            assert!(llc.insert(stored).is_none());
            let mut dir = llc.lookup_mut(line).expect("inserted line is resident");
            assert_eq!((dir.sharers(), dir.owner()), (1 << 63, Some(63)));
            dir.set_owner(None);
            dir.set_owner(Some(63));
            assert_eq!(llc.probe(line), Some(stored));
            // Fill the rest of the set; one more insert evicts the line.
            for k in 1..ways {
                assert!(llc.insert(entry(line ^ (k * stride))).is_none());
            }
            let victim = llc.insert(entry(line ^ (ways * stride))).expect("set full");
            assert_eq!(victim.entry, stored);
            assert!(llc.probe(line).is_none());
        }
        assert_eq!(llc.resident_lines(), 2 * llc.ways());
        assert_eq!(llc.allocated_chunks(), 2, "one chunk per touched set");
    }

    #[test]
    fn remove_clears_slot() {
        let mut llc = tiny();
        llc.insert(entry(4));
        assert!(llc.remove(4).is_some());
        assert!(llc.probe(4).is_none());
        assert_eq!(llc.resident_lines(), 0);
    }
}
