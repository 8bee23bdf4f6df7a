//! A write-back LRU buffer cache.
//!
//! Both MINIX variants in the evaluation use "a static buffer cache of
//! 6,144 Kbyte" (paper §4.2); the FFS baseline uses the same structure with
//! a different size. Keys are store addresses; values are whole block
//! images (variable-sized, supporting the small-i-node block variant).

use std::collections::HashMap;

/// Eviction victim handed back to the caller for write-back.
#[derive(Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Store address of the evicted block.
    pub addr: u32,
    /// Block image (only returned when dirty; clean evictions are silent).
    pub data: Vec<u8>,
}

#[derive(Debug)]
struct Entry {
    data: Vec<u8>,
    dirty: bool,
    last_used: u64,
}

/// The cache. Capacity is in bytes; entries are whole blocks.
#[derive(Debug)]
pub struct BufferCache {
    entries: HashMap<u32, Entry>,
    capacity_bytes: usize,
    used_bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl BufferCache {
    /// Creates a cache holding at most `capacity_bytes` of block data.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            entries: HashMap::new(),
            capacity_bytes,
            used_bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Bytes of dirty (not yet written back) data.
    pub fn dirty_bytes(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.dirty)
            .map(|e| e.data.len())
            .sum()
    }

    /// Looks up a block, refreshing recency. Records a hit or miss.
    pub fn get(&mut self, addr: u32) -> Option<&[u8]> {
        self.lookup(addr).map(|e| e.data.as_slice())
    }

    /// Mutable twin of [`get`](Self::get) for an in-place update: the same
    /// recency refresh and hit-or-miss accounting, no copy. Once the block
    /// has changed, record that with [`mark_dirty`](Self::mark_dirty).
    pub fn get_mut(&mut self, addr: u32) -> Option<&mut [u8]> {
        self.lookup(addr).map(|e| e.data.as_mut_slice())
    }

    fn lookup(&mut self, addr: u32) -> Option<&mut Entry> {
        self.tick += 1;
        match self.entries.get_mut(&addr) {
            Some(e) => {
                e.last_used = self.tick;
                self.hits += 1;
                Some(e)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Whether a block is resident (no recency update, no stats).
    pub fn contains(&self, addr: u32) -> bool {
        self.entries.contains_key(&addr)
    }

    /// Inserts a clean block (after a read from the store). Returns dirty
    /// evictees that must be written back.
    pub fn insert_clean(&mut self, addr: u32, data: Vec<u8>) -> Vec<Evicted> {
        self.insert(addr, data, false)
    }

    /// Inserts or updates a block and marks it dirty. Returns dirty
    /// evictees that must be written back.
    pub fn insert_dirty(&mut self, addr: u32, data: Vec<u8>) -> Vec<Evicted> {
        self.insert(addr, data, true)
    }

    fn insert(&mut self, addr: u32, data: Vec<u8>, dirty: bool) -> Vec<Evicted> {
        self.tick += 1;
        if let Some(old) = self.entries.remove(&addr) {
            self.used_bytes -= old.data.len();
        }
        self.used_bytes += data.len();
        self.entries.insert(
            addr,
            Entry {
                data,
                dirty,
                last_used: self.tick,
            },
        );
        let mut evicted = Vec::new();
        while self.used_bytes > self.capacity_bytes && self.entries.len() > 1 {
            // Evict the least recently used block other than the one just
            // inserted.
            let victim = self
                .entries
                .iter()
                .filter(|(a, _)| **a != addr)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(a, _)| *a)
                .expect("len > 1"); // PANIC-OK: non-empty: the cache holds at least one entry here
            let e = self.entries.remove(&victim).expect("chosen above"); // PANIC-OK: the victim key was just drawn from this map
            self.used_bytes -= e.data.len();
            if e.dirty {
                evicted.push(Evicted {
                    addr: victim,
                    data: e.data,
                });
            }
        }
        evicted
    }

    /// Marks a resident block dirty (in-place mutation already applied via
    /// [`get_mut`](Self::get_mut)).
    pub fn mark_dirty(&mut self, addr: u32) {
        if let Some(e) = self.entries.get_mut(&addr) {
            e.dirty = true;
        }
    }

    /// Removes a block without write-back (e.g. freed file blocks).
    pub fn discard(&mut self, addr: u32) {
        if let Some(e) = self.entries.remove(&addr) {
            self.used_bytes -= e.data.len();
        }
    }

    /// Takes all dirty blocks (clearing their dirty bits), in address
    /// order, for a sync. Address order gives the store its best shot at
    /// sequential write-back.
    pub fn take_dirty(&mut self) -> Vec<Evicted> {
        let mut dirty: Vec<Evicted> = self
            .entries
            .iter_mut()
            .filter(|(_, e)| e.dirty)
            .map(|(a, e)| {
                e.dirty = false;
                Evicted {
                    addr: *a,
                    data: e.data.clone(),
                }
            })
            .collect();
        dirty.sort_by_key(|e| e.addr);
        dirty
    }

    /// Drops every entry. Dirty blocks are returned for write-back first —
    /// used by the benchmarks to defeat the cache between phases.
    pub fn drop_all(&mut self) -> Vec<Evicted> {
        let dirty = self.take_dirty();
        self.entries.clear();
        self.used_bytes = 0;
        dirty
    }

    /// Resets the hit/miss counters.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = BufferCache::new(1 << 20);
        assert!(c.get(5).is_none());
        c.insert_clean(5, vec![1, 2, 3]);
        assert_eq!(c.get(5), Some(&[1u8, 2, 3][..]));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = BufferCache::new(3000);
        c.insert_clean(1, vec![0u8; 1000]);
        c.insert_clean(2, vec![0u8; 1000]);
        c.insert_clean(3, vec![0u8; 1000]);
        // Touch 1 so 2 is the LRU.
        c.get(1);
        let ev = c.insert_clean(4, vec![0u8; 1000]);
        assert!(ev.is_empty(), "clean eviction is silent");
        assert!(c.contains(1) && !c.contains(2));
    }

    #[test]
    fn dirty_eviction_returns_block_for_writeback() {
        let mut c = BufferCache::new(2000);
        c.insert_dirty(1, vec![7u8; 1000]);
        c.insert_clean(2, vec![0u8; 1000]);
        let ev = c.insert_clean(3, vec![0u8; 1000]);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].addr, 1);
        assert_eq!(ev[0].data, vec![7u8; 1000]);
    }

    #[test]
    fn take_dirty_clears_flags_and_sorts() {
        let mut c = BufferCache::new(1 << 20);
        c.insert_dirty(9, vec![9]);
        c.insert_dirty(3, vec![3]);
        c.insert_clean(5, vec![5]);
        let d = c.take_dirty();
        assert_eq!(d.iter().map(|e| e.addr).collect::<Vec<_>>(), vec![3, 9]);
        assert!(c.take_dirty().is_empty(), "dirty bits cleared");
    }

    #[test]
    fn drop_all_returns_dirty_then_empties() {
        let mut c = BufferCache::new(1 << 20);
        c.insert_dirty(1, vec![1]);
        c.insert_clean(2, vec![2]);
        let d = c.drop_all();
        assert_eq!(d.len(), 1);
        assert!(!c.contains(1) && !c.contains(2));
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn update_replaces_without_leaking_bytes() {
        let mut c = BufferCache::new(1 << 20);
        c.insert_clean(1, vec![0u8; 100]);
        c.insert_dirty(1, vec![0u8; 50]);
        assert_eq!(c.used_bytes(), 50);
    }

    #[test]
    fn get_mut_then_mark_dirty_is_written_back() {
        let mut c = BufferCache::new(1 << 20);
        c.insert_clean(1, vec![0u8; 4]);
        c.get_mut(1).unwrap()[0] = 0xFF;
        c.mark_dirty(1);
        let d = c.take_dirty();
        assert_eq!(d[0].data[0], 0xFF);
    }

    #[test]
    fn get_mut_counts_and_refreshes_like_get() {
        let mut c = BufferCache::new(2000);
        assert!(c.get_mut(1).is_none());
        c.insert_clean(1, vec![0u8; 1000]);
        c.insert_clean(2, vec![0u8; 1000]);
        // Refreshing 1 makes 2 the eviction victim.
        c.get_mut(1).unwrap()[0] = 1;
        c.mark_dirty(1);
        assert_eq!(c.stats(), (1, 1));
        assert!(c.insert_clean(3, vec![0u8; 1000]).is_empty());
        assert!(c.contains(1) && !c.contains(2));
        assert_eq!(c.dirty_bytes(), 1000);
    }
}
