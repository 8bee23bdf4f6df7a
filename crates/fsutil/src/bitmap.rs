//! A persistent bitmap allocator, as used by the MINIX file system for free
//! i-nodes and free zones (paper §4.1) and by the FFS baseline's cylinder
//! groups.

/// A bitmap over `len` slots; bit set = allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    bits: Vec<u8>,
    len: usize,
    allocated: usize,
}

impl Bitmap {
    /// Creates a bitmap with all slots free.
    pub fn new(len: usize) -> Self {
        Self {
            bits: vec![0u8; len.div_ceil(8)],
            len,
            allocated: 0,
        }
    }

    /// Rebuilds a bitmap from serialized bytes, or `None` if `bytes` is
    /// too short for `len` bits. Bits past `len` in the last byte are kept
    /// as they are but never count as slots.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Option<Self> {
        let bits = bytes.get(..len.div_ceil(8))?.to_vec();
        let full: usize = bits[..len / 8]
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum();
        // The last byte's slots, if it is partial, without its pad bits.
        let tail = bits
            .get(len / 8)
            .map_or(0, |b| b & ((1u8 << (len % 8)) - 1));
        let allocated = full + tail.count_ones() as usize;
        Some(Self {
            bits,
            len,
            allocated,
        })
    }

    /// Serialized form (little-endian bit order within bytes).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated slots.
    pub fn allocated(&self) -> usize {
        self.allocated
    }

    /// Number of free slots.
    pub fn free(&self) -> usize {
        self.len - self.allocated
    }

    /// Whether slot `i` is allocated.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index {i} out of range");
        self.bits[i / 8] & (1 << (i % 8)) != 0
    }

    /// Allocates the first free slot at or after `hint`, wrapping around —
    /// the "allocate close to the previous allocation" policy MINIX uses
    /// for zones.
    pub fn alloc_near(&mut self, hint: usize) -> Option<usize> {
        if self.allocated == self.len {
            return None;
        }
        let start = hint % self.len;
        let slot = self
            .find_free(start, self.len)
            .or_else(|| self.find_free(0, start))?;
        self.set(slot);
        Some(slot)
    }

    /// The first free slot in `[from, to)`, where `to <= len`. Searches a
    /// 64-slot word at a time: a full word is skipped on one compare, and
    /// the first clear bit of any other is its count of trailing ones. The
    /// result is the slot a bit-by-bit scan from `from` would stop at.
    fn find_free(&self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let first = from / 64;
        let words = self.bits[first * 8..to.div_ceil(8)].chunks(8);
        for (k, chunk) in words.enumerate() {
            // Bytes past the end of the range read as free; the `to` check
            // below rejects them like any other slot at or past `to`.
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            let mut word = u64::from_le_bytes(buf);
            if k == 0 {
                // Slots below `from` count as taken.
                word |= (1u64 << (from % 64)) - 1;
            }
            if word != u64::MAX {
                let slot = (first + k) * 64 + word.trailing_ones() as usize;
                return (slot < to).then_some(slot);
            }
        }
        None
    }

    /// Allocates the first free slot from the beginning.
    pub fn alloc_first(&mut self) -> Option<usize> {
        self.alloc_near(0)
    }

    /// Marks slot `i` allocated.
    ///
    /// # Panics
    ///
    /// Panics if `i` is already allocated — double allocation is always a
    /// logic error.
    pub fn set(&mut self, i: usize) {
        assert!(!self.get(i), "slot {i} already allocated");
        self.bits[i / 8] |= 1 << (i % 8);
        self.allocated += 1;
    }

    /// Frees slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not allocated — double free is always a logic
    /// error.
    pub fn clear(&mut self, i: usize) {
        assert!(self.get(i), "slot {i} not allocated");
        self.bits[i / 8] &= !(1 << (i % 8));
        self.allocated -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_near_wraps_and_respects_hint() {
        let mut b = Bitmap::new(10);
        assert_eq!(b.alloc_near(7), Some(7));
        assert_eq!(b.alloc_near(7), Some(8));
        assert_eq!(b.alloc_near(9), Some(9));
        assert_eq!(b.alloc_near(9), Some(0), "wraps around");
        assert_eq!(b.free(), 6);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut b = Bitmap::new(3);
        for _ in 0..3 {
            assert!(b.alloc_first().is_some());
        }
        assert_eq!(b.alloc_first(), None);
        b.clear(1);
        assert_eq!(b.alloc_first(), Some(1));
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut b = Bitmap::new(100);
        for i in [0usize, 7, 8, 63, 64, 99] {
            b.set(i);
        }
        let restored = Bitmap::from_bytes(b.as_bytes(), 100).unwrap();
        assert_eq!(restored, b);
        assert_eq!(restored.allocated(), 6);
        assert!(restored.get(63) && !restored.get(62));
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn double_alloc_panics() {
        let mut b = Bitmap::new(4);
        b.set(2);
        b.set(2);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn double_free_panics() {
        let mut b = Bitmap::new(4);
        b.clear(2);
    }
}
