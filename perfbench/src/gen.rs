//! Seeded input generation: a small counter-based generator and the
//! distinct contents every file, chunk and block is written with.
//!
//! Contents are a pure function of `(seed, kind, index, generation)`, so a
//! read is checked by regenerating what must be there — a read that lands
//! on another file, chunk, block or generation compares unequal.

/// SplitMix64 finaliser: a bijective 64-bit mix.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic generator for workload choices (op mix, orders, names).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(mix(seed ^ mix(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// What a content key names; keeps the three workloads' contents apart.
#[derive(Clone, Copy)]
pub enum Tag {
    File = 1,
    Chunk = 2,
    Block = 3,
}

/// The key of one unit of content.
pub fn key(seed: u64, tag: Tag, index: u64, generation: u64) -> u64 {
    mix(mix(mix(seed ^ tag as u64) ^ index) ^ generation.rotate_left(32))
}

fn word(key: u64, i: usize) -> [u8; 8] {
    mix(key.wrapping_add((i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93))).to_le_bytes()
}

/// Fills `buf` with the content named by `key`.
pub fn fill(key: u64, buf: &mut [u8]) {
    for (i, chunk) in buf.chunks_mut(8).enumerate() {
        let w = word(key, i);
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}

/// Whether `buf` holds exactly the content named by `key`.
pub fn matches(key: u64, buf: &[u8]) -> bool {
    buf.chunks(8)
        .enumerate()
        .all(|(i, chunk)| chunk == &word(key, i)[..chunk.len()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contents_are_distinct_and_checkable() {
        let mut a = vec![0u8; 1024];
        let mut b = vec![0u8; 1024];
        fill(key(7, Tag::File, 1, 0), &mut a);
        fill(key(7, Tag::File, 2, 0), &mut b);
        assert_ne!(a, b);
        assert!(matches(key(7, Tag::File, 1, 0), &a));
        assert!(!matches(key(7, Tag::File, 2, 0), &a));
        assert!(!matches(key(7, Tag::File, 1, 1), &a));
        assert!(!matches(key(8, Tag::File, 1, 0), &a));
        a[1000] ^= 1;
        assert!(!matches(key(7, Tag::File, 1, 0), &a));
    }

    #[test]
    fn generator_repeats_per_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 1);
            [r.next_u64(), r.next_u64(), r.below(10)]
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let mut p = Rng::new(3, 2).permutation(100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }
}
