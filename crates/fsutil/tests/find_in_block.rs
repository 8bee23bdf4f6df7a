//! `dirent::find_in_block` screens slots with a masked word compare before
//! its exact check. This property test holds it to the plain byte-wise
//! search it replaced, kept here as the reference, over directory blocks
//! built to defeat a screen that is too eager or too lax:
//!
//! - live slots holding the wanted name with garbage after its NUL;
//! - freed slots (i-node 0) that still hold the wanted name;
//! - names of 1–28 bytes sharing their first 8 bytes with the wanted one,
//!   including its own prefixes and extensions;
//! - the wanted name with one byte flipped, and raw non-UTF-8 slots.

use fsutil::dirent::{find_in_block, DIRENT_SIZE, MAX_NAME};
use fsutil::wire;
use proptest::prelude::*;

/// The byte-wise search `find_in_block` must agree with.
fn reference(block: &[u8], name: &str) -> Option<(usize, u32)> {
    let needle = name.as_bytes();
    if needle.is_empty() || needle.len() > MAX_NAME {
        return None;
    }
    block
        .chunks_exact(DIRENT_SIZE)
        .enumerate()
        .find_map(|(i, slot)| {
            let ino = wire::le_u32(slot, 0);
            if ino == 0 {
                return None;
            }
            let stored = &slot[4..];
            let matches = stored[..needle.len()] == *needle
                && (needle.len() == MAX_NAME || stored[needle.len()] == 0);
            matches.then_some((i, ino))
        })
}

/// Bytes that are valid single-byte UTF-8 but collide a lot.
const ALPHABET: &[u8] = b"ab0-";

fn needle_strategy() -> impl Strategy<Value = String> {
    (1usize..=MAX_NAME, any::<u64>()).prop_map(|(len, bits)| {
        (0..len)
            .map(|k| char::from(ALPHABET[((bits >> (2 * (k % 32))) & 3) as usize]))
            .collect()
    })
}

/// One slot: (kind, ino, a length, a position, filler seed).
type SlotSpec = (u8, u32, usize, usize, u64);

fn slot_strategy() -> impl Strategy<Value = SlotSpec> {
    (
        0u8..7,
        prop_oneof![1 => Just(0u32), 3 => any::<u32>()],
        1usize..=MAX_NAME,
        0usize..MAX_NAME,
        any::<u64>(),
    )
}

/// Deterministic filler: arbitrary bytes, including NUL and non-UTF-8.
fn filler(seed: u64, n: usize) -> impl Iterator<Item = u8> {
    let mut x = seed | 1;
    (0..n).map(move |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x as u8
    })
}

fn build_slot(spec: SlotSpec, needle: &[u8]) -> [u8; DIRENT_SIZE] {
    let (kind, ino, len, pos, seed) = spec;
    let mut slot = [0u8; DIRENT_SIZE];
    slot[..4].copy_from_slice(&ino.to_le_bytes());
    let name = &mut slot[4..];
    match kind {
        // The wanted name, NUL-padded.
        0 => name[..needle.len()].copy_from_slice(needle),
        // The wanted name, then NUL, then garbage.
        1 => {
            name[..needle.len()].copy_from_slice(needle);
            for (b, g) in name[needle.len()..]
                .iter_mut()
                .skip(1)
                .zip(filler(seed, MAX_NAME))
            {
                *b = g;
            }
        }
        // A name of another length sharing the wanted name's first bytes
        // (up to 8), so the word compare alone cannot tell them apart.
        2 => {
            let shared = needle.len().min(8).min(len);
            name[..shared].copy_from_slice(&needle[..shared]);
            for (b, k) in name[shared..len].iter_mut().zip(shared..) {
                *b = needle
                    .get(k)
                    .copied()
                    .unwrap_or(ALPHABET[k % ALPHABET.len()]);
            }
        }
        // The wanted name with one byte changed.
        3 => {
            name[..needle.len()].copy_from_slice(needle);
            let p = pos % needle.len();
            name[p] = name[p].wrapping_add(1 + (seed % 250) as u8);
        }
        // Raw bytes: no NUL guaranteed, mostly not UTF-8.
        4 => {
            for (b, g) in name.iter_mut().zip(filler(seed, MAX_NAME)) {
                *b = g | 0x80;
            }
        }
        // The wanted name running on to fill all 28 bytes without a NUL.
        5 => {
            name[..needle.len()].copy_from_slice(needle);
            for (b, g) in name[needle.len()..].iter_mut().zip(filler(seed, MAX_NAME)) {
                *b = g | 1;
            }
        }
        // An unrelated short name from the same alphabet.
        _ => {
            for (b, g) in name[..len].iter_mut().zip(filler(seed, MAX_NAME)) {
                *b = ALPHABET[g as usize % ALPHABET.len()];
            }
        }
    }
    slot
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn word_screen_finds_exactly_what_the_bytewise_scan_finds(
        needle in needle_strategy(),
        slots in proptest::collection::vec(slot_strategy(), 1..=130),
    ) {
        let block: Vec<u8> = slots
            .iter()
            .flat_map(|&s| build_slot(s, needle.as_bytes()))
            .collect();
        prop_assert_eq!(find_in_block(&block, &needle), reference(&block, &needle));
    }

    #[test]
    fn each_slot_alone_agrees_with_the_bytewise_scan(
        needle in needle_strategy(),
        slot in slot_strategy(),
    ) {
        let block = build_slot(slot, needle.as_bytes());
        prop_assert_eq!(find_in_block(&block, &needle), reference(&block, &needle));
    }
}

#[test]
fn non_utf8_and_out_of_range_names() {
    let mut block = vec![0u8; 2 * DIRENT_SIZE];
    block[..4].copy_from_slice(&7u32.to_le_bytes());
    block[4..8].copy_from_slice(&[0xFF, 0xFE, b'x', 0]);
    block[DIRENT_SIZE..DIRENT_SIZE + 4].copy_from_slice(&9u32.to_le_bytes());
    block[DIRENT_SIZE + 4..DIRENT_SIZE + 7].copy_from_slice("éz".as_bytes());
    for name in ["", "x", "é", "éz", &"q".repeat(MAX_NAME + 1)] {
        assert_eq!(
            find_in_block(&block, name),
            reference(&block, name),
            "{name:?}"
        );
    }
    assert_eq!(find_in_block(&block, "éz"), Some((1, 9)));
}
