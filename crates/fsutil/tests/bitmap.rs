//! `Bitmap` searches a 64-slot word at a time. This property test holds it
//! to the bit-by-bit scan it replaced, kept here as the reference over a
//! `Vec<bool>` model, across:
//!
//! - lengths on and off multiples of 8 and 64, including 0;
//! - hints at or past `len`, up to `usize::MAX`;
//! - empty, full and randomly filled maps, and searches that wrap;
//! - random sequences of allocations, single sets and clears, and runs of
//!   sets and clears long enough to fill whole words;
//! - `from_bytes` round-trips, including random pad bits past `len`, and
//!   `allocated()` after every step.

use fsutil::Bitmap;
use proptest::prelude::*;

/// The bit-by-bit allocator the word search replaced: test one slot per
/// step from `hint % len`, wrapping once around.
fn reference_alloc_near(model: &mut [bool], hint: usize) -> Option<usize> {
    let len = model.len();
    if model.iter().all(|&b| b) {
        return None;
    }
    let start = hint % len;
    let mut i = start;
    loop {
        if !model[i] {
            model[i] = true;
            return Some(i);
        }
        i = (i + 1) % len;
        if i == start {
            return None;
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    AllocNear(usize),
    AllocFirst,
    /// Flip one slot: set it if free, clear it if allocated.
    Toggle(usize),
    /// Set every free slot in a run.
    FillRun(usize, usize),
    /// Clear every allocated slot in a run.
    ClearRun(usize, usize),
    /// Rebuild from the serialized bytes.
    RoundTrip,
}

fn len_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        3 => 0usize..300,
        2 => (0usize..5, 0usize..3).prop_map(|(w, d)| (w * 64 + d + 63).max(1)),
        1 => (1usize..40).prop_map(|k| k * 8),
    ]
}

fn hint_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        4 => 0usize..400,
        1 => any::<usize>(),
        1 => Just(usize::MAX),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => hint_strategy().prop_map(Op::AllocNear),
        3 => Just(Op::AllocFirst),
        3 => any::<usize>().prop_map(Op::Toggle),
        1 => (any::<usize>(), 0usize..200).prop_map(|(a, n)| Op::FillRun(a, n)),
        1 => (any::<usize>(), 0usize..200).prop_map(|(a, n)| Op::ClearRun(a, n)),
        1 => Just(Op::RoundTrip),
    ]
}

/// How the map starts: empty, full, or random bytes (pad bits included).
#[derive(Debug, Clone)]
enum Start {
    Empty,
    Full,
    Random(Vec<u8>),
}

fn start_strategy() -> impl Strategy<Value = Start> {
    prop_oneof![
        1 => Just(Start::Empty),
        1 => Just(Start::Full),
        2 => proptest::collection::vec(any::<u8>(), 40..=40).prop_map(Start::Random),
    ]
}

fn build(len: usize, start: &Start) -> (Bitmap, Vec<bool>) {
    match start {
        Start::Empty => (Bitmap::new(len), vec![false; len]),
        Start::Full => {
            let mut b = Bitmap::new(len);
            for i in 0..len {
                b.set(i);
            }
            (b, vec![true; len])
        }
        Start::Random(seed) => {
            // Enough bytes for any generated length, pad bits random too.
            let bytes: Vec<u8> = seed
                .iter()
                .cycle()
                .take(len.div_ceil(8) + 3)
                .copied()
                .collect();
            let model = (0..len)
                .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
                .collect();
            let b = Bitmap::from_bytes(&bytes, len).expect("bytes cover len");
            assert_eq!(
                b.as_bytes(),
                &bytes[..len.div_ceil(8)],
                "bytes kept verbatim"
            );
            (b, model)
        }
    }
}

fn check(b: &Bitmap, model: &[bool]) -> Result<(), TestCaseError> {
    let set = model.iter().filter(|&&x| x).count();
    prop_assert_eq!(b.len(), model.len());
    prop_assert_eq!(b.allocated(), set);
    prop_assert_eq!(b.free(), model.len() - set);
    for (i, &m) in model.iter().enumerate() {
        prop_assert_eq!(b.get(i), m, "slot {}", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn word_search_matches_the_bit_by_bit_scan(
        len in len_strategy(),
        start in start_strategy(),
        ops in proptest::collection::vec(op(), 0..120),
    ) {
        let (mut b, mut model) = build(len, &start);
        check(&b, &model)?;
        for op in ops {
            match op {
                Op::AllocNear(hint) => {
                    let want = if len == 0 { None } else { reference_alloc_near(&mut model, hint) };
                    prop_assert_eq!(b.alloc_near(hint), want, "alloc_near({})", hint);
                }
                Op::AllocFirst => {
                    let want = if len == 0 { None } else { reference_alloc_near(&mut model, 0) };
                    prop_assert_eq!(b.alloc_first(), want);
                }
                Op::Toggle(i) if len > 0 => {
                    let i = i % len;
                    if model[i] {
                        b.clear(i);
                    } else {
                        b.set(i);
                    }
                    model[i] = !model[i];
                }
                Op::FillRun(a, n) if len > 0 => {
                    for i in (a % len..len).take(n) {
                        if !model[i] {
                            b.set(i);
                            model[i] = true;
                        }
                    }
                }
                Op::ClearRun(a, n) if len > 0 => {
                    for i in (a % len..len).take(n) {
                        if model[i] {
                            b.clear(i);
                            model[i] = false;
                        }
                    }
                }
                Op::RoundTrip => {
                    let restored = Bitmap::from_bytes(b.as_bytes(), len).expect("own bytes");
                    prop_assert_eq!(&restored, &b);
                    b = restored;
                }
                _ => {}
            }
            check(&b, &model)?;
        }
    }

    #[test]
    fn from_bytes_counts_only_slots_below_len(
        len in len_strategy(),
        bytes in proptest::collection::vec(any::<u8>(), 0..50),
    ) {
        match Bitmap::from_bytes(&bytes, len) {
            None => prop_assert!(bytes.len() < len.div_ceil(8)),
            Some(b) => {
                let model: Vec<bool> =
                    (0..len).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect();
                check(&b, &model)?;
                prop_assert_eq!(b.as_bytes(), &bytes[..len.div_ceil(8)]);
            }
        }
    }
}

#[test]
fn full_words_and_pad_bits_are_never_slots() {
    // 130 slots: two full words, then two slots in a third word whose
    // pad bits are clear.
    let mut b = Bitmap::new(130);
    for i in 0..130 {
        b.set(i);
    }
    assert_eq!(b.alloc_near(0), None);
    b.clear(129);
    assert_eq!(b.alloc_near(5), Some(129));
    b.clear(3);
    assert_eq!(b.alloc_near(129), Some(3), "wraps past the pad bits");
    assert_eq!(Bitmap::from_bytes(&[0xFF; 16], 130), None, "too short");
}
