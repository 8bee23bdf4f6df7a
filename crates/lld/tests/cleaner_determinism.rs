//! The cleaner is a pure function of the disk's history.
//!
//! When the cleaner reclaims a segment it re-logs the metadata records the
//! victim's summary mentions. The order it re-logs them in decides the
//! bytes of the next summaries, where the open segment fills up, and so
//! every later seal, clean and simulated microsecond. That order must come
//! from the records themselves, never from per-process hasher state: the
//! same workload run twice in one process has to leave the same medium
//! and the same counters.

use ld_core::{FailureSet, ListHints, LogicalDisk, Pred, PredList};
use lld::{Lld, LldConfig, LldStats};
use simdisk::{BlockDev, SimDisk};

const CAPACITY: u64 = 8 << 20;
const BLOCK: usize = 4096;

fn content(tag: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (tag.wrapping_mul(37).wrapping_add(j as u64 * 11) % 253) as u8)
        .collect()
}

/// Fills the disk to 70 % across several lists, then overwrites a hot
/// tenth of the blocks most of the time, so the cleaner runs often and
/// its victims mention many blocks and lists.
fn run() -> (Vec<u8>, LldStats, u64) {
    let config = LldConfig {
        segment_bytes: 64 << 10,
        summary_bytes: 4 << 10,
        ..LldConfig::default()
    };
    let mut ld = Lld::format(SimDisk::hp_c3010_with_capacity(CAPACITY), config).expect("format");
    let nblocks = (ld.capacity_bytes() * 7 / 10) as usize / BLOCK;
    let mut bids = Vec::with_capacity(nblocks);
    let mut lists = Vec::new();
    let mut pred = Pred::Start;
    for i in 0..nblocks {
        if i % 64 == 0 {
            let after = lists
                .last()
                .map_or(PredList::Start, |&l| PredList::After(l));
            lists.push(ld.new_list(after, ListHints::default()).expect("new_list"));
            pred = Pred::Start;
        }
        let lid = *lists.last().expect("a list was just made");
        let b = ld.new_block(lid, pred).expect("new_block");
        ld.write(b, &content(i as u64, BLOCK)).expect("fill");
        bids.push(b);
        pred = Pred::After(b);
    }
    ld.flush(FailureSet::PowerFailure).expect("flush");

    let hot = nblocks / 10;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for n in 0..(4 * nblocks) as u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = if x % 10 < 9 {
            (x >> 8) as usize % hot
        } else {
            hot + (x >> 8) as usize % (nblocks - hot)
        };
        ld.write(bids[i], &content(n ^ 0xABCD, BLOCK))
            .expect("overwrite");
    }
    ld.flush(FailureSet::PowerFailure).expect("flush");
    let stats = *ld.stats();
    assert!(
        stats.segments_cleaned > 20,
        "the workload must exercise the cleaner, cleaned {}",
        stats.segments_cleaned
    );
    let disk = ld.into_disk();
    (disk.image_bytes(), stats, disk.now_us())
}

#[test]
fn cleaning_is_identical_across_runs_in_one_process() {
    let (image_a, stats_a, clock_a) = run();
    let (image_b, stats_b, clock_b) = run();
    assert_eq!(stats_a, stats_b, "cleaner counters differ between runs");
    assert_eq!(clock_a, clock_b, "simulated clock differs between runs");
    assert!(image_a == image_b, "medium images differ between runs");
}
