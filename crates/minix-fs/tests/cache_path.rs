//! Pins the buffer-cache path of MINIX over the Logical Disk.
//!
//! A cache of a few blocks makes every metadata access compete for
//! residency: dirty i-node, directory and indirect blocks are evicted and
//! written back mid-operation, evicted blocks miss and are read again, and
//! `sync` / `drop_caches` empty the cache between bursts. A seeded mix of
//! creates, whole- and partial-block writes (some far enough out to need
//! the double-indirect block), reads, unlinks, syncs and cache drops runs
//! over both i-node layouts.
//!
//! The expected values are constants: the cache's hit and miss counts,
//! the file-system and LLD counters, the simulated clock and a digest of
//! the final medium. Any change to which block the cache is asked for,
//! in which order, or when a dirty block is written back shows up here.
//! The workload never fills the disk enough to wake the cleaner, so the
//! figures do not depend on the cleaner's choices.

use ld_core::LogicalDisk;
use lld::LldConfig;
use minix_fs::{FsConfig, InodeMode, LdStore, MinixFs};
use simdisk::{BlockDev, SimDisk};

/// The figures one run is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    cache: (u64, u64),
    fs: String,
    lld: String,
    clock_us: u64,
    image_digest: u64,
}

/// SplitMix64: a self-contained seeded generator, so the workload cannot
/// drift with any library's random-number algorithm.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over the whole medium.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

fn content(tag: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (tag.wrapping_mul(131).wrapping_add(j as u64 * 17) % 251) as u8)
        .collect()
}

fn run(inode_mode: InodeMode, seed: u64) -> Outcome {
    let lld_config = LldConfig {
        segment_bytes: 64 << 10,
        summary_bytes: 4 << 10,
        ..LldConfig::default()
    };
    let fs_config = FsConfig {
        ninodes: 1024,
        // Four 4 KB blocks.
        cache_bytes: 16 << 10,
        inode_mode,
        ..FsConfig::default()
    };
    let store =
        LdStore::format(SimDisk::hp_c3010_with_capacity(32 << 20), lld_config).expect("format");
    let mut fs = MinixFs::format(store, fs_config).expect("mkfs");
    let bs = 4096u64;
    let mut rng = Rng(seed);
    fs.mkdir("/sub").expect("mkdir");

    let mut live: Vec<String> = Vec::new();
    let mut next_name = 0u64;
    let mut buf = vec![0u8; 3 * bs as usize];
    for step in 0..1200u64 {
        let roll = rng.below(100);
        if live.is_empty() || roll < 25 {
            // Spread names over the root and a subdirectory that grows past
            // one directory block.
            let dir = if rng.below(4) == 0 { "" } else { "/sub" };
            let path = format!("{dir}/file-{next_name:04}-{:x}", rng.below(1 << 16));
            next_name += 1;
            fs.create(&path).expect("create");
            live.push(path);
        } else if roll < 45 {
            // Whole-block write, sometimes past the direct zones.
            let path = &live[rng.below(live.len() as u64) as usize];
            let ino = fs.lookup(path).expect("lookup");
            let block = match rng.below(8) {
                0 => 7 + rng.below(20),
                1 => 7 + 1024 + rng.below(2048),
                _ => rng.below(7),
            };
            let len = bs as usize * (1 + rng.below(2) as usize);
            fs.write(ino, block * bs, &content(step, len))
                .expect("write");
        } else if roll < 65 {
            // Partial-block write: read-modify-write of a cached block.
            let path = &live[rng.below(live.len() as u64) as usize];
            let ino = fs.lookup(path).expect("lookup");
            let off = rng.below(12 * bs);
            let len = 1 + rng.below(bs - 1) as usize;
            fs.write(ino, off, &content(step, len))
                .expect("partial write");
        } else if roll < 85 {
            let path = &live[rng.below(live.len() as u64) as usize];
            let ino = fs.lookup(path).expect("lookup");
            let off = rng.below(40 * bs);
            let len = 1 + rng.below(buf.len() as u64) as usize;
            fs.read(ino, off, &mut buf[..len]).expect("read");
        } else if roll < 95 {
            let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
            fs.unlink(&victim).expect("unlink");
        } else if roll < 98 {
            fs.sync().expect("sync");
        } else {
            fs.drop_caches().expect("drop caches");
        }
    }
    fs.sync().expect("final sync");

    let cache = fs.cache_stats();
    let fs_stats = format!("{:?}", fs.stats());
    let mut store = fs.into_store();
    let lld_stats = *store.lld().stats();
    assert_eq!(
        lld_stats.segments_cleaned, 0,
        "the pinned workload must not depend on the cleaner"
    );
    store.lld_mut().shutdown().expect("shutdown");
    let disk = store.into_disk();
    Outcome {
        cache,
        fs: fs_stats,
        lld: format!("{lld_stats:?}"),
        clock_us: disk.now_us(),
        image_digest: digest(&disk.image_bytes()),
    }
}

#[test]
fn packed_inodes_cache_path_is_pinned() {
    let expected = Outcome {
        cache: (51959, 1552),
        fs: "FsStats { creates: 272, unlinks: 134, bytes_read: 267164, \
             bytes_written: 1988369, readahead_blocks: 0 }"
            .into(),
        lld: "LldStats { segments_sealed: 101, partial_segment_writes: 38, flush_seals: 11, \
              block_writes: 1506, block_reads: 1552, block_reads_from_memory: 633, \
              user_bytes_written: 6168576, stored_bytes_written: 6168576, \
              list_records_logged: 1927, records_logged: 4193, cleaner_runs: 0, \
              segments_cleaned: 0, cleaner_bytes_copied: 0, cleaner_records_relogged: 0, \
              reorganized_lists: 0, recovery_summaries_read: 0, recovery_us: 0, \
              recovery_records_discarded: 0, recovery_orphans: 0, nvram_saves: 0, retries: 0, \
              remapped_sectors: 0, unreadable_blocks: 0, queued_segment_writes: 0, \
              queued_reads: 0, queue_drains: 0, recovery_nvram_applied: false, \
              recovered_from_checkpoint: false }"
            .into(),
        clock_us: 16673680,
        image_digest: 1172937973866982862,
    };
    assert_eq!(run(InodeMode::Packed, 7), expected);
}

#[test]
fn small_inode_blocks_cache_path_is_pinned() {
    let expected = Outcome {
        cache: (25908, 4042),
        fs: "FsStats { creates: 327, unlinks: 110, bytes_read: 268927, \
             bytes_written: 2035839, readahead_blocks: 0 }"
            .into(),
        lld: "LldStats { segments_sealed: 100, partial_segment_writes: 46, flush_seals: 6, \
              block_writes: 2485, block_reads: 4042, block_reads_from_memory: 1295, \
              user_bytes_written: 5811904, stored_bytes_written: 5811904, \
              list_records_logged: 2666, records_logged: 6265, cleaner_runs: 0, \
              segments_cleaned: 0, cleaner_bytes_copied: 0, cleaner_records_relogged: 0, \
              reorganized_lists: 0, recovery_summaries_read: 0, recovery_us: 0, \
              recovery_records_discarded: 0, recovery_orphans: 0, nvram_saves: 0, retries: 0, \
              remapped_sectors: 0, unreadable_blocks: 0, queued_segment_writes: 0, \
              queued_reads: 0, queue_drains: 0, recovery_nvram_applied: false, \
              recovered_from_checkpoint: false }"
            .into(),
        clock_us: 27385180,
        image_digest: 4060191566029331713,
    };
    assert_eq!(run(InodeMode::SmallBlocks, 11), expected);
}
