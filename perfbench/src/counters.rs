//! Per-layer counters: the fields the benchmark reports out of the stats
//! structs the crates expose (`DiskStats`, `LldStats`, `QueueStats`, the
//! buffer cache's hit/miss pair), flattened so that deltas over measured
//! phases can be taken and summed across an LLD re-open.

use lld::LldStats;
use simdisk::{DiskStats, QueueStats};

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub struct Counters {
            $(pub $field: u64),*
        }

        impl Counters {
            pub fn plus(self, other: Self) -> Self {
                Self { $($field: self.$field + other.$field),* }
            }

            /// `self - earlier`, or `None` if `earlier` is not an earlier
            /// snapshot of the same counters.
            pub fn since(self, earlier: Self) -> Option<Self> {
                Some(Self { $($field: self.$field.checked_sub(earlier.$field)?),* })
            }
        }
    };
}

counters! {
    disk_read_ops,
    disk_cached_reads,
    disk_write_ops,
    disk_sectors_written,
    disk_seek_us,
    disk_rotation_us,
    disk_transfer_us,
    disk_overhead_us,
    lld_segments_sealed,
    lld_partial_segment_writes,
    lld_records_logged,
    lld_list_records_logged,
    lld_segments_cleaned,
    lld_cleaner_bytes_copied,
    lld_cleaner_records_relogged,
    lld_block_reads,
    lld_block_reads_from_memory,
    queue_submitted,
    queue_dispatched,
    queue_coalesced,
    queue_depth_sum,
    cache_hits,
    cache_misses,
}

impl Counters {
    /// Snapshot of a whole stack. `cache` is MINIX's `(hits, misses)`,
    /// `(0, 0)` when there is no file system.
    pub fn of(
        disk: &DiskStats,
        lld: &LldStats,
        queue: Option<QueueStats>,
        cache: (u64, u64),
    ) -> Self {
        let q = queue.unwrap_or_default();
        Self {
            lld_segments_sealed: lld.segments_sealed,
            lld_partial_segment_writes: lld.partial_segment_writes,
            lld_records_logged: lld.records_logged,
            lld_list_records_logged: lld.list_records_logged,
            lld_segments_cleaned: lld.segments_cleaned,
            lld_cleaner_bytes_copied: lld.cleaner_bytes_copied,
            lld_cleaner_records_relogged: lld.cleaner_records_relogged,
            lld_block_reads: lld.block_reads,
            lld_block_reads_from_memory: lld.block_reads_from_memory,
            queue_submitted: q.submitted,
            queue_dispatched: q.dispatched,
            queue_coalesced: q.coalesced,
            queue_depth_sum: q.depth_sum,
            cache_hits: cache.0,
            cache_misses: cache.1,
            ..Self::disk(disk)
        }
    }

    /// Snapshot of the device alone — the state a crash leaves behind,
    /// against which a freshly re-opened LLD's counters (which start at
    /// zero) are measured.
    pub fn disk(disk: &DiskStats) -> Self {
        Self {
            disk_read_ops: disk.read_ops,
            disk_cached_reads: disk.cached_reads,
            disk_write_ops: disk.write_ops,
            disk_sectors_written: disk.sectors_written,
            disk_seek_us: disk.seek_us,
            disk_rotation_us: disk.rotation_us,
            disk_transfer_us: disk.transfer_us,
            disk_overhead_us: disk.overhead_us,
            ..Self::default()
        }
    }

    /// Device bytes written per byte the workload wrote. The base is the
    /// payload the benchmark handed to the stack in its measured ops, not
    /// LLD's `user_bytes_written` (which also counts MINIX metadata).
    pub fn write_amp(&self, user_bytes: u64) -> f64 {
        ratio(
            self.disk_sectors_written * simdisk::SECTOR_SIZE as u64,
            user_bytes,
        )
    }

    /// Live bytes the cleaner copied forward per byte the workload wrote
    /// (same base as [`write_amp`](Self::write_amp)).
    pub fn cleaner_copy_ratio(&self, user_bytes: u64) -> f64 {
        ratio(self.lld_cleaner_bytes_copied, user_bytes)
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_amp_and_copy_ratio_use_workload_bytes_as_base() {
        let disk = DiskStats {
            sectors_written: 24, // 12 KiB on the device
            ..DiskStats::default()
        };
        let lld = LldStats {
            user_bytes_written: 1 << 30, // ignored: includes FS metadata
            cleaner_bytes_copied: 2048,
            ..LldStats::default()
        };
        let c = Counters::of(&disk, &lld, None, (0, 0));
        assert_eq!(c.write_amp(4096), 3.0);
        assert_eq!(c.cleaner_copy_ratio(4096), 0.5);
        assert_eq!(c.write_amp(0), 0.0);
    }

    #[test]
    fn deltas_sum_across_a_reopen() {
        let before = Counters::of(
            &DiskStats {
                sectors_written: 10,
                ..DiskStats::default()
            },
            &LldStats {
                segments_sealed: 3,
                ..LldStats::default()
            },
            None,
            (5, 1),
        );
        let at_crash = Counters::of(
            &DiskStats {
                sectors_written: 30,
                ..DiskStats::default()
            },
            &LldStats {
                segments_sealed: 7,
                ..LldStats::default()
            },
            None,
            (9, 2),
        );
        // The re-opened LLD and file system count from zero; the disk does not.
        let reopened = Counters::of(
            &DiskStats {
                sectors_written: 34,
                ..DiskStats::default()
            },
            &LldStats {
                segments_sealed: 1,
                ..LldStats::default()
            },
            None,
            (2, 0),
        );
        let total = at_crash.since(before).expect("monotone").plus(
            reopened
                .since(Counters::disk(&DiskStats {
                    sectors_written: 30,
                    ..DiskStats::default()
                }))
                .expect("monotone"),
        );
        assert_eq!(total.disk_sectors_written, 24);
        assert_eq!(total.lld_segments_sealed, 5);
        assert_eq!((total.cache_hits, total.cache_misses), (6, 1));
        assert_eq!(before.since(at_crash), None);
    }
}
