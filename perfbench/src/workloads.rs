//! The three workloads. Each is a closed loop — one client, one thread,
//! no think time — whose inputs (names, contents, orders, op mix) come
//! from the seed alone. One call runs one *cycle*: set up a fresh rig,
//! run the measured phases, crash, recover, verify everything, and check
//! the final image with `ldck`.
//!
//! Only the user ops are timed. Content generation and checks, the cache
//! drops between phases and the post-recovery verification run outside
//! the op timers, and their counters and spans are left out.

use std::cell::RefCell;
use std::fmt;
use std::time::{Duration, Instant};

use ld_bench::rig;
use ld_core::{FailureSet, ListHints, LogicalDisk, Pred, PredList};
use lld::{Lld, LldConfig, LldStats};
use minix_fs::{LdStore, MinixFs};
use simdisk::Scheduler;

use crate::counters::Counters;
use crate::gen::{self, Rng, Tag};
use crate::stack::{Device, Mode, SimClock, Store};
use crate::trace::{span, Kind, Profile, Recorder};

/// `smallfile`: files created, read and deleted in one directory.
pub const SMALL_FILES: usize = 10_000;
pub const SMALL_FILE_BYTES: usize = 1 << 10;
/// `largefile`: one file handled in chunks through five phases.
pub const LARGE_FILE_BYTES: u64 = 80 << 20;
pub const CHUNK_BYTES: usize = 8 << 10;
/// `cleaner`: LLD alone on a small disk kept 70 % full.
pub const CLEANER_DISK_BYTES: u64 = 48 << 20;
pub const CLEANER_OPS: usize = 100_000;
const BLOCK_BYTES: usize = 4096;

/// Why a cycle stopped. Any of these fails the run.
#[derive(Debug)]
pub enum Failure {
    /// An operation returned an error.
    Op(String),
    /// A read returned bytes other than the ones written.
    Mismatch(String),
    /// `ldck` found errors on the final image.
    Ldck(String),
    /// A property the benchmark relies on did not hold.
    Check(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Op(m) => write!(f, "failed op: {m}"),
            Failure::Mismatch(m) => write!(f, "content mismatch: {m}"),
            Failure::Ldck(m) => write!(f, "ldck errors: {m}"),
            Failure::Check(m) => write!(f, "check failed: {m}"),
        }
    }
}

pub type Outcome<T> = Result<T, Failure>;

fn failed<E: fmt::Display>(what: &str) -> impl Fn(E) -> Failure + '_ {
    move |e| Failure::Op(format!("{what}: {e}"))
}

/// Everything one cycle measured.
#[derive(Debug, Default)]
pub struct Cycle {
    pub setup_s: f64,
    /// Host and simulated latency of each user op, in op order.
    pub host_ns: Vec<u64>,
    pub sim_us: Vec<u64>,
    /// Payload bytes the measured ops wrote.
    pub user_bytes: u64,
    /// Counter deltas over the measured phases.
    pub counters: Counters,
    /// Host time of the LLD recovery call (`LdStore::mount` / `Lld::open`).
    pub recovery_host_s: f64,
    pub recovery_sim_us: u64,
    pub recovery_summaries: u64,
    /// Host time of timed calls in measured phases that are not user ops
    /// (the recovery mounts).
    pub other_ns: u64,
    pub ldck_s: f64,
    /// Peak resident memory before the final image check.
    pub peak_rss_kb: u64,
    pub resident_bytes: u64,
    /// Span totals over the measured phases (traced cycles only).
    pub profile: Profile,
}

impl Cycle {
    pub fn ops(&self) -> usize {
        self.host_ns.len()
    }

    /// What the simulated clock and counters saw; equal across processes,
    /// cycles and trace modes for a deterministic workload.
    pub fn sim_fingerprint(&self) -> (&[u64], u64, u64, Counters) {
        (
            &self.sim_us,
            self.recovery_sim_us,
            self.user_bytes,
            self.counters,
        )
    }
}

/// Times user ops and collects counters and spans phase by phase.
struct Meter<'a> {
    rec: Option<&'a RefCell<Recorder>>,
    before: Counters,
    c: Cycle,
}

impl<'a> Meter<'a> {
    fn new(rec: Option<&'a RefCell<Recorder>>, setup: Duration) -> Self {
        Self {
            rec,
            before: Counters::default(),
            c: Cycle {
                setup_s: setup.as_secs_f64(),
                ..Cycle::default()
            },
        }
    }

    /// Runs one user op on `target`, recording its host and simulated
    /// latency; an error fails the cycle.
    fn op<T: SimClock, R, E: fmt::Display>(
        &mut self,
        target: &mut T,
        what: &str,
        index: usize,
        f: impl FnOnce(&mut T) -> Result<R, E>,
    ) -> Outcome<R> {
        let s0 = target.sim_us();
        let h0 = Instant::now();
        let r = f(target);
        let host = h0.elapsed();
        self.c.host_ns.push(host.as_nanos() as u64);
        self.c.sim_us.push(target.sim_us() - s0);
        r.map_err(|e| Failure::Op(format!("{what} #{index}: {e}")))
    }

    /// Starts a measured phase: drops spans of the unmeasured work since
    /// the last phase.
    fn begin(&mut self, before: Counters) {
        if let Some(r) = self.rec {
            r.borrow_mut().take();
        }
        self.before = before;
    }

    /// Ends a measured phase: adds its counter deltas and span totals.
    fn end(&mut self, after: Counters) -> Outcome<()> {
        let delta = after
            .since(self.before)
            .ok_or_else(|| Failure::Check("counters went backwards within a phase".into()))?;
        self.c.counters = self.c.counters.plus(delta);
        if let Some(r) = self.rec {
            self.c.profile.add(&Profile::of(&r.borrow_mut().take()));
        }
        Ok(())
    }

    fn recovered(&mut self, sweep: Duration, total: Duration, stats: &LldStats) -> Outcome<()> {
        if stats.recovered_from_checkpoint {
            return Err(Failure::Check(
                "recovery after a crash used a checkpoint, not the sweep".into(),
            ));
        }
        self.c.recovery_host_s = sweep.as_secs_f64();
        self.c.recovery_sim_us = stats.recovery_us;
        self.c.recovery_summaries = stats.recovery_summaries_read;
        self.c.other_ns += total.as_nanos() as u64;
        Ok(())
    }

    /// Records memory use, then checks the final image with `ldck`.
    fn finish<D: Device>(mut self, dev: &D, config: &LldConfig) -> Outcome<Cycle> {
        if let Some(r) = self.rec {
            r.borrow_mut().take();
        }
        self.c.resident_bytes = dev.sim().resident_bytes() as u64;
        self.c.peak_rss_kb = peak_rss_kb()?;
        let image = dev.sim().image_bytes();
        let t0 = Instant::now();
        let report = ldck::check_image(&image, config);
        self.c.ldck_s = t0.elapsed().as_secs_f64();
        if !report.is_clean() {
            let errors: Vec<String> = report.errors().map(|f| f.to_string()).collect();
            return Err(Failure::Ldck(errors.join("; ")));
        }
        Ok(self.c)
    }
}

/// Peak resident set of this process (`VmHWM`), in KiB.
fn peak_rss_kb() -> Outcome<u64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| Failure::Check(format!("cannot read peak RSS: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| Failure::Check("no VmHWM in /proc/self/status".into()))
}

fn snap_fs<S: Store>(fs: &MinixFs<S>) -> Counters {
    let lld = fs.store().ld().lld();
    Counters::of(
        lld.disk().sim().stats(),
        lld.stats(),
        lld.queue_stats(),
        fs.cache_stats(),
    )
}

fn snap_ld<D: Device>(ld: &Lld<D>) -> Counters {
    Counters::of(
        ld.disk().sim().stats(),
        ld.stats(),
        ld.queue_stats(),
        (0, 0),
    )
}

fn verify(
    key: u64,
    want_len: usize,
    got_len: usize,
    buf: &[u8],
    what: impl Fn() -> String,
) -> Outcome<()> {
    if got_len != want_len {
        return Err(Failure::Mismatch(format!(
            "{}: read {got_len} bytes, want {want_len}",
            what()
        )));
    }
    if !gen::matches(key, &buf[..want_len]) {
        return Err(Failure::Mismatch(format!("{}: wrong bytes", what())));
    }
    Ok(())
}

/// Formats the paper rig: LLD with 0.5 MB segments under MINIX with a
/// 6 MB buffer cache on a 400 MB partition (`ld_bench::rig`).
fn format_rig<M: Mode>(mode: &M) -> Outcome<MinixFs<M::Store>> {
    let disk = mode.dev(rig::disk_sized(rig::PARTITION_BYTES));
    let ld = LdStore::format(disk, rig::lld_config()).map_err(failed("LdStore::format"))?;
    MinixFs::format(mode.store(ld), rig::minix_config()).map_err(failed("MinixFs::format"))
}

/// Crashes the stack (all in-memory state is dropped) and recovers it:
/// the LLD sweep over every segment summary, then the MINIX mount.
fn crash_and_recover<M: Mode>(
    mode: &M,
    fs: MinixFs<M::Store>,
    m: &mut Meter,
) -> Outcome<MinixFs<M::Store>> {
    let mut dev = fs.into_store().into_ld().into_disk();
    dev.sim_mut().crash_now();
    dev.sim_mut().revive();
    m.begin(Counters::disk(dev.sim().stats()));
    let h0 = Instant::now();
    let ld = span(m.rec, Kind::StoreMount, || {
        LdStore::mount(dev, rig::lld_config())
    })
    .map_err(failed("LdStore::mount"))?;
    let sweep = h0.elapsed();
    let stats = *ld.lld().stats();
    let fs = span(m.rec, Kind::FsMount, || {
        MinixFs::mount(mode.store(ld), rig::minix_config())
    })
    .map_err(failed("MinixFs::mount"))?;
    m.recovered(sweep, h0.elapsed(), &stats)?;
    m.end(snap_fs(&fs))?;
    Ok(fs)
}

fn file_name(seed: u64, i: usize) -> String {
    format!(
        "/f{i:05}-{:08x}",
        gen::key(seed, Tag::File, i as u64, u64::MAX) as u32
    )
}

/// Table 4's shape: create and write 10,000 1 KB files in one directory
/// and sync; drop caches, read every file back (seeded order); crash and
/// recover; delete every file and sync.
pub fn smallfile<M: Mode>(mode: &M, seed: u64) -> Outcome<Cycle> {
    let rec = mode.rec();
    let names: Vec<String> = (0..SMALL_FILES).map(|i| file_name(seed, i)).collect();
    let read_order = Rng::new(seed, 1).permutation(SMALL_FILES);
    let key = |i: usize| gen::key(seed, Tag::File, i as u64, 0);

    let t0 = Instant::now();
    let mut fs = format_rig(mode)?;
    let mut m = Meter::new(rec, t0.elapsed());
    let mut buf = vec![0u8; SMALL_FILE_BYTES];

    m.begin(snap_fs(&fs));
    for (i, name) in names.iter().enumerate() {
        gen::fill(key(i), &mut buf);
        m.op(&mut fs, "create", i, |fs| {
            let ino = span(rec, Kind::FsCreate, || fs.create(name))?;
            span(rec, Kind::FsWrite, || fs.write(ino, 0, &buf))
        })?;
        m.c.user_bytes += SMALL_FILE_BYTES as u64;
    }
    m.op(&mut fs, "sync", 0, |fs| {
        span(rec, Kind::FsSync, || fs.sync())
    })?;
    m.end(snap_fs(&fs))?;
    fs.drop_caches().map_err(failed("drop_caches"))?;

    m.begin(snap_fs(&fs));
    for &i in &read_order {
        let n = m.op(&mut fs, "read", i, |fs| {
            let ino = span(rec, Kind::FsLookup, || fs.lookup(&names[i]))?;
            span(rec, Kind::FsRead, || fs.read(ino, 0, &mut buf))
        })?;
        verify(key(i), SMALL_FILE_BYTES, n, &buf, || names[i].clone())?;
    }
    m.end(snap_fs(&fs))?;

    let mut fs = crash_and_recover(mode, fs, &mut m)?;
    for (i, name) in names.iter().enumerate() {
        let ino = fs.lookup(name).map_err(failed("lookup after recovery"))?;
        let n = fs
            .read(ino, 0, &mut buf)
            .map_err(failed("read after recovery"))?;
        verify(key(i), SMALL_FILE_BYTES, n, &buf, || {
            format!("{name} after recovery")
        })?;
    }
    fs.drop_caches().map_err(failed("drop_caches"))?;

    m.begin(snap_fs(&fs));
    for (i, name) in names.iter().enumerate() {
        m.op(&mut fs, "unlink", i, |fs| {
            span(rec, Kind::FsUnlink, || fs.unlink(name))
        })?;
    }
    m.op(&mut fs, "sync", 1, |fs| {
        span(rec, Kind::FsSync, || fs.sync())
    })?;
    m.end(snap_fs(&fs))?;
    if fs.lookup(&names[0]).is_ok() {
        return Err(Failure::Check(format!(
            "{} still present after unlink",
            names[0]
        )));
    }
    m.finish(fs.store().ld().disk(), &rig::lld_config())
}

/// Table 5's shape: an 80 MB file (created empty at set-up) in 8 KB
/// chunks — sequential write, sequential read, shuffled rewrite, shuffled
/// read, sequential re-read — then crash and recovery. Chunk contents are
/// keyed by chunk index and generation (0 before the rewrite, 1 after).
pub fn largefile<M: Mode>(mode: &M, seed: u64) -> Outcome<Cycle> {
    let rec = mode.rec();
    let nchunks = (LARGE_FILE_BYTES / CHUNK_BYTES as u64) as usize;
    let name = format!(
        "/big-{:08x}",
        gen::key(seed, Tag::Chunk, u64::MAX, 0) as u32
    );
    let rewrite_order = Rng::new(seed, 2).permutation(nchunks);
    let read_order = Rng::new(seed, 3).permutation(nchunks);
    let key = |i: usize, generation: u64| gen::key(seed, Tag::Chunk, i as u64, generation);
    let offset = |i: usize| (i * CHUNK_BYTES) as u64;

    let t0 = Instant::now();
    let mut fs = format_rig(mode)?;
    let ino = fs.create(&name).map_err(failed("create"))?;
    let mut m = Meter::new(rec, t0.elapsed());
    let mut buf = vec![0u8; CHUNK_BYTES];

    let mut write_phase = |m: &mut Meter,
                           fs: &mut MinixFs<M::Store>,
                           order: &mut dyn Iterator<Item = usize>,
                           generation|
     -> Outcome<()> {
        m.begin(snap_fs(fs));
        for i in order {
            gen::fill(key(i, generation), &mut buf);
            m.op(fs, "write", i, |fs| {
                span(rec, Kind::FsWrite, || fs.write(ino, offset(i), &buf))
            })?;
            m.c.user_bytes += CHUNK_BYTES as u64;
        }
        m.op(fs, "sync", 0, |fs| span(rec, Kind::FsSync, || fs.sync()))?;
        m.end(snap_fs(fs))?;
        fs.drop_caches().map_err(failed("drop_caches"))
    };

    write_phase(&mut m, &mut fs, &mut (0..nchunks), 0)?;
    let mut chunk = vec![0u8; CHUNK_BYTES];
    let mut read_phase = |m: &mut Meter,
                          fs: &mut MinixFs<M::Store>,
                          order: &mut dyn Iterator<Item = usize>,
                          generation|
     -> Outcome<()> {
        m.begin(snap_fs(fs));
        for i in order {
            let n = m.op(fs, "read", i, |fs| {
                span(rec, Kind::FsRead, || fs.read(ino, offset(i), &mut chunk))
            })?;
            verify(key(i, generation), CHUNK_BYTES, n, &chunk, || {
                format!("chunk {i} gen {generation}")
            })?;
        }
        m.end(snap_fs(fs))?;
        fs.drop_caches().map_err(failed("drop_caches"))
    };
    read_phase(&mut m, &mut fs, &mut (0..nchunks), 0)?;
    write_phase(&mut m, &mut fs, &mut rewrite_order.iter().copied(), 1)?;
    read_phase(&mut m, &mut fs, &mut read_order.iter().copied(), 1)?;
    read_phase(&mut m, &mut fs, &mut (0..nchunks), 1)?;

    let mut fs = crash_and_recover(mode, fs, &mut m)?;
    let ino = fs.lookup(&name).map_err(failed("lookup after recovery"))?;
    for i in 0..nchunks {
        let n = fs
            .read(ino, offset(i), &mut chunk)
            .map_err(failed("read after recovery"))?;
        verify(key(i, 1), CHUNK_BYTES, n, &chunk, || {
            format!("chunk {i} after recovery")
        })?;
    }
    m.finish(fs.store().ld().disk(), &rig::lld_config())
}

/// LLD alone under cleaning pressure: 128 KB segments, SATF at queue
/// depth 8 with write-behind, as in the queueing experiment.
pub fn cleaner_config() -> LldConfig {
    LldConfig {
        segment_bytes: 128 << 10,
        queue_depth: 8,
        writeback_depth: 7,
        scheduler: Scheduler::Satf,
        ..rig::lld_config()
    }
}

/// Fill a 48 MB disk to 70 % and flush (set-up), then 100,000 4 KB ops —
/// 3 writes : 1 read, 90 % of them on the hottest 10 % of blocks, every
/// read verified — and a flush; crash, recover, verify every block.
pub fn cleaner<M: Mode>(mode: &M, seed: u64) -> Outcome<Cycle> {
    let rec = mode.rec();
    let config = cleaner_config();
    let key = |i: usize, generation: u64| gen::key(seed, Tag::Block, i as u64, generation);
    let mut buf = vec![0u8; BLOCK_BYTES];

    let t0 = Instant::now();
    let disk = mode.dev(rig::disk_sized(CLEANER_DISK_BYTES));
    let mut ld = Lld::format(disk, config.clone()).map_err(failed("Lld::format"))?;
    let lid = ld
        .new_list(PredList::Start, ListHints::default())
        .map_err(failed("new_list"))?;
    let nblocks = (ld.capacity_bytes() * 7 / 10) as usize / BLOCK_BYTES;
    let mut bids = Vec::with_capacity(nblocks);
    let mut pred = Pred::Start;
    for i in 0..nblocks {
        let b = ld.new_block(lid, pred).map_err(failed("new_block"))?;
        gen::fill(key(i, 0), &mut buf);
        ld.write(b, &buf).map_err(failed("fill"))?;
        bids.push(b);
        pred = Pred::After(b);
    }
    ld.flush(FailureSet::PowerFailure)
        .map_err(failed("flush"))?;
    let mut m = Meter::new(rec, t0.elapsed());

    let mut generation = vec![0u64; nblocks];
    let hot = nblocks / 10;
    let mut r = Rng::new(seed, 4);
    m.begin(snap_ld(&ld));
    for n in 0..CLEANER_OPS {
        let i = if r.chance(9, 10) {
            r.below(hot as u64) as usize
        } else {
            hot + r.below((nblocks - hot) as u64) as usize
        };
        if r.chance(3, 4) {
            generation[i] += 1;
            gen::fill(key(i, generation[i]), &mut buf);
            m.op(&mut ld, "write", n, |ld| {
                span(rec, Kind::LdWrite, || ld.write(bids[i], &buf))
            })?;
            m.c.user_bytes += BLOCK_BYTES as u64;
        } else {
            let got = m.op(&mut ld, "read", n, |ld| {
                span(rec, Kind::LdRead, || ld.read(bids[i], &mut buf))
            })?;
            verify(key(i, generation[i]), BLOCK_BYTES, got, &buf, || {
                format!("block {i}")
            })?;
        }
    }
    m.op(&mut ld, "flush", 0, |ld| {
        span(rec, Kind::LdFlush, || ld.flush(FailureSet::PowerFailure))
    })?;
    m.end(snap_ld(&ld))?;

    let mut dev = ld.into_disk();
    dev.sim_mut().crash_now();
    dev.sim_mut().revive();
    m.begin(Counters::disk(dev.sim().stats()));
    let h0 = Instant::now();
    let mut ld =
        span(rec, Kind::LdOpen, || Lld::open(dev, config.clone())).map_err(failed("Lld::open"))?;
    let took = h0.elapsed();
    let stats = *ld.stats();
    m.recovered(took, took, &stats)?;
    m.end(snap_ld(&ld))?;

    for (i, &b) in bids.iter().enumerate() {
        let got = ld
            .read(b, &mut buf)
            .map_err(failed("read after recovery"))?;
        verify(key(i, generation[i]), BLOCK_BYTES, got, &buf, || {
            format!("block {i} after recovery")
        })?;
    }
    m.finish(ld.disk(), &config)
}
