//! Host-time spans at the public layer boundaries, recorded from outside
//! the program.
//!
//! The traced run nests two wrappers into the stack — [`TracedStore`]
//! around `LdStore` (the `BlockStore` calls MINIX makes into LLD) and
//! [`TracedDev`] around `SimDisk` (the `BlockDev` calls LLD makes) — and
//! the workloads open a span around every `MinixFs` op and `LogicalDisk`
//! call they make. Spans stay in memory until the cycle ends; a layer's
//! self time is then its spans' durations minus their child spans'.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use minix_fs::{Addr, AllocHint, BlockStore};
use simdisk::{BlockDev, DiskError};

/// A layer of the stack, named after its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    MinixFs,
    Lld,
    Simdisk,
}

pub const LAYERS: [Layer; 3] = [Layer::MinixFs, Layer::Lld, Layer::Simdisk];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::MinixFs => "minix-fs",
            Layer::Lld => "lld",
            Layer::Simdisk => "simdisk",
        }
    }
}

macro_rules! kinds {
    ($($kind:ident => ($layer:ident, $name:literal)),* $(,)?) => {
        /// The call a span covers.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Kind { $($kind),* }

        pub const KINDS: &[Kind] = &[$(Kind::$kind),*];

        impl Kind {
            pub fn layer(self) -> Layer {
                match self { $(Kind::$kind => Layer::$layer),* }
            }

            pub fn name(self) -> &'static str {
                match self { $(Kind::$kind => $name),* }
            }
        }
    };
}

kinds! {
    FsCreate => (MinixFs, "MinixFs::create"),
    FsWrite => (MinixFs, "MinixFs::write"),
    FsRead => (MinixFs, "MinixFs::read"),
    FsLookup => (MinixFs, "MinixFs::lookup"),
    FsUnlink => (MinixFs, "MinixFs::unlink"),
    FsSync => (MinixFs, "MinixFs::sync"),
    FsMount => (MinixFs, "MinixFs::mount"),
    StoreRead => (Lld, "BlockStore::read_block"),
    StoreReadMany => (Lld, "BlockStore::read_blocks"),
    StoreWrite => (Lld, "BlockStore::write_block"),
    StoreAlloc => (Lld, "BlockStore::alloc_block"),
    StoreAllocSized => (Lld, "BlockStore::alloc_sized"),
    StoreFree => (Lld, "BlockStore::free_block"),
    StoreNewGroup => (Lld, "BlockStore::new_group"),
    StoreDeleteGroup => (Lld, "BlockStore::delete_group"),
    StoreSync => (Lld, "BlockStore::sync"),
    StoreMount => (Lld, "LdStore::mount"),
    LdRead => (Lld, "LogicalDisk::read"),
    LdWrite => (Lld, "LogicalDisk::write"),
    LdFlush => (Lld, "LogicalDisk::flush"),
    LdOpen => (Lld, "Lld::open"),
    DevRead => (Simdisk, "BlockDev::read_sectors"),
    DevWrite => (Simdisk, "BlockDev::write_sectors"),
    DevNvramRead => (Simdisk, "BlockDev::nvram_read"),
    DevNvramWrite => (Simdisk, "BlockDev::nvram_write"),
    DevSchedAccess => (Simdisk, "BlockDev::sched_access_us"),
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log for one cycle.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, kind: Kind) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            kind,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: u32) {
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
        self.open.pop();
    }

    /// Hands over the spans recorded so far and starts an empty log.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans still open");
        std::mem::take(&mut self.spans)
    }
}

/// Shared handle the wrappers and workloads record into.
pub type Rec = Rc<RefCell<Recorder>>;

/// Runs `f` inside a span of `kind` when tracing, else just runs it.
#[inline]
pub fn span<R>(rec: Option<&RefCell<Recorder>>, kind: Kind, f: impl FnOnce() -> R) -> R {
    match rec {
        None => f(),
        Some(rec) => {
            let id = rec.borrow_mut().enter(kind);
            let r = f();
            rec.borrow_mut().exit(id);
            r
        }
    }
}

/// Per-kind totals reduced from a span log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-kind and root totals of one span log.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Indexed by `Kind as usize`.
    pub kinds: [KindTotals; KINDS.len()],
    /// Summed duration of spans that have no parent: the traced op time.
    pub root_ns: u64,
}

impl Profile {
    /// Reduces `spans`: each span's self time is its duration minus the
    /// durations of its direct children.
    pub fn of(spans: &[Span]) -> Self {
        let mut kinds = [KindTotals::default(); KINDS.len()];
        let mut child_ns = vec![0u64; spans.len()];
        let mut root_ns = 0;
        for s in spans {
            let d = s.end_ns - s.start_ns;
            if s.parent == NO_PARENT {
                root_ns += d;
            } else {
                child_ns[s.parent as usize] += d;
            }
        }
        for (s, child) in spans.iter().zip(child_ns) {
            let d = s.end_ns - s.start_ns;
            let k = &mut kinds[s.kind as usize];
            k.calls += 1;
            k.total_ns += d;
            k.self_ns += d.saturating_sub(child);
        }
        Self { kinds, root_ns }
    }

    /// Adds another log's totals (an earlier phase of the same cycle).
    pub fn add(&mut self, other: &Profile) {
        for (k, o) in self.kinds.iter_mut().zip(&other.kinds) {
            k.calls += o.calls;
            k.total_ns += o.total_ns;
            k.self_ns += o.self_ns;
        }
        self.root_ns += other.root_ns;
    }

    /// Calls and self time of one layer.
    pub fn layer(&self, layer: Layer) -> KindTotals {
        let mut t = KindTotals::default();
        for (&kind, k) in KINDS.iter().zip(&self.kinds) {
            if kind.layer() == layer {
                t.calls += k.calls;
                t.total_ns += k.total_ns;
                t.self_ns += k.self_ns;
            }
        }
        t
    }
}

/// `BlockDev` wrapper timing every call that touches the simulated
/// medium or computes a scheduling estimate. Every method, defaulted ones
/// included, is forwarded: a missed default would silently change
/// behaviour (no NVRAM, or SATF degrading to FCFS tie-breaking).
#[derive(Debug)]
pub struct TracedDev<D> {
    pub inner: D,
    rec: Rec,
}

impl<D> TracedDev<D> {
    pub fn new(inner: D, rec: Rec) -> Self {
        Self { inner, rec }
    }
}

impl<D: BlockDev> BlockDev for TracedDev<D> {
    fn total_sectors(&self) -> u64 {
        self.inner.total_sectors()
    }
    fn read_sectors(&mut self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        span(Some(&self.rec), Kind::DevRead, || {
            self.inner.read_sectors(sector, buf)
        })
    }
    fn write_sectors(&mut self, sector: u64, data: &[u8]) -> Result<(), DiskError> {
        span(Some(&self.rec), Kind::DevWrite, || {
            self.inner.write_sectors(sector, data)
        })
    }
    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }
    fn advance_us(&mut self, us: u64) {
        self.inner.advance_us(us)
    }
    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }
    fn nvram_bytes(&self) -> usize {
        self.inner.nvram_bytes()
    }
    fn nvram_write(&mut self, offset: usize, data: &[u8]) -> Result<(), DiskError> {
        span(Some(&self.rec), Kind::DevNvramWrite, || {
            self.inner.nvram_write(offset, data)
        })
    }
    fn nvram_read(&mut self, offset: usize, buf: &mut [u8]) -> Result<(), DiskError> {
        span(Some(&self.rec), Kind::DevNvramRead, || {
            self.inner.nvram_read(offset, buf)
        })
    }
    fn sched_cylinder(&self, sector: u64) -> u64 {
        self.inner.sched_cylinder(sector)
    }
    fn sched_head_cylinder(&self) -> u64 {
        self.inner.sched_head_cylinder()
    }
    fn sched_access_us(&self, sector: u64) -> u64 {
        span(Some(&self.rec), Kind::DevSchedAccess, || {
            self.inner.sched_access_us(sector)
        })
    }
}

/// `BlockStore` wrapper timing every call MINIX makes into the store.
#[derive(Debug)]
pub struct TracedStore<S> {
    pub inner: S,
    rec: Rec,
}

impl<S> TracedStore<S> {
    pub fn new(inner: S, rec: Rec) -> Self {
        Self { inner, rec }
    }
}

type FsResult<T> = minix_fs::Result<T>;

impl<S: BlockStore> BlockStore for TracedStore<S> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn superblock_addr(&self) -> Addr {
        self.inner.superblock_addr()
    }
    fn read_block(&mut self, addr: Addr, buf: &mut [u8]) -> FsResult<usize> {
        span(Some(&self.rec), Kind::StoreRead, || {
            self.inner.read_block(addr, buf)
        })
    }
    fn write_block(&mut self, addr: Addr, data: &[u8]) -> FsResult<()> {
        span(Some(&self.rec), Kind::StoreWrite, || {
            self.inner.write_block(addr, data)
        })
    }
    fn read_blocks(&mut self, addrs: &[Addr]) -> FsResult<Vec<Vec<u8>>> {
        span(Some(&self.rec), Kind::StoreReadMany, || {
            self.inner.read_blocks(addrs)
        })
    }
    fn alloc_block(&mut self, hint: &AllocHint) -> FsResult<Addr> {
        span(Some(&self.rec), Kind::StoreAlloc, || {
            self.inner.alloc_block(hint)
        })
    }
    fn alloc_sized(&mut self, hint: &AllocHint, size: usize) -> FsResult<Addr> {
        span(Some(&self.rec), Kind::StoreAllocSized, || {
            self.inner.alloc_sized(hint, size)
        })
    }
    fn free_block(&mut self, addr: Addr, hint: &AllocHint) -> FsResult<()> {
        span(Some(&self.rec), Kind::StoreFree, || {
            self.inner.free_block(addr, hint)
        })
    }
    fn new_group(&mut self, near: Option<u64>) -> FsResult<u64> {
        span(Some(&self.rec), Kind::StoreNewGroup, || {
            self.inner.new_group(near)
        })
    }
    fn delete_group(&mut self, group: u64) -> FsResult<()> {
        span(Some(&self.rec), Kind::StoreDeleteGroup, || {
            self.inner.delete_group(group)
        })
    }
    fn sync(&mut self) -> FsResult<()> {
        span(Some(&self.rec), Kind::StoreSync, || self.inner.sync())
    }
    fn supports_readahead(&self) -> bool {
        self.inner.supports_readahead()
    }
    fn supports_small_blocks(&self) -> bool {
        self.inner.supports_small_blocks()
    }
    fn free_blocks(&self) -> u64 {
        self.inner.free_blocks()
    }
    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }
    fn advance_us(&mut self, us: u64) {
        self.inner.advance_us(us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(kind: Kind, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // FsWrite [0,100) ⊃ StoreWrite [10,60) ⊃ DevWrite [20,50);
        //                 ⊃ StoreSync  [70,90) ⊃ DevWrite [75,85).
        // Then a root LdRead [200,230) with no children.
        let spans = [
            s(Kind::FsWrite, NO_PARENT, 0, 100),
            s(Kind::StoreWrite, 0, 10, 60),
            s(Kind::DevWrite, 1, 20, 50),
            s(Kind::StoreSync, 0, 70, 90),
            s(Kind::DevWrite, 3, 75, 85),
            s(Kind::LdRead, NO_PARENT, 200, 230),
        ];
        let p = Profile::of(&spans);
        assert_eq!(p.root_ns, 130);
        let fs = p.layer(Layer::MinixFs);
        let lld = p.layer(Layer::Lld);
        let disk = p.layer(Layer::Simdisk);
        assert_eq!((fs.calls, fs.self_ns, fs.total_ns), (1, 30, 100));
        assert_eq!((lld.calls, lld.self_ns), (3, 20 + 10 + 30));
        assert_eq!((disk.calls, disk.self_ns, disk.total_ns), (2, 40, 40));
        // The layers' self times partition the root (traced op) time.
        assert_eq!(fs.self_ns + lld.self_ns + disk.self_ns, p.root_ns);
    }

    #[test]
    fn recorder_nests_spans_by_call_structure() {
        let rec: Rec = Rc::default();
        span(Some(&rec), Kind::FsSync, || {
            span(Some(&rec), Kind::StoreSync, || {
                span(Some(&rec), Kind::DevWrite, || ())
            })
        });
        let spans = rec.borrow_mut().take();
        let parents: Vec<u32> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 1]);
        let p = Profile::of(&spans);
        let sum: u64 = LAYERS.iter().map(|&l| p.layer(l).self_ns).sum();
        assert_eq!(sum, p.root_ns);
    }

    #[test]
    fn traced_dev_forwards_scheduling_hints_and_nvram() {
        let rec: Rec = Rc::default();
        let mut plain = simdisk::SimDisk::hp_c3010_with_capacity(8 << 20).with_nvram(4096);
        let mut traced = TracedDev::new(
            simdisk::SimDisk::hp_c3010_with_capacity(8 << 20).with_nvram(4096),
            rec,
        );
        let data = vec![7u8; 512];
        plain.write_sectors(100, &data).expect("write");
        traced.write_sectors(100, &data).expect("write");
        for sector in [0, 5_000, 12_000] {
            assert_eq!(plain.sched_cylinder(sector), traced.sched_cylinder(sector));
            assert_eq!(
                plain.sched_access_us(sector),
                traced.sched_access_us(sector)
            );
        }
        assert_eq!(plain.sched_head_cylinder(), traced.sched_head_cylinder());
        assert_ne!(
            traced.sched_cylinder(12_000),
            0,
            "hint must not be defaulted"
        );
        assert_eq!(traced.nvram_bytes(), 4096);
        traced.nvram_write(8, &data[..16]).expect("nvram write");
        let mut back = [0u8; 16];
        traced.nvram_read(8, &mut back).expect("nvram read");
        assert_eq!(back, [7u8; 16]);
    }
}
