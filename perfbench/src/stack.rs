//! The two builds of each stack the workloads run on: plain (no wrappers,
//! for the end-to-end metrics) and traced (every public layer boundary
//! wrapped). Workloads are generic over [`Mode`], so both builds run the
//! same workload code.

use std::cell::RefCell;

use minix_fs::{BlockStore, LdStore, MinixFs};
use simdisk::{BlockDev, SimDisk};

use crate::trace::{Rec, Recorder, TracedDev, TracedStore};

/// The device under LLD.
pub trait Device: BlockDev {
    fn sim(&self) -> &SimDisk;
    fn sim_mut(&mut self) -> &mut SimDisk;
}

impl Device for SimDisk {
    fn sim(&self) -> &SimDisk {
        self
    }
    fn sim_mut(&mut self) -> &mut SimDisk {
        self
    }
}

impl Device for TracedDev<SimDisk> {
    fn sim(&self) -> &SimDisk {
        &self.inner
    }
    fn sim_mut(&mut self) -> &mut SimDisk {
        &mut self.inner
    }
}

/// The store under MINIX.
pub trait Store: BlockStore + Sized {
    type Dev: Device;
    fn ld(&self) -> &LdStore<Self::Dev>;
    fn into_ld(self) -> LdStore<Self::Dev>;
}

impl<D: Device> Store for LdStore<D> {
    type Dev = D;
    fn ld(&self) -> &LdStore<D> {
        self
    }
    fn into_ld(self) -> LdStore<D> {
        self
    }
}

impl<D: Device> Store for TracedStore<LdStore<D>> {
    type Dev = D;
    fn ld(&self) -> &LdStore<D> {
        &self.inner
    }
    fn into_ld(self) -> LdStore<D> {
        self.inner
    }
}

/// How a stack is assembled.
pub trait Mode {
    type Dev: Device;
    type Store: Store<Dev = Self::Dev>;
    fn dev(&self, disk: SimDisk) -> Self::Dev;
    fn store(&self, ld: LdStore<Self::Dev>) -> Self::Store;
    fn rec(&self) -> Option<&RefCell<Recorder>>;
}

/// No wrappers.
pub struct Plain;

impl Mode for Plain {
    type Dev = SimDisk;
    type Store = LdStore<SimDisk>;
    fn dev(&self, disk: SimDisk) -> SimDisk {
        disk
    }
    fn store(&self, ld: LdStore<SimDisk>) -> LdStore<SimDisk> {
        ld
    }
    fn rec(&self) -> Option<&RefCell<Recorder>> {
        None
    }
}

/// Wrappers at the `BlockStore` and `BlockDev` boundaries.
pub struct Traced(pub Rec);

impl Mode for Traced {
    type Dev = TracedDev<SimDisk>;
    type Store = TracedStore<LdStore<TracedDev<SimDisk>>>;
    fn dev(&self, disk: SimDisk) -> Self::Dev {
        TracedDev::new(disk, self.0.clone())
    }
    fn store(&self, ld: LdStore<Self::Dev>) -> Self::Store {
        TracedStore::new(ld, self.0.clone())
    }
    fn rec(&self) -> Option<&RefCell<Recorder>> {
        Some(&self.0)
    }
}

/// Simulated clock of whatever a workload drives.
pub trait SimClock {
    fn sim_us(&self) -> u64;
}

impl<S: BlockStore> SimClock for MinixFs<S> {
    fn sim_us(&self) -> u64 {
        self.now_us()
    }
}

impl<D: BlockDev> SimClock for lld::Lld<D> {
    fn sim_us(&self) -> u64 {
        self.disk().now_us()
    }
}
