//! The oracle lap's checks, as a [`Target`] wrapped around the top target:
//!
//! * no two live allocations overlap in virtual address space;
//! * `MemStats` equals the benchmark's own live-byte model at every
//!   iteration boundary, every serving step and at quiescence;
//! * the serving layer's verdicts, refusals and books match the quota model
//!   ([`QuotaModel`]) exactly;
//! * reserved memory returns to zero after teardown and `release_cached`.
//!
//! It also takes the readings that need a look at every call: the peak of
//! live bytes, what the front-end had parked when reserved memory peaked,
//! and what the defrag manager did at each step.

use std::collections::{BTreeMap, HashMap};

use gmlake_alloc_api::{
    AllocError, AllocTag, Allocation, AllocationId, DeviceAllocator, MemStats, StreamId,
};
use gmlake_gpu_sim::CudaDriver;
use gmlake_serving::ServingService;

use crate::inputs::{QuotaModel, Verdict};
use crate::stack::{DefragAction, Target};

/// Violations kept verbatim; the rest are only counted.
const MAX_LISTED: usize = 20;

#[derive(Debug, Default)]
pub struct Findings {
    pub violations: Vec<String>,
    pub violation_count: u64,
    /// Peak of the live-byte model (allocator-rounded sizes).
    pub peak_live_bytes: u64,
    /// Bytes parked above the core (free lists, large banks, pending rings)
    /// when physical memory in use last reached a new maximum.
    pub parked_bytes_at_peak: u64,
    pub defrag_actions: Vec<DefragAction>,
    pub defrag_reclaimed_bytes: u64,
    pub offers_queued: u64,
}

impl Findings {
    fn violation(&mut self, message: impl FnOnce() -> String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_LISTED {
            self.violations.push(message());
        }
    }
}

pub struct Checked<T: Target> {
    pub inner: T,
    driver: CudaDriver,
    device: DeviceAllocator,
    serving: Option<ServingService>,
    /// Live allocations by start address: `va -> (end, id)`.
    by_va: BTreeMap<u64, (u64, AllocationId)>,
    /// `id -> (va, size, registration index of the owner)`.
    by_id: HashMap<AllocationId, (u64, u64, u32)>,
    live_bytes: u64,
    peak_phys: u64,
    model: QuotaModel,
    /// Registration index by offer index.
    reg_of: Vec<u32>,
    pub findings: Findings,
}

impl<T: Target> Checked<T> {
    pub fn new(
        inner: T,
        driver: CudaDriver,
        device: DeviceAllocator,
        serving: Option<ServingService>,
    ) -> Checked<T> {
        Checked {
            inner,
            driver,
            device,
            serving,
            by_va: BTreeMap::new(),
            by_id: HashMap::new(),
            live_bytes: 0,
            peak_phys: 0,
            model: QuotaModel::new(),
            reg_of: Vec::new(),
            findings: Findings::default(),
        }
    }

    fn reg(&self, owner: u32) -> u32 {
        if T::HAS_TENANTS {
            self.reg_of[owner as usize]
        } else {
            0
        }
    }

    fn note_live(&mut self, a: &Allocation, reg: u32) {
        let (start, end) = (a.va.as_u64(), a.va.as_u64() + a.size);
        if let Some((&below, &(below_end, other))) = self.by_va.range(..=start).next_back() {
            if below_end > start {
                self.findings.violation(|| {
                    format!(
                        "{} at {start:#x} overlaps live {other} at {below:#x}..{below_end:#x}",
                        a.id
                    )
                });
            }
        }
        if let Some((&above, &(_, other))) = self.by_va.range(start + 1..).next() {
            if above < end {
                self.findings.violation(|| {
                    format!(
                        "{} at {start:#x}..{end:#x} overlaps live {other} at {above:#x}",
                        a.id
                    )
                });
            }
        }
        self.by_va.insert(start, (end, a.id));
        if self.by_id.insert(a.id, (start, a.size, reg)).is_some() {
            self.findings
                .violation(|| format!("{} handed out twice", a.id));
        }
        self.live_bytes += a.size;
        self.findings.peak_live_bytes = self.findings.peak_live_bytes.max(self.live_bytes);
        let phys = self.driver.phys_in_use();
        if phys > self.peak_phys {
            self.peak_phys = phys;
            let cache = self.device.cache_stats();
            self.findings.parked_bytes_at_peak = cache.cached_bytes + cache.pending_bytes;
        }
    }

    /// `MemStats` against the live-byte model (and the serving books against
    /// the quota model) at a point where nothing is in flight.
    fn reconcile(&mut self, at: &str) {
        let stats = self.inner.mem_stats();
        let (live_bytes, live) = (self.live_bytes, self.by_id.len() as u64);
        if stats.active_bytes != live_bytes {
            self.findings.violation(|| {
                format!(
                    "{at}: active_bytes {} != {live_bytes} live bytes",
                    stats.active_bytes
                )
            });
        }
        if stats.live_allocations() != live {
            self.findings.violation(|| {
                format!(
                    "{at}: {} live allocations in MemStats, {live} handed out",
                    stats.live_allocations()
                )
            });
        }
        let Some(svc) = &self.serving else {
            return;
        };
        let books = (
            svc.used_bytes(),
            svc.committed_bytes(),
            svc.tenant_count() as u64,
        );
        let model = (
            self.model.used(),
            self.model.committed(),
            self.model.registered(),
        );
        if books != model {
            self.findings.violation(|| {
                format!("{at}: serving books (used, committed, tenants) {books:?} != quota model {model:?}")
            });
        }
    }

    /// After teardown: nothing live, the books agree with the model's
    /// totals, and the cache can be released down to zero reserved bytes.
    pub fn quiesce(&mut self) {
        self.reconcile("quiescence");
        if !self.by_id.is_empty() {
            let n = self.by_id.len();
            self.findings
                .violation(|| format!("{n} allocations still live after teardown"));
        }
        if let Some(svc) = &self.serving {
            let adm = svc.admission_stats();
            let got = (
                adm.shed_admits,
                adm.tenants_shed,
                adm.rejected,
                adm.peak_tenants,
            );
            let want = (
                self.model.shed_admits,
                self.model.tenants_shed,
                self.model.rejected,
                self.model.peak_tenants,
            );
            if got != want {
                self.findings.violation(|| {
                    format!("admission totals (shed admits, shed, rejected, peak) {got:?} != quota model {want:?}")
                });
            }
            self.findings.defrag_reclaimed_bytes = svc.defrag_stats().bytes_reclaimed;
        }
        DeviceAllocator::release_cached(&self.device);
        let stats = DeviceAllocator::stats(&self.device);
        let phys = self.driver.phys_in_use();
        if stats.reserved_bytes != 0 || phys != 0 {
            self.findings.violation(|| {
                format!(
                    "after teardown and release_cached {} bytes are reserved and {phys} physical bytes in use",
                    stats.reserved_bytes
                )
            });
        }
    }

    pub fn quota_refusals(&self) -> u64 {
        self.model.refusals
    }
}

impl<T: Target> Target for Checked<T> {
    const HAS_TENANTS: bool = T::HAS_TENANTS;

    fn alloc(
        &mut self,
        owner: u32,
        size: u64,
        stream: StreamId,
        tag: AllocTag,
    ) -> Result<Allocation, AllocError> {
        let reg = self.reg(owner);
        let reserved = !T::HAS_TENANTS || self.model.alloc(reg, size);
        let result = self.inner.alloc(owner, size, stream, tag);
        match &result {
            Ok(a) => {
                if a.size < size {
                    self.findings.violation(|| {
                        format!("{} is {} bytes for a request of {size}", a.id, a.size)
                    });
                }
                if T::HAS_TENANTS && !(reserved && self.model.settle(reg, size, a.size)) {
                    self.findings.violation(|| {
                        format!("tenant {reg}: {size} bytes ({} rounded) admitted, the quota model refuses them", a.size)
                    });
                }
                self.note_live(a, reg);
            }
            // The service reports a rounding overrun with the rounded size
            // it rolled back.
            Err(AllocError::QuotaExceeded { requested, .. }) if T::HAS_TENANTS => {
                if reserved && self.model.settle(reg, size, *requested) {
                    self.model.free(reg, *requested);
                    self.findings.violation(|| {
                        format!("tenant {reg}: {size} bytes refused, the quota model admits them")
                    });
                }
            }
            Err(e) => {
                if T::HAS_TENANTS && reserved {
                    self.model.free(reg, size);
                }
                self.findings
                    .violation(|| format!("unexpected failure of a {size}-byte allocation: {e}"));
            }
        }
        result
    }

    fn free(&mut self, owner: u32, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
        let result = self.inner.free(owner, id, stream);
        match self.by_id.remove(&id) {
            Some((va, size, reg)) if result.is_ok() => {
                self.by_va.remove(&va);
                self.live_bytes -= size;
                if T::HAS_TENANTS {
                    self.model.free(reg, size);
                }
            }
            Some(entry) => {
                self.by_id.insert(id, entry);
                self.findings
                    .violation(|| format!("free of live {id} failed"));
            }
            None => self
                .findings
                .violation(|| format!("free of {id}, which is not live")),
        }
        result
    }

    fn boundary(&mut self) {
        self.inner.boundary();
        self.reconcile("iteration boundary");
    }

    fn step(&mut self) {
        let before = self.serving.as_ref().map(ServingService::defrag_stats);
        self.inner.step();
        self.model.now += 1;
        if let (Some(before), Some(svc)) = (before, &self.serving) {
            self.findings
                .defrag_actions
                .push(DefragAction::between(&before, &svc.defrag_stats()));
        }
        self.reconcile("step");
    }

    fn offer(&mut self, owner: u32, quota: u64) -> Verdict {
        let (expect, reg) = self.model.offer(quota);
        let verdict = self.inner.offer(owner, quota);
        debug_assert_eq!(owner as usize, self.reg_of.len());
        self.reg_of.push(reg.unwrap_or(u32::MAX));
        self.findings.offers_queued += u64::from(verdict == Verdict::Queued);
        if verdict != expect {
            self.findings.violation(|| {
                format!(
                    "offer {owner} of {quota} bytes: {verdict:?}, the quota model says {expect:?}"
                )
            });
        }
        verdict
    }

    fn depart(&mut self, owner: u32) -> Option<u64> {
        self.model.unregister(self.reg(owner));
        self.inner.depart(owner)
    }

    fn mem_stats(&self) -> MemStats {
        self.inner.mem_stats()
    }
}
