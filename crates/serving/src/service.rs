//! The multi-tenant serving front-end over one pool: quota-bracketed
//! allocation, admission control, idle-tenant eviction on OOM, the defrag
//! pass run at each large free, and the step that retries queued arrivals
//! and compacts the pool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use gmlake_alloc_api::{
    AllocError, AllocRequest, Allocation, AllocationId, StreamId, SMALL_THRESHOLD,
};
use gmlake_runtime::PoolHandle;
use gmlake_telemetry::EventKind;

use crate::admission::{
    AdmissionController, AdmissionPolicy, AdmissionStats, AdmissionVerdict, QueuedArrival,
};
use crate::tenant::{ChargeError, TenantId, TenantRegistry, TenantUsage};

/// Sentinel tenant id in [`EventKind::TenantAdmission`] records for
/// verdicts that never produced a tenant (rejected, queued, timed out).
const NO_TENANT: u64 = u64::MAX;

/// Configuration of a [`ServingService`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Physical capacity of the device the pool serves, in bytes (the
    /// pool API does not expose it, so the owner states it here).
    pub capacity_bytes: u64,
    /// Committed-quota ceiling as a multiple of `capacity_bytes`. `1.0`
    /// never overcommits; serving fleets typically run above it because
    /// tenants rarely peak together.
    pub overcommit: f64,
    /// What happens to arrivals past the ceiling.
    pub policy: AdmissionPolicy,
    /// Steps without allocation activity after which a tenant counts as
    /// idle — eligible for OOM eviction and the shed policy (clamped
    /// to at least 1 so a tenant mid-allocation is never idle).
    pub idle_after_steps: u64,
    /// Logical GPU streams to spread tenants across round-robin. Should
    /// not exceed the pool front-end's stream banks (extra streams
    /// degrade to cross-stream traffic, not errors).
    pub streams: u64,
}

impl ServingConfig {
    /// A config for a device of `capacity_bytes` with no overcommit, the
    /// [`AdmissionPolicy::Reject`] policy, 4 streams and an 8-step idle
    /// horizon.
    pub fn new(capacity_bytes: u64) -> Self {
        ServingConfig {
            capacity_bytes,
            overcommit: 1.0,
            policy: AdmissionPolicy::Reject,
            idle_after_steps: 8,
            streams: 4,
        }
    }

    /// Sets the overcommit factor.
    #[must_use]
    pub fn with_overcommit(mut self, overcommit: f64) -> Self {
        self.overcommit = overcommit;
        self
    }

    /// Sets the admission policy.
    #[must_use]
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the idle horizon in steps.
    #[must_use]
    pub fn with_idle_after(mut self, steps: u64) -> Self {
        self.idle_after_steps = steps;
        self
    }

    /// Sets the stream fan-out.
    #[must_use]
    pub fn with_streams(mut self, streams: u64) -> Self {
        self.streams = streams;
        self
    }

    /// The committed-quota ceiling in bytes.
    pub fn limit_bytes(&self) -> u64 {
        (self.capacity_bytes as f64 * self.overcommit) as u64
    }
}

/// What one [`ServingService::step`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepOutcome {
    /// The step number just completed (1-based).
    pub step: u64,
    /// Queued arrivals admitted this step.
    pub dequeued: u64,
    /// Queued arrivals that timed out this step.
    pub timed_out: u64,
    /// Bytes this step's own defrag pass gave back to the driver.
    pub defrag_reclaimed: u64,
}

/// Cumulative OOM-eviction counters of one service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Idle tenants whose working sets an OOM eviction dropped.
    pub tenants_evicted: u64,
    /// Bytes those evictions released.
    pub bytes_evicted: u64,
    /// Live allocations those evictions dropped.
    pub allocs_evicted: u64,
}

/// Cumulative counters of the defrag pass that every
/// [`ServingService::step`] runs, and every large [`ServingService::free`]
/// and [`ServingService::depart`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefragStats {
    /// Always 0: the one kind of pass counts in `aggressive_passes`. Kept
    /// because the benchmark package still reads it.
    pub periodic_passes: u64,
    /// Passes run (`process_events` + `compact`): one per step, and one
    /// per large free or departure.
    pub aggressive_passes: u64,
    /// Physical bytes the passes gave back to the driver.
    pub bytes_reclaimed: u64,
}

#[derive(Debug)]
struct ServingInner {
    pool: PoolHandle,
    cfg: ServingConfig,
    registry: TenantRegistry,
    admission: Mutex<AdmissionController>,
    /// Completed service steps (see [`ServingService::step`]).
    step: AtomicU64,
    defrag: Mutex<DefragStats>,
    evictions: Mutex<ServingStats>,
}

/// A multi-tenant serving front-end over one [`PoolHandle`].
///
/// Hundreds of concurrent jobs (tenants) share a device's pool; the
/// service keeps them honest and keeps them apart:
///
/// * **quotas** — every allocation is bracketed by an exact two-phase
///   byte-quota charge; a tenant over budget gets the recoverable
///   [`AllocError::QuotaExceeded`], never a device-level OOM that would
///   punish its neighbours;
/// * **admission** — arrivals commit their quota against
///   `capacity × overcommit`; past the ceiling they are rejected, queued
///   (bounded wait), or admitted by shedding idle tenants
///   ([`AdmissionPolicy`]);
/// * **eviction** — a real OOM first drops *idle* tenants' working sets
///   (oldest-idle first) and retries once, before the failure can reach
///   an active tenant;
/// * **defrag** — a free of a block at or above [`SMALL_THRESHOLD`], a
///   departure that frees one, and every step retire the pool's completed
///   event stamps and compact it: over GMLake the freed stitched views go
///   at once, their parts merge with idle neighbours, idle reservations
///   smaller than the mean request served go back to the driver, and the
///   rest of the physical memory stays for the next request.
///
/// Cloning is cheap and shares the service. All methods take `&self`.
///
/// ```
/// use gmlake_alloc_api::mib;
/// use gmlake_caching::CachingAllocator;
/// use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
/// use gmlake_runtime::{DeviceId, PoolService};
/// use gmlake_serving::{ServingConfig, ServingService};
///
/// let service = PoolService::new();
/// let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
/// let pool = service.register(DeviceId(0), Box::new(CachingAllocator::new(driver)))?;
/// let serving = ServingService::new(pool, ServingConfig::new(mib(256)));
///
/// let tenant = serving.offer(mib(16)).tenant().expect("fits");
/// let a = serving.alloc(tenant, mib(4))?;
/// assert_eq!(serving.usage(tenant).unwrap().used_bytes, a.size);
/// serving.free(tenant, a.id)?;
/// serving.depart(tenant);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ServingService {
    inner: Arc<ServingInner>,
}

impl ServingService {
    /// Builds a serving front-end over `pool`.
    pub fn new(pool: PoolHandle, cfg: ServingConfig) -> Self {
        let inner = Arc::new(ServingInner {
            registry: TenantRegistry::new(cfg.streams),
            admission: Mutex::new(AdmissionController::new(cfg.limit_bytes(), cfg.policy)),
            step: AtomicU64::new(0),
            defrag: Mutex::new(DefragStats::default()),
            evictions: Mutex::new(ServingStats::default()),
            pool,
            cfg,
        });
        ServingService { inner }
    }

    /// The pool this service fronts.
    pub fn pool(&self) -> &PoolHandle {
        &self.inner.pool
    }

    /// Offers a tenant arrival committing `quota_bytes`. Fits are
    /// admitted immediately; past the ceiling the configured
    /// [`AdmissionPolicy`] decides (see [`AdmissionVerdict`]). Queued
    /// arrivals are retried by [`ServingService::step`].
    pub fn offer(&self, quota_bytes: u64) -> AdmissionVerdict {
        let inner = &self.inner;
        let now = inner.step.load(Ordering::Relaxed);
        let mut adm = inner.admission.lock();
        if adm.fits(inner.registry.committed_bytes(), quota_bytes) {
            let id = inner.admit(&mut adm, quota_bytes, now, 0);
            return AdmissionVerdict::Admitted(id);
        }
        match adm.policy {
            AdmissionPolicy::Reject => {
                adm.stats.rejected += 1;
                inner.emit(EventKind::TenantAdmission, quota_bytes, NO_TENANT, 1);
                AdmissionVerdict::Rejected
            }
            AdmissionPolicy::Queue { .. } => {
                adm.queue.push_back(QueuedArrival {
                    quota_bytes,
                    queued_at: now,
                });
                adm.stats.queued += 1;
                inner.emit(EventKind::TenantAdmission, quota_bytes, NO_TENANT, 2);
                AdmissionVerdict::Queued
            }
            AdmissionPolicy::Shed => {
                inner.shed_until_fits(&mut adm, quota_bytes, now);
                if adm.fits(inner.registry.committed_bytes(), quota_bytes) {
                    let id = inner.admit(&mut adm, quota_bytes, now, 3);
                    adm.stats.shed_admits += 1;
                    AdmissionVerdict::AdmittedAfterShed(id)
                } else {
                    adm.stats.rejected += 1;
                    inner.emit(EventKind::TenantAdmission, quota_bytes, NO_TENANT, 1);
                    AdmissionVerdict::Rejected
                }
            }
        }
    }

    /// Allocates `bytes` for `tenant` on the tenant's stream, bracketed
    /// by the exact two-phase quota charge.
    ///
    /// # Errors
    ///
    /// [`AllocError::QuotaExceeded`] — with exact requested/used/quota
    /// numbers — when the charge fails, *before* the device is consulted
    /// (or, for size-class rounding overruns, after an immediate
    /// rollback of the allocation, with `requested` set to the rounded
    /// size the allocator actually needed). An out-of-memory failure
    /// evicts idle tenants' working sets and retries once; what still
    /// fails, and every other pool error, passes through. A reservation
    /// is never leaked.
    pub fn alloc(&self, tenant: TenantId, bytes: u64) -> Result<Allocation, AllocError> {
        let inner = &self.inner;
        let now = inner.step.load(Ordering::Relaxed);
        let stream = match inner.registry.try_reserve(tenant, bytes, now) {
            Ok(stream) => stream,
            Err(e) => return Err(charge_error(tenant, bytes, e)),
        };
        let req = AllocRequest::new(bytes);
        let a = match inner.pool.alloc_on_stream(req, stream) {
            Err(AllocError::OutOfMemory { .. }) if inner.flush_idle(bytes) > 0 => {
                inner.pool.alloc_on_stream(req, stream)
            }
            other => other,
        };
        let a = match a {
            Ok(a) => a,
            Err(e) => {
                inner.registry.unreserve(tenant, bytes);
                return Err(e);
            }
        };
        match inner.registry.settle(tenant, a.id, bytes, a.size) {
            Ok(()) => Ok(a),
            Err(e) => {
                // Rounding pushed the tenant past its quota (or it departed
                // mid-flight): roll the allocation back before reporting.
                inner.pool.free_on_stream(a.id, stream)?;
                Err(charge_error(tenant, a.size, e))
            }
        }
    }

    /// Frees `id` for `tenant` from the tenant's own stream. A block at or
    /// above [`SMALL_THRESHOLD`] is then defragmented at once: the pass
    /// [`ServingService::step`] runs (`process_events`, then `compact`)
    /// runs here too, so the next request meets its bytes merged instead
    /// of pinned under a view that the next step would tear down.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownAllocation`] when `id` is not live for
    /// `tenant` (never allocated, double-freed, or dropped by an OOM
    /// eviction).
    pub fn free(&self, tenant: TenantId, id: AllocationId) -> Result<(), AllocError> {
        self.inner.free(tenant, id, None)
    }

    /// Frees `id` for `tenant`, with the free issued from `stream` (a
    /// cross-stream free goes to the pool's core, told the stream, see
    /// [`DeviceAllocator::free_on_stream`]). Quota credit is immediate —
    /// the bytes are logically the tenant's no longer, even while the
    /// freeing stream's work still holds the block. A free from the
    /// tenant's own stream defragments as [`ServingService::free`] does; a
    /// cross-stream one leaves it to the next step, because the block's
    /// fresh event would make a pass now wait for it on the host.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownAllocation`] as for [`ServingService::free`].
    ///
    /// [`DeviceAllocator::free_on_stream`]: gmlake_alloc_api::DeviceAllocator::free_on_stream
    pub fn free_from(
        &self,
        tenant: TenantId,
        id: AllocationId,
        stream: StreamId,
    ) -> Result<(), AllocError> {
        self.inner.free(tenant, id, Some(stream))
    }

    /// Departs `tenant`: frees its remaining live allocations and releases
    /// its quota commitment. Returns the bytes released, or `None` for an
    /// unknown tenant. If any of those blocks was at or above
    /// [`SMALL_THRESHOLD`], one defrag pass runs after the last free, as
    /// for [`ServingService::free`].
    pub fn depart(&self, tenant: TenantId) -> Option<u64> {
        let inner = &self.inner;
        let (live, stream) = inner.registry.remove(tenant)?;
        let mut released = 0;
        let mut large = false;
        for (id, size) in live {
            if inner.pool.free_on_stream(id, stream).is_ok() {
                released += size;
                large |= size >= SMALL_THRESHOLD;
            }
        }
        if large {
            inner.defrag();
        }
        inner.emit(EventKind::TenantChurn, released, tenant.0, 0);
        Some(released)
    }

    /// Advances the service by one step: retries queued arrivals (FIFO,
    /// admitting while capacity allows), expires overdue ones, then runs
    /// the defrag pass: `process_events` (retiring completed event
    /// stamps, so `compact` sees those blocks unguarded) and `compact`.
    /// The large frees since the last step ran the same pass already; the
    /// step's own catches what they left: small frees, cross-stream frees
    /// and stamps retired since.
    pub fn step(&self) -> StepOutcome {
        let inner = &self.inner;
        let step = inner.step.fetch_add(1, Ordering::Relaxed) + 1;
        let mut outcome = StepOutcome {
            step,
            ..StepOutcome::default()
        };
        let mut adm = inner.admission.lock();
        while let Some(front) = adm.queue.front().copied() {
            if !adm.fits(inner.registry.committed_bytes(), front.quota_bytes) {
                break;
            }
            adm.queue.pop_front();
            inner.admit(&mut adm, front.quota_bytes, step, 0);
            outcome.dequeued += 1;
        }
        if let AdmissionPolicy::Queue { max_wait_steps } = adm.policy {
            for expired in adm.expire(step, max_wait_steps) {
                inner.emit(
                    EventKind::TenantAdmission,
                    expired.quota_bytes,
                    NO_TENANT,
                    4,
                );
                outcome.timed_out += 1;
            }
        }
        // The pass holds no serving lock (see `ServingInner::defrag`).
        drop(adm);
        outcome.defrag_reclaimed = inner.defrag();
        outcome
    }

    /// Completed steps.
    pub fn steps(&self) -> u64 {
        self.inner.step.load(Ordering::Relaxed)
    }

    /// Usage snapshot of one tenant.
    pub fn usage(&self, tenant: TenantId) -> Option<TenantUsage> {
        self.inner.registry.usage(tenant)
    }

    /// Usage snapshots of every registered tenant, ascending by id.
    pub fn usages(&self) -> Vec<(TenantId, TenantUsage)> {
        self.inner.registry.usages()
    }

    /// Registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.inner.registry.len()
    }

    /// Sum of registered quotas.
    pub fn committed_bytes(&self) -> u64 {
        self.inner.registry.committed_bytes()
    }

    /// Sum of live bytes across every tenant — reconciles with the
    /// pool's `MemStats::active_bytes` at quiescence.
    pub fn used_bytes(&self) -> u64 {
        self.inner.registry.used_bytes()
    }

    /// Admission-control counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.inner.admission.lock().stats
    }

    /// Arrivals currently waiting in the admission queue.
    pub fn queue_len(&self) -> usize {
        self.inner.admission.lock().queue.len()
    }

    /// Counters of the service's defrag passes.
    pub fn defrag_stats(&self) -> DefragStats {
        *self.inner.defrag.lock()
    }

    /// OOM-eviction counters.
    pub fn serving_stats(&self) -> ServingStats {
        *self.inner.evictions.lock()
    }
}

impl ServingInner {
    /// The free rules of [`ServingService::free`] (`from` is `None`) and
    /// [`ServingService::free_from`].
    fn free(
        &self,
        tenant: TenantId,
        id: AllocationId,
        from: Option<StreamId>,
    ) -> Result<(), AllocError> {
        let (size, own) = self
            .registry
            .credit(tenant, id)
            .ok_or(AllocError::UnknownAllocation(id))?;
        let stream = from.unwrap_or(own);
        self.pool.free_on_stream(id, stream)?;
        if stream == own && size >= SMALL_THRESHOLD {
            self.defrag();
        }
        Ok(())
    }

    /// One defrag pass: `process_events`, then `compact`, counted. Runs
    /// with no serving lock held, so it cannot deadlock against the pool's
    /// own locks. Returns the bytes it gave back to the driver.
    fn defrag(&self) -> u64 {
        self.pool.process_events();
        let bytes = self.pool.compact();
        let mut defrag = self.defrag.lock();
        defrag.aggressive_passes += 1;
        defrag.bytes_reclaimed += bytes;
        bytes
    }

    /// Registers a tenant (capacity already checked), updating stats and
    /// telemetry. `verdict` is the admission event code (0 or 3).
    fn admit(
        &self,
        adm: &mut AdmissionController,
        quota_bytes: u64,
        now: u64,
        verdict: u64,
    ) -> TenantId {
        let (id, _) = self.registry.register(quota_bytes, now);
        adm.stats.admitted += 1;
        adm.stats.peak_tenants = adm.stats.peak_tenants.max(self.registry.len() as u64);
        self.emit(EventKind::TenantAdmission, quota_bytes, id.0, verdict);
        self.emit(EventKind::TenantChurn, quota_bytes, id.0, 1);
        id
    }

    /// The shed policy's hammer: departs idle tenants (oldest-idle first)
    /// until `quota_bytes` fits or no idle tenant remains.
    fn shed_until_fits(&self, adm: &mut AdmissionController, quota_bytes: u64, now: u64) {
        for tenant in self
            .registry
            .idle_tenants(now, self.cfg.idle_after_steps.max(1))
        {
            if adm.fits(self.registry.committed_bytes(), quota_bytes) {
                return;
            }
            let Some((live, stream)) = self.registry.remove(tenant) else {
                continue;
            };
            let mut released = 0;
            let dropped = live.len() as u64;
            for (id, size) in live {
                if self.pool.free_on_stream(id, stream).is_ok() {
                    released += size;
                }
            }
            adm.stats.tenants_shed += 1;
            self.emit(EventKind::TenantEvict, released, tenant.0, dropped);
            self.emit(EventKind::TenantChurn, released, tenant.0, 0);
        }
    }

    /// The OOM eviction: drops idle tenants' working sets (oldest-idle
    /// first, active tenants untouched) until `needed` bytes are credited
    /// back, then retires the core's completed event stamps so the retried
    /// allocation reaches the freed blocks without a wait. Unlike the shed
    /// policy this keeps the tenants registered — their quota commitment
    /// survives, only their (rebuildable) working set is gone.
    fn flush_idle(&self, needed: u64) -> u64 {
        let now = self.step.load(Ordering::Relaxed);
        let mut reclaimed = 0;
        for tenant in self
            .registry
            .idle_tenants(now, self.cfg.idle_after_steps.max(1))
        {
            if reclaimed >= needed {
                break;
            }
            let Some((live, stream)) = self.registry.drop_live(tenant) else {
                continue;
            };
            if live.is_empty() {
                continue;
            }
            let mut released = 0;
            let dropped = live.len() as u64;
            for (id, size) in live {
                if self.pool.free_on_stream(id, stream).is_ok() {
                    released += size;
                }
            }
            let mut ev = self.evictions.lock();
            ev.tenants_evicted += 1;
            ev.bytes_evicted += released;
            ev.allocs_evicted += dropped;
            drop(ev);
            self.emit(EventKind::TenantEvict, released, tenant.0, dropped);
            reclaimed += released;
        }
        if reclaimed > 0 {
            self.pool.process_events();
        }
        reclaimed
    }

    fn emit(&self, kind: EventKind, bytes: u64, a: u64, b: u64) {
        if let Some(tel) = self.pool.allocator().telemetry() {
            if tel.is_enabled() {
                tel.record(kind, bytes, a, b);
            }
        }
    }
}

/// Maps a registry charge refusal to the public error type.
fn charge_error(tenant: TenantId, requested: u64, e: ChargeError) -> AllocError {
    match e {
        ChargeError::UnknownTenant => {
            AllocError::InvalidConfig(format!("unknown or departed {tenant}"))
        }
        ChargeError::OverQuota { used, quota } => AllocError::QuotaExceeded {
            tenant: tenant.0,
            requested,
            used,
            quota,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlake_alloc_api::mib;
    use gmlake_caching::CachingAllocator;
    use gmlake_core::{GmLakeAllocator, GmLakeConfig};
    use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
    use gmlake_runtime::{DeviceId, PoolService};

    fn serving_over(cfg: ServingConfig) -> (ServingService, CudaDriver) {
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let pool = PoolService::new()
            .register(
                DeviceId(0),
                Box::new(GmLakeAllocator::new(
                    driver.clone(),
                    GmLakeConfig::default().with_frag_limit(mib(2)),
                )),
            )
            .unwrap();
        (ServingService::new(pool, cfg), driver)
    }

    #[test]
    fn quota_is_enforced_exactly_without_touching_the_device() {
        let (serving, driver) = serving_over(ServingConfig::new(mib(256)));
        let t = serving.offer(mib(10)).tenant().unwrap();
        let a = serving.alloc(t, mib(8)).unwrap();
        assert_eq!(a.size, mib(8));
        let calls_before = driver.stats();
        let err = serving.alloc(t, mib(4)).unwrap_err();
        assert_eq!(
            err,
            AllocError::QuotaExceeded {
                tenant: t.0,
                requested: mib(4),
                used: mib(8),
                quota: mib(10),
            }
        );
        assert_eq!(
            driver.stats(),
            calls_before,
            "refused before the device was consulted"
        );
        assert_eq!(serving.pool().stats().oom_count, 0);
        serving.free(t, a.id).unwrap();
        let b = serving.alloc(t, mib(10)).unwrap();
        assert_eq!(serving.usage(t).unwrap().used_bytes, mib(10), "exact fill");
        serving.free(t, b.id).unwrap();
    }

    #[test]
    fn rounding_overrun_is_rolled_back_and_reported_exactly() {
        // Quota of 1000 bytes: the 1000-byte request passes the reserve
        // phase but the small-path size class rounds it to 1024, past the
        // quota — the allocation must be rolled back, not kept.
        let (serving, _) = serving_over(ServingConfig::new(mib(256)));
        let t = serving.offer(1000).tenant().unwrap();
        let err = serving.alloc(t, 1000).unwrap_err();
        assert_eq!(
            err,
            AllocError::QuotaExceeded {
                tenant: t.0,
                requested: 1024,
                used: 0,
                quota: 1000,
            }
        );
        assert_eq!(serving.usage(t).unwrap().used_bytes, 0, "nothing leaked");
        assert_eq!(serving.pool().stats().active_bytes, 0, "rolled back");
    }

    #[test]
    fn double_free_and_foreign_free_are_refused() {
        let (serving, _) = serving_over(ServingConfig::new(mib(256)));
        let t1 = serving.offer(mib(8)).tenant().unwrap();
        let t2 = serving.offer(mib(8)).tenant().unwrap();
        let a = serving.alloc(t1, mib(4)).unwrap();
        assert_eq!(
            serving.free(t2, a.id).unwrap_err(),
            AllocError::UnknownAllocation(a.id),
            "a tenant cannot free another tenant's allocation"
        );
        serving.free(t1, a.id).unwrap();
        assert_eq!(
            serving.free(t1, a.id).unwrap_err(),
            AllocError::UnknownAllocation(a.id)
        );
    }

    #[test]
    fn reject_policy_refuses_past_the_ceiling() {
        let (serving, _) = serving_over(ServingConfig::new(mib(256)));
        assert!(serving.offer(mib(200)).tenant().is_some());
        assert_eq!(serving.offer(mib(100)), AdmissionVerdict::Rejected);
        assert!(serving.offer(mib(56)).tenant().is_some(), "exact fit");
        let s = serving.admission_stats();
        assert_eq!((s.admitted, s.rejected), (2, 1));
        assert_eq!(s.peak_tenants, 2);
    }

    #[test]
    fn overcommit_raises_the_ceiling() {
        let (serving, _) = serving_over(ServingConfig::new(mib(256)).with_overcommit(2.0));
        assert!(serving.offer(mib(300)).tenant().is_some());
        assert!(serving.offer(mib(212)).tenant().is_some());
        assert_eq!(serving.offer(mib(1)), AdmissionVerdict::Rejected);
        assert_eq!(serving.committed_bytes(), mib(512));
    }

    #[test]
    fn queue_policy_admits_when_capacity_frees_and_times_out() {
        let (serving, _) = serving_over(
            ServingConfig::new(mib(256)).with_policy(AdmissionPolicy::Queue { max_wait_steps: 2 }),
        );
        let t = serving.offer(mib(200)).tenant().unwrap();
        assert_eq!(serving.offer(mib(100)), AdmissionVerdict::Queued);
        assert_eq!(serving.offer(mib(120)), AdmissionVerdict::Queued);
        assert_eq!(serving.queue_len(), 2);
        // Nothing freed: the queue just waits.
        assert_eq!(serving.step().dequeued, 0);
        serving.depart(t);
        // FIFO: the 100 MiB arrival goes first, and 120 MiB then also fits.
        let out = serving.step();
        assert_eq!(out.dequeued, 2);
        assert_eq!(serving.tenant_count(), 2);
        // A fresh arrival overflows again and eventually times out.
        assert_eq!(serving.offer(mib(100)), AdmissionVerdict::Queued);
        let waited: u64 = (0..4).map(|_| serving.step().timed_out).sum();
        assert_eq!(waited, 1, "timed out after max_wait_steps");
        let s = serving.admission_stats();
        assert_eq!(s.queue_timeouts, 1);
        assert_eq!(s.queued, 3);
    }

    #[test]
    fn shed_policy_evicts_only_idle_tenants() {
        let (serving, _) = serving_over(
            ServingConfig::new(mib(256))
                .with_policy(AdmissionPolicy::Shed)
                .with_idle_after(2),
        );
        let idle = serving.offer(mib(150)).tenant().unwrap();
        let active = serving.offer(mib(60)).tenant().unwrap();
        let held = serving.alloc(idle, mib(20)).unwrap();
        // Advance past the idle horizon, keeping only `active` active.
        for _ in 0..3 {
            serving.step();
            let a = serving.alloc(active, mib(4)).unwrap();
            serving.free(active, a.id).unwrap();
        }
        // 100 MiB does not fit (210 committed of 256); shedding the idle
        // tenant (and its held allocation) makes room.
        let v = serving.offer(mib(100));
        assert!(matches!(v, AdmissionVerdict::AdmittedAfterShed(_)));
        assert!(serving.usage(idle).is_none(), "idle tenant shed");
        assert!(serving.usage(active).is_some(), "active tenant untouched");
        assert_eq!(serving.pool().stats().active_bytes, 0, "held alloc freed");
        let s = serving.admission_stats();
        assert_eq!((s.shed_admits, s.tenants_shed), (1, 1));
        let _ = held; // freed by the shed, not by us
                      // Shedding cannot touch active tenants: an impossible arrival is
                      // still rejected.
        assert_eq!(serving.offer(mib(256)), AdmissionVerdict::Rejected);
    }

    #[test]
    fn oom_rescue_drops_idle_tenants_before_failing_an_active_one() {
        // Two tenants whose quotas fit, but whose *working sets* cannot
        // coexist on the 256 MiB device: the idle one holds 160 MiB live;
        // the active one then needs 200 MiB. Only evicting a working set
        // can save it — and it must pick the idle tenant.
        let (serving, _) = serving_over(
            ServingConfig::new(mib(256))
                .with_overcommit(2.0)
                .with_idle_after(2),
        );
        let idle = serving.offer(mib(200)).tenant().unwrap();
        let active = serving.offer(mib(256)).tenant().unwrap();
        let mut hoard = Vec::new();
        for _ in 0..4 {
            hoard.push(serving.alloc(idle, mib(40)).unwrap());
        }
        for _ in 0..3 {
            serving.step();
            let a = serving.alloc(active, mib(4)).unwrap();
            serving.free(active, a.id).unwrap();
        }
        let big = serving.alloc(active, mib(200)).unwrap();
        assert_eq!(big.size, mib(200));
        assert_eq!(
            serving.usage(idle).map(|u| u.used_bytes),
            Some(0),
            "idle tenant's working set dropped, tenant still registered"
        );
        let ev = serving.serving_stats();
        assert_eq!(ev.tenants_evicted, 1);
        assert!(ev.bytes_evicted >= mib(160));
        serving.free(active, big.id).unwrap();
        // The evicted ids are gone from the books: stale frees are refused.
        assert_eq!(
            serving.free(idle, hoard[0].id).unwrap_err(),
            AllocError::UnknownAllocation(hoard[0].id)
        );
    }

    #[test]
    fn departure_frees_live_allocations_and_releases_the_quota() {
        let (serving, _) = serving_over(ServingConfig::new(mib(256)));
        let t = serving.offer(mib(64)).tenant().unwrap();
        serving.alloc(t, mib(8)).unwrap();
        serving.alloc(t, mib(4)).unwrap();
        assert_eq!(serving.depart(t), Some(mib(12)));
        assert_eq!(serving.depart(t), None, "already gone");
        assert_eq!(serving.pool().stats().active_bytes, 0);
        assert_eq!(serving.committed_bytes(), 0);
    }

    #[test]
    fn a_large_free_gives_a_caching_pools_idle_bytes_back_at_once() {
        // A quiet caching pool (one arrival): the 16 MiB free runs the
        // pass, and the caching core's `compact` gives the bytes back
        // before any step. A small free runs none.
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let pool = PoolService::new()
            .register(DeviceId(0), Box::new(CachingAllocator::new(driver)))
            .unwrap();
        let serving = ServingService::new(pool, ServingConfig::new(mib(256)));
        let t = serving.offer(mib(64)).tenant().unwrap();
        let kept = serving.alloc(t, mib(32)).unwrap();
        let a = serving.alloc(t, mib(16)).unwrap();
        assert_eq!(serving.pool().stats().reserved_bytes, mib(48));
        serving.free(t, a.id).unwrap();
        assert_eq!(serving.pool().stats().reserved_bytes, mib(32));
        assert_eq!(
            serving.defrag_stats(),
            DefragStats {
                periodic_passes: 0,
                aggressive_passes: 1,
                bytes_reclaimed: mib(16),
            }
        );
        let small = serving.alloc(t, mib(1)).unwrap();
        serving.free(t, small.id).unwrap();
        assert_eq!(serving.defrag_stats().aggressive_passes, 1);
        // The step's own pass gives back what the small free left: the
        // caching core's 2 MiB small segment.
        let out = serving.step();
        assert_eq!((out.step, out.defrag_reclaimed), (1, mib(2)));
        assert_eq!(serving.defrag_stats().aggressive_passes, 2);
        serving.free(t, kept.id).unwrap();
    }

    /// The serving pool's GMLake core, read behind the front-end.
    fn lake<R>(serving: &ServingService, f: impl FnOnce(&mut GmLakeAllocator) -> R) -> R {
        serving
            .pool()
            .allocator()
            .with_core_as(f)
            .expect("a GMLake pool")
    }

    #[test]
    fn a_departure_drops_its_views_and_keeps_the_lake() {
        let (serving, driver) = serving_over(ServingConfig::new(mib(256)));
        // Tenant U's 50 hand-outs of one 2 MiB block keep the mean request
        // low, and U holds the block.
        let u = serving.offer(mib(16)).tenant().unwrap();
        for _ in 0..49 {
            let a = serving.alloc(u, mib(2)).unwrap();
            serving.free(u, a.id).unwrap();
        }
        let pinned = serving.alloc(u, mib(2)).unwrap();
        // Tenant T holds a stitched 10 MiB view over 4 + 6 MiB, each freed
        // part having run a pass; the mean request is 352 / 120 MiB.
        let t = serving.offer(mib(64)).tenant().unwrap();
        let a = serving.alloc(t, mib(4)).unwrap();
        let b = serving.alloc(t, mib(6)).unwrap();
        serving.free(t, a.id).unwrap();
        serving.free(t, b.id).unwrap();
        serving.alloc(t, mib(10)).unwrap();
        assert_eq!(lake(&serving, |l| l.state_counters().stitches), 1);
        // The departure's one pass drops the view and keeps its bytes: both
        // parts are above the mean request.
        let before = driver.stats();
        serving.depart(t);
        assert_eq!(
            serving.defrag_stats(),
            DefragStats {
                periodic_passes: 0,
                aggressive_passes: 52,
                bytes_reclaimed: 0,
            }
        );
        assert_eq!(driver.stats().release.calls, before.release.calls);
        assert_eq!(lake(&serving, |l| l.sblock_count()), 0, "view dropped");
        assert_eq!(serving.pool().stats().reserved_bytes, mib(12));
        assert_eq!(serving.step().defrag_reclaimed, 0, "no byte goes back");
        // The next arrival, of another shape, reuses the bytes.
        let w = serving.offer(mib(64)).tenant().unwrap();
        let c = serving.alloc(w, mib(8)).unwrap();
        assert_eq!(c.size, mib(8));
        assert_eq!(driver.stats().create.calls, before.create.calls);
        assert_eq!(serving.pool().stats().reserved_bytes, mib(12));
        serving.free(w, c.id).unwrap();
        serving.free(u, pinned.id).unwrap();
        lake(&serving, |l| l.validate()).unwrap();
    }

    #[test]
    fn a_departure_gives_back_its_too_small_parts_at_its_pass() {
        let (serving, driver) = serving_over(ServingConfig::new(mib(256)));
        let t = serving.offer(mib(64)).tenant().unwrap();
        // 4 then 6 MiB: the mean request is 52 / 10 = 5.2 MiB, so the pass
        // at the 4 MiB free gives that reservation back, and the one at
        // the 6 MiB free keeps it.
        let a = serving.alloc(t, mib(4)).unwrap();
        let b = serving.alloc(t, mib(6)).unwrap();
        serving.free(t, a.id).unwrap();
        assert_eq!(serving.defrag_stats().bytes_reclaimed, mib(4));
        serving.free(t, b.id).unwrap();
        assert_eq!(serving.pool().stats().reserved_bytes, mib(6));
        // 10 MiB stitches the 6 MiB block with 4 fresh MiB; the mean is now
        // 152 / 20 = 7.6 MiB.
        serving.alloc(t, mib(10)).unwrap();
        let counters = lake(&serving, |l| l.state_counters());
        assert_eq!((counters.stitches, counters.insufficient), (1, 3));
        // The departure's pass drops the view, and both its parts are below
        // the mean: both reservations go back at that pass.
        let before = driver.stats();
        serving.depart(t);
        assert_eq!(
            serving.defrag_stats(),
            DefragStats {
                periodic_passes: 0,
                aggressive_passes: 3,
                bytes_reclaimed: mib(14),
            }
        );
        assert_eq!(driver.stats().release.calls - before.release.calls, 2);
        assert_eq!(serving.pool().stats().reserved_bytes, 0);
        // The next 10 MiB request gets one reservation of its size, with no
        // stitch.
        let u = serving.offer(mib(64)).tenant().unwrap();
        let c = serving.alloc(u, mib(10)).unwrap();
        assert_eq!(driver.stats().create.calls - before.create.calls, 1);
        assert_eq!(lake(&serving, |l| l.state_counters().stitches), 1);
        serving.free(u, c.id).unwrap();
        lake(&serving, |l| l.validate()).unwrap();
    }

    #[test]
    fn the_kept_lake_goes_back_to_the_driver_on_demand() {
        let (serving, driver) = serving_over(ServingConfig::new(mib(256)));
        // A departed tenant leaves 140 MiB the pass keeps: a 40 MiB
        // reservation, and 50 of the embedded small pool's 2 MiB segments
        // (two 1 MiB requests each).
        let t = serving.offer(mib(160)).tenant().unwrap();
        serving.alloc(t, mib(40)).unwrap();
        for _ in 0..100 {
            serving.alloc(t, mib(1)).unwrap();
        }
        serving.depart(t);
        serving.step();
        assert_eq!(serving.defrag_stats().aggressive_passes, 2, "depart, step");
        assert_eq!(serving.pool().stats().reserved_bytes, mib(140));
        // 220 MiB is more than the 40 MiB block plus the 116 MiB the
        // device has free: S4's top-up fails, S5 gives the whole cache
        // back, and the retry is served.
        let before = driver.stats();
        let u = serving.offer(mib(256)).tenant().unwrap();
        let big = serving.alloc(u, mib(220)).unwrap();
        assert_eq!(big.size, mib(220));
        let after = driver.stats();
        assert_eq!(after.release.calls - before.release.calls, 1, "S5");
        assert_eq!(after.mem_free.calls - before.mem_free.calls, 50, "S5");
        assert_eq!(serving.pool().stats().reserved_bytes, mib(220));
        assert_eq!(serving.pool().stats().oom_count, 0);
        assert_eq!(serving.serving_stats().tenants_evicted, 0);
        serving.free(u, big.id).unwrap();
        lake(&serving, |l| l.validate()).unwrap();
    }

    #[test]
    fn a_freed_stitched_view_is_gone_before_the_next_alloc() {
        let (serving, driver) = serving_over(ServingConfig::new(mib(256)));
        let t = serving.offer(mib(64)).tenant().unwrap();
        // One 16 MiB reservation, split into A 4 | H 2 | B 6 | G 4.
        let x = serving.alloc(t, mib(16)).unwrap();
        serving.free(t, x.id).unwrap();
        let [a, h, b, g] = [4, 2, 6, 4].map(|m| serving.alloc(t, mib(m)).unwrap());
        serving.free(t, a.id).unwrap();
        serving.free(t, b.id).unwrap();
        // A and B are apart, so 10 MiB stitches them; H then goes idle
        // between two referenced parts.
        let v = serving.alloc(t, mib(10)).unwrap();
        serving.free(t, h.id).unwrap();
        assert_eq!(lake(&serving, |l| l.state_counters().stitches), 1);
        let before = driver.stats();
        let counters = lake(&serving, |l| l.state_counters());
        // The view's free drops it, and A, H and B merge into 12 MiB.
        serving.free(t, v.id).unwrap();
        assert_eq!(
            lake(&serving, |l| (l.sblock_count(), l.pblock_count())),
            (0, 2)
        );
        // The next 10 MiB request splits the merged piece: no map, no
        // access call.
        let c = serving.alloc(t, mib(10)).unwrap();
        let after = lake(&serving, |l| l.state_counters());
        assert_eq!((after.single, after.stitches), (counters.single + 1, 1));
        assert_eq!(driver.stats().map.calls, before.map.calls);
        assert_eq!(driver.stats().set_access.calls, before.set_access.calls);
        assert_eq!(serving.pool().stats().reserved_bytes, mib(16));
        for id in [c.id, g.id] {
            serving.free(t, id).unwrap();
        }
        lake(&serving, |l| l.validate()).unwrap();
    }

    #[test]
    fn a_cross_stream_free_leaves_its_view_to_the_step() {
        let (serving, driver) = serving_over(ServingConfig::new(mib(256)));
        let t = serving.offer(mib(64)).tenant().unwrap();
        let own = serving.usage(t).unwrap().stream;
        let a = serving.alloc(t, mib(4)).unwrap();
        let b = serving.alloc(t, mib(6)).unwrap();
        serving.free(t, a.id).unwrap();
        serving.free(t, b.id).unwrap();
        assert_eq!(serving.defrag_stats().aggressive_passes, 2, "own stream");
        let v = serving.alloc(t, mib(10)).unwrap();
        // Another stream, with work in flight, frees the view: the core
        // stamps its parts with that stream's event, and no pass runs, so
        // nothing waits for the event on the host.
        let other = StreamId(own.0 + 1);
        driver.stream_launch(other, 1_000_000);
        let before = driver.stats();
        serving.free_from(t, v.id, other).unwrap();
        assert_eq!(
            driver.stats().event_record.calls,
            before.event_record.calls + 1
        );
        assert_eq!(driver.stats().event_sync.calls, before.event_sync.calls);
        assert_eq!(serving.defrag_stats().aggressive_passes, 2);
        assert_eq!(lake(&serving, |l| l.sblock_count()), 1);
        // Once the stream's work is done, the step retires the stamp and
        // drops the view, still without a host wait.
        driver.advance_clock(1_000_000);
        serving.step();
        assert_eq!(serving.defrag_stats().aggressive_passes, 3);
        assert_eq!(lake(&serving, |l| l.sblock_count()), 0);
        assert_eq!(driver.stats().event_sync.calls, before.event_sync.calls);
        lake(&serving, |l| l.validate()).unwrap();
    }

    #[test]
    fn an_overflowing_quota_is_never_admitted() {
        // `committed + u64::MAX` wraps past the limit: it must read as
        // "does not fit" under every policy, here and on the queue retry.
        for policy in [
            AdmissionPolicy::Reject,
            AdmissionPolicy::Queue { max_wait_steps: 4 },
            AdmissionPolicy::Shed,
        ] {
            let (serving, _) = serving_over(ServingConfig::new(mib(256)).with_policy(policy));
            assert!(serving.offer(mib(64)).tenant().is_some());
            let verdict = serving.offer(u64::MAX);
            assert_eq!(verdict.tenant(), None, "{policy:?}: {verdict:?}");
            serving.step();
            assert_eq!(serving.committed_bytes(), mib(64), "{policy:?}");
            assert_eq!(serving.tenant_count(), 1, "{policy:?}");
        }
    }

    #[test]
    fn service_is_send_and_clone() {
        fn assert_send<T: Send + Sync + Clone>() {}
        assert_send::<ServingService>();
    }
}
