//! The multi-device pool service: a registry of per-device
//! [`DeviceAllocator`] front-ends behind cheap, cloneable, thread-safe
//! [`PoolHandle`]s.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use gmlake_alloc_api::{
    forward_allocator_core, AllocError, AllocRequest, Allocation, AllocationId, AllocatorCore,
    DeviceAllocator, DeviceAllocatorConfig, FaultJournalStats, MemStats, StreamId,
};
use gmlake_telemetry::{EventKind, PoolTelemetry};

use crate::defrag::{DefragPolicy, DefragStats, Defragger};
use crate::error::RuntimeError;
use crate::recovery::{FaultRecoveryStats, RescueHook, MAX_FAULT_RETRIES};

/// Identifies one device (one memory pool) within a [`PoolService`].
///
/// A plain rank-style index: `DeviceId(0)` is the first GPU, matching how
/// data-parallel training frameworks number ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// One registered pool: the concurrent allocator front-end plus per-pool
/// telemetry.
#[derive(Debug)]
struct PoolEntry {
    alloc: DeviceAllocator,
    /// Training iterations completed through this pool's handles.
    iterations: AtomicU64,
    /// The pool's own defrag driver, ticked at iteration boundaries
    /// (`None` when the service was built without a [`DefragPolicy`]). It
    /// lives and dies with the registration, so a re-registered device
    /// starts with a clean window and zeroed counters.
    defrag: Option<Defragger>,
    /// Fault-recovery counters, locked only on a failure path: a
    /// successful allocation takes no lock and loads no atomic here.
    recovery: Mutex<FaultRecoveryStats>,
    /// Owner-supplied tenant-level reclamation stage of the OOM rescue
    /// pipeline (see [`RescueHook`]). `None` until installed.
    rescue_hook: Mutex<Option<Arc<dyn RescueHook>>>,
}

#[derive(Debug)]
struct ServiceInner {
    pools: Mutex<BTreeMap<DeviceId, Arc<PoolEntry>>>,
    defrag: Option<DefragPolicy>,
}

/// A thread-safe registry mapping [`DeviceId`]s to memory pools.
///
/// The service is a cheap handle (`Clone` shares the registry). Worker
/// threads obtain a [`PoolHandle`] per device and allocate through it
/// concurrently; an optional [`DefragPolicy`] gives every pool a
/// [`Defragger`] ticked at its iteration boundaries.
///
/// ```
/// use gmlake_runtime::{DeviceId, PoolService};
/// use gmlake_caching::CachingAllocator;
/// use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
/// use gmlake_alloc_api::{mib, AllocRequest};
///
/// let service = PoolService::new();
/// let driver = CudaDriver::new(DeviceConfig::small_test());
/// let pool = service.register(DeviceId(0), Box::new(CachingAllocator::new(driver)))?;
///
/// let a = pool.allocate(AllocRequest::new(mib(4)))?;
/// assert_eq!(service.stats(DeviceId(0))?.active_bytes, a.size);
/// pool.deallocate(a.id)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PoolService {
    inner: Arc<ServiceInner>,
}

impl Default for PoolService {
    fn default() -> Self {
        PoolService::new()
    }
}

impl PoolService {
    /// Creates an empty service whose pools run no defrag pass.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// Creates an empty service whose pools each tick a [`Defragger`] of
    /// `defrag` at their iteration boundaries.
    pub fn with_defrag(defrag: DefragPolicy) -> Self {
        Self::build(Some(defrag))
    }

    fn build(defrag: Option<DefragPolicy>) -> Self {
        PoolService {
            inner: Arc::new(ServiceInner {
                pools: Mutex::new(BTreeMap::new()),
                defrag,
            }),
        }
    }

    /// Registers an allocator core as the pool for `device` and returns a
    /// handle. The core is wrapped in a [`DeviceAllocator`] front-end with
    /// the default configuration and a disabled
    /// [`PoolTelemetry`] sink (one relaxed atomic load per call until a
    /// [`MemoryProfiler`](crate::MemoryProfiler) enables it); use
    /// [`PoolService::register_device`] to supply a pre-configured
    /// front-end.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::DuplicateDevice`] if `device` already has a pool.
    pub fn register(
        &self,
        device: DeviceId,
        alloc: Box<dyn AllocatorCore + Send>,
    ) -> Result<PoolHandle, RuntimeError> {
        self.insert_entry(device, default_front_end(alloc))
    }

    /// Registers an existing [`DeviceAllocator`] (e.g. one with a custom
    /// stream configuration, or one also driven outside the service) as the
    /// pool for `device`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::DuplicateDevice`] if `device` already has a pool.
    pub fn register_device(
        &self,
        device: DeviceId,
        alloc: DeviceAllocator,
    ) -> Result<PoolHandle, RuntimeError> {
        self.insert_entry(device, alloc)
    }

    fn insert_entry(
        &self,
        device: DeviceId,
        alloc: DeviceAllocator,
    ) -> Result<PoolHandle, RuntimeError> {
        let mut pools = self.inner.pools.lock();
        if pools.contains_key(&device) {
            return Err(RuntimeError::DuplicateDevice(device));
        }
        let entry = Arc::new(PoolEntry {
            alloc,
            iterations: AtomicU64::new(0),
            defrag: self.inner.defrag.map(Defragger::new),
            recovery: Mutex::new(FaultRecoveryStats::default()),
            rescue_hook: Mutex::new(None),
        });
        pools.insert(device, Arc::clone(&entry));
        Ok(self.make_handle(device, entry))
    }

    /// Removes the pool for `device`. Outstanding handles keep working (the
    /// pool itself is refcounted); it only disappears from the registry.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownDevice`] if `device` has no pool.
    pub fn unregister(&self, device: DeviceId) -> Result<(), RuntimeError> {
        self.inner
            .pools
            .lock()
            .remove(&device)
            .map(|_| ())
            .ok_or(RuntimeError::UnknownDevice(device))
    }

    /// Returns a fresh handle to the pool for `device`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownDevice`] if `device` has no pool.
    pub fn handle(&self, device: DeviceId) -> Result<PoolHandle, RuntimeError> {
        let entry = self
            .inner
            .pools
            .lock()
            .get(&device)
            .cloned()
            .ok_or(RuntimeError::UnknownDevice(device))?;
        Ok(self.make_handle(device, entry))
    }

    /// The registered devices, in ascending order.
    pub fn devices(&self) -> Vec<DeviceId> {
        self.inner.pools.lock().keys().copied().collect()
    }

    /// Number of registered pools.
    pub fn len(&self) -> usize {
        self.inner.pools.lock().len()
    }

    /// `true` when no pool is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory statistics of one pool.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownDevice`] if `device` has no pool.
    pub fn stats(&self, device: DeviceId) -> Result<MemStats, RuntimeError> {
        Ok(self.handle(device)?.stats())
    }

    fn make_handle(&self, device: DeviceId, entry: Arc<PoolEntry>) -> PoolHandle {
        PoolHandle { device, entry }
    }
}

/// The front-end [`PoolService::register`] wraps a bare core in: default
/// configuration, no event source, and a (disabled) telemetry sink.
fn default_front_end(core: Box<dyn AllocatorCore + Send>) -> DeviceAllocator {
    let config = DeviceAllocatorConfig::default();
    let telemetry = Some(Arc::new(PoolTelemetry::new()));
    DeviceAllocator::try_build(core, config, None, telemetry)
        .expect("the default configuration validates")
}

/// What one OOM rescue stage achieved: the bytes it released, and whether
/// it changed anything a retry could use.
struct Reclaimed {
    bytes: u64,
    progress: bool,
}

impl Reclaimed {
    fn released(bytes: u64) -> Option<Reclaimed> {
        Some(Reclaimed {
            bytes,
            progress: bytes > 0,
        })
    }
}

/// The OOM rescue stages, in order (see [`PoolHandle::alloc_on_stream`]).
/// A stage returns `None` when it does not apply.
const RESCUE_STAGES: [fn(&PoolHandle, u64) -> Option<Reclaimed>; 4] = [
    // 1. Flush every stream's cache into the core and release the core's
    //    cached structures.
    |h, _| Reclaimed::released(h.entry.alloc.release_cached()),
    // 2. Retire the core's completed cross-stream event stamps. That
    //    frees no memory itself, but a retired stamp makes a cached block
    //    reusable, so any stamp retired is progress.
    |h, _| {
        Some(Reclaimed {
            bytes: 0,
            progress: h.entry.alloc.process_events() > 0,
        })
    },
    // 3. Proactive compaction: sPool GC + dead-fragment release.
    |h, _| Reclaimed::released(h.entry.alloc.compact()),
    // 4. The owner-installed hook, called without the hook lock held.
    |h, needed| {
        let hook = h.entry.rescue_hook.lock().clone()?;
        Reclaimed::released(hook.rescue(needed))
    },
];

/// A cheap, cloneable, thread-safe front end to one registered pool: the
/// pool's [`DeviceAllocator`] plus the defrag tick and the OOM rescue.
///
/// Every allocation method takes `&self` — clone a handle into each worker
/// thread and allocate away. Small requests ride the front-end's cached
/// fast path without ever touching the pool mutex; large/stitch traffic
/// falls back to the wrapped core. `PoolHandle` also implements
/// [`AllocatorCore`], so trait-generic code — including the sequential
/// [`Replayer`](../gmlake_workload/struct.Replayer.html) — can drive a
/// shared pool unmodified.
///
/// Beyond delegation, the handle adds two things:
///
/// * [`PoolHandle::iteration_boundary`] advances the pool's iteration
///   counter and ticks the pool's [`Defragger`], if the service has a
///   [`DefragPolicy`];
/// * [`PoolHandle::allocate`] retries a rolled-back driver fault and runs
///   a staged rescue on an out-of-memory failure (reclaim, retry) before
///   the error reaches the caller.
#[derive(Debug, Clone)]
pub struct PoolHandle {
    device: DeviceId,
    entry: Arc<PoolEntry>,
}

impl PoolHandle {
    /// The device this handle allocates on.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Training iterations completed on this pool.
    pub fn iterations(&self) -> u64 {
        self.entry.iterations.load(Ordering::Relaxed)
    }

    /// The pool's concurrent allocator front-end.
    pub fn allocator(&self) -> &DeviceAllocator {
        &self.entry.alloc
    }

    /// Runs `f` with exclusive access to the underlying allocator core — an
    /// escape hatch for implementation-specific calls (e.g.
    /// `GmLakeAllocator::state_counters`). Do not block inside `f`: every
    /// core-path caller of this pool waits. The front-end's stream caches
    /// are not flushed first (see [`DeviceAllocator::flush`]).
    pub fn with_allocator<R>(&self, f: impl FnOnce(&mut dyn AllocatorCore) -> R) -> R {
        self.entry.alloc.with_core(f)
    }

    /// Allocates memory for `req` through the pool's [`DeviceAllocator`] on
    /// the default stream (see [`PoolHandle::alloc_on_stream`]).
    ///
    /// # Errors
    ///
    /// See [`AllocatorCore::allocate`].
    pub fn allocate(&self, req: AllocRequest) -> Result<Allocation, AllocError> {
        self.alloc_on_stream(req, StreamId::DEFAULT)
    }

    /// Allocates memory for `req` on behalf of logical GPU stream `stream`:
    /// small requests ride the stream's own cache in the pool's
    /// [`DeviceAllocator`], so ranks driving different streams never
    /// serialize on a lock. A successful allocation takes no lock and
    /// loads no atomic of the handle's own.
    ///
    /// Failures are recovered in two ways:
    ///
    /// * a rolled-back [`AllocError::DriverFault`] is retried at once, at
    ///   most three times, and then surfaces;
    /// * out-of-memory — after the front-end's own flush-and-retry, which
    ///   drains **every** stream's cache — runs the staged rescue
    ///   pipeline: flush stream caches, retire completed event stamps,
    ///   compact, then the owner-installed [`RescueHook`] (if any),
    ///   retrying after every stage that made progress.
    ///
    /// # Errors
    ///
    /// See [`AllocatorCore::allocate`].
    pub fn alloc_on_stream(
        &self,
        req: AllocRequest,
        stream: StreamId,
    ) -> Result<Allocation, AllocError> {
        let mut retries = 0;
        loop {
            match self.entry.alloc.alloc_on_stream(req, stream) {
                Ok(a) => return Ok(a),
                Err(e @ AllocError::DriverFault { .. }) => {
                    let mut counts = self.entry.recovery.lock();
                    counts.faults += 1;
                    if retries == MAX_FAULT_RETRIES {
                        return Err(e);
                    }
                    retries += 1;
                    counts.retries += 1;
                }
                Err(e @ AllocError::OutOfMemory { .. }) => {
                    return self.rescue_oom(req, stream, e);
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// The staged OOM rescue pipeline: each stage tries to reclaim memory
    /// with a progressively wider hammer, and the allocation is retried
    /// after every stage that made progress. Stages 1–3 are local to this
    /// pool; stage 4 is the owner-installed [`RescueHook`] (skipped when
    /// none is installed). No pool lock is held between stages. Every
    /// stage that runs emits an [`EventKind::RescueStage`] trace record
    /// when telemetry is enabled.
    fn rescue_oom(
        &self,
        req: AllocRequest,
        stream: StreamId,
        original: AllocError,
    ) -> Result<Allocation, AllocError> {
        let mut last = original;
        for (stage, reclaim) in (1u64..).zip(RESCUE_STAGES) {
            let Some(Reclaimed { bytes, progress }) = reclaim(self, req.size) else {
                continue;
            };
            if !progress {
                self.emit(EventKind::RescueStage, bytes, stage, 0);
                continue;
            }
            match self.entry.alloc.alloc_on_stream(req, stream) {
                Ok(a) => {
                    self.emit(EventKind::RescueStage, bytes, stage, 1);
                    self.entry.recovery.lock().rescues += 1;
                    return Ok(a);
                }
                Err(e) => {
                    self.emit(EventKind::RescueStage, bytes, stage, 0);
                    if matches!(e, AllocError::DriverFault { .. }) {
                        self.entry.recovery.lock().faults += 1;
                    }
                    last = e;
                }
            }
        }
        Err(last)
    }

    /// Records a pool trace event when telemetry is attached and enabled.
    fn emit(&self, kind: EventKind, bytes: u64, a: u64, b: u64) {
        if let Some(t) = self.entry.alloc.telemetry() {
            if t.is_enabled() {
                t.record(kind, bytes, a, b);
            }
        }
    }

    /// Installs `hook` as the pool's tenant-level OOM rescue stage
    /// (stage 4 of the pipeline documented on
    /// [`PoolHandle::alloc_on_stream`]), replacing any previous hook.
    /// Every handle to the pool shares the installed hook.
    pub fn set_rescue_hook(&self, hook: Arc<dyn RescueHook>) {
        *self.entry.rescue_hook.lock() = Some(hook);
    }

    /// Removes the pool's tenant-level rescue hook, returning it.
    pub fn clear_rescue_hook(&self) -> Option<Arc<dyn RescueHook>> {
        self.entry.rescue_hook.lock().take()
    }

    /// Snapshot of this pool's fault-recovery counters: faults survived,
    /// retries issued, allocations saved by the staged rescue pipeline.
    pub fn fault_stats(&self) -> FaultRecoveryStats {
        *self.entry.recovery.lock()
    }

    /// Releases the allocation identified by `id` from the default stream.
    ///
    /// # Errors
    ///
    /// See [`AllocatorCore::deallocate`].
    pub fn deallocate(&self, id: AllocationId) -> Result<(), AllocError> {
        self.entry.alloc.deallocate(id)
    }

    /// Releases the allocation identified by `id`, where the free is issued
    /// from `stream` (see [`DeviceAllocator::free_on_stream`] for the
    /// cross-stream reuse rule).
    ///
    /// # Errors
    ///
    /// See [`AllocatorCore::deallocate`].
    pub fn free_on_stream(&self, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
        self.entry.alloc.free_on_stream(id, stream)
    }

    /// Memory statistics of the pool (see [`DeviceAllocator::stats`]).
    pub fn stats(&self) -> MemStats {
        self.entry.alloc.stats()
    }

    /// Backend name (cached at construction; never takes a lock).
    pub fn name(&self) -> &'static str {
        self.entry.alloc.name()
    }

    /// Signals the end of one training iteration: forwards the hint to the
    /// allocator, advances the pool's iteration counter, pushes a
    /// memory-timeline sample when the pool's telemetry is enabled, and
    /// ticks the pool's [`Defragger`] (tick = the iteration just completed,
    /// churn 0) when the service has a [`DefragPolicy`]. The pool's stats
    /// are aggregated at most once, and only if the sample or the policy's
    /// fragmentation trigger reads them.
    pub fn iteration_boundary(&self) {
        let alloc = &self.entry.alloc;
        alloc.iteration_boundary();
        let iteration = self.entry.iterations.fetch_add(1, Ordering::Relaxed) + 1;
        let mut stats = None;
        if let Some(tel) = alloc.telemetry() {
            if tel.is_enabled() {
                let s = *stats.insert(alloc.stats());
                tel.record_sample(s.reserved_bytes, s.active_bytes, s.current_fragmentation());
            }
        }
        if let Some(defrag) = &self.entry.defrag {
            defrag.tick_with(iteration, 0, alloc, || {
                stats
                    .unwrap_or_else(|| alloc.stats())
                    .current_fragmentation()
            });
        }
    }

    /// Counters of the pool's [`Defragger`] (all zero when the service has
    /// no [`DefragPolicy`]).
    pub fn defrag_stats(&self) -> DefragStats {
        self.entry
            .defrag
            .as_ref()
            .map_or_else(DefragStats::default, Defragger::stats)
    }

    /// Retires the core's completed cross-stream event stamps (see
    /// [`DeviceAllocator::process_events`]). Schedulers and iteration loops
    /// tick it at synchronization points.
    pub fn process_events(&self) -> u64 {
        self.entry.alloc.process_events()
    }

    /// Releases the pool's cached memory (see
    /// [`DeviceAllocator::release_cached`]).
    pub fn release_cached(&self) -> u64 {
        self.entry.alloc.release_cached()
    }

    /// Runs the pool's proactive defrag pass (see
    /// [`DeviceAllocator::compact`]).
    pub fn compact(&self) -> u64 {
        self.entry.alloc.compact()
    }

    /// Instantaneous fragmentation ratio (see
    /// [`DeviceAllocator::fragmentation`]).
    pub fn fragmentation(&self) -> f64 {
        self.entry.alloc.fragmentation()
    }

    /// The core's fault-journal counters (see
    /// [`DeviceAllocator::fault_journal_stats`]).
    pub fn fault_journal_stats(&self) -> FaultJournalStats {
        self.entry.alloc.fault_journal_stats()
    }
}

/// Trait-compat layer: lets trait-generic code (the sequential replayer,
/// ablation harnesses) drive a pool handle; every method delegates to the
/// concurrent `&self` inherent API.
impl AllocatorCore for PoolHandle {
    forward_allocator_core!(self => (*self));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlake_alloc_api::{kib, mib};
    use gmlake_caching::CachingAllocator;
    use gmlake_core::{GmLakeAllocator, GmLakeConfig};
    use gmlake_gpu_sim::{CudaDriver, DeviceConfig};

    fn caching_pool() -> Box<dyn AllocatorCore + Send> {
        Box::new(CachingAllocator::new(CudaDriver::new(
            DeviceConfig::small_test().with_backing(false),
        )))
    }

    #[test]
    fn register_handle_unregister_lifecycle() {
        let service = PoolService::new();
        assert!(service.is_empty());
        let h = service.register(DeviceId(0), caching_pool()).unwrap();
        assert_eq!(h.device(), DeviceId(0));
        assert_eq!(service.len(), 1);
        assert_eq!(
            service.register(DeviceId(0), caching_pool()).unwrap_err(),
            RuntimeError::DuplicateDevice(DeviceId(0))
        );
        service.register(DeviceId(2), caching_pool()).unwrap();
        service.register(DeviceId(1), caching_pool()).unwrap();
        assert_eq!(
            service.devices(),
            vec![DeviceId(0), DeviceId(1), DeviceId(2)],
            "ordered listing"
        );
        service.unregister(DeviceId(1)).unwrap();
        assert_eq!(
            service.unregister(DeviceId(1)).unwrap_err(),
            RuntimeError::UnknownDevice(DeviceId(1))
        );
        assert_eq!(
            service.handle(DeviceId(1)).unwrap_err(),
            RuntimeError::UnknownDevice(DeviceId(1))
        );
        assert_eq!(service.len(), 2);
    }

    #[test]
    fn handles_share_one_pool() {
        let service = PoolService::new();
        let a = service.register(DeviceId(0), caching_pool()).unwrap();
        let b = service.handle(DeviceId(0)).unwrap();
        let alloc = a.allocate(AllocRequest::new(mib(4))).unwrap();
        assert_eq!(b.stats().active_bytes, alloc.size);
        b.deallocate(alloc.id).unwrap();
        assert_eq!(a.stats().active_bytes, 0);
        assert_eq!(a.name(), "pytorch-caching");
    }

    #[test]
    fn preconfigured_device_allocator_can_be_registered() {
        let service = PoolService::new();
        let front = DeviceAllocator::try_build(
            Box::new(CachingAllocator::new(CudaDriver::new(
                DeviceConfig::small_test().with_backing(false),
            ))),
            DeviceAllocatorConfig::default().with_streams(4),
            None,
            None,
        )
        .unwrap();
        let pool = service.register_device(DeviceId(0), front).unwrap();
        let a = pool.allocate(AllocRequest::new(1024)).unwrap();
        pool.deallocate(a.id).unwrap();
        assert_eq!(pool.allocator().cache_stats().streams, 4);
        assert_eq!(pool.stats().active_bytes, 0);
    }

    #[test]
    fn service_clones_share_the_registry() {
        let service = PoolService::new();
        let clone = service.clone();
        service.register(DeviceId(4), caching_pool()).unwrap();
        assert_eq!(clone.devices(), vec![DeviceId(4)]);
    }

    #[test]
    fn iteration_boundary_counts_and_triggers_periodic_defrag() {
        let service = PoolService::with_defrag(DefragPolicy::periodic(2));
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let pool = service
            .register(DeviceId(0), Box::new(CachingAllocator::new(driver.clone())))
            .unwrap();
        // Populate the cache, then free: reserved stays high.
        let a = pool.allocate(AllocRequest::new(mib(8))).unwrap();
        pool.deallocate(a.id).unwrap();
        assert!(pool.stats().reserved_bytes > 0);
        pool.iteration_boundary();
        assert_eq!(pool.iterations(), 1);
        assert!(
            pool.stats().reserved_bytes > 0,
            "period 2: nothing happens after iteration 1"
        );
        pool.iteration_boundary();
        assert_eq!(pool.iterations(), 2);
        assert_eq!(
            pool.stats().reserved_bytes,
            0,
            "periodic compact released the idle cache"
        );
        let stats = pool.defrag_stats();
        assert_eq!(
            (stats.periodic_passes, stats.aggressive_passes),
            (1, 0),
            "one compact at tick 2"
        );
        assert!(stats.bytes_reclaimed >= mib(8));
        assert_eq!(driver.phys_in_use(), 0);
    }

    #[test]
    fn reregistered_device_starts_with_a_fresh_defragger() {
        let service = PoolService::with_defrag(DefragPolicy::periodic(2));
        let first = service.register(DeviceId(0), caching_pool()).unwrap();
        first.iteration_boundary();
        first.iteration_boundary();
        assert_eq!(first.defrag_stats().periodic_passes, 1);
        service.unregister(DeviceId(0)).unwrap();
        // The successor's cadence and counters start from zero: tick 1 is
        // off cadence, tick 2 fires — whatever the dead pool had counted.
        let second = service.register(DeviceId(0), caching_pool()).unwrap();
        second.iteration_boundary();
        assert_eq!(second.defrag_stats(), DefragStats::default());
        second.iteration_boundary();
        assert_eq!(second.defrag_stats().periodic_passes, 1);
        assert_eq!(
            first.defrag_stats().periodic_passes,
            1,
            "old pool untouched"
        );
    }

    #[test]
    fn boundary_without_policy_or_telemetry_runs_no_pass() {
        let service = PoolService::new();
        let pool = service.register(DeviceId(0), caching_pool()).unwrap();
        let a = pool.allocate(AllocRequest::new(mib(8))).unwrap();
        pool.deallocate(a.id).unwrap();
        for _ in 0..4 {
            pool.iteration_boundary();
        }
        assert_eq!(pool.iterations(), 4);
        assert_eq!(pool.defrag_stats(), DefragStats::default());
        assert!(pool.stats().reserved_bytes >= mib(8), "cache left warm");
    }

    #[test]
    fn oom_rescue_cannot_reclaim_idle_pieces_of_a_partly_live_reservation() {
        // GMLake returns physical memory one whole reservation at a time.
        // A sibling GMLake pool holds one 160 MiB reservation split into a
        // live 40 MiB piece and an idle 120 MiB one: the rescue hook's
        // release of the sibling's cache cannot return the idle piece, so a
        // 120 MiB request on the 96 MiB left of the 256 MiB device fails
        // until the live piece goes.
        let service = PoolService::new();
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let lake = service
            .register(
                DeviceId(0),
                Box::new(GmLakeAllocator::new(
                    driver.clone(),
                    GmLakeConfig::default(),
                )),
            )
            .unwrap();
        let pool = service
            .register(DeviceId(1), Box::new(CachingAllocator::new(driver.clone())))
            .unwrap();
        pool.set_rescue_hook(Arc::new(FlushSibling(lake.clone())));
        let whole = lake.allocate(AllocRequest::new(mib(160))).unwrap();
        lake.deallocate(whole.id).unwrap();
        let live = lake.allocate(AllocRequest::new(mib(40))).unwrap();
        assert_eq!(
            driver.phys_in_use(),
            mib(160),
            "the 40 MiB is a split piece"
        );
        let err = pool.allocate(AllocRequest::new(mib(120))).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
        assert_eq!(pool.fault_stats().rescues, 0);
        assert_eq!(
            lake.stats().reserved_bytes,
            mib(160),
            "the idle 120 MiB stays cached with its live sibling"
        );
        // Once its last piece is idle the reservation goes back whole.
        lake.deallocate(live.id).unwrap();
        let big = pool.allocate(AllocRequest::new(mib(120))).unwrap();
        assert_eq!(pool.fault_stats().rescues, 1);
        assert_eq!(lake.stats().reserved_bytes, 0);
        pool.deallocate(big.id).unwrap();
    }

    #[test]
    fn oom_rescue_leaves_other_devices_caches_alone() {
        // The hoarder sits on a DIFFERENT physical device (its own
        // driver): flushing its warm cache could not relieve the failing
        // pool's pressure, so the rescue, with no hook installed, must not
        // touch it.
        let service = PoolService::new();
        let other_driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let hoarder = service
            .register(
                DeviceId(0),
                Box::new(CachingAllocator::new(other_driver.clone())),
            )
            .unwrap();
        let pool = service.register(DeviceId(1), caching_pool()).unwrap();
        let a = hoarder.allocate(AllocRequest::new(mib(40))).unwrap();
        hoarder.deallocate(a.id).unwrap();
        assert!(hoarder.stats().reserved_bytes >= mib(40), "cache warm");
        // Exhaust the failing pool's own device for real.
        let err = pool.allocate(AllocRequest::new(mib(400))).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
        assert!(
            hoarder.stats().reserved_bytes >= mib(40),
            "unrelated device's cache survived the rescue"
        );
    }

    #[test]
    fn oom_still_surfaces_when_rescue_cannot_help() {
        let service = PoolService::new();
        let pool = service.register(DeviceId(0), caching_pool()).unwrap();
        let hold = pool.allocate(AllocRequest::new(mib(200))).unwrap();
        let err = pool.allocate(AllocRequest::new(mib(200))).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
        pool.deallocate(hold.id).unwrap();
    }

    #[test]
    fn gmlake_pool_through_handle_stitches() {
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let service = PoolService::new();
        let pool = service
            .register(
                DeviceId(0),
                Box::new(GmLakeAllocator::new(
                    driver.clone(),
                    GmLakeConfig::default().with_frag_limit(mib(2)),
                )),
            )
            .unwrap();
        let a = pool.allocate(AllocRequest::new(mib(4))).unwrap();
        let b = pool.allocate(AllocRequest::new(mib(6))).unwrap();
        pool.deallocate(a.id).unwrap();
        pool.deallocate(b.id).unwrap();
        // Freed large blocks park in the front-end's per-stream banks;
        // flushing hands them to the core's stitcher (what every defrag
        // pass does before compacting).
        pool.allocator().flush();
        let before = driver.phys_in_use();
        let c = pool.allocate(AllocRequest::new(mib(10))).unwrap();
        assert_eq!(driver.phys_in_use(), before, "stitched, no new physical");
        let stitches = pool.with_allocator(|alloc| {
            // Downcast-free escape hatch: name proves which allocator runs.
            assert_eq!(alloc.name(), "gmlake");
            alloc.stats().alloc_count
        });
        assert_eq!(stitches, 3);
        pool.deallocate(c.id).unwrap();
    }

    #[test]
    fn small_traffic_through_the_handle_rides_the_shards() {
        let service = PoolService::new();
        let pool = service.register(DeviceId(0), caching_pool()).unwrap();
        let warm = pool.allocate(AllocRequest::new(1024)).unwrap();
        pool.deallocate(warm.id).unwrap();
        let before = pool.allocator().cache_stats();
        let a = pool.allocate(AllocRequest::new(1024)).unwrap();
        pool.deallocate(a.id).unwrap();
        let after = pool.allocator().cache_stats();
        assert_eq!(after.hits, before.hits + 1, "served from the shard cache");
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn stream_routing_through_the_handle_uses_per_stream_banks() {
        use gmlake_alloc_api::StreamId;
        let service = PoolService::new();
        let front = DeviceAllocator::try_build(
            Box::new(CachingAllocator::new(CudaDriver::new(
                DeviceConfig::small_test().with_backing(false),
            ))),
            DeviceAllocatorConfig::default().with_streams(2),
            None,
            None,
        )
        .unwrap();
        let pool = service.register_device(DeviceId(0), front).unwrap();
        assert_eq!(pool.allocator().cache_stats().streams, 2);
        // Warm the same size class on both streams: two distinct blocks,
        // each parked in its own stream's cache.
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(0))
            .unwrap();
        let b = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        assert_ne!(a.va, b.va);
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        pool.free_on_stream(b.id, StreamId(1)).unwrap();
        let alloc = pool.allocator();
        assert_eq!(alloc.stream_cache_stats(StreamId(0)).cached_blocks, 1);
        assert_eq!(alloc.stream_cache_stats(StreamId(1)).cached_blocks, 1);
        // Warm reuse stays within the stream.
        let a2 = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(0))
            .unwrap();
        assert_eq!(a2.va, a.va);
        // Cross-stream free through the handle: back through the core.
        pool.free_on_stream(a2.id, StreamId(1)).unwrap();
        assert_eq!(alloc.cache_stats().cross_stream_fallback, 1);
        assert_eq!(alloc.cache_stats().cached_blocks, 1, "b's block only");
        let s = pool.stats();
        assert_eq!(s.alloc_count, 3);
        assert_eq!(s.free_count, 3);
        assert_eq!(s.active_bytes, 0);
    }

    #[test]
    fn event_guarded_cross_stream_reuse_through_the_handle() {
        use gmlake_alloc_api::StreamId;
        use std::sync::Arc;
        // A pool whose front-end shares the device's driver as its event
        // source: a cross-stream free waits out the freeing stream's event
        // on the host, then hands the block to the core.
        let service = PoolService::new();
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let front = DeviceAllocator::try_build(
            Box::new(CachingAllocator::new(driver.clone())),
            DeviceAllocatorConfig::default().with_streams(2),
            Some(Arc::new(driver.clone())),
            None,
        )
        .unwrap();
        let pool = service.register_device(DeviceId(0), front).unwrap();
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        driver.stream_launch(StreamId(0), 1_000);
        let frontier = driver.stream_frontier_ns(StreamId(0));
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        let c = pool.allocator().cache_stats();
        assert!(c.cross_stream_fallback > 0, "the free went to the core");
        assert_eq!(c.cached_blocks, 0);
        assert!(driver.now_ns() >= frontier, "the free waited out stream 0");
        assert_eq!(driver.outstanding_events(), 0, "no event leaked");
        assert_eq!(pool.process_events(), 0, "nothing left to retire");
        // The core re-serves the block to the owning stream.
        let b = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        assert_eq!(b.va, a.va);
        pool.free_on_stream(b.id, StreamId(1)).unwrap();
        let s = pool.stats();
        assert_eq!((s.alloc_count, s.free_count, s.active_bytes), (2, 2, 0));
    }

    #[test]
    fn cross_stream_small_free_without_events_is_ordered_by_the_core() {
        // The production front-end has no event source, so a cross-stream
        // small free falls back to the core. The core must learn both the
        // allocating and the freeing stream, or it re-serves the block while
        // the freeing stream's work still uses it.
        use gmlake_alloc_api::StreamId;
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let service = PoolService::new();
        let pool = service
            .register(
                DeviceId(0),
                Box::new(GmLakeAllocator::new(
                    driver.clone(),
                    GmLakeConfig::default(),
                )),
            )
            .unwrap();
        let a = pool
            .alloc_on_stream(AllocRequest::new(kib(64)), StreamId(1))
            .unwrap();
        driver.stream_launch(StreamId(0), 1_000_000);
        let frontier = driver.stream_frontier_ns(StreamId(0));
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        assert_eq!(pool.allocator().cache_stats().cross_stream_fallback, 1);
        let b = pool
            .alloc_on_stream(AllocRequest::new(kib(64)), StreamId(2))
            .unwrap();
        assert_eq!(b.va, a.va, "the core's small pool reuses the block");
        assert!(
            driver.now_ns() >= frontier,
            "reused at {} before stream 0 finished at {frontier}",
            driver.now_ns()
        );
        pool.free_on_stream(b.id, StreamId(2)).unwrap();
    }

    #[test]
    fn oom_rescue_covers_the_stream_alloc_path() {
        // The sibling-hoarder setup of the stage-four hook test, but the
        // failing allocation arrives via alloc_on_stream: the hook's
        // release of the sibling's cache must kick in on that path too.
        use gmlake_alloc_api::StreamId;
        let service = PoolService::new();
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let hoarder = service
            .register(DeviceId(0), Box::new(CachingAllocator::new(driver.clone())))
            .unwrap();
        let pool = service
            .register(DeviceId(1), Box::new(CachingAllocator::new(driver.clone())))
            .unwrap();
        pool.set_rescue_hook(Arc::new(FlushSibling(hoarder.clone())));
        let ids: Vec<_> = (0..4)
            .map(|_| hoarder.allocate(AllocRequest::new(mib(40))).unwrap().id)
            .collect();
        for id in ids {
            hoarder.deallocate(id).unwrap();
        }
        assert!(driver.phys_in_use() >= mib(160), "sibling cache retained");
        let big = pool
            .alloc_on_stream(AllocRequest::new(mib(200)), StreamId(1))
            .unwrap();
        assert_eq!(big.size, mib(200));
        assert_eq!(pool.fault_stats().rescues, 1);
        pool.free_on_stream(big.id, StreamId(1)).unwrap();
    }

    /// A [`RescueHook`] that releases a sibling pool's idle cache — memory
    /// the failing pool's own flush/drain/compact stages cannot reach.
    #[derive(Debug)]
    struct FlushSibling(PoolHandle);

    impl RescueHook for FlushSibling {
        fn rescue(&self, _needed: u64) -> u64 {
            self.0.release_cached()
        }
    }

    #[test]
    fn rescue_hook_runs_as_stage_four_and_saves_the_allocation() {
        // Stages 1–3 find nothing (the failing pool is empty), so only
        // the installed hook can save the 200 MiB request from the hoarder's
        // 160 MiB of idle cache on the shared 256 MiB device.
        let service = PoolService::new();
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let hoarder = service
            .register(DeviceId(0), Box::new(CachingAllocator::new(driver.clone())))
            .unwrap();
        let pool = service
            .register(DeviceId(1), Box::new(CachingAllocator::new(driver.clone())))
            .unwrap();
        let ids: Vec<_> = (0..4)
            .map(|_| hoarder.allocate(AllocRequest::new(mib(40))).unwrap().id)
            .collect();
        for id in ids {
            hoarder.deallocate(id).unwrap();
        }
        assert!(driver.phys_in_use() >= mib(160), "sibling cache retained");
        pool.set_rescue_hook(Arc::new(FlushSibling(hoarder.clone())));
        let big = pool.allocate(AllocRequest::new(mib(200))).unwrap();
        assert_eq!(big.size, mib(200));
        assert_eq!(hoarder.stats().reserved_bytes, 0, "hook flushed sibling");
        assert_eq!(pool.fault_stats().rescues, 1, "rescue pipeline saved it");
        pool.deallocate(big.id).unwrap();
        pool.release_cached();
        // Without the hook the same pressure surfaces as OOM again.
        let hook = pool.clear_rescue_hook();
        assert!(hook.is_some(), "installed hook handed back");
        let refill: Vec<_> = (0..4)
            .map(|_| hoarder.allocate(AllocRequest::new(mib(40))).unwrap().id)
            .collect();
        for id in refill {
            hoarder.deallocate(id).unwrap();
        }
        let err = pool.allocate(AllocRequest::new(mib(200))).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
    }

    #[test]
    fn handles_are_send_and_clone() {
        fn assert_send<T: Send + Clone>() {}
        assert_send::<PoolHandle>();
        assert_send::<PoolService>();
    }

    #[test]
    fn transient_driver_fault_is_retried_and_absorbed() {
        use gmlake_gpu_sim::{FaultOp, FaultPlan};
        let service = PoolService::new();
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let pool = service
            .register(
                DeviceId(0),
                Box::new(GmLakeAllocator::new(
                    driver.clone(),
                    GmLakeConfig::default().with_frag_limit(mib(2)),
                )),
            )
            .unwrap();
        // The next map-family driver call fails once; the service's bounded
        // retry must absorb it without surfacing an error.
        driver.set_fault_plan(FaultPlan::new().fail_nth(FaultOp::Map, 1));
        let a = pool.allocate(AllocRequest::new(mib(8))).unwrap();
        assert_eq!(a.size, mib(8));
        let fs = pool.fault_stats();
        assert_eq!(fs.faults, 1);
        assert_eq!(fs.retries, 1);
        assert_eq!(driver.stats().injected_faults, 1);
        pool.deallocate(a.id).unwrap();
        pool.with_allocator(|core| {
            let lake = core
                .as_any_mut()
                .and_then(|a| a.downcast_mut::<GmLakeAllocator>())
                .expect("gmlake core");
            assert_eq!(lake.validate(), Ok(()));
            assert!(lake.fault_journal().is_leak_free());
        });
    }

    #[test]
    fn handle_as_dyn_core_forwards_fault_journal_and_stitch_switch() {
        use gmlake_gpu_sim::{FaultOp, FaultPlan};
        let service = PoolService::new();
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let lake = GmLakeAllocator::new(
            driver.clone(),
            GmLakeConfig::default().with_frag_limit(mib(2)),
        );
        let mut pool = service.register(DeviceId(0), Box::new(lake)).unwrap();
        let core: &mut dyn AllocatorCore = &mut pool;
        // One faulted-and-retried allocation leaves one journalled op.
        driver.set_fault_plan(FaultPlan::new().fail_nth(FaultOp::Map, 1));
        let a = core.allocate(AllocRequest::new(mib(4))).unwrap();
        core.deallocate(a.id).unwrap();
        assert_eq!(core.fault_journal_stats().failed_ops, 1);
        assert_eq!(
            pool.fault_journal_stats(),
            pool.allocator().fault_journal_stats()
        );
    }

    /// A pool over a fresh GMLake core that holds idle 4 and 6 MiB
    /// blocks in the core, where a 10 MiB request stitches them.
    fn stitchable_pool() -> (PoolHandle, CudaDriver) {
        let service = PoolService::new();
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let lake = GmLakeAllocator::new(
            driver.clone(),
            GmLakeConfig::default().with_frag_limit(mib(2)),
        );
        let pool = service.register(DeviceId(0), Box::new(lake)).unwrap();
        let a = pool.allocate(AllocRequest::new(mib(4))).unwrap();
        let b = pool.allocate(AllocRequest::new(mib(6))).unwrap();
        pool.deallocate(a.id).unwrap();
        pool.deallocate(b.id).unwrap();
        // Freed large blocks park in the front-end's banks; the flush
        // hands them to the core's stitcher.
        pool.allocator().flush();
        (pool, driver)
    }

    fn stitches(pool: &PoolHandle) -> u64 {
        pool.allocator()
            .with_core_as(|lake: &mut GmLakeAllocator| lake.state_counters().stitches)
            .expect("gmlake core")
    }

    fn assert_valid(pool: &PoolHandle) {
        pool.allocator()
            .with_core_as(|lake: &mut GmLakeAllocator| {
                assert_eq!(lake.validate(), Ok(()));
                assert!(lake.fault_journal().is_leak_free());
            })
            .expect("gmlake core");
    }

    /// A stitch needs no `mem_create`, so a create outage that faults
    /// every fresh block leaves stitching able to serve from the cache —
    /// however many faults came before.
    #[test]
    fn a_stitchable_request_survives_a_persistent_create_outage() {
        use gmlake_gpu_sim::{FaultOp, FaultPlan};
        let (pool, driver) = stitchable_pool();
        driver.set_fault_plan(FaultPlan::new().fail_from(FaultOp::Create, 1));
        for _ in 0..3 {
            let err = pool.allocate(AllocRequest::new(mib(40))).unwrap_err();
            assert!(matches!(err, AllocError::DriverFault { .. }), "{err}");
        }
        let phys = driver.phys_in_use();
        let c = pool.allocate(AllocRequest::new(mib(10))).unwrap();
        assert_eq!(driver.phys_in_use(), phys, "served from cached blocks");
        assert_eq!(stitches(&pool), 1);
        let fs = pool.fault_stats();
        assert_eq!((fs.faults, fs.retries), (12, 9));
        pool.deallocate(c.id).unwrap();
        driver.clear_fault_plan();
        assert_valid(&pool);
    }

    #[test]
    fn a_persistent_fault_surfaces_after_the_retry_bound() {
        use gmlake_gpu_sim::{FaultOp, FaultPlan};
        let (pool, driver) = stitchable_pool();
        driver.set_fault_plan(FaultPlan::new().fail_from(FaultOp::Map, 1));
        let err = pool.allocate(AllocRequest::new(mib(10))).unwrap_err();
        assert!(matches!(err, AllocError::DriverFault { .. }), "{err}");
        let fs = pool.fault_stats();
        assert_eq!((fs.faults, fs.retries), (4, 3));
        assert_eq!(stitches(&pool), 0, "every stitch rolled back");
        driver.clear_fault_plan();
        assert_valid(&pool);
        // The outage over, the same request stitches at once.
        let c = pool.allocate(AllocRequest::new(mib(10))).unwrap();
        assert_eq!(stitches(&pool), 1);
        pool.deallocate(c.id).unwrap();
    }

    /// A core that is out of memory until its completed event stamps are
    /// retired, with no cache to release: the shape stage 2 rescues.
    #[derive(Debug, Default)]
    struct StampsOnly {
        retired: bool,
    }

    impl AllocatorCore for StampsOnly {
        fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
            if !self.retired {
                return Err(AllocError::OutOfMemory {
                    requested: req.size,
                    reserved: 0,
                    capacity: 0,
                });
            }
            Ok(Allocation {
                id: AllocationId::new(1),
                va: gmlake_alloc_api::VirtAddr::new(mib(2)),
                size: req.size,
                requested: req.size,
            })
        }

        fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
            Err(AllocError::UnknownAllocation(id))
        }

        fn stats(&self) -> MemStats {
            MemStats::default()
        }

        fn name(&self) -> &'static str {
            "stamps-only"
        }

        fn process_events(&mut self) -> u64 {
            self.retired = true;
            5
        }

        fn release_cached(&mut self) -> u64 {
            0
        }
    }

    /// Stage 2 retires stamps, not bytes: its record carries 0 bytes,
    /// and the stamps it retired still buy the retry that succeeds.
    #[test]
    fn stage_two_records_no_bytes_for_retired_stamps() {
        let service = PoolService::new();
        let pool = service
            .register(DeviceId(0), Box::new(StampsOnly::default()))
            .unwrap();
        let tel = pool.allocator().telemetry().expect("default front-end");
        tel.enable();
        pool.allocate(AllocRequest::new(mib(4))).unwrap();
        let stages: Vec<_> = tel
            .snapshot("gpu0", 0, 0)
            .events
            .into_iter()
            .filter(|e| e.kind == EventKind::RescueStage)
            .map(|e| (e.a, e.bytes, e.b))
            .collect();
        assert_eq!(stages, [(1, 0, 0), (2, 0, 1)], "(stage, bytes, saved)");
        assert_eq!(pool.fault_stats().rescues, 1);
    }
}
