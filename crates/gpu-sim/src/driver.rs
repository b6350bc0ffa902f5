//! The simulated CUDA driver: native allocation API plus low-level VMM API.
//!
//! A [`CudaDriver`] is a cheaply clonable handle to one device; every
//! allocator participating in an experiment (caching baseline, GMLake,
//! native) holds a clone of the same driver, exactly as the PyTorch process
//! and GMLake share one real GPU.
//!
//! Each successful call advances the device's simulated clock by the cost
//! model's latency for that call and updates per-API telemetry; failing calls
//! leave the device untouched (strong exception safety).

use std::sync::Arc;

use parking_lot::Mutex;

use gmlake_alloc_api::{EventId, EventSource, StreamId, VirtAddr};

use crate::chunk::{PhysHandle, PhysTable};
use crate::clock::SimClock;
use crate::device::{DeviceConfig, DeviceSnapshot, DriverStats, GRANULARITY};
use crate::error::{DriverError, DriverResult};
use crate::event::EventEngine;
use crate::fault::{FaultOp, FaultPlan, FaultState};
use crate::vaspace::VaSpace;

/// Alignment of native (`cudaMalloc`) allocations.
const NATIVE_ALIGN: u64 = 512;

#[derive(Debug)]
struct Inner {
    config: DeviceConfig,
    clock: SimClock,
    phys: PhysTable,
    va: VaSpace,
    stats: DriverStats,
    /// Per-stream completion frontiers and outstanding events.
    events: EventEngine,
    /// Native allocations: VA -> (handle, size), so `mem_free` can tear the
    /// implicit reservation/mapping down.
    native: std::collections::HashMap<u64, (PhysHandle, u64)>,
    /// Optional telemetry sink: every costed driver call feeds its
    /// simulated latency into the pool's `driver_ns` histogram.
    telemetry: Option<Arc<gmlake_telemetry::PoolTelemetry>>,
    /// Armed fault schedule; `None` when no plan is installed.
    fault: Option<FaultState>,
}

impl Inner {
    /// Advance the clock by one driver call's simulated cost and, when a
    /// telemetry sink is attached and enabled, record that latency.
    fn charge(&mut self, ns: u64) {
        self.clock.advance(ns);
        if let Some(t) = self.telemetry.as_ref() {
            if t.is_enabled() {
                t.driver_ns().record(ns);
                t.note_now(self.clock.now_ns());
            }
        }
    }

    /// Consults the armed fault plan for `op`. On a hit the injected error
    /// is returned *before any device mutation* — the call stays atomic —
    /// and the injection is counted in `stats.injected_faults` plus traced
    /// as a [`FaultInjected`](gmlake_telemetry::EventKind::FaultInjected)
    /// record when a telemetry sink is attached.
    fn inject(&mut self, op: FaultOp) -> DriverResult<()> {
        let Some(f) = self.fault.as_mut() else {
            return Ok(());
        };
        match f.check(op) {
            None => Ok(()),
            Some(e) => {
                self.stats.injected_faults += 1;
                if let Some(t) = self.telemetry.as_ref() {
                    if t.is_enabled() {
                        t.record_at(
                            self.clock.now_ns(),
                            gmlake_telemetry::EventKind::FaultInjected,
                            0,
                            op.index() as u64,
                            self.stats.injected_faults,
                        );
                    }
                }
                Err(e)
            }
        }
    }
}

/// Handle to a simulated GPU device exposing the CUDA driver API surface
/// GMLake uses.
///
/// Cloning is cheap and clones share the device.
///
/// # Example
///
/// ```
/// use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
/// use gmlake_alloc_api::mib;
///
/// let drv = CudaDriver::new(DeviceConfig::small_test());
/// let g = drv.granularity();
/// let va = drv.mem_address_reserve(2 * g)?;
/// let h1 = drv.mem_create(g)?;
/// let h2 = drv.mem_create(g)?;
/// drv.mem_map(va, g, 0, h1)?;
/// drv.mem_map(va.offset(g), g, 0, h2)?;
/// drv.mem_set_access(va, 2 * g, true)?;
/// drv.memcpy_htod(va.offset(g - 4), &[1, 2, 3, 4, 5, 6, 7, 8])?; // spans both chunks
/// # Ok::<(), gmlake_gpu_sim::DriverError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CudaDriver {
    inner: Arc<Mutex<Inner>>,
}

impl CudaDriver {
    /// Creates a new device with the given configuration.
    pub fn new(config: DeviceConfig) -> Self {
        CudaDriver {
            inner: Arc::new(Mutex::new(Inner {
                config,
                clock: SimClock::new(),
                phys: PhysTable::new(),
                va: VaSpace::new(),
                stats: DriverStats::default(),
                events: EventEngine::default(),
                native: std::collections::HashMap::new(),
                telemetry: None,
                fault: None,
            })),
        }
    }

    /// VMM allocation granularity in bytes ([`GRANULARITY`], as returned
    /// by `cuMemGetAllocationGranularity` on NVIDIA hardware).
    pub fn granularity(&self) -> u64 {
        GRANULARITY
    }

    /// Physical capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.lock().config.capacity
    }

    /// Physical bytes currently allocated on the device.
    pub fn phys_in_use(&self) -> u64 {
        self.inner.lock().phys.in_use
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.inner.lock().clock.now_ns()
    }

    /// Advances the simulated clock (used by the workload replayer to model
    /// compute phases, and by allocators for host-side bookkeeping).
    pub fn advance_clock(&self, delta_ns: u64) {
        self.inner.lock().clock.advance(delta_ns);
    }

    /// Host-side bookkeeping cost per pool-allocator operation (ns).
    pub fn host_op_ns(&self) -> u64 {
        self.inner.lock().config.cost.host_op_ns()
    }

    /// Per-API telemetry snapshot.
    pub fn stats(&self) -> DriverStats {
        self.inner.lock().stats
    }

    /// Attach a telemetry sink. From then on every costed driver call
    /// records its simulated latency into `telemetry.driver_ns()` (while
    /// the sink is enabled). Clones of this driver share the sink.
    pub fn set_telemetry(&self, telemetry: Arc<gmlake_telemetry::PoolTelemetry>) {
        self.inner.lock().telemetry = Some(telemetry);
    }

    /// Installs a fault-injection schedule, replacing any previous one.
    /// Per-op call counters restart at zero, so deterministic rules are
    /// counted from this moment. An empty plan is equivalent to
    /// [`CudaDriver::clear_fault_plan`]. Clones of this driver share the
    /// plan (it is device state, like the clock).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let mut g = self.inner.lock();
        g.fault = if plan.is_empty() {
            None
        } else {
            Some(FaultState::new(plan))
        };
    }

    /// Removes the installed fault plan; subsequent calls never inject.
    pub fn clear_fault_plan(&self) {
        self.inner.lock().fault = None;
    }

    /// Occupancy snapshot.
    pub fn snapshot(&self) -> DeviceSnapshot {
        let g = self.inner.lock();
        DeviceSnapshot {
            phys_in_use: g.phys.in_use,
            peak_phys_in_use: g.phys.peak_in_use,
            phys_created_total: g.phys.created_total,
            va_reserved: g.va.reserved_total,
            handles: g.phys.handle_count() as u64,
            reservations: g.va.reservation_count() as u64,
            mappings: g.va.mapping_count() as u64,
            clock_ns: g.clock.now_ns(),
        }
    }

    /// A copy of the device's cost model (for callers that compute analytic
    /// curves).
    pub fn cost_model(&self) -> crate::cost::CostModel {
        self.inner.lock().config.cost.clone()
    }

    // ------------------------------------------------------------------
    // Native path (`cudaMalloc` / `cudaFree`)
    // ------------------------------------------------------------------

    /// `cudaMalloc`: allocates `size` bytes of device memory with an implicit
    /// device synchronization — the call waits for every stream's in-flight
    /// work (launched via [`CudaDriver::stream_launch`]) before it runs,
    /// which is precisely why the native path cannot overlap allocation
    /// with compute. Returns the device pointer.
    ///
    /// # Errors
    ///
    /// [`DriverError::OutOfMemory`] when capacity is exhausted,
    /// [`DriverError::ZeroSize`] for empty requests.
    pub fn mem_alloc(&self, size: u64) -> DriverResult<VirtAddr> {
        let mut g = self.inner.lock();
        g.inject(FaultOp::MemAlloc)?;
        if size == 0 {
            return Err(DriverError::ZeroSize);
        }
        let backing = g.config.backing;
        let capacity = g.config.capacity;
        let h = g.phys.create(size, capacity, backing)?;
        let va = match g.va.reserve(size, NATIVE_ALIGN) {
            Ok(va) => va,
            Err(e) => {
                let _ = g.phys.release(h);
                return Err(e);
            }
        };
        g.va.map(va, size, h, 0)
            .expect("fresh reservation is empty");
        g.phys.add_map(h).expect("fresh handle is mappable");
        g.va.set_access(va, size, true).expect("entry just created");
        g.native.insert(va.as_u64(), (h, size));
        // Implicit device sync: wait out every stream's in-flight work.
        let now = g.clock.now_ns();
        let ns = (g.events.max_frontier(now) - now) + g.config.cost.mem_alloc_ns(size);
        g.charge(ns);
        g.stats.mem_alloc.record(ns);
        Ok(va)
    }

    /// `cudaFree`: releases a pointer obtained from [`CudaDriver::mem_alloc`],
    /// with the same implicit device synchronization as the allocation path.
    pub fn mem_free(&self, va: VirtAddr) -> DriverResult<()> {
        let mut g = self.inner.lock();
        g.inject(FaultOp::MemFree)?;
        let (h, size) = g
            .native
            .get(&va.as_u64())
            .copied()
            .ok_or(DriverError::InvalidAddress(va))?;
        g.va.unmap(va, size)?;
        g.phys.remove_map(h)?;
        g.phys.release(h)?;
        g.va.address_free(va, size)?;
        g.native.remove(&va.as_u64());
        let now = g.clock.now_ns();
        let ns = (g.events.max_frontier(now) - now) + g.config.cost.mem_free_ns(size);
        g.charge(ns);
        g.stats.mem_free.record(ns);
        Ok(())
    }

    // ------------------------------------------------------------------
    // VMM path
    // ------------------------------------------------------------------

    fn check_aligned(value: u64, granularity: u64) -> DriverResult<()> {
        if !value.is_multiple_of(granularity) {
            Err(DriverError::Misaligned { value, granularity })
        } else {
            Ok(())
        }
    }

    /// `cuMemAddressReserve`: reserves `size` bytes of contiguous virtual
    /// address space (must be a multiple of the granularity).
    pub fn mem_address_reserve(&self, size: u64) -> DriverResult<VirtAddr> {
        let mut g = self.inner.lock();
        g.inject(FaultOp::AddressReserve)?;
        Self::check_aligned(size, GRANULARITY)?;
        let va = g.va.reserve(size, GRANULARITY)?;
        let ns = g.config.cost.address_reserve_ns(size);
        g.charge(ns);
        g.stats.address_reserve.record(ns);
        Ok(va)
    }

    /// `cuMemAddressFree`: releases a reservation (which must hold no
    /// mappings).
    pub fn mem_address_free(&self, va: VirtAddr, size: u64) -> DriverResult<()> {
        let mut g = self.inner.lock();
        g.inject(FaultOp::AddressFree)?;
        g.va.address_free(va, size)?;
        let ns = g.config.cost.address_free_ns();
        g.charge(ns);
        g.stats.address_free.record(ns);
        Ok(())
    }

    /// `cuMemCreate`: allocates `size` bytes of physical device memory
    /// (multiple of the granularity) and returns its handle.
    pub fn mem_create(&self, size: u64) -> DriverResult<PhysHandle> {
        let mut g = self.inner.lock();
        g.inject(FaultOp::Create)?;
        Self::check_aligned(size, GRANULARITY)?;
        let backing = g.config.backing;
        let capacity = g.config.capacity;
        let h = g.phys.create(size, capacity, backing)?;
        let ns = g.config.cost.create_ns(size);
        g.charge(ns);
        g.stats.create.record(ns);
        Ok(h)
    }

    /// `cuMemRelease`: drops the creation reference of `h`. Physical memory
    /// is freed once no mapping references it.
    pub fn mem_release(&self, h: PhysHandle) -> DriverResult<()> {
        let mut g = self.inner.lock();
        g.inject(FaultOp::Release)?;
        g.phys.release(h)?;
        let ns = g.config.cost.release_ns();
        g.charge(ns);
        g.stats.release.record(ns);
        Ok(())
    }

    /// `cuMemMap`: maps the first `size` bytes of `h` at virtual address
    /// `va`. As in CUDA, `offset` must be zero ("currently must be zero" in
    /// the `cuMemMap` reference); any other value is rejected with
    /// [`DriverError::MapOffset`]. `va` and `size` must be
    /// granularity-aligned; the target range must lie inside one
    /// reservation and be unmapped. Access starts disabled.
    pub fn mem_map(&self, va: VirtAddr, size: u64, offset: u64, h: PhysHandle) -> DriverResult<()> {
        if offset != 0 {
            return Err(DriverError::MapOffset(offset));
        }
        self.mem_map_window(va, size, 0, h)
    }

    /// **Not a CUDA call**: [`CudaDriver::mem_map`] with the offset
    /// restriction lifted, mapping `size` bytes of `h` starting at byte
    /// `offset` within the handle. This models a hypothetical driver; real
    /// `cuMemMap` rejects a non-zero offset, so a layout built on windows
    /// (GMLake's stitch of one piece of a shared handle) does not run on
    /// CUDA as it stands, and its measured cost does not transfer. `offset`
    /// must be granularity-aligned; everything else is as for `mem_map`,
    /// and it is costed and counted as one `map` call.
    pub fn mem_map_window(
        &self,
        va: VirtAddr,
        size: u64,
        offset: u64,
        h: PhysHandle,
    ) -> DriverResult<()> {
        let mut g = self.inner.lock();
        g.inject(FaultOp::Map)?;
        let gran = GRANULARITY;
        Self::check_aligned(va.as_u64(), gran)?;
        Self::check_aligned(size, gran)?;
        Self::check_aligned(offset, gran)?;
        g.phys.check_mappable(h, offset, size)?;
        g.va.map(va, size, h, offset)?;
        g.phys.add_map(h).expect("checked above");
        let ns = g.config.cost.map_ns(size);
        g.charge(ns);
        g.stats.map.record(ns);
        Ok(())
    }

    /// `cuMemUnmap`: unmaps `[va, va + size)`, which must exactly cover whole
    /// mappings. One call however many mapping entries the range covers,
    /// priced by [`CostModel::unmap_ns`](crate::CostModel::unmap_ns) for
    /// that many entries.
    pub fn mem_unmap(&self, va: VirtAddr, size: u64) -> DriverResult<()> {
        let mut g = self.inner.lock();
        g.inject(FaultOp::Unmap)?;
        let handles = g.va.unmap(va, size)?;
        let n = handles.len() as u64;
        for h in handles {
            g.phys.remove_map(h).expect("mapping existed");
        }
        let ns = g.config.cost.unmap_ns(n);
        g.charge(ns);
        g.stats.unmap.record(ns);
        Ok(())
    }

    /// `cuMemSetAccess`: enables (or disables) access on `[va, va + size)`,
    /// which must be fully mapped. Cost is charged per mapped chunk, matching
    /// the paper's Table 1 accounting.
    pub fn mem_set_access(&self, va: VirtAddr, size: u64, enable: bool) -> DriverResult<()> {
        let mut g = self.inner.lock();
        g.inject(FaultOp::SetAccess)?;
        let lens = g.va.set_access(va, size, enable)?;
        let mut ns = 0;
        for len in &lens {
            ns += g.config.cost.set_access_ns(*len);
        }
        g.charge(ns);
        g.stats.set_access.record(ns);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Streams and events
    // ------------------------------------------------------------------

    /// Enqueues `duration_ns` of asynchronous work (a kernel, a collective,
    /// a copy) on `stream`: the stream's completion frontier advances by
    /// the duration while the host clock only pays the launch dispatch —
    /// exactly how a CUDA launch returns immediately. Events recorded on
    /// the stream afterwards complete once the host clock catches up to
    /// the frontier (driver-call costs, [`CudaDriver::advance_clock`], or a
    /// synchronize).
    pub fn stream_launch(&self, stream: StreamId, duration_ns: u64) {
        let mut g = self.inner.lock();
        let now = g.clock.now_ns();
        g.events.launch(stream, now, duration_ns);
        let ns = g.config.cost.dispatch_ns();
        g.charge(ns);
        g.stats.launch.record(ns);
    }

    /// The stream's completion frontier: the simulated time at which every
    /// operation enqueued on it so far has finished (never before "now").
    pub fn stream_frontier_ns(&self, stream: StreamId) -> u64 {
        let g = self.inner.lock();
        g.events.frontier(stream, g.clock.now_ns())
    }

    /// `cuCtxSynchronize`: blocks the host until every stream's in-flight
    /// work has finished, advancing the clock to the latest frontier, and
    /// forgets every event that completed. Returns the nanoseconds waited.
    /// Recorded under the `event_sync` telemetry (wait included).
    pub fn device_synchronize(&self) -> u64 {
        let mut g = self.inner.lock();
        let now = g.clock.now_ns();
        let wait = g.events.max_frontier(now) - now;
        let ns = wait + g.config.cost.event_sync_ns();
        g.charge(ns);
        g.stats.event_sync.record(ns);
        let caught_up = g.clock.now_ns();
        g.events.forget_completed(caught_up);
        wait
    }

    /// `cuStreamWaitEvent`: makes all work enqueued on `stream` from now on
    /// wait until `event` completes, without blocking the host — the
    /// stream's frontier rises to the event's completion and the clock pays
    /// only the enqueue. An event already complete (or unknown) changes
    /// nothing. Recorded under the `event_wait` telemetry, never under
    /// `launch`.
    pub fn stream_wait_event(&self, stream: StreamId, event: EventId) {
        let mut g = self.inner.lock();
        let now = g.clock.now_ns();
        g.events.wait(stream, event, now);
        let ns = g.config.cost.event_wait_ns();
        g.charge(ns);
        g.stats.event_wait.record(ns);
    }

    /// `cuEventRecord`: drops a completion marker into `stream`'s queue and
    /// returns its id. The event completes once all work enqueued on the
    /// stream before this call has finished.
    ///
    /// # Fault injection
    ///
    /// The API is infallible, so an injected [`FaultOp::EventRecord`]
    /// cannot surface as an error. Instead the call degrades to the safe
    /// synchronous fallback a runtime uses when event machinery fails: it
    /// waits out the stream's in-flight work (advancing the clock to the
    /// stream frontier) and returns a marker that is already complete at
    /// record time. Anything guarded by the returned event has genuinely
    /// finished — degraded, never unsafe.
    pub fn event_record(&self, stream: StreamId) -> EventId {
        let mut g = self.inner.lock();
        let now = g.clock.now_ns();
        if g.inject(FaultOp::EventRecord).is_err() {
            let wait = g.events.frontier(stream, now) - now;
            let ns = wait + g.config.cost.event_record_ns();
            g.charge(ns);
            g.stats.event_record.record(ns);
            let caught_up = g.clock.now_ns();
            return g.events.record(stream, caught_up).0;
        }
        let (event, _ready_at) = g.events.record(stream, now);
        let ns = g.config.cost.event_record_ns();
        g.charge(ns);
        g.stats.event_record.record(ns);
        event
    }

    /// [`CudaDriver::event_record`] variant that answers "was there
    /// anything to wait for?" in the same driver entry: returns `None` —
    /// without tracking an event — when `stream` has no work in flight
    /// (the marker would complete at record time), and records a pending
    /// event otherwise. Costed and counted exactly like `event_record`;
    /// the cores' cross-stream frees use it to skip caught-up streams.
    pub fn event_record_if_pending(&self, stream: StreamId) -> Option<EventId> {
        let mut g = self.inner.lock();
        let now = g.clock.now_ns();
        if g.inject(FaultOp::EventRecord).is_err() {
            // Same degraded fallback as `event_record`: synchronize the
            // stream, then truthfully report "nothing left to wait for".
            let wait = g.events.frontier(stream, now) - now;
            let ns = wait + g.config.cost.event_record_ns();
            g.charge(ns);
            g.stats.event_record.record(ns);
            return None;
        }
        let result = if g.events.frontier(stream, now) > now {
            Some(g.events.record(stream, now).0)
        } else {
            None
        };
        let ns = g.config.cost.event_record_ns();
        g.charge(ns);
        g.stats.event_record.record(ns);
        result
    }

    /// `cuEventQuery`: polls `event` without blocking; `true` once it has
    /// completed. Events the driver no longer tracks (already observed
    /// complete, or complete at record time) report `true`.
    pub fn event_query(&self, event: EventId) -> bool {
        let mut g = self.inner.lock();
        let ns = g.config.cost.event_query_ns();
        g.charge(ns);
        g.stats.event_query.record(ns);
        match g.events.completion_of(event) {
            Some(at) if at > g.clock.now_ns() => false,
            Some(_) => {
                g.events.prune(event);
                true
            }
            None => true,
        }
    }

    /// `cuEventSynchronize`: blocks the host (advances the clock) until
    /// `event` has completed. The `event_sync` telemetry records the wait
    /// plus the fixed call cost.
    pub fn event_synchronize(&self, event: EventId) {
        let mut g = self.inner.lock();
        let mut ns = g.config.cost.event_sync_ns();
        if let Some(at) = g.events.completion_of(event) {
            ns += at.saturating_sub(g.clock.now_ns());
            g.events.prune(event);
        }
        g.charge(ns);
        g.stats.event_sync.record(ns);
    }

    /// Outstanding (recorded, not yet observed complete) events — leak
    /// telemetry for tests.
    pub fn outstanding_events(&self) -> usize {
        self.inner.lock().events.outstanding()
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    /// The physical granules backing `[va, va + len)`, in address order, each
    /// as its handle and its granule-aligned byte offset within the handle —
    /// what a kernel touching the range touches, precise however many
    /// granules one handle holds. An inspection helper for tests: not a
    /// driver call, so it is neither costed nor counted. The range must be
    /// mapped with access enabled.
    pub fn translate(&self, va: VirtAddr, len: u64) -> DriverResult<Vec<(PhysHandle, u64)>> {
        let g = self.inner.lock();
        let gran = GRANULARITY;
        let extents = g.va.resolve(va, len)?;
        let granules = extents.into_iter().flat_map(|e| {
            let first = e.handle_off - e.handle_off % gran;
            let offsets = (first..e.handle_off + e.len).step_by(gran as usize);
            offsets.map(move |off| (e.handle, off))
        });
        Ok(granules.collect())
    }

    /// Copies `data` from host to device at `va`. Requires the device to be
    /// configured with byte backing and the range to be mapped + accessible.
    pub fn memcpy_htod(&self, va: VirtAddr, data: &[u8]) -> DriverResult<()> {
        let mut g = self.inner.lock();
        if !g.config.backing {
            return Err(DriverError::BackingDisabled);
        }
        let extents = g.va.resolve(va, data.len() as u64)?;
        let mut cursor = 0usize;
        for e in extents {
            let end = cursor + e.len as usize;
            g.phys.write(e.handle, e.handle_off, &data[cursor..end])?;
            cursor = end;
        }
        let ns = g.config.cost.memcpy_ns(data.len() as u64);
        g.charge(ns);
        g.stats.memcpy.record(ns);
        Ok(())
    }

    /// Copies from device at `va` into `buf`.
    pub fn memcpy_dtoh(&self, va: VirtAddr, buf: &mut [u8]) -> DriverResult<()> {
        let mut g = self.inner.lock();
        if !g.config.backing {
            return Err(DriverError::BackingDisabled);
        }
        let extents = g.va.resolve(va, buf.len() as u64)?;
        let mut cursor = 0usize;
        for e in extents {
            let end = cursor + e.len as usize;
            g.phys.read(e.handle, e.handle_off, &mut buf[cursor..end])?;
            cursor = end;
        }
        let ns = g.config.cost.memcpy_ns(buf.len() as u64);
        g.charge(ns);
        g.stats.memcpy.record(ns);
        Ok(())
    }

    /// Fills `size` bytes at `va` with `value`.
    pub fn memset_d8(&self, va: VirtAddr, value: u8, size: u64) -> DriverResult<()> {
        let mut g = self.inner.lock();
        if !g.config.backing {
            return Err(DriverError::BackingDisabled);
        }
        let extents = g.va.resolve(va, size)?;
        for e in extents {
            let chunk = vec![value; e.len as usize];
            g.phys.write(e.handle, e.handle_off, &chunk)?;
        }
        let ns = g.config.cost.memcpy_ns(size);
        g.charge(ns);
        g.stats.memcpy.record(ns);
        Ok(())
    }
}

/// The simulated driver *is* a stream-event source: a `DeviceAllocator`
/// front-end built with a clone of the device's driver records and waits
/// out its cross-stream-free events on the same simulated clock the
/// workload advances, with every call costed as a driver entry.
///
/// The driver lock is a leaf — no driver call ever re-enters an allocator —
/// so this implementation satisfies the [`EventSource`] ordering contract.
impl EventSource for CudaDriver {
    fn record(&self, stream: StreamId) -> EventId {
        self.event_record(stream)
    }

    fn synchronize(&self, event: EventId) {
        self.event_synchronize(event)
    }
}

/// The simulated clock is the workspace's telemetry timestamp source:
/// attaching a driver to a [`PoolTelemetry`](gmlake_telemetry::PoolTelemetry)
/// stamps trace records and timeline samples in simulated nanoseconds.
impl gmlake_telemetry::TelemetryClock for CudaDriver {
    fn now_ns(&self) -> u64 {
        CudaDriver::now_ns(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlake_alloc_api::mib;

    fn test_driver() -> CudaDriver {
        CudaDriver::new(DeviceConfig::small_test())
    }

    #[test]
    fn native_alloc_free_roundtrip() {
        let d = test_driver();
        let va = d.mem_alloc(1000).unwrap();
        assert_eq!(d.phys_in_use(), 1000);
        // Data path works on native allocations.
        d.memcpy_htod(va, &[7; 16]).unwrap();
        let mut buf = [0u8; 16];
        d.memcpy_dtoh(va, &mut buf).unwrap();
        assert_eq!(buf, [7; 16]);
        d.mem_free(va).unwrap();
        assert_eq!(d.phys_in_use(), 0);
        assert!(d.snapshot().is_quiescent());
    }

    #[test]
    fn native_free_of_unknown_pointer_fails() {
        let d = test_driver();
        assert!(matches!(
            d.mem_free(VirtAddr::new(0xdead)).unwrap_err(),
            DriverError::InvalidAddress(_)
        ));
    }

    #[test]
    fn native_oom_leaves_device_unchanged() {
        let d = test_driver();
        let before = d.snapshot();
        let err = d.mem_alloc(mib(512)).unwrap_err(); // capacity 256 MiB
        assert!(matches!(err, DriverError::OutOfMemory { .. }));
        assert_eq!(d.snapshot(), before);
    }

    #[test]
    fn vmm_stitch_two_chunks_and_read_across_boundary() {
        let d = test_driver();
        let gran = d.granularity();
        let va = d.mem_address_reserve(2 * gran).unwrap();
        let h1 = d.mem_create(gran).unwrap();
        let h2 = d.mem_create(gran).unwrap();
        d.mem_map(va, gran, 0, h1).unwrap();
        d.mem_map(va.offset(gran), gran, 0, h2).unwrap();
        d.mem_set_access(va, 2 * gran, true).unwrap();

        let data: Vec<u8> = (0..16).collect();
        let boundary = va.offset(gran - 8);
        d.memcpy_htod(boundary, &data).unwrap();
        let mut buf = vec![0u8; 16];
        d.memcpy_dtoh(boundary, &mut buf).unwrap();
        assert_eq!(buf, data);

        d.mem_unmap(va, 2 * gran).unwrap();
        d.mem_release(h1).unwrap();
        d.mem_release(h2).unwrap();
        d.mem_address_free(va, 2 * gran).unwrap();
        assert!(d.snapshot().is_quiescent());
    }

    #[test]
    fn multi_va_aliasing_same_physical_chunk() {
        // The core property GMLake relies on: one PA, two VAs.
        let d = test_driver();
        let gran = d.granularity();
        let h = d.mem_create(gran).unwrap();
        let va1 = d.mem_address_reserve(gran).unwrap();
        let va2 = d.mem_address_reserve(gran).unwrap();
        d.mem_map(va1, gran, 0, h).unwrap();
        d.mem_map(va2, gran, 0, h).unwrap();
        d.mem_set_access(va1, gran, true).unwrap();
        d.mem_set_access(va2, gran, true).unwrap();
        d.memcpy_htod(va1, b"stitched!").unwrap();
        let mut buf = [0u8; 9];
        d.memcpy_dtoh(va2, &mut buf).unwrap();
        assert_eq!(&buf, b"stitched!");
        // Physical memory is charged once, not twice.
        assert_eq!(d.phys_in_use(), gran);
    }

    #[test]
    fn release_defers_until_unmapped() {
        let d = test_driver();
        let gran = d.granularity();
        let h = d.mem_create(gran).unwrap();
        let va = d.mem_address_reserve(gran).unwrap();
        d.mem_map(va, gran, 0, h).unwrap();
        d.mem_release(h).unwrap();
        assert_eq!(d.phys_in_use(), gran, "mapped memory survives release");
        d.mem_unmap(va, gran).unwrap();
        assert_eq!(d.phys_in_use(), 0);
        d.mem_address_free(va, gran).unwrap();
        assert!(d.snapshot().is_quiescent());
    }

    #[test]
    fn misaligned_vmm_calls_are_rejected() {
        let d = test_driver();
        let gran = d.granularity();
        assert!(matches!(
            d.mem_address_reserve(gran + 1).unwrap_err(),
            DriverError::Misaligned { .. }
        ));
        assert!(matches!(
            d.mem_create(gran / 2).unwrap_err(),
            DriverError::Misaligned { .. }
        ));
        let va = d.mem_address_reserve(gran).unwrap();
        let h = d.mem_create(gran).unwrap();
        assert!(matches!(
            d.mem_map(va.offset(1), gran, 0, h).unwrap_err(),
            DriverError::Misaligned { .. }
        ));
    }

    #[test]
    fn map_beyond_handle_bounds_fails() {
        let d = test_driver();
        let gran = d.granularity();
        let va = d.mem_address_reserve(2 * gran).unwrap();
        let h = d.mem_create(gran).unwrap();
        let err = d.mem_map(va, 2 * gran, 0, h).unwrap_err();
        assert!(matches!(err, DriverError::HandleRangeOutOfBounds { .. }));
        // Failure left no mapping behind.
        assert_eq!(d.snapshot().mappings, 0);
    }

    #[test]
    fn access_disabled_until_set_access() {
        let d = test_driver();
        let gran = d.granularity();
        let va = d.mem_address_reserve(gran).unwrap();
        let h = d.mem_create(gran).unwrap();
        d.mem_map(va, gran, 0, h).unwrap();
        assert!(matches!(
            d.memcpy_htod(va, &[1]).unwrap_err(),
            DriverError::AccessDenied(_)
        ));
    }

    #[test]
    fn clock_and_stats_accumulate_with_calibrated_model() {
        let cfg = DeviceConfig::small_test().with_cost(crate::cost::CostModel::calibrated());
        let d = CudaDriver::new(cfg);
        let gran = d.granularity();
        assert_eq!(d.now_ns(), 0);
        let va = d.mem_address_reserve(gran).unwrap();
        let h = d.mem_create(gran).unwrap();
        d.mem_map(va, gran, 0, h).unwrap();
        d.mem_set_access(va, gran, true).unwrap();
        let stats = d.stats();
        assert_eq!(stats.address_reserve.calls, 1);
        assert_eq!(stats.create.calls, 1);
        assert_eq!(stats.map.calls, 1);
        assert_eq!(stats.set_access.calls, 1);
        assert_eq!(d.now_ns(), stats.vmm_time_ns());
        assert!(d.now_ns() > 0);
    }

    #[test]
    fn shared_clones_see_the_same_device() {
        let d = test_driver();
        let d2 = d.clone();
        let _va = d.mem_alloc(mib(1)).unwrap();
        assert_eq!(d2.phys_in_use(), mib(1));
    }

    #[test]
    fn driver_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CudaDriver>();
    }

    #[test]
    fn unmap_range_advances_clock_like_per_chunk_unmaps_minus_dispatch() {
        // Two identical 8-entry ranges; one torn down with n single-entry
        // unmaps, one with a single mem_unmap of the whole range. The one
        // call must cost exactly the per-entry sequence minus the amortized
        // dispatch overhead.
        let cfg = DeviceConfig::small_test().with_cost(crate::cost::CostModel::calibrated());
        let gran = GRANULARITY;
        let n = 8u64;

        let build = |d: &CudaDriver| {
            let va = d.mem_address_reserve(n * gran).unwrap();
            for i in 0..n {
                let h = d.mem_create(gran).unwrap();
                d.mem_map(va.offset(i * gran), gran, 0, h).unwrap();
            }
            va
        };

        let single = CudaDriver::new(cfg.clone());
        let va = build(&single);
        let t0 = single.now_ns();
        for i in 0..n {
            single.mem_unmap(va.offset(i * gran), gran).unwrap();
        }
        let per_entry_ns = single.now_ns() - t0;

        let whole = CudaDriver::new(cfg);
        let va2 = build(&whole);
        let t1 = whole.now_ns();
        whole.mem_unmap(va2, n * gran).unwrap();
        let range_ns = whole.now_ns() - t1;

        let dispatch = whole.cost_model().dispatch_ns();
        assert_eq!(range_ns, per_entry_ns - (n - 1) * dispatch);
        assert_eq!(whole.stats().unmap.calls, 1);
        assert_eq!(single.stats().unmap.calls, n);
        assert_eq!(whole.snapshot().mappings, 0);
    }

    #[test]
    fn memset_fills_across_chunk_boundary() {
        let d = test_driver();
        let gran = d.granularity();
        let va = d.mem_address_reserve(2 * gran).unwrap();
        let h1 = d.mem_create(gran).unwrap();
        let h2 = d.mem_create(gran).unwrap();
        d.mem_map(va, gran, 0, h1).unwrap();
        d.mem_map(va.offset(gran), gran, 0, h2).unwrap();
        d.mem_set_access(va, 2 * gran, true).unwrap();
        d.memset_d8(va.offset(gran - 2), 0x5A, 4).unwrap();
        let mut buf = [0u8; 6];
        d.memcpy_dtoh(va.offset(gran - 3), &mut buf).unwrap();
        assert_eq!(buf, [0, 0x5A, 0x5A, 0x5A, 0x5A, 0]);
    }

    #[test]
    fn data_path_requires_backing_at_driver_level() {
        let d = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let va = d.mem_alloc(4096).unwrap();
        assert_eq!(
            d.memcpy_htod(va, &[1]).unwrap_err(),
            DriverError::BackingDisabled
        );
        assert_eq!(
            d.memset_d8(va, 0, 16).unwrap_err(),
            DriverError::BackingDisabled
        );
    }

    #[test]
    fn snapshot_counts_handles_reservations_mappings() {
        let d = test_driver();
        let gran = d.granularity();
        let va = d.mem_address_reserve(2 * gran).unwrap();
        let h = d.mem_create(2 * gran).unwrap();
        d.mem_map(va, 2 * gran, 0, h).unwrap();
        let snap = d.snapshot();
        assert_eq!(snap.handles, 1);
        assert_eq!(snap.reservations, 1);
        assert_eq!(snap.mappings, 1);
        assert_eq!(snap.va_reserved, 2 * gran);
        assert_eq!(snap.phys_created_total, 2 * gran);
        assert_eq!(snap.peak_phys_in_use, 2 * gran);
    }

    #[test]
    fn events_complete_when_the_host_catches_up_to_the_frontier() {
        let cfg = DeviceConfig::small_test().with_cost(crate::cost::CostModel::calibrated());
        let d = CudaDriver::new(cfg);
        let s = StreamId(1);
        // 1 ms of async work: the launch returns immediately (host pays
        // only the dispatch), the frontier moves a full millisecond.
        let t0 = d.now_ns();
        d.stream_launch(s, 1_000_000);
        assert!(d.now_ns() - t0 < 10_000, "launch is asynchronous");
        assert_eq!(d.stream_frontier_ns(s), t0 + 1_000_000);

        let ev = d.event_record(s);
        assert!(!d.event_query(ev), "work still in flight");
        assert_eq!(d.outstanding_events(), 1);
        // Host catches up past the frontier: the event completes and is
        // garbage-collected; re-querying the pruned id stays true.
        d.advance_clock(2_000_000);
        assert!(d.event_query(ev));
        assert_eq!(d.outstanding_events(), 0);
        assert!(d.event_query(ev), "untracked events report complete");
        let st = d.stats();
        assert_eq!(st.event_record.calls, 1);
        assert_eq!(st.event_query.calls, 3);
        assert_eq!(st.launch.calls, 1);
        assert!(st.event_time_ns() > 0);
    }

    #[test]
    fn event_on_an_idle_stream_is_complete_at_record_time() {
        let d = test_driver(); // zero-cost model
        let ev = d.event_record(StreamId(3));
        assert_eq!(d.outstanding_events(), 0, "never tracked");
        assert!(d.event_query(ev));
    }

    #[test]
    fn record_if_pending_skips_caught_up_streams_but_tracks_busy_ones() {
        let cfg = DeviceConfig::small_test().with_cost(crate::cost::CostModel::calibrated());
        let d = CudaDriver::new(cfg);
        assert!(
            d.event_record_if_pending(StreamId(0)).is_none(),
            "idle stream: nothing to wait for"
        );
        assert_eq!(d.stats().event_record.calls, 1, "the call is still costed");
        assert_eq!(d.outstanding_events(), 0);
        d.stream_launch(StreamId(0), 1_000_000);
        let ev = d
            .event_record_if_pending(StreamId(0))
            .expect("work in flight: a pending event");
        assert!(!d.event_query(ev));
        d.device_synchronize();
        assert!(d.event_query(ev));
    }

    #[test]
    fn event_synchronize_advances_the_clock_to_completion() {
        let cfg = DeviceConfig::small_test().with_cost(crate::cost::CostModel::calibrated());
        let d = CudaDriver::new(cfg);
        d.stream_launch(StreamId(0), 500_000);
        let ev = d.event_record(StreamId(0));
        let ready_at = d.stream_frontier_ns(StreamId(0));
        d.event_synchronize(ev);
        assert!(d.now_ns() >= ready_at, "the host blocked until completion");
        assert!(d.event_query(ev), "synchronized event is complete");
        assert_eq!(d.stats().event_sync.calls, 1);
    }

    #[test]
    fn device_synchronize_drains_every_stream() {
        let cfg = DeviceConfig::small_test().with_cost(crate::cost::CostModel::calibrated());
        let d = CudaDriver::new(cfg);
        d.stream_launch(StreamId(0), 100_000);
        d.stream_launch(StreamId(1), 900_000);
        let e0 = d.event_record(StreamId(0));
        let e1 = d.event_record(StreamId(1));
        let waited = d.device_synchronize();
        assert!(waited > 0);
        assert!(d.now_ns() >= d.stream_frontier_ns(StreamId(1)));
        assert!(d.event_query(e0) && d.event_query(e1));
        assert_eq!(d.device_synchronize(), 0, "already caught up");
    }

    #[test]
    fn stream_wait_on_a_pending_event_queues_the_stream_not_the_host() {
        let cfg = DeviceConfig::small_test().with_cost(crate::cost::CostModel::calibrated());
        let d = CudaDriver::new(cfg);
        d.stream_launch(StreamId(0), 1_000_000);
        let ev = d.event_record(StreamId(0));
        let ready_at = d.stream_frontier_ns(StreamId(0));
        let t0 = d.now_ns();
        d.stream_wait_event(StreamId(1), ev);
        assert_eq!(
            d.now_ns() - t0,
            d.cost_model().event_wait_ns(),
            "no host wait"
        );
        assert_eq!(d.stream_frontier_ns(StreamId(1)), ready_at);
        // Stream 1's next event completes with the awaited one.
        let after = d.event_record(StreamId(1));
        d.event_synchronize(after);
        assert_eq!(d.now_ns(), ready_at + d.cost_model().event_sync_ns());
        let st = d.stats();
        assert_eq!((st.event_wait.calls, st.launch.calls), (1, 1));
        assert_eq!(
            st.total_calls(),
            5,
            "launch, two records, the wait, the sync"
        );
    }

    #[test]
    fn stream_wait_on_a_completed_or_unknown_event_changes_nothing() {
        let cfg = DeviceConfig::small_test().with_cost(crate::cost::CostModel::calibrated());
        let d = CudaDriver::new(cfg);
        d.stream_launch(StreamId(0), 1_000);
        let done = d.event_record(StreamId(0));
        d.advance_clock(2_000);
        d.stream_wait_event(StreamId(1), done);
        assert_eq!(d.outstanding_events(), 0, "a completed event is forgotten");
        d.stream_wait_event(StreamId(1), EventId::new(999));
        assert_eq!(d.stream_frontier_ns(StreamId(1)), d.now_ns(), "caught up");
        assert_eq!(d.device_synchronize(), 0);
        assert_eq!(
            d.stats().event_wait.calls,
            2,
            "each wait is one costed call"
        );
    }

    #[test]
    fn device_synchronize_forgets_events_nobody_waited_on() {
        // The offload replay pattern: compute in flight on stream 0, a
        // buffer produced on stream 1 freed from stream 0 (its event is
        // recorded and never queried), then the iteration boundary.
        let cfg = DeviceConfig::small_test().with_cost(crate::cost::CostModel::calibrated());
        let d = CudaDriver::new(cfg);
        for _ in 0..3 {
            d.stream_launch(StreamId(0), 500_000);
            assert!(d.event_record_if_pending(StreamId(0)).is_some());
        }
        assert_eq!(d.outstanding_events(), 3);
        d.device_synchronize();
        assert_eq!(d.outstanding_events(), 0, "the boundary leaks nothing");
    }

    #[test]
    fn serial_stream_order_is_preserved_across_events() {
        // Two launches, an event between them: the event completes with the
        // FIRST launch, not the second (FIFO stream semantics).
        let cfg = DeviceConfig::small_test().with_cost(crate::cost::CostModel::calibrated());
        let d = CudaDriver::new(cfg);
        let s = StreamId(0);
        d.stream_launch(s, 100_000);
        let mid = d.event_record(s);
        d.stream_launch(s, 900_000);
        let end = d.event_record(s);
        d.advance_clock(200_000);
        assert!(d.event_query(mid), "first launch done");
        assert!(!d.event_query(end), "second still running");
        d.device_synchronize();
        assert!(d.event_query(end));
    }

    #[test]
    fn native_calls_synchronize_in_flight_stream_work() {
        // cudaMalloc/cudaFree imply a device sync: with 1 ms of compute in
        // flight, the call's cost includes waiting it out — the native
        // path cannot overlap allocation with compute (VMM calls can).
        let cfg = DeviceConfig::small_test().with_cost(crate::cost::CostModel::calibrated());
        let d = CudaDriver::new(cfg);
        d.stream_launch(StreamId(0), 1_000_000);
        let t0 = d.now_ns();
        let va = d.mem_alloc(4096).unwrap();
        assert!(
            d.now_ns() - t0 >= 1_000_000,
            "mem_alloc waited for the stream"
        );
        assert_eq!(d.device_synchronize(), 0, "nothing left in flight");
        d.stream_launch(StreamId(1), 500_000);
        let t1 = d.now_ns();
        d.mem_free(va).unwrap();
        assert!(d.now_ns() - t1 >= 500_000, "mem_free waited too");
    }

    #[test]
    fn driver_implements_event_source() {
        // The trait surface the DeviceAllocator consumes, driven through a
        // `dyn` handle exactly as the front-end holds it.
        let d = test_driver();
        let src: &dyn EventSource = &d;
        let ev = src.record(StreamId(2));
        src.synchronize(ev);
        assert_eq!(d.stats().event_record.calls, 1);
        assert_eq!(d.stats().event_sync.calls, 1);
        assert_eq!(d.outstanding_events(), 0);
    }

    #[test]
    fn injected_fault_leaves_device_untouched_and_counts() {
        let d = test_driver();
        let gran = d.granularity();
        d.set_fault_plan(
            crate::FaultPlan::new()
                .fail_nth(crate::FaultOp::AddressReserve, 2)
                .fail_nth(crate::FaultOp::Map, 1),
        );
        let _va = d.mem_address_reserve(gran).unwrap();
        let before = d.snapshot();
        let err = d.mem_address_reserve(gran).unwrap_err();
        assert_eq!(
            err,
            DriverError::Injected {
                op: "mem_address_reserve"
            }
        );
        assert_eq!(d.snapshot(), before, "injection mutated nothing");
        let h = d.mem_create(gran).unwrap();
        let va2 = d.mem_address_reserve(gran).unwrap();
        assert!(matches!(
            d.mem_map(va2, gran, 0, h).unwrap_err(),
            DriverError::Injected { op: "mem_map" }
        ));
        assert_eq!(d.stats().injected_faults, 2);
        // Injected calls are not counted as successful API calls.
        assert_eq!(d.stats().map.calls, 0);
        assert_eq!(d.stats().address_reserve.calls, 2);
        // Clearing the plan stops injection.
        d.clear_fault_plan();
        d.mem_map(va2, gran, 0, h).unwrap();
    }

    #[test]
    fn persistent_fault_keeps_failing_until_cleared() {
        let d = test_driver();
        let gran = d.granularity();
        d.set_fault_plan(crate::FaultPlan::new().fail_from(crate::FaultOp::Create, 1));
        for _ in 0..3 {
            assert!(d.mem_create(gran).is_err());
        }
        d.clear_fault_plan();
        assert!(d.mem_create(gran).is_ok());
        assert_eq!(d.stats().injected_faults, 3);
    }

    #[test]
    fn event_record_fault_degrades_to_stream_synchronize() {
        let cfg = DeviceConfig::small_test().with_cost(crate::cost::CostModel::calibrated());
        let d = CudaDriver::new(cfg);
        let s = StreamId(0);
        d.set_fault_plan(crate::FaultPlan::new().fail_from(crate::FaultOp::EventRecord, 1));
        d.stream_launch(s, 1_000_000);
        let frontier = d.stream_frontier_ns(s);
        let ev = d.event_record(s);
        // Degraded path: the host synchronized the stream, so the returned
        // marker is complete and untracked — a safe answer, never a stale one.
        assert!(d.now_ns() >= frontier, "record waited out the stream");
        assert_eq!(d.outstanding_events(), 0);
        assert!(d.event_query(ev));
        // The record-if-pending variant degrades to None ("caught up").
        d.stream_launch(s, 1_000_000);
        assert!(d.event_record_if_pending(s).is_none());
        assert_eq!(d.device_synchronize(), 0, "stream was drained");
        assert_eq!(d.stats().injected_faults, 2);
    }

    #[test]
    fn chosen_error_surfaces_through_the_driver() {
        let d = test_driver();
        let gran = d.granularity();
        d.set_fault_plan(crate::FaultPlan::new().fail_nth_with(
            crate::FaultOp::Create,
            1,
            DriverError::OutOfMemory {
                requested: gran,
                in_use: 0,
                capacity: mib(256),
            },
        ));
        assert!(matches!(
            d.mem_create(gran).unwrap_err(),
            DriverError::OutOfMemory { .. }
        ));
        assert!(d.mem_create(gran).is_ok(), "transient: retry succeeds");
    }

    #[test]
    fn mem_map_rejects_a_nonzero_offset_as_cuda_does() {
        let d = test_driver();
        let gran = d.granularity();
        let h = d.mem_create(4 * gran).unwrap();
        let va = d.mem_address_reserve(2 * gran).unwrap();
        let before = (d.now_ns(), d.stats().map.calls);
        assert_eq!(
            d.mem_map(va, 2 * gran, gran, h).unwrap_err(),
            DriverError::MapOffset(gran)
        );
        assert_eq!(
            (d.now_ns(), d.stats().map.calls),
            before,
            "rejected untouched"
        );
        // The VA is still free: offset 0 maps there.
        d.mem_map(va, 2 * gran, 0, h).unwrap();
    }

    #[test]
    fn partial_map_of_large_handle_works() {
        // A 4-chunk handle mapped at a 2-chunk window with offset, which
        // only the hypothetical `mem_map_window` allows.
        let d = test_driver();
        let gran = d.granularity();
        let h = d.mem_create(4 * gran).unwrap();
        let va = d.mem_address_reserve(2 * gran).unwrap();
        d.mem_map_window(va, 2 * gran, gran, h).unwrap(); // middle of the handle
        d.mem_set_access(va, 2 * gran, true).unwrap();
        d.memcpy_htod(va, b"mid").unwrap();
        // The same bytes are visible through a full-handle mapping.
        let va2 = d.mem_address_reserve(4 * gran).unwrap();
        d.mem_map(va2, 4 * gran, 0, h).unwrap();
        d.mem_set_access(va2, 4 * gran, true).unwrap();
        let mut buf = [0u8; 3];
        d.memcpy_dtoh(va2.offset(gran), &mut buf).unwrap();
        assert_eq!(&buf, b"mid");
    }
}
