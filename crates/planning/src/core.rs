//! [`PlannedCore`]: the record → plan → serve layer over any allocator core.
//!
//! # Lifecycle
//!
//! A `PlannedCore<C>` wraps a fallback core `C`, any [`AllocatorCore`]
//! ([`GmLakeAllocator`] by default). A fresh one starts in **recording**
//! mode: every request is served by the fallback (so iteration 1 behaves
//! exactly like the bare core) while an [`IterationRecorder`] captures
//! the sequence. At the next [`iteration_boundary`], the transient
//! intervals are handed to the offline planner, the fallback's warm-up
//! cache is released, and a single virtually-contiguous **arena** sized to
//! the plan's capacity is mapped. The core then enters **serving** mode:
//! a request whose `(size, stream)` matches the next recorded slot, and
//! whose range no live slot occupies, is answered from the plan with
//! *zero* driver calls; everything else —
//! mismatched sizes, unexpected frees, mid-iteration growth — is routed to
//! the fallback, whose own machinery (GMLake's stitching and fault
//! rollback, a caching allocator's splitting) applies.
//!
//! # Replanning
//!
//! When the workload drifts (the per-iteration plan hit rate falls below
//! `REPLAN_HIT_FLOOR`, one half) and no plan slot is live, the
//! arena is torn down and the core returns to recording; the next
//! boundary installs a fresh plan. [`release_cached`] — the reactive OOM
//! fallback — does the same, so a planned core never pins memory the
//! device needs back.
//!
//! [`iteration_boundary`]: AllocatorCore::iteration_boundary
//! [`release_cached`]: AllocatorCore::release_cached

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use gmlake_alloc_api::{
    AllocError, AllocRequest, Allocation, AllocationId, AllocatorCore, FaultJournalStats, IdMap,
    MemStats, StreamId, VirtAddr,
};
use gmlake_core::{GmLakeAllocator, GmLakeConfig};
use gmlake_gpu_sim::{CudaDriver, PhysHandle};
use gmlake_telemetry::{EventKind, PoolTelemetry};

use crate::plan::MemoryPlan;
use crate::recorder::IterationRecorder;

/// Minimum transient intervals a recorded window must contain before a
/// plan is built; smaller windows keep recording.
const MIN_PLAN_INTERVALS: usize = 4;

/// Per-iteration plan hit-rate floor; a served iteration below it triggers
/// a replan at the next boundary (once no slot is live).
const REPLAN_HIT_FLOOR: f64 = 0.5;

/// The argument of [`PlannedCore::new`]. It has no fields: the plan side
/// has no setting, and the fallback core comes configured. It stays because
/// the benchmark package builds its planned stack as
/// `PlannedCore::new(driver, PlannedConfig::default())`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannedConfig {}

/// Cumulative planning counters, also mirrored into `gmlake-telemetry`
/// ([`EventKind::PlanHit`] / [`EventKind::PlanResidue`] /
/// [`EventKind::Replan`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCounters {
    /// Allocations served straight from the plan (no driver call).
    pub plan_hits: u64,
    /// Allocations routed to the reactive fallback while a plan was
    /// installed.
    pub residue_allocs: u64,
    /// Residue allocations whose class had a queued slot that could not
    /// be handed out because a live slot still occupies part of its
    /// range (the trace ran out of recorded order).
    pub space_blocked: u64,
    /// Frees routed to the fallback while a plan was installed.
    pub residue_frees: u64,
    /// Plans built and installed.
    pub plans_built: u64,
    /// Plans discarded (drift replans and `release_cached` teardowns).
    pub replans: u64,
    /// Plan installs aborted because the arena could not be materialized.
    pub plan_aborts: u64,
}

impl PlanCounters {
    /// Lifetime plan hit rate over all alloc traffic seen while serving.
    pub fn hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.residue_allocs;
        if total == 0 {
            0.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }
}

/// Where a live allocation handed out by the planned core actually lives.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// Plan slot index into `InstalledPlan::slots`.
    Plan(u32),
    /// Id inside the fallback core, plus the served size
    /// it charged (needed to mirror its accounting on free).
    Fallback(AllocationId, u64),
}

/// The mapped arena backing an installed plan: one VA reservation of the
/// plan capacity rounded up to the driver granularity, fully mapped to one
/// physical handle.
#[derive(Debug)]
struct Arena {
    base: VirtAddr,
    bytes: u64,
    handle: PhysHandle,
}

#[derive(Debug)]
struct InstalledPlan {
    plan: MemoryPlan,
    arena: Arena,
    /// `offset → end` of every live slot. A slot is handed out only when
    /// no live range overlaps it, so the ranges are pairwise disjoint and
    /// one probe for the nearest range starting below a slot's end
    /// answers "is its space free": `O(log L)` for `L` live slots, and
    /// nothing is precomputed per slot pair.
    live_ranges: BTreeMap<u64, u64>,
    live: Vec<bool>,
    /// FIFO of not-yet-consumed slots per `(size, stream)`, in recorded
    /// alloc-tick order; refilled in place at each iteration boundary.
    /// Sorted by key so the hit path is a hash-free binary search over
    /// the few dozen size classes a model has.
    queues: Vec<((u64, u32), VecDeque<u32>)>,
    /// Per-slot index into `queues`, fixed at install.
    class: Vec<u32>,
    live_bytes: u64,
    iter_hits: u64,
    iter_misses: u64,
}

impl InstalledPlan {
    fn new(plan: MemoryPlan, arena: Arena) -> Self {
        let mut keys: Vec<(u64, u32)> = plan.slots.iter().map(|s| (s.size, s.stream)).collect();
        keys.sort_unstable();
        keys.dedup();
        let class = plan
            .slots
            .iter()
            .map(|s| keys.binary_search(&(s.size, s.stream)).expect("keyed") as u32)
            .collect();
        let mut installed = InstalledPlan {
            live: vec![false; plan.slots.len()],
            plan,
            arena,
            live_ranges: BTreeMap::new(),
            queues: keys.into_iter().map(|k| (k, VecDeque::new())).collect(),
            class,
            live_bytes: 0,
            iter_hits: 0,
            iter_misses: 0,
        };
        installed.rebuild_queues();
        installed
    }

    /// Re-enqueues every non-live slot in recorded alloc-tick order
    /// (slots are already sorted by alloc tick in `plan.slots`), reusing
    /// the queues' storage.
    fn rebuild_queues(&mut self) {
        for (_, queue) in &mut self.queues {
            queue.clear();
        }
        for (i, &class) in self.class.iter().enumerate() {
            if !self.live[i] {
                self.queues[class as usize].1.push_back(i as u32);
            }
        }
        self.iter_hits = 0;
        self.iter_misses = 0;
    }

    /// Tries to serve `(size, stream)` from the plan. Returns the slot
    /// index, or `None` when no matching slot is available: the queue is
    /// empty, or the next slot's address range is still occupied (counted
    /// in `space_blocked`).
    fn take(&mut self, size: u64, stream: u32, space_blocked: &mut u64) -> Option<u32> {
        let idx = self
            .queues
            .binary_search_by_key(&(size, stream), |(k, _)| *k)
            .ok()?;
        let queue = &mut self.queues[idx].1;
        let &front = queue.front()?;
        let slot = &self.plan.slots[front as usize];
        let end = slot.offset + slot.size;
        let below = self.live_ranges.range(..end).next_back();
        if below.is_some_and(|(_, &live_end)| live_end > slot.offset) {
            *space_blocked += 1;
            return None;
        }
        queue.pop_front();
        self.live_ranges.insert(slot.offset, end);
        self.live[front as usize] = true;
        self.live_bytes += size;
        Some(front)
    }

    fn release(&mut self, slot: u32) {
        debug_assert!(self.live[slot as usize]);
        self.live[slot as usize] = false;
        let slot = &self.plan.slots[slot as usize];
        self.live_bytes -= slot.size;
        self.live_ranges.remove(&slot.offset);
    }

    fn is_idle(&self) -> bool {
        self.live_ranges.is_empty()
    }

    /// Checks that `live_ranges` holds exactly the live slots' ranges and
    /// that they are pairwise disjoint.
    fn validate_ranges(&self) -> Result<(), String> {
        let mut ranges = Vec::new();
        for (s, _) in self.plan.slots.iter().zip(&self.live).filter(|p| *p.1) {
            ranges.push((s.offset, s.offset + s.size));
        }
        ranges.sort_unstable();
        if let Some(pair) = ranges.windows(2).find(|pair| pair[0].1 > pair[1].0) {
            return Err(format!("live slot ranges {pair:?} overlap"));
        }
        if ranges.into_iter().collect::<BTreeMap<_, _>>() != self.live_ranges {
            return Err("live range map does not match the live slots".into());
        }
        Ok(())
    }
}

/// The STAlloc-style spatio-temporal planning layer over the fallback
/// core `C`, which serves the recording window and the residue. See the
/// module docs for the record → plan → serve lifecycle.
#[derive(Debug)]
pub struct PlannedCore<C: AllocatorCore = GmLakeAllocator> {
    driver: CudaDriver,
    fallback: C,
    recorder: IterationRecorder,
    /// The plan being served; `None` while recording.
    installed: Option<InstalledPlan>,
    /// Where each live id lives. The plan-hit path is two table touches,
    /// so the ids take the cheap [`IdMap`] hasher.
    routes: IdMap<AllocationId, Route>,
    next_id: u64,
    stats: MemStats,
    counters: PlanCounters,
    telemetry: Option<Arc<PoolTelemetry>>,
}

impl PlannedCore {
    /// Creates a planned core over `driver` with a default-configured
    /// [`GmLakeAllocator`] as its fallback, starting in recording mode.
    pub fn new(driver: CudaDriver, _config: PlannedConfig) -> Self {
        let fallback = GmLakeAllocator::new(driver.clone(), GmLakeConfig::default());
        PlannedCore::with_fallback(driver, fallback)
    }

    /// Attaches a telemetry recorder to the plan side and the fallback.
    pub fn set_telemetry(&mut self, telemetry: Arc<PoolTelemetry>) {
        self.fallback.set_telemetry(Arc::clone(&telemetry));
        self.telemetry = Some(telemetry);
    }
}

impl<C: AllocatorCore> PlannedCore<C> {
    /// Creates a planned core over `driver` in front of `fallback`, a
    /// ready-built core on the same driver, starting in recording mode.
    pub fn with_fallback(driver: CudaDriver, fallback: C) -> Self {
        PlannedCore {
            driver,
            fallback,
            recorder: IterationRecorder::default(),
            installed: None,
            routes: IdMap::default(),
            next_id: 1,
            stats: MemStats::default(),
            counters: PlanCounters::default(),
            telemetry: None,
        }
    }

    /// The fallback core.
    pub fn fallback(&self) -> &C {
        &self.fallback
    }

    /// Cumulative planning counters.
    pub fn counters(&self) -> PlanCounters {
        self.counters
    }

    /// True while the core is serving from an installed plan.
    pub fn is_serving(&self) -> bool {
        self.installed.is_some()
    }

    /// A copy of the installed plan, if any.
    pub fn plan(&self) -> Option<MemoryPlan> {
        self.installed.as_ref().map(|p| p.plan.clone())
    }

    fn record(&self, kind: EventKind, bytes: u64, a: u64, b: u64) {
        if let Some(t) = &self.telemetry {
            t.record(kind, bytes, a, b);
        }
    }

    fn mint_id(&mut self) -> AllocationId {
        let id = AllocationId::new(self.next_id);
        self.next_id += 1;
        id
    }

    fn sync_reserved(&mut self) {
        let arena = self.installed.as_ref().map_or(0, |p| p.arena.bytes);
        self.stats
            .set_reserved(arena + self.fallback.stats().reserved_bytes);
    }

    /// Maps a granularity-rounded arena for `capacity` plan bytes: one VA
    /// reservation backed by one physical handle — one create, one map,
    /// one access call regardless of size. Unwinds fully on any failure.
    fn materialize_arena(&self, capacity: u64) -> Result<Arena, gmlake_gpu_sim::DriverError> {
        let gran = self.driver.granularity();
        let bytes = capacity.div_ceil(gran) * gran;
        let va = self.driver.mem_address_reserve(bytes)?;
        let handle = match self.driver.mem_create(bytes) {
            Ok(handle) => handle,
            Err(e) => {
                let _ = self.driver.mem_address_free(va, bytes);
                return Err(e);
            }
        };
        let arena = Arena {
            base: va,
            bytes,
            handle,
        };
        if let Err(e) = self
            .driver
            .mem_map(va, bytes, 0, handle)
            .and_then(|()| self.driver.mem_set_access(va, bytes, true))
        {
            self.teardown_arena(&arena);
            return Err(e);
        }
        Ok(arena)
    }

    /// Best-effort arena teardown (release paths and `Drop` must not
    /// fail; injected faults here at worst orphan simulated state).
    fn teardown_arena(&self, arena: &Arena) {
        let _ = self.driver.mem_unmap(arena.base, arena.bytes);
        let _ = self.driver.mem_release(arena.handle);
        let _ = self.driver.mem_address_free(arena.base, arena.bytes);
    }

    /// Discards the installed plan (arena teardown + back to recording).
    /// Caller must ensure no plan slot is live. Returns the arena bytes
    /// released.
    fn uninstall_plan(&mut self) -> u64 {
        let Some(installed) = self.installed.take() else {
            return 0;
        };
        debug_assert!(installed.is_idle());
        self.teardown_arena(&installed.arena);
        self.counters.replans += 1;
        let bytes = installed.arena.bytes;
        self.record(EventKind::Replan, bytes, self.counters.replans, 0);
        bytes
    }

    /// Closes the recording window and, if it contained enough
    /// transients, installs a plan: build placement → release the
    /// fallback's warm-up cache (so the arena does not double-reserve on
    /// top of it) → materialize the arena. An arena failure (capacity or
    /// injected fault) aborts the install and keeps recording. The
    /// placement dominates the install's host time: first-fit-decreasing
    /// is `O(n log n + P log d)` in the `n` intervals, their `P`
    /// time-overlapping pairs and at most `d` earlier-placed neighbours per
    /// interval; the serving tables are `O(n log n)`.
    fn try_install_plan(&mut self) {
        let intervals = self.recorder.finish_window();
        if intervals.len() < MIN_PLAN_INTERVALS {
            return;
        }
        let plan = MemoryPlan::build(&intervals);
        debug_assert!(plan.validate().is_ok());
        if plan.capacity == 0 {
            return;
        }
        self.fallback.release_cached();
        match self.materialize_arena(plan.capacity) {
            Ok(arena) => {
                self.installed = Some(InstalledPlan::new(plan, arena));
                self.counters.plans_built += 1;
            }
            Err(_) => self.counters.plan_aborts += 1,
        }
    }

    /// [`AllocatorCore::alloc_on_stream`], with `caller` `None` for a
    /// streamless [`AllocatorCore::allocate`]: the plan and the recorder
    /// count that as the default stream, but the fallback is asked
    /// streamless too, so it waits out on the host a block another stream
    /// freed (a GPU wait on the default stream would order the wrong one).
    fn alloc_from(
        &mut self,
        req: AllocRequest,
        caller: Option<StreamId>,
    ) -> Result<Allocation, AllocError> {
        if req.size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let stream = caller.unwrap_or(StreamId::DEFAULT);

        // Plan path: one class lookup and one live-range probe, no driver
        // interaction at all.
        if let Some(installed) = &mut self.installed {
            if let Some(slot) = installed.take(req.size, stream.0, &mut self.counters.space_blocked)
            {
                installed.iter_hits += 1;
                let offset = installed.plan.slots[slot as usize].offset;
                let va = installed.arena.base.offset(offset);
                let id = self.mint_id();
                self.routes.insert(id, Route::Plan(slot));
                // Neither the arena nor the fallback changed, so
                // `reserved` is already in sync — the hit path stays
                // driver-free and lock-free.
                self.stats.on_alloc(req.size, req.size);
                self.counters.plan_hits += 1;
                self.record(EventKind::PlanHit, req.size, slot as u64, stream.0 as u64);
                return Ok(Allocation {
                    id,
                    va,
                    size: req.size,
                    requested: req.size,
                });
            }
            installed.iter_misses += 1;
            self.counters.residue_allocs += 1;
            self.record(EventKind::PlanResidue, req.size, stream.0 as u64, 0);
        }

        // Residue / recording path: the fallback core. Plan tables are
        // never touched here, so a fallback fault leaves the plan intact.
        let ask_fallback = |fallback: &mut C| match caller {
            Some(stream) => fallback.alloc_on_stream(req, stream),
            None => fallback.allocate(req),
        };
        let mut result = ask_fallback(&mut self.fallback);
        if matches!(result, Err(AllocError::OutOfMemory { .. })) {
            // Last-ditch reclaim: surrender an idle arena and retry once.
            let idle_arena = self.installed.as_ref().is_some_and(InstalledPlan::is_idle);
            if idle_arena {
                self.uninstall_plan();
                result = ask_fallback(&mut self.fallback);
            }
        }
        match result {
            Ok(inner) => {
                let id = self.mint_id();
                self.routes
                    .insert(id, Route::Fallback(inner.id, inner.size));
                if self.installed.is_none() {
                    self.recorder.on_alloc(id, req.size, stream);
                }
                self.stats.on_alloc(inner.requested, inner.size);
                self.sync_reserved();
                Ok(Allocation { id, ..inner })
            }
            Err(e) => {
                if matches!(e, AllocError::OutOfMemory { .. }) {
                    self.stats.oom_count += 1;
                }
                self.sync_reserved();
                Err(e)
            }
        }
    }
}

impl<C: AllocatorCore + 'static> AllocatorCore for PlannedCore<C> {
    fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
        self.alloc_from(req, None)
    }

    fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
        self.free_on_stream(id, StreamId::DEFAULT)
    }

    fn alloc_on_stream(
        &mut self,
        req: AllocRequest,
        stream: StreamId,
    ) -> Result<Allocation, AllocError> {
        self.alloc_from(req, Some(stream))
    }

    fn free_on_stream(&mut self, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
        match self.routes.get(&id) {
            Some(&Route::Plan(slot)) => {
                let installed = self.installed.as_mut().expect("plan route without plan");
                let slot_info = &installed.plan.slots[slot as usize];
                let (size, owner) = (slot_info.size, slot_info.stream);
                // Another stream may still be using a slot it frees, and
                // the plan can hand the range to any stream next: wait that
                // stream out on the host before the slot is released.
                if owner != stream.0 {
                    if let Some(event) = self.driver.event_record_if_pending(stream) {
                        self.driver.event_synchronize(event);
                    }
                }
                installed.release(slot);
                self.routes.remove(&id);
                self.stats.on_free(size);
                self.record(EventKind::Free, size, stream.0 as u64, 0);
                Ok(())
            }
            Some(&Route::Fallback(inner, size)) => {
                self.fallback.free_on_stream(inner, stream)?;
                self.routes.remove(&id);
                if self.installed.is_some() {
                    self.counters.residue_frees += 1;
                    self.record(EventKind::PlanResidue, size, stream.0 as u64, 1);
                } else {
                    self.recorder.on_free(id);
                }
                self.stats.on_free(size);
                self.sync_reserved();
                Ok(())
            }
            None => Err(AllocError::UnknownAllocation(id)),
        }
    }

    fn stats(&self) -> MemStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        match self.fallback.name() {
            "gmlake" => "planned-gmlake",
            "pytorch-caching" => "planned-caching",
            _ => "planned",
        }
    }

    fn iteration_boundary(&mut self) {
        self.fallback.iteration_boundary();
        if let Some(installed) = &mut self.installed {
            let (hits, misses) = (installed.iter_hits, installed.iter_misses);
            let drifted = misses > 0 && (hits as f64 / (hits + misses) as f64) < REPLAN_HIT_FLOOR;
            if drifted && installed.is_idle() {
                self.uninstall_plan();
            } else {
                installed.rebuild_queues();
            }
        } else {
            self.try_install_plan();
        }
        self.sync_reserved();
    }

    fn process_events(&mut self) -> u64 {
        self.fallback.process_events()
    }

    fn release_cached(&mut self) -> u64 {
        let mut freed = self.fallback.release_cached();
        let idle_arena = self.installed.as_ref().is_some_and(InstalledPlan::is_idle);
        if idle_arena {
            freed += self.uninstall_plan();
        }
        self.sync_reserved();
        freed
    }

    fn compact(&mut self) -> u64 {
        // Proactive pass: compact the reactive side only. The arena *is*
        // the plan — it is surrendered by `release_cached` (reactive OOM
        // pressure) or a replan, never by routine defrag.
        let freed = self.fallback.compact();
        self.sync_reserved();
        freed
    }

    fn fragmentation(&self) -> f64 {
        // Idle arena bytes are pre-placed capacity, not fragmentation:
        // measure only the reactive side's slack.
        let s = self.stats;
        if s.reserved_bytes == 0 {
            return 0.0;
        }
        let arena_idle = self
            .installed
            .as_ref()
            .map_or(0, |p| p.arena.bytes - p.live_bytes);
        (1.0 - (s.active_bytes + arena_idle) as f64 / s.reserved_bytes as f64).clamp(0.0, 1.0)
    }

    fn fault_journal_stats(&self) -> FaultJournalStats {
        self.fallback.fault_journal_stats()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

impl<C: AllocatorCore> PlannedCore<C> {
    /// Checks every invariant of the plan side; the fallback core checks
    /// its own. Used by the differential and chaos harnesses after every
    /// probe.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut plan_live = 0usize;
        let mut plan_live_bytes = 0u64;
        for route in self.routes.values() {
            if let Route::Plan(slot) = route {
                let installed = self
                    .installed
                    .as_ref()
                    .ok_or("live plan route without an installed plan")?;
                if !installed.live[*slot as usize] {
                    return Err(format!("route to slot {slot} not marked live"));
                }
                plan_live += 1;
                plan_live_bytes += installed.plan.slots[*slot as usize].size;
            }
        }
        if let Some(installed) = &self.installed {
            installed.plan.validate()?;
            installed.validate_ranges()?;
            if installed.live_ranges.len() != plan_live {
                return Err(format!(
                    "{} live slots != live plan routes {plan_live}",
                    installed.live_ranges.len()
                ));
            }
            if installed.live_bytes != plan_live_bytes {
                return Err(format!(
                    "live_bytes {} != live plan route bytes {plan_live_bytes}",
                    installed.live_bytes
                ));
            }
            let gran = self.driver.granularity();
            if installed.arena.bytes != installed.plan.capacity.div_ceil(gran) * gran {
                return Err("arena bytes do not match rounded plan capacity".into());
            }
        } else if plan_live > 0 {
            return Err("plan routes live with no plan installed".into());
        }
        Ok(())
    }
}

impl<C: AllocatorCore> Drop for PlannedCore<C> {
    fn drop(&mut self) {
        if let Some(installed) = self.installed.take() {
            self.teardown_arena(&installed.arena);
        }
        // The fallback's own Drop releases everything it reserved.
    }
}

#[cfg(test)]
mod tests {
    use gmlake_alloc_api::mib;
    use gmlake_gpu_sim::DeviceConfig;
    use proptest::prelude::*;

    use super::*;
    use crate::recorder::LifetimeInterval;

    fn assert_disjoint(live: &[Allocation]) {
        for (i, a) in live.iter().enumerate() {
            for b in &live[i + 1..] {
                let (a_lo, b_lo) = (a.va.as_u64(), b.va.as_u64());
                assert!(
                    a_lo + a.size <= b_lo || b_lo + b.size <= a_lo,
                    "live {a:?} overlaps live {b:?}"
                );
            }
        }
    }

    /// An iteration replayed out of recorded order: a class's front slot
    /// shares its range with a slot that is still live, so the request goes
    /// to residue instead of onto live memory.
    #[test]
    fn reordered_alloc_whose_front_slot_is_occupied_goes_to_residue() {
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let mut core = PlannedCore::new(driver, PlannedConfig::default());
        assert_eq!(core.name(), "planned-gmlake");
        // Four transients that never coexist: the plan stacks them at 0.
        let sizes = [mib(4), mib(6), mib(8), mib(2)];
        for size in sizes {
            let a = core.allocate(AllocRequest::new(size)).unwrap();
            core.deallocate(a.id).unwrap();
        }
        core.iteration_boundary();
        let plan = core.plan().expect("plan installed");
        assert!(plan.slots.iter().all(|s| s.offset == 0));

        let mut live = Vec::new();
        let step = |core: &mut PlannedCore, live: &mut Vec<Allocation>, size: u64| {
            live.push(core.allocate(AllocRequest::new(size)).unwrap());
            assert_disjoint(live);
            core.validate().unwrap();
            core.fallback().validate().unwrap();
        };
        // The last recorded alloc comes first and takes offset 0; the
        // first one's slot is next in its class but overlaps it.
        step(&mut core, &mut live, mib(2));
        step(&mut core, &mut live, mib(4));
        let c = core.counters();
        assert_eq!((c.plan_hits, c.residue_allocs, c.space_blocked), (1, 1, 1));
        // Once the blocker is freed its range serves again, and blocks the
        // next class in turn.
        core.deallocate(live.remove(0).id).unwrap();
        step(&mut core, &mut live, mib(6));
        step(&mut core, &mut live, mib(8));
        let c = core.counters();
        assert_eq!((c.plan_hits, c.residue_allocs, c.space_blocked), (2, 2, 2));
        for a in live.drain(..) {
            core.deallocate(a.id).unwrap();
        }
        core.iteration_boundary();

        // In recorded order every request is a hit and nothing is blocked.
        for size in sizes {
            let a = core.allocate(AllocRequest::new(size)).unwrap();
            core.deallocate(a.id).unwrap();
        }
        let c = core.counters();
        assert_eq!((c.plan_hits, c.residue_allocs, c.space_blocked), (6, 2, 2));
        core.validate().unwrap();
        core.fallback().validate().unwrap();
    }

    /// A fallback that logs every hook it is asked, with the stream, and
    /// answers with distinct values.
    #[derive(Debug, Default)]
    struct Counting {
        log: std::cell::RefCell<Vec<String>>,
        next: u64,
        stats: MemStats,
    }

    impl Counting {
        fn note(&self, call: String) {
            self.log.borrow_mut().push(call);
        }

        fn hand_out(&mut self, call: String, req: AllocRequest) -> Result<Allocation, AllocError> {
            self.note(call);
            self.next += 1;
            self.stats.on_alloc(req.size, req.size);
            Ok(Allocation {
                id: AllocationId::new(self.next),
                va: VirtAddr::new(self.next << 24),
                size: req.size,
                requested: req.size,
            })
        }
    }

    impl AllocatorCore for Counting {
        fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
            self.hand_out("allocate".into(), req)
        }

        fn deallocate(&mut self, _: AllocationId) -> Result<(), AllocError> {
            unreachable!("the planned core frees on a stream")
        }

        fn alloc_on_stream(
            &mut self,
            req: AllocRequest,
            stream: StreamId,
        ) -> Result<Allocation, AllocError> {
            self.hand_out(format!("alloc_on_stream({})", stream.0), req)
        }

        fn free_on_stream(&mut self, _: AllocationId, stream: StreamId) -> Result<(), AllocError> {
            self.note(format!("free_on_stream({})", stream.0));
            Ok(())
        }

        fn stats(&self) -> MemStats {
            self.stats
        }

        fn name(&self) -> &'static str {
            "counting"
        }

        fn iteration_boundary(&mut self) {
            self.note("iteration_boundary".into());
        }

        fn process_events(&mut self) -> u64 {
            self.note("process_events".into());
            7
        }

        fn release_cached(&mut self) -> u64 {
            self.note("release_cached".into());
            11
        }

        fn compact(&mut self) -> u64 {
            self.note("compact".into());
            13
        }

        fn fault_journal_stats(&self) -> FaultJournalStats {
            self.note("fault_journal_stats".into());
            FaultJournalStats {
                failed_ops: 17,
                ..FaultJournalStats::default()
            }
        }
    }

    /// Every hook of the planned core reaches its fallback, with the
    /// caller's stream (or none) and with the fallback's answer passed
    /// back.
    #[test]
    fn every_hook_reaches_the_fallback() {
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let mut core = PlannedCore::with_fallback(driver, Counting::default());
        let a = core.allocate(AllocRequest::new(mib(4))).unwrap();
        let b = core
            .alloc_on_stream(AllocRequest::new(mib(6)), StreamId(1))
            .unwrap();
        core.free_on_stream(b.id, StreamId(1)).unwrap();
        core.deallocate(a.id).unwrap();
        // Two intervals are below `MIN_PLAN_INTERVALS`: no plan installs.
        core.iteration_boundary();
        assert!(!core.is_serving());
        assert_eq!(core.process_events(), 7);
        assert_eq!(core.release_cached(), 11);
        assert_eq!(core.compact(), 13);
        assert_eq!(core.fault_journal_stats().failed_ops, 17);
        assert_eq!(core.name(), "planned");
        assert_eq!(
            *core.fallback().log.borrow(),
            [
                "allocate",
                "alloc_on_stream(1)",
                "free_on_stream(1)",
                "free_on_stream(0)",
                "iteration_boundary",
                "process_events",
                "release_cached",
                "compact",
                "fault_journal_stats",
            ]
        );
        core.validate().unwrap();
    }

    /// Plans over random lifetimes of a few repeated sizes, so classes
    /// hold several slots and slots share address space.
    fn plan_strategy() -> impl Strategy<Value = MemoryPlan> {
        prop::collection::vec(((0u64..64), (1u64..24), (1u64..5), (0u32..2)), 4..40).prop_map(
            |tuples| {
                let intervals: Vec<LifetimeInterval> = tuples
                    .into_iter()
                    .map(|(start, dur, pages, stream)| LifetimeInterval {
                        alloc_tick: start,
                        free_tick: start + dur,
                        size: pages << 12,
                        stream,
                    })
                    .collect();
                MemoryPlan::build(&intervals)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `take` hands out a class's front slot exactly when no live slot
        /// overlaps it — checked against a scan of every live slot — and a
        /// boundary refills each queue with its class's non-live slots in
        /// slot order, over random take / release / boundary programs.
        #[test]
        fn take_matches_a_brute_force_overlap_model(
            plan in plan_strategy(),
            ops in prop::collection::vec(((0u8..4), any::<u32>()), 1..200),
        ) {
            let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
            let arena = Arena {
                base: VirtAddr::NULL,
                bytes: plan.capacity,
                handle: driver.mem_create(driver.granularity()).unwrap(),
            };
            let mut installed = InstalledPlan::new(plan, arena);
            let slots = installed.plan.slots.clone();
            let mut live: Vec<u32> = Vec::new();
            let mut blocked = 0u64;
            for (op, pick) in ops {
                match op {
                    0 | 1 => {
                        let (key, queue) = &installed.queues[pick as usize % installed.queues.len()];
                        let ((size, stream), front) = (*key, queue.front().copied());
                        let free = |f: &u32| {
                            let s = &slots[*f as usize];
                            !live.iter().any(|&l| slots[l as usize].overlaps_space(s))
                        };
                        let expect = front.filter(free);
                        let before = blocked;
                        let got = installed.take(size, stream, &mut blocked);
                        prop_assert_eq!(got, expect);
                        prop_assert_eq!(blocked - before, u64::from(front != got));
                        live.extend(got);
                    }
                    2 if !live.is_empty() => {
                        installed.release(live.swap_remove(pick as usize % live.len()));
                    }
                    _ => {
                        installed.rebuild_queues();
                        for (class, (_, queue)) in installed.queues.iter().enumerate() {
                            let expect = (0..slots.len() as u32).filter(|&i| {
                                installed.class[i as usize] as usize == class && !live.contains(&i)
                            });
                            prop_assert!(queue.iter().copied().eq(expect));
                        }
                    }
                }
                installed.validate_ranges().unwrap();
                for (i, &flag) in installed.live.iter().enumerate() {
                    prop_assert_eq!(flag, live.contains(&(i as u32)));
                }
            }
        }
    }
}
