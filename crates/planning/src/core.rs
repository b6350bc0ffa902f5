//! [`PlannedCore`]: the record → plan → serve allocator backend.
//!
//! # Lifecycle
//!
//! A fresh `PlannedCore` starts in **recording** mode: every request is
//! served by the embedded [`GmLakeAllocator`] (so iteration 1 behaves
//! exactly like the reactive core) while an [`IterationRecorder`] captures
//! the sequence. At the next [`iteration_boundary`], the transient
//! intervals are handed to the offline planner, the fallback's warm-up
//! cache is released, and a single virtually-contiguous **arena** sized to
//! the plan's capacity is mapped. The core then enters **serving** mode:
//! a request whose `(size, stream)` matches the next recorded slot is
//! answered from the plan with *zero* driver calls; everything else —
//! mismatched sizes, unexpected frees, mid-iteration growth — is routed to
//! the fallback, where the full GMLake stitching machinery (and its
//! fault rollback) applies.
//!
//! # Replanning
//!
//! When the workload drifts (the per-iteration plan hit rate falls below
//! [`PlannedConfig::replan_hit_floor`]) and no plan slot is live, the
//! arena is torn down and the core returns to recording; the next
//! boundary installs a fresh plan. [`release_cached`] — the reactive OOM
//! fallback — does the same, so a planned core never pins memory the
//! device needs back.
//!
//! [`iteration_boundary`]: AllocatorCore::iteration_boundary
//! [`release_cached`]: AllocatorCore::release_cached

use std::collections::VecDeque;
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

/// Tuning knobs for [`PlannedCore`].
#[derive(Debug, Clone)]
pub struct PlannedConfig {
    /// Configuration for the embedded reactive fallback.
    pub gmlake: GmLakeConfig,
    /// Minimum transient intervals a recorded window must contain before
    /// a plan is built; smaller windows keep recording.
    pub min_plan_intervals: usize,
    /// Per-iteration plan hit-rate floor; a served iteration below it
    /// triggers a replan at the next boundary (once no slot is live).
    pub replan_hit_floor: f64,
}

impl Default for PlannedConfig {
    fn default() -> Self {
        PlannedConfig {
            gmlake: GmLakeConfig::default(),
            min_plan_intervals: 4,
            replan_hit_floor: 0.5,
        }
    }
}

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
    /// Id inside the embedded fallback allocator, plus the served size
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
    /// Per-slot list of space-overlapping slot indices (precomputed
    /// offline so serving stays O(conflicts), typically O(1)).
    conflicts: Vec<Vec<u32>>,
    /// Per-slot count of *live* space-conflicting slots; a slot may only
    /// be handed out while its count is zero.
    blocked: Vec<u32>,
    live: Vec<bool>,
    /// FIFO of not-yet-consumed slots per `(size, stream)`, in recorded
    /// alloc-tick order; rebuilt at each iteration boundary. Sorted by
    /// key so the hit path is a hash-free binary search over the few
    /// dozen size classes a model has.
    queues: Vec<((u64, u32), VecDeque<u32>)>,
    live_count: usize,
    live_bytes: u64,
    iter_hits: u64,
    iter_misses: u64,
}

impl InstalledPlan {
    fn new(plan: MemoryPlan, arena: Arena) -> Self {
        let n = plan.slots.len();
        let mut conflicts: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if plan.slots[i].overlaps_space(&plan.slots[j]) {
                    conflicts[i].push(j as u32);
                    conflicts[j].push(i as u32);
                }
            }
        }
        let mut installed = InstalledPlan {
            plan,
            arena,
            conflicts,
            blocked: vec![0; n],
            live: vec![false; n],
            queues: Vec::new(),
            live_count: 0,
            live_bytes: 0,
            iter_hits: 0,
            iter_misses: 0,
        };
        installed.rebuild_queues();
        installed
    }

    /// Re-enqueues every non-live slot in recorded alloc-tick order
    /// (slots are already sorted by alloc tick in `plan.slots`).
    fn rebuild_queues(&mut self) {
        let mut grouped: std::collections::BTreeMap<(u64, u32), VecDeque<u32>> =
            std::collections::BTreeMap::new();
        for (i, s) in self.plan.slots.iter().enumerate() {
            if !self.live[i] {
                grouped
                    .entry((s.size, s.stream))
                    .or_default()
                    .push_back(i as u32);
            }
        }
        self.queues = grouped.into_iter().collect();
        self.iter_hits = 0;
        self.iter_misses = 0;
    }

    /// Tries to serve `(size, stream)` from the plan. Returns the slot
    /// index, or `None` when no matching slot is available (queue empty,
    /// or the next slot's address range is still occupied).
    fn take(&mut self, size: u64, stream: u32) -> Option<u32> {
        let idx = self
            .queues
            .binary_search_by_key(&(size, stream), |(k, _)| *k)
            .ok()?;
        let queue = &mut self.queues[idx].1;
        let &front = queue.front()?;
        if self.blocked[front as usize] > 0 {
            return None;
        }
        queue.pop_front();
        self.live[front as usize] = true;
        self.live_count += 1;
        self.live_bytes += size;
        for &c in &self.conflicts[front as usize] {
            self.blocked[c as usize] += 1;
        }
        Some(front)
    }

    fn release(&mut self, slot: u32) {
        debug_assert!(self.live[slot as usize]);
        self.live[slot as usize] = false;
        self.live_count -= 1;
        self.live_bytes -= self.plan.slots[slot as usize].size;
        for i in 0..self.conflicts[slot as usize].len() {
            let c = self.conflicts[slot as usize][i];
            self.blocked[c as usize] -= 1;
        }
    }

    fn iter_hit_rate(&self) -> f64 {
        let total = self.iter_hits + self.iter_misses;
        if total == 0 {
            1.0
        } else {
            self.iter_hits as f64 / total as f64
        }
    }
}

/// The STAlloc-style spatio-temporal planning backend. See the module
/// docs for the record → plan → serve lifecycle.
#[derive(Debug)]
pub struct PlannedCore {
    driver: CudaDriver,
    fallback: GmLakeAllocator,
    config: PlannedConfig,
    recording: bool,
    recorder: IterationRecorder,
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
    /// Creates a planned core over `driver`, starting in recording mode.
    pub fn new(driver: CudaDriver, config: PlannedConfig) -> Self {
        let fallback = GmLakeAllocator::new(driver.clone(), config.gmlake.clone());
        PlannedCore {
            driver,
            fallback,
            config,
            recording: true,
            recorder: IterationRecorder::new(),
            installed: None,
            routes: IdMap::default(),
            next_id: 1,
            stats: MemStats::default(),
            counters: PlanCounters::default(),
            telemetry: None,
        }
    }

    /// Creates a planned core with the default configuration.
    pub fn with_defaults(driver: CudaDriver) -> Self {
        PlannedCore::new(driver, PlannedConfig::default())
    }

    /// Attaches a telemetry recorder (also forwarded to the fallback).
    pub fn set_telemetry(&mut self, telemetry: Arc<PoolTelemetry>) {
        self.fallback.set_telemetry(Arc::clone(&telemetry));
        self.telemetry = Some(telemetry);
    }

    /// The embedded reactive fallback.
    pub fn fallback(&self) -> &GmLakeAllocator {
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

    /// A copy of the installed plan, if any (what the profiler exports).
    pub fn plan(&self) -> Option<MemoryPlan> {
        self.installed.as_ref().map(|p| p.plan.clone())
    }

    /// The fallback's driver-fault journal (empty while no faults fired).
    pub fn fault_journal(&self) -> gmlake_core::FaultJournal {
        self.fallback.fault_journal()
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
        debug_assert_eq!(installed.live_count, 0);
        self.teardown_arena(&installed.arena);
        self.recording = true;
        self.counters.replans += 1;
        self.record(
            EventKind::Replan,
            installed.arena.bytes,
            self.counters.replans,
            0,
        );
        installed.arena.bytes
    }

    /// Closes the recording window and, if it contained enough
    /// transients, installs a plan: build placement → release the
    /// fallback's warm-up cache (so the arena does not double-reserve on
    /// top of it) → materialize the arena. An arena failure (capacity or
    /// injected fault) aborts the install and keeps recording.
    fn try_install_plan(&mut self) {
        let intervals = self.recorder.finish_window();
        if intervals.len() < self.config.min_plan_intervals {
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
                self.recording = false;
                self.counters.plans_built += 1;
            }
            Err(_) => {
                self.counters.plan_aborts += 1;
            }
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

        // Plan path: O(1), no driver interaction at all.
        if let Some(installed) = &mut self.installed {
            if let Some(slot) = installed.take(req.size, stream.0) {
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

        // Residue / recording path: the reactive fallback, with full
        // stitching and fault rollback. Plan tables are never touched
        // here, so a fallback fault leaves the plan intact.
        let ask_fallback = |fallback: &mut GmLakeAllocator| match caller {
            Some(stream) => fallback.alloc_on_stream(req, stream),
            None => fallback.allocate(req),
        };
        let mut result = ask_fallback(&mut self.fallback);
        if matches!(result, Err(AllocError::OutOfMemory { .. })) {
            // Last-ditch reclaim: surrender an idle arena and retry once.
            let idle_arena = self.installed.as_ref().is_some_and(|p| p.live_count == 0);
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
                if self.recording {
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

impl AllocatorCore for PlannedCore {
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
                }
                if self.recording {
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
        "planned-gmlake"
    }

    fn iteration_boundary(&mut self) {
        self.fallback.iteration_boundary();
        if self.recording {
            self.try_install_plan();
        } else if let Some(installed) = &mut self.installed {
            let drifted = installed.iter_misses > 0
                && installed.iter_hit_rate() < self.config.replan_hit_floor;
            if drifted && installed.live_count == 0 {
                self.uninstall_plan();
            } else {
                installed.rebuild_queues();
            }
        }
        self.sync_reserved();
    }

    fn process_events(&mut self) -> u64 {
        self.fallback.process_events()
    }

    fn release_cached(&mut self) -> u64 {
        let mut freed = self.fallback.release_cached();
        let idle_arena = self.installed.as_ref().is_some_and(|p| p.live_count == 0);
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

    fn set_stitch_enabled(&mut self, enabled: bool) {
        self.fallback.set_stitch_enabled(enabled);
    }

    fn fault_journal_stats(&self) -> FaultJournalStats {
        self.fallback.fault_journal_stats()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

impl PlannedCore {
    /// Checks every internal invariant; used by the differential and
    /// chaos harnesses after every probe.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.fallback.validate()?;
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
            if installed.live_count != plan_live {
                return Err(format!(
                    "live_count {} != live plan routes {plan_live}",
                    installed.live_count
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
            // blocked[] must equal the live-conflict count, recomputed.
            for i in 0..installed.plan.slots.len() {
                let expect = installed.conflicts[i]
                    .iter()
                    .filter(|&&c| installed.live[c as usize])
                    .count() as u32;
                if installed.blocked[i] != expect {
                    return Err(format!(
                        "slot {i}: blocked {} != recomputed {expect}",
                        installed.blocked[i]
                    ));
                }
                if installed.live[i] && installed.blocked[i] > 0 {
                    return Err(format!("slot {i} live while space-blocked"));
                }
            }
        } else if plan_live > 0 {
            return Err("plan routes live with no plan installed".into());
        }
        Ok(())
    }
}

impl Drop for PlannedCore {
    fn drop(&mut self) {
        if let Some(installed) = self.installed.take() {
            self.teardown_arena(&installed.arena);
        }
        // The fallback's own Drop releases everything it reserved.
    }
}
