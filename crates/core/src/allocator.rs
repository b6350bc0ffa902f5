//! The GMLake allocator (§3.3 and §4 of the paper).
//!
//! Large requests (≥ 2 MiB) are served by the virtual-memory-stitching
//! machinery: `BestFit` (Algorithm 1) classifies each request into one of
//! the states S1–S4 of Figure 9 and the corresponding post-processing runs:
//!
//! * **S1** exact match — hand out a cached sBlock/pBlock unchanged;
//! * **S2** single larger pBlock — `Split` it (and cache an sBlock stitching
//!   the two halves so the original size can exact-match later);
//! * **S3** multiple pBlocks — `Stitch` them into a new sBlock (splitting
//!   the final candidate so the stitched size matches exactly);
//! * **S4** insufficient — `Alloc` fresh physical chunks, stitching them
//!   with whatever leftovers exist;
//! * **S5** — out of memory.
//!
//! Deallocation is the `Update` function: it only flips activity state;
//! physical memory stays cached in the pools. `StitchFree` evicts
//! least-recently-used inactive sBlock *structures* when the sPool exceeds
//! its capacity; actual physical memory is surrendered only by
//! [`GmLakeAllocator::release_cached`] (the OOM fallback) or on drop.
//!
//! # Hot-path data structures
//!
//! Blocks live in dense [`Slab`] arenas (ids are sequential, lookups are an
//! indexed load). Inactive pBlocks are indexed by a [`TieredPIndex`] — one
//! `(size, id)` set per [`StitchCost`] tier — so `BestFit` is a few
//! `O(log n)` range probes instead of three closure-evaluating sweeps of
//! the pool.
//!
//! A block's tier is *derived from two counters*, never from a scan. Each
//! sBlock counts its active parts (fully inactive ⟺ zero); each pBlock
//! counts the *available* views over it (`avail_refs`: unassigned, zero
//! active parts), so its stitch cost is `referenced_by.is_empty()` /
//! `avail_refs > 0`. Availability can only change at four places — an
//! `active_parts` zero-crossing, `Stitch`, sBlock teardown, and `Split`
//! (children inherit) — and each bumps the counters of exactly the parts
//! concerned.
//!
//! **Cost model.** With `r` views referencing a pBlock, `p` parts per view
//! and `x` of the `r` views crossing zero, one activity flip costs
//! `O(r + x·p)` counter bumps plus `x` updates of the exact-match index
//! (`s_inactive`) — sharing on converged LoRA pools is dense (`r` ≈ 34,
//! `p` ≈ 32 measured on the benchmark's `train_lr`), so these are the terms
//! that matter. The flip moves no pBlock between tiers: a move to or from
//! the unreferenced tier happens where references change (stitch / destroy
//! / split), and a move between the two *referenced* tiers is only recorded
//! as owed (`dirty`). S1 and S2 consult the unreferenced tier and the
//! *union* of the referenced ones, so they run on the index as placed;
//! S3/S4 walk tier by tier, so they first settle the `d` owed moves,
//! `O(d · log n)`. The eviction index `(lru_tick, id)` is touched on
//! stitch / assign / destroy and when a view an eviction scan dropped as
//! blocked becomes evictable again — not on a plain flip.
//!
//! `validate()` is the oracle for all of it: it re-derives every counter
//! and tier by scanning `referenced_by`, and allows placement to lag only
//! for a dirty block and only between the referenced tiers.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use gmlake_alloc_api::{
    AllocError, AllocRequest, Allocation, AllocationId, AllocatorCore, MemStats, StreamId, VirtAddr,
};
use gmlake_caching::CachingAllocator;
use gmlake_gpu_sim::{CudaDriver, DriverError, PhysHandle};
use gmlake_telemetry::log::{self as tlog, Level};
use gmlake_telemetry::{EventKind, PoolTelemetry};

use crate::bestfit::{best_fit_indexed, best_fit_reference, BestFit, StitchCost, TieredPIndex};
use crate::block::{PBlock, PBlockId, SBlock, SBlockId, Target};
use crate::config::{AllocState, GmLakeConfig, StateCounters};
use crate::slab::Slab;

/// Per-allocator record of driver faults survived and what they cost.
///
/// Every multi-call driver sequence (`stitch`, `alloc_new_pblock`, `Split`,
/// the teardown paths) is *transactional*: when a call fails mid-sequence
/// the allocator unwinds the already-performed create/map steps with
/// compensating driver calls and returns [`AllocError::DriverFault`] instead
/// of panicking. Under a *transient* fault the compensating calls always
/// succeed (the fault was consumed by the original call), so a failed op
/// leaves zero residue. Under *persistent* faults the compensation itself
/// can fail; the resources that could not be returned are counted here so
/// tests and operators can reconcile them against driver snapshots.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultJournal {
    /// Driver sequences that failed mid-way and were unwound.
    pub failed_ops: u64,
    /// VA reservations the unwind could not return to the driver.
    pub orphan_vas: u64,
    /// Total bytes of those orphaned reservations.
    pub orphan_va_bytes: u64,
    /// Physical chunk handles the unwind could not release.
    pub orphan_chunks: u64,
}

impl FaultJournal {
    /// `true` when every unwind ran to completion: no VA reservation or
    /// physical chunk outlived its failed operation.
    pub fn is_leak_free(&self) -> bool {
        self.orphan_vas == 0 && self.orphan_va_bytes == 0 && self.orphan_chunks == 0
    }
}

/// Deterministic work counts of the activity-flip and tier-maintenance
/// paths. Hidden: they exist so tests and benches can pin the cost model of
/// the module docs on counters instead of wall-clock.
#[doc(hidden)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkCounters {
    /// sBlock `active_parts` bumps: one per (pBlock flip, referencing view).
    pub sblock_bumps: u64,
    /// Part visits: one per part of a view whose availability changed.
    pub part_visits: u64,
    /// `referenced_by` oracle scans — `validate()` is the only caller.
    pub ref_scans: u64,
    /// Inactive pBlocks moved from one tier of the index to another.
    pub tier_moves: u64,
}

/// The GMLake virtual-memory-stitching allocator.
///
/// # Example
///
/// ```
/// use gmlake_core::{GmLakeAllocator, GmLakeConfig};
/// use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
/// use gmlake_alloc_api::{AllocRequest, AllocatorCore, mib};
///
/// let driver = CudaDriver::new(DeviceConfig::small_test());
/// // Lower the fragmentation limit so MiB-scale doctest blocks may stitch.
/// let config = GmLakeConfig::default().with_frag_limit(mib(2));
/// let mut lake = GmLakeAllocator::new(driver.clone(), config);
///
/// // Two freed blocks of 4 and 6 MiB can serve a 10 MiB tensor without any
/// // new physical allocation: that is virtual memory stitching.
/// let a = lake.allocate(AllocRequest::new(mib(4)))?;
/// let b = lake.allocate(AllocRequest::new(mib(6)))?;
/// lake.deallocate(a.id)?;
/// lake.deallocate(b.id)?;
/// let before = driver.phys_in_use();
/// let c = lake.allocate(AllocRequest::new(mib(10)))?;
/// assert_eq!(driver.phys_in_use(), before, "no new physical memory");
/// # lake.deallocate(c.id)?;
/// # Ok::<(), gmlake_alloc_api::AllocError>(())
/// ```
#[derive(Debug)]
pub struct GmLakeAllocator {
    driver: CudaDriver,
    config: GmLakeConfig,
    chunk: u64,
    host_op_ns: u64,
    /// Whether BestFit decision logging (`GMLAKE_LOG=debug`, or the legacy
    /// `GMLAKE_DEBUG_S3` alias) is on — sampled once at construction so
    /// the per-allocation path never consults the environment.
    log_decisions: bool,
    /// Optional observability sink: stitch-decision trace records and the
    /// BestFit latency histogram. `None` costs one branch per decision.
    telemetry: Option<Arc<PoolTelemetry>>,
    small: CachingAllocator,
    pblocks: Slab<PBlock>,
    sblocks: Slab<SBlock>,
    /// Inactive pBlocks, partitioned by stitch-cost tier, keyed `(size, id)`.
    p_inactive: TieredPIndex,
    /// sBlocks whose parts are all inactive, keyed `(size, id)`.
    s_inactive: BTreeSet<(u64, SBlockId)>,
    /// Eviction index, keyed `(lru_tick, id)`: every evictable view
    /// (unassigned, fully inactive) plus views that were evictable once and
    /// have been blocked since (exactly the sBlocks with `in_evict_index`
    /// set). A view enters when it becomes evictable and leaves when it is
    /// assigned or destroyed; a view that merely gets *blocked* stays, and
    /// `StitchFree` drops it when a victim scan meets it — so an activity
    /// flip costs this index nothing unless it makes a dropped view
    /// evictable again.
    s_evictable: BTreeSet<(u64, SBlockId)>,
    /// Inactive pBlocks whose move between the two referenced tiers is
    /// still owed (exactly the blocks with `dirty` set), paid by
    /// [`Self::settle_tiers`] before an S3/S4 candidate walk.
    dirty: Vec<PBlockId>,
    work: WorkCounters,
    /// Calls of the `referenced_by` oracle scan ([`Self::compute_tier`]),
    /// which takes `&self`; reported through [`WorkCounters::ref_scans`].
    ref_scans: Cell<u64>,
    /// Test twin: settle every deferred tier move the moment it is owed,
    /// i.e. run with the index always exact.
    #[cfg(test)]
    settle_eagerly: bool,
    live: HashMap<AllocationId, (Target, u64)>,
    next_alloc: u64,
    tick: u64,
    stats: MemStats,
    /// Physical bytes owned by pBlocks (excludes the small pool's segments).
    reserved_phys: u64,
    /// Circuit-breaker knob (see [`AllocatorCore::set_stitch_enabled`]):
    /// while `false`, S3/S4 requests are served by whole fresh pBlocks
    /// instead of stitched views.
    stitch_enabled: bool,
    /// Driver faults survived and unwind residue (see [`FaultJournal`]).
    journal: FaultJournal,
    counters: StateCounters,
    iterations: u64,
    iter_non_exact: u64,
    iter_allocs: u64,
    converged_streak: u64,
    non_exact_history: Vec<u64>,
    /// Stream of the in-flight `alloc_on_stream`/`free_on_stream` call, if
    /// any. Set for the duration of the call so `register_allocation` and
    /// `deallocate` can stamp `last_stream` on the touched blocks, and so
    /// exact-match `BestFit` results can prefer same-stream candidates.
    current_stream: Option<StreamId>,
}

impl GmLakeAllocator {
    /// Creates a GMLake allocator on `driver`.
    ///
    /// # Panics
    ///
    /// Panics if `config.small_threshold` is larger than the device
    /// granularity times 64 (a misconfiguration guard).
    pub fn new(driver: CudaDriver, config: GmLakeConfig) -> Self {
        let chunk = driver.granularity();
        assert!(
            config.small_threshold <= chunk * 64,
            "small_threshold {} is implausibly large for chunk {}",
            config.small_threshold,
            chunk
        );
        let host_op_ns = driver.host_op_ns();
        let small = CachingAllocator::with_config(driver.clone(), config.small_config.clone());
        GmLakeAllocator {
            driver,
            config,
            chunk,
            host_op_ns,
            log_decisions: tlog::enabled(Level::Debug),
            telemetry: None,
            small,
            pblocks: Slab::new(),
            sblocks: Slab::new(),
            p_inactive: TieredPIndex::new(),
            s_inactive: BTreeSet::new(),
            s_evictable: BTreeSet::new(),
            dirty: Vec::new(),
            work: WorkCounters::default(),
            ref_scans: Cell::new(0),
            #[cfg(test)]
            settle_eagerly: false,
            live: HashMap::new(),
            next_alloc: 0,
            tick: 0,
            stats: MemStats::default(),
            reserved_phys: 0,
            stitch_enabled: true,
            journal: FaultJournal::default(),
            counters: StateCounters::default(),
            iterations: 0,
            iter_non_exact: 0,
            iter_allocs: 0,
            converged_streak: 0,
            non_exact_history: Vec::new(),
            current_stream: None,
        }
    }

    /// The underlying driver handle.
    pub fn driver(&self) -> &CudaDriver {
        &self.driver
    }

    /// Attaches an observability sink: from then on (while the sink is
    /// enabled) every BestFit classification is timed into
    /// `telemetry.bestfit_ns()` and emits a
    /// [`EventKind::StitchDecision`] trace record, and stitch / split /
    /// evict / defrag operations emit their own records — all stamped
    /// with the driver's simulated clock. Shared pools reach this through
    /// `DeviceAllocator::with_core_as::<GmLakeAllocator, _>`.
    pub fn set_telemetry(&mut self, telemetry: Arc<PoolTelemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// Records a trace event stamped with the driver clock; no-op unless a
    /// sink is attached and enabled.
    fn emit(&self, kind: EventKind, bytes: u64, a: u64, b: u64) {
        if let Some(t) = &self.telemetry {
            if t.is_enabled() {
                t.record_at(self.driver.now_ns(), kind, bytes, a, b);
            }
        }
    }

    /// The allocator's configuration.
    pub fn config(&self) -> &GmLakeConfig {
        &self.config
    }

    /// Physical bytes owned by pBlocks (excluding the small pool).
    pub fn reserved_physical(&self) -> u64 {
        self.reserved_phys
    }

    /// Number of live pBlocks.
    pub fn pblock_count(&self) -> usize {
        self.pblocks.len()
    }

    /// Number of cached sBlock structures.
    pub fn sblock_count(&self) -> usize {
        self.sblocks.len()
    }

    /// Cumulative allocation-state counters (S1–S5, stitches, splits,
    /// evictions).
    pub fn state_counters(&self) -> StateCounters {
        self.counters
    }

    /// Driver faults survived so far and any unwind residue.
    pub fn fault_journal(&self) -> FaultJournal {
        self.journal
    }

    /// Cumulative flip-path work counts (see [`WorkCounters`]).
    #[doc(hidden)]
    pub fn work_counters(&self) -> WorkCounters {
        WorkCounters {
            ref_scans: self.ref_scans.get(),
            ..self.work
        }
    }

    /// Tier moves currently owed (see [`Self::settle_tiers`]).
    #[cfg(test)]
    pub(crate) fn owed_tier_moves(&self) -> usize {
        self.dirty.len()
    }

    /// Turns this allocator into the always-settled twin of the lockstep
    /// differential: no tier move is ever deferred.
    #[cfg(test)]
    pub(crate) fn settling_eagerly(mut self) -> Self {
        self.settle_eagerly = true;
        self
    }

    /// Whether S3/S4 requests may build stitched views (see
    /// [`AllocatorCore::set_stitch_enabled`]).
    pub fn stitch_is_enabled(&self) -> bool {
        self.stitch_enabled
    }

    /// Completed training iterations (see
    /// [`AllocatorCore::iteration_boundary`]).
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// `true` once a whole iteration ran on exact matches only — the paper's
    /// convergence condition (§4.2.2, "after a few iterations GMLake will
    /// only utilize the S1 strategy").
    pub fn is_converged(&self) -> bool {
        self.converged_streak >= 1
    }

    /// Non-exact (S2+S3+S4+S5) transition counts per completed iteration —
    /// the convergence curve of the paper's Figure 14 discussion.
    pub fn non_exact_history(&self) -> &[u64] {
        &self.non_exact_history
    }

    /// Renders a human-readable snapshot of the pools, for debugging and the
    /// examples: pBlocks grouped by activity, sBlocks with their part lists.
    pub fn memory_map(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let active = self.pblocks.iter().filter(|(_, p)| p.active).count();
        let _ = writeln!(
            out,
            "pPool: {} blocks ({} active), {:.1} MiB physical",
            self.pblocks.len(),
            active,
            self.reserved_phys as f64 / (1 << 20) as f64
        );
        for (pid, p) in self.pblocks.iter() {
            let _ = writeln!(
                out,
                "  p{pid:<4} {:>8.1} MiB {} refs={:?}",
                p.size as f64 / (1 << 20) as f64,
                if p.active { "ACTIVE  " } else { "inactive" },
                p.referenced_by
            );
        }
        let _ = writeln!(out, "sPool: {} stitched views", self.sblocks.len());
        for (sid, s) in self.sblocks.iter() {
            let _ = writeln!(
                out,
                "  s{sid:<4} {:>8.1} MiB parts={:?}{}",
                s.size as f64 / (1 << 20) as f64,
                s.parts,
                if s.assigned_to.is_some() {
                    " ASSIGNED"
                } else {
                    ""
                }
            );
        }
        out
    }

    // ------------------------------------------------------------------
    // Internal machinery
    // ------------------------------------------------------------------

    fn align_up(&self, size: u64) -> u64 {
        size.div_ceil(self.chunk) * self.chunk
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn sync_reserved(&mut self) {
        let reserved = self.reserved_phys + self.small.stats().reserved_bytes;
        self.stats.set_reserved(reserved);
    }

    /// An sBlock is *available* when it could serve an exact match right
    /// now: unassigned with every part inactive.
    fn sblock_available(s: &SBlock) -> bool {
        s.assigned_to.is_none() && s.active_parts == 0
    }

    /// Derives an inactive pBlock's stitch-cost tier the slow way, by
    /// scanning its references: `O(|referenced_by|)`. The production paths
    /// read [`PBlock::stitch_cost`]; this scan survives only as the oracle
    /// `validate()` checks the counters against.
    fn compute_tier(&self, pid: PBlockId) -> StitchCost {
        self.ref_scans.set(self.ref_scans.get() + 1);
        let p = &self.pblocks[pid];
        if p.referenced_by.is_empty() {
            StitchCost::Unreferenced
        } else if p
            .referenced_by
            .iter()
            .any(|&sid| Self::sblock_available(&self.sblocks[sid]))
        {
            StitchCost::ReferencedAvailable
        } else {
            StitchCost::ReferencedBlocked
        }
    }

    /// Brings an *inactive* pBlock's placement in line with its stitch cost
    /// after its references or `avail_refs` changed; no-op for active
    /// blocks (they are unindexed). A move to or from the unreferenced tier
    /// happens now — S1/S2 read that boundary. A move between the two
    /// referenced tiers is only *owed*: S1/S2 consult their union, so the
    /// block goes on the dirty list and [`Self::settle_tiers`] pays before
    /// the next S3/S4 walk. A block that flips back and forth between
    /// settles costs nothing more.
    fn reindex_pblock(&mut self, pid: PBlockId) {
        let p = &mut self.pblocks[pid];
        if p.active {
            return;
        }
        let new = p.stitch_cost();
        let between_referenced =
            new != p.tier && new != StitchCost::Unreferenced && p.tier != StitchCost::Unreferenced;
        if !between_referenced {
            Self::place(&mut self.p_inactive, &mut self.work, p, pid);
            return;
        }
        if !p.dirty {
            p.dirty = true;
            self.dirty.push(pid);
        }
        #[cfg(test)]
        if self.settle_eagerly {
            self.settle_tiers();
        }
    }

    /// Pays every deferred move between the referenced tiers, leaving each
    /// inactive block placed exactly at its stitch cost.
    fn settle_tiers(&mut self) {
        for pid in self.dirty.drain(..) {
            let p = &mut self.pblocks[pid];
            p.dirty = false;
            if !p.active {
                Self::place(&mut self.p_inactive, &mut self.work, p, pid);
            }
        }
    }

    /// Moves the indexed (inactive) block `p` to the tier of its stitch
    /// cost, if it is not there already.
    fn place(index: &mut TieredPIndex, work: &mut WorkCounters, p: &mut PBlock, pid: PBlockId) {
        let tier = p.stitch_cost();
        if tier != p.tier {
            index.remove(p.tier, p.size, pid);
            index.insert(tier, p.size, pid);
            p.tier = tier;
            work.tier_moves += 1;
        }
    }

    /// Removes an inactive pBlock from the arena, the index and the dirty
    /// list (slab ids are reused, so a stale dirty entry would alias).
    fn remove_pblock(&mut self, pid: PBlockId) -> PBlock {
        let p = self.pblocks.remove(pid).expect("pblock exists");
        self.p_inactive.remove(p.tier, p.size, pid);
        if p.dirty {
            let at = self.dirty.iter().position(|&d| d == pid);
            self.dirty.swap_remove(at.expect("dirty block is listed"));
        }
        p
    }

    /// Flips a pBlock's activity, maintaining the tiered inactive index and
    /// each referencing sBlock's active-part counter. When a counter crosses
    /// zero the view's availability flipped: it enters or leaves the
    /// exact-match index and every part's `avail_refs` moves by one.
    /// `O(r + x·p)` for `r` referencing views, `x` of which cross, over `p`
    /// parts each; no `referenced_by` scan and no allocation.
    fn set_pblock_active(&mut self, pid: PBlockId, active: bool) {
        let p = &mut self.pblocks[pid];
        if p.active == active {
            return;
        }
        p.active = active;
        let size = p.size;
        if active {
            self.p_inactive.remove(p.tier, size, pid);
        }
        // Taken for the walk and restored below; nothing in between reads
        // this block's reference set (its own re-index is skipped).
        let refs = std::mem::take(&mut p.referenced_by);
        for &sid in &refs {
            self.work.sblock_bumps += 1;
            let s = &mut self.sblocks[sid];
            if active {
                s.active_parts += 1;
                if s.active_parts != 1 {
                    continue;
                }
            } else {
                debug_assert!(s.active_parts > 0, "active_parts underflow on s{sid}");
                s.active_parts -= 1;
                if s.active_parts != 0 {
                    continue;
                }
            }
            // Assignment only happens to fully-active sBlocks and is cleared
            // before deactivation, so every zero-crossing is unassigned and
            // flips availability.
            debug_assert!(
                s.assigned_to.is_none(),
                "assigned sblock s{sid} crossed activity"
            );
            if active {
                self.s_inactive.remove(&(s.size, sid));
            } else {
                self.s_inactive.insert((s.size, sid));
                if !s.in_evict_index {
                    s.in_evict_index = true;
                    self.s_evictable.insert((s.lru_tick, sid));
                }
            }
            let parts = std::mem::take(&mut s.parts);
            for &part in &parts {
                self.work.part_visits += 1;
                let sibling = &mut self.pblocks[part];
                if active {
                    debug_assert!(sibling.avail_refs > 0, "avail_refs underflow on p{part}");
                    sibling.avail_refs -= 1;
                } else {
                    sibling.avail_refs += 1;
                }
                if part != pid {
                    self.reindex_pblock(part);
                }
            }
            self.sblocks[sid].parts = parts;
        }
        let p = &mut self.pblocks[pid];
        p.referenced_by = refs;
        if !active {
            p.tier = p.stitch_cost();
            self.p_inactive.insert(p.tier, size, pid);
        }
    }

    /// Best-effort unwind of a VA range that was reserved (and possibly
    /// partially mapped) before a mid-sequence driver fault. Failures are
    /// journaled instead of propagated: under a transient fault the
    /// compensating calls succeed (the fault was consumed by the original
    /// call); under persistent faults the range is orphaned and counted.
    fn unwind_va(&mut self, va: VirtAddr, reserved: u64, mapped: u64) {
        if mapped > 0 && self.driver.mem_unmap_range(va, mapped).is_err() {
            // A reservation with live mappings cannot be freed.
            self.journal.orphan_vas += 1;
            self.journal.orphan_va_bytes += reserved;
            return;
        }
        if self.driver.mem_address_free(va, reserved).is_err() {
            self.journal.orphan_vas += 1;
            self.journal.orphan_va_bytes += reserved;
        }
    }

    /// Best-effort release of physical chunks created before a mid-sequence
    /// driver fault; journals the handles it could not return.
    fn unwind_chunks(&mut self, chunks: &[PhysHandle]) {
        if self.driver.mem_release_batch(chunks).is_err() {
            self.journal.orphan_chunks += chunks.len() as u64;
        }
    }

    /// `Alloc` (§3.3.1): creates a brand-new pBlock of `size` bytes (a chunk
    /// multiple) with fresh physical chunks. The only function that
    /// increases reserved physical memory. Physical chunks are created and
    /// mapped through the driver's batched entry points: one driver
    /// round-trip for the creates, one for the maps.
    ///
    /// Transactional: a fault at any step unwinds the steps already
    /// performed, so an `Err` leaves the allocator exactly as it was.
    fn alloc_new_pblock(&mut self, size: u64) -> Result<PBlockId, DriverError> {
        debug_assert_eq!(size % self.chunk, 0);
        let va = self.driver.mem_address_reserve(size)?;
        let n = (size / self.chunk) as usize;
        let chunks: Vec<PhysHandle> = match self.driver.mem_create_batch(self.chunk, n) {
            Ok(chunks) => chunks,
            Err(e) => {
                // The batch is all-or-nothing: nothing created, nothing mapped.
                self.journal.failed_ops += 1;
                self.unwind_va(va, size, 0);
                return Err(e);
            }
        };
        if let Err(e) = self.driver.mem_map_range(va, self.chunk, &chunks) {
            self.journal.failed_ops += 1;
            self.unwind_chunks(&chunks);
            self.unwind_va(va, size, 0);
            return Err(e);
        }
        if let Err(e) = self.driver.mem_set_access(va, size, true) {
            self.journal.failed_ops += 1;
            self.unwind_va(va, size, size);
            self.unwind_chunks(&chunks);
            return Err(e);
        }
        let pid = self.pblocks.insert(PBlock::new(va, size, chunks));
        self.p_inactive.insert(StitchCost::Unreferenced, size, pid);
        self.reserved_phys += size;
        Ok(pid)
    }

    /// Builds a pBlock over existing chunks (used by `Split`): reserves a
    /// fresh VA and maps the chunks there in one batched driver call.
    ///
    /// Transactional: on `Err` the reservation is unwound and the chunks —
    /// owned by the caller's original block — are untouched.
    fn pblock_from_chunks(&mut self, chunks: Vec<PhysHandle>) -> Result<PBlockId, DriverError> {
        let size = chunks.len() as u64 * self.chunk;
        let va = self.driver.mem_address_reserve(size)?;
        if let Err(e) = self.driver.mem_map_range(va, self.chunk, &chunks) {
            self.journal.failed_ops += 1;
            self.unwind_va(va, size, 0);
            return Err(e);
        }
        if let Err(e) = self.driver.mem_set_access(va, size, true) {
            self.journal.failed_ops += 1;
            self.unwind_va(va, size, size);
            return Err(e);
        }
        let pid = self.pblocks.insert(PBlock::new(va, size, chunks));
        self.p_inactive.insert(StitchCost::Unreferenced, size, pid);
        Ok(pid)
    }

    /// Reverses a just-created [`Self::pblock_from_chunks`] view during a
    /// rollback: removes it from the arena and index and tears its VA down.
    /// The chunks belong to the block being split and are not released.
    fn undo_pblock_view(&mut self, pid: PBlockId) {
        let p = self.remove_pblock(pid);
        debug_assert!(!p.active && p.referenced_by.is_empty());
        self.unwind_va(p.va, p.size, p.size);
    }

    /// `Split` (§3.3.1): divides an inactive pBlock into two pBlocks with
    /// fresh VA ranges and remapped chunks; the original structure is
    /// removed. Referencing sBlocks keep working (their own mappings are
    /// untouched) and their part lists are rewritten to the two children.
    ///
    /// Transactional: both replacement views are built *before* the parent
    /// is touched, so a fault at any step before the parent's unmap rolls
    /// back to the pre-split state. Once the parent's mappings are gone the
    /// split is committed and any cleanup failure is journaled instead.
    fn split_pblock(
        &mut self,
        pid: PBlockId,
        left_size: u64,
    ) -> Result<(PBlockId, PBlockId), DriverError> {
        debug_assert_eq!(left_size % self.chunk, 0);
        let (left_chunks, right_chunks, parent_va, parent_size) = {
            let p = &self.pblocks[pid];
            debug_assert!(
                !p.active && p.assigned_to.is_none(),
                "split of a live block"
            );
            debug_assert!(left_size > 0 && left_size < p.size);
            let k = (left_size / self.chunk) as usize;
            (p.chunks[..k].to_vec(), p.chunks[k..].to_vec(), p.va, p.size)
        };
        let left = self.pblock_from_chunks(left_chunks)?;
        let right = match self.pblock_from_chunks(right_chunks) {
            Ok(right) => right,
            Err(e) => {
                self.undo_pblock_view(left);
                return Err(e);
            }
        };
        // The old VA disappears; physical chunks live on through the new maps.
        if let Err(e) = self.driver.mem_unmap_range(parent_va, parent_size) {
            self.journal.failed_ops += 1;
            self.undo_pblock_view(right);
            self.undo_pblock_view(left);
            return Err(e);
        }
        // Commit point: the parent's mappings are gone.
        if self
            .driver
            .mem_address_free(parent_va, parent_size)
            .is_err()
        {
            self.journal.orphan_vas += 1;
            self.journal.orphan_va_bytes += parent_size;
        }
        let p = self.remove_pblock(pid);
        // Rewrite referencing sBlocks to the two children. Both children are
        // inactive (the parent was), so no active-part counter changes and
        // no view's availability moves: the children inherit the parent's
        // references and its available-view count as they are.
        for &sid in &p.referenced_by {
            let s = self.sblocks.get_mut(sid).expect("referenced sblock exists");
            let pos = s
                .parts
                .iter()
                .position(|&x| x == pid)
                .expect("sblock lists the split pblock");
            s.parts.splice(pos..=pos, [left, right]);
        }
        let l = &mut self.pblocks[left];
        l.referenced_by = p.referenced_by.clone();
        l.avail_refs = p.avail_refs;
        let r = &mut self.pblocks[right];
        r.referenced_by = p.referenced_by;
        r.avail_refs = p.avail_refs;
        // Move the children off the unreferenced tier they were created in.
        self.reindex_pblock(left);
        self.reindex_pblock(right);
        self.counters.splits += 1;
        self.emit(EventKind::Split, parent_size, left_size, 0);
        Ok((left, right))
    }

    /// `Stitch` (§3.3.1): creates an sBlock whose fresh VA range aliases the
    /// chunks of `parts`, in order — one batched map call per part. No
    /// physical memory is created.
    ///
    /// Transactional: a fault while mapping unwinds the already-mapped
    /// prefix and the reservation; on `Err` the parts are untouched.
    fn stitch(&mut self, parts: Vec<PBlockId>) -> Result<SBlockId, DriverError> {
        let total: u64 = parts.iter().map(|&p| self.pblocks[p].size).sum();
        let va = self.driver.mem_address_reserve(total)?;
        let mut off = 0u64;
        let mut fault: Option<DriverError> = None;
        for &pid in &parts {
            let p = &self.pblocks[pid];
            debug_assert!(!p.active, "stitching an active part");
            if let Err(e) = self
                .driver
                .mem_map_range(va.offset(off), self.chunk, &p.chunks)
            {
                fault = Some(e);
                break;
            }
            off += p.size;
        }
        if fault.is_none() {
            if let Err(e) = self.driver.mem_set_access(va, total, true) {
                fault = Some(e);
                debug_assert_eq!(off, total);
            }
        }
        if let Some(e) = fault {
            self.journal.failed_ops += 1;
            self.unwind_va(va, total, off);
            return Err(e);
        }
        let tick = self.next_tick();
        let mut view = SBlock::new(va, total, parts, tick);
        view.in_evict_index = true;
        let sid = self.sblocks.insert(view);
        // The new view is unassigned with all parts inactive: it is both
        // exact-matchable and evictable, and one more available view over
        // every part promotes each to the last-resort stitching tier.
        self.s_inactive.insert((total, sid));
        self.s_evictable.insert((tick, sid));
        for i in 0..self.sblocks[sid].parts.len() {
            let pid = self.sblocks[sid].parts[i];
            let p = &mut self.pblocks[pid];
            p.referenced_by.push(sid);
            p.avail_refs += 1;
            self.reindex_pblock(pid);
        }
        self.counters.stitches += 1;
        self.emit(
            EventKind::Stitch,
            total,
            self.sblocks[sid].parts.len() as u64,
            0,
        );
        // NOTE: capacity enforcement runs in `allocate` *after* the new
        // block is assigned, so a freshly stitched block can never be its
        // own eviction victim.
        Ok(sid)
    }

    /// Picks the next `StitchFree` victim: scans the first
    /// `evict_scan_window` evictable entries of the LRU-ordered eviction
    /// index and prefers the view with the fewest *uniquely referenced*
    /// parts — a pBlock referenced only by its own view drops to the
    /// unreferenced tier on eviction, so destroying such a view
    /// cannibalizes cached exact-match coverage that a later request would
    /// have to re-stitch, while a view whose parts are mostly woven into
    /// other cached views is near-free to drop. Ties (and a window of 1)
    /// fall back to pure `(lru_tick, id)` LRU.
    ///
    /// Views the scan finds blocked by an active part are dropped from the
    /// index on the way (they re-enter when they become evictable again),
    /// so each is skipped once, not once per scan.
    fn pick_stitchfree_victim(&mut self) -> Option<SBlockId> {
        let window = self.config.evict_scan_window.max(1);
        let mut candidates = 0;
        let mut blocked = Vec::new();
        let mut best: Option<(SBlockId, usize)> = None;
        for &(tick, sid) in &self.s_evictable {
            let s = &self.sblocks[sid];
            if s.active_parts != 0 {
                blocked.push((tick, sid));
                continue;
            }
            let unique = s
                .parts
                .iter()
                .filter(|&&pid| self.pblocks[pid].referenced_by.len() <= 1)
                .count();
            if best.is_none_or(|(_, b)| unique < b) {
                best = Some((sid, unique));
            }
            candidates += 1;
            // `unique == 0`: every part survives in some other view — a free
            // eviction, and LRU-first among such candidates since the scan
            // runs in eviction-index order.
            if unique == 0 || candidates == window {
                break;
            }
        }
        for key in blocked {
            self.s_evictable.remove(&key);
            self.sblocks[key.1].in_evict_index = false;
        }
        best.map(|(sid, _)| sid)
    }

    /// `StitchFree` (§3.3.2): evicts *inactive* sBlock structures while the
    /// sPool exceeds its capacity. Victims come from a bounded scan of the
    /// `(lru_tick, id)` eviction index (see
    /// [`GmLakeAllocator::pick_stitchfree_victim`]).
    fn enforce_spool_capacity(&mut self) {
        while self.sblocks.len() > self.config.max_sblocks {
            match self.pick_stitchfree_victim() {
                Some(sid) => {
                    let size = self.sblocks[sid].size;
                    if self.destroy_sblock(sid).is_err() {
                        // Teardown faulted with the view intact; leave the
                        // overshoot for a later allocation to retry.
                        break;
                    }
                    self.counters.evictions += 1;
                    self.emit(EventKind::Evict, size, 0, 0);
                }
                None => break, // nothing evictable; allow a soft overshoot
            }
        }
    }

    /// Tears an sBlock structure down: its VA and mappings disappear; the
    /// chunks stay owned by the pBlocks.
    ///
    /// Transactional: the unmap runs first, so on `Err` the view is fully
    /// intact and still usable. After the unmap the teardown is committed;
    /// a faulted reservation free is journaled, not propagated.
    fn destroy_sblock(&mut self, sid: SBlockId) -> Result<(), DriverError> {
        // Batched teardown: one driver round-trip for the whole view's
        // mappings, so a StitchFree/OOM-rescue storm stops paying one
        // dispatch per chunk.
        let (va, size) = {
            let s = &self.sblocks[sid];
            (s.va, s.size)
        };
        if let Err(e) = self.driver.mem_unmap_range(va, size) {
            self.journal.failed_ops += 1;
            return Err(e);
        }
        if self.driver.mem_address_free(va, size).is_err() {
            self.journal.orphan_vas += 1;
            self.journal.orphan_va_bytes += size;
        }
        let s = self.sblocks.remove(sid).expect("sblock exists");
        self.s_inactive.remove(&(s.size, sid));
        if s.in_evict_index {
            self.s_evictable.remove(&(s.lru_tick, sid));
        }
        let was_available = Self::sblock_available(&s);
        for &pid in &s.parts {
            let p = self
                .pblocks
                .get_mut(pid)
                .expect("sblock lists a live pblock");
            let at = p.referenced_by.iter().position(|&r| r == sid);
            p.referenced_by
                .swap_remove(at.expect("part lists the view"));
            if was_available {
                debug_assert!(p.avail_refs > 0, "avail_refs underflow on p{pid}");
                p.avail_refs -= 1;
            }
            // Losing a reference may drop the part a tier (down to
            // unreferenced).
            self.reindex_pblock(pid);
        }
        Ok(())
    }

    /// Returns a pBlock's physical memory to the device. The block must be
    /// inactive, unassigned and unreferenced. The whole block tears down in
    /// three driver round-trips (batched unmap, batched release, address
    /// free) regardless of its chunk count.
    ///
    /// Transactional: a faulted unmap leaves the block intact; a faulted
    /// release re-maps the range and aborts the destroy. Only when the
    /// rollback itself fails (persistent faults) is the block dropped from
    /// the books with its resources journaled as orphans.
    fn destroy_pblock(&mut self, pid: PBlockId) -> Result<(), DriverError> {
        let (va, size, chunks) = {
            let p = &self.pblocks[pid];
            debug_assert!(!p.active && p.assigned_to.is_none() && p.referenced_by.is_empty());
            (p.va, p.size, p.chunks.clone())
        };
        if let Err(e) = self.driver.mem_unmap_range(va, size) {
            self.journal.failed_ops += 1;
            return Err(e);
        }
        if let Err(e) = self.driver.mem_release_batch(&chunks) {
            self.journal.failed_ops += 1;
            // Re-map and abort the destroy; the block stays cached.
            let remapped = self.driver.mem_map_range(va, self.chunk, &chunks).is_ok();
            if remapped && self.driver.mem_set_access(va, size, true).is_ok() {
                return Err(e);
            }
            // Rollback failed too: orphan the block's resources and drop it
            // from the books so invariants keep holding.
            self.journal.orphan_chunks += chunks.len() as u64;
            self.unwind_va(va, size, if remapped { size } else { 0 });
            self.remove_pblock(pid);
            self.reserved_phys -= size;
            return Err(e);
        }
        if self.driver.mem_address_free(va, size).is_err() {
            self.journal.orphan_vas += 1;
            self.journal.orphan_va_bytes += size;
        }
        self.remove_pblock(pid);
        self.reserved_phys -= size;
        Ok(())
    }

    fn register_allocation(
        &mut self,
        target: Target,
        va: VirtAddr,
        size: u64,
        requested: u64,
    ) -> Allocation {
        self.next_alloc += 1;
        let id = AllocationId::new(self.next_alloc);
        match target {
            Target::P(pid) => {
                self.set_pblock_active(pid, true);
                let p = self.pblocks.get_mut(pid).expect("pblock exists");
                p.assigned_to = Some(id);
                if self.current_stream.is_some() {
                    p.last_stream = self.current_stream;
                }
            }
            Target::S(sid) => {
                for i in 0..self.sblocks[sid].parts.len() {
                    let pid = self.sblocks[sid].parts[i];
                    self.set_pblock_active(pid, true);
                }
                let tick = self.next_tick();
                let s = self.sblocks.get_mut(sid).expect("sblock exists");
                debug_assert_eq!(s.active_parts, s.parts.len(), "assigning a partial sblock");
                if std::mem::take(&mut s.in_evict_index) {
                    self.s_evictable.remove(&(s.lru_tick, sid));
                }
                s.assigned_to = Some(id);
                s.lru_tick = tick;
                if self.current_stream.is_some() {
                    s.last_stream = self.current_stream;
                }
            }
            Target::Small(_) => {}
        }
        self.live.insert(id, (target, size));
        self.stats.on_alloc(requested, size);
        self.sync_reserved();
        self.iter_allocs += 1;
        Allocation {
            id,
            va,
            size,
            requested,
        }
    }

    fn allocate_small(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
        let inner = self.small.allocate(req)?;
        let alloc =
            self.register_allocation(Target::Small(inner.id), inner.va, inner.size, req.size);
        Ok(alloc)
    }

    /// Per-stream affinity refinement for S1 pBlock matches: among exact
    /// candidates of the same size *and* stitch-cost tier (which Algorithm 1
    /// treats as equivalent — same state, same cost), prefer one last used
    /// by the requesting stream. Bounded scan; no-op for streamless calls,
    /// so `BestFit`'s classification and the reference oracle are untouched.
    fn prefer_stream_pblock(&self, chosen: PBlockId) -> PBlockId {
        let Some(stream) = self.current_stream else {
            return chosen;
        };
        let p = &self.pblocks[chosen];
        if p.last_stream == Some(stream) {
            return chosen;
        }
        // "Same tier" means the same stitch cost, not the same placement: a
        // referenced candidate's move between the two referenced tiers may
        // still be owed, so that scan walks their union in id order. The
        // limit counts candidates of the chosen tier, as it did when the
        // index was always exact; what the filter skips is bounded by the
        // equal-size referenced blocks.
        let tier = p.stitch_cost();
        let same_stream = |pid: &PBlockId| self.pblocks[*pid].last_stream == Some(stream);
        if tier == StitchCost::Unreferenced {
            self.p_inactive
                .equal_size_in_tier(tier, p.size)
                .take(Self::AFFINITY_SCAN_LIMIT)
                .find(same_stream)
        } else {
            self.p_inactive
                .equal_size_referenced(p.size)
                .filter(|&pid| self.pblocks[pid].stitch_cost() == tier)
                .take(Self::AFFINITY_SCAN_LIMIT)
                .find(same_stream)
        }
        .unwrap_or(chosen)
    }

    /// Per-stream affinity refinement for S1 sBlock matches (all inactive
    /// sBlocks of the exact size are equivalent to Algorithm 1).
    fn prefer_stream_sblock(&self, chosen: SBlockId) -> SBlockId {
        let Some(stream) = self.current_stream else {
            return chosen;
        };
        let s = &self.sblocks[chosen];
        if s.last_stream == Some(stream) {
            return chosen;
        }
        let size = s.size;
        self.s_inactive
            .range((size, 0)..=(size, u64::MAX))
            .take(Self::AFFINITY_SCAN_LIMIT)
            .map(|&(_, sid)| sid)
            .find(|&sid| self.sblocks[sid].last_stream == Some(stream))
            .unwrap_or(chosen)
    }

    /// Cap on the equal-size candidate scan in the affinity refinements:
    /// affinity is a locality hint, not a correctness requirement, so it
    /// must never turn an `O(log n)` exact match into an `O(n)` sweep.
    const AFFINITY_SCAN_LIMIT: usize = 32;

    /// One attempt at a large allocation; OOM from `Alloc` is surfaced so the
    /// caller can run the release-cached fallback and retry. Wraps the
    /// decision path with the `bestfit_ns` telemetry histogram.
    fn try_allocate_large(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
        let start = match &self.telemetry {
            Some(t) if t.is_enabled() => Some(std::time::Instant::now()),
            _ => None,
        };
        let result = self.try_allocate_large_inner(req);
        if let (Some(start), Some(t)) = (start, &self.telemetry) {
            t.bestfit_ns().record(start.elapsed().as_nanos() as u64);
        }
        result
    }

    /// Runs the indexed `BestFit`. S1 and S2 only distinguish unreferenced
    /// from referenced blocks, so they are answered on the index as placed;
    /// S3/S4 consume candidates tier by tier, so when moves between the
    /// referenced tiers are owed they are paid first and the walk repeated.
    fn best_fit(&mut self, aligned: u64) -> BestFit {
        let frag_limit = self.config.frag_limit;
        let fit = best_fit_indexed(aligned, &self.s_inactive, &self.p_inactive, frag_limit);
        let walks_tiers = matches!(fit, BestFit::Multiple { .. } | BestFit::Insufficient { .. });
        if !walks_tiers || self.dirty.is_empty() {
            return fit;
        }
        self.settle_tiers();
        best_fit_indexed(aligned, &self.s_inactive, &self.p_inactive, frag_limit)
    }

    fn try_allocate_large_inner(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
        let aligned = self.align_up(req.size);
        match self.best_fit(aligned) {
            BestFit::ExactS(sid) => {
                let sid = self.prefer_stream_sblock(sid);
                self.counters.record(AllocState::ExactMatch);
                self.emit(EventKind::StitchDecision, aligned, 1, 1);
                let (va, size) = (self.sblocks[sid].va, self.sblocks[sid].size);
                Ok(self.register_allocation(Target::S(sid), va, size, req.size))
            }
            BestFit::ExactP(pid) => {
                let pid = self.prefer_stream_pblock(pid);
                self.counters.record(AllocState::ExactMatch);
                self.emit(EventKind::StitchDecision, aligned, 1, 1);
                let (va, size) = (self.pblocks[pid].va, self.pblocks[pid].size);
                Ok(self.register_allocation(Target::P(pid), va, size, req.size))
            }
            BestFit::Single(pid) => {
                self.counters.record(AllocState::SingleBlock);
                self.emit(EventKind::StitchDecision, aligned, 2, 1);
                if self.log_decisions {
                    tlog::log(
                        Level::Debug,
                        "gmlake_core::bestfit",
                        format_args!(
                            "S2 iter={} size={} block={}",
                            self.iterations, aligned, self.pblocks[pid].size
                        ),
                    );
                }
                let block_size = self.pblocks[pid].size;
                let remainder = block_size - aligned;
                if remainder >= self.config.frag_limit.max(self.chunk) {
                    // Split; optionally cache an sBlock of the two halves so
                    // a future request of the original size exact-matches.
                    // Splitting performs driver work, so it counts against
                    // convergence.
                    self.iter_non_exact += 1;
                    let (left, right) = self
                        .split_pblock(pid, aligned)
                        .map_err(|e| AllocError::driver_fault("split_pblock", e))?;
                    if self.config.cache_split_halves && self.stitch_enabled {
                        // Caching the halves is an optimization; a faulted
                        // stitch (already unwound) must not fail the alloc.
                        let _ = self.stitch(vec![left, right]);
                    }
                    let (va, size) = (self.pblocks[left].va, self.pblocks[left].size);
                    Ok(self.register_allocation(Target::P(left), va, size, req.size))
                } else {
                    // Remainder below the fragmentation limit: use the block
                    // whole (internal waste instead of an unusable fragment).
                    // This is pure best-fit reuse — zero driver calls — so it
                    // does not count as an adaptation step.
                    let (va, size) = (self.pblocks[pid].va, self.pblocks[pid].size);
                    Ok(self.register_allocation(Target::P(pid), va, size, req.size))
                }
            }
            BestFit::Multiple { mut ids, sum } => {
                if !self.stitch_enabled {
                    // Circuit breaker open: serve S3 with a whole fresh
                    // block instead of a stitched view.
                    self.counters.record(AllocState::MultiBlock);
                    self.iter_non_exact += 1;
                    self.emit(EventKind::StitchDecision, aligned, 3, 0);
                    return self.allocate_unstitched(aligned, req);
                }
                self.counters.record(AllocState::MultiBlock);
                self.iter_non_exact += 1;
                self.emit(EventKind::StitchDecision, aligned, 3, ids.len() as u64);
                if self.log_decisions {
                    tlog::log(
                        Level::Debug,
                        "gmlake_core::bestfit",
                        format_args!(
                            "S3 iter={} size={} candidates={:?}",
                            self.iterations,
                            aligned,
                            ids.iter()
                                .map(|&i| self.pblocks[i].size)
                                .collect::<Vec<_>>()
                        ),
                    );
                }
                if sum > aligned {
                    let last = ids.pop().expect("multiple has >= 2 candidates");
                    let last_size = self.pblocks[last].size;
                    let rest_sum = sum - last_size;
                    let need = aligned - rest_sum;
                    debug_assert!(need > 0 && need <= last_size);
                    if last_size - need >= self.config.frag_limit.max(self.chunk) {
                        match self.split_pblock(last, need) {
                            Ok((left, right)) => {
                                if self.config.cache_split_halves {
                                    let _ = self.stitch(vec![left, right]);
                                }
                                ids.push(left);
                            }
                            // Split faulted (and rolled back): degrade to
                            // using the block whole; the sBlock is oversized.
                            Err(_) => ids.push(last),
                        }
                    } else {
                        ids.push(last); // keep whole; sBlock will be oversized
                    }
                }
                let sid = self
                    .stitch(ids)
                    .map_err(|e| AllocError::driver_fault("stitch", e))?;
                let (va, size) = (self.sblocks[sid].va, self.sblocks[sid].size);
                Ok(self.register_allocation(Target::S(sid), va, size, req.size))
            }
            BestFit::Insufficient { mut ids, sum } => {
                self.counters.record(AllocState::Insufficient);
                self.iter_non_exact += 1;
                self.emit(EventKind::StitchDecision, aligned, 4, ids.len() as u64);
                if self.log_decisions {
                    tlog::log(
                        Level::Debug,
                        "gmlake_core::bestfit",
                        format_args!("S4 iter={} size={} have={}", self.iterations, aligned, sum),
                    );
                }
                debug_assert!(sum < aligned);
                if !self.stitch_enabled && !ids.is_empty() {
                    // Circuit breaker open: ignore the stitchable leftovers
                    // and serve the request whole.
                    return self.allocate_unstitched(aligned, req);
                }
                let new_size = aligned - sum;
                let new_pid = self
                    .alloc_new_pblock(new_size)
                    .map_err(|e| self.map_pblock_err(e))?;
                if ids.is_empty() {
                    let (va, size) = (self.pblocks[new_pid].va, self.pblocks[new_pid].size);
                    Ok(self.register_allocation(Target::P(new_pid), va, size, req.size))
                } else {
                    ids.push(new_pid);
                    let sid = match self.stitch(ids) {
                        Ok(sid) => sid,
                        Err(e) => {
                            // Roll the fresh physical allocation back; if
                            // even the teardown faults the block stays
                            // cached (state is still consistent).
                            let _ = self.destroy_pblock(new_pid);
                            self.sync_reserved();
                            return Err(AllocError::driver_fault("stitch", e));
                        }
                    };
                    let (va, size) = (self.sblocks[sid].va, self.sblocks[sid].size);
                    Ok(self.register_allocation(Target::S(sid), va, size, req.size))
                }
            }
        }
    }

    /// Degraded (circuit-breaker) S3/S4 path: serve the request with a
    /// single fresh pBlock, ignoring stitchable cached blocks. Used while
    /// stitching is disabled after repeated stitch-path faults.
    fn allocate_unstitched(
        &mut self,
        aligned: u64,
        req: AllocRequest,
    ) -> Result<Allocation, AllocError> {
        let pid = self
            .alloc_new_pblock(aligned)
            .map_err(|e| self.map_pblock_err(e))?;
        let (va, size) = (self.pblocks[pid].va, self.pblocks[pid].size);
        Ok(self.register_allocation(Target::P(pid), va, size, req.size))
    }

    /// Maps a failed `Alloc` driver call: a genuine device OOM keeps its
    /// dedicated variant (it drives the release-cached retry); anything
    /// else was injected/unexpected and surfaces as a rolled-back fault.
    fn map_pblock_err(&self, e: DriverError) -> AllocError {
        match e {
            DriverError::OutOfMemory { requested, .. } => AllocError::OutOfMemory {
                requested,
                reserved: self.stats.reserved_bytes,
                capacity: self.driver.capacity(),
            },
            other => AllocError::driver_fault("alloc_new_pblock", other),
        }
    }

    /// Frees every cache structure not currently assigned to a tensor:
    /// all unassigned sBlocks, then every inactive pBlock's physical memory,
    /// then the small pool's cached segments. Returns bytes of physical
    /// memory released.
    fn release_cached_impl(&mut self) -> u64 {
        let unassigned: Vec<SBlockId> = self
            .sblocks
            .iter()
            .filter(|(_, s)| s.assigned_to.is_none())
            .map(|(sid, _)| sid)
            .collect();
        for sid in unassigned {
            // A faulted teardown leaves the view intact; skip it, later
            // rescue passes will retry.
            let _ = self.destroy_sblock(sid);
        }
        let idle: Vec<PBlockId> = self
            .pblocks
            .iter()
            .filter(|(_, p)| !p.active && p.assigned_to.is_none() && p.referenced_by.is_empty())
            .map(|(pid, _)| pid)
            .collect();
        let mut released = 0;
        for pid in idle {
            let size = self.pblocks[pid].size;
            if self.destroy_pblock(pid).is_ok() {
                released += size;
            }
        }
        released += self.small.release_cached();
        self.sync_reserved();
        released
    }

    /// The pre-index `stitch_cost` closure semantics, kept verbatim for the
    /// reference `BestFit` path: chase `referenced_by`, look the sBlocks up,
    /// and probe the inactive index per call.
    fn reference_stitch_cost(&self, pid: PBlockId) -> StitchCost {
        let p = &self.pblocks[pid];
        if p.referenced_by.is_empty() {
            StitchCost::Unreferenced
        } else if p.referenced_by.iter().any(|sid| {
            let s = &self.sblocks[*sid];
            s.assigned_to.is_none() && self.s_inactive.contains(&(s.size, *sid))
        }) {
            StitchCost::ReferencedAvailable
        } else {
            StitchCost::ReferencedBlocked
        }
    }

    // ------------------------------------------------------------------
    // Benchmark probes — classify a hypothetical request without mutating
    // state, through either `BestFit` implementation. Hidden: these exist
    // so the `bestfit_scaling` bench can measure the indexed hot path
    // against the retained reference path on identical pool states.
    // ------------------------------------------------------------------

    /// Runs the indexed `BestFit` for a request of `size` bytes and returns
    /// the state it classified to (1–4 for S1–S4). Reads the index as
    /// placed: the state code depends on the unreferenced/referenced split
    /// and on the tiers' total, never on which referenced tier a block is
    /// in, so owed moves ([`Self::settle_tiers`]) cannot change it.
    #[doc(hidden)]
    pub fn probe_bestfit_indexed(&self, size: u64) -> u8 {
        let fit = best_fit_indexed(
            self.align_up(size),
            &self.s_inactive,
            &self.p_inactive,
            self.config.frag_limit,
        );
        Self::state_code(&fit)
    }

    /// The flat `(size, id)` inactive-pBlock set the reference path
    /// consumes; build it once per pool state, outside the timed region.
    #[doc(hidden)]
    pub fn flat_inactive_index(&self) -> BTreeSet<(u64, u64)> {
        self.p_inactive.to_flat()
    }

    /// Runs the retained reference `BestFit` (full-pool passes plus the
    /// per-block cost closure) over `flat` and this allocator's state.
    #[doc(hidden)]
    pub fn probe_bestfit_reference(&self, size: u64, flat: &BTreeSet<(u64, u64)>) -> u8 {
        let fit = best_fit_reference(
            self.align_up(size),
            &self.s_inactive,
            flat,
            self.config.frag_limit,
            |pid| self.reference_stitch_cost(pid),
        );
        Self::state_code(&fit)
    }

    fn state_code(fit: &BestFit) -> u8 {
        match fit {
            BestFit::ExactS(_) | BestFit::ExactP(_) => 1,
            BestFit::Single(_) => 2,
            BestFit::Multiple { .. } => 3,
            BestFit::Insufficient { .. } => 4,
        }
    }

    /// Differential oracle: asserts the indexed and reference `BestFit`
    /// agree exactly (not just on the state code) for a request of `size`
    /// bytes against the current pool state.
    #[cfg(test)]
    pub(crate) fn assert_bestfit_agrees(&self, size: u64) {
        let aligned = self.align_up(size);
        // The candidate *lists* do depend on the referenced tiers, and
        // `&self` cannot settle: compare on a settled copy of the index.
        let mut settled = self.p_inactive.clone();
        for &pid in &self.dirty {
            let p = &self.pblocks[pid];
            if !p.active {
                settled.remove(p.tier, p.size, pid);
                settled.insert(p.stitch_cost(), p.size, pid);
            }
        }
        let flat = settled.to_flat();
        let reference = best_fit_reference(
            aligned,
            &self.s_inactive,
            &flat,
            self.config.frag_limit,
            |pid| self.reference_stitch_cost(pid),
        );
        let indexed = best_fit_indexed(aligned, &self.s_inactive, &settled, self.config.frag_limit);
        assert_eq!(
            reference, indexed,
            "indexed BestFit diverged from the reference for size {size}"
        );
    }

    /// Verifies every internal invariant; heavily used by tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        // 0. Slab arenas: reuse-after-destroy free-list consistency.
        self.pblocks
            .validate()
            .map_err(|e| format!("pblock arena: {e}"))?;
        self.sblocks
            .validate()
            .map_err(|e| format!("sblock arena: {e}"))?;
        // 1. pBlock shape + tiered-index consistency.
        let mut chunk_owner: HashMap<u64, PBlockId> = HashMap::new();
        let mut phys_sum = 0u64;
        let mut inactive_p = 0usize;
        let dirty: BTreeSet<PBlockId> = self.dirty.iter().copied().collect();
        if dirty.len() != self.dirty.len() {
            return Err("dirty list holds a pblock twice".to_string());
        }
        if let Some(pid) = dirty.iter().find(|&&pid| self.pblocks.get(pid).is_none()) {
            return Err(format!("dirty list holds dead pblock {pid}"));
        }
        for (pid, p) in self.pblocks.iter() {
            if p.chunks.len() as u64 * self.chunk != p.size {
                return Err(format!("pblock {pid}: chunk count disagrees with size"));
            }
            phys_sum += p.size;
            for h in &p.chunks {
                if let Some(prev) = chunk_owner.insert(h.as_u64(), pid) {
                    return Err(format!("chunk {h} owned by both pblock {prev} and {pid}"));
                }
            }
            let distinct: BTreeSet<SBlockId> = p.referenced_by.iter().copied().collect();
            if distinct.len() != p.referenced_by.len() {
                return Err(format!("pblock {pid} lists a referencing sblock twice"));
            }
            let mut available_views = 0usize;
            for sid in &p.referenced_by {
                let s = self
                    .sblocks
                    .get(*sid)
                    .ok_or_else(|| format!("pblock {pid} references dead sblock {sid}"))?;
                if !s.parts.contains(&pid) {
                    return Err(format!("sblock {sid} does not list pblock {pid}"));
                }
                if Self::sblock_available(s) {
                    available_views += 1;
                }
            }
            if p.avail_refs != available_views {
                return Err(format!(
                    "pblock {pid}: avail_refs says {} but {available_views} views are available",
                    p.avail_refs
                ));
            }
            if p.dirty != dirty.contains(&pid) {
                return Err(format!(
                    "pblock {pid}: dirty={} disagrees with the dirty list",
                    p.dirty
                ));
            }
            let indexed_tier = self.p_inactive.tier_of(p.size, pid);
            if p.active {
                if let Some(t) = indexed_tier {
                    return Err(format!("active pblock {pid} present in tier {t:?}"));
                }
            } else {
                match indexed_tier {
                    None => return Err(format!("inactive pblock {pid} missing from index")),
                    Some(t) if t != p.tier => {
                        return Err(format!(
                            "pblock {pid}: cached tier {:?} but indexed in {t:?}",
                            p.tier
                        ));
                    }
                    Some(_) => {}
                }
                // The `referenced_by` scan is the oracle for the counters.
                let derived = self.compute_tier(pid);
                if derived != p.stitch_cost() {
                    return Err(format!(
                        "pblock {pid}: counters say {:?} but references imply {derived:?}",
                        p.stitch_cost()
                    ));
                }
                // Placement may lag only for a dirty block, and only
                // between the two referenced tiers.
                let lag_owed = p.dirty
                    && p.tier != StitchCost::Unreferenced
                    && derived != StitchCost::Unreferenced;
                if derived != p.tier && !lag_owed {
                    return Err(format!(
                        "pblock {pid}: placed in {:?} but references imply {derived:?} (dirty={})",
                        p.tier, p.dirty
                    ));
                }
                inactive_p += 1;
            }
            if p.assigned_to.is_some() && !p.active {
                return Err(format!("pblock {pid}: assigned but inactive"));
            }
        }
        if phys_sum != self.reserved_phys {
            return Err(format!(
                "reserved_phys {} but pblocks sum to {phys_sum}",
                self.reserved_phys
            ));
        }
        if self.p_inactive.len() != inactive_p {
            return Err(format!(
                "p index holds {} entries but {} pblocks are inactive",
                self.p_inactive.len(),
                inactive_p
            ));
        }
        // 2. sBlock consistency: part lists, counters, and both indexes.
        let mut inactive_s = 0usize;
        let mut evict_indexed_s = 0usize;
        for (sid, s) in self.sblocks.iter() {
            let mut size_sum = 0;
            let mut active_parts = 0usize;
            for pid in &s.parts {
                let p = self
                    .pblocks
                    .get(*pid)
                    .ok_or_else(|| format!("sblock {sid} lists dead pblock {pid}"))?;
                if !p.referenced_by.contains(&sid) {
                    return Err(format!("pblock {pid} missing backref to sblock {sid}"));
                }
                size_sum += p.size;
                if p.active {
                    active_parts += 1;
                }
            }
            if size_sum != s.size {
                return Err(format!(
                    "sblock {sid}: parts sum {size_sum} != size {}",
                    s.size
                ));
            }
            if active_parts != s.active_parts {
                return Err(format!(
                    "sblock {sid}: counter says {} active parts, scan says {active_parts}",
                    s.active_parts
                ));
            }
            let all_inactive = s.active_parts == 0;
            let indexed = self.s_inactive.contains(&(s.size, sid));
            if all_inactive != indexed {
                return Err(format!(
                    "sblock {sid}: all_inactive={all_inactive} but index={indexed}"
                ));
            }
            if all_inactive {
                inactive_s += 1;
            }
            // Eviction index: exactly the flagged views; it must hold every
            // evictable view and may hold blocked ones, never assigned ones.
            let in_evict = self.s_evictable.contains(&(s.lru_tick, sid));
            if in_evict != s.in_evict_index {
                return Err(format!(
                    "sblock {sid}: in_evict_index={} but eviction index={in_evict}",
                    s.in_evict_index
                ));
            }
            if Self::sblock_available(s) && !in_evict {
                return Err(format!(
                    "evictable sblock {sid} missing from eviction index"
                ));
            }
            if s.assigned_to.is_some() && in_evict {
                return Err(format!("assigned sblock {sid} present in eviction index"));
            }
            if in_evict {
                evict_indexed_s += 1;
            }
            if s.assigned_to.is_some() {
                let fully_active = s.active_parts == s.parts.len();
                if !fully_active {
                    return Err(format!("assigned sblock {sid} has inactive parts"));
                }
            }
        }
        if self.s_inactive.len() != inactive_s {
            return Err(format!(
                "s_inactive holds {} entries but {inactive_s} sblocks are fully inactive",
                self.s_inactive.len()
            ));
        }
        if self.s_evictable.len() != evict_indexed_s {
            return Err(format!(
                "s_evictable holds {} entries but {evict_indexed_s} sblocks are flagged",
                self.s_evictable.len()
            ));
        }
        // 3. Live allocations point at correctly-assigned targets, and no
        //    pBlock serves two live allocations.
        let mut held: HashMap<PBlockId, AllocationId> = HashMap::new();
        for (id, (target, _size)) in &self.live {
            match target {
                Target::P(pid) => {
                    let p = self
                        .pblocks
                        .get(*pid)
                        .ok_or_else(|| format!("{id} targets dead pblock {pid}"))?;
                    if p.assigned_to != Some(*id) {
                        return Err(format!("{id}: pblock {pid} assignment mismatch"));
                    }
                    if let Some(other) = held.insert(*pid, *id) {
                        return Err(format!("pblock {pid} held by {other} and {id}"));
                    }
                }
                Target::S(sid) => {
                    let s = self
                        .sblocks
                        .get(*sid)
                        .ok_or_else(|| format!("{id} targets dead sblock {sid}"))?;
                    if s.assigned_to != Some(*id) {
                        return Err(format!("{id}: sblock {sid} assignment mismatch"));
                    }
                    for pid in &s.parts {
                        if let Some(other) = held.insert(*pid, *id) {
                            return Err(format!("pblock {pid} held by {other} and {id}"));
                        }
                    }
                }
                Target::Small(_) => {}
            }
        }
        // 4. Embedded small pool invariants.
        self.small.validate()?;
        Ok(())
    }
}

impl AllocatorCore for GmLakeAllocator {
    fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
        if req.size == 0 {
            return Err(AllocError::ZeroSize);
        }
        self.driver.advance_clock(self.host_op_ns);
        if req.size < self.config.small_threshold {
            return self.allocate_small(req);
        }
        let result = match self.try_allocate_large(req) {
            Err(AllocError::OutOfMemory { .. }) => {
                // S5 fallback: surrender every cached structure and retry once.
                let released = self.release_cached_impl();
                if released == 0 {
                    self.counters.record(AllocState::Oom);
                    self.iter_non_exact += 1;
                    self.stats.oom_count += 1;
                    return Err(AllocError::OutOfMemory {
                        requested: req.size,
                        reserved: self.stats.reserved_bytes,
                        capacity: self.driver.capacity(),
                    });
                }
                self.try_allocate_large(req).map_err(|e| {
                    if matches!(e, AllocError::OutOfMemory { .. }) {
                        self.counters.record(AllocState::Oom);
                        self.iter_non_exact += 1;
                        self.stats.oom_count += 1;
                    }
                    e
                })
            }
            other => other,
        };
        if result.is_ok() {
            // StitchFree: trim the sPool now that the new block (if any) is
            // assigned and therefore protected from eviction.
            self.enforce_spool_capacity();
        }
        result
    }

    fn alloc_on_stream(
        &mut self,
        req: AllocRequest,
        stream: StreamId,
    ) -> Result<Allocation, AllocError> {
        // Pin the stream for the duration of the call: exact-match BestFit
        // results prefer same-stream candidates, and the block handed out is
        // stamped as last used by `stream`.
        self.current_stream = Some(stream);
        let result = self.allocate(req);
        self.current_stream = None;
        result
    }

    fn free_on_stream(&mut self, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
        // The freeing stream is the block's last user: stamp it so the next
        // exact match from that stream finds its own warm block.
        self.current_stream = Some(stream);
        let result = self.deallocate(id);
        self.current_stream = None;
        result
    }

    fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
        let (target, size) = self
            .live
            .remove(&id)
            .ok_or(AllocError::UnknownAllocation(id))?;
        self.driver.advance_clock(self.host_op_ns);
        match target {
            Target::P(pid) => {
                let p = self.pblocks.get_mut(pid).expect("live pblock");
                p.assigned_to = None;
                if self.current_stream.is_some() {
                    p.last_stream = self.current_stream;
                }
                self.set_pblock_active(pid, false);
            }
            Target::S(sid) => {
                let tick = self.next_tick();
                let s = self.sblocks.get_mut(sid).expect("live sblock");
                s.assigned_to = None;
                s.lru_tick = tick;
                if self.current_stream.is_some() {
                    s.last_stream = self.current_stream;
                }
                // The last part's deactivation re-enters the view into the
                // eviction index under its new tick.
                for i in 0..self.sblocks[sid].parts.len() {
                    let pid = self.sblocks[sid].parts[i];
                    self.set_pblock_active(pid, false);
                }
            }
            Target::Small(inner) => {
                if let Err(e) = self.small.deallocate(inner) {
                    // Keep the allocation live so a rolled-back fault can be
                    // retried; anything else still indicates a bug.
                    self.live.insert(id, (target, size));
                    return Err(match e {
                        AllocError::DriverFault { .. } => e,
                        other => AllocError::Driver(format!("small pool: {other}")),
                    });
                }
            }
        }
        self.stats.on_free(size);
        self.sync_reserved();
        Ok(())
    }

    fn stats(&self) -> MemStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "gmlake"
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn iteration_boundary(&mut self) {
        if self.iter_allocs > 0 && self.iter_non_exact == 0 {
            self.converged_streak += 1;
        } else {
            self.converged_streak = 0;
        }
        self.iterations += 1;
        self.non_exact_history.push(self.iter_non_exact);
        self.iter_non_exact = 0;
        self.iter_allocs = 0;
    }

    fn release_cached(&mut self) -> u64 {
        self.release_cached_impl()
    }

    fn set_stitch_enabled(&mut self, enabled: bool) {
        self.stitch_enabled = enabled;
    }

    fn fault_journal_stats(&self) -> gmlake_alloc_api::FaultJournalStats {
        gmlake_alloc_api::FaultJournalStats {
            failed_ops: self.journal.failed_ops,
            orphan_vas: self.journal.orphan_vas,
            orphan_va_bytes: self.journal.orphan_va_bytes,
            orphan_chunks: self.journal.orphan_chunks,
        }
    }

    /// GMLake's proactive defrag pass, gentler than the OOM fallback:
    ///
    /// 1. **sPool GC** — destroys unassigned sBlock structures that are
    ///    *blocked* (some part is active). An unassigned view whose parts
    ///    are woven into live allocations cannot serve an exact match, so
    ///    it is pure bookkeeping weight; dropping it releases its VA range
    ///    and un-references its parts, replenishing the cheap
    ///    (`StitchCost::Unreferenced`) stitching supply. Fully-inactive
    ///    views — the ready exact-match candidates behind the S1 steady
    ///    state — are deliberately kept.
    /// 2. **Dead-fragment release** — returns the physical memory of
    ///    inactive, unassigned, unreferenced pBlocks smaller than the
    ///    fragmentation limit. Such blocks are excluded from stitching by
    ///    the §4.2.3 robustness rule, so short of an improbable exact match
    ///    they are stranded capacity.
    ///
    /// Returns the physical bytes released (structure GC frees only virtual
    /// address space, which is unmetered).
    fn compact(&mut self) -> u64 {
        let blocked: Vec<SBlockId> = self
            .sblocks
            .iter()
            .filter(|(_, s)| s.assigned_to.is_none() && s.active_parts > 0)
            .map(|(sid, _)| sid)
            .collect();
        for sid in blocked {
            if self.destroy_sblock(sid).is_ok() {
                self.counters.evictions += 1;
            }
        }
        let dead: Vec<PBlockId> = self
            .pblocks
            .iter()
            .filter(|(_, p)| {
                !p.active
                    && p.assigned_to.is_none()
                    && p.referenced_by.is_empty()
                    && p.size < self.config.frag_limit
            })
            .map(|(pid, _)| pid)
            .collect();
        let mut released = 0;
        for pid in dead {
            let size = self.pblocks[pid].size;
            if self.destroy_pblock(pid).is_ok() {
                released += size;
            }
        }
        self.sync_reserved();
        self.emit(EventKind::Defrag, released, 0, 0);
        released
    }
}

impl Drop for GmLakeAllocator {
    fn drop(&mut self) {
        // Destructors never fail (C-DTOR-FAIL): best-effort teardown via
        // the batched entry points.
        let sids: Vec<SBlockId> = self.sblocks.keys().collect();
        for sid in sids {
            let s = self.sblocks.remove(sid).expect("listed above");
            let _ = self.driver.mem_unmap_range(s.va, s.size);
            let _ = self.driver.mem_address_free(s.va, s.size);
        }
        let pids: Vec<PBlockId> = self.pblocks.keys().collect();
        for pid in pids {
            let p = self.pblocks.remove(pid).expect("listed above");
            let _ = self.driver.mem_unmap_range(p.va, p.size);
            let _ = self.driver.mem_release_batch(&p.chunks);
            let _ = self.driver.mem_address_free(p.va, p.size);
        }
    }
}
