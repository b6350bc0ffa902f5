//! The GMLake allocator (§3.3 and §4 of the paper).
//!
//! Large requests (≥ 2 MiB) are served by the virtual-memory-stitching
//! machinery: `BestFit` (Algorithm 1) classifies each request into one of
//! the states S1–S4 of Figure 9 and the corresponding post-processing runs:
//!
//! * **S1** exact match — hand out a cached sBlock/pBlock unchanged;
//! * **S2** single larger pBlock — `Split` it, or use it whole when the
//!   remainder would fall below `frag_limit`;
//! * **S3** multiple pBlocks — `Stitch` them into a new sBlock, splitting
//!   the final candidate down to the request unless the remainder would
//!   fall below `frag_limit`, in which case it is kept whole and the view
//!   maps more than the request. Among unreferenced blocks the final
//!   candidate is the smallest one kept whole this way, if one covers the
//!   rest; only otherwise is it the next in descending order, split;
//! * **S4** insufficient — `Alloc` a fresh reservation, stitching it with
//!   whatever leftovers exist;
//! * **S5** — out of memory: release every cached structure and retry
//!   once. Small requests (< 2 MiB), served by the embedded caching pool,
//!   take the same fallback, so an idle large cache never starves them.
//!
//! # Physical layout
//!
//! `Alloc` reserves a VA range and backs the whole of it with one physical
//! handle: one `mem_create`, one `mem_map`, one `mem_set_access`. `Split`
//! happens in place and makes no driver call: the children are the two
//! sub-ranges `[va, va + left)` and `[va + left, va + size)` of the
//! parent's range, already mapped and access-enabled, and a piece's bytes
//! sit at offset `va − resv` in its reservation's handle. `Stitch` maps
//! each part as one entry, a window onto that handle, so a view of `p`
//! parts is `p` map entries and its `mem_set_access` is charged per part.
//!
//! **This layout needs a driver CUDA does not have.** A window starts
//! inside its handle, which only gpu-sim's hypothetical
//! [`CudaDriver::mem_map_window`] allows; `cuMemMap` requires offset 0. On
//! CUDA as it stands a stitched part must be made of whole handles, so
//! the paper's GMLake backs pBlocks with one handle per 2 MiB chunk and
//! pays `mem_set_access` per chunk; the stall this layout saves in the
//! benchmark does not transfer to real hardware (`docs/architecture.md`,
//! *Physical layout*, has the CUDA-legal alternatives and their cost).
//!
//! Deallocation is the `Update` function: it only flips activity state;
//! physical memory stays cached in the pools. `StitchFree` evicts
//! least-recently-used inactive sBlock *structures* when the sPool exceeds
//! its capacity. CUDA cannot unmap or release part of a mapping, so
//! physical memory goes back one whole reservation at a time, in the
//! reclaim walk of [`GmLakeAllocator::release_cached`] (the OOM fallback)
//! and `compact`, or on drop. The walk visits the *dirty* reservations in
//! VA order, merges idle neighbours among their pieces (bookkeeping only)
//! and returns those whose every piece is idle: all of them for
//! `release_cached`; for `compact`, those whose pieces are all below its
//! limit, `frag_limit` or the byte-weighted mean size of the large
//! requests served (Σa²/Σa), whichever is larger. A reservation turns
//! dirty only where one of its pieces may have become idle or mergeable:
//! an unreferenced pBlock's free, an inactive block losing its last view,
//! a retired stamp, a split or a fresh `Alloc`. A view's parts are
//! referenced, so its free marks nothing; the teardown of its last view
//! does. Every visited reservation leaves the set but one whose release
//! faulted and a wholly idle one that a stamp keeps in pieces. A wholly
//! idle one-piece reservation that `compact` spares goes to a
//! `(size, base)` index instead: a later `compact` whose limit has risen
//! past its size, and every `release_cached`, move it back. So a
//! `compact` over an unchanged pool, at an unchanged limit, visits none.
//!
//! # Hot-path data structures
//!
//! Blocks live in dense [`Slab`] arenas (ids are sequential, lookups are an
//! indexed load). pBlocks are indexed by a [`TieredPIndex`] — one
//! `(size, id)` set for the inactive blocks no cached view references and
//! one for every referenced block, active or not. Views are indexed by size
//! (`s_by_size`: per aligned request size a view was stitched for — not the
//! size it maps, which a part kept whole makes larger — one id-sorted `Vec`
//! of every view from its stitch to its teardown), so the request that
//! built a view finds it again, and by age (an intrusive [`LruList`] of the
//! unassigned views, oldest `lru_tick` first). The indexes change only
//! where *structure* changes: stitch, split and teardown; an activity flip
//! moves only an unreferenced block in or out of the pBlock index.
//! Assigning and freeing a view unlinks it from the list and appends it
//! back, `O(1)` each. The readers of the referenced tier skip its active
//! entries, and the readers of the size index skip its assigned views.
//!
//! What those readers and the flips look at sits apart from the blocks, in
//! [`Dense`] arrays indexed by slab id: one flags byte per pBlock —
//! `ACTIVE`; `REFERENCED` and `PARKS`, which say that its view list and its
//! parked list are non-empty; and `STAMPED`, which says that it carries a
//! cross-stream stamp — and per view an `assigned` flag and the witness
//! hint below, stored as a part's id (`Split` moves it to the left child).
//! Activity has no other record. A skip is one byte load, and neither an
//! S1 walk step nor a part flip loads a `PBlock` or an `SBlock` struct.
//!
//! **Availability is a query, not a counter.** Whether a view could serve
//! an exact match — every part inactive — is never stored: the paper's
//! `Update` (§3.3.1) flips a pBlock's flag, and touches the index only for
//! a block no view references, however many views share the block. The three
//! places that need the answer ask for it, by scanning the view's parts
//! behind a per-view *witness hint* (the part last found active, checked
//! first — a view that is still blocked costs one load):
//!
//! * the exact-match walk meets the views of the requested size in id
//!   order, skips the assigned ones on their flag, verifies the rest and
//!   takes the first available one;
//! * an S3/S4 walk that runs out of unreferenced blocks classifies once:
//!   it verifies the views in the eviction list, marks the parts of the
//!   available ones, and defers marked blocks behind the unmarked;
//! * a `StitchFree` victim scan verifies the candidates it meets, and
//!   *parks* each blocked one on its witness part — out of the eviction
//!   list, so neither later scans nor S3/S4 classification see it — until
//!   that part deactivates and puts it back under its old tick.
//!
//! **Cost model.** With `p` parts per view and `r` views referencing a
//! pBlock, an S1 allocation or free of a view costs `O(p)` flips, each one
//! flags byte ([`GmLakeAllocator::flip`], which cannot reach a `PBlock`),
//! plus one `O(1)` list splice, and no ordered-index operation: a view's
//! parts are referenced, so no flip touches the pBlock index, the view
//! keeps its size entry, and the list needs no search to append a fresh
//! tick. A free writes a part's stamp only when it leaves one. None of it
//! depends on `r` (sharing on converged LoRA pools is dense — `r` ≈ 34,
//! `p` ≈ 24–32 on the benchmark's `train_lr` — and an eager counter per
//! view made this `O(p·r)`). A standalone pBlock's flip is one `O(log n)`
//! index operation. The readers pay instead, one skip per active block or
//! assigned view they meet. The exact match costs one hash lookup and then
//! `O(c + p)` for the `c` same-size views it passes, over a contiguous id
//! slice: a step is one flag load (assigned) and one hint lookup (the
//! hinted part's `ACTIVE` byte), and only the view taken has its parts
//! scanned, whatever stream asks. A hand-out loads the `PBlock` only of a
//! part that `STAMPED` says carries a stamp. S3/S4 pays `O(u + Σp)` once
//! per call for the `u` unparked unassigned views and the parts of those
//! it has to scan; a victim scan pays for the blocked views it meets once
//! each, and an unpark walks the list from its head to the view's tick.
//!
//! `validate()` is the oracle for all of it: it re-derives availability by
//! scanning parts, ignoring the hints, and checks the indexes, the list's
//! links and tick order, the parked lists and the placement against that;
//! and it holds every flag to what it summarises, a dead slot to zero and
//! the size lists to the set of views.
//!
//! # Streams
//!
//! Reuse across streams follows the rule of CUDA's stream-ordered allocator
//! (`cudaMemPoolReuseAllowInternalDependencies`). Every live allocation
//! remembers the stream that allocated it. A free from *another* stream
//! records an event on the freeing stream, if it has work in flight, and
//! stamps the freed pBlocks with it; the blocks stay in every index, so
//! `BestFit` decides exactly as it would without streams. Handing a stamped
//! block to a stream other than the freeing one enqueues a GPU-side wait
//! (`stream_wait_event`) on the receiving stream — the host never blocks.
//! A streamless `allocate` names no receiving stream, so a stamped block it
//! gets is waited out on the host instead (a streamless `deallocate` frees
//! from `StreamId::DEFAULT`). Teardowns that unmap a stamped block
//! synchronize its event first, and
//! [`AllocatorCore::process_events`] retires stamps whose events completed.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use gmlake_alloc_api::{
    AllocError, AllocRequest, Allocation, AllocationId, AllocatorCore, EventId, FaultJournalStats,
    IdMap, MemStats, StreamId, VirtAddr, SMALL_THRESHOLD,
};
use gmlake_caching::CachingAllocator;
use gmlake_gpu_sim::{CudaDriver, DriverError, PhysHandle};
use gmlake_telemetry::{EventKind, PoolTelemetry};

use crate::bestfit::{best_fit_indexed, BestFit, StitchCost, TieredPIndex};
use crate::block::{idle, slot, Dense, PBlock, PBlockId, Reservation, SBlock, SBlockId, Target};
use crate::block::{ViewFlags, ACTIVE, PARKS, REFERENCED, STAMPED};
use crate::config::{AllocState, GmLakeConfig, StateCounters};
use crate::lru::LruList;
use crate::slab::Slab;

/// Deterministic work counts of the activity-flip and availability-query
/// paths and of the reclaim walk. Hidden: they exist so tests and
/// `probe_convergence` can pin the cost model of the module docs on
/// counters instead of wall-clock.
#[doc(hidden)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkCounters {
    /// pBlock activity flips.
    pub part_flips: u64,
    /// Availability queries answered (a view checked for an active part).
    pub views_verified: u64,
    /// Parts those queries looked at, the hinted one included.
    pub parts_scanned: u64,
    /// `referenced_by` walks deriving a pBlock's three-way stitch cost.
    pub ref_scans: u64,
    /// pBlocks re-placed in the index after their first reference appeared
    /// or their last one went.
    pub tier_moves: u64,
    /// Inserts and removes on the pBlock index.
    pub index_ops: u64,
    /// Active entries the readers of the referenced tier passed over.
    pub active_skips: u64,
    /// Ordered-index operations on views: inserts and removes on the size
    /// index, and tick-ordered inserts into the eviction list (an unpark).
    pub view_index_ops: u64,
    /// `O(1)` appends to and unlinks from the eviction list.
    pub lru_splices: u64,
    /// Insertions into the reclaim walk's dirty set.
    pub reclaim_marks: u64,
    /// Reservations the reclaim walk visited.
    pub reclaim_visits: u64,
}

/// [`WorkCounters`] as kept, all but `index_ops` and `lru_splices`, which the
/// index and the list count themselves: the queries run behind `&self`.
#[derive(Debug, Default)]
struct Work {
    part_flips: Cell<u64>,
    views_verified: Cell<u64>,
    parts_scanned: Cell<u64>,
    ref_scans: Cell<u64>,
    tier_moves: Cell<u64>,
    active_skips: Cell<u64>,
    view_index_ops: Cell<u64>,
    reclaim_marks: Cell<u64>,
    reclaim_visits: Cell<u64>,
}

fn bump(counter: &Cell<u64>, by: u64) {
    counter.set(counter.get() + by);
}

/// Puts reservation `resv` in the reclaim walk's dirty set if its piece
/// with `flags` is idle, counted: it may merge with a neighbour now, or have
/// been the last piece holding the reservation.
fn mark_if_idle(dirty: &mut BTreeSet<VirtAddr>, work: &Work, flags: u8, resv: VirtAddr) {
    if idle(flags) {
        dirty.insert(resv);
        bump(&work.reclaim_marks, 1);
    }
}

/// Whether a reclaim walk may merge piece `pid` with an idle neighbour:
/// idle, and guarded by no event.
fn mergeable(flags: &[u8], pid: PBlockId) -> bool {
    flags[pid as usize] & (ACTIVE | REFERENCED | STAMPED) == 0
}

/// Keeps `event` in `newest` if it is `stream`'s newest so far — events of
/// one stream complete in id order, so the newest covers the rest.
fn note_newest(newest: &mut Vec<(StreamId, EventId)>, stream: StreamId, event: EventId) {
    match newest.iter_mut().find(|(s, _)| *s == stream) {
        Some(slot) => slot.1 = slot.1.max(event),
        None => newest.push((stream, event)),
    }
}

/// Clears the stamps on `parts` and returns, per freeing stream, the newest
/// event among them. Only a part whose `STAMPED` flag is set is loaded.
fn take_stamps(
    pblocks: &mut Slab<PBlock>,
    flags: &mut [u8],
    parts: &[PBlockId],
) -> Vec<(StreamId, EventId)> {
    let mut newest = Vec::new();
    for &pid in parts {
        let f = &mut flags[pid as usize];
        if *f & STAMPED != 0 {
            *f &= !STAMPED;
            let (stream, event) = pblocks[pid].stamp.take().expect("STAMPED");
            note_newest(&mut newest, stream, event);
        }
    }
    newest
}

/// How many evictable entries of the LRU-ordered eviction list a
/// `StitchFree` pass inspects before destroying one (see
/// [`GmLakeAllocator::pick_stitchfree_victim`]). Each inspection scans the
/// candidate's parts, so the window stays small.
const EVICT_SCAN_WINDOW: usize = 8;

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
    /// Optional observability sink: stitch-decision trace records and the
    /// BestFit latency histogram. `None` costs one branch per decision.
    telemetry: Option<Arc<PoolTelemetry>>,
    small: CachingAllocator,
    pblocks: Slab<PBlock>,
    sblocks: Slab<SBlock>,
    /// pBlock activity and the view flags the S1 path reads, by slab id.
    dense: Dense,
    /// The VA reservations pBlocks lie in, by base (`PBlock::resv`).
    reservations: BTreeMap<VirtAddr, Reservation>,
    /// Bases of the reservations the next reclaim walk visits: each may
    /// have a piece that became idle or mergeable since its last walk.
    /// Every other one has no two adjacent mergeable pieces, and either a
    /// live or referenced piece or is in `spared`, so a `compact` walk at
    /// the same limit would leave it as it is.
    dirty: BTreeSet<VirtAddr>,
    /// Wholly idle one-piece reservations a `compact` walk spared, keyed
    /// `(size, base)`. A later `compact` whose limit passes a size, and
    /// every `release_cached`, move the entry back to `dirty`. An entry
    /// may outlive its reservation's idleness; such a one costs one visit.
    spared: BTreeSet<(u64, VirtAddr)>,
    /// Σa and Σa² over the aligned sizes `a` of the large requests handed
    /// out: their ratio is the byte-weighted mean request, which
    /// `compact`'s limit follows (see [`Self::compact_limit`]).
    served: (u128, u128),
    /// pBlocks keyed `(size, id)`: the inactive unreferenced ones, and every
    /// referenced one, active or not (see [`TieredPIndex`]).
    p_index: TieredPIndex,
    /// Every sBlock, by the aligned request size it was stitched for
    /// (`SBlock::request`) and then id, from its stitch to its teardown:
    /// the exact-match candidates. Assignment and free leave it alone; its
    /// readers skip an assigned view on its flag and ask about the rest.
    s_by_size: IdMap<u64, Vec<SBlockId>>,
    /// Eviction list, oldest `lru_tick` first: every unassigned view that
    /// is not parked. A view is appended when it is stitched or freed and
    /// unlinked when it is assigned or destroyed; one that merely gets
    /// *blocked* stays until a `StitchFree` scan meets it and parks it on
    /// the active part it found (`SBlock::parked_on`), to re-enter under its
    /// old tick when that part deactivates. S3/S4 classification walks
    /// exactly this list.
    lru: LruList,
    /// Views parked on a witness part (`SBlock::parked_on`): the unassigned
    /// views off the eviction list. A sweep of the unassigned views reads
    /// the parked lists only while this is non-zero.
    parked: usize,
    /// Scratch of S3/S4 classification, indexed by pBlock id: the parts of
    /// the views found available. Kept to reuse its buffer.
    available_parts: Vec<bool>,
    work: Work,
    /// Live allocations: target, size, and the stream that allocated them
    /// (`StreamId::DEFAULT` for a streamless call).
    live: IdMap<AllocationId, (Target, u64, StreamId)>,
    /// Per freeing stream with stamps out, the newest event it stamped:
    /// once that one completes, so has every stamp of the stream.
    stamp_streams: Vec<(StreamId, EventId)>,
    next_alloc: u64,
    tick: u64,
    stats: MemStats,
    /// Physical bytes owned by pBlocks (excludes the small pool's segments).
    reserved_phys: u64,
    /// Driver faults survived and unwind residue. Every multi-call driver
    /// sequence (`stitch`, `alloc_new_pblock`, the teardown paths) is
    /// transactional: a call failing mid-sequence is unwound with
    /// compensating driver calls and returns [`AllocError::DriverFault`].
    /// Under a transient fault the unwind always succeeds, so a failed op
    /// leaves no residue; under persistent faults the resources the unwind
    /// could not return are counted here as orphans.
    journal: FaultJournalStats,
    counters: StateCounters,
    iterations: u64,
    iter_non_exact: u64,
    iter_allocs: u64,
    converged_streak: u64,
    non_exact_history: Vec<u64>,
    /// Stream of the in-flight `alloc_on_stream`/`free_on_stream` call, if
    /// any. Set for the duration of the call so `register_allocation` and
    /// `deallocate` can record the last stream of a directly held pBlock
    /// and apply the cross-stream rule (`None` frees from
    /// `StreamId::DEFAULT`, and waits out a stamped block it is handed on
    /// the host), and so an exact pBlock match can prefer a same-stream
    /// candidate.
    current_stream: Option<StreamId>,
}

impl GmLakeAllocator {
    /// Creates a GMLake allocator on `driver`.
    pub fn new(driver: CudaDriver, config: GmLakeConfig) -> Self {
        let chunk = driver.granularity();
        let host_op_ns = driver.host_op_ns();
        let small = CachingAllocator::new(driver.clone());
        GmLakeAllocator {
            driver,
            config,
            chunk,
            host_op_ns,
            telemetry: None,
            small,
            pblocks: Slab::new(),
            sblocks: Slab::new(),
            dense: Dense::default(),
            reservations: BTreeMap::new(),
            dirty: BTreeSet::new(),
            spared: BTreeSet::new(),
            served: (0, 0),
            p_index: TieredPIndex::new(),
            s_by_size: IdMap::default(),
            lru: LruList::default(),
            parked: 0,
            available_parts: Vec::new(),
            work: Work::default(),
            live: IdMap::default(),
            stamp_streams: Vec::new(),
            next_alloc: 0,
            tick: 0,
            stats: MemStats::default(),
            reserved_phys: 0,
            journal: FaultJournalStats::default(),
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
    pub fn fault_journal(&self) -> FaultJournalStats {
        self.journal
    }

    /// Cumulative flip- and query-path work counts (see [`WorkCounters`]).
    #[doc(hidden)]
    pub fn work_counters(&self) -> WorkCounters {
        WorkCounters {
            part_flips: self.work.part_flips.get(),
            views_verified: self.work.views_verified.get(),
            parts_scanned: self.work.parts_scanned.get(),
            ref_scans: self.work.ref_scans.get(),
            tier_moves: self.work.tier_moves.get(),
            index_ops: self.p_index.ops(),
            active_skips: self.work.active_skips.get(),
            view_index_ops: self.work.view_index_ops.get(),
            lru_splices: self.lru.splices,
            reclaim_marks: self.work.reclaim_marks.get(),
            reclaim_visits: self.work.reclaim_visits.get(),
        }
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

    // ------------------------------------------------------------------
    // Internal machinery
    // ------------------------------------------------------------------

    /// The remainder below which S2 and S3 keep a block whole rather than
    /// split it.
    fn keep_whole(&self) -> u64 {
        self.config.frag_limit.max(self.chunk)
    }

    /// `size` rounded up to whole chunks; `None` past `u64::MAX`.
    fn align_up(&self, size: u64) -> Option<u64> {
        size.div_ceil(self.chunk).checked_mul(self.chunk)
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn sync_reserved(&mut self) {
        let reserved = self.reserved_phys + self.small.stats().reserved_bytes;
        self.stats.set_reserved(reserved);
    }

    /// The availability query: an active part of view `sid`, or `None` when
    /// every part is inactive. Checks the witness hint first, which reads
    /// no block, and leaves it on the part found; only a miss reads the
    /// view's parts. Takes the fields it reads so `BestFit` can ask while
    /// the scratch buffer is borrowed.
    fn witness(
        dense: &Dense,
        sblocks: &Slab<SBlock>,
        work: &Work,
        sid: SBlockId,
    ) -> Option<PBlockId> {
        bump(&work.views_verified, 1);
        let hint = &dense.s[sid as usize].hint;
        if dense.active(hint.get()) {
            bump(&work.parts_scanned, 1);
            return Some(hint.get());
        }
        let parts = &sblocks[sid].parts;
        let at = parts.iter().position(|&pid| dense.active(pid));
        bump(
            &work.parts_scanned,
            1 + at.map_or(parts.len(), |at| at + 1) as u64,
        );
        let found = at.map(|at| parts[at]);
        if let Some(pid) = found {
            hint.set(pid);
        }
        found
    }

    /// Whether an entry of the referenced tier is active, which its readers
    /// skip (counted).
    fn active_entry(dense: &Dense, work: &Work, pid: PBlockId) -> bool {
        let active = dense.active(pid);
        bump(&work.active_skips, active as u64);
        active
    }

    /// An sBlock is *available* when it could serve an exact match right
    /// now: unassigned with every part inactive. An assigned one is
    /// rejected on its flag. Takes the fields it reads, like `witness`.
    fn available(dense: &Dense, sblocks: &Slab<SBlock>, work: &Work, sid: SBlockId) -> bool {
        !dense.s[sid as usize].assigned && Self::witness(dense, sblocks, work, sid).is_none()
    }

    fn view_available(&self, sid: SBlockId) -> bool {
        Self::available(&self.dense, &self.sblocks, &self.work, sid)
    }

    /// [`Self::view_available`] the slow way, from `assigned_to` and a scan
    /// of the parts, ignoring the hint: the oracle `validate()` and the
    /// reference `BestFit` differential use.
    fn scan_available(&self, s: &SBlock) -> bool {
        s.assigned_to.is_none() && s.parts.iter().all(|&pid| !self.dense.active(pid))
    }

    /// A pBlock's three-way stitch cost, by walking its references and
    /// asking `available` about each view: `O(|referenced_by|)` queries.
    fn stitch_cost(&self, pid: PBlockId, available: impl Fn(SBlockId) -> bool) -> StitchCost {
        let p = &self.pblocks[pid];
        if p.referenced_by.is_empty() {
            return StitchCost::Unreferenced;
        }
        bump(&self.work.ref_scans, 1);
        if p.referenced_by.iter().any(|&sid| available(sid)) {
            StitchCost::ReferencedAvailable
        } else {
            StitchCost::ReferencedBlocked
        }
    }

    /// Re-places a pBlock in the index, and sets its `REFERENCED` flag,
    /// after its first reference appeared (it is inactive: only inactive
    /// blocks are stitched) or its last one went: it leaves its tier for
    /// the other one, or, if active, leaves the index. An inactive block
    /// that lost its last view is idle, which dirties its reservation.
    fn retier_pblock(&mut self, pid: PBlockId) {
        let p = &self.pblocks[pid];
        let referenced = !p.referenced_by.is_empty();
        let flags = &mut self.dense.p[pid as usize];
        *flags = (*flags & !REFERENCED) | if referenced { REFERENCED } else { 0 };
        self.p_index.remove(!referenced, p.size, pid);
        if *flags & ACTIVE == 0 {
            self.p_index.insert(referenced, p.size, pid);
        }
        mark_if_idle(&mut self.dirty, &self.work, *flags, p.resv);
        bump(&self.work.tier_moves, 1);
    }

    /// Removes an inactive pBlock from the arena, the index and the flags.
    fn remove_pblock(&mut self, pid: PBlockId) -> PBlock {
        let p = self.pblocks.remove(pid).expect("pblock exists");
        debug_assert!(p.parked.is_empty(), "an inactive block parks nothing");
        self.p_index
            .remove(!p.referenced_by.is_empty(), p.size, pid);
        self.dense.p[pid as usize] = 0;
        p
    }

    /// Sets a pBlock's activity flag, counting a change, and says whether
    /// the block needs more than that: it changed and is unreferenced (it
    /// enters or leaves the index) or has views parked on it. Every flip of
    /// a view's S1 cycle — a referenced block, nothing parked — ends here.
    /// It takes the flags byte alone, so it cannot touch a `PBlock`.
    fn flip(flags: &mut u8, work: &Work, active: bool) -> bool {
        if (*flags & ACTIVE != 0) == active {
            return false;
        }
        *flags ^= ACTIVE;
        bump(&work.part_flips, 1);
        *flags & (REFERENCED | PARKS) != REFERENCED
    }

    /// Flips a pBlock's activity — the whole of the paper's `Update`: the
    /// flag, and on deactivation the return of the views parked on it to
    /// the eviction list, each under its old tick. A referenced block keeps
    /// its index entry, so a view's parts flip in `O(1)` each however many
    /// views share them, in [`Self::flip`] alone unless views are parked;
    /// only an unreferenced block enters or leaves the index, `O(log n)`,
    /// and dirties its reservation when it goes idle.
    fn set_pblock_active(&mut self, pid: PBlockId, active: bool) {
        let flags = &mut self.dense.p[pid as usize];
        if !Self::flip(flags, &self.work, active) {
            return;
        }
        let p = &mut self.pblocks[pid];
        if *flags & REFERENCED == 0 {
            if active {
                self.p_index.remove(false, p.size, pid);
            } else {
                self.p_index.insert(false, p.size, pid);
                mark_if_idle(&mut self.dirty, &self.work, *flags, p.resv);
            }
        }
        if active {
            return;
        }
        *flags &= !PARKS;
        self.parked -= p.parked.len();
        for sid in std::mem::take(&mut p.parked) {
            self.sblocks[sid].parked_on = None;
            self.lru.insert_by_tick(&mut self.sblocks, sid);
            bump(&self.work.view_index_ops, 1);
        }
    }

    /// Waits out on the host the events stamped on `parts`, and clears the
    /// stamps: what a teardown does before it unmaps memory that a stream
    /// may still be using.
    fn sync_stamps(
        driver: &CudaDriver,
        pblocks: &mut Slab<PBlock>,
        flags: &mut [u8],
        parts: &[PBlockId],
    ) {
        for (_, event) in take_stamps(pblocks, flags, parts) {
            driver.event_synchronize(event);
        }
    }

    /// Leaves a cross-stream free's stamp on pBlock `pid`, which it just
    /// released.
    fn stamp(&mut self, pid: PBlockId, stamp: (StreamId, EventId)) {
        self.pblocks[pid].stamp = Some(stamp);
        self.dense.p[pid as usize] |= STAMPED;
    }

    /// Tracks a stamp just left by a free as its stream's newest (see
    /// `stamp_streams`).
    fn track_stamp(&mut self, stamp: Option<(StreamId, EventId)>) {
        if let Some((stream, event)) = stamp {
            note_newest(&mut self.stamp_streams, stream, event);
        }
    }

    /// Best-effort return of a VA reservation: unmaps its first `mapped`
    /// bytes, then frees it — the unwind of a sequence that faulted after
    /// reserving, and the last step of a committed teardown. Failures are
    /// journaled instead of propagated: under a transient fault the
    /// compensating calls succeed (the fault was consumed by the original
    /// call); under persistent faults the range is orphaned and counted.
    fn unwind_va(&mut self, va: VirtAddr, reserved: u64, mapped: u64) {
        // A reservation with live mappings cannot be freed.
        let unmapped = mapped == 0 || self.driver.mem_unmap(va, mapped).is_ok();
        if !unmapped || self.driver.mem_address_free(va, reserved).is_err() {
            self.journal.orphan_vas += 1;
            self.journal.orphan_va_bytes += reserved;
        }
    }

    /// Best-effort release of a physical handle created before a
    /// mid-sequence driver fault; journals it if it could not be returned.
    fn unwind_handle(&mut self, handle: PhysHandle) {
        if self.driver.mem_release(handle).is_err() {
            self.journal.orphan_chunks += 1;
        }
    }

    /// `Alloc` (§3.3.1): reserves `size` bytes (a chunk multiple) and backs
    /// them with one fresh physical handle — one create, one map, one
    /// access call — as a new reservation whose single piece is the new
    /// pBlock. The only function that increases reserved physical memory.
    ///
    /// Transactional: a fault at any step unwinds the steps already
    /// performed, so an `Err` leaves the allocator exactly as it was.
    fn alloc_new_pblock(&mut self, size: u64) -> Result<PBlockId, DriverError> {
        debug_assert_eq!(size % self.chunk, 0);
        let va = self.driver.mem_address_reserve(size)?;
        let handle = match self.driver.mem_create(size) {
            Ok(handle) => handle,
            Err(e) => {
                self.journal.failed_ops += 1;
                self.unwind_va(va, size, 0);
                return Err(e);
            }
        };
        if let Err(e) = self.driver.mem_map(va, size, 0, handle) {
            self.journal.failed_ops += 1;
            self.unwind_handle(handle);
            self.unwind_va(va, size, 0);
            return Err(e);
        }
        if let Err(e) = self.driver.mem_set_access(va, size, true) {
            self.journal.failed_ops += 1;
            self.unwind_va(va, size, size);
            self.unwind_handle(handle);
            return Err(e);
        }
        let pid = self.pblocks.insert(PBlock::new(va, size, va));
        *slot(&mut self.dense.p, pid) = 0;
        let pieces = vec![pid];
        self.reservations.insert(
            va,
            Reservation {
                size,
                handle,
                pieces,
            },
        );
        self.p_index.insert(false, size, pid);
        mark_if_idle(&mut self.dirty, &self.work, 0, va);
        self.reserved_phys += size;
        Ok(pid)
    }

    /// `Split` (§3.3.1): divides an inactive pBlock in place into
    /// `[va, va + left_size)` and the rest. Both children are already mapped
    /// and access-enabled pieces of the parent's reservation, so the split
    /// makes no driver call and cannot fail. Referencing sBlocks keep
    /// working (their own mappings are untouched) and their part lists are
    /// rewritten to the two children, and a witness hint on the parent moves
    /// to the left child. Unreferenced children are idle neighbours, which
    /// dirties the reservation. Returns the left child.
    ///
    /// Left is inserted before right and the parent removed last: slab ids
    /// break BestFit ties, and this is the order the golden decision pin
    /// records.
    fn split_pblock(&mut self, pid: PBlockId, left_size: u64) -> PBlockId {
        let p = &self.pblocks[pid];
        debug_assert!(
            !self.dense.active(pid) && p.assigned_to.is_none(),
            "split of a live block"
        );
        debug_assert!(left_size > 0 && left_size < p.size && left_size.is_multiple_of(self.chunk));
        let (va, size, resv, stamp) = (p.va, p.size, p.resv, p.stamp);
        let refs = p.referenced_by.clone();
        // The children inherit the parent's references, and so its tier,
        // and its stamp: its whole flags byte, as it is inactive and parks
        // nothing.
        let flags = self.dense.p[pid as usize];
        let mut child = |va, size| {
            let referenced_by = refs.clone();
            let id = self.pblocks.insert(PBlock {
                referenced_by,
                stamp,
                ..PBlock::new(va, size, resv)
            });
            *slot(&mut self.dense.p, id) = flags;
            self.p_index.insert(!refs.is_empty(), size, id);
            id
        };
        let left = child(va, left_size);
        let right = child(va.offset(left_size), size - left_size);
        let pieces = &mut self.reservations.get_mut(&resv).expect("recorded").pieces;
        let at = pieces.binary_search_by_key(&va, |&x| self.pblocks[x].va);
        let at = at.expect("the reservation lists its piece");
        pieces.splice(at..=at, [left, right]);
        mark_if_idle(&mut self.dirty, &self.work, flags, resv);
        self.remove_pblock(pid);
        // Both children are inactive (the parent was), so no view's
        // availability moves and nothing is parked on the parent. A hint
        // must name a part: the parent's id may be reused by a live block.
        for &sid in &refs {
            let parts = &mut self.sblocks[sid].parts;
            let at = parts.iter().position(|&x| x == pid);
            let at = at.expect("view lists the split pblock");
            parts.splice(at..=at, [left, right]);
            let hint = &self.dense.s[sid as usize].hint;
            hint.set(if hint.get() == pid { left } else { hint.get() });
        }
        self.counters.splits += 1;
        self.emit(EventKind::Split, size, left_size, 0);
        left
    }

    /// `Stitch` (§3.3.1): creates an sBlock whose fresh VA range aliases the
    /// bytes of `parts`, in order — one map entry per part, a window onto
    /// its reservation's handle (`mem_map_window`, beyond CUDA: see the
    /// module docs). No physical memory is created. The view is filed in
    /// the size index under `request`, the aligned size it serves, which
    /// the parts may exceed (a last part kept whole).
    ///
    /// Transactional: a fault while mapping unwinds the already-mapped
    /// prefix and the reservation; on `Err` the parts are untouched.
    fn stitch(&mut self, parts: Vec<PBlockId>, request: u64) -> Result<SBlockId, DriverError> {
        let total: u64 = parts.iter().map(|&p| self.pblocks[p].size).sum();
        let va = self.driver.mem_address_reserve(total)?;
        let mut off = 0u64;
        let mut fault: Option<DriverError> = None;
        for &pid in &parts {
            let p = &self.pblocks[pid];
            debug_assert!(!self.dense.active(pid), "stitching an active part");
            let handle = self.reservations[&p.resv].handle;
            let at = p.va.as_u64() - p.resv.as_u64();
            if let Err(e) = self
                .driver
                .mem_map_window(va.offset(off), p.size, at, handle)
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
        let sid = self
            .sblocks
            .insert(SBlock::new(va, total, request, parts, tick));
        let first = self.sblocks[sid].parts[0];
        slot(&mut self.dense.s, sid).hint.set(first);
        // The new view is unassigned with all parts inactive: it is both
        // exact-matchable and evictable, and a part's first reference moves
        // it off the unreferenced tier.
        let views = self.s_by_size.entry(request).or_default();
        views.insert(views.partition_point(|&v| v < sid), sid);
        bump(&self.work.view_index_ops, 1);
        self.lru.push_back(&mut self.sblocks, sid);
        for i in 0..self.sblocks[sid].parts.len() {
            let pid = self.sblocks[sid].parts[i];
            let p = &mut self.pblocks[pid];
            p.referenced_by.push(sid);
            if p.referenced_by.len() == 1 {
                self.retier_pblock(pid);
            }
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
    /// [`EVICT_SCAN_WINDOW`] evictable entries of the LRU-ordered eviction
    /// list and prefers the view with the fewest *uniquely referenced*
    /// parts — a pBlock referenced only by its own view drops to the
    /// unreferenced tier on eviction, so destroying such a view
    /// cannibalizes cached exact-match coverage that a later request would
    /// have to re-stitch, while a view whose parts are mostly woven into
    /// other cached views is near-free to drop. Ties fall back to
    /// `(lru_tick, id)` LRU order, the paper's §3.3.2 policy.
    ///
    /// Views the scan finds blocked are parked on the active part it found
    /// (they re-enter when that part deactivates), so each is verified
    /// once, not once per scan.
    fn pick_stitchfree_victim(&mut self) -> Option<SBlockId> {
        let mut candidates = 0;
        let mut blocked = Vec::new();
        let mut best: Option<(SBlockId, usize)> = None;
        for sid in self.lru.iter(&self.sblocks) {
            if let Some(on) = Self::witness(&self.dense, &self.sblocks, &self.work, sid) {
                blocked.push((sid, on));
                continue;
            }
            let s = &self.sblocks[sid];
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
            if unique == 0 || candidates == EVICT_SCAN_WINDOW {
                break;
            }
        }
        self.parked += blocked.len();
        for (sid, on) in blocked {
            self.lru.unlink(&mut self.sblocks, sid);
            self.sblocks[sid].parked_on = Some(on);
            self.pblocks[on].parked.push(sid);
            self.dense.p[on as usize] |= PARKS;
        }
        best.map(|(sid, _)| sid)
    }

    /// `StitchFree` (§3.3.2): evicts *inactive* sBlock structures while the
    /// sPool exceeds its capacity. Victims come from a bounded scan of the
    /// eviction list, oldest first (see
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
    /// memory stays with the parts' reservations.
    ///
    /// Transactional: the unmap runs first, so on `Err` the view is fully
    /// intact and still usable. After the unmap the teardown is committed;
    /// a faulted reservation free is journaled, not propagated.
    fn destroy_sblock(&mut self, sid: SBlockId) -> Result<(), DriverError> {
        // One driver round-trip for the whole view's mappings.
        let (va, size) = {
            let s = &self.sblocks[sid];
            (s.va, s.size)
        };
        let parts = &self.sblocks[sid].parts;
        Self::sync_stamps(&self.driver, &mut self.pblocks, &mut self.dense.p, parts);
        if let Err(e) = self.driver.mem_unmap(va, size) {
            self.journal.failed_ops += 1;
            return Err(e);
        }
        self.unwind_va(va, size, 0);
        let s = &self.sblocks[sid];
        debug_assert!(s.assigned_to.is_none(), "destroying an assigned view");
        match s.parked_on {
            Some(on) => {
                let parked = &mut self.pblocks[on].parked;
                let at = parked.iter().position(|&v| v == sid);
                parked.swap_remove(at.expect("witness lists the parked view"));
                if parked.is_empty() {
                    self.dense.p[on as usize] &= !PARKS;
                }
                self.parked -= 1;
            }
            None => self.lru.unlink(&mut self.sblocks, sid),
        }
        let s = self.sblocks.remove(sid).expect("sblock exists");
        self.dense.s[sid as usize] = ViewFlags::default();
        let views = self.s_by_size.get_mut(&s.request).expect("size listed");
        views.remove(views.binary_search(&sid).expect("view listed"));
        if views.is_empty() {
            self.s_by_size.remove(&s.request);
        }
        bump(&self.work.view_index_ops, 1);
        for &pid in &s.parts {
            let p = self
                .pblocks
                .get_mut(pid)
                .expect("sblock lists a live pblock");
            let at = p.referenced_by.iter().position(|&r| r == sid);
            p.referenced_by
                .swap_remove(at.expect("part lists the view"));
            // Losing its last reference drops an inactive part to the
            // unreferenced tier, and an active one out of the index.
            if p.referenced_by.is_empty() {
                self.retier_pblock(pid);
            }
        }
        Ok(())
    }

    /// Returns a reservation's physical memory to the device. Every piece
    /// must be inactive and unreferenced. It unmaps the range, releases the
    /// handle and frees the address: three driver round-trips however many
    /// pieces it holds.
    ///
    /// Transactional: a faulted unmap leaves the reservation intact; a
    /// faulted release re-maps the range, re-enables access and aborts the
    /// destroy with every piece as it was. Only when that rollback fails
    /// too (persistent faults) are the pieces dropped from the books and
    /// the handle journaled as an orphan (a range that stays mapped keeps
    /// its address busy, which the address free then journals as an
    /// orphan VA).
    fn destroy_reservation(&mut self, base: VirtAddr) -> Result<(), DriverError> {
        let r = &self.reservations[&base];
        let (size, handle) = (r.size, r.handle);
        let (pblocks, flags) = (&mut self.pblocks, &mut self.dense.p);
        Self::sync_stamps(&self.driver, pblocks, flags, &r.pieces);
        if let Err(e) = self.driver.mem_unmap(base, size) {
            self.journal.failed_ops += 1;
            return Err(e);
        }
        if let Err(e) = self.driver.mem_release(handle) {
            self.journal.failed_ops += 1;
            let remapped = self.driver.mem_map(base, size, 0, handle).is_ok();
            if remapped && self.driver.mem_set_access(base, size, true).is_ok() {
                return Err(e);
            }
            self.journal.orphan_chunks += 1;
            if remapped {
                let _ = self.driver.mem_unmap(base, size);
            }
            self.forget_reservation(base);
            return Err(e);
        }
        self.forget_reservation(base);
        Ok(())
    }

    /// Drops a torn-down reservation and its pieces from the books and
    /// frees its address; a failure is journaled as an orphan VA.
    fn forget_reservation(&mut self, base: VirtAddr) {
        let r = self.reservations.remove(&base).expect("recorded");
        self.dirty.remove(&base);
        self.spared.remove(&(r.size, base));
        for pid in r.pieces {
            debug_assert!(mergeable(&self.dense.p, pid), "busy piece");
            self.remove_pblock(pid);
        }
        self.reserved_phys -= r.size;
        self.unwind_va(base, r.size, 0);
    }

    /// The reclaim walk of `release_cached` and `compact`: one pass over the
    /// `d` dirty reservations in VA order, a lookup among all `r` each,
    /// `O(d log r)` plus their pieces. Every other reservation has a live
    /// or referenced piece and nothing to merge, or is in `spared` (the
    /// callers move back what their limit reaches), so a walk over all of
    /// them would do no more (`validate()` checks that). It merges each run
    /// of VA-adjacent mergeable pieces into its first one — bookkeeping
    /// only, no driver call — and then returns to the device every
    /// reservation whose pieces are all inactive and unreferenced and each
    /// below `limit`. Such a reservation stays dirty until it goes, so a
    /// faulted release is retried. A wholly idle one the limit spares goes
    /// to `spared` if its pieces merged into one, and otherwise, kept apart
    /// by a stamp, stays dirty until the stamp retires; every other one
    /// leaves the set. Returns the bytes released.
    fn reclaim(&mut self, limit: u64) -> u64 {
        bump(&self.work.reclaim_visits, self.dirty.len() as u64);
        let (pblocks, index) = (&mut self.pblocks, &mut self.p_index);
        let (reservations, flags) = (&mut self.reservations, &self.dense.p);
        let spared = &mut self.spared;
        let mut doomed = Vec::new();
        self.dirty.retain(|&base| {
            let r = reservations.get_mut(&base).expect("dirty, so recorded");
            r.pieces.dedup_by(|&mut right, &mut left| {
                let merge = mergeable(flags, left) && mergeable(flags, right);
                if merge {
                    let gone = pblocks.remove(right).expect("listed piece");
                    index.remove(false, gone.size, right);
                    let p = &mut pblocks[left];
                    index.remove(false, p.size, left);
                    p.size += gone.size;
                    index.insert(false, p.size, left);
                }
                merge
            });
            if !r.pieces.iter().all(|&pid| idle(flags[pid as usize])) {
                return false;
            }
            if r.pieces.iter().all(|&pid| pblocks[pid].size < limit) {
                doomed.push((base, r.size));
                return true;
            }
            let whole = r.pieces.len() == 1;
            if whole {
                spared.insert((r.size, base));
            }
            !whole
        });
        let mut released = 0;
        for (base, size) in doomed {
            if self.destroy_reservation(base).is_ok() {
                released += size;
            }
        }
        released
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
        // A block carries a stamp only while its stream is tracked.
        if !self.stamp_streams.is_empty() {
            let (pblocks, flags) = (&mut self.pblocks, &mut self.dense.p);
            let stamps = match target {
                Target::P(pid) => take_stamps(pblocks, flags, &[pid]),
                Target::S(sid) => take_stamps(pblocks, flags, &self.sblocks[sid].parts),
                Target::Small(_) => Vec::new(),
            };
            for (freed_from, event) in stamps {
                match self.current_stream {
                    // The freeing stream's own order already covers its reuse.
                    Some(stream) if stream == freed_from => {}
                    Some(stream) => self.driver.stream_wait_event(stream, event),
                    // A streamless caller (a front-end refilling a cache for
                    // some stream) names no queue to order the wait on.
                    None => self.driver.event_synchronize(event),
                }
            }
        }
        let stream = self.current_stream.unwrap_or(StreamId::DEFAULT);
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
                // Only an available view is assigned, and nothing available
                // is parked: it leaves the eviction list (which asserts it
                // is a member), and stays in the size index.
                self.lru.unlink(&mut self.sblocks, sid);
                self.sblocks[sid].assigned_to = Some(id);
                self.dense.s[sid as usize].assigned = true;
            }
            Target::Small(_) => {}
        }
        self.live.insert(id, (target, size, stream));
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
    /// by the requesting stream. No-op for streamless calls, so `BestFit`'s
    /// classification and the reference oracle are untouched. The scan is
    /// not bounded: the limit counts candidates of the chosen tier, and for
    /// a referenced `chosen` every inactive equal-size referenced block met
    /// on the way costs an `O(r)` stitch-cost query.
    fn prefer_stream_pblock(&self, chosen: PBlockId) -> PBlockId {
        let Some(stream) = self.current_stream else {
            return chosen;
        };
        let p = &self.pblocks[chosen];
        if p.last_stream == Some(stream) {
            return chosen;
        }
        // "Same tier" means the same three-way stitch cost, which for a
        // referenced candidate is a query per block. The limit counts
        // candidates of the chosen cost; what the filter skips is bounded by
        // the equal-size referenced blocks.
        let cost = |pid: PBlockId| self.stitch_cost(pid, |sid| self.view_available(sid));
        let tier = cost(chosen);
        let same_stream = |pid: &PBlockId| self.pblocks[*pid].last_stream == Some(stream);
        if tier == StitchCost::Unreferenced {
            self.p_index
                .equal_size(false, p.size)
                .take(Self::AFFINITY_SCAN_LIMIT)
                .find(same_stream)
        } else {
            self.p_index
                .equal_size(true, p.size)
                .filter(|&pid| !Self::active_entry(&self.dense, &self.work, pid))
                .filter(|&pid| cost(pid) == tier)
                .take(Self::AFFINITY_SCAN_LIMIT)
                .find(same_stream)
        }
        .unwrap_or(chosen)
    }

    /// Cap on the equal-size *candidates* the pBlock affinity refinement
    /// weighs: blocks of the chosen stitch-cost tier. It is not a bound on
    /// the walk — what the filters reject is not counted, so the refinement
    /// can pass every block of the size (see the function above). Capping
    /// what it visits would change which block is handed out. An S1 view
    /// match has no refinement: it hands out `BestFit`'s pick, the
    /// lowest-id available view of the size, on every stream, as the
    /// reference oracle does.
    ///
    /// What the refinement buys depends on the trace. With it returning
    /// `chosen`, the benchmark's `train_lro_streams` reads the same
    /// 490.0 sim-ns/op of stall at its pinned trace seed, but 374.9 →
    /// 1 059.4 at trace seed 3; on one stream, as in `train_lr`, it never
    /// changes a pick. ROADMAP item 15 weighs it.
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

    /// Runs the indexed `BestFit`, answering its availability queries:
    /// per exact-match candidate (an assigned one is skipped on its flag),
    /// and — only for an S3/S4 walk that reaches referenced blocks — once
    /// for the whole pool, by verifying the views of the eviction list (a
    /// parked view is known blocked) and marking the parts of the available
    /// ones.
    fn best_fit(&mut self, aligned: u64) -> BestFit {
        let limits = (self.config.frag_limit, self.keep_whole());
        let (dense, sblocks, work) = (&self.dense, &self.sblocks, &self.work);
        let (lru, marks) = (&self.lru, &mut self.available_parts);
        let views = self.s_by_size.get(&aligned).map_or(&[][..], Vec::as_slice);
        best_fit_indexed(
            aligned,
            views,
            &self.p_index,
            limits,
            |sid| Self::available(dense, sblocks, work, sid),
            |pid| Self::active_entry(dense, work, pid),
            move || {
                marks.clear();
                marks.resize(dense.p.len(), false);
                for sid in lru.iter(sblocks) {
                    if Self::witness(dense, sblocks, work, sid).is_none() {
                        for &pid in &sblocks[sid].parts {
                            marks[pid as usize] = true;
                        }
                    }
                }
                &marks[..]
            },
        )
    }

    fn try_allocate_large_inner(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
        let Some(aligned) = self.align_up(req.size) else {
            return Err(AllocError::OutOfMemory {
                requested: req.size,
                reserved: self.stats.reserved_bytes,
                capacity: self.driver.capacity(),
            });
        };
        let result = match self.best_fit(aligned) {
            BestFit::ExactS(sid) => {
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
                let block_size = self.pblocks[pid].size;
                let remainder = block_size - aligned;
                if remainder >= self.keep_whole() {
                    // Splitting reshapes the pool, so it counts against
                    // convergence.
                    self.iter_non_exact += 1;
                    let left = self.split_pblock(pid, aligned);
                    let (va, size) = (self.pblocks[left].va, self.pblocks[left].size);
                    Ok(self.register_allocation(Target::P(left), va, size, req.size))
                } else {
                    // Remainder below the fragmentation limit: use the block
                    // whole (internal waste instead of an unusable fragment).
                    // This is pure best-fit reuse — the pool keeps its
                    // shape — so it does not count as an adaptation step.
                    let (va, size) = (self.pblocks[pid].va, self.pblocks[pid].size);
                    Ok(self.register_allocation(Target::P(pid), va, size, req.size))
                }
            }
            BestFit::Multiple { mut ids, sum } => {
                self.counters.record(AllocState::MultiBlock);
                self.iter_non_exact += 1;
                self.emit(EventKind::StitchDecision, aligned, 3, ids.len() as u64);
                if sum > aligned {
                    let last = ids.pop().expect("multiple has >= 2 candidates");
                    let last_size = self.pblocks[last].size;
                    let rest_sum = sum - last_size;
                    let need = aligned - rest_sum;
                    debug_assert!(need > 0 && need <= last_size);
                    if last_size - need >= self.keep_whole() {
                        ids.push(self.split_pblock(last, need));
                    } else {
                        ids.push(last); // keep whole; sBlock will be oversized
                    }
                }
                let sid = self
                    .stitch(ids, aligned)
                    .map_err(|e| AllocError::driver_fault("stitch", e))?;
                let (va, size) = (self.sblocks[sid].va, self.sblocks[sid].size);
                Ok(self.register_allocation(Target::S(sid), va, size, req.size))
            }
            BestFit::Insufficient { mut ids, sum } => {
                self.counters.record(AllocState::Insufficient);
                self.iter_non_exact += 1;
                self.emit(EventKind::StitchDecision, aligned, 4, ids.len() as u64);
                debug_assert!(sum < aligned);
                let new_size = aligned - sum;
                let new_pid = self
                    .alloc_new_pblock(new_size)
                    .map_err(|e| self.map_pblock_err(e))?;
                if ids.is_empty() {
                    let (va, size) = (self.pblocks[new_pid].va, self.pblocks[new_pid].size);
                    Ok(self.register_allocation(Target::P(new_pid), va, size, req.size))
                } else {
                    ids.push(new_pid);
                    let sid = match self.stitch(ids, aligned) {
                        Ok(sid) => sid,
                        Err(e) => {
                            // Roll the fresh reservation back; if even the
                            // teardown faults the block stays cached (state
                            // is still consistent).
                            let _ = self.destroy_reservation(self.pblocks[new_pid].resv);
                            self.sync_reserved();
                            return Err(AllocError::driver_fault("stitch", e));
                        }
                    };
                    let (va, size) = (self.sblocks[sid].va, self.sblocks[sid].size);
                    Ok(self.register_allocation(Target::S(sid), va, size, req.size))
                }
            }
        };
        // A hand-out counts towards `compact`'s limit; a failure does not.
        if result.is_ok() {
            let a = u128::from(aligned);
            self.served.0 += a;
            self.served.1 += a * a;
        }
        result
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
    /// all unassigned sBlocks, then every reservation with no live piece
    /// (a partly live one keeps its idle pieces, merged), then the small
    /// pool's cached segments. Returns bytes of physical memory released.
    /// The view sweep visits the unassigned views; the reclaim walk visits
    /// the reservations dirtied since the last one, the teardowns' included,
    /// and every one `compact` spared, all of `spared` moved back.
    fn release_cached_impl(&mut self) -> u64 {
        self.drop_unassigned_views();
        self.unspare(u64::MAX);
        let mut released = self.reclaim(u64::MAX);
        released += self.small.release_cached();
        self.sync_reserved();
        released
    }

    /// Moves the entries of `spared` below `limit` back to the dirty set,
    /// counted: a walk at `limit` may release them.
    fn unspare(&mut self, limit: u64) {
        let kept = self.spared.split_off(&(limit, VirtAddr::NULL));
        for (_, base) in std::mem::replace(&mut self.spared, kept) {
            if self.dirty.insert(base) {
                bump(&self.work.reclaim_marks, 1);
            }
        }
    }

    /// `compact`'s release limit: `frag_limit`, or the byte-weighted mean
    /// size of the large requests served so far (Σa²/Σa), if larger. A
    /// reservation below it serves that traffic only as one part of a
    /// stitch, so `compact` gives it back and the next S4 creates one of
    /// the size the traffic asks for.
    pub(crate) fn compact_limit(&self) -> u64 {
        let (sum, squares) = self.served;
        // The mean is at most the largest size counted, so it fits.
        let mean = squares.checked_div(sum).unwrap_or(0) as u64;
        self.config.frag_limit.max(mean)
    }

    /// Tears down every view not assigned to a tensor, in id order, and
    /// returns how many went. It reads only the unassigned views: the
    /// eviction list, and the parked lists while `parked` says any view is
    /// parked. A faulted teardown leaves its view intact; a later pass
    /// retries it.
    fn drop_unassigned_views(&mut self) -> u64 {
        let mut unassigned: Vec<SBlockId> = self.lru.iter(&self.sblocks).collect();
        if self.parked > 0 {
            let parks = self.dense.p.iter().enumerate();
            let witnesses = parks.filter(|&(_, &f)| f & PARKS != 0);
            for (pid, _) in witnesses {
                unassigned.extend_from_slice(&self.pblocks[pid as PBlockId].parked);
            }
        }
        // Id order, as the arena lists them: a teardown's driver calls, and
        // so an injected fault's victim, do not depend on the list's order.
        unassigned.sort_unstable();
        let dropped = unassigned.into_iter().map(|sid| self.destroy_sblock(sid));
        dropped.filter(Result::is_ok).count() as u64
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
        // 0b. A dead slot carries no flag; a live one's are checked below,
        //     against what they summarise.
        let dead_p = |(id, &f): (usize, &u8)| f != 0 && self.pblocks.get(id as u64).is_none();
        let set = |v: &ViewFlags| v.assigned || v.hint.get() != 0;
        let dead_s = |(id, v)| set(v) && self.sblocks.get(id as u64).is_none();
        let (p, s) = (&self.dense.p, &self.dense.s);
        if p.iter().enumerate().any(dead_p) || s.iter().enumerate().any(dead_s) {
            return Err("a dead slot carries flags".to_owned());
        }
        // 1. pBlock placement in the index, parked list.
        let mut phys_sum = 0u64;
        let mut indexed = 0usize;
        let mut parked_entries = 0usize;
        for (pid, p) in self.pblocks.iter() {
            phys_sum += p.size;
            let flags = self.dense.p[pid as usize];
            let active = flags & ACTIVE != 0;
            let lists = [(REFERENCED, &p.referenced_by), (PARKS, &p.parked)];
            let stale = |(bit, l): &(u8, &Vec<_>)| (flags & bit != 0) == l.is_empty();
            if lists.iter().any(stale) || (flags & STAMPED != 0) != p.stamp.is_some() {
                return Err(format!("pblock {pid}: stale flags {flags:#b}"));
            }
            let distinct: BTreeSet<SBlockId> = p.referenced_by.iter().copied().collect();
            if distinct.len() != p.referenced_by.len() {
                return Err(format!("pblock {pid} lists a referencing sblock twice"));
            }
            for sid in &p.referenced_by {
                let s = self
                    .sblocks
                    .get(*sid)
                    .ok_or_else(|| format!("pblock {pid} references dead sblock {sid}"))?;
                if !s.parts.contains(&pid) {
                    return Err(format!("sblock {sid} does not list pblock {pid}"));
                }
            }
            // Placement: referenced → the referenced tier, whatever the
            // activity; unreferenced and inactive → the unreferenced tier;
            // unreferenced and active → not indexed.
            let placed = self.p_index.placement_of(p.size, pid);
            let referenced = flags & REFERENCED != 0;
            let expected = (referenced || !active).then_some(referenced);
            indexed += expected.is_some() as usize;
            if placed != expected {
                return Err(format!(
                    "pblock {pid} (active={active}): indexed as referenced={placed:?}, expected {expected:?}"
                ));
            }
            if !active {
                if !p.parked.is_empty() {
                    return Err(format!("inactive pblock {pid} parks {:?}", p.parked));
                }
                // The hinted query agrees with the scan.
                let hinted = self.stitch_cost(pid, |sid| self.view_available(sid));
                let scanned = self.stitch_cost(pid, |sid| self.scan_available(&self.sblocks[sid]));
                if hinted != scanned {
                    return Err(format!(
                        "pblock {pid}: queries say {hinted:?} but a scan says {scanned:?}"
                    ));
                }
            }
            for sid in &p.parked {
                if self.sblocks.get(*sid).and_then(|s| s.parked_on) != Some(pid) {
                    return Err(format!("pblock {pid} parks sblock {sid}, which disagrees"));
                }
            }
            parked_entries += p.parked.len();
            if p.assigned_to.is_some() && !active {
                return Err(format!("pblock {pid}: assigned but inactive"));
            }
            // A stamp lives on an inactive block, and its stream's newest
            // tracked event covers it, so `process_events` can retire it.
            if let Some((stream, event)) = p.stamp {
                let newest = self.stamp_streams.iter().find(|(s, _)| *s == stream);
                if active || newest.is_none_or(|&(_, n)| n < event) {
                    return Err(format!(
                        "pblock {pid} (active={active}): stamp {stream:?}/{event:?} is not tracked"
                    ));
                }
            }
        }
        if phys_sum != self.reserved_phys {
            return Err(format!(
                "reserved_phys {} but pblocks sum to {phys_sum}",
                self.reserved_phys
            ));
        }
        if self.p_index.len() != indexed {
            return Err(format!(
                "p index holds {} entries but {indexed} pblocks belong in it",
                self.p_index.len()
            ));
        }
        // 1b. Reservations: each one's piece list tiles it exactly in VA
        //     order with live pBlocks naming it, so together the lists hold
        //     every pBlock once; no handle backs two of them. The dirty set
        //     holds only recorded ones, and every one a walk would merge.
        let mut handles = BTreeSet::new();
        let mut listed = 0usize;
        for (base, r) in &self.reservations {
            if !handles.insert(r.handle) {
                return Err(format!("{} backs two reservations", r.handle));
            }
            let mut cursor = *base;
            for &pid in &r.pieces {
                let p = self.pblocks.get(pid);
                if p.is_none_or(|p| p.resv != *base || p.va != cursor) {
                    return Err(format!(
                        "reservation {base}: piece {pid} is not at {cursor}"
                    ));
                }
                cursor = cursor.offset(self.pblocks[pid].size);
            }
            if r.pieces.is_empty() || cursor != base.offset(r.size) {
                return Err(format!("reservation {base}: pieces end at {cursor}"));
            }
            listed += r.pieces.len();
            // Outside the dirty set a reclaim walk would merge nothing, and
            // a wholly idle one is in `spared`, for the next pass whose limit
            // passes its size.
            let mergeable = |&pid: &PBlockId| mergeable(&self.dense.p, pid);
            let spent = r.pieces.iter().all(|&pid| idle(self.dense.p[pid as usize]));
            let spared = self.spared.contains(&(r.size, *base));
            if !self.dirty.contains(base)
                && (r.pieces.windows(2).any(|w| w.iter().all(mergeable)) || spent && !spared)
            {
                return Err(format!("clean reservation {base} needs a walk"));
            }
        }
        let recorded = |base: &VirtAddr| self.reservations.contains_key(base);
        let sized = |(size, base): &(u64, VirtAddr)| {
            self.reservations.get(base).is_some_and(|r| r.size == *size)
        };
        if !self.dirty.iter().all(recorded) || !self.spared.iter().all(sized) {
            return Err("a dirty or spared reservation is not recorded".to_owned());
        }
        if listed != self.pblocks.len() {
            return Err(format!(
                "{listed} listed pieces but {} pblocks",
                self.pblocks.len()
            ));
        }
        // 2. sBlock consistency: part lists, and — against availability
        //    re-derived by scanning — the size index, the eviction list
        //    (whose links and strictly increasing ticks it checks first)
        //    and the parked state.
        let listed: BTreeSet<SBlockId> = self.lru.validate(&self.sblocks)?.into_iter().collect();
        let mut parked_s = 0usize;
        for (sid, s) in self.sblocks.iter() {
            let mut size_sum = 0;
            let mut active = 0usize;
            for pid in &s.parts {
                let p = self
                    .pblocks
                    .get(*pid)
                    .ok_or_else(|| format!("sblock {sid} lists dead pblock {pid}"))?;
                if !p.referenced_by.contains(&sid) {
                    return Err(format!("pblock {pid} missing backref to sblock {sid}"));
                }
                size_sum += p.size;
                active += self.dense.active(*pid) as usize;
            }
            if size_sum != s.size {
                return Err(format!(
                    "sblock {sid}: parts sum {size_sum} != size {}",
                    s.size
                ));
            }
            // An unassigned view is in exactly one of {eviction list,
            // parked}; an assigned one in neither, with every part active.
            // Off the list a view keeps no links.
            let unassigned = s.assigned_to.is_none();
            let v = &self.dense.s[sid as usize];
            if v.assigned == unassigned || !s.parts.contains(&v.hint.get()) {
                return Err(format!("sblock {sid}: stale flags"));
            }
            let in_evict = listed.contains(&sid);
            if unassigned != (in_evict ^ s.parked_on.is_some()) || (in_evict && !unassigned) {
                return Err(format!(
                    "sblock {sid}: unassigned={unassigned}, eviction list={in_evict}, parked_on={:?}",
                    s.parked_on
                ));
            }
            if !in_evict && (s.prev, s.next) != (0, 0) {
                return Err(format!("sblock {sid} is off the eviction list but linked"));
            }
            if !unassigned && active != s.parts.len() {
                return Err(format!("assigned sblock {sid} has inactive parts"));
            }
            if let Some(on) = s.parked_on {
                let w = self.pblocks.get(on).filter(|_| self.dense.active(on));
                let listed = w.is_some_and(|w| w.parked.contains(&sid));
                if !listed || !s.parts.contains(&on) {
                    return Err(format!(
                        "sblock {sid} parked on {on}, not an active part that lists it"
                    ));
                }
                parked_s += 1;
            }
        }
        // The size index: each list non-empty and strictly ascending, and
        // together every view once, under the request it was stitched for,
        // which it maps with less than a splittable remainder to spare.
        let limit = self.keep_whole();
        let fits = |s: &SBlock| s.size >= s.request && s.size - s.request < limit;
        let sized = |(&size, v): (&u64, &Vec<SBlockId>)| {
            let live = |&sid: &SBlockId| {
                let s = self.sblocks.get(sid);
                s.is_some_and(|s| s.request == size && fits(s))
            };
            !v.is_empty() && v.windows(2).all(|w| w[0] < w[1]) && v.iter().all(live)
        };
        let listed: usize = self.s_by_size.values().map(Vec::len).sum();
        if listed != self.sblocks.len() || !self.s_by_size.iter().all(sized) {
            return Err("the size index does not hold exactly every sblock".to_owned());
        }
        if parked_entries != parked_s || parked_s != self.parked {
            return Err(format!(
                "{parked_entries} parked-list entries, {parked_s} parked sblocks, count {}",
                self.parked
            ));
        }
        // 3. Live allocations point at correctly-assigned targets, and no
        //    pBlock serves two live allocations.
        let mut held: IdMap<PBlockId, AllocationId> = IdMap::default();
        for (id, (target, _, _)) in &self.live {
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
        let small = req.size < SMALL_THRESHOLD;
        // The embedded small pool charges its own host op.
        if !small {
            self.driver.advance_clock(self.host_op_ns);
        }
        let attempt = |this: &mut Self| {
            if small {
                this.allocate_small(req)
            } else {
                this.try_allocate_large(req)
            }
        };
        let mut result = attempt(self);
        // S5 fallback, for both pools: surrender every cached structure and
        // retry once.
        if matches!(result, Err(AllocError::OutOfMemory { .. })) && self.release_cached_impl() > 0 {
            result = attempt(self);
        }
        match result {
            // StitchFree: trim the sPool now that the new block (if any) is
            // assigned and therefore protected from eviction.
            Ok(_) if !small => self.enforce_spool_capacity(),
            Err(AllocError::OutOfMemory { .. }) => {
                self.counters.record(AllocState::Oom);
                self.iter_non_exact += 1;
                self.stats.oom_count += 1;
                return Err(AllocError::OutOfMemory {
                    requested: req.size,
                    reserved: self.stats.reserved_bytes,
                    capacity: self.driver.capacity(),
                });
            }
            _ => {}
        }
        result
    }

    fn alloc_on_stream(
        &mut self,
        req: AllocRequest,
        stream: StreamId,
    ) -> Result<Allocation, AllocError> {
        // Pin the stream for the duration of the call: an exact pBlock
        // match prefers a same-stream candidate, and a pBlock handed out is
        // stamped as last used by `stream`.
        self.current_stream = Some(stream);
        let result = self.allocate(req);
        self.current_stream = None;
        result
    }

    fn free_on_stream(&mut self, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
        // The freeing stream is the block's last user: stamp a pBlock so
        // the next exact match from that stream finds its own warm block,
        // and, if it is not the allocating stream, guard the memory with its
        // event.
        self.current_stream = Some(stream);
        let result = self.deallocate(id);
        self.current_stream = None;
        result
    }

    fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
        let (target, size, owner) = self
            .live
            .remove(&id)
            .ok_or(AllocError::UnknownAllocation(id))?;
        // As in `allocate`: a small free is charged by the small pool.
        if !matches!(target, Target::Small(_)) {
            self.driver.advance_clock(self.host_op_ns);
        }
        // A free from a stream other than the allocating one: that stream
        // may still be using the memory, so its work in flight is captured
        // in an event before anyone else can get the block.
        let stream = self.current_stream.unwrap_or(StreamId::DEFAULT);
        let event = if stream == owner {
            None
        } else {
            self.driver.event_record_if_pending(stream)
        };
        let stamp = event.map(|event| (stream, event));
        match target {
            // An assigned block's parts carry no stamp (the hand-out took
            // them), so only a new one is written.
            Target::P(pid) => {
                let p = self.pblocks.get_mut(pid).expect("live pblock");
                p.assigned_to = None;
                if self.current_stream.is_some() {
                    p.last_stream = self.current_stream;
                }
                if let Some(stamp) = stamp {
                    self.stamp(pid, stamp);
                }
                self.set_pblock_active(pid, false);
                self.track_stamp(stamp);
            }
            Target::S(sid) => {
                let tick = self.next_tick();
                let s = self.sblocks.get_mut(sid).expect("live sblock");
                s.assigned_to = None;
                s.lru_tick = tick;
                self.dense.s[sid as usize].assigned = false;
                // Unassigned again: the newest entry of the eviction list.
                self.lru.push_back(&mut self.sblocks, sid);
                for i in 0..self.sblocks[sid].parts.len() {
                    let pid = self.sblocks[sid].parts[i];
                    if let Some(stamp) = stamp {
                        self.stamp(pid, stamp);
                    }
                    self.set_pblock_active(pid, false);
                }
                self.track_stamp(stamp);
            }
            Target::Small(inner) => {
                // The small pool's blocks carry no stamp: they wait out the
                // freeing stream on the host before it can hand them out.
                if let Some((_, event)) = stamp {
                    self.driver.event_synchronize(event);
                }
                if let Err(e) = self.small.deallocate(inner) {
                    // Keep the allocation live so a rolled-back fault can be
                    // retried; anything else still indicates a bug.
                    self.live.insert(id, (target, size, owner));
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

    /// Retires the stamps whose events completed, with one query per
    /// freeing stream — on its newest event, which completes last — so a
    /// block reused afterwards pays no wait, and an idle one may merge,
    /// which dirties its reservation. Returns how many blocks it cleared.
    fn process_events(&mut self) -> u64 {
        let driver = &self.driver;
        let mut done = Vec::new();
        self.stamp_streams.retain(|&(stream, newest)| {
            let complete = driver.event_query(newest);
            if complete {
                done.push(stream);
            }
            !complete
        });
        let mut retired = 0;
        if !done.is_empty() {
            for (pid, p) in self.pblocks.iter_mut() {
                if p.stamp.is_some_and(|(s, _)| done.contains(&s)) {
                    p.stamp = None;
                    retired += 1;
                    let flags = &mut self.dense.p[pid as usize];
                    *flags &= !STAMPED;
                    mark_if_idle(&mut self.dirty, &self.work, *flags, p.resv);
                }
            }
        }
        retired
    }

    fn release_cached(&mut self) -> u64 {
        self.release_cached_impl()
    }

    fn fault_journal_stats(&self) -> FaultJournalStats {
        self.journal
    }

    /// GMLake's proactive defrag pass, gentler than the OOM fallback:
    ///
    /// 1. **sPool GC** — destroys every unassigned sBlock structure, ready
    ///    or blocked, in id order, and counts each in `evictions`. A view
    ///    is VA only (§3.3 `StitchFree`): dropping it un-references its
    ///    parts, so idle neighbours can merge and a later request of another
    ///    shape splits or stitches them without creating memory. A ready
    ///    view kept here would pin its parts apart for a shape that may
    ///    never recur. The sweep reads the eviction list, and the parked
    ///    lists only when a view is parked, never the assigned views.
    /// 2. **Undersized release** — the reclaim walk merges idle
    ///    neighbours, then returns every reservation whose remaining
    ///    pieces are all idle and below the limit: `frag_limit`, or the
    ///    byte-weighted mean size of the large requests handed out so far
    ///    (Σa²/Σa over their aligned sizes), whichever is larger. A piece
    ///    below `frag_limit` is kept out of stitching by the §4.2.3
    ///    robustness rule, so short of an improbable exact match it is
    ///    stranded capacity. A piece below the mean request serves that
    ///    traffic only as one part of a stitch, one mapping and one access
    ///    call per part; given back, its bytes return as one contiguous
    ///    reservation at the next S4. Pieces at or above the limit stay
    ///    reserved for the next requests. The walk visits only the
    ///    reservations dirtied since the last one (step 1's included) and
    ///    the spared ones the limit has risen past; one it spares leaves
    ///    the dirty set, so a second pass over an unchanged pool at an
    ///    unchanged limit visits none.
    ///
    /// A pass costs what changed since the last one: `O(u)` teardowns for
    /// the `u` unassigned views and a walk over the `d` dirty reservations
    /// and the spared ones below the limit, with nothing scanned when those
    /// are empty. That is what lets a caller run it at every large free
    /// rather than once per step.
    ///
    /// Returns the physical bytes released (structure GC frees only virtual
    /// address space, which is unmetered).
    fn compact(&mut self) -> u64 {
        self.counters.evictions += self.drop_unassigned_views();
        let limit = self.compact_limit();
        self.unspare(limit);
        let released = self.reclaim(limit);
        self.sync_reserved();
        self.emit(EventKind::Defrag, released, 0, 0);
        released
    }
}

impl Drop for GmLakeAllocator {
    fn drop(&mut self) {
        // Destructors never fail (C-DTOR-FAIL): best-effort teardown, one
        // unmap per view and per reservation, once no stream uses a stamped
        // block.
        let pids: Vec<PBlockId> = self.pblocks.keys().collect();
        Self::sync_stamps(&self.driver, &mut self.pblocks, &mut self.dense.p, &pids);
        for (_, s) in self.sblocks.iter() {
            let _ = self.driver.mem_unmap(s.va, s.size);
            let _ = self.driver.mem_address_free(s.va, s.size);
        }
        for (base, r) in std::mem::take(&mut self.reservations) {
            let _ = self.driver.mem_unmap(base, r.size);
            let _ = self.driver.mem_release(r.handle);
            let _ = self.driver.mem_address_free(base, r.size);
        }
    }
}

/// The two `(size, id)` sets the reference `BestFit` runs over (see
/// `GmLakeAllocator::reference_indexes`).
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct ReferenceIndexes {
    /// Unassigned views with every part inactive, keyed by the request
    /// size each was stitched for.
    pub available_views: BTreeSet<(u64, u64)>,
    /// Every inactive pBlock, referenced or not.
    pub inactive_pblocks: BTreeSet<(u64, u64)>,
}

#[cfg(test)]
impl GmLakeAllocator {
    /// Runs the indexed `BestFit` for a request of `size` bytes and returns
    /// the state it classified to (1–4 for S1–S4). `&mut` only for the
    /// classification scratch buffer and the witness hints.
    pub(crate) fn probe_bestfit_indexed(&mut self, size: u64) -> u8 {
        match self.best_fit(self.align_up(size).expect("probe size fits")) {
            BestFit::ExactS(_) | BestFit::ExactP(_) => 1,
            BestFit::Single(_) => 2,
            BestFit::Multiple { .. } => 3,
            BestFit::Insufficient { .. } => 4,
        }
    }

    /// Builds what the reference path consumes, by scanning.
    pub(crate) fn reference_indexes(&self) -> ReferenceIndexes {
        let views = self.sblocks.iter();
        let available = views.filter(|(_, s)| self.scan_available(s));
        let inactive = self.pblocks.keys().filter(|&pid| !self.dense.active(pid));
        ReferenceIndexes {
            available_views: available.map(|(sid, s)| (s.request, sid)).collect(),
            inactive_pblocks: inactive.map(|pid| (self.pblocks[pid].size, pid)).collect(),
        }
    }

    /// The retained reference `BestFit` (full-pool passes plus the per-block
    /// cost closure, which chases `referenced_by` and scans each view's
    /// parts) over `indexes` and this allocator's state.
    fn reference_bestfit(&self, aligned: u64, indexes: &ReferenceIndexes) -> BestFit {
        crate::bestfit::best_fit_reference(
            aligned,
            &indexes.available_views,
            &indexes.inactive_pblocks,
            self.config.frag_limit,
            self.keep_whole(),
            |pid| self.stitch_cost(pid, |sid| self.scan_available(&self.sblocks[sid])),
        )
    }

    /// Differential oracle: asserts the indexed and reference `BestFit`
    /// agree exactly (not just on the state code) for a request of `size`
    /// bytes against the current pool state — the reference fed the scanned
    /// available set and the scanned three-way cost.
    pub(crate) fn assert_bestfit_agrees(&mut self, size: u64) {
        let aligned = self.align_up(size).expect("probe size fits");
        let reference = self.reference_bestfit(aligned, &self.reference_indexes());
        assert_eq!(
            reference,
            self.best_fit(aligned),
            "indexed BestFit diverged from the reference for size {size}"
        );
    }

    /// The dense flags and the size index, for tests that corrupt them.
    pub(crate) fn dense_state(&mut self) -> (&mut Dense, &mut IdMap<u64, Vec<SBlockId>>) {
        (&mut self.dense, &mut self.s_by_size)
    }

    /// The parked-view count, for tests that corrupt it.
    pub(crate) fn parked_count(&mut self) -> &mut usize {
        &mut self.parked
    }

    /// What the next pass — `compact` if `compact`, else `release_cached` —
    /// should release, by a read-only walk over *every* reservation: the
    /// oracle of the dirty-set walk. Returns `(base, bytes)` in VA order.
    /// It replays the passes' view teardown (every unassigned view), which
    /// syncs and so clears the stamps of the parts it unmaps, and then the
    /// merge and the release predicate.
    pub(crate) fn reference_reclaim(&self, compact: bool) -> Vec<(VirtAddr, u64)> {
        let kept = |sid: &SBlockId| self.sblocks[*sid].assigned_to.is_some();
        let limit = if compact {
            self.compact_limit()
        } else {
            u64::MAX
        };
        let mut doomed = Vec::new();
        for (&base, r) in &self.reservations {
            // Per run of merged pieces: idle, mergeable, bytes.
            let mut runs: Vec<(bool, bool, u64)> = Vec::new();
            for &pid in &r.pieces {
                let p = &self.pblocks[pid];
                let idle = !self.dense.active(pid) && !p.referenced_by.iter().any(kept);
                let unstamped = p.stamp.is_none() || !p.referenced_by.iter().all(kept);
                match runs.last_mut() {
                    Some(run) if run.1 && idle && unstamped => run.2 += p.size,
                    _ => runs.push((idle, idle && unstamped, p.size)),
                }
            }
            if runs.iter().all(|&(idle, _, size)| idle && size < limit) {
                doomed.push((base, r.size));
            }
        }
        doomed
    }
}
