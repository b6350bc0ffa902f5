//! pBlock and sBlock structures (§3.2 of the paper).
//!
//! * A **pBlock** (primitive block) owns a VA reservation and the physical
//!   2 MiB chunks mapped behind it. It is the only structure that owns
//!   physical memory, and the smallest unit assignable to a tensor.
//! * An **sBlock** (stitched block) owns *only* a VA reservation: its range
//!   is mapped onto the chunks of several pBlocks (which stay mapped at
//!   their own addresses too — the multi-VA aliasing the CUDA VMM allows).
//!   An sBlock is active whenever any of its pBlocks is active.

use gmlake_alloc_api::{AllocationId, StreamId, VirtAddr};
use gmlake_gpu_sim::PhysHandle;

use crate::bestfit::StitchCost;

/// Identifier of a pBlock within one allocator.
pub(crate) type PBlockId = u64;
/// Identifier of an sBlock within one allocator.
pub(crate) type SBlockId = u64;

/// A primitive block: VA range + owned physical chunks.
#[derive(Debug)]
pub(crate) struct PBlock {
    pub va: VirtAddr,
    pub size: u64,
    /// Physical chunks, each of the device granularity, mapped consecutively
    /// at `va`.
    pub chunks: Vec<PhysHandle>,
    /// Whether the block's memory is currently used by a tensor (directly or
    /// through an assigned sBlock).
    pub active: bool,
    /// Allocation currently holding this pBlock *directly* (not through an
    /// sBlock).
    pub assigned_to: Option<AllocationId>,
    /// sBlocks whose mapping includes this pBlock's chunks, each once, in no
    /// particular order. A flat list because every activity flip walks it
    /// (dozens of views on converged pools) and only teardown searches it.
    pub referenced_by: Vec<SBlockId>,
    /// How many of `referenced_by` are *available* right now (unassigned
    /// with `active_parts == 0`). Maintained at the only places a view's
    /// availability can flip — an activity zero-crossing, `Stitch`, sBlock
    /// teardown, and `Split` (children inherit the parent's count) — so
    /// [`PBlock::stitch_cost`] never scans `referenced_by`. Always 0 while
    /// the block is active: an active part blocks every view over it.
    pub avail_refs: usize,
    /// *Placement*: the partition of the inactive index this block sits in
    /// while inactive. Equals [`PBlock::stitch_cost`] except for a `dirty`
    /// block, whose move between the two referenced tiers is still owed.
    pub tier: StitchCost,
    /// The block is on the allocator's dirty list: its placement may lag
    /// its stitch cost, within the two referenced tiers only.
    pub dirty: bool,
    /// Stream that last held this block (stamped on stream-aware allocate
    /// and free). Exact-match `BestFit` prefers candidates last used by the
    /// requesting stream, so warm blocks stay stream-local without any
    /// ordering or correctness impact on streamless callers (`None`).
    pub last_stream: Option<StreamId>,
}

impl PBlock {
    pub fn new(va: VirtAddr, size: u64, chunks: Vec<PhysHandle>) -> Self {
        PBlock {
            va,
            size,
            chunks,
            active: false,
            assigned_to: None,
            referenced_by: Vec::new(),
            avail_refs: 0,
            tier: StitchCost::Unreferenced,
            dirty: false,
            last_stream: None,
        }
    }

    /// The block's stitch-cost tier, derived in `O(1)` from its counters.
    pub fn stitch_cost(&self) -> StitchCost {
        if self.referenced_by.is_empty() {
            StitchCost::Unreferenced
        } else if self.avail_refs > 0 {
            StitchCost::ReferencedAvailable
        } else {
            StitchCost::ReferencedBlocked
        }
    }
}

/// A stitched block: a VA range aliasing the chunks of `parts`.
#[derive(Debug)]
pub(crate) struct SBlock {
    pub va: VirtAddr,
    pub size: u64,
    /// Constituent pBlocks, in mapping order.
    pub parts: Vec<PBlockId>,
    /// Allocation currently holding this sBlock.
    pub assigned_to: Option<AllocationId>,
    /// Monotone tick of the last assignment, for LRU eviction.
    pub lru_tick: u64,
    /// Number of `parts` currently active. The sBlock is fully inactive
    /// (eligible for exact matches and eviction) exactly when this is zero —
    /// maintained incrementally so activity flips never re-scan the part
    /// list.
    pub active_parts: usize,
    /// Stream that last held this stitched view (see `PBlock::last_stream`).
    pub last_stream: Option<StreamId>,
    /// Whether `(lru_tick, id)` is in the allocator's eviction index. Set
    /// when the view becomes evictable; cleared when it is assigned or when
    /// an eviction scan finds it blocked — *not* on every activity flip.
    pub in_evict_index: bool,
}

impl SBlock {
    pub fn new(va: VirtAddr, size: u64, parts: Vec<PBlockId>, tick: u64) -> Self {
        SBlock {
            va,
            size,
            parts,
            assigned_to: None,
            lru_tick: tick,
            active_parts: 0,
            last_stream: None,
            in_evict_index: false,
        }
    }
}

/// What an allocation id resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Target {
    /// A pBlock assigned directly.
    P(PBlockId),
    /// An sBlock.
    S(SBlockId),
    /// An allocation delegated to the embedded small pool (its own id space).
    Small(AllocationId),
}
