//! pBlock and sBlock structures (§3.2 of the paper).
//!
//! * A **pBlock** (primitive block) is a piece of a [`Reservation`]: a VA
//!   range whose bytes sit at offset `va − resv` in the reservation's one
//!   physical handle, mapped once at the reservation's base. It is the
//!   smallest unit assignable to a tensor. `Alloc` creates a reservation as
//!   a single piece and `Split` cuts a piece in two where it lies, so the
//!   pieces of one reservation always tile it.
//! * An **sBlock** (stitched block) owns *only* a VA reservation: its range
//!   maps one entry per part, each a window onto that part's bytes in its
//!   reservation's handle (which stays mapped at the reservation's base too
//!   — the multi-VA aliasing the CUDA VMM allows). An sBlock is active
//!   whenever any of its pBlocks is active.

use std::cell::Cell;

use gmlake_alloc_api::{AllocationId, EventId, StreamId, VirtAddr};
use gmlake_gpu_sim::PhysHandle;

/// Identifier of a pBlock within one allocator.
pub(crate) type PBlockId = u64;
/// Identifier of an sBlock within one allocator.
pub(crate) type SBlockId = u64;

/// A primitive block: a piece of a reservation.
#[derive(Debug)]
pub(crate) struct PBlock {
    pub va: VirtAddr,
    pub size: u64,
    /// Base of the [`Reservation`] `[va, va + size)` lies in.
    pub resv: VirtAddr,
    /// Whether the block's memory is currently used by a tensor (directly or
    /// through an assigned sBlock).
    pub active: bool,
    /// Allocation currently holding this pBlock *directly* (not through an
    /// sBlock).
    pub assigned_to: Option<AllocationId>,
    /// sBlocks whose mapping includes this pBlock's bytes, each once, in no
    /// particular order. Empty or not is the block's tier in the pBlock
    /// index; an activity flip never walks it.
    pub referenced_by: Vec<SBlockId>,
    /// Unassigned views an eviction scan found blocked by this block and
    /// took out of the eviction list (each has `parked_on` pointing
    /// here); they re-enter when the block deactivates. Only an active
    /// block parks views, and an active block is never split or destroyed,
    /// so the links cannot dangle.
    pub parked: Vec<SBlockId>,
    /// Stream that last held this block (stamped on stream-aware allocate
    /// and free). Exact-match `BestFit` prefers candidates last used by the
    /// requesting stream, so warm blocks stay stream-local without any
    /// ordering or correctness impact on streamless callers (`None`).
    pub last_stream: Option<StreamId>,
    /// Left by a cross-stream free while the freeing stream had work in
    /// flight: that stream and the event recorded on it. The next other
    /// stream to get the block waits for the event on the GPU; a teardown
    /// synchronizes it first. Only an inactive block carries one, and
    /// `Split` children inherit it.
    pub stamp: Option<(StreamId, EventId)>,
}

impl PBlock {
    pub fn new(va: VirtAddr, size: u64, resv: VirtAddr) -> Self {
        PBlock {
            va,
            size,
            resv,
            active: false,
            assigned_to: None,
            referenced_by: Vec::new(),
            parked: Vec::new(),
            last_stream: None,
            stamp: None,
        }
    }

    /// The block's tier in the pBlock index (an unreferenced block is
    /// indexed only while inactive).
    pub fn is_referenced(&self) -> bool {
        !self.referenced_by.is_empty()
    }

    /// Whether a reclaim walk may merge the block with an idle neighbour:
    /// inactive, in no view, and guarded by no event.
    pub fn is_mergeable(&self) -> bool {
        !self.active && !self.is_referenced() && self.stamp.is_none()
    }
}

/// A driver VA reservation, keyed by its base, and the one physical handle
/// mapped across the whole of it. CUDA cannot unmap or release part of a
/// mapping, so the reservation goes back to the driver whole, once every
/// piece is idle.
#[derive(Debug)]
pub(crate) struct Reservation {
    pub size: u64,
    pub handle: PhysHandle,
    /// The pBlocks tiling it, in VA order.
    pub pieces: Vec<PBlockId>,
}

/// A stitched block: a VA range aliasing the bytes of `parts`.
#[derive(Debug)]
pub(crate) struct SBlock {
    pub va: VirtAddr,
    pub size: u64,
    /// Constituent pBlocks, in mapping order.
    pub parts: Vec<PBlockId>,
    /// Allocation currently holding this sBlock.
    pub assigned_to: Option<AllocationId>,
    /// Monotone tick of the stitch or the last free: the view's place in
    /// the eviction list.
    pub lru_tick: u64,
    /// Eviction-list neighbours, older and newer (`0`: none; see
    /// [`crate::lru::LruList`]). Both are `0` off the list.
    pub prev: SBlockId,
    pub next: SBlockId,
    /// Stream that last held this stitched view (see `PBlock::last_stream`).
    pub last_stream: Option<StreamId>,
    /// Witness hint: the index into `parts` of the part last found active.
    /// Whether the view is blocked is a query (scan the parts); a blocked
    /// view usually stays blocked by the same part, so checking this one
    /// first answers in one load. An index, not a `PBlockId`: slab ids are
    /// reused, while an index always names a member — `Split` only ever
    /// grows `parts`, so it survives as what it is, a hint.
    pub hint: Cell<usize>,
    /// The active part this view is parked on (see [`PBlock::parked`]):
    /// `None` while the view is assigned or in the eviction list.
    pub parked_on: Option<PBlockId>,
}

impl SBlock {
    pub fn new(va: VirtAddr, size: u64, parts: Vec<PBlockId>, tick: u64) -> Self {
        SBlock {
            va,
            size,
            parts,
            assigned_to: None,
            lru_tick: tick,
            prev: 0,
            next: 0,
            last_stream: None,
            hint: Cell::new(0),
            parked_on: None,
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
