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
    /// Allocation currently holding this pBlock *directly* (not through an
    /// sBlock).
    pub assigned_to: Option<AllocationId>,
    /// sBlocks whose mapping includes this pBlock's bytes, each once, in no
    /// particular order. Empty or not is the block's tier in the pBlock
    /// index (an unreferenced block is indexed only while inactive); an
    /// activity flip never walks it.
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
    /// `Split` children inherit it. Set exactly when the block's
    /// [`STAMPED`] flag is.
    pub stamp: Option<(StreamId, EventId)>,
}

impl PBlock {
    pub fn new(va: VirtAddr, size: u64, resv: VirtAddr) -> Self {
        PBlock {
            va,
            size,
            resv,
            assigned_to: None,
            referenced_by: Vec::new(),
            parked: Vec::new(),
            last_stream: None,
            stamp: None,
        }
    }
}

/// Bits of a pBlock's byte in [`Dense::p`]. `ACTIVE`: the block's memory is
/// used by a tensor, directly or through an assigned view — the only record
/// of it. `REFERENCED` and `PARKS` say that `PBlock::referenced_by` and
/// `PBlock::parked` are non-empty, and `STAMPED` that `PBlock::stamp` is
/// set, so a hand-out loads only the parts that carry a stamp.
pub(crate) const ACTIVE: u8 = 1;
pub(crate) const REFERENCED: u8 = 2;
pub(crate) const PARKS: u8 = 4;
pub(crate) const STAMPED: u8 = 8;

/// Whether a block with these flags is idle: inactive and in no view. A
/// reservation of idle pieces can go back to the driver.
pub(crate) fn idle(flags: u8) -> bool {
    flags & (ACTIVE | REFERENCED) == 0
}

/// What the exact walk knows of a view before it needs the view's parts.
#[derive(Debug, Default, Clone)]
pub(crate) struct ViewFlags {
    /// `SBlock::assigned_to` is set.
    pub assigned: bool,
    /// Witness hint: the part last found active, one of the view's parts.
    /// Whether the view is blocked is a query (scan the parts); a blocked
    /// view usually stays blocked by the same part, so checking this one
    /// first answers in one load. `Split` moves it to the left child, since
    /// the parent's slab id may come back as an unrelated block.
    pub hint: Cell<PBlockId>,
    /// Stream that last held the view, set by stream-aware allocate and
    /// free (see `PBlock::last_stream`). The affinity walk reads it before
    /// it asks whether a view is available, and asks only about views of
    /// the requesting stream.
    pub stream: Option<StreamId>,
}

/// The state the S1 path reads, in arrays indexed by slab id, so that a
/// walk step or a part flip loads a byte, not a block struct. A dead slot
/// holds zeroes.
#[derive(Debug, Default, Clone)]
pub(crate) struct Dense {
    /// Per pBlock: [`ACTIVE`], [`REFERENCED`], [`PARKS`], [`STAMPED`].
    pub p: Vec<u8>,
    /// Per view.
    pub s: Vec<ViewFlags>,
}

impl Dense {
    pub fn active(&self, pid: PBlockId) -> bool {
        self.p[pid as usize] & ACTIVE != 0
    }
}

/// The entry of `id`, a slab id just handed out, in one of [`Dense`]'s
/// arrays, which grows to hold it.
pub(crate) fn slot<T: Default>(v: &mut Vec<T>, id: u64) -> &mut T {
    let at = id as usize;
    if at >= v.len() {
        v.resize_with(at + 1, T::default);
    }
    &mut v[at]
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
