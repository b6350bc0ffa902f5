//! The backend allocator trait every memory manager in this workspace
//! implements ([`AllocatorCore`]); concurrent callers wrap one in a
//! [`DeviceAllocator`](crate::DeviceAllocator).

use crate::error::AllocError;
use crate::request::{AllocRequest, Allocation};
use crate::stats::{FaultJournalStats, MemStats};
use crate::types::{AllocationId, StreamId};

/// A GPU memory allocator *backend* as seen by the tensor layer of a DL
/// framework: single-owner, `&mut self` on every mutating call.
///
/// This is the bottom layer of the two-layer allocator API. Concurrent
/// callers never speak to an `AllocatorCore` directly — they wrap it in a
/// [`DeviceAllocator`](crate::DeviceAllocator), the cloneable `Send + Sync`
/// front-end that keeps small traffic away from the core's mutex.
///
/// Implementations in this workspace:
/// * `NativeAllocator` (`gmlake-gpu-sim`) — direct `cudaMalloc`/`cudaFree`
///   with device synchronization on every call (the paper's "native
///   allocator", ~10× slower end to end);
/// * `CachingAllocator` (`gmlake-caching`) — PyTorch's best-fit-with-
///   coalescing caching allocator (the baseline in every figure);
/// * `GmLakeAllocator` (`gmlake-core`) — the paper's virtual-memory-stitching
///   allocator.
///
/// # Contract
///
/// * **Strong exception safety** — a call that returns `Err` leaves both the
///   allocator and the device unchanged.
/// * **No panics** on OOM — allocation failure is an `Err`, never an abort.
/// * **Teardown** — dropping the allocator releases all device memory it
///   reserved; destructors never fail (C-DTOR-FAIL).
/// * **Unique identifiers** — [`AllocationId`]s are never reused within one
///   core instance.
pub trait AllocatorCore {
    /// Allocates memory for `req`, returning a handle whose virtual address
    /// range is contiguous and at least `req.size` bytes long.
    ///
    /// # Errors
    ///
    /// * [`AllocError::ZeroSize`] if `req.size == 0`;
    /// * [`AllocError::OutOfMemory`] if the device cannot satisfy the request
    ///   even after cache release / defragmentation fallbacks.
    fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError>;

    /// Releases the allocation identified by `id`.
    ///
    /// Depending on the implementation this may or may not return physical
    /// memory to the device: caching allocators and GMLake keep it pooled.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownAllocation`] if `id` is not live.
    fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError>;

    /// Allocates memory for `req` on behalf of logical GPU stream `stream`.
    ///
    /// The default ignores the stream and delegates to
    /// [`AllocatorCore::allocate`]: right for a core that never hands a
    /// block freed on one stream to another one that could still race it.
    /// Stream-aware front-ends ([`DeviceAllocator`](crate::DeviceAllocator),
    /// the runtime's `PoolHandle`) override this to route the request to
    /// the stream's own cache partition; `GmLakeAllocator` overrides it to
    /// prefer blocks the stream used last and to make the stream wait, on
    /// the GPU, for the event a cross-stream free stamped on the block it
    /// gets. Trait-generic callers (the trace replayer) can therefore always
    /// pass the stream and let each layer do the right thing.
    ///
    /// # Errors
    ///
    /// Same contract as [`AllocatorCore::allocate`].
    fn alloc_on_stream(
        &mut self,
        req: AllocRequest,
        _stream: StreamId,
    ) -> Result<Allocation, AllocError> {
        self.allocate(req)
    }

    /// Releases the allocation identified by `id` on behalf of `stream`
    /// (the stream the *free* is issued from, which need not be the stream
    /// the block was allocated on). The default ignores the stream.
    /// Stream-aware front-ends use it to decide whether the block may be
    /// recycled on its owning stream's free list or must wait for an event;
    /// a core that serves every stream from one pool (`GmLakeAllocator`)
    /// records an event on a freeing stream that is not the allocating one
    /// and stamps it on the block, so that the next other stream to get
    /// the block waits for it.
    ///
    /// # Errors
    ///
    /// Same contract as [`AllocatorCore::deallocate`].
    fn free_on_stream(&mut self, id: AllocationId, _stream: StreamId) -> Result<(), AllocError> {
        self.deallocate(id)
    }

    /// Returns a snapshot of the allocator's memory statistics.
    fn stats(&self) -> MemStats;

    /// Short implementation name for reports (e.g. `"pytorch-caching"`).
    fn name(&self) -> &'static str;

    /// Hint that one training iteration ended. GMLake uses this to detect
    /// convergence of the allocation pattern; other allocators ignore it.
    fn iteration_boundary(&mut self) {}

    /// Sweeps any stream-completion machinery, returning how many
    /// cross-stream-freed blocks it settled. The default has no such
    /// machinery and returns 0. The
    /// [`DeviceAllocator`](crate::DeviceAllocator) front-end (and the
    /// runtime's `PoolHandle`) forward to their core; `GmLakeAllocator`
    /// retires the event stamps that completed, so reusing those blocks
    /// needs no wait. Trait-generic drivers (the trace replayers) call it at
    /// natural synchronization points — iteration boundaries.
    fn process_events(&mut self) -> u64 {
        0
    }

    /// Releases cached (inactive) device memory back to the device, like
    /// `torch.cuda.empty_cache()`. Returns the number of bytes released.
    fn release_cached(&mut self) -> u64 {
        0
    }

    /// Runs one defragmentation/garbage-collection pass and returns the
    /// number of physical bytes released.
    ///
    /// This is the hook a defrag scheduler calls *proactively* (the serving
    /// layer's churn- and fragmentation-keyed passes), as opposed to
    /// [`AllocatorCore::release_cached`], which is the reactive
    /// surrender-everything OOM fallback. Implementations should release
    /// memory that is unlikely to be reused and may garbage-collect internal
    /// cache structures, while keeping the physical memory that later
    /// requests will reuse. The default falls back to a full cache release.
    fn compact(&mut self) -> u64 {
        self.release_cached()
    }

    /// Instantaneous fragmentation ratio of the currently reserved memory
    /// ([`MemStats::current_fragmentation`] of [`AllocatorCore::stats`]).
    fn fragmentation(&self) -> f64 {
        self.stats().current_fragmentation()
    }

    /// A no-op: no allocator overrides it and nothing in the workspace
    /// calls it. It stays only because the benchmark package's probe core
    /// (`benchmark/src/probe.rs`) implements it, and that package changes
    /// only together with the benchmark itself.
    fn set_stitch_enabled(&mut self, _enabled: bool) {}

    /// Cumulative driver-fault residue counters (rolled-back operations and
    /// any orphaned VA/chunk bookkeeping the rollback could not undo).
    /// Allocators without a fault journal report all-zero counters — the
    /// default — which also reads as "leak-free". Profilers use this to put
    /// orphan accounting into memory snapshots without downcasting.
    fn fault_journal_stats(&self) -> FaultJournalStats {
        FaultJournalStats::default()
    }

    /// Mutable [`Any`](std::any::Any) view of the concrete allocator, for
    /// implementation-specific telemetry behind a type-erased front-end
    /// (see
    /// [`DeviceAllocator::with_core_as`](crate::DeviceAllocator::with_core_as)).
    /// Concrete allocators return `Some(self)`; the default (`None`) keeps
    /// wrappers and ad-hoc test doubles honest — a wrapper must not
    /// masquerade as its inner core.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// Writes the body of an [`AllocatorCore`] impl that forwards every method
/// to the method of the same name on `$target`, an expression over the
/// `self` token passed first. Every method forwards explicitly — a provided
/// default would silently drop a wrapped front-end's override (stream
/// routing above all) — except the no-op `set_stitch_enabled`, which
/// nothing overrides. Name `as_any_mut` as a second argument to forward
/// the concrete-type view too; without it the default (`None`) applies.
///
/// Exported for the wrappers in sibling crates (the runtime's
/// `PoolHandle`); `$target` must name inherent methods or another
/// implementor, or the forwards recurse.
#[doc(hidden)]
#[macro_export]
macro_rules! forward_allocator_core {
    ($self_:ident => $target:expr $(, $as_any_mut:ident)?) => {
        fn allocate(
            &mut $self_,
            req: $crate::AllocRequest,
        ) -> Result<$crate::Allocation, $crate::AllocError> {
            $target.allocate(req)
        }

        fn deallocate(&mut $self_, id: $crate::AllocationId) -> Result<(), $crate::AllocError> {
            $target.deallocate(id)
        }

        fn alloc_on_stream(
            &mut $self_,
            req: $crate::AllocRequest,
            stream: $crate::StreamId,
        ) -> Result<$crate::Allocation, $crate::AllocError> {
            $target.alloc_on_stream(req, stream)
        }

        fn free_on_stream(
            &mut $self_,
            id: $crate::AllocationId,
            stream: $crate::StreamId,
        ) -> Result<(), $crate::AllocError> {
            $target.free_on_stream(id, stream)
        }

        fn stats(&$self_) -> $crate::MemStats {
            $target.stats()
        }

        fn name(&$self_) -> &'static str {
            $target.name()
        }

        fn iteration_boundary(&mut $self_) {
            $target.iteration_boundary()
        }

        fn process_events(&mut $self_) -> u64 {
            $target.process_events()
        }

        fn release_cached(&mut $self_) -> u64 {
            $target.release_cached()
        }

        fn compact(&mut $self_) -> u64 {
            $target.compact()
        }

        fn fragmentation(&$self_) -> f64 {
            $target.fragmentation()
        }

        fn fault_journal_stats(&$self_) -> $crate::FaultJournalStats {
            $target.fault_journal_stats()
        }

        $(fn $as_any_mut(&mut $self_) -> Option<&mut dyn std::any::Any> {
            $target.as_any_mut()
        })?
    };
}

/// Blanket impl so `&mut A` can be passed where an `AllocatorCore` is
/// expected (the replayer takes allocators by `&mut dyn`).
impl<A: AllocatorCore + ?Sized> AllocatorCore for &mut A {
    forward_allocator_core!(self => (**self), as_any_mut);
}

/// Blanket impl for boxed allocators, so `Box<dyn AllocatorCore + Send>` is
/// itself an `AllocatorCore` (the concurrent front-end stores the wrapped
/// core this way).
impl<A: AllocatorCore + ?Sized> AllocatorCore for Box<A> {
    forward_allocator_core!(self => (**self), as_any_mut);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::VirtAddr;
    use std::collections::HashMap;

    /// Minimal in-memory allocator used to exercise the trait contract and
    /// the blanket `&mut A` impl.
    #[derive(Default)]
    pub(crate) struct Bump {
        next: u64,
        live: HashMap<AllocationId, u64>,
        stats: MemStats,
    }

    impl AllocatorCore for Bump {
        fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
            if req.size == 0 {
                return Err(AllocError::ZeroSize);
            }
            self.next += 1;
            let id = AllocationId::new(self.next);
            self.live.insert(id, req.size);
            self.stats.on_alloc(req.size, req.size);
            let reserved = self.stats.active_bytes;
            self.stats.set_reserved(reserved);
            Ok(Allocation {
                id,
                va: VirtAddr::new(self.next << 20),
                size: req.size,
                requested: req.size,
            })
        }

        fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
            let size = self
                .live
                .remove(&id)
                .ok_or(AllocError::UnknownAllocation(id))?;
            self.stats.on_free(size);
            Ok(())
        }

        fn stats(&self) -> MemStats {
            self.stats
        }

        fn name(&self) -> &'static str {
            "bump"
        }
    }

    fn exercise<A: AllocatorCore>(mut a: A) {
        let alloc = a.allocate(AllocRequest::new(64)).unwrap();
        assert_eq!(a.stats().active_bytes, 64);
        a.deallocate(alloc.id).unwrap();
        assert_eq!(a.stats().active_bytes, 0);
    }

    #[test]
    fn trait_object_and_mut_ref_work() {
        let mut b = Bump::default();
        exercise(&mut b);
        let dyn_ref: &mut dyn AllocatorCore = &mut b;
        exercise(dyn_ref);
        assert_eq!(b.stats().alloc_count, 2);
    }

    #[test]
    fn zero_size_is_rejected() {
        let mut b = Bump::default();
        assert_eq!(
            b.allocate(AllocRequest::new(0)).unwrap_err(),
            AllocError::ZeroSize
        );
    }

    #[test]
    fn double_free_is_reported() {
        let mut b = Bump::default();
        let alloc = b.allocate(AllocRequest::new(8)).unwrap();
        b.deallocate(alloc.id).unwrap();
        assert_eq!(
            b.deallocate(alloc.id).unwrap_err(),
            AllocError::UnknownAllocation(alloc.id)
        );
    }

    #[test]
    fn stream_defaults_delegate_to_the_stream_oblivious_path() {
        // A core ignores the stream: alloc/free on any stream behave exactly
        // like allocate/deallocate, including through &mut and Box wrappers.
        let mut b = Bump::default();
        let a = b
            .alloc_on_stream(AllocRequest::new(64), StreamId::new(3))
            .unwrap();
        assert_eq!(b.stats().active_bytes, 64);
        b.free_on_stream(a.id, StreamId::new(5)).unwrap();
        assert_eq!(b.stats().active_bytes, 0);
        let mut boxed: Box<dyn AllocatorCore + Send> = Box::new(Bump::default());
        let a = boxed
            .alloc_on_stream(AllocRequest::new(8), StreamId::DEFAULT)
            .unwrap();
        boxed.free_on_stream(a.id, StreamId::new(1)).unwrap();
        assert_eq!(boxed.stats().free_count, 1);
    }

    #[test]
    fn default_hooks_are_noops() {
        let mut b = Bump::default();
        b.iteration_boundary();
        assert_eq!(b.release_cached(), 0);
        assert_eq!(b.compact(), 0, "default compact falls back to release");
    }

    #[test]
    fn default_fragmentation_tracks_current_stats() {
        let mut b = Bump::default();
        assert_eq!(b.fragmentation(), 0.0, "empty allocator is not fragmented");
        let a1 = b.allocate(AllocRequest::new(64)).unwrap();
        let a2 = b.allocate(AllocRequest::new(64)).unwrap();
        b.deallocate(a1.id).unwrap();
        // Bump keeps reserved at the peak-active watermark: 128 reserved,
        // 64 active.
        b.stats();
        assert!((b.fragmentation() - 0.5).abs() < 1e-12);
        b.deallocate(a2.id).unwrap();
    }

    #[test]
    fn boxed_allocator_is_an_allocator() {
        let mut boxed: Box<dyn AllocatorCore + Send> = Box::new(Bump::default());
        exercise(&mut boxed);
        assert_eq!(boxed.name(), "bump");
    }
}
