//! Stream-completion events: the synchronization primitive behind safe
//! cross-stream block reuse.
//!
//! A block freed from a different stream than the one it was allocated on
//! cannot be reused until the freeing stream's in-flight work has finished
//! with it. CUDA expresses that with events (`cuEventRecord` /
//! `cuEventSynchronize`). The [`EventSource`] trait is this crate's
//! abstraction of that primitive: the
//! [`DeviceAllocator`](crate::DeviceAllocator) front-end records an event on
//! the freeing stream of a cross-stream small free and synchronizes it
//! before the wrapped core sees the block, so even a core that ignores
//! streams never re-serves memory a stream still uses.
//!
//! The simulated CUDA driver (`gmlake-gpu-sim`'s `CudaDriver`) provides the
//! implementation: events ride the simulated clock and per-stream
//! completion frontiers, and every `record`/`synchronize` is costed as a
//! driver call.

use crate::types::{EventId, StreamId};

/// A source of stream-completion events, the synchronization primitive the
/// [`DeviceAllocator`](crate::DeviceAllocator) uses to guard cross-stream
/// block reuse (CUDA's `cuEventRecord` / `cuEventSynchronize`).
///
/// # Ordering contract
///
/// This trait carries the safety rules that make event-guarded reuse sound;
/// implementors must uphold all of them:
///
/// * **Record captures the stream's past.** An event completes only after
///   all work enqueued on `stream` *before* the [`EventSource::record`]
///   call has finished; an event recorded on a stream completes no earlier
///   than every event previously recorded on the same stream.
/// * **`synchronize` blocks until completion.** When
///   [`EventSource::synchronize`] returns, the event has completed; for an
///   event the source no longer tracks (already complete) it returns at
///   once.
/// * **No re-entry.** An implementation must never call back into the
///   allocator (directly or via another thread it blocks on). Treat an
///   `EventSource` as a *leaf* in the lock order: it may take its own
///   internal locks but must acquire nothing that can wait on an allocator
///   lock.
pub trait EventSource: Send + Sync {
    /// Records an event on `stream`, returning its identifier. The event
    /// completes once all work enqueued on `stream` so far has finished.
    fn record(&self, stream: StreamId) -> EventId;

    /// Blocks (in simulation: advances time) until `event` has completed.
    fn synchronize(&self, event: EventId);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_are_send_sync() {
        // The front-end shares its source across threads as an
        // `Arc<dyn EventSource>`.
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn EventSource>();
    }
}
