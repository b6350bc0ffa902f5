//! Shared allocator interface for the GMLake reproduction.
//!
//! This crate defines the vocabulary that every allocator in the workspace
//! speaks: byte-size helpers, allocation identifiers and requests, memory
//! statistics, error types, and the two-layer allocator API:
//!
//! * [`AllocatorCore`] — the single-owner `&mut self` *backend* trait,
//!   implemented by the native pass-through allocator (`gmlake-gpu-sim`),
//!   the PyTorch-style caching allocator (`gmlake-caching`), and the GMLake
//!   virtual-memory-stitching allocator (`gmlake-core`);
//! * [`DeviceAllocator`] — the cloneable, `Send + Sync`, `&self`
//!   *front-end* that wraps any core and is the only type concurrent
//!   callers (the runtime's pool service, replayers) speak to. It
//!   serves warm requests below [`SMALL_THRESHOLD`] from size-class
//!   free-list caches partitioned per logical GPU stream ([`StreamId`]),
//!   so threads and streams never contend with each other or with stitch
//!   work. A cross-stream small free returns its block to the core, told
//!   the freeing stream (given an [`EventSource`], after waiting out an
//!   event recorded on that stream). Requests at or above
//!   [`SMALL_THRESHOLD`] go straight to the core, whose stitcher must see
//!   every inactive block.
//!
//! The trait mirrors the narrow interface a deep-learning framework exposes to
//! its tensor layer: `allocate`, `deallocate`, plus the cache-management hooks
//! (`release_cached`, `iteration_boundary`) that PyTorch exposes as
//! `empty_cache()` and that GMLake uses to exploit training periodicity.
//!
//! # Example
//!
//! ```
//! use gmlake_alloc_api::{AllocRequest, AllocTag, mib};
//!
//! let req = AllocRequest::new(mib(96)).with_tag(AllocTag::Activation);
//! assert_eq!(req.size, 96 * 1024 * 1024);
//! ```

#![warn(missing_docs)]

mod device;
mod error;
mod events;
mod request;
mod stats;
mod traits;
mod types;

pub use device::{
    DeviceAllocator, DeviceAllocatorConfig, DeviceCacheStats, MAX_STREAMS, SMALL_THRESHOLD,
};
pub use error::AllocError;
pub use events::EventSource;
pub use request::{AllocRequest, Allocation};
pub use stats::{FaultJournalStats, MemStats};
pub use traits::AllocatorCore;
pub use types::{
    gib, kib, mib, AllocTag, AllocationId, EventId, IdHasher, IdMap, StreamId, VirtAddr,
    BYTES_PER_GIB, BYTES_PER_KIB, BYTES_PER_MIB,
};
