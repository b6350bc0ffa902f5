//! `gmlake-runtime` — a thread-safe, multi-device memory-pool service.
//!
//! The allocator crates below this one (`gmlake-core`, `gmlake-caching`,
//! `gmlake-gpu-sim`) are single-owner backends: every call takes
//! `&mut self` ([`AllocatorCore`]). Real multi-GPU fine-tuning — the
//! paper's Figure 11 scale-out evaluation — runs many ranks concurrently,
//! each hammering its own device's pool. This crate provides that runtime
//! layer on top of the concurrent
//! [`DeviceAllocator`](gmlake_alloc_api::DeviceAllocator) front-end:
//!
//! * [`PoolService`] — a registry mapping [`DeviceId`] → pool. Any
//!   [`AllocatorCore`] implementation can be registered (it is wrapped in a
//!   `DeviceAllocator`); the service is deliberately ignorant of which
//!   allocator (GMLake, caching baseline, native) manages each device.
//! * [`PoolHandle`] — a cheap, cloneable front end to one pool, `&self` on
//!   every call. Small allocations ride the front-end's per-stream
//!   size-class caches without touching the pool mutex; large/stitch
//!   traffic goes straight to the wrapped core under its commit-time
//!   lock, so the stitcher sees every inactive block. `PoolHandle` also
//!   implements [`AllocatorCore`], so trait-generic code (like
//!   `gmlake-workload`'s `Replayer`) drives a shared pool unmodified.
//! * No defrag timer. GMLake defragments inside the allocator — stitching,
//!   `StitchFree` eviction and the release-and-retry on out-of-memory all
//!   run within its own calls (§3.3) — so
//!   [`PoolHandle::iteration_boundary`] only forwards the hint and samples
//!   the memory timeline. A caller that wants the cache trimmed calls
//!   [`PoolHandle::compact`] or [`PoolHandle::release_cached`]; the serving
//!   layer (`gmlake-serving`) does so on tenant churn.
//! * Fault recovery on the allocation path (see
//!   [`PoolHandle::alloc_on_stream`]): a rolled-back driver fault is
//!   retried at most three times. A successful allocation pays nothing for
//!   it. Out-of-memory passes through: each layer recovers only what it
//!   caches — the core gives up its cache, the front-end flushes its
//!   stream caches, and the serving layer evicts idle tenants — so the
//!   service has nothing left to reclaim.
//!
//! # One pool, many threads
//!
//! ```
//! use gmlake_runtime::{DeviceId, PoolService};
//! use gmlake_caching::CachingAllocator;
//! use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
//! use gmlake_alloc_api::{kib, AllocRequest};
//!
//! let service = PoolService::new();
//! let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
//! let pool = service.register(DeviceId(0), Box::new(CachingAllocator::new(driver)))?;
//!
//! std::thread::scope(|s| {
//!     for t in 0..4u64 {
//!         let pool = pool.clone();
//!         s.spawn(move || {
//!             for _ in 0..32 {
//!                 // Small tensors: the stream's cache, no pool mutex.
//!                 let a = pool.allocate(AllocRequest::new(kib(64 + t))).unwrap();
//!                 pool.deallocate(a.id).unwrap();
//!             }
//!         });
//!     }
//! });
//! let stats = service.stats(DeviceId(0))?;
//! assert_eq!(stats.alloc_count, 4 * 32);
//! assert_eq!(stats.active_bytes, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Scale-out
//!
//! One service owns all ranks' pools; each rank thread grabs its device's
//! handle. The Figure 11 harness replays a single rank instead: a
//! fine-tuning trace has no rank index, so data-parallel ranks issue the
//! same per-GPU stream and one rank's report is every rank's
//! (`tests/runtime_concurrency.rs` replays mirrored ranks on their own
//! threads and checks they agree exactly).
//!
//! ```
//! use gmlake_runtime::{DeviceId, PoolService};
//! use gmlake_core::{GmLakeAllocator, GmLakeConfig};
//! use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
//! use gmlake_alloc_api::{mib, AllocRequest};
//!
//! let service = PoolService::new();
//! for rank in 0..4 {
//!     let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
//!     service.register(
//!         DeviceId(rank),
//!         Box::new(GmLakeAllocator::new(driver, GmLakeConfig::default())),
//!     )?;
//! }
//! std::thread::scope(|s| {
//!     for device in service.devices() {
//!         let pool = service.handle(device).unwrap();
//!         s.spawn(move || {
//!             let a = pool.allocate(AllocRequest::new(mib(8))).unwrap();
//!             pool.deallocate(a.id).unwrap();
//!             pool.iteration_boundary();
//!         });
//!     }
//! });
//! for device in service.devices() {
//!     assert_eq!(service.stats(device)?.alloc_count, 1);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`AllocatorCore`]: gmlake_alloc_api::AllocatorCore

mod error;
mod profiler;
mod recovery;
mod service;

pub use error::RuntimeError;
pub use profiler::MemoryProfiler;
pub use recovery::FaultRecoveryStats;
pub use service::{DeviceId, PoolHandle, PoolService};
