//! `gmlake-runtime` — a thread-safe, multi-device memory-pool service with
//! a step-driven defragmentation policy.
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
//! * [`DefragPolicy`] — four plain values deciding *when* a pool runs the
//!   passes its allocator already implements: a periodic
//!   [`AllocatorCore::compact`] every N ticks, escalating to an aggressive
//!   pass (retire event stamps, compact, [`AllocatorCore::release_cached`])
//!   while churn or fragmentation is at or above its trigger. A service
//!   built with [`PoolService::with_defrag`] gives every pool its own
//!   [`Defragger`], ticked once per [`PoolHandle::iteration_boundary`];
//!   the serving layer ticks one per step with its tenant-churn count.
//!   Every pass flushes the front-end's stream caches first, so defrag
//!   always sees every cached byte.
//! * Fault recovery on the allocation path (see
//!   [`PoolHandle::alloc_on_stream`]) is independent of the defrag policy:
//!   a rolled-back driver fault is retried at most three times. A
//!   successful allocation pays nothing for it. Out-of-memory passes
//!   through: each layer recovers only what it caches — the core gives up
//!   its cache, the front-end flushes its stream caches, and the serving
//!   layer evicts idle tenants — so the service has nothing left to
//!   reclaim.
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
//! # Proactive defragmentation
//!
//! A periodic policy trims each pool's idle cache every N iterations —
//! memory a no-defrag run would keep reserved until an OOM forced its hand:
//!
//! ```
//! use gmlake_runtime::{DefragPolicy, DeviceId, PoolService};
//! use gmlake_caching::CachingAllocator;
//! use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
//! use gmlake_alloc_api::{mib, AllocRequest};
//!
//! let service = PoolService::with_defrag(DefragPolicy::periodic(1));
//! let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
//! let pool = service.register(DeviceId(0), Box::new(CachingAllocator::new(driver)))?;
//!
//! let a = pool.allocate(AllocRequest::new(mib(16)))?;
//! pool.deallocate(a.id)?;
//! assert_eq!(pool.stats().reserved_bytes, mib(16), "cache retained");
//!
//! pool.iteration_boundary(); // tick 1: the periodic pass fires here
//! assert_eq!(pool.stats().reserved_bytes, 0, "idle cache reclaimed");
//! assert_eq!(pool.defrag_stats().periodic_passes, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Scale-out
//!
//! One service owns all ranks' pools; each rank thread grabs its device's
//! handle. (`gmlake-workload`'s `ConcurrentReplayer` wraps exactly this
//! pattern around full fine-tuning traces.)
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
//! [`AllocatorCore::compact`]: gmlake_alloc_api::AllocatorCore::compact
//! [`AllocatorCore::release_cached`]: gmlake_alloc_api::AllocatorCore::release_cached

mod defrag;
mod error;
mod profiler;
mod recovery;
mod service;

pub use defrag::{DefragPolicy, DefragStats, Defragger};
pub use error::RuntimeError;
pub use profiler::MemoryProfiler;
pub use recovery::FaultRecoveryStats;
pub use service::{DeviceId, PoolHandle, PoolService};
