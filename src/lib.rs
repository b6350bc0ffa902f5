//! # GMLake — GPU memory defragmentation via virtual memory stitching
//!
//! Facade crate re-exporting the whole workspace. See
//! `docs/architecture.md` for the layer map and the README's *Reproduced
//! results* for the paper's figures and the binaries that reproduce them.
//!
//! ```
//! use gmlake::prelude::*;
//!
//! let driver = CudaDriver::new(DeviceConfig::small_test());
//! let mut alloc = GmLakeAllocator::new(driver, GmLakeConfig::default());
//! let a = alloc.allocate(AllocRequest::new(mib(4)))?;
//! alloc.deallocate(a.id)?;
//! # Ok::<(), gmlake::alloc_api::AllocError>(())
//! ```

pub use gmlake_alloc_api as alloc_api;
pub use gmlake_caching as caching;
pub use gmlake_core as core;
pub use gmlake_gpu_sim as gpu_sim;
pub use gmlake_planning as planning;
pub use gmlake_runtime as runtime;
pub use gmlake_serving as serving;
pub use gmlake_telemetry as telemetry;
pub use gmlake_workload as workload;

/// The README's Rust snippets, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// Commonly used items, importable with a single `use gmlake::prelude::*`.
pub mod prelude {
    pub use gmlake_alloc_api::{
        gib, kib, mib, AllocError, AllocRequest, AllocTag, Allocation, AllocationId, AllocatorCore,
        DeviceAllocator, DeviceAllocatorConfig, MemStats, StreamId, VirtAddr,
    };
    pub use gmlake_caching::CachingAllocator;
    pub use gmlake_core::{GmLakeAllocator, GmLakeConfig};
    pub use gmlake_gpu_sim::{CudaDriver, DeviceConfig, FaultOp, FaultPlan, NativeAllocator};
    pub use gmlake_planning::{MemoryPlan, PlannedConfig, PlannedCore};
    pub use gmlake_runtime::{DeviceId, MemoryProfiler, PoolHandle, PoolService};
    pub use gmlake_serving::{ServingConfig, ServingService, TenantId};
    pub use gmlake_telemetry::{MemorySnapshot, PoolTelemetry};
    pub use gmlake_workload::{ModelSpec, Platform, Replayer, StrategySet, TrainConfig};
}
