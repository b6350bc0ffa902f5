//! GMLake: GPU memory defragmentation via virtual memory stitching.
//!
//! This crate is the Rust reproduction of the primary contribution of
//! *GMLake: Efficient and Transparent GPU Memory Defragmentation for
//! Large-scale DNN Training with Virtual Memory Stitching* (ASPLOS 2024).
//!
//! Instead of splitting cached device memory (and stranding the remainders,
//! as the best-fit-with-coalescing caching allocator does), GMLake *fuses*
//! non-contiguous physical blocks behind a single contiguous virtual address
//! range using the CUDA virtual memory management API:
//!
//! * [`GmLakeAllocator`] — the allocator (`Alloc` / `Split` / `Stitch` /
//!   `BestFit` / `Update` / `StitchFree`);
//! * [`GmLakeConfig`] — chunk size, fragmentation limit, sPool capacity;
//! * [`StateCounters`] / [`AllocState`] — telemetry of the S1–S5 allocation
//!   states of the paper's Figure 9, used to observe convergence.
//!
//! ```
//! use gmlake_core::{GmLakeAllocator, GmLakeConfig};
//! use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
//! use gmlake_alloc_api::{AllocRequest, AllocatorCore, mib};
//!
//! let driver = CudaDriver::new(DeviceConfig::small_test());
//! // Lower the fragmentation limit so MiB-scale doctest blocks may stitch.
//! let config = GmLakeConfig::default().with_frag_limit(mib(2));
//! let mut lake = GmLakeAllocator::new(driver.clone(), config);
//!
//! // Free 4 MiB + 6 MiB, then allocate 10 MiB: served by stitching, with
//! // zero new physical memory.
//! let a = lake.allocate(AllocRequest::new(mib(4)))?;
//! let b = lake.allocate(AllocRequest::new(mib(6)))?;
//! lake.deallocate(a.id)?;
//! lake.deallocate(b.id)?;
//! let c = lake.allocate(AllocRequest::new(mib(10)))?;
//! assert_eq!(driver.phys_in_use(), mib(10));
//! assert_eq!(lake.state_counters().stitches, 1);
//! # lake.deallocate(c.id)?;
//! # Ok::<(), gmlake_alloc_api::AllocError>(())
//! ```

mod allocator;
mod bestfit;
mod block;
mod config;
mod lru;
mod slab;

#[cfg(test)]
mod tests;

pub use allocator::{FaultJournal, GmLakeAllocator, ReferenceIndexes, WorkCounters};
pub use config::{AllocState, GmLakeConfig, StateCounters};
