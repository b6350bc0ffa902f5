//! Simulated GPU memory device and CUDA-style driver.
//!
//! The GMLake paper builds on CUDA's *low-level virtual memory management*
//! API (`cuMemAddressReserve` / `cuMemCreate` / `cuMemMap` /
//! `cuMemSetAccess` / `cuMemUnmap` / `cuMemRelease`). This crate provides a
//! software device with those semantics plus the classic
//! `cudaMalloc`/`cudaFree` path, so the allocators above it can be developed
//! and evaluated without hardware.
//!
//! **One entry point goes beyond CUDA.** [`CudaDriver::mem_map`] rejects a
//! non-zero offset into the handle, as `cuMemMap` does;
//! [`CudaDriver::mem_map_window`] is the same call with that restriction
//! lifted. It models a hypothetical driver: a design that uses it (GMLake's
//! stitch in `gmlake-core` does) cannot run on CUDA as it stands, and the
//! simulated cost it saves is not a cost real hardware would save.
//!
//! What the device models:
//!
//! * **physical chunks** with handles that may be mapped at *multiple*
//!   virtual addresses simultaneously — the property that makes virtual
//!   memory stitching possible;
//! * **a virtual address space** with reservations, per-range mappings,
//!   access control and translation (reads/writes cross chunk boundaries
//!   transparently, proving stitched blocks behave contiguously);
//! * **a calibrated latency model** reproducing the paper's Table 1 and the
//!   115× VMM-vs-native gap of Figure 6, accumulated on a deterministic
//!   simulated clock;
//! * **deferred physical release** (`cuMemRelease` semantics): memory
//!   returns to the device only when the last mapping disappears.
//!
//! # Quick start
//!
//! ```
//! use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
//!
//! let drv = CudaDriver::new(DeviceConfig::small_test());
//! let g = drv.granularity(); // 2 MiB
//!
//! // Stitch two discontiguous physical chunks behind one contiguous VA.
//! let va = drv.mem_address_reserve(2 * g)?;
//! let (h1, h2) = (drv.mem_create(g)?, drv.mem_create(g)?);
//! drv.mem_map(va, g, 0, h1)?;
//! drv.mem_map(va.offset(g), g, 0, h2)?;
//! drv.mem_set_access(va, 2 * g, true)?;
//!
//! // A write spanning the chunk boundary behaves as if memory were flat.
//! drv.memcpy_htod(va.offset(g - 2), &[0xAB; 4])?;
//! # Ok::<(), gmlake_gpu_sim::DriverError>(())
//! ```

mod chunk;
mod clock;
mod cost;
mod device;
mod driver;
mod error;
mod event;
mod fault;
mod native;
mod vaspace;

pub use chunk::PhysHandle;
pub use clock::SimClock;
pub use cost::{figure6_chunk_sizes, CostModel};
pub use device::{ApiStats, DeviceConfig, DeviceSnapshot, DriverStats, GRANULARITY};
pub use driver::CudaDriver;
pub use error::{DriverError, DriverResult};
pub use event::{EventId, EventSource};
pub use fault::{FaultMode, FaultOp, FaultPlan, FaultRule};
pub use native::NativeAllocator;
