//! The native allocator: `cudaMalloc`/`cudaFree` pass-through.
//!
//! This is the paper's first baseline (§2.2): every tensor allocation goes
//! straight to the driver and pays a device synchronization, making it ~10×
//! slower end to end than the caching allocator. Its one virtue: reserved
//! memory always equals active memory, so it never fragments the pool (the
//! fragmentation is pushed into the driver and the latency budget instead).

use std::collections::HashMap;

use gmlake_alloc_api::{
    AllocError, AllocRequest, Allocation, AllocationId, AllocatorCore, MemStats, VirtAddr,
};

use crate::driver::CudaDriver;
use crate::error::DriverError;

/// Pipeline-stall penalty per native call, in calibrated nanoseconds.
///
/// `cudaMalloc`/`cudaFree` synchronize the device, draining the asynchronous
/// kernel pipeline; the GPU then sits idle while the host refills it. The
/// isolated call latency (the cost model's `mem_alloc_ns`) does not capture
/// that lost overlap — the paper measures the *end-to-end* effect as a 9.7×
/// throughput drop (§2.2). A ~3 ms stall per call on top of the call latency
/// reproduces a several-fold slowdown on the generated traces (the additive
/// model is conservative; the real penalty compounds with communication
/// overlap, which we do not model).
const SYNC_STALL_NS: f64 = 3_000_000.0;

/// Pass-through allocator over the native `cudaMalloc`/`cudaFree` API.
///
/// # Example
///
/// ```
/// use gmlake_gpu_sim::{CudaDriver, DeviceConfig, NativeAllocator};
/// use gmlake_alloc_api::{AllocRequest, AllocatorCore, mib};
///
/// let driver = CudaDriver::new(DeviceConfig::small_test());
/// let mut alloc = NativeAllocator::new(driver);
/// let a = alloc.allocate(AllocRequest::new(mib(4)))?;
/// alloc.deallocate(a.id)?;
/// # Ok::<(), gmlake_alloc_api::AllocError>(())
/// ```
#[derive(Debug)]
pub struct NativeAllocator {
    driver: CudaDriver,
    live: HashMap<AllocationId, (VirtAddr, u64)>,
    next_id: u64,
    stats: MemStats,
    stall_ns: u64,
}

impl NativeAllocator {
    /// Creates a native allocator on `driver`.
    pub fn new(driver: CudaDriver) -> Self {
        let stall_ns = (SYNC_STALL_NS * driver.cost_model().scale) as u64;
        NativeAllocator {
            driver,
            live: HashMap::new(),
            next_id: 0,
            stats: MemStats::default(),
            stall_ns,
        }
    }

    /// The underlying driver handle.
    pub fn driver(&self) -> &CudaDriver {
        &self.driver
    }
}

impl AllocatorCore for NativeAllocator {
    fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
        if req.size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let va = self.driver.mem_alloc(req.size).map_err(|e| match e {
            DriverError::OutOfMemory { capacity, .. } => AllocError::OutOfMemory {
                requested: req.size,
                reserved: self.stats.reserved_bytes,
                capacity,
            },
            other => AllocError::Driver(other.to_string()),
        })?;
        self.driver.advance_clock(self.stall_ns);
        self.next_id += 1;
        let id = AllocationId::new(self.next_id);
        self.live.insert(id, (va, req.size));
        self.stats.on_alloc(req.size, req.size);
        let reserved = self.stats.active_bytes;
        self.stats.set_reserved(reserved);
        Ok(Allocation {
            id,
            va,
            size: req.size,
            requested: req.size,
        })
    }

    fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
        let (va, size) = self
            .live
            .remove(&id)
            .ok_or(AllocError::UnknownAllocation(id))?;
        self.driver
            .mem_free(va)
            .map_err(|e| AllocError::Driver(e.to_string()))?;
        self.driver.advance_clock(self.stall_ns);
        self.stats.on_free(size);
        let reserved = self.stats.active_bytes;
        self.stats.set_reserved(reserved);
        Ok(())
    }

    fn stats(&self) -> MemStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "cuda-native"
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

impl Drop for NativeAllocator {
    fn drop(&mut self) {
        // Release everything still live; ignore errors (C-DTOR-FAIL).
        for (_, (va, _)) in self.live.drain() {
            let _ = self.driver.mem_free(va);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use gmlake_alloc_api::mib;

    fn alloc_on_test_device() -> NativeAllocator {
        NativeAllocator::new(CudaDriver::new(DeviceConfig::small_test()))
    }

    #[test]
    fn reserved_equals_active() {
        let mut a = alloc_on_test_device();
        let x = a.allocate(AllocRequest::new(mib(3))).unwrap();
        let y = a.allocate(AllocRequest::new(mib(5))).unwrap();
        let s = a.stats();
        assert_eq!(s.active_bytes, mib(8));
        assert_eq!(s.reserved_bytes, mib(8));
        a.deallocate(x.id).unwrap();
        assert_eq!(a.stats().reserved_bytes, mib(5));
        a.deallocate(y.id).unwrap();
        assert_eq!(a.stats().utilization(), 1.0);
    }

    #[test]
    fn oom_maps_to_alloc_error() {
        let mut a = alloc_on_test_device();
        let err = a.allocate(AllocRequest::new(mib(512))).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
        assert_eq!(a.stats().alloc_count, 0);
    }

    #[test]
    fn drop_releases_device_memory() {
        let driver = CudaDriver::new(DeviceConfig::small_test());
        {
            let mut a = NativeAllocator::new(driver.clone());
            a.allocate(AllocRequest::new(mib(10))).unwrap();
            assert_eq!(driver.phys_in_use(), mib(10));
        }
        assert_eq!(driver.phys_in_use(), 0);
        assert!(driver.snapshot().is_quiescent());
    }

    #[test]
    fn every_allocation_pays_a_driver_call() {
        let mut a = alloc_on_test_device();
        for _ in 0..5 {
            let x = a.allocate(AllocRequest::new(mib(1))).unwrap();
            a.deallocate(x.id).unwrap();
        }
        let stats = a.driver().stats();
        assert_eq!(stats.mem_alloc.calls, 5);
        assert_eq!(stats.mem_free.calls, 5);
    }

    #[test]
    fn unknown_id_is_an_error() {
        let mut a = alloc_on_test_device();
        let err = a.deallocate(AllocationId::new(99)).unwrap_err();
        assert!(matches!(err, AllocError::UnknownAllocation(_)));
    }
}
