//! Device configuration and driver-level telemetry.

use crate::cost::CostModel;
use gmlake_alloc_api::{gib, mib};

/// VMM allocation granularity in bytes: 2 MiB, what
/// `cuMemGetAllocationGranularity` returns on NVIDIA hardware.
pub const GRANULARITY: u64 = mib(2);

/// Configuration of a simulated GPU memory device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Human-readable device name (reports only).
    pub name: String,
    /// Physical memory capacity in bytes.
    pub capacity: u64,
    /// When `true`, physical chunks carry real host bytes so reads/writes
    /// through mapped VAs work (slow, for tests). When `false`, the device is
    /// accounting-only (fast, for 80 GiB-scale benchmarks).
    pub backing: bool,
    /// Latency model for driver calls.
    pub cost: CostModel,
}

impl DeviceConfig {
    /// An NVIDIA A100-80GB-like device: 80 GiB, 2 MiB granularity, no byte
    /// backing, calibrated cost model. This is the configuration used by all
    /// paper-reproduction benchmarks.
    pub fn a100_80g() -> Self {
        DeviceConfig {
            name: "sim-a100-80g".to_owned(),
            capacity: gib(80),
            backing: false, // accounting-only at 80 GiB scale
            cost: CostModel::calibrated(),
        }
    }

    /// A tiny device (256 MiB) with byte backing and a zero-cost model, for
    /// unit and property tests that verify semantics, not performance.
    pub fn small_test() -> Self {
        DeviceConfig {
            name: "sim-test-256m".to_owned(),
            capacity: mib(256),
            backing: true,
            cost: CostModel::zero(),
        }
    }

    /// Sets the capacity in bytes.
    #[must_use]
    pub fn with_capacity(mut self, capacity: u64) -> Self {
        self.capacity = capacity;
        self
    }

    /// Enables or disables byte backing.
    #[must_use]
    pub fn with_backing(mut self, backing: bool) -> Self {
        self.backing = backing;
        self
    }

    /// Replaces the cost model.
    #[must_use]
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::a100_80g()
    }
}

/// Call count and accumulated simulated time for one API entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApiStats {
    /// Number of successful calls.
    pub calls: u64,
    /// Simulated nanoseconds spent in them.
    pub time_ns: u64,
}

impl ApiStats {
    pub(crate) fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.time_ns += ns;
    }
}

/// Per-API telemetry for a device, mirroring the rows of the paper's Table 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// `cudaMalloc` (native path).
    pub mem_alloc: ApiStats,
    /// `cudaFree` (native path).
    pub mem_free: ApiStats,
    /// `cuMemAddressReserve`.
    pub address_reserve: ApiStats,
    /// `cuMemAddressFree`.
    pub address_free: ApiStats,
    /// `cuMemCreate`.
    pub create: ApiStats,
    /// `cuMemRelease`.
    pub release: ApiStats,
    /// `cuMemMap`.
    pub map: ApiStats,
    /// `cuMemUnmap`.
    pub unmap: ApiStats,
    /// `cuMemSetAccess`.
    pub set_access: ApiStats,
    /// Host/device copies and memsets.
    pub memcpy: ApiStats,
    /// `cuEventRecord`.
    pub event_record: ApiStats,
    /// `cuEventQuery`.
    pub event_query: ApiStats,
    /// `cuEventSynchronize` / `cuCtxSynchronize` — `time_ns` includes the
    /// simulated wait for incomplete work, not just the call overhead.
    pub event_sync: ApiStats,
    /// `cuStreamWaitEvent` — a GPU-side wait: `time_ns` is the host's
    /// enqueue cost only, never the wait itself.
    pub event_wait: ApiStats,
    /// Asynchronous kernel/work launches (`stream_launch`).
    pub launch: ApiStats,
    /// Faults injected by an installed [`FaultPlan`](crate::FaultPlan).
    /// Injected calls are rejected before mutating the device, so they are
    /// **not** counted in the per-API [`ApiStats`] above or in
    /// [`DriverStats::total_calls`].
    pub injected_faults: u64,
}

impl DriverStats {
    /// Total simulated time spent in VMM calls (reserve/create/map/
    /// set-access/unmap/release/address-free).
    pub fn vmm_time_ns(&self) -> u64 {
        self.address_reserve.time_ns
            + self.address_free.time_ns
            + self.create.time_ns
            + self.release.time_ns
            + self.map.time_ns
            + self.unmap.time_ns
            + self.set_access.time_ns
    }

    /// Total simulated time spent in native allocation calls.
    pub fn native_time_ns(&self) -> u64 {
        self.mem_alloc.time_ns + self.mem_free.time_ns
    }

    /// Total driver time (excluding copies).
    pub fn allocator_time_ns(&self) -> u64 {
        self.vmm_time_ns() + self.native_time_ns()
    }

    /// Total simulated time spent in the event/synchronization APIs
    /// (record + query + synchronize, host waits included, + stream waits'
    /// enqueue cost).
    pub fn event_time_ns(&self) -> u64 {
        self.event_record.time_ns
            + self.event_query.time_ns
            + self.event_sync.time_ns
            + self.event_wait.time_ns
    }

    /// Total driver entries across every API (copies, events, and launches
    /// included): the number of lock round-trips an allocator cost the
    /// device. An unmap of a multi-entry range counts as one call.
    pub fn total_calls(&self) -> u64 {
        self.mem_alloc.calls
            + self.mem_free.calls
            + self.address_reserve.calls
            + self.address_free.calls
            + self.create.calls
            + self.release.calls
            + self.map.calls
            + self.unmap.calls
            + self.set_access.calls
            + self.memcpy.calls
            + self.event_record.calls
            + self.event_query.calls
            + self.event_sync.calls
            + self.event_wait.calls
            + self.launch.calls
    }
}

/// A point-in-time view of device occupancy (all counters in bytes unless
/// noted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceSnapshot {
    /// Physical bytes currently allocated.
    pub phys_in_use: u64,
    /// High-water mark of `phys_in_use`.
    pub peak_phys_in_use: u64,
    /// Cumulative physical bytes ever created.
    pub phys_created_total: u64,
    /// Virtual bytes currently reserved.
    pub va_reserved: u64,
    /// Live physical handles (count).
    pub handles: u64,
    /// Live VA reservations (count).
    pub reservations: u64,
    /// Live mappings (count).
    pub mappings: u64,
    /// Simulated clock (ns).
    pub clock_ns: u64,
}

impl DeviceSnapshot {
    /// `true` when the device holds no memory and no address space — the
    /// expected state after every allocator has been dropped.
    pub fn is_quiescent(&self) -> bool {
        self.phys_in_use == 0 && self.handles == 0 && self.reservations == 0 && self.mappings == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_defaults() {
        let c = DeviceConfig::a100_80g();
        assert_eq!(c.capacity, gib(80));
        assert!(!c.backing);
    }

    #[test]
    fn builders_chain() {
        let c = DeviceConfig::small_test()
            .with_capacity(mib(64))
            .with_backing(false);
        assert_eq!(c.capacity, mib(64));
        assert!(!c.backing);
    }

    #[test]
    fn api_stats_accumulate() {
        let mut s = ApiStats::default();
        s.record(10);
        s.record(5);
        assert_eq!(s.calls, 2);
        assert_eq!(s.time_ns, 15);
    }

    #[test]
    fn driver_stats_time_partitions() {
        let mut s = DriverStats::default();
        s.mem_alloc.record(100);
        s.create.record(40);
        s.map.record(2);
        s.set_access.record(8);
        assert_eq!(s.native_time_ns(), 100);
        assert_eq!(s.vmm_time_ns(), 50);
        assert_eq!(s.allocator_time_ns(), 150);
        assert_eq!(s.total_calls(), 4);
    }

    #[test]
    fn quiescence_check() {
        let mut snap = DeviceSnapshot::default();
        assert!(snap.is_quiescent());
        snap.phys_in_use = 1;
        assert!(!snap.is_quiescent());
    }
}
