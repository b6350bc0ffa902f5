//! The [`MemoryProfiler`] facade: start/stop/dump memory-timeline
//! profiling over a [`PoolService`]'s pools.

use gmlake_telemetry::{FaultSnapshot, MemorySnapshot, PoolTelemetry};

use crate::service::{DeviceId, PoolHandle, PoolService};

/// Captures memory timelines, event traces, and latency histograms from a
/// [`PoolService`]'s pools.
///
/// Every pool the service registers carries a [`PoolTelemetry`] sink that
/// starts disabled (one relaxed atomic load of overhead per allocator
/// call). The profiler is the switch: [`start`](MemoryProfiler::start)
/// enables the sink on every registered pool, [`stop`](MemoryProfiler::stop)
/// disables it again, and [`dump`](MemoryProfiler::dump) assembles a
/// [`MemorySnapshot`] — the reserved/active/fragmentation series,
/// the structured event trace, and the latency histograms — ready for
/// [`MemorySnapshot::to_json`] or
/// [`MemorySnapshot::to_chrome_trace`].
///
/// Timeline points accumulate automatically at every
/// [`PoolHandle::iteration_boundary`]. `dump` records one final point per
/// pool so the timeline always reconciles with the pool's closing
/// [`MemStats`].
///
/// ```
/// use gmlake_runtime::{DeviceId, MemoryProfiler, PoolService};
/// use gmlake_caching::CachingAllocator;
/// use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
/// use gmlake_alloc_api::{mib, AllocRequest};
///
/// let service = PoolService::new();
/// let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
/// let pool = service.register(DeviceId(0), Box::new(CachingAllocator::new(driver)))?;
///
/// let profiler = MemoryProfiler::new(&service);
/// profiler.start();
/// let a = pool.allocate(AllocRequest::new(mib(4)))?;
/// pool.iteration_boundary(); // timeline point
/// pool.deallocate(a.id)?;
/// profiler.stop();
///
/// let snapshot = profiler.dump();
/// assert_eq!(snapshot.pools.len(), 1);
/// gmlake_telemetry::MemorySnapshot::validate_json(&snapshot.to_json())?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// [`MemStats`]: gmlake_alloc_api::MemStats
#[derive(Debug, Clone)]
pub struct MemoryProfiler {
    service: PoolService,
}

impl MemoryProfiler {
    /// A profiler over every pool currently (and subsequently) registered
    /// in `service`.
    pub fn new(service: &PoolService) -> Self {
        MemoryProfiler {
            service: service.clone(),
        }
    }

    /// The pools currently registered.
    fn pools(&self) -> Vec<(DeviceId, PoolHandle)> {
        self.service
            .devices()
            .into_iter()
            .filter_map(|d| self.service.handle(d).ok().map(|h| (d, h)))
            .collect()
    }

    /// Enables telemetry on every registered pool and records an initial
    /// timeline point per pool (the baseline the series starts from).
    pub fn start(&self) {
        for (_, handle) in self.pools() {
            if let Some(tel) = handle.allocator().telemetry() {
                tel.enable();
                Self::sample_pool(&handle, tel);
            }
        }
    }

    /// Disables telemetry on every registered pool. Buffered events,
    /// timeline points, and histograms are retained for a later
    /// [`dump`](MemoryProfiler::dump).
    pub fn stop(&self) {
        for (_, handle) in self.pools() {
            if let Some(tel) = handle.allocator().telemetry() {
                tel.disable();
            }
        }
    }

    /// Drains every registered pool's telemetry into a [`MemorySnapshot`].
    ///
    /// Each pool contributes one [`PoolSnapshot`] labelled
    /// `"<device> (<allocator name>)"` (e.g. `"gpu0 (gmlake)"`). A final
    /// timeline point is recorded first — briefly re-enabling a stopped
    /// sink — so the last sample always matches the pool's final
    /// reserved/active gauges ([`MemorySnapshot::validate_json`] asserts
    /// exactly that reconciliation).
    ///
    /// Draining is destructive for the event trace (each event is
    /// reported once) but histograms and timeline points accumulate
    /// across dumps.
    ///
    /// [`PoolSnapshot`]: gmlake_telemetry::PoolSnapshot
    pub fn dump(&self) -> MemorySnapshot {
        let mut pools = Vec::new();
        for (device, handle) in self.pools() {
            let Some(tel) = handle.allocator().telemetry() else {
                continue;
            };
            let was_enabled = tel.is_enabled();
            if !was_enabled {
                tel.enable();
            }
            Self::sample_pool(&handle, tel);
            let stats = handle.stats();
            if !was_enabled {
                tel.disable();
            }
            let label = format!("{} ({})", device, handle.name());
            let mut snap = tel.snapshot(&label, stats.reserved_bytes, stats.active_bytes);
            // Fault-recovery counters live in the service (faults,
            // retries) and the allocator core (transaction journal), not in
            // the telemetry sink — attach them here so chaos and serving
            // artifacts carry orphan accounting alongside the timeline.
            let recovery = handle.fault_stats();
            let journal = handle.fault_journal_stats();
            snap.fault = Some(FaultSnapshot {
                faults: recovery.faults,
                retries: recovery.retries,
                journal_failed_ops: journal.failed_ops,
                orphan_vas: journal.orphan_vas,
                orphan_va_bytes: journal.orphan_va_bytes,
                orphan_chunks: journal.orphan_chunks,
            });
            pools.push(snap);
        }
        MemorySnapshot { pools }
    }

    /// Records one timeline point of `handle`'s pool into `tel`.
    pub(crate) fn sample_pool(handle: &PoolHandle, tel: &PoolTelemetry) {
        let stats = handle.stats();
        tel.record_sample(
            stats.reserved_bytes,
            stats.active_bytes,
            stats.current_fragmentation(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlake_alloc_api::{mib, AllocRequest};
    use gmlake_core::{GmLakeAllocator, GmLakeConfig};
    use gmlake_gpu_sim::{CudaDriver, DeviceConfig, FaultOp, FaultPlan};

    #[test]
    fn dump_attaches_fault_recovery_and_journal_counters() {
        let service = PoolService::new();
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let pool = service
            .register(
                DeviceId(0),
                Box::new(GmLakeAllocator::new(
                    driver.clone(),
                    GmLakeConfig::default(),
                )),
            )
            .unwrap();
        let profiler = MemoryProfiler::new(&service);
        profiler.start();
        // One injected map fault, absorbed by the service's bounded retry:
        // the snapshot must carry it even though the caller never saw it.
        driver.set_fault_plan(FaultPlan::new().fail_nth(FaultOp::Map, 1));
        let a = pool.allocate(AllocRequest::new(mib(8))).unwrap();
        pool.deallocate(a.id).unwrap();
        profiler.stop();
        let snap = profiler.dump();
        let fault = snap.pools[0].fault.expect("fault section attached");
        assert_eq!(fault.faults, 1);
        assert_eq!(fault.retries, 1);
        assert_eq!(fault.journal_failed_ops, 1, "journal reached the dump");
        assert_eq!(fault.orphan_vas + fault.orphan_chunks, 0, "leak-free");
        // The enriched snapshot still validates and round-trips.
        let json = snap.to_json();
        MemorySnapshot::validate_json(&json).unwrap();
        assert_eq!(MemorySnapshot::from_json(&json).unwrap(), snap);
    }
}
