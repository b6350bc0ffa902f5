//! Trace replayer: drives any [`AllocatorCore`] with a [`Trace`] and collects
//! the metrics the paper reports — peak active/reserved memory, utilization
//! and fragmentation ratios, throughput, time series, and OOM outcomes.

use std::collections::HashMap;

use gmlake_alloc_api::{AllocError, AllocRequest, AllocationId, AllocatorCore, StreamId};
use gmlake_gpu_sim::CudaDriver;

use crate::trace::{Trace, TraceEvent};

/// A recorded series keeps one sample per this many alloc/free events, to
/// bound its memory.
const SERIES_STRIDE: usize = 64;

/// Replay policy knobs.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Record an `(time, active, reserved)` sample stream (Figure 14), one
    /// sample per 64 alloc/free events.
    pub record_series: bool,
    /// Stop at the first out-of-memory failure (the paper's runs terminate
    /// on OOM). When `false`, failed allocations are skipped and counted.
    pub stop_on_oom: bool,
    /// Tolerate rolled-back driver faults
    /// ([`AllocError::DriverFault`]): the allocation is skipped and counted
    /// in [`ReplayReport::faulted_allocs`] and the replay continues — the
    /// fault-injection (chaos) harness runs with this on. When `false`
    /// (default) a driver fault is a harness bug and panics.
    pub skip_on_fault: bool,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            record_series: false,
            stop_on_oom: true,
            skip_on_fault: false,
        }
    }
}

/// How a replay ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// Every event was executed.
    Completed,
    /// The allocator ran out of memory.
    Oom {
        /// Iteration during which the failure happened (0-based).
        iteration: u32,
        /// Index of the failing event within the trace.
        event_index: usize,
    },
}

impl ReplayOutcome {
    /// `true` when the replay finished without an OOM.
    pub fn is_completed(&self) -> bool {
        matches!(self, ReplayOutcome::Completed)
    }
}

/// One point of the memory-over-time series (Figure 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Simulated time.
    pub t_ns: u64,
    /// Active bytes at that instant.
    pub active: u64,
    /// Reserved bytes at that instant.
    pub reserved: u64,
}

/// Everything measured during one replay.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Allocator name (`AllocatorCore::name`).
    pub allocator: &'static str,
    /// Trace label.
    pub label: String,
    /// Completion or OOM.
    pub outcome: ReplayOutcome,
    /// Peak bytes allocated to live tensors.
    pub peak_active: u64,
    /// Peak bytes reserved on the device.
    pub peak_reserved: u64,
    /// Bytes still reserved when the replay ended — what the allocator's
    /// cache leaves behind for the next workload on the device.
    pub final_reserved: u64,
    /// Iterations that fully completed.
    pub iterations_completed: u32,
    /// Simulated wall time of the whole replay.
    pub sim_time_ns: u64,
    /// Simulated time spent inside driver allocation calls.
    pub allocator_ns: u64,
    /// Global training throughput in samples per simulated second
    /// (0 when no iteration completed).
    pub throughput: f64,
    /// Allocations that failed and were skipped (only with
    /// `stop_on_oom = false`).
    pub skipped_allocs: u64,
    /// Allocations that failed with a rolled-back driver fault and were
    /// skipped (only with `skip_on_fault = true`).
    pub faulted_allocs: u64,
    /// Memory-over-time samples (empty unless `record_series`).
    pub series: Vec<Sample>,
}

impl ReplayReport {
    /// Peak utilization ratio (peak active / peak reserved), the paper's §5.1
    /// metric.
    pub fn utilization(&self) -> f64 {
        if self.peak_reserved == 0 {
            1.0
        } else {
            self.peak_active as f64 / self.peak_reserved as f64
        }
    }

    /// Fragmentation ratio `1 − utilization`.
    pub fn fragmentation(&self) -> f64 {
        1.0 - self.utilization()
    }
}

/// Replays traces against allocators sharing one simulated device.
///
/// ```
/// use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
/// use gmlake_caching::CachingAllocator;
/// use gmlake_workload::{ModelSpec, Replayer, StrategySet, TraceGenerator, TrainConfig};
///
/// let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR).with_iterations(2);
/// let trace = TraceGenerator::new(cfg.clone()).generate();
/// let driver = CudaDriver::new(DeviceConfig::a100_80g());
/// let mut alloc = CachingAllocator::new(driver.clone());
/// let report = Replayer::new(driver).replay(&mut alloc, &trace, &cfg);
/// assert!(report.outcome.is_completed());
/// assert!(report.utilization() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Replayer {
    driver: CudaDriver,
    options: ReplayOptions,
}

impl Replayer {
    /// Creates a replayer on `driver` with default options.
    pub fn new(driver: CudaDriver) -> Self {
        Replayer {
            driver,
            options: ReplayOptions::default(),
        }
    }

    /// Replaces the options.
    #[must_use]
    pub fn with_options(mut self, options: ReplayOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs `trace` against `alloc`. `cfg` supplies the per-iteration sample
    /// count (`batch × gpus`) for throughput accounting.
    pub fn replay(
        &self,
        alloc: &mut dyn AllocatorCore,
        trace: &Trace,
        cfg: &crate::strategy::TrainConfig,
    ) -> ReplayReport {
        let samples_per_iter = cfg.batch_size as u64 * cfg.n_gpus as u64;
        self.replay_with_samples(alloc, trace, samples_per_iter)
    }

    /// Like [`Replayer::replay`], with an explicit samples-per-iteration.
    pub fn replay_with_samples(
        &self,
        alloc: &mut dyn AllocatorCore,
        trace: &Trace,
        samples_per_iter: u64,
    ) -> ReplayReport {
        let t_start = self.driver.now_ns();
        let drv_before = self.driver.stats().allocator_time_ns();
        // key -> (allocator id, allocating stream): surviving tensors are
        // released on their own stream so the cleanup stays on the warm path.
        let mut ids: HashMap<u64, (AllocationId, StreamId)> = HashMap::new();
        let mut outcome = ReplayOutcome::Completed;
        let mut iterations_completed = 0u32;
        let mut current_iter = 0u32;
        let mut first_iter_t = None;
        let mut iter_end_ts: Vec<u64> = Vec::new();
        let mut skipped = 0u64;
        let mut faulted = 0u64;
        let mut series = Vec::new();
        let mut since_sample = 0usize;

        'events: for (i, ev) in trace.events.iter().enumerate() {
            match *ev {
                TraceEvent::Alloc {
                    key,
                    size,
                    tag,
                    stream,
                } => {
                    // Stream-aware front-ends route to the stream's cache
                    // bank; stream-oblivious cores ignore the stream (the
                    // AllocatorCore default delegates to `allocate`).
                    match alloc.alloc_on_stream(AllocRequest::new(size).with_tag(tag), stream) {
                        Ok(a) => {
                            ids.insert(key, (a.id, stream));
                        }
                        Err(AllocError::OutOfMemory { .. }) => {
                            if self.options.stop_on_oom {
                                outcome = ReplayOutcome::Oom {
                                    iteration: current_iter,
                                    event_index: i,
                                };
                                break 'events;
                            }
                            skipped += 1;
                        }
                        Err(AllocError::DriverFault { .. }) if self.options.skip_on_fault => {
                            faulted += 1;
                        }
                        Err(e) => panic!("replay hit a non-OOM allocator error: {e}"),
                    }
                }
                TraceEvent::Free { key, stream } => {
                    if let Some((id, _)) = ids.remove(&key) {
                        match alloc.free_on_stream(id, stream) {
                            Ok(()) => {}
                            Err(AllocError::DriverFault { .. }) if self.options.skip_on_fault => {
                                // The core rolled the free back, so the
                                // tensor is still live; park it for the
                                // final drain (the fault, if transient,
                                // is consumed by then).
                                faulted += 1;
                                ids.insert(key, (id, stream));
                            }
                            Err(e) => panic!("replayer frees only live allocations: {e}"),
                        }
                    }
                }
                // Compute is launched ASYNCHRONOUSLY on the default stream,
                // the way a framework enqueues kernels: the stream's
                // completion frontier advances by the full duration while
                // the host runs ahead: a core's cross-stream event stamps
                // stay genuinely pending until the host catches up.
                TraceEvent::Compute { ns } => self.driver.stream_launch(StreamId::DEFAULT, ns),
                TraceEvent::IterBegin { index } => {
                    current_iter = index;
                    if first_iter_t.is_none() {
                        first_iter_t = Some(self.driver.now_ns());
                    }
                }
                TraceEvent::IterEnd { .. } => {
                    // The optimizer step synchronizes the device (the host
                    // blocks until every stream's work is done), completing
                    // the iteration's events; the process_events tick then
                    // retires the core's completed stamps.
                    self.driver.device_synchronize();
                    alloc.iteration_boundary();
                    alloc.process_events();
                    iterations_completed += 1;
                    iter_end_ts.push(self.driver.now_ns());
                }
            }
            if self.options.record_series
                && matches!(ev, TraceEvent::Alloc { .. } | TraceEvent::Free { .. })
            {
                since_sample += 1;
                if since_sample >= SERIES_STRIDE {
                    since_sample = 0;
                    let s = alloc.stats();
                    series.push(Sample {
                        t_ns: self.driver.now_ns() - t_start,
                        active: s.active_bytes,
                        reserved: s.reserved_bytes,
                    });
                }
            }
        }

        // Catch the host up with any trailing in-flight work (an OOM may
        // have cut the trace short mid-iteration) so the reported sim time
        // covers every launched phase.
        self.driver.device_synchronize();
        alloc.process_events();
        // Release surviving allocations so the allocator can be reused (the
        // trace itself frees everything unless it was cut short by OOM).
        for (_, (id, stream)) in ids.drain() {
            // One retry absorbs a transient fault consumed by the first
            // attempt; anything else is best-effort cleanup.
            if alloc.free_on_stream(id, stream).is_err() {
                let _ = alloc.free_on_stream(id, stream);
            }
        }

        let stats = alloc.stats();
        let sim_time_ns = self.driver.now_ns() - t_start;
        let allocator_ns = self.driver.stats().allocator_time_ns() - drv_before;
        // Steady-state throughput: once at least four iterations completed,
        // measure over the second half only, excluding the warm-up in which
        // GMLake builds its block pools (the paper reports post-convergence
        // throughput; Figure 14 "after four iterations GMLake reaches
        // stability and achieves the same throughput as PyTorch").
        let throughput = match (first_iter_t, iter_end_ts.len()) {
            (Some(_), n) if n >= 4 => {
                let mid = n / 2;
                let span_s = (iter_end_ts[n - 1] - iter_end_ts[mid - 1]) as f64 / 1e9;
                if span_s > 0.0 {
                    ((n - mid) as u64 * samples_per_iter) as f64 / span_s
                } else {
                    0.0
                }
            }
            (Some(t0), n) if n > 0 => {
                let span_s = (iter_end_ts[n - 1] - t0) as f64 / 1e9;
                if span_s > 0.0 {
                    (n as u64 * samples_per_iter) as f64 / span_s
                } else {
                    0.0
                }
            }
            _ => 0.0,
        };
        ReplayReport {
            allocator: alloc.name(),
            label: trace.label.clone(),
            outcome,
            peak_active: stats.peak_active_bytes,
            peak_reserved: stats.peak_reserved_bytes,
            final_reserved: stats.reserved_bytes,
            iterations_completed,
            sim_time_ns,
            allocator_ns,
            throughput,
            skipped_allocs: skipped,
            faulted_allocs: faulted,
            series,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::model::ModelSpec;
    use crate::strategy::{StrategySet, TrainConfig};
    use gmlake_alloc_api::gib;
    use gmlake_caching::CachingAllocator;
    use gmlake_gpu_sim::{DeviceConfig, NativeAllocator};

    fn small_cfg() -> TrainConfig {
        TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR).with_iterations(2)
    }

    fn a100() -> CudaDriver {
        CudaDriver::new(DeviceConfig::a100_80g())
    }

    #[test]
    fn caching_replay_completes_and_reports() {
        let cfg = small_cfg();
        let trace = TraceGenerator::new(cfg.clone()).generate();
        let driver = a100();
        let mut alloc = CachingAllocator::new(driver.clone());
        let report = Replayer::new(driver.clone()).replay(&mut alloc, &trace, &cfg);
        assert!(report.outcome.is_completed());
        assert_eq!(report.iterations_completed, 2);
        assert!(report.peak_active > 0);
        assert!(report.peak_reserved >= report.peak_active);
        assert!(report.throughput > 0.0, "throughput {}", report.throughput);
        assert!(report.utilization() > 0.0 && report.utilization() <= 1.0);
        // Peak active can never beat the trace's ideal packing bound...
        assert!(report.peak_active >= trace.stats().peak_live_bytes);
        // All tensors were freed by the trace; allocator should be empty.
        assert_eq!(alloc.stats().active_bytes, 0);
    }

    #[test]
    fn series_recording_respects_stride() {
        let cfg = small_cfg();
        let trace = TraceGenerator::new(cfg.clone()).generate();
        let driver = a100();
        let mut alloc = CachingAllocator::new(driver.clone());
        let opts = ReplayOptions {
            record_series: true,
            ..ReplayOptions::default()
        };
        let report = Replayer::new(driver)
            .with_options(opts)
            .replay(&mut alloc, &trace, &cfg);
        assert!(report.outcome.is_completed());
        let allocs_frees = trace.stats().allocs + trace.stats().frees;
        assert!(!report.series.is_empty());
        assert_eq!(
            report.series.len() as u64,
            allocs_frees / SERIES_STRIDE as u64
        );
        // Time is monotone.
        for w in report.series.windows(2) {
            assert!(w[0].t_ns <= w[1].t_ns);
        }
    }

    #[test]
    fn oom_stops_the_replay_on_tiny_device() {
        let cfg = small_cfg();
        let trace = TraceGenerator::new(cfg.clone()).generate();
        let driver = CudaDriver::new(
            DeviceConfig::a100_80g().with_capacity(gib(1)), // far too small
        );
        let mut alloc = CachingAllocator::new(driver.clone());
        let report = Replayer::new(driver).replay(&mut alloc, &trace, &cfg);
        assert!(matches!(report.outcome, ReplayOutcome::Oom { .. }));
        assert_eq!(report.iterations_completed, 0);
        assert_eq!(report.throughput, 0.0);
    }

    #[test]
    fn skip_mode_counts_failures_and_continues() {
        let cfg = small_cfg();
        let trace = TraceGenerator::new(cfg.clone()).generate();
        let driver = CudaDriver::new(DeviceConfig::a100_80g().with_capacity(gib(1)));
        let mut alloc = CachingAllocator::new(driver.clone());
        let opts = ReplayOptions {
            stop_on_oom: false,
            ..ReplayOptions::default()
        };
        let report = Replayer::new(driver)
            .with_options(opts)
            .replay(&mut alloc, &trace, &cfg);
        assert!(report.outcome.is_completed(), "skip mode never stops");
        assert!(report.skipped_allocs > 0);
    }

    #[test]
    fn native_allocator_is_dramatically_slower() {
        // The paper: native allocator ≈ 10× lower throughput than caching.
        let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::R).with_iterations(2);
        let trace = TraceGenerator::new(cfg.clone()).generate();

        let d1 = a100();
        let mut caching = CachingAllocator::new(d1.clone());
        let r_caching = Replayer::new(d1).replay(&mut caching, &trace, &cfg);

        let d2 = a100();
        let mut native = NativeAllocator::new(d2.clone());
        let r_native = Replayer::new(d2).replay(&mut native, &trace, &cfg);

        assert!(r_caching.outcome.is_completed() && r_native.outcome.is_completed());
        let slowdown = r_caching.throughput / r_native.throughput;
        assert!(
            slowdown > 3.0,
            "native should be several times slower, got {slowdown:.1}x \
             (caching {:.2}, native {:.2} samples/s)",
            r_caching.throughput,
            r_native.throughput
        );
    }

    #[test]
    fn multi_stream_trace_routes_into_per_stream_banks() {
        use gmlake_alloc_api::{DeviceAllocator, DeviceAllocatorConfig};
        use gmlake_core::{GmLakeAllocator, GmLakeConfig};
        use std::sync::Arc;
        // Offload (RO) generates communication + staging tensors, which the
        // generator moves to side streams. Each is at least
        // `SMALL_THRESHOLD`, so a stream-aware front-end hands it to the
        // core on its own stream, past the side stream's bank. Comm buffers
        // are freed by their consumer (the default stream), so the replay
        // also exercises the core's cross-stream rule: it stamps each such
        // block with an event recorded on the freeing stream.
        let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::RO)
            .with_iterations(2)
            .with_seq_len(256)
            .with_batch(2)
            .with_streams(2);
        let trace = TraceGenerator::new(cfg.clone()).generate();
        assert_eq!(trace.stats().streams, 2);
        let driver = a100();
        let mut pool = DeviceAllocator::try_build(
            Box::new(GmLakeAllocator::new(
                driver.clone(),
                GmLakeConfig::default(),
            )),
            DeviceAllocatorConfig::default().with_streams(2),
            Some(Arc::new(driver.clone())),
            None,
        )
        .unwrap();
        let report = Replayer::new(driver.clone()).replay(&mut pool, &trace, &cfg);
        assert!(report.outcome.is_completed());
        let side = pool.stream_cache_stats(StreamId(1));
        assert_eq!(
            side.hits + side.misses,
            0,
            "side-stream traffic skipped the bank"
        );
        assert!(
            driver.stats().event_record.calls > 0,
            "comm frees were stamped on the freeing stream"
        );
        assert_eq!(AllocatorCore::stats(&pool).active_bytes, 0);
        assert_eq!(driver.outstanding_events(), 0, "no event leaked");
    }

    #[test]
    fn allocator_time_is_tracked_separately() {
        let cfg = small_cfg();
        let trace = TraceGenerator::new(cfg.clone()).generate();
        let driver = a100();
        let mut alloc = NativeAllocator::new(driver.clone());
        let report = Replayer::new(driver).replay(&mut alloc, &trace, &cfg);
        assert!(report.allocator_ns > 0);
        assert!(report.allocator_ns <= report.sim_time_ns);
    }
}
