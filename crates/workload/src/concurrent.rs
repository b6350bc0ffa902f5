//! Concurrent multi-rank replay: N data-parallel ranks on N OS threads,
//! each driving its own device's pool through a
//! [`PoolHandle`](gmlake_runtime::PoolHandle) of one shared
//! [`PoolService`].
//!
//! This is the paper's Figure 11 scale-out experiment made honest: instead
//! of replaying devices one after another, every rank gets a thread and the
//! whole fleet runs against the thread-safe runtime layer, with the
//! service's defrag scheduler (when configured) supervising all pools.
//!
//! ```
//! use gmlake_caching::CachingAllocator;
//! use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
//! use gmlake_runtime::{DeviceId, PoolService};
//! use gmlake_workload::{
//!     ConcurrentReplayer, ModelSpec, RankSpec, StrategySet, TrainConfig,
//! };
//!
//! let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR).with_iterations(2);
//! let service = PoolService::new();
//! let ranks: Vec<RankSpec> = (0..2)
//!     .map(|rank| {
//!         let driver = CudaDriver::new(DeviceConfig::a100_80g());
//!         let device = DeviceId(rank);
//!         service
//!             .register(device, Box::new(CachingAllocator::new(driver.clone())))
//!             .unwrap();
//!         RankSpec::new(device, driver, cfg.clone())
//!     })
//!     .collect();
//! let report = ConcurrentReplayer::new(service).replay_ranks(ranks)?;
//! assert_eq!(report.ranks.len(), 2);
//! assert!(report.all_completed());
//! # Ok::<(), gmlake_runtime::RuntimeError>(())
//! ```

use gmlake_gpu_sim::{CudaDriver, DriverStats};
use gmlake_runtime::{DeviceId, PoolService, RuntimeError};

use crate::generator::TraceGenerator;
use crate::metrics::mean;
use crate::replay::{ReplayOptions, ReplayReport, Replayer};
use crate::strategy::TrainConfig;

/// One data-parallel rank of a scale-out run: which device it allocates on,
/// the driver owning that device's clock, and its training configuration.
#[derive(Debug, Clone)]
pub struct RankSpec {
    /// The rank's device in the pool service.
    pub device: DeviceId,
    /// Driver of the same device (for compute-phase clock advancement).
    pub driver: CudaDriver,
    /// The rank's training configuration. ZeRO-style data-parallel ranks
    /// replay statistically identical traces; keep one shared seed for
    /// mirrored ranks or vary it per rank for jittered ones.
    pub config: TrainConfig,
}

impl RankSpec {
    /// Bundles a rank description.
    pub fn new(device: DeviceId, driver: CudaDriver, config: TrainConfig) -> Self {
        RankSpec {
            device,
            driver,
            config,
        }
    }
}

/// One rank's outcome.
#[derive(Debug, Clone)]
pub struct RankReport {
    /// The rank's device.
    pub device: DeviceId,
    /// The full sequential-replayer report for this rank.
    pub report: ReplayReport,
    /// Per-API driver telemetry of the rank's device at the end of the
    /// replay. `driver_stats.total_calls()` is the number of driver
    /// lock round-trips the rank cost its device; GMLake's core makes one
    /// create, map and access call per reservation, and one map call per
    /// stitched part.
    ///
    /// This is a *device-global* snapshot: it equals the rank's own traffic
    /// only under the standard one-rank-per-device setup (which every
    /// scale-out harness here uses). Ranks sharing a `DeviceId` would each
    /// see the combined device stats.
    pub driver_stats: DriverStats,
}

/// Aggregated outcome of a concurrent scale-out replay.
#[derive(Debug, Clone)]
pub struct ScaleoutReport {
    /// Per-rank reports, in the order the ranks were submitted.
    pub ranks: Vec<RankReport>,
}

impl ScaleoutReport {
    /// `true` when every rank finished without an OOM.
    pub fn all_completed(&self) -> bool {
        self.ranks.iter().all(|r| r.report.outcome.is_completed())
    }

    /// Largest per-rank peak reserved memory — the provisioning bound (every
    /// physical GPU must fit its rank's peak).
    pub fn max_peak_reserved(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.report.peak_reserved)
            .max()
            .unwrap_or(0)
    }

    /// Mean per-rank peak utilization ratio.
    pub fn mean_utilization(&self) -> f64 {
        let utils: Vec<f64> = self.ranks.iter().map(|r| r.report.utilization()).collect();
        mean(&utils)
    }

    /// Sum of the memory still reserved on every device when the replay
    /// ended — what the fleet hands to the next job. Defrag scheduling
    /// shows up here: proactive compaction returns idle caches, a
    /// no-defrag run keeps them.
    pub fn total_final_reserved(&self) -> u64 {
        self.ranks.iter().map(|r| r.report.final_reserved).sum()
    }

    /// Total driver calls across every rank's device (see
    /// [`DriverStats::total_calls`]). Assumes the standard
    /// one-rank-per-device fleet; see [`RankReport::driver_stats`].
    pub fn total_driver_calls(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.driver_stats.total_calls())
            .sum()
    }

    /// Mean per-rank driver-call count, for scale-out tables.
    pub fn mean_driver_calls(&self) -> f64 {
        let calls: Vec<f64> = self
            .ranks
            .iter()
            .map(|r| r.driver_stats.total_calls() as f64)
            .collect();
        mean(&calls)
    }

    /// Fleet steady-state throughput (samples per simulated second).
    ///
    /// Each rank's [`ReplayReport::throughput`] is already a *global*
    /// estimate — the sequential replayer scales samples per iteration by
    /// `batch × n_gpus` — so mirrored ranks are repeated measurements of
    /// the same quantity and the right aggregate is their mean, not their
    /// sum.
    pub fn fleet_throughput(&self) -> f64 {
        let throughputs: Vec<f64> = self.ranks.iter().map(|r| r.report.throughput).collect();
        mean(&throughputs)
    }
}

/// Drives N ranks on N OS threads against a [`PoolService`].
#[derive(Debug, Clone)]
pub struct ConcurrentReplayer {
    service: PoolService,
    options: ReplayOptions,
}

impl ConcurrentReplayer {
    /// Creates a replayer over `service` with default [`ReplayOptions`].
    pub fn new(service: PoolService) -> Self {
        ConcurrentReplayer {
            service,
            options: ReplayOptions::default(),
        }
    }

    /// Replaces the per-rank replay options.
    #[must_use]
    pub fn with_options(mut self, options: ReplayOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs every rank on its own OS thread and collects per-rank reports
    /// (submission order, regardless of thread scheduling).
    ///
    /// Each thread generates the rank's trace, resolves the rank's
    /// [`PoolHandle`](gmlake_runtime::PoolHandle) and replays through it
    /// with the sequential [`Replayer`] — one code path for both the
    /// single-threaded and the concurrent experiments.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownDevice`] if a rank names a device with no
    /// registered pool (checked up front: no thread is spawned on error).
    ///
    /// # Panics
    ///
    /// Propagates panics of rank threads (a replay only panics on allocator
    /// misbehaviour, which is itself a bug).
    pub fn replay_ranks(&self, ranks: Vec<RankSpec>) -> Result<ScaleoutReport, RuntimeError> {
        let jobs: Vec<_> = ranks
            .into_iter()
            .map(|spec| Ok((self.service.handle(spec.device)?, spec)))
            .collect::<Result<_, RuntimeError>>()?;
        let reports = std::thread::scope(|scope| {
            let threads: Vec<_> = jobs
                .into_iter()
                .map(|(mut handle, spec)| {
                    let options = self.options.clone();
                    scope.spawn(move || {
                        let trace = TraceGenerator::new(spec.config.clone()).generate();
                        let report = Replayer::new(spec.driver.clone())
                            .with_options(options)
                            .replay(&mut handle, &trace, &spec.config);
                        RankReport {
                            device: spec.device,
                            report,
                            driver_stats: spec.driver.stats(),
                        }
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("rank thread panicked"))
                .collect()
        });
        Ok(ScaleoutReport { ranks: reports })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelSpec;
    use crate::strategy::StrategySet;
    use gmlake_caching::CachingAllocator;
    use gmlake_core::{GmLakeAllocator, GmLakeConfig};
    use gmlake_gpu_sim::DeviceConfig;
    use gmlake_runtime::DefragPolicy;

    fn small_cfg() -> TrainConfig {
        TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR)
            .with_seq_len(256)
            .with_batch(2)
            .with_iterations(2)
    }

    fn build_ranks(service: &PoolService, n: u32, gmlake: bool) -> Vec<RankSpec> {
        let cfg = small_cfg();
        (0..n)
            .map(|rank| {
                let driver = CudaDriver::new(DeviceConfig::a100_80g());
                let device = DeviceId(rank);
                let alloc: Box<dyn gmlake_alloc_api::AllocatorCore + Send> = if gmlake {
                    Box::new(GmLakeAllocator::new(
                        driver.clone(),
                        GmLakeConfig::default(),
                    ))
                } else {
                    Box::new(CachingAllocator::new(driver.clone()))
                };
                service.register(device, alloc).unwrap();
                RankSpec::new(device, driver.clone(), cfg.clone())
            })
            .collect()
    }

    #[test]
    fn four_ranks_replay_concurrently_and_mirror() {
        let service = PoolService::new();
        let ranks = build_ranks(&service, 4, true);
        let report = ConcurrentReplayer::new(service)
            .replay_ranks(ranks)
            .unwrap();
        assert_eq!(report.ranks.len(), 4);
        assert!(report.all_completed());
        assert!(report.max_peak_reserved() > 0);
        assert!(report.mean_utilization() > 0.0);
        assert!(report.fleet_throughput() > 0.0);
        // Mirrored ranks (same seed, own devices) must agree exactly —
        // concurrency cannot leak between pools.
        for w in report.ranks.windows(2) {
            assert_eq!(w[0].report.peak_reserved, w[1].report.peak_reserved);
            assert_eq!(w[0].report.peak_active, w[1].report.peak_active);
            assert_eq!(
                w[0].driver_stats.total_calls(),
                w[1].driver_stats.total_calls()
            );
        }
        assert!(report.total_driver_calls() > 0);
        assert!(
            (report.mean_driver_calls() * 4.0 - report.total_driver_calls() as f64).abs() < 1e-6,
            "mirrored ranks: mean x ranks == total"
        );
        // Submission order is preserved.
        let devices: Vec<u32> = report.ranks.iter().map(|r| r.device.0).collect();
        assert_eq!(devices, vec![0, 1, 2, 3]);
    }

    #[test]
    fn multi_stream_ranks_replay_through_per_stream_pools() {
        use gmlake_alloc_api::{DeviceAllocator, DeviceAllocatorConfig, StreamId};
        use std::sync::Arc;
        // Two ranks, each replaying a 2-stream trace (offload staging on the
        // side stream, comm buffers freed cross-stream by their consumer)
        // against a stream-configured, event-backed front-end over GMLake:
        // the replay must route per-stream (every side-stream tensor is at
        // least `SMALL_THRESHOLD`, so it reaches the core on its stream),
        // stamp every cross-stream free with an event, keep the accounting
        // exact, and mirror across ranks exactly as the single-stream fleet
        // does.
        let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::RO)
            .with_seq_len(256)
            .with_batch(2)
            .with_iterations(2)
            .with_streams(2);
        let service = PoolService::new();
        let drivers: Vec<CudaDriver> = (0..2)
            .map(|_| CudaDriver::new(DeviceConfig::a100_80g()))
            .collect();
        let ranks: Vec<RankSpec> = (0..2)
            .zip(&drivers)
            .map(|(rank, driver)| {
                let device = DeviceId(rank);
                let front = DeviceAllocator::try_build(
                    Box::new(GmLakeAllocator::new(
                        driver.clone(),
                        GmLakeConfig::default(),
                    )),
                    DeviceAllocatorConfig::default().with_streams(2),
                    Some(Arc::new(driver.clone())),
                    None,
                )
                .unwrap();
                service.register_device(device, front).unwrap();
                RankSpec::new(device, driver.clone(), cfg.clone())
            })
            .collect();
        let report = ConcurrentReplayer::new(service.clone())
            .replay_ranks(ranks)
            .unwrap();
        assert!(report.all_completed());
        for w in report.ranks.windows(2) {
            assert_eq!(w[0].report.peak_reserved, w[1].report.peak_reserved);
        }
        for (device, driver) in service.devices().into_iter().zip(&drivers) {
            let handle = service.handle(device).unwrap();
            assert_eq!(handle.stats().active_bytes, 0);
            let side = handle.allocator().stream_cache_stats(StreamId(1));
            assert_eq!(
                side.hits + side.misses,
                0,
                "{device}: side-stream traffic skipped stream 1's bank"
            );
            assert!(
                driver.stats().event_record.calls > 0,
                "{device}: frees crossed streams"
            );
            assert_eq!(driver.outstanding_events(), 0, "{device}: no event leaked");
        }
    }

    #[test]
    fn unknown_device_fails_before_spawning() {
        let service = PoolService::new();
        let cfg = small_cfg();
        let orphan = RankSpec::new(DeviceId(9), CudaDriver::new(DeviceConfig::a100_80g()), cfg);
        let err = ConcurrentReplayer::new(service)
            .replay_ranks(vec![orphan])
            .unwrap_err();
        assert_eq!(err, RuntimeError::UnknownDevice(DeviceId(9)));
    }

    #[test]
    fn periodic_defrag_lowers_final_reserved_versus_no_defrag() {
        // The acceptance experiment in miniature: identical caching fleets,
        // one ticking a periodic defrag policy, one not. The defragged
        // fleet must end with less memory still reserved.
        let run = |defrag: bool| {
            let service = if defrag {
                PoolService::with_defrag(DefragPolicy::periodic(1))
            } else {
                PoolService::new()
            };
            let ranks = build_ranks(&service, 2, false);
            ConcurrentReplayer::new(service)
                .replay_ranks(ranks)
                .unwrap()
        };
        let plain = run(false);
        let defragged = run(true);
        assert!(plain.all_completed() && defragged.all_completed());
        assert!(
            defragged.total_final_reserved() < plain.total_final_reserved(),
            "defrag {} vs plain {}",
            defragged.total_final_reserved(),
            plain.total_final_reserved()
        );
    }
}
