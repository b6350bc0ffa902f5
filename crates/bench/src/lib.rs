//! Shared harness plumbing for the `repro`, probe and soak binaries.
//!
//! Every experiment of `repro` reproduces one table or figure of the
//! paper's evaluation (the README's *Reproduced results* lists them, and
//! `docs/architecture.md` maps the layers they drive). They all follow the
//! same recipe: build a [`TrainConfig`], generate its trace, replay it
//! against the PyTorch-style caching allocator and against GMLake on
//! identical fresh devices, and print the paper's rows/series.

use std::sync::Arc;

use gmlake_alloc_api::{AllocatorCore, DeviceAllocator, DeviceAllocatorConfig};
use gmlake_caching::CachingAllocator;
use gmlake_core::{GmLakeAllocator, GmLakeConfig};
use gmlake_gpu_sim::{CostModel, CudaDriver, DeviceConfig, DriverStats, NativeAllocator};
use gmlake_runtime::{DeviceId, MemoryProfiler, PoolService};
use gmlake_telemetry::{MemorySnapshot, PoolTelemetry};
use gmlake_workload::{ReplayOptions, ReplayReport, Replayer, TraceGenerator, TrainConfig};

/// Which allocator to run a workload against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocator {
    /// PyTorch-style caching allocator (baseline, "w/o GML").
    Caching,
    /// GMLake ("w/ GML").
    GmLake,
    /// Native `cudaMalloc`/`cudaFree` pass-through.
    Native,
}

impl Allocator {
    /// Builds this allocator, in its default configuration, on `driver`.
    pub fn build(self, driver: CudaDriver) -> Box<dyn AllocatorCore + Send> {
        match self {
            Allocator::Caching => Box::new(CachingAllocator::new(driver)),
            Allocator::GmLake => Box::new(GmLakeAllocator::new(driver, GmLakeConfig::default())),
            Allocator::Native => Box::new(NativeAllocator::new(driver)),
        }
    }
}

/// Result pair for one workload: baseline vs GMLake.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Caching-allocator report.
    pub baseline: ReplayReport,
    /// GMLake report.
    pub gmlake: ReplayReport,
}

/// Runs `cfg` against one allocator on a fresh A100-80G device.
pub fn run_single(cfg: &TrainConfig, which: Allocator, opts: &ReplayOptions) -> ReplayReport {
    run_with(cfg, opts, |driver| which.build(driver)).0
}

/// Runs `cfg` against the caching baseline and GMLake on identical devices.
pub fn run_pair(cfg: &TrainConfig) -> Pair {
    let opts = ReplayOptions::default();
    Pair {
        baseline: run_single(cfg, Allocator::Caching, &opts),
        gmlake: run_single(cfg, Allocator::GmLake, &opts),
    }
}

/// Runs one data-parallel rank of a Figure 11 scale-out on a fresh
/// A100-80G, registered in its own [`PoolService`], and returns its report
/// with the device's driver telemetry.
///
/// One rank stands for the whole fleet: the trace is a pure function of
/// `cfg`, which carries no rank index, so every ZeRO data-parallel rank
/// issues the same per-GPU request stream on an identical device and
/// reports the same numbers (`tests/runtime_concurrency.rs` checks that
/// mirrored ranks on their own threads agree exactly).
pub fn run_scaleout(cfg: &TrainConfig, which: Allocator) -> (ReplayReport, DriverStats) {
    let service = PoolService::new();
    let driver = CudaDriver::new(DeviceConfig::a100_80g());
    let mut pool = service
        .register(DeviceId(0), which.build(driver.clone()))
        .expect("a fresh service has no device 0");
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let report = Replayer::new(driver.clone()).replay(&mut pool, &trace, cfg);
    (report, driver.stats())
}

/// Runs a profiled GMLake scale-out: `ranks` ranks of `cfg`, each on its
/// own fresh A100-80G with the full telemetry stack attached — an
/// unsampled [`PoolTelemetry`] sink wired into the front-end hot paths,
/// the GMLake core's stitch decisions, and the device driver (which also
/// serves as the sink's clock, so event timestamps share the replay's
/// simulated timeline) — registered under a started [`MemoryProfiler`]
/// and replayed one after another. Returns the per-rank reports together
/// with the dumped [`MemorySnapshot`]: one pool per rank, timeline points
/// at every iteration boundary plus the profiler's final reconciling
/// sample.
pub fn run_scaleout_profiled(cfg: &TrainConfig, ranks: u32) -> (Vec<ReplayReport>, MemorySnapshot) {
    let service = PoolService::new();
    let profiler = MemoryProfiler::new(&service);
    let pools: Vec<_> = (0..ranks)
        .map(|rank| {
            let driver = CudaDriver::new(DeviceConfig::a100_80g());
            let telemetry = Arc::new(PoolTelemetry::full().with_clock(Arc::new(driver.clone())));
            driver.set_telemetry(Arc::clone(&telemetry));
            let mut core = GmLakeAllocator::new(driver.clone(), GmLakeConfig::default());
            core.set_telemetry(Arc::clone(&telemetry));
            let alloc = DeviceAllocator::try_build(
                Box::new(core),
                DeviceAllocatorConfig::default(),
                Some(Arc::new(driver.clone())),
                Some(telemetry),
            )
            .expect("the default front-end config is valid");
            let pool = service
                .register_device(DeviceId(rank), alloc)
                .expect("fresh device ids are unique");
            (pool, driver)
        })
        .collect();
    profiler.start();
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let reports = pools
        .into_iter()
        .map(|(mut pool, driver)| Replayer::new(driver).replay(&mut pool, &trace, cfg))
        .collect();
    (reports, profiler.dump())
}

/// Runs `cfg` against a caller-supplied allocator on a fresh A100-80G
/// device (for ablations with custom configurations), and hands the
/// allocator back so its state can be read after the replay.
pub fn run_with<A, F>(cfg: &TrainConfig, opts: &ReplayOptions, make: F) -> (ReplayReport, A)
where
    A: AllocatorCore,
    F: FnOnce(CudaDriver) -> A,
{
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let driver = CudaDriver::new(DeviceConfig::a100_80g());
    let mut alloc = make(driver.clone());
    let report = Replayer::new(driver)
        .with_options(opts.clone())
        .replay(&mut alloc, &trace, cfg);
    (report, alloc)
}

/// Executes one VMM block allocation the way Table 1 and Figure 6 measure
/// it — reserve `block` bytes of VA, create and map `block / chunk`
/// physical chunks, set access once — on a fresh calibrated device, and
/// returns the driver's per-API telemetry.
pub fn executed_vmm_block(block: u64, chunk: u64) -> DriverStats {
    let driver = CudaDriver::new(DeviceConfig::a100_80g().with_cost(CostModel::calibrated()));
    let fits = "a fresh A100-80G fits the block";
    let va = driver.mem_address_reserve(block).expect(fits);
    for i in 0..block / chunk {
        let h = driver.mem_create(chunk).expect(fits);
        driver
            .mem_map(va.offset(i * chunk), chunk, 0, h)
            .expect(fits);
    }
    driver.mem_set_access(va, block, true).expect(fits);
    driver.stats()
}

/// Formats bytes as GiB with one decimal.
pub fn fmt_gib(bytes: u64) -> String {
    format!("{:6.1}", gmlake_workload::to_gib(bytes))
}

/// Formats a ratio as a percentage with one decimal.
pub fn fmt_pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlake_alloc_api::gib;
    use gmlake_gpu_sim::figure6_chunk_sizes;
    use gmlake_workload::{ModelSpec, StrategySet};

    #[test]
    fn pair_runs_and_gmlake_wins_on_fragmentation() {
        let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR).with_iterations(3);
        let pair = run_pair(&cfg);
        assert!(pair.baseline.outcome.is_completed());
        assert!(pair.gmlake.outcome.is_completed());
        assert!(
            pair.gmlake.utilization() >= pair.baseline.utilization(),
            "gmlake {:.3} vs baseline {:.3}",
            pair.gmlake.utilization(),
            pair.baseline.utilization()
        );
    }

    /// The executed VMM path that Table 1 and Figure 6 print agrees with
    /// the closed-form cost model at every Figure 6 chunk size (115.601
    /// against 115.603 at 2 MiB).
    #[test]
    fn executed_vmm_block_matches_the_cost_model() {
        let model = CostModel::calibrated();
        for chunk in figure6_chunk_sizes() {
            let executed = executed_vmm_block(gib(2), chunk).vmm_time_ns() as f64 / 1e6;
            let modelled = model.vmm_block_alloc_norm(gib(2), chunk);
            assert!(
                (executed - modelled).abs() <= 1e-3 * modelled,
                "chunk {chunk}: executed {executed:.3}, model {modelled:.3}"
            );
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_gib(1 << 30), "   1.0");
        assert_eq!(fmt_pct(0.925), " 92.5%");
    }
}
