//! Shared harness plumbing for the per-figure/table benchmark binaries.
//!
//! Every binary in `src/bin/` reproduces one table or figure of the paper's
//! evaluation (the README's *Reproduced results* lists them, and
//! `docs/architecture.md` maps the layers they drive). They all follow the same
//! recipe: build a [`TrainConfig`], generate its trace, replay it against
//! the PyTorch-style caching allocator and against GMLake on identical
//! fresh devices, and print the paper's rows/series.

use std::sync::Arc;

use gmlake_alloc_api::{gib, AllocatorCore, DeviceAllocator, DeviceAllocatorConfig};
use gmlake_caching::CachingAllocator;
use gmlake_core::{GmLakeAllocator, GmLakeConfig};
use gmlake_gpu_sim::{CudaDriver, DeviceConfig, NativeAllocator};
use gmlake_runtime::{DefragPolicy, DeviceId, MemoryProfiler, PoolService};
use gmlake_telemetry::{MemorySnapshot, PoolTelemetry};
use gmlake_workload::{
    ConcurrentReplayer, RankSpec, ReplayOptions, ReplayReport, Replayer, ScaleoutReport,
    TraceGenerator, TrainConfig,
};

pub mod perf;

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

/// Result pair for one workload: baseline vs GMLake.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Caching-allocator report.
    pub baseline: ReplayReport,
    /// GMLake report.
    pub gmlake: ReplayReport,
}

/// Device capacity used throughout the evaluation (A100-80GB).
pub fn device_capacity() -> u64 {
    gib(80)
}

/// Runs `cfg` against one allocator on a fresh A100-80G device.
pub fn run_single(cfg: &TrainConfig, which: Allocator, opts: &ReplayOptions) -> ReplayReport {
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let driver = CudaDriver::new(DeviceConfig::a100_80g());
    let replayer = Replayer::new(driver.clone()).with_options(opts.clone());
    match which {
        Allocator::Caching => {
            let mut alloc = CachingAllocator::new(driver);
            replayer.replay(&mut alloc, &trace, cfg)
        }
        Allocator::GmLake => {
            let mut alloc = GmLakeAllocator::new(driver, GmLakeConfig::default());
            replayer.replay(&mut alloc, &trace, cfg)
        }
        Allocator::Native => {
            let mut alloc = NativeAllocator::new(driver);
            replayer.replay(&mut alloc, &trace, cfg)
        }
    }
}

/// Runs `cfg` against the caching baseline and GMLake on identical devices.
pub fn run_pair(cfg: &TrainConfig) -> Pair {
    let opts = ReplayOptions::default();
    Pair {
        baseline: run_single(cfg, Allocator::Caching, &opts),
        gmlake: run_single(cfg, Allocator::GmLake, &opts),
    }
}

/// Runs a concurrent scale-out fleet: `ranks` data-parallel ranks of `cfg`,
/// each on its own fresh A100-80G device, all replaying simultaneously on
/// their own OS threads through one [`PoolService`] (optionally ticking a
/// [`DefragPolicy`] at every iteration boundary).
pub fn run_scaleout(
    cfg: &TrainConfig,
    ranks: u32,
    which: Allocator,
    defrag: Option<DefragPolicy>,
) -> ScaleoutReport {
    let service = defrag.map_or_else(PoolService::new, PoolService::with_defrag);
    let specs: Vec<RankSpec> = (0..ranks)
        .map(|rank| {
            let driver = CudaDriver::new(DeviceConfig::a100_80g());
            let device = DeviceId(rank);
            let alloc: Box<dyn AllocatorCore + Send> = match which {
                Allocator::Caching => Box::new(CachingAllocator::new(driver.clone())),
                Allocator::GmLake => Box::new(GmLakeAllocator::new(
                    driver.clone(),
                    GmLakeConfig::default(),
                )),
                Allocator::Native => Box::new(NativeAllocator::new(driver.clone())),
            };
            service
                .register(device, alloc)
                .expect("fresh device ids are unique");
            RankSpec::new(device, driver, cfg.clone())
        })
        .collect();
    ConcurrentReplayer::new(service)
        .replay_ranks(specs)
        .expect("all ranks were just registered")
}

/// Runs a profiled GMLake scale-out fleet: like
/// [`run_scaleout`]`(cfg, ranks, Allocator::GmLake, None)`, but with the
/// full telemetry stack attached to every rank — an unsampled
/// [`PoolTelemetry`] sink wired into the front-end hot paths, the GMLake
/// core's stitch decisions, and the device driver (which also serves as
/// the sink's clock, so event timestamps share the replay's simulated
/// timeline) — under a started [`MemoryProfiler`]. Returns the replay
/// report together with the dumped [`MemorySnapshot`]: one pool per rank,
/// timeline points at every iteration boundary plus the profiler's final
/// reconciling sample.
pub fn run_scaleout_profiled(cfg: &TrainConfig, ranks: u32) -> (ScaleoutReport, MemorySnapshot) {
    let service = PoolService::new();
    let profiler = MemoryProfiler::new(&service);
    let specs: Vec<RankSpec> = (0..ranks)
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
            let device = DeviceId(rank);
            service
                .register_device(device, alloc)
                .expect("fresh device ids are unique");
            RankSpec::new(device, driver, cfg.clone())
        })
        .collect();
    profiler.start();
    let report = ConcurrentReplayer::new(service)
        .replay_ranks(specs)
        .expect("all ranks were just registered");
    let snapshot = profiler.dump();
    (report, snapshot)
}

/// Runs `cfg` against a caller-supplied allocator on a fresh device (for
/// ablations with custom configurations).
pub fn run_with<A, F>(cfg: &TrainConfig, make: F) -> ReplayReport
where
    A: AllocatorCore,
    F: FnOnce(CudaDriver) -> A,
{
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let driver = CudaDriver::new(DeviceConfig::a100_80g());
    let mut alloc = make(driver.clone());
    Replayer::new(driver).replay(&mut alloc, &trace, cfg)
}

/// Formats bytes as GiB with one decimal.
pub fn fmt_gib(bytes: u64) -> String {
    format!("{:6.1}", gmlake_workload::to_gib(bytes))
}

/// Formats a ratio as a percentage with one decimal.
pub fn fmt_pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}

/// Renders an outcome: reserved GiB, or `OOM` when the run died.
pub fn fmt_reserved(r: &ReplayReport) -> String {
    if r.outcome.is_completed() {
        fmt_gib(r.peak_reserved)
    } else {
        "   OOM".to_owned()
    }
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Prints the standard comparison row for one workload.
pub fn print_compare_row(label: &str, pair: &Pair) {
    let b = &pair.baseline;
    let g = &pair.gmlake;
    println!(
        "{label:<34} {} {}   {} {}   {} {}",
        fmt_reserved(b),
        fmt_pct(b.utilization()),
        fmt_reserved(g),
        fmt_pct(g.utilization()),
        fmt_gib(b.peak_reserved.saturating_sub(g.peak_reserved)),
        fmt_pct(if b.peak_reserved > 0 {
            (b.peak_reserved.saturating_sub(g.peak_reserved)) as f64 / b.peak_reserved as f64
        } else {
            0.0
        }),
    );
}

/// Prints the standard comparison header.
pub fn print_compare_header(first_col: &str) {
    println!(
        "{first_col:<34} {:>6} {:>6}   {:>6} {:>6}   {:>6} {:>6}",
        "RM-pt", "UR-pt", "RM-gml", "UR-gml", "save", "save%"
    );
    rule(84);
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_gib(1 << 30), "   1.0");
        assert_eq!(fmt_pct(0.925), " 92.5%");
    }
}
