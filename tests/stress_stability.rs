//! Long-horizon stability: over many iterations, reserved memory must
//! plateau (no leak-like growth), GMLake must converge, and its steady-state
//! allocator overhead must be negligible — the combination of claims behind
//! the paper's Figure 14. A final test pins the behaviour on a
//! slow-converging corner workload: pool structures stay bounded by the
//! `StitchFree` eviction cap even when exact-match convergence is slow.

use gmlake::prelude::*;
use gmlake_core::GmLakeConfig;
use gmlake_workload::{ReplayOptions, TraceGenerator};

/// The paper-regime workload: long sequences, LoRA + recomputation.
fn workload(iterations: u32) -> TrainConfig {
    TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR)
        .with_batch(8)
        .with_iterations(iterations)
}

#[test]
fn reserved_memory_plateaus_for_both_allocators() {
    let cfg = workload(16);
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let opts = ReplayOptions {
        record_series: true,
        ..ReplayOptions::default()
    };

    for which in ["caching", "gmlake"] {
        let driver = CudaDriver::new(DeviceConfig::a100_80g());
        let replayer = Replayer::new(driver.clone()).with_options(opts.clone());
        let report = match which {
            "caching" => {
                let mut a = CachingAllocator::new(driver.clone());
                replayer.replay(&mut a, &trace, &cfg)
            }
            _ => {
                let mut a = GmLakeAllocator::new(driver.clone(), GmLakeConfig::default());
                replayer.replay(&mut a, &trace, &cfg)
            }
        };
        assert!(report.outcome.is_completed(), "{which}");
        // Reserved memory in the last quarter of the run must not exceed the
        // halfway value by more than 2%: growth stops after warm-up.
        let series = &report.series;
        let mid = series[series.len() / 2].reserved;
        let tail_max = series[series.len() * 3 / 4..]
            .iter()
            .map(|s| s.reserved)
            .max()
            .unwrap();
        assert!(
            tail_max as f64 <= mid as f64 * 1.02,
            "{which}: reserved still growing ({tail_max} > {mid})"
        );
    }
}

#[test]
fn gmlake_steady_state_overhead_is_negligible() {
    let cfg = workload(10);
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let driver = CudaDriver::new(DeviceConfig::a100_80g());
    let mut lake = GmLakeAllocator::new(driver.clone(), GmLakeConfig::default());
    let report = Replayer::new(driver.clone()).replay(&mut lake, &trace, &cfg);
    assert!(report.outcome.is_completed());
    // Adaptation decays to a handful of residual transitions per iteration
    // (the paper's "only S1" is the idealized limit of this curve).
    let history = lake.non_exact_history();
    assert!(
        *history.last().unwrap() <= 4 && history.last().unwrap() * 50 <= history[0],
        "{history:?}"
    );

    // Fully warm the pools (residual restitching settles over a couple of
    // replays), then measure a steady-state replay: the driver must see
    // almost no physical-allocation traffic.
    for _ in 0..2 {
        let r = Replayer::new(driver.clone()).replay(&mut lake, &trace, &cfg);
        assert!(r.outcome.is_completed());
    }
    let before = driver.stats();
    let reserved_before = lake.reserved_physical();
    let report2 = Replayer::new(driver.clone()).replay(&mut lake, &trace, &cfg);
    let after = driver.stats();
    assert!(report2.outcome.is_completed());
    // The residual restitch floor may create a few chunks; physical growth
    // across a whole warmed replay must stay under 2%.
    let grown = lake.reserved_physical() - reserved_before;
    assert!(
        grown * 50 <= reserved_before,
        "steady state grew physical memory by {grown} bytes"
    );
    assert!(
        after.create.calls - before.create.calls <= 128,
        "steady state churned {} cuMemCreate calls",
        after.create.calls - before.create.calls
    );
}

#[test]
fn repeated_replays_do_not_grow_pools() {
    let cfg = workload(4);
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let driver = CudaDriver::new(DeviceConfig::a100_80g());
    let mut lake = GmLakeAllocator::new(driver.clone(), GmLakeConfig::default());
    let mut counts = Vec::new();
    for _ in 0..4 {
        let r = Replayer::new(driver.clone()).replay(&mut lake, &trace, &cfg);
        assert!(r.outcome.is_completed());
        lake.validate().unwrap();
        counts.push((lake.pblock_count(), lake.sblock_count()));
    }
    // pBlock count must be fully stable; sBlock structures may creep by the
    // residual restitch floor (a few per iteration), never more.
    assert_eq!(counts[2].0, counts[3].0, "physical pool grew: {counts:?}");
    assert!(
        counts[3].1 - counts[2].1 <= 16,
        "sPool growing beyond the residual floor: {counts:?}"
    );
}

#[test]
fn slow_converging_corner_stays_bounded_by_stitchfree() {
    // Short sequences at tiny batch put hundreds of near-identical sizes in
    // a narrow band; exact-match convergence is slow there. StitchFree must
    // keep the sPool bounded regardless.
    let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LRO)
        .with_seq_len(512)
        .with_batch(4)
        .with_iterations(6);
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let driver = CudaDriver::new(DeviceConfig::a100_80g());
    let mut lake = GmLakeAllocator::new(
        driver.clone(),
        GmLakeConfig::default().with_max_sblocks(256),
    );
    for _ in 0..3 {
        let r = Replayer::new(driver.clone()).replay(&mut lake, &trace, &cfg);
        assert!(r.outcome.is_completed());
        lake.validate().unwrap();
        // Eviction can only reclaim fully-inactive structures, so the pool
        // may overshoot the cap by the busy/part-active fraction — but it
        // must stay within a small multiple of the cap, not grow without
        // bound (6 iterations x 3 replays would otherwise stack thousands).
        assert!(
            lake.sblock_count() <= 2 * 256,
            "sPool exceeded cap: {}",
            lake.sblock_count()
        );
    }
    assert!(lake.state_counters().evictions > 0, "StitchFree engaged");
    // Fragmentation stays controlled even without full convergence.
    let s = lake.stats();
    assert!(s.utilization() > 0.85, "utilization {:.3}", s.utilization());
}
