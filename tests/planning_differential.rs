//! Trace-replay differential harness for the STAlloc-style `PlannedCore`
//! (record → plan → serve) against the reactive `GmLakeAllocator` oracle.
//!
//! The planned core must be *transparent*: over the existing trace corpus
//! (fig05-style model × strategy configs, multi-stream, OOM-edge) every
//! per-op outcome must agree with the oracle's, the caller-visible
//! `MemStats` must reconcile bit-exactly at quiescence, and on
//! steady-state traces the plan must never reserve more than the reactive
//! core did (that is the point of planning: the arena is sized to the
//! measured transient peak, not to reactive stitching decisions).
//!
//! Proptests pin the planner invariants independently of any workload:
//! no two placements overlap in `(space × time)`, every `offset + size`
//! fits the planned capacity, plans replay deterministically, and the
//! `gmlake-plan/v1` JSON round-trips placements identically (the recorder
//! round-trip satellite).

use proptest::prelude::*;

use gmlake::prelude::*;
use gmlake_core::GmLakeConfig;
use gmlake_planning::{LifetimeInterval, MemoryPlan, PlannedConfig, PlannedCore};
use gmlake_workload::{ReplayOptions, Replayer, TraceGenerator};

mod common;
use common::lockstep_replay;

/// The fig05-style steady-state corpus: small enough for debug builds,
/// real enough to exercise every event class the generator emits
/// (activations, gather buckets, workspace churn, optimizer bursts).
fn corpus() -> Vec<(&'static str, TrainConfig)> {
    vec![
        (
            "opt-1.3b/LR",
            TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR)
                .with_seq_len(256)
                .with_batch(2)
                .with_iterations(5),
        ),
        (
            "gpt2/LRO",
            TrainConfig::new(ModelSpec::gpt2(), StrategySet::LRO)
                .with_seq_len(256)
                .with_batch(2)
                .with_iterations(5),
        ),
        (
            "opt-1.3b/RO/2-streams",
            TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::RO)
                .with_seq_len(128)
                .with_batch(2)
                .with_iterations(5)
                .with_streams(2),
        ),
    ]
}

fn planned_core(capacity: u64) -> (PlannedCore, CudaDriver) {
    let driver = CudaDriver::new(DeviceConfig::a100_80g().with_capacity(capacity));
    let core = PlannedCore::new(
        driver.clone(),
        PlannedConfig {
            gmlake: GmLakeConfig::default(),
            ..PlannedConfig::default()
        },
    );
    (core, driver)
}

fn oracle_core(capacity: u64) -> (GmLakeAllocator, CudaDriver) {
    let driver = CudaDriver::new(DeviceConfig::a100_80g().with_capacity(capacity));
    let core = GmLakeAllocator::new(driver.clone(), GmLakeConfig::default());
    (core, driver)
}

/// Per-op outcome agreement + bit-exact quiescent `MemStats` + planned
/// peak-reserved ≤ oracle, over every corpus trace.
#[test]
fn planned_matches_oracle_over_steady_state_corpus() {
    for (label, cfg) in corpus() {
        let trace = TraceGenerator::new(cfg).generate();
        trace.validate().unwrap_or_else(|e| panic!("{label}: {e}"));

        let (mut planned, planned_driver) = planned_core(gib(80));
        let (mut oracle, oracle_driver) = oracle_core(gib(80));
        let report = lockstep_replay(&trace, &mut planned, &mut oracle, false);
        assert_eq!(report.subject_wins, 0, "{label}: ample capacity, no OOM");
        assert_eq!(report.agreed_ooms, 0, "{label}: ample capacity, no OOM");

        planned
            .validate()
            .unwrap_or_else(|e| panic!("{label}: {e}"));

        // The plan must actually have carried the steady state: after the
        // warm-up iteration, ≥ 95% of alloc traffic is served in O(1).
        let counters = planned.counters();
        assert!(counters.plans_built >= 1, "{label}: no plan installed");
        assert!(
            counters.hit_rate() >= 0.95,
            "{label}: plan hit rate {:.3} below 0.95 ({counters:?})",
            counters.hit_rate()
        );
        // Periodic traffic replays in recorded order, so no front slot
        // ever finds its range still occupied.
        assert_eq!(counters.space_blocked, 0, "{label}: {counters:?}");

        // Planning must never cost memory: peak reserved ≤ reactive.
        assert!(
            report.subject_peak_reserved <= report.oracle_peak_reserved,
            "{label}: planned peak {} > oracle peak {}",
            report.subject_peak_reserved,
            report.oracle_peak_reserved
        );

        // Quiescence: both sides surrender their caches (and the planned
        // side its arena); every caller-visible counter reconciles
        // bit-exactly and both simulated devices are fully released.
        planned.release_cached();
        oracle.release_cached();
        let p = planned.stats();
        let o = oracle.stats();
        assert_eq!(p.active_bytes, 0, "{label}");
        assert_eq!(p.active_bytes, o.active_bytes, "{label}: active");
        assert_eq!(p.reserved_bytes, o.reserved_bytes, "{label}: reserved");
        assert_eq!(p.alloc_count, o.alloc_count, "{label}: allocs");
        assert_eq!(p.free_count, o.free_count, "{label}: frees");
        assert_eq!(p.oom_count, o.oom_count, "{label}: ooms");
        assert_eq!(
            p.requested_bytes_total, o.requested_bytes_total,
            "{label}: requested"
        );
        assert_eq!(planned_driver.phys_in_use(), 0, "{label}: planned device");
        assert_eq!(oracle_driver.phys_in_use(), 0, "{label}: oracle device");
        assert!(planned.fault_journal_stats().is_leak_free(), "{label}");
    }
}

/// OOM-edge: on a device sized to ~90% of the workload's reactive peak,
/// the planned core must never fail an allocation the oracle served —
/// planning may only *reduce* OOM pressure — and both sides must survive
/// skip-on-OOM replay with clean invariants.
#[test]
fn planned_is_never_worse_than_oracle_at_the_oom_edge() {
    let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR)
        .with_seq_len(256)
        .with_batch(2)
        .with_iterations(4);
    let trace = TraceGenerator::new(cfg.clone()).generate();

    // Probe the reactive peak on an unconstrained device, then squeeze.
    let (mut probe, _d) = oracle_core(gib(80));
    let probe_report = Replayer::new(_d.clone())
        .with_options(ReplayOptions {
            stop_on_oom: false,
            ..ReplayOptions::default()
        })
        .replay(&mut probe, &trace, &cfg);
    drop(probe);
    let squeeze = probe_report.peak_reserved * 9 / 10;

    let opts = ReplayOptions {
        stop_on_oom: false,
        ..ReplayOptions::default()
    };
    let (mut planned, planned_driver) = planned_core(squeeze);
    let planned_report = Replayer::new(planned_driver.clone())
        .with_options(opts.clone())
        .replay(&mut planned, &trace, &cfg);
    let (mut oracle, oracle_driver) = oracle_core(squeeze);
    let oracle_report = Replayer::new(oracle_driver.clone())
        .with_options(opts)
        .replay(&mut oracle, &trace, &cfg);

    assert!(
        planned_report.skipped_allocs <= oracle_report.skipped_allocs,
        "planned skipped {} allocs, oracle only {}",
        planned_report.skipped_allocs,
        oracle_report.skipped_allocs
    );
    assert!(planned_report.peak_reserved <= squeeze);
    planned.validate().unwrap();
    oracle.validate().unwrap();
    assert!(planned.fault_journal_stats().is_leak_free());
}

/// The planned core is a drop-in `AllocatorCore`: behind the sharded
/// `DeviceAllocator` front-end and the `PoolService` runtime, unchanged.
#[test]
fn planned_core_plugs_into_device_allocator_and_pool_service() {
    let (core, _driver) = planned_core(gib(4));
    let service = PoolService::new();
    service.register(DeviceId(0), Box::new(core)).unwrap();
    let pool = service.handle(DeviceId(0)).unwrap();

    // Two "iterations" of mixed small/large traffic through every layer.
    for _ in 0..2 {
        let mut live = Vec::new();
        for i in 0..24u64 {
            let size = if i % 3 == 0 {
                mib(4)
            } else {
                kib(64) + i * 256
            };
            let a = pool
                .alloc_on_stream(AllocRequest::new(size), StreamId((i % 2) as u32))
                .unwrap();
            assert!(a.size >= size);
            live.push((a.id, StreamId((i % 2) as u32)));
        }
        for (id, stream) in live {
            pool.free_on_stream(id, stream).unwrap();
        }
        pool.iteration_boundary();
    }
    let stats = pool.stats();
    assert_eq!(stats.active_bytes, 0);
    assert_eq!(stats.alloc_count, stats.free_count);
}

/// Plan replay is deterministic end to end: two fresh planned cores fed
/// the same trace install byte-identical plans and report identical
/// counters and stats.
#[test]
fn plan_replay_is_deterministic_across_runs() {
    let cfg = TrainConfig::new(ModelSpec::gpt2(), StrategySet::LR)
        .with_seq_len(128)
        .with_batch(1)
        .with_iterations(3);
    let trace = TraceGenerator::new(cfg.clone()).generate();

    let mut plans = Vec::new();
    let mut stats = Vec::new();
    for _ in 0..2 {
        let (mut planned, driver) = planned_core(gib(80));
        let _ = Replayer::new(driver)
            .with_options(ReplayOptions::default())
            .replay(&mut planned, &trace, &cfg);
        plans.push(planned.plan().expect("plan installed"));
        stats.push((planned.stats(), planned.counters()));
    }
    assert_eq!(plans[0], plans[1], "plans diverged across identical runs");
    assert_eq!(stats[0], stats[1], "stats diverged across identical runs");
}

// ---------------------------------------------------------------------------
// Planner invariant proptests
// ---------------------------------------------------------------------------

/// Random lifetime programs: tuples of (start, duration, size, stream)
/// with sizes crossing the 2 MiB granularity boundary.
fn intervals_strategy() -> impl Strategy<Value = Vec<LifetimeInterval>> {
    prop::collection::vec(
        ((0u64..400), (1u64..120), (1u64..(4 << 20)), (0u32..3)),
        1..60,
    )
    .prop_map(|tuples| {
        tuples
            .into_iter()
            .map(|(start, dur, size, stream)| LifetimeInterval {
                alloc_tick: start,
                free_tick: start + dur,
                size,
                stream,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Planner invariants: placements never overlap in space × time,
    /// every slot fits the planned capacity, capacity never exceeds the
    /// sum of sizes (packing can only share, not pad), and planning the
    /// same intervals twice yields the identical plan.
    #[test]
    fn planner_invariants_hold_on_random_interval_programs(
        intervals in intervals_strategy()
    ) {
        let plan = MemoryPlan::build(&intervals);
        prop_assert!(plan.validate().is_ok(), "{:?}", plan.validate());
        prop_assert_eq!(plan.slots.len(), intervals.len());
        for s in &plan.slots {
            prop_assert!(s.offset + s.size <= plan.capacity);
        }
        prop_assert!(plan.capacity <= plan.total_slot_bytes());
        let again = MemoryPlan::build(&intervals);
        prop_assert_eq!(plan, again, "planner is not deterministic");
    }

    /// Recorder round-trip (the profiler's export format): drive a random
    /// alloc/free program through a recording `PlannedCore`, install the
    /// plan, serialize to `gmlake-plan/v1` JSON, parse it back — the
    /// placements must be identical.
    #[test]
    fn recorded_plan_round_trips_through_json(
        ops in prop::collection::vec(((1u64..(1 << 20)), (0u32..2), any::<bool>()), 8..40)
    ) {
        let (mut core, _driver) = planned_core(gib(4));
        let mut live: Vec<AllocationId> = Vec::new();
        for (size, stream, free_first) in ops {
            if free_first && !live.is_empty() {
                let id = live.swap_remove(size as usize % live.len());
                core.free_on_stream(id, StreamId(stream)).unwrap();
            }
            let a = core
                .alloc_on_stream(AllocRequest::new(size), StreamId(stream))
                .unwrap();
            live.push(a.id);
        }
        for id in live.drain(..) {
            core.deallocate(id).unwrap();
        }
        core.iteration_boundary();
        let plan = core.plan().expect("every op pair was transient");
        plan.validate().unwrap();
        let json = plan.to_json();
        let back = MemoryPlan::from_json(&json).unwrap();
        prop_assert_eq!(plan, back, "JSON round-trip changed the plan");
        core.validate().unwrap();
    }
}

/// A plan slot freed from a stream other than the one it was recorded for
/// waits that stream out on the host: the plan may hand the range to any
/// stream next. A same-stream free waits for nothing.
#[test]
fn cross_stream_free_of_a_plan_slot_waits_on_the_host() {
    let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    let mut core = PlannedCore::with_defaults(driver.clone());
    let (s0, s1) = (StreamId(0), StreamId(1));
    for size in [mib(4), mib(6), mib(8), mib(2)] {
        let a = core.alloc_on_stream(AllocRequest::new(size), s1).unwrap();
        core.free_on_stream(a.id, s1).unwrap();
    }
    core.iteration_boundary();
    assert!(core.is_serving());
    let a = core.alloc_on_stream(AllocRequest::new(mib(4)), s1).unwrap();
    driver.stream_launch(s0, 1_000_000);
    core.free_on_stream(a.id, s0).unwrap();
    assert_eq!(driver.stats().event_sync.calls, 1);
    assert!(driver.now_ns() >= driver.stream_frontier_ns(s0));
    let b = core.alloc_on_stream(AllocRequest::new(mib(6)), s1).unwrap();
    driver.stream_launch(s1, 1_000_000);
    core.free_on_stream(b.id, s1).unwrap();
    assert_eq!(driver.stats().event_sync.calls, 1, "same stream: no wait");
    assert_eq!(core.counters().plan_hits, 2, "both came from the plan");
    core.validate().unwrap();
}

/// A streamless residue request reaches the fallback streamless, so a block
/// another stream freed is waited out on the host: a wait queued on the
/// default stream would not order the stream a front-end refills for.
#[test]
fn streamless_residue_waits_out_a_cross_stream_free_on_the_host() {
    let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    let mut core = PlannedCore::with_defaults(driver.clone());
    let (s0, s1) = (StreamId(0), StreamId(1));
    let a = core.alloc_on_stream(AllocRequest::new(mib(4)), s1).unwrap();
    driver.stream_launch(s0, 1_000_000);
    core.free_on_stream(a.id, s0).unwrap();
    let busy_until = driver.stream_frontier_ns(s0);
    let b = core.allocate(AllocRequest::new(mib(4))).unwrap();
    assert_eq!(b.va, a.va, "the fallback reused the freed block");
    let st = driver.stats();
    assert_eq!((st.event_wait.calls, st.event_sync.calls), (0, 1));
    assert!(driver.now_ns() >= busy_until);
    core.deallocate(b.id).unwrap();
    core.validate().unwrap();
}
