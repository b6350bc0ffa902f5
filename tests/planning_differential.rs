//! Trace-replay differential harness for the STAlloc-style `PlannedCore`
//! (record → plan → serve) against its bare fallback core as the oracle,
//! over both fallbacks: plan + GMLake against bare `GmLakeAllocator`, and
//! plan + caching (STAlloc's own shape) against bare `CachingAllocator`.
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
//! fits the planned capacity, and plans replay deterministically.

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

/// A residue fallback under test: the core bare on a device, and its own
/// invariant check (`PlannedCore::validate` covers the plan side only).
trait Fallback: AllocatorCore + Send + 'static {
    fn bare(driver: CudaDriver) -> Self;
    fn check(&self) -> Result<(), String>;
}

impl Fallback for GmLakeAllocator {
    fn bare(driver: CudaDriver) -> Self {
        GmLakeAllocator::new(driver, GmLakeConfig::default())
    }

    fn check(&self) -> Result<(), String> {
        self.validate()
    }
}

impl Fallback for CachingAllocator {
    fn bare(driver: CudaDriver) -> Self {
        CachingAllocator::new(driver)
    }

    fn check(&self) -> Result<(), String> {
        self.validate()
    }
}

fn planned_core<C: Fallback>(capacity: u64) -> (PlannedCore<C>, CudaDriver) {
    let driver = CudaDriver::new(DeviceConfig::a100_80g().with_capacity(capacity));
    let fallback = C::bare(driver.clone());
    let core = PlannedCore::with_fallback(driver.clone(), fallback);
    (core, driver)
}

fn oracle_core<C: Fallback>(capacity: u64) -> (C, CudaDriver) {
    let driver = CudaDriver::new(DeviceConfig::a100_80g().with_capacity(capacity));
    (C::bare(driver.clone()), driver)
}

/// Both sides of a planned core: the plan, then its fallback.
fn validate<C: Fallback>(planned: &PlannedCore<C>) -> Result<(), String> {
    planned.validate()?;
    planned.fallback().check()
}

/// Per-op outcome agreement + bit-exact quiescent `MemStats` + planned
/// peak-reserved ≤ oracle, over every corpus trace.
#[test]
fn planned_matches_oracle_over_steady_state_corpus() {
    steady_state_corpus::<GmLakeAllocator>();
}

#[test]
fn planned_over_caching_matches_bare_caching_over_steady_state_corpus() {
    steady_state_corpus::<CachingAllocator>();
}

fn steady_state_corpus<C: Fallback>() {
    for (label, cfg) in corpus() {
        let trace = TraceGenerator::new(cfg).generate();
        trace.validate().unwrap_or_else(|e| panic!("{label}: {e}"));

        let (mut planned, planned_driver) = planned_core::<C>(gib(80));
        let (mut oracle, oracle_driver) = oracle_core::<C>(gib(80));
        let report = lockstep_replay(&trace, &mut planned, &mut oracle, false);
        assert_eq!(report.subject_wins, 0, "{label}: ample capacity, no OOM");
        assert_eq!(report.agreed_ooms, 0, "{label}: ample capacity, no OOM");

        validate(&planned).unwrap_or_else(|e| panic!("{label}: {e}"));

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
    oom_edge::<GmLakeAllocator>();
}

#[test]
fn planned_over_caching_is_never_worse_than_bare_caching_at_the_oom_edge() {
    oom_edge::<CachingAllocator>();
}

fn oom_edge<C: Fallback>() {
    let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR)
        .with_seq_len(256)
        .with_batch(2)
        .with_iterations(4);
    let trace = TraceGenerator::new(cfg.clone()).generate();

    // Probe the reactive peak on an unconstrained device, then squeeze.
    let (mut probe, _d) = oracle_core::<C>(gib(80));
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
    let (mut planned, planned_driver) = planned_core::<C>(squeeze);
    let planned_report = Replayer::new(planned_driver.clone())
        .with_options(opts.clone())
        .replay(&mut planned, &trace, &cfg);
    let (mut oracle, oracle_driver) = oracle_core::<C>(squeeze);
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
    validate(&planned).unwrap();
    oracle.check().unwrap();
    assert!(planned.fault_journal_stats().is_leak_free());
}

/// The planned core is a drop-in `AllocatorCore`: behind the sharded
/// `DeviceAllocator` front-end and the `PoolService` runtime, unchanged.
#[test]
fn planned_core_plugs_into_device_allocator_and_pool_service() {
    let (core, _driver) = planned_core::<GmLakeAllocator>(gib(4));
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
    deterministic_replay::<GmLakeAllocator>();
}

#[test]
fn plan_over_caching_replay_is_deterministic_across_runs() {
    deterministic_replay::<CachingAllocator>();
}

fn deterministic_replay<C: Fallback>() {
    let cfg = TrainConfig::new(ModelSpec::gpt2(), StrategySet::LR)
        .with_seq_len(128)
        .with_batch(1)
        .with_iterations(3);
    let trace = TraceGenerator::new(cfg.clone()).generate();

    let mut plans = Vec::new();
    let mut stats = Vec::new();
    for _ in 0..2 {
        let (mut planned, driver) = planned_core::<C>(gib(80));
        let _ = Replayer::new(driver)
            .with_options(ReplayOptions::default())
            .replay(&mut planned, &trace, &cfg);
        plans.push(planned.plan().expect("plan installed"));
        stats.push((planned.stats(), planned.counters()));
    }
    assert_eq!(plans[0], plans[1], "plans diverged across identical runs");
    assert_eq!(stats[0], stats[1], "stats diverged across identical runs");
}

/// The plan of the benchmark's `train_lr` trace, pinned: OPT-13B
/// LoRA+recompute on one stream at the workload crate's default trace
/// seed, recorded through a planned core over GMLake. Its capacity is the
/// benchmark's `planning.arena_bytes` on `train_lr_planned`. Any change to
/// placement moves the capacity or the hash of every slot's `(offset,
/// size, alloc_tick, stream)` in slot order.
#[test]
fn opt13b_lora_plan_is_pinned() {
    let cfg = TrainConfig::new(ModelSpec::opt_13b(), StrategySet::LR)
        .with_iterations(2)
        .with_seed(0x6d_6c61_6b65);
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let (mut planned, driver) = planned_core::<GmLakeAllocator>(gib(80));
    let _ = Replayer::new(driver).replay(&mut planned, &trace, &cfg);
    let plan = planned.plan().expect("plan installed");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for s in &plan.slots {
        for word in [s.offset, s.size, s.alloc_tick, u64::from(s.stream)] {
            for b in word.to_le_bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    assert_eq!(
        (plan.slots.len(), plan.capacity, hash),
        (3_700, 9_510_802_101, 6_535_105_776_476_160_759)
    );
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
        prop_assert!(plan.capacity <= plan.slots.iter().map(|s| s.size).sum());
        let again = MemoryPlan::build(&intervals);
        prop_assert_eq!(plan, again, "planner is not deterministic");
    }
}

/// A plan slot freed from a stream other than the one it was recorded for
/// waits that stream out on the host: the plan may hand the range to any
/// stream next. A same-stream free waits for nothing.
#[test]
fn cross_stream_free_of_a_plan_slot_waits_on_the_host() {
    let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    let mut core = PlannedCore::new(driver.clone(), PlannedConfig::default());
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
    validate(&core).unwrap();
}

/// A streamless residue request reaches the fallback streamless, so a block
/// another stream freed is waited out on the host: a wait queued on the
/// default stream would not order the stream a front-end refills for.
#[test]
fn streamless_residue_waits_out_a_cross_stream_free_on_the_host() {
    let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    let mut core = PlannedCore::new(driver.clone(), PlannedConfig::default());
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
    validate(&core).unwrap();
}
