//! Chaos replay: the fine-tuning trace corpus under seeded driver-fault
//! schedules (see `docs/fault-model.md`).
//!
//! Every driver entry point is failed at several deterministic points in
//! the trace, and the probabilistic soak mode sprays transient faults over
//! a longer run. After every schedule the allocator must hold the
//! acceptance invariants: no panic, `validate()` clean, the fault journal
//! free of leaked reservations/handles, no outstanding events, and the
//! allocator's `MemStats` reconciled against the simulated device.

use gmlake::prelude::*;
use gmlake_core::GmLakeConfig;
use gmlake_workload::{ReplayOptions, TraceGenerator};

/// A small-but-real fine-tuning workload that runs fast in debug builds.
fn small_workload() -> TrainConfig {
    TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR)
        .with_seq_len(256)
        .with_batch(2)
        .with_iterations(3)
}

/// Replay options for fault runs: never stop, count skips and faults.
fn chaos_options() -> ReplayOptions {
    ReplayOptions {
        stop_on_oom: false,
        skip_on_fault: true,
        ..ReplayOptions::default()
    }
}

/// A GMLake core that re-checks `validate()` — index placement, both view
/// indexes and the parked lists against availability re-derived by scanning
/// — straight after every call during which the driver injected a fault, so
/// a faulted stitch / split / destroy that left an index or a link behind
/// fails at the fault instead of (maybe) at the end of the trace.
struct ValidatedLake {
    lake: GmLakeAllocator,
    driver: CudaDriver,
    faults_seen: u64,
}

impl ValidatedLake {
    fn new(driver: &CudaDriver, config: GmLakeConfig) -> Self {
        ValidatedLake {
            lake: GmLakeAllocator::new(driver.clone(), config),
            driver: driver.clone(),
            faults_seen: 0,
        }
    }

    fn checked<R>(&mut self, call: impl FnOnce(&mut GmLakeAllocator) -> R) -> R {
        let result = call(&mut self.lake);
        let injected = self.driver.stats().injected_faults;
        if injected != self.faults_seen {
            self.faults_seen = injected;
            self.lake
                .validate()
                .unwrap_or_else(|e| panic!("after injected fault #{injected}: {e}"));
        }
        result
    }
}

impl AllocatorCore for ValidatedLake {
    fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
        self.checked(|lake| lake.allocate(req))
    }

    fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
        self.checked(|lake| lake.deallocate(id))
    }

    fn alloc_on_stream(
        &mut self,
        req: AllocRequest,
        stream: StreamId,
    ) -> Result<Allocation, AllocError> {
        self.checked(|lake| lake.alloc_on_stream(req, stream))
    }

    fn free_on_stream(&mut self, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
        self.checked(|lake| lake.free_on_stream(id, stream))
    }

    fn stats(&self) -> MemStats {
        self.lake.stats()
    }

    fn name(&self) -> &'static str {
        self.lake.name()
    }

    fn iteration_boundary(&mut self) {
        self.lake.iteration_boundary()
    }

    fn release_cached(&mut self) -> u64 {
        self.checked(|lake| lake.release_cached())
    }

    fn compact(&mut self) -> u64 {
        self.checked(|lake| lake.compact())
    }

    fn fault_journal_stats(&self) -> gmlake_alloc_api::FaultJournalStats {
        self.lake.fault_journal_stats()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(&mut self.lake)
    }
}

/// Runs `trace` on a fresh GMLake allocator with `plan` installed from the
/// first event, then checks every invariant the fault model promises.
fn run_schedule(plan: FaultPlan, label: &str) {
    let cfg = small_workload();
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let driver = CudaDriver::new(DeviceConfig::a100_80g());
    let mut checked = ValidatedLake::new(&driver, GmLakeConfig::default());
    driver.set_fault_plan(plan);

    let report = Replayer::new(driver.clone())
        .with_options(chaos_options())
        .replay(&mut checked, &trace, &cfg);
    let mut lake = checked.lake;

    // The device actually injected under this schedule (otherwise the
    // schedule tests nothing).
    let injected = driver.stats().injected_faults;
    assert!(injected > 0, "{label}: schedule never fired");
    assert!(report.outcome.is_completed(), "{label}: replay stopped");

    // Internal invariants hold with the plan still armed...
    lake.validate().unwrap_or_else(|e| panic!("{label}: {e}"));

    // ...and the pool reconciles fully once faults stop. A transient
    // schedule is consumed by now, but clear it so teardown can't re-fire.
    driver.clear_fault_plan();
    let journal = lake.fault_journal();
    assert_eq!(
        lake.stats().active_bytes,
        0,
        "{label}: live bytes survived the drain"
    );
    assert_eq!(
        driver.outstanding_events(),
        0,
        "{label}: leaked driver events"
    );
    lake.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
    if journal.orphan_chunks == 0 {
        assert_eq!(
            lake.stats().reserved_bytes,
            driver.phys_in_use(),
            "{label}: MemStats out of sync with the device"
        );
    } else {
        // Orphaned physical chunks stay charged to the device but are no
        // longer the pool's to report.
        assert!(
            driver.phys_in_use() >= lake.stats().reserved_bytes,
            "{label}: pool reports more than the device holds"
        );
    }
    // Releasing the cache must also survive (faults are off now).
    lake.release_cached();
    lake.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
}

/// Single transient fault at each driver entry point, early and mid-trace.
/// Creation-path and rollback-capable teardown ops must come out leak-free;
/// an `mem_address_free` fault past a commit point is allowed to orphan
/// exactly one VA reservation (journaled, never silent).
#[test]
fn deterministic_single_fault_schedules_preserve_invariants() {
    for op in FaultOp::ALL {
        for nth in [1u64, 5] {
            let label = format!("fail_nth({op:?}, {nth})");
            let cfg = small_workload();
            let trace = TraceGenerator::new(cfg.clone()).generate();
            let driver = CudaDriver::new(DeviceConfig::a100_80g());
            let mut checked = ValidatedLake::new(&driver, GmLakeConfig::default());
            driver.set_fault_plan(FaultPlan::new().fail_nth(op, nth));

            let report = Replayer::new(driver.clone())
                .with_options(chaos_options())
                .replay(&mut checked, &trace, &cfg);
            let lake = checked.lake;

            if driver.stats().injected_faults == 0 {
                // This op is never the nth call in this trace (e.g. the
                // native mem_alloc path is off GMLake's large path);
                // nothing to check beyond a clean run.
                assert!(report.outcome.is_completed(), "{label}");
                lake.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
                continue;
            }

            assert!(report.outcome.is_completed(), "{label}: replay stopped");
            lake.validate().unwrap_or_else(|e| panic!("{label}: {e}"));

            driver.clear_fault_plan();
            let journal = lake.fault_journal();
            if op == FaultOp::AddressFree {
                assert!(
                    journal.orphan_vas <= 1 && journal.orphan_chunks == 0,
                    "{label}: {journal:?}"
                );
            } else {
                assert!(
                    journal.is_leak_free(),
                    "{label}: single transient fault leaked: {journal:?}"
                );
            }
            assert_eq!(lake.stats().active_bytes, 0, "{label}: live bytes leaked");
            assert_eq!(driver.outstanding_events(), 0, "{label}: leaked events");
            if journal.orphan_vas == 0 && journal.orphan_chunks == 0 {
                assert_eq!(
                    lake.stats().reserved_bytes,
                    driver.phys_in_use(),
                    "{label}: MemStats out of sync with the device"
                );
            }
        }
    }
}

/// Back-to-back transient faults on the stitch-critical map path.
#[test]
fn repeated_map_faults_recover() {
    run_schedule(
        FaultPlan::new()
            .fail_nth(FaultOp::Map, 1)
            .fail_nth(FaultOp::Map, 2)
            .fail_nth(FaultOp::Map, 7),
        "map burst",
    );
}

/// A persistent window (every map call from the 3rd on fails for the rest
/// of the armed plan) forces the degraded paths while it lasts.
#[test]
fn persistent_map_fault_window_degrades_without_leaking() {
    let cfg = small_workload();
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let driver = CudaDriver::new(DeviceConfig::a100_80g());
    let mut lake = ValidatedLake::new(&driver, GmLakeConfig::default());
    driver.set_fault_plan(FaultPlan::new().fail_from(FaultOp::Map, 3));

    let report = Replayer::new(driver.clone())
        .with_options(chaos_options())
        .replay(&mut lake, &trace, &cfg);
    assert!(driver.stats().injected_faults > 0);
    assert!(report.outcome.is_completed());
    assert!(report.faulted_allocs > 0, "persistent faults must surface");
    lake.lake.validate().unwrap();

    // Once the fault clears, the pool serves the same workload again.
    driver.clear_fault_plan();
    let report = Replayer::new(driver.clone())
        .with_options(chaos_options())
        .replay(&mut lake, &trace, &cfg);
    assert!(report.outcome.is_completed());
    assert_eq!(report.faulted_allocs, 0, "recovered run is fault-free");
    lake.lake.validate().unwrap();
    assert_eq!(lake.stats().active_bytes, 0);
}

/// Probabilistic soak: a seeded 1-in-250 fault rate across every driver
/// entry point over a longer run. Deterministic for a fixed seed.
#[test]
fn probabilistic_soak_is_stable() {
    let cfg = small_workload().with_iterations(5);
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let driver = CudaDriver::new(DeviceConfig::a100_80g());
    let mut checked = ValidatedLake::new(&driver, GmLakeConfig::default());
    driver.set_fault_plan(FaultPlan::new().with_probabilistic(0xC0FFEE, 250));

    let report = Replayer::new(driver.clone())
        .with_options(chaos_options())
        .replay(&mut checked, &trace, &cfg);
    let mut lake = checked.lake;

    let injected = driver.stats().injected_faults;
    assert!(injected > 0, "soak never injected");
    assert!(report.outcome.is_completed());
    lake.validate().unwrap();

    driver.clear_fault_plan();
    let journal = lake.fault_journal();
    // Orphans need a fault *inside* a compensation sequence — rare even at
    // this rate — and every one must be journaled, never silent.
    assert!(
        journal.orphan_vas + journal.orphan_chunks <= injected,
        "journal claims more orphans than faults: {journal:?}"
    );
    assert_eq!(lake.stats().active_bytes, 0, "soak leaked live bytes");
    assert_eq!(driver.outstanding_events(), 0);
    lake.release_cached();
    lake.validate().unwrap();
}

/// The full stack under soak: a `PoolService` pool (bounded retry +
/// staged rescue) rides out a transient fault rate the raw core would
/// surface, with telemetry counting what the service absorbed.
#[test]
fn pool_service_soak_absorbs_transient_faults() {
    let cfg = small_workload().with_iterations(4);
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let driver = CudaDriver::new(DeviceConfig::a100_80g());
    let service = PoolService::new();
    let pool = service
        .register(
            DeviceId(0),
            Box::new(ValidatedLake::new(&driver, GmLakeConfig::default())),
        )
        .unwrap();
    driver.set_fault_plan(FaultPlan::new().with_probabilistic(0x5EED, 400));

    let mut front = pool.clone();
    let report = Replayer::new(driver.clone())
        .with_options(chaos_options())
        .replay(&mut front, &trace, &cfg);

    assert!(driver.stats().injected_faults > 0, "soak never injected");
    assert!(report.outcome.is_completed());

    driver.clear_fault_plan();
    let fault_stats = pool.fault_stats();
    // Allocation-path faults are retried by the service, so the replayer
    // saw at most the free-path ones.
    assert!(
        fault_stats.retries >= fault_stats.faults.saturating_sub(report.faulted_allocs),
        "service under-retried: {fault_stats:?}"
    );
    pool.release_cached();
    assert_eq!(pool.stats().active_bytes, 0);
    pool.with_allocator(|core| {
        let lake = core
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<GmLakeAllocator>())
            .expect("gmlake core");
        lake.validate().unwrap();
        let journal = lake.fault_journal();
        assert!(
            journal.orphan_vas + journal.orphan_chunks <= driver.stats().injected_faults,
            "{journal:?}"
        );
    });
}

/// A `MemMap` fault landing *inside a stream-affine core-path stitch*: a
/// large request on a multi-stream front-end goes straight to the core as
/// `alloc_on_stream`, and the stitch the core commits under its lock
/// faults on its map call. The rollback doctrine must hold exactly as it
/// does on the bare core: the fault surfaces as `AllocError::DriverFault`,
/// the compensating unwind leaves the core valid and leak-free, the
/// front-end counts no ghost allocation, and the same request succeeds
/// once the fault clears.
#[test]
fn memmap_fault_inside_stream_affine_large_stitch_rolls_back() {
    use gmlake_alloc_api::DeviceAllocatorConfig;
    let driver = CudaDriver::new(DeviceConfig::a100_80g());
    let lake = ValidatedLake::new(&driver, GmLakeConfig::default().with_frag_limit(mib(2)));
    let pool = DeviceAllocator::try_build(
        Box::new(lake),
        DeviceAllocatorConfig::default().with_streams(4),
        Some(std::sync::Arc::new(driver.clone())),
        None,
    )
    .unwrap();
    // Prime a 4 + 6 MiB inactive pair: large frees reach the core
    // directly, so a 10 MiB request classifies S3 and the commit under
    // the core lock is a real stitch.
    let a = pool
        .alloc_on_stream(AllocRequest::new(mib(4)), StreamId(1))
        .unwrap();
    let b = pool
        .alloc_on_stream(AllocRequest::new(mib(6)), StreamId(1))
        .unwrap();
    pool.free_on_stream(a.id, StreamId(1)).unwrap();
    pool.free_on_stream(b.id, StreamId(1)).unwrap();
    assert_eq!(pool.cache_stats().cached_blocks, 0, "nothing parked above");
    let stats_before = pool.stats();

    // Arm: the next map call is the stitch's, inside the commit.
    driver.set_fault_plan(FaultPlan::new().fail_nth(FaultOp::Map, 1));
    let err = pool
        .alloc_on_stream(AllocRequest::new(mib(10)), StreamId(2))
        .unwrap_err();
    assert!(
        matches!(err, AllocError::DriverFault { .. }),
        "commit fault must surface with its source chain, got {err:?}"
    );
    assert!(driver.stats().injected_faults > 0, "schedule never fired");

    // Rollback doctrine: core valid + leak-free, no ghost allocation.
    driver.clear_fault_plan();
    pool.with_core_as::<GmLakeAllocator, _>(|lake| {
        lake.validate().unwrap();
        let journal = lake.fault_journal();
        assert!(journal.is_leak_free(), "commit unwind leaked: {journal:?}");
        assert_eq!(journal.failed_ops, 1, "exactly the faulted stitch");
    })
    .expect("gmlake core");
    let s = pool.stats();
    assert_eq!(s.active_bytes, stats_before.active_bytes, "no ghost bytes");
    assert_eq!(
        s.alloc_count, stats_before.alloc_count,
        "failed alloc uncounted"
    );

    // Same request, fault cleared: the stitch commits and reconciles.
    let c = pool
        .alloc_on_stream(AllocRequest::new(mib(10)), StreamId(2))
        .unwrap();
    assert_eq!(c.size, mib(10));
    pool.free_on_stream(c.id, StreamId(2)).unwrap();
    pool.with_core_as::<GmLakeAllocator, _>(|lake| lake.validate().unwrap())
        .expect("gmlake core");
    assert_eq!(pool.stats().active_bytes, 0);
    assert_eq!(driver.outstanding_events(), 0, "leaked driver events");
}

/// A `MemMap` fault inside a **residue stitch under `PlannedCore`**: the
/// planned core routes an unplanned 10 MiB request to its GMLake
/// fallback, whose stitch commit faults at map time. The fault must
/// surface as `AllocError::DriverFault`, the plan tables (slots, queues,
/// live set) must be untouched — including a plan-served allocation held
/// live across the fault — and the rollback doctrine holds: `validate()`
/// clean, fault journal leak-free, and the same request succeeds once the
/// fault clears.
#[test]
fn memmap_fault_inside_planned_residue_stitch_rolls_back() {
    let driver = CudaDriver::new(DeviceConfig::a100_80g());
    let fallback = GmLakeAllocator::new(
        driver.clone(),
        GmLakeConfig::default().with_frag_limit(mib(2)),
    );
    let mut core = PlannedCore::with_fallback(driver.clone(), fallback);

    // Record one synthetic iteration of 1 MiB transients, then install
    // the plan at the boundary.
    for _ in 0..6 {
        let a = core.allocate(AllocRequest::new(mib(1))).unwrap();
        core.deallocate(a.id).unwrap();
    }
    core.iteration_boundary();
    assert!(core.is_serving(), "plan must be installed");
    let plan_before = core.plan().unwrap();

    // Prime a 4 + 6 MiB inactive pair in the *fallback* (both sizes are
    // residue — no such plan slot), so the next 10 MiB residue request
    // stitches. Hold one plan hit live across the fault.
    let p4 = core.allocate(AllocRequest::new(mib(4))).unwrap();
    let p6 = core.allocate(AllocRequest::new(mib(6))).unwrap();
    core.deallocate(p4.id).unwrap();
    core.deallocate(p6.id).unwrap();
    let held = core.allocate(AllocRequest::new(mib(1))).unwrap();
    let hits_before = core.counters().plan_hits;
    let stats_before = core.stats();

    // Arm: the next map call is the residue stitch's, inside the commit.
    driver.set_fault_plan(FaultPlan::new().fail_nth(FaultOp::Map, 1));
    let err = core.allocate(AllocRequest::new(mib(10))).unwrap_err();
    assert!(
        matches!(err, AllocError::DriverFault { .. }),
        "residue stitch fault must surface with its source chain, got {err:?}"
    );
    assert!(driver.stats().injected_faults > 0, "schedule never fired");
    driver.clear_fault_plan();

    // Plan tables untouched: identical placements, held hit still live,
    // no hit-path traffic counted, internal invariants clean.
    assert_eq!(core.plan().unwrap(), plan_before, "fault mutated the plan");
    assert_eq!(core.counters().plan_hits, hits_before);
    core.validate().unwrap();
    core.fallback().validate().unwrap();
    let journal = core.fault_journal_stats();
    assert!(journal.is_leak_free(), "stitch unwind leaked: {journal:?}");
    assert_eq!(journal.failed_ops, 1, "exactly the faulted stitch");
    let s = core.stats();
    assert_eq!(s.active_bytes, stats_before.active_bytes, "no ghost bytes");
    assert_eq!(s.alloc_count, stats_before.alloc_count);

    // Same request, fault cleared: the fallback stitch commits.
    let c = core.allocate(AllocRequest::new(mib(10))).unwrap();
    assert!(c.size >= mib(10));
    core.deallocate(c.id).unwrap();
    core.deallocate(held.id).unwrap();
    core.validate().unwrap();
    core.fallback().validate().unwrap();
    core.release_cached();
    assert_eq!(core.stats().active_bytes, 0);
    assert_eq!(driver.phys_in_use(), 0, "device not quiescent");
    assert_eq!(driver.outstanding_events(), 0, "leaked driver events");
}
