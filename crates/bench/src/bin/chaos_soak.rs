//! CI chaos soak: a fixed-seed fault-injection run with the full
//! telemetry stack attached, producing the fault-injection snapshot
//! artifact.
//!
//! Drives a `PoolService` GMLake pool through a mixed alloc/free churn
//! under a seeded 1-in-[`FAULT_ONE_IN`] probabilistic [`FaultPlan`], then
//! through two deterministic persistent outages, each followed by its
//! recovery:
//!
//! * a `mem_map` outage, under which a request the caches serve without
//!   a driver call is still served and a request that needs a map
//!   surfaces `DriverFault` after the bounded retry;
//! * a `mem_create` outage, under which a request that stitches cached
//!   blocks is served, since a stitch creates no physical memory.
//!
//! Once each outage clears, the next stitchable request stitches at
//! once. The run fails (non-zero exit) if any recovery invariant breaks:
//! an allocation error the pipeline should have absorbed, a
//! fault-journal leak, a failed `validate()`, or an outage outcome other
//! than the one above. Its stdout, the summary, is deterministic; CI
//! diffs it against `crates/bench/chaos_soak.expected`.
//!
//! Outputs (uploaded by CI as artifacts):
//!
//! * `chaos_soak.json` — summary counters: injected faults, the service's
//!   fault/retry counters (its `rescues` is always 0: the service runs no
//!   OOM rescue), and the core's fault journal;
//! * `chaos_profile.json` — the full telemetry [`MemorySnapshot`],
//!   whose event trace carries every `fault_injected` record of the run.
//!
//! [`MemorySnapshot`]: gmlake_telemetry::MemorySnapshot

use std::sync::Arc;

use gmlake_alloc_api::{
    mib, AllocError, AllocRequest, Allocation, DeviceAllocator, DeviceAllocatorConfig,
};
use gmlake_core::{GmLakeAllocator, GmLakeConfig};
use gmlake_gpu_sim::{CudaDriver, DeviceConfig, FaultOp, FaultPlan};
use gmlake_runtime::{DeviceId, MemoryProfiler, PoolHandle, PoolService};
use gmlake_telemetry::PoolTelemetry;

/// Fixed seed of the probabilistic soak phase (deterministic schedule).
const SEED: u64 = 0x5EED_CAFE;
/// Soak fault rate: 1 in this many driver calls.
const FAULT_ONE_IN: u64 = 400;
/// Alloc/free pairs in the soak phase.
const SOAK_OPS: usize = 4_000;
/// `release_cached` burst cadence (keeps driver traffic in play).
const RELEASE_EVERY: usize = 64;
/// The churn sizes (MiB); all take the large split/stitch path.
const SIZES: [u64; 6] = [2, 6, 3, 12, 4, 8];

fn fail(msg: &str) -> ! {
    eprintln!("CHAOS FAILURE: {msg}");
    std::process::exit(1);
}

/// Empties the pool's caches, then leaves idle 4 and 6 MiB blocks in the
/// core, where a 10 MiB request stitches them.
fn make_stitchable(pool: &PoolHandle) {
    pool.release_cached();
    let a = alloc_or_fail(pool, 4, "stitch setup");
    let b = alloc_or_fail(pool, 6, "stitch setup");
    for id in [a.id, b.id] {
        pool.deallocate(id).unwrap_or_else(|e| fail(&e.to_string()));
    }
    pool.allocator().flush();
}

fn alloc_or_fail(pool: &PoolHandle, size_mib: u64, what: &str) -> Allocation {
    pool.allocate(AllocRequest::new(mib(size_mib)))
        .unwrap_or_else(|e| fail(&format!("{what}: {size_mib} MiB failed: {e}")))
}

fn expect_fault(pool: &PoolHandle, size_mib: u64, what: &str) {
    match pool.allocate(AllocRequest::new(mib(size_mib))) {
        Err(AllocError::DriverFault { .. }) => {}
        other => fail(&format!(
            "{what}: {size_mib} MiB should surface DriverFault, got {other:?}"
        )),
    }
}

/// The core's count of stitched views built so far.
fn stitches(pool: &PoolHandle) -> u64 {
    pool.allocator()
        .with_core_as(|lake: &mut GmLakeAllocator| lake.state_counters().stitches)
        .unwrap_or_else(|| fail("gmlake core downcast"))
}

/// Serves a 10 MiB request from the stitchable state, failing unless it
/// builds one new stitched view and no new physical memory.
fn expect_stitch(pool: &PoolHandle, driver: &CudaDriver, what: &str) {
    let (before, phys) = (stitches(pool), driver.phys_in_use());
    let a = alloc_or_fail(pool, 10, what);
    if stitches(pool) != before + 1 || driver.phys_in_use() != phys {
        fail(&format!("{what}: the 10 MiB request did not stitch"));
    }
    pool.deallocate(a.id)
        .unwrap_or_else(|e| fail(&e.to_string()));
}

fn main() {
    let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    let telemetry = Arc::new(PoolTelemetry::new().with_clock(Arc::new(driver.clone())));
    driver.set_telemetry(Arc::clone(&telemetry));
    let front = DeviceAllocator::try_build(
        Box::new(GmLakeAllocator::new(
            driver.clone(),
            GmLakeConfig::default().with_frag_limit(mib(2)),
        )),
        DeviceAllocatorConfig::default(),
        Some(Arc::new(driver.clone())),
        Some(telemetry),
    )
    .expect("default front-end config");
    let service = PoolService::new();
    let pool = service
        .register_device(DeviceId(0), front)
        .expect("fresh service");
    let profiler = MemoryProfiler::new(&service);
    profiler.start();

    // Phase 1: probabilistic soak. Every fault the plan injects is either
    // absorbed by the service's retry pipeline or rolled back inside a
    // teardown (where the block simply stays cached).
    eprintln!("phase 1: soak, {SOAK_OPS} churn ops at 1-in-{FAULT_ONE_IN} faults (seed {SEED:#x})");
    driver.set_fault_plan(FaultPlan::new().with_probabilistic(SEED, FAULT_ONE_IN));
    let mut live = Vec::new();
    for i in 0..SOAK_OPS {
        if i % RELEASE_EVERY == 0 {
            pool.release_cached();
        }
        match pool.allocate(AllocRequest::new(mib(SIZES[i % SIZES.len()]))) {
            Ok(a) => live.push(a),
            Err(e) => fail(&format!("soak alloc escaped the retry pipeline: {e}")),
        }
        if live.len() > 8 {
            let victim = live.remove(0);
            for attempt in 0.. {
                match pool.deallocate(victim.id) {
                    Ok(()) => break,
                    Err(_) if attempt < 3 => continue,
                    Err(e) => fail(&format!("free kept faulting: {e}")),
                }
            }
        }
    }
    for a in live.drain(..) {
        let _ = pool.deallocate(a.id);
    }
    driver.clear_fault_plan();
    let soak_injected = driver.stats().injected_faults;
    if soak_injected == 0 {
        fail("soak injected nothing — the schedule is dead");
    }

    // Phase 2: persistent mem_map outage. Requests the caches serve
    // without a driver call are still served; a request that needs a map
    // surfaces DriverFault once the bounded retry gives up.
    eprintln!("phase 2: persistent mem_map outage");
    driver.set_fault_plan(FaultPlan::new().fail_from(FaultOp::Map, 1));
    for size in [2, 4] {
        let calls = driver.stats();
        let a = alloc_or_fail(&pool, size, "map outage, cached probe");
        if driver.stats() != calls {
            fail(&format!("the {size} MiB probe called the driver"));
        }
        pool.deallocate(a.id)
            .unwrap_or_else(|e| fail(&e.to_string()));
    }
    let retries = pool.fault_stats().retries;
    expect_fault(&pool, 10, "map outage");
    if pool.fault_stats().retries != retries + 3 {
        fail("the map outage was not retried exactly three times");
    }
    driver.clear_fault_plan();
    make_stitchable(&pool);
    expect_stitch(&pool, &driver, "after the map outage");

    // Phase 3: persistent mem_create outage. A fresh block faults, but a
    // stitch creates no physical memory: a request the cached blocks can
    // stitch is served, however many faults came before it.
    eprintln!("phase 3: persistent mem_create outage");
    make_stitchable(&pool);
    driver.set_fault_plan(FaultPlan::new().fail_from(FaultOp::Create, 1));
    for _ in 0..3 {
        expect_fault(&pool, 40, "create outage");
    }
    expect_stitch(&pool, &driver, "create outage");
    driver.clear_fault_plan();
    make_stitchable(&pool);
    expect_stitch(&pool, &driver, "after the create outage");
    let stats = pool.fault_stats();

    // Final invariants straight from the core.
    let journal = pool.with_allocator(|core| {
        let lake = core
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<GmLakeAllocator>())
            .unwrap_or_else(|| fail("gmlake core downcast"));
        if let Err(e) = lake.validate() {
            fail(&format!("validate(): {e}"));
        }
        lake.fault_journal()
    });
    let injected = driver.stats().injected_faults;
    if journal.orphan_vas + journal.orphan_chunks > injected {
        fail(&format!(
            "journal claims more orphans than faults: {journal:?}"
        ));
    }

    profiler.stop();
    let snapshot = profiler.dump();
    let profile_json = snapshot.to_json();
    std::fs::write("chaos_profile.json", &profile_json)
        .unwrap_or_else(|e| fail(&format!("writing chaos_profile.json: {e}")));

    let summary = format!(
        "{{\n  \"schema\": \"gmlake-chaos-soak/v2\",\n  \"seed\": {SEED},\n  \
         \"fault_one_in\": {FAULT_ONE_IN},\n  \"soak_ops\": {SOAK_OPS},\n  \
         \"injected_faults\": {injected},\n  \"injected_faults_soak\": {soak_injected},\n  \
         \"service_faults\": {},\n  \"service_retries\": {},\n  \"rescues\": {},\n  \
         \"journal_failed_ops\": {},\n  \"journal_orphan_vas\": {},\n  \
         \"journal_orphan_va_bytes\": {},\n  \
         \"journal_orphan_chunks\": {}\n}}\n",
        stats.faults,
        stats.retries,
        stats.rescues,
        journal.failed_ops,
        journal.orphan_vas,
        journal.orphan_va_bytes,
        journal.orphan_chunks,
    );
    std::fs::write("chaos_soak.json", &summary)
        .unwrap_or_else(|e| fail(&format!("writing chaos_soak.json: {e}")));
    print!("{summary}");
    eprintln!(
        "chaos soak passed: {injected} faults injected, {} retried, both outages recovered",
        stats.retries
    );
}
