//! CI chaos soak: a fixed-seed fault-injection run with the full
//! telemetry stack attached, producing the fault-injection snapshot
//! artifact.
//!
//! Drives a `PoolService` GMLake pool through a mixed alloc/free churn
//! under a seeded 1-in-[`FAULT_ONE_IN`] probabilistic [`FaultPlan`], then
//! through a deterministic persistent `mem_map` outage that trips the
//! stitch circuit breaker and a recovery phase that closes it again. The
//! run fails (non-zero exit) if any recovery invariant breaks: an
//! allocation error the pipeline should have absorbed, a fault-journal
//! leak, a failed `validate()`, or a breaker that never tripped or never
//! recovered.
//!
//! Outputs (uploaded by CI as artifacts):
//!
//! * `chaos_soak.json` — summary counters: injected faults, service
//!   retry/rescue/breaker stats, and the core's fault journal;
//! * `chaos_profile.json` — the full telemetry [`MemorySnapshot`],
//!   whose event trace carries every `fault_injected`, `rescue_stage`
//!   and `breaker_trip` record of the run.
//!
//! [`MemorySnapshot`]: gmlake_telemetry::MemorySnapshot

use std::sync::Arc;

use gmlake_alloc_api::{mib, AllocError, AllocRequest, DeviceAllocator, DeviceAllocatorConfig};
use gmlake_core::{GmLakeAllocator, GmLakeConfig};
use gmlake_gpu_sim::{CudaDriver, DeviceConfig, FaultOp, FaultPlan};
use gmlake_runtime::{DeviceId, FaultPolicy, MemoryProfiler, PoolService};
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

fn main() {
    // Short cooldown/backoff so the breaker's full open -> half-open ->
    // closed cycle fits in a quick CI run.
    let policy = FaultPolicy {
        max_retries: 3,
        backoff_us: 5,
        breaker_threshold: 3,
        breaker_cooldown: 16,
    };
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
    let service = PoolService::with_fault_policy(policy);
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

    // Phase 2: persistent mem_map outage. Every large allocation now dies
    // even after retries; three consecutive surfaced faults trip the
    // breaker.
    eprintln!("phase 2: persistent mem_map outage trips the breaker");
    driver.set_fault_plan(FaultPlan::new().fail_from(FaultOp::Map, 1));
    match pool.allocate(AllocRequest::new(mib(10))) {
        Err(AllocError::DriverFault { .. }) => {}
        other => fail(&format!(
            "outage alloc should surface DriverFault, got {other:?}"
        )),
    }
    if !pool.fault_stats().breaker_open {
        fail("breaker still closed after a persistent outage");
    }

    // Phase 3: the outage clears; cooldown elapses over small churn and
    // the breaker re-probes, closes, and stitching serves again.
    eprintln!("phase 3: outage clears, breaker cools down and closes");
    driver.clear_fault_plan();
    for _ in 0..(policy.breaker_cooldown + 4) {
        match pool.allocate(AllocRequest::new(mib(4))) {
            Ok(a) => pool
                .deallocate(a.id)
                .unwrap_or_else(|e| fail(&e.to_string())),
            Err(e) => fail(&format!("post-outage alloc failed: {e}")),
        }
    }
    let stats = pool.fault_stats();
    if stats.breaker_open {
        fail("breaker never recovered after the outage cleared");
    }
    if stats.breaker_trips == 0 {
        fail("breaker trip was never counted");
    }

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
        "{{\n  \"schema\": \"gmlake-chaos-soak/v1\",\n  \"seed\": {SEED},\n  \
         \"fault_one_in\": {FAULT_ONE_IN},\n  \"soak_ops\": {SOAK_OPS},\n  \
         \"injected_faults\": {injected},\n  \"injected_faults_soak\": {soak_injected},\n  \
         \"service_faults\": {},\n  \"service_retries\": {},\n  \"breaker_trips\": {},\n  \
         \"breaker_open\": {},\n  \"rescues\": {},\n  \"journal_failed_ops\": {},\n  \
         \"journal_orphan_vas\": {},\n  \"journal_orphan_va_bytes\": {},\n  \
         \"journal_orphan_chunks\": {}\n}}\n",
        stats.faults,
        stats.retries,
        stats.breaker_trips,
        stats.breaker_open,
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
        "chaos soak passed: {injected} faults injected, {} retried, breaker tripped {} time(s) \
         and recovered",
        stats.retries, stats.breaker_trips
    );
}
