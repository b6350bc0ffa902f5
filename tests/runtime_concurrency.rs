//! Cross-crate concurrency tests of the runtime subsystem: many threads on
//! one pool, whole fleets of ranks replaying through the service, defrag
//! passes run from another thread during a replay, and a panicking lock
//! holder.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use gmlake::prelude::*;
use gmlake_core::GmLakeConfig;
use gmlake_runtime::{DeviceId, PoolService};
use gmlake_workload::{ReplayReport, TraceGenerator};

fn a100() -> CudaDriver {
    CudaDriver::new(DeviceConfig::a100_80g())
}

/// Replays `cfg` on every `(pool, driver)` rank at once, one scoped thread
/// per rank, and returns the reports in rank order.
fn replay_ranks(ranks: Vec<(PoolHandle, CudaDriver)>, cfg: &TrainConfig) -> Vec<ReplayReport> {
    let trace = TraceGenerator::new(cfg.clone()).generate();
    std::thread::scope(|s| {
        let threads: Vec<_> = ranks
            .into_iter()
            .map(|(mut pool, driver)| {
                let trace = &trace;
                s.spawn(move || Replayer::new(driver).replay(&mut pool, trace, cfg))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("rank thread panicked"))
            .collect()
    })
}

/// ≥4 threads allocate and free through clones of ONE `PoolHandle` without
/// deadlock, without losing allocations, and with exact accounting.
#[test]
fn stress_many_threads_one_pool() {
    const THREADS: u64 = 8;
    const OPS: u64 = 300;
    let service = PoolService::new();
    let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    service
        .register(
            DeviceId(0),
            Box::new(GmLakeAllocator::new(
                driver.clone(),
                GmLakeConfig::default().with_frag_limit(mib(2)),
            )),
        )
        .unwrap();

    let total_allocs = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = service.handle(DeviceId(0)).unwrap();
            let total_allocs = &total_allocs;
            s.spawn(move || {
                // Deterministic per-thread op mix; sizes straddle the
                // small/large threshold so both pool paths run.
                let mut live: Vec<AllocationId> = Vec::new();
                let mut x = 0x9e3779b97f4a7c15u64.wrapping_mul(t + 1);
                for _ in 0..OPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let size = 512 + x % mib(4);
                    match pool.allocate(AllocRequest::new(size)) {
                        Ok(a) => {
                            assert!(a.size >= size, "undersized block");
                            total_allocs.fetch_add(1, Ordering::Relaxed);
                            live.push(a.id);
                        }
                        Err(AllocError::OutOfMemory { .. }) => {}
                        Err(e) => panic!("unexpected allocator error: {e}"),
                    }
                    if live.len() > 4 {
                        let id = live.swap_remove((x % live.len() as u64) as usize);
                        pool.deallocate(id).unwrap();
                    }
                }
                for id in live {
                    pool.deallocate(id).unwrap();
                }
            });
        }
    });

    let stats = service.stats(DeviceId(0)).unwrap();
    assert_eq!(
        stats.alloc_count,
        total_allocs.load(Ordering::Relaxed),
        "every successful allocation was counted exactly once"
    );
    assert_eq!(stats.alloc_count, stats.free_count, "no allocation lost");
    assert_eq!(stats.active_bytes, 0);
    // The allocator's own invariants survived the contention.
    service
        .handle(DeviceId(0))
        .unwrap()
        .with_allocator(|a| a.stats());
    assert_eq!(driver.phys_in_use(), stats.reserved_bytes);
}

/// A ≥4-device, ≥4-thread scale-out through the service completes with
/// per-rank reports — the acceptance scenario of the runtime subsystem.
#[test]
fn scaleout_four_ranks_four_threads_with_reports() {
    let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR)
        .with_seq_len(256)
        .with_batch(2)
        .with_iterations(3)
        .with_gpus(4);
    let service = PoolService::new();
    let ranks: Vec<_> = (0..4)
        .map(|rank| {
            let driver = a100();
            let pool = service
                .register(
                    DeviceId(rank),
                    Box::new(GmLakeAllocator::new(
                        driver.clone(),
                        GmLakeConfig::default(),
                    )),
                )
                .unwrap();
            (pool, driver)
        })
        .collect();
    let drivers: Vec<CudaDriver> = ranks.iter().map(|(_, d)| d.clone()).collect();
    let reports = replay_ranks(ranks, &cfg);
    assert_eq!(reports.len(), 4);
    for report in &reports {
        assert!(report.outcome.is_completed());
        assert_eq!(report.iterations_completed, 3);
        assert!(report.peak_reserved > 0);
        assert!(report.throughput > 0.0);
    }
    // Mirrored ranks (same trace, own devices) agree exactly — concurrency
    // cannot leak between pools — and the service agrees with the reports.
    for w in reports.windows(2) {
        assert_eq!(w[0].peak_reserved, w[1].peak_reserved);
        assert_eq!(w[0].peak_active, w[1].peak_active);
    }
    let calls: Vec<u64> = drivers.iter().map(|d| d.stats().total_calls()).collect();
    assert!(
        calls[0] > 0 && calls.windows(2).all(|w| w[0] == w[1]),
        "{calls:?}"
    );
    for (rank, report) in (0..).zip(&reports) {
        assert_eq!(
            service.stats(DeviceId(rank)).unwrap().reserved_bytes,
            report.final_reserved
        );
    }
}

/// A background thread running defrag passes on live handles coexists with
/// a concurrent replay: no deadlock between pass-side and handle-side
/// locking, and the run's results stay correct. The thread loops for
/// exactly as long as the replay runs — no wall-clock sleeps.
#[test]
fn background_defragger_runs_alongside_replay() {
    let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR)
        .with_seq_len(256)
        .with_batch(2)
        .with_iterations(3);
    let service = PoolService::new();
    let ranks: Vec<_> = (0..2)
        .map(|rank| {
            let driver = a100();
            let pool = service
                .register(
                    DeviceId(rank),
                    Box::new(CachingAllocator::new(driver.clone())),
                )
                .unwrap();
            (pool, driver)
        })
        .collect();
    let handles: Vec<_> = ranks.iter().map(|(pool, _)| pool.clone()).collect();
    let done = AtomicBool::new(false);
    let (reports, passes) = std::thread::scope(|s| {
        let maintenance = s.spawn(|| {
            let mut passes = 0u64;
            // At least one pass even if the replay wins the race to `done`.
            loop {
                for pool in &handles {
                    pool.process_events();
                    pool.compact();
                }
                passes += 1;
                if done.load(Ordering::Acquire) {
                    return passes;
                }
            }
        });
        let reports = replay_ranks(ranks, &cfg);
        done.store(true, Ordering::Release);
        (reports, maintenance.join().unwrap())
    });
    assert!(reports.iter().all(|r| r.outcome.is_completed()));
    assert!(passes > 0, "the maintenance thread ran during the replay");
}

/// A panic inside a closure holding the pool's allocator lock must not
/// wedge the pool for everyone else. The workspace's `parking_lot` shim
/// recovers poisoned `std::sync` locks instead of propagating the poison
/// as an error, so surviving threads keep allocating and the allocator's
/// invariants still hold (see `docs/fault-model.md` — the panicking
/// closure must not have left a *logical* half-update behind, which the
/// transactional core guarantees for its own operations).
#[test]
fn pool_survives_a_panicking_lock_holder() {
    let service = PoolService::new();
    let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    let pool = service
        .register(
            DeviceId(0),
            Box::new(GmLakeAllocator::new(
                driver.clone(),
                GmLakeConfig::default().with_frag_limit(mib(2)),
            )),
        )
        .unwrap();

    let warm = pool.allocate(AllocRequest::new(mib(8))).unwrap();

    // Panic while holding the pool mutex (with_allocator locks the core).
    let crashed = std::thread::scope(|s| {
        let pool = pool.clone();
        s.spawn(move || {
            pool.with_allocator(|_core| panic!("simulated user-callback crash"));
        })
        .join()
    });
    assert!(crashed.is_err(), "the panic must reach join()");

    // The lock recovered: every other user proceeds normally.
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let pool = pool.clone();
            s.spawn(move || {
                for _ in 0..16 {
                    let a = pool.allocate(AllocRequest::new(mib(1 + t))).unwrap();
                    pool.deallocate(a.id).unwrap();
                }
            });
        }
    });
    pool.deallocate(warm.id).unwrap();
    assert_eq!(pool.stats().active_bytes, 0);
    pool.with_allocator(|core| {
        let lake = core
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<GmLakeAllocator>())
            .expect("gmlake core");
        lake.validate().unwrap();
    });
}
