//! Cross-crate tests of the `DeviceAllocator` per-stream fast path: N-thread
//! stress with exact accounting, cross-thread frees, cross-thread
//! double-free detection, and teardown hygiene on a real simulated device.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

use gmlake::prelude::*;
use gmlake_alloc_api::DeviceAllocatorConfig;
use gmlake_core::GmLakeConfig;

/// The front-end adds no bytes above the core on the traffic the stitcher
/// serves: the ≥ 2 MiB tensors of one seeded training trace, replayed
/// through `DeviceAllocator::new(GmLakeAllocator)` and through a bare
/// `GmLakeAllocator`, each on a fresh device, reserve the same peak, take
/// the same S1–S4 / stitch / split / eviction transitions and make the
/// same VMM driver calls. Every such request reaches the stitcher, and
/// nothing the core counts as active is parked above it. (Small requests
/// are still cached per stream in power-of-two classes — a class miss in
/// (1, 2) MiB asks the core for a 2 MiB block — so the whole trace
/// reshapes what the core sees, by design.)
#[test]
fn front_end_adds_no_bytes_above_the_core() {
    use gmlake_gpu_sim::DriverStats;
    use gmlake_workload::{TraceEvent, TraceGenerator};
    let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR)
        .with_seq_len(256)
        .with_batch(2)
        .with_iterations(5);
    let mut trace = TraceGenerator::new(cfg.clone()).generate();
    // Keys are unique among live tensors only, so a small key leaves the
    // set at its free.
    let mut small = std::collections::HashSet::new();
    trace.events.retain(|ev| match *ev {
        TraceEvent::Alloc { key, size, .. } if size < mib(2) => !small.insert(key),
        TraceEvent::Free { key, .. } => !small.remove(&key),
        _ => true,
    });
    let run = |front: bool| {
        let driver = CudaDriver::new(DeviceConfig::a100_80g().with_backing(false));
        let mut lake = GmLakeAllocator::new(driver.clone(), GmLakeConfig::default());
        let replayer = Replayer::new(driver.clone());
        // Driver stats are read before the allocator drops and tears its
        // pool down.
        let (report, counters, calls) = if front {
            let mut pool = DeviceAllocator::new(lake);
            let report = replayer.replay(&mut pool, &trace, &cfg);
            let counters = pool.with_core_as(|c: &mut GmLakeAllocator| c.state_counters());
            (report, counters.expect("gmlake core"), driver.stats())
        } else {
            let report = replayer.replay(&mut lake, &trace, &cfg);
            (report, lake.state_counters(), driver.stats())
        };
        assert!(report.outcome.is_completed());
        (report.peak_reserved, counters, calls)
    };
    let (front_peak, front_counters, front_driver) = run(true);
    let (bare_peak, bare_counters, bare_driver) = run(false);
    assert_eq!(front_peak, bare_peak, "peak reserved bytes");
    assert_eq!(front_counters, bare_counters, "core state transitions");
    let vmm_calls = |s: &DriverStats| {
        [
            s.address_reserve.calls,
            s.address_free.calls,
            s.create.calls,
            s.release.calls,
            s.map.calls,
            s.unmap.calls,
            s.set_access.calls,
        ]
    };
    assert_eq!(
        vmm_calls(&front_driver),
        vmm_calls(&bare_driver),
        "VMM calls"
    );
}

fn caching_front() -> (DeviceAllocator, CudaDriver) {
    let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    (
        DeviceAllocator::new(CachingAllocator::new(driver.clone())),
        driver,
    )
}

/// ≥8 threads hammer one front-end with a size mix straddling the
/// small/large threshold: every successful allocation is freed exactly
/// once, nothing is lost or leaked in the caches, and the wrapped
/// core's own invariants survive.
#[test]
fn stress_eight_threads_no_allocation_lost_across_shards() {
    const THREADS: u64 = 8;
    const OPS: u64 = 400;
    let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    let pool = DeviceAllocator::new(GmLakeAllocator::new(
        driver.clone(),
        GmLakeConfig::default().with_frag_limit(mib(2)),
    ));

    let total_allocs = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = pool.clone();
            let total_allocs = &total_allocs;
            s.spawn(move || {
                let mut live: Vec<AllocationId> = Vec::new();
                let mut x = 0x9e3779b97f4a7c15u64.wrapping_mul(t + 1);
                for _ in 0..OPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // Sizes from 512 B to ~4 MiB: both the cached fast
                    // path and the core fallback run, on many size classes.
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

    let stats = pool.stats();
    assert_eq!(
        stats.alloc_count,
        total_allocs.load(Ordering::Relaxed),
        "every successful allocation was counted exactly once"
    );
    assert_eq!(stats.alloc_count, stats.free_count, "no allocation lost");
    assert_eq!(stats.active_bytes, 0);
    // Returning the stream caches to the core reconciles it exactly.
    pool.flush();
    pool.with_core(|core| {
        assert_eq!(core.stats().active_bytes, 0, "core agrees after flush");
    });
    // Dropping the front-end (and with it the core) returns every byte,
    // reservation, and mapping to the device: nothing leaked in a cache.
    drop(pool);
    assert!(driver.snapshot().is_quiescent(), "device fully torn down");
}

/// A block allocated on one thread and freed on another stays correctly
/// accounted, and the migrated block is reusable from the cache.
#[test]
fn alloc_on_one_thread_free_on_another() {
    let (pool, _driver) = caching_front();
    let (tx, rx) = mpsc::channel::<AllocationId>();
    std::thread::scope(|s| {
        let producer = pool.clone();
        s.spawn(move || {
            for _ in 0..200 {
                let a = producer.allocate(AllocRequest::new(kib(64))).unwrap();
                tx.send(a.id).unwrap();
            }
        });
        let consumer = pool.clone();
        s.spawn(move || {
            for id in rx {
                consumer.deallocate(id).unwrap();
            }
        });
    });
    let stats = pool.stats();
    assert_eq!(stats.alloc_count, 200);
    assert_eq!(stats.free_count, 200);
    assert_eq!(stats.active_bytes, 0);
    // The migrated blocks are sitting in the stream's cache, ready for reuse.
    let before = pool.cache_stats();
    assert!(before.cached_blocks > 0, "frees landed in the cache");
    let a = pool.allocate(AllocRequest::new(kib(64))).unwrap();
    assert_eq!(pool.cache_stats().hits, before.hits + 1);
    pool.deallocate(a.id).unwrap();
}

/// Two threads race to free the same allocation: exactly one wins, the
/// other gets `UnknownAllocation`, and the accounting stays exact.
#[test]
fn cross_thread_double_free_is_detected_exactly_once() {
    let (pool, _driver) = caching_front();
    for round in 0..50 {
        let a = pool.allocate(AllocRequest::new(kib(8))).unwrap();
        let outcomes: Vec<Result<(), AllocError>> = std::thread::scope(|s| {
            let h1 = pool.clone();
            let h2 = pool.clone();
            let t1 = s.spawn(move || h1.deallocate(a.id));
            let t2 = s.spawn(move || h2.deallocate(a.id));
            vec![t1.join().unwrap(), t2.join().unwrap()]
        });
        let oks = outcomes.iter().filter(|r| r.is_ok()).count();
        assert_eq!(oks, 1, "round {round}: exactly one free wins: {outcomes:?}");
        assert!(
            outcomes
                .iter()
                .any(|r| r == &Err(AllocError::UnknownAllocation(a.id))),
            "round {round}: the loser sees UnknownAllocation"
        );
    }
    let stats = pool.stats();
    assert_eq!(stats.alloc_count, 50);
    assert_eq!(stats.free_count, 50, "double frees never double-counted");
    assert_eq!(stats.active_bytes, 0);
}

/// Double-free detection also holds for large (core-path) allocations and
/// for stale front-end ids whose block has since been reused.
#[test]
fn double_free_after_reuse_is_still_rejected() {
    let (pool, _driver) = caching_front();
    let a = pool.allocate(AllocRequest::new(kib(32))).unwrap();
    pool.deallocate(a.id).unwrap();
    // The same cached block comes back under a FRESH id; the stale id must
    // stay dead even though the block is live again.
    let b = pool.allocate(AllocRequest::new(kib(32))).unwrap();
    assert_eq!(b.va, a.va, "block was reused");
    assert_ne!(b.id, a.id);
    assert_eq!(
        pool.deallocate(a.id).unwrap_err(),
        AllocError::UnknownAllocation(a.id)
    );
    pool.deallocate(b.id).unwrap();

    let big = pool.allocate(AllocRequest::new(mib(16))).unwrap();
    pool.deallocate(big.id).unwrap();
    assert_eq!(
        pool.deallocate(big.id).unwrap_err(),
        AllocError::UnknownAllocation(big.id),
        "core-path double-free surfaces through the front-end"
    );
}

/// The front-end's OOM fallback reaches blocks other threads parked in the
/// stream's cache: a large request that only fits once the cache is flushed
/// must succeed instead of erroring.
#[test]
fn oom_retry_reclaims_blocks_parked_by_other_threads() {
    // 256 MiB device; four threads each hold 32 × 1 MiB live before
    // freeing, so at least 32 distinct blocks end up parked in the caches
    // (threads that run later reuse earlier threads' blocks). A 240 MiB
    // request cannot fit while ≥ 32 MiB sits in the cache.
    let (pool, driver) = caching_front();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let pool = pool.clone();
            s.spawn(move || {
                let ids: Vec<_> = (0..32)
                    .map(|_| pool.allocate(AllocRequest::new(mib(1))).unwrap().id)
                    .collect();
                for id in ids {
                    pool.deallocate(id).unwrap();
                }
            });
        }
    });
    assert!(pool.cache_stats().cached_bytes >= mib(32), "caches warm");
    assert!(driver.phys_in_use() >= mib(32));
    let big = pool.allocate(AllocRequest::new(mib(240))).unwrap();
    assert_eq!(big.size, mib(240), "flush-and-retry rescued the request");
    assert_eq!(pool.cache_stats().cached_bytes, 0, "the cache was flushed");
    pool.deallocate(big.id).unwrap();
}

/// Sequential trait-generic code (the replayer path) drives the front-end
/// through `AllocatorCore` unmodified.
#[test]
fn front_end_is_a_core_for_trait_generic_callers() {
    fn run<A: gmlake_alloc_api::AllocatorCore>(mut a: A) {
        let x = a.allocate(AllocRequest::new(kib(4))).unwrap();
        a.deallocate(x.id).unwrap();
        a.iteration_boundary();
        assert_eq!(a.stats().active_bytes, 0);
    }
    let (pool, _driver) = caching_front();
    run(pool.clone());
    assert_eq!(pool.stats().alloc_count, 1);
}

/// Flush-before-defrag across streams: an OOM retry must reclaim **every**
/// stream's cache, not just the allocating stream's. The reclaimed-byte
/// count is pinned exactly so a future "flush only my stream" optimization
/// cannot silently regress the rescue.
#[test]
fn oom_retry_flushes_every_streams_cache_with_pinned_byte_count() {
    let driver = CudaDriver::new(
        DeviceConfig::small_test()
            .with_capacity(mib(300))
            .with_backing(false),
    );
    let pool = DeviceAllocator::try_build(
        Box::new(CachingAllocator::new(driver.clone())),
        DeviceAllocatorConfig::default().with_streams(4),
        None,
        None,
    )
    .unwrap();
    let warm_all_streams = |pool: &DeviceAllocator| {
        for s in 0..4u32 {
            let a = pool
                .alloc_on_stream(AllocRequest::new(mib(1)), StreamId(s))
                .unwrap();
            pool.free_on_stream(a.id, StreamId(s)).unwrap();
        }
    };
    // Phase 1 — pin the reclaimed-byte count: one 1 MiB-class block parked
    // per stream, and a full flush hands back exactly all four.
    warm_all_streams(&pool);
    for s in 0..4u32 {
        assert_eq!(
            pool.stream_cache_stats(StreamId(s)).cached_bytes,
            mib(1),
            "stream {s}: one 1 MiB-class block parked in its own cache"
        );
    }
    assert_eq!(pool.flush(), 4 * mib(1), "flush reclaims every stream");
    assert_eq!(pool.cache_stats().cached_bytes, 0);

    // Phase 2 — the OOM retry does that flush implicitly. The core packs
    // the four parked blocks two to a 2 MiB segment (streams 0 and 1 share
    // one, streams 2 and 3 the other), so a 298 MiB request on a 300 MiB
    // device only fits once every cache drains: flushing the allocating
    // stream's cache alone frees no segment and leaves 296 MiB.
    warm_all_streams(&pool);
    assert_eq!(pool.cache_stats().cached_bytes, 4 * mib(1));
    assert_eq!(driver.phys_in_use(), mib(4), "two 2 MiB segments");
    let big = pool
        .alloc_on_stream(AllocRequest::new(mib(298)), StreamId(0))
        .unwrap();
    assert_eq!(big.size, mib(298), "cross-stream flush rescued the request");
    assert_eq!(
        pool.cache_stats().cached_bytes,
        0,
        "all four caches drained"
    );
    pool.free_on_stream(big.id, StreamId(0)).unwrap();
    drop(pool);
    assert!(driver.snapshot().is_quiescent());
}

/// Stream configuration is honored end to end, and invalid stream counts
/// surface as errors — never panics.
#[test]
fn stream_config_round_trips_and_zero_streams_errors() {
    let make = |streams| {
        DeviceAllocator::try_build(
            Box::new(CachingAllocator::new(CudaDriver::new(
                DeviceConfig::small_test().with_backing(false),
            ))),
            DeviceAllocatorConfig::default().with_streams(streams),
            None,
            None,
        )
    };
    let err = make(0).unwrap_err();
    assert!(matches!(err, AllocError::InvalidConfig(_)), "{err}");
    let pool = make(3).unwrap();
    assert_eq!(
        pool.cache_stats().streams,
        4,
        "3 streams round up to 4 caches"
    );
    // Every stream's cache is its own: a block parked on stream 2 is not
    // counted on stream 1.
    let a = pool
        .alloc_on_stream(AllocRequest::new(kib(16)), StreamId(2))
        .unwrap();
    pool.free_on_stream(a.id, StreamId(2)).unwrap();
    assert_eq!(pool.stream_cache_stats(StreamId(2)).cached_blocks, 1);
    assert_eq!(pool.stream_cache_stats(StreamId(1)).cached_blocks, 0);
}

/// Cross-thread AND cross-stream: a block allocated on stream 1 by one
/// thread and freed from stream 0 by another is routed through the core
/// and stays exactly accounted.
#[test]
fn cross_thread_cross_stream_free_takes_the_conservative_path() {
    let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    let pool = DeviceAllocator::try_build(
        Box::new(CachingAllocator::new(driver)),
        DeviceAllocatorConfig::default().with_streams(2),
        None,
        None,
    )
    .unwrap();
    let (tx, rx) = mpsc::channel::<AllocationId>();
    std::thread::scope(|s| {
        let producer = pool.clone();
        s.spawn(move || {
            for _ in 0..100 {
                let a = producer
                    .alloc_on_stream(AllocRequest::new(kib(32)), StreamId(1))
                    .unwrap();
                tx.send(a.id).unwrap();
            }
        });
        let consumer = pool.clone();
        s.spawn(move || {
            for id in rx {
                consumer.free_on_stream(id, StreamId(0)).unwrap();
            }
        });
    });
    let stats = pool.stats();
    assert_eq!(stats.alloc_count, 100);
    assert_eq!(stats.free_count, 100);
    assert_eq!(stats.active_bytes, 0);
    let cache = pool.cache_stats();
    assert_eq!(
        cache.cross_stream_fallback, 100,
        "every free crossed streams and returned to the core"
    );
    assert_eq!(cache.cached_blocks, 0, "nothing was parked for reuse");
    pool.with_core(|core| assert_eq!(core.stats().active_bytes, 0));
}

/// A stream-oblivious core behind a front-end whose event source is the
/// device's own driver: a small block freed from another stream reaches
/// the core only once the host has waited out the freeing stream's work,
/// so the core, which hands the block straight back out, cannot re-serve
/// it while that work still runs.
#[test]
fn cross_stream_small_free_waits_out_the_freeing_stream() {
    use std::sync::Arc;
    let driver = CudaDriver::new(DeviceConfig::a100_80g());
    let pool = DeviceAllocator::try_build(
        Box::new(CachingAllocator::new(driver.clone())),
        DeviceAllocatorConfig::default().with_streams(2),
        Some(Arc::new(driver.clone())),
        None,
    )
    .unwrap();
    let a = pool
        .alloc_on_stream(AllocRequest::new(kib(64)), StreamId(1))
        .unwrap();
    driver.stream_launch(StreamId(0), 1_000_000);
    let frontier = driver.stream_frontier_ns(StreamId(0));
    assert!(
        driver.now_ns() < frontier,
        "stream 0 runs ahead of the host"
    );
    pool.free_on_stream(a.id, StreamId(0)).unwrap();
    assert!(
        driver.now_ns() >= frontier,
        "the core got the block at {} before stream 0 finished at {frontier}",
        driver.now_ns()
    );
    assert_eq!(pool.cache_stats().cross_stream_fallback, 1);
    assert_eq!(driver.outstanding_events(), 0, "no event leaked");
    // The core ignores streams: the next request of the class gets the
    // same block.
    let b = pool
        .alloc_on_stream(AllocRequest::new(kib(64)), StreamId(1))
        .unwrap();
    assert_eq!(b.va, a.va, "the core re-served the block");
    pool.free_on_stream(b.id, StreamId(1)).unwrap();
    drop(pool);
    assert!(driver.snapshot().is_quiescent());
}

/// A custom configuration is honored and observable, and a size class
/// parks at most 64 blocks.
#[test]
fn custom_config_round_trips() {
    let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    let pool = DeviceAllocator::try_build(
        Box::new(CachingAllocator::new(driver)),
        DeviceAllocatorConfig::default().with_streams(5), // rounded up to 8
        None,
        None,
    )
    .unwrap();
    let ids: Vec<_> = (0..65)
        .map(|_| pool.allocate(AllocRequest::new(kib(16))).unwrap().id)
        .collect();
    for id in ids {
        pool.deallocate(id).unwrap();
    }
    let cache = pool.cache_stats();
    assert_eq!(cache.streams, 8);
    assert_eq!(cache.cached_blocks, 64, "per-class cap enforced");
}
