//! Out-of-memory semantics across allocators: failure is reported (never a
//! panic), state stays consistent, and GMLake extends the feasible envelope
//! exactly where the paper says it does.

use gmlake::prelude::*;
use gmlake_alloc_api::AllocTag;
use gmlake_core::GmLakeConfig;
use gmlake_workload::{ReplayOutcome, Trace, TraceEvent};

/// Builds the paper's Figure 1 request stream as a replayable trace:
/// interleaved allocations whose frees leave plenty of total memory but no
/// contiguous block for the final large request.
fn figure1_trace(final_request: u64) -> Trace {
    let mut t = Trace::new("figure-1");
    let alloc = |key, size| TraceEvent::Alloc {
        key,
        size,
        tag: AllocTag::Unspecified,
        stream: gmlake_alloc_api::StreamId::DEFAULT,
    };
    let free = |key| TraceEvent::Free {
        key,
        stream: gmlake_alloc_api::StreamId::DEFAULT,
    };
    t.events = vec![
        TraceEvent::IterBegin { index: 0 },
        alloc(1, mib(6)),
        alloc(2, mib(6)),
        alloc(3, mib(8)),
        alloc(4, mib(6)),
        free(1),
        free(3),
        alloc(5, final_request),
        free(5),
        free(2),
        free(4),
        TraceEvent::IterEnd { index: 0 },
    ];
    t.validate().unwrap();
    t
}

fn tiny_device() -> CudaDriver {
    CudaDriver::new(
        DeviceConfig::small_test()
            .with_capacity(mib(40))
            .with_backing(false),
    )
}

#[test]
fn baseline_ooms_where_gmlake_stitches() {
    let trace = figure1_trace(mib(16));

    let d1 = tiny_device();
    let mut baseline = CachingAllocator::new(d1.clone());
    let r_base = Replayer::new(d1).replay_with_samples(&mut baseline, &trace, 1);
    assert!(
        matches!(r_base.outcome, ReplayOutcome::Oom { .. }),
        "28 MiB free in fragments cannot serve 16 MiB contiguously"
    );

    let d2 = tiny_device();
    let mut lake =
        GmLakeAllocator::new(d2.clone(), GmLakeConfig::default().with_frag_limit(mib(2)));
    let r_lake = Replayer::new(d2.clone()).replay_with_samples(&mut lake, &trace, 1);
    assert!(r_lake.outcome.is_completed(), "stitching serves 16 MiB");
    assert_eq!(d2.phys_in_use(), lake.stats().reserved_bytes);
}

#[test]
fn oom_failure_is_clean_and_recoverable() {
    let driver = tiny_device();
    let mut lake = GmLakeAllocator::new(
        driver.clone(),
        GmLakeConfig::default().with_frag_limit(mib(2)),
    );
    let a = lake.allocate(AllocRequest::new(mib(30))).unwrap();
    let err = lake.allocate(AllocRequest::new(mib(20))).unwrap_err();
    assert!(matches!(err, AllocError::OutOfMemory { .. }));
    lake.validate().unwrap();
    // The allocator is fully usable after the failure.
    let b = lake.allocate(AllocRequest::new(mib(10))).unwrap();
    lake.deallocate(a.id).unwrap();
    lake.deallocate(b.id).unwrap();
    lake.validate().unwrap();
}

#[test]
fn gmlake_oom_releases_cache_before_failing() {
    let driver = tiny_device();
    let mut lake = GmLakeAllocator::new(
        driver.clone(),
        GmLakeConfig::default().with_frag_limit(mib(2)),
    );
    // Fill the device with cached (inactive) blocks of awkward sizes.
    let ids: Vec<_> = (0..5)
        .map(|_| lake.allocate(AllocRequest::new(mib(8))).unwrap().id)
        .collect();
    for id in ids {
        lake.deallocate(id).unwrap();
    }
    assert_eq!(driver.phys_in_use(), mib(40));
    // 38 MiB > any stitchable combination? No: stitching covers it (5×8=40).
    let big = lake.allocate(AllocRequest::new(mib(38))).unwrap();
    assert_eq!(driver.phys_in_use(), mib(40), "served from cache");
    lake.deallocate(big.id).unwrap();
    // 39 MiB requires 40 MiB of chunks — still fine. But with one block
    // held, a full-size request must fail *after* the fallback released
    // everything releasable.
    let hold = lake.allocate(AllocRequest::new(mib(8))).unwrap();
    let err = lake.allocate(AllocRequest::new(mib(36))).unwrap_err();
    assert!(matches!(err, AllocError::OutOfMemory { .. }));
    // The fallback reclaimed the idle cache: only the held allocation's
    // memory remains on the device.
    assert_eq!(driver.phys_in_use(), mib(8));
    lake.deallocate(hold.id).unwrap();
    lake.validate().unwrap();
}

#[test]
fn skip_mode_reports_every_failed_allocation() {
    let trace = figure1_trace(mib(16));
    let d = tiny_device();
    let mut baseline = CachingAllocator::new(d.clone());
    let opts = gmlake_workload::ReplayOptions {
        stop_on_oom: false,
        ..Default::default()
    };
    let r = Replayer::new(d)
        .with_options(opts)
        .replay_with_samples(&mut baseline, &trace, 1);
    assert!(r.outcome.is_completed());
    assert_eq!(r.skipped_allocs, 1);
    assert_eq!(baseline.stats().active_bytes, 0, "the rest completed");
}

#[test]
fn native_allocator_never_fragments() {
    // The native path trades latency for zero fragmentation: the Figure 1
    // stream succeeds because cudaFree really returns memory.
    let trace = figure1_trace(mib(16));
    let d = tiny_device();
    let mut native = NativeAllocator::new(d.clone());
    let r = Replayer::new(d.clone()).replay_with_samples(&mut native, &trace, 1);
    assert!(r.outcome.is_completed());
    assert!((r.utilization() - 1.0).abs() < 1e-9);
    assert_eq!(d.phys_in_use(), 0);
}

/// Asks `core` for sizes whose round-up to its granularity passes
/// `u64::MAX`, and for `u64::MAX / 2`, which fits the arithmetic but not
/// the device: every one is `OutOfMemory`, never a wrapped size or a
/// driver fault, and the core's books and later service are intact.
fn assert_refuses_past_u64_max(core: &mut dyn AllocatorCore) {
    let name = core.name();
    let refuse = |core: &mut dyn AllocatorCore| {
        for size in [u64::MAX - 100, u64::MAX, u64::MAX / 2] {
            match core.allocate(AllocRequest::new(size)) {
                Err(AllocError::OutOfMemory { .. }) => {}
                other => panic!("{name}: {size} bytes answered {other:?}"),
            }
        }
    };
    refuse(core);
    // Again with one 4 MiB block cached and one live.
    let cached = core.allocate(AllocRequest::new(mib(4))).unwrap();
    let live = core.allocate(AllocRequest::new(mib(4))).unwrap();
    core.deallocate(cached.id).unwrap();
    refuse(core);
    assert_eq!(core.stats().active_bytes, live.size, "{name}");
    let again = core.allocate(AllocRequest::new(mib(4))).unwrap();
    core.deallocate(again.id).unwrap();
    core.deallocate(live.id).unwrap();
    assert_eq!(core.stats().active_bytes, 0, "{name}");
}

#[test]
fn requests_past_u64_max_are_out_of_memory_on_every_core() {
    let lake = |d| GmLakeAllocator::new(d, GmLakeConfig::default().with_frag_limit(mib(2)));
    assert_refuses_past_u64_max(&mut NativeAllocator::new(tiny_device()));
    assert_refuses_past_u64_max(&mut CachingAllocator::new(tiny_device()));
    let mut gmlake = lake(tiny_device());
    assert_refuses_past_u64_max(&mut gmlake);
    gmlake.validate().unwrap();
    assert_refuses_past_u64_max(&mut PlannedCore::new(
        tiny_device(),
        PlannedConfig::default(),
    ));
    assert_refuses_past_u64_max(&mut DeviceAllocator::new(lake(tiny_device())));
}

/// The five cores, each over its own fresh 256 MiB `small_test` device.
fn every_core() -> Vec<(&'static str, Box<dyn AllocatorCore + Send>)> {
    let device = || CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    let lake = |d| GmLakeAllocator::new(d, GmLakeConfig::default());
    let d = device();
    vec![
        ("caching", Box::new(CachingAllocator::new(device()))),
        ("gmlake", Box::new(lake(device()))),
        (
            "planned-gmlake",
            Box::new(PlannedCore::new(device(), PlannedConfig::default())),
        ),
        (
            "planned-caching",
            Box::new(PlannedCore::with_fallback(
                d.clone(),
                CachingAllocator::new(d),
            )),
        ),
        ("native", Box::new(NativeAllocator::new(device()))),
    ]
}

/// Wraps `core` at `depth`: 0 the bare core, 1 `DeviceAllocator::new`,
/// 2 `PoolService::register`, with nothing installed on the pool.
fn at_depth(depth: u32, core: Box<dyn AllocatorCore + Send>) -> Box<dyn AllocatorCore> {
    match depth {
        0 => core,
        1 => Box::new(DeviceAllocator::new(core)),
        _ => Box::new(PoolService::new().register(DeviceId(0), core).unwrap()),
    }
}

#[test]
fn a_small_request_is_served_from_an_idle_cache_that_fills_the_device() {
    let mut failures = Vec::new();
    for depth in 0..3 {
        for (name, core) in every_core() {
            let mut alloc = at_depth(depth, core);
            let whole = alloc.allocate(AllocRequest::new(mib(256))).unwrap();
            alloc.deallocate(whole.id).unwrap();
            match alloc.allocate(AllocRequest::new(kib(64))) {
                Ok(a) => alloc.deallocate(a.id).unwrap(),
                Err(e) => failures.push(format!("{name} at depth {depth}: not served: {e:?}")),
            }
            // Held live, the device truly has no room: the error names the
            // caller's size and the core's own reservation.
            let whole = alloc.allocate(AllocRequest::new(mib(256))).unwrap();
            let err = alloc.allocate(AllocRequest::new(kib(64))).unwrap_err();
            let reserved = alloc.stats().reserved_bytes;
            let named = matches!(err, AllocError::OutOfMemory { requested, reserved: r, .. }
                if (requested, r) == (kib(64), reserved));
            if !named {
                failures.push(format!(
                    "{name} at depth {depth}: {err:?}, reserved {reserved}"
                ));
            }
            alloc.deallocate(whole.id).unwrap();
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
