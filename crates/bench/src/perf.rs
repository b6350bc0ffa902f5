//! Hot-path perf harness: converged-pool builders and probe workloads
//! shared by the `bestfit_scaling` criterion bench and the `bench_pr2`
//! perf-snapshot binary.
//!
//! The interesting regime for `BestFit` is the paper's *converged* steady
//! state: nearly every inactive pBlock is woven into a cached, fully
//! inactive sBlock (`StitchCost::ReferencedAvailable`). In that state the
//! reference implementation's S3 classification makes two full
//! closure-evaluating passes over the pool (the unreferenced and
//! referenced-blocked tiers are empty) before the third pass succeeds,
//! while the tiered-index implementation probes two empty sets and walks a
//! handful of candidates. [`build_converged_pool`] constructs exactly that
//! state at an arbitrary scale.

use std::time::Instant;

use gmlake_alloc_api::{
    gib, kib, mib, AllocRequest, AllocatorCore, DeviceAllocator, DeviceAllocatorConfig,
};
use gmlake_caching::CachingAllocator;
use gmlake_core::{GmLakeAllocator, GmLakeConfig};
use gmlake_gpu_sim::{CostModel, CudaDriver, DeviceConfig};

/// Size of each cached stitched view the builder creates.
pub const VIEW_BYTES: u64 = mib(10);
/// A request no cached structure can satisfy alone: forces the S3
/// (multi-block) classification, the reference path's worst case.
pub const STITCH_PROBE_BYTES: u64 = mib(20);

/// Builds a GMLake allocator in the converged steady state with
/// `n_blocks` inactive pBlocks (rounded down to a pair multiple), every
/// one referenced by an available cached sBlock.
///
/// Construction: pairs of 4 + 6 MiB tensors are freed and re-requested as
/// 10 MiB, which stitches them; holding every 10 MiB tensor until the end
/// keeps earlier structures out of `BestFit`'s way, and the final bulk
/// free flips all views to available at once.
pub fn build_converged_pool(n_blocks: usize) -> GmLakeAllocator {
    let pairs = (n_blocks / 2).max(1);
    let dev = DeviceConfig {
        name: format!("bench-pool-{n_blocks}"),
        capacity: pairs as u64 * VIEW_BYTES + mib(64),
        granularity: mib(2),
        backing: false,
        cost: CostModel::zero(),
    };
    let cfg = GmLakeConfig::default()
        .with_frag_limit(mib(2))
        .with_max_sblocks(n_blocks.max(8192));
    let mut lake = GmLakeAllocator::new(CudaDriver::new(dev), cfg);
    let mut held = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let a = lake.allocate(AllocRequest::new(mib(4))).expect("capacity");
        let b = lake.allocate(AllocRequest::new(mib(6))).expect("capacity");
        lake.deallocate(a.id).expect("live");
        lake.deallocate(b.id).expect("live");
        // The only inactive blocks right now are a and b: this stitches
        // them, and stays assigned so later pairs cannot disturb it.
        let c = lake
            .allocate(AllocRequest::new(VIEW_BYTES))
            .expect("capacity");
        held.push(c.id);
    }
    for id in held {
        lake.deallocate(id).expect("live");
    }
    debug_assert_eq!(lake.pblock_count(), pairs * 2);
    debug_assert_eq!(lake.sblock_count(), pairs);
    lake
}

/// Size of every pBlock of the dense-sharing pool.
pub const DENSE_PART_BYTES: u64 = mib(2);

/// Builds a GMLake allocator in the *dense-sharing* converged state the
/// LoRA traces reach: `parts` equal inactive pBlocks woven into
/// `parts - 1` available views that all overlap (the view of `j` blocks
/// covers the `j` highest ids, so the highest id sits in every view). An
/// exact-match request for the largest view (`parts × DENSE_PART_BYTES`)
/// then flips `parts` blocks that each fan out to up to `parts - 1` views
/// — the activity-flip cost [`build_converged_pool`]'s disjoint pairs
/// never show.
///
/// Construction: requests of `parts`, `parts - 1`, … 2 blocks' worth each
/// find no exact match and no single block large enough, so each stitches
/// the highest-id blocks and is freed again.
pub fn build_dense_sharing_pool(parts: usize) -> GmLakeAllocator {
    let parts = parts.max(2) as u64;
    let dev = DeviceConfig {
        name: format!("bench-dense-{parts}"),
        capacity: parts * DENSE_PART_BYTES + mib(64),
        granularity: mib(2),
        backing: false,
        cost: CostModel::zero(),
    };
    let cfg = GmLakeConfig::default().with_frag_limit(DENSE_PART_BYTES);
    let mut lake = GmLakeAllocator::new(CudaDriver::new(dev), cfg);
    let held: Vec<_> = (0..parts)
        .map(|_| {
            let a = lake.allocate(AllocRequest::new(DENSE_PART_BYTES));
            a.expect("capacity").id
        })
        .collect();
    for id in held {
        lake.deallocate(id).expect("live");
    }
    for j in (2..=parts).rev() {
        let view = lake
            .allocate(AllocRequest::new(j * DENSE_PART_BYTES))
            .expect("stitched from cached blocks");
        lake.deallocate(view.id).expect("live");
    }
    debug_assert_eq!(lake.pblock_count() as u64, parts);
    debug_assert_eq!(lake.sblock_count() as u64, parts - 1);
    lake
}

// ---------------------------------------------------------------------
// Pool-contention sweep harness, shared by the `pool_contention` criterion
// bench and the `bench_pr3` snapshot/CI-gate binary so both measure the
// same workload.
// ---------------------------------------------------------------------

/// Builds the shared pool of the contention sweep: a caching core on a
/// zero-cost device. `sharded = false` disables the front-end fast path,
/// reproducing the retired one-global-mutex `SharedAllocator` behaviour —
/// the sweep's baseline.
pub fn contention_pool(sharded: bool) -> DeviceAllocator {
    let driver = CudaDriver::new(
        DeviceConfig::a100_80g()
            .with_cost(CostModel::zero())
            .with_capacity(gib(4)),
    );
    let config = if sharded {
        DeviceAllocatorConfig::default()
    } else {
        DeviceAllocatorConfig::default().with_small_threshold(0)
    };
    DeviceAllocator::with_config(CachingAllocator::new(driver), config)
}

/// Distinct small size per sweep thread (distinct power-of-two classes,
/// 8 KiB … 1 MiB for threads 0…7), as data-parallel ranks with different
/// tensor shapes would issue.
pub fn contention_thread_size(t: usize) -> u64 {
    kib(8) << t
}

// ---------------------------------------------------------------------
// Stream-sweep harness (PR 4), shared by the `bench_pr4` snapshot/CI-gate
// binary.
// ---------------------------------------------------------------------

/// Size every thread of the stream sweep allocates: ONE shared class, the
/// worst case for pure size-class sharding (all threads hash to the same
/// shard) and precisely the case per-stream banks exist to fix — identical
/// tensor shapes issued concurrently on independent streams.
pub const STREAM_SWEEP_SIZE: u64 = kib(64);

/// Builds the stream sweep's shared pool: a caching core on a zero-cost
/// device behind a front-end with `streams` cache banks (1 = the PR 3
/// single-pool layout, the sweep's baseline).
pub fn stream_pool(streams: usize) -> DeviceAllocator {
    let driver = CudaDriver::new(
        DeviceConfig::a100_80g()
            .with_cost(CostModel::zero())
            .with_capacity(gib(4)),
    );
    DeviceAllocator::with_config(
        CachingAllocator::new(driver),
        DeviceAllocatorConfig::default().with_streams(streams),
    )
}

/// Builds the event-backed variant of [`stream_pool`] (PR 5): the same
/// caching core on a zero-cost device, with a clone of the device's driver
/// as the front-end's [`EventSource`] — cross-stream frees record a real
/// driver event and park in the pending rings instead of round-tripping
/// through the core mutex. On the zero-cost device no stream work is ever
/// in flight, so every event completes at record time: the sweep measures
/// the pure mechanics of the event-guarded path (record + park + promote),
/// not event latency.
///
/// [`EventSource`]: gmlake_alloc_api::EventSource
pub fn stream_pool_with_events(streams: usize) -> DeviceAllocator {
    let driver = CudaDriver::new(
        DeviceConfig::a100_80g()
            .with_cost(CostModel::zero())
            .with_capacity(gib(4)),
    );
    DeviceAllocator::with_config_and_events(
        CachingAllocator::new(driver.clone()),
        DeviceAllocatorConfig::default().with_streams(streams),
        std::sync::Arc::new(driver),
    )
}

/// Builds the telemetry variant of [`stream_pool_with_events`] (PR 6): the
/// same event-backed pool with a [`PoolTelemetry`] sink attached exactly
/// as `PoolService::register` attaches it (default 1-in-32 hot-path
/// sampling), optionally pre-enabled. The driver doubles as the sink's
/// clock and feeds the driver-call histogram, mirroring the full profiled
/// stack so `bench_pr6` measures realistic end-to-end overhead.
///
/// [`PoolTelemetry`]: gmlake_telemetry::PoolTelemetry
pub fn stream_pool_with_telemetry(streams: usize, enabled: bool) -> DeviceAllocator {
    let driver = CudaDriver::new(
        DeviceConfig::a100_80g()
            .with_cost(CostModel::zero())
            .with_capacity(gib(4)),
    );
    let telemetry = std::sync::Arc::new(
        gmlake_telemetry::PoolTelemetry::new().with_clock(std::sync::Arc::new(driver.clone())),
    );
    if enabled {
        telemetry.enable();
    }
    driver.set_telemetry(std::sync::Arc::clone(&telemetry));
    DeviceAllocator::try_build(
        Box::new(CachingAllocator::new(driver.clone())),
        DeviceAllocatorConfig::default().with_streams(streams),
        Some(std::sync::Arc::new(driver)),
        Some(telemetry),
    )
    .expect("default config with a valid stream count")
}

// ---------------------------------------------------------------------
// Large-path sweep harness (PR 9), shared by the `bench_pr9` snapshot/
// CI-gate binary.
// ---------------------------------------------------------------------

/// Size every thread of the large sweep allocates: comfortably above the
/// 2 MiB stitch threshold, so every request takes the GMLake large path —
/// the traffic that used to serialize on the core mutex regardless of
/// stream.
pub const LARGE_SWEEP_SIZE: u64 = mib(4);

/// Inactive pBlocks the large pool is primed with before the sweep runs.
/// An empty core makes the mutex baseline unrealistically cheap: real
/// GMLake pools carry a populated inactive index, and the pre-PR 9 design
/// ran `BestFit` + tier maintenance over it *inside the mutex* for every
/// warm large request — precisely the per-op work the bank route's warm
/// hits never do.
pub const LARGE_POOL_PRIMED_BLOCKS: usize = 256;

/// Builds the large sweep's shared pool: a GMLake core on a zero-cost
/// device, primed with [`LARGE_POOL_PRIMED_BLOCKS`] assorted inactive
/// blocks (6–12 MiB), behind a front-end with `streams` large banks and a
/// clone of the driver as the [`EventSource`] (cross-stream large frees
/// park behind real driver events). `cap` is `max_cached_large_per_bank`:
/// 0 disables the per-stream large banks entirely, reproducing the
/// pre-PR 9 layout where every above-threshold allocation round-trips the
/// core mutex — the sweep's in-process baseline.
///
/// [`EventSource`]: gmlake_alloc_api::EventSource
pub fn large_pool(streams: usize, cap: usize) -> DeviceAllocator {
    let driver = CudaDriver::new(
        DeviceConfig::a100_80g()
            .with_cost(CostModel::zero())
            .with_capacity(gib(8)),
    );
    let mut lake = GmLakeAllocator::new(driver.clone(), GmLakeConfig::default());
    let mut held = Vec::with_capacity(LARGE_POOL_PRIMED_BLOCKS);
    for i in 0..LARGE_POOL_PRIMED_BLOCKS {
        let size = mib(6 + 2 * (i % 4) as u64);
        held.push(lake.allocate(AllocRequest::new(size)).expect("capacity").id);
    }
    for id in held {
        lake.deallocate(id).expect("live");
    }
    DeviceAllocator::with_config_and_events(
        lake,
        DeviceAllocatorConfig::default()
            .with_streams(streams)
            .with_max_cached_large_per_bank(cap),
        std::sync::Arc::new(driver),
    )
}

/// Minimal field extractor for the committed `BENCH_PR<n>.json` snapshots
/// used by the `--check` CI gates: finds the first `"name": <number>`
/// occurrence. The snapshots are machine-written by the bench binaries
/// themselves, so no general JSON parsing is needed.
pub fn extract_field(json: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let at = json.find(&key)? + key.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Times `op` with a two-point read of the monotonic clock around a single
/// block of iterations (sized by a one-call estimate against
/// `budget_ms`), returning ns per call. Mirrors the criterion shim's
/// measurement strategy so the binary and the bench report comparable
/// numbers.
pub fn time_ns_per_call(budget_ms: u64, mut op: impl FnMut()) -> f64 {
    op(); // warm-up
    let t = Instant::now();
    op();
    let est = t.elapsed().as_nanos().max(1);
    let iters = ((budget_ms as u128 * 1_000_000) / est).clamp(1, 1_000_000) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// One pool-size sample of the scaling sweep.
#[derive(Debug, Clone)]
pub struct ScalingSample {
    /// Inactive pBlocks in the pool.
    pub pool_blocks: usize,
    /// Full allocate+deallocate round-trip of an exact-match (S1) request.
    pub alloc_free_s1_ns: f64,
    /// Indexed `BestFit` classification of an S3 (stitch) request.
    pub probe_indexed_ns: f64,
    /// Reference (pre-index) `BestFit` classification of the same request.
    pub probe_reference_ns: f64,
}

impl ScalingSample {
    /// reference / indexed classification-time ratio.
    pub fn speedup(&self) -> f64 {
        self.probe_reference_ns / self.probe_indexed_ns
    }
}

/// Runs the sweep for one pool size.
pub fn sample_pool(n_blocks: usize, budget_ms: u64) -> ScalingSample {
    let mut lake = build_converged_pool(n_blocks);
    let alloc_free_s1_ns = time_ns_per_call(budget_ms, || {
        let a = lake
            .allocate(AllocRequest::new(VIEW_BYTES))
            .expect("exact match");
        lake.deallocate(a.id).expect("live");
    });
    let probe_indexed_ns = time_ns_per_call(budget_ms, || {
        std::hint::black_box(lake.probe_bestfit_indexed(STITCH_PROBE_BYTES));
    });
    let flat = lake.flat_inactive_index();
    let probe_reference_ns = time_ns_per_call(budget_ms, || {
        std::hint::black_box(lake.probe_bestfit_reference(STITCH_PROBE_BYTES, &flat));
    });
    ScalingSample {
        pool_blocks: n_blocks,
        alloc_free_s1_ns,
        probe_indexed_ns,
        probe_reference_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converged_pool_has_expected_shape_and_probes_agree() {
        let lake = build_converged_pool(40);
        assert_eq!(lake.pblock_count(), 40);
        assert_eq!(lake.sblock_count(), 20);
        lake.validate().unwrap();
        // Exact view size classifies S1; the stitch probe classifies S3 in
        // both implementations.
        assert_eq!(lake.probe_bestfit_indexed(VIEW_BYTES), 1);
        let flat = lake.flat_inactive_index();
        assert_eq!(flat.len(), 40, "every pblock is inactive");
        assert_eq!(
            lake.probe_bestfit_indexed(STITCH_PROBE_BYTES),
            lake.probe_bestfit_reference(STITCH_PROBE_BYTES, &flat)
        );
        assert_eq!(lake.probe_bestfit_indexed(STITCH_PROBE_BYTES), 3);
    }

    #[test]
    fn dense_sharing_pool_has_expected_shape_and_fan_out() {
        let parts = 16u64;
        let mut lake = build_dense_sharing_pool(parts as usize);
        assert_eq!(lake.pblock_count() as u64, parts);
        assert_eq!(lake.sblock_count() as u64, parts - 1);
        lake.validate().unwrap();
        // The largest view exact-matches, and flipping its parts fans out
        // to every view over them: Σr = 2 + … + parts bumps per direction.
        let before = lake.work_counters().sblock_bumps;
        let a = lake
            .allocate(AllocRequest::new(parts * DENSE_PART_BYTES))
            .unwrap();
        lake.deallocate(a.id).unwrap();
        assert_eq!(lake.state_counters().exact, 1);
        let bumps = lake.work_counters().sblock_bumps - before;
        assert_eq!(bumps, 2 * (2..=parts).sum::<u64>());
    }

    #[test]
    fn stream_pool_partitions_by_stream() {
        use gmlake_alloc_api::StreamId;
        let pool = stream_pool(8);
        assert_eq!(pool.cache_stats().streams, 8);
        let a = pool
            .alloc_on_stream(AllocRequest::new(STREAM_SWEEP_SIZE), StreamId(3))
            .expect("capacity");
        pool.free_on_stream(a.id, StreamId(3)).expect("live");
        assert_eq!(pool.stream_cache_stats(StreamId(3)).cached_blocks, 1);
        assert_eq!(pool.stream_cache_stats(StreamId(0)).cached_blocks, 0);
    }

    #[test]
    fn event_pool_recycles_cross_stream_blocks_without_core_traffic() {
        use gmlake_alloc_api::StreamId;
        // The steady-state cycle bench_pr5's cross_events shape measures:
        // alloc on t, free on t+1 (parks behind a driver event that is
        // complete at record time), alloc on t again promotes and reuses.
        let pool = stream_pool_with_events(8);
        let a = pool
            .alloc_on_stream(AllocRequest::new(STREAM_SWEEP_SIZE), StreamId(2))
            .expect("capacity");
        pool.free_on_stream(a.id, StreamId(3)).expect("live");
        let core_allocs = pool.with_core(|c| c.stats().alloc_count);
        let b = pool
            .alloc_on_stream(AllocRequest::new(STREAM_SWEEP_SIZE), StreamId(2))
            .expect("capacity");
        assert_eq!(b.va, a.va, "the parked block was promoted and reused");
        assert_eq!(
            pool.with_core(|c| c.stats().alloc_count),
            core_allocs,
            "no core round trip on the warm event path"
        );
        let c = pool.cache_stats();
        assert_eq!((c.cross_stream_parked, c.event_promotions), (1, 1));
        assert_eq!(c.cross_stream_fallback, 0);
        pool.free_on_stream(b.id, StreamId(2)).expect("live");
    }

    #[test]
    fn timing_helper_returns_positive_nanoseconds() {
        let ns = time_ns_per_call(1, || {
            std::hint::black_box(42u64.wrapping_mul(7));
        });
        assert!(ns > 0.0);
    }
}
