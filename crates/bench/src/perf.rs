//! Pool builders shared by the criterion benches: the converged and
//! dense-sharing GMLake pools of `bestfit_scaling`, and the shared pool of
//! `pool_contention`.
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
/// LoRA traces reach: `parts` equal inactive pBlocks woven into `views`
/// (at most `parts - 1`) available views that all overlap — the view of
/// `j` blocks covers the `j` highest ids, so the highest id sits in every
/// view. An exact-match request for the largest view
/// (`parts × DENSE_PART_BYTES`) then flips `parts` blocks that each sit in
/// up to `views` views — the sharing [`build_converged_pool`]'s disjoint
/// pairs never show, and which an activity flip must not pay for.
///
/// Construction: requests of `parts`, `parts - 1`, … blocks' worth each
/// find no exact match and no single block large enough, so each stitches
/// the highest-id blocks and is freed again.
pub fn build_dense_sharing_pool(parts: usize, views: usize) -> GmLakeAllocator {
    let parts = parts.max(2) as u64;
    let views = (views as u64).clamp(1, parts - 1);
    let dev = DeviceConfig {
        name: format!("bench-dense-{parts}x{views}"),
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
    for j in (parts - views + 1..=parts).rev() {
        let view = lake
            .allocate(AllocRequest::new(j * DENSE_PART_BYTES))
            .expect("stitched from cached blocks");
        lake.deallocate(view.id).expect("live");
    }
    debug_assert_eq!(lake.pblock_count() as u64, parts);
    debug_assert_eq!(lake.sblock_count() as u64, views);
    lake
}

// ---------------------------------------------------------------------
// Pool-contention sweep harness of the `pool_contention` criterion bench.
// ---------------------------------------------------------------------

/// Builds the shared pool of the contention sweep: a caching core on a
/// zero-cost device. `cached = false` disables the front-end fast path,
/// reproducing the retired one-global-mutex `SharedAllocator` behaviour —
/// the sweep's baseline.
pub fn contention_pool(cached: bool) -> DeviceAllocator {
    let driver = CudaDriver::new(
        DeviceConfig::a100_80g()
            .with_cost(CostModel::zero())
            .with_capacity(gib(4)),
    );
    let config = if cached {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converged_pool_has_expected_shape_and_probes_agree() {
        let mut lake = build_converged_pool(40);
        assert_eq!(lake.pblock_count(), 40);
        assert_eq!(lake.sblock_count(), 20);
        lake.validate().unwrap();
        // Exact view size classifies S1; the stitch probe classifies S3 in
        // both implementations.
        assert_eq!(lake.probe_bestfit_indexed(VIEW_BYTES), 1);
        let indexes = lake.reference_indexes();
        assert_eq!(indexes.available_views.len(), 20);
        assert_eq!(indexes.inactive_pblocks.len(), 40);
        assert_eq!(
            lake.probe_bestfit_indexed(STITCH_PROBE_BYTES),
            lake.probe_bestfit_reference(STITCH_PROBE_BYTES, &indexes)
        );
        assert_eq!(lake.probe_bestfit_indexed(STITCH_PROBE_BYTES), 3);
    }

    #[test]
    fn dense_sharing_pool_has_expected_shape_and_fan_out() {
        let parts = 16u64;
        let mut flips = Vec::new();
        for views in [4, parts - 1] {
            let mut lake = build_dense_sharing_pool(parts as usize, views as usize);
            assert_eq!(lake.pblock_count() as u64, parts);
            assert_eq!(lake.sblock_count() as u64, views);
            lake.validate().unwrap();
            // The largest view exact-matches; flipping its parts costs one
            // flip per part and direction, whatever the fan-out to the
            // views over them.
            let before = lake.work_counters();
            let a = lake
                .allocate(AllocRequest::new(parts * DENSE_PART_BYTES))
                .unwrap();
            lake.deallocate(a.id).unwrap();
            assert_eq!(lake.state_counters().exact, 1);
            let after = lake.work_counters();
            assert_eq!(after.part_flips - before.part_flips, 2 * parts);
            assert_eq!(after.index_ops, before.index_ops, "no index entry moves");
            assert_eq!(after.view_index_ops, before.view_index_ops);
            assert_eq!(after.ref_scans, before.ref_scans);
            flips.push(after.views_verified - before.views_verified);
        }
        assert_eq!(flips, [1, 1], "one availability query per S1");
    }
}
