//! Unit tests for the GMLake allocator: every state of Figure 9, the cache
//! lifecycle, convergence, eviction, OOM semantics and data integrity.

use gmlake_alloc_api::{mib, AllocError, AllocRequest, AllocationId, AllocatorCore};
use gmlake_gpu_sim::{CudaDriver, DeviceConfig};

use crate::{GmLakeAllocator, GmLakeConfig};

/// A lake on a 256 MiB test device with byte backing, zero-cost model and a
/// 2 MiB fragmentation limit (so splits actually happen at test sizes).
fn lake() -> GmLakeAllocator {
    lake_with(DeviceConfig::small_test(), test_config())
}

/// The default configuration with a 2 MiB fragmentation limit.
fn test_config() -> GmLakeConfig {
    GmLakeConfig::default().with_frag_limit(mib(2))
}

fn lake_with(dev: DeviceConfig, cfg: GmLakeConfig) -> GmLakeAllocator {
    GmLakeAllocator::new(CudaDriver::new(dev), cfg)
}

#[test]
fn fresh_allocation_is_s4_direct_pblock() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(10))).unwrap();
    assert_eq!(a.size, mib(10));
    assert_eq!(l.state_counters().insufficient, 1);
    assert_eq!(
        l.state_counters().stitches,
        0,
        "no candidates: direct pBlock"
    );
    assert_eq!(l.reserved_physical(), mib(10));
    assert_eq!(l.driver().phys_in_use(), mib(10));
    l.validate().unwrap();
    l.deallocate(a.id).unwrap();
    assert_eq!(
        l.reserved_physical(),
        mib(10),
        "Update never frees physical"
    );
    l.validate().unwrap();
}

#[test]
fn non_chunk_sizes_round_up_to_2mib_multiple() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(5))).unwrap();
    assert_eq!(a.size, mib(6), "5 MiB rounds to 3 chunks");
    assert_eq!(a.requested, mib(5));
    assert_eq!(a.rounding_waste(), mib(1));
    l.validate().unwrap();
}

#[test]
fn free_then_same_size_is_exact_match() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(10))).unwrap();
    l.deallocate(a.id).unwrap();
    let b = l.allocate(AllocRequest::new(mib(10))).unwrap();
    assert_eq!(b.va, a.va, "same pBlock reused");
    assert_eq!(l.state_counters().exact, 1);
    // The first allocation created its one handle; the exact match created
    // nothing.
    assert_eq!(l.driver().stats().create.calls, 1, "no new create calls");
    assert_eq!(
        l.driver().snapshot().phys_created_total,
        mib(10),
        "no new memory"
    );
    l.validate().unwrap();
}

#[test]
fn s2_split_creates_remainder_without_new_memory() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(10))).unwrap();
    l.deallocate(a.id).unwrap();
    // 4 MiB out of an inactive 10 MiB block: split 4 + 6, nothing stitched.
    let b = l.allocate(AllocRequest::new(mib(4))).unwrap();
    assert_eq!(b.size, mib(4));
    let c = l.state_counters();
    assert_eq!((c.single, c.splits, c.stitches), (1, 1, 0));
    assert_eq!(l.reserved_physical(), mib(10), "no new physical memory");
    assert_eq!((l.pblock_count(), l.sblock_count()), (2, 0));
    l.validate().unwrap();
    // The 6 MiB remainder exact-matches a 6 MiB request, still with no new
    // physical memory.
    let r = l.allocate(AllocRequest::new(mib(6))).unwrap();
    assert_eq!(r.va, b.va.offset(mib(4)));
    assert_eq!(l.state_counters().exact, 1);
    assert_eq!(l.reserved_physical(), mib(10));
    l.validate().unwrap();
}

#[test]
fn split_does_not_cache_halves_by_default() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(10))).unwrap();
    l.deallocate(a.id).unwrap();
    let b = l.allocate(AllocRequest::new(mib(4))).unwrap();
    assert_eq!(b.size, mib(4), "split still happens");
    assert_eq!(l.state_counters().splits, 1);
    assert_eq!(l.state_counters().stitches, 0, "no halves sBlock");
    assert_eq!(l.sblock_count(), 0);
    // A 10 MiB re-request is served by stitching the two halves (S3), with
    // no new physical memory.
    l.deallocate(b.id).unwrap();
    let c = l.allocate(AllocRequest::new(mib(10))).unwrap();
    assert_eq!(c.size, mib(10));
    assert_eq!(l.reserved_physical(), mib(10));
    assert_eq!(l.state_counters().multi, 1);
    l.validate().unwrap();
}

/// A 10 MiB block split in place into a held 4 MiB left child and an idle
/// 6 MiB right one, on a calibrated device.
fn split_ten_into_four_and_six() -> (GmLakeAllocator, gmlake_alloc_api::Allocation) {
    let dev = DeviceConfig::small_test().with_cost(gmlake_gpu_sim::CostModel::calibrated());
    let mut l = lake_with(dev, GmLakeConfig::default().with_frag_limit(mib(2)));
    let parent = l.allocate(AllocRequest::new(mib(10))).unwrap();
    l.deallocate(parent.id).unwrap();
    let driver = l.driver().clone();
    let (stats, clock) = (driver.stats(), driver.now_ns());
    let left = l.allocate(AllocRequest::new(mib(4))).unwrap();
    assert_eq!(l.state_counters().splits, 1);
    assert_eq!(driver.stats(), stats, "a split makes no driver call");
    assert_eq!(driver.now_ns() - clock, driver.host_op_ns(), "host op only");
    assert_eq!(left.va, parent.va, "the left child keeps the parent's base");
    assert_eq!(driver.snapshot().reservations, 1);
    l.validate().unwrap();
    (l, left)
}

#[test]
fn split_in_place_children_tile_the_parent_and_share_its_reservation() {
    let (mut l, left) = split_ten_into_four_and_six();
    let driver = l.driver().clone();
    // The right child is the rest of the parent's range: an exact match.
    let right = l.allocate(AllocRequest::new(mib(6))).unwrap();
    assert_eq!(l.state_counters().exact, 1);
    assert_eq!(right.va, left.va.offset(mib(4)), "children tile the parent");
    // One handle backs both children, each at its offset in it.
    let granules = driver.translate(left.va, mib(10)).unwrap();
    let handle = granules[0].0;
    let expected: Vec<_> = (0..5).map(|i| (handle, i * mib(2))).collect();
    assert_eq!(granules, expected, "the reservation's handle, in VA order");
    assert_eq!(driver.snapshot().handles, 1);
    // Bytes written across the children's seam land at the right child.
    driver
        .memcpy_htod(left.va.offset(mib(4) - 2), b"seam")
        .unwrap();
    let mut buf = [0u8; 2];
    driver.memcpy_dtoh(right.va, &mut buf).unwrap();
    assert_eq!(&buf, b"am");
    // A partly live reservation stays whole ...
    l.deallocate(left.id).unwrap();
    assert_eq!(l.release_cached(), 0);
    assert_eq!(driver.snapshot().reservations, 1, "the right piece is live");
    assert_eq!(driver.stats().address_free.calls, 0);
    l.validate().unwrap();
    // ... and goes back whole with its last piece.
    l.deallocate(right.id).unwrap();
    assert_eq!(l.release_cached(), mib(10));
    assert_eq!(driver.stats().address_free.calls, 1);
    assert!(driver.snapshot().is_quiescent());
    l.validate().unwrap();
}

#[test]
fn release_fault_on_a_reservation_rolls_back_with_every_piece_intact() {
    use gmlake_gpu_sim::{FaultOp, FaultPlan};
    let (mut l, left) = split_ten_into_four_and_six();
    let driver = l.driver().clone();
    driver
        .memcpy_htod(left.va.offset(mib(4) - 4), b"kept")
        .unwrap();
    l.deallocate(left.id).unwrap();
    // Both pieces are idle: the walk merges them and returns the
    // reservation, whose release faults.
    driver.set_fault_plan(FaultPlan::new().fail_nth(FaultOp::Release, 1));
    assert_eq!(l.release_cached(), 0);
    assert_eq!(driver.stats().injected_faults, 1);
    assert_eq!(l.pblock_count(), 1, "the merged piece survives");
    let snap = driver.snapshot();
    assert_eq!((snap.reservations, snap.handles, snap.mappings), (1, 1, 1));
    let journal = l.fault_journal();
    assert_eq!(journal.failed_ops, 1);
    assert!(journal.is_leak_free(), "{journal:?}");
    l.validate().unwrap();
    // Re-mapped with access re-enabled: the whole range serves again at
    // its old address, bytes intact.
    let whole = l.allocate(AllocRequest::new(mib(10))).unwrap();
    assert_eq!(whole.va, left.va);
    let mut buf = [0u8; 4];
    driver
        .memcpy_dtoh(whole.va.offset(mib(4) - 4), &mut buf)
        .unwrap();
    assert_eq!(&buf, b"kept");
    driver.clear_fault_plan();
    l.deallocate(whole.id).unwrap();
    assert_eq!(l.release_cached(), mib(10));
    assert!(driver.snapshot().is_quiescent());
    l.validate().unwrap();
}

#[test]
fn a_stitched_view_is_one_map_entry_and_one_access_charge_per_part() {
    let dev = DeviceConfig::small_test().with_cost(gmlake_gpu_sim::CostModel::calibrated());
    let mut l = lake_with(dev, test_config());
    let driver = l.driver().clone();
    let cost = driver.cost_model();
    let sizes = [mib(8), mib(6), mib(4)];
    let held: Vec<_> = sizes
        .iter()
        .map(|&s| l.allocate(AllocRequest::new(s)).unwrap())
        .collect();
    // Each fresh reservation is one handle and one mapping.
    let snap = driver.snapshot();
    assert_eq!((snap.handles, snap.mappings), (3, 3));
    for a in held {
        l.deallocate(a.id).unwrap();
    }
    let (before, mappings) = (driver.stats(), snap.mappings);
    let view = l.allocate(AllocRequest::new(mib(18))).unwrap();
    assert_eq!(l.state_counters().stitches, 1, "[8, 6, 4]");
    let after = driver.stats();
    assert_eq!(
        driver.snapshot().mappings - mappings,
        3,
        "one entry per part"
    );
    assert_eq!(after.map.calls - before.map.calls, 3);
    assert_eq!(after.set_access.calls - before.set_access.calls, 1);
    let per_part: u64 = sizes.iter().map(|&s| cost.set_access_ns(s)).sum();
    assert_eq!(
        after.set_access.time_ns - before.set_access.time_ns,
        per_part,
        "access charged once per part, at the part's size"
    );
    l.deallocate(view.id).unwrap();
    l.validate().unwrap();
}

#[test]
fn release_cached_keeps_a_partly_live_reservation_with_its_idle_pieces_merged() {
    let mut l = lake();
    let driver = l.driver().clone();
    let whole = l.allocate(AllocRequest::new(mib(16))).unwrap();
    let other = l.allocate(AllocRequest::new(mib(6))).unwrap();
    l.deallocate(whole.id).unwrap();
    // Two S2 splits cut the reservation into 4 | 4 | 8; the middle frees.
    let head = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let mid = l.allocate(AllocRequest::new(mib(4))).unwrap();
    assert_eq!(mid.va, whole.va.offset(mib(4)));
    assert_eq!(l.pblock_count(), 4);
    l.deallocate(mid.id).unwrap();
    // The walk merges the idle 4 + 8 tail, by bookkeeping alone, and keeps
    // the reservation: its head is live.
    let calls = driver.stats().total_calls();
    assert_eq!(l.release_cached(), 0);
    assert_eq!(driver.stats().total_calls(), calls, "no driver call");
    assert_eq!(l.pblock_count(), 3, "the idle tail merged");
    assert_eq!(driver.snapshot().reservations, 2);
    l.validate().unwrap();
    // The merged piece stitches as one part: 18 MiB is [12, 6], not
    // [8, 6, 4].
    l.deallocate(other.id).unwrap();
    let mappings = driver.snapshot().mappings;
    let view = l.allocate(AllocRequest::new(mib(18))).unwrap();
    assert_eq!(l.state_counters().multi, 1);
    assert_eq!(driver.snapshot().mappings - mappings, 2);
    assert_eq!(l.reserved_physical(), mib(22), "no new memory");
    l.validate().unwrap();
    // Only the wholly idle reservation goes back; the split one follows
    // its last piece.
    l.deallocate(view.id).unwrap();
    assert_eq!(l.release_cached(), mib(6));
    l.deallocate(head.id).unwrap();
    assert_eq!(l.release_cached(), mib(16));
    assert!(driver.snapshot().is_quiescent());
    l.validate().unwrap();
}

#[test]
fn s2_whole_block_when_remainder_below_frag_limit() {
    let mut l = lake_with(
        DeviceConfig::small_test(),
        GmLakeConfig::default().with_frag_limit(mib(8)),
    );
    let a = l.allocate(AllocRequest::new(mib(10))).unwrap();
    l.deallocate(a.id).unwrap();
    // Remainder would be 4 MiB < 8 MiB limit: use the block whole.
    let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
    assert_eq!(b.size, mib(10), "whole block assigned");
    assert_eq!(l.state_counters().splits, 0);
    assert_eq!(l.state_counters().stitches, 0);
    l.validate().unwrap();
}

#[test]
fn s3_stitches_freed_blocks_without_new_memory() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    let before = l.driver().stats();
    let c = l.allocate(AllocRequest::new(mib(10))).unwrap();
    assert_eq!(c.size, mib(10));
    assert_eq!(l.state_counters().multi, 1);
    assert_eq!(l.state_counters().stitches, 1);
    let after = l.driver().stats();
    assert_eq!(after.create.calls, before.create.calls, "zero cuMemCreate");
    assert_eq!(
        after.map.calls - before.map.calls,
        2,
        "one map per part, not one per 2 MiB chunk"
    );
    assert_eq!(l.reserved_physical(), mib(10));
    l.validate().unwrap();
}

#[test]
fn s3_with_split_of_final_candidate() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(8))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    // Need 10: candidates desc = [8, 6] sum 14 > 10; final candidate 6 is
    // split into 2 + 4 (need = 10 - 8 = 2).
    let c = l.allocate(AllocRequest::new(mib(10))).unwrap();
    assert_eq!(c.size, mib(10), "stitched size is exact");
    let counters = l.state_counters();
    assert_eq!(counters.multi, 1);
    assert_eq!(counters.splits, 1);
    assert_eq!(counters.stitches, 1);
    assert_eq!(l.reserved_physical(), mib(14), "no new physical");
    l.validate().unwrap();
    // The 4 MiB remainder is still allocatable.
    let d = l.allocate(AllocRequest::new(mib(4))).unwrap();
    assert_eq!(l.reserved_physical(), mib(14));
    l.deallocate(d.id).unwrap();
    l.deallocate(c.id).unwrap();
    l.validate().unwrap();
}

/// An S3 closes with the smallest idle block that covers the rest whole,
/// not with a split of the next-largest, so that block stays whole for the
/// next request of its size: an S1 hit with no driver call.
#[test]
fn a_stitch_closes_whole_and_leaves_the_larger_block_for_its_request() {
    let mut l = lake();
    let driver = l.driver().clone();
    let held: Vec<_> = [64, 40, 24]
        .map(|s| l.allocate(AllocRequest::new(mib(s))).unwrap())
        .into();
    for a in held {
        l.deallocate(a.id).unwrap();
    }
    assert_eq!(driver.snapshot().reservations, 3);
    // Need 88: 64 first, then the 24 covers the last 24 exactly; the 40
    // is neither taken nor split.
    let view = l.allocate(AllocRequest::new(mib(88))).unwrap();
    let counters = l.state_counters();
    assert_eq!(
        (counters.multi, counters.stitches, counters.splits),
        (1, 1, 0)
    );
    let before = driver.stats();
    let b = l.allocate(AllocRequest::new(mib(40))).unwrap();
    let after = driver.stats();
    assert_eq!(after.map.calls - before.map.calls, 0, "zero map");
    assert_eq!(
        after.set_access.calls - before.set_access.calls,
        0,
        "zero set_access"
    );
    assert_eq!(l.state_counters().exact, counters.exact + 1);
    assert_eq!(l.reserved_physical(), mib(128), "no new memory");
    l.deallocate(b.id).unwrap();
    l.deallocate(view.id).unwrap();
    l.validate().unwrap();
}

/// At the default 4 MiB fragmentation limit an S3 keeps a final candidate
/// whole rather than split off a 2 MiB remainder, so the view maps more
/// than the request. It is filed under the request, so repeating the
/// request is an S1 hit on the same view with no driver call: the steady
/// state the paper's §4.2.2 describes.
#[test]
fn oversized_view_serves_its_request_again() {
    let mut l = lake_with(DeviceConfig::small_test(), GmLakeConfig::default());
    let a = l.allocate(AllocRequest::new(mib(8))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    // Need 12: candidates desc = [8, 6] sum 14; splitting the 6 would leave
    // 2 MiB, below the limit, so the view maps all 14.
    let c = l.allocate(AllocRequest::new(mib(12))).unwrap();
    assert_eq!(c.size, mib(14), "last part kept whole");
    let counters = l.state_counters();
    assert_eq!((counters.multi, counters.splits), (1, 0));
    l.deallocate(c.id).unwrap();
    let calls = l.driver().stats().total_calls();
    let d = l.allocate(AllocRequest::new(mib(12))).unwrap();
    assert_eq!((d.va, d.size), (c.va, c.size), "the same view");
    assert_eq!(l.driver().stats().total_calls(), calls, "no driver call");
    let after = l.state_counters();
    assert_eq!(after.exact, counters.exact + 1);
    assert_eq!(
        (after.non_exact(), after.stitches),
        (counters.non_exact(), 1)
    );
    l.validate().unwrap();
}

#[test]
fn s4_tops_up_with_fresh_chunks_and_stitches() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    l.deallocate(a.id).unwrap();
    let c = l.allocate(AllocRequest::new(mib(10))).unwrap();
    assert_eq!(c.size, mib(10));
    let counters = l.state_counters();
    assert_eq!(counters.insufficient, 2, "first alloc + this one");
    assert_eq!(counters.stitches, 1);
    assert_eq!(
        l.reserved_physical(),
        mib(10),
        "4 cached + 6 fresh, no duplicate backing"
    );
    l.validate().unwrap();
}

#[test]
fn update_keeps_sblock_for_reuse() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    let c = l.allocate(AllocRequest::new(mib(10))).unwrap();
    l.deallocate(c.id).unwrap();
    // Second 10 MiB request: the cached sBlock exact-matches; no new stitch.
    let stitches_before = l.state_counters().stitches;
    let d = l.allocate(AllocRequest::new(mib(10))).unwrap();
    assert_eq!(d.va, c.va, "same stitched VA reused");
    assert_eq!(l.state_counters().stitches, stitches_before);
    assert_eq!(l.state_counters().exact, 1);
    l.validate().unwrap();
}

#[test]
fn sblock_sharing_a_part_is_unavailable_while_part_active() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    let c = l.allocate(AllocRequest::new(mib(10))).unwrap(); // stitched [6,4]
    l.deallocate(c.id).unwrap();
    // Take the 4 MiB pBlock directly; the 10 MiB sBlock shares it.
    let d = l.allocate(AllocRequest::new(mib(4))).unwrap();
    // A 10 MiB request must NOT reuse the sBlock now (part is active).
    let e = l.allocate(AllocRequest::new(mib(10))).unwrap();
    assert_ne!(e.va, c.va, "sBlock with an active part must not be reused");
    l.validate().unwrap();
    l.deallocate(d.id).unwrap();
    l.deallocate(e.id).unwrap();
    l.validate().unwrap();
}

#[test]
fn data_survives_across_stitched_boundary() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    let c = l.allocate(AllocRequest::new(mib(10))).unwrap();
    let driver = l.driver().clone();
    // Write across what is physically a block boundary (parts are 6 + 4).
    let boundary = c.va.offset(mib(6) - 3);
    driver.memcpy_htod(boundary, b"defragmented").unwrap();
    let mut buf = [0u8; 12];
    driver.memcpy_dtoh(boundary, &mut buf).unwrap();
    assert_eq!(&buf, b"defragmented");
    l.validate().unwrap();
}

#[test]
fn convergence_after_warmup_iterations() {
    let mut l = lake();
    // An irregular-ish periodic pattern: grow, shrink, stitch.
    let sizes = [mib(4), mib(6), mib(10), mib(8), mib(2)];
    for iter in 0..4 {
        let ids: Vec<AllocationId> = sizes
            .iter()
            .map(|&s| l.allocate(AllocRequest::new(s)).unwrap().id)
            .collect();
        for id in ids {
            l.deallocate(id).unwrap();
        }
        l.iteration_boundary();
        l.validate().unwrap();
        if iter >= 1 {
            assert!(
                l.is_converged(),
                "iteration {iter} should replay exact matches only: {:?}",
                l.state_counters()
            );
        }
    }
    // Steady state: reserved memory equals the peak working set, and no
    // further stitches/splits/creates happen.
    let stitches = l.state_counters().stitches;
    let creates = l.driver().stats().create.calls;
    let ids: Vec<AllocationId> = sizes
        .iter()
        .map(|&s| l.allocate(AllocRequest::new(s)).unwrap().id)
        .collect();
    for id in ids {
        l.deallocate(id).unwrap();
    }
    assert_eq!(l.state_counters().stitches, stitches);
    assert_eq!(l.driver().stats().create.calls, creates);
}

#[test]
fn stitchfree_evicts_lru_sblocks() {
    let mut l = lake_with(
        DeviceConfig::small_test(),
        test_config().with_max_sblocks(1),
    );
    // View #1 = [6, 4], held.
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    let c = l.allocate(AllocRequest::new(mib(10))).unwrap();
    // View #2 over fresh blocks overflows the capacity of 1, but both views
    // are protected while assigned: the pool may overshoot.
    let d = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let e = l.allocate(AllocRequest::new(mib(6))).unwrap();
    l.deallocate(d.id).unwrap();
    l.deallocate(e.id).unwrap();
    let f = l.allocate(AllocRequest::new(mib(10))).unwrap();
    assert_eq!(l.state_counters().stitches, 2);
    assert_eq!(l.sblock_count(), 2, "soft overshoot while views are busy");
    assert_eq!(l.state_counters().evictions, 0);
    // Once both are idle, the next allocation exact-matches one and
    // StitchFree evicts the other, which shares none of its parts.
    l.deallocate(c.id).unwrap();
    l.deallocate(f.id).unwrap();
    let g = l.allocate(AllocRequest::new(mib(10))).unwrap();
    assert_eq!(l.state_counters().exact, 1);
    assert_eq!(l.state_counters().evictions, 1);
    assert_eq!(l.sblock_count(), 1, "trimmed to the cap");
    l.deallocate(g.id).unwrap();
    l.validate().unwrap();
}

#[test]
fn release_cached_returns_physical_memory() {
    let driver = CudaDriver::new(DeviceConfig::small_test());
    let mut l = GmLakeAllocator::new(driver.clone(), test_config());
    let a = l.allocate(AllocRequest::new(mib(12))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(8))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    assert_eq!(driver.phys_in_use(), mib(20));
    let released = l.release_cached();
    assert_eq!(released, mib(20));
    assert_eq!(driver.phys_in_use(), 0);
    assert_eq!(l.pblock_count(), 0);
    assert_eq!(l.sblock_count(), 0);
    l.validate().unwrap();
}

#[test]
fn release_cached_spares_live_allocations() {
    let driver = CudaDriver::new(DeviceConfig::small_test());
    let mut l = GmLakeAllocator::new(driver.clone(), test_config());
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
    l.deallocate(b.id).unwrap();
    let released = l.release_cached();
    assert_eq!(released, mib(6));
    assert_eq!(driver.phys_in_use(), mib(4));
    // The live allocation still works.
    driver.memcpy_htod(a.va, &[1, 2, 3]).unwrap();
    l.validate().unwrap();
}

#[test]
fn release_cached_tears_down_with_batched_driver_calls() {
    // A 64 MiB reservation spans 32 granules; surrendering it costs three
    // driver round-trips (unmap, release, address free), not one per
    // granule.
    let driver = CudaDriver::new(DeviceConfig::small_test());
    let mut l = GmLakeAllocator::new(driver.clone(), test_config());
    let a = l.allocate(AllocRequest::new(mib(64))).unwrap();
    l.deallocate(a.id).unwrap();
    let before = driver.stats();
    let released = l.release_cached();
    assert_eq!(released, mib(64));
    let after = driver.stats();
    assert_eq!(after.release.calls - before.release.calls, 1, "one handle");
    assert_eq!(after.unmap.calls - before.unmap.calls, 1, "one range unmap");
    assert_eq!(
        after.total_calls() - before.total_calls(),
        3,
        "unmap + release + address_free"
    );
    l.validate().unwrap();
}

#[test]
fn stitching_survives_where_caching_allocator_ooms() {
    // 20 MiB device. Free 10 + 10, then ask for 20: BFC cannot merge two
    // separate segments; GMLake stitches them.
    let dev = DeviceConfig::small_test()
        .with_capacity(mib(20))
        .with_backing(false);
    let mut l = lake_with(dev, test_config());
    let a = l.allocate(AllocRequest::new(mib(10))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(10))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    let c = l.allocate(AllocRequest::new(mib(20))).unwrap();
    assert_eq!(c.size, mib(20));
    assert_eq!(l.driver().phys_in_use(), mib(20));
    l.validate().unwrap();
}

#[test]
fn true_oom_is_reported_and_state_intact() {
    let dev = DeviceConfig::small_test()
        .with_capacity(mib(20))
        .with_backing(false);
    let mut l = lake_with(dev, test_config());
    let a = l.allocate(AllocRequest::new(mib(10))).unwrap();
    let err = l.allocate(AllocRequest::new(mib(20))).unwrap_err();
    assert!(matches!(err, AllocError::OutOfMemory { .. }), "{err}");
    assert_eq!(l.stats().oom_count, 1);
    assert_eq!(l.state_counters().oom, 1);
    l.validate().unwrap();
    // Still usable afterwards.
    let b = l.allocate(AllocRequest::new(mib(10))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    l.validate().unwrap();
}

#[test]
fn oom_retry_path_releases_cache_and_succeeds() {
    let dev = DeviceConfig::small_test()
        .with_capacity(mib(20))
        .with_backing(false);
    let mut l = lake_with(dev, test_config());
    // Cache 10 + 6 as two idle pBlocks; frag limit 2 MiB.
    let a = l.allocate(AllocRequest::new(mib(10))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    // 20 MiB: stitching gives 16, S4 needs 4 fresh — device only has 4 left,
    // so this actually succeeds without the fallback.
    let c = l.allocate(AllocRequest::new(mib(20))).unwrap();
    assert_eq!(c.size, mib(20));
    l.deallocate(c.id).unwrap();
    l.validate().unwrap();
}

#[test]
fn small_allocations_use_the_splitting_pool() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(4096)).unwrap();
    assert_eq!(a.size, 4096);
    assert_eq!(l.pblock_count(), 0, "no pBlock for small requests");
    // Small pool reserves one 2 MiB segment.
    assert_eq!(l.stats().reserved_bytes, mib(2));
    l.deallocate(a.id).unwrap();
    assert_eq!(l.stats().active_bytes, 0);
    l.validate().unwrap();
}

/// A small request pays the host overhead once, as on a bare caching
/// allocator: the embedded small pool's charge is the only one.
#[test]
fn small_alloc_and_free_cost_what_they_cost_on_bare_caching() {
    fn pair_ns(core: &mut dyn AllocatorCore, driver: &CudaDriver) -> u64 {
        let start = driver.now_ns();
        for _ in 0..2 {
            let a = core.allocate(AllocRequest::new(4096)).unwrap();
            core.deallocate(a.id).unwrap();
        }
        driver.now_ns() - start
    }
    let dev = DeviceConfig::small_test().with_cost(gmlake_gpu_sim::CostModel::calibrated());
    let (lake_driver, bare_driver) = (CudaDriver::new(dev.clone()), CudaDriver::new(dev));
    assert!(lake_driver.host_op_ns() > 0, "the calibrated model charges");
    let mut l = GmLakeAllocator::new(lake_driver.clone(), test_config());
    let mut bare = gmlake_caching::CachingAllocator::new(bare_driver.clone());
    assert_eq!(
        pair_ns(&mut l, &lake_driver),
        pair_ns(&mut bare, &bare_driver),
        "a cold then a warm small alloc + free"
    );
}

#[test]
fn stats_roll_up_small_and_large() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(4096)).unwrap();
    let b = l.allocate(AllocRequest::new(mib(10))).unwrap();
    let s = l.stats();
    assert_eq!(s.active_bytes, 4096 + mib(10));
    assert_eq!(s.reserved_bytes, mib(2) + mib(10));
    assert_eq!(s.alloc_count, 2);
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    assert_eq!(l.stats().active_bytes, 0);
    assert_eq!(l.stats().free_count, 2);
    l.validate().unwrap();
}

#[test]
fn zero_size_and_unknown_ids_error() {
    let mut l = lake();
    assert_eq!(
        l.allocate(AllocRequest::new(0)).unwrap_err(),
        AllocError::ZeroSize
    );
    assert!(matches!(
        l.deallocate(AllocationId::new(77)).unwrap_err(),
        AllocError::UnknownAllocation(_)
    ));
    // Double free.
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    l.deallocate(a.id).unwrap();
    assert!(matches!(
        l.deallocate(a.id).unwrap_err(),
        AllocError::UnknownAllocation(_)
    ));
}

#[test]
fn drop_leaves_device_quiescent() {
    let driver = CudaDriver::new(DeviceConfig::small_test());
    {
        let mut l = GmLakeAllocator::new(driver.clone(), test_config());
        let _a = l.allocate(AllocRequest::new(mib(4))).unwrap();
        let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
        let _small = l.allocate(AllocRequest::new(1024)).unwrap();
        l.deallocate(b.id).unwrap();
        // Build an sBlock too.
        let _c = l.allocate(AllocRequest::new(mib(6))).unwrap();
        assert!(driver.phys_in_use() > 0);
    }
    assert_eq!(driver.phys_in_use(), 0);
    assert!(driver.snapshot().is_quiescent());
}

#[test]
fn peak_reserved_tracks_stitching_efficiency() {
    // After a grow/shrink/grow cycle, reserved memory should equal the peak
    // active set — the paper's "full memory utilization without
    // fragmentation" claim for the allocator's steady state (§4.2.1).
    let mut l = lake();
    let mut ids = Vec::new();
    for _ in 0..8 {
        ids.push(l.allocate(AllocRequest::new(mib(6))).unwrap().id);
    }
    for id in ids.drain(..) {
        l.deallocate(id).unwrap();
    }
    // Reallocate the same total volume in different shapes.
    for _ in 0..4 {
        ids.push(l.allocate(AllocRequest::new(mib(12))).unwrap().id);
    }
    assert_eq!(l.reserved_physical(), mib(48), "reuse, not growth");
    let s = l.stats();
    assert_eq!(s.peak_reserved_bytes, mib(48));
    assert!((s.utilization() - 1.0).abs() < 1e-9);
    l.validate().unwrap();
}

#[test]
fn deallocate_is_cheap_no_driver_calls() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(10))).unwrap();
    let before = l.driver().stats();
    l.deallocate(a.id).unwrap();
    let after = l.driver().stats();
    assert_eq!(before.unmap.calls, after.unmap.calls);
    assert_eq!(before.release.calls, after.release.calls);
    assert_eq!(before.mem_free.calls, after.mem_free.calls);
}

#[test]
fn compact_drops_every_unassigned_view_and_returns_its_undersized_parts() {
    // The 4 MiB default limit: the 4 and 6 MiB pieces are at or above it.
    let mut l = lake_with(DeviceConfig::small_test(), GmLakeConfig::default());
    // Build a cached stitched view: 4 + 6 freed, 10 stitched, then freed.
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    let c = l.allocate(AllocRequest::new(mib(10))).unwrap();
    assert_eq!(l.state_counters().stitches, 1);
    // An assigned view survives a pass.
    assert_eq!(l.compact(), 0);
    l.validate().unwrap();
    assert_eq!(l.sblock_count(), 1, "the assigned view survives");
    assert_eq!(l.state_counters().evictions, 0);
    // Freed, the view is ready (every part inactive): the pass drops it
    // all the same and counts it. Its parts are smaller than the requests
    // served, whose byte-weighted mean is (16 + 36 + 100) / 20 = 7.6 MiB,
    // so both reservations go back.
    l.deallocate(c.id).unwrap();
    assert_eq!(l.compact(), mib(10), "both parts are below the mean");
    l.validate().unwrap();
    assert_eq!(l.sblock_count(), 0, "the ready view is dropped");
    assert_eq!(l.state_counters().evictions, 1);
    assert_eq!((l.reserved_physical(), l.pblock_count()), (0, 0));
    assert_eq!(l.stats().reserved_bytes, l.driver().phys_in_use());
    // The next request of that size gets one reservation of its own: no
    // stitch, and so one map and one access call.
    let before = l.driver().stats();
    let d = l.allocate(AllocRequest::new(mib(10))).unwrap();
    let after = l.driver().stats();
    assert_eq!(after.create.calls - before.create.calls, 1);
    assert_eq!(after.map.calls - before.map.calls, 1);
    assert_eq!(after.set_access.calls - before.set_access.calls, 1);
    assert_eq!(l.state_counters().stitches, 1, "no second stitch");
    assert_eq!(l.reserved_physical(), mib(10));
    l.deallocate(d.id).unwrap();
    l.validate().unwrap();
}

/// `compact`'s limit is the byte-weighted mean of the large requests
/// served, Σa²/Σa, when that is above `frag_limit`: an idle reservation
/// below it goes back, one at or above it stays.
#[test]
fn compact_returns_idle_reservations_below_the_mean_request_and_keeps_the_rest() {
    let freed = |sizes: &[u64]| {
        let mut l = lake();
        let held: Vec<_> = sizes
            .iter()
            .map(|&m| l.allocate(AllocRequest::new(mib(m))).unwrap())
            .collect();
        for a in held {
            l.deallocate(a.id).unwrap();
        }
        l
    };
    // Two requests of 12 MiB: the mean is 12 MiB, and a reservation at the
    // limit stays.
    let mut l = freed(&[12, 12]);
    assert_eq!(l.compact(), 0);
    assert_eq!(l.reserved_physical(), mib(24));
    l.validate().unwrap();
    // 8, 24 and 40 MiB: the mean is (64 + 576 + 1600) / 72 = 31.1 MiB, so
    // the 8 and 24 MiB reservations go back and the 40 MiB one stays.
    let mut l = freed(&[8, 24, 40]);
    let before = l.driver().stats();
    assert_eq!(l.compact(), mib(32));
    assert_eq!(l.driver().stats().release.calls - before.release.calls, 2);
    assert_eq!(l.reserved_physical(), mib(40));
    assert_eq!(l.stats().reserved_bytes, l.driver().phys_in_use());
    l.validate().unwrap();
    // A second pass finds nothing more.
    assert_eq!(l.compact(), 0);
}

/// A request that is not handed out — one too large to align, or one the
/// device cannot hold even after the S5 fallback — leaves `compact`'s
/// limit where it was.
#[test]
fn a_refused_request_leaves_the_compact_limit_unchanged() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(8))).unwrap();
    assert_eq!(l.compact_limit(), mib(8));
    for size in [mib(512), u64::MAX] {
        let err = l.allocate(AllocRequest::new(size)).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }), "{err}");
        assert_eq!(l.compact_limit(), mib(8), "a {size} B refusal counted");
    }
    // So the 8 MiB reservation sits at the limit, and stays.
    l.deallocate(a.id).unwrap();
    assert_eq!(l.compact(), 0);
    assert_eq!(l.reserved_physical(), mib(8));
    l.validate().unwrap();
}

/// Squares of sizes near an 80 GiB device's capacity pass `u64`; the
/// figure is kept wide enough that the limit stays exact.
#[test]
fn the_compact_limit_holds_sizes_near_device_capacity() {
    use gmlake_alloc_api::gib;
    let dev = DeviceConfig::small_test()
        .with_capacity(gib(80))
        .with_backing(false);
    let mut l = lake_with(dev, test_config());
    let big = l.allocate(AllocRequest::new(gib(72))).unwrap();
    let small = l.allocate(AllocRequest::new(gib(4))).unwrap();
    // (72² + 4²) / 76 GiB, to the byte.
    let square = |n: u64| u128::from(gib(n)).pow(2);
    let expected = (square(72) + square(4)) / u128::from(gib(76));
    assert_eq!(u128::from(l.compact_limit()), expected);
    l.deallocate(big.id).unwrap();
    l.deallocate(small.id).unwrap();
    assert_eq!(l.compact(), gib(4), "only the 4 GiB one is below the mean");
    assert_eq!(l.reserved_physical(), gib(72));
    l.validate().unwrap();
}

#[test]
fn compact_releases_dead_fragments_only() {
    let mut l = lake_with(
        DeviceConfig::small_test(),
        GmLakeConfig::default().with_frag_limit(mib(6)),
    );
    // A 4 MiB block is below the 6 MiB fragmentation limit: once freed and
    // unreferenced it is stranded capacity.
    let small = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let big = l.allocate(AllocRequest::new(mib(8))).unwrap();
    l.deallocate(small.id).unwrap();
    l.deallocate(big.id).unwrap();
    assert_eq!(l.reserved_physical(), mib(12));
    let released = l.compact();
    l.validate().unwrap();
    assert_eq!(released, mib(4), "only the sub-limit fragment is released");
    assert_eq!(
        l.reserved_physical(),
        mib(8),
        "stitchable block stays cached"
    );
    assert_eq!(l.stats().reserved_bytes, l.driver().phys_in_use());
}

#[test]
fn compact_on_empty_allocator_is_a_noop() {
    let mut l = lake();
    assert_eq!(l.compact(), 0);
    l.validate().unwrap();
}

#[test]
fn slab_slots_are_recycled_after_destroy() {
    // Destroying blocks vacates slab slots; later blocks reuse them. The
    // reuse-after-destroy invariants are part of `validate()`.
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    let c = l.allocate(AllocRequest::new(mib(10))).unwrap(); // stitched view
    l.deallocate(c.id).unwrap();
    assert_eq!(l.pblock_count(), 2);
    assert_eq!(l.sblock_count(), 1);
    assert_eq!(l.release_cached(), mib(10), "all structures destroyed");
    assert_eq!((l.pblock_count(), l.sblock_count()), (0, 0));
    l.validate().unwrap();
    // Fresh blocks land in the recycled slots; every index stays coherent.
    let d = l.allocate(AllocRequest::new(mib(8))).unwrap();
    let e = l.allocate(AllocRequest::new(mib(2))).unwrap();
    assert_eq!(l.pblock_count(), 2);
    l.validate().unwrap();
    l.deallocate(d.id).unwrap();
    l.deallocate(e.id).unwrap();
    let f = l.allocate(AllocRequest::new(mib(10))).unwrap(); // restitches
    assert_eq!(f.size, mib(10));
    l.validate().unwrap();
}

mod program {
    //! The random allocator program the property tests below share: plain
    //! and stream-tagged allocs and frees, defrag passes, cache release and
    //! iteration boundaries.

    use super::*;
    use gmlake_alloc_api::StreamId;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    pub enum Op {
        /// Allocate this many bytes (rounded internally), streamless for
        /// stream 0, else on that stream.
        Alloc(u64, u32),
        /// Free the n-th (mod live count) live allocation, likewise.
        Free(usize, u32),
        /// Proactive defrag pass (sPool GC + dead-fragment release).
        Compact,
        /// Surrender every cached structure.
        ReleaseCached,
        /// Iteration boundary (convergence accounting).
        Boundary,
    }

    pub fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (1u64..16 * 1024 * 1024, 0u32..4).prop_map(|(size, s)| Op::Alloc(size, s)),
            5 => (any::<usize>(), 0u32..4).prop_map(|(n, s)| Op::Free(n, s)),
            1 => Just(Op::Compact),
            1 => Just(Op::ReleaseCached),
            1 => Just(Op::Boundary),
        ]
    }

    /// Applies `op`, keeping `live` (id, rounded size) in step, and returns
    /// where a successful allocation landed. OOM and rolled-back driver
    /// faults are legal outcomes; a faulted free leaves the tensor live.
    pub fn step(
        l: &mut GmLakeAllocator,
        op: &Op,
        live: &mut Vec<(AllocationId, u64)>,
    ) -> Option<(u64, u64)> {
        match *op {
            Op::Alloc(size, stream) => {
                let req = AllocRequest::new(size);
                let result = match stream {
                    0 => l.allocate(req),
                    s => l.alloc_on_stream(req, StreamId(s)),
                };
                match result {
                    Ok(a) => {
                        live.push((a.id, a.size));
                        return Some((a.va.as_u64(), a.size));
                    }
                    Err(AllocError::OutOfMemory { .. }) | Err(AllocError::DriverFault { .. }) => {}
                    Err(e) => panic!("unexpected allocator error: {e}"),
                }
            }
            Op::Free(n, stream) => {
                if !live.is_empty() {
                    let (id, size) = live.swap_remove(n % live.len());
                    let result = match stream {
                        0 => l.deallocate(id),
                        s => l.free_on_stream(id, StreamId(s)),
                    };
                    match result {
                        Ok(()) => {}
                        Err(AllocError::DriverFault { .. }) => live.push((id, size)),
                        Err(e) => panic!("unexpected free error: {e}"),
                    }
                }
            }
            Op::Compact => {
                l.compact();
            }
            Op::ReleaseCached => {
                l.release_cached();
            }
            Op::Boundary => l.iteration_boundary(),
        }
        None
    }

    /// The 64 MiB device and 12-view sPool the property tests run on: small
    /// enough that OOM, `StitchFree` eviction and the S5 fallback all fire.
    pub fn small_lake() -> GmLakeAllocator {
        small_lake_with(test_config())
    }

    /// [`small_lake`] at another fragmentation limit.
    pub fn small_lake_with(cfg: GmLakeConfig) -> GmLakeAllocator {
        let dev = DeviceConfig::small_test()
            .with_capacity(mib(64))
            .with_backing(false);
        lake_with(dev, cfg.with_max_sblocks(12))
    }
}

mod fault_injection {
    //! Property: under a random program with one random transient driver
    //! fault injected at a random point, every operation either succeeds
    //! or rolls back completely — `validate()` (counters against their
    //! scan oracles included) holds and `MemStats` reconciles against the
    //! test's own ledger after *every* step, the faulted one included, and
    //! the fault journal shows no leaked reservations at the end
    //! (`mem_address_free` past a commit point may orphan exactly one VA
    //! reservation; see `docs/fault-model.md`).

    use super::program::{op_strategy, small_lake, step};
    use super::*;
    use gmlake_gpu_sim::{FaultOp, FaultPlan};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn single_fault_rolls_back_cleanly(
            ops in proptest::collection::vec(op_strategy(), 1..100),
            op_idx in 0usize..FaultOp::COUNT,
            nth in 1u64..24,
        ) {
            let mut l = small_lake();
            let fault_op = FaultOp::ALL[op_idx];
            l.driver().set_fault_plan(FaultPlan::new().fail_nth(fault_op, nth));

            // The test's own ledger of live tensors: id and rounded size.
            let mut live: Vec<(AllocationId, u64)> = Vec::new();
            for op in &ops {
                step(&mut l, op, &mut live);
                l.validate().unwrap();
                let expected_active: u64 = live.iter().map(|&(_, size)| size).sum();
                prop_assert_eq!(l.stats().active_bytes, expected_active);
            }

            // Drain with faults off: the transient fault is consumed (or
            // never fired), so full teardown must reconcile to zero.
            l.driver().clear_fault_plan();
            for (id, _) in live.drain(..) {
                l.deallocate(id).unwrap();
            }
            l.release_cached();
            l.validate().unwrap();
            prop_assert_eq!(l.stats().active_bytes, 0);
            let journal = l.fault_journal();
            if fault_op == FaultOp::AddressFree {
                prop_assert!(journal.orphan_vas <= 1 && journal.orphan_chunks == 0,
                    "{:?}", journal);
            } else {
                prop_assert!(journal.is_leak_free(),
                    "single {:?} fault leaked: {:?}", fault_op, journal);
            }
            if journal.orphan_vas == 0 {
                prop_assert_eq!(l.stats().reserved_bytes, l.driver().phys_in_use());
            }
        }
    }
}

mod bestfit_oracle {
    //! Differential oracle: after every step of a random allocator program,
    //! the indexed `BestFit` must agree *exactly* with the retained
    //! reference implementation (and every incremental index must satisfy
    //! `validate()`).

    use super::program::{op_strategy, small_lake, small_lake_with, step, Op};
    use super::*;
    use proptest::prelude::*;

    fn agrees(mut l: GmLakeAllocator, ops: &[Op]) {
        let mut live = Vec::new();
        let probes = [2, 3, 4, 6, 10, 16, 40, 200].map(mib);
        for op in ops {
            step(&mut l, op, &mut live);
            l.validate().unwrap();
            for &p in &probes {
                l.assert_bestfit_agrees(p);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn indexed_bestfit_matches_reference(
            ops in proptest::collection::vec(op_strategy(), 1..120)
        ) {
            agrees(small_lake(), &ops);
        }

        /// At the default 4 MiB limit an S3 keeps a last part whole rather
        /// than leave a 2 MiB remainder, so views map more than the request
        /// they are filed under, which the 2 MiB limit above never makes.
        #[test]
        fn indexed_bestfit_matches_reference_at_the_default_limit(
            ops in proptest::collection::vec(op_strategy(), 1..120)
        ) {
            agrees(small_lake_with(GmLakeConfig::default()), &ops);
        }
    }
}

mod reclaim_oracle {
    //! Differential oracle for the dirty-set reclaim walk: before every
    //! pass of a random program, a read-only walk over *every* reservation
    //! (`reference_reclaim`) predicts the reservations and bytes the pass
    //! releases. The pass must release exactly those, less the ones whose
    //! `mem_release` faulted, which stay mapped. `validate()`, which checks
    //! that every reservation outside the set is one a walk leaves alone,
    //! runs after every step. The programs free across streams with work in
    //! flight, so stamps hold pieces back from merging until `process_events`
    //! retires them; sizes up to 24 MiB on a 64 MiB device force splits,
    //! stitches, S4 top-ups and the S5 fallback.

    use super::*;
    use gmlake_alloc_api::StreamId;
    use gmlake_gpu_sim::{FaultOp, FaultPlan};
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        /// Allocate on a stream.
        Alloc(u64, u32),
        /// Free the n-th (mod live count) live allocation from a stream.
        Free(usize, u32),
        /// Launch this much work on a stream.
        Launch(u32, u64),
        /// Let the host clock run.
        Advance(u64),
        /// Retire the stamps whose events completed.
        Tick,
        Compact,
        ReleaseCached,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (mib(2)..mib(24), 0u32..3).prop_map(|(size, s)| Op::Alloc(size, s)),
            5 => (any::<usize>(), 0u32..3).prop_map(|(n, s)| Op::Free(n, s)),
            2 => (0u32..3, 1u64..1_000_000).prop_map(|(s, ns)| Op::Launch(s, ns)),
            1 => (1u64..500_000).prop_map(Op::Advance),
            1 => Just(Op::Tick),
            2 => Just(Op::Compact),
            1 => Just(Op::ReleaseCached),
        ]
    }

    #[test]
    fn incremental_reclaim_matches_a_full_walk() {
        let programs = proptest::collection::vec(op_strategy(), 1..160);
        let config = ProptestConfig::with_cases(96);
        let (mut case, mut released, mut faulted, mut retired) = (0u64, 0u64, 0u64, 0u64);
        let (mut visits, mut full_visits) = (0u64, 0u64);
        proptest::run_property("core_incremental_reclaim", &config, &programs, |ops| {
            let dev = DeviceConfig::small_test()
                .with_capacity(mib(64))
                .with_backing(false);
            let d = CudaDriver::new(dev);
            // A 6 MiB limit: `compact` releases some idle reservations and
            // spares others.
            let cfg = test_config().with_max_sblocks(12).with_frag_limit(mib(6));
            let mut l = GmLakeAllocator::new(d.clone(), cfg);
            // One program in three loses one `mem_release`, one in three
            // every one from the second on.
            case += 1;
            match case % 3 {
                1 => d.set_fault_plan(FaultPlan::new().fail_nth(FaultOp::Release, 1 + case % 4)),
                2 => d.set_fault_plan(FaultPlan::new().fail_from(FaultOp::Release, 2)),
                _ => {}
            }
            let mut live: Vec<(AllocationId, StreamId)> = Vec::new();
            for op in &ops {
                match *op {
                    Op::Alloc(size, s) => {
                        match l.alloc_on_stream(AllocRequest::new(size), StreamId(s)) {
                            Ok(a) => live.push((a.id, StreamId(s))),
                            Err(AllocError::OutOfMemory { .. }) => {}
                            Err(e) => panic!("unexpected allocator error: {e}"),
                        }
                    }
                    Op::Free(n, s) => {
                        if !live.is_empty() {
                            let (id, _) = live.swap_remove(n % live.len());
                            l.free_on_stream(id, StreamId(s)).unwrap();
                        }
                    }
                    Op::Launch(s, ns) => d.stream_launch(StreamId(s), ns),
                    Op::Advance(ns) => d.advance_clock(ns),
                    Op::Tick => retired += l.process_events(),
                    Op::Compact | Op::ReleaseCached => {
                        let compact = matches!(op, Op::Compact);
                        let expected = l.reference_reclaim(compact);
                        let (phys, failed) = (l.reserved_physical(), l.fault_journal().failed_ops);
                        let before = l.work_counters();
                        // One handle per reservation: what a full walk visits.
                        full_visits += d.snapshot().handles as u64;
                        let bytes = if compact {
                            l.compact()
                        } else {
                            l.release_cached()
                        };
                        // A reservation the pass meant to release and did not
                        // is still mapped; only a faulted release leaves one.
                        let (kept, gone): (Vec<_>, Vec<_>) = expected
                            .iter()
                            .partition(|&&(base, _)| d.translate(base, mib(2)).is_ok());
                        let gone: u64 = gone.iter().map(|&&(_, size)| size).sum();
                        assert_eq!(bytes, gone, "{op:?} released other bytes than predicted");
                        assert_eq!(phys - l.reserved_physical(), gone);
                        let faults = l.fault_journal().failed_ops - failed;
                        assert_eq!(faults, kept.len() as u64, "{op:?} kept {kept:?}");
                        released += gone;
                        faulted += faults;
                        visits += l.work_counters().reclaim_visits - before.reclaim_visits;
                    }
                }
                l.validate().unwrap();
            }
            // Drained and fault-free, one release returns every byte: each
            // reservation is idle, and so in the dirty set.
            d.clear_fault_plan();
            for (id, s) in live {
                l.free_on_stream(id, s).unwrap();
            }
            d.device_synchronize();
            retired += l.process_events();
            let expected: u64 = l.reference_reclaim(false).iter().map(|r| r.1).sum();
            assert_eq!(expected, l.reserved_physical());
            assert_eq!(l.release_cached(), expected);
            assert!(d.snapshot().is_quiescent());
            l.validate().unwrap();
        });
        assert!(
            released > 0 && faulted > 0 && retired > 0,
            "the programs release, fault and retire stamps: {released} {faulted} {retired}"
        );
        assert!(
            visits < full_visits,
            "{visits} visits, {full_visits} for full walks"
        );
    }
}

mod golden {
    //! Golden pins over three fixed-seed programs from the shared generator
    //! — streams 0–3, defrag passes, cache releases, boundaries, a 12-view
    //! sPool so `StitchFree` fires, and one single-fault plan — split in
    //! two halves:
    //!
    //! * the **decision** hash of each fault-free program, over every size
    //!   handed out and the final `StateCounters`. It must never move under
    //!   a change that claims host or driver time only: this is the tier-1
    //!   stand-in for "every BestFit decision is the parent's";
    //! * the **traffic** hash of all three, over every `(va, size)` handed
    //!   out, the final `StateCounters`, the driver call total and the
    //!   fault journal. It moves whenever the driver traffic does — and
    //!   with it, where the planned fault of the third program lands.

    use super::program::{op_strategy, small_lake, small_lake_with, step, Op};
    use crate::GmLakeConfig;
    use gmlake_alloc_api::mib;
    use gmlake_gpu_sim::{FaultOp, FaultPlan};
    use proptest::prelude::*;

    /// Re-pinned when S5 came to cover small requests: a small-pool OOM
    /// now gives up the large cache and retries once, and counts in
    /// `StateCounters::oom`. The three programs hit 18 small OOMs while the
    /// core held idle cache; S5 released 4–54 MiB each time and 10 of the
    /// 18 were then served.
    /// Re-pinned again when `compact` came to drop every unassigned view,
    /// ready ones too: the programs' `Compact` steps now clear the ready
    /// views, so later requests of those sizes split or stitch instead of
    /// matching exactly. And once more when `compact`'s limit came to follow
    /// the byte-weighted mean of the requests served: the programs'
    /// `Compact` steps now give back idle reservations below it, so later
    /// requests create memory where they would have stitched or split.
    /// Re-pinned once more when an S3 came to close with the smallest
    /// unreferenced block that it keeps whole, where one exists, instead of
    /// splitting the next-largest: the programs' stitches take other parts.
    const DECISIONS: [u64; 2] = [8_614_086_430_606_349_480, 8_582_670_581_258_979_513];

    /// Re-pinned with `DECISIONS`, for the same reason, and once more,
    /// alone, when an exact view match stopped preferring a view last held
    /// by the requesting stream: the second program's stream-aware hand-outs
    /// get the lowest-id view of the size, so the same decisions hand out
    /// other VAs. Re-pinned with `DECISIONS` when `compact` came to drop
    /// ready views, again when its limit came to follow the mean request,
    /// and with `DECISIONS` when an S3 came to close with a block it keeps
    /// whole.
    const TRAFFIC: [u64; 3] = [
        10_792_160_718_651_777_403,
        15_825_752_746_008_814_267,
        4_064_665_126_286_783_989,
    ];

    fn fnv(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash = (*hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[test]
    fn decisions_match_the_recorded_hashes() {
        let programs = proptest::collection::vec(op_strategy(), 600..601);
        let (mut decisions, mut traffic) = (Vec::new(), Vec::new());
        let (mut evictions, mut splits, mut faults) = (0, 0, 0);
        // Three cases, seeded from the name below; the last one runs with
        // the 9th `mem_map` call failing once.
        let config = ProptestConfig::with_cases(3);
        proptest::run_property("core_golden_decisions", &config, &programs, |ops| {
            let mut l = small_lake();
            let faulted = traffic.len() == 2;
            if faulted {
                let plan = FaultPlan::new().fail_nth(FaultOp::Map, 9);
                l.driver().set_fault_plan(plan);
            }
            let mut decision = 0xcbf2_9ce4_8422_2325u64;
            let mut hash = decision;
            let mut live = Vec::new();
            for op in &ops {
                if let Some((va, size)) = step(&mut l, op, &mut live) {
                    fnv(&mut decision, &size.to_le_bytes());
                    fnv(&mut hash, &va.to_le_bytes());
                    fnv(&mut hash, &size.to_le_bytes());
                }
                l.validate().unwrap();
            }
            let (counters, j) = (l.state_counters(), l.fault_journal());
            let calls = l.driver().stats().total_calls();
            fnv(&mut decision, format!("{counters:?}").as_bytes());
            // The journal in the bytes the hashes were recorded with, so
            // renaming its type cannot move them.
            let journal = format!(
                "FaultJournal {{ failed_ops: {}, orphan_vas: {}, \
                 orphan_va_bytes: {}, orphan_chunks: {} }}",
                j.failed_ops, j.orphan_vas, j.orphan_va_bytes, j.orphan_chunks
            );
            fnv(
                &mut hash,
                format!("{counters:?} {calls} {journal}").as_bytes(),
            );
            evictions += counters.evictions;
            splits += counters.splits;
            faults += l.driver().stats().injected_faults;
            if !faulted {
                decisions.push(decision);
            }
            traffic.push(hash);
        });
        assert!(evictions > 0 && splits > 0, "programs reach StitchFree");
        assert_eq!(faults, 1, "the planned fault fired");
        assert_eq!(decisions, DECISIONS, "an allocator decision moved");
        assert_eq!(traffic, TRAFFIC, "the driver traffic moved");
    }

    /// The decision hash of one more fault-free program, run at the default
    /// 4 MiB fragmentation limit. Added when views came to be filed under
    /// the request size they were stitched for: at the 2 MiB limit of the
    /// programs above an S3 always splits its last candidate, so no view
    /// maps more than its request, and neither hash above saw that change.
    /// This one moved with it, and again with `DECISIONS` when `compact`
    /// came to drop ready views, and with `DECISIONS` when `compact`'s limit
    /// came to follow the mean request and when an S3 came to close with a
    /// block it keeps whole.
    const DEFAULT_LIMIT_DECISIONS: u64 = 2_689_607_314_373_061_062;

    #[test]
    fn default_limit_decisions_match_the_recorded_hash() {
        let programs = proptest::collection::vec(op_strategy(), 600..601);
        let (mut decisions, mut oversized_hits) = (Vec::new(), 0);
        let config = ProptestConfig::with_cases(1);
        proptest::run_property("core_golden_default_limit", &config, &programs, |ops| {
            let mut l = small_lake_with(GmLakeConfig::default());
            let mut decision = 0xcbf2_9ce4_8422_2325u64;
            let mut live = Vec::new();
            for op in &ops {
                let exact = l.state_counters().exact;
                if let Some((_, size)) = step(&mut l, op, &mut live) {
                    fnv(&mut decision, &size.to_le_bytes());
                    // An exact match larger than its rounded request can
                    // only be a view that kept its last part whole.
                    if let Op::Alloc(req, _) = op {
                        let hit = l.state_counters().exact > exact;
                        oversized_hits += (hit && size > req.next_multiple_of(mib(2))) as u64;
                    }
                }
                l.validate().unwrap();
            }
            fnv(
                &mut decision,
                format!("{:?}", l.state_counters()).as_bytes(),
            );
            decisions.push(decision);
        });
        assert!(oversized_hits > 0, "the program reuses an oversized view");
        assert_eq!(decisions, [DEFAULT_LIMIT_DECISIONS], "a decision moved");
    }
}

/// `parts` equal 2 MiB pBlocks woven into `views` cached views that all
/// share them: requests of `parts`, `parts - 1`, … blocks' worth each find
/// no exact match and stitch the highest-id blocks, so the view of `j`
/// blocks covers the `j` highest ids and the highest id sits in every view.
fn dense_sharing_pool(parts: u64, views: u64) -> GmLakeAllocator {
    let cfg = GmLakeConfig::default().with_frag_limit(mib(2));
    let mut l = lake_with(DeviceConfig::small_test(), cfg);
    let held: Vec<_> = (0..parts)
        .map(|_| l.allocate(AllocRequest::new(mib(2))).unwrap())
        .collect();
    for a in held {
        l.deallocate(a.id).unwrap();
    }
    for j in (parts - views + 1..=parts).rev() {
        let view = l.allocate(AllocRequest::new(mib(2) * j)).unwrap();
        l.deallocate(view.id).unwrap();
    }
    assert_eq!(
        (l.pblock_count() as u64, l.sblock_count() as u64),
        (parts, views)
    );
    l.validate().unwrap();
    l
}

/// Work done between two readings of the counters.
fn work_since(l: &GmLakeAllocator, before: crate::WorkCounters) -> crate::WorkCounters {
    let after = l.work_counters();
    crate::WorkCounters {
        part_flips: after.part_flips - before.part_flips,
        views_verified: after.views_verified - before.views_verified,
        parts_scanned: after.parts_scanned - before.parts_scanned,
        ref_scans: after.ref_scans - before.ref_scans,
        tier_moves: after.tier_moves - before.tier_moves,
        index_ops: after.index_ops - before.index_ops,
        active_skips: after.active_skips - before.active_skips,
        view_index_ops: after.view_index_ops - before.view_index_ops,
        lru_splices: after.lru_splices - before.lru_splices,
        reclaim_marks: after.reclaim_marks - before.reclaim_marks,
        reclaim_visits: after.reclaim_visits - before.reclaim_visits,
    }
}

/// The deterministic complexity pin: on a fixed dense-sharing pool an S1
/// sBlock alloc + free costs `2·p` part flips and one availability query,
/// walks no `referenced_by` set, moves nothing between tiers, touches no
/// entry of an ordered index — the view stays in the size index, and the
/// eviction list unlinks it and appends it back in `O(1)` — and costs
/// exactly the same however often it is repeated and however many views
/// share the parts. A standalone pBlock's S1 cycle costs its two flips and
/// one index operation each.
#[test]
fn s1_flip_cost_is_bounded_by_sharing_and_flat_over_iterations() {
    let parts = 33u64;
    let cycle = |l: &mut GmLakeAllocator| {
        let (before, exact) = (l.work_counters(), l.state_counters().exact);
        let a = l.allocate(AllocRequest::new(mib(2) * parts)).unwrap();
        l.deallocate(a.id).unwrap();
        assert_eq!(
            l.state_counters().exact,
            exact + 1,
            "S1 on the largest view"
        );
        work_since(l, before)
    };
    let mut costs = Vec::new();
    for views in [8, 32] {
        let mut l = dense_sharing_pool(parts, views);
        let first = cycle(&mut l);
        assert_eq!(first.part_flips, 2 * parts, "p flips per direction");
        // One candidate of the size, found available: the hinted part, then
        // all `p`.
        assert_eq!((first.views_verified, first.parts_scanned), (1, 1 + parts));
        assert_eq!(first.ref_scans, 0, "no referenced_by walk on the S1 path");
        assert_eq!(first.tier_moves, 0, "a flip moves no block between tiers");
        assert_eq!(first.index_ops, 0, "referenced parts keep their entries");
        assert_eq!(first.active_skips, 0, "S1 on a view reads no pBlock tier");
        assert_eq!(first.view_index_ops, 0, "the view keeps its size entry");
        assert_eq!(first.lru_splices, 2, "one unlink, one append");
        assert_eq!(first.reclaim_marks, 0, "referenced parts dirty nothing");
        for _ in 0..8 {
            assert_eq!(
                cycle(&mut l),
                first,
                "per-op cost grew with iteration count"
            );
        }
        l.validate().unwrap();
        assert!(
            l.work_counters().ref_scans > 0,
            "validate() runs the oracle scan"
        );
        costs.push(first);
    }
    assert_eq!(costs[0], costs[1], "cost depends on the sharing density r");
    // A block no view references enters the index on its free and leaves
    // it on its exact match.
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    l.deallocate(a.id).unwrap();
    let before = l.work_counters();
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    l.deallocate(a.id).unwrap();
    let standalone = work_since(&l, before);
    assert_eq!((standalone.part_flips, standalone.index_ops), (2, 2));
    assert_eq!(
        standalone.reclaim_marks, 1,
        "its free dirties its reservation"
    );
    l.validate().unwrap();
}

/// The reclaim walk visits only what changed since the last one: once every
/// reservation holds a live piece, a second `compact` visits none, and a
/// wholly idle one the limit spares is not visited again while the limit
/// stays put.
#[test]
fn a_second_compact_over_an_unchanged_pool_visits_no_reservation() {
    let cfg = GmLakeConfig::default().with_frag_limit(mib(6));
    let mut l = lake_with(DeviceConfig::small_test(), cfg);
    let a = l.allocate(AllocRequest::new(mib(16))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(24))).unwrap();
    l.deallocate(a.id).unwrap();
    // Two S2 splits cut A into 4 | 4 | 8; the middle frees.
    let head = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let mid = l.allocate(AllocRequest::new(mib(4))).unwrap();
    l.deallocate(mid.id).unwrap();
    assert_eq!(l.pblock_count(), 4);
    let visits = |l: &mut GmLakeAllocator| {
        let before = l.work_counters();
        assert_eq!(l.compact(), 0);
        l.validate().unwrap();
        work_since(l, before).reclaim_visits
    };
    assert_eq!(visits(&mut l), 2, "both reservations changed");
    assert_eq!(l.pblock_count(), 3, "A's idle tail merged");
    assert_eq!(visits(&mut l), 0, "nothing changed since");
    // B goes idle, but its 24 MiB piece is above the limit, the mean
    // request of (256 + 576 + 16 + 16) / 48 = 18 MiB: the walk spares it,
    // and a spared reservation leaves the dirty set.
    l.deallocate(b.id).unwrap();
    assert_eq!(l.compact_limit(), mib(18));
    assert_eq!(visits(&mut l), 1);
    assert_eq!(visits(&mut l), 0, "a spared reservation is not re-walked");
    // `release_cached` spares nothing: it puts B back and releases it, and
    // leaves A, whose head is live.
    let before = l.work_counters();
    assert_eq!(l.release_cached(), mib(24));
    assert_eq!(work_since(&l, before).reclaim_visits, 1);
    l.deallocate(head.id).unwrap();
    let before = l.work_counters();
    assert_eq!(l.release_cached(), mib(16));
    assert_eq!(work_since(&l, before).reclaim_visits, 1);
    assert!(l.driver().snapshot().is_quiescent());
    l.validate().unwrap();
}

/// A wholly idle reservation a pass spared goes back at the first pass
/// whose limit has risen past it, in one visit: the rise moves it from the
/// spared index back into the walk.
#[test]
fn a_spared_reservation_goes_back_once_the_mean_request_passes_it() {
    let mut l = lake();
    let x = l.allocate(AllocRequest::new(mib(16))).unwrap();
    let y = l.allocate(AllocRequest::new(mib(32))).unwrap();
    // 24 hand-outs of one 2 MiB block keep the mean low: 1 376 / 96 MiB.
    for _ in 0..24 {
        let a = l.allocate(AllocRequest::new(mib(2))).unwrap();
        l.deallocate(a.id).unwrap();
    }
    l.deallocate(x.id).unwrap();
    l.deallocate(y.id).unwrap();
    let limit = l.compact_limit();
    assert!(mib(14) < limit && limit < mib(16), "{limit}");
    // The 2 MiB reservation goes back; X and Y are spared.
    assert_eq!(l.compact(), mib(2));
    let before = l.work_counters();
    assert_eq!(l.compact(), 0);
    assert_eq!(work_since(&l, before).reclaim_visits, 0);
    // 24 MiB is an S2 split of Y, and lifts the mean past X's 16 MiB.
    let z = l.allocate(AllocRequest::new(mib(24))).unwrap();
    assert_eq!(l.state_counters().single, 1);
    assert!(l.compact_limit() > mib(16));
    // The pass visits X, out of the index, and Y, dirtied by the split,
    // and gives back X alone.
    let before = l.work_counters();
    assert_eq!(l.compact(), mib(16));
    assert_eq!(work_since(&l, before).reclaim_visits, 2);
    assert_eq!(l.reserved_physical(), mib(32));
    l.validate().unwrap();
    l.deallocate(z.id).unwrap();
    l.validate().unwrap();
}

/// An S3 whose stitch faults after it split its last candidate leaves two
/// idle neighbours in a reservation the last walk had found clean: the
/// split dirtied it, so the next walk merges them back.
#[test]
fn a_split_before_a_faulted_stitch_leaves_its_reservation_dirty() {
    use gmlake_gpu_sim::{FaultOp, FaultPlan};
    let mut l = lake();
    let b = l.allocate(AllocRequest::new(mib(14))).unwrap();
    let a = l.allocate(AllocRequest::new(mib(16))).unwrap();
    l.deallocate(a.id).unwrap();
    // A is 8 live | 8 idle, and clean after the walk, which keeps B: 14 MiB
    // is above the mean request, (196 + 256 + 64) / 38 = 13.6 MiB.
    let head = l.allocate(AllocRequest::new(mib(8))).unwrap();
    l.deallocate(b.id).unwrap();
    assert_eq!(l.compact(), 0);
    // 18 MiB stitches [14, 4] and splits A's idle 8 into 4 | 4 first.
    l.driver()
        .set_fault_plan(FaultPlan::new().fail_nth(FaultOp::Map, 1));
    let err = l.allocate(AllocRequest::new(mib(18))).unwrap_err();
    assert!(matches!(err, AllocError::DriverFault { .. }), "{err}");
    assert_eq!((l.state_counters().splits, l.pblock_count()), (2, 4));
    l.validate().unwrap();
    l.compact();
    assert_eq!(l.pblock_count(), 3, "the walk merged A's tail back");
    l.deallocate(head.id).unwrap();
    l.validate().unwrap();
}

/// The size index keeps a view while it is assigned, and the exact walk
/// passes it on its flag, without an availability query: here V is the only
/// view and holds every block, so a second request of its size asks nothing
/// and lands in S4.
#[test]
fn exact_walk_skips_an_assigned_view_on_its_flag() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    let v = l.allocate(AllocRequest::new(mib(10))).unwrap();
    assert_eq!((l.sblock_count(), l.state_counters().stitches), (1, 1));
    let before = l.work_counters();
    assert_eq!(l.probe_bestfit_indexed(mib(10)), 4, "V is held");
    assert_eq!(work_since(&l, before).views_verified, 0);
    l.assert_bestfit_agrees(mib(10));
    l.deallocate(v.id).unwrap();
    assert_eq!(l.probe_bestfit_indexed(mib(10)), 1, "V again");
    l.validate().unwrap();
}

/// The converged pool: every inactive pBlock sits in an available view, so
/// an S3 request finds the unreferenced and referenced-blocked tiers empty
/// — the reference makes two full passes before its third succeeds — and
/// the indexed path must still agree with it. Each 4 + 6 MiB pair is freed
/// and re-requested as 10 MiB, which stitches it; holding every view keeps
/// later pairs off earlier ones, and the final frees make them all
/// available at once.
#[test]
fn converged_pool_s3_agrees_with_the_reference() {
    let mut l = lake();
    let views: Vec<_> = (0..4)
        .map(|_| {
            let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
            let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
            l.deallocate(a.id).unwrap();
            l.deallocate(b.id).unwrap();
            l.allocate(AllocRequest::new(mib(10))).unwrap()
        })
        .collect();
    for v in views {
        l.deallocate(v.id).unwrap();
    }
    l.validate().unwrap();
    let idx = l.reference_indexes();
    let shape = (idx.available_views.len(), idx.inactive_pblocks.len());
    assert_eq!(shape, (4, 8), "every inactive block in an available view");
    assert_eq!(l.probe_bestfit_indexed(mib(10)), 1, "a whole view");
    assert_eq!(l.probe_bestfit_indexed(mib(20)), 3, "two views' parts");
    l.assert_bestfit_agrees(mib(20));
}

/// A witness hint names a part by slab id, and `Split` frees the id of the
/// part it cuts for reuse, so the hint has to follow the part to its left
/// child. Here V's hint names X; X is split, X's id comes back as a live
/// block, and V — idle again — must still serve the next exact match of its
/// size instead of reading as blocked by that stranger.
#[test]
fn a_witness_hint_survives_a_split_of_its_part() {
    let mut l = lake();
    let z = l.allocate(AllocRequest::new(mib(16))).unwrap();
    let x = l.allocate(AllocRequest::new(mib(8))).unwrap();
    let y = l.allocate(AllocRequest::new(mib(4))).unwrap();
    l.deallocate(x.id).unwrap();
    l.deallocate(y.id).unwrap();
    let v = l.allocate(AllocRequest::new(mib(12))).unwrap();
    assert_eq!(l.state_counters().stitches, 1, "V = [X, Y], hinted at X");
    l.deallocate(v.id).unwrap();
    // Z is held, so no unreferenced block is free: a 6 MiB S2 splits X into
    // 6 | 2 and hands out the left child; X's id goes on the free list.
    let c = l.allocate(AllocRequest::new(mib(6))).unwrap();
    assert_eq!((c.va, l.state_counters().splits), (x.va, 1));
    // A 10 MiB S2 splits the freed Z, and its left child — live — is the
    // next block inserted, under X's old id.
    l.deallocate(z.id).unwrap();
    let d = l.allocate(AllocRequest::new(mib(10))).unwrap();
    assert_eq!((d.va, l.state_counters().splits), (z.va, 2));
    l.validate().unwrap();
    // Every part of V is idle again.
    l.deallocate(c.id).unwrap();
    let exact = l.state_counters().exact;
    let again = l.allocate(AllocRequest::new(mib(12))).unwrap();
    assert_eq!(l.state_counters().exact, exact + 1, "V read as blocked");
    assert_eq!(again.va, v.va);
    for id in [again.id, d.id] {
        l.deallocate(id).unwrap();
    }
    l.validate().unwrap();
}

/// The witness hint is what makes a still-blocked view cheap: the query that
/// finds the active part leaves the hint on it, and each later query of the
/// view reads that one part.
#[test]
fn a_blocked_view_costs_one_part_per_query_after_the_first() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(6))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(4))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    let v = l.allocate(AllocRequest::new(mib(10))).unwrap();
    l.deallocate(v.id).unwrap();
    // V = [6, 4], hinted at its first part; handing out the second alone
    // blocks it.
    let hold = l.allocate(AllocRequest::new(mib(4))).unwrap();
    // A 10 MiB probe asks about V twice: in the exact walk and in the S4
    // classification.
    let scanned = |l: &mut GmLakeAllocator| {
        let before = l.work_counters();
        assert_eq!(l.probe_bestfit_indexed(mib(10)), 4);
        let work = work_since(l, before);
        (work.views_verified, work.parts_scanned)
    };
    assert_eq!(scanned(&mut l), (2, 3 + 1), "a miss and a scan, then a hit");
    assert_eq!(scanned(&mut l), (2, 2), "one part per query");
    l.deallocate(hold.id).unwrap();
    l.validate().unwrap();
}

/// Tearing a parked view down takes it off its witness part's list, and the
/// part's `PARKS` flag goes with the last view on it.
#[test]
fn tearing_down_a_parked_view_clears_its_witness_flag() {
    let cfg = GmLakeConfig::default()
        .with_frag_limit(mib(2))
        .with_max_sblocks(1);
    let mut l = lake_with(DeviceConfig::small_test(), cfg);
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    let view_a = l.allocate(AllocRequest::new(mib(10))).unwrap();
    l.deallocate(view_a.id).unwrap();
    let held: Vec<_> = [6, 4]
        .map(|m| l.allocate(AllocRequest::new(mib(m))).unwrap())
        .into();
    // View B over fresh blocks goes over the cap of one; the victim scan
    // finds A blocked and parks it.
    let c = l.allocate(AllocRequest::new(mib(8))).unwrap();
    let d = l.allocate(AllocRequest::new(mib(12))).unwrap();
    l.deallocate(c.id).unwrap();
    l.deallocate(d.id).unwrap();
    let view_b = l.allocate(AllocRequest::new(mib(20))).unwrap();
    assert_eq!((l.sblock_count(), l.state_counters().evictions), (2, 0));
    l.validate().unwrap();
    // The parked-view count is held to the parked lists.
    assert_eq!(*l.parked_count(), 1);
    *l.parked_count() = 0;
    assert!(l.validate().unwrap_err().contains("parked"));
    *l.parked_count() = 1;
    // `compact` destroys A, blocked and unassigned, while it is parked.
    l.compact();
    assert_eq!((l.sblock_count(), *l.parked_count()), (1, 0));
    l.validate().unwrap();
    for id in [view_b.id, held[0].id, held[1].id] {
        l.deallocate(id).unwrap();
    }
    l.validate().unwrap();
}

/// `validate()` holds the dense state to what it summarises — each flag to
/// its block or view, a dead slot to zero, the size lists to the views —
/// and catches each corruption below; undoing it passes again.
#[test]
fn validate_checks_the_dense_state() {
    use crate::block::{Dense, ACTIVE, PARKS, REFERENCED, STAMPED};
    type Sizes = gmlake_alloc_api::IdMap<u64, Vec<u64>>;
    let mut l = lake();
    // pBlocks X = 1, Y = 2, P = 3, Q = 4, C = 5; views V = 1 = [X, Y], held,
    // and W = 2 = [P, Q], free, both of 12 MiB; C free and standalone.
    let held: Vec<_> = [8, 4, 8, 4, 6]
        .map(|m| l.allocate(AllocRequest::new(mib(m))).unwrap())
        .into();
    for a in &held[..2] {
        l.deallocate(a.id).unwrap();
    }
    let v = l.allocate(AllocRequest::new(mib(12))).unwrap();
    for a in &held[2..4] {
        l.deallocate(a.id).unwrap();
    }
    let w = l.allocate(AllocRequest::new(mib(12))).unwrap();
    for id in [w.id, held[4].id] {
        l.deallocate(id).unwrap();
    }
    assert_eq!((l.sblock_count(), l.state_counters().stitches), (2, 2));
    l.validate().unwrap();
    // Each corruption is undone from a copy taken before it.
    let caught = |l: &mut GmLakeAllocator, what: &str, corrupt: &dyn Fn(&mut Dense, &mut Sizes)| {
        let (dense, sizes) = l.dense_state();
        let saved = (dense.clone(), sizes.clone());
        corrupt(dense, sizes);
        assert!(l.validate().is_err(), "validate() missed {what}");
        let (dense, sizes) = l.dense_state();
        (*dense, *sizes) = saved;
        l.validate().unwrap();
    };
    caught(&mut l, "a held part read idle", &|d, _| d.p[1] ^= ACTIVE);
    caught(&mut l, "a free block read active", &|d, _| d.p[5] ^= ACTIVE);
    caught(&mut l, "a lost REFERENCED", &|d, _| d.p[4] ^= REFERENCED);
    caught(&mut l, "a stray REFERENCED", &|d, _| d.p[5] ^= REFERENCED);
    caught(&mut l, "a stray PARKS", &|d, _| d.p[1] ^= PARKS);
    caught(&mut l, "a held view read free", &|d, _| {
        d.s[1].assigned ^= true
    });
    caught(&mut l, "a free view read held", &|d, _| {
        d.s[2].assigned ^= true
    });
    caught(&mut l, "a hint off the parts", &|d, _| d.s[2].hint.set(1));
    caught(&mut l, "a flag on dead pBlock 0", &|d, _| d.p[0] = ACTIVE);
    caught(&mut l, "a hint on dead view 0", &|d, _| d.s[0].hint.set(1));
    caught(&mut l, "a stray STAMPED", &|d, _| d.p[5] ^= STAMPED);
    caught(&mut l, "an assigned flag on dead view 0", &|d, _| {
        d.s[0].assigned = true
    });
    let twelve = |views: &'static [u64]| {
        move |_: &mut Dense, s: &mut Sizes| {
            s.insert(mib(12), views.to_vec());
        }
    };
    caught(&mut l, "a view listed twice", &twelve(&[1, 1, 2]));
    caught(&mut l, "a list out of order", &twelve(&[2, 1]));
    caught(&mut l, "a view missing", &twelve(&[2]));
    caught(&mut l, "an empty size list", &|_, s| {
        drop(s.insert(mib(2), vec![]))
    });
    caught(&mut l, "views under another size", &|_, s| {
        let views = s.remove(&mib(12)).unwrap();
        s.insert(mib(10), views);
    });
    l.deallocate(v.id).unwrap();
    l.validate().unwrap();
}

/// A part that is live while its only view is torn down: view V = [b, a]
/// is freed, `a` is handed out by an exact pBlock match (V is now blocked),
/// `compact` GCs V, and `a` — active and no longer referenced — leaves the
/// index; freeing it lands it in the unreferenced tier. `validate()` checks
/// every block's placement after each step.
#[test]
fn active_part_leaves_the_index_when_its_last_view_is_torn_down() {
    let mut l = lake();
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(12))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    let v = l.allocate(AllocRequest::new(mib(16))).unwrap();
    assert_eq!(l.state_counters().stitches, 1, "V stitches both blocks");
    l.deallocate(v.id).unwrap();
    l.validate().unwrap();
    // Only the referenced tier holds a 4 MiB block: `a`, which stays there
    // while active.
    let exact = l.state_counters().exact;
    let before = l.work_counters();
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    assert_eq!(l.state_counters().exact, exact + 1, "ExactP on a");
    assert_eq!(work_since(&l, before).index_ops, 0);
    l.validate().unwrap();
    l.assert_bestfit_agrees(mib(4));
    l.assert_bestfit_agrees(mib(12));
    // V is blocked, so compact destroys it: `a` leaves the index (one
    // remove), `b` moves to the unreferenced tier (a remove and an insert).
    // `b` stays: 12 MiB is the mean request, (16 + 144 + 256 + 16) / 36.
    let before = l.work_counters();
    assert_eq!(l.compact(), 0, "nothing idle below the limit");
    assert_eq!(l.sblock_count(), 0);
    assert_eq!(work_since(&l, before).index_ops, 3);
    l.validate().unwrap();
    l.assert_bestfit_agrees(mib(4));
    // Freeing `a` inserts it in the unreferenced tier, where the next
    // 4 MiB request finds it.
    let before = l.work_counters();
    l.deallocate(a.id).unwrap();
    assert_eq!(work_since(&l, before).index_ops, 1);
    l.validate().unwrap();
    l.assert_bestfit_agrees(mib(4));
    let again = l.allocate(AllocRequest::new(mib(4))).unwrap();
    assert_eq!(again.va, a.va, "the same block, now standalone");
    l.deallocate(again.id).unwrap();
    l.validate().unwrap();
}

/// An S3 that runs out of unreferenced blocks classifies once: it verifies
/// the unparked unassigned views and scans no more than their parts.
#[test]
fn s3_classification_is_bounded_by_the_unparked_views() {
    let (parts, views) = (33u64, 8u64);
    let mut l = dense_sharing_pool(parts, views);
    // 10 blocks' worth: no view or block of that size, no larger block, and
    // every block is referenced by an available view.
    let (before, multi) = (l.work_counters(), l.state_counters().multi);
    let a = l.allocate(AllocRequest::new(mib(2) * 10)).unwrap();
    assert_eq!(
        l.state_counters().multi,
        multi + 1,
        "S3 over referenced blocks"
    );
    let work = work_since(&l, before);
    assert_eq!(work.views_verified, views, "each unassigned view once");
    let their_parts: u64 = (parts - views + 1..=parts).sum();
    assert!(
        work.parts_scanned <= views + their_parts,
        "a hint plus its parts per view, at most: {work:?}"
    );
    assert_eq!(work.ref_scans, 0, "no per-block referenced_by walk");
    l.deallocate(a.id).unwrap();
    l.validate().unwrap();
}

/// A view a victim scan found blocked is parked: later scans and S3/S4
/// classification do not verify it again until its witness part flips.
#[test]
fn parked_view_is_not_verified_until_its_witness_flips() {
    let cfg = GmLakeConfig::default()
        .with_frag_limit(mib(2))
        .with_max_sblocks(1);
    let mut l = lake_with(DeviceConfig::small_test(), cfg);
    let verified = |l: &GmLakeAllocator, before| work_since(l, before).views_verified;
    // A spare block, held so no stitch consumes it: re-allocating it later
    // triggers `StitchFree` without touching any view.
    let spare = l.allocate(AllocRequest::new(mib(14))).unwrap();
    // View A = [6, 4], then blocked by holding both parts directly.
    let a = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let b = l.allocate(AllocRequest::new(mib(6))).unwrap();
    l.deallocate(a.id).unwrap();
    l.deallocate(b.id).unwrap();
    let view_a = l.allocate(AllocRequest::new(mib(10))).unwrap();
    l.deallocate(view_a.id).unwrap();
    let hold6 = l.allocate(AllocRequest::new(mib(6))).unwrap();
    let hold4 = l.allocate(AllocRequest::new(mib(4))).unwrap();
    // View B = [12, 8] over fresh blocks pushes the sPool over its cap of
    // one; the victim scan meets A, finds it blocked by the 6 MiB part and
    // parks it there.
    let c = l.allocate(AllocRequest::new(mib(8))).unwrap();
    let d = l.allocate(AllocRequest::new(mib(12))).unwrap();
    l.deallocate(c.id).unwrap();
    l.deallocate(d.id).unwrap();
    let view_b = l.allocate(AllocRequest::new(mib(20))).unwrap();
    assert_eq!((l.sblock_count(), l.state_counters().evictions), (2, 0));
    l.validate().unwrap();
    // Still over the cap, so every allocation scans for a victim — and
    // finds the index empty: B, the exact-match candidate, is all it asks.
    l.deallocate(view_b.id).unwrap();
    let before = l.work_counters();
    let view_b = l.allocate(AllocRequest::new(mib(20))).unwrap();
    assert_eq!(verified(&l, before), 1, "A stayed parked");
    // A 30 MiB S4 has only B's referenced parts to start from: its
    // classification verifies B and skips A; the victim scan behind it
    // then finds B blocked by the new view and parks it as well.
    l.deallocate(view_b.id).unwrap();
    let before = l.work_counters();
    let view_c = l.allocate(AllocRequest::new(mib(30))).unwrap();
    assert_eq!(l.state_counters().stitches, 3, "[12, 8] + fresh chunks");
    assert_eq!(verified(&l, before), 2, "B twice, A never");
    l.validate().unwrap();
    // Releasing the witness returns A to the eviction list; the next scan
    // verifies it once, finds the 4 MiB part and parks it there.
    l.deallocate(hold6.id).unwrap();
    l.deallocate(spare.id).unwrap();
    let before = l.work_counters();
    let spare = l.allocate(AllocRequest::new(mib(14))).unwrap();
    assert_eq!(verified(&l, before), 1, "A re-entered, still blocked");
    assert_eq!(l.state_counters().evictions, 0);
    l.validate().unwrap();
    // With both parts idle the scan after that evicts it.
    l.deallocate(hold4.id).unwrap();
    l.deallocate(spare.id).unwrap();
    let spare = l.allocate(AllocRequest::new(mib(14))).unwrap();
    assert_eq!((l.sblock_count(), l.state_counters().evictions), (2, 1));
    for id in [spare.id, view_c.id] {
        l.deallocate(id).unwrap();
    }
    l.validate().unwrap();
}

/// Defrag-aware `StitchFree` (PR 8): builds a converged pool holding three
/// evictable views — `S_uniq` (LRU-oldest, over *uniquely referenced*
/// parts), and `S_extra`/`S_donor` (newer, sharing all of `S_extra`'s parts)
/// — then triggers one eviction with a stitch over disjoint fresh parts.
/// Pure LRU would destroy `S_uniq`, and the follow-up request would have to
/// rebuild the destroyed view; the shared-parts-aware window evicts
/// `S_extra` (whose parts all live on inside `S_donor`) for free.
fn cannibalization_scenario() -> GmLakeAllocator {
    let cfg = GmLakeConfig::default()
        .with_frag_limit(mib(2))
        .with_max_sblocks(3);
    let mut l = lake_with(DeviceConfig::small_test(), cfg);
    // Raw material, all held live so BestFit cannot mix the groups:
    // a* become S_uniq's parts, b* S_donor's, c* the trigger's.
    let a1 = l.allocate(AllocRequest::new(mib(2))).unwrap();
    let a2 = l.allocate(AllocRequest::new(mib(4))).unwrap();
    let bs: Vec<_> = [4, 4, 4, 2]
        .iter()
        .map(|&m| l.allocate(AllocRequest::new(mib(m))).unwrap())
        .collect();
    let cs: Vec<_> = (0..4)
        .map(|_| l.allocate(AllocRequest::new(mib(4))).unwrap())
        .collect();
    // S_uniq [4, 2]: its parts are referenced by no other view, ever.
    l.deallocate(a1.id).unwrap();
    l.deallocate(a2.id).unwrap();
    let u = l.allocate(AllocRequest::new(mib(6))).unwrap();
    // S_donor [4, 4, 4, 2], then S_extra [4, 4, 4] re-stitching three of
    // S_donor's freed parts (S_uniq's parts are active behind `u`, the
    // trigger material behind `cs`).
    for b in &bs {
        l.deallocate(b.id).unwrap();
    }
    let d = l.allocate(AllocRequest::new(mib(14))).unwrap();
    l.deallocate(d.id).unwrap();
    let e = l.allocate(AllocRequest::new(mib(12))).unwrap();
    assert_eq!(l.state_counters().stitches, 3, "S_uniq, S_donor, S_extra");
    // Free order fixes LRU recency: S_uniq oldest, then S_extra; an exact
    // re-use refresh makes S_donor the most recent.
    l.deallocate(u.id).unwrap();
    l.deallocate(e.id).unwrap();
    let g = l.allocate(AllocRequest::new(mib(14))).unwrap();
    assert_eq!(l.state_counters().exact, 1, "refresh hit S_donor exactly");
    l.deallocate(g.id).unwrap();
    // Trigger: a 16 MiB stitch over the four fresh 4 MiB c-parts pushes the
    // sPool to 4 > max_sblocks=3 and forces exactly one StitchFree pass
    // while S_uniq, S_extra and S_donor are all evictable.
    for c in &cs {
        l.deallocate(c.id).unwrap();
    }
    let t = l.allocate(AllocRequest::new(mib(16))).unwrap();
    assert_eq!(l.state_counters().stitches, 4, "trigger stitch");
    assert_eq!(l.state_counters().evictions, 1, "one StitchFree eviction");
    assert_eq!(l.sblock_count(), 3);
    l.deallocate(t.id).unwrap();
    l.validate().unwrap();
    l
}

#[test]
fn stitchfree_window_prefers_shared_part_victims() {
    let mut l = cannibalization_scenario();
    let exact_before = l.state_counters().exact;
    // S_extra was the victim (every part survives inside S_donor), so the
    // converged 6 MiB request still exact-matches S_uniq: zero driver work.
    let r = l.allocate(AllocRequest::new(mib(6))).unwrap();
    assert_eq!(l.state_counters().exact, exact_before + 1);
    assert_eq!(l.state_counters().stitches, 4, "no re-stitch");
    assert_eq!(l.state_counters().evictions, 1, "no further eviction");
    l.deallocate(r.id).unwrap();
    l.validate().unwrap();
}

#[test]
fn exact_match_prefers_same_stream_pblock() {
    use gmlake_alloc_api::StreamId;
    let mut l = lake();
    // Two equal-size pBlocks, last used by streams 1 and 2 respectively.
    // Ids are sequential, so a plain exact match would always hand out the
    // first (lowest-id) block.
    let a = l
        .alloc_on_stream(AllocRequest::new(mib(4)), StreamId(1))
        .unwrap();
    let b = l
        .alloc_on_stream(AllocRequest::new(mib(4)), StreamId(2))
        .unwrap();
    l.free_on_stream(a.id, StreamId(1)).unwrap();
    l.free_on_stream(b.id, StreamId(2)).unwrap();
    // Stream 2 gets its own warm block even though stream 1's has the
    // lower id; stream 1 still gets its own.
    let c = l
        .alloc_on_stream(AllocRequest::new(mib(4)), StreamId(2))
        .unwrap();
    assert_eq!(c.va, b.va, "stream-2 affinity");
    let d = l
        .alloc_on_stream(AllocRequest::new(mib(4)), StreamId(1))
        .unwrap();
    assert_eq!(d.va, a.va, "stream-1 affinity");
    // Streamless callers are untouched by affinity: lowest id wins.
    l.free_on_stream(c.id, StreamId(2)).unwrap();
    l.free_on_stream(d.id, StreamId(1)).unwrap();
    let e = l.allocate(AllocRequest::new(mib(4))).unwrap();
    assert_eq!(e.va, a.va, "streamless exact match takes the lowest id");
    l.deallocate(e.id).unwrap();
    l.validate().unwrap();
}

#[test]
fn exact_match_takes_lowest_id_sblock_on_any_stream() {
    use gmlake_alloc_api::StreamId;
    let mut l = lake();
    // Build two identical 10 MiB stitched views (4+6 each), freed on
    // streams 1 and 2.
    let mut views = Vec::new();
    for stream in [StreamId(1), StreamId(2)] {
        let a = l
            .alloc_on_stream(AllocRequest::new(mib(4)), stream)
            .unwrap();
        let b = l
            .alloc_on_stream(AllocRequest::new(mib(6)), stream)
            .unwrap();
        l.free_on_stream(a.id, stream).unwrap();
        l.free_on_stream(b.id, stream).unwrap();
        let v = l
            .alloc_on_stream(AllocRequest::new(mib(10)), stream)
            .unwrap();
        views.push(v);
    }
    let stitches = l.state_counters().stitches;
    for (v, stream) in views.iter().zip([StreamId(1), StreamId(2)]) {
        l.free_on_stream(v.id, stream).unwrap();
    }
    // Views carry no stream: stream 2's request exact-matches the lower-id
    // view stitched for stream 1, Algorithm 1's pick.
    let r = l
        .alloc_on_stream(AllocRequest::new(mib(10)), StreamId(2))
        .unwrap();
    assert_eq!(r.va, views[0].va, "the lowest-id available view");
    assert_eq!(l.state_counters().stitches, stitches, "pure reuse");
    l.free_on_stream(r.id, StreamId(2)).unwrap();
    l.validate().unwrap();
}

/// An exact view match verifies only the view it takes: with view 0 last
/// freed on stream 1 and an available view 1 of stream 2 behind it, a
/// stream-2 hand-out takes view 0 and never asks about view 1.
#[test]
fn affinity_walk_verifies_no_view_of_another_stream() {
    use gmlake_alloc_api::StreamId;
    let mut l = lake();
    let views: Vec<_> = [StreamId(1), StreamId(2)]
        .into_iter()
        .map(|s| {
            let halves = [0; 2].map(|_| l.alloc_on_stream(AllocRequest::new(mib(2)), s));
            for half in halves {
                l.free_on_stream(half.unwrap().id, s).unwrap();
            }
            let view = l.alloc_on_stream(AllocRequest::new(mib(4)), s).unwrap();
            (view, s)
        })
        .collect();
    assert_eq!(l.state_counters().stitches, 2, "one stitch per view");
    for (v, s) in &views {
        l.free_on_stream(v.id, *s).unwrap();
    }
    let before = l.work_counters();
    let r = l
        .alloc_on_stream(AllocRequest::new(mib(4)), StreamId(2))
        .unwrap();
    assert_eq!(r.va, views[0].0.va, "chosen, though stream 2 has a view");
    assert_eq!(work_since(&l, before).views_verified, 1, "chosen alone");
    l.validate().unwrap();
}

mod streams {
    //! The cross-stream rule: a free from a stream other than the
    //! allocating one stamps the freeing stream's event on the blocks, and
    //! the next other stream to get them waits for it on the GPU.

    use super::*;
    use gmlake_alloc_api::{StreamId, VirtAddr};
    use gmlake_gpu_sim::PhysHandle;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    const S0: StreamId = StreamId(0);
    const S1: StreamId = StreamId(1);
    const S2: StreamId = StreamId(2);

    /// A zero-cost lake: the host clock moves only when a test moves it,
    /// so work launched on a stream stays in flight until then.
    fn lake_and_driver() -> (GmLakeAllocator, CudaDriver) {
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        (GmLakeAllocator::new(driver.clone(), test_config()), driver)
    }

    /// Allocates `size` on `owner`, then frees it from `freeing` while
    /// `freeing` has 1 ms of work in flight.
    fn freed_while_busy(
        l: &mut GmLakeAllocator,
        d: &CudaDriver,
        size: u64,
        owner: StreamId,
        freeing: StreamId,
    ) -> VirtAddr {
        let a = l.alloc_on_stream(AllocRequest::new(size), owner).unwrap();
        d.stream_launch(freeing, 1_000_000);
        l.free_on_stream(a.id, freeing).unwrap();
        l.validate().unwrap();
        a.va
    }

    #[test]
    fn the_next_other_stream_waits_on_the_gpu_not_the_host() {
        let (mut l, d) = lake_and_driver();
        let va = freed_while_busy(&mut l, &d, mib(4), S1, S0);
        assert_eq!(d.outstanding_events(), 1, "the free recorded an event");
        let b = l.alloc_on_stream(AllocRequest::new(mib(4)), S1).unwrap();
        assert_eq!(b.va, va, "the stamped block is reused as BestFit chose");
        let st = d.stats();
        assert_eq!((st.event_wait.calls, st.event_sync.calls), (1, 0));
        assert_eq!(d.now_ns(), 0, "the host never waited");
        assert_eq!(d.stream_frontier_ns(S1), d.stream_frontier_ns(S0));
        // The stamp is spent: a same-stream cycle and a hand-out to a third
        // stream wait for nothing more.
        l.free_on_stream(b.id, S1).unwrap();
        let c = l.alloc_on_stream(AllocRequest::new(mib(4)), S2).unwrap();
        assert_eq!(c.va, va);
        assert_eq!(d.stats().event_wait.calls, 1);
        l.validate().unwrap();
    }

    #[test]
    fn the_freeing_stream_reuses_its_own_stamp_without_a_wait() {
        let (mut l, d) = lake_and_driver();
        freed_while_busy(&mut l, &d, mib(4), S1, S0);
        let b = l.alloc_on_stream(AllocRequest::new(mib(4)), S0).unwrap();
        assert_eq!(d.stats().event_wait.calls, 0, "stream order covers it");
        l.free_on_stream(b.id, S0).unwrap();
        l.validate().unwrap();
    }

    #[test]
    fn a_caught_up_freeing_stream_leaves_no_stamp() {
        let (mut l, d) = lake_and_driver();
        let a = l.alloc_on_stream(AllocRequest::new(mib(4)), S1).unwrap();
        l.free_on_stream(a.id, S0).unwrap();
        assert_eq!(d.stats().event_record.calls, 1, "one costed record");
        assert_eq!(d.outstanding_events(), 0, "nothing in flight to track");
        let b = l.alloc_on_stream(AllocRequest::new(mib(4)), S1).unwrap();
        assert_eq!(d.stats().event_wait.calls, 0);
        l.free_on_stream(b.id, S1).unwrap();
        assert_eq!(
            d.stats().event_record.calls,
            1,
            "same-stream frees record nothing"
        );
    }

    #[test]
    fn split_children_inherit_the_stamp() {
        let (mut l, d) = lake_and_driver();
        freed_while_busy(&mut l, &d, mib(8), S1, S0);
        let left = l.alloc_on_stream(AllocRequest::new(mib(4)), S1).unwrap();
        assert_eq!(l.state_counters().splits, 1, "S2 split the stamped block");
        let right = l.alloc_on_stream(AllocRequest::new(mib(4)), S2).unwrap();
        assert_eq!(l.state_counters().exact, 1, "the right half, exactly");
        assert_eq!(d.stats().event_wait.calls, 2, "each child waited");
        for (a, s) in [(left, S1), (right, S2)] {
            l.free_on_stream(a.id, s).unwrap();
        }
        l.validate().unwrap();
    }

    #[test]
    fn a_replay_boundary_leaks_no_event_and_retires_the_stamps() {
        // The offload replay's iteration: compute in flight on stream 0,
        // gather buffers produced on stream 1 and freed by compute, then
        // the device synchronization and the `process_events` tick.
        let (mut l, d) = lake_and_driver();
        let buffers: Vec<_> = [mib(4), mib(6), mib(10)]
            .map(|size| l.alloc_on_stream(AllocRequest::new(size), S1).unwrap())
            .into();
        for a in buffers {
            d.stream_launch(S0, 1_000_000);
            l.free_on_stream(a.id, S0).unwrap();
        }
        assert_eq!(d.outstanding_events(), 3);
        d.device_synchronize();
        assert_eq!(d.outstanding_events(), 0, "no event outlives the boundary");
        assert_eq!(l.process_events(), 3, "three stamped blocks retired");
        assert_eq!(
            d.stats().event_query.calls,
            1,
            "one query per freeing stream"
        );
        assert_eq!(l.process_events(), 0);
        l.validate().unwrap();
        let a = l.alloc_on_stream(AllocRequest::new(mib(6)), S1).unwrap();
        assert_eq!(
            d.stats().event_wait.calls,
            0,
            "reuse after the tick is free"
        );
        l.free_on_stream(a.id, S1).unwrap();
    }

    #[test]
    fn process_events_keeps_the_stamps_of_streams_still_running() {
        let (mut l, d) = lake_and_driver();
        freed_while_busy(&mut l, &d, mib(4), S1, S0);
        assert_eq!(l.process_events(), 0, "the event is still pending");
        l.validate().unwrap();
        let b = l.alloc_on_stream(AllocRequest::new(mib(4)), S2).unwrap();
        assert_eq!(d.stats().event_wait.calls, 1, "the stamp still guards");
        l.free_on_stream(b.id, S2).unwrap();
    }

    #[test]
    fn teardown_synchronizes_a_stamped_block_first() {
        let (mut l, d) = lake_and_driver();
        freed_while_busy(&mut l, &d, mib(4), S1, S0);
        let busy_until = d.stream_frontier_ns(S0);
        assert_eq!(l.release_cached(), mib(4));
        assert_eq!(d.stats().event_sync.calls, 1);
        assert!(
            d.now_ns() >= busy_until,
            "unmapped only once stream 0 was done"
        );
        l.validate().unwrap();
        // Dropping the allocator synchronizes what it still holds stamped.
        freed_while_busy(&mut l, &d, mib(4), S1, S0);
        let busy_until = d.stream_frontier_ns(S0);
        drop(l);
        assert!(d.now_ns() >= busy_until);
        assert!(d.snapshot().is_quiescent());
    }

    #[test]
    fn a_small_cross_stream_free_waits_on_the_host() {
        // The small pool's blocks carry no stamp, so the free itself waits.
        let (mut l, d) = lake_and_driver();
        let a = l.alloc_on_stream(AllocRequest::new(4096), S1).unwrap();
        d.stream_launch(S0, 1_000_000);
        l.free_on_stream(a.id, S0).unwrap();
        assert_eq!(d.stats().event_sync.calls, 1);
        assert!(d.now_ns() >= d.stream_frontier_ns(S0));
        l.validate().unwrap();
    }

    #[test]
    fn a_streamless_hand_out_waits_on_the_host() {
        // No receiving stream to order a GPU wait on, even when the block
        // was freed from the default stream.
        for freeing in [S0, S2] {
            let (mut l, d) = lake_and_driver();
            let va = freed_while_busy(&mut l, &d, mib(4), S1, freeing);
            let busy_until = d.stream_frontier_ns(freeing);
            let b = l.allocate(AllocRequest::new(mib(4))).unwrap();
            assert_eq!(b.va, va);
            let st = d.stats();
            assert_eq!((st.event_wait.calls, st.event_sync.calls), (0, 1));
            assert!(d.now_ns() >= busy_until, "freed from {freeing:?}");
            l.deallocate(b.id).unwrap();
            l.validate().unwrap();
        }
    }

    #[test]
    fn a_front_end_cache_refill_never_outruns_the_freeing_stream() {
        // A front-end refills a stream's small cache with a streamless core
        // request: (1 MiB, 2 MiB) rounds up to the 2 MiB class, which the
        // lake serves from the stamped 4 MiB block freed below.
        use gmlake_alloc_api::{DeviceAllocator, DeviceAllocatorConfig};
        let (l, d) = lake_and_driver();
        let config = DeviceAllocatorConfig::default().with_streams(4);
        let pool = DeviceAllocator::try_build(Box::new(l), config, Some(Arc::new(d.clone())), None)
            .unwrap();
        let a = pool.alloc_on_stream(AllocRequest::new(mib(4)), S1).unwrap();
        d.stream_launch(S0, 1_000_000);
        pool.free_on_stream(a.id, S0).unwrap();
        let busy_until = d.stream_frontier_ns(S0);
        let b = pool
            .alloc_on_stream(AllocRequest::new(mib(3) / 2), S2)
            .unwrap();
        let chunks = d.translate(a.va, a.size).unwrap();
        let got = d.translate(b.va, b.size).unwrap();
        assert!(got.iter().all(|h| chunks.contains(h)), "reused the block");
        assert!(
            d.now_ns() >= busy_until || d.stream_frontier_ns(S2) >= busy_until,
            "stream 2 may run before stream 0 is done with the memory"
        );
        pool.free_on_stream(b.id, S2).unwrap();
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Allocate on a stream; stream 3 stands for a streamless caller.
        Alloc(u64, u32),
        /// Free the n-th (mod live count) live allocation from a stream.
        Free(usize, u32),
        /// Launch this much work on a stream.
        Launch(u32, u64),
        /// Let the host clock run.
        Advance(u64),
        Tick,
        /// Device synchronization, iteration boundary, tick.
        Boundary,
        Compact,
        ReleaseCached,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (mib(2)..mib(16), 0u32..4).prop_map(|(size, s)| Op::Alloc(size, s)),
            5 => (any::<usize>(), 0u32..3).prop_map(|(n, s)| Op::Free(n, s)),
            3 => (0u32..3, 1u64..1_000_000).prop_map(|(s, ns)| Op::Launch(s, ns)),
            2 => (1u64..500_000).prop_map(Op::Advance),
            1 => Just(Op::Tick),
            1 => Just(Op::Boundary),
            1 => Just(Op::Compact),
            1 => Just(Op::ReleaseCached),
        ]
    }

    /// The oracle, kept outside the allocator: it translates every freed
    /// and every new allocation into physical granules, each a handle and
    /// an offset in it — a handle backs a whole reservation, so its other
    /// pieces are other memory. A cross-stream free records, per granule,
    /// the freeing stream and when the work it had in flight completes; the
    /// next allocation covering the granule must come from that stream, or
    /// from one whose frontier is at least that late.
    /// A streamless caller names no stream, so the host clock itself must
    /// have reached that time: nothing it launches next can run earlier.
    /// Same-stream frees are outside the rule (see
    /// `docs/streams-and-events.md`), so they record nothing; a streamless
    /// allocation is owned by `StreamId::DEFAULT`.
    #[test]
    fn cross_stream_reuse_never_outruns_the_freeing_streams_work() {
        let programs = proptest::collection::vec(op_strategy(), 1..160);
        let config = ProptestConfig::with_cases(64);
        let (mut guarded, mut host_guarded) = (0u64, 0u64);
        proptest::run_property("core_stream_order", &config, &programs, |ops| {
            let dev = DeviceConfig::small_test()
                .with_capacity(mib(64))
                .with_backing(false);
            let d = CudaDriver::new(dev);
            let mut l = GmLakeAllocator::new(d.clone(), test_config().with_max_sblocks(12));
            let mut live: Vec<(AllocationId, VirtAddr, u64, StreamId)> = Vec::new();
            let mut freed: HashMap<(PhysHandle, u64), (StreamId, u64)> = HashMap::new();
            for op in &ops {
                match *op {
                    Op::Alloc(size, s) => {
                        let req = AllocRequest::new(size);
                        let stream = (s < 3).then_some(StreamId(s));
                        let before = d.now_ns();
                        let result = match stream {
                            Some(stream) => l.alloc_on_stream(req, stream),
                            None => l.allocate(req),
                        };
                        match result {
                            Ok(a) => {
                                for (h, off) in d.translate(a.va, a.size).unwrap() {
                                    let Some((from, done_at)) = freed.remove(&(h, off)) else {
                                        continue;
                                    };
                                    let Some(stream) = stream else {
                                        let now = d.now_ns();
                                        assert!(
                                            now >= done_at,
                                            "a streamless caller got {h}+{off:#x} at {now}, \
                                             before {from:?}'s work on it ends at {done_at}"
                                        );
                                        host_guarded += u64::from(done_at > before);
                                        continue;
                                    };
                                    let frontier = d.stream_frontier_ns(stream);
                                    assert!(
                                        from == stream || frontier >= done_at,
                                        "{stream:?} got {h}+{off:#x} at frontier {frontier}, \
                                         before {from:?}'s work on it ends at {done_at}"
                                    );
                                    guarded += u64::from(from != stream && done_at > d.now_ns());
                                }
                                let owner = stream.unwrap_or(StreamId::DEFAULT);
                                live.push((a.id, a.va, a.size, owner));
                            }
                            Err(AllocError::OutOfMemory { .. }) => {}
                            Err(e) => panic!("unexpected allocator error: {e}"),
                        }
                    }
                    Op::Free(n, s) => {
                        if live.is_empty() {
                            continue;
                        }
                        let (id, va, size, owner) = live.swap_remove(n % live.len());
                        let stream = StreamId(s);
                        if stream != owner {
                            let done_at = d.stream_frontier_ns(stream);
                            for granule in d.translate(va, size).unwrap() {
                                freed.insert(granule, (stream, done_at));
                            }
                        }
                        l.free_on_stream(id, stream).unwrap();
                    }
                    Op::Launch(s, ns) => d.stream_launch(StreamId(s), ns),
                    Op::Advance(ns) => d.advance_clock(ns),
                    Op::Tick => {
                        l.process_events();
                    }
                    Op::Boundary => {
                        d.device_synchronize();
                        l.iteration_boundary();
                        l.process_events();
                    }
                    Op::Compact => {
                        l.compact();
                    }
                    Op::ReleaseCached => {
                        l.release_cached();
                    }
                }
                l.validate().unwrap();
            }
            for (id, _, _, owner) in live {
                l.free_on_stream(id, owner).unwrap();
            }
            d.device_synchronize();
            l.process_events();
            l.validate().unwrap();
            assert_eq!(d.outstanding_events(), 0, "leaked driver events");
        });
        assert!(
            guarded > 0 && host_guarded > 0,
            "programs hand granules over while their work runs"
        );
    }
}
