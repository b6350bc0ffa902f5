//! Best-fit-with-coalescing caching allocator (the PyTorch baseline).
//!
//! Implements the four BFC operations of the paper's §2.2 / Figure 2(b):
//!
//! 1. **Best fit** — find the smallest inactive cached block that fits; fall
//!    back to `cudaMalloc`-ing a fresh segment;
//! 2. **Split** — carve the request out of a larger block, leaving the
//!    remainder cached (the source of the fragmentation GMLake attacks);
//! 3. **Free** — deallocation only flips the block inactive, never calls
//!    `cudaFree`;
//! 4. **Merge** — adjacent inactive blocks of a segment coalesce.
//!
//! Segments are returned to the device only by [`CachingAllocator::release_cached`]
//! (PyTorch's `empty_cache`) or by the out-of-memory retry path.

use std::collections::BTreeSet;

use gmlake_alloc_api::{
    AllocError, AllocRequest, Allocation, AllocationId, AllocatorCore, IdMap, MemStats, VirtAddr,
};
use gmlake_gpu_sim::{CudaDriver, DriverError};

use crate::round::{BfcConfig, PoolKind};

type BlockId = u64;
type SegmentId = u64;

#[derive(Debug)]
struct Block {
    segment: SegmentId,
    offset: u64,
    size: u64,
    free: bool,
    prev: Option<BlockId>,
    next: Option<BlockId>,
}

#[derive(Debug)]
struct Segment {
    va: VirtAddr,
    size: u64,
    pool: PoolKind,
    head: BlockId,
}

/// Read-only view of a segment, for diagnostics and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentView {
    /// Total segment size in bytes.
    pub size: u64,
    /// Pool the segment belongs to.
    pub pool: PoolKind,
    /// Bytes currently free inside the segment.
    pub free_bytes: u64,
    /// Number of blocks the segment is split into.
    pub blocks: usize,
}

/// PyTorch-style caching allocator.
///
/// # Example
///
/// ```
/// use gmlake_caching::CachingAllocator;
/// use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
/// use gmlake_alloc_api::{AllocRequest, AllocatorCore, mib};
///
/// let driver = CudaDriver::new(DeviceConfig::small_test());
/// let mut alloc = CachingAllocator::new(driver);
/// let a = alloc.allocate(AllocRequest::new(mib(6)))?;
/// alloc.deallocate(a.id)?;
/// // The segment stays cached: reserved memory does not drop.
/// assert!(alloc.stats().reserved_bytes >= mib(20));
/// # Ok::<(), gmlake_alloc_api::AllocError>(())
/// ```
#[derive(Debug)]
pub struct CachingAllocator {
    driver: CudaDriver,
    config: BfcConfig,
    host_op_ns: u64,
    blocks: IdMap<BlockId, Block>,
    next_block: BlockId,
    segments: IdMap<SegmentId, Segment>,
    next_segment: SegmentId,
    /// Free blocks keyed `(size, id)` per pool — best fit is the first entry
    /// `≥ (rounded, 0)`.
    free_small: BTreeSet<(u64, BlockId)>,
    free_large: BTreeSet<(u64, BlockId)>,
    live: IdMap<AllocationId, BlockId>,
    next_alloc: u64,
    stats: MemStats,
    reserved: u64,
}

impl CachingAllocator {
    /// Creates a caching allocator with PyTorch defaults on `driver`.
    pub fn new(driver: CudaDriver) -> Self {
        Self::with_config(driver, BfcConfig::default())
    }

    /// Creates a caching allocator with a custom configuration.
    pub fn with_config(driver: CudaDriver, config: BfcConfig) -> Self {
        let host_op_ns = driver.host_op_ns();
        CachingAllocator {
            driver,
            config,
            host_op_ns,
            blocks: IdMap::default(),
            next_block: 0,
            segments: IdMap::default(),
            next_segment: 0,
            free_small: BTreeSet::new(),
            free_large: BTreeSet::new(),
            live: IdMap::default(),
            next_alloc: 0,
            stats: MemStats::default(),
            reserved: 0,
        }
    }

    /// The allocator's configuration.
    pub fn config(&self) -> &BfcConfig {
        &self.config
    }

    /// The underlying driver handle.
    pub fn driver(&self) -> &CudaDriver {
        &self.driver
    }

    /// Number of segments currently cached or in use.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total bytes sitting free inside cached segments.
    pub fn free_bytes(&self) -> u64 {
        self.free_small
            .iter()
            .chain(self.free_large.iter())
            .map(|(s, _)| s)
            .sum()
    }

    /// Size of the largest single free block (the biggest request the cache
    /// could serve without growing).
    pub fn largest_free_block(&self) -> u64 {
        let a = self.free_small.iter().next_back().map_or(0, |(s, _)| *s);
        let b = self.free_large.iter().next_back().map_or(0, |(s, _)| *s);
        a.max(b)
    }

    /// Per-segment views, for diagnostics.
    pub fn segment_views(&self) -> Vec<SegmentView> {
        let mut views: Vec<SegmentView> = self
            .segments
            .values()
            .map(|seg| {
                let mut free_bytes = 0;
                let mut blocks = 0;
                let mut cur = Some(seg.head);
                while let Some(id) = cur {
                    let b = &self.blocks[&id];
                    if b.free {
                        free_bytes += b.size;
                    }
                    blocks += 1;
                    cur = b.next;
                }
                SegmentView {
                    size: seg.size,
                    pool: seg.pool,
                    free_bytes,
                    blocks,
                }
            })
            .collect();
        views.sort_by_key(|v| v.size);
        views
    }

    fn free_set(&mut self, pool: PoolKind) -> &mut BTreeSet<(u64, BlockId)> {
        match pool {
            PoolKind::Small => &mut self.free_small,
            PoolKind::Large => &mut self.free_large,
        }
    }

    /// Best-fit lookup honoring the `can_serve` policy.
    fn find_best_fit(&self, pool: PoolKind, rounded: u64) -> Option<BlockId> {
        let set = match pool {
            PoolKind::Small => &self.free_small,
            PoolKind::Large => &self.free_large,
        };
        for &(size, id) in set.range((rounded, 0)..) {
            if self.config.can_serve(pool, size, rounded) {
                return Some(id);
            }
        }
        None
    }

    /// The out-of-memory answer to a request of `requested` bytes.
    fn oom(&self, requested: u64) -> AllocError {
        AllocError::OutOfMemory {
            requested,
            reserved: self.reserved,
            capacity: self.driver.capacity(),
        }
    }

    /// `cudaMalloc`s a new segment sized for `rounded` and registers it as a
    /// single free block. On device OOM, releases every fully-free cached
    /// segment and retries once; the error names the caller's `requested`
    /// bytes, not the segment's.
    fn grow(
        &mut self,
        pool: PoolKind,
        rounded: u64,
        requested: u64,
    ) -> Result<BlockId, AllocError> {
        let Some(seg_size) = self.config.segment_size(rounded) else {
            return Err(self.oom(requested));
        };
        let va = match self.driver.mem_alloc(seg_size) {
            Ok(va) => va,
            Err(DriverError::OutOfMemory { .. }) => {
                self.release_cached_segments();
                match self.driver.mem_alloc(seg_size) {
                    Ok(va) => va,
                    Err(DriverError::OutOfMemory { .. }) => return Err(self.oom(requested)),
                    Err(e) => return Err(AllocError::driver_fault("mem_alloc", e)),
                }
            }
            Err(e) => return Err(AllocError::driver_fault("mem_alloc", e)),
        };
        self.next_segment += 1;
        let seg_id = self.next_segment;
        self.next_block += 1;
        let block_id = self.next_block;
        self.segments.insert(
            seg_id,
            Segment {
                va,
                size: seg_size,
                pool,
                head: block_id,
            },
        );
        self.blocks.insert(
            block_id,
            Block {
                segment: seg_id,
                offset: 0,
                size: seg_size,
                free: true,
                prev: None,
                next: None,
            },
        );
        self.free_set(pool).insert((seg_size, block_id));
        self.reserved += seg_size;
        self.stats.set_reserved(self.reserved);
        Ok(block_id)
    }

    /// Splits `block` so its first `rounded` bytes serve the request; the
    /// remainder becomes a new free block.
    fn split(&mut self, block_id: BlockId, rounded: u64, pool: PoolKind) {
        let (rest_offset, rest_size, next, segment) = {
            let b = &self.blocks[&block_id];
            (b.offset + rounded, b.size - rounded, b.next, b.segment)
        };
        debug_assert!(rest_size > 0);
        self.next_block += 1;
        let rest_id = self.next_block;
        self.blocks.insert(
            rest_id,
            Block {
                segment,
                offset: rest_offset,
                size: rest_size,
                free: true,
                prev: Some(block_id),
                next,
            },
        );
        if let Some(n) = next {
            self.blocks.get_mut(&n).expect("linked block exists").prev = Some(rest_id);
        }
        {
            let b = self.blocks.get_mut(&block_id).expect("candidate exists");
            b.size = rounded;
            b.next = Some(rest_id);
        }
        self.free_set(pool).insert((rest_size, rest_id));
    }

    /// Merges `block` (just freed) with free neighbors; returns the id of the
    /// surviving block, already sized but *not yet* inserted into a free set.
    fn merge_neighbors(&mut self, block_id: BlockId, pool: PoolKind) -> BlockId {
        // Absorb the next block if free.
        let next_info = {
            let b = &self.blocks[&block_id];
            b.next.and_then(|n| {
                let nb = &self.blocks[&n];
                nb.free.then_some((n, nb.size, nb.next))
            })
        };
        if let Some((n, n_size, n_next)) = next_info {
            self.free_set(pool).remove(&(n_size, n));
            self.blocks.remove(&n);
            let b = self.blocks.get_mut(&block_id).expect("block exists");
            b.size += n_size;
            b.next = n_next;
            if let Some(nn) = n_next {
                self.blocks.get_mut(&nn).expect("linked block exists").prev = Some(block_id);
            }
        }
        // Absorb into the previous block if free.
        let prev_info = {
            let b = &self.blocks[&block_id];
            b.prev.and_then(|p| {
                let pb = &self.blocks[&p];
                pb.free.then_some((p, pb.size))
            })
        };
        if let Some((p, p_size)) = prev_info {
            self.free_set(pool).remove(&(p_size, p));
            let (b_size, b_next) = {
                let b = &self.blocks[&block_id];
                (b.size, b.next)
            };
            self.blocks.remove(&block_id);
            let pb = self.blocks.get_mut(&p).expect("prev block exists");
            pb.size += b_size;
            pb.next = b_next;
            if let Some(nn) = b_next {
                self.blocks.get_mut(&nn).expect("linked block exists").prev = Some(p);
            }
            return p;
        }
        block_id
    }

    /// Frees every segment that consists of a single free block. Returns the
    /// number of bytes released to the device.
    fn release_cached_segments(&mut self) -> u64 {
        let releasable: Vec<SegmentId> = self
            .segments
            .iter()
            .filter(|(_, seg)| {
                let head = &self.blocks[&seg.head];
                head.free && head.size == seg.size
            })
            .map(|(id, _)| *id)
            .collect();
        let mut released = 0;
        for seg_id in releasable {
            // An injected (or transient) driver fault keeps the segment
            // cached: nothing was freed, so the books stay untouched and a
            // later release pass simply retries.
            let va = self.segments[&seg_id].va;
            if self.driver.mem_free(va).is_err() {
                continue;
            }
            let seg = self.segments.remove(&seg_id).expect("collected above");
            let head = self.blocks.remove(&seg.head).expect("head exists");
            self.free_set(seg.pool).remove(&(head.size, seg.head));
            self.reserved -= seg.size;
            released += seg.size;
        }
        self.stats.set_reserved(self.reserved);
        released
    }

    /// Verifies all internal invariants; used heavily by tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen_blocks = 0usize;
        for (seg_id, seg) in &self.segments {
            let mut cur = Some(seg.head);
            let mut expected_offset = 0u64;
            let mut prev: Option<BlockId> = None;
            let mut prev_free = false;
            while let Some(id) = cur {
                let b = self
                    .blocks
                    .get(&id)
                    .ok_or_else(|| format!("segment {seg_id}: dangling block {id}"))?;
                if b.segment != *seg_id {
                    return Err(format!("block {id} points to wrong segment"));
                }
                if b.offset != expected_offset {
                    return Err(format!(
                        "segment {seg_id}: block {id} at offset {} expected {expected_offset}",
                        b.offset
                    ));
                }
                if b.prev != prev {
                    return Err(format!("block {id}: prev link mismatch"));
                }
                if b.free && prev_free {
                    return Err(format!(
                        "segment {seg_id}: adjacent free blocks not merged at {id}"
                    ));
                }
                if b.free {
                    let set = match seg.pool {
                        PoolKind::Small => &self.free_small,
                        PoolKind::Large => &self.free_large,
                    };
                    if !set.contains(&(b.size, id)) {
                        return Err(format!("free block {id} missing from free set"));
                    }
                }
                expected_offset += b.size;
                prev_free = b.free;
                prev = Some(id);
                seen_blocks += 1;
                cur = b.next;
            }
            if expected_offset != seg.size {
                return Err(format!(
                    "segment {seg_id}: blocks tile {expected_offset} of {} bytes",
                    seg.size
                ));
            }
        }
        if seen_blocks != self.blocks.len() {
            return Err(format!(
                "{} blocks reachable but {} stored",
                seen_blocks,
                self.blocks.len()
            ));
        }
        let free_entries = self.free_small.len() + self.free_large.len();
        let free_blocks = self.blocks.values().filter(|b| b.free).count();
        if free_entries != free_blocks {
            return Err(format!(
                "{free_entries} free-set entries vs {free_blocks} free blocks"
            ));
        }
        for (alloc, block) in &self.live {
            match self.blocks.get(block) {
                None => return Err(format!("{alloc} maps to dangling block {block}")),
                Some(b) if b.free => return Err(format!("{alloc} maps to a free block")),
                _ => {}
            }
        }
        Ok(())
    }
}

impl AllocatorCore for CachingAllocator {
    fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
        if req.size == 0 {
            return Err(AllocError::ZeroSize);
        }
        self.driver.advance_clock(self.host_op_ns);
        let Some(rounded) = self.config.round_size(req.size) else {
            return Err(self.oom(req.size));
        };
        let pool = self.config.pool_for(rounded);
        let block_id = match self.find_best_fit(pool, rounded) {
            Some(id) => id,
            None => self.grow(pool, rounded, req.size)?,
        };
        let size = self.blocks[&block_id].size;
        self.free_set(pool).remove(&(size, block_id));
        if size > rounded && self.config.should_split(pool, size, rounded) {
            self.split(block_id, rounded, pool);
        }
        let b = self.blocks.get_mut(&block_id).expect("candidate exists");
        b.free = false;
        let block_size = b.size;
        let va = {
            let seg = &self.segments[&b.segment];
            seg.va.offset(b.offset)
        };
        self.next_alloc += 1;
        let id = AllocationId::new(self.next_alloc);
        self.live.insert(id, block_id);
        self.stats.on_alloc(req.size, block_size);
        Ok(Allocation {
            id,
            va,
            size: block_size,
            requested: req.size,
        })
    }

    fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
        let block_id = self
            .live
            .remove(&id)
            .ok_or(AllocError::UnknownAllocation(id))?;
        self.driver.advance_clock(self.host_op_ns);
        let (size, pool) = {
            let b = self.blocks.get_mut(&block_id).expect("live block exists");
            b.free = true;
            (b.size, self.segments[&b.segment].pool)
        };
        self.stats.on_free(size);
        let survivor = self.merge_neighbors(block_id, pool);
        let final_size = self.blocks[&survivor].size;
        self.free_set(pool).insert((final_size, survivor));
        Ok(())
    }

    fn stats(&self) -> MemStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "pytorch-caching"
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn release_cached(&mut self) -> u64 {
        self.release_cached_segments()
    }
}

impl Drop for CachingAllocator {
    fn drop(&mut self) {
        for seg in self.segments.values() {
            let _ = self.driver.mem_free(seg.va);
        }
        self.segments.clear();
        self.blocks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlake_alloc_api::mib;
    use gmlake_gpu_sim::DeviceConfig;

    fn allocator_with_capacity(cap: u64) -> CachingAllocator {
        let driver = CudaDriver::new(
            DeviceConfig::small_test()
                .with_capacity(cap)
                .with_backing(false),
        );
        CachingAllocator::new(driver)
    }

    #[test]
    fn small_request_reserves_small_buffer() {
        let mut a = allocator_with_capacity(mib(256));
        let x = a.allocate(AllocRequest::new(4096)).unwrap();
        assert_eq!(x.size, 4096);
        assert_eq!(a.stats().reserved_bytes, mib(2), "2 MiB small segment");
        a.validate().unwrap();
        a.deallocate(x.id).unwrap();
        assert_eq!(a.stats().reserved_bytes, mib(2), "segment stays cached");
        a.validate().unwrap();
    }

    #[test]
    fn large_request_reserves_large_buffer_and_splits() {
        let mut a = allocator_with_capacity(mib(256));
        let x = a.allocate(AllocRequest::new(mib(6))).unwrap();
        assert_eq!(a.stats().reserved_bytes, mib(20));
        // Remainder serves the next request without growing.
        let y = a.allocate(AllocRequest::new(mib(6))).unwrap();
        assert_eq!(a.stats().reserved_bytes, mib(20));
        assert_eq!(a.segment_count(), 1);
        a.validate().unwrap();
        a.deallocate(x.id).unwrap();
        a.deallocate(y.id).unwrap();
        a.validate().unwrap();
    }

    #[test]
    fn huge_request_gets_dedicated_rounded_segment() {
        let mut a = allocator_with_capacity(mib(256));
        let x = a.allocate(AllocRequest::new(mib(33))).unwrap();
        assert_eq!(a.stats().reserved_bytes, mib(34), "rounded to 2 MiB");
        a.deallocate(x.id).unwrap();
        a.validate().unwrap();
    }

    #[test]
    fn free_merges_adjacent_blocks() {
        let mut a = allocator_with_capacity(mib(256));
        let x = a.allocate(AllocRequest::new(mib(6))).unwrap();
        let y = a.allocate(AllocRequest::new(mib(6))).unwrap();
        let z = a.allocate(AllocRequest::new(mib(8))).unwrap();
        assert_eq!(a.segment_count(), 1);
        // Free outer blocks first: no merge possible across the active y.
        a.deallocate(x.id).unwrap();
        a.deallocate(z.id).unwrap();
        a.validate().unwrap();
        assert_eq!(a.largest_free_block(), mib(8));
        // Freeing the middle merges the whole segment back into one block.
        a.deallocate(y.id).unwrap();
        a.validate().unwrap();
        assert_eq!(a.largest_free_block(), mib(20));
        assert_eq!(a.free_bytes(), mib(20));
    }

    #[test]
    fn best_fit_prefers_smallest_adequate_block() {
        let mut a = allocator_with_capacity(mib(256));
        // Build two cached blocks: 20 MiB and 34 MiB.
        let x = a.allocate(AllocRequest::new(mib(20))).unwrap();
        let y = a.allocate(AllocRequest::new(mib(34))).unwrap();
        a.deallocate(x.id).unwrap();
        a.deallocate(y.id).unwrap();
        assert_eq!(a.segment_count(), 2);
        // An 18 MiB request must take the 20 MiB block, not the 34 MiB one.
        let z = a.allocate(AllocRequest::new(mib(18))).unwrap();
        assert_eq!(a.stats().reserved_bytes, mib(54), "no growth");
        // The 34 MiB block must still be intact.
        assert_eq!(a.largest_free_block(), mib(34));
        a.deallocate(z.id).unwrap();
        a.validate().unwrap();
    }

    #[test]
    fn fragmentation_oom_despite_sufficient_total_free() {
        // The motivating scenario of the paper's Figure 1: plenty of free
        // bytes, none of them contiguous, so a large request dies.
        let mut a = allocator_with_capacity(mib(40));
        let x = a.allocate(AllocRequest::new(mib(6))).unwrap();
        let y = a.allocate(AllocRequest::new(mib(6))).unwrap();
        let z = a.allocate(AllocRequest::new(mib(8))).unwrap();
        let w = a.allocate(AllocRequest::new(mib(6))).unwrap(); // second segment
        assert_eq!(a.segment_count(), 2);
        assert_eq!(a.stats().reserved_bytes, mib(40)); // device full
        a.deallocate(x.id).unwrap();
        a.deallocate(z.id).unwrap();
        // 6 + 8 + 14 = 28 MiB free in total…
        assert_eq!(a.free_bytes(), mib(28));
        // …but the largest contiguous block is 14 MiB, so 16 MiB fails.
        let err = a.allocate(AllocRequest::new(mib(16))).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }), "{err}");
        assert_eq!(a.stats().oom_count, 0, "stats belong to caller policy");
        // Allocator state is still consistent and usable.
        a.validate().unwrap();
        let ok = a.allocate(AllocRequest::new(mib(14))).unwrap();
        a.deallocate(ok.id).unwrap();
        a.deallocate(y.id).unwrap();
        a.deallocate(w.id).unwrap();
        a.validate().unwrap();
    }

    #[test]
    fn oom_retry_releases_cached_segments() {
        let mut a = allocator_with_capacity(mib(40));
        let x = a.allocate(AllocRequest::new(mib(20))).unwrap();
        a.deallocate(x.id).unwrap();
        assert_eq!(a.stats().reserved_bytes, mib(20));
        // 40 MiB requested: device has only 20 MiB left, but the retry path
        // releases the cached 20 MiB segment first.
        let big = a.allocate(AllocRequest::new(mib(40))).unwrap();
        assert_eq!(big.size, mib(40));
        assert_eq!(a.stats().reserved_bytes, mib(40));
        a.deallocate(big.id).unwrap();
        a.validate().unwrap();
    }

    #[test]
    fn release_cached_frees_only_fully_free_segments() {
        let mut a = allocator_with_capacity(mib(256));
        let x = a.allocate(AllocRequest::new(mib(6))).unwrap();
        let y = a.allocate(AllocRequest::new(mib(30))).unwrap();
        a.deallocate(y.id).unwrap();
        let released = a.release_cached();
        assert_eq!(released, mib(30), "y's dedicated segment released");
        assert_eq!(a.stats().reserved_bytes, mib(20), "x's segment kept");
        a.deallocate(x.id).unwrap();
        assert_eq!(a.release_cached(), mib(20));
        assert_eq!(a.stats().reserved_bytes, 0);
        assert!(a.driver().snapshot().is_quiescent());
    }

    #[test]
    fn reserved_memory_never_shrinks_on_free() {
        let mut a = allocator_with_capacity(mib(256));
        let ids: Vec<_> = (0..5)
            .map(|_| a.allocate(AllocRequest::new(mib(12))).unwrap().id)
            .collect();
        let peak = a.stats().reserved_bytes;
        for id in ids {
            a.deallocate(id).unwrap();
        }
        assert_eq!(a.stats().reserved_bytes, peak);
        assert_eq!(a.stats().active_bytes, 0);
        a.validate().unwrap();
    }

    #[test]
    fn caching_avoids_native_calls_on_reuse() {
        let mut a = allocator_with_capacity(mib(256));
        for _ in 0..10 {
            let x = a.allocate(AllocRequest::new(mib(6))).unwrap();
            a.deallocate(x.id).unwrap();
        }
        // One segment allocation serves all ten rounds.
        assert_eq!(a.driver().stats().mem_alloc.calls, 1);
    }

    #[test]
    fn drop_returns_all_memory() {
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        {
            let mut a = CachingAllocator::new(driver.clone());
            let _x = a.allocate(AllocRequest::new(mib(6))).unwrap();
            let y = a.allocate(AllocRequest::new(mib(3))).unwrap();
            a.deallocate(y.id).unwrap();
            assert!(driver.phys_in_use() > 0);
        }
        assert_eq!(driver.phys_in_use(), 0);
        assert!(driver.snapshot().is_quiescent());
    }

    #[test]
    fn zero_and_unknown_are_errors() {
        let mut a = allocator_with_capacity(mib(64));
        assert_eq!(
            a.allocate(AllocRequest::new(0)).unwrap_err(),
            AllocError::ZeroSize
        );
        assert!(matches!(
            a.deallocate(AllocationId::new(1)).unwrap_err(),
            AllocError::UnknownAllocation(_)
        ));
    }

    #[test]
    fn data_written_through_block_roundtrips() {
        let driver = CudaDriver::new(DeviceConfig::small_test());
        let mut a = CachingAllocator::new(driver.clone());
        let x = a.allocate(AllocRequest::new(4096)).unwrap();
        driver.memcpy_htod(x.va, b"hello caching").unwrap();
        let mut buf = [0u8; 13];
        driver.memcpy_dtoh(x.va, &mut buf).unwrap();
        assert_eq!(&buf, b"hello caching");
        a.deallocate(x.id).unwrap();
    }

    #[test]
    fn segment_views_report_occupancy() {
        let mut a = allocator_with_capacity(mib(256));
        let _x = a.allocate(AllocRequest::new(mib(6))).unwrap();
        let views = a.segment_views();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].size, mib(20));
        assert_eq!(views[0].free_bytes, mib(14));
        assert_eq!(views[0].blocks, 2);
    }
}
