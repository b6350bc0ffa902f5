//! Latency cost model for driver calls, calibrated against the paper.
//!
//! The paper's Table 1 reports the VMM API execution-time breakdown for a
//! 2 GB allocation, *normalized to `cuMemAlloc`* (i.e. `cudaMalloc` of the
//! same 2 GB), for three internal chunk sizes:
//!
//! | chunk | 2 MB | 128 MB | 1024 MB |
//! |---|---|---|---|
//! | `cuMemAddressReserve` | 0.003 | 0.003 | 0.002 |
//! | `cuMemCreate` (total) | 18.1 | 0.89 | 0.79 |
//! | `cuMemMap` (total) | 0.70 | 0.01 | 0.002 |
//! | `cuMemSetAccess` (total) | 96.8 | 8.2 | 0.7 |
//! | total | 115.4 | 9.1 | 1.5 |
//!
//! We convert the totals to *per-call* costs (divide by the chunk count:
//! 1024 / 16 / 2) and interpolate per-call cost log-linearly in the chunk
//! size between those measured anchors. By construction the model reproduces
//! Table 1 exactly at the anchors and yields the 115× figure of Figure 6.
//!
//! One normalized unit (`cuMemAlloc` of 2 GiB) is mapped to
//! [`CostModel::anchor_ns`] simulated nanoseconds (default 1 ms, the right
//! order of magnitude for a large `cudaMalloc` with an implicit device
//! synchronization).

use gmlake_alloc_api::{gib, mib};

/// Normalized per-call cost anchors: `(chunk_size_bytes, cost_norm)`.
const RESERVE_NORM: f64 = 0.003;
const CREATE_PTS: [(u64, f64); 3] = [
    (2 * 1024 * 1024, 18.1 / 1024.0),
    (128 * 1024 * 1024, 0.89 / 16.0),
    (1024 * 1024 * 1024, 0.79 / 2.0),
];
const MAP_PTS: [(u64, f64); 3] = [
    (2 * 1024 * 1024, 0.70 / 1024.0),
    (128 * 1024 * 1024, 0.01 / 16.0),
    (1024 * 1024 * 1024, 0.002 / 2.0),
];
const SET_ACCESS_PTS: [(u64, f64); 3] = [
    (2 * 1024 * 1024, 96.8 / 1024.0),
    (128 * 1024 * 1024, 8.2 / 16.0),
    (1024 * 1024 * 1024, 0.7 / 2.0),
];

/// `cudaMalloc` is modeled as a fixed synchronization part plus a part linear
/// in size, normalized so that a 2 GiB allocation costs exactly 1.0.
const MEM_ALLOC_FIXED: f64 = 0.4;
const MEM_ALLOC_LINEAR_AT_2GIB: f64 = 0.6;
/// `cudaFree` also synchronizes the device; mostly size-independent.
const MEM_FREE_FIXED: f64 = 0.35;
const MEM_FREE_LINEAR_AT_2GIB: f64 = 0.05;
/// Cheap VMM teardown calls (no device sync).
const UNMAP_NORM: f64 = 0.0005;
const RELEASE_NORM: f64 = 0.002;
const ADDRESS_FREE_NORM: f64 = 0.001;
/// Host-side dispatch overhead baked into every per-call VMM cost: the
/// user→driver transition plus argument validation. One `cuMemUnmap` of a
/// range of `n` mapping entries pays it once, so it costs `(n-1)` dispatches
/// less than `n` single-entry unmaps.
const DISPATCH_NORM: f64 = 0.0003;
/// Event-API host costs (`cuEventRecord` / `cuEventQuery` /
/// `cuEventSynchronize`): sub-microsecond driver entries on real hardware,
/// which is the whole point of event-guarded cross-stream reuse — recording
/// and polling an event is orders of magnitude cheaper than the allocator
/// mutex round trip it replaces. `EVENT_SYNC_NORM` is the fixed call cost
/// only; the *wait* for an incomplete event additionally advances the clock
/// to the event's completion time.
const EVENT_RECORD_NORM: f64 = 0.0006;
const EVENT_QUERY_NORM: f64 = 0.0002;
const EVENT_SYNC_NORM: f64 = 0.0008;
/// `cuStreamWaitEvent` enqueues a wait command on a stream the way a launch
/// enqueues a kernel: the host pays the dispatch and never blocks.
const EVENT_WAIT_NORM: f64 = DISPATCH_NORM;
/// Host-side bookkeeping of a pool allocator (hash/tree operations) per
/// (de)allocation, in nanoseconds. The paper reports the caching allocator is
/// ~10× faster end to end than the native path; sub-microsecond bookkeeping
/// reproduces that.
const HOST_OP_NS: u64 = 300;
/// PCIe/NVLink copy bandwidth used for `memcpy` cost, bytes per nanosecond.
const COPY_BYTES_PER_NS: f64 = 20.0; // ~20 GB/s effective H2D/D2H

/// Calibrated latency model; see the module docs for provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Simulated nanoseconds per normalized unit (cost of `cuMemAlloc(2 GiB)`).
    pub anchor_ns: f64,
    /// Global multiplier, `1.0` for the calibrated model, `0.0` to disable
    /// time simulation entirely (pure functional tests).
    pub scale: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::calibrated()
    }
}

impl CostModel {
    /// The Table-1-calibrated model with a 1 ms anchor.
    pub fn calibrated() -> Self {
        CostModel {
            anchor_ns: 1_000_000.0,
            scale: 1.0,
        }
    }

    /// A model in which every operation takes zero time. Useful for tests
    /// that assert pure allocation semantics.
    pub fn zero() -> Self {
        CostModel {
            anchor_ns: 1_000_000.0,
            scale: 0.0,
        }
    }

    #[inline]
    fn to_ns(&self, norm: f64) -> u64 {
        (norm * self.anchor_ns * self.scale) as u64
    }

    /// Cost of `cudaMalloc(size)` (includes implicit device sync).
    pub fn mem_alloc_ns(&self, size: u64) -> u64 {
        let norm = MEM_ALLOC_FIXED + MEM_ALLOC_LINEAR_AT_2GIB * size as f64 / gib(2) as f64;
        self.to_ns(norm)
    }

    /// Cost of `cudaFree(size)` (includes implicit device sync).
    pub fn mem_free_ns(&self, size: u64) -> u64 {
        let norm = MEM_FREE_FIXED + MEM_FREE_LINEAR_AT_2GIB * size as f64 / gib(2) as f64;
        self.to_ns(norm)
    }

    /// Cost of one `cuMemAddressReserve`, independent of size.
    pub fn address_reserve_ns(&self, _size: u64) -> u64 {
        self.to_ns(RESERVE_NORM)
    }

    /// Cost of one `cuMemAddressFree`.
    pub fn address_free_ns(&self) -> u64 {
        self.to_ns(ADDRESS_FREE_NORM)
    }

    /// Cost of one `cuMemCreate` of a physical chunk of `chunk_size` bytes.
    pub fn create_ns(&self, chunk_size: u64) -> u64 {
        self.to_ns(interp_log(&CREATE_PTS, chunk_size))
    }

    /// Cost of one `cuMemRelease`.
    pub fn release_ns(&self) -> u64 {
        self.to_ns(RELEASE_NORM)
    }

    /// Cost of one `cuMemMap` of a chunk of `chunk_size` bytes.
    pub fn map_ns(&self, chunk_size: u64) -> u64 {
        self.to_ns(interp_log(&MAP_PTS, chunk_size))
    }

    /// Per-call dispatch overhead (the user→driver transition plus argument
    /// validation): the fixed cost one call pays however much it covers.
    pub fn dispatch_ns(&self) -> u64 {
        self.to_ns(DISPATCH_NORM)
    }

    /// Cost of one `cuMemUnmap` covering `n` mapping entries: the full
    /// per-call cost once, then the dispatch-free marginal cost for each of
    /// the remaining `n - 1`. Equals `n` single-entry unmaps minus `(n-1)`
    /// dispatches.
    pub fn unmap_ns(&self, n: u64) -> u64 {
        let per_call = self.to_ns(UNMAP_NORM);
        match n {
            0 => 0,
            n => per_call + (n - 1) * per_call.saturating_sub(self.dispatch_ns()),
        }
    }

    /// Cost of one `cuMemSetAccess` covering one chunk of `chunk_size` bytes.
    /// Callers covering a range of `n` chunks charge this `n` times, matching
    /// the per-chunk accounting in the paper's Table 1.
    pub fn set_access_ns(&self, chunk_size: u64) -> u64 {
        self.to_ns(interp_log(&SET_ACCESS_PTS, chunk_size))
    }

    /// Cost of one `cuEventRecord` (dropping a completion marker into a
    /// stream's queue).
    pub fn event_record_ns(&self) -> u64 {
        self.to_ns(EVENT_RECORD_NORM)
    }

    /// Cost of one `cuEventQuery` (non-blocking completion poll).
    pub fn event_query_ns(&self) -> u64 {
        self.to_ns(EVENT_QUERY_NORM)
    }

    /// Fixed call cost of one `cuEventSynchronize`, *excluding* the wait:
    /// synchronizing an incomplete event additionally advances the clock to
    /// the event's completion time.
    pub fn event_sync_ns(&self) -> u64 {
        self.to_ns(EVENT_SYNC_NORM)
    }

    /// Cost of one `cuStreamWaitEvent`: the host enqueues the wait and
    /// returns; the *stream* waits, not the host.
    pub fn event_wait_ns(&self) -> u64 {
        self.to_ns(EVENT_WAIT_NORM)
    }

    /// Host-side bookkeeping cost charged by pool allocators per operation.
    pub fn host_op_ns(&self) -> u64 {
        (HOST_OP_NS as f64 * self.scale) as u64
    }

    /// Cost of copying `size` bytes between host and device.
    pub fn memcpy_ns(&self, size: u64) -> u64 {
        ((size as f64 / COPY_BYTES_PER_NS) * self.scale) as u64
    }

    /// Normalized (Table-1 units) total cost of allocating a block of
    /// `block_size` bytes out of chunks of `chunk_size` bytes via the VMM
    /// path: one reserve plus per-chunk create + map + set-access.
    ///
    /// This is the quantity plotted in the paper's Figure 6.
    pub fn vmm_block_alloc_norm(&self, block_size: u64, chunk_size: u64) -> f64 {
        let chunks = block_size.div_ceil(chunk_size);
        RESERVE_NORM
            + chunks as f64
                * (interp_log(&CREATE_PTS, chunk_size)
                    + interp_log(&MAP_PTS, chunk_size)
                    + interp_log(&SET_ACCESS_PTS, chunk_size))
    }

    /// Normalized cost of `cudaMalloc(block_size)`, for the Figure 6 baseline.
    pub fn native_alloc_norm(&self, block_size: u64) -> f64 {
        MEM_ALLOC_FIXED + MEM_ALLOC_LINEAR_AT_2GIB * block_size as f64 / gib(2) as f64
    }
}

/// Piecewise-linear interpolation in `log2(size)`, clamped to the anchor
/// range (no extrapolation: measurements exist only inside it).
fn interp_log(points: &[(u64, f64)], size: u64) -> f64 {
    debug_assert!(points.len() >= 2);
    let x = (size.max(1) as f64).log2();
    let first = points[0];
    let last = points[points.len() - 1];
    if x <= (first.0 as f64).log2() {
        return first.1;
    }
    if x >= (last.0 as f64).log2() {
        return last.1;
    }
    for w in points.windows(2) {
        let (x0, y0) = ((w[0].0 as f64).log2(), w[0].1);
        let (x1, y1) = ((w[1].0 as f64).log2(), w[1].1);
        if x <= x1 {
            let t = (x - x0) / (x1 - x0);
            return y0 + t * (y1 - y0);
        }
    }
    last.1
}

/// Returns the chunk sizes swept in the paper's Figure 6 (2 MB … 1 GB).
pub fn figure6_chunk_sizes() -> Vec<u64> {
    (1..=10).map(|i| mib(1) << i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlake_alloc_api::{gib, mib};

    #[test]
    fn table1_totals_reproduce_at_anchors() {
        let m = CostModel::calibrated();
        // 2 GiB block out of 2 MiB chunks => 115.4 normalized (paper: 115.4).
        let t_2mb = m.vmm_block_alloc_norm(gib(2), mib(2));
        assert!((t_2mb - 115.4).abs() < 0.5, "got {t_2mb}");
        // 128 MiB chunks => 9.1.
        let t_128mb = m.vmm_block_alloc_norm(gib(2), mib(128));
        assert!((t_128mb - 9.1).abs() < 0.1, "got {t_128mb}");
        // 1 GiB chunks => 1.5.
        let t_1gb = m.vmm_block_alloc_norm(gib(2), mib(1024));
        assert!((t_1gb - 1.5).abs() < 0.05, "got {t_1gb}");
    }

    #[test]
    fn native_2gib_is_unit_cost() {
        let m = CostModel::calibrated();
        assert!((m.native_alloc_norm(gib(2)) - 1.0).abs() < 1e-9);
        assert_eq!(m.mem_alloc_ns(gib(2)), 1_000_000);
    }

    #[test]
    fn vmm_with_2mb_chunks_is_over_100x_native() {
        let m = CostModel::calibrated();
        let ratio = m.vmm_block_alloc_norm(gib(2), mib(2)) / m.native_alloc_norm(gib(2));
        assert!(ratio > 100.0, "expected >100x, got {ratio}");
    }

    #[test]
    fn interp_is_monotone_between_create_anchors() {
        // Between 2 MiB and 1 GiB, per-call create cost grows with chunk size.
        let sizes = figure6_chunk_sizes();
        let mut prev = 0.0;
        for s in sizes {
            let v = interp_log(&CREATE_PTS, s);
            assert!(v >= prev, "create cost decreased at {s}");
            prev = v;
        }
    }

    #[test]
    fn interp_clamps_outside_range() {
        assert_eq!(interp_log(&CREATE_PTS, 1), CREATE_PTS[0].1);
        assert_eq!(interp_log(&CREATE_PTS, gib(16)), CREATE_PTS[2].1);
    }

    #[test]
    fn zero_model_charges_nothing() {
        let m = CostModel::zero();
        assert_eq!(m.mem_alloc_ns(gib(2)), 0);
        assert_eq!(m.create_ns(mib(2)), 0);
        assert_eq!(m.set_access_ns(mib(2)), 0);
        assert_eq!(m.host_op_ns(), 0);
        assert_eq!(m.memcpy_ns(mib(100)), 0);
        assert_eq!(m.unmap_ns(100), 0);
    }

    #[test]
    fn batch_costs_amortize_exactly_one_dispatch_per_extra_chunk() {
        let m = CostModel::calibrated();
        for n in [1u64, 2, 16, 512] {
            assert_eq!(m.unmap_ns(n), n * m.unmap_ns(1) - (n - 1) * m.dispatch_ns());
        }
        assert_eq!(m.unmap_ns(0), 0);
        // The dispatch overhead stays below every per-call cost at any
        // Figure-6 chunk size, so marginal costs stay positive.
        assert!(m.dispatch_ns() < m.unmap_ns(1));
        assert!(m.dispatch_ns() < m.release_ns());
        for chunk in figure6_chunk_sizes() {
            assert!(m.dispatch_ns() < m.map_ns(chunk), "chunk {chunk}");
            assert!(m.dispatch_ns() < m.create_ns(chunk), "chunk {chunk}");
        }
    }

    #[test]
    fn figure6_sweep_has_ten_points() {
        let sizes = figure6_chunk_sizes();
        assert_eq!(sizes.len(), 10);
        assert_eq!(sizes[0], mib(2));
        assert_eq!(sizes[9], mib(1024));
    }

    #[test]
    fn event_calls_are_cheap_relative_to_allocation_work() {
        // The premise of event-guarded cross-stream reuse: an event
        // record+query pair must cost far less than the cheapest VMM
        // allocation call it saves.
        let m = CostModel::calibrated();
        assert!(m.event_record_ns() > 0 && m.event_query_ns() > 0);
        assert!(m.event_record_ns() + m.event_query_ns() < m.create_ns(mib(2)));
        assert!(m.event_sync_ns() < m.mem_alloc_ns(mib(2)));
        assert!(m.event_wait_ns() > 0 && m.event_wait_ns() < m.event_sync_ns());
        let z = CostModel::zero();
        assert_eq!(z.event_wait_ns(), 0);
        assert_eq!(z.event_record_ns(), 0);
        assert_eq!(z.event_query_ns(), 0);
        assert_eq!(z.event_sync_ns(), 0);
    }

    #[test]
    fn per_chunk_cost_dominated_by_set_access_at_2mb() {
        // Paper: cuMemSetAccess is the bottleneck for small chunks.
        let sa = interp_log(&SET_ACCESS_PTS, mib(2));
        let cr = interp_log(&CREATE_PTS, mib(2));
        let mp = interp_log(&MAP_PTS, mib(2));
        assert!(sa > cr && sa > mp);
    }
}
