//! Differential-oracle property tests for the stream-aware, event-guarded
//! `DeviceAllocator` front-end: random multi-stream alloc/free/tick
//! programs are replayed through the sharded, stream-partitioned front-end
//! AND through a single-mutex `AllocatorCore` oracle, and the two must
//! agree
//!
//! * on the outcome (success / `OutOfMemory`) of **every** allocation — the
//!   front-end's caches, stream banks, and flush-and-retry must be
//!   invisible to feasibility (the transparency GMLake promises);
//! * on `stats()` at quiescence — after the program ends and the caches are
//!   flushed, the reconciled counters must be bit-identical to the oracle's.
//!
//! **How the oracle models event completion:** instantaneously. The mirror
//! frees every block the moment `free_on_stream` is called. The front-end
//! runs over a simulated driver as its event source, and every cross-stream
//! small free records an event and synchronizes it before the core sees the
//! block, so no event is ever left outstanding and the front-end matches
//! the instant-completion oracle.
//!
//! Program sizes are powers of two, so the front-end's size-class rounding
//! is the identity and any divergence is a real routing/accounting bug, not
//! a rounding artifact. Sizes range up to 8 MiB — well above the 2 MiB
//! stitch threshold — so programs mix small-shard traffic with large
//! requests that go straight to the core: core-minted ids, whose
//! cross-stream frees the front-end hands over without an event.
//! The oracle equivalence covers both id spaces and their interleavings.

use std::sync::Arc;

use proptest::prelude::*;

use gmlake::prelude::*;
use gmlake_alloc_api::DeviceAllocatorConfig;

mod common;
use common::{MirrorCore, MutexOracle};

/// Number of logical streams the random programs run over.
const STREAMS: u32 = 4;

/// One step of a random multi-stream allocator program.
#[derive(Debug, Clone)]
enum Op {
    /// Allocate `1 << size_log2` bytes on stream `stream % STREAMS`.
    Alloc { size_log2: u32, stream: u32 },
    /// Free the n-th (mod live count) live allocation from stream
    /// `stream % STREAMS` — when that is not the allocating stream, this is
    /// a cross-stream free exercising the event-guarded reuse rule.
    Free { nth: usize, stream: u32 },
    /// Return every cached block to the core (front-end only; the oracle
    /// caches nothing, so this must be caller-invisible).
    Flush,
    /// Allocate `BURST` blocks of `1 << size_log2` bytes on one stream, then
    /// free them all there: one more than a size class parks, so the last
    /// free overflows to the core.
    Burst { size_log2: u32, stream: u32 },
}

/// One past the front-end's cap of 64 parked blocks per size class.
const BURST: usize = 65;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => ((9u32..24), (0u32..STREAMS)).prop_map(|(size_log2, stream)| Op::Alloc {
            size_log2,
            stream,
        }),
        7 => (any::<usize>(), (0u32..STREAMS)).prop_map(|(nth, stream)| Op::Free { nth, stream }),
        1 => Just(Op::Flush),
        1 => ((9u32..15), (0u32..STREAMS)).prop_map(|(size_log2, stream)| Op::Burst {
            size_log2,
            stream,
        }),
    ]
}

/// Replays `ops` through both allocators, asserting outcome agreement after
/// every step and stats agreement at quiescence. `capacity == 0` means
/// unbounded (no OOM arm).
fn run_differential(ops: &[Op], capacity: u64) {
    let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    let pool = DeviceAllocator::try_build(
        Box::new(MirrorCore::bounded(capacity)),
        DeviceAllocatorConfig::default().with_streams(STREAMS as usize),
        Some(Arc::new(driver.clone())),
        None,
    )
    .unwrap();
    let oracle = MutexOracle::bounded(capacity);
    // Op `i` allocates `size` on `stream` from both sides, which must agree
    // on the outcome: the ids on success, `None` on a shared OOM.
    let alloc_both = |i: usize, size: u64, stream: StreamId| {
        let front = pool.alloc_on_stream(AllocRequest::new(size), stream);
        match (front, oracle.alloc(size)) {
            (Ok(f), Ok(o)) => {
                prop_assert!(f.size >= size);
                Some((f.id, o.id))
            }
            (
                Err(AllocError::OutOfMemory { requested, .. }),
                Err(AllocError::OutOfMemory {
                    requested: oreq, ..
                }),
            ) => {
                prop_assert_eq!(requested, oreq, "op {}: same failing request", i);
                None
            }
            (f, o) => panic!(
                "op {i}: outcome divergence on {size}B/{stream}: front {f:?} vs oracle {o:?}"
            ),
        }
    };

    // (front id, oracle id, allocating stream) per live tensor.
    let mut live: Vec<(AllocationId, AllocationId, StreamId)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Alloc { size_log2, stream } => {
                let stream = StreamId(stream % STREAMS);
                if let Some((f, o)) = alloc_both(i, 1 << size_log2, stream) {
                    live.push((f, o, stream));
                }
            }
            Op::Burst { size_log2, stream } => {
                let stream = StreamId(stream % STREAMS);
                let ids: Vec<_> = (0..BURST)
                    .filter_map(|_| alloc_both(i, 1 << size_log2, stream))
                    .collect();
                let core_frees = pool.with_core(|c| c.stats().free_count);
                for &(fid, oid) in &ids {
                    pool.free_on_stream(fid, stream).unwrap();
                    oracle.free(oid, stream).unwrap();
                }
                if ids.len() == BURST {
                    prop_assert!(
                        pool.with_core(|c| c.stats().free_count) > core_frees,
                        "op {}: the class overflowed to the core",
                        i
                    );
                }
            }
            Op::Free { nth, stream } => {
                if live.is_empty() {
                    continue;
                }
                let (fid, oid, _alloc_stream) = live.swap_remove(nth % live.len());
                let stream = StreamId(stream % STREAMS);
                pool.free_on_stream(fid, stream).unwrap();
                oracle.free(oid, stream).unwrap();
            }
            Op::Flush => {
                pool.flush();
            }
        }
        // Mid-program the caller-visible counters already agree: active
        // bytes exclude parked blocks, and every alloc/free is counted once.
        let f = pool.stats();
        let o = oracle.stats();
        prop_assert_eq!(f.active_bytes, o.active_bytes, "op {}: active", i);
        prop_assert_eq!(f.alloc_count, o.alloc_count, "op {}: allocs", i);
        prop_assert_eq!(f.free_count, o.free_count, "op {}: frees", i);
        prop_assert_eq!(
            f.requested_bytes_total,
            o.requested_bytes_total,
            "op {}: requested",
            i
        );
        prop_assert_eq!(driver.outstanding_events(), 0, "op {}: event left", i);
    }

    // Quiescence: free the survivors on their own streams, flush, compare
    // everything (including reserved, once both sides dropped their slack).
    for (fid, oid, stream) in live.drain(..) {
        pool.free_on_stream(fid, stream).unwrap();
        oracle.free(oid, stream).unwrap();
    }
    pool.flush();
    pool.release_cached();
    oracle.0.lock().unwrap().release_cached();
    let f = pool.stats();
    let o = oracle.stats();
    prop_assert_eq!(f.active_bytes, 0);
    prop_assert_eq!(f.alloc_count, o.alloc_count);
    prop_assert_eq!(f.free_count, o.free_count);
    prop_assert_eq!(f.requested_bytes_total, o.requested_bytes_total);
    prop_assert_eq!(f.reserved_bytes, o.reserved_bytes);
    let cache = pool.cache_stats();
    prop_assert_eq!(cache.cached_blocks, 0);
    // Every cross-stream small free recorded one event and waited it out.
    let calls = driver.stats();
    prop_assert_eq!(calls.event_record.calls, cache.cross_stream_fallback);
    prop_assert_eq!(calls.event_sync.calls, cache.cross_stream_fallback);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bounded device: the OOM arm fires regularly, and every outcome must
    /// match the oracle's (the flush-and-retry makes the caches transparent
    /// to feasibility).
    #[test]
    fn stream_front_end_matches_single_mutex_oracle_with_oom(
        ops in prop::collection::vec(op_strategy(), 1..80)
    ) {
        // ~16 x 512 KiB (or two 4 MiB large tensors): programs regularly
        // cross it, and the largest (8 MiB) request fills it exactly.
        run_differential(&ops, 8 << 20);
    }

    /// Unbounded device: longer programs, pure routing/accounting agreement.
    #[test]
    fn stream_front_end_matches_single_mutex_oracle_unbounded(
        ops in prop::collection::vec(op_strategy(), 1..120)
    ) {
        run_differential(&ops, 0);
    }
}
