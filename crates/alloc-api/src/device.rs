//! The concurrent allocator front-end: a cloneable, `Send + Sync`
//! [`DeviceAllocator`] that wraps any [`AllocatorCore`] and serves warm
//! traffic from per-stream caches instead of the core's mutex.
//!
//! # Why a front-end?
//!
//! GMLake's promise is that defragmentation stays off the training critical
//! path — but a shared pool whose every operation funnels through one mutex
//! re-serializes the ranks at the allocator instead. The front-end keeps
//! warm traffic away from that mutex the way PyTorch's stream-aware caching
//! allocator does. Small requests — below [`SMALL_THRESHOLD`] — are cached
//! per stream, in power-of-two size classes, by caches that each hold
//! everything one warm allocate or free touches behind one lock: free
//! lists keyed by class, the live table of the ids the cache minted, and
//! its statistics. A hit or a same-stream park costs exactly one short
//! cache-lock acquisition and no core traffic. Large requests go straight
//! to the core — a stream-affine `alloc_on_stream` under its mutex, with a
//! core-minted id — because the stitcher must see every inactive block: a
//! block parked above the core is one it can neither split nor stitch.
//! Small-cache misses also fall back to the core mutex, the commit-time lock
//! under which splits and stitches commit transactionally. A cache lock and
//! the core lock are never held together.
//!
//! # Stream-aware routing
//!
//! There is one cache per configured **logical GPU stream** ([`StreamId`],
//! [`DeviceAllocatorConfig::streams`], default 1), and
//! [`DeviceAllocator::alloc_on_stream`] routes a request to its stream's
//! cache. Warm allocations on different streams therefore never touch the
//! same lock — not even for identical sizes — which is what keeps
//! independent GPU streams from serializing at the allocator.
//!
//! Reuse follows two cases, spelled out on
//! [`DeviceAllocator::free_on_stream`]:
//! a **same-stream** free parks the block for immediate reuse (stream order
//! already guarantees the previous user finished); a **cross-stream** free
//! returns the block to the core's `free_on_stream`, told the freeing
//! stream, which orders the block's reuse (the refill told it the owner).
//! Given an [`EventSource`] (see [`DeviceAllocator::try_build`]), the
//! front-end first records an event on the freeing stream and synchronizes
//! it, so even a stream-oblivious core re-serves the block only after that
//! stream's work.
//! A large block's free goes straight to the core with its stream: the core
//! owns the cross-stream rule for its own blocks (`GmLakeAllocator` stamps
//! the freeing stream's event on them, and the next other stream to get one
//! waits for it on the GPU), so the front-end never blocks the host there.
//!
//! Every rule compares **exact** [`StreamId`]s: every parked block carries
//! the stream that allocated it, so even when distinct stream ids fold onto
//! the same cache (ids at or above the configured stream count), an
//! allocation only reuses a block its own stream parked — another stream's
//! block in the shared free list is simply skipped.
//!
//! Front-end ids live in the upper half of the id space (disjoint from
//! every core's sequential ids) and carry their cache's index in the low
//! bits, so a deallocation routes back to the owning cache without any
//! shared lookup.
//!
//! The caches are transparent: parked blocks remain "live" from the core's
//! perspective and are returned to it by [`DeviceAllocator::flush`] (which
//! release, compaction and the out-of-memory retry run automatically), so
//! defragmentation and the OOM retry still see every cached byte.
//!
//! # Example
//!
//! ```
//! use gmlake_alloc_api::{AllocRequest, DeviceAllocator, kib};
//! # use gmlake_alloc_api::{AllocatorCore, AllocError, Allocation, AllocationId, MemStats, VirtAddr};
//! # #[derive(Default)]
//! # struct TestCore { next: u64, live: std::collections::HashMap<AllocationId, u64>, stats: MemStats }
//! # impl AllocatorCore for TestCore {
//! #     fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
//! #         if req.size == 0 { return Err(AllocError::ZeroSize); }
//! #         self.next += 1;
//! #         let id = AllocationId::new(self.next);
//! #         self.live.insert(id, req.size);
//! #         self.stats.on_alloc(req.size, req.size);
//! #         let r = self.stats.active_bytes;
//! #         self.stats.set_reserved(r);
//! #         Ok(Allocation { id, va: VirtAddr::new(self.next << 20), size: req.size, requested: req.size })
//! #     }
//! #     fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
//! #         let size = self.live.remove(&id).ok_or(AllocError::UnknownAllocation(id))?;
//! #         self.stats.on_free(size);
//! #         Ok(())
//! #     }
//! #     fn stats(&self) -> MemStats { self.stats }
//! #     fn name(&self) -> &'static str { "test-core" }
//! # }
//! let pool = DeviceAllocator::new(TestCore::default());
//! std::thread::scope(|s| {
//!     for t in 0..4u64 {
//!         let pool = pool.clone();
//!         s.spawn(move || {
//!             for _ in 0..64 {
//!                 let a = pool.allocate(AllocRequest::new(kib(64 + t))).unwrap();
//!                 pool.deallocate(a.id).unwrap();
//!             }
//!         });
//!     }
//! });
//! let stats = pool.stats();
//! assert_eq!(stats.alloc_count, 4 * 64);
//! assert_eq!(stats.active_bytes, 0);
//! ```

use std::sync::Arc;

use gmlake_telemetry::{EventKind, PoolTelemetry};
use parking_lot::Mutex;

use crate::error::AllocError;
use crate::events::EventSource;
use crate::forward_allocator_core;
use crate::request::{AllocRequest, Allocation};
use crate::stats::MemStats;
use crate::traits::AllocatorCore;
use crate::types::{mib, AllocationId, IdMap, StreamId, VirtAddr};

/// The small/large split (2 MiB, the VMM chunk size): requests strictly
/// below it are cached per stream by [`DeviceAllocator`] and served by
/// GMLake's embedded splitting allocator (§3.1: "allocation < 2 MB is rare
/// in LLM training"); requests at or above it go to the stitching
/// machinery, which must see every inactive block.
pub const SMALL_THRESHOLD: u64 = mib(2);

/// Front-end allocation ids live in the top half of the id space so they can
/// never collide with a core's sequential ids.
const FRONT_ID_BASE: u64 = 1 << 63;

/// Smallest size class (bytes): requests below this round up to it.
const MIN_CLASS: u64 = 512;

/// Maximum parked blocks per size class and cache; a free past it goes
/// straight back to the core.
const MAX_CACHED_PER_CLASS: usize = 64;

/// Upper bound on [`DeviceAllocatorConfig::streams`] (1024). A power of two,
/// so any accepted value rounds up to at most the bound itself — the
/// power-of-two round-up at construction can never overflow.
pub const MAX_STREAMS: usize = 1 << 10;

/// Configuration of the [`DeviceAllocator`] front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceAllocatorConfig {
    /// Number of logical GPU streams to partition the caches for (rounded
    /// up to a power of two, default 1). Each stream gets its own cache, so
    /// warm allocations on different streams never share a lock. Stream
    /// ids at or above the configured count fold onto the existing caches
    /// (placement only: folded streams share a lock and free lists, but
    /// reuse and the cross-stream free guard compare the exact
    /// [`StreamId`] every parked block is tagged with).
    ///
    /// Must be in `1..=MAX_STREAMS` (stream 0 is the default stream):
    /// [`DeviceAllocatorConfig::validate`] rejects values outside the range
    /// (surfaced by [`DeviceAllocator::try_build`] as
    /// [`AllocError::InvalidConfig`]).
    pub streams: usize,
}

impl Default for DeviceAllocatorConfig {
    fn default() -> Self {
        DeviceAllocatorConfig { streams: 1 }
    }
}

impl DeviceAllocatorConfig {
    /// Sets the stream count (see [`DeviceAllocatorConfig::streams`] for
    /// the valid range).
    #[must_use]
    pub fn with_streams(mut self, streams: usize) -> Self {
        self.streams = streams;
        self
    }

    /// Checks the configuration for values no allocator can be built from.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidConfig`] if `streams` is outside
    /// `1..=`[`MAX_STREAMS`] (there is always the default stream). The
    /// upper bound keeps the power-of-two round-up at construction from
    /// overflowing — an out-of-range value is an error here, never a panic.
    pub fn validate(&self) -> Result<(), AllocError> {
        if !(1..=MAX_STREAMS).contains(&self.streams) {
            return Err(AllocError::InvalidConfig(format!(
                "streams must be in 1..={MAX_STREAMS} (got {})",
                self.streams
            )));
        }
        Ok(())
    }
}

/// A core allocation parked in (or in flight between) the caches.
#[derive(Debug, Clone, Copy)]
struct CachedBlock {
    /// The id the wrapped core knows this block by.
    core_id: AllocationId,
    va: VirtAddr,
    size: u64,
    /// The stream the block was allocated on — the only stream a parked
    /// block is ever handed back to; any other (even one folded onto the
    /// same cache) must receive it through the core mutex.
    stream: StreamId,
}

/// A live allocation handed out under a front-end id. The live table is
/// what detects double frees exactly and what lets the free path know the
/// *allocating* stream — the prerequisite for the cross-stream event guard.
#[derive(Debug, Clone, Copy)]
struct LiveEntry {
    block: CachedBlock,
    /// Size class of the original request — where the block returns to on
    /// deallocation.
    key: u64,
}

/// Counters reconciling one cache's fast-path activity with the core's
/// `MemStats` (see [`DeviceAllocator::stats`]). Guarded by the cache lock,
/// so the hot path pays no atomic read-modify-writes.
#[derive(Debug, Default, Clone, Copy)]
struct CacheCounters {
    /// Allocations served from the cache (the core saw nothing).
    hits: u64,
    /// Fast-path allocations that fell through to the core.
    misses: u64,
    /// Frees absorbed by the fast path (the core saw nothing — yet).
    fast_frees: u64,
    /// Core-side deallocations performed for cache maintenance (flush,
    /// cap overflow, and cross-stream fallbacks); each undoes the
    /// core-visible half of a free already counted in `fast_frees`.
    cache_returns: u64,
    /// See [`DeviceCacheStats::cross_stream_fallback`] (a subset of
    /// `cache_returns`).
    cross_stream_fallback: u64,
    /// Bytes requested by cache hits (the core never saw the requests).
    requested: u64,
    /// Bytes of class rounding the core recorded as "requested" on misses,
    /// subtracted back out of the aggregate.
    requested_inflation: u64,
    /// Bytes / blocks parked in the free lists (active from the core's
    /// perspective, free from the caller's).
    cached_bytes: u64,
    cached_blocks: u64,
}

impl CacheCounters {
    /// Adds `s` into `self` field-wise (the aggregation step of
    /// [`DeviceAllocator::stats`] / [`DeviceAllocator::cache_stats`]).
    fn absorb(&mut self, s: &CacheCounters) {
        self.hits += s.hits;
        self.misses += s.misses;
        self.fast_frees += s.fast_frees;
        self.cache_returns += s.cache_returns;
        self.cross_stream_fallback += s.cross_stream_fallback;
        self.requested += s.requested;
        self.requested_inflation += s.requested_inflation;
        self.cached_bytes += s.cached_bytes;
        self.cached_blocks += s.cached_blocks;
    }
}

/// One per-stream cache: everything one warm allocate or deallocate
/// touches, behind one lock. A warm op is that lock plus two hashed
/// lookups: the class's free list and the live table.
#[derive(Debug, Default)]
struct StreamCache {
    /// Parked blocks by size class.
    free: IdMap<u64, Vec<CachedBlock>>,
    /// Front-end id -> live allocation.
    live: IdMap<u64, LiveEntry>,
    next_seq: u64,
    stats: CacheCounters,
}

impl StreamCache {
    /// Mints a fresh front-end id owned by cache `index`: the index rides
    /// in the low bits (so deallocation routes back here without any
    /// shared lookup) and the top bit marks the id as front-end-minted.
    #[inline]
    fn mint(&mut self, index: usize, index_bits: u32) -> u64 {
        self.next_seq += 1;
        FRONT_ID_BASE | (self.next_seq << index_bits) | index as u64
    }

    /// Books `block` live under a fresh id and builds the caller's handle.
    fn hand_out(
        &mut self,
        index: usize,
        index_bits: u32,
        block: CachedBlock,
        key: u64,
        requested: u64,
    ) -> Allocation {
        let id = self.mint(index, index_bits);
        self.live.insert(id, LiveEntry { block, key });
        Allocation {
            id: AllocationId::new(id),
            va: block.va,
            size: block.size,
            requested,
        }
    }

    /// Takes a block parked under `key` by exactly `stream`, if any.
    /// Scanning from the back keeps the common case (every entry is this
    /// stream's) at plain-pop cost; mixed stacks only exist when stream
    /// ids fold onto one cache.
    ///
    /// A drained stack stays in the map: the same key is about to be parked
    /// again on the warm cycle, and leaving the entry saves a hash remove +
    /// re-insert per hit (`flush` empties the stacks in place, for the same
    /// reason).
    fn take(&mut self, key: u64, stream: StreamId) -> Option<CachedBlock> {
        let stack = self.free.get_mut(&key)?;
        let pos = stack.iter().rposition(|b| b.stream == stream)?;
        let block = stack.swap_remove(pos);
        self.stats.cached_bytes -= block.size;
        self.stats.cached_blocks -= 1;
        Some(block)
    }

    /// Parks `block`, freed by its own stream, under `key`, with one lookup
    /// of the class's free list. At [`MAX_CACHED_PER_CLASS`], a block
    /// parked by a stream folded onto this cache (a slot `block`'s stream
    /// can never reuse) is evicted to make room, so an idle foreign stream
    /// cannot wedge the warm path of every stream sharing the cache.
    /// Returns what goes to the core: the evicted block, or `block` itself
    /// when every slot is its own stream's.
    fn park(&mut self, block: CachedBlock, key: u64) -> Option<CachedBlock> {
        let stack = self.free.entry(key).or_default();
        let evicted = if stack.len() < MAX_CACHED_PER_CLASS {
            None
        } else {
            match stack.iter().position(|b| b.stream != block.stream) {
                Some(pos) => Some(stack.swap_remove(pos)),
                None => return Some(block),
            }
        };
        stack.push(block);
        self.stats.cached_bytes += block.size;
        self.stats.cached_blocks += 1;
        if let Some(e) = evicted {
            self.stats.cached_bytes -= e.size;
            self.stats.cached_blocks -= 1;
        }
        evicted
    }
}

/// Point-in-time cache telemetry (see [`DeviceAllocator::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCacheStats {
    /// Fast-path allocations served without touching the core mutex.
    pub hits: u64,
    /// Fast-path allocations that fell through to the core.
    pub misses: u64,
    /// Bytes currently parked in the free lists.
    pub cached_bytes: u64,
    /// Blocks currently parked in the free lists.
    pub cached_blocks: u64,
    /// Always 0: the front-end parks no cross-stream free. Kept, with
    /// `pending_bytes` and `event_promotions`, for the benchmark's
    /// `alloc-api` rows, which retire at ROADMAP item 11's instrument
    /// change.
    pub cross_stream_parked: u64,
    /// Cross-stream small frees, every one returned to the core (see
    /// [`DeviceAllocator::free_on_stream`]).
    pub cross_stream_fallback: u64,
    /// Always 0 (see `cross_stream_parked`).
    pub pending_bytes: u64,
    /// Always 0 (see `cross_stream_parked`).
    pub event_promotions: u64,
    /// Number of per-stream caches counted.
    pub streams: usize,
}

struct Inner {
    core: Mutex<Box<dyn AllocatorCore + Send>>,
    /// Backend name, captured at construction so `name()` never locks.
    name: &'static str,
    /// One cache per stream (a power of two of them); a stream id folds
    /// onto `stream & (len - 1)`.
    caches: Box<[Mutex<StreamCache>]>,
    /// `log2(caches.len())`: the id bits that carry the cache index.
    index_bits: u32,
    /// Stream-completion event source a cross-stream small free waits out
    /// before the core sees the block; `None` leaves the ordering to the
    /// core alone.
    events: Option<Arc<dyn EventSource>>,
    /// Optional observability sink: sampled alloc/free latencies and cache
    /// hit/miss trace records. `None` costs one branch.
    telemetry: Option<Arc<PoolTelemetry>>,
}

/// The concurrent allocator front-end: cloneable, `Send + Sync`, `&self` on
/// every call. See the source module docs in `device.rs` and the
/// repository's `docs/streams-and-events.md` for the routing design.
///
/// This is the only type the runtime, the workload replayers and the
/// examples speak to when a pool is shared between threads; the
/// wrapped [`AllocatorCore`] stays single-owner behind the front-end. It
/// also implements [`AllocatorCore`] itself, so trait-generic code such as
/// the sequential replayer drives a shared pool unmodified.
#[derive(Clone)]
pub struct DeviceAllocator {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for DeviceAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceAllocator")
            .field("name", &self.inner.name)
            .field("streams", &self.inner.caches.len())
            .finish_non_exhaustive()
    }
}

/// Rounds a small request up to its size class (the next power of two, at
/// least [`MIN_CLASS`]). Classing at allocation time guarantees every cached
/// block in a class is large enough for every request of that class.
#[inline]
fn size_class(size: u64) -> u64 {
    size.next_power_of_two().max(MIN_CLASS)
}

impl DeviceAllocator {
    /// Wraps `core` with the default [`DeviceAllocatorConfig`] (one
    /// stream), no event source and no telemetry sink.
    pub fn new<A: AllocatorCore + Send + 'static>(core: A) -> Self {
        Self::try_build(Box::new(core), DeviceAllocatorConfig::default(), None, None)
            .expect("the default config validates")
    }

    /// The general constructor: a boxed core, a configuration, an optional
    /// stream-completion [`EventSource`], and an optional [`PoolTelemetry`]
    /// sink fed by the alloc/free fast paths (a disabled sink costs one
    /// relaxed atomic load per call).
    ///
    /// With an event source, a cross-stream small free records an event on
    /// the freeing stream and synchronizes it before the core sees the
    /// block, so a stream-oblivious core stays safe (see
    /// `docs/streams-and-events.md`); `None` leaves that ordering to the
    /// core. The source must uphold the [`EventSource`] ordering contract —
    /// in particular it must never call back into this allocator. When the
    /// wrapped core sits on a simulated device, pass a clone of the same
    /// `CudaDriver` so the wait rides the device's clock and per-stream
    /// frontiers.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidConfig`] — see [`DeviceAllocatorConfig::validate`].
    pub fn try_build(
        core: Box<dyn AllocatorCore + Send>,
        config: DeviceAllocatorConfig,
        events: Option<Arc<dyn EventSource>>,
        telemetry: Option<Arc<PoolTelemetry>>,
    ) -> Result<Self, AllocError> {
        config.validate()?;
        let streams = config.streams.next_power_of_two();
        let name = core.name();
        Ok(DeviceAllocator {
            inner: Arc::new(Inner {
                core: Mutex::new(core),
                name,
                caches: (0..streams).map(|_| Mutex::default()).collect(),
                index_bits: streams.trailing_zeros(),
                events,
                telemetry,
            }),
        })
    }

    /// The attached telemetry sink, if any — enable it to start recording,
    /// and snapshot it to export what was recorded.
    pub fn telemetry(&self) -> Option<&Arc<PoolTelemetry>> {
        self.inner.telemetry.as_ref()
    }

    /// Telemetry gate of one call: `None` when detached, disabled, or not
    /// sampled this call — the call then skips all telemetry work.
    fn sampled_telemetry(&self) -> Option<&PoolTelemetry> {
        self.inner.telemetry.as_deref().filter(|t| t.hot_sample())
    }

    /// The index of the cache `stream` folds onto (placement only — guard
    /// and affinity decisions always compare the exact [`StreamId`] tag).
    #[inline]
    fn cache_index(&self, stream: StreamId) -> usize {
        stream.as_u32() as usize & (self.inner.caches.len() - 1)
    }

    /// Runs `ask` against the locked core, and once more if it ran out of
    /// memory, after returning every front-end cache to the core (the
    /// core's own OOM fallbacks cannot reach blocks parked in the
    /// front-end).
    ///
    /// The retry runs even when this thread's own `flush()` found the caches
    /// empty: a concurrent flush may have drained them but not yet handed
    /// its blocks to the core, and the retry — sequenced after that
    /// flush's core deallocations by the core lock — is what rescues the
    /// allocation in that window.
    fn ask_core(
        &self,
        ask: impl Fn(&mut dyn AllocatorCore) -> Result<Allocation, AllocError>,
    ) -> Result<Allocation, AllocError> {
        let first = ask(&mut **self.inner.core.lock());
        let Err(AllocError::OutOfMemory { .. }) = &first else {
            return first;
        };
        self.flush();
        ask(&mut **self.inner.core.lock())
    }

    /// Serves a small `req` from `stream`'s cache. A **hit** — a block
    /// parked under the request's size class by this exact stream — is
    /// handed out under one short cache-lock acquisition; the core mutex is
    /// never touched. A **miss** asks the core for a block of the class
    /// size. The cache lock and the core lock are never held simultaneously.
    fn allocate_cached(
        &self,
        req: AllocRequest,
        stream: StreamId,
        tel: Option<&PoolTelemetry>,
    ) -> Result<Allocation, AllocError> {
        let key = size_class(req.size);
        let index = self.cache_index(stream);
        let index_bits = self.inner.index_bits;
        let cache = &self.inner.caches[index];
        {
            let mut guard = cache.lock();
            let g = &mut *guard;
            if let Some(block) = g.take(key, stream) {
                g.stats.hits += 1;
                g.stats.requested += req.size;
                if let Some(t) = tel {
                    t.record(EventKind::ShardHit, key, stream.as_u32() as u64, 0);
                }
                return Ok(g.hand_out(index, index_bits, block, key, req.size));
            }
            g.stats.misses += 1;
        }
        if let Some(t) = tel {
            t.record(EventKind::ShardMiss, key, stream.as_u32() as u64, 0);
        }
        // Miss: ask the core for the whole class size (no cache lock held).
        // The core records `key` as requested; `requested_inflation`
        // subtracts the rounding back out. The core records `stream` as the
        // block's owner, so a later free from another stream is ordered.
        let core_req = AllocRequest::new(key).with_tag(req.tag);
        let core_alloc = self.ask_core(|core| core.alloc_on_stream(core_req, stream))?;
        let block = CachedBlock {
            core_id: core_alloc.id,
            va: core_alloc.va,
            size: core_alloc.size,
            stream,
        };
        let mut guard = cache.lock();
        guard.stats.requested_inflation += key - req.size;
        Ok(guard.hand_out(index, index_bits, block, key, req.size))
    }

    /// Allocates memory for `req` (see [`AllocatorCore::allocate`] for the
    /// contract) on the default stream — [`DeviceAllocator::alloc_on_stream`]
    /// with [`StreamId::DEFAULT`].
    pub fn allocate(&self, req: AllocRequest) -> Result<Allocation, AllocError> {
        self.alloc_on_stream(req, StreamId::DEFAULT)
    }

    /// Allocates memory for `req` on behalf of `stream`. A request below
    /// the threshold is served from the stream's own cache, so
    /// warm small allocations on different streams never contend on a
    /// lock; only a miss reaches the core mutex. A request at or above it
    /// goes straight to the core — a stream-affine
    /// [`AllocatorCore::alloc_on_stream`], handing out the core's id — so
    /// the stitcher sees every inactive block.
    ///
    /// # Errors
    ///
    /// See [`AllocatorCore::allocate`].
    pub fn alloc_on_stream(
        &self,
        req: AllocRequest,
        stream: StreamId,
    ) -> Result<Allocation, AllocError> {
        if req.size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let tel = self.sampled_telemetry();
        let start = tel.map(|_| std::time::Instant::now());
        let result = if req.size < SMALL_THRESHOLD {
            self.allocate_cached(req, stream, tel)
        } else {
            let result = self.ask_core(|core| core.alloc_on_stream(req, stream));
            if let (Ok(a), Some(t)) = (&result, tel) {
                t.record(EventKind::Alloc, a.size, stream.as_u32() as u64, 0);
            }
            result
        };
        if let (Some(t), Some(start)) = (tel, start) {
            t.alloc_ns().record(start.elapsed().as_nanos() as u64);
        }
        result
    }

    /// Releases the allocation identified by `id` (see
    /// [`AllocatorCore::deallocate`]) from the default stream —
    /// [`DeviceAllocator::free_on_stream`] with [`StreamId::DEFAULT`].
    pub fn deallocate(&self, id: AllocationId) -> Result<(), AllocError> {
        self.free_on_stream(id, StreamId::DEFAULT)
    }

    /// Releases the allocation identified by `id`, where the free is issued
    /// from `stream`.
    ///
    /// A front-end id (a small allocation) always routes back to the cache
    /// that minted it (its allocating stream's — the id's low bits name
    /// it, no shared lookup). What happens there depends on the freeing
    /// stream:
    ///
    /// * **same stream** as the allocation: the block is parked in the
    ///   stream's free list for immediate reuse, up to the class's cap —
    ///   at cap, a block parked by another stream folded onto the same
    ///   cache is evicted to the core to make room, else the freed block
    ///   itself goes to the core;
    /// * **different stream**: the block is returned to the core's
    ///   [`AllocatorCore::free_on_stream`], told the freeing stream, which
    ///   owns the cross-stream rule from there. With an [`EventSource`]
    ///   configured, an event is first recorded on the freeing stream and
    ///   **synchronized before the core sees the block**, so a core that
    ///   ignores streams cannot re-serve it while that stream still uses
    ///   it.
    ///
    /// Every block the front-end hands the core goes through
    /// [`AllocatorCore::free_on_stream`]: a same-stream return (cap
    /// overflow, eviction, flush) names the block's own stream.
    ///
    /// A core-minted id (a large allocation) goes straight to the core's
    /// [`AllocatorCore::free_on_stream`], which is told the freeing stream
    /// and owns the cross-stream rule for its blocks; the front-end records
    /// and synchronizes nothing.
    ///
    /// # Errors
    ///
    /// See [`AllocatorCore::deallocate`].
    pub fn free_on_stream(&self, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
        let tel = self.sampled_telemetry();
        let start = tel.map(|_| std::time::Instant::now());
        let result = if id.as_u64() < FRONT_ID_BASE {
            self.inner.core.lock().free_on_stream(id, stream)
        } else {
            self.free_cached(id, stream, tel)
        };
        if let (Some(t), Some(start)) = (tel, start) {
            t.free_ns().record(start.elapsed().as_nanos() as u64);
        }
        result
    }

    /// The free rules of [`DeviceAllocator::free_on_stream`] for a
    /// front-end id.
    fn free_cached(
        &self,
        id: AllocationId,
        stream: StreamId,
        tel: Option<&PoolTelemetry>,
    ) -> Result<(), AllocError> {
        let raw = id.as_u64();
        let caches = &self.inner.caches;
        // The minting cache rides in the id's low bits.
        let cache = &caches[raw as usize & (caches.len() - 1)];
        // The block going to the core, with the stream it is freed from.
        let to_core = {
            let mut guard = cache.lock();
            let g = &mut *guard;
            let Some(LiveEntry { block, key }) = g.live.remove(&raw) else {
                return Err(AllocError::UnknownAllocation(id));
            };
            g.stats.fast_frees += 1;
            if block.stream == stream {
                if let Some(t) = tel {
                    t.record(EventKind::Free, block.size, stream.as_u32() as u64, 0);
                }
                let overflow = g.park(block, key);
                g.stats.cache_returns += u64::from(overflow.is_some());
                overflow.map(|b| (b, b.stream))
            } else {
                // Cross-stream: the core, told the freeing stream, orders
                // the block's reuse after that stream's work.
                g.stats.cross_stream_fallback += 1;
                g.stats.cache_returns += 1;
                Some((block, stream))
            }
        };
        if let Some((block, freed_from)) = to_core {
            if freed_from != block.stream {
                if let Some(events) = &self.inner.events {
                    // Wait out the freeing stream (no cache lock held)
                    // before the core can re-serve the block: a core that
                    // ignores streams is safe too.
                    events.synchronize(events.record(freed_from));
                }
            }
            self.inner
                .core
                .lock()
                .free_on_stream(block.core_id, freed_from)
                .expect("front-end owns every cached block");
        }
        Ok(())
    }

    /// Returns every block parked in the caches — across **every** stream —
    /// to the wrapped core and reports the bytes handed back. The core
    /// decides what happens next (pool them, release them); flushing
    /// itself frees no physical memory. This is the flush the defrag/OOM
    /// paths run: defragmentation must see every cached byte, so it can
    /// never be scoped to one stream.
    ///
    /// Each size class's stack is emptied in place and stays in the map with
    /// its buffer, which the next park of that class reuses.
    pub fn flush(&self) -> u64 {
        let mut blocks: Vec<CachedBlock> = Vec::new();
        for cache in self.inner.caches.iter() {
            let mut guard = cache.lock();
            let g = &mut *guard;
            for stack in g.free.values_mut() {
                for block in stack.iter() {
                    g.stats.cache_returns += 1;
                    g.stats.cached_bytes -= block.size;
                    g.stats.cached_blocks -= 1;
                }
                blocks.append(stack);
            }
        }
        if blocks.is_empty() {
            return 0;
        }
        let mut bytes = 0;
        let mut core = self.inner.core.lock();
        for block in &blocks {
            bytes += block.size;
            // Parked blocks are idle on their owner: same-stream frees.
            core.free_on_stream(block.core_id, block.stream)
                .expect("front-end owns every cached block");
        }
        bytes
    }

    /// Forwards to the core's [`AllocatorCore::process_events`]: the
    /// front-end holds nothing that waits on an event.
    pub fn process_events(&self) -> u64 {
        self.inner.core.lock().process_events()
    }

    /// Sums the reconciliation counters of every cache.
    fn totals(&self) -> CacheCounters {
        let mut total = CacheCounters::default();
        for cache in self.inner.caches.iter() {
            total.absorb(&cache.lock().stats);
        }
        total
    }

    /// Memory statistics of the pool: the wrapped core's counters
    /// reconciled with the per-cache fast-path counters. Exact whenever the
    /// pool is quiescent; a faithful snapshot under concurrency.
    ///
    /// A hit never reached the core (`hits`), a parked free is freed from
    /// the caller's view (`fast_frees` minus `cache_returns`), and parked
    /// bytes are not active — the caller relinquished them. A
    /// block between selection and commit is counted exactly once: `take`
    /// removes it and its cached bytes under the same lock acquisition
    /// that books the hit.
    ///
    /// Peak watermarks are measured at the core, so bytes parked in the
    /// caches count toward `peak_active_bytes` (an upper bound).
    pub fn stats(&self) -> MemStats {
        let fast = self.totals();
        let mut s = self.inner.core.lock().stats();
        s.alloc_count += fast.hits;
        s.free_count = (s.free_count + fast.fast_frees).saturating_sub(fast.cache_returns);
        s.requested_bytes_total =
            (s.requested_bytes_total + fast.requested).saturating_sub(fast.requested_inflation);
        s.active_bytes = s.active_bytes.saturating_sub(fast.cached_bytes);
        s
    }

    /// Projects cache counters into the public telemetry shape.
    fn cache_stats_of(fast: CacheCounters, streams: usize) -> DeviceCacheStats {
        DeviceCacheStats {
            hits: fast.hits,
            misses: fast.misses,
            cached_bytes: fast.cached_bytes,
            cached_blocks: fast.cached_blocks,
            cross_stream_fallback: fast.cross_stream_fallback,
            streams,
            ..Default::default()
        }
    }

    /// Cache telemetry aggregated across every stream's cache (`streams`
    /// reports the cache count).
    pub fn cache_stats(&self) -> DeviceCacheStats {
        Self::cache_stats_of(self.totals(), self.inner.caches.len())
    }

    /// Always empty apart from `streams`: the large route that used to
    /// cache requests at or above the threshold is gone — they go straight
    /// to the core. Kept for the benchmark's `alloc-api.large_*` rows,
    /// which retire at ROADMAP item 11's instrument change.
    pub fn large_cache_stats(&self) -> DeviceCacheStats {
        DeviceCacheStats {
            streams: self.inner.caches.len(),
            ..Default::default()
        }
    }

    /// Cache telemetry of one stream's cache only (`streams` is 1).
    ///
    /// **Folding caveat:** a stream id at or above the configured
    /// [`DeviceAllocatorConfig::streams`] count folds onto an existing
    /// cache, so the counters include every stream folded onto it.
    pub fn stream_cache_stats(&self, stream: StreamId) -> DeviceCacheStats {
        let stats = self.inner.caches[self.cache_index(stream)].lock().stats;
        Self::cache_stats_of(stats, 1)
    }

    /// Backend name, cached at construction (never takes a lock).
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    /// Forwards the iteration hint to the core (see
    /// [`AllocatorCore::iteration_boundary`]).
    pub fn iteration_boundary(&self) {
        self.inner.core.lock().iteration_boundary();
    }

    /// Flushes the caches into the core, then releases the core's cached
    /// memory (see [`AllocatorCore::release_cached`]). Returns the
    /// physical bytes released.
    pub fn release_cached(&self) -> u64 {
        self.flush();
        self.inner.core.lock().release_cached()
    }

    /// Flushes the caches into the core, then runs the core's proactive
    /// defrag pass (see [`AllocatorCore::compact`]). Returns the physical
    /// bytes released.
    ///
    /// The flush stays, although the core's pass leaves its own small pool
    /// alone and the flush turns warm hits into misses. A block parked
    /// here is live to the core, so no pass can reach its bytes. Measured
    /// on the benchmark's `serve_churn`, where the serving layer runs a
    /// pass at every large free: without the flush, small-path misses
    /// fall 36 935 → 584, but 155 975 680 B sit parked at the peak
    /// (0 with it) and peak reserved rises 0.24 %, 43 308 285 952 →
    /// 43 411 046 400 B, with stall unchanged to 0.1 %. Flushing at the
    /// serving step's pass only, not at the large-free passes, read stall
    /// −0.15 %, peak +2 MiB and no measurable host time.
    pub fn compact(&self) -> u64 {
        self.flush();
        self.inner.core.lock().compact()
    }

    /// Instantaneous fragmentation ratio over the reconciled [`stats`]
    /// (bytes parked in the caches count as reclaimable, not active).
    ///
    /// [`stats`]: DeviceAllocator::stats
    pub fn fragmentation(&self) -> f64 {
        self.stats().current_fragmentation()
    }

    /// Runs `f` with exclusive access to the wrapped core — the escape
    /// hatch for implementation-specific calls. The caches are *not*
    /// flushed first (call [`DeviceAllocator::flush`] if `f` needs to see
    /// every block); do not block inside `f`, every core-path caller waits.
    pub fn with_core<R>(&self, f: impl FnOnce(&mut dyn AllocatorCore) -> R) -> R {
        f(&mut **self.inner.core.lock())
    }

    /// Forwards [`AllocatorCore::fault_journal_stats`] to the wrapped core
    /// without flushing the caches (journal counters live in the core and
    /// are unaffected by parked blocks).
    pub fn fault_journal_stats(&self) -> crate::stats::FaultJournalStats {
        self.inner.core.lock().fault_journal_stats()
    }

    /// Typed variant of [`DeviceAllocator::with_core`]: runs `f` on the
    /// wrapped core if it is a `T` (via [`AllocatorCore::as_any_mut`]),
    /// e.g. to read `GmLakeAllocator::state_counters` behind the
    /// type-erased front-end. Returns `None` when the core is not a `T`.
    pub fn with_core_as<T: AllocatorCore + 'static, R>(
        &self,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        let mut guard = self.inner.core.lock();
        guard.as_any_mut()?.downcast_mut::<T>().map(f)
    }
}

/// `DeviceAllocator` is itself an [`AllocatorCore`] so trait-generic code
/// (the sequential replayer, ablation harnesses) can drive a shared pool;
/// every method delegates to the concurrent `&self` inherent API (`*self`
/// auto-refs to `&DeviceAllocator`, where the inherent method wins over
/// this trait's `&mut self` one) — except `as_any_mut`: a wrapper must not
/// masquerade as its inner core.
impl AllocatorCore for DeviceAllocator {
    forward_allocator_core!(self => (*self));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::EventId;
    use std::collections::HashMap as StdHashMap;

    /// One call the front-end made to its event source or to the core's
    /// free path.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        Record(StreamId),
        Synchronize(EventId),
        CoreFree(StreamId),
    }

    type CallLog = Arc<Mutex<Vec<Call>>>;

    /// An event source writing its calls into the log the core shares; the
    /// n-th logged call mints event n.
    struct LoggedEvents(CallLog);

    impl EventSource for LoggedEvents {
        fn record(&self, stream: StreamId) -> EventId {
            let mut log = self.0.lock();
            log.push(Call::Record(stream));
            EventId::new(log.len() as u64)
        }

        fn synchronize(&self, event: EventId) {
            self.0.lock().push(Call::Synchronize(event));
        }
    }

    /// Test core with strict accounting and a bounded capacity.
    #[derive(Default)]
    struct TestCore {
        next: u64,
        live: StdHashMap<AllocationId, u64>,
        stats: MemStats,
        capacity: u64,
        released: u64,
        /// The stream of every `alloc_on_stream` / `free_on_stream` call.
        streams_seen: Vec<StreamId>,
        /// Where every `free_on_stream` is logged, in order with the calls
        /// of a [`LoggedEvents`] source sharing the log.
        log: Option<CallLog>,
    }

    impl TestCore {
        fn bounded(capacity: u64) -> Self {
            TestCore {
                capacity,
                ..TestCore::default()
            }
        }
    }

    impl AllocatorCore for TestCore {
        fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
            if req.size == 0 {
                return Err(AllocError::ZeroSize);
            }
            if self.capacity > 0 && self.stats.active_bytes + req.size > self.capacity {
                return Err(AllocError::OutOfMemory {
                    requested: req.size,
                    reserved: self.stats.reserved_bytes,
                    capacity: self.capacity,
                });
            }
            self.next += 1;
            let id = AllocationId::new(self.next);
            self.live.insert(id, req.size);
            self.stats.on_alloc(req.size, req.size);
            let r = self.stats.active_bytes;
            self.stats.set_reserved(r.max(self.stats.reserved_bytes));
            Ok(Allocation {
                id,
                va: VirtAddr::new(self.next << 24),
                size: req.size,
                requested: req.size,
            })
        }

        fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
            let size = self
                .live
                .remove(&id)
                .ok_or(AllocError::UnknownAllocation(id))?;
            self.stats.on_free(size);
            Ok(())
        }

        fn alloc_on_stream(
            &mut self,
            req: AllocRequest,
            stream: StreamId,
        ) -> Result<Allocation, AllocError> {
            self.streams_seen.push(stream);
            self.allocate(req)
        }

        fn free_on_stream(&mut self, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
            self.streams_seen.push(stream);
            if let Some(log) = &self.log {
                log.lock().push(Call::CoreFree(stream));
            }
            self.deallocate(id)
        }

        fn stats(&self) -> MemStats {
            self.stats
        }

        fn name(&self) -> &'static str {
            "test-core"
        }

        fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }

        fn release_cached(&mut self) -> u64 {
            let r = self.stats.reserved_bytes - self.stats.active_bytes;
            self.released += r;
            let active = self.stats.active_bytes;
            self.stats.set_reserved(active);
            // set_reserved only raises the peak; force the current value.
            self.stats.reserved_bytes = active;
            r
        }
    }

    /// A 2-stream pool over a [`TestCore`] logging its frees into the
    /// returned log, which a [`LoggedEvents`] source shares if `events`.
    fn logged_pool(events: bool) -> (DeviceAllocator, CallLog) {
        let log = CallLog::default();
        let core = TestCore {
            log: Some(Arc::clone(&log)),
            ..TestCore::default()
        };
        let source =
            events.then(|| Arc::new(LoggedEvents(Arc::clone(&log))) as Arc<dyn EventSource>);
        let config = DeviceAllocatorConfig::default().with_streams(2);
        let pool = DeviceAllocator::try_build(Box::new(core), config, source, None).unwrap();
        (pool, log)
    }

    /// A pool over `core` with `streams` stream caches.
    fn with_streams(core: TestCore, streams: usize) -> DeviceAllocator {
        let config = DeviceAllocatorConfig::default().with_streams(streams);
        DeviceAllocator::try_build(Box::new(core), config, None, None).unwrap()
    }

    #[test]
    fn size_classes_round_up_to_powers_of_two() {
        assert_eq!(size_class(1), MIN_CLASS);
        assert_eq!(size_class(512), 512);
        assert_eq!(size_class(513), 1024);
        assert_eq!(size_class(mib(1)), mib(1));
        assert_eq!(size_class(mib(1) + 1), mib(2));
    }

    #[test]
    fn minted_ids_are_unique_and_route_back_to_their_shard() {
        let pool = with_streams(TestCore::default(), 2);
        let mut seen = std::collections::HashSet::new();
        for i in 0..200u64 {
            // Several classes, and every fourth request large (a core id);
            // both streams.
            let large = i % 4 == 3;
            let size = if large {
                mib(2 + i % 8)
            } else {
                512 << (i % 8)
            };
            let stream = StreamId((i % 2) as u32);
            let a = pool
                .alloc_on_stream(AllocRequest::new(size), stream)
                .unwrap();
            let raw = a.id.as_u64();
            assert!(seen.insert(a.id), "ids are never reused");
            if large {
                assert!(raw < FRONT_ID_BASE, "large requests get core ids");
            } else {
                assert!(raw >= FRONT_ID_BASE);
                assert_eq!(
                    raw as usize & 1,
                    stream.as_u32() as usize,
                    "the id's low bit names the minting stream's cache"
                );
            }
            pool.free_on_stream(a.id, stream).unwrap();
        }
    }

    #[test]
    fn fast_path_reuses_blocks_without_touching_the_core() {
        let pool = DeviceAllocator::new(TestCore::default());
        let a = pool.allocate(AllocRequest::new(1000)).unwrap();
        assert!(a.size >= 1000);
        pool.deallocate(a.id).unwrap();
        // Same class: served from the stream's cache — the core sees nothing.
        let b = pool.allocate(AllocRequest::new(900)).unwrap();
        assert_eq!(b.va, a.va, "the cached block was reused");
        assert!(b.size >= 900);
        assert_ne!(b.id, a.id, "front-end ids are never reused");
        pool.deallocate(b.id).unwrap();
        let cache = pool.cache_stats();
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 1);
        assert_eq!(cache.cached_blocks, 1);
        assert_eq!(pool.with_core(|c| c.stats().alloc_count), 1);
    }

    #[test]
    fn stats_reconcile_exactly_at_quiescence() {
        let pool = DeviceAllocator::new(TestCore::default());
        for _ in 0..5 {
            let a = pool.allocate(AllocRequest::new(700)).unwrap();
            pool.deallocate(a.id).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.alloc_count, 5);
        assert_eq!(s.free_count, 5);
        assert_eq!(s.active_bytes, 0);
        assert_eq!(s.requested_bytes_total, 5 * 700, "true requested bytes");
        // Flushing hands the cached block back to the core without
        // disturbing the caller-visible counters.
        assert_eq!(pool.flush(), 1024);
        let s = pool.stats();
        assert_eq!(s.alloc_count, 5);
        assert_eq!(s.free_count, 5);
        assert_eq!(s.active_bytes, 0);
        assert_eq!(pool.cache_stats().cached_blocks, 0);
    }

    #[test]
    fn double_free_of_a_front_end_id_is_reported() {
        let pool = DeviceAllocator::new(TestCore::default());
        let a = pool.allocate(AllocRequest::new(100)).unwrap();
        pool.deallocate(a.id).unwrap();
        assert_eq!(
            pool.deallocate(a.id).unwrap_err(),
            AllocError::UnknownAllocation(a.id)
        );
    }

    #[test]
    fn zero_size_rejected_without_locking_the_core() {
        let pool = DeviceAllocator::new(TestCore::default());
        let _hold = pool.inner.core.lock();
        // Must not deadlock: the zero-size check precedes any core access.
        assert_eq!(
            pool.allocate(AllocRequest::new(0)).unwrap_err(),
            AllocError::ZeroSize
        );
    }

    #[test]
    fn large_route_disabled_hands_out_core_ids() {
        // Requests at or above the threshold bypass the caches: every large
        // request and free is the core's, stream included.
        let pool = DeviceAllocator::new(TestCore::default());
        let a = pool
            .alloc_on_stream(AllocRequest::new(mib(8)), StreamId(3))
            .unwrap();
        assert!(a.id.as_u64() < FRONT_ID_BASE, "core id handed out");
        pool.free_on_stream(a.id, StreamId(5)).unwrap();
        assert_eq!(pool.cache_stats().cached_blocks, 0);
        assert_eq!(
            pool.with_core_as(|c: &mut TestCore| c.streams_seen.clone()),
            Some(vec![StreamId(3), StreamId(5)]),
            "the core saw the allocating and the freeing stream"
        );
        assert_eq!(
            pool.deallocate(a.id).unwrap_err(),
            AllocError::UnknownAllocation(a.id),
            "large double-free detected by the core"
        );
    }

    #[test]
    fn core_minted_cross_stream_free_reaches_the_core_untouched() {
        // The core mints a large request's id and owns the cross-stream
        // rule for it: the front-end hands the free over with its stream,
        // recording and synchronizing nothing itself.
        let (pool, log) = logged_pool(true);
        let a = pool
            .alloc_on_stream(AllocRequest::new(mib(4)), StreamId(1))
            .unwrap();
        assert!(a.id.as_u64() < FRONT_ID_BASE, "core id handed out");
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        assert_eq!(
            pool.with_core_as(|c: &mut TestCore| c.streams_seen.clone()),
            Some(vec![StreamId(1), StreamId(0)]),
            "the core saw the allocating and the freeing stream"
        );
        assert_eq!(pool.with_core(|c| c.stats().free_count), 1);
        assert_eq!(
            *log.lock(),
            [Call::CoreFree(StreamId(0))],
            "no event recorded or synchronized"
        );
        assert_eq!(
            pool.deallocate(a.id).unwrap_err(),
            AllocError::UnknownAllocation(a.id),
            "a double free still reaches the core"
        );
    }

    #[test]
    fn process_events_forwards_to_the_core() {
        #[derive(Default)]
        struct Ticking(TestCore, u64);
        impl AllocatorCore for Ticking {
            fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
                self.0.allocate(req)
            }
            fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
                self.0.deallocate(id)
            }
            fn stats(&self) -> MemStats {
                self.0.stats()
            }
            fn name(&self) -> &'static str {
                "ticking"
            }
            fn process_events(&mut self) -> u64 {
                self.1 += 1;
                self.1
            }
        }
        let pool = DeviceAllocator::new(Ticking::default());
        assert_eq!(pool.process_events(), 1, "no event source, core swept");
        assert_eq!(pool.process_events(), 2);
    }

    #[test]
    fn large_stats_reconcile_exactly_at_quiescence() {
        // Large requests bypass the caches — the core sees each one and
        // mints its id — while a small request beside them is cached; at
        // quiescence the reconciled counters are exact across both id
        // spaces.
        let pool = DeviceAllocator::new(TestCore::default());
        for _ in 0..5 {
            let a = pool.allocate(AllocRequest::new(mib(4))).unwrap();
            let b = pool.allocate(AllocRequest::new(1000)).unwrap();
            pool.deallocate(a.id).unwrap();
            pool.deallocate(b.id).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.alloc_count, 10);
        assert_eq!(s.free_count, 10);
        assert_eq!(s.active_bytes, 0);
        let requested = 5 * (mib(4) + 1000);
        assert_eq!(s.requested_bytes_total, requested, "exact requested");
        let cache = pool.cache_stats();
        assert_eq!((cache.hits, cache.misses), (4, 1), "only small is cached");
        assert_eq!(pool.with_core(|c| c.stats().alloc_count), 6);
        assert_eq!(
            pool.large_cache_stats(),
            DeviceCacheStats {
                streams: 1,
                ..Default::default()
            }
        );
        assert_eq!(pool.flush(), 1024, "only the small block was parked");
        let s = pool.stats();
        assert_eq!(s.alloc_count, 10);
        assert_eq!(s.free_count, 10);
        assert_eq!(s.active_bytes, 0);
        assert_eq!(s.requested_bytes_total, requested);
    }

    #[test]
    fn large_oom_flushes_the_banks_and_retries() {
        // Capacity fits exactly four 1 MiB class blocks, all parked in the
        // stream's cache: a large request at the core runs out of memory
        // until the flush-and-retry hands them back.
        let pool = DeviceAllocator::new(TestCore::bounded(mib(4)));
        let ids: Vec<_> = (0..4)
            .map(|_| pool.allocate(AllocRequest::new(mib(1))).unwrap().id)
            .collect();
        for id in ids {
            pool.deallocate(id).unwrap();
        }
        assert_eq!(pool.cache_stats().cached_bytes, mib(4));
        let b = pool.allocate(AllocRequest::new(mib(3))).unwrap();
        assert!(b.id.as_u64() < FRONT_ID_BASE, "served by the core");
        assert_eq!(b.size, mib(3));
        assert_eq!(pool.cache_stats().cached_bytes, 0, "the retry flushed");
        pool.deallocate(b.id).unwrap();
        let s = pool.stats();
        assert_eq!(s.alloc_count, 5);
        assert_eq!(s.free_count, 5);
        assert_eq!(s.active_bytes, 0);
    }

    #[test]
    fn oom_flushes_the_shards_and_retries() {
        // Capacity fits exactly one 1 KiB class block. The cached block
        // must be handed back to the core for the second allocation to
        // succeed — the core alone could never free it.
        let pool = DeviceAllocator::new(TestCore::bounded(1024));
        let a = pool.allocate(AllocRequest::new(1000)).unwrap();
        pool.deallocate(a.id).unwrap();
        assert_eq!(pool.cache_stats().cached_blocks, 1);
        let b = pool.allocate(AllocRequest::new(600)).unwrap();
        assert!(b.size >= 600);
        pool.deallocate(b.id).unwrap();
        // 600 rounds to the 1024 class: the flush made room for it.
        let s = pool.stats();
        assert_eq!(s.alloc_count, 2);
        assert_eq!(s.free_count, 2);
        assert_eq!(s.active_bytes, 0);
    }

    #[test]
    fn per_class_cache_overflow_returns_to_the_core() {
        let pool = DeviceAllocator::new(TestCore::default());
        let n = MAX_CACHED_PER_CLASS + 1;
        let ids: Vec<_> = (0..n)
            .map(|_| pool.allocate(AllocRequest::new(800)).unwrap().id)
            .collect();
        for id in ids {
            pool.deallocate(id).unwrap();
        }
        let cache = pool.cache_stats();
        assert_eq!(cache.cached_blocks, MAX_CACHED_PER_CLASS as u64, "capped");
        let s = pool.stats();
        assert_eq!(s.alloc_count, n as u64);
        assert_eq!(s.free_count, n as u64);
        assert_eq!(s.active_bytes, 0);
        assert_eq!(
            pool.with_core(|c| c.stats().live_allocations()),
            MAX_CACHED_PER_CLASS as u64,
            "only the cached blocks remain live in the core"
        );
    }

    #[test]
    fn release_cached_reaches_blocks_parked_in_shards() {
        let pool = DeviceAllocator::new(TestCore::default());
        let a = pool.allocate(AllocRequest::new(1024)).unwrap();
        pool.deallocate(a.id).unwrap();
        assert_eq!(pool.cache_stats().cached_bytes, 1024);
        let released = pool.release_cached();
        assert_eq!(released, 1024, "the parked block reached the device");
        assert_eq!(pool.cache_stats().cached_bytes, 0);
        assert_eq!(pool.stats().reserved_bytes, 0);
    }

    #[test]
    fn front_end_is_send_sync_clone() {
        fn assert_traits<T: Send + Sync + Clone>() {}
        assert_traits::<DeviceAllocator>();
    }

    #[test]
    fn zero_streams_is_an_error_not_a_panic() {
        let cfg = DeviceAllocatorConfig::default().with_streams(0);
        assert!(matches!(
            cfg.validate(),
            Err(AllocError::InvalidConfig(msg)) if msg.contains("streams")
        ));
        let err =
            DeviceAllocator::try_build(Box::new(TestCore::default()), cfg, None, None).unwrap_err();
        assert!(matches!(err, AllocError::InvalidConfig(_)));
    }

    #[test]
    fn oversized_streams_are_an_error_not_a_panic() {
        // usize::MAX would overflow next_power_of_two() at construction —
        // the bounds check must catch it in validate(), upholding the
        // "never a panic" contract.
        for cfg in [
            DeviceAllocatorConfig::default().with_streams(usize::MAX),
            DeviceAllocatorConfig::default().with_streams(MAX_STREAMS + 1),
        ] {
            assert!(matches!(cfg.validate(), Err(AllocError::InvalidConfig(_))));
            let err = DeviceAllocator::try_build(Box::new(TestCore::default()), cfg, None, None)
                .unwrap_err();
            assert!(matches!(err, AllocError::InvalidConfig(_)));
        }
        // The bound itself is accepted.
        assert!(DeviceAllocatorConfig::default()
            .with_streams(MAX_STREAMS)
            .validate()
            .is_ok());
    }

    #[test]
    fn stream_count_rounds_to_a_power_of_two_banks() {
        let pool = DeviceAllocator::try_build(
            Box::new(TestCore::default()),
            DeviceAllocatorConfig::default().with_streams(3),
            None,
            None,
        )
        .unwrap();
        assert_eq!(
            pool.cache_stats().streams,
            4,
            "3 streams round up to 4 caches"
        );
        assert_eq!(pool.stream_cache_stats(StreamId(1)).streams, 1);
        // Stream 5 folds onto stream 1's cache.
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(5))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(5)).unwrap();
        assert_eq!(pool.stream_cache_stats(StreamId(1)).cached_blocks, 1);
    }

    #[test]
    fn same_class_different_streams_use_disjoint_shards() {
        let pool = with_streams(TestCore::default(), 4);
        // Same size class on two streams: each stream's cache minted its
        // own id and caches its own block.
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(0))
            .unwrap();
        let b = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        let mask = pool.inner.caches.len() as u64 - 1;
        assert_ne!(
            a.id.as_u64() & mask,
            b.id.as_u64() & mask,
            "the id's low bits name different caches"
        );
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        pool.free_on_stream(b.id, StreamId(1)).unwrap();
        assert_eq!(pool.stream_cache_stats(StreamId(0)).cached_blocks, 1);
        assert_eq!(pool.stream_cache_stats(StreamId(1)).cached_blocks, 1);
        // Each stream reuses only its own cached block.
        let a2 = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(0))
            .unwrap();
        assert_eq!(a2.va, a.va, "stream 0 got stream 0's block back");
        pool.free_on_stream(a2.id, StreamId(0)).unwrap();
    }

    #[test]
    fn cross_stream_free_routes_through_the_core() {
        let (pool, log) = logged_pool(false);
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        // Freed from stream 0: the block must NOT be parked for reuse.
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        assert_eq!(
            *log.lock(),
            [Call::CoreFree(StreamId(0))],
            "no event source: straight to the core, told the freeing stream"
        );
        let c = pool.cache_stats();
        assert_eq!(c.cached_blocks, 0, "cross-stream free never parks");
        assert_eq!(c.cross_stream_fallback, 1, "counted as a cross-stream free");
        assert_eq!(
            pool.with_core(|core| core.stats().live_allocations()),
            0,
            "the block went back to the core"
        );
        let s = pool.stats();
        assert_eq!((s.alloc_count, s.free_count, s.active_bytes), (1, 1, 0));
        // A fresh allocation on either stream misses (nothing was cached).
        let b = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(0))
            .unwrap();
        assert_eq!(pool.cache_stats().hits, 0);
        pool.free_on_stream(b.id, StreamId(0)).unwrap();
    }

    #[test]
    fn same_stream_free_on_a_nondefault_stream_parks_for_reuse() {
        let pool = with_streams(TestCore::default(), 2);
        let a = pool
            .alloc_on_stream(AllocRequest::new(2048), StreamId(1))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(1)).unwrap();
        assert_eq!(pool.stream_cache_stats(StreamId(1)).cached_blocks, 1);
        let b = pool
            .alloc_on_stream(AllocRequest::new(2048), StreamId(1))
            .unwrap();
        assert_eq!(b.va, a.va, "same-stream reuse hit the cache");
        assert_eq!(pool.cache_stats().hits, 1);
        pool.free_on_stream(b.id, StreamId(1)).unwrap();
    }

    #[test]
    fn flush_covers_every_stream_cache() {
        let pool = with_streams(TestCore::default(), 2);
        for s in [StreamId(0), StreamId(1)] {
            let a = pool.alloc_on_stream(AllocRequest::new(1000), s).unwrap();
            pool.free_on_stream(a.id, s).unwrap();
        }
        assert_eq!(pool.cache_stats().cached_bytes, 2048);
        assert_eq!(pool.stream_cache_stats(StreamId(1)).cached_bytes, 1024);
        assert_eq!(pool.stream_cache_stats(StreamId(0)).cached_bytes, 1024);
        assert_eq!(pool.flush(), 2048, "one flush drains both streams");
        assert_eq!(pool.cache_stats().cached_bytes, 0);
        let s = pool.stats();
        assert_eq!((s.alloc_count, s.free_count, s.active_bytes), (2, 2, 0));
    }

    #[test]
    fn oom_retry_flushes_every_streams_cache() {
        // Capacity fits exactly two 1 KiB class blocks; both end up parked,
        // one per stream. A 2 KiB-class allocation can only succeed if the
        // OOM retry flushes BOTH caches, not just the allocating stream's.
        let pool = with_streams(TestCore::bounded(2048), 2);
        for s in [StreamId(0), StreamId(1)] {
            let a = pool.alloc_on_stream(AllocRequest::new(1024), s).unwrap();
            pool.free_on_stream(a.id, s).unwrap();
        }
        assert_eq!(pool.cache_stats().cached_bytes, 2048);
        let big = pool
            .alloc_on_stream(AllocRequest::new(2048), StreamId(0))
            .unwrap();
        assert_eq!(big.size, 2048, "flush-across-streams rescued the request");
        assert_eq!(pool.cache_stats().cached_bytes, 0);
        pool.free_on_stream(big.id, StreamId(0)).unwrap();
    }

    #[test]
    fn streams_beyond_the_configured_banks_fold_but_stay_guarded() {
        // Placement folds stream 5 onto cache 1 (2 caches), but the reuse
        // guard compares exact StreamIds: stream 1 freeing stream 5's block
        // is cross-stream even though they share a cache.
        let pool = with_streams(TestCore::default(), 2);
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(5))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(1)).unwrap();
        let c = pool.cache_stats();
        assert_eq!(c.cross_stream_fallback, 1);
        assert_eq!(c.cached_blocks, 0);
    }

    #[test]
    fn folded_streams_never_reuse_each_others_parked_blocks() {
        // Stream 5 folds onto cache 1 (2 caches) and parks a block there via
        // a same-stream free. Stream 1 shares that cache's free lists, but an
        // allocation on stream 1 must NOT be handed stream 5's block — a
        // block only moves between streams through the core mutex.
        let pool = with_streams(TestCore::default(), 2);
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(5))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(5)).unwrap();
        assert_eq!(pool.cache_stats().cached_blocks, 1, "parked in cache 1");
        let b = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        assert_ne!(b.va, a.va, "stream 1 must not get stream 5's block");
        let c = pool.cache_stats();
        assert_eq!(c.hits, 0, "the mismatched block is a miss, not a hit");
        assert_eq!(c.cached_blocks, 1, "stream 5's block stays parked");
        // Stream 5 itself still reuses its own block.
        let a2 = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(5))
            .unwrap();
        assert_eq!(a2.va, a.va, "stream 5 got its own block back");
        assert_eq!(pool.cache_stats().hits, 1);
        pool.free_on_stream(b.id, StreamId(1)).unwrap();
        pool.free_on_stream(a2.id, StreamId(5)).unwrap();
        let s = pool.stats();
        assert_eq!((s.alloc_count, s.free_count, s.active_bytes), (3, 3, 0));
    }

    #[test]
    fn foreign_blocks_at_cap_are_evicted_not_wedged() {
        // Stream 5 folds onto cache 1 (2 caches) and fills the class list to
        // its cap, then goes idle. Stream 1 shares that cache: its frees
        // must evict the foreign blocks (to the core) rather than overflow
        // forever, so the warm path recovers instead of staying wedged.
        let pool = with_streams(TestCore::default(), 2);
        let cap = MAX_CACHED_PER_CLASS as u64;
        let foreign: Vec<_> = (0..cap)
            .map(|_| {
                pool.alloc_on_stream(AllocRequest::new(1024), StreamId(5))
                    .unwrap()
                    .id
            })
            .collect();
        for id in foreign {
            pool.free_on_stream(id, StreamId(5)).unwrap();
        }
        assert_eq!(
            pool.cache_stats().cached_blocks,
            cap,
            "cap filled by stream 5"
        );
        // Stream 1's free at cap evicts one of stream 5's blocks and parks
        // its own.
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(1)).unwrap();
        assert_eq!(pool.cache_stats().cached_blocks, cap, "still at cap");
        // The warm path works for stream 1 now: its own block is parked.
        let b = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        assert_eq!(b.va, a.va, "stream 1 reuses the block it parked");
        assert_eq!(pool.cache_stats().hits, 1);
        pool.free_on_stream(b.id, StreamId(1)).unwrap();
        let s = pool.stats();
        assert_eq!(
            (s.alloc_count, s.free_count, s.active_bytes),
            (cap + 2, cap + 2, 0)
        );
        // Full accounting survives a flush.
        pool.flush();
        assert_eq!(pool.with_core(|c| c.stats().live_allocations()), 0);
    }

    #[test]
    fn cross_stream_free_with_events_synchronizes_before_the_core() {
        let (pool, log) = logged_pool(true);
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        // An event recorded on the freeing stream and waited out, and only
        // then the block handed to the core, named as freed from there.
        assert_eq!(
            *log.lock(),
            [
                Call::Record(StreamId(0)),
                Call::Synchronize(EventId::new(1)),
                Call::CoreFree(StreamId(0)),
            ]
        );
        let c = pool.cache_stats();
        assert_eq!((c.cross_stream_fallback, c.cached_blocks), (1, 0));
        assert_eq!(pool.with_core(|core| core.stats().live_allocations()), 0);
        let s = pool.stats();
        assert_eq!((s.alloc_count, s.free_count, s.active_bytes), (1, 1, 0));
        // A same-stream free parks, and the flush returning the parked
        // block touches no event either.
        let b = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        pool.free_on_stream(b.id, StreamId(1)).unwrap();
        assert_eq!(pool.flush(), 1024);
        assert_eq!(&log.lock()[3..], &[Call::CoreFree(StreamId(1))]);
    }

    #[test]
    fn process_events_without_a_source_is_a_noop() {
        let pool = DeviceAllocator::new(TestCore::default());
        assert_eq!(pool.process_events(), 0);
    }

    #[test]
    fn cross_thread_alloc_free_keeps_exact_accounting() {
        let pool = DeviceAllocator::new(TestCore::default());
        let (tx, rx) = std::sync::mpsc::channel::<AllocationId>();
        std::thread::scope(|s| {
            let producer = pool.clone();
            s.spawn(move || {
                for _ in 0..100 {
                    tx.send(producer.allocate(AllocRequest::new(2048)).unwrap().id)
                        .unwrap();
                }
            });
            let consumer = pool.clone();
            s.spawn(move || {
                for id in rx {
                    consumer.deallocate(id).unwrap();
                }
            });
        });
        let s = pool.stats();
        assert_eq!(s.alloc_count, 100);
        assert_eq!(s.free_count, 100);
        assert_eq!(s.active_bytes, 0);
    }
}
