//! Per-pool telemetry hub.
//!
//! One [`PoolTelemetry`] instance rides alongside each allocator pool
//! (the `DeviceAllocator` front-end, its wrapped core, and the driver all
//! share it via `Arc`). It owns the event [`Recorder`], the latency
//! [`Histogram`]s, and the memory-timeline sample buffer, and gates
//! everything behind one runtime-togglable flag:
//!
//! * **detached** (`Option::None` at the call site) — zero cost;
//! * **disabled** (the default) — one relaxed atomic load per hook;
//! * **enabled** — fast-path hooks additionally consult a per-thread
//!   sampling counter ([`PoolTelemetry::hot_sample`]) so only 1 in
//!   `2^k` operations pays for timestamps and ring pushes.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::event::{Event, EventKind};
use crate::histogram::Histogram;
use crate::recorder::Recorder;
use crate::snapshot::{MemorySample, PoolSnapshot};

/// A monotonic nanosecond source for event timestamps. In this workspace
/// the simulated driver (`CudaDriver`) implements it with the sim clock;
/// without a clock attached, [`PoolTelemetry`] falls back to a sequence
/// counter (still totally ordered, just not in time units).
pub trait TelemetryClock: Send + Sync {
    /// Current time in nanoseconds.
    fn now_ns(&self) -> u64;
}

/// Default sampling mask for fast-path hooks: record 1 in 32. Chosen so
/// the enabled sink stays within a 25% overhead budget on a ~35 ns warm
/// alloc/free path (the whole-system benchmark's
/// `telemetry.sink_overhead_ratio` row reports the measured ratio): a sampled call pays for two `Instant`
/// reads and a ring push, so admitting one in 32 keeps the amortized
/// cost in single-digit nanoseconds while still feeding the histograms
/// thousands of points per second.
pub const DEFAULT_SAMPLE_MASK: u64 = 31;

thread_local! {
    static SAMPLE_TICK: Cell<u64> = const { Cell::new(0) };
}

/// Shared telemetry state for one pool. See the module docs for the
/// overhead model.
pub struct PoolTelemetry {
    enabled: AtomicBool,
    sample_mask: u64,
    recorder: Recorder,
    alloc_ns: Histogram,
    free_ns: Histogram,
    bestfit_ns: Histogram,
    driver_ns: Histogram,
    samples: Mutex<Vec<MemorySample>>,
    clock: RwLock<Option<Arc<dyn TelemetryClock>>>,
    /// Mirrors `clock.is_some()` for lock-free fast-path checks.
    has_clock: AtomicBool,
    /// Last clock reading published by [`PoolTelemetry::note_now`]: the
    /// hot paths stamp events from this relaxed load instead of taking
    /// the clock owner's lock. The sim clock only advances inside driver
    /// calls — which publish here — so between driver calls the cached
    /// value IS the exact current time.
    hot_clock: AtomicU64,
    seq: AtomicU64,
}

impl std::fmt::Debug for PoolTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolTelemetry")
            .field("enabled", &self.is_enabled())
            .field("sample_mask", &self.sample_mask)
            .field("buffered_events", &self.recorder.len())
            .finish_non_exhaustive()
    }
}

impl Default for PoolTelemetry {
    fn default() -> Self {
        PoolTelemetry::new()
    }
}

impl PoolTelemetry {
    fn with_mask(sample_mask: u64) -> Self {
        PoolTelemetry {
            enabled: AtomicBool::new(false),
            sample_mask,
            recorder: Recorder::default(),
            alloc_ns: Histogram::new(),
            free_ns: Histogram::new(),
            bestfit_ns: Histogram::new(),
            driver_ns: Histogram::new(),
            samples: Mutex::new(Vec::new()),
            clock: RwLock::new(None),
            has_clock: AtomicBool::new(false),
            hot_clock: AtomicU64::new(0),
            seq: AtomicU64::new(0),
        }
    }

    /// Disabled telemetry with the default 1-in-32 fast-path sampling.
    pub fn new() -> Self {
        PoolTelemetry::with_mask(DEFAULT_SAMPLE_MASK)
    }

    /// Disabled telemetry that records *every* fast-path operation when
    /// enabled (no sampling). Higher overhead; use for profiling runs
    /// where completeness beats throughput.
    pub fn full() -> Self {
        PoolTelemetry::with_mask(0)
    }

    /// Attach a timestamp source (builder form).
    pub fn with_clock(self, clock: Arc<dyn TelemetryClock>) -> Self {
        self.set_clock(clock);
        self
    }

    /// Attach or replace the timestamp source after construction.
    pub fn set_clock(&self, clock: Arc<dyn TelemetryClock>) {
        self.hot_clock.store(clock.now_ns(), Relaxed);
        *self.clock.write() = Some(clock);
        self.has_clock.store(true, Relaxed);
    }

    /// Publish the clock owner's current time for lock-free hot-path
    /// stamping (see the `hot_clock` field). The driver calls this from
    /// every costed entry, where it already holds its own lock and the
    /// reading is free.
    #[inline]
    pub fn note_now(&self, now_ns: u64) {
        self.hot_clock.store(now_ns, Relaxed);
    }

    /// Start recording.
    pub fn enable(&self) {
        self.enabled.store(true, Relaxed);
    }

    /// Stop recording. Buffered data is kept until drained.
    pub fn disable(&self) {
        self.enabled.store(false, Relaxed);
    }

    /// Whether hooks currently record. One relaxed load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Fast-path gate: false when disabled, and when enabled admits one
    /// call in `sample_mask + 1` per thread. Callers skip *all*
    /// telemetry work (timestamps included) on a false return.
    #[inline]
    pub fn hot_sample(&self) -> bool {
        if !self.is_enabled() {
            return false;
        }
        if self.sample_mask == 0 {
            return true;
        }
        SAMPLE_TICK.with(|c| {
            let t = c.get().wrapping_add(1);
            c.set(t);
            t & self.sample_mask == 0
        })
    }

    /// Current timestamp, read exactly: the attached clock (under its
    /// lock), or a per-pool sequence counter when none is set. Slow-path
    /// use only; hot paths go through the lock-free
    /// [`hot_now_ns`](PoolTelemetry::hot_now_ns).
    pub fn now_ns(&self) -> u64 {
        if let Some(clock) = self.clock.read().as_ref() {
            clock.now_ns()
        } else {
            self.seq.fetch_add(1, Relaxed)
        }
    }

    /// Lock-free timestamp for hot-path events: the cached clock reading
    /// published by [`note_now`](PoolTelemetry::note_now) (exact whenever
    /// no driver call is in flight, since only driver calls advance the
    /// sim clock), or the sequence counter when no clock is attached.
    #[inline]
    pub fn hot_now_ns(&self) -> u64 {
        if self.has_clock.load(Relaxed) {
            self.hot_clock.load(Relaxed)
        } else {
            self.seq.fetch_add(1, Relaxed)
        }
    }

    /// Record an event stamped with
    /// [`hot_now_ns`](PoolTelemetry::hot_now_ns). No-op while disabled.
    pub fn record(&self, kind: EventKind, bytes: u64, a: u64, b: u64) {
        if self.is_enabled() {
            self.record_at(self.hot_now_ns(), kind, bytes, a, b);
        }
    }

    /// Record an event with a caller-supplied timestamp (layers that own
    /// a clock, like `gmlake-core`, stamp events themselves). No-op
    /// while disabled.
    pub fn record_at(&self, ts_ns: u64, kind: EventKind, bytes: u64, a: u64, b: u64) {
        if self.is_enabled() {
            self.recorder.record(Event {
                ts_ns,
                kind,
                bytes,
                a,
                b,
            });
        }
    }

    /// Latency of `DeviceAllocator` allocation calls.
    pub fn alloc_ns(&self) -> &Histogram {
        &self.alloc_ns
    }

    /// Latency of `DeviceAllocator` free calls.
    pub fn free_ns(&self) -> &Histogram {
        &self.free_ns
    }

    /// Latency of core BestFit + stitch decisions.
    pub fn bestfit_ns(&self) -> &Histogram {
        &self.bestfit_ns
    }

    /// Simulated cost of driver calls (from the driver's cost model).
    pub fn driver_ns(&self) -> &Histogram {
        &self.driver_ns
    }

    /// Append a memory-timeline sample stamped with
    /// [`now_ns`](PoolTelemetry::now_ns). No-op while disabled.
    pub fn record_sample(&self, reserved: u64, active: u64, fragmentation: f64) {
        if self.is_enabled() {
            let ts_ns = self.now_ns();
            self.samples.lock().push(MemorySample {
                ts_ns,
                reserved_bytes: reserved,
                active_bytes: active,
                fragmentation,
            });
        }
    }

    /// Buffered trace records (cheap; takes each ring lock briefly).
    pub fn buffered_events(&self) -> usize {
        self.recorder.len()
    }

    /// Drain everything into a serializable [`PoolSnapshot`]. The caller
    /// supplies the pool label and the final reserved/active gauges (from
    /// `MemStats`), which the snapshot schema requires to reconcile with
    /// the timeline's last sample. Trace records are drained (removed);
    /// samples and histogram counts are left in place.
    pub fn snapshot(&self, pool: &str, final_reserved: u64, final_active: u64) -> PoolSnapshot {
        PoolSnapshot {
            pool: pool.to_string(),
            final_reserved,
            final_active,
            dropped_events: self.recorder.dropped(),
            // Fault accounting lives in the runtime/allocator, not the
            // sink; the profiler attaches it after draining (see
            // `MemoryProfiler::dump`).
            fault: None,
            samples: self.samples.lock().clone(),
            events: self.recorder.drain(),
            histograms: vec![
                ("alloc_ns".to_string(), self.alloc_ns.summary()),
                ("free_ns".to_string(), self.free_ns.summary()),
                ("bestfit_ns".to_string(), self.bestfit_ns.summary()),
                ("driver_ns".to_string(), self.driver_ns.summary()),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = PoolTelemetry::full();
        t.record(EventKind::Alloc, 1, 0, 0);
        t.record_at(5, EventKind::Free, 1, 0, 0);
        t.record_sample(1, 1, 0.0);
        assert!(!t.hot_sample());
        let snap = t.snapshot("p", 0, 0);
        assert!(snap.samples.is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn full_mode_samples_every_call() {
        let t = PoolTelemetry::full();
        t.enable();
        assert!((0..100).all(|_| t.hot_sample()));
    }

    #[test]
    fn masked_mode_samples_one_in_mask_plus_one() {
        let t = PoolTelemetry::new();
        t.enable();
        // A multiple of the sampling period, so the thread-local tick's
        // starting phase cannot shift the expected count.
        let hits = (0..3200).filter(|_| t.hot_sample()).count();
        assert_eq!(hits, 100);
    }

    #[test]
    fn sequence_timestamps_are_ordered_without_a_clock() {
        let t = PoolTelemetry::full();
        t.enable();
        t.record(EventKind::Alloc, 1, 0, 0);
        t.record(EventKind::Free, 1, 0, 0);
        let events = t.snapshot("p", 0, 0).events;
        assert_eq!(events.len(), 2);
        assert!(events[0].ts_ns < events[1].ts_ns);
    }

    #[test]
    fn clock_timestamps_flow_through() {
        struct Fixed;
        impl TelemetryClock for Fixed {
            fn now_ns(&self) -> u64 {
                42
            }
        }
        let t = PoolTelemetry::full().with_clock(Arc::new(Fixed));
        t.enable();
        t.record(EventKind::Alloc, 1, 0, 0);
        t.record_sample(10, 5, 0.5);
        let snap = t.snapshot("p", 10, 5);
        assert_eq!(snap.events[0].ts_ns, 42);
        assert_eq!(snap.samples[0].ts_ns, 42);
    }

    #[test]
    fn snapshot_drains_events_but_keeps_histograms() {
        let t = PoolTelemetry::full();
        t.enable();
        t.record(EventKind::Alloc, 1, 0, 0);
        t.alloc_ns().record(100);
        let first = t.snapshot("p", 0, 0);
        assert_eq!(first.events.len(), 1);
        let second = t.snapshot("p", 0, 0);
        assert!(second.events.is_empty(), "drain removes events");
        assert_eq!(second.histograms[0].1.count, 1, "histograms persist");
    }
}
