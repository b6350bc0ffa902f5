//! `ProbeCore`: a benchmark-owned [`AllocatorCore`] wrapper boxed between
//! the `DeviceAllocator` front-end and the real core. It is how the core
//! layer is observed from outside: every trait method is forwarded, and
//! around each call the probe can take an `Instant` pair (traced laps) and
//! read the simulated clock (oracle lap).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use gmlake_alloc_api::{
    AllocError, AllocRequest, Allocation, AllocationId, AllocatorCore, FaultJournalStats, MemStats,
    StreamId,
};
use gmlake_gpu_sim::CudaDriver;

use crate::spans::{Kind, Span};

/// What the probe has seen; shared with the lap that reads it.
#[derive(Debug, Default)]
pub struct ProbeLog {
    /// One span per core call, in call order (traced laps only).
    pub spans: Vec<Span>,
    /// Core calls seen while counting was on.
    pub calls: u64,
    /// Allocation calls among them.
    pub alloc_calls: u64,
    /// Simulated nanoseconds that passed inside those calls.
    pub sim_ns: u64,
    /// Take an `Instant` pair around every call and keep the span.
    pub timing: bool,
    /// Count calls and read the simulated clock at call edges.
    pub counting: bool,
}

pub type SharedLog = Arc<Mutex<ProbeLog>>;

/// The forwarding wrapper. Timing and counting are off until the lap turns
/// them on in the shared log.
pub struct ProbeCore {
    inner: Box<dyn AllocatorCore + Send>,
    edge: Edge,
}

/// What the probe needs at a call's edges, apart from the wrapped core.
struct Edge {
    driver: CudaDriver,
    epoch: Instant,
    log: SharedLog,
}

impl ProbeCore {
    pub fn new(
        inner: Box<dyn AllocatorCore + Send>,
        driver: CudaDriver,
        epoch: Instant,
    ) -> (Self, SharedLog) {
        let log = SharedLog::default();
        let edge = Edge {
            driver,
            epoch,
            log: Arc::clone(&log),
        };
        (ProbeCore { inner, edge }, log)
    }
}

impl Edge {
    fn lock(&self) -> std::sync::MutexGuard<'_, ProbeLog> {
        self.log
            .lock()
            .expect("the benchmark is single-threaded: nobody panicked holding the log")
    }

    /// Runs `call`, timed and counted as the log asks. `counted` is false
    /// for the read-only methods the benchmark itself polls between calls.
    fn observe<R>(&self, kind: Kind, counted: bool, call: impl FnOnce() -> R) -> R {
        let (timing, counting) = {
            let log = self.lock();
            (log.timing, log.counting && counted)
        };
        if !timing && !counting {
            return call();
        }
        let sim0 = if counting { self.driver.now_ns() } else { 0 };
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        let sim1 = if counting { self.driver.now_ns() } else { 0 };
        let mut log = self.lock();
        if timing {
            log.spans.push(Span {
                kind,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
        if counting {
            log.calls += 1;
            log.alloc_calls += u64::from(kind == Kind::Alloc);
            log.sim_ns += sim1 - sim0;
        }
        out
    }
}

impl AllocatorCore for ProbeCore {
    fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
        let ProbeCore { inner, edge } = self;
        edge.observe(Kind::Alloc, true, || inner.allocate(req))
    }

    fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
        let ProbeCore { inner, edge } = self;
        edge.observe(Kind::Free, true, || inner.deallocate(id))
    }

    fn alloc_on_stream(
        &mut self,
        req: AllocRequest,
        stream: StreamId,
    ) -> Result<Allocation, AllocError> {
        let ProbeCore { inner, edge } = self;
        edge.observe(Kind::Alloc, true, || inner.alloc_on_stream(req, stream))
    }

    fn free_on_stream(&mut self, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
        let ProbeCore { inner, edge } = self;
        edge.observe(Kind::Free, true, || inner.free_on_stream(id, stream))
    }

    fn stats(&self) -> MemStats {
        self.edge
            .observe(Kind::Maintenance, false, || self.inner.stats())
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fragmentation(&self) -> f64 {
        self.edge
            .observe(Kind::Maintenance, false, || self.inner.fragmentation())
    }

    fn iteration_boundary(&mut self) {
        let ProbeCore { inner, edge } = self;
        edge.observe(Kind::Boundary, true, || inner.iteration_boundary())
    }

    fn process_events(&mut self) -> u64 {
        let ProbeCore { inner, edge } = self;
        edge.observe(Kind::Maintenance, true, || inner.process_events())
    }

    fn release_cached(&mut self) -> u64 {
        let ProbeCore { inner, edge } = self;
        edge.observe(Kind::Maintenance, true, || inner.release_cached())
    }

    fn compact(&mut self) -> u64 {
        let ProbeCore { inner, edge } = self;
        edge.observe(Kind::Maintenance, true, || inner.compact())
    }

    fn set_stitch_enabled(&mut self, enabled: bool) {
        self.inner.set_stitch_enabled(enabled)
    }

    fn fault_journal_stats(&self) -> FaultJournalStats {
        self.inner.fault_journal_stats()
    }

    // Forwarded so `DeviceAllocator::with_core_as` still reaches the real
    // core's counters through the probe.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }
}
