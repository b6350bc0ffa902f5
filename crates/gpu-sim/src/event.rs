//! Simulated CUDA events and per-stream completion frontiers.
//!
//! Real CUDA streams are FIFO work queues that run asynchronously from the
//! host; `cuEventRecord` drops a marker into a stream and the event
//! completes once everything enqueued before it has executed. The simulator
//! models each stream with a single number — its **completion frontier**,
//! the simulated timestamp at which all work enqueued on it so far will
//! have finished — and an event records the frontier it was born under:
//!
//! * [`EventEngine::launch`] pushes a stream's frontier forward by the
//!   duration of an asynchronously launched kernel (`max(frontier, now) +
//!   duration`: a stream never runs ahead of the host's enqueue, and work
//!   on one stream is serial);
//! * [`EventEngine::record`] captures `max(frontier, now)` as the event's
//!   completion time;
//! * a query compares that completion time against the device clock — the
//!   host "catches up" to stream work by advancing the clock (driver-call
//!   costs, compute, explicit synchronization).
//!
//! A stream can also wait for another stream's event on the GPU
//! ([`EventEngine::wait`], `cuStreamWaitEvent`): its frontier rises to the
//! event's completion, and the host clock does not move.
//!
//! Completed events are garbage-collected on query, synchronize, stream wait
//! and device synchronization; an untracked event reports completion, and
//! synchronizing it returns at once, matching the [`EventSource`] contract
//! (`gmlake-alloc-api`) the driver implements on top of this engine.

pub use gmlake_alloc_api::{EventId, EventSource};
use gmlake_alloc_api::{IdMap, StreamId};

/// Per-stream completion frontiers plus the table of outstanding events.
/// Lives inside the driver's state, guarded by the driver lock.
#[derive(Debug, Default)]
pub(crate) struct EventEngine {
    /// Last minted event id (ids start at 1, never reused).
    next_id: u64,
    /// Outstanding events: id → simulated completion timestamp. Events
    /// whose completion time has passed are pruned on query/synchronize;
    /// events already complete at record time are never inserted.
    ready_at: IdMap<u64, u64>,
    /// Completion frontier per stream (absent = caught up with the host).
    frontiers: IdMap<u32, u64>,
}

impl EventEngine {
    /// The stream's completion frontier: the simulated time at which all
    /// work enqueued on it so far has finished (`now` if it is caught up).
    pub(crate) fn frontier(&self, stream: StreamId, now: u64) -> u64 {
        self.frontiers
            .get(&stream.as_u32())
            .copied()
            .unwrap_or(0)
            .max(now)
    }

    /// Enqueues `duration_ns` of asynchronous work on `stream` at host time
    /// `now`; returns the stream's new frontier.
    pub(crate) fn launch(&mut self, stream: StreamId, now: u64, duration_ns: u64) -> u64 {
        let end = self.frontier(stream, now) + duration_ns;
        self.frontiers.insert(stream.as_u32(), end);
        end
    }

    /// Records an event on `stream` at host time `now`; returns the event
    /// and its completion timestamp. Events completing at or before `now`
    /// are not tracked (they are already complete).
    pub(crate) fn record(&mut self, stream: StreamId, now: u64) -> (EventId, u64) {
        self.next_id += 1;
        let at = self.frontier(stream, now);
        if at > now {
            self.ready_at.insert(self.next_id, at);
        }
        (EventId::new(self.next_id), at)
    }

    /// The event's completion timestamp, or `None` if it is untracked
    /// (never recorded, already pruned, or complete at record time) — which
    /// callers must treat as complete.
    pub(crate) fn completion_of(&self, event: EventId) -> Option<u64> {
        self.ready_at.get(&event.as_u64()).copied()
    }

    /// Forgets `event` (after a query or synchronize observed completion).
    pub(crate) fn prune(&mut self, event: EventId) {
        self.ready_at.remove(&event.as_u64());
    }

    /// Makes `stream`'s later work wait for `event` at host time `now`: the
    /// stream's frontier rises to the event's completion. An event already
    /// complete (or untracked) constrains nothing and is forgotten.
    pub(crate) fn wait(&mut self, stream: StreamId, event: EventId, now: u64) {
        match self.completion_of(event) {
            Some(at) if at > now => {
                let end = self.frontier(stream, now).max(at);
                self.frontiers.insert(stream.as_u32(), end);
            }
            Some(_) => self.prune(event),
            None => {}
        }
    }

    /// Forgets every event complete at host time `now` — what a device
    /// synchronization leaves behind, since it completes them all.
    pub(crate) fn forget_completed(&mut self, now: u64) {
        self.ready_at.retain(|_, at| *at > now);
    }

    /// The latest frontier across every stream — where a full device
    /// synchronization lands the host clock.
    pub(crate) fn max_frontier(&self, now: u64) -> u64 {
        self.frontiers.values().copied().fold(now, u64::max)
    }

    /// Outstanding (tracked) events — telemetry for leak checks.
    pub(crate) fn outstanding(&self) -> usize {
        self.ready_at.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_starts_at_now_and_accumulates_serially() {
        let mut e = EventEngine::default();
        let s = StreamId(2);
        assert_eq!(e.frontier(s, 100), 100, "caught-up stream = host time");
        assert_eq!(e.launch(s, 100, 50), 150);
        // Second launch queues behind the first, not behind the host.
        assert_eq!(e.launch(s, 110, 40), 190);
        // A long-idle stream snaps back up to the host clock first.
        assert_eq!(e.launch(s, 1000, 10), 1010);
    }

    #[test]
    fn record_captures_the_frontier_and_skips_complete_events() {
        let mut e = EventEngine::default();
        let s = StreamId(0);
        // Nothing in flight: the event is complete at record time and is
        // not tracked.
        let (ev, at) = e.record(s, 42);
        assert_eq!(at, 42);
        assert_eq!(e.completion_of(ev), None, "untracked = complete");
        // In-flight work: tracked until pruned.
        e.launch(s, 42, 100);
        let (ev2, at2) = e.record(s, 42);
        assert_eq!(at2, 142);
        assert_eq!(e.completion_of(ev2), Some(142));
        assert_eq!(e.outstanding(), 1);
        e.prune(ev2);
        assert_eq!(e.outstanding(), 0);
        assert!(ev < ev2, "ids mint in record order");
    }

    #[test]
    fn wait_raises_the_waiting_frontier_and_forget_completed_drains() {
        let mut e = EventEngine::default();
        e.launch(StreamId(0), 0, 100);
        let (ev, _) = e.record(StreamId(0), 0);
        e.wait(StreamId(1), ev, 10);
        assert_eq!(
            e.frontier(StreamId(1), 10),
            100,
            "stream 1 queues behind ev"
        );
        assert_eq!(e.outstanding(), 1, "a pending event stays tracked");
        e.forget_completed(99);
        assert_eq!(e.outstanding(), 1, "not complete before its frontier");
        e.forget_completed(100);
        assert_eq!(e.outstanding(), 0);
    }

    #[test]
    fn streams_are_independent_and_max_frontier_covers_all() {
        let mut e = EventEngine::default();
        e.launch(StreamId(0), 0, 100);
        e.launch(StreamId(1), 0, 300);
        assert_eq!(e.frontier(StreamId(0), 0), 100);
        assert_eq!(e.frontier(StreamId(1), 0), 300);
        assert_eq!(e.frontier(StreamId(7), 0), 0, "untouched stream");
        assert_eq!(e.max_frontier(0), 300);
        assert_eq!(e.max_frontier(500), 500, "host already past every stream");
    }
}
