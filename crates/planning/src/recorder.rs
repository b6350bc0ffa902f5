//! Recording mode: captures one iteration's allocation sequence as
//! lifetime intervals for the offline planner.
//!
//! The recorder assigns a monotonically increasing *tick* to every alloc
//! and free it observes. An allocation whose alloc **and** free both fall
//! inside the recorded window becomes a [`LifetimeInterval`] — a
//! *transient* the planner can place statically. Allocations still live
//! when the window closes (model weights, optimizer state, anything that
//! crosses an iteration boundary) are left out of the plan and stay with
//! the reactive fallback for their whole lifetime.

use gmlake_alloc_api::{AllocationId, IdMap, StreamId};

/// One planned lifetime: the allocation was requested at `alloc_tick` and
/// released at `free_tick` (half-open: live during `[alloc_tick,
/// free_tick)`), for `size` bytes on logical stream `stream`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifetimeInterval {
    /// Tick of the alloc event (position in the recorded sequence).
    pub alloc_tick: u64,
    /// Tick of the free event; strictly greater than `alloc_tick`.
    pub free_tick: u64,
    /// Requested size in bytes (unrounded — plan slots serve exact sizes).
    pub size: u64,
    /// Raw id of the logical stream the alloc was issued on.
    pub stream: u32,
}

impl LifetimeInterval {
    /// True when `self` and `other` are live at the same time.
    pub fn overlaps_time(&self, other: &LifetimeInterval) -> bool {
        self.alloc_tick < other.free_tick && other.alloc_tick < self.free_tick
    }
}

#[derive(Debug, Clone, Copy)]
struct Record {
    alloc_tick: u64,
    free_tick: Option<u64>,
    size: u64,
    stream: u32,
}

/// Captures alloc/free events between two iteration boundaries.
#[derive(Debug, Default)]
pub struct IterationRecorder {
    tick: u64,
    records: Vec<Record>,
    /// Record index of each allocation still open in the window. Touched
    /// on every call and never iterated, so ids take the cheap [`IdMap`]
    /// hasher.
    open: IdMap<AllocationId, usize>,
}

impl IterationRecorder {
    /// Records an allocation issued under `id`.
    pub fn on_alloc(&mut self, id: AllocationId, size: u64, stream: StreamId) {
        let tick = self.tick;
        self.tick += 1;
        self.open.insert(id, self.records.len());
        self.records.push(Record {
            alloc_tick: tick,
            free_tick: None,
            size,
            stream: stream.0,
        });
    }

    /// Records the free of `id`. Frees of allocations made before the
    /// current window opened are ignored (they are not plannable).
    pub fn on_free(&mut self, id: AllocationId) {
        let tick = self.tick;
        self.tick += 1;
        if let Some(idx) = self.open.remove(&id) {
            self.records[idx].free_tick = Some(tick);
        }
    }

    /// Closes the window: returns every *transient* interval (alloc and
    /// free both inside the window) and resets the recorder for the next
    /// window. Open records are discarded — their owners stay on the
    /// fallback path.
    pub fn finish_window(&mut self) -> Vec<LifetimeInterval> {
        let intervals = self
            .records
            .iter()
            .filter_map(|r| {
                r.free_tick.map(|ft| LifetimeInterval {
                    alloc_tick: r.alloc_tick,
                    free_tick: ft,
                    size: r.size,
                    stream: r.stream,
                })
            })
            .collect();
        self.tick = 0;
        self.records.clear();
        self.open.clear();
        intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transients_are_captured_and_open_records_dropped() {
        let mut r = IterationRecorder::default();
        let a = AllocationId::new(1);
        let b = AllocationId::new(2);
        r.on_alloc(a, 100, StreamId::new(0));
        r.on_alloc(b, 200, StreamId::new(1));
        r.on_free(a);
        let out = r.finish_window();
        assert_eq!(
            out,
            vec![LifetimeInterval {
                alloc_tick: 0,
                free_tick: 2,
                size: 100,
                stream: 0
            }]
        );
        // The window reset: a stale free is ignored, ticks restart at 0.
        r.on_free(b);
        r.on_alloc(a, 300, StreamId::new(2));
        r.on_free(a);
        let out = r.finish_window();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].alloc_tick, 1);
        assert_eq!(out[0].free_tick, 2);
    }
}
