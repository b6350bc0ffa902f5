//! Bounded structured event recorder.
//!
//! Records land in one bounded ring behind one `parking_lot` mutex, so a
//! record is one short lock plus a `VecDeque` push. A full ring overwrites
//! its oldest record and bumps a drop counter — recording never blocks on
//! a reader or allocates (ring capacity is reserved up front).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use parking_lot::Mutex;

use crate::event::Event;

/// Default ring capacity.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Bounded ring buffer of [`Event`]s.
#[derive(Debug)]
pub struct Recorder {
    ring: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(DEFAULT_CAPACITY)
    }
}

impl Recorder {
    /// A recorder keeping at most `capacity` records (clamped to at
    /// least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Recorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Append one record, evicting the oldest if the ring is full.
    pub fn record(&self, event: Event) {
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Relaxed);
        }
        ring.push_back(event);
    }

    /// Move every buffered record out, sorted by timestamp (stable, so
    /// same-timestamp records keep their recording order).
    pub fn drain(&self) -> Vec<Event> {
        let mut all: Vec<Event> = self.ring.lock().drain(..).collect();
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(ts: u64) -> Event {
        Event {
            ts_ns: ts,
            kind: EventKind::Alloc,
            bytes: 1,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn drain_merges_and_sorts() {
        let r = Recorder::new(16);
        for ts in [5, 1, 9, 3] {
            r.record(ev(ts));
        }
        assert_eq!(r.len(), 4);
        let ts: Vec<u64> = r.drain().iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![1, 3, 5, 9]);
        assert!(r.is_empty());
    }

    #[test]
    fn full_ring_drops_oldest_and_counts() {
        let r = Recorder::new(2);
        for ts in 0..5 {
            r.record(ev(ts));
        }
        assert_eq!(r.dropped(), 3);
        let ts: Vec<u64> = r.drain().iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![3, 4], "oldest evicted first");
    }

    fn record_from_eight_threads(r: &Recorder) {
        std::thread::scope(|s| {
            for t in 0..8u64 {
                s.spawn(move || {
                    for i in 0..500 {
                        r.record(ev(t * 1000 + i));
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_records_all_land() {
        let r = Recorder::new(10_000);
        record_from_eight_threads(&r);
        assert_eq!(r.len(), 8 * 500);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn concurrent_records_share_one_bound() {
        // The capacity bounds the whole recorder, not each thread: 4 000
        // records from 8 threads into a ring of 1 000 keep 1 000.
        let r = Recorder::new(1000);
        record_from_eight_threads(&r);
        assert_eq!(r.len(), 1000);
        assert_eq!(r.dropped(), 3000);
        let ts: Vec<u64> = r.drain().iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts.len(), 1000);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "drained sorted");
    }
}
