//! Memory trace representation: the (de)allocation request stream a training
//! run issues to the allocator, plus the statistics the paper reports about
//! such streams (Figure 5).

use gmlake_alloc_api::{AllocTag, StreamId, SMALL_THRESHOLD};

/// One event in a memory trace. `key` identifies a logical tensor within the
/// trace (the replayer maps it to whatever `AllocationId` the allocator
/// hands back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Allocate `size` bytes for tensor `key`.
    Alloc {
        /// Logical tensor id, unique among live tensors.
        key: u64,
        /// Tensor size in bytes.
        size: u64,
        /// Telemetry tag.
        tag: AllocTag,
        /// Logical GPU stream the allocation is issued on (communication /
        /// offload traffic overlaps compute on side streams; everything
        /// else runs on [`StreamId::DEFAULT`]).
        stream: StreamId,
    },
    /// Free tensor `key`.
    Free {
        /// Logical tensor id.
        key: u64,
        /// Stream the free is issued from — the tensor's *consumer*. The
        /// generator frees most tensors on their allocating stream, but
        /// communication buffers are consumed by compute and freed from
        /// the default stream: a **cross-stream free** (different stream
        /// than the tensor's `Alloc`), which exercises the allocator's
        /// event-guarded reuse rule.
        stream: StreamId,
    },
    /// Computation (kernel execution / communication / PCIe transfer) taking
    /// `ns` simulated nanoseconds.
    Compute {
        /// Duration in nanoseconds.
        ns: u64,
    },
    /// A training iteration starts.
    IterBegin {
        /// Iteration index, from 0.
        index: u32,
    },
    /// A training iteration ended (the replayer forwards this to
    /// `AllocatorCore::iteration_boundary`).
    IterEnd {
        /// Iteration index, from 0.
        index: u32,
    },
}

/// A complete request stream plus its provenance label.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Human-readable description (model/strategies/platform).
    pub label: String,
    /// The event stream.
    pub events: Vec<TraceEvent>,
}

/// Peak live bytes per allocation tag — a memory breakdown by tensor
/// category (weights / activations / gradients / optimizer / staging …).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TagBreakdown {
    peaks: std::collections::HashMap<AllocTag, u64>,
}

impl TagBreakdown {
    /// Peak live bytes recorded for `tag`.
    pub fn peak(&self, tag: AllocTag) -> u64 {
        self.peaks.get(&tag).copied().unwrap_or(0)
    }

    /// All `(tag, peak)` pairs with nonzero peaks, largest first.
    pub fn sorted(&self) -> Vec<(AllocTag, u64)> {
        let mut v: Vec<_> = self
            .peaks
            .iter()
            .filter(|(_, &b)| b > 0)
            .map(|(&t, &b)| (t, b))
            .collect();
        v.sort_by_key(|&(_, b)| std::cmp::Reverse(b));
        v
    }
}

/// Aggregate statistics of a trace — the quantities behind the paper's
/// Figure 5 ("46 thousand allocations with a size of 93 MB on average").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TraceStats {
    /// Number of `Alloc` events.
    pub allocs: u64,
    /// Number of `Free` events.
    pub frees: u64,
    /// Total allocated bytes (sum of all `Alloc` sizes).
    pub alloc_bytes: u64,
    /// Mean allocation size in bytes.
    pub mean_alloc: u64,
    /// Peak concurrently-live bytes (ideal packing lower bound — the least
    /// memory *any* allocator could use).
    pub peak_live_bytes: u64,
    /// Allocations smaller than 2 MiB (served by the small pool).
    pub small_allocs: u64,
    /// Number of iterations contained in the trace.
    pub iterations: u32,
    /// Total `Compute` nanoseconds.
    pub compute_ns: u64,
    /// Number of distinct streams allocations are issued on (1 for a
    /// single-stream trace).
    pub streams: u32,
}

impl Trace {
    /// Creates an empty trace with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Trace {
            label: label.into(),
            events: Vec::new(),
        }
    }

    /// Computes peak live bytes per allocation tag (memory breakdown by
    /// tensor category).
    pub fn tag_breakdown(&self) -> TagBreakdown {
        let mut live: std::collections::HashMap<u64, (AllocTag, u64)> =
            std::collections::HashMap::new();
        let mut live_by_tag: std::collections::HashMap<AllocTag, u64> =
            std::collections::HashMap::new();
        let mut out = TagBreakdown::default();
        for ev in &self.events {
            match *ev {
                TraceEvent::Alloc { key, size, tag, .. } => {
                    live.insert(key, (tag, size));
                    let cur = live_by_tag.entry(tag).or_insert(0);
                    *cur += size;
                    let peak = out.peaks.entry(tag).or_insert(0);
                    if *cur > *peak {
                        *peak = *cur;
                    }
                }
                TraceEvent::Free { key, .. } => {
                    if let Some((tag, size)) = live.remove(&key) {
                        *live_by_tag.entry(tag).or_insert(0) -= size;
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Computes aggregate statistics in one pass.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        let mut live: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut streams: std::collections::HashSet<StreamId> = std::collections::HashSet::new();
        let mut live_bytes = 0u64;
        for ev in &self.events {
            match *ev {
                TraceEvent::Alloc {
                    key, size, stream, ..
                } => {
                    streams.insert(stream);
                    s.allocs += 1;
                    s.alloc_bytes += size;
                    if size < SMALL_THRESHOLD {
                        s.small_allocs += 1;
                    }
                    live.insert(key, size);
                    live_bytes += size;
                    if live_bytes > s.peak_live_bytes {
                        s.peak_live_bytes = live_bytes;
                    }
                }
                TraceEvent::Free { key, .. } => {
                    s.frees += 1;
                    if let Some(size) = live.remove(&key) {
                        live_bytes -= size;
                    }
                }
                TraceEvent::Compute { ns } => s.compute_ns += ns,
                TraceEvent::IterEnd { .. } => s.iterations += 1,
                TraceEvent::IterBegin { .. } => {}
            }
        }
        s.mean_alloc = s.alloc_bytes.checked_div(s.allocs).unwrap_or(0);
        s.streams = streams.len() as u32;
        s
    }

    /// Checks well-formedness: every `Free` names a live tensor, no key is
    /// allocated twice while live, and iteration markers nest properly.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed event.
    pub fn validate(&self) -> Result<(), String> {
        let mut live: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut in_iter = false;
        for (i, ev) in self.events.iter().enumerate() {
            match *ev {
                TraceEvent::Alloc { key, size, .. } => {
                    if size == 0 {
                        return Err(format!("event {i}: zero-size alloc for key {key}"));
                    }
                    if !live.insert(key) {
                        return Err(format!("event {i}: key {key} allocated while live"));
                    }
                }
                TraceEvent::Free { key, .. } => {
                    if !live.remove(&key) {
                        return Err(format!("event {i}: free of unknown key {key}"));
                    }
                }
                TraceEvent::IterBegin { .. } => {
                    if in_iter {
                        return Err(format!("event {i}: nested IterBegin"));
                    }
                    in_iter = true;
                }
                TraceEvent::IterEnd { .. } => {
                    if !in_iter {
                        return Err(format!("event {i}: IterEnd without IterBegin"));
                    }
                    in_iter = false;
                }
                TraceEvent::Compute { .. } => {}
            }
        }
        if in_iter {
            return Err("trace ends inside an iteration".to_owned());
        }
        if !live.is_empty() {
            return Err(format!("{} tensors leaked at end of trace", live.len()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlake_alloc_api::mib;

    fn ev_alloc(key: u64, size: u64) -> TraceEvent {
        TraceEvent::Alloc {
            key,
            size,
            tag: AllocTag::Unspecified,
            stream: StreamId::DEFAULT,
        }
    }

    #[test]
    fn stats_track_peak_live() {
        let mut t = Trace::new("test");
        t.events = vec![
            TraceEvent::IterBegin { index: 0 },
            ev_alloc(1, mib(10)),
            ev_alloc(2, mib(20)),
            TraceEvent::Free {
                key: 1,
                stream: StreamId::DEFAULT,
            },
            ev_alloc(3, mib(5)),
            TraceEvent::Compute { ns: 42 },
            TraceEvent::Free {
                key: 2,
                stream: StreamId::DEFAULT,
            },
            TraceEvent::Free {
                key: 3,
                stream: StreamId::DEFAULT,
            },
            TraceEvent::IterEnd { index: 0 },
        ];
        t.validate().unwrap();
        let s = t.stats();
        assert_eq!(s.allocs, 3);
        assert_eq!(s.frees, 3);
        assert_eq!(s.peak_live_bytes, mib(30));
        assert_eq!(s.mean_alloc, mib(35) / 3);
        assert_eq!(s.iterations, 1);
        assert_eq!(s.compute_ns, 42);
        assert_eq!(s.small_allocs, 0);
        assert_eq!(s.streams, 1, "all allocations on the default stream");
    }

    #[test]
    fn stats_count_distinct_streams() {
        let mut t = Trace::new("streams");
        t.events = vec![
            ev_alloc(1, 100),
            TraceEvent::Alloc {
                key: 2,
                size: 100,
                tag: AllocTag::Communication,
                stream: StreamId(1),
            },
            TraceEvent::Free {
                key: 2,
                stream: StreamId(1),
            },
            TraceEvent::Free {
                key: 1,
                stream: StreamId::DEFAULT,
            },
        ];
        t.validate().unwrap();
        assert_eq!(t.stats().streams, 2);
    }

    #[test]
    fn validate_rejects_double_alloc() {
        let mut t = Trace::new("bad");
        t.events = vec![ev_alloc(1, 10), ev_alloc(1, 10)];
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_unknown_free() {
        let mut t = Trace::new("bad");
        t.events = vec![TraceEvent::Free {
            key: 9,
            stream: StreamId::DEFAULT,
        }];
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_leaks() {
        let mut t = Trace::new("bad");
        t.events = vec![ev_alloc(1, 10)];
        assert!(t.validate().unwrap_err().contains("leaked"));
    }

    #[test]
    fn validate_rejects_nested_iterations() {
        let mut t = Trace::new("bad");
        t.events = vec![
            TraceEvent::IterBegin { index: 0 },
            TraceEvent::IterBegin { index: 1 },
        ];
        assert!(t.validate().is_err());
    }

    #[test]
    fn tag_breakdown_tracks_per_category_peaks() {
        let mut t = Trace::new("tags");
        t.events = vec![
            TraceEvent::Alloc {
                key: 1,
                size: 100,
                tag: AllocTag::Weight,
                stream: StreamId::DEFAULT,
            },
            TraceEvent::Alloc {
                key: 2,
                size: 50,
                tag: AllocTag::Activation,
                stream: StreamId::DEFAULT,
            },
            TraceEvent::Alloc {
                key: 3,
                size: 70,
                tag: AllocTag::Activation,
                stream: StreamId::DEFAULT,
            },
            TraceEvent::Free {
                key: 2,
                stream: StreamId::DEFAULT,
            },
            TraceEvent::Alloc {
                key: 4,
                size: 40,
                tag: AllocTag::Activation,
                stream: StreamId::DEFAULT,
            },
            TraceEvent::Free {
                key: 3,
                stream: StreamId::DEFAULT,
            },
            TraceEvent::Free {
                key: 4,
                stream: StreamId::DEFAULT,
            },
            TraceEvent::Free {
                key: 1,
                stream: StreamId::DEFAULT,
            },
        ];
        t.validate().unwrap();
        let b = t.tag_breakdown();
        assert_eq!(b.peak(AllocTag::Weight), 100);
        assert_eq!(b.peak(AllocTag::Activation), 120); // 50 + 70
        assert_eq!(b.peak(AllocTag::Gradient), 0);
        let sorted = b.sorted();
        assert_eq!(sorted[0], (AllocTag::Activation, 120));
        assert_eq!(sorted[1], (AllocTag::Weight, 100));
    }

    #[test]
    fn small_allocs_counted() {
        let mut t = Trace::new("small");
        t.events = vec![
            ev_alloc(1, 4096),
            ev_alloc(2, mib(4)),
            TraceEvent::Free {
                key: 1,
                stream: StreamId::DEFAULT,
            },
            TraceEvent::Free {
                key: 2,
                stream: StreamId::DEFAULT,
            },
        ];
        assert_eq!(t.stats().small_allocs, 1);
    }
}
