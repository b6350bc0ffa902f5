//! The offline planner and its output, [`MemoryPlan`].
//!
//! Placement is classic first-fit-decreasing over a linear address space:
//! intervals are sorted by size (descending, ties broken by alloc tick so
//! the plan is deterministic), and each is placed at the lowest offset
//! where it fits next to every already-placed interval it overlaps *in
//! time*. Two intervals may share address space if and only if their
//! lifetimes are disjoint — that is the whole trick: the planned capacity
//! tracks the measured peak of the transient working set, not its sum.
//!
//! Those time neighbours come from one sweep over the sorted interval
//! endpoints, so an interval is checked only against the earlier-placed
//! intervals it overlaps, never against every placed slot: the build costs
//! `O(n log n + P log d)` rather than `O(n²)` (see [`MemoryPlan::build`]).

use crate::recorder::LifetimeInterval;

/// One placed lifetime: `size` bytes at `offset` from the arena base,
/// live during `[alloc_tick, free_tick)` on `stream`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSlot {
    /// Byte offset from the arena base.
    pub offset: u64,
    /// Slot size in bytes (exact requested size — no rounding).
    pub size: u64,
    /// Raw id of the stream the recorded alloc was issued on.
    pub stream: u32,
    /// Recorded alloc tick (defines serving order within a size class).
    pub alloc_tick: u64,
    /// Recorded free tick.
    pub free_tick: u64,
}

impl PlanSlot {
    fn interval(&self) -> LifetimeInterval {
        LifetimeInterval {
            alloc_tick: self.alloc_tick,
            free_tick: self.free_tick,
            size: self.size,
            stream: self.stream,
        }
    }

    /// True when the two slots' address ranges intersect.
    pub fn overlaps_space(&self, other: &PlanSlot) -> bool {
        self.offset < other.offset + other.size && other.offset < self.offset + self.size
    }
}

/// A static placement for one steady-state iteration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryPlan {
    /// Linear address space the slots are packed into, in bytes (the
    /// measured peak of the planned transients, not their sum).
    pub capacity: u64,
    /// Placed slots, in recorded alloc-tick order.
    pub slots: Vec<PlanSlot>,
}

impl MemoryPlan {
    /// Computes a plan for `intervals` by first-fit-decreasing.
    ///
    /// Deterministic: the same intervals always produce the same plan
    /// (ties in size break by alloc tick, then by input order). The
    /// returned slot list is sorted back into alloc-tick order, which is
    /// the order the serving queues hand slots out in. Every interval
    /// needs `free_tick > alloc_tick`, as the recorder guarantees.
    ///
    /// Cost: `O(n log n + P log d)` for `n` intervals, `P` pairs of them
    /// that overlap in time and at most `d` earlier-placed neighbours per
    /// interval. One sweep over the sorted endpoints lists the pairs, each
    /// under whichever interval is placed later, so placing an interval
    /// sorts only its `d` neighbours' ranges, not every placed slot.
    pub fn build(intervals: &[LifetimeInterval]) -> MemoryPlan {
        let n = intervals.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| {
            (
                std::cmp::Reverse(intervals[i].size),
                intervals[i].alloc_tick,
            )
        });
        let mut rank = vec![0u32; n];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r as u32;
        }

        // Each overlapping pair filed under its later rank, in one flat
        // array: `earlier[start[r]..start[r + 1]]` are the ranks placed
        // before rank `r` that overlap it in time.
        let pairs = overlapping_pairs(intervals, &rank);
        let mut start = vec![0usize; n + 1];
        for &(later, _) in &pairs {
            start[later as usize + 1] += 1;
        }
        for r in 0..n {
            start[r + 1] += start[r];
        }
        let mut fill = start.clone();
        let mut earlier = vec![0u32; pairs.len()];
        for &(later, first) in &pairs {
            earlier[fill[later as usize]] = first;
            fill[later as usize] += 1;
        }

        let mut placed: Vec<PlanSlot> = Vec::with_capacity(n);
        let mut busy: Vec<(u64, u64)> = Vec::new();
        let mut capacity = 0u64;
        for (r, &i) in order.iter().enumerate() {
            let iv = intervals[i];
            // Occupied ranges among time-overlapping, already-placed slots.
            busy.clear();
            busy.extend(earlier[start[r]..start[r + 1]].iter().map(|&q| {
                let s = &placed[q as usize];
                (s.offset, s.offset + s.size)
            }));
            busy.sort_unstable();
            let mut offset = 0u64;
            for &(lo, hi) in &busy {
                if offset + iv.size <= lo {
                    break;
                }
                offset = offset.max(hi);
            }
            capacity = capacity.max(offset + iv.size);
            placed.push(PlanSlot {
                offset,
                size: iv.size,
                stream: iv.stream,
                alloc_tick: iv.alloc_tick,
                free_tick: iv.free_tick,
            });
        }
        placed.sort_by_key(|s| s.alloc_tick);
        MemoryPlan {
            capacity,
            slots: placed,
        }
    }

    /// Checks the planner invariants:
    ///
    /// * every slot fits: `offset + size <= capacity`;
    /// * no two slots overlap in space *and* time;
    /// * every slot has a positive size and a well-formed lifetime.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.slots.iter().enumerate() {
            if s.size == 0 {
                return Err(format!("slot {i}: zero size"));
            }
            if s.free_tick <= s.alloc_tick {
                return Err(format!(
                    "slot {i}: degenerate lifetime [{}, {})",
                    s.alloc_tick, s.free_tick
                ));
            }
            if s.offset + s.size > self.capacity {
                return Err(format!(
                    "slot {i}: {}+{} exceeds capacity {}",
                    s.offset, s.size, self.capacity
                ));
            }
            for (j, t) in self.slots.iter().enumerate().skip(i + 1) {
                if s.overlaps_space(t) && s.interval().overlaps_time(&t.interval()) {
                    return Err(format!("slots {i} and {j} overlap in space and time"));
                }
            }
        }
        Ok(())
    }
}

/// Every pair of intervals whose lifetimes overlap, as `(later, earlier)`
/// placement ranks, from one sweep over the `2n` sorted endpoints.
/// Lifetimes are half-open, so at equal ticks frees sort before allocs. An
/// alloc pairs with every interval then live, and every interval live at
/// a free overlaps the one that frees, so the sweep costs `O(n log n + P)`.
fn overlapping_pairs(intervals: &[LifetimeInterval], rank: &[u32]) -> Vec<(u32, u32)> {
    let mut events: Vec<(u64, bool, u32)> = Vec::with_capacity(2 * intervals.len());
    for (iv, &r) in intervals.iter().zip(rank) {
        events.push((iv.alloc_tick, true, r));
        events.push((iv.free_tick, false, r));
    }
    events.sort_unstable();
    let mut live: Vec<u32> = Vec::new();
    let mut pairs = Vec::new();
    for (_, is_alloc, r) in events {
        if is_alloc {
            pairs.extend(live.iter().map(|&q| (r.max(q), r.min(q))));
            live.push(r);
        } else if let Some(at) = live.iter().position(|&q| q == r) {
            live.swap_remove(at);
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The placement `build` replaced, kept verbatim as the reference: each
    /// interval filters every placed slot by time overlap.
    fn reference(intervals: &[LifetimeInterval]) -> MemoryPlan {
        let mut order: Vec<usize> = (0..intervals.len()).collect();
        order.sort_by_key(|&i| {
            (
                std::cmp::Reverse(intervals[i].size),
                intervals[i].alloc_tick,
            )
        });

        let mut placed: Vec<PlanSlot> = Vec::with_capacity(intervals.len());
        let mut capacity = 0u64;
        for &i in &order {
            let iv = intervals[i];
            // Occupied ranges among time-overlapping, already-placed slots.
            let mut busy: Vec<(u64, u64)> = placed
                .iter()
                .filter(|s| s.interval().overlaps_time(&iv))
                .map(|s| (s.offset, s.offset + s.size))
                .collect();
            busy.sort_unstable();
            let mut offset = 0u64;
            for (lo, hi) in busy {
                if offset + iv.size <= lo {
                    break;
                }
                offset = offset.max(hi);
            }
            capacity = capacity.max(offset + iv.size);
            placed.push(PlanSlot {
                offset,
                size: iv.size,
                stream: iv.stream,
                alloc_tick: iv.alloc_tick,
                free_tick: iv.free_tick,
            });
        }
        placed.sort_by_key(|s| s.alloc_tick);
        MemoryPlan {
            capacity,
            slots: placed,
        }
    }

    /// Interval programs dense in ties: over a few ticks, one interval's
    /// free often lands on another's alloc, several intervals share an
    /// alloc tick, and a few sizes recur on both streams; lifetimes nest
    /// and are disjoint. A sparse arm adds long programs with varied sizes.
    fn tied_programs() -> impl Strategy<Value = Vec<LifetimeInterval>> {
        let dense = prop::collection::vec(((0u64..16), (1u64..8), (1u64..5), (0u32..2)), 1..48)
            .prop_map(|v| {
                v.into_iter()
                    .map(|(t, d, k, s)| iv(t, t + d, k * 256, s))
                    .collect()
            });
        let sparse = prop::collection::vec(
            ((0u64..400), (1u64..120), (1u64..(4 << 20)), (0u32..3)),
            1..120,
        )
        .prop_map(|v| {
            v.into_iter()
                .map(|(t, d, z, s)| iv(t, t + d, z, s))
                .collect()
        });
        prop_oneof![3 => dense, 1 => sparse]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The sweep placement is the reference placement: same capacity,
        /// same offsets, same slot order.
        #[test]
        fn build_equals_the_reference_placement(intervals in tied_programs()) {
            prop_assert_eq!(MemoryPlan::build(&intervals), reference(&intervals));
        }
    }

    /// Slots that share an alloc tick keep their placement order: the
    /// larger is placed first and so comes first, whatever the input order.
    #[test]
    fn equal_alloc_ticks_keep_placement_order() {
        let ivs = [iv(0, 2, 64, 0), iv(0, 3, 128, 1), iv(2, 4, 64, 1)];
        let plan = MemoryPlan::build(&ivs);
        assert_eq!(plan, reference(&ivs));
        assert_eq!(plan.slots[0].size, 128);
        assert_eq!(
            plan.slots[2].offset, 128,
            "placed beside the live 128, after [0, 2) freed"
        );
    }

    fn iv(alloc_tick: u64, free_tick: u64, size: u64, stream: u32) -> LifetimeInterval {
        LifetimeInterval {
            alloc_tick,
            free_tick,
            size,
            stream,
        }
    }

    #[test]
    fn disjoint_lifetimes_share_address_space() {
        // Two 100-byte transients that never coexist pack into 100 bytes.
        let plan = MemoryPlan::build(&[iv(0, 1, 100, 0), iv(2, 3, 100, 0)]);
        plan.validate().unwrap();
        assert_eq!(plan.capacity, 100);
        assert_eq!(plan.slots[0].offset, plan.slots[1].offset);
    }

    #[test]
    fn overlapping_lifetimes_get_disjoint_offsets() {
        let plan = MemoryPlan::build(&[iv(0, 3, 100, 0), iv(1, 2, 50, 0)]);
        plan.validate().unwrap();
        assert_eq!(plan.capacity, 150);
    }

    #[test]
    fn first_fit_reuses_gaps() {
        // Big long-lived block at 0; a short one after it dies fits at 0
        // again rather than growing the arena.
        let plan = MemoryPlan::build(&[iv(0, 2, 64, 0), iv(1, 3, 32, 0), iv(2, 4, 64, 0)]);
        plan.validate().unwrap();
        assert_eq!(plan.capacity, 96);
    }

    #[test]
    fn validate_catches_space_time_overlap() {
        let bad = MemoryPlan {
            capacity: 100,
            slots: vec![
                PlanSlot {
                    offset: 0,
                    size: 60,
                    stream: 0,
                    alloc_tick: 0,
                    free_tick: 4,
                },
                PlanSlot {
                    offset: 40,
                    size: 60,
                    stream: 0,
                    alloc_tick: 1,
                    free_tick: 3,
                },
            ],
        };
        assert!(bad.validate().is_err());
    }
}
