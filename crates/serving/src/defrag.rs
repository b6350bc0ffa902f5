//! Churn-keyed defragmentation: *when* a serving pool runs the pass its
//! allocator already implements
//! ([`compact`](gmlake_alloc_api::AllocatorCore::compact)).
//!
//! Defragmentation itself lives inside the allocator (GMLake §3.3.2), so a
//! training loop needs no timer. A serving pool is different: tenants
//! arrive and depart, and the cached shapes of a departed tenant will not
//! recur. The [`Defragger`] is ticked once per
//! [`ServingService::step`](crate::ServingService::step) with the step's
//! tenant arrivals + departures, and runs at most one pass per tick:
//!
//! * **aggressive** (retire event stamps, then `compact`) while the last
//!   [`CHURN_WINDOW`] steps saw at least [`CHURN_TRIGGER`] churn events, or
//!   the pool is at least [`FRAG_TRIGGER`] fragmented;
//! * otherwise **periodic** (`compact` alone) on every [`PERIOD`]-th step.
//!
//! Neither pass calls `release_cached`. Over GMLake, `compact` drops the
//! departed tenants' stitched views and keeps the physical lake for the
//! next arrivals; memory goes back to the driver only through the
//! allocator's OOM fallback (S5) or an explicit `release_cached`. A core
//! without its own `compact` (the caching allocator) falls back to a full
//! cache release.

use parking_lot::Mutex;

use gmlake_alloc_api::DeviceAllocator;

/// A quiet pool compacts on every step that is a multiple of this.
const PERIOD: u64 = 64;
/// Steps over which churn events are summed.
const CHURN_WINDOW: usize = 32;
/// Churn events within the window at or above which a step runs the
/// aggressive pass.
const CHURN_TRIGGER: u64 = 8;
/// Pool fragmentation at or above which a step runs the aggressive pass
/// regardless of churn.
const FRAG_TRIGGER: f64 = 0.5;

/// Cumulative counters of the serving layer's defrag passes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefragStats {
    /// Periodic `compact` passes run.
    pub periodic_passes: u64,
    /// Aggressive (drain + compact) passes run.
    pub aggressive_passes: u64,
    /// Physical bytes reclaimed across all passes.
    pub bytes_reclaimed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    Periodic,
    Aggressive,
}

#[derive(Debug, Default)]
struct State {
    /// Churn events of the last [`CHURN_WINDOW`] ticks, a ring written at
    /// `next`; ticks not yet seen count 0.
    window: [u64; CHURN_WINDOW],
    next: usize,
    stats: DefragStats,
}

/// Tick-driven defrag driver for one pool. Its lock guards the churn
/// window and the counters only: it is released before the pool is read or
/// a pass runs, so ticking can never deadlock against the pool's own locks.
#[derive(Debug, Default)]
pub(crate) struct Defragger {
    state: Mutex<State>,
}

impl Defragger {
    /// Snapshot of the counters.
    pub(crate) fn stats(&self) -> DefragStats {
        self.state.lock().stats
    }

    /// Records `churn_events` for tick `tick_no` and picks the tick's pass.
    /// `frag` is read only if churn did not already decide.
    fn decide(&self, tick_no: u64, churn_events: u64, frag: impl FnOnce() -> f64) -> Option<Pass> {
        let churn: u64 = {
            let mut state = self.state.lock();
            let slot = state.next;
            state.window[slot] = churn_events;
            state.next = (slot + 1) % CHURN_WINDOW;
            state.window.iter().sum()
        };
        if churn >= CHURN_TRIGGER || frag() >= FRAG_TRIGGER {
            Some(Pass::Aggressive)
        } else if tick_no.is_multiple_of(PERIOD) {
            Some(Pass::Periodic)
        } else {
            None
        }
    }

    /// Advances the driver by one tick that saw `churn_events` tenant
    /// arrivals + departures, running whichever pass the tick calls for on
    /// `pool`. Returns the bytes reclaimed this tick.
    pub(crate) fn tick(&self, tick_no: u64, churn_events: u64, pool: &DeviceAllocator) -> u64 {
        let Some(pass) = self.decide(tick_no, churn_events, || pool.fragmentation()) else {
            return 0;
        };
        let bytes = match pass {
            Pass::Periodic => pool.compact(),
            // Retire completed cross-stream event stamps first so the
            // compaction below sees those blocks unguarded: under heavy
            // churn the cached shapes belong to departed tenants and will
            // not recur, but their bytes will be asked for again.
            Pass::Aggressive => {
                pool.process_events();
                pool.compact()
            }
        };
        let mut state = self.state.lock();
        match pass {
            Pass::Periodic => state.stats.periodic_passes += 1,
            Pass::Aggressive => state.stats.aggressive_passes += 1,
        }
        state.stats.bytes_reclaimed += bytes;
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlake_alloc_api::{mib, AllocRequest};
    use gmlake_caching::CachingAllocator;
    use gmlake_gpu_sim::{CudaDriver, DeviceConfig};

    use Pass::{Aggressive as A, Periodic as P};

    /// One row: a fresh [`Defragger`] fed `ticks` as
    /// `(tick_no, churn_events, fragmentation)`, and the pass each tick
    /// must pick. A fragmentation of `None` means the tick must decide
    /// *without* reading the pool (the reader panics).
    struct Case {
        name: &'static str,
        ticks: &'static [(u64, u64, Option<f64>)],
        want: &'static [Option<Pass>],
    }

    /// The table of `Defragger::tick`'s decisions at the serving constants
    /// (period 64, churn window 32, churn trigger 8, fragmentation trigger
    /// 0.5).
    const CASES: &[Case] = &[
        Case {
            name: "quiet pool: periodic on multiples of 64 only",
            ticks: &[
                (1, 0, Some(0.0)),
                (63, 0, Some(0.49)),
                (64, 0, Some(0.49)),
                (65, 0, Some(0.0)),
                (127, 0, Some(0.0)),
                (128, 7, Some(0.0)),
                (0, 0, Some(0.0)),
            ],
            want: &[None, None, Some(P), None, None, Some(P), Some(P)],
        },
        Case {
            name: "churn 7 in the window stays quiet",
            ticks: &[(1, 7, Some(0.0)), (2, 0, Some(0.0))],
            want: &[None, None],
        },
        Case {
            name: "churn trigger: >= 8 summed over the window",
            ticks: &[(1, 7, Some(0.0)), (2, 1, None), (3, 0, None)],
            want: &[None, Some(A), Some(A)],
        },
        Case {
            name: "churn trigger: 8 at once",
            ticks: &[(1, 8, None), (2, 0, None)],
            want: &[Some(A), Some(A)],
        },
        Case {
            name: "frag trigger: >= 0.5 edge",
            ticks: &[(1, 0, Some(0.499)), (2, 0, Some(0.5)), (3, 0, Some(1.0))],
            want: &[None, Some(A), Some(A)],
        },
        Case {
            name: "churn wins over periodic on a cadence tick",
            ticks: &[(64, 8, None)],
            want: &[Some(A)],
        },
        Case {
            name: "fragmentation wins over periodic on a cadence tick",
            ticks: &[(128, 0, Some(0.5))],
            want: &[Some(A)],
        },
    ];

    #[test]
    fn tick_decision_table() {
        for case in CASES {
            assert_eq!(case.ticks.len(), case.want.len(), "{}", case.name);
            // Every row starts from a fresh driver and an empty window.
            let d = Defragger::default();
            for (&(tick_no, churn, frag), &want) in case.ticks.iter().zip(case.want) {
                let got = d.decide(tick_no, churn, || {
                    frag.unwrap_or_else(|| panic!("{}: tick {tick_no} read the pool", case.name))
                });
                assert_eq!(got, want, "{}: tick {tick_no}", case.name);
            }
            assert_eq!(d.stats(), DefragStats::default(), "deciding counts nothing");
        }
    }

    #[test]
    fn a_fresh_defragger_forgets_its_predecessors_window() {
        let old = Defragger::default();
        assert_eq!(old.decide(1, 8, || unreachable!()), Some(A));
        assert_eq!(
            old.decide(2, 0, || unreachable!()),
            Some(A),
            "burst in window"
        );
        let fresh = Defragger::default();
        assert_eq!(fresh.decide(2, 0, || 0.0), None);
    }

    /// A pool holding `live` MiB live beside `idle` MiB of idle cache.
    fn warm_pool(live: u64, idle: u64) -> DeviceAllocator {
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let pool = DeviceAllocator::new(CachingAllocator::new(driver));
        if live > 0 {
            pool.allocate(AllocRequest::new(mib(live))).unwrap();
        }
        let a = pool.allocate(AllocRequest::new(mib(idle))).unwrap();
        pool.deallocate(a.id).unwrap();
        assert_eq!(pool.stats().reserved_bytes, mib(live + idle), "cache warm");
        pool
    }

    // The passes themselves, on a real pool (their decisions are rows of
    // the table above).

    #[test]
    fn periodic_pass_fires_on_cadence_only() {
        // A third of the pool idle: under the fragmentation trigger.
        let pool = warm_pool(32, 16);
        let d = Defragger::default();
        assert_eq!((1..64).map(|t| d.tick(t, 0, &pool)).sum::<u64>(), 0);
        assert_eq!(d.tick(64, 0, &pool), mib(16), "`compact` on tick 64");
        assert_eq!(pool.stats().reserved_bytes, mib(32));
        for tick in 65..=128 {
            d.tick(tick, 0, &pool);
        }
        let stats = d.stats();
        assert_eq!(stats.periodic_passes, 2, "ticks 64 and 128");
        assert_eq!(stats.aggressive_passes, 0);
    }

    #[test]
    fn churn_burst_escalates_and_reclaims_the_idle_cache() {
        let pool = warm_pool(32, 16);
        let d = Defragger::default();
        assert_eq!(d.tick(1, 7, &pool), 0, "churn 7 < 8: quiet");
        assert_eq!(d.tick(2, 1, &pool), mib(16), "churn 8: aggressive pass");
        assert_eq!(pool.stats().reserved_bytes, mib(32));
        // The window slides: tick 33 no longer sees tick 1's 7 events.
        for tick in 3..=33 {
            d.tick(tick, 0, &pool);
        }
        assert_eq!(
            d.stats(),
            DefragStats {
                periodic_passes: 0,
                aggressive_passes: 31,
                bytes_reclaimed: mib(16),
            },
            "ticks 2..=32 saw the burst in the window; 33 did not"
        );
    }

    #[test]
    fn fragmentation_alone_escalates() {
        let pool = warm_pool(0, 16);
        assert_eq!(pool.fragmentation(), 1.0, "an all-cache pool");
        let d = Defragger::default();
        assert_eq!(d.tick(1, 0, &pool), mib(16));
        assert_eq!(d.stats().aggressive_passes, 1);
        assert_eq!(d.tick(2, 0, &pool), 0, "empty pool reads 0.0: quiet");
        assert_eq!(d.stats().aggressive_passes, 1);
    }
}
