//! The one defragmentation policy: *when* a pool runs the passes its
//! allocator already implements
//! ([`compact`](gmlake_alloc_api::AllocatorCore::compact),
//! [`release_cached`](gmlake_alloc_api::AllocatorCore::release_cached)).
//!
//! Defragmentation itself lives inside the allocator (GMLake §3.3.2), so
//! the layer above only picks the moment — like the step-driven defrag
//! managers of production training stacks (torchtitan's: a step counter
//! and an `aggressive` flag). A [`Defragger`] is ticked once per step of
//! whatever owns the pool — a training iteration boundary
//! ([`PoolHandle::iteration_boundary`](crate::PoolHandle::iteration_boundary)),
//! a serving step — and runs at most one pass per tick:
//!
//! * **aggressive** (retire event stamps, `compact`, `release_cached`)
//!   while the churn counted over a sliding window of ticks, or the pool's
//!   fragmentation, is at or above its trigger;
//! * otherwise **periodic** (`compact` alone) on every `period`-th tick.

use std::collections::VecDeque;

use parking_lot::Mutex;

use gmlake_alloc_api::DeviceAllocator;

/// The four values that decide when a pool defragments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefragPolicy {
    /// Run the periodic pass on every tick that is a multiple of this
    /// (`0` disables the periodic pass).
    pub period: u64,
    /// Sliding window, in ticks, over which churn events are summed.
    pub churn_window: u64,
    /// Churn events within the window at or above which the tick runs the
    /// aggressive pass.
    pub churn_trigger: u64,
    /// Pool fragmentation at or above which the tick runs the aggressive
    /// pass regardless of churn. A pool's fragmentation never exceeds 1.0,
    /// so a larger trigger never fires (and the pool is not even read).
    pub frag_trigger: f64,
}

impl DefragPolicy {
    /// A `compact` every `period` ticks and nothing else: no churn or
    /// fragmentation trigger. The training-loop cadence.
    pub const fn periodic(period: u64) -> Self {
        DefragPolicy {
            period,
            churn_window: 1,
            churn_trigger: u64::MAX,
            frag_trigger: f64::INFINITY,
        }
    }

    /// The serving default: a periodic pass every 64 steps, escalating to
    /// the aggressive pass while 8 or more tenants arrived or departed in
    /// the last 32 steps or the pool is at least half fragmented.
    pub const fn serving() -> Self {
        DefragPolicy {
            period: 64,
            churn_window: 32,
            churn_trigger: 8,
            frag_trigger: 0.5,
        }
    }
}

/// Cumulative counters of one [`Defragger`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefragStats {
    /// Periodic `compact` passes run.
    pub periodic_passes: u64,
    /// Aggressive (drain + compact + release) passes run.
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
    /// Churn events per recent tick, oldest first (at most `churn_window`).
    window: VecDeque<u64>,
    stats: DefragStats,
}

/// Tick-driven defrag driver for one pool. Its lock guards the churn
/// window and the counters only: it is released before the pool is read or
/// a pass runs, so ticking can never deadlock against the pool's own locks.
#[derive(Debug)]
pub struct Defragger {
    policy: DefragPolicy,
    state: Mutex<State>,
}

impl Defragger {
    /// A driver with an empty churn window and zeroed counters.
    pub fn new(policy: DefragPolicy) -> Self {
        Defragger {
            policy,
            state: Mutex::default(),
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> DefragStats {
        self.state.lock().stats
    }

    /// Records `churn_events` for tick `tick_no` and picks the tick's pass.
    /// `frag` is read only if churn did not already decide.
    fn decide(&self, tick_no: u64, churn_events: u64, frag: impl FnOnce() -> f64) -> Option<Pass> {
        let p = &self.policy;
        let churn: u64 = {
            let mut state = self.state.lock();
            state.window.push_back(churn_events);
            while state.window.len() as u64 > p.churn_window.max(1) {
                state.window.pop_front();
            }
            state.window.iter().sum()
        };
        if churn >= p.churn_trigger || (p.frag_trigger <= 1.0 && frag() >= p.frag_trigger) {
            Some(Pass::Aggressive)
        } else if p.period > 0 && tick_no.is_multiple_of(p.period) {
            Some(Pass::Periodic)
        } else {
            None
        }
    }

    /// Advances the driver by one tick that saw `churn_events` (tenant
    /// arrivals + departures; `0` where the notion does not apply), running
    /// whichever pass the policy calls for on `pool`. Returns the bytes
    /// reclaimed this tick.
    pub fn tick(&self, tick_no: u64, churn_events: u64, pool: &DeviceAllocator) -> u64 {
        self.tick_with(tick_no, churn_events, pool, || pool.fragmentation())
    }

    /// [`Defragger::tick`] for a caller that may already hold the pool's
    /// fragmentation reading.
    pub(crate) fn tick_with(
        &self,
        tick_no: u64,
        churn_events: u64,
        pool: &DeviceAllocator,
        frag: impl FnOnce() -> f64,
    ) -> u64 {
        let Some(pass) = self.decide(tick_no, churn_events, frag) else {
            return 0;
        };
        let bytes = match pass {
            Pass::Periodic => pool.compact(),
            // Retire completed cross-stream event stamps first so the
            // compaction and release below see those blocks unguarded,
            // then drop the whole idle cache:
            // under heavy churn the cached shapes belong to departed
            // tenants and will not recur.
            Pass::Aggressive => {
                pool.process_events();
                pool.compact() + pool.release_cached()
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

    /// A trigger value that can never be reached.
    const NEVER: f64 = f64::INFINITY;

    const fn policy(period: u64, window: u64, churn: u64, frag: f64) -> DefragPolicy {
        DefragPolicy {
            period,
            churn_window: window,
            churn_trigger: churn,
            frag_trigger: frag,
        }
    }

    /// One row: a fresh [`Defragger`] of `policy` fed `ticks` as
    /// `(tick_no, churn_events, fragmentation)`, and the pass each tick
    /// must pick. A fragmentation of `None` means the tick must decide
    /// *without* reading the pool (the reader panics).
    struct Case {
        name: &'static str,
        policy: DefragPolicy,
        ticks: &'static [(u64, u64, Option<f64>)],
        want: &'static [Option<Pass>],
    }

    /// The one table of `Defragger::tick`'s decisions. It replaces the nine
    /// unit tests of the former runtime scheduler module and the decision
    /// halves of the three of the former serving defrag module (CHANGES.md,
    /// PR 20, maps every deleted test to its row here or to the behaviour
    /// that went):
    ///
    /// | former test | row |
    /// |---|---|
    /// | `periodic_fires_on_cadence_per_device`, serving `periodic_pass_fires_on_cadence_only` | `cadence multiples` |
    /// | `periodic_rejects_zero_period` | `period 0 disables` (0 means "off", as it did in serving; no panic) |
    /// | `periodic_restarts_cadence_for_a_reregistered_device` | `a_fresh_defragger_forgets_its_predecessors_window`, `service::tests::reregistered_device_starts_with_a_fresh_defragger` |
    /// | `threshold_fires_only_above_threshold_and_floor` | `frag trigger: >= edge`, `empty pool never fires` |
    /// | serving `churn_burst_escalates_and_reclaims_the_idle_cache` | `churn trigger: >= edge and slide-out` |
    /// | serving `fragmentation_alone_escalates` | `frag trigger: >= edge` |
    /// | `scheduler_counts_decisions_and_actions` | the stats assertions of the three real-pool tests below |
    /// | `oom_pressure_only_acts_on_oom` | `never-firing policy`; the OOM half is `service::tests::oom_rescue_*`, independent of the policy now |
    ///
    /// Two equivalences the rows rely on. The former periodic policy fired
    /// when `iteration >= last_fired + every`; once each boundary ticks
    /// exactly once (no sweep re-observes an iteration) that is
    /// `tick % period == 0`. The former fragmentation-threshold policy (`>`
    /// plus a `min_reserved` floor → `compact`; no non-test caller) is
    /// subsumed by `frag_trigger` with the serving semantics: `>=` →
    /// aggressive pass, and an empty pool reads fragmentation 0.0, so it
    /// never fires.
    const CASES: &[Case] = &[
        Case {
            name: "cadence multiples",
            policy: DefragPolicy::periodic(3),
            ticks: &[
                (1, 0, None),
                (2, 0, None),
                (3, 0, None),
                (4, 0, None),
                (5, 0, None),
                (6, 0, None),
            ],
            want: &[None, None, Some(P), None, None, Some(P)],
        },
        Case {
            name: "period 0 disables",
            policy: DefragPolicy::periodic(0),
            ticks: &[(0, 0, None), (1, 0, None), (64, 0, None)],
            want: &[None, None, None],
        },
        Case {
            name: "never-firing policy",
            policy: DefragPolicy::periodic(0),
            ticks: &[(1, 1_000_000, None), (2, u64::MAX - 1, None)],
            want: &[None, None],
        },
        Case {
            // The `3 aggressive passes` sequence of the former
            // `churn_burst_escalates_and_reclaims_the_idle_cache`: window
            // 4, trigger 6; churn 2 + 4 reaches 6 at tick 2 (`>=`), ticks 3
            // and 4 still hold the burst, tick 5 has slid the 2 out
            // (4 < 6), tick 6 the 4.
            name: "churn trigger: >= edge and slide-out",
            policy: policy(0, 4, 6, NEVER),
            ticks: &[
                (1, 2, None),
                (2, 4, None),
                (3, 0, None),
                (4, 0, None),
                (5, 0, None),
                (6, 0, None),
            ],
            want: &[None, Some(A), Some(A), Some(A), None, None],
        },
        Case {
            name: "churn window 0 counts the current tick",
            policy: policy(0, 0, 1, NEVER),
            ticks: &[(1, 1, None), (2, 0, None)],
            want: &[Some(A), None],
        },
        Case {
            name: "frag trigger: >= edge",
            policy: policy(0, 4, u64::MAX, 0.5),
            ticks: &[(1, 0, Some(0.499)), (2, 0, Some(0.5)), (3, 0, Some(1.0))],
            want: &[None, Some(A), Some(A)],
        },
        Case {
            name: "empty pool never fires",
            policy: DefragPolicy::serving(),
            ticks: &[(1, 0, Some(0.0)), (2, 0, Some(0.0))],
            want: &[None, None],
        },
        Case {
            name: "churn short-circuits the fragmentation read",
            policy: DefragPolicy::serving(),
            ticks: &[(1, 8, None), (2, 0, None)],
            want: &[Some(A), Some(A)],
        },
        Case {
            name: "aggressive wins over periodic on a cadence tick",
            policy: policy(2, 1, 1, NEVER),
            ticks: &[(2, 1, None), (4, 0, None)],
            want: &[Some(A), Some(P)],
        },
        Case {
            name: "serving default: quiet pool compacts every 64 steps",
            policy: DefragPolicy::serving(),
            ticks: &[
                (63, 0, Some(0.49)),
                (64, 0, Some(0.49)),
                (128, 7, Some(0.0)),
            ],
            want: &[None, Some(P), Some(P)],
        },
    ];

    #[test]
    fn tick_decision_table() {
        for case in CASES {
            assert_eq!(case.ticks.len(), case.want.len(), "{}", case.name);
            // "a fresh defragger after re-registration": every row — and
            // every registration — starts from an empty window.
            let d = Defragger::new(case.policy);
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
        let p = policy(0, 4, 6, NEVER);
        let old = Defragger::new(p);
        assert_eq!(old.decide(1, 6, || unreachable!()), Some(A));
        assert_eq!(
            old.decide(2, 0, || unreachable!()),
            Some(A),
            "burst in window"
        );
        let fresh = Defragger::new(p);
        assert_eq!(fresh.decide(2, 0, || unreachable!()), None);
    }

    fn warm_pool() -> DeviceAllocator {
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let pool = DeviceAllocator::new(CachingAllocator::new(driver));
        let a = pool.allocate(AllocRequest::new(mib(8))).unwrap();
        pool.deallocate(a.id).unwrap();
        assert!(pool.stats().reserved_bytes >= mib(8), "cache warm");
        pool
    }

    // The three tests below moved here with the serving defrag module's
    // code, names unchanged: the passes themselves, on a real pool (their
    // decisions are rows of the table above).

    #[test]
    fn periodic_pass_fires_on_cadence_only() {
        let pool = warm_pool();
        let d = Defragger::new(DefragPolicy::periodic(4));
        assert_eq!((1..4).map(|t| d.tick(t, 0, &pool)).sum::<u64>(), 0);
        assert!(
            d.tick(4, 0, &pool) >= mib(8),
            "`compact` on the cadence tick"
        );
        assert_eq!(pool.stats().reserved_bytes, 0);
        for tick in 5..=8 {
            d.tick(tick, 0, &pool);
        }
        let stats = d.stats();
        assert_eq!(stats.periodic_passes, 2, "ticks 4 and 8");
        assert_eq!(stats.aggressive_passes, 0);
    }

    #[test]
    fn churn_burst_escalates_and_reclaims_the_idle_cache() {
        let pool = warm_pool();
        let d = Defragger::new(policy(0, 4, 6, NEVER));
        assert_eq!(d.tick(1, 2, &pool), 0, "churn 2 < 6: quiet");
        let got = d.tick(2, 4, &pool);
        assert!(got >= mib(8), "churn 6 >= 6: aggressive pass released");
        assert_eq!(pool.stats().reserved_bytes, 0);
        // The window slides: after 4 quiet ticks the burst has aged out.
        for tick in 3..=6 {
            d.tick(tick, 0, &pool);
        }
        assert_eq!(
            d.stats(),
            DefragStats {
                periodic_passes: 0,
                aggressive_passes: 3,
                bytes_reclaimed: got,
            },
            "ticks 3 and 4 still saw the burst in the window; 5 and 6 did not"
        );
    }

    #[test]
    fn fragmentation_alone_escalates() {
        let pool = warm_pool();
        assert!(pool.fragmentation() > 0.9, "all-cache pool is fragmented");
        let d = Defragger::new(policy(0, 4, u64::MAX, 0.5));
        assert!(d.tick(1, 0, &pool) >= mib(8));
        assert_eq!(d.stats().aggressive_passes, 1);
        assert_eq!(d.tick(2, 0, &pool), 0, "empty pool reads 0.0: quiet");
        assert_eq!(d.stats().aggressive_passes, 1);
    }
}
