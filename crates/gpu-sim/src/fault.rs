//! Driver fault injection: deterministic, seedable failure schedules.
//!
//! A [`FaultPlan`] installed on a [`CudaDriver`](crate::CudaDriver) makes
//! selected driver entry points fail *before any device mutation* — the
//! injected failure is indistinguishable from a real driver rejection and
//! preserves the driver's strong exception safety (a failing call leaves
//! the device untouched). Three schedule shapes compose freely:
//!
//! * **transient** — fail exactly the Nth call of an op, then disarm
//!   ([`FaultPlan::fail_nth`]); the retry succeeds, modeling a glitch;
//! * **persistent** — fail every call of an op from the Nth onward until
//!   the plan is cleared ([`FaultPlan::fail_from`]), modeling a wedged
//!   driver or exhausted resource class;
//! * **probabilistic** — fail roughly one in `one_in` faultable calls,
//!   driven by a seeded xorshift PRNG ([`FaultPlan::with_probabilistic`]),
//!   for soak runs.
//!
//! Calls are counted per [`FaultOp`] from the moment the plan is
//! installed, so `fail_nth(FaultOp::Create, 3)` always means "the third
//! create after installation" regardless of prior traffic — the property
//! that makes chaos schedules replayable.

use crate::error::DriverError;

/// Driver entry points that can be targeted by fault injection, one per
/// modelled CUDA call ([`FaultOp::Map`] covers `mem_map_window` too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// `mem_alloc` (native `cudaMalloc` path).
    MemAlloc,
    /// `mem_free` (native `cudaFree` path).
    MemFree,
    /// `mem_address_reserve`.
    AddressReserve,
    /// `mem_address_free`.
    AddressFree,
    /// `mem_create`.
    Create,
    /// `mem_release`.
    Release,
    /// `mem_map` / `mem_map_window`.
    Map,
    /// `mem_unmap`.
    Unmap,
    /// `mem_set_access`.
    SetAccess,
    /// `event_record` / `event_record_if_pending`. These entry points are
    /// infallible in the API; an injected fault degrades them to a
    /// stream-synchronizing slow path instead of an error (see
    /// [`CudaDriver::event_record`](crate::CudaDriver::event_record)).
    EventRecord,
}

impl FaultOp {
    /// Number of distinct ops (sizes the per-op call counters).
    pub const COUNT: usize = 10;

    /// Every op, in declaration order.
    pub const ALL: [FaultOp; FaultOp::COUNT] = [
        FaultOp::MemAlloc,
        FaultOp::MemFree,
        FaultOp::AddressReserve,
        FaultOp::AddressFree,
        FaultOp::Create,
        FaultOp::Release,
        FaultOp::Map,
        FaultOp::Unmap,
        FaultOp::SetAccess,
        FaultOp::EventRecord,
    ];

    /// Dense index for counter arrays and telemetry payloads.
    pub fn index(self) -> usize {
        match self {
            FaultOp::MemAlloc => 0,
            FaultOp::MemFree => 1,
            FaultOp::AddressReserve => 2,
            FaultOp::AddressFree => 3,
            FaultOp::Create => 4,
            FaultOp::Release => 5,
            FaultOp::Map => 6,
            FaultOp::Unmap => 7,
            FaultOp::SetAccess => 8,
            FaultOp::EventRecord => 9,
        }
    }

    /// Stable name used in error messages and snapshots.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultOp::MemAlloc => "mem_alloc",
            FaultOp::MemFree => "mem_free",
            FaultOp::AddressReserve => "mem_address_reserve",
            FaultOp::AddressFree => "mem_address_free",
            FaultOp::Create => "mem_create",
            FaultOp::Release => "mem_release",
            FaultOp::Map => "mem_map",
            FaultOp::Unmap => "mem_unmap",
            FaultOp::SetAccess => "mem_set_access",
            FaultOp::EventRecord => "event_record",
        }
    }
}

/// Whether a deterministic rule fires once or keeps firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Fire on exactly the Nth matching call, then disarm (the retry
    /// succeeds).
    Transient,
    /// Fire on every matching call from the Nth onward, until the plan is
    /// cleared or replaced.
    Persistent,
}

/// One deterministic fault rule: fail calls of `op` at/after the `nth`
/// matching call (1-based) with `error`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Targeted entry point.
    pub op: FaultOp,
    /// 1-based call ordinal (counted from plan installation) the rule
    /// arms at.
    pub nth: u64,
    /// Transient (fire once) or persistent (fire from `nth` onward).
    pub mode: FaultMode,
    /// Error to inject; `None` injects [`DriverError::Injected`].
    pub error: Option<DriverError>,
}

/// A fault schedule: deterministic per-op rules plus an optional seeded
/// probabilistic failure rate. Install with
/// [`CudaDriver::set_fault_plan`](crate::CudaDriver::set_fault_plan).
///
/// # Example
///
/// ```
/// use gmlake_gpu_sim::{CudaDriver, DeviceConfig, DriverError, FaultOp, FaultPlan};
///
/// let d = CudaDriver::new(DeviceConfig::small_test());
/// d.set_fault_plan(FaultPlan::new().fail_nth(FaultOp::Create, 2));
/// let g = d.granularity();
/// assert!(d.mem_create(g).is_ok());
/// assert_eq!(
///     d.mem_create(g).unwrap_err(),
///     DriverError::Injected { op: "mem_create" }
/// );
/// assert!(d.mem_create(g).is_ok(), "transient: the retry succeeds");
/// assert_eq!(d.stats().injected_faults, 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    /// `(seed, one_in)`: every faultable call fails with probability
    /// `1/one_in`.
    prob: Option<(u64, u64)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing until rules are added).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Transient rule: fail exactly the `nth` call (1-based) of `op` with
    /// [`DriverError::Injected`].
    #[must_use]
    pub fn fail_nth(self, op: FaultOp, nth: u64) -> Self {
        self.rule(op, nth, FaultMode::Transient, None)
    }

    /// Transient rule with a chosen error (e.g. make the 3rd `mem_create`
    /// report [`DriverError::OutOfMemory`]).
    #[must_use]
    pub fn fail_nth_with(self, op: FaultOp, nth: u64, error: DriverError) -> Self {
        self.rule(op, nth, FaultMode::Transient, Some(error))
    }

    /// Persistent rule: fail every call of `op` from the `nth` onward with
    /// [`DriverError::Injected`].
    #[must_use]
    pub fn fail_from(self, op: FaultOp, nth: u64) -> Self {
        self.rule(op, nth, FaultMode::Persistent, None)
    }

    /// Adds a seeded probabilistic mode: every faultable call additionally
    /// fails with probability `1/one_in` (after deterministic rules are
    /// consulted). Deterministic for a fixed seed and call sequence.
    ///
    /// # Panics
    ///
    /// Panics if `one_in` is zero.
    #[must_use]
    pub fn with_probabilistic(mut self, seed: u64, one_in: u64) -> Self {
        assert!(one_in > 0, "one_in must be >= 1");
        self.prob = Some((seed, one_in));
        self
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.prob.is_none()
    }

    fn rule(mut self, op: FaultOp, nth: u64, mode: FaultMode, error: Option<DriverError>) -> Self {
        assert!(nth >= 1, "call ordinals are 1-based");
        self.rules.push(FaultRule {
            op,
            nth,
            mode,
            error,
        });
        self
    }
}

/// Armed plan state held by the driver: per-op call counters, rule
/// consumption flags, and the probabilistic PRNG.
#[derive(Debug)]
pub(crate) struct FaultState {
    rules: Vec<(FaultRule, bool)>,
    counters: [u64; FaultOp::COUNT],
    /// `(prng_state, one_in)`.
    prob: Option<(u64, u64)>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState {
            rules: plan.rules.into_iter().map(|r| (r, false)).collect(),
            counters: [0; FaultOp::COUNT],
            // xorshift64 state must be nonzero; fold the seed through a
            // golden-ratio constant so seed 0 is usable.
            prob: plan
                .prob
                .map(|(seed, one_in)| ((seed ^ 0x9E37_79B9_7F4A_7C15) | 1, one_in)),
        }
    }

    /// Counts one call of `op`; returns the error to inject, if any.
    pub(crate) fn check(&mut self, op: FaultOp) -> Option<DriverError> {
        self.counters[op.index()] += 1;
        let n = self.counters[op.index()];
        for (rule, consumed) in &mut self.rules {
            if rule.op != op || *consumed {
                continue;
            }
            let fires = match rule.mode {
                FaultMode::Transient => n == rule.nth,
                FaultMode::Persistent => n >= rule.nth,
            };
            if fires {
                if rule.mode == FaultMode::Transient {
                    *consumed = true;
                }
                return Some(
                    rule.error
                        .clone()
                        .unwrap_or(DriverError::Injected { op: op.as_str() }),
                );
            }
        }
        if let Some((state, one_in)) = &mut self.prob {
            // xorshift64: deterministic for a fixed seed + call sequence.
            let mut x = *state;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *state = x;
            if x % *one_in == 0 {
                return Some(DriverError::Injected { op: op.as_str() });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed(plan: FaultPlan) -> FaultState {
        FaultState::new(plan)
    }

    #[test]
    fn transient_fires_exactly_once() {
        let mut s = armed(FaultPlan::new().fail_nth(FaultOp::Create, 2));
        assert!(s.check(FaultOp::Create).is_none());
        assert_eq!(
            s.check(FaultOp::Create),
            Some(DriverError::Injected { op: "mem_create" })
        );
        for _ in 0..10 {
            assert!(s.check(FaultOp::Create).is_none());
        }
    }

    #[test]
    fn persistent_fires_from_nth_onward() {
        let mut s = armed(FaultPlan::new().fail_from(FaultOp::Map, 3));
        assert!(s.check(FaultOp::Map).is_none());
        assert!(s.check(FaultOp::Map).is_none());
        for _ in 0..5 {
            assert!(s.check(FaultOp::Map).is_some());
        }
        // Other ops are unaffected.
        assert!(s.check(FaultOp::Create).is_none());
    }

    #[test]
    fn chosen_error_is_injected_verbatim() {
        let oom = DriverError::OutOfMemory {
            requested: 1,
            in_use: 2,
            capacity: 3,
        };
        let mut s = armed(FaultPlan::new().fail_nth_with(FaultOp::Create, 1, oom.clone()));
        assert_eq!(s.check(FaultOp::Create), Some(oom));
    }

    #[test]
    fn counters_are_per_op() {
        let mut s = armed(
            FaultPlan::new()
                .fail_nth(FaultOp::Create, 2)
                .fail_nth(FaultOp::Unmap, 1),
        );
        assert!(s.check(FaultOp::Unmap).is_some(), "unmap #1 fires");
        assert!(s.check(FaultOp::Create).is_none(), "create #1 clean");
        assert!(s.check(FaultOp::Create).is_some(), "create #2 fires");
    }

    #[test]
    fn probabilistic_is_deterministic_per_seed_and_roughly_calibrated() {
        let count = |seed: u64| {
            let mut s = armed(FaultPlan::new().with_probabilistic(seed, 100));
            (0..10_000)
                .filter(|_| s.check(FaultOp::Create).is_some())
                .count()
        };
        assert_eq!(count(42), count(42), "same seed, same schedule");
        let hits = count(42);
        // 1-in-100 over 10k calls: expect ~100, allow a generous band.
        assert!((30..300).contains(&hits), "got {hits} injections");
        // Seed 0 must be usable (xorshift state is made nonzero).
        let _ = count(0);
    }

    #[test]
    fn empty_plan_injects_nothing() {
        assert!(FaultPlan::new().is_empty());
        let mut s = armed(FaultPlan::new());
        for op in FaultOp::ALL {
            assert!(s.check(op).is_none());
        }
    }

    #[test]
    fn op_indexes_are_dense_and_names_unique() {
        let mut seen = std::collections::HashSet::new();
        for (i, op) in FaultOp::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
            assert!(seen.insert(op.as_str()));
        }
    }
}
