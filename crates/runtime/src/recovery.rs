//! Fault-recovery policy for the pool service: bounded retries with
//! backoff for rolled-back driver faults, the staged OOM rescue pipeline,
//! and the stitch circuit breaker.
//!
//! The allocator cores below the service are *transactional*: a driver
//! call that fails mid-operation is unwound and surfaces as
//! [`AllocError::DriverFault`](gmlake_alloc_api::AllocError::DriverFault)
//! with the pool exactly as it was. That makes a retry legitimate — and
//! the service is the right place to decide how hard to try:
//!
//! * **transient faults** are retried up to [`FaultPolicy::max_retries`]
//!   times with exponential backoff;
//! * **repeated stitch-path faults** trip a circuit breaker that disables
//!   virtual-memory stitching on the pool
//!   ([`AllocatorCore::set_stitch_enabled`](gmlake_alloc_api::AllocatorCore::set_stitch_enabled))
//!   for a cooldown measured in allocation attempts, after which stitching
//!   is re-probed (half-open: one more fault re-opens immediately, one
//!   success closes fully);
//! * **out-of-memory** runs a staged rescue pipeline — flush the stream
//!   caches, retire the core's completed event stamps, compact, run the
//!   owner-installed tenant [`RescueHook`] (if any), then the cross-pool
//!   policy rescue — retrying after every stage that reclaimed anything.

/// Tuning knobs for the pool service's fault recovery (one per
/// [`PoolService`](crate::PoolService), shared by all its pools).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Retries of an allocation that failed with a rolled-back
    /// [`DriverFault`](gmlake_alloc_api::AllocError::DriverFault).
    pub max_retries: u32,
    /// Base backoff before the first retry, in microseconds; doubles per
    /// attempt (capped at 64×). `0` disables sleeping between retries.
    pub backoff_us: u64,
    /// Consecutive driver faults that trip the stitch circuit breaker.
    pub breaker_threshold: u32,
    /// Allocation attempts the breaker stays open before stitching is
    /// re-probed.
    pub breaker_cooldown: u64,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_retries: 3,
            backoff_us: 20,
            breaker_threshold: 3,
            breaker_cooldown: 32,
        }
    }
}

impl FaultPolicy {
    /// Backoff before retry number `attempt` (1-based), in microseconds.
    pub(crate) fn backoff_for(&self, attempt: u32) -> u64 {
        self.backoff_us << attempt.saturating_sub(1).min(6)
    }
}

/// A pool-owner-supplied reclamation stage in the staged OOM rescue
/// pipeline (installed via
/// [`PoolHandle::set_rescue_hook`](crate::PoolHandle::set_rescue_hook)).
///
/// The service's built-in stages (flush, drain, compact) only see
/// *memory*; layers above the pool — the serving subsystem's tenant
/// registry in particular — know which cached bytes belong to *whom* and
/// can release idle tenants' working sets before an out-of-memory error
/// reaches an active one. The hook runs as stage 4, after the pool-local
/// stages and before the cross-pool scheduler rescue.
///
/// `needed` is the size of the failing request in bytes. Return the
/// number of bytes the hook released (an estimate is fine — any non-zero
/// return triggers a retry of the allocation). Must not allocate on the
/// pool it rescues and must not block: the failing caller is waiting.
pub trait RescueHook: Send + Sync + std::fmt::Debug {
    /// Tries to release at least `needed` bytes; returns bytes released.
    fn rescue(&self, needed: u64) -> u64;
}

/// Per-pool circuit-breaker and recovery bookkeeping (behind the pool
/// entry's mutex). Failure paths lock it; an allocation locks it only
/// while the breaker is open or counts a consecutive fault.
#[derive(Debug, Default)]
pub(crate) struct BreakerState {
    /// Consecutive allocation attempts that ended in a driver fault.
    pub consecutive: u32,
    /// Whether the breaker is open (stitching disabled on the pool).
    pub open: bool,
    /// Allocation attempts left until the open breaker re-probes.
    pub cooldown_left: u64,
    /// Times the breaker tripped open.
    pub trips: u64,
    /// Total allocation attempts that ended in a driver fault.
    pub faults: u64,
    /// Retries issued for faulted allocations.
    pub retries: u64,
    /// Allocations saved by the staged OOM rescue pipeline.
    pub rescues: u64,
}

/// Snapshot of one pool's fault-recovery counters
/// (see [`PoolHandle::fault_stats`](crate::PoolHandle::fault_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRecoveryStats {
    /// Allocation attempts that ended in a rolled-back driver fault.
    pub faults: u64,
    /// Retries issued for faulted allocations.
    pub retries: u64,
    /// Times the stitch circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Whether the breaker is currently open (stitching disabled).
    pub breaker_open: bool,
    /// Allocations saved by the staged OOM rescue pipeline.
    pub rescues: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = FaultPolicy {
            backoff_us: 10,
            ..FaultPolicy::default()
        };
        assert_eq!(p.backoff_for(1), 10);
        assert_eq!(p.backoff_for(2), 20);
        assert_eq!(p.backoff_for(3), 40);
        assert_eq!(p.backoff_for(100), 10 << 6, "shift is capped");
        let no_sleep = FaultPolicy {
            backoff_us: 0,
            ..FaultPolicy::default()
        };
        assert_eq!(no_sleep.backoff_for(5), 0);
    }
}
