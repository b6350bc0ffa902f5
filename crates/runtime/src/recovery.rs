//! Fault recovery for the pool service: a bounded retry for rolled-back
//! driver faults.
//!
//! The allocator cores below the service are *transactional*: a driver
//! call that fails mid-operation is unwound and surfaces as
//! [`AllocError::DriverFault`](gmlake_alloc_api::AllocError::DriverFault)
//! with the pool exactly as it was. That makes a retry legitimate: a
//! driver fault is retried at once, up to [`MAX_FAULT_RETRIES`] times, and
//! then surfaces. There is no backoff: a fault plan counts driver calls,
//! not time, so waiting cannot change what a retry returns.
//!
//! Out-of-memory is not the service's to recover: each layer recovers
//! only what it caches. The core gives up its cache and retries (GMLake's
//! S5, the caching allocator's segment release), the front-end flushes its
//! stream caches into the core and retries, and the serving layer evicts
//! idle tenants and retries. What still fails reaches the caller.
//!
//! There is no circuit breaker that turns stitching off after repeated
//! faults: a stitch issues a subset of the driver calls a fresh block
//! does, so serving without stitching can never dodge a fault that
//! stitching hits (`docs/fault-model.md`).

/// Retries of an allocation that failed with a rolled-back
/// [`DriverFault`](gmlake_alloc_api::AllocError::DriverFault) before the
/// fault surfaces to the caller.
pub(crate) const MAX_FAULT_RETRIES: u64 = 3;

/// Snapshot of one pool's fault-recovery counters
/// (see [`PoolHandle::fault_stats`](crate::PoolHandle::fault_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRecoveryStats {
    /// Allocation attempts that ended in a rolled-back driver fault.
    pub faults: u64,
    /// Retries issued for faulted allocations.
    pub retries: u64,
    /// Always 0: the service runs no OOM rescue. Kept only because the
    /// benchmark reads it as `runtime.rescues`.
    pub rescues: u64,
}
