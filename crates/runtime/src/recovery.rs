//! Fault recovery for the pool service: a bounded retry for rolled-back
//! driver faults and the staged OOM rescue pipeline.
//!
//! The allocator cores below the service are *transactional*: a driver
//! call that fails mid-operation is unwound and surfaces as
//! [`AllocError::DriverFault`](gmlake_alloc_api::AllocError::DriverFault)
//! with the pool exactly as it was. That makes a retry legitimate:
//!
//! * a **driver fault** is retried at once, up to [`MAX_FAULT_RETRIES`]
//!   times, and then surfaces. There is no backoff: a fault plan counts
//!   driver calls, not time, so waiting cannot change what a retry
//!   returns;
//! * **out-of-memory** runs a staged rescue pipeline — flush the stream
//!   caches, retire the core's completed event stamps, compact, then the
//!   owner-installed [`RescueHook`] (if any) — retrying after every stage
//!   that made progress.
//!
//! There is no circuit breaker that turns stitching off after repeated
//! faults: a stitch issues a subset of the driver calls a fresh block
//! does, so serving without stitching can never dodge a fault that
//! stitching hits (`docs/fault-model.md`).

/// Retries of an allocation that failed with a rolled-back
/// [`DriverFault`](gmlake_alloc_api::AllocError::DriverFault) before the
/// fault surfaces to the caller.
pub(crate) const MAX_FAULT_RETRIES: u64 = 3;

/// A pool-owner-supplied reclamation stage in the staged OOM rescue
/// pipeline (installed via
/// [`PoolHandle::set_rescue_hook`](crate::PoolHandle::set_rescue_hook)).
///
/// The service's built-in stages (flush, drain, compact) only see the
/// failing pool's own memory. The owner knows more: the serving
/// subsystem's tenant registry knows which cached bytes belong to
/// *whom* and can release idle tenants' working sets before an
/// out-of-memory error reaches an active one, and a process running
/// several pools on one device can release a sibling pool's cache. The
/// hook runs as stage 4, the last, after the pool-local stages.
///
/// `needed` is the size of the failing request in bytes. Return the
/// number of bytes the hook released (an estimate is fine — any non-zero
/// return triggers a retry of the allocation). Must not allocate on the
/// pool it rescues and must not block: the failing caller is waiting.
pub trait RescueHook: Send + Sync + std::fmt::Debug {
    /// Tries to release at least `needed` bytes; returns bytes released.
    fn rescue(&self, needed: u64) -> u64;
}

/// Snapshot of one pool's fault-recovery counters
/// (see [`PoolHandle::fault_stats`](crate::PoolHandle::fault_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRecoveryStats {
    /// Allocation attempts that ended in a rolled-back driver fault.
    pub faults: u64,
    /// Retries issued for faulted allocations.
    pub retries: u64,
    /// Allocations saved by the staged OOM rescue pipeline.
    pub rescues: u64,
}
