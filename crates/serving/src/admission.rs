//! Admission control: whether a device accepts a new tenant's quota
//! commitment, and what happens when it is over committed capacity.

use std::collections::VecDeque;

use crate::tenant::TenantId;

/// What to do with a tenant arrival that would push the device's
/// committed quota past its limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse the arrival outright. The cheapest policy, and the only one
    /// that never delays an answer — serving front-ends that can route the
    /// job to another device want this.
    Reject,
    /// Park the arrival in a FIFO queue and retry it at every service
    /// step, up to `max_wait_steps`; past that the arrival times out and
    /// is refused.
    Queue {
        /// Steps an arrival may wait before timing out.
        max_wait_steps: u64,
    },
    /// Evict idle tenants (oldest-idle first, never active ones) until the
    /// arrival fits, then admit it; refuse if shedding every idle tenant
    /// still leaves the device over committed capacity.
    Shed,
}

/// The answer to one tenant arrival (see
/// [`ServingService::offer`](crate::ServingService::offer)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// The tenant is registered and may allocate.
    Admitted(TenantId),
    /// The device refused the arrival (policy [`AdmissionPolicy::Reject`],
    /// or [`AdmissionPolicy::Shed`] with nothing left to shed).
    Rejected,
    /// The arrival is queued; [`ServingService::step`] will admit it when
    /// capacity frees, or time it out.
    ///
    /// [`ServingService::step`]: crate::ServingService::step
    Queued,
    /// Idle tenants were shed to make room, then the tenant was admitted.
    AdmittedAfterShed(TenantId),
}

impl AdmissionVerdict {
    /// The admitted tenant id, if any.
    pub fn tenant(&self) -> Option<TenantId> {
        match self {
            AdmissionVerdict::Admitted(t) | AdmissionVerdict::AdmittedAfterShed(t) => Some(*t),
            _ => None,
        }
    }
}

/// Cumulative admission-control counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Arrivals admitted immediately (including dequeued ones).
    pub admitted: u64,
    /// Arrivals refused outright.
    pub rejected: u64,
    /// Arrivals parked in the queue at least once.
    pub queued: u64,
    /// Queued arrivals that timed out waiting.
    pub queue_timeouts: u64,
    /// Arrivals admitted only after shedding idle tenants.
    pub shed_admits: u64,
    /// Idle tenants evicted by the shed policy.
    pub tenants_shed: u64,
    /// Peak simultaneously-registered tenants.
    pub peak_tenants: u64,
}

/// One parked arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueuedArrival {
    /// The quota the arrival asked to commit.
    pub quota_bytes: u64,
    /// The step the arrival was first queued at.
    pub queued_at: u64,
}

/// Commitment-capacity bookkeeping plus the waiting queue. The controller
/// decides *whether* an arrival fits; the
/// [`ServingService`](crate::ServingService) owns the side effects
/// (registering tenants, shedding, telemetry).
#[derive(Debug)]
pub(crate) struct AdmissionController {
    /// Committed-quota ceiling: device capacity × overcommit factor.
    pub limit_bytes: u64,
    pub policy: AdmissionPolicy,
    pub queue: VecDeque<QueuedArrival>,
    pub stats: AdmissionStats,
}

impl AdmissionController {
    pub fn new(limit_bytes: u64, policy: AdmissionPolicy) -> Self {
        AdmissionController {
            limit_bytes,
            policy,
            queue: VecDeque::new(),
            stats: AdmissionStats::default(),
        }
    }

    /// Whether a `quota_bytes` commitment fits under the limit given the
    /// currently committed total. A sum past `u64::MAX` never fits.
    pub fn fits(&self, committed: u64, quota_bytes: u64) -> bool {
        committed
            .checked_add(quota_bytes)
            .is_some_and(|total| total <= self.limit_bytes)
    }

    /// Drops queued arrivals older than `max_wait` steps, counting each as
    /// a timeout; returns them for telemetry.
    pub fn expire(&mut self, now_step: u64, max_wait: u64) -> Vec<QueuedArrival> {
        let mut expired = Vec::new();
        self.queue.retain(|q| {
            if now_step.saturating_sub(q.queued_at) > max_wait {
                expired.push(*q);
                false
            } else {
                true
            }
        });
        self.stats.queue_timeouts += expired.len() as u64;
        expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_is_inclusive_at_the_limit() {
        let c = AdmissionController::new(100, AdmissionPolicy::Reject);
        assert!(c.fits(60, 40));
        assert!(!c.fits(60, 41));
        assert!(c.fits(0, 100));
        assert!(!c.fits(60, u64::MAX), "an overflowing sum never fits");
    }

    #[test]
    fn expire_drops_only_overdue_arrivals_in_order() {
        let mut c = AdmissionController::new(100, AdmissionPolicy::Queue { max_wait_steps: 5 });
        c.queue.push_back(QueuedArrival {
            quota_bytes: 10,
            queued_at: 0,
        });
        c.queue.push_back(QueuedArrival {
            quota_bytes: 20,
            queued_at: 4,
        });
        let expired = c.expire(6, 5);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].quota_bytes, 10);
        assert_eq!(c.queue.len(), 1);
        assert_eq!(c.stats.queue_timeouts, 1);
        assert_eq!(c.expire(6, 5).len(), 0, "idempotent at the same step");
    }

    #[test]
    fn verdict_tenant_extraction() {
        let t = TenantId(3);
        assert_eq!(AdmissionVerdict::Admitted(t).tenant(), Some(t));
        assert_eq!(AdmissionVerdict::AdmittedAfterShed(t).tenant(), Some(t));
        assert_eq!(AdmissionVerdict::Rejected.tenant(), None);
        assert_eq!(AdmissionVerdict::Queued.tenant(), None);
    }
}
