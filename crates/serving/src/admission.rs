//! Admission control: whether a device accepts a new tenant's quota
//! commitment. One rule: an arrival that fits under the committed-quota
//! ceiling is admitted; one that does not sheds idle tenants, oldest-idle
//! first, until it fits, and is refused if shedding every idle tenant
//! still leaves it over.

use crate::tenant::TenantId;

/// The name of serving's one admission rule. Kept because the benchmark
/// package still states it through
/// [`ServingConfig::with_policy`](crate::ServingConfig::with_policy); it
/// retires at ROADMAP item 11(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
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
    /// The device refused the arrival: nothing idle was left to shed.
    Rejected,
    /// Never returned: serving queues no arrival. Kept because the
    /// benchmark package still matches on it; it retires at ROADMAP item
    /// 11(a).
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
    /// Arrivals admitted (immediately or after a shed).
    pub admitted: u64,
    /// Arrivals refused.
    pub rejected: u64,
    /// Arrivals admitted only after shedding idle tenants.
    pub shed_admits: u64,
    /// Idle tenants evicted to admit an arrival.
    pub tenants_shed: u64,
    /// Peak simultaneously-registered tenants.
    pub peak_tenants: u64,
}

/// Commitment-capacity bookkeeping. The controller decides *whether* an
/// arrival fits; the [`ServingService`](crate::ServingService) owns the
/// side effects (registering tenants, shedding, telemetry).
#[derive(Debug)]
pub(crate) struct AdmissionController {
    /// Committed-quota ceiling: device capacity × overcommit factor.
    pub limit_bytes: u64,
    pub stats: AdmissionStats,
}

impl AdmissionController {
    pub fn new(limit_bytes: u64) -> Self {
        AdmissionController {
            limit_bytes,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_is_inclusive_at_the_limit() {
        let c = AdmissionController::new(100);
        assert!(c.fits(60, 40));
        assert!(!c.fits(60, 41));
        assert!(c.fits(0, 100));
        assert!(!c.fits(60, u64::MAX), "an overflowing sum never fits");
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
