//! Structured trace records.
//!
//! Every record is a fixed-size [`Event`]: a timestamp, a [`EventKind`]
//! discriminant, a byte count, and two kind-specific payload words. Keeping
//! the record `Copy` and pointer-free means the recorder's ring buffers
//! never allocate on the hot path.

/// What happened. The `bytes`/`a`/`b` payload meaning is per-kind; see
/// each variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// An allocation was served. `bytes` = size, `a` = stream id.
    Alloc,
    /// An allocation was returned. `bytes` = size, `a` = stream id.
    Free,
    /// `DeviceAllocator` served a small alloc from a stream's cache (the
    /// snapshot name `shard_hit` is schema and predates the per-stream
    /// caches). `bytes` = size class, `a` = stream id.
    ShardHit,
    /// `DeviceAllocator` missed a stream's cache and fell through to the
    /// wrapped core. `bytes` = size class, `a` = stream id.
    ShardMiss,
    /// Core BestFit classified a large request. `bytes` = aligned request
    /// size, `a` = tier chosen (1 exact, 2 single, 3 multiple,
    /// 4 insufficient), `b` = candidate pBlocks probed.
    StitchDecision,
    /// pBlocks were stitched into a new sBlock. `bytes` = stitched size,
    /// `a` = parts count.
    Stitch,
    /// A pBlock was split. `bytes` = original size, `a` = carved size.
    Split,
    /// A cached sBlock/pBlock was evicted to enforce pool capacity.
    /// `bytes` = freed size.
    Evict,
    /// A defrag/compact pass ran. `bytes` = bytes released.
    Defrag,
    /// The driver's fault-injection layer fired. `a` = faulted-op index
    /// (`FaultOp::index`), `b` = cumulative injected-fault count.
    FaultInjected,
    /// One stage of the runtime's staged OOM-rescue pipeline ran.
    /// `bytes` = bytes released by the stage, `a` = stage index
    /// (1 flush, 2 drain, 3 compact, 4 tenant rescue hook, 5 cross-pool),
    /// `b` = 1 when the subsequent retry succeeded.
    RescueStage,
    /// The stitch circuit breaker changed state. `a` = 1 opened (stitching
    /// disabled), 0 closed (re-enabled); `b` = consecutive faults observed.
    BreakerTrip,
    /// The serving admission controller ruled on a tenant. `bytes` =
    /// requested quota, `a` = tenant id, `b` = verdict (0 admitted,
    /// 1 rejected, 2 queued, 3 shed-then-admitted, 4 queue timeout).
    TenantAdmission,
    /// A tenant arrived at or departed from a serving pool. `bytes` =
    /// tenant quota, `a` = tenant id, `b` = 1 arrival, 0 departure.
    TenantChurn,
    /// An idle tenant's resident memory was reclaimed by the tenant-aware
    /// rescue/shed path. `bytes` = bytes reclaimed, `a` = tenant id,
    /// `b` = live allocations dropped.
    TenantEvict,
    /// A planned core served an allocation straight from its static plan
    /// (no driver call). `bytes` = size, `a` = plan slot index,
    /// `b` = stream id.
    PlanHit,
    /// A planned core routed a request to its reactive fallback (size or
    /// stream not in the plan, slot space-blocked, or mid-iteration
    /// growth). `bytes` = size, `a` = stream id, `b` = 0 alloc / 1 free.
    PlanResidue,
    /// A planned core discarded its plan and returned to recording.
    /// `bytes` = arena bytes released, `a` = cumulative replan count.
    Replan,
}

impl EventKind {
    /// Every kind, in declaration order (schema validation walks this).
    pub const ALL: [EventKind; 18] = [
        EventKind::Alloc,
        EventKind::Free,
        EventKind::ShardHit,
        EventKind::ShardMiss,
        EventKind::StitchDecision,
        EventKind::Stitch,
        EventKind::Split,
        EventKind::Evict,
        EventKind::Defrag,
        EventKind::FaultInjected,
        EventKind::RescueStage,
        EventKind::BreakerTrip,
        EventKind::TenantAdmission,
        EventKind::TenantChurn,
        EventKind::TenantEvict,
        EventKind::PlanHit,
        EventKind::PlanResidue,
        EventKind::Replan,
    ];

    /// Stable wire name used in snapshots and chrome traces.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Alloc => "alloc",
            EventKind::Free => "free",
            EventKind::ShardHit => "shard_hit",
            EventKind::ShardMiss => "shard_miss",
            EventKind::StitchDecision => "stitch_decision",
            EventKind::Stitch => "stitch",
            EventKind::Split => "split",
            EventKind::Evict => "evict",
            EventKind::Defrag => "defrag",
            EventKind::FaultInjected => "fault_injected",
            EventKind::RescueStage => "rescue_stage",
            EventKind::BreakerTrip => "breaker_trip",
            EventKind::TenantAdmission => "tenant_admission",
            EventKind::TenantChurn => "tenant_churn",
            EventKind::TenantEvict => "tenant_evict",
            EventKind::PlanHit => "plan_hit",
            EventKind::PlanResidue => "plan_residue",
            EventKind::Replan => "replan",
        }
    }

    /// Inverse of [`EventKind::as_str`]; `None` for unknown names.
    pub fn parse(name: &str) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|k| k.as_str() == name)
    }
}

/// One trace record. `ts_ns` comes from the attached
/// [`TelemetryClock`](crate::TelemetryClock) (the sim clock in this
/// workspace) or from a per-pool sequence counter when no clock is set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Timestamp, simulated nanoseconds (or a sequence number without a
    /// clock — still totally ordered per pool).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Size payload; see [`EventKind`] for the per-kind meaning.
    pub bytes: u64,
    /// First kind-specific payload word.
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in EventKind::ALL {
            assert_eq!(EventKind::parse(k.as_str()), Some(k));
            assert!(seen.insert(k.as_str()), "duplicate name {}", k.as_str());
        }
        assert_eq!(EventKind::parse("not_a_kind"), None);
    }
}
