//! Tenant identity, per-tenant byte-quota accounting, and the registry
//! shared by the admission controller and the rescue stage.

use std::fmt;

use gmlake_alloc_api::{AllocationId, IdMap, StreamId};
use parking_lot::Mutex;

/// Identifies one tenant (one serving job) within a
/// [`ServingService`](crate::ServingService).
///
/// Process-unique and never reused: a departed tenant's id stays dead, so
/// a stale handle can never charge a newcomer's budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Read-only snapshot of one tenant's accounting state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantUsage {
    /// The tenant's byte quota (admission-time commitment).
    pub quota_bytes: u64,
    /// Bytes the tenant currently has live, at the allocator's rounded
    /// granularity — this is what quota enforcement compares against.
    pub used_bytes: u64,
    /// Bytes the tenant asked for across its live allocations (before
    /// size-class rounding); `used_bytes - requested_bytes` is the
    /// tenant's internal-fragmentation overhead.
    pub requested_bytes: u64,
    /// Live allocations.
    pub live_allocs: u64,
    /// The logical GPU stream the tenant's traffic rides.
    pub stream: StreamId,
    /// The service step of the tenant's last allocation activity.
    pub last_active_step: u64,
}

impl TenantUsage {
    /// The tenant's internal fragmentation: the fraction of its used bytes
    /// that exist only because of size-class rounding. `0.0` for an idle
    /// tenant with nothing live.
    pub fn fragmentation(&self) -> f64 {
        if self.used_bytes == 0 {
            0.0
        } else {
            1.0 - self.requested_bytes as f64 / self.used_bytes as f64
        }
    }
}

/// One registered tenant.
#[derive(Debug)]
struct TenantState {
    quota: u64,
    used: u64,
    requested: u64,
    /// Live allocations: id → (rounded size, requested size).
    live: IdMap<AllocationId, (u64, u64)>,
    stream: StreamId,
    last_active_step: u64,
}

impl TenantState {
    fn usage(&self) -> TenantUsage {
        TenantUsage {
            quota_bytes: self.quota,
            used_bytes: self.used,
            requested_bytes: self.requested,
            live_allocs: self.live.len() as u64,
            stream: self.stream,
            last_active_step: self.last_active_step,
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    tenants: IdMap<u64, TenantState>,
    next_id: u64,
    /// Sum of registered quotas — the admission controller's commitment
    /// gauge.
    committed: u64,
    next_stream: u64,
}

/// Thread-safe registry of tenants and their byte-quota accounting.
///
/// The registry is pure bookkeeping: it never talks to the allocator.
/// [`ServingService`](crate::ServingService) brackets each pool call with
/// the registry's two-phase charge — `try_reserve` before the allocation
/// (against the *requested* size) and `settle` after it (against the
/// allocator's rounded size), so enforcement is exact even though the
/// rounded size is only known once the pool has answered.
///
/// Tenants sit in a hashed [`IdMap`] keyed by the ids the registry mints,
/// so every charge is one lock and O(1) lookups whatever the tenant
/// count; the readers that promise an order ([`TenantRegistry::usages`],
/// the idle list) sort.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    inner: Mutex<RegistryInner>,
    /// Stream banks to round-robin tenants across (fixed at construction).
    streams: u64,
}

/// Why a [`TenantRegistry::try_reserve`] or [`TenantRegistry::settle`]
/// charge was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChargeError {
    /// The tenant id is not registered (departed or never existed).
    UnknownTenant,
    /// The charge would exceed the quota; carries (used, quota) at the
    /// moment of refusal for an exact error report.
    OverQuota {
        /// Live bytes at refusal time.
        used: u64,
        /// The tenant's quota.
        quota: u64,
    },
}

impl TenantRegistry {
    /// A registry that spreads tenants across `streams` logical GPU
    /// streams round-robin (clamped to at least 1).
    pub fn new(streams: u64) -> Self {
        TenantRegistry {
            inner: Mutex::new(RegistryInner::default()),
            streams: streams.max(1),
        }
    }

    /// Registers a tenant with `quota_bytes`, assigning the next stream
    /// round-robin. Returns the new id and its stream.
    pub fn register(&self, quota_bytes: u64, now_step: u64) -> (TenantId, StreamId) {
        let mut inner = self.inner.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        let stream = StreamId((inner.next_stream % self.streams) as u32);
        inner.next_stream += 1;
        inner.committed += quota_bytes;
        inner.tenants.insert(
            id,
            TenantState {
                quota: quota_bytes,
                used: 0,
                requested: 0,
                live: IdMap::default(),
                stream,
                last_active_step: now_step,
            },
        );
        (TenantId(id), stream)
    }

    /// Removes `tenant`, returning its remaining live allocations as
    /// `(id, rounded size)` pairs (the caller frees them on the pool) and
    /// its stream. `None` if the tenant is unknown.
    pub fn remove(&self, tenant: TenantId) -> Option<(Vec<(AllocationId, u64)>, StreamId)> {
        let mut inner = self.inner.lock();
        let state = inner.tenants.remove(&tenant.0)?;
        inner.committed -= state.quota;
        let live = state
            .live
            .iter()
            .map(|(&id, &(size, _))| (id, size))
            .collect();
        Some((live, state.stream))
    }

    /// Phase 1 of the quota charge: reserves `requested` bytes against the
    /// tenant's quota (refusing exactly at the boundary: a reservation
    /// that would make `used > quota` fails) and marks the tenant active
    /// at `now_step`.
    pub(crate) fn try_reserve(
        &self,
        tenant: TenantId,
        requested: u64,
        now_step: u64,
    ) -> Result<StreamId, ChargeError> {
        let mut inner = self.inner.lock();
        let state = inner
            .tenants
            .get_mut(&tenant.0)
            .ok_or(ChargeError::UnknownTenant)?;
        state.used = state
            .used
            .checked_add(requested)
            .filter(|&used| used <= state.quota)
            .ok_or(ChargeError::OverQuota {
                used: state.used,
                quota: state.quota,
            })?;
        state.last_active_step = now_step;
        Ok(state.stream)
    }

    /// Rolls back a phase-1 reservation after the pool refused the
    /// allocation.
    pub(crate) fn unreserve(&self, tenant: TenantId, requested: u64) {
        if let Some(state) = self.inner.lock().tenants.get_mut(&tenant.0) {
            state.used = state.used.saturating_sub(requested);
        }
    }

    /// Phase 2 of the quota charge: replaces the `requested`-byte
    /// reservation with the allocator's `rounded` size and records the
    /// live allocation. Fails (restoring the pre-reservation state, so
    /// the caller must free `id` on the pool) when the rounding pushed
    /// the tenant past its quota.
    pub(crate) fn settle(
        &self,
        tenant: TenantId,
        id: AllocationId,
        requested: u64,
        rounded: u64,
    ) -> Result<(), ChargeError> {
        let mut inner = self.inner.lock();
        let state = inner
            .tenants
            .get_mut(&tenant.0)
            .ok_or(ChargeError::UnknownTenant)?;
        let settled = state.used - requested + rounded;
        if settled > state.quota {
            state.used -= requested;
            return Err(ChargeError::OverQuota {
                used: state.used,
                quota: state.quota,
            });
        }
        state.used = settled;
        state.requested += requested;
        state.live.insert(id, (rounded, requested));
        Ok(())
    }

    /// Credits a freed allocation back to the tenant. Returns the
    /// `(rounded size, stream)` the free must be issued with, or `None`
    /// when `id` is not live for `tenant` (e.g. already dropped by the
    /// rescue stage).
    pub(crate) fn credit(&self, tenant: TenantId, id: AllocationId) -> Option<(u64, StreamId)> {
        let mut inner = self.inner.lock();
        let state = inner.tenants.get_mut(&tenant.0)?;
        let (size, requested) = state.live.remove(&id)?;
        state.used -= size;
        state.requested -= requested;
        Some((size, state.stream))
    }

    /// Usage snapshot of one tenant.
    pub fn usage(&self, tenant: TenantId) -> Option<TenantUsage> {
        self.inner.lock().tenants.get(&tenant.0).map(|s| s.usage())
    }

    /// Usage snapshots of every tenant, ascending by id.
    pub fn usages(&self) -> Vec<(TenantId, TenantUsage)> {
        let mut usages: Vec<_> = self
            .inner
            .lock()
            .tenants
            .iter()
            .map(|(&id, s)| (TenantId(id), s.usage()))
            .collect();
        usages.sort_unstable_by_key(|&(id, _)| id);
        usages
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.inner.lock().tenants.len()
    }

    /// `true` when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of registered quotas — what admission has committed.
    pub fn committed_bytes(&self) -> u64 {
        self.inner.lock().committed
    }

    /// Sum of live bytes across every tenant.
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().tenants.values().map(|s| s.used).sum()
    }

    /// Tenants idle since before `now_step - idle_after`, oldest first —
    /// the rescue stage's victim order. Tenants active within the window
    /// are never listed.
    pub(crate) fn idle_tenants(&self, now_step: u64, idle_after: u64) -> Vec<TenantId> {
        let inner = self.inner.lock();
        let mut idle: Vec<(u64, u64)> = inner
            .tenants
            .iter()
            .filter(|(_, s)| now_step.saturating_sub(s.last_active_step) >= idle_after)
            .map(|(&id, s)| (s.last_active_step, id))
            .collect();
        idle.sort_unstable();
        idle.into_iter().map(|(_, id)| TenantId(id)).collect()
    }

    /// Drops every live allocation of `tenant` from the books (the caller
    /// frees them on the pool), returning the `(id, rounded size)` pairs
    /// and the tenant's stream. The tenant stays registered with an empty
    /// working set. `None` for unknown tenants.
    pub(crate) fn drop_live(
        &self,
        tenant: TenantId,
    ) -> Option<(Vec<(AllocationId, u64)>, StreamId)> {
        let mut inner = self.inner.lock();
        let state = inner.tenants.get_mut(&tenant.0)?;
        let live: Vec<(AllocationId, u64)> = state
            .live
            .drain()
            .map(|(id, (size, _))| (id, size))
            .collect();
        state.used = 0;
        state.requested = 0;
        Some((live, state.stream))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_round_robin_streams_and_commits_quota() {
        let reg = TenantRegistry::new(2);
        let (a, sa) = reg.register(100, 0);
        let (b, sb) = reg.register(200, 0);
        let (_c, sc) = reg.register(300, 0);
        assert_ne!(a, b);
        assert_eq!(sa, StreamId(0));
        assert_eq!(sb, StreamId(1));
        assert_eq!(sc, StreamId(0), "round-robin wraps");
        assert_eq!(reg.committed_bytes(), 600);
        assert_eq!(reg.len(), 3);
        reg.remove(b).unwrap();
        assert_eq!(reg.committed_bytes(), 400);
        assert!(reg.remove(b).is_none(), "ids are never reused");
    }

    #[test]
    fn two_phase_charge_is_exact_at_the_boundary() {
        let reg = TenantRegistry::new(1);
        let (t, _) = reg.register(100, 0);
        // Reserve exactly up to the quota: allowed.
        reg.try_reserve(t, 100, 1).unwrap();
        assert_eq!(
            reg.try_reserve(t, 1, 1),
            Err(ChargeError::OverQuota {
                used: 100,
                quota: 100
            })
        );
        // Settling at the reserved size records the live allocation.
        reg.settle(t, AllocationId::new(1), 100, 100).unwrap();
        let u = reg.usage(t).unwrap();
        assert_eq!((u.used_bytes, u.live_allocs), (100, 1));
        // Credit restores headroom.
        assert_eq!(
            reg.credit(t, AllocationId::new(1)),
            Some((100, StreamId(0)))
        );
        assert_eq!(reg.usage(t).unwrap().used_bytes, 0);
    }

    #[test]
    fn settle_rejects_rounding_past_the_quota_and_restores_state() {
        let reg = TenantRegistry::new(1);
        let (t, _) = reg.register(100, 0);
        reg.try_reserve(t, 90, 1).unwrap();
        // The allocator rounded 90 up to 128: over quota; the reservation
        // is rolled back entirely.
        assert_eq!(
            reg.settle(t, AllocationId::new(1), 90, 128),
            Err(ChargeError::OverQuota {
                used: 0,
                quota: 100
            })
        );
        let u = reg.usage(t).unwrap();
        assert_eq!((u.used_bytes, u.requested_bytes, u.live_allocs), (0, 0, 0));
    }

    #[test]
    fn idle_order_is_oldest_first_and_spares_active_tenants() {
        let reg = TenantRegistry::new(1);
        let (a, _) = reg.register(100, 0);
        let (b, _) = reg.register(100, 0);
        let (c, _) = reg.register(100, 0);
        // b active at step 5, a at step 2, c never after registration.
        reg.try_reserve(a, 1, 2).unwrap();
        reg.try_reserve(b, 1, 5).unwrap();
        assert_eq!(reg.idle_tenants(10, 6), vec![c, a]);
        assert_eq!(reg.idle_tenants(10, 100), Vec::<TenantId>::new());
    }

    #[test]
    fn readers_keep_their_order_through_interleaved_offers_and_departs() {
        let reg = TenantRegistry::new(2);
        let mut live = Vec::new();
        for step in 0..40u64 {
            let (t, _) = reg.register(100, step);
            live.push(t);
            if step % 3 == 2 {
                // Depart from the middle, so ids leave out of order.
                reg.remove(live.remove(live.len() / 2)).unwrap();
            }
            if step % 4 == 1 {
                // Touch an older tenant, so activity and id orders differ.
                reg.try_reserve(live[0], 1, step).unwrap();
            }
        }
        let ids: Vec<TenantId> = reg.usages().into_iter().map(|(id, _)| id).collect();
        let mut sorted = live.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "usages() is ascending by id");
        let idle = reg.idle_tenants(100, 0);
        let key = |t: &TenantId| (reg.usage(*t).unwrap().last_active_step, t.0);
        assert_eq!(idle.len(), live.len());
        assert!(
            idle.windows(2).all(|w| key(&w[0]) < key(&w[1])),
            "idle list is in (last active step, id) order"
        );
    }

    #[test]
    fn quota_charge_past_u64_max_is_refused() {
        let reg = TenantRegistry::new(1);
        let (t, _) = reg.register(16 << 20, 0);
        reg.try_reserve(t, 4 << 20, 1).unwrap();
        reg.settle(t, AllocationId::new(1), 4 << 20, 4 << 20)
            .unwrap();
        assert_eq!(
            reg.try_reserve(t, u64::MAX - (1 << 20), 2),
            Err(ChargeError::OverQuota {
                used: 4 << 20,
                quota: 16 << 20
            })
        );
        let u = reg.usage(t).unwrap();
        assert_eq!(
            (u.used_bytes, u.live_allocs, u.last_active_step),
            (4 << 20, 1, 1)
        );
    }

    #[test]
    fn drop_live_empties_the_books_but_keeps_the_tenant() {
        let reg = TenantRegistry::new(1);
        let (t, _) = reg.register(100, 0);
        reg.try_reserve(t, 30, 1).unwrap();
        reg.settle(t, AllocationId::new(7), 30, 32).unwrap();
        let (live, _) = reg.drop_live(t).unwrap();
        assert_eq!(live, vec![(AllocationId::new(7), 32)]);
        assert_eq!(reg.usage(t).unwrap().used_bytes, 0);
        assert_eq!(reg.len(), 1, "evicted, not departed");
        assert_eq!(reg.credit(t, AllocationId::new(7)), None, "already dropped");
    }

    #[test]
    fn usage_fragmentation_measures_rounding_waste() {
        let reg = TenantRegistry::new(1);
        let (t, _) = reg.register(1000, 0);
        reg.try_reserve(t, 96, 1).unwrap();
        reg.settle(t, AllocationId::new(1), 96, 128).unwrap();
        let u = reg.usage(t).unwrap();
        assert!((u.fragmentation() - 0.25).abs() < 1e-9);
    }
}
