//! Property and stress tests for the serving layer's quota accounting:
//! the per-tenant books must reconcile *exactly* with the pool's
//! `MemStats` at quiescence, through every path — size-class rounding,
//! quota refusals, cross-stream frees handed to the core, tenant
//! departures, and concurrent tenants hammering one pool.

use proptest::prelude::*;

use gmlake::prelude::*;
use gmlake_serving::{ServingConfig, ServingService, TenantId};

/// Tenants driven by the random programs.
const TENANTS: usize = 3;
/// Per-tenant quota; small enough that programs hit `QuotaExceeded`.
const QUOTA: u64 = 8 * 1024 * 1024;

/// One step of a random serving program.
#[derive(Debug, Clone)]
enum Op {
    /// Tenant (mod live tenants) allocates this many bytes.
    Alloc(usize, u64),
    /// Tenant frees its n-th (mod count) live allocation from its own
    /// stream.
    Free(usize, usize),
    /// Tenant frees its n-th live allocation from a *different* stream —
    /// the cross-stream path through the core.
    FreeCross(usize, usize),
    /// Advance the service step (queue retries + the defrag pass).
    Step,
    /// Tenant departs (its remaining allocations are freed by the
    /// service; later ops on it must be refused).
    Depart(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..TENANTS, 4096u64..2 * 1024 * 1024).prop_map(|(t, s)| Op::Alloc(t, s)),
        4 => (0..TENANTS, any::<usize>()).prop_map(|(t, n)| Op::Free(t, n)),
        2 => (0..TENANTS, any::<usize>()).prop_map(|(t, n)| Op::FreeCross(t, n)),
        1 => Just(Op::Step),
        1 => (0..TENANTS).prop_map(Op::Depart),
    ]
}

fn serving_fixture() -> ServingService {
    let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    serving_over(Box::new(CachingAllocator::new(driver)))
}

fn serving_over(core: Box<dyn AllocatorCore + Send>) -> ServingService {
    let pool = PoolService::new()
        .register(DeviceId(0), core)
        .expect("fresh service");
    ServingService::new(
        pool,
        ServingConfig::new(mib(256))
            .with_streams(2)
            .with_idle_after(1_000_000),
    )
}

/// Book-keeping mirror of one tenant: what the registry *should* say.
#[derive(Default)]
struct Mirror {
    live: Vec<(AllocationId, u64)>,
    departed: bool,
}

impl Mirror {
    fn used(&self) -> u64 {
        self.live.iter().map(|(_, s)| s).sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs over several tenants: after every op the registry
    /// agrees with an independent mirror, the pool never reports less
    /// active memory than the tenants hold, and at quiescence both books
    /// read exactly zero.
    #[test]
    fn tenant_books_reconcile_with_pool_stats(
        ops in prop::collection::vec(op_strategy(), 1..140)
    ) {
        let serving = serving_fixture();
        let ids: Vec<TenantId> = (0..TENANTS)
            .map(|_| serving.offer(QUOTA).tenant().expect("fits"))
            .collect();
        let mut mirrors: Vec<Mirror> = (0..TENANTS).map(|_| Mirror::default()).collect();

        for op in &ops {
            match *op {
                Op::Alloc(t, bytes) => {
                    let m = &mut mirrors[t];
                    match serving.alloc(ids[t], bytes) {
                        Ok(a) => {
                            prop_assert!(!m.departed, "departed tenant allocated");
                            prop_assert!(a.size >= bytes);
                            prop_assert!(m.used() + a.size <= QUOTA, "quota breached");
                            m.live.push((a.id, a.size));
                        }
                        Err(AllocError::QuotaExceeded { used, quota, .. }) => {
                            prop_assert_eq!(used, m.used(), "exact usage in the error");
                            prop_assert_eq!(quota, QUOTA);
                        }
                        Err(AllocError::InvalidConfig(_)) => {
                            prop_assert!(m.departed, "only departed tenants are unknown");
                        }
                        Err(e) => panic!("alloc: {e}"),
                    }
                }
                Op::Free(t, n) | Op::FreeCross(t, n) => {
                    let m = &mut mirrors[t];
                    if m.live.is_empty() {
                        continue;
                    }
                    let (id, _) = m.live.swap_remove(n % m.live.len());
                    let res = if matches!(op, Op::FreeCross(..)) {
                        // Issue the free from the *other* stream of the
                        // two-stream service: for half the tenants this is
                        // a genuine cross-stream free, which the front-end
                        // hands to the core.
                        serving.free_from(ids[t], id, StreamId((t as u32 + 1) % 2))
                    } else {
                        serving.free(ids[t], id)
                    };
                    res.unwrap_or_else(|e| panic!("free: {e}"));
                }
                Op::Step => {
                    serving.step();
                }
                Op::Depart(t) => {
                    let m = &mut mirrors[t];
                    let released = serving.depart(ids[t]);
                    if m.departed {
                        prop_assert_eq!(released, None, "double departure");
                    } else {
                        prop_assert_eq!(released, Some(m.used()), "departure frees the rest");
                        m.live.clear();
                        m.departed = true;
                    }
                }
            }
            // The registry reconciles with the mirror after every op...
            for (t, m) in mirrors.iter().enumerate() {
                match serving.usage(ids[t]) {
                    Some(u) => {
                        prop_assert_eq!(u.used_bytes, m.used());
                        prop_assert_eq!(u.live_allocs, m.live.len() as u64);
                    }
                    None => prop_assert!(m.departed),
                }
            }
            let held: u64 = mirrors.iter().map(Mirror::used).sum();
            prop_assert_eq!(serving.used_bytes(), held);
            // ...and the pool can only hold MORE than the tenants (cached
            // blocks), never less.
            prop_assert!(serving.pool().stats().active_bytes >= held);
        }

        // Quiescence: free every survivor, retire the event stamps, and
        // both books must read exactly zero.
        for (t, m) in mirrors.iter_mut().enumerate() {
            for (id, _) in m.live.drain(..) {
                serving.free(ids[t], id).unwrap();
            }
        }
        serving.pool().process_events();
        prop_assert_eq!(serving.used_bytes(), 0);
        let stats = serving.pool().stats();
        prop_assert_eq!(stats.active_bytes, 0, "pool and registry agree at quiescence");
    }
}

/// Many threads, one GMLake pool: each tenant thread owns a tenant and
/// churns allocations (with cross-stream frees mixed in) while others do
/// the same and one more thread steps the service. At the end every
/// tenant's books must match its thread's local count exactly, the pool
/// must drain to zero and its indexes must validate.
#[test]
fn concurrent_tenants_reconcile_exactly() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 300;
    const STEPS: u64 = 200;

    let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    let serving = serving_over(Box::new(GmLakeAllocator::new(
        driver,
        GmLakeConfig::default().with_frag_limit(mib(2)),
    )));
    // A ninth thread steps the service underneath the tenants, so every
    // step's `process_events` + `compact` races their allocs and frees.
    let stepper = {
        let serving = serving.clone();
        std::thread::spawn(move || {
            for _ in 0..STEPS {
                serving.step();
                std::thread::yield_now();
            }
        })
    };
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let serving = serving.clone();
        handles.push(std::thread::spawn(move || {
            let tenant = serving.offer(QUOTA).tenant().expect("fits");
            let mut live: Vec<(AllocationId, u64)> = Vec::new();
            // Deterministic per-thread op stream (splitmix-ish).
            let mut x = 0x9E37_79B9u64.wrapping_mul(t as u64 + 1);
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for _ in 0..ROUNDS {
                match next() % 3 {
                    0 | 1 => {
                        let bytes = 4096 + next() % (512 * 1024);
                        match serving.alloc(tenant, bytes) {
                            Ok(a) => live.push((a.id, a.size)),
                            Err(AllocError::QuotaExceeded { .. }) => {
                                // Over budget: free the oldest and move on.
                                if let Some((id, _)) = live.first().copied() {
                                    live.remove(0);
                                    serving.free(tenant, id).unwrap();
                                }
                            }
                            Err(e) => panic!("tenant {t}: {e}"),
                        }
                    }
                    _ => {
                        if !live.is_empty() {
                            let (id, _) = live.swap_remove((next() as usize) % live.len());
                            if next() % 4 == 0 {
                                serving
                                    .free_from(tenant, id, StreamId((t as u32 + 1) % 2))
                                    .unwrap();
                            } else {
                                serving.free(tenant, id).unwrap();
                            }
                        }
                    }
                }
            }
            let held: u64 = live.iter().map(|(_, s)| s).sum();
            (tenant, live, held)
        }));
    }

    stepper.join().expect("the stepping thread may not panic");
    assert_eq!(serving.steps(), STEPS);
    assert_eq!(serving.defrag_stats().aggressive_passes, STEPS);
    let mut total_held = 0;
    let mut survivors = Vec::new();
    for h in handles {
        let (tenant, live, held) = h.join().expect("no tenant thread may panic");
        let usage = serving.usage(tenant).expect("still registered");
        assert_eq!(usage.used_bytes, held, "tenant books match the thread's");
        assert_eq!(usage.live_allocs, live.len() as u64);
        total_held += held;
        survivors.push((tenant, live));
    }
    assert_eq!(serving.used_bytes(), total_held);
    assert!(serving.pool().stats().active_bytes >= total_held);

    // Drain through departure (the service frees the remainder).
    for (tenant, _) in survivors {
        serving.depart(tenant);
    }
    serving.pool().process_events();
    assert_eq!(serving.used_bytes(), 0);
    assert_eq!(serving.pool().stats().active_bytes, 0);
    assert_eq!(serving.tenant_count(), 0);
    serving
        .pool()
        .allocator()
        .with_core_as(|lake: &mut GmLakeAllocator| lake.validate())
        .expect("a GMLake pool")
        .unwrap();
}

/// A request whose quota charge would pass `u64::MAX` is refused by the
/// registry, not wrapped into the quota and then refused by the pool: the
/// tenant's books stay exactly what its one live allocation charged.
#[test]
fn request_past_u64_max_is_refused_with_exact_books() {
    let serving = serving_fixture();
    let tenant = serving.offer(mib(16)).tenant().expect("fits");
    let a = serving.alloc(tenant, mib(4)).unwrap();
    let before = serving.usage(tenant).unwrap();
    let err = serving.alloc(tenant, u64::MAX - mib(1)).unwrap_err();
    assert!(
        matches!(
            err,
            AllocError::QuotaExceeded {
                used,
                quota,
                ..
            } if used == a.size && quota == mib(16)
        ),
        "{err}"
    );
    let after = serving.usage(tenant).unwrap();
    assert_eq!(
        after, before,
        "a refused charge leaves the books as they were"
    );
    assert_eq!((after.used_bytes, after.live_allocs), (a.size, 1));
    assert_eq!(serving.used_bytes(), serving.pool().stats().active_bytes);
    serving.free(tenant, a.id).unwrap();
    assert_eq!(serving.usage(tenant).unwrap().used_bytes, 0);
    assert_eq!(serving.pool().stats().active_bytes, 0);
}
