//! Property and stress tests for the serving layer's quota accounting:
//! the per-tenant books must reconcile *exactly* with the pool's
//! `MemStats` at quiescence, through every path — size-class rounding,
//! quota refusals, tenant departures, concurrent tenants hammering one
//! pool, and a seeded 100-tenant churn plan on one simulated A100-80G.

use std::collections::BTreeMap;

use proptest::prelude::*;

use gmlake::prelude::*;
use gmlake::workload::{ServingPlan, ServingWorkloadConfig};
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
    /// Tenant frees its n-th (mod count) live allocation.
    Free(usize, usize),
    /// Advance the service step (the defrag pass).
    Step,
    /// Tenant departs (its remaining allocations are freed by the
    /// service; later ops on it must be refused).
    Depart(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..TENANTS, 4096u64..2 * 1024 * 1024).prop_map(|(t, s)| Op::Alloc(t, s)),
        6 => (0..TENANTS, any::<usize>()).prop_map(|(t, n)| Op::Free(t, n)),
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
                Op::Free(t, n) => {
                    let m = &mut mirrors[t];
                    if m.live.is_empty() {
                        continue;
                    }
                    let (id, _) = m.live.swap_remove(n % m.live.len());
                    serving
                        .free(ids[t], id)
                        .unwrap_or_else(|e| panic!("free: {e}"));
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
/// churns allocations while others do the same and one more thread steps
/// the service. At the end every
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
                            serving.free(tenant, id).unwrap();
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

/// Replay state of one admitted tenant of a [`ServingPlan`].
struct Replayed {
    id: TenantId,
    depart_at: u64,
    plan_idx: usize,
    resident: Vec<AllocationId>,
    transient: Vec<AllocationId>,
}

/// What a plan replay counts: allocation attempts refused for quota at the
/// reserve phase (`requested` is the request) and at the settle phase
/// (`requested` is the rounded size the pool handed out), and device OOMs.
#[derive(Debug, Default)]
struct ReplayCounts {
    reserve_refusals: u64,
    settle_refusals: u64,
    oom_failures: u64,
    peak_tenants: u64,
}

/// One allocation attempt of a replay, its failure classified.
fn replay_alloc(
    serving: &ServingService,
    tenant: TenantId,
    bytes: u64,
    counts: &mut ReplayCounts,
) -> Option<AllocationId> {
    match serving.alloc(tenant, bytes) {
        Ok(a) => Some(a.id),
        Err(AllocError::QuotaExceeded { requested, .. }) if requested == bytes => {
            counts.reserve_refusals += 1;
            None
        }
        Err(AllocError::QuotaExceeded { .. }) => {
            counts.settle_refusals += 1;
            None
        }
        Err(AllocError::OutOfMemory { .. }) => {
            counts.oom_failures += 1;
            None
        }
        Err(_) => None,
    }
}

/// Replays `plan` through `serving`. Per step: offer the arrivals due,
/// then, by ascending tenant id, free each tenant's previous-step requests,
/// depart it at the end of its lifetime, or else (re-)pin its resident set
/// if it has none live (first step, or after an OOM eviction dropped it)
/// and issue this step's requests; then run the departures and the step.
/// The survivors depart at the end.
fn replay(plan: &ServingPlan, serving: &ServingService) -> ReplayCounts {
    let mut counts = ReplayCounts::default();
    let mut live: BTreeMap<u64, Replayed> = BTreeMap::new();
    let mut next_arrival = 0;
    for step in 0..plan.steps() {
        while let Some(planned) = plan.tenants.get(next_arrival) {
            if planned.arrive_step > step {
                break;
            }
            if let Some(id) = serving.offer(planned.quota_bytes).tenant() {
                live.insert(
                    id.0,
                    Replayed {
                        id,
                        depart_at: step + planned.lifetime_steps,
                        plan_idx: next_arrival,
                        resident: Vec::new(),
                        transient: Vec::new(),
                    },
                );
            }
            next_arrival += 1;
        }
        counts.peak_tenants = counts.peak_tenants.max(live.len() as u64);
        let mut departures = Vec::new();
        for (&tid, t) in live.iter_mut() {
            let planned = &plan.tenants[t.plan_idx];
            for id in t.transient.drain(..) {
                let _ = serving.free(t.id, id);
            }
            if step + 1 >= t.depart_at {
                departures.push(tid);
                continue;
            }
            if t.resident.is_empty() || serving.usage(t.id).map_or(0, |u| u.used_bytes) == 0 {
                t.resident.clear();
                for &size in &planned.resident {
                    match replay_alloc(serving, t.id, size, &mut counts) {
                        Some(id) => t.resident.push(id),
                        None => break,
                    }
                }
            }
            for _ in 0..planned.requests_per_step {
                if let Some(id) = replay_alloc(serving, t.id, planned.request_bytes, &mut counts) {
                    t.transient.push(id);
                }
            }
        }
        for tid in departures {
            serving.depart(live.remove(&tid).expect("departing").id);
        }
        serving.step();
    }
    for t in live.into_values() {
        serving.depart(t.id);
    }
    counts
}

/// The serving subsystem's acceptance floor: on one simulated A100-80G a
/// GMLake pool multiplexes at least 100 simultaneous tenants of this
/// seeded plan, and no device-level OOM leaks past the idle-tenant
/// eviction.
#[test]
fn seeded_churn_sustains_100_tenants_on_one_device_without_oom() {
    let driver = CudaDriver::new(DeviceConfig::a100_80g().with_backing(false));
    let pool = PoolService::new()
        .register(
            DeviceId(0),
            Box::new(GmLakeAllocator::new(
                driver,
                GmLakeConfig::default().with_frag_limit(mib(32)),
            )),
        )
        .expect("fresh service");
    let serving = ServingService::new(
        pool,
        ServingConfig::new(gib(80))
            .with_overcommit(1.5)
            .with_idle_after(8)
            .with_streams(4),
    );
    let plan = ServingPlan::generate(ServingWorkloadConfig {
        seed: 0x5E12_B008,
        steps: 192,
        arrivals_per_step: 2.0,
        mean_lifetime_steps: 96,
        shard_range: (32, 128),
        requests_per_step: (1, 4),
    });
    let counts = replay(&plan, &serving);
    assert!(counts.peak_tenants >= 100, "peak {}", counts.peak_tenants);
    assert_eq!(counts.oom_failures, 0);
    assert_eq!(serving.used_bytes(), 0, "every tenant departed");
    assert_eq!(serving.pool().stats().active_bytes, 0, "pool quiesced");
    // Re-pinned when the core started releasing whole reservations: a
    // pass keeps the idle pieces of a partly live one, merged, so it
    // finds fewer bytes to release (76 778 831 872 at af4688d). And
    // again when the aggressive pass stopped calling `release_cached`:
    // it now returns only reservations stranded below the
    // fragmentation limit and keeps the rest for the next arrivals
    // (76 694 945 792 at eeb7849). And once more when the churn-keyed
    // schedule went and every step began to run the pass: 192 steps,
    // 192 passes where the schedule ran 188 (it skipped steps 1-4,
    // before 8 tenants had arrived); the bytes are unchanged, because
    // those early steps had nothing to give back. And once more when
    // large frees and departures began to run the pass too: 35 046
    // passes, the 192 steps' and 34 854 at large frees and departures.
    // A reservation stranded below the 32 MiB limit now goes back at
    // the free that strands it, where a later request of the same step
    // could take it first, so more bytes go back (3 605 004 288 at
    // 152d990; the cause is read off the release rule, not traced).
    // And once more when `compact`'s limit came to follow the mean
    // request served: an idle reservation below it goes back, so twice
    // the bytes do (15 521 021 952 at 98c1668). Quota refusals fall
    // 15 478 → 12 277 and the tenants' mean fragmentation 0.1629 →
    // 0.1599, so 3 134 more transient requests are served; their frees
    // run 3 047 more passes and departures 4 more (read off the
    // replay's counts; that fewer hand-outs map more than their request
    // and so overrun a quota is inferred, not traced). And once more
    // when an S3 came to close with the smallest idle block it keeps
    // whole instead of a split of the next-largest: quota refusals rise
    // 12 277 → 12 412 and the tenants' mean fragmentation falls 0.1599
    // → 0.1501, so 119 fewer frees and departures run a pass and fewer
    // bytes go back (31 409 045 504 at 309d0f6).
    //
    // The refusals by phase were (6 408, 5 869) at 309d0f6. The rise is
    // all at the reserve phase, and it is hand-outs kept whole: every
    // reserve-phase refusal comes while the tenant holds at least 2 MiB
    // more than it asked for, and none would come at exact sizes.
    // Resident hand-outs kept whole (2 MiB or more over their request)
    // go 306 → 345, and they hold that overrun against the quota for the
    // tenant's life: the reserve-phase refusals of tenants holding one
    // go 3 166 → 3 903, and all but 2 of those would pass without it.
    // Transient hand-outs kept whole go 15 335 → 14 867, and the
    // settle-phase refusals, where the rounded size itself overruns,
    // fall 5 869 → 5 441.
    assert_eq!(
        (counts.reserve_refusals, counts.settle_refusals),
        (6_971, 5_441),
        "quota refusals by phase"
    );
    let defrag = serving.defrag_stats();
    assert_eq!(
        (
            defrag.periodic_passes,
            defrag.aggressive_passes,
            defrag.bytes_reclaimed
        ),
        (0, 37_978, 30_920_409_088),
        "a pass per step, per large free and per departure on this seeded plan"
    );
}
