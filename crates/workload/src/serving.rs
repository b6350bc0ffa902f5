//! Serving workloads: tenant churn over a [`ServingService`].
//!
//! Training traces (the rest of this crate) are iteration-periodic streams
//! from one job that owns the device. Serving is the opposite regime —
//! many small jobs multiplex one device, arriving and departing on their
//! own schedules, each pinning a model working set and churning transient
//! request memory (KV caches, attention scratch) on top of it. The plan
//! generator below produces that regime deterministically from a seed:
//! geometric inter-arrivals, heterogeneous footprints drawn from the
//! model corpus ([`ModelSpec::all`]), geometric lifetimes, per-tenant
//! request rates. The replayer drives a [`ServingService`] through the
//! plan, timing every allocation into a latency [`Histogram`] so the
//! tail (p99/p999) under churn can be gated in CI.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gmlake_alloc_api::{mib, AllocError, AllocationId};
use gmlake_serving::{ServingService, TenantId};
use gmlake_telemetry::{Histogram, HistogramSummary};

use crate::model::ModelSpec;

/// Tuning knobs of the serving plan generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingWorkloadConfig {
    /// RNG seed; equal seeds generate equal plans.
    pub seed: u64,
    /// Service steps the plan spans.
    pub steps: u64,
    /// Expected tenant arrivals per step (a geometric burst per step, so
    /// bursts of several arrivals in one step do occur).
    pub arrivals_per_step: f64,
    /// Expected tenant lifetime in steps (geometric, at least 1).
    pub mean_lifetime_steps: u64,
    /// The model footprint (fp16 parameter bytes) is divided by a shard
    /// factor drawn uniformly from this range — modelling tensor-parallel
    /// shards and quantized variants of the corpus models. Inclusive
    /// bounds, both at least 1.
    pub shard_range: (u64, u64),
    /// Allocation requests each live tenant issues per step (uniform in
    /// the inclusive range).
    pub requests_per_step: (u64, u64),
}

impl Default for ServingWorkloadConfig {
    fn default() -> Self {
        ServingWorkloadConfig {
            seed: 0xA5A5,
            steps: 256,
            arrivals_per_step: 2.0,
            mean_lifetime_steps: 64,
            shard_range: (32, 128),
            requests_per_step: (1, 4),
        }
    }
}

/// One planned tenant: when it arrives, what it commits, how it behaves.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedTenant {
    /// Step the tenant arrives at.
    pub arrive_step: u64,
    /// Steps the tenant stays once admitted (at least 1).
    pub lifetime_steps: u64,
    /// Quota the tenant commits on arrival.
    pub quota_bytes: u64,
    /// Resident working set (model shard weights) pinned on admission,
    /// as allocation sizes.
    pub resident: Vec<u64>,
    /// Transient request allocations issued per step (each freed the
    /// following step — KV-cache churn).
    pub requests_per_step: u64,
    /// Size of one transient request allocation.
    pub request_bytes: u64,
    /// Name of the corpus model the footprint was derived from.
    pub model: String,
}

/// A deterministic, pre-planned serving workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingPlan {
    cfg: ServingWorkloadConfig,
    /// Tenants ordered by `arrive_step`.
    pub tenants: Vec<PlannedTenant>,
}

impl ServingPlan {
    /// Generates the plan for `cfg` (pure function of the config).
    pub fn generate(cfg: ServingWorkloadConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let models = ModelSpec::all();
        let mut tenants = Vec::new();
        let arrive_p = (cfg.arrivals_per_step / (1.0 + cfg.arrivals_per_step)).clamp(0.01, 0.99);
        for step in 0..cfg.steps {
            // Geometric burst: keep flipping while the coin says "another".
            while rng.gen_bool(arrive_p) {
                tenants.push(Self::plan_tenant(&cfg, &mut rng, &models, step));
            }
        }
        ServingPlan { cfg, tenants }
    }

    fn plan_tenant(
        cfg: &ServingWorkloadConfig,
        rng: &mut StdRng,
        models: &[ModelSpec],
        step: u64,
    ) -> PlannedTenant {
        let model = &models[rng.gen_range(0..models.len())];
        let (lo, hi) = cfg.shard_range;
        let shard = rng.gen_range(lo.max(1)..hi.max(lo.max(1)) + 1);
        // fp16 parameters, sharded; layer-block granularity for the
        // resident set so footprints are heterogeneous but structured.
        let footprint = (model.params() * 2 / shard).max(mib(1));
        let block = (footprint / 4).max(mib(1));
        let mut resident = Vec::new();
        let mut left = footprint;
        while left > 0 {
            let take = block.min(left);
            resident.push(take);
            left -= take;
        }
        let (rlo, rhi) = cfg.requests_per_step;
        let requests_per_step = rng.gen_range(rlo..rhi.max(rlo) + 1);
        // Request memory ~ KV-cache slab: a fraction of a resident block.
        let request_bytes = (block / rng.gen_range(4u64..17u64)).max(256 << 10);
        // Quota: working set + request headroom, rounded up to 1 MiB.
        let headroom = request_bytes * (requests_per_step * 2 + 1);
        let quota_bytes = (footprint + headroom).div_ceil(mib(1)) * mib(1);
        let lifetime_steps = 1 + geometric(rng, cfg.mean_lifetime_steps.max(1));
        PlannedTenant {
            arrive_step: step,
            lifetime_steps,
            quota_bytes,
            resident,
            requests_per_step,
            request_bytes,
            model: model.name.clone(),
        }
    }

    /// The config the plan was generated from.
    pub fn config(&self) -> &ServingWorkloadConfig {
        &self.cfg
    }

    /// Steps the plan spans.
    pub fn steps(&self) -> u64 {
        self.cfg.steps
    }
}

/// Geometric sample with mean `mean` (support `0..`).
fn geometric(rng: &mut StdRng, mean: u64) -> u64 {
    let p = 1.0 / (mean as f64 + 1.0);
    let mut n = 0;
    while !rng.gen_bool(p) && n < mean * 20 {
        n += 1;
    }
    n
}

/// What happened when a [`ServingPlan`] was replayed against a service.
#[derive(Debug)]
pub struct ServingReport {
    /// Wall-clock latency of every allocation attempt (resident and
    /// request), nanoseconds.
    pub alloc_latency: Histogram,
    /// Allocation attempts issued.
    pub attempts: u64,
    /// Attempts refused with [`AllocError::QuotaExceeded`].
    pub quota_rejections: u64,
    /// Attempts that failed with a device-level OOM (should stay 0 when
    /// the idle-tenant eviction works).
    pub oom_failures: u64,
    /// Tenant arrivals offered / admitted (immediately or after shed).
    pub offered: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Planned departures executed.
    pub departed: u64,
    /// Peak simultaneously-live tenants observed by the replayer.
    pub peak_tenants: u64,
    /// Mean per-tenant fragmentation (1 − requested/used) over the
    /// tenants still live at the end of the run.
    pub mean_tenant_fragmentation: f64,
}

impl ServingReport {
    /// Latency summary (count/min/mean/percentiles) of all attempts.
    pub fn latency_summary(&self) -> HistogramSummary {
        self.alloc_latency.summary()
    }
}

/// Replays a [`ServingPlan`] against a [`ServingService`], timing every
/// allocation.
///
/// Per step: offer due arrivals (pinning each admitted tenant's resident
/// working set), free the previous step's transient requests, issue this
/// step's, depart tenants whose lifetime expired, then advance
/// [`ServingService::step`]. Evictions on OOM are tolerated:
/// a tenant whose working set was dropped simply re-pins it on its next
/// request burst.
#[derive(Debug)]
pub struct ServingReplayer {
    plan: ServingPlan,
}

/// Live replay state of one admitted tenant.
#[derive(Debug)]
struct LiveTenant {
    id: TenantId,
    depart_at: u64,
    plan_idx: usize,
    resident: Vec<AllocationId>,
    transient: Vec<AllocationId>,
}

impl ServingReplayer {
    /// Creates a replayer for `plan`.
    pub fn new(plan: ServingPlan) -> Self {
        ServingReplayer { plan }
    }

    /// Runs the plan to completion and reports.
    pub fn run(&self, serving: &ServingService) -> ServingReport {
        let mut report = ServingReport {
            alloc_latency: Histogram::new(),
            attempts: 0,
            quota_rejections: 0,
            oom_failures: 0,
            offered: 0,
            admitted: 0,
            departed: 0,
            peak_tenants: 0,
            mean_tenant_fragmentation: 0.0,
        };
        let mut live: HashMap<u64, LiveTenant> = HashMap::new();
        let mut next_arrival = 0usize;
        for step in 0..self.plan.cfg.steps {
            // Arrivals due this step.
            while next_arrival < self.plan.tenants.len()
                && self.plan.tenants[next_arrival].arrive_step <= step
            {
                let planned = &self.plan.tenants[next_arrival];
                report.offered += 1;
                // Queued arrivals are simply lost to this replayer.
                if let Some(id) = serving.offer(planned.quota_bytes).tenant() {
                    report.admitted += 1;
                    live.insert(
                        id.0,
                        LiveTenant {
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
            report.peak_tenants = report.peak_tenants.max(live.len() as u64);

            // Per-tenant work, ascending tenant id for determinism.
            let mut ids: Vec<u64> = live.keys().copied().collect();
            ids.sort_unstable();
            let mut departures = Vec::new();
            for tid in ids {
                let t = live.get_mut(&tid).expect("live");
                let planned = &self.plan.tenants[t.plan_idx];
                // Previous step's transient requests retire first.
                for id in t.transient.drain(..) {
                    let _ = serving.free(t.id, id);
                }
                if step + 1 >= t.depart_at {
                    departures.push(tid);
                    continue;
                }
                // Re-pin the resident set if missing (first step after
                // admission, or after an OOM eviction dropped it).
                if t.resident.is_empty() || serving.usage(t.id).map_or(0, |u| u.used_bytes) == 0 {
                    t.resident.clear();
                    for &size in &planned.resident {
                        match timed_alloc(serving, t.id, size, &mut report) {
                            Some(a) => t.resident.push(a),
                            None => break,
                        }
                    }
                }
                for _ in 0..planned.requests_per_step {
                    if let Some(a) = timed_alloc(serving, t.id, planned.request_bytes, &mut report)
                    {
                        t.transient.push(a);
                    }
                }
            }
            for tid in departures {
                let t = live.remove(&tid).expect("departing");
                serving.depart(t.id);
                report.departed += 1;
            }
            serving.step();
        }
        // Drain the survivors so the pool quiesces.
        let frags: Vec<f64> = serving
            .usages()
            .iter()
            .map(|(_, u)| u.fragmentation())
            .collect();
        if !frags.is_empty() {
            report.mean_tenant_fragmentation = frags.iter().sum::<f64>() / frags.len() as f64;
        }
        for (_, t) in live.drain() {
            serving.depart(t.id);
            report.departed += 1;
        }
        report
    }
}

/// One timed allocation attempt; failures are classified into the report.
fn timed_alloc(
    serving: &ServingService,
    tenant: TenantId,
    bytes: u64,
    report: &mut ServingReport,
) -> Option<AllocationId> {
    report.attempts += 1;
    let t0 = Instant::now();
    let out = serving.alloc(tenant, bytes);
    report.alloc_latency.record(t0.elapsed().as_nanos() as u64);
    match out {
        Ok(a) => Some(a.id),
        Err(AllocError::QuotaExceeded { .. }) => {
            report.quota_rejections += 1;
            None
        }
        Err(AllocError::OutOfMemory { .. }) => {
            report.oom_failures += 1;
            None
        }
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlake_alloc_api::{gib, mib, AllocatorCore};
    use gmlake_caching::CachingAllocator;
    use gmlake_core::{GmLakeAllocator, GmLakeConfig};
    use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
    use gmlake_runtime::{DeviceId, PoolService};
    use gmlake_serving::{AdmissionPolicy, DefragStats, ServingConfig};

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let a = ServingPlan::generate(ServingWorkloadConfig::default());
        let b = ServingPlan::generate(ServingWorkloadConfig::default());
        assert_eq!(a, b);
        let c = ServingPlan::generate(ServingWorkloadConfig {
            seed: 7,
            ..ServingWorkloadConfig::default()
        });
        assert_ne!(a, c);
        assert!(a.tenants.len() > 100, "default plan has real churn");
        assert!(a
            .tenants
            .windows(2)
            .all(|w| w[0].arrive_step <= w[1].arrive_step));
    }

    #[test]
    fn planned_footprints_are_heterogeneous_and_quota_covers_them() {
        let plan = ServingPlan::generate(ServingWorkloadConfig::default());
        let mut models = std::collections::HashSet::new();
        for t in &plan.tenants {
            models.insert(t.model.clone());
            let resident: u64 = t.resident.iter().sum();
            let burst = t.request_bytes * t.requests_per_step * 2;
            assert!(
                t.quota_bytes >= resident + burst,
                "quota must cover working set + in-flight requests"
            );
            assert!(t.lifetime_steps >= 1);
        }
        assert!(models.len() >= 4, "footprints drawn across the corpus");
    }

    /// Replays `workload`'s plan through a fresh service over `core` and
    /// checks what every replay must end in: each attempt timed, every
    /// tenant departed, the pool quiescent.
    fn replay_to_quiescence(
        core: Box<dyn AllocatorCore + Send>,
        config: ServingConfig,
        workload: ServingWorkloadConfig,
    ) -> (ServingReport, DefragStats) {
        let pool = PoolService::new().register(DeviceId(0), core).unwrap();
        let serving = ServingService::new(pool, config);
        let report = ServingReplayer::new(ServingPlan::generate(workload)).run(&serving);
        assert!(report.attempts > 0);
        assert_eq!(report.alloc_latency.count(), report.attempts);
        assert!(report.admitted > 0);
        assert_eq!(serving.used_bytes(), 0, "every tenant departed");
        assert_eq!(serving.pool().stats().active_bytes, 0, "pool quiesced");
        (report, serving.defrag_stats())
    }

    #[test]
    fn replay_reaches_quiescence_and_times_allocations() {
        let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
        let (report, _) = replay_to_quiescence(
            Box::new(CachingAllocator::new(driver)),
            ServingConfig::new(gib(2))
                .with_overcommit(4.0)
                .with_policy(AdmissionPolicy::Shed)
                .with_idle_after(4),
            ServingWorkloadConfig {
                seed: 11,
                steps: 48,
                arrivals_per_step: 1.0,
                mean_lifetime_steps: 12,
                shard_range: (256, 1024),
                requests_per_step: (1, 2),
            },
        );
        assert!(report.latency_summary().p99_ns >= report.latency_summary().p50_ns);
    }

    #[test]
    fn seeded_churn_sustains_100_tenants_on_one_device_without_oom() {
        // The serving subsystem's acceptance floor: on one simulated
        // A100-80G a GMLake pool multiplexes at least 100 simultaneous
        // tenants of this seeded plan, and no device-level OOM leaks
        // past the idle-tenant eviction.
        let driver = CudaDriver::new(DeviceConfig::a100_80g().with_backing(false));
        let (report, defrag) = replay_to_quiescence(
            Box::new(GmLakeAllocator::new(
                driver,
                GmLakeConfig::default().with_frag_limit(mib(32)),
            )),
            ServingConfig::new(gib(80))
                .with_overcommit(1.5)
                .with_policy(AdmissionPolicy::Shed)
                .with_idle_after(8)
                .with_streams(4),
            ServingWorkloadConfig {
                seed: 0x5E12_B008,
                steps: 192,
                arrivals_per_step: 2.0,
                mean_lifetime_steps: 96,
                shard_range: (32, 128),
                requests_per_step: (1, 4),
            },
        );
        assert!(report.peak_tenants >= 100, "peak {}", report.peak_tenants);
        assert_eq!(report.oom_failures, 0);
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
        // those early steps had nothing to give back.
        assert_eq!(
            (
                defrag.periodic_passes,
                defrag.aggressive_passes,
                defrag.bytes_reclaimed
            ),
            (0, 192, 3_605_004_288),
            "one pass per step on this seeded plan"
        );
    }
}
