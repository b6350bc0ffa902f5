//! Serving workloads: tenant churn plans.
//!
//! Training traces (the rest of this crate) are iteration-periodic streams
//! from one job that owns the device. Serving is the opposite regime —
//! many small jobs multiplex one device, arriving and departing on their
//! own schedules, each pinning a model working set and churning transient
//! request memory (KV caches, attention scratch) on top of it. The plan
//! generator below produces that regime deterministically from a seed:
//! geometric inter-arrivals, heterogeneous footprints drawn from the
//! model corpus ([`ModelSpec::all`]), geometric lifetimes, per-tenant
//! request rates. Driving a plan through a serving front-end is the
//! caller's job (the whole-system benchmark's `serve_churn` workload and
//! the facade's `serving_quota` tests do it).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gmlake_alloc_api::mib;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
