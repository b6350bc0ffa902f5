//! Input generation: every workload's inputs are a flat list of [`Op`]s,
//! a pure function of `(workload, seed)`, split into a warm-up section
//! (timed as set-up), a steady section (timed) and a teardown (untimed).

use std::collections::HashMap;
use std::time::Instant;

use gmlake_alloc_api::{gib, mib, AllocTag};
use gmlake_workload::{
    ModelSpec, PlannedTenant, ServingPlan, ServingWorkloadConfig, StrategySet, TraceEvent,
    TraceGenerator, TrainConfig,
};

/// Default seed (`"mlake"`), also the workload crate's default trace seed.
pub const DEFAULT_SEED: u64 = 0x6d_6c61_6b65;

/// Training iterations replayed before the timed section starts.
pub const TRAIN_WARM_ITERS: u32 = 2;
/// Training iterations in the timed section.
pub const TRAIN_STEADY_ITERS: u32 = 6;
/// Streams of `train_lro_streams`.
pub const LRO_STREAMS: u32 = 2;

/// Serving steps replayed before the timed section starts.
pub const SERVE_WARM_STEPS: u64 = 1024;
/// Serving steps in the timed section.
pub const SERVE_STEADY_STEPS: u64 = 4096;
/// Device capacity the serving layer is told about.
pub const SERVE_CAPACITY: u64 = gib(80);
pub const SERVE_OVERCOMMIT: f64 = 1.5;
pub const SERVE_IDLE_AFTER: u64 = 8;
pub const SERVE_STREAMS: u64 = 4;

/// A tenant commits this multiple of its resident set (plus request
/// headroom) as quota: tenants rarely peak together, which is what the
/// overcommit factor bets on.
const QUOTA_FACTOR: u64 = 3;
/// Share (in 1/1000) of tenants that scale to zero once in their life.
const PAUSE_PER_MILLE: u64 = 300;
/// Share (in 1/1000) of tenant-steps that burst up to the quota.
const BURST_PER_MILLE: u64 = 5;
/// Refused attempts a bursting tenant makes.
const BURST_REFUSALS: u32 = 3;
/// The most the core hands out beyond a large request: it leaves a
/// remainder below its fragmentation limit (4 MiB by default) unsplit. The
/// service charges the rounded size, so quotas carry this much per block.
pub const ROUNDING_SLACK: u64 = mib(4);

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainLr,
    TrainLrPlanned,
    TrainLroStreams,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TrainLr,
        Workload::TrainLrPlanned,
        Workload::TrainLroStreams,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainLr => "train_lr",
            Workload::TrainLrPlanned => "train_lr_planned",
            Workload::TrainLroStreams => "train_lro_streams",
            Workload::ServeChurn => "serve_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serving(self) -> bool {
        self == Workload::ServeChurn
    }
}

/// The answer the quota model expects to an offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Admitted,
    AdmittedAfterShed,
    Rejected,
    /// Never expected under the shed policy; kept so an unexpected queueing
    /// answer is reported as what it was.
    Queued,
}

/// One step of a workload. `Launch` is the workload's own kernel launch on
/// the simulated device; every other variant is one top-level call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Alloc {
        slot: u32,
        /// Offer index of the owning tenant (0 for training).
        owner: u32,
        size: u64,
        stream: u16,
        tag: AllocTag,
        /// The quota model expects a refusal.
        refused: bool,
    },
    Free {
        slot: u32,
        owner: u32,
        stream: u16,
    },
    /// End of a training iteration.
    Boundary,
    Launch {
        ns: u64,
    },
    Offer {
        owner: u32,
        quota: u64,
        expect: Verdict,
    },
    Depart {
        owner: u32,
    },
    Step,
}

impl Op {
    /// Whether the op is a top-level call (everything but `Launch`).
    pub fn is_call(&self) -> bool {
        !matches!(self, Op::Launch { .. })
    }
}

/// One workload's inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub ops: Vec<Op>,
    /// `ops[..steady_from]` is the warm-up section.
    pub steady_from: usize,
    /// `ops[steady_from..steady_to]` is the steady section, the rest teardown.
    pub steady_to: usize,
    /// Size of the slot table live allocations are kept in.
    pub slots: usize,
    /// Offers made (size of the tenant table).
    pub owners: usize,
    /// Top-level calls in the steady section.
    pub steady_calls: u64,
    /// Each steady segment's end as an index into `ops`: one per training
    /// iteration, or six equal step ranges for serving.
    pub segment_ends: Vec<usize>,
    /// FNV-1a hash of every op.
    pub fingerprint: u64,
}

impl Inputs {
    pub fn warm(&self) -> &[Op] {
        &self.ops[..self.steady_from]
    }

    pub fn steady(&self) -> &[Op] {
        &self.ops[self.steady_from..self.steady_to]
    }

    pub fn teardown(&self) -> &[Op] {
        &self.ops[self.steady_to..]
    }
}

/// Generates `workload`'s inputs. `seed` drives the serving plan;
/// `trace_seed` drives the training trace's size jitter.
pub fn generate(workload: Workload, seed: u64, trace_seed: u64) -> Inputs {
    match workload {
        Workload::TrainLr | Workload::TrainLrPlanned => {
            train_inputs(StrategySet::LR, 1, trace_seed)
        }
        Workload::TrainLroStreams => train_inputs(StrategySet::LRO, LRO_STREAMS, trace_seed),
        Workload::ServeChurn => serve_inputs(seed),
    }
}

/// Generates inputs `reps` times; returns them with the median generation
/// time, or an error if two generations differ.
pub fn generate_timed(
    workload: Workload,
    seed: u64,
    trace_seed: u64,
    reps: usize,
) -> Result<(Inputs, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept: Option<Inputs> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let inputs = generate(workload, seed, trace_seed);
        times.push(start.elapsed().as_secs_f64());
        if let Some(first) = &kept {
            if first.fingerprint != inputs.fingerprint {
                return Err(format!(
                    "{}: two generations from one seed differ ({:#x} vs {:#x})",
                    workload.name(),
                    first.fingerprint,
                    inputs.fingerprint
                ));
            }
        } else {
            kept = Some(inputs);
        }
    }
    Ok((kept.expect("reps >= 1"), crate::stats::median(&times)))
}

/// Hands out slot numbers, reusing freed ones so the table stays small.
#[derive(Default)]
struct Slots {
    free: Vec<u32>,
    next: u32,
}

impl Slots {
    fn take(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.next += 1;
            self.next - 1
        })
    }

    fn give(&mut self, slot: u32) {
        self.free.push(slot);
    }
}

fn finish(
    ops: Vec<Op>,
    steady_from: usize,
    steady_to: usize,
    slots: &Slots,
    owners: usize,
    segment_ends: Vec<usize>,
) -> Inputs {
    let calls = |ops: &[Op]| ops.iter().filter(|op| op.is_call()).count() as u64;
    Inputs {
        steady_calls: calls(&ops[steady_from..steady_to]),
        fingerprint: fingerprint(&ops),
        ops,
        steady_from,
        steady_to,
        slots: slots.next as usize,
        owners,
        segment_ends,
    }
}

/// OPT-13B fine-tuning (ZeRO-3, 4 GPUs, batch 8, sequence 2048) as the
/// workload crate generates it, turned into ops.
fn train_inputs(strategies: StrategySet, streams: u32, trace_seed: u64) -> Inputs {
    let cfg = TrainConfig::new(ModelSpec::opt_13b(), strategies)
        .with_iterations(TRAIN_WARM_ITERS + TRAIN_STEADY_ITERS)
        .with_streams(streams)
        .with_seed(trace_seed);
    let trace = TraceGenerator::new(cfg).generate();
    let mut ops = Vec::with_capacity(trace.events.len());
    let mut slots = Slots::default();
    let mut slot_of: HashMap<u64, u32> = HashMap::new();
    let (mut steady_from, mut steady_to) = (0, 0);
    let mut segment_ends = Vec::new();
    for ev in &trace.events {
        match *ev {
            TraceEvent::Alloc {
                key,
                size,
                tag,
                stream,
            } => {
                let slot = slots.take();
                slot_of.insert(key, slot);
                ops.push(Op::Alloc {
                    slot,
                    owner: 0,
                    size,
                    stream: stream.0 as u16,
                    tag,
                    refused: false,
                });
            }
            TraceEvent::Free { key, stream } => {
                let slot = slot_of
                    .remove(&key)
                    .expect("the trace frees only live keys");
                slots.give(slot);
                ops.push(Op::Free {
                    slot,
                    owner: 0,
                    stream: stream.0 as u16,
                });
            }
            TraceEvent::Compute { ns } => ops.push(Op::Launch { ns }),
            TraceEvent::IterBegin { index } => {
                if index == TRAIN_WARM_ITERS {
                    steady_from = ops.len();
                }
            }
            TraceEvent::IterEnd { index } => {
                ops.push(Op::Boundary);
                if index >= TRAIN_WARM_ITERS {
                    segment_ends.push(ops.len());
                }
                steady_to = ops.len();
            }
        }
    }
    finish(ops, steady_from, steady_to, &slots, 0, segment_ends)
}

/// SplitMix64: the benchmark's own generator for pauses and bursts.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn per_mille(&mut self, p: u64) -> bool {
        self.below(1000) < p
    }
}

/// The quota and admission rules of the serving layer, restated: what the
/// benchmark expects `ServingService` to answer.
pub struct QuotaModel {
    limit: u64,
    committed: u64,
    /// Completed steps.
    pub now: u64,
    tenants: Vec<ModelTenant>,
    pub refusals: u64,
    pub shed_admits: u64,
    pub tenants_shed: u64,
    pub rejected: u64,
    pub peak_tenants: u64,
    registered: u64,
    used: u64,
}

struct ModelTenant {
    quota: u64,
    used: u64,
    last_active: u64,
    registered: bool,
}

impl QuotaModel {
    pub fn new() -> QuotaModel {
        QuotaModel {
            limit: (SERVE_CAPACITY as f64 * SERVE_OVERCOMMIT) as u64,
            committed: 0,
            now: 0,
            tenants: Vec::new(),
            refusals: 0,
            shed_admits: 0,
            tenants_shed: 0,
            rejected: 0,
            peak_tenants: 0,
            registered: 0,
            used: 0,
        }
    }

    fn register(&mut self, quota: u64) -> u32 {
        self.committed += quota;
        self.registered += 1;
        self.peak_tenants = self.peak_tenants.max(self.registered);
        self.tenants.push(ModelTenant {
            quota,
            used: 0,
            last_active: self.now,
            registered: true,
        });
        (self.tenants.len() - 1) as u32
    }

    /// A departure (or a shed): the tenant holds nothing by then.
    pub fn unregister(&mut self, tenant: u32) {
        // A tenant the service and the model disagree about is skipped: the
        // disagreement itself is what the oracle reports.
        let Some(t) = self
            .tenants
            .get_mut(tenant as usize)
            .filter(|t| t.registered)
        else {
            return;
        };
        t.registered = false;
        self.used -= t.used;
        self.committed -= t.quota;
        self.registered -= 1;
    }

    /// An arrival: the verdict and, when admitted, the registration index
    /// (which is also the `TenantId` the service will assign).
    pub fn offer(&mut self, quota: u64) -> (Verdict, Option<u32>) {
        if self.committed + quota <= self.limit {
            return (Verdict::Admitted, Some(self.register(quota)));
        }
        let mut idle: Vec<(u64, u32)> = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                t.registered && self.now.saturating_sub(t.last_active) >= SERVE_IDLE_AFTER
            })
            .map(|(i, t)| (t.last_active, i as u32))
            .collect();
        idle.sort_unstable();
        for (_, tenant) in idle {
            if self.committed + quota <= self.limit {
                break;
            }
            self.unregister(tenant);
            self.tenants_shed += 1;
        }
        if self.committed + quota <= self.limit {
            self.shed_admits += 1;
            (Verdict::AdmittedAfterShed, Some(self.register(quota)))
        } else {
            self.rejected += 1;
            (Verdict::Rejected, None)
        }
    }

    /// Phase one of the two-phase charge: reserves the requested `size`;
    /// `true` when the quota admits it.
    pub fn alloc(&mut self, tenant: u32, size: u64) -> bool {
        let now = self.now;
        let Some(t) = self
            .tenants
            .get_mut(tenant as usize)
            .filter(|t| t.registered)
        else {
            return false;
        };
        if t.used + size > t.quota {
            self.refusals += 1;
            return false;
        }
        t.used += size;
        t.last_active = now;
        self.used += size;
        true
    }

    /// Phase two: the allocator rounded the reserved `requested` bytes to
    /// `rounded`. `false` when that overruns the quota; the reservation is
    /// then rolled back, as the service rolls the allocation back.
    pub fn settle(&mut self, tenant: u32, requested: u64, rounded: u64) -> bool {
        let Some(t) = self
            .tenants
            .get_mut(tenant as usize)
            .filter(|t| t.registered)
        else {
            return false;
        };
        let settled = t.used - requested + rounded;
        let fits = settled <= t.quota;
        let after = if fits { settled } else { t.used - requested };
        self.used = self.used - t.used + after;
        t.used = after;
        self.refusals += u64::from(!fits);
        fits
    }

    /// Room left under the tenant's quota.
    fn headroom(&self, tenant: u32) -> u64 {
        let t = &self.tenants[tenant as usize];
        t.quota - t.used
    }

    pub fn free(&mut self, tenant: u32, size: u64) {
        if let Some(t) = self
            .tenants
            .get_mut(tenant as usize)
            .filter(|t| t.registered)
        {
            t.used -= size;
            self.used -= size;
        }
    }

    pub fn is_registered(&self, tenant: u32) -> bool {
        self.tenants
            .get(tenant as usize)
            .is_some_and(|t| t.registered)
    }

    pub fn committed(&self) -> u64 {
        self.committed
    }

    pub fn registered(&self) -> u64 {
        self.registered
    }

    /// Live bytes across all tenants.
    pub fn used(&self) -> u64 {
        self.used
    }
}

/// Allocation sizes and quota of one planned tenant: resident blocks are
/// multiples of the 2 MiB chunk (the large path), requests are powers of
/// two below the 2 MiB small threshold (size classes, never rounded).
struct Shape {
    resident: Vec<u64>,
    request: u64,
    requests_per_step: u64,
    quota: u64,
}

impl Shape {
    fn of(t: &PlannedTenant) -> Shape {
        let resident: Vec<u64> = t
            .resident
            .iter()
            .map(|b| b.div_ceil(mib(2)) * mib(2))
            .collect();
        let request = (1u64 << t.request_bytes.ilog2()).clamp(256 << 10, mib(1));
        let need = (resident.iter().sum::<u64>() + ROUNDING_SLACK * resident.len() as u64)
            * QUOTA_FACTOR
            + request * (t.requests_per_step * 2 + 1);
        Shape {
            resident,
            request,
            requests_per_step: t.requests_per_step,
            quota: need.div_ceil(mib(1)) * mib(1),
        }
    }
}

/// One planned tenant as the generator follows it through its life.
struct Life {
    shape: Shape,
    depart_at: u64,
    /// `[from, to)`: steps the tenant is scaled to zero.
    pause: Option<(u64, u64)>,
    /// Offer index and registration index of the current admission.
    admitted: Option<(u32, u32)>,
    resident: Vec<(u32, u64)>,
    transient: Vec<(u32, u64)>,
    gone: bool,
}

struct ServeBuilder {
    ops: Vec<Op>,
    slots: Slots,
    model: QuotaModel,
    offers: u32,
}

impl ServeBuilder {
    fn offer(&mut self, life: &mut Life) {
        let owner = self.offers;
        self.offers += 1;
        let (expect, reg) = self.model.offer(life.shape.quota);
        self.ops.push(Op::Offer {
            owner,
            quota: life.shape.quota,
            expect,
        });
        life.admitted = reg.map(|reg| (owner, reg));
        life.gone = reg.is_none();
    }

    /// Emits one allocation attempt; returns whether the model admits it.
    fn alloc(&mut self, owner: u32, reg: u32, size: u64, keep: &mut Vec<(u32, u64)>) -> bool {
        let ok = self.model.alloc(reg, size);
        let slot = if ok { self.slots.take() } else { u32::MAX };
        self.ops.push(Op::Alloc {
            slot,
            owner,
            size,
            stream: (u64::from(reg) % SERVE_STREAMS) as u16,
            tag: AllocTag::Unspecified,
            refused: !ok,
        });
        if ok {
            keep.push((slot, size));
        }
        ok
    }

    fn free_all(&mut self, owner: u32, reg: u32, held: &mut Vec<(u32, u64)>) {
        for (slot, size) in held.drain(..) {
            self.model.free(reg, size);
            self.slots.give(slot);
            self.ops.push(Op::Free {
                slot,
                owner,
                stream: (u64::from(reg) % SERVE_STREAMS) as u16,
            });
        }
    }

    /// One tenant's turn within `step`.
    fn turn(&mut self, life: &mut Life, step: u64, rng: &mut SplitMix) {
        let paused = life
            .pause
            .is_some_and(|(from, to)| (from..to).contains(&step));
        // A tenant shed while scaled to zero arrives again when it resumes.
        if let Some((_, reg)) = life.admitted {
            if !self.model.is_registered(reg) {
                assert!(life.resident.is_empty() && life.transient.is_empty());
                life.admitted = None;
            }
        }
        if step + 1 >= life.depart_at {
            if let Some((owner, reg)) = life.admitted {
                self.free_all(owner, reg, &mut life.transient);
                self.free_all(owner, reg, &mut life.resident);
                self.model.unregister(reg);
                self.ops.push(Op::Depart { owner });
            }
            life.gone = true;
            return;
        }
        if life.admitted.is_none() {
            if paused {
                return;
            }
            self.offer(life);
        }
        let Some((owner, reg)) = life.admitted else {
            return;
        };
        // Last step's requests retire first.
        self.free_all(owner, reg, &mut life.transient);
        if paused {
            self.free_all(owner, reg, &mut life.resident);
            return;
        }
        if life.resident.is_empty() {
            for i in 0..life.shape.resident.len() {
                let size = life.shape.resident[i];
                let ok = self.alloc(owner, reg, size, &mut life.resident);
                assert!(ok, "the quota covers the resident set");
            }
        }
        for _ in 0..life.shape.requests_per_step {
            let ok = self.alloc(owner, reg, life.shape.request, &mut life.transient);
            assert!(ok, "the quota covers a step's requests");
        }
        if rng.per_mille(BURST_PER_MILLE) {
            // A peak: more replicas' worth of blocks while the quota surely
            // admits them whatever the core rounds the tenant's blocks to,
            // then attempts no rounding could make fit.
            let block = life.shape.resident[0];
            let mut large = (life.resident.len() + 1) as u64;
            while self.model.headroom(reg) >= block + ROUNDING_SLACK * large {
                self.alloc(owner, reg, block, &mut life.transient);
                large += 1;
            }
            for _ in 0..BURST_REFUSALS {
                let refused = !self.alloc(owner, reg, life.shape.quota, &mut life.transient);
                assert!(
                    refused,
                    "a tenant holding memory cannot fit its whole quota again"
                );
            }
        }
    }
}

/// Tenant churn over a serving plan: arrivals, resident sets, per-step
/// request churn, scale-to-zero pauses, quota bursts, departures.
fn serve_inputs(seed: u64) -> Inputs {
    let total = SERVE_WARM_STEPS + SERVE_STEADY_STEPS;
    let plan = ServingPlan::generate(ServingWorkloadConfig {
        seed,
        steps: total,
        arrivals_per_step: 2.0,
        mean_lifetime_steps: 64,
        shard_range: (32, 128),
        requests_per_step: (1, 4),
    });
    let mut rng = SplitMix(seed ^ 0x7365_7276_655f_6368); // "serve_ch"
    let mut b = ServeBuilder {
        ops: Vec::new(),
        slots: Slots::default(),
        model: QuotaModel::new(),
        offers: 0,
    };
    let mut lives: Vec<Life> = Vec::new();
    let mut next_arrival = 0;
    let (mut steady_from, mut segment_ends) = (0, Vec::new());
    for step in 0..total {
        if step == SERVE_WARM_STEPS {
            steady_from = b.ops.len();
        }
        while next_arrival < plan.tenants.len() && plan.tenants[next_arrival].arrive_step <= step {
            let planned = &plan.tenants[next_arrival];
            next_arrival += 1;
            let pause = rng.per_mille(PAUSE_PER_MILLE).then(|| {
                let from = step + 2 + rng.below(planned.lifetime_steps / 2 + 1);
                (from, from + SERVE_IDLE_AFTER + 2 + rng.below(32))
            });
            let mut life = Life {
                shape: Shape::of(planned),
                depart_at: step + planned.lifetime_steps.max(2),
                pause,
                admitted: None,
                resident: Vec::new(),
                transient: Vec::new(),
                gone: false,
            };
            b.offer(&mut life);
            lives.push(life);
        }
        for life in lives.iter_mut().filter(|l| !l.gone) {
            b.turn(life, step, &mut rng);
        }
        lives.retain(|l| !l.gone);
        b.ops.push(Op::Step);
        b.model.now += 1;
        let steady_step = (step + 1).saturating_sub(SERVE_WARM_STEPS);
        if steady_step > 0 && steady_step % (SERVE_STEADY_STEPS / 6) == 0 && segment_ends.len() < 6
        {
            segment_ends.push(b.ops.len());
        }
    }
    let steady_to = b.ops.len();
    if let Some(last) = segment_ends.last_mut() {
        *last = steady_to;
    }
    // Teardown: whoever is still registered frees and departs.
    for life in &mut lives {
        if let Some((owner, reg)) = life.admitted {
            if b.model.is_registered(reg) {
                b.free_all(owner, reg, &mut life.transient);
                b.free_all(owner, reg, &mut life.resident);
                b.model.unregister(reg);
                b.ops.push(Op::Depart { owner });
            }
        }
    }
    let owners = b.offers as usize;
    finish(
        b.ops,
        steady_from,
        steady_to,
        &b.slots,
        owners,
        segment_ends,
    )
}

fn fingerprint(ops: &[Op]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for op in ops {
        match *op {
            Op::Alloc {
                slot,
                owner,
                size,
                stream,
                tag,
                refused,
            } => {
                eat(1);
                eat(u64::from(slot) | u64::from(owner) << 32);
                eat(size);
                eat(u64::from(stream) | (tag as u64) << 16 | u64::from(refused) << 32);
            }
            Op::Free {
                slot,
                owner,
                stream,
            } => {
                eat(2);
                eat(u64::from(slot) | u64::from(owner) << 32);
                eat(u64::from(stream));
            }
            Op::Boundary => eat(3),
            Op::Launch { ns } => {
                eat(4);
                eat(ns);
            }
            Op::Offer {
                owner,
                quota,
                expect,
            } => {
                eat(5);
                eat(u64::from(owner) | (expect as u64) << 32);
                eat(quota);
            }
            Op::Depart { owner } => {
                eat(6);
                eat(u64::from(owner));
            }
            Op::Step => eat(7),
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_fingerprint_is_stable_for_a_fixed_seed() {
        let a = generate(Workload::TrainLr, 1, DEFAULT_SEED);
        let b = generate(Workload::TrainLr, 2, DEFAULT_SEED);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "the trace seed alone drives a training trace"
        );
        assert_eq!(a.ops, b.ops);
        let c = generate(Workload::TrainLr, 1, 7);
        assert_ne!(a.fingerprint, c.fingerprint);
        assert_eq!(a.segment_ends.len() as u32, TRAIN_STEADY_ITERS);
        assert_eq!(*a.segment_ends.last().unwrap(), a.steady_to);
        assert!(a.warm().iter().any(|op| matches!(op, Op::Boundary)));
    }

    #[test]
    fn planned_replays_the_reactive_trace() {
        let lr = generate(Workload::TrainLr, 1, DEFAULT_SEED);
        let planned = generate(Workload::TrainLrPlanned, 1, DEFAULT_SEED);
        assert_eq!(lr.fingerprint, planned.fingerprint);
        let lro = generate(Workload::TrainLroStreams, 1, DEFAULT_SEED);
        assert_ne!(lr.fingerprint, lro.fingerprint);
        assert!(lro
            .ops
            .iter()
            .any(|op| matches!(op, Op::Alloc { stream: 1, .. })));
    }

    #[test]
    fn serving_fingerprint_follows_the_seed_alone() {
        let a = generate(Workload::ServeChurn, 1, DEFAULT_SEED);
        let b = generate(Workload::ServeChurn, 1, 99);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(
            a.fingerprint,
            generate(Workload::ServeChurn, 2, DEFAULT_SEED).fingerprint
        );
        assert_eq!(a.segment_ends.len(), 6);
        assert!(a.steady_calls >= 1_500_000, "{} steady ops", a.steady_calls);
        let refused = a
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Alloc { refused: true, .. }));
        assert!(refused.count() > 0, "quota refusals occur");
        let shed = |op: &&Op| {
            matches!(
                op,
                Op::Offer {
                    expect: Verdict::AdmittedAfterShed,
                    ..
                }
            )
        };
        assert!(
            a.ops.iter().filter(shed).count() > 0,
            "shed admissions occur"
        );
    }

    #[test]
    fn quota_model_refuses_exactly_at_the_boundary() {
        let mut m = QuotaModel::new();
        let (v, reg) = m.offer(100);
        assert_eq!(v, Verdict::Admitted);
        let reg = reg.unwrap();
        assert!(m.alloc(reg, 60));
        assert!(m.alloc(reg, 40), "filling the quota exactly is allowed");
        assert!(!m.alloc(reg, 1));
        assert_eq!(m.refusals, 1);
        m.free(reg, 40);
        assert!(m.alloc(reg, 40));
    }

    #[test]
    fn quota_model_sheds_oldest_idle_first_and_never_active_tenants() {
        let mut m = QuotaModel::new();
        let limit = (SERVE_CAPACITY as f64 * SERVE_OVERCOMMIT) as u64;
        let (_, a) = m.offer(limit / 2);
        let (_, b) = m.offer(limit / 2);
        // Nobody is idle yet: the arrival is rejected.
        assert_eq!(m.offer(mib(1)).0, Verdict::Rejected);
        m.now = SERVE_IDLE_AFTER;
        assert!(m.alloc(b.unwrap(), 1), "b stays active");
        let (v, _) = m.offer(mib(1));
        assert_eq!(v, Verdict::AdmittedAfterShed);
        assert!(!m.is_registered(a.unwrap()), "the idle tenant was shed");
        assert!(m.is_registered(b.unwrap()));
        assert_eq!((m.tenants_shed, m.shed_admits, m.rejected), (1, 1, 1));
    }
}
