//! The two measuring phases of a workload: end to end (plain laps, the
//! caching baseline, an oracle lap) and per layer (an oracle lap with a
//! counting probe, plain, sampled and traced laps, the latter at every entry
//! depth, bare cores, a lap with the telemetry sink on).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use gmlake_alloc_api::{DeviceCacheStats, MemStats};
use gmlake_core::{GmLakeAllocator, StateCounters};
use gmlake_gpu_sim::{CudaDriver, DeviceConfig, DriverStats};
use gmlake_planning::{PlanCounters, PlannedCore};

use crate::inputs::{Inputs, Op, Workload};
use crate::lap::{replay, Meter, Plain, Replay, Sampled, Section, Traced};
use crate::oracle::{Checked, Findings};
use crate::reference::Reference;
use crate::spans::{self, Kind, Span};
use crate::stack::{bare, BareCore, DefragAction, NullTarget, Stack, Target, Wiring};
use crate::stats::{self, Summary};

/// Times inputs are generated per run; the median time is reported.
pub const GEN_REPS: usize = 3;
/// Laps behind every layer's host-time figure in the per-layer phase.
const TRACE_REPS: usize = 3;
/// Sampled laps of the per-layer phase.
const SAMPLED_LAPS: usize = 5;

/// Plain laps of the end-to-end phase. Constants, so the work is the same
/// on every machine and commit: sized so one run takes 13 to 21 s on a
/// 2-core host, with the short `train_lr_planned` laps getting more of them.
pub fn plain_laps(workload: Workload) -> usize {
    match workload {
        Workload::TrainLr => 9,
        Workload::TrainLrPlanned => 35,
        Workload::TrainLroStreams => 15,
        Workload::ServeChurn => 9,
    }
}

/// Metric values of one phase, by metric name.
pub type Values = BTreeMap<&'static str, Summary>;

/// What both phases report besides metric values.
#[derive(Debug, Default)]
pub struct Correctness {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub violation_count: u64,
}

impl Correctness {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violation_count == 0
    }

    fn violation(&mut self, message: String) {
        self.violation_count += 1;
        self.violations.push(message);
    }
}

/// Where ops enter the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Depth {
    /// `ServingService` for serving, `PoolHandle` for training.
    Top,
    Handle,
    Device,
}

/// One lap's readings.
struct Lap {
    /// Stack construction plus the warm-up section.
    setup_s: f64,
    steady: Section,
    /// The target's statistics when the steady section ended.
    stats: MemStats,
    attempted: u64,
    failed: u64,
}

impl Lap {
    fn peak_reserved(&self) -> u64 {
        self.stats.peak_reserved_bytes
    }

    /// The readings that repeat exactly on every lap of one input set.
    fn exact(&self) -> (u64, u64, u64) {
        (self.steady.stall_ns, self.peak_reserved(), self.failed)
    }
}

/// What laps of one workload share.
#[derive(Clone)]
struct Laps<'a> {
    workload: Workload,
    inputs: &'a Inputs,
    /// The defrag manager's per-step actions, repeated below the quota layer.
    actions: Arc<Vec<DefragAction>>,
}

impl Laps<'_> {
    /// Builds a fresh stack, replays warm-up and steady sections against the
    /// chosen depth with `meter`, tears down.
    fn lap<M: Meter>(&self, wiring: Wiring, depth: Depth, meter: &mut M) -> Lap {
        let built = Instant::now();
        let stack = Stack::build(self.workload, wiring);
        meter.attach(&stack);
        let (inputs, driver) = (self.inputs, &stack.driver);
        match depth {
            Depth::Top if self.workload.is_serving() => {
                let mut target = stack.serving_target(inputs.owners);
                sections(&mut target, driver, inputs, built, meter)
            }
            Depth::Top | Depth::Handle => {
                let mut target = stack.handle_target(&self.actions);
                sections(&mut target, driver, inputs, built, meter)
            }
            Depth::Device => {
                let mut target = stack.device_target(&self.actions);
                sections(&mut target, driver, inputs, built, meter)
            }
        }
    }

    /// A lap of the untouched stack with nothing around the calls.
    fn plain_lap(&self) -> Lap {
        self.lap(Wiring::default(), Depth::Top, &mut Plain)
    }
}

/// The three sections of a lap against `target`: warm-up and steady with
/// `meter`, then the untimed teardown.
fn sections<T: Target, M: Meter>(
    target: &mut T,
    driver: &CudaDriver,
    inputs: &Inputs,
    built: Instant,
    meter: &mut M,
) -> Lap {
    let mut state = Replay::new(inputs);
    replay(target, driver, inputs.warm(), &mut state, meter);
    let setup_s = built.elapsed().as_secs_f64();
    meter.begin_steady();
    let steady = replay(target, driver, inputs.steady(), &mut state, meter);
    meter.end_steady();
    let stats = target.mem_stats();
    replay(target, driver, inputs.teardown(), &mut state, &mut Plain);
    Lap {
        setup_s,
        steady,
        stats,
        attempted: state.attempted,
        failed: state.failed,
    }
}

/// A lap against a bare core.
fn bare_lap(which: BareCore, inputs: &Inputs) -> Lap {
    let (mut target, driver) = bare(which);
    sections(&mut target, &driver, inputs, Instant::now(), &mut Plain)
}

/// What the oracle lap reads when the steady section ends.
struct OracleReadings {
    /// Driver counters when the warm-up ended and when the steady section did.
    driver_warm: DriverStats,
    driver_end: DriverStats,
    phys_peak_bytes: u64,
    cache: DeviceCacheStats,
    large: DeviceCacheStats,
    core_calls: u64,
    core_alloc_calls: u64,
    core_sim_ns: u64,
    core_state: StateCounters,
    /// pBlocks and sBlocks the core holds.
    core_blocks: (u64, u64),
    core_failed_ops: u64,
    plan: PlanCounters,
    plan_arena_bytes: u64,
    fault_retries: u64,
    rescues: u64,
    tenants_evicted: u64,
    peak_tenants: u64,
    offers_shed: u64,
    defrag_passes: u64,
}

/// Everything the oracle lap yields.
struct OracleLap {
    lap: Lap,
    findings: Findings,
    quota_refusals: u64,
    read: OracleReadings,
}

/// The oracle lap's meter: nothing around the calls; the probe counts core
/// calls from the start of the steady section.
struct Counting<'a> {
    stack: &'a Stack,
    driver_warm: DriverStats,
    read: Option<OracleReadings>,
}

impl Counting<'_> {
    fn log(&self) -> std::sync::MutexGuard<'_, crate::probe::ProbeLog> {
        let log = self
            .stack
            .probe
            .as_ref()
            .expect("the oracle stack has a probe");
        log.lock().expect("single-threaded")
    }
}

impl Meter for Counting<'_> {
    fn begin_steady(&mut self) {
        self.driver_warm = self.stack.driver.stats();
        self.log().counting = true;
    }

    fn end_steady(&mut self) {
        self.read = Some(self.readings());
    }

    #[inline(always)]
    fn call<R>(&mut self, _kind: Kind, f: impl FnOnce() -> R) -> R {
        f()
    }
}

impl Counting<'_> {
    fn readings(&self) -> OracleReadings {
        let stack = self.stack;
        let (core_calls, core_alloc_calls, core_sim_ns) = {
            let mut log = self.log();
            log.counting = false;
            (log.calls, log.alloc_calls, log.sim_ns)
        };
        let gmlake = |core: &GmLakeAllocator| {
            (
                core.state_counters(),
                (core.pblock_count() as u64, core.sblock_count() as u64),
                core.fault_journal().failed_ops,
            )
        };
        let (plan, plan_arena_bytes, (core_state, core_blocks, core_failed_ops)) = stack
            .device
            .with_core_as(|core: &mut PlannedCore| {
                let arena = core.plan().map_or(0, |p| p.capacity);
                (core.counters(), arena, gmlake(core.fallback()))
            })
            .or_else(|| {
                stack.device.with_core_as(|core: &mut GmLakeAllocator| {
                    (PlanCounters::default(), 0, gmlake(core))
                })
            })
            .expect("the core is a GmLakeAllocator or a PlannedCore");
        let fault = stack.handle.fault_stats();
        let serving = stack.serving.as_ref();
        let admission = serving.map(|s| s.admission_stats()).unwrap_or_default();
        let defrag = serving.map(|s| s.defrag_stats()).unwrap_or_default();
        OracleReadings {
            driver_warm: self.driver_warm,
            driver_end: stack.driver.stats(),
            phys_peak_bytes: stack.driver.snapshot().peak_phys_in_use,
            cache: stack.device.cache_stats(),
            large: stack.device.large_cache_stats(),
            core_calls,
            core_alloc_calls,
            core_sim_ns,
            core_state,
            core_blocks,
            core_failed_ops,
            plan,
            plan_arena_bytes,
            fault_retries: fault.retries,
            rescues: fault.rescues,
            tenants_evicted: serving.map_or(0, |s| s.serving_stats().tenants_evicted),
            peak_tenants: admission.peak_tenants,
            offers_shed: admission.shed_admits,
            defrag_passes: defrag.periodic_passes + defrag.aggressive_passes,
        }
    }
}

/// The oracle lap: the top target wrapped in the oracle's checks, over a
/// stack whose probe counts core calls in the steady section.
fn oracle_lap(workload: Workload, inputs: &Inputs) -> OracleLap {
    let built = Instant::now();
    let stack = Stack::build(workload, Wiring::PROBED);
    if workload.is_serving() {
        oracle_sections(stack.serving_target(inputs.owners), &stack, inputs, built)
    } else {
        oracle_sections(stack.handle_target(&Arc::default()), &stack, inputs, built)
    }
}

fn oracle_sections<T: Target>(top: T, stack: &Stack, inputs: &Inputs, built: Instant) -> OracleLap {
    let mut target = Checked::new(
        top,
        stack.driver.clone(),
        stack.device.clone(),
        stack.serving.clone(),
    );
    let mut meter = Counting {
        stack,
        driver_warm: DriverStats::default(),
        read: None,
    };
    let lap = sections(&mut target, &stack.driver, inputs, built, &mut meter);
    target.quiesce();
    OracleLap {
        lap,
        quota_refusals: target.quota_refusals(),
        findings: target.findings,
        read: meter.read.expect("the steady section ended"),
    }
}

/// Folds the oracle lap's outcome into `verdict`.
fn judge(verdict: &mut Correctness, oracle: &OracleLap) {
    verdict.attempted = oracle.lap.attempted;
    verdict.failed = oracle.lap.failed;
    verdict.violation_count += oracle.findings.violation_count;
    verdict
        .violations
        .extend(oracle.findings.violations.iter().cloned());
}

/// Checks a timed lap's exact readings against the first lap's.
fn same_as_first(
    verdict: &mut Correctness,
    first: &mut Option<(u64, u64, u64)>,
    lap: &Lap,
    what: &str,
) {
    let got = lap.exact();
    match first {
        None => *first = Some(got),
        Some(want) if *want != got => verdict.violation(format!(
            "{what}: (stall ns, peak reserved, failed ops) {got:?} differ from the first lap's {want:?}"
        )),
        Some(_) => {}
    }
}

/// The end-to-end phase: plain laps, the caching baseline, the oracle lap.
/// Host times are divided by the machine's speed factor around each lap (see
/// [`Reference`]); `scaled_gen_s` is the generation time, already divided.
pub fn end_to_end(
    workload: Workload,
    inputs: &Inputs,
    scaled_gen_s: f64,
    plain: usize,
    reference: &mut Reference,
) -> (Values, Correctness) {
    let calls = inputs.steady_calls as f64;
    let laps = Laps {
        workload,
        inputs,
        actions: Arc::default(),
    };
    let mut verdict = Correctness::default();
    let mut first = None;
    let (mut setup, mut host) = (Vec::new(), Vec::new());
    let (mut raw_host, mut factors) = (Vec::new(), Vec::new());
    for _ in 0..plain {
        let (lap, factor) = reference.around(|| laps.plain_lap());
        same_as_first(&mut verdict, &mut first, &lap, "plain lap");
        let ns_per_op = lap.steady.wall_ns as f64 / calls;
        setup.push(scaled_gen_s + lap.setup_s / factor);
        host.push(ns_per_op / factor);
        raw_host.push(ns_per_op);
        factors.push(factor);
    }
    let caching = bare_lap(BareCore::Caching, inputs).peak_reserved();
    let oracle = oracle_lap(workload, inputs);
    same_as_first(&mut verdict, &mut first, &oracle.lap, "oracle lap");
    judge(&mut verdict, &oracle);

    let (stall_ns, peak_reserved, _) = first.expect("at least one lap ran");
    let peak_live = oracle.findings.peak_live_bytes;
    let exact = |v: f64| Summary::exact(v, plain + 1);
    let mut values = Values::new();
    values.insert("setup_s", Summary::of(&setup, 0));
    values.insert("host_ns_per_op", Summary::of(&host, 0));
    values.insert("sim_stall_ns_per_op", exact(stall_ns as f64 / calls));
    values.insert("peak_reserved_bytes", exact(peak_reserved as f64));
    values.insert(
        "utilization",
        Summary::exact(peak_live as f64 / peak_reserved as f64, 1),
    );
    values.insert(
        "reserved_vs_caching",
        Summary::exact(peak_reserved as f64 / caching as f64, 1),
    );
    // What the scaled host times were made from: not end-to-end metrics,
    // kept in the result beside them.
    values.insert("workload.raw_host_ns_per_op", Summary::of(&raw_host, 0));
    values.insert("workload.speed_factor", Summary::of(&factors, 0));
    (values, verdict)
}

/// Sampled laps: per-lap median and p99 of the top-level allocation calls'
/// wall times, summarised across laps.
fn sampled_laps(laps: &Laps, verdict: &mut Correctness) -> (Summary, Summary) {
    let (mut p50, mut p99, mut samples) = (Vec::new(), Vec::new(), 0);
    for _ in 0..SAMPLED_LAPS {
        let mut meter = Sampled::default();
        laps.lap(Wiring::default(), Depth::Top, &mut meter);
        let mut ns = meter.allocs_ns;
        ns.sort_unstable();
        samples = ns.len();
        p50.push(stats::sample_median(&ns));
        match stats::percentile(&ns, 0.99) {
            Some(v) => p99.push(v),
            None => verdict.violation(format!(
                "{} allocation samples leave fewer than {} beyond p99",
                ns.len(),
                stats::MIN_BEYOND
            )),
        }
    }
    if p99.is_empty() {
        p99.push(0.0);
    }
    (Summary::of(&p50, samples), Summary::of(&p99, samples))
}

/// One traced lap's spans and the scalars read off its steady section.
struct TracedLap {
    wall_ns_per_op: f64,
    /// Top spans' self time: their duration minus the core spans inside.
    above_core_ns_per_op: f64,
    core_ns_per_op: f64,
    meter: Traced,
}

impl TracedLap {
    fn steady_top(&self) -> &[Span] {
        &self.meter.spans[self.meter.steady_first..]
    }

    fn steady_core(&self) -> &[Span] {
        &self.meter.core[self.meter.steady_core_first..]
    }
}

fn traced_lap(laps: &Laps, depth: Depth) -> TracedLap {
    let mut meter = Traced::new();
    let lap = laps.lap(Wiring::PROBED, depth, &mut meter);
    let calls = laps.inputs.steady_calls as f64;
    let mut traced = TracedLap {
        wall_ns_per_op: lap.steady.wall_ns as f64 / calls,
        above_core_ns_per_op: 0.0,
        core_ns_per_op: 0.0,
        meter,
    };
    let own: u64 = spans::self_times(traced.steady_top(), traced.steady_core())
        .iter()
        .sum();
    let inside: u64 = traced.steady_core().iter().map(Span::duration).sum();
    traced.above_core_ns_per_op = own as f64 / calls;
    traced.core_ns_per_op = inside as f64 / calls;
    traced
}

/// What the replay loop itself costs per op with a span around every call:
/// the ops against no allocator at all.
fn null_lap(inputs: &Inputs) -> f64 {
    let driver = CudaDriver::new(DeviceConfig::a100_80g());
    let mut meter = Traced::new();
    let lap = sections(&mut NullTarget, &driver, inputs, Instant::now(), &mut meter);
    let in_calls: u64 = meter.spans[meter.steady_first..]
        .iter()
        .map(Span::duration)
        .sum();
    (lap.steady.wall_ns - in_calls) as f64 / inputs.steady_calls as f64
}

/// Cost of one empty `Instant` pair.
fn timer_ns() -> f64 {
    let mut ns: Vec<u32> = (0..10_000)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(start).elapsed().as_nanos() as u32
        })
        .collect();
    ns.sort_unstable();
    stats::sample_median(&ns)
}

/// Sorted durations of the spans of `kind`.
fn durations(spans: &[Span], kind: Kind) -> Vec<u32> {
    let mut ns: Vec<u32> = spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.duration().min(u64::from(u32::MAX)) as u32)
        .collect();
    ns.sort_unstable();
    ns
}

/// Core time in the last steady segment over core time in the first.
fn core_growth(inputs: &Inputs, lap: &TracedLap) -> f64 {
    // A segment ends with its last top-level call: turn op indices into
    // steady call counts, and those into times.
    let mut calls = 0;
    let mut next = inputs.steady_from;
    let ends: Vec<u64> = inputs
        .segment_ends
        .iter()
        .map(|&end| {
            calls += inputs.ops[next..end]
                .iter()
                .filter(|op| op.is_call())
                .count();
            next = end;
            lap.steady_top()[calls - 1].end_ns
        })
        .collect();
    if ends.len() < 2 {
        return 0.0;
    }
    let within = |from: u64, to: u64| -> u64 {
        lap.steady_core()
            .iter()
            .filter(|s| s.start_ns >= from && s.end_ns <= to)
            .map(Span::duration)
            .sum()
    };
    let first = within(0, ends[0]);
    let last = within(ends[ends.len() - 2], ends[ends.len() - 1]);
    if first == 0 {
        0.0
    } else {
        last as f64 / first as f64
    }
}

fn median_of(laps: &[TracedLap], f: impl Fn(&TracedLap) -> f64) -> f64 {
    stats::median(&laps.iter().map(f).collect::<Vec<_>>())
}

/// The per-layer phase. `spans_path` is where the first traced lap's spans
/// are written.
pub fn per_layer(
    workload: Workload,
    inputs: &Inputs,
    gen_s: f64,
    spans_path: &std::path::Path,
    reference: &mut Reference,
) -> Result<(Values, Correctness), String> {
    let calls = inputs.steady_calls as f64;
    let mut verdict = Correctness::default();
    let oracle = oracle_lap(workload, inputs);
    judge(&mut verdict, &oracle);
    let laps = Laps {
        workload,
        inputs,
        actions: Arc::new(oracle.findings.defrag_actions.clone()),
    };

    let (plain, factors): (Vec<f64>, Vec<f64>) = (0..TRACE_REPS)
        .map(|_| {
            let (lap, factor) = reference.around(|| laps.plain_lap());
            (lap.steady.wall_ns as f64, factor)
        })
        .unzip();
    let plain_ns = stats::median(&plain);
    let (alloc_p50, alloc_p99) = sampled_laps(&laps, &mut verdict);
    let traced_at =
        |depth| -> Vec<TracedLap> { (0..TRACE_REPS).map(|_| traced_lap(&laps, depth)).collect() };
    let top = traced_at(Depth::Top);
    let lap0 = &top[0];
    spans::write(
        spans_path,
        workload.name(),
        &lap0.meter.spans,
        &lap0.meter.core,
    )
    .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    let above_top = median_of(&top, |l| l.above_core_ns_per_op);
    let above_handle = if workload.is_serving() {
        median_of(&traced_at(Depth::Handle), |l| l.above_core_ns_per_op)
    } else {
        above_top
    };
    let above_device = median_of(&traced_at(Depth::Device), |l| l.above_core_ns_per_op);
    let sink_lap = laps.lap(Wiring::SINK_ON, Depth::Top, &mut Plain);
    // Median host time per op over the laps, and the first lap for the
    // readings that repeat exactly.
    let bare_laps = |which| -> (f64, Lap) {
        let mut laps: Vec<Lap> = (0..TRACE_REPS).map(|_| bare_lap(which, inputs)).collect();
        let walls: Vec<f64> = laps
            .iter()
            .map(|l| l.steady.wall_ns as f64 / calls)
            .collect();
        (stats::median(&walls), laps.swap_remove(0))
    };
    let (raw_ns_per_op, raw) = bare_laps(BareCore::GmLake);
    let (caching_ns_per_op, caching) = bare_laps(BareCore::Caching);
    let reactive_peak = if workload == Workload::TrainLrPlanned {
        let reactive = Laps {
            workload: Workload::TrainLr,
            ..laps.clone()
        };
        reactive.plain_lap().peak_reserved()
    } else {
        0
    };

    // Layer self times: what a depth spends above the core, minus what the
    // next depth does. A negative difference is lap-to-lap noise on a layer
    // that does next to nothing; it is reported as zero and shows up in the
    // budget gap instead.
    let serving_self = (above_top - above_handle).max(0.0);
    let runtime_self = (above_handle - above_device).max(0.0);
    let workload_self = stats::median(
        &(0..TRACE_REPS)
            .map(|_| null_lap(inputs))
            .collect::<Vec<_>>(),
    );
    let core_per_op = median_of(&top, |l| l.core_ns_per_op);
    let traced_per_op = median_of(&top, |l| l.wall_ns_per_op);
    let parts = workload_self + serving_self + runtime_self + above_device + core_per_op;
    let top_p50 = |kind| stats::sample_median(&durations(lap0.steady_top(), kind));
    let core_allocs = durations(lap0.steady_core(), Kind::Alloc);
    let steps = durations(lap0.steady_top(), Kind::Step);
    // The plan is installed inside the first iteration boundary.
    let install_ns = lap0.meter.spans[..lap0.meter.steady_first]
        .iter()
        .find(|s| s.kind == Kind::Boundary)
        .map_or(0, Span::duration);
    let steady_allocs = inputs
        .steady()
        .iter()
        .filter(|op| matches!(op, Op::Alloc { refused: false, .. }))
        .count() as f64;
    let d = |f: fn(&DriverStats) -> u64| f(&oracle.read.driver_end) as f64;
    let steady_driver_calls =
        oracle.read.driver_end.total_calls() - oracle.read.driver_warm.total_calls();
    // The workload's own launches and synchronisations are driver calls
    // too; they are not the allocator's.
    let own_calls = (oracle.read.driver_end.launch.calls - oracle.read.driver_warm.launch.calls)
        + inputs
            .steady()
            .iter()
            .filter(|op| matches!(op, Op::Boundary))
            .count() as u64;
    let event_ns = oracle.read.driver_end.event_time_ns() - oracle.read.driver_warm.event_time_ns();
    let small_hits = oracle.read.cache.hits - oracle.read.large.hits;
    let small_misses = oracle.read.cache.misses - oracle.read.large.misses;
    let is_planned = workload == Workload::TrainLrPlanned;

    let one = |v: f64| Summary::exact(v, 1);
    let reps = |v: f64| Summary {
        laps: TRACE_REPS,
        ..Summary::exact(v, 1)
    };
    let mut values = Values::new();
    let mut put = |name: &'static str, s: Summary| {
        values.insert(name, s);
    };
    put("alloc_p50_ns", alloc_p50);
    put("alloc_p99_ns", alloc_p99);
    put("workload.ops", one(calls));
    put("workload.gen_s", one(gen_s));
    put("workload.timer_ns", one(timer_ns()));
    put("workload.self_ns_per_op", reps(workload_self));
    put("workload.raw_host_ns_per_op", reps(plain_ns / calls));
    put("workload.speed_factor", reps(stats::median(&factors)));
    put(
        "workload.budget_gap",
        reps((traced_per_op - parts).abs() / traced_per_op),
    );
    put(
        "workload.failed_ops_share",
        one(verdict.failed as f64 / verdict.attempted as f64),
    );
    put("workload.violations", one(verdict.violation_count as f64));
    put("serving.self_ns_per_op", reps(serving_self));
    put("serving.offer_p50_ns", one(top_p50(Kind::Offer)));
    put("serving.depart_p50_ns", one(top_p50(Kind::Depart)));
    put("serving.step_p50_ns", one(stats::sample_median(&steps)));
    put(
        "serving.step_p99_ns",
        one(stats::percentile(&steps, 0.99).unwrap_or(0.0)),
    );
    put("serving.refused_p50_ns", one(top_p50(Kind::Refused)));
    put("serving.quota_refusals", one(oracle.quota_refusals as f64));
    put(
        "serving.offers_queued",
        one(oracle.findings.offers_queued as f64),
    );
    put("serving.offers_shed", one(oracle.read.offers_shed as f64));
    put(
        "serving.tenants_evicted",
        one(oracle.read.tenants_evicted as f64),
    );
    put("serving.peak_tenants", one(oracle.read.peak_tenants as f64));
    put(
        "serving.defrag_passes",
        one(oracle.read.defrag_passes as f64),
    );
    put(
        "serving.defrag_reclaimed_bytes",
        one(oracle.findings.defrag_reclaimed_bytes as f64),
    );
    put("runtime.self_ns_per_op", reps(runtime_self));
    put("runtime.boundary_p50_ns", one(top_p50(Kind::Boundary)));
    put(
        "runtime.fault_retries",
        one(oracle.read.fault_retries as f64),
    );
    put("runtime.rescues", one(oracle.read.rescues as f64));
    put("alloc-api.self_ns_per_op", reps(above_device));
    put(
        "alloc-api.absorbed_share",
        one(1.0 - oracle.read.core_alloc_calls as f64 / steady_allocs),
    );
    put("alloc-api.small_hits", one(small_hits as f64));
    put("alloc-api.small_misses", one(small_misses as f64));
    put("alloc-api.large_hits", one(oracle.read.large.hits as f64));
    put(
        "alloc-api.large_misses",
        one(oracle.read.large.misses as f64),
    );
    put(
        "alloc-api.cross_stream_parked",
        one(oracle.read.cache.cross_stream_parked as f64),
    );
    put(
        "alloc-api.cross_stream_fallback",
        one(oracle.read.cache.cross_stream_fallback as f64),
    );
    put(
        "alloc-api.event_promotions",
        one(oracle.read.cache.event_promotions as f64),
    );
    put(
        "alloc-api.parked_bytes_at_peak",
        one(oracle.findings.parked_bytes_at_peak as f64),
    );
    put(
        "alloc-api.reserved_inflation",
        one(oracle.lap.peak_reserved() as f64 / raw.peak_reserved() as f64),
    );
    put("core.calls", one(oracle.read.core_calls as f64));
    put(
        "core.incl_ns_per_call",
        reps(median_of(&top, |l| {
            l.core_ns_per_op * calls / l.steady_core().len().max(1) as f64
        })),
    );
    put("core.alloc_p50_ns", one(stats::sample_median(&core_allocs)));
    put(
        "core.alloc_p99_ns",
        one(stats::percentile(&core_allocs, 0.99).unwrap_or(0.0)),
    );
    put(
        "core.free_p50_ns",
        one(stats::sample_median(&durations(
            lap0.steady_core(),
            Kind::Free,
        ))),
    );
    put(
        "core.iter_ns_growth",
        reps(median_of(&top, |l| core_growth(inputs, l))),
    );
    put("core.s1_exact", one(oracle.read.core_state.exact as f64));
    put("core.s2_single", one(oracle.read.core_state.single as f64));
    put("core.s3_multi", one(oracle.read.core_state.multi as f64));
    put(
        "core.s4_insufficient",
        one(oracle.read.core_state.insufficient as f64),
    );
    put("core.stitches", one(oracle.read.core_state.stitches as f64));
    put("core.splits", one(oracle.read.core_state.splits as f64));
    put(
        "core.evictions",
        one(oracle.read.core_state.evictions as f64),
    );
    put("core.pblocks_end", one(oracle.read.core_blocks.0 as f64));
    put("core.sblocks_end", one(oracle.read.core_blocks.1 as f64));
    put(
        "core.journal_failed_ops",
        one(oracle.read.core_failed_ops as f64),
    );
    put("core.raw_host_ns_per_op", reps(raw_ns_per_op));
    put(
        "core.raw_peak_reserved_bytes",
        one(raw.peak_reserved() as f64),
    );
    put(
        "core.raw_reserved_vs_caching",
        one(raw.peak_reserved() as f64 / caching.peak_reserved() as f64),
    );
    put("planning.hit_rate", one(oracle.read.plan.hit_rate()));
    put("planning.plan_hits", one(oracle.read.plan.plan_hits as f64));
    put(
        "planning.residue_allocs",
        one(oracle.read.plan.residue_allocs as f64),
    );
    put(
        "planning.plans_built",
        one(oracle.read.plan.plans_built as f64),
    );
    put("planning.replans", one(oracle.read.plan.replans as f64));
    put(
        "planning.install_s",
        one(if is_planned {
            install_ns as f64 / 1e9
        } else {
            0.0
        }),
    );
    put(
        "planning.arena_bytes",
        one(oracle.read.plan_arena_bytes as f64),
    );
    put(
        "planning.reserved_vs_reactive",
        one(if is_planned {
            oracle.lap.peak_reserved() as f64 / reactive_peak as f64
        } else {
            0.0
        }),
    );
    put(
        "caching.peak_reserved_bytes",
        one(caching.peak_reserved() as f64),
    );
    put("caching.utilization", one(caching.stats.utilization()));
    put("caching.raw_host_ns_per_op", reps(caching_ns_per_op));
    put(
        "caching.raw_sim_stall_ns_per_op",
        one(caching.steady.stall_ns as f64 / calls),
    );
    put(
        "gpu-sim.calls_per_op",
        one((steady_driver_calls - own_calls) as f64 / calls),
    );
    put(
        "gpu-sim.warmup_calls",
        one(oracle.read.driver_warm.total_calls() as f64),
    );
    put("gpu-sim.calls.create", one(d(|s| s.create.calls)));
    put("gpu-sim.calls.map", one(d(|s| s.map.calls)));
    put("gpu-sim.calls.unmap", one(d(|s| s.unmap.calls)));
    put("gpu-sim.calls.set_access", one(d(|s| s.set_access.calls)));
    put("gpu-sim.calls.release", one(d(|s| s.release.calls)));
    put(
        "gpu-sim.calls.address_reserve",
        one(d(|s| s.address_reserve.calls)),
    );
    put(
        "gpu-sim.calls.address_free",
        one(d(|s| s.address_free.calls)),
    );
    put(
        "gpu-sim.calls.event_record",
        one(d(|s| s.event_record.calls)),
    );
    put("gpu-sim.calls.event_query", one(d(|s| s.event_query.calls)));
    put("gpu-sim.calls.event_sync", one(d(|s| s.event_sync.calls)));
    put(
        "gpu-sim.sim_ns_in_core_per_op",
        one(oracle.read.core_sim_ns as f64 / calls),
    );
    put(
        "gpu-sim.sim_event_ns_per_op",
        one(event_ns.saturating_sub(oracle.lap.steady.sync_ns) as f64 / calls),
    );
    put(
        "gpu-sim.phys_peak_bytes",
        one(oracle.read.phys_peak_bytes as f64),
    );
    put(
        "telemetry.trace_overhead_ratio",
        reps(median_of(&top, |l| l.wall_ns_per_op * calls) / plain_ns),
    );
    put(
        "telemetry.sink_overhead_ratio",
        one(sink_lap.steady.wall_ns as f64 / plain_ns),
    );
    put(
        "telemetry.spans",
        one((lap0.meter.spans.len() + lap0.meter.core.len()) as f64),
    );
    Ok((values, verdict))
}
