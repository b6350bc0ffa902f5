//! End-to-end telemetry test: a fig11-style profiled scale-out replay
//! through the whole stack (core stitch decisions → front-end hot paths →
//! driver clock/histogram → runtime profiler), asserting the acceptance
//! criteria of the observability layer:
//!
//! * the snapshot's reserved-bytes timeline reconciles with the pools'
//!   final `MemStats` (last sample == final gauges, checked both directly
//!   and via `MemorySnapshot::validate_json`);
//! * the JSON export round-trips exactly and passes schema validation;
//! * the chrome://tracing export parses as valid JSON with the expected
//!   envelope.

use gmlake::telemetry::{json, EventKind, MemorySnapshot};
use gmlake_bench::run_scaleout_profiled;
use gmlake_workload::{ModelSpec, StrategySet, TrainConfig};

const RANKS: u32 = 2;

fn profiled_cfg() -> TrainConfig {
    TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR)
        .with_batch(16)
        .with_gpus(RANKS)
        .with_iterations(2)
}

#[test]
fn profiled_replay_timeline_reconciles_with_final_memstats() {
    let (report, snapshot) = run_scaleout_profiled(&profiled_cfg(), RANKS);
    assert!(report.all_completed(), "profiled replay must complete");
    assert_eq!(snapshot.pools.len(), RANKS as usize, "one pool per rank");

    for pool in &snapshot.pools {
        // The profiler records a final sample at dump time, so the
        // timeline's last point is exactly the pool's closing MemStats.
        let last = pool
            .samples
            .last()
            .expect("profiler records at least the start and dump samples");
        assert_eq!(
            last.reserved_bytes, pool.final_reserved,
            "{}: timeline end must reconcile with final reserved bytes",
            pool.pool
        );
        assert_eq!(
            last.active_bytes, pool.final_active,
            "{}: timeline end must reconcile with final active bytes",
            pool.pool
        );
        // The replay starts from an empty pool and allocates: the series
        // must have actually moved.
        assert!(pool.samples.len() >= 2, "start + iterations + dump samples");
        assert!(
            pool.samples.iter().any(|s| s.reserved_bytes > 0),
            "{}: replay must reserve memory on the timeline",
            pool.pool
        );

        // Cross-layer events all arrived in one trace: the front-end's
        // alloc path and the core's BestFit decisions.
        assert!(
            pool.events.iter().any(|e| e.kind == EventKind::Alloc),
            "{}: front-end alloc events recorded",
            pool.pool
        );
        assert!(
            pool.events
                .iter()
                .any(|e| e.kind == EventKind::StitchDecision),
            "{}: core BestFit decision events recorded",
            pool.pool
        );

        // The latency histograms around the hot paths saw traffic.
        let alloc_hist = pool
            .histograms
            .iter()
            .find(|(name, _)| name == "alloc_ns")
            .map(|(_, h)| h)
            .expect("alloc_ns histogram present");
        assert!(alloc_hist.count > 0, "alloc_ns histogram saw traffic");
        let driver_hist = pool
            .histograms
            .iter()
            .find(|(name, _)| name == "driver_ns")
            .map(|(_, h)| h)
            .expect("driver_ns histogram present");
        assert!(driver_hist.count > 0, "driver_ns histogram saw traffic");
    }
}

#[test]
fn profiled_replay_snapshot_exports_validate() {
    let (_, snapshot) = run_scaleout_profiled(&profiled_cfg(), RANKS);

    // JSON export: schema-validates (including the timeline/final-gauge
    // reconciliation check) and round-trips exactly.
    let text = snapshot.to_json();
    MemorySnapshot::validate_json(&text).expect("snapshot passes gmlake-snapshot/v2 validation");
    let back = MemorySnapshot::from_json(&text).expect("snapshot JSON parses back");
    assert_eq!(back, snapshot, "JSON round-trip is lossless");

    // chrome://tracing export: valid JSON with the traceEvents envelope,
    // one counter event per timeline sample plus instants and metadata.
    let trace = snapshot.to_chrome_trace();
    let doc = json::parse(&trace).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("chrome trace has a traceEvents array");
    let samples: usize = snapshot.pools.iter().map(|p| p.samples.len()).sum();
    let counters = events
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("C"))
        .count();
    assert_eq!(counters, samples, "one counter event per timeline sample");
}
