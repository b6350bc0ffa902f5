//! Diagnostic: per-workload GMLake state counters and convergence flag, the
//! simulated driver time split by API, and the core's flip-path and
//! reclaim-walk work counts. Not a paper figure — used to verify that the S1-only steady
//! state (§4.2.2) is reached on each evaluation workload, and to see which
//! VMM call the allocator's driver time goes to. Everything it prints is
//! simulated time or a count, so two runs print the same bytes.
//!
//! ```text
//! cargo run --release -p gmlake-bench --bin probe_convergence
//! ```

use gmlake_bench::run_with;
use gmlake_core::{GmLakeAllocator, GmLakeConfig};
use gmlake_workload::{ModelSpec, ReplayOptions, StrategySet, TrainConfig};

fn probe(cfg: TrainConfig) {
    let (report, lake) = run_with(&cfg, &ReplayOptions::default(), |d| {
        GmLakeAllocator::new(d, GmLakeConfig::default())
    });
    let c = lake.state_counters();
    let mut label = cfg.label();
    if cfg.streams > 1 {
        label += &format!("/{}streams", cfg.streams);
    }
    println!(
        "{:<28} conv={:<5} S1={:<6} S2={:<4} S3={:<5} S4={:<4} stitch={:<5} split={:<5} evict={:<5} alloc_ms={:<8.1} {}",
        label,
        lake.is_converged(),
        c.exact,
        c.single,
        c.multi,
        c.insufficient,
        c.stitches,
        c.splits,
        c.evictions,
        report.allocator_ns as f64 / 1e6,
        if report.outcome.is_completed() { "ok" } else { "OOM" },
    );
    println!(
        "    non-exact per iteration: {:?}",
        lake.non_exact_history()
    );
    let d = lake.driver().stats();
    let ms = |ns: u64| ns as f64 / 1e6;
    let named = d.create.time_ns + d.map.time_ns + d.set_access.time_ns;
    let rest = d.vmm_time_ns() - named;
    println!(
        "    driver ms: create={:.1} map={:.1} set_access={:.1} rest={:.1}",
        ms(d.create.time_ns),
        ms(d.map.time_ns),
        ms(d.set_access.time_ns),
        ms(rest),
    );
    let w = lake.work_counters();
    println!(
        "    core work: part_flips={} index_ops={} view_index_ops={} lru_splices={} active_skips={} views_verified={} parts_scanned={} ref_scans={}",
        w.part_flips,
        w.index_ops,
        w.view_index_ops,
        w.lru_splices,
        w.active_skips,
        w.views_verified,
        w.parts_scanned,
        w.ref_scans,
    );
    println!(
        "    reclaim: marks={} visits={}",
        w.reclaim_marks, w.reclaim_visits,
    );
}

fn main() {
    let six = |model, s| TrainConfig::new(model, s).with_iterations(6);
    for s in StrategySet::FIG10_SWEEP {
        probe(six(ModelSpec::opt_1_3b(), s));
    }
    probe(six(ModelSpec::opt_13b(), StrategySet::LR));
    probe(six(ModelSpec::opt_13b(), StrategySet::R));
    // Offload's copy stream beside compute: the only row whose exact view
    // matches come from two streams, which share every cached view.
    probe(six(ModelSpec::opt_13b(), StrategySet::LRO).with_streams(2));
}
