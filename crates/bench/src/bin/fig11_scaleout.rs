//! **Figure 11** — GPU scale-out (1/2/4/8/16 GPUs) with the LR strategy:
//! reserved memory + utilization (a–c) and throughput (d–f) for OPT-13B,
//! Vicuna-13B and GPT-NeoX-20B, with and without GMLake.
//!
//! Paper: GMLake keeps utilization ≈90% as the baseline degrades with GPU
//! count (up to 23% / 17 GB on GPT-NeoX-20B), at indistinguishable
//! throughput.
//!
//! This reproduction runs the ranks *concurrently* through the
//! `gmlake-runtime` pool service — one OS thread per simulated device (up
//! to 4 replayed ranks; data-parallel ranks beyond that are statistical
//! mirrors) — and adds the runtime's contribution on top of the paper's
//! figure: a periodic `DefragPolicy` ticking on the baseline fleet,
//! whose proactive compaction hands back the idle caches a plain caching
//! fleet keeps reserved to the end.

//! `fig11_scaleout --profile <out.json>` skips the full sweep and instead
//! replays a small profiled fleet (OPT-1.3B, 2 ranks) with the whole
//! telemetry stack attached, writing the memory-timeline snapshot to
//! `<out.json>` and the chrome://tracing export next to it
//! (`<out>.trace.json`); the snapshot is self-validated against the
//! `gmlake-snapshot/v1` schema before the binary exits 0.

use gmlake_bench::{fmt_gib, fmt_pct, rule, run_scaleout, run_scaleout_profiled, Allocator};
use gmlake_runtime::DefragPolicy;
use gmlake_telemetry::MemorySnapshot;
use gmlake_workload::{ModelSpec, ScaleoutReport, StrategySet, TrainConfig};

fn fmt_rm(report: &ScaleoutReport) -> String {
    if report.all_completed() {
        fmt_gib(report.max_peak_reserved())
    } else {
        "   OOM".to_owned()
    }
}

/// The `--profile <out.json>` mode: a small profiled replay whose snapshot
/// is written, exported as a chrome trace, and schema-validated.
fn run_profile(out: &str) {
    let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR)
        .with_batch(16)
        .with_gpus(2)
        .with_iterations(3);
    eprintln!("profiled replay: OPT-1.3B, LR, 2 ranks, 3 iterations");
    let (report, snapshot) = run_scaleout_profiled(&cfg, 2);
    if !report.all_completed() {
        eprintln!("profiled replay did not complete on every rank");
        std::process::exit(1);
    }

    let json = snapshot.to_json();
    if let Err(e) = MemorySnapshot::validate_json(&json) {
        eprintln!(
            "snapshot failed {} validation: {e}",
            gmlake_telemetry::SCHEMA
        );
        std::process::exit(1);
    }
    std::fs::write(out, &json).expect("write snapshot");
    let trace_path = format!("{}.trace.json", out.strip_suffix(".json").unwrap_or(out));
    std::fs::write(&trace_path, snapshot.to_chrome_trace()).expect("write chrome trace");

    for pool in &snapshot.pools {
        eprintln!(
            "  {}: {} timeline points, {} events, final reserved {}",
            pool.pool,
            pool.samples.len(),
            pool.events.len(),
            fmt_gib(pool.final_reserved).trim()
        );
    }
    println!(
        "wrote {out} (validated against {}) and {trace_path}",
        gmlake_telemetry::SCHEMA
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(at) = args.iter().position(|a| a == "--profile") {
        let out = args.get(at + 1).map(String::as_str).unwrap_or_else(|| {
            eprintln!("usage: fig11_scaleout --profile <out.json>");
            std::process::exit(2);
        });
        run_profile(out);
        return;
    }
    println!("Figure 11: GPU scale-out under LR, w/ and w/o GMLake (batch 16)");
    println!("ranks replay concurrently through the gmlake-runtime PoolService;");
    println!("end-RM = memory still reserved per rank after the run\n");
    let models = [
        ModelSpec::opt_13b(),
        ModelSpec::vicuna_13b(),
        ModelSpec::gpt_neox_20b(),
    ];
    for model in models {
        println!("model: {}", model.name);
        println!(
            "{:<6} {:>7} {:>7} {:>9} {:>8}   {:>7} {:>7} {:>9} {:>8}   {:>8} {:>9}",
            "gpus",
            "RM-pt",
            "UR-pt",
            "thr-pt",
            "drv-pt",
            "RM-gml",
            "UR-gml",
            "thr-gml",
            "drv-gml",
            "end-pt",
            "end+defrg"
        );
        rule(102);
        for gpus in [1u32, 2, 4, 8, 16] {
            let cfg = TrainConfig::new(model.clone(), StrategySet::LR)
                .with_batch(16)
                .with_gpus(gpus);
            let ranks = gpus.min(4);
            let baseline = run_scaleout(&cfg, ranks, Allocator::Caching, None);
            let defragged = run_scaleout(
                &cfg,
                ranks,
                Allocator::Caching,
                Some(DefragPolicy::periodic(2)),
            );
            let gmlake = run_scaleout(&cfg, ranks, Allocator::GmLake, None);
            println!(
                "{gpus:<6} {:>7} {:>7} {:>9.1} {:>8.0}   {:>7} {:>7} {:>9.1} {:>8.0}   {:>8} {:>9}",
                fmt_rm(&baseline),
                fmt_pct(baseline.mean_utilization()),
                baseline.fleet_throughput(),
                baseline.mean_driver_calls(),
                fmt_rm(&gmlake),
                fmt_pct(gmlake.mean_utilization()),
                gmlake.fleet_throughput(),
                gmlake.mean_driver_calls(),
                fmt_gib(baseline.total_final_reserved() / ranks as u64),
                fmt_gib(defragged.total_final_reserved() / ranks as u64),
            );
        }
        println!();
    }
    println!("end-RM columns: the periodic DefragPolicy (every 2 iterations)");
    println!("compacts each pool at iteration boundaries, so the defragged fleet");
    println!("ends holding less reserved memory than the plain one.");
    println!();
    println!("drv-* columns: mean per-rank driver calls (lock round-trips).");
    println!("GMLake backs each reservation with one physical handle, so an");
    println!("Alloc is one create and one map, and a stitch costs one map call");
    println!("per part instead of one per 2 MiB chunk.");
}
