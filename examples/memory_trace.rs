//! Dump a Figure-14-style memory-over-time trace as CSV.
//!
//! Replays a GPT-NeoX-20B fine-tuning trace against both allocators and
//! prints `t_s, active, reserved` series suitable for plotting; annotates
//! the OOM point of the baseline when it occurs.
//!
//! Run with: `cargo run --release --example memory_trace > trace.csv`

use gmlake::prelude::*;
use gmlake_core::GmLakeConfig;
use gmlake_workload::{to_gib, ReplayOptions, TraceGenerator};

fn main() {
    let cfg = TrainConfig::new(ModelSpec::gpt_neox_20b(), StrategySet::LR)
        .with_seq_len(1024)
        .with_batch(96)
        .with_iterations(6);
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let opts = ReplayOptions {
        record_series: true,
        ..ReplayOptions::default()
    };

    // Both allocators run behind the concurrent `DeviceAllocator` front-end
    // (the type every shared pool is driven through).
    let d1 = CudaDriver::new(DeviceConfig::a100_80g());
    let mut pt = DeviceAllocator::new(CachingAllocator::new(d1.clone()));
    let r_pt = Replayer::new(d1)
        .with_options(opts.clone())
        .replay(&mut pt, &trace, &cfg);

    let d2 = CudaDriver::new(DeviceConfig::a100_80g());
    let mut gml = DeviceAllocator::new(GmLakeAllocator::new(d2.clone(), GmLakeConfig::default()));
    let r_gml = Replayer::new(d2)
        .with_options(opts)
        .replay(&mut gml, &trace, &cfg);

    eprintln!(
        "baseline: {:?} | gmlake: {:?} (peaks {:.1} vs {:.1} GiB reserved)",
        r_pt.outcome,
        r_gml.outcome,
        to_gib(r_pt.peak_reserved),
        to_gib(r_gml.peak_reserved)
    );

    println!("allocator,t_s,active_gib,reserved_gib");
    for s in &r_pt.series {
        println!(
            "pytorch,{:.2},{:.2},{:.2}",
            s.t_ns as f64 / 1e9,
            to_gib(s.active),
            to_gib(s.reserved)
        );
    }
    for s in &r_gml.series {
        println!(
            "gmlake,{:.2},{:.2},{:.2}",
            s.t_ns as f64 / 1e9,
            to_gib(s.active),
            to_gib(s.reserved)
        );
    }
}
