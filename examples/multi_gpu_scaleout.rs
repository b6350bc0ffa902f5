//! Multi-GPU scale-out on the runtime layer: one data-parallel rank per
//! row, replayed through a `PoolHandle` of a `PoolService` on its own
//! simulated device, while fragmentation grows with the shard count (the
//! paper's Observation 2 / Figure 11). One rank stands for the fleet:
//! under ZeRO-3 every rank issues the same per-GPU request stream (the
//! trace is a pure function of the `TrainConfig`, which has no rank
//! index), so every rank reports the same numbers.
//!
//! Run with: `cargo run --release --example multi_gpu_scaleout`

use gmlake::prelude::*;
use gmlake_bench::{run_scaleout, Allocator};
use gmlake_workload::to_gib;

fn main() {
    println!("GPU scale-out, OPT-13B with LoRA + recomputation, batch 16/GPU");
    println!("(one rank per row through gmlake-runtime; ranks mirror)\n");
    println!(
        "{:<6} {:>12} {:>10} {:>12} {:>10}",
        "gpus", "RM-pt (GiB)", "UR-pt", "RM-gml(GiB)", "UR-gml"
    );
    for gpus in [1u32, 2, 4, 8, 16] {
        let cfg = TrainConfig::new(ModelSpec::opt_13b(), StrategySet::LR)
            .with_batch(16)
            .with_gpus(gpus);
        let (baseline, _) = run_scaleout(&cfg, Allocator::Caching);
        let (gml, _) = run_scaleout(&cfg, Allocator::GmLake);
        println!(
            "{gpus:<6} {:>12.1} {:>9.1}% {:>12.1} {:>9.1}%",
            to_gib(baseline.peak_reserved),
            baseline.utilization() * 100.0,
            to_gib(gml.peak_reserved),
            gml.utilization() * 100.0,
        );
    }
    println!("\nutilization of the splitting baseline degrades as shards shrink;");
    println!("GMLake holds ~99% at every scale.");
}
