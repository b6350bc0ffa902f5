//! Criterion wrappers for the figure experiments, so `cargo bench` exercises
//! one representative workload per evaluation axis end to end (small
//! configurations; the full paper-scale sweeps live in `src/bin/repro.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use gmlake_bench::{run_single, Allocator};
use gmlake_workload::{ModelSpec, ReplayOptions, StrategySet, TrainConfig};

fn small_cfg() -> TrainConfig {
    TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR)
        .with_iterations(2)
        .with_seq_len(512)
}

fn bench_replay_baseline(c: &mut Criterion) {
    let cfg = small_cfg();
    let mut g = c.benchmark_group("replay_opt1_3b_lr");
    g.sample_size(10);
    g.bench_function("caching", |b| {
        b.iter(|| {
            black_box(run_single(
                &cfg,
                Allocator::Caching,
                &ReplayOptions::default(),
            ))
        })
    });
    g.bench_function("gmlake", |b| {
        b.iter(|| {
            black_box(run_single(
                &cfg,
                Allocator::GmLake,
                &ReplayOptions::default(),
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_replay_baseline);
criterion_main!(benches);
