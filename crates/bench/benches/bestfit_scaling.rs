//! Allocator hot-path scaling: allocate/deallocate and `BestFit`
//! classification across pool sizes (1e2–1e5 inactive blocks), on the
//! converged pool state where every inactive pBlock belongs to a cached
//! available sBlock.
//!
//! `probe:indexed` vs `probe:reference` is the headline comparison: the
//! indexed implementation against the retained pre-index reference on
//! identical pool state. `alloc_free:s1` shows the end-to-end exact-match
//! round-trip as the pool grows: `O(log n)` for finding the view, while
//! flipping its parts touches no index; `flip_fanout` is the same
//! round-trip on dense-sharing pools of a fixed part count and a growing
//! number of views over them, which it must not depend on.

use criterion::{criterion_group, criterion_main, Criterion};
use gmlake_alloc_api::{AllocRequest, AllocatorCore};
use gmlake_bench::perf::{
    build_converged_pool, build_dense_sharing_pool, DENSE_PART_BYTES, STITCH_PROBE_BYTES,
    VIEW_BYTES,
};

fn bestfit_scaling(c: &mut Criterion) {
    for &n in &[100usize, 1_000, 10_000, 100_000] {
        let mut lake = build_converged_pool(n);
        let mut group = c.benchmark_group(&format!("bestfit_scaling/{n}_blocks"));
        group.bench_function("alloc_free:s1", |b| {
            b.iter(|| {
                let a = lake
                    .allocate(AllocRequest::new(VIEW_BYTES))
                    .expect("exact match");
                lake.deallocate(a.id).expect("live");
            })
        });
        group.bench_function("probe:indexed", |b| {
            b.iter(|| lake.probe_bestfit_indexed(STITCH_PROBE_BYTES))
        });
        let indexes = lake.reference_indexes();
        group.bench_function("probe:reference", |b| {
            b.iter(|| lake.probe_bestfit_reference(STITCH_PROBE_BYTES, &indexes))
        });
        group.finish();
    }
}

/// The activity flip under dense sharing: an exact-match round-trip of the
/// largest view of a pool whose `PARTS` blocks each sit in up to `views`
/// views. Cost is `O(PARTS)` flips and must depend neither on `views` nor
/// on how often the cycle has run.
fn flip_fanout(c: &mut Criterion) {
    const PARTS: usize = 128;
    for &views in &[1usize, 8, 32, 127] {
        let mut lake = build_dense_sharing_pool(PARTS, views);
        let mut group = c.benchmark_group(&format!("flip_fanout/{PARTS}_parts/{views}_views"));
        group.bench_function("alloc_free:s1", |b| {
            b.iter(|| {
                let a = lake
                    .allocate(AllocRequest::new(PARTS as u64 * DENSE_PART_BYTES))
                    .expect("exact match");
                lake.deallocate(a.id).expect("live");
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bestfit_scaling, flip_fanout);
criterion_main!(benches);
