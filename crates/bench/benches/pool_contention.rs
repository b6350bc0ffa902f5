//! Lock-contention micro-benchmark of the shared-pool allocation path:
//! what a small alloc/free cycle costs through the `DeviceAllocator`'s
//! per-stream cache versus the retired single-mutex design (fast path
//! disabled — every call through the core mutex), swept over 1/2/4/8
//! threads, plus the raw single-owner allocator as the floor.
//!
//! Every thread allocates on the default stream, so all of them share
//! that stream's one cache lock: the cached path saves the core call, not
//! the lock. The absolute numbers are host-side wall time (the device cost
//! model is zeroed); the interesting ratio is cached-vs-mutex at each
//! thread count.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use gmlake_alloc_api::{gib, kib, AllocRequest, AllocatorCore, DeviceAllocator};
use gmlake_bench::perf::{contention_pool, contention_thread_size};
use gmlake_caching::CachingAllocator;
use gmlake_gpu_sim::{CostModel, CudaDriver, DeviceConfig};
use gmlake_runtime::{DeviceId, PoolHandle, PoolService};

const OPS_PER_THREAD: usize = 256;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn device() -> CudaDriver {
    CudaDriver::new(
        DeviceConfig::a100_80g()
            .with_cost(CostModel::zero())
            .with_capacity(gib(4)),
    )
}

fn cycle(pool: &DeviceAllocator, size: u64) {
    let a = pool.allocate(AllocRequest::new(black_box(size))).unwrap();
    pool.deallocate(a.id).unwrap();
}

fn hammer(pool: &DeviceAllocator, threads: usize) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = pool.clone();
            s.spawn(move || {
                let size = contention_thread_size(t);
                for _ in 0..OPS_PER_THREAD {
                    cycle(&pool, size);
                }
            });
        }
    })
}

fn bench_raw_baseline(c: &mut Criterion) {
    c.bench_function("contention_raw_allocator_1thread", |b| {
        let mut alloc = CachingAllocator::new(device());
        let warm = alloc.allocate(AllocRequest::new(kib(8))).unwrap();
        alloc.deallocate(warm.id).unwrap();
        b.iter(|| {
            let a = alloc
                .allocate(AllocRequest::new(black_box(kib(8))))
                .unwrap();
            alloc.deallocate(a.id).unwrap();
        });
    });
}

fn bench_thread_sweep(c: &mut Criterion) {
    for &threads in &THREAD_COUNTS {
        let group_name = format!("contention_{threads}threads");
        let mut g = c.benchmark_group(&group_name);
        g.sample_size(20);
        for (label, cached) in [("mutex", false), ("cached", true)] {
            g.bench_function(&format!("{label}_{OPS_PER_THREAD}ops_each"), |b| {
                let pool = contention_pool(cached);
                for t in 0..threads {
                    cycle(&pool, contention_thread_size(t)); // warm every class
                }
                b.iter(|| hammer(&pool, threads));
            });
        }
        g.finish();
    }
}

fn bench_pool_handle_path(c: &mut Criterion) {
    // The full runtime path (PoolService registry + scheduler hooks) on
    // top of the cached fast path: the overhead the handle itself adds.
    c.bench_function("contention_pool_handle_1thread", |b| {
        let service = PoolService::new();
        let pool: PoolHandle = service
            .register(DeviceId(0), Box::new(CachingAllocator::new(device())))
            .expect("fresh service");
        let warm = pool.allocate(AllocRequest::new(kib(8))).unwrap();
        pool.deallocate(warm.id).unwrap();
        b.iter(|| {
            let a = pool.allocate(AllocRequest::new(black_box(kib(8)))).unwrap();
            pool.deallocate(a.id).unwrap();
        });
    });
}

criterion_group!(
    benches,
    bench_raw_baseline,
    bench_thread_sweep,
    bench_pool_handle_path
);
criterion_main!(benches);
