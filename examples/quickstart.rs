//! Quickstart: virtual memory stitching in five minutes.
//!
//! Recreates the paper's Figure 1 on a tiny simulated GPU: a fragmented
//! caching allocator dies on a request its total free memory could satisfy,
//! while GMLake stitches the non-contiguous free blocks behind one virtual
//! address range and serves it — then proves the stitched range behaves like
//! flat memory by writing across the physical boundary. Part 3 shares one
//! GMLake pool between threads through the concurrent `DeviceAllocator`
//! front-end.
//!
//! Run with: `cargo run --example quickstart`

use gmlake::prelude::*;
use gmlake_core::GmLakeConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 40 MiB device with byte backing so we can read/write through VAs.
    let device = DeviceConfig::small_test().with_capacity(mib(40));

    // ---------------------------------------------------------------
    // 1. The splitting baseline fragments and dies (Figure 1, left).
    // ---------------------------------------------------------------
    let driver = CudaDriver::new(device.clone());
    let mut bfc = CachingAllocator::new(driver.clone());
    let a = bfc.allocate(AllocRequest::new(mib(6)))?;
    let b = bfc.allocate(AllocRequest::new(mib(6)))?;
    let c = bfc.allocate(AllocRequest::new(mib(8)))?;
    let d = bfc.allocate(AllocRequest::new(mib(6)))?; // second segment
    bfc.deallocate(a.id)?;
    bfc.deallocate(c.id)?;
    println!(
        "caching allocator: {} MiB free in pieces, largest contiguous {} MiB",
        bfc.free_bytes() / mib(1),
        bfc.largest_free_block() / mib(1)
    );
    let err = bfc
        .allocate(AllocRequest::new(mib(16)))
        .expect_err("fragmented pool cannot serve 16 MiB");
    println!("caching allocator: 16 MiB request fails: {err}\n");
    bfc.deallocate(b.id)?;
    bfc.deallocate(d.id)?;
    drop(bfc);

    // ---------------------------------------------------------------
    // 2. GMLake stitches the same fragments and survives (Figure 1, right).
    // ---------------------------------------------------------------
    let driver = CudaDriver::new(device);
    let config = GmLakeConfig::default().with_frag_limit(mib(2));
    let mut lake = GmLakeAllocator::new(driver.clone(), config);
    let a = lake.allocate(AllocRequest::new(mib(6)))?;
    let b = lake.allocate(AllocRequest::new(mib(6)))?;
    let c = lake.allocate(AllocRequest::new(mib(8)))?;
    let d = lake.allocate(AllocRequest::new(mib(6)))?;
    lake.deallocate(a.id)?;
    lake.deallocate(c.id)?;

    let big = lake.allocate(AllocRequest::new(mib(14)))?;
    println!(
        "gmlake: 14 MiB tensor stitched from freed 6 + 8 MiB blocks at {}",
        big.va
    );
    println!(
        "gmlake: physical memory in use is still {} MiB (nothing new allocated)",
        driver.phys_in_use() / mib(1)
    );

    // The stitched range is contiguous to the tensor: write a pattern
    // across what is physically a block boundary and read it back.
    let boundary = big.va.offset(mib(8) - 4);
    driver.memcpy_htod(boundary, b"stitched, not moved!")?;
    let mut readback = [0u8; 20];
    driver.memcpy_dtoh(boundary, &mut readback)?;
    assert_eq!(&readback, b"stitched, not moved!");
    println!("gmlake: write/read across the stitch boundary round-trips\n");

    let counters = lake.state_counters();
    println!(
        "gmlake state counters: exact={} single={} multi={} alloc={} (stitches={})",
        counters.exact, counters.single, counters.multi, counters.insufficient, counters.stitches
    );

    lake.deallocate(big.id)?;
    lake.deallocate(b.id)?;
    lake.deallocate(d.id)?;

    // ---------------------------------------------------------------
    // 3. Many threads, one pool: the concurrent DeviceAllocator front-end.
    //    Small tensors ride the per-stream size-class cache (no pool mutex);
    //    large/stitch traffic falls back to the wrapped GMLake core.
    // ---------------------------------------------------------------
    let pool = DeviceAllocator::new(lake);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let pool = pool.clone();
            s.spawn(move || {
                for _ in 0..256 {
                    let a = pool
                        .allocate(AllocRequest::new(kib(64 + 16 * t)))
                        .expect("small tensors always fit here");
                    pool.deallocate(a.id).expect("live");
                }
            });
        }
    });
    let stats = pool.stats();
    let cache = pool.cache_stats();
    println!(
        "\ndevice-allocator: 4 threads x 256 small alloc/free — {} allocs, {} frees, \
         {} cache hits / {} misses, {} blocks cached",
        stats.alloc_count, stats.free_count, cache.hits, cache.misses, cache.cached_blocks
    );
    // Typed telemetry still works behind the type-erased front-end.
    let stitches = pool
        .with_core_as::<GmLakeAllocator, _>(|l| l.state_counters().stitches)
        .expect("the wrapped core is GMLake");
    println!("device-allocator: wrapped gmlake core reports {stitches} lifetime stitches");
    assert_eq!(stats.active_bytes, 0);
    Ok(())
}
