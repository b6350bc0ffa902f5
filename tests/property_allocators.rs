//! Property-based tests: random (de)allocation programs against both
//! allocators and the raw driver, checking structural invariants after
//! every step and full teardown at the end.

use proptest::prelude::*;

use gmlake::prelude::*;
use gmlake_core::GmLakeConfig;

/// One step of a random allocator program.
#[derive(Debug, Clone)]
enum Op {
    /// Allocate this many bytes (allocators round internally).
    Alloc(u64),
    /// Free the n-th (mod live count) live allocation.
    Free(usize),
    /// Release cached memory (like `torch.cuda.empty_cache`).
    ReleaseCached,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (512u64..8 * 1024 * 1024).prop_map(Op::Alloc),
        4 => any::<usize>().prop_map(Op::Free),
        1 => Just(Op::ReleaseCached),
    ]
}

/// Drives a program against an allocator; returns the surviving ids.
fn run_program<A: AllocatorCore>(
    alloc: &mut A,
    ops: &[Op],
    mut check: impl FnMut(&mut A),
) -> Vec<AllocationId> {
    let mut live: Vec<(AllocationId, u64)> = Vec::new();
    for op in ops {
        match op {
            Op::Alloc(size) => match alloc.allocate(AllocRequest::new(*size)) {
                Ok(a) => {
                    assert!(a.size >= *size, "undersized block");
                    live.push((a.id, a.size));
                }
                Err(AllocError::OutOfMemory { .. }) => {}
                Err(e) => panic!("unexpected allocator error: {e}"),
            },
            Op::Free(n) => {
                if !live.is_empty() {
                    let (id, _) = live.swap_remove(n % live.len());
                    alloc.deallocate(id).unwrap();
                }
            }
            Op::ReleaseCached => {
                alloc.release_cached();
            }
        }
        check(alloc);
        let expected_active: u64 = live.iter().map(|(_, s)| s).sum();
        let stats = alloc.stats();
        assert_eq!(stats.active_bytes, expected_active, "active accounting");
        assert!(stats.reserved_bytes >= stats.active_bytes);
        assert_eq!(stats.live_allocations(), live.len() as u64);
    }
    live.into_iter().map(|(id, _)| id).collect()
}

fn small_device() -> CudaDriver {
    CudaDriver::new(
        DeviceConfig::small_test()
            .with_capacity(mib(64))
            .with_backing(false),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn caching_allocator_invariants_hold(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let driver = small_device();
        let mut alloc = CachingAllocator::new(driver.clone());
        let survivors = run_program(&mut alloc, &ops, |a| a.validate().unwrap());
        for id in survivors {
            alloc.deallocate(id).unwrap();
        }
        alloc.validate().unwrap();
        prop_assert_eq!(alloc.stats().active_bytes, 0);
        // Everything is releasable once nothing is live.
        alloc.release_cached();
        prop_assert_eq!(alloc.stats().reserved_bytes, 0);
        drop(alloc);
        prop_assert!(driver.snapshot().is_quiescent());
    }

    #[test]
    fn gmlake_invariants_hold(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let driver = small_device();
        let mut alloc = GmLakeAllocator::new(
            driver.clone(),
            GmLakeConfig::default().with_frag_limit(mib(2)),
        );
        let survivors = run_program(&mut alloc, &ops, |a| a.validate().unwrap());
        // Reserved physical memory never exceeds the device, and the device
        // agrees with the allocator at all times.
        prop_assert_eq!(driver.phys_in_use(), alloc.stats().reserved_bytes);
        for id in survivors {
            alloc.deallocate(id).unwrap();
        }
        alloc.validate().unwrap();
        prop_assert_eq!(alloc.stats().active_bytes, 0);
        alloc.release_cached();
        prop_assert_eq!(alloc.stats().reserved_bytes, 0);
        drop(alloc);
        prop_assert!(driver.snapshot().is_quiescent());
    }

    #[test]
    fn gmlake_and_caching_agree_on_feasibility_of_flat_programs(
        sizes in prop::collection::vec(512u64..4 * 1024 * 1024, 1..24)
    ) {
        // Allocate-all-then-free-all programs must succeed identically on
        // both allocators (no fragmentation is possible without churn).
        // The device is sized so that even worst-case segment-granularity
        // overhead (a fresh 20 MiB segment per request) cannot OOM.
        let roomy = || {
            CudaDriver::new(
                DeviceConfig::small_test()
                    .with_capacity(gib(1))
                    .with_backing(false),
            )
        };
        let mut bfc = CachingAllocator::new(roomy());
        let mut lake = GmLakeAllocator::new(roomy(), GmLakeConfig::default());
        for alloc in [&mut bfc as &mut dyn AllocatorCore, &mut lake as &mut dyn AllocatorCore] {
            let ids: Vec<_> = sizes
                .iter()
                .map(|s| alloc.allocate(AllocRequest::new(*s)).unwrap().id)
                .collect();
            for id in ids {
                alloc.deallocate(id).unwrap();
            }
            prop_assert_eq!(alloc.stats().active_bytes, 0);
        }
    }

    #[test]
    fn gmlake_data_integrity_under_churn(ops in prop::collection::vec(op_strategy(), 1..60)) {
        // Every live allocation carries a unique pattern at its head and
        // tail; stitching/splitting must never corrupt it (this is the
        // aliasing-correctness property of multi-VA mapping).
        let driver = CudaDriver::new(DeviceConfig::small_test().with_capacity(mib(64)));
        let mut alloc = GmLakeAllocator::new(
            driver.clone(),
            GmLakeConfig::default().with_frag_limit(mib(2)),
        );
        let mut live: Vec<(AllocationId, gmlake_alloc_api::VirtAddr, u64, u64)> = Vec::new();
        let mut counter = 0u64;
        for op in &ops {
            match op {
                Op::Alloc(size) => {
                    if let Ok(a) = alloc.allocate(AllocRequest::new(*size)) {
                        counter += 1;
                        let pat = counter.to_le_bytes();
                        driver.memcpy_htod(a.va, &pat).unwrap();
                        driver.memcpy_htod(a.va.offset(a.size - 8), &pat).unwrap();
                        live.push((a.id, a.va, a.size, counter));
                    }
                }
                Op::Free(_) | Op::ReleaseCached if !live.is_empty() => {
                    let idx = match op {
                        Op::Free(n) => n % live.len(),
                        _ => 0,
                    };
                    let (id, va, size, pat) = live.swap_remove(idx);
                    let mut head = [0u8; 8];
                    let mut tail = [0u8; 8];
                    driver.memcpy_dtoh(va, &mut head).unwrap();
                    driver.memcpy_dtoh(va.offset(size - 8), &mut tail).unwrap();
                    prop_assert_eq!(u64::from_le_bytes(head), pat, "head corrupted");
                    prop_assert_eq!(u64::from_le_bytes(tail), pat, "tail corrupted");
                    alloc.deallocate(id).unwrap();
                }
                _ => {}
            }
        }
        // Verify all survivors before teardown.
        for (_, va, size, pat) in &live {
            let mut head = [0u8; 8];
            driver.memcpy_dtoh(*va, &mut head).unwrap();
            prop_assert_eq!(u64::from_le_bytes(head), *pat);
            let mut tail = [0u8; 8];
            driver.memcpy_dtoh(va.offset(size - 8), &mut tail).unwrap();
            prop_assert_eq!(u64::from_le_bytes(tail), *pat);
        }
    }

    #[test]
    fn driver_accounting_matches_model(
        chunk_counts in prop::collection::vec(1u64..8, 1..16)
    ) {
        // Create pBlock-like groups, alias half of them at second VAs, then
        // tear down in reverse; physical accounting must match a simple
        // model at every step.
        let driver = small_device();
        let gran = driver.granularity();
        let mut groups = Vec::new();
        let mut model_in_use = 0u64;
        for (i, &n) in chunk_counts.iter().enumerate() {
            let size = n * gran;
            if model_in_use + size > driver.capacity() {
                break;
            }
            let va = driver.mem_address_reserve(size).unwrap();
            let mut handles = Vec::new();
            for k in 0..n {
                let h = driver.mem_create(gran).unwrap();
                driver.mem_map(va.offset(k * gran), gran, 0, h).unwrap();
                handles.push(h);
            }
            driver.mem_set_access(va, size, true).unwrap();
            model_in_use += size;
            prop_assert_eq!(driver.phys_in_use(), model_in_use);
            // Alias every even group at a second VA (stitch-style).
            let alias = if i % 2 == 0 {
                let va2 = driver.mem_address_reserve(size).unwrap();
                for (k, h) in handles.iter().enumerate() {
                    driver.mem_map(va2.offset(k as u64 * gran), gran, 0, *h).unwrap();
                }
                driver.mem_set_access(va2, size, true).unwrap();
                // Aliasing is free: no physical growth.
                prop_assert_eq!(driver.phys_in_use(), model_in_use);
                Some(va2)
            } else {
                None
            };
            groups.push((va, size, handles, alias));
        }
        for (va, size, handles, alias) in groups.into_iter().rev() {
            if let Some(va2) = alias {
                driver.mem_unmap(va2, size).unwrap();
                driver.mem_address_free(va2, size).unwrap();
            }
            driver.mem_unmap(va, size).unwrap();
            for h in handles {
                driver.mem_release(h).unwrap();
            }
            driver.mem_address_free(va, size).unwrap();
            model_in_use -= size;
            prop_assert_eq!(driver.phys_in_use(), model_in_use);
        }
        prop_assert!(driver.snapshot().is_quiescent());
    }
}
