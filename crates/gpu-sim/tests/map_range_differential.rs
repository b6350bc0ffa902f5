//! Differential test of the batched `mem_map_range` against the per-chunk
//! `mem_map` loop it stands for: random reserve / create / release / map /
//! set-access / unmap / copy programs run on two identical devices, one
//! mapping each batch with a single `mem_map_range`, the other with the
//! oracle below — one `mem_map` per chunk, rolled back with `mem_unmap` on
//! the first failure. After every op both must agree on the result (the
//! error variant and the address the loop reports for its first failing
//! chunk), on `snapshot()` apart from `clock_ns` (batching saves n − 1
//! dispatches by design), and on the bytes read across chunk seams.
//!
//! Batches overlap live mappings, run past their reservation, and name
//! released, destroyed, never-created and repeated handles. A batch must
//! lie inside the one reservation holding its start, while the per-chunk
//! loop would map a chunk that lands in an *adjacent* reservation — so
//! every reservation here is followed by a freed gap, where both report
//! the first chunk past the end as `InvalidAddress`.

use std::fmt::Debug;

use gmlake_alloc_api::VirtAddr;
use gmlake_gpu_sim::{CudaDriver, DeviceConfig, DeviceSnapshot, DriverResult, PhysHandle};
use proptest::prelude::*;

/// Chunk size and granularity of the test device.
const G: u64 = 2 << 20;

#[derive(Debug, Clone)]
enum Op {
    /// Reserve `chunks` granules (then a freed one-granule gap).
    Reserve { chunks: u64 },
    /// Create one handle of `granules` granules.
    Create { granules: u64 },
    /// Release the `nth` handle ever created (maybe twice).
    Release { nth: usize },
    /// Map the picked handles as chunks of `granules` granules, from
    /// granule `at` of reservation `resv`.
    Map {
        resv: usize,
        at: u64,
        granules: u64,
        picks: Vec<usize>,
    },
    /// Set access on `chunks` chunks from chunk `at`.
    Access {
        resv: usize,
        at: u64,
        chunks: u64,
        enable: bool,
    },
    /// Unmap `chunks` chunks from chunk `at`.
    Unmap { resv: usize, at: u64, chunks: u64 },
    /// Write then read 16 bytes straddling the seam before chunk `at`.
    Copy { resv: usize, at: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (1u64..5).prop_map(|chunks| Op::Reserve { chunks }),
        3 => (1u64..3).prop_map(|granules| Op::Create { granules }),
        1 => any::<usize>().prop_map(|nth| Op::Release { nth }),
        5 => (any::<usize>(), 0u64..5, 1u64..3, prop::collection::vec(any::<usize>(), 1..5))
            .prop_map(|(resv, at, granules, picks)| Op::Map { resv, at, granules, picks }),
        2 => (any::<usize>(), 0u64..4, 1u64..4, any::<bool>())
            .prop_map(|(resv, at, chunks, enable)| Op::Access { resv, at, chunks, enable }),
        2 => (any::<usize>(), 0u64..4, 1u64..4)
            .prop_map(|(resv, at, chunks)| Op::Unmap { resv, at, chunks }),
        2 => (any::<usize>(), 1u64..4).prop_map(|(resv, at)| Op::Copy { resv, at }),
    ]
}

/// The oracle: one `mem_map` per chunk, the chunks mapped so far unmapped
/// again on the first failure.
fn map_per_chunk(d: &CudaDriver, va: VirtAddr, chunk: u64, hs: &[PhysHandle]) -> DriverResult<()> {
    for (i, &h) in hs.iter().enumerate() {
        if let Err(e) = d.mem_map(va.offset(i as u64 * chunk), chunk, 0, h) {
            for j in 0..i as u64 {
                d.mem_unmap(va.offset(j * chunk), chunk)
                    .expect("mapped above");
            }
            return Err(e);
        }
    }
    Ok(())
}

/// Runs `f` on both devices and insists they agree.
fn same<T: PartialEq + Debug>(a: &CudaDriver, b: &CudaDriver, f: impl Fn(&CudaDriver) -> T) -> T {
    let v = f(a);
    assert_eq!(v, f(b));
    v
}

fn state(d: &CudaDriver) -> DeviceSnapshot {
    DeviceSnapshot {
        clock_ns: 0,
        ..d.snapshot()
    }
}

fn run(ops: &[Op]) {
    let batch = CudaDriver::new(DeviceConfig::small_test());
    let oracle = CudaDriver::new(DeviceConfig::small_test());
    // A handle id neither device has minted: the ghost device's 64th.
    let ghost = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    let unknown = *ghost.mem_create_batch(G, 64).unwrap().last().unwrap();
    let mut resvs: Vec<VirtAddr> = Vec::new();
    let mut handles: Vec<PhysHandle> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let pick = |resv: usize, chunk: u64| resvs[resv % resvs.len()].offset(chunk * G);
        let (b, o) = match op {
            Op::Reserve { chunks } => {
                resvs.push(same(&batch, &oracle, |d| {
                    let va = d.mem_address_reserve(chunks * G).unwrap();
                    let gap = d.mem_address_reserve(G).unwrap();
                    d.mem_address_free(gap, G).unwrap();
                    va
                }));
                (Ok(()), Ok(()))
            }
            Op::Create { granules } => {
                handles.push(same(&batch, &oracle, |d| {
                    d.mem_create(granules * G).unwrap()
                }));
                (Ok(()), Ok(()))
            }
            Op::Release { nth } if !handles.is_empty() => {
                let h = handles[nth % handles.len()];
                (batch.mem_release(h), oracle.mem_release(h))
            }
            Op::Map {
                resv,
                at,
                granules,
                picks,
            } if !resvs.is_empty() => {
                let hs: Vec<PhysHandle> = picks
                    .iter()
                    .map(|&p| {
                        handles
                            .get(p % (handles.len() + 1))
                            .copied()
                            .unwrap_or(unknown)
                    })
                    .collect();
                let (va, chunk) = (pick(*resv, *at), granules * G);
                (
                    batch.mem_map_range(va, chunk, &hs),
                    map_per_chunk(&oracle, va, chunk, &hs),
                )
            }
            Op::Access {
                resv,
                at,
                chunks,
                enable,
            } if !resvs.is_empty() => {
                let va = pick(*resv, *at);
                let set = |d: &CudaDriver| d.mem_set_access(va, chunks * G, *enable);
                (set(&batch), set(&oracle))
            }
            Op::Unmap { resv, at, chunks } if !resvs.is_empty() => {
                let va = pick(*resv, *at);
                (
                    batch.mem_unmap_range(va, chunks * G),
                    oracle.mem_unmap(va, chunks * G),
                )
            }
            Op::Copy { resv, at } if !resvs.is_empty() => {
                let seam = VirtAddr::new(pick(*resv, *at).as_u64() - 8);
                let data: Vec<u8> = (0..16).map(|b| b ^ i as u8).collect();
                let copy = |d: &CudaDriver| {
                    let mut buf = [0u8; 16];
                    let r = d
                        .memcpy_htod(seam, &data)
                        .and_then(|()| d.memcpy_dtoh(seam, &mut buf));
                    (r, buf)
                };
                let ((b, read_b), (o, read_o)) = (copy(&batch), copy(&oracle));
                assert_eq!(read_b, read_o, "op {i}: bytes across the seam");
                (b, o)
            }
            _ => (Ok(()), Ok(())),
        };
        assert_eq!(b, o, "op {i} {op:?}: batch vs per-chunk result");
        assert_eq!(state(&batch), state(&oracle), "op {i} {op:?}: device state");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn map_range_matches_the_per_chunk_loop(ops in prop::collection::vec(op_strategy(), 1..60)) {
        run(&ops);
    }
}
