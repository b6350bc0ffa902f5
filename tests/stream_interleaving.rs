//! Deterministic-interleaving concurrency tests for the stream-aware,
//! event-guarded `DeviceAllocator`: a seeded scheduler drives 2 streams x 2
//! worker threads through scripted alloc/free/flush/compact/launch
//! sequences — including cross-stream frees and double-free races — one
//! operation at a time, in a seed-chosen global order. Every operation
//! executes on a real worker thread (the handoff crosses `Send`/`Sync` for
//! real), but the scheduler waits for each acknowledgment before
//! dispatching the next, so a given seed replays the exact same
//! interleaving every time.
//!
//! The pool's event source is the simulated driver itself, and scripted
//! `Launch` actions put work in flight on the freeing stream before each
//! cross-stream free, so the free has something to wait out.
//!
//! 256 seeds are replayed per run; for each one the test pins
//!
//! * double-free races: two frees of one allocation never both succeed —
//!   the loser sees `UnknownAllocation`, whichever order the seed chose;
//! * every cross-stream free reaches the core synchronized: it returns only
//!   once the host has caught up with the freeing stream's work, records
//!   exactly one event, and leaves none outstanding;
//! * exact accounting at quiescence: every successful allocation freed
//!   exactly once, `active_bytes == 0`, core and front-end reconciled, and
//!   the simulated device fully quiescent after teardown.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use gmlake::prelude::*;
use gmlake_alloc_api::DeviceAllocatorConfig;

mod common;
use common::xorshift;

/// One scripted operation, executed on a worker thread.
#[derive(Debug, Clone, Copy)]
enum Action {
    Alloc {
        slot: usize,
        size: u64,
        stream: StreamId,
    },
    Free {
        slot: usize,
        stream: StreamId,
    },
    /// Enqueue 1 ms of work on `stream`, which a later cross-stream free
    /// from that stream must wait out.
    Launch {
        stream: StreamId,
    },
    Flush,
    Compact,
}

/// What executing one action did (deterministic per seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Allocated,
    Freed,
    /// The free lost a double-free race: `UnknownAllocation`.
    DoubleFree,
    /// The free's slot had not been allocated yet under this interleaving.
    SlotEmpty,
    Maintenance,
}

const S0: StreamId = StreamId(0);
const S1: StreamId = StreamId(1);
const SLOTS: usize = 6;

/// Each slot's allocation id and allocating stream, shared by the workers.
type Slots = Arc<Mutex<[Option<(AllocationId, StreamId)>; SLOTS]>>;

/// Thread 0's script: works on stream 0, frees slot 2 cross-stream, and
/// races thread 1 for slot 1.
fn script_thread0() -> Vec<Action> {
    vec![
        Action::Alloc {
            slot: 0,
            size: kib(64),
            stream: S0,
        },
        Action::Alloc {
            slot: 1,
            size: kib(64),
            stream: S0,
        },
        Action::Alloc {
            slot: 2,
            size: kib(256),
            stream: S0,
        },
        Action::Free {
            slot: 0,
            stream: S0,
        }, // same-stream: parks for reuse
        Action::Flush,
        Action::Launch { stream: S1 },
        Action::Free {
            slot: 2,
            stream: S1,
        }, // cross-stream: waits out stream 1, then to the core
        Action::Alloc {
            slot: 4,
            size: kib(64),
            stream: S0,
        },
        Action::Free {
            slot: 4,
            stream: S0,
        },
        Action::Free {
            slot: 1,
            stream: S0,
        }, // double-free race (vs thread 1)
    ]
}

/// Thread 1's script: works on stream 1, races thread 0 for slot 1 from the
/// other stream, and frees slot 5 cross-stream.
fn script_thread1() -> Vec<Action> {
    vec![
        Action::Alloc {
            slot: 3,
            size: kib(64),
            stream: S1,
        },
        Action::Free {
            slot: 1,
            stream: S1,
        }, // double-free race (vs thread 0)
        Action::Compact,
        Action::Alloc {
            slot: 5,
            size: kib(256),
            stream: S1,
        },
        Action::Free {
            slot: 3,
            stream: S1,
        },
        Action::Launch { stream: S0 },
        Action::Free {
            slot: 5,
            stream: S0,
        }, // cross-stream: waits out stream 0, then to the core
        Action::Flush,
    ]
}

/// Runs both scripts under the interleaving chosen by `seed`; returns the
/// global (thread, action-index, outcome) log in execution order.
fn run_scheduled(
    seed: u64,
    pool: &DeviceAllocator,
    driver: &CudaDriver,
) -> Vec<(usize, usize, Outcome)> {
    // Allocation ids (with their allocating stream) land in shared slots; a
    // slot is never cleared, so a scripted double-free genuinely
    // re-submits the same id.
    let slots: Slots = Arc::new(Mutex::new([None; SLOTS]));
    let scripts = [script_thread0(), script_thread1()];
    let mut rng = seed | 1;

    std::thread::scope(|scope| {
        // One (go, done) channel pair per worker: the scheduler sends the
        // next action, the worker executes it on ITS thread and acks with
        // the outcome before anything else may run.
        let mut go_txs = Vec::new();
        let mut done_rxs = Vec::new();
        for _ in 0..2 {
            let (go_tx, go_rx) = mpsc::channel::<Action>();
            let (done_tx, done_rx) = mpsc::channel::<Outcome>();
            let pool = pool.clone();
            let driver = driver.clone();
            let slots = Arc::clone(&slots);
            scope.spawn(move || {
                for action in go_rx {
                    let outcome = match action {
                        Action::Alloc { slot, size, stream } => {
                            let a = pool
                                .alloc_on_stream(AllocRequest::new(size), stream)
                                .unwrap();
                            slots.lock().unwrap()[slot] = Some((a.id, stream));
                            Outcome::Allocated
                        }
                        Action::Free { slot, stream } => {
                            let id = slots.lock().unwrap()[slot];
                            match id {
                                None => Outcome::SlotEmpty,
                                Some((id, owner)) => {
                                    let frontier = driver.stream_frontier_ns(stream);
                                    match pool.free_on_stream(id, stream) {
                                        Ok(()) => {
                                            assert!(
                                                owner == stream || driver.now_ns() >= frontier,
                                                "a cross-stream free returned before its stream's work"
                                            );
                                            Outcome::Freed
                                        }
                                        Err(AllocError::UnknownAllocation(lost)) => {
                                            assert_eq!(lost, id);
                                            Outcome::DoubleFree
                                        }
                                        Err(e) => panic!("unexpected free error: {e}"),
                                    }
                                }
                            }
                        }
                        Action::Launch { stream } => {
                            driver.stream_launch(stream, 1_000_000);
                            Outcome::Maintenance
                        }
                        Action::Flush => {
                            pool.flush();
                            Outcome::Maintenance
                        }
                        Action::Compact => {
                            pool.compact();
                            Outcome::Maintenance
                        }
                    };
                    done_tx.send(outcome).unwrap();
                }
            });
            go_txs.push(go_tx);
            done_rxs.push(done_rx);
        }

        let mut cursors = [0usize; 2];
        let mut log = Vec::new();
        loop {
            let pending: Vec<usize> = (0..2).filter(|&t| cursors[t] < scripts[t].len()).collect();
            if pending.is_empty() {
                break;
            }
            let t = pending[(xorshift(&mut rng) % pending.len() as u64) as usize];
            let idx = cursors[t];
            cursors[t] += 1;
            go_txs[t].send(scripts[t][idx]).unwrap();
            let outcome = done_rxs[t].recv().unwrap();
            log.push((t, idx, outcome));
        }
        drop(go_txs); // workers exit their recv loops
        log
    })
}

fn make_pool() -> (DeviceAllocator, CudaDriver) {
    let driver = CudaDriver::new(DeviceConfig::small_test().with_backing(false));
    (
        DeviceAllocator::try_build(
            Box::new(CachingAllocator::new(driver.clone())),
            DeviceAllocatorConfig::default().with_streams(2),
            Some(Arc::new(driver.clone())),
            None,
        )
        .unwrap(),
        driver,
    )
}

/// The invariants one scheduled run must satisfy, for ANY interleaving.
fn check_run(seed: u64) {
    let (pool, driver) = make_pool();
    let log = run_scheduled(seed, &pool, &driver);
    assert_eq!(log.len(), script_thread0().len() + script_thread1().len());

    let allocs = log
        .iter()
        .filter(|(_, _, o)| *o == Outcome::Allocated)
        .count();
    assert_eq!(allocs, SLOTS, "seed {seed}: every scripted alloc succeeded");

    // Double-free race on slot 1: the two frees never BOTH succeed. When
    // the seed sequenced both after the allocation, exactly one wins and
    // the loser observes UnknownAllocation.
    let scripts = [script_thread0(), script_thread1()];
    let slot1_frees: Vec<Outcome> = log
        .iter()
        .filter_map(|&(t, idx, o)| {
            matches!(scripts[t][idx], Action::Free { slot: 1, .. }).then_some(o)
        })
        .collect();
    assert_eq!(slot1_frees.len(), 2, "seed {seed}");
    let wins = slot1_frees.iter().filter(|o| **o == Outcome::Freed).count();
    assert!(
        wins <= 1,
        "seed {seed}: double-free won twice: {slot1_frees:?}"
    );
    if !slot1_frees.contains(&Outcome::SlotEmpty) {
        assert_eq!(
            wins, 1,
            "seed {seed}: both frees saw the id, one must win: {slot1_frees:?}"
        );
        assert!(slot1_frees.contains(&Outcome::DoubleFree), "seed {seed}");
    }

    // Cross-stream frees of slots 2 and 5 are script-ordered after their
    // allocs on the same thread, so they always execute; the slot-1 winner
    // may add a third. Every one reached the core after recording one event
    // and waiting it out.
    let cache = pool.cache_stats();
    assert!(
        (2..=3).contains(&cache.cross_stream_fallback),
        "seed {seed}: cross-stream frees {}",
        cache.cross_stream_fallback
    );
    assert_eq!(
        driver.stats().event_record.calls,
        cache.cross_stream_fallback,
        "seed {seed}: one event per cross-stream free"
    );
    assert_eq!(driver.outstanding_events(), 0, "seed {seed}: event leaked");

    // Quiescence: under EVERY interleaving each slot ends up freed exactly
    // once — the non-raced frees are script-ordered after their allocs, and
    // the slot-1 race resolves to one winner whichever side saw the id
    // first. The accounting is therefore pinned exactly.
    let freed_ok = log.iter().filter(|(_, _, o)| *o == Outcome::Freed).count();
    assert_eq!(freed_ok, SLOTS, "seed {seed}: each slot freed exactly once");
    let stats = pool.stats();
    assert_eq!(stats.alloc_count, SLOTS as u64, "seed {seed}");
    assert_eq!(stats.free_count, SLOTS as u64, "seed {seed}");
    assert_eq!(stats.active_bytes, 0, "seed {seed}");
    pool.flush();
    assert_eq!(pool.cache_stats().cached_blocks, 0, "seed {seed}");
    pool.with_core(|core| assert_eq!(core.stats().active_bytes, 0, "seed {seed}"));
    drop(pool);
    assert!(driver.snapshot().is_quiescent(), "seed {seed}");
}

#[test]
fn same_seed_replays_the_same_interleaving() {
    let (pool_a, driver_a) = make_pool();
    let (pool_b, driver_b) = make_pool();
    let a = run_scheduled(42, &pool_a, &driver_a);
    let b = run_scheduled(42, &pool_b, &driver_b);
    assert_eq!(a, b, "the scheduler is deterministic per seed");
}

#[test]
fn different_seeds_explore_different_interleavings() {
    let orders: std::collections::HashSet<Vec<(usize, usize)>> = (0..32u64)
        .map(|seed| {
            let (pool, driver) = make_pool();
            run_scheduled(seed, &pool, &driver)
                .into_iter()
                .map(|(t, i, _)| (t, i))
                .collect()
        })
        .collect();
    assert!(orders.len() > 8, "only {} distinct schedules", orders.len());
}

#[test]
fn scripted_races_hold_invariants_across_256_seeds() {
    for seed in 0..256u64 {
        check_run(seed);
    }
}
