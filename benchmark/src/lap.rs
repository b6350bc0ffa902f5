//! Laps: build a fresh stack, replay the warm-up section (timed as set-up),
//! replay the steady section (timed), tear down (untimed).

use std::time::Instant;

use gmlake_alloc_api::{AllocError, AllocationId, StreamId};
use gmlake_gpu_sim::CudaDriver;

use crate::inputs::{Inputs, Op};
use crate::probe::SharedLog;
use crate::spans::{Kind, Span};
use crate::stack::{Stack, Target};

/// What a lap does around each top-level call.
pub trait Meter {
    /// The lap's stack has just been built.
    fn attach(&mut self, _stack: &Stack) {}

    /// The warm-up section is over.
    fn begin_steady(&mut self) {}

    /// The steady section is over.
    fn end_steady(&mut self) {}

    fn call<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R;
}

/// Plain laps: nothing around the calls, one `Instant` pair around the
/// section.
pub struct Plain;

impl Meter for Plain {
    #[inline(always)]
    fn call<R>(&mut self, _kind: Kind, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Sampled laps: one `Instant` pair around every top-level call; the wall
/// times of allocation calls (admitted or refused) are kept.
#[derive(Default)]
pub struct Sampled {
    pub allocs_ns: Vec<u32>,
}

impl Meter for Sampled {
    fn begin_steady(&mut self) {
        self.allocs_ns.clear();
    }

    #[inline(always)]
    fn call<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
        if matches!(kind, Kind::Alloc | Kind::Refused) {
            self.allocs_ns.push(ns);
        }
        out
    }
}

/// Traced laps: a `top` span around every top-level call, and the stack's
/// probe told to keep a `core` span around every call it forwards.
pub struct Traced {
    /// Span times count from the stack's construction, as the probe's do.
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Index of the first steady span.
    pub steady_first: usize,
    probe: Option<SharedLog>,
    /// The probe's `core` spans, taken when the steady section ended.
    pub core: Vec<Span>,
    /// Index of the first steady span in `core`.
    pub steady_core_first: usize,
}

impl Traced {
    pub fn new() -> Traced {
        Traced {
            epoch: Instant::now(),
            spans: Vec::new(),
            steady_first: 0,
            probe: None,
            core: Vec::new(),
            steady_core_first: 0,
        }
    }
}

impl Meter for Traced {
    fn attach(&mut self, stack: &Stack) {
        self.epoch = stack.epoch;
        self.probe.clone_from(&stack.probe);
        if let Some(log) = &self.probe {
            log.lock().expect("single-threaded").timing = true;
        }
    }

    fn begin_steady(&mut self) {
        self.steady_first = self.spans.len();
        if let Some(log) = &self.probe {
            self.steady_core_first = log.lock().expect("single-threaded").spans.len();
        }
    }

    fn end_steady(&mut self) {
        if let Some(log) = &self.probe {
            let mut log = log.lock().expect("single-threaded");
            log.timing = false;
            self.core = std::mem::take(&mut log.spans);
        }
    }

    #[inline(always)]
    fn call<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            kind,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        out
    }
}

/// State carried through a lap's three sections.
pub struct Replay {
    slots: Vec<AllocationId>,
    /// Top-level calls made.
    pub attempted: u64,
    /// Calls whose outcome differed from the expectation in the op.
    pub failed: u64,
}

/// Id parked in the slot of an allocation that unexpectedly failed; freeing
/// it fails too, which counts the free as failed as well.
const NO_ALLOCATION: AllocationId = AllocationId::new(u64::MAX);

impl Replay {
    pub fn new(inputs: &Inputs) -> Replay {
        Replay {
            slots: vec![NO_ALLOCATION; inputs.slots],
            attempted: 0,
            failed: 0,
        }
    }
}

/// Wall and simulated time of one replayed section.
#[derive(Debug, Clone, Copy, Default)]
pub struct Section {
    pub wall_ns: u64,
    /// Simulated nanoseconds that passed inside top-level calls: the
    /// section's clock advance minus the workload's own kernel launches and
    /// device synchronisations.
    pub stall_ns: u64,
    /// Simulated nanoseconds the workload's own device synchronisations took.
    pub sync_ns: u64,
}

/// Replays `ops` against `target`, timing the section with one `Instant`
/// pair and whatever `meter` does around each call.
pub fn replay<T: Target, M: Meter>(
    target: &mut T,
    driver: &CudaDriver,
    ops: &[Op],
    state: &mut Replay,
    meter: &mut M,
) -> Section {
    let sim_start = driver.now_ns();
    let launch_start = driver.stats().launch.time_ns;
    let mut sync_ns = 0;
    let start = Instant::now();
    for op in ops {
        match *op {
            Op::Alloc {
                slot,
                owner,
                size,
                stream,
                tag,
                refused,
            } => {
                if refused && !T::HAS_TENANTS {
                    continue;
                }
                let kind = if refused { Kind::Refused } else { Kind::Alloc };
                let stream = StreamId(u32::from(stream));
                let result = meter.call(kind, || target.alloc(owner, size, stream, tag));
                state.attempted += 1;
                match result {
                    Ok(a) if !refused => state.slots[slot as usize] = a.id,
                    Err(AllocError::QuotaExceeded { .. }) if refused => {}
                    Ok(a) => {
                        // Admitted against the model: give it back at once.
                        state.failed += 1;
                        let _ = target.free(owner, a.id, stream);
                    }
                    Err(_) => {
                        state.failed += 1;
                        if !refused {
                            state.slots[slot as usize] = NO_ALLOCATION;
                        }
                    }
                }
            }
            Op::Free {
                slot,
                owner,
                stream,
            } => {
                let id = state.slots[slot as usize];
                let stream = StreamId(u32::from(stream));
                let result = meter.call(Kind::Free, || target.free(owner, id, stream));
                state.attempted += 1;
                state.failed += u64::from(result.is_err());
            }
            Op::Boundary => {
                // The optimizer step synchronises the device before the
                // allocator hears about the boundary, as the workload
                // crate's replayer does.
                let before = driver.now_ns();
                driver.device_synchronize();
                sync_ns += driver.now_ns() - before;
                meter.call(Kind::Boundary, || target.boundary());
                state.attempted += 1;
            }
            Op::Launch { ns } => driver.stream_launch(StreamId::DEFAULT, ns),
            Op::Offer {
                owner,
                quota,
                expect,
            } => {
                if !T::HAS_TENANTS {
                    continue;
                }
                let verdict = meter.call(Kind::Offer, || target.offer(owner, quota));
                state.attempted += 1;
                state.failed += u64::from(verdict != expect);
            }
            Op::Depart { owner } => {
                if !T::HAS_TENANTS {
                    continue;
                }
                let released = meter.call(Kind::Depart, || target.depart(owner));
                state.attempted += 1;
                // A departing tenant has freed everything itself.
                state.failed += u64::from(released != Some(0));
            }
            Op::Step => {
                meter.call(Kind::Step, || target.step());
                state.attempted += 1;
            }
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let launch_ns = driver.stats().launch.time_ns - launch_start;
    Section {
        wall_ns,
        stall_ns: driver.now_ns() - sim_start - sync_ns - launch_ns,
        sync_ns,
    }
}
