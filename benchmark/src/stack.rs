//! Stack construction and the entry points ("depths") ops are replayed at.
//!
//! The full stack is `ServingService → PoolHandle → DeviceAllocator → core →
//! CudaDriver` (training workloads enter at `PoolHandle`). Layers that
//! cannot be interposed are separated by replaying the same ops at shorter
//! depths, so every depth implements one [`Target`] trait.

use std::sync::Arc;
use std::time::Instant;

use gmlake_alloc_api::{
    AllocError, AllocRequest, AllocTag, Allocation, AllocationId, AllocatorCore, DeviceAllocator,
    DeviceAllocatorConfig, EventSource, MemStats, StreamId,
};
use gmlake_caching::CachingAllocator;
use gmlake_core::{GmLakeAllocator, GmLakeConfig};
use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
use gmlake_planning::{PlannedConfig, PlannedCore};
use gmlake_runtime::{DeviceId, PoolHandle, PoolService};
use gmlake_serving::{
    AdmissionPolicy, AdmissionVerdict, DefragManagerStats, ServingConfig, ServingService, TenantId,
};
use gmlake_telemetry::PoolTelemetry;

use crate::inputs::{
    Verdict, Workload, LRO_STREAMS, SERVE_CAPACITY, SERVE_IDLE_AFTER, SERVE_OVERCOMMIT,
    SERVE_STREAMS,
};
use crate::probe::{ProbeCore, SharedLog};

/// One top-level API the ops are replayed against.
pub trait Target {
    /// Whether the quota layer is part of this depth: refused allocations,
    /// offers and departures are only issued where it is.
    const HAS_TENANTS: bool = false;

    fn alloc(
        &mut self,
        owner: u32,
        size: u64,
        stream: StreamId,
        tag: AllocTag,
    ) -> Result<Allocation, AllocError>;

    fn free(&mut self, owner: u32, id: AllocationId, stream: StreamId) -> Result<(), AllocError>;

    /// End of a training iteration.
    fn boundary(&mut self);

    /// End of a serving step.
    fn step(&mut self) {}

    fn offer(&mut self, _owner: u32, _quota: u64) -> Verdict {
        unreachable!("offers are only replayed where HAS_TENANTS")
    }

    fn depart(&mut self, _owner: u32) -> Option<u64> {
        unreachable!("departures are only replayed where HAS_TENANTS")
    }

    fn mem_stats(&self) -> MemStats;
}

/// What the serving layer's defrag manager did at one step, so shorter
/// depths can repeat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefragAction {
    None,
    Periodic,
    Aggressive,
}

impl DefragAction {
    /// The action taken between two readings of the manager's counters.
    pub fn between(before: &DefragManagerStats, after: &DefragManagerStats) -> DefragAction {
        if after.aggressive_passes > before.aggressive_passes {
            DefragAction::Aggressive
        } else if after.periodic_passes > before.periodic_passes {
            DefragAction::Periodic
        } else {
            DefragAction::None
        }
    }
}

pub struct ServingTarget {
    pub svc: ServingService,
    /// `TenantId` by offer index (`u64::MAX` for an offer not admitted).
    ids: Vec<TenantId>,
}

impl Target for ServingTarget {
    const HAS_TENANTS: bool = true;

    fn alloc(
        &mut self,
        owner: u32,
        size: u64,
        _stream: StreamId,
        _tag: AllocTag,
    ) -> Result<Allocation, AllocError> {
        self.svc.alloc(self.ids[owner as usize], size)
    }

    fn free(&mut self, owner: u32, id: AllocationId, _stream: StreamId) -> Result<(), AllocError> {
        self.svc.free(self.ids[owner as usize], id)
    }

    fn boundary(&mut self) {}

    fn step(&mut self) {
        self.svc.step();
    }

    fn offer(&mut self, owner: u32, quota: u64) -> Verdict {
        let verdict = self.svc.offer(quota);
        debug_assert_eq!(owner as usize, self.ids.len());
        self.ids
            .push(verdict.tenant().unwrap_or(TenantId(u64::MAX)));
        match verdict {
            AdmissionVerdict::Admitted(_) => Verdict::Admitted,
            AdmissionVerdict::AdmittedAfterShed(_) => Verdict::AdmittedAfterShed,
            AdmissionVerdict::Rejected => Verdict::Rejected,
            AdmissionVerdict::Queued => Verdict::Queued,
        }
    }

    fn depart(&mut self, owner: u32) -> Option<u64> {
        self.svc.depart(self.ids[owner as usize])
    }

    fn mem_stats(&self) -> MemStats {
        self.svc.pool().stats()
    }
}

/// The `&self` calls `PoolHandle` and `DeviceAllocator` share by name, so
/// one target type replays ops at either depth.
pub trait Pool {
    fn alloc_on_stream(
        &self,
        req: AllocRequest,
        stream: StreamId,
    ) -> Result<Allocation, AllocError>;
    fn free_on_stream(&self, id: AllocationId, stream: StreamId) -> Result<(), AllocError>;
    fn iteration_boundary(&self);
    fn process_events(&self) -> u64;
    fn fragmentation(&self) -> f64;
    fn compact(&self) -> u64;
    fn release_cached(&self) -> u64;
    fn stats(&self) -> MemStats;
}

macro_rules! impl_pool {
    ($ty:ty) => {
        // `<$ty>::name` resolves to the type's inherent `&self` method.
        impl Pool for $ty {
            fn alloc_on_stream(
                &self,
                req: AllocRequest,
                stream: StreamId,
            ) -> Result<Allocation, AllocError> {
                <$ty>::alloc_on_stream(self, req, stream)
            }
            fn free_on_stream(&self, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
                <$ty>::free_on_stream(self, id, stream)
            }
            fn iteration_boundary(&self) {
                <$ty>::iteration_boundary(self)
            }
            fn process_events(&self) -> u64 {
                <$ty>::process_events(self)
            }
            fn fragmentation(&self) -> f64 {
                <$ty>::fragmentation(self)
            }
            fn compact(&self) -> u64 {
                <$ty>::compact(self)
            }
            fn release_cached(&self) -> u64 {
                <$ty>::release_cached(self)
            }
            fn stats(&self) -> MemStats {
                <$ty>::stats(self)
            }
        }
    };
}

impl_pool!(PoolHandle);
impl_pool!(DeviceAllocator);

/// Ops replayed at `PoolHandle` or `DeviceAllocator` depth. Under a serving
/// workload the quota layer above is absent, so each step repeats the pool
/// calls the defrag manager made at that step of the full stack.
pub struct PoolTarget<P: Pool> {
    pool: P,
    actions: Arc<Vec<DefragAction>>,
    next_step: usize,
}

impl<P: Pool> Target for PoolTarget<P> {
    fn alloc(
        &mut self,
        _owner: u32,
        size: u64,
        stream: StreamId,
        tag: AllocTag,
    ) -> Result<Allocation, AllocError> {
        self.pool
            .alloc_on_stream(AllocRequest::new(size).with_tag(tag), stream)
    }

    fn free(&mut self, _owner: u32, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
        self.pool.free_on_stream(id, stream)
    }

    fn boundary(&mut self) {
        self.pool.iteration_boundary();
        self.pool.process_events();
    }

    fn step(&mut self) {
        // The manager reads the pool's fragmentation before it decides.
        std::hint::black_box(self.pool.fragmentation());
        match self.actions.get(self.next_step) {
            Some(DefragAction::Aggressive) => {
                self.pool.process_events();
                self.pool.compact();
                self.pool.release_cached();
            }
            Some(DefragAction::Periodic) => {
                self.pool.compact();
            }
            Some(DefragAction::None) | None => {}
        }
        self.next_step += 1;
    }

    fn mem_stats(&self) -> MemStats {
        self.pool.stats()
    }
}

/// A bare allocator core: the baseline's and the paper's own numbers.
pub struct CoreTarget {
    pub core: Box<dyn AllocatorCore + Send>,
}

impl Target for CoreTarget {
    fn alloc(
        &mut self,
        _owner: u32,
        size: u64,
        stream: StreamId,
        tag: AllocTag,
    ) -> Result<Allocation, AllocError> {
        self.core
            .alloc_on_stream(AllocRequest::new(size).with_tag(tag), stream)
    }

    fn free(&mut self, _owner: u32, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
        self.core.free_on_stream(id, stream)
    }

    fn boundary(&mut self) {
        self.core.iteration_boundary();
        self.core.process_events();
    }

    fn mem_stats(&self) -> MemStats {
        self.core.stats()
    }
}

/// No allocator at all: what the replay loop itself costs.
pub struct NullTarget;

impl Target for NullTarget {
    fn alloc(
        &mut self,
        owner: u32,
        size: u64,
        _stream: StreamId,
        _tag: AllocTag,
    ) -> Result<Allocation, AllocError> {
        Ok(std::hint::black_box(Allocation {
            id: AllocationId::new(u64::from(owner)),
            va: gmlake_alloc_api::VirtAddr::new(0),
            size,
            requested: size,
        }))
    }

    fn free(&mut self, _owner: u32, id: AllocationId, _stream: StreamId) -> Result<(), AllocError> {
        std::hint::black_box(id);
        Ok(())
    }

    fn boundary(&mut self) {}

    fn mem_stats(&self) -> MemStats {
        MemStats::default()
    }
}

/// Which bare core a [`CoreTarget`] wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BareCore {
    Caching,
    GmLake,
}

/// A bare core on a fresh simulated A100-80G.
pub fn bare(which: BareCore) -> (CoreTarget, CudaDriver) {
    let driver = CudaDriver::new(DeviceConfig::a100_80g());
    let core: Box<dyn AllocatorCore + Send> = match which {
        BareCore::Caching => Box::new(CachingAllocator::new(driver.clone())),
        BareCore::GmLake => Box::new(GmLakeAllocator::new(
            driver.clone(),
            GmLakeConfig::default(),
        )),
    };
    (CoreTarget { core }, driver)
}

/// How a stack is built.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wiring {
    /// Box a [`ProbeCore`] between the front-end and the core.
    pub probe: bool,
    /// Attach the telemetry sink to every layer and enable it.
    pub sink: bool,
}

impl Wiring {
    /// The stack of a traced or oracle lap.
    pub const PROBED: Wiring = Wiring {
        probe: true,
        sink: false,
    };
    /// The stack of the telemetry-overhead lap.
    pub const SINK_ON: Wiring = Wiring {
        probe: false,
        sink: true,
    };
}

/// A fresh full stack on a fresh simulated A100-80G.
pub struct Stack {
    pub driver: CudaDriver,
    pub device: DeviceAllocator,
    pub handle: PoolHandle,
    pub serving: Option<ServingService>,
    pub probe: Option<SharedLog>,
    /// Spans and probe timestamps count from here.
    pub epoch: Instant,
}

impl Stack {
    pub fn build(workload: Workload, wiring: Wiring) -> Stack {
        let epoch = Instant::now();
        let driver = CudaDriver::new(DeviceConfig::a100_80g());
        let telemetry = Arc::new(PoolTelemetry::new());
        let core: Box<dyn AllocatorCore + Send> = match workload {
            Workload::TrainLrPlanned => {
                let mut core = PlannedCore::new(driver.clone(), PlannedConfig::default());
                if wiring.sink {
                    core.set_telemetry(Arc::clone(&telemetry));
                }
                Box::new(core)
            }
            _ => {
                let mut core = GmLakeAllocator::new(driver.clone(), GmLakeConfig::default());
                if wiring.sink {
                    core.set_telemetry(Arc::clone(&telemetry));
                }
                Box::new(core)
            }
        };
        let (core, probe): (Box<dyn AllocatorCore + Send>, _) = if wiring.probe {
            let (probe, log) = ProbeCore::new(core, driver.clone(), epoch);
            (Box::new(probe), Some(log))
        } else {
            (core, None)
        };
        let (streams, events): (u64, Option<Arc<dyn EventSource>>) = match workload {
            Workload::TrainLroStreams => (u64::from(LRO_STREAMS), Some(Arc::new(driver.clone()))),
            Workload::ServeChurn => (SERVE_STREAMS, None),
            _ => (1, None),
        };
        if wiring.sink {
            telemetry.set_clock(Arc::new(driver.clone()));
            driver.set_telemetry(Arc::clone(&telemetry));
            telemetry.enable();
        }
        let device = DeviceAllocator::try_build(
            core,
            DeviceAllocatorConfig::default().with_streams(streams as usize),
            events,
            Some(telemetry),
        )
        .expect("the stream counts are within the front-end's limits");
        let handle = PoolService::new()
            .register_device(DeviceId(0), device.clone())
            .expect("a fresh service has no device 0");
        let serving = workload.is_serving().then(|| {
            ServingService::new(
                handle.clone(),
                ServingConfig::new(SERVE_CAPACITY)
                    .with_overcommit(SERVE_OVERCOMMIT)
                    .with_policy(AdmissionPolicy::Shed)
                    .with_idle_after(SERVE_IDLE_AFTER)
                    .with_streams(SERVE_STREAMS),
            )
        });
        Stack {
            driver,
            device,
            handle,
            serving,
            probe,
            epoch,
        }
    }

    pub fn serving_target(&self, owners: usize) -> ServingTarget {
        ServingTarget {
            svc: self.serving.clone().expect("a serving stack"),
            ids: Vec::with_capacity(owners),
        }
    }

    pub fn handle_target(&self, actions: &Arc<Vec<DefragAction>>) -> PoolTarget<PoolHandle> {
        PoolTarget {
            pool: self.handle.clone(),
            actions: Arc::clone(actions),
            next_step: 0,
        }
    }

    pub fn device_target(&self, actions: &Arc<Vec<DefragAction>>) -> PoolTarget<DeviceAllocator> {
        PoolTarget {
            pool: self.device.clone(),
            actions: Arc::clone(actions),
            next_step: 0,
        }
    }
}
