//! # gmlake-serving — multi-tenant serving over GMLake pools
//!
//! Training jobs own a whole device; serving fleets do not. Hundreds of
//! inference jobs — heterogeneous model footprints, bursty lifetimes —
//! multiplex one GPU, and the memory pool underneath them must keep the
//! tenants isolated *logically* (one tenant's appetite must never surface
//! as another tenant's OOM) while sharing the physical pool as
//! aggressively as GMLake's stitching allows.
//!
//! This crate is that front-end, one [`ServingService`] per device pool:
//!
//! * [`TenantRegistry`] — per-tenant byte quotas with exact two-phase
//!   charge accounting (reserve before the pool call, settle the rounded
//!   size after), live-allocation books, idle tracking;
//! * admission — arrivals commit quota against `capacity × overcommit`;
//!   over the ceiling idle tenants are shed (oldest-idle first) until the
//!   arrival fits, and it is refused if they cannot make room;
//! * idle-tenant eviction — on an out-of-memory failure
//!   [`ServingService::alloc`] drops *idle* tenants' working sets
//!   (oldest-idle first) and retries once, before an active tenant can
//!   see a device-level OOM. Tenants are this layer's to evict, so the
//!   eviction lives here; the pool below recovers only what it caches;
//! * a defrag pass at each large free — [`ServingService::free`] of a
//!   block at or above 2 MiB, each [`ServingService::depart`] that frees
//!   one, and every [`ServingService::step`] retire the pool's completed
//!   event stamps and compact it ([`DefragStats`] counts the passes).
//!   Over GMLake a compaction drops the freed stitched views, so their
//!   parts merge with idle neighbours before the next request, gives
//!   back the idle reservations smaller than the mean request served,
//!   and keeps the rest of the physical memory for the next requests.
//!   The pass needs no schedule of its own:
//!   GMLake defragments inside the allocator, a pass costs only what
//!   changed since the last one, and training pools run no pass at all.
//!
//! Quota violations surface as the recoverable
//! [`AllocError::QuotaExceeded`](gmlake_alloc_api::AllocError::QuotaExceeded)
//! with exact `requested`/`used`/`quota` numbers, refused before the
//! device is consulted.
//!
//! See `docs/serving.md` for the design narrative and
//! `gmlake-workload`'s serving plan generator for the churn workloads
//! driven through this crate (the whole-system benchmark's `serve_churn`
//! workload measures them).

#![warn(missing_docs)]

mod admission;
mod service;
mod tenant;

pub use admission::{AdmissionPolicy, AdmissionStats, AdmissionVerdict};
// Former name, still imported by the frozen benchmark; goes when that instrument next changes.
pub use service::DefragStats as DefragManagerStats;
pub use service::{DefragStats, ServingConfig, ServingService, ServingStats, StepOutcome};
pub use tenant::{TenantId, TenantRegistry, TenantUsage};
