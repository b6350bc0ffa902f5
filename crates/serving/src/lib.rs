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
//! * [`AdmissionPolicy`] — arrivals commit quota against
//!   `capacity × overcommit`; over the ceiling they are rejected, queued
//!   with a bounded wait, or admitted by shedding idle tenants;
//! * idle-tenant eviction — on an out-of-memory failure
//!   [`ServingService::alloc`] drops *idle* tenants' working sets
//!   (oldest-idle first) and retries once, before an active tenant can
//!   see a device-level OOM. Tenants are this layer's to evict, so the
//!   eviction lives here; the pool below recovers only what it caches;
//! * a defrag pass on every step — each [`ServingService::step`] retires
//!   the pool's completed event stamps and compacts it ([`DefragStats`]
//!   counts the passes). Over GMLake a compaction drops the departed
//!   tenants' stitched views and keeps the physical memory for the next
//!   arrivals. The pass needs no schedule of its own: GMLake defragments
//!   inside the allocator, and training pools run no pass at all.
//!
//! Quota violations surface as the recoverable
//! [`AllocError::QuotaExceeded`](gmlake_alloc_api::AllocError::QuotaExceeded)
//! with exact `requested`/`used`/`quota` numbers, refused before the
//! device is consulted.
//!
//! See `docs/serving.md` for the design narrative and
//! `gmlake-workload`'s serving generator and replayer for the churn
//! workloads built on top of this crate (the whole-system benchmark's
//! `serve_churn` workload measures them).

#![warn(missing_docs)]

mod admission;
mod service;
mod tenant;

pub use admission::{AdmissionPolicy, AdmissionStats, AdmissionVerdict};
// Former name, still imported by the frozen benchmark; goes when that instrument next changes.
pub use service::DefragStats as DefragManagerStats;
pub use service::{DefragStats, ServingConfig, ServingService, ServingStats, StepOutcome};
pub use tenant::{TenantId, TenantRegistry, TenantUsage};
