//! Spatio-temporal planning core (STAlloc-style) for the GMLake
//! workspace.
//!
//! DNN training is iterative: after one warm-up iteration the allocation
//! sequence is almost fully known, so instead of *reacting* to
//! fragmentation at alloc time the allocator can *plan* placements
//! offline (STAlloc, arXiv 2507.16274) and serve the steady state with
//! no driver call and one `O(log L)` probe of the `L` live slots per
//! request. This crate provides:
//!
//! * [`IterationRecorder`] — captures one iteration's alloc/free sequence
//!   as [`LifetimeInterval`]s;
//! * [`MemoryPlan`] — the offline first-fit-decreasing planner, its
//!   invariant checker, and the `gmlake-plan/v1` JSON format;
//! * [`PlannedCore`] — the drop-in
//!   [`AllocatorCore`](gmlake_alloc_api::AllocatorCore) backend: record →
//!   plan → serve, with an embedded
//!   [`GmLakeAllocator`](gmlake_core::GmLakeAllocator) handling dynamic
//!   residue through the full stitching + fault-rollback machinery.
//!
//! See `docs/planning.md` for the lifecycle, residue rules, and replan
//! triggers.

#![warn(missing_docs)]

mod core;
mod plan;
mod recorder;

pub use crate::core::{PlanCounters, PlannedConfig, PlannedCore};
pub use crate::plan::{MemoryPlan, PlanSlot, PLAN_SCHEMA};
pub use crate::recorder::{IterationRecorder, LifetimeInterval};
