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
//! * [`MemoryPlan`] — the offline first-fit-decreasing planner and its
//!   invariant checker;
//! * [`PlannedCore`] — the drop-in
//!   [`AllocatorCore`](gmlake_alloc_api::AllocatorCore) layer: record →
//!   plan → serve, in front of any core that serves the recording window
//!   and the dynamic residue. [`PlannedCore::new`] puts a
//!   [`GmLakeAllocator`](gmlake_core::GmLakeAllocator) there;
//!   [`PlannedCore::with_fallback`] takes any other, such as the caching
//!   allocator (STAlloc's own shape).
//!
//! See `docs/planning.md` for the lifecycle, residue rules, and replan
//! triggers.

#![warn(missing_docs)]

mod core;
mod plan;
mod recorder;

pub use crate::core::{PlanCounters, PlannedConfig, PlannedCore};
pub use crate::plan::{MemoryPlan, PlanSlot};
pub use crate::recorder::{IterationRecorder, LifetimeInterval};
