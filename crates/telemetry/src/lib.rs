//! `gmlake-telemetry` — low-overhead observability for the GMLake stack.
//!
//! The allocator crates report end-of-run counters (`MemStats`,
//! `DriverStats`, per-stream cache stats); this crate turns them into a
//! *timeline*: what happened, when, and how long it took. It is the
//! measurement substrate for the paper's memory-behaviour figures
//! (reserved-vs-active curves, stitch activity over time) and for the
//! roadmap's serving/self-tuning items, which need p99 allocation latency
//! under churn.
//!
//! Three pieces, composable but designed to be used together through
//! [`PoolTelemetry`]:
//!
//! * [`Recorder`] — a structured event log: one bounded ring behind one
//!   mutex, so a record is one short lock and a push; when the ring
//!   fills, the oldest record is dropped and counted, never blocking an
//!   allocation.
//! * [`Histogram`] — log-bucketed, mergeable latency histograms with
//!   atomic buckets (`&self` recording) and p50/p90/p99/p999 readout.
//! * [`MemorySnapshot`] — a serializable dump of per-pool
//!   reserved/active/fragmentation series plus the event trace
//!   and histogram summaries, exportable as JSON
//!   ([`MemorySnapshot::to_json`]) or chrome://tracing format
//!   ([`MemorySnapshot::to_chrome_trace`]).
//!
//! # Overhead model
//!
//! Instrumented code holds an `Option<Arc<PoolTelemetry>>`; `None` is the
//! compiled-out baseline (one branch). With telemetry attached but
//! *disabled* — the default — every hook reduces to one relaxed atomic
//! load. Enabled recording is *sampled*: [`PoolTelemetry::hot_sample`]
//! admits one in `2^k` operations (default 1 in 32) on the fast paths, so
//! the ~100 ns `DeviceAllocator` cache hit pays the timestamp + ring-push
//! cost only occasionally. Slow paths (BestFit, stitching, driver calls)
//! record every operation — they are orders of magnitude above the
//! per-record cost. The whole-system benchmark reports both costs as its
//! `telemetry.trace_overhead_ratio` / `telemetry.sink_overhead_ratio` rows.
//!
//! # Example
//!
//! ```
//! use gmlake_telemetry::{EventKind, MemorySnapshot, PoolTelemetry};
//!
//! let tel = PoolTelemetry::full(); // record every op (no sampling)
//! tel.enable();
//! tel.record(EventKind::Alloc, 4096, 0, 0);
//! tel.alloc_ns().record(250);
//! tel.record_sample(1 << 20, 4096, 0.5);
//!
//! let snap = MemorySnapshot {
//!     pools: vec![tel.snapshot("gpu0", 1 << 20, 4096)],
//! };
//! let json = snap.to_json();
//! MemorySnapshot::validate_json(&json).unwrap();
//! assert_eq!(MemorySnapshot::from_json(&json).unwrap(), snap);
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod histogram;
pub mod json;
pub mod pool;
pub mod recorder;
pub mod snapshot;

pub use event::{Event, EventKind};
pub use histogram::{Histogram, HistogramSummary};
pub use pool::{PoolTelemetry, TelemetryClock};
pub use recorder::Recorder;
pub use snapshot::{FaultSnapshot, MemorySample, MemorySnapshot, PoolSnapshot, SCHEMA};
