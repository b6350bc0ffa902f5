//! LLM fine-tuning memory workloads: model specs, strategy transformations,
//! trace generation, and replay.
//!
//! The GMLake paper's evaluation fine-tunes six open-source LLMs under
//! combinations of LoRA, recomputation (gradient checkpointing), and
//! ZeRO-Offload on DeepSpeed/FSDP/Colossal-AI. What the *allocator* sees of
//! all that is a stream of (de)allocation requests whose sizes, lifetimes and
//! irregularity depend on the configuration — and fragmentation is a pure
//! function of that stream. This crate reproduces the stream:
//!
//! * [`ModelSpec`] — the six models of Table 2 (OPT-1.3B … GPT-NeoX-20B);
//! * [`StrategySet`] / [`Platform`] / [`TrainConfig`] — the evaluation axes;
//! * [`TraceGenerator`] — ZeRO-3 fine-tuning as a tensor-granularity trace
//!   (persistent shards, gathers, activations, recompute bursts, offload
//!   staging), with strategy-dependent irregularity;
//! * [`Replayer`] — drives any [`AllocatorCore`](gmlake_alloc_api::AllocatorCore)
//!   and reports peak active/reserved memory, utilization, fragmentation,
//!   throughput, OOM outcome and a memory-over-time series. One replay
//!   stands for a whole data-parallel fleet: a trace is a pure function of
//!   its [`TrainConfig`], which has no rank index, so every ZeRO rank
//!   issues the same per-GPU request stream and reports the same numbers;
//! * [`headline_suite`] — the 76-workload matrix behind the paper's headline
//!   savings numbers.
//!
//! ```
//! use gmlake_gpu_sim::{CudaDriver, DeviceConfig};
//! use gmlake_caching::CachingAllocator;
//! use gmlake_workload::{ModelSpec, Replayer, StrategySet, TraceGenerator, TrainConfig};
//!
//! let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR).with_iterations(2);
//! let trace = TraceGenerator::new(cfg.clone()).generate();
//! let driver = CudaDriver::new(DeviceConfig::a100_80g());
//! let mut baseline = CachingAllocator::new(driver.clone());
//! let report = Replayer::new(driver).replay(&mut baseline, &trace, &cfg);
//! println!("fragmentation: {:.1}%", report.fragmentation() * 100.0);
//! ```

mod generator;
mod metrics;
mod model;
mod replay;
mod serving;
mod strategy;
mod suite;
mod timing;
mod trace;

pub use generator::TraceGenerator;
pub use metrics::{mean, mem_reduction_ratio, to_gib};
pub use model::ModelSpec;
pub use replay::{ReplayOptions, ReplayOutcome, ReplayReport, Replayer, Sample};
pub use serving::{PlannedTenant, ServingPlan, ServingWorkloadConfig};
pub use strategy::{Platform, StrategySet, TrainConfig};
pub use suite::{headline_suite, table2, Table2Row};
pub use timing::{ideal_iteration_ns, layer_timing, optimizer_ns, pcie_ns, LayerTiming};
pub use trace::{TagBreakdown, Trace, TraceEvent, TraceStats};
