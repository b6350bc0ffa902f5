//! Trace generator: turns a [`TrainConfig`] into the tensor-granularity
//! (de)allocation stream one data-parallel rank issues during fine-tuning.
//!
//! The generator models the memory phases of ZeRO-3-style training:
//!
//! * **setup** — persistent parameter/gradient/optimizer shards;
//! * **forward** — per-layer parameter all-gathers (transient), activation
//!   tensors (kept, or dropped to a checkpoint under recomputation),
//!   workspaces;
//! * **backward** — re-gathers, recomputation bursts, activation gradients,
//!   full-layer weight gradients and reduce-scatter buffers (skipped for
//!   frozen weights under LoRA);
//! * **optimizer** — an in-place fused step, or staged PCIe traffic under
//!   ZeRO-Offload.
//!
//! Irregularity — the paper's root cause of fragmentation (Observation 1) —
//! enters exactly where the real systems are nondeterministic: gather-bucket
//! prefetch sizes, recomputation burst shapes, offload staging slices. The
//! amount of jitter grows with the strategy complexity, so `N` traces are
//! almost perfectly periodic (PyTorch reaches ~97% utilization on them, as
//! in Figure 3) while `LRO` traces are the most chaotic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gmlake_alloc_api::{AllocTag, StreamId};

use crate::strategy::TrainConfig;
use crate::timing::{layer_timing, optimizer_ns, pcie_ns};
use crate::trace::{Trace, TraceEvent};

/// Generates memory traces for a training configuration.
///
/// ```
/// use gmlake_workload::{ModelSpec, StrategySet, TraceGenerator, TrainConfig};
///
/// let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR).with_iterations(2);
/// let trace = TraceGenerator::new(cfg).generate();
/// trace.validate().expect("well-formed");
/// assert!(trace.stats().allocs > 100);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    cfg: TrainConfig,
}

struct GenState {
    events: Vec<TraceEvent>,
    next_key: u64,
}

impl GenState {
    fn alloc(&mut self, size: u64, tag: AllocTag) -> u64 {
        debug_assert!(size > 0);
        self.next_key += 1;
        let key = self.next_key;
        // Streams are assigned in a post-pass (`assign_streams`), so the
        // phase builders stay stream-agnostic.
        self.events.push(TraceEvent::Alloc {
            key,
            size,
            tag,
            stream: StreamId::DEFAULT,
        });
        key
    }

    fn free(&mut self, key: u64) {
        self.events.push(TraceEvent::Free {
            key,
            stream: StreamId::DEFAULT,
        });
    }

    fn free_all(&mut self, keys: &mut Vec<u64>) {
        for key in keys.drain(..) {
            self.free(key);
        }
    }

    fn compute(&mut self, ns: u64) {
        if ns > 0 {
            self.events.push(TraceEvent::Compute { ns });
        }
    }
}

impl TraceGenerator {
    /// Creates a generator for `cfg`.
    pub fn new(cfg: TrainConfig) -> Self {
        TraceGenerator { cfg }
    }

    /// The configuration being generated.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Bytes of one activation unit: `batch · seq · hidden · dtype`.
    fn bshd(&self) -> u64 {
        self.cfg.batch_size as u64
            * self.cfg.seq_len as u64
            * self.cfg.model.hidden as u64
            * self.cfg.dtype_bytes as u64
    }

    /// Jitter applied to workspace tensors; grows with strategy complexity
    /// and vanishes for the fully static `N` configuration.
    fn workspace_jitter(&self) -> f64 {
        let c = self.cfg.strategies.complexity();
        if c == 0 {
            0.0
        } else {
            0.02 + 0.04 * c as f64
        }
    }

    /// Sequence-length factor of one gradient-accumulation microbatch.
    ///
    /// Length-bucketed data loaders (standard for fine-tuning) sort samples
    /// so each accumulation slot sees a characteristic padded length: the
    /// slots *differ from each other* but repeat across iterations. That is
    /// exactly the regime the paper measures — rich *within-iteration* shape
    /// diversity (which fragments the splitting baseline) combined with an
    /// iteration-periodic request stream (which lets GMLake converge to
    /// exact matches, Figure 14). The static `N` configuration pads
    /// everything to the maximum.
    fn mb_factor(&self, mb: u32) -> f64 {
        if self.cfg.strategies.complexity() == 0 {
            return 1.0;
        }
        const SLOTS: [f64; 4] = [1.0, 0.75, 0.875, 0.625];
        SLOTS[(mb as usize) % SLOTS.len()]
    }

    /// Deterministic RNG stream for one generation site. Streams depend on
    /// the seed and the site coordinates but *not* on the iteration index,
    /// so every iteration issues an identical request pattern.
    fn rng_for(&self, purpose: u64, mb: u32, layer: u32) -> StdRng {
        let mut h = self.cfg.seed ^ 0x9e37_79b9_7f4a_7c15;
        for v in [purpose, mb as u64 + 1, layer as u64 + 1] {
            h = (h.rotate_left(23) ^ v).wrapping_mul(0x100_0000_01b3);
        }
        StdRng::seed_from_u64(h)
    }

    /// Generates the full trace (setup, iterations, teardown).
    pub fn generate(&self) -> Trace {
        let cfg = &self.cfg;
        let mut st = GenState {
            events: Vec::new(),
            next_key: 0,
        };
        let mut trace = Trace::new(cfg.label());

        let mut persistent = self.setup(&mut st);
        for iter in 0..cfg.iterations {
            self.iteration(&mut st, iter, &mut persistent);
        }
        // Teardown: persistent tensors die with the process.
        st.free_all(&mut persistent);

        trace.events = st.events;
        Self::assign_streams(&mut trace.events, cfg.streams);
        debug_assert_eq!(trace.validate(), Ok(()));
        trace
    }

    /// Distributes the trace across `streams` logical GPU streams.
    ///
    /// Communication (gather / reduce-scatter) and offload-staging tensors
    /// move to side streams — real ZeRO/offload runs issue them on separate
    /// CUDA streams precisely so they overlap compute — with a deterministic
    /// per-tensor spread over the available side streams. Compute tensors
    /// stay on the default stream.
    ///
    /// Frees follow the tensor's *consumer*: staging buffers live and die
    /// on their copy stream (same-stream frees, the warm path), while a
    /// communication buffer is produced on its side stream but consumed by
    /// the compute kernels — its free is issued from [`StreamId::DEFAULT`],
    /// a **cross-stream free**, exactly the pattern that exercises the
    /// allocator's cross-stream reuse rule (a small block goes back to the
    /// core, told the freeing stream; with an event source the host first
    /// waits out an event recorded on that stream).
    fn assign_streams(events: &mut [TraceEvent], streams: u32) {
        if streams <= 1 {
            return;
        }
        let side = streams as u64 - 1;
        // key -> stream the FREE is issued from (the consumer's stream).
        let mut free_stream: std::collections::HashMap<u64, StreamId> =
            std::collections::HashMap::new();
        for ev in events {
            match ev {
                TraceEvent::Alloc {
                    key, tag, stream, ..
                } => {
                    let (alloc_on, free_on) = match tag {
                        // Produced AND consumed by the copy engine stream.
                        AllocTag::Staging => {
                            let s = StreamId(1 + (*key % side) as u32);
                            (s, s)
                        }
                        // Produced on the comm stream, consumed by compute:
                        // freed from the default stream (cross-stream).
                        AllocTag::Communication => {
                            (StreamId(1 + (*key % side) as u32), StreamId::DEFAULT)
                        }
                        _ => (StreamId::DEFAULT, StreamId::DEFAULT),
                    };
                    *stream = alloc_on;
                    free_stream.insert(*key, free_on);
                }
                TraceEvent::Free { key, stream } => {
                    if let Some(s) = free_stream.get(key) {
                        *stream = *s;
                    }
                }
                _ => {}
            }
        }
    }

    /// Allocates the persistent shards; returns their keys.
    fn setup(&self, st: &mut GenState) -> Vec<u64> {
        let cfg = &self.cfg;
        let n = cfg.n_gpus as u64;
        let d = cfg.dtype_bytes as u64;
        let p_layer = cfg.model.params_per_layer();
        let mut keys = Vec::new();

        // fp16 weight shards, one block per layer, plus the embedding shard.
        for _ in 0..cfg.model.layers {
            keys.push(st.alloc((p_layer * d).div_ceil(n), AllocTag::Weight));
        }
        keys.push(st.alloc(
            (cfg.model.embedding_params() * d).div_ceil(n),
            AllocTag::Weight,
        ));

        if cfg.strategies.lora {
            // Adapters: 4 low-rank matrix pairs per layer (qkv, attn-out,
            // mlp-up, mlp-down), their gradients, and their optimizer state
            // (on GPU unless offloaded). Adapter tensors are tiny, so they
            // are persistent rather than re-sharded.
            let adapter = 4 * 2 * cfg.lora_rank as u64 * cfg.model.hidden as u64 * d;
            for _ in 0..cfg.model.layers {
                keys.push(st.alloc(adapter, AllocTag::Weight));
                keys.push(st.alloc(adapter, AllocTag::Gradient));
                if !cfg.strategies.offload {
                    keys.push(st.alloc(adapter * 6, AllocTag::OptimizerState));
                }
            }
        }
        // Full fine-tuning gradient partitions are NOT allocated here:
        // ZeRO-3 materializes them during each backward pass and releases
        // them after the step. Likewise the fp32 optimizer states initialize
        // lazily at the first step (see `iteration`), landing in a pool the
        // first forward/backward has already churned — one of the real
        // sources of baseline fragmentation.
        keys
    }

    /// Number of gradient-accumulation microbatches per iteration. Dynamic
    /// strategies run accumulation (standard for memory-tight fine-tuning)
    /// over four length-bucketed slots; the static `N` configuration runs a
    /// single maximally-padded batch.
    fn microbatches(&self) -> u32 {
        if self.cfg.strategies.complexity() > 0 {
            4
        } else {
            1
        }
    }

    /// Emits one training iteration.
    fn iteration(&self, st: &mut GenState, iter: u32, persistent: &mut Vec<u64>) {
        let cfg = &self.cfg;
        st.events.push(TraceEvent::IterBegin { index: iter });

        let timing = layer_timing(cfg);
        let d = cfg.dtype_bytes as u64;
        let n = cfg.n_gpus as u64;
        let p_layer = cfg.model.params_per_layer();
        // Per-iteration fp16 gradient partitions (ZeRO-3): materialized on
        // first touch in the backward pass, released after the step.
        let mut grad_shards: Vec<u64> = Vec::new();

        for mb in 0..self.microbatches() {
            // Activation unit for this microbatch (length bucketing).
            let unit = ((self.bshd() as f64 * self.mb_factor(mb)) as u64).max(4096);
            let mut layer_acts: Vec<Vec<u64>> = Vec::with_capacity(cfg.model.layers as usize);
            let mut checkpoints: Vec<u64> = Vec::with_capacity(cfg.model.layers as usize);

            // ---------------- forward ----------------
            // ZeRO-3 prefetches the next layer's parameters while the
            // current layer computes, so two gather buffers overlap.
            let mut pending_gathers: Vec<u64> = Vec::new();
            for layer in 0..cfg.model.layers {
                let gathers = self.gather(st);
                st.compute(timing.gather_ns);
                st.free_all(&mut pending_gathers);

                let mut acts = self.forward_activations(st, &mut self.rng_for(3, mb, layer), unit);
                let checkpoint = st.alloc(unit, AllocTag::Activation);
                let workspace = self.workspace(st, &mut self.rng_for(2, mb, layer), unit);
                st.compute(timing.forward_ns);
                st.free(workspace);
                pending_gathers = gathers;
                if cfg.strategies.recompute {
                    // Drop everything except the checkpoint.
                    st.free_all(&mut acts);
                    layer_acts.push(Vec::new());
                } else {
                    layer_acts.push(acts);
                }
                checkpoints.push(checkpoint);
            }
            st.free_all(&mut pending_gathers);

            // ---------------- LM head / loss ----------------
            // Logits are vocab-wide (far wider than any hidden tensor); the
            // fused cross-entropy processes them in bounded slices with two
            // slices in flight, so full logits never materialize. The
            // gradient slice survives into the start of the backward pass.
            let logits_total = unit * cfg.model.vocab as u64 / cfg.model.hidden as u64;
            let logits_chunk = (logits_total / 4).clamp(4096, 512 << 20);
            let mut in_flight: Vec<u64> = Vec::new();
            let mut remaining = logits_total;
            while remaining > 0 {
                let take = logits_chunk.min(remaining);
                in_flight.push(st.alloc(take, AllocTag::Activation));
                if in_flight.len() == 2 {
                    st.free(in_flight.remove(0));
                }
                remaining = remaining.saturating_sub(take);
            }
            let mut head = in_flight;
            head.push(st.alloc(logits_chunk, AllocTag::Gradient));
            st.compute(timing.forward_ns);

            // ---------------- backward ----------------
            st.free_all(&mut head);
            for layer in (0..cfg.model.layers).rev() {
                let gathers = self.gather(st);
                st.compute(timing.gather_ns);

                let mut burst = Vec::new();
                if cfg.strategies.recompute {
                    burst = self.recompute_burst(st, &mut self.rng_for(5, mb, layer), unit);
                    st.compute(timing.recompute_ns);
                }
                // Activation gradients flowing through the layer.
                let mut grad_acts = vec![
                    st.alloc(unit, AllocTag::Gradient),
                    st.alloc(unit, AllocTag::Gradient),
                ];
                if !cfg.strategies.lora {
                    // DeepSpeed materializes the flat gradient-partition
                    // buffer when the first gradient of the iteration is
                    // produced, and releases it after the step.
                    if grad_shards.is_empty() {
                        grad_shards.push(
                            st.alloc((cfg.model.params() * d).div_ceil(n), AllocTag::Gradient),
                        );
                    }
                    // Full-layer weight gradient, reduce-scattered into the
                    // flat partition.
                    let grad_full = st.alloc(p_layer * d, AllocTag::Gradient);
                    st.compute(timing.backward_ns);
                    let reduce = st.alloc((p_layer * d).div_ceil(n), AllocTag::Communication);
                    st.compute(timing.reduce_ns);
                    st.free(grad_full);
                    st.free(reduce);
                } else {
                    st.compute(timing.backward_ns);
                }
                st.free_all(&mut grad_acts);
                st.free_all(&mut burst);
                let mut acts = std::mem::take(&mut layer_acts[layer as usize]);
                st.free_all(&mut acts);
                st.free(checkpoints[layer as usize]);
                for g in gathers {
                    st.free(g);
                }
            }
        }

        // ---------------- optimizer ----------------
        if iter == 0 && !cfg.strategies.lora && !cfg.strategies.offload {
            // Lazy Adam init: the flat fp32 master-weight + moment buffer
            // appears at the first step, after the pool has already been
            // churned by the first forward/backward.
            persistent.push(st.alloc(
                (cfg.model.params() * 12).div_ceil(n),
                AllocTag::OptimizerState,
            ));
        }
        self.optimizer_phase(st, &mut self.rng_for(6, 0, 0));
        st.free_all(&mut grad_shards);
        st.events.push(TraceEvent::IterEnd { index: iter });
    }

    /// Parameter all-gather for one layer: the full fp16 layer, split into
    /// platform-sized buckets. Every layer of a transformer has identical
    /// parameter volume, so gather buffers repeat exactly; the scheduling
    /// variability of real systems shows up as prefetch *overlap* (handled
    /// at the call sites), not as size jitter.
    fn gather(&self, st: &mut GenState) -> Vec<u64> {
        let cfg = &self.cfg;
        let layer_bytes = cfg.model.params_per_layer() * cfg.dtype_bytes as u64;
        let bucket = cfg.platform.gather_bucket_bytes();
        let mut remaining = layer_bytes;
        let mut keys = Vec::new();
        while remaining > 0 {
            let take = remaining.min(bucket);
            keys.push(st.alloc(take, AllocTag::Communication));
            remaining -= take;
        }
        keys
    }

    /// The forward activation set of one layer (sizes in `bshd` units:
    /// QKV = 3, attention out = 1, MLP up = 4, MLP down = 1), plus LoRA
    /// adapter intermediates when enabled.
    fn forward_activations(&self, st: &mut GenState, rng: &mut StdRng, unit: u64) -> Vec<u64> {
        let mut keys = vec![
            st.alloc(3 * unit, AllocTag::Activation),
            st.alloc(unit, AllocTag::Activation),
            st.alloc(4 * unit, AllocTag::Activation),
            st.alloc(unit, AllocTag::Activation),
        ];
        if self.cfg.strategies.lora {
            let r_unit = self.cfg.batch_size as u64
                * self.cfg.seq_len as u64
                * self.cfg.lora_rank as u64
                * self.cfg.dtype_bytes as u64;
            keys.push(st.alloc(r_unit.max(512), AllocTag::Activation));
            keys.push(st.alloc(r_unit.max(512), AllocTag::Activation));
            keys.push(st.alloc(jitter(rng, unit, 0.05), AllocTag::Activation));
        }
        keys
    }

    /// A transient kernel workspace (attention/cuBLAS scratch).
    fn workspace(&self, st: &mut GenState, rng: &mut StdRng, unit: u64) -> u64 {
        st.alloc(
            jitter(rng, unit, self.workspace_jitter()),
            AllocTag::Workspace,
        )
    }

    /// Recomputation burst: checkpointing re-runs the layer's forward, so
    /// the burst materializes exactly the forward activation shapes (plus a
    /// fresh workspace). This is what lets GMLake's cached sBlocks serve the
    /// burst with exact matches once the pattern has been seen.
    fn recompute_burst(&self, st: &mut GenState, rng: &mut StdRng, unit: u64) -> Vec<u64> {
        let mut keys = self.forward_activations(st, rng, unit);
        keys.push(self.workspace(st, rng, unit));
        keys
    }

    /// Optimizer phase: fused in-place step, or staged PCIe streaming under
    /// ZeRO-Offload (gradient shard down, updated parameter shard up),
    /// double-buffered with irregular slice sizes.
    fn optimizer_phase(&self, st: &mut GenState, rng: &mut StdRng) {
        let cfg = &self.cfg;
        let n = cfg.n_gpus as u64;
        if !cfg.strategies.offload {
            let shard_params = if cfg.strategies.lora {
                4 * 2 * cfg.lora_rank as u64 * cfg.model.hidden as u64 * cfg.model.layers as u64
            } else {
                cfg.model.params().div_ceil(n)
            };
            st.compute(optimizer_ns(shard_params));
            return;
        }
        // Offload: stream (grad shard + param shard) bytes through staging
        // buffers of irregular size, keeping at most two in flight.
        let d = cfg.dtype_bytes as u64;
        let traffic = if cfg.strategies.lora {
            2 * 4 * 2 * cfg.lora_rank as u64 * cfg.model.hidden as u64 * cfg.model.layers as u64 * d
        } else {
            2 * (cfg.model.params() * d).div_ceil(n)
        };
        const SLICES: [u64; 6] = [
            64 << 20,
            96 << 20,
            128 << 20,
            160 << 20,
            192 << 20,
            256 << 20,
        ];
        let mut in_flight: Vec<u64> = Vec::new();
        let mut remaining = traffic;
        while remaining > 0 {
            let slice = SLICES[rng.gen_range(0..SLICES.len())].min(remaining.max(1 << 20));
            let key = st.alloc(slice, AllocTag::Staging);
            st.compute(pcie_ns(slice));
            in_flight.push(key);
            if in_flight.len() == 2 {
                st.free(in_flight.remove(0));
            }
            remaining = remaining.saturating_sub(slice);
        }
        st.free_all(&mut in_flight);
    }
}

/// Multiplies `base` by a uniform factor in `[1−pct, 1+pct]`, keeping the
/// result positive.
fn jitter(rng: &mut StdRng, base: u64, pct: f64) -> u64 {
    if pct <= 0.0 {
        return base.max(1);
    }
    let f = rng.gen_range(1.0 - pct..1.0 + pct);
    ((base as f64 * f) as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelSpec;
    use crate::strategy::StrategySet;
    use gmlake_alloc_api::gib;

    fn quick(strategies: StrategySet) -> Trace {
        let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), strategies).with_iterations(2);
        TraceGenerator::new(cfg).generate()
    }

    #[test]
    fn traces_are_well_formed_for_all_strategies() {
        for s in StrategySet::FIG10_SWEEP {
            let t = quick(s);
            t.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", s.label()));
            let stats = t.stats();
            assert!(
                stats.allocs > 100,
                "{}: only {} allocs",
                s.label(),
                stats.allocs
            );
            assert_eq!(stats.iterations, 2);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LRO).with_iterations(2);
        let a = TraceGenerator::new(cfg.clone()).generate();
        let b = TraceGenerator::new(cfg).generate();
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn different_seeds_differ_for_dynamic_strategies() {
        let base = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LRO).with_iterations(1);
        let a = TraceGenerator::new(base.clone().with_seed(1)).generate();
        let b = TraceGenerator::new(base.with_seed(2)).generate();
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn n_strategy_is_fully_periodic() {
        // Without dynamic strategies, steady-state iterations issue identical
        // sizes (iteration 0 additionally lazy-initializes optimizer states,
        // so compare iterations 1 and 2).
        let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::N).with_iterations(3);
        let t = TraceGenerator::new(cfg).generate();
        let sizes_of_iter = |idx: u32| -> Vec<u64> {
            let mut sizes = Vec::new();
            let mut active = false;
            for ev in &t.events {
                match *ev {
                    TraceEvent::IterBegin { index } => active = index == idx,
                    TraceEvent::IterEnd { .. } => active = false,
                    TraceEvent::Alloc { size, .. } if active => sizes.push(size),
                    _ => {}
                }
            }
            sizes
        };
        assert_eq!(sizes_of_iter(1), sizes_of_iter(2));
    }

    #[test]
    fn dynamic_traces_are_iteration_periodic() {
        // Even the most complex strategy mix repeats exactly from one
        // iteration to the next (randomness is a function of the site, not
        // the iteration) — the property GMLake's convergence relies on.
        let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LRO).with_iterations(3);
        let t = TraceGenerator::new(cfg).generate();
        let sizes_of_iter = |idx: u32| -> Vec<u64> {
            let mut sizes = Vec::new();
            let mut active = false;
            for ev in &t.events {
                match *ev {
                    TraceEvent::IterBegin { index } => active = index == idx,
                    TraceEvent::IterEnd { .. } => active = false,
                    TraceEvent::Alloc { size, .. } if active => sizes.push(size),
                    _ => {}
                }
            }
            sizes
        };
        assert_eq!(sizes_of_iter(1), sizes_of_iter(2));
    }

    #[test]
    fn multi_stream_traces_route_comm_and_staging_off_the_default_stream() {
        // RO enables offload: communication AND staging traffic exist.
        let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::RO)
            .with_iterations(2)
            .with_streams(3);
        let t = TraceGenerator::new(cfg).generate();
        t.validate().unwrap();
        assert_eq!(t.stats().streams, 3, "default + 2 side streams in use");
        let mut owner: std::collections::HashMap<u64, (AllocTag, StreamId)> =
            std::collections::HashMap::new();
        let mut side_allocs = 0u64;
        let mut cross_stream_frees = 0u64;
        for ev in &t.events {
            match *ev {
                TraceEvent::Alloc {
                    key, tag, stream, ..
                } => {
                    match tag {
                        AllocTag::Communication | AllocTag::Staging => {
                            assert!(!stream.is_default(), "{tag}: overlap traffic is off-stream");
                            side_allocs += 1;
                        }
                        _ => assert!(stream.is_default(), "{tag}: compute stays on stream 0"),
                    }
                    owner.insert(key, (tag, stream));
                }
                TraceEvent::Free { key, stream } => {
                    let (tag, alloc_stream) = owner[&key];
                    match tag {
                        // Comm buffers are consumed by compute: freed from
                        // the default stream, i.e. cross-stream.
                        AllocTag::Communication => {
                            assert!(stream.is_default(), "{tag}: freed by its consumer");
                            assert_ne!(stream, alloc_stream);
                            cross_stream_frees += 1;
                        }
                        _ => assert_eq!(alloc_stream, stream, "{tag}: freed on its own stream"),
                    }
                }
                _ => {}
            }
        }
        assert!(side_allocs > 0);
        assert!(
            cross_stream_frees > 0,
            "offload workloads must exercise the cross-stream free path"
        );
    }

    #[test]
    fn single_stream_config_keeps_everything_on_the_default_stream() {
        let t = quick(StrategySet::LRO);
        assert_eq!(t.stats().streams, 1);
    }

    #[test]
    fn microbatch_slots_use_different_lengths() {
        // Within one iteration the accumulation slots pad to different
        // lengths: the intra-iteration shape diversity that fragments the
        // splitting baseline.
        let cfg = TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR).with_iterations(1);
        let g = TraceGenerator::new(cfg);
        assert!(g.microbatches() >= 2);
        assert_ne!(g.mb_factor(0), g.mb_factor(1));
    }

    #[test]
    fn recompute_shrinks_peak_live_memory() {
        // Persistent shards (weights/grads/optimizer) are a floor both share;
        // recompute removes most of the activation volume above it.
        let n = quick(StrategySet::N).stats().peak_live_bytes;
        let r = quick(StrategySet::R).stats().peak_live_bytes;
        assert!(
            r < (n as f64 * 0.75) as u64,
            "recompute should cut activations: N={n} R={r}"
        );
    }

    #[test]
    fn lora_shrinks_persistent_memory() {
        let r = quick(StrategySet::R).stats().peak_live_bytes;
        let lr = quick(StrategySet::LR).stats().peak_live_bytes;
        assert!(lr < r, "LoRA drops grads+optimizer: R={r} LR={lr}");
    }

    #[test]
    fn offload_moves_optimizer_off_gpu() {
        let r = quick(StrategySet::R).stats().peak_live_bytes;
        let ro = quick(StrategySet::RO).stats().peak_live_bytes;
        assert!(ro < r, "offload drops fp32 states: R={r} RO={ro}");
    }

    #[test]
    fn complex_strategies_issue_more_and_smaller_allocations() {
        // The paper's Figure 5: PyTorch-only 46k allocs @ 93 MB mean vs
        // +LR 76k allocs @ 85 MB mean. Shape check: count up, mean down.
        let n = quick(StrategySet::N).stats();
        let lro = quick(StrategySet::LRO).stats();
        assert!(lro.allocs > n.allocs, "N={} LRO={}", n.allocs, lro.allocs);
        assert!(
            lro.mean_alloc < n.mean_alloc,
            "mean N={} LRO={}",
            n.mean_alloc,
            lro.mean_alloc
        );
    }

    #[test]
    fn gpu_scaling_shrinks_shards() {
        let one = TraceGenerator::new(
            TrainConfig::new(ModelSpec::opt_13b(), StrategySet::LR)
                .with_iterations(1)
                .with_gpus(1),
        )
        .generate()
        .stats();
        let sixteen = TraceGenerator::new(
            TrainConfig::new(ModelSpec::opt_13b(), StrategySet::LR)
                .with_iterations(1)
                .with_gpus(16),
        )
        .generate()
        .stats();
        assert!(sixteen.peak_live_bytes < one.peak_live_bytes);
    }

    #[test]
    fn peak_live_fits_a100_for_default_13b_lr() {
        let cfg = TrainConfig::new(ModelSpec::opt_13b(), StrategySet::LR).with_iterations(1);
        let t = TraceGenerator::new(cfg).generate();
        assert!(t.stats().peak_live_bytes < gib(80));
    }

    #[test]
    fn compute_time_present_and_scales_with_model() {
        let small = quick(StrategySet::N).stats().compute_ns;
        let big = TraceGenerator::new(
            TrainConfig::new(ModelSpec::opt_13b(), StrategySet::N).with_iterations(2),
        )
        .generate()
        .stats()
        .compute_ns;
        assert!(small > 0);
        assert!(big > small);
    }
}
