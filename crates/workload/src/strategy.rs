//! Memory-efficient training strategies and platforms (§2.3 / Table 2).

use crate::model::ModelSpec;

/// The set of memory-reduction strategies enabled for a run.
///
/// The paper labels combinations `N` (none), `R` (recomputation), `LR`
/// (LoRA + recomputation), `RO` (recomputation + offload) and `LRO`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StrategySet {
    /// LoRA: base weights frozen; only low-rank adapters train.
    pub lora: bool,
    /// Gradient checkpointing: forward activations are dropped and
    /// recomputed in the backward pass.
    pub recompute: bool,
    /// ZeRO-Offload: optimizer state and step execute on the CPU, with
    /// staged transfers.
    pub offload: bool,
}

impl StrategySet {
    /// No strategy (`N`).
    pub const N: StrategySet = StrategySet {
        lora: false,
        recompute: false,
        offload: false,
    };
    /// Recomputation only (`R`).
    pub const R: StrategySet = StrategySet {
        lora: false,
        recompute: true,
        offload: false,
    };
    /// LoRA + recomputation (`LR`).
    pub const LR: StrategySet = StrategySet {
        lora: true,
        recompute: true,
        offload: false,
    };
    /// Recomputation + offload (`RO`).
    pub const RO: StrategySet = StrategySet {
        lora: false,
        recompute: true,
        offload: true,
    };
    /// LoRA + recomputation + offload (`LRO`).
    pub const LRO: StrategySet = StrategySet {
        lora: true,
        recompute: true,
        offload: true,
    };

    /// The five combinations evaluated in Figures 3 and 10.
    pub const FIG10_SWEEP: [StrategySet; 5] = [
        StrategySet::N,
        StrategySet::R,
        StrategySet::LR,
        StrategySet::RO,
        StrategySet::LRO,
    ];

    /// The paper's label for this combination.
    pub fn label(&self) -> &'static str {
        match (self.lora, self.recompute, self.offload) {
            (false, false, false) => "N",
            (false, true, false) => "R",
            (true, true, false) => "LR",
            (false, true, true) => "RO",
            (true, true, true) => "LRO",
            (true, false, false) => "L",
            (false, false, true) => "O",
            (true, false, true) => "LO",
        }
    }

    /// How many distinct strategies are enabled (a rough complexity proxy).
    pub fn complexity(&self) -> u32 {
        self.lora as u32 + self.recompute as u32 + self.offload as u32
    }
}

impl std::fmt::Display for StrategySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Distributed-training platform flavor (Table 2).
///
/// All three shard parameters/gradients/optimizer state across data-parallel
/// ranks; they differ in gather bucketing and transient buffer behaviour,
/// which the trace generator reflects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// DeepSpeed ZeRO stage 3.
    DeepSpeedZero3,
    /// PyTorch fully-sharded data parallel.
    Fsdp,
    /// Colossal-AI.
    ColossalAi,
}

impl Platform {
    /// Short name used in figure labels.
    pub fn label(&self) -> &'static str {
        match self {
            Platform::DeepSpeedZero3 => "DS",
            Platform::Fsdp => "FSDP",
            Platform::ColossalAi => "CAI",
        }
    }

    /// Maximum parameter-gather bucket, in bytes. FSDP gathers whole
    /// flattened units (larger buckets); Colossal-AI uses finer chunks.
    pub fn gather_bucket_bytes(&self) -> u64 {
        match self {
            Platform::DeepSpeedZero3 => 500 * 1024 * 1024,
            Platform::Fsdp => 768 * 1024 * 1024,
            Platform::ColossalAi => 256 * 1024 * 1024,
        }
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Full configuration of a fine-tuning run, for one data-parallel rank.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Model architecture.
    pub model: ModelSpec,
    /// Enabled memory-reduction strategies.
    pub strategies: StrategySet,
    /// Distributed platform flavor.
    pub platform: Platform,
    /// Number of data-parallel GPUs (ZeRO-3 shard count).
    pub n_gpus: u32,
    /// Per-GPU micro-batch size.
    pub batch_size: u32,
    /// Sequence length.
    pub seq_len: u32,
    /// Bytes per element of weights/activations (2 = fp16).
    pub dtype_bytes: u32,
    /// LoRA rank (when `strategies.lora`).
    pub lora_rank: u32,
    /// Training iterations to generate.
    pub iterations: u32,
    /// RNG seed for the jitter model.
    pub seed: u64,
    /// Logical GPU streams the trace is issued on (default 1). With more
    /// than one stream, communication and offload-staging tensors move to
    /// side streams — the overlap real ZeRO/offload runs rely on — while
    /// compute tensors stay on the default stream. Every tensor is freed on
    /// its allocating stream.
    pub streams: u32,
}

impl TrainConfig {
    /// A representative fine-tuning configuration: DeepSpeed ZeRO-3, 4 GPUs,
    /// batch 8, sequence 2048, fp16, 8 iterations.
    pub fn new(model: ModelSpec, strategies: StrategySet) -> Self {
        TrainConfig {
            model,
            strategies,
            platform: Platform::DeepSpeedZero3,
            n_gpus: 4,
            batch_size: 8,
            seq_len: 2048,
            dtype_bytes: 2,
            lora_rank: 64,
            iterations: 8,
            seed: 0x6d6c616b65, // "mlake"
            streams: 1,
        }
    }

    /// Sets the GPU count.
    #[must_use]
    pub fn with_gpus(mut self, n_gpus: u32) -> Self {
        self.n_gpus = n_gpus;
        self
    }

    /// Sets the per-GPU batch size.
    #[must_use]
    pub fn with_batch(mut self, batch_size: u32) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the platform.
    #[must_use]
    pub fn with_platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Sets the iteration count.
    #[must_use]
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the sequence length.
    #[must_use]
    pub fn with_seq_len(mut self, seq_len: u32) -> Self {
        self.seq_len = seq_len;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the logical stream count (see [`TrainConfig::streams`]). Values
    /// below 1 are treated as 1 by the generator.
    #[must_use]
    pub fn with_streams(mut self, streams: u32) -> Self {
        self.streams = streams;
        self
    }

    /// Tokens processed per iteration on this rank.
    pub fn tokens_per_iter(&self) -> u64 {
        self.batch_size as u64 * self.seq_len as u64
    }

    /// Figure-style label, e.g. `DS-OPT-13B/LR/4gpu/bs8`.
    pub fn label(&self) -> String {
        format!(
            "{}-{}/{}/{}gpu/bs{}",
            self.platform.label(),
            self.model.name,
            self.strategies.label(),
            self.n_gpus,
            self.batch_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_labels_match_paper() {
        assert_eq!(StrategySet::N.label(), "N");
        assert_eq!(StrategySet::R.label(), "R");
        assert_eq!(StrategySet::LR.label(), "LR");
        assert_eq!(StrategySet::RO.label(), "RO");
        assert_eq!(StrategySet::LRO.label(), "LRO");
    }

    #[test]
    fn complexity_orders_combinations() {
        assert_eq!(StrategySet::N.complexity(), 0);
        assert_eq!(StrategySet::R.complexity(), 1);
        assert_eq!(StrategySet::LR.complexity(), 2);
        assert_eq!(StrategySet::LRO.complexity(), 3);
    }

    #[test]
    fn fig10_sweep_is_the_five_paper_points() {
        let labels: Vec<&str> = StrategySet::FIG10_SWEEP.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["N", "R", "LR", "RO", "LRO"]);
    }

    #[test]
    fn config_builders_chain() {
        let c = TrainConfig::new(ModelSpec::opt_13b(), StrategySet::LR)
            .with_gpus(8)
            .with_batch(16)
            .with_platform(Platform::Fsdp)
            .with_iterations(3)
            .with_seq_len(1024)
            .with_seed(7);
        assert_eq!(c.n_gpus, 8);
        assert_eq!(c.batch_size, 16);
        assert_eq!(c.platform, Platform::Fsdp);
        assert_eq!(c.iterations, 3);
        assert_eq!(c.tokens_per_iter(), 16 * 1024);
        assert_eq!(c.seed, 7);
        assert!(c.label().contains("FSDP-OPT-13B/LR/8gpu/bs16"));
    }

    #[test]
    fn platform_buckets_differ() {
        assert!(Platform::Fsdp.gather_bucket_bytes() > Platform::ColossalAi.gather_bucket_bytes());
    }
}
