//! Transformer model specifications for the models evaluated in the paper
//! (Table 2): OPT-1.3B, GPT-2, GLM-10B, OPT-13B, Vicuna-13B, GPT-NeoX-20B.
//!
//! Only the quantities that determine memory behaviour are modeled: layer
//! count, hidden width, head count, vocabulary, and the derived parameter
//! count (`≈ 12·L·H² + V·H`, the standard decoder-only estimate).

/// Architecture of a decoder-only transformer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Model name as used in the paper's figures.
    pub name: String,
    /// Number of transformer layers.
    pub layers: u32,
    /// Hidden dimension.
    pub hidden: u32,
    /// Attention heads.
    pub heads: u32,
    /// Vocabulary size.
    pub vocab: u32,
}

impl ModelSpec {
    /// OPT-1.3B: 24 layers, hidden 2048.
    pub fn opt_1_3b() -> Self {
        ModelSpec {
            name: "OPT-1.3B".to_owned(),
            layers: 24,
            hidden: 2048,
            heads: 32,
            vocab: 50272,
        }
    }

    /// GPT-2 (XL configuration): 48 layers, hidden 1600.
    pub fn gpt2() -> Self {
        ModelSpec {
            name: "GPT-2".to_owned(),
            layers: 48,
            hidden: 1600,
            heads: 25,
            vocab: 50257,
        }
    }

    /// GLM-10B: 48 layers, hidden 4096.
    pub fn glm_10b() -> Self {
        ModelSpec {
            name: "GLM-10B".to_owned(),
            layers: 48,
            hidden: 4096,
            heads: 64,
            vocab: 50304,
        }
    }

    /// OPT-13B: 40 layers, hidden 5120.
    pub fn opt_13b() -> Self {
        ModelSpec {
            name: "OPT-13B".to_owned(),
            layers: 40,
            hidden: 5120,
            heads: 40,
            vocab: 50272,
        }
    }

    /// Vicuna-13B (LLaMA-13B architecture): 40 layers, hidden 5120.
    pub fn vicuna_13b() -> Self {
        ModelSpec {
            name: "Vicuna-13B".to_owned(),
            layers: 40,
            hidden: 5120,
            heads: 40,
            vocab: 32000,
        }
    }

    /// GPT-NeoX-20B: 44 layers, hidden 6144.
    pub fn gpt_neox_20b() -> Self {
        ModelSpec {
            name: "GPT-NeoX-20B".to_owned(),
            layers: 44,
            hidden: 6144,
            heads: 64,
            vocab: 50432,
        }
    }

    /// All six models of Table 2.
    pub fn all() -> Vec<ModelSpec> {
        vec![
            ModelSpec::opt_1_3b(),
            ModelSpec::gpt2(),
            ModelSpec::glm_10b(),
            ModelSpec::opt_13b(),
            ModelSpec::vicuna_13b(),
            ModelSpec::gpt_neox_20b(),
        ]
    }

    /// Total parameter count: `12·L·H² + V·H` (attention + MLP + embeddings).
    ///
    /// ```
    /// use gmlake_workload::ModelSpec;
    /// let p = ModelSpec::opt_13b().params();
    /// assert!((12.0e9..14.5e9).contains(&(p as f64)));
    /// ```
    pub fn params(&self) -> u64 {
        let l = self.layers as u64;
        let h = self.hidden as u64;
        let v = self.vocab as u64;
        12 * l * h * h + v * h
    }

    /// Parameters of one transformer layer: `12·H²`.
    pub fn params_per_layer(&self) -> u64 {
        12 * (self.hidden as u64) * (self.hidden as u64)
    }

    /// Embedding (+ unembedding tie) parameters: `V·H`.
    pub fn embedding_params(&self) -> u64 {
        (self.vocab as u64) * (self.hidden as u64)
    }
}

impl std::fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} layers, hidden {}, ~{:.1}B params)",
            self.name,
            self.layers,
            self.hidden,
            self.params() as f64 / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_counts_match_model_names() {
        let close = |spec: ModelSpec, target_b: f64, tol: f64| {
            let p = spec.params() as f64 / 1e9;
            assert!(
                (p - target_b).abs() / target_b < tol,
                "{}: {p:.2}B vs expected {target_b}B",
                spec.name
            );
        };
        close(ModelSpec::opt_1_3b(), 1.3, 0.10);
        close(ModelSpec::gpt2(), 1.5, 0.15);
        close(ModelSpec::glm_10b(), 10.0, 0.10);
        close(ModelSpec::opt_13b(), 13.0, 0.05);
        close(ModelSpec::vicuna_13b(), 13.0, 0.05);
        close(ModelSpec::gpt_neox_20b(), 20.0, 0.05);
    }

    #[test]
    fn per_layer_params_sum_to_total() {
        let m = ModelSpec::opt_13b();
        assert_eq!(
            m.params(),
            m.params_per_layer() * m.layers as u64 + m.embedding_params()
        );
    }

    #[test]
    fn all_returns_six_distinct_models() {
        let all = ModelSpec::all();
        assert_eq!(all.len(), 6);
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn display_mentions_scale() {
        let s = ModelSpec::gpt_neox_20b().to_string();
        assert!(s.contains("GPT-NeoX-20B"));
        assert!(s.contains("20."));
    }
}
