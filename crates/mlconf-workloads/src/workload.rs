//! The workload suite: six distributed-ML training jobs spanning the
//! compute-, network-, and memory-bound regimes (characterized by
//! experiment E1).
//!
//! Each workload pairs the simulator-facing [`JobSpec`] (FLOPs, bytes,
//! sparsity) with a [`ConvergenceModel`] (critical batch size, staleness
//! sensitivity) and a descriptive regime label. The numbers are synthetic
//! but shaped after the public characteristics of the classic benchmarks
//! they are named for.

use mlconf_sim::job::JobSpec;

use crate::convergence::ConvergenceModel;

/// The resource regime a workload predominantly stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Gradient computation dominates.
    ComputeBound,
    /// Gradient/model traffic dominates.
    NetworkBound,
    /// Model state pressures node memory.
    MemoryBound,
    /// No single dominant resource.
    Balanced,
}

impl Regime {
    /// Stable lowercase label.
    pub fn name(&self) -> &'static str {
        match self {
            Regime::ComputeBound => "compute-bound",
            Regime::NetworkBound => "network-bound",
            Regime::MemoryBound => "memory-bound",
            Regime::Balanced => "balanced",
        }
    }
}

/// A tunable distributed-training workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    job: JobSpec,
    convergence: ConvergenceModel,
    regime: Regime,
    description: String,
}

impl Workload {
    /// Creates a workload.
    pub fn new(
        job: JobSpec,
        convergence: ConvergenceModel,
        regime: Regime,
        description: impl Into<String>,
    ) -> Self {
        Workload {
            job,
            convergence,
            regime,
            description: description.into(),
        }
    }

    /// The workload's name (the job name).
    pub fn name(&self) -> &str {
        self.job.name()
    }

    /// Simulator-facing resource demands.
    pub fn job(&self) -> &JobSpec {
        &self.job
    }

    /// Convergence (statistical-efficiency) model.
    pub fn convergence(&self) -> &ConvergenceModel {
        &self.convergence
    }

    /// Dominant resource regime.
    pub fn regime(&self) -> Regime {
        self.regime
    }

    /// Human-readable description.
    pub fn description(&self) -> &str {
        &self.description
    }
}

/// Sparse logistic regression on a click-through dataset
/// (Criteo-shaped): a huge hashed feature space touched sparsely —
/// network-light on PS, brutal on all-reduce.
pub fn logreg_criteo() -> Workload {
    Workload::new(
        JobSpec::new(
            "logreg-criteo",
            50_000_000, // 50M hashed weights
            2e5,        // cheap per-sample compute
            400.0,      // compact hashed sample
            200.0,
            0.0005, // ~25k non-zeros per minibatch push
            45_000_000,
        ),
        ConvergenceModel::new(12_000.0, 2048.0, 0.08, 0.05),
        Regime::Balanced,
        "sparse logistic regression for click-through-rate prediction",
    )
}

/// Matrix factorization on a ratings dataset (Netflix-shaped): medium
/// sparse model, light compute.
pub fn mf_netflix() -> Workload {
    Workload::new(
        JobSpec::new(
            "mf-netflix",
            25_000_000, // (users + items) × rank
            8e4,
            24.0, // (user, item, rating)
            64.0,
            0.002,
            100_000_000,
        ),
        ConvergenceModel::new(30_000.0, 4096.0, 0.12, 0.05),
        Regime::Balanced,
        "low-rank matrix factorization for recommendation",
    )
}

/// Topic modelling (LDA on a news corpus): moderately sparse updates,
/// moderate compute per document.
pub fn lda_news() -> Workload {
    Workload::new(
        JobSpec::new(
            "lda-news", 10_000_000, // vocab × topics
            5e6,        // Gibbs/VI per-doc work
            2_000.0, 4_000.0, 0.01, 8_000_000,
        ),
        ConvergenceModel::new(4_000.0, 1024.0, 0.10, 0.05),
        Regime::ComputeBound,
        "latent Dirichlet allocation topic model",
    )
}

/// A small dense MLP (MNIST-shaped): the quickstart workload — small
/// model, small data, everything fits everywhere.
pub fn mlp_mnist() -> Workload {
    Workload::new(
        JobSpec::new(
            "mlp-mnist",
            2_000_000,
            4e6,
            3_136.0, // 28×28 floats
            8_000.0,
            1.0,
            60_000,
        ),
        ConvergenceModel::new(2_000.0, 512.0, 0.15, 0.05),
        Regime::Balanced,
        "dense multilayer perceptron on a small image dataset",
    )
}

/// A convolutional network (CIFAR/ResNet-shaped): dense 25M-parameter
/// model with heavy per-sample compute.
pub fn cnn_cifar() -> Workload {
    Workload::new(
        JobSpec::new(
            "cnn-cifar",
            25_000_000,
            6e8, // convolutions dominate
            12_288.0,
            200_000.0, // activations are the memory hog
            1.0,
            50_000,
        ),
        ConvergenceModel::new(15_000.0, 1024.0, 0.20, 0.05),
        Regime::ComputeBound,
        "residual convolutional network for image classification",
    )
}

/// Word embeddings on a large corpus (word2vec-shaped): a 1.5B-parameter
/// embedding table (3M vocab × 500 dims) updated sparsely. The 6 GB
/// dense model plus 12 GB of optimizer state creates real memory
/// cliffs: single parameter servers and all-reduce deployments OOM on
/// small machine types.
pub fn w2v_wiki() -> Workload {
    Workload::new(
        JobSpec::new(
            "w2v-wiki",
            1_500_000_000,
            1e5,
            80.0, // a context window of token ids
            64.0,
            0.001,
            1_000_000_000,
        ),
        ConvergenceModel::new(200_000.0, 8192.0, 0.05, 0.05),
        Regime::MemoryBound,
        "skip-gram word embeddings over a web-scale corpus",
    )
}

/// A dense mid-size language-model-shaped job: dense 150M parameters and
/// real compute — the network-bound stress case for all-reduce vs PS.
pub fn dense_lm() -> Workload {
    Workload::new(
        JobSpec::new(
            "dense-lm",
            150_000_000,
            2e8,
            4_096.0,
            100_000.0,
            1.0,
            30_000_000,
        ),
        ConvergenceModel::new(50_000.0, 2048.0, 0.25, 0.05),
        Regime::NetworkBound,
        "dense sequence model with a large fully-shared parameter set",
    )
}

/// The full evaluation suite (E1's Table 1 rows, in order).
pub fn suite() -> Vec<Workload> {
    vec![
        logreg_criteo(),
        mf_netflix(),
        lda_news(),
        mlp_mnist(),
        cnn_cifar(),
        w2v_wiki(),
        dense_lm(),
    ]
}

/// Looks up a suite workload by name.
pub fn by_name(name: &str) -> Option<Workload> {
    suite().into_iter().find(|w| w.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_unique_names() {
        let s = suite();
        assert!(s.len() >= 6);
        let mut names: Vec<&str> = s.iter().map(|w| w.name()).collect();
        names.sort();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("cnn-cifar").is_some());
        assert!(by_name("mlp-mnist").is_some());
        assert!(by_name("bogus").is_none());
    }

    #[test]
    fn suite_spans_regimes() {
        let s = suite();
        let has = |r: Regime| s.iter().any(|w| w.regime() == r);
        assert!(has(Regime::ComputeBound));
        assert!(has(Regime::NetworkBound));
        assert!(has(Regime::MemoryBound));
    }

    #[test]
    fn sparse_workloads_have_small_gradients() {
        let lr = logreg_criteo();
        assert!(lr.job().gradient_bytes() < lr.job().model_bytes() / 100.0);
        let dense = dense_lm();
        assert_eq!(dense.job().gradient_bytes(), dense.job().model_bytes());
    }

    #[test]
    fn descriptions_nonempty() {
        for w in suite() {
            assert!(!w.description().is_empty(), "{}", w.name());
            assert!(!w.regime().name().is_empty());
        }
    }
}
