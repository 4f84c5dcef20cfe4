//! Description of a distributed training job's per-step resource demands.
//!
//! `JobSpec` carries the raw quantities the simulator needs (FLOPs,
//! bytes, parameter counts); higher-level workload semantics (convergence
//! behaviour, targets) live in `mlconf-workloads`.

/// Per-sample and model-level resource demands of a training job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    name: String,
    /// Number of trainable parameters.
    num_params: u64,
    /// FLOPs per training sample (forward + backward).
    flops_per_sample: f64,
    /// Bytes of input data per sample.
    bytes_per_sample: f64,
    /// Bytes of activation memory per sample during training.
    activation_bytes_per_sample: f64,
    /// Fraction of gradient entries that are non-zero per minibatch
    /// (1.0 = dense models; sparse models like logistic regression on
    /// hashed features push far less).
    gradient_density: f64,
    /// Total number of training samples in the dataset (one epoch).
    dataset_samples: u64,
}

impl JobSpec {
    /// Creates a job spec.
    ///
    /// # Panics
    ///
    /// Panics if any quantity is non-positive/non-finite or
    /// `gradient_density` is outside `(0, 1]`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        num_params: u64,
        flops_per_sample: f64,
        bytes_per_sample: f64,
        activation_bytes_per_sample: f64,
        gradient_density: f64,
        dataset_samples: u64,
    ) -> Self {
        assert!(num_params > 0, "job needs parameters");
        assert!(dataset_samples > 0, "job needs data");
        for (label, v) in [
            ("flops_per_sample", flops_per_sample),
            ("bytes_per_sample", bytes_per_sample),
            ("activation_bytes_per_sample", activation_bytes_per_sample),
        ] {
            assert!(v > 0.0 && v.is_finite(), "job {label} invalid: {v}");
        }
        assert!(
            gradient_density > 0.0 && gradient_density <= 1.0,
            "gradient density must be in (0,1], got {gradient_density}"
        );
        JobSpec {
            name: name.into(),
            num_params,
            flops_per_sample,
            bytes_per_sample,
            activation_bytes_per_sample,
            gradient_density,
            dataset_samples,
        }
    }

    /// Job name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> u64 {
        self.num_params
    }

    /// FLOPs per sample (forward + backward).
    pub fn flops_per_sample(&self) -> f64 {
        self.flops_per_sample
    }

    /// Input bytes per sample.
    pub fn bytes_per_sample(&self) -> f64 {
        self.bytes_per_sample
    }

    /// Activation bytes per sample.
    pub fn activation_bytes_per_sample(&self) -> f64 {
        self.activation_bytes_per_sample
    }

    /// Fraction of gradient entries pushed per minibatch.
    pub fn gradient_density(&self) -> f64 {
        self.gradient_density
    }

    /// Samples per epoch.
    pub fn dataset_samples(&self) -> u64 {
        self.dataset_samples
    }

    /// Bytes of the full dense model at 4 bytes per parameter.
    pub fn model_bytes(&self) -> f64 {
        self.num_params as f64 * 4.0
    }

    /// Bytes pushed per worker per step (gradient traffic before any
    /// compression), accounting for sparsity: sparse updates carry
    /// index + value pairs (8 bytes per non-zero).
    pub fn gradient_bytes(&self) -> f64 {
        if self.gradient_density >= 1.0 {
            self.model_bytes()
        } else {
            self.num_params as f64 * self.gradient_density * 8.0
        }
    }

    /// Bytes a parameter-server worker pulls per step. Dense models fetch
    /// the full model; sparse models fetch only their active working set,
    /// modelled as 4× the entries they update (8 bytes per index+value
    /// pair), capped at the dense size.
    pub fn pull_bytes(&self) -> f64 {
        if self.gradient_density >= 1.0 {
            self.model_bytes()
        } else {
            (self.num_params as f64 * self.gradient_density * 8.0 * 4.0).min(self.model_bytes())
        }
    }

    /// FLOPs for a minibatch of `batch` samples.
    pub fn flops_per_batch(&self, batch: u64) -> f64 {
        self.flops_per_sample * batch as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobSpec {
        JobSpec::new("test", 1_000_000, 2e6, 4096.0, 8192.0, 1.0, 100_000)
    }

    #[test]
    fn derived_quantities() {
        let j = job();
        assert_eq!(j.model_bytes(), 4e6);
        assert_eq!(j.gradient_bytes(), 4e6);
        assert_eq!(j.flops_per_batch(32), 64e6);
    }

    #[test]
    fn sparse_gradients_are_smaller() {
        let sparse = JobSpec::new("lr", 10_000_000, 1e5, 1024.0, 512.0, 0.01, 1_000_000);
        // 1% density * 8 bytes = 0.08 bytes/param vs 4 dense.
        assert!(sparse.gradient_bytes() < sparse.model_bytes() / 10.0);
        // Sparse pulls fetch the working set, not the dense model.
        assert!(sparse.pull_bytes() < sparse.model_bytes());
        assert!(sparse.pull_bytes() > sparse.gradient_bytes());
    }

    #[test]
    fn dense_pull_is_full_model() {
        assert_eq!(job().pull_bytes(), job().model_bytes());
    }

    #[test]
    #[should_panic(expected = "gradient density")]
    fn rejects_zero_density() {
        JobSpec::new("bad", 1, 1.0, 1.0, 1.0, 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "needs parameters")]
    fn rejects_zero_params() {
        JobSpec::new("bad", 0, 1.0, 1.0, 1.0, 1.0, 1);
    }
}
