//! Statistical-efficiency model: how many epochs a job needs to reach its
//! target quality as a function of the *system* configuration.
//!
//! Two well-documented effects connect system knobs to convergence:
//!
//! - **Critical batch size** — steps-to-target follows
//!   `S(B) = S_min · (1 + B_crit / B)`, so epochs-to-target
//!   `E(B) = S(B) · B / N` grow linearly in `B` once `B ≫ B_crit`
//!   (diminishing returns of large batches).
//! - **Staleness penalty** — asynchronous and stale-synchronous execution
//!   applies gradients computed on old models; to first order each step of
//!   average staleness inflates epochs by a constant factor.
//!
//! Together with the simulator's throughput these yield time-to-accuracy,
//! the objective the tuner minimizes.

use mlconf_util::dist::LogNormal;
use rand::Rng;

/// Convergence parameters of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceModel {
    /// Asymptotic number of optimization steps to target at infinite
    /// batch size.
    pub min_steps: f64,
    /// Critical batch size: below it, bigger batches are nearly free;
    /// above it, they buy little.
    pub critical_batch: f64,
    /// Multiplicative epoch inflation per step of average gradient
    /// staleness.
    pub staleness_penalty: f64,
    /// Coefficient of variation of run-to-run noise on epochs-to-target.
    pub noise_cv: f64,
}

impl ConvergenceModel {
    /// Creates a model, validating parameters.
    ///
    /// # Panics
    ///
    /// Panics if `min_steps` or `critical_batch` are non-positive, or the
    /// penalty/noise terms are negative.
    pub fn new(min_steps: f64, critical_batch: f64, staleness_penalty: f64, noise_cv: f64) -> Self {
        assert!(min_steps > 0.0, "min_steps must be positive");
        assert!(critical_batch > 0.0, "critical_batch must be positive");
        assert!(staleness_penalty >= 0.0, "staleness_penalty negative");
        assert!(noise_cv >= 0.0, "noise_cv negative");
        ConvergenceModel {
            min_steps,
            critical_batch,
            staleness_penalty,
            noise_cv,
        }
    }

    /// Expected optimization steps to reach target at global batch `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn steps_to_target(&self, b: u64) -> f64 {
        assert!(b > 0, "zero batch");
        self.min_steps * (1.0 + self.critical_batch / b as f64)
    }

    /// Expected training samples to reach target at global batch `b` and
    /// mean staleness `staleness_steps`.
    pub fn samples_to_target(&self, b: u64, staleness_steps: f64) -> f64 {
        assert!(staleness_steps >= 0.0, "negative staleness");
        let penalty = 1.0 + self.staleness_penalty * staleness_steps;
        self.steps_to_target(b) * b as f64 * penalty
    }

    /// Expected epochs to target for a dataset of `dataset_samples`.
    pub fn epochs_to_target(&self, b: u64, staleness_steps: f64, dataset_samples: u64) -> f64 {
        assert!(dataset_samples > 0, "empty dataset");
        self.samples_to_target(b, staleness_steps) / dataset_samples as f64
    }

    /// Draws a noisy epochs-to-target observation (deterministic when
    /// `noise_cv == 0`).
    pub fn sample_epochs<R: Rng + ?Sized>(
        &self,
        b: u64,
        staleness_steps: f64,
        dataset_samples: u64,
        rng: &mut R,
    ) -> f64 {
        let mean = self.epochs_to_target(b, staleness_steps, dataset_samples);
        if self.noise_cv == 0.0 {
            mean
        } else {
            mean * LogNormal::unit_mean(self.noise_cv)
                .expect("validated cv")
                .sample(rng)
        }
    }

    /// Generates a synthetic learning curve — loss after each epoch — of
    /// the canonical power-law form `floor + (init − floor)·(1 + t/τ)^(−α)`,
    /// scaled so the target loss is hit at `epochs_to_target`. Useful for
    /// plotting and for partial-training tuners (successive halving).
    pub fn learning_curve(
        &self,
        b: u64,
        staleness_steps: f64,
        dataset_samples: u64,
        epochs: usize,
    ) -> Vec<f64> {
        const INIT_LOSS: f64 = 1.0;
        const FLOOR: f64 = 0.05;
        const TARGET: f64 = 0.10;
        const ALPHA: f64 = 1.4;
        let e_target = self.epochs_to_target(b, staleness_steps, dataset_samples);
        // Solve for tau so the curve crosses TARGET at e_target.
        let ratio = ((INIT_LOSS - FLOOR) / (TARGET - FLOOR)).powf(1.0 / ALPHA);
        let tau = e_target / (ratio - 1.0);
        (1..=epochs)
            .map(|t| FLOOR + (INIT_LOSS - FLOOR) * (1.0 + t as f64 / tau).powf(-ALPHA))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlconf_util::rng::Pcg64;

    fn model() -> ConvergenceModel {
        ConvergenceModel::new(2000.0, 512.0, 0.15, 0.0)
    }

    #[test]
    fn steps_shrink_with_batch_but_saturate() {
        let m = model();
        let s32 = m.steps_to_target(32);
        let s512 = m.steps_to_target(512);
        let s8192 = m.steps_to_target(8192);
        assert!(s32 > s512 && s512 > s8192);
        // Saturation: below min_steps never.
        assert!(s8192 >= m.min_steps);
        assert!(s8192 < m.min_steps * 1.1);
        // At the critical batch exactly 2x the asymptote.
        assert_eq!(m.steps_to_target(512), 2.0 * m.min_steps);
    }

    #[test]
    fn samples_grow_with_batch_beyond_critical() {
        let m = model();
        // In the large-batch regime, samples-to-target grows ~linearly.
        let s1 = m.samples_to_target(2048, 0.0);
        let s2 = m.samples_to_target(8192, 0.0);
        assert!(s2 > s1 * 2.0, "large batches must cost samples");
        // In the small-batch regime, nearly flat.
        let t1 = m.samples_to_target(16, 0.0);
        let t2 = m.samples_to_target(64, 0.0);
        assert!(t2 < t1 * 1.4);
    }

    #[test]
    fn staleness_inflates_epochs() {
        let m = model();
        let fresh = m.epochs_to_target(512, 0.0, 1_000_000);
        let stale = m.epochs_to_target(512, 2.0, 1_000_000);
        assert!((stale / fresh - 1.3).abs() < 1e-9, "2 steps × 0.15 = 30%");
    }

    #[test]
    fn noise_free_sampling_is_exact() {
        let m = model();
        let mut rng = Pcg64::seed(1);
        assert_eq!(
            m.sample_epochs(512, 0.0, 1_000_000, &mut rng),
            m.epochs_to_target(512, 0.0, 1_000_000)
        );
    }

    #[test]
    fn noisy_sampling_centers_on_mean() {
        let m = ConvergenceModel::new(2000.0, 512.0, 0.15, 0.2);
        let mut rng = Pcg64::seed(2);
        let mean = m.epochs_to_target(512, 0.0, 1_000_000);
        let avg: f64 = (0..20_000)
            .map(|_| m.sample_epochs(512, 0.0, 1_000_000, &mut rng))
            .sum::<f64>()
            / 20_000.0;
        assert!((avg / mean - 1.0).abs() < 0.02, "avg {avg} mean {mean}");
    }

    #[test]
    fn learning_curve_monotone_and_crosses_target() {
        let m = model();
        let e_target = m.epochs_to_target(512, 0.0, 1_000_000).ceil() as usize;
        let curve = m.learning_curve(512, 0.0, 1_000_000, e_target + 10);
        // Monotone decreasing.
        for w in curve.windows(2) {
            assert!(w[1] < w[0]);
        }
        // Crosses 0.10 within one epoch of the predicted target.
        let crossing = curve.iter().position(|&l| l <= 0.10).unwrap();
        assert!(
            (crossing as f64 + 1.0 - e_target as f64).abs() <= 1.5,
            "crossed at {} want ~{e_target}",
            crossing + 1
        );
    }

    #[test]
    #[should_panic(expected = "zero batch")]
    fn rejects_zero_batch() {
        model().steps_to_target(0);
    }

    #[test]
    #[should_panic(expected = "min_steps")]
    fn rejects_bad_params() {
        ConvergenceModel::new(0.0, 1.0, 0.0, 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn epochs_positive_and_monotone_in_staleness(
            b in 1u64..100_000,
            s1 in 0.0f64..10.0,
            extra in 0.0f64..10.0,
        ) {
            let m = ConvergenceModel::new(1000.0, 256.0, 0.1, 0.0);
            let e1 = m.epochs_to_target(b, s1, 1_000_000);
            let e2 = m.epochs_to_target(b, s1 + extra, 1_000_000);
            prop_assert!(e1 > 0.0);
            prop_assert!(e2 >= e1);
        }

        #[test]
        fn steps_monotone_decreasing_in_batch(b in 1u64..1_000_000) {
            let m = ConvergenceModel::new(1000.0, 256.0, 0.1, 0.0);
            prop_assert!(m.steps_to_target(b) >= m.steps_to_target(b + 1));
        }
    }
}
