//! Covariance kernels with ARD (per-dimension) lengthscales.
//!
//! All kernels are stationary and operate on points in the unit hypercube
//! produced by `mlconf-space` encodings. Hyperparameters are exposed in
//! log space (`[ln signal_variance, ln ℓ₁, …, ln ℓ_d]`) so the marginal-
//! likelihood optimizer can search an unconstrained box.

/// The kernel family.
///
/// Matérn 5/2 is the default for configuration tuning (CherryPick's
/// choice): it is rough enough to model performance cliffs yet smooth
/// enough for stable interpolation. The squared-exponential and Matérn 3/2
/// variants exist for the E5 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelFamily {
    /// Squared-exponential (RBF): infinitely smooth.
    SquaredExp,
    /// Matérn ν = 3/2: once differentiable.
    Matern32,
    /// Matérn ν = 5/2: twice differentiable.
    Matern52,
}

impl KernelFamily {
    /// All families, for ablation sweeps.
    pub fn all() -> [KernelFamily; 3] {
        [
            KernelFamily::SquaredExp,
            KernelFamily::Matern32,
            KernelFamily::Matern52,
        ]
    }

    /// Stable lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            KernelFamily::SquaredExp => "se",
            KernelFamily::Matern32 => "matern32",
            KernelFamily::Matern52 => "matern52",
        }
    }

    /// The polynomial factor of the radial profile `g(t) = p(t)·e^{c·t}`.
    #[inline]
    fn polynomial(self, t: f64) -> f64 {
        match self {
            KernelFamily::SquaredExp => 1.0,
            KernelFamily::Matern32 => 1.0 + t,
            KernelFamily::Matern52 => 1.0 + t + t * t / 3.0,
        }
    }

    /// The exponent's rate `c` of the radial profile `g(t) = p(t)·e^{c·t}`.
    #[inline]
    fn decay_rate(self) -> f64 {
        match self {
            KernelFamily::SquaredExp => -0.5,
            KernelFamily::Matern32 | KernelFamily::Matern52 => -1.0,
        }
    }
}

impl std::fmt::Display for KernelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A stationary ARD kernel: `k(a, b) = σ² · g(r)` where
/// `r² = Σ ((aᵢ−bᵢ)/ℓᵢ)²` and `g` depends on the family.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    family: KernelFamily,
    signal_variance: f64,
    lengthscales: Vec<f64>,
}

impl Kernel {
    /// Creates a kernel with unit signal variance and all lengthscales
    /// set to `0.5` (half the unit cube), a sensible default prior for
    /// encoded configuration spaces.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`.
    pub fn new(family: KernelFamily, dims: usize) -> Self {
        assert!(dims > 0, "kernel needs at least one dimension");
        Kernel {
            family,
            signal_variance: 1.0,
            lengthscales: vec![0.5; dims],
        }
    }

    /// Creates a kernel with explicit hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if `signal_variance <= 0`, `lengthscales` is empty, or any
    /// lengthscale is non-positive.
    pub fn with_params(family: KernelFamily, signal_variance: f64, lengthscales: Vec<f64>) -> Self {
        assert!(
            signal_variance > 0.0 && signal_variance.is_finite(),
            "signal variance must be positive, got {signal_variance}"
        );
        assert!(!lengthscales.is_empty(), "lengthscales must be non-empty");
        for &l in &lengthscales {
            assert!(
                l > 0.0 && l.is_finite(),
                "lengthscale must be positive, got {l}"
            );
        }
        Kernel {
            family,
            signal_variance,
            lengthscales,
        }
    }

    /// The kernel family.
    pub fn family(&self) -> KernelFamily {
        self.family
    }

    /// Input dimensionality.
    pub fn dims(&self) -> usize {
        self.lengthscales.len()
    }

    /// The signal variance σ².
    pub fn signal_variance(&self) -> f64 {
        self.signal_variance
    }

    /// Per-dimension lengthscales.
    pub fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    /// Evaluates `k(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` do not match the kernel's dimensionality.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        crate::ops::add_kernel_evals(1);
        self.eval_uncounted(a, b)
    }

    /// `eval` without touching the per-thread operation counter; batched
    /// call sites ([`Kernel::gram`], [`Kernel::cross_into`]) account for
    /// a whole batch with one counter bump instead.
    fn eval_uncounted(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), self.dims(), "kernel input dim mismatch");
        assert_eq!(b.len(), self.dims(), "kernel input dim mismatch");
        let mut r2 = 0.0;
        for ((&x, &y), &l) in a.iter().zip(b).zip(&self.lengthscales) {
            let d = (x - y) / l;
            r2 += d * d;
        }
        self.signal_variance * self.shape(r2)
    }

    /// The radial profile `g(r²)` with `g(0) = 1`.
    ///
    /// Crate-visible so [`crate::workspace::DistanceWorkspace`] can
    /// recombine cached squared distances without re-touching the inputs.
    pub(crate) fn shape(&self, r2: f64) -> f64 {
        let t = self.radial(r2);
        self.family.polynomial(t) * (self.family.decay_rate() * t).exp()
    }

    /// Overwrites each `r²` in `r2` with the covariance `σ² · g(r²)`,
    /// bit-identical to `signal_variance() * shape(r²)` entry by entry.
    /// Every step but `exp` runs as a slice pass the compiler vectorizes
    /// (the square root and the polynomial are correctly rounded either
    /// way); `exp` stays one scalar libm call per entry.
    pub(crate) fn covariances_from_r2(&self, r2: &mut [f64]) {
        let (family, rate) = (self.family, self.family.decay_rate());
        if family != KernelFamily::SquaredExp {
            for v in r2.iter_mut() {
                *v = self.radial(*v);
            }
        }
        let mut decay = [0.0f64; 64];
        for chunk in r2.chunks_mut(decay.len()) {
            let decay = &mut decay[..chunk.len()];
            for (e, &t) in decay.iter_mut().zip(&*chunk) {
                *e = (rate * t).exp();
            }
            for (v, &e) in chunk.iter_mut().zip(&*decay) {
                *v = self.signal_variance * (family.polynomial(*v) * e);
            }
        }
    }

    /// The profile's argument: `r²` itself for the squared exponential,
    /// `√(2ν)·r` for Matérn ν.
    #[inline]
    fn radial(&self, r2: f64) -> f64 {
        match self.family {
            KernelFamily::SquaredExp => r2,
            KernelFamily::Matern32 => 3.0f64.sqrt() * r2.sqrt(),
            KernelFamily::Matern52 => 5.0f64.sqrt() * r2.sqrt(),
        }
    }

    /// Number of hyperparameters (`1 + dims`).
    pub fn n_params(&self) -> usize {
        1 + self.dims()
    }

    /// Hyperparameters in log space: `[ln σ², ln ℓ₁, …, ln ℓ_d]`.
    pub fn log_params(&self) -> Vec<f64> {
        let mut p = Vec::with_capacity(self.n_params());
        p.push(self.signal_variance.ln());
        p.extend(self.lengthscales.iter().map(|l| l.ln()));
        p
    }

    /// Replaces the hyperparameters from a log-space vector.
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != self.n_params()` or any entry is non-finite.
    pub fn set_log_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.n_params(), "hyperparameter count mismatch");
        for &v in p {
            assert!(v.is_finite(), "non-finite log hyperparameter {v}");
        }
        self.signal_variance = p[0].exp();
        for (l, &lp) in self.lengthscales.iter_mut().zip(&p[1..]) {
            *l = lp.exp();
        }
    }

    /// Builds the Gram matrix `K(X, X)` for a set of rows.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from the kernel dimensionality.
    pub fn gram(&self, xs: &[Vec<f64>]) -> mlconf_util::matrix::Matrix {
        let n = xs.len();
        crate::ops::add_kernel_evals((n as u64 * (n as u64 + 1)) / 2);
        let mut k = mlconf_util::matrix::Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = self.eval_uncounted(&xs[i], &xs[j]);
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        k
    }

    /// Evaluates the cross-covariance vector `k(X, x*)`.
    pub fn cross(&self, xs: &[Vec<f64>], x_star: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; xs.len()];
        self.cross_into(xs, x_star, &mut out);
        out
    }

    /// Writes the cross-covariance vector `k(X, x*)` into `out`,
    /// avoiding a fresh allocation per posterior query.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != xs.len()`.
    pub fn cross_into(&self, xs: &[Vec<f64>], x_star: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), xs.len(), "cross_into output length mismatch");
        crate::ops::add_kernel_evals(xs.len() as u64);
        for (o, x) in out.iter_mut().zip(xs) {
            *o = self.eval_uncounted(x, x_star);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_is_signal_variance() {
        for fam in KernelFamily::all() {
            let k = Kernel::with_params(fam, 2.5, vec![0.3, 0.7]);
            let x = [0.2, 0.9];
            assert!((k.eval(&x, &x) - 2.5).abs() < 1e-12, "{fam}");
        }
    }

    #[test]
    fn symmetry() {
        for fam in KernelFamily::all() {
            let k = Kernel::new(fam, 3);
            let a = [0.1, 0.5, 0.9];
            let b = [0.7, 0.2, 0.3];
            assert_eq!(k.eval(&a, &b), k.eval(&b, &a));
        }
    }

    #[test]
    fn decay_with_distance() {
        for fam in KernelFamily::all() {
            let k = Kernel::new(fam, 1);
            let near = k.eval(&[0.0], &[0.1]);
            let far = k.eval(&[0.0], &[0.9]);
            assert!(near > far, "{fam}: {near} !> {far}");
            assert!(far > 0.0);
        }
    }

    #[test]
    fn smoothness_ordering_at_small_distance() {
        // Near r=0, SE decays slowest in curvature; Matérn 3/2 is the
        // roughest. At a moderate distance the rough kernels retain more
        // correlation in their tails — just pin an exact known value.
        let se = Kernel::new(KernelFamily::SquaredExp, 1);
        let r: f64 = 0.5;
        let want = (-0.5 * (r / 0.5f64).powi(2)).exp();
        assert!((se.eval(&[0.0], &[r]) - want).abs() < 1e-12);
    }

    #[test]
    fn matern_known_values() {
        // At t = sqrt(3)*r/l = 1: k = 2/e for Matérn 3/2.
        let k = Kernel::with_params(KernelFamily::Matern32, 1.0, vec![1.0]);
        let r = 1.0 / 3.0f64.sqrt();
        let want = 2.0 * (-1.0f64).exp();
        assert!((k.eval(&[0.0], &[r]) - want).abs() < 1e-12);
    }

    #[test]
    fn ard_lengthscales_weight_dimensions() {
        let k = Kernel::with_params(KernelFamily::Matern52, 1.0, vec![0.1, 10.0]);
        // Same offset along a short-lengthscale dim decays much more.
        let along_first = k.eval(&[0.0, 0.0], &[0.2, 0.0]);
        let along_second = k.eval(&[0.0, 0.0], &[0.0, 0.2]);
        assert!(along_first < along_second);
    }

    #[test]
    fn log_params_roundtrip() {
        let mut k = Kernel::with_params(KernelFamily::SquaredExp, 3.0, vec![0.2, 0.8]);
        let p = k.log_params();
        assert_eq!(p.len(), 3);
        let mut k2 = Kernel::new(KernelFamily::SquaredExp, 2);
        k2.set_log_params(&p);
        assert!((k2.signal_variance() - 3.0).abs() < 1e-12);
        assert!((k2.lengthscales()[0] - 0.2).abs() < 1e-12);
        k.set_log_params(&[0.0, 0.0, 0.0]);
        assert_eq!(k.signal_variance(), 1.0);
    }

    #[test]
    fn gram_is_symmetric_with_unit_diag_scaled() {
        let k = Kernel::new(KernelFamily::Matern52, 2);
        let xs = vec![vec![0.1, 0.2], vec![0.5, 0.5], vec![0.9, 0.1]];
        let g = k.gram(&xs);
        for i in 0..3 {
            assert!((g[(i, i)] - 1.0).abs() < 1e-12);
            for j in 0..3 {
                assert_eq!(g[(i, j)], g[(j, i)]);
            }
        }
    }

    #[test]
    fn cross_matches_eval() {
        let k = Kernel::new(KernelFamily::SquaredExp, 2);
        let xs = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let c = k.cross(&xs, &[0.5, 0.5]);
        assert_eq!(c[0], k.eval(&[0.0, 0.0], &[0.5, 0.5]));
        assert_eq!(c[1], k.eval(&[1.0, 1.0], &[0.5, 0.5]));
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn eval_rejects_wrong_dims() {
        Kernel::new(KernelFamily::SquaredExp, 2).eval(&[0.0], &[0.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn with_params_rejects_zero_lengthscale() {
        Kernel::with_params(KernelFamily::SquaredExp, 1.0, vec![0.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn kernel_bounded_by_signal_variance(
            a in proptest::collection::vec(0.0f64..=1.0, 3),
            b in proptest::collection::vec(0.0f64..=1.0, 3),
            sv in 0.1f64..10.0,
        ) {
            for fam in KernelFamily::all() {
                let k = Kernel::with_params(fam, sv, vec![0.5, 0.5, 0.5]);
                let v = k.eval(&a, &b);
                prop_assert!(v > 0.0 && v <= sv + 1e-12);
            }
        }

        #[test]
        fn gram_is_positive_semidefinite(
            pts in proptest::collection::vec(
                proptest::collection::vec(0.0f64..=1.0, 2), 1..8),
        ) {
            use mlconf_util::linalg::Cholesky;
            for fam in KernelFamily::all() {
                let k = Kernel::new(fam, 2);
                let mut g = k.gram(&pts);
                g.add_diagonal(1e-8); // numerical PSD margin
                prop_assert!(Cholesky::factor(&g).is_ok(), "{fam} gram not PSD");
            }
        }
    }
}
