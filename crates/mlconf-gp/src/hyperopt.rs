//! Kernel hyperparameter selection by maximizing the GP marginal
//! likelihood with multi-start Nelder–Mead over log-space parameters.
//!
//! Three things make this path fast. Each likelihood evaluation reuses
//! a [`DistanceWorkspace`] built once per training set, so changing ARD
//! lengthscales only recombines cached squared differences instead of
//! re-touching every input pair. Each evaluation is one allocation-free
//! pass over packed column storage ([`PackedLower`], one per worker
//! thread): the Gram columns are written straight into it with the
//! standardized targets as a border row, one in-place factorization
//! yields `L` and `L⁻¹y`, and a back-solve over contiguous columns gives
//! `α` — bit-identical to fitting a [`GaussianProcess`] per candidate
//! (see `neg_log_marginal_likelihood`). And the independent restarts
//! are *claimed* dynamically by scoped worker threads
//! ([`multi_start_nelder_mead_parallel`]) with seed-stable start points
//! and start-order folding, so no thread is stranded with all the
//! expensive restarts and results are bit-identical to sequential
//! execution for any thread count.

use std::cell::RefCell;

use mlconf_util::linalg::{jitter_shifts, PackedLower};
use mlconf_util::optim::{auto_threads, multi_start_nelder_mead_parallel, NelderMeadOptions};
use rand::Rng;

use crate::gp::{GaussianProcess, GpError};
use crate::kernel::Kernel;
use crate::workspace::DistanceWorkspace;

/// Options for marginal-likelihood optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperoptOptions {
    /// Number of random restarts.
    pub restarts: usize,
    /// Max objective evaluations per restart.
    pub max_evals_per_restart: usize,
    /// Bounds for `ln ℓ` (lengthscales).
    pub log_lengthscale_bounds: (f64, f64),
    /// Bounds for `ln σ²` (signal variance).
    pub log_signal_bounds: (f64, f64),
    /// Bounds for `ln σₙ²` (noise variance), which is optimized jointly.
    pub log_noise_bounds: (f64, f64),
    /// Worker threads for the restarts: `0` selects the machine's
    /// available parallelism, `1` forces sequential execution. The fitted
    /// hyperparameters are bit-identical for any setting.
    pub threads: usize,
}

impl Default for HyperoptOptions {
    fn default() -> Self {
        HyperoptOptions {
            restarts: 4,
            max_evals_per_restart: 150,
            // Lengthscales between 0.01 and 10 unit-cube widths.
            log_lengthscale_bounds: ((0.01f64).ln(), (10.0f64).ln()),
            log_signal_bounds: ((0.05f64).ln(), (50.0f64).ln()),
            log_noise_bounds: ((1e-6f64).ln(), (1.0f64).ln()),
            threads: 0,
        }
    }
}

/// Fits a GP with hyperparameters chosen by maximizing the log marginal
/// likelihood (kernel lengthscales, signal variance, and observation
/// noise jointly).
///
/// `template` supplies the kernel family and dimensionality. Every
/// restart starts from a random point drawn from `rng`; the template's
/// own hyperparameters (at noise `1e-4`) only give the fallback fit,
/// returned when no searched setting reaches a higher marginal
/// likelihood.
///
/// # Errors
///
/// Returns an error if no hyperparameter setting admits a successful fit
/// (pathological data such as empty input).
pub fn fit_optimized<R: Rng + ?Sized>(
    template: &Kernel,
    x: &[Vec<f64>],
    y: &[f64],
    opts: &HyperoptOptions,
    rng: &mut R,
) -> Result<GaussianProcess, GpError> {
    // Early validation with a cheap direct fit at the template settings;
    // this also serves as the fallback result.
    let fallback = GaussianProcess::fit(template.clone(), x.to_vec(), y.to_vec(), 1e-4)?;
    if x.len() < 3 {
        // Too little data to say anything about hyperparameters.
        return Ok(fallback);
    }

    let n_kernel_params = template.n_params();
    let mut bounds = Vec::with_capacity(n_kernel_params + 1);
    bounds.push(opts.log_signal_bounds);
    for _ in 0..template.dims() {
        bounds.push(opts.log_lengthscale_bounds);
    }
    bounds.push(opts.log_noise_bounds);

    let family = template.family();
    let dims = template.dims();
    // Pairwise distances and standardized targets are invariant across
    // hyperparameter candidates: compute both once, outside the search.
    let workspace = DistanceWorkspace::new(x);
    let (_, _, y_z) = crate::gp::standardize(y);
    let objective = move |p: &[f64]| -> f64 {
        // One packed factor and solution buffer per worker thread, reused
        // across every likelihood evaluation that thread performs.
        thread_local! {
            static SCRATCH: RefCell<(PackedLower, Vec<f64>)> = RefCell::default();
        }
        let mut kernel = Kernel::new(family, dims);
        kernel.set_log_params(&p[..n_kernel_params]);
        let noise = p[n_kernel_params].exp();
        SCRATCH.with(|scratch| {
            let (packed, alpha) = &mut *scratch.borrow_mut();
            neg_log_marginal_likelihood(&workspace, &kernel, noise, &y_z, packed, alpha)
        })
    };

    let nm = NelderMeadOptions {
        max_evals: opts.max_evals_per_restart,
        ..Default::default()
    };
    let threads = if opts.threads == 0 {
        auto_threads()
    } else {
        opts.threads
    };
    let result = multi_start_nelder_mead_parallel(
        &objective,
        &bounds,
        opts.restarts.max(1),
        &nm,
        rng,
        threads,
    );

    if !result.fx.is_finite() {
        return Ok(fallback);
    }
    let mut kernel = Kernel::new(family, dims);
    kernel.set_log_params(&result.x[..n_kernel_params]);
    let noise = result.x[n_kernel_params].exp();
    let optimized = GaussianProcess::fit(kernel, x.to_vec(), y.to_vec(), noise)?;
    if optimized.log_marginal_likelihood() >= fallback.log_marginal_likelihood() {
        Ok(optimized)
    } else {
        Ok(fallback)
    }
}

/// `−log p(y | X, θ)` for one hyperparameter candidate: the quantity
/// the search minimizes, bit-identical to fitting a [`GaussianProcess`]
/// with `kernel` and `noise` and negating its log marginal likelihood.
///
/// The Gram matrix is assembled straight into packed column storage with
/// `y_z` as a border row, so one in-place [`PackedLower::factor`] yields
/// both `L` and `L⁻¹y_z`; a back-solve over contiguous columns gives `α`.
/// Nothing is allocated once `packed` and `alpha` have grown to `n`.
/// The jitter schedule is [`Cholesky::factor_with_jitter`]'s: a failed
/// attempt refills the Gram (the factorization overwrote it) and adds
/// the next shift. Returns `+∞` when every attempt fails.
///
/// [`Cholesky::factor_with_jitter`]: mlconf_util::linalg::Cholesky::factor_with_jitter
fn neg_log_marginal_likelihood(
    workspace: &DistanceWorkspace,
    kernel: &Kernel,
    noise: f64,
    y_z: &[f64],
    packed: &mut PackedLower,
    alpha: &mut Vec<f64>,
) -> f64 {
    let n = workspace.len();
    packed.reset(n, 1);
    for shift in jitter_shifts(0.0, crate::gp::JITTER_TRIES) {
        workspace.gram_packed(kernel, packed);
        for (j, &y) in y_z.iter().enumerate() {
            let col = packed.column_mut(j);
            col[0] += noise.max(1e-10);
            if let Some(s) = shift {
                col[0] += s;
            }
            col[n - j] = y;
        }
        if packed.factor().is_ok() {
            alpha.clear();
            alpha.extend((0..n).map(|j| packed.column(j)[n - j]));
            packed.solve_upper(alpha);
            // Negated: the optimizer minimizes.
            return -crate::gp::lml_from_parts(y_z, alpha, packed.log_det());
        }
    }
    f64::INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelFamily;
    use mlconf_util::rng::Pcg64;

    fn smooth_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).sin() * 10.0 + 5.0).collect();
        (xs, ys)
    }

    /// The objective as it was computed before the packed kernel: a full
    /// row-major Gram from the pairwise oracle, `factor_with_jitter`, then
    /// `solve_vec`. Returns the value and the jitter that succeeded.
    fn neg_lml_unfused(xs: &[Vec<f64>], kernel: &Kernel, noise: f64, y_z: &[f64]) -> (f64, f64) {
        let mut k = crate::workspace::tests::gram_pairwise(xs, kernel);
        k.add_diagonal(noise.max(1e-10));
        match mlconf_util::linalg::Cholesky::factor_with_jitter(&k, 0.0, crate::gp::JITTER_TRIES) {
            Ok((chol, jitter)) => {
                let alpha = chol.solve_vec(y_z);
                (
                    -crate::gp::lml_from_parts(y_z, &alpha, chol.log_det()),
                    jitter,
                )
            }
            Err(_) => (f64::INFINITY, f64::NAN),
        }
    }

    /// The packed objective on fresh inputs, through the same per-thread
    /// scratch shapes `fit_optimized` uses.
    fn neg_lml_packed(xs: &[Vec<f64>], kernel: &Kernel, noise: f64, y_z: &[f64]) -> f64 {
        let ws = DistanceWorkspace::new(xs);
        neg_log_marginal_likelihood(
            &ws,
            kernel,
            noise,
            y_z,
            &mut PackedLower::default(),
            &mut Vec::new(),
        )
    }

    fn targets(n: usize) -> Vec<f64> {
        let y: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.7).sin() * 3.0 + i as f64 * 0.01)
            .collect();
        crate::gp::standardize(&y).2
    }

    #[test]
    fn objective_is_bit_identical_to_unfused_path() {
        for dims in [1, 3, 9, 20] {
            for n in [1, 2, 3, 5, 16, 17, 33, 40] {
                let xs = crate::workspace::tests::grid(n, dims);
                let y_z = targets(n);
                for fam in KernelFamily::all() {
                    for (step, log_noise) in [(0.0, -3.0), (-0.45, -9.0), (0.3, -1.0)] {
                        let mut kernel = Kernel::new(fam, dims);
                        let p: Vec<f64> = (0..=dims).map(|i| 0.2 + step * i as f64).collect();
                        kernel.set_log_params(&p);
                        let noise = f64::exp(log_noise);
                        let got = neg_lml_packed(&xs, &kernel, noise, &y_z);
                        let (want, _) = neg_lml_unfused(&xs, &kernel, noise, &y_z);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{fam}, n = {n}, dims = {dims}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forced_jitter_retry_matches_unfused_path() {
        // 40 grid points hold 17 distinct rows, so the Gram is singular;
        // at the 1e-10 noise floor with a large signal variance, rounding
        // sinks a pivot below zero and the schedule must climb.
        let xs = crate::workspace::tests::grid(40, 3);
        let y_z = targets(40);
        let kernel = Kernel::with_params(KernelFamily::SquaredExp, 1e8, vec![3.0; 3]);
        let (want, jitter) = neg_lml_unfused(&xs, &kernel, 1e-12, &y_z);
        assert!(jitter > 0.0, "no retry was forced (jitter {jitter})");
        assert!(want.is_finite());
        let got = neg_lml_packed(&xs, &kernel, 1e-12, &y_z);
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn every_attempt_failing_gives_infinity() {
        // An infinite noise variance leaves every pivot non-finite at
        // every jitter level.
        let xs = crate::workspace::tests::grid(6, 2);
        let y_z = targets(6);
        let kernel = Kernel::new(KernelFamily::Matern52, 2);
        assert_eq!(
            neg_lml_unfused(&xs, &kernel, f64::INFINITY, &y_z).0,
            f64::INFINITY
        );
        assert_eq!(
            neg_lml_packed(&xs, &kernel, f64::INFINITY, &y_z),
            f64::INFINITY
        );
    }

    #[test]
    fn one_evaluation_counts_one_gram_of_kernel_evals() {
        // `gp.kernel_evals` and the sparse path's O(n·m) bound read this
        // counter: one likelihood evaluation is n(n+1)/2 kernel values.
        let n = 23;
        let xs = crate::workspace::tests::grid(n, 4);
        let ws = DistanceWorkspace::new(&xs);
        let y_z = targets(n);
        let kernel = Kernel::new(KernelFamily::Matern32, 4);
        let (mut packed, mut alpha) = (PackedLower::default(), Vec::new());
        crate::ops::reset_kernel_evals();
        let v = neg_log_marginal_likelihood(&ws, &kernel, 1e-3, &y_z, &mut packed, &mut alpha);
        assert!(v.is_finite());
        assert_eq!(crate::ops::kernel_evals(), (n * (n + 1) / 2) as u64);
    }

    proptest::proptest! {
        #[test]
        fn objective_matches_unfused_path_for_random_candidates(
            n in 3usize..=24,
            fam in 0usize..3,
            raw in proptest::collection::vec(0.0f64..1.0, 72),
            p in proptest::collection::vec(-4.0f64..2.5, 5),
        ) {
            let xs: Vec<Vec<f64>> = raw.chunks(3).take(n).map(<[f64]>::to_vec).collect();
            let y_z = targets(n);
            let mut kernel = Kernel::new(KernelFamily::all()[fam], 3);
            kernel.set_log_params(&p[..4]);
            let noise = (p[4] * 3.0).exp();
            let got = neg_lml_packed(&xs, &kernel, noise, &y_z);
            let (want, _) = neg_lml_unfused(&xs, &kernel, noise, &y_z);
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn optimized_beats_or_matches_default() {
        let (xs, ys) = smooth_data(16);
        let template = Kernel::new(KernelFamily::Matern52, 1);
        let default = GaussianProcess::fit(template.clone(), xs.clone(), ys.clone(), 1e-4).unwrap();
        let mut rng = Pcg64::seed(1);
        let opt =
            fit_optimized(&template, &xs, &ys, &HyperoptOptions::default(), &mut rng).unwrap();
        assert!(
            opt.log_marginal_likelihood() >= default.log_marginal_likelihood() - 1e-9,
            "{} < {}",
            opt.log_marginal_likelihood(),
            default.log_marginal_likelihood()
        );
    }

    #[test]
    fn tiny_datasets_use_fallback() {
        let xs = vec![vec![0.1], vec![0.9]];
        let ys = vec![1.0, 2.0];
        let mut rng = Pcg64::seed(2);
        let gp = fit_optimized(
            &Kernel::new(KernelFamily::SquaredExp, 1),
            &xs,
            &ys,
            &HyperoptOptions::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(gp.n_train(), 2);
    }

    #[test]
    fn empty_data_errors() {
        let mut rng = Pcg64::seed(3);
        assert!(fit_optimized(
            &Kernel::new(KernelFamily::SquaredExp, 1),
            &[],
            &[],
            &HyperoptOptions::default(),
            &mut rng,
        )
        .is_err());
    }

    #[test]
    fn noisy_data_learns_nonzero_noise() {
        // Pure noise: the best explanation is a large noise term, which
        // should produce near-prior predictive variance everywhere.
        let mut rng = Pcg64::seed(4);
        use rand::Rng;
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let ys: Vec<f64> = (0..30).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let gp = fit_optimized(
            &Kernel::new(KernelFamily::Matern52, 1),
            &xs,
            &ys,
            &HyperoptOptions::default(),
            &mut rng,
        )
        .unwrap();
        // Posterior mean should stay near the data mean rather than
        // oscillate to chase noise; check a few points are within one
        // data std.
        let data_std = {
            let m = ys.iter().sum::<f64>() / 30.0;
            (ys.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / 30.0).sqrt()
        };
        let p = gp.predict(&[0.516]);
        assert!(p.mean.abs() < 2.0 * data_std);
    }

    #[test]
    fn parallel_hyperopt_bit_identical_to_sequential() {
        // Seed-stability across thread counts at the golden seeds
        // {11, 22, 33}: the fitted hyperparameters (and hence the whole
        // surrogate) must not depend on parallelism or on the dynamic
        // restart scheduling. The *speedup* of the parallel path is
        // bench-gated (BENCH_gp.json), not test-gated; this test pins
        // only correctness.
        let (xs, ys) = smooth_data(14);
        let template = Kernel::new(KernelFamily::Matern52, 1);
        for seed in [11u64, 22, 33] {
            let sequential = fit_optimized(
                &template,
                &xs,
                &ys,
                &HyperoptOptions {
                    threads: 1,
                    ..HyperoptOptions::default()
                },
                &mut Pcg64::seed(seed),
            )
            .unwrap();
            for threads in [2, 3, 4, 0] {
                let parallel = fit_optimized(
                    &template,
                    &xs,
                    &ys,
                    &HyperoptOptions {
                        threads,
                        ..HyperoptOptions::default()
                    },
                    &mut Pcg64::seed(seed),
                )
                .unwrap();
                let a = sequential.kernel().log_params();
                let b = parallel.kernel().log_params();
                let a_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a_bits, b_bits, "seed={seed} threads={threads}");
                assert_eq!(
                    sequential.log_marginal_likelihood().to_bits(),
                    parallel.log_marginal_likelihood().to_bits(),
                    "seed={seed} threads={threads}"
                );
                assert_eq!(
                    sequential.noise_variance().to_bits(),
                    parallel.noise_variance().to_bits(),
                    "seed={seed} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (xs, ys) = smooth_data(10);
        let template = Kernel::new(KernelFamily::Matern32, 1);
        let a = fit_optimized(
            &template,
            &xs,
            &ys,
            &HyperoptOptions::default(),
            &mut Pcg64::seed(7),
        )
        .unwrap();
        let b = fit_optimized(
            &template,
            &xs,
            &ys,
            &HyperoptOptions::default(),
            &mut Pcg64::seed(7),
        )
        .unwrap();
        assert_eq!(
            a.kernel().log_params(),
            b.kernel().log_params(),
            "hyperopt must be deterministic for a fixed seed"
        );
    }
}
