//! Cached pairwise-distance workspace for hyperparameter search.
//!
//! The marginal-likelihood optimizer evaluates the kernel Gram matrix
//! hundreds of times over the *same* training inputs while only the ARD
//! hyperparameters change. For stationary ARD kernels the Gram entry is
//! `σ² · g(Σ_d (xᵢ[d]−xⱼ[d])² / ℓ_d²)`, so the per-dimension squared
//! differences can be computed once and recombined per candidate
//! lengthscale vector. Each likelihood evaluation's Gram assembly is then
//! a multiply–add sweep over a precomputed table instead of `O(n² d)`
//! input-touching work with a division per dimension.
//!
//! The table is laid out for the column-major packed factorization the
//! search runs ([`mlconf_util::linalg::PackedLower`]): column `j` of the
//! lower triangle is one segment, stored dimension-major, so a column's
//! `r²` values are vertical multiply–adds across rows.

use mlconf_util::linalg::PackedLower;
use mlconf_util::matrix::Matrix;

use crate::kernel::Kernel;

/// Precomputed per-dimension squared differences for a fixed training
/// set, shared by all Gram evaluations during hyperparameter search.
///
/// Storage is one segment per column `j` of the lower triangle (rows
/// `i = j..n`), dimension-major inside the segment: the squared
/// differences of every row in dimension `d` sit contiguously. A column's
/// `r²` is then `dims` vertical multiply–adds across its rows, and each
/// entry still sums its own terms for `d` ascending from `0.0`.
///
/// # Examples
///
/// ```
/// use mlconf_gp::kernel::{Kernel, KernelFamily};
/// use mlconf_gp::workspace::DistanceWorkspace;
///
/// let xs = vec![vec![0.1, 0.9], vec![0.4, 0.2], vec![0.8, 0.5]];
/// let ws = DistanceWorkspace::new(&xs);
/// let kernel = Kernel::new(KernelFamily::Matern52, 2);
/// let fast = ws.gram(&kernel);
/// let slow = kernel.gram(&xs);
/// assert!(fast.max_abs_diff(&slow) < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct DistanceWorkspace {
    n: usize,
    dims: usize,
    /// Column `j`'s segment starts at `dims · Σ_{c<j} (n − c)` and holds
    /// `(xs[i][d] − xs[j][d])²` at `d · (n − j) + (i − j)` for `i ≥ j`.
    sq: Vec<f64>,
}

impl DistanceWorkspace {
    /// Builds the workspace from training inputs.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or its rows have differing lengths.
    pub fn new(xs: &[Vec<f64>]) -> Self {
        assert!(
            !xs.is_empty(),
            "distance workspace needs at least one point"
        );
        let n = xs.len();
        let dims = xs[0].len();
        for xi in xs {
            assert_eq!(xi.len(), dims, "ragged training inputs");
        }
        let mut sq = Vec::with_capacity(n * (n + 1) / 2 * dims);
        for (j, xj) in xs.iter().enumerate() {
            for (d, &b) in xj.iter().enumerate() {
                for xi in &xs[j..] {
                    let diff = xi[d] - b;
                    sq.push(diff * diff);
                }
            }
        }
        DistanceWorkspace { n, dims, sq }
    }

    /// Number of training points covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: construction rejects empty input.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Input dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Assembles the Gram matrix `K(X, X)` for `kernel` from the cached
    /// differences.
    ///
    /// Numerically equivalent to [`Kernel::gram`] on the original inputs
    /// (the scaled distance is recombined as `Σ d²/ℓ²` instead of
    /// `Σ (d/ℓ)²`, so entries may differ at the last ulp).
    ///
    /// # Panics
    ///
    /// Panics if the kernel dimensionality differs from the workspace's.
    pub fn gram(&self, kernel: &Kernel) -> Matrix {
        let mut k = Matrix::zeros(self.n, self.n);
        self.gram_into(kernel, &mut k);
        k
    }

    /// Allocation-free variant of [`DistanceWorkspace::gram`] writing
    /// into a caller-owned `n × n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the kernel dimensionality differs from the workspace's
    /// or `out` is not `n × n`.
    pub fn gram_into(&self, kernel: &Kernel, out: &mut Matrix) {
        assert!(
            out.rows() == self.n && out.cols() == self.n,
            "gram_into output must be {n}x{n}",
            n = self.n
        );
        // Column j's rows j..n are row j's columns j..n: fill them in
        // place, then mirror below the diagonal.
        self.with_weights(kernel, |inv_l2| {
            for j in 0..self.n {
                self.column_into(kernel, inv_l2, j, &mut out.row_mut(j)[j..]);
            }
        });
        for j in 0..self.n {
            for i in j + 1..self.n {
                out[(i, j)] = out[(j, i)];
            }
        }
    }

    /// Writes `K(X, X)`'s lower triangle into the first `n − j` rows of
    /// each column `j` of `out` (border rows are left alone), ready for
    /// [`PackedLower::factor`].
    ///
    /// # Panics
    ///
    /// Panics if the kernel dimensionality differs from the workspace's
    /// or `out.dim()` is not `n`.
    pub fn gram_packed(&self, kernel: &Kernel, out: &mut PackedLower) {
        assert_eq!(
            out.dim(),
            self.n,
            "gram_packed output must have dim {}",
            self.n
        );
        self.with_weights(kernel, |inv_l2| {
            for j in 0..self.n {
                self.column_into(kernel, inv_l2, j, &mut out.column_mut(j)[..self.n - j]);
            }
        });
    }

    /// Runs `f` with `kernel`'s inverse squared lengthscales and counts
    /// the `n(n+1)/2` kernel evaluations of one Gram assembly.
    fn with_weights<R>(&self, kernel: &Kernel, f: impl FnOnce(&[f64]) -> R) -> R {
        assert_eq!(
            kernel.dims(),
            self.dims,
            "kernel dimensionality does not match workspace"
        );
        crate::ops::add_kernel_evals((self.n as u64 * (self.n as u64 + 1)) / 2);
        // On the stack for the usual small dimensionalities so an
        // evaluation allocates nothing.
        let mut stack = [0.0f64; 16];
        let mut heap = Vec::new();
        let inv_l2: &mut [f64] = if self.dims <= stack.len() {
            &mut stack[..self.dims]
        } else {
            heap.resize(self.dims, 0.0);
            &mut heap
        };
        for (w, l) in inv_l2.iter_mut().zip(kernel.lengthscales()) {
            *w = 1.0 / (l * l);
        }
        f(inv_l2)
    }

    /// Column `j`'s covariances `K[i][j]` for rows `i = j..n` into `out`.
    fn column_into(&self, kernel: &Kernel, inv_l2: &[f64], j: usize, out: &mut [f64]) {
        let rows = self.n - j;
        let start = self.dims * (j * self.n - j * j.saturating_sub(1) / 2);
        let table = &self.sq[start..start + rows * self.dims];
        // r² eight rows at a time, in registers: lanes are rows, so each
        // entry still adds its own terms for d ascending from 0.0.
        let mut r = 0;
        while r + 8 <= rows {
            let mut acc = [0.0f64; 8];
            for (&w, sq_d) in inv_l2.iter().zip(table.chunks_exact(rows)) {
                for (a, &x) in acc.iter_mut().zip(&sq_d[r..r + 8]) {
                    *a += x * w;
                }
            }
            out[r..r + 8].copy_from_slice(&acc);
            r += 8;
        }
        for (i, o) in out.iter_mut().enumerate().skip(r) {
            let mut acc = 0.0;
            for (&w, sq_d) in inv_l2.iter().zip(table.chunks_exact(rows)) {
                acc += sq_d[i] * w;
            }
            *o = acc;
        }
        kernel.covariances_from_r2(out);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernel::KernelFamily;

    /// `n` points on a coarse grid; rows repeat every 17 points.
    pub(crate) fn grid(n: usize, dims: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..dims)
                    .map(|d| ((i * (d + 3) + d) % 17) as f64 / 16.0)
                    .collect()
            })
            .collect()
    }

    /// The pair-at-a-time recombination loop over the raw inputs: the
    /// oracle both Gram layouts must match bit for bit.
    pub(crate) fn gram_pairwise(xs: &[Vec<f64>], kernel: &Kernel) -> Matrix {
        let inv_l2: Vec<f64> = kernel
            .lengthscales()
            .iter()
            .map(|l| 1.0 / (l * l))
            .collect();
        let n = xs.len();
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut r2 = 0.0;
                for ((&a, &b), &w) in xs[i].iter().zip(&xs[j]).zip(&inv_l2) {
                    let d = a - b;
                    r2 += d * d * w;
                }
                let v = kernel.signal_variance() * kernel.shape(r2);
                out[(i, j)] = v;
                out[(j, i)] = v;
            }
        }
        out
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn column_gram_is_bit_identical_to_pairwise() {
        // Columns of every length from 1 to 41 (so every SIMD remainder),
        // all kernel families, and dims = 20 for the heap weights.
        for dims in [1, 3, 9, 20] {
            for n in (1..=9).chain([41]) {
                let xs = grid(n, dims);
                let ws = DistanceWorkspace::new(&xs);
                for fam in KernelFamily::all() {
                    let mut kernel = Kernel::new(fam, dims);
                    let log_params: Vec<f64> = (0..=dims).map(|p| 0.3 - 0.45 * p as f64).collect();
                    kernel.set_log_params(&log_params);
                    let oracle = gram_pairwise(&xs, &kernel);
                    let mut fast = Matrix::zeros(n, n);
                    fast[(0, 0)] = f64::NAN; // every entry must be overwritten
                    ws.gram_into(&kernel, &mut fast);
                    assert!(
                        same_bits(fast.as_slice(), oracle.as_slice()),
                        "{fam}, n = {n}, dims = {dims}"
                    );
                    let mut packed = PackedLower::default();
                    packed.reset(n, 1);
                    ws.gram_packed(&kernel, &mut packed);
                    for j in 0..n {
                        let want: Vec<f64> = (j..n).map(|i| oracle[(i, j)]).collect();
                        assert!(
                            same_bits(&packed.column(j)[..n - j], &want),
                            "{fam}, n = {n}, dims = {dims}, column {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matches_direct_gram_for_all_families() {
        let xs = grid(12, 3);
        let ws = DistanceWorkspace::new(&xs);
        for fam in KernelFamily::all() {
            let mut kernel = Kernel::new(fam, 3);
            kernel.set_log_params(&[0.4, -0.7, 0.2, -1.3]);
            let fast = ws.gram(&kernel);
            let slow = kernel.gram(&xs);
            assert!(
                fast.max_abs_diff(&slow) < 1e-12,
                "{fam}: {}",
                fast.max_abs_diff(&slow)
            );
        }
    }

    #[test]
    fn recombines_for_changing_lengthscales() {
        // The point of the cache: one workspace, many hyperparameter
        // settings.
        let xs = grid(8, 2);
        let ws = DistanceWorkspace::new(&xs);
        for ls in [0.1, 0.5, 2.0] {
            let kernel = Kernel::with_params(KernelFamily::SquaredExp, 1.7, vec![ls, ls * 2.0]);
            assert!(ws.gram(&kernel).max_abs_diff(&kernel.gram(&xs)) < 1e-12);
        }
    }

    #[test]
    fn reports_shape() {
        let ws = DistanceWorkspace::new(&grid(5, 4));
        assert_eq!(ws.len(), 5);
        assert_eq!(ws.dims(), 4);
        assert!(!ws.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match workspace")]
    fn rejects_mismatched_kernel() {
        let ws = DistanceWorkspace::new(&grid(4, 2));
        ws.gram(&Kernel::new(KernelFamily::Matern52, 3));
    }
}
