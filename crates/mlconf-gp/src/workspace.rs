//! Cached pairwise-distance workspace for hyperparameter search.
//!
//! The marginal-likelihood optimizer evaluates the kernel Gram matrix
//! hundreds of times over the *same* training inputs while only the ARD
//! hyperparameters change. For stationary ARD kernels the Gram entry is
//! `σ² · g(Σ_d (xᵢ[d]−xⱼ[d])² / ℓ_d²)`, so the per-dimension squared
//! differences can be computed once and recombined per candidate
//! lengthscale vector. That turns each likelihood evaluation's Gram
//! assembly from `O(n² d)` input-touching work (with a division per
//! dimension) into a cache-friendly multiply–add sweep over a
//! precomputed table.

use mlconf_util::matrix::Matrix;

use crate::kernel::Kernel;

/// Precomputed per-dimension squared differences for a fixed training
/// set, shared by all Gram evaluations during hyperparameter search.
///
/// Storage is pair-major over the lower triangle: the `dims` squared
/// differences of a pair sit contiguously, so the recombination loop for
/// one Gram entry is a single contiguous dot product with the inverse
/// squared lengthscales.
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
    /// `sq[(i(i+1)/2 + j) * dims + d] = (xs[i][d] - xs[j][d])²` for `j ≤ i`.
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
        let mut sq = Vec::with_capacity(n * (n + 1) / 2 * dims);
        for (i, xi) in xs.iter().enumerate() {
            assert_eq!(xi.len(), dims, "ragged training inputs");
            for xj in &xs[..=i] {
                for (&a, &b) in xi.iter().zip(xj) {
                    let d = a - b;
                    sq.push(d * d);
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
        assert_eq!(
            kernel.dims(),
            self.dims,
            "kernel dimensionality does not match workspace"
        );
        assert!(
            out.rows() == self.n && out.cols() == self.n,
            "gram_into output must be {n}x{n}",
            n = self.n
        );
        crate::ops::add_kernel_evals((self.n as u64 * (self.n as u64 + 1)) / 2);
        let sv = kernel.signal_variance();
        // Inverse squared lengthscales, on the stack for the usual small
        // dimensionalities so an evaluation allocates nothing.
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
        let inv_l2 = &*inv_l2;
        // Four pairs' r² dot products are interleaved so four independent
        // accumulation chains are in flight; each chain still sums its own
        // pair's terms for d ascending from 0.0, so every entry is
        // bit-identical to the pair-at-a-time loop.
        let d = self.dims;
        let pairs = self.n * (self.n + 1) / 2;
        let (mut i, mut j) = (0, 0);
        let mut put = |r2: f64| {
            let v = sv * kernel.shape(r2);
            out[(i, j)] = v;
            out[(j, i)] = v;
            j += 1;
            if j > i {
                i += 1;
                j = 0;
            }
        };
        let mut p = 0;
        while p + 4 <= pairs {
            let block = &self.sq[p * d..(p + 4) * d];
            let (b0, rest) = block.split_at(d);
            let (b1, rest) = rest.split_at(d);
            let (b2, b3) = rest.split_at(d);
            let mut r2 = [0.0f64; 4];
            for ((((&w, &x0), &x1), &x2), &x3) in inv_l2.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
                r2[0] += x0 * w;
                r2[1] += x1 * w;
                r2[2] += x2 * w;
                r2[3] += x3 * w;
            }
            r2.into_iter().for_each(&mut put);
            p += 4;
        }
        for p in p..pairs {
            let block = &self.sq[p * d..(p + 1) * d];
            let mut r2 = 0.0;
            for (&x, &w) in block.iter().zip(inv_l2) {
                r2 += x * w;
            }
            put(r2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelFamily;

    fn grid(n: usize, dims: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..dims)
                    .map(|d| ((i * (d + 3) + d) % 17) as f64 / 16.0)
                    .collect()
            })
            .collect()
    }

    /// The pair-at-a-time recombination loop: the oracle the interleaved
    /// `gram_into` must match bit for bit.
    fn gram_pairwise(ws: &DistanceWorkspace, kernel: &Kernel) -> Matrix {
        let inv_l2: Vec<f64> = kernel
            .lengthscales()
            .iter()
            .map(|l| 1.0 / (l * l))
            .collect();
        let mut out = Matrix::zeros(ws.n, ws.n);
        let mut pair = 0;
        for i in 0..ws.n {
            for j in 0..=i {
                let block = &ws.sq[pair * ws.dims..(pair + 1) * ws.dims];
                let mut r2 = 0.0;
                for (&d2, &w) in block.iter().zip(&inv_l2) {
                    r2 += d2 * w;
                }
                let v = kernel.signal_variance() * kernel.shape(r2);
                out[(i, j)] = v;
                out[(j, i)] = v;
                pair += 1;
            }
        }
        out
    }

    #[test]
    fn interleaved_gram_is_bit_identical_to_pairwise() {
        // n = 1..=9 gives pair counts 1, 3, 6, 10, 15, 21, 28, 36, 45:
        // every remainder mod 4. dims = 20 exercises the heap weights.
        for dims in [1, 3, 9, 20] {
            for n in 1..=9 {
                let ws = DistanceWorkspace::new(&grid(n, dims));
                for fam in KernelFamily::all() {
                    let mut kernel = Kernel::new(fam, dims);
                    let log_params: Vec<f64> = (0..=dims).map(|p| 0.3 - 0.45 * p as f64).collect();
                    kernel.set_log_params(&log_params);
                    let mut fast = Matrix::zeros(n, n);
                    fast[(0, 0)] = f64::NAN; // every entry must be overwritten
                    ws.gram_into(&kernel, &mut fast);
                    let oracle = gram_pairwise(&ws, &kernel);
                    let same = fast
                        .as_slice()
                        .iter()
                        .zip(oracle.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "{fam}, n = {n}, dims = {dims}");
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
