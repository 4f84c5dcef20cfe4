//! Linear algebra on symmetric positive-definite systems: Cholesky
//! factorization, triangular solves, and least squares.
//!
//! This is the numerical backbone of the Gaussian-process layer. The GP fits
//! `K + σ²I = L Lᵀ` and then answers every posterior query with triangular
//! solves against `L`, so correctness here is guarded by both unit tests and
//! property tests (see `proptests` at the bottom).

use crate::matrix::Matrix;

/// Error produced when a factorization or solve fails.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The matrix was not positive definite (reported with the pivot index
    /// where the failure occurred and the offending pivot value).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
        /// The non-positive pivot value encountered.
        value: f64,
    },
    /// The input was not square or dimensions disagreed.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A least-squares system was singular beyond repair.
    Singular,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot, value } => {
                write!(
                    f,
                    "matrix not positive definite at pivot {pivot} (value {value})"
                )
            }
            LinalgError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            LinalgError::Singular => write!(f, "singular system"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
/// matrix, with solve and log-determinant helpers.
///
/// # Examples
///
/// ```
/// use mlconf_util::matrix::Matrix;
/// use mlconf_util::linalg::Cholesky;
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let chol = Cholesky::factor(&a)?;
/// let x = chol.solve_vec(&[8.0, 7.0]);
/// // Verify A x = b.
/// let b = a.mul_vec(&x);
/// assert!((b[0] - 8.0).abs() < 1e-10 && (b[1] - 7.0).abs() < 1e-10);
/// # Ok::<(), mlconf_util::linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is the caller's responsibility.
    ///
    /// The factor is filled column by column: the pivot `L[j][j]` first,
    /// then rows `i > j` of column `j` four at a time, so four independent
    /// `sum -= L[i][k]·L[j][k]` chains are in flight instead of one. Each
    /// entry still starts at `a[i][j]` and subtracts its products for `k`
    /// ascending, the order the textbook row-by-row loop uses, so `L` is
    /// bit-identical to it; pivots are checked in ascending order from the
    /// same values, so the first failing pivot and its value match too.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] for non-square input and
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        Cholesky::factor_shifted(a, None)
    }

    /// [`Cholesky::factor`] of `a + shift·I`, without materializing the
    /// shifted matrix: the lower triangle of `a` is copied into the factor
    /// storage, the shift is added to its diagonal, and the columns are
    /// then eliminated in place.
    fn factor_shifted(a: &Matrix, shift: Option<f64>) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch {
                detail: format!("cholesky of {}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
            if let Some(s) = shift {
                l[(i, i)] += s;
            }
        }
        for j in 0..n {
            let (_, rest) = l.split_rows_at_mut(j);
            let (row_j, below) = rest.split_at_mut(n);
            let (lj, diag) = row_j.split_at_mut(j);
            let mut pivot = diag[0];
            for &ljk in &*lj {
                pivot -= ljk * ljk;
            }
            if pivot <= 0.0 || !pivot.is_finite() {
                return Err(LinalgError::NotPositiveDefinite {
                    pivot: j,
                    value: pivot,
                });
            }
            let ljj = pivot.sqrt();
            diag[0] = ljj;
            let lj = &*lj;
            let mut quads = below.chunks_exact_mut(4 * n);
            for quad in &mut quads {
                let (r0, rest) = quad.split_at_mut(n);
                let (r1, rest) = rest.split_at_mut(n);
                let (r2, r3) = rest.split_at_mut(n);
                let (mut s0, mut s1, mut s2, mut s3) = (r0[j], r1[j], r2[j], r3[j]);
                for ((((&ljk, &a0), &a1), &a2), &a3) in lj
                    .iter()
                    .zip(&r0[..j])
                    .zip(&r1[..j])
                    .zip(&r2[..j])
                    .zip(&r3[..j])
                {
                    s0 -= a0 * ljk;
                    s1 -= a1 * ljk;
                    s2 -= a2 * ljk;
                    s3 -= a3 * ljk;
                }
                r0[j] = s0 / ljj;
                r1[j] = s1 / ljj;
                r2[j] = s2 / ljj;
                r3[j] = s3 / ljj;
            }
            for ri in quads.into_remainder().chunks_exact_mut(n) {
                let mut sum = ri[j];
                for (&ljk, &aik) in lj.iter().zip(&ri[..j]) {
                    sum -= aik * ljk;
                }
                ri[j] = sum / ljj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Factors `a + jitter·I`, growing the jitter by ×10 on failure up to
    /// `max_tries` attempts. Returns the factorization and the jitter that
    /// succeeded.
    ///
    /// Kernel matrices are often ill-conditioned when two configurations
    /// nearly coincide; progressive jitter is the standard GP remedy.
    /// No attempt copies `a`: the jitter is applied while the factor
    /// storage is filled.
    ///
    /// # Errors
    ///
    /// Returns the last failure if no jitter level in the schedule works.
    pub fn factor_with_jitter(
        a: &Matrix,
        initial_jitter: f64,
        max_tries: usize,
    ) -> Result<(Self, f64), LinalgError> {
        let mut jitter = initial_jitter;
        let mut last_err = LinalgError::Singular;
        for attempt in 0..max_tries.max(1) {
            let shift = (attempt > 0 || jitter > 0.0).then_some(jitter);
            match Cholesky::factor_shifted(a, shift) {
                Ok(c) => return Ok((c, jitter)),
                Err(e) => {
                    last_err = e;
                    jitter = if jitter == 0.0 { 1e-10 } else { jitter * 10.0 };
                }
            }
        }
        Err(last_err)
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` via forward then backward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_vec(&self, b: &[f64]) -> Vec<f64> {
        let y = solve_lower(&self.l, b);
        solve_upper_from_lower_transpose(&self.l, &y)
    }

    /// Solves `L y = b` only (forward substitution), used by GP posterior
    /// variance computations.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_lower_vec(&self, b: &[f64]) -> Vec<f64> {
        solve_lower(&self.l, b)
    }

    /// Allocation-free variant of [`Cholesky::solve_lower_vec`] writing
    /// into a caller-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `y.len()` differ from `self.dim()`.
    pub fn solve_lower_vec_into(&self, b: &[f64], y: &mut [f64]) {
        solve_lower_into(&self.l, b, y);
    }

    /// Solves `A X = B` for all columns of `B` at once.
    ///
    /// Results are bit-identical to per-column [`Cholesky::solve_vec`]
    /// (same accumulation order per column), but the batched sweep walks
    /// rows of the factor once instead of once per column.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != self.dim()`.
    pub fn solve_mat(&self, b: &Matrix) -> Matrix {
        let y = solve_lower_batch(&self.l, b);
        solve_upper_from_lower_transpose_batch(&self.l, &y)
    }

    /// Solves `L Y = B` for all columns of `B` at once (batched forward
    /// substitution), used by batched GP posterior queries.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != self.dim()`.
    pub fn solve_lower_mat(&self, b: &Matrix) -> Matrix {
        solve_lower_batch(&self.l, b)
    }

    /// Extends the factorization to cover one appended row/column of the
    /// underlying matrix in O(n²), instead of O(n³) for refactorizing.
    ///
    /// `col` holds the off-diagonal entries `A[n][0..n]` of the appended
    /// row and `diag` the new diagonal entry `A[n][n]`. The new row of `L`
    /// follows by forward substitution (`L l_new = col`) with the same
    /// accumulation order as [`Cholesky::factor`], so the updated factor
    /// is bit-identical to refactorizing the extended matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `col.len() != self.dim()`
    /// and [`LinalgError::NotPositiveDefinite`] when the new pivot is not
    /// positive; the factorization is left unchanged on error.
    pub fn update_append(&mut self, col: &[f64], diag: f64) -> Result<(), LinalgError> {
        let n = self.dim();
        if col.len() != n {
            return Err(LinalgError::ShapeMismatch {
                detail: format!("update_append col has {} entries, dim is {n}", col.len()),
            });
        }
        // New row of L by forward substitution, mirroring the inner loop of
        // `factor` exactly: row[k] plays the role of l[(i, k)].
        let mut row = vec![0.0; n];
        for j in 0..n {
            let mut sum = col[j];
            for (k, rk) in row.iter().enumerate().take(j) {
                sum -= rk * self.l[(j, k)];
            }
            row[j] = sum / self.l[(j, j)];
        }
        let mut pivot = diag;
        for rk in &row {
            pivot -= rk * rk;
        }
        if pivot <= 0.0 || !pivot.is_finite() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: n,
                value: pivot,
            });
        }
        self.l.grow_square(1);
        self.l.row_mut(n)[..n].copy_from_slice(&row);
        self.l[(n, n)] = pivot.sqrt();
        Ok(())
    }

    /// Log-determinant of `A`, i.e. `2 Σ ln L[i][i]`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Explicit inverse of `A` (use solves instead where possible).
    pub fn inverse(&self) -> Matrix {
        self.solve_mat(&Matrix::identity(self.dim()))
    }
}

/// Solves the lower-triangular system `L y = b` by forward substitution.
///
/// # Panics
///
/// Panics on shape mismatch or a zero diagonal entry.
pub fn solve_lower(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; l.rows()];
    solve_lower_into(l, b, &mut y);
    y
}

/// Allocation-free variant of [`solve_lower`]: writes the solution of
/// `L y = b` into `y`, which callers can reuse across many solves (the GP
/// batch-prediction hot path).
///
/// # Panics
///
/// Panics on shape mismatch or a zero diagonal entry.
pub fn solve_lower_into(l: &Matrix, b: &[f64], y: &mut [f64]) {
    let n = l.rows();
    assert_eq!(b.len(), n, "solve_lower shape mismatch");
    assert_eq!(y.len(), n, "solve_lower output length mismatch");
    for i in 0..n {
        let mut sum = b[i];
        let row = l.row(i);
        for (k, yk) in y.iter().enumerate().take(i) {
            sum -= row[k] * yk;
        }
        assert!(row[i] != 0.0, "zero diagonal in triangular solve");
        y[i] = sum / row[i];
    }
}

/// Solves `Lᵀ x = y` given lower-triangular `L` (backward substitution).
///
/// # Panics
///
/// Panics on shape mismatch or a zero diagonal entry.
pub fn solve_upper_from_lower_transpose(l: &Matrix, y: &[f64]) -> Vec<f64> {
    let n = l.rows();
    assert_eq!(y.len(), n, "solve_upper shape mismatch");
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for (k, xk) in x.iter().enumerate().skip(i + 1) {
            // L[k][i] is the (i,k) entry of L^T.
            sum -= l[(k, i)] * xk;
        }
        x[i] = sum / l[(i, i)];
    }
    x
}

/// Solves `L Y = B` for all columns of `B` in one forward sweep.
///
/// Per column the arithmetic (accumulation order, operand order) matches
/// [`solve_lower`] exactly, so results are bit-identical; the batched form
/// only reorders work across columns to touch each factor row once.
///
/// # Panics
///
/// Panics on shape mismatch or a zero diagonal entry.
pub fn solve_lower_batch(l: &Matrix, b: &Matrix) -> Matrix {
    let n = l.rows();
    assert_eq!(b.rows(), n, "solve_lower_batch shape mismatch");
    let mut y = b.clone();
    for i in 0..n {
        let lrow = l.row(i);
        // acc[j] = b[i][j] - Σ_{k<i} L[i][k] · y[k][j], k ascending.
        for k in 0..i {
            let lik = lrow[k];
            let (done, rest) = y.split_rows_at_mut(i);
            let yk = &done[k * b.cols()..(k + 1) * b.cols()];
            for (acc, &ykj) in rest[..b.cols()].iter_mut().zip(yk) {
                *acc -= lik * ykj;
            }
        }
        assert!(lrow[i] != 0.0, "zero diagonal in triangular solve");
        for acc in y.row_mut(i) {
            *acc /= lrow[i];
        }
    }
    y
}

/// Solves `Lᵀ X = Y` for all columns of `Y` in one backward sweep; the
/// batched counterpart of [`solve_upper_from_lower_transpose`], with
/// bit-identical per-column results.
///
/// # Panics
///
/// Panics on shape mismatch or a zero diagonal entry.
pub fn solve_upper_from_lower_transpose_batch(l: &Matrix, y: &Matrix) -> Matrix {
    let n = l.rows();
    assert_eq!(y.rows(), n, "solve_upper_batch shape mismatch");
    let mut x = y.clone();
    for i in (0..n).rev() {
        for k in i + 1..n {
            // L[k][i] is the (i, k) entry of Lᵀ.
            let lki = l[(k, i)];
            let (head, tail) = x.split_rows_at_mut(k);
            let xk = &tail[..y.cols()];
            for (acc, &xkj) in head[i * y.cols()..(i + 1) * y.cols()].iter_mut().zip(xk) {
                *acc -= lki * xkj;
            }
        }
        let lii = l[(i, i)];
        assert!(lii != 0.0, "zero diagonal in triangular solve");
        for acc in x.row_mut(i) {
            *acc /= lii;
        }
    }
    x
}

/// Ordinary least squares: finds `beta` minimizing `‖X·beta − y‖²` via the
/// normal equations with a small ridge term for stability.
///
/// Used by the Ernest-style parametric performance-model baseline, where
/// `X` has a handful of hand-crafted feature columns.
///
/// # Errors
///
/// Returns an error if shapes disagree or the system is singular even
/// after ridge regularization.
pub fn least_squares(x: &Matrix, y: &[f64], ridge: f64) -> Result<Vec<f64>, LinalgError> {
    if x.rows() != y.len() {
        return Err(LinalgError::ShapeMismatch {
            detail: format!("lstsq X has {} rows, y has {}", x.rows(), y.len()),
        });
    }
    if x.rows() < x.cols() {
        return Err(LinalgError::ShapeMismatch {
            detail: format!("underdetermined: {} rows < {} cols", x.rows(), x.cols()),
        });
    }
    let xt = x.transpose();
    let mut xtx = &xt * x;
    xtx.add_diagonal(ridge.max(0.0));
    let xty = xt.mul_vec(y);
    let (chol, _) =
        Cholesky::factor_with_jitter(&xtx, 0.0, 12).map_err(|_| LinalgError::Singular)?;
    Ok(chol.solve_vec(&xty))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_matrix(n: usize, seed: u64) -> Matrix {
        // Build A = B Bᵀ + n·I which is always SPD.
        use crate::rng::Pcg64;
        use rand::Rng;
        let mut rng = Pcg64::seed(seed);
        let b = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut a = &b * &b.transpose();
        a.add_diagonal(n as f64);
        a
    }

    /// The textbook row-by-row Cholesky loop: the oracle the
    /// column-interleaved [`Cholesky::factor`] must match bit for bit.
    pub(super) fn factor_row_order(a: &Matrix) -> Result<Matrix, LinalgError> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite {
                            pivot: i,
                            value: sum,
                        });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Bitwise equality of two factors (`==` would equate `0.0` and
    /// `-0.0`).
    pub(super) fn same_bits(a: &Matrix, b: &Matrix) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn factor_is_bit_identical_to_row_order_for_every_size() {
        // Covers every `n % 4`, so both the four-row blocks and every
        // remainder length run.
        for n in 0..=40 {
            let a = spd_matrix(n, 100 + n as u64);
            let fast = Cholesky::factor(&a).unwrap();
            let oracle = factor_row_order(&a).unwrap();
            assert!(same_bits(fast.l(), &oracle), "n = {n}");
        }
    }

    #[test]
    fn non_spd_failure_matches_row_order() {
        // SPD except for one negated diagonal entry in the middle, so the
        // failing pivot comes after earlier columns are eliminated.
        for n in 2..=24 {
            let mut a = spd_matrix(n, 200 + n as u64);
            let k = n / 2;
            a[(k, k)] = -a[(k, k)];
            let fast = Cholesky::factor(&a).unwrap_err();
            let oracle = factor_row_order(&a).unwrap_err();
            match (fast, oracle) {
                (
                    LinalgError::NotPositiveDefinite { pivot, value },
                    LinalgError::NotPositiveDefinite {
                        pivot: want_pivot,
                        value: want_value,
                    },
                ) => {
                    assert_eq!(pivot, want_pivot, "n = {n}");
                    assert_eq!(value.to_bits(), want_value.to_bits(), "n = {n}");
                }
                other => panic!("n = {n}: {other:?}"),
            }
        }
    }

    #[test]
    fn jitter_schedule_matches_shifting_a_copy() {
        // Semidefinite (rank 1), so the schedule must climb; every attempt
        // factors `a + jitter·I` without copying `a`.
        let v: Vec<f64> = (0..9).map(|i| 0.3 + i as f64 * 0.1).collect();
        let a = Matrix::from_fn(9, 9, |i, j| v[i] * v[j]);
        let (chol, jitter) = Cholesky::factor_with_jitter(&a, 0.0, 15).unwrap();
        assert!(jitter > 0.0);
        let mut shifted = a.clone();
        shifted.add_diagonal(jitter);
        assert!(same_bits(chol.l(), &factor_row_order(&shifted).unwrap()));
        // A zero-jitter success is the plain factor.
        let b = spd_matrix(7, 9);
        let (chol, jitter) = Cholesky::factor_with_jitter(&b, 0.0, 12).unwrap();
        assert_eq!(jitter, 0.0);
        assert!(same_bits(chol.l(), Cholesky::factor(&b).unwrap().l()));
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd_matrix(6, 1);
        let chol = Cholesky::factor(&a).unwrap();
        let recon = &chol.l().clone() * &chol.l().transpose();
        assert!(a.max_abs_diff(&recon) < 1e-10);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd_matrix(5, 2);
        let x_true = vec![1.0, -2.0, 0.5, 3.0, -1.5];
        let b = a.mul_vec(&x_true);
        let chol = Cholesky::factor(&a).unwrap();
        let x = chol.solve_vec(&b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        match Cholesky::factor(&a) {
            Err(LinalgError::NotPositiveDefinite { pivot, .. }) => assert_eq!(pivot, 1),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-deficient: duplicate rows.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let (chol, jitter) = Cholesky::factor_with_jitter(&a, 0.0, 15).unwrap();
        assert!(jitter > 0.0);
        assert_eq!(chol.dim(), 2);
    }

    #[test]
    fn log_det_matches_known() {
        // det([[4,0],[0,9]]) = 36.
        let a = Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 9.0]]);
        let chol = Cholesky::factor(&a).unwrap();
        assert!((chol.log_det() - 36.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = spd_matrix(4, 3);
        let inv = Cholesky::factor(&a).unwrap().inverse();
        let prod = &a * &inv;
        assert!(prod.max_abs_diff(&Matrix::identity(4)) < 1e-9);
    }

    #[test]
    fn solve_mat_matches_solve_vec() {
        let a = spd_matrix(4, 4);
        let b = Matrix::from_fn(4, 2, |i, j| (i + j) as f64 + 1.0);
        let chol = Cholesky::factor(&a).unwrap();
        let x = chol.solve_mat(&b);
        for j in 0..2 {
            let col = chol.solve_vec(&b.col(j));
            for i in 0..4 {
                assert!((x[(i, j)] - col[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn least_squares_exact_fit() {
        // y = 2 + 3t, exactly representable.
        let t: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let x = Matrix::from_fn(10, 2, |i, j| if j == 0 { 1.0 } else { t[i] });
        let y: Vec<f64> = t.iter().map(|&ti| 2.0 + 3.0 * ti).collect();
        let beta = least_squares(&x, &y, 0.0).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-8);
        assert!((beta[1] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn least_squares_rejects_underdetermined() {
        let x = Matrix::zeros(2, 3);
        assert!(least_squares(&x, &[1.0, 2.0], 0.0).is_err());
    }

    #[test]
    fn update_append_matches_full_factor_exactly() {
        let a = spd_matrix(8, 11);
        // Factor the leading 5x5 block, then append rows 5, 6, 7 one at a
        // time; the result must be bit-identical to factoring all of A.
        let lead = Matrix::from_fn(5, 5, |i, j| a[(i, j)]);
        let mut chol = Cholesky::factor(&lead).unwrap();
        for m in 5..8 {
            let col: Vec<f64> = (0..m).map(|j| a[(m, j)]).collect();
            chol.update_append(&col, a[(m, m)]).unwrap();
        }
        let full = Cholesky::factor(&a).unwrap();
        assert_eq!(chol.l(), full.l(), "incremental factor must match exactly");
    }

    #[test]
    fn update_append_from_empty_builds_scalar_factor() {
        let mut chol = Cholesky::factor(&Matrix::zeros(0, 0)).unwrap();
        chol.update_append(&[], 9.0).unwrap();
        assert_eq!(chol.dim(), 1);
        assert_eq!(chol.l()[(0, 0)], 3.0);
    }

    #[test]
    fn update_append_rejects_bad_shapes_and_non_pd() {
        let a = spd_matrix(4, 5);
        let mut chol = Cholesky::factor(&a).unwrap();
        let before = chol.clone();
        assert!(matches!(
            chol.update_append(&[1.0], 1.0),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        // A non-positive appended diagonal cannot yield a positive pivot.
        let col = vec![0.0; 4];
        match chol.update_append(&col, 0.0) {
            Err(LinalgError::NotPositiveDefinite { pivot, .. }) => assert_eq!(pivot, 4),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
        assert_eq!(
            chol, before,
            "failed update must leave the factor unchanged"
        );
    }

    #[test]
    fn solve_lower_mat_matches_solve_lower_vec() {
        let a = spd_matrix(6, 6);
        let b = Matrix::from_fn(6, 3, |i, j| (i * 3 + j) as f64 - 4.0);
        let chol = Cholesky::factor(&a).unwrap();
        let y = chol.solve_lower_mat(&b);
        for j in 0..3 {
            let col = chol.solve_lower_vec(&b.col(j));
            for i in 0..6 {
                assert_eq!(y[(i, j)], col[i], "batched forward solve must be exact");
            }
        }
    }

    #[test]
    fn batched_solve_mat_is_bit_identical_to_per_column() {
        let a = spd_matrix(7, 7);
        let b = Matrix::from_fn(7, 4, |i, j| ((i + 2) * (j + 1)) as f64 * 0.25 - 3.0);
        let chol = Cholesky::factor(&a).unwrap();
        let x = chol.solve_mat(&b);
        for j in 0..4 {
            let col = chol.solve_vec(&b.col(j));
            for i in 0..7 {
                assert_eq!(x[(i, j)], col[i]);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn spd_from_entries(n: usize, entries: Vec<f64>) -> Matrix {
        let b = Matrix::from_fn(n, n, |i, j| entries[i * n + j]);
        let mut a = &b * &b.transpose();
        a.add_diagonal(n as f64 + 1.0);
        a
    }

    proptest! {
        #[test]
        fn factor_matches_row_order_bitwise(
            n in 1usize..=40,
            diag in 1e-6f64..2.0,
            raw in proptest::collection::vec(-1.0f64..1.0, 1600),
        ) {
            let b = Matrix::from_fn(n, n, |i, j| raw[i * n + j]);
            let mut a = &b * &b.transpose();
            a.add_diagonal(diag);
            let fast = Cholesky::factor(&a);
            let oracle = super::tests::factor_row_order(&a);
            match (fast, oracle) {
                (Ok(fast), Ok(oracle)) => {
                    prop_assert!(super::tests::same_bits(fast.l(), &oracle));
                }
                (
                    Err(LinalgError::NotPositiveDefinite { pivot, value }),
                    Err(LinalgError::NotPositiveDefinite { pivot: p, value: v }),
                ) => {
                    prop_assert_eq!(pivot, p);
                    prop_assert_eq!(value.to_bits(), v.to_bits());
                }
                (fast, oracle) => prop_assert!(false, "{fast:?} vs {oracle:?}"),
            }
        }

        #[test]
        fn indefinite_fails_like_row_order(
            n in 1usize..=24,
            k in 0usize..24,
            dent in 0.5f64..3.0,
            raw in proptest::collection::vec(-1.0f64..1.0, 576),
        ) {
            // An SPD matrix with one diagonal entry pushed down, so the
            // failing pivot (if any) sits anywhere, not just at the top.
            let b = Matrix::from_fn(n, n, |i, j| raw[i * n + j]);
            let mut a = &b * &b.transpose();
            let k = k % n;
            a[(k, k)] *= 1.0 - dent;
            let fast = Cholesky::factor(&a).map(|c| c.l().clone());
            let oracle = super::tests::factor_row_order(&a);
            match (fast, oracle) {
                (Ok(fast), Ok(oracle)) => {
                    prop_assert!(super::tests::same_bits(&fast, &oracle));
                }
                (
                    Err(LinalgError::NotPositiveDefinite { pivot, value }),
                    Err(LinalgError::NotPositiveDefinite { pivot: p, value: v }),
                ) => {
                    prop_assert_eq!(pivot, p);
                    prop_assert_eq!(value.to_bits(), v.to_bits());
                }
                (fast, oracle) => prop_assert!(false, "{fast:?} vs {oracle:?}"),
            }
        }

        #[test]
        fn cholesky_reconstructs_spd(
            n in 1usize..8,
            raw in proptest::collection::vec(-3.0f64..3.0, 64),
        ) {
            let a = spd_from_entries(n, raw);
            let chol = Cholesky::factor(&a).unwrap();
            let recon = &chol.l().clone() * &chol.l().transpose();
            prop_assert!(a.max_abs_diff(&recon) < 1e-8);
        }

        #[test]
        fn solve_satisfies_system(
            n in 1usize..8,
            raw in proptest::collection::vec(-3.0f64..3.0, 64),
            rhs in proptest::collection::vec(-10.0f64..10.0, 8),
        ) {
            let a = spd_from_entries(n, raw);
            let b = &rhs[..n];
            let chol = Cholesky::factor(&a).unwrap();
            let x = chol.solve_vec(b);
            let back = a.mul_vec(&x);
            for (got, want) in back.iter().zip(b) {
                prop_assert!((got - want).abs() < 1e-6, "residual too large");
            }
        }

        #[test]
        fn log_det_positive_for_diagonally_dominant(
            n in 1usize..8,
            raw in proptest::collection::vec(-1.0f64..1.0, 64),
        ) {
            let a = spd_from_entries(n, raw);
            let chol = Cholesky::factor(&a).unwrap();
            // A has diagonal entries > n, so det > 1 and log det > 0.
            prop_assert!(chol.log_det() > 0.0);
        }

        #[test]
        fn incremental_append_equals_full_refactorization(
            n in 2usize..8,
            split in 1usize..7,
            raw in proptest::collection::vec(-3.0f64..3.0, 64),
        ) {
            let split = split.min(n - 1);
            let a = spd_from_entries(n, raw);
            let lead = Matrix::from_fn(split, split, |i, j| a[(i, j)]);
            let mut chol = Cholesky::factor(&lead).unwrap();
            for m in split..n {
                let col: Vec<f64> = (0..m).map(|j| a[(m, j)]).collect();
                chol.update_append(&col, a[(m, m)]).unwrap();
            }
            let full = Cholesky::factor(&a).unwrap();
            prop_assert_eq!(chol.l(), full.l());
        }

        #[test]
        fn batched_solves_match_per_column(
            n in 1usize..8,
            cols in 1usize..5,
            raw in proptest::collection::vec(-3.0f64..3.0, 64),
            rhs in proptest::collection::vec(-10.0f64..10.0, 40),
        ) {
            let a = spd_from_entries(n, raw);
            let b = Matrix::from_fn(n, cols, |i, j| rhs[i * cols + j]);
            let chol = Cholesky::factor(&a).unwrap();
            let x = chol.solve_mat(&b);
            let y = chol.solve_lower_mat(&b);
            for j in 0..cols {
                let xv = chol.solve_vec(&b.col(j));
                let yv = chol.solve_lower_vec(&b.col(j));
                for i in 0..n {
                    prop_assert_eq!(x[(i, j)], xv[i]);
                    prop_assert_eq!(y[(i, j)], yv[i]);
                }
            }
        }
    }
}
