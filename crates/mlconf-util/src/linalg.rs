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
    /// The lower triangle is packed by columns and eliminated by
    /// [`PackedLower::factor`], the crate's one Cholesky kernel, then
    /// unpacked into the row-major factor. Each entry `L[i][j]` starts
    /// at `a[i][j]` and subtracts `L[i][k]·L[j][k]` for `k` ascending,
    /// the order the textbook row-by-row loop uses, so `L` is
    /// bit-identical to it; pivots are checked in ascending order from
    /// the same values, so the first failing pivot and its value match
    /// too.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] for non-square input and
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        Cholesky::factor_shifted(a, None)
    }

    /// [`Cholesky::factor`] of `a + shift·I`, without materializing the
    /// shifted matrix: the shift is added while `a`'s lower triangle is
    /// packed.
    fn factor_shifted(a: &Matrix, shift: Option<f64>) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch {
                detail: format!("cholesky of {}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let mut packed = PackedLower::default();
        packed.reset(n, 0);
        for j in 0..n {
            let col = packed.column_mut(j);
            for (i, v) in (j..n).zip(col.iter_mut()) {
                *v = a[(i, j)];
            }
            if let Some(s) = shift {
                col[0] += s;
            }
        }
        packed.factor()?;
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            for (i, &v) in (j..n).zip(packed.column(j)) {
                l[(i, j)] = v;
            }
        }
        Ok(Cholesky { l })
    }

    /// Factors `a + jitter·I`, growing the jitter by ×10 on failure up to
    /// `max_tries` attempts (the [`jitter_shifts`] schedule). Returns the
    /// factorization and the jitter that succeeded.
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
        let mut last_err = LinalgError::Singular;
        for shift in jitter_shifts(initial_jitter, max_tries) {
            match Cholesky::factor_shifted(a, shift) {
                Ok(c) => return Ok((c, shift.unwrap_or(initial_jitter))),
                Err(e) => last_err = e,
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
        log_det_from_pivots((0..self.dim()).map(|i| self.l[(i, i)]))
    }

    /// Explicit inverse of `A` (use solves instead where possible).
    pub fn inverse(&self) -> Matrix {
        self.solve_mat(&Matrix::identity(self.dim()))
    }
}

/// The diagonal shifts [`Cholesky::factor_with_jitter`] tries, in order:
/// `None` (no shift) first when `initial_jitter` is zero, then
/// `initial_jitter` (or `1e-10` from zero) growing ×10 per attempt, for
/// `max_tries` attempts (at least one). Callers that factor in place
/// refill their matrix and add each shift to its diagonal.
pub fn jitter_shifts(initial_jitter: f64, max_tries: usize) -> impl Iterator<Item = Option<f64>> {
    let mut jitter = initial_jitter;
    (0..max_tries.max(1)).map(move |attempt| {
        let shift = (attempt > 0 || jitter > 0.0).then_some(jitter);
        jitter = if jitter == 0.0 { 1e-10 } else { jitter * 10.0 };
        shift
    })
}

/// `2 Σ ln pᵢ` over the factor's diagonal, summed in index order.
fn log_det_from_pivots(diag: impl Iterator<Item = f64>) -> f64 {
    diag.map(f64::ln).sum::<f64>() * 2.0
}

/// The lower triangle of a symmetric `n × n` matrix packed by columns,
/// with optional *border* rows below it, factored in place by the
/// crate's one Cholesky kernel.
///
/// Column `j` holds rows `j..n + border`, contiguously: entry `A[j][j]`
/// first, then `A[i][j]` for `i > j`, then the border rows' column-`j`
/// entries. [`PackedLower::factor`] overwrites every entry with `L`, and
/// each border row `b` with `L⁻¹b`: a border row is eliminated exactly
/// like a matrix row but never pivots, which is forward substitution in
/// [`solve_lower`]'s own order. So a right-hand side rides along with the
/// factorization instead of needing a second strided pass.
///
/// The elimination is left-looking over columns and vectorized across
/// rows: each entry keeps its own chain (`A[i][j]`, minus `L[i][k]·L[j][k]`
/// for `k` ascending, divided by `L[j][j]`), so lanes are entries and the
/// result is bit-identical to the textbook loop. Pivots come from
/// right-looking diagonal updates (`d[i] -= L[i][j]²` as each column is
/// finished), which is the same chain per pivot without a serial dot
/// product. On x86-64 CPUs with AVX2 (detected at run time) sixteen rows
/// are updated per `k` in four registers, and a column's last rows in up
/// to four registers with the final one masked, always with separate
/// multiply and subtract instructions, never fused multiply-add; other
/// CPUs run the same loop in portable code, sixteen, four or one row at
/// a time.
///
/// # Examples
///
/// ```
/// use mlconf_util::linalg::PackedLower;
///
/// // [[4, 2], [2, 3]] with one border row b = [8, 7].
/// let mut p = PackedLower::default();
/// p.reset(2, 1);
/// p.column_mut(0).copy_from_slice(&[4.0, 2.0, 8.0]);
/// p.column_mut(1).copy_from_slice(&[3.0, 7.0]);
/// p.factor()?;
/// assert_eq!(p.column(0), &[2.0, 1.0, 4.0]); // L[0][0], L[1][0], (L⁻¹b)[0]
/// assert_eq!(p.column(1)[0], 2.0f64.sqrt()); // L[1][1]
/// let mut x = vec![p.column(0)[2], p.column(1)[1]];
/// p.solve_upper(&mut x); // x = A⁻¹b
/// assert!((x[0] - 1.25).abs() < 1e-12 && (x[1] - 1.5).abs() < 1e-12);
/// # Ok::<(), mlconf_util::linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PackedLower {
    n: usize,
    height: usize,
    data: Vec<f64>,
    /// Running pivots during [`PackedLower::factor`]; one entry per row
    /// (border entries are scratch).
    diag: Vec<f64>,
}

impl PackedLower {
    /// Shapes the storage for an `n × n` matrix with `border` extra
    /// rows, reusing the allocation. Entries are unspecified until the
    /// caller writes every column.
    pub fn reset(&mut self, n: usize, border: usize) {
        self.n = n;
        self.height = n + border;
        self.data.resize(packed_offset(self.height, n), 0.0);
        self.diag.resize(self.height, 0.0);
    }

    /// Dimension `n` of the matrix (excluding border rows).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Column `j`: rows `j..n + border`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.dim()`.
    pub fn column(&self, j: usize) -> &[f64] {
        assert!(j < self.n, "column {j} out of range for dim {}", self.n);
        &self.data[packed_offset(self.height, j)..packed_offset(self.height, j + 1)]
    }

    /// Mutable column `j`: rows `j..n + border`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.dim()`.
    pub fn column_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(j < self.n, "column {j} out of range for dim {}", self.n);
        &mut self.data[packed_offset(self.height, j)..packed_offset(self.height, j + 1)]
    }

    /// Factors the matrix in place (`A = L Lᵀ`), turning each border row
    /// `b` into `L⁻¹b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] with the first
    /// failing pivot and its value, exactly as [`Cholesky::factor`]
    /// reports it. Columns before the failing one then hold `L`, later
    /// ones are untouched, so a retry must refill every column.
    pub fn factor(&mut self) -> Result<(), LinalgError> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked on the line above.
            return unsafe { self.factor_avx2() };
        }
        self.factor_portable()
    }

    /// [`PackedLower::factor`] without SIMD: 16 rows per `k`, then the
    /// rest four and one at a time.
    fn factor_portable(&mut self) -> Result<(), LinalgError> {
        self.eliminate(|data, diag, h, j, r, len, ljj| {
            if len == BLOCK {
                return rows_portable::<BLOCK>(data, diag, h, j, r, ljj);
            }
            let mut r = r;
            while r + 4 <= h {
                rows_portable::<4>(data, diag, h, j, r, ljj);
                r += 4;
            }
            for r in r..h {
                rows_portable::<1>(data, diag, h, j, r, ljj);
            }
        })
    }

    /// [`PackedLower::factor`] with AVX2: 16 rows per `k` in four
    /// registers, and the last `len < 16` rows in `⌈len/4⌉` registers
    /// whose final one is masked.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn factor_avx2(&mut self) -> Result<(), LinalgError> {
        self.eliminate(|data, diag, h, j, r, len, ljj| {
            // SAFETY: this closure only runs inside `factor_avx2`, whose
            // caller guarantees AVX2, and `eliminate` passes
            // `j < r` and `len` rows ending at most at `h`.
            unsafe {
                match len.div_ceil(4) {
                    1 => rows_avx2::<1>(data, diag, h, j, r, len, ljj),
                    2 => rows_avx2::<2>(data, diag, h, j, r, len, ljj),
                    3 => rows_avx2::<3>(data, diag, h, j, r, len, ljj),
                    _ => rows_avx2::<4>(data, diag, h, j, r, len, ljj),
                }
            }
        })
    }

    /// The elimination loop shared by both paths. `block(data, diag, h,
    /// j, r, len, L[j][j])` finishes rows `r..r + len` of column `j`
    /// (`len ≤ 16`, and `len < 16` only for a column's last rows). Inlined
    /// into each caller so the AVX2 blocks compile with AVX2 enabled.
    #[inline(always)]
    fn eliminate(
        &mut self,
        block: impl Fn(&mut [f64], &mut [f64], usize, usize, usize, usize, f64),
    ) -> Result<(), LinalgError> {
        let (n, h) = (self.n, self.height);
        for j in 0..n {
            self.diag[j] = self.data[packed_offset(h, j)];
        }
        for j in 0..n {
            let pivot = self.diag[j];
            if pivot <= 0.0 || !pivot.is_finite() {
                return Err(LinalgError::NotPositiveDefinite {
                    pivot: j,
                    value: pivot,
                });
            }
            let ljj = pivot.sqrt();
            self.data[packed_offset(h, j)] = ljj;
            let mut r = j + 1;
            while r < h {
                let len = BLOCK.min(h - r);
                block(&mut self.data, &mut self.diag, h, j, r, len, ljj);
                r += len;
            }
        }
        Ok(())
    }

    /// Log-determinant of the factored matrix, `2 Σ ln L[j][j]`, summed
    /// exactly as [`Cholesky::log_det`] sums it.
    pub fn log_det(&self) -> f64 {
        log_det_from_pivots((0..self.n).map(|j| self.column(j)[0]))
    }

    /// Solves `Lᵀ x = y` in place (backward substitution over the
    /// factored columns), in [`solve_upper_from_lower_transpose`]'s
    /// order, so `x` is bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn solve_upper(&self, x: &mut [f64]) {
        let n = self.n;
        assert_eq!(x.len(), n, "solve_upper shape mismatch");
        for i in (0..n).rev() {
            let col = &self.column(i)[..n - i];
            let (head, done) = x.split_at_mut(i + 1);
            let mut sum = head[i];
            for (&lki, &xk) in col[1..].iter().zip(&*done) {
                sum -= lki * xk;
            }
            head[i] = sum / col[0];
        }
    }
}

/// Start of column `j` in packed storage whose columns are `height` rows
/// tall at column 0 and one row shorter per column: `Σ_{c<j} (height − c)`.
fn packed_offset(height: usize, j: usize) -> usize {
    j * height - j * j.saturating_sub(1) / 2
}

/// Rows per full elimination block.
const BLOCK: usize = 16;

/// Portable row block: `R` entries of column `j`, each its own chain.
#[inline(always)]
fn rows_portable<const R: usize>(
    data: &mut [f64],
    diag: &mut [f64],
    h: usize,
    j: usize,
    r: usize,
    ljj: f64,
) {
    let (done, rest) = data.split_at_mut(packed_offset(h, j));
    let out = &mut rest[r - j..r - j + R];
    let mut acc = [0.0f64; R];
    acc.copy_from_slice(out);
    let mut col = 0;
    for k in 0..j {
        let ljk = done[col + j - k];
        let rows = &done[col + r - k..col + r - k + R];
        for (a, &lik) in acc.iter_mut().zip(rows) {
            *a -= lik * ljk;
        }
        col += h - k;
    }
    for ((o, d), a) in out.iter_mut().zip(&mut diag[r..r + R]).zip(acc) {
        let lij = a / ljj;
        *o = lij;
        *d -= lij * lij;
    }
}

/// AVX2 row block: rows `r..r + len` of column `j`, four per register
/// (`4(V−1) < len ≤ 4V`; lanes past `len` in the last register are
/// masked off), with `mul` then `sub` so each lane rounds exactly like
/// [`rows_portable`].
///
/// # Safety
///
/// The CPU must support AVX2.
///
/// # Panics
///
/// Panics unless `j < r`, `r + len ≤ h`, `len` fits `V` registers, and
/// `data`/`diag` have the [`PackedLower`] shape for height `h`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn rows_avx2<const V: usize>(
    data: &mut [f64],
    diag: &mut [f64],
    h: usize,
    j: usize,
    r: usize,
    len: usize,
    ljj: f64,
) {
    use std::arch::x86_64::{
        __m256d, _mm256_broadcast_sd, _mm256_cmpgt_epi64, _mm256_div_pd, _mm256_loadu_pd,
        _mm256_maskload_pd, _mm256_maskstore_pd, _mm256_mul_pd, _mm256_set1_epi64x, _mm256_set1_pd,
        _mm256_setr_epi64x, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
    };
    assert!(
        j < r && r + len <= h && len > 4 * (V - 1) && len <= 4 * V,
        "row block out of range"
    );
    assert!(data.len() >= packed_offset(h, j + 1) && diag.len() >= h);
    // Lanes of the last register that hold rows (all four when full).
    let live = (len - 4 * (V - 1)) as i64;
    let mask = _mm256_cmpgt_epi64(_mm256_set1_epi64x(live), _mm256_setr_epi64x(0, 1, 2, 3));
    let base = data.as_mut_ptr();
    // SAFETY: for every pointer below, by the asserts, rows r..r + len
    // lie inside column j and every earlier column k (which spans rows
    // k..h), row j lies inside every column k < j, and diag has h
    // entries. Only the last register's live lanes are loaded/stored
    // past `4(V−1)`; masked-off lanes are never touched.
    unsafe {
        let out = base.add(packed_offset(h, j) + r - j);
        let load = |p: *const f64, v: usize| {
            if v + 1 < V {
                _mm256_loadu_pd(p.add(4 * v))
            } else {
                _mm256_maskload_pd(p.add(4 * v), mask)
            }
        };
        let mut acc: [__m256d; V] = [_mm256_setzero_pd(); V];
        for (v, a) in acc.iter_mut().enumerate() {
            *a = load(out, v);
        }
        let mut col = base as *const f64;
        for k in 0..j {
            let ljk = _mm256_broadcast_sd(&*col.add(j - k));
            let rows = col.add(r - k);
            for (v, a) in acc.iter_mut().enumerate() {
                *a = _mm256_sub_pd(*a, _mm256_mul_pd(load(rows, v), ljk));
            }
            col = col.add(h - k);
        }
        let pivot = _mm256_set1_pd(ljj);
        let d = diag.as_mut_ptr().add(r);
        for (v, a) in acc.into_iter().enumerate() {
            let lij = _mm256_div_pd(a, pivot);
            let dv = _mm256_sub_pd(load(d, v), _mm256_mul_pd(lij, lij));
            if v + 1 < V {
                _mm256_storeu_pd(out.add(4 * v), lij);
                _mm256_storeu_pd(d.add(4 * v), dv);
            } else {
                _mm256_maskstore_pd(out.add(4 * v), mask, lij);
                _mm256_maskstore_pd(d.add(4 * v), mask, dv);
            }
        }
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

    /// The textbook row-by-row Cholesky loop: the oracle both
    /// [`PackedLower`] paths, and so [`Cholesky::factor`], must match bit
    /// for bit.
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

    /// A factorization path of [`PackedLower`].
    pub(super) type Path = fn(&mut PackedLower) -> Result<(), LinalgError>;

    /// Every elimination path this CPU can run, called directly.
    pub(super) fn paths() -> Vec<(&'static str, Path)> {
        let mut paths: Vec<(&'static str, Path)> = vec![("portable", PackedLower::factor_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked on the line above.
            paths.push(("avx2", |p| unsafe { p.factor_avx2() }));
        }
        paths
    }

    /// Packs `a`'s lower triangle with `b` as a border row (if any),
    /// factors it along `path`, and unpacks `L` and `L⁻¹b`.
    pub(super) fn factor_packed(
        a: &Matrix,
        b: Option<&[f64]>,
        path: Path,
    ) -> Result<(Matrix, Vec<f64>), LinalgError> {
        let n = a.rows();
        let mut p = PackedLower::default();
        p.reset(n, usize::from(b.is_some()));
        for j in 0..n {
            let col = p.column_mut(j);
            for i in j..n {
                col[i - j] = a[(i, j)];
            }
            if let Some(b) = b {
                col[n - j] = b[j];
            }
        }
        path(&mut p)?;
        let l = Matrix::from_fn(n, n, |i, j| if i >= j { p.column(j)[i - j] } else { 0.0 });
        let y = match b {
            Some(_) => (0..n).map(|j| p.column(j)[n - j]).collect(),
            None => Vec::new(),
        };
        Ok((l, y))
    }

    fn same_vec_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn factor_is_bit_identical_to_row_order_for_every_size() {
        // Every n up to 40 covers each count of 16-row blocks, 4-row
        // blocks and single rows per column; 120 and 200 are the sizes
        // the hyperparameter search and the benchmarks run at.
        for n in (0..=40).chain([120, 200]) {
            let a = spd_matrix(n, 100 + n as u64);
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let oracle = factor_row_order(&a).unwrap();
            let y_oracle = solve_lower(&oracle, &b);
            assert!(
                same_bits(Cholesky::factor(&a).unwrap().l(), &oracle),
                "n = {n}"
            );
            for (name, path) in paths() {
                let (l, _) = factor_packed(&a, None, path).unwrap();
                assert!(same_bits(&l, &oracle), "{name}, n = {n}");
                // The border row comes out as L⁻¹b in solve_lower's order.
                let (l, y) = factor_packed(&a, Some(&b), path).unwrap();
                assert!(same_bits(&l, &oracle), "{name} bordered, n = {n}");
                assert!(same_vec_bits(&y, &y_oracle), "{name} L⁻¹b, n = {n}");
            }
        }
    }

    #[test]
    fn packed_solve_and_log_det_match_cholesky() {
        for n in [1, 5, 17, 40] {
            let a = spd_matrix(n, 300 + n as u64);
            let b: Vec<f64> = (0..n).map(|i| 1.0 - i as f64 * 0.1).collect();
            let chol = Cholesky::factor(&a).unwrap();
            let mut p = PackedLower::default();
            p.reset(n, 1);
            for j in 0..n {
                let col = p.column_mut(j);
                for i in j..n {
                    col[i - j] = a[(i, j)];
                }
                col[n - j] = b[j];
            }
            p.factor().unwrap();
            let mut x: Vec<f64> = (0..n).map(|j| p.column(j)[n - j]).collect();
            p.solve_upper(&mut x);
            assert!(same_vec_bits(&x, &chol.solve_vec(&b)), "n = {n}");
            assert_eq!(p.log_det().to_bits(), chol.log_det().to_bits(), "n = {n}");
        }
    }

    #[test]
    fn non_spd_failure_matches_row_order() {
        // SPD except for one negated diagonal entry, so the failing pivot
        // comes after earlier columns are eliminated; sizes span every
        // block shape.
        for n in (2..=40).chain([120]) {
            let mut a = spd_matrix(n, 200 + n as u64);
            let k = n / 2;
            a[(k, k)] = -a[(k, k)];
            let oracle = factor_row_order(&a).unwrap_err();
            let mut got = vec![("factor", Cholesky::factor(&a).unwrap_err())];
            for (name, path) in paths() {
                got.push((
                    name,
                    factor_packed(&a, Some(&vec![1.0; n]), path).unwrap_err(),
                ));
            }
            for (name, err) in got {
                match (err, &oracle) {
                    (
                        LinalgError::NotPositiveDefinite { pivot, value },
                        LinalgError::NotPositiveDefinite {
                            pivot: want_pivot,
                            value: want_value,
                        },
                    ) => {
                        assert_eq!(pivot, *want_pivot, "{name}, n = {n}");
                        assert_eq!(value.to_bits(), want_value.to_bits(), "{name}, n = {n}");
                    }
                    other => panic!("{name}, n = {n}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn jitter_shifts_follow_the_schedule() {
        let from_zero: Vec<Option<f64>> = jitter_shifts(0.0, 4).collect();
        assert_eq!(
            from_zero,
            [
                None,
                Some(1e-10),
                Some(1e-10 * 10.0),
                Some(1e-10 * 10.0 * 10.0)
            ]
        );
        let from_given: Vec<Option<f64>> = jitter_shifts(1e-6, 2).collect();
        assert_eq!(from_given, [Some(1e-6), Some(1e-6 * 10.0)]);
        assert_eq!(jitter_shifts(0.0, 0).count(), 1);
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
    fn jitter_retries_match_row_order_on_every_path() {
        // Runs the schedule as the hyperparameter search does: every
        // attempt refills the packed storage (the failed factorization
        // overwrote it) with `a + shift·I` and the border row.
        fn run<T>(
            a: &Matrix,
            mut attempt: impl FnMut(&Matrix) -> Result<T, LinalgError>,
        ) -> Result<(Option<f64>, T), LinalgError> {
            let mut last = LinalgError::Singular;
            for shift in jitter_shifts(0.0, 12) {
                let mut shifted = a.clone();
                shifted.add_diagonal(shift.unwrap_or(0.0));
                match attempt(&shifted) {
                    Ok(t) => return Ok((shift, t)),
                    Err(e) => last = e,
                }
            }
            Err(last)
        }
        // Rank 1, so the unshifted attempt fails and the schedule climbs.
        let v: Vec<f64> = (0..9).map(|i| 0.3 + i as f64 * 0.1).collect();
        let rank_one = Matrix::from_fn(9, 9, |i, j| v[i] * v[j]);
        // 40 points over 7 distinct rows: a singular Gram-like matrix.
        let dup = Matrix::from_fn(40, 40, |i, j| {
            let (p, q) = ((i % 7) as f64, (j % 7) as f64);
            (-0.5 * (p - q) * (p - q)).exp()
        });
        // Non-finite everywhere on the diagonal: every attempt fails.
        let mut broken = spd_matrix(6, 8);
        broken.add_diagonal(f64::INFINITY);
        for a in [rank_one, dup, broken] {
            let n = a.rows();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
            let oracle = run(&a, |s| {
                let l = factor_row_order(s)?;
                let y = solve_lower(&l, &b);
                Ok((l, y))
            });
            match n {
                9 => assert!(matches!(oracle, Ok((Some(_), _))), "no retry was forced"),
                6 => assert!(oracle.is_err(), "an attempt succeeded"),
                _ => {}
            }
            for (name, path) in paths() {
                match (run(&a, |s| factor_packed(s, Some(&b), path)), &oracle) {
                    (Ok((shift, (l, y))), Ok((want_shift, (want_l, want_y)))) => {
                        assert_eq!(shift, *want_shift, "{name}, n = {n}");
                        assert!(same_bits(&l, want_l), "{name}, n = {n}");
                        assert!(same_vec_bits(&y, want_y), "{name}, n = {n}");
                    }
                    (Err(err), Err(want)) => {
                        let (
                            LinalgError::NotPositiveDefinite { pivot, value },
                            LinalgError::NotPositiveDefinite {
                                pivot: want_pivot,
                                value: want_value,
                            },
                        ) = (&err, want)
                        else {
                            panic!("{name}, n = {n}: {err:?} vs {want:?}");
                        };
                        assert_eq!(pivot, want_pivot, "{name}, n = {n}");
                        assert_eq!(value.to_bits(), want_value.to_bits(), "{name}, n = {n}");
                    }
                    (got, want) => panic!("{name}, n = {n}: {got:?} vs {want:?}"),
                }
            }
        }
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
            rhs in proptest::collection::vec(-3.0f64..3.0, 40),
        ) {
            let b = Matrix::from_fn(n, n, |i, j| raw[i * n + j]);
            let mut a = &b * &b.transpose();
            a.add_diagonal(diag);
            let rhs = &rhs[..n];
            let oracle = super::tests::factor_row_order(&a);
            let mut got = vec![("factor", Cholesky::factor(&a).map(|c| (c.l().clone(), None)))];
            for (name, path) in super::tests::paths() {
                got.push((name, super::tests::factor_packed(&a, Some(rhs), path).map(|(l, y)| (l, Some(y)))));
            }
            for (name, fast) in got {
                match (fast, &oracle) {
                    (Ok((l, y)), Ok(oracle)) => {
                        prop_assert!(super::tests::same_bits(&l, oracle), "{}", name);
                        if let Some(y) = y {
                            let want = solve_lower(oracle, rhs);
                            prop_assert!(y.iter().zip(&want).all(|(p, q)| p.to_bits() == q.to_bits()), "{}", name);
                        }
                    }
                    (
                        Err(LinalgError::NotPositiveDefinite { pivot, value }),
                        Err(LinalgError::NotPositiveDefinite { pivot: p, value: v }),
                    ) => {
                        prop_assert_eq!(pivot, *p);
                        prop_assert_eq!(value.to_bits(), v.to_bits());
                    }
                    (fast, oracle) => prop_assert!(false, "{name}: {fast:?} vs {oracle:?}"),
                }
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
            let oracle = super::tests::factor_row_order(&a);
            let mut got = vec![("factor", Cholesky::factor(&a).map(|c| c.l().clone()))];
            for (name, path) in super::tests::paths() {
                got.push((name, super::tests::factor_packed(&a, None, path).map(|(l, _)| l)));
            }
            for (name, fast) in got {
                match (fast, &oracle) {
                    (Ok(fast), Ok(oracle)) => {
                        prop_assert!(super::tests::same_bits(&fast, oracle), "{}", name);
                    }
                    (
                        Err(LinalgError::NotPositiveDefinite { pivot, value }),
                        Err(LinalgError::NotPositiveDefinite { pivot: p, value: v }),
                    ) => {
                        prop_assert_eq!(pivot, *p);
                        prop_assert_eq!(value.to_bits(), v.to_bits());
                    }
                    (fast, oracle) => prop_assert!(false, "{name}: {fast:?} vs {oracle:?}"),
                }
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
