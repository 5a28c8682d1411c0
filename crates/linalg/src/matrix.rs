//! Row-major dense `f32` matrix.

use crate::kernels;
use crate::rng::Rng64;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f32` matrix.
///
/// Rows are stored contiguously, so `row(i)` is a cheap slice and iterating
/// samples (rows of a design matrix) never copies.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix by stacking equally sized row slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} expected {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Builds a matrix from owned row vectors.
    pub fn from_row_vecs(rows: Vec<Vec<f32>>) -> Self {
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        Self::from_rows(&refs)
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Fills with samples from `N(0, std^2)` using the given deterministic RNG.
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut Rng64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(rng.normal() as f32 * std);
        }
        Self { rows, cols, data }
    }

    /// Fills with uniform samples in `[lo, hi)`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut Rng64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(lo + rng.gen_f32() * (hi - lo));
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f32> {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterator over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns a new matrix containing only the rows whose indices are given.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.select_rows_into(idx, &mut out);
        out
    }

    /// [`Matrix::select_rows`] into `out` (reshaped to
    /// `idx.len() × self.cols()`, buffer reused) — the mini-batch gather.
    pub fn select_rows_into(&self, idx: &[usize], out: &mut Matrix) {
        out.resize(idx.len(), self.cols);
        for (k, &i) in idx.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
    }

    /// Returns a new matrix containing only the columns whose indices are given.
    pub fn select_cols(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, idx.len());
        for i in 0..self.rows {
            for (k, &j) in idx.iter().enumerate() {
                out[(i, k)] = self[(i, j)];
            }
        }
        out
    }

    /// Appends a row; the matrix must be empty or have matching width.
    pub fn push_row(&mut self, row: &[f32]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "pushed row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix product `self * other` through the register-tiled
    /// [`kernels::gemm`].
    ///
    /// Every output element runs one fixed chain: four inner-dimension
    /// steps fused per group (`fma` after `fma`), all-zero coefficient
    /// groups (common after ReLU) and zero tail coefficients skipped. That
    /// reorders the float sums relative to the naive one-step-at-a-time
    /// loop; results match it to ~1e-6 relative (both are valid roundings
    /// of the same exact sum), which the matmul property test pins down,
    /// and they are bit-identical across kernel implementations.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into `out`, which is reshaped to
    /// `self.rows() × other.cols()` and fully overwritten; its buffer is
    /// reused, so a caller looping over same-sized products does not
    /// allocate.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        out.resize(self.rows, other.cols);
        kernels::gemm(self.matmul_lhs(other), &other.data, other.cols, &mut out.data);
    }

    /// A dense layer's forward product: `self * other + bias`, the bias
    /// added per column at the GEMM's store (one rounding, as `*z += b`
    /// after [`Matrix::matmul_into`]), with the ReLU `relu` asks for in
    /// the same store — see [`kernels::gemm_bias`]. `out` is reshaped to
    /// `self.rows() × other.cols()` and fully overwritten.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch, when `bias` is shorter than
    /// `other.cols()`, or when a [`kernels::Relu::Into`] buffer is shorter
    /// than `out`.
    pub fn matmul_bias_into(
        &self,
        other: &Matrix,
        bias: &[f32],
        out: &mut Matrix,
        relu: kernels::Relu<'_>,
    ) {
        out.resize(self.rows, other.cols);
        let a = self.matmul_lhs(other);
        kernels::gemm_bias(a, &other.data, other.cols, bias, &mut out.data, relu);
    }

    /// `self` as the row-major left operand of `self * other`.
    fn matmul_lhs(&self, other: &Matrix) -> kernels::StridedMat<'_> {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        kernels::StridedMat {
            data: &self.data,
            rows: self.rows,
            cols: self.cols,
            row_stride: self.cols,
            col_stride: 1,
        }
    }

    /// `self^T * other` without materializing the transpose.
    ///
    /// Same tiled kernel and per-element chain as [`Matrix::matmul`], with
    /// `self` read column-wise: the shared (row) dimension is the inner one,
    /// four samples fused per group. Same ~1e-6 sum-reordering note.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.t_matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::t_matmul`] into `out` (reshaped to
    /// `self.cols() × other.cols()`, buffer reused, fully overwritten).
    pub fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        out.resize(self.cols, other.cols);
        let a = kernels::StridedMat {
            data: &self.data,
            rows: self.cols,
            cols: self.rows,
            row_stride: 1,
            col_stride: self.cols,
        };
        kernels::gemm(a, &other.data, other.cols, &mut out.data);
    }

    /// `self * other^T` without materializing the transpose.
    ///
    /// Each output element is one contiguous-row dot product with exactly
    /// [`kernels::dot`]'s recipe (8-lane accumulator chains, `reduce8`);
    /// [`kernels::gemm_nt`] computes them in 4 × 4 tiles so every loaded
    /// block of either row feeds four chains.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_t_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_t`] into `out` (reshaped to
    /// `self.rows() × other.rows()`, buffer reused, fully overwritten).
    pub fn matmul_t_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        out.resize(self.rows, other.rows);
        kernels::gemm_nt(&self.data, self.rows, &other.data, other.rows, self.cols, &mut out.data);
    }

    /// Sets the shape to `rows × cols` in place, reusing the allocation:
    /// the buffer is truncated or zero-extended, so after a change of shape
    /// the cell values are unspecified. This is how the `*_into` products
    /// and reusable batch buffers avoid reallocating.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Element-wise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scalar multiply.
    pub fn scale_inplace(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// `self * s` into a new matrix.
    pub fn scale(&self, s: f32) -> Matrix {
        let mut out = self.clone();
        out.scale_inplace(s);
        out
    }

    /// Element-wise (Hadamard) product into a new matrix.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Per-column mean (length `cols`).
    pub fn col_mean(&self) -> Vec<f32> {
        let mut mean = vec![0.0f64; self.cols];
        for row in self.iter_rows() {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v as f64;
            }
        }
        let n = self.rows.max(1) as f64;
        mean.into_iter().map(|m| (m / n) as f32).collect()
    }

    /// Per-column population standard deviation (length `cols`).
    pub fn col_std(&self) -> Vec<f32> {
        let mean = self.col_mean();
        let mut var = vec![0.0f64; self.cols];
        for row in self.iter_rows() {
            for ((s, &v), &m) in var.iter_mut().zip(row).zip(&mean) {
                let d = (v - m) as f64;
                *s += d * d;
            }
        }
        let n = self.rows.max(1) as f64;
        var.into_iter().map(|s| ((s / n) as f32).sqrt()).collect()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| (v * v) as f64).sum::<f64>().sqrt() as f32
    }

    /// True if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for i in 0..show {
            let row = self.row(i);
            let cells: Vec<String> = row.iter().take(8).map(|v| format!("{v:8.4}")).collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", cells.join(", "), ellipsis)?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = Rng64::new(7);
        let a = Matrix::randn(4, 4, 1.0, &mut rng);
        let c = a.matmul(&Matrix::identity(4));
        for (x, y) in a.as_slice().iter().zip(c.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let mut rng = Rng64::new(3);
        let a = Matrix::randn(5, 3, 1.0, &mut rng);
        let b = Matrix::randn(5, 4, 1.0, &mut rng);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let mut rng = Rng64::new(11);
        let a = Matrix::randn(4, 6, 1.0, &mut rng);
        let b = Matrix::randn(3, 6, 1.0, &mut rng);
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    /// Reference triple loop with strictly in-order accumulation, the
    /// ground truth the blocked kernels are measured against.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for p in 0..a.cols() {
                    acc += a[(i, p)] * b[(p, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_matches_naive_on_awkward_shapes() {
        let mut rng = Rng64::new(77);
        // Shapes straddling the tiles and the 4-step groups: odd inner
        // dims, long inner dims, single row/col edges.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (7, 131, 9), (2, 300, 4), (5, 257, 3)] {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let fast = a.matmul(&b);
            let slow = naive_matmul(&a, &b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y} at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn t_matmul_matches_naive_on_a_long_inner_dimension() {
        let mut rng = Rng64::new(78);
        // 260 shared rows: 65 four-step groups per output element.
        let a = Matrix::randn(260, 6, 1.0, &mut rng);
        let b = Matrix::randn(260, 5, 1.0, &mut rng);
        let fast = a.t_matmul(&b);
        let slow = naive_matmul(&a.transpose(), &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_t_handles_row_counts_off_the_unroll() {
        let mut rng = Rng64::new(79);
        // 6 = one 4-wide pass plus a 2-wide scalar tail.
        let a = Matrix::randn(3, 9, 1.0, &mut rng);
        let b = Matrix::randn(6, 9, 1.0, &mut rng);
        let fast = a.matmul_t(&b);
        let slow = naive_matmul(&a, &b.transpose());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    /// Chain-order reference of [`kernels::gemm`]: a `+0.0` accumulator,
    /// aligned four-step `fma` groups skipped when all four coefficients
    /// are zero, then zero-skipped single tail steps.
    fn chain_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let (k, groups) = (a.cols(), a.cols() / 4 * 4);
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for p in (0..groups).step_by(4) {
                    let c = [a[(i, p)], a[(i, p + 1)], a[(i, p + 2)], a[(i, p + 3)]];
                    if c != [0.0; 4] {
                        for (q, &cq) in c.iter().enumerate() {
                            acc = cq.mul_add(b[(p + q, j)], acc);
                        }
                    }
                }
                for p in groups..k {
                    if a[(i, p)] != 0.0 {
                        acc = a[(i, p)].mul_add(b[(p, j)], acc);
                    }
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// Reference of [`kernels::dot`]'s recipe for `a · bᵀ`: element `p`
    /// feeds lane `p % 8`, and the lanes fold in the `reduce8` tree.
    fn chain_matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut l = [0.0f32; 8];
                for p in 0..a.cols() {
                    l[p % 8] = a[(i, p)].mul_add(b[(j, p)], l[p % 8]);
                }
                out[(i, j)] = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
            }
        }
        out
    }

    /// A matrix as the scorer's layers see it: ReLU zeros, whole zero
    /// four-step groups (a quarter of them) and `-0.0` entries.
    fn relu_like(rows: usize, cols: usize, rng: &mut Rng64) -> Matrix {
        let mut m = Matrix::randn(rows, cols, 1.0, rng);
        for i in 0..rows {
            let row = m.row_mut(i);
            for g in row.chunks_mut(4) {
                if rng.gen_f32() < 0.25 {
                    g.fill(0.0);
                }
            }
            for v in row.iter_mut() {
                let u = rng.gen_f32();
                if u < 0.05 {
                    *v = -0.0;
                } else if u < 0.3 {
                    *v = v.max(0.0);
                }
            }
        }
        m
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `matmul`, `t_matmul` and `matmul_t` equal their chain-order
    /// references bit for bit on shapes straddling the `GEMM_MR`-row tiles,
    /// the 8/16/32-column panels, the four-step groups and the 8-lane dot
    /// blocks, with ReLU-style zero groups and `-0.0` inputs.
    #[test]
    fn gemms_bit_identical_to_chain_reference() {
        let mut rng = Rng64::new(2024);
        for m in 1..=9 {
            for k in [1, 3, 4, 5, 127, 128, 129, 300] {
                for n in [1, 15, 16, 17, 31, 32, 33, 300] {
                    let a = relu_like(m, k, &mut rng);
                    let b = relu_like(k, n, &mut rng);
                    let want = bits(&chain_matmul(&a, &b));
                    assert_eq!(bits(&a.matmul(&b)), want, "matmul {m}x{k}x{n}");
                    assert_eq!(bits(&a.transpose().t_matmul(&b)), want, "t_matmul {m}x{k}x{n}");
                    let bt = b.transpose();
                    let want_t = bits(&chain_matmul_t(&a, &bt));
                    assert_eq!(bits(&a.matmul_t(&bt)), want_t, "matmul_t {m}x{k}x{n}");
                }
            }
        }
    }

    /// The `*_into` variants reuse a buffer of any previous shape.
    #[test]
    fn into_variants_reshape_and_overwrite() {
        let mut rng = Rng64::new(5);
        let a = Matrix::randn(6, 5, 1.0, &mut rng);
        let b = Matrix::randn(5, 7, 1.0, &mut rng);
        let mut out = Matrix::filled(9, 9, f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        a.t_matmul_into(&a, &mut out);
        assert_eq!(out, a.t_matmul(&a));
        a.matmul_t_into(&a, &mut out);
        assert_eq!(out, a.matmul_t(&a));
        a.select_rows_into(&[4, 1], &mut out);
        assert_eq!(out, a.select_rows(&[4, 1]));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng64::new(1);
        let a = Matrix::randn(3, 7, 1.0, &mut rng);
        assert_eq!(a, a.transpose().transpose());
    }

    #[test]
    fn col_mean_and_std() {
        let m = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 10.0]]);
        assert_eq!(m.col_mean(), vec![2.0, 10.0]);
        let std = m.col_std();
        assert!((std[0] - 1.0).abs() < 1e-6);
        assert!(std[1].abs() < 1e-6);
    }

    #[test]
    fn select_rows_and_cols() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let r = m.select_rows(&[2, 0]);
        assert_eq!(r.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(r.row(1), &[1.0, 2.0, 3.0]);
        let c = m.select_cols(&[1]);
        assert_eq!(c.col(0), vec![2.0, 5.0, 8.0]);
    }

    #[test]
    fn push_row_grows_empty_matrix() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.hadamard(&b).row(0), &[3.0, 8.0]);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = Rng64::new(42);
        let mut r2 = Rng64::new(42);
        let a = Matrix::randn(3, 3, 1.0, &mut r1);
        let b = Matrix::randn(3, 3, 1.0, &mut r2);
        assert_eq!(a, b);
    }
}
