//! Dense matrix container with explicit storage order and leading dimension.
//!
//! The GEMM routine layer of the paper (§IV-B) presents a column-major BLAS
//! interface, while the generated kernels consume row-major packed buffers;
//! this container supports both orders so every copy step is testable.

use crate::pack::{View, ViewMut};
use crate::scalar::Scalar;
use crate::Trans;

/// Storage order of a [`Matrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageOrder {
    /// Fortran/BLAS order: element `(i, j)` lives at `i + j·ld`.
    ColMajor,
    /// C order: element `(i, j)` lives at `i·ld + j`.
    RowMajor,
}

/// A dense `rows × cols` matrix backed by a `Vec<T>`.
///
/// The leading dimension `ld` may exceed the minor extent, which lets tests
/// exercise sub-matrix views the way BLAS callers do.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    data: Vec<T>,
    rows: usize,
    cols: usize,
    ld: usize,
    order: StorageOrder,
}

impl<T: Scalar> Matrix<T> {
    /// A `rows × cols` matrix of zeros in the given order with tight `ld`.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize, order: StorageOrder) -> Self {
        Self::zeros_with_ld(rows, cols, Self::tight_ld(rows, cols, order), order)
    }

    /// A zero matrix with an explicit leading dimension.
    ///
    /// # Panics
    /// Panics if `ld` is smaller than the minor extent.
    #[must_use]
    pub fn zeros_with_ld(rows: usize, cols: usize, ld: usize, order: StorageOrder) -> Self {
        let min_ld = Self::tight_ld(rows, cols, order);
        assert!(
            ld >= min_ld,
            "leading dimension {ld} smaller than minimum {min_ld} for {rows}x{cols} {order:?}"
        );
        let len = match order {
            StorageOrder::ColMajor => ld * cols,
            StorageOrder::RowMajor => ld * rows,
        };
        Matrix {
            data: vec![T::ZERO; len.max(1)],
            rows,
            cols,
            ld,
            order,
        }
    }

    /// The smallest legal leading dimension for the shape/order.
    #[must_use]
    pub fn tight_ld(rows: usize, cols: usize, order: StorageOrder) -> usize {
        match order {
            StorageOrder::ColMajor => rows.max(1),
            StorageOrder::RowMajor => cols.max(1),
        }
    }

    /// Build a matrix from a function of the index, `m[(i,j)] = f(i, j)`.
    #[must_use]
    pub fn from_fn(
        rows: usize,
        cols: usize,
        order: StorageOrder,
        mut f: impl FnMut(usize, usize) -> T,
    ) -> Self {
        let mut m = Self::zeros(rows, cols, order);
        for j in 0..cols {
            for i in 0..rows {
                *m.at_mut(i, j) = f(i, j);
            }
        }
        m
    }

    /// A deterministic, well-conditioned test pattern: values in
    /// `[-1, 1]` that differ across the whole matrix. Using a pattern
    /// rather than RNG keeps kernel-validation failures reproducible.
    #[must_use]
    pub fn test_pattern(rows: usize, cols: usize, order: StorageOrder, seed: u64) -> Self {
        Self::from_fn(rows, cols, order, |i, j| {
            // Weyl-like low-discrepancy sequence; cheap and deterministic.
            let x = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((j as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add(seed.wrapping_mul(0x94D0_49BB_1331_11EB));
            let u = (x >> 11) as f64 / (1u64 << 53) as f64; // in [0,1)
            T::from_f64(2.0 * u - 1.0)
        })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension.
    #[must_use]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Storage order.
    #[must_use]
    pub fn order(&self) -> StorageOrder {
        self.order
    }

    /// Flat offset of element `(i, j)`.
    #[inline]
    #[must_use]
    pub fn offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        match self.order {
            StorageOrder::ColMajor => i + j * self.ld,
            StorageOrder::RowMajor => i * self.ld + j,
        }
    }

    /// Element `(i, j)`.
    #[inline]
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> T {
        self.data[self.offset(i, j)]
    }

    /// Mutable reference to element `(i, j)`.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut T {
        let off = self.offset(i, j);
        &mut self.data[off]
    }

    /// Element of `op(self)` at `(i, j)`: transparently applies a transpose.
    #[inline]
    #[must_use]
    pub fn at_op(&self, op: Trans, i: usize, j: usize) -> T {
        match op {
            Trans::No => self.at(i, j),
            Trans::Yes => self.at(j, i),
        }
    }

    /// Dimensions of `op(self)` as `(rows, cols)`.
    #[must_use]
    pub fn dims_op(&self, op: Trans) -> (usize, usize) {
        match op {
            Trans::No => (self.rows, self.cols),
            Trans::Yes => (self.cols, self.rows),
        }
    }

    /// Raw storage (including any `ld` padding).
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// The storage lines — columns of a column-major matrix, rows of a
    /// row-major one — in storage order, as contiguous slices without
    /// the `ld` padding between them.
    pub fn lines(&self) -> impl Iterator<Item = &[T]> {
        let (count, len) = self.line_shape();
        self.data
            .chunks(self.ld)
            .take(count)
            .map(move |l| &l[..len])
    }

    /// [`Matrix::lines`], writable.
    pub fn lines_mut(&mut self) -> impl Iterator<Item = &mut [T]> {
        let (count, len) = self.line_shape();
        self.data
            .chunks_mut(self.ld)
            .take(count)
            .map(move |l| &mut l[..len])
    }

    /// `(number of storage lines, elements per line)`.
    fn line_shape(&self) -> (usize, usize) {
        match self.order {
            StorageOrder::ColMajor => (self.cols, self.rows),
            StorageOrder::RowMajor => (self.rows, self.cols),
        }
    }

    /// Row and column strides: element `(i, j)` lives at `i·rs + j·cs`.
    fn strides(&self) -> (usize, usize) {
        match self.order {
            StorageOrder::ColMajor => (1, self.ld),
            StorageOrder::RowMajor => (self.ld, 1),
        }
    }

    /// A borrowed strided view, what the fast copiers read.
    #[must_use]
    pub fn view(&self) -> View<'_, T> {
        let (rs, cs) = self.strides();
        View::new(&self.data, self.rows, self.cols, rs, cs)
    }

    /// A borrowed writable strided view, what the fast merge writes.
    pub fn view_mut(&mut self) -> ViewMut<'_, T> {
        let (rs, cs) = self.strides();
        ViewMut::new(&mut self.data, self.rows, self.cols, rs, cs)
    }

    /// An explicit out-of-place transpose preserving the storage order.
    #[must_use]
    pub fn transposed(&self) -> Self {
        Self::from_fn(self.cols, self.rows, self.order, |i, j| self.at(j, i))
    }

    /// Convert to the other storage order (same logical contents).
    #[must_use]
    pub fn to_order(&self, order: StorageOrder) -> Self {
        Self::from_fn(self.rows, self.cols, order, |i, j| self.at(i, j))
    }

    /// `true` if every element is finite.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        (0..self.cols).all(|j| (0..self.rows).all(|i| self.at(i, j).is_finite()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_follow_order() {
        let c = Matrix::<f64>::zeros(3, 2, StorageOrder::ColMajor);
        assert_eq!(c.offset(1, 1), 1 + 3);
        let r = Matrix::<f64>::zeros(3, 2, StorageOrder::RowMajor);
        assert_eq!(r.offset(1, 1), 2 + 1);
    }

    #[test]
    fn lines_skip_the_ld_padding() {
        for order in [StorageOrder::ColMajor, StorageOrder::RowMajor] {
            let mut m = Matrix::<f64>::zeros_with_ld(3, 2, 5, order);
            m.as_mut_slice().fill(f64::NAN);
            for (k, line) in m.lines_mut().enumerate() {
                line.iter_mut().for_each(|v| *v = k as f64);
            }
            let (count, len) = match order {
                StorageOrder::ColMajor => (2, 3),
                StorageOrder::RowMajor => (3, 2),
            };
            let lines: Vec<&[f64]> = m.lines().collect();
            assert_eq!(lines.len(), count);
            for (k, line) in lines.iter().enumerate() {
                assert_eq!(*line, &vec![k as f64; len][..]);
            }
            let gaps = m.as_slice().iter().filter(|v| v.is_nan()).count();
            assert_eq!(gaps, m.as_slice().len() - count * len, "padding untouched");
        }
        let empty = Matrix::<f32>::zeros(0, 4, StorageOrder::ColMajor);
        assert!(empty.lines().all(<[f32]>::is_empty));
        assert_eq!(
            Matrix::<f32>::zeros(4, 0, StorageOrder::ColMajor)
                .lines()
                .count(),
            0
        );
    }

    #[test]
    fn padded_ld_is_respected() {
        let mut m = Matrix::<f32>::zeros_with_ld(2, 2, 5, StorageOrder::ColMajor);
        *m.at_mut(1, 1) = 7.0;
        assert_eq!(m.as_slice().len(), 10);
        assert_eq!(m.as_slice()[1 + 5], 7.0);
    }

    #[test]
    #[should_panic(expected = "leading dimension")]
    fn undersized_ld_panics() {
        let _ = Matrix::<f32>::zeros_with_ld(4, 2, 3, StorageOrder::ColMajor);
    }

    #[test]
    fn transpose_is_involution() {
        let m = Matrix::<f64>::test_pattern(5, 7, StorageOrder::ColMajor, 3);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn at_op_applies_transpose() {
        let m = Matrix::<f64>::from_fn(2, 3, StorageOrder::RowMajor, |i, j| (10 * i + j) as f64);
        assert_eq!(m.at_op(Trans::No, 1, 2), 12.0);
        assert_eq!(m.at_op(Trans::Yes, 2, 1), 12.0);
        assert_eq!(m.dims_op(Trans::Yes), (3, 2));
    }

    #[test]
    fn order_conversion_preserves_contents() {
        let m = Matrix::<f32>::test_pattern(4, 6, StorageOrder::ColMajor, 1);
        let r = m.to_order(StorageOrder::RowMajor);
        for j in 0..6 {
            for i in 0..4 {
                assert_eq!(m.at(i, j), r.at(i, j));
            }
        }
    }

    #[test]
    fn test_pattern_is_seed_sensitive_and_bounded() {
        let a = Matrix::<f64>::test_pattern(8, 8, StorageOrder::ColMajor, 0);
        let b = Matrix::<f64>::test_pattern(8, 8, StorageOrder::ColMajor, 1);
        assert_ne!(a, b);
        for j in 0..8 {
            for i in 0..8 {
                assert!(a.at(i, j).abs() <= 1.0);
            }
        }
    }

    #[test]
    fn zero_sized_matrices_are_legal() {
        let m = Matrix::<f64>::zeros(0, 0, StorageOrder::ColMajor);
        assert_eq!(m.rows(), 0);
        assert!(m.all_finite());
    }
}
