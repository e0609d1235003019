//! Owned matrices and strided views.
//!
//! Storage is row-major. A view carries an explicit row stride so a view can
//! describe any rectangular window of a larger matrix; all kernels in this
//! crate take views, which lets distributed schedules run kernels in place on
//! tiles of their local buffers.

use std::fmt;
use std::ops::{Index, IndexMut};

/// An owned, row-major, dense `f64` matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// Create a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Matrix { data, rows, cols }
    }

    /// Build a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { data, rows, cols }
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

    /// Underlying row-major storage.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying row-major storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix and return its storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Immutable view of the whole matrix.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_> {
        MatRef {
            data: &self.data,
            rows: self.rows,
            cols: self.cols,
            stride: self.cols,
        }
    }

    /// Mutable view of the whole matrix.
    #[inline]
    pub fn as_mut(&mut self) -> MatMut<'_> {
        MatMut {
            rows: self.rows,
            cols: self.cols,
            stride: self.cols,
            data: &mut self.data,
        }
    }

    /// Immutable view of the `nr × nc` window starting at `(r0, c0)`.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatRef<'_> {
        self.as_ref().block(r0, c0, nr, nc)
    }

    /// Mutable view of the `nr × nc` window starting at `(r0, c0)`.
    pub(crate) fn block_mut(&mut self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatMut<'_> {
        self.as_mut().block(r0, c0, nr, nc)
    }

    /// Transposed copy of the matrix.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Copy a row into a new vector.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable slice of a row.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl xmpi::Wire for Matrix {
    /// Dimensions then elements, row-major, each `f64` as raw IEEE bits —
    /// a matrix shipped between rank processes round-trips bit-exactly.
    fn encode(&self, out: &mut Vec<u8>) {
        self.rows.encode(out);
        self.cols.encode(out);
        self.data.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, xmpi::XmpiError> {
        let rows = usize::decode(input)?;
        let cols = usize::decode(input)?;
        let data = Vec::<f64>::decode(input)?;
        if data.len() != rows * cols {
            return Err(xmpi::XmpiError::Truncated {
                expected: rows * cols,
                got: data.len(),
                src: 0,
                tag: 0,
            });
        }
        Ok(Matrix { data, rows, cols })
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Immutable strided view of a row-major matrix window.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a> MatRef<'a> {
    /// Construct a view over raw row-major storage with an explicit stride.
    ///
    /// # Panics
    /// If the window described by `(rows, cols, stride)` overruns `data`.
    pub fn from_slice(data: &'a [f64], rows: usize, cols: usize, stride: usize) -> Self {
        assert!(cols <= stride || rows == 0);
        assert!(rows == 0 || (rows - 1) * stride + cols <= data.len());
        MatRef {
            data,
            rows,
            cols,
            stride,
        }
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

    /// Row stride of the underlying storage.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.stride + j]
    }

    /// Contiguous slice of row `i` (length `cols`).
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.stride..i * self.stride + self.cols]
    }

    /// Sub-window view.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatRef<'a> {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "block out of range"
        );
        let start = r0 * self.stride + c0;
        let end = if nr == 0 {
            start
        } else {
            start + (nr - 1) * self.stride + nc
        };
        MatRef {
            data: &self.data[start..end],
            rows: nr,
            cols: nc,
            stride: self.stride,
        }
    }

    /// Copy this window into an owned matrix.
    pub fn to_owned(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            m.row_mut(i).copy_from_slice(self.row(i));
        }
        m
    }
}

/// Mutable strided view of a row-major matrix window.
pub struct MatMut<'a> {
    data: &'a mut [f64],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a> MatMut<'a> {
    /// Construct a mutable view over raw row-major storage.
    ///
    /// # Panics
    /// If the window described by `(rows, cols, stride)` overruns `data`.
    pub fn from_slice(data: &'a mut [f64], rows: usize, cols: usize, stride: usize) -> Self {
        assert!(cols <= stride || rows == 0);
        assert!(rows == 0 || (rows - 1) * stride + cols <= data.len());
        MatMut {
            data,
            rows,
            cols,
            stride,
        }
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

    /// Row stride of the underlying storage.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.stride + j]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.stride + j] = v;
    }

    /// Contiguous slice of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.stride..i * self.stride + self.cols]
    }

    /// Mutable contiguous slice of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.stride..i * self.stride + self.cols]
    }

    /// Reborrow as an immutable view.
    #[inline]
    pub fn rb(&self) -> MatRef<'_> {
        MatRef {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            stride: self.stride,
        }
    }

    /// Pointer to entry `(0, 0)`; entry `(i, j)` of the window is
    /// `i·stride + j` values further, and nothing else is (the macro-kernel
    /// hands the microkernel its rows of `C` this way).
    #[inline]
    pub(crate) fn as_mut_ptr(&mut self) -> *mut f64 {
        self.data.as_mut_ptr()
    }

    /// Reborrow as a shorter-lived mutable view.
    #[inline]
    pub(crate) fn rb_mut(&mut self) -> MatMut<'_> {
        MatMut {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            stride: self.stride,
        }
    }

    /// Mutable sub-window view (consumes the borrow).
    pub fn block(self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatMut<'a> {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "block out of range"
        );
        let start = r0 * self.stride + c0;
        let end = if nr == 0 {
            start
        } else {
            start + (nr - 1) * self.stride + nc
        };
        MatMut {
            data: &mut self.data[start..end],
            rows: nr,
            cols: nc,
            stride: self.stride,
        }
    }

    /// Split into two disjoint mutable views at row `r` (top gets rows `0..r`).
    pub(crate) fn split_rows(self, r: usize) -> (MatMut<'a>, MatMut<'a>) {
        assert!(r <= self.rows);
        // The top view must not include the bytes of the bottom view; split
        // the backing slice at the start of row `r`.
        let split = r * self.stride;
        let (lo, hi) = self.data.split_at_mut(split.min(self.data.len()));
        (
            MatMut {
                data: lo,
                rows: r,
                cols: self.cols,
                stride: self.stride,
            },
            MatMut {
                data: hi,
                rows: self.rows - r,
                cols: self.cols,
                stride: self.stride,
            },
        )
    }

    /// Copy from a same-shaped source view.
    pub fn copy_from(&mut self, src: MatRef<'_>) {
        assert_eq!(self.rows, src.rows());
        assert_eq!(self.cols, src.cols());
        for i in 0..self.rows {
            self.row_mut(i).copy_from_slice(src.row(i));
        }
    }

    /// Fill every entry with `v`.
    pub fn fill(&mut self, v: f64) {
        for i in 0..self.rows {
            self.row_mut(i).fill(v);
        }
    }

    /// Copy this window into an owned matrix.
    pub fn to_owned(&self) -> Matrix {
        self.rb().to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_and_indexing() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn block_views_window_correctly() {
        let m = Matrix::from_fn(4, 5, |i, j| (i * 100 + j) as f64);
        let b = m.block(1, 2, 2, 3);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.cols(), 3);
        assert_eq!(b.get(0, 0), 102.0);
        assert_eq!(b.get(1, 2), 204.0);
        // Nested block.
        let bb = b.block(1, 1, 1, 2);
        assert_eq!(bb.get(0, 0), 203.0);
    }

    #[test]
    fn block_mut_writes_through() {
        let mut m = Matrix::zeros(4, 4);
        {
            let mut b = m.block_mut(2, 2, 2, 2);
            b.set(0, 0, 7.0);
            b.row_mut(1)[1] = 3.0;
        }
        assert_eq!(m[(2, 2)], 7.0);
        assert_eq!(m[(3, 3)], 3.0);
    }

    #[test]
    fn split_rows_gives_disjoint_views() {
        let mut m = Matrix::from_fn(4, 3, |i, _| i as f64);
        let (mut top, mut bot) = m.as_mut().split_rows(2);
        assert_eq!(top.rows(), 2);
        assert_eq!(bot.rows(), 2);
        top.set(0, 0, -1.0);
        bot.set(0, 0, -2.0);
        assert_eq!(m[(0, 0)], -1.0);
        assert_eq!(m[(2, 0)], -2.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j * 13) as f64);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn copy_from_respects_strides() {
        let src = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let mut dst = Matrix::zeros(4, 4);
        dst.block_mut(0, 0, 2, 2).copy_from(src.block(2, 2, 2, 2));
        assert_eq!(dst[(0, 0)], 10.0);
        assert_eq!(dst[(1, 1)], 15.0);
        assert_eq!(dst[(3, 3)], 0.0);
    }

    #[test]
    #[should_panic]
    fn block_out_of_range_panics() {
        let m = Matrix::zeros(3, 3);
        let _ = m.block(2, 2, 2, 2);
    }

    #[test]
    fn zero_sized_views_are_fine() {
        let m = Matrix::zeros(3, 3);
        let b = m.block(3, 0, 0, 3);
        assert_eq!(b.rows(), 0);
        let b2 = m.block(0, 0, 0, 0);
        assert_eq!(b2.cols(), 0);
    }
}
