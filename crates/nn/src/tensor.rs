//! A minimal dense tensor of `f32` values.
//!
//! [`Tensor`] is the single data container used throughout the training
//! substrate. It stores a row-major buffer plus a shape and provides exactly
//! the operations the layers in [`crate::layers`] need: element access,
//! element-wise arithmetic and matrix multiplication.
//!
//! # Examples
//!
//! ```
//! use autofl_nn::tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

use rayon::prelude::*;
use std::fmt;
use wide::f32x8;

/// SIMD lane width of the register-blocked kernels. Every vectorised loop
/// below is a map over *independent output elements* — lanes never share
/// an accumulation — so lane width is a pure speed knob: results are
/// bit-identical to the scalar reference at any width.
const L: usize = f32x8::LANES;
/// Columns per register strip: four `f32x8` accumulators stay in
/// registers while a full `k` sweep runs over them.
const JR: usize = 4 * L;
/// `k`-block length of the packed `rhsᵀ` panel in [`mm_nt`]: the panel
/// (`KB × L` floats, 8 KiB) lives on the stack and is reused across every
/// row of the band.
const KB: usize = 256;
/// Rows per parallel band. Bands are fixed-size and each output element is
/// produced entirely inside one band, so banding never changes results.
const MC: usize = 64;

std::thread_local! {
    /// Per-thread packing scratch for [`mm_tn`]'s transposed `a` block
    /// (at most `MC × KB` floats). Reused across calls, so steady-state
    /// matmuls allocate nothing; each worker thread of the parallel
    /// banded sweep owns its own buffer.
    static TN_PACK: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}
/// Below this many FLOPs a matmul runs single-threaded: the fan-out
/// bookkeeping would cost more than the arithmetic.
const PAR_FLOPS: usize = 1 << 21;

/// Runs `kernel(first_row, band)` over fixed-size row bands of `out`
/// (`m` rows of `n` columns), in parallel when the problem is large
/// enough. Each band is written by exactly one thread and the band
/// boundaries depend only on `MC`, so the output is bit-identical to the
/// single-band sequential sweep at any thread count.
fn run_banded(
    m: usize,
    n: usize,
    flops: usize,
    out: &mut [f32],
    kernel: impl Fn(usize, &mut [f32]) + Sync,
) {
    if m == 0 || n == 0 {
        return;
    }
    if flops < PAR_FLOPS || m <= MC || rayon::current_num_threads() <= 1 {
        kernel(0, out);
        return;
    }
    out.par_chunks_mut(MC * n)
        .enumerate()
        .for_each(|(band, chunk)| kernel(band * MC, chunk));
}

/// One register-strip pass for the `nn`/`tn` kernels: accumulates
/// `out[j] += av · b[kbase + j]` over ascending `kk` for a strip of `W`
/// columns held in `W / L` vector registers, with the sparse-skip rule
/// (`av == 0.0` contributes nothing, exactly like the scalar reference).
///
/// Each lane is one output element whose additions happen in the same
/// ascending-`k` order as the scalar loop, so the strip is bit-identical
/// to it; keeping the accumulators in registers merely removes the per-`k`
/// load/store of the output row.
#[inline(always)]
fn strip_axpy<const W: usize>(
    out: &mut [f32],
    b: &[f32],
    col: usize,
    n: usize,
    av_of: impl Fn(usize) -> f32,
    k: usize,
) {
    let blocks = W / L;
    let mut acc = [f32x8::ZERO; 8];
    for (i, slot) in acc.iter_mut().take(blocks).enumerate() {
        *slot = f32x8::from_slice(&out[i * L..]);
    }
    for kk in 0..k {
        let av = av_of(kk);
        if av == 0.0 {
            continue;
        }
        let avv = f32x8::splat(av);
        let brow = &b[kk * n + col..kk * n + col + W];
        for (i, slot) in acc.iter_mut().take(blocks).enumerate() {
            *slot += avv * f32x8::from_slice(&brow[i * L..]);
        }
    }
    for (i, slot) in acc.iter().take(blocks).enumerate() {
        slot.write_to_slice(&mut out[i * L..]);
    }
}

/// Scalar column tail shared by [`mm_nn`] and [`mm_tn`].
#[inline(always)]
fn tail_axpy(
    out: &mut [f32],
    b: &[f32],
    col: usize,
    n: usize,
    av_of: impl Fn(usize) -> f32,
    k: usize,
) {
    for (j, o) in out.iter_mut().enumerate() {
        let mut acc = *o;
        for kk in 0..k {
            let av = av_of(kk);
            if av == 0.0 {
                continue;
            }
            acc += av * b[kk * n + col + j];
        }
        *o = acc;
    }
}

/// `out_band[r][j] += Σ_k a[row0+r][k] · b[k][j]` — the `self · rhs`
/// kernel. `k` is processed in `KB` blocks whose `KB × strip` window of
/// `b` stays cache-resident across every row of the band; within a block,
/// column strips of `JR` (then `L`, then scalar) run a full ascending-`k`
/// register sweep. Partial sums round-trip through the output bit-exactly
/// between blocks, so per output element the addition order is exactly
/// the scalar reference's.
fn mm_nn(a: &[f32], b: &[f32], out_band: &mut [f32], row0: usize, k: usize, n: usize) {
    let rows = out_band.len() / n;
    let mut kb = 0;
    while kb < k {
        let ke = (kb + KB).min(k);
        let kl = ke - kb;
        let bblk = &b[kb * n..ke * n];
        let mut j = 0;
        while j + JR <= n {
            for r in 0..rows {
                let arow = &a[(row0 + r) * k + kb..(row0 + r) * k + ke];
                let orow = &mut out_band[r * n + j..r * n + j + JR];
                strip_axpy::<JR>(orow, bblk, j, n, |kk| arow[kk], kl);
            }
            j += JR;
        }
        while j + L <= n {
            for r in 0..rows {
                let arow = &a[(row0 + r) * k + kb..(row0 + r) * k + ke];
                let orow = &mut out_band[r * n + j..r * n + j + L];
                strip_axpy::<L>(orow, bblk, j, n, |kk| arow[kk], kl);
            }
            j += L;
        }
        if j < n {
            for r in 0..rows {
                let arow = &a[(row0 + r) * k + kb..(row0 + r) * k + ke];
                let orow = &mut out_band[r * n + j..r * n + n];
                tail_axpy(orow, bblk, j, n, |kk| arow[kk], kl);
            }
        }
        kb = ke;
    }
}

/// The `self · rhsᵀ` kernel: each output element is the ascending-`k` dot
/// product of an `a` row and a `b` row. An `L`-column panel of `b` is
/// packed transposed into a stack buffer (`KB` rows at a time) so the
/// eight dots of a strip run as one vector accumulator — eight
/// *independent* dependency chains where the scalar loop had one. The
/// output must be zeroed on entry (callers go through
/// [`Tensor::matmul_nt_into`], which resets it): `k`-blocks accumulate
/// into it, which round-trips each partial sum through memory bit-exactly.
fn mm_nt(a: &[f32], b: &[f32], out_band: &mut [f32], row0: usize, k: usize, n: usize) {
    let rows = out_band.len() / n;
    let mut pack = [0.0f32; KB * L];
    let mut j = 0;
    while j + L <= n {
        let mut kb = 0;
        while kb < k {
            let ke = (kb + KB).min(k);
            let kl = ke - kb;
            for lane in 0..L {
                let col = &b[(j + lane) * k + kb..(j + lane) * k + ke];
                for (i, &v) in col.iter().enumerate() {
                    pack[i * L + lane] = v;
                }
            }
            // Four rows at a time: the packed vector load is shared and
            // the four accumulators form independent dependency chains,
            // hiding FP-add latency. Each row's lane still accumulates in
            // ascending-`k` order, bit-equal to the scalar dot.
            let mut r = 0;
            while r + 4 <= rows {
                let base = (row0 + r) * k + kb;
                let a0 = &a[base..base + kl];
                let a1 = &a[base + k..base + k + kl];
                let a2 = &a[base + 2 * k..base + 2 * k + kl];
                let a3 = &a[base + 3 * k..base + 3 * k + kl];
                let mut c0 = f32x8::from_slice(&out_band[r * n + j..]);
                let mut c1 = f32x8::from_slice(&out_band[(r + 1) * n + j..]);
                let mut c2 = f32x8::from_slice(&out_band[(r + 2) * n + j..]);
                let mut c3 = f32x8::from_slice(&out_band[(r + 3) * n + j..]);
                for i in 0..kl {
                    let pv = f32x8::from_slice(&pack[i * L..]);
                    c0 += f32x8::splat(a0[i]) * pv;
                    c1 += f32x8::splat(a1[i]) * pv;
                    c2 += f32x8::splat(a2[i]) * pv;
                    c3 += f32x8::splat(a3[i]) * pv;
                }
                c0.write_to_slice(&mut out_band[r * n + j..]);
                c1.write_to_slice(&mut out_band[(r + 1) * n + j..]);
                c2.write_to_slice(&mut out_band[(r + 2) * n + j..]);
                c3.write_to_slice(&mut out_band[(r + 3) * n + j..]);
                r += 4;
            }
            while r < rows {
                let arow = &a[(row0 + r) * k + kb..(row0 + r) * k + ke];
                let mut acc = f32x8::from_slice(&out_band[r * n + j..]);
                for (i, &av) in arow.iter().enumerate() {
                    acc += f32x8::splat(av) * f32x8::from_slice(&pack[i * L..]);
                }
                acc.write_to_slice(&mut out_band[r * n + j..]);
                r += 1;
            }
            kb = ke;
        }
        j += L;
    }
    // Scalar tail columns (n % L): the original dot-product loop.
    for r in 0..rows {
        let arow = &a[(row0 + r) * k..(row0 + r + 1) * k];
        for jj in j..n {
            let brow = &b[jj * k..(jj + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            out_band[r * n + jj] = acc;
        }
    }
}

/// The `selfᵀ · rhs` kernel (`a` is `[k, m]`). Same `KB`-blocked strip
/// structure as [`mm_nn`]; the `a` operand is read down a column (stride
/// `m`), which stays cache-resident across the block's strips. Per output
/// element the additions are ascending-`k` with the sparse-skip rule —
/// the same sequence the previous rank-1-update formulation performed.
fn mm_tn(a: &[f32], b: &[f32], out_band: &mut [f32], row0: usize, k: usize, m: usize, n: usize) {
    let rows = out_band.len() / n;
    TN_PACK.with(|cell| {
        let mut pack = cell.borrow_mut();
        let mut kb = 0;
        while kb < k {
            let ke = (kb + KB).min(k);
            let kl = ke - kb;
            let bblk = &b[kb * n..ke * n];
            // Transpose-pack the band's `a` columns once per block: the
            // strided stride-`m` walk happens a single time and every
            // strip below reads the packed row contiguously.
            pack.resize(rows * kl, 0.0);
            for r in 0..rows {
                for (i, slot) in pack[r * kl..(r + 1) * kl].iter_mut().enumerate() {
                    *slot = a[(kb + i) * m + row0 + r];
                }
            }
            let mut j = 0;
            while j + JR <= n {
                for r in 0..rows {
                    let arow = &pack[r * kl..(r + 1) * kl];
                    let orow = &mut out_band[r * n + j..r * n + j + JR];
                    strip_axpy::<JR>(orow, bblk, j, n, |kk| arow[kk], kl);
                }
                j += JR;
            }
            while j + L <= n {
                for r in 0..rows {
                    let arow = &pack[r * kl..(r + 1) * kl];
                    let orow = &mut out_band[r * n + j..r * n + j + L];
                    strip_axpy::<L>(orow, bblk, j, n, |kk| arow[kk], kl);
                }
                j += L;
            }
            if j < n {
                for r in 0..rows {
                    let arow = &pack[r * kl..(r + 1) * kl];
                    let orow = &mut out_band[r * n + j..r * n + n];
                    tail_axpy(orow, bblk, j, n, |kk| arow[kk], kl);
                }
            }
            kb = ke;
        }
    });
}

/// A dense, row-major tensor of `f32` values.
///
/// The shape is dynamic (a `Vec<usize>`), which keeps the substrate simple;
/// all shape errors are programming errors and therefore panic rather than
/// returning `Result`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tensor")
            .field("shape", &self.shape)
            .field("len", &self.data.len())
            .finish()
    }
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    ///
    /// # Examples
    ///
    /// ```
    /// # use autofl_nn::tensor::Tensor;
    /// let t = Tensor::zeros(vec![2, 3]);
    /// assert_eq!(t.len(), 6);
    /// ```
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            data.len(),
            "shape {:?} implies {} elements, got {}",
            shape,
            n,
            data.len()
        );
        Tensor { shape, data }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(vec![n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape to {:?} changes length", shape);
        self.shape = shape;
        self
    }

    /// Number of rows when viewed as a 2-D matrix (first dimension).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() requires a 2-D tensor");
        self.shape[0]
    }

    /// Number of columns when viewed as a 2-D matrix (second dimension).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() requires a 2-D tensor");
        self.shape[1]
    }

    /// Element access for a 2-D tensor.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable element access for a 2-D tensor.
    #[inline]
    pub fn at2_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        let cols = self.shape[1];
        &mut self.data[r * cols + c]
    }

    /// Re-shapes this tensor into a zeroed buffer of the given shape,
    /// reusing the existing allocation when its capacity suffices. The
    /// scratch-buffer primitive behind the `*_into` kernels.
    pub(crate) fn reset(&mut self, shape: Vec<usize>) {
        let n: usize = shape.iter().product();
        self.data.clear();
        self.data.resize(n, 0.0);
        self.shape = shape;
    }

    /// Like [`Tensor::reset`] but skips the zero-fill of retained
    /// contents: only newly grown elements are zeroed. For scratch
    /// buffers whose every element the caller overwrites before reading
    /// (e.g. the im2col expansion, which writes padding cells
    /// explicitly) — this drops a full-buffer memset from the hot loop.
    pub(crate) fn reset_unfilled(&mut self, shape: Vec<usize>) {
        let n: usize = shape.iter().product();
        self.data.resize(n, 0.0);
        self.shape = shape;
    }

    /// Matrix multiplication `self · rhs` for 2-D tensors.
    ///
    /// Cache-blocked and (for large products) parallel across fixed row
    /// bands; bit-identical to the naive ikj loop at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree or either tensor is not 2-D.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(vec![0]);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul`] into a caller-held output tensor, reusing its
    /// allocation (the hot-loop variant: no allocation once warm).
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul inner dims: {} vs {}", k, k2);
        out.reset(vec![m, n]);
        let (a, b) = (self.data.as_slice(), rhs.data.as_slice());
        run_banded(m, n, 2 * m * n * k, &mut out.data, |row0, band| {
            mm_nn(a, b, band, row0, k, n)
        });
    }

    /// Matrix multiplication `selfᵀ · rhs` without materialising the transpose.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(vec![0]);
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul_tn`] into a caller-held output tensor.
    pub fn matmul_tn_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.shape.len(), 2);
        assert_eq!(rhs.shape.len(), 2);
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul_tn inner dims: {} vs {}", k, k2);
        out.reset(vec![m, n]);
        let (a, b) = (self.data.as_slice(), rhs.data.as_slice());
        run_banded(m, n, 2 * m * n * k, &mut out.data, |row0, band| {
            mm_tn(a, b, band, row0, k, m, n)
        });
    }

    /// Matrix multiplication `self · rhsᵀ` without materialising the transpose.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(vec![0]);
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul_nt`] into a caller-held output tensor.
    pub fn matmul_nt_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.shape.len(), 2);
        assert_eq!(rhs.shape.len(), 2);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul_nt inner dims: {} vs {}", k, k2);
        out.reset(vec![m, n]);
        let (a, b) = (self.data.as_slice(), rhs.data.as_slice());
        run_banded(m, n, 2 * m * n * k, &mut out.data, |row0, band| {
            mm_nt(a, b, band, row0, k, n)
        });
    }

    /// Returns the transpose of a 2-D tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(vec![n, m], out)
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// In-place multiplication by a scalar.
    pub fn scale(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum absolute element, or 0.0 for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_len_and_shape() {
        let t = Tensor::zeros(vec![3, 4, 5]);
        assert_eq!(t.len(), 60);
        assert_eq!(t.shape(), &[3, 4, 5]);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_rejects_wrong_len() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1.0; 5]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Tensor::from_vec(vec![3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![3, 4], (0..12).map(|x| x as f32).collect());
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![4, 3], (0..12).map(|x| x as f32).collect());
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast, slow);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.clone().reshape(vec![3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), &[3, 2]);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        assert_eq!(a.matmul(&Tensor::eye(2)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn scale_and_add_assign() {
        let mut a = Tensor::full(vec![2], 2.0);
        let b = Tensor::full(vec![2], 3.0);
        a.add_assign(&b);
        a.scale(2.0);
        assert_eq!(a.data(), &[10.0, 10.0]);
    }

    #[test]
    fn max_abs_finds_largest_magnitude() {
        let a = Tensor::from_vec(vec![3], vec![-5.0, 2.0, 4.0]);
        assert_eq!(a.max_abs(), 5.0);
    }

    /// Deterministic pseudo-random matrix (xorshift-free, no rand dep in
    /// unit scope) whose sizes force multiple `MC` bands and `NC` panels.
    fn pseudo(shape: Vec<usize>, seed: u64) -> Tensor {
        let n: usize = shape.iter().product();
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let data: Vec<f32> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Include exact zeros so the sparse-skip path is exercised.
                if state % 17 == 0 {
                    0.0
                } else {
                    ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
                }
            })
            .collect();
        Tensor::from_vec(shape, data)
    }

    /// Reference ikj product with ascending-k accumulation and the same
    /// sparse-skip rule — the exact FP addition order the blocked kernels
    /// must reproduce bit for bit.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a.data()[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * b.data()[kk * n + j];
                }
            }
        }
        Tensor::from_vec(vec![m, n], out)
    }

    fn assert_bits_equal(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive() {
        // 130 rows > 2 bands of MC=64; 300 cols > 1 panel of NC=256.
        let a = pseudo(vec![130, 70], 1);
        let b = pseudo(vec![70, 300], 2);
        assert_bits_equal(&a.matmul(&b), &naive_matmul(&a, &b));
    }

    #[test]
    fn blocked_matmul_tn_is_bit_identical_to_naive() {
        let a = pseudo(vec![70, 130], 3);
        let b = pseudo(vec![70, 300], 4);
        let t = a.transpose();
        assert_bits_equal(&a.matmul_tn(&b), &naive_matmul(&t, &b));
    }

    #[test]
    fn blocked_matmul_nt_is_bit_identical_to_naive() {
        let a = pseudo(vec![130, 70], 5);
        let b = pseudo(vec![300, 70], 6);
        let t = b.transpose();
        assert_bits_equal(&a.matmul_nt(&b), &naive_matmul(&a, &t));
    }

    #[test]
    fn matmul_bits_are_thread_count_invariant() {
        // Big enough to clear PAR_FLOPS so the banded parallel path runs.
        let a = pseudo(vec![256, 96], 7);
        let b = pseudo(vec![96, 128], 8);
        let prev = std::env::var("AUTOFL_THREADS").ok();
        std::env::set_var("AUTOFL_THREADS", "1");
        rayon::refresh_thread_count();
        let seq = a.matmul(&b);
        std::env::set_var("AUTOFL_THREADS", "8");
        rayon::refresh_thread_count();
        let par = a.matmul(&b);
        match prev {
            Some(v) => std::env::set_var("AUTOFL_THREADS", v),
            None => std::env::remove_var("AUTOFL_THREADS"),
        }
        rayon::refresh_thread_count();
        assert_bits_equal(&seq, &par);
    }

    #[test]
    fn matmul_into_reuses_the_output_allocation() {
        let a = pseudo(vec![8, 8], 9);
        let b = pseudo(vec![8, 8], 10);
        let mut out = Tensor::zeros(vec![8, 8]);
        let cap_ptr = out.data().as_ptr();
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data().as_ptr(), cap_ptr, "no realloc for same size");
        assert_bits_equal(&out, &naive_matmul(&a, &b));
    }
}
