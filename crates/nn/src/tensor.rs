//! Dense row-major 2-D `f32` tensor.
//!
//! Everything the UCAD models need is expressible over matrices: a batch of
//! `L` operation embeddings is an `L x h` tensor, attention scores are
//! `L x L`, and vectors are `1 x n` / `n x 1` matrices. Keeping the type 2-D
//! keeps indexing, broadcasting and the autograd backward passes simple and
//! auditable.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Mutable base pointer of an output buffer, handed to pool chunks that
/// write *disjoint* row ranges. Sound because `run_rows` partitions
/// `0..rows` into non-overlapping chunks and the kernel for rows
/// `[r0, r1)` only touches `out[r0 * cols .. r1 * cols]`.
struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor (rather than direct field use) so closures capture the
    /// `Sync` wrapper, not the raw pointer, under disjoint capture rules.
    #[inline]
    fn get(&self) -> *mut f32 {
        self.0
    }
}

/// Below this many multiply-adds a matmul is not worth dispatching to the
/// pool: the fork/join handshake would dominate. Chosen so the scenario-I
/// toy configs stay inline while serving/training shapes engage the pool.
const PAR_MIN_FLOPS: usize = 32 * 1024;

/// Runs `body(r0, r1)` over a disjoint cover of `0..rows`, in parallel on
/// the current pool when the work is large enough, inline otherwise. The
/// per-row computation must be independent across rows; under that
/// contract results are bit-identical at any thread count because
/// partitioning only decides *who* computes each output row, never the
/// order of the summation inside it.
fn run_rows(rows: usize, flops: usize, body: impl Fn(usize, usize) + Sync) {
    if rows >= 2 && flops >= PAR_MIN_FLOPS {
        let pool = ucad_pool::current();
        if pool.threads() > 1 {
            pool.parallel_for(rows, 1, body);
            return;
        }
    }
    body(0, rows);
}

/// Output rows at most this wide accumulate in a register block (see
/// [`product`]): eight `f32` lanes, two SSE or one AVX register, as wide as
/// the widest attention head of the paper's configurations (`h / m` is 5
/// or 8).
const NARROW: usize = 8;

/// The i-k-j kernel behind every matrix product: writes the row-major
/// `rows x rhs.cols` product `out[i][j] = Σ_k a(i, k) * rhs[k][j]` over the
/// rows `k` of `rhs` into `out`, overwriting what it held. Every output
/// element starts at `0.0` and adds its terms k-ascending, skipping
/// `a(i, k) == 0.0` (which makes padding and `k0` embeddings free); output
/// rows are partitioned over the pool by [`run_rows`]. Because each element
/// is its own sum, a column of the product depends only on the same column
/// of `rhs`: multiplying by column-concatenated weights gives, bit for bit,
/// the concatenation of the separate products.
///
/// The innermost loop runs across an output row. A row of at most
/// [`NARROW`] columns (attention heads are `h / m` wide) is accumulated in
/// a fixed-width local block over a zero-padded copy of `rhs`, so each `k`
/// is one full-width vector multiply-add instead of a short loop that
/// re-reads and re-writes the output row. The padding lanes are discarded,
/// so the kept lanes are the same f32 sums.
fn product_into(
    rows: usize,
    rhs: &Tensor,
    a: impl Fn(usize, usize) -> f32 + Sync,
    out: &mut [f32],
) {
    let (inner, n) = rhs.shape();
    assert_eq!(out.len(), rows * n, "product output length mismatch");
    if n == 0 {
        return;
    }
    let padded: Vec<f32> = if n <= NARROW {
        let mut padded = vec![0.0; inner * NARROW];
        for (dst, src) in padded
            .chunks_exact_mut(NARROW)
            .zip(rhs.data.chunks_exact(n))
        {
            dst[..n].copy_from_slice(src);
        }
        padded
    } else {
        Vec::new()
    };
    let out_ptr = SendPtr(out.as_mut_ptr());
    run_rows(rows, rows * inner * n, |r0, r1| {
        // SAFETY: chunks cover disjoint row ranges of `out` (see SendPtr).
        let out_rows =
            unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(r0 * n), (r1 - r0) * n) };
        for (i, out_row) in (r0..r1).zip(out_rows.chunks_exact_mut(n)) {
            if n <= NARROW {
                let mut acc = [0.0f32; NARROW];
                for (k, b_row) in padded.chunks_exact(NARROW).enumerate() {
                    let av = a(i, k);
                    if av == 0.0 {
                        continue;
                    }
                    for (o, &b) in acc.iter_mut().zip(b_row) {
                        *o += av * b;
                    }
                }
                out_row.copy_from_slice(&acc[..n]);
                continue;
            }
            out_row.fill(0.0);
            for (k, b_row) in rhs.data.chunks_exact(n).enumerate() {
                let av = a(i, k);
                if av == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += av * b;
                }
            }
        }
    });
}

/// [`product_into`] into a fresh `rows x rhs.cols` tensor.
fn product(rows: usize, rhs: &Tensor, a: impl Fn(usize, usize) -> f32 + Sync) -> Tensor {
    let mut out = Tensor::zeros(rows, rhs.cols);
    product_into(rows, rhs, a, &mut out.data);
    out
}

/// `rows` rows of `cols` values read in place from a row-major buffer: row
/// `i` is `data[i * stride..i * stride + cols]`. With `stride > cols` a
/// view picks a column block out of a wider matrix, such as one head's
/// columns of packed projections.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a> Rows<'a> {
    /// A view of `rows x cols` values with row stride `stride`.
    ///
    /// # Panics
    /// Panics if `cols > stride` or `data` ends before the last row does.
    pub fn new(data: &'a [f32], rows: usize, cols: usize, stride: usize) -> Self {
        assert!(
            cols <= stride && (rows == 0 || (rows - 1) * stride + cols <= data.len()),
            "rows view out of range: {rows}x{cols} with stride {stride} over {} values",
            data.len()
        );
        Rows {
            data,
            rows,
            cols,
            stride,
        }
    }

    /// Row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f32] {
        &self.data[i * self.stride..i * self.stride + self.cols]
    }
}

/// The mutable counterpart of [`Rows`]: a writable column block of a
/// row-major buffer.
#[derive(Debug)]
pub struct RowsMut<'a> {
    data: &'a mut [f32],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a> RowsMut<'a> {
    /// A writable view of `rows x cols` values with row stride `stride`.
    ///
    /// # Panics
    /// Panics if `cols > stride` or `data` ends before the last row does.
    pub fn new(data: &'a mut [f32], rows: usize, cols: usize, stride: usize) -> Self {
        Rows::new(data, rows, cols, stride);
        RowsMut {
            data,
            rows,
            cols,
            stride,
        }
    }

    /// Row `i`, writable.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.stride..i * self.stride + self.cols]
    }
}

/// Reusable scratch for [`Tensor::masked_attention`]: the `d x n`
/// transposed keys and one `n`-length score row, grown to the largest
/// window seen. Build one per thread and reuse it across windows and
/// heads.
#[derive(Debug, Default)]
pub struct AttentionScratch {
    kt: Vec<f32>,
    row: Vec<f32>,
}

/// The one layer-norm formula (Eq. 6), over one row in place:
/// `row = gain * (row - mu) / sqrt(var + eps) + bias`, also writing the
/// normalised input to `xhat` when given. Returns `1 / sqrt(var + eps)`.
#[allow(clippy::needless_range_loop)] // parallel-buffer numeric kernel
fn layer_norm_row(
    row: &mut [f32],
    gain: &Tensor,
    bias: &Tensor,
    eps: f32,
    mut xhat: Option<&mut [f32]>,
) -> f32 {
    let cols = row.len();
    let mu: f32 = row.iter().sum::<f32>() / cols as f32;
    let var: f32 = row.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / cols as f32;
    let is = 1.0 / (var + eps).sqrt();
    for c in 0..cols {
        let xh = (row[c] - mu) * is;
        if let Some(xhat) = xhat.as_deref_mut() {
            xhat[c] = xh;
        }
        row[c] = gain.data[c] * xh + bias.data[c];
    }
    is
}

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Creates a `rows x cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Tensor { rows, cols, data }
    }

    /// Creates a `1 x n` row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Tensor {
            rows: 1,
            cols,
            data,
        }
    }

    /// Creates a scalar (`1 x 1`) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            rows: 1,
            cols: 1,
            data: vec![value],
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single element of a `1 x 1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1 x 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// Matrix product `self * rhs`.
    ///
    /// Uses the cache-friendly i-k-j loop order, partitioned across output
    /// rows on the current [`ucad_pool`] pool when the product is large
    /// enough. Each output row is produced by exactly one thread with the
    /// same k-ascending accumulation as the sequential loop, so the result
    /// is bit-identical at any thread count.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let cols = self.cols;
        product(self.rows, rhs, |i, k| self.data[i * cols + k])
    }

    /// [`Tensor::matmul`] of the row-major `lhs` (`rows x rhs.rows()`),
    /// written over `out` (`rows x rhs.cols()`) instead of a fresh tensor:
    /// the same f32 sums, for callers that reuse one buffer across
    /// products.
    ///
    /// # Panics
    /// Panics if `rhs` has no rows or a length does not fit the shapes.
    pub fn matmul_into(lhs: &[f32], rhs: &Tensor, out: &mut [f32]) {
        let inner = rhs.rows;
        assert!(
            inner > 0
                && lhs.len().is_multiple_of(inner)
                && out.len() == lhs.len() / inner * rhs.cols,
            "matmul_into shape mismatch: {} values * {}x{} into {}",
            lhs.len(),
            rhs.rows,
            rhs.cols,
            out.len()
        );
        product_into(lhs.len() / inner, rhs, |i, k| lhs[i * inner + k], out);
    }

    /// Product `self * rhs^T`: `out[i][j] = Σ_k self[i,k] * rhs[j,k]`.
    ///
    /// Transposes `rhs` once, then runs [`Tensor::matmul`]'s i-k-j loop over
    /// the copy, so the innermost loop is a contiguous axpy across output
    /// columns that vectorises; a dot product per output element cannot,
    /// its k-ascending sum being one serial dependency chain. Every output
    /// element still starts at `0.0` and adds `self[i,k] * rhs[j,k]`
    /// k-ascending with the `self[i,k] == 0.0` skip.
    ///
    /// # Panics
    /// Panics unless `self.cols == rhs.cols`.
    pub fn matmul_bt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_bt shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.matmul(&rhs.transpose())
    }

    /// Fused masked attention for one window and one head:
    /// `out = softmax_rows(q * k^T * scale + mask) * v`, reading every
    /// operand in place through [`Rows`] views (one head's columns of
    /// batched, head-packed projections) and writing each output row into
    /// `out`, which may be that head's column block of the concatenated
    /// multi-head output. `q`, `mask` and `out` hold the same `r` query
    /// rows; `k` and `v` hold the window's `n` keys; `q`, `k`, `v` and `out`
    /// are `d` columns wide and `mask` `n`. Query rows are independent, so
    /// any subset of a window's rows (only the last one, say) computes
    /// exactly those rows of the full attention.
    ///
    /// Bit-identical per row to the composed reference
    /// `q.matmul_bt(k).scale(scale).add(mask).softmax_rows().matmul(v)`:
    /// `k` is transposed once into scratch so `q * k^T` accumulates in the
    /// i-k-j order of [`Tensor::matmul`] over contiguous keys, which gives
    /// every score the same k-ascending additions and `q[i,k] == 0.0` skip
    /// as [`Tensor::matmul_bt`]; scale, mask and the max → exp → sum →
    /// divide softmax of [`Tensor::softmax_rows`] then run in one reused
    /// `n`-length row, and `A * v` accumulates exactly as `matmul` does.
    /// Always runs inline on the calling thread.
    ///
    /// # Panics
    /// Panics if the views' shapes do not match as above.
    pub fn masked_attention(
        q: Rows<'_>,
        k: Rows<'_>,
        v: Rows<'_>,
        mask: Rows<'_>,
        scale: f32,
        mut out: RowsMut<'_>,
        scratch: &mut AttentionScratch,
    ) {
        let (r, n, d) = (q.rows, k.rows, q.cols);
        assert!(
            n > 0
                && d > 0
                && k.cols == d
                && (v.rows, v.cols) == (n, d)
                && (mask.rows, mask.cols) == (r, n)
                && (out.rows, out.cols) == (r, d),
            "masked_attention shape mismatch: q {}x{}, k {}x{}, v {}x{}, mask {}x{}, out {}x{}",
            q.rows,
            q.cols,
            k.rows,
            k.cols,
            v.rows,
            v.cols,
            mask.rows,
            mask.cols,
            out.rows,
            out.cols
        );
        scratch.kt.resize(d * n, 0.0);
        scratch.row.resize(n, 0.0);
        let kt = &mut scratch.kt[..d * n];
        for j in 0..n {
            for (c, &kv) in k.row(j).iter().enumerate() {
                kt[c * n + j] = kv;
            }
        }
        let s = &mut scratch.row[..n];
        for i in 0..r {
            s.fill(0.0);
            for (&a, kt_row) in q.row(i).iter().zip(kt.chunks_exact(n)) {
                if a == 0.0 {
                    continue;
                }
                for (sj, &b) in s.iter_mut().zip(kt_row) {
                    *sj += a * b;
                }
            }
            for (sj, &m) in s.iter_mut().zip(mask.row(i)) {
                *sj = *sj * scale + m;
            }
            let max = s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for sj in s.iter_mut() {
                *sj = (*sj - max).exp();
                sum += *sj;
            }
            if sum > 0.0 {
                for sj in s.iter_mut() {
                    *sj /= sum;
                }
            }
            let o_row = out.row_mut(i);
            o_row.fill(0.0);
            for (j, &a) in s.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in o_row.iter_mut().zip(v.row(j)) {
                    *o += a * b;
                }
            }
        }
    }

    /// Product `self^T * rhs` without materializing the transpose:
    /// `out[i][j] = Σ_k self[k,i] * rhs[k,j]`.
    ///
    /// Bit-identical to `self.transpose().matmul(rhs)`: the same i-k-j loop
    /// as [`Tensor::matmul`] reads `self` column-wise, so each output
    /// element sees the same k-ascending f32 additions and `self[k,i] ==
    /// 0.0` skip. Partitioned across output rows (columns of `self`).
    ///
    /// # Panics
    /// Panics unless `self.rows == rhs.rows`.
    pub fn matmul_at(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_at shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let cols = self.cols;
        product(cols, rhs, |i, k| self.data[k * cols + i])
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum; shapes must match.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Element-wise difference; shapes must match.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product; shapes must match.
    pub fn hadamard(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Applies `f` element-wise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place element-wise `self += rhs`.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += *b;
        }
    }

    /// In-place `self += rhs * s` (axpy).
    pub fn add_scaled(&mut self, rhs: &Tensor, s: f32) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += *b * s;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius (element-wise L2) norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Per-row sums as an `rows x 1` column tensor.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum();
        }
        out
    }

    /// Row-wise softmax (numerically stabilized by max subtraction).
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..self.rows {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }

    /// Dot product of two equally shaped tensors viewed as flat vectors.
    pub fn dot(&self, rhs: &Tensor) -> f32 {
        assert_eq!(self.shape(), rhs.shape(), "dot shape mismatch");
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Horizontal concatenation of tensors with equal row counts.
    ///
    /// # Panics
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let rows = parts[0].rows;
        assert!(
            parts.iter().all(|p| p.rows == rows),
            "concat_cols row mismatch"
        );
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Tensor::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                out.data[r * cols + offset..r * cols + offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Copy of the column range `[start, end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.cols, "slice_cols out of range");
        let cols = end - start;
        let mut out = Tensor::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Gathers rows by index: `out[i] = self[indices[i]]`.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < self.rows, "gather_rows index {} out of range", idx);
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Row-broadcast sum: `out[r] = self[r] + row` with `row` a `1 x c`
    /// vector. Shared by the tape `AddRow` op and the tape-free evaluation
    /// path (through [`Tensor::add_row_in_place`]) so the two cannot drift
    /// numerically.
    ///
    /// # Panics
    /// Panics unless `row` is `1 x self.cols()`.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert_eq!(row.shape(), (1, self.cols), "add_row shape mismatch");
        let mut out = self.clone();
        Self::add_row_in_place(&mut out.data, row);
        out
    }

    /// [`Tensor::add_row_broadcast`] over the row-major rows of `x`, in
    /// place: adds the `1 x c` vector `row` to every `c`-wide row.
    ///
    /// # Panics
    /// Panics unless `row` is one row whose width divides `x.len()`.
    pub fn add_row_in_place(x: &mut [f32], row: &Tensor) {
        assert!(
            row.rows == 1 && row.cols > 0 && x.len().is_multiple_of(row.cols),
            "add_row shape mismatch"
        );
        for x_row in x.chunks_exact_mut(row.cols) {
            for (o, b) in x_row.iter_mut().zip(row.data.iter()) {
                *o += *b;
            }
        }
    }

    /// Row-wise layer normalization forward (Eq. 6 of the UCAD paper):
    /// `out = gain * (x - mu) / sqrt(var + eps) + bias` per row, returning
    /// `(out, xhat, inv_std)` where `xhat` is the normalized input and
    /// `inv_std[r] = 1 / sqrt(var_r + eps)` — the quantities the backward
    /// pass needs. Shared by the tape `LayerNorm` op and the tape-free
    /// evaluation path (through [`Tensor::layer_norm_in_place`]) so the two
    /// cannot drift numerically.
    ///
    /// # Panics
    /// Panics unless `gain` and `bias` are `1 x self.cols()`.
    pub fn layer_norm_forward(
        &self,
        gain: &Tensor,
        bias: &Tensor,
        eps: f32,
    ) -> (Tensor, Tensor, Vec<f32>) {
        let (rows, cols) = self.shape();
        assert_eq!(gain.shape(), (1, cols), "layer_norm gain shape");
        assert_eq!(bias.shape(), (1, cols), "layer_norm bias shape");
        let mut xhat = Tensor::zeros(rows, cols);
        let mut out = self.clone();
        let inv_std = (0..rows)
            .map(|r| layer_norm_row(out.row_mut(r), gain, bias, eps, Some(xhat.row_mut(r))))
            .collect();
        (out, xhat, inv_std)
    }

    /// [`Tensor::layer_norm_forward`]'s output over the row-major rows of
    /// `x`, normalised in place (no `xhat` or `inv_std`): the evaluation
    /// forward's layer norm.
    ///
    /// # Panics
    /// Panics unless `gain` and `bias` are one row whose width divides
    /// `x.len()`.
    pub fn layer_norm_in_place(x: &mut [f32], gain: &Tensor, bias: &Tensor, eps: f32) {
        let cols = gain.cols;
        assert!(
            gain.rows == 1 && cols > 0 && x.len().is_multiple_of(cols),
            "layer_norm gain shape"
        );
        assert_eq!(bias.shape(), (1, cols), "layer_norm bias shape");
        for row in x.chunks_exact_mut(cols) {
            layer_norm_row(row, gain, bias, eps, None);
        }
    }

    /// Largest absolute element (0.0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    fn zip_with(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "element-wise op shape mismatch: {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let id = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotone: larger logits get larger probabilities.
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(1, 3, vec![100.0, 101.0, 102.0]);
        let b = Tensor::from_vec(1, 3, vec![0.0, 1.0, 2.0]);
        let sa = a.softmax_rows();
        let sb = b.softmax_rows();
        for j in 0..3 {
            assert!((sa.get(0, j) - sb.get(0, j)).abs() < 1e-6);
        }
    }

    #[test]
    fn concat_and_slice_are_inverses() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 3, vec![5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 5));
        assert_eq!(c.slice_cols(0, 2), a);
        assert_eq!(c.slice_cols(2, 5), b);
    }

    #[test]
    fn gather_rows_copies() {
        let m = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(
            g,
            Tensor::from_vec(3, 2, vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0])
        );
    }

    #[test]
    fn sum_rows_matches_manual() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.sum_rows();
        assert_eq!(s, Tensor::from_vec(2, 1, vec![6.0, 15.0]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Random `rows x cols` tensor with about 25% exact zeros, so the
    /// kernels' zero-skip branches run.
    fn sparse_random(rng: &mut rand::rngs::StdRng, rows: usize, cols: usize) -> Tensor {
        use rand::Rng;
        let data = (0..rows * cols)
            .map(|_| {
                if rng.gen_range(0..4) == 0 {
                    0.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn masked_attention_is_bit_identical_to_composed_reference() {
        use rand::{Rng, SeedableRng};
        // The model's stand-in for -inf in masked logits.
        const NEG_INF: f32 = -1e9;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for case in 0..200 {
            let (l, d, windows) = (
                rng.gen_range(1..=12),
                rng.gen_range(1..=9),
                rng.gen_range(1..=3),
            );
            let scale = rng.gen_range(0.1f32..1.5);
            // Batched projections: window `w` owns rows `[w * l, (w + 1) * l)`.
            let q_all = sparse_random(&mut rng, windows * l, d);
            let k_all = sparse_random(&mut rng, windows * l, d);
            let v_all = sparse_random(&mut rng, windows * l, d);
            let mut scratch = AttentionScratch::default();
            for w in 0..windows {
                let rows = |t: &Tensor| t.data()[w * l * d..(w + 1) * l * d].to_vec();
                let (q, k, v) = (rows(&q_all), rows(&k_all), rows(&v_all));
                // Target-disconnect entries (i, i + 1) plus whole padding
                // columns, each row keeping its own diagonal.
                let mut mask = Tensor::zeros(l, l);
                for i in 0..l.saturating_sub(1) {
                    mask.set(i, i + 1, NEG_INF);
                }
                for j in 0..l {
                    if rng.gen_range(0..3) == 0 {
                        for i in (0..l).filter(|&i| i != j) {
                            mask.set(i, j, NEG_INF);
                        }
                    }
                }
                let reference = Tensor::from_vec(l, d, q.clone())
                    .matmul_bt(&Tensor::from_vec(l, d, k.clone()))
                    .scale(scale)
                    .add(&mask)
                    .softmax_rows()
                    .matmul(&Tensor::from_vec(l, d, v.clone()));
                for q0 in [0, l - 1] {
                    let r = l - q0;
                    let mut out = vec![f32::NAN; r * d];
                    Tensor::masked_attention(
                        Rows::new(&q_all.data()[(w * l + q0) * d..], r, d, d),
                        Rows::new(&k, l, d, d),
                        Rows::new(&v, l, d, d),
                        Rows::new(&mask.data()[q0 * l..], r, l, l),
                        scale,
                        RowsMut::new(&mut out, r, d, d),
                        &mut scratch,
                    );
                    let want: Vec<u32> = reference.data()[q0 * d..]
                        .iter()
                        .map(|x| x.to_bits())
                        .collect();
                    let got: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "case {case}: L={l} d={d} w={w} q0={q0}");
                }
            }
        }
    }

    #[test]
    fn masked_attention_reads_and_writes_column_blocks_in_place() {
        use rand::{Rng, SeedableRng};
        // Packed projections: `heads` heads of `d` columns side by side,
        // keys and values in one `2 * heads * d`-wide buffer; every head
        // writes its own columns of one shared output.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for case in 0..50 {
            let (l, d, heads) = (
                rng.gen_range(1..=10),
                rng.gen_range(1..=9),
                rng.gen_range(1..=4),
            );
            let h = heads * d;
            let q = sparse_random(&mut rng, l, h);
            let kv = sparse_random(&mut rng, l, 2 * h);
            let mask = sparse_random(&mut rng, l, l);
            let mut out = vec![f32::NAN; l * h];
            let mut scratch = AttentionScratch::default();
            for head in 0..heads {
                let c = head * d;
                Tensor::masked_attention(
                    Rows::new(&q.data()[c..], l, d, h),
                    Rows::new(&kv.data()[c..], l, d, 2 * h),
                    Rows::new(&kv.data()[h + c..], l, d, 2 * h),
                    Rows::new(mask.data(), l, l, l),
                    0.5,
                    RowsMut::new(&mut out[c..], l, d, h),
                    &mut scratch,
                );
            }
            for head in 0..heads {
                let c = head * d;
                let (qh, kh, vh) = (
                    q.slice_cols(c, c + d),
                    kv.slice_cols(c, c + d),
                    kv.slice_cols(h + c, h + c + d),
                );
                let mut want = vec![0.0; l * d];
                Tensor::masked_attention(
                    Rows::new(qh.data(), l, d, d),
                    Rows::new(kh.data(), l, d, d),
                    Rows::new(vh.data(), l, d, d),
                    Rows::new(mask.data(), l, l, l),
                    0.5,
                    RowsMut::new(&mut want, l, d, d),
                    &mut scratch,
                );
                let got = Tensor::from_vec(l, h, out.clone()).slice_cols(c, c + d);
                let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got.data()), bits(&want), "case {case} head {head}");
            }
        }
    }

    #[test]
    fn packed_products_are_the_concatenated_products() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for (rows, inner, a_cols, b_cols) in [(7, 16, 8, 8), (3, 5, 2, 9), (4, 16, 16, 16)] {
            let x = sparse_random(&mut rng, rows, inner);
            let (a, b) = (
                sparse_random(&mut rng, inner, a_cols),
                sparse_random(&mut rng, inner, b_cols),
            );
            let packed = Tensor::concat_cols(&[&a, &b]);
            let mut out = vec![f32::NAN; rows * (a_cols + b_cols)];
            Tensor::matmul_into(x.data(), &packed, &mut out);
            let want = Tensor::concat_cols(&[&x.matmul(&a), &x.matmul(&b)]);
            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(want.data()));
        }
    }

    #[test]
    #[should_panic(expected = "masked_attention shape mismatch")]
    fn masked_attention_rejects_bad_shapes() {
        let mut scratch = AttentionScratch::default();
        let mut out = vec![0.0; 6];
        Tensor::masked_attention(
            Rows::new(&[0.0; 6], 3, 2, 2),
            Rows::new(&[0.0; 6], 3, 2, 2),
            Rows::new(&[0.0; 4], 2, 2, 2),
            Rows::new(&[0.0; 9], 3, 3, 3),
            1.0,
            RowsMut::new(&mut out, 3, 2, 2),
            &mut scratch,
        );
    }

    #[test]
    fn scale_and_axpy() {
        let a = Tensor::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        let mut b = Tensor::zeros(1, 3);
        b.add_scaled(&a, 2.0);
        assert_eq!(b, a.scale(2.0));
    }
}
