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

/// The i-k-j kernel behind every matrix product: the `rows x rhs.cols`
/// tensor `out[i][j] = Σ_k a(i, k) * rhs[k][j]` over the rows `k` of `rhs`.
/// Every output element starts at `0.0` and adds its terms k-ascending,
/// skipping `a(i, k) == 0.0` (which makes padding and `k0` embeddings
/// free); output rows are partitioned over the pool by [`run_rows`].
///
/// The innermost loop runs across an output row. A row of at most
/// [`NARROW`] columns (attention heads are `h / m` wide) is accumulated in
/// a fixed-width local block over a zero-padded copy of `rhs`, so each `k`
/// is one full-width vector multiply-add instead of a short loop that
/// re-reads and re-writes the output row. The padding lanes are discarded,
/// so the kept lanes are the same f32 sums.
fn product(rows: usize, rhs: &Tensor, a: impl Fn(usize, usize) -> f32 + Sync) -> Tensor {
    let (inner, n) = rhs.shape();
    let mut out = Tensor::zeros(rows, n);
    if n == 0 {
        return out;
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
    let out_ptr = SendPtr(out.data.as_mut_ptr());
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
    out
}

/// Reusable scratch for [`Tensor::masked_attention`] over windows of `len`
/// keys and heads of `dim` columns: the `dim x len` transposed keys and one
/// `len`-length score row. Build one per thread and reuse it across
/// windows and heads.
pub struct AttentionScratch {
    len: usize,
    dim: usize,
    kt: Vec<f32>,
    row: Vec<f32>,
}

impl AttentionScratch {
    /// Scratch for `len`-key windows and `dim`-column heads.
    ///
    /// # Panics
    /// Panics if `dim` is zero.
    pub fn new(len: usize, dim: usize) -> Self {
        assert!(dim > 0, "attention head dimension must be positive");
        AttentionScratch {
            len,
            dim,
            kt: vec![0.0; dim * len],
            row: vec![0.0; len],
        }
    }
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
    /// `out = softmax_rows(q * k^T * scale + mask) * v`, reading the rows in
    /// place (they may sit inside larger batched projections) and writing
    /// `r x d` rows to `out`. `q` and `out` hold `r` rows of `d` columns, `k`
    /// and `v` the window's `L` rows, `mask` the `r x L` additive mask rows
    /// matching `q` (`L` and `d` come from `scratch`). `r < L` computes only
    /// the trailing query rows of the full attention.
    ///
    /// Bit-identical per row to the composed reference
    /// `q.matmul_bt(k).scale(scale).add(mask).softmax_rows().matmul(v)`:
    /// `k` is transposed once into scratch so `q * k^T` accumulates in the
    /// i-k-j order of [`Tensor::matmul`] over contiguous keys, which gives
    /// every score the same k-ascending additions and `q[i,k] == 0.0` skip
    /// as [`Tensor::matmul_bt`]; scale, mask and the max → exp → sum →
    /// divide softmax of [`Tensor::softmax_rows`] then run in one reused
    /// `L`-length row, and `A * v` accumulates exactly as `matmul` does.
    /// Always runs inline on the calling thread.
    ///
    /// # Panics
    /// Panics if a slice length does not match the shapes above.
    pub fn masked_attention(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        mask: &[f32],
        scale: f32,
        out: &mut [f32],
        scratch: &mut AttentionScratch,
    ) {
        let (l, d) = (scratch.len, scratch.dim);
        let r = q.len() / d;
        assert!(
            q.len() == r * d
                && k.len() == l * d
                && v.len() == l * d
                && mask.len() == r * l
                && out.len() == r * d,
            "masked_attention shape mismatch: q {}, k {}, v {}, mask {}, out {} for L={l}, d={d}",
            q.len(),
            k.len(),
            v.len(),
            mask.len(),
            out.len()
        );
        let kt = &mut scratch.kt;
        for (j, k_row) in k.chunks_exact(d).enumerate() {
            for (c, &kv) in k_row.iter().enumerate() {
                kt[c * l + j] = kv;
            }
        }
        let s = &mut scratch.row;
        for ((q_row, m_row), o_row) in q
            .chunks_exact(d)
            .zip(mask.chunks_exact(l))
            .zip(out.chunks_exact_mut(d))
        {
            s.fill(0.0);
            for (&a, kt_row) in q_row.iter().zip(kt.chunks_exact(l)) {
                if a == 0.0 {
                    continue;
                }
                for (sj, &b) in s.iter_mut().zip(kt_row) {
                    *sj += a * b;
                }
            }
            for (sj, &m) in s.iter_mut().zip(m_row) {
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
            o_row.fill(0.0);
            for (&a, v_row) in s.iter().zip(v.chunks_exact(d)) {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in o_row.iter_mut().zip(v_row) {
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
    /// path so the two cannot drift numerically.
    ///
    /// # Panics
    /// Panics unless `row` is `1 x self.cols()`.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert_eq!(row.shape(), (1, self.cols), "add_row shape mismatch");
        let mut out = self.clone();
        for r in 0..self.rows {
            for (o, b) in out.row_mut(r).iter_mut().zip(row.data.iter()) {
                *o += *b;
            }
        }
        out
    }

    /// Row-wise layer normalization forward (Eq. 6 of the UCAD paper):
    /// `out = gain * (x - mu) / sqrt(var + eps) + bias` per row, returning
    /// `(out, xhat, inv_std)` where `xhat` is the normalized input and
    /// `inv_std[r] = 1 / sqrt(var_r + eps)` — the quantities the backward
    /// pass needs. Shared by the tape `LayerNorm` op and the tape-free
    /// evaluation path so the two cannot drift numerically.
    ///
    /// # Panics
    /// Panics unless `gain` and `bias` are `1 x self.cols()`.
    #[allow(clippy::needless_range_loop)] // parallel-buffer numeric kernel
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
        let mut inv_std = Vec::with_capacity(rows);
        let mut out = Tensor::zeros(rows, cols);
        for r in 0..rows {
            let row = self.row(r);
            let mu: f32 = row.iter().sum::<f32>() / cols as f32;
            let var: f32 = row.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / cols as f32;
            let is = 1.0 / (var + eps).sqrt();
            inv_std.push(is);
            for c in 0..cols {
                let xh = (row[c] - mu) * is;
                xhat.set(r, c, xh);
                out.set(r, c, gain.get(0, c) * xh + bias.get(0, c));
            }
        }
        (out, xhat, inv_std)
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
            let mut scratch = AttentionScratch::new(l, d);
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
                    let mut out = vec![f32::NAN; (l - q0) * d];
                    Tensor::masked_attention(
                        &q_all.data()[(w * l + q0) * d..(w + 1) * l * d],
                        &k,
                        &v,
                        &mask.data()[q0 * l..],
                        scale,
                        &mut out,
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
    #[should_panic(expected = "masked_attention shape mismatch")]
    fn masked_attention_rejects_bad_shapes() {
        let mut scratch = AttentionScratch::new(3, 2);
        let mut out = vec![0.0; 6];
        Tensor::masked_attention(
            &[0.0; 6],
            &[0.0; 6],
            &[0.0; 4],
            &[0.0; 9],
            1.0,
            &mut out,
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
