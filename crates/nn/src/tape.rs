//! Reverse-mode automatic differentiation over a per-forward-pass tape.
//!
//! The tape is a flat arena of nodes, each holding its forward value and the
//! op that produced it. Because ops can only reference earlier nodes, the
//! arena order is already a topological order and the backward pass is a
//! single reverse sweep. A new tape is built for every forward pass; trainable
//! state lives in a [`ParamStore`] outside the tape.

use crate::params::{GradLog, ParamId, ParamStore};
use crate::tensor::Tensor;
use rand::Rng;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    /// Constant input; receives no gradient.
    Constant,
    /// Snapshot of a trainable parameter; gradient flows to the store.
    Param(ParamId),
    MatMul(usize, usize),
    Transpose(usize),
    Add(usize, usize),
    Sub(usize, usize),
    /// `matrix + row` with the `1 x c` row broadcast over every matrix row.
    AddRow(usize, usize),
    AddScalar(usize),
    Scale(usize, f32),
    Hadamard(usize, usize),
    Sigmoid(usize),
    Tanh(usize),
    Relu(usize),
    /// Natural log of inputs clamped to `>= LOG_EPS`.
    Log(usize),
    SoftmaxRows(usize),
    SumRows(usize),
    SumAll(usize),
    MeanAll(usize),
    LayerNorm {
        x: usize,
        gain: usize,
        bias: usize,
        /// Normalized input, cached for the backward pass.
        xhat: Tensor,
        /// Per-row `1 / sqrt(var + eps)`.
        inv_std: Vec<f32>,
    },
    Dropout {
        x: usize,
        /// Per-element keep mask already scaled by `1 / keep_prob`.
        mask: Tensor,
    },
    ConcatCols(Vec<usize>),
    SliceCols {
        x: usize,
        start: usize,
    },
    GatherRows {
        table: usize,
        indices: Vec<usize>,
    },
    /// Summed token-level cross entropy with a fused softmax backward.
    CrossEntropyRows {
        logits: usize,
        targets: Vec<usize>,
        probs: Tensor,
    },
}

struct Node {
    value: Tensor,
    op: Op,
}

/// Lower clamp applied inside [`Tape::log`] so `log(sigmoid(..))` stays finite
/// even when the sigmoid saturates.
pub const LOG_EPS: f32 = 1e-12;

/// An inverted-dropout mask: each element is `1 / keep_prob` with
/// probability `keep_prob` and `0.0` otherwise, drawn as one `f32` per
/// element in row-major order.
pub fn dropout_mask(rows: usize, cols: usize, keep_prob: f32, rng: &mut impl Rng) -> Tensor {
    let mut mask = Tensor::zeros(rows, cols);
    for v in mask.data_mut() {
        if rng.gen::<f32>() < keep_prob {
            *v = 1.0 / keep_prob;
        }
    }
    mask
}

/// Computation tape for one forward pass.
pub struct Tape {
    nodes: Vec<Node>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::with_capacity(128),
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        debug_assert!(!value.has_non_finite(), "non-finite forward value");
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Records a constant (non-differentiable) input.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Constant)
    }

    /// Snapshots parameter `id` from `store` onto the tape.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(store.value(id).clone(), Op::Param(id))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a.0, b.0))
    }

    /// Transpose.
    pub fn transpose(&mut self, x: Var) -> Var {
        let v = self.value(x).transpose();
        self.push(v, Op::Transpose(x.0))
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a.0, b.0))
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a.0, b.0))
    }

    /// Adds a `1 x c` row vector to every row of an `r x c` matrix.
    pub fn add_row(&mut self, m: Var, row: Var) -> Var {
        let out = self.value(m).add_row_broadcast(self.value(row));
        self.push(out, Op::AddRow(m.0, row.0))
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&mut self, x: Var, s: f32) -> Var {
        let v = self.value(x).map(|v| v + s);
        self.push(v, Op::AddScalar(x.0))
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        let v = self.value(x).scale(s);
        self.push(v, Op::Scale(x.0, s))
    }

    /// Element-wise product.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).hadamard(self.value(b));
        self.push(v, Op::Hadamard(a.0, b.0))
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let v = self.value(x).map(|v| 1.0 / (1.0 + (-v).exp()));
        self.push(v, Op::Sigmoid(x.0))
    }

    /// Element-wise tanh.
    pub fn tanh(&mut self, x: Var) -> Var {
        let v = self.value(x).map(f32::tanh);
        self.push(v, Op::Tanh(x.0))
    }

    /// Element-wise ReLU.
    pub fn relu(&mut self, x: Var) -> Var {
        let v = self.value(x).map(|v| v.max(0.0));
        self.push(v, Op::Relu(x.0))
    }

    /// Element-wise natural log with inputs clamped to [`LOG_EPS`].
    pub fn log(&mut self, x: Var) -> Var {
        let v = self.value(x).map(|v| v.max(LOG_EPS).ln());
        self.push(v, Op::Log(x.0))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, x: Var) -> Var {
        let v = self.value(x).softmax_rows();
        self.push(v, Op::SoftmaxRows(x.0))
    }

    /// Per-row sum, producing an `r x 1` column.
    pub fn sum_rows(&mut self, x: Var) -> Var {
        let v = self.value(x).sum_rows();
        self.push(v, Op::SumRows(x.0))
    }

    /// Sum of all elements as a `1 x 1` scalar.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let v = Tensor::scalar(self.value(x).sum());
        self.push(v, Op::SumAll(x.0))
    }

    /// Mean of all elements as a `1 x 1` scalar.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let v = Tensor::scalar(self.value(x).mean());
        self.push(v, Op::MeanAll(x.0))
    }

    /// Row-wise layer normalization with learnable gain and bias (both
    /// `1 x c`), as in Eq. 6 of the UCAD paper. Forward math lives in
    /// [`Tensor::layer_norm_forward`], shared with the tape-free eval path.
    pub fn layer_norm(&mut self, x: Var, gain: Var, bias: Var, eps: f32) -> Var {
        let (out, xhat, inv_std) =
            self.value(x)
                .layer_norm_forward(self.value(gain), self.value(bias), eps);
        self.push(
            out,
            Op::LayerNorm {
                x: x.0,
                gain: gain.0,
                bias: bias.0,
                xhat,
                inv_std,
            },
        )
    }

    /// Inverted dropout: keeps each element with probability `keep_prob` and
    /// scales kept elements by `1 / keep_prob`. `keep_prob >= 1.0` is the
    /// identity (used at evaluation time). The mask is [`dropout_mask`]'s.
    pub fn dropout(&mut self, x: Var, keep_prob: f32, rng: &mut impl Rng) -> Var {
        assert!(keep_prob > 0.0, "keep_prob must be positive");
        if keep_prob >= 1.0 {
            let v = self.value(x).clone();
            let mask = Tensor::full(v.rows(), v.cols(), 1.0);
            return self.push(v, Op::Dropout { x: x.0, mask });
        }
        let (rows, cols) = self.value(x).shape();
        let mask = dropout_mask(rows, cols, keep_prob, rng);
        self.masked_dropout(x, mask)
    }

    /// Dropout under a mask drawn beforehand (see [`dropout_mask`]):
    /// `x ⊙ mask`, with the mask cached for the backward pass. Lets a caller
    /// draw every mask of a batch in a fixed order before running the
    /// forwards in any order.
    ///
    /// # Panics
    /// Panics if `mask` and `x` differ in shape.
    pub fn masked_dropout(&mut self, x: Var, mask: Tensor) -> Var {
        let out = self.value(x).hadamard(&mask);
        self.push(out, Op::Dropout { x: x.0, mask })
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|p| self.value(*p)).collect();
        let out = Tensor::concat_cols(&tensors);
        self.push(out, Op::ConcatCols(parts.iter().map(|p| p.0).collect()))
    }

    /// Copy of column range `[start, end)`.
    pub fn slice_cols(&mut self, x: Var, start: usize, end: usize) -> Var {
        let out = self.value(x).slice_cols(start, end);
        self.push(out, Op::SliceCols { x: x.0, start })
    }

    /// Row gather: `out[i] = table[indices[i]]` (embedding lookup).
    pub fn gather_rows(&mut self, table: Var, indices: &[usize]) -> Var {
        let out = self.value(table).gather_rows(indices);
        self.push(
            out,
            Op::GatherRows {
                table: table.0,
                indices: indices.to_vec(),
            },
        )
    }

    /// Summed cross entropy of row-wise softmax(logits) against integer
    /// targets; returns a `1 x 1` loss.
    pub fn cross_entropy_rows(&mut self, logits: Var, targets: &[usize]) -> Var {
        let probs = self.value(logits).softmax_rows();
        assert_eq!(probs.rows(), targets.len(), "one target per logit row");
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < probs.cols(), "target {} out of vocabulary", t);
            loss -= probs.get(r, t).max(LOG_EPS).ln();
        }
        self.push(
            Tensor::scalar(loss),
            Op::CrossEntropyRows {
                logits: logits.0,
                targets: targets.to_vec(),
                probs,
            },
        )
    }

    /// Runs the backward pass from scalar `loss`, accumulating parameter
    /// gradients into `store`. Returns the loss value.
    ///
    /// # Panics
    /// Panics if `loss` is not `1 x 1`.
    pub fn backward(&self, loss: Var, store: &mut ParamStore) -> f32 {
        let (loss_value, log) = self.backward_deferred(loss);
        log.apply(store);
        loss_value
    }

    /// The backward pass of [`Tape::backward`] with the parameter-gradient
    /// writes deferred: they are recorded, in the order the pass produces
    /// them, in the returned [`GradLog`] instead of being added to a store.
    /// Needs no store, so many tapes can run their backward passes
    /// concurrently while reading the parameters they snapshot.
    ///
    /// # Panics
    /// Panics if `loss` is not `1 x 1`.
    pub fn backward_deferred(&self, loss: Var) -> (f32, GradLog) {
        let _backward_span = ucad_obs::span!("nn.backward");
        let loss_value = self.value(loss).item();
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::scalar(1.0));
        let mut log = GradLog::new();
        for i in (0..=loss.0).rev() {
            let Some(grad) = grads[i].take() else {
                continue;
            };
            match self.nodes[i].op {
                Op::Param(id) => log.push(id, grad),
                _ => self.propagate(i, &grad, &mut grads),
            }
        }
        (loss_value, log)
    }

    fn accum(grads: &mut [Option<Tensor>], idx: usize, delta: Tensor) {
        match &mut grads[idx] {
            Some(g) => g.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        }
    }

    #[allow(clippy::needless_range_loop)] // parallel-buffer numeric kernels
    fn propagate(&self, i: usize, grad: &Tensor, grads: &mut [Option<Tensor>]) {
        let node = &self.nodes[i];
        match &node.op {
            // Parameter gradients leave through the log in `backward_deferred`.
            Op::Constant | Op::Param(_) => {}
            Op::MatMul(a, b) => {
                let av = &self.nodes[*a].value;
                let bv = &self.nodes[*b].value;
                // grad * B^T and A^T * grad.
                Self::accum(grads, *a, grad.matmul_bt(bv));
                Self::accum(grads, *b, av.matmul_at(grad));
            }
            Op::Transpose(x) => Self::accum(grads, *x, grad.transpose()),
            Op::Add(a, b) => {
                Self::accum(grads, *a, grad.clone());
                Self::accum(grads, *b, grad.clone());
            }
            Op::Sub(a, b) => {
                Self::accum(grads, *a, grad.clone());
                Self::accum(grads, *b, grad.scale(-1.0));
            }
            Op::AddRow(m, row) => {
                Self::accum(grads, *m, grad.clone());
                let mut row_grad = Tensor::zeros(1, grad.cols());
                for r in 0..grad.rows() {
                    for c in 0..grad.cols() {
                        row_grad.data_mut()[c] += grad.get(r, c);
                    }
                }
                Self::accum(grads, *row, row_grad);
            }
            Op::AddScalar(x) => Self::accum(grads, *x, grad.clone()),
            Op::Scale(x, s) => Self::accum(grads, *x, grad.scale(*s)),
            Op::Hadamard(a, b) => {
                let av = &self.nodes[*a].value;
                let bv = &self.nodes[*b].value;
                Self::accum(grads, *a, grad.hadamard(bv));
                Self::accum(grads, *b, grad.hadamard(av));
            }
            Op::Sigmoid(x) => {
                let y = &node.value;
                let dx = grad.hadamard(&y.map(|v| v * (1.0 - v)));
                Self::accum(grads, *x, dx);
            }
            Op::Tanh(x) => {
                let y = &node.value;
                let dx = grad.hadamard(&y.map(|v| 1.0 - v * v));
                Self::accum(grads, *x, dx);
            }
            Op::Relu(x) => {
                let xv = &self.nodes[*x].value;
                let dx = grad.hadamard(&xv.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
                Self::accum(grads, *x, dx);
            }
            Op::Log(x) => {
                let xv = &self.nodes[*x].value;
                let dx = grad.hadamard(&xv.map(|v| 1.0 / v.max(LOG_EPS)));
                Self::accum(grads, *x, dx);
            }
            Op::SoftmaxRows(x) => {
                let y = &node.value;
                let mut dx = Tensor::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let yr = y.row(r);
                    let gr = grad.row(r);
                    let dot: f32 = yr.iter().zip(gr.iter()).map(|(a, b)| a * b).sum();
                    for c in 0..y.cols() {
                        dx.set(r, c, yr[c] * (gr[c] - dot));
                    }
                }
                Self::accum(grads, *x, dx);
            }
            Op::SumRows(x) => {
                let xv = &self.nodes[*x].value;
                let mut dx = Tensor::zeros(xv.rows(), xv.cols());
                for r in 0..xv.rows() {
                    let g = grad.get(r, 0);
                    dx.row_mut(r).iter_mut().for_each(|v| *v = g);
                }
                Self::accum(grads, *x, dx);
            }
            Op::SumAll(x) => {
                let xv = &self.nodes[*x].value;
                Self::accum(grads, *x, Tensor::full(xv.rows(), xv.cols(), grad.item()));
            }
            Op::MeanAll(x) => {
                let xv = &self.nodes[*x].value;
                let n = xv.len().max(1) as f32;
                Self::accum(
                    grads,
                    *x,
                    Tensor::full(xv.rows(), xv.cols(), grad.item() / n),
                );
            }
            Op::LayerNorm {
                x,
                gain,
                bias,
                xhat,
                inv_std,
            } => {
                let g = &self.nodes[*gain].value;
                let (rows, cols) = xhat.shape();
                let mut dgain = Tensor::zeros(1, cols);
                let mut dbias = Tensor::zeros(1, cols);
                let mut dx = Tensor::zeros(rows, cols);
                for r in 0..rows {
                    let gr = grad.row(r);
                    let xh = xhat.row(r);
                    for c in 0..cols {
                        dgain.data_mut()[c] += gr[c] * xh[c];
                        dbias.data_mut()[c] += gr[c];
                    }
                    // dxhat = dy * gain; then the standard per-row LN backward.
                    let dxhat: Vec<f32> = (0..cols).map(|c| gr[c] * g.get(0, c)).collect();
                    let mean_dxhat: f32 = dxhat.iter().sum::<f32>() / cols as f32;
                    let mean_dxhat_xhat: f32 =
                        dxhat.iter().zip(xh.iter()).map(|(a, b)| a * b).sum::<f32>() / cols as f32;
                    for c in 0..cols {
                        dx.set(
                            r,
                            c,
                            inv_std[r] * (dxhat[c] - mean_dxhat - xh[c] * mean_dxhat_xhat),
                        );
                    }
                }
                Self::accum(grads, *x, dx);
                Self::accum(grads, *gain, dgain);
                Self::accum(grads, *bias, dbias);
            }
            Op::Dropout { x, mask } => Self::accum(grads, *x, grad.hadamard(mask)),
            Op::ConcatCols(parts) => {
                let mut start = 0;
                for &p in parts {
                    let w = self.nodes[p].value.cols();
                    Self::accum(grads, p, grad.slice_cols(start, start + w));
                    start += w;
                }
            }
            Op::SliceCols { x, start } => {
                let xv = &self.nodes[*x].value;
                let mut dx = Tensor::zeros(xv.rows(), xv.cols());
                for r in 0..grad.rows() {
                    for c in 0..grad.cols() {
                        dx.set(r, start + c, grad.get(r, c));
                    }
                }
                Self::accum(grads, *x, dx);
            }
            Op::GatherRows { table, indices } => {
                let tv = &self.nodes[*table].value;
                let mut dt = Tensor::zeros(tv.rows(), tv.cols());
                for (i, &idx) in indices.iter().enumerate() {
                    for c in 0..grad.cols() {
                        let v = dt.get(idx, c) + grad.get(i, c);
                        dt.set(idx, c, v);
                    }
                }
                Self::accum(grads, *table, dt);
            }
            Op::CrossEntropyRows {
                logits,
                targets,
                probs,
            } => {
                let scale = grad.item();
                let mut dl = probs.clone();
                for (r, &t) in targets.iter().enumerate() {
                    let v = dl.get(r, t) - 1.0;
                    dl.set(r, t, v);
                }
                Self::accum(grads, *logits, dl.scale(scale));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference gradient check for a scalar function of one
    /// parameter tensor.
    #[allow(clippy::needless_range_loop)]
    fn grad_check(shape: (usize, usize), init: &[f32], f: &dyn Fn(&mut Tape, Var) -> Var) {
        let mut store = ParamStore::new();
        let id = store.add("x", Tensor::from_vec(shape.0, shape.1, init.to_vec()));

        // Analytic gradient.
        let mut tape = Tape::new();
        let x = tape.param(&store, id);
        let loss = f(&mut tape, x);
        tape.backward(loss, &mut store);
        let analytic = store.get(id).grad.clone();

        // Numeric gradient via central differences (f64 accumulation keeps
        // the comparison meaningful in f32).
        let eps = 1e-3f32;
        for i in 0..init.len() {
            let eval = |delta: f32, store: &mut ParamStore| -> f32 {
                store.get_mut(id).value.data_mut()[i] = init[i] + delta;
                let mut t = Tape::new();
                let x = t.param(store, id);
                let l = f(&mut t, x);
                let v = t.value(l).item();
                store.get_mut(id).value.data_mut()[i] = init[i];
                v
            };
            let plus = eval(eps, &mut store);
            let minus = eval(-eps, &mut store);
            let numeric = (plus - minus) / (2.0 * eps);
            let a = analytic.data()[i];
            let tol = 1e-2 * (1.0 + a.abs().max(numeric.abs()));
            assert!(
                (a - numeric).abs() < tol,
                "grad mismatch at {}: analytic {} vs numeric {}",
                i,
                a,
                numeric
            );
        }
    }

    #[test]
    fn grad_matmul() {
        grad_check((2, 3), &[0.5, -0.2, 0.3, 0.1, 0.9, -0.4], &|t, x| {
            let w = t.constant(Tensor::from_vec(3, 2, vec![0.2, -0.1, 0.4, 0.3, -0.5, 0.6]));
            let y = t.matmul(x, w);
            let s = t.hadamard(y, y);
            t.sum_all(s)
        });
    }

    #[test]
    fn grad_sigmoid_log_chain() {
        grad_check((1, 4), &[0.3, -0.6, 1.2, 0.05], &|t, x| {
            let s = t.sigmoid(x);
            let l = t.log(s);
            let n = t.scale(l, -1.0);
            t.sum_all(n)
        });
    }

    #[test]
    fn grad_softmax() {
        grad_check((2, 3), &[0.5, 1.5, -0.3, 0.2, 0.0, 0.7], &|t, x| {
            let s = t.softmax_rows(x);
            let sq = t.hadamard(s, s);
            t.sum_all(sq)
        });
    }

    #[test]
    fn grad_layer_norm() {
        grad_check(
            (2, 4),
            &[0.5, 1.5, -0.3, 0.2, 0.9, -0.8, 0.1, 0.4],
            &|t, x| {
                let g = t.constant(Tensor::from_vec(1, 4, vec![1.2, 0.8, 1.0, 0.9]));
                let b = t.constant(Tensor::from_vec(1, 4, vec![0.1, -0.1, 0.0, 0.2]));
                let y = t.layer_norm(x, g, b, 1e-5);
                let sq = t.hadamard(y, y);
                t.sum_all(sq)
            },
        );
    }

    #[test]
    fn grad_layer_norm_gain_bias() {
        // Gradient wrt gain/bias, with x constant.
        let x_const = Tensor::from_vec(2, 3, vec![0.5, 1.5, -0.3, 0.2, 0.0, 0.7]);
        grad_check((1, 3), &[1.0, 0.9, 1.1], &|t, g| {
            let x = t.constant(x_const.clone());
            let b = t.constant(Tensor::zeros(1, 3));
            let y = t.layer_norm(x, g, b, 1e-5);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
    }

    #[test]
    fn grad_tanh_relu_mix() {
        grad_check((1, 5), &[0.3, -0.6, 1.2, 0.05, -1.4], &|t, x| {
            let a = t.tanh(x);
            let b = t.relu(x);
            let c = t.add(a, b);
            let d = t.hadamard(c, c);
            t.sum_all(d)
        });
    }

    #[test]
    fn grad_gather_scatter() {
        grad_check((3, 2), &[0.5, -0.2, 0.3, 0.1, 0.9, -0.4], &|t, x| {
            let g = t.gather_rows(x, &[0, 2, 2, 1]);
            let sq = t.hadamard(g, g);
            t.sum_all(sq)
        });
    }

    #[test]
    fn grad_concat_slice() {
        grad_check(
            (2, 4),
            &[0.5, -0.2, 0.3, 0.1, 0.9, -0.4, 0.2, 0.8],
            &|t, x| {
                let a = t.slice_cols(x, 0, 2);
                let b = t.slice_cols(x, 2, 4);
                let c = t.concat_cols(&[b, a]);
                let sq = t.hadamard(c, c);
                t.sum_all(sq)
            },
        );
    }

    #[test]
    fn grad_add_row_broadcast() {
        grad_check((1, 3), &[0.4, -0.1, 0.2], &|t, row| {
            let m = t.constant(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
            let y = t.add_row(m, row);
            let sq = t.hadamard(y, y);
            t.sum_all(sq)
        });
    }

    #[test]
    fn grad_cross_entropy() {
        grad_check(
            (2, 4),
            &[0.5, -0.2, 0.3, 0.1, 0.9, -0.4, 0.2, 0.8],
            &|t, x| t.cross_entropy_rows(x, &[2, 0]),
        );
    }

    #[test]
    fn grad_sub_mean() {
        grad_check((2, 2), &[1.0, -2.0, 0.5, 0.25], &|t, x| {
            let two = t.scale(x, 2.0);
            let d = t.sub(two, x);
            let sq = t.hadamard(d, d);
            t.mean_all(sq)
        });
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let y = tape.dropout(x, 1.0, &mut rng);
        assert_eq!(tape.value(y), tape.value(x));
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::full(100, 100, 1.0));
        let y = tape.dropout(x, 0.8, &mut rng);
        let mean = tape.value(y).mean();
        assert!(
            (mean - 1.0).abs() < 0.05,
            "dropout mean {} far from 1.0",
            mean
        );
    }

    #[test]
    fn backward_accumulates_shared_param() {
        // loss = sum(x) + sum(x) should give gradient 2 everywhere.
        let mut store = ParamStore::new();
        let id = store.add("x", Tensor::full(2, 2, 1.0));
        let mut tape = Tape::new();
        let x = tape.param(&store, id);
        let a = tape.sum_all(x);
        let b = tape.sum_all(x);
        let l = tape.add(a, b);
        tape.backward(l, &mut store);
        assert_eq!(store.get(id).grad, Tensor::full(2, 2, 2.0));
    }

    #[test]
    fn param_used_twice_on_tape() {
        // Two snapshots of the same param both contribute gradient.
        let mut store = ParamStore::new();
        let id = store.add("x", Tensor::full(1, 2, 3.0));
        let mut tape = Tape::new();
        let x1 = tape.param(&store, id);
        let x2 = tape.param(&store, id);
        let p = tape.hadamard(x1, x2); // x^2 per element
        let l = tape.sum_all(p);
        tape.backward(l, &mut store);
        // d/dx x^2 = 2x = 6
        assert_eq!(store.get(id).grad, Tensor::full(1, 2, 6.0));
    }
}
