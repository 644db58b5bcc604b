//! Gradient wall: central-difference checks for every [`Tape`] op reachable
//! from `TransDas::forward` / `window_loss`, composed the way the model
//! composes them, plus a whole-model finite-difference check through the
//! full Eq. 11 objective. A broken backward pass anywhere in the model's
//! compute graph fails here with the op named.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ucad_model::{MaskMode, TransDas, TransDasConfig};
use ucad_nn::{ParamStore, Tape, Tensor, Var};

/// Central-difference gradient check of a scalar-valued graph `f` with
/// respect to a single parameter tensor.
fn grad_check(shape: (usize, usize), init: &[f32], f: &dyn Fn(&mut Tape, Var) -> Var) {
    assert_eq!(shape.0 * shape.1, init.len());
    let mut store = ParamStore::new();
    let id = store.add("x", Tensor::from_vec(shape.0, shape.1, init.to_vec()));

    let mut tape = Tape::new();
    let x = tape.param(&store, id);
    let loss = f(&mut tape, x);
    tape.backward(loss, &mut store);
    let analytic = store.get(id).grad.clone();

    let eps = 1e-3f32;
    for (i, &init_i) in init.iter().enumerate() {
        let eval = |delta: f32, store: &mut ParamStore| -> f32 {
            store.get_mut(id).value.data_mut()[i] = init_i + delta;
            let mut t = Tape::new();
            let x = t.param(store, id);
            let l = f(&mut t, x);
            let v = t.value(l).item();
            store.get_mut(id).value.data_mut()[i] = init_i;
            v
        };
        let plus = eval(eps, &mut store);
        let minus = eval(-eps, &mut store);
        let numeric = (plus - minus) / (2.0 * eps);
        let a = analytic.data()[i];
        let tol = 1e-2 * (1.0 + a.abs().max(numeric.abs()));
        assert!(
            (a - numeric).abs() < tol,
            "grad mismatch at element {i}: analytic {a} vs numeric {numeric}"
        );
    }
}

const X23: [f32; 6] = [0.3, -0.7, 1.2, -0.4, 0.9, 0.5];
const X33: [f32; 9] = [0.2, -0.5, 0.8, 1.1, -0.3, 0.4, -0.9, 0.6, 0.1];

#[test]
fn sum_all_and_scale() {
    grad_check((2, 3), &X23, &|t, x| {
        let s = t.scale(x, 1.7);
        t.sum_all(s)
    });
}

#[test]
fn add_sub_add_scalar() {
    grad_check((2, 3), &X23, &|t, x| {
        let c = t.constant(Tensor::from_vec(2, 3, vec![0.5; 6]));
        let a = t.add(x, c);
        let d = t.sub(a, x);
        let e = t.add(d, x);
        let shifted = t.add_scalar(e, 0.25);
        t.sum_all(shifted)
    });
}

#[test]
fn matmul_and_transpose() {
    // x · xᵀ exercises both operand gradients of matmul plus transpose.
    grad_check((2, 3), &X23, &|t, x| {
        let xt = t.transpose(x);
        let g = t.matmul(x, xt);
        t.sum_all(g)
    });
}

#[test]
fn softmax_rows_with_log() {
    // log(softmax) is how attention weights feed the cross-entropy term.
    grad_check((3, 3), &X33, &|t, x| {
        let p = t.softmax_rows(x);
        let lp = t.log(p);
        t.sum_all(lp)
    });
}

#[test]
fn relu_and_hadamard() {
    // Init values keep a margin from relu's kink at 0.
    grad_check((2, 3), &X23, &|t, x| {
        let r = t.relu(x);
        let h = t.hadamard(r, x);
        t.sum_all(h)
    });
}

#[test]
fn sigmoid_and_log() {
    grad_check((2, 3), &X23, &|t, x| {
        let s = t.sigmoid(x);
        let l = t.log(s);
        t.sum_all(l)
    });
}

#[test]
fn sum_rows_reduction() {
    grad_check((3, 3), &X33, &|t, x| {
        let rowsum = t.sum_rows(x);
        let sq = t.hadamard(rowsum, rowsum);
        t.sum_all(sq)
    });
}

#[test]
fn gather_rows_embedding_lookup() {
    // The op behind the order-free embedding: repeated indices must
    // accumulate gradient into the same table row.
    grad_check(
        (4, 3),
        &[
            0.1, 0.2, 0.3, -0.4, 0.5, -0.6, 0.7, 0.8, -0.9, 1.0, -1.1, 1.2,
        ],
        &|t, x| {
            let g = t.gather_rows(x, &[2, 0, 1, 1]);
            let sq = t.hadamard(g, g);
            t.sum_all(sq)
        },
    );
}

#[test]
fn concat_cols_multi_head_join() {
    // Heads are joined with concat_cols; both halves come from x so the
    // gradient must sum the two paths.
    grad_check((2, 3), &X23, &|t, x| {
        let a = t.scale(x, 2.0);
        let j = t.concat_cols(&[x, a]);
        let sq = t.hadamard(j, j);
        t.sum_all(sq)
    });
}

#[test]
fn add_row_bias_broadcast() {
    // Linear layers broadcast a bias row over the batch; check the matrix
    // side and the row side separately.
    grad_check((2, 3), &X23, &|t, x| {
        let bias = t.constant(Tensor::row_vector(vec![0.3, -0.2, 0.1]));
        let y = t.add_row(x, bias);
        let sq = t.hadamard(y, y);
        t.sum_all(sq)
    });
    grad_check((1, 3), &[0.3, -0.2, 0.1], &|t, x| {
        let m = t.constant(Tensor::from_vec(2, 3, X23.to_vec()));
        let y = t.add_row(m, x);
        let sq = t.hadamard(y, y);
        t.sum_all(sq)
    });
}

#[test]
fn layer_norm_input_gain_and_bias() {
    let gain_init = [1.1f32, 0.9, 1.0, 1.2];
    let bias_init = [0.1f32, -0.1, 0.2, 0.0];
    let x_init = [0.4f32, -0.8, 1.3, 0.2, -0.5, 0.7, 0.9, -1.2];
    // w.r.t. the normalized input.
    grad_check((2, 4), &x_init, &|t, x| {
        let g = t.constant(Tensor::row_vector(gain_init.to_vec()));
        let b = t.constant(Tensor::row_vector(bias_init.to_vec()));
        let y = t.layer_norm(x, g, b, 1e-5);
        let sq = t.hadamard(y, y);
        t.sum_all(sq)
    });
    // w.r.t. the gain.
    grad_check((1, 4), &gain_init, &|t, g| {
        let x = t.constant(Tensor::from_vec(2, 4, x_init.to_vec()));
        let b = t.constant(Tensor::row_vector(bias_init.to_vec()));
        let y = t.layer_norm(x, g, b, 1e-5);
        let sq = t.hadamard(y, y);
        t.sum_all(sq)
    });
    // w.r.t. the bias.
    grad_check((1, 4), &bias_init, &|t, b| {
        let x = t.constant(Tensor::from_vec(2, 4, x_init.to_vec()));
        let g = t.constant(Tensor::row_vector(gain_init.to_vec()));
        let y = t.layer_norm(x, g, b, 1e-5);
        let sq = t.hadamard(y, y);
        t.sum_all(sq)
    });
}

#[test]
fn dropout_with_fixed_mask() {
    // Re-seeding the RNG inside the graph closure fixes the dropout mask,
    // making the loss a deterministic function suitable for differencing.
    grad_check((2, 3), &X23, &|t, x| {
        let mut rng = StdRng::seed_from_u64(9);
        let d = t.dropout(x, 0.6, &mut rng);
        let sq = t.hadamard(d, d);
        t.sum_all(sq)
    });
}

#[test]
fn attention_shaped_composite() {
    // The exact shape of one attention head: projections, scaled scores,
    // softmax, value mixing — all gradients flowing to one input.
    grad_check((3, 3), &X33, &|t, x| {
        let wq = t.constant(Tensor::from_vec(
            3,
            3,
            vec![0.2, -0.1, 0.3, 0.1, 0.4, -0.2, -0.3, 0.2, 0.1],
        ));
        let wk = t.constant(Tensor::from_vec(
            3,
            3,
            vec![-0.2, 0.3, 0.1, 0.2, -0.4, 0.1, 0.3, 0.1, -0.1],
        ));
        let wv = t.constant(Tensor::from_vec(
            3,
            3,
            vec![0.1, 0.2, -0.3, -0.1, 0.3, 0.2, 0.4, -0.2, 0.1],
        ));
        let q = t.matmul(x, wq);
        let k = t.matmul(x, wk);
        let v = t.matmul(x, wv);
        let kt = t.transpose(k);
        let scores = t.matmul(q, kt);
        let scaled = t.scale(scores, 1.0 / (3.0f32).sqrt());
        let attn = t.softmax_rows(scaled);
        let mixed = t.matmul(attn, v);
        let sq = t.hadamard(mixed, mixed);
        t.sum_all(sq)
    });
}

#[test]
fn ffn_with_layer_norm_and_residual() {
    // Feed-forward sublayer as the model builds it: LN → linear → relu →
    // linear → residual add.
    grad_check(
        (2, 4),
        &[0.4, -0.8, 1.3, 0.2, -0.5, 0.7, 0.9, -1.2],
        &|t, x| {
            let g = t.constant(Tensor::row_vector(vec![1.0; 4]));
            let b = t.constant(Tensor::row_vector(vec![0.0; 4]));
            let normed = t.layer_norm(x, g, b, 1e-5);
            let w1 = t.constant(Tensor::from_vec(
                4,
                4,
                vec![
                    0.2, -0.1, 0.3, 0.1, 0.1, 0.4, -0.2, 0.2, -0.3, 0.2, 0.1, -0.1, 0.2, 0.1, -0.2,
                    0.3,
                ],
            ));
            let h = t.matmul(normed, w1);
            let h = t.relu(h);
            let w2 = t.constant(Tensor::from_vec(
                4,
                4,
                vec![
                    -0.2, 0.3, 0.1, 0.2, 0.2, -0.4, 0.1, 0.1, 0.3, 0.1, -0.1, 0.2, 0.1, -0.2, 0.3,
                    0.1,
                ],
            ));
            let out = t.matmul(h, w2);
            let res = t.add(out, x);
            let sq = t.hadamard(res, res);
            t.sum_all(sq)
        },
    );
}

/// Whole-model finite-difference check: perturb elements of every named
/// parameter and compare the Eq. 11 loss slope against the accumulated
/// analytic gradient. This closes the gap between per-op checks and the
/// graph `TransDas::forward` actually builds (masking, triplet term,
/// negative sampling included).
#[test]
fn whole_model_loss_gradient_matches_finite_differences() {
    let cfg = TransDasConfig {
        vocab_size: 10,
        hidden: 8,
        heads: 2,
        blocks: 2,
        window: 6,
        positional: false,
        mask: MaskMode::TransDas,
        triplet: true,
        margin: 0.5,
        negatives: 2,
        dropout_keep: 1.0,
        lr: 1e-2,
        weight_decay: 1e-5,
        epochs: 1,
        stride: 1,
        batch_size: 16,
        seed: 42,
    };
    let mut model = TransDas::new(cfg);
    let sessions: Vec<Vec<u32>> = vec![
        vec![1, 2, 3, 4, 5, 6, 7],
        vec![2, 3, 4, 2, 3, 4, 5],
        vec![8, 9, 1, 8, 9, 1, 2],
    ];
    let windows = model.extract_windows(&sessions);
    assert!(!windows.is_empty());
    let batch: Vec<_> = windows.into_iter().take(4).collect();
    let seed = 1234u64;

    let base = model.loss_and_grad(&batch, seed);
    assert!(
        base.is_finite() && base > 0.0,
        "degenerate base loss {base}"
    );
    let analytic: Vec<(String, Vec<f32>)> = model
        .store
        .iter()
        .map(|(_, p)| (p.name.clone(), p.grad.data().to_vec()))
        .collect();

    let eps = 1e-3f32;
    let param_ids: Vec<_> = model.store.iter().map(|(id, _)| id).collect();
    for (pi, id) in param_ids.iter().enumerate() {
        let (name, grads) = &analytic[pi];
        let len = model.store.get(*id).value.len();
        // Probe a few spread-out elements per parameter.
        for &i in [0usize, len / 2, len - 1].iter().filter(|&&i| i < len) {
            let orig = model.store.get(*id).value.data()[i];
            let mut eval = |delta: f32| -> f64 {
                model.store.get_mut(*id).value.data_mut()[i] = orig + delta;
                let l = model.loss_and_grad(&batch, seed);
                model.store.get_mut(*id).value.data_mut()[i] = orig;
                l
            };
            let numeric = ((eval(eps) - eval(-eps)) / (2.0 * eps as f64)) as f32;
            let a = grads[i];
            let tol = 3e-2 * (1.0 + a.abs().max(numeric.abs()));
            assert!(
                (a - numeric).abs() < tol,
                "whole-model grad mismatch in `{name}`[{i}]: analytic {a} vs numeric {numeric}"
            );
        }
    }
    // Restore the analytic gradients' state for sanity: re-running with the
    // same seed must reproduce the base loss bit-for-bit.
    let again = model.loss_and_grad(&batch, seed);
    assert_eq!(
        base, again,
        "loss_and_grad is not deterministic under a fixed seed"
    );
}
