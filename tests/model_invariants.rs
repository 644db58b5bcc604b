//! Model-level invariants that connect the paper's design claims to
//! testable behaviour.

use ucad_model::{MaskMode, TransDas, TransDasConfig};
use ucad_nn::Tensor;

fn cfg(mask: MaskMode, positional: bool) -> TransDasConfig {
    TransDasConfig {
        vocab_size: 12,
        hidden: 8,
        heads: 2,
        blocks: 2,
        window: 8,
        positional,
        mask,
        dropout_keep: 1.0,
        ..TransDasConfig::scenario1(12)
    }
}

fn rows_close(a: &Tensor, i: usize, b: &Tensor, j: usize) -> bool {
    a.row(i)
        .iter()
        .zip(b.row(j))
        .all(|(x, y)| (x - y).abs() < 1e-4)
}

/// §4.2's claim, made precise: with the order-free embedding and full
/// (unmasked) attention, the model is permutation-equivariant — permuting
/// the input permutes the outputs identically. This is exactly what
/// removing the positional encoding buys.
#[test]
fn order_free_model_is_permutation_equivariant() {
    let model = TransDas::new(cfg(MaskMode::Full, false));
    let input = [3u32, 5, 1, 7, 2, 9, 4, 6];
    let permuted = [7u32, 3, 9, 5, 4, 1, 6, 2]; // a permutation of input
    let perm_of = |k: u32| permuted.iter().position(|&x| x == k).unwrap();
    let out_a = model.output(&input);
    let out_b = model.output(&permuted);
    for (i, &k) in input.iter().enumerate() {
        assert!(
            rows_close(&out_a, i, &out_b, perm_of(k)),
            "output row for key {k} changed under permutation"
        );
    }
}

/// The base Transformer's positional embedding breaks that equivariance —
/// the ablation's point.
#[test]
fn positional_model_is_order_sensitive() {
    let model = TransDas::new(cfg(MaskMode::Full, true));
    let input = [3u32, 5, 1, 7, 2, 9, 4, 6];
    let swapped = [5u32, 3, 1, 7, 2, 9, 4, 6];
    let out_a = model.output(&input);
    let out_b = model.output(&swapped);
    // Key 1 sits at the same position in both, but its representation must
    // differ because its neighbours' positions changed.
    assert!(
        !rows_close(&out_a, 2, &out_b, 2),
        "positional model ignored an order change"
    );
}

/// The Trans-DAS mask removes target influence: changing input i+1 must
/// not change output i (within one block; with stacked blocks information
/// flows around, so test B=1).
#[test]
fn target_disconnect_blocks_direct_leakage() {
    let mut c = cfg(MaskMode::TransDas, false);
    c.blocks = 1;
    let model = TransDas::new(c);
    let a = [3u32, 5, 1, 7, 2, 9, 4, 6];
    let mut b = a;
    b[4] = 8; // change input 4 = the target of output position 3
    let out_a = model.output(&a);
    let out_b = model.output(&b);
    assert!(
        rows_close(&out_a, 3, &out_b, 3),
        "output 3 leaked information from its target input 4"
    );
    // Sanity: some other row does change (position 4 itself).
    assert!(!rows_close(&out_a, 4, &out_b, 4));
}

/// Full attention leaks the target — the flaw the paper's masking fixes.
#[test]
fn full_attention_leaks_the_target() {
    let mut c = cfg(MaskMode::Full, false);
    c.blocks = 1;
    let model = TransDas::new(c);
    let a = [3u32, 5, 1, 7, 2, 9, 4, 6];
    let mut b = a;
    b[4] = 8;
    let out_a = model.output(&a);
    let out_b = model.output(&b);
    assert!(
        !rows_close(&out_a, 3, &out_b, 3),
        "full attention should propagate the target change into output 3"
    );
}

/// Causal masking sees no future at all: changing any later input leaves
/// earlier outputs untouched, even with stacked blocks.
#[test]
fn causal_mask_ignores_the_future() {
    let model = TransDas::new(cfg(MaskMode::Causal, false));
    let a = [3u32, 5, 1, 7, 2, 9, 4, 6];
    let mut b = a;
    b[6] = 8;
    let out_a = model.output(&a);
    let out_b = model.output(&b);
    for i in 0..6 {
        assert!(
            rows_close(&out_a, i, &out_b, i),
            "causal output {i} depended on a future input"
        );
    }
}
