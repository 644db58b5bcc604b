//! Order statistics and detection-quality arithmetic.

/// Median of `values` (mean of the two middle values for even counts);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Upper quartile (nearest rank), for rates repeated many times in one run:
/// interference from the host only ever makes an operation slower, so the
/// faster quartile is the less disturbed estimate, and it still moves with
/// every change to the code being timed.
pub fn upper_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.75)
}

/// `values` rounded to three decimals, for notes.
pub fn rounded(values: &[f64]) -> Vec<f64> {
    values
        .iter()
        .map(|x| (x * 1000.0).round() / 1000.0)
        .collect()
}

/// Nearest-rank quantile of an ascending-sorted sample: the smallest value
/// with at least `q` of the sample at or below it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of `ladder` (ascending quantiles such as 0.5, 0.9, 0.99)
/// that leaves at least `min_beyond` of `n` samples strictly above its
/// nearest-rank position; `None` when not even the lowest qualifies.
pub fn highest_supported(n: usize, ladder: &[f64], min_beyond: usize) -> Option<f64> {
    ladder
        .iter()
        .copied()
        .filter(|&q| {
            let rank = (q * n as f64).ceil() as usize;
            n >= rank && n - rank >= min_beyond
        })
        .fold(None, |best, q| Some(best.map_or(q, |b: f64| b.max(q))))
}

/// Session-level F1 of `flagged` against `labels`: each label is
/// `(session, truly_abnormal)`, and a session counts as flagged when
/// `flagged` contains it.
pub fn f1(labels: &[(u64, bool)], flagged: &std::collections::BTreeSet<u64>) -> f64 {
    let (mut tp, mut fp, mut fn_) = (0u64, 0u64, 0u64);
    for &(session, abnormal) in labels {
        match (abnormal, flagged.contains(&session)) {
            (true, true) => tp += 1,
            (false, true) => fp += 1,
            (true, false) => fn_ += 1,
            (false, false) => {}
        }
    }
    if tp == 0 {
        return 0.0;
    }
    2.0 * tp as f64 / (2 * tp + fp + fn_) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn upper_quartile_uses_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 7.0, 6.0];
        assert_eq!(upper_quartile(&v), 6.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn reported_percentile_is_highest_with_ten_samples_beyond() {
        let ladder = [0.5, 0.9, 0.99, 0.999];
        // 1000 samples: p99 sits at rank 990 with exactly 10 beyond it.
        assert_eq!(highest_supported(1000, &ladder, 10), Some(0.99));
        // 999 samples: p99 leaves only 9 beyond, p90 leaves 99.
        assert_eq!(highest_supported(999, &ladder, 10), Some(0.9));
        // 10_000 samples support p99.9 (10 beyond).
        assert_eq!(highest_supported(10_000, &ladder, 10), Some(0.999));
        // 15 samples: p50 leaves 7 beyond; nothing qualifies.
        assert_eq!(highest_supported(15, &ladder, 10), None);
        assert_eq!(highest_supported(20, &ladder, 10), Some(0.5));
    }

    #[test]
    fn f1_counts_flags_against_labels() {
        let labels = [(1, true), (2, true), (3, false), (4, false), (5, true)];
        // Flag 1, 2 (TP), 3 (FP); miss 5 (FN): F1 = 4 / (4 + 1 + 1).
        let flagged: BTreeSet<u64> = [1, 2, 3].into_iter().collect();
        assert!((f1(&labels, &flagged) - 4.0 / 6.0).abs() < 1e-12);
        // Perfect detection.
        let perfect: BTreeSet<u64> = [1, 2, 5].into_iter().collect();
        assert_eq!(f1(&labels, &perfect), 1.0);
        // Flags on unknown sessions are ignored; no true positive gives 0.
        let none: BTreeSet<u64> = [99].into_iter().collect();
        assert_eq!(f1(&labels, &none), 0.0);
    }
}
