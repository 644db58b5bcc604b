//! Reads counters and histogram quantiles out of a Prometheus text
//! exposition (what `render_metrics()` returns).

use std::collections::BTreeMap;

fn series<'a>(text: &'a str, name: &'a str) -> impl Iterator<Item = (&'a str, f64)> + 'a {
    text.lines().filter_map(move |line| {
        let rest = line.strip_prefix(name)?;
        let (labels, value) = if let Some(r) = rest.strip_prefix('{') {
            let close = r.find('}')?;
            (&r[..close], r[close + 1..].trim())
        } else if rest.starts_with(' ') {
            ("", rest.trim())
        } else {
            return None;
        };
        Some((labels, value.parse().ok()?))
    })
}

/// Sum of every series of counter (or gauge) `name`; 0 when absent.
pub fn counter(text: &str, name: &str) -> f64 {
    series(text, name).map(|(_, v)| v).sum()
}

/// Quantile `q` of histogram `name`, merged over all its label sets, by
/// linear interpolation inside the bucket holding the `q`-th sample.
/// `None` when the histogram is absent or empty.
pub fn histogram_quantile(text: &str, name: &str, q: f64) -> Option<f64> {
    let bucket = format!("{name}_bucket");
    // le -> cumulative count summed over series.
    let mut cum: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for (labels, v) in series(text, &bucket) {
        let le = labels
            .split(',')
            .find_map(|kv| kv.trim().strip_prefix("le=\""))?
            .trim_end_matches('"');
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().ok()?
        };
        let e = cum.entry(bound.to_bits()).or_insert((bound, 0.0));
        e.1 += v;
    }
    let mut buckets: Vec<(f64, f64)> = cum.into_values().collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let target = q * total;
    let mut lower = 0.0;
    let mut before = 0.0;
    for &(upper, c) in &buckets {
        if c >= target && c > before {
            if upper.is_infinite() {
                return Some(lower);
            }
            let frac = ((target - before) / (c - before)).clamp(0.0, 1.0);
            return Some(lower + (upper - lower) * frac);
        }
        lower = upper;
        before = c;
    }
    Some(lower)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# TYPE ucad_x_total counter
ucad_x_total{shard=\"0\"} 3
ucad_x_total{shard=\"1\"} 4
ucad_x_total_other 100
ucad_h_seconds_bucket{shard=\"0\",le=\"0.001\"} 2
ucad_h_seconds_bucket{shard=\"0\",le=\"0.01\"} 4
ucad_h_seconds_bucket{shard=\"0\",le=\"+Inf\"} 4
ucad_h_seconds_bucket{shard=\"1\",le=\"0.001\"} 0
ucad_h_seconds_bucket{shard=\"1\",le=\"0.01\"} 4
ucad_h_seconds_bucket{shard=\"1\",le=\"+Inf\"} 4
ucad_h_seconds_count 8
";

    #[test]
    fn counters_sum_over_label_sets_and_match_exact_names() {
        assert_eq!(counter(TEXT, "ucad_x_total"), 7.0);
        assert_eq!(counter(TEXT, "ucad_missing"), 0.0);
    }

    #[test]
    fn histogram_quantiles_merge_series_and_interpolate() {
        // Merged: 2 samples <= 1ms, 8 <= 10ms.
        let p25 = histogram_quantile(TEXT, "ucad_h_seconds", 0.25).unwrap();
        assert!((p25 - 0.001).abs() < 1e-12, "{p25}");
        let p50 = histogram_quantile(TEXT, "ucad_h_seconds", 0.5).unwrap();
        // Two of the six samples in (1ms, 10ms] sit below the median.
        assert!((p50 - (0.001 + 0.009 * (2.0 / 6.0))).abs() < 1e-12, "{p50}");
        assert!(histogram_quantile(TEXT, "ucad_none", 0.5).is_none());
    }
}
