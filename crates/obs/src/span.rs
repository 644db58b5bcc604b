//! RAII timing spans: `let _s = span!("train.epoch");` measures the
//! enclosing scope and feeds the per-span latency histogram
//! `ucad_span_duration_seconds{span="train.epoch"}` in the [`crate::global`]
//! registry. When the `UCAD_OBS` event log is enabled, each completed span
//! also emits one structured JSON line; when `UCAD_PROF` is enabled, it
//! additionally folds into the hierarchical [`crate::profile`] table.
//!
//! The macro caches the histogram handle in a per-call-site `OnceLock`, so
//! the registry mutex is taken once per call site for the lifetime of the
//! process — hot paths pay two `Instant::now()` calls and a few relaxed
//! atomic increments per span.

use crate::registry::Histogram;
use std::time::Instant;

/// The latency-bucket layout every duration metric shares: log-spaced
/// bounds, 100ns to 100s at 5 buckets per decade (46 buckets, ~58% relative
/// width) — fine enough for meaningful p50/p90/p99/p999 interpolation from
/// a single attention matmul to a whole training epoch. Computed once per
/// process.
pub fn latency_log_bounds() -> &'static [f64] {
    static BOUNDS: std::sync::OnceLock<Vec<f64>> = std::sync::OnceLock::new();
    BOUNDS.get_or_init(|| crate::registry::log_bounds(1e-7, 100.0, 5))
}

/// Live timing guard; observes its histogram on drop. Construct through
/// [`crate::span!`] (or [`SpanGuard::new`] with a hand-built histogram).
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
    hist: Histogram,
    /// Whether this guard pushed a frame onto the profile stack (latched at
    /// construction so an env flip mid-span cannot unbalance the stack).
    profiled: bool,
}

impl SpanGuard {
    /// Starts a span feeding `hist`.
    pub fn new(name: &'static str, hist: Histogram) -> Self {
        let profiled = crate::profile::prof_enabled();
        if profiled {
            crate::profile::enter(name);
        }
        SpanGuard {
            name,
            start: Instant::now(),
            hist,
            profiled,
        }
    }

    /// Span name (as passed to `span!`).
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let secs = elapsed.as_secs_f64();
        self.hist.observe(secs);
        if self.profiled {
            crate::profile::exit(elapsed.as_nanos() as u64);
        }
        if crate::obs_enabled() {
            crate::event(
                "span",
                &[
                    ("name", self.name.to_string()),
                    ("us", format!("{:.1}", secs * 1e6)),
                ],
            );
        }
    }
}

/// Opens an RAII timing span: `let _guard = span!("model.forward");`.
/// The span name must be a string literal (it labels the
/// `ucad_span_duration_seconds` series and keys the per-call-site handle
/// cache).
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static HIST: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        let hist = HIST.get_or_init(|| {
            $crate::global().histogram(
                "ucad_span_duration_seconds",
                &[("span", $name)],
                $crate::latency_log_bounds(),
            )
        });
        $crate::SpanGuard::new($name, hist.clone())
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_its_histogram() {
        let hist = Histogram::new(latency_log_bounds());
        {
            let _g = SpanGuard::new("test.scope", hist.clone());
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.sum >= 0.001, "span measured {}s", snap.sum);
    }

    #[test]
    fn span_macro_feeds_the_global_registry() {
        {
            let _g = crate::span!("obs.test.macro");
        }
        {
            let _g = crate::span!("obs.test.macro");
        }
        let snaps = crate::global().snapshot();
        let series = snaps
            .iter()
            .find(|m| m.name == "ucad_span_duration_seconds" && m.labels.contains("obs.test.macro"))
            .expect("span series registered");
        let hist = series.histogram.as_ref().unwrap();
        assert_eq!(hist.count, 2);
        // Span histograms are log-bucketed now: quantiles must resolve.
        assert!(hist.quantile(0.99).is_some());
        assert_eq!(hist.bounds.len(), latency_log_bounds().len());
    }
}
