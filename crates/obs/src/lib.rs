//! # ucad-obs
//!
//! Unified observability substrate for the UCAD pipeline: one lock-cheap
//! metrics registry, a lightweight span/tracing facility, and the serve
//! flight recorder — shared by preprocessing, training, the model forward
//! path and the sharded serving engine. Zero external dependencies (the
//! build environment has no route to crates.io).
//!
//! Three components:
//!
//! * [`Registry`] — atomic [`Counter`]s, [`Gauge`]s and fixed-bucket
//!   [`Histogram`]s with labels. Handles are plain `Arc`s over atomics:
//!   registration takes a mutex once, every subsequent increment is
//!   lock-free. Exposition as Prometheus text ([`Registry::render_prometheus`])
//!   or a JSON snapshot ([`Registry::snapshot_json`]) for tests and dumps.
//! * [`span!`] — RAII timing guards feeding per-span latency histograms
//!   (`ucad_span_duration_seconds{span="..."}`) in the [`global`] registry,
//!   plus an optional structured event log (one JSON line per event) that is
//!   env-gated via `UCAD_OBS` and writes to stderr or a writer installed
//!   with [`set_event_writer`].
//! * [`FlightRecorder`] — a bounded ring buffer of per-alert
//!   [`FlightEntry`]s (triggering key window, top-*p* rank/score, cache
//!   hit/miss, shard id, queue depth at enqueue), dumpable as JSON on
//!   demand or at engine shutdown: the "why did this alert fire" black box.
//!
//! Metric naming follows `ucad_<layer>_<name>{label="value"}` — see
//! DESIGN.md §"Observability" for the full scheme.

#![warn(missing_docs)]

pub mod cardinality;
pub mod flight;
pub mod profile;
pub mod registry;
pub mod span;

pub use cardinality::LabelGuard;
pub use flight::{FlightEntry, FlightRecorder};
pub use profile::prof_enabled;
pub use registry::{
    log_bounds, Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricSnapshot, Registry,
    EXPOSED_QUANTILES,
};
pub use span::{latency_log_bounds, SpanGuard};

use std::io::Write;
use std::sync::{Mutex, OnceLock};

/// The process-wide registry used by `span!` and the pipeline-stage
/// instrumentation (preprocess, training, model forward). Per-engine
/// metrics (serving shards, score cache, flight recorder) live in
/// engine-owned registries instead, so concurrent engines in one process
/// never share counters.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// True when the `UCAD_OBS` environment variable enables the structured
/// event log (any value except empty, `0`, `false` or `off`). Metric
/// registration and span histograms are always on — only event emission is
/// gated. The variable is read once per process.
pub fn obs_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("UCAD_OBS") {
        Ok(v) => !matches!(v.as_str(), "" | "0" | "false" | "off"),
        Err(_) => false,
    })
}

fn event_sink() -> &'static Mutex<Option<Box<dyn Write + Send>>> {
    static SINK: OnceLock<Mutex<Option<Box<dyn Write + Send>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Redirects the structured event log away from stderr (tests capture
/// events this way). Pass-through of everything emitted after the call.
pub fn set_event_writer(writer: Box<dyn Write + Send>) {
    *event_sink().lock().expect("event sink poisoned") = Some(writer);
}

/// Writes one pre-formatted JSON line to the event sink (stderr by
/// default). Unconditional — callers gate on [`obs_enabled`] so that
/// explicit dumps (e.g. the flight recorder at shutdown) can bypass the
/// gate when asked for directly.
pub fn write_event_line(line: &str) {
    let mut sink = event_sink().lock().expect("event sink poisoned");
    match sink.as_mut() {
        Some(w) => {
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
        None => eprintln!("{line}"),
    }
}

/// Emits one structured event as a JSON line (when [`obs_enabled`]):
/// `{"event":"<kind>","<field>":<value>,...}`. Values are JSON-escaped
/// strings; numeric fields should be pre-formatted by the caller.
pub fn event(kind: &str, fields: &[(&str, String)]) {
    if !obs_enabled() {
        return;
    }
    let mut line = String::with_capacity(64);
    line.push_str("{\"event\":\"");
    line.push_str(&registry::escape_json(kind));
    line.push('"');
    for (k, v) in fields {
        line.push_str(",\"");
        line.push_str(&registry::escape_json(k));
        line.push_str("\":\"");
        line.push_str(&registry::escape_json(v));
        line.push('"');
    }
    line.push('}');
    write_event_line(&line);
}

/// Dumps the hierarchical span profile to stderr — the `UCAD_PROF=1`
/// shutdown hook benches and examples call last thing before exit. No-op
/// unless profiling is enabled and at least one span completed.
pub fn dump_profile_if_enabled() {
    if !prof_enabled() || profile::stats().is_empty() {
        return;
    }
    eprint!("{}", profile::render_report());
    eprintln!("# collapsed stacks (self-time µs):");
    eprint!("{}", profile::render_collapsed());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global() as *const Registry;
        let b = global() as *const Registry;
        assert_eq!(a, b);
    }

    #[test]
    fn event_formatting_escapes_fields() {
        // Events are gated on UCAD_OBS; exercise the formatting path by
        // checking escape_json directly plus the no-panic path of event().
        event("test", &[("k", "v\"w".to_string())]);
        assert_eq!(registry::escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
