//! # ucad
//!
//! UCAD — Unsupervised Contextual Anomaly Detection for database systems
//! (Li et al., SIGMOD 2022) — reproduced in Rust.
//!
//! UCAD detects stealthy abnormal data-access operations by comparing each
//! operation's semantics with the *contextual intent* inferred from the
//! operations around it. The system has two modules:
//!
//! * a **preprocessing module** ([`ucad_preprocess`]) that tokenizes raw
//!   SQL logs into statement keys and removes noise via access-control
//!   policies and DBSCAN clustering, and
//! * an **anomaly detection module** ([`ucad_model`]) built around the
//!   Trans-DAS transformer: order-free embeddings, bidirectional attention
//!   with a target-disconnect mask, and a triplet + cross-entropy training
//!   objective, detected against with a top-*p* ranking rule.
//!
//! This crate composes those into the [`Ucad`] system façade and provides
//! the evaluation machinery ([`metrics`], [`experiment`], [`sweep`]) used to
//! regenerate every table and figure of the paper.
//!
//! ```no_run
//! use ucad::{Ucad, UcadConfig};
//! use ucad_trace::{generate_raw_log, ScenarioSpec};
//!
//! let spec = ScenarioSpec::commenting();
//! let raw = generate_raw_log(&spec, 400, 0.1, 42);
//! let (system, report) = Ucad::train(&raw.sessions, UcadConfig::scenario1());
//! println!("trained on {} purified sessions", report.purified_sessions);
//! let verdict = system.detect(&raw.sessions[0]);
//! println!("verdict: {:?}", verdict.is_abnormal());
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod experiment;
pub mod metrics;
pub mod online;
pub mod serve;
pub mod serve_core;
pub mod sweep;
pub mod system;

pub use admission::{merge_seq_sorted, splitmix64, Admission};
pub use experiment::{
    evaluate_log_dataset, run_baseline, run_transdas, TokenizedDataset, TransferResult,
};
pub use metrics::{Confusion, MethodResult};
pub use online::{Alert, AlertReason, OnlineUcad, RaisedAlert, ServeObserver, SessionTracker};
pub use serve::{
    DurabilityConfig, OverloadPolicy, ServeConfig, ServeConfigBuilder, ServeStats,
    ShardedOnlineUcad, ShutdownReport, SubmitOutcome,
};
pub use sweep::{sweep_hidden, sweep_margin, sweep_top_p, sweep_window, SweepPoint};
pub use system::{Ucad, UcadConfig, UcadTrainReport, Verdict};
pub use ucad_baselines::NgramLm;
pub use ucad_model::{
    Detection, DetectionMode, Detector, DetectorConfig, DetectorConfigBuilder, ScoreCache,
    TransDas, TransDasConfig, UcadError,
};
pub use ucad_obs::FlightEntry;

/// One-stop imports for the common UCAD workflow: train a system, detect
/// against sessions, and serve online traffic.
///
/// ```no_run
/// use ucad::prelude::*;
/// ```
pub mod prelude {
    pub use crate::admission::{merge_seq_sorted, splitmix64, Admission};
    pub use crate::online::{Alert, AlertReason, OnlineUcad, ServeObserver};
    pub use crate::serve::{
        DurabilityConfig, OverloadPolicy, ServeConfig, ServeConfigBuilder, ServeStats,
        ShardedOnlineUcad, ShutdownReport, SubmitOutcome,
    };
    pub use crate::system::{Ucad, UcadConfig, UcadTrainReport, Verdict};
    pub use ucad_baselines::NgramLm;
    pub use ucad_model::{
        Detection, DetectionMode, Detector, DetectorConfig, DetectorConfigBuilder, ScoreCache,
        TransDas, TransDasConfig, UcadError,
    };
}
