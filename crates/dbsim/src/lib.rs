//! # ucad-dbsim
//!
//! A miniature in-memory relational database with audit logging: the
//! substrate that produces the raw data-access logs UCAD analyses.
//!
//! The paper's traces come from production database systems; this crate
//! replaces them with a real (if small) executor so that the synthetic
//! workloads in `ucad-trace` generate logs the same way a production system
//! would — statements are parsed, executed against table state, and each
//! execution is recorded with user / address / timestamp attributes.
//!
//! ```
//! use ucad_dbsim::{AuditedDatabase, Database, SessionContext, parse};
//!
//! let mut db = Database::new();
//! db.create_table("t_content", &["danmuKey", "count"]);
//! let mut audited = AuditedDatabase::new(db, 0);
//! let ctx = SessionContext {
//!     user: "user1".into(),
//!     client_ip: "192.168.0.7".into(),
//!     session_id: 1,
//! };
//! let stmt = parse("INSERT INTO t_content (danmuKey, count) VALUES (94, 23)").unwrap();
//! audited.execute(&ctx, &stmt).unwrap();
//! assert_eq!(audited.log.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod audit;
pub mod engine;
pub mod parser;
pub mod tenants;
pub mod zipf;

pub use ast::{Condition, OpKind, Projection, Statement, Value};
pub use audit::{AuditLog, AuditedDatabase, LogRecord, SessionContext};
pub use engine::{Database, ExecError, ExecResult, Table};
pub use parser::{abstract_template, parse, ParseError};
pub use tenants::{
    fleet_events, interleave_zipf, tenant_serving_events, training_records, FleetEvent,
    TenantArchetype, TenantSpec,
};
pub use zipf::ZipfSampler;
