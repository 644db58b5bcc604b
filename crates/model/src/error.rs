//! The unified error type surfaced at UCAD crate boundaries.
//!
//! Fallible public entry points (configuration validation, builders, the
//! serving engine's `try_new`) all return [`UcadError`] instead of ad-hoc
//! `String`s or panics, so callers match on one enum regardless of which
//! layer rejected the request.

use crate::persist::PersistError;

/// Errors surfaced by the UCAD public API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum UcadError {
    /// A configuration value violates a structural constraint.
    InvalidConfig {
        /// The offending field (or field group).
        field: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// A persisted model snapshot could not be restored.
    Snapshot(String),
    /// A persisted artifact (checkpoint, tenant profile, shard log or
    /// snapshot) is structurally damaged: truncated, bit-flipped, or not
    /// that artifact at all. Loading never panics on damage — it returns
    /// this variant with the failed integrity check spelled out.
    Corrupt {
        /// The damaged file (or a description of the byte source).
        path: String,
        /// Which integrity check failed.
        reason: String,
    },
    /// An I/O operation on a persisted artifact failed.
    Io {
        /// The file or directory the operation targeted.
        path: String,
        /// The underlying OS error, stringified.
        reason: String,
    },
    /// A network operation (connect, read, write, daemon lifecycle) failed.
    Net {
        /// What the client or daemon was doing (e.g. `"connect 127.0.0.1:7400"`).
        context: String,
        /// The underlying failure, stringified.
        reason: String,
    },
    /// A wire frame or payload violated the `ucad-net` protocol. Damage
    /// (truncation, bit flips, implausible lengths, trailing garbage) is
    /// always reported through this variant — decoding never panics.
    Protocol {
        /// Which protocol check failed.
        reason: String,
    },
}

impl UcadError {
    /// Shorthand for an [`UcadError::InvalidConfig`].
    pub fn invalid(field: &'static str, reason: impl Into<String>) -> Self {
        UcadError::InvalidConfig {
            field,
            reason: reason.into(),
        }
    }

    /// Shorthand for an [`UcadError::Corrupt`].
    pub fn corrupt(path: impl Into<String>, reason: impl Into<String>) -> Self {
        UcadError::Corrupt {
            path: path.into(),
            reason: reason.into(),
        }
    }

    /// Shorthand for an [`UcadError::Io`].
    pub fn io(path: impl Into<String>, e: &std::io::Error) -> Self {
        UcadError::Io {
            path: path.into(),
            reason: e.to_string(),
        }
    }

    /// Shorthand for an [`UcadError::Net`].
    pub fn net(context: impl Into<String>, reason: impl Into<String>) -> Self {
        UcadError::Net {
            context: context.into(),
            reason: reason.into(),
        }
    }

    /// Shorthand for an [`UcadError::Protocol`].
    pub fn protocol(reason: impl Into<String>) -> Self {
        UcadError::Protocol {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for UcadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UcadError::InvalidConfig { field, reason } => {
                write!(f, "invalid configuration: {field}: {reason}")
            }
            UcadError::Snapshot(m) => write!(f, "snapshot error: {m}"),
            // The path names the artifact; the message does not guess its kind.
            UcadError::Corrupt { path, reason } => write!(f, "corrupt {path}: {reason}"),
            UcadError::Io { path, reason } => write!(f, "io error {path}: {reason}"),
            UcadError::Net { context, reason } => write!(f, "net error: {context}: {reason}"),
            UcadError::Protocol { reason } => write!(f, "protocol violation: {reason}"),
        }
    }
}

impl std::error::Error for UcadError {}

impl From<PersistError> for UcadError {
    fn from(e: PersistError) -> Self {
        UcadError::Snapshot(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let e = UcadError::invalid("heads", "must divide hidden");
        assert_eq!(
            e.to_string(),
            "invalid configuration: heads: must divide hidden"
        );
    }

    #[test]
    fn corrupt_and_io_display_name_the_artifact_by_its_path() {
        let e = UcadError::corrupt("/data/tenant-01/profile.json", "profile decode failed");
        assert_eq!(
            e.to_string(),
            "corrupt /data/tenant-01/profile.json: profile decode failed"
        );
        let e = UcadError::corrupt("/data/shard-0", "durable record is not UTF-8");
        assert_eq!(
            e.to_string(),
            "corrupt /data/shard-0: durable record is not UTF-8"
        );
        let e = UcadError::Io {
            path: "/data/shard-0/wal".into(),
            reason: "disk full".into(),
        };
        assert_eq!(e.to_string(), "io error /data/shard-0/wal: disk full");
    }

    #[test]
    fn net_and_protocol_display() {
        let e = UcadError::net("connect 127.0.0.1:7400", "connection refused");
        assert_eq!(
            e.to_string(),
            "net error: connect 127.0.0.1:7400: connection refused"
        );
        let e = UcadError::protocol("bad magic");
        assert_eq!(e.to_string(), "protocol violation: bad magic");
    }

    #[test]
    fn persist_errors_convert() {
        let e: UcadError = PersistError::Malformed("not json".into()).into();
        assert!(matches!(&e, UcadError::Snapshot(m) if m.contains("not json")));
    }
}
