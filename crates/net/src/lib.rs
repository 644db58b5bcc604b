//! # ucad-net
//!
//! The network front door of the UCAD serving engine: a zero-external-dep
//! TCP daemon, a compact CRC-framed binary protocol, and a consistent-hash
//! router that spreads one logical stream across N daemon processes.
//!
//! The crate is the remote half of the [`ucad::Admission`] redesign:
//!
//! * [`protocol`] — length-prefixed frames (`ucad-wal`'s checked frame,
//!   the layout of WAL records and file envelopes, under a tag of magic
//!   `"UNET"`, version and kind) carrying JSON
//!   requests/responses. Damage decodes to typed [`ucad_model::UcadError`]
//!   values, never a panic.
//! * [`NetDaemon`] — owns a [`ucad::ShardedOnlineUcad`] and serves the
//!   protocol; overload policies (`Block` / `ShedNewest` / `Degrade`)
//!   travel the wire as typed submit outcomes with exact accounting, and
//!   the metrics/flight exposition survives the hop (plus `ucad_net_*`
//!   transport counters).
//! * [`NetClient`] / [`NetRouter`] — both implement [`ucad::Admission`].
//!   The router hashes sessions to daemons with the engine's own
//!   [`ucad::splitmix64`] discipline, assigns global arrival sequences,
//!   and re-merges drained alerts with [`ucad::merge_seq_sorted`] — so the
//!   cross-process alert stream is byte-identical to a single-process
//!   engine for any topology.
//!
//! The wire is self-healing: every socket carries deadlines, an I/O
//! failure poisons the connection (fail-fast typed errors instead of a
//! desynced stream), [`RetryPolicy`] drives bounded deterministic
//! reconnect-and-retry, and the router replays unacknowledged submits
//! through a supervisor-updatable [`AddrBook`] — the engine dup-acks any
//! sequence below its durable arrival watermark, so byte-identity holds
//! through `kill -9` + crash recovery + failover. Resilience counters:
//! `ucad_net_{retries,reconnects,timeouts,resubmitted,idle_reaped}_total`.
//!
//! ```no_run
//! use ucad::prelude::*;
//! use ucad_net::{NetDaemon, NetRouter, NetServeConfig};
//! # fn system() -> Ucad { unimplemented!() }
//!
//! let cfg = NetServeConfig::builder().addr("127.0.0.1:0").build()?;
//! let daemon = NetDaemon::bind(system(), cfg)?;
//! let (addr, _stop, _join) = daemon.spawn();
//! let mut router = NetRouter::connect(&[addr.to_string()], 0x5EED)?;
//! // `router` is an `Admission` — drive it like the in-process engine.
//! # Ok::<(), UcadError>(())
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod protocol;
pub mod router;

pub use client::{NetClient, NetClientConfig, RetryPolicy};
pub use daemon::{NetDaemon, NetServeConfig, NetServeConfigBuilder};
pub use protocol::{FrameBuffer, FrameKind, HealthInfo, Request, Response};
pub use router::{AddrBook, NetRouter, NetRouterConfig};
