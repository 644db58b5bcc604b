//! The UCAD serving daemon: a TCP front door over one
//! [`ShardedOnlineUcad`].
//!
//! The daemon owns the engine and serves the [`crate::protocol`] over a
//! listener: each accepted connection gets its own thread running a
//! synchronous read-one-frame / handle / write-one-frame loop against the
//! shared engine. Backpressure is the engine's own [`OverloadPolicy`]
//! mapped onto the wire: `Block` blocks the submitting connection (TCP's
//! own flow control propagates the stall to the client), `ShedNewest` and
//! `Degrade` come back as typed [`Response::Submitted`] outcomes with the
//! daemon-side accounting already bumped — exactly the in-process
//! contract, one socket further away.
//!
//! Damage handling splits by recoverability (see [`crate::protocol`]):
//! a structurally valid frame carrying a bad payload earns a
//! `Response::Error { recoverable: true }` and the connection lives on;
//! framing damage earns a best-effort `recoverable: false` error and the
//! connection is closed — the daemon itself always survives.
//!
//! ## Deadlines and self-defence
//!
//! Connection reads run on a short tick so every thread periodically
//! checks three clocks: a peer stalled *mid-frame* past
//! [`NetServeConfig::read_timeout`] is cut off (the stream can never
//! resynchronise anyway), a connection silent *at a frame boundary* past
//! [`NetServeConfig::idle_timeout`] is reaped
//! (`ucad_net_idle_reaped_total`) so silent clients cannot leak threads
//! for the life of the process, and a raised stop flag ends the thread so
//! shutdown never waits on an idle socket.
//!
//! With [`NetServeConfig::durability`] set, the daemon builds its engine
//! via [`ShardedOnlineUcad::recover`]: on a fresh directory that is a
//! durable engine, on an existing one it is crash *recovery* — the
//! restarted daemon resumes at its persisted arrival-sequence watermark,
//! which is what lets a router replay unacknowledged submits idempotently
//! (`ucad_net_resubmitted_total` counts the dup-acks).
//!
//! [`ShardedOnlineUcad`]: ucad::ShardedOnlineUcad
//! [`OverloadPolicy`]: ucad::OverloadPolicy

use crate::protocol::{
    decode_message, encode_message, is_timeout, FrameBuffer, FrameKind, HealthInfo, Request,
    Response, HEADER_LEN,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use ucad::{
    Alert, DurabilityConfig, NgramLm, ServeConfig, ShardedOnlineUcad, ShutdownReport, Ucad,
};
use ucad_fault::{NetReplyFate, NetRequestFate};
use ucad_model::UcadError;
use ucad_obs::{Counter, MetricKind};

/// How often a connection thread wakes from a blocked read to check its
/// deadlines and the stop flag.
const READ_TICK: Duration = Duration::from_millis(25);

/// Configuration of a serving daemon: where to listen plus the wrapped
/// engine's [`ServeConfig`], connection deadlines, and optional
/// durability.
#[derive(Debug, Clone)]
pub struct NetServeConfig {
    /// Listen address, e.g. `"127.0.0.1:7400"` (`:0` picks a free port).
    pub addr: String,
    /// Configuration of the engine behind the socket.
    pub serve: ServeConfig,
    /// When set, the engine is built with [`ShardedOnlineUcad::recover`]:
    /// WAL + snapshots under `durability.dir`, and crash recovery (including
    /// the arrival-sequence watermark) when the directory already has state.
    pub durability: Option<DurabilityConfig>,
    /// How long a connection may stall *mid-frame* before the daemon cuts
    /// it off — a half-sent request can never resynchronise the stream.
    pub read_timeout: Duration,
    /// Write deadline on per-connection sockets: a peer that stops
    /// draining its receive buffer cannot wedge a response forever.
    pub write_timeout: Duration,
    /// How long a connection may sit silent *at a frame boundary* before
    /// being reaped (`ucad_net_idle_reaped_total`).
    pub idle_timeout: Duration,
}

impl NetServeConfig {
    /// Fluent builder starting from `127.0.0.1:0`,
    /// [`ServeConfig::default`], no durability, and generous deadlines
    /// (30s read/write, 5min idle).
    pub fn builder() -> NetServeConfigBuilder {
        NetServeConfigBuilder {
            cfg: NetServeConfig {
                addr: "127.0.0.1:0".to_string(),
                serve: ServeConfig::default(),
                durability: None,
                read_timeout: Duration::from_secs(30),
                write_timeout: Duration::from_secs(30),
                idle_timeout: Duration::from_secs(300),
            },
        }
    }
}

/// Builder for [`NetServeConfig`]; validates on
/// [`NetServeConfigBuilder::build`] into the unified [`UcadError`].
#[derive(Debug, Clone)]
pub struct NetServeConfigBuilder {
    cfg: NetServeConfig,
}

impl NetServeConfigBuilder {
    /// Sets the listen address.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.addr = addr.into();
        self
    }

    /// Sets the wrapped engine's configuration.
    pub fn serve(mut self, serve: ServeConfig) -> Self {
        self.cfg.serve = serve;
        self
    }

    /// Roots the engine's durable state (WAL + snapshots) at
    /// `durability.dir`; an existing directory recovers instead of
    /// starting fresh.
    pub fn durability(mut self, durability: DurabilityConfig) -> Self {
        self.cfg.durability = Some(durability);
        self
    }

    /// Sets the mid-frame stall deadline on connection reads.
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.read_timeout = timeout;
        self
    }

    /// Sets the write deadline on connection sockets.
    pub fn write_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.write_timeout = timeout;
        self
    }

    /// Sets the boundary-idle deadline after which a silent connection is
    /// reaped.
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.idle_timeout = timeout;
        self
    }

    /// Validates and returns the configuration: the address must resolve to
    /// a socket address, the engine configuration must pass the engine's
    /// own [`ServeConfig::validate`], and all deadlines must be nonzero (a
    /// zero deadline would reap every connection on its first tick).
    pub fn build(self) -> Result<NetServeConfig, UcadError> {
        if self.cfg.addr.is_empty() {
            return Err(UcadError::invalid("addr", "listen address is empty"));
        }
        self.cfg
            .addr
            .to_socket_addrs()
            .map_err(|e| UcadError::net(format!("resolve {}", self.cfg.addr), e.to_string()))?;
        self.cfg.serve.validate()?;
        if self.cfg.read_timeout.is_zero()
            || self.cfg.write_timeout.is_zero()
            || self.cfg.idle_timeout.is_zero()
        {
            return Err(UcadError::invalid(
                "timeouts",
                "read, write, and idle deadlines must all be nonzero",
            ));
        }
        Ok(self.cfg)
    }
}

/// Wire-layer counters, registered on the engine's own registry so
/// [`Request::Metrics`] exposes them alongside `ucad_serve_*` — the
/// exposition survives the network hop with the transport's own telemetry
/// folded in.
#[derive(Clone)]
struct NetMetrics {
    connections: Counter,
    requests: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    protocol_errors: Counter,
    alerts_streamed: Counter,
    idle_reaped: Counter,
    resubmitted: Counter,
}

impl NetMetrics {
    fn register(registry: &ucad_obs::Registry) -> Self {
        registry.describe(
            "ucad_net_connections_total",
            MetricKind::Counter,
            "TCP connections accepted by the daemon",
        );
        registry.describe(
            "ucad_net_requests_total",
            MetricKind::Counter,
            "Protocol requests handled (all kinds, including failed ones)",
        );
        registry.describe(
            "ucad_net_bytes_read_total",
            MetricKind::Counter,
            "Frame bytes read off client connections",
        );
        registry.describe(
            "ucad_net_bytes_written_total",
            MetricKind::Counter,
            "Frame bytes written to client connections",
        );
        registry.describe(
            "ucad_net_protocol_errors_total",
            MetricKind::Counter,
            "Damaged frames and unparseable payloads rejected (typed, never a panic)",
        );
        registry.describe(
            "ucad_net_alerts_streamed_total",
            MetricKind::Counter,
            "Alerts shipped to clients by drain responses",
        );
        registry.describe(
            "ucad_net_idle_reaped_total",
            MetricKind::Counter,
            "Connections closed for sitting idle past the daemon's idle deadline",
        );
        registry.describe(
            "ucad_net_resubmitted_total",
            MetricKind::Counter,
            "Replayed submits acked below the engine's arrival-sequence watermark",
        );
        NetMetrics {
            connections: registry.counter("ucad_net_connections_total", &[]),
            requests: registry.counter("ucad_net_requests_total", &[]),
            bytes_read: registry.counter("ucad_net_bytes_read_total", &[]),
            bytes_written: registry.counter("ucad_net_bytes_written_total", &[]),
            protocol_errors: registry.counter("ucad_net_protocol_errors_total", &[]),
            alerts_streamed: registry.counter("ucad_net_alerts_streamed_total", &[]),
            idle_reaped: registry.counter("ucad_net_idle_reaped_total", &[]),
            resubmitted: registry.counter("ucad_net_resubmitted_total", &[]),
        }
    }
}

/// Per-connection deadlines, copied out of [`NetServeConfig`] for the
/// serve threads.
#[derive(Clone, Copy)]
struct ConnDeadlines {
    read: Duration,
    write: Duration,
    idle: Duration,
}

/// A bound (but not yet serving) daemon. [`NetDaemon::bind`] reserves the
/// port and builds the engine; [`NetDaemon::run`] serves until a
/// [`Request::Shutdown`] arrives, then gracefully shuts the engine down and
/// returns its [`ShutdownReport`].
pub struct NetDaemon {
    listener: TcpListener,
    addr: SocketAddr,
    shards: usize,
    engine: Arc<Mutex<Option<ShardedOnlineUcad>>>,
    stop: Arc<AtomicBool>,
    metrics: NetMetrics,
    deadlines: ConnDeadlines,
}

impl NetDaemon {
    /// Binds the listener and constructs the engine — durable (recovering
    /// any existing state) when [`NetServeConfig::durability`] is set.
    pub fn bind(system: Ucad, cfg: NetServeConfig) -> Result<Self, UcadError> {
        Self::bind_full(system, cfg, None)
    }

    /// [`NetDaemon::bind`] with the degraded-mode fallback model that
    /// [`OverloadPolicy::Degrade`](ucad::OverloadPolicy::Degrade) requires.
    /// A durable daemon refuses `Degrade` (see
    /// [`ShardedOnlineUcad::recover`]).
    pub fn bind_full(
        system: Ucad,
        cfg: NetServeConfig,
        fallback: Option<NgramLm>,
    ) -> Result<Self, UcadError> {
        let shards = cfg.serve.shards;
        let engine = match cfg.durability.clone() {
            Some(durability) => ShardedOnlineUcad::recover(system, cfg.serve, durability)?,
            None => ShardedOnlineUcad::try_new_full(system, cfg.serve, None, fallback)?,
        };
        let metrics = NetMetrics::register(engine.registry());
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| UcadError::net(format!("bind {}", cfg.addr), e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| UcadError::net("local_addr", e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| UcadError::net("set_nonblocking", e.to_string()))?;
        Ok(NetDaemon {
            listener,
            addr,
            shards,
            engine: Arc::new(Mutex::new(Some(engine))),
            stop: Arc::new(AtomicBool::new(false)),
            metrics,
            deadlines: ConnDeadlines {
                read: cfg.read_timeout,
                write: cfg.write_timeout,
                idle: cfg.idle_timeout,
            },
        })
    }

    /// The bound address (with the OS-assigned port when the configured
    /// address ended in `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that makes [`NetDaemon::run`] return from outside a
    /// connection (the in-process analogue of [`Request::Shutdown`]).
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Serves connections until a [`Request::Shutdown`] arrives (or the
    /// stop handle is raised), then shuts the engine down gracefully and
    /// returns its report. Connection threads are detached: they exit on
    /// client disconnect, deadline expiry, or when they observe the stop
    /// flag, and never outlive their sockets for long.
    pub fn run(self) -> Result<ShutdownReport, UcadError> {
        while !self.stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.metrics.connections.inc();
                    let engine = Arc::clone(&self.engine);
                    let stop = Arc::clone(&self.stop);
                    let metrics = self.metrics.clone();
                    let shards = self.shards;
                    let deadlines = self.deadlines;
                    std::thread::spawn(move || {
                        serve_connection(stream, engine, stop, metrics, shards, deadlines);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(UcadError::net("accept", e.to_string())),
            }
        }
        let engine = self
            .engine
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take()
            .expect("engine taken only here");
        ucad_obs::event("net.daemon_stop", &[("addr", self.addr.to_string())]);
        Ok(engine.shutdown())
    }

    /// Spawns [`NetDaemon::run`] on a background thread, returning the
    /// bound address, a stop handle, and the join handle yielding the
    /// engine's report.
    #[allow(clippy::type_complexity)]
    pub fn spawn(
        self,
    ) -> (
        SocketAddr,
        Arc<AtomicBool>,
        std::thread::JoinHandle<Result<ShutdownReport, UcadError>>,
    ) {
        let addr = self.addr;
        let stop = self.stop_handle();
        let handle = std::thread::spawn(move || self.run());
        (addr, stop, handle)
    }
}

/// What the frame handler decided about the connection's future.
enum ConnFate {
    /// Keep serving this connection.
    Continue,
    /// Close it (shutdown request, write failure, or injected fault).
    Close,
}

/// One connection's synchronous serve loop: a tick-based read into a
/// [`FrameBuffer`] so deadlines and the stop flag are checked even while
/// the peer is silent.
fn serve_connection(
    mut stream: TcpStream,
    engine: Arc<Mutex<Option<ShardedOnlineUcad>>>,
    stop: Arc<AtomicBool>,
    metrics: NetMetrics,
    shards: usize,
    deadlines: ConnDeadlines,
) {
    if stream.set_read_timeout(Some(READ_TICK)).is_err()
        || stream.set_write_timeout(Some(deadlines.write)).is_err()
    {
        return;
    }
    let mut reader = FrameBuffer::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut last_activity = Instant::now();
    loop {
        // Drain every complete frame already buffered before reading more.
        loop {
            let (kind, payload) = match reader.pop() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    // Framing damage: the byte stream has lost its
                    // self-delimiting property, so the connection cannot
                    // be salvaged. Answer best-effort and close; the
                    // daemon survives.
                    metrics.protocol_errors.inc();
                    ucad_obs::event("net.frame_damage", &[("error", e.to_string())]);
                    respond(
                        &mut stream,
                        &metrics,
                        &Response::Error {
                            recoverable: false,
                            message: e.to_string(),
                        },
                        false,
                    );
                    return;
                }
            };
            match handle_frame(&mut stream, &engine, &stop, &metrics, shards, kind, payload) {
                ConnFate::Continue => {}
                ConnFate::Close => return,
            }
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if reader.is_mid_frame() {
                    // EOF inside a frame: a torn request. Nothing to
                    // answer — the peer is gone.
                    metrics.protocol_errors.inc();
                    ucad_obs::event("net.torn_request", &[]);
                }
                return;
            }
            Ok(n) => {
                reader.push(&chunk[..n]);
                last_activity = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                let silent = last_activity.elapsed();
                if reader.is_mid_frame() {
                    if silent >= deadlines.read {
                        // Stalled mid-frame past the read deadline: the
                        // peer can neither finish nor restart the frame.
                        metrics.protocol_errors.inc();
                        ucad_obs::event("net.read_stalled", &[]);
                        respond(
                            &mut stream,
                            &metrics,
                            &Response::Error {
                                recoverable: false,
                                message: format!(
                                    "read deadline ({:?}) expired mid-frame",
                                    deadlines.read
                                ),
                            },
                            false,
                        );
                        return;
                    }
                } else if silent >= deadlines.idle {
                    // Quietly reap the idle connection; the client finds
                    // out on its next call and may simply reconnect.
                    metrics.idle_reaped.inc();
                    ucad_obs::event("net.idle_reaped", &[]);
                    return;
                }
            }
            Err(e) => {
                ucad_obs::event("net.read_failed", &[("error", e.to_string())]);
                return;
            }
        }
    }
}

/// Dispatches one complete, CRC-clean frame.
fn handle_frame(
    stream: &mut TcpStream,
    engine: &Arc<Mutex<Option<ShardedOnlineUcad>>>,
    stop: &Arc<AtomicBool>,
    metrics: &NetMetrics,
    shards: usize,
    kind: FrameKind,
    payload: Vec<u8>,
) -> ConnFate {
    metrics.requests.inc();
    metrics.bytes_read.add((HEADER_LEN + payload.len()) as u64);
    if kind != FrameKind::Request {
        metrics.protocol_errors.inc();
        let ok = respond(
            stream,
            metrics,
            &Response::Error {
                recoverable: true,
                message: "expected a request frame, got a response frame".to_string(),
            },
            false,
        );
        return if ok {
            ConnFate::Continue
        } else {
            ConnFate::Close
        };
    }
    // Injected network damage, pre-handling: a reset drops the connection
    // with the request unprocessed, a blackhole swallows it without an
    // answer (the client's read deadline fires). Both are safe for every
    // request kind precisely because the engine never saw the request.
    match ucad_fault::on_net_request() {
        NetRequestFate::Pass => {}
        NetRequestFate::Reset => {
            ucad_obs::event("net.fault_conn_reset", &[]);
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return ConnFate::Close;
        }
        NetRequestFate::Blackhole => {
            ucad_obs::event("net.fault_blackhole", &[]);
            return ConnFate::Continue;
        }
    }
    let request: Request = match decode_message(&payload) {
        Ok(request) => request,
        Err(e) => {
            // The frame itself was intact (length and CRC passed), so
            // the stream keeps framing: skip exactly this message.
            metrics.protocol_errors.inc();
            let ok = respond(
                stream,
                metrics,
                &Response::Error {
                    recoverable: true,
                    message: e.to_string(),
                },
                false,
            );
            return if ok {
                ConnFate::Continue
            } else {
                ConnFate::Close
            };
        }
    };
    let shutdown = matches!(request, Request::Shutdown);
    let submit = matches!(request, Request::Submit { .. });
    let response = {
        let mut guard = engine
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match guard.as_mut() {
            Some(engine) => handle_request(engine, request, metrics, shards),
            None => Response::Error {
                recoverable: false,
                message: "daemon is shutting down".to_string(),
            },
        }
    };
    let ok = respond(stream, metrics, &response, submit);
    if shutdown {
        stop.store(true, Ordering::SeqCst);
        return ConnFate::Close;
    }
    if ok {
        ConnFate::Continue
    } else {
        ConnFate::Close
    }
}

/// Executes one request against the engine. Overload outcomes and
/// engine-side errors both come back as data — the connection's fate is
/// decided by the protocol layer, never by the engine.
fn handle_request(
    engine: &mut ShardedOnlineUcad,
    request: Request,
    metrics: &NetMetrics,
    shards: usize,
) -> Response {
    match request {
        Request::Submit { seq, record } => {
            let outcome = match seq {
                Some(seq) => {
                    if seq < engine.seq_watermark() {
                        // A replay of a settled arrival position: the
                        // engine dup-acks it without reprocessing.
                        metrics.resubmitted.inc();
                    }
                    engine.try_submit_at(&record, seq)
                }
                None => engine.try_submit(&record),
            };
            match outcome {
                Ok(outcome) => Response::Submitted(outcome),
                // The engine stays consistent on a failed durable append
                // (the record reached no shard); the caller may retry, so
                // the connection survives.
                Err(e) => Response::Error {
                    recoverable: true,
                    message: e.to_string(),
                },
            }
        }
        Request::Close { session_id } => {
            engine.close_session(session_id);
            Response::Done
        }
        Request::FalseAlarm { session_id } => {
            engine.confirm_false_alarm(session_id);
            Response::Done
        }
        Request::Flush => {
            engine.flush();
            Response::Done
        }
        Request::Drain => {
            let alerts: Vec<(u64, Alert)> = engine.drain_alerts_seq();
            metrics.alerts_streamed.add(alerts.len() as u64);
            Response::Alerts(alerts)
        }
        Request::Stats => Response::Stats(engine.stats()),
        Request::Metrics => Response::Text(engine.render_metrics()),
        Request::Flight => Response::Text(engine.dump_flight_json()),
        Request::Health => {
            let stats = engine.stats();
            Response::Health(HealthInfo {
                shards,
                model_epoch: engine.model_epoch(),
                records: stats.records(),
                pending_alerts: stats.pending_alerts,
                durable: engine.durable_ops_per_shard().is_some(),
            })
        }
        Request::Shutdown => Response::Bye(engine.stats()),
    }
}

/// Writes one response frame, returning whether the connection is still
/// usable. Write failures are logged, not propagated — the peer may have
/// hung up mid-response, which only ends this connection.
///
/// `submit_reply` routes the response through the fault layer's
/// torn-frame / crash-reply hook. Only submit replies qualify: tearing a
/// drain response would lose alerts whose exactly-once delivery marker is
/// already durable, which no retry protocol can undo — whereas an unacked
/// submit is exactly what the resubmit/watermark protocol exists to heal.
fn respond(
    stream: &mut TcpStream,
    metrics: &NetMetrics,
    response: &Response,
    submit_reply: bool,
) -> bool {
    let frame = encode_message(FrameKind::Response, response);
    if submit_reply && matches!(ucad_fault::on_net_submit_reply(), NetReplyFate::Torn) {
        // Ship a strict prefix, then hang up: the client observes a torn
        // frame and must resubmit on a fresh connection.
        let cut = (frame.len() / 2).max(1);
        let _ = stream
            .write_all(&frame[..cut])
            .and_then(|()| stream.flush());
        ucad_obs::event("net.fault_torn_reply", &[]);
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return false;
    }
    match stream.write_all(&frame).and_then(|()| stream.flush()) {
        Ok(()) => {
            metrics.bytes_written.add(frame.len() as u64);
            true
        }
        Err(e) => {
            ucad_obs::event("net.write_failed", &[("error", e.to_string())]);
            false
        }
    }
}
