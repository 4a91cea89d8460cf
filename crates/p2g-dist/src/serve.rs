//! Remote session serving: frames in over TCP, encoded frames back out.
//!
//! [`run_serve_node`] hosts a [`SessionRuntime`] behind a [`TcpNet`]
//! endpoint: clients open named pipelines (`OpenSession`), push frame
//! payloads (`SubmitFrame`) and receive completed outputs (`Output`) —
//! the network mirror of the in-process `submit`/`recv` session API.
//! [`ServeClient`] / [`RemoteSession`] are the client half.
//!
//! # Exactly-once on an at-least-once transport
//!
//! The TCP transport resends every unacknowledged frame after a
//! reconnect, so each protocol message may arrive more than once. The
//! protocol is built so every duplicate is harmless:
//!
//! * Frame ages are client-assigned and dense from 0 — the server tracks
//!   the next expected age per session and silently drops any
//!   `SubmitFrame` below it (a duplicate). An age *above* the expected
//!   one can only come from a broken client and closes the session.
//! * Flow-control grants are **cumulative**: `Credit { granted }` means
//!   "ages `0..granted` are admissible", so the client takes the max of
//!   what it has seen and a replayed grant changes nothing.
//! * Outputs arrive in age order per session (the server emits them in
//!   completion order and TCP preserves it), so the client drops any
//!   output whose age is below its next expected output age.
//!
//! # Flow control
//!
//! The grant maps 1:1 onto the in-process admission window: the server
//! grants `delivered + max_in_flight`, so an honest client (which never
//! submits at or beyond the grant) can never hit the session's
//! `WouldBlock` path — every admitted frame has a free in-flight slot. A
//! client that submits past its grant is rejected and closed.
//!
//! # Orphan collection
//!
//! The server pushes per-session stats on an interval; those frames ride
//! the same supervised connections as everything else, so a client that
//! died (crash, kill -9) stops acknowledging and the transport marks it
//! dead after its retry budget. Every session of a dead client is then
//! closed, drained and finished — slabs and ages are released, which the
//! process-level tests assert by watching the collection log line.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use p2g_field::{Buffer, FieldId, Region};
use p2g_graph::NodeId;
use p2g_runtime::{
    Program, Qos, RuntimeError, Session, SessionConfig, SessionRuntime, SubmitError,
};

use crate::tcp::TcpNet;
use crate::transport::{NetMsg, RetryConfig, Transport, MASTER_NODE};

/// Highest valid QoS priority class (0 = realtime, 1 = normal, 2 = bulk).
const MAX_QOS_CLASS: u8 = 2;

fn net_err(what: &str, e: impl std::fmt::Display) -> RuntimeError {
    RuntimeError::Net(format!("{what}: {e}"))
}

// ---------------------------------------------------------------------------
// Pipeline registry
// ---------------------------------------------------------------------------

/// One `OpenSession` request, as seen by a [`PipelineFactory`].
#[derive(Debug, Clone)]
pub struct OpenRequest {
    /// Registered pipeline name the client asked for.
    pub pipeline: String,
    /// Pipeline-specific integer settings (e.g. width/height/quality).
    pub params: Vec<(String, i64)>,
    /// Requested QoS priority class (0..=2).
    pub priority: u8,
    /// Requested fair-share weight (clamped to at least 1).
    pub weight: u32,
}

impl OpenRequest {
    /// Look up an integer parameter by name.
    pub fn param(&self, name: &str) -> Option<i64> {
        self.params
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// `param(name)` or `default` when absent.
    pub fn param_or(&self, name: &str, default: i64) -> i64 {
        self.param(name).unwrap_or(default)
    }
}

/// Turns a client's frame payload into the field parts a [`Session`]
/// submit expects. Returns `Err(reason)` on a malformed payload — the
/// server rejects and closes the session instead of panicking.
pub type FrameDecoder =
    Arc<dyn Fn(&Session, &[u8]) -> Result<Vec<(FieldId, Region, Buffer)>, String> + Send + Sync>;

/// A server-side pipeline instantiation produced by a [`PipelineFactory`]
/// for one `OpenSession`.
pub struct TenantPipeline {
    /// The program to run resident for this session.
    pub program: Program,
    /// Session configuration: output kernel, sink, admission window. The
    /// server overlays the QoS class/weight from the open request.
    pub config: SessionConfig,
    /// Payload decoder for this pipeline's `SubmitFrame` frames.
    pub decode: FrameDecoder,
}

/// Builds a [`TenantPipeline`] for an open request, or explains why it
/// cannot (`Err(reason)` becomes a `SessionRejected` on the wire).
pub type PipelineFactory =
    Arc<dyn Fn(&OpenRequest) -> Result<TenantPipeline, String> + Send + Sync>;

/// Named pipelines a serve node offers.
pub type PipelineRegistry = HashMap<String, PipelineFactory>;

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Configuration of one serve node.
#[derive(Clone)]
pub struct ServeConfig {
    /// Listen port (0 = ephemeral; the chosen port is logged as
    /// `p2g-serve: listening on port N`).
    pub port: u16,
    /// Shared pool worker threads.
    pub workers: usize,
    /// Send retry/backoff discipline.
    pub retry: RetryConfig,
    /// Interval between per-session stats pushes (also the orphan
    /// detection probe — stats frames to a dead client trip the
    /// transport's failure detector).
    pub stats_interval: Duration,
    /// Fallback staleness bound: a session whose client has been silent
    /// this long with nothing in flight is collected even if the
    /// transport still believes the peer is alive.
    pub orphan_timeout: Duration,
    /// Hard lifetime cap on the serve loop (CI safety net).
    pub deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            port: 0,
            workers: 4,
            retry: RetryConfig::default(),
            stats_interval: Duration::from_millis(200),
            orphan_timeout: Duration::from_secs(30),
            deadline: Duration::from_secs(3600),
        }
    }
}

/// Final accounting of one serve run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Sessions successfully opened.
    pub sessions_opened: u64,
    /// Opens and mid-stream submits refused.
    pub sessions_rejected: u64,
    /// Frames completed across all sessions (including dropped).
    pub frames_completed: u64,
    /// Frames dropped (poisoned) across all sessions.
    pub frames_dropped: u64,
    /// Sessions collected because their client died or went stale.
    pub orphans_collected: u64,
}

/// One live remote session on the server.
struct Tenant {
    session: Session,
    decode: FrameDecoder,
    client: NodeId,
    id: u64,
    /// Admission window (`max_in_flight`) — the grant increment.
    window: u64,
    /// Next expected submit age (dense from 0); the dedup line.
    expected_age: u64,
    /// Cumulative grant last sent to the client.
    granted: u64,
    /// Outputs delivered to the client so far.
    delivered: u64,
    /// Dropped outputs among those delivered.
    dropped: u64,
    /// Client asked to close; drain and finish.
    closed: bool,
    last_activity: Instant,
    last_stats: Instant,
}

/// Run a serve node until a [`NetMsg::Finish`] arrives (admin shutdown)
/// or the configured deadline passes. Blocks the calling thread.
pub fn run_serve_node(
    registry: PipelineRegistry,
    cfg: &ServeConfig,
) -> Result<ServeOutcome, RuntimeError> {
    let net = TcpNet::bind_on(MASTER_NODE, cfg.retry, 0, cfg.port)
        .map_err(|e| net_err("serve bind", e))?;
    eprintln!("p2g-serve: listening on port {}", net.port());
    let runtime = SessionRuntime::new(cfg.workers);
    let mut tenants: HashMap<(NodeId, u64), Tenant> = HashMap::new();
    let mut outcome = ServeOutcome::default();
    let start = Instant::now();
    let mut finish_requested = false;

    let reject = |net: &Arc<TcpNet>, dst: NodeId, session: u64, reason: String| {
        let _ = net.send_with_retry(
            MASTER_NODE,
            dst,
            NetMsg::SessionRejected { session, reason },
            &cfg.retry,
        );
    };

    while !finish_requested && start.elapsed() < cfg.deadline {
        // --- inbox (bounded per iteration so output draining never starves)
        let mut budget = 256;
        while budget > 0 {
            budget -= 1;
            let Some((src, msg)) = net.recv_timeout(MASTER_NODE, Duration::from_millis(2)) else {
                break;
            };
            match msg {
                NetMsg::Hello { node, port, .. } => {
                    // Dial-back address for replies (loopback serving, as
                    // in the process-cluster protocol).
                    net.set_peer(node, SocketAddr::from(([127, 0, 0, 1], port)));
                }
                NetMsg::OpenSession {
                    session,
                    pipeline,
                    params,
                    priority,
                    weight,
                } => {
                    let key = (src, session);
                    if let Some(t) = tenants.get(&key) {
                        // Duplicate open (replayed frame): re-acknowledge.
                        let _ = net.send_with_retry(
                            MASTER_NODE,
                            src,
                            NetMsg::SessionOpened {
                                session,
                                credits: t.granted,
                            },
                            &cfg.retry,
                        );
                        continue;
                    }
                    if priority > MAX_QOS_CLASS {
                        outcome.sessions_rejected += 1;
                        reject(
                            &net,
                            src,
                            session,
                            format!("bad priority class {priority} (0..=2)"),
                        );
                        continue;
                    }
                    let Some(factory) = registry.get(&pipeline) else {
                        outcome.sessions_rejected += 1;
                        reject(&net, src, session, format!("unknown pipeline {pipeline:?}"));
                        continue;
                    };
                    let req = OpenRequest {
                        pipeline: pipeline.clone(),
                        params,
                        priority,
                        weight,
                    };
                    let built = match factory(&req) {
                        Ok(b) => b,
                        Err(reason) => {
                            outcome.sessions_rejected += 1;
                            reject(&net, src, session, reason);
                            continue;
                        }
                    };
                    let window = built.config.max_in_flight as u64;
                    let config = built.config.with_qos(Qos {
                        class: priority,
                        weight: weight.max(1),
                    });
                    match runtime.open(built.program, config) {
                        Ok(s) => {
                            outcome.sessions_opened += 1;
                            eprintln!(
                                "p2g-serve: session {}/{session} opened (pipeline={pipeline})",
                                src.0
                            );
                            let now = Instant::now();
                            tenants.insert(
                                key,
                                Tenant {
                                    session: s,
                                    decode: built.decode,
                                    client: src,
                                    id: session,
                                    window,
                                    expected_age: 0,
                                    granted: window,
                                    delivered: 0,
                                    dropped: 0,
                                    closed: false,
                                    last_activity: now,
                                    last_stats: now,
                                },
                            );
                            let _ = net.send_with_retry(
                                MASTER_NODE,
                                src,
                                NetMsg::SessionOpened {
                                    session,
                                    credits: window,
                                },
                                &cfg.retry,
                            );
                        }
                        Err(e) => {
                            outcome.sessions_rejected += 1;
                            reject(&net, src, session, format!("launch failed: {e}"));
                        }
                    }
                }
                NetMsg::SubmitFrame {
                    session,
                    age,
                    payload,
                } => {
                    let key = (src, session);
                    let Some(t) = tenants.get_mut(&key) else {
                        outcome.sessions_rejected += 1;
                        reject(&net, src, session, "unknown session".to_string());
                        continue;
                    };
                    t.last_activity = Instant::now();
                    if age < t.expected_age {
                        continue; // duplicate delivery — already admitted
                    }
                    let fail = if t.closed {
                        Some("session closed".to_string())
                    } else if age > t.expected_age {
                        Some(format!("age gap: expected {}, got {age}", t.expected_age))
                    } else if age >= t.granted {
                        Some(format!("credit overflow: age {age} >= grant {}", t.granted))
                    } else {
                        match (t.decode)(&t.session, &payload) {
                            Err(reason) => Some(format!("bad frame payload: {reason}")),
                            Ok(parts) => match t.session.try_submit(parts) {
                                Ok(_) => {
                                    t.expected_age += 1;
                                    None
                                }
                                // Unreachable for honest clients (the grant
                                // never exceeds the admission window), but a
                                // runtime-side failure surfaces here too.
                                Err(SubmitError::WouldBlock) => {
                                    Some("credit overflow: window full".to_string())
                                }
                                Err(SubmitError::Closed) => Some("session closed".to_string()),
                            },
                        }
                    };
                    if let Some(reason) = fail {
                        outcome.sessions_rejected += 1;
                        eprintln!(
                            "p2g-serve: rejecting session {}/{session}: {reason}",
                            src.0
                        );
                        reject(&net, src, session, reason);
                        t.closed = true;
                        t.session.close();
                    }
                }
                NetMsg::CloseSession { session } => {
                    if let Some(t) = tenants.get_mut(&(src, session)) {
                        t.last_activity = Instant::now();
                        t.closed = true;
                        t.session.close();
                    }
                }
                NetMsg::Finish => {
                    finish_requested = true;
                    break;
                }
                // Acks and any cluster-protocol traffic are not
                // part of the serving protocol; ignore rather than fail.
                _ => {}
            }
        }

        // --- per-tenant service: outputs, credits, stats, collection
        let mut done: Vec<(NodeId, u64)> = Vec::new();
        for (key, t) in tenants.iter_mut() {
            // Deliver completed frames and extend the cumulative grant.
            while let Some(out) = t.session.poll_output() {
                t.delivered += 1;
                if out.payload.is_none() {
                    t.dropped += 1;
                }
                let _ = net.send_with_retry(
                    MASTER_NODE,
                    t.client,
                    NetMsg::Output {
                        session: t.id,
                        age: out.age,
                        payload: out.payload,
                    },
                    &cfg.retry,
                );
            }
            let grant = t.delivered + t.window;
            if grant > t.granted && !t.closed {
                t.granted = grant;
                let _ = net.send_with_retry(
                    MASTER_NODE,
                    t.client,
                    NetMsg::Credit {
                        session: t.id,
                        granted: grant,
                    },
                    &cfg.retry,
                );
            }
            if t.last_stats.elapsed() >= cfg.stats_interval {
                t.last_stats = Instant::now();
                let m = t.session.metrics();
                let _ = net.send_with_retry(
                    MASTER_NODE,
                    t.client,
                    NetMsg::SessionStats {
                        session: t.id,
                        submitted: m.frames_submitted,
                        completed: m.frames_completed,
                        dropped: m.frames_dropped,
                        in_flight: m.in_flight,
                        fps_milli: m.fps_milli,
                        p50_latency_us: m.p50_latency_ns / 1_000,
                        p95_latency_us: m.p95_latency_ns / 1_000,
                        resident_ages: m.resident_ages,
                        resident_bytes: m.resident_bytes,
                    },
                    &cfg.retry,
                );
            }
            let orphaned = !net.node_alive(t.client)
                || (t.last_activity.elapsed() > cfg.orphan_timeout
                    && t.session.in_flight() == 0
                    && !t.closed);
            let drained = t.closed && t.session.in_flight() == 0;
            if orphaned || drained || t.session.has_failed() {
                if orphaned && !drained {
                    outcome.orphans_collected += 1;
                }
                done.push(*key);
            }
        }
        for key in done {
            let Some(t) = tenants.remove(&key) else { continue };
            collect_tenant(t, &net, &cfg.retry, &mut outcome);
        }
    }

    // Admin shutdown (or deadline): finish every remaining session.
    for (_, t) in tenants.drain() {
        collect_tenant(t, &net, &cfg.retry, &mut outcome);
    }
    runtime.shutdown();
    net.shutdown();
    eprintln!(
        "p2g-serve: done ({} opened, {} rejected, {} frames, {} orphans collected)",
        outcome.sessions_opened,
        outcome.sessions_rejected,
        outcome.frames_completed,
        outcome.orphans_collected
    );
    Ok(outcome)
}

/// Drain, finish and account one tenant (normal close, orphan or admin
/// shutdown). Failures to finish are logged, never escalated — one broken
/// session must not take the serve loop down.
fn collect_tenant(
    mut t: Tenant,
    net: &Arc<TcpNet>,
    retry: &RetryConfig,
    outcome: &mut ServeOutcome,
) {
    t.session.close();
    // Ship anything that completed between the last poll and now.
    while let Some(out) = t.session.poll_output() {
        t.delivered += 1;
        if out.payload.is_none() {
            t.dropped += 1;
        }
        if net.node_alive(t.client) {
            let _ = net.send_with_retry(
                MASTER_NODE,
                t.client,
                NetMsg::Output {
                    session: t.id,
                    age: out.age,
                    payload: out.payload,
                },
                retry,
            );
        }
    }
    let client = t.client.0;
    let id = t.id;
    match t.session.finish(Duration::from_millis(500)) {
        Ok(report) => {
            outcome.frames_completed += report.frames_completed;
            outcome.frames_dropped += report.frames_dropped;
            eprintln!(
                "p2g-serve: collected session {client}/{id} ({} frames, {} dropped)",
                report.frames_completed, report.frames_dropped
            );
        }
        Err(e) => {
            eprintln!("p2g-serve: collected session {client}/{id} (finish error: {e})");
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A completed remote frame, in age order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteOutput {
    /// The frame's client-assigned age.
    pub age: u64,
    /// Encoded output bytes; `None` when the server dropped the frame.
    pub payload: Option<Vec<u8>>,
}

/// The latest per-session gauge snapshot pushed by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RemoteStats {
    /// Frames the server has admitted.
    pub submitted: u64,
    /// Frames completed server-side (including dropped).
    pub completed: u64,
    /// Frames dropped server-side.
    pub dropped: u64,
    /// Frames in flight server-side.
    pub in_flight: u64,
    /// Server-measured completion rate, in frames per 1000 s.
    pub fps_milli: u64,
    /// Median submit→completion latency, microseconds.
    pub p50_latency_us: u64,
    /// 95th-percentile submit→completion latency, microseconds.
    pub p95_latency_us: u64,
    /// Live `(field, age)` slabs resident for this session.
    pub resident_ages: u64,
    /// Resident field bytes for this session.
    pub resident_bytes: u64,
}

#[derive(Default)]
struct SessionSlot {
    opened: bool,
    rejected: Option<String>,
    /// Cumulative admissible ages `0..granted` (max over received grants).
    granted: u64,
    /// Next age this client will submit.
    submitted: u64,
    /// Next output age expected (duplicate-delivery dedup line).
    next_output: u64,
    outputs: VecDeque<RemoteOutput>,
    stats: Option<RemoteStats>,
}

struct ClientState {
    sessions: HashMap<u64, SessionSlot>,
}

/// Client endpoint to one serve node: owns the TCP endpoint and demuxes
/// per-session traffic. One `ServeClient` serves any number of
/// [`RemoteSession`]s, from any number of threads.
pub struct ServeClient {
    net: Arc<TcpNet>,
    me: NodeId,
    retry: RetryConfig,
    next_session: AtomicU64,
    state: Mutex<ClientState>,
    wake: Condvar,
    /// Serializes the inbox drain so exactly one thread pumps at a time
    /// (others wait on `wake`).
    pump_lock: Mutex<()>,
}

impl ServeClient {
    /// Bind a client endpoint as `me` and introduce it to the serve node
    /// at `server` (loopback dial-back: the node learns our listen port
    /// from the Hello).
    pub fn connect(
        me: NodeId,
        server: SocketAddr,
        retry: RetryConfig,
    ) -> Result<Arc<ServeClient>, RuntimeError> {
        if me == MASTER_NODE {
            return Err(RuntimeError::Net(
                "client may not claim the serve node's id".into(),
            ));
        }
        let net = TcpNet::bind(me, retry, 0).map_err(|e| net_err("client bind", e))?;
        net.set_peer(MASTER_NODE, server);
        if !net.send_with_retry(
            me,
            MASTER_NODE,
            NetMsg::Hello {
                node: me,
                workers: 0,
                port: net.port(),
            },
            &retry,
        ) {
            return Err(RuntimeError::Net(format!("cannot reach serve node at {server}")));
        }
        Ok(Arc::new(ServeClient {
            net,
            me,
            retry,
            next_session: AtomicU64::new(1),
            state: Mutex::new(ClientState {
                sessions: HashMap::new(),
            }),
            wake: Condvar::new(),
            pump_lock: Mutex::new(()),
        }))
    }

    /// Open a remote session on a named server-side pipeline. Blocks (up
    /// to `timeout`) until the server acknowledges or rejects.
    pub fn open(
        self: &Arc<ServeClient>,
        pipeline: &str,
        params: &[(&str, i64)],
        qos: Qos,
        timeout: Duration,
    ) -> Result<RemoteSession, RuntimeError> {
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        self.state
            .lock()
            .sessions
            .insert(session, SessionSlot::default());
        if !self.net.send_with_retry(
            self.me,
            MASTER_NODE,
            NetMsg::OpenSession {
                session,
                pipeline: pipeline.to_string(),
                params: params.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
                priority: qos.class,
                weight: qos.weight,
            },
            &self.retry,
        ) {
            return Err(RuntimeError::Net("serve node unreachable".into()));
        }
        let deadline = Instant::now() + timeout;
        loop {
            {
                let g = self.state.lock();
                let Some(slot) = g.sessions.get(&session) else {
                    return Err(RuntimeError::Net("session slot vanished".into()));
                };
                if let Some(reason) = &slot.rejected {
                    return Err(RuntimeError::Net(format!("session rejected: {reason}")));
                }
                if slot.opened {
                    return Ok(RemoteSession {
                        client: self.clone(),
                        session,
                    });
                }
            }
            if Instant::now() >= deadline {
                return Err(RuntimeError::Net(format!(
                    "no open acknowledgement within {timeout:?}"
                )));
            }
            self.pump(Duration::from_millis(5));
        }
    }

    /// Ask the serve node to shut down (admin; the node finishes every
    /// session and exits its loop).
    pub fn shutdown_server(&self) {
        let _ = self
            .net
            .send_with_retry(self.me, MASTER_NODE, NetMsg::Finish, &self.retry);
        self.net.flush(MASTER_NODE, Duration::from_secs(5));
    }

    /// Tear down the client endpoint.
    pub fn close(&self) {
        self.net.shutdown();
    }

    /// Drain the inbox into per-session slots for up to `wait`. One
    /// thread pumps at a time; concurrent callers block briefly on the
    /// pump lock (state updates wake them via the condvar).
    fn pump(&self, wait: Duration) {
        let Some(_guard) = self.pump_lock.try_lock() else {
            // Someone else is pumping; wait for their updates instead.
            let mut g = self.state.lock();
            self.wake.wait_for(&mut g, wait);
            return;
        };
        let deadline = Instant::now() + wait;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let Some((_, msg)) = self
                .net
                .recv_timeout(self.me, left.min(Duration::from_millis(5)))
            else {
                if Instant::now() >= deadline {
                    return;
                }
                continue;
            };
            let mut g = self.state.lock();
            match msg {
                NetMsg::SessionOpened { session, credits } => {
                    if let Some(s) = g.sessions.get_mut(&session) {
                        s.opened = true;
                        s.granted = s.granted.max(credits);
                    }
                }
                NetMsg::SessionRejected { session, reason } => {
                    if let Some(s) = g.sessions.get_mut(&session) {
                        s.rejected = Some(reason);
                    }
                }
                NetMsg::Credit { session, granted } => {
                    if let Some(s) = g.sessions.get_mut(&session) {
                        s.granted = s.granted.max(granted);
                    }
                }
                NetMsg::Output {
                    session,
                    age,
                    payload,
                } => {
                    if let Some(s) = g.sessions.get_mut(&session) {
                        if age >= s.next_output {
                            s.next_output = age + 1;
                            s.outputs.push_back(RemoteOutput { age, payload });
                        }
                    }
                }
                NetMsg::SessionStats {
                    session,
                    submitted,
                    completed,
                    dropped,
                    in_flight,
                    fps_milli,
                    p50_latency_us,
                    p95_latency_us,
                    resident_ages,
                    resident_bytes,
                } => {
                    if let Some(s) = g.sessions.get_mut(&session) {
                        s.stats = Some(RemoteStats {
                            submitted,
                            completed,
                            dropped,
                            in_flight,
                            fps_milli,
                            p50_latency_us,
                            p95_latency_us,
                            resident_ages,
                            resident_bytes,
                        });
                    }
                }
                // Handshake Hellos from server reconnects, and anything
                // outside the serving protocol, are noise here.
                _ => {}
            }
            drop(g);
            self.wake.notify_all();
            if Instant::now() >= deadline {
                return;
            }
        }
    }
}

/// One remote streaming session: the network twin of the in-process
/// [`Session`]. Created by [`ServeClient::open`].
pub struct RemoteSession {
    client: Arc<ServeClient>,
    session: u64,
}

impl RemoteSession {
    /// The client-side session id (unique per [`ServeClient`]).
    pub fn id(&self) -> u64 {
        self.session
    }

    /// Submit one frame payload, blocking (up to `timeout`) while the
    /// server's cumulative grant is exhausted — the remote face of the
    /// in-process admission window. Returns the frame's age.
    pub fn submit(&self, payload: Vec<u8>, timeout: Duration) -> Result<u64, RuntimeError> {
        let deadline = Instant::now() + timeout;
        let age = loop {
            {
                let mut g = self.client.state.lock();
                let Some(slot) = g.sessions.get_mut(&self.session) else {
                    return Err(RuntimeError::Net("session slot vanished".into()));
                };
                if let Some(reason) = &slot.rejected {
                    return Err(RuntimeError::Net(format!("session rejected: {reason}")));
                }
                if slot.submitted < slot.granted {
                    let age = slot.submitted;
                    slot.submitted += 1;
                    break age;
                }
            }
            if Instant::now() >= deadline {
                return Err(RuntimeError::Net(format!("no credit within {timeout:?}")));
            }
            self.client.pump(Duration::from_millis(5));
        };
        if !self.client.net.send_with_retry(
            self.client.me,
            MASTER_NODE,
            NetMsg::SubmitFrame {
                session: self.session,
                age,
                payload,
            },
            &self.client.retry,
        ) {
            return Err(RuntimeError::Net("serve node unreachable".into()));
        }
        Ok(age)
    }

    /// Next completed frame, blocking up to `timeout`. `Ok(None)` on
    /// timeout; `Err` once the server rejected the session.
    pub fn recv(&self, timeout: Duration) -> Result<Option<RemoteOutput>, RuntimeError> {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let mut g = self.client.state.lock();
                let Some(slot) = g.sessions.get_mut(&self.session) else {
                    return Err(RuntimeError::Net("session slot vanished".into()));
                };
                if let Some(out) = slot.outputs.pop_front() {
                    return Ok(Some(out));
                }
                if let Some(reason) = &slot.rejected {
                    return Err(RuntimeError::Net(format!("session rejected: {reason}")));
                }
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            self.client.pump(Duration::from_millis(5));
        }
    }

    /// The most recent stats push from the server, if any (pumps the
    /// inbox briefly to pick up a pending one).
    pub fn stats(&self) -> Option<RemoteStats> {
        self.client.pump(Duration::from_millis(1));
        self.client
            .state
            .lock()
            .sessions
            .get(&self.session)
            .and_then(|s| s.stats)
    }

    /// True once the server rejected (and closed) this session.
    pub fn is_rejected(&self) -> bool {
        self.client
            .state
            .lock()
            .sessions
            .get(&self.session)
            .is_some_and(|s| s.rejected.is_some())
    }

    /// Stop submitting; the server finishes in-flight frames and their
    /// outputs remain receivable.
    pub fn close(&self) {
        let _ = self.client.net.send_with_retry(
            self.client.me,
            MASTER_NODE,
            NetMsg::CloseSession {
                session: self.session,
            },
            &self.client.retry,
        );
    }
}
