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
//! closed at once and finished when its in-flight frames have drained
//! (or [`DRAIN_TIMEOUT`] later) — slabs and ages are released, which the
//! process-level tests assert by watching the collection log line. The
//! serve loop never waits for a drain: the other tenants keep streaming.
//!
//! # Wake-ups
//!
//! Nothing on this path polls. The serve loop's one sleep is its inbox
//! wait, which ends on a message, on a [`crate::tcp::Waker`] kick from a session
//! that completed a frame (the kick names the session, so only that
//! tenant is looked at), or at the next all-tenants sweep
//! (`stats_interval`). The client files inbound messages into per-session
//! slots on one demultiplexer thread and callers wait on the slot's
//! condition under the slot's lock. DESIGN.md §14.3 has the argument.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
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

/// Inbox messages handled per serve-loop turn before completed outputs
/// are looked at again: a fairness bound, so a flooding client cannot
/// starve output delivery.
const INBOX_BUDGET: usize = 256;

/// How long a client waits for its last messages to be written and
/// acknowledged before it tears its endpoint down.
const FLUSH_TIMEOUT: Duration = Duration::from_secs(5);

/// How long an orphan's in-flight frames (and, at shutdown, any
/// session's) may take to drain before the node is stopped under them.
const DRAIN_TIMEOUT: Duration = Duration::from_millis(500);

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
    /// Serve-loop turns that began with a message or a session's kick.
    pub wakeups: u64,
    /// Serve-loop turns that began because a due-time (the sweep, the
    /// deadline) passed with neither.
    pub timer_wakeups: u64,
}

/// `(client, client-assigned session id)`: a tenant's key on the node.
type TenantKey = (NodeId, u64);

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
    /// Client asked to close (or was rejected, or orphaned); drain and
    /// finish.
    closed: bool,
    last_activity: Instant,
    /// Orphaned with frames in flight: collect at this time even if they
    /// have not drained.
    drain_due: Option<Instant>,
}

impl Tenant {
    /// Ship completed frames and extend the cumulative grant.
    fn deliver(&mut self, net: &TcpNet, retry: &RetryConfig) {
        while let Some(out) = self.session.poll_output() {
            self.delivered += 1;
            if out.payload.is_none() {
                self.dropped += 1;
            }
            // A dead client's outputs go nowhere: `send_with_retry`
            // returns at once for a dead destination.
            let _ = net.send_with_retry(
                MASTER_NODE,
                self.client,
                NetMsg::Output {
                    session: self.id,
                    age: out.age,
                    payload: out.payload,
                },
                retry,
            );
        }
        let grant = self.delivered + self.window;
        if grant > self.granted && !self.closed {
            self.granted = grant;
            let _ = net.send_with_retry(
                MASTER_NODE,
                self.client,
                NetMsg::Credit {
                    session: self.id,
                    granted: grant,
                },
                retry,
            );
        }
    }

    fn drained(&self) -> bool {
        self.closed && self.session.in_flight() == 0
    }

    /// Nothing more to wait for: collect now.
    fn finished(&self, now: Instant) -> bool {
        self.drained() || self.session.has_failed() || self.drain_due.is_some_and(|due| now >= due)
    }

    fn push_stats(&self, net: &TcpNet, retry: &RetryConfig) {
        let m = self.session.metrics();
        let _ = net.send_with_retry(
            MASTER_NODE,
            self.client,
            NetMsg::SessionStats {
                session: self.id,
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
            retry,
        );
    }
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
    let mut tenants: HashMap<TenantKey, Tenant> = HashMap::new();
    let mut outcome = ServeOutcome::default();
    let start = Instant::now();
    let mut finish_requested = false;
    // The loop's one wait is its inbox; a session that completes a frame
    // ends that wait through `waker` after naming itself in `rang`.
    let waker = net.waker();
    let rang: Arc<Mutex<Vec<TenantKey>>> = Arc::new(Mutex::new(Vec::new()));
    // Tenants this turn has a reason to look at: they rang, closed or
    // were rejected.
    let mut touched: Vec<TenantKey> = Vec::new();
    let mut last_sweep = start;

    let reject = |net: &Arc<TcpNet>, dst: NodeId, session: u64, reason: String| {
        let _ = net.send_with_retry(
            MASTER_NODE,
            dst,
            NetMsg::SessionRejected { session, reason },
            &cfg.retry,
        );
    };

    while !finish_requested && start.elapsed() < cfg.deadline {
        // --- sleep until the next message, kick or due-time (the sweep's
        // or the deadline's); then take what else the inbox holds without
        // sleeping, up to the fairness budget.
        let asleep_at = Instant::now();
        let until_due = cfg
            .stats_interval
            .saturating_sub(last_sweep.elapsed())
            .min(cfg.deadline.saturating_sub(start.elapsed()));
        let first = net.recv_timeout(MASTER_NODE, until_due);
        if first.is_some() || asleep_at.elapsed() < until_due {
            outcome.wakeups += 1;
        } else {
            outcome.timer_wakeups += 1;
        }
        let more = std::iter::from_fn(|| net.recv_timeout(MASTER_NODE, Duration::ZERO));
        for (src, msg) in first.into_iter().chain(more).take(INBOX_BUDGET) {
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
                    let ring = {
                        let (rang, waker) = (rang.clone(), waker.clone());
                        Arc::new(move || {
                            rang.lock().push(key);
                            waker.kick();
                        })
                    };
                    let config = built
                        .config
                        .with_qos(Qos {
                            class: priority,
                            weight: weight.max(1),
                        })
                        .on_output(ring);
                    match runtime.open(built.program, config) {
                        Ok(s) => {
                            outcome.sessions_opened += 1;
                            eprintln!(
                                "p2g-serve: session {}/{session} opened (pipeline={pipeline})",
                                src.0
                            );
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
                                    last_activity: Instant::now(),
                                    drain_due: None,
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
                        touched.push(key);
                    }
                }
                NetMsg::CloseSession { session } => {
                    let key = (src, session);
                    if let Some(t) = tenants.get_mut(&key) {
                        t.last_activity = Instant::now();
                        t.closed = true;
                        t.session.close();
                        touched.push(key);
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

        // --- the tenants with something to do: outputs, credit, collection
        touched.append(&mut rang.lock());
        touched.sort_unstable();
        touched.dedup();
        let now = Instant::now();
        let mut done: Vec<TenantKey> = Vec::new();
        for key in touched.drain(..) {
            let Some(t) = tenants.get_mut(&key) else { continue };
            t.deliver(&net, &cfg.retry);
            if t.finished(now) {
                done.push(key);
            }
        }

        // --- every tenant, on the sweep's own due-time: the stats push
        // (which is the liveness probe) and the checks no event announces.
        if now.duration_since(last_sweep) >= cfg.stats_interval {
            last_sweep = now;
            for (key, t) in tenants.iter_mut() {
                t.push_stats(&net, &cfg.retry);
                let orphaned = !net.node_alive(t.client)
                    || (t.last_activity.elapsed() > cfg.orphan_timeout
                        && t.session.in_flight() == 0
                        && !t.closed);
                if orphaned && !t.drained() && t.drain_due.is_none() {
                    // Close and count it now; its in-flight frames drain
                    // while the loop goes on serving everyone else.
                    outcome.orphans_collected += 1;
                    t.closed = true;
                    t.session.close();
                    t.drain_due = Some(now + DRAIN_TIMEOUT);
                }
                if t.finished(now) {
                    done.push(*key);
                }
            }
        }
        for key in done {
            if let Some(t) = tenants.remove(&key) {
                collect_tenant(t, &net, &cfg.retry, Duration::ZERO, &mut outcome);
            }
        }
    }

    // Admin shutdown (or deadline): finish every remaining session.
    for (_, t) in tenants.drain() {
        collect_tenant(t, &net, &cfg.retry, DRAIN_TIMEOUT, &mut outcome);
    }
    runtime.shutdown();
    net.shutdown();
    eprintln!(
        "p2g-serve: done ({} opened, {} rejected, {} frames, {} orphans collected; \
         woken {} times by events, {} by the clock)",
        outcome.sessions_opened,
        outcome.sessions_rejected,
        outcome.frames_completed,
        outcome.orphans_collected,
        outcome.wakeups,
        outcome.timer_wakeups
    );
    Ok(outcome)
}

/// Finish and account one tenant (normal close, orphan or admin
/// shutdown), giving frames still in flight `drain` to complete. Inside
/// the loop `drain` is zero — a tenant is collected there only once it
/// has drained or outlived its drain deadline. Failures to finish are
/// logged, never escalated — one broken session must not take the serve
/// loop down.
fn collect_tenant(
    mut t: Tenant,
    net: &TcpNet,
    retry: &RetryConfig,
    drain: Duration,
    outcome: &mut ServeOutcome,
) {
    t.closed = true;
    t.session.close();
    // Ship anything that completed between the last poll and now.
    t.deliver(net, retry);
    let client = t.client.0;
    let id = t.id;
    match t.session.finish(drain) {
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
    /// The endpoint has shut down: nothing more will be filed.
    down: bool,
}

/// What the demultiplexer thread and the callers share. The thread holds
/// this and the endpoint, never the [`ServeClient`], so dropping the last
/// client handle is what ends it.
struct ClientShared {
    state: Mutex<ClientState>,
    /// Signalled after every change to `state`; callers wait on it with
    /// the `state` lock held, so a change between their check and their
    /// wait cannot be missed.
    changed: Condvar,
}

/// Client endpoint to one serve node: owns the TCP endpoint and one
/// demultiplexer thread that files inbound traffic into per-session
/// slots. One `ServeClient` serves any number of [`RemoteSession`]s, from
/// any number of threads.
pub struct ServeClient {
    net: Arc<TcpNet>,
    me: NodeId,
    retry: RetryConfig,
    next_session: AtomicU64,
    shared: Arc<ClientShared>,
    demux: Mutex<Option<JoinHandle<()>>>,
}

/// The demultiplexer: block on the endpoint's inbox, file each message
/// into its session's slot, tell the waiters. Ends when the endpoint does.
fn demux(net: Arc<TcpNet>, me: NodeId, shared: Arc<ClientShared>) {
    while let Some((_, msg)) = net.recv_timeout(me, Duration::MAX) {
        let mut g = shared.state.lock();
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
            _ => continue,
        }
        drop(g);
        shared.changed.notify_all();
    }
    shared.state.lock().down = true;
    shared.changed.notify_all();
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
        let shared = Arc::new(ClientShared {
            state: Mutex::new(ClientState {
                sessions: HashMap::new(),
                down: false,
            }),
            changed: Condvar::new(),
        });
        let demux = {
            let (net, shared) = (net.clone(), shared.clone());
            std::thread::Builder::new()
                .name(format!("p2g-serve-demux-{}", me.0))
                .spawn(move || demux(net, me, shared))
                .map_err(|e| net_err("client demux thread", e))?
        };
        Ok(Arc::new(ServeClient {
            net,
            me,
            retry,
            next_session: AtomicU64::new(1),
            shared,
            demux: Mutex::new(Some(demux)),
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
        self.shared
            .state
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
        self.await_slot(session, timeout, |slot| slot.opened.then_some(()))?
            .ok_or_else(|| {
                RuntimeError::Net(format!("no open acknowledgement within {timeout:?}"))
            })?;
        Ok(RemoteSession {
            client: self.clone(),
            session,
        })
    }

    /// Ask the serve node to shut down (admin; the node finishes every
    /// session and exits its loop).
    pub fn shutdown_server(&self) {
        let _ = self
            .net
            .send_with_retry(self.me, MASTER_NODE, NetMsg::Finish, &self.retry);
        self.net.flush(MASTER_NODE, FLUSH_TIMEOUT);
    }

    /// Tear down the client endpoint (and with it the demultiplexer;
    /// blocked callers return an error). What was sent leaves first — a
    /// `CloseSession` still queued when the endpoint went down would turn
    /// a finished session into an orphan. Idempotent; also runs on drop.
    pub fn close(&self) {
        self.net.flush(MASTER_NODE, FLUSH_TIMEOUT);
        self.net.shutdown();
        if let Some(demux) = self.demux.lock().take() {
            // It only files messages; a panic there has nothing to add
            // to the errors the callers already get from `down`.
            let _ = demux.join();
        }
    }

    /// Wait, for up to `timeout`, until `take` finds what the caller
    /// wants in `session`'s slot. `take` runs under the lock the
    /// demultiplexer files under, and the wait releases that same lock,
    /// so no change slips between the check and the sleep. `Ok(None)` is
    /// the timeout; a zero timeout is one look at the slot.
    fn await_slot<T>(
        &self,
        session: u64,
        timeout: Duration,
        mut take: impl FnMut(&mut SessionSlot) -> Option<T>,
    ) -> Result<Option<T>, RuntimeError> {
        // `Duration::MAX` waits with no deadline.
        let deadline = Instant::now().checked_add(timeout);
        let mut g = self.shared.state.lock();
        loop {
            let down = g.down;
            let Some(slot) = g.sessions.get_mut(&session) else {
                return Err(RuntimeError::Net("session slot vanished".into()));
            };
            if let Some(found) = take(slot) {
                return Ok(Some(found));
            }
            if let Some(reason) = &slot.rejected {
                return Err(RuntimeError::Net(format!("session rejected: {reason}")));
            }
            if down {
                return Err(RuntimeError::Net("client endpoint closed".into()));
            }
            match deadline {
                Some(deadline) if Instant::now() >= deadline => return Ok(None),
                Some(deadline) => {
                    self.shared.changed.wait_until(&mut g, deadline);
                }
                None => self.shared.changed.wait(&mut g),
            }
        }
    }
}

impl Drop for ServeClient {
    fn drop(&mut self) {
        self.close();
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
        let age = self
            .client
            .await_slot(self.session, timeout, |slot| {
                // A rejected session takes no more frames, credit or not.
                (slot.rejected.is_none() && slot.submitted < slot.granted).then(|| {
                    slot.submitted += 1;
                    slot.submitted - 1
                })
            })?
            .ok_or_else(|| RuntimeError::Net(format!("no credit within {timeout:?}")))?;
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
    /// timeout; `Err` once the server rejected the session (after the
    /// outputs that preceded the rejection have been handed over).
    pub fn recv(&self, timeout: Duration) -> Result<Option<RemoteOutput>, RuntimeError> {
        self.client
            .await_slot(self.session, timeout, |slot| slot.outputs.pop_front())
    }

    /// The most recent stats push from the server, if any.
    pub fn stats(&self) -> Option<RemoteStats> {
        self.client
            .shared
            .state
            .lock()
            .sessions
            .get(&self.session)
            .and_then(|s| s.stats)
    }

    /// True once the server rejected (and closed) this session.
    pub fn is_rejected(&self) -> bool {
        self.client
            .shared
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
