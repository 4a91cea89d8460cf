//! The cluster network layer: a [`Transport`] trait the cluster is generic
//! over, the in-process [`SimNet`] implementation, and the [`FaultyNet`]
//! decorator that injects message drops, duplication and whole-node kills
//! for fault-tolerance testing.
//!
//! [`crate::TcpNet`] serializes messages onto sockets; the simulation
//! moves owned buffers between threads, which exercises the same
//! architectural paths (subscription routing, in-flight tracking for
//! distributed termination, per-link statistics for the HLS, retry and
//! failure handling) deterministically on one machine.
//!
//! Two message planes share the transport:
//! - **data** (`StoreForward`): counted in link statistics and the global
//!   in-flight counter that feeds quiescence detection.
//! - **control** (everything else — `Status`, `Assign`, ...): excluded
//!   from both, so liveness and coordination traffic neither blocks
//!   termination nor skews the byte accounting the HLS weighs edges with.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::net::SocketAddr;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use p2g_field::{Age, Buffer, FieldId, Region};
use p2g_graph::{KernelId, NodeId};
use p2g_runtime::jittered_backoff;

/// Pseudo-node id addressing the master's inbox.
pub const MASTER_NODE: NodeId = NodeId(u32::MAX);

/// A message on the cluster network.
///
/// [`NetMsg::StoreForward`] is the data plane. `Hello` through `Results`
/// are the coordinator protocol ([`crate::coordinator`]) spoken between
/// the master and the execution nodes — threads of one process or
/// `p2gc cluster` OS processes alike; `Ack` belongs to the TCP transport
/// and the rest to remote session serving. Everything but the data plane
/// is control (excluded from link statistics and in-flight tracking).
#[derive(Debug, Clone, PartialEq)]
pub enum NetMsg {
    /// A store forwarded from a producer node to a subscriber node.
    StoreForward {
        field: FieldId,
        age: Age,
        region: Region,
        buffer: Buffer,
    },
    /// Connection handshake and cluster join: the first frame on every
    /// TCP connection identifies the sender; sent to the master it also
    /// reports the node's worker count and data-plane listen port.
    Hello {
        node: NodeId,
        workers: u32,
        port: u16,
    },
    /// Master → node: the kernel assignment for `epoch`, how often to
    /// report [`NetMsg::Status`], the field-subscription map for store
    /// forwarding, and the peer address book (`host:port` per node) so
    /// nodes can dial each other.
    Assign {
        epoch: u64,
        status_every_us: u64,
        kernels: Vec<KernelId>,
        subscribers: Vec<(FieldId, Vec<NodeId>)>,
        peers: Vec<(NodeId, String)>,
    },
    /// Node → master: liveness plus the counters the master needs for
    /// distributed quiescence detection and failure escalation.
    /// `outstanding` is the node's runtime work counter, `unacked` the
    /// transport's in-flight count as this node sees it (data frames sent
    /// but not yet applied — or, over TCP, not yet acknowledged into the
    /// receiver's inbox), `applied` the store forwards this node
    /// has applied so far: a node whose `applied` moved since its previous
    /// status was not idle in between, whatever its counters read now.
    Status {
        epoch: u64,
        seq: u64,
        outstanding: i64,
        unacked: u64,
        applied: u64,
        failed: bool,
    },
    /// Master → node: re-send every locally written field region to the
    /// current subscribers (recovery replay after a replan).
    Replay { epoch: u64 },
    /// Master → node: the run is complete; report results and exit.
    Finish,
    /// Node → master: the node's written field regions, in response to
    /// [`NetMsg::Finish`].
    Results {
        entries: Vec<(FieldId, Age, Region, Buffer)>,
    },
    /// Receiver → sender on one TCP connection: the first `count` data
    /// frames on this connection have been received; the sender may trim
    /// its resend window. Never routed — consumed inside the transport.
    Ack { count: u64 },
    /// Client → serve-node: open a remote streaming session on a named
    /// server-side pipeline. `params` are pipeline-specific integer
    /// settings (e.g. `width`/`height`/`quality` for MJPEG); `priority`
    /// and `weight` select the session's QoS class and fair share.
    OpenSession {
        session: u64,
        pipeline: String,
        params: Vec<(String, i64)>,
        priority: u8,
        weight: u32,
    },
    /// Serve-node → client: the session is live. `credits` is the initial
    /// cumulative submit grant (the client may submit frames with ages
    /// `0..credits` before the first [`NetMsg::Credit`]).
    SessionOpened { session: u64, credits: u64 },
    /// Serve-node → client: an open or submit was refused. After a
    /// mid-stream reject the session is closed server-side.
    SessionRejected { session: u64, reason: String },
    /// Client → serve-node: one frame for `session` at `age`. Ages are
    /// client-assigned, dense from 0, and double as the exactly-once dedup
    /// key under the transport's at-least-once delivery.
    SubmitFrame {
        session: u64,
        age: u64,
        payload: Vec<u8>,
    },
    /// Serve-node → client: frame `age` completed. `None` payload means
    /// the frame was dropped (poisoned / deadline-missed), mirroring the
    /// in-process `SessionOutput`.
    Output {
        session: u64,
        age: u64,
        payload: Option<Vec<u8>>,
    },
    /// Serve-node → client: flow control. `granted` is the *cumulative*
    /// number of frames the server will admit (ages `0..granted`), so
    /// duplicated grants are harmless — the client takes the max.
    Credit { session: u64, granted: u64 },
    /// Client → serve-node: no more frames; in-flight frames still
    /// complete and their outputs are still delivered.
    CloseSession { session: u64 },
    /// Serve-node → client: per-session gauges exported from the session
    /// runtime's instruments (pushed periodically and on close).
    SessionStats {
        session: u64,
        submitted: u64,
        completed: u64,
        dropped: u64,
        in_flight: u64,
        fps_milli: u64,
        p50_latency_us: u64,
        p95_latency_us: u64,
        resident_ages: u64,
        resident_bytes: u64,
    },
}

impl NetMsg {
    /// The bytes a data message adds to its link's statistics (payload +
    /// fixed header), the edge volume the HLS weighs edges with; `None`
    /// for control messages, which are never counted.
    pub fn data_bytes(&self) -> Option<u64> {
        match self {
            NetMsg::StoreForward { buffer, .. } => {
                Some(32 + (buffer.len() * buffer.scalar_type().size_bytes()) as u64)
            }
            _ => None,
        }
    }

    /// Control messages bypass in-flight accounting and link statistics.
    /// Everything except the data plane ([`NetMsg::StoreForward`]) is
    /// control: liveness, cluster membership, recovery orchestration and
    /// end-of-run result collection.
    pub fn is_control(&self) -> bool {
        !matches!(self, NetMsg::StoreForward { .. })
    }
}

/// Statistics for one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkStats {
    /// Data messages accepted onto the link.
    pub messages: u64,
    /// Payload bytes accepted onto the link.
    pub bytes: u64,
    /// Data messages dropped (fault injection or dead destination).
    pub drops: u64,
    /// Send retries after a drop.
    pub retries: u64,
    /// Duplicate deliveries injected by fault testing.
    pub duplicates: u64,
    /// Sends abandoned after exhausting their retry budget. Nonzero means
    /// data was lost for good — results can no longer be trusted complete.
    pub lost: u64,
}

impl AddAssign for LinkStats {
    fn add_assign(&mut self, o: LinkStats) {
        self.messages += o.messages;
        self.bytes += o.bytes;
        self.drops += o.drops;
        self.retries += o.retries;
        self.duplicates += o.duplicates;
        self.lost += o.lost;
    }
}

/// Fraction of extra deterministic delay, in `[0, NET_RETRY_JITTER]`, that
/// each network backoff adds to decorrelate retry storms.
const NET_RETRY_JITTER: f64 = 0.1;

/// Backoff-and-budget discipline for [`Transport::send_with_retry`] and
/// the TCP connection supervisor — the kernel retry path's
/// [`jittered_backoff`], applied to the network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Maximum send attempts before the message is abandoned
    /// ([`Transport::note_lost`]).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff: Duration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: Duration,
}

impl Default for RetryConfig {
    /// 64 attempts, 50µs doubling to a 2ms cap: with drop probability
    /// `p < 0.3` the failure odds after 64 attempts are below `0.3^64`,
    /// which is what makes lossy links invisible to results.
    fn default() -> RetryConfig {
        RetryConfig {
            attempts: 64,
            backoff: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(2),
        }
    }
}

impl RetryConfig {
    /// A budget of `attempts` sends with the default backoff shape.
    pub fn attempts(attempts: u32) -> RetryConfig {
        RetryConfig {
            attempts: attempts.max(1),
            ..RetryConfig::default()
        }
    }

    /// Set the backoff range (initial, doubling up to `cap`).
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> RetryConfig {
        self.backoff = base;
        self.backoff_cap = cap.max(base);
        self
    }

    /// The backoff before attempt `attempt + 1`, with deterministic
    /// jitter derived from `salt`.
    pub fn backoff_for(&self, attempt: u32, salt: u64) -> Duration {
        jittered_backoff(
            self.backoff,
            self.backoff_cap,
            NET_RETRY_JITTER,
            attempt,
            salt,
        )
    }
}

/// Abstraction over the cluster interconnect. [`SimNet`] is the in-process
/// implementation, [`crate::TcpNet`] the real-socket one; [`FaultyNet`]
/// decorates any transport with fault injection.
///
/// Delivery contract: a data message accepted by [`Transport::try_send`] is
/// counted in flight until the receiver calls [`Transport::delivered`]
/// *after* applying it, so global quiescence detection never races
/// delivery. Messages to dead nodes are dropped (`try_send` returns
/// `false`), never queued forever.
pub trait Transport: Send + Sync {
    /// Attempt to send `msg` from `src` to `dst`. Returns `false` when the
    /// message was dropped (dead/unknown destination, or injected fault).
    fn try_send(&self, src: NodeId, dst: NodeId, msg: NetMsg) -> bool;

    /// Receive the next message for `dst`, waiting up to `timeout`.
    /// Returns `None` on timeout or when `dst` is disconnected and its
    /// inbox is empty.
    fn recv_timeout(&self, dst: NodeId, timeout: Duration) -> Option<(NodeId, NetMsg)>;

    /// Mark one received *data* message as fully applied at `dst`. Must be
    /// called after the message's effects are visible in the destination
    /// node's outstanding-work counter.
    fn delivered(&self, dst: NodeId);

    /// Data messages sent but not yet applied (monotonic-safe).
    fn in_flight(&self) -> u64;

    /// True while `node` is connected (known and not killed).
    fn node_alive(&self, node: NodeId) -> bool;

    /// Sever `node`: purge its inbox (balancing the in-flight counter),
    /// fail all future sends to it, and wake any blocked receiver.
    fn disconnect(&self, node: NodeId);

    /// Tell the transport where `node` listens. Only a transport that
    /// dials its peers ([`crate::TcpNet`]) has an address book; the others
    /// already reach every node, so the default does nothing.
    fn set_peer(&self, _node: NodeId, _addr: SocketAddr) {}

    /// Record a retry on the `src -> dst` link statistics.
    fn note_retry(&self, src: NodeId, dst: NodeId);

    /// Record a send abandoned after exhausting its retry budget.
    fn note_lost(&self, _src: NodeId, _dst: NodeId) {}

    /// Record a dropped data message on the `src -> dst` link.
    fn note_drop(&self, _src: NodeId, _dst: NodeId) {}

    /// Record an injected duplicate delivery on the `src -> dst` link.
    fn note_duplicate(&self, _src: NodeId, _dst: NodeId) {}

    /// Per-directed-link statistics snapshot. The accounting is
    /// transport-agnostic: [`FaultyNet`] injects faults into any inner
    /// transport and the drops/duplicates land here either way.
    fn link_stats(&self) -> BTreeMap<(NodeId, NodeId), LinkStats> {
        BTreeMap::new()
    }

    /// Send with bounded exponential backoff + jitter while the
    /// destination is alive. Returns `false` once `dst` is dead or the
    /// attempt budget was exhausted on drops.
    fn send_with_retry(&self, src: NodeId, dst: NodeId, msg: NetMsg, retry: &RetryConfig) -> bool {
        let attempts = retry.attempts.max(1);
        for attempt in 1..=attempts {
            if !self.node_alive(dst) {
                return false;
            }
            if self.try_send(src, dst, msg.clone()) {
                return true;
            }
            if attempt == attempts {
                break;
            }
            self.note_retry(src, dst);
            let salt = ((src.0 as u64) << 40) ^ ((dst.0 as u64) << 16) ^ attempt as u64;
            std::thread::sleep(retry.backoff_for(attempt - 1, salt));
        }
        // The destination is still alive but every attempt was dropped:
        // genuine data loss, worth surfacing (unlike the dead-node return
        // above, which recovery makes whole again).
        self.note_lost(src, dst);
        false
    }
}

/// A queued message, ordered by readiness time then send sequence (FIFO
/// among same-instant messages).
#[derive(Debug)]
struct Pending {
    ready_at: Instant,
    seq: u64,
    src: NodeId,
    msg: NetMsg,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.ready_at == other.ready_at && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ready_at, self.seq).cmp(&(other.ready_at, other.seq))
    }
}

struct InboxState {
    queue: BinaryHeap<Reverse<Pending>>,
    alive: bool,
}

struct Inbox {
    state: Mutex<InboxState>,
    ready: Condvar,
}

/// The simulated network connecting the cluster's nodes.
///
/// `recv_timeout` blocks on a condition variable until a message's
/// simulated arrival time (send latency is modeled as delayed readiness,
/// not a receiver-side sleep), and the in-flight count is derived from two
/// monotonically increasing counters so duplicate `delivered` calls can
/// never drive it negative.
pub struct SimNet {
    inboxes: BTreeMap<NodeId, Inbox>,
    /// Data messages accepted for delivery (monotonic).
    sent: AtomicU64,
    /// Data messages fully applied or purged (monotonic).
    applied: AtomicU64,
    /// Message sequence for FIFO tie-breaks.
    seq: AtomicU64,
    /// Added to every delivery, modeling interconnect latency.
    latency: Duration,
    stats: Mutex<BTreeMap<(NodeId, NodeId), LinkStats>>,
}

impl SimNet {
    /// A network connecting `nodes` (plus the master's control inbox),
    /// with uniform per-message latency.
    pub fn new(nodes: &[NodeId], latency: Duration) -> Arc<SimNet> {
        let inboxes = nodes
            .iter()
            .copied()
            .chain(std::iter::once(MASTER_NODE))
            .map(|n| {
                (
                    n,
                    Inbox {
                        state: Mutex::new(InboxState {
                            queue: BinaryHeap::new(),
                            alive: true,
                        }),
                        ready: Condvar::new(),
                    },
                )
            })
            .collect();
        Arc::new(SimNet {
            inboxes,
            sent: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            latency,
            stats: Mutex::new(BTreeMap::new()),
        })
    }

    /// Update the `src -> dst` link statistics.
    fn link(&self, src: NodeId, dst: NodeId, f: impl FnOnce(&mut LinkStats)) {
        f(self.stats.lock().entry((src, dst)).or_default());
    }
}

impl Transport for SimNet {
    /// Queue `msg` for delivery after the modeled latency. Returns `false`
    /// (a drop) for unknown or disconnected destinations.
    fn try_send(&self, src: NodeId, dst: NodeId, msg: NetMsg) -> bool {
        let Some(inbox) = self.inboxes.get(&dst) else {
            self.note_drop(src, dst);
            return false;
        };
        let data_bytes = msg.data_bytes();
        {
            let mut state = inbox.state.lock();
            if !state.alive {
                drop(state);
                if data_bytes.is_some() {
                    self.note_drop(src, dst);
                }
                return false;
            }
            if let Some(bytes) = data_bytes {
                self.link(src, dst, |s| {
                    s.messages += 1;
                    s.bytes += bytes;
                });
                self.sent.fetch_add(1, Ordering::SeqCst);
            }
            state.queue.push(Reverse(Pending {
                ready_at: Instant::now() + self.latency,
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
                src,
                msg,
            }));
        }
        inbox.ready.notify_one();
        true
    }

    fn recv_timeout(&self, dst: NodeId, timeout: Duration) -> Option<(NodeId, NetMsg)> {
        let inbox = self.inboxes.get(&dst)?;
        let deadline = Instant::now() + timeout;
        let mut state = inbox.state.lock();
        loop {
            let now = Instant::now();
            // Earliest-ready message first; the heap orders by ready_at.
            match state.queue.peek().map(|Reverse(head)| head.ready_at) {
                Some(ready_at) if ready_at <= now => {
                    if let Some(Reverse(p)) = state.queue.pop() {
                        return Some((p.src, p.msg));
                    }
                }
                Some(ready_at) => {
                    // Wait until the head matures or the caller's deadline.
                    if now >= deadline {
                        return None;
                    }
                    inbox.ready.wait_until(&mut state, ready_at.min(deadline));
                }
                None => {
                    if !state.alive || now >= deadline {
                        return None;
                    }
                    inbox.ready.wait_until(&mut state, deadline);
                }
            }
        }
    }

    fn delivered(&self, _dst: NodeId) {
        self.applied.fetch_add(1, Ordering::SeqCst);
    }

    fn in_flight(&self) -> u64 {
        // `sent` is incremented before a message becomes receivable and
        // `applied` only after it is consumed, so sent >= applied at every
        // quiescence check; saturating keeps transient interleavings (and
        // erroneous double-`delivered` calls) from wrapping.
        self.sent
            .load(Ordering::SeqCst)
            .saturating_sub(self.applied.load(Ordering::SeqCst))
    }

    fn node_alive(&self, node: NodeId) -> bool {
        self.inboxes
            .get(&node)
            .is_some_and(|i| i.state.lock().alive)
    }

    fn disconnect(&self, node: NodeId) {
        let Some(inbox) = self.inboxes.get(&node) else {
            return;
        };
        let purged_data = {
            let mut state = inbox.state.lock();
            state.alive = false;
            let purged = state
                .queue
                .drain()
                .filter(|Reverse(p)| !p.msg.is_control())
                .count();
            purged
        };
        // Purged messages will never be applied; balance the in-flight
        // counter so quiescence detection is not wedged by a dead node.
        self.applied.fetch_add(purged_data as u64, Ordering::SeqCst);
        inbox.ready.notify_all();
    }

    fn note_retry(&self, src: NodeId, dst: NodeId) {
        self.link(src, dst, |s| s.retries += 1);
    }

    fn note_lost(&self, src: NodeId, dst: NodeId) {
        self.link(src, dst, |s| s.lost += 1);
    }

    fn note_drop(&self, src: NodeId, dst: NodeId) {
        self.link(src, dst, |s| s.drops += 1);
    }

    fn note_duplicate(&self, src: NodeId, dst: NodeId) {
        self.link(src, dst, |s| s.duplicates += 1);
    }

    fn link_stats(&self) -> BTreeMap<(NodeId, NodeId), LinkStats> {
        self.stats.lock().clone()
    }
}

/// One scheduled whole-node failure: kill `node` once `after_messages`
/// data messages have been sent cluster-wide — deterministic mid-run kills
/// for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    pub node: NodeId,
    pub after_messages: u64,
}

/// Fault-injection schedule for [`FaultyNet`]: probabilistic message
/// drop/duplication on the data plane, plus scheduled whole-node kills.
/// Control messages (statuses, assignments) are never dropped — fault
/// testing targets the data plane; node death is modeled by kills, which
/// silence a node's statuses wholesale.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Probability in `[0, 1)` that a data send is dropped.
    pub drop_rate: f64,
    /// Probability in `[0, 1)` that a data send is delivered twice.
    pub duplicate_rate: f64,
    /// Scheduled whole-node failures.
    pub kills: Vec<KillSpec>,
    /// Seed for the deterministic fault RNG.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            kills: Vec::new(),
            seed: 0x5EED,
        }
    }
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Drop each data message with probability `rate`.
    pub fn drop_rate(mut self, rate: f64) -> FaultPlan {
        assert!((0.0..1.0).contains(&rate), "drop rate must be in [0, 1)");
        self.drop_rate = rate;
        self
    }

    /// Deliver each data message twice with probability `rate`.
    pub fn duplicate_rate(mut self, rate: f64) -> FaultPlan {
        assert!(
            (0.0..1.0).contains(&rate),
            "duplicate rate must be in [0, 1)"
        );
        self.duplicate_rate = rate;
        self
    }

    /// Kill `node` once `n` data messages have crossed the network.
    pub fn kill_after_messages(mut self, node: NodeId, n: u64) -> FaultPlan {
        self.kills.push(KillSpec {
            node,
            after_messages: n,
        });
        self
    }

    /// Seed the deterministic fault RNG.
    pub fn seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }
}

/// Deterministic xorshift64* generator — the fault plan must not pull in an
/// RNG dependency, and reproducibility matters more than quality here.
struct FaultRng(u64);

impl FaultRng {
    fn next_unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        let x = self.0.wrapping_mul(0x2545F4914F6CDD1D);
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The fault state of one run, shared by every participant's [`FaultyNet`]:
/// the plan, its RNG and the cluster-wide data-message count. A kill has
/// fired once the count reached its threshold, so the count alone says
/// which nodes are dead.
struct Schedule {
    plan: FaultPlan,
    rng: Mutex<FaultRng>,
    data_msgs: AtomicU64,
}

/// Decorator injecting faults per a [`FaultPlan`] into any inner
/// [`Transport`] — [`SimNet`] or [`crate::TcpNet`] alike, so the same
/// drop/duplicate schedules exercise real sockets. Statistics (drops,
/// duplicates, retries) land in the inner transport's [`LinkStats`], so
/// outcome reporting is transport-agnostic.
///
/// Each participant of a cluster wraps its own transport; [`FaultyNet::new`]
/// starts a schedule and [`FaultyNet::share`] puts another participant on
/// it. A kill is cluster-wide: from the send that fires it, every sharer
/// reports the node dead, and each severs it on its own inner transport
/// (once, at its next call), as if the node's links had all gone down.
pub struct FaultyNet {
    inner: Arc<dyn Transport>,
    schedule: Arc<Schedule>,
    /// Kills (a prefix of the plan's, sorted by threshold) already applied
    /// to `inner`.
    severed: Mutex<usize>,
}

impl FaultyNet {
    /// Decorate `inner` with a new fault schedule.
    pub fn new(inner: Arc<dyn Transport>, mut plan: FaultPlan) -> Arc<FaultyNet> {
        plan.kills.sort_by_key(|k| k.after_messages);
        let schedule = Schedule {
            rng: Mutex::new(FaultRng(plan.seed | 1)),
            plan,
            data_msgs: AtomicU64::new(0),
        };
        Arc::new(FaultyNet {
            inner,
            schedule: Arc::new(schedule),
            severed: Mutex::new(0),
        })
    }

    /// Decorate another participant's `inner` with this one's schedule.
    pub fn share(&self, inner: Arc<dyn Transport>) -> Arc<FaultyNet> {
        Arc::new(FaultyNet {
            inner,
            schedule: self.schedule.clone(),
            severed: Mutex::new(0),
        })
    }

    /// Sever on `inner` every node whose kill has fired and is not yet
    /// severed here.
    fn sync_kills(&self) {
        let kills = &self.schedule.plan.kills;
        let msgs = self.schedule.data_msgs.load(Ordering::SeqCst);
        let fired = kills.partition_point(|k| k.after_messages <= msgs);
        let mut severed = self.severed.lock();
        while *severed < fired {
            self.inner.disconnect(kills[*severed].node);
            *severed += 1;
        }
    }
}

impl Transport for FaultyNet {
    fn try_send(&self, src: NodeId, dst: NodeId, msg: NetMsg) -> bool {
        if msg.is_control() {
            self.sync_kills();
            return self.inner.try_send(src, dst, msg);
        }
        self.schedule.data_msgs.fetch_add(1, Ordering::SeqCst);
        if !self.node_alive(dst) {
            self.inner.note_drop(src, dst);
            return false;
        }
        let (drop_roll, dup_roll) = {
            let mut rng = self.schedule.rng.lock();
            (rng.next_unit(), rng.next_unit())
        };
        if drop_roll < self.schedule.plan.drop_rate {
            self.inner.note_drop(src, dst);
            return false;
        }
        if dup_roll < self.schedule.plan.duplicate_rate {
            // Deliver twice; write-once dedup at the receiver absorbs it.
            if self.inner.try_send(src, dst, msg.clone()) {
                self.inner.note_duplicate(src, dst);
                self.inner.try_send(src, dst, msg);
            }
            return true;
        }
        self.inner.try_send(src, dst, msg)
    }

    fn recv_timeout(&self, dst: NodeId, timeout: Duration) -> Option<(NodeId, NetMsg)> {
        self.sync_kills();
        self.inner.recv_timeout(dst, timeout)
    }

    fn delivered(&self, dst: NodeId) {
        self.inner.delivered(dst);
    }

    fn in_flight(&self) -> u64 {
        self.sync_kills();
        self.inner.in_flight()
    }

    fn node_alive(&self, node: NodeId) -> bool {
        self.sync_kills();
        self.inner.node_alive(node)
    }

    fn disconnect(&self, node: NodeId) {
        self.inner.disconnect(node);
    }

    fn set_peer(&self, node: NodeId, addr: SocketAddr) {
        self.inner.set_peer(node, addr);
    }

    fn note_retry(&self, src: NodeId, dst: NodeId) {
        self.inner.note_retry(src, dst);
    }

    fn note_lost(&self, src: NodeId, dst: NodeId) {
        self.inner.note_lost(src, dst);
    }

    fn note_drop(&self, src: NodeId, dst: NodeId) {
        self.inner.note_drop(src, dst);
    }

    fn note_duplicate(&self, src: NodeId, dst: NodeId) {
        self.inner.note_duplicate(src, dst);
    }

    fn link_stats(&self) -> BTreeMap<(NodeId, NodeId), LinkStats> {
        self.inner.link_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2g_field::DimSel;

    /// The jittered doubling is pinned to the nanosecond for a fixed
    /// salt, so a refactor of the backoff cannot move a delay.
    #[test]
    fn backoff_is_pinned() {
        let r = RetryConfig::default();
        let got: Vec<u128> = (0..4)
            .map(|a| r.backoff_for(a, 0x5EED).as_nanos())
            .collect();
        assert_eq!(got, [50_194, 100_388, 200_777, 401_554]);
    }

    fn msg(n: usize) -> NetMsg {
        NetMsg::StoreForward {
            field: FieldId(0),
            age: Age(0),
            region: Region(vec![DimSel::All]),
            buffer: Buffer::from_vec(vec![0i32; n]),
        }
    }

    #[test]
    fn send_recv_round_trip() {
        let net = SimNet::new(&[NodeId(0), NodeId(1)], Duration::ZERO);
        net.try_send(NodeId(0), NodeId(1), msg(4));
        assert_eq!(net.in_flight(), 1);
        let (src, m) = net.recv_timeout(NodeId(1), Duration::from_secs(1)).unwrap();
        assert_eq!(src, NodeId(0));
        assert_eq!(m.data_bytes(), Some(32 + 16));
        net.delivered(NodeId(1));
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn recv_timeout_expires() {
        let net = SimNet::new(&[NodeId(0)], Duration::ZERO);
        assert!(net
            .recv_timeout(NodeId(0), Duration::from_millis(5))
            .is_none());
    }

    #[test]
    fn stats_accumulate_per_link() {
        let net = SimNet::new(&[NodeId(0), NodeId(1), NodeId(2)], Duration::ZERO);
        net.try_send(NodeId(0), NodeId(1), msg(1));
        net.try_send(NodeId(0), NodeId(1), msg(1));
        net.try_send(NodeId(0), NodeId(2), msg(2));
        let stats = net.link_stats();
        assert_eq!(stats[&(NodeId(0), NodeId(1))].messages, 2);
        assert_eq!(stats[&(NodeId(0), NodeId(1))].bytes, 2 * (32 + 4));
        assert_eq!(stats[&(NodeId(0), NodeId(2))].bytes, 32 + 8);
    }

    #[test]
    fn latency_delays_delivery() {
        let net = SimNet::new(&[NodeId(0), NodeId(1)], Duration::from_millis(20));
        net.try_send(NodeId(0), NodeId(1), msg(1));
        let t0 = std::time::Instant::now();
        net.recv_timeout(NodeId(1), Duration::from_secs(1)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20));
        net.delivered(NodeId(1));
    }

    #[test]
    fn in_flight_is_monotonic_safe() {
        let net = SimNet::new(&[NodeId(0)], Duration::ZERO);
        // Erroneous double-delivered must not wrap the counter negative.
        net.delivered(NodeId(0));
        net.delivered(NodeId(0));
        assert_eq!(net.in_flight(), 0);
        net.try_send(NodeId(0), NodeId(0), msg(1));
        assert!(net.in_flight() <= 1);
    }

    #[test]
    fn control_messages_bypass_stats_and_in_flight() {
        let net = SimNet::new(&[NodeId(0)], Duration::ZERO);
        assert!(net.try_send(NodeId(0), MASTER_NODE, NetMsg::Replay { epoch: 1 }));
        assert_eq!(net.in_flight(), 0);
        assert!(net.link_stats().is_empty());
        let (src, m) = net
            .recv_timeout(MASTER_NODE, Duration::from_secs(1))
            .unwrap();
        assert_eq!(src, NodeId(0));
        assert!(m.is_control());
        assert_eq!(m.data_bytes(), None);
    }

    #[test]
    fn disconnect_purges_and_balances() {
        let net = SimNet::new(&[NodeId(0), NodeId(1)], Duration::from_secs(60));
        net.try_send(NodeId(0), NodeId(1), msg(1));
        net.try_send(NodeId(0), NodeId(1), msg(1));
        assert_eq!(net.in_flight(), 2);
        net.disconnect(NodeId(1));
        assert_eq!(net.in_flight(), 0, "purged messages balance the counter");
        assert!(!net.node_alive(NodeId(1)));
        assert!(net.node_alive(NodeId(0)));
        // Future sends to the dead node are drops, not hangs.
        assert!(!net.try_send(NodeId(0), NodeId(1), msg(1)));
        assert_eq!(net.in_flight(), 0);
        assert!(net.link_stats()[&(NodeId(0), NodeId(1))].drops >= 1);
    }

    #[test]
    fn blocked_receiver_wakes_on_cross_thread_send() {
        let net = SimNet::new(&[NodeId(0), NodeId(1)], Duration::ZERO);
        let net2 = net.clone();
        let h = std::thread::spawn(move || {
            net2.recv_timeout(NodeId(1), Duration::from_secs(5))
                .map(|(src, _)| src)
        });
        std::thread::sleep(Duration::from_millis(10));
        net.try_send(NodeId(0), NodeId(1), msg(1));
        assert_eq!(h.join().unwrap(), Some(NodeId(0)));
    }

    #[test]
    fn faulty_net_drops_are_counted_and_retry_succeeds() {
        let inner = SimNet::new(&[NodeId(0), NodeId(1)], Duration::ZERO);
        let net = FaultyNet::new(inner.clone(), FaultPlan::new().drop_rate(0.5).seed(7));
        let mut delivered = 0;
        for _ in 0..200 {
            if net.send_with_retry(NodeId(0), NodeId(1), msg(1), &RetryConfig::default()) {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 200, "retry masks a 50% lossy link");
        let stats = inner.link_stats();
        let link = &stats[&(NodeId(0), NodeId(1))];
        assert!(link.drops > 0, "some sends were dropped: {link:?}");
        assert_eq!(link.retries, link.drops, "every drop was retried");
        assert_eq!(link.messages, 200);
    }

    #[test]
    fn exhausted_retry_budget_is_counted_as_lost() {
        let inner = SimNet::new(&[NodeId(0), NodeId(1)], Duration::ZERO);
        let net = FaultyNet::new(inner.clone(), FaultPlan::new().drop_rate(0.99).seed(1));
        let mut lost = 0;
        for _ in 0..20 {
            if !net.send_with_retry(NodeId(0), NodeId(1), msg(1), &RetryConfig::attempts(2)) {
                lost += 1;
            }
        }
        assert!(lost > 0, "a 99% lossy link defeats a 2-attempt budget");
        let link = inner.link_stats()[&(NodeId(0), NodeId(1))];
        assert_eq!(link.lost, lost, "every abandoned send is counted");
    }

    #[test]
    fn faulty_net_duplicates_deliver_twice() {
        let inner = SimNet::new(&[NodeId(0), NodeId(1)], Duration::ZERO);
        let net = FaultyNet::new(
            inner.clone(),
            FaultPlan::new().duplicate_rate(0.999).seed(3),
        );
        assert!(net.try_send(NodeId(0), NodeId(1), msg(1)));
        let a = net.recv_timeout(NodeId(1), Duration::from_millis(100));
        let b = net.recv_timeout(NodeId(1), Duration::from_millis(100));
        assert!(a.is_some() && b.is_some(), "duplicate delivered twice");
        net.delivered(NodeId(1));
        net.delivered(NodeId(1));
        assert_eq!(net.in_flight(), 0);
        assert!(inner.link_stats()[&(NodeId(0), NodeId(1))].duplicates >= 1);
    }

    #[test]
    fn kill_after_messages_disconnects_node() {
        let inner = SimNet::new(&[NodeId(0), NodeId(1), NodeId(2)], Duration::ZERO);
        let net = FaultyNet::new(
            inner.clone(),
            FaultPlan::new().kill_after_messages(NodeId(2), 3),
        );
        for _ in 0..2 {
            assert!(net.try_send(NodeId(0), NodeId(1), msg(1)));
        }
        assert!(net.node_alive(NodeId(2)));
        // The third data message trips the kill before enqueueing.
        net.try_send(NodeId(0), NodeId(2), msg(1));
        assert!(!net.node_alive(NodeId(2)));
        assert!(net.node_alive(NodeId(0)) && net.node_alive(NodeId(1)));
    }

    #[test]
    fn shared_schedule_kill_reaches_every_sharer() {
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        let inner_a = SimNet::new(&nodes, Duration::ZERO);
        let inner_b = SimNet::new(&nodes, Duration::ZERO);
        let plan = FaultPlan::new().kill_after_messages(NodeId(2), 1);
        let a = FaultyNet::new(inner_a.clone(), plan);
        let b = a.share(inner_b.clone());
        // The first data message through `a` fires the kill.
        assert!(a.try_send(NodeId(0), NodeId(1), msg(1)));
        assert!(!inner_a.node_alive(NodeId(2)), "a severed the node at once");
        assert!(inner_b.node_alive(NodeId(2)), "b has not been called yet");
        assert!(!b.node_alive(NodeId(2)), "b sees the kill a fired");
        assert!(!inner_b.node_alive(NodeId(2)), "severed on b's inner");
        assert!(b.node_alive(NodeId(0)) && b.node_alive(NodeId(1)));
        assert!(!b.try_send(NodeId(0), NodeId(2), msg(1)));
    }
}
