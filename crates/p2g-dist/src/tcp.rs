//! Real-socket implementation of the [`Transport`] trait: a [`TcpNet`] is
//! one participant's endpoint — the inbox of one node id, a loopback
//! listener, and one supervised outbound connection per peer. A
//! `p2gc cluster` process binds one; [`crate::SimCluster`] over TCP binds
//! one per participant inside a single process, wired the same way.
//!
//! # Connection supervision
//!
//! Every destination peer gets a dedicated *sender thread* owning the
//! outbound connection and its state machine:
//!
//! ```text
//!           +-----------(budget left)-----------+
//!           v                                   |
//!   Idle -> Connecting --fail--> Backoff(exp + jitter)
//!           | ok                                |
//!           v                                   | (budget exhausted)
//!        Established --write/ack error--+       v
//!           ^                           |      Dead (peer marked dead,
//!           +------(reconnect)----------+       queue purged, balanced)
//! ```
//!
//! On (re)connect the sender writes a [`NetMsg::Hello`] handshake first,
//! then *re-sends every unacknowledged frame*: the receiver acknowledges
//! each applied frame with [`NetMsg::Ack`] on the same socket, the sender
//! trims its resend window, and whatever was in the dead socket's buffers
//! is replayed on the next connection. Combined with the write-once field
//! model (duplicate deliveries dedup on value equality) this yields
//! at-least-once transport and exactly-once results.
//!
//! Frames are protected by the [`crate::wire`] codec (magic, version,
//! length, CRC32); a frame that fails validation drops the connection —
//! the supervisor reconnects and the resend window makes the stream whole.
//! Half-open connections are caught by the protocol-level `Status`
//! reports (staleness fires the master's failure detector) plus read
//! timeouts on the reader threads.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use p2g_graph::NodeId;

use crate::transport::{LinkStats, NetMsg, RetryConfig, Transport};
use crate::wire::{self, FrameReader};

/// Timeout for one TCP connect attempt (loopback connects resolve in
/// microseconds; refused connections return immediately).
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// Socket write deadline — a peer that stops draining for this long is
/// treated as a broken connection, not waited on forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);
/// Reader-thread poll interval: reads time out this often so the thread
/// can observe shutdown even on an idle connection.
const READ_POLL: Duration = Duration::from_millis(100);

/// One message queue + resend window guarded by the peer's sender thread.
struct PeerQueue {
    /// Frames queued for transmission, in order.
    out: VecDeque<NetMsg>,
    /// Frames written on the current connection, not yet acknowledged.
    /// Re-sent in order after a reconnect.
    unacked: VecDeque<NetMsg>,
    /// Frames acknowledged on the current connection.
    conn_acked: u64,
    /// Connection generation; stale ack-reader threads no-op.
    conn_gen: u64,
    /// Ack reader observed the connection die; sender must reconnect.
    conn_broken: bool,
    /// Peer declared dead (or endpoint shut down): sender drains and exits.
    closed: bool,
}

struct PeerHandle {
    queue: Mutex<PeerQueue>,
    /// Wakes the sender thread: frames queued, connection broken, closed.
    ready: Condvar,
    /// Wakes [`TcpNet::flush`]: the resend window shrank or the peer
    /// closed. Separate from `ready`, whose `notify_one` from `try_send` a
    /// waiting flusher could otherwise swallow.
    drained: Condvar,
}

impl PeerHandle {
    fn new() -> Arc<PeerHandle> {
        Arc::new(PeerHandle {
            queue: Mutex::new(PeerQueue {
                out: VecDeque::new(),
                unacked: VecDeque::new(),
                conn_acked: 0,
                conn_gen: 0,
                conn_broken: false,
                closed: false,
            }),
            ready: Condvar::new(),
            drained: Condvar::new(),
        })
    }

    fn close(&self) {
        self.queue.lock().closed = true;
        self.ready.notify_all();
        self.drained.notify_all();
    }
}

struct InboxState {
    queue: VecDeque<(NodeId, NetMsg)>,
    /// Set by [`Waker::kick`], cleared by the `recv_timeout` it ends.
    kicked: bool,
}

struct Inbox {
    state: Mutex<InboxState>,
    ready: Condvar,
}

/// Endpoint state shared between the caller, the accept/reader threads and
/// the sender threads.
struct Shared {
    me: NodeId,
    workers: u32,
    port: u16,
    retry: RetryConfig,
    inbox: Inbox,
    peers: Mutex<HashMap<NodeId, Arc<PeerHandle>>>,
    addrs: Mutex<HashMap<NodeId, SocketAddr>>,
    /// Data messages accepted for `dst` and not yet acknowledged by it.
    /// The in-flight count is the sum; `disconnect(dst)` removes the entry
    /// wholesale so a dead node can never wedge quiescence.
    pending_to: Mutex<HashMap<NodeId, u64>>,
    stats: Mutex<BTreeMap<(NodeId, NodeId), LinkStats>>,
    dead: Mutex<HashSet<NodeId>>,
    shutdown: AtomicBool,
}

impl Shared {
    fn push_inbox(&self, src: NodeId, msg: NetMsg) {
        let mut q = self.inbox.state.lock();
        q.queue.push_back((src, msg));
        drop(q);
        self.inbox.ready.notify_one();
    }

    fn is_dead(&self, node: NodeId) -> bool {
        self.dead.lock().contains(&node)
    }

    /// Update the `src -> dst` link statistics.
    fn link(&self, src: NodeId, dst: NodeId, f: impl FnOnce(&mut LinkStats)) {
        f(self.stats.lock().entry((src, dst)).or_default());
    }

    fn count_sent(&self, dst: NodeId, bytes: u64) {
        self.link(self.me, dst, |s| {
            s.messages += 1;
            s.bytes += bytes;
        });
        *self.pending_to.lock().entry(dst).or_insert(0) += 1;
    }

    /// An acknowledged data frame to `dst` is no longer in flight.
    fn count_acked(&self, dst: NodeId) {
        if let Some(n) = self.pending_to.lock().get_mut(&dst) {
            *n = n.saturating_sub(1);
        }
    }

    /// Declare `node` dead: future liveness checks fail and its pending
    /// deliveries stop counting as in flight (they will never be applied).
    fn mark_dead(&self, node: NodeId) {
        self.dead.lock().insert(node);
        self.pending_to.lock().remove(&node);
    }
}

/// Ends the endpoint owner's sleep in `recv_timeout` without a message:
/// how an event that is not network traffic (a session completing a
/// frame) reaches a loop whose one wait is its inbox. Cheap to clone.
#[derive(Clone)]
pub struct Waker {
    shared: Arc<Shared>,
}

impl Waker {
    /// Make the current — or, if none is waiting, the next — empty-inbox
    /// `recv_timeout` on this endpoint return `None` at once. Queued
    /// messages are still handed out first. The flag is set under the
    /// inbox mutex the receiver checks it with, so a kick between that
    /// check and the wait cannot be lost.
    pub fn kick(&self) {
        self.shared.inbox.state.lock().kicked = true;
        self.shared.inbox.ready.notify_one();
    }
}

/// One TCP endpoint: hosts the inbox for a single node id (`me`), accepts
/// inbound connections on a loopback listener, and supervises one
/// outbound connection per peer. Implements [`Transport`] from this
/// node's perspective — `recv_timeout` is only meaningful for `me`,
/// `try_send` only with `src == me`. A data message counts as in flight
/// from the send until the peer acknowledges it into its inbox.
pub struct TcpNet {
    shared: Arc<Shared>,
}

impl TcpNet {
    /// Bind a new endpoint for `node` on an ephemeral loopback port.
    /// `workers` is advertised in the connection handshake so a master
    /// process learns the node's capacity from its `Hello`.
    pub fn bind(node: NodeId, retry: RetryConfig, workers: u32) -> std::io::Result<Arc<TcpNet>> {
        Self::bind_on(node, retry, workers, 0)
    }

    /// Bind on a specific loopback port (0 = ephemeral). The master
    /// process uses this so nodes have a known address to dial.
    pub fn bind_on(
        node: NodeId,
        retry: RetryConfig,
        workers: u32,
        port: u16,
    ) -> std::io::Result<Arc<TcpNet>> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let port = listener.local_addr()?.port();
        let shared = Arc::new(Shared {
            me: node,
            workers,
            port,
            retry,
            inbox: Inbox {
                state: Mutex::new(InboxState {
                    queue: VecDeque::new(),
                    kicked: false,
                }),
                ready: Condvar::new(),
            },
            peers: Mutex::new(HashMap::new()),
            addrs: Mutex::new(HashMap::new()),
            pending_to: Mutex::new(HashMap::new()),
            stats: Mutex::new(BTreeMap::new()),
            dead: Mutex::new(HashSet::new()),
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = shared.clone();
        std::thread::Builder::new()
            .name(format!("p2g-tcp-accept-{}", node.0))
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Arc::new(TcpNet { shared }))
    }

    /// The loopback port this endpoint listens on.
    pub fn port(&self) -> u16 {
        self.shared.port
    }

    /// A handle that wakes this endpoint's receiver; see [`Waker::kick`].
    pub fn waker(&self) -> Waker {
        Waker {
            shared: self.shared.clone(),
        }
    }

    /// Register (or update) a peer's address. Sends to unregistered peers
    /// are drops.
    pub fn set_peer(&self, node: NodeId, addr: SocketAddr) {
        self.shared.addrs.lock().insert(node, addr);
    }

    /// Block until every frame queued for `dst` has been written *and
    /// acknowledged* (or the timeout expires / the peer dies). A process
    /// about to exit calls this so its final messages actually leave.
    /// `Duration::MAX` waits with no deadline.
    pub fn flush(&self, dst: NodeId, timeout: Duration) -> bool {
        let deadline = Instant::now().checked_add(timeout);
        let Some(peer) = self.shared.peers.lock().get(&dst).cloned() else {
            return true;
        };
        let mut q = peer.queue.lock();
        loop {
            if q.closed || (q.out.is_empty() && q.unacked.is_empty()) {
                return true;
            }
            if self.shared.is_dead(dst) {
                return false;
            }
            match deadline {
                Some(deadline) if Instant::now() >= deadline => return false,
                Some(deadline) => {
                    peer.drained.wait_until(&mut q, deadline);
                }
                None => peer.drained.wait(&mut q),
            }
        }
    }

    /// Stop all supervisor/reader threads and close the listener. Idempotent.
    pub fn shutdown(&self) {
        shutdown_shared(&self.shared);
    }
}

impl Drop for TcpNet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn shutdown_shared(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    for peer in shared.peers.lock().values() {
        peer.close();
    }
    // Wake the accept thread (blocked in `accept`) with a throwaway
    // connection; it observes the flag and exits.
    let _ = TcpStream::connect(("127.0.0.1", shared.port));
    // Under the inbox mutex: a receiver that read the flag as clear is
    // either still holding it or already waiting, so it hears this.
    let _inbox = shared.inbox.state.lock();
    shared.inbox.ready.notify_all();
}

// ---------------------------------------------------------- inbound side

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let conn_shared = shared.clone();
        let name = format!("p2g-tcp-read-{}", shared.me.0);
        let r = std::thread::Builder::new()
            .name(name)
            .spawn(move || inbound_conn(stream, conn_shared));
        if r.is_err() {
            // Out of threads: refuse the connection; the peer's
            // supervisor will back off and retry.
            continue;
        }
    }
}

/// Serve one accepted connection: validate the handshake, then decode
/// frames, push them to the inbox and acknowledge each one. Any wire
/// error drops the connection (the sender reconnects and re-sends its
/// unacknowledged window).
fn inbound_conn(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut ack_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut stream = stream;
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 64 * 1024];
    let mut peer: Option<NodeId> = None;
    let mut frames_in: u64 = 0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => return, // peer closed
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        reader.push(&buf[..n]);
        loop {
            let payload = match reader.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                // Corrupt frame: sever the connection rather than risk
                // misinterpreting the stream. The supervisor on the other
                // side reconnects and re-sends.
                Err(_) => return,
            };
            let Ok(msg) = wire::decode_payload(&payload) else {
                return;
            };
            // The first frame on every connection must identify the peer.
            // The handshake is not ack-counted: it never enters the
            // sender's resend window.
            let src = match peer {
                Some(src) => src,
                None => match msg {
                    NetMsg::Hello { node, .. } => {
                        peer = Some(node);
                        // Surface the join/handshake to the host (the
                        // multi-process master treats it as a node join).
                        if !shared.is_dead(shared.me) {
                            shared.push_inbox(node, msg);
                        }
                        continue;
                    }
                    _ => return, // protocol violation: drop the connection
                },
            };
            if matches!(msg, NetMsg::Ack { .. }) {
                continue; // acks never arrive on inbound connections
            }
            frames_in += 1;
            // Deliveries for a dead endpoint are dropped (their in-flight
            // accounting was already balanced by `disconnect`) — but still
            // acknowledged, so the sender's window drains.
            if !shared.is_dead(shared.me) {
                shared.push_inbox(src, msg);
            }
            let ack = wire::encode_frame(&NetMsg::Ack { count: frames_in });
            if ack_half.write_all(&ack).is_err() {
                return;
            }
        }
    }
}

// --------------------------------------------------------- outbound side

/// The per-peer supervisor: owns the outbound connection, reconnects with
/// exponential backoff + jitter, re-sends the unacknowledged window after
/// every reconnect, and marks the peer dead once the attempt budget is
/// exhausted.
fn sender_loop(dst: NodeId, peer: Arc<PeerHandle>, shared: Arc<Shared>) {
    let mut conn: Option<TcpStream> = None;
    let mut attempts: u32 = 0;
    loop {
        // Wait for work (or a broken connection with frames to resend).
        {
            let mut q = peer.queue.lock();
            loop {
                if q.closed || shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if q.conn_broken {
                    q.conn_broken = false;
                    conn = None;
                }
                if !q.out.is_empty() || (conn.is_none() && !q.unacked.is_empty()) {
                    break;
                }
                peer.ready.wait(&mut q);
            }
        }

        // Ensure a connection, backing off between attempts.
        if conn.is_none() {
            let Some(addr) = shared.addrs.lock().get(&dst).copied() else {
                // No address for this peer: drop whatever is queued.
                let mut q = peer.queue.lock();
                q.out.clear();
                q.unacked.clear();
                peer.drained.notify_all();
                continue;
            };
            match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
                Ok(stream) => {
                    attempts = 0;
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                    let _ = stream.set_read_timeout(Some(READ_POLL));
                    // Handshake, then replay the unacknowledged window.
                    let hello = wire::encode_frame(&NetMsg::Hello {
                        node: shared.me,
                        workers: shared.workers,
                        port: shared.port,
                    });
                    let mut stream = stream;
                    if stream.write_all(&hello).is_err() {
                        conn = None;
                        continue;
                    }
                    let gen = {
                        let mut q = peer.queue.lock();
                        q.conn_gen += 1;
                        q.conn_acked = 0;
                        q.conn_broken = false;
                        q.conn_gen
                    };
                    if let Ok(read_half) = stream.try_clone() {
                        let ack_peer = peer.clone();
                        let ack_shared = shared.clone();
                        let _ = std::thread::Builder::new()
                            .name(format!("p2g-tcp-ack-{}-{}", shared.me.0, dst.0))
                            .spawn(move || ack_loop(read_half, gen, dst, ack_peer, ack_shared));
                    }
                    let window: Vec<NetMsg> = peer.queue.lock().unacked.iter().cloned().collect();
                    let mut ok = true;
                    for msg in &window {
                        if stream.write_all(&wire::encode_frame(msg)).is_err() {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        conn = Some(stream);
                    }
                }
                Err(_) => {
                    attempts += 1;
                    if attempts >= shared.retry.attempts.max(1) {
                        // Budget exhausted: the peer is gone. Mark it dead
                        // so liveness checks fail fast, and drop the
                        // queue — recovery replay makes the data whole.
                        shared.mark_dead(dst);
                        shared.link(shared.me, dst, |s| s.lost += 1);
                        peer.close();
                        return;
                    }
                    shared.link(shared.me, dst, |s| s.retries += 1);
                    let salt = ((shared.me.0 as u64) << 40)
                        ^ ((dst.0 as u64) << 16)
                        ^ attempts as u64;
                    std::thread::sleep(shared.retry.backoff_for(attempts - 1, salt));
                    continue;
                }
            }
            if conn.is_none() {
                continue;
            }
        }

        // Drain the queue onto the connection; every frame written joins
        // the resend window until acknowledged.
        loop {
            let msg = {
                let mut q = peer.queue.lock();
                if q.closed {
                    return;
                }
                if q.conn_broken {
                    break;
                }
                match q.out.pop_front() {
                    Some(m) => {
                        q.unacked.push_back(m.clone());
                        m
                    }
                    None => break,
                }
            };
            let Some(stream) = conn.as_mut() else {
                break; // connection raced away; reconnect from the top
            };
            if stream.write_all(&wire::encode_frame(&msg)).is_err() {
                conn = None;
                break;
            }
        }
    }
}

/// Consume acknowledgements on an outbound connection, trimming the
/// sender's resend window; on connection death, flag the supervisor.
fn ack_loop(
    mut stream: TcpStream,
    gen: u64,
    dst: NodeId,
    peer: Arc<PeerHandle>,
    shared: Arc<Shared>,
) {
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 4096];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || peer.queue.lock().closed {
            return;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => 0,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => 0,
        };
        if n == 0 {
            // EOF or hard error: tell the supervisor (if this is still
            // the live connection) and exit.
            let mut q = peer.queue.lock();
            if q.conn_gen == gen {
                q.conn_broken = true;
                peer.ready.notify_all();
            }
            return;
        }
        reader.push(&buf[..n]);
        loop {
            match reader.next_frame() {
                Ok(Some(payload)) => {
                    if let Ok(NetMsg::Ack { count }) = wire::decode_payload(&payload) {
                        let mut q = peer.queue.lock();
                        if q.conn_gen != gen {
                            return; // superseded connection
                        }
                        let newly = count.saturating_sub(q.conn_acked);
                        for _ in 0..newly {
                            if let Some(m) = q.unacked.pop_front() {
                                if !m.is_control() {
                                    shared.count_acked(dst);
                                }
                            }
                        }
                        q.conn_acked = q.conn_acked.max(count);
                        peer.drained.notify_all();
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Corrupt ack stream: treat as a broken connection.
                    let mut q = peer.queue.lock();
                    if q.conn_gen == gen {
                        q.conn_broken = true;
                        peer.ready.notify_all();
                    }
                    return;
                }
            }
        }
    }
}

// ------------------------------------------------------- Transport impl

impl TcpNet {
    /// The supervisor handle for `dst`, spawning its sender thread on first
    /// use. A failed spawn (fd/thread exhaustion) is `None`, not a panic and
    /// not a supervisor-less queue.
    fn peer(&self, dst: NodeId) -> Option<Arc<PeerHandle>> {
        let shared = &self.shared;
        let mut peers = shared.peers.lock();
        if let Some(p) = peers.get(&dst) {
            return Some(p.clone());
        }
        let p = PeerHandle::new();
        let (thread_peer, thread_shared) = (p.clone(), shared.clone());
        std::thread::Builder::new()
            .name(format!("p2g-tcp-send-{}-{}", shared.me.0, dst.0))
            .spawn(move || sender_loop(dst, thread_peer, thread_shared))
            .ok()?;
        peers.insert(dst, p.clone());
        Some(p)
    }
}

impl Transport for TcpNet {
    fn try_send(&self, src: NodeId, dst: NodeId, msg: NetMsg) -> bool {
        let shared = &self.shared;
        debug_assert_eq!(src, shared.me, "endpoint sends originate locally");
        let data_bytes = msg.data_bytes();
        let refuse = || {
            if data_bytes.is_some() {
                shared.link(src, dst, |s| s.drops += 1);
            }
            false
        };
        if shared.is_dead(dst) || shared.is_dead(shared.me) {
            return refuse();
        }
        if dst == shared.me {
            // Loopback delivery without a socket (a node subscribing to its
            // own field would not normally be routed here, but be total).
            // Nothing acknowledges it, so it is never counted in flight.
            if let Some(bytes) = data_bytes {
                shared.link(src, dst, |s| {
                    s.messages += 1;
                    s.bytes += bytes;
                });
            }
            shared.push_inbox(src, msg);
            return true;
        }
        if !shared.addrs.lock().contains_key(&dst) {
            return refuse();
        }
        let Some(peer) = self.peer(dst) else {
            return refuse();
        };
        let mut q = peer.queue.lock();
        if q.closed {
            return refuse();
        }
        if let Some(bytes) = data_bytes {
            shared.count_sent(dst, bytes);
        }
        q.out.push_back(msg);
        drop(q);
        peer.ready.notify_one();
        true
    }

    fn recv_timeout(&self, dst: NodeId, timeout: Duration) -> Option<(NodeId, NetMsg)> {
        let shared = &self.shared;
        if dst != shared.me {
            return None;
        }
        // A timeout too large to be a point in time (`Duration::MAX`) is a
        // wait without a deadline: only a message, a kick or the endpoint's
        // end returns.
        let deadline = Instant::now().checked_add(timeout);
        let mut q = shared.inbox.state.lock();
        loop {
            if let Some(item) = q.queue.pop_front() {
                return Some(item);
            }
            if std::mem::take(&mut q.kicked)
                || shared.shutdown.load(Ordering::SeqCst)
                || shared.is_dead(shared.me)
            {
                return None;
            }
            match deadline {
                Some(deadline) if Instant::now() >= deadline => return None,
                Some(deadline) => {
                    shared.inbox.ready.wait_until(&mut q, deadline);
                }
                None => shared.inbox.ready.wait(&mut q),
            }
        }
    }

    /// A no-op: a frame left the in-flight count when its receiver
    /// acknowledged it into the inbox.
    fn delivered(&self, _dst: NodeId) {}

    fn in_flight(&self) -> u64 {
        // Local view: data accepted here and not yet acknowledged into
        // the receiver's inbox. The master sees it in this node's `Status`.
        self.shared.pending_to.lock().values().sum()
    }

    fn node_alive(&self, node: NodeId) -> bool {
        if self.shared.is_dead(node) {
            return false;
        }
        node == self.shared.me || self.shared.addrs.lock().contains_key(&node)
    }

    fn disconnect(&self, node: NodeId) {
        let shared = &self.shared;
        shared.mark_dead(node);
        if node == shared.me {
            shared.inbox.state.lock().queue.clear();
            shared.inbox.ready.notify_all();
        }
        if let Some(peer) = shared.peers.lock().get(&node) {
            peer.close();
        }
    }

    fn set_peer(&self, node: NodeId, addr: SocketAddr) {
        TcpNet::set_peer(self, node, addr);
    }

    fn note_retry(&self, src: NodeId, dst: NodeId) {
        self.shared.link(src, dst, |s| s.retries += 1);
    }

    fn note_lost(&self, src: NodeId, dst: NodeId) {
        self.shared.link(src, dst, |s| s.lost += 1);
    }

    fn note_drop(&self, src: NodeId, dst: NodeId) {
        self.shared.link(src, dst, |s| s.drops += 1);
    }

    fn note_duplicate(&self, src: NodeId, dst: NodeId) {
        self.shared.link(src, dst, |s| s.duplicates += 1);
    }

    fn link_stats(&self) -> BTreeMap<(NodeId, NodeId), LinkStats> {
        self.shared.stats.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2g_field::{Age, Buffer, DimSel, FieldId, Region};

    fn store(n: i32) -> NetMsg {
        NetMsg::StoreForward {
            field: FieldId(0),
            age: Age(0),
            region: Region(vec![DimSel::All]),
            buffer: Buffer::from_vec(vec![n]),
        }
    }

    #[test]
    fn endpoints_exchange_data_over_sockets() {
        let a = TcpNet::bind(NodeId(0), RetryConfig::default(), 2).unwrap();
        let b = TcpNet::bind(NodeId(1), RetryConfig::default(), 2).unwrap();
        a.set_peer(NodeId(1), SocketAddr::from(([127, 0, 0, 1], b.port())));
        assert!(a.try_send(NodeId(0), NodeId(1), store(7)));
        // First inbox frame is the handshake Hello, then the store.
        let mut got_store = false;
        for _ in 0..4 {
            match b.recv_timeout(NodeId(1), Duration::from_secs(2)) {
                Some((src, NetMsg::StoreForward { buffer, .. })) => {
                    assert_eq!(src, NodeId(0));
                    assert_eq!(buffer.data(), &p2g_field::buffer::BufferData::I32(vec![7]));
                    got_store = true;
                    break;
                }
                Some(_) => continue,
                None => break,
            }
        }
        assert!(got_store, "store forward crossed the socket");
        let link = a.link_stats()[&(NodeId(0), NodeId(1))];
        assert_eq!(
            (link.messages, link.bytes),
            (1, store(7).data_bytes().unwrap())
        );
        // The store leaves the sender's in-flight count at b's ack, which
        // is what `flush` waits for.
        assert!(
            a.flush(NodeId(1), Duration::from_secs(2)),
            "b acked the window"
        );
        assert_eq!(a.in_flight(), 0, "the ack balanced the send");
    }

    /// `flush(Duration::MAX)` waits with no deadline instead of
    /// overflowing the clock: it returns once the peer acknowledged.
    #[test]
    fn flush_with_duration_max_returns_on_the_ack() {
        let a = TcpNet::bind(NodeId(0), RetryConfig::default(), 1).unwrap();
        let b = TcpNet::bind(NodeId(1), RetryConfig::default(), 1).unwrap();
        a.set_peer(NodeId(1), SocketAddr::from(([127, 0, 0, 1], b.port())));
        assert!(a.try_send(NodeId(0), NodeId(1), store(4)));
        let (done, result) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(a.flush(NodeId(1), Duration::MAX));
        });
        assert_eq!(result.recv_timeout(Duration::from_secs(10)), Ok(true));
        drop(b);
    }

    #[test]
    fn send_to_unknown_peer_is_a_drop() {
        let a = TcpNet::bind(NodeId(0), RetryConfig::default(), 1).unwrap();
        assert!(!a.try_send(NodeId(0), NodeId(9), store(1)));
        assert_eq!(a.link_stats()[&(NodeId(0), NodeId(9))].drops, 1);
    }

    #[test]
    fn peer_death_is_detected_and_marked() {
        let a = TcpNet::bind(NodeId(0), RetryConfig::attempts(3), 1).unwrap();
        // Point at a bound-then-dropped port: connection refused.
        let dead_port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        a.set_peer(NodeId(1), SocketAddr::from(([127, 0, 0, 1], dead_port)));
        assert!(a.node_alive(NodeId(1)));
        assert!(a.try_send(NodeId(0), NodeId(1), store(1)));
        // Supervisor exhausts its 3-attempt budget and marks the peer dead.
        let deadline = Instant::now() + Duration::from_secs(5);
        while a.node_alive(NodeId(1)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!a.node_alive(NodeId(1)), "exhausted budget marks peer dead");
        assert_eq!(a.in_flight(), 0, "dead peer's pending was balanced");
    }

    #[test]
    fn corrupt_bytes_drop_connection_not_process() {
        let a = TcpNet::bind(NodeId(0), RetryConfig::default(), 1).unwrap();
        // Raw garbage straight at the listener: handshake never validates.
        let mut s = TcpStream::connect(("127.0.0.1", a.port())).unwrap();
        s.write_all(&[0xAB; 256]).unwrap();
        s.flush().unwrap();
        // The endpoint survives and still accepts a well-formed peer.
        let b = TcpNet::bind(NodeId(1), RetryConfig::default(), 1).unwrap();
        b.set_peer(NodeId(0), SocketAddr::from(([127, 0, 0, 1], a.port())));
        assert!(b.try_send(NodeId(1), NodeId(0), store(3)));
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut seen = false;
        while Instant::now() < deadline {
            if let Some((_, NetMsg::StoreForward { .. })) =
                a.recv_timeout(NodeId(0), Duration::from_millis(100))
            {
                seen = true;
                break;
            }
        }
        assert!(seen, "endpoint still functional after garbage connection");
    }

    #[test]
    fn disconnect_balances_in_flight() {
        let a = TcpNet::bind(NodeId(0), RetryConfig::default(), 1).unwrap();
        // A peer that accepts connections but never reads: nothing is acked.
        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        a.set_peer(NodeId(1), silent.local_addr().unwrap());
        assert!(a.try_send(NodeId(0), NodeId(1), store(1)));
        assert_eq!(a.in_flight(), 1);
        a.disconnect(NodeId(1));
        assert_eq!(a.in_flight(), 0);
        assert!(!a.node_alive(NodeId(1)));
        assert!(a.node_alive(NodeId(0)));
        assert!(!a.try_send(NodeId(0), NodeId(1), store(2)));
    }

    #[test]
    fn flush_to_a_peer_that_never_acks_times_out() {
        let a = TcpNet::bind(NodeId(0), RetryConfig::default(), 1).unwrap();
        // A peer that accepts connections but never reads: nothing is acked.
        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        a.set_peer(NodeId(1), silent.local_addr().unwrap());
        assert!(a.try_send(NodeId(0), NodeId(1), store(1)));
        let start = Instant::now();
        assert!(!a.flush(NodeId(1), Duration::from_millis(100)));
        assert!(
            start.elapsed() >= Duration::from_millis(100),
            "waited to the deadline"
        );
        assert_eq!(a.in_flight(), 1, "the window is still unacknowledged");
    }
}
