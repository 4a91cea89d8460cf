//! The coordinator protocol: the one master loop ([`run_master`]) and the
//! one execution-node loop ([`run_node`]) every deployment runs. They talk
//! only through a [`Transport`], so the same two functions serve
//! [`crate::SimCluster`] (one thread per node over [`crate::SimNet`] or one
//! [`crate::TcpNet`] each) and `p2gc cluster master|node` (one OS process
//! each over its own [`crate::TcpNet`]).
//!
//! # Protocol (over TCP, all frames via the [`crate::wire`] codec)
//!
//! ```text
//! node             master
//!  | -- Hello ------> |   join: node id, worker count, listen port
//!  |  (launch runtime, nothing assigned yet)
//!  | <-- Assign ----- |   epoch 1: kernels, subscription map, peer book,
//!  |                  |   status interval (failure_timeout / 10)
//!  |  (store forwards flow node<->node directly)
//!  | -- Status -----> |   liveness + quiescence counters, repeating
//!  |                  |   death detected: staleness / transport says dead /
//!  | <-- Assign ----- |   failed flag -> replan: epoch N+1 to survivors
//!  | <-- Replay ----- |   re-send written regions to new subscribers
//!  | <-- Finish ----- |   stable global quiescence (or the run deadline)
//!  | -- Results ----> |   written field regions; master merges + digests
//! ```
//!
//! Quiescence: a `Status` is *quiet* when it carries the current epoch,
//! `outstanding == 0` (the runtime's work counter, plus one while the node
//! loop itself has a message in hand or a replay under way), `unacked ==
//! 0` (the transport's in-flight count as the node sees it), no runtime
//! failure, and the same `applied` count as the node's previous status (it
//! took in nothing in between, so it was idle the whole interval, not
//! merely at both ends). The run is over when every live node has sent
//! `QUIET_ROUNDS` (3) quiet statuses in a row. A store is never invisibly in
//! flight: the producing unit is still counted in its node's `outstanding`
//! when the store tap sends, and from then on the store is counted in
//! flight until the receiving loop has injected it (which raises the
//! receiver's `outstanding` first). Over TCP a sender's count drops at
//! the receiver's acknowledgement instead, which is sent once the
//! frame is in the receiver's inbox — and a receiver only reports
//! `outstanding == 0` from a turn of its loop that found the inbox empty.
//!
//! Exactly-once: the transport is at-least-once (reconnect re-sends the
//! unacknowledged window; recovery replays whole regions) and execution
//! is at-least-once (kernels re-run on reassignment) — write-once fields
//! dedup on value equality, so results come out exactly-once. The result
//! digest is computed over the sorted, deduplicated set of written
//! `(field, age, region, buffer)` entries, making it invariant to node
//! count, assignment, and recovery history.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use p2g_field::{Age, Buffer, FieldId, Region};
use p2g_graph::{KernelId, NodeId, NodeSpec, ProgramSpec};
use p2g_runtime::instrument::RunReport;
use p2g_runtime::node::{FieldStore, NodeBuilder};
use p2g_runtime::trace::{TraceEvent, Tracer};
use p2g_runtime::{Program, RunLimits, RuntimeError};

use crate::master::MasterNode;
use crate::transport::{NetMsg, RetryConfig, Transport, MASTER_NODE};
use crate::wire;

/// Consecutive quiet statuses required from every live node.
const QUIET_ROUNDS: u64 = 3;

/// How long the master waits for the expected nodes to join.
const JOIN_TIMEOUT: Duration = Duration::from_secs(30);

/// The settings the master and the nodes of one cluster share.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolConfig {
    /// Send retry/backoff discipline (over TCP it also governs reconnect
    /// supervision).
    pub retry: RetryConfig,
    /// Status staleness after which the master declares a node failed.
    /// A false positive is safe (recovery is idempotent), merely wasteful.
    pub failure_timeout: Duration,
    /// Wall-clock bound on the run. It is the master's to enforce: at the
    /// deadline it stops supervising, says `Finish` and collects what
    /// there is ([`MasterOutcome::deadline_hit`]). A node only uses it as
    /// a backstop against a master that never says `Finish`, one
    /// `failure_timeout` later so the master's `Finish` wins a tie.
    pub deadline: Option<Duration>,
}

impl ProtocolConfig {
    /// How often a node reports `Status`: a tenth of `failure_timeout`
    /// (floored at 1ms), so the detector always sees several statuses per
    /// timeout window however the timeout is tuned. The master states it
    /// in `Assign`; nothing else sets it.
    pub fn status_every(&self) -> Duration {
        (self.failure_timeout / 10).max(Duration::from_millis(1))
    }
}

/// What the launcher tells a node about itself.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's id (unique across the cluster).
    pub id: NodeId,
    /// Worker threads for the local runtime.
    pub workers: usize,
    /// The loopback port peers dial to reach this node, advertised in its
    /// `Hello`; 0 when the transport already connects every node.
    pub port: u16,
    pub protocol: ProtocolConfig,
}

/// What a master run produced.
#[derive(Debug, Clone)]
pub struct MasterOutcome {
    /// CRC32 over the sorted, deduplicated wire encoding of every written
    /// `(field, age, region, buffer)` entry — invariant to node count and
    /// recovery history, so bit-identical results digest identically.
    pub digest: u32,
    /// Deduplicated result entries behind the digest.
    pub entries: usize,
    /// Nodes that died (or were declared dead) during the run.
    pub failed_nodes: Vec<NodeId>,
    /// Final assignment epoch (1 = no recovery happened).
    pub epoch: u64,
    /// The kernel assignment in effect at the end of the run.
    pub assignment: HashMap<NodeId, HashSet<KernelId>>,
    /// Frames admitted from the [`StreamFeed`] (0 without one).
    pub frames_streamed: u64,
    /// Feed frame parts re-injected to new owners during recovery.
    pub redelivered: u64,
    /// The run ended on [`ProtocolConfig::deadline`], not on quiescence.
    pub deadline_hit: bool,
}

/// What a node run produced. A node that was severed from the cluster
/// mid-run still returns what it completed (write-once fields cannot hold
/// a partial write of an element).
pub struct NodeOutcome {
    pub report: RunReport,
    pub fields: FieldStore,
    /// Store regions this node re-sent to new subscribers on `Replay`.
    pub replayed: u64,
    /// The runtime's fatal failure, if it had one.
    pub error: Option<RuntimeError>,
}

/// The `(field, region, buffer)` parts making up one streamed frame.
pub type FrameParts = Vec<(FieldId, Region, Buffer)>;

/// The store-forwarding subscription map: for each field, the nodes that
/// run at least one consumer of it.
type Subscribers = BTreeMap<FieldId, Vec<NodeId>>;

/// A frame feed driving a streaming cluster run: the master pulls frames
/// while the admission window has room and injects their parts to every
/// node subscribing to the part's field, exactly like a store forward.
/// Frames not yet known complete are retained and re-injected after a
/// recovery replan (write-once dedup absorbs duplicates), so a node death
/// does not lose in-flight frames.
pub struct StreamFeed {
    frame: Box<dyn FnMut(u64) -> Option<FrameParts> + Send>,
    completed: Box<dyn Fn() -> u64 + Send>,
    window: u64,
    submitted: u64,
    exhausted: bool,
    /// Frames submitted but not yet below the completion frontier, for
    /// recovery re-injection.
    pending: VecDeque<(u64, FrameParts)>,
}

impl StreamFeed {
    /// A feed with an admission window of `window` in-flight frames.
    /// `frame(n)` produces frame `n`'s `(field, region, buffer)` parts or
    /// `None` at end of stream. `completed()` is the workload's completion
    /// *frontier*: the highest completed frame number plus one (frames
    /// complete in age order — the terminal kernel is ordered in streaming
    /// workloads). It must not be a count of terminal-kernel runs: after a
    /// recovery the new owner re-runs the terminal kernel for every
    /// resident age, so a count overshoots the frames submitted; have the
    /// kernel body `fetch_max(age + 1)` instead.
    pub fn new(
        window: u64,
        frame: impl FnMut(u64) -> Option<FrameParts> + Send + 'static,
        completed: impl Fn() -> u64 + Send + 'static,
    ) -> StreamFeed {
        StreamFeed {
            frame: Box::new(frame),
            completed: Box::new(completed),
            window: window.max(1),
            submitted: 0,
            exhausted: false,
            pending: VecDeque::new(),
        }
    }

    /// Forget frames below the completion frontier, then admit new ones
    /// while the window has room.
    fn pump(&mut self, link: &Link, subscribers: &Subscribers) {
        let frontier = (self.completed)();
        while self.pending.front().is_some_and(|&(n, _)| n < frontier) {
            self.pending.pop_front();
        }
        while !self.exhausted && self.submitted.saturating_sub(frontier) < self.window {
            match (self.frame)(self.submitted) {
                Some(parts) => {
                    link.forward_frame(subscribers, self.submitted, &parts);
                    self.pending.push_back((self.submitted, parts));
                    self.submitted += 1;
                }
                None => self.exhausted = true,
            }
        }
    }
}

fn store_msg(field: FieldId, age: Age, region: &Region, buffer: &Buffer) -> NetMsg {
    let (region, buffer) = (region.clone(), buffer.clone());
    NetMsg::StoreForward {
        field,
        age,
        region,
        buffer,
    }
}

/// One sender's view of the data plane.
#[derive(Clone)]
struct Link {
    net: Arc<dyn Transport>,
    retry: RetryConfig,
    tracer: Option<Arc<Tracer>>,
    src: NodeId,
}

impl Link {
    /// Send one written region to each of `dsts` (never back to the
    /// sender) and return how many sends the transport accepted. A refused
    /// send means the destination died — the recovery replay covers it —
    /// or the retry budget ran out, which the transport counts as lost.
    fn forward(
        &self,
        dsts: &[NodeId],
        field: FieldId,
        age: Age,
        region: &Region,
        buffer: &Buffer,
    ) -> u64 {
        let (from, retry) = (self.src, &self.retry);
        let mut sent = 0;
        for &to in dsts.iter().filter(|&&d| d != from) {
            if let Some(t) = &self.tracer {
                let age = age.0;
                let send = TraceEvent::Send {
                    from,
                    to,
                    field,
                    age,
                };
                t.record(from.0, send);
            }
            let msg = store_msg(field, age, region, buffer);
            sent += u64::from(self.net.send_with_retry(from, to, msg, retry));
        }
        sent
    }

    /// Send every part of feed frame `n` to its field's subscribers.
    fn forward_frame(&self, subscribers: &Subscribers, n: u64, parts: &FrameParts) -> u64 {
        let part = |(field, region, buffer): &(FieldId, Region, Buffer)| {
            let dsts = subscribers.get(field).map_or(&[][..], Vec::as_slice);
            self.forward(dsts, *field, Age(n), region, buffer)
        };
        parts.iter().map(part).sum()
    }
}

fn subscribers_for(
    spec: &ProgramSpec,
    assignment: &HashMap<NodeId, HashSet<KernelId>>,
) -> Subscribers {
    let mut subscribers = Subscribers::new();
    for k in &spec.kernels {
        let Some((&node, _)) = assignment.iter().find(|(_, ks)| ks.contains(&k.id)) else {
            continue;
        };
        for fe in &k.fetches {
            let subs = subscribers.entry(fe.field).or_default();
            if !subs.contains(&node) {
                subs.push(node);
            }
        }
    }
    subscribers
}

/// Canonical digest of result entries: wire-encode each entry, sort,
/// dedup (write-once replicas and re-executions collapse), CRC the
/// concatenation.
pub fn results_digest(entries: &[(FieldId, Age, Region, Buffer)]) -> (u32, usize) {
    let mut blobs: Vec<Vec<u8>> = entries
        .iter()
        .map(|(field, age, region, buffer)| store_msg(*field, *age, region, buffer))
        .map(|msg| wire::encode_payload(&msg))
        .collect();
    blobs.sort();
    blobs.dedup();
    (wire::crc32(&blobs.concat()), blobs.len())
}

/// What the master knows of one live node, all of it from messages.
struct Seen {
    addr: SocketAddr,
    last_status: Instant,
    applied: u64,
    quiet: u64,
    runtime_failed: bool,
}

/// Run the master side over `net`: accept `nodes` joins, plan, supervise,
/// recover, collect results. Returns once the cluster reached stable
/// global quiescence (or the deadline) and every live node reported its
/// results.
///
/// `feed` makes it a streaming run: the master additionally plays the
/// submitting client, and the run is not over before the feed is exhausted
/// and every frame completed. `tracer` receives `NodeDeath` and `Replan`
/// in the buffer after the nodes' (index `nodes`). `log` receives the
/// progress lines `p2gc cluster master` prints on stderr.
pub fn run_master(
    spec: &ProgramSpec,
    net: Arc<dyn Transport>,
    nodes: usize,
    protocol: &ProtocolConfig,
    mut feed: Option<StreamFeed>,
    tracer: Option<Arc<Tracer>>,
    log: &dyn Fn(&str),
) -> Result<MasterOutcome, RuntimeError> {
    let retry = protocol.retry;
    let status_every = protocol.status_every();
    let start = Instant::now();
    let link = Link {
        net: net.clone(),
        retry,
        tracer: None,
        src: MASTER_NODE,
    };
    let trace = |event: TraceEvent| {
        if let Some(t) = &tracer {
            t.record(nodes as u32, event);
        }
    };

    // --- join -----------------------------------------------------------
    let mut master = MasterNode::new();
    let mut live: BTreeMap<NodeId, Seen> = BTreeMap::new();
    while live.len() < nodes {
        if start.elapsed() >= JOIN_TIMEOUT {
            let joined = live.len();
            return Err(RuntimeError::Net(format!(
                "join timeout: {joined}/{nodes} nodes joined"
            )));
        }
        let Some((
            _,
            NetMsg::Hello {
                node,
                workers,
                port,
            },
        )) = net.recv_timeout(MASTER_NODE, Duration::from_millis(100))
        else {
            continue;
        };
        // A node may not claim the master's id, and a `Hello` that
        // advertises no workers (the handshake of an endpoint that hosts
        // no runtime, such as a serve client's) is not a join: this is
        // input from the network, so it is checked, not trusted.
        if node == MASTER_NODE || workers == 0 {
            continue;
        }
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        net.set_peer(node, addr);
        let fresh = Seen {
            addr,
            last_status: Instant::now(),
            applied: 0,
            quiet: 0,
            runtime_failed: false,
        };
        if live.insert(node, fresh).is_none() {
            let name = format!("node-{}", node.0);
            master.report_topology(NodeSpec::multicore(node, name, workers as usize));
            log(&format!(
                "p2g-master: node {} joined ({workers} workers, port {port})",
                node.0
            ));
        }
    }

    // (Re)plan over the live nodes (structural weights: no instrumentation
    // is collected mid-run), re-target store forwarding, and hand each node
    // its kernel set, the subscription map and the peer book. A node's
    // staleness clock starts when it is told (it reports nothing before
    // its first assignment); one this cannot reach stays silent and is
    // found dead like any other.
    let assign = |master: &mut MasterNode, live: &mut BTreeMap<NodeId, Seen>, epoch: u64| {
        let assignment = master.replan(spec, &BTreeMap::new(), &BTreeMap::new());
        let subscribers = subscribers_for(spec, &assignment);
        let subs: Vec<_> = subscribers.clone().into_iter().collect();
        let peers: Vec<_> = live.iter().map(|(n, s)| (*n, s.addr.to_string())).collect();
        for (&id, seen) in live.iter_mut() {
            let mut kernels: Vec<_> = assignment.get(&id).into_iter().flatten().copied().collect();
            kernels.sort_by_key(|k| k.0);
            let msg = NetMsg::Assign {
                epoch,
                status_every_us: status_every.as_micros() as u64,
                kernels,
                subscribers: subs.clone(),
                peers: peers.clone(),
            };
            let _ = net.send_with_retry(MASTER_NODE, id, msg, &retry);
            seen.last_status = Instant::now();
        }
        (assignment, subscribers)
    };
    let mut epoch: u64 = 1;
    let (mut assignment, mut subscribers) = assign(&mut master, &mut live, epoch);
    log(&format!(
        "p2g-master: epoch {epoch} assigned across {nodes} nodes"
    ));

    // --- supervise ------------------------------------------------------
    let mut failed_nodes: Vec<NodeId> = Vec::new();
    let mut redelivered = 0u64;
    let deadline_hit = loop {
        if protocol.deadline.is_some_and(|d| start.elapsed() >= d) {
            break true;
        }
        if let Some(f) = feed.as_mut() {
            f.pump(&link, &subscribers);
        }

        // Take in node reports: wait briefly for the first, then whatever
        // else is already there. Anything but a status from a live node
        // (a reconnect handshake, late traffic from a node already
        // declared dead) is dropped.
        let mut wait = Duration::from_millis(2).min(status_every);
        while let Some((src, msg)) = net.recv_timeout(MASTER_NODE, wait) {
            wait = Duration::ZERO;
            let (
                Some(s),
                NetMsg::Status {
                    epoch: e,
                    outstanding,
                    unacked,
                    applied,
                    failed,
                    ..
                },
            ) = (live.get_mut(&src), msg)
            else {
                continue;
            };
            s.last_status = Instant::now();
            s.runtime_failed |= failed;
            let idle = e == epoch && outstanding == 0 && unacked == 0 && !failed;
            s.quiet = if idle && applied == s.applied {
                s.quiet + 1
            } else {
                0
            };
            s.applied = applied;
        }

        // Failure detection: stale statuses, the transport says dead, or
        // the node's own runtime reporting failure.
        let dead = |(id, s): (&NodeId, &Seen)| {
            let dead = s.last_status.elapsed() > protocol.failure_timeout
                || !net.node_alive(*id)
                || s.runtime_failed;
            dead.then_some(*id)
        };
        for id in live.iter().filter_map(dead).collect::<Vec<_>>() {
            // 1. Sever the node (in-process this is also what stops it).
            live.remove(&id);
            failed_nodes.push(id);
            trace(TraceEvent::NodeDeath { node: id });
            net.disconnect(id);
            master.node_left(id);
            let survivors: Vec<NodeId> = live.keys().copied().collect();
            let n = survivors.len();
            log(&format!(
                "p2g-master: node {} failed; replanning over {n} survivors",
                id.0
            ));
            if survivors.is_empty() {
                return Err(RuntimeError::Net("all nodes failed".into()));
            }
            // 2. Re-plan over the survivors and reassign.
            epoch += 1;
            (assignment, subscribers) = assign(&mut master, &mut live, epoch);
            // 3. Have every survivor replay its written regions to the
            // current subscribers: data the dead node produced (or consumed
            // exclusively) reaches the new owners; write-once dedup absorbs
            // everything already present.
            for &sid in &survivors {
                let _ = net.send_with_retry(MASTER_NODE, sid, NetMsg::Replay { epoch }, &retry);
            }
            trace(TraceEvent::Replan { survivors });
            // 4. Streaming: re-inject every frame not yet known complete —
            // the dead node may have held the only replica of its parts.
            for (n, parts) in feed.iter().flat_map(|f| &f.pending) {
                redelivered += link.forward_frame(&subscribers, *n, parts);
            }
            for s in live.values_mut() {
                s.quiet = 0;
            }
        }

        // Stable global quiescence? In streaming mode quiescence between
        // frames is normal, so the feed must be done too.
        let feed_done = |f: &StreamFeed| f.exhausted && (f.completed)() >= f.submitted;
        if live.values().all(|s| s.quiet >= QUIET_ROUNDS) && feed.as_ref().is_none_or(feed_done) {
            break false;
        }
    };

    // --- finish + collect -----------------------------------------------
    for &id in live.keys() {
        let _ = net.send_with_retry(MASTER_NODE, id, NetMsg::Finish, &retry);
    }
    let mut merged: Vec<(FieldId, Age, Region, Buffer)> = Vec::new();
    let mut waiting: HashSet<NodeId> = live.keys().copied().collect();
    let collect_deadline =
        Instant::now() + protocol.failure_timeout.max(Duration::from_secs(5)) * 4;
    while !waiting.is_empty() {
        if Instant::now() >= collect_deadline {
            let (got, of) = (live.len() - waiting.len(), live.len());
            let what = format!("result collection timeout: {got}/{of} nodes reported");
            return Err(RuntimeError::Net(what));
        }
        if let Some((src, NetMsg::Results { entries })) =
            net.recv_timeout(MASTER_NODE, Duration::from_millis(100))
        {
            if waiting.remove(&src) {
                merged.extend(entries);
            }
        }
    }
    let (digest, entries) = results_digest(&merged);
    let (took, failed) = (start.elapsed(), failed_nodes.len());
    log(&format!(
        "p2g-master: done in {took:?}, epoch {epoch}, {failed} failed, digest {digest:08x} over {entries} entries"
    ));
    Ok(MasterOutcome {
        digest,
        entries,
        failed_nodes,
        epoch,
        assignment,
        frames_streamed: feed.map_or(0, |f| f.submitted),
        redelivered,
        deadline_hit,
    })
}

/// Run the node side over `net`: join, launch the runtime with nothing
/// assigned, then deliver store forwards, report status and honor
/// assign/replay until the master says finish, and report results. Every
/// assignment, the first included, takes the runtime's reassign path, so a
/// store a faster peer forwards before this node's first `Assign` is
/// simply resident data by the time the kernels arrive. A node the
/// transport reports severed (`!net.node_alive(me)`) fail-stops: it halts
/// its runtime and returns what it has.
///
/// `tracer` receives `Send`/`Recv` in buffer `cfg.id`. `log` receives the
/// progress lines `p2gc cluster node` prints on stderr.
pub fn run_node(
    program: Program,
    mut limits: RunLimits,
    net: Arc<dyn Transport>,
    cfg: &NodeConfig,
    tracer: Option<Arc<Tracer>>,
    log: &dyn Fn(&str),
) -> Result<NodeOutcome, RuntimeError> {
    let me = cfg.id;
    let tag = format!("[p2g-node {}]", me.0);
    let protocol = cfg.protocol;
    let retry = protocol.retry;
    let backstop = protocol.deadline.map(|d| d + protocol.failure_timeout);
    let start = Instant::now();

    // Join. Over TCP the queued Hello forces the connection; the
    // transport's own handshake Hello carries the same information, so the
    // master sees the join even if this frame races a reconnect. Whatever
    // arrives before the runtime is up waits in the inbox.
    let (workers, port) = (cfg.workers.max(1) as u32, cfg.port);
    let hello = NetMsg::Hello {
        node: me,
        workers,
        port,
    };
    if !net.send_with_retry(me, MASTER_NODE, hello, &retry) {
        return Err(RuntimeError::Net("cannot reach master".into()));
    }

    // The runtime is held open for remote stores (the master owns the wall
    // deadline) and its store tap forwards to the current subscribers.
    limits.hold_open = true;
    limits.wall_deadline = None;
    let subscribers = Arc::new(RwLock::new(Subscribers::new()));
    let link = Link {
        net: net.clone(),
        retry,
        tracer: tracer.clone(),
        src: me,
    };
    let (tap_link, tap_subs) = (link.clone(), subscribers.clone());
    let node = NodeBuilder::new(program)
        .workers(cfg.workers)
        .assigned(HashSet::new())
        .store_tap(Arc::new(move |field, age, region, buffer| {
            let dsts = tap_subs.read().get(&field).cloned().unwrap_or_default();
            tap_link.forward(&dsts, field, age, region, buffer);
        }))
        .launch(limits)?;

    let mut epoch = 0u64;
    let mut status_every: Option<Duration> = None;
    let (mut seq, mut last_status) = (0u64, start);
    let mut applied = 0u64;
    let mut replayed = 0u64;
    // Report to the master if a status is due: once per turn of the loop
    // below and per region of a replay, so a long replay cannot starve the
    // master's failure detector. `busy` says the loop itself has work in
    // hand, which the runtime's counter cannot know.
    let mut report_status = |every: Option<Duration>, epoch: u64, applied: u64, busy: bool| {
        if every.is_none_or(|every| seq > 0 && last_status.elapsed() < every) {
            return;
        }
        seq += 1;
        last_status = Instant::now();
        let status = NetMsg::Status {
            epoch,
            seq,
            outstanding: node.outstanding() + i64::from(busy),
            unacked: net.in_flight(),
            applied,
            failed: node.has_failed(),
        };
        net.try_send(me, MASTER_NODE, status);
    };

    let exit: Result<(), &str> = loop {
        if backstop.is_some_and(|d| start.elapsed() >= d) {
            break Err("run deadline exceeded");
        }
        if !net.node_alive(MASTER_NODE) {
            break Err("lost master"); // orphaned: stop rather than spin forever
        }
        if !net.node_alive(me) {
            break Ok(()); // severed: fail-stop
        }
        let wait = Duration::from_millis(2).min(status_every.unwrap_or(Duration::MAX));
        let msg = net.recv_timeout(me, wait).map(|(_, msg)| msg);
        let busy = msg.is_some();
        match msg {
            Some(NetMsg::StoreForward {
                field,
                age,
                region,
                buffer,
            }) => {
                if let Some(t) = &tracer {
                    let (node, age) = (me, age.0);
                    t.record(me.0, TraceEvent::Recv { node, field, age });
                }
                node.inject_remote_store(field, age, region, buffer);
                net.delivered(me);
                applied += 1;
            }
            Some(NetMsg::Assign {
                epoch: e,
                status_every_us,
                kernels,
                subscribers: subs,
                peers,
            }) if e > epoch => {
                epoch = e;
                status_every = Some(Duration::from_micros(status_every_us));
                for (id, addr) in peers.iter().filter(|(id, _)| *id != me) {
                    match addr.parse::<SocketAddr>() {
                        Ok(a) => net.set_peer(*id, a),
                        Err(e) => log(&format!("{tag} bad peer address {addr:?}: {e}")),
                    }
                }
                // Re-target store forwarding before the new kernels run.
                *subscribers.write() = subs.into_iter().collect();
                log(&format!(
                    "{tag} assigned epoch {epoch}: {} kernels",
                    kernels.len()
                ));
                node.reassign(kernels.into_iter().collect());
            }
            Some(NetMsg::Replay { epoch: e }) => {
                let subs_now = subscribers.read().clone();
                let mut n = 0;
                for (field, age, region, buffer) in node.snapshot_written() {
                    if let Some(dsts) = subs_now.get(&field) {
                        n += link.forward(dsts, field, age, &region, &buffer);
                    }
                    report_status(status_every, epoch, applied, true);
                }
                replayed += n;
                log(&format!("{tag} replayed {n} regions for epoch {e}"));
            }
            Some(NetMsg::Finish) => {
                let entries = node.snapshot_written();
                log(&format!(
                    "{tag} finishing: {} result entries",
                    entries.len()
                ));
                let _ = net.send_with_retry(me, MASTER_NODE, NetMsg::Results { entries }, &retry);
                break Ok(());
            }
            _ => {}
        }
        report_status(status_every, epoch, applied, busy);
    };

    node.request_stop();
    let (report, fields, error) = node.finish();
    match exit {
        Ok(()) => Ok(NodeOutcome {
            report,
            fields,
            replayed,
            error,
        }),
        Err(what) => Err(RuntimeError::Net(what.into())),
    }
}
