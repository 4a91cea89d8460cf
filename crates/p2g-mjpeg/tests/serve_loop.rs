//! The remote serving path in one process: `run_serve_node` on a thread,
//! `ServeClient`s on others, loopback TCP between them. Where
//! `p2g-lang/tests/serve_proc.rs` shows that the processes work, this
//! suite pins down how the path *waits*: every hand-over is an event, so
//! a frame's round trip costs its compute plus thread hops, an idle node
//! sleeps, and one tenant's drain is nobody else's stall.
//!
//! The timing bounds are for `--release` (CI runs the suite five times
//! that way); a debug build checks the same behaviour against bounds
//! relaxed by [`SLACK`].

use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use p2g_dist::serve::{FrameDecoder, PipelineFactory, TenantPipeline};
use p2g_dist::{
    run_serve_node, PipelineRegistry, RemoteSession, RetryConfig, ServeClient, ServeConfig,
    ServeOutcome,
};
use p2g_field::{Buffer, Extents, FieldDef, Region, ScalarType};
use p2g_graph::spec::{AgeExpr, FetchDecl, IndexSel, KernelId, KernelSpec, ProgramSpec};
use p2g_graph::NodeId;
use p2g_mjpeg::{
    encode_standalone, mjpeg_pipeline_factory, pack_i420, FrameSource, SyntheticVideo,
};
use p2g_runtime::{Program, Qos, RuntimeError, SessionConfig, SessionSink};

const LONG: Duration = Duration::from_secs(30);

/// Debug builds run the MJPEG kernels an order of magnitude slower (a
/// 64×64 frame takes ~15 ms), so there the bounds only catch a hang.
const SLACK: u32 = if cfg!(debug_assertions) { 20 } else { 1 };

/// The tests time a two-vCPU host's thread hand-overs; run them one at a
/// time so they measure the serve path and not each other.
fn alone() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

type NodeThread = JoinHandle<Result<ServeOutcome, RuntimeError>>;

/// Start a serve node on a thread and wait until it listens. The node
/// reports its port on stderr only, so one is reserved and released for
/// it (as the ledger does); a lost race for the port is retried.
fn start_node(registry: PipelineRegistry, config: ServeConfig) -> (NodeThread, SocketAddr) {
    for _ in 0..5 {
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("reserve a port")
            .port();
        let (registry, config) = (
            registry.clone(),
            ServeConfig {
                port,
                ..config.clone()
            },
        );
        let node = std::thread::spawn(move || run_serve_node(registry, &config));
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let patience = Instant::now();
        while !node.is_finished() {
            if std::net::TcpStream::connect(addr).is_ok() {
                return (node, addr);
            }
            assert!(patience.elapsed() < LONG, "serve node never listened");
            std::thread::yield_now();
        }
    }
    panic!("serve node did not start in 5 attempts");
}

fn mjpeg_only() -> PipelineRegistry {
    let mut registry = PipelineRegistry::new();
    registry.insert("mjpeg".to_string(), mjpeg_pipeline_factory());
    registry
}

fn stop_node(client: &ServeClient, node: NodeThread) -> ServeOutcome {
    client.shutdown_server();
    node.join()
        .expect("serve node panicked")
        .expect("serve node failed")
}

fn open_mjpeg(client: &Arc<ServeClient>, fast_dct: bool, window: i64) -> RemoteSession {
    let params = [
        ("width", 64),
        ("height", 64),
        ("quality", 75),
        ("fast_dct", fast_dct as i64),
        ("window", window),
    ];
    client
        .open("mjpeg", &params, Qos::normal(), LONG)
        .expect("open mjpeg session")
}

/// A one-kernel tenant whose (ordered) kernel calls `before` and then
/// echoes the payload's first byte: what a test needs to hold a frame in
/// flight for as long as it likes. `window` comes from the open request.
fn held_pipeline(before: Arc<dyn Fn() + Send + Sync>) -> PipelineFactory {
    Arc::new(move |req| {
        let mut spec = ProgramSpec::new();
        let field = spec.add_field(FieldDef::with_extents(
            "in",
            ScalarType::I32,
            Extents::new([1]),
        ));
        spec.add_kernel(KernelSpec {
            id: KernelId(0),
            name: "emit".into(),
            index_vars: 0,
            has_age_var: true,
            fetches: vec![FetchDecl {
                field,
                age: AgeExpr::Rel(0),
                dims: vec![IndexSel::All],
            }],
            stores: vec![],
        });
        let mut program = Program::new(spec).map_err(|e| e.to_string())?;
        let sink = SessionSink::new();
        let (staged, before) = (sink.clone(), before.clone());
        program.body("emit", move |ctx| {
            before();
            let byte = ctx.input(0).as_i32().expect("i32 field")[0] as u8;
            staged.push(ctx.age().0, vec![byte]);
            Ok(())
        });
        program.set_ordered("emit");
        let decode: FrameDecoder = Arc::new(move |_, payload| {
            let byte = *payload.first().ok_or("empty payload")?;
            Ok(vec![(
                field,
                Region::all(1),
                Buffer::from_vec(vec![byte as i32]),
            )])
        });
        Ok(TenantPipeline {
            program,
            config: SessionConfig::new("emit")
                .max_in_flight(req.param_or("window", 1) as usize)
                .sink(sink),
            decode,
        })
    })
}

/// Submit `frames` of `video` through `session` with the window as the
/// only brake, and return the concatenated outputs.
fn stream_all(session: &RemoteSession, video: &SyntheticVideo, frames: u64) -> Vec<u8> {
    let mut stream = Vec::new();
    let mut next_age = 0;
    let mut take = |out: p2g_dist::RemoteOutput, next_age: &mut u64| {
        assert_eq!(out.age, *next_age, "outputs arrive in age order");
        *next_age += 1;
        stream.extend(out.payload.expect("no drops without a deadline"));
    };
    for n in 0..frames {
        let frame = video.frame(n).expect("synthetic frame");
        session.submit(pack_i420(&frame), LONG).expect("submit");
        while let Some(out) = session.recv(Duration::ZERO).expect("recv") {
            take(out, &mut next_age);
        }
    }
    while next_age < frames {
        let out = session.recv(LONG).expect("recv");
        take(out.expect("output before the timeout"), &mut next_age);
    }
    stream
}

/// (a) Two clients stream at once; each gets exactly its own encoding.
#[test]
fn two_concurrent_clients_each_get_their_bit_exact_stream() {
    let _alone = alone();
    const FRAMES: u64 = 60;
    let (node, addr) = start_node(
        mjpeg_only(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let clients: Vec<Arc<ServeClient>> = (1..=2)
        .map(|id| ServeClient::connect(NodeId(id), addr, RetryConfig::default()).expect("connect"))
        .collect();
    std::thread::scope(|s| {
        for (i, client) in clients.iter().enumerate() {
            s.spawn(move || {
                let video = SyntheticVideo::new(64, 64, FRAMES, 40 + i as u64);
                let session = open_mjpeg(client, false, 8);
                let stream = stream_all(&session, &video, FRAMES);
                session.close();
                assert_eq!(
                    stream,
                    encode_standalone(&video, 75, FRAMES, false),
                    "client {i}'s stream must equal its standalone encoding"
                );
            });
        }
    });
    let outcome = stop_node(&clients[0], node);
    assert_eq!(outcome.sessions_opened, 2);
    assert_eq!(outcome.sessions_rejected, 0);
    assert_eq!(outcome.frames_completed, 2 * FRAMES);
    for client in &clients {
        client.close();
    }
}

/// (b) One frame at a time, the next submitted when the last is back:
/// every wait on the path is in series, so a polling clock anywhere shows
/// in the total. 100 round trips behind a 5 ms client pump could not
/// finish in under 500 ms; woken on arrival they take a frame's compute
/// plus thread hops each. The best of three passes counts: no host
/// episode makes a polling path fast, but one can make this one slow.
#[test]
fn ping_pong_round_trips_cost_no_polling_interval() {
    let _alone = alone();
    const FRAMES: u64 = 100;
    let bound = Duration::from_millis(250) * SLACK;
    let (node, addr) = start_node(
        mjpeg_only(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let client = ServeClient::connect(NodeId(1), addr, RetryConfig::default()).expect("connect");
    let session = open_mjpeg(&client, true, 8);
    let video = SyntheticVideo::new(64, 64, FRAMES, 3);
    let payloads: Vec<Vec<u8>> = (0..FRAMES)
        .map(|n| pack_i420(&video.frame(n).expect("synthetic frame")))
        .collect();
    let reference = encode_standalone(&video, 75, FRAMES, true);
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let mut stream = Vec::new();
        let began = Instant::now();
        for payload in &payloads {
            session.submit(payload.clone(), LONG).expect("submit");
            let out = session
                .recv(LONG)
                .expect("recv")
                .expect("output before the timeout");
            stream.extend(out.payload.expect("no drops without a deadline"));
        }
        let took = began.elapsed();
        eprintln!("ping-pong: {FRAMES} round trips in {took:?}");
        assert_eq!(stream, reference);
        best = best.min(took);
        if best < bound {
            break;
        }
    }
    assert!(best < bound, "{FRAMES} round trips took {best:?} at best");
    session.close();
    stop_node(&client, node);
    client.close();
}

/// (c) With a session open and nothing to do, the serve loop's only
/// wake-ups are the sweep's (five a second at the default interval).
#[test]
fn an_idle_node_is_asleep() {
    let _alone = alone();
    let (node, addr) = start_node(
        mjpeg_only(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let client = ServeClient::connect(NodeId(1), addr, RetryConfig::default()).expect("connect");
    let _session = open_mjpeg(&client, false, 8);
    std::thread::sleep(Duration::from_secs(1));
    let outcome = stop_node(&client, node);
    client.close();
    eprintln!(
        "idle: {} event wake-ups, {} timer wake-ups",
        outcome.wakeups, outcome.timer_wakeups
    );
    // Two Hellos (the connection's and the client's), the open, the
    // shutdown: at most four turns began with a message.
    assert!(
        outcome.wakeups <= 5,
        "woken by events {} times",
        outcome.wakeups
    );
    assert!(
        outcome.timer_wakeups <= 10,
        "woken by the clock {} times in about a second",
        outcome.timer_wakeups
    );
}

/// (d) Two callers wait on one client at once — one in `recv`, one in
/// `submit` with the window full. Completing the frame in flight releases
/// both, each by the message it waits for, long before any timeout.
#[test]
fn a_credit_releases_a_submit_blocked_beside_a_recv() {
    let _alone = alone();
    // The gate the frame in flight waits at, and the time it opened.
    let gate = Arc::new((Mutex::new(None::<Instant>), Condvar::new()));
    let mut registry = PipelineRegistry::new();
    let at_gate = gate.clone();
    registry.insert(
        "held".to_string(),
        held_pipeline(Arc::new(move || {
            let (opened, cv) = &*at_gate;
            let mut g = opened.lock().unwrap();
            while g.is_none() {
                g = cv.wait(g).unwrap();
            }
        })),
    );
    let (node, addr) = start_node(
        registry,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let client = ServeClient::connect(NodeId(1), addr, RetryConfig::default()).expect("connect");
    let session = client
        .open("held", &[("window", 1)], Qos::normal(), LONG)
        .expect("open");
    // Frame 0 takes the whole window and stops at the gate.
    assert_eq!(session.submit(vec![7], LONG).expect("submit"), 0);
    std::thread::scope(|s| {
        let (started_tx, started) = std::sync::mpsc::channel();
        let session = &session;
        let second = s.spawn(move || {
            started_tx.send(()).expect("main is listening");
            let age = session.submit(vec![8], LONG).expect("second submit");
            (age, Instant::now())
        });
        started.recv().expect("second submitter started");
        // Not a synchronisation (there is none to be had with a thread
        // about to block): it makes "already waiting when the credit
        // comes" the case tested. The assertions hold either way.
        std::thread::sleep(Duration::from_millis(50));
        let opened_at = Instant::now();
        *gate.0.lock().unwrap() = Some(opened_at);
        gate.1.notify_all();
        let first = session.recv(LONG).expect("recv").expect("frame 0");
        let received_at = Instant::now();
        assert_eq!((first.age, first.payload), (0, Some(vec![7])));
        let (age, submitted_at) = second.join().expect("second submitter");
        assert_eq!(age, 1);
        let bound = Duration::from_millis(100) * SLACK;
        assert!(
            received_at - opened_at < bound,
            "recv waited {:?}",
            received_at - opened_at
        );
        assert!(
            submitted_at - opened_at < bound,
            "the blocked submit waited {:?} for its credit",
            submitted_at - opened_at
        );
    });
    let second = session.recv(LONG).expect("recv").expect("frame 1");
    assert_eq!((second.age, second.payload), (1, Some(vec![8])));
    session.close();
    stop_node(&client, node);
    client.close();
}

/// A zero-timeout `recv` is a real poll: outputs reach the slot without
/// any caller driving the socket, and so do the stats pushes.
#[test]
fn zero_timeout_recv_sees_what_has_arrived() {
    let _alone = alone();
    let config = ServeConfig {
        workers: 2,
        stats_interval: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let (node, addr) = start_node(mjpeg_only(), config);
    let client = ServeClient::connect(NodeId(1), addr, RetryConfig::default()).expect("connect");
    let session = open_mjpeg(&client, false, 8);
    let video = SyntheticVideo::new(64, 64, 1, 9);
    // One frame, seven credits to spare: nothing will ever block.
    session
        .submit(pack_i420(&video.frame(0).expect("synthetic frame")), LONG)
        .expect("submit");
    // Nothing here but looks at the slot: if the output gets there, the
    // demultiplexer put it there. (Polling the stats first would have
    // hidden the defect this guards against: `stats()` used to pump the
    // socket, `recv(ZERO)` never did.)
    let began = Instant::now();
    let out = loop {
        if let Some(out) = session.recv(Duration::ZERO).expect("recv") {
            break out;
        }
        assert!(
            began.elapsed() < LONG,
            "recv(ZERO) never returned the completed frame"
        );
        std::thread::sleep(Duration::from_millis(2));
    };
    while session.stats().is_none_or(|s| s.completed < 1) {
        assert!(
            began.elapsed() < LONG,
            "the node never reported the frame complete"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // The pushed stats are the server's gauges for this session.
    let stats = session.stats().expect("stats arrived");
    assert_eq!((stats.submitted, stats.dropped), (1, 0));
    assert_eq!(out.age, 0);
    assert_eq!(out.payload, Some(encode_standalone(&video, 75, 1, false)));
    session.close();
    stop_node(&client, node);
    client.close();
}

/// `Duration::MAX` is a wait with no deadline on every client call that
/// waits for the slot (open, submit, recv), not an overflowed clock.
#[test]
fn duration_max_waits_have_no_deadline() {
    let _alone = alone();
    let (node, addr) = start_node(mjpeg_only(), ServeConfig::default());
    let client = ServeClient::connect(NodeId(1), addr, RetryConfig::default()).expect("connect");
    let (done, result) = std::sync::mpsc::channel();
    let worker = client.clone();
    std::thread::spawn(move || {
        let video = SyntheticVideo::new(64, 64, 1, 5);
        let params = [("width", 64), ("height", 64), ("quality", 75)];
        let session = worker
            .open("mjpeg", &params, Qos::normal(), Duration::MAX)
            .expect("open");
        let frame = pack_i420(&video.frame(0).expect("synthetic frame"));
        session.submit(frame, Duration::MAX).expect("submit");
        let out = session.recv(Duration::MAX).expect("recv");
        session.close();
        let _ = done.send(out.map(|o| (o.age, o.payload)));
    });
    let out = result.recv_timeout(LONG).expect("the waits returned");
    let video = SyntheticVideo::new(64, 64, 1, 5);
    assert_eq!(
        out,
        Some((0, Some(encode_standalone(&video, 75, 1, false))))
    );
    stop_node(&client, node);
    client.close();
}

/// A dead client's session drains in the background: while its four slow
/// frames finish, another tenant's round trips stay as fast as ever, and
/// the orphan is still counted and still completes what it had admitted.
#[test]
fn collecting_an_orphan_stalls_no_other_tenant() {
    let _alone = alone();
    const SLOW_FRAME: Duration = Duration::from_millis(100);
    let mut registry = mjpeg_only();
    registry.insert(
        "slow".to_string(),
        held_pipeline(Arc::new(|| std::thread::sleep(SLOW_FRAME))),
    );
    // A short probe interval and retry budget, so the dead client is
    // found while most of its frames are still in flight.
    let retry = RetryConfig::attempts(3);
    let config = ServeConfig {
        workers: 4,
        retry,
        stats_interval: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let (node, addr) = start_node(registry, config);
    let survivor = ServeClient::connect(NodeId(1), addr, retry).expect("connect");
    let stream = open_mjpeg(&survivor, true, 8);
    let victim = ServeClient::connect(NodeId(2), addr, retry).expect("connect");
    let slow = victim
        .open("slow", &[("window", 4)], Qos::normal(), LONG)
        .expect("open slow");
    for n in 0..4 {
        slow.submit(vec![n], LONG).expect("submit slow");
    }
    // `close` lets the four submits leave, then the endpoint is gone.
    victim.close();

    // Round trips for as long as the orphan can take to be found (the
    // probe, the reconnects) and to drain (4 × SLOW_FRAME, in order).
    let video = SyntheticVideo::new(64, 64, 1, 5);
    let payload = pack_i420(&video.frame(0).expect("synthetic frame"));
    let began = Instant::now();
    let (mut trips, mut worst) = (0u64, Duration::ZERO);
    while began.elapsed() < 8 * SLOW_FRAME {
        let t0 = Instant::now();
        stream.submit(payload.clone(), LONG).expect("submit");
        stream.recv(LONG).expect("recv").expect("output");
        worst = worst.max(t0.elapsed());
        trips += 1;
    }
    eprintln!("orphan drain: {trips} survivor round trips, worst {worst:?}");
    assert!(
        worst < Duration::from_millis(50) * SLACK,
        "a survivor frame took {worst:?} while the orphan drained"
    );
    stream.close();
    let outcome = stop_node(&survivor, node);
    survivor.close();
    assert_eq!(outcome.orphans_collected, 1);
    assert_eq!(
        outcome.frames_completed,
        trips + 4,
        "the orphan's admitted frames drain; they are not cut off"
    );
}
