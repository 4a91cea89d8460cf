//! Remote session serving, end to end across real OS processes: a
//! `p2gc serve-node` hosting the `"mjpeg"` pipeline over TCP, `p2gc
//! submit` clients streaming synthetic i420 frames into it, and a raw
//! wire client abusing the protocol.
//!
//! The correctness bar is bit-exactness: the MJPEG stream a remote
//! client receives must equal `encode_standalone` over the same
//! synthetic source, for one tenant and for several concurrent tenants.
//! The robustness bar is that a `kill -9`'d client leaves no session
//! behind and a malformed request of any kind draws a `SessionRejected`,
//! never a server crash.

#![cfg(unix)]

use std::fs::File;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use p2g_dist::{NetMsg, RetryConfig, TcpNet, Transport, MASTER_NODE};
use p2g_graph::NodeId;
use p2g_mjpeg::{encode_standalone, SyntheticVideo};

const P2GC: &str = env!("CARGO_BIN_EXE_p2gc");

/// Hard cap on any single wait; generous next to the in-run deadlines so
/// a wedged server fails the test instead of hanging CI.
const HARD_TIMEOUT: Duration = Duration::from_secs(60);

static UNIQ: AtomicU64 = AtomicU64::new(0);

/// A spawned p2gc process with captured stdout/stderr, killed on drop so
/// a failing assertion can't leak orphan processes.
struct Proc {
    child: Child,
    out: PathBuf,
    err: PathBuf,
}

impl Proc {
    fn spawn(tag: &str, args: &[&str]) -> Proc {
        let dir = std::env::temp_dir();
        let uniq = format!(
            "p2g-serve-{}-{}-{}",
            std::process::id(),
            tag,
            UNIQ.fetch_add(1, Ordering::Relaxed)
        );
        let out = dir.join(format!("{uniq}.out"));
        let err = dir.join(format!("{uniq}.err"));
        let child = Command::new(P2GC)
            .args(args)
            .stdout(File::create(&out).expect("create stdout file"))
            .stderr(File::create(&err).expect("create stderr file"))
            .spawn()
            .expect("spawn p2gc");
        Proc { child, out, err }
    }

    fn stdout(&self) -> String {
        std::fs::read_to_string(&self.out).unwrap_or_default()
    }

    fn stderr(&self) -> String {
        std::fs::read_to_string(&self.err).unwrap_or_default()
    }

    /// Poll stderr until `needle` shows up; panic on the hard timeout.
    fn wait_for_stderr(&self, needle: &str) -> String {
        let start = Instant::now();
        loop {
            let text = self.stderr();
            if text.contains(needle) {
                return text;
            }
            assert!(
                start.elapsed() < HARD_TIMEOUT,
                "timed out waiting for {needle:?}; stderr so far:\n{text}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Poll until exit; panic (and kill) on the hard timeout.
    fn wait_exit(&mut self) -> std::process::ExitStatus {
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            assert!(
                start.elapsed() < HARD_TIMEOUT,
                "process did not exit within {HARD_TIMEOUT:?}; stderr:\n{}",
                self.stderr()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// SIGKILL — no cleanup, no flush, the real crash case.
    fn kill_dash_nine(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.out);
        let _ = std::fs::remove_file(&self.err);
    }
}

fn spawn_serve_node(tag: &str, extra: &[&str]) -> (Proc, u16) {
    let mut args = vec![
        "serve-node",
        "--port",
        "0",
        "--workers",
        "2",
        "--deadline-ms",
        "55000",
    ];
    args.extend_from_slice(extra);
    let node = Proc::spawn(tag, &args);
    let text = node.wait_for_stderr("p2g-serve: listening on port ");
    let after = text
        .split("p2g-serve: listening on port ")
        .nth(1)
        .expect("port line");
    let port = after
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("parse serve port");
    (node, port)
}

/// A temp path for a client's `--out` stream, removed on drop.
struct OutFile(PathBuf);

impl OutFile {
    fn new(tag: &str) -> OutFile {
        OutFile(std::env::temp_dir().join(format!(
            "p2g-serve-{}-{}-{}.mjpeg",
            std::process::id(),
            tag,
            UNIQ.fetch_add(1, Ordering::Relaxed)
        )))
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }

    fn bytes(&self) -> Vec<u8> {
        std::fs::read(&self.0).expect("read client output file")
    }
}

impl Drop for OutFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

struct SubmitSpec<'a> {
    tag: &'a str,
    client_id: u32,
    frames: u64,
    seed: u64,
    out: &'a OutFile,
    extra: &'a [&'a str],
}

fn spawn_submit(port: u16, spec: &SubmitSpec) -> Proc {
    let server = format!("127.0.0.1:{port}");
    let client_id = spec.client_id.to_string();
    let frames = spec.frames.to_string();
    let seed = spec.seed.to_string();
    let mut args = vec![
        "submit",
        "--server",
        &server,
        "--client-id",
        &client_id,
        "--frames",
        &frames,
        "--seed",
        &seed,
        "--out",
        spec.out.path(),
    ];
    args.extend_from_slice(spec.extra);
    Proc::spawn(spec.tag, &args)
}

/// What `encode_standalone` produces for the same synthetic source the
/// `p2gc submit` client streams (64×64, quality 75, naive DCT).
fn oracle(frames: u64, seed: u64) -> Vec<u8> {
    encode_standalone(&SyntheticVideo::new(64, 64, frames, seed), 75, frames, false)
}

/// One remote MJPEG session over real sockets and processes produces the
/// byte-identical stream of the standalone encoder.
#[test]
fn remote_session_is_bit_identical_to_standalone() {
    let (mut node, port) = spawn_serve_node("solo", &[]);
    let out = OutFile::new("solo");
    let mut client = spawn_submit(
        port,
        &SubmitSpec {
            tag: "solo-c",
            client_id: 1,
            frames: 6,
            seed: 11,
            out: &out,
            extra: &["--shutdown-server"],
        },
    );
    assert!(
        client.wait_exit().success(),
        "client failed:\n{}",
        client.stderr()
    );
    assert!(node.wait_exit().success(), "server failed:\n{}", node.stderr());
    assert_eq!(
        out.bytes(),
        oracle(6, 11),
        "remote stream must be bit-identical to encode_standalone"
    );
    // The client reports the latency it saw: `p2gc-submit: client
    // latency p50 X ms p95 Y ms over N frames`. Present and well-formed
    // is the bar here; the values belong to the benchmark.
    let log = client.stderr();
    let line = log
        .lines()
        .find_map(|l| l.strip_prefix("p2gc-submit: client latency "))
        .unwrap_or_else(|| panic!("no client latency line in:\n{log}"));
    let words: Vec<&str> = line.split_whitespace().collect();
    let [ "p50", p50, "ms", "p95", p95, "ms", "over", n, "frames" ] = words[..] else {
        panic!("malformed client latency line: {line:?}");
    };
    let (p50, p95): (f64, f64) = (p50.parse().expect("p50"), p95.parse().expect("p95"));
    assert!(0.0 < p50 && p50 <= p95, "implausible latencies in {line:?}");
    assert_eq!(n.parse::<u64>().expect("frame count"), 6);
    let summary = node.stdout();
    assert!(
        summary.contains("serve-node: 1 sessions, 0 rejected, 6 frames (0 dropped), 0 orphans"),
        "unexpected serve outcome: {summary:?}"
    );
}

/// Four concurrent remote tenants (distinct processes, seeds and QoS
/// settings) each get their own bit-exact stream back — sessions on the
/// shared pool do not bleed into each other.
#[test]
fn four_concurrent_remote_sessions_are_each_bit_exact() {
    let (mut node, port) = spawn_serve_node("quad", &[]);
    let seeds = [21u64, 22, 23, 24];
    let frames = 5u64;
    let outs: Vec<OutFile> = (0..4).map(|i| OutFile::new(&format!("quad{i}"))).collect();
    let qos: [&[&str]; 4] = [
        &["--priority", "0"],
        &["--priority", "1", "--weight", "3"],
        &["--priority", "1"],
        &["--priority", "2"],
    ];
    let mut clients: Vec<Proc> = (0..4)
        .map(|i| {
            spawn_submit(
                port,
                &SubmitSpec {
                    tag: &format!("quad-c{i}"),
                    client_id: i as u32 + 1,
                    frames,
                    seed: seeds[i],
                    out: &outs[i],
                    extra: qos[i],
                },
            )
        })
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        assert!(
            c.wait_exit().success(),
            "client {i} failed:\n{}",
            c.stderr()
        );
    }
    for (i, out) in outs.iter().enumerate() {
        assert_eq!(
            out.bytes(),
            oracle(frames, seeds[i]),
            "tenant {i} stream must match its standalone oracle"
        );
    }
    // A final tiny session brings the server down cleanly.
    let last = OutFile::new("quad-last");
    let mut closer = spawn_submit(
        port,
        &SubmitSpec {
            tag: "quad-close",
            client_id: 9,
            frames: 1,
            seed: 1,
            out: &last,
            extra: &["--shutdown-server"],
        },
    );
    assert!(closer.wait_exit().success(), "closer failed:\n{}", closer.stderr());
    assert!(node.wait_exit().success(), "server failed:\n{}", node.stderr());
    assert!(
        node.stdout()
            .contains("serve-node: 5 sessions, 0 rejected, 21 frames (0 dropped), 0 orphans"),
        "unexpected serve outcome: {:?}",
        node.stdout()
    );
}

/// `kill -9` a client mid-stream: the node must notice the dead tenant,
/// collect its session (freeing the slab instead of leaking resident
/// ages), and keep serving new sessions.
#[test]
fn killed_client_session_is_collected_and_serving_continues() {
    let (mut node, port) = spawn_serve_node(
        "chaos",
        &[
            "--stats-interval-ms",
            "50",
            "--orphan-timeout-ms",
            "400",
            "--net-retries",
            "3",
            "--net-backoff-us",
            "1000",
        ],
    );
    let victim_out = OutFile::new("chaos-victim");
    let mut victim = spawn_submit(
        port,
        &SubmitSpec {
            tag: "chaos-victim",
            client_id: 1,
            frames: 200,
            seed: 5,
            out: &victim_out,
            extra: &["--cadence-ms", "150"],
        },
    );
    // Kill once frames are demonstrably in the pipeline.
    victim.wait_for_stderr("p2gc-submit: frame 3 submitted");
    victim.kill_dash_nine();
    node.wait_for_stderr("p2g-serve: collected session 1/1");

    // The node keeps serving: a fresh tenant still gets a bit-exact run.
    let out = OutFile::new("chaos-after");
    let mut after = spawn_submit(
        port,
        &SubmitSpec {
            tag: "chaos-after",
            client_id: 2,
            frames: 4,
            seed: 31,
            out: &out,
            extra: &["--shutdown-server"],
        },
    );
    assert!(after.wait_exit().success(), "post-kill client failed:\n{}", after.stderr());
    assert_eq!(out.bytes(), oracle(4, 31));
    assert!(node.wait_exit().success(), "server failed:\n{}", node.stderr());
    let summary = node.stdout();
    assert!(
        summary.contains("2 sessions") && summary.contains("1 orphans"),
        "the orphaned session must be accounted: {summary:?}"
    );
}

/// A raw wire client for protocol-abuse tests: speaks `NetMsg` directly
/// so it can send what `ServeClient` never would.
struct RawClient {
    net: std::sync::Arc<TcpNet>,
    me: NodeId,
    retry: RetryConfig,
}

impl RawClient {
    fn connect(port: u16) -> RawClient {
        let me = NodeId(9);
        let retry = RetryConfig::default();
        let net = TcpNet::bind(me, retry, 0).expect("bind raw client");
        net.set_peer(MASTER_NODE, SocketAddr::from(([127, 0, 0, 1], port)));
        assert!(
            net.send_with_retry(
                me,
                MASTER_NODE,
                NetMsg::Hello {
                    node: me,
                    workers: 0,
                    port: net.port(),
                },
                &retry,
            ),
            "raw client cannot reach the serve node"
        );
        RawClient { net, me, retry }
    }

    fn send(&self, msg: NetMsg) {
        assert!(
            self.net.send_with_retry(self.me, MASTER_NODE, msg, &self.retry),
            "send to serve node failed"
        );
    }

    fn open(&self, session: u64, params: &[(&str, i64)], priority: u8) {
        self.send(NetMsg::OpenSession {
            session,
            pipeline: "mjpeg".to_string(),
            params: params.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            priority,
            weight: 1,
        });
    }

    /// Block until the server acknowledges `session`.
    fn expect_opened(&self, session: u64) {
        let deadline = Instant::now() + HARD_TIMEOUT;
        loop {
            assert!(Instant::now() < deadline, "no SessionOpened for {session}");
            match self.net.recv_timeout(self.me, Duration::from_millis(50)) {
                Some((_, NetMsg::SessionOpened { session: s, .. })) if s == session => return,
                Some((_, NetMsg::SessionRejected { session: s, reason })) if s == session => {
                    panic!("session {session} unexpectedly rejected: {reason}")
                }
                _ => {}
            }
        }
    }

    /// Block until the server rejects `session` with a reason containing
    /// `needle`.
    fn expect_rejected(&self, session: u64, needle: &str) {
        let deadline = Instant::now() + HARD_TIMEOUT;
        loop {
            assert!(
                Instant::now() < deadline,
                "no SessionRejected({needle:?}) for {session}"
            );
            match self.net.recv_timeout(self.me, Duration::from_millis(50)) {
                Some((_, NetMsg::SessionRejected { session: s, reason })) if s == session => {
                    assert!(
                        reason.contains(needle),
                        "session {session} rejected for the wrong reason: \
                         {reason:?} (want {needle:?})"
                    );
                    return;
                }
                _ => {}
            }
        }
    }
}

/// Every malformed or malicious request draws a structured
/// `SessionRejected` and the server keeps running — no panic on any
/// remote-influenceable path.
#[test]
fn malformed_requests_are_rejected_never_crash_the_node() {
    let (mut node, port) = spawn_serve_node("abuse", &[]);
    let raw = RawClient::connect(port);
    // 256×256 frames: big enough that the encode pipeline is still busy
    // when the next abuse message lands (makes the credit-overflow case
    // deterministic).
    let dims: &[(&str, i64)] = &[("width", 256), ("height", 256), ("window", 1)];
    let i420 = vec![128u8; 256 * 256 * 3 / 2];

    // Unknown pipeline name.
    raw.send(NetMsg::OpenSession {
        session: 1,
        pipeline: "nope".to_string(),
        params: vec![],
        priority: 1,
        weight: 1,
    });
    raw.expect_rejected(1, "unknown pipeline");

    // Priority outside the defined QoS classes.
    raw.open(2, &[], 9);
    raw.expect_rejected(2, "bad priority class");

    // Pipeline-parameter validation: width not a multiple of 16.
    raw.open(3, &[("width", 13)], 1);
    raw.expect_rejected(3, "multiple of 16");

    // Pipeline-parameter validation: quality out of range.
    raw.open(4, &[("quality", 500)], 1);
    raw.expect_rejected(4, "quality must be");

    // Submit into a session that was never opened.
    raw.send(NetMsg::SubmitFrame {
        session: 999,
        age: 0,
        payload: i420.clone(),
    });
    raw.expect_rejected(999, "unknown session");

    // Credit overflow: window 1 grants exactly age 0; age 1 back-to-back
    // must bounce.
    raw.open(50, dims, 1);
    raw.expect_opened(50);
    raw.send(NetMsg::SubmitFrame {
        session: 50,
        age: 0,
        payload: i420.clone(),
    });
    raw.send(NetMsg::SubmitFrame {
        session: 50,
        age: 1,
        payload: i420.clone(),
    });
    raw.expect_rejected(50, "credit overflow");

    // Malformed payload: not an i420 frame of the session's dimensions.
    raw.open(60, dims, 1);
    raw.expect_opened(60);
    raw.send(NetMsg::SubmitFrame {
        session: 60,
        age: 0,
        payload: vec![1, 2, 3],
    });
    raw.expect_rejected(60, "bad frame payload");

    // Age gap: client-assigned ages must be dense from 0.
    raw.open(70, dims, 1);
    raw.expect_opened(70);
    raw.send(NetMsg::SubmitFrame {
        session: 70,
        age: 5,
        payload: i420.clone(),
    });
    raw.expect_rejected(70, "age gap");

    // The server survived all of it and shuts down cleanly on request.
    raw.send(NetMsg::Finish);
    assert!(
        node.wait_exit().success(),
        "server must exit cleanly after protocol abuse:\n{}",
        node.stderr()
    );
    raw.net.shutdown();
    let summary = node.stdout();
    assert!(
        summary.contains("8 rejected"),
        "every abuse case must be counted as a reject: {summary:?}"
    );
}
