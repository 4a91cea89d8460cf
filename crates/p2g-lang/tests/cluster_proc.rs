//! Multi-process cluster integration: real `p2gc cluster` master and node
//! OS processes over localhost TCP, including a `kill -9` chaos run.
//!
//! The exactly-once assertion is digest equality: the master prints a
//! CRC32 over the sorted, deduplicated wire encoding of every written
//! (field, age, region, buffer) entry, so any lost, duplicated, or
//! corrupted result — across any node count or recovery history — changes
//! the digest.

#![cfg(unix)]

use std::fs::File;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const P2GC: &str = env!("CARGO_BIN_EXE_p2gc");
const PROGRAM: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs/mul_sum.p2g");

/// Hard cap on any single wait; generous next to the in-run deadlines so
/// a wedged cluster fails the test instead of hanging CI.
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
            "p2g-cluster-{}-{}-{}",
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

/// The master announces its (possibly ephemeral) port on stderr.
fn master_port(master: &Proc) -> u16 {
    let text = master.wait_for_stderr("listening on 127.0.0.1:");
    let after = text.split("listening on 127.0.0.1:").nth(1).expect("port line");
    after
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("parse master port")
}

/// The master prints `digest XXXXXXXX entries N epoch E failed F`.
fn parse_master_line(master: &Proc) -> (String, u64, u64, u64) {
    let out = master.stdout();
    let fields: Vec<&str> = out.split_whitespace().collect();
    assert!(
        fields.len() >= 8 && fields[0] == "digest",
        "unexpected master output: {out:?}"
    );
    (
        fields[1].to_string(),
        fields[3].parse().expect("entries"),
        fields[5].parse().expect("epoch"),
        fields[7].parse().expect("failed"),
    )
}

fn spawn_master(tag: &str, nodes: usize) -> Proc {
    Proc::spawn(
        tag,
        &[
            "cluster",
            "master",
            PROGRAM,
            "--nodes",
            &nodes.to_string(),
            "--port",
            "0",
            "--ages",
            "3",
            "--failure-timeout-ms",
            "400",
            "--deadline-ms",
            "30000",
        ],
    )
}

fn spawn_node(tag: &str, id: u32, port: u16) -> Proc {
    Proc::spawn(
        tag,
        &[
            "cluster",
            "node",
            PROGRAM,
            "--node-id",
            &id.to_string(),
            "--master",
            &format!("127.0.0.1:{port}"),
            "--workers",
            "2",
            "--ages",
            "3",
            "--deadline-ms",
            "30000",
        ],
    )
}

/// Run a healthy N-node cluster to completion and return
/// (digest, entries, epoch, failed).
fn run_cluster(tag: &str, nodes: usize) -> (String, u64, u64, u64) {
    let mut master = spawn_master(tag, nodes);
    let port = master_port(&master);
    let mut procs: Vec<Proc> = (0..nodes as u32)
        .map(|id| spawn_node(&format!("{tag}-n{id}"), id, port))
        .collect();
    let status = master.wait_exit();
    assert!(status.success(), "master failed:\n{}", master.stderr());
    for p in &mut procs {
        assert!(p.wait_exit().success(), "node failed:\n{}", p.stderr());
    }
    parse_master_line(&master)
}

/// The in-process deployment of the same protocol: `SimCluster` threads
/// over the simulated network or over loopback sockets. Returns the same
/// (digest, entries, epoch, failed) the master process prints.
fn run_in_process(config: p2g_dist::ClusterConfig) -> (String, u64, u64, u64) {
    let source = std::fs::read_to_string(PROGRAM).expect("read program");
    let build = || p2g_lang::compile_source(&source).expect("compiles").program;
    let outcome = p2g_dist::SimCluster::new(config, build)
        .expect("cluster builds")
        .run(p2g_runtime::RunLimits::ages(3).with_deadline(HARD_TIMEOUT))
        .expect("cluster runs");
    (
        format!("{:08x}", outcome.digest),
        outcome.entries as u64,
        outcome.epoch,
        outcome.failed_nodes.len() as u64,
    )
}

/// One protocol, three deployments, one digest: 1-node and 2-node clusters
/// of OS processes over real sockets, and the in-process cluster over the
/// simulated network and over loopback sockets, all produce bit-identical
/// result digests (chunking-agnostic exactly-once).
#[test]
fn process_cluster_digest_is_node_count_invariant() {
    let (d1, e1, ep1, f1) = run_cluster("solo", 1);
    assert_eq!(f1, 0, "healthy run must not report failures");
    assert_eq!(ep1, 1, "healthy run stays on epoch 1");
    let runs = [
        ("2 processes", run_cluster("pair", 2)),
        ("2 threads, SimNet", run_in_process(p2g_dist::ClusterConfig::nodes(2))),
        ("3 threads, TcpNet", run_in_process(p2g_dist::ClusterConfig::nodes(3).over_tcp())),
    ];
    for (what, (d, e, ep, f)) in runs {
        assert_eq!(f, 0, "{what}");
        assert_eq!(ep, 1, "{what}");
        assert_eq!(e, e1, "{what}: entry counts must match the 1-process run");
        assert_eq!(d, d1, "{what}: digests must be bit-identical to the 1-process run");
    }
}

/// The chaos run: `kill -9` a node process mid-run. The master must
/// detect the death (status staleness), replan onto the survivor, replay,
/// and finish with the exact digest of an undisturbed run — the
/// process-level demonstration of replan + replay + write-once dedup
/// yielding exactly-once results.
#[test]
fn kill_dash_nine_mid_run_recovers_to_identical_digest() {
    let (want_digest, want_entries, _, _) = run_cluster("ref", 2);

    let mut master = spawn_master("chaos", 2);
    let port = master_port(&master);
    let mut node0 = spawn_node("chaos-n0", 0, port);
    let mut node1 = spawn_node("chaos-n1", 1, port);

    // Kill as soon as the victim is executing its assignment: stores are
    // in flight exactly then, so recovery replays real data.
    node1.wait_for_stderr("assigned epoch 1");
    node1.kill_dash_nine();

    let status = master.wait_exit();
    assert!(
        status.success(),
        "master must survive a node kill:\n{}",
        master.stderr()
    );
    assert!(node0.wait_exit().success(), "survivor failed:\n{}", node0.stderr());

    let (digest, entries, epoch, failed) = parse_master_line(&master);
    assert_eq!(failed, 1, "exactly one node death must be recorded");
    assert!(epoch >= 2, "death must have forced a replan epoch");
    assert!(
        master.stderr().contains("replanning over 1 survivors"),
        "master must log the recovery:\n{}",
        master.stderr()
    );
    assert_eq!(entries, want_entries);
    assert_eq!(
        digest, want_digest,
        "post-recovery results must be bit-identical to the undisturbed run"
    );
}
