//! `p2gc` — the P2G compiler driver.
//!
//! The paper's compiler "works also as a compiler driver ... and produces
//! complete binaries for programs that run directly on the target system".
//! This driver compiles a kernel-language source file and executes it on an
//! execution node, printing the program's `print` output and the
//! per-kernel instrumentation table.
//!
//! Usage:
//!   p2gc run <file.p2g> [--ages N] [--workers W] [--shards S] [--trace-out PATH]
//!                       [--adaptive]
//!   p2gc check <file.p2g>
//!   p2gc graph <file.p2g>        # dump Figures 2/3 style dot graphs
//!   p2gc cluster master|node ... # the multi-process cluster
//!   p2gc serve-node / submit ... # remote session serving
//!
//! `--trace-out` enables structured run tracing and writes the merged
//! trace after the run: Chrome trace-viewer JSON (`chrome://tracing`,
//! Perfetto) when the path ends in `.json`, JSONL (one event object per
//! line) otherwise.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use p2g_dist::{
    run_master, run_node, run_serve_node, NodeConfig, ProtocolConfig, RetryConfig, ServeClient,
    ServeConfig, TcpNet, MASTER_NODE,
};
use p2g_graph::{FinalGraph, IntermediateGraph, NodeId};
use p2g_lang::compile_source;
use p2g_mjpeg::{mjpeg_registry, pack_i420, FrameSource, SyntheticVideo};
use p2g_runtime::{NodeBuilder, Qos, RunLimits};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  p2gc run <file.p2g> [--ages N] [--workers W] [--shards S] [--trace-out PATH]\n                      [--adaptive]\n  p2gc check <file.p2g>\n  p2gc graph <file.p2g>\n  p2gc cluster master <file.p2g> --nodes N [--port P] [--ages A]\n                      [--failure-timeout-ms D] [--deadline-ms D]\n                      [--net-retries R] [--net-backoff-us B]\n  p2gc cluster node <file.p2g> --node-id I --master HOST:PORT [--workers W]\n                      [--ages A] [--deadline-ms D]\n                      [--net-retries R] [--net-backoff-us B]\n  p2gc serve-node [--port P] [--workers W] [--stats-interval-ms D]\n                  [--orphan-timeout-ms D] [--deadline-ms D]\n                  [--net-retries R] [--net-backoff-us B]\n  p2gc submit --server HOST:PORT [--client-id I] [--width W] [--height H]\n              [--frames N] [--quality Q] [--seed S] [--cadence-ms C]\n              [--priority P] [--weight W] [--window N] [--out PATH]\n              [--shutdown-server]\n\nmulti-process cluster (p2gc cluster):\n  master listens on loopback, plans the dependency graph across the\n  joined nodes, supervises their status reports, replans and replays\n  around node deaths, and prints a chunking-invariant results digest;\n  each node process runs its assigned kernels and forwards stores over TCP\n  --net-retries R         send attempts before a peer is declared dead\n  --net-backoff-us B      initial reconnect/retry backoff (doubles, jittered)\n\nremote session serving (p2gc serve-node / p2gc submit):\n  serve-node hosts a resident session runtime behind TCP, offering the\n  built-in \"mjpeg\" pipeline; submit streams synthetic i420 frames into\n  it as one remote session and receives the encoded MJPEG stream back\n  --cadence-ms C          delay between frame submits (live-source pacing)\n  --priority P            QoS class: 0 realtime, 1 normal, 2 bulk\n  --weight W              fair-share weight within the class\n  --out PATH              write the received MJPEG stream to PATH\n  --shutdown-server       send the admin shutdown after closing\n\nparallel dependency analysis:\n  --shards S              analyzer shards (default 1, the sequential\n                          analyzer; at most 64)\n\ngranularity adaptation:\n  --adaptive              adapt kernel chunk sizes online from live\n                          dispatch-overhead and latency measurements\n\ntracing:\n  --trace-out PATH        record a structured run trace; write Chrome\n                          trace-viewer JSON if PATH ends in .json, else JSONL"
    );
    ExitCode::from(2)
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parse the shared `--net-retries` / `--net-backoff-us` transport flags.
fn net_retry_flags(args: &[String]) -> RetryConfig {
    let mut retry = RetryConfig::default();
    if let Some(r) = flag::<u32>(args, "--net-retries") {
        retry.attempts = r.max(1);
    }
    if let Some(us) = flag::<u64>(args, "--net-backoff-us") {
        let base = Duration::from_micros(us.max(1));
        retry = retry.with_backoff(base, base.saturating_mul(64));
    }
    retry
}

/// The sink `p2gc cluster` hands the coordinator loops for their progress
/// lines.
fn stderr_line(line: &str) {
    eprintln!("{line}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    // The serving commands take no source file.
    match cmd.as_str() {
        "serve-node" => return cmd_serve_node(&args),
        "submit" => return cmd_submit(&args),
        _ => {}
    }
    // `cluster` takes a role before the source path.
    let path_idx = if cmd == "cluster" { 2 } else { 1 };
    let Some(path) = args.get(path_idx) else {
        return usage();
    };

    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("p2gc: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let compiled = match compile_source(&source) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("p2gc: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    match cmd.as_str() {
        "check" => {
            println!(
                "{path}: ok ({} fields, {} kernels)",
                compiled.spec.fields.len(),
                compiled.spec.kernels.len()
            );
            ExitCode::SUCCESS
        }
        "graph" => {
            let ig = IntermediateGraph::from_spec(&compiled.spec);
            println!("// intermediate implicit static dependency graph (Figure 2)");
            print!("{}", ig.to_dot(&compiled.spec));
            let fg = FinalGraph::from_spec(&compiled.spec);
            println!("// final implicit static dependency graph (Figure 3)");
            print!("{}", fg.to_dot(&compiled.spec));
            ExitCode::SUCCESS
        }
        "run" => {
            let ages: u64 = flag(&args, "--ages").unwrap_or(4);
            let workers: usize = flag(&args, "--workers")
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(2, |n| n.get()));
            let shards: usize = flag(&args, "--shards").unwrap_or(1);
            let mut limits = RunLimits::ages(ages).with_shards(shards);
            if has_flag(&args, "--adaptive") {
                limits = limits.with_adaptive(p2g_runtime::AdaptiveGranularity::default());
            }
            let trace_out = flag::<String>(&args, "--trace-out");
            if trace_out.is_some() {
                limits = limits.with_trace();
            }

            let node = NodeBuilder::new(compiled.program).workers(workers);
            match node.launch(limits).and_then(|n| n.wait()) {
                Ok(report) => {
                    print!("{}", compiled.print.take());
                    eprintln!(
                        "--- {path}: {:?} ({:?}) ---",
                        report.termination, report.wall_time
                    );
                    eprint!("{}", report.instruments.render_table());
                    // The node clamps the shard count, so report what ran.
                    let shard_events = report.instruments.shard_events();
                    if shard_events.len() > 1 {
                        eprintln!(
                            "analyzer shards: {} ({} events)",
                            shard_events.len(),
                            shard_events.iter().sum::<u64>()
                        );
                    }
                    if let Some(out) = trace_out {
                        let trace = report.trace.as_ref().expect("tracing was enabled");
                        let body = if out.ends_with(".json") {
                            trace.to_chrome_json()
                        } else {
                            trace.to_jsonl()
                        };
                        if let Err(e) = std::fs::write(&out, body) {
                            eprintln!("p2gc: cannot write trace to {out}: {e}");
                            return ExitCode::FAILURE;
                        }
                        eprintln!("trace: {} events -> {out}", trace.len());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("p2gc: runtime error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "cluster" => {
            let ages: u64 = flag(&args, "--ages").unwrap_or(4);
            let retry = net_retry_flags(&args);
            // Half a second of silence is a death, two minutes bound a run.
            let mut protocol = ProtocolConfig {
                retry,
                failure_timeout: Duration::from_millis(500),
                deadline: Some(Duration::from_secs(120)),
            };
            if let Some(ms) = flag::<u64>(&args, "--deadline-ms") {
                protocol.deadline = Some(Duration::from_millis(ms));
            }
            match args.get(1).map(String::as_str) {
                Some("master") => {
                    let Some(nodes) = flag::<usize>(&args, "--nodes") else {
                        eprintln!("p2gc: cluster master requires --nodes N");
                        return ExitCode::from(2);
                    };
                    if let Some(ms) = flag::<u64>(&args, "--failure-timeout-ms") {
                        protocol.failure_timeout = Duration::from_millis(ms);
                    }
                    let port = flag::<u16>(&args, "--port").unwrap_or(0);
                    let net = match TcpNet::bind_on(MASTER_NODE, retry, 0, port) {
                        Ok(net) => net,
                        Err(e) => {
                            eprintln!("p2gc: cluster master: master bind: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    eprintln!(
                        "p2g-master: listening on 127.0.0.1:{}, waiting for {nodes} nodes",
                        net.port()
                    );
                    let nodes = nodes.max(1);
                    match run_master(&compiled.spec, net, nodes, &protocol, None, None, &stderr_line)
                    {
                        Ok(out) if out.deadline_hit => {
                            eprintln!("p2gc: cluster master: run deadline exceeded");
                            ExitCode::FAILURE
                        }
                        Ok(out) => {
                            println!(
                                "digest {:08x} entries {} epoch {} failed {}",
                                out.digest,
                                out.entries,
                                out.epoch,
                                out.failed_nodes.len()
                            );
                            ExitCode::SUCCESS
                        }
                        Err(e) => {
                            eprintln!("p2gc: cluster master: {e}");
                            ExitCode::FAILURE
                        }
                    }
                }
                Some("node") => {
                    let Some(id) = flag::<u32>(&args, "--node-id") else {
                        eprintln!("p2gc: cluster node requires --node-id I");
                        return ExitCode::from(2);
                    };
                    let Some(master) = flag::<SocketAddr>(&args, "--master") else {
                        eprintln!("p2gc: cluster node requires --master HOST:PORT");
                        return ExitCode::from(2);
                    };
                    let workers = flag::<usize>(&args, "--workers").unwrap_or(2).max(1);
                    let net = match TcpNet::bind(NodeId(id), retry, workers as u32) {
                        Ok(net) => net,
                        Err(e) => {
                            eprintln!("p2gc: cluster node: node bind: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    net.set_peer(MASTER_NODE, master);
                    let cfg = NodeConfig {
                        id: NodeId(id),
                        workers,
                        port: net.port(),
                        protocol,
                    };
                    let limits = RunLimits::ages(ages);
                    let ran = run_node(compiled.program, limits, net.clone(), &cfg, None, &stderr_line);
                    // The process is about to exit: make sure the results
                    // it queued for the master have actually left.
                    net.flush(MASTER_NODE, Duration::from_secs(10));
                    match ran {
                        Ok(_) => ExitCode::SUCCESS,
                        Err(e) => {
                            eprintln!("p2gc: cluster node: {e}");
                            ExitCode::FAILURE
                        }
                    }
                }
                _ => usage(),
            }
        }
        _ => usage(),
    }
}

/// `p2gc serve-node`: host the built-in pipeline registry behind TCP
/// until an admin shutdown ([`p2g_dist::NetMsg::Finish`]) or the deadline.
fn cmd_serve_node(args: &[String]) -> ExitCode {
    let mut cfg = ServeConfig {
        retry: net_retry_flags(args),
        ..ServeConfig::default()
    };
    if let Some(p) = flag::<u16>(args, "--port") {
        cfg.port = p;
    }
    if let Some(w) = flag::<usize>(args, "--workers") {
        cfg.workers = w.max(1);
    }
    if let Some(ms) = flag::<u64>(args, "--stats-interval-ms") {
        cfg.stats_interval = Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = flag::<u64>(args, "--orphan-timeout-ms") {
        cfg.orphan_timeout = Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = flag::<u64>(args, "--deadline-ms") {
        cfg.deadline = Duration::from_millis(ms);
    }
    match run_serve_node(mjpeg_registry(), &cfg) {
        Ok(out) => {
            println!(
                "serve-node: {} sessions, {} rejected, {} frames ({} dropped), {} orphans",
                out.sessions_opened,
                out.sessions_rejected,
                out.frames_completed,
                out.frames_dropped,
                out.orphans_collected
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("p2gc: serve-node: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `p2gc submit`: stream synthetic i420 frames into a serve node as one
/// remote MJPEG session and collect the encoded stream back.
fn cmd_submit(args: &[String]) -> ExitCode {
    let Some(server) = flag::<SocketAddr>(args, "--server") else {
        eprintln!("p2gc: submit requires --server HOST:PORT");
        return ExitCode::from(2);
    };
    let id: u32 = flag(args, "--client-id").unwrap_or(1);
    let width: usize = flag(args, "--width").unwrap_or(64);
    let height: usize = flag(args, "--height").unwrap_or(64);
    let frames: u64 = flag(args, "--frames").unwrap_or(8);
    let quality: i64 = flag(args, "--quality").unwrap_or(75);
    let seed: u64 = flag(args, "--seed").unwrap_or(7);
    let cadence = Duration::from_millis(flag::<u64>(args, "--cadence-ms").unwrap_or(0));
    let qos = Qos {
        class: flag::<u8>(args, "--priority").unwrap_or(1),
        weight: flag::<u32>(args, "--weight").unwrap_or(1).max(1),
    };
    let window: i64 = flag(args, "--window").unwrap_or(8);
    let out_path = flag::<String>(args, "--out");

    let client = match ServeClient::connect(NodeId(id), server, net_retry_flags(args)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("p2gc: submit: {e}");
            return ExitCode::FAILURE;
        }
    };
    let session = match client.open(
        "mjpeg",
        &[
            ("width", width as i64),
            ("height", height as i64),
            ("quality", quality),
            ("window", window),
        ],
        qos,
        Duration::from_secs(10),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("p2gc: submit: {e}");
            client.close();
            return ExitCode::FAILURE;
        }
    };

    let video = SyntheticVideo::new(width, height, frames, seed);
    /// What `submit` has back from the node so far.
    #[derive(Default)]
    struct Received {
        stream: Vec<u8>,
        frames: u64,
        dropped: u64,
        /// Submit-call start → `recv` return, per frame, in ms.
        latency_ms: Vec<f64>,
    }
    impl Received {
        fn take(&mut self, out: p2g_dist::RemoteOutput, submitted_at: &[Instant]) {
            self.frames += 1;
            if let Some(t0) = submitted_at.get(out.age as usize) {
                self.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            match out.payload {
                Some(bytes) => self.stream.extend_from_slice(&bytes),
                None => self.dropped += 1,
            }
        }
    }
    let mut got = Received::default();
    // Indexed by age: when the frame's submit call began.
    let mut submitted_at: Vec<Instant> = Vec::new();
    for n in 0..frames {
        let Some(frame) = video.frame(n) else { break };
        let tick = Instant::now();
        submitted_at.push(tick);
        if let Err(e) = session.submit(pack_i420(&frame), Duration::from_secs(30)) {
            eprintln!("p2gc: submit: frame {n}: {e}");
            client.close();
            return ExitCode::FAILURE;
        }
        eprintln!("p2gc-submit: frame {n} submitted");
        // Wait out the cadence receiving, not sleeping: an output is taken
        // when it arrives, so the latency below is delivery time. With no
        // cadence this takes what has already arrived and moves on.
        while let Ok(Some(out)) = session.recv(cadence.saturating_sub(tick.elapsed())) {
            got.take(out, &submitted_at);
        }
    }
    session.close();
    while got.frames < frames {
        match session.recv(Duration::from_secs(30)) {
            Ok(Some(out)) => got.take(out, &submitted_at),
            Ok(None) => {
                eprintln!(
                    "p2gc: submit: timed out after {}/{frames} outputs",
                    got.frames
                );
                client.close();
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("p2gc: submit: {e}");
                client.close();
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(stats) = session.stats() {
        eprintln!(
            "p2gc-submit: server stats: {} completed, {} dropped, fps_milli {}, p95 {}us",
            stats.completed, stats.dropped, stats.fps_milli, stats.p95_latency_us
        );
    }
    got.latency_ms.sort_by(f64::total_cmp);
    if let Some(last) = got.latency_ms.len().checked_sub(1) {
        let at = |q: f64| got.latency_ms[(last as f64 * q) as usize];
        eprintln!(
            "p2gc-submit: client latency p50 {:.3} ms p95 {:.3} ms over {} frames",
            at(0.50),
            at(0.95),
            got.latency_ms.len()
        );
    }
    if has_flag(args, "--shutdown-server") {
        client.shutdown_server();
    }
    client.close();
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &got.stream) {
            eprintln!("p2gc: submit: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // FNV-1a digest so tests can compare streams without shipping bytes.
    let digest = got
        .stream
        .iter()
        .fold(0xcbf29ce484222325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        });
    println!(
        "submit: {} frames ({} dropped), {} bytes, digest {digest:016x}",
        got.frames,
        got.dropped,
        got.stream.len()
    );
    ExitCode::SUCCESS
}
