//! The ledger: one benchmark for framework tax, streaming latency and the
//! remote path, with a per-layer account. See README.md beside this file
//! for the metric → layer → workload map and the workload rationale.
//!
//! ```text
//! ledger [--seed N] [--quick] [--only W] [--out FILE]
//!     every workload, each run in a fresh child process: three measured
//!     runs and one traced run (`--quick`: one short run of each); prints
//!     one JSON document
//! ledger --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
//!     one run in this process; the last stdout line is the result object
//!     of the benchmark contract (`BENCHMARK.json`)
//! ledger compare A.json B.json
//! ```

mod catalog;
mod compare;
mod json;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use catalog::{
    Layer, END_TO_END, KMEANS_BATCH, MJPEG_BATCH, PER_LAYER, SERVE_TCP, STREAM_LOCAL, WORKLOADS,
};
use json::{obj, Json};
use spans::{SpanLog, NO_AGE};
use stats::median;
use workloads::{RunCfg, RunData};

/// Run length and measured runs per workload of the full document, and
/// of a `--quick` one. `FULL_SECONDS` is `run_seconds` in BENCHMARK.json.
const FULL_SECONDS: f64 = 25.0;
const FULL_REPEATS: u64 = 3;
const QUICK_SECONDS: f64 = 2.0;
const QUICK_REPEATS: u64 = 1;
/// Shares of a traced run's seconds: probes, the untraced twin that
/// `trace.overhead_ratio` is measured against, and (serve only) the
/// in-process twin behind `serve.vs_local_ratio`. The rest is traced.
const PROBE_SHARE: f64 = 0.15;
const PLAIN_SHARE: f64 = 0.3;
const LOCAL_TWIN_SHARE: f64 = 0.15;

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }
    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("bad value for {flag}: {v}")))
            .transpose()
    }
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn run_workload(name: &str, cfg: &RunCfg) -> Result<RunData, String> {
    match name {
        MJPEG_BATCH => workloads::mjpeg_batch(cfg),
        KMEANS_BATCH => workloads::kmeans_batch(cfg),
        STREAM_LOCAL => workloads::stream_local(cfg),
        SERVE_TCP => workloads::serve_tcp(cfg),
        other => Err(format!("unknown workload {other}; one of {WORKLOADS:?}")),
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The probes of the layers the catalog puts on `workload`'s path, each
/// with an equal share of `budget`.
fn run_probes(workload: &str, seed: u64, budget: Duration) -> Result<Vec<(String, f64)>, String> {
    let on = |metric: &str| catalog::on_path(metric, workload);
    // One name per probe; a probe yields every metric of its group.
    let probes_on_path = [
        "field.store_block_ns",
        "field.store_plane_mb_per_s",
        "field.store_elem_ns",
        "analyzer.event_ns_block",
        "analyzer.event_ns_elem",
        "ready.push_pop_ns_1t",
        "ready.push_pop_ns_2t",
        "wire.encode_us_64",
        "tcp.rtt_us_p50",
    ]
    .into_iter()
    .filter(|m| on(m))
    .count();
    let each = budget / probes_on_path.max(1) as u32;
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));
    if on("field.store_block_ns") {
        let f = probes::field_blocks(each);
        put("field.store_block_ns", f.store_block_ns);
        put("field.fetch_block_ns", f.fetch_block_ns);
        put("field.collect_age_ns", f.collect_age_ns);
    }
    if on("field.store_plane_mb_per_s") {
        put(
            "field.store_plane_mb_per_s",
            probes::field_store_plane(each),
        );
    }
    if on("field.store_elem_ns") {
        put("field.store_elem_ns", probes::field_store_elem(each));
    }
    if on("analyzer.event_ns_block") {
        put("analyzer.event_ns_block", probes::analyzer_blocks(each));
    }
    if on("analyzer.event_ns_elem") {
        put("analyzer.event_ns_elem", probes::analyzer_elems(each));
    }
    if on("ready.push_pop_ns_1t") {
        put("ready.push_pop_ns_1t", probes::ready_push_pop(1, each));
    }
    if on("ready.push_pop_ns_2t") {
        put("ready.push_pop_ns_2t", probes::ready_push_pop(2, each));
    }
    if on("wire.encode_us_64") {
        let w = probes::wire(seed, each);
        put("wire.encode_us_64", w.encode_us_64);
        put("wire.decode_us_64", w.decode_us_64);
        put("wire.encode_mb_per_s_cif", w.encode_mb_per_s_cif);
    }
    if on("tcp.rtt_us_p50") {
        let t = probes::tcp_rtt(each)?;
        put("tcp.rtt_us_p50", t.rtt_us_p50);
        put("tcp.rtt_us_p95", t.rtt_us_p95);
        put("tcp.resend_ratio", t.resend_ratio);
    }
    Ok(out)
}

/// Every `(session, age)` a `submit` span carries must also be on a
/// `recv` span: the frame can be followed through the run. Returns
/// `(followed, not followed)`.
fn frames_followed(spans: &SpanLog) -> (u64, u64) {
    let ids = |name: &str| -> BTreeSet<(u32, u64)> {
        spans
            .iter()
            .filter(|s| s.name == name && s.age != NO_AGE)
            .map(|s| (s.session, s.age))
            .collect()
    };
    let (submitted, received) = (ids("submit"), ids("recv"));
    let followed = submitted.intersection(&received).count() as u64;
    (followed, submitted.len() as u64 - followed)
}

fn default_trace_out(workload: &str, seed: u64) -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    PathBuf::from(target)
        .join("ledger")
        .join(format!("{workload}-{seed}.spans.jsonl"))
}

struct OneRun {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    detail: Json,
}

fn measured_run(workload: &str, seed: u64, seconds: f64) -> Result<OneRun, String> {
    let data = run_workload(
        workload,
        &RunCfg {
            seed,
            seconds,
            traced: false,
        },
    )?;
    let values = [
        median(&data.setup_s),
        data.items_per_s,
        data.tax_ratio,
        data.latency_ms.p50,
        data.latency_ms.hi,
        peak_rss_mb(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, _, _), v)| (name.to_string(), v))
        .collect();
    let mut detail = vec![
        (
            "latency_n".to_string(),
            Json::from(data.latency_ms.n as u64),
        ),
        // The percentile `latency_p95_ms` really is: the sample may
        // support less than p95 (see stats::supported_percentile).
        (
            "latency_hi_pct".to_string(),
            Json::from(data.latency_ms.hi_pct),
        ),
        ("setups".to_string(), Json::from(data.setup_s.len() as u64)),
    ];
    detail.extend(data.notes.into_iter().map(|(k, v)| (k.to_string(), v)));
    Ok(OneRun {
        attempted: data.attempted,
        failed: data.failed,
        metrics,
        detail: Json::Obj(detail),
    })
}

fn traced_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace_out: PathBuf,
) -> Result<OneRun, String> {
    let remote = workload == SERVE_TCP;
    let mut layer = run_probes(
        workload,
        seed,
        Duration::from_secs_f64(seconds * PROBE_SHARE),
    )?;
    let cfg = |share: f64, traced: bool| RunCfg {
        seed,
        seconds: seconds * share,
        traced,
    };
    let plain = run_workload(workload, &cfg(PLAIN_SHARE, false))?;
    let mut traced_share = 1.0 - PROBE_SHARE - PLAIN_SHARE;
    let mut twin_failed = 0;
    if remote {
        // The same frames at the same cadence without wire, tcp or the
        // serve loop: the difference is the remote path.
        traced_share -= LOCAL_TWIN_SHARE;
        let local = workloads::stream_local(&cfg(LOCAL_TWIN_SHARE, false))?;
        twin_failed = local.failed;
        layer.push((
            "serve.vs_local_ratio".to_string(),
            plain.latency_ms.p50 / local.latency_ms.p50,
        ));
    }
    let traced = run_workload(workload, &cfg(traced_share, true))?;
    layer.push((
        "trace.overhead_ratio".to_string(),
        traced.items_per_s / plain.items_per_s,
    ));
    // The run-derived numbers come from instruments and ledger timers
    // that are on in every run, so they are read off the untraced twin:
    // tracing slows the fine-grained workloads enough to bend the shares.
    layer.extend(plain.layer);

    if let Some(dir) = trace_out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&trace_out, traced.spans.to_jsonl())
        .map_err(|e| format!("write {}: {e}", trace_out.display()))?;
    let (followed, unfollowed) = frames_followed(&traced.spans);
    let self_ms = traced
        .spans
        .self_time_ns()
        .into_iter()
        .map(|(name, ns)| (name, Json::from(ns as f64 / 1e6)));
    let mut detail = vec![
        (
            "span_file".to_string(),
            Json::from(trace_out.display().to_string()),
        ),
        ("spans".to_string(), Json::from(traced.spans.len() as u64)),
        ("frames_followed".to_string(), Json::from(followed)),
        ("frames_not_followed".to_string(), Json::from(unfollowed)),
        ("span_self_ms".to_string(), obj(self_ms)),
    ];
    detail.extend(traced.notes.into_iter().map(|(k, v)| (k.to_string(), v)));
    Ok(OneRun {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed + twin_failed + unfollowed,
        metrics: layer,
        detail: Json::Obj(detail),
    })
}

/// The per-layer account of a workload: every metric the catalog puts on
/// its path must have been measured. Off-path metrics read 0 on the
/// driver line (which must carry every name) and are left out elsewhere.
fn layer_account(
    workload: &str,
    measured: &[(String, f64)],
    off_path_zero: bool,
) -> Result<Vec<(&'static Layer, f64)>, String> {
    let mut out = Vec::new();
    for l in PER_LAYER {
        if l.on.contains(&workload) {
            let value = measured
                .iter()
                .find(|(n, _)| n == l.name)
                .ok_or_else(|| format!("{} was not measured on {workload}", l.name))?
                .1;
            out.push((l, value));
        } else if off_path_zero {
            out.push((l, 0.0));
        }
    }
    Ok(out)
}

fn metric(value: f64, unit: &str) -> Json {
    obj([("value", Json::from(value)), ("unit", Json::from(unit))])
}

/// One run in this process, reported as the contract's last line.
fn driver_mode(args: &Args, workload: &str) -> Result<bool, String> {
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(FULL_SECONDS);
    let trace = args.parsed::<u8>("--trace")?.unwrap_or(0) != 0;
    let (run, metrics) = if trace {
        let out = args
            .value("--trace-out")
            .map_or_else(|| default_trace_out(workload, seed), PathBuf::from);
        let run = traced_run(workload, seed, seconds, out)?;
        let metrics: Vec<(String, Json)> = layer_account(workload, &run.metrics, true)?
            .into_iter()
            .map(|(l, v)| (l.name.to_string(), metric(v, l.unit)))
            .collect();
        (run, metrics)
    } else {
        let run = measured_run(workload, seed, seconds)?;
        // `measured_run` yields the end-to-end metrics in catalog order.
        let metrics = END_TO_END
            .iter()
            .zip(&run.metrics)
            .map(|((name, unit, _), (_, v))| (name.to_string(), metric(*v, unit)))
            .collect();
        (run, metrics)
    };
    let correct = run.failed == 0;
    if args.has("--detail") {
        println!("{}", run.detail.to_line());
    }
    let line = obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(run.attempted.max(1))),
        ("failed", Json::from(run.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.to_line());
    Ok(correct)
}

fn host_fingerprint() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let mem_mb = std::fs::read_to_string("/proc/meminfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("MemTotal"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |kb| kb / 1024);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj([
        ("cpu", Json::from(model)),
        ("logical_cpus", Json::from(cpus as u64)),
        ("mem_mb", Json::from(mem_mb)),
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
    ])
}

/// `(HEAD, whether the work tree differs from it)`, when run in a git
/// checkout.
fn git_rev() -> (String, bool) {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let rev =
        git(&["rev-parse", "HEAD"]).map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.trim().is_empty());
    (rev, dirty)
}

/// Run this executable again for one workload run; returns the detail
/// object and the contract line.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--detail"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    eprintln!(
        "ledger: {workload} seed {seed} {seconds}s trace {}",
        u8::from(trace)
    );
    let out = cmd
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let line = lines
        .next()
        .ok_or_else(|| format!("{workload}: no output (status {})", out.status))?;
    let detail = lines.next().unwrap_or("{}");
    Ok((Json::parse(detail)?, Json::parse(line)?))
}

/// Spread of repeated medians as a share of their median: the range for
/// fewer than four runs, the interquartile distance from four up.
fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut s = values.to_vec();
    stats::sort(&mut s);
    let width = if s.len() < 4 {
        s[s.len() - 1] - s[0]
    } else {
        stats::quantile(&s, 0.75) - stats::quantile(&s, 0.25)
    };
    Some(width / median(&s))
}

/// What the runs of one workload add up to in the full document.
struct Tally {
    attempted: f64,
    failed: f64,
    /// The measured runs' values of each end-to-end metric, in catalog order.
    per_metric: Vec<Vec<f64>>,
    details: Vec<Json>,
}

impl Default for Tally {
    fn default() -> Tally {
        Tally {
            attempted: 0.0,
            failed: 0.0,
            per_metric: vec![Vec::new(); END_TO_END.len()],
            details: Vec::new(),
        }
    }
}

impl Tally {
    /// Add a run's contract line; returns whether the run was correct.
    fn count(&mut self, line: &Json) -> bool {
        self.attempted += line.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        self.failed += line.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        line.get("correct").and_then(Json::as_bool).unwrap_or(false)
    }
}

/// Every workload in fresh child processes; one document on stdout.
fn full_mode(args: &Args) -> Result<bool, String> {
    let quick = args.has("--quick");
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let (seconds, repeats) = if quick {
        (QUICK_SECONDS, QUICK_REPEATS)
    } else {
        (FULL_SECONDS, FULL_REPEATS)
    };
    let only = args.value("--only");
    if let Some(w) = only {
        if !WORKLOADS.contains(&w) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    let selected: Vec<&str> = WORKLOADS
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
        .collect();
    let mut all_correct = true;
    let mut tallies: Vec<Tally> = selected.iter().map(|_| Tally::default()).collect();
    // One repeat of every workload, then the next: a workload's repeats
    // are minutes apart, so a host episode hits one of them (which the
    // median survives and the spread shows) and not all.
    for r in 0..repeats {
        for (workload, tally) in selected.iter().zip(&mut tallies) {
            let (detail, line) = child_run(workload, seed + r, seconds, false)?;
            all_correct &= tally.count(&line);
            for ((name, _, _), values) in END_TO_END.iter().zip(&mut tally.per_metric) {
                let v = line
                    .get("metrics")
                    .and_then(|m| m.get(name)?.get("value")?.as_f64());
                values.push(v.ok_or_else(|| format!("{workload}: run lacks {name}"))?);
            }
            tally.details.push(detail);
        }
    }
    let mut rows = Vec::new();
    for (workload, mut tally) in selected.into_iter().zip(tallies) {
        // The traced run is shorter: its job is the account, not the medians.
        let traced_seconds = if quick { seconds } else { seconds / 3.0 };
        let (traced_detail, traced_line) = child_run(workload, seed, traced_seconds, true)?;
        all_correct &= tally.count(&traced_line);
        let measured: Vec<(String, f64)> = traced_line
            .get("metrics")
            .map(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        let per_layer = layer_account(workload, &measured, false)?
            .into_iter()
            .map(|(l, v)| {
                let entry = [
                    ("value", Json::from(v)),
                    ("unit", Json::from(l.unit)),
                    ("better", Json::from(l.better)),
                    ("moves", Json::from(l.moves)),
                ];
                (l.name, obj(entry))
            });
        let end_to_end =
            END_TO_END
                .iter()
                .zip(&tally.per_metric)
                .map(|((name, unit, _), values)| {
                    let mut fields = vec![
                        ("median", Json::from(median(values))),
                        ("unit", Json::from(*unit)),
                        (
                            "values",
                            Json::Arr(values.iter().map(|&v| Json::from(v)).collect()),
                        ),
                    ];
                    if let Some(s) = spread(values) {
                        fields.push(("spread", Json::from(s)));
                    }
                    (*name, obj(fields))
                });
        rows.push(obj([
            ("name", Json::from(workload)),
            ("attempted", Json::from(tally.attempted)),
            ("failed", Json::from(tally.failed)),
            (
                "fail_ratio",
                Json::from(tally.failed / tally.attempted.max(1.0)),
            ),
            ("end_to_end", obj(end_to_end)),
            ("per_layer", obj(per_layer)),
            ("measured_runs", Json::Arr(tally.details)),
            ("traced_run", traced_detail),
        ]));
    }
    let (rev, dirty) = git_rev();
    let doc = obj([
        ("ledger", Json::from(1u64)),
        ("git_rev", Json::from(rev)),
        ("git_dirty", Json::from(dirty)),
        ("host", host_fingerprint()),
        ("quick", Json::from(quick)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("repeats", Json::from(repeats)),
        ("constants", workloads::constants()),
        ("workloads", Json::Arr(rows)),
    ]);
    let text = doc.to_pretty();
    if let Some(path) = args.value("--out") {
        std::fs::write(path, &text).map_err(|e| format!("write {path}: {e}"))?;
    }
    print!("{text}");
    Ok(all_correct)
}

fn compare_mode(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.0.as_slice() else {
        return Err("usage: ledger compare A.json B.json".into());
    };
    let read = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, any_worse) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let outcome = if args.0.first().is_some_and(|a| a == "compare") {
        compare_mode(&args)
    } else if let Some(workload) = args.value("--workload") {
        driver_mode(&args, workload)
    } else {
        full_mode(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A reference mismatch, a lost frame or a `worse` row.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
