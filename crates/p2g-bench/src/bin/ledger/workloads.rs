//! The four workloads. Everything here goes through public functions of
//! the framework at their defaults; the only settings are the workload's
//! own (sizes, `fast_dct`, windows). Inputs are generated from the seed
//! during set-up, every output is checked against the standalone
//! reference, and the reference is timed in the same process between the
//! P2G phases so `tax_ratio` compares like with like.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use p2g_core::dist::{
    run_serve_node, PipelineRegistry, RemoteSession, RetryConfig, ServeClient, ServeConfig,
    ServeOutcome,
};
use p2g_core::graph::spec::ProgramSpec;
use p2g_core::graph::NodeId;
use p2g_core::prelude::*;
use p2g_core::runtime::Qos;
use p2g_kmeans::{
    build_kmeans_program, generate_dataset, kmeans_baseline, KmeansConfig, KmeansTrace,
};
use p2g_mjpeg::avi::split_frames;
use p2g_mjpeg::{
    build_mjpeg_program, build_mjpeg_stream_program, encode_standalone, mjpeg_pipeline_factory,
    mjpeg_spec, mjpeg_stream_spec, pack_i420, stream_frame_parts, FrameSource, MjpegConfig,
    SyntheticVideo, YuvFrame,
};

use crate::json::Json;
use crate::spans::{Recorder, SpanLog, NO_AGE};
use crate::stats::{median, summarize, LatencyBook, Summary};

// ---- fixed constants (recorded in README.md and in every document) ----
pub const QUALITY: u8 = 75;
pub const CIF: (usize, usize) = (352, 288);
/// Frames per MJPEG batch job. Jobs are short so that a run holds over a
/// hundred of them and their two time modes average out (see `run_batch`).
pub const CIF_FRAMES_PER_JOB: u64 = 5;
pub const MJPEG_GC_WINDOW: u64 = 4;
pub const KMEANS_N: usize = 2000;
pub const KMEANS_K: usize = 100;
pub const KMEANS_DIM: usize = 2;
/// The paper's fixed break-point.
pub const KMEANS_ITERATIONS: u64 = 10;
/// Consecutive batch jobs that make a round: they share one set-up, and
/// their mean is one latency sample.
const ROUND_JOBS: usize = 8;
pub const STREAM_SIDE: usize = 64;
pub const STREAM_SESSIONS: usize = 2;
pub const STREAM_WINDOW: usize = 8;
pub const STREAM_GC_WINDOW: u64 = 8;
pub const STREAM_WORKERS: usize = 2;
/// Open-loop cadence of each session or connection in the paced phase.
pub const PACED_PERIOD: Duration = Duration::from_millis(10);
/// Distinct frames per tenant; the stream cycles through them.
pub const STREAM_DISTINCT_FRAMES: usize = 32;
const WARMUP_FRAMES: usize = STREAM_WINDOW;
/// Shares of a stream run's timed seconds.
const PACED_SHARE: f64 = 0.6;
const SATURATE_SHARE: f64 = 0.3;
/// A stream run is cut into rounds, about one per this many seconds.
/// Every round sets up a system of its own and runs a paced and a
/// saturate phase on it (see `run_stream`).
const SECONDS_PER_ROUND: f64 = 2.5;

pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    /// Ledger spans on, and the runtime's own `with_trace()` on.
    pub traced: bool,
}

/// Everything one run of a workload measured.
pub struct RunData {
    /// One sample per round: a run sets up afresh for every round, so the
    /// sample spans the run as the other metrics do.
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub items_per_s: f64,
    pub tax_ratio: f64,
    pub latency_ms: Summary,
    /// Run-derived per-layer metrics.
    pub layer: Vec<(String, f64)>,
    /// Sample counts and validity flags for the ledger document.
    pub notes: Vec<(&'static str, Json)>,
    pub spans: SpanLog,
}

/// Pre-generated frames behind the `FrameSource` the encoders pull from,
/// so neither side of `tax_ratio` pays for synthesis while timed.
struct Frames {
    width: usize,
    height: usize,
    frames: Vec<YuvFrame>,
}

impl Frames {
    fn generate(width: usize, height: usize, count: usize, seed: u64) -> Frames {
        let video = SyntheticVideo::new(width, height, count as u64, seed);
        Frames {
            width,
            height,
            frames: (0..count as u64)
                .map(|n| video.frame(n).expect("frame within the sequence"))
                .collect(),
        }
    }

    /// The reference JPEG of each frame, from the standalone encoder.
    fn reference(&self) -> Vec<Vec<u8>> {
        let stream = encode_standalone(self, QUALITY, self.frames.len() as u64, true);
        let jpegs: Vec<Vec<u8>> = split_frames(&stream)
            .into_iter()
            .map(<[u8]>::to_vec)
            .collect();
        assert_eq!(jpegs.len(), self.frames.len(), "one JPEG per frame");
        jpegs
    }
}

impl FrameSource for Frames {
    fn frame(&self, n: u64) -> Option<YuvFrame> {
        self.frames.get(n as usize).cloned()
    }
    fn width(&self) -> usize {
        self.width
    }
    fn height(&self) -> usize {
        self.height
    }
}

/// What the node-level instruments of one or more `RunReport`s add up to.
#[derive(Default)]
struct NodeAccount {
    /// Σ worker-threads × wall, the base of the `node.*_share` metrics.
    worker_s: f64,
    /// Σ wall per analyzer thread, the base of `analyzer.busy_share`.
    analyzer_wall_s: f64,
    items: f64,
    dispatch_s: f64,
    body_s: f64,
    instances: f64,
    units: f64,
    analyzer_busy_s: f64,
    analyzer_events: f64,
    analyzer_batches: f64,
    queue_peak: f64,
    bytes_stored: f64,
    /// Per kernel: (dispatch seconds, body seconds, instances).
    kernels: BTreeMap<String, (f64, f64, f64)>,
}

impl NodeAccount {
    fn absorb(&mut self, report: &RunReport, spec: &ProgramSpec, workers: f64, items: u64) {
        let ins = &report.instruments;
        let wall = report.wall_time.as_secs_f64();
        self.worker_s += workers * wall;
        self.analyzer_wall_s += wall;
        self.items += items as f64;
        for (name, k) in ins.all() {
            let (d, b) = (k.dispatch_total.as_secs_f64(), k.kernel_total.as_secs_f64());
            self.dispatch_s += d;
            self.body_s += b;
            self.instances += k.instances as f64;
            self.units += k.units as f64;
            let e = self.kernels.entry(name.clone()).or_default();
            *e = (e.0 + d, e.1 + b, e.2 + k.instances as f64);
        }
        self.analyzer_busy_s += ins.analyzer_busy().as_secs_f64();
        self.analyzer_events += ins.analyzer_events() as f64;
        self.analyzer_batches += ins.analyzer_batches() as f64;
        let peak = ins.shard_queue_peaks().iter().copied().max().unwrap_or(0);
        self.queue_peak = self.queue_peak.max(peak as f64);
        for (&(_, field), &elements) in ins.store_volumes() {
            self.bytes_stored += (elements as usize * spec.field(field).ty.size_bytes()) as f64;
        }
    }

    /// The account as per-layer metrics. `hot_kernel` is the kernel whose
    /// dispatch and body times are reported under its own name; `vlc`
    /// adds the ordered MJPEG kernel's body time.
    fn metrics(&self, hot_kernel: &str, vlc: bool) -> Vec<(String, f64)> {
        let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let kernel_us = |name: &str, body: bool| {
            self.kernels
                .get(name)
                .map_or(0.0, |k| per(if body { k.1 } else { k.0 }, k.2) * 1e6)
        };
        let dispatch_share = per(self.dispatch_s, self.worker_s);
        let body_share = per(self.body_s, self.worker_s);
        let mut out = vec![
            (
                "analyzer.events_per_item".to_string(),
                per(self.analyzer_events, self.items),
            ),
            (
                "analyzer.batches_per_item".to_string(),
                per(self.analyzer_batches, self.items),
            ),
            (
                "analyzer.busy_share".to_string(),
                per(self.analyzer_busy_s, self.analyzer_wall_s),
            ),
            ("analyzer.queue_peak".to_string(), self.queue_peak),
            (
                format!("node.dispatch_us.{hot_kernel}"),
                kernel_us(hot_kernel, false),
            ),
            (
                format!("node.body_us.{hot_kernel}"),
                kernel_us(hot_kernel, true),
            ),
            (
                "node.instances_per_unit".to_string(),
                per(self.instances, self.units),
            ),
            ("node.dispatch_share".to_string(), dispatch_share),
            ("node.body_share".to_string(), body_share),
            (
                "node.idle_share".to_string(),
                (1.0 - dispatch_share - body_share).max(0.0),
            ),
            (
                "field.bytes_stored_per_item".to_string(),
                per(self.bytes_stored, self.items),
            ),
        ];
        if vlc {
            out.push((
                "mjpeg.vlc_body_us".to_string(),
                kernel_us("vlc/write", true),
            ));
        }
        out
    }
}

// ------------------------------------------------------------- batch

struct JobOut {
    launch_s: f64,
    job_s: f64,
    report: RunReport,
    /// Items whose output differs from the reference.
    mismatched: u64,
}

/// A closed-loop batch workload: jobs of `size` units (frames or
/// iterations) launched one after another on a one-worker node.
trait Batch: Sized {
    /// The kernel whose dispatch and body times the account reports.
    const HOT_KERNEL: &'static str;
    const VLC: bool;
    /// Span name of the reference computation.
    const STANDALONE: &'static str;
    /// Units per measured job.
    const SIZE: u64;
    /// Items (frames, point assignments) per unit.
    const ITEMS_PER_UNIT: u64;
    fn prepare(seed: u64) -> Self;
    fn spec() -> ProgramSpec;
    fn job(&self, size: u64, traced: bool, rec: &mut Recorder) -> Result<JobOut, String>;
    /// One timed-by-the-caller reference computation of a full job.
    fn standalone(&self);
    /// The body-layer metric the standalone timing yields.
    fn standalone_metric(&self, median_s: f64) -> (String, f64);
}

fn limits_for(limits: RunLimits, traced: bool) -> RunLimits {
    if traced {
        limits.with_trace()
    } else {
        limits
    }
}

struct MjpegBatch {
    source: Arc<Frames>,
    reference: Vec<Vec<u8>>,
}

impl Batch for MjpegBatch {
    const HOT_KERNEL: &'static str = "yDCT";
    const VLC: bool = true;
    const STANDALONE: &'static str = "encode_standalone";
    const SIZE: u64 = CIF_FRAMES_PER_JOB;
    const ITEMS_PER_UNIT: u64 = 1;

    fn prepare(seed: u64) -> MjpegBatch {
        let source = Arc::new(Frames::generate(CIF.0, CIF.1, Self::SIZE as usize, seed));
        let reference = source.reference();
        MjpegBatch { source, reference }
    }

    fn spec() -> ProgramSpec {
        mjpeg_spec(CIF.0, CIF.1)
    }

    fn job(&self, size: u64, traced: bool, rec: &mut Recorder) -> Result<JobOut, String> {
        let config = MjpegConfig {
            quality: QUALITY,
            max_frames: size,
            fast_dct: true,
            ..MjpegConfig::default()
        };
        let (program, sink) = rec
            .span("build_mjpeg_program", 0, NO_AGE, || {
                build_mjpeg_program(self.source.clone(), config)
            })
            .map_err(|e| e.to_string())?;
        let limits = limits_for(
            RunLimits::ages(size + 1).with_gc_window(MJPEG_GC_WINDOW),
            traced,
        );
        let t = Instant::now();
        let node = rec
            .span("launch", 0, NO_AGE, || {
                NodeBuilder::new(program).workers(1).launch(limits)
            })
            .map_err(|e| e.to_string())?;
        let launch_s = t.elapsed().as_secs_f64();
        let report = rec
            .span("wait", 0, NO_AGE, || node.wait())
            .map_err(|e| e.to_string())?;
        let job_s = t.elapsed().as_secs_f64();
        let mismatched = rec.span("verify", 0, NO_AGE, || {
            let stream = sink.take();
            let got = split_frames(&stream);
            let want = &self.reference[..size as usize];
            let differing = got
                .iter()
                .zip(want)
                .filter(|(g, w)| **g != w.as_slice())
                .count();
            (differing + got.len().abs_diff(want.len())) as u64
        });
        Ok(JobOut {
            launch_s,
            job_s,
            report,
            mismatched,
        })
    }

    fn standalone(&self) {
        std::hint::black_box(encode_standalone(&*self.source, QUALITY, Self::SIZE, true));
    }

    fn standalone_metric(&self, median_s: f64) -> (String, f64) {
        (
            "mjpeg.standalone_fps_cif".to_string(),
            Self::SIZE as f64 / median_s,
        )
    }
}

struct KmeansBatch {
    config: KmeansConfig,
    points: Vec<f64>,
    reference: KmeansTrace,
}

impl Batch for KmeansBatch {
    const HOT_KERNEL: &'static str = "assign";
    const VLC: bool = false;
    const STANDALONE: &'static str = "kmeans_baseline";
    const SIZE: u64 = KMEANS_ITERATIONS;
    const ITEMS_PER_UNIT: u64 = KMEANS_N as u64;

    fn prepare(seed: u64) -> KmeansBatch {
        let config = KmeansConfig {
            n: KMEANS_N,
            k: KMEANS_K,
            dim: KMEANS_DIM,
            iterations: Self::SIZE,
            seed,
            ..KmeansConfig::default()
        };
        let points = generate_dataset(config.n, config.dim, config.k, seed);
        let reference = kmeans_baseline(&points, config.n, config.dim, config.k, Self::SIZE);
        KmeansBatch {
            config,
            points,
            reference,
        }
    }

    fn spec() -> ProgramSpec {
        p2g_kmeans::pipeline::kmeans_spec(KMEANS_N, KMEANS_K, KMEANS_DIM)
    }

    fn job(&self, size: u64, traced: bool, rec: &mut Recorder) -> Result<JobOut, String> {
        let config = KmeansConfig {
            iterations: size,
            ..self.config.clone()
        };
        let (program, _inertia) = rec
            .span("build_kmeans_program", 0, NO_AGE, || {
                build_kmeans_program(&config)
            })
            .map_err(|e| e.to_string())?;
        let limits = limits_for(RunLimits::ages(size), traced);
        let t = Instant::now();
        let node = rec
            .span("launch", 0, NO_AGE, || {
                NodeBuilder::new(program).workers(1).launch(limits)
            })
            .map_err(|e| e.to_string())?;
        let launch_s = t.elapsed().as_secs_f64();
        let (report, fields) = rec
            .span("wait", 0, NO_AGE, || node.collect())
            .map_err(|e| e.to_string())?;
        let job_s = t.elapsed().as_secs_f64();
        let mismatched = rec.span("verify", 0, NO_AGE, || {
            let bad_iterations = (0..size as usize)
                .filter(|&a| {
                    let assignments = fields.fetch("assignments", Age(a as u64), &Region::all(1));
                    let centroids = fields.fetch("centroids", Age(a as u64 + 1), &Region::all(2));
                    assignments.as_ref().and_then(Buffer::as_i32)
                        != Some(self.reference.assignments[a].as_slice())
                        || centroids.as_ref().and_then(Buffer::as_f64)
                            != Some(self.reference.centroids[a + 1].as_slice())
                })
                .count();
            bad_iterations as u64 * KMEANS_N as u64
        });
        Ok(JobOut {
            launch_s,
            job_s,
            report,
            mismatched,
        })
    }

    fn standalone(&self) {
        let c = &self.config;
        std::hint::black_box(kmeans_baseline(&self.points, c.n, c.dim, c.k, Self::SIZE));
    }

    fn standalone_metric(&self, median_s: f64) -> (String, f64) {
        ("kmeans.baseline_job_s".to_string(), median_s)
    }
}

fn run_batch<B: Batch>(cfg: &RunCfg) -> Result<RunData, String> {
    let mut rec = Recorder::new(cfg.traced, Instant::now(), 0);
    let mut setup_s = Vec::new();
    let mut set_up = || -> Result<B, String> {
        let t = Instant::now();
        let kind = B::prepare(cfg.seed);
        // Warm-up: a one-unit job, so thread start-up, lazy tables and
        // allocator growth are paid before the first timed job.
        kind.job(1, false, &mut Recorder::new(false, Instant::now(), 0))?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(kind)
    };
    let mut kind = set_up()?;
    let spec = B::spec();
    let items_per_job = B::SIZE * B::ITEMS_PER_UNIT;

    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let (mut job_s, mut launch_ms, mut standalone_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut account = NodeAccount::default();
    let mut failed = 0u64;
    loop {
        if !job_s.is_empty() && job_s.len().is_multiple_of(ROUND_JOBS) {
            kind = set_up()?;
        }
        rec.enter("job", 0, job_s.len() as u64);
        let out = kind.job(B::SIZE, cfg.traced, &mut rec)?;
        rec.exit(NO_AGE);
        failed += out.mismatched;
        account.absorb(&out.report, &spec, 1.0, items_per_job);
        job_s.push(out.job_s);
        launch_ms.push(out.launch_s * 1e3);
        // The reference for the same items, right after each job: the two
        // sums below then see the same stretches of host speed.
        let t = Instant::now();
        rec.span(B::STANDALONE, 0, NO_AGE, || kind.standalone());
        standalone_s.push(t.elapsed().as_secs_f64());
        let spent = start.elapsed();
        if spent + spent / job_s.len() as u32 > budget {
            break;
        }
    }

    let p2g_s: f64 = job_s.iter().sum();
    let reference_s: f64 = standalone_s.iter().sum();
    let mut layer = account.metrics(B::HOT_KERNEL, B::VLC);
    layer.push(("node.launch_ms".to_string(), median(&launch_ms)));
    layer.push(kind.standalone_metric(median(&standalone_s)));
    let job_ms: Vec<f64> = job_s.iter().map(|s| s * 1e3).collect();
    // Job times on a two-core host come in two modes a factor of two
    // apart (analyzer and worker either overlap or wake each other across
    // cores), so a median of single jobs flips between them from run to
    // run. Throughput is therefore total items over total time, and the
    // typical latency is the median over rounds of consecutive jobs of
    // the round's mean. The tail is read off the single jobs.
    let round_ms: Vec<f64> = job_ms
        .chunks_exact(ROUND_JOBS)
        .map(|round| round.iter().sum::<f64>() / ROUND_JOBS as f64)
        .collect();
    let tail = summarize(&job_ms, 0.95);
    let latency_ms = Summary {
        p50: if round_ms.is_empty() {
            p2g_s * 1e3 / job_ms.len() as f64
        } else {
            median(&round_ms)
        },
        ..tail
    };
    let mut spans = SpanLog::default();
    spans.absorb(rec);
    Ok(RunData {
        setup_s,
        attempted: job_s.len() as u64 * items_per_job,
        failed,
        items_per_s: (job_s.len() as u64 * items_per_job) as f64 / p2g_s,
        tax_ratio: p2g_s / reference_s,
        latency_ms,
        layer,
        notes: vec![
            ("jobs", Json::from(job_s.len() as u64)),
            ("rounds", Json::from(round_ms.len() as u64)),
            ("timed_s", Json::from(start.elapsed().as_secs_f64())),
        ],
        spans,
    })
}

pub fn mjpeg_batch(cfg: &RunCfg) -> Result<RunData, String> {
    run_batch::<MjpegBatch>(cfg)
}

pub fn kmeans_batch(cfg: &RunCfg) -> Result<RunData, String> {
    run_batch::<KmeansBatch>(cfg)
}

// ------------------------------------------------------------ streams

/// One tenant's inputs: frames, their i420 wire form, their reference
/// JPEGs. The stream cycles through them, so frame `age` is number
/// `age % STREAM_DISTINCT_FRAMES`.
struct Tenant {
    frames: Frames,
    packed: Vec<Vec<u8>>,
    reference: Vec<Vec<u8>>,
}

impl Tenant {
    fn generate(seed: u64, ix: usize) -> Tenant {
        let seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(ix as u64);
        let frames = Frames::generate(STREAM_SIDE, STREAM_SIDE, STREAM_DISTINCT_FRAMES, seed);
        Tenant {
            packed: frames.frames.iter().map(pack_i420).collect(),
            reference: frames.reference(),
            frames,
        }
    }
}

type Output = (u64, Option<Vec<u8>>);

/// Live gauges of one session, as far as its side of the API shows them.
#[derive(Default, Clone, Copy)]
struct Gauges {
    resident_ages: f64,
    resident_bytes: f64,
    backlog: f64,
}

impl Gauges {
    fn max(self, o: Gauges) -> Gauges {
        Gauges {
            resident_ages: self.resident_ages.max(o.resident_ages),
            resident_bytes: self.resident_bytes.max(o.resident_bytes),
            backlog: self.backlog.max(o.backlog),
        }
    }
}

/// The calls the load makes, over an in-process `Session` or a
/// `RemoteSession`, so one generator drives both stream workloads.
trait Link: Sync {
    /// Submit frame `n` of the tenant, blocking while the window is full.
    fn submit(&self, tenant: &Tenant, n: usize) -> Result<u64, String>;
    fn recv(&self, timeout: Duration) -> Option<Output>;
    /// How often (in submits) the gauges are cheap enough to sample while
    /// timed; `None` samples at phase ends only.
    fn gauge_every(&self) -> Option<u64>;
    fn gauges(&self) -> Gauges;
    /// The session's own median submit→completion latency, in ms.
    fn own_p50_ms(&self) -> f64;
}

struct LocalLink {
    session: Session,
    runtime: Arc<SessionRuntime>,
}

impl Link for LocalLink {
    fn submit(&self, tenant: &Tenant, n: usize) -> Result<u64, String> {
        let parts = stream_frame_parts(&self.session, &tenant.frames.frames[n]);
        self.session
            .submit(parts)
            .map(|t| t.age)
            .map_err(|e| e.to_string())
    }
    fn recv(&self, timeout: Duration) -> Option<Output> {
        self.session.recv(timeout).map(|o| (o.age, o.payload))
    }
    fn gauge_every(&self) -> Option<u64> {
        Some(32)
    }
    fn gauges(&self) -> Gauges {
        Gauges {
            resident_ages: self.session.resident_ages() as f64,
            resident_bytes: self.session.bytes_resident() as f64,
            backlog: self.runtime.backlog() as f64,
        }
    }
    fn own_p50_ms(&self) -> f64 {
        self.session.metrics().p50_latency_ns as f64 / 1e6
    }
}

struct RemoteLink {
    session: RemoteSession,
}

const REMOTE_TIMEOUT: Duration = Duration::from_secs(30);

impl Link for RemoteLink {
    fn submit(&self, tenant: &Tenant, n: usize) -> Result<u64, String> {
        self.session
            .submit(tenant.packed[n].clone(), REMOTE_TIMEOUT)
            .map_err(|e| e.to_string())
    }
    fn recv(&self, timeout: Duration) -> Option<Output> {
        self.session
            .recv(timeout)
            .ok()
            .flatten()
            .map(|o| (o.age, o.payload))
    }
    fn gauge_every(&self) -> Option<u64> {
        None // `stats()` pumps the inbox for a millisecond
    }
    fn gauges(&self) -> Gauges {
        self.session.stats().map_or(Gauges::default(), |s| Gauges {
            resident_ages: s.resident_ages as f64,
            resident_bytes: s.resident_bytes as f64,
            backlog: 0.0,
        })
    }
    fn own_p50_ms(&self) -> f64 {
        self.session
            .stats()
            .map_or(0.0, |s| s.p50_latency_us as f64 / 1e3)
    }
}

#[derive(Clone, Copy)]
enum Mode {
    /// Open loop: frame `i` is due `i` periods after the phase starts.
    Paced(Duration, Duration),
    /// Closed loop at the admission window, for a duration.
    Saturate(Duration),
    /// Closed loop, this many frames (warm-up).
    Burst(u64),
}

/// What the two threads of one session share during a phase.
#[derive(Default)]
struct Progress {
    submitted: AtomicU64,
    received: AtomicU64,
    /// The generator has submitted its last frame.
    done: AtomicBool,
}

/// What one session's generator and receiver saw during one phase.
#[derive(Default)]
struct Phase {
    book: LatencyBook,
    submit_ns: Vec<u64>,
    /// Time in `submit` calls that began with the window already full.
    stall_ns: u64,
    wall_ns: u64,
    outputs: u64,
    /// Outputs dropped, unknown or different from the reference.
    bad: u64,
    /// Submitted frames whose output never arrived.
    lost: u64,
    peaks: Gauges,
}

/// One session under load: a generator thread that submits on schedule
/// and a receiver thread that stamps every output as it arrives. Two
/// threads because that is how a client of either API stays on schedule:
/// a generator that also waited in `recv` would submit late whenever the
/// wait overshot (the remote client polls its socket in 5 ms steps).
struct Station<'a> {
    link: &'a dyn Link,
    tenant: &'a Tenant,
    /// Session index: half of the `(session, age)` frame identifier.
    ix: u32,
    /// Frames submitted on this link so far — the next age.
    next: u64,
    gen_rec: Recorder,
    recv_rec: Recorder,
}

impl<'a> Station<'a> {
    /// One station per link of round `round`'s system. Sessions are
    /// numbered through the run, so `(session, age)` names one frame;
    /// thread ids likewise: a round's generators, then its receivers (0 is
    /// the main thread).
    fn for_links(
        links: &[&'a dyn Link],
        tenants: &'a [Tenant],
        traced: bool,
        epoch: Instant,
        round: usize,
        next: u64,
    ) -> Vec<Station<'a>> {
        let n = links.len();
        links
            .iter()
            .zip(tenants)
            .enumerate()
            .map(|(i, (link, tenant))| Station {
                link: *link,
                tenant,
                ix: (round * n + i) as u32,
                next,
                gen_rec: Recorder::new(traced, epoch, (1 + round * 2 * n + i) as u32),
                recv_rec: Recorder::new(traced, epoch, (1 + round * 2 * n + n + i) as u32),
            })
            .collect()
    }
}

/// The generator's half of a phase; the book holds due and late times.
fn generate(
    link: &dyn Link,
    tenant: &Tenant,
    ix: u32,
    next: &mut u64,
    rec: &mut Recorder,
    mode: Mode,
    progress: &Progress,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let start = rec.now_ns();
    rec.enter(
        match mode {
            Mode::Paced(..) => "paced",
            Mode::Saturate(_) => "saturate",
            Mode::Burst(_) => "warm_up",
        },
        ix,
        NO_AGE,
    );
    let mut submit =
        |phase: &mut Phase, rec: &mut Recorder, due: Option<u64>| -> Result<(), String> {
            let now = rec.now_ns();
            phase.book.submitting(due.unwrap_or(now), now);
            // An output can overtake the count of its own submit.
            let outstanding = progress
                .submitted
                .load(Ordering::SeqCst)
                .saturating_sub(progress.received.load(Ordering::SeqCst));
            rec.enter("submit", ix, *next);
            let admitted = link.submit(tenant, *next as usize % STREAM_DISTINCT_FRAMES);
            rec.exit(NO_AGE);
            let age = admitted?;
            progress.submitted.fetch_add(1, Ordering::SeqCst);
            let spent = rec.now_ns() - now;
            phase.submit_ns.push(spent);
            if outstanding >= STREAM_WINDOW as u64 {
                phase.stall_ns += spent;
            }
            if age != *next {
                return Err(format!("frame {next} was admitted as age {age}"));
            }
            *next += 1;
            if link.gauge_every().is_some_and(|n| next.is_multiple_of(n)) {
                phase.peaks = phase.peaks.max(link.gauges());
            }
            Ok(())
        };
    let outcome = (|| {
        match mode {
            Mode::Paced(period, duration) => {
                let end = start + duration.as_nanos() as u64;
                for i in 0.. {
                    let due = LatencyBook::due_at(start, period.as_nanos() as u64, i);
                    if due >= end {
                        break;
                    }
                    let now = rec.now_ns();
                    if due > now {
                        std::thread::sleep(Duration::from_nanos(due - now));
                    }
                    submit(&mut phase, rec, Some(due))?;
                }
            }
            Mode::Saturate(duration) => {
                let end = start + duration.as_nanos() as u64;
                while rec.now_ns() < end {
                    submit(&mut phase, rec, None)?;
                }
            }
            Mode::Burst(frames) => {
                for _ in 0..frames {
                    submit(&mut phase, rec, None)?;
                }
            }
        }
        Ok(())
    })();
    // Set on every path, or the receiver would wait for ever.
    progress.done.store(true, Ordering::SeqCst);
    rec.exit(NO_AGE);
    outcome.map(|()| phase)
}

/// The receiver's half of a phase: `(age, arrival ns, matches reference)`
/// of every output, until every submitted frame has come back.
fn receive(
    link: &dyn Link,
    tenant: &Tenant,
    ix: u32,
    rec: &mut Recorder,
    progress: &Progress,
) -> Vec<(u64, u64, bool)> {
    let mut outputs = Vec::new();
    let mut last_progress = Instant::now();
    loop {
        rec.enter("recv", ix, NO_AGE);
        let out = link.recv(Duration::from_millis(50));
        rec.exit(out.as_ref().map_or(NO_AGE, |o| o.0));
        let now = rec.now_ns();
        if let Some((age, payload)) = out {
            let want = &tenant.reference[age as usize % STREAM_DISTINCT_FRAMES];
            outputs.push((age, now, payload.as_deref() == Some(want.as_slice())));
            progress.received.fetch_add(1, Ordering::SeqCst);
            last_progress = Instant::now();
        }
        let done = progress.done.load(Ordering::SeqCst);
        let owed = progress.submitted.load(Ordering::SeqCst) > outputs.len() as u64;
        if (done && !owed) || last_progress.elapsed() > Duration::from_secs(10) {
            return outputs;
        }
    }
}

/// What the final reports of a run's systems add up to.
#[derive(Default)]
struct RigTotals {
    account: NodeAccount,
    open_ms: Vec<f64>,
    rejected: f64,
}

/// A started system under test with its open sessions.
trait Rig: Sized {
    /// Whether the sessions sit behind `wire` + `tcp` + `serve`.
    const REMOTE: bool;
    fn open(traced: bool) -> Result<Self, String>;
    fn links(&self) -> Vec<&dyn Link>;
    /// Close the sessions and stop the system; adds what its final
    /// reports show to `totals` and returns frames it counted as failed.
    fn close(self, frames: u64, totals: &mut RigTotals) -> Result<u64, String>;
}

struct LocalRig {
    runtime: Arc<SessionRuntime>,
    links: Vec<LocalLink>,
    open_ms: Vec<f64>,
}

impl Rig for LocalRig {
    const REMOTE: bool = false;

    fn open(traced: bool) -> Result<LocalRig, String> {
        let runtime = Arc::new(SessionRuntime::new(STREAM_WORKERS));
        let (mut links, mut open_ms) = (Vec::new(), Vec::new());
        for _ in 0..STREAM_SESSIONS {
            let t = Instant::now();
            let sink = SessionSink::new();
            let config = MjpegConfig {
                quality: QUALITY,
                fast_dct: true,
                ..MjpegConfig::default()
            };
            let program =
                build_mjpeg_stream_program(STREAM_SIDE, STREAM_SIDE, config, sink.clone())
                    .map_err(|e| e.to_string())?;
            let mut session_config = SessionConfig::new("vlc/write")
                .sink(sink)
                .max_in_flight(STREAM_WINDOW)
                .gc_window(STREAM_GC_WINDOW);
            if traced {
                session_config = session_config.with_trace();
            }
            let session = runtime
                .open(program, session_config)
                .map_err(|e| e.to_string())?;
            open_ms.push(t.elapsed().as_secs_f64() * 1e3);
            links.push(LocalLink {
                session,
                runtime: runtime.clone(),
            });
        }
        Ok(LocalRig {
            runtime,
            links,
            open_ms,
        })
    }

    fn links(&self) -> Vec<&dyn Link> {
        self.links.iter().map(|l| l as &dyn Link).collect()
    }

    fn close(self, _frames: u64, totals: &mut RigTotals) -> Result<u64, String> {
        let spec = mjpeg_stream_spec(STREAM_SIDE, STREAM_SIDE);
        let share = STREAM_WORKERS as f64 / STREAM_SESSIONS as f64;
        for link in self.links {
            let report = link
                .session
                .finish(Duration::from_secs(30))
                .map_err(|e| e.to_string())?;
            totals
                .account
                .absorb(&report.report, &spec, share, report.frames_completed);
        }
        self.runtime.shutdown();
        totals.open_ms.extend(self.open_ms);
        // Dropped frames were already counted one by one as missing payloads.
        Ok(0)
    }
}

type ServeThread = std::thread::JoinHandle<Result<ServeOutcome, RuntimeError>>;

/// Start `run_serve_node` on a thread and wait until it listens. The node
/// reports the port it bound on stderr only, so one is reserved for it
/// and released again; if another process takes the port in between, the
/// node's bind fails, its thread ends, and the next attempt takes a new
/// port.
fn start_serve_node(traced: bool) -> Result<(ServeThread, std::net::SocketAddr), String> {
    const ATTEMPTS: usize = 5;
    let mut lost = String::new();
    for _ in 0..ATTEMPTS {
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("reserve port: {e}"))?
            .port();
        // The "mjpeg" pipeline as p2gc serves it; tracing can only be
        // switched on from the server's side of the factory.
        let inner = mjpeg_pipeline_factory();
        let mut registry = PipelineRegistry::new();
        registry.insert(
            "mjpeg".to_string(),
            Arc::new(move |req: &p2g_core::dist::OpenRequest| {
                let mut tenant = inner(req)?;
                if traced {
                    tenant.config = tenant.config.with_trace();
                }
                Ok(tenant)
            }),
        );
        let serve_config = ServeConfig {
            port,
            workers: STREAM_WORKERS,
            ..ServeConfig::default()
        };
        let server = std::thread::spawn(move || run_serve_node(registry, &serve_config));
        let addr = std::net::SocketAddr::from(([127, 0, 0, 1], port));
        // A client's first connect has a ~100 ms retry budget; wait for
        // the listener so set-up time is the node's, not a lost race.
        let patience = Instant::now();
        while !server.is_finished() {
            if std::net::TcpStream::connect(addr).is_ok() {
                // A node whose bind failed ends at once; give it the
                // moment to, so a foreign listener is not taken for it.
                std::thread::sleep(Duration::from_millis(1));
                if server.is_finished() {
                    break;
                }
                return Ok((server, addr));
            }
            if patience.elapsed() > Duration::from_secs(10) {
                return Err("serve node never started listening".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        lost = match server.join() {
            Ok(Ok(_)) => "serve node stopped before it was used".to_string(),
            Ok(Err(e)) => e.to_string(),
            Err(_) => "serve node panicked".to_string(),
        };
    }
    Err(format!(
        "serve node did not start in {ATTEMPTS} attempts: {lost}"
    ))
}

struct RemoteRig {
    server: ServeThread,
    clients: Vec<Arc<ServeClient>>,
    links: Vec<RemoteLink>,
    open_ms: Vec<f64>,
}

impl Rig for RemoteRig {
    const REMOTE: bool = true;

    fn open(traced: bool) -> Result<RemoteRig, String> {
        let (server, addr) = start_serve_node(traced)?;
        let (mut clients, mut links, mut open_ms) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..STREAM_SESSIONS {
            let t = Instant::now();
            let client = ServeClient::connect(NodeId(i as u32 + 1), addr, RetryConfig::default())
                .map_err(|e| e.to_string())?;
            // `fast_dct` must be asked for: the factory defaults to the
            // naive DCT, which would not match the reference.
            let params = [
                ("width", STREAM_SIDE as i64),
                ("height", STREAM_SIDE as i64),
                ("quality", QUALITY as i64),
                ("fast_dct", 1),
                ("window", STREAM_WINDOW as i64),
                ("gc_window", STREAM_GC_WINDOW as i64),
            ];
            let session = client
                .open("mjpeg", &params, Qos::normal(), REMOTE_TIMEOUT)
                .map_err(|e| e.to_string())?;
            open_ms.push(t.elapsed().as_secs_f64() * 1e3);
            clients.push(client);
            links.push(RemoteLink { session });
        }
        Ok(RemoteRig {
            server,
            clients,
            links,
            open_ms,
        })
    }

    fn links(&self) -> Vec<&dyn Link> {
        self.links.iter().map(|l| l as &dyn Link).collect()
    }

    fn close(self, frames: u64, totals: &mut RigTotals) -> Result<u64, String> {
        for link in &self.links {
            link.session.close();
        }
        self.clients[0].shutdown_server();
        let outcome = self
            .server
            .join()
            .map_err(|_| "serve node panicked".to_string())?
            .map_err(|e| e.to_string())?;
        for client in &self.clients {
            client.close();
        }
        totals.open_ms.extend(self.open_ms);
        totals.rejected += outcome.sessions_rejected as f64;
        // Frames the node never completed, seen from its own count.
        Ok(frames.saturating_sub(outcome.frames_completed) + outcome.sessions_rejected)
    }
}

/// Run one phase on every session at once.
fn run_phase(stations: &mut [Station], mode: Mode) -> Result<Vec<Phase>, String> {
    let barrier = Barrier::new(stations.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = stations
            .iter_mut()
            .map(|station| {
                let barrier = &barrier;
                s.spawn(move || {
                    let Station {
                        link,
                        tenant,
                        ix,
                        next,
                        gen_rec,
                        recv_rec,
                    } = station;
                    let (link, tenant, ix) = (*link, *tenant, *ix);
                    let base = *next;
                    let progress = Progress::default();
                    barrier.wait();
                    let start = gen_rec.now_ns();
                    let (generated, outputs) = std::thread::scope(|inner| {
                        let receiver =
                            inner.spawn(|| receive(link, tenant, ix, recv_rec, &progress));
                        let generated = generate(link, tenant, ix, next, gen_rec, mode, &progress);
                        (generated, receiver.join())
                    });
                    let mut phase = generated?;
                    let outputs = outputs.map_err(|_| "receiver panicked".to_string())?;
                    for (age, at, matches) in outputs {
                        let known = age >= base && phase.book.received((age - base) as usize, at);
                        phase.bad += u64::from(!(known && matches));
                        phase.outputs += 1;
                        phase.wall_ns = phase.wall_ns.max(at - start);
                    }
                    phase.lost = (phase.book.submitted() as u64).saturating_sub(phase.outputs);
                    phase.peaks = phase.peaks.max(link.gauges());
                    Ok(phase)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "generator panicked".to_string())?)
            .collect()
    })
}

fn numbers(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::from(v)).collect())
}

/// One round of a stream run: the phases on one freshly set-up system.
struct Round {
    paced: Vec<Phase>,
    saturate: Vec<Phase>,
    /// The sessions' own median latency gauges after the paced phase.
    own_p50_ms: Vec<f64>,
}

impl Round {
    /// Frames per second of the saturate phase, all sessions together.
    fn saturate_rate(&self) -> f64 {
        let frames: u64 = self.saturate.iter().map(|p| p.outputs).sum();
        let wall_ns = self.saturate.iter().map(|p| p.wall_ns).max().unwrap_or(0);
        frames as f64 / (wall_ns as f64 / 1e9)
    }

    /// Due→output of the paced phase's frames, in ms.
    fn latency_ms(&self) -> Vec<f64> {
        self.paced
            .iter()
            .flat_map(|p| p.book.latency_ns.iter().map(|&n| n as f64 / 1e6))
            .collect()
    }
}

/// A stream workload: rounds of set-up → paced phase → saturate phase →
/// close → reference slice. How fast a started system runs is partly
/// drawn when it starts (where its dozen threads settle on two cores), so
/// one long-lived system would make the run a sample of one; each round's
/// own system makes it a sample of `rounds`, and the run reports the
/// median round. The set-ups of the rounds are the `setup_s` sample.
fn run_stream<R: Rig>(cfg: &RunCfg) -> Result<RunData, String> {
    let epoch = Instant::now();
    let rounds = ((cfg.seconds / SECONDS_PER_ROUND) as usize).max(1);
    let share = |s: f64| Duration::from_secs_f64(cfg.seconds * s / rounds as f64);
    let reference_slice = Duration::from_secs_f64(
        cfg.seconds * (1.0 - PACED_SHARE - SATURATE_SHARE) / (rounds + 1) as f64,
    );
    let mut main_rec = Recorder::new(cfg.traced, epoch, 0);
    // Median seconds per frame of one slice of the standalone encoder, on
    // the first tenant's frames.
    let reference_frames = Tenant::generate(cfg.seed, 0).frames;
    let reference = |rec: &mut Recorder| -> f64 {
        let slice = Instant::now();
        let mut frame_s = Vec::new();
        while frame_s.len() < 3 || slice.elapsed() < reference_slice {
            let t = Instant::now();
            rec.span("encode_standalone", 0, NO_AGE, || {
                std::hint::black_box(encode_standalone(
                    &reference_frames,
                    QUALITY,
                    STREAM_DISTINCT_FRAMES as u64,
                    true,
                ))
            });
            frame_s.push(t.elapsed().as_secs_f64() / STREAM_DISTINCT_FRAMES as f64);
        }
        median(&frame_s)
    };

    let mut reference_frame_s = vec![reference(&mut main_rec)];
    let mut setup_s = Vec::new();
    let mut played: Vec<Round> = Vec::new();
    let mut totals = RigTotals::default();
    let mut spans = SpanLog::default();
    let mut failed = 0u64;
    for round in 0..rounds {
        let t = Instant::now();
        let tenants: Vec<Tenant> = (0..STREAM_SESSIONS)
            .map(|i| Tenant::generate(cfg.seed, i))
            .collect();
        let rig = R::open(cfg.traced)?;
        let links = rig.links();
        // Warm-up: one window of frames through every session.
        let mut warm_up = Station::for_links(&links, &tenants, false, epoch, round, 0);
        let warm = run_phase(&mut warm_up, Mode::Burst(WARMUP_FRAMES as u64))?;
        let unwell: u64 = warm.iter().map(|p| p.bad + p.lost).sum();
        if unwell > 0 {
            return Err(format!(
                "{unwell} warm-up frames lost or different from the reference"
            ));
        }
        setup_s.push(t.elapsed().as_secs_f64());

        let mut stations = Station::for_links(
            &links,
            &tenants,
            cfg.traced,
            epoch,
            round,
            WARMUP_FRAMES as u64,
        );
        let paced = run_phase(&mut stations, Mode::Paced(PACED_PERIOD, share(PACED_SHARE)))?;
        // Read while the gauges' windows still hold paced frames only.
        let own_p50_ms = links.iter().map(|l| l.own_p50_ms()).collect();
        let saturate = run_phase(&mut stations, Mode::Saturate(share(SATURATE_SHARE)))?;
        let submitted: u64 = stations.iter().map(|s| s.next).sum();
        for station in stations {
            spans.absorb(station.gen_rec);
            spans.absorb(station.recv_rec);
        }
        drop(links);
        failed += rig.close(submitted, &mut totals)?;
        played.push(Round {
            paced,
            saturate,
            own_p50_ms,
        });
        reference_frame_s.push(reference(&mut main_rec));
    }
    spans.absorb(main_rec);

    let phases = |pick: fn(&Round) -> &Vec<Phase>| played.iter().flat_map(pick);
    let paced = || phases(|r| &r.paced);
    let saturate = || phases(|r| &r.saturate);
    let ms = |ns: &[u64]| -> Vec<f64> { ns.iter().map(|&n| n as f64 / 1e6).collect() };

    // Each round's latency sample is summarized on its own, and the run
    // reports the median round of each statistic.
    let per_round: Vec<Summary> = played
        .iter()
        .map(|r| summarize(&r.latency_ms(), 0.95))
        .collect();
    let across =
        |pick: fn(&Summary) -> f64| median(&per_round.iter().map(pick).collect::<Vec<_>>());
    let latency_ms = Summary {
        n: per_round.iter().map(|s| s.n).sum(),
        p50: across(|s| s.p50),
        hi_pct: per_round.iter().map(|s| s.hi_pct).fold(1.0, f64::min),
        hi: across(|s| s.hi),
    };
    let round_rates: Vec<f64> = played.iter().map(Round::saturate_rate).collect();
    let items_per_s = median(&round_rates);
    // The host's speed moves by a third for minutes at a time (see README,
    // Steadiness), so each round's time per frame is set against the two
    // reference slices around that round.
    let round_tax: Vec<f64> = round_rates
        .iter()
        .zip(reference_frame_s.windows(2))
        .map(|(rate, around)| 1.0 / rate / ((around[0] + around[1]) / 2.0))
        .collect();

    let late: Vec<f64> = paced().flat_map(|p| ms(&p.book.late_ns)).collect();
    let late_p95 = summarize(&late, 0.95).hi;
    let cadence_ms = PACED_PERIOD.as_secs_f64() * 1e3;
    let paced_submit_us: Vec<f64> = paced()
        .flat_map(|p| p.submit_ns.iter().map(|&n| n as f64 / 1e3))
        .collect();
    let stall_share = saturate().map(|p| p.stall_ns as f64).sum::<f64>()
        / saturate().map(|p| p.wall_ns as f64).sum::<f64>().max(1.0);
    let saturate_frames: u64 = saturate().map(|p| p.outputs).sum();
    let peaks = paced()
        .chain(saturate())
        .fold(Gauges::default(), |a, p| a.max(p.peaks));
    let timed_frames: u64 = paced()
        .chain(saturate())
        .map(|p| p.book.submitted() as u64)
        .sum();
    failed += paced()
        .chain(saturate())
        .map(|p| p.bad + p.lost)
        .sum::<u64>();

    let own_p50_ms: Vec<f64> = played
        .iter()
        .flat_map(|r| r.own_p50_ms.iter().copied())
        .collect();
    let overhead_ms = latency_ms.p50 - median(&own_p50_ms);
    let mut layer: Vec<(String, f64)> = vec![
        ("gen.late_ms_p95".to_string(), late_p95),
        (
            "session.resident_ages_peak".to_string(),
            peaks.resident_ages,
        ),
        (
            "session.resident_bytes_peak".to_string(),
            peaks.resident_bytes,
        ),
        (
            "mjpeg.standalone_fps_64".to_string(),
            1.0 / median(&reference_frame_s),
        ),
    ];
    if R::REMOTE {
        layer.push(("serve.remote_overhead_ms_p50".to_string(), overhead_ms));
        layer.push(("serve.credit_stall_share".to_string(), stall_share));
        layer.push(("serve.open_ms".to_string(), median(&totals.open_ms)));
        layer.push(("serve.rejected".to_string(), totals.rejected));
    } else {
        layer.push((
            "session.submit_us_p50".to_string(),
            median(&paced_submit_us),
        ));
        layer.push(("session.admission_wait_share".to_string(), stall_share));
        layer.push(("session.delivery_us_p50".to_string(), overhead_ms * 1e3));
        layer.push(("ready.backlog_peak".to_string(), peaks.backlog));
        layer.extend(totals.account.metrics("yDCT", true));
        layer.push(("session.open_ms".to_string(), median(&totals.open_ms)));
    }

    Ok(RunData {
        setup_s,
        attempted: timed_frames,
        failed,
        items_per_s,
        tax_ratio: median(&round_tax),
        latency_ms,
        layer,
        notes: vec![
            ("saturate_frames", Json::from(saturate_frames)),
            ("rounds", Json::from(rounds as u64)),
            // The rounds themselves, so the modes can be seen.
            ("round_items_per_s", numbers(&round_rates)),
            ("round_tax_ratio", numbers(&round_tax)),
            (
                "round_latency_p50_ms",
                numbers(&per_round.iter().map(|s| s.p50).collect::<Vec<_>>()),
            ),
            (
                "reference_slice_us_per_frame",
                numbers(
                    &reference_frame_s
                        .iter()
                        .map(|s| s * 1e6)
                        .collect::<Vec<_>>(),
                ),
            ),
            ("gen_late_ms_p95", Json::from(late_p95)),
            // A generator that ran later than a tenth of the cadence did
            // not produce the load it claims: the paced phase is invalid.
            ("paced_valid", Json::from(late_p95 <= cadence_ms / 10.0)),
        ],
        spans,
    })
}

pub fn stream_local(cfg: &RunCfg) -> Result<RunData, String> {
    run_stream::<LocalRig>(cfg)
}

pub fn serve_tcp(cfg: &RunCfg) -> Result<RunData, String> {
    run_stream::<RemoteRig>(cfg)
}

/// The fixed constants of the workloads, for the ledger document.
pub fn constants() -> Json {
    let n = |v: usize| Json::from(v as u64);
    crate::json::obj([
        ("quality", n(QUALITY as usize)),
        ("fast_dct", Json::from(true)),
        ("cif", Json::Arr(vec![n(CIF.0), n(CIF.1)])),
        ("cif_frames_per_job", Json::from(CIF_FRAMES_PER_JOB)),
        ("mjpeg_gc_window", Json::from(MJPEG_GC_WINDOW)),
        ("batch_workers", n(1)),
        ("kmeans_n", n(KMEANS_N)),
        ("kmeans_k", n(KMEANS_K)),
        ("kmeans_dim", n(KMEANS_DIM)),
        ("kmeans_iterations", Json::from(KMEANS_ITERATIONS)),
        ("stream_side", n(STREAM_SIDE)),
        ("stream_sessions", n(STREAM_SESSIONS)),
        ("stream_workers", n(STREAM_WORKERS)),
        ("stream_window", n(STREAM_WINDOW)),
        ("stream_gc_window", Json::from(STREAM_GC_WINDOW)),
        ("stream_distinct_frames", n(STREAM_DISTINCT_FRAMES)),
        (
            "paced_period_ms",
            Json::from(PACED_PERIOD.as_secs_f64() * 1e3),
        ),
        ("paced_share", Json::from(PACED_SHARE)),
        ("saturate_share", Json::from(SATURATE_SHARE)),
    ])
}
