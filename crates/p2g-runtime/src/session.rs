//! The resident streaming runtime: many concurrent pipeline sessions over
//! unbounded input, on one shared worker pool.
//!
//! Batch mode answers "run this program to quiescence"; a media server
//! needs "keep this pipeline resident and push frames through it forever,
//! for many clients at once". A [`SessionRuntime`] owns a fixed
//! [`WorkerPool`]; each [`Session`] is one tenant pipeline attached to it:
//!
//! * [`Session::submit`] feeds one frame — its field parts are injected at
//!   the session's next age (the age axis *is* the frame axis, paper
//!   Section IV). Admission control caps in-flight ages per session:
//!   `submit` blocks (and [`Session::try_submit`] returns
//!   [`SubmitError::WouldBlock`]) while the cap is reached, which is also
//!   the backpressure path when the shared workers saturate — frames then
//!   complete slower than they arrive and the in-flight window fills.
//! * An analyzer **age watch** on the terminal kernel fires, in age order,
//!   when every instance of a frame's age has completed or been poisoned.
//!   The watch moves that frame's staged bytes from the [`SessionSink`]
//!   to the output queue ([`Session::poll_output`] / [`Session::recv`]);
//!   a poisoned frame (exhausted retries under a `frame_deadline`-style
//!   fault policy) yields a [`SessionOutput`] with `payload: None` so the
//!   consumer sees the drop instead of a stall.
//! * `RunLimits::streaming` keeps the node open across local quiescence
//!   and arms the age GC; together with the analyzer-state pruning this
//!   keeps resident memory flat over 10k+ frames — the soak tests assert
//!   the peak live-age count stays bounded.
//!
//! Fairness across tenants comes from the pool's age-ranked queue: ages
//! are per-session frame numbers, so a saturated session's deep backlog
//! ranks behind every other session's next frame.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use p2g_field::{Age, Buffer, FieldId, Region};

use crate::error::RuntimeError;
use crate::instrument::RunReport;
use crate::node::{FieldStore, NodeBuilder, NodeHandle};
use crate::options::RunLimits;
use crate::pool::{Qos, QosState, WorkerPool};
use crate::program::Program;

/// Completed-frame latencies kept for the percentile gauges (ring buffer).
const LATENCY_WINDOW: usize = 2048;

/// Staging area between a pipeline's terminal kernel and the session
/// output queue: the kernel body pushes each frame's encoded bytes here;
/// the age watch moves them to the session when the frame's age completes.
#[derive(Default)]
pub struct SessionSink {
    staged: Mutex<HashMap<u64, Vec<u8>>>,
}

impl SessionSink {
    /// Empty sink (wrap in an `Arc` and capture it in the terminal
    /// kernel's body).
    pub fn new() -> Arc<SessionSink> {
        Arc::new(SessionSink::default())
    }

    /// Stage `bytes` as the output of frame `age`.
    pub fn push(&self, age: u64, bytes: Vec<u8>) {
        self.staged.lock().insert(age, bytes);
    }

    /// Remove and return frame `age`'s staged bytes.
    pub fn take(&self, age: u64) -> Option<Vec<u8>> {
        self.staged.lock().remove(&age)
    }

    /// Number of staged frames not yet claimed.
    pub fn len(&self) -> usize {
        self.staged.lock().len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Configuration of one session.
#[derive(Clone)]
pub struct SessionConfig {
    /// Name of the terminal kernel whose age completion means "frame
    /// done" (the MJPEG `vlc/write`).
    pub output_kernel: String,
    /// Admission cap: maximum frames submitted but not yet completed.
    pub max_in_flight: usize,
    /// Age GC window passed to `RunLimits::streaming`.
    pub gc_window: u64,
    /// Where the terminal kernel stages its output, if it produces bytes.
    pub sink: Option<Arc<SessionSink>>,
    /// Enable structured run tracing for this session's node.
    pub trace: bool,
    /// Per-session QoS on the shared pool: priority class + fair-share
    /// weight. `None` keeps the neutral default rank (pure age ordering).
    pub qos: Option<Qos>,
    /// Called (on the analyzer thread, after the output is queued and the
    /// session's own waiters are signalled) each time a frame completes.
    /// For a host that multiplexes many sessions on one wait — the serve
    /// loop — so it can sleep on its own event source instead of polling
    /// [`Session::poll_output`]. Must be quick and must not block.
    pub on_output: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl SessionConfig {
    /// Config with defaults: 8 in-flight frames, GC window 16, no sink,
    /// no tracing.
    pub fn new(output_kernel: &str) -> SessionConfig {
        SessionConfig {
            output_kernel: output_kernel.to_string(),
            max_in_flight: 8,
            gc_window: 16,
            sink: None,
            trace: false,
            qos: None,
            on_output: None,
        }
    }

    /// Set the admission cap (at least 1).
    pub fn max_in_flight(mut self, n: usize) -> SessionConfig {
        self.max_in_flight = n.max(1);
        self
    }

    /// Set the age GC window.
    pub fn gc_window(mut self, w: u64) -> SessionConfig {
        self.gc_window = w;
        self
    }

    /// Attach the output sink the terminal kernel pushes into.
    pub fn sink(mut self, sink: Arc<SessionSink>) -> SessionConfig {
        self.sink = Some(sink);
        self
    }

    /// Enable structured tracing ([`crate::trace_check`] over a session
    /// trace).
    pub fn with_trace(mut self) -> SessionConfig {
        self.trace = true;
        self
    }

    /// Rank this session's pool work with a QoS class and weight.
    pub fn with_qos(mut self, qos: Qos) -> SessionConfig {
        self.qos = Some(qos);
        self
    }

    /// Ring `hook` whenever a frame of this session completes.
    pub fn on_output(mut self, hook: Arc<dyn Fn() + Send + Sync>) -> SessionConfig {
        self.on_output = Some(hook);
        self
    }
}

/// Receipt for one submitted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    /// The age (frame number) the frame was injected at.
    pub age: u64,
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The in-flight window is full ([`Session::try_submit`] only; the
    /// blocking [`Session::submit`] waits instead).
    WouldBlock,
    /// The session was closed or its node stopped (failure or external
    /// stop) — no more frames can be accepted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::WouldBlock => write!(f, "session in-flight window is full"),
            SubmitError::Closed => write!(f, "session is closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One completed frame, in age order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOutput {
    /// The frame's age (matches the submit [`Ticket`]).
    pub age: u64,
    /// The terminal kernel's staged bytes; `None` when the frame was
    /// dropped (poisoned after exhausting its retry budget) or when the
    /// pipeline stages no bytes.
    pub payload: Option<Vec<u8>>,
}

impl SessionOutput {
    /// True when the frame was dropped rather than produced.
    pub fn dropped(&self) -> bool {
        self.payload.is_none()
    }
}

/// Final accounting of one session.
pub struct SessionReport {
    /// The node's run report (instruments, termination, optional trace).
    pub report: RunReport,
    /// Final field contents (usually empty in streaming mode — GC retired
    /// the processed ages).
    pub fields: FieldStore,
    /// Frames accepted by `submit`.
    pub frames_submitted: u64,
    /// Frames whose age completed (including dropped ones).
    pub frames_completed: u64,
    /// Frames that completed poisoned (no payload).
    pub frames_dropped: u64,
}

struct SessionState {
    next_age: u64,
    in_flight: usize,
    completed: u64,
    dropped: u64,
    ready: VecDeque<SessionOutput>,
    closed: bool,
    /// Submit timestamps of in-flight frames, keyed by age (removed on
    /// completion — bounded by the in-flight window).
    submit_times: HashMap<u64, Instant>,
    /// Submit→completion latencies (nanoseconds) of the most recent
    /// [`LATENCY_WINDOW`] completed frames.
    latencies: VecDeque<u64>,
    /// When the first frame was submitted (fps gauge baseline).
    first_submit: Option<Instant>,
}

/// A live per-tenant gauge snapshot ([`Session::metrics`]): the numbers a
/// serving node exports per session over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionMetrics {
    /// Frames accepted by submit so far.
    pub frames_submitted: u64,
    /// Frames whose age completed (including dropped ones).
    pub frames_completed: u64,
    /// Frames that completed poisoned (no payload).
    pub frames_dropped: u64,
    /// Frames submitted but not yet completed.
    pub in_flight: u64,
    /// Completed frames per second since the first submit, in millihertz
    /// (frames per 1000 s) so the gauge stays integral on the wire.
    pub fps_milli: u64,
    /// Median submit→completion latency over the recent window, in
    /// nanoseconds (0 until a frame completes).
    pub p50_latency_ns: u64,
    /// 95th-percentile submit→completion latency, in nanoseconds.
    pub p95_latency_ns: u64,
    /// Live `(field, age)` slabs resident in the session's node.
    pub resident_ages: u64,
    /// Resident field bytes in the session's node.
    pub resident_bytes: u64,
    /// Dispatch units this session has sent to the shared pool (0 without
    /// QoS — the neutral rank path does not count).
    pub dispatched_units: u64,
}

struct SessionShared {
    state: Mutex<SessionState>,
    /// Signalled when the in-flight window shrinks (admission), and when
    /// the session closes or its node stops.
    submit_cv: Condvar,
    /// Signalled when an output becomes ready (and on completion, for the
    /// drain loop), and when the session closes or its node stops.
    output_cv: Condvar,
}

impl SessionShared {
    /// Wake every waiter so it re-checks its condition. Taking the state
    /// lock first means a waiter is either not yet checking (and will see
    /// the new state) or already parked on a condvar (and gets the signal).
    fn wake_all(&self) {
        let _g = self.state.lock();
        self.submit_cv.notify_all();
        self.output_cv.notify_all();
    }
}

/// One tenant pipeline of a [`SessionRuntime`]: an unbounded stream of
/// frames through a resident program. Created by [`SessionRuntime::open`].
pub struct Session {
    node: NodeHandle,
    shared: Arc<SessionShared>,
    fields_by_name: HashMap<String, FieldId>,
    max_in_flight: usize,
    qos_state: Option<Arc<QosState>>,
}

impl Session {
    /// Resolve a field name to the id expected by [`Session::submit`]
    /// parts.
    pub fn field_id(&self, name: &str) -> Option<FieldId> {
        self.fields_by_name.get(name).copied()
    }

    /// Submit one frame, blocking while the in-flight window is full.
    /// The parts are stored into the session's fields at the frame's age.
    /// Errors with [`SubmitError::Closed`] once the session is closed or
    /// its node stopped.
    pub fn submit(&self, parts: Vec<(FieldId, Region, Buffer)>) -> Result<Ticket, SubmitError> {
        self.admit(parts, true)
    }

    /// Non-blocking submit: [`SubmitError::WouldBlock`] when the window is
    /// full.
    pub fn try_submit(
        &self,
        parts: Vec<(FieldId, Region, Buffer)>,
    ) -> Result<Ticket, SubmitError> {
        self.admit(parts, false)
    }

    /// Admit one frame at the next age, waiting for room in the in-flight
    /// window when `wait` is set and refusing with
    /// [`SubmitError::WouldBlock`] otherwise, then store its parts.
    fn admit(
        &self,
        parts: Vec<(FieldId, Region, Buffer)>,
        wait: bool,
    ) -> Result<Ticket, SubmitError> {
        let age = {
            let mut g = self.shared.state.lock();
            loop {
                if g.closed || self.node.is_stopped() {
                    return Err(SubmitError::Closed);
                }
                if g.in_flight < self.max_in_flight {
                    break;
                }
                if !wait {
                    return Err(SubmitError::WouldBlock);
                }
                // A completion, a close or the node's stop signals this.
                self.shared.submit_cv.wait(&mut g);
            }
            let age = g.next_age;
            g.next_age += 1;
            g.in_flight += 1;
            let now = Instant::now();
            g.first_submit.get_or_insert(now);
            g.submit_times.insert(age, now);
            age
        };
        for (field, region, buffer) in parts {
            self.node
                .inject_remote_store(field, Age(age), region, buffer);
        }
        Ok(Ticket { age })
    }

    /// Next completed frame, if one is ready (frames complete in age
    /// order).
    pub fn poll_output(&self) -> Option<SessionOutput> {
        self.shared.state.lock().ready.pop_front()
    }

    /// Blocking receive with a timeout. `None` when the timeout elapses
    /// with nothing ready, or when the session can produce no more output
    /// (closed and drained, or its node stopped).
    /// A timeout too large to be a point in time (`Duration::MAX`) waits
    /// with no deadline.
    pub fn recv(&self, timeout: Duration) -> Option<SessionOutput> {
        let deadline = Instant::now().checked_add(timeout);
        let mut g = self.shared.state.lock();
        loop {
            if let Some(out) = g.ready.pop_front() {
                return Some(out);
            }
            if (g.closed && g.in_flight == 0) || self.node.is_stopped() {
                return None;
            }
            match deadline {
                Some(deadline) => {
                    if self
                        .shared
                        .output_cv
                        .wait_until(&mut g, deadline)
                        .timed_out()
                    {
                        return g.ready.pop_front();
                    }
                }
                None => self.shared.output_cv.wait(&mut g),
            }
        }
    }

    /// Frames submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.shared.state.lock().in_flight
    }

    /// Live `(field, age)` slabs resident in this session's node — the
    /// flat-memory gauge (bounded by the GC window while streaming).
    pub fn resident_ages(&self) -> usize {
        self.node.resident_ages()
    }

    /// Resident field bytes in this session's node.
    pub fn bytes_resident(&self) -> usize {
        self.node.bytes_resident()
    }

    /// True once the session's node recorded a fatal failure.
    pub fn has_failed(&self) -> bool {
        self.node.has_failed()
    }

    /// Snapshot the per-tenant gauges: throughput, latency percentiles,
    /// drops and residency — what a serving node exports per session.
    pub fn metrics(&self) -> SessionMetrics {
        let (submitted, completed, dropped, in_flight, fps_milli, p50, p95) = {
            let g = self.shared.state.lock();
            let fps_milli = match g.first_submit {
                Some(t0) if g.completed > 0 => {
                    let secs = t0.elapsed().as_secs_f64().max(1e-9);
                    (g.completed as f64 * 1000.0 / secs) as u64
                }
                _ => 0,
            };
            let (p50, p95) = if g.latencies.is_empty() {
                (0, 0)
            } else {
                let mut sorted: Vec<u64> = g.latencies.iter().copied().collect();
                sorted.sort_unstable();
                let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q) as usize];
                (at(0.50), at(0.95))
            };
            (
                g.next_age,
                g.completed,
                g.dropped,
                g.in_flight as u64,
                fps_milli,
                p50,
                p95,
            )
        };
        SessionMetrics {
            frames_submitted: submitted,
            frames_completed: completed,
            frames_dropped: dropped,
            in_flight,
            fps_milli,
            p50_latency_ns: p50,
            p95_latency_ns: p95,
            resident_ages: self.node.resident_ages() as u64,
            resident_bytes: self.node.bytes_resident() as u64,
            dispatched_units: self
                .qos_state
                .as_ref()
                .map(|q| q.units_dispatched())
                .unwrap_or(0),
        }
    }

    /// Refuse further submissions; in-flight frames keep completing.
    pub fn close(&self) {
        self.shared.state.lock().closed = true;
        self.shared.wake_all();
    }

    /// Close, drain in-flight frames (bounded by `drain_timeout`), stop
    /// the node and collect the final accounting. Completed outputs not
    /// yet claimed are still in the report's counts; claim them with
    /// [`Session::poll_output`] before finishing if the bytes matter.
    pub fn finish(self, drain_timeout: Duration) -> Result<SessionReport, RuntimeError> {
        self.close();
        // `Duration::MAX` drains with no deadline.
        let deadline = Instant::now().checked_add(drain_timeout);
        {
            let mut g = self.shared.state.lock();
            while g.in_flight > 0 && !self.node.is_stopped() {
                match deadline {
                    Some(deadline) => {
                        if self
                            .shared
                            .output_cv
                            .wait_until(&mut g, deadline)
                            .timed_out()
                        {
                            break;
                        }
                    }
                    None => self.shared.output_cv.wait(&mut g),
                }
            }
        }
        self.node.request_stop();
        let (report, fields, err) = self.node.finish();
        if let Some(e) = err {
            return Err(e);
        }
        let g = self.shared.state.lock();
        Ok(SessionReport {
            report,
            fields,
            frames_submitted: g.next_age,
            frames_completed: g.completed,
            frames_dropped: g.dropped,
        })
    }
}

/// The resident multi-tenant runtime: a shared worker pool hosting many
/// concurrent [`Session`]s (and pool-attached batch nodes).
pub struct SessionRuntime {
    pool: Arc<WorkerPool>,
}

impl SessionRuntime {
    /// A runtime with `workers` pool threads shared by every session.
    pub fn new(workers: usize) -> SessionRuntime {
        SessionRuntime {
            pool: WorkerPool::new(workers),
        }
    }

    /// Number of shared worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Ready units currently queued across all tenants.
    pub fn backlog(&self) -> usize {
        self.pool.backlog()
    }

    /// Open a session: launch `program` as a resident pool-attached node
    /// with an age watch on the configured output kernel.
    pub fn open(&self, program: Program, config: SessionConfig) -> Result<Session, RuntimeError> {
        let fields_by_name: HashMap<String, FieldId> = program
            .spec
            .fields
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), FieldId(i as u32)))
            .collect();
        let shared = Arc::new(SessionShared {
            state: Mutex::new(SessionState {
                next_age: 0,
                in_flight: 0,
                completed: 0,
                dropped: 0,
                ready: VecDeque::new(),
                closed: false,
                submit_times: HashMap::new(),
                latencies: VecDeque::new(),
                first_submit: None,
            }),
            submit_cv: Condvar::new(),
            output_cv: Condvar::new(),
        });
        let watch_shared = shared.clone();
        let sink = config.sink.clone();
        let on_output = config.on_output.clone();
        let watch = Arc::new(move |age: u64, poisoned: bool| {
            // Analyzer thread. The terminal kernel is ordered and its sink
            // push happens-before its UnitDone, so the staged bytes (when
            // the frame wasn't dropped) are present here.
            let payload = if poisoned {
                // Discard any partial staging of a dropped frame.
                if let Some(s) = &sink {
                    s.take(age);
                }
                None
            } else {
                sink.as_ref().and_then(|s| s.take(age))
            };
            let mut g = watch_shared.state.lock();
            g.in_flight = g.in_flight.saturating_sub(1);
            g.completed += 1;
            if poisoned {
                g.dropped += 1;
            }
            if let Some(t0) = g.submit_times.remove(&age) {
                if g.latencies.len() >= LATENCY_WINDOW {
                    g.latencies.pop_front();
                }
                let lat = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                g.latencies.push_back(lat);
            }
            g.ready.push_back(SessionOutput { age, payload });
            drop(g);
            watch_shared.submit_cv.notify_all();
            watch_shared.output_cv.notify_all();
            if let Some(hook) = &on_output {
                hook();
            }
        });
        let mut limits = RunLimits::streaming(config.gc_window);
        if config.trace {
            limits = limits.with_trace();
        }
        let qos_state = config.qos.map(QosState::new);
        let stop_shared = shared.clone();
        let mut builder = NodeBuilder::new(program)
            .pool(self.pool.clone())
            .watch_ages(&config.output_kernel, watch)
            .on_stop(Box::new(move || stop_shared.wake_all()));
        if let Some(q) = &qos_state {
            builder = builder.qos_state(q.clone());
        }
        let node = builder.launch(limits)?;
        Ok(Session {
            node,
            shared,
            fields_by_name,
            max_in_flight: config.max_in_flight,
            qos_state,
        })
    }

    /// Launch a *batch* program on the shared pool (source-driven, normal
    /// run limits): N copies of a compiled program share the pool as
    /// independent tenants, beside any open stream sessions.
    pub fn launch_batch(
        &self,
        program: Program,
        limits: RunLimits,
    ) -> Result<NodeHandle, RuntimeError> {
        NodeBuilder::new(program).pool(self.pool.clone()).launch(limits)
    }

    /// Close the pool queue and join the workers (sessions should be
    /// finished first; their queued units drain before the join).
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }
}
