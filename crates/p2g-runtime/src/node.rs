//! The execution node: a dependency-analyzer thread feeding a worker pool.
//!
//! Threading model (paper Section VI-B): kernel instances execute on the
//! threads of a [`WorkerPool`] — the node's own, or one shared with other
//! tenants — and publish store events; dependencies are analyzed on one
//! dedicated analyzer thread, fed by one event channel, which feeds the
//! pool's age-priority queue. The analyzer thread is also the node's one
//! clock: it holds delayed retries until they are due and watches the run
//! deadline, sleeping on its channel until the next event or timed action.
//! A soft deadline needs no thread at all — it is a clock read in the
//! body. Termination uses an outstanding-work counter: every event and
//! dispatch unit is counted before it is made visible, so the count can
//! only reach zero when the program is quiescent.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use p2g_field::{Age, Buffer, DimSel, Field, FieldId, Region, Value};
use p2g_graph::spec::IndexSel;
use p2g_graph::{KernelId, ProgramSpec};

use crate::analyzer::{AgeWatchFn, DependencyAnalyzer, SharedFields};
use crate::error::RuntimeError;
use crate::events::{Event, StoreEvent};
use crate::granularity::GranularityController;
use crate::instance::DispatchUnit;
use crate::instrument::{Instruments, InstrumentsSnapshot, RunReport, Termination};
use crate::options::{ExhaustPolicy, FaultPolicy, RunLimits};
use crate::pool::{PoolTask, QosState, WorkerPool};
use crate::program::{
    resolve_region, BodyResult, FetchSlot, FusionPlan, KernelBody, KernelCtx, Program, StagedStore,
};
use crate::timer::TimerTable;
use crate::trace::{store_event, RunTrace, TraceEvent, Tracer, TRACE_CAPACITY};

thread_local! {
    /// True while this worker thread is inside a (contained) kernel body.
    static IN_KERNEL: Cell<bool> = const { Cell::new(false) };
    /// This thread's trace-buffer id (workers `0..n`, then analyzer and
    /// the launching thread). Set once at thread start.
    static TRACE_TID: Cell<u32> = const { Cell::new(0) };
}

static PANIC_HOOK: Once = Once::new();

/// Chain a process-wide panic hook that suppresses the default backtrace
/// noise for panics contained by the kernel-body `catch_unwind` — those
/// become structured failures, not crashes. Panics anywhere else keep the
/// previous hook's behaviour.
fn install_contained_panic_hook() {
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_KERNEL.with(|c| c.get()) {
                prev(info);
            }
        }));
    });
}

/// Human-readable message out of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "kernel body panicked".to_string()
    }
}

/// Called after every successful local store (distributed mode forwards
/// the data to subscriber nodes through this hook).
pub type StoreTap = Arc<dyn Fn(FieldId, Age, &Region, &Buffer) + Send + Sync>;

/// Called each time the node is told to stop, right after the stop flag is
/// set (session mode: wakes the session's waiters).
pub(crate) type StopHook = Box<dyn Fn() + Send + Sync>;

pub(crate) struct Shared {
    spec: Arc<ProgramSpec>,
    bodies: Vec<Option<KernelBody>>,
    /// Per kernel: where each fetch's buffers sit in a unit's inputs.
    fetch_layouts: Vec<Box<[FetchSlot]>>,
    fusions: Vec<FusionPlan>,
    fields: SharedFields,
    /// The analyzer's event channel. Workers publish through
    /// [`Shared::send_event`].
    event_tx: Sender<Event>,
    /// Events + queued units not yet fully processed. Zero ⇒ quiescent.
    outstanding: AtomicI64,
    stop: AtomicBool,
    failure: Mutex<Option<RuntimeError>>,
    instruments: Instruments,
    timers: Arc<TimerTable>,
    store_tap: Option<StoreTap>,
    /// Distributed mode: quiescence is decided by the cluster coordinator.
    hold_open: bool,
    /// Distributed mode: local stores go through write-once dedup so
    /// kernel re-execution after a node failure is idempotent.
    dedup_stores: bool,
    /// Per-kernel fault policies (indexed by `KernelId::idx`).
    fault: Vec<FaultPolicy>,
    /// Run by every [`Shared::shutdown`] ([`NodeBuilder::on_stop`]).
    on_stop: Option<StopHook>,
    /// Structured event tracing; `None` keeps the hot path at one branch
    /// per would-be event.
    tracer: Option<Arc<Tracer>>,
    /// Where this node's ready units run.
    pool: Arc<WorkerPool>,
    /// Decided at launch: the pool was created for this node alone, so
    /// the node closes it on stop and joins it on finish. A shared pool is
    /// never touched by a node's shutdown.
    owns_pool: bool,
    /// The online chunk-size controller, ticked by the analyzer thread
    /// ([`RunLimits::adaptive`]).
    granularity: Option<Arc<GranularityController>>,
    /// Per-session QoS rank source (session mode): the pool stamps each
    /// submitted unit with this state's (class, vtime).
    qos: Option<Arc<QosState>>,
}

impl Shared {
    /// Record a trace event into the calling thread's buffer. The closure
    /// is only evaluated when tracing is enabled.
    #[inline]
    fn trace(&self, event: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &self.tracer {
            t.record(TRACE_TID.with(|c| c.get()), event());
        }
    }
    /// Release one unit of outstanding work. The counter can reach zero on
    /// *any* thread (the analyzer may process a unit's completion event
    /// before the unit releases its own count), so every decrementer must
    /// perform the quiescence check.
    fn release_outstanding(&self) {
        if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 && !self.hold_open {
            self.shutdown();
        }
    }

    /// Stop every thread of the node: flag stop, close its own pool's
    /// queue (without joining: this runs on pool threads too), wake the
    /// analyzer with an uncounted event (it releases the retries it still
    /// holds as it exits), and run the stop hook.
    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if self.owns_pool {
            self.pool.close();
        }
        let _ = self.event_tx.send(Event::Wake);
        if let Some(hook) = &self.on_stop {
            hook();
        }
    }

    fn fail(&self, err: RuntimeError) {
        let mut g = self.failure.lock();
        if g.is_none() {
            *g = Some(err);
        }
        drop(g);
        self.shutdown();
    }

    fn has_failed(&self) -> bool {
        self.failure.lock().is_some()
    }

    /// The node's QoS rank source, if any (set in session mode).
    pub(crate) fn qos(&self) -> Option<&Arc<QosState>> {
        self.qos.as_ref()
    }

    /// Queue a counted ready unit on this node's pool.
    fn dispatch(self: &Arc<Self>, unit: DispatchUnit) {
        self.pool.submit(self.clone(), unit);
    }

    /// Publish an event to the analyzer. It is counted as outstanding work
    /// before it is sent, so the analyzer cannot observe a transient zero.
    fn send_event(&self, ev: Event) {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        let _ = self.event_tx.send(ev);
    }
}

/// One tick of a pool worker: execute a queued unit against its owning
/// node. The worker's trace id is set per tick because consecutive ticks
/// may belong to different nodes (different tracers).
pub(crate) fn pool_worker_tick(worker: u32, task: PoolTask) {
    TRACE_TID.with(|c| c.set(worker));
    run_unit(&task.shared, task.unit);
}

/// Read access to a program's fields after a run (results extraction).
pub struct FieldStore {
    fields: Vec<Field>,
    by_name: HashMap<String, usize>,
}

impl FieldStore {
    fn new(fields: Vec<Field>, spec: &ProgramSpec) -> FieldStore {
        let by_name = spec
            .fields
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i))
            .collect();
        FieldStore { fields, by_name }
    }

    /// Fetch a region by field name.
    pub fn fetch(&self, name: &str, age: Age, region: &Region) -> Option<Buffer> {
        let id = *self.by_name.get(name)?;
        self.fields[id].fetch(age, region).ok()
    }

    /// Fetch one element by field name.
    pub fn fetch_element(&self, name: &str, age: Age, index: &[usize]) -> Option<Value> {
        let id = *self.by_name.get(name)?;
        self.fields[id].fetch_element(age, index).ok()
    }

    /// Direct access to a field by id.
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.idx()]
    }

    /// Direct access by name.
    pub fn field_by_name(&self, name: &str) -> Option<&Field> {
        let id = *self.by_name.get(name)?;
        Some(&self.fields[id])
    }
}

/// Builder for launching an execution node — the single entry point.
///
/// ```ignore
/// let report = NodeBuilder::new(program)
///     .workers(4)
///     .launch(RunLimits::ages(10))?
///     .wait()?;
/// ```
pub struct NodeBuilder {
    program: Program,
    workers: usize,
    store_tap: Option<StoreTap>,
    assigned: Option<std::collections::HashSet<KernelId>>,
    pool: Option<Arc<WorkerPool>>,
    watches: Vec<(String, AgeWatchFn)>,
    qos: Option<Arc<QosState>>,
    on_stop: Option<StopHook>,
}

impl NodeBuilder {
    /// Build a node for `program` (one worker unless overridden).
    pub fn new(program: Program) -> NodeBuilder {
        NodeBuilder {
            program,
            workers: 1,
            store_tap: None,
            assigned: None,
            pool: None,
            watches: Vec::new(),
            qos: None,
            on_stop: None,
        }
    }

    /// Number of threads in the node's own worker pool (the analyzer
    /// threads are extra). Ignored when the node is attached to a shared
    /// [`WorkerPool`].
    pub fn workers(mut self, workers: usize) -> NodeBuilder {
        self.workers = workers.max(1);
        self
    }

    /// Attach this node to a shared worker pool instead of creating one of
    /// its own: its ready units rank against every other attached node's
    /// by age, and its shutdown leaves the pool running. This is how
    /// [`crate::session::SessionRuntime`] hosts many tenants on one fixed
    /// thread set.
    pub(crate) fn pool(mut self, pool: Arc<WorkerPool>) -> NodeBuilder {
        self.pool = Some(pool);
        self
    }

    /// Rank this node's pool submissions with a per-session QoS state
    /// (session mode only; no effect without [`NodeBuilder::pool`]).
    pub(crate) fn qos_state(mut self, qos: Arc<QosState>) -> NodeBuilder {
        self.qos = Some(qos);
        self
    }

    /// Watch a kernel's age frontier: `callback(age, poisoned)` fires on the
    /// analyzer thread each time every instance of `kernel` at `age` has
    /// completed (or been poisoned), in strictly increasing age order. The
    /// session layer uses a watch on the terminal kernel to learn when a
    /// frame's output is ready.
    pub(crate) fn watch_ages(mut self, kernel: &str, callback: AgeWatchFn) -> NodeBuilder {
        self.watches.push((kernel.to_string(), callback));
        self
    }

    /// Run `hook` each time the node is told to stop, right after its stop
    /// flag is set, on whichever thread stops it. The session layer wakes
    /// its blocked `submit`/`recv`/`finish` callers with it, so none waits
    /// on a clock for a failed node. Must be quick, and may take a lock
    /// only if no thread stops the node while holding it.
    pub(crate) fn on_stop(mut self, hook: StopHook) -> NodeBuilder {
        self.on_stop = Some(hook);
        self
    }

    /// Install a store tap: called after every successful local store with
    /// the stored region and data (cluster store forwarding).
    pub fn store_tap(mut self, tap: StoreTap) -> NodeBuilder {
        self.store_tap = Some(tap);
        self
    }

    /// Restrict this node to a subset of the program's kernels
    /// (distributed mode — the HLS decides the assignment).
    pub fn assigned(mut self, assigned: std::collections::HashSet<KernelId>) -> NodeBuilder {
        self.assigned = Some(assigned);
        self
    }

    /// Start the node's threads and return the interaction handle
    /// ([`NodeHandle::wait`], [`NodeHandle::collect`], [`NodeHandle::request_stop`],
    /// remote-store injection, reassignment).
    pub fn launch(self, limits: RunLimits) -> Result<NodeHandle, RuntimeError> {
        self.program.check_bodies()?;
        // Kernel assignment implies cluster mode: local stores may be
        // legitimately repeated (recovery re-execution), so they dedup.
        let dedup_stores = self.assigned.is_some();
        let Program {
            spec,
            bodies,
            options,
            fusions,
            timers,
        } = self.program;

        let fields: SharedFields = Arc::new(
            spec.fields
                .iter()
                .enumerate()
                .map(|(i, d)| RwLock::new(Field::new(FieldId(i as u32), d.clone())))
                .collect(),
        );
        let (event_tx, events_rx) = unbounded::<Event>();
        let fault: Vec<FaultPolicy> = options.iter().map(|o| o.fault.clone()).collect();

        // Resolve age watches up front.
        let mut watch_ids: Vec<(KernelId, AgeWatchFn)> = Vec::new();
        for (name, callback) in self.watches {
            let Some(idx) = spec.kernels.iter().position(|k| k.name == name) else {
                return Err(RuntimeError::Kernel {
                    kernel: name,
                    message: "unknown kernel in watch_ages".into(),
                });
            };
            watch_ids.push((KernelId(idx as u32), callback));
        }
        let fused_consumers: HashSet<KernelId> = fusions.iter().map(|f| f.consumer).collect();
        let granularity = limits.adaptive.as_ref().map(|cfg| {
            let adaptive = GranularityController::eligibility(&spec, &options, &fusions);
            Arc::new(GranularityController::new(cfg.clone(), &options, adaptive))
        });

        // A node without a shared pool gets one of its own.
        let (pool, owns_pool) = match self.pool {
            Some(pool) => (pool, false),
            None => (WorkerPool::new(self.workers), true),
        };
        // Trace buffer ids: the pool's workers 0..n, then the analyzer,
        // main, and last `remote` (stores injected from outside the node,
        // whichever thread delivers them).
        let worker_slots = pool.workers();
        let analyzer_tid = worker_slots as u32;
        let main_tid = analyzer_tid + 1;
        let tracer = limits.trace.then(|| {
            let mut labels: Vec<String> = (0..worker_slots).map(|w| format!("worker-{w}")).collect();
            labels.push("analyzer".into());
            labels.push("main".into());
            labels.push("remote".into());
            Arc::new(Tracer::new(labels, TRACE_CAPACITY))
        });
        install_contained_panic_hook();
        let shared = Arc::new(Shared {
            spec: spec.clone(),
            bodies,
            fetch_layouts: spec.kernels.iter().map(FetchSlot::layout).collect(),
            fusions: fusions.clone(),
            fields: fields.clone(),
            event_tx,
            outstanding: AtomicI64::new(0),
            stop: AtomicBool::new(false),
            failure: Mutex::new(None),
            instruments: Instruments::new(
                spec.kernels
                    .iter()
                    .map(|k| (k.name.clone(), k.stores.iter().map(|s| s.field).collect()))
                    .collect(),
            ),
            timers,
            store_tap: self.store_tap.clone(),
            hold_open: limits.hold_open,
            dedup_stores,
            fault,
            on_stop: self.on_stop,
            tracer: tracer.clone(),
            pool,
            owns_pool,
            granularity: granularity.clone(),
            qos: self.qos.clone(),
        });

        let mut analyzer = DependencyAnalyzer::new(
            spec.clone(),
            options,
            fused_consumers,
            fields.clone(),
            limits.clone(),
        );
        analyzer.set_fusions(&fusions);
        if let Some(assigned) = self.assigned {
            analyzer.set_assigned(assigned);
        }
        if let Some(t) = &tracer {
            analyzer.set_tracer(t.clone(), analyzer_tid);
        }
        if let Some(g) = &granularity {
            analyzer.set_granularity(g.clone());
        }
        for (kid, callback) in watch_ids {
            analyzer.set_age_watch(kid, callback);
        }

        let start = Instant::now();

        // Seed source kernels before any worker can observe an empty
        // queue.
        TRACE_TID.with(|c| c.set(main_tid));
        for unit in analyzer.seed() {
            for indices in &unit.instances {
                shared.trace(|| TraceEvent::InstanceDispatched {
                    kernel: unit.kernel,
                    age: unit.age.0,
                    indices: indices.clone(),
                });
            }
            shared.outstanding.fetch_add(1, Ordering::SeqCst);
            shared.dispatch(unit);
        }
        // A program with no sources is quiescent immediately (unless it
        // waits for remote stores).
        if shared.outstanding.load(Ordering::SeqCst) == 0 && !limits.hold_open {
            shared.shutdown();
        }

        // The analyzer thread. It polls (see `ANALYZER_POLL`) only when it
        // can have a core to itself: the node owns its pool, and the pool's
        // workers plus the analyzer fit the machine. A shared pool's
        // workers serve other tenants' analyzers too, so those never do.
        let deadline = limits.wall_deadline.map(|d| start + d);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let poll = shared.owns_pool && shared.pool.workers() < cores;
        let analyzer_shared = shared.clone();
        let analyzer_handle = std::thread::Builder::new()
            .name("p2g-analyzer".into())
            .spawn(move || {
                TRACE_TID.with(|c| c.set(analyzer_tid));
                analyzer_loop(analyzer, analyzer_shared, events_rx, deadline, poll)
            })
            .expect("spawn analyzer");

        Ok(NodeHandle {
            shared,
            fields,
            spec,
            start,
            analyzer_handle,
        })
    }
}

/// A started execution node: inject remote stores, query quiescence, stop,
/// and finally join for the report and field contents.
pub struct NodeHandle {
    shared: Arc<Shared>,
    fields: SharedFields,
    spec: Arc<ProgramSpec>,
    start: Instant,
    analyzer_handle: std::thread::JoinHandle<Termination>,
}

impl NodeHandle {
    /// Forward a store produced on another node (or submitted to a
    /// session) into this node's field replicas. It lands like a local
    /// store, idempotently since remote forwards may duplicate, and its
    /// store event goes to the analyzer.
    /// A conflicting value means two nodes produced the same element
    /// differently; it fails the node. The store is traced on the node's
    /// `remote` buffer.
    pub fn inject_remote_store(&self, field: FieldId, age: Age, region: Region, buffer: Buffer) {
        let remote = self.shared.tracer.as_ref().map_or(0, |t| t.threads() - 1);
        let caller = TRACE_TID.with(|c| c.replace(remote as u32));
        let landed = land(&self.shared, None, field, age, region, &buffer, true);
        TRACE_TID.with(|c| c.set(caller));
        if let Err(e) = landed {
            self.shared.fail(e);
        }
    }

    /// Outstanding local work (events + queued + running units). Zero
    /// means locally quiescent (remote stores may still arrive).
    pub fn outstanding(&self) -> i64 {
        self.shared.outstanding.load(Ordering::SeqCst)
    }

    /// Ask the node to stop: used by the cluster coordinator once global
    /// quiescence is established, and for external cancellation.
    pub fn request_stop(&self) {
        self.shared.shutdown();
    }

    /// True once the node has recorded a fatal failure (a kernel abort or
    /// runtime malfunction) — it is shutting down, and in distributed mode
    /// its next status report tells the master. Kernel failures contained
    /// by a `Poison` fault policy do *not* set this; they only degrade.
    pub fn has_failed(&self) -> bool {
        self.shared.has_failed()
    }

    /// True once the node's stop flag is set (quiescence, failure, or an
    /// external [`NodeHandle::request_stop`]). The session layer checks it
    /// in each of its waits, and its stop hook wakes them when it flips.
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Total live `(field, age)` slabs across every field — the quantity
    /// the streaming soak tests assert stays bounded while ages advance.
    pub fn resident_ages(&self) -> usize {
        self.fields
            .iter()
            .map(|l| l.read().resident_ages().count())
            .sum()
    }

    /// Resident field memory in bytes (all fields, all live ages).
    pub fn bytes_resident(&self) -> usize {
        self.fields.iter().map(|l| l.read().bytes_resident()).sum()
    }

    /// Replace this node's kernel assignment (cluster recovery): the
    /// analyzer seeds newly-owned sources and rescans resident field data
    /// for instances that became this node's responsibility.
    pub fn reassign(&self, kernels: std::collections::HashSet<KernelId>) {
        self.shared.send_event(Event::Reassign { kernels });
    }

    /// Snapshot every written region of every resident field age. Cluster
    /// recovery replays these to the failed node's replacement subscribers;
    /// write-once dedup makes the replay idempotent.
    pub fn snapshot_written(&self) -> Vec<(FieldId, Age, Region, Buffer)> {
        let mut out = Vec::new();
        for (i, lock) in self.fields.iter().enumerate() {
            let field = lock.read();
            let ages: Vec<Age> = field.resident_ages().collect();
            for age in ages {
                for (region, buffer) in field.snapshot_written(age) {
                    out.push((FieldId(i as u32), age, region, buffer));
                }
            }
        }
        out
    }

    /// Wait for the node to finish; report only.
    pub fn wait(self) -> Result<RunReport, RuntimeError> {
        self.collect().map(|(r, _)| r)
    }

    /// Wait for the node to finish; report plus final field contents.
    pub fn collect(self) -> Result<(RunReport, FieldStore), RuntimeError> {
        let (report, fields, err) = self.finish();
        match err {
            Some(e) => Err(e),
            None => Ok((report, fields)),
        }
    }

    /// Non-failing join: wait for the node to finish and hand back the
    /// report, the field contents, and the failure (if any) side by side.
    /// A cluster coordinator uses this to salvage whatever a failed node
    /// produced instead of losing the report to the error path.
    pub fn finish(self) -> (RunReport, FieldStore, Option<RuntimeError>) {
        let NodeHandle {
            shared,
            fields,
            spec,
            start,
            analyzer_handle,
        } = self;
        let termination = analyzer_handle.join().unwrap_or_else(|_| {
            shared.fail(RuntimeError::WorkerPanic);
            Termination::Failed
        });
        // The analyzer has returned, so stop is set; make sure the node's
        // own pool winds down before collecting. The analyzer was the last
        // thread that could queue a unit, so nothing lands behind the join.
        shared.shutdown();
        if shared.owns_pool && !shared.pool.shutdown() {
            shared.fail(RuntimeError::WorkerPanic);
        }
        let wall_time = start.elapsed();

        let err = shared.failure.lock().take();
        let termination = if err.is_some() {
            Termination::Failed
        } else {
            termination
        };

        let trace: Option<RunTrace> = shared
            .tracer
            .as_ref()
            .map(|t| t.capture(shared.spec.clone()));
        let report = RunReport {
            termination,
            wall_time,
            instruments: InstrumentsSnapshot::capture(&shared.instruments),
            trace,
        };
        // All threads joined; on a shared pool, queued tasks may still
        // hold clones of this node's shared state (they drain in age order
        // and drop their clone as they run), so wait for the last clone to
        // go before unwrapping the fields.
        let weak = Arc::downgrade(&shared);
        drop(shared);
        while weak.strong_count() > 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
        let fields = Arc::try_unwrap(fields)
            .expect("no outstanding field references after join")
            .into_iter()
            .map(|l| l.into_inner())
            .collect();
        (report, FieldStore::new(fields, &spec), err)
    }
}

/// How long the analyzer polls its empty event channel before it
/// blocks on it. While units are outstanding the next store event is one
/// instance away (microseconds), and a blocked analyzer costs the storing
/// worker a futex wake-up — across cores an IPI — per event; on a
/// virtualised host that wake-up latency, not the work, decided how long
/// a fine-grained job took and varied from run to run. Only an analyzer with
/// a core to itself polls (decided at launch), and it yields between looks.
const ANALYZER_POLL: Duration = Duration::from_micros(50);

/// Maximum events the analyzer drains back-to-back before it
/// re-checks the stop flag, the deadline and the due retries, and records
/// a batch.
const ANALYZER_BATCH: usize = 256;

/// The analyzer thread: drain events into the analyzer, queue the units it
/// makes ready, and own the node's timed actions. Delayed retries arrive
/// on their unit's `UnitDone` and wait here, due-ordered, until the loop
/// head dispatches them; between events the thread sleeps until the
/// earlier of the next retry's due time and the run deadline, or with
/// neither, until the next event (a stop sends one).
fn analyzer_loop(
    mut analyzer: DependencyAnalyzer,
    shared: Arc<Shared>,
    events_rx: Receiver<Event>,
    deadline: Option<Instant>,
    poll: bool,
) -> Termination {
    use crossbeam::channel::RecvTimeoutError;
    // The non-failure exit status: quiescent, or degraded once any
    // instance was poisoned.
    let finished = |analyzer: &DependencyAnalyzer| {
        if analyzer.degraded() {
            Termination::Degraded
        } else {
            Termination::Quiescent
        }
    };
    // Retry units waiting out their backoff, keyed by (due, arrival) so
    // equal due times stay distinct. Each holds its outstanding count.
    let mut retries: BTreeMap<(Instant, u64), DispatchUnit> = BTreeMap::new();
    let mut arrivals = 0u64;
    let termination = 'run: loop {
        if shared.stop.load(Ordering::SeqCst) {
            // Either quiescent-stop (set below) or failure-stop.
            break if shared.has_failed() {
                Termination::Failed
            } else {
                finished(&analyzer)
            };
        }
        let now = Instant::now();
        if deadline.is_some_and(|d| now >= d) {
            shared.shutdown();
            break Termination::DeadlineExpired;
        }
        while let Some(entry) = retries.first_entry() {
            if entry.key().0 > now {
                break;
            }
            shared.dispatch(entry.remove());
        }
        // Adaptive granularity: the controller tick is interval-gated
        // internally, so this is one lock + compare on the idle path.
        granularity_tick(&shared);
        // Poll before blocking, but only while work is outstanding (an idle
        // node goes straight to the blocking receive).
        while poll
            && events_rx.is_empty()
            && shared.outstanding.load(Ordering::SeqCst) > 0
            && now.elapsed() < ANALYZER_POLL
        {
            std::thread::yield_now();
        }
        let next_due = retries.keys().next().map(|&(due, _)| due);
        let wake = next_due.into_iter().chain(deadline).min();
        let received = match wake {
            None => events_rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(t) => events_rx.recv_timeout(t.saturating_duration_since(Instant::now())),
        };
        let mut next = match received {
            Ok(Event::Wake) | Err(RecvTimeoutError::Timeout) => continue,
            Ok(ev) => Some(ev),
            Err(RecvTimeoutError::Disconnected) => break finished(&analyzer),
        };
        shared
            .instruments
            .record_queue_depth(events_rx.len() as u64 + 1);
        // Greedy batch drain: under a store storm the channel is never
        // empty, and handling a burst back-to-back keeps the analyzer's
        // accounting state cache-hot and skips the blocking-receive path.
        // The batch size bounds the time between deadline checks.
        // Outstanding work is still released per event so the quiescence
        // protocol is unchanged.
        let mut handled = 0usize;
        while let Some(ev) = next.take() {
            let t_event = Instant::now();
            let units = match analyzer.on_event(&ev) {
                Ok(units) => units,
                Err(e) => {
                    shared.fail(RuntimeError::Field(e));
                    break 'run Termination::Failed;
                }
            };
            shared
                .instruments
                .record_analyzer_event(t_event.elapsed(), analyzer.take_elements_walked());
            shared
                .instruments
                .record_gc(analyzer.take_gc_collected(), analyzer.live_ages() as u64);
            for (kid, age, indices) in analyzer.take_poisoned() {
                shared.trace(|| TraceEvent::Poisoned {
                    kernel: kid,
                    age,
                    indices: indices.clone(),
                });
                shared.instruments.record_poisoned(kid, age, &indices);
            }
            for unit in units {
                // Retry units are re-dispatches, not fresh analyzer
                // decisions (they are released at the loop head, untraced),
                // so every unit seen at this point is attempt 0.
                for indices in &unit.instances {
                    shared.trace(|| TraceEvent::InstanceDispatched {
                        kernel: unit.kernel,
                        age: unit.age.0,
                        indices: indices.clone(),
                    });
                }
                shared.outstanding.fetch_add(1, Ordering::SeqCst);
                shared.dispatch(unit);
            }
            if let Event::UnitDone {
                retry: Some((unit, due)),
                ..
            } = ev
            {
                retries.insert((due, arrivals), unit);
                arrivals += 1;
            }
            // This event is fully processed; the release may observe
            // quiescence. A stop ends the batch here: it is recorded, and
            // the loop head returns without another poll cycle.
            shared.release_outstanding();
            handled += 1;
            if handled < ANALYZER_BATCH && !shared.stop.load(Ordering::SeqCst) {
                next = events_rx
                    .try_recv()
                    .ok()
                    .filter(|ev| !matches!(ev, Event::Wake));
            }
        }
        shared.trace(|| TraceEvent::AnalyzerBatch { events: handled });
        shared.instruments.record_analyzer_batch();
    };
    // Retries that never became due die with the node: release their
    // counts.
    shared
        .outstanding
        .fetch_sub(retries.len() as i64, Ordering::SeqCst);
    termination
}

/// One controller tick ([`RunLimits::adaptive`]): differentiate the
/// instrument counters and publish every chunk-size decision as a
/// `GranularityChange` trace event. Called from the analyzer thread only,
/// so decisions are totally ordered.
fn granularity_tick(shared: &Arc<Shared>) {
    let Some(g) = &shared.granularity else { return };
    for ch in g.tick(&shared.instruments) {
        shared.instruments.record_granularity_change();
        shared.trace(|| TraceEvent::GranularityChange {
            kernel: ch.kernel,
            from: ch.from,
            to: ch.to,
            overhead_ppm: ch.overhead_ppm,
            p95_ns: ch.p95_ns,
        });
    }
}

/// Deterministic jitter salt for a retry: hashes the unit identity so
/// repeated runs back off identically.
fn retry_salt(unit: &DispatchUnit, failed: &[Vec<usize>]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    unit.kernel.0.hash(&mut h);
    unit.age.0.hash(&mut h);
    unit.attempt.hash(&mut h);
    failed.hash(&mut h);
    h.finish()
}

/// A worker's entry for one dispatch unit: execute it, turn a runtime
/// malfunction or an aborting kernel failure into the node's failure, and
/// release the unit's outstanding count.
fn run_unit(shared: &Arc<Shared>, unit: DispatchUnit) {
    // A failure-stop drains the queue without running stale units.
    let stale = shared.stop.load(Ordering::SeqCst) && shared.has_failed();
    if !stale {
        if let Err(err) = execute_unit(shared, unit) {
            shared.fail(err);
        }
    }
    // The UnitDone event is counted before the unit's own count is
    // released; the analyzer may nevertheless process it first, in which
    // case this thread's release is the one that observes quiescence.
    shared.release_outstanding();
}

/// The node's one executor; a one-instance unit is a batch of one. One
/// read lock per fetch declaration covers every instance, the kernel's one
/// body runs once per instance, back-to-back in segmented `catch_unwind`
/// frames, consecutive instances' stores into one declaration land as
/// one merged range store, and body failures go through the kernel's
/// fault policy per instance: batched into one delayed retry unit while
/// the budget lasts, then aborted or poisoned per [`ExhaustPolicy`]. A
/// failed instance's stores never land; its peers' land normally.
fn execute_unit(shared: &Arc<Shared>, unit: DispatchUnit) -> Result<(), RuntimeError> {
    let kernel = unit.kernel;
    let kspec = shared.spec.kernel(kernel);
    let policy = &shared.fault[kernel.idx()];
    let fusion = shared.fusions.iter().find(|f| f.producer == kernel);
    let n = unit.instances.len();
    let t_unit = Instant::now();
    let mut body_time = Duration::ZERO;

    // Buffers are copies — workers never hold field locks while running
    // kernel code. They live as long as the bodies. A fetch that names no
    // index variable is the same region for every instance: one copy.
    let layout = &shared.fetch_layouts[kernel.idx()];
    let once = layout.iter().filter(|f| f.invariant).count();
    let mut inputs = Vec::with_capacity(once + (layout.len() - once) * n);
    for (fe, f) in kspec.fetches.iter().zip(layout.iter()) {
        let age = fe.age.resolve(unit.age);
        let field = shared.fields[fe.field.idx()].read();
        let copies = if f.invariant { 1 } else { n };
        for indices in &unit.instances[..copies] {
            inputs.push(field.fetch(age, &resolve_region(&fe.dims, indices))?);
        }
    }
    let mut staged = Vec::new();
    let failures = run_bodies(
        shared,
        &unit,
        fusion,
        &inputs,
        &mut staged,
        &mut body_time,
    );
    drop(inputs);
    let ok_instances = n - failures.len();
    // An attempted store counts for source sequencing even when elided or
    // fully deduped.
    let stored_any = unit.prior_stored || !staged.is_empty();
    apply_stores(shared, &unit, fusion, staged, ok_instances >= 2)?;

    // Fault policy, per failed instance: retryable failures batch into one
    // delayed retry unit; exhausted ones abort or poison. Poison is per
    // instance — only the failed instance's downstream dependents are
    // quarantined.
    let mut failed: Vec<Vec<usize>> = Vec::new();
    for (slot, message) in failures {
        shared.instruments.record_failure(kernel);
        if unit.attempt < policy.retries {
            failed.push(unit.instances[slot].clone());
            continue;
        }
        match policy.on_exhaust {
            ExhaustPolicy::Abort => {
                return Err(RuntimeError::Kernel {
                    kernel: kspec.name.clone(),
                    message,
                })
            }
            ExhaustPolicy::Poison => {
                // Counted event: the analyzer quarantines the instance and
                // propagates poison to its dependents.
                shared.send_event(Event::KernelFailure {
                    kernel,
                    age: unit.age,
                    indices: unit.instances[slot].clone(),
                    message,
                });
            }
        }
    }

    let dispatch_time = t_unit.elapsed().saturating_sub(body_time);
    shared
        .instruments
        .record_unit(kernel, n as u64, dispatch_time, body_time);

    // The retry unit rides on this unit's UnitDone to the analyzer, which
    // re-dispatches it after the backoff delay. Its outstanding count is
    // taken here and held until the retry finishes (or the analyzer drops
    // it at stop), so quiescence cannot be observed while it is pending.
    let retry = (!failed.is_empty()).then(|| {
        shared.trace(|| TraceEvent::RetryScheduled {
            kernel,
            age: unit.age.0,
            instances: failed.len(),
            attempt: unit.attempt + 1,
            budget: policy.retries,
        });
        shared
            .instruments
            .record_retries(kernel, failed.len() as u64);
        let salt = retry_salt(&unit, &failed);
        let due = Instant::now() + policy.backoff_for(unit.attempt, salt);
        let retry = DispatchUnit {
            kernel,
            age: unit.age,
            instances: failed,
            attempt: unit.attempt + 1,
            prior_stored: stored_any,
        };
        shared.outstanding.fetch_add(1, Ordering::SeqCst);
        (retry, due)
    });

    // `instances` reports only this execution's successes — poisoned
    // instances are accounted by the analyzer, retried ones by the retry
    // unit's own UnitDone. It reaches the analyzer behind every store
    // event this thread published for the unit (one FIFO channel).
    shared.send_event(Event::UnitDone {
        kernel,
        age: unit.age,
        instances: ok_instances,
        stored_any,
        retry,
    });
    Ok(())
}

/// What a body segment is running, kept outside its `catch_unwind` frame
/// so a panic can be closed out.
#[derive(Default)]
struct InFlight {
    /// The running body's kernel and start time.
    body: Option<(KernelId, Instant)>,
    /// The running instance's soft deadline.
    deadline: Option<Instant>,
    /// `staged.len()` before the running instance's first body.
    mark: usize,
}

impl InFlight {
    /// Close the running instance, `unit`'s `slot`: record a deadline miss
    /// when it finished at or after its deadline and, when it failed, drop
    /// everything it staged.
    fn close(
        &mut self,
        shared: &Shared,
        unit: &DispatchUnit,
        slot: usize,
        failed: bool,
        staged: &mut Vec<StagedStore>,
    ) {
        if self.deadline.take().is_some_and(|d| Instant::now() >= d) {
            shared.instruments.record_deadline_miss(unit.kernel);
            shared.trace(|| TraceEvent::DeadlineMiss {
                kernel: unit.kernel,
                age: unit.age.0,
                indices: unit.instances[slot].clone(),
            });
        }
        if failed {
            staged.truncate(self.mark);
        }
    }
}

/// Run every instance's body — and a fusion producer's consumer after
/// each successful one — back-to-back inside as few `catch_unwind` frames
/// as possible: one frame covers every remaining instance, and a panic
/// fails only the instance that raised it; the next frame resumes right
/// after it, so no successful body re-runs. Each instance has its own
/// soft deadline, which a fused consumer shares. A failed instance's
/// staging, producer's and consumer's alike, is discarded; the failures
/// come back as `(slot, message)`.
fn run_bodies(
    shared: &Shared,
    unit: &DispatchUnit,
    fusion: Option<&FusionPlan>,
    inputs: &[Buffer],
    staged: &mut Vec<StagedStore>,
    body_time: &mut Duration,
) -> Vec<(usize, String)> {
    let kernel = unit.kernel;
    let kspec = shared.spec.kernel(kernel);
    let body = shared.bodies[kernel.idx()]
        .as_ref()
        .expect("bodies checked before run");
    let deadline = shared.fault[kernel.idx()].deadline;
    let n = unit.instances.len();
    let mut failures = Vec::new();
    let mut live = InFlight::default();
    // The fused consumer's index values, for the trace of a panic in it.
    let mut cidx: Vec<usize> = Vec::new();
    let mut next = 0;
    while next < n {
        IN_KERNEL.with(|c| c.set(true));
        let segment = std::panic::catch_unwind(AssertUnwindSafe(|| {
            while next < n {
                let indices = &unit.instances[next];
                live.mark = staged.len();
                // The body polls `ctx.cancelled()` against this instant.
                live.deadline = deadline.map(|d| Instant::now() + d);
                let mut ctx = KernelCtx {
                    spec: kspec,
                    age: unit.age,
                    indices,
                    slot: next,
                    inputs,
                    layout: &shared.fetch_layouts[kernel.idx()],
                    stride: n,
                    staged: &mut *staged,
                    timers: &shared.timers,
                    deadline: live.deadline,
                };
                let mut result =
                    call_body(shared, body, &mut ctx, unit.attempt, &mut live, body_time);
                if let (Ok(()), Some(plan)) = (&result, fusion) {
                    result = run_consumer(
                        shared, plan, unit, next, staged, &mut cidx, &mut live, body_time,
                    );
                }
                live.close(shared, unit, next, result.is_err(), staged);
                if let Err(message) = result {
                    failures.push((next, message));
                }
                next += 1;
            }
        }));
        IN_KERNEL.with(|c| c.set(false));
        if let Err(payload) = segment {
            // The panicking body is still in flight; close it out, then
            // fail its instance.
            if let Some((k, start)) = live.body.take() {
                let elapsed = start.elapsed();
                *body_time += elapsed;
                shared.instruments.record_latency(k, elapsed);
                let indices = if k == kernel {
                    &unit.instances[next]
                } else {
                    &cidx
                };
                shared.trace(|| TraceEvent::BodyEnd {
                    kernel: k,
                    age: unit.age.0,
                    indices: indices.clone(),
                    attempt: unit.attempt,
                    ok: false,
                });
            }
            live.close(shared, unit, next, true, staged);
            failures.push((next, format!("panic: {}", panic_message(payload.as_ref()))));
            next += 1;
        }
    }
    failures
}

/// Run one body between its BodyStart/BodyEnd trace pair and record its
/// latency. `live.body` names the body while it runs, so its segment can
/// close it out if it panics.
fn call_body(
    shared: &Shared,
    body: &KernelBody,
    ctx: &mut KernelCtx,
    attempt: u32,
    live: &mut InFlight,
    body_time: &mut Duration,
) -> BodyResult {
    let (kernel, age, indices) = (ctx.spec.id, ctx.age.0, ctx.indices);
    shared.trace(|| TraceEvent::BodyStart {
        kernel,
        age,
        indices: indices.to_vec(),
        attempt,
    });
    live.body = Some((kernel, Instant::now()));
    let result = body(ctx);
    let (_, start) = live.body.take().expect("set above");
    let elapsed = start.elapsed();
    *body_time += elapsed;
    shared.instruments.record_latency(kernel, elapsed);
    shared.trace(|| TraceEvent::BodyEnd {
        kernel,
        age,
        indices: indices.to_vec(),
        attempt,
        ok: result.is_ok(),
    });
    result
}

/// Run a fusion producer instance's consumer inline on each store the
/// instance staged into the fused field (paper Figure 4, Age=3). The
/// consumer's index variables take the values the producer's store
/// pattern selects, and its own stores get explicit regions and ages here,
/// while those values are at hand.
#[allow(clippy::too_many_arguments)]
fn run_consumer(
    shared: &Shared,
    plan: &FusionPlan,
    unit: &DispatchUnit,
    slot: usize,
    staged: &mut Vec<StagedStore>,
    cidx: &mut Vec<usize>,
    live: &mut InFlight,
    body_time: &mut Duration,
) -> BodyResult {
    let decl = &shared.spec.kernel(unit.kernel).stores[plan.producer_store];
    let cspec = shared.spec.kernel(plan.consumer);
    let body = shared.bodies[plan.consumer.idx()]
        .as_ref()
        .expect("bodies checked before run");
    cidx.clear();
    cidx.resize(cspec.index_vars as usize, 0);
    for (sel_p, sel_c) in decl.dims.iter().zip(&cspec.fetches[0].dims) {
        if let (IndexSel::Var(pv), IndexSel::Var(cv)) = (sel_p, sel_c) {
            cidx[cv.0 as usize] = unit.instances[slot][pv.0 as usize];
        }
    }
    for e in live.mark..staged.len() {
        let st = &staged[e];
        if st.kernel != unit.kernel || st.store_idx != plan.producer_store {
            continue;
        }
        let input = st.buffer.clone();
        let first = staged.len();
        let mut ctx = KernelCtx {
            spec: cspec,
            age: unit.age,
            indices: cidx,
            slot: 0,
            inputs: std::slice::from_ref(&input),
            layout: &shared.fetch_layouts[plan.consumer.idx()],
            stride: 1,
            staged: &mut *staged,
            timers: &shared.timers,
            deadline: live.deadline,
        };
        call_body(shared, body, &mut ctx, unit.attempt, live, body_time)?;
        for st in &mut staged[first..] {
            let cdecl = &cspec.stores[st.store_idx];
            st.age = Some(st.age.unwrap_or_else(|| cdecl.age.resolve(unit.age)));
            if st.region.is_none() {
                st.region = Some(resolve_region(&cdecl.dims, cidx));
            }
        }
        shared
            .instruments
            .record_unit(plan.consumer, 1, Duration::ZERO, Duration::ZERO);
    }
    Ok(())
}

/// Land the stores of a unit's successful instances. With two or more of
/// them (`merge`), the stores are grouped per declaration in instance-
/// coordinate order and each run of consecutive instances' 1-D stores
/// lands as one merged range store: one write lock, one concatenated
/// payload, one store event. A fusion producer's elided intermediate
/// stores never land.
fn apply_stores(
    shared: &Arc<Shared>,
    unit: &DispatchUnit,
    fusion: Option<&FusionPlan>,
    mut staged: Vec<StagedStore>,
    merge: bool,
) -> Result<(), RuntimeError> {
    // Cluster mode stores dedup: recovery re-executes kernels whose data
    // already (partially) exists, and write-once equality makes that a
    // no-op instead of a violation. Single-node mode keeps the strict
    // write-once error, which is a program bug there — except on fault
    // retries, which may legitimately replay stores an earlier attempt
    // already landed.
    let idempotent = shared.dedup_stores || unit.attempt > 0;
    if merge {
        staged.sort_by_key(|st| (st.kernel.0, st.store_idx, merge_coord(shared, unit, st)));
    }
    let mut rest = &staged[..];
    while let [st, ..] = rest {
        let len = if merge {
            merge_run(shared, unit, rest)
        } else {
            1
        };
        let elided = fusion.is_some_and(|f| {
            f.elide_store && st.kernel == f.producer && st.store_idx == f.producer_store
        });
        if !elided {
            apply_run(shared, unit, &rest[..len], idempotent)?;
        }
        rest = &rest[len..];
    }
    Ok(())
}

/// The instance coordinate a merged range store addresses `st` by: the
/// leading index variable, when `st` is a default-region, default-age 1-D
/// store of the unit's own kernel through a declaration that no other
/// index variable addresses.
fn merge_coord(shared: &Shared, unit: &DispatchUnit, st: &StagedStore) -> Option<usize> {
    if st.kernel != unit.kernel
        || st.region.is_some()
        || st.age.is_some()
        || st.buffer.shape().ndim() != 1
    {
        return None;
    }
    match shared.spec.kernel(st.kernel).stores[st.store_idx]
        .dims
        .split_first()?
    {
        (IndexSel::Var(v), rest) if !rest.iter().any(|d| matches!(d, IndexSel::Var(_))) => {
            Some(unit.instances[st.slot][v.0 as usize])
        }
        _ => None,
    }
}

/// Length of the run at the head of `staged` that lands as one store:
/// one declaration, consecutive coordinates, payloads of one type and
/// length.
fn merge_run(shared: &Shared, unit: &DispatchUnit, staged: &[StagedStore]) -> usize {
    let first = &staged[0];
    let Some(c0) = merge_coord(shared, unit, first) else {
        return 1;
    };
    1 + staged[1..]
        .iter()
        .zip(1..)
        .take_while(|&(st, k)| {
            st.store_idx == first.store_idx
                && st.buffer.scalar_type() == first.buffer.scalar_type()
                && st.buffer.len() == first.buffer.len()
                && merge_coord(shared, unit, st) == Some(c0 + k)
        })
        .count()
}

/// Apply one staged store, or a merged run of them: the run's region
/// spans its coordinates in the leading dimension, and row-major region
/// enumeration makes the concatenated payload (ascending coordinate) the
/// flattened element order.
fn apply_run(
    shared: &Arc<Shared>,
    unit: &DispatchUnit,
    run: &[StagedStore],
    idempotent: bool,
) -> Result<(), RuntimeError> {
    let st = &run[0];
    let decl = &shared.spec.kernel(st.kernel).stores[st.store_idx];
    let age = st.age.unwrap_or_else(|| decl.age.resolve(unit.age));
    let mut region = match &st.region {
        Some(r) => r.clone(),
        None => resolve_region(&decl.dims, &unit.instances[st.slot]),
    };
    let kernel = Some(st.kernel);
    if run.len() == 1 {
        return land(
            shared, kernel, decl.field, age, region, &st.buffer, idempotent,
        );
    }
    if let DimSel::Index(start) = region.0[0] {
        region.0[0] = DimSel::Range {
            start,
            len: run.len(),
        };
    }
    let payload = Buffer::concat(run.iter().map(|st| &st.buffer))?;
    land(
        shared, kernel, decl.field, age, region, &payload, idempotent,
    )
}

/// Store `buffer` into `region` of `field` at `age` and publish the store.
/// `kernel` is the storing kernel. `None` marks a store forwarded from
/// another node: it is neither tapped back out nor counted against a
/// kernel, and it lands `idempotent`.
fn land(
    shared: &Arc<Shared>,
    kernel: Option<KernelId>,
    field: FieldId,
    age: Age,
    region: Region,
    buffer: &Buffer,
    idempotent: bool,
) -> Result<(), RuntimeError> {
    // The store event must describe the store relative to the extents at
    // store time (later stores may grow the field before the analyzer
    // observes this event), so the resolved region and post-store extents
    // are captured inside the write lock.
    let (outcome, region, extents) = {
        let mut f = shared.fields[field.idx()].write();
        let outcome = if idempotent {
            f.store_idempotent(age, &region, buffer)?
        } else {
            f.store(age, &region, buffer)?
        };
        let extents = f.extents(age).cloned().expect("age resident after store");
        let resolved = region.resolved_against(&extents);
        // Recorded before the lock is released, so the trace's
        // StoreApplied happens-before any dispatch derived from the data:
        // from this store's event, and from a `Reassign` rescan, which
        // reads the fields themselves.
        shared.trace(|| {
            store_event(
                kernel,
                field,
                age,
                resolved.clone(),
                outcome.stored,
                outcome.deduped,
                outcome.age_complete,
            )
        });
        (outcome, resolved, extents)
    };
    if outcome.deduped > 0 {
        shared.instruments.record_deduped(outcome.deduped as u64);
    }
    if let Some(kernel) = kernel {
        shared
            .instruments
            .record_store(kernel, field, outcome.stored as u64);
        // Forward even fully-deduped stores: subscribers may have missed
        // the original producer's forward, and their replicas dedup in
        // turn.
        if let Some(tap) = &shared.store_tap {
            tap(field, age, &region, buffer);
        }
    }
    shared.send_event(Event::Store(StoreEvent {
        field,
        age,
        region,
        extents,
        elements: outcome.stored,
        age_complete: outcome.age_complete,
        resized: outcome.resized,
        inline_dispatched: None,
    }));
    Ok(())
}
