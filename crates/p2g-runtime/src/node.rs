//! The execution node: worker pool + dedicated dependency-analyzer thread.
//!
//! Threading model (paper Section VI-B): kernel instances execute on worker
//! threads and publish store events; dependencies are analyzed in one
//! dedicated thread which feeds the age-priority ready queue. Termination
//! uses an outstanding-work counter: every event and dispatch unit is
//! counted before it is made visible, so the count can only reach zero when
//! the program is quiescent.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use p2g_field::{Age, Buffer, Field, FieldId, Region, Value};
use p2g_graph::{KernelId, ProgramSpec};

use crate::analyzer::{AgeWatchFn, DependencyAnalyzer, SharedFields};
use crate::error::RuntimeError;
use crate::events::{Event, StoreEvent};
use crate::granularity::GranularityController;
use crate::instance::DispatchUnit;
use crate::instrument::{Instruments, InstrumentsSnapshot, RunReport, Termination};
use crate::options::{ExhaustPolicy, FaultPolicy, KernelOptions, RunLimits};
use crate::pool::{PoolTask, QosState, WorkerPool};
use crate::program::{BatchCtx, BatchKernelBody, FusionPlan, KernelBody, KernelCtx, Program, StagedStore};
use crate::ready::ReadyQueue;
use crate::shard::{ShardGc, ShardPlan};
use crate::timer::TimerTable;
use crate::trace::{store_event, RunTrace, TraceEvent, Tracer};
use crate::watchdog::Watchdog;

thread_local! {
    /// True while this worker thread is inside a (contained) kernel body.
    static IN_KERNEL: Cell<bool> = const { Cell::new(false) };
    /// This thread's trace-buffer id (workers `0..n`, then analyzer,
    /// watchdog, and the launching thread). Set once at thread start.
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

/// How one instance execution failed.
enum InstanceError {
    /// Runtime malfunction (field/spec error): aborts the run regardless of
    /// fault policy.
    Fatal(RuntimeError),
    /// The kernel body returned `Err` or panicked: goes through the
    /// kernel's fault policy (retry / poison / abort).
    Body(String),
}

impl From<RuntimeError> for InstanceError {
    fn from(e: RuntimeError) -> InstanceError {
        InstanceError::Fatal(e)
    }
}

impl From<p2g_field::FieldError> for InstanceError {
    fn from(e: p2g_field::FieldError) -> InstanceError {
        InstanceError::Fatal(RuntimeError::Field(e))
    }
}

/// Called after every successful local store (distributed mode forwards
/// the data to subscriber nodes through this hook).
pub type StoreTap = Arc<dyn Fn(FieldId, Age, &Region, &Buffer) + Send + Sync>;

/// Static precomputation for the worker-side inline fast path: a fresh
/// single-point store into the field unblocks exactly one instance of
/// `consumer`, so the storing worker dispatches it directly and tags the
/// store event for the analyzer to reconcile ([`crate::shard`]). Built
/// only for single-fetch pointwise consumers whose fetch dimensions cover
/// every index variable and whose own store targets all have static
/// extents (so no extent expectation can change under a peer shard).
struct InlinePlan {
    consumer: KernelId,
    /// The consumer's `Rel(t)` fetch-age offset: a store at age `a` feeds
    /// instance age `a - t`.
    t: i64,
    /// Number of consumer index variables.
    index_vars: usize,
    /// For each fetch dimension, the consumer index variable it selects.
    var_of_dim: Vec<usize>,
    /// Run age bound: instances at `age >= max_ages` never dispatch.
    max_ages: Option<u64>,
}

/// Derive the per-field inline fast-path plans. A field gets a plan when
/// it has a consumer that is: non-source, un-fused, un-watched, unordered,
/// chunk-size 1, with exactly one fetch at a `Rel` age whose dimensions
/// are distinct `Var` selectors covering all of the consumer's index
/// variables — then one stored element maps to exactly one instance, and
/// a fresh single-point store proves that instance's only dependency.
fn build_inline_plans(
    spec: &ProgramSpec,
    options: &[KernelOptions],
    fused: &HashSet<KernelId>,
    watched: &HashSet<KernelId>,
    limits: &RunLimits,
) -> Vec<Option<InlinePlan>> {
    use p2g_graph::spec::{AgeExpr, IndexSel};
    let mut plans: Vec<Option<InlinePlan>> = (0..spec.fields.len()).map(|_| None).collect();
    for k in &spec.kernels {
        let i = k.id.idx();
        if k.is_source()
            || !k.has_age_var
            || fused.contains(&k.id)
            || watched.contains(&k.id)
            || options[i].ordered
            || options[i].chunk_size > 1
            || k.fetches.len() != 1
        {
            continue;
        }
        let fe = &k.fetches[0];
        let AgeExpr::Rel(t) = fe.age else { continue };
        let mut var_of_dim = Vec::with_capacity(fe.dims.len());
        let mut seen = vec![false; k.index_vars as usize];
        let mut ok = true;
        for sel in &fe.dims {
            match sel {
                IndexSel::Var(v) => {
                    let vi = v.0 as usize;
                    if seen[vi] {
                        ok = false;
                        break;
                    }
                    seen[vi] = true;
                    var_of_dim.push(vi);
                }
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok || !seen.iter().all(|&b| b) {
            continue;
        }
        // The consumer's own stores must target statically-sized fields:
        // inline dispatch skips the analyzer's extent propagation, so it
        // must not be the only source of a grown extent expectation.
        if !k
            .stores
            .iter()
            .all(|st| spec.fields[st.field.idx()].initial_extents.is_some())
        {
            continue;
        }
        let slot = &mut plans[fe.field.idx()];
        if slot.is_none() {
            *slot = Some(InlinePlan {
                consumer: k.id,
                t,
                index_vars: k.index_vars as usize,
                var_of_dim,
                max_ages: limits.max_ages,
            });
        }
    }
    plans
}

pub(crate) struct Shared {
    spec: Arc<ProgramSpec>,
    bodies: Vec<Option<KernelBody>>,
    /// Optional whole-unit bodies, used opportunistically on the batched
    /// path when a kernel registered one.
    batch_bodies: Vec<Option<BatchKernelBody>>,
    fusions: Vec<FusionPlan>,
    fields: SharedFields,
    ready: ReadyQueue,
    /// One event channel per analyzer shard (one entry in single-analyzer
    /// mode). Workers route through [`Shared::send_event`].
    event_txs: Vec<Sender<Event>>,
    /// Sharded mode: the store/unit routing plan. `None` ⇒ one analyzer
    /// thread observing every event (today's semantics, bit for bit).
    shard_plan: Option<Arc<ShardPlan>>,
    /// Set before the first `KernelFailure` event is published: disarms
    /// the inline fast path so no worker-side dispatch can race the
    /// analyzer's poison traversal.
    poisoned: AtomicBool,
    /// Per field: inline fast-path plan for its single pointwise consumer
    /// (empty vector when the fast path is disabled).
    inline: Vec<Option<InlinePlan>>,
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
    /// Present when some kernel's fault policy needs delayed retries or
    /// deadline flagging.
    watchdog: Option<Arc<Watchdog>>,
    /// Structured event tracing; `None` keeps the hot path at one branch
    /// per would-be event.
    tracer: Option<Arc<Tracer>>,
    /// Session mode: ready units go to this shared pool instead of the
    /// node's private queue (which then has no workers of its own).
    pool: Option<Arc<WorkerPool>>,
    /// Batched instance execution ([`RunLimits::batch_exec`]): eligible
    /// multi-instance units run as one work unit with merged fetches,
    /// segmented `catch_unwind`, and merged store events.
    batch_exec: bool,
    /// The online chunk-size controller, ticked by analyzer shard 0
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

    /// Stop every thread of the node: flag stop, close the ready queue,
    /// and stop the watchdog — releasing the outstanding count of retries
    /// that will never run.
    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.ready.close();
        if let Some(wd) = &self.watchdog {
            for _unit in wd.stop() {
                self.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
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

    /// Route a counted ready unit to this node's execution surface: the
    /// shared worker pool in session mode, the private queue otherwise.
    fn dispatch(self: &Arc<Self>, unit: DispatchUnit) {
        match &self.pool {
            Some(pool) => pool.submit(self.clone(), unit),
            None => self.ready.push(unit),
        }
    }

    /// Bitmask selecting every analyzer shard.
    fn all_shards_mask(&self) -> u64 {
        let n = self.event_txs.len();
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    /// Publish an event to the analyzer shard(s) that must observe it.
    /// Stores go to the shards owning an affected consumer instance
    /// ([`ShardPlan::store_dests`]), `UnitDone` to the unit's owner, and
    /// failure/reassign events broadcast. Every delivered copy is counted
    /// separately as outstanding work before the first send, so quiescence
    /// still requires each copy processed.
    fn send_event(&self, ev: Event) {
        let Some(plan) = &self.shard_plan else {
            self.outstanding.fetch_add(1, Ordering::SeqCst);
            let _ = self.event_txs[0].send(ev);
            return;
        };
        let mask: u64 = match &ev {
            Event::Store(se) => plan.store_dests(se.field, se.age.0),
            Event::UnitDone { kernel, age, .. } => 1u64 << plan.unit_owner(*kernel, age.0),
            // Sharded mode applies remote stores node-side and routes them
            // as `Store` (see `inject_remote_store`); this arm is only a
            // fallback.
            Event::RemoteStore { .. } => 1,
            Event::Reassign { .. } | Event::KernelFailure { .. } | Event::Failure(_) => {
                self.all_shards_mask()
            }
            // Expectation broadcasts originate on an analyzer shard and go
            // through `broadcast_expect` (which excludes the originator).
            Event::ShardExpect { .. } => self.all_shards_mask(),
        };
        self.send_to_mask(ev, mask);
    }

    /// Deliver one analyzer shard's expected-extents broadcast to every
    /// *other* shard (the originator already merged it locally).
    fn broadcast_expect(&self, ev: Event, from: usize) {
        let mask = self.all_shards_mask() & !(1u64 << from);
        self.send_to_mask(ev, mask);
    }

    /// Send counted copies of `ev` to every shard in `mask`.
    fn send_to_mask(&self, ev: Event, mask: u64) {
        let copies = mask.count_ones() as i64;
        if copies == 0 {
            return;
        }
        // All copies counted before any is visible: a shard that finishes
        // its copy instantly cannot observe a transient zero.
        self.outstanding.fetch_add(copies, Ordering::SeqCst);
        let last = 63 - mask.leading_zeros() as usize;
        let mut rem = mask & !(1u64 << last);
        let mut s = 0usize;
        while rem != 0 {
            if rem & 1 != 0 {
                let _ = self.event_txs[s].send(ev.clone());
            }
            rem >>= 1;
            s += 1;
        }
        let _ = self.event_txs[last].send(ev);
    }
}

/// One tick of a shared pool worker: execute a queued unit against its
/// owning node. The pool worker's trace id is set per tick because
/// consecutive ticks may belong to different nodes (different tracers).
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
        }
    }

    /// Number of worker threads (the analyzer thread is extra). Ignored
    /// when the node is attached to a shared [`WorkerPool`].
    pub fn workers(mut self, workers: usize) -> NodeBuilder {
        self.workers = workers.max(1);
        self
    }

    /// Attach this node to a shared worker pool: the node spawns no worker
    /// threads of its own and its ready units rank against every other
    /// attached node's by age. This is how [`crate::session::SessionRuntime`]
    /// hosts many tenants on one fixed thread set.
    pub fn pool(mut self, pool: Arc<WorkerPool>) -> NodeBuilder {
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
    pub fn watch_ages(mut self, kernel: &str, callback: AgeWatchFn) -> NodeBuilder {
        self.watches.push((kernel.to_string(), callback));
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
            batch_bodies,
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
        // One event channel (and one analyzer thread) per shard; a single
        // shard is exactly the pre-sharding runtime, event for event.
        let shards = limits.shards.clamp(1, 64);
        let (event_txs, event_rxs): (Vec<Sender<Event>>, Vec<Receiver<Event>>) =
            (0..shards).map(|_| unbounded::<Event>()).unzip();
        let fault: Vec<FaultPolicy> = options.iter().map(|o| o.fault.clone()).collect();

        // Resolve age watches up front: watched kernels are pinned by the
        // shard plan (their callbacks must fire in global age order).
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
        let watched: HashSet<KernelId> = watch_ids.iter().map(|(k, _)| *k).collect();
        let fused_consumers: HashSet<KernelId> = fusions.iter().map(|f| f.consumer).collect();
        let shard_plan = (shards > 1).then(|| {
            Arc::new(ShardPlan::new(
                &spec,
                &options,
                &fused_consumers,
                &watched,
                shards,
            ))
        });
        let shard_gc = shard_plan
            .as_ref()
            .map(|_| Arc::new(ShardGc::new(spec.kernels.len(), spec.fields.len(), shards)));
        // The inline fast path rides along with sharding (it exists to
        // keep the analyzer off the critical path) and can be opted into
        // explicitly; cluster-assigned nodes keep every dispatch decision
        // in the analyzer, where recovery rescans can reconcile it.
        // Adaptive granularity disables it: the inline plan requires
        // chunk-size 1, which the controller is free to change online.
        let inline: Vec<Option<InlinePlan>> = if limits.adaptive.is_none()
            && self.assigned.is_none()
            && (shards > 1 || limits.inline_dispatch)
        {
            build_inline_plans(&spec, &options, &fused_consumers, &watched, &limits)
        } else {
            (0..spec.fields.len()).map(|_| None).collect()
        };
        let granularity = limits.adaptive.as_ref().map(|cfg| {
            let adaptive = GranularityController::eligibility(&spec, &options, &fusions);
            Arc::new(GranularityController::new(cfg.clone(), &options, adaptive))
        });

        // Trace buffer ids: workers 0..n, then the analyzer shards,
        // watchdog, main. Pool-attached nodes have no private workers;
        // their units run on the pool's threads, which claim the worker
        // tid range.
        let worker_slots = self.pool.as_ref().map(|p| p.workers()).unwrap_or(self.workers);
        let analyzer_tid0 = worker_slots as u32;
        let watchdog_tid = analyzer_tid0 + shards as u32;
        let main_tid = watchdog_tid + 1;
        let tracer = limits.trace.as_ref().map(|opts| {
            let mut labels: Vec<String> = (0..worker_slots).map(|w| format!("worker-{w}")).collect();
            if shards == 1 {
                labels.push("analyzer".into());
            } else {
                for s in 0..shards {
                    labels.push(format!("analyzer-{s}"));
                }
            }
            labels.push("watchdog".into());
            labels.push("main".into());
            Arc::new(Tracer::new(labels, opts.capacity))
        });
        let watchdog = if fault.iter().any(|p| p.needs_watchdog()) {
            Some(Arc::new(Watchdog::new(
                tracer.clone().map(|t| (t, watchdog_tid)),
            )))
        } else {
            None
        };
        install_contained_panic_hook();
        let shared = Arc::new(Shared {
            spec: spec.clone(),
            bodies,
            batch_bodies,
            fusions: fusions.clone(),
            fields: fields.clone(),
            ready: ReadyQueue::new(),
            event_txs,
            shard_plan: shard_plan.clone(),
            poisoned: AtomicBool::new(false),
            inline,
            outstanding: AtomicI64::new(0),
            stop: AtomicBool::new(false),
            failure: Mutex::new(None),
            instruments: Instruments::new_sharded(
                spec.kernels.iter().map(|k| k.name.clone()).collect(),
                shards,
            ),
            timers,
            store_tap: self.store_tap.clone(),
            hold_open: limits.hold_open,
            dedup_stores,
            fault,
            watchdog,
            tracer: tracer.clone(),
            pool: self.pool.clone(),
            batch_exec: limits.batch_exec,
            granularity: granularity.clone(),
            qos: self.qos.clone(),
        });

        let mut analyzers = Vec::with_capacity(shards);
        for s in 0..shards {
            let mut analyzer = DependencyAnalyzer::new(
                spec.clone(),
                options.clone(),
                fused_consumers.clone(),
                fields.clone(),
                limits.clone(),
            );
            if let Some(assigned) = &self.assigned {
                analyzer.set_assigned(assigned.clone());
            }
            if let Some(t) = &tracer {
                analyzer.set_tracer(t.clone(), analyzer_tid0 + s as u32);
            }
            if let (Some(plan), Some(gc)) = (&shard_plan, &shard_gc) {
                analyzer.set_shard_scope(plan.clone(), s, gc.clone());
            }
            if let Some(g) = &granularity {
                analyzer.set_granularity(g.clone());
            }
            analyzers.push(analyzer);
        }
        // An age watch lives on the shard owning the watched kernel
        // (pinned, so one shard owns every age and fires in order).
        for (kid, callback) in watch_ids {
            let home = shard_plan
                .as_ref()
                .map(|p| p.unit_owner(kid, 0))
                .unwrap_or(0);
            analyzers[home].set_age_watch(kid, callback);
        }

        let start = Instant::now();

        // Seed source kernels before any worker can observe an empty
        // queue. Each shard only seeds the sources it owns.
        TRACE_TID.with(|c| c.set(main_tid));
        for analyzer in &mut analyzers {
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
        }
        // A program with no sources is quiescent immediately (unless it
        // waits for remote stores).
        if shared.outstanding.load(Ordering::SeqCst) == 0 && !limits.hold_open {
            shared.stop.store(true, Ordering::SeqCst);
            shared.ready.close();
        }

        // Analyzer shard threads. They poll (see `ANALYZER_POLL`) only when
        // each can have a core to itself: this node's own workers and its
        // shards fit the machine. Pool-attached nodes share their workers
        // with other tenants' analyzers, so they never do.
        let deadline = limits.wall_deadline.map(|d| start + d);
        let batch = limits.analyzer_batch.max(1);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let poll = self.pool.is_none() && self.workers + shards <= cores;
        let mut analyzer_handles = Vec::with_capacity(shards);
        for (s, (analyzer, events_rx)) in analyzers.into_iter().zip(event_rxs).enumerate() {
            let analyzer_shared = shared.clone();
            let tid = analyzer_tid0 + s as u32;
            let name = if shards == 1 {
                "p2g-analyzer".to_string()
            } else {
                format!("p2g-analyzer-{s}")
            };
            analyzer_handles.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || {
                        TRACE_TID.with(|c| c.set(tid));
                        analyzer_loop(
                            analyzer,
                            analyzer_shared,
                            events_rx,
                            deadline,
                            s,
                            batch,
                            poll,
                        )
                    })
                    .expect("spawn analyzer"),
            );
        }

        // Worker threads — none when attached to a shared pool.
        let mut worker_handles = Vec::with_capacity(self.workers);
        if shared.pool.is_none() {
            for w in 0..self.workers {
                let ws = shared.clone();
                worker_handles.push(
                    std::thread::Builder::new()
                        .name(format!("p2g-worker-{w}"))
                        .spawn(move || {
                            TRACE_TID.with(|c| c.set(w as u32));
                            worker_loop(ws)
                        })
                        .expect("spawn worker"),
                );
            }
        }

        // Watchdog thread: releases due retries to the ready queue and
        // flags soft-deadline overruns.
        let watchdog_handle = shared.watchdog.clone().map(|wd| {
            let ws = shared.clone();
            std::thread::Builder::new()
                .name("p2g-watchdog".into())
                .spawn(move || watchdog_loop(wd, ws))
                .expect("spawn watchdog")
        });

        Ok(RunningNode {
            shared,
            fields,
            spec,
            start,
            analyzer_handles,
            worker_handles,
            watchdog_handle,
        })
    }
}

/// Handle to a launched node — the name the builder API uses for
/// [`RunningNode`].
pub type NodeHandle = RunningNode;

/// A started execution node: inject remote stores, query quiescence, stop,
/// and finally join for the report and field contents.
pub struct RunningNode {
    shared: Arc<Shared>,
    fields: SharedFields,
    spec: Arc<ProgramSpec>,
    start: Instant,
    analyzer_handles: Vec<std::thread::JoinHandle<Termination>>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
    watchdog_handle: Option<std::thread::JoinHandle<()>>,
}

impl RunningNode {
    /// Forward a store produced on another node into this node's field
    /// replicas; the dependency analyzer applies it and dispatches any
    /// instances it unblocks. In sharded mode the replica store is applied
    /// here (idempotently — remote forwards may duplicate) and the
    /// resulting store event routed like a local one, so every consumer
    /// shard observes it.
    pub fn inject_remote_store(&self, field: FieldId, age: Age, region: Region, buffer: Buffer) {
        if self.shared.shard_plan.is_none() {
            self.shared.outstanding.fetch_add(1, Ordering::SeqCst);
            let _ = self.shared.event_txs[0].send(Event::RemoteStore {
                field,
                age,
                region,
                buffer,
            });
            return;
        }
        let applied = {
            let mut f = self.shared.fields[field.idx()].write();
            match f.store_idempotent(age, &region, &buffer) {
                Ok(outcome) => {
                    let extents = f.extents(age).cloned().expect("age resident after store");
                    let resolved = region.resolved_against(&extents);
                    Ok((outcome, resolved, extents))
                }
                Err(e) => Err(e),
            }
        };
        let (outcome, region, extents) = match applied {
            Ok(v) => v,
            Err(e) => {
                self.shared.fail(RuntimeError::Field(e));
                return;
            }
        };
        self.shared.trace(|| {
            store_event(
                None,
                field,
                age,
                region.clone(),
                outcome.stored,
                outcome.deduped,
                outcome.age_complete,
            )
        });
        if outcome.deduped > 0 {
            self.shared
                .instruments
                .record_deduped(outcome.deduped as u64);
        }
        self.shared.send_event(Event::Store(StoreEvent {
            field,
            age,
            region,
            extents,
            elements: outcome.stored,
            age_complete: outcome.age_complete,
            resized: outcome.resized,
            inline_dispatched: None,
        }));
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
    /// external [`RunningNode::request_stop`]). The session layer polls
    /// this while draining so a dead node cannot hang `finish`.
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
        // Broadcasts in sharded mode: every shard adopts the assignment
        // and rescans the slice of the instance space it owns.
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
        let RunningNode {
            shared,
            fields,
            spec,
            start,
            analyzer_handles,
            worker_handles,
            watchdog_handle,
        } = self;
        // Join every analyzer shard and keep the most severe exit status:
        // one shard hitting the deadline (or failing) decides the run even
        // when its peers wound down quiescent.
        let mut termination = Termination::Quiescent;
        for handle in analyzer_handles {
            let t = match handle.join() {
                Ok(t) => t,
                Err(_) => {
                    shared.fail(RuntimeError::WorkerPanic);
                    Termination::Failed
                }
            };
            if termination_rank(t) > termination_rank(termination) {
                termination = t;
            }
        }
        // The analyzer has returned, so stop is set; make sure the
        // watchdog and workers wind down before collecting.
        shared.shutdown();
        for h in worker_handles {
            if h.join().is_err() {
                shared.fail(RuntimeError::WorkerPanic);
            }
        }
        if let Some(h) = watchdog_handle {
            let _ = h.join();
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
        // All threads joined; in pool mode, queued pool tasks may still
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

/// Severity order for merging per-shard analyzer exit statuses.
fn termination_rank(t: Termination) -> u8 {
    match t {
        Termination::Quiescent => 0,
        Termination::Degraded => 1,
        Termination::DeadlineExpired => 2,
        Termination::Failed => 3,
    }
}

/// Watchdog thread: push due retry units to the ready queue (their
/// outstanding counts were taken at schedule time) until stopped.
fn watchdog_loop(wd: Arc<Watchdog>, shared: Arc<Shared>) {
    while let Some(due) = wd.next_due() {
        for unit in due {
            shared.dispatch(unit);
        }
    }
}

/// How long an analyzer shard polls its empty event channel before it
/// blocks on it. While units are outstanding the next store event is one
/// instance away (microseconds), and a blocked analyzer costs the storing
/// worker a futex wake-up — across cores an IPI — per event; on a
/// virtualised host that wake-up latency, not the work, decided how long
/// a fine-grained job took and varied from run to run. Only a shard with a
/// core to itself polls (decided at launch), and it yields between looks.
const ANALYZER_POLL: Duration = Duration::from_micros(50);

fn analyzer_loop(
    mut analyzer: DependencyAnalyzer,
    shared: Arc<Shared>,
    events_rx: Receiver<Event>,
    deadline: Option<Instant>,
    shard: usize,
    batch: usize,
    poll: bool,
) -> Termination {
    // The non-failure exit status: quiescent, or degraded once any
    // instance was poisoned.
    let finished = |analyzer: &DependencyAnalyzer| {
        if analyzer.degraded() {
            Termination::Degraded
        } else {
            Termination::Quiescent
        }
    };
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            // Either quiescent-stop (set below) or failure-stop.
            return if shared.has_failed() {
                Termination::Failed
            } else {
                finished(&analyzer)
            };
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                if std::env::var_os("P2G_DEBUG_QUIESCENCE").is_some() {
                    eprintln!(
                        "[p2g] deadline with outstanding={} ready_len={}",
                        shared.outstanding.load(Ordering::SeqCst),
                        shared.ready.len()
                    );
                }
                shared.shutdown();
                return Termination::DeadlineExpired;
            }
        }
        // Adaptive granularity: shard 0 runs the controller tick (it is
        // interval-gated internally, so this is one lock + compare on the
        // idle path).
        if shard == 0 {
            granularity_tick(&shared);
        }
        // Poll before blocking, but only while work is outstanding (an idle
        // node goes straight to the blocking receive).
        let poll_start = Instant::now();
        while poll
            && events_rx.is_empty()
            && shared.outstanding.load(Ordering::SeqCst) > 0
            && poll_start.elapsed() < ANALYZER_POLL
        {
            std::thread::yield_now();
        }
        let mut next = match events_rx.recv_timeout(Duration::from_millis(5)) {
            Ok(ev) => Some(ev),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return finished(&analyzer),
        };
        shared
            .instruments
            .record_shard_queue_depth(shard, events_rx.len() as u64 + 1);
        // Greedy batch drain: under a store storm the channel is never
        // empty, and handling a burst back-to-back keeps the analyzer's
        // accounting state cache-hot and skips the blocking-receive path.
        // The batch size bounds the time between deadline checks.
        // Outstanding work is still released per event so the quiescence
        // protocol is unchanged.
        let mut handled = 0usize;
        while let Some(ev) = next.take() {
            if let Event::Failure(msg) = &ev {
                shared.fail(RuntimeError::Kernel {
                    kernel: "<unknown>".into(),
                    message: msg.clone(),
                });
                return Termination::Failed;
            }
            let t_event = Instant::now();
            let units = match analyzer.on_event(&ev) {
                Ok(units) => units,
                Err(e) => {
                    shared.fail(RuntimeError::Field(e));
                    return Termination::Failed;
                }
            };
            shared.instruments.record_analyzer_event(t_event.elapsed());
            let deduped = analyzer.take_deduped();
            if deduped > 0 {
                shared.instruments.record_deduped(deduped);
            }
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
            // Expectation broadcasts must reach peer shards before any
            // store a dispatched unit produces: per-shard FIFO channels
            // make sending them first sufficient.
            for bc in analyzer.take_outbox() {
                shared.broadcast_expect(bc, shard);
            }
            for unit in units {
                // Retry units are re-dispatches, not fresh analyzer
                // decisions (they come back through the watchdog, not
                // here), so every unit seen at this point is attempt 0.
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
            // This event is fully processed; the release may observe
            // quiescence (stop is then checked right here to avoid one
            // extra poll cycle).
            shared.release_outstanding();
            if shared.stop.load(Ordering::SeqCst) {
                return if shared.has_failed() {
                    Termination::Failed
                } else {
                    finished(&analyzer)
                };
            }
            handled += 1;
            if handled < batch {
                next = events_rx.try_recv().ok();
            }
        }
        shared.trace(|| TraceEvent::AnalyzerBatch { events: handled });
        shared.instruments.record_analyzer_batch();
        shared.instruments.record_shard_events(shard, handled as u64);
    }
}

fn worker_loop(shared: Arc<Shared>) {
    while let Some(unit) = shared.ready.pop() {
        run_unit(&shared, unit);
    }
}

/// One controller tick ([`RunLimits::adaptive`]): differentiate the
/// instrument counters and publish every chunk-size decision as a
/// `GranularityChange` trace event. Called from analyzer shard 0 only, so
/// decisions are totally ordered.
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

/// Execute one dispatch unit: assemble inputs, run bodies (panic-contained),
/// apply stores, publish events. Body failures go through the kernel's
/// fault policy: batched into one delayed retry unit while the budget
/// lasts, then aborted or poisoned per [`ExhaustPolicy`].
fn run_unit(shared: &Arc<Shared>, unit: DispatchUnit) {
    // A failure-stop drains the queue without running stale units.
    if shared.stop.load(Ordering::SeqCst) && shared.has_failed() {
        shared.release_outstanding();
        return;
    }
    if batch_eligible(shared, &unit) {
        run_unit_batched(shared, unit);
        return;
    }
    let policy = &shared.fault[unit.kernel.idx()];
    let t_unit = Instant::now();
    let mut body_time = Duration::ZERO;
    let mut stored_any = unit.prior_stored;
    let mut ok_instances = 0usize;
    let mut failed: Vec<Vec<usize>> = Vec::new();

    for indices in &unit.instances {
        // Soft-deadline registration: the watchdog flags the token when
        // the instance overruns; the body polls `ctx.cancelled()`.
        let cancel = policy.deadline.map(|_| Arc::new(AtomicBool::new(false)));
        let registration = match (&shared.watchdog, policy.deadline, &cancel) {
            (Some(wd), Some(dl), Some(token)) => Some((
                wd,
                wd.register(
                    Instant::now() + dl,
                    token.clone(),
                    unit.kernel,
                    unit.age,
                    indices.clone(),
                ),
            )),
            _ => None,
        };
        let result = run_instance(
            shared,
            unit.kernel,
            unit.age,
            indices,
            unit.attempt,
            cancel.as_deref(),
            &mut body_time,
        );
        if let Some((wd, id)) = registration {
            if wd.deregister(id) {
                shared.instruments.record_deadline_miss(unit.kernel);
            }
        }
        match result {
            Ok(any) => {
                stored_any |= any;
                ok_instances += 1;
            }
            Err(InstanceError::Fatal(err)) => {
                shared.fail(err);
                // Balance this unit's outstanding count before bailing.
                shared.release_outstanding();
                return;
            }
            Err(InstanceError::Body(message)) => {
                shared.instruments.record_failure(unit.kernel);
                if unit.attempt < policy.retries {
                    failed.push(indices.clone());
                } else {
                    match policy.on_exhaust {
                        ExhaustPolicy::Abort => {
                            shared.fail(RuntimeError::Kernel {
                                kernel: shared.spec.kernel(unit.kernel).name.clone(),
                                message,
                            });
                            shared.release_outstanding();
                            return;
                        }
                        ExhaustPolicy::Poison => {
                            // Disarm the inline fast path before the
                            // failure is visible: no worker-side dispatch
                            // may race the poison traversal. Counted
                            // event(s): every analyzer shard quarantines
                            // the instance and propagates poison over the
                            // slice it owns.
                            shared.poisoned.store(true, Ordering::SeqCst);
                            shared.send_event(Event::KernelFailure {
                                kernel: unit.kernel,
                                age: unit.age,
                                indices: indices.clone(),
                                message,
                            });
                        }
                    }
                }
            }
        }
    }

    let dispatch_time = t_unit.elapsed().saturating_sub(body_time);
    shared
        .instruments
        .record_unit(unit.kernel, unit.len() as u64, dispatch_time, body_time);

    // Failed-but-retryable instances become ONE retry unit, re-dispatched
    // by the watchdog after the backoff delay. Its outstanding count is
    // taken here and held until the retry finishes, so quiescence cannot
    // be observed with a retry pending.
    let retried = !failed.is_empty();
    if retried {
        shared.trace(|| TraceEvent::RetryScheduled {
            kernel: unit.kernel,
            age: unit.age.0,
            instances: failed.len(),
            attempt: unit.attempt + 1,
            budget: policy.retries,
        });
        shared
            .instruments
            .record_retries(unit.kernel, failed.len() as u64);
        let salt = retry_salt(&unit, &failed);
        let due = Instant::now() + policy.backoff_for(unit.attempt, salt);
        let retry = DispatchUnit {
            kernel: unit.kernel,
            age: unit.age,
            instances: failed,
            attempt: unit.attempt + 1,
            prior_stored: stored_any,
        };
        shared.outstanding.fetch_add(1, Ordering::SeqCst);
        shared
            .watchdog
            .as_ref()
            .expect("watchdog runs whenever retries are configured")
            .schedule_retry(retry, due);
    }

    // The UnitDone event is counted before the unit's own count is
    // released; the analyzer may nevertheless process it first, in which
    // case this thread's release is the one that observes quiescence.
    // `instances` reports only this execution's successes — poisoned
    // instances are accounted by the analyzer, retried ones by the retry
    // unit's own UnitDone. Routed to the shard owning the unit, behind
    // every store event this thread published for it (per-shard FIFO).
    shared.send_event(Event::UnitDone {
        kernel: unit.kernel,
        age: unit.age,
        instances: ok_instances,
        stored_any,
        retried,
    });
    shared.release_outstanding();
}

/// Whether a dispatch unit may take the batched path: opted in
/// ([`RunLimits::batch_exec`]), multi-instance, first attempt, and free of
/// the features the scalar path implements per instance — store dedup
/// (cluster mode), soft deadlines (per-instance watchdog registration),
/// and fusion (inline consumer execution). Retry units fall back to the
/// scalar path, which also handles their idempotent store replay.
fn batch_eligible(shared: &Shared, unit: &DispatchUnit) -> bool {
    let k = unit.kernel;
    shared.batch_exec
        && unit.instances.len() >= 2
        && unit.attempt == 0
        && !shared.dedup_stores
        && shared.fault[k.idx()].deadline.is_none()
        && !shared
            .fusions
            .iter()
            .any(|f| f.producer == k || f.consumer == k)
}

/// Execute a batch-eligible dispatch unit as ONE work unit: one merged
/// fetch pass (one field read-lock acquisition per fetch declaration
/// covers every instance), bodies run either through the kernel's
/// whole-unit batch body or back-to-back inside segmented
/// `catch_unwind` frames, and contiguous per-instance stores coalesce
/// into merged range stores (one write-lock, one store event). Fault
/// containment is per instance: a failed body retries or poisons only
/// itself, and only its own stores are withheld — its peers' land
/// normally.
fn run_unit_batched(shared: &Arc<Shared>, unit: DispatchUnit) {
    use p2g_graph::spec::IndexSel;
    let kernel = unit.kernel;
    let kspec = shared.spec.kernel(kernel);
    let policy = &shared.fault[kernel.idx()];
    let n = unit.instances.len();
    let t_unit = Instant::now();
    let mut body_time = Duration::ZERO;
    let mut stored_any = unit.prior_stored;

    // Merged fetch assembly. Buffers are still copies — workers never
    // hold field locks while running kernel code.
    let mut inputs: Vec<Vec<Buffer>> = (0..n)
        .map(|_| Vec::with_capacity(kspec.fetches.len()))
        .collect();
    let mut fetch_err: Option<p2g_field::FieldError> = None;
    'fetch: for fe in &kspec.fetches {
        let fa = fe.age.resolve(unit.age);
        let guard = shared.fields[fe.field.idx()].read();
        for (i, indices) in unit.instances.iter().enumerate() {
            let region = crate::program::resolve_region(&fe.dims, indices);
            match guard.fetch(fa, &region) {
                Ok(buf) => inputs[i].push(buf),
                Err(e) => {
                    fetch_err = Some(e);
                    break 'fetch;
                }
            }
        }
    }
    if let Some(e) = fetch_err {
        shared.fail(RuntimeError::Field(e));
        shared.release_outstanding();
        return;
    }

    // Whole-unit batch body, when the kernel registered one: a single
    // invocation stages every instance's stores. An `Err` or panic falls
    // back to the per-instance path — batch bodies are pure, so the
    // discarded partial staging is the only effect lost.
    let mut outcomes: Option<Vec<Result<Vec<StagedStore>, String>>> = None;
    if let Some(bbody) = &shared.batch_bodies[kernel.idx()] {
        let mut bctx = BatchCtx {
            spec: kspec,
            age: unit.age,
            instances: &unit.instances,
            inputs: &inputs,
            staged: (0..n).map(|_| Vec::new()).collect(),
            timers: &shared.timers,
        };
        for indices in &unit.instances {
            shared.trace(|| TraceEvent::BodyStart {
                kernel,
                age: unit.age.0,
                indices: indices.clone(),
                attempt: 0,
            });
        }
        IN_KERNEL.with(|c| c.set(true));
        let t_body = Instant::now();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| bbody(&mut bctx)));
        let elapsed = t_body.elapsed();
        IN_KERNEL.with(|c| c.set(false));
        let ok = matches!(&result, Ok(Ok(())));
        // Chrome-trace begin/end events nest LIFO: the batch's BodyEnds
        // close in reverse of their opens.
        for indices in unit.instances.iter().rev() {
            shared.trace(|| TraceEvent::BodyEnd {
                kernel,
                age: unit.age.0,
                indices: indices.clone(),
                attempt: 0,
                ok,
            });
        }
        if ok {
            body_time += elapsed;
            let per = elapsed / n as u32;
            for _ in 0..n {
                shared.instruments.record_latency(kernel, per);
            }
            outcomes = Some(bctx.staged.into_iter().map(Ok).collect());
        }
    }
    let outcomes = match outcomes {
        Some(o) => o,
        None => run_bodies_segmented(
            shared,
            kernel,
            unit.age,
            &unit.instances,
            &mut inputs,
            &mut body_time,
        ),
    };

    // Partition: successes apply their stores (grouped per store
    // declaration so contiguous runs can merge), failures go through the
    // kernel's fault policy exactly as on the scalar path.
    let ok_instances = outcomes.iter().filter(|o| o.is_ok()).count();
    let mut failures: Vec<(usize, String)> = Vec::new();
    let mut groups: Vec<Vec<(usize, StagedStore)>> =
        (0..kspec.stores.len()).map(|_| Vec::new()).collect();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(staged) => {
                for st in staged {
                    groups[st.store_idx].push((i, st));
                }
            }
            Err(msg) => failures.push((i, msg)),
        }
    }
    for (sidx, entries) in groups.into_iter().enumerate() {
        if entries.is_empty() {
            continue;
        }
        let decl = &kspec.stores[sidx];
        // Merge eligibility: the declaration is addressed by one leading
        // index variable (no other Var dims), every entry is a default
        // region/age 1-D store, payloads are type- and length-uniform,
        // and every successful instance staged exactly one entry.
        let leading_var = match decl.dims.first() {
            Some(IndexSel::Var(v)) => Some(v.0 as usize),
            _ => None,
        };
        let mergeable = leading_var.is_some()
            && !decl.dims[1..]
                .iter()
                .any(|d| matches!(d, IndexSel::Var(_)))
            && entries
                .iter()
                .all(|(_, st)| st.region.is_none() && st.age.is_none() && st.buffer.shape().ndim() == 1)
            && entries.windows(2).all(|w| {
                w[0].1.buffer.scalar_type() == w[1].1.buffer.scalar_type()
                    && w[0].1.buffer.len() == w[1].1.buffer.len()
            })
            && entries.len() == ok_instances
            && entries.len() >= 2;
        let apply_scalar = |run: &[(usize, StagedStore)], stored_any: &mut bool| {
            for (i, st) in run {
                apply_store_for(
                    shared,
                    kernel,
                    kspec,
                    unit.age,
                    &unit.instances[*i],
                    st,
                    false,
                    stored_any,
                )?;
            }
            Ok::<(), RuntimeError>(())
        };
        let applied = if mergeable {
            let j = leading_var.expect("checked by mergeable");
            let mut entries = entries;
            entries.sort_by_key(|(i, _)| unit.instances[*i][j]);
            // Split into maximal runs of consecutive instance coordinates
            // and land each run as one range store.
            let mut result = Ok(());
            let mut run_start = 0usize;
            for e in 1..=entries.len() {
                let boundary = e == entries.len()
                    || unit.instances[entries[e].0][j] != unit.instances[entries[e - 1].0][j] + 1;
                if !boundary {
                    continue;
                }
                let run = &entries[run_start..e];
                run_start = e;
                result = if run.len() >= 2 {
                    apply_store_merged(
                        shared,
                        kernel,
                        kspec,
                        unit.age,
                        &unit.instances,
                        j,
                        sidx,
                        run,
                        &mut stored_any,
                    )
                } else {
                    apply_scalar(run, &mut stored_any)
                };
                if result.is_err() {
                    break;
                }
            }
            result
        } else {
            apply_scalar(&entries, &mut stored_any)
        };
        if let Err(err) = applied {
            shared.fail(err);
            shared.release_outstanding();
            return;
        }
    }

    // Fault policy, per failed instance: retryable failures batch into
    // one delayed retry unit (which is not batch-eligible, so its replay
    // runs scalar and stores idempotently); exhausted ones abort or
    // poison. Poison is per instance — only the failed instance's
    // downstream dependents are quarantined.
    let mut failed: Vec<Vec<usize>> = Vec::new();
    for (i, message) in failures {
        shared.instruments.record_failure(kernel);
        if unit.attempt < policy.retries {
            failed.push(unit.instances[i].clone());
        } else {
            match policy.on_exhaust {
                ExhaustPolicy::Abort => {
                    shared.fail(RuntimeError::Kernel {
                        kernel: kspec.name.clone(),
                        message,
                    });
                    shared.release_outstanding();
                    return;
                }
                ExhaustPolicy::Poison => {
                    shared.poisoned.store(true, Ordering::SeqCst);
                    shared.send_event(Event::KernelFailure {
                        kernel,
                        age: unit.age,
                        indices: unit.instances[i].clone(),
                        message,
                    });
                }
            }
        }
    }

    let dispatch_time = t_unit.elapsed().saturating_sub(body_time);
    shared
        .instruments
        .record_unit(kernel, n as u64, dispatch_time, body_time);
    shared.instruments.record_batched(n as u64);

    let retried = !failed.is_empty();
    if retried {
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
        shared
            .watchdog
            .as_ref()
            .expect("watchdog runs whenever retries are configured")
            .schedule_retry(retry, due);
    }

    shared.send_event(Event::UnitDone {
        kernel,
        age: unit.age,
        instances: ok_instances,
        stored_any,
        retried,
    });
    shared.release_outstanding();
}

/// Run a unit's kernel bodies back-to-back inside as few `catch_unwind`
/// frames as possible: one frame covers every remaining instance, and a
/// panic fails only the body that raised it — the frame's completed
/// outcomes persist and the next frame resumes right after the panicking
/// instance, so successful bodies never re-run.
fn run_bodies_segmented(
    shared: &Arc<Shared>,
    kernel: KernelId,
    age: Age,
    instances: &[Vec<usize>],
    inputs: &mut [Vec<Buffer>],
    body_time: &mut Duration,
) -> Vec<Result<Vec<StagedStore>, String>> {
    let kspec = shared.spec.kernel(kernel);
    let body = shared.bodies[kernel.idx()]
        .as_ref()
        .expect("bodies checked before run");
    let n = instances.len();
    let mut outcomes: Vec<Result<Vec<StagedStore>, String>> = Vec::with_capacity(n);
    while outcomes.len() < n {
        // Set before each body invocation so a panic's partial runtime
        // still lands in the instruments.
        let mut last_start: Option<Instant> = None;
        IN_KERNEL.with(|c| c.set(true));
        let segment = {
            let outcomes = &mut outcomes;
            let inputs = &mut *inputs;
            let body_time = &mut *body_time;
            let last_start = &mut last_start;
            std::panic::catch_unwind(AssertUnwindSafe(move || {
                while outcomes.len() < n {
                    let i = outcomes.len();
                    let indices = &instances[i];
                    shared.trace(|| TraceEvent::BodyStart {
                        kernel,
                        age: age.0,
                        indices: indices.clone(),
                        attempt: 0,
                    });
                    let mut ctx = KernelCtx {
                        spec: kspec,
                        age,
                        indices,
                        inputs: std::mem::take(&mut inputs[i]),
                        staged: Vec::new(),
                        timers: &shared.timers,
                        cancel: None,
                    };
                    *last_start = Some(Instant::now());
                    let result = body(&mut ctx);
                    let elapsed = last_start.take().expect("set above").elapsed();
                    *body_time += elapsed;
                    shared.instruments.record_latency(kernel, elapsed);
                    shared.trace(|| TraceEvent::BodyEnd {
                        kernel,
                        age: age.0,
                        indices: indices.clone(),
                        attempt: 0,
                        ok: result.is_ok(),
                    });
                    outcomes.push(match result {
                        Ok(()) => Ok(std::mem::take(&mut ctx.staged)),
                        Err(e) => Err(e),
                    });
                }
            }))
        };
        IN_KERNEL.with(|c| c.set(false));
        if let Err(payload) = segment {
            // The panicking body is the first without an outcome; its
            // staging died with the unwound ctx.
            let indices = &instances[outcomes.len()];
            if let Some(t) = last_start {
                let elapsed = t.elapsed();
                *body_time += elapsed;
                shared.instruments.record_latency(kernel, elapsed);
            }
            shared.trace(|| TraceEvent::BodyEnd {
                kernel,
                age: age.0,
                indices: indices.clone(),
                attempt: 0,
                ok: false,
            });
            outcomes.push(Err(format!("panic: {}", panic_message(payload.as_ref()))));
        }
    }
    outcomes
}

/// Apply one merged range store: a maximal run of consecutive instances'
/// 1-D stores into the same declaration lands as one write-lock
/// acquisition, one concatenated payload, and one store event whose
/// region's leading dimension is the run's range. Row-major region
/// enumeration makes the concatenation order (ascending instance
/// coordinate) exactly the flattened element order.
#[allow(clippy::too_many_arguments)]
fn apply_store_merged(
    shared: &Arc<Shared>,
    kernel: KernelId,
    kspec: &p2g_graph::spec::KernelSpec,
    age: Age,
    instances: &[Vec<usize>],
    j: usize,
    sidx: usize,
    run: &[(usize, StagedStore)],
    stored_any: &mut bool,
) -> Result<(), RuntimeError> {
    use p2g_field::DimSel;
    let decl = &kspec.stores[sidx];
    let target_age = decl.age.resolve(age);
    let mut region = crate::program::resolve_region(&decl.dims, &instances[run[0].0]);
    region.0[0] = DimSel::Range {
        start: instances[run[0].0][j],
        len: run.len(),
    };
    let payload = Buffer::concat(run.iter().map(|(_, st)| &st.buffer))?;
    let (outcome, region, extents) = {
        let mut field = shared.fields[decl.field.idx()].write();
        // Batched units are first attempts with dedup ruled out by
        // eligibility, so the strict write-once store applies.
        let outcome = field.store(target_age, &region, &payload)?;
        let extents = field
            .extents(target_age)
            .cloned()
            .expect("age resident after store");
        let resolved = region.resolved_against(&extents);
        (outcome, resolved, extents)
    };
    *stored_any = true;
    shared.trace(|| {
        store_event(
            Some(kernel),
            decl.field,
            target_age,
            region.clone(),
            outcome.stored,
            outcome.deduped,
            outcome.age_complete,
        )
    });
    shared
        .instruments
        .record_store(kernel, decl.field, outcome.stored as u64);
    if outcome.deduped > 0 {
        shared.instruments.record_deduped(outcome.deduped as u64);
    }
    if let Some(tap) = &shared.store_tap {
        tap(decl.field, target_age, &region, &payload);
    }
    // A merged region spans several points, so the inline fast path
    // (single-point stores only) never applies here.
    shared.send_event(Event::Store(StoreEvent {
        field: decl.field,
        age: target_age,
        region,
        extents,
        elements: outcome.stored,
        age_complete: outcome.age_complete,
        resized: outcome.resized,
        inline_dispatched: None,
    }));
    Ok(())
}

/// Invoke a kernel body inside `catch_unwind`: a panic is contained to
/// this instance and reported as a body failure. The staged stores of a
/// failed body are discarded by the caller (the `KernelCtx` holds them),
/// so a panicking instance leaves no partial writes behind.
fn invoke_body(body: &KernelBody, ctx: &mut KernelCtx) -> Result<(), String> {
    IN_KERNEL.with(|c| c.set(true));
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| body(ctx)));
    IN_KERNEL.with(|c| c.set(false));
    match result {
        Ok(r) => r,
        Err(payload) => Err(format!("panic: {}", panic_message(payload.as_ref()))),
    }
}

/// Execute one kernel instance (and its fused consumer, if any). Returns
/// whether any store was performed.
fn run_instance(
    shared: &Arc<Shared>,
    kernel: KernelId,
    age: Age,
    indices: &[usize],
    attempt: u32,
    cancel: Option<&AtomicBool>,
    body_time: &mut Duration,
) -> Result<bool, InstanceError> {
    let kspec = shared.spec.kernel(kernel);
    // A retry may re-apply stores an earlier attempt already landed (a
    // fused consumer can fail after the producer stores applied), so
    // attempts > 0 store idempotently.
    let idempotent = attempt > 0;

    // Assemble fetch buffers (copies — workers never hold field locks
    // while running kernel code).
    let mut inputs = Vec::with_capacity(kspec.fetches.len());
    for fe in &kspec.fetches {
        let fa = fe.age.resolve(age);
        let region = crate::program::resolve_region(&fe.dims, indices);
        let buf = shared.fields[fe.field.idx()].read().fetch(fa, &region)?;
        inputs.push(buf);
    }

    let mut ctx = KernelCtx {
        spec: kspec,
        age,
        indices,
        inputs,
        staged: Vec::new(),
        timers: &shared.timers,
        cancel,
    };
    let body = shared.bodies[kernel.idx()]
        .as_ref()
        .expect("bodies checked before run");
    shared.trace(|| TraceEvent::BodyStart {
        kernel,
        age: age.0,
        indices: indices.to_vec(),
        attempt,
    });
    let t_body = Instant::now();
    let body_result = invoke_body(body, &mut ctx);
    let body_elapsed = t_body.elapsed();
    *body_time += body_elapsed;
    shared.instruments.record_latency(kernel, body_elapsed);
    shared.trace(|| TraceEvent::BodyEnd {
        kernel,
        age: age.0,
        indices: indices.to_vec(),
        attempt,
        ok: body_result.is_ok(),
    });
    // Body failure (Err or contained panic): the staged stores die with
    // the ctx — nothing was applied to any field.
    body_result.map_err(InstanceError::Body)?;

    let staged = std::mem::take(&mut ctx.staged);
    let fusion = shared.fusions.iter().find(|f| f.producer == kernel);
    let mut stored_any = false;

    for st in &staged {
        let elide = fusion.is_some_and(|f| f.elide_store && f.producer_store == st.store_idx);
        if !elide {
            apply_store(
                shared,
                kernel,
                age,
                indices,
                st,
                idempotent,
                &mut stored_any,
            )?;
        } else {
            stored_any = true;
        }
    }

    // Fused consumer: run inline on the producer's staged output.
    if let Some(plan) = fusion {
        for st in &staged {
            if st.store_idx != plan.producer_store {
                continue;
            }
            let cspec = shared.spec.kernel(plan.consumer);
            // The consumer's index variables take the values selected by
            // the producer's store pattern at the Var positions.
            let decl = &kspec.stores[st.store_idx];
            let fe = &cspec.fetches[0];
            let mut cidx = vec![0usize; cspec.index_vars as usize];
            for (sel_p, sel_c) in decl.dims.iter().zip(&fe.dims) {
                if let (p2g_graph::spec::IndexSel::Var(pv), p2g_graph::spec::IndexSel::Var(cv)) =
                    (sel_p, sel_c)
                {
                    cidx[cv.0 as usize] = indices[pv.0 as usize];
                }
            }
            let mut cctx = KernelCtx {
                spec: cspec,
                age,
                indices: &cidx,
                inputs: vec![st.buffer.clone()],
                staged: Vec::new(),
                timers: &shared.timers,
                cancel,
            };
            let cbody = shared.bodies[plan.consumer.idx()]
                .as_ref()
                .expect("bodies checked before run");
            shared.trace(|| TraceEvent::BodyStart {
                kernel: plan.consumer,
                age: age.0,
                indices: cidx.clone(),
                attempt,
            });
            let t_body = Instant::now();
            let cresult = invoke_body(cbody, &mut cctx);
            let c_elapsed = t_body.elapsed();
            *body_time += c_elapsed;
            shared.instruments.record_latency(plan.consumer, c_elapsed);
            shared.trace(|| TraceEvent::BodyEnd {
                kernel: plan.consumer,
                age: age.0,
                indices: cidx.clone(),
                attempt,
                ok: cresult.is_ok(),
            });
            cresult.map_err(InstanceError::Body)?;
            let cstaged = std::mem::take(&mut cctx.staged);
            for cst in &cstaged {
                apply_store_for(
                    shared,
                    plan.consumer,
                    cspec,
                    age,
                    &cidx,
                    cst,
                    idempotent,
                    &mut stored_any,
                )?;
            }
            shared
                .instruments
                .record_unit(plan.consumer, 1, Duration::ZERO, Duration::ZERO);
        }
    }

    Ok(stored_any)
}

#[allow(clippy::too_many_arguments)]
fn apply_store(
    shared: &Arc<Shared>,
    kernel: KernelId,
    age: Age,
    indices: &[usize],
    st: &StagedStore,
    idempotent: bool,
    stored_any: &mut bool,
) -> Result<(), RuntimeError> {
    let kspec = shared.spec.kernel(kernel);
    apply_store_for(
        shared, kernel, kspec, age, indices, st, idempotent, stored_any,
    )
}

#[allow(clippy::too_many_arguments)]
fn apply_store_for(
    shared: &Arc<Shared>,
    kernel: KernelId,
    kspec: &p2g_graph::spec::KernelSpec,
    age: Age,
    indices: &[usize],
    st: &StagedStore,
    idempotent: bool,
    stored_any: &mut bool,
) -> Result<(), RuntimeError> {
    let decl = &kspec.stores[st.store_idx];
    let target_age = st.age.unwrap_or_else(|| decl.age.resolve(age));
    let region = match &st.region {
        Some(r) => r.clone(),
        None => crate::program::resolve_region(&decl.dims, indices),
    };
    // Cluster mode stores dedup: recovery re-executes kernels whose data
    // already (partially) exists, and write-once equality makes that a
    // no-op instead of a violation. Single-node mode keeps the strict
    // write-once error, which is a program bug there — except on fault
    // retries, which may legitimately replay stores an earlier attempt
    // already landed.
    //
    // The store event must describe the store relative to the extents at
    // store time (later stores may grow the field before the analyzer
    // observes this event), so the resolved region and post-store extents
    // are captured inside the write lock.
    let (outcome, region, extents) = {
        let mut field = shared.fields[decl.field.idx()].write();
        let outcome = if shared.dedup_stores || idempotent {
            field.store_idempotent(target_age, &region, &st.buffer)?
        } else {
            field.store(target_age, &region, &st.buffer)?
        };
        let extents = field
            .extents(target_age)
            .cloned()
            .expect("age resident after store");
        let resolved = region.resolved_against(&extents);
        (outcome, resolved, extents)
    };
    // An attempted store counts for source sequencing even when fully
    // deduped — the re-executed source must keep advancing its ages.
    *stored_any = true;
    // Recorded before the store event is sent, so the trace's StoreApplied
    // happens-before any dispatch the analyzer derives from it.
    shared.trace(|| {
        store_event(
            Some(kernel),
            decl.field,
            target_age,
            region.clone(),
            outcome.stored,
            outcome.deduped,
            outcome.age_complete,
        )
    });
    shared
        .instruments
        .record_store(kernel, decl.field, outcome.stored as u64);
    if outcome.deduped > 0 {
        shared.instruments.record_deduped(outcome.deduped as u64);
    }
    // Forward even fully-deduped stores: subscribers may have missed the
    // original producer's forward, and their replicas dedup in turn.
    if let Some(tap) = &shared.store_tap {
        tap(decl.field, target_age, &region, &st.buffer);
    }
    // Inline fast path: a fresh single-point store into a field with a
    // pointwise single-fetch consumer proves exactly one instance ready —
    // dispatch it from this worker and tag the store event so the owning
    // analyzer shard reconciles instead of re-dispatching, keeping the
    // analyzer round trip off the dispatch critical path.
    let mut inline: Option<(KernelId, Age, Vec<usize>)> = None;
    if let Some(plan) = &shared.inline[decl.field.idx()] {
        if !idempotent && outcome.deduped == 0 && !shared.poisoned.load(Ordering::SeqCst) {
            let ca = target_age.0 as i64 - plan.t;
            if ca >= 0 && plan.max_ages.is_none_or(|m| (ca as u64) < m) {
                if let Ok(spans) = region.resolve(&extents) {
                    if spans.iter().all(|&(_, len)| len == 1) {
                        let mut cidx = vec![0usize; plan.index_vars];
                        for (d, &(start, _)) in spans.iter().enumerate() {
                            cidx[plan.var_of_dim[d]] = start;
                        }
                        inline = Some((plan.consumer, Age(ca as u64), cidx));
                    }
                }
            }
        }
    }
    // The tagged store event is sent before the inline unit is dispatched,
    // so the owning shard observes the tag ahead of any event the unit
    // itself produces.
    shared.send_event(Event::Store(StoreEvent {
        field: decl.field,
        age: target_age,
        region,
        extents,
        elements: outcome.stored,
        age_complete: outcome.age_complete,
        resized: outcome.resized,
        inline_dispatched: inline.as_ref().map(|(consumer, _, _)| *consumer),
    }));
    if let Some((consumer, cage, cidx)) = inline {
        shared.trace(|| TraceEvent::InstanceDispatched {
            kernel: consumer,
            age: cage.0,
            indices: cidx.clone(),
        });
        shared.instruments.record_inline_dispatch();
        shared.outstanding.fetch_add(1, Ordering::SeqCst);
        shared.dispatch(DispatchUnit {
            kernel: consumer,
            age: cage,
            instances: vec![cidx],
            attempt: 0,
            prior_stored: false,
        });
    }
    Ok(())
}
