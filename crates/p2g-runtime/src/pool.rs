//! The worker pool: a fixed set of worker threads executing dispatch units
//! from one age-priority queue — the only place a kernel instance runs.
//!
//! Every node is a pool tenant. A node launched without
//! `crate::NodeBuilder::pool` owns a pool of its own, sized by
//! [`crate::NodeBuilder::workers`]; a resident multi-tenant runtime
//! ([`crate::session::SessionRuntime`]) instead attaches every session to
//! one shared pool — a hundred sessions must not mean a hundred thread
//! pools. Entries rank by (class, vtime, age, kernel, arrival) *across*
//! tenants:
//!
//! * Without per-session [`Qos`] every entry sits at the default
//!   `(QOS_CLASS_NORMAL, 0)` rank, so the queue degenerates to the
//!   original age discipline: ages are frame numbers, the session that is
//!   furthest behind pops first, and a saturated tenant's deep backlog
//!   cannot starve a lightly-loaded one.
//! * With [`Qos`] configured, `class` is a strict priority level and
//!   `vtime` implements start-time fair queueing (SFQ): each dispatched
//!   unit advances its session's virtual time by `STRIDE_ONE / weight`,
//!   clamped up to the pool-global virtual clock, so saturating sessions
//!   receive worker time proportional to their weights and an idle
//!   session cannot bank credit while asleep and then monopolize the pool
//!   on wake.
//!
//! Lifecycle: a shared pool outlives the nodes attached to it. Nodes stop
//! individually (quiescence, `request_stop`) without touching it; their
//! queued units drain harmlessly — a unit for a stopped-and-failed node is
//! skipped, one for a cleanly-stopped node runs against its still-live
//! fields. A node's own pool closes when the node stops and is joined when
//! the node finishes. Any pool shuts down when dropped: the queue closes,
//! workers finish the remaining backlog and exit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::instance::DispatchUnit;
use crate::node::{pool_worker_tick, Shared};
use crate::ready::{Ranked, ReadyQueue, QOS_CLASS_NORMAL};

/// Virtual-time advance per dispatched unit at weight 1. Weights divide
/// this stride, so a weight-2 session's vtime grows half as fast and it
/// pops twice as many units per unit of virtual time.
const STRIDE_ONE: u64 = 1 << 20;

/// Per-session quality of service on the shared pool: a strict priority
/// class plus a weighted fair share within the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Qos {
    /// Strict priority level, lower is more urgent. Class
    /// `QOS_CLASS_NORMAL` (1) is where sessions without explicit QoS
    /// rank; 0 is the realtime class, 2 the bulk class.
    pub class: u8,
    /// Fair-share weight within the class (at least 1): while saturated,
    /// a weight-2 session receives twice the dispatches of a weight-1
    /// session of the same class.
    pub weight: u32,
}

impl Default for Qos {
    fn default() -> Qos {
        Qos::normal()
    }
}

impl Qos {
    /// The default class with weight 1.
    pub fn normal() -> Qos {
        Qos {
            class: QOS_CLASS_NORMAL,
            weight: 1,
        }
    }

    /// The realtime class: strictly ahead of every normal/bulk entry.
    pub fn high() -> Qos {
        Qos { class: 0, weight: 1 }
    }

    /// The bulk class: strictly behind every realtime/normal entry.
    pub fn bulk() -> Qos {
        Qos { class: 2, weight: 1 }
    }

    /// Set the fair-share weight (at least 1).
    pub fn weight(mut self, w: u32) -> Qos {
        self.weight = w.max(1);
        self
    }
}

/// The live SFQ state of one QoS-configured session: its class, stride,
/// and advancing virtual time.
pub(crate) struct QosState {
    pub(crate) class: u8,
    stride: u64,
    vtime: AtomicU64,
    /// Units dispatched to the pool under this state — the fair-share
    /// gauge the QoS tests measure.
    dispatched: AtomicU64,
}

impl QosState {
    pub(crate) fn new(qos: Qos) -> Arc<QosState> {
        Arc::new(QosState {
            class: qos.class,
            stride: (STRIDE_ONE / u64::from(qos.weight.max(1))).max(1),
            vtime: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
        })
    }

    /// The SFQ start tag for the next unit: `max(own vtime, global
    /// clock)`, advancing own vtime by one stride. The clamp to the
    /// global clock is what stops an idle session from accumulating an
    /// arbitrarily old vtime and then starving everyone on wake.
    fn next_start(&self, clock: &AtomicU64) -> u64 {
        let global = clock.load(Ordering::Relaxed);
        let mut cur = self.vtime.load(Ordering::Relaxed);
        loop {
            let start = cur.max(global);
            match self.vtime.compare_exchange_weak(
                cur,
                start.saturating_add(self.stride),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return start,
                Err(now) => cur = now,
            }
        }
    }

    pub(crate) fn units_dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }
}

/// One queued unit of work: the owning node's shared state plus the unit,
/// stamped with the owning session's QoS rank at enqueue time.
pub(crate) struct PoolTask {
    pub(crate) shared: Arc<Shared>,
    pub(crate) unit: DispatchUnit,
    class: u8,
    vtime: u64,
}

impl Ranked for PoolTask {
    fn rank_age(&self) -> u64 {
        self.unit.age.0
    }
    fn rank_kernel(&self) -> u32 {
        self.unit.kernel.0
    }
    fn rank_class(&self) -> u8 {
        self.class
    }
    fn rank_vtime(&self) -> u64 {
        self.vtime
    }
}

/// A fixed-size worker pool: one node's own, or shared by every session of
/// a [`crate::session::SessionRuntime`] (and by pool-attached batch nodes).
pub struct WorkerPool {
    queue: Arc<ReadyQueue<PoolTask>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    workers: usize,
    /// The pool-global SFQ virtual clock: the maximum vtime tag that has
    /// entered service. New and waking sessions clamp up to it.
    clock: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Start a pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> Arc<WorkerPool> {
        let workers = workers.max(1);
        let queue: Arc<ReadyQueue<PoolTask>> = Arc::new(ReadyQueue::new());
        let clock = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let q = queue.clone();
            let clk = clock.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("p2g-pool-{w}"))
                    .spawn(move || {
                        while let Some(task) = q.pop() {
                            clk.fetch_max(task.vtime, Ordering::Relaxed);
                            pool_worker_tick(w as u32, task);
                        }
                    })
                    .expect("spawn pool worker"),
            );
        }
        Arc::new(WorkerPool {
            queue,
            handles: Mutex::new(handles),
            workers,
            clock,
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Units currently queued (all tenants).
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Enqueue one unit for `shared`'s node, stamped with its session's
    /// QoS rank (or the neutral default rank when the node has no QoS).
    pub(crate) fn submit(&self, shared: Arc<Shared>, unit: DispatchUnit) {
        let (class, vtime) = match shared.qos() {
            Some(q) => {
                q.dispatched.fetch_add(1, Ordering::Relaxed);
                (q.class, q.next_start(&self.clock))
            }
            None => (QOS_CLASS_NORMAL, 0),
        };
        self.queue.push(PoolTask {
            shared,
            unit,
            class,
            vtime,
        });
    }

    /// Close the queue: workers drain the remaining backlog and exit.
    pub(crate) fn close(&self) {
        self.queue.close();
    }

    /// Close the queue, join the workers (remaining backlog drains first)
    /// and drop whatever was queued after they left, so a late unit cannot
    /// keep its node alive. A worker never joins itself: it may drop the
    /// last reference to the pool. False when a worker panicked.
    /// Idempotent.
    pub fn shutdown(&self) -> bool {
        self.close();
        let me = std::thread::current().id();
        let handles = std::mem::take(&mut *self.handles.lock());
        let mut clean = true;
        for h in handles.into_iter().filter(|h| h.thread().id() != me) {
            clean &= h.join().is_ok();
        }
        while self.queue.try_pop().is_some() {}
        clean
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}
