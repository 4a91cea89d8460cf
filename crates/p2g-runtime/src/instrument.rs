//! Instrumentation: the per-kernel dispatch/kernel timing the paper reports
//! in Tables II and III, plus the feedback data the high-level scheduler
//! uses for repartitioning.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use p2g_field::FieldId;
use p2g_graph::KernelId;

use crate::trace::RunTrace;

/// Number of log₂ latency buckets: bucket `i` covers `[2^i, 2^(i+1))`
/// nanoseconds, so the histogram spans 1 ns to ~9 minutes.
pub(crate) const LATENCY_BUCKETS: usize = 40;

const fn latency_bucket(ns: u64) -> usize {
    let ns = if ns == 0 { 1 } else { ns };
    let b = (63 - ns.leading_zeros()) as usize;
    if b >= LATENCY_BUCKETS {
        LATENCY_BUCKETS - 1
    } else {
        b
    }
}

/// Lock-free log-bucketed latency accumulator (one per kernel).
#[derive(Debug)]
pub(crate) struct LatencyCounters {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyCounters {
    fn default() -> LatencyCounters {
        LatencyCounters {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyCounters {
    fn record(&self, d: Duration) {
        let b = latency_bucket(d.as_nanos() as u64);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// An owned log₂-bucketed latency histogram: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds. Quantiles report the upper bound of the
/// bucket containing the requested rank (conservative: never understates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The latency at quantile `q` in `[0, 1]`, as the upper bound of the
    /// bucket holding that rank. Zero when no samples were recorded.
    pub fn quantile(&self, q: f64) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Duration::from_nanos(1u64 << (i + 1));
            }
        }
        Duration::from_nanos(1u64 << LATENCY_BUCKETS)
    }

    /// Median latency (upper bucket bound).
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 95th-percentile latency (upper bucket bound).
    pub(crate) fn p95(&self) -> Duration {
        self.quantile(0.95)
    }

    /// 99th-percentile latency (upper bucket bound).
    pub(crate) fn p99(&self) -> Duration {
        self.quantile(0.99)
    }
}

/// Lock-free accumulator for one kernel definition.
#[derive(Debug, Default)]
pub(crate) struct KernelCounters {
    /// Kernel instances executed.
    pub instances: AtomicU64,
    /// Dispatch units executed (differs from `instances` when chunking).
    pub units: AtomicU64,
    /// Nanoseconds of dispatch overhead: popping the unit, assembling
    /// fetch buffers, applying stores and emitting events. (The paper's
    /// dispatch time likewise includes field allocation.)
    pub dispatch_ns: AtomicU64,
    /// Nanoseconds spent inside kernel bodies.
    pub kernel_ns: AtomicU64,
    /// Elements stored by this kernel, per target field — the edge volume
    /// feedback for the HLS.
    pub stored_elements: AtomicU64,
    /// Instance executions that failed (body `Err` or contained panic),
    /// counting every attempt.
    pub failures: AtomicU64,
    /// Retry re-dispatches scheduled by the fault policy.
    pub retries: AtomicU64,
    /// Instances the watchdog flagged past their soft deadline.
    pub deadline_misses: AtomicU64,
    /// Instances skipped by poison propagation: this kernel's own
    /// exhausted-retry instances plus transitively dependent ones.
    pub poisoned: AtomicU64,
    /// Log-bucketed per-instance body-latency histogram.
    pub latency: LatencyCounters,
}

/// A snapshot of one kernel's counters.
///
/// The timing means come in two denominators. `dispatch_time` and
/// `kernel_time` are **per-instance** means — the convention of the
/// paper's Tables II/III, where one instance is one dispatch. Under
/// chunking (`KernelOptions::chunk_size > 1`) a single dispatch unit
/// covers many instances, so the per-instance dispatch mean understates
/// the cost of one scheduler round trip; `dispatch_total / units` is that
/// reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelStats {
    pub instances: u64,
    /// Dispatch units executed (equals `instances` unless chunking merged
    /// several instances per unit).
    pub units: u64,
    /// Mean dispatch overhead **per instance** (Tables II/III convention).
    pub dispatch_time: Duration,
    /// Mean time in kernel code **per instance**.
    pub kernel_time: Duration,
    /// Total dispatch overhead across all units of this kernel.
    pub dispatch_total: Duration,
    /// Total time in kernel code across all instances.
    pub kernel_total: Duration,
    /// Total elements stored.
    pub stored_elements: u64,
    /// Failed instance executions (every attempt counts).
    pub failures: u64,
    /// Retry re-dispatches scheduled by the fault policy.
    pub retries: u64,
    /// Soft-deadline overruns flagged by the watchdog.
    pub deadline_misses: u64,
    /// Instances skipped by poison propagation.
    pub poisoned: u64,
    /// Per-instance body-latency histogram (p50/p95/p99).
    pub latency: LatencyHistogram,
}

impl KernelStats {
    /// Mean dispatch time per instance in microseconds (the unit of the
    /// paper's tables).
    pub fn dispatch_us(&self) -> f64 {
        self.dispatch_time.as_nanos() as f64 / 1000.0
    }

    /// Mean kernel time per instance in microseconds.
    pub fn kernel_us(&self) -> f64 {
        self.kernel_time.as_nanos() as f64 / 1000.0
    }
}

/// Instrumentation for one execution node.
#[derive(Debug)]
pub struct Instruments {
    kernels: Vec<(String, KernelCounters)>,
    /// Nanoseconds the dedicated dependency-analyzer thread spent inside
    /// event processing — the serial resource behind the paper's
    /// Figure-10 saturation.
    analyzer_busy_ns: AtomicU64,
    /// Events the analyzer processed.
    analyzer_events: AtomicU64,
    /// Steps of the analyzer's accounting walk: one per stored or counted
    /// row, plus one per fresh element a fetch that is `Var` along the row
    /// inverts on its own.
    analyzer_elements_walked: AtomicU64,
    /// Channel drains by the analyzer loop. events / batches is the mean
    /// batch size — a gauge of how bursty the store-event load is.
    analyzer_batches: AtomicU64,
    /// Elements moved per (producer kernel, field) — aggregated into edge
    /// volumes for repartitioning.
    volumes: parking_lot::Mutex<BTreeMap<(KernelId, FieldId), u64>>,
    /// Store elements absorbed by write-once deduplication (duplicate
    /// remote deliveries and recovery re-execution). Nonzero only in
    /// distributed mode.
    deduped_elements: AtomicU64,
    /// Final poisoned-instance sets per (kernel name, age), recorded by the
    /// analyzer before it exits. Index values of every skipped instance.
    poisoned_instances: parking_lot::Mutex<PoisonedInstances>,
    /// `(field, age)` slabs retired by age GC.
    gc_ages_collected: AtomicU64,
    /// Peak simultaneously-live `(field, age)` views observed by the
    /// analyzer — the flat-memory gauge the streaming soak tests assert on.
    peak_live_ages: AtomicU64,
    /// The analyzer's event-queue depth high-water mark.
    queue_peak: AtomicU64,
    /// Chunk-size decisions made by the online granularity controller.
    granularity_changes: AtomicU64,
}

/// Poisoned-instance index vectors keyed by (kernel name, age).
pub type PoisonedInstances = BTreeMap<(String, u64), Vec<Vec<usize>>>;

impl Instruments {
    /// Create counters for `names` kernels (indexed by `KernelId::idx`).
    pub fn new(names: Vec<String>) -> Instruments {
        Instruments {
            kernels: names
                .into_iter()
                .map(|n| (n, KernelCounters::default()))
                .collect(),
            analyzer_busy_ns: AtomicU64::new(0),
            analyzer_events: AtomicU64::new(0),
            analyzer_elements_walked: AtomicU64::new(0),
            analyzer_batches: AtomicU64::new(0),
            volumes: parking_lot::Mutex::new(BTreeMap::new()),
            deduped_elements: AtomicU64::new(0),
            poisoned_instances: parking_lot::Mutex::new(BTreeMap::new()),
            gc_ages_collected: AtomicU64::new(0),
            peak_live_ages: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            granularity_changes: AtomicU64::new(0),
        }
    }

    /// Record one chunk-size decision by the granularity controller.
    pub(crate) fn record_granularity_change(&self) {
        self.granularity_changes.fetch_add(1, Ordering::Relaxed);
    }

    /// Chunk-size decisions made by the granularity controller so far.
    pub fn granularity_changes(&self) -> u64 {
        self.granularity_changes.load(Ordering::Relaxed)
    }

    /// Live raw counter reads for one kernel —
    /// `(instances, units, dispatch_ns, kernel_ns)` — the monotonic inputs
    /// the granularity controller differentiates per interval.
    pub(crate) fn kernel_raw(&self, kernel: KernelId) -> (u64, u64, u64, u64) {
        let c = &self.kernels[kernel.idx()].1;
        (
            c.instances.load(Ordering::Relaxed),
            c.units.load(Ordering::Relaxed),
            c.dispatch_ns.load(Ordering::Relaxed),
            c.kernel_ns.load(Ordering::Relaxed),
        )
    }

    /// Live body-latency histogram snapshot for one kernel.
    pub(crate) fn latency_histogram(&self, kernel: KernelId) -> LatencyHistogram {
        self.kernels[kernel.idx()].1.latency.snapshot()
    }

    /// Record the analyzer's event-queue depth (the gauge keeps the
    /// maximum).
    pub(crate) fn record_queue_depth(&self, depth: u64) {
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// The analyzer's event-queue depth high-water mark.
    pub(crate) fn queue_peak(&self) -> u64 {
        self.queue_peak.load(Ordering::Relaxed)
    }

    /// Record retired `(field, age)` slabs and the current live-age count
    /// (the peak gauge keeps the maximum).
    pub(crate) fn record_gc(&self, collected: u64, live_ages: u64) {
        self.gc_ages_collected.fetch_add(collected, Ordering::Relaxed);
        self.peak_live_ages.fetch_max(live_ages, Ordering::Relaxed);
    }

    /// Total `(field, age)` slabs retired by age GC.
    pub fn gc_ages_collected(&self) -> u64 {
        self.gc_ages_collected.load(Ordering::Relaxed)
    }

    /// Peak simultaneously-live `(field, age)` count observed.
    pub fn peak_live_ages(&self) -> u64 {
        self.peak_live_ages.load(Ordering::Relaxed)
    }

    /// Record one failed instance execution (body `Err` or panic).
    pub(crate) fn record_failure(&self, kernel: KernelId) {
        self.kernels[kernel.idx()]
            .1
            .failures
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record retry re-dispatches scheduled by the fault policy.
    pub(crate) fn record_retries(&self, kernel: KernelId, n: u64) {
        self.kernels[kernel.idx()]
            .1
            .retries
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Record a watchdog-flagged soft-deadline overrun.
    pub(crate) fn record_deadline_miss(&self, kernel: KernelId) {
        self.kernels[kernel.idx()]
            .1
            .deadline_misses
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record an instance skipped by poison propagation, with its identity
    /// for the final report.
    pub(crate) fn record_poisoned(&self, kernel: KernelId, age: u64, indices: &[usize]) {
        self.kernels[kernel.idx()]
            .1
            .poisoned
            .fetch_add(1, Ordering::Relaxed);
        let name = self.kernels[kernel.idx()].0.clone();
        self.poisoned_instances
            .lock()
            .entry((name, age))
            .or_default()
            .push(indices.to_vec());
    }

    /// Final poisoned-instance sets per (kernel name, age).
    pub fn poisoned_instances(&self) -> PoisonedInstances {
        self.poisoned_instances.lock().clone()
    }

    /// Record store elements absorbed by deduplication.
    pub(crate) fn record_deduped(&self, elements: u64) {
        self.deduped_elements.fetch_add(elements, Ordering::Relaxed);
    }

    /// Store elements absorbed by deduplication so far.
    pub fn deduped_elements(&self) -> u64 {
        self.deduped_elements.load(Ordering::Relaxed)
    }

    /// Record one processed analyzer event, its processing time and the
    /// steps its accounting walk took.
    pub(crate) fn record_analyzer_event(&self, busy: Duration, elements_walked: u64) {
        self.analyzer_busy_ns
            .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        self.analyzer_events.fetch_add(1, Ordering::Relaxed);
        self.analyzer_elements_walked
            .fetch_add(elements_walked, Ordering::Relaxed);
    }

    /// Total time the analyzer spent processing events.
    pub fn analyzer_busy(&self) -> Duration {
        Duration::from_nanos(self.analyzer_busy_ns.load(Ordering::Relaxed))
    }

    /// Number of events the analyzer processed.
    pub fn analyzer_events(&self) -> u64 {
        self.analyzer_events.load(Ordering::Relaxed)
    }

    /// Steps the analyzer's accounting walk took.
    pub fn analyzer_elements_walked(&self) -> u64 {
        self.analyzer_elements_walked.load(Ordering::Relaxed)
    }

    /// Record one greedy channel drain (a batch of one or more events).
    pub(crate) fn record_analyzer_batch(&self) {
        self.analyzer_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of channel drains by the analyzer loop.
    pub fn analyzer_batches(&self) -> u64 {
        self.analyzer_batches.load(Ordering::Relaxed)
    }

    /// Record one executed dispatch unit.
    pub fn record_unit(
        &self,
        kernel: KernelId,
        instances: u64,
        dispatch: Duration,
        body: Duration,
    ) {
        let c = &self.kernels[kernel.idx()].1;
        c.instances.fetch_add(instances, Ordering::Relaxed);
        c.units.fetch_add(1, Ordering::Relaxed);
        c.dispatch_ns
            .fetch_add(dispatch.as_nanos() as u64, Ordering::Relaxed);
        c.kernel_ns
            .fetch_add(body.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Record one body execution's latency into the kernel's histogram.
    pub fn record_latency(&self, kernel: KernelId, elapsed: Duration) {
        self.kernels[kernel.idx()].1.latency.record(elapsed);
    }

    /// Record elements stored by a kernel into a field.
    pub(crate) fn record_store(&self, kernel: KernelId, field: FieldId, elements: u64) {
        self.kernels[kernel.idx()]
            .1
            .stored_elements
            .fetch_add(elements, Ordering::Relaxed);
        *self.volumes.lock().entry((kernel, field)).or_insert(0) += elements;
    }

    /// Snapshot one kernel's stats by id.
    pub(crate) fn kernel_by_id(&self, kernel: KernelId) -> KernelStats {
        let c = &self.kernels[kernel.idx()].1;
        let instances = c.instances.load(Ordering::Relaxed);
        let div = instances.max(1);
        let dispatch_ns = c.dispatch_ns.load(Ordering::Relaxed);
        let kernel_ns = c.kernel_ns.load(Ordering::Relaxed);
        KernelStats {
            instances,
            units: c.units.load(Ordering::Relaxed),
            dispatch_time: Duration::from_nanos(dispatch_ns / div),
            kernel_time: Duration::from_nanos(kernel_ns / div),
            dispatch_total: Duration::from_nanos(dispatch_ns),
            kernel_total: Duration::from_nanos(kernel_ns),
            stored_elements: c.stored_elements.load(Ordering::Relaxed),
            failures: c.failures.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            deadline_misses: c.deadline_misses.load(Ordering::Relaxed),
            poisoned: c.poisoned.load(Ordering::Relaxed),
            latency: c.latency.snapshot(),
        }
    }

    /// Snapshot one kernel's stats by name.
    pub fn kernel(&self, name: &str) -> Option<KernelStats> {
        self.kernels
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| self.kernel_by_id(KernelId(i as u32)))
    }

    /// All kernels with their stats, in definition order.
    pub fn all(&self) -> Vec<(String, KernelStats)> {
        (0..self.kernels.len())
            .map(|i| {
                (
                    self.kernels[i].0.clone(),
                    self.kernel_by_id(KernelId(i as u32)),
                )
            })
            .collect()
    }

    /// Per-(kernel, field) element volumes, for HLS edge weighting.
    pub fn store_volumes(&self) -> BTreeMap<(KernelId, FieldId), u64> {
        self.volumes.lock().clone()
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// No more runnable instances (program finished or hit `max_ages`).
    Quiescent,
    /// The run completed but some instances were poisoned (exhausted their
    /// retry budget under [`crate::options::ExhaustPolicy::Poison`]) and
    /// their transitive dependents were skipped. Partial results.
    Degraded,
    /// The wall-clock deadline fired.
    DeadlineExpired,
    /// A kernel body or field operation failed.
    Failed,
}

impl Termination {
    /// True for the two "the program ran to the end of its instance space"
    /// outcomes: [`Termination::Quiescent`] and [`Termination::Degraded`].
    pub fn finished(&self) -> bool {
        matches!(self, Termination::Quiescent | Termination::Degraded)
    }
}

/// The result of running a program on an execution node.
#[derive(Debug)]
pub struct RunReport {
    pub termination: Termination,
    /// Total wall time of the run.
    pub wall_time: Duration,
    /// Final instrumentation snapshot.
    pub instruments: InstrumentsSnapshot,
    /// The merged structured event trace, when tracing was enabled
    /// ([`crate::RunLimits::with_trace`] or the `trace` cargo feature).
    pub trace: Option<RunTrace>,
}

/// An owned snapshot of [`Instruments`] usable after the node is dropped.
#[derive(Debug, Clone)]
pub struct InstrumentsSnapshot {
    entries: Vec<(String, KernelStats)>,
    volumes: BTreeMap<(KernelId, FieldId), u64>,
    analyzer_busy: Duration,
    analyzer_events: u64,
    analyzer_elements_walked: u64,
    analyzer_batches: u64,
    deduped_elements: u64,
    poisoned_instances: BTreeMap<(String, u64), Vec<Vec<usize>>>,
    gc_ages_collected: u64,
    peak_live_ages: u64,
    queue_peak: u64,
    granularity_changes: u64,
}

impl InstrumentsSnapshot {
    /// Capture a snapshot.
    pub fn capture(live: &Instruments) -> InstrumentsSnapshot {
        InstrumentsSnapshot {
            entries: live.all(),
            volumes: live.store_volumes(),
            analyzer_busy: live.analyzer_busy(),
            analyzer_events: live.analyzer_events(),
            analyzer_elements_walked: live.analyzer_elements_walked(),
            analyzer_batches: live.analyzer_batches(),
            deduped_elements: live.deduped_elements(),
            poisoned_instances: live.poisoned_instances(),
            gc_ages_collected: live.gc_ages_collected(),
            peak_live_ages: live.peak_live_ages(),
            queue_peak: live.queue_peak(),
            granularity_changes: live.granularity_changes(),
        }
    }

    /// Chunk-size decisions made by the online granularity controller.
    pub fn granularity_changes(&self) -> u64 {
        self.granularity_changes
    }

    /// Total `(field, age)` slabs retired by age GC during the run.
    pub fn gc_ages_collected(&self) -> u64 {
        self.gc_ages_collected
    }

    /// Peak simultaneously-live `(field, age)` count the analyzer observed
    /// — flat over a streaming run when GC keeps up.
    pub fn peak_live_ages(&self) -> u64 {
        self.peak_live_ages
    }

    /// Final poisoned-instance sets per (kernel name, age) — exactly the
    /// instances skipped by poison propagation.
    pub fn poisoned_instances(&self) -> &BTreeMap<(String, u64), Vec<Vec<usize>>> {
        &self.poisoned_instances
    }

    /// Sum of failed instance executions across kernels.
    pub fn total_failures(&self) -> u64 {
        self.entries.iter().map(|(_, s)| s.failures).sum()
    }

    /// Sum of retry re-dispatches across kernels.
    pub fn total_retries(&self) -> u64 {
        self.entries.iter().map(|(_, s)| s.retries).sum()
    }

    /// Sum of watchdog deadline misses across kernels.
    pub fn total_deadline_misses(&self) -> u64 {
        self.entries.iter().map(|(_, s)| s.deadline_misses).sum()
    }

    /// Sum of poison-skipped instances across kernels.
    pub fn total_poisoned(&self) -> u64 {
        self.entries.iter().map(|(_, s)| s.poisoned).sum()
    }

    /// Store elements absorbed by write-once deduplication (duplicate
    /// deliveries and recovery re-execution).
    pub fn deduped_elements(&self) -> u64 {
        self.deduped_elements
    }

    /// Total time the dependency analyzer spent processing events.
    pub fn analyzer_busy(&self) -> Duration {
        self.analyzer_busy
    }

    /// Events the analyzer processed.
    pub fn analyzer_events(&self) -> u64 {
        self.analyzer_events
    }

    /// Steps of the analyzer's accounting walk: one per stored or counted
    /// row, plus one per fresh element a fetch that is `Var` along the row
    /// inverts on its own. Scales with the instances stores affect, not
    /// the elements they write.
    pub fn analyzer_elements_walked(&self) -> u64 {
        self.analyzer_elements_walked
    }

    /// Channel drains by the analyzer loop (events / batches = mean batch
    /// size).
    pub fn analyzer_batches(&self) -> u64 {
        self.analyzer_batches
    }

    /// The analyzer's event-queue depth high-water mark, as a one-entry
    /// slice: the frozen benchmark ledger (v1) reads it under this name
    /// and type, and ledger v2 renames it.
    pub fn shard_queue_peaks(&self) -> &[u64] {
        std::slice::from_ref(&self.queue_peak)
    }

    /// Stats for a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelStats> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Body-latency percentiles `(p50, p95, p99)` for a kernel by name.
    pub fn latency_quantiles(&self, name: &str) -> Option<(Duration, Duration, Duration)> {
        self.kernel(name)
            .map(|s| (s.latency.p50(), s.latency.p95(), s.latency.p99()))
    }

    /// All kernel stats in definition order.
    pub fn all(&self) -> &[(String, KernelStats)] {
        &self.entries
    }

    /// Per-(kernel, field) stored-element volumes.
    pub fn store_volumes(&self) -> &BTreeMap<(KernelId, FieldId), u64> {
        &self.volumes
    }

    /// Render as the paper's micro-benchmark table (Tables II/III format),
    /// extended with the per-kernel body-latency percentiles the
    /// granularity controller reads.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<16} {:>10} {:>16} {:>16} {:>10} {:>10} {:>10}\n",
            "Kernel", "Instances", "Dispatch Time", "Kernel Time", "p50", "p95", "p99"
        ));
        for (name, st) in &self.entries {
            s.push_str(&format!(
                "{:<16} {:>10} {:>13.2} us {:>13.2} us {:>7.1} us {:>7.1} us {:>7.1} us\n",
                name,
                st.instances,
                st.dispatch_us(),
                st.kernel_us(),
                st.latency.p50().as_nanos() as f64 / 1000.0,
                st.latency.p95().as_nanos() as f64 / 1000.0,
                st.latency.p99().as_nanos() as f64 / 1000.0,
            ));
        }
        if self.granularity_changes > 0 {
            s.push_str(&format!(
                "granularity      {:>10} changes\n",
                self.granularity_changes
            ));
        }
        s.push_str(&format!(
            "analyzer         {:>10} events {:>9} queue peak\n",
            self.analyzer_events, self.queue_peak
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let ins = Instruments::new(vec!["a".into(), "b".into()]);
        ins.record_unit(
            KernelId(0),
            4,
            Duration::from_micros(8),
            Duration::from_micros(40),
        );
        ins.record_unit(
            KernelId(0),
            4,
            Duration::from_micros(8),
            Duration::from_micros(40),
        );
        let st = ins.kernel("a").unwrap();
        assert_eq!(st.instances, 8);
        assert_eq!(st.units, 2);
        // 16 us dispatch over 8 instances = 2 us mean.
        assert!((st.dispatch_us() - 2.0).abs() < 0.01);
        assert!((st.kernel_us() - 10.0).abs() < 0.01);
    }

    #[test]
    fn store_volume_tracking() {
        let ins = Instruments::new(vec!["a".into()]);
        ins.record_store(KernelId(0), FieldId(2), 64);
        ins.record_store(KernelId(0), FieldId(2), 64);
        assert_eq!(ins.store_volumes()[&(KernelId(0), FieldId(2))], 128);
        assert_eq!(ins.kernel("a").unwrap().stored_elements, 128);
    }

    #[test]
    fn unknown_kernel_name() {
        let ins = Instruments::new(vec!["a".into()]);
        assert!(ins.kernel("nope").is_none());
    }

    #[test]
    fn table_rendering() {
        let ins = Instruments::new(vec!["yDCT".into()]);
        ins.record_unit(
            KernelId(0),
            1,
            Duration::from_micros(3),
            Duration::from_micros(170),
        );
        let snap = InstrumentsSnapshot::capture(&ins);
        let table = snap.render_table();
        assert!(table.contains("yDCT"));
        assert!(table.contains("Instances"));
        assert_eq!(snap.kernel("yDCT").unwrap().instances, 1);
    }

    #[test]
    fn latency_percentiles_in_tables() {
        let ins = Instruments::new(vec!["k".into()]);
        ins.record_latency(KernelId(0), Duration::from_micros(100));
        ins.record_latency(KernelId(0), Duration::from_micros(3));
        let snap = InstrumentsSnapshot::capture(&ins);
        let table = snap.render_table();
        assert!(table.contains("p50") && table.contains("p95") && table.contains("p99"));
        let (p50, p95, p99) = snap.latency_quantiles("k").unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 >= Duration::from_micros(100));
    }

    #[test]
    fn batched_and_granularity_counters() {
        let ins = Instruments::new(vec!["k".into()]);
        ins.record_granularity_change();
        assert_eq!(ins.granularity_changes(), 1);
        let snap = InstrumentsSnapshot::capture(&ins);
        assert_eq!(snap.granularity_changes(), 1);
        assert!(snap.render_table().contains("granularity"));
    }

    #[test]
    fn kernel_raw_reads_live_counters() {
        let ins = Instruments::new(vec!["k".into()]);
        ins.record_unit(
            KernelId(0),
            4,
            Duration::from_nanos(100),
            Duration::from_nanos(400),
        );
        assert_eq!(ins.kernel_raw(KernelId(0)), (4, 1, 100, 400));
        assert_eq!(ins.latency_histogram(KernelId(0)).count(), 0);
    }
}
