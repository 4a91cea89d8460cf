//! Structured run tracing: typed execution events in per-thread ring
//! buffers, merged into a [`RunTrace`] at the end of the run.
//!
//! The `Instruments` layer keeps lossy aggregate counters; this module
//! keeps the *events themselves* — per-instance dispatch, body start/end,
//! store application, retries, deadline misses, poisoning and analyzer
//! batching — with monotonic timestamps and (kernel, age, index) identity.
//! That makes orderings first-class data: the [`crate::trace_check`]
//! module asserts dependency-before-dispatch, write-once and retry-budget
//! invariants directly on the trace, and the export methods feed
//! `chrome://tracing` and JSONL tooling.
//!
//! # Overhead
//!
//! Recording is gated twice: a runtime `Option` (tracing off costs one
//! branch per would-be event) and per-thread ring buffers behind
//! uncontended mutexes (each runtime thread — worker, analyzer, main —
//! writes only its own buffer; the locks are touched by another thread
//! only at capture time). Buffers are bounded: when a ring is full the
//! oldest event is dropped and counted, so the hot path never allocates
//! without bound. Enable tracing per run with
//! [`crate::RunLimits::with_trace`] or build with `--features trace` to
//! default it on everywhere.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use p2g_field::{Age, DimSel, FieldId, Region};
use p2g_graph::{KernelId, NodeId, ProgramSpec};

/// One structured runtime event.
///
/// Ages are carried as raw `u64` and regions pre-resolved (no extent-
/// relative `All` selectors) so every event is meaningful on its own,
/// independent of later field growth.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The dependency analyzer dispatched one kernel instance (pushed as
    /// part of a ready unit). Recorded per instance, not per unit.
    InstanceDispatched {
        kernel: KernelId,
        age: u64,
        indices: Vec<usize>,
    },
    /// A kernel body began executing on a worker.
    BodyStart {
        kernel: KernelId,
        age: u64,
        indices: Vec<usize>,
        attempt: u32,
    },
    /// The kernel body returned (`ok`) or failed (`Err`/contained panic).
    BodyEnd {
        kernel: KernelId,
        age: u64,
        indices: Vec<usize>,
        attempt: u32,
        ok: bool,
    },
    /// A store was applied to a field. `kernel` is `None` for stores
    /// injected from another node (distributed mode); `region` is resolved
    /// against the extents at store time. `elements` counts freshly
    /// written elements, `deduped` the ones absorbed by write-once
    /// deduplication.
    StoreApplied {
        kernel: Option<KernelId>,
        field: FieldId,
        age: u64,
        region: Region,
        elements: usize,
        deduped: usize,
        age_complete: bool,
    },
    /// Failed instances were batched into one delayed retry unit.
    /// `attempt` is the attempt number the retry will run as (1-based);
    /// `budget` the kernel's configured retry budget.
    RetryScheduled {
        kernel: KernelId,
        age: u64,
        instances: usize,
        attempt: u32,
        budget: u32,
    },
    /// An instance finished at or after its soft deadline (traced on the
    /// worker's lane as the instance closes).
    DeadlineMiss {
        kernel: KernelId,
        age: u64,
        indices: Vec<usize>,
    },
    /// An instance was skipped by poison propagation.
    Poisoned {
        kernel: KernelId,
        age: u64,
        indices: Vec<usize>,
    },
    /// The analyzer drained one event batch from its channel.
    AnalyzerBatch { events: usize },
    /// Distributed: a store forward was sent to another node.
    Send {
        from: NodeId,
        to: NodeId,
        field: FieldId,
        age: u64,
    },
    /// Distributed: a store forward was received and injected.
    Recv {
        node: NodeId,
        field: FieldId,
        age: u64,
    },
    /// Distributed: the coordinator declared a node dead.
    NodeDeath { node: NodeId },
    /// Distributed: the coordinator re-planned the kernel assignment over
    /// the surviving nodes.
    Replan { survivors: Vec<NodeId> },
    /// Age GC retired every `(field, age)` slab of `field` below `below`
    /// (`collected` of them were actually resident). Streaming runs emit
    /// one per GC-limit advance; the no-store-after-retire trace invariant
    /// checks stores against these.
    AgeRetired {
        field: FieldId,
        below: u64,
        collected: usize,
    },
    /// The adaptive-granularity controller changed a kernel's chunk size
    /// (always by a factor of two, `from` to `to`). `overhead_ppm` is the
    /// dispatch-overhead fraction observed over the decision interval in
    /// parts per million; `p95_ns` the kernel's p95 per-instance body
    /// latency at decision time.
    GranularityChange {
        kernel: KernelId,
        from: usize,
        to: usize,
        overhead_ppm: u64,
        p95_ns: u64,
    },
}

impl TraceEvent {
    /// Stable name of the event kind (the `type` field of the JSONL
    /// export, and the event-schema vocabulary CI validates against).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::InstanceDispatched { .. } => "InstanceDispatched",
            TraceEvent::BodyStart { .. } => "BodyStart",
            TraceEvent::BodyEnd { .. } => "BodyEnd",
            TraceEvent::StoreApplied { .. } => "StoreApplied",
            TraceEvent::RetryScheduled { .. } => "RetryScheduled",
            TraceEvent::DeadlineMiss { .. } => "DeadlineMiss",
            TraceEvent::Poisoned { .. } => "Poisoned",
            TraceEvent::AnalyzerBatch { .. } => "AnalyzerBatch",
            TraceEvent::Send { .. } => "Send",
            TraceEvent::Recv { .. } => "Recv",
            TraceEvent::NodeDeath { .. } => "NodeDeath",
            TraceEvent::Replan { .. } => "Replan",
            TraceEvent::AgeRetired { .. } => "AgeRetired",
            TraceEvent::GranularityChange { .. } => "GranularityChange",
        }
    }

    /// Every kind name, in declaration order — the event schema.
    pub const KINDS: [&'static str; 14] = [
        "InstanceDispatched",
        "BodyStart",
        "BodyEnd",
        "StoreApplied",
        "RetryScheduled",
        "DeadlineMiss",
        "Poisoned",
        "AnalyzerBatch",
        "Send",
        "Recv",
        "NodeDeath",
        "Replan",
        "AgeRetired",
        "GranularityChange",
    ];
}

/// One recorded event: monotonic timestamp (nanoseconds since the
/// tracer's epoch), the recording thread's buffer id, and the event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    pub ts_ns: u64,
    pub tid: u32,
    pub event: TraceEvent,
}

struct Ring {
    buf: VecDeque<(u64, TraceEvent)>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ts: u64, event: TraceEvent) {
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back((ts, event));
    }
}

/// Per-thread ring-buffer capacity, in events, of a traced run. When a
/// buffer fills, the oldest events are dropped (and counted in
/// [`RunTrace::dropped`]); [`crate::trace_check`] refuses to certify a
/// lossy trace.
pub const TRACE_CAPACITY: usize = 1 << 16;

/// The per-run event collector: one bounded ring buffer per runtime
/// thread, each behind its own (uncontended) mutex, sharing a monotonic
/// epoch so timestamps are comparable across threads.
pub struct Tracer {
    epoch: Instant,
    buffers: Vec<Mutex<Ring>>,
    labels: Vec<String>,
}

impl Tracer {
    /// A tracer with one buffer per label (buffer id = label index).
    pub fn new(labels: Vec<String>, capacity: usize) -> Tracer {
        let capacity = capacity.max(16);
        let buffers = labels
            .iter()
            .map(|_| {
                Mutex::new(Ring {
                    buf: VecDeque::new(),
                    capacity,
                    dropped: 0,
                })
            })
            .collect();
        Tracer {
            epoch: Instant::now(),
            buffers,
            labels,
        }
    }

    /// Nanoseconds since this tracer's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record an event into buffer `tid`. Out-of-range ids fall back to
    /// buffer 0 so a mis-wired thread never panics the runtime.
    #[inline]
    pub fn record(&self, tid: u32, event: TraceEvent) {
        let ts = self.now_ns();
        let idx = (tid as usize).min(self.buffers.len().saturating_sub(1));
        self.buffers[idx].lock().push(ts, event);
    }

    /// Number of per-thread buffers.
    pub fn threads(&self) -> usize {
        self.buffers.len()
    }

    /// Merge every buffer into a time-sorted [`RunTrace`]. Intended for
    /// the end of a run, after the recording threads have quiesced.
    pub fn capture(&self, spec: Arc<ProgramSpec>) -> RunTrace {
        let mut records = Vec::new();
        let mut dropped = 0u64;
        for (tid, lock) in self.buffers.iter().enumerate() {
            let g = lock.lock();
            dropped += g.dropped;
            records.extend(g.buf.iter().map(|(ts, ev)| TraceRecord {
                ts_ns: *ts,
                tid: tid as u32,
                event: ev.clone(),
            }));
        }
        // Stores sort before other events at equal timestamps: a store is
        // recorded before the analyzer can observe it, so on a tie the
        // causal order is store-first. (Ties are possible on coarse
        // clocks.)
        records.sort_by_key(|r| {
            let rank = match r.event {
                TraceEvent::StoreApplied { .. } => 0u8,
                _ => 1,
            };
            (r.ts_ns, rank, r.tid)
        });
        RunTrace {
            spec,
            records,
            dropped,
            thread_labels: self.labels.clone(),
        }
    }
}

/// The merged, time-sorted event log of one run, attached to
/// [`crate::RunReport`] when tracing is enabled. Carries the program spec
/// so invariant checks can resolve kernel fetch/store declarations.
#[derive(Clone)]
pub struct RunTrace {
    spec: Arc<ProgramSpec>,
    /// All records, sorted by timestamp.
    pub records: Vec<TraceRecord>,
    /// Events lost to ring-buffer overflow across all threads. Nonzero
    /// means the trace is a suffix, not the whole run.
    pub dropped: u64,
    /// Buffer labels (thread names), indexed by `TraceRecord::tid`.
    pub thread_labels: Vec<String>,
}

impl std::fmt::Debug for RunTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunTrace")
            .field("records", &self.records.len())
            .field("dropped", &self.dropped)
            .field("threads", &self.thread_labels)
            .finish()
    }
}

impl RunTrace {
    /// The program spec the traced run executed.
    pub fn spec(&self) -> &ProgramSpec {
        &self.spec
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Event counts per kind name.
    pub fn counts(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut m = std::collections::BTreeMap::new();
        for r in &self.records {
            *m.entry(r.event.kind()).or_insert(0) += 1;
        }
        m
    }

    /// Records of one kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceRecord> + 'a {
        self.records.iter().filter(move |r| r.event.kind() == kind)
    }

    fn kernel_name(&self, k: KernelId) -> &str {
        &self.spec.kernel(k).name
    }

    /// Serialize as JSON Lines: one object per record with `ts_ns`, `tid`
    /// and `type` fields plus event-specific fields.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 96);
        for r in &self.records {
            self.write_jsonl_record(&mut out, r);
            out.push('\n');
        }
        out
    }

    fn write_jsonl_record(&self, out: &mut String, r: &TraceRecord) {
        use std::fmt::Write;
        let _ = write!(
            out,
            "{{\"ts_ns\":{},\"tid\":{},\"type\":\"{}\"",
            r.ts_ns,
            r.tid,
            r.event.kind()
        );
        match &r.event {
            TraceEvent::InstanceDispatched {
                kernel,
                age,
                indices,
            }
            | TraceEvent::DeadlineMiss {
                kernel,
                age,
                indices,
            }
            | TraceEvent::Poisoned {
                kernel,
                age,
                indices,
            } => {
                let _ = write!(
                    out,
                    ",\"kernel\":\"{}\",\"age\":{},\"indices\":{}",
                    json_escape(self.kernel_name(*kernel)),
                    age,
                    json_usize_array(indices)
                );
            }
            TraceEvent::BodyStart {
                kernel,
                age,
                indices,
                attempt,
            } => {
                let _ = write!(
                    out,
                    ",\"kernel\":\"{}\",\"age\":{},\"indices\":{},\"attempt\":{}",
                    json_escape(self.kernel_name(*kernel)),
                    age,
                    json_usize_array(indices),
                    attempt
                );
            }
            TraceEvent::BodyEnd {
                kernel,
                age,
                indices,
                attempt,
                ok,
            } => {
                let _ = write!(
                    out,
                    ",\"kernel\":\"{}\",\"age\":{},\"indices\":{},\"attempt\":{},\"ok\":{}",
                    json_escape(self.kernel_name(*kernel)),
                    age,
                    json_usize_array(indices),
                    attempt,
                    ok
                );
            }
            TraceEvent::StoreApplied {
                kernel,
                field,
                age,
                region,
                elements,
                deduped,
                age_complete,
            } => {
                match kernel {
                    Some(k) => {
                        let _ = write!(
                            out,
                            ",\"kernel\":\"{}\"",
                            json_escape(self.kernel_name(*k))
                        );
                    }
                    None => out.push_str(",\"kernel\":null"),
                }
                let fname = self
                    .spec
                    .fields
                    .get(field.idx())
                    .map(|f| f.name.as_str())
                    .unwrap_or("?");
                let _ = write!(
                    out,
                    ",\"field\":\"{}\",\"age\":{},\"region\":\"{}\",\"elements\":{},\"deduped\":{},\"age_complete\":{}",
                    json_escape(fname),
                    age,
                    region,
                    elements,
                    deduped,
                    age_complete
                );
            }
            TraceEvent::RetryScheduled {
                kernel,
                age,
                instances,
                attempt,
                budget,
            } => {
                let _ = write!(
                    out,
                    ",\"kernel\":\"{}\",\"age\":{},\"instances\":{},\"attempt\":{},\"budget\":{}",
                    json_escape(self.kernel_name(*kernel)),
                    age,
                    instances,
                    attempt,
                    budget
                );
            }
            TraceEvent::AnalyzerBatch { events } => {
                let _ = write!(out, ",\"events\":{events}");
            }
            TraceEvent::Send {
                from,
                to,
                field,
                age,
            } => {
                let _ = write!(
                    out,
                    ",\"from\":{},\"to\":{},\"field\":{},\"age\":{}",
                    from.0, to.0, field.0, age
                );
            }
            TraceEvent::Recv { node, field, age } => {
                let _ = write!(
                    out,
                    ",\"node\":{},\"field\":{},\"age\":{}",
                    node.0, field.0, age
                );
            }
            TraceEvent::NodeDeath { node } => {
                let _ = write!(out, ",\"node\":{}", node.0);
            }
            TraceEvent::Replan { survivors } => {
                let _ = write!(
                    out,
                    ",\"survivors\":{}",
                    json_usize_array(&survivors.iter().map(|n| n.0 as usize).collect::<Vec<_>>())
                );
            }
            TraceEvent::AgeRetired {
                field,
                below,
                collected,
            } => {
                let fname = self
                    .spec
                    .fields
                    .get(field.idx())
                    .map(|f| f.name.as_str())
                    .unwrap_or("?");
                let _ = write!(
                    out,
                    ",\"field\":\"{}\",\"below\":{},\"collected\":{}",
                    json_escape(fname),
                    below,
                    collected
                );
            }
            TraceEvent::GranularityChange {
                kernel,
                from,
                to,
                overhead_ppm,
                p95_ns,
            } => {
                let _ = write!(
                    out,
                    ",\"kernel\":\"{}\",\"from\":{},\"to\":{},\"overhead_ppm\":{},\"p95_ns\":{}",
                    json_escape(self.kernel_name(*kernel)),
                    from,
                    to,
                    overhead_ppm,
                    p95_ns
                );
            }
        }
        out.push('}');
    }

    /// Serialize in the Chrome trace-event format (open the output in
    /// `chrome://tracing` or Perfetto). Body executions become duration
    /// (`B`/`E`) pairs; everything else becomes instant events.
    pub fn to_chrome_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(self.records.len() * 128 + 256);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for (tid, label) in self.thread_labels.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                tid,
                json_escape(label)
            );
        }
        for r in &self.records {
            let ts_us = r.ts_ns as f64 / 1000.0;
            let (name, ph): (String, &str) = match &r.event {
                TraceEvent::BodyStart {
                    kernel,
                    age,
                    indices,
                    ..
                } => (
                    format!(
                        "{}@{}{}",
                        self.kernel_name(*kernel),
                        age,
                        fmt_indices(indices)
                    ),
                    "B",
                ),
                TraceEvent::BodyEnd {
                    kernel,
                    age,
                    indices,
                    ..
                } => (
                    format!(
                        "{}@{}{}",
                        self.kernel_name(*kernel),
                        age,
                        fmt_indices(indices)
                    ),
                    "E",
                ),
                other => (other.kind().to_string(), "i"),
            };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":0,\"tid\":{}",
                json_escape(&name),
                r.event.kind(),
                ph,
                ts_us,
                r.tid
            );
            if ph == "i" {
                out.push_str(",\"s\":\"t\"");
            }
            out.push('}');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

fn fmt_indices(indices: &[usize]) -> String {
    let mut s = String::new();
    for i in indices {
        s.push_str(&format!("[{i}]"));
    }
    s
}

fn json_usize_array(v: &[usize]) -> String {
    let mut s = String::from("[");
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&x.to_string());
    }
    s.push(']');
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Enumerate the multi-indices of a resolved region (no `All` selectors).
/// Used by the trace invariants; returns `None` when the region still
/// contains an extent-relative selector.
pub(crate) fn region_coords(region: &Region) -> Option<Vec<Vec<usize>>> {
    let mut spans = Vec::with_capacity(region.0.len());
    for sel in &region.0 {
        match *sel {
            DimSel::Index(i) => spans.push((i, 1usize)),
            DimSel::Range { start, len } => spans.push((start, len)),
            DimSel::All => return None,
        }
    }
    let total: usize = spans.iter().map(|&(_, len)| len).product();
    let mut out = Vec::with_capacity(total);
    let mut cursor: Vec<usize> = spans.iter().map(|&(s, _)| s).collect();
    if spans.iter().any(|&(_, len)| len == 0) {
        return Some(out);
    }
    loop {
        out.push(cursor.clone());
        let mut d = spans.len();
        loop {
            if d == 0 {
                return Some(out);
            }
            d -= 1;
            let (start, len) = spans[d];
            cursor[d] += 1;
            if cursor[d] < start + len {
                break;
            }
            cursor[d] = start;
        }
    }
}

/// Convenience constructor used by runtime code that records store events.
pub(crate) fn store_event(
    kernel: Option<KernelId>,
    field: FieldId,
    age: Age,
    region: Region,
    elements: usize,
    deduped: usize,
    age_complete: bool,
) -> TraceEvent {
    TraceEvent::StoreApplied {
        kernel,
        field,
        age: age.0,
        region,
        elements,
        deduped,
        age_complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2g_graph::spec::mul_sum_example;

    fn spec() -> Arc<ProgramSpec> {
        Arc::new(mul_sum_example())
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = Tracer::new(vec!["w0".into()], 16);
        for i in 0..40 {
            t.record(0, TraceEvent::AnalyzerBatch { events: i });
        }
        let trace = t.capture(spec());
        assert_eq!(trace.len(), 16);
        assert_eq!(trace.dropped, 24);
        // The survivors are the newest events.
        match &trace.records[0].event {
            TraceEvent::AnalyzerBatch { events } => assert_eq!(*events, 24),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn merge_sorts_across_buffers() {
        let t = Tracer::new(vec!["a".into(), "b".into()], 64);
        t.record(1, TraceEvent::AnalyzerBatch { events: 1 });
        t.record(0, TraceEvent::AnalyzerBatch { events: 2 });
        t.record(1, TraceEvent::AnalyzerBatch { events: 3 });
        let trace = t.capture(spec());
        assert_eq!(trace.len(), 3);
        let ts: Vec<u64> = trace.records.iter().map(|r| r.ts_ns).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn out_of_range_tid_is_clamped() {
        let t = Tracer::new(vec!["only".into()], 16);
        t.record(99, TraceEvent::AnalyzerBatch { events: 0 });
        assert_eq!(t.capture(spec()).len(), 1);
    }

    #[test]
    fn jsonl_one_object_per_record() {
        let t = Tracer::new(vec!["w0".into()], 64);
        t.record(
            0,
            TraceEvent::BodyStart {
                kernel: KernelId(1),
                age: 2,
                indices: vec![3],
                attempt: 0,
            },
        );
        t.record(
            0,
            TraceEvent::StoreApplied {
                kernel: Some(KernelId(1)),
                field: FieldId(0),
                age: 2,
                region: Region(vec![DimSel::Index(3)]),
                elements: 1,
                deduped: 0,
                age_complete: false,
            },
        );
        let jsonl = t.capture(spec()).to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"BodyStart\""));
        assert!(lines[0].contains("\"kernel\":\"mul2\""));
        assert!(lines[1].contains("\"type\":\"StoreApplied\""));
        assert!(lines[1].contains("\"age_complete\":false"));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn chrome_json_has_balanced_body_pairs() {
        let t = Tracer::new(vec!["w0".into()], 64);
        t.record(
            0,
            TraceEvent::BodyStart {
                kernel: KernelId(0),
                age: 0,
                indices: vec![],
                attempt: 0,
            },
        );
        t.record(
            0,
            TraceEvent::BodyEnd {
                kernel: KernelId(0),
                age: 0,
                indices: vec![],
                attempt: 0,
                ok: true,
            },
        );
        let json = t.capture(spec()).to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn region_coords_enumerates_row_major() {
        let r = Region(vec![
            DimSel::Range { start: 1, len: 2 },
            DimSel::Index(4),
        ]);
        assert_eq!(
            region_coords(&r).unwrap(),
            vec![vec![1, 4], vec![2, 4]]
        );
        assert!(region_coords(&Region::all(1)).is_none());
        let empty = Region(vec![DimSel::Range { start: 0, len: 0 }]);
        assert_eq!(region_coords(&empty).unwrap(), Vec::<Vec<usize>>::new());
    }

    #[test]
    fn counts_by_kind() {
        let t = Tracer::new(vec!["w0".into()], 64);
        t.record(0, TraceEvent::AnalyzerBatch { events: 1 });
        t.record(0, TraceEvent::AnalyzerBatch { events: 2 });
        t.record(0, TraceEvent::NodeDeath { node: NodeId(1) });
        let c = t.capture(spec()).counts();
        assert_eq!(c["AnalyzerBatch"], 2);
        assert_eq!(c["NodeDeath"], 1);
    }
}
