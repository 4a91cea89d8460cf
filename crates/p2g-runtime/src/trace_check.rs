//! Reusable invariant assertions over a [`RunTrace`] — the trace-level
//! counterpart of the paper's execution-model guarantees.
//!
//! Each check panics with a descriptive message on violation, so a test
//! can validate a whole run in one line:
//!
//! ```ignore
//! let report = NodeBuilder::new(program)
//!     .launch(RunLimits::ages(3).with_trace())?
//!     .wait()?;
//! p2g_runtime::trace_check::all(&report);
//! ```
//!
//! The invariants:
//!
//! 1. **Dependencies before dispatch** — every analyzer dispatch of an
//!    instance is preceded in the merged record order (no timestamp tie
//!    tolerance) by stores covering its resolvable fetch coordinates;
//!    whole-field (`All`) fetches require the fetched age to have been
//!    completed by a prior store. One analyzer thread reads one event
//!    queue, so every dependency store is traced before the dispatch it
//!    enables.
//! 2. **Write-once** — no (field, age, element) is freshly written twice
//!    by kernel stores, net of distributed-mode deduplication (deduped
//!    and remote-injected stores are exempt by construction).
//! 3. **Retries within budget** — no retry is scheduled past its kernel's
//!    configured budget, and the scheduled-retry total matches the
//!    instruments counter.
//! 4. **Poison consistency** — the traced poisoned set equals the
//!    instruments' poisoned set, and a degraded run shows at least one
//!    failing body execution in the trace.
//! 5. **No store after retirement** — once age GC retires a field below
//!    some age (`AgeRetired`), no later store targets that field at a
//!    retired age: GC only collects ages every consumer is finished with,
//!    so a late store would mean the safe-age clamp under-approximated.
//! 6. **Granularity decisions sane** — adaptive chunk-size changes form a
//!    per-kernel chain (each decision's `from` is the previous decision's
//!    `to`), move by exactly a factor of two, and never reach zero.
//! 7. **Only the analyzer dispatches** — every `InstanceDispatched` is
//!    recorded on the `analyzer` lane, or on `main`,
//!    where launch seeds the source kernels. No worker or
//!    remote-store path makes an instance ready.

use std::collections::{BTreeSet, HashMap, HashSet};

use p2g_field::Age;

use crate::instrument::RunReport;
use crate::trace::{region_coords, RunTrace, TraceEvent};

/// Run every invariant against a finished run's report. Panics if the
/// report carries no trace (enable with [`crate::RunLimits::with_trace`]
/// or the `trace` cargo feature) or if the trace dropped events.
pub fn all(report: &RunReport) {
    let trace = report.trace.as_ref().expect(
        "trace_check::all requires tracing: launch with RunLimits::with_trace() \
         or build with --features trace",
    );
    assert_eq!(
        trace.dropped, 0,
        "trace ring buffers overflowed ({} events dropped); raise \
         trace::TRACE_CAPACITY for invariant checking",
        trace.dropped
    );
    dependencies_respected_strict(trace);
    write_once(trace);
    retries_within_budget(trace);
    let retried: usize = trace
        .of_kind("RetryScheduled")
        .map(|r| match &r.event {
            TraceEvent::RetryScheduled { instances, .. } => *instances,
            _ => 0,
        })
        .sum();
    assert_eq!(
        retried as u64,
        report.instruments.total_retries(),
        "traced retry instances must match the instruments retry counter"
    );
    poisoned_consistent(trace, report);
    no_store_after_retire(trace);
    granularity_sane(trace);
    only_analyzer_dispatches(trace);
}

/// Invariant 7: every instance dispatch is traced on the `analyzer` lane
/// or on `main` (launch-time seeding of the source kernels).
pub(crate) fn only_analyzer_dispatches(trace: &RunTrace) {
    for r in trace.of_kind("InstanceDispatched") {
        let lane = trace
            .thread_labels
            .get(r.tid as usize)
            .map_or("<unlabelled>", String::as_str);
        assert!(
            lane == "main" || lane == "analyzer",
            "{:?} traced on lane {lane}: only the analyzer (or launch-time \
             seeding on main) may make an instance ready",
            r.event
        );
    }
}

/// Invariant 6: the adaptive-granularity controller's decisions are sane.
/// Per kernel, decisions chain (`from` equals the previous decision's
/// `to`), every decision actually changes the chunk size, moves by exactly
/// a factor of two (`to ∈ {from/2, from*2}`, halving rounds down), and the
/// target never drops to zero.
pub(crate) fn granularity_sane(trace: &RunTrace) {
    let mut last_to: HashMap<u32, usize> = HashMap::new();
    for r in trace.of_kind("GranularityChange") {
        let TraceEvent::GranularityChange {
            kernel, from, to, ..
        } = &r.event
        else {
            continue;
        };
        let name = &trace.spec().kernel(*kernel).name;
        if let Some(prev) = last_to.get(&kernel.0) {
            assert_eq!(
                from, prev,
                "granularity chain broken for kernel {name}: change starts at {from} \
                 but the previous decision ended at {prev}"
            );
        }
        assert!(
            *to >= 1,
            "granularity of kernel {name} adapted to zero (from {from})"
        );
        assert_ne!(
            to, from,
            "granularity no-op decision traced for kernel {name} at {from}"
        );
        assert!(
            *to == from / 2 || *to == from * 2,
            "granularity of kernel {name} moved {from} -> {to}, which is not \
             a factor-of-two step"
        );
        last_to.insert(kernel.0, *to);
    }
}

/// Invariant 5: no store lands at a `(field, age)` the GC already retired.
/// (A store tying the same timestamp as the retirement is ordered before
/// it by the capture sort, which is the causally-correct reading.)
pub(crate) fn no_store_after_retire(trace: &RunTrace) {
    let mut retired: HashMap<u32, u64> = HashMap::new();
    for r in &trace.records {
        match &r.event {
            TraceEvent::AgeRetired { field, below, .. } => {
                let e = retired.entry(field.0).or_insert(0);
                *e = (*e).max(*below);
            }
            TraceEvent::StoreApplied { field, age, .. } => {
                if let Some(&below) = retired.get(&field.0) {
                    assert!(
                        *age >= below,
                        "store to field {} age {} after GC retired that field below {}",
                        field.0,
                        age,
                        below
                    );
                }
            }
            _ => {}
        }
    }
}

/// State of one (field, age) as seen so far while scanning the trace.
#[derive(Default)]
struct WrittenAge {
    coords: HashSet<Vec<usize>>,
    complete: bool,
}

/// Check one dispatch's fetch set against the stores seen so far.
fn check_dispatch(
    written: &HashMap<(u32, u64), WrittenAge>,
    trace: &RunTrace,
    kernel: p2g_graph::KernelId,
    age: u64,
    indices: &[usize],
) {
    let kspec = trace.spec().kernel(kernel);
    for fe in &kspec.fetches {
        let fa = fe.age.resolve(Age(age));
        let region = crate::program::resolve_region(&fe.dims, indices);
        let w = written.get(&(fe.field.0, fa.0));
        match region_coords(&region) {
            Some(coords) => {
                let w = w.unwrap_or_else(|| {
                    panic!(
                        "dispatch of {}@{}{:?} precedes any store to its \
                         fetched field {} age {}",
                        kspec.name, age, indices, fe.field.0, fa.0
                    )
                });
                for c in coords {
                    assert!(
                        w.coords.contains(&c),
                        "dispatch of {}@{}{:?} precedes the store of its \
                         fetch coordinate {:?} in field {} age {}",
                        kspec.name,
                        age,
                        indices,
                        c,
                        fe.field.0,
                        fa.0
                    );
                }
            }
            None => {
                // Whole-field fetch: the analyzer's gate is age
                // completeness.
                assert!(
                    w.is_some_and(|w| w.complete),
                    "dispatch of {}@{}{:?} fetches all of field {} age {} \
                     before any store completed that age",
                    kspec.name,
                    age,
                    indices,
                    fe.field.0,
                    fa.0
                );
            }
        }
    }
}

/// Invariant 1: every `InstanceDispatched` is preceded, in exact
/// merged-record order with no timestamp tie tolerance, by stores covering
/// its fetch set — each dispatch sees only the stores at strictly earlier
/// record positions.
///
/// Fetch regions that resolve to concrete coordinates (index variables and
/// constants) are checked pointwise. A whole-dimension (`All`) fetch is
/// gated by age completeness in the analyzer, so the check requires a
/// prior store with `age_complete` for that (field, age).
///
/// The node's one analyzer reads one event queue, and a store is traced
/// before its event is sent (the merge sorts stores first on a timestamp
/// tie), so every dependency store is traced at an earlier position than
/// the dispatch it enables.
pub fn dependencies_respected_strict(trace: &RunTrace) {
    let mut written: HashMap<(u32, u64), WrittenAge> = HashMap::new();
    for r in &trace.records {
        match &r.event {
            TraceEvent::StoreApplied {
                field,
                age,
                region,
                age_complete,
                ..
            } => {
                let w = written.entry((field.0, *age)).or_default();
                if let Some(coords) = region_coords(region) {
                    w.coords.extend(coords);
                }
                w.complete |= *age_complete;
            }
            TraceEvent::InstanceDispatched {
                kernel,
                age,
                indices,
            } => check_dispatch(&written, trace, *kernel, *age, indices),
            _ => {}
        }
    }
}

/// Invariant 2: write-once per (field, age, element), net of dedup.
///
/// Only fully-fresh kernel stores (`deduped == 0`, `kernel != None`) mark
/// coordinates: a partially-deduped store cannot attribute which elements
/// were fresh, and remote-injected stores are replicas of a store already
/// checked on the producing node. This under-approximates (never
/// false-positives) in distributed mode and is exact on a single node.
pub(crate) fn write_once(trace: &RunTrace) {
    let mut fresh: HashMap<(u32, u64), HashSet<Vec<usize>>> = HashMap::new();
    for r in &trace.records {
        if let TraceEvent::StoreApplied {
            kernel: Some(kernel),
            field,
            age,
            region,
            deduped,
            elements,
            ..
        } = &r.event
        {
            if *deduped > 0 || *elements == 0 {
                continue;
            }
            let Some(coords) = region_coords(region) else {
                continue;
            };
            let set = fresh.entry((field.0, *age)).or_default();
            for c in coords {
                assert!(
                    set.insert(c.clone()),
                    "write-once violated in trace: kernel {} freshly stored field {} \
                     age {} element {:?} twice",
                    trace.spec().kernel(*kernel).name,
                    field.0,
                    age,
                    c
                );
            }
        }
    }
}

/// Invariant 3: every scheduled retry stays within its kernel's budget
/// (each `RetryScheduled` event carries the budget it was checked
/// against).
pub(crate) fn retries_within_budget(trace: &RunTrace) {
    for r in trace.of_kind("RetryScheduled") {
        if let TraceEvent::RetryScheduled {
            kernel,
            age,
            attempt,
            budget,
            ..
        } = &r.event
        {
            assert!(
                attempt <= budget,
                "retry attempt {} of kernel {} age {} exceeds its budget {}",
                attempt,
                trace.spec().kernel(*kernel).name,
                age,
                budget
            );
        }
    }
}

/// Invariant 4: the traced poisoned set equals the instruments' poisoned
/// set, and poisoning implies recorded body failures.
pub(crate) fn poisoned_consistent(trace: &RunTrace, report: &RunReport) {
    let traced: BTreeSet<(String, u64, Vec<usize>)> = trace
        .of_kind("Poisoned")
        .filter_map(|r| match &r.event {
            TraceEvent::Poisoned {
                kernel,
                age,
                indices,
            } => Some((
                trace.spec().kernel(*kernel).name.clone(),
                *age,
                indices.clone(),
            )),
            _ => None,
        })
        .collect();
    let reported: BTreeSet<(String, u64, Vec<usize>)> = report
        .instruments
        .poisoned_instances()
        .iter()
        .flat_map(|((k, a), idxs)| idxs.iter().map(move |i| (k.clone(), *a, i.clone())))
        .collect();
    assert_eq!(
        traced, reported,
        "traced Poisoned events must match the instruments poisoned set"
    );
    if !traced.is_empty() {
        assert!(
            report.instruments.total_failures() > 0,
            "poisoned instances recorded without any counted body failure"
        );
        assert!(
            trace.records.iter().any(|r| matches!(
                r.event,
                TraceEvent::BodyEnd { ok: false, .. }
            )),
            "poisoned instances recorded without any failing BodyEnd in the trace"
        );
    }
}
