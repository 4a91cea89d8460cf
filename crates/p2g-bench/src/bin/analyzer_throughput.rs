//! Standalone dependency-analyzer throughput — the serial resource whose
//! saturation produces Figure 10's scaling collapse.
//!
//! Drives the analyzer synchronously (no worker threads, no channel) with a
//! K-means-shaped store storm: the `assign` kernel's one-element stores into
//! `assignments(a)[x]` are the fine-grained events that swamp the analyzer
//! in the paper's evaluation, and the `refine` row stores into
//! `centroids(a+1)[c][*]` close the aging cycle. Reports events/sec and
//! per-event dispatch latency, and writes a JSON artifact under `results/`.
//!
//! Usage:
//! `cargo run -p p2g-bench --bin analyzer_throughput --release -- \
//!    [--n 2000] [--k 100] [--ages 10] [--reps 3] [--quick] [--trace] \
//!    [--label after] [--out BENCH_analyzer.json]`
//!
//! `--trace` records a structured trace event per fed store (the same
//! per-store record a tracing-enabled worker performs), measuring the
//! tracing hot-path overhead against an untraced run of the same storm.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use p2g_bench::{arg, has_flag, write_result};
use p2g_core::prelude::*;
use p2g_core::runtime::analyzer::{DependencyAnalyzer, SharedFields};
use p2g_core::runtime::events::Event;
use p2g_core::runtime::trace::{TraceEvent, Tracer};

mod event_shim {
    //! Builds a [`StoreEvent`] from a just-applied store the way the node's
    //! worker loop does — kept in one place so the bench tracks the event
    //! shape.
    use super::*;
    use p2g_core::field::field::StoreOutcome;
    use p2g_core::runtime::events::StoreEvent;

    pub fn store_event(
        fields: &SharedFields,
        fid: u32,
        age: u64,
        region: &Region,
        buffer: &Buffer,
    ) -> StoreEvent {
        let mut field = fields[fid as usize].write();
        let o: StoreOutcome = field.store(Age(age), region, buffer).expect("bench store");
        let extents = field
            .extents(Age(age))
            .cloned()
            .expect("age resident after store");
        StoreEvent {
            field: FieldId(fid),
            age: Age(age),
            region: region.resolved_against(&extents),
            extents,
            elements: o.stored,
            age_complete: o.age_complete,
            resized: o.resized,
            inline_dispatched: None,
        }
    }
}
use event_shim::store_event;

struct StormStats {
    events: usize,
    units: usize,
    instances: usize,
    elapsed_s: f64,
    lat_ns: Vec<u64>,
}

/// One full storm: seed, init stores, then per age `n` one-element
/// assignment stores and `k` centroid row stores, synchronously through the
/// analyzer. Returns per-event latencies and dispatch totals.
fn run_storm(n: usize, k: usize, ages: u64, tracer: Option<&Tracer>, batch: usize) -> StormStats {
    let spec = Arc::new(p2g_kmeans::pipeline::kmeans_spec(n, k, 2));
    let fields: SharedFields = Arc::new(
        spec.fields
            .iter()
            .enumerate()
            .map(|(i, d)| parking_lot::RwLock::new(Field::new(FieldId(i as u32), d.clone())))
            .collect(),
    );
    // `--batch B` chunks runnable instances into B-instance dispatch
    // units, the shape the executor runs as one work unit.
    let mut options = vec![p2g_core::runtime::KernelOptions::default(); spec.kernels.len()];
    for o in &mut options {
        o.chunk_size = batch.max(1);
    }
    let mut an = DependencyAnalyzer::new(
        spec.clone(),
        options,
        HashSet::new(),
        fields.clone(),
        RunLimits::ages(ages),
    );
    an.seed();

    let mut events = 0usize;
    let mut units = 0usize;
    let mut instances = 0usize;
    let mut lat_ns: Vec<u64> = Vec::with_capacity((n + k + 2) * ages as usize + 2);

    let mut feed = |an: &mut DependencyAnalyzer, ev: Event| {
        let t = Instant::now();
        // With --trace, pay the same per-store record a tracing-enabled
        // worker pays before publishing the event.
        if let Some(tr) = tracer {
            if let Event::Store(se) = &ev {
                tr.record(
                    0,
                    TraceEvent::StoreApplied {
                        kernel: None,
                        field: se.field,
                        age: se.age.0,
                        region: se.region.clone(),
                        elements: se.elements,
                        deduped: 0,
                        age_complete: se.age_complete,
                    },
                );
            }
        }
        let out = an.on_event(&ev).expect("analyzer accepts event");
        lat_ns.push(t.elapsed().as_nanos() as u64);
        events += 1;
        units += out.len();
        instances += out.iter().map(|u| u.len()).sum::<usize>();
    };

    let t0 = Instant::now();

    // init: whole-field datapoints(0) + centroids(0), as the init kernel
    // performs them.
    let pts = Buffer::zeroed(ScalarType::F64, Extents::new([n, 2]));
    let ev = store_event(&fields, 0, 0, &Region::all(2), &pts);
    feed(&mut an, Event::Store(ev));
    let cts = Buffer::zeroed(ScalarType::F64, Extents::new([k, 2]));
    let ev = store_event(&fields, 1, 0, &Region::all(2), &cts);
    feed(&mut an, Event::Store(ev));

    for a in 0..ages {
        // assign(a)[x]: one-element stores into assignments(a) — the
        // fine-grained event storm of Figure 10.
        for x in 0..n {
            let ev = store_event(
                &fields,
                2,
                a,
                &Region::point(&[x]),
                &Buffer::from_vec(vec![(x % k) as i32]),
            );
            feed(&mut an, Event::Store(ev));
        }
        // refine(a)[c]: row stores closing the aging cycle.
        if a + 1 < ages {
            for c in 0..k {
                let row = Buffer::zeroed(ScalarType::F64, Extents::new([1, 2]));
                let region = Region(vec![
                    DimSel::Range { start: c, len: 1 },
                    DimSel::Range { start: 0, len: 2 },
                ]);
                let ev = store_event(&fields, 1, a + 1, &region, &row);
                feed(&mut an, Event::Store(ev));
            }
        }
    }

    StormStats {
        events,
        units,
        instances,
        elapsed_s: t0.elapsed().as_secs_f64(),
        lat_ns,
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (dn, dk, dages) = if quick { (200, 20, 3) } else { (2000, 100, 10) };
    let n: usize = arg("--n", dn);
    let k: usize = arg("--k", dk);
    let ages: u64 = arg("--ages", dages);
    let reps: usize = arg("--reps", if quick { 1 } else { 3 });
    let label: String = arg("--label", "current".to_string());
    let out_name: String = arg("--out", "BENCH_analyzer.json".to_string());
    let traced = has_flag("--trace");
    let batch: usize = arg("--batch", 1);
    let tracer = traced.then(|| Tracer::new(vec!["bench".into()], 1 << 16));

    eprintln!(
        "analyzer_throughput: n={n} k={k} ages={ages} reps={reps} label={label} trace={traced} \
         batch={batch}"
    );

    let mut best: Option<StormStats> = None;
    for rep in 0..reps.max(1) {
        let s = run_storm(n, k, ages, tracer.as_ref(), batch);
        eprintln!(
            "  rep {rep}: {} events in {:.4}s  ({:.0} events/s, {} units, {} instances)",
            s.events,
            s.elapsed_s,
            s.events as f64 / s.elapsed_s,
            s.units,
            s.instances
        );
        if best.as_ref().is_none_or(|b| s.elapsed_s < b.elapsed_s) {
            best = Some(s);
        }
    }
    let mut s = best.expect("at least one rep");
    if std::env::var("LAT_DUMP").is_ok() {
        let mut worst: Vec<(u64, usize)> = s.lat_ns.iter().copied().zip(0..).collect();
        worst.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        for (ns, i) in worst.iter().take(25) {
            eprintln!("  slow event #{i}: {ns} ns");
        }
    }
    let events_per_sec = s.events as f64 / s.elapsed_s;
    s.lat_ns.sort_unstable();
    let mean_ns = s.lat_ns.iter().sum::<u64>() as f64 / s.lat_ns.len().max(1) as f64;
    let p50 = percentile(&s.lat_ns, 0.50);
    let p99 = percentile(&s.lat_ns, 0.99);
    let max = s.lat_ns.last().copied().unwrap_or(0);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"analyzer_throughput\",");
    let _ = writeln!(json, "  \"label\": \"{label}\",");
    let _ = writeln!(
        json,
        "  \"workload\": {{ \"shape\": \"kmeans\", \"n\": {n}, \"k\": {k}, \"ages\": {ages}, \
         \"batch\": {batch} }},"
    );
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"events\": {},", s.events);
    let _ = writeln!(json, "  \"dispatch_units\": {},", s.units);
    let _ = writeln!(json, "  \"dispatched_instances\": {},", s.instances);
    let _ = writeln!(json, "  \"elapsed_s\": {:.6},", s.elapsed_s);
    let _ = writeln!(json, "  \"events_per_sec\": {events_per_sec:.1},");
    let _ = writeln!(json, "  \"dispatch_latency_ns\": {{");
    let _ = writeln!(json, "    \"mean\": {mean_ns:.0},");
    let _ = writeln!(json, "    \"p50\": {p50},");
    let _ = writeln!(json, "    \"p99\": {p99},");
    let _ = writeln!(json, "    \"max\": {max}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    print!("{json}");
    write_result(&out_name, &json);
}
