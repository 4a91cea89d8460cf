//! End-to-end tests of the structured tracing subsystem: trace presence
//! and gating, invariant certification on real runs, export formats, and
//! the per-kernel latency histograms fed by the same instrumentation path.

use p2g_field::{Buffer, Extents, FieldDef, ScalarType};
use p2g_graph::spec::{
    mul_sum_example, AgeExpr, FetchDecl, IndexSel, IndexVar, KernelId, KernelSpec, ProgramSpec,
    StoreDecl,
};
use p2g_runtime::{NodeBuilder, Program, RunLimits, RunReport, TraceEvent};

fn build_program() -> Program {
    let mut program = Program::new(mul_sum_example()).unwrap();
    program.body("init", |ctx| {
        ctx.store(
            0,
            Buffer::from_vec((0..5).map(|i| i + 10).collect::<Vec<i32>>()),
        );
        Ok(())
    });
    program.body("mul2", |ctx| {
        let v = ctx.input(0).value(0).as_i64() as i32;
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
        Ok(())
    });
    program.body("plus5", |ctx| {
        let v = ctx.input(0).value(0).as_i64() as i32;
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_add(5)]));
        Ok(())
    });
    program.body("print", |_| Ok(()));
    program
}

fn traced_run(ages: u64, workers: usize) -> RunReport {
    NodeBuilder::new(build_program())
        .workers(workers)
        .launch(RunLimits::ages(ages).with_trace())
        .and_then(|n| n.wait())
        .unwrap()
}

/// Tracing is off by default (without the `trace` feature) and on when
/// requested; the gate decides whether `RunReport::trace` is populated.
#[test]
fn trace_presence_follows_the_gate() {
    let on = traced_run(3, 2);
    let trace = on.trace.as_ref().expect("with_trace populates the trace");
    assert!(!trace.is_empty());

    #[cfg(not(feature = "trace"))]
    {
        let off = NodeBuilder::new(build_program())
            .workers(2)
            .launch(RunLimits::ages(3))
            .and_then(|n| n.wait())
            .unwrap();
        assert!(off.trace.is_none(), "tracing must stay opt-in");
    }
}

/// The reusable invariant suite certifies a clean run, and the trace
/// carries every phase of the execution model.
#[test]
fn invariants_and_counts_on_a_real_run() {
    let report = traced_run(4, 4);
    p2g_runtime::trace_check::all(&report);

    let trace = report.trace.as_ref().unwrap();
    assert_eq!(trace.dropped, 0);
    let counts = trace.counts();

    // Every instance the instruments saw is visible as dispatch + body
    // start/end events (no fusion in this program).
    let instances: u64 = ["init", "mul2", "plus5", "print"]
        .iter()
        .map(|k| report.instruments.kernel(k).unwrap().instances)
        .sum();
    assert_eq!(counts["InstanceDispatched"] as u64, instances);
    assert_eq!(counts["BodyStart"], counts["BodyEnd"]);
    assert_eq!(counts["BodyStart"] as u64, instances);
    assert!(counts["StoreApplied"] > 0);
    assert!(counts["AnalyzerBatch"] > 0);

    // Timestamps are monotone in the merged log.
    let ts: Vec<u64> = trace.records.iter().map(|r| r.ts_ns).collect();
    let mut sorted = ts.clone();
    sorted.sort();
    assert_eq!(ts, sorted);

    // Every BodyEnd in a clean run succeeded.
    assert!(trace.of_kind("BodyEnd").all(|r| match &r.event {
        TraceEvent::BodyEnd { ok, .. } => *ok,
        _ => unreachable!(),
    }));
}

/// A run satisfies the *strict* dependency ordering on its own — every
/// dependency store appears at a strictly earlier position in the merged
/// trace than the dispatch it enables — checked directly rather than
/// through `trace_check::all`, so the guarantee stays pinned even if the
/// suite's composition changes.
#[test]
fn single_shard_satisfies_strict_ordering() {
    let report = traced_run(4, 4);
    let trace = report.trace.as_ref().unwrap();
    p2g_runtime::trace_check::dependencies_respected_strict(trace);
}

/// Invariant 1 can fail: a dependent (non-source) dispatch moved in front
/// of every store is a dispatch with no dependency stored before it.
#[test]
#[should_panic(expected = "precedes")]
fn a_dispatch_before_its_stores_fails_invariant_1() {
    let mut report = traced_run(4, 4);
    let trace = report.trace.as_mut().unwrap();
    let mul2 = trace.spec().kernels.iter().position(|k| k.name == "mul2");
    let at = trace
        .records
        .iter()
        .position(|r| {
            matches!(&r.event, TraceEvent::InstanceDispatched { kernel, .. }
                if Some(kernel.idx()) == mul2)
        })
        .expect("mul2 was dispatched");
    let dispatch = trace.records.remove(at);
    trace.records.insert(0, dispatch);
    p2g_runtime::trace_check::all(&report);
}

/// Invariant 7 can fail: a dispatch traced on a worker lane is an instance
/// made ready outside the analyzer.
#[test]
#[should_panic(expected = "only the analyzer")]
fn a_dispatch_on_a_worker_lane_fails_invariant_7() {
    let mut report = traced_run(4, 4);
    let trace = report.trace.as_mut().unwrap();
    let worker = trace
        .thread_labels
        .iter()
        .position(|l| l.starts_with("worker-"))
        .expect("the node has workers") as u32;
    let dispatch = trace
        .records
        .iter_mut()
        .find(|r| matches!(r.event, TraceEvent::InstanceDispatched { .. }))
        .expect("something was dispatched");
    dispatch.tid = worker;
    p2g_runtime::trace_check::all(&report);
}

/// A pointwise aging pipeline over statically-sized fields: each kernel
/// has exactly one single-point `Rel` fetch, so every store is
/// inline-eligible. `N` is the per-field element count.
fn pointwise_program(n: usize) -> Program {
    let mut spec = ProgramSpec::new();
    let f0 = spec.add_field(FieldDef::with_extents(
        "f0",
        ScalarType::I32,
        Extents::new([n]),
    ));
    let f1 = spec.add_field(FieldDef::with_extents(
        "f1",
        ScalarType::I32,
        Extents::new([n]),
    ));
    spec.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "seed".into(),
        index_vars: 0,
        has_age_var: false,
        fetches: vec![],
        stores: vec![StoreDecl {
            field: f0,
            age: AgeExpr::Const(0),
            dims: vec![IndexSel::All],
        }],
    });
    spec.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "twice".into(),
        index_vars: 1,
        has_age_var: true,
        fetches: vec![FetchDecl {
            field: f0,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::Var(IndexVar(0))],
        }],
        stores: vec![StoreDecl {
            field: f1,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::Var(IndexVar(0))],
        }],
    });
    spec.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "inc".into(),
        index_vars: 1,
        has_age_var: true,
        fetches: vec![FetchDecl {
            field: f1,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::Var(IndexVar(0))],
        }],
        stores: vec![StoreDecl {
            field: f0,
            age: AgeExpr::Rel(1),
            dims: vec![IndexSel::Var(IndexVar(0))],
        }],
    });
    let mut program = Program::new(spec).unwrap();
    program.body("seed", move |ctx| {
        ctx.store(0, Buffer::from_vec((0..n as i32).collect::<Vec<_>>()));
        Ok(())
    });
    program.body("twice", |ctx| {
        let v = ctx.input(0).value(0).as_i64() as i32;
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
        Ok(())
    });
    program.body("inc", |ctx| {
        let v = ctx.input(0).value(0).as_i64() as i32;
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_add(1)]));
        Ok(())
    });
    program
}

/// A pointwise, statically-sized pipeline — the shape where one stored
/// element proves exactly one consumer instance ready — is dispatched by
/// the analyzer alone: every trace invariant holds (invariant 7 pins each
/// dispatch to the analyzer lane or launch seeding) and the dispatched
/// instance space is exactly the program's.
#[test]
fn pointwise_pipeline_dispatches_only_from_the_analyzer() {
    const AGES: u64 = 6;
    const N: usize = 8;
    let per_kernel = [
        ("seed", 1),
        ("twice", N as u64 * AGES),
        ("inc", N as u64 * AGES),
    ];
    let report = NodeBuilder::new(pointwise_program(N))
        .workers(4)
        .launch(RunLimits::ages(AGES).with_trace())
        .and_then(|n| n.wait())
        .unwrap();
    p2g_runtime::trace_check::all(&report);
    for (k, instances) in per_kernel {
        assert_eq!(
            report.instruments.kernel(k).unwrap().instances,
            instances,
            "the {k} instance space changed"
        );
    }
}

/// JSONL export: one object per line, every `type` drawn from the event
/// schema vocabulary.
#[test]
fn jsonl_export_is_schema_clean() {
    let report = traced_run(3, 2);
    let trace = report.trace.as_ref().unwrap();
    let jsonl = trace.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), trace.len());
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        let kind = TraceEvent::KINDS
            .iter()
            .find(|k| line.contains(&format!("\"type\":\"{k}\"")));
        assert!(kind.is_some(), "unknown event type in: {line}");
    }
}

/// Chrome trace-event export: balanced duration pairs on every thread and
/// thread-name metadata for each buffer.
#[test]
fn chrome_export_has_balanced_spans() {
    let report = traced_run(3, 3);
    let trace = report.trace.as_ref().unwrap();
    let json = trace.to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
    assert_eq!(
        json.matches("\"ph\":\"B\"").count(),
        json.matches("\"ph\":\"E\"").count()
    );
    for label in &trace.thread_labels {
        assert!(json.contains(&format!("\"name\":\"{label}\"")), "{label}");
    }
}

/// The latency histograms populated alongside the trace yield usable
/// quantiles for every kernel that ran.
#[test]
fn latency_histograms_are_populated()  {
    let report = traced_run(4, 2);
    for kernel in ["init", "mul2", "plus5", "print"] {
        let (p50, p95, p99) = report
            .instruments
            .latency_quantiles(kernel)
            .unwrap_or_else(|| panic!("{kernel} has no latency data"));
        assert!(p50.as_nanos() > 0, "{kernel} p50 empty");
        assert!(p95 >= p50 && p99 >= p95, "{kernel} quantiles not monotone");
    }
    // The histogram saw exactly as many samples as instances ran.
    let st = report.instruments.kernel("mul2").unwrap();
    assert_eq!(st.latency.count(), st.instances);
}
