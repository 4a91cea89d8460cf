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

/// A run on the single-analyzer path (`shards = 1`) satisfies the *strict*
/// dependency ordering — every dependency store appears at a strictly
/// earlier position in the merged trace than the dispatch it enables.
/// Sharded runs are only required to satisfy the relaxed per-(field, age)
/// form checked by `trace_check::all`; this pins the stronger single-queue
/// guarantee so it can't silently regress.
#[test]
fn single_shard_satisfies_strict_ordering() {
    let report = traced_run(4, 4);
    let trace = report.trace.as_ref().unwrap();
    p2g_runtime::trace_check::dependencies_respected_strict(trace);
}

/// The full invariant suite certifies a sharded run, and the sharded
/// instrumentation (per-shard event counts, queue peaks) is populated.
#[test]
fn invariants_hold_on_a_sharded_run() {
    let report = NodeBuilder::new(build_program())
        .workers(4)
        .launch(RunLimits::ages(6).with_trace().with_shards(4))
        .and_then(|n| n.wait())
        .unwrap();
    p2g_runtime::trace_check::all(&report);

    // The same instance space ran as on the single-shard path.
    let single = NodeBuilder::new(build_program())
        .workers(4)
        .launch(RunLimits::ages(6))
        .and_then(|n| n.wait())
        .unwrap();
    for k in ["init", "mul2", "plus5", "print"] {
        assert_eq!(
            report.instruments.kernel(k).unwrap().instances,
            single.instruments.kernel(k).unwrap().instances,
            "sharded run dispatched a different number of {k} instances"
        );
    }

    // Per-shard counters surfaced in the snapshot.
    let shard_events = report.instruments.shard_events();
    assert_eq!(shard_events.len(), 4);
    assert!(
        shard_events.iter().sum::<u64>() > 0,
        "sharded run recorded no per-shard events"
    );
    assert_eq!(report.instruments.shard_queue_peaks().len(), 4);
    assert!(report.instruments.render_table().contains("analyzer-0"));
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
/// the analyzer alone, at one shard and at four: every trace invariant
/// holds (invariant 7 pins each dispatch to an analyzer lane or launch
/// seeding) and the dispatched instance space is exactly the program's.
#[test]
fn pointwise_pipeline_dispatches_only_from_the_analyzer() {
    const AGES: u64 = 6;
    const N: usize = 8;
    let per_kernel = [
        ("seed", 1),
        ("twice", N as u64 * AGES),
        ("inc", N as u64 * AGES),
    ];
    for (limits, label) in [
        (RunLimits::ages(AGES), "default limits"),
        (RunLimits::ages(AGES).with_shards(4), "shards=4"),
    ] {
        let report = NodeBuilder::new(pointwise_program(N))
            .workers(4)
            .launch(limits.with_trace())
            .and_then(|n| n.wait())
            .unwrap();
        p2g_runtime::trace_check::all(&report);
        for (k, instances) in per_kernel {
            assert_eq!(
                report.instruments.kernel(k).unwrap().instances,
                instances,
                "{label}: the {k} instance space changed"
            );
        }
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
