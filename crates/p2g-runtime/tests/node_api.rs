//! Tests of the execution-node control surface: the start/join lifecycle,
//! remote-store injection, hold-open mode, stop requests, timers and field
//! extraction.

use std::time::Duration;

use p2g_field::{Age, Buffer, DimSel, Extents, FieldDef, Region, ScalarType, Value};
use p2g_graph::spec::{AgeExpr, FetchDecl, IndexSel, KernelId, KernelSpec, ProgramSpec, StoreDecl};
use p2g_runtime::instrument::Termination;
use p2g_runtime::{NodeBuilder, Program, RunLimits, RuntimeError};

/// A consumer-only program: one kernel waits for `input`, doubles it into
/// `output`. Nothing local produces `input` — only remote stores can.
fn consumer_program() -> Program {
    let mut spec = ProgramSpec::new();
    let input = spec.add_field(FieldDef::with_extents(
        "input",
        ScalarType::I32,
        Extents::new([4]),
    ));
    let output = spec.add_field(FieldDef::with_extents(
        "output",
        ScalarType::I32,
        Extents::new([4]),
    ));
    spec.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "double".into(),
        index_vars: 0,
        has_age_var: true,
        fetches: vec![FetchDecl {
            field: input,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::All],
        }],
        stores: vec![StoreDecl {
            field: output,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::All],
        }],
    });
    let mut program = Program::new(spec).unwrap();
    program.body("double", |ctx| {
        let out: Vec<i32> = ctx
            .input(0)
            .as_i32()
            .unwrap()
            .iter()
            .map(|v| v * 2)
            .collect();
        ctx.store(0, Buffer::from_vec(out));
        Ok(())
    });
    program
}

#[test]
fn hold_open_node_processes_injected_stores() {
    let mut limits = RunLimits::ages(3);
    limits.hold_open = true;
    let running = NodeBuilder::new(consumer_program())
        .workers(2)
        .launch(limits)
        .unwrap();

    // Inject two ages of remote data.
    for age in 0..2u64 {
        running.inject_remote_store(
            p2g_field::FieldId(0),
            Age(age),
            Region::all(1),
            Buffer::from_vec(vec![1i32 + age as i32, 2, 3, 4]),
        );
    }

    // Wait until the node is locally quiescent again.
    let t0 = std::time::Instant::now();
    while running.outstanding() != 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "node never drained");
        std::thread::sleep(Duration::from_millis(2));
    }
    running.request_stop();
    let (report, fields) = running.collect().unwrap();
    assert_eq!(report.termination, Termination::Quiescent);
    assert_eq!(
        fields
            .fetch("output", Age(0), &Region::all(1))
            .unwrap()
            .as_i32()
            .unwrap(),
        &[2, 4, 6, 8]
    );
    assert_eq!(
        fields
            .fetch("output", Age(1), &Region::all(1))
            .unwrap()
            .as_i32()
            .unwrap(),
        &[4, 4, 6, 8]
    );
    assert_eq!(report.instruments.kernel("double").unwrap().instances, 2);
}

/// A forwarded store lands like a local one: an equal duplicate dedups and
/// the run stays quiescent, and a conflicting value fails the node with the
/// write-once error.
#[test]
fn injected_duplicates_dedup_and_conflicts_fail() {
    let inject_twice = |second: Vec<i32>| {
        let mut limits = RunLimits::ages(1);
        limits.hold_open = true;
        let node = NodeBuilder::new(consumer_program())
            .workers(1)
            .launch(limits)
            .unwrap();
        for data in [vec![1i32, 2, 3, 4], second] {
            node.inject_remote_store(
                p2g_field::FieldId(0),
                Age(0),
                Region::all(1),
                Buffer::from_vec(data),
            );
        }
        let t0 = std::time::Instant::now();
        while node.outstanding() != 0 && !node.is_stopped() {
            assert!(t0.elapsed() < Duration::from_secs(10), "node never drained");
            std::thread::sleep(Duration::from_millis(2));
        }
        node.request_stop();
        node.collect()
    };

    let (report, fields) = inject_twice(vec![1, 2, 3, 4]).unwrap();
    assert_eq!(report.termination, Termination::Quiescent);
    assert!(report.instruments.deduped_elements() > 0);
    assert_eq!(
        fields
            .fetch("output", Age(0), &Region::all(1))
            .unwrap()
            .as_i32()
            .unwrap(),
        &[2, 4, 6, 8]
    );

    match inject_twice(vec![1, 2, 3, 5]) {
        Err(e) => assert!(matches!(e, RuntimeError::Field(_)), "{e}"),
        Ok(_) => panic!("a conflicting remote store was accepted"),
    }
}

/// An injected store is traced on the node's `remote` buffer, not on the
/// buffer of whichever thread delivered it; local stores stay on the
/// workers' buffers.
#[test]
fn injected_stores_are_traced_as_remote() {
    let mut limits = RunLimits::ages(1).with_trace();
    limits.hold_open = true;
    let node = NodeBuilder::new(consumer_program())
        .workers(1)
        .launch(limits)
        .unwrap();
    node.inject_remote_store(
        p2g_field::FieldId(0),
        Age(0),
        Region::all(1),
        Buffer::from_vec(vec![1i32, 2, 3, 4]),
    );
    let t0 = std::time::Instant::now();
    while node.outstanding() != 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "node never drained");
        std::thread::sleep(Duration::from_millis(2));
    }
    node.request_stop();
    let (report, _) = node.collect().unwrap();
    let trace = report.trace.as_ref().unwrap();
    assert_eq!(
        trace.thread_labels.last().map(String::as_str),
        Some("remote")
    );
    let stores: Vec<(bool, &str)> = trace
        .of_kind("StoreApplied")
        .map(|r| match &r.event {
            p2g_runtime::TraceEvent::StoreApplied { kernel, .. } => (
                kernel.is_none(),
                trace.thread_labels[r.tid as usize].as_str(),
            ),
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(stores, vec![(true, "remote"), (false, "worker-0")]);
}

#[test]
fn node_without_sources_quiesces_immediately_when_not_held_open() {
    let report = NodeBuilder::new(consumer_program())
        .workers(1)
        .launch(RunLimits::ages(3))
        .and_then(|n| n.wait())
        .unwrap();
    assert_eq!(report.termination, Termination::Quiescent);
    assert_eq!(report.instruments.kernel("double").unwrap().instances, 0);
}

#[test]
fn request_stop_interrupts_held_open_node() {
    let mut limits = RunLimits::unbounded();
    limits.hold_open = true;
    let running = NodeBuilder::new(consumer_program())
        .workers(1)
        .launch(limits)
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    running.request_stop();
    let (report, _) = running.collect().unwrap();
    assert_eq!(report.termination, Termination::Quiescent);
}

#[test]
fn field_store_accessors() {
    let mut spec = ProgramSpec::new();
    let f = spec.add_field(FieldDef::with_extents(
        "data",
        ScalarType::F64,
        Extents::new([2, 2]),
    ));
    spec.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "src".into(),
        index_vars: 0,
        has_age_var: false,
        fetches: vec![],
        stores: vec![StoreDecl {
            field: f,
            age: AgeExpr::Const(0),
            dims: vec![IndexSel::All, IndexSel::All],
        }],
    });
    let mut program = Program::new(spec).unwrap();
    program.body("src", |ctx| {
        ctx.store(
            0,
            Buffer::from_vec(vec![1.0f64, 2.0, 3.0, 4.0])
                .reshape(Extents::new([2, 2]))
                .unwrap(),
        );
        Ok(())
    });
    let (_, fields) = NodeBuilder::new(program)
        .workers(1)
        .launch(RunLimits::unbounded())
        .and_then(|n| n.collect())
        .unwrap();

    assert_eq!(
        fields.fetch_element("data", Age(0), &[1, 0]),
        Some(Value::F64(3.0))
    );
    assert!(fields.fetch_element("nope", Age(0), &[0, 0]).is_none());
    let row = fields
        .fetch("data", Age(0), &Region(vec![DimSel::Index(1), DimSel::All]))
        .unwrap();
    assert_eq!(row.as_f64().unwrap(), &[3.0, 4.0]);
    let by_name = fields.field_by_name("data").unwrap();
    assert!(by_name.is_complete(Age(0)));
    assert_eq!(fields.field(f).name(), "data");
}

#[test]
fn timers_reachable_from_bodies() {
    let mut spec = ProgramSpec::new();
    let f = spec.add_field(FieldDef::with_extents(
        "out",
        ScalarType::I32,
        Extents::new([1]),
    ));
    spec.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "probe".into(),
        index_vars: 0,
        has_age_var: false,
        fetches: vec![],
        stores: vec![StoreDecl {
            field: f,
            age: AgeExpr::Const(0),
            dims: vec![IndexSel::All],
        }],
    });
    let mut program = Program::new(spec).unwrap();
    program.timers().declare("watchdog");
    program.body("probe", |ctx| {
        // Fresh timer: not expired with a generous timeout; expired with a
        // zero timeout after a tiny sleep.
        let fresh = !ctx.deadline_expired("watchdog", Duration::from_secs(60));
        std::thread::sleep(Duration::from_millis(2));
        let expired = ctx.deadline_expired("watchdog", Duration::from_millis(1));
        ctx.reset_timer("watchdog");
        let reset_ok = !ctx.deadline_expired("watchdog", Duration::from_millis(500));
        let all = fresh && expired && reset_ok;
        ctx.store_value(0, Value::I32(all as i32));
        Ok(())
    });
    let (_, fields) = NodeBuilder::new(program)
        .workers(1)
        .launch(RunLimits::unbounded())
        .and_then(|n| n.collect())
        .unwrap();
    assert_eq!(
        fields.fetch_element("out", Age(0), &[0]),
        Some(Value::I32(1))
    );
}
