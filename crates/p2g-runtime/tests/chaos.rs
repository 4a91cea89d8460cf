//! Chaos tests of kernel fault isolation: panic containment, retry with
//! backoff, deadline flagging, and poison-propagating graceful degradation.
//!
//! The property at the core: under random kernel panics and slow instances
//! every run *terminates* (no hangs), the poisoned-instance set exactly
//! matches the transitive dependents of the failed stores (checked against
//! an oracle over the static graph), and with retries enabled and
//! deterministic bodies the final field contents are identical to the
//! fault-free run — at every data granularity (chunked dispatch units) and
//! task granularity (the middle stages fused into one).

use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use p2g_field::{Age, Buffer, Extents, FieldDef, Region, ScalarType};
use p2g_graph::spec::{
    mul_sum_example, AgeExpr, FetchDecl, IndexSel, IndexVar, KernelSpec, StoreDecl,
};
use p2g_graph::KernelId;
use p2g_runtime::{FaultPolicy, NodeBuilder, Program, RunLimits, Termination};

/// Hang guard for every run in this file: a run that blows this deadline
/// terminates `DeadlineExpired`, which the assertions below reject — so a
/// genuine hang fails the test instead of wedging the suite.
const WALL: Duration = Duration::from_secs(20);

fn fast_retries(n: u32) -> FaultPolicy {
    FaultPolicy::retries(n).with_backoff(Duration::from_millis(1), Duration::from_millis(5))
}

// ---------------------------------------------------------------------------
// Satellite: a panicking kernel body must abort the run, not hang it.
// Before panic containment the panicking worker leaked the unit's
// outstanding-work count, so the node never observed quiescence and `wait`
// blocked until the wall deadline (or forever without one).
// ---------------------------------------------------------------------------

#[test]
fn panicking_body_aborts_run_not_hangs() {
    let mut program = Program::new(mul_sum_example()).unwrap();
    program.body("init", |ctx| {
        ctx.store(0, Buffer::from_vec(vec![1i32, 2, 3]));
        Ok(())
    });
    program.body("mul2", |_ctx| -> Result<(), String> {
        panic!("chaos: kernel body panic");
    });
    program.body("plus5", |_| Ok(()));
    program.body("print", |_| Ok(()));

    let start = std::time::Instant::now();
    let result = NodeBuilder::new(program)
        .workers(2)
        .launch(RunLimits::ages(3).with_deadline(WALL))
        .unwrap()
        .wait();
    // Default fault policy: fail fast. The panic is contained, converted
    // into a kernel failure, and the run aborts with an error — well
    // before the wall deadline.
    let err = result.expect_err("a panicking body must abort the run");
    assert!(
        err.to_string().contains("panic"),
        "abort should carry the panic message, got: {err}"
    );
    assert!(
        start.elapsed() < WALL,
        "run must abort promptly, not sit on the wall deadline"
    );
}

#[test]
fn body_error_aborts_whole_unit_cleanly() {
    // Same guarantee for plain Err returns, including when other instances
    // of the same kernel succeed first.
    let mut program = Program::new(mul_sum_example()).unwrap();
    program.body("init", |ctx| {
        ctx.store(0, Buffer::from_vec((0..8).collect::<Vec<i32>>()));
        Ok(())
    });
    program.body("mul2", |ctx| {
        if ctx.index(0) == 5 {
            return Err("chaos: instance 5 fails".into());
        }
        let v = ctx.input(0).value(0).as_i64() as i32;
        ctx.store(0, Buffer::from_vec(vec![v * 2]));
        Ok(())
    });
    program.body("plus5", |_| Ok(()));
    program.body("print", |_| Ok(()));

    let result = NodeBuilder::new(program)
        .workers(3)
        .launch(RunLimits::ages(2).with_deadline(WALL))
        .unwrap()
        .wait();
    assert!(result.is_err(), "body error must abort under Abort policy");
}

// ---------------------------------------------------------------------------
// Retry with backoff: transient failures are retried to success and the
// final field contents equal the fault-free run.
// ---------------------------------------------------------------------------

fn mul_sum_program(n: usize) -> Program {
    let mut program = Program::new(mul_sum_example()).unwrap();
    let init: Vec<i32> = (0..n as i32).collect();
    program.body("init", move |ctx| {
        ctx.store(0, Buffer::from_vec(init.clone()));
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

fn m_data_at(fields: &p2g_runtime::FieldStore, ages: u64) -> Vec<Vec<i32>> {
    (0..ages)
        .map(|a| {
            fields
                .fetch("m_data", Age(a), &Region::all(1))
                .map(|b| b.as_i32().unwrap().to_vec())
                .unwrap_or_default()
        })
        .collect()
}

#[test]
fn transient_failures_retried_to_identical_result() {
    let ages = 3u64;
    // Fault-free reference.
    let (_, reference) = NodeBuilder::new(mul_sum_program(6))
        .workers(2)
        .launch(RunLimits::ages(ages).with_deadline(WALL))
        .and_then(|n| n.collect())
        .unwrap();
    let reference = m_data_at(&reference, ages);

    // Same program, but mul2 fails the first execution of every third
    // instance (by panic and by Err, alternating) and succeeds on retry.
    let mut program = mul_sum_program(6);
    let failed_once: Arc<Mutex<HashSet<(u64, usize)>>> = Arc::new(Mutex::new(HashSet::new()));
    let injected = failed_once.clone();
    program.body("mul2", move |ctx| {
        let key = (ctx.age().0, ctx.index(0));
        if key.1 % 3 == 0 && injected.lock().unwrap().insert(key) {
            if key.1.is_multiple_of(2) {
                panic!("chaos: transient panic at {key:?}");
            }
            return Err(format!("chaos: transient failure at {key:?}"));
        }
        let v = ctx.input(0).value(0).as_i64() as i32;
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
        Ok(())
    });
    program.set_fault_policy("mul2", fast_retries(3));

    let (report, fields) = NodeBuilder::new(program)
        .workers(3)
        .launch(RunLimits::ages(ages).with_deadline(WALL).with_trace())
        .and_then(|n| n.collect())
        .unwrap();
    assert_eq!(report.termination, Termination::Quiescent);
    p2g_runtime::trace_check::all(&report);
    assert!(
        report.instruments.total_retries() > 0,
        "the injected failures must have gone through the retry path"
    );
    assert!(report.instruments.total_failures() > 0);
    assert_eq!(
        m_data_at(&fields, ages),
        reference,
        "retried run must converge to the fault-free result"
    );
}

// ---------------------------------------------------------------------------
// Poison: a permanently failing instance inside an aging cycle degrades
// exactly its transitive dependents; unrelated lanes keep flowing.
// ---------------------------------------------------------------------------

#[test]
fn permanent_failure_degrades_only_dependents() {
    let ages = 3u64;
    let mut program = mul_sum_program(3);
    // mul2 at age 1, lane 0 fails every attempt.
    program.body("mul2", |ctx| {
        if ctx.age().0 == 1 && ctx.index(0) == 0 {
            return Err("chaos: permanent failure".into());
        }
        let v = ctx.input(0).value(0).as_i64() as i32;
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
        Ok(())
    });
    program.set_fault_policy_all(fast_retries(1).poison());

    let (report, fields) = NodeBuilder::new(program)
        .workers(2)
        .launch(RunLimits::ages(ages).with_deadline(WALL))
        .and_then(|n| n.collect())
        .unwrap();
    assert_eq!(report.termination, Termination::Degraded);

    let poisoned: BTreeSet<(String, u64, Vec<usize>)> = report
        .instruments
        .poisoned_instances()
        .iter()
        .flat_map(|((k, a), idxs)| idxs.iter().map(move |idx| (k.clone(), *a, idx.clone())))
        .collect();
    // The cascade: mul2@1[0] → plus5@1[0] (p_data(1)[0] missing) →
    // mul2@2[0] (m_data(2)[0] missing), and the whole-field print at ages
    // 1 and 2. plus5@2[0] follows from mul2@2[0].
    for expect in [
        ("mul2".to_string(), 1, vec![0usize]),
        ("plus5".to_string(), 1, vec![0usize]),
        ("mul2".to_string(), 2, vec![0usize]),
        ("plus5".to_string(), 2, vec![0usize]),
        ("print".to_string(), 1, vec![]),
        ("print".to_string(), 2, vec![]),
    ] {
        assert!(poisoned.contains(&expect), "missing poisoned {expect:?}");
    }
    // Lane 0 stops at the failure; the other lanes flow through every age.
    assert!(fields.fetch_element("m_data", Age(2), &[0]).is_none());
    let v1 = fields
        .fetch_element("m_data", Age(2), &[1])
        .expect("unrelated lane must keep flowing");
    // lane 1: ((1*2+5)*2+5) = 19.
    assert_eq!(v1.as_i64(), 19);
    // Exactly-one retry was attempted before exhaustion.
    assert!(report.instruments.total_retries() >= 1);
}

// ---------------------------------------------------------------------------
// Soft deadline: an overrunning instance sees `cancelled()` turn true, is
// recorded as a deadline miss, and (here) poisoned.
// ---------------------------------------------------------------------------

#[test]
fn deadline_flags_and_degrades_overrunning_instance() {
    let mut program = mul_sum_program(3);
    let saw_cancel = Arc::new(AtomicBool::new(false));
    let saw = saw_cancel.clone();
    program.body("mul2", move |ctx| {
        if ctx.age().0 == 0 && ctx.index(0) == 1 {
            // Overrun the soft deadline, bail out when flagged.
            while !ctx.cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            saw.store(true, Ordering::Relaxed);
            return Err("chaos: cancelled by deadline".into());
        }
        let v = ctx.input(0).value(0).as_i64() as i32;
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
        Ok(())
    });
    program.set_fault_policy(
        "mul2",
        FaultPolicy::retries(0)
            .poison()
            .with_deadline(Duration::from_millis(20)),
    );

    let (report, _) = NodeBuilder::new(program)
        .workers(2)
        .launch(RunLimits::ages(2).with_deadline(WALL).with_trace())
        .and_then(|n| n.collect())
        .unwrap();
    assert!(saw_cancel.load(Ordering::Relaxed), "token must be flagged");
    assert_eq!(report.termination, Termination::Degraded);
    p2g_runtime::trace_check::all(&report);
    assert!(report.instruments.total_deadline_misses() >= 1);
    assert!(report.instruments.total_poisoned() >= 1);
    // The miss is traced with the overrunning instance identity.
    let trace = report.trace.as_ref().unwrap();
    assert!(
        trace.of_kind("DeadlineMiss").count() >= 1,
        "deadline miss must appear in the trace"
    );
}

// ---------------------------------------------------------------------------
// The chaos property proper, on a four-stage layered pipeline with
// statically-sized fields (so the poison oracle is exact):
//
//     read(a) ─▶ src(a)[x] ─▶ stage1 ─▶ mid(a)[x] ─▶ stage2 ─▶ out(a)[x]
//                                                     └────────▶ reduce(a) ─▶ sum(a)
// ---------------------------------------------------------------------------

fn layered_spec(lanes: usize) -> p2g_graph::ProgramSpec {
    let mut p = p2g_graph::ProgramSpec::new();
    let src = p.add_field(FieldDef::with_extents(
        "src",
        ScalarType::I32,
        Extents(vec![lanes]),
    ));
    let mid = p.add_field(FieldDef::with_extents(
        "mid",
        ScalarType::I32,
        Extents(vec![lanes]),
    ));
    let out = p.add_field(FieldDef::with_extents(
        "out",
        ScalarType::I32,
        Extents(vec![lanes]),
    ));
    let sum = p.add_field(FieldDef::with_extents(
        "sum",
        ScalarType::I32,
        Extents(vec![1]),
    ));
    p.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "read".into(),
        index_vars: 0,
        has_age_var: true,
        fetches: vec![],
        stores: vec![StoreDecl {
            field: src,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::All],
        }],
    });
    p.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "stage1".into(),
        index_vars: 1,
        has_age_var: true,
        fetches: vec![FetchDecl {
            field: src,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::Var(IndexVar(0))],
        }],
        stores: vec![StoreDecl {
            field: mid,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::Var(IndexVar(0))],
        }],
    });
    p.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "stage2".into(),
        index_vars: 1,
        has_age_var: true,
        fetches: vec![FetchDecl {
            field: mid,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::Var(IndexVar(0))],
        }],
        stores: vec![StoreDecl {
            field: out,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::Var(IndexVar(0))],
        }],
    });
    p.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "reduce".into(),
        index_vars: 0,
        has_age_var: true,
        fetches: vec![FetchDecl {
            field: out,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::All],
        }],
        stores: vec![StoreDecl {
            field: sum,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::All],
        }],
    });
    p
}

/// splitmix64 — the deterministic chaos coin.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn chaos_coin(seed: u64, kernel: u32, age: u64, lane: usize) -> u64 {
    mix(seed ^ mix(kernel as u64 ^ mix(age ^ mix(lane as u64 + 1))))
}

#[derive(Clone)]
struct ChaosPlan {
    seed: u64,
    /// Failure probability in permille (0..=200 keeps p ≤ 0.2).
    permille: u64,
}

impl ChaosPlan {
    fn fails(&self, kernel: u32, age: u64, lane: usize) -> bool {
        chaos_coin(self.seed, kernel, age, lane) % 1000 < self.permille
    }
    /// Failure mode: contained panic or plain Err.
    fn panics(&self, kernel: u32, age: u64, lane: usize) -> bool {
        chaos_coin(self.seed ^ 0xDEAD, kernel, age, lane).is_multiple_of(2)
    }
    /// Slow instances: a small fraction of bodies sleeps briefly.
    fn slow(&self, kernel: u32, age: u64, lane: usize) -> bool {
        chaos_coin(self.seed ^ 0xBEEF, kernel, age, lane) % 1000 < 50
    }
}

/// Build the layered program with failures injected per `plan`. When
/// `transient` is true an instance fails only the first time it executes
/// (the retry succeeds); otherwise it fails every attempt.
fn layered_program(lanes: usize, plan: ChaosPlan, transient: bool) -> Program {
    let mut program = Program::new(layered_spec(lanes)).unwrap();
    let failed_once: Arc<Mutex<HashSet<(u32, u64, usize)>>> = Arc::new(Mutex::new(HashSet::new()));

    let inject = move |plan: &ChaosPlan,
                       failed_once: &Mutex<HashSet<(u32, u64, usize)>>,
                       kernel: u32,
                       age: u64,
                       lane: usize|
          -> Result<(), String> {
        if plan.slow(kernel, age, lane) {
            std::thread::sleep(Duration::from_millis(1));
        }
        if !plan.fails(kernel, age, lane) {
            return Ok(());
        }
        if transient && !failed_once.lock().unwrap().insert((kernel, age, lane)) {
            return Ok(()); // already failed once; the retry succeeds
        }
        if plan.panics(kernel, age, lane) {
            panic!("chaos: injected panic k{kernel}@{age}[{lane}]");
        }
        Err(format!("chaos: injected failure k{kernel}@{age}[{lane}]"))
    };

    {
        let (plan, fo, inject) = (plan.clone(), failed_once.clone(), inject);
        program.body("read", move |ctx| {
            let a = ctx.age().0;
            inject(&plan, &fo, 0, a, 0)?;
            let data: Vec<i32> = (0..lanes as i32).map(|i| (a as i32) * 31 + i).collect();
            ctx.store(0, Buffer::from_vec(data));
            Ok(())
        });
    }
    {
        let (plan, fo, inject) = (plan.clone(), failed_once.clone(), inject);
        program.body("stage1", move |ctx| {
            inject(&plan, &fo, 1, ctx.age().0, ctx.index(0))?;
            let v = ctx.input(0).value(0).as_i64() as i32;
            ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(3).wrapping_add(1)]));
            Ok(())
        });
    }
    {
        let (plan, fo, inject) = (plan.clone(), failed_once.clone(), inject);
        program.body("stage2", move |ctx| {
            inject(&plan, &fo, 2, ctx.age().0, ctx.index(0))?;
            let v = ctx.input(0).value(0).as_i64() as i32;
            ctx.store(0, Buffer::from_vec(vec![v.wrapping_add(7)]));
            Ok(())
        });
    }
    {
        let (plan, fo, inject) = (plan, failed_once, inject);
        program.body("reduce", move |ctx| {
            inject(&plan, &fo, 3, ctx.age().0, 0)?;
            let buf = ctx.input(0);
            let total: i32 = (0..buf.len()).map(|i| buf.value(i).as_i64() as i32).sum();
            ctx.store(0, Buffer::from_vec(vec![total]));
            Ok(())
        });
    }
    program
}

const KERNEL_NAMES: [&str; 4] = ["read", "stage1", "stage2", "reduce"];

/// How the layered pipeline is scheduled: `chunk` instances of `stage1`
/// and `stage2` per dispatch unit, and `fuse` runs `stage2` inline after
/// each `stage1` instance (paper Figure 4, Age=2 and Age=3).
#[derive(Clone, Copy, Debug)]
struct Granularity {
    chunk: usize,
    fuse: bool,
}

const FINEST: Granularity = Granularity {
    chunk: 1,
    fuse: false,
};

/// The oracle: the transitive closure of the failure plan over the static
/// dependency graph of the layered pipeline. A fused pair fails as one
/// instance: a failing `stage2` fails the `stage1` instance it runs in,
/// whose stores then never land.
fn expected_poisoned(
    plan: &ChaosPlan,
    lanes: usize,
    ages: u64,
    fuse: bool,
) -> BTreeSet<(String, u64, Vec<usize>)> {
    // (kernel index, age, lane); kernels without index vars use lane 0 and
    // report an empty index vector.
    let mut poisoned: HashSet<(u32, u64, usize)> = HashSet::new();
    for a in 0..ages {
        for (k, name) in KERNEL_NAMES.iter().enumerate() {
            let lanes_of = if *name == "read" || *name == "reduce" {
                1
            } else {
                lanes
            };
            for lane in 0..lanes_of {
                if plan.fails(k as u32, a, lane) {
                    poisoned.insert((k as u32, a, lane));
                    if fuse && k == 2 {
                        poisoned.insert((1, a, lane));
                    }
                }
            }
        }
    }
    // Fixpoint over the static edges.
    loop {
        let mut grew = false;
        let snapshot: Vec<_> = poisoned.iter().copied().collect();
        for (k, a, lane) in snapshot {
            let dependents: Vec<(u32, u64, usize)> = match k {
                0 => (0..lanes).map(|x| (1, a, x)).collect(), // read → all stage1
                1 => vec![(2, a, lane)],                      // stage1 → stage2
                2 => vec![(3, a, 0)],                         // stage2 → reduce
                _ => vec![],                                  // reduce → nothing
            };
            for d in dependents {
                grew |= poisoned.insert(d);
            }
        }
        if !grew {
            break;
        }
    }
    poisoned
        .into_iter()
        .map(|(k, a, lane)| {
            let name = KERNEL_NAMES[k as usize].to_string();
            let idx = if k == 1 || k == 2 { vec![lane] } else { vec![] };
            (name, a, idx)
        })
        .collect()
}

fn run_layered(
    lanes: usize,
    ages: u64,
    workers: usize,
    plan: ChaosPlan,
    transient: bool,
    policy: FaultPolicy,
    granularity: Granularity,
) -> (p2g_runtime::RunReport, p2g_runtime::FieldStore) {
    let mut program = layered_program(lanes, plan, transient);
    program.set_fault_policy_all(policy);
    program
        .set_chunk_size("stage1", granularity.chunk)
        .set_chunk_size("stage2", granularity.chunk);
    if granularity.fuse {
        program.fuse("stage1", "stage2").unwrap();
    }
    let (report, fields) = NodeBuilder::new(program)
        .workers(workers)
        .launch(RunLimits::ages(ages).with_deadline(WALL).with_trace())
        .and_then(|n| n.collect())
        .expect("poison-mode chaos runs never abort");
    // Trace invariants must hold under chaos too: dependencies before
    // dispatch, write-once, retries within budget, poison consistency.
    p2g_runtime::trace_check::all(&report);
    (report, fields)
}

fn sums_at(fields: &p2g_runtime::FieldStore, ages: u64) -> Vec<Option<i64>> {
    (0..ages)
        .map(|a| {
            fields
                .fetch_element("sum", Age(a), &[0])
                .map(|v| v.as_i64())
        })
        .collect()
}

/// One permanent-failure chaos run checked against the oracle.
fn check_chaos_case(
    seed: u64,
    permille: u64,
    lanes: usize,
    ages: u64,
    workers: usize,
    granularity: Granularity,
) {
    let plan = ChaosPlan { seed, permille };
    let policy = FaultPolicy::retries(0)
        .poison()
        .with_deadline(Duration::from_millis(250));
    let (report, fields) = run_layered(
        lanes,
        ages,
        workers,
        plan.clone(),
        false,
        policy,
        granularity,
    );

    let expected = expected_poisoned(&plan, lanes, ages, granularity.fuse);
    assert!(
        report.termination.finished(),
        "seed {seed}: run must terminate cleanly, got {:?}",
        report.termination
    );
    assert_eq!(
        report.termination == Termination::Degraded,
        !expected.is_empty(),
        "seed {seed}: degradation iff something failed"
    );
    let actual: BTreeSet<(String, u64, Vec<usize>)> = report
        .instruments
        .poisoned_instances()
        .iter()
        .flat_map(|((k, a), idxs)| idxs.iter().map(move |idx| (k.clone(), *a, idx.clone())))
        .collect();
    assert_eq!(
        actual, expected,
        "seed {seed}: poisoned set must exactly match the transitive dependents"
    );

    // Un-poisoned reductions carry the exact fault-free value.
    let lanes_i = lanes as i32;
    for a in 0..ages {
        if expected.contains(&("reduce".to_string(), a, vec![])) {
            assert!(
                fields.fetch_element("sum", Age(a), &[0]).is_none(),
                "seed {seed}: poisoned reduce@{a} must not produce a sum"
            );
        } else {
            let expect: i32 = (0..lanes_i)
                .map(|i| {
                    ((a as i32) * 31 + i)
                        .wrapping_mul(3)
                        .wrapping_add(1)
                        .wrapping_add(7)
                })
                .sum();
            assert_eq!(
                fields
                    .fetch_element("sum", Age(a), &[0])
                    .map(|v| v.as_i64()),
                Some(expect as i64),
                "seed {seed}: surviving reduce@{a} must be exact"
            );
        }
    }
}

/// Shorthand for a [`Granularity`] in the fixed matrices.
const fn g(chunk: usize, fuse: bool) -> Granularity {
    Granularity { chunk, fuse }
}

/// Fixed seed matrix — the deterministic CI smoke set.
#[test]
fn chaos_fixed_seed_matrix() {
    for (seed, permille, lanes, ages, workers, granularity) in [
        (1u64, 0u64, 4usize, 3u64, 2usize, FINEST), // fault-free baseline
        (2, 100, 4, 3, 2, FINEST),
        (3, 200, 3, 4, 3, FINEST),
        (4, 200, 5, 3, 4, FINEST),
        (5, 150, 2, 5, 2, FINEST),
        (42, 200, 4, 4, 8, FINEST),
        (6, 200, 5, 3, 2, g(3, false)),
        (10, 200, 4, 3, 3, g(1, true)),
        (11, 200, 6, 3, 2, g(4, true)),
    ] {
        check_chaos_case(seed, permille, lanes, ages, workers, granularity);
    }
}

/// Transient failures under `granularity` with retries enabled converge
/// to the exact field contents of the fault-free run at the finest
/// granularity.
fn check_retry_case(
    seed: u64,
    permille: u64,
    lanes: usize,
    ages: u64,
    workers: usize,
    granularity: Granularity,
) -> (Termination, Vec<Option<i64>>, Vec<Option<i64>>) {
    let clean = ChaosPlan { seed, permille: 0 };
    let (clean_report, clean_fields) = run_layered(
        lanes,
        ages,
        workers,
        clean,
        false,
        fast_retries(0).poison(),
        FINEST,
    );
    assert_eq!(clean_report.termination, Termination::Quiescent);
    let plan = ChaosPlan { seed, permille };
    let (report, fields) = run_layered(
        lanes,
        ages,
        workers,
        plan,
        true,
        fast_retries(2).poison(),
        granularity,
    );
    (
        report.termination,
        sums_at(&fields, ages),
        sums_at(&clean_fields, ages),
    )
}

/// Fixed seed matrix for the retry path: transient failures with retries
/// enabled converge to the exact fault-free field contents.
#[test]
fn chaos_retries_fixed_seed_matrix() {
    for (seed, permille, lanes, ages, workers, granularity) in [
        (7u64, 200u64, 4usize, 3u64, 2usize, FINEST),
        (8, 150, 3, 4, 4, FINEST),
        (9, 200, 5, 3, 8, FINEST),
        (12, 200, 5, 3, 2, g(3, false)),
        (13, 200, 4, 3, 3, g(2, true)),
    ] {
        let (termination, sums, clean) =
            check_retry_case(seed, permille, lanes, ages, workers, granularity);
        assert_eq!(
            termination,
            Termination::Quiescent,
            "seed {seed}: transient failures with retries must not degrade"
        );
        assert_eq!(
            sums, clean,
            "seed {seed}: retried run must equal the fault-free run"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random kernel panics (p ≤ 0.2) and slow instances at a random
    /// granularity: every run terminates, and the poisoned set exactly
    /// matches the oracle.
    #[test]
    fn chaos_poison_matches_oracle(
        seed in 0u64..1_000_000,
        permille in 0u64..=200,
        lanes in 1usize..5,
        ages in 1u64..5,
        workers in 1usize..5,
        chunk in 1usize..8,
        fuse in any::<bool>(),
    ) {
        check_chaos_case(seed, permille, lanes, ages, workers, Granularity { chunk, fuse });
    }

    /// With retries and deterministic bodies the final field store at a
    /// random granularity is identical to the fault-free run.
    #[test]
    fn chaos_retries_converge(
        seed in 0u64..1_000_000,
        permille in 0u64..=200,
        lanes in 1usize..4,
        ages in 1u64..4,
        workers in 1usize..5,
        chunk in 1usize..8,
        fuse in any::<bool>(),
    ) {
        let (termination, sums, clean) =
            check_retry_case(seed, permille, lanes, ages, workers, Granularity { chunk, fuse });
        prop_assert_eq!(termination, Termination::Quiescent);
        prop_assert_eq!(sums, clean);
    }
}
