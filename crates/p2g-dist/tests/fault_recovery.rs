//! Fault-tolerance integration tests: killed nodes, lossy links, duplicate
//! deliveries — the cluster must produce exactly the fault-free results.
//!
//! The underlying argument is the P2G write-once model: every (field, age,
//! element) has exactly one deterministic value, so at-least-once delivery
//! and at-least-once (re-)execution dedup into exactly-once results.

use std::time::Duration;

use p2g_dist::{ClusterConfig, FaultPlan, SimCluster, TransportKind};
use p2g_field::{Age, Buffer, Region};
use p2g_graph::spec::mul_sum_example;
use p2g_graph::NodeId;
use p2g_runtime::{NodeBuilder, Program, RunLimits};
use proptest::prelude::*;

mod common;

fn build_mul_sum() -> Program {
    let mut p = Program::new(mul_sum_example()).unwrap();
    p.body("init", |ctx| {
        ctx.store(
            0,
            Buffer::from_vec((0..5).map(|i| i + 10).collect::<Vec<i32>>()),
        );
        Ok(())
    });
    p.body("mul2", |ctx| {
        let v = ctx.input(0).value(0).as_i64() as i32;
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
        Ok(())
    });
    p.body("plus5", |ctx| {
        let v = ctx.input(0).value(0).as_i64() as i32;
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_add(5)]));
        Ok(())
    });
    p.body("print", |_| Ok(()));
    p
}

/// Fault-free single-node reference: (m_data, p_data) per age.
fn reference(ages: u64) -> Vec<Vec<i32>> {
    let (_, fields) = NodeBuilder::new(build_mul_sum())
        .workers(2)
        .launch(RunLimits::ages(ages))
        .unwrap()
        .collect()
        .unwrap();
    (0..ages)
        .flat_map(|a| {
            vec![
                fields
                    .fetch("m_data", Age(a), &Region::all(1))
                    .unwrap()
                    .as_i32()
                    .unwrap()
                    .to_vec(),
                fields
                    .fetch("p_data", Age(a), &Region::all(1))
                    .unwrap()
                    .as_i32()
                    .unwrap()
                    .to_vec(),
            ]
        })
        .collect()
}

fn outcome_fields(outcome: &p2g_dist::ClusterOutcome, ages: u64) -> Vec<Vec<i32>> {
    (0..ages)
        .flat_map(|a| {
            vec![
                outcome
                    .fetch("m_data", Age(a), &Region::all(1))
                    .unwrap_or_else(|| panic!("m_data age {a} missing"))
                    .as_i32()
                    .unwrap()
                    .to_vec(),
                outcome
                    .fetch("p_data", Age(a), &Region::all(1))
                    .unwrap_or_else(|| panic!("p_data age {a} missing"))
                    .as_i32()
                    .unwrap()
                    .to_vec(),
            ]
        })
        .collect()
}

/// What the kill scenario runs: the batch `mul_sum` program, or the
/// streaming pipeline fed by the master.
#[derive(Clone, Copy)]
enum Workload {
    Batch,
    Stream,
}

/// The recovery scenarios run over both transports: the simulated network
/// and real localhost sockets ([`TransportKind::Tcp`]). The protocol,
/// fault plan, and exactly-once argument are transport-agnostic.
fn killed_mid_run_scenario(transport: TransportKind, workload: Workload) {
    const AGES: u64 = 6;
    const FRAMES: u64 = 24;
    // Kill node 1 once cross-node traffic is underway; a lossy link on top
    // exercises retry alongside recovery.
    let plan = FaultPlan::new()
        .kill_after_messages(NodeId(1), 12)
        .drop_rate(0.2)
        .seed(42);
    let mut config = ClusterConfig::nodes(3).with_faults(plan);
    config.transport = transport;
    let deadline = Duration::from_secs(30);
    let emitted = common::Emitted::default();
    let outcome = match workload {
        Workload::Batch => SimCluster::new(config, build_mul_sum)
            .unwrap()
            .run(RunLimits::ages(AGES).with_deadline(deadline).with_trace()),
        Workload::Stream => SimCluster::new(config, common::stream_program(&emitted))
            .unwrap()
            .run_streaming(
                RunLimits::unbounded()
                    .with_gc_window(8)
                    .with_deadline(deadline)
                    .with_trace(),
                common::stream_feed(FRAMES, &emitted),
            ),
    }
    .unwrap();

    assert_eq!(
        outcome.failed_nodes,
        vec![NodeId(1)],
        "the scheduled kill must have been detected"
    );
    assert_eq!(outcome.epoch, 2, "one death, one replan");
    // Trace invariants hold on every node, including the killed one, and
    // the cluster trace records the death and the recovery re-plan.
    for (_, report) in &outcome.reports {
        p2g_runtime::trace_check::all(report);
    }
    let dist = outcome.dist_trace.as_ref().expect("cluster trace enabled");
    assert!(dist.of_kind("NodeDeath").count() >= 1);
    assert!(dist.of_kind("Replan").count() >= 1);
    assert!(dist.of_kind("Send").count() >= 1);
    assert!(dist.of_kind("Recv").count() >= 1);
    assert!(
        !outcome.assignment.contains_key(&NodeId(1)),
        "recovery re-planned over the survivors"
    );
    assert!(
        outcome.redelivered_stores > 0,
        "recovery replayed stored regions to new owners"
    );
    assert!(
        outcome.retries() > 0,
        "the lossy link forced send retries (drops={})",
        outcome.total_drops()
    );
    match workload {
        Workload::Batch => assert_eq!(
            outcome_fields(&outcome, AGES),
            reference(AGES),
            "results after a node failure must match the fault-free run"
        ),
        Workload::Stream => {
            // The feed kept admitting frames after the recovery (a probe
            // that counted terminal-kernel runs would have overshot and
            // wedged the window), and no frame was lost with the node.
            // Re-execution may emit a frame twice; never a wrong sum.
            assert_eq!(outcome.frames_streamed, FRAMES);
            let sums = emitted.sums.lock();
            for n in 0..FRAMES {
                assert!(sums.contains(&common::frame_sum(n)), "frame {n} never emitted");
            }
            assert!(sums.iter().all(|s| (0..FRAMES).any(|n| common::frame_sum(n) == *s)));
        }
    }
}

#[test]
fn node_killed_mid_run_recovers_to_identical_results() {
    killed_mid_run_scenario(TransportKind::Sim, Workload::Batch);
}

#[test]
fn node_killed_mid_run_recovers_over_tcp() {
    killed_mid_run_scenario(TransportKind::Tcp, Workload::Batch);
}

#[test]
fn node_killed_mid_stream_loses_no_frame() {
    killed_mid_run_scenario(TransportKind::Sim, Workload::Stream);
}

/// Chunked `mul2` units land merged range stores, which recovery replays
/// and dedups like any other: with a node killed mid-run the results
/// digest and entries equal an undisturbed unchunked run's.
#[test]
fn chunked_units_survive_node_kill_with_identical_digest() {
    const AGES: u64 = 6;
    let run = |chunk: usize, plan: FaultPlan| {
        let config = ClusterConfig::nodes(3).with_faults(plan);
        SimCluster::new(config, move || {
            let mut p = build_mul_sum();
            p.set_chunk_size("mul2", chunk);
            p
        })
        .unwrap()
        .run(
            RunLimits::ages(AGES)
                .with_deadline(Duration::from_secs(30))
                .with_trace(),
        )
        .unwrap()
    };
    let plain = run(1, FaultPlan::new());
    let chunked = run(
        5,
        FaultPlan::new().kill_after_messages(NodeId(1), 12).seed(42),
    );

    assert_eq!(chunked.failed_nodes, vec![NodeId(1)]);
    for (_, report) in &chunked.reports {
        p2g_runtime::trace_check::all(report);
    }
    let (units, instances) = chunked
        .reports
        .iter()
        .filter_map(|(_, r)| r.instruments.kernel("mul2"))
        .fold((0, 0), |(u, i), s| (u + s.units, i + s.instances));
    assert!(units < instances, "mul2 must have run chunked units");
    assert_eq!(
        (chunked.digest, chunked.entries),
        (plain.digest, plain.entries)
    );
    assert_eq!(outcome_fields(&chunked, AGES), reference(AGES));
}

fn duplicate_deliveries_scenario(transport: TransportKind) {
    const AGES: u64 = 4;
    let want = reference(AGES);
    let plan = FaultPlan::new().duplicate_rate(0.5).seed(9);
    let mut config = ClusterConfig::nodes(2).with_faults(plan);
    config.transport = transport;
    let cluster = SimCluster::new(config, build_mul_sum).unwrap();
    let outcome = cluster
        .run(RunLimits::ages(AGES).with_deadline(Duration::from_secs(30)).with_trace())
        .unwrap();
    assert_eq!(outcome_fields(&outcome, AGES), want);
    assert!(
        outcome.total_deduped() > 0,
        "duplicated deliveries must have hit the dedup path"
    );
    // Write-once must hold per node even under duplicate deliveries.
    for (_, report) in &outcome.reports {
        p2g_runtime::trace_check::all(report);
    }
}

#[test]
fn duplicate_deliveries_are_absorbed_by_dedup() {
    duplicate_deliveries_scenario(TransportKind::Sim);
}

#[test]
fn duplicate_deliveries_are_absorbed_over_tcp() {
    duplicate_deliveries_scenario(TransportKind::Tcp);
}

#[test]
fn heartbeat_every_derives_from_failure_timeout() {
    // No hardcoded interval — a tenth of the timeout.
    let c = ClusterConfig::nodes(2);
    assert_eq!(c.heartbeat_every(), c.failure_timeout / 10);
    // Scaling the timeout scales the interval with it.
    let c = ClusterConfig::nodes(2).failure_timeout(Duration::from_millis(300));
    assert_eq!(c.heartbeat_every(), Duration::from_millis(30));
    // Floored so a tiny timeout cannot demand sub-millisecond heartbeats.
    let c = ClusterConfig::nodes(2).failure_timeout(Duration::from_millis(3));
    assert_eq!(c.heartbeat_every(), Duration::from_millis(1));
}

fn overridden_timings_scenario(transport: TransportKind) {
    const AGES: u64 = 4;
    let want = reference(AGES);
    let plan = FaultPlan::new().kill_after_messages(NodeId(1), 8).seed(7);
    let mut config = ClusterConfig::nodes(3)
        .with_faults(plan)
        .failure_timeout(Duration::from_millis(120));
    config.transport = transport;
    let cluster = SimCluster::new(config, build_mul_sum).unwrap();
    let outcome = cluster
        .run(RunLimits::ages(AGES).with_deadline(Duration::from_secs(30)))
        .unwrap();
    assert_eq!(outcome.failed_nodes, vec![NodeId(1)]);
    assert_eq!(outcome.epoch, 2);
    assert_eq!(outcome_fields(&outcome, AGES), want);
}

#[test]
fn recovery_works_with_overridden_detection_timings() {
    overridden_timings_scenario(TransportKind::Sim);
}

#[test]
fn recovery_with_overridden_timings_over_tcp() {
    overridden_timings_scenario(TransportKind::Tcp);
}

/// A fatal kernel failure (Abort policy) is genuine node death: the node's
/// next status says so, the master declares it dead, re-plans over the
/// survivors, and a survivor re-executes the failed work to the exact
/// fault-free results.
#[test]
fn fatal_kernel_failure_escalates_to_node_replan() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const AGES: u64 = 5;
    let want = reference(AGES);
    // One fatal failure, globally: whichever node runs mul2@2[1] first
    // dies; the survivor's re-execution consumes nothing and succeeds.
    let fail_once = Arc::new(AtomicBool::new(true));
    let build = move || {
        let mut p = build_mul_sum();
        let flag = fail_once.clone();
        p.body("mul2", move |ctx| {
            if ctx.age().0 == 2 && ctx.index(0) == 1 && flag.swap(false, Ordering::SeqCst) {
                return Err("injected fatal kernel failure".into());
            }
            let v = ctx.input(0).value(0).as_i64() as i32;
            ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
            Ok(())
        });
        p
    };
    let cluster = SimCluster::new(ClusterConfig::nodes(3), build).unwrap();
    let outcome = cluster
        .run(RunLimits::ages(AGES).with_deadline(Duration::from_secs(30)))
        .unwrap();
    assert_eq!(
        outcome.failed_nodes.len(),
        1,
        "exactly the node that hit the fatal failure must be declared dead"
    );
    let dead = outcome.failed_nodes[0];
    assert!(
        !outcome.assignment.contains_key(&dead),
        "the dead node must be planned out"
    );
    assert_eq!(
        outcome_fields(&outcome, AGES),
        want,
        "a survivor must re-execute the lost work to identical results"
    );
}

/// Under a Poison fault policy the same kernel failure stays local:
/// dependents are skipped, nothing escalates, no node is declared dead and
/// no re-plan happens.
#[test]
fn poisoned_kernel_failure_stays_local_no_replan() {
    use p2g_runtime::FaultPolicy;

    const AGES: u64 = 3;
    let build = || {
        let mut p = build_mul_sum();
        p.body("mul2", |ctx| {
            if ctx.age().0 == 1 && ctx.index(0) == 0 {
                return Err("injected permanent kernel failure".into());
            }
            let v = ctx.input(0).value(0).as_i64() as i32;
            ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
            Ok(())
        });
        p.set_fault_policy_all(FaultPolicy::retries(0).poison());
        p
    };
    let cluster = SimCluster::new(ClusterConfig::nodes(2), build).unwrap();
    let initial_assignment = cluster.assignment().clone();
    let outcome = cluster
        .run(RunLimits::ages(AGES).with_deadline(Duration::from_secs(30)).with_trace())
        .unwrap();
    assert!(
        outcome.failed_nodes.is_empty(),
        "a poisoned kernel failure must not be treated as node death"
    );
    for (_, report) in &outcome.reports {
        p2g_runtime::trace_check::all(report);
    }
    assert_eq!(
        outcome.assignment, initial_assignment,
        "no re-plan under local degradation"
    );
    let total_poisoned: u64 = outcome
        .reports
        .iter()
        .map(|(_, r)| r.instruments.total_poisoned())
        .sum();
    assert!(
        total_poisoned >= 1,
        "the failure must be recorded as poison"
    );
    let total_failures: u64 = outcome
        .reports
        .iter()
        .map(|(_, r)| r.instruments.total_failures())
        .sum();
    assert!(total_failures >= 1);
    // Everything up to the failure is intact...
    assert_eq!(
        outcome
            .fetch("m_data", Age(1), &Region::all(1))
            .unwrap()
            .as_i32()
            .unwrap()
            .to_vec(),
        vec![25, 27, 29, 31, 33]
    );
    // ...the failed element is dropped, its lane-mates keep flowing.
    assert!(outcome.fetch_element("p_data", Age(1), &[0]).is_none());
    assert_eq!(
        outcome
            .fetch_element("p_data", Age(1), &[1])
            .map(|v| v.as_i64()),
        Some(54)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random drop rates below 30% change latency, never results — over
    /// the simulated network and over real localhost sockets alike.
    #[test]
    fn random_drop_rates_never_change_results(
        drop_milli in 0usize..300,
        seed in 0u64..100_000,
        nodes in 2usize..=3,
        tcp in any::<bool>(),
    ) {
        const AGES: u64 = 3;
        let want = reference(AGES);
        let plan = FaultPlan::new()
            .drop_rate(drop_milli as f64 / 1000.0)
            .seed(seed | 1);
        let mut config = ClusterConfig::nodes(nodes).with_faults(plan);
        config.transport = if tcp { TransportKind::Tcp } else { TransportKind::Sim };
        let cluster = SimCluster::new(config, build_mul_sum).unwrap();
        let outcome = cluster
            .run(RunLimits::ages(AGES).with_deadline(Duration::from_secs(30)))
            .unwrap();
        prop_assert_eq!(outcome_fields(&outcome, AGES), want);
        prop_assert!(outcome.failed_nodes.is_empty());
    }
}
