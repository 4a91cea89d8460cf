//! Integration tests of the simulated cluster: distributed execution must
//! produce exactly the single-node results, across node counts, latencies
//! and assignments.

use std::time::Duration;

use p2g_dist::{ClusterConfig, SimCluster};
use p2g_field::{Age, Buffer, Region};
use p2g_graph::spec::mul_sum_example;
use p2g_runtime::{NodeBuilder, Program, RunLimits};

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

fn single_node_reference(ages: u64) -> Vec<Vec<i32>> {
    let (_, fields) = NodeBuilder::new(build_mul_sum())
        .workers(2)
        .launch(RunLimits::ages(ages))
        .and_then(|n| n.collect())
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

#[test]
fn cluster_matches_single_node_results() {
    let reference = single_node_reference(4);
    for nodes in [2, 3, 4] {
        let cluster = SimCluster::new(ClusterConfig::nodes(nodes), build_mul_sum).unwrap();
        let outcome = cluster.run(RunLimits::ages(4)).unwrap();
        let got: Vec<Vec<i32>> = (0..4)
            .flat_map(|a| {
                vec![
                    outcome
                        .fetch("m_data", Age(a), &Region::all(1))
                        .unwrap_or_else(|| panic!("m_data age {a} missing on {nodes} nodes"))
                        .as_i32()
                        .unwrap()
                        .to_vec(),
                    outcome
                        .fetch("p_data", Age(a), &Region::all(1))
                        .unwrap()
                        .as_i32()
                        .unwrap()
                        .to_vec(),
                ]
            })
            .collect();
        assert_eq!(got, reference, "{nodes}-node cluster diverged");
    }
}

/// The same protocol over real localhost sockets (one solo `TcpNet` per
/// participant via `over_tcp`) produces bit-identical results and real
/// network traffic.
#[test]
fn cluster_matches_single_node_results_over_tcp() {
    let reference = single_node_reference(4);
    for nodes in [2, 3] {
        let cluster =
            SimCluster::new(ClusterConfig::nodes(nodes).over_tcp(), build_mul_sum).unwrap();
        let outcome = cluster.run(RunLimits::ages(4)).unwrap();
        let got: Vec<Vec<i32>> = (0..4)
            .flat_map(|a| {
                vec![
                    outcome
                        .fetch("m_data", Age(a), &Region::all(1))
                        .unwrap_or_else(|| panic!("m_data age {a} missing on {nodes} tcp nodes"))
                        .as_i32()
                        .unwrap()
                        .to_vec(),
                    outcome
                        .fetch("p_data", Age(a), &Region::all(1))
                        .unwrap()
                        .as_i32()
                        .unwrap()
                        .to_vec(),
                ]
            })
            .collect();
        assert_eq!(got, reference, "{nodes}-node tcp cluster diverged");
        assert!(outcome.messages() > 0, "data must cross real sockets");
    }
}

#[test]
fn every_kernel_assigned_to_exactly_one_node() {
    let cluster = SimCluster::new(ClusterConfig::nodes(3), build_mul_sum).unwrap();
    let mut seen = std::collections::HashSet::new();
    for ks in cluster.assignment().values() {
        for &k in ks {
            assert!(seen.insert(k));
        }
    }
    assert_eq!(seen.len(), 4);
}

#[test]
fn instance_counts_aggregate_across_nodes() {
    let cluster = SimCluster::new(ClusterConfig::nodes(2), build_mul_sum).unwrap();
    let outcome = cluster.run(RunLimits::ages(3)).unwrap();
    assert_eq!(outcome.total_instances("init"), 1);
    assert_eq!(outcome.total_instances("mul2"), 15);
    assert_eq!(outcome.total_instances("plus5"), 15);
    assert_eq!(outcome.total_instances("print"), 3);
}

#[test]
fn network_carries_cross_partition_traffic() {
    let cluster = SimCluster::new(ClusterConfig::nodes(2), build_mul_sum).unwrap();
    let outcome = cluster.run(RunLimits::ages(3)).unwrap();
    // mul2/plus5/print share fields; with 2 nodes at least one edge is
    // cut, so the network must have carried messages and bytes.
    assert!(outcome.messages() > 0);
    assert!(outcome.bytes() > outcome.messages() * 32);
    assert!(!outcome.link_stats.is_empty());
}

#[test]
fn latency_does_not_change_results() {
    let config = ClusterConfig::nodes(2).with_latency(Duration::from_millis(2));
    let cluster = SimCluster::new(config, build_mul_sum).unwrap();
    let outcome = cluster.run(RunLimits::ages(2)).unwrap();
    assert_eq!(
        outcome
            .fetch("p_data", Age(1), &Region::all(1))
            .unwrap()
            .as_i32()
            .unwrap(),
        &[50, 54, 58, 62, 66]
    );
}

#[test]
fn cluster_deadline_stops_unbounded_program() {
    let cluster = SimCluster::new(ClusterConfig::nodes(2), build_mul_sum).unwrap();
    let limits = RunLimits::unbounded()
        .with_deadline(Duration::from_millis(150))
        .with_gc_window(8);
    let outcome = cluster.run(limits).unwrap();
    // Work happened before the deadline fired.
    assert!(outcome.total_instances("mul2") > 5);
}

#[test]
fn single_node_cluster_degenerates_gracefully() {
    let cluster = SimCluster::new(ClusterConfig::nodes(1), build_mul_sum).unwrap();
    let outcome = cluster.run(RunLimits::ages(3)).unwrap();
    assert_eq!(outcome.messages(), 0, "no self-forwarding");
    assert_eq!(outcome.total_instances("mul2"), 15);
}

#[test]
fn heterogeneous_node_workers() {
    // A "big" node (4 workers) and a "small" node (1 worker): the master
    // must see the asymmetric topology and the cluster must still produce
    // the exact single-node results.
    let config = ClusterConfig::nodes(2).workers(vec![4, 1]);
    let cluster = SimCluster::new(config, build_mul_sum).unwrap();
    let shares = cluster.master().topology().compute_shares();
    let total_cores = cluster.master().topology().total_cores();
    assert_eq!(total_cores, 5);
    assert!(shares.iter().any(|&(_, s)| (s - 0.8).abs() < 1e-9));

    let reference = single_node_reference(3);
    let outcome = cluster.run(RunLimits::ages(3)).unwrap();
    let got: Vec<Vec<i32>> = (0..3)
        .flat_map(|a| {
            vec![
                outcome
                    .fetch("m_data", Age(a), &Region::all(1))
                    .unwrap()
                    .as_i32()
                    .unwrap()
                    .to_vec(),
                outcome
                    .fetch("p_data", Age(a), &Region::all(1))
                    .unwrap()
                    .as_i32()
                    .unwrap()
                    .to_vec(),
            ]
        })
        .collect();
    assert_eq!(got, reference);
}

/// Streaming cluster mode: the master pumps a windowed frame feed (the
/// distributed face of the session API) and the cluster computes every
/// frame exactly once, in order.
#[test]
fn streaming_feed_drives_cluster_to_completion() {
    use std::sync::atomic::Ordering;

    const FRAMES: u64 = 24;
    let emitted = common::Emitted::default();
    let outcome = SimCluster::new(
        ClusterConfig::nodes(3).workers(2),
        common::stream_program(&emitted),
    )
    .unwrap()
    .run_streaming(
        RunLimits::unbounded()
            .with_gc_window(8)
            .with_deadline(Duration::from_secs(60)),
        common::stream_feed(FRAMES, &emitted),
    )
    .unwrap();

    assert_eq!(outcome.frames_streamed, FRAMES);
    assert_eq!(emitted.frontier.load(Ordering::SeqCst), FRAMES);
    assert_eq!(outcome.lost_sends(), 0);
    // In frame order (the emit kernel is ordered), each exactly once.
    let got = emitted.sums.lock().clone();
    let want: Vec<i64> = (0..FRAMES).map(common::frame_sum).collect();
    assert_eq!(got, want);
}
