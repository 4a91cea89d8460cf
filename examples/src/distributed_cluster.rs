//! Distributed execution (paper Section IV / Figure 1): a master node
//! aggregates reported topologies, the high-level scheduler partitions the
//! K-means kernel graph across simulated execution nodes, and store events
//! flow between nodes through the publish-subscribe transport.
//!
//! Run with: `cargo run -p p2g-examples --bin distributed_cluster --release
//! [nodes] [workers_per_node]`

use p2g_core::prelude::*;
use p2g_kmeans::{build_kmeans_program, generate_dataset, kmeans_baseline, KmeansConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let nodes: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(3);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);

    let config = KmeansConfig {
        n: 500,
        k: 20,
        iterations: 8,
        ..KmeansConfig::default()
    };
    println!(
        "K-means on a simulated {nodes}-node cluster ({workers} workers/node): n={}, k={}, {} iterations",
        config.n, config.k, config.iterations
    );

    let cfg = config.clone();
    let cluster = SimCluster::new(ClusterConfig::nodes(nodes).workers(workers), move || {
        let (program, _) = build_kmeans_program(&cfg).expect("valid program");
        program
    })
    .expect("cluster builds");

    println!("HLS kernel assignment:");
    let mut assignment: Vec<_> = cluster.assignment().iter().collect();
    assignment.sort_by_key(|(n, _)| **n);
    let spec = p2g_kmeans::pipeline::kmeans_spec(config.n, config.k, config.dim);
    for (node, kernels) in assignment {
        let names: Vec<&str> = spec
            .kernels
            .iter()
            .filter(|k| kernels.contains(&k.id))
            .map(|k| k.name.as_str())
            .collect();
        println!("  {node}: {names:?}");
    }

    let outcome = cluster
        .run(RunLimits::ages(config.iterations))
        .expect("cluster run succeeds");

    println!(
        "network traffic: {} messages, {} bytes",
        outcome.messages(),
        outcome.bytes()
    );
    for ((src, dst), stats) in &outcome.link_stats {
        println!(
            "  {src} -> {dst}: {} msgs, {} bytes",
            stats.messages, stats.bytes
        );
    }

    // Verify against the sequential baseline.
    let points = generate_dataset(config.n, config.dim, config.k, config.seed);
    let trace = kmeans_baseline(&points, config.n, config.dim, config.k, config.iterations);
    let final_centroids = outcome
        .fetch("centroids", Age(config.iterations), &Region::all(2))
        .expect("final centroids available on some node");
    let matches = final_centroids.as_f64().unwrap() == trace.centroids.last().unwrap().as_slice();
    println!("distributed result matches sequential baseline: {matches}");

    println!("per-node instance counts:");
    for (node, report) in &outcome.reports {
        let total: u64 = report
            .instruments
            .all()
            .iter()
            .map(|(_, s)| s.instances)
            .sum();
        println!("  {node}: {total} instances, wall {:?}", report.wall_time);
    }
    assert!(matches, "distributed run diverged");
}
