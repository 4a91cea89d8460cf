//! Distributed P2G: master node (high-level scheduler), the event-based
//! publish–subscribe transport, and the coordinator protocol that runs a
//! program across execution nodes.
//!
//! The paper's deployment (Figure 1) is a master node plus an arbitrary
//! number of execution nodes over a network. Each execution node owns its
//! own worker pool, dependency analyzer and field *replicas*; stores are
//! forwarded to subscriber nodes through a [`Transport`] with per-link
//! byte accounting; the master aggregates reported topologies, partitions
//! the final implicit static dependency graph across nodes, supervises the
//! nodes' status reports and re-plans around a death.
//!
//! There is one master loop and one node loop ([`coordinator`]:
//! [`run_master`], [`run_node`]), and they only ever talk through the
//! transport they are handed. [`SimCluster`] deploys them as threads of
//! this process over the simulated [`SimNet`] (or real loopback sockets,
//! one [`TcpNet`] per participant); `p2gc cluster master|node` deploys the
//! same two functions as OS processes over one [`TcpNet`] each. See
//! DESIGN.md §8.1.
//!
//! ```
//! use p2g_dist::{SimCluster, ClusterConfig};
//! use p2g_graph::spec::mul_sum_example;
//! use p2g_runtime::Program;
//! use p2g_field::Buffer;
//!
//! let build = || {
//!     let mut p = Program::new(mul_sum_example()).unwrap();
//!     p.body("init", |ctx| {
//!         ctx.store(0, Buffer::from_vec((0..5).map(|i| i + 10).collect::<Vec<i32>>()));
//!         Ok(())
//!     });
//!     p.body("mul2", |ctx| {
//!         let v = ctx.input(0).value(0).as_i64() as i32;
//!         ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
//!         Ok(())
//!     });
//!     p.body("plus5", |ctx| {
//!         let v = ctx.input(0).value(0).as_i64() as i32;
//!         ctx.store(0, Buffer::from_vec(vec![v.wrapping_add(5)]));
//!         Ok(())
//!     });
//!     p.body("print", |_| Ok(()));
//!     p
//! };
//! let cluster = SimCluster::new(ClusterConfig::nodes(2), build).unwrap();
//! let outcome = cluster.run(p2g_runtime::RunLimits::ages(3)).unwrap();
//! assert!(outcome.messages() > 0); // data really crossed the "network"
//! ```

pub mod cluster;
pub mod coordinator;
pub mod master;
pub mod serve;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use cluster::{ClusterConfig, ClusterOutcome, SimCluster, TransportKind, Workers};
pub use coordinator::{
    results_digest, run_master, run_node, FrameParts, MasterOutcome, NodeConfig, NodeOutcome,
    ProtocolConfig, StreamFeed,
};
pub use master::MasterNode;
pub use serve::{
    run_serve_node, FrameDecoder, OpenRequest, PipelineFactory, PipelineRegistry, RemoteOutput,
    RemoteSession, RemoteStats, ServeClient, ServeConfig, ServeOutcome, TenantPipeline,
};
pub use tcp::TcpNet;
pub use transport::{
    FaultPlan, FaultyNet, KillSpec, LinkStats, NetMsg, RetryConfig, SimNet, Transport, MASTER_NODE,
};
