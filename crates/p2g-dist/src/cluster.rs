//! The in-process cluster: a harness that runs the coordinator protocol
//! ([`crate::coordinator`]) with one thread per execution node and the
//! master on the caller's thread, all sharing one [`Transport`].
//!
//! Nothing here coordinates anything. The harness builds the transport
//! ([`SimNet`] or [`TcpMesh`], wrapped in [`FaultyNet`] when a fault plan
//! is set), starts [`run_node`] per node and [`run_master`], and assembles
//! the [`ClusterOutcome`] from what they return. Joining, assignment,
//! failure detection, replan, replay and quiescence are the protocol's —
//! the same code `p2gc cluster master|node` runs across OS processes. A
//! node dies here the way it dies there: the transport severs it
//! ([`Transport::disconnect`], e.g. a scheduled [`FaultPlan`] kill), its
//! loop notices and fail-stops, and the master learns of it from the
//! transport or from status silence.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use p2g_field::{Age, Buffer, Region, Value};
use p2g_graph::{KernelId, NodeId, NodeSpec};
use p2g_runtime::instrument::RunReport;
use p2g_runtime::node::FieldStore;
use p2g_runtime::trace::{RunTrace, Tracer};
use p2g_runtime::{Program, RunLimits, RuntimeError};

use crate::coordinator::{run_master, run_node, NodeConfig, ProtocolConfig, StreamFeed};
use crate::master::MasterNode;
use crate::tcp::TcpMesh;
use crate::transport::{FaultPlan, FaultyNet, RetryConfig, SimNet, Transport, MASTER_NODE};

/// Which interconnect a [`SimCluster`] runs over. The coordinator
/// protocol is identical either way — that is the point: recovery is a
/// property of the [`Transport`] contract, not of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process [`SimNet`] with modeled latency (the default).
    #[default]
    Sim,
    /// Real loopback TCP sockets via [`crate::TcpMesh`]: every message
    /// is framed by the wire codec and crosses the kernel's network stack.
    Tcp,
}

/// Per-node worker-thread counts: the same number everywhere, or one count
/// per node (earlier nodes first).
#[derive(Debug, Clone)]
pub enum Workers {
    Uniform(usize),
    PerNode(Vec<usize>),
}

impl From<usize> for Workers {
    fn from(n: usize) -> Workers {
        Workers::Uniform(n)
    }
}

impl From<Vec<usize>> for Workers {
    fn from(v: Vec<usize>) -> Workers {
        Workers::PerNode(v)
    }
}

impl From<&[usize]> for Workers {
    fn from(v: &[usize]) -> Workers {
        Workers::PerNode(v.to_vec())
    }
}

/// Cluster deployment parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of execution nodes.
    pub nodes: usize,
    /// Worker threads per execution node.
    pub workers_per_node: usize,
    /// Heterogeneous override: worker threads per node (index = node id).
    /// Nodes beyond the vector fall back to `workers_per_node`. The master
    /// weights its partition sizes by these counts, mirroring the paper's
    /// "execution nodes can consist of heterogeneous resources".
    pub node_workers: Vec<usize>,
    /// Simulated per-message network latency.
    pub latency: Duration,
    /// Fault-injection schedule (drops, duplicates, delays, node kills).
    pub fault_plan: Option<FaultPlan>,
    /// Status staleness after which the master declares a node failed
    /// ([`ProtocolConfig::failure_timeout`]; nodes report every tenth of
    /// it, see [`ClusterConfig::heartbeat_every`]).
    pub failure_timeout: Duration,
    /// Which interconnect to run over ([`TransportKind::Sim`] default).
    pub transport: TransportKind,
    /// Backoff-and-budget discipline for store-forward sends (and, over
    /// TCP, reconnection attempts).
    pub retry: RetryConfig,
}

impl ClusterConfig {
    /// `n` nodes with 2 workers each, zero latency, no faults.
    pub fn nodes(n: usize) -> ClusterConfig {
        ClusterConfig {
            nodes: n.max(1),
            workers_per_node: 2,
            node_workers: Vec::new(),
            latency: Duration::ZERO,
            fault_plan: None,
            failure_timeout: Duration::from_millis(50),
            transport: TransportKind::Sim,
            retry: RetryConfig::default(),
        }
    }

    /// Run over real loopback TCP sockets instead of the in-process
    /// simulated network. Latency modeling does not apply (the loopback
    /// stack provides its own), and fault-plan delivery *delays* degrade
    /// to immediate delivery; drops, duplicates and kills inject the same.
    pub fn over_tcp(mut self) -> ClusterConfig {
        self.transport = TransportKind::Tcp;
        self
    }

    /// Override the send retry/backoff discipline.
    pub fn with_retry(mut self, retry: RetryConfig) -> ClusterConfig {
        self.retry = retry;
        self
    }

    /// Set worker threads: a uniform count (`usize`) or one count per node
    /// (`Vec<usize>`).
    pub fn workers(mut self, w: impl Into<Workers>) -> ClusterConfig {
        match w.into() {
            Workers::Uniform(n) => self.workers_per_node = n.max(1),
            Workers::PerNode(v) => self.node_workers = v,
        }
        self
    }

    /// Worker threads for a given node id under this config.
    pub fn workers_for(&self, node: usize) -> usize {
        self.node_workers
            .get(node)
            .copied()
            .unwrap_or(self.workers_per_node)
            .max(1)
    }

    /// Set simulated network latency.
    pub fn with_latency(mut self, l: Duration) -> ClusterConfig {
        self.latency = l;
        self
    }

    /// Inject faults per `plan` (message drops/duplicates/delays, node
    /// kills) during the run.
    pub fn with_faults(mut self, plan: FaultPlan) -> ClusterConfig {
        self.fault_plan = Some(plan);
        self
    }

    /// Override the failure-detection timeout; the nodes' status interval
    /// scales along with it.
    pub fn failure_timeout(mut self, d: Duration) -> ClusterConfig {
        self.failure_timeout = d;
        self
    }

    /// How often each node reports to the master: a tenth of
    /// `failure_timeout`, floored at 1ms.
    pub fn heartbeat_every(&self) -> Duration {
        self.protocol(None).status_every()
    }

    /// The protocol settings of a run bounded by `deadline`.
    fn protocol(&self, deadline: Option<Duration>) -> ProtocolConfig {
        ProtocolConfig {
            retry: self.retry,
            failure_timeout: self.failure_timeout,
            deadline,
        }
    }
}

/// A ready-to-run simulated cluster.
pub struct SimCluster {
    config: ClusterConfig,
    master: MasterNode,
    assignment: HashMap<NodeId, HashSet<KernelId>>,
    programs: Vec<Program>,
    node_ids: Vec<NodeId>,
}

/// The result of a cluster run.
pub struct ClusterOutcome {
    /// Per-node run reports, in node order. Failed nodes report whatever
    /// they completed before the failure (their data is still valid —
    /// write-once fields cannot hold partial writes of an element).
    pub reports: Vec<(NodeId, RunReport)>,
    /// Per-node field replicas, in node order.
    pub fields: Vec<(NodeId, FieldStore)>,
    /// The network with its final statistics. (Bring the
    /// [`Transport`] trait into scope to query them.)
    pub net: Arc<dyn Transport>,
    /// The kernel assignment in effect at the end of the run (differs from
    /// the initial plan when recovery re-planned).
    pub assignment: HashMap<NodeId, HashSet<KernelId>>,
    /// Nodes that failed (were killed or declared dead) during the run.
    pub failed_nodes: Vec<NodeId>,
    /// Final assignment epoch (1 = no recovery happened).
    pub epoch: u64,
    /// The master's digest of the results the live nodes reported (see
    /// [`crate::results_digest`]): equal across node counts, transports,
    /// deployments and recovery histories when the results are.
    pub digest: u32,
    /// Deduplicated result entries behind the digest.
    pub entries: usize,
    /// Total send retries across all links.
    pub retries: u64,
    /// Sends abandoned after exhausting their retry budget. Nonzero means
    /// the network was lossier than the retry budget covers and field data
    /// may be incomplete — treat the results as suspect.
    pub lost_sends: u64,
    /// Store regions replayed to new owners during recovery.
    pub redelivered_stores: u64,
    /// Cluster-level trace (store forwards, deliveries, node deaths,
    /// replans) when the run limits enabled tracing. Per-node execution
    /// traces live on the individual [`RunReport`]s.
    pub dist_trace: Option<RunTrace>,
    /// Streaming mode: frames the master injected from the feed (0 for
    /// batch runs).
    pub frames_streamed: u64,
}

impl ClusterOutcome {
    /// Fetch field data from whichever node replica has it complete.
    pub fn fetch(&self, name: &str, age: Age, region: &Region) -> Option<Buffer> {
        self.fields
            .iter()
            .find_map(|(_, fs)| fs.fetch(name, age, region))
    }

    /// Fetch one element from any replica that has it.
    pub fn fetch_element(&self, name: &str, age: Age, index: &[usize]) -> Option<Value> {
        self.fields
            .iter()
            .find_map(|(_, fs)| fs.fetch_element(name, age, index))
    }

    /// Total kernel instances executed across the cluster for a kernel.
    pub fn total_instances(&self, kernel: &str) -> u64 {
        self.reports
            .iter()
            .filter_map(|(_, r)| r.instruments.kernel(kernel))
            .map(|s| s.instances)
            .sum()
    }

    /// Total store elements absorbed by write-once dedup across the
    /// cluster (duplicate deliveries, recovery re-execution).
    pub fn total_deduped(&self) -> u64 {
        self.reports
            .iter()
            .map(|(_, r)| r.instruments.deduped_elements())
            .sum()
    }
}

impl SimCluster {
    /// Build a cluster: each node constructs its own program via `build`
    /// (kernel bodies are closures and cannot be cloned). The plan the
    /// master will arrive at is computed up front so it can be inspected
    /// before the run: the run's master sees the same topology through the
    /// nodes' `Hello`s and the partitioner is deterministic.
    pub fn new(
        config: ClusterConfig,
        build: impl Fn() -> Program,
    ) -> Result<SimCluster, RuntimeError> {
        let node_ids: Vec<NodeId> = (0..config.nodes as u32).map(NodeId).collect();
        let mut master = MasterNode::new();
        for &id in &node_ids {
            master.report_topology(NodeSpec::multicore(
                id,
                format!("node-{}", id.0),
                config.workers_for(id.0 as usize),
            ));
        }
        let programs: Vec<Program> = (0..config.nodes).map(|_| build()).collect();
        for p in &programs {
            p.check_bodies()?;
        }
        let assignment = master.plan(programs[0].spec());
        Ok(SimCluster {
            config,
            master,
            assignment,
            programs,
            node_ids,
        })
    }

    /// The master node (topology/plan inspection).
    pub fn master(&self) -> &MasterNode {
        &self.master
    }

    /// The planned kernel assignment.
    pub fn assignment(&self) -> &HashMap<NodeId, HashSet<KernelId>> {
        &self.assignment
    }

    /// Run the cluster to global quiescence (or the deadline).
    pub fn run(self, limits: RunLimits) -> Result<ClusterOutcome, RuntimeError> {
        self.run_inner(limits, None)
    }

    /// Run the cluster in streaming mode: the master additionally pumps
    /// `feed` — injecting frames while the admission window has room — and
    /// stops once the feed is exhausted, every frame completed, and the
    /// cluster is stably quiescent. This is the distributed face of the
    /// session API: same frame-in/parts-injected contract as
    /// [`p2g_runtime::Session::submit`], with the master playing the
    /// submitting client.
    pub fn run_streaming(
        self,
        limits: RunLimits,
        feed: StreamFeed,
    ) -> Result<ClusterOutcome, RuntimeError> {
        self.run_inner(limits, Some(feed))
    }

    fn run_inner(
        self,
        limits: RunLimits,
        feed: Option<StreamFeed>,
    ) -> Result<ClusterOutcome, RuntimeError> {
        let (config, node_ids) = (self.config, self.node_ids);
        // One transport object for the master and every node: the fault
        // plan's kill list and message counter are cluster-wide. Its
        // statistics are the undecorated network's either way.
        let mut net: Arc<dyn Transport> = match config.transport {
            TransportKind::Sim => SimNet::new(&node_ids, config.latency),
            TransportKind::Tcp => TcpMesh::new(&node_ids, config.retry)
                .map_err(|e| RuntimeError::Net(e.to_string()))?,
        };
        if let Some(plan) = config.fault_plan.clone() {
            net = FaultyNet::new(net, plan);
        }
        let spec = Arc::new(self.programs[0].spec().clone());

        // Cluster-level tracer: one buffer per node loop plus one for the
        // master. Node-internal execution traces are recorded by the nodes
        // themselves, since the trace option rides along on the limits.
        let tracer = limits.trace.as_ref().map(|opts| {
            let nodes = node_ids.iter().map(|id| format!("node-{}", id.0));
            let labels = nodes.chain(["master".to_string()]).collect();
            Arc::new(Tracer::new(labels, opts.capacity))
        });

        let protocol = config.protocol(limits.wall_deadline);
        let silent = |_: &str| {};

        let (master_out, node_outs) = std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(node_ids.len());
            for (program, &id) in self.programs.into_iter().zip(&node_ids) {
                let cfg = NodeConfig {
                    id,
                    workers: config.workers_for(id.0 as usize),
                    port: 0,
                    protocol,
                };
                let (net, limits, tracer) = (net.clone(), limits.clone(), tracer.clone());
                let node = move || run_node(program, limits, net, &cfg, tracer, &silent);
                let spawned = std::thread::Builder::new()
                    .name(format!("p2g-node-{}", id.0))
                    .spawn_scoped(s, node)
                    .map_err(|e| RuntimeError::Net(format!("spawn node thread: {e}")));
                handles.push(spawned);
            }
            let nodes = node_ids.len();
            let master_out = run_master(
                &spec,
                net.clone(),
                nodes,
                &protocol,
                feed,
                tracer.clone(),
                &silent,
            );
            // Whatever the master returned, it is gone: a node still
            // waiting on it (a failed spawn left the join short, say)
            // takes its "lost master" exit instead of waiting forever.
            net.disconnect(MASTER_NODE);
            let node_outs: Vec<_> = handles
                .into_iter()
                .map(|h| h?.join().unwrap_or(Err(RuntimeError::WorkerPanic)))
                .collect();
            (master_out, node_outs)
        });
        let master_out = master_out?;

        let mut failed_nodes = master_out.failed_nodes;
        let mut redelivered_stores = master_out.redelivered;
        let mut reports = Vec::new();
        let mut fields = Vec::new();
        for (out, &id) in node_outs.into_iter().zip(&node_ids) {
            let out = out?;
            if out.error.is_some() && !failed_nodes.contains(&id) {
                failed_nodes.push(id);
            }
            redelivered_stores += out.replayed;
            reports.push((id, out.report));
            fields.push((id, out.fields));
        }

        Ok(ClusterOutcome {
            reports,
            fields,
            retries: net.total_retries(),
            lost_sends: net.total_lost(),
            net,
            assignment: master_out.assignment,
            failed_nodes,
            epoch: master_out.epoch,
            digest: master_out.digest,
            entries: master_out.entries,
            redelivered_stores,
            dist_trace: tracer.map(|t| t.capture(spec)),
            frames_streamed: master_out.frames_streamed,
        })
    }
}
