//! The in-process cluster: a harness that runs the coordinator protocol
//! ([`crate::coordinator`]) with one thread per execution node and the
//! master on the caller's thread.
//!
//! Nothing here coordinates anything. The harness gives every participant
//! its transport — the one shared [`SimNet`], or over TCP one solo
//! [`TcpNet`] each, bound and pointed at the master exactly as
//! `p2gc cluster master|node` do — wraps each in a [`FaultyNet`] on one
//! shared schedule when a fault plan is set, starts [`run_node`] per node
//! and [`run_master`], and assembles the [`ClusterOutcome`] from what they
//! return. Joining, peering, assignment, failure detection, replan, replay
//! and quiescence are the protocol's — the same code `p2gc cluster` runs
//! across OS processes. A node dies here the way it dies there: its links
//! are severed ([`Transport::disconnect`], e.g. a scheduled [`FaultPlan`]
//! kill), its loop notices and fail-stops, and the master learns of it
//! from its transport or from status silence.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use p2g_field::{Age, Buffer, Region, Value};
use p2g_graph::{KernelId, NodeId, NodeSpec};
use p2g_runtime::instrument::RunReport;
use p2g_runtime::node::FieldStore;
use p2g_runtime::trace::{RunTrace, Tracer, TRACE_CAPACITY};
use p2g_runtime::{Program, RunLimits, RuntimeError};

use crate::coordinator::{run_master, run_node, NodeConfig, ProtocolConfig, StreamFeed};
use crate::master::MasterNode;
use crate::tcp::TcpNet;
use crate::transport::{
    FaultPlan, FaultyNet, LinkStats, RetryConfig, SimNet, Transport, MASTER_NODE,
};

/// Which interconnect a [`SimCluster`] runs over. The coordinator
/// protocol is identical either way — that is the point: recovery is a
/// property of the [`Transport`] contract, not of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process [`SimNet`] with modeled latency (the default).
    #[default]
    Sim,
    /// Real loopback TCP sockets, one solo [`TcpNet`] per participant:
    /// every message is framed by the wire codec and crosses the kernel's
    /// network stack.
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
    /// Fault-injection schedule (drops, duplicates, node kills).
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
    /// simulated network: one endpoint for the master and one per node.
    /// Latency modeling does not apply (the loopback stack provides its
    /// own); drops, duplicates and kills inject the same.
    pub fn over_tcp(mut self) -> ClusterConfig {
        self.transport = TransportKind::Tcp;
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

    /// Inject faults per `plan` (message drops/duplicates, node kills)
    /// during the run.
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
    /// Final per-directed-link statistics, merged over the run's distinct
    /// transports (the one [`SimNet`], or every participant's [`TcpNet`]).
    pub link_stats: BTreeMap<(NodeId, NodeId), LinkStats>,
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
    fn total(&self, stat: impl Fn(&LinkStats) -> u64) -> u64 {
        self.link_stats.values().map(stat).sum()
    }

    /// Data messages accepted onto links.
    pub fn messages(&self) -> u64 {
        self.total(|s| s.messages)
    }

    /// Data payload bytes accepted onto links.
    pub fn bytes(&self) -> u64 {
        self.total(|s| s.bytes)
    }

    /// Dropped data messages across all links.
    pub fn total_drops(&self) -> u64 {
        self.total(|s| s.drops)
    }

    /// Send retries across all links.
    pub fn retries(&self) -> u64 {
        self.total(|s| s.retries)
    }

    /// Sends abandoned after exhausting their retry budget. Nonzero means
    /// the network was lossier than the retry budget covers and field data
    /// may be incomplete — treat the results as suspect.
    pub fn lost_sends(&self) -> u64 {
        self.total(|s| s.lost)
    }

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
        // One transport per participant, the master's first. Over TCP each
        // binds its own endpoint and a node knows only the master's address,
        // as `p2gc cluster node --master` does: the master learns each node
        // from its `Hello`, the nodes learn each other from `Assign`.
        let mut ports = vec![0; node_ids.len()];
        let endpoints: Vec<Arc<dyn Transport>> = match config.transport {
            TransportKind::Sim => {
                let net: Arc<dyn Transport> = SimNet::new(&node_ids, config.latency);
                vec![net; node_ids.len() + 1]
            }
            TransportKind::Tcp => {
                let bind = |id: NodeId, workers: usize| {
                    TcpNet::bind(id, config.retry, workers as u32)
                        .map_err(|e| RuntimeError::Net(format!("bind {id}: {e}")))
                };
                let master = bind(MASTER_NODE, 0)?;
                let master_addr = SocketAddr::from(([127, 0, 0, 1], master.port()));
                let mut endpoints: Vec<Arc<dyn Transport>> = vec![master];
                for (&id, port) in node_ids.iter().zip(&mut ports) {
                    let node = bind(id, config.workers_for(id.0 as usize))?;
                    node.set_peer(MASTER_NODE, master_addr);
                    *port = node.port();
                    endpoints.push(node);
                }
                endpoints
            }
        };
        // Every participant's fault injection runs on one schedule: one
        // RNG, one cluster-wide message count, kills seen by all.
        let nets: Vec<Arc<dyn Transport>> = match config.fault_plan.clone() {
            None => endpoints.clone(),
            Some(plan) => {
                let first = FaultyNet::new(endpoints[0].clone(), plan);
                let share = |t: &Arc<dyn Transport>| first.share(t.clone()) as Arc<dyn Transport>;
                let mut nets: Vec<_> = endpoints[1..].iter().map(share).collect();
                nets.insert(0, first);
                nets
            }
        };
        let spec = Arc::new(self.programs[0].spec().clone());

        // Cluster-level tracer: one buffer per node loop plus one for the
        // master. Node-internal execution traces are recorded by the nodes
        // themselves, since the trace option rides along on the limits.
        let tracer = limits.trace.then(|| {
            let nodes = node_ids.iter().map(|id| format!("node-{}", id.0));
            let labels = nodes.chain(["master".to_string()]).collect();
            Arc::new(Tracer::new(labels, TRACE_CAPACITY))
        });

        let protocol = config.protocol(limits.wall_deadline);
        let silent = |_: &str| {};

        let (master_out, node_outs) = std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(node_ids.len());
            let participants = node_ids.iter().zip(&nets[1..]).zip(&ports);
            for (program, ((&id, net), &port)) in self.programs.into_iter().zip(participants) {
                let cfg = NodeConfig {
                    id,
                    workers: config.workers_for(id.0 as usize),
                    port,
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
                nets[0].clone(),
                nodes,
                &protocol,
                feed,
                tracer.clone(),
                &silent,
            );
            // Whatever the master returned, it is gone. A node it declared
            // failed is severed the way a kill severs it, so it fail-stops
            // with what it has; any other node still waiting on the master
            // (a failed spawn left the join short, say) takes its "lost
            // master" exit instead of waiting forever.
            let failed = master_out.as_ref().map_or(&[][..], |m| &m.failed_nodes[..]);
            for (net, id) in nets[1..].iter().zip(&node_ids) {
                let severed = if failed.contains(id) {
                    *id
                } else {
                    MASTER_NODE
                };
                net.disconnect(severed);
            }
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

        // Merge the statistics of the distinct transports: every endpoint
        // records the links it sends on; the one `SimNet` records them all.
        let mut link_stats: BTreeMap<_, LinkStats> = BTreeMap::new();
        let mut seen = HashSet::new();
        for t in &endpoints {
            if !seen.insert(Arc::as_ptr(t) as *const ()) {
                continue;
            }
            for (link, stats) in t.link_stats() {
                *link_stats.entry(link).or_default() += stats;
            }
        }

        Ok(ClusterOutcome {
            reports,
            fields,
            link_stats,
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
