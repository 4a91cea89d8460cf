//! The master node: topology aggregation and the high-level scheduler.
//!
//! The HLS (paper Section IV) derives the final implicit static dependency
//! graph from a workload's fetch/store statements, partitions it into one
//! component per execution node — graph partitioning with Kernighan–Lin
//! refinement, optionally followed by tabu search — and repartitions when
//! instrumentation feedback changes the weights.

use std::collections::{BTreeMap, HashMap, HashSet};

use p2g_graph::{
    kernighan_lin_refine, partition_greedy, tabu_refine, FinalGraph, KernelId, NodeId, NodeSpec,
    Partitioning, ProgramSpec, Topology,
};

/// The master node of a P2G cluster.
pub struct MasterNode {
    topology: Topology,
    /// Kernel → node assignments from the last planning round.
    last_plan: Option<HashMap<NodeId, HashSet<KernelId>>>,
}

impl Default for MasterNode {
    fn default() -> MasterNode {
        MasterNode::new()
    }
}

impl MasterNode {
    /// A master with an empty global topology.
    pub fn new() -> MasterNode {
        MasterNode {
            topology: Topology::new(),
            last_plan: None,
        }
    }

    /// An execution node reports its local topology (paper Figure 1); the
    /// master merges it into the global view.
    pub fn report_topology(&mut self, spec: NodeSpec) {
        self.topology.add_node(spec);
    }

    /// A node left the cluster.
    pub fn node_left(&mut self, id: NodeId) {
        self.topology.remove_node(id);
    }

    /// The aggregated global topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Partition `spec`'s final graph across the registered nodes and
    /// return the kernel assignment per node. Single-node topologies get
    /// everything.
    pub fn plan(&mut self, spec: &ProgramSpec) -> HashMap<NodeId, HashSet<KernelId>> {
        let graph = FinalGraph::from_spec(spec);
        self.plan_weighted(spec, &graph)
    }

    /// Partition with an explicitly weighted graph (used by
    /// [`MasterNode::replan`] after instrumentation feedback).
    fn plan_weighted(
        &mut self,
        spec: &ProgramSpec,
        graph: &FinalGraph,
    ) -> HashMap<NodeId, HashSet<KernelId>> {
        let nodes: Vec<NodeId> = self.topology.nodes().map(|n| n.id).collect();
        assert!(!nodes.is_empty(), "plan() needs at least one reported node");
        let parts = nodes.len().min(spec.kernels.len().max(1));

        let part = partition_greedy(graph, parts);
        let part = kernighan_lin_refine(graph, part);
        let part = tabu_refine(graph, part, 100, 4, 0x9e3779b9);
        let assignment = self.assign_parts(&part, &nodes, graph);
        self.last_plan = Some(assignment.clone());
        assignment
    }

    /// Re-plan with measured kernel times (µs) and communication volumes
    /// (elements) folded into the graph weights — the paper's
    /// instrumentation-driven repartitioning loop.
    pub fn replan(
        &mut self,
        spec: &ProgramSpec,
        kernel_times_us: &BTreeMap<KernelId, f64>,
        edge_volumes: &BTreeMap<(KernelId, KernelId), f64>,
    ) -> HashMap<NodeId, HashSet<KernelId>> {
        let mut graph = FinalGraph::from_spec(spec);
        graph.apply_weights(kernel_times_us, edge_volumes);
        self.plan_weighted(spec, &graph)
    }

    /// The most recent plan, if any.
    pub fn last_plan(&self) -> Option<&HashMap<NodeId, HashSet<KernelId>>> {
        self.last_plan.as_ref()
    }

    /// Map partition indices onto nodes: heaviest part onto the node with
    /// the most cores.
    fn assign_parts(
        &self,
        part: &Partitioning,
        nodes: &[NodeId],
        graph: &FinalGraph,
    ) -> HashMap<NodeId, HashSet<KernelId>> {
        let loads = part.loads(graph);
        let mut part_order: Vec<usize> = (0..part.parts).collect();
        part_order.sort_by(|&a, &b| {
            loads[b]
                .partial_cmp(&loads[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut node_order: Vec<NodeId> = nodes.to_vec();
        node_order
            .sort_by_key(|&n| std::cmp::Reverse(self.topology.node(n).map_or(0, |s| s.cores)));

        let mut out: HashMap<NodeId, HashSet<KernelId>> =
            nodes.iter().map(|&n| (n, HashSet::new())).collect();
        for (rank, &p) in part_order.iter().enumerate() {
            // More parts than nodes cannot happen (parts = min(nodes,
            // kernels)), so indexing is safe.
            let node = node_order[rank.min(node_order.len() - 1)];
            out.entry(node).or_default().extend(part.kernels_in(p));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2g_graph::spec::mul_sum_example;

    fn master_with_nodes(cores: &[usize]) -> MasterNode {
        let mut m = MasterNode::new();
        for (i, &c) in cores.iter().enumerate() {
            m.report_topology(NodeSpec::multicore(NodeId(i as u32), format!("node{i}"), c));
        }
        m
    }

    #[test]
    fn plan_covers_every_kernel_exactly_once() {
        let spec = mul_sum_example();
        for nodes in 1..=4 {
            let mut m = master_with_nodes(&vec![4; nodes]);
            let plan = m.plan(&spec);
            let mut seen = HashSet::new();
            for ks in plan.values() {
                for &k in ks {
                    assert!(seen.insert(k), "kernel {k} assigned twice");
                }
            }
            assert_eq!(seen.len(), spec.kernels.len());
        }
    }

    #[test]
    fn single_node_gets_everything() {
        let spec = mul_sum_example();
        let mut m = master_with_nodes(&[8]);
        let plan = m.plan(&spec);
        assert_eq!(plan[&NodeId(0)].len(), spec.kernels.len());
    }

    #[test]
    fn replan_with_weights_changes_with_feedback() {
        let spec = mul_sum_example();
        let mut m = master_with_nodes(&[4, 4]);
        let base = m.plan(&spec);
        // Make mul2 overwhelmingly expensive: repartitioning should not
        // co-locate everything with it on one node while the other idles.
        let mul2 = spec.kernel_by_name("mul2").unwrap();
        let mut times = BTreeMap::new();
        times.insert(mul2, 10_000.0);
        let plan = m.replan(&spec, &times, &BTreeMap::new());
        let total: usize = plan.values().map(|s| s.len()).sum();
        assert_eq!(total, spec.kernels.len());
        // The heavy kernel sits alone (or near-alone) on the stronger
        // node's partition.
        let heavy_node = plan
            .iter()
            .find(|(_, ks)| ks.contains(&mul2))
            .map(|(&n, _)| n)
            .unwrap();
        assert!(plan[&heavy_node].len() <= base.values().map(|s| s.len()).max().unwrap());
    }

    #[test]
    fn topology_updates_reflected() {
        let mut m = master_with_nodes(&[2, 2]);
        assert_eq!(m.topology().len(), 2);
        m.node_left(NodeId(1));
        assert_eq!(m.topology().len(), 1);
        let plan = m.plan(&mul_sum_example());
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn last_plan_recorded() {
        let mut m = master_with_nodes(&[2]);
        assert!(m.last_plan().is_none());
        m.plan(&mul_sum_example());
        assert!(m.last_plan().is_some());
    }
}
