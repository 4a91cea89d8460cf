//! Resource topology: what execution nodes report to the master node.
//!
//! Each execution node reports its local topology (cores, accelerators,
//! memory); the master combines these with interconnect links into a global
//! topology that the HLS consults when sizing partitions (paper Figure 1 and
//! Section IV). Nodes may join and leave at runtime.

use std::collections::BTreeMap;

/// Identifies an execution node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The local topology one execution node reports.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    pub id: NodeId,
    /// Hostname or label, for reports.
    pub name: String,
    /// Worker cores available for kernel execution.
    pub cores: usize,
}

impl NodeSpec {
    /// A plain multi-core node.
    pub fn multicore(id: NodeId, name: impl Into<String>, cores: usize) -> NodeSpec {
        NodeSpec {
            id,
            name: name.into(),
            cores,
        }
    }
}

/// An interconnect between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    pub a: NodeId,
    pub b: NodeId,
    pub latency_us: u64,
    pub bandwidth_mbps: u64,
}

/// The global topology the master node maintains.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: BTreeMap<NodeId, NodeSpec>,
    links: Vec<LinkSpec>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Register (or update) a node — execution nodes report their local
    /// topology on joining.
    pub fn add_node(&mut self, spec: NodeSpec) {
        self.nodes.insert(spec.id, spec);
    }

    /// Remove a node that left the cluster; its links are dropped too.
    pub fn remove_node(&mut self, id: NodeId) -> Option<NodeSpec> {
        self.links.retain(|l| l.a != id && l.b != id);
        self.nodes.remove(&id)
    }

    /// Declare a link between two registered nodes.
    pub fn add_link(&mut self, link: LinkSpec) {
        assert!(
            self.nodes.contains_key(&link.a) && self.nodes.contains_key(&link.b),
            "links must connect registered nodes"
        );
        self.links.push(link);
    }

    /// All registered nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeSpec> {
        self.nodes.values()
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> Option<&NodeSpec> {
        self.nodes.get(&id)
    }

    /// The link between two nodes, if declared (order-insensitive).
    pub fn link(&self, a: NodeId, b: NodeId) -> Option<&LinkSpec> {
        self.links
            .iter()
            .find(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
    }

    /// Total worker cores across the cluster.
    pub fn total_cores(&self) -> usize {
        self.nodes.values().map(|n| n.cores).sum()
    }

    /// Per-node compute share (cores / total), the HLS's target load
    /// distribution when sizing partitions.
    pub fn compute_shares(&self) -> Vec<(NodeId, f64)> {
        let total = self.total_cores().max(1) as f64;
        self.nodes
            .values()
            .map(|n| (n.id, n.cores as f64 / total))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_nodes() {
        let mut t = Topology::new();
        t.add_node(NodeSpec::multicore(NodeId(0), "i7", 8));
        t.add_node(NodeSpec::multicore(NodeId(1), "opteron", 8));
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_cores(), 16);
        assert_eq!(t.node(NodeId(0)).unwrap().name, "i7");
    }

    #[test]
    fn links_order_insensitive() {
        let mut t = Topology::new();
        t.add_node(NodeSpec::multicore(NodeId(0), "a", 4));
        t.add_node(NodeSpec::multicore(NodeId(1), "b", 4));
        t.add_link(LinkSpec {
            a: NodeId(0),
            b: NodeId(1),
            latency_us: 100,
            bandwidth_mbps: 1000,
        });
        assert!(t.link(NodeId(1), NodeId(0)).is_some());
        assert!(t.link(NodeId(0), NodeId(0)).is_none());
    }

    #[test]
    fn remove_node_drops_links() {
        let mut t = Topology::new();
        t.add_node(NodeSpec::multicore(NodeId(0), "a", 4));
        t.add_node(NodeSpec::multicore(NodeId(1), "b", 4));
        t.add_link(LinkSpec {
            a: NodeId(0),
            b: NodeId(1),
            latency_us: 1,
            bandwidth_mbps: 1,
        });
        assert!(t.remove_node(NodeId(1)).is_some());
        assert!(t.link(NodeId(0), NodeId(1)).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn compute_shares_sum_to_one() {
        let mut t = Topology::new();
        t.add_node(NodeSpec::multicore(NodeId(0), "a", 2));
        t.add_node(NodeSpec::multicore(NodeId(1), "b", 6));
        let shares = t.compute_shares();
        let total: f64 = shares.iter().map(|&(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(shares[1].1, 0.75);
    }

    #[test]
    fn node_update_overwrites() {
        let mut t = Topology::new();
        t.add_node(NodeSpec::multicore(NodeId(0), "a", 2));
        t.add_node(NodeSpec::multicore(NodeId(0), "a", 16));
        assert_eq!(t.total_cores(), 16);
        assert_eq!(t.len(), 1);
    }
}
