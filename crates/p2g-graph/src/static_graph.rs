//! The implicit static dependency graphs of the paper's Figures 2 and 3.
//!
//! The *intermediate* graph is bipartite: kernels and fields are vertices,
//! `store` statements are kernel→field edges, `fetch` statements are
//! field→kernel edges. Merging each field vertex into direct kernel→kernel
//! edges yields the *final* graph the high-level scheduler partitions.

use std::collections::BTreeMap;

use p2g_field::FieldId;

use crate::spec::{KernelId, ProgramSpec};

/// A vertex of the intermediate graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IntermediateNode {
    Kernel(KernelId),
    Field(FieldId),
}

/// The intermediate implicit static dependency graph (paper Figure 2).
#[derive(Debug, Clone)]
pub struct IntermediateGraph {
    /// kernel → field edges (store statements), with the store index.
    pub stores: Vec<(KernelId, FieldId)>,
    /// field → kernel edges (fetch statements), with the fetch index.
    pub fetches: Vec<(FieldId, KernelId)>,
}

impl IntermediateGraph {
    /// Derive from a program spec — purely from fetch/store statements, as
    /// the paper's HLS does.
    pub fn from_spec(spec: &ProgramSpec) -> IntermediateGraph {
        let mut stores = Vec::new();
        let mut fetches = Vec::new();
        for k in &spec.kernels {
            for s in &k.stores {
                stores.push((k.id, s.field));
            }
            for f in &k.fetches {
                fetches.push((f.field, k.id));
            }
        }
        stores.sort_unstable();
        stores.dedup();
        fetches.sort_unstable();
        fetches.dedup();
        IntermediateGraph { stores, fetches }
    }

    /// All vertices present in the graph.
    pub fn nodes(&self) -> Vec<IntermediateNode> {
        let mut out: Vec<IntermediateNode> = self
            .stores
            .iter()
            .flat_map(|&(k, f)| [IntermediateNode::Kernel(k), IntermediateNode::Field(f)])
            .chain(
                self.fetches
                    .iter()
                    .flat_map(|&(f, k)| [IntermediateNode::Field(f), IntermediateNode::Kernel(k)]),
            )
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Graphviz dot rendering (kernels as boxes, fields as ellipses); handy
    /// for debugging workloads, mirrors Figure 2.
    pub fn to_dot(&self, spec: &ProgramSpec) -> String {
        let mut s = String::from("digraph intermediate {\n");
        for node in self.nodes() {
            match node {
                IntermediateNode::Kernel(k) => {
                    s += &format!(
                        "  k{} [shape=box,label=\"{}\"];\n",
                        k.0,
                        spec.kernel(k).name
                    );
                }
                IntermediateNode::Field(f) => {
                    s += &format!(
                        "  f{} [shape=ellipse,label=\"{}\"];\n",
                        f.0,
                        spec.field(f).name
                    );
                }
            }
        }
        for &(k, f) in &self.stores {
            s += &format!("  k{} -> f{};\n", k.0, f.0);
        }
        for &(f, k) in &self.fetches {
            s += &format!("  f{} -> k{};\n", f.0, k.0);
        }
        s += "}\n";
        s
    }
}

/// A weighted kernel→kernel edge of the final graph: `via` is the field the
/// data flows through; `weight` estimates communication volume and is
/// updated from instrumentation during repartitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct FinalEdge {
    pub from: KernelId,
    pub to: KernelId,
    pub via: FieldId,
    pub weight: f64,
}

/// The final implicit static dependency graph (paper Figure 3): field
/// vertices merged away, kernels carry computation weights.
#[derive(Debug, Clone)]
pub struct FinalGraph {
    /// One weight per kernel (indexed by `KernelId::idx`); defaults to 1.0,
    /// updated with measured kernel time by the instrumentation feedback
    /// loop.
    pub kernel_weights: Vec<f64>,
    pub edges: Vec<FinalEdge>,
}

impl FinalGraph {
    /// Derive from the intermediate graph by merging field vertices.
    fn from_intermediate(spec: &ProgramSpec, ig: &IntermediateGraph) -> FinalGraph {
        let mut edges = Vec::new();
        for &(producer, field) in &ig.stores {
            for &(f2, consumer) in &ig.fetches {
                if f2 == field {
                    edges.push(FinalEdge {
                        from: producer,
                        to: consumer,
                        via: field,
                        weight: 1.0,
                    });
                }
            }
        }
        FinalGraph {
            kernel_weights: vec![1.0; spec.kernels.len()],
            edges,
        }
    }

    /// Derive directly from a spec.
    pub fn from_spec(spec: &ProgramSpec) -> FinalGraph {
        FinalGraph::from_intermediate(spec, &IntermediateGraph::from_spec(spec))
    }

    /// Number of kernels.
    pub fn len(&self) -> usize {
        self.kernel_weights.len()
    }

    /// True when the graph has no kernels.
    pub fn is_empty(&self) -> bool {
        self.kernel_weights.is_empty()
    }

    /// Apply instrumentation feedback: set kernel weights to measured mean
    /// kernel time and edge weights to measured transfer volume. Missing
    /// entries keep their previous weights.
    pub fn apply_weights(
        &mut self,
        kernel_time: &BTreeMap<KernelId, f64>,
        edge_volume: &BTreeMap<(KernelId, KernelId), f64>,
    ) {
        for (k, w) in kernel_time {
            if k.idx() < self.kernel_weights.len() {
                self.kernel_weights[k.idx()] = *w;
            }
        }
        for e in &mut self.edges {
            if let Some(v) = edge_volume.get(&(e.from, e.to)) {
                e.weight = *v;
            }
        }
    }

    /// Total weight of edges crossing between two kernel sets, used as the
    /// partitioning objective (communication minimization).
    pub fn cut_weight(&self, assignment: &[usize]) -> f64 {
        self.edges
            .iter()
            .filter(|e| assignment[e.from.idx()] != assignment[e.to.idx()])
            .map(|e| e.weight)
            .sum()
    }

    /// Graphviz rendering of the final graph (Figure 3).
    pub fn to_dot(&self, spec: &ProgramSpec) -> String {
        let mut s = String::from("digraph final {\n");
        for k in &spec.kernels {
            s += &format!(
                "  k{} [shape=box,label=\"{} ({:.1})\"];\n",
                k.id.0,
                k.name,
                self.kernel_weights[k.id.idx()]
            );
        }
        for e in &self.edges {
            s += &format!(
                "  k{} -> k{} [label=\"{} ({:.1})\"];\n",
                e.from.0,
                e.to.0,
                spec.field(e.via).name,
                e.weight
            );
        }
        s += "}\n";
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::mul_sum_example;

    #[test]
    fn intermediate_graph_shape() {
        let spec = mul_sum_example();
        let ig = IntermediateGraph::from_spec(&spec);
        // init→m_data, mul2→p_data, plus5→m_data
        assert_eq!(ig.stores.len(), 3);
        // m_data→mul2, m_data→print, p_data→plus5, p_data→print
        assert_eq!(ig.fetches.len(), 4);
        assert_eq!(ig.nodes().len(), 6); // 4 kernels + 2 fields
    }

    #[test]
    fn final_graph_merges_fields() {
        let spec = mul_sum_example();
        let fg = FinalGraph::from_spec(&spec);
        let init = spec.kernel_by_name("init").unwrap();
        let mul2 = spec.kernel_by_name("mul2").unwrap();
        let plus5 = spec.kernel_by_name("plus5").unwrap();
        let print = spec.kernel_by_name("print").unwrap();
        // Figure 3's edges: init→mul2, init→print, mul2→plus5, mul2→print,
        // plus5→mul2, plus5→print.
        let mut pairs: Vec<(KernelId, KernelId)> =
            fg.edges.iter().map(|e| (e.from, e.to)).collect();
        pairs.sort_unstable();
        let mut want = vec![
            (init, mul2),
            (init, print),
            (mul2, plus5),
            (mul2, print),
            (plus5, mul2),
            (plus5, print),
        ];
        want.sort_unstable();
        assert_eq!(pairs, want);
    }

    #[test]
    fn cut_weight_counts_crossing_edges() {
        let spec = mul_sum_example();
        let fg = FinalGraph::from_spec(&spec);
        // Everything in one part: zero cut.
        assert_eq!(fg.cut_weight(&[0, 0, 0, 0]), 0.0);
        // All kernels separated: all 6 edges cut (weight 1 each).
        assert_eq!(fg.cut_weight(&[0, 1, 2, 3]), 6.0);
    }

    #[test]
    fn apply_weights_updates() {
        let spec = mul_sum_example();
        let mut fg = FinalGraph::from_spec(&spec);
        let mul2 = spec.kernel_by_name("mul2").unwrap();
        let plus5 = spec.kernel_by_name("plus5").unwrap();
        let mut kt = BTreeMap::new();
        kt.insert(mul2, 42.0);
        let mut ev = BTreeMap::new();
        ev.insert((mul2, plus5), 9.0);
        fg.apply_weights(&kt, &ev);
        assert_eq!(fg.kernel_weights[mul2.idx()], 42.0);
        assert!(fg
            .edges
            .iter()
            .any(|e| e.from == mul2 && e.to == plus5 && e.weight == 9.0));
    }

    #[test]
    fn dot_output_mentions_names() {
        let spec = mul_sum_example();
        let ig = IntermediateGraph::from_spec(&spec);
        let dot = ig.to_dot(&spec);
        assert!(dot.contains("mul2") && dot.contains("m_data"));
        let fg = FinalGraph::from_spec(&spec);
        let dot = fg.to_dot(&spec);
        assert!(dot.contains("plus5") && dot.contains("->"));
    }
}
