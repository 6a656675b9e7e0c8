//! The intra-slice structure of a network: nodes, cardinalities, parents.
//!
//! A [`SliceNet`] describes one time slice of a DBN (or an entire static
//! BN). Nodes are *hidden* or *observed*; observed nodes are the shaded
//! evidence nodes of the paper's Fig. 7 and Fig. 10 and receive feature
//! values as (soft) evidence.

use crate::{BayesError, Result};

/// Index of a node within its slice.
pub type NodeId = usize;

/// One node of a slice.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceNode {
    /// Human-readable name ("EA", "SteAvg", …).
    pub name: String,
    /// Number of discrete states (2 for every node in the paper).
    pub card: usize,
    /// Parents within the same slice, in CPT digit order.
    pub intra_parents: Vec<NodeId>,
    /// True for evidence nodes.
    pub observed: bool,
}

/// The intra-slice structure.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SliceNet {
    nodes: Vec<SliceNode>,
}

impl SliceNet {
    /// An empty slice.
    pub fn new() -> Self {
        SliceNet::default()
    }

    /// Adds a hidden node and returns its id.
    pub fn hidden(&mut self, name: &str, card: usize, intra_parents: &[NodeId]) -> NodeId {
        self.push(name, card, intra_parents, false)
    }

    /// Adds an observed (evidence) node and returns its id.
    pub fn observed(&mut self, name: &str, card: usize, intra_parents: &[NodeId]) -> NodeId {
        self.push(name, card, intra_parents, true)
    }

    fn push(
        &mut self,
        name: &str,
        card: usize,
        intra_parents: &[NodeId],
        observed: bool,
    ) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(SliceNode {
            name: name.to_string(),
            card,
            intra_parents: intra_parents.to_vec(),
            observed,
        });
        id
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[SliceNode] {
        &self.nodes
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> Result<&SliceNode> {
        self.nodes.get(id).ok_or(BayesError::UnknownNode(id))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the slice has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Id of the node with the given name.
    pub fn id_of(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Ids of hidden nodes, ascending.
    pub fn hidden_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].observed)
            .collect()
    }

    /// Ids of observed nodes, ascending.
    pub fn observed_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].observed)
            .collect()
    }

    /// Checks parent references and acyclicity of the intra-slice graph,
    /// returning a topological order.
    pub fn validate(&self) -> Result<Vec<NodeId>> {
        let n = self.nodes.len();
        for node in &self.nodes {
            for &p in &node.intra_parents {
                if p >= n {
                    return Err(BayesError::UnknownNode(p));
                }
            }
        }
        // Kahn's algorithm over parent → child edges.
        let mut indegree = vec![0usize; n];
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (id, node) in self.nodes.iter().enumerate() {
            indegree[id] = node.intra_parents.len();
            for &p in &node.intra_parents {
                children[p].push(id);
            }
        }
        let mut queue: Vec<NodeId> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = queue.pop() {
            order.push(id);
            for &c in &children[id] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    queue.push(c);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(BayesError::Cyclic)
        }
    }

    /// Observed nodes that act as an intra-slice parent of some node.
    /// Their evidence is *hardened* (argmax) before inference because they
    /// condition other CPTs — see the engine documentation.
    pub fn core_observed(&self) -> Vec<NodeId> {
        let mut is_parent = vec![false; self.nodes.len()];
        for node in &self.nodes {
            for &p in &node.intra_parents {
                is_parent[p] = true;
            }
        }
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].observed && is_parent[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SliceNet {
        // EA -> EN -> SteAvg(observed); EA -> Kw(observed)
        let mut s = SliceNet::new();
        let ea = s.hidden("EA", 2, &[]);
        let en = s.hidden("EN", 2, &[ea]);
        s.observed("SteAvg", 2, &[en]);
        s.observed("Kw", 2, &[ea]);
        s
    }

    #[test]
    fn ids_and_names_round_trip() {
        let s = tiny();
        assert_eq!(s.len(), 4);
        assert_eq!(s.id_of("EN"), Some(1));
        assert_eq!(s.id_of("nope"), None);
        assert_eq!(s.node(1).unwrap().name, "EN");
        assert!(s.node(9).is_err());
    }

    #[test]
    fn hidden_and_observed_partition() {
        let s = tiny();
        assert_eq!(s.hidden_ids(), vec![0, 1]);
        assert_eq!(s.observed_ids(), vec![2, 3]);
    }

    #[test]
    fn validate_returns_topological_order() {
        let s = tiny();
        let order = s.validate().unwrap();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn cycles_are_rejected() {
        let mut s = SliceNet::new();
        let a = s.hidden("A", 2, &[1]); // forward reference to B
        let _b = s.hidden("B", 2, &[a]);
        assert_eq!(s.validate(), Err(BayesError::Cyclic));
    }

    #[test]
    fn dangling_parent_is_rejected() {
        let mut s = SliceNet::new();
        s.hidden("A", 2, &[5]);
        assert!(matches!(s.validate(), Err(BayesError::UnknownNode(5))));
    }

    #[test]
    fn core_observed_detects_evidence_parents() {
        // Structure (b) of Fig. 7: evidence nodes are parents of the query.
        let mut s = SliceNet::new();
        let kw = s.observed("Kw", 2, &[]);
        let ste = s.observed("Ste", 2, &[]);
        s.hidden("EA", 2, &[kw, ste]);
        assert_eq!(s.core_observed(), vec![0, 1]);
        // Leaf evidence is not core.
        assert!(tiny().core_observed().is_empty());
    }
}
