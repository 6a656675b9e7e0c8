//! Dynamic Bayesian networks as 2-TBNs.
//!
//! A [`Dbn`] couples an intra-slice structure ([`SliceNet`]) with temporal
//! edges from nodes of slice *t−1* to nodes of slice *t* (the paper's
//! Fig. 8 / Fig. 11 arrows). Every node carries two CPTs:
//!
//! * a **prior** CPT used in slice 0, conditioned on intra-slice parents,
//! * a **transition** CPT used in slices t ≥ 1, conditioned on intra-slice
//!   parents followed by temporal parents (in edge order).
//!
//! A static Bayesian network is simply a `Dbn` with no temporal edges,
//! evaluated slice by slice.

use rand::Rng;

use crate::cpt::Cpt;
use crate::slice::{NodeId, SliceNet};
use crate::{BayesError, Result};

/// A dynamic Bayesian network (2-TBN) with tied transition parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Dbn {
    slice: SliceNet,
    temporal: Vec<(NodeId, NodeId)>,
    prior: Vec<Cpt>,
    trans: Vec<Cpt>,
}

impl Dbn {
    /// Builds a DBN with uniform CPTs. Temporal edges must connect hidden
    /// nodes (the paper only wires non-observable nodes across slices).
    pub fn new(slice: SliceNet, temporal: Vec<(NodeId, NodeId)>) -> Result<Self> {
        slice.validate()?;
        for &(from, to) in &temporal {
            let f = slice.node(from)?;
            let t = slice.node(to)?;
            if f.observed {
                return Err(BayesError::TemporalOnObserved(from));
            }
            if t.observed {
                return Err(BayesError::TemporalOnObserved(to));
            }
        }
        let prior: Vec<Cpt> = (0..slice.len())
            .map(|id| {
                let node = &slice.nodes()[id];
                let pcards = node
                    .intra_parents
                    .iter()
                    .map(|&p| slice.nodes()[p].card)
                    .collect();
                Cpt::uniform(node.card, pcards)
            })
            .collect();
        let trans: Vec<Cpt> = (0..slice.len())
            .map(|id| {
                let node = &slice.nodes()[id];
                let mut pcards: Vec<usize> = node
                    .intra_parents
                    .iter()
                    .map(|&p| slice.nodes()[p].card)
                    .collect();
                for &(from, to) in &temporal {
                    if to == id {
                        pcards.push(slice.nodes()[from].card);
                    }
                }
                Cpt::uniform(node.card, pcards)
            })
            .collect();
        Ok(Dbn {
            slice,
            temporal,
            prior,
            trans,
        })
    }

    /// A static Bayesian network (no temporal edges).
    pub fn bn(slice: SliceNet) -> Result<Self> {
        Dbn::new(slice, Vec::new())
    }

    /// Intra-slice structure.
    pub fn slice(&self) -> &SliceNet {
        &self.slice
    }

    /// Temporal edges `(from at t-1, to at t)`.
    pub fn temporal(&self) -> &[(NodeId, NodeId)] {
        &self.temporal
    }

    /// True when the network has no temporal edges (static BN).
    pub fn is_static(&self) -> bool {
        self.temporal.is_empty()
    }

    /// Temporal parents of `node` in CPT digit order (appended after the
    /// intra-slice parents).
    pub fn temporal_parents(&self, node: NodeId) -> Vec<NodeId> {
        self.temporal
            .iter()
            .filter(|&&(_, to)| to == node)
            .map(|&(from, _)| from)
            .collect()
    }

    /// Prior (slice-0) CPT of a node.
    pub fn prior_cpt(&self, node: NodeId) -> &Cpt {
        &self.prior[node]
    }

    /// Transition (slice t ≥ 1) CPT of a node.
    pub fn trans_cpt(&self, node: NodeId) -> &Cpt {
        &self.trans[node]
    }

    /// Replaces the prior CPT of a node, checking its shape.
    pub fn set_prior_cpt(&mut self, node: NodeId, cpt: Cpt) -> Result<()> {
        self.check_shape(node, &cpt, false)?;
        self.prior[node] = cpt;
        Ok(())
    }

    /// Replaces the transition CPT of a node, checking its shape.
    pub fn set_trans_cpt(&mut self, node: NodeId, cpt: Cpt) -> Result<()> {
        self.check_shape(node, &cpt, true)?;
        self.trans[node] = cpt;
        Ok(())
    }

    /// Sets both CPTs of an evidence (or temporal-parent-free) node.
    pub fn set_cpt(&mut self, node: NodeId, cpt: Cpt) -> Result<()> {
        self.set_prior_cpt(node, cpt.clone())?;
        if self.temporal_parents(node).is_empty() {
            self.set_trans_cpt(node, cpt)?;
        }
        Ok(())
    }

    fn check_shape(&self, node: NodeId, cpt: &Cpt, with_temporal: bool) -> Result<()> {
        let def = self.slice.node(node)?;
        if cpt.card() != def.card {
            return Err(BayesError::CptShape {
                node,
                message: format!("cardinality {} != node's {}", cpt.card(), def.card),
            });
        }
        let mut expected: Vec<usize> = def
            .intra_parents
            .iter()
            .map(|&p| self.slice.nodes()[p].card)
            .collect();
        if with_temporal {
            for from in self.temporal_parents(node) {
                expected.push(self.slice.nodes()[from].card);
            }
        }
        if cpt.parent_cards() != expected.as_slice() {
            return Err(BayesError::CptShape {
                node,
                message: format!(
                    "parent cards {:?} != expected {:?}",
                    cpt.parent_cards(),
                    expected
                ),
            });
        }
        Ok(())
    }

    /// Jitters every CPT row around uniform — a common EM starting point.
    pub fn randomize(&mut self, rng: &mut impl Rng, spread: f64) {
        for id in 0..self.slice.len() {
            let node = &self.slice.nodes()[id];
            let pc: Vec<usize> = node
                .intra_parents
                .iter()
                .map(|&p| self.slice.nodes()[p].card)
                .collect();
            self.prior[id] = Cpt::random(node.card, pc.clone(), rng, spread);
            let mut tc = pc;
            for from in self.temporal_parents(id) {
                tc.push(self.slice.nodes()[from].card);
            }
            self.trans[id] = Cpt::random(node.card, tc, rng, spread);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice() -> SliceNet {
        let mut s = SliceNet::new();
        let ea = s.hidden("EA", 2, &[]);
        let en = s.hidden("EN", 2, &[ea]);
        s.observed("Ste", 2, &[en]);
        s
    }

    #[test]
    fn uniform_construction_and_shapes() {
        let d = Dbn::new(slice(), vec![(0, 0), (0, 1), (1, 1)]).unwrap();
        assert_eq!(d.prior_cpt(0).parent_cards(), &[] as &[usize]);
        assert_eq!(d.trans_cpt(0).parent_cards(), &[2]); // EA_{t-1}
        assert_eq!(d.trans_cpt(1).parent_cards(), &[2, 2, 2]); // EA_t, EA_{t-1}, EN_{t-1}
        assert_eq!(d.temporal_parents(1), vec![0, 1]);
        assert!(!d.is_static());
    }

    #[test]
    fn temporal_edges_on_observed_nodes_are_rejected() {
        assert_eq!(
            Dbn::new(slice(), vec![(2, 0)]),
            Err(BayesError::TemporalOnObserved(2))
        );
        assert_eq!(
            Dbn::new(slice(), vec![(0, 2)]),
            Err(BayesError::TemporalOnObserved(2))
        );
    }

    #[test]
    fn static_bn_has_no_temporal_parents() {
        let d = Dbn::bn(slice()).unwrap();
        assert!(d.is_static());
        assert!(d.temporal_parents(0).is_empty());
        assert_eq!(d.prior_cpt(1).parent_cards(), d.trans_cpt(1).parent_cards());
    }

    #[test]
    fn cpt_setters_check_shape() {
        let mut d = Dbn::new(slice(), vec![(0, 0)]).unwrap();
        // EA prior has no parents.
        assert!(d
            .set_prior_cpt(0, Cpt::binary(vec![], &[0.2]).unwrap())
            .is_ok());
        // EA transition has one binary temporal parent.
        assert!(d
            .set_trans_cpt(0, Cpt::binary(vec![2], &[0.1, 0.9]).unwrap())
            .is_ok());
        // Wrong shapes rejected.
        assert!(d
            .set_prior_cpt(0, Cpt::binary(vec![2], &[0.1, 0.9]).unwrap())
            .is_err());
        assert!(d
            .set_trans_cpt(0, Cpt::binary(vec![], &[0.2]).unwrap())
            .is_err());
        assert!(d.set_prior_cpt(0, Cpt::uniform(3, vec![])).is_err());
    }

    #[test]
    fn set_cpt_updates_both_for_evidence_nodes() {
        let mut d = Dbn::new(slice(), vec![(0, 0)]).unwrap();
        let cpt = Cpt::binary(vec![2], &[0.05, 0.95]).unwrap();
        d.set_cpt(2, cpt.clone()).unwrap();
        assert_eq!(d.prior_cpt(2), &cpt);
        assert_eq!(d.trans_cpt(2), &cpt);
    }

    #[test]
    fn randomize_keeps_rows_normalized() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut d = Dbn::new(slice(), vec![(0, 0), (1, 1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        d.randomize(&mut rng, 0.8);
        for id in 0..3 {
            for cfg in 0..d.trans_cpt(id).n_configs() {
                let s: f64 = d.trans_cpt(id).row(cfg).iter().sum();
                assert!((s - 1.0).abs() < 1e-9);
            }
        }
    }
}
