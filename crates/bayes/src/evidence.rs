//! Evidence sequences: how feature values enter the network.
//!
//! The paper's features are "represented as probabilistic values in range
//! from zero to one" at a 0.1 s clip rate (§5.5). A value `p` for a binary
//! evidence node becomes the *virtual evidence* likelihood `[1-p, p]` —
//! Pearl's virtual-evidence construction. Ground-truth clamping during
//! (partially) supervised learning uses hard evidence on a hidden node.

use std::collections::HashMap;

use crate::slice::NodeId;
use crate::{BayesError, Result};

/// One node's observation at one slice.
#[derive(Debug, Clone, PartialEq)]
pub enum Obs {
    /// The node is observed in exactly this state.
    Hard(usize),
    /// Likelihood vector over the node's states (virtual evidence).
    Soft(Vec<f64>),
}

impl Obs {
    /// Virtual evidence for a binary node from a `[0, 1]` feature value.
    pub fn from_prob(p: f64) -> Obs {
        let p = p.clamp(0.0, 1.0);
        Obs::Soft(vec![1.0 - p, p])
    }

    /// The likelihood this observation assigns to `state` of a node with
    /// `card` states.
    pub fn likelihood(&self, state: usize, card: usize) -> f64 {
        match self {
            Obs::Hard(s) => {
                if *s == state {
                    1.0
                } else {
                    0.0
                }
            }
            Obs::Soft(lik) => {
                debug_assert_eq!(lik.len(), card);
                lik.get(state).copied().unwrap_or(0.0)
            }
        }
    }

    /// The most likely state under this observation.
    pub fn argmax(&self, card: usize) -> usize {
        match self {
            Obs::Hard(s) => *s,
            Obs::Soft(lik) => {
                debug_assert_eq!(lik.len(), card);
                lik.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            }
        }
    }

    /// Validates the observation against a node cardinality.
    pub fn validate(&self, node: NodeId, card: usize) -> Result<()> {
        match self {
            Obs::Hard(s) => {
                if *s < card {
                    Ok(())
                } else {
                    Err(BayesError::EvidenceShape {
                        node,
                        expected: card,
                        found: *s + 1,
                    })
                }
            }
            Obs::Soft(lik) => {
                if lik.len() != card {
                    return Err(BayesError::EvidenceShape {
                        node,
                        expected: card,
                        found: lik.len(),
                    });
                }
                if lik.iter().any(|v| *v < 0.0) || lik.iter().all(|v| *v == 0.0) {
                    return Err(BayesError::Numerical(format!(
                        "likelihood for node {node} must be non-negative and not all zero"
                    )));
                }
                Ok(())
            }
        }
    }
}

/// Evidence for a whole sequence: one observation map per slice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvidenceSeq {
    slices: Vec<HashMap<NodeId, Obs>>,
}

impl EvidenceSeq {
    /// An empty sequence of `len` slices.
    pub fn new(len: usize) -> Self {
        EvidenceSeq {
            slices: vec![HashMap::new(); len],
        }
    }

    /// Number of slices.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// True when the sequence has no slices.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Sets an observation.
    pub fn set(&mut self, t: usize, node: NodeId, obs: Obs) {
        self.slices[t].insert(node, obs);
    }

    /// Convenience: soft evidence from a `[0, 1]` value on a binary node.
    pub fn set_prob(&mut self, t: usize, node: NodeId, p: f64) {
        self.set(t, node, Obs::from_prob(p));
    }

    /// Observation of `node` at slice `t`, if any.
    pub fn get(&self, t: usize, node: NodeId) -> Option<&Obs> {
        self.slices.get(t).and_then(|m| m.get(&node))
    }

    /// Builds a sequence from a dense feature matrix: `features[t][k]` is
    /// the `[0, 1]` value of `nodes[k]` at slice `t`.
    pub fn from_matrix(nodes: &[NodeId], features: &[Vec<f64>]) -> Self {
        let mut seq = EvidenceSeq::new(features.len());
        for (t, row) in features.iter().enumerate() {
            for (k, &node) in nodes.iter().enumerate() {
                if let Some(&p) = row.get(k) {
                    seq.set_prob(t, node, p);
                }
            }
        }
        seq
    }

    /// Splits the sequence into consecutive segments of `seg_len` slices,
    /// dropping a final partial segment — how the paper cuts its 300 s
    /// training sequence into 12 × 25 s segments.
    pub fn segments(&self, seg_len: usize) -> Vec<EvidenceSeq> {
        assert!(seg_len > 0, "segment length must be positive");
        let mut out = Vec::new();
        let mut i = 0;
        while i + seg_len <= self.slices.len() {
            out.push(EvidenceSeq {
                slices: self.slices[i..i + seg_len].to_vec(),
            });
            i += seg_len;
        }
        out
    }

    /// Sub-sequence of slices `lo..hi` (clamped).
    pub fn window(&self, lo: usize, hi: usize) -> EvidenceSeq {
        let hi = hi.min(self.slices.len());
        let lo = lo.min(hi);
        EvidenceSeq {
            slices: self.slices[lo..hi].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_prob_builds_virtual_evidence() {
        let obs = Obs::from_prob(0.7);
        assert!((obs.likelihood(1, 2) - 0.7).abs() < 1e-12);
        assert!((obs.likelihood(0, 2) - 0.3).abs() < 1e-12);
        assert_eq!(obs.argmax(2), 1);
        // Values are clamped.
        assert_eq!(Obs::from_prob(1.4), Obs::Soft(vec![0.0, 1.0]));
    }

    #[test]
    fn hard_evidence_is_a_delta() {
        let obs = Obs::Hard(1);
        assert_eq!(obs.likelihood(1, 3), 1.0);
        assert_eq!(obs.likelihood(2, 3), 0.0);
        assert_eq!(obs.argmax(3), 1);
    }

    #[test]
    fn validation_catches_shape_errors() {
        assert!(Obs::Hard(2).validate(0, 2).is_err());
        assert!(Obs::Soft(vec![0.5]).validate(0, 2).is_err());
        assert!(Obs::Soft(vec![0.0, 0.0]).validate(0, 2).is_err());
        assert!(Obs::Soft(vec![-0.1, 1.0]).validate(0, 2).is_err());
        assert!(Obs::Soft(vec![0.2, 0.8]).validate(0, 2).is_ok());
    }

    #[test]
    fn matrix_construction_and_access() {
        let features = vec![vec![0.1, 0.9], vec![0.5, 0.4]];
        let seq = EvidenceSeq::from_matrix(&[3, 5], &features);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq.get(0, 5), Some(&Obs::Soft(vec![1.0 - 0.9, 0.9])));
        assert_eq!(seq.get(1, 3), Some(&Obs::Soft(vec![0.5, 0.5])));
        assert_eq!(seq.get(0, 7), None);
    }

    #[test]
    fn segments_drop_partial_tail() {
        let seq = EvidenceSeq::new(10);
        let segs = seq.segments(3);
        assert_eq!(segs.len(), 3);
        assert!(segs.iter().all(|s| s.len() == 3));
    }

    #[test]
    fn window_clamps() {
        let seq = EvidenceSeq::new(5);
        assert_eq!(seq.window(2, 100).len(), 3);
        assert_eq!(seq.window(4, 2).len(), 0);
    }
}
