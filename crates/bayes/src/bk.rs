//! Boyen–Koller cluster partitions.
//!
//! Boyen & Koller (UAI'98, the paper's [21]) approximate the belief state
//! of a DBN by a product of marginals over disjoint *clusters* of nodes.
//! The projection itself is the last part of the engine's forward step
//! ([`crate::engine::Engine::filter`] with clusters); this module provides
//! the partitions the paper experiments with:
//!
//! * **one cluster containing every hidden node** — no information is lost;
//!   this is the configuration the paper calls *"exact" inference and
//!   learning* ("we considered all nodes from one time slice as belonging
//!   to the same cluster"),
//! * **query node separated from the rest** — the clustering proposed by
//!   Boyen and Koller that the paper evaluates and finds to misclassify
//!   more sequences,
//! * **fully factored** — every hidden node its own cluster, the cheapest
//!   and loosest approximation.

use crate::dbn::Dbn;
use crate::slice::NodeId;
use crate::{BayesError, Result};

/// A partition of the hidden nodes used by the Boyen–Koller projection.
#[derive(Debug, Clone, PartialEq)]
pub struct Clusters(pub Vec<Vec<NodeId>>);

impl Clusters {
    /// All hidden nodes in a single cluster ("exact").
    pub fn single(dbn: &Dbn) -> Self {
        Clusters(vec![dbn.slice().hidden_ids()])
    }

    /// Every hidden node in its own cluster (fully factored).
    pub fn singletons(dbn: &Dbn) -> Self {
        Clusters(
            dbn.slice()
                .hidden_ids()
                .into_iter()
                .map(|id| vec![id])
                .collect(),
        )
    }

    /// Separates the named nodes into their own cluster, the remaining
    /// hidden nodes forming the other — the paper's clustering experiment
    /// (query node vs the other non-observable nodes).
    pub fn separate(dbn: &Dbn, names: &[&str]) -> Result<Self> {
        let mut special = Vec::new();
        for name in names {
            let id = dbn
                .slice()
                .id_of(name)
                .ok_or_else(|| BayesError::BadClusters(format!("no node named '{name}'")))?;
            if dbn.slice().nodes()[id].observed {
                return Err(BayesError::BadClusters(format!(
                    "node '{name}' is observed"
                )));
            }
            special.push(id);
        }
        let rest: Vec<NodeId> = dbn
            .slice()
            .hidden_ids()
            .into_iter()
            .filter(|id| !special.contains(id))
            .collect();
        let mut clusters = vec![special];
        if !rest.is_empty() {
            clusters.push(rest);
        }
        Ok(Clusters(clusters))
    }

    /// The underlying partition.
    pub fn as_slices(&self) -> &[Vec<NodeId>] {
        &self.0
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::SliceNet;

    fn dbn() -> Dbn {
        let mut s = SliceNet::new();
        let ea = s.hidden("EA", 2, &[]);
        let en = s.hidden("EN", 2, &[ea]);
        let pi = s.hidden("PI", 2, &[ea]);
        s.observed("Ste", 2, &[en]);
        Dbn::new(s, vec![(ea, ea), (en, en), (pi, pi)]).unwrap()
    }

    #[test]
    fn single_covers_all_hidden() {
        let d = dbn();
        let c = Clusters::single(&d);
        assert_eq!(c.len(), 1);
        assert_eq!(c.as_slices()[0], vec![0, 1, 2]);
    }

    #[test]
    fn singletons_split_everything() {
        let d = dbn();
        let c = Clusters::singletons(&d);
        assert_eq!(c.len(), 3);
        assert!(c.as_slices().iter().all(|cl| cl.len() == 1));
    }

    #[test]
    fn separate_builds_two_clusters() {
        let d = dbn();
        let c = Clusters::separate(&d, &["EA"]).unwrap();
        assert_eq!(c.as_slices(), &[vec![0], vec![1, 2]]);
    }

    #[test]
    fn separate_rejects_unknown_and_observed() {
        let d = dbn();
        assert!(Clusters::separate(&d, &["nope"]).is_err());
        assert!(Clusters::separate(&d, &["Ste"]).is_err());
    }
}
