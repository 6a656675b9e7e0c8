//! # f1-bayes — Bayesian and dynamic Bayesian networks
//!
//! The probabilistic-fusion substrate of the Cobra VDBMS reproduction
//! (paper §4 and §5.5). The paper's DBN extension delegated to Matlab; this
//! crate implements the same machinery natively:
//!
//! * discrete **Bayesian networks** over small node sets ([`slice::SliceNet`]),
//! * **dynamic Bayesian networks** as 2-TBNs: an intra-slice structure plus
//!   temporal edges between consecutive slices ([`dbn::Dbn`]),
//! * **soft (virtual) evidence**: the audio-visual features arrive as
//!   probabilistic values in `[0, 1]` and enter the network as likelihood
//!   vectors ([`evidence`]),
//! * **filtering and smoothing** over the joint hidden state, with the
//!   **modified Boyen–Koller projection** onto a configurable cluster
//!   partition between steps — one single cluster reproduces the paper's
//!   "exact" configuration ([`engine`], [`bk`]),
//! * **Expectation-Maximization** parameter learning with hidden nodes and
//!   tied (time-invariant) transition parameters ([`em`]),
//! * the paper's concrete **network structures**: the three BN slice
//!   structures of Fig. 7, the temporal-dependency variants of Fig. 8 and
//!   §5.5, and the audio-visual highlight network of Fig. 10/11
//!   ([`paper`]),
//! * **evaluation metrics**: thresholded minimum-duration segment
//!   extraction, the output accumulation the paper applies to static BN
//!   traces, precision/recall against ground-truth intervals, and the
//!   roughness statistic used to discuss Fig. 9 ([`metrics`]).
//!
//! The inference engine enumerates the joint state of the *hidden* nodes of
//! one slice (the paper's networks have 1–6 hidden binary nodes, so ≤ 64
//! joint states) and treats evidence nodes analytically, which makes exact
//! filtering, smoothing and EM cheap while leaving the Boyen–Koller cluster
//! projection available for the paper's clustering experiment.

pub mod bk;
pub mod cpt;
pub mod dbn;
pub mod em;
pub mod engine;
pub mod evidence;
pub mod metrics;
pub mod paper;
pub mod slice;

pub use cpt::Cpt;
pub use dbn::Dbn;
pub use em::{EmConfig, EmReport};
pub use engine::{Engine, Posteriors};
pub use evidence::{EvidenceSeq, Obs};
pub use metrics::{PrecisionRecall, Segment};
pub use slice::{NodeId, SliceNet, SliceNode};

/// Errors raised while building or running networks.
#[derive(Debug, Clone, PartialEq)]
pub enum BayesError {
    /// A node id referenced a node that does not exist.
    UnknownNode(usize),
    /// The intra-slice structure contains a directed cycle.
    Cyclic,
    /// A CPT does not match its node's cardinality or parent configuration.
    CptShape {
        /// Node whose CPT is malformed.
        node: usize,
        /// Description of the mismatch.
        message: String,
    },
    /// A temporal edge touches an observed node (temporal edges must
    /// connect hidden nodes).
    TemporalOnObserved(usize),
    /// An observed node that acts as a parent received no usable evidence.
    MissingHardEvidence {
        /// The offending node.
        node: usize,
        /// Slice index.
        t: usize,
    },
    /// Evidence vector length differs from node cardinality.
    EvidenceShape {
        /// The offending node.
        node: usize,
        /// Expected cardinality.
        expected: usize,
        /// Provided likelihood length.
        found: usize,
    },
    /// An empty sequence was passed where at least one slice is required.
    EmptySequence,
    /// A slice index past the end of its evidence sequence.
    SliceOutOfRange {
        /// The requested slice.
        t: usize,
        /// The sequence's length.
        len: usize,
    },
    /// A cluster partition does not cover the hidden nodes exactly once.
    BadClusters(String),
    /// Numerical failure (all-zero message, impossible evidence).
    Numerical(String),
    /// EM produced a non-finite log-likelihood: the parameters diverged
    /// (or an injected fault aborted the iteration).
    EmDiverged {
        /// Zero-based iteration at which the failure was detected.
        iteration: usize,
        /// What went wrong.
        message: String,
    },
    /// EM failed to reach its tolerance within `max_iters` (only raised
    /// by [`em::train_converged`]; plain [`em::train`] reports this
    /// through [`EmReport::converged`](em::EmReport)).
    EmNotConverged {
        /// Iterations actually run.
        iterations: usize,
    },
}

impl std::fmt::Display for BayesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BayesError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            BayesError::Cyclic => write!(f, "intra-slice structure is cyclic"),
            BayesError::CptShape { node, message } => {
                write!(f, "CPT shape mismatch on node {node}: {message}")
            }
            BayesError::TemporalOnObserved(id) => {
                write!(f, "temporal edge touches observed node {id}")
            }
            BayesError::MissingHardEvidence { node, t } => {
                write!(f, "node {node} needs hard evidence at slice {t}")
            }
            BayesError::EvidenceShape {
                node,
                expected,
                found,
            } => write!(
                f,
                "evidence for node {node} has length {found}, expected {expected}"
            ),
            BayesError::EmptySequence => write!(f, "empty evidence sequence"),
            BayesError::SliceOutOfRange { t, len } => {
                write!(
                    f,
                    "slice {t} is out of range for a sequence of {len} slices"
                )
            }
            BayesError::BadClusters(msg) => write!(f, "bad cluster partition: {msg}"),
            BayesError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            BayesError::EmDiverged { iteration, message } => {
                write!(f, "EM diverged at iteration {iteration}: {message}")
            }
            BayesError::EmNotConverged { iterations } => {
                write!(f, "EM did not converge within {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for BayesError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, BayesError>;
