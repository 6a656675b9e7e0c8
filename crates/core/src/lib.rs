//! # f1-cobra — the Cobra video database management system
//!
//! The integration layer of the reproduction: everything the paper's
//! Fig. 1/Fig. 2 describe, assembled from the substrate crates.
//!
//! * **Cobra video data model** — four content layers (raw data, feature,
//!   object, event), stored as metadata in the Monet kernel's BATs
//!   ([`catalog`]).
//! * **Extensions at all levels** — the DBN extension is a MEL module
//!   whose procedures run inference against catalog feature BATs
//!   ([`extensions::DbnModule`]); the HMM extension comes from
//!   `f1_hmm::mel`; the rule extension derives compound events.
//! * **Query pre-processor** — checks metadata availability and invokes
//!   feature/semantic extraction: ingestion, of a whole broadcast or of
//!   one streamed window, runs the one feature extractor once and
//!   returns its error typed; sending the window again is the retry
//!   ([`Vdbms::ingest`], [`Vdbms::ingest_chunk`]). The Moa planner's
//!   measured per-opcode cost model chooses how a query runs.
//! * **Content-based retrieval** — the §5.6 query set over a small
//!   retrieval language ([`query`]), combining DBN event detection with
//!   recognized superimposed text ([`Vdbms::run`]). Every cached answer
//!   and standing query, on a server or a router, is guarded by one
//!   rule: what its stages read against what commits changed
//!   ([`guard`]).
//!
//! [`Vdbms`] ([`session`]) is the facade; its ingest, annotate and
//! retrieve steps live in one private module each.

mod annotate;
pub mod cache;
pub mod catalog;
pub mod extensions;
pub mod guard;
mod ingest;
pub mod json;
pub mod query;
mod retrieve;
pub mod session;

pub use annotate::{query_truth, training_windows, Annotator, LevelScore, TrainQuery};
pub use cache::{CachedResult, CompiledPlan, PlanCache, PreparedPlan, ResultCache, Stamp};
pub use catalog::Catalog;
pub use cobra_store::{CheckpointOutcome, FsyncPolicy, StoreConfig, StoreStats};
pub use query::{parse_query, parse_statement, Query, RetrievedSegment, Statement};
pub use session::{
    Answer, Answered, IngestReport, QueryOutput, QueryProfile, RecoveryReport, Vdbms, VideoSegments,
};

/// Errors raised by the VDBMS layer.
#[derive(Debug)]
pub enum CobraError {
    /// The named video is not in the catalog.
    UnknownVideo(String),
    /// Required metadata is missing and cannot be derived.
    MissingMetadata {
        /// The video.
        video: String,
        /// What was needed.
        what: String,
    },
    /// The retrieval query failed to parse.
    Parse(String),
    /// An underlying layer failed.
    Kernel(f1_monet::MonetError),
    /// The probabilistic layer failed.
    Bayes(f1_bayes::BayesError),
    /// The media layer failed.
    Media(f1_media::MediaError),
    /// The rule layer failed.
    Rules(f1_rules::RuleError),
    /// The logical (Moa) layer failed.
    Moa(f1_moa::MoaError),
    /// The caption/text pipeline failed.
    Text(f1_text::TextError),
    /// The keyword-spotting layer failed.
    Keyword(f1_keyword::KeywordError),
    /// The durable storage layer failed. Raised *before* a mutation is
    /// applied or acknowledged: a caller seeing this error knows the
    /// catalog is unchanged.
    Store(cobra_store::StoreError),
    /// A streamed ingest chunk arrived out of arrival order; the
    /// catalog is unchanged and the expected chunk can still be sent.
    StreamOrder {
        /// The video being streamed.
        video: String,
        /// The clip the stream expected the chunk to start at.
        expected: usize,
        /// The clip the chunk actually started at.
        got: usize,
    },
    /// An event row that ends before it starts; the write carrying it
    /// was refused and the catalog is unchanged.
    InvalidEvent {
        /// The video written to.
        video: String,
        /// The row's kind.
        kind: String,
        /// The row's first clip.
        start: usize,
        /// The row's end, before `start`.
        end: usize,
    },
}

impl std::fmt::Display for CobraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CobraError::UnknownVideo(v) => write!(f, "unknown video '{v}'"),
            CobraError::MissingMetadata { video, what } => {
                write!(f, "video '{video}' is missing metadata: {what}")
            }
            CobraError::Parse(msg) => write!(f, "query parse error: {msg}"),
            CobraError::Kernel(e) => write!(f, "kernel: {e}"),
            CobraError::Bayes(e) => write!(f, "bayes: {e}"),
            CobraError::Media(e) => write!(f, "media: {e}"),
            CobraError::Rules(e) => write!(f, "rules: {e}"),
            CobraError::Moa(e) => write!(f, "moa: {e}"),
            CobraError::Text(e) => write!(f, "text: {e}"),
            CobraError::Keyword(e) => write!(f, "keyword: {e}"),
            CobraError::Store(e) => write!(f, "store: {e}"),
            CobraError::StreamOrder {
                video,
                expected,
                got,
            } => {
                write!(
                    f,
                    "video '{video}': chunk starts at clip {got} but the stream expects clip {expected}"
                )
            }
            CobraError::InvalidEvent {
                video,
                kind,
                start,
                end,
            } => write!(
                f,
                "video '{video}': event '{kind}' ends at clip {end}, before its start at clip {start}"
            ),
        }
    }
}

impl std::error::Error for CobraError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CobraError::Kernel(e) => Some(e),
            CobraError::Bayes(e) => Some(e),
            CobraError::Media(e) => Some(e),
            CobraError::Rules(e) => Some(e),
            CobraError::Moa(e) => Some(e),
            CobraError::Text(e) => Some(e),
            CobraError::Keyword(e) => Some(e),
            CobraError::Store(e) => Some(e),
            CobraError::UnknownVideo(_)
            | CobraError::MissingMetadata { .. }
            | CobraError::Parse(_)
            | CobraError::StreamOrder { .. }
            | CobraError::InvalidEvent { .. } => None,
        }
    }
}

impl From<f1_monet::MonetError> for CobraError {
    fn from(e: f1_monet::MonetError) -> Self {
        CobraError::Kernel(e)
    }
}
impl From<f1_bayes::BayesError> for CobraError {
    fn from(e: f1_bayes::BayesError) -> Self {
        CobraError::Bayes(e)
    }
}
impl From<f1_media::MediaError> for CobraError {
    fn from(e: f1_media::MediaError) -> Self {
        CobraError::Media(e)
    }
}
impl From<f1_rules::RuleError> for CobraError {
    fn from(e: f1_rules::RuleError) -> Self {
        CobraError::Rules(e)
    }
}
impl From<f1_moa::MoaError> for CobraError {
    fn from(e: f1_moa::MoaError) -> Self {
        CobraError::Moa(e)
    }
}
impl From<f1_text::TextError> for CobraError {
    fn from(e: f1_text::TextError) -> Self {
        CobraError::Text(e)
    }
}
impl From<f1_keyword::KeywordError> for CobraError {
    fn from(e: f1_keyword::KeywordError) -> Self {
        CobraError::Keyword(e)
    }
}
impl From<cobra_store::StoreError> for CobraError {
    fn from(e: cobra_store::StoreError) -> Self {
        CobraError::Store(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CobraError>;
