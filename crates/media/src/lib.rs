//! # f1-media — the raw-signal substrate of the Formula 1 case study
//!
//! The paper digitized three 2001 Formula 1 Grands Prix (PAL video at
//! 384×288, audio at 22 kHz/16-bit) and extracted seventeen audio-visual
//! features at a 0.1 s clip rate (§5.2–§5.3). Those tapes are not
//! available, so this crate substitutes a **seeded synthetic broadcast**:
//!
//! * [`synth::scenario`] draws a ground-truth race timeline — start,
//!   passings, fly-outs, pit stops, replays, excited commentary,
//!   superimposed captions — from a race *profile* (`german`, `belgian`,
//!   `usa`) that controls camera work and event statistics,
//! * [`synth::audio`] renders actual 22 kHz PCM: a harmonic speech source
//!   with pitch/energy contours (raised when the announcer is excited),
//!   engine roar, crowd noise and silence gaps,
//! * [`synth::video`] renders actual 384×288 RGB frames on demand: moving
//!   cars, camera cuts, DVE replay wipes, the start semaphore, dust and
//!   sand plumes, and shaded caption boxes with bitmap text.
//!
//! On top of the synthetic (but *raw*) signals, the crate implements the
//! paper's feature extraction for real:
//!
//! * [`features::audio`] — short-time energy over filtered sub-bands with
//!   a choice of four analysis windows, autocorrelation pitch tracking,
//!   mel-frequency cepstral coefficients, pause rate, and the clip-level
//!   aggregates (average / maximum / dynamic range) of §5.2,
//! * [`features::endpoint`] — the STE+MFCC speech endpoint detector with
//!   the paper's thresholds (2.2 × 10⁻³ and 1.3),
//! * [`features::video`] — multi-frame histogram shot detection, color
//!   difference motion, semaphore detection, dust/sand color filtering,
//!   motion-histogram passing cues and DVE replay detection,
//! * [`features::vector`] — assembly of the f1…f17 evidence matrix in the
//!   paper's feature order, ready for
//!   `f1_bayes::evidence::EvidenceSeq::from_matrix`.

pub mod features;
pub mod font;
pub mod frame;
pub mod signal;
pub mod synth;
pub mod time;
pub mod window;

pub use frame::Frame;
pub use synth::scenario::{RaceProfile, RaceScenario, ScenarioConfig};
pub use time::{clips_per_second, frames_per_clip, CLIP_SAMPLES, FRAME_SAMPLES, SAMPLE_RATE};

/// Errors raised by media synthesis and feature extraction.
#[derive(Debug, Clone, PartialEq)]
pub enum MediaError {
    /// A parameter was outside its valid range.
    BadParameter(String),
    /// A buffer had an unexpected length.
    Shape(String),
    /// A `cobra-faults` injection fired at a media fault site (tests
    /// only; never constructed in production runs).
    Fault {
        /// The fault site name.
        site: String,
        /// Whether a retry could plausibly clear it.
        transient: bool,
    },
}

impl std::fmt::Display for MediaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MediaError::BadParameter(msg) => write!(f, "bad parameter: {msg}"),
            MediaError::Shape(msg) => write!(f, "shape error: {msg}"),
            MediaError::Fault { site, transient } => {
                let kind = if *transient { "transient" } else { "permanent" };
                write!(f, "injected {kind} fault at site '{site}'")
            }
        }
    }
}

impl From<cobra_faults::FaultError> for MediaError {
    fn from(e: cobra_faults::FaultError) -> Self {
        MediaError::Fault {
            site: e.site,
            transient: e.transient,
        }
    }
}

impl std::error::Error for MediaError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, MediaError>;

#[cfg(test)]
pub(crate) mod test_support;
