//! Semantic interpretation of recognized captions.
//!
//! §5.5: "We decide to extract the names of Formula 1 drivers, and the
//! semantic content of superimposed text (for example if it is a pit
//! stop, or driver's classification is shown, etc.)". This module maps a
//! sequence of recognized words onto those classes.

use f1_media::synth::scenario::{CaptionKind, DriverId, DRIVERS};

/// A parsed caption: its semantic class plus any driver/position payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedCaption {
    /// Semantic class.
    pub kind: CaptionKind,
    /// Driver mentioned, if any.
    pub driver: Option<DriverId>,
    /// Classification position, when the caption shows the running order.
    pub position: Option<usize>,
}

/// Looks up a recognized word among the driver names.
pub fn driver_of(word: &str) -> Option<DriverId> {
    DRIVERS.iter().position(|&d| d.eq_ignore_ascii_case(word))
}

/// Parses a sequence of recognized words into a caption semantic.
///
/// Recognized grammars (all case-insensitive):
/// * `PIT STOP <driver>` — pit stop,
/// * `<digit> <driver>` — classification line,
/// * `FASTEST LAP <driver> …` — fastest lap,
/// * `FINAL LAP` — final lap,
/// * `WINNER <driver>` — race winner.
pub fn parse_caption(words: &[String]) -> Option<ParsedCaption> {
    if words.is_empty() {
        return None;
    }
    let up: Vec<String> = words.iter().map(|w| w.to_uppercase()).collect();
    let driver = up.iter().find_map(|w| driver_of(w));
    match up[0].as_str() {
        "PIT" if up.get(1).map(String::as_str) == Some("STOP") => Some(ParsedCaption {
            kind: CaptionKind::PitStop,
            driver,
            position: None,
        }),
        "FASTEST" if up.get(1).map(String::as_str) == Some("LAP") => Some(ParsedCaption {
            kind: CaptionKind::FastestLap,
            driver,
            position: None,
        }),
        "FINAL" if up.get(1).map(String::as_str) == Some("LAP") => Some(ParsedCaption {
            kind: CaptionKind::FinalLap,
            driver: None,
            position: None,
        }),
        "WINNER" => driver.map(|d| ParsedCaption {
            kind: CaptionKind::Winner,
            driver: Some(d),
            position: None,
        }),
        first => {
            // Classification line: "<digit> <driver>".
            if let Ok(pos) = first.parse::<usize>() {
                if let Some(d) = driver {
                    return Some(ParsedCaption {
                        kind: CaptionKind::Classification,
                        driver: Some(d),
                        position: Some(pos),
                    });
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_lookup_is_case_insensitive() {
        assert_eq!(driver_of("SCHUMACHER"), Some(0));
        assert_eq!(driver_of("hakkinen"), Some(2));
        assert_eq!(driver_of("SENNA"), None);
    }

    #[test]
    fn parses_pit_stop() {
        let p = parse_caption(&w(&["PIT", "STOP", "BARRICHELLO"])).unwrap();
        assert_eq!(p.kind, CaptionKind::PitStop);
        assert_eq!(p.driver, Some(1));
        assert_eq!(p.position, None);
    }

    #[test]
    fn parses_classification_line() {
        let p = parse_caption(&w(&["1", "MONTOYA"])).unwrap();
        assert_eq!(p.kind, CaptionKind::Classification);
        assert_eq!(p.driver, Some(4));
        assert_eq!(p.position, Some(1));
    }

    #[test]
    fn parses_fastest_final_winner() {
        let p = parse_caption(&w(&["FASTEST", "LAP", "TRULLI", "1:14.3"])).unwrap();
        assert_eq!(p.kind, CaptionKind::FastestLap);
        assert_eq!(p.driver, Some(7));
        let p = parse_caption(&w(&["FINAL", "LAP"])).unwrap();
        assert_eq!(p.kind, CaptionKind::FinalLap);
        let p = parse_caption(&w(&["WINNER", "COULTHARD"])).unwrap();
        assert_eq!(p.kind, CaptionKind::Winner);
        assert_eq!(p.driver, Some(3));
    }

    #[test]
    fn rejects_unparseable_captions() {
        assert_eq!(parse_caption(&[]), None);
        assert_eq!(parse_caption(&w(&["HELLO", "WORLD"])), None);
        assert_eq!(parse_caption(&w(&["WINNER"])), None); // no driver
        assert_eq!(parse_caption(&w(&["9"])), None); // position without driver
    }
}
