//! The retrieval query language of §5.6.
//!
//! The paper demonstrates queries like *"Retrieve the video sequences
//! showing Barrichello in the pit stop"* and *"Retrieve all highlights at
//! the pit line involving Juan Pablo Montoya"*. This module gives those a
//! concrete surface syntax:
//!
//! ```text
//! RETRIEVE HIGHLIGHTS
//! RETRIEVE HIGHLIGHTS WITH DRIVER "SCHUMACHER"
//! RETRIEVE HIGHLIGHTS AT PITLANE WITH DRIVER "MONTOYA"
//! RETRIEVE EVENTS FLY_OUT
//! RETRIEVE EVENTS FLY_OUT WITH DRIVER "HAKKINEN"
//! RETRIEVE PITSTOPS WITH DRIVER "BARRICHELLO"
//! RETRIEVE SEGMENTS WITH DRIVER "SCHUMACHER"
//! RETRIEVE LEADER WITH DRIVER "SCHUMACHER"
//! RETRIEVE EXCITED
//! RETRIEVE WINNER
//! RETRIEVE FINALLAP
//! ```
//!
//! Keywords are case-insensitive; driver names are quoted, non-empty
//! strings.
//!
//! Any retrieval query may additionally be prefixed with `PROFILE` (run
//! it and return a span tree of where time went, per level of the
//! three-level architecture) or `EXPLAIN` (return the plan's span-tree
//! shape without executing); see [`parse_statement`].

use std::sync::Arc;

use crate::{CobraError, Result};

/// What a query retrieves.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Target {
    /// Any segments showing a driver (caption-derived visibility).
    Segments,
    /// DBN-detected highlights.
    Highlights,
    /// DBN-classified events of a kind ("start", "fly_out", "passing").
    Events(String),
    /// Pit stops (from recognized captions).
    PitStops,
    /// The winner crossing the line (winner caption).
    Winner,
    /// The final lap (final-lap caption).
    FinalLap,
    /// Segments where a driver leads (classification captions).
    Leader,
    /// Excited-announcer segments (audio DBN).
    Excited,
}

/// A parsed retrieval query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// What to retrieve.
    pub target: Target,
    /// Optional driver constraint.
    pub driver: Option<String>,
    /// Restrict to segments overlapping pit-stop activity.
    pub at_pitlane: bool,
}

/// A top-level query-language statement: a plain retrieval, or a
/// retrieval wrapped in the `EXPLAIN`/`PROFILE` observability surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// `RETRIEVE …` — execute and return segments.
    Retrieve(Query),
    /// `EXPLAIN RETRIEVE …` — return the plan shape, don't execute.
    Explain(Query),
    /// `PROFILE RETRIEVE …` — execute and return segments plus a span
    /// tree with measured timings.
    Profile(Query),
}

impl Query {
    /// Canonical text rendering used as a cache key.
    ///
    /// Two query strings that parse to the same [`Query`] normalize to the
    /// same text regardless of keyword case, whitespace, or clause order
    /// (`AT PITLANE` always precedes `WITH DRIVER`), so the plan and
    /// result caches see one key per semantic query.
    pub fn normalized(&self) -> String {
        let mut text = String::from("RETRIEVE ");
        match &self.target {
            Target::Segments => text.push_str("SEGMENTS"),
            Target::Highlights => text.push_str("HIGHLIGHTS"),
            Target::Events(kind) => {
                text.push_str("EVENTS ");
                text.push_str(&kind.to_uppercase());
            }
            Target::PitStops => text.push_str("PITSTOPS"),
            Target::Winner => text.push_str("WINNER"),
            Target::FinalLap => text.push_str("FINALLAP"),
            Target::Leader => text.push_str("LEADER"),
            Target::Excited => text.push_str("EXCITED"),
        }
        if self.at_pitlane {
            text.push_str(" AT PITLANE");
        }
        if let Some(driver) = &self.driver {
            text.push_str(" WITH DRIVER \"");
            text.push_str(driver);
            text.push('"');
        }
        text
    }
}

impl Statement {
    /// The wrapped retrieval query.
    pub fn query(&self) -> &Query {
        match self {
            Statement::Retrieve(q) | Statement::Explain(q) | Statement::Profile(q) => q,
        }
    }

    /// Canonical text rendering of the whole statement (prefix included);
    /// see [`Query::normalized`]. Used by cobra-serve to coalesce
    /// identical in-flight requests.
    pub fn normalized(&self) -> String {
        match self {
            Statement::Retrieve(q) => q.normalized(),
            Statement::Explain(q) => format!("EXPLAIN {}", q.normalized()),
            Statement::Profile(q) => format!("PROFILE {}", q.normalized()),
        }
    }
}

/// Parses a statement: an optional `EXPLAIN`/`PROFILE` prefix followed
/// by a retrieval query.
pub fn parse_statement(text: &str) -> Result<Statement> {
    let trimmed = text.trim_start();
    let first = trimmed
        .split_whitespace()
        .next()
        .map(str::to_uppercase)
        .unwrap_or_default();
    match first.as_str() {
        "EXPLAIN" => {
            let rest = &trimmed[first.len()..];
            Ok(Statement::Explain(parse_query(rest)?))
        }
        "PROFILE" => {
            let rest = &trimmed[first.len()..];
            Ok(Statement::Profile(parse_query(rest)?))
        }
        _ => Ok(Statement::Retrieve(parse_query(text)?)),
    }
}

/// One retrieved video segment.
///
/// The strings are shared: the rows of one answer, as an event selection
/// builds them and as [`read_query_output`](crate::json::read_query_output)
/// decodes them, hold one allocation per distinct label and driver, and
/// cloning a row allocates nothing. An `Arc<str>` compares and hashes as
/// the `str` it holds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RetrievedSegment {
    /// First clip.
    pub start: usize,
    /// One past the last clip.
    pub end: usize,
    /// Human-readable label ("highlight", "fly_out", …).
    pub label: Arc<str>,
    /// Driver involved, when known.
    pub driver: Option<Arc<str>>,
}

fn tokenize(text: &str) -> Result<Vec<String>> {
    let mut tokens = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '"' {
            chars.next();
            let mut s = String::from("\"");
            loop {
                match chars.next() {
                    Some('"') => break,
                    Some(ch) => s.push(ch),
                    None => {
                        return Err(CobraError::Parse("unterminated string".into()));
                    }
                }
            }
            tokens.push(s);
        } else {
            let mut s = String::new();
            while let Some(&ch) = chars.peek() {
                if ch.is_whitespace() || ch == '"' {
                    break;
                }
                s.push(ch);
                chars.next();
            }
            tokens.push(s.to_uppercase());
        }
    }
    Ok(tokens)
}

/// Parses a retrieval query.
pub fn parse_query(text: &str) -> Result<Query> {
    let tokens = tokenize(text)?;
    let mut pos = 0;
    let next = |pos: &mut usize| -> Option<&String> {
        let t = tokens.get(*pos);
        *pos += 1;
        t
    };
    match next(&mut pos).map(String::as_str) {
        Some("RETRIEVE") => {}
        other => {
            return Err(CobraError::Parse(format!(
                "expected RETRIEVE, found {other:?}"
            )))
        }
    }
    let target = match next(&mut pos).map(String::as_str) {
        Some("SEGMENTS") => Target::Segments,
        Some("HIGHLIGHTS") => Target::Highlights,
        Some("PITSTOPS") => Target::PitStops,
        Some("WINNER") => Target::Winner,
        Some("FINALLAP") => Target::FinalLap,
        Some("LEADER") => Target::Leader,
        Some("EXCITED") => Target::Excited,
        Some("EVENTS") => {
            let kind = next(&mut pos).ok_or_else(|| {
                CobraError::Parse("EVENTS requires a kind (START, FLY_OUT, PASSING)".into())
            })?;
            Target::Events(kind.to_lowercase())
        }
        other => return Err(CobraError::Parse(format!("unknown target {other:?}"))),
    };
    let mut query = Query {
        target,
        driver: None,
        at_pitlane: false,
    };
    while pos < tokens.len() {
        match tokens[pos].as_str() {
            "WITH" => {
                pos += 1;
                if tokens.get(pos).map(String::as_str) != Some("DRIVER") {
                    return Err(CobraError::Parse("WITH must be followed by DRIVER".into()));
                }
                pos += 1;
                let name = tokens
                    .get(pos)
                    .ok_or_else(|| CobraError::Parse("DRIVER requires a quoted name".into()))?;
                let name = name
                    .strip_prefix('"')
                    .ok_or_else(|| CobraError::Parse("driver name must be quoted".into()))?;
                // The event layer stores "names no driver" as the empty
                // name, so asking for it would match exactly the events
                // that involve no one.
                if name.is_empty() {
                    return Err(CobraError::Parse("driver name must not be empty".into()));
                }
                query.driver = Some(name.to_uppercase());
                pos += 1;
            }
            "AT" => {
                pos += 1;
                if tokens.get(pos).map(String::as_str) != Some("PITLANE") {
                    return Err(CobraError::Parse("AT must be followed by PITLANE".into()));
                }
                query.at_pitlane = true;
                pos += 1;
            }
            other => return Err(CobraError::Parse(format!("unexpected token '{other}'"))),
        }
    }
    Ok(query)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_query_set() {
        let q = parse_query(r#"RETRIEVE SEGMENTS WITH DRIVER "Schumacher""#).unwrap();
        assert_eq!(q.target, Target::Segments);
        assert_eq!(q.driver.as_deref(), Some("SCHUMACHER"));

        let q = parse_query("RETRIEVE EVENTS FLY_OUT").unwrap();
        assert_eq!(q.target, Target::Events("fly_out".into()));
        assert_eq!(q.driver, None);

        let q = parse_query(r#"retrieve pitstops with driver "Barrichello""#).unwrap();
        assert_eq!(q.target, Target::PitStops);
        assert_eq!(q.driver.as_deref(), Some("BARRICHELLO"));

        let q = parse_query(r#"RETRIEVE HIGHLIGHTS AT PITLANE WITH DRIVER "Montoya""#).unwrap();
        assert_eq!(q.target, Target::Highlights);
        assert!(q.at_pitlane);
        assert_eq!(q.driver.as_deref(), Some("MONTOYA"));

        for (text, target) in [
            ("RETRIEVE WINNER", Target::Winner),
            ("RETRIEVE FINALLAP", Target::FinalLap),
            ("RETRIEVE EXCITED", Target::Excited),
            ("RETRIEVE HIGHLIGHTS", Target::Highlights),
        ] {
            assert_eq!(parse_query(text).unwrap().target, target);
        }

        let q = parse_query(r#"RETRIEVE LEADER WITH DRIVER "Schumacher""#).unwrap();
        assert_eq!(q.target, Target::Leader);
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse_query("SELECT * FROM videos").is_err());
        assert!(parse_query("RETRIEVE").is_err());
        assert!(parse_query("RETRIEVE EVERYTHING").is_err());
        assert!(parse_query("RETRIEVE EVENTS").is_err());
        assert!(parse_query("RETRIEVE HIGHLIGHTS WITH").is_err());
        assert!(parse_query("RETRIEVE HIGHLIGHTS WITH DRIVER Schumacher").is_err());
        assert!(parse_query(r#"RETRIEVE HIGHLIGHTS WITH DRIVER "unterminated"#).is_err());
        assert!(parse_query(r#"RETRIEVE HIGHLIGHTS WITH DRIVER """#).is_err());
        assert!(parse_query("RETRIEVE HIGHLIGHTS AT PITSTOP").is_err());
        assert!(parse_query("RETRIEVE HIGHLIGHTS SHINY").is_err());
    }

    #[test]
    fn statements_peel_explain_and_profile_prefixes() {
        let s = parse_statement("RETRIEVE HIGHLIGHTS").unwrap();
        assert_eq!(
            s,
            Statement::Retrieve(Query {
                target: Target::Highlights,
                driver: None,
                at_pitlane: false,
            })
        );
        let s = parse_statement(r#"PROFILE RETRIEVE HIGHLIGHTS WITH DRIVER "Montoya""#).unwrap();
        assert!(matches!(&s, Statement::Profile(q)
            if q.target == Target::Highlights && q.driver.as_deref() == Some("MONTOYA")));
        let s = parse_statement("explain retrieve events fly_out").unwrap();
        assert!(matches!(&s, Statement::Explain(q)
            if q.target == Target::Events("fly_out".into())));
        assert_eq!(s.query().target, Target::Events("fly_out".into()));
        // The prefix alone is not a statement.
        assert!(parse_statement("PROFILE").is_err());
        assert!(parse_statement("EXPLAIN SELECT").is_err());
    }

    #[test]
    fn normalization_canonicalizes_case_whitespace_and_clause_order() {
        let variants = [
            r#"RETRIEVE HIGHLIGHTS AT PITLANE WITH DRIVER "Montoya""#,
            r#"retrieve   highlights with driver "montoya"  at pitlane"#,
            "RETRIEVE HIGHLIGHTS WITH DRIVER \"MONTOYA\" AT PITLANE",
        ];
        let keys: Vec<String> = variants
            .iter()
            .map(|v| parse_query(v).unwrap().normalized())
            .collect();
        assert_eq!(
            keys[0],
            r#"RETRIEVE HIGHLIGHTS AT PITLANE WITH DRIVER "MONTOYA""#
        );
        assert!(keys.iter().all(|k| k == &keys[0]));

        // Normalized text round-trips through the parser.
        let q = parse_query(&keys[0]).unwrap();
        assert_eq!(q.normalized(), keys[0]);
        assert_eq!(
            parse_query("retrieve events fly_out").unwrap().normalized(),
            "RETRIEVE EVENTS FLY_OUT"
        );

        // Statements keep their prefix so PROFILE/EXPLAIN/RETRIEVE stay
        // distinct coalescing keys.
        assert_eq!(
            parse_statement("profile retrieve winner")
                .unwrap()
                .normalized(),
            "PROFILE RETRIEVE WINNER"
        );
        assert_eq!(
            parse_statement("explain retrieve winner")
                .unwrap()
                .normalized(),
            "EXPLAIN RETRIEVE WINNER"
        );
    }

    #[test]
    fn keywords_are_case_insensitive_but_strings_preserve() {
        let q = parse_query(r#"retrieve events start with driver "TRULLI""#).unwrap();
        assert_eq!(q.target, Target::Events("start".into()));
        assert_eq!(q.driver.as_deref(), Some("TRULLI"));
    }
}
