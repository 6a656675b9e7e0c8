//! JSON encoding of the public result types.
//!
//! The serving layer's wire protocol and the `STATS` command transmit
//! exactly the structures the in-process API returns —
//! [`QueryOutput`], obs span trees — rather than a
//! parallel set of string formats. Encoding lives here so the wire
//! format is a reviewable, stable surface, in two forms that describe
//! the same bytes:
//!
//! * **The byte codec** — [`write_query_output`] / [`read_query_output`]
//!   — goes between a [`QueryOutput`] and JSON text directly, over the
//!   vendored `serde_json`'s streaming [`Writer`] and [`Reader`]: rows
//!   are never built into a tree. A row in exactly the layout the writer
//!   writes is read in one pass ([`Reader::recognise`]); at the first
//!   byte that differs, the visitor reads it from its start. (Span trees
//!   of `PROFILE`/`EXPLAIN` answers cross as [`Value`]s inside it.)
//! * **The tree functions** — `*_to_json` over [`Value`] — define the
//!   format: `write_query_output` is byte-identical to
//!   `query_output_to_json(..).to_string()` (keys in the sorted order a
//!   `Value` renders them), and `read_query_output` accepts, rejects and
//!   decodes exactly as `from_str` then the tree decoder kept as a test
//!   oracle (`crates/core/tests/oracle/tree.rs`) do; the proptests of
//!   `crates/core/tests/reply_codec.rs` hold the two to that. The tree
//!   form also remains what requests, control commands and push frames
//!   use.
//! * **Stored bytes** — a result-cache entry keeps, next to its rows, the
//!   [`segment_list`] they encode to, written once when the entry is
//!   made: [`write_answered`] writes one video's reply and every group of
//!   a sweep by copying those lists, so a cache hit encodes nothing. A
//!   router keeps what a shard answered as a [`Part`], whose groups were
//!   located in the pass that validated it, so [`join_groups`] merges a
//!   sweep without reading any body again.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use cobra_obs::SpanNode;
use serde_json::{json, ParseError, Reader, Value, Writer};

use crate::query::RetrievedSegment;
use crate::session::{Answered, QueryOutput, QueryProfile, VideoSegments};

/// Encodes one retrieved segment.
pub fn segment_to_json(seg: &RetrievedSegment) -> Value {
    json!({
        "start": (seg.start as f64),
        "end": (seg.end as f64),
        "label": (&*seg.label),
        "driver": (seg.driver.as_deref()),
    })
}

/// Decodes a segment produced by [`segment_to_json`]. Returns `None`
/// on shape mismatch — wire data is untrusted.
pub fn segment_from_json(v: &Value) -> Option<RetrievedSegment> {
    let driver = match v.get("driver")? {
        Value::Null => None,
        other => Some(other.as_str()?.into()),
    };
    Some(RetrievedSegment {
        start: v.get("start")?.as_u64()? as usize,
        end: v.get("end")?.as_u64()? as usize,
        label: v.get("label")?.as_str()?.into(),
        driver,
    })
}

fn segments_to_json(segments: &[RetrievedSegment]) -> Value {
    Value::Array(segments.iter().map(segment_to_json).collect())
}

/// Encodes a query answer as a tagged object:
/// `{"kind": "segments" | "profile" | "plan" | "multi", ...}`.
pub fn query_output_to_json(out: &QueryOutput) -> Value {
    match out {
        QueryOutput::Segments(segments) => json!({
            "kind": "segments",
            "segments": (segments_to_json(segments)),
        }),
        QueryOutput::Profile(QueryProfile { segments, span }) => json!({
            "kind": "profile",
            "segments": (segments_to_json(segments)),
            "span": (span.to_json()),
        }),
        QueryOutput::Plan(span) => json!({
            "kind": "plan",
            "span": (span.to_json()),
        }),
        QueryOutput::Multi(groups) => json!({
            "kind": "multi",
            "videos": (Value::Array(
                groups
                    .iter()
                    .map(|g| json!({
                        "video": (g.video.clone()),
                        "segments": (segments_to_json(&g.segments)),
                    }))
                    .collect(),
            )),
        }),
    }
}

fn write_segments(w: &mut Writer<'_>, segments: &[RetrievedSegment]) {
    w.array(|w| {
        for seg in segments {
            w.object(|w| {
                w.key("driver");
                match &seg.driver {
                    Some(driver) => w.str(driver),
                    None => w.null(),
                }
                w.key("end");
                w.u64(seg.end as u64);
                w.key("label");
                w.str(&seg.label);
                w.key("start");
                w.u64(seg.start as u64);
            });
        }
    });
}

/// `segments` as JSON text: the list a reply's `segments` member holds,
/// which a result-cache entry keeps next to its rows
/// ([`Answer`](crate::Answer)).
pub(crate) fn segment_list(segments: &[RetrievedSegment]) -> Box<[u8]> {
    // A written row is rarely over 64 bytes: one allocation, trimmed once.
    let mut list = Vec::with_capacity(2 + 64 * segments.len());
    write_segments(&mut Writer::new(&mut list), segments);
    list.into_boxed_slice()
}

/// `{"kind":"segments","segments":…}` around the list `segments` writes.
fn segments_body(w: &mut Writer<'_>, segments: impl FnOnce(&mut Writer<'_>)) {
    w.object(|w| {
        w.key("kind");
        w.str("segments");
        w.key("segments");
        segments(w);
    });
}

/// `{"kind":"multi","videos":[…]}` around the groups `groups` writes.
fn multi_body(w: &mut Writer<'_>, groups: impl FnOnce(&mut Writer<'_>)) {
    w.object(|w| {
        w.key("kind");
        w.str("multi");
        w.key("videos");
        w.array(groups);
    });
}

/// One group of a cross-video answer: `{"segments":…,"video":…}`.
fn group(w: &mut Writer<'_>, video: &str, segments: impl FnOnce(&mut Writer<'_>)) {
    w.object(|w| {
        w.key("segments");
        segments(w);
        w.key("video");
        w.str(video);
    });
}

/// Writes `out` as [`query_output_to_json`] would render it, straight
/// from the answer.
pub fn write_query_output(w: &mut Writer<'_>, out: &QueryOutput) {
    match out {
        QueryOutput::Segments(segments) => segments_body(w, |w| write_segments(w, segments)),
        QueryOutput::Profile(QueryProfile { segments, span }) => w.object(|w| {
            w.key("kind");
            w.str("profile");
            w.key("segments");
            write_segments(w, segments);
            w.key("span");
            w.value(&span.to_json());
        }),
        QueryOutput::Plan(span) => w.object(|w| {
            w.key("kind");
            w.str("plan");
            w.key("span");
            w.value(&span.to_json());
        }),
        QueryOutput::Multi(groups) => multi_body(w, |w| {
            for g in groups {
                group(w, &g.video, |w| write_segments(w, &g.segments));
            }
        }),
    }
}

/// Writes the `result` body of a statement answered through the result
/// cache: the bytes [`write_query_output`] writes for the rows
/// [`Vdbms::run`](crate::Vdbms::run) returns. One video's answer and
/// every group of a sweep copy the segment list their entry stored, so
/// no row is encoded here; only `PROFILE` and `EXPLAIN` outputs go
/// through `write_query_output`.
pub fn write_answered(w: &mut Writer<'_>, answered: &Answered) {
    match answered {
        Answered::Video(entry) => segments_body(w, |w| w.raw(&entry.value.list)),
        Answered::Sweep(entries) => multi_body(w, |w| {
            for (video, entry) in entries {
                group(w, video, |w| w.raw(&entry.value.list));
            }
        }),
        Answered::Output(output) => write_query_output(w, output),
    }
}

/// The bytes [`write_answered`] writes for `answered`, to size a reply's
/// buffer once: exact, unless a sweep names a video that needs an escape
/// (then short by the escapes); `0` for a span tree.
pub fn answered_len(answered: &Answered) -> usize {
    match answered {
        Answered::Video(entry) => {
            r#"{"kind":"segments","segments":}"#.len() + entry.value.list.len()
        }
        Answered::Sweep(entries) => {
            let groups = entries.iter().map(|(video, entry)| {
                r#"{"segments":,"video":""}"#.len() + entry.value.list.len() + video.len()
            });
            let commas = entries.len().saturating_sub(1);
            r#"{"kind":"multi","videos":[]}"#.len() + groups.sum::<usize>() + commas
        }
        Answered::Output(_) => 0,
    }
}

/// Reads an array of `T`s; `None` when the value is not an array or any
/// element is not a `T`.
fn read_list<'a, T>(
    r: &mut Reader<'a>,
    mut read: impl FnMut(&mut Reader<'a>) -> Result<Option<T>, ParseError>,
) -> Result<Option<Vec<T>>, ParseError> {
    let mut list = Some(Vec::new());
    let is_array = r.array(|r| {
        match (read(r)?, list.as_mut()) {
            (Some(item), Some(list)) => list.push(item),
            _ => list = None,
        }
        Ok(())
    })?;
    Ok(list.filter(|_| is_array))
}

/// The distinct strings of one reply's rows, so that its rows share one
/// allocation per label and driver: found by their bytes, and at most
/// [`Strings::CAP`] of them kept, past which a string is allocated for
/// each row that holds it.
#[derive(Default)]
struct Strings(Vec<Arc<str>>);

impl Strings {
    /// A reply holds a handful of labels and, filtered by driver, one
    /// driver; a sweep of every driver's rows outgrows any small table.
    const CAP: usize = 16;

    fn get(&mut self, s: &str) -> Arc<str> {
        if let Some(kept) = self.0.iter().find(|kept| kept.as_ref() == s) {
            return Arc::clone(kept);
        }
        let made = Arc::<str>::from(s);
        if self.0.len() < Self::CAP {
            self.0.push(Arc::clone(&made));
        }
        made
    }
}

/// A row in exactly the layout [`write_segments`] writes, with strings
/// that need no escape and integers of at most 15 digits, and its length.
/// `None` at the first byte that differs, for the visitor to read the row
/// from its start: so every other verdict, error and offset is its own.
fn written_row(text: &str, strings: &mut Strings) -> Option<(RetrievedSegment, usize)> {
    // A string token that needs no escape and an integer of at most 15
    // digits, by the reader's own rules, each with the text after it.
    fn string(text: &str) -> Option<(&str, &str)> {
        let body = text.strip_prefix('"')?;
        let len = serde_json::plain_len(body.as_bytes());
        Some((body.get(..len)?, body.get(len..)?.strip_prefix('"')?))
    }
    fn int(text: &str) -> Option<(usize, &str)> {
        let (n, len) = serde_json::short_int(text.as_bytes())?;
        Some((n as usize, text.get(len..)?))
    }
    let rest = text.strip_prefix(r#"{"driver":"#)?;
    let (driver, rest) = match rest.strip_prefix("null") {
        Some(rest) => (None, rest),
        None => string(rest).map(|(driver, rest)| (Some(driver), rest))?,
    };
    let (end, rest) = int(rest.strip_prefix(r#","end":"#)?)?;
    let (label, rest) = string(rest.strip_prefix(r#","label":"#)?)?;
    let (start, rest) = int(rest.strip_prefix(r#","start":"#)?)?;
    let len = text.len() - rest.strip_prefix('}')?.len();
    let row = RetrievedSegment {
        start,
        end,
        label: strings.get(label),
        driver: driver.map(|driver| strings.get(driver)),
    };
    Some((row, len))
}

fn read_segment(
    r: &mut Reader<'_>,
    strings: &mut Strings,
) -> Result<Option<RetrievedSegment>, ParseError> {
    if let Some(row) = r.recognise(|text| written_row(text, strings)) {
        return Ok(Some(row));
    }
    let (mut start, mut end, mut label, mut driver) = (None, None, None, None);
    r.object(|key, r| {
        match key.as_ref() {
            "start" => start = r.u64()?,
            "end" => end = r.u64()?,
            "label" => label = r.string()?,
            "driver" => {
                let mark = r.mark();
                driver = match r.string()? {
                    Some(name) => Some(Some(name)),
                    None => (r.since(mark) == "null").then_some(None),
                };
            }
            _ => {}
        }
        Ok(())
    })?;
    Ok(match (start, end, label, driver) {
        (Some(start), Some(end), Some(label), Some(driver)) => Some(RetrievedSegment {
            start: start as usize,
            end: end as usize,
            label: strings.get(&label),
            driver: driver.map(|driver| strings.get(&driver)),
        }),
        _ => None,
    })
}

fn read_group(
    r: &mut Reader<'_>,
    strings: &mut Strings,
) -> Result<Option<VideoSegments>, ParseError> {
    let (mut video, mut segments) = (None, None);
    r.object(|key, r| {
        match key.as_ref() {
            "video" => video = r.string()?,
            "segments" => segments = read_list(r, |r| read_segment(r, strings))?,
            _ => {}
        }
        Ok(())
    })?;
    Ok(video.zip(segments).map(|(video, segments)| VideoSegments {
        video: video.into_owned(),
        segments,
    }))
}

/// Reads a query answer straight out of its JSON text — the next value
/// of `r`, which is consumed and validated whatever it turns out to be.
/// `Ok(None)` is a well-formed value of the wrong shape, exactly where
/// the tree decoder returns `None` for its tree. The rows share their
/// strings: one allocation per distinct label and driver of the reply.
pub fn read_query_output(r: &mut Reader<'_>) -> Result<Option<QueryOutput>, ParseError> {
    let (mut kind, mut segments, mut span, mut videos) = (None, None, None, None);
    let mut strings = Strings::default();
    r.object(|key, r| {
        match key.as_ref() {
            "kind" => kind = r.string()?,
            "segments" => segments = read_list(r, |r| read_segment(r, &mut strings))?,
            "span" => span = SpanNode::from_json(&r.value()?),
            "videos" => videos = read_list(r, |r| read_group(r, &mut strings))?,
            _ => {}
        }
        Ok(())
    })?;
    Ok(match (kind.as_deref(), segments, span, videos) {
        (Some("segments"), Some(segments), _, _) => Some(QueryOutput::Segments(segments)),
        (Some("profile"), Some(segments), Some(span), _) => {
            Some(QueryOutput::Profile(QueryProfile { segments, span }))
        }
        (Some("plan"), _, Some(span), _) => Some(QueryOutput::Plan(span)),
        (Some("multi"), _, _, Some(videos)) => Some(QueryOutput::Multi(videos)),
        _ => None,
    })
}

/// A `result` body kept as raw text — what a scatter-gather router
/// forwards and caches — with the groups of its `videos` array located
/// in the same pass that validated it, so that merging cross-video
/// answers ([`join_groups`]) never reads a body again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Part {
    /// The body, as it was read.
    text: String,
    /// For each element of the body's `videos` array, the video it names
    /// (empty when it names none) and where its raw text lies in `text`;
    /// `None` when the body has no `videos` array.
    groups: Option<Vec<(String, Range<usize>)>>,
}

impl Part {
    /// Reads the next value of `r` as a part. It accepts and rejects
    /// exactly what [`Reader::skip`] does, at the same offset, and
    /// decodes nothing but the `video` name of each group.
    pub fn read(r: &mut Reader<'_>) -> Result<Part, ParseError> {
        let start = r.mark();
        let mut groups = None;
        r.object(|key, r| {
            if key == "videos" {
                let mut list = Vec::new();
                let is_array = r.array(|r| {
                    let mark = r.mark();
                    let mut video = None;
                    r.object(|key, r| {
                        if key == "video" {
                            video = r.string()?;
                        }
                        Ok(())
                    })?;
                    let end = mark + r.since(mark).len();
                    let name = video.map_or_else(String::new, Cow::into_owned);
                    list.push((name, mark - start..end - start));
                    Ok(())
                })?;
                groups = is_array.then_some(list);
            }
            Ok(())
        })?;
        Ok(Part {
            text: r.since(start).to_owned(),
            groups,
        })
    }

    /// The body, as it was read.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The body's groups as `(video, raw text)`, in the order they came;
    /// `None` when it has no `videos` array.
    pub fn groups(&self) -> Option<impl Iterator<Item = (&str, &str)>> {
        let groups = self.groups.as_ref()?;
        Some(groups.iter().map(|(video, at)| {
            (
                video.as_str(),
                self.text.get(at.clone()).unwrap_or_default(),
            )
        }))
    }
}

/// Writes the cross-video answer made of `groups` — raw texts as
/// [`Part::groups`] locates them — in the order given: the bytes
/// [`write_query_output`] writes for the same groups.
pub fn join_groups<'a>(w: &mut Writer<'_>, groups: impl IntoIterator<Item = &'a str>) {
    multi_body(w, |w| {
        for group in groups {
            w.raw(group.as_bytes());
        }
    });
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Text that needs no escape: ASCII, `/`, DEL and non-ASCII scalars.
    fn plain_text(rng: &mut TestRng) -> String {
        const ODD: [char; 6] = ['/', '\u{7f}', 'É', '€', '😀', '\u{2028}'];
        (0..rng.below(12))
            .map(|_| match rng.below(4) {
                0 => ODD[rng.below(ODD.len() as u64) as usize],
                _ => char::from(b' ' + rng.below(95) as u8),
            })
            .filter(|&c| c != '"' && c != '\\')
            .collect()
    }

    /// An integer of at most 15 digits, often at the edges.
    fn short(rng: &mut TestRng) -> usize {
        let n = match rng.below(3) {
            0 => rng.below(10),
            1 => 10u64.pow(rng.below(16) as u32) - 1,
            _ => rng.below(1_000_000_000_000_000),
        };
        n as usize
    }

    /// Rows whose strings need no escape and whose integers have at
    /// most 15 digits: every such row the writer writes.
    struct PlainRows;

    impl Strategy for PlainRows {
        type Value = Vec<RetrievedSegment>;

        fn generate(&self, rng: &mut TestRng) -> Vec<RetrievedSegment> {
            (0..1 + rng.below(6))
                .map(|_| RetrievedSegment {
                    start: short(rng),
                    end: short(rng),
                    label: plain_text(rng).into(),
                    driver: (rng.below(2) == 0).then(|| plain_text(rng).into()),
                })
                .collect()
        }
    }

    /// One row as [`write_segments`] writes it.
    fn written(row: &RetrievedSegment) -> String {
        let mut list = Vec::new();
        write_segments(&mut Writer::new(&mut list), std::slice::from_ref(row));
        let list = String::from_utf8(list).unwrap();
        list[1..list.len() - 1].to_owned()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The writer's layout and the recogniser's literal agree: every
        /// such row is recognised at exactly its written length, whatever
        /// follows it, and a reply of them decodes to the rows.
        #[test]
        fn every_plain_written_row_is_recognised_whole(rows in PlainRows) {
            for row in &rows {
                let text = written(row);
                for tail in ["", ",", "]", ",{\"driver\":null}"] {
                    let got = written_row(&format!("{text}{tail}"), &mut Strings::default());
                    prop_assert_eq!(got, Some((row.clone(), text.len())), "{}", text);
                }
            }
            let mut body = Vec::new();
            write_query_output(&mut Writer::new(&mut body), &QueryOutput::Segments(rows.clone()));
            let mut r = Reader::from_slice(&body).unwrap();
            let read = read_query_output(&mut r).unwrap();
            prop_assert!(matches!(read, Some(QueryOutput::Segments(read)) if read == rows));
        }
    }

    /// What the recogniser leaves to the visitor: a string that needs an
    /// escape, and an integer past 15 digits.
    #[test]
    fn escaped_strings_and_long_integers_are_left_to_the_visitor() {
        let row = |label: &str, end: usize| RetrievedSegment {
            start: 1,
            end,
            label: label.into(),
            driver: None,
        };
        let strings = &mut Strings::default();
        assert!(written_row(&written(&row("a", 999_999_999_999_999)), strings).is_some());
        assert_eq!(written_row(&written(&row("a\"b", 2)), strings), None);
        assert_eq!(written_row(&written(&row("a\nb", 2)), strings), None);
        assert_eq!(
            written_row(&written(&row("a", 1_000_000_000_000_000)), strings),
            None
        );
    }
}
