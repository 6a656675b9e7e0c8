//! JSON encoding of the public result types.
//!
//! The serving layer's wire protocol and the `STATS` command transmit
//! exactly the structures the in-process API returns —
//! [`QueryOutput`], [`IngestReport`], obs span trees — rather than a
//! parallel set of string formats. Encoding lives here so the wire
//! format is a reviewable, stable surface, in two forms that describe
//! the same bytes:
//!
//! * **The byte codec** — [`write_query_output`] / [`read_query_output`]
//!   — goes between a [`QueryOutput`] and JSON text directly, over the
//!   vendored `serde_json`'s streaming [`Writer`] and [`Reader`]. It is
//!   what a `RETRIEVE` reply passes through on a server, a router and a
//!   client: rows are never built into a tree. (Span trees of
//!   `PROFILE`/`EXPLAIN` answers are small and arbitrarily shaped; they
//!   cross as [`Value`]s inside it.)
//! * **The tree functions** — `*_to_json` / `*_from_json` over [`Value`]
//!   — define the format: `write_query_output` is byte-identical to
//!   `query_output_to_json(..).to_string()` (keys in the sorted order a
//!   `Value` renders them), `read_query_output` accepts, rejects and
//!   decodes exactly as `from_str` then `query_output_from_json` do, and
//!   the proptests below hold the two to that. The tree form also
//!   remains what requests, control commands and push frames use.

use std::borrow::Cow;

use cobra_obs::SpanNode;
use serde_json::{json, ParseError, Reader, Value, Writer};

use crate::query::RetrievedSegment;
use crate::session::{
    IngestReport, MethodAttempt, MethodRank, QueryOutput, QueryProfile, VideoSegments,
};

/// Encodes one retrieved segment.
pub fn segment_to_json(seg: &RetrievedSegment) -> Value {
    json!({
        "start": (seg.start as f64),
        "end": (seg.end as f64),
        "label": (seg.label.clone()),
        "driver": (seg.driver.clone()),
    })
}

/// Decodes a segment produced by [`segment_to_json`]. Returns `None`
/// on shape mismatch — wire data is untrusted.
pub fn segment_from_json(v: &Value) -> Option<RetrievedSegment> {
    let driver = match v.get("driver")? {
        Value::Null => None,
        other => Some(other.as_str()?.to_string()),
    };
    Some(RetrievedSegment {
        start: v.get("start")?.as_u64()? as usize,
        end: v.get("end")?.as_u64()? as usize,
        label: v.get("label")?.as_str()?.to_string(),
        driver,
    })
}

fn segments_to_json(segments: &[RetrievedSegment]) -> Value {
    Value::Array(segments.iter().map(segment_to_json).collect())
}

/// Decodes a segment list.
pub fn segments_from_json(v: &Value) -> Option<Vec<RetrievedSegment>> {
    v.as_array()?.iter().map(segment_from_json).collect()
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

/// Decodes a [`query_output_to_json`] object back into a
/// [`QueryOutput`]. Returns `None` on shape mismatch.
pub fn query_output_from_json(v: &Value) -> Option<QueryOutput> {
    match v.get("kind")?.as_str()? {
        "segments" => Some(QueryOutput::Segments(segments_from_json(
            v.get("segments")?,
        )?)),
        "profile" => Some(QueryOutput::Profile(QueryProfile {
            segments: segments_from_json(v.get("segments")?)?,
            span: SpanNode::from_json(v.get("span")?)?,
        })),
        "plan" => Some(QueryOutput::Plan(SpanNode::from_json(v.get("span")?)?)),
        "multi" => {
            let groups = v
                .get("videos")?
                .as_array()?
                .iter()
                .map(|g| {
                    Some(VideoSegments {
                        video: g.get("video")?.as_str()?.to_string(),
                        segments: segments_from_json(g.get("segments")?)?,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            Some(QueryOutput::Multi(groups))
        }
        _ => None,
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

/// Writes `out` as [`query_output_to_json`] would render it, straight
/// from the answer.
pub fn write_query_output(w: &mut Writer<'_>, out: &QueryOutput) {
    w.object(|w| {
        w.key("kind");
        match out {
            QueryOutput::Segments(segments) => {
                w.str("segments");
                w.key("segments");
                write_segments(w, segments);
            }
            QueryOutput::Profile(QueryProfile { segments, span }) => {
                w.str("profile");
                w.key("segments");
                write_segments(w, segments);
                w.key("span");
                w.value(&span.to_json());
            }
            QueryOutput::Plan(span) => {
                w.str("plan");
                w.key("span");
                w.value(&span.to_json());
            }
            QueryOutput::Multi(groups) => {
                w.str("multi");
                w.key("videos");
                w.array(|w| {
                    for group in groups {
                        w.object(|w| {
                            w.key("segments");
                            write_segments(w, &group.segments);
                            w.key("video");
                            w.str(&group.video);
                        });
                    }
                });
            }
        }
    });
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

fn read_segment(r: &mut Reader<'_>) -> Result<Option<RetrievedSegment>, ParseError> {
    let (mut start, mut end, mut label, mut driver) = (None, None, None, None);
    r.object(|key, r| {
        match key.as_ref() {
            "start" => start = r.u64()?,
            "end" => end = r.u64()?,
            "label" => label = r.string()?,
            "driver" => {
                driver = if r.null()? {
                    Some(None)
                } else {
                    r.string()?.map(Some)
                }
            }
            _ => {}
        }
        Ok(())
    })?;
    Ok(match (start, end, label, driver) {
        (Some(start), Some(end), Some(label), Some(driver)) => Some(RetrievedSegment {
            start: start as usize,
            end: end as usize,
            label: label.into_owned(),
            driver: driver.map(Cow::into_owned),
        }),
        _ => None,
    })
}

fn read_group(r: &mut Reader<'_>) -> Result<Option<VideoSegments>, ParseError> {
    let (mut video, mut segments) = (None, None);
    r.object(|key, r| {
        match key.as_ref() {
            "video" => video = r.string()?,
            "segments" => segments = read_list(r, read_segment)?,
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
/// [`query_output_from_json`] returns `None` for its tree.
pub fn read_query_output(r: &mut Reader<'_>) -> Result<Option<QueryOutput>, ParseError> {
    let (mut kind, mut segments, mut span, mut videos) = (None, None, None, None);
    r.object(|key, r| {
        match key.as_ref() {
            "kind" => kind = r.string()?,
            "segments" => segments = read_list(r, read_segment)?,
            "span" => span = SpanNode::from_json(&r.value()?),
            "videos" => videos = read_list(r, read_group)?,
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

/// Splits an encoded cross-video answer into its groups without
/// decoding a row: for each element of `videos`, the video it names
/// (empty when it names none) and its raw text. `None` when `body` is
/// not JSON or has no `videos` array. A scatter-gather router merges
/// shard answers with this and [`join_groups`].
pub fn split_groups(body: &str) -> Option<Vec<(Cow<'_, str>, &str)>> {
    let mut groups = None;
    let mut r = Reader::new(body);
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
                list.push((video.unwrap_or_default(), r.since(mark)));
                Ok(())
            })?;
            groups = is_array.then_some(list);
        }
        Ok(())
    })
    .ok()?;
    r.end().ok()?;
    groups
}

/// The cross-video answer made of `groups` — raw texts as
/// [`split_groups`] returns them — in the order given: the bytes
/// [`write_query_output`] writes for the same groups.
pub fn join_groups<'a>(groups: impl IntoIterator<Item = &'a str>) -> String {
    let mut body = String::from(r#"{"kind":"multi","videos":["#);
    for (i, group) in groups.into_iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(group);
    }
    body.push_str("]}");
    body
}

fn attempt_to_json(a: &MethodAttempt) -> Value {
    json!({
        "method": (a.method.clone()),
        "tries": (a.tries as f64),
        "error": (a.error.clone()),
    })
}

fn rank_to_json(r: &MethodRank) -> Value {
    json!({
        "method": (r.method.clone()),
        "score": (r.score),
        "measured": (r.measured),
        "failures": (r.failures as f64),
    })
}

/// Encodes an ingest report, attempts and ranking included.
pub fn ingest_report_to_json(report: &IngestReport) -> Value {
    json!({
        "n_clips": (report.n_clips as f64),
        "n_keyword_spots": (report.n_keyword_spots as f64),
        "n_captions": (report.n_captions as f64),
        "extraction_method": (report.extraction_method.clone()),
        "attempts": (Value::Array(report.attempts.iter().map(attempt_to_json).collect())),
        "degraded": (report.degraded),
        "ranking": (Value::Array(report.ranking.iter().map(rank_to_json).collect())),
        "reranked": (report.reranked),
        "rationale": (report.rationale.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_segments() -> Vec<RetrievedSegment> {
        vec![
            RetrievedSegment {
                start: 10,
                end: 25,
                label: "highlight".into(),
                driver: Some("schumacher".into()),
            },
            RetrievedSegment {
                start: 40,
                end: 41,
                label: "pit_stop".into(),
                driver: None,
            },
        ]
    }

    #[test]
    fn segments_round_trip() {
        for output in [
            QueryOutput::Segments(sample_segments()),
            QueryOutput::Multi(vec![
                VideoSegments {
                    video: "german".into(),
                    segments: sample_segments(),
                },
                VideoSegments {
                    video: "monza".into(),
                    segments: Vec::new(),
                },
            ]),
            QueryOutput::Plan(
                SpanNode::new("query")
                    .with_meta("target", "Highlights")
                    .with_child(SpanNode::new("conceptual:select_events")),
            ),
            QueryOutput::Profile(QueryProfile {
                segments: sample_segments(),
                span: SpanNode::leaf("query", 1234)
                    .with_child(SpanNode::leaf("mil:eval", 900).with_meta("rows", "2")),
            }),
        ] {
            let encoded = query_output_to_json(&output);
            let reparsed = serde_json::from_str(&encoded.to_string()).expect("wire text parses");
            let decoded = query_output_from_json(&reparsed).expect("decodes");
            match (&output, &decoded) {
                (QueryOutput::Segments(a), QueryOutput::Segments(b)) => assert_eq!(a, b),
                (QueryOutput::Plan(a), QueryOutput::Plan(b)) => assert_eq!(a, b),
                (QueryOutput::Profile(a), QueryOutput::Profile(b)) => {
                    assert_eq!(a.segments, b.segments);
                    assert_eq!(a.span, b.span);
                }
                (QueryOutput::Multi(a), QueryOutput::Multi(b)) => assert_eq!(a, b),
                _ => panic!("variant changed across round trip"),
            }
        }
    }

    #[test]
    fn malformed_wire_data_is_rejected_not_panicked() {
        for bad in [
            serde_json::json!({"kind": "segments"}),
            serde_json::json!({"kind": "nonsense"}),
            serde_json::json!({"segments": []}),
            serde_json::json!({"kind": "multi"}),
            serde_json::json!({"kind": "multi", "videos": [{"segments": []}]}),
            serde_json::from_str(r#"{"kind": "segments", "segments": [{"start": -1}]}"#)
                .expect("valid JSON text"),
            serde_json::Value::Null,
        ] {
            assert!(query_output_from_json(&bad).is_none(), "accepted {bad}");
        }
    }

    #[test]
    fn ingest_report_encodes_attempt_history() {
        let report = IngestReport {
            n_clips: 60,
            n_keyword_spots: 3,
            n_captions: 5,
            extraction_method: "histogram".into(),
            attempts: vec![MethodAttempt {
                method: "optical_flow".into(),
                tries: 2,
                error: Some("fault at extract.flow".into()),
            }],
            degraded: true,
            ranking: vec![MethodRank {
                method: "optical_flow".into(),
                score: 1.25,
                measured: true,
                failures: 2,
            }],
            reranked: false,
            rationale: "static order".into(),
        };
        let v = ingest_report_to_json(&report);
        assert_eq!(v.get("n_clips").and_then(Value::as_u64), Some(60));
        assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(true));
        let attempt = v.get("attempts").and_then(|a| a.idx(0)).expect("attempt");
        assert_eq!(
            attempt.get("method").and_then(Value::as_str),
            Some("optical_flow")
        );
        let rank = v.get("ranking").and_then(|a| a.idx(0)).expect("rank");
        assert_eq!(rank.get("failures").and_then(Value::as_u64), Some(2));
    }

    // ---- the byte codec against the tree functions it replaces ----

    use proptest::prelude::*;

    fn encoded(output: &QueryOutput) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_query_output(&mut Writer::new(&mut bytes), output);
        bytes
    }

    /// The three ways a server, router or client consumes a reply body:
    /// typed, as a tree, and skipped for forwarding.
    fn typed(bytes: &[u8]) -> Result<Option<QueryOutput>, ParseError> {
        let mut r = Reader::from_slice(bytes)?;
        let output = read_query_output(&mut r)?;
        r.end().map(|()| output)
    }

    fn via_tree(bytes: &[u8]) -> Result<Option<QueryOutput>, ParseError> {
        serde_json::from_slice(bytes).map(|tree| query_output_from_json(&tree))
    }

    fn skipped(bytes: &[u8]) -> Result<(), ParseError> {
        let mut r = Reader::from_slice(bytes)?;
        r.skip()?;
        r.end()
    }

    /// `QueryOutput` has no `PartialEq`; its tree has.
    fn as_tree(
        decoded: Result<Option<QueryOutput>, ParseError>,
    ) -> Result<Option<Value>, ParseError> {
        decoded.map(|output| output.as_ref().map(query_output_to_json))
    }

    /// Typed decoding, tree decoding and `skip()` must accept or reject
    /// `bytes` alike — at the same offset, for the same reason — and
    /// decode them alike.
    fn assert_read_alike(bytes: &[u8]) -> Result<(), TestCaseError> {
        let (typed, tree) = (as_tree(typed(bytes)), as_tree(via_tree(bytes)));
        prop_assert_eq!(
            &typed,
            &tree,
            "typed vs tree on {:?}",
            String::from_utf8_lossy(bytes)
        );
        prop_assert_eq!(
            skipped(bytes).err(),
            tree.err(),
            "skip() vs from_slice on {:?}",
            String::from_utf8_lossy(bytes)
        );
        Ok(())
    }

    const ALPHABET: [&str; 16] = [
        "a", "Z", "7", " ", "_", "\"", "\\", "/", "\n", "\t", "\u{0}", "\u{1f}", "\u{7f}", "É",
        "😀", "\u{2028}",
    ];

    fn arb_text(rng: &mut TestRng) -> String {
        (0..rng.below(7))
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    fn arb_clip(rng: &mut TestRng) -> usize {
        match rng.below(4) {
            0 => rng.below(10) as usize,
            1 => rng.below(100_000) as usize,
            // Beyond 2^53 a number is written as the nearest double.
            2 => (1 << 53) + rng.below(1 << 20) as usize,
            _ => rng.next_u64() as usize,
        }
    }

    fn arb_segments(rng: &mut TestRng) -> Vec<RetrievedSegment> {
        (0..rng.below(5))
            .map(|_| RetrievedSegment {
                start: arb_clip(rng),
                end: arb_clip(rng),
                label: arb_text(rng),
                driver: (rng.below(2) == 0).then(|| arb_text(rng)),
            })
            .collect()
    }

    fn arb_span(rng: &mut TestRng, depth: u64) -> SpanNode {
        let mut span = SpanNode::leaf(&arb_text(rng), rng.below(1 << 40));
        for _ in 0..rng.below(3) {
            span = span.with_meta(&arb_text(rng), arb_text(rng));
        }
        for _ in 0..rng.below(3).min(depth) {
            span = span.with_child(arb_span(rng, depth - 1));
        }
        span
    }

    struct ArbOutput;

    impl Strategy for ArbOutput {
        type Value = QueryOutput;

        fn generate(&self, rng: &mut TestRng) -> QueryOutput {
            match rng.below(4) {
                0 => QueryOutput::Segments(arb_segments(rng)),
                1 => QueryOutput::Profile(QueryProfile {
                    segments: arb_segments(rng),
                    span: arb_span(rng, 3),
                }),
                2 => QueryOutput::Plan(arb_span(rng, 3)),
                _ => QueryOutput::Multi(
                    (0..rng.below(4))
                        .map(|_| VideoSegments {
                            video: arb_text(rng),
                            segments: arb_segments(rng),
                        })
                        .collect(),
                ),
            }
        }
    }

    /// A random tree hung with the reply's own key names, so that every
    /// field turns up missing, doubled up under another kind, or holding
    /// the wrong type.
    fn arb_tree(rng: &mut TestRng, depth: u64) -> Value {
        const KEYS: [&str; 12] = [
            "kind",
            "segments",
            "span",
            "videos",
            "video",
            "start",
            "end",
            "label",
            "driver",
            "name",
            "elapsed_ns",
            "x",
        ];
        const KINDS: [&str; 5] = ["segments", "profile", "plan", "multi", "other"];
        match rng.below(if depth == 0 { 6 } else { 9 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 0),
            2 => Value::Number(rng.below(1000) as f64),
            3 => Value::Number(rng.unit_f64() * 1e6 - 5e5),
            4 => Value::String(arb_text(rng)),
            5 => Value::String(KINDS[rng.below(5) as usize].into()),
            6 => Value::Array(
                (0..rng.below(4))
                    .map(|_| arb_tree(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.below(6))
                    .map(|_| {
                        let key = KEYS[rng.below(12) as usize].to_string();
                        (key, arb_tree(rng, depth - 1))
                    })
                    .collect(),
            ),
        }
    }

    /// Descends a random path into `tree` and replaces what it finds
    /// there — or, in an object, removes it.
    fn graft(tree: &mut Value, rng: &mut TestRng) {
        let descend = rng.below(4) > 0;
        match tree {
            Value::Object(map) if descend && !map.is_empty() => {
                let key = map
                    .keys()
                    .nth(rng.below(map.len() as u64) as usize)
                    .cloned();
                let key = key.expect("nth below len");
                if rng.below(8) == 0 {
                    map.remove(&key);
                } else if let Some(child) = map.get_mut(&key) {
                    graft(child, rng);
                }
            }
            Value::Array(items) if descend && !items.is_empty() => {
                let at = rng.below(items.len() as u64) as usize;
                graft(&mut items[at], rng);
            }
            node => *node = arb_tree(rng, 2),
        }
    }

    /// Well-formed documents around the reply's shape: a valid reply
    /// with up to two grafts (a third of them still decode), or a random
    /// tree outright.
    struct ArbDocument;

    impl Strategy for ArbDocument {
        type Value = Value;

        fn generate(&self, rng: &mut TestRng) -> Value {
            if rng.below(8) == 0 {
                return arb_tree(rng, 4);
            }
            let mut tree = query_output_to_json(&ArbOutput.generate(rng));
            for _ in 0..rng.below(3) {
                graft(&mut tree, rng);
            }
            tree
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// What the writer emits is what the tree renders, byte for byte,
        /// and reading it back agrees with the tree functions.
        #[test]
        fn the_byte_codec_is_the_tree_codec(output in ArbOutput) {
            let bytes = encoded(&output);
            prop_assert_eq!(
                String::from_utf8_lossy(&bytes),
                query_output_to_json(&output).to_string()
            );
            let decoded = as_tree(typed(&bytes));
            prop_assert!(matches!(decoded, Ok(Some(_))), "typed decoding refused its own bytes");
            prop_assert_eq!(decoded, as_tree(via_tree(&bytes)));
        }

        /// A cross-video answer splits into its groups and joins back
        /// into itself; split across "shards" and joined, it is the
        /// answer over all of them.
        #[test]
        fn groups_split_and_join_without_decoding(output in ArbOutput, cut in 0usize..5) {
            let bytes = encoded(&output);
            let body = std::str::from_utf8(&bytes).expect("UTF-8");
            let QueryOutput::Multi(all) = &output else {
                // Not a cross-video answer: nothing to split, as the
                // tree says too.
                let tree = serde_json::from_str(body).expect("valid");
                prop_assert_eq!(
                    split_groups(body).is_some(),
                    tree.get("videos").is_some_and(|v| v.as_array().is_some())
                );
                return Ok(());
            };
            let groups = split_groups(body).expect("a multi answer has groups");
            let names: Vec<&str> = groups.iter().map(|(video, _)| video.as_ref()).collect();
            prop_assert_eq!(names, all.iter().map(|g| g.video.as_str()).collect::<Vec<_>>());
            prop_assert_eq!(join_groups(groups.iter().map(|g| g.1)), body);
            let (left, right) = all.split_at(cut.min(all.len()));
            let parts = [left, right].map(|part| encoded(&QueryOutput::Multi(part.to_vec())));
            let regrouped: Vec<&str> = parts
                .iter()
                .flat_map(|part| split_groups(std::str::from_utf8(part).expect("UTF-8")))
                .flatten()
                .map(|(_, raw)| raw)
                .collect();
            prop_assert_eq!(join_groups(regrouped), body);
        }

        /// Well-formed documents of every shape, right and wrong.
        #[test]
        fn random_documents_read_alike(tree in ArbDocument) {
            assert_read_alike(tree.to_string().as_bytes())?;
        }

        /// Valid reply bodies with bytes overwritten, inserted, removed,
        /// or the tail cut off.
        #[test]
        fn mutated_replies_read_alike(
            output in ArbOutput,
            edits in collection::vec((0u64..1 << 32, 0u8..=255, 0u8..4), 1..4),
        ) {
            let mut bytes = encoded(&output);
            for (at, byte, edit) in edits {
                let at = at as usize % bytes.len();
                match edit {
                    0 => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    2 => drop(bytes.remove(at)),
                    _ => bytes.truncate(at),
                }
                if bytes.is_empty() {
                    break;
                }
            }
            assert_read_alike(&bytes)?;
        }
    }

    #[test]
    fn hostile_and_ambiguous_documents_read_alike() {
        let deep_array = "[".repeat(1000) + &"]".repeat(1000);
        let deep_span = format!(
            r#"{{"kind":"plan","span":{}{}}}"#,
            r#"{"name":"n","elapsed_ns":0,"meta":{},"children":["#.repeat(1000),
            "]}".repeat(1000)
        );
        let deep_rows = format!(r#"{{"kind":"segments","segments":{deep_array}}}"#);
        for doc in [
            deep_array.as_str(),
            &deep_span,
            &deep_rows,
            // A repeated key: the last one counts, as in the tree.
            r#"{"kind":"plan","kind":"segments","segments":[]}"#,
            r#"{"kind":"segments","segments":[{"start":1,"end":2,"label":"a","driver":null,"start":"x"}]}"#,
            r#"{"kind":"segments","segments":[{"start":1,"end":2,"label":"a","driver":null,"driver":"D"}]}"#,
            r#"{"kind":"segments","segments":5,"segments":[]}"#,
            // A field of the wrong type that this kind does not read.
            r#"{"kind":"plan","span":{"name":"q","elapsed_ns":0,"meta":{},"children":[]},"segments":5}"#,
            r#"{"kind":"segments","segments":[],"span":7}"#,
            // Numbers at the edges of u64.
            r#"{"kind":"segments","segments":[{"start":18446744073709551616,"end":0,"label":"","driver":null}]}"#,
            r#"{"kind":"segments","segments":[{"start":-0,"end":1e2,"label":"","driver":null}]}"#,
            r#"{"kind":"segments","segments":[{"start":01,"end":1,"label":"","driver":null}]}"#,
            r#" { "kind" : "multi" , "videos" : [ { "video" : "v" , "segments" : [ ] } ] } "#,
            r#"{"kind":"multi","videos":[{"video":"v","segments":[]},7]}"#,
            r#"{"kind":"segments","segments":[]} x"#,
            "",
            "null",
        ] {
            if let Err(TestCaseError::Fail(why)) = assert_read_alike(doc.as_bytes()) {
                panic!("{why}");
            }
        }
        assert!(typed(deep_span.as_bytes()).is_err());
        // Splitting groups validates what it passes over, too.
        assert!(split_groups(r#"{"videos":[{"video":"v"}],"x":01}"#).is_none());
        assert!(split_groups(r#"{"videos":[{"video":"v"}]} x"#).is_none());
        assert!(split_groups(r#"{"videos":{}}"#).is_none());
        let odd = split_groups(r#"{"videos":[1],"videos":[ {"video":7} , "s" ]}"#);
        assert_eq!(
            odd,
            Some(vec![("".into(), r#"{"video":7}"#), ("".into(), r#""s""#)]),
            "a repeated member counts as its last; a group may name no video"
        );
        assert!(matches!(
            typed(br#"{"kind":"segments","segments":[],"span":7}"#),
            Ok(Some(QueryOutput::Segments(_)))
        ));
    }
}
