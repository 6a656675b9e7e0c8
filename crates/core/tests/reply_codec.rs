//! The ways of reading one reply body agree, and replies written from
//! cache entries are the encoded rows.
//!
//! A server, a router and a client read a `RETRIEVE` reply typed
//! (`read_query_output`), skipped (`Reader::skip`) or as a `Part`; the
//! tree decoder kept in `oracle/tree.rs` defines what each must accept,
//! reject and decode. `codec_differential.rs` holds the same readings to
//! the codec as it stood before its fast paths.
//!
//! ```text
//! cargo test -q -p f1-cobra --test reply_codec
//! ```

mod oracle;

use cobra_obs::SpanNode;
use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::json::{
    answered_len, join_groups, query_output_to_json, read_query_output, write_answered,
    write_query_output, Part,
};
use f1_cobra::{QueryOutput, QueryProfile, RetrievedSegment, Vdbms, VideoSegments};
use proptest::prelude::*;
use serde_json::{ParseError, Reader, Value, Writer};

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
        let decoded = oracle::tree::query_output_from_json(&reparsed).expect("decodes");
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
        assert!(
            oracle::tree::query_output_from_json(&bad).is_none(),
            "accepted {bad}"
        );
    }
}

// ---- the byte codec against the tree functions it replaces ----

fn encoded(output: &QueryOutput) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_query_output(&mut Writer::new(&mut bytes), output);
    bytes
}

/// The four ways a server, router or client consumes a reply body:
/// typed, as a tree, skipped, and read as a part for forwarding.
fn typed(bytes: &[u8]) -> Result<Option<QueryOutput>, ParseError> {
    let mut r = Reader::from_slice(bytes)?;
    let output = read_query_output(&mut r)?;
    r.end().map(|()| output)
}

fn via_tree(bytes: &[u8]) -> Result<Option<QueryOutput>, ParseError> {
    serde_json::from_slice(bytes).map(|tree| oracle::tree::query_output_from_json(&tree))
}

fn skipped(bytes: &[u8]) -> Result<&str, ParseError> {
    let mut r = Reader::from_slice(bytes)?;
    let raw = r.skip()?;
    r.end().map(|()| raw)
}

fn parted(bytes: &[u8]) -> Result<Part, ParseError> {
    let mut r = Reader::from_slice(bytes)?;
    let part = Part::read(&mut r)?;
    r.end().map(|()| part)
}

/// `QueryOutput` has no `PartialEq`; its tree has.
fn as_tree(decoded: Result<Option<QueryOutput>, ParseError>) -> Result<Option<Value>, ParseError> {
    decoded.map(|output| output.as_ref().map(query_output_to_json))
}

/// Typed decoding, tree decoding, `skip()` and `Part::read` must
/// accept or reject `bytes` alike — at the same offset, for the same
/// reason — and decode them alike; a part keeps what `skip()` keeps.
fn assert_read_alike(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (typed, tree) = (as_tree(typed(bytes)), as_tree(via_tree(bytes)));
    let lossy = String::from_utf8_lossy(bytes);
    prop_assert_eq!(&typed, &tree, "typed vs tree on {:?}", lossy);
    let skipped = skipped(bytes);
    prop_assert_eq!(
        skipped.clone().err(),
        tree.err(),
        "skip() vs from_slice on {:?}",
        lossy
    );
    prop_assert_eq!(
        parted(bytes).map(|part| part.text().to_owned()),
        skipped.map(str::to_owned),
        "Part::read vs skip() on {:?}",
        lossy
    );
    Ok(())
}

const ALPHABET: [&str; 16] = [
    "a", "Z", "7", " ", "_", "\"", "\\", "/", "\n", "\t", "\u{0}", "\u{1f}", "\u{7f}", "É", "😀",
    "\u{2028}",
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
            label: arb_text(rng).into(),
            driver: (rng.below(2) == 0).then(|| arb_text(rng).into()),
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

    /// A cross-video answer read as a part joins back into itself;
    /// split across "shards", read as parts and joined, it is the
    /// answer over all of them.
    #[test]
    fn parts_locate_groups_that_join_without_decoding(output in ArbOutput, cut in 0usize..5) {
        let bytes = encoded(&output);
        let part = parted(&bytes).expect("a valid body");
        let QueryOutput::Multi(all) = &output else {
            // Not a cross-video answer: no groups, as the tree says.
            let tree = serde_json::from_slice(&bytes).expect("valid");
            prop_assert_eq!(
                part.groups().is_some(),
                tree.get("videos").is_some_and(|v| v.as_array().is_some())
            );
            return Ok(());
        };
        let joined = |groups: Vec<&str>| {
            let mut body = Vec::new();
            join_groups(&mut Writer::new(&mut body), groups);
            body
        };
        let groups: Vec<(&str, &str)> = part.groups().expect("a multi answer has groups").collect();
        let names: Vec<&str> = groups.iter().map(|g| g.0).collect();
        prop_assert_eq!(names, all.iter().map(|g| g.video.as_str()).collect::<Vec<_>>());
        prop_assert_eq!(joined(groups.iter().map(|g| g.1).collect()), bytes.clone());
        let (left, right) = all.split_at(cut.min(all.len()));
        let parts = [left, right]
            .map(|half| parted(&encoded(&QueryOutput::Multi(half.to_vec()))).expect("valid"));
        let regrouped: Vec<&str> = parts
            .iter()
            .flat_map(|part| part.groups().expect("groups"))
            .map(|(_, raw)| raw)
            .collect();
        prop_assert_eq!(joined(regrouped), bytes);
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

// ---- replies written from cache entries against encoded rows ----

/// Up to four videos (names whose order is not their insertion
/// order), each with up to five events: highlights and pit stops
/// naming hostile drivers, `MONTOYA` or nobody.
struct ArbCatalog;

impl Strategy for ArbCatalog {
    type Value = Vec<(String, Vec<EventRecord>)>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let names = ["race-2", "gp-a", "race-10", "gp-b"];
        let n = rng.below(names.len() as u64 + 1) as usize;
        names[..n]
            .iter()
            .map(|name| {
                let events = (0..rng.below(6))
                    .map(|_| {
                        let start = rng.below(1000) as usize;
                        EventRecord {
                            kind: ["highlight", "caption:pit_stop"][rng.below(2) as usize].into(),
                            start,
                            end: start + rng.below(50) as usize,
                            driver: match rng.below(3) {
                                0 => None,
                                1 => Some("MONTOYA".into()),
                                _ => Some(arb_text(rng)),
                            },
                        }
                    })
                    .collect();
                (name.to_string(), events)
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whether an answer was just executed or comes from the cache,
    /// the body copied from its entries' stored lists is the body
    /// `write_query_output` writes for `run`'s rows — on every video,
    /// on all of them (`"*"`), and for empty answers — and
    /// `answered_len` is its length.
    #[test]
    fn replies_from_stored_lists_are_the_encoded_rows(
        catalog in ArbCatalog,
        run_first in collection::vec(0u8..2, 16),
    ) {
        let vdbms = Vdbms::try_new().expect("boot");
        for (name, events) in &catalog {
            let info = VideoInfo { name: name.clone(), n_clips: 1100, n_frames: 2750 };
            vdbms.catalog.register_video(info).expect("register");
            vdbms.catalog.store_events(name, events).expect("store");
        }
        let budget = f1_monet::ExecBudget::unlimited();
        let hits = || {
            let snapshot = vdbms.kernel().metrics().registry().snapshot();
            snapshot.counter("cache.result", &[("result", "hit")])
        };
        let statements = [
            "RETRIEVE HIGHLIGHTS",
            "RETRIEVE PITSTOPS",
            "RETRIEVE HIGHLIGHTS WITH DRIVER \"MONTOYA\"",
            "RETRIEVE EVENTS passing",
        ];
        let names: Vec<&str> = catalog.iter().map(|(name, _)| name.as_str()).collect();
        // Sweeps first for half the statements, last for the others,
        // so that a sweep meets both missing and stored answers.
        let mut order = Vec::new();
        for (i, text) in statements.into_iter().enumerate() {
            let mut videos: Vec<&str> = names.clone();
            videos.insert(if i % 2 == 0 { 0 } else { videos.len() }, "*");
            order.extend(videos.into_iter().map(|video| (video, text)));
        }
        let mut stored = std::collections::HashSet::new();
        for (i, (video, text)) in order.into_iter().enumerate() {
            let spliced = || {
                let mut body = Vec::new();
                let answered = vdbms.answer(video, text, &budget).expect("answers");
                write_answered(&mut Writer::new(&mut body), &answered);
                // The reply buffer is sized to the byte.
                assert_eq!(answered_len(&answered), body.len(), "{text} on {video}");
                String::from_utf8(body).expect("UTF-8")
            };
            let rows = || {
                let output = vdbms.run_with_budget(video, text, &budget).expect("runs");
                String::from_utf8(encoded(&output)).expect("UTF-8")
            };
            // A miss, then a hit, then a hit — in either order.
            let before = hits();
            let (first, second) = if run_first[i % 16] == 1 {
                let rows = rows();
                (spliced(), rows)
            } else {
                (spliced(), rows())
            };
            let third = spliced();
            let read: Vec<&str> = if video == "*" { names.clone() } else { vec![video] };
            let missed = read.iter().filter(|&&v| stored.insert((v, text))).count();
            let expected_hits = 3 * read.len() - missed;
            prop_assert_eq!(hits() - before, expected_hits as u64, "{} on {}", text, video);
            prop_assert_eq!(&first, &second, "{} on {}", text, video);
            prop_assert_eq!(&first, &third, "{} on {}", text, video);
        }
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
    // Locating groups validates what it passes over, too.
    assert!(parted(br#"{"videos":[{"video":"v"}],"x":01}"#).is_err());
    assert!(parted(br#"{"videos":[{"video":"v"}]} x"#).is_err());
    let groups = |body: &[u8]| -> Option<Vec<(String, String)>> {
        let part = parted(body).expect("valid");
        let groups = part
            .groups()?
            .map(|(v, raw)| (v.to_owned(), raw.to_owned()));
        Some(groups.collect())
    };
    assert_eq!(groups(br#"{"videos":{}}"#), None);
    assert_eq!(
        groups(br#"{"kind":"multi"}"#),
        None,
        "no groups is not empty"
    );
    assert_eq!(groups(br#"[{"videos":[]}]"#), None);
    assert_eq!(
        groups(br#"{"videos":[1],"videos":[ {"video":7,"video":"A"} , "s" ]}"#),
        Some(vec![
            ("A".into(), r#"{"video":7,"video":"A"}"#.into()),
            ("".into(), r#""s""#.into())
        ]),
        "a repeated member counts as its last; a group may name no video"
    );
    assert!(matches!(
        typed(br#"{"kind":"segments","segments":[],"span":7}"#),
        Ok(Some(QueryOutput::Segments(_)))
    ));
}
