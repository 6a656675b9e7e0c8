//! The JSON codec against itself as it stood before its fast paths.
//!
//! `core::json`'s own proptests hold the ways of reading one reply —
//! typed, as a tree, skipped, as a `Part` — to each other, all through
//! the same `Reader`: a fast path wrong on every one of them would pass
//! there. Here every reading is held to the pre-fast-path codec, kept
//! verbatim in `oracle/`: on random documents, on mutated and cut-off
//! replies, on strings with every kind of escape (and broken ones) at
//! every position, and on numbers around the 15-digit fast path, the new
//! reader must return the old value or the old `ParseError` — offset and
//! message — whether it reads typed, with `value()`, with `skip()` or as
//! a `Part`; and the new writer must write the old bytes.
//!
//! ```text
//! cargo test -q -p f1-cobra --test codec_differential
//! ```

mod oracle;

use std::borrow::Cow;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

use cobra_obs::SpanNode;
use f1_cobra::json::write_query_output;
use f1_cobra::json::{query_output_to_json, read_query_output, Part};
use f1_cobra::{QueryOutput, QueryProfile, RetrievedSegment, VideoSegments};
use proptest::prelude::*;
use serde_json::{ParseError, Reader, Value, Writer};

// ---- reading: every path, new against old ----

/// A walk over one document by typed reads, object and array visitors,
/// `value()`, `skip()` and `mark`/`since`, chosen by `choices` so that
/// both readers take the same one; logs what each read returned.
macro_rules! typed_walk {
    ($walk:ident, $read:ident, $reader:ty) => {
        fn $walk(
            r: &mut $reader,
            choices: &[u8],
            at: &mut usize,
            log: &mut Vec<String>,
        ) -> Result<(), ParseError> {
            let choice = choices[*at % choices.len()];
            *at += 1;
            match choice % 9 {
                0 => log.push(format!("u64 {:?}", r.u64()?)),
                1 => {
                    let s = r.string()?;
                    let borrowed = matches!(s, Some(Cow::Borrowed(_)));
                    log.push(format!("string {s:?} borrowed {borrowed}"));
                }
                2 => log.push(format!("bool {:?}", r.bool()?)),
                3 => log.push(format!("null {:?}", r.null()?)),
                4 => log.push(format!("value {:?}", r.value()?)),
                5 => log.push(format!("skip {:?}", r.skip()?)),
                6 => {
                    let was = r.object(|key, r| {
                        log.push(format!("key {key:?}"));
                        $walk(r, choices, at, log)
                    })?;
                    log.push(format!("object {was}"));
                }
                7 => {
                    let was = r.array(|r| $walk(r, choices, at, log))?;
                    log.push(format!("array {was}"));
                }
                _ => {
                    let mark = r.mark();
                    let n = r.u64()?;
                    log.push(format!("marked {n:?} {:?}", r.since(mark)));
                }
            }
            Ok(())
        }

        fn $read(doc: &[u8], choices: &[u8]) -> (Vec<String>, Result<(), ParseError>) {
            let mut log = Vec::new();
            let read = <$reader>::from_slice(doc).and_then(|mut r| {
                $walk(&mut r, choices, &mut 0, &mut log)?;
                r.end()
            });
            (log, read)
        }
    };
}

typed_walk!(walk_new, typed_new, Reader<'_>);
typed_walk!(walk_old, typed_old, oracle::Reader<'_>);

fn tree_new(doc: &[u8]) -> Result<Value, ParseError> {
    serde_json::from_slice(doc)
}

fn tree_old(doc: &[u8]) -> Result<Value, ParseError> {
    let mut r = oracle::Reader::from_slice(doc)?;
    let value = r.value()?;
    r.end().map(|()| value)
}

fn skipped_new(doc: &[u8]) -> Result<String, ParseError> {
    let mut r = Reader::from_slice(doc)?;
    let raw = r.skip()?.to_owned();
    r.end().map(|()| raw)
}

fn skipped_old(doc: &[u8]) -> Result<String, ParseError> {
    let mut r = oracle::Reader::from_slice(doc)?;
    let raw = r.skip()?.to_owned();
    r.end().map(|()| raw)
}

/// A part as its text and its groups' `(video, raw text)`.
type PartView = (String, Option<Vec<(String, String)>>);

fn parted_new(doc: &[u8]) -> Result<PartView, ParseError> {
    let mut r = Reader::from_slice(doc)?;
    let part = Part::read(&mut r)?;
    r.end()?;
    let groups = part.groups().map(|groups| {
        groups
            .map(|(video, raw)| (video.to_owned(), raw.to_owned()))
            .collect()
    });
    Ok((part.text().to_owned(), groups))
}

/// `Part::read` as written before the fast paths, over the old reader.
fn parted_old(doc: &[u8]) -> Result<PartView, ParseError> {
    let mut r = oracle::Reader::from_slice(doc)?;
    let start = r.mark();
    let mut groups: Option<Vec<(String, Range<usize>)>> = None;
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
    let text = r.since(start).to_owned();
    r.end()?;
    let groups = groups.map(|groups| {
        groups
            .into_iter()
            .map(|(video, at)| (video, text.get(at).unwrap_or_default().to_owned()))
            .collect()
    });
    Ok((text, groups))
}

/// A reply decoded typed by the new reader, against the old reader's
/// tree decoded by the tree functions; compared as trees, since
/// `QueryOutput` has no `PartialEq`.
fn reply_new(doc: &[u8]) -> Result<Option<Value>, ParseError> {
    let mut r = Reader::from_slice(doc)?;
    let output = read_query_output(&mut r)?;
    r.end()?;
    Ok(output.as_ref().map(query_output_to_json))
}

fn reply_old(doc: &[u8]) -> Result<Option<Value>, ParseError> {
    tree_old(doc).map(|tree| {
        oracle::tree::query_output_from_json(&tree)
            .as_ref()
            .map(query_output_to_json)
    })
}

/// Every reading of `doc` by the new codec returns what the old one
/// returns, errors included.
fn assert_reads_as_before(doc: &[u8], choices: &[u8]) -> Result<(), TestCaseError> {
    let lossy = String::from_utf8_lossy(doc);
    prop_assert_eq!(tree_new(doc), tree_old(doc), "value() on {:?}", lossy);
    prop_assert_eq!(skipped_new(doc), skipped_old(doc), "skip() on {:?}", lossy);
    prop_assert_eq!(
        parted_new(doc),
        parted_old(doc),
        "Part::read on {:?}",
        lossy
    );
    prop_assert_eq!(
        reply_new(doc),
        reply_old(doc),
        "read_query_output on {:?}",
        lossy
    );
    prop_assert_eq!(
        typed_new(doc, choices),
        typed_old(doc, choices),
        "typed walk {:?} on {:?}",
        choices,
        lossy
    );
    Ok(())
}

/// Runs [`assert_reads_as_before`] outside a proptest.
fn reads_as_before(doc: &[u8]) {
    for choices in [&[0u8][..], &[1], &[4], &[5], &[6, 0, 1, 2, 3], &[7, 8, 1]] {
        if let Err(TestCaseError::Fail(why)) = assert_reads_as_before(doc, choices) {
            panic!("{why}");
        }
    }
}

// ---- generators ----

/// Text pieces of a string's content as JSON text: plain bytes, every
/// escape, pairs and broken pairs, raw control bytes and non-ASCII.
const STRING_PIECES: [&str; 24] = [
    "a", "Z", "7", " ", "/", "É", "€", "😀", "\u{7f}", "\u{2028}", r#"\""#, r"\\", r"\/", r"\b",
    r"\f", r"\n", r"\r", r"\t", r"é", r"😀", r"\ud800", r"\udc00x", r"\u12", r"\x",
];

/// A raw string token: mostly plain, with pieces that escape, break an
/// escape, end the string early or carry a raw control byte.
fn arb_string_token(rng: &mut TestRng) -> String {
    let mut text = String::from("\"");
    for _ in 0..rng.below(10) {
        match rng.below(12) {
            0 => text.push(char::from(rng.below(0x20) as u8)),
            1 => text.push('"'),
            2..=4 => text.push_str(STRING_PIECES[rng.below(STRING_PIECES.len() as u64) as usize]),
            _ => text.push(char::from(b'a' + rng.below(26) as u8)),
        }
    }
    if rng.below(16) > 0 {
        text.push('"');
    }
    text
}

/// A raw number token around the fast path: signs, leading zeros, 0–18
/// digits (mostly 14–17), fractions, exponents, and broken ones.
fn arb_number_token(rng: &mut TestRng) -> String {
    let digits = |rng: &mut TestRng, n: u64| -> String {
        (0..n)
            .map(|_| char::from(b'0' + rng.below(10) as u8))
            .collect()
    };
    let mut text = String::new();
    if rng.below(4) == 0 {
        text.push('-');
    }
    if rng.below(6) == 0 {
        text.push('0');
    }
    let len = match rng.below(3) {
        0 => rng.below(19),
        _ => 14 + rng.below(4),
    };
    let int = digits(rng, len);
    text.push_str(&int);
    if rng.below(5) == 0 {
        text.push('.');
        let n = rng.below(4);
        text.push_str(&digits(rng, n));
    }
    if rng.below(5) == 0 {
        text.push(if rng.below(2) == 0 { 'e' } else { 'E' });
        match rng.below(3) {
            0 => text.push('+'),
            1 => text.push('-'),
            _ => {}
        }
        let n = rng.below(4);
        text.push_str(&digits(rng, n));
    }
    text
}

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

fn arb_ws(rng: &mut TestRng) -> &'static str {
    ["", "", "", " ", "\n\t", "\r "][rng.below(6) as usize]
}

/// A document as text, token by token: well-formed most of the time,
/// with raw string and number tokens that may not be, the reply's key
/// names, random whitespace and now and then a stray byte.
fn arb_doc(rng: &mut TestRng, depth: u64) -> String {
    let ws = arb_ws(rng);
    let value = match rng.below(if depth == 0 { 6 } else { 8 }) {
        0 => ["null", "true", "false", "nul", "tru"][rng.below(5) as usize].to_owned(),
        1 | 2 => arb_number_token(rng),
        3 | 4 => arb_string_token(rng),
        5 => {
            let kinds = ["\"segments\"", "\"profile\"", "\"plan\"", "\"multi\""];
            kinds[rng.below(4) as usize].to_owned()
        }
        6 => {
            let items: Vec<String> = (0..rng.below(4)).map(|_| arb_doc(rng, depth - 1)).collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let members: Vec<String> = (0..rng.below(5))
                .map(|_| {
                    let key = if rng.below(6) == 0 {
                        arb_string_token(rng)
                    } else {
                        format!("\"{}\"", KEYS[rng.below(KEYS.len() as u64) as usize])
                    };
                    format!("{key}{}:{}", arb_ws(rng), arb_doc(rng, depth - 1))
                })
                .collect();
            format!("{{{}}}", members.join(","))
        }
    };
    let stray = if rng.below(40) == 0 { "," } else { "" };
    format!("{ws}{value}{stray}{}", arb_ws(rng))
}

/// Any string, control characters and non-ASCII included.
fn arb_text(rng: &mut TestRng) -> String {
    (0..rng.below(12))
        .map(|_| match rng.below(6) {
            0 => char::from(rng.below(0x20) as u8),
            1 => {
                ['"', '\\', '/', '\u{7f}', 'É', '😀', '\u{2028}', '\u{ffff}'][rng.below(8) as usize]
            }
            _ => char::from(b' ' + rng.below(95) as u8),
        })
        .collect()
}

fn arb_u64(rng: &mut TestRng) -> u64 {
    match rng.below(5) {
        0 => rng.below(10),
        1 => rng.below(1_000_000),
        2 => 10u64.pow(rng.below(20) as u32) - rng.below(2),
        3 => (1 << 53) - 2 + rng.below(5),
        _ => rng.next_u64(),
    }
}

fn arb_f64(rng: &mut TestRng) -> f64 {
    match rng.below(6) {
        0 => arb_u64(rng) as f64,
        1 => -(arb_u64(rng) as f64),
        2 => rng.unit_f64() * 1e6 - 5e5,
        3 => [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
        ][rng.below(6) as usize],
        _ => f64::from_bits(rng.next_u64()),
    }
}

fn arb_tree(rng: &mut TestRng, depth: u64) -> Value {
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Number(arb_f64(rng)),
        3 | 4 => Value::String(arb_text(rng)),
        5 => Value::Array(
            (0..rng.below(4))
                .map(|_| arb_tree(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(5))
                .map(|_| {
                    let key = if rng.below(3) == 0 {
                        arb_text(rng)
                    } else {
                        KEYS[rng.below(KEYS.len() as u64) as usize].to_owned()
                    };
                    (key, arb_tree(rng, depth - 1))
                })
                .collect(),
        ),
    }
}

fn arb_segments(rng: &mut TestRng) -> Vec<RetrievedSegment> {
    (0..rng.below(6))
        .map(|_| RetrievedSegment {
            start: arb_u64(rng) as usize,
            end: arb_u64(rng) as usize,
            label: arb_text(rng).into(),
            driver: (rng.below(2) == 0).then(|| arb_text(rng).into()),
        })
        .collect()
}

fn arb_output(rng: &mut TestRng) -> QueryOutput {
    let span = |rng: &mut TestRng| {
        SpanNode::leaf(&arb_text(rng), rng.below(1 << 40))
            .with_meta(&arb_text(rng), arb_text(rng))
            .with_child(SpanNode::leaf(&arb_text(rng), rng.below(100)))
    };
    match rng.below(4) {
        0 => QueryOutput::Segments(arb_segments(rng)),
        1 => QueryOutput::Profile(QueryProfile {
            segments: arb_segments(rng),
            span: span(rng),
        }),
        2 => QueryOutput::Plan(span(rng)),
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

fn encoded(output: &QueryOutput) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_query_output(&mut Writer::new(&mut bytes), output);
    bytes
}

/// A document drawn by [`arb_doc`].
struct ArbDoc;

impl Strategy for ArbDoc {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        arb_doc(rng, 4)
    }
}

/// A reply body with bytes overwritten, inserted or removed, or cut off.
struct MutatedReply;

impl Strategy for MutatedReply {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        let mut bytes = encoded(&arb_output(rng));
        for _ in 0..1 + rng.below(3) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.below(bytes.len() as u64) as usize;
            // Mostly bytes that matter to the grammar.
            let byte = match rng.below(3) {
                0 => rng.below(256) as u8,
                _ => b"\"\\{}[],:0123456789-.eEu \x01"[rng.below(25) as usize],
            };
            match rng.below(4) {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                2 => drop(bytes.remove(at)),
                _ => bytes.truncate(at),
            }
        }
        bytes
    }
}

/// A tree drawn by [`arb_tree`].
struct ArbTree;

impl Strategy for ArbTree {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        arb_tree(rng, 4)
    }
}

/// The choices of a typed walk (see `typed_walk!`).
struct Choices;

impl Strategy for Choices {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        (0..1 + rng.below(16))
            .map(|_| rng.below(256) as u8)
            .collect()
    }
}

// ---- writing: the new writer writes the old bytes ----

/// One write of either writer.
#[derive(Debug, Clone)]
enum Op {
    Str(String),
    Key(String),
    U64(u64),
    F64(f64),
    Tree(Value),
    Raw(String),
}

struct ArbOps;

impl Strategy for ArbOps {
    type Value = Vec<Op>;

    fn generate(&self, rng: &mut TestRng) -> Vec<Op> {
        (0..rng.below(12))
            .map(|_| match rng.below(6) {
                0 => Op::Str(arb_text(rng)),
                1 => Op::Key(arb_text(rng)),
                2 => Op::U64(arb_u64(rng)),
                3 => Op::F64(arb_f64(rng)),
                4 => Op::Tree(arb_tree(rng, 2)),
                _ => Op::Raw(arb_number_token(rng)),
            })
            .collect()
    }
}

macro_rules! written {
    ($writer:ty, $ops:expr) => {{
        let mut out = Vec::new();
        let mut w = <$writer>::new(&mut out);
        w.array(|w| {
            for op in $ops {
                match op {
                    Op::Str(s) => w.str(s),
                    Op::Key(k) => w.object(|w| {
                        w.key(k);
                        w.null();
                    }),
                    Op::U64(v) => w.u64(*v),
                    Op::F64(n) => w.f64(*n),
                    Op::Tree(tree) => w.value(tree),
                    Op::Raw(raw) => w.raw(raw.as_bytes()),
                }
            }
        });
        out
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Documents built token by token, valid or not.
    #[test]
    fn random_documents_read_as_before(doc in ArbDoc, choices in Choices) {
        assert_reads_as_before(doc.as_bytes(), &choices)?;
    }

    /// Valid reply bodies, mutated and cut off.
    #[test]
    fn mutated_replies_read_as_before(doc in MutatedReply, choices in Choices) {
        assert_reads_as_before(&doc, &choices)?;
    }

    /// Trees of every value: written as before, and read back as before.
    #[test]
    fn trees_write_and_read_as_before(tree in ArbTree, choices in Choices) {
        let mut new = Vec::new();
        Writer::new(&mut new).value(&tree);
        let mut old = Vec::new();
        oracle::Writer::new(&mut old).value(&tree);
        prop_assert_eq!(&new, &old);
        assert_reads_as_before(&new, &choices)?;
    }

    /// Strings, keys, integers, doubles, trees and raw text, in any
    /// order: byte for byte the old writer's output.
    #[test]
    fn every_write_is_the_old_bytes(ops in ArbOps) {
        prop_assert_eq!(written!(Writer, &ops), written!(oracle::Writer, &ops), "{:?}", ops);
    }
}

/// Every string piece, and every control byte, at every position of a
/// plain string, as a value, a key and an array element.
#[test]
fn special_bytes_at_every_position_read_as_before() {
    let controls: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
    let mut pieces: Vec<&str> = STRING_PIECES.to_vec();
    pieces.extend(controls.iter().map(String::as_str));
    pieces.extend(["\"", "\\", "\\u", "\\ud83d\\u", "\\ud83d\\ude0"]);
    let base = "abcdefgh";
    for piece in pieces {
        for at in 0..=base.len() {
            let text = format!("{}{piece}{}", &base[..at], &base[at..]);
            for doc in [
                format!("\"{text}\""),
                format!("\"{text}"),
                format!("[\"{text}\", 1]"),
                format!("{{\"{text}\": \"{text}\"}}"),
                format!("{{\"kind\":\"multi\",\"videos\":[{{\"video\":\"{text}\",\"segments\":[]}}]}}"),
                format!(
                    "{{\"kind\":\"segments\",\"segments\":[{{\"start\":1,\"end\":2,\"label\":\"{text}\",\"driver\":\"{text}\"}}]}}"
                ),
            ] {
                reads_as_before(doc.as_bytes());
            }
        }
    }
}

/// Integers at 14–17 digits, leading zeros, signs, fractions and
/// exponents, alone and followed by every byte that may end a number.
#[test]
fn numbers_around_the_fast_path_read_as_before() {
    let numbers = [
        "0",
        "-0",
        "00",
        "01",
        "007",
        "-01",
        "0.0",
        "-0.0",
        "0e0",
        "0E+1",
        "1",
        "9",
        "10",
        "99999999999999",
        "999999999999999",
        "1000000000000000",
        "9999999999999999",
        "9007199254740992",
        "9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
        "123456789012345",
        "1234567890123456",
        "12345678901234567",
        "123456789012345.5",
        "123456789012345e1",
        "123456789012345E-1",
        "1.",
        "1.e3",
        ".5",
        "-",
        "--1",
        "-.5",
        "1e",
        "1e+",
        "+1",
        "1e999",
        "-1e999",
        "2.5",
        "-7",
        "1x",
    ];
    for n in numbers {
        for doc in [
            n.to_owned(),
            format!(" {n} "),
            format!("[{n}]"),
            format!("[{n},{n}]"),
            format!("[{n} ,1]"),
            format!("{{\"a\":{n}}}"),
            format!("{{\"a\":{n},\"b\":{n}}}"),
            format!(
                "{{\"kind\":\"segments\",\"segments\":[{{\"start\":{n},\"end\":{n},\"label\":\"\",\"driver\":null}}]}}"
            ),
        ] {
            reads_as_before(doc.as_bytes());
        }
    }
}

/// Rows in the writer's layout and near misses of it, each in a reply,
/// two to a reply and in a sweep's group: read as the old codec reads
/// them, whether the typed decode recognises the row or its visitor
/// reads it.
#[test]
fn written_rows_and_near_misses_read_as_before() {
    let member = |key: &str, value: &str| format!("\"{key}\":{value}");
    let (driver, end, label, start) = (
        member("driver", "\"HAM\""),
        member("end", "20"),
        member("label", "\"highlight\""),
        member("start", "10"),
    );
    let written = [driver.as_str(), &end, &label, &start];
    let row = |members: &[&str]| format!("{{{}}}", members.join(","));
    let mut rows = vec![
        row(&written),
        row(&[&member("driver", "null"), &end, &label, &start]),
    ];
    // Every order of the members, and each member missing or repeated.
    for order in 0..256 {
        let order: Vec<usize> = (0..4).map(|i| order >> (2 * i) & 3).collect();
        if (0..4).all(|i| order.contains(&i)) {
            rows.push(row(&order.iter().map(|&i| written[i]).collect::<Vec<_>>()));
        }
    }
    for at in 0..4 {
        let mut missing = written.to_vec();
        missing.remove(at);
        rows.push(row(&missing));
        let mut repeated = written.to_vec();
        repeated.insert(at, written[at]);
        rows.push(row(&repeated));
        let key = ["driver", "end", "label", "start"][at];
        let mut again = written.to_vec();
        let other = member(key, "7");
        again.push(&other);
        rows.push(row(&again));
    }
    // One value at a time: escapes, control bytes, non-ASCII and `null`
    // in the strings; leading zeros, 16 digits, floats and signs in the
    // integers.
    let strings = [
        "null",
        "nul",
        "\"null\"",
        "\"\"",
        r#""a\"b""#,
        r#""a\\b""#,
        r#""\u0041""#,
        "\"a\u{1}b\"",
        "\"a\nb\"",
        "\"Räikkönen\"",
        "\"😀\"",
        "\"\u{7f}\"",
        "\"a",
        "1",
        "[]",
    ];
    let ints = [
        "0",
        "00",
        "010",
        "-0",
        "-20",
        "20.0",
        "20.5",
        "2e1",
        "2E1",
        "123456789012345",
        "1234567890123456",
        "9007199254740992",
        "\"20\"",
        "null",
    ];
    for (at, values) in [
        (0, &strings[..]),
        (2, &strings[..]),
        (1, &ints[..]),
        (3, &ints[..]),
    ] {
        for value in values {
            let mut members = written.map(str::to_owned);
            let key = ["driver", "end", "label", "start"][at];
            members[at] = member(key, value);
            rows.push(format!("{{{}}}", members.join(",")));
        }
    }
    // Whitespace at every byte, and the row cut off at every byte.
    let plain = rows[0].clone();
    for at in 0..=plain.len() {
        for ws in [" ", "\n"] {
            rows.push(format!("{}{ws}{}", &plain[..at], &plain[at..]));
        }
        rows.push(plain[..at].to_owned());
    }
    for row in &rows {
        for doc in [
            format!("{{\"kind\":\"segments\",\"segments\":[{row}]}}"),
            format!("{{\"kind\":\"segments\",\"segments\":[{row},{plain}]}}"),
            format!("{{\"kind\":\"segments\",\"segments\":[{plain},{row}]}}"),
            format!("{{\"kind\":\"multi\",\"videos\":[{{\"segments\":[{row}],\"video\":\"v\"}}]}}"),
        ] {
            reads_as_before(doc.as_bytes());
        }
    }
}

// ---- sharing: one allocation per distinct string of a reply ----

/// The distinct allocations among `strings`, told apart by address.
fn allocations<'a>(strings: impl IntoIterator<Item = &'a Arc<str>>) -> usize {
    let addresses: HashSet<*const str> = strings.into_iter().map(Arc::as_ptr).collect();
    addresses.len()
}

/// The rows of a reply read typed, every group's in order.
fn decoded_rows(doc: &[u8]) -> Vec<RetrievedSegment> {
    let mut r = Reader::from_slice(doc).unwrap();
    let output = read_query_output(&mut r).unwrap();
    r.end().unwrap();
    match output {
        Some(QueryOutput::Segments(rows)) => rows,
        Some(QueryOutput::Multi(groups)) => groups.into_iter().flat_map(|g| g.segments).collect(),
        other => panic!("{other:?}"),
    }
}

/// `row` as the writer writes it.
fn written(row: &RetrievedSegment) -> String {
    let reply = encoded(&QueryOutput::Segments(vec![row.clone()]));
    let reply = String::from_utf8(reply).unwrap();
    let list = reply.strip_prefix(r#"{"kind":"segments","segments":["#);
    list.and_then(|list| list.strip_suffix("]}"))
        .unwrap()
        .to_owned()
}

/// `row` with its members in another order than the writer's, which
/// only the visitor reads.
fn reordered(row: &RetrievedSegment) -> String {
    let driver = row.driver.as_deref().map(|d| format!("\"{d}\""));
    format!(
        "{{\"start\":{},\"driver\":{},\"end\":{},\"label\":\"{}\"}}",
        row.start,
        driver.as_deref().unwrap_or("null"),
        row.end,
        row.label,
    )
}

/// A reply of 200 rows over four drivers decodes to rows that share one
/// label and four drivers, whether the recogniser or the visitor reads
/// them (a row's members out of order force the visitor), within one
/// video's list and across a sweep's groups; with more distinct drivers
/// than its table keeps, it still decodes as the old codec does.
#[test]
fn the_rows_of_a_reply_share_their_strings() {
    let rows = |drivers: usize| -> Vec<RetrievedSegment> {
        (0..200)
            .map(|i| RetrievedSegment {
                start: i * 3,
                end: i * 3 + 2,
                label: "highlight".into(),
                driver: (i % 5 > 0).then(|| format!("D{:02}", i % drivers).into()),
            })
            .collect()
    };
    let list = |rows: &[RetrievedSegment], visited: fn(usize) -> bool| {
        let text = |(i, row): (usize, &RetrievedSegment)| match visited(i) {
            true => reordered(row),
            false => written(row),
        };
        rows.iter()
            .enumerate()
            .map(text)
            .collect::<Vec<_>>()
            .join(",")
    };
    let shapes: [fn(usize) -> bool; 3] = [|_| false, |_| true, |i| i % 2 == 1];
    for drivers in [4, 40] {
        let rows = rows(drivers);
        for visited in shapes {
            let (head, tail) = rows.split_at(rows.len() / 2);
            for doc in [
                format!("{{\"kind\":\"segments\",\"segments\":[{}]}}", list(&rows, visited)),
                format!(
                    "{{\"kind\":\"multi\",\"videos\":[{{\"segments\":[{}],\"video\":\"a\"}},{{\"segments\":[{}],\"video\":\"b\"}}]}}",
                    list(head, visited),
                    list(tail, visited),
                ),
            ] {
                reads_as_before(doc.as_bytes());
                let read = decoded_rows(doc.as_bytes());
                assert_eq!(read, rows, "{doc}");
                if drivers == 4 {
                    assert_eq!(allocations(read.iter().map(|s| &s.label)), 1, "{doc}");
                    assert_eq!(allocations(read.iter().flat_map(|s| &s.driver)), 4, "{doc}");
                }
            }
        }
    }
}
