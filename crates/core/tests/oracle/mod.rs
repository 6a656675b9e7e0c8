//! The JSON codec as it stood before its per-token fast paths: the
//! vendored `serde_json`'s `Writer` and `Reader`, kept verbatim (less the
//! `Value` tree and `ParseError`, which both share) as the oracle of
//! `codec_differential.rs`. The fast paths must write the bytes this
//! writer writes, and read what this reader reads, failing where it
//! fails with the same offset and message. [`tree`] decodes a reply
//! from its `Value` tree, the definition the byte reader is held to.

#![allow(dead_code)]

pub mod tree;

use std::borrow::Cow;
use std::collections::BTreeMap;

use serde_json::{ParseError, Value};

/// `n` as a `u64`, when it is a non-negative integer below 2^64. The
/// bound is strict: `u64::MAX as f64` rounds up to 2^64, which `as u64`
/// would saturate instead of refusing.
fn f64_to_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
}

/// Integers up to here are exact in an `f64` and render as their digits.
const EXACT_INT: u64 = 1 << 53;

/// A push encoder: appends JSON text to a byte buffer, value by value.
///
/// Commas are the writer's business; nesting is the caller's
/// ([`object`](Self::object) and [`array`](Self::array) take the closure
/// that writes what goes inside). Inside an object every value must be
/// preceded by its [`key`](Self::key). Rendering is byte-identical to
/// `Value::to_string` for the same content — which is this writer.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    /// Whether the next value or key needs a `,` in front of it.
    comma: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Writer<'a> {
        Writer { out, comma: false }
    }

    /// Separates the value (or key) about to be written from the one
    /// before it.
    fn sep(&mut self) {
        if self.comma {
            self.out.push(b',');
        }
        self.comma = true;
    }

    fn nested(&mut self, open: u8, close: u8, inside: impl FnOnce(&mut Self)) {
        self.sep();
        self.out.push(open);
        self.comma = false;
        inside(self);
        self.out.push(close);
        self.comma = true;
    }

    /// Writes an object whose members `members` writes, each as a
    /// [`key`](Self::key) followed by one value.
    pub fn object(&mut self, members: impl FnOnce(&mut Self)) {
        self.nested(b'{', b'}', members);
    }

    /// Writes an array whose elements `items` writes.
    pub fn array(&mut self, items: impl FnOnce(&mut Self)) {
        self.nested(b'[', b']', items);
    }

    /// Writes a member key; the member's value must follow.
    pub fn key(&mut self, key: &str) {
        self.str(key);
        self.out.push(b':');
        self.comma = false;
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, s: &str) {
        self.sep();
        self.out.push(b'"');
        // Copy the runs between characters that need escaping whole.
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            self.out.extend_from_slice(&bytes[run..i]);
            run = i + 1;
            const HEX: &[u8; 16] = b"0123456789abcdef";
            match b {
                b'"' => self.out.extend_from_slice(b"\\\""),
                b'\\' => self.out.extend_from_slice(b"\\\\"),
                b'\n' => self.out.extend_from_slice(b"\\n"),
                b'\t' => self.out.extend_from_slice(b"\\t"),
                b'\r' => self.out.extend_from_slice(b"\\r"),
                _ => self.out.extend_from_slice(&[
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(b >> 4)],
                    HEX[usize::from(b & 0xF)],
                ]),
            }
        }
        self.out.extend_from_slice(&bytes[run..]);
        self.out.push(b'"');
    }

    fn digits(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&buf[at..]);
    }

    /// Writes an unsigned integer. Numbers are `f64`s on this wire, so
    /// one beyond 2^53 is written as the double nearest to it.
    pub fn u64(&mut self, v: u64) {
        if v <= EXACT_INT {
            self.sep();
            self.digits(v);
        } else {
            self.f64(v as f64);
        }
    }

    /// Writes a number; one that is not finite is written as `null`.
    pub fn f64(&mut self, n: f64) {
        self.sep();
        if !n.is_finite() {
            self.out.extend_from_slice(b"null");
        } else if n.fract() == 0.0
            && n.abs() <= EXACT_INT as f64
            && (n != 0.0 || n.is_sign_positive())
        {
            if n < 0.0 {
                self.out.push(b'-');
            }
            self.digits(n.abs() as u64);
        } else {
            // Writing to a `Vec` cannot fail.
            let _ = std::io::Write::write_fmt(self.out, format_args!("{n}"));
        }
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.sep();
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.sep();
        self.out.extend_from_slice(b"null");
    }

    /// Writes one value that is already JSON text — a slice a
    /// [`Reader`] validated ([`Reader::skip`]) or another writer wrote —
    /// as it stands.
    pub fn raw(&mut self, json: &[u8]) {
        self.sep();
        self.out.extend_from_slice(json);
    }

    /// Writes a whole tree.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Number(n) => self.f64(*n),
            Value::String(s) => self.str(s),
            Value::Array(items) => self.array(|w| items.iter().for_each(|v| w.value(v))),
            Value::Object(map) => self.object(|w| {
                for (k, v) in map {
                    w.key(k);
                    w.value(v);
                }
            }),
        }
    }
}

/// Nesting bound: deeper documents are rejected instead of risking a
/// stack overflow on hostile input (the server parses untrusted frames).
const MAX_DEPTH: usize = 128;

/// A pull decoder over one JSON document.
///
/// Every method reads exactly one value (or reports why it cannot), and
/// whatever passes under the reader is validated on the way, whether it
/// is decoded, handed to a visitor, or only skipped. The typed reads are
/// *lenient about shape and strict about syntax*, like the accessors of
/// [`Value`]: `u64()` over a string is `Ok(None)` with the string
/// consumed, while malformed text is an `Err` wherever it sits. After an
/// `Err` the reader's position is unspecified.
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Reader<'a> {
        Reader {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// A reader over raw bytes, which must be UTF-8: checked here, once,
    /// so no string inside the document is checked again.
    pub fn from_slice(bytes: &'a [u8]) -> Result<Reader<'a>, ParseError> {
        match std::str::from_utf8(bytes) {
            Ok(src) => Ok(Reader::new(src)),
            Err(e) => Err(ParseError {
                offset: e.valid_up_to(),
                message: "frame is not valid UTF-8".into(),
            }),
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    /// Moves to the first byte of the next value and returns it.
    fn open(&mut self) -> Result<u8, ParseError> {
        if self.depth >= MAX_DEPTH {
            return self.err("document nests too deeply");
        }
        self.skip_ws();
        match self.peek() {
            Some(b) => Ok(b),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.err(format!("expected '{lit}'"))
        }
    }

    fn digits(&mut self) -> Result<(), ParseError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return self.err("expected a digit");
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// Lexes one number token by the RFC 8259 grammar: no leading zeros,
    /// digits on both sides of a `.` and after an exponent marker.
    fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        // Up to 15 digits are exact in an f64 and need no float parsing.
        if integral && self.pos - int_start <= 15 {
            let n = self.src.as_bytes()[int_start..self.pos]
                .iter()
                .fold(0u64, |n, d| n * 10 + u64::from(d - b'0')) as f64;
            return Ok(if negative { -n } else { n });
        }
        let text = &self.src[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            _ => self.err(format!("invalid number '{text}'")),
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => c - b'0',
                Some(c @ b'a'..=b'f') => c - b'a' + 10,
                Some(c @ b'A'..=b'F') => c - b'A' + 10,
                _ => return self.err("invalid \\u escape"),
            };
            code = code * 16 + u32::from(d);
            self.pos += 1;
        }
        Ok(code)
    }

    /// Decodes the escape whose backslash has just been consumed.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if !self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
                        return self.err("unpaired surrogate");
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return self.err("invalid low surrogate");
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                return match char::from_u32(code) {
                    Some(c) => Ok(c),
                    None => self.err("invalid unicode escape"),
                };
            }
            _ => return self.err("invalid escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Lexes the string token at `pos` (its opening quote). Text without
    /// escapes is borrowed from the document.
    fn lex_string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect_byte(b'"')?;
        let mut decoded: Option<String> = None;
        // Start of the run of plain bytes not yet copied. Runs begin and
        // end next to ASCII bytes, so slicing them never splits a scalar.
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    let tail = &self.src[run..self.pos];
                    self.pos += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(tail),
                        Some(mut text) => {
                            text.push_str(tail);
                            Cow::Owned(text)
                        }
                    });
                }
                Some(b'\\') => {
                    let text = decoded.get_or_insert_with(String::new);
                    text.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    text.push(self.escape()?);
                    run = self.pos;
                }
                Some(c) if c < 0x20 => return self.err("control character in string"),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The one place the grammar of `[…]` lives: calls `item` at every
    /// element, which must read it.
    fn items(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect_byte(b'[')?;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                self.read_with(&mut item)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return self.err("expected ',' or ']'"),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// The one place the grammar of `{…}` lives: calls `member` with
    /// every key, at that member's value.
    fn members(
        &mut self,
        mut member: impl FnMut(Cow<'a, str>, &mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect_byte(b'{')?;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let key = self.lex_string()?;
                self.skip_ws();
                self.expect_byte(b':')?;
                self.read_with(|r| member(key, r))?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return self.err("expected ',' or '}'"),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Lets `read` consume the next value; one it leaves alone is
    /// skipped, so a visitor only names what it wants. Ends on the
    /// delimiter that follows.
    fn read_with(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.skip_ws();
        let at = self.pos;
        read(self)?;
        if self.pos == at {
            self.skip_value()?;
        }
        self.skip_ws();
        Ok(())
    }

    fn skip_value(&mut self) -> Result<(), ParseError> {
        match self.open()? {
            b'"' => self.lex_string().map(drop),
            b'[' => self.items(Self::skip_value),
            b'{' => self.members(|_, r| r.skip_value()),
            b'-' | b'0'..=b'9' => self.number().map(drop),
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'n' => self.literal("null"),
            c => self.err(format!("unexpected character '{}'", c as char)),
        }
    }

    /// Offset of the next value, for [`since`](Self::since).
    pub fn mark(&mut self) -> usize {
        self.skip_ws();
        self.pos
    }

    /// The raw text read since `mark` (which [`mark`](Self::mark)
    /// returned; empty for any other offset that is not one).
    pub fn since(&self, mark: usize) -> &'a str {
        self.src.get(mark..self.pos).unwrap_or_default()
    }

    /// Validates the next value without decoding it and returns its raw
    /// text — fit to be forwarded ([`Writer::raw`]) or read later.
    pub fn skip(&mut self) -> Result<&'a str, ParseError> {
        let mark = self.mark();
        self.skip_value()?;
        Ok(self.since(mark))
    }

    /// Reads the next value as a tree.
    pub fn value(&mut self) -> Result<Value, ParseError> {
        Ok(match self.open()? {
            b'"' => Value::String(self.lex_string()?.into_owned()),
            b'[' => {
                let mut items = Vec::new();
                self.items(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Value::Array(items)
            }
            b'{' => {
                let mut map = BTreeMap::new();
                self.members(|key, r| {
                    map.insert(key.into_owned(), r.value()?);
                    Ok(())
                })?;
                Value::Object(map)
            }
            b'-' | b'0'..=b'9' => Value::Number(self.number()?),
            b't' => {
                self.literal("true")?;
                Value::Bool(true)
            }
            b'f' => {
                self.literal("false")?;
                Value::Bool(false)
            }
            b'n' => {
                self.literal("null")?;
                Value::Null
            }
            c => return self.err(format!("unexpected character '{}'", c as char)),
        })
    }

    /// If the next value is an object, calls `member` with every key, at
    /// that member's value, and returns true. A value `member` does not
    /// read is skipped. Keys repeat as they do in the text.
    pub fn object(
        &mut self,
        member: impl FnMut(Cow<'a, str>, &mut Self) -> Result<(), ParseError>,
    ) -> Result<bool, ParseError> {
        if self.open()? == b'{' {
            self.members(member).map(|()| true)
        } else {
            self.skip_value().map(|()| false)
        }
    }

    /// If the next value is an array, calls `item` at every element and
    /// returns true. An element `item` does not read is skipped.
    pub fn array(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<bool, ParseError> {
        if self.open()? == b'[' {
            self.items(item).map(|()| true)
        } else {
            self.skip_value().map(|()| false)
        }
    }

    /// The next value, if it is a string.
    pub fn string(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if self.open()? == b'"' {
            self.lex_string().map(Some)
        } else {
            self.skip_value().map(|()| None)
        }
    }

    /// The next value, if it is a number.
    fn f64(&mut self) -> Result<Option<f64>, ParseError> {
        if matches!(self.open()?, b'-' | b'0'..=b'9') {
            self.number().map(Some)
        } else {
            self.skip_value().map(|()| None)
        }
    }

    /// The next value, if it is a non-negative integer below 2^64 (what
    /// [`Value::as_u64`] accepts).
    pub fn u64(&mut self) -> Result<Option<u64>, ParseError> {
        Ok(self.f64()?.and_then(f64_to_u64))
    }

    /// The next value, if it is `true` or `false`.
    pub fn bool(&mut self) -> Result<Option<bool>, ParseError> {
        match self.open()? {
            b't' => self.literal("true").map(|()| Some(true)),
            b'f' => self.literal("false").map(|()| Some(false)),
            _ => self.skip_value().map(|()| None),
        }
    }

    /// Consumes the next value if it is `null` and says whether it was;
    /// anything else is left for the next read.
    pub fn null(&mut self) -> Result<bool, ParseError> {
        if self.open()? == b'n' {
            self.literal("null").map(|()| true)
        } else {
            Ok(false)
        }
    }

    /// Ends the document: anything but whitespace from here on is an
    /// error.
    pub fn end(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return self.err("trailing characters after document");
        }
        Ok(())
    }
}
