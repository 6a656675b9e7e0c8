//! Property tests for the incremental frame decoder.
//!
//! The reactor feeds [`FrameDecoder`] whatever `read()` returned — which
//! on a nonblocking socket can be any byte-boundary slice of the wire
//! stream: half a length prefix, three pipelined frames coalesced into
//! one read, or a frame split mid-payload. The decoder contract under
//! all of it:
//!
//! * every well-formed frame comes back exactly once, in order, no
//!   matter how the bytes were chopped;
//! * an oversized length prefix is a typed [`FrameError::Oversized`],
//!   raised from the four prefix bytes alone (never buffered toward);
//! * a garbage (non-JSON) payload is a typed [`FrameError::Json`] that
//!   consumes exactly that frame — the length prefix marks the
//!   boundary, so the *next* frame still decodes;
//! * arbitrary bytes never panic and never stall the decoder into
//!   claiming progress it can't make.

use cobra_serve::protocol::{encode_frame, FrameDecoder, FrameError, MAX_FRAME_LEN};
use proptest::collection;
use proptest::prelude::*;
use serde_json::{json, Value};

/// A small arbitrary JSON frame in the shape requests actually take.
fn arb_frame() -> impl Strategy<Value = Value> {
    (
        0u64..1_000_000,
        collection::vec(proptest::char::range('a', 'z'), 0..12),
        0u8..2,
    )
        .prop_map(|(id, cmd_chars, flag)| {
            let cmd: String = cmd_chars.into_iter().collect();
            json!({"id": (id as f64), "cmd": (cmd), "flag": (flag == 1)})
        })
}

fn encode_all(frames: &[Value]) -> Vec<u8> {
    let mut wire = Vec::new();
    for f in frames {
        wire.extend_from_slice(&encode_frame(f).expect("small frames encode"));
    }
    wire
}

/// Feeds `wire` to a fresh decoder in the chunks described by `cuts`
/// and returns everything that decoded, panicking on any frame error.
fn decode_chunked(wire: &[u8], cuts: &[usize]) -> Vec<Value> {
    let mut decoder = FrameDecoder::new();
    let mut decoded = Vec::new();
    let mut start = 0;
    let bounds = cuts.iter().copied().chain(std::iter::once(wire.len()));
    for end in bounds {
        decoder.extend(&wire[start..end]);
        start = end;
        while let Some(frame) = decoder.next_frame().expect("well-formed wire bytes") {
            decoded.push(frame);
        }
    }
    decoded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any chunking of any pipelined frame sequence decodes to exactly
    /// that sequence — split prefixes, split payloads, coalesced reads.
    #[test]
    fn arbitrary_splits_reassemble_every_frame(
        frames in collection::vec(arb_frame(), 1..6),
        cuts in collection::vec(0usize..4096, 0..8),
    ) {
        let wire = encode_all(&frames);
        let cuts: Vec<usize> = {
            let mut c: Vec<usize> = cuts.into_iter().map(|c| c % (wire.len() + 1)).collect();
            c.sort_unstable();
            c.dedup();
            c
        };
        let decoded = decode_chunked(&wire, &cuts);
        prop_assert_eq!(decoded, frames);
    }

    /// All frames delivered in one read (maximal pipelining) drain in
    /// one extend without waiting for more input.
    #[test]
    fn coalesced_reads_drain_in_one_pass(frames in collection::vec(arb_frame(), 1..8)) {
        let wire = encode_all(&frames);
        let decoded = decode_chunked(&wire, &[]);
        prop_assert_eq!(decoded.len(), frames.len());
        prop_assert_eq!(decoded, frames);
        let mut decoder = FrameDecoder::new();
        decoder.extend(&wire);
        for _ in &frames {
            prop_assert!(matches!(decoder.next_frame(), Ok(Some(_))));
        }
        prop_assert!(matches!(decoder.next_frame(), Ok(None)));
        prop_assert_eq!(decoder.buffered(), 0);
    }

    /// An oversized length prefix is refused from the prefix alone: the
    /// typed error fires before any payload arrives, however the four
    /// prefix bytes were split.
    #[test]
    fn oversized_prefix_is_a_typed_error(
        excess in 1u32..1_000_000,
        cut in 0usize..5,
    ) {
        let len = (MAX_FRAME_LEN as u32).saturating_add(excess);
        let prefix = len.to_be_bytes();
        let mut decoder = FrameDecoder::new();
        let cut = cut.min(prefix.len());
        decoder.extend(&prefix[..cut]);
        if cut < prefix.len() {
            // The prefix is incomplete: no verdict yet, no panic.
            prop_assert!(matches!(decoder.next_frame(), Ok(None)));
            decoder.extend(&prefix[cut..]);
        }
        prop_assert!(matches!(
            decoder.next_frame(),
            Err(FrameError::Oversized(n)) if n == len as usize
        ));
    }

    /// A garbage payload surfaces as a typed JSON error and consumes
    /// exactly its frame: the next well-formed frame still decodes.
    #[test]
    fn garbage_payload_resyncs_at_the_frame_boundary(
        garbage in collection::vec(0u8..=255, 1..64),
        follow in arb_frame(),
    ) {
        // Force the payload to be invalid JSON regardless of what the
        // strategy drew: an unbalanced brace prefix does it.
        let mut payload = vec![b'{'];
        payload.extend_from_slice(&garbage);
        payload.push(b'{');
        let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&payload);
        wire.extend_from_slice(&encode_frame(&follow).expect("frame encodes"));

        let mut decoder = FrameDecoder::new();
        decoder.extend(&wire);
        prop_assert!(matches!(decoder.next_frame(), Err(FrameError::Json(_))));
        // The bad frame is consumed; the stream continues.
        let next = decoder.next_frame().expect("the following frame is intact");
        prop_assert_eq!(next, Some(follow));
        prop_assert!(matches!(decoder.next_frame(), Ok(None)));
    }

    /// Arbitrary bytes, arbitrarily chunked: the decoder may report
    /// typed errors but never panics, and an `Ok(None)` verdict is
    /// stable until more bytes arrive (no livelock, no phantom frames).
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in collection::vec(0u8..=255, 0..512),
        cuts in collection::vec(0usize..512, 0..6),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (bytes.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut decoder = FrameDecoder::new();
        let mut start = 0;
        let bounds = cuts.iter().copied().chain(std::iter::once(bytes.len()));
        for end in bounds {
            decoder.extend(&bytes[start..end]);
            start = end;
            loop {
                match decoder.next_frame() {
                    Ok(Some(_)) | Err(FrameError::Json(_)) => continue,
                    Ok(None) => {
                        // Stable without new input.
                        prop_assert!(matches!(decoder.next_frame(), Ok(None)));
                        break;
                    }
                    Err(FrameError::Oversized(_)) => break,
                    Err(FrameError::Io(e)) => {
                        return Err(TestCaseError::Fail(format!("decoder invented I/O: {e}")));
                    }
                }
            }
        }
    }
}

/// A blocking peer's reads: one byte at a time, and once, midway, a read
/// that times out having delivered nothing (`WouldBlock`, as a socket's
/// read timeout reports it on Unix).
struct Trickle<'a> {
    bytes: &'a [u8],
    timeout_at: usize,
    timed_out: bool,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.bytes.len() == self.timeout_at && !self.timed_out {
            self.timed_out = true;
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let Some((&first, rest)) = self.bytes.split_first() else {
            return Ok(0);
        };
        buf[0] = first;
        self.bytes = rest;
        Ok(1)
    }
}

/// `read_from` keeps what has arrived across a timed-out read and across
/// one-byte reads into its retained buffer: the frame reassembles whole.
#[test]
fn a_frame_read_one_byte_at_a_time_across_a_timeout_reassembles() {
    let frame = json!({"id": 9, "cmd": "query", "text": "RETRIEVE HIGHLIGHTS"});
    let wire = encode_all(&[frame.clone(), frame.clone()]);
    let mut peer = Trickle {
        bytes: &wire,
        timeout_at: wire.len() / 3,
        timed_out: false,
    };
    let mut decoder = FrameDecoder::new();
    let mut decoded = Vec::new();
    loop {
        match decoder.read_from(&mut peer) {
            Ok(0) => break,
            Ok(n) => assert_eq!(n, 1),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
        }
        while let Some(frame) = decoder.next_frame().expect("well-formed wire bytes") {
            decoded.push(frame);
        }
    }
    assert!(peer.timed_out);
    assert_eq!(decoded, [frame.clone(), frame]);
    assert_eq!(decoder.buffered(), 0);
}
