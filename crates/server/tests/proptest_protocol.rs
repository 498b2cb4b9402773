//! Property tests for the `mbb-serve/1` framing and envelope parsing.
//!
//! Both functions sit directly on the network boundary, so they must be
//! *total* over untrusted input: [`frame`], the framing rule the server's
//! event loop applies to each connection's read buffer, has to classify
//! any byte stream right however its reads split it, and
//! [`parse_request`] has to return a structured `bad-request` error —
//! never panic or hang — on anything that is not a well-formed envelope.

use mbb_server::client::request;
use mbb_server::protocol::{frame, parse_request, Frame};
use mbb_server::ErrorKind;
use proptest::collection::vec;
use proptest::prelude::*;

/// Bytes with newlines common enough that multi-line framings appear.
fn arb_stream() -> impl Strategy<Value = Vec<u8>> {
    vec(
        prop_oneof![
            Just(b'\n'),
            Just(b'\n'),
            Just(b'{'),
            Just(b'}'),
            Just(b'"'),
            Just(b'\\'),
            Just(b'\r'),
            Just(0u8),
            Just(0xFFu8),
            0u8..=255u8,
        ],
        0..64,
    )
}

/// The specified framing, derived independently: each `\n`-terminated
/// line is a frame when it fits in `max` and too large otherwise (losing
/// the rest of the stream).  A trailing unterminated fragment is dropped
/// at end of stream when it fits — but is too large when it does not,
/// since the bound is enforced on the buffer, before the end of the
/// stream can be observed.
fn expected_frames(stream: &[u8], max: usize) -> Vec<Result<Vec<u8>, ()>> {
    let mut out = Vec::new();
    let mut rest = stream;
    while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
        let line = &rest[..pos];
        if line.len() > max {
            out.push(Err(()));
            return out; // framing is lost; the reader stops here
        }
        out.push(Ok(line.to_vec()));
        rest = &rest[pos + 1..];
    }
    if rest.len() > max {
        out.push(Err(()));
    }
    out
}

/// Frames `stream` as the event loop does when it arrives in `chunk`-byte
/// reads: after each read every complete line is drained off the front of
/// the buffer; at the end of the stream a partial line is dropped.
fn framed(stream: &[u8], max: usize, chunk: usize) -> Vec<Result<Vec<u8>, ()>> {
    let mut buf = Vec::new();
    let mut out = Vec::new();
    for read in stream.chunks(chunk) {
        buf.extend_from_slice(read);
        loop {
            match frame(&buf, max) {
                Frame::Line(nl) => {
                    let mut line: Vec<u8> = buf.drain(..=nl).collect();
                    line.pop(); // the newline
                    out.push(Ok(line));
                }
                Frame::Incomplete => break,
                Frame::TooLarge => {
                    out.push(Err(()));
                    return out; // framing lost: the connection closes
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn framing_matches_the_specification_on_any_stream(
        stream in arb_stream(),
        max in 0usize..32,
        chunk in 1usize..9,
    ) {
        // Small reads force the continuation path: lines arrive split
        // across many of them.
        prop_assert_eq!(
            framed(&stream, max, chunk),
            expected_frames(&stream, max),
            "misframed {:?} with max {} in {}-byte reads",
            stream,
            max,
            chunk
        );
    }

    #[test]
    fn arbitrary_garbage_parses_to_a_structured_bad_request(stream in arb_stream()) {
        let text = String::from_utf8_lossy(&stream);
        if let Err(e) = parse_request(&text) {
            prop_assert_eq!(e.kind, ErrorKind::BadRequest);
            prop_assert!(!e.message.is_empty());
        }
        // (The astronomically unlikely Ok — garbage that happens to be a
        // valid envelope — is fine; the property is "no panic, structured
        // error".)
    }

    #[test]
    fn truncated_valid_requests_never_panic(cut in 0usize..200) {
        let full = request("optimize", Some("array a[8]\nfor i = 0, 7\n  a[i] = 1\nend for\n"), "origin")
            .render_compact();
        let cut = cut.min(full.len());
        if !full.is_char_boundary(cut) {
            return Ok(());
        }
        let truncated = &full[..cut];
        if truncated.len() < full.len() {
            let e = parse_request(truncated).unwrap_err();
            prop_assert_eq!(e.kind, ErrorKind::BadRequest);
        } else {
            prop_assert!(parse_request(truncated).is_ok());
        }
    }

    #[test]
    fn interleaved_garbage_fields_never_break_the_parser(
        key in vec(prop_oneof![Just('a'), Just('"'), Just('\\'), Just('{'), Just('0')], 0..8),
        num in 0u64..1_000_000,
    ) {
        let key: String = key.into_iter().collect();
        let line = format!(
            "{{\"schema\":\"mbb-serve/1\",\"kind\":\"machines\",\"{}\":{num},\"budget\":{{\"max_steps\":{num}}}}}",
            key.escape_default()
        );
        match parse_request(&line) {
            Ok(r) => {
                // Unknown fields are ignored; the budget must have parsed.
                prop_assert_eq!(r.budget.max_steps, if num > 0 { Some(num) } else { None });
            }
            Err(e) => {
                // num == 0 makes the budget invalid; anything else that
                // fails must still be a structured bad-request.
                prop_assert_eq!(e.kind, ErrorKind::BadRequest);
            }
        }
    }
}
