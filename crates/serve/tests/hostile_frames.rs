//! Hostile input to the wire layer. `read_frame` gets random bytes,
//! truncated length prefixes, lengths above `MAX_FRAME_LEN`, cut-off
//! payloads and invalid UTF-8; `Request::parse` and `Response::parse` get
//! random token strings. No case may panic: a frame either reads or fails
//! with `InvalidData` or `UnexpectedEof`, and a payload either parses or
//! fails with `bad-request`.

use dhmm_serve::{read_frame, Request, Response, ServeError, MAX_FRAME_LEN};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::ErrorKind;

/// The error kind `read_frame` fails with on `bytes`, or `None` if a frame
/// (or a clean end of stream) reads.
fn read_error(bytes: &[u8]) -> Option<ErrorKind> {
    read_frame(&mut &bytes[..]).err().map(|e| e.kind())
}

/// A length prefix of `len` followed by `payload`.
fn frame(len: u32, payload: &[u8]) -> Vec<u8> {
    let mut bytes = len.to_be_bytes().to_vec();
    bytes.extend_from_slice(payload);
    bytes
}

/// Whether a parse succeeded or failed with `bad-request`.
fn parses_or_is_bad_request<T>(result: Result<T, ServeError>) -> bool {
    result.map_or_else(|e| e.code() == "bad-request", |_| true)
}

/// Words a request or response is made of, plus the numbers that break
/// naive parsers: huge counts, overflowing integers, non-finite floats.
const WORDS: &[&str] = &[
    "create",
    "push",
    "flush",
    "close",
    "swap-model",
    "stats",
    "metrics",
    "ok",
    "err",
    "sid",
    "committed",
    "flushed",
    "closed",
    "epoch",
    "ll",
    "tokens",
    "active",
    "clock",
    "evicted",
    "lockstep",
    "scalar",
    "smoothing-batched",
    "smoothing-scalar",
    "0",
    "1",
    "7",
    "0.0",
    "3.1",
    "4294967296.0",
    "-1",
    "x.y",
    "18446744073709551615",
    "99999999999999999999",
    "1000000000000",
    "NaN",
    "inf",
    "-1e400",
    "\n",
    "",
];

/// Whitespace-joined words, each a `WORDS` entry, printable ASCII, or
/// arbitrary characters.
fn text() -> impl Strategy<Value = String> {
    let word =
        (0..WORDS.len() + 2, vec(0u32..0x11000, 1..4)).prop_map(|(i, codes)| match WORDS.get(i) {
            Some(w) => w.to_string(),
            None if i == WORDS.len() => codes
                .iter()
                .map(|&c| char::from(b' ' + (c % 95) as u8))
                .collect(),
            None => codes.iter().filter_map(|&c| char::from_u32(c)).collect(),
        });
    (vec(word, 0..10), 0usize..3).prop_map(|(words, sep)| words.join([" ", "  ", "\t"][sep]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_read_or_fail_typed(bytes in vec(0u8..=255, 0..48)) {
        let kind = read_error(&bytes);
        prop_assert!(
            matches!(kind, None | Some(ErrorKind::InvalidData | ErrorKind::UnexpectedEof)),
            "{bytes:?} failed with {kind:?}"
        );
    }

    #[test]
    fn a_frame_cut_inside_its_length_prefix_is_unexpected_eof(prefix in vec(0u8..=255, 1..4)) {
        prop_assert_eq!(read_error(&prefix), Some(ErrorKind::UnexpectedEof));
    }

    #[test]
    fn lengths_above_the_cap_are_invalid_data(
        excess in 1u32..=(u32::MAX - MAX_FRAME_LEN as u32),
        tail in vec(0u8..=255, 0..8),
    ) {
        let bytes = frame(MAX_FRAME_LEN as u32 + excess, &tail);
        prop_assert_eq!(read_error(&bytes), Some(ErrorKind::InvalidData));
    }

    #[test]
    fn a_payload_cut_short_is_unexpected_eof(payload in vec(0u8..=255, 0..32), missing in 1u32..64) {
        let bytes = frame(payload.len() as u32 + missing, &payload);
        prop_assert_eq!(read_error(&bytes), Some(ErrorKind::UnexpectedEof));
    }

    #[test]
    fn invalid_utf8_is_invalid_data(text in text(), at in 0usize..64, byte in 0xF8u8..=0xFF) {
        // Bytes 0xF8..=0xFF never occur in UTF-8.
        let mut payload = text.into_bytes();
        payload.insert(at.min(payload.len()), byte);
        prop_assert_eq!(
            read_error(&frame(payload.len() as u32, &payload)),
            Some(ErrorKind::InvalidData)
        );
    }

    #[test]
    fn random_requests_parse_or_answer_bad_request(text in text()) {
        let parsed = Request::parse(&text);
        if let Ok(request) = &parsed {
            let again = Request::parse(&request.encode());
            prop_assert_eq!(again.as_ref(), Ok(request));
        }
        prop_assert!(parses_or_is_bad_request(parsed), "{text:?}");
    }

    #[test]
    fn random_responses_parse_or_answer_bad_request(text in text()) {
        prop_assert!(parses_or_is_bad_request(Response::parse(&text)), "{text:?}");
        let ok = format!("ok {text}");
        prop_assert!(parses_or_is_bad_request(Response::parse(&ok)), "{ok:?}");
    }

    #[test]
    fn a_label_count_beyond_the_payload_is_bad_request(
        n in 1_000_000usize..=usize::MAX,
        kind in 0usize..2,
    ) {
        // The count must not size an allocation before the labels arrive.
        let payload = format!("ok {} 0 {n} 1", ["committed", "flushed"][kind]);
        prop_assert_eq!(
            Response::parse(&payload).map_err(|e| e.code()),
            Err("bad-request")
        );
    }
}
