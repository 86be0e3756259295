//! Property tests for the two parsers that read untrusted bytes: the HTTP
//! request reader (`http::read_request`) and the submission body parser
//! (`api::parse_spec`).
//!
//! Neither may panic on any input, nor overflow its stack. Each malformed
//! case — a header line or block over 64 KiB, a `Content-Length` over 4 MiB,
//! unparsable or longer than the body sent, a non-UTF-8 head or body, JSON
//! nested past the parser's bound — is an `Err`, which the server answers
//! with `400`, and the largest admitted body is parsed in linear time. A
//! well-formed request parses back to exactly what was sent.

use hammervolt_serve::api::parse_spec;
use hammervolt_serve::http::{read_request, Request};
use proptest::prelude::*;
use std::io::{self, BufReader};
use std::time::{Duration, Instant};

/// The header-block bound `read_request` enforces.
const MAX_HEADER_BYTES: usize = 64 * 1024;

/// The declared-body bound `read_request` enforces.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

fn parse(raw: &[u8]) -> io::Result<Option<Request>> {
    read_request(&mut BufReader::new(raw))
}

/// Bytes that request heads are made of, plus two that are never valid
/// UTF-8 on their own, so random strings often come close to a request.
fn head_byte() -> impl Strategy<Value = u8> {
    prop::sample::select(b"GETPOS /?=&:HTP1.0-9xa\r\n\r\n\xC3\xFF".to_vec())
}

/// A token for paths, query strings and header names: no whitespace, no
/// `?`, no `:`.
fn token(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"abcxyzABC0129-_./~%=&".to_vec()), len)
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("generated ASCII")
}

/// A well-formed valid submission body.
const SPEC: &[u8] = br#"{"kind":"hammer","scale":"smoke","rows_per_chunk":2,"modules":["B3"]}"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(raw in prop::collection::vec(any::<u8>(), 0..2048)) {
        // `Ok(None)` is a clean close with nothing sent, and nothing else.
        prop_assert_eq!(matches!(parse(&raw), Ok(None)), raw.is_empty());
        let spec = parse_spec(&raw);
        if std::str::from_utf8(&raw).is_err() {
            prop_assert!(spec.is_err());
        }
    }

    #[test]
    fn request_like_bytes_never_panic(raw in prop::collection::vec(head_byte(), 0..512)) {
        if let Ok(Some(req)) = parse(&raw) {
            // Whatever parsed came from a UTF-8 head with a request line.
            prop_assert!(!req.method.is_empty());
            prop_assert_eq!(req.method.to_ascii_uppercase(), req.method.clone());
        }
    }

    #[test]
    fn well_formed_requests_parse_back(
        target in (
            prop::sample::select(vec!["GET", "POST", "get", "Put", "DELETE"]),
            token(0..40),
            prop::collection::vec(token(1..12), 0..4),
        ),
        headers in prop::collection::vec((token(1..16), token(0..48), 0usize..3, 0usize..3), 0..8),
        body in prop::collection::vec(any::<u8>(), 0..512),
        crlf in any::<bool>(),
    ) {
        let (method, path, query) = target;
        let eol = if crlf { "\r\n" } else { "\n" };
        let path = format!("/{}", text(&path));
        let query: Vec<String> = query.iter().map(|t| text(t)).collect();
        let query = query.join("&");
        let target = if query.is_empty() { path.clone() } else { format!("{path}?{query}") };
        let mut raw = format!("{method} {target} HTTP/1.1{eol}").into_bytes();
        let mut expected = Vec::new();
        for (name, value, pad_left, pad_right) in &headers {
            // `x-` keeps generated names clear of `Content-Length`.
            let (name, value) = (format!("X-{}", text(name)), text(value));
            let line = format!("{name}:{}{value}{}{eol}", " ".repeat(*pad_left), " ".repeat(*pad_right));
            raw.extend_from_slice(line.as_bytes());
            expected.push((name.to_ascii_lowercase(), value));
        }
        raw.extend_from_slice(format!("Content-Length: {}{eol}{eol}", body.len()).as_bytes());
        expected.push(("content-length".to_string(), body.len().to_string()));
        raw.extend_from_slice(&body);

        let req = parse(&raw);
        prop_assert!(req.is_ok(), "well-formed request rejected: {:?}", req);
        let req = req.expect("checked").expect("bytes were sent");
        prop_assert_eq!(req.method, method.to_ascii_uppercase());
        prop_assert_eq!(req.path, path);
        prop_assert_eq!(req.query, query);
        prop_assert_eq!(req.headers, expected);
        prop_assert_eq!(req.body, body);
    }

    #[test]
    fn oversized_header_lines_and_blocks_are_errors(
        line_len in (MAX_HEADER_BYTES - 64)..(3 * MAX_HEADER_BYTES),
        lines in 1usize..40,
        terminated in any::<bool>(),
    ) {
        // One long header line: the block before the blank line is accepted
        // up to the bound and refused past it, and a line that never ends is
        // refused at any length.
        let mut raw = b"GET / HTTP/1.1\r\nX-Long: ".to_vec();
        raw.resize(raw.len() + line_len, b'a');
        if terminated {
            raw.extend_from_slice(b"\r\n");
        }
        let block = raw.len();
        if terminated {
            raw.extend_from_slice(b"\r\n");
        }
        let parsed = parse(&raw);
        if terminated && block <= MAX_HEADER_BYTES {
            prop_assert!(matches!(parsed, Ok(Some(_))), "{}-byte block refused", block);
        } else {
            prop_assert!(parsed.is_err(), "{}-byte block accepted", block);
        }
        // A block of short lines that together pass the bound.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        let per_line = MAX_HEADER_BYTES / lines + 1;
        for i in 0..=lines {
            raw.extend_from_slice(format!("X-{i}: ").as_bytes());
            raw.resize(raw.len() + per_line, b'b');
            raw.extend_from_slice(b"\r\n");
        }
        raw.extend_from_slice(b"\r\n");
        prop_assert!(parse(&raw).is_err(), "{}-byte header block accepted", raw.len());
    }

    #[test]
    fn bad_content_lengths_are_errors(
        over in 1usize..MAX_BODY_BYTES,
        junk in prop::sample::select(vec!["", "abc", "-1", "1.5", "0x10", "1 2", "99999999999999999999999"]),
        short in (1usize..4096, 0usize..4096),
    ) {
        let (declared, sent) = short;
        let post = |length: &str, body: &[u8]| {
            let mut raw = format!("POST /studies HTTP/1.1\r\nContent-Length: {length}\r\n\r\n").into_bytes();
            raw.extend_from_slice(body);
            parse(&raw)
        };
        let too_large = (MAX_BODY_BYTES + over).to_string();
        prop_assert!(post(&too_large, b"{}").is_err(), "Content-Length {} accepted", too_large);
        prop_assert!(post(junk, b"{}").is_err(), "Content-Length {:?} accepted", junk);
        // A body cut short of its declared length.
        let sent = sent % declared;
        prop_assert!(post(&declared.to_string(), &vec![b'x'; sent]).is_err(),
            "{} of {} declared bytes accepted", sent, declared);
    }

    #[test]
    fn non_utf8_heads_and_bodies_are_errors(
        at in 0usize..64,
        bad in prop::sample::select(vec![0x80u8, 0xC3, 0xE2, 0xF0, 0xFE, 0xFF]),
    ) {
        // The byte lands in the request line or a header line.
        let mut head = b"POST /studies HTTP/1.1\r\nX-Tenant: alice\r\nContent-Length: 2\r\n".to_vec();
        let at = at % (head.len() - 2);
        if head[at] != b'\r' && head[at] != b'\n' {
            head[at] = bad;
            let mut raw = head;
            raw.extend_from_slice(b"\r\n{}");
            prop_assert!(parse(&raw).is_err(), "non-UTF-8 head accepted at byte {}", at);
        }
        // A body is bytes to the HTTP layer; the submission parser rejects it.
        let mut body = SPEC.to_vec();
        body.insert(at % (body.len() + 1), bad);
        prop_assert!(parse_spec(&body).is_err());
        let mut raw = format!("POST /studies HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len()).into_bytes();
        raw.extend_from_slice(&body);
        let req = parse(&raw);
        prop_assert!(matches!(&req, Ok(Some(r)) if r.body == body), "{:?}", req);
    }

    #[test]
    fn deeply_nested_bodies_are_errors(
        depth in 129usize..200_000,
        open in prop::sample::select(vec!["[", "{\"kind\":", "[{\"a\":"]),
    ) {
        // Without a nesting bound the JSON parser would recurse once per
        // level and overflow the handler thread's stack, aborting the server.
        let body = open.repeat(depth);
        prop_assert!(parse_spec(body.as_bytes()).is_err());
    }

    #[test]
    fn truncated_and_mangled_specs_are_errors(cut in 0usize..SPEC.len(), at in 0usize..SPEC.len(), byte in any::<u8>()) {
        // Every strict prefix of a JSON object is incomplete.
        prop_assert!(parse_spec(&SPEC[..cut]).is_err(), "prefix {} accepted", cut);
        // One byte replaced anywhere: parsed or refused, never a panic.
        let mut mangled = SPEC.to_vec();
        mangled[at] = byte;
        let _ = parse_spec(&mangled);
    }
}

#[test]
fn the_spec_fixture_parses() {
    assert!(parse_spec(SPEC).is_ok());
}

/// The largest body the HTTP layer admits, as one long JSON string, is
/// refused in milliseconds. A JSON string parser that rescans the rest of
/// the input per character took minutes on it.
#[test]
fn a_maximal_string_body_parses_in_linear_time() {
    let body = format!("{{\"kind\":\"{}\"}}", "a".repeat(MAX_BODY_BYTES - 16));
    let started = Instant::now();
    let parsed = parse_spec(body.as_bytes());
    let took = started.elapsed();
    assert!(parsed.is_err(), "an unknown sweep kind was accepted");
    assert!(
        took < Duration::from_secs(5),
        "a {}-byte body took {took:?}",
        body.len()
    );
}
