//! No-panic property tests for the `tgm_serve/v1` frame reader and
//! protocol parser: arbitrary bytes, corrupted valid frames, hostile
//! length prefixes, and deeply nested payloads must all yield typed
//! results — never a panic, a hang, or an attacker-chosen allocation.

use proptest::prelude::*;
use tgm_serve::frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
use tgm_serve::proto::{parse_request, Response};

/// Bytes biased toward frame structure so random inputs reach deep
/// decoder states instead of dying on the first byte.
const STRUCTURED: &[u8] = &[
    b't', b'g', b'm', b'1', b' ', b'\n', b'0', b'1', b'9', b'{', b'}', b'"', b':', b',', b'[',
    b']', 0x00, 0xff, b'-', b'o', b'p',
];

fn structured_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0usize..STRUCTURED.len(), 0..96)
        .prop_map(|picks| picks.into_iter().map(|i| STRUCTURED[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(buf in structured_bytes()) {
        let mut r = &buf[..];
        let _ = read_frame(&mut r);
    }

    #[test]
    fn fully_random_bytes_never_panic_the_decoder(
        buf in proptest::collection::vec(0u8..=255, 0..96)
    ) {
        let mut r = &buf[..];
        let _ = read_frame(&mut r);
    }

    #[test]
    fn corrupted_valid_frames_decode_or_error(
        payload in proptest::collection::vec(0u8..=255, 0..48),
        cut in 0usize..64,
        flip_at in 0usize..64,
        flip_to in 0u8..=255,
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        // Truncate and overwrite one byte.
        buf.truncate(buf.len().min(cut.max(1)));
        if !buf.is_empty() {
            let i = flip_at % buf.len();
            buf[i] = flip_to;
        }
        let mut r = &buf[..];
        let _ = read_frame(&mut r);
    }

    #[test]
    fn oversize_prefixes_reject_before_allocation(
        // Declared lengths straddling the cap, up to u64::MAX digits.
        len in proptest::collection::vec(0u32..10, 1..21),
    ) {
        let digits: String = len.iter().map(|d| char::from(b'0' + *d as u8)).collect();
        let header = format!("tgm1 {digits}\n");
        let declared: Option<u64> = digits.parse().ok();
        // The header alone decides: an over-cap length is rejected before
        // the payload buffer is sized from it.
        let mut r = header.as_bytes();
        match read_frame(&mut r) {
            Err(FrameError::Oversize { .. }) => {
                prop_assert!(declared.is_none_or(|n| n > MAX_FRAME_LEN as u64));
            }
            // In-cap lengths with no payload present: the stream ended
            // mid-frame.
            Err(FrameError::Truncated) => {
                prop_assert!(declared.is_some_and(|n| n > 0 && n <= MAX_FRAME_LEN as u64));
            }
            Ok(Some(p)) => {
                prop_assert_eq!(declared, Some(0));
                prop_assert!(p.is_empty());
            }
            // 21+ digit fields are BadHeader; we generate at most 20.
            other => prop_assert!(false, "unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn arbitrary_payloads_never_panic_the_protocol(s in "\\PC*") {
        let _ = parse_request(&s);
        let _ = Response::parse(&s);
    }

    #[test]
    fn deep_nesting_is_rejected_not_recursed(depth in 1usize..512) {
        // A request whose `structure` is `depth` nested arrays: the
        // depth-limited JSON parser must reject past its cap without
        // overflowing the stack.
        let mut payload = String::from(r#"{"op":"match","tenant":"t","structure":"#);
        payload.push_str(&"[".repeat(depth));
        payload.push_str(&"]".repeat(depth));
        payload.push('}');
        prop_assert!(parse_request(&payload).is_err());
    }
}

#[test]
fn zero_and_max_len_frames_round_trip() {
    let mut buf = Vec::new();
    write_frame(&mut buf, &[]).unwrap();
    let mut r = &buf[..];
    assert_eq!(read_frame(&mut r), Ok(Some(Vec::new())));
    assert!(r.is_empty(), "the whole frame was consumed");

    // Exactly at the cap is legal.
    let big = vec![b'x'; MAX_FRAME_LEN];
    let mut buf = Vec::new();
    write_frame(&mut buf, &big).unwrap();
    let mut r = &buf[..];
    let p = read_frame(&mut r).unwrap().unwrap();
    assert_eq!(p.len(), MAX_FRAME_LEN);
    assert!(r.is_empty(), "the whole frame was consumed");
}
