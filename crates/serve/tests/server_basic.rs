//! Integration tests for the serving core: admission, quotas, session
//! lifecycle, TCP framing, and graceful drain — all over the same
//! rise/report/fall pattern the CLI tests use (one completion at the
//! `fall` event, t = 500000), plus a saturation run of 64 clients
//! against 8 admission slots.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;

use tgm_events::minijson::Value;
use tgm_limits::Quotas;
use tgm_serve::frame::{read_frame, write_frame};
use tgm_serve::proto::{ErrorKind, Response};
use tgm_serve::{Server, ServerConfig, ServerCore};

const STRUCTURE: &str = r#""structure":{
  "variables": ["rise", "report", "fall"],
  "constraints": [
    {"from": 0, "to": 1, "lo": 1, "hi": 1, "granularity": "business-day"},
    {"from": 1, "to": 2, "lo": 0, "hi": 1, "granularity": "week"}
  ]}"#;

const EVENTS: &str = r#""events":[
  {"ty":"rise","time":208800},
  {"ty":"noise","time":250000},
  {"ty":"report","time":291600},
  {"ty":"fall","time":500000},
  {"ty":"rise","time":813600}
]"#;

fn match_payload(tenant: &str) -> String {
    format!(
        r#"{{"op":"match","tenant":"{tenant}",{STRUCTURE},"types":["rise","report","fall"],{EVENTS}}}"#
    )
}

fn open_payload(tenant: &str) -> String {
    format!(
        r#"{{"op":"session.open","tenant":"{tenant}",{STRUCTURE},"types":["rise","report","fall"]}}"#
    )
}

fn push_payload(tenant: &str, session: u64, events: &[(&str, i64)]) -> String {
    let items: Vec<String> = events
        .iter()
        .map(|(ty, t)| format!(r#"{{"ty":"{ty}","time":{t}}}"#))
        .collect();
    format!(
        r#"{{"op":"session.push","tenant":"{tenant}","session":{session},"events":[{}]}}"#,
        items.join(",")
    )
}

fn completions_at(result: &Value) -> Vec<i64> {
    result
        .get("completions")
        .and_then(Value::as_array)
        .map(|arr| {
            arr.iter()
                .filter_map(|c| c.get("at").and_then(Value::as_i64))
                .collect()
        })
        .unwrap_or_default()
}

fn small_core() -> Arc<ServerCore> {
    ServerCore::start(ServerConfig {
        workers: 2,
        queue_depth: 32,
        default_quotas: Quotas::unlimited(),
        tenant_quotas: vec![],
    })
}

#[test]
fn ping_and_batch_match_in_process() {
    let core = small_core();
    let client = core.client();

    let pong = client.request_parsed(r#"{"op":"ping"}"#).unwrap();
    assert!(matches!(pong, Response::Ok(_)));

    let resp = client.request_parsed(&match_payload("acme")).unwrap();
    let Response::Ok(result) = resp else {
        panic!("match failed: {resp:?}");
    };
    assert_eq!(completions_at(&result), [500000]);
    assert_eq!(result.get("events").and_then(Value::as_i64), Some(5));
    core.drain();
}

#[test]
fn malformed_payloads_are_bad_requests_not_crashes() {
    let core = small_core();
    let client = core.client();
    for bad in [
        "",
        "not json",
        "{}",
        r#"{"op":"match","tenant":"t"}"#,
        r#"{"op":"match","tenant":"t","structure":{"variables":["a"]},"types":["x"],"events":[]}"#,
    ] {
        let resp = client.request_parsed(bad).unwrap();
        assert_eq!(
            resp.error_kind(),
            Some(ErrorKind::BadRequest),
            "payload {bad:?}"
        );
    }
    // The server is still healthy afterwards.
    let resp = client.request_parsed(&match_payload("acme")).unwrap();
    assert!(matches!(resp, Response::Ok(_)));
    core.drain();
}

/// A granularity spec that fails to parse is a `BadRequest` naming the
/// spec, not a panic: impossible dates, counts whose period overflows, and
/// `into` chains long enough to overflow a worker's stack if nested.
#[test]
fn malformed_grans_are_bad_requests() {
    let core = small_core();
    let client = core.client();
    let deep = vec!["day"; 100_000].join(" into ");
    let junk = "x".repeat(50_000);
    for spec in [
        "business-day except 2000-02-30",
        "9223372036854775807 week",
        "9223372036854775807 year",
        "9223372036854775807 second",
        "768614336404564650 year",
        deep.as_str(),
        junk.as_str(),
    ] {
        let payload = format!(
            r#"{{"op":"match","tenant":"t","grans":["{spec}"],{STRUCTURE},"types":["rise","report","fall"],{EVENTS}}}"#
        );
        let resp = client.request_parsed(&payload).unwrap();
        let Response::Err { kind, message, .. } = &resp else {
            panic!("{spec:?} must be refused: {resp:?}");
        };
        assert_eq!(*kind, ErrorKind::BadRequest, "{spec:?}: {message}");
        // The message names the spec by a bounded prefix, never in full.
        assert!(message.len() < 1024, "{} bytes: {message}", message.len());
        assert!(message.contains(&spec[..spec.len().min(64)]), "{spec:?}: {message}");
    }
    // The server is still healthy afterwards.
    let resp = client.request_parsed(&match_payload("acme")).unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    core.drain();
}

/// `grans` takes every spelling of the granularity grammar, the calendar
/// expressions included.
#[test]
fn grans_accept_calendar_expressions() {
    let core = small_core();
    let client = core.client();
    // Rise on Monday 2000-01-03, fall the Thursday after: the same fiscal
    // year (April 1999 – March 2000).
    let payload = r#"{"op":"match","tenant":"t","grans":["fiscal-years starting apr"],
        "structure":{"variables":["rise","fall"],"constraints":[
          {"from":0,"to":1,"lo":0,"hi":0,"granularity":"fiscal-years starting apr"}]},
        "types":["rise","fall"],
        "events":[{"ty":"rise","time":208800},{"ty":"fall","time":500000}]}"#;
    let resp = client.request_parsed(payload).unwrap();
    let Response::Ok(result) = &resp else {
        panic!("match failed: {resp:?}");
    };
    assert_eq!(completions_at(result), [500000]);
    core.drain();
}

/// Asserts no object in `v` repeats a key: a client whose JSON parser
/// keeps the last duplicate must read what one keeping the first reads.
fn assert_unique_keys(v: &Value, context: &str) {
    match v {
        Value::Object(fields) => {
            let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            let before = keys.len();
            keys.dedup();
            assert_eq!(keys.len(), before, "duplicate key in {context}");
            for (_, child) in fields {
                assert_unique_keys(child, context);
            }
        }
        Value::Array(items) => items.iter().for_each(|i| assert_unique_keys(i, context)),
        _ => {}
    }
}

#[test]
fn no_response_repeats_a_key() {
    let core = small_core();
    let client = core.client();
    let check = |payload: &str| -> Value {
        let raw = client.request(payload);
        let v = tgm_events::minijson::parse(&raw).unwrap_or_else(|e| panic!("{raw}: {e:?}"));
        assert_unique_keys(&v, &raw);
        v
    };
    check(r#"{"op":"ping"}"#);
    check(&match_payload("acme"));
    check(&star_mine_payload(3));
    let opened = check(&open_payload("acme"));
    let session = opened
        .get("result")
        .and_then(|r| r.get("session"))
        .and_then(Value::as_u64)
        .expect("open returns a session id");
    let pushed = check(&push_payload(
        "acme",
        session,
        &[("rise", 208800), ("report", 291600), ("fall", 500000)],
    ));
    assert_eq!(completions_at(pushed.get("result").unwrap()), [500000]);
    let closed = check(&format!(
        r#"{{"op":"session.close","tenant":"acme","session":{session}}}"#
    ));
    let total = closed.get("result").and_then(|r| r.get("completions"));
    assert_eq!(total.and_then(Value::as_u64), Some(1), "close keeps the total");
    let stats = check(r#"{"op":"stats","tenant":"acme"}"#);
    let frame = stats
        .get("result")
        .and_then(|r| r.get("frame"))
        .and_then(Value::as_str)
        .expect("stats returns a frame");
    for line in frame.lines().filter(|l| !l.is_empty()) {
        let v = tgm_events::minijson::parse(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        assert_unique_keys(&v, line);
    }
    check(r#"{"op":"stats","tenant":"acme","format":"openmetrics"}"#);
    let err = check(r#"{"op":"match","tenant":"t"}"#);
    assert!(matches!(err.get("ok"), Some(Value::Bool(false))), "a typed error");
    core.drain();
}

/// A `mine` request over a structure of `n` variables: a root with
/// `n - 1` children.
fn star_mine_payload(n: usize) -> String {
    let variables: Vec<String> = (0..n).map(|i| format!("\"X{i}\"")).collect();
    let constraints: Vec<String> = (1..n)
        .map(|i| format!(r#"{{"from":0,"to":{i},"lo":0,"hi":1,"granularity":"day"}}"#))
        .collect();
    format!(
        r#"{{"op":"mine","tenant":"t","structure":{{"variables":[{}],"constraints":[{}]}},{EVENTS},"reference":"rise"}}"#,
        variables.join(","),
        constraints.join(",")
    )
}

#[test]
fn mine_wider_than_the_pipeline_is_a_bad_request() {
    let core = small_core();
    let client = core.client();
    let resp = client.request_parsed(&star_mine_payload(65)).unwrap();
    let Response::Err { kind, message, .. } = &resp else {
        panic!("a 65-variable mine must be refused: {resp:?}");
    };
    assert_eq!(*kind, ErrorKind::BadRequest, "{message}");
    assert!(message.contains("at most 64 variables"), "{message}");
    // The server is still healthy afterwards.
    let resp = client.request_parsed(&match_payload("acme")).unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    core.drain();
}

#[test]
fn tcp_round_trip_is_bit_identical_to_in_process() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_depth: 32,
            default_quotas: Quotas::unlimited(),
            tenant_quotas: vec![],
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let payload = match_payload("acme");
    write_frame(&mut writer, payload.as_bytes()).unwrap();
    let tcp_response = read_frame(&mut reader).unwrap().unwrap();

    let inproc_response = server.core().client().request(&payload);
    assert_eq!(String::from_utf8(tcp_response).unwrap(), inproc_response);

    // Several frames over one connection.
    for _ in 0..3 {
        write_frame(&mut writer, br#"{"op":"ping"}"#).unwrap();
        let r = read_frame(&mut reader).unwrap().unwrap();
        assert!(String::from_utf8(r).unwrap().contains("\"pong\":true"));
    }
    drop(writer);
    server.drain();
}

#[test]
fn poison_frame_gets_typed_error_and_server_survives() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Oversize declared length: typed BadRequest, then close.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    std::io::Write::write_all(&mut writer, b"tgm1 99999999999999999999\n").unwrap();
    std::io::Write::flush(&mut writer).unwrap();
    let resp = read_frame(&mut reader).unwrap().unwrap();
    let parsed = Response::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(parsed.error_kind(), Some(ErrorKind::BadRequest));
    assert_eq!(read_frame(&mut reader).unwrap(), None, "connection closed");

    // Garbage magic: same containment.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    std::io::Write::write_all(&mut writer, b"GET / HTTP/1.1\r\n\r\n").unwrap();
    std::io::Write::flush(&mut writer).unwrap();
    let resp = read_frame(&mut reader).unwrap().unwrap();
    let parsed = Response::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(parsed.error_kind(), Some(ErrorKind::BadRequest));

    // A healthy client is unaffected.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    write_frame(&mut writer, match_payload("healthy").as_bytes()).unwrap();
    let resp = read_frame(&mut reader).unwrap().unwrap();
    let parsed = Response::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(completions_at(parsed.result().unwrap()), [500000]);
    server.drain();
}

#[test]
fn inflight_cap_sheds_overloaded_with_retry_hint() {
    let core = ServerCore::start(ServerConfig {
        workers: 1,
        queue_depth: 8,
        default_quotas: Quotas::unlimited(),
        tenant_quotas: vec![("capped".to_string(), Quotas::unlimited().with_max_inflight(0))],
    });
    let client = core.client();
    let resp = client.request_parsed(&match_payload("capped")).unwrap();
    let Response::Err {
        kind,
        retry_after_ms,
        ..
    } = resp
    else {
        panic!("expected a shed");
    };
    assert_eq!(kind, ErrorKind::Overloaded);
    assert!(retry_after_ms.is_some(), "sheds carry a backoff hint");
    // An uncapped tenant on the same core is unaffected.
    let ok = client.request_parsed(&match_payload("open")).unwrap();
    assert!(matches!(ok, Response::Ok(_)));
    assert_eq!(core.sheds(), 1);
    core.drain();
}

#[test]
fn session_lifecycle_quota_and_ordering() {
    let core = ServerCore::start(ServerConfig {
        workers: 1,
        queue_depth: 8,
        default_quotas: Quotas::unlimited().with_max_sessions(1),
        tenant_quotas: vec![],
    });
    let client = core.client();

    let resp = client.request_parsed(&open_payload("acme")).unwrap();
    let session = resp
        .result()
        .and_then(|r| r.get("session").and_then(Value::as_u64))
        .expect("open returns a session id");

    // The quota caps a second open...
    let second = client.request_parsed(&open_payload("acme")).unwrap();
    assert_eq!(second.error_kind(), Some(ErrorKind::QuotaExceeded));
    // ...but only for this tenant.
    let other = client.request_parsed(&open_payload("other")).unwrap();
    assert!(matches!(other, Response::Ok(_)));

    // Push in two batches; the completion lands in the second.
    let r1 = client
        .request_parsed(&push_payload(
            "acme",
            session,
            &[("rise", 208800), ("noise", 250000)],
        ))
        .unwrap();
    assert_eq!(completions_at(r1.result().unwrap()), []);
    let r2 = client
        .request_parsed(&push_payload(
            "acme",
            session,
            &[("report", 291600), ("fall", 500000), ("rise", 813600)],
        ))
        .unwrap();
    assert_eq!(completions_at(r2.result().unwrap()), [500000]);
    assert_eq!(
        r2.result().unwrap().get("events").and_then(Value::as_i64),
        Some(5)
    );

    // Regressing behind the watermark is a typed user error; the session
    // survives it.
    let bad = client
        .request_parsed(&push_payload("acme", session, &[("rise", 100)]))
        .unwrap();
    assert_eq!(bad.error_kind(), Some(ErrorKind::BadRequest));

    // Unknown session ids are typed.
    let missing = client
        .request_parsed(&push_payload("acme", 999, &[("rise", 900000)]))
        .unwrap();
    assert_eq!(missing.error_kind(), Some(ErrorKind::UnknownSession));

    // Close returns final stats; a second close is UnknownSession.
    let close = format!(r#"{{"op":"session.close","tenant":"acme","session":{session}}}"#);
    let closed = client.request_parsed(&close).unwrap();
    let result = closed.result().expect("close succeeds").clone();
    assert_eq!(result.get("events").and_then(Value::as_i64), Some(5));
    assert_eq!(
        result.get("verdict").and_then(Value::as_str),
        Some("completed")
    );
    let again = client.request_parsed(&close).unwrap();
    assert_eq!(again.error_kind(), Some(ErrorKind::UnknownSession));

    // With the slot closed, the quota frees up.
    let reopened = client.request_parsed(&open_payload("acme")).unwrap();
    assert!(matches!(reopened, Response::Ok(_)));
    core.drain();
}

#[test]
fn stats_frames_are_labelled_per_tenant() {
    let core = small_core();
    let client = core.client();
    client.request(&match_payload("acme"));
    let resp = client
        .request_parsed(r#"{"op":"stats","tenant":"acme"}"#)
        .unwrap();
    let frame = resp
        .result()
        .and_then(|r| r.get("frame").and_then(Value::as_str))
        .expect("stats returns a frame")
        .to_string();
    assert!(frame.contains("\"schema\":\"tgm_obs_stream/v1\""), "{frame}");
    assert!(frame.contains("\"labels\":{\"tenant\":\"acme\"}"), "{frame}");
    for gauge in [
        "\"frontier\":",
        "\"events_total\":5",
        "\"events_per_sec\":",
        "\"watermark_lag\":",
    ] {
        assert!(frame.contains(gauge), "missing {gauge} in {frame}");
    }
    let om = client
        .request_parsed(r#"{"op":"stats","tenant":"acme","format":"openmetrics"}"#)
        .unwrap();
    let om_frame = om
        .result()
        .and_then(|r| r.get("frame").and_then(Value::as_str))
        .unwrap()
        .to_string();
    assert!(om_frame.contains("tgm_events_total{tenant=\"acme\"} 5"), "{om_frame}");
    core.drain();
}

#[test]
fn drain_refuses_new_work_and_flushes_tenant_frames() {
    let core = small_core();
    let client = core.client();
    assert!(matches!(
        client.request_parsed(&match_payload("a")).unwrap(),
        Response::Ok(_)
    ));
    assert!(matches!(
        client.request_parsed(&match_payload("b")).unwrap(),
        Response::Ok(_)
    ));

    let frames = core.drain();
    assert_eq!(frames.len(), 2, "one final frame per tenant");
    assert!(frames.iter().any(|f| f.contains("\"tenant\":\"a\"")));
    assert!(frames.iter().any(|f| f.contains("\"tenant\":\"b\"")));

    let post = client.request_parsed(&match_payload("a")).unwrap();
    assert_eq!(post.error_kind(), Some(ErrorKind::Draining));
}

#[test]
fn concurrent_tenants_all_get_correct_typed_outcomes() {
    let core = ServerCore::start(ServerConfig {
        workers: 4,
        queue_depth: 64,
        default_quotas: Quotas::unlimited(),
        tenant_quotas: vec![(
            "capped".to_string(),
            Quotas::unlimited().with_max_inflight(0),
        )],
    });
    let mut handles = Vec::new();
    for i in 0..8 {
        let client = core.client();
        handles.push(std::thread::spawn(move || {
            let tenant = if i % 4 == 0 {
                "capped".to_string()
            } else {
                format!("tenant-{i}")
            };
            let mut outcomes = Vec::new();
            for _ in 0..5 {
                let resp = client.request_parsed(&match_payload(&tenant)).unwrap();
                outcomes.push((tenant.clone(), resp));
            }
            outcomes
        }));
    }
    for h in handles {
        for (tenant, resp) in h.join().unwrap() {
            if tenant == "capped" {
                assert_eq!(resp.error_kind(), Some(ErrorKind::Overloaded));
            } else {
                let result = resp.result().unwrap_or_else(|| {
                    panic!("healthy tenant {tenant} failed: {resp:?}")
                });
                assert_eq!(completions_at(result), [500000]);
            }
        }
    }
    core.drain();
}

#[test]
fn saturation_yields_only_results_or_typed_sheds() {
    // 64 barrier-released clients, two requests each, against an admission
    // capacity of 8 (4 tenants × inflight cap 2). How many are served is
    // up to the scheduler; what each response may be is not.
    const THREADS: usize = 64;
    const REQUESTS: usize = 2;
    const TENANTS: usize = 4;
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(2, 8);
    let core = ServerCore::start(ServerConfig {
        workers,
        queue_depth: 64,
        default_quotas: Quotas::unlimited().with_max_inflight(2),
        tenant_quotas: vec![],
    });
    let barrier = std::sync::Barrier::new(THREADS);
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let client = core.client();
                let payload = match_payload(&format!("tenant-{}", i % TENANTS));
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    (0..REQUESTS)
                        .map(|_| client.request_parsed(&payload))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(responses.len(), THREADS * REQUESTS);
    let mut ok = 0;
    for resp in responses {
        match resp {
            Ok(Response::Ok(result)) => {
                assert_eq!(completions_at(&result), [500000]);
                ok += 1;
            }
            Ok(Response::Err {
                kind: ErrorKind::Overloaded,
                retry_after_ms: Some(_),
                ..
            }) => {}
            other => panic!("neither a result nor a typed shed with a retry hint: {other:?}"),
        }
    }
    assert!(ok > 0, "saturation served none of its {} requests", THREADS * REQUESTS);
    core.drain();
}
