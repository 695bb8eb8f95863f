//! `serve`: `tgm_serve/v1` over TCP against `Server::bind` in this
//! process. One connection (and tenant) per load thread, at most one per
//! CPU. Each connection holds one long-lived session fed `session.push`
//! micro-batches (writes), interleaved with stateless `match` requests
//! (reads). A paced phase sends on a fixed schedule and times each request
//! from when it was due; a closed-loop phase then measures peak rate.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use tgm_core::json::structure_from_json;
use tgm_core::ComplexEventType;
use tgm_events::minijson::{self, Value};
use tgm_events::{Event, TypeRegistry};
use tgm_granularity::Calendar;
use tgm_serve::proto::{parse_request, Response};
use tgm_serve::{read_frame, Server, ServerConfig};
use tgm_tag::{build_tag, MatchSession, Matcher};

use crate::{median, median_setup, median_us, quantile, sort, Outcome, Rng};

const STRUCTURE: &str = r#"{"variables":["rise","report","fall"],"constraints":[{"from":0,"to":1,"lo":1,"hi":1,"granularity":"business-day"},{"from":1,"to":2,"lo":0,"hi":1,"granularity":"week"}]}"#;
/// The pattern's types, one per structure variable.
const TYPES: [&str; 3] = ["rise", "report", "fall"];
/// Every event name the generator draws from.
const NAMES: [&str; 6] = ["rise", "report", "fall", "noise-a", "noise-b", "noise-c"];
const GRANS: [&str; 2] = ["business-day", "week"];
const MATCH_EVENTS: usize = 256;
const PUSH_EVENTS: usize = 64;
/// Distinct `match` payloads per seed; each is answered many times.
const MATCH_VARIANTS: u64 = 8;
/// One request in this many is a `match`; the rest are `session.push`.
const MATCH_EVERY: u64 = 4;
/// Paced phase: each connection sends one request per `PACE`, three
/// quarters of the TCP capacity of the commit that introduced this
/// benchmark (about 22 requests/s per connection, each stalled ~40 ms by
/// a delayed ACK). Far slower schedules let the client's TCP quick-ACK
/// after idling and hide that stall.
const PACE: Duration = Duration::from_millis(60);
/// Paced-phase length of the traced layer probe.
const PROBE_PACED: Duration = Duration::from_secs(3);
/// First timestamp (Monday 2000-01-03); generated events cover years.
const START: i64 = 2 * 86_400;
const WARM_SPAN: i64 = 10 * 365 * 86_400;

// -- inputs -------------------------------------------------------------------

/// Events as (name index, time), one every 10 min to 2 h.
struct EventGen {
    rng: Rng,
    time: i64,
}

impl EventGen {
    fn new(seed: u64, stream: u64) -> EventGen {
        EventGen {
            rng: Rng::new(seed, stream),
            time: START,
        }
    }

    fn next(&mut self, n: usize) -> Vec<(usize, i64)> {
        (0..n)
            .map(|_| {
                self.time += self.rng.range(600, 7_200);
                (self.rng.range(0, NAMES.len() as i64) as usize, self.time)
            })
            .collect()
    }
}

fn match_events(seed: u64, variant: u64) -> Vec<(usize, i64)> {
    EventGen::new(seed, 1_000 + variant).next(MATCH_EVENTS)
}

/// The push stream of connection `conn`.
fn push_gen(seed: u64, conn: usize) -> EventGen {
    EventGen::new(seed, 2_000 + conn as u64)
}

fn events_json(out: &mut String, events: &[(usize, i64)]) {
    out.push_str("\"events\":[");
    for (i, (ty, t)) in events.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        out.push_str(&format!("{sep}{{\"ty\":\"{}\",\"time\":{t}}}", NAMES[*ty]));
    }
    out.push(']');
}

fn types_json() -> String {
    format!("[\"{}\"]", TYPES.join("\",\""))
}

fn match_payload(tenant: &str, events: &[(usize, i64)]) -> String {
    let mut p = format!(
        "{{\"op\":\"match\",\"tenant\":\"{tenant}\",\"structure\":{STRUCTURE},\"types\":{},",
        types_json()
    );
    events_json(&mut p, events);
    p.push('}');
    p
}

fn push_payload(tenant: &str, session: u64, events: &[(usize, i64)]) -> String {
    let mut p = format!("{{\"op\":\"session.push\",\"tenant\":\"{tenant}\",\"session\":{session},");
    events_json(&mut p, events);
    p.push('}');
    p
}

fn open_payload(tenant: &str) -> String {
    format!(
        "{{\"op\":\"session.open\",\"tenant\":\"{tenant}\",\"structure\":{STRUCTURE},\"types\":{}}}",
        types_json()
    )
}

// -- client -------------------------------------------------------------------

/// One TCP connection. `TCP_NODELAY` is set and each request frame goes
/// out in one write, so the client adds no Nagle stall of its own.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn request(&mut self, payload: &str) -> Result<String, String> {
        let mut frame = format!("tgm1 {}\n", payload.len()).into_bytes();
        frame.extend_from_slice(payload.as_bytes());
        self.writer.write_all(&frame).map_err(|e| e.to_string())?;
        match read_frame(&mut self.reader) {
            Ok(Some(bytes)) => String::from_utf8(bytes).map_err(|e| e.to_string()),
            Ok(None) => Err("server closed the connection".to_string()),
            Err(e) => Err(e.to_string()),
        }
    }
}

fn ok_result(resp: &str) -> Option<Value> {
    match Response::parse(resp) {
        Ok(Response::Ok(v)) => Some(v),
        _ => None,
    }
}

/// The counters a `match` answer must agree on.
const MATCH_FIELDS: [&str; 3] = ["events", "peak_configs", "expansions"];
/// The counters a `session.push` answer must agree on.
const PUSH_FIELDS: [&str; 6] = [
    "events",
    "frontier",
    "peak_frontier",
    "expansions",
    "evicted_rows",
    "evictions",
];

/// The part of an `ok` answer the checks compare: the `fields` counters,
/// then each listed completion's index and time. Other fields (a request
/// id, say) may differ between equal answers. `None` unless `ok`.
fn answer(resp: &str, fields: &[&str]) -> Option<Vec<i64>> {
    let v = ok_result(resp)?;
    let mut out = fields
        .iter()
        .map(|f| v.get(f).and_then(Value::as_i64))
        .collect::<Option<Vec<i64>>>()?;
    if let Some(completions) = v.get("completions").and_then(Value::as_array) {
        for c in completions {
            out.push(c.get("index")?.as_i64()?);
            out.push(c.get("at")?.as_i64()?);
        }
    }
    Some(out)
}

fn open_session(conn: &mut Conn, tenant: &str) -> u64 {
    let resp = conn
        .request(&open_payload(tenant))
        .expect("session.open round trip");
    ok_result(&resp)
        .and_then(|v| v.get("session").and_then(Value::as_u64))
        .unwrap_or_else(|| panic!("session.open refused: {resp}"))
}

/// A load connection: its tenant, session, push stream and request mix.
struct Tenant {
    name: String,
    session: u64,
    conn: Conn,
    pushes: EventGen,
    pushes_sent: usize,
    mix: Rng,
}

/// What one load thread (or, merged, one phase) saw.
#[derive(Default)]
struct Record {
    /// Wall time of the phase, until the last response was in.
    elapsed: Duration,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// The first answer to each `match` variant.
    matches: BTreeMap<u64, Vec<i64>>,
}

/// The next request of a connection's mix.
enum Next {
    /// One of the seed's `match` payloads.
    Match(u64),
    /// A rendered `session.push` payload.
    Push(String),
}

impl Record {
    /// Counts one request: it fails unless it was answered `ok`, and a
    /// `match` must get the same answer as the first time it was sent.
    fn judge(&mut self, resp: Result<String, String>, sent: &Next) {
        self.attempted += 1;
        let ok = match (resp, sent) {
            (Ok(r), Next::Match(v)) => answer(&r, &MATCH_FIELDS)
                .is_some_and(|a| a == *self.matches.entry(*v).or_insert_with(|| a.clone())),
            (Ok(r), Next::Push(_)) => answer(&r, &PUSH_FIELDS).is_some(),
            (Err(_), _) => false,
        };
        if !ok {
            self.failed += 1;
        }
    }
}

impl Tenant {
    /// Draws (and renders) the next request; untimed.
    fn next(&mut self) -> Next {
        let draw = self.mix.next_u64();
        if draw.is_multiple_of(MATCH_EVERY) {
            Next::Match((draw / MATCH_EVERY) % MATCH_VARIANTS)
        } else {
            self.pushes_sent += 1;
            let events = self.pushes.next(PUSH_EVENTS);
            Next::Push(push_payload(&self.name, self.session, &events))
        }
    }

    /// Sends `next` and waits for its response.
    fn send(&mut self, next: &Next, matches: &[String]) -> Result<String, String> {
        match next {
            Next::Match(v) => self.conn.request(&matches[*v as usize]),
            Next::Push(payload) => self.conn.request(payload),
        }
    }

    /// Paced phase: request `k` is due at `start + offset + k·PACE`.
    fn paced(
        &mut self,
        matches: &[String],
        start: Instant,
        offset: Duration,
        run: Duration,
    ) -> Record {
        let mut rec = Record::default();
        for k in 0.. {
            let due = start + offset + PACE * k;
            if due >= start + run {
                break;
            }
            let next = self.next();
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let resp = self.send(&next, matches);
            let done = Instant::now();
            rec.late_ms.push((sent - due).as_secs_f64() * 1e3);
            rec.latency_ms.push((done - due).as_secs_f64() * 1e3);
            rec.judge(resp, &next);
        }
        rec
    }

    /// Closed loop: the next request goes out when the last one is answered.
    fn closed_loop(&mut self, matches: &[String], run: Duration) -> Record {
        let mut rec = Record::default();
        let end = Instant::now() + run;
        while Instant::now() < end {
            let next = self.next();
            let resp = self.send(&next, matches);
            rec.judge(resp, &next);
        }
        rec
    }
}

/// A running server plus one session-holding connection per load thread.
struct Rig {
    server: Server,
    tenants: Vec<Tenant>,
}

/// `[conn][variant]`: the seed's `match` payloads in each connection's
/// tenant name; rendered once, before any set-up is timed.
fn match_payloads(seed: u64) -> Vec<Vec<String>> {
    (0..crate::host_cpus())
        .map(|c| {
            (0..MATCH_VARIANTS)
                .map(|v| match_payload(&format!("tenant-{c}"), &match_events(seed, v)))
                .collect()
        })
        .collect()
}

fn config() -> ServerConfig {
    ServerConfig {
        workers: crate::host_cpus(),
        ..ServerConfig::default()
    }
}

/// The program's set-up: server bind (worker pool), connections and
/// session opens; the server builds each session's calendar and TAG.
fn setup(seed: u64) -> Rig {
    let server = Server::bind("127.0.0.1:0", config()).expect("bind a loopback port");
    let tenants = (0..crate::host_cpus())
        .map(|c| {
            let name = format!("tenant-{c}");
            let mut conn = Conn::open(server.local_addr()).expect("connect to the server");
            let session = open_session(&mut conn, &name);
            Tenant {
                name,
                session,
                conn,
                pushes: push_gen(seed, c),
                pushes_sent: 0,
                mix: Rng::new(seed, 3_000 + c as u64),
            }
        })
        .collect();
    Rig { server, tenants }
}

impl Rig {
    /// Runs one phase on every connection, one thread each, and merges
    /// their records. `paced == false` runs the closed loop.
    fn phase(&mut self, matches: &[Vec<String>], paced: bool, run: Duration) -> Record {
        let n = self.tenants.len() as u32;
        let start = Instant::now();
        let recs: Vec<Record> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .tenants
                .iter_mut()
                .zip(matches)
                .enumerate()
                .map(|(c, (t, m))| {
                    // Connections are spread evenly over one pace period.
                    let offset = PACE * c as u32 / n;
                    s.spawn(move || {
                        if paced {
                            t.paced(m, start, offset, run)
                        } else {
                            t.closed_loop(m, run)
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        let mut all = Record {
            elapsed: start.elapsed(),
            ..Record::default()
        };
        for r in recs {
            all.latency_ms.extend(r.latency_ms);
            all.late_ms.extend(r.late_ms);
            all.attempted += r.attempted;
            all.failed += r.failed;
            for (v, resp) in r.matches {
                let first = all.matches.entry(v).or_insert_with(|| resp.clone());
                if *first != resp {
                    all.failed += 1;
                }
            }
        }
        all
    }

    /// Stops the server without checking anything.
    fn shutdown(self) {
        drop(self.tenants);
        self.server.drain();
    }

    /// Closes every session, checking its final stats against a local
    /// session fed the same pushes, then stops the server.
    fn finish(mut self, seed: u64, out: &mut Outcome) {
        for (c, t) in self.tenants.iter_mut().enumerate() {
            let close = format!(
                "{{\"op\":\"session.close\",\"tenant\":\"{}\",\"session\":{}}}",
                t.name, t.session
            );
            let got = t.conn.request(&close).ok().and_then(|r| ok_result(&r));
            let want = local_session_stats(seed, c, t.pushes_sent);
            let same = got.as_ref().is_some_and(|v| {
                CLOSE_FIELDS
                    .iter()
                    .zip(want)
                    .all(|(f, w)| v.get(f).and_then(Value::as_u64) == Some(w))
            });
            out.check(same, || {
                format!("{} close stats {got:?}, local session {want:?}", t.name)
            });
        }
        self.shutdown();
    }
}

/// The `session.close` fields [`local_session_stats`] reproduces, in order.
const CLOSE_FIELDS: [&str; 7] = [
    "events",
    "completions",
    "frontier",
    "peak_frontier",
    "expansions",
    "evicted_rows",
    "evictions",
];

/// The server's session, replayed locally: types interned first, then
/// each push's names in arrival order, as the server's registry does.
fn local_session_stats(seed: u64, conn: usize, pushes: usize) -> [u64; 7] {
    let cal = Calendar::standard();
    let structure = structure_from_json(STRUCTURE, &cal).expect("valid structure");
    let mut reg = TypeRegistry::new();
    let phi = TYPES.iter().map(|n| reg.intern(n)).collect();
    let tag = build_tag(&ComplexEventType::new(structure, phi));
    let mut session = MatchSession::new(&tag);
    let mut gen = push_gen(seed, conn);
    for _ in 0..pushes {
        let batch: Vec<Event> = gen
            .next(PUSH_EVENTS)
            .into_iter()
            .map(|(ty, t)| Event::new(reg.intern(NAMES[ty]), t))
            .collect();
        session.push_batch(&batch);
    }
    let s = session.stats();
    [
        s.events as u64,
        s.completions,
        s.frontier as u64,
        s.peak_frontier as u64,
        s.expansions,
        s.evicted_rows,
        s.evictions,
    ]
}

/// Each distinct `match` answer against the batch matcher (counters)
/// and a local session (completions) on the same events.
fn check_matches(seed: u64, answers: &BTreeMap<u64, Vec<i64>>, out: &mut Outcome) {
    let cal = Calendar::standard();
    for (&v, got) in answers {
        let structure = structure_from_json(STRUCTURE, &cal).expect("valid structure");
        // The server interns event names first, then the pattern's types.
        let mut reg = TypeRegistry::new();
        let events: Vec<Event> = match_events(seed, v)
            .into_iter()
            .map(|(ty, t)| Event::new(reg.intern(NAMES[ty]), t))
            .collect();
        let phi = TYPES.iter().map(|n| reg.intern(n)).collect();
        let tag = build_tag(&ComplexEventType::new(structure, phi));
        let stats = Matcher::new(&tag).run(&events, false);
        let mut session = MatchSession::new(&tag);
        session.push_batch(&events);
        // In `answer`'s layout: MATCH_FIELDS, then completions.
        let mut want = vec![
            stats.events as i64,
            stats.peak_configs as i64,
            stats.expansions as i64,
        ];
        want.extend(session.completed().flat_map(|c| [c.index as i64, c.at]));
        out.check(*got == want, || {
            format!("match variant {v}: answer {got:?}, oracles {want:?}")
        });
    }
}

/// Folds a phase's record into the outcome (oracle checks included).
fn account(rec: &Record, seed: u64, out: &mut Outcome) {
    out.attempted += rec.attempted;
    out.failed += rec.failed;
    if rec.failed > 0 {
        eprintln!(
            "tgmbench: {} of {} serve requests failed",
            rec.failed, rec.attempted
        );
    }
    check_matches(seed, &rec.matches, out);
}

pub fn run(seed: u64, run: Duration) -> Outcome {
    let mut out = Outcome::default();
    let matches = match_payloads(seed);
    let (setup_s, mut rig) = median_setup(|| setup(seed), Rig::shutdown);
    let mut paced = rig.phase(&matches, true, run / 2);
    let peak = rig.phase(&matches, false, run / 2);
    let rss_mb = crate::peak_rss_mb();
    account(&paced, seed, &mut out);
    account(&peak, seed, &mut out);
    rig.finish(seed, &mut out);
    let peak_rps = peak.attempted as f64 / peak.elapsed.as_secs_f64();
    out.notes.push(format!(
        "serve: {} connections, paced {} requests, closed loop {} requests",
        crate::host_cpus(),
        paced.attempted,
        peak.attempted
    ));
    out.end_to_end(setup_s, &mut paced.latency_ms, peak_rps, rss_mb);
    out
}

/// Paced-phase p50 with `tgm_obs` switched off after the server started
/// it, then on as the server ships (and as the end-to-end run measures
/// it); returns the traced run's excess in percent. Each half gets a fresh
/// server, so both start from the TCP state the end-to-end run starts
/// from: the client's delayed-ACK mode depends on the connection's recent
/// history, and an idle gap between phases can switch it.
pub fn overhead_pct(seed: u64, half: Duration, out: &mut Outcome) -> f64 {
    let matches = match_payloads(seed);
    let mut p50 = |obs: bool| {
        let mut rig = setup(seed);
        tgm_obs::set_enabled(obs);
        let mut paced = rig.phase(&matches, true, half);
        account(&paced, seed, out);
        rig.finish(seed, out);
        median(&mut paced.latency_ms)
    };
    let plain = p50(false);
    let traced = p50(true);
    (traced / plain - 1.0) * 100.0
}

/// Set-up layers on this workload: (calendar build µs, `build_tag` µs).
pub fn setup_layers() -> (f64, f64) {
    let cal_us = median_us(31, || {
        crate::warm_calendar(&GRANS, START, START + WARM_SPAN)
    });
    let (cal, _) = crate::warm_calendar(&GRANS, START, START + WARM_SPAN);
    let structure = structure_from_json(STRUCTURE, &cal).expect("valid structure");
    let mut reg = TypeRegistry::new();
    let phi = TYPES.iter().map(|n| reg.intern(n)).collect();
    let cet = ComplexEventType::new(structure, phi);
    (cal_us, median_us(31, || build_tag(&cet)))
}

/// Layer metrics measured on this workload's requests: JSON decode and
/// request parsing per payload, an unloaded in-process request, the TCP
/// round trip's excess over it, and a short traced paced phase.
pub fn layers(seed: u64, out: &mut Outcome) {
    let server = Server::bind("127.0.0.1:0", config()).expect("bind a loopback port");
    let client = server.core().client();
    let mut conn = Conn::open(server.local_addr()).expect("connect to the server");
    let inproc_session = ok_result(&client.request(&open_payload("probe-inproc")))
        .and_then(|v| v.get("session").and_then(Value::as_u64))
        .expect("in-process session.open");
    let tcp_session = open_session(&mut conn, "probe-tcp");

    // The request mix, once per target: identical events, so equal
    // answers. Each entry: (in-process payload, TCP payload, fields).
    let mut pushes = push_gen(seed, 0);
    let probes: Vec<(String, String, &[&str])> = (0..MATCH_VARIANTS * MATCH_EVERY)
        .map(|i| {
            if i.is_multiple_of(MATCH_EVERY) {
                let events = match_events(seed, i / MATCH_EVERY);
                let payload = |tenant| match_payload(tenant, &events);
                (
                    payload("probe-inproc"),
                    payload("probe-tcp"),
                    &MATCH_FIELDS[..],
                )
            } else {
                let events = pushes.next(PUSH_EVENTS);
                (
                    push_payload("probe-inproc", inproc_session, &events),
                    push_payload("probe-tcp", tcp_session, &events),
                    &PUSH_FIELDS[..],
                )
            }
        })
        .collect();
    let per_payload = probes.len() as f64;
    let decode_us = median_us(21, || {
        probes
            .iter()
            .filter(|(_, p, _)| minijson::parse(p).is_ok())
            .count()
    });
    out.metric("events.json_decode_us", decode_us / per_payload, "us");
    let parse_us = median_us(21, || {
        probes
            .iter()
            .filter(|(_, p, _)| parse_request(p).is_ok())
            .count()
    });
    out.metric("serve.parse_request_us", parse_us / per_payload, "us");

    let mut inproc_ms = Vec::new();
    let mut wire_ms = Vec::new();
    for (local, remote, fields) in &probes {
        let t0 = Instant::now();
        let a = client.request(local);
        let t1 = Instant::now();
        let b = conn.request(remote);
        let t2 = Instant::now();
        inproc_ms.push((t1 - t0).as_secs_f64() * 1e3);
        wire_ms.push(((t2 - t1).as_secs_f64() - (t1 - t0).as_secs_f64()) * 1e3);
        let (x, y) = (answer(&a, fields), b.ok().and_then(|b| answer(&b, fields)));
        out.check(x.is_some() && x == y, || {
            format!("in-process answer {x:?} and TCP answer {y:?} differ")
        });
    }
    drop(conn);
    server.drain();
    let inproc = median(&mut inproc_ms);
    let wire = median(&mut wire_ms);
    out.metric("serve.inproc_ms_p50", inproc, "ms");
    out.metric("serve.wire_ms_p50", wire, "ms");

    let mut rig = setup(seed);
    let mut paced = rig.phase(&match_payloads(seed), true, PROBE_PACED);
    account(&paced, seed, out);
    let sheds = rig.server.core().sheds();
    let handled = rig.server.core().requests_handled();
    rig.finish(seed, out);
    out.metric(
        "serve.unattributed_ms",
        median(&mut paced.latency_ms) - inproc - wire,
        "ms",
    );
    sort(&mut paced.late_ms);
    out.metric(
        "serve.generator_late_ms",
        quantile(&paced.late_ms, 0.9),
        "ms",
    );
    out.metric("serve.sheds", sheds as f64, "count");
    out.metric("serve.requests_handled", handled as f64, "count");
}
