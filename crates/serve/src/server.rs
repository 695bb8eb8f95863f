//! The serving core: a fixed worker pool behind a bounded admission queue,
//! fronted by an in-process [`Client`] and a TCP [`Server`].
//!
//! # Request path
//!
//! ```text
//! frame ──parse──▶ admission ──queue──▶ worker ──reply──▶ frame
//!                   │    │                │
//!                   │    └─ full ────────▶ Overloaded + retry_after_ms
//!                   ├─ tenant cap ───────▶ Overloaded + retry_after_ms
//!                   ├─ session quota ────▶ QuotaExceeded
//!                   └─ draining ─────────▶ Draining
//! ```
//!
//! Every admitted request executes under a [`Limits`] minted from its
//! tenant's [`Quotas`] (deadline measured from *admission*, so queue wait
//! counts against it) inside `catch_unwind`: a panicking worker answers
//! *that* request with a typed [`ErrorKind::WorkerPanic`] carrying the
//! tenant's flight-recorder dump, then picks up the next job — the pool
//! never shrinks and other tenants never notice.
//!
//! # Drain
//!
//! [`ServerCore::drain`] (and [`Server::drain`], which also stops the
//! acceptor) flips the draining flag (new work → [`ErrorKind::Draining`]),
//! closes the queue, waits for in-flight jobs to finish (they are already
//! bounded by their own deadlines), joins the workers, and returns one
//! final labelled telemetry frame per tenant so an operator's last
//! scrape is complete.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use std::collections::BTreeMap;

use tgm_core::ComplexEventType;
use tgm_events::minijson::write_escaped;
use tgm_events::{Event, EventSequence, EventType, TypeRegistry};
use tgm_limits::{fail, panic_message, Limits, Quotas};
use tgm_mining::{pipeline, DiscoveryProblem};
use tgm_tag::{build_tag, Completion, MatchSession, SessionStats};

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{error_response, ok_response, parse_request, ErrorKind, Request};
use crate::tenant::{SessionSlot, Tenant};

/// The failpoint site armed by the serve chaos suite; hit by every worker
/// at the top of every job, with the job's limits (so `Action::Cancel`
/// cancels exactly that request).
pub const WORKER_SITE: &str = "serve.worker";

/// Static configuration for a server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing engine work.
    pub workers: usize,
    /// Bounded queue depth between admission and the workers; a full
    /// queue sheds with `Overloaded`.
    pub queue_depth: usize,
    /// Quotas applied to tenants without an explicit override.
    pub default_quotas: Quotas,
    /// Per-tenant quota overrides by tenant name.
    pub tenant_quotas: Vec<(String, Quotas)>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_depth: 64,
            default_quotas: Quotas::unlimited(),
            tenant_quotas: Vec::new(),
        }
    }
}

struct Job {
    request: Request,
    tenant: Arc<Tenant>,
    limits: Limits,
    reply: SyncSender<String>,
}

/// The transport-independent serving core. [`Client`] calls it directly;
/// the TCP [`Server`] calls it per decoded frame.
pub struct ServerCore {
    config: ServerConfig,
    tenants: Mutex<BTreeMap<String, Arc<Tenant>>>,
    jobs: Mutex<Option<SyncSender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    draining: AtomicBool,
    handled: AtomicU64,
}

impl ServerCore {
    /// Starts the worker pool and returns the shared core.
    pub fn start(config: ServerConfig) -> Arc<ServerCore> {
        // Telemetry (metrics + flight recorders) is the serve layer's
        // fault-attribution substrate, not an optional extra.
        tgm_obs::set_enabled(true);
        let workers = config.workers.max(1);
        let (tx, rx) = sync_channel::<Job>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let core = Arc::new(ServerCore {
            config,
            tenants: Mutex::new(BTreeMap::new()),
            jobs: Mutex::new(Some(tx)),
            workers: Mutex::new(Vec::new()),
            draining: AtomicBool::new(false),
            handled: AtomicU64::new(0),
        });
        let mut handles = core.workers.lock();
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("tgm-serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .unwrap_or_else(|e| panic!("spawning worker {i}: {e}")),
            );
        }
        drop(handles);
        core
    }

    /// An in-process client for this core.
    pub fn client(self: &Arc<Self>) -> Client {
        Client {
            core: Arc::clone(self),
        }
    }

    /// Total requests handled (any outcome, including sheds).
    pub fn requests_handled(&self) -> u64 {
        self.handled.load(Ordering::Acquire)
    }

    /// Total requests shed across all tenants.
    pub fn sheds(&self) -> u64 {
        self.tenants.lock().values().map(|t| t.sheds()).sum()
    }

    /// Whether the core is draining.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn tenant(&self, name: &str) -> Arc<Tenant> {
        let mut tenants = self.tenants.lock();
        if let Some(t) = tenants.get(name) {
            return Arc::clone(t);
        }
        let quotas = self
            .config
            .tenant_quotas
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, q)| *q)
            .unwrap_or(self.config.default_quotas);
        let t = Arc::new(Tenant::new(name, quotas));
        tenants.insert(name.to_string(), Arc::clone(&t));
        t
    }

    /// Handles one request payload, returning the response payload.
    /// Never panics and never returns a non-`tgm_serve/v1` document.
    pub fn handle(&self, payload: &[u8]) -> String {
        self.handled.fetch_add(1, Ordering::AcqRel);
        let payload = match std::str::from_utf8(payload) {
            Ok(p) => p,
            Err(e) => {
                return error_response(
                    ErrorKind::BadRequest,
                    &format!("payload is not UTF-8: {e}"),
                    None,
                    None,
                )
            }
        };
        let request = match parse_request(payload) {
            Ok(r) => r,
            Err(msg) => return error_response(ErrorKind::BadRequest, &msg, None, None),
        };
        if matches!(request, Request::Ping) {
            return ok_response("\"pong\":true");
        }
        let tenant = self.tenant(request.tenant().unwrap_or_default());
        if self.draining() {
            return error_response(
                ErrorKind::Draining,
                "server is draining; no new work admitted",
                None,
                None,
            );
        }
        // Stats is a cheap read of standing state — answered inline so an
        // operator can still scrape a saturated tenant.
        if let Request::Stats { openmetrics, .. } = request {
            let frame = tenant.stats_frame(openmetrics);
            let mut fields = String::from("\"frame\":");
            write_escaped(&mut fields, &frame);
            return ok_response(&fields);
        }
        // Session-open quota: a standing cap, not a load condition.
        if matches!(request, Request::SessionOpen { .. }) && tenant.session_quota_full() {
            return error_response(
                ErrorKind::QuotaExceeded,
                &format!(
                    "tenant `{}` is at its open-session quota",
                    tenant.name
                ),
                None,
                None,
            );
        }
        // Admission gate 1: the tenant's inflight cap.
        if let Err((kind, hint)) = tenant.try_admit() {
            return error_response(
                kind,
                &format!("tenant `{}` is over its inflight cap", tenant.name),
                Some(hint.as_millis() as u64),
                None,
            );
        }
        // The deadline starts at admission (queue wait counts), and every
        // request gets its own cancel token so chaos or future per-request
        // cancellation targets exactly one request.
        let limits = tenant
            .quotas
            .request_limits()
            .with_cancel(tgm_limits::CancelToken::new());
        let (reply_tx, reply_rx) = sync_channel::<String>(1);
        let job = Job {
            request,
            tenant: Arc::clone(&tenant),
            limits,
            reply: reply_tx,
        };
        // Admission gate 2: the bounded queue.
        let sent = match self.jobs.lock().as_ref() {
            Some(tx) => tx.try_send(job),
            None => {
                tenant.release();
                return error_response(
                    ErrorKind::Draining,
                    "server is draining; no new work admitted",
                    None,
                    None,
                );
            }
        };
        let response = match sent {
            Ok(()) => reply_rx.recv().unwrap_or_else(|_| {
                // The worker vanished without replying — contained as a
                // typed fault rather than a hung client.
                error_response(
                    ErrorKind::WorkerPanic,
                    "worker exited without a reply",
                    None,
                    tenant.dump().as_deref(),
                )
            }),
            Err(TrySendError::Full(_)) => {
                let hint = tenant.shed();
                error_response(
                    ErrorKind::Overloaded,
                    "admission queue is full",
                    Some(hint.as_millis() as u64),
                    None,
                )
            }
            Err(TrySendError::Disconnected(_)) => error_response(
                ErrorKind::Draining,
                "server is draining; no new work admitted",
                None,
                None,
            ),
        };
        tenant.release();
        response
    }

    /// Graceful drain: refuse new work, finish in-flight jobs, join the
    /// pool, and return one final telemetry frame per tenant (NDJSON).
    pub fn drain(&self) -> Vec<String> {
        self.draining.store(true, Ordering::Release);
        // Closing the queue lets workers exit once it empties.
        *self.jobs.lock() = None;
        let handles: Vec<JoinHandle<()>> = self.workers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        self.tenants
            .lock()
            .values()
            .map(|t| t.stats_frame(false))
            .collect()
    }
}

/// An in-process handle to a [`ServerCore`] — same admission, limits, and
/// fault semantics as the TCP path, minus the framing.
#[derive(Clone)]
pub struct Client {
    core: Arc<ServerCore>,
}

impl Client {
    /// Sends one request payload; returns the response payload.
    pub fn request(&self, payload: &str) -> String {
        self.core.handle(payload.as_bytes())
    }

    /// Sends one request and parses the response.
    pub fn request_parsed(&self, payload: &str) -> Result<crate::proto::Response, String> {
        crate::proto::Response::parse(&self.request(payload))
    }
}

// -- worker pool ------------------------------------------------------------

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        // Holding the lock only serializes job *pickup*; execution is
        // parallel. `Err` means the queue closed: drain complete.
        let job = match rx.lock().recv() {
            Ok(j) => j,
            Err(_) => return,
        };
        let tenant = Arc::clone(&job.tenant);
        let reply = job.reply.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| execute(job)));
        let response = match outcome {
            Ok(resp) => resp,
            Err(panic) => {
                // Contain the panic to this request: record it in the
                // tenant's flight recorder, attach the dump, keep serving.
                let _g = tenant.scope.enter();
                tgm_obs::recorder::worker_panic(WORKER_SITE);
                tenant.scope.counter_add("serve.worker_panic", 1);
                tenant.account_panic();
                error_response(
                    ErrorKind::WorkerPanic,
                    &format!(
                        "worker panicked at {WORKER_SITE}: {}",
                        panic_message(&*panic)
                    ),
                    None,
                    tenant.dump().as_deref(),
                )
            }
        };
        // A receiver that gave up (deadline on the client side) is fine.
        let _ = reply.send(response);
    }
}

fn execute(job: Job) -> String {
    let tenant = job.tenant;
    let limits = job.limits;
    let _g = tenant.scope.enter();
    tenant.scope.counter_add("serve.requests", 1);
    fail::point(WORKER_SITE, Some(&limits));
    // An interrupt that already landed (cancel, queue wait past the
    // deadline) is answered before any engine work — this also covers
    // session ops, which run under the session's standing limits rather
    // than this request's.
    if let Err(i) = limits.check() {
        return interrupted(&tenant, i, "admission");
    }
    match job.request {
        Request::Ping | Request::Stats { .. } => {
            // Handled inline by `ServerCore::handle`; unreachable by
            // construction but kept total.
            ok_response("\"pong\":true")
        }
        Request::Match {
            structure,
            types,
            events,
            mut registry,
            ..
        } => {
            let phi: Vec<EventType> = types.iter().map(|n| registry.intern(n)).collect();
            let tag = build_tag(&ComplexEventType::new(structure, phi));
            let mut session = MatchSession::new(&tag)
                .with_limits(limits)
                .with_scope(tenant.scope.clone());
            session.push_batch(&events);
            let completions: Vec<Completion> = session.completed().collect();
            let (run, _) = session.finish();
            tenant.account(events.len());
            if let Some(i) = run.verdict.interrupt() {
                return interrupted(&tenant, i, "match");
            }
            let mut fields = completions_json(&completions);
            fields.push_str(&format!(
                ",\"events\":{},\"peak_configs\":{},\"expansions\":{}",
                run.stats.events, run.stats.peak_configs, run.stats.expansions
            ));
            ok_response(&fields)
        }
        Request::Mine {
            structure,
            events,
            reference,
            confidence,
            registry,
            ..
        } => {
            let n_events = events.len();
            let problem = DiscoveryProblem::new(structure, confidence, reference);
            let seq = EventSequence::from_events(events);
            let opts = pipeline::PipelineOptions::default();
            match pipeline::mine_bounded(&problem, &seq, &opts, &limits) {
                Err(wp) => {
                    tenant.account_panic();
                    error_response(
                        ErrorKind::WorkerPanic,
                        &wp.to_string(),
                        None,
                        tenant.dump().as_deref(),
                    )
                }
                Ok(mined) => {
                    tenant.account(n_events);
                    if let Some(i) = mined.verdict.interrupt() {
                        return interrupted(&tenant, i, "mine");
                    }
                    let mut fields = String::from("\"solutions\":[");
                    for (i, sol) in mined.solutions.iter().enumerate() {
                        if i > 0 {
                            fields.push(',');
                        }
                        fields.push_str("{\"assignment\":[");
                        for (j, &t) in sol.assignment.iter().enumerate() {
                            if j > 0 {
                                fields.push(',');
                            }
                            write_escaped(&mut fields, registry.name(t));
                        }
                        fields.push_str(&format!(
                            "],\"frequency\":{},\"support\":{}}}",
                            sol.frequency, sol.support
                        ));
                    }
                    fields.push_str(&format!(
                        "],\"refs_total\":{},\"candidates_scanned\":{},\"tag_runs\":{}",
                        mined.stats.refs_total,
                        mined.stats.candidates_scanned,
                        mined.stats.tag_runs
                    ));
                    ok_response(&fields)
                }
            }
        }
        Request::SessionOpen {
            structure, types, ..
        } => {
            let mut registry = TypeRegistry::new();
            let phi: Vec<EventType> = types.iter().map(|n| registry.intern(n)).collect();
            let tag = Arc::new(build_tag(&ComplexEventType::new(structure, phi)));
            // Sessions outlive any single request, so they carry only the
            // tenant's standing frontier budget — never a deadline.
            let mut session_limits = Limits::none();
            if let Some(b) = tenant.quotas.budget() {
                session_limits = session_limits.with_budget(b);
            }
            let session = MatchSession::new(&tag)
                .with_limits(session_limits)
                .with_scope(tenant.scope.clone());
            let state = session.suspend();
            let id = tenant.next_session_id();
            tenant.sessions.lock().insert(
                id,
                SessionSlot {
                    tag,
                    state,
                    registry,
                    watermark: i64::MIN,
                    frontier: 0,
                },
            );
            ok_response(&format!("\"session\":{id}"))
        }
        Request::SessionPush {
            session, events, names, ..
        } => {
            let Some(mut slot) = tenant.sessions.lock().remove(&session) else {
                return unknown_session(&tenant, session);
            };
            // Map the batch into the session's own type universe. A name
            // outside the pattern's alphabet becomes the one id no pattern
            // transition consumes, so unique names never grow the slot.
            let other = EventType(slot.registry.len() as u32);
            let mapped: Vec<Event> = events
                .iter()
                .map(|e| {
                    let ty = slot.registry.get(&names[e.ty.index()]).unwrap_or(other);
                    Event::new(ty, e.time)
                })
                .collect();
            if mapped.first().is_some_and(|e| e.time < slot.watermark) {
                let watermark = slot.watermark;
                tenant.sessions.lock().insert(session, slot);
                return error_response(
                    ErrorKind::BadRequest,
                    &format!("events regress before the session watermark {watermark}"),
                    None,
                    None,
                );
            }
            let tag = Arc::clone(&slot.tag);
            let mut live = MatchSession::resume(&tag, slot.state);
            live.push_batch(&mapped);
            let completions: Vec<Completion> = live.completed().collect();
            let stats = live.stats();
            slot.watermark = mapped.last().map_or(slot.watermark, |e| e.time);
            slot.frontier = stats.frontier;
            slot.state = live.suspend();
            tenant.sessions.lock().insert(session, slot);
            tenant.account(mapped.len());
            if let Some(i) = stats.interrupted {
                return interrupted(&tenant, i, "session.push");
            }
            let mut fields = completions_json(&completions);
            fields.push_str(&format!(",{}", stats_json(&stats)));
            ok_response(&fields)
        }
        Request::SessionClose { session, .. } => {
            let Some(slot) = tenant.sessions.lock().remove(&session) else {
                return unknown_session(&tenant, session);
            };
            let tag = Arc::clone(&slot.tag);
            let live = MatchSession::resume(&tag, slot.state);
            let stats = live.stats();
            let (run, _) = live.finish();
            let verdict = match run.verdict.interrupt() {
                None => "completed".to_string(),
                Some(i) => format!("{i:?}"),
            };
            let mut fields = format!("\"completions\":{},{}", stats.completions, stats_json(&stats));
            fields.push_str(",\"verdict\":");
            write_escaped(&mut fields, &verdict);
            ok_response(&fields)
        }
    }
}

fn unknown_session(tenant: &Tenant, session: u64) -> String {
    error_response(
        ErrorKind::UnknownSession,
        &format!(
            "tenant `{}` has no open session {session}",
            tenant.name
        ),
        None,
        None,
    )
}

/// A typed interrupt response: kind from the interrupt, flight dump
/// attached so the client sees what the engine was doing when it stopped.
fn interrupted(tenant: &Tenant, i: tgm_limits::Interrupt, op: &str) -> String {
    error_response(
        ErrorKind::from(i),
        &format!("{op} stopped early: {i:?}"),
        None,
        tenant.dump().as_deref(),
    )
}

fn completions_json(completions: &[Completion]) -> String {
    let mut out = String::from("\"completions\":[");
    for (i, c) in completions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"index\":{},\"at\":{}}}", c.index, c.at));
    }
    out.push(']');
    out
}

/// A session's counters. The cumulative completion count is left to
/// `session.close`: a `session.push` answer's `completions` is the array
/// of new completions, and one object carries each key once.
/// `evicted_rows` and `evictions` always read 0; the benchmark harness
/// still expects the keys.
fn stats_json(s: &SessionStats) -> String {
    format!(
        "\"events\":{},\"frontier\":{},\"peak_frontier\":{},\
         \"expansions\":{},\"evicted_rows\":{},\"evictions\":{}",
        s.events, s.frontier, s.peak_frontier, s.expansions, s.evicted_rows, s.evictions
    )
}

// -- TCP front end ----------------------------------------------------------

/// How often the acceptor polls for new connections and shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// A TCP server speaking `tgm_serve/v1` frames over a [`ServerCore`].
pub struct Server {
    core: Arc<ServerCore>,
    local_addr: SocketAddr,
    stop_accept: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts accepting.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let core = ServerCore::start(config);
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop_accept = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop_accept);
            std::thread::Builder::new()
                .name("tgm-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &core, &stop))
                .map_err(std::io::Error::other)?
        };
        Ok(Server {
            core,
            local_addr,
            stop_accept,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared core (for in-process clients and counters).
    pub fn core(&self) -> &Arc<ServerCore> {
        &self.core
    }

    /// Stops accepting, drains the core, and returns the final per-tenant
    /// telemetry frames.
    pub fn drain(mut self) -> Vec<String> {
        self.stop_accept.store(true, Ordering::Release);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.core.drain()
    }
}

fn accept_loop(listener: &TcpListener, core: &Arc<ServerCore>, stop: &Arc<AtomicBool>) {
    loop {
        if stop.load(Ordering::Acquire) || crate::shutdown::requested() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let core = Arc::clone(core);
                let _ = std::thread::Builder::new()
                    .name("tgm-serve-conn".to_string())
                    .spawn(move || serve_conn(stream, &core));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// One connection: a frame loop. A poison frame (bad magic, bad length,
/// oversize) gets a typed `BadRequest` response and a close — the server
/// itself is unaffected.
fn serve_conn(stream: TcpStream, core: &Arc<ServerCore>) {
    let _ = stream.set_nonblocking(false);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match read_frame(&mut reader) {
            Ok(None) => return,
            Ok(Some(payload)) => {
                let response = core.handle(&payload);
                if write_frame(&mut writer, response.as_bytes()).is_err() {
                    return;
                }
            }
            Err(e @ (FrameError::BadHeader(_) | FrameError::Oversize { .. })) => {
                let response =
                    error_response(ErrorKind::BadRequest, &format!("bad frame: {e}"), None, None);
                let _ = write_frame(&mut writer, response.as_bytes());
                let _ = writer.flush();
                return;
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use tgm_events::minijson::Value;

    use super::*;
    use crate::proto::Response;

    const OPEN: &str = r#"{"op":"session.open","tenant":"t","structure":{
      "variables": ["rise", "report", "fall"],
      "constraints": [
        {"from": 0, "to": 1, "lo": 1, "hi": 1, "granularity": "business-day"},
        {"from": 1, "to": 2, "lo": 0, "hi": 1, "granularity": "week"}
      ]},"types":["rise","report","fall"]}"#;

    fn ok(client: &Client, payload: &str) -> Value {
        match client.request_parsed(payload).unwrap() {
            Response::Ok(v) => v,
            other => panic!("{other:?}"),
        }
    }

    /// Opens a session and pushes 10,000 events in batches of 1,000: a
    /// rise, report and fall a day apart every three days, every other
    /// event named by `noise(i)`. Returns the session id and the
    /// completion times.
    fn push_stream(core: &Arc<ServerCore>, noise: impl Fn(usize) -> String) -> (u64, Vec<i64>) {
        let client = core.client();
        let id = ok(&client, OPEN).get("session").and_then(Value::as_i64).unwrap() as u64;
        let mut at = Vec::new();
        for batch in 0..10 {
            let items: Vec<String> = (batch * 1_000..(batch + 1) * 1_000)
                .map(|i| {
                    let ty = match i % 300 {
                        0 => "rise".to_owned(),
                        100 => "report".to_owned(),
                        200 => "fall".to_owned(),
                        _ => noise(i),
                    };
                    // 100 events a day from Monday 2000-01-03.
                    format!(r#"{{"ty":"{ty}","time":{}}}"#, 2 * 86_400 + i as i64 * 864)
                })
                .collect();
            let push = format!(
                r#"{{"op":"session.push","tenant":"t","session":{id},"events":[{}]}}"#,
                items.join(",")
            );
            let result = ok(&client, &push);
            let completions = result.get("completions").and_then(Value::as_array).unwrap();
            at.extend(completions.iter().filter_map(|c| c.get("at").and_then(Value::as_i64)));
        }
        (id, at)
    }

    #[test]
    fn unique_push_names_do_not_grow_the_session() {
        let core = ServerCore::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let (unique, unique_at) = push_stream(&core, |i| format!("noise-{i}"));
        let (_, repeated_at) = push_stream(&core, |_| "noise".to_owned());
        let registry_len = core.tenant("t").sessions.lock()[&unique].registry.len();
        assert_eq!(registry_len, 3, "only the pattern's types");
        assert!(!unique_at.is_empty());
        assert_eq!(unique_at, repeated_at);
        core.drain();
    }
}
