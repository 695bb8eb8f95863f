//! The `tgm_serve/v1` request/response vocabulary.
//!
//! Payloads are JSON (parsed with the workspace's depth-limited
//! `minijson`, so hostile nesting is rejected, not recursed into). Every
//! request carries `"op"` and — except `ping` — `"tenant"`. Responses are
//! `{"ok":true,"result":{…}}` or `{"ok":false,"error":{…}}`; the error
//! object always has a `kind` from [`ErrorKind`]'s closed set, may carry
//! `retry_after_ms` (sheds) and `dump` (the tenant's flight-recorder
//! contents, attached to faults), and never leaks a raw panic backtrace.
//!
//! Request shapes:
//!
//! ```json
//! {"op":"ping"}
//! {"op":"match","tenant":"t1","structure":{…},"types":["rise","report","fall"],
//!  "events":[{"ty":"rise","time":208800},…]}
//! {"op":"mine","tenant":"t1","structure":{…},"events":[…],
//!  "reference":"rise","confidence":0.5}
//! {"op":"session.open","tenant":"t1","structure":{…},"types":[…]}
//! {"op":"session.push","tenant":"t1","session":3,"events":[…]}
//! {"op":"session.close","tenant":"t1","session":3}
//! {"op":"stats","tenant":"t1","format":"ndjson"}
//! ```
//!
//! `structure` uses the same document shape as `tgm match` files
//! (`variables` + `constraints`); `grans` (optional, array of granularity
//! spec strings, e.g. `"3 month"`) registers custom granularities for the
//! request, mirroring the CLI's `--gran`.

use tgm_core::json::structure_from_value;
use tgm_core::EventStructure;
use tgm_events::minijson::{self, write_escaped, Value};
use tgm_events::{Event, EventType, TypeRegistry};
use tgm_granularity::Calendar;
use tgm_limits::Interrupt;
use tgm_mining::pipeline;

/// The closed set of error kinds a `tgm_serve/v1` response can carry.
/// Everything a client can observe going wrong maps onto one of these —
/// there is no untyped "internal error" escape hatch (asserted by the
/// saturation gate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request payload is malformed (bad JSON, bad shape, unknown
    /// granularity, inconsistent structure, out-of-order events).
    BadRequest,
    /// The admission controller shed the request: the tenant's inflight
    /// quota or the global queue is full. Retry after `retry_after_ms`.
    Overloaded,
    /// A standing per-tenant quota (open sessions) is at its cap; retrying
    /// later will not help until the tenant closes something.
    QuotaExceeded,
    /// The request's deadline passed mid-execution.
    DeadlineExceeded,
    /// The request's work budget was exhausted mid-execution.
    BudgetExhausted,
    /// The request's cancel token fired.
    Cancelled,
    /// A worker panicked executing this request; the panic was contained
    /// to this request, the response carries the tenant's flight dump.
    WorkerPanic,
    /// `session` does not name an open session of this tenant.
    UnknownSession,
    /// The server is draining: no new work is admitted.
    Draining,
}

impl ErrorKind {
    /// The wire name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "BadRequest",
            ErrorKind::Overloaded => "Overloaded",
            ErrorKind::QuotaExceeded => "QuotaExceeded",
            ErrorKind::DeadlineExceeded => "DeadlineExceeded",
            ErrorKind::BudgetExhausted => "BudgetExhausted",
            ErrorKind::Cancelled => "Cancelled",
            ErrorKind::WorkerPanic => "WorkerPanic",
            ErrorKind::UnknownSession => "UnknownSession",
            ErrorKind::Draining => "Draining",
        }
    }

    /// Parses a wire name back into the kind (for typed clients).
    pub fn from_wire(s: &str) -> Option<Self> {
        Some(match s {
            "BadRequest" => ErrorKind::BadRequest,
            "Overloaded" => ErrorKind::Overloaded,
            "QuotaExceeded" => ErrorKind::QuotaExceeded,
            "DeadlineExceeded" => ErrorKind::DeadlineExceeded,
            "BudgetExhausted" => ErrorKind::BudgetExhausted,
            "Cancelled" => ErrorKind::Cancelled,
            "WorkerPanic" => ErrorKind::WorkerPanic,
            "UnknownSession" => ErrorKind::UnknownSession,
            "Draining" => ErrorKind::Draining,
            _ => return None,
        })
    }
}

impl From<Interrupt> for ErrorKind {
    fn from(i: Interrupt) -> Self {
        match i {
            Interrupt::DeadlineExceeded => ErrorKind::DeadlineExceeded,
            Interrupt::BudgetExhausted => ErrorKind::BudgetExhausted,
            Interrupt::Cancelled => ErrorKind::Cancelled,
        }
    }
}

/// A parsed, validated request. Structure documents are resolved at parse
/// time (cheap); automaton construction happens in the worker.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe; answered inline.
    Ping,
    /// One batch match over a complete event list.
    Match {
        /// The requesting tenant.
        tenant: String,
        /// The event structure to match.
        structure: EventStructure,
        /// Variable-to-type assignment (names, one per variable).
        types: Vec<String>,
        /// The events, sorted by time.
        events: Vec<Event>,
        /// The request's interned type names (index = `EventType`).
        registry: TypeRegistry,
    },
    /// One bounded pipeline-mine run.
    Mine {
        /// The requesting tenant.
        tenant: String,
        /// The event structure to mine assignments for, of at most
        /// [`pipeline::MAX_VARIABLES`] variables.
        structure: EventStructure,
        /// The events, sorted by time.
        events: Vec<Event>,
        /// The reference (root) event type.
        reference: EventType,
        /// Minimum confidence in `[0, 1]`.
        confidence: f64,
        /// The request's interned type names.
        registry: TypeRegistry,
    },
    /// Opens a long-lived streaming session.
    SessionOpen {
        /// The requesting tenant.
        tenant: String,
        /// The event structure the session matches.
        structure: EventStructure,
        /// Variable-to-type assignment (names).
        types: Vec<String>,
    },
    /// Pushes a micro-batch into an open session.
    SessionPush {
        /// The requesting tenant.
        tenant: String,
        /// The session id from `session.open`.
        session: u64,
        /// The events, sorted by time.
        events: Vec<Event>,
        /// Names for the events' interned types, so the session can map
        /// them onto its own registry.
        names: Vec<String>,
    },
    /// Closes a session, returning its final stats.
    SessionClose {
        /// The requesting tenant.
        tenant: String,
        /// The session id.
        session: u64,
    },
    /// Per-tenant telemetry frame.
    Stats {
        /// The requesting tenant.
        tenant: String,
        /// `"ndjson"` (default) or `"openmetrics"`.
        openmetrics: bool,
    },
}

impl Request {
    /// The tenant the request belongs to (`None` for `ping`).
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Request::Ping => None,
            Request::Match { tenant, .. }
            | Request::Mine { tenant, .. }
            | Request::SessionOpen { tenant, .. }
            | Request::SessionPush { tenant, .. }
            | Request::SessionClose { tenant, .. }
            | Request::Stats { tenant, .. } => Some(tenant),
        }
    }
}

fn str_field(doc: &Value, name: &str) -> Result<String, String> {
    doc.get(name)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{name}`"))
}

/// Builds the request's calendar: the standard one plus any `grans` spec
/// strings (the CLI's `--gran` DSL).
fn calendar_for(doc: &Value) -> Result<Calendar, String> {
    let mut cal = Calendar::standard();
    if let Some(specs) = doc.get("grans") {
        let specs = specs
            .as_array()
            .ok_or_else(|| "`grans` must be an array of spec strings".to_string())?;
        for spec in specs {
            let spec = spec
                .as_str()
                .ok_or_else(|| "`grans` entries must be strings".to_string())?;
            let g = tgm_granularity::parse::parse_granularity(spec).map_err(|e| e.to_string())?;
            cal.register(g).map_err(|e| e.to_string())?;
        }
    }
    Ok(cal)
}

fn structure_field(doc: &Value, cal: &Calendar) -> Result<EventStructure, String> {
    let s = doc
        .get("structure")
        .ok_or_else(|| "missing `structure` object".to_string())?;
    structure_from_value(s, cal).map_err(|e| e.to_string())
}

fn types_field(doc: &Value) -> Result<Vec<String>, String> {
    doc.get("types")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing `types` array".to_string())?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| "`types` entries must be strings".to_string())
        })
        .collect()
}

/// Parses the `events` array, interning `ty` names into `reg`. Events are
/// sorted by time (the engines require non-decreasing timestamps).
fn events_field(doc: &Value, reg: &mut TypeRegistry) -> Result<Vec<Event>, String> {
    let arr = doc
        .get("events")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing `events` array".to_string())?;
    let mut events = Vec::with_capacity(arr.len());
    for (i, e) in arr.iter().enumerate() {
        let ty = e
            .get("ty")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing string `ty`"))?;
        let time = e
            .get("time")
            .and_then(Value::as_i64)
            .ok_or_else(|| format!("event {i}: missing integer `time`"))?;
        events.push(Event::new(reg.intern(ty), time));
    }
    events.sort_by_key(|e| e.time);
    Ok(events)
}

fn session_field(doc: &Value) -> Result<u64, String> {
    doc.get("session")
        .and_then(Value::as_u64)
        .ok_or_else(|| "missing u64 field `session`".to_string())
}

/// Parses one request payload. Errors are user-facing strings that the
/// server wraps as [`ErrorKind::BadRequest`].
pub fn parse_request(payload: &str) -> Result<Request, String> {
    let doc = minijson::parse(payload).map_err(|e| e.to_string())?;
    let op = str_field(&doc, "op")?;
    if op == "ping" {
        return Ok(Request::Ping);
    }
    let tenant = str_field(&doc, "tenant")?;
    if tenant.is_empty() {
        return Err("`tenant` must be non-empty".to_string());
    }
    match op.as_str() {
        "match" => {
            let cal = calendar_for(&doc)?;
            let structure = structure_field(&doc, &cal)?;
            let types = types_field(&doc)?;
            if types.len() != structure.len() {
                return Err(format!(
                    "`types` lists {} types but the structure has {} variables",
                    types.len(),
                    structure.len()
                ));
            }
            let mut registry = TypeRegistry::new();
            let events = events_field(&doc, &mut registry)?;
            Ok(Request::Match {
                tenant,
                structure,
                types,
                events,
                registry,
            })
        }
        "mine" => {
            let cal = calendar_for(&doc)?;
            let structure = structure_field(&doc, &cal)?;
            if structure.len() > pipeline::MAX_VARIABLES {
                return Err(format!(
                    "`mine` supports at most {} variables, the structure has {}",
                    pipeline::MAX_VARIABLES,
                    structure.len()
                ));
            }
            let mut registry = TypeRegistry::new();
            let events = events_field(&doc, &mut registry)?;
            let ref_name = str_field(&doc, "reference")?;
            let reference = registry
                .get(&ref_name)
                .ok_or_else(|| format!("reference type `{ref_name}` does not occur in the events"))?;
            let confidence = match doc.get("confidence") {
                None => 0.5,
                Some(Value::Int(n)) => *n as f64,
                Some(Value::Float(f)) => *f,
                Some(_) => return Err("`confidence` must be a number".to_string()),
            };
            if !(0.0..=1.0).contains(&confidence) {
                return Err(format!("`confidence` must be within [0, 1], got {confidence}"));
            }
            Ok(Request::Mine {
                tenant,
                structure,
                events,
                reference,
                confidence,
                registry,
            })
        }
        "session.open" => {
            let cal = calendar_for(&doc)?;
            let structure = structure_field(&doc, &cal)?;
            let types = types_field(&doc)?;
            if types.len() != structure.len() {
                return Err(format!(
                    "`types` lists {} types but the structure has {} variables",
                    types.len(),
                    structure.len()
                ));
            }
            Ok(Request::SessionOpen {
                tenant,
                structure,
                types,
            })
        }
        "session.push" => {
            let session = session_field(&doc)?;
            let mut registry = TypeRegistry::new();
            let events = events_field(&doc, &mut registry)?;
            let names = (0..events
                .iter()
                .map(|e| e.ty.0 + 1)
                .max()
                .unwrap_or(0))
                .map(|i| registry.name(EventType(i)).to_string())
                .collect();
            Ok(Request::SessionPush {
                tenant,
                session,
                events,
                names,
            })
        }
        "session.close" => Ok(Request::SessionClose {
            tenant,
            session: session_field(&doc)?,
        }),
        "stats" => {
            let openmetrics = match doc.get("format").and_then(Value::as_str) {
                None | Some("ndjson") => false,
                Some("openmetrics") => true,
                Some(other) => {
                    return Err(format!(
                        "bad `format` `{other}` (expected ndjson or openmetrics)"
                    ))
                }
            };
            Ok(Request::Stats { tenant, openmetrics })
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

// -- response building ------------------------------------------------------

/// Renders `{"ok":true,"result":{<fields>}}`; `fields` is pre-rendered
/// JSON object *content* (no braces).
pub fn ok_response(fields: &str) -> String {
    format!("{{\"ok\":true,\"result\":{{{fields}}}}}")
}

/// Renders a typed error response.
pub fn error_response(
    kind: ErrorKind,
    message: &str,
    retry_after_ms: Option<u64>,
    dump: Option<&str>,
) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"ok\":false,\"error\":{\"kind\":\"");
    out.push_str(kind.as_str());
    out.push_str("\",\"message\":");
    write_escaped(&mut out, message);
    if let Some(ms) = retry_after_ms {
        out.push_str(",\"retry_after_ms\":");
        out.push_str(&ms.to_string());
    }
    if let Some(d) = dump {
        out.push_str(",\"dump\":");
        write_escaped(&mut out, d);
    }
    out.push_str("}}");
    out
}

/// A parsed response, for typed clients (tests, the chaos client, the
/// saturation benchmark).
#[derive(Clone, Debug)]
pub enum Response {
    /// `{"ok":true,…}` with the raw result document.
    Ok(Value),
    /// `{"ok":false,…}` with the typed error.
    Err {
        /// The error kind (closed set).
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
        /// Backoff hint for sheds.
        retry_after_ms: Option<u64>,
        /// Flight-recorder dump attached to faults.
        dump: Option<String>,
    },
}

impl Response {
    /// Parses a response payload. `Err(String)` means the payload is not
    /// a well-formed `tgm_serve/v1` response at all — the untyped failure
    /// class the saturation gate asserts never happens.
    pub fn parse(payload: &str) -> Result<Response, String> {
        let doc = minijson::parse(payload).map_err(|e| e.to_string())?;
        match doc.get("ok") {
            Some(Value::Bool(true)) => Ok(Response::Ok(
                doc.get("result").cloned().unwrap_or(Value::Null),
            )),
            Some(Value::Bool(false)) => {
                let err = doc.get("error").ok_or("missing `error` object")?;
                let kind_name = err
                    .get("kind")
                    .and_then(Value::as_str)
                    .ok_or("missing error `kind`")?;
                let kind = ErrorKind::from_wire(kind_name)
                    .ok_or_else(|| format!("unknown error kind `{kind_name}`"))?;
                Ok(Response::Err {
                    kind,
                    message: err
                        .get("message")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    retry_after_ms: err.get("retry_after_ms").and_then(Value::as_u64),
                    dump: err
                        .get("dump")
                        .and_then(Value::as_str)
                        .map(str::to_string),
                })
            }
            _ => Err("missing bool `ok`".to_string()),
        }
    }

    /// The result document, if this is an ok response.
    pub fn result(&self) -> Option<&Value> {
        match self {
            Response::Ok(v) => Some(v),
            Response::Err { .. } => None,
        }
    }

    /// The error kind, if this is an error response.
    pub fn error_kind(&self) -> Option<ErrorKind> {
        match self {
            Response::Ok(_) => None,
            Response::Err { kind, .. } => Some(*kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STRUCTURE: &str = r#""structure":{"variables":["rise","report","fall"],
        "constraints":[{"from":0,"to":1,"lo":1,"hi":1,"granularity":"business-day"},
                       {"from":1,"to":2,"lo":0,"hi":1,"granularity":"week"}]}"#;

    #[test]
    fn parses_match_request() {
        let payload = format!(
            r#"{{"op":"match","tenant":"t1",{STRUCTURE},
                "types":["rise","report","fall"],
                "events":[{{"ty":"report","time":250000}},{{"ty":"rise","time":208800}}]}}"#
        );
        let req = parse_request(&payload).unwrap();
        match req {
            Request::Match {
                tenant,
                structure,
                types,
                events,
                ..
            } => {
                assert_eq!(tenant, "t1");
                assert_eq!(structure.len(), 3);
                assert_eq!(types, ["rise", "report", "fall"]);
                // Sorted by time.
                assert_eq!(events[0].time, 208800);
                assert_eq!(events[1].time, 250000);
            }
            _ => panic!("wrong op"),
        }
    }

    #[test]
    fn custom_grans_resolve() {
        let payload = r#"{"op":"session.open","tenant":"t1","grans":["3 month"],
            "structure":{"variables":["a","b"],
                "constraints":[{"from":0,"to":1,"lo":1,"hi":1,"granularity":"3 month"}]},
            "types":["x","y"]}"#;
        assert!(matches!(
            parse_request(payload),
            Ok(Request::SessionOpen { .. })
        ));
    }

    #[test]
    fn bad_requests_are_typed_strings() {
        for (payload, want) in [
            ("{", "JSON"),
            (r#"{"op":"match"}"#, "tenant"),
            (r#"{"op":"nope","tenant":"t"}"#, "unknown op"),
            (r#"{"op":"match","tenant":"t"}"#, "structure"),
            (r#"{"op":"session.push","tenant":"t","events":[]}"#, "session"),
            (r#"{"op":"stats","tenant":"t","format":"xml"}"#, "format"),
        ] {
            let err = parse_request(payload).unwrap_err();
            assert!(err.contains(want), "`{err}` should mention {want}");
        }
    }

    #[test]
    fn response_round_trip() {
        let ok = ok_response("\"pong\":true");
        match Response::parse(&ok).unwrap() {
            Response::Ok(v) => assert_eq!(v.get("pong"), Some(&Value::Bool(true))),
            _ => panic!("not ok"),
        }
        let err = error_response(ErrorKind::Overloaded, "shed", Some(12), Some("dump text"));
        match Response::parse(&err).unwrap() {
            Response::Err {
                kind,
                retry_after_ms,
                dump,
                ..
            } => {
                assert_eq!(kind, ErrorKind::Overloaded);
                assert_eq!(retry_after_ms, Some(12));
                assert_eq!(dump.as_deref(), Some("dump text"));
            }
            _ => panic!("not err"),
        }
        assert!(Response::parse("{\"whatever\":1}").is_err());
    }

    #[test]
    fn every_kind_round_trips() {
        for kind in [
            ErrorKind::BadRequest,
            ErrorKind::Overloaded,
            ErrorKind::QuotaExceeded,
            ErrorKind::DeadlineExceeded,
            ErrorKind::BudgetExhausted,
            ErrorKind::Cancelled,
            ErrorKind::WorkerPanic,
            ErrorKind::UnknownSession,
            ErrorKind::Draining,
        ] {
            assert_eq!(ErrorKind::from_wire(kind.as_str()), Some(kind));
        }
    }
}
