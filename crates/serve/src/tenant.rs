//! Per-tenant state: quotas, admission accounting, telemetry, sessions.
//!
//! Each tenant owns an [`ObsScope`] with a flight recorder (so a fault in
//! one tenant's request dumps *that tenant's* recent engine activity, not
//! a neighbour's) and a labelled [`Exporter`] whose frames carry
//! `tenant="<name>"` on every NDJSON and OpenMetrics sample — the
//! downstream `obs_report --validate-stream` checker tracks sequence
//! numbers per label set, so interleaved multi-tenant streams validate.
//!
//! Admission is two gates, both here:
//!
//! 1. **Inflight cap** (`Quotas::max_inflight`): a compare-exchange
//!    ticket; losing yields [`ErrorKind::Overloaded`] with a
//!    `retry_after_ms` hint from the deterministic jittered backoff in
//!    `tgm_limits::backoff`, seeded per tenant and escalating with the
//!    tenant's *consecutive* shed count (a successful admit resets it).
//! 2. **Session cap** (`Quotas::max_sessions`): checked at
//!    `session.open`; yields [`ErrorKind::QuotaExceeded`] — retrying does
//!    not help until the tenant closes a session, so no backoff hint.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tgm_events::TypeRegistry;
use tgm_limits::{backoff, Quotas};
use tgm_obs::{Exporter, ObsScope};
use tgm_tag::{SessionState, Tag};

use crate::proto::ErrorKind;

/// Flight-recorder capacity per tenant (power of two).
const RECORDER_CAP: usize = 64;

/// Base delay for the shed backoff hint.
const BACKOFF_BASE: Duration = Duration::from_millis(5);

/// Cap for the shed backoff hint.
const BACKOFF_CAP: Duration = Duration::from_millis(500);

/// A parked streaming session: the suspended matcher state plus the
/// automaton it must be resumed against and the tenant-visible bookkeeping.
///
/// Workers *remove* the slot from the map before resuming it and reinsert
/// it after suspending — so a panic mid-push destroys exactly one session
/// (the slot is already out of the map and is dropped with the unwound
/// stack) and can never poison the map or siblings.
pub struct SessionSlot {
    /// The automaton (shared so the slot is cheap to move around).
    pub tag: Arc<Tag>,
    /// The suspended matcher.
    pub state: SessionState,
    /// The pattern's type names. Push batches arrive with their own
    /// names and are looked up here; every other name maps to the one id
    /// past this registry.
    pub registry: TypeRegistry,
    /// High-water timestamp; pushes regressing below it are rejected.
    pub watermark: i64,
    /// Live frontier rows after the last push (for the tenant gauge).
    pub frontier: usize,
    /// Cumulative evicted rows already folded into the tenant totals
    /// (pushes report deltas against this).
    pub evicted_seen: u64,
}

/// One tenant's standing state inside a server.
pub struct Tenant {
    /// The tenant's wire name.
    pub name: String,
    /// The quotas admission enforces for this tenant.
    pub quotas: Quotas,
    /// The tenant's metric/recorder scope; entered around every request
    /// executed on its behalf.
    pub scope: ObsScope,
    exporter: Mutex<Exporter>,
    inflight: AtomicU32,
    shed_streak: AtomicU32,
    backoff_seed: u64,
    /// Open sessions by id. Slots are taken out while a worker operates
    /// on them (see [`SessionSlot`]).
    pub sessions: Mutex<BTreeMap<u64, SessionSlot>>,
    next_session: AtomicU64,
    events_total: AtomicU64,
    evicted_total: AtomicU64,
    shed_total: AtomicU64,
    requests_total: AtomicU64,
    panics_total: AtomicU64,
    born: Instant,
}

fn seed_from_name(name: &str) -> u64 {
    // FNV-1a; only needs to decorrelate tenants' jitter streams.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl Tenant {
    /// Creates a tenant with its own recorder scope and labelled exporter.
    pub fn new(name: &str, quotas: Quotas) -> Self {
        let scope = ObsScope::with_recorder(RECORDER_CAP);
        let exporter = Exporter::new(scope.clone()).with_label("tenant", name);
        Tenant {
            name: name.to_string(),
            quotas,
            scope,
            exporter: Mutex::new(exporter),
            inflight: AtomicU32::new(0),
            shed_streak: AtomicU32::new(0),
            backoff_seed: seed_from_name(name),
            sessions: Mutex::new(BTreeMap::new()),
            next_session: AtomicU64::new(1),
            events_total: AtomicU64::new(0),
            evicted_total: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            requests_total: AtomicU64::new(0),
            panics_total: AtomicU64::new(0),
            born: Instant::now(),
        }
    }

    /// Tries to take an inflight ticket. On success the caller *must*
    /// balance with [`Tenant::release`]. On refusal, returns the error
    /// kind and the backoff hint for this shed.
    pub fn try_admit(&self) -> Result<(), (ErrorKind, Duration)> {
        let cap = self.quotas.max_inflight().unwrap_or(u32::MAX);
        let mut cur = self.inflight.load(Ordering::Acquire);
        loop {
            if cur >= cap {
                return Err((ErrorKind::Overloaded, self.shed()));
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.shed_streak.store(0, Ordering::Release);
                    self.requests_total.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Returns an inflight ticket taken by [`Tenant::try_admit`].
    pub fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Records a shed (any refusal after admission, e.g. a full queue)
    /// and returns the escalating, deterministic backoff hint.
    pub fn shed(&self) -> Duration {
        let attempt = self.shed_streak.fetch_add(1, Ordering::AcqRel);
        self.shed_total.fetch_add(1, Ordering::Relaxed);
        backoff::delay_for(self.backoff_seed, attempt, BACKOFF_BASE, BACKOFF_CAP)
    }

    /// Current inflight requests.
    pub fn inflight(&self) -> u32 {
        self.inflight.load(Ordering::Acquire)
    }

    /// Total requests shed so far.
    pub fn sheds(&self) -> u64 {
        self.shed_total.load(Ordering::Acquire)
    }

    /// Allocates the next session id.
    pub fn next_session_id(&self) -> u64 {
        self.next_session.fetch_add(1, Ordering::AcqRel)
    }

    /// Whether opening one more session would exceed the quota.
    pub fn session_quota_full(&self) -> bool {
        match self.quotas.max_sessions() {
            Some(cap) => self.sessions.lock().len() as u32 >= cap,
            None => false,
        }
    }

    /// Bumps the tenant's event/eviction totals after an engine op.
    pub fn account(&self, events: usize, evicted_delta: u64) {
        self.events_total.fetch_add(events as u64, Ordering::Relaxed);
        self.evicted_total.fetch_add(evicted_delta, Ordering::Relaxed);
    }

    /// Records a contained worker panic on this tenant's behalf.
    pub fn account_panic(&self) {
        self.panics_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Emits the tenant's next telemetry frame (NDJSON line or an
    /// OpenMetrics block), stamped with the `tenant` label and carrying
    /// the gauge set the stream validator requires plus the serve-layer
    /// admission gauges.
    pub fn stats_frame(&self, openmetrics: bool) -> String {
        let mut ex = self.exporter.lock();
        let mut frame = ex.frame();
        let events = self.events_total.load(Ordering::Acquire);
        let frontier: usize = self
            .sessions
            .lock()
            .values()
            .map(|s| s.frontier)
            .sum();
        let secs = self.born.elapsed().as_secs_f64();
        frame.set_gauge("frontier", frontier as f64);
        frame.set_gauge("events_total", events as f64);
        frame.set_gauge(
            "events_per_sec",
            if secs > 0.0 { events as f64 / secs } else { 0.0 },
        );
        frame.set_gauge(
            "evicted_rows_total",
            self.evicted_total.load(Ordering::Acquire) as f64,
        );
        // The serve layer has no wall-clock watermark; emit the same -1
        // sentinel `tgm stream` uses before its first watermark.
        frame.set_gauge("watermark_lag", -1.0);
        frame.set_gauge("inflight", f64::from(self.inflight()));
        frame.set_gauge("sessions_open", self.sessions.lock().len() as f64);
        frame.set_gauge("shed_total", self.sheds() as f64);
        frame.set_gauge(
            "worker_panics_total",
            self.panics_total.load(Ordering::Acquire) as f64,
        );
        frame.set_gauge(
            "requests_total",
            self.requests_total.load(Ordering::Acquire) as f64,
        );
        if openmetrics {
            frame.to_openmetrics()
        } else {
            frame.to_ndjson()
        }
    }

    /// Takes the tenant's flight-recorder dump, rendered, if the recorder
    /// holds anything.
    pub fn dump(&self) -> Option<String> {
        self.scope.take_dump().map(|d| d.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflight_cap_sheds_with_escalating_hints() {
        let t = Tenant::new("acme", Quotas::unlimited().with_max_inflight(2));
        assert!(t.try_admit().is_ok());
        assert!(t.try_admit().is_ok());
        let (kind, d1) = t.try_admit().unwrap_err();
        assert_eq!(kind, ErrorKind::Overloaded);
        let (_, d2) = t.try_admit().unwrap_err();
        // Deterministic: same streak position ⇒ same hint on a fresh
        // identical tenant.
        let t2 = Tenant::new("acme", Quotas::unlimited().with_max_inflight(2));
        assert!(t2.try_admit().is_ok());
        assert!(t2.try_admit().is_ok());
        assert_eq!(t2.try_admit().unwrap_err().1, d1);
        assert_eq!(t2.try_admit().unwrap_err().1, d2);
        assert_eq!(t.sheds(), 2);
        // An admit resets the streak.
        t.release();
        assert!(t.try_admit().is_ok());
        assert_eq!(t.try_admit().unwrap_err().1, d1);
    }

    #[test]
    fn different_tenants_get_decorrelated_hints() {
        let a = Tenant::new("tenant-a", Quotas::unlimited().with_max_inflight(0));
        let b = Tenant::new("tenant-b", Quotas::unlimited().with_max_inflight(0));
        let hints_a: Vec<Duration> = (0..8).map(|_| a.try_admit().unwrap_err().1).collect();
        let hints_b: Vec<Duration> = (0..8).map(|_| b.try_admit().unwrap_err().1).collect();
        assert_ne!(hints_a, hints_b);
    }

    #[test]
    fn stats_frame_is_labelled_and_has_required_gauges() {
        let t = Tenant::new("acme", Quotas::unlimited());
        t.account(42, 3);
        let line = t.stats_frame(false);
        assert!(line.contains("\"labels\":{\"tenant\":\"acme\"}"), "{line}");
        for g in [
            "\"frontier\":",
            "\"events_total\":",
            "\"events_per_sec\":",
            "\"evicted_rows_total\":",
            "\"watermark_lag\":",
            "\"inflight\":",
            "\"shed_total\":",
        ] {
            assert!(line.contains(g), "missing {g} in {line}");
        }
        let om = t.stats_frame(true);
        assert!(om.contains("tgm_frontier{tenant=\"acme\"}"), "{om}");
    }
}
