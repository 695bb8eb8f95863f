//! Lightweight observability for the tgm workspace: spans, counters,
//! log-scale histograms, and a unified [`Report`].
//!
//! The paper's empirical story is a *pruning funnel* — the §5 discovery
//! pipeline exists to cut candidates cheaply before the expensive TAG
//! scan, and Theorem 4 bounds how much work the matcher does per event.
//! This crate makes that funnel a first-class artifact: the matcher, the
//! mining pipeline, the episode baseline and the granularity layer all
//! emit into one process-wide registry, and [`Report`] renders the result
//! as a human-readable timing/funnel tree or machine-readable JSON.
//!
//! # Design
//!
//! - **Off by default.** A process-wide [`set_enabled`] toggle; when off,
//!   every instrumentation call is a single relaxed atomic load. Per-call-site
//!   granularity comes from [`ObsOptions`] embedded in the matcher's and
//!   pipeline's option structs.
//! - **Spans** ([`span`](mod@span)) are RAII guards over monotonic clocks.
//!   Completed spans aggregate in a thread-local buffer that flushes to
//!   the global registry when the thread's span stack unwinds to depth
//!   zero (or on thread exit), so parallel sweep workers never contend on
//!   a lock mid-measurement.
//! - **Metrics** ([`metrics`]) are named [`u64`] counters and
//!   base-2 log-scale histograms behind sharded `parking_lot` mutexes.
//!   [`MetricsSnapshot`] is `Add`-able across captures.
//! - **Scoped domains** ([`scope`](mod@scope)) isolate full registries per
//!   session, pipeline run or tenant: the global API routes to the calling
//!   thread's *current* scope (the default scope when none is entered), so
//!   existing call sites kept their semantics when scopes landed.
//!   [`Snapshot`]s capture, diff ([`Snapshot::delta`]) and merge without
//!   `reset()` races.
//! - **Live export** ([`export`]) renders periodic delta snapshots as
//!   one-line `tgm_obs_stream/v1` NDJSON frames or Prometheus/OpenMetrics
//!   text — the `tgm stream --stats-every N` path.
//! - **Flight recorder** ([`recorder`]) keeps a fixed-capacity ring of
//!   recent structured events per scope, dumped automatically when a
//!   bounded entry point is interrupted or a worker panic is contained.
//! - **Never observable in results.** Instrumentation must not change
//!   any mining or matching output; the workspace's differential tests
//!   assert bit-identical results with the toggle on and off — and with
//!   scopes, the exporter and the recorder active.
//!
//! # Quickstart
//!
//! ```
//! tgm_obs::set_enabled(true);
//! {
//!     let _outer = tgm_obs::span!("demo.outer");
//!     let _inner = tgm_obs::span!("demo.outer.inner");
//!     tgm_obs::metrics::counter_add("demo.widgets", 3);
//!     tgm_obs::metrics::histogram_record("demo.sizes", 17);
//! }
//! let report = tgm_obs::Report::capture();
//! assert_eq!(report.spans.get("demo.outer").unwrap().count, 1);
//! assert_eq!(report.metrics.counter("demo.widgets"), 3);
//! tgm_obs::set_enabled(false);
//! tgm_obs::reset();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod scope;
pub mod span;

pub use export::{Exporter, StreamFrame};
pub use metrics::{Histogram, MetricsSnapshot};
pub use recorder::{FlightDump, RecEvent};
pub use report::{FunnelStage, Observable, ObsValue, Report};
pub use scope::{ObsScope, Snapshot};
pub use span::{SpanGuard, SpanSnapshot, SpanStats};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide switch for all observability (default: off).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables observability process-wide.
///
/// When disabled (the default), spans and metric emissions reduce to one
/// relaxed atomic load each; existing recorded data is kept (use
/// [`reset`] to clear it).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether observability is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears the current scope's recorded spans and metrics (the enable
/// flag is unchanged). With no scope entered this clears the default
/// scope — exactly the historical process-wide behavior; other scopes
/// keep their data (see [`scope::ObsScope::reset`] for per-scope
/// clearing).
pub fn reset() {
    span::reset();
    metrics::reset();
}

/// Per-call-site observability knobs, embedded in `MatchOptions` and
/// `PipelineOptions` so one layer can be silenced without flipping the
/// process-wide toggle.
///
/// Both knobs default to on; nothing is emitted anywhere unless the
/// process-wide [`set_enabled`] switch is also on. Instrumented code
/// treats the effective setting as `obs::enabled() && opts.obs.<kind>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsOptions {
    /// Emit counters and histograms from this call site.
    pub metrics: bool,
    /// Record timing spans from this call site.
    pub spans: bool,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            metrics: true,
            spans: true,
        }
    }
}

impl ObsOptions {
    /// Both knobs off; handy for silencing one layer in ablations.
    pub fn silent() -> Self {
        ObsOptions {
            metrics: false,
            spans: false,
        }
    }

    /// Effective metric emission: the knob AND the process-wide toggle.
    pub fn metrics_on(&self) -> bool {
        self.metrics && enabled()
    }

    /// Effective span recording: the knob AND the process-wide toggle.
    pub fn spans_on(&self) -> bool {
        self.spans && enabled()
    }
}

/// Starts a named timing span; returns the RAII guard.
///
/// The name must be a `'static` string literal with dot-separated
/// components (`"pipeline.step2"`); [`Report::render`] derives the
/// display tree from the dots.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::span($name)
    };
}

#[cfg(test)]
pub(crate) mod test_support {
    use parking_lot::Mutex;

    /// Serializes tests that toggle the process-wide enable flag or read
    /// the global registries (the harness runs tests concurrently in one
    /// process).
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());
}
