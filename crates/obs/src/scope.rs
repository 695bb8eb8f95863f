//! Scoped metric domains.
//!
//! An [`ObsScope`] is an isolated observability registry — its own
//! counter/histogram shards, span aggregates, and (optionally) a
//! [`Recorder`] flight ring. Sessions, pipeline
//! runs, and tenants each get a scope whose [`Snapshot`] can be captured,
//! diffed ([`Snapshot::delta`]) and merged (`+`) without the `reset()`
//! races a single process-wide registry forces.
//!
//! The pre-existing global API ([`crate::metrics::counter_add`],
//! [`crate::span!`], [`crate::metrics::snapshot`], …) routes through the
//! **current** scope: the top of a thread-local scope stack maintained by
//! [`ObsScope::enter`], falling back to the process-wide **default scope**
//! when no scope is entered. Existing call sites therefore keep compiling
//! and keep their semantics — code that never enters a scope observes
//! exactly the old single-registry behavior.
//!
//! Emission is still gated on the process-wide [`crate::set_enabled`]
//! toggle, scoped or not: a scope isolates *where* data lands, not
//! *whether* instrumentation runs.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::metrics::{Histogram, MetricsSnapshot, Shard, SHARDS};
use crate::recorder::{FlightDump, RecEvent, Recorder};
use crate::span::{SpanSnapshot, SpanStats};

/// An isolated observability domain: cheap to clone (an [`Arc`] handle),
/// thread-safe, and independent of every other scope.
///
/// ```
/// use tgm_obs::scope::ObsScope;
/// tgm_obs::set_enabled(true);
/// let tenant = ObsScope::new();
/// {
///     let _g = tenant.enter();
///     tgm_obs::metrics::counter_add("demo.scoped", 7);
/// }
/// assert_eq!(tenant.snapshot().metrics.counter("demo.scoped"), 7);
/// // The default scope saw nothing.
/// assert_eq!(tgm_obs::scope::default_scope().snapshot().metrics.counter("demo.scoped"), 0);
/// tgm_obs::set_enabled(false);
/// ```
#[derive(Clone)]
pub struct ObsScope {
    inner: Arc<ScopeInner>,
}

impl std::fmt::Debug for ObsScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsScope")
            .field("recorder", &self.inner.recorder.is_some())
            .finish()
    }
}

impl Default for ObsScope {
    fn default() -> Self {
        Self::new()
    }
}

/// The registries one scope owns.
pub(crate) struct ScopeInner {
    /// Counter/histogram shards (same layout as the historical global
    /// registry; see [`crate::metrics`] for the sharding rationale).
    metrics: [Mutex<Shard>; SHARDS],
    /// Flushed span aggregates.
    spans: Mutex<Vec<(&'static str, SpanStats)>>,
    /// Optional flight recorder ring.
    recorder: Option<Recorder>,
}

impl ScopeInner {
    fn new(recorder: Option<Recorder>) -> Self {
        ScopeInner {
            metrics: [const { Mutex::new(Shard::new()) }; SHARDS],
            spans: Mutex::new(Vec::new()),
            recorder,
        }
    }

    pub(crate) fn counter_add(&self, name: &'static str, v: u64) {
        self.metrics[crate::metrics::shard_of(name)]
            .lock()
            .counter_add(name, v);
        if let Some(r) = &self.recorder {
            r.record(RecEvent::Counter { name, delta: v });
        }
    }

    pub(crate) fn histogram_record(&self, name: &'static str, v: u64) {
        self.metrics[crate::metrics::shard_of(name)]
            .lock()
            .histogram_record(name, v);
        if let Some(r) = &self.recorder {
            r.record(RecEvent::Sample { name, value: v });
        }
    }

    pub(crate) fn histogram_merge(&self, name: &'static str, local: &Histogram) {
        self.metrics[crate::metrics::shard_of(name)]
            .lock()
            .histogram_merge(name, local);
        if let Some(r) = &self.recorder {
            r.record(RecEvent::Merge {
                name,
                count: local.count(),
            });
        }
    }

    pub(crate) fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.metrics {
            shard.lock().accumulate_into(&mut snap);
        }
        snap
    }

    pub(crate) fn merge_spans(&self, agg: &mut Vec<(&'static str, SpanStats)>) {
        if agg.is_empty() {
            return;
        }
        let mut reg = self.spans.lock();
        for (name, s) in agg.drain(..) {
            if let Some((_, g)) = reg.iter_mut().find(|(n, _)| *n == name) {
                g.merge_from(s);
            } else {
                reg.push((name, s));
            }
        }
    }

    pub(crate) fn span_snapshot(&self) -> SpanSnapshot {
        let reg = self.spans.lock();
        SpanSnapshot {
            spans: reg.iter().map(|(n, s)| ((*n).to_string(), *s)).collect(),
        }
    }

    pub(crate) fn clear_metrics(&self) {
        for shard in &self.metrics {
            shard.lock().clear();
        }
    }

    pub(crate) fn clear_spans(&self) {
        self.spans.lock().clear();
    }

    pub(crate) fn reset(&self) {
        self.clear_metrics();
        self.clear_spans();
        if let Some(r) = &self.recorder {
            r.clear();
        }
    }

    pub(crate) fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }
}

impl ObsScope {
    /// A fresh, empty scope without a flight recorder.
    pub fn new() -> Self {
        ObsScope {
            inner: Arc::new(ScopeInner::new(None)),
        }
    }

    /// A fresh scope with a flight-recorder ring holding the most recent
    /// `capacity` structured events (rounded up to a power of two, minimum
    /// 8). See [`crate::recorder`].
    pub fn with_recorder(capacity: usize) -> Self {
        ObsScope {
            inner: Arc::new(ScopeInner::new(Some(Recorder::new(capacity)))),
        }
    }

    /// Makes this scope the calling thread's current scope until the
    /// returned guard drops (scopes nest; the previous scope is restored).
    ///
    /// The thread's pending span buffer is flushed on entry and on exit,
    /// so spans recorded under one scope never bleed into another.
    pub fn enter(&self) -> ScopeGuard {
        crate::span::flush_current_thread();
        let _ = CURRENT.try_with(|c| c.borrow_mut().push(self.clone()));
        ScopeGuard { _priv: () }
    }

    /// Adds `v` to the named counter in this scope (no-op while
    /// observability is disabled).
    pub fn counter_add(&self, name: &'static str, v: u64) {
        if !crate::enabled() || v == 0 {
            return;
        }
        self.inner.counter_add(name, v);
    }

    /// Records one histogram sample in this scope (no-op while disabled).
    pub fn histogram_record(&self, name: &'static str, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.inner.histogram_record(name, v);
    }

    /// Merges a locally accumulated histogram into this scope in one lock
    /// acquisition (no-op while disabled).
    pub fn histogram_merge(&self, name: &'static str, local: &Histogram) {
        if !crate::enabled() || local.count() == 0 {
            return;
        }
        self.inner.histogram_merge(name, local);
    }

    /// Appends one structured event to this scope's flight ring, if it
    /// has one (no-op while disabled).
    pub fn record(&self, ev: RecEvent) {
        if !crate::enabled() {
            return;
        }
        if let Some(r) = self.inner.recorder() {
            r.record(ev);
        }
    }

    /// Captures this scope's counters, histograms and span aggregates.
    ///
    /// The calling thread's pending span buffer is flushed to its
    /// *current* scope first, so a thread snapshotting the scope it is
    /// inside sees its own just-completed spans.
    pub fn snapshot(&self) -> Snapshot {
        crate::span::flush_current_thread();
        Snapshot {
            metrics: self.inner.metrics_snapshot(),
            spans: self.inner.span_snapshot(),
        }
    }

    /// Clears this scope's registries (and flight ring); other scopes are
    /// untouched — the races of a process-wide `reset()` don't exist here.
    pub fn reset(&self) {
        self.inner.reset();
    }

    /// Takes the most recent flight-recorder dump, if one was triggered
    /// (see [`crate::recorder`]); `None` when the scope has no recorder
    /// or nothing was dumped since the last take.
    pub fn take_dump(&self) -> Option<FlightDump> {
        self.inner.recorder().and_then(Recorder::take_dump)
    }

    /// Whether this scope carries a flight recorder.
    pub fn has_recorder(&self) -> bool {
        self.inner.recorder.is_some()
    }

    /// Whether two handles refer to the same scope.
    pub fn same_as(&self, other: &ObsScope) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    pub(crate) fn inner(&self) -> &ScopeInner {
        &self.inner
    }
}

/// RAII guard of [`ObsScope::enter`]; restores the previous current scope
/// on drop.
#[must_use = "dropping the guard immediately exits the scope"]
pub struct ScopeGuard {
    _priv: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        // Flush while the entered scope is still current, so its spans
        // land in it, then pop. TLS may be gone during thread teardown;
        // losing the pop there is harmless (the stack dies with it).
        crate::span::flush_current_thread();
        let _ = CURRENT.try_with(|c| {
            c.borrow_mut().pop();
        });
    }
}

thread_local! {
    /// The calling thread's scope stack; the top is the current scope.
    static CURRENT: RefCell<Vec<ObsScope>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide default scope — the registry behind the historical
/// global API whenever no scope is entered.
pub fn default_scope() -> &'static ObsScope {
    static DEFAULT: OnceLock<ObsScope> = OnceLock::new();
    DEFAULT.get_or_init(ObsScope::new)
}

/// A clone of the calling thread's current scope (the default scope when
/// none is entered) — capture this before spawning workers and
/// [`enter`](ObsScope::enter) it inside them, so worker emissions land in
/// the spawning scope instead of each worker thread's default.
pub fn current() -> ObsScope {
    CURRENT
        .try_with(|c| c.borrow().last().cloned())
        .ok()
        .flatten()
        .unwrap_or_else(|| default_scope().clone())
}

/// Runs `f` against the current scope's registries without cloning the
/// handle — the hot path under the global emission API.
pub(crate) fn with_current_inner<R>(f: impl FnOnce(&ScopeInner) -> R) -> R {
    let done = CURRENT.try_with(|c| {
        let stack = c.borrow();
        stack.last().map(|s| s.inner.clone())
    });
    match done {
        // During thread teardown (TLS destroyed) fall back to the default
        // scope rather than dropping the emission.
        Ok(Some(inner)) => f(&inner),
        _ => f(default_scope().inner()),
    }
}

/// A point-in-time copy of one scope's metrics and span aggregates —
/// capturable, diffable ([`delta`](Snapshot::delta)) and mergeable (`+`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counters and histograms.
    pub metrics: MetricsSnapshot,
    /// Span aggregates.
    pub spans: SpanSnapshot,
}

impl Snapshot {
    /// The change from `prev` (an earlier snapshot of the same scope) to
    /// `self`: per-counter and per-bucket saturating differences, with
    /// all-zero entries dropped.
    ///
    /// For snapshots of a monotonically growing scope (no intervening
    /// [`ObsScope::reset`]) the operation is associative —
    /// `c.delta(&a) == b.delta(&a) + c.delta(&b)` — which the workspace
    /// proptests pin. Span `max_ns` is a high-water mark, not a rate: the
    /// delta keeps the later snapshot's value.
    pub fn delta(&self, prev: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (name, &v) in &self.metrics.counters {
            let d = v.saturating_sub(prev.metrics.counter(name));
            if d > 0 {
                out.metrics.counters.insert(name.clone(), d);
            }
        }
        for (name, h) in &self.metrics.histograms {
            let d = match prev.metrics.histogram(name) {
                Some(p) => h.bucket_delta(p),
                None => h.clone(),
            };
            if d.count() > 0 {
                out.metrics.histograms.insert(name.clone(), d);
            }
        }
        for (name, s) in &self.spans.spans {
            let p = prev.spans.get(name).unwrap_or_default();
            let d = SpanStats {
                count: s.count.saturating_sub(p.count),
                total_ns: s.total_ns.saturating_sub(p.total_ns),
                max_ns: s.max_ns,
            };
            if d.count > 0 || d.total_ns > 0 {
                out.spans.spans.insert(name.clone(), d);
            }
        }
        out
    }
}

impl std::ops::Add for Snapshot {
    type Output = Snapshot;
    fn add(self, rhs: Snapshot) -> Snapshot {
        Snapshot {
            metrics: self.metrics + rhs.metrics,
            spans: self.spans + rhs.spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::TEST_LOCK;

    #[test]
    fn scopes_isolate_and_nest() {
        let _guard = TEST_LOCK.lock();
        crate::set_enabled(true);
        crate::reset();
        let a = ObsScope::new();
        let b = ObsScope::new();
        {
            let _ga = a.enter();
            crate::metrics::counter_add("test.scope", 1);
            {
                let _gb = b.enter();
                crate::metrics::counter_add("test.scope", 10);
            }
            // Back in `a` after the inner guard dropped.
            crate::metrics::counter_add("test.scope", 2);
        }
        crate::metrics::counter_add("test.scope", 100); // default scope
        let snap_default = crate::metrics::snapshot();
        crate::set_enabled(false);
        assert_eq!(a.snapshot().metrics.counter("test.scope"), 3);
        assert_eq!(b.snapshot().metrics.counter("test.scope"), 10);
        assert_eq!(snap_default.counter("test.scope"), 100);
        crate::reset();
    }

    #[test]
    fn span_buffers_do_not_bleed_across_scopes() {
        let _guard = TEST_LOCK.lock();
        crate::set_enabled(true);
        crate::reset();
        let a = ObsScope::new();
        let b = ObsScope::new();
        {
            // An outer span keeps the thread's stack depth above zero, so
            // nothing flushes on its own while we switch scopes.
            let _ga = a.enter();
            let _outer = crate::span!("test.bleed.outer");
            {
                let _inner = crate::span!("test.bleed.a");
            }
            {
                // Entering `b` flushes the pending `test.bleed.a` into `a`
                // even though the outer span is still live.
                let _gb = b.enter();
                let _inner = crate::span!("test.bleed.b");
            }
        }
        crate::set_enabled(false);
        let sa = a.snapshot();
        let sb = b.snapshot();
        assert!(sa.spans.get("test.bleed.a").is_some(), "a lost its span");
        assert!(sa.spans.get("test.bleed.b").is_none(), "b's span bled into a");
        assert!(sb.spans.get("test.bleed.b").is_some(), "b lost its span");
        assert!(sb.spans.get("test.bleed.a").is_none(), "a's span bled into b");
        crate::reset();
    }

    #[test]
    fn delta_subtracts_and_drops_zeros() {
        let _guard = TEST_LOCK.lock();
        crate::set_enabled(true);
        let s = ObsScope::new();
        s.counter_add("c", 5);
        s.histogram_record("h", 4);
        let a = s.snapshot();
        s.counter_add("c", 2);
        s.counter_add("d", 1);
        s.histogram_record("h", 4);
        s.histogram_record("h", 1024);
        let b = s.snapshot();
        crate::set_enabled(false);
        let d = b.delta(&a);
        assert_eq!(d.metrics.counter("c"), 2);
        assert_eq!(d.metrics.counter("d"), 1);
        let h = d.metrics.histogram("h").expect("h grew");
        assert_eq!(h.count(), 2);
        // Unchanged entries disappear from the delta entirely.
        let none = b.delta(&b);
        assert!(none.metrics.counters.is_empty());
        assert!(none.metrics.histograms.is_empty());
        assert!(none.spans.spans.is_empty());
    }

    #[test]
    fn disabled_scope_emission_is_a_noop() {
        let _guard = TEST_LOCK.lock();
        crate::set_enabled(false);
        let s = ObsScope::with_recorder(8);
        s.counter_add("test.off", 5);
        s.histogram_record("test.off_h", 5);
        s.record(RecEvent::Counter {
            name: "test.off",
            delta: 1,
        });
        let snap = s.snapshot();
        assert_eq!(snap.metrics.counter("test.off"), 0);
        assert!(snap.metrics.histogram("test.off_h").is_none());
    }
}
