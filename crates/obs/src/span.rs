//! Hierarchical timing spans with per-thread buffering.
//!
//! A [`span`] call returns an RAII [`SpanGuard`]; dropping it records the
//! elapsed monotonic time into a thread-local aggregate keyed by the span
//! name. The aggregate flushes into the current scope's registry (see
//! [`crate::scope`]) whenever the thread's span stack unwinds to depth
//! zero, when it grows past a small bound, when the thread enters or
//! exits a scope, or when the thread exits — so nested spans on a hot
//! path touch no shared state, and parallel sweep workers only contend
//! once per top-level unit of work.
//!
//! A `catch_unwind`-contained worker panic is the one unwind that can
//! strand a partial span tree (the containment keeps the thread alive
//! with its depth counter out of sync); containment sites call
//! [`flush_panicked`] to push the partial aggregates out, tagged
//! `panicked=true` via the `obs.spans.panicked_flushes` counter and a
//! flight-recorder event.
//!
//! Hierarchy is by naming convention: dot-separated components
//! (`"pipeline.step5.scan"`), rendered as a tree by
//! [`Report::render`](crate::Report::render).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::recorder::RecEvent;

/// Aggregate timing for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed spans under this name.
    pub count: u64,
    /// Total elapsed nanoseconds across all of them.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}

impl SpanStats {
    /// Total elapsed time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Mean elapsed nanoseconds per span (0 when none completed).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    fn merge(&mut self, other: SpanStats) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Crate-internal merge hook for the scope registries.
    pub(crate) fn merge_from(&mut self, other: SpanStats) {
        self.merge(other);
    }
}

impl std::ops::Add for SpanStats {
    type Output = SpanStats;
    fn add(mut self, rhs: SpanStats) -> SpanStats {
        self.merge(rhs);
        self
    }
}

/// Flush the thread-local aggregate once it holds this many distinct
/// names, even if the span stack has not unwound — a backstop for
/// long-lived threads that never leave a top-level span.
const FLUSH_NAMES: usize = 64;

struct Local {
    /// Live (started, not yet dropped) spans on this thread.
    depth: usize,
    /// Completed-span aggregate awaiting a flush.
    agg: Vec<(&'static str, SpanStats)>,
}

impl Local {
    const fn new() -> Self {
        Local {
            depth: 0,
            agg: Vec::new(),
        }
    }

    fn record(&mut self, name: &'static str, ns: u64) {
        let one = SpanStats {
            count: 1,
            total_ns: ns,
            max_ns: ns,
        };
        if let Some((_, s)) = self.agg.iter_mut().find(|(n, _)| *n == name) {
            s.merge(one);
        } else {
            self.agg.push((name, one));
        }
        if self.depth == 0 || self.agg.len() >= FLUSH_NAMES {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.agg.is_empty() {
            return;
        }
        crate::scope::with_current_inner(|inner| inner.merge_spans(&mut self.agg));
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const { RefCell::new(Local::new()) };
}

/// RAII guard for one timing span; records on drop.
///
/// A guard created while observability is disabled is inert: it holds no
/// clock and records nothing.
#[must_use = "a span measures the scope of its guard; dropping it immediately records ~0ns"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Starts a span under `name` if observability is enabled (see
/// [`crate::set_enabled`]); prefer the [`crate::span!`] macro.
pub fn span(name: &'static str) -> SpanGuard {
    span_if(true, name)
}

/// Starts a span only when `want` is also true — the per-call-site
/// [`ObsOptions::spans`](crate::ObsOptions) knob.
pub fn span_if(want: bool, name: &'static str) -> SpanGuard {
    if !want || !crate::enabled() {
        return SpanGuard { name, start: None };
    }
    LOCAL.with(|l| l.borrow_mut().depth += 1);
    crate::recorder::record(RecEvent::SpanEnter(name));
    SpanGuard {
        name,
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        crate::recorder::record(RecEvent::SpanExit { name: self.name, ns });
        // A TLS access can fail during thread teardown; losing the span
        // is preferable to aborting the process from a destructor.
        let _ = LOCAL.try_with(|l| {
            let mut l = l.borrow_mut();
            l.depth = l.depth.saturating_sub(1);
            l.record(self.name, ns);
        });
    }
}

/// Flushes the calling thread's pending span aggregates into the current
/// scope, regardless of span-stack depth. [`ObsScope::enter`] and scope
/// exit call this so buffered spans land in the scope they ran under.
///
/// [`ObsScope::enter`]: crate::scope::ObsScope::enter
pub fn flush_current_thread() {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
}

/// Force-flushes the calling thread's span buffer after a
/// `catch_unwind`-contained panic, tagging the flush `panicked=true`:
/// the partial aggregates merge into the current scope as usual, the
/// `obs.spans.panicked_flushes` counter increments, and a
/// [`PanickedFlush`](crate::recorder::RecEvent::PanickedFlush) event
/// lands in the scope's flight ring (if it has one).
///
/// Call this from the containment site, on the thread that panicked —
/// containment keeps the worker thread alive with its span depth out of
/// sync, which would otherwise strand the partial span tree in the
/// thread-local buffer until thread exit (and, for pooled threads,
/// possibly misattribute it to a later scope).
pub fn flush_panicked(site: &'static str) {
    if !crate::enabled() {
        return;
    }
    let _ = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        // A guard leaked mid-unwind leaves the depth stranded above zero,
        // deferring every later flush; containment is the thread's top
        // frame, so zero is the known-good depth to re-arm at.
        l.depth = 0;
        l.flush();
    });
    crate::metrics::counter_add("obs.spans.panicked_flushes", 1);
    crate::recorder::record(RecEvent::PanickedFlush { site });
}

/// A point-in-time copy of every flushed span aggregate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Aggregates keyed by span name, sorted for stable rendering.
    pub spans: BTreeMap<String, SpanStats>,
}

impl SpanSnapshot {
    /// Stats for one span name, if any spans completed under it.
    pub fn get(&self, name: &str) -> Option<SpanStats> {
        self.spans.get(name).copied()
    }
}

impl std::ops::Add for SpanSnapshot {
    type Output = SpanSnapshot;
    fn add(mut self, rhs: SpanSnapshot) -> SpanSnapshot {
        for (name, s) in rhs.spans {
            self.spans.entry(name).or_default().merge(s);
        }
        self
    }
}

/// Captures the current scope's span aggregates (flushing this thread's
/// buffer first; other threads' buffers flush when their span stacks
/// unwind or when they leave the scope).
pub fn snapshot() -> SpanSnapshot {
    LOCAL.with(|l| l.borrow_mut().flush());
    crate::scope::with_current_inner(|inner| inner.span_snapshot())
}

/// Clears the current scope's span registry and this thread's pending
/// buffer.
pub fn reset() {
    LOCAL.with(|l| l.borrow_mut().agg.clear());
    crate::scope::with_current_inner(|inner| inner.clear_spans());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::TEST_LOCK;

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TEST_LOCK.lock();
        crate::set_enabled(false);
        reset();
        {
            let _s = crate::span!("test.disabled");
        }
        assert!(snapshot().spans.is_empty());
    }

    #[test]
    fn nested_spans_aggregate_by_name() {
        let _guard = TEST_LOCK.lock();
        crate::set_enabled(true);
        reset();
        for _ in 0..3 {
            let _outer = crate::span!("test.outer");
            let _inner = crate::span!("test.outer.inner");
        }
        let snap = snapshot();
        crate::set_enabled(false);
        let outer = snap.get("test.outer").expect("outer recorded");
        let inner = snap.get("test.outer.inner").expect("inner recorded");
        assert_eq!(outer.count, 3);
        assert_eq!(inner.count, 3);
        assert!(outer.total_ns >= inner.total_ns, "outer encloses inner");
        assert!(outer.max_ns <= outer.total_ns);
        reset();
    }

    #[test]
    fn worker_thread_spans_flush_on_exit() {
        let _guard = TEST_LOCK.lock();
        crate::set_enabled(true);
        reset();
        crossbeam::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|_| {
                    let _s = crate::span!("test.worker");
                });
            }
        })
        .expect("crossbeam scope");
        let snap = snapshot();
        crate::set_enabled(false);
        assert_eq!(snap.get("test.worker").expect("flushed").count, 4);
        reset();
    }

    #[test]
    fn contained_panic_flush_is_tagged_and_preserves_partial_spans() {
        let _guard = TEST_LOCK.lock();
        crate::set_enabled(true);
        reset();
        let scope = crate::scope::ObsScope::with_recorder(32);
        crossbeam::scope(|s| {
            let scope = &scope;
            s.spawn(move |_| {
                let _g = scope.enter();
                // A live outer span keeps depth > 0, so the inner span
                // recorded during the unwind stays buffered — exactly the
                // partial tree a containment site must not drop.
                let _outer = crate::span!("test.panic.outer");
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _inner = crate::span!("test.panic.inner");
                    panic!("injected");
                }));
                assert!(r.is_err());
                flush_panicked("test.containment");
            });
        })
        .expect("crossbeam scope");
        {
            // Trigger a dump to inspect the ring for the panicked tag.
            let _g = scope.enter();
            crate::recorder::interrupt("test.containment", "test");
        }
        crate::set_enabled(false);
        let snap = scope.snapshot();
        assert!(
            snap.spans.get("test.panic.inner").is_some(),
            "partial span tree was dropped"
        );
        assert_eq!(
            snap.metrics.counter("obs.spans.panicked_flushes"),
            1,
            "flush was not tagged panicked=true"
        );
        let dump = scope.take_dump().expect("dump triggered");
        assert!(
            dump.events.iter().any(|(_, e)| matches!(
                e,
                RecEvent::PanickedFlush {
                    site: "test.containment"
                }
            )),
            "flight ring lacks the PanickedFlush event: {dump:?}"
        );
        let _g = scope.enter();
        reset();
    }

    #[test]
    fn snapshots_add_across_captures() {
        let a = SpanSnapshot {
            spans: [(
                "x".to_string(),
                SpanStats {
                    count: 1,
                    total_ns: 10,
                    max_ns: 10,
                },
            )]
            .into_iter()
            .collect(),
        };
        let b = SpanSnapshot {
            spans: [
                (
                    "x".to_string(),
                    SpanStats {
                        count: 2,
                        total_ns: 30,
                        max_ns: 25,
                    },
                ),
                (
                    "y".to_string(),
                    SpanStats {
                        count: 1,
                        total_ns: 5,
                        max_ns: 5,
                    },
                ),
            ]
            .into_iter()
            .collect(),
        };
        let sum = a + b;
        assert_eq!(
            sum.get("x").unwrap(),
            SpanStats {
                count: 3,
                total_ns: 40,
                max_ns: 25
            }
        );
        assert_eq!(sum.get("y").unwrap().count, 1);
    }
}
