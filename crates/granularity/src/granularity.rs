//! The [`Granularity`] trait and the primitive time units.

use std::fmt;

use crate::interval::IntervalSet;

/// An absolute time instant, in integer seconds since the epoch
/// (2000-01-01T00:00:00, a Saturday).
///
/// The paper's "primitive temporal type" is `second`; every tick of every
/// other granularity is a union of seconds.
pub type Second = i64;

/// A tick index of a granularity.
///
/// The paper uses positive integers; we anchor tick `1` of every builtin
/// granularity at (or just before) the epoch and extend indices to all of
/// `i64`. Only differences of tick indices are semantically meaningful to the
/// constraint layer.
pub type Tick = i64;

/// A temporal type in the sense of the paper (§2): a monotone mapping from
/// tick indices to sets of absolute time instants.
///
/// Implementations must uphold the two axioms:
///
/// 1. **Monotonicity** — if `i < j` and both ticks are non-empty, every
///    instant of tick `i` precedes every instant of tick `j`.
/// 2. **Consistency of the two views** — `covering_tick(t) == Some(z)` iff
///    `tick_intervals(z)` contains `t`.
///
/// Ticks may be non-convex (sets of disjoint intervals) and the granularity
/// may have gaps (instants covered by no tick). A return of `None` from
/// [`tick_intervals`](Self::tick_intervals) means the tick index lies outside
/// the granularity's supported horizon (used for calendar types with a finite
/// precomputed validity range).
pub trait Granularity: Send + Sync + fmt::Debug {
    /// A short human-readable name, unique within a [`Calendar`](crate::Calendar).
    fn name(&self) -> &str;

    /// The tick whose instant set contains `t`, or `None` if `t` falls in a
    /// gap of this granularity (or outside the supported horizon).
    fn covering_tick(&self, t: Second) -> Option<Tick>;

    /// The set of instants of tick `z`, or `None` if `z` is outside the
    /// supported horizon. A `Some` return is always a non-empty set.
    fn tick_intervals(&self, z: Tick) -> Option<IntervalSet>;

    /// The earliest instant of tick `z`.
    fn tick_min(&self, z: Tick) -> Option<Second> {
        self.tick_intervals(z).map(|s| s.min())
    }

    /// The latest instant of tick `z`.
    fn tick_max(&self, z: Tick) -> Option<Second> {
        self.tick_intervals(z).map(|s| s.max())
    }

    /// Whether instant `t` belongs to tick `z`.
    fn tick_contains(&self, z: Tick, t: Second) -> bool {
        self.covering_tick(t) == Some(z)
    }

    /// Whether the granularity has *gaps*: instants covered by no tick
    /// (e.g. a Saturday for `business-day`).
    ///
    /// Defaults to `true` (the safe answer): gap-free granularities opt in,
    /// which permits constraint conversions *into* them (see the constraint
    /// layer).
    fn has_gaps(&self) -> bool {
        true
    }

    /// Exact span/gap bounds for `k` consecutive ticks when computable in
    /// O(1); used as a fast path by [`SizeTable`](crate::SizeTable).
    fn exact_sizes(&self, _k: u64) -> Option<crate::size_table::SizeBounds> {
        None
    }

    /// A tick-index window `(lo, hi)` such that scanning all runs of `k`
    /// consecutive ticks starting inside it observes the extreme (minimal and
    /// maximal) span and gap patterns of this granularity.
    ///
    /// Builtin granularities return windows covering their full periodic
    /// cycle (e.g. the 400-year Gregorian cycle for months) plus any
    /// aperiodic perturbation (holidays). Custom granularities should
    /// override this; the default is a generous heuristic window.
    fn scan_window(&self, k: u64) -> (Tick, Tick) {
        let k = k as Tick;
        (-5_000 - k, 5_000 + k)
    }

    /// The granularity's claim that its structure repeats periodically —
    /// the seed for [`periodic::compile`](crate::periodic::compile). The
    /// claim is verified against this implementation before use, so a wrong
    /// hint costs a fallback, never a wrong answer. Default: `None`
    /// (aperiodic / unknown — stay on the raw implementation).
    fn periodic_hint(&self) -> Option<crate::periodic::PeriodicHint> {
        None
    }

    /// An optional semantically identical stand-in the periodic compiler
    /// uses for its full-period sampling walks — e.g. a grouped granularity
    /// re-based on its children's own compiled tables, so compiling
    /// `business-month` does not walk a 400-year cycle through the raw
    /// interval code. Verification probes always run against `self`, so a
    /// stand-in that diverges costs a fallback, never a wrong answer.
    fn periodic_accel(&self) -> Option<std::sync::Arc<dyn Granularity>> {
        None
    }

    /// The tick covering `t`, or the first tick after `t` if `t` falls in a
    /// gap. `None` only outside the horizon.
    ///
    /// The default implementation scans forward one second at a time from `t`
    /// and is overridden by builtin granularities with an efficient
    /// computation where the structure allows.
    fn next_tick_at_or_after(&self, t: Second) -> Option<Tick> {
        if let Some(z) = self.covering_tick(t) {
            return Some(z);
        }
        // Fallback linear probe, bounded to keep pathological granularities
        // from looping forever. Builtins override this.
        const PROBE_LIMIT: i64 = 4 * 366 * 86_400;
        let mut u = t;
        let stop = t.saturating_add(PROBE_LIMIT);
        while u < stop {
            u += 1;
            if let Some(z) = self.covering_tick(u) {
                return Some(z);
            }
        }
        None
    }
}

impl<G: Granularity + ?Sized> Granularity for &G {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn covering_tick(&self, t: Second) -> Option<Tick> {
        (**self).covering_tick(t)
    }
    fn tick_intervals(&self, z: Tick) -> Option<IntervalSet> {
        (**self).tick_intervals(z)
    }
    fn tick_min(&self, z: Tick) -> Option<Second> {
        (**self).tick_min(z)
    }
    fn tick_max(&self, z: Tick) -> Option<Second> {
        (**self).tick_max(z)
    }
    fn tick_contains(&self, z: Tick, t: Second) -> bool {
        (**self).tick_contains(z, t)
    }
    fn has_gaps(&self) -> bool {
        (**self).has_gaps()
    }
    fn exact_sizes(&self, k: u64) -> Option<crate::size_table::SizeBounds> {
        (**self).exact_sizes(k)
    }
    fn scan_window(&self, k: u64) -> (Tick, Tick) {
        (**self).scan_window(k)
    }
    fn next_tick_at_or_after(&self, t: Second) -> Option<Tick> {
        (**self).next_tick_at_or_after(t)
    }
    fn periodic_hint(&self) -> Option<crate::periodic::PeriodicHint> {
        (**self).periodic_hint()
    }
    fn periodic_accel(&self) -> Option<std::sync::Arc<dyn Granularity>> {
        (**self).periodic_accel()
    }
}
