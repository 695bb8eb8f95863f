//! Named counters and base-2 log-scale histograms.
//!
//! Metric storage is sharded by name hash across a fixed set of
//! `parking_lot` mutexes, so concurrent step-5 workers emitting different
//! metrics rarely contend. Each shard holds flat name-keyed vectors (the
//! workspace uses a few dozen metric names; a linear probe beats hashing
//! and `Vec::new` is `const`).
//!
//! Since the scoped-domain redesign every [`ObsScope`] owns its own shard
//! set; the free functions here route to the calling thread's *current*
//! scope (the process-wide default scope when none is entered), so the
//! historical global API keeps its exact semantics for code that never
//! enters a scope. See [`crate::scope`].
//!
//! [`ObsScope`]: crate::scope::ObsScope
//!
//! Hot loops should not emit per element: accumulate into a local
//! [`Histogram`] (or plain integer) during the run and publish once at
//! the end via [`histogram_merge`] / [`counter_add`] — the matcher's
//! frontier-size histogram works this way.

use std::collections::BTreeMap;

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `2^63..=u64::MAX`.
pub const BUCKETS: usize = 65;

/// Bucket index for a value: 0 holds exactly 0, bucket `i >= 1` holds
/// `2^(i-1) ..= 2^i - 1`, and bucket 64 holds `2^63 ..= u64::MAX`.
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i` (see [`bucket_of`]).
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A base-2 log-scale histogram of `u64` samples.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Sample counts per bucket (see [`bucket_of`] for the bucket map).
    pub buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
        }
    }
}

impl Histogram {
    /// An empty histogram; `const` so locals cost nothing to set up.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Lower bound of the bucket containing the `q`-quantile sample
    /// (`0.0 ..= 1.0`), or `None` when empty. Log-scale buckets make this
    /// a resolution-of-2x estimate, which is all the funnel reports need.
    ///
    /// # Lower-bound semantics and edge cases
    ///
    /// The returned value is the **inclusive lower bound** of the bucket
    /// the ranked sample fell into ([`bucket_lo`]), never the sample
    /// itself: the true sample lies in `[lo, 2·lo)` (or
    /// `[2^63, u64::MAX]` for the top bucket). In particular, a histogram
    /// whose samples all saturated into the top bucket answers
    /// `Some(2^63)` for *every* quantile — including `q = 0.0` — because
    /// bucket resolution is exhausted there.
    ///
    /// * An empty histogram returns `None` for every `q`.
    /// * `q` outside `[0, 1]` is clamped; a NaN `q` behaves like `0.0`
    ///   (the first non-empty bucket).
    /// * `q = 0.0` ranks the smallest sample (rank is floored at 1), so
    ///   it equals the first non-empty bucket's lower bound.
    pub fn quantile_lo(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * n as f64).ceil() as u64).max(1).min(n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_lo(i));
            }
        }
        // Unreachable when the bucket counts are consistent (rank <= n);
        // kept as a safe answer rather than a panic.
        Some(bucket_lo(BUCKETS - 1))
    }

    /// Lower bound of the highest non-empty bucket, or `None` when empty.
    ///
    /// Like [`quantile_lo`](Self::quantile_lo) this is a **bucket lower
    /// bound**, not the maximum sample: a histogram holding one
    /// `u64::MAX` sample answers `Some(2^63)` (the top bucket's lower
    /// bound), the tightest answer 2x-resolution buckets can give.
    pub fn max_lo(&self) -> Option<u64> {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(bucket_lo)
    }

    /// Per-bucket saturating difference `self - earlier`: the samples
    /// recorded between two cumulative captures of the same histogram.
    /// The building block of [`Snapshot::delta`](crate::scope::Snapshot).
    pub fn bucket_delta(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (o, (a, b)) in out
            .buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(earlier.buckets.iter()))
        {
            *o = a.saturating_sub(*b);
        }
        out
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut m = f.debug_map();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                m.entry(&bucket_lo(i), &c);
            }
        }
        m.finish()
    }
}

impl std::ops::Add for Histogram {
    type Output = Histogram;
    fn add(mut self, rhs: Histogram) -> Histogram {
        self.merge(&rhs);
        self
    }
}

/// One lock's worth of a scope's metric registry (see the module docs
/// for the sharding rationale).
pub(crate) struct Shard {
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

impl Shard {
    pub(crate) const fn new() -> Self {
        Shard {
            counters: Vec::new(),
            histograms: Vec::new(),
        }
    }

    pub(crate) fn counter_add(&mut self, name: &'static str, v: u64) {
        if let Some((_, c)) = self.counters.iter_mut().find(|(n, _)| *n == name) {
            *c += v;
        } else {
            self.counters.push((name, v));
        }
    }

    pub(crate) fn histogram_record(&mut self, name: &'static str, v: u64) {
        if let Some((_, h)) = self.histograms.iter_mut().find(|(n, _)| *n == name) {
            h.record(v);
        } else {
            let mut h = Histogram::new();
            h.record(v);
            self.histograms.push((name, h));
        }
    }

    pub(crate) fn histogram_merge(&mut self, name: &'static str, local: &Histogram) {
        if let Some((_, h)) = self.histograms.iter_mut().find(|(n, _)| *n == name) {
            h.merge(local);
        } else {
            self.histograms.push((name, local.clone()));
        }
    }

    pub(crate) fn accumulate_into(&self, snap: &mut MetricsSnapshot) {
        for (n, v) in &self.counters {
            *snap.counters.entry((*n).to_string()).or_insert(0) += v;
        }
        for (n, h) in &self.histograms {
            snap.histograms
                .entry((*n).to_string())
                .or_default()
                .merge(h);
        }
    }

    pub(crate) fn clear(&mut self) {
        self.counters.clear();
        self.histograms.clear();
    }
}

pub(crate) const SHARDS: usize = 16;

/// FNV-1a over the name bytes, reduced to a shard index. Names are short
/// `'static` literals, so this is a handful of cycles.
pub(crate) fn shard_of(name: &str) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    (h as usize) % SHARDS
}

/// Adds `v` to the current scope's named counter (no-op while
/// observability is disabled).
pub fn counter_add(name: &'static str, v: u64) {
    if !crate::enabled() || v == 0 {
        return;
    }
    crate::scope::with_current_inner(|inner| inner.counter_add(name, v));
}

/// Records one sample into the current scope's named histogram (no-op
/// while disabled).
pub fn histogram_record(name: &'static str, v: u64) {
    if !crate::enabled() {
        return;
    }
    crate::scope::with_current_inner(|inner| inner.histogram_record(name, v));
}

/// Merges a locally accumulated histogram into the current scope's named
/// one in a single lock acquisition — the batch path for hot loops
/// (no-op while disabled).
pub fn histogram_merge(name: &'static str, local: &Histogram) {
    if !crate::enabled() || local.count() == 0 {
        return;
    }
    crate::scope::with_current_inner(|inner| inner.histogram_merge(name, local));
}

/// A point-in-time copy of every counter and histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counters keyed by name, sorted for stable rendering.
    pub counters: BTreeMap<String, u64>,
    /// Histograms keyed by name, sorted for stable rendering.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// The named counter's value (0 when never emitted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }
}

impl std::ops::Add for MetricsSnapshot {
    type Output = MetricsSnapshot;
    fn add(mut self, rhs: MetricsSnapshot) -> MetricsSnapshot {
        for (name, v) in rhs.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in rhs.histograms {
            self.histograms.entry(name).or_default().merge(&h);
        }
        self
    }
}

/// Captures every counter and histogram of the current scope (the
/// default scope when none is entered).
pub fn snapshot() -> MetricsSnapshot {
    crate::scope::with_current_inner(|inner| inner.metrics_snapshot())
}

/// Clears every counter and histogram of the current scope.
pub fn reset() {
    crate::scope::with_current_inner(|inner| inner.clear_metrics());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::TEST_LOCK;

    #[test]
    fn bucket_edges() {
        // The satellite-mandated edge cases: 0, 1, u64::MAX.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Power-of-two boundaries land in the bucket they open.
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1 << 63), 64);
        assert_eq!(bucket_of((1 << 63) - 1), 63);
        // bucket_lo inverts bucket_of at bucket starts.
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_lo(i)), i);
        }
        assert_eq!(bucket_lo(64), 1 << 63);
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[64], 1);
        assert_eq!(h.max_lo(), Some(1 << 63));
        assert_eq!(h.quantile_lo(0.0), Some(0));
        assert_eq!(h.quantile_lo(0.5), Some(1));
        assert_eq!(h.quantile_lo(1.0), Some(1 << 63));
        assert_eq!(Histogram::new().quantile_lo(0.5), None);
        assert_eq!(Histogram::new().max_lo(), None);
    }

    #[test]
    fn quantile_and_max_edge_cases_are_pinned() {
        // Empty histogram: every summary answers None, for any q.
        let empty = Histogram::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(empty.quantile_lo(q), None);
        }
        assert_eq!(empty.max_lo(), None);

        // Single sample saturated into the top bucket: every quantile —
        // including q=0 — answers the top bucket's *lower bound* 2^63,
        // never the sample itself (lower-bound semantics).
        let mut top = Histogram::new();
        top.record(u64::MAX);
        for q in [0.0, 0.25, 1.0] {
            assert_eq!(top.quantile_lo(q), Some(1u64 << 63));
        }
        assert_eq!(top.max_lo(), Some(1u64 << 63));

        // Out-of-range and NaN q clamp instead of panicking or skewing:
        // q < 0 and NaN behave like 0.0, q > 1 like 1.0.
        let mut h = Histogram::new();
        h.record(1);
        h.record(1000);
        assert_eq!(h.quantile_lo(-3.0), h.quantile_lo(0.0));
        assert_eq!(h.quantile_lo(f64::NAN), h.quantile_lo(0.0));
        assert_eq!(h.quantile_lo(7.5), h.quantile_lo(1.0));
        assert_eq!(h.quantile_lo(0.0), Some(1));
        assert_eq!(h.quantile_lo(1.0), Some(512));
    }

    #[test]
    fn bucket_delta_subtracts_per_bucket() {
        let mut a = Histogram::new();
        a.record(4);
        a.record(4);
        a.record(100);
        let mut b = a.clone();
        b.record(4);
        b.record(1 << 40);
        let d = b.bucket_delta(&a);
        assert_eq!(d.count(), 2);
        assert_eq!(d.buckets[bucket_of(4)], 1);
        assert_eq!(d.buckets[bucket_of(1 << 40)], 1);
        assert_eq!(d.buckets[bucket_of(100)], 0);
        // Saturating: an (impossible) shrink clamps to zero, not wraps.
        let z = a.bucket_delta(&b);
        assert_eq!(z.count(), 0);
    }

    #[test]
    fn concurrent_counters_accumulate_exactly() {
        let _guard = TEST_LOCK.lock();
        crate::set_enabled(true);
        reset();
        const WORKERS: usize = 8;
        const PER_WORKER: u64 = 1000;
        crossbeam::scope(|scope| {
            for w in 0..WORKERS {
                scope.spawn(move |_| {
                    for _ in 0..PER_WORKER {
                        counter_add("test.concurrent", 1);
                        if w % 2 == 0 {
                            histogram_record("test.concurrent_hist", w as u64);
                        }
                    }
                });
            }
        })
        .expect("crossbeam scope");
        let snap = snapshot();
        crate::set_enabled(false);
        assert_eq!(snap.counter("test.concurrent"), WORKERS as u64 * PER_WORKER);
        assert_eq!(
            snap.histogram("test.concurrent_hist").unwrap().count(),
            (WORKERS as u64 / 2) * PER_WORKER
        );
        reset();
    }

    #[test]
    fn disabled_metrics_are_noops() {
        let _guard = TEST_LOCK.lock();
        crate::set_enabled(false);
        reset();
        counter_add("test.off", 5);
        histogram_record("test.off_h", 5);
        histogram_merge("test.off_h", &{
            let mut h = Histogram::new();
            h.record(1);
            h
        });
        let snap = snapshot();
        assert_eq!(snap.counter("test.off"), 0);
        assert!(snap.histogram("test.off_h").is_none());
    }

    #[test]
    fn snapshots_add() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("c".into(), 2);
        let mut ha = Histogram::new();
        ha.record(4);
        a.histograms.insert("h".into(), ha);
        let mut b = MetricsSnapshot::default();
        b.counters.insert("c".into(), 3);
        b.counters.insert("d".into(), 1);
        let mut hb = Histogram::new();
        hb.record(4);
        hb.record(1024);
        b.histograms.insert("h".into(), hb);
        let sum = a + b;
        assert_eq!(sum.counter("c"), 5);
        assert_eq!(sum.counter("d"), 1);
        let h = sum.histogram("h").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets[bucket_of(4)], 2);
    }

    #[test]
    fn batch_merge_matches_per_sample_recording() {
        let _guard = TEST_LOCK.lock();
        crate::set_enabled(true);
        reset();
        let mut local = Histogram::new();
        for v in [0u64, 1, 7, 7, 1 << 20] {
            local.record(v);
            histogram_record("test.per_sample", v);
        }
        histogram_merge("test.batch", &local);
        let snap = snapshot();
        crate::set_enabled(false);
        assert_eq!(
            snap.histogram("test.per_sample"),
            snap.histogram("test.batch")
        );
        reset();
    }
}
