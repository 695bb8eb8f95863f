//! Compiled minimal periodic sets: lock-free closed-form tick conversion.
//!
//! Following Bettini & Mascetti (*Supporting Temporal Reasoning by Mapping
//! Calendar Expressions to Minimal Periodic Sets*), every granularity whose
//! structure repeats with a finite period compiles to a [`PeriodicTable`]:
//! the period length in seconds, the sorted in-period tick segments, the
//! per-period tick count, plus an explicit exception window for aperiodic
//! stretches (holiday lists). The table answers `covering_tick`,
//! `tick_intervals` and `convert_tick` by integer division and binary
//! search over the in-period offsets — no locks, no memo maps — and is
//! shared lock-free via `Arc`/`OnceLock` by every clone of a
//! [`Gran`](crate::Gran) handle.
//!
//! The table is the only acceleration layer: a `Gran` answers from its
//! compiled table or, failing that, from its raw implementation, which
//! stays the reference the table is verified and tested against
//! ([`set_enabled`]`(false)` selects it for differential tests).
//!
//! Compilation is *verified*: the compiler samples the raw interval-based
//! implementation over several well-separated periods, rebuilds the closed
//! form, and then probes random and boundary instants/ticks for
//! bit-identical answers. Any disagreement — or a granularity without a
//! [`PeriodicHint`] — leaves the granularity on its raw implementation;
//! outcomes are recorded in the `granularity.compile.{compiled,fallback}`
//! counters ([`stats`]).
//!
//! # Domain delegation
//!
//! A table only answers inside a conservative domain of whole periods
//! strictly inside the granularity's horizon, and (for some operations)
//! away from the exception window. Out-of-domain queries return the *outer*
//! `None` ("not my competence") and the caller falls back to the raw
//! path, which keeps horizon-edge semantics bit-identical by construction
//! instead of by re-implementation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::granularity::{Granularity, Second, Tick};
use crate::interval::{Interval, IntervalSet};

// ---------------------------------------------------------------------------
// Global switch + compile-outcome counters
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);
static COMPILED: AtomicU64 = AtomicU64::new(0);
static FALLBACK: AtomicU64 = AtomicU64::new(0);

/// Globally enables or disables the compiled periodic-table fast path
/// (default: enabled). Disabling falls every query back to the raw
/// implementation — the reference path of the differential tests and the
/// baseline of the `bench_json` conversion gates.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the compiled fast path is enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Process-wide compile outcome counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileStats {
    /// Granularities successfully compiled to a [`PeriodicTable`].
    pub compiled: u64,
    /// Granularities left on their raw implementation (no periodic hint,
    /// or the verification probes found a mismatch).
    pub fallback: u64,
}

/// Snapshot of the process-wide compile counters.
pub fn stats() -> CompileStats {
    CompileStats {
        compiled: COMPILED.load(Ordering::Relaxed),
        fallback: FALLBACK.load(Ordering::Relaxed),
    }
}

/// Resets the process-wide compile counters (tests/benches only).
pub fn reset_stats() {
    COMPILED.store(0, Ordering::Relaxed);
    FALLBACK.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// PeriodicHint — the per-granularity compilation seed
// ---------------------------------------------------------------------------

/// A granularity's declaration that its structure is periodic: everything
/// the generic compiler needs to sample and verify a [`PeriodicTable`].
///
/// The hint is a *claim*, not a proof — the compiler verifies it against
/// the raw implementation and falls back on any disagreement. The claim is:
/// within `[sec_lo, sec_hi]` and outside `exceptions`, the tick structure
/// seen from `anchor + q·period` is identical for every period `q`, and
/// ticks are numbered consecutively across periods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodicHint {
    /// Start instant of period 0; every `anchor + q·period` is a period
    /// boundary no tick straddles.
    pub anchor: Second,
    /// Period length in seconds (> 0).
    pub period: i64,
    /// Inclusive start of the horizon within which the raw implementation
    /// is total and periodic.
    pub sec_lo: Second,
    /// Inclusive end of that horizon.
    pub sec_hi: Second,
    /// Hull `[lo, hi]` of instants where the structure deviates from the
    /// periodic pattern (holiday stretches); `None` if fully periodic.
    pub exceptions: Option<(Second, Second)>,
}

// ---------------------------------------------------------------------------
// PeriodicTable
// ---------------------------------------------------------------------------

/// Explicitly materialized ticks for the aperiodic stretch (holidays).
#[derive(Debug)]
struct Exceptions {
    /// Whole-period window `[p_lo, p_hi]` (period indices).
    p_hi: i64,
    /// Absolute second hull of the window (`anchor + p_lo·period` ..
    /// `anchor + (p_hi+1)·period - 1`).
    sec_lo: Second,
    sec_hi: Second,
    /// Explicit tick index range inside the window (empty iff
    /// `first_tick > last_tick`).
    first_tick: Tick,
    last_tick: Tick,
    /// Tick-numbering shift for periods after the window (negative when
    /// the exceptions removed ticks).
    shift: i64,
    /// Absolute intervals of the explicit ticks; tick `first_tick + i`
    /// owns `ivals[off[i]..off[i+1]]`.
    ivals: Vec<(Second, Second)>,
    off: Vec<u32>,
    /// Absolute covering segments `(start, end, tick)` sorted by start.
    seg: Vec<(Second, Second, Tick)>,
}

/// A compiled granularity: closed-form, lock-free tick arithmetic.
///
/// Queries return a *nested* option: the outer `None` means "outside this
/// table's competence domain — delegate to the raw implementation", while
/// the inner value is the verbatim answer the raw implementation would give.
#[derive(Debug)]
pub struct PeriodicTable {
    anchor: Second,
    period: i64,
    /// Ticks per clean period.
    n: i64,
    /// Tick index of slot 0 of period 0 (pre-exception numbering).
    first_tick: Tick,
    /// Supported period range (inclusive).
    q_lo: i64,
    q_hi: i64,
    /// Absolute second domain: `anchor + q_lo·period` ..
    /// `anchor + (q_hi+1)·period - 1`.
    dom_lo: Second,
    dom_hi: Second,
    /// Supported tick range (inclusive, post-shift numbering at the top).
    tick_lo: Tick,
    tick_hi: Tick,
    /// Clean-period covering segments `(start_off, end_off, slot)` sorted
    /// by start offset; slots appear in non-decreasing order.
    seg: Vec<(i64, i64, u32)>,
    /// In-period interval offsets of slot `s`:
    /// `slot_ivals[slot_off[s]..slot_off[s+1]]`.
    slot_ivals: Vec<(i64, i64)>,
    slot_off: Vec<u32>,
    exc: Option<Exceptions>,
}

impl PeriodicTable {
    /// The compiled period length in seconds.
    pub fn period_seconds(&self) -> i64 {
        self.period
    }

    /// Number of ticks per clean period.
    pub fn ticks_per_period(&self) -> i64 {
        self.n
    }

    /// The inclusive tick range the table answers for: whole periods,
    /// the first and last of which are clean.
    pub fn tick_domain(&self) -> (Tick, Tick) {
        (self.tick_lo, self.tick_hi)
    }

    /// The inclusive range of explicitly materialized exception ticks
    /// (empty when `lo > hi`); `None` without an exception window. The
    /// two periods before it are clean.
    pub fn exception_tick_range(&self) -> Option<(Tick, Tick)> {
        self.exc.as_ref().map(|e| (e.first_tick, e.last_tick))
    }

    #[inline]
    fn shift_for_period(&self, q: i64) -> i64 {
        match &self.exc {
            Some(e) if q > e.p_hi => e.shift,
            _ => 0,
        }
    }

    /// The tick covering instant `t`: outer `None` delegates, inner `None`
    /// is a gap.
    #[inline]
    pub fn covering_tick(&self, t: Second) -> Option<Option<Tick>> {
        if t < self.dom_lo || t > self.dom_hi {
            return None;
        }
        if let Some(e) = &self.exc {
            if t >= e.sec_lo && t <= e.sec_hi {
                let i = e.seg.partition_point(|s| s.1 < t);
                return match e.seg.get(i) {
                    Some(&(start, _, z)) if start <= t => Some(Some(z)),
                    _ => Some(None),
                };
            }
        }
        let q = (t - self.anchor).div_euclid(self.period);
        let off = t - self.anchor - q * self.period;
        let i = self.seg.partition_point(|s| s.1 < off);
        match self.seg.get(i) {
            Some(&(start, _, slot)) if start <= off => Some(Some(
                self.first_tick + q * self.n + slot as i64 + self.shift_for_period(q),
            )),
            _ => Some(None),
        }
    }

    /// The intervals of tick `z` as `(offset_pairs, base)` — the absolute
    /// intervals are `[base + a, base + b]` for each `(a, b)`. `None`
    /// delegates (the tick is outside the table's domain). Allocation-free.
    #[inline]
    pub fn tick_interval_slices(&self, z: Tick) -> Option<(&[(i64, i64)], Second)> {
        if z < self.tick_lo || z > self.tick_hi {
            return None;
        }
        let mut rel = z - self.first_tick;
        if let Some(e) = &self.exc {
            if z >= e.first_tick && z <= e.last_tick {
                let i = (z - e.first_tick) as usize;
                return Some((&e.ivals[e.off[i] as usize..e.off[i + 1] as usize], 0));
            }
            if z > e.last_tick {
                rel -= e.shift;
            }
        }
        let q = rel.div_euclid(self.n);
        let s = rel.rem_euclid(self.n) as usize;
        debug_assert!((self.q_lo..=self.q_hi).contains(&q));
        let base = self.anchor + q * self.period;
        Some((
            &self.slot_ivals[self.slot_off[s] as usize..self.slot_off[s + 1] as usize],
            base,
        ))
    }

    /// The instant set of tick `z` as an [`IntervalSet`]; `None` delegates.
    pub fn tick_intervals(&self, z: Tick) -> Option<IntervalSet> {
        let (slices, base) = self.tick_interval_slices(z)?;
        Some(IntervalSet::from_intervals(
            slices
                .iter()
                .map(|&(a, b)| Interval::new(base + a, base + b))
                .collect(),
        ))
    }

    /// The tick covering `t` or the first tick after `t`: outer `None`
    /// delegates (out of domain, or too close to the exception window for
    /// a closed-form answer).
    pub fn next_tick_at_or_after(&self, t: Second) -> Option<Option<Tick>> {
        if t < self.dom_lo || t > self.dom_hi {
            return None;
        }
        if let Some(e) = &self.exc {
            // Within the window — or in the period just before it, whose
            // "next tick" may be an exception tick — delegate to raw.
            if t >= e.sec_lo - self.period && t <= e.sec_hi {
                return None;
            }
        }
        let q = (t - self.anchor).div_euclid(self.period);
        let off = t - self.anchor - q * self.period;
        // First segment with some instant at or after `off`. Monotonicity
        // makes slots non-decreasing along segments, so this is the
        // earliest such tick.
        let i = self.seg.partition_point(|s| s.1 < off);
        if let Some(&(_, _, slot)) = self.seg.get(i) {
            return Some(Some(
                self.first_tick + q * self.n + slot as i64 + self.shift_for_period(q),
            ));
        }
        // Past the last segment of this period: slot 0 of the next.
        if q + 1 > self.q_hi {
            return None;
        }
        Some(Some(
            self.first_tick + (q + 1) * self.n + self.shift_for_period(q + 1),
        ))
    }

    /// The paper's `⌈z⌉` conversion between two compiled tables, entirely
    /// allocation-free: outer `None` delegates to the raw path, the inner
    /// value matches [`convert_tick`](crate::convert_tick) verbatim.
    pub fn convert_tick_to(&self, z: Tick, target: &PeriodicTable) -> Option<Option<Tick>> {
        let (src, sbase) = self.tick_interval_slices(z)?;
        let candidate = match target.covering_tick(sbase + src[0].0) {
            None => return None,
            Some(None) => return Some(None),
            Some(Some(c)) => c,
        };
        match Self::slices_subset(src, sbase, target, candidate) {
            None => None,
            Some(true) => Some(Some(candidate)),
            Some(false) => Some(None),
        }
    }

    /// Whether tick `z_target` of `target` covers tick `z_source` of
    /// `source` — the compiled counterpart of
    /// [`tick_covers`](crate::tick_covers). Outer `None` delegates.
    pub fn tick_covers(
        target: &PeriodicTable,
        z_target: Tick,
        source: &PeriodicTable,
        z_source: Tick,
    ) -> Option<bool> {
        let (src, sbase) = source.tick_interval_slices(z_source)?;
        Self::slices_subset(src, sbase, target, z_target)
    }

    /// Whether every `[sbase+a, sbase+b]` of `src` is contained in some
    /// interval of `target`'s tick `z_target`. `None` delegates when the
    /// target tick is outside `target`'s domain.
    fn slices_subset(
        src: &[(i64, i64)],
        sbase: Second,
        target: &PeriodicTable,
        z_target: Tick,
    ) -> Option<bool> {
        let (tgt, tbase) = target.tick_interval_slices(z_target)?;
        let mut j = 0;
        for &(a, b) in src {
            let (lo, hi) = (sbase + a, sbase + b);
            while j < tgt.len() && tbase + tgt[j].1 < lo {
                j += 1;
            }
            match tgt.get(j) {
                Some(&(c, d)) if tbase + c <= lo && hi <= tbase + d => {}
                _ => return Some(false),
            }
        }
        Some(true)
    }
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

/// Most ticks a clean period may contain (the 400-year Gregorian cycle has
/// 4 800 months).
const MAX_SLOTS: usize = 20_000;
/// Most interval pairs the exception window may materialize.
const MAX_EXC_IVALS: usize = 1 << 20;
/// Verification probe counts.
const SECOND_PROBES: usize = 512;
const TICK_PROBES: usize = 256;
const NEXT_PROBES: usize = 128;

fn div_floor_i128(a: i128, b: i128) -> i128 {
    a.div_euclid(b)
}

fn div_ceil_i128(a: i128, b: i128) -> i128 {
    -((-a).div_euclid(b))
}

fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.abs()
}

/// Least common multiple with overflow checking.
pub(crate) fn checked_lcm(a: i64, b: i64) -> Option<i64> {
    if a == 0 || b == 0 {
        return None;
    }
    (a / gcd(a, b)).checked_mul(b)
}

/// One clean period's raw sample: the first tick index found at the period
/// start and each tick's intervals as offsets from the period start.
type PeriodSample = (Tick, Vec<Vec<(i64, i64)>>);

fn sample_period(g: &dyn Granularity, t0: Second, period: i64) -> Option<PeriodSample> {
    let end = t0.checked_add(period)?;
    let first_z = g.next_tick_at_or_after(t0)?;
    let mut slots: Vec<Vec<(i64, i64)>> = Vec::new();
    let mut z = first_z;
    loop {
        let set = g.tick_intervals(z)?;
        if set.min() >= end {
            break;
        }
        // A tick straddling the period boundary falsifies the hint.
        if set.min() < t0 || set.max() >= end {
            return None;
        }
        slots.push(
            set.intervals()
                .iter()
                .map(|iv| (iv.start - t0, iv.end - t0))
                .collect(),
        );
        if slots.len() > MAX_SLOTS {
            return None;
        }
        z += 1;
    }
    (!slots.is_empty()).then_some((first_z, slots))
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[lo, hi]` (inclusive), span-safe via u128.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi as i128 - lo as i128 + 1) as u128;
        lo + (self.next() as u128 % span) as i64
    }
}

/// Compiles a granularity into a verified [`PeriodicTable`], recording the
/// outcome in the `granularity.compile` counters. `None` means the
/// granularity stays on its raw implementation.
pub fn compile(g: &dyn Granularity) -> Option<PeriodicTable> {
    match try_compile(g) {
        Some(t) => {
            COMPILED.fetch_add(1, Ordering::Relaxed);
            Some(t)
        }
        None => {
            FALLBACK.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

fn try_compile(g: &dyn Granularity) -> Option<PeriodicTable> {
    let h = g.periodic_hint()?;
    if h.period <= 0 || h.sec_lo >= h.sec_hi {
        return None;
    }
    // Full-period walks may run against an accelerated stand-in (grouped
    // granularities re-based on their children's compiled tables); the
    // random verification probes at the end always run against `g` itself.
    let accel = g.periodic_accel();
    let walker: &dyn Granularity = accel.as_deref().unwrap_or(g);
    let anchor = h.anchor;
    let period = h.period;
    let p128 = period as i128;

    // Whole periods fully inside the hinted horizon, shrunk by one period
    // of safety margin on each side so delegated edges stay raw.
    let q_lo = (div_ceil_i128(h.sec_lo as i128 - anchor as i128, p128) + 1).max(i64::MIN as i128);
    let q_hi = (div_floor_i128(h.sec_hi as i128 + 1 - anchor as i128, p128) - 2).min(i64::MAX as i128);
    if q_hi - q_lo < 4 {
        return None;
    }
    let (q_lo, q_hi) = (q_lo as i64, q_hi as i64);

    // Exception window in whole periods, with at least two clean periods on
    // each side inside the domain (one to calibrate, one as margin).
    let exc_window = match h.exceptions {
        Some((e_lo, e_hi)) => {
            if e_lo > e_hi {
                None
            } else {
                let p_lo = div_floor_i128(e_lo as i128 - anchor as i128, p128);
                let p_hi = div_floor_i128(e_hi as i128 - anchor as i128, p128);
                if p_lo < q_lo as i128 + 2 || p_hi > q_hi as i128 - 2 {
                    return None;
                }
                Some((p_lo as i64, p_hi as i64))
            }
        }
        None => None,
    };

    // Sample a clean reference period.
    let q_ref = match exc_window {
        Some((p_lo, _)) => p_lo - 2,
        None => 0i64.clamp(q_lo, q_hi - 1),
    };
    let t_ref = checked_period_start(anchor, q_ref, period)?;
    let (z_ref, slots) = sample_period(walker, t_ref, period)?;
    let n = slots.len() as i64;
    let first_tick = i64::try_from(z_ref as i128 - q_ref as i128 * n as i128).ok()?;

    // Tick-index arithmetic must stay in range over the whole domain.
    let tick_lo = i64::try_from(first_tick as i128 + q_lo as i128 * n as i128).ok()?;
    let mut tick_hi =
        i64::try_from(first_tick as i128 + (q_hi as i128 + 1) * n as i128 - 1).ok()?;
    let dom_lo = checked_period_start(anchor, q_lo, period)?;
    let dom_hi = checked_period_start(anchor, q_hi, period)?.checked_add(period - 1)?;

    // Flatten slots into the segment/interval stores.
    let mut seg: Vec<(i64, i64, u32)> = Vec::new();
    let mut slot_ivals: Vec<(i64, i64)> = Vec::new();
    let mut slot_off: Vec<u32> = vec![0];
    for (s, ivs) in slots.iter().enumerate() {
        for &(a, b) in ivs {
            seg.push((a, b, s as u32));
            slot_ivals.push((a, b));
        }
        slot_off.push(u32::try_from(slot_ivals.len()).ok()?);
    }
    seg.sort_unstable();
    // Monotonicity: segment order must agree with slot order.
    if seg.windows(2).any(|w| w[0].2 > w[1].2 || w[0].1 >= w[1].0) {
        return None;
    }

    // Materialize the exception window explicitly and calibrate the shift.
    let exc = if let Some((p_lo, p_hi)) = exc_window {
        let w_lo = checked_period_start(anchor, p_lo, period)?;
        let w_hi = checked_period_start(anchor, p_hi, period)?.checked_add(period - 1)?;
        let e_first = first_tick + p_lo * n;
        let mut z = walker.next_tick_at_or_after(w_lo)?;
        if z != e_first {
            return None;
        }
        let mut ivals: Vec<(Second, Second)> = Vec::new();
        let mut off: Vec<u32> = vec![0];
        let mut eseg: Vec<(Second, Second, Tick)> = Vec::new();
        let mut last_tick = e_first - 1;
        loop {
            let set = walker.tick_intervals(z)?;
            if set.min() > w_hi {
                break;
            }
            if set.min() < w_lo || set.max() > w_hi {
                return None;
            }
            for iv in set.intervals() {
                ivals.push((iv.start, iv.end));
                eseg.push((iv.start, iv.end, z));
            }
            off.push(u32::try_from(ivals.len()).ok()?);
            if ivals.len() > MAX_EXC_IVALS {
                return None;
            }
            last_tick = z;
            z += 1;
        }
        let shift = (z - first_tick) - (p_hi + 1) * n;
        tick_hi = tick_hi.checked_add(shift)?;
        Some(Exceptions {
            p_hi,
            sec_lo: w_lo,
            sec_hi: w_hi,
            first_tick: e_first,
            last_tick,
            shift,
            ivals,
            off,
            seg: eseg,
        })
    } else {
        None
    };

    let table = PeriodicTable {
        anchor,
        period,
        n,
        first_tick,
        q_lo,
        q_hi,
        dom_lo,
        dom_hi,
        tick_lo,
        tick_hi,
        seg,
        slot_ivals,
        slot_off,
        exc,
    };
    verify(g, walker, &table).then_some(table)
}

fn checked_period_start(anchor: Second, q: i64, period: i64) -> Option<Second> {
    anchor.checked_add(q.checked_mul(period)?)
}

/// Differential verification: the table must agree with the raw
/// implementation on cross-period samples, random probes, and every
/// exception-window boundary. Full-period re-samples go through `walker`
/// (the accelerated stand-in, when there is one); all point probes hit the
/// raw `g` directly.
fn verify(g: &dyn Granularity, walker: &dyn Granularity, t: &PeriodicTable) -> bool {
    // Re-sample one well-separated period in full (post-exception when
    // there is one, to validate the numbering shift and slot contents) …
    let q_deep = match &t.exc {
        Some(e) => e.p_hi + 1,
        None => (t.q_lo + t.q_hi) / 2,
    };
    {
        let q = q_deep;
        if !(t.q_lo..=t.q_hi).contains(&q) {
            return false;
        }
        let Some(t0) = checked_period_start(t.anchor, q, t.period) else {
            return false;
        };
        let Some((z0, slots)) = sample_period(walker, t0, t.period) else {
            return false;
        };
        if slots.len() as i64 != t.n {
            return false;
        }
        if z0 != t.first_tick + q * t.n + t.shift_for_period(q) {
            return false;
        }
        for (s, ivs) in slots.iter().enumerate() {
            let lo = t.slot_off[s] as usize;
            let hi = t.slot_off[s + 1] as usize;
            if ivs.as_slice() != &t.slot_ivals[lo..hi] {
                return false;
            }
        }
    }
    // … and check tick numbering at the domain edges without full walks:
    // any drift in the per-period tick count between here and the sampled
    // period would show up as a first-tick mismatch.
    for q in [t.q_lo, t.q_hi - 1] {
        let Some(t0) = checked_period_start(t.anchor, q, t.period) else {
            return false;
        };
        let expected = t.first_tick + q * t.n + t.shift_for_period(q);
        if walker.next_tick_at_or_after(t0) != Some(expected) {
            return false;
        }
    }

    let mut rng = SplitMix64(0x5EED_0F0C_ACC0_1ADE);
    // Random + boundary instants: covering must match bit for bit.
    let mut instants: Vec<Second> = Vec::with_capacity(SECOND_PROBES + 32);
    for _ in 0..SECOND_PROBES {
        instants.push(rng.range(t.dom_lo, t.dom_hi));
    }
    for edge in [t.dom_lo, t.dom_hi, t.anchor] {
        for d in -2i64..=2 {
            if let Some(v) = edge.checked_add(d) {
                instants.push(v.clamp(t.dom_lo, t.dom_hi));
            }
        }
    }
    if let Some(e) = &t.exc {
        for edge in [e.sec_lo, e.sec_hi] {
            for d in -2i64..=2 {
                instants.push((edge + d).clamp(t.dom_lo, t.dom_hi));
            }
        }
    }
    for &ti in &instants {
        match t.covering_tick(ti) {
            Some(ans) if ans == g.covering_tick(ti) => {}
            _ => return false,
        }
    }

    // Random + exception ticks: intervals must match bit for bit.
    let mut ticks: Vec<Tick> = Vec::with_capacity(TICK_PROBES + 64);
    for _ in 0..TICK_PROBES {
        ticks.push(rng.range(t.tick_lo, t.tick_hi));
    }
    ticks.extend([t.tick_lo, t.tick_hi]);
    if let Some(e) = &t.exc {
        let count = (e.last_tick - e.first_tick + 1).max(0);
        if count > 0 {
            for _ in 0..64.min(count) {
                ticks.push(rng.range(e.first_tick, e.last_tick));
            }
            ticks.extend([e.first_tick, e.last_tick, e.first_tick - 1, e.last_tick + 1]);
        }
    }
    for &z in &ticks {
        if !(t.tick_lo..=t.tick_hi).contains(&z) {
            continue;
        }
        let Some(set) = t.tick_intervals(z) else {
            return false;
        };
        match g.tick_intervals(z) {
            Some(raw) if raw == set => {}
            _ => return false,
        }
    }

    // next_tick_at_or_after: wherever the table answers, it must agree.
    for _ in 0..NEXT_PROBES {
        let ti = rng.range(t.dom_lo, t.dom_hi);
        if let Some(ans) = t.next_tick_at_or_after(ti) {
            if ans != g.next_tick_at_or_after(ti) {
                return false;
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// CompiledView — Granularity adapter sharing a Gran handle's compiled cell
// ---------------------------------------------------------------------------

/// Queries a handle must see before compilation is worth triggering:
/// short-lived handles (tests constructing throwaway calendars) never pay
/// the compile cost, while any hot-path consumer crosses the threshold in
/// microseconds. [`Gran::compiled`](crate::Gran::compiled) forces
/// compilation regardless.
const COMPILE_AFTER_USES: u64 = 64;

/// Shared compile state of one granularity handle: the once-compiled table
/// plus the warm-up use counter.
#[derive(Debug, Default)]
pub(crate) struct CompiledState {
    cell: OnceLock<Option<Arc<PeriodicTable>>>,
    warmup: AtomicU64,
}

impl CompiledState {
    /// Compiles now (if not yet attempted) and returns the table.
    pub(crate) fn force(&self, raw: &dyn Granularity) -> Option<&Arc<PeriodicTable>> {
        self.cell.get_or_init(|| compile(raw).map(Arc::new)).as_ref()
    }

    /// Counts one use; compiles once the handle has seen
    /// [`COMPILE_AFTER_USES`] queries.
    #[inline]
    pub(crate) fn note_use(&self, raw: &dyn Granularity) -> Option<&Arc<PeriodicTable>> {
        if let Some(outcome) = self.cell.get() {
            return outcome.as_ref();
        }
        if self.warmup.fetch_add(1, Ordering::Relaxed) < COMPILE_AFTER_USES {
            return None;
        }
        self.force(raw)
    }
}

/// A raw granularity in front of its lazily compiled table: the one
/// table-else-raw dispatch. Every [`Gran`](crate::Gran) handle owns one,
/// and its [`SizeTable`](crate::SizeTable) holds a clone sharing the same
/// compile state, so both resolve through the same compiled fast path.
#[derive(Debug, Clone)]
pub(crate) struct CompiledView {
    raw: Arc<dyn Granularity>,
    cell: Arc<CompiledState>,
}

/// Wraps a raw granularity in a fresh [`CompiledView`] with its own cell —
/// the building block grouped granularities use for their sampling
/// stand-ins ([`Granularity::periodic_accel`]).
pub(crate) fn accel_view(raw: Arc<dyn Granularity>) -> Arc<dyn Granularity> {
    let view = CompiledView::new(raw);
    // Sampling stand-ins exist only to make full-period walks closed-form:
    // compile the child eagerly instead of counting warm-up uses.
    view.cell.force(view.raw.as_ref());
    Arc::new(view)
}

impl CompiledView {
    pub(crate) fn new(raw: Arc<dyn Granularity>) -> Self {
        CompiledView {
            raw,
            cell: Arc::new(CompiledState::default()),
        }
    }

    /// The raw implementation behind the table.
    pub(crate) fn raw(&self) -> &dyn Granularity {
        self.raw.as_ref()
    }

    /// The compiled table, compiling it now regardless of the warm-up
    /// count. `None` when the fast path is disabled or compilation failed.
    pub(crate) fn compiled(&self) -> Option<Arc<PeriodicTable>> {
        if !enabled() {
            return None;
        }
        self.cell.force(self.raw.as_ref()).cloned()
    }

    /// The compiled table once warmed up (counting this query as a use).
    #[inline]
    pub(crate) fn table(&self) -> Option<&Arc<PeriodicTable>> {
        if !enabled() {
            return None;
        }
        self.cell.note_use(self.raw.as_ref())
    }
}

impl Granularity for CompiledView {
    fn name(&self) -> &str {
        self.raw.name()
    }
    #[inline]
    fn covering_tick(&self, t: Second) -> Option<Tick> {
        if let Some(tb) = self.table() {
            if let Some(ans) = tb.covering_tick(t) {
                return ans;
            }
        }
        self.raw.covering_tick(t)
    }
    #[inline]
    fn tick_intervals(&self, z: Tick) -> Option<IntervalSet> {
        if let Some(tb) = self.table() {
            if let Some(set) = tb.tick_intervals(z) {
                return Some(set);
            }
        }
        self.raw.tick_intervals(z)
    }
    fn has_gaps(&self) -> bool {
        self.raw.has_gaps()
    }
    fn exact_sizes(&self, k: u64) -> Option<crate::size_table::SizeBounds> {
        self.raw.exact_sizes(k)
    }
    fn scan_window(&self, k: u64) -> (Tick, Tick) {
        self.raw.scan_window(k)
    }
    #[inline]
    fn next_tick_at_or_after(&self, t: Second) -> Option<Tick> {
        if let Some(tb) = self.table() {
            if let Some(ans) = tb.next_tick_at_or_after(t) {
                return ans;
            }
        }
        self.raw.next_tick_at_or_after(t)
    }
    fn periodic_hint(&self) -> Option<PeriodicHint> {
        self.raw.periodic_hint()
    }
    fn periodic_accel(&self) -> Option<Arc<dyn Granularity>> {
        self.raw.periodic_accel()
    }
}
