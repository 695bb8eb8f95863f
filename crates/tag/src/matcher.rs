//! NFA-simulation matching of TAGs over event sequences (Theorem 4).
//!
//! Following the classical NDFA pattern-matching technique (AHU74), the
//! matcher advances a *frontier* of configurations `(state, clock resets)`
//! per input event, deduplicating configurations. Clock state is stored as
//! the covering tick of the clock's granularity at its last reset; the
//! reading at an event with timestamp `t` is `⌈t⌉μ − reset`, undefined when
//! either side is undefined (see the crate docs for the gap semantics).
//!
//! # One engine
//!
//! A [`Matcher`] compiles its TAG into a one-member *lane* of the lane
//! engine in [`multi`](crate::MultiMatcher) — the only forward simulation
//! in the crate. [`run`](Matcher::run), [`run_in`](Matcher::run_in),
//! [`accepts`](Matcher::accepts) and
//! [`matches_within`](Matcher::matches_within) replay their input through a
//! [`MatchSession`](crate::MatchSession) holding that lane, so a batch run
//! *is* a replayed stream; [`MultiMatcher`](crate::MultiMatcher) advances
//! many lanes with the same per-event step. A frontier is one flat `i64`
//! buffer of packed reset rows (stride = number of clocks, `i64::MIN`
//! encoding an undefined reset) plus one packed state/started word per
//! configuration, deduplicated in place by [`dedup_tail`] — no
//! per-configuration heap objects. Every buffer lives in a
//! [`MatcherScratch`] passed through a [`RunCtx`], so repeated runs
//! allocate nothing once the scratch is warm.
//!
//! [`find_occurrence`](Matcher::find_occurrence) keeps its own search over
//! a back-pointer arena (the only caller that needs provenance), built on
//! the same deduplication helper. The per-`Config` engine of the
//! `*_reference` methods is independent of all of this: it is the
//! differential oracle and the E6 engine ablation. Both engines always
//! saturate; the unsaturated semantics is pinned by an oracle in
//! `tests/unsaturated_oracle.rs`.

use std::collections::HashSet;
use std::sync::Arc;

use tgm_events::{Event, TickColumns};
use tgm_granularity::{Granularity, Second, Tick};
use tgm_limits::{Interrupt, Limits, Verdict};
use tgm_obs::metrics::{self, Histogram};
use tgm_obs::{Observable, ObsValue};

use crate::automaton::{StateId, Tag, Transition};
use crate::constraint::ClockId;
use crate::multi::{Lane, LaneScratch};
use crate::session::MatchSession;

/// Matching options.
///
/// The struct is `#[non_exhaustive]`: construct it through
/// [`MatchOptions::default`] or [`MatchOptions::builder`] so adding a knob
/// is never a breaking change for downstream call sites.
#[derive(Clone, Copy, Debug, Default)]
#[non_exhaustive]
pub struct MatchOptions {
    /// Anchored matching: skip transitions are disallowed until the first
    /// pattern transition has fired, so the pattern's root must match the
    /// *first* event of the input. Used by the miner, which starts one
    /// automaton per reference-event occurrence (§5).
    pub anchored: bool,
    /// The paper's strict clock-update semantics: a configuration dies on
    /// any event not covered by *every* clock granularity (instead of the
    /// default lazy semantics where only guards consulting such clocks
    /// fail).
    pub strict_updates: bool,
}

impl MatchOptions {
    /// A builder starting from the defaults (lazy, unanchored).
    pub fn builder() -> MatchOptionsBuilder {
        MatchOptionsBuilder::default()
    }

    /// A builder seeded from this value, for tweaking individual knobs.
    pub fn to_builder(self) -> MatchOptionsBuilder {
        MatchOptionsBuilder(self)
    }
}

/// Builder for [`MatchOptions`]; every knob defaults to
/// [`MatchOptions::default`].
///
/// ```
/// use tgm_tag::MatchOptions;
/// let opts = MatchOptions::builder().anchored(true).build();
/// assert!(opts.anchored && !opts.strict_updates);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct MatchOptionsBuilder(MatchOptions);

impl MatchOptionsBuilder {
    /// Sets [`MatchOptions::anchored`].
    pub fn anchored(mut self, on: bool) -> Self {
        self.0.anchored = on;
        self
    }

    /// Sets [`MatchOptions::strict_updates`].
    pub fn strict_updates(mut self, on: bool) -> Self {
        self.0.strict_updates = on;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> MatchOptions {
        self.0
    }
}

/// Instrumentation counters from a matcher run (the quantities of the
/// Theorem 4 complexity bound).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Events consumed.
    pub events: usize,
    /// Peak frontier size (distinct configurations).
    pub peak_configs: usize,
    /// Total configuration expansions.
    pub expansions: u64,
    /// Successor configurations rejected by the per-event frontier
    /// deduplication (expansions that produced an already-present
    /// configuration). Counted identically by both engines.
    pub dedup_hits: u64,
    /// Whether an accepting configuration was reached.
    pub accepted: bool,
}

impl Observable for RunStats {
    fn observe(&self, out: &mut Vec<(&'static str, ObsValue)>) {
        out.push(("events", self.events.into()));
        out.push(("peak_configs", self.peak_configs.into()));
        out.push(("expansions", self.expansions.into()));
        out.push(("dedup_hits", self.dedup_hits.into()));
        out.push(("accepted", self.accepted.into()));
    }
}

/// The outcome of a bounded matcher run: the stats accumulated up to the
/// point the run finished or was interrupted, plus the verdict.
///
/// On [`Verdict::Interrupted`] the stats cover the prefix of events the
/// run actually consumed; `stats.accepted` is whatever had been
/// established by then (an interrupted run never *retracts* an
/// early-exit acceptance — acceptance wins over interruption at the same
/// event).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundedRun {
    /// Counters for the consumed prefix (everything, when completed).
    pub stats: RunStats,
    /// Whether the run finished, and if not, why it stopped.
    pub verdict: Verdict,
}

impl BoundedRun {
    /// The answer of an early-exit (prefix acceptance) run: `Err` when the
    /// run was interrupted before an acceptance was established; an
    /// acceptance reached first still counts.
    pub fn acceptance(&self) -> Result<bool, Interrupt> {
        match self.verdict.interrupt() {
            Some(i) if !self.stats.accepted => Err(i),
            _ => Ok(self.stats.accepted),
        }
    }
}

/// Short class name of an interrupt, used to tag flight-recorder events.
#[doc(hidden)]
pub fn interrupt_class(i: Interrupt) -> &'static str {
    match i {
        Interrupt::DeadlineExceeded => "deadline",
        Interrupt::BudgetExhausted => "budget",
        Interrupt::Cancelled => "cancelled",
    }
}

/// Emits the `limits.*` interruption counters for an engine that stopped
/// early (shared by the matcher and the miner), and dumps the current
/// scope's flight-recorder ring (if it has one) so the interrupt ships
/// with its last-N-events context. Call only when metrics are enabled
/// for the surrounding call-site.
#[doc(hidden)]
pub fn count_interrupt(i: Interrupt) {
    match i {
        Interrupt::DeadlineExceeded => metrics::counter_add("limits.deadline_hit", 1),
        Interrupt::BudgetExhausted => metrics::counter_add("limits.budget_hit", 1),
        Interrupt::Cancelled => metrics::counter_add("limits.cancelled", 1),
    }
    tgm_obs::recorder::interrupt("bounded_run", interrupt_class(i));
}

/// The interrupt observer wired into [`tgm_limits::hook`]: every non-`Ok`
/// limits verdict, detected by whichever engine polled it, lands in the
/// current scope's flight ring and triggers a dump.
fn obs_interrupt_observer(i: Interrupt) {
    tgm_obs::recorder::interrupt("limits.check", interrupt_class(i));
}

/// Installs [`obs_interrupt_observer`] once per process; called from the
/// engine constructors so any code path that builds a matcher or session
/// gets verdict→recorder coverage without an explicit init step.
pub(crate) fn ensure_interrupt_observer() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| tgm_limits::hook::set_interrupt_observer(obs_interrupt_observer));
}

/// Records the largest constant each clock is compared against.
pub(crate) fn collect_guard_consts(guard: &crate::constraint::ClockConstraint, out: &mut [i64]) {
    use crate::constraint::ClockConstraint as C;
    match guard {
        C::True => {}
        C::Le(x, k) | C::Ge(x, k) => out[x.index()] = out[x.index()].max(*k),
        C::And(cs) | C::Or(cs) => {
            for c in cs {
                collect_guard_consts(c, out);
            }
        }
        C::Not(c) => collect_guard_consts(c, out),
    }
}

// ---------------------------------------------------------------------------
// Packed configuration encoding
// ---------------------------------------------------------------------------

/// Packed encoding of an undefined reset (`None::<Tick>`). Valid ticks are
/// small epoch-anchored indices, far from `i64::MIN`.
pub(crate) const NONE_TICK: i64 = i64::MIN;

#[inline]
pub(crate) fn pack_tick(t: Option<Tick>) -> i64 {
    t.unwrap_or(NONE_TICK)
}

/// The canonical saturated reset `cur - cap - 1`, computed without
/// overflow and clamped one above [`NONE_TICK`] so a defined reset can
/// never collide with the undefined encoding. Used identically by both
/// engines so saturated rows stay bit-comparable.
#[inline]
pub(crate) fn saturate_reset(cur: i64, cap: i64) -> i64 {
    cur.saturating_sub(cap)
        .saturating_sub(1)
        .max(NONE_TICK + 1)
}

/// Saturates packed clock resets whose readings exceed their clock's cap:
/// the canonical representative keeps the reading exactly one past the
/// cap. Clocks undefined at `ticks` (or never reset) are left alone.
///
/// All arithmetic is saturating: near-`i64` extremes a reading past
/// every guard constant stays past every guard constant, and the
/// representative is clamped away from the [`NONE_TICK`] encoding
/// (mirrored exactly in the reference engine's `canonicalize`).
#[inline]
pub(crate) fn saturate_row(row: &mut [i64], ticks: &[i64], caps: &[i64]) {
    for (x, r) in row.iter_mut().enumerate() {
        let cur = ticks[x];
        if cur != NONE_TICK && *r != NONE_TICK && cur.saturating_sub(*r) > caps[x] {
            *r = saturate_reset(cur, caps[x]);
        }
    }
}

/// Whether `tr`'s guard holds for a configuration with reset row `row` at
/// an event with tick row `ticks` (an undefined reading fails its atom).
#[inline]
pub(crate) fn guard_holds(tr: &Transition, ticks: &[i64], row: &[i64]) -> bool {
    let value = |x: ClockId| -> Option<i64> {
        let (cur, res) = (ticks[x.index()], row[x.index()]);
        (cur != NONE_TICK && res != NONE_TICK).then(|| cur.saturating_sub(res))
    };
    tr.guard.eval(&value) == Some(true)
}

#[inline]
pub(crate) fn pack_meta(state: StateId, started: bool) -> u64 {
    ((state.index() as u64) << 1) | u64::from(started)
}

#[inline]
pub(crate) fn meta_state(m: u64) -> StateId {
    StateId((m >> 1) as usize)
}

#[inline]
pub(crate) fn meta_started(m: u64) -> bool {
    m & 1 == 1
}

/// FxHash-style mix over a packed configuration (meta word + reset row).
#[inline]
fn hash_row(meta: u64, row: &[i64]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (meta ^ 0xA076_1D64_78BD_642F).wrapping_mul(K);
    for &w in row {
        h ^= w as u64;
        h = h.wrapping_mul(K);
        h ^= h >> 32;
    }
    h
}

const EMPTY_SLOT: u64 = u64::MAX;

/// Open-addressing index table used to deduplicate packed configurations
/// in place. Slots store `(generation << 32) | config_index`; clearing is
/// O(1) by bumping the generation, so one table serves every event of
/// every run without re-zeroing (the standard timestamped-hash-table
/// trick). Keys live in the caller's row pool — the table only compares
/// via callbacks, so nothing is ever cloned. Starts empty: the first
/// insert allocates.
#[derive(Default)]
pub(crate) struct DedupTable {
    slots: Vec<u64>,
    gen: u32,
    len: usize,
}

impl DedupTable {
    /// Invalidates every entry in O(1) (generation bump).
    pub(crate) fn reset(&mut self) {
        self.len = 0;
        // `EMPTY_SLOT` carries generation u32::MAX: never reach it.
        if self.gen >= u32::MAX - 1 {
            self.gen = 0;
            self.slots.fill(EMPTY_SLOT);
        } else {
            self.gen += 1;
        }
    }

    #[inline]
    fn live(&self, slot: u64) -> Option<u32> {
        if slot != EMPTY_SLOT && (slot >> 32) as u32 == self.gen {
            Some(slot as u32)
        } else {
            None
        }
    }

    /// Inserts `idx` under `hash` unless an equal entry exists; `eq(j)`
    /// compares against previously inserted index `j`, `hash_of(j)`
    /// re-hashes it (used only when the table grows). Returns the equal
    /// entry, or `None` when `idx` was inserted.
    fn insert(
        &mut self,
        hash: u64,
        idx: u32,
        eq: impl Fn(u32) -> bool,
        hash_of: impl Fn(u32) -> u64,
    ) -> Option<u32> {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow(&hash_of);
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            match self.live(self.slots[i]) {
                None => {
                    self.slots[i] = ((self.gen as u64) << 32) | u64::from(idx);
                    self.len += 1;
                    return None;
                }
                Some(j) if eq(j) => return Some(j),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Doubles capacity, re-inserting the current generation's entries.
    /// Allocates only while growing past the historical maximum.
    fn grow(&mut self, hash_of: &impl Fn(u32) -> u64) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; new_cap]);
        let mask = new_cap - 1;
        for s in old {
            if s != EMPTY_SLOT && (s >> 32) as u32 == self.gen {
                let mut i = (hash_of(s as u32) as usize) & mask;
                while self.slots[i] != EMPTY_SLOT {
                    i = (i + 1) & mask;
                }
                self.slots[i] = s;
            }
        }
    }
}

/// Deduplicates the reset row the caller staged at the tail of `rows`
/// (its last `n` words) under meta word `m`, against the rows `table`
/// holds from this generation. A new row is kept (`m` is pushed to `meta`)
/// and `None` returned; a duplicate is un-staged and the index of the
/// equal row returned. Every frontier build — seeding, advancing,
/// eviction, the lane engine and the provenance arena — goes through
/// here. Requires `rows.len() == (meta.len() + 1) * n`.
pub(crate) fn dedup_tail(
    table: &mut DedupTable,
    meta: &mut Vec<u64>,
    rows: &mut Vec<i64>,
    n: usize,
    m: u64,
) -> Option<usize> {
    let idx = meta.len();
    debug_assert_eq!(rows.len(), (idx + 1) * n);
    let (done, staged) = rows.split_at(idx * n);
    let fm: &[u64] = meta;
    let row = |j: u32| &done[j as usize * n..(j as usize + 1) * n];
    let hit = table.insert(
        hash_row(m, staged),
        idx as u32,
        |j| fm[j as usize] == m && row(j) == staged,
        |j| hash_row(fm[j as usize], row(j)),
    );
    match hit {
        None => meta.push(m),
        Some(_) => rows.truncate(idx * n),
    }
    hit.map(|j| j as usize)
}

/// Provenance of one arena configuration in
/// [`find_occurrence`](Matcher::find_occurrence): parent index, consuming
/// event, and whether the consuming transition was a pattern transition.
struct Prov {
    parent: u32,
    event: u32,
    pattern: bool,
}

/// Reusable buffers for matcher runs — the one scratch type of the crate.
///
/// It holds one buffer set per lane of the lane engine (a [`Matcher`] or
/// [`MatchSession`](crate::MatchSession) uses the first; a
/// [`MultiMatcher`](crate::MultiMatcher) one per lane) and the
/// back-pointer arena of [`Matcher::find_occurrence_in`]. Repeated runs —
/// in particular the miner's one-anchored-run-per-reference-occurrence
/// sweeps — reuse the grown capacity and allocate nothing.
///
/// A scratch is not tied to a particular TAG: buffers are (re)sized at the
/// start of each run, so one scratch may serve matchers of different TAGs
/// in sequence.
#[derive(Default)]
pub struct MatcherScratch {
    pub(crate) lanes: Vec<LaneScratch>,
    // `find_occurrence` arena (configurations with provenance).
    arena_meta: Vec<u64>,
    arena_rows: Vec<i64>,
    arena_prov: Vec<Prov>,
    fr_idx: Vec<u32>,
    nx_idx: Vec<u32>,
}

impl MatcherScratch {
    /// An empty scratch; buffers grow on first use and are kept across
    /// runs.
    pub fn new() -> Self {
        MatcherScratch::default()
    }

    /// The buffers of the first `k` lanes, growing the lane list if needed.
    pub(crate) fn lanes(&mut self, k: usize) -> &mut [LaneScratch] {
        if self.lanes.len() < k {
            self.lanes.resize_with(k, LaneScratch::default);
        }
        &mut self.lanes[..k]
    }
}

/// The context of one `_in` run ([`Matcher::run_in`],
/// [`Matcher::find_occurrence_in`],
/// [`MultiMatcher::run_in`](crate::MultiMatcher::run_in)): the reused
/// scratch plus the optional inputs.
pub struct RunCtx<'c> {
    /// Buffers reused across runs.
    pub scratch: &'c mut MatcherScratch,
    /// Pre-resolved covering ticks: the run's events are the rows
    /// `offset..offset + events.len()` of the slice the columns were built
    /// over. Clocks whose granularity has no column fall back to direct
    /// resolution, so results never depend on the column set.
    pub cols: Option<(&'c TickColumns, usize)>,
    /// Cancellation and the deadline are polled before each event; the
    /// budget caps frontier rows (the Theorem 4 space measure). With
    /// [`Limits::none`] a run is bit-identical to an unbounded one.
    pub limits: Option<&'c Limits>,
}

impl<'c> RunCtx<'c> {
    /// A context over `scratch`: direct tick resolution, no limits.
    pub fn new(scratch: &'c mut MatcherScratch) -> Self {
        RunCtx {
            scratch,
            cols: None,
            limits: None,
        }
    }

    /// Panics unless the columns cover `len` events from the offset.
    pub(crate) fn check_columns(&self, len: usize) {
        if let Some((cols, offset)) = self.cols {
            assert!(
                offset + len <= cols.len(),
                "event slice [{offset}, {}) exceeds the {} column rows",
                offset + len,
                cols.len()
            );
        }
    }
}

/// A reusable matcher for one TAG.
///
/// Cloning is cheap (the compiled lane is shared), which is how the batch
/// entry points hand the engine to a per-run
/// [`MatchSession`](crate::MatchSession) without allocating.
#[derive(Clone)]
pub struct Matcher<'a> {
    pub(crate) tag: &'a Tag,
    pub(crate) opts: MatchOptions,
    /// The TAG compiled as a one-member lane. Its `max_consts` holds, per
    /// clock, the largest constant the clock is compared against in any
    /// guard: readings beyond it are indistinguishable now and forever
    /// (readings only grow between resets), so every staged configuration
    /// is canonicalized by saturating such resets — this is what keeps the
    /// frontier bounded by `(|V|·K)^p` instead of `|σ|` (Theorem 4).
    pub(crate) lane: Arc<Lane>,
}

impl<'a> Matcher<'a> {
    /// A matcher with default (lazy, unanchored) options.
    pub fn new(tag: &'a Tag) -> Self {
        Self::with_options(tag, MatchOptions::default())
    }

    /// A matcher with explicit options.
    pub fn with_options(tag: &'a Tag, opts: MatchOptions) -> Self {
        ensure_interrupt_observer();
        Matcher {
            tag,
            opts,
            lane: Arc::new(Lane::single(tag, opts)),
        }
    }

    /// Whether the TAG has an accepting run over the *entire* sequence.
    pub fn accepts(&self, events: &[Event]) -> bool {
        self.run(events, false).accepted
    }

    /// Whether some *prefix* of the sequence is accepted — equivalently,
    /// whether an occurrence completes at any point. (For TAGs with skip
    /// loops on accepting states — all constructed TAGs — this coincides
    /// with [`accepts`](Self::accepts) but exits early.)
    pub fn matches_within(&self, events: &[Event]) -> bool {
        self.run(events, true).accepted
    }

    /// Full run with instrumentation. `early_exit` stops at the first
    /// accepting configuration. Allocates a fresh scratch; hot callers
    /// should use [`run_in`](Self::run_in).
    pub fn run(&self, events: &[Event], early_exit: bool) -> RunStats {
        self.run_in(events, early_exit, &mut RunCtx::new(&mut MatcherScratch::new()))
            .stats
    }

    /// [`run`](Self::run) in a [`RunCtx`]: the scratch is reused (no
    /// steady-state allocation), clock ticks are read from the context's
    /// columns when present, and the context's [`Limits`] are polled
    /// between events, returning partial [`RunStats`] plus a [`Verdict`]
    /// instead of running away.
    ///
    /// The run replays `events` through a
    /// [`MatchSession`](crate::MatchSession), wrapped in the
    /// `tag.matcher.run` span and `tag.matcher.*` metrics (a per-event
    /// frontier histogram accumulated locally and merged once per run).
    /// Nothing is emitted (and no clock is read) while observability is
    /// disabled, and emission never feeds back into results.
    pub fn run_in(&self, events: &[Event], early_exit: bool, ctx: &mut RunCtx<'_>) -> BoundedRun {
        let _span = tgm_obs::span::span("tag.matcher.run");
        let hist = tgm_obs::enabled().then(Histogram::new);
        let (run, hist) = self.replay(events, early_exit, ctx, hist);
        if let Some(hist) = &hist {
            let stats = run.stats;
            metrics::counter_add("tag.matcher.runs", 1);
            metrics::counter_add("tag.matcher.events", stats.events as u64);
            metrics::counter_add("tag.matcher.expansions", stats.expansions);
            metrics::counter_add("tag.matcher.dedup_hits", stats.dedup_hits);
            metrics::counter_add("tag.matcher.accepted", u64::from(stats.accepted));
            metrics::histogram_merge("tag.matcher.frontier", hist);
            metrics::histogram_record("tag.matcher.peak_frontier", stats.peak_configs as u64);
            // Pool high-water mark: grown capacity of the packed row
            // buffers this run left behind in the scratch.
            let pool = ctx.scratch.lanes.first();
            let pool = pool.map_or(0, |ls| ls.rows.capacity() + ls.next_rows.capacity());
            metrics::histogram_record("tag.matcher.pool_rows_high_water", pool as u64);
            if let Some(i) = run.verdict.interrupt() {
                count_interrupt(i);
            }
        }
        run
    }

    /// The simulation behind [`run_in`](Self::run_in): construct a session
    /// (donating the context's scratch), push every event, read the
    /// verdict back out. `hist`, when present, collects the post-advance
    /// frontier size at every event.
    fn replay(
        &self,
        events: &[Event],
        early_exit: bool,
        ctx: &mut RunCtx<'_>,
        hist: Option<Histogram>,
    ) -> (BoundedRun, Option<Histogram>) {
        let done = |accepted| BoundedRun {
            stats: RunStats {
                accepted,
                ..RunStats::default()
            },
            verdict: Verdict::Completed,
        };
        // Empty input: accepted iff a start state is accepting.
        if events.is_empty() {
            return (done(self.lane.start_accepting), hist);
        }
        tgm_limits::fail::point("tag.matcher.run", ctx.limits);
        // Early exit before any event is consumed: the seeded frontier is
        // exactly the start states, so length-0 prefix acceptance is a
        // start-state scan.
        if early_exit && self.lane.start_accepting {
            return (done(true), hist);
        }
        ctx.check_columns(events.len());
        let scratch = std::mem::take(&mut *ctx.scratch);
        let mut session = MatchSession::for_batch(self, scratch, ctx.limits.cloned(), hist);
        if let Some((cols, _)) = ctx.cols {
            session.bind_batch_columns(cols);
        }
        let mut run = None;
        for (i, e) in events.iter().enumerate() {
            let row = ctx.cols.map(|(cols, offset)| (cols, offset + i));
            // Acceptance wins over a same-event budget trip.
            if session.advance(e, row).completed() && early_exit {
                let mut stats = session.raw_stats();
                stats.accepted = true;
                run = Some(BoundedRun {
                    stats,
                    verdict: Verdict::Completed,
                });
                break;
            }
            if session.interrupted().is_some() || session.is_dead() {
                break;
            }
        }
        let run = run.unwrap_or_else(|| session.outcome());
        let (scratch, hist) = session.into_parts();
        *ctx.scratch = scratch;
        (run, hist)
    }

    /// Finds one occurrence and returns the indices (into `events`) of the
    /// events consumed by *pattern* transitions, in consumption order — the
    /// witness events of the complex event. `None` if no occurrence exists.
    ///
    /// Unlike [`accepts`](Self::accepts), this tracks back-pointers through
    /// the configuration graph, so it uses memory proportional to the
    /// number of distinct configurations created.
    pub fn find_occurrence(&self, events: &[Event]) -> Option<Vec<usize>> {
        // The Err arm is unreachable without limits.
        self.find_occurrence_in(events, &mut RunCtx::new(&mut MatcherScratch::new()))
            .unwrap_or_default()
    }

    /// [`find_occurrence`](Self::find_occurrence) in a [`RunCtx`]: the
    /// configuration arena, frontier index lists and tick row reuse the
    /// scratch's capacity, ticks come from the context's columns when
    /// present, and the context's [`Limits`] are polled between events
    /// with the row budget capping the back-pointer arena. `Err` when
    /// interrupted before the search concluded.
    pub fn find_occurrence_in(
        &self,
        events: &[Event],
        ctx: &mut RunCtx<'_>,
    ) -> Result<Option<Vec<usize>>, Interrupt> {
        let _span = tgm_obs::span::span("tag.matcher.find_occurrence");
        let out = self.find_occurrence_loop(events, ctx);
        if tgm_obs::enabled() {
            metrics::counter_add("tag.matcher.find_occurrence_runs", 1);
            metrics::counter_add(
                "tag.matcher.find_occurrence_hits",
                u64::from(matches!(&out, Ok(Some(_)))),
            );
            // Back-pointer arena growth — the memory cost find_occurrence
            // pays over plain acceptance runs.
            metrics::histogram_record(
                "tag.matcher.find_arena_configs",
                ctx.scratch.arena_meta.len() as u64,
            );
            if let Err(i) = &out {
                count_interrupt(*i);
            }
        }
        out
    }

    /// The uninstrumented search behind
    /// [`find_occurrence_in`](Self::find_occurrence_in).
    fn find_occurrence_loop(
        &self,
        events: &[Event],
        ctx: &mut RunCtx<'_>,
    ) -> Result<Option<Vec<usize>>, Interrupt> {
        if events.is_empty() {
            return Ok(None);
        }
        ctx.check_columns(events.len());
        let n = self.tag.clocks.len();
        let caps = &self.lane.max_consts[..];
        let (cols, limits) = (ctx.cols, ctx.limits);
        let row_of = |i: usize| cols.map(|(cols, offset)| (cols, offset + i));
        let MatcherScratch {
            lanes,
            arena_meta,
            arena_rows,
            arena_prov,
            fr_idx,
            nx_idx,
        } = &mut *ctx.scratch;
        if lanes.is_empty() {
            lanes.push(LaneScratch::default());
        }
        let ls = &mut lanes[0];
        arena_meta.clear();
        arena_rows.clear();
        arena_prov.clear();
        fr_idx.clear();
        if let Some((cols, _)) = cols {
            ls.bind_columns(self.tag, cols);
        }

        // Initial configurations: clocks read 0 at the first instant.
        ls.fill_ticks(self.tag, &events[0], row_of(0));
        ls.table.reset();
        for &s in self.tag.start_states() {
            let idx = arena_meta.len() as u32;
            arena_rows.extend_from_slice(&ls.ticks);
            if dedup_tail(&mut ls.table, arena_meta, arena_rows, n, pack_meta(s, false)).is_none() {
                arena_prov.push(Prov {
                    parent: u32::MAX,
                    event: u32::MAX,
                    pattern: false,
                });
                fr_idx.push(idx);
            }
        }

        for (eidx, e) in events.iter().enumerate() {
            if let Some(l) = limits {
                l.check()?;
            }
            ls.fill_ticks(self.tag, e, row_of(eidx));
            let ticks = &ls.ticks;
            if self.opts.strict_updates && ticks.contains(&NONE_TICK) {
                return Ok(None);
            }
            nx_idx.clear();
            ls.table.reset();
            for &node in fr_idx.iter() {
                let m = arena_meta[node as usize];
                let (state, started) = (meta_state(m), meta_started(m));
                let row_start = node as usize * n;
                for tr in self.tag.transitions_from(state) {
                    if !tr.symbol.matches(e.ty)
                        || (self.opts.anchored && !started && tr.is_skip)
                        || !guard_holds(tr, ticks, &arena_rows[row_start..row_start + n])
                    {
                        continue;
                    }
                    if self.tag.is_accepting(tr.to) && !tr.is_skip {
                        // Backtrack through pattern transitions.
                        let mut out = vec![eidx];
                        let mut cur = node;
                        while cur != u32::MAX {
                            let p = &arena_prov[cur as usize];
                            if p.pattern {
                                out.push(p.event as usize);
                            }
                            cur = p.parent;
                        }
                        out.reverse();
                        return Ok(Some(out));
                    }
                    // Stage the successor at the arena tail; keep it only
                    // if it is new among this event's configurations (the
                    // reference engine's per-event dedup scope).
                    let idx = arena_meta.len() as u32;
                    arena_rows.extend_from_within(row_start..row_start + n);
                    let staged = &mut arena_rows[idx as usize * n..];
                    for &x in &tr.resets {
                        staged[x.index()] = ticks[x.index()];
                    }
                    saturate_row(staged, ticks, caps);
                    let nm = pack_meta(tr.to, started || !tr.is_skip);
                    if dedup_tail(&mut ls.table, arena_meta, arena_rows, n, nm).is_none() {
                        arena_prov.push(Prov {
                            parent: node,
                            event: eidx as u32,
                            pattern: !tr.is_skip,
                        });
                        nx_idx.push(idx);
                    }
                }
            }
            std::mem::swap(fr_idx, nx_idx);
            if fr_idx.is_empty() {
                return Ok(None);
            }
            // Row budget: the back-pointer arena holds every configuration
            // ever created this search.
            if let Some(l) = limits {
                if l.budget_exceeded(arena_meta.len() as u64) {
                    return Err(Interrupt::BudgetExhausted);
                }
            }
        }
        Ok(None)
    }

    pub(crate) fn clock_tick(&self, x: ClockId, t: Second) -> Option<Tick> {
        self.tag.clocks[x.index()].1.covering_tick(t)
    }
}

// ---------------------------------------------------------------------------
// Reference engine (pre-packed-representation), kept for differential
// testing and the E6 engine ablation
// ---------------------------------------------------------------------------

#[derive(Clone, PartialEq, Eq, Hash)]
struct Config {
    state: StateId,
    started: bool,
    /// Covering tick of each clock's granularity at its last reset.
    resets: Vec<Option<Tick>>,
}

impl<'a> Matcher<'a> {
    /// Option-based variant of `saturate_row` for the reference engine.
    fn canonicalize(&self, resets: &mut [Option<Tick>], cur_ticks: &[Option<Tick>]) {
        for (x, r) in resets.iter_mut().enumerate() {
            if let (Some(cur), Some(res)) = (cur_ticks[x], *r) {
                let cap = self.lane.max_consts[x];
                if cur.saturating_sub(res) > cap {
                    *r = Some(saturate_reset(cur, cap));
                }
            }
        }
    }

    /// The pre-packed-engine [`run`](Self::run): one `Vec<Option<Tick>>`
    /// per configuration, frontier deduplicated by cloning into a
    /// `HashSet`. Produces bit-identical [`RunStats`] to the lane engine
    /// (asserted by differential tests); exists for those tests and for the
    /// E6 engine ablation.
    pub fn run_reference(&self, events: &[Event], early_exit: bool) -> RunStats {
        self.run_reference_core(events, early_exit, None).stats
    }

    /// [`run_reference`](Self::run_reference) under [`Limits`]: polls and
    /// budget-caps at exactly the same points as
    /// [`run_in`](Self::run_in) under limits, so bounded runs of the two
    /// engines interrupt identically (differentially tested).
    pub fn run_reference_bounded(
        &self,
        events: &[Event],
        early_exit: bool,
        limits: &Limits,
    ) -> BoundedRun {
        self.run_reference_core(events, early_exit, Some(limits))
    }

    fn run_reference_core(
        &self,
        events: &[Event],
        early_exit: bool,
        limits: Option<&Limits>,
    ) -> BoundedRun {
        self.run_core_reference(
            events,
            early_exit,
            |_, e| {
                (0..self.tag.clocks.len())
                    .map(|i| self.clock_tick(ClockId(i), e.time))
                    .collect()
            },
            limits,
        )
    }

    /// Column-reading variant of [`run_reference`](Self::run_reference).
    pub fn run_columns_reference(
        &self,
        events: &[Event],
        cols: &TickColumns,
        offset: usize,
        early_exit: bool,
    ) -> RunStats {
        assert!(
            offset + events.len() <= cols.len(),
            "event slice [{offset}, {}) exceeds the {} column rows",
            offset + events.len(),
            cols.len()
        );
        let clock_cols: Vec<Option<usize>> = self
            .tag
            .clocks
            .iter()
            .map(|(_, g)| cols.index_of(g))
            .collect();
        self.run_core_reference(
            events,
            early_exit,
            |i, e| {
                clock_cols
                    .iter()
                    .enumerate()
                    .map(|(x, c)| match c {
                        Some(c) => cols.tick(*c, offset + i),
                        None => self.clock_tick(ClockId(x), e.time),
                    })
                    .collect()
            },
            None,
        )
        .stats
    }

    /// Per-event completion oracle on the reference engine: the indices
    /// of events at which some occurrence *completes* (a pattern
    /// transition into an accepting state fires). These are exactly the
    /// completion events a [`MatchSession`](crate::MatchSession) reports
    /// while replaying the sequence, computed by an independent engine —
    /// the session differential and eviction-soundness tests compare
    /// against this.
    pub fn completions_reference(&self, events: &[Event]) -> Vec<usize> {
        let mut out = Vec::new();
        if events.is_empty() {
            return out;
        }
        let mut stats = RunStats::default();
        let mut frontier = self.initial_frontier_reference(events[0].time);
        for (i, e) in events.iter().enumerate() {
            let cur_ticks: Vec<Option<Tick>> = (0..self.tag.clocks.len())
                .map(|x| self.clock_tick(ClockId(x), e.time))
                .collect();
            let (next, reached) =
                self.advance_with_reference(&frontier, e, &cur_ticks, &mut stats);
            frontier = next;
            if reached {
                out.push(i);
            }
            if frontier.is_empty() {
                break;
            }
        }
        out
    }

    /// The pre-packed-engine
    /// [`find_occurrence`](Self::find_occurrence), kept to pin witness
    /// indices: the provenance arena must return exactly the same occurrence.
    pub fn find_occurrence_reference(&self, events: &[Event]) -> Option<Vec<usize>> {
        if events.is_empty() {
            return None;
        }
        // Arena of configurations with provenance: (config, parent index,
        // event index, was-pattern-transition).
        struct Node {
            cfg: Config,
            parent: usize, // usize::MAX for roots
            event: usize,
            pattern: bool,
        }
        let mut arena: Vec<Node> = Vec::new();
        let mut frontier: Vec<usize> = Vec::new();
        for cfg in self.initial_frontier_reference(events[0].time) {
            arena.push(Node {
                cfg,
                parent: usize::MAX,
                event: usize::MAX,
                pattern: false,
            });
            frontier.push(arena.len() - 1);
        }
        let n_clocks = self.tag.clocks.len();
        for (eidx, e) in events.iter().enumerate() {
            let cur_ticks: Vec<Option<Tick>> = (0..n_clocks)
                .map(|i| self.clock_tick(ClockId(i), e.time))
                .collect();
            if self.opts.strict_updates && cur_ticks.iter().any(Option::is_none) {
                return None;
            }
            let mut next: Vec<usize> = Vec::new();
            let mut seen: HashSet<Config> = HashSet::new();
            for &node_idx in &frontier {
                let cfg = arena[node_idx].cfg.clone();
                for tr in self.tag.transitions_from(cfg.state) {
                    if !tr.symbol.matches(e.ty) {
                        continue;
                    }
                    if self.opts.anchored && !cfg.started && tr.is_skip {
                        continue;
                    }
                    let value = |x: ClockId| -> Option<i64> {
                        match (cur_ticks[x.index()], cfg.resets[x.index()]) {
                            (Some(cur), Some(reset)) => Some(cur.saturating_sub(reset)),
                            _ => None,
                        }
                    };
                    if tr.guard.eval(&value) != Some(true) {
                        continue;
                    }
                    let mut resets = cfg.resets.clone();
                    for &x in &tr.resets {
                        resets[x.index()] = cur_ticks[x.index()];
                    }
                    self.canonicalize(&mut resets, &cur_ticks);
                    let nc = Config {
                        state: tr.to,
                        started: cfg.started || !tr.is_skip,
                        resets,
                    };
                    if self.tag.is_accepting(nc.state) && !tr.is_skip {
                        // Backtrack through pattern transitions.
                        let mut out = vec![eidx];
                        let mut cur = node_idx;
                        while cur != usize::MAX {
                            let node = &arena[cur];
                            if node.pattern {
                                out.push(node.event);
                            }
                            cur = node.parent;
                        }
                        out.reverse();
                        return Some(out);
                    }
                    if seen.insert(nc.clone()) {
                        arena.push(Node {
                            cfg: nc,
                            parent: node_idx,
                            event: eidx,
                            pattern: !tr.is_skip,
                        });
                        next.push(arena.len() - 1);
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                return None;
            }
        }
        None
    }

    /// Initial configurations, with clocks reading 0 at instant `t0`.
    fn initial_frontier_reference(&self, t0: Second) -> Vec<Config> {
        let init_resets: Vec<Option<Tick>> = (0..self.tag.clocks.len())
            .map(|i| self.clock_tick(ClockId(i), t0))
            .collect();
        self.initial_frontier_with_reference(init_resets)
    }

    /// Initial configurations from pre-resolved clock ticks at the first
    /// instant.
    fn initial_frontier_with_reference(&self, init_resets: Vec<Option<Tick>>) -> Vec<Config> {
        let mut seen: HashSet<Config> = HashSet::new();
        let mut frontier = Vec::new();
        for &s in self.tag.start_states() {
            let c = Config {
                state: s,
                started: false,
                resets: init_resets.clone(),
            };
            if seen.insert(c.clone()) {
                frontier.push(c);
            }
        }
        frontier
    }

    /// Advances the reference frontier by one event given its pre-resolved
    /// clock ticks. Returns the next frontier and whether any *newly
    /// created* configuration is accepting.
    fn advance_with_reference(
        &self,
        frontier: &[Config],
        e: &Event,
        cur_ticks: &[Option<Tick>],
        stats: &mut RunStats,
    ) -> (Vec<Config>, bool) {
        stats.events += 1;
        let strict_dead = self.opts.strict_updates && cur_ticks.iter().any(Option::is_none);
        let mut next: Vec<Config> = Vec::new();
        let mut next_seen: HashSet<Config> = HashSet::new();
        let mut reached_accepting = false;
        if !strict_dead {
            for cfg in frontier {
                for tr in self.tag.transitions_from(cfg.state) {
                    if !tr.symbol.matches(e.ty) {
                        continue;
                    }
                    if self.opts.anchored && !cfg.started && tr.is_skip {
                        continue;
                    }
                    let value = |x: ClockId| -> Option<i64> {
                        match (cur_ticks[x.index()], cfg.resets[x.index()]) {
                            (Some(cur), Some(reset)) => Some(cur.saturating_sub(reset)),
                            _ => None,
                        }
                    };
                    if tr.guard.eval(&value) != Some(true) {
                        continue;
                    }
                    stats.expansions += 1;
                    let mut resets = cfg.resets.clone();
                    for &x in &tr.resets {
                        resets[x.index()] = cur_ticks[x.index()];
                    }
                    self.canonicalize(&mut resets, cur_ticks);
                    let nc = Config {
                        state: tr.to,
                        started: cfg.started || !tr.is_skip,
                        resets,
                    };
                    if self.tag.is_accepting(nc.state) && !tr.is_skip {
                        reached_accepting = true;
                    }
                    if next_seen.insert(nc.clone()) {
                        next.push(nc);
                    } else {
                        stats.dedup_hits += 1;
                    }
                }
            }
        }
        stats.peak_configs = stats.peak_configs.max(next.len());
        (next, reached_accepting)
    }

    /// The reference NFA simulation, parameterized over how each event's
    /// clock ticks are obtained.
    fn run_core_reference(
        &self,
        events: &[Event],
        early_exit: bool,
        mut ticks_at: impl FnMut(usize, &Event) -> Vec<Option<Tick>>,
        limits: Option<&Limits>,
    ) -> BoundedRun {
        let mut stats = RunStats::default();

        // Empty input: accepted iff a start state is accepting.
        if events.is_empty() {
            stats.accepted = self
                .tag
                .start_states()
                .iter()
                .any(|&s| self.tag.is_accepting(s));
            return BoundedRun {
                stats,
                verdict: Verdict::Completed,
            };
        }

        let mut frontier = self.initial_frontier_with_reference(ticks_at(0, &events[0]));
        if early_exit && frontier.iter().any(|c| self.tag.is_accepting(c.state)) {
            stats.accepted = true;
            return BoundedRun {
                stats,
                verdict: Verdict::Completed,
            };
        }

        for (i, e) in events.iter().enumerate() {
            // Same poll points as the lane engine's replay.
            if let Some(l) = limits {
                if let Err(int) = l.check() {
                    return BoundedRun {
                        stats,
                        verdict: int.into(),
                    };
                }
            }
            let cur_ticks = ticks_at(i, e);
            let (next, reached_accepting) =
                self.advance_with_reference(&frontier, e, &cur_ticks, &mut stats);
            frontier = next;
            if early_exit && reached_accepting {
                stats.accepted = true;
                return BoundedRun {
                    stats,
                    verdict: Verdict::Completed,
                };
            }
            if frontier.is_empty() {
                break;
            }
            if let Some(l) = limits {
                if l.budget_exceeded(stats.peak_configs as u64) {
                    return BoundedRun {
                        stats,
                        verdict: Interrupt::BudgetExhausted.into(),
                    };
                }
            }
        }
        stats.accepted = frontier.iter().any(|c| self.tag.is_accepting(c.state));
        BoundedRun {
            stats,
            verdict: Verdict::Completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use tgm_events::{Event, EventType};
    use tgm_granularity::Calendar;

    use super::*;
    use crate::automaton::{Symbol, TagBuilder};
    use crate::constraint::ClockConstraint;

    const DAY: i64 = 86_400;

    fn ev(ty: u32, t: i64) -> Event {
        Event::new(EventType(ty), t)
    }

    /// A tiny hand-built TAG: accept "A then B on the next day".
    fn next_day_tag() -> crate::Tag {
        let cal = Calendar::standard();
        let mut b = TagBuilder::new();
        let x = b.clock("x_day", cal.get("day").unwrap());
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        let s2 = b.state("s2");
        b.start(s0).accepting(s2);
        b.transition(s0, s1, Symbol::Exact(EventType(0)), ClockConstraint::True, vec![x]);
        b.transition(s1, s2, Symbol::Exact(EventType(1)), ClockConstraint::eq(x, 1), vec![]);
        b.skip_loop(s0);
        b.skip_loop(s1);
        b.skip_loop(s2);
        b.build()
    }

    #[test]
    fn accepts_next_day_pattern() {
        let tag = next_day_tag();
        let m = Matcher::new(&tag);
        // A at day 2 noon, B at day 3 morning.
        let seq = [ev(0, 2 * DAY + 43_200), ev(1, 3 * DAY + 3_600)];
        assert!(m.accepts(&seq));
        assert!(m.matches_within(&seq));
        // Same day: reject.
        let seq2 = [ev(0, 2 * DAY + 3_600), ev(1, 2 * DAY + 43_200)];
        assert!(!m.accepts(&seq2));
        // Two days later: reject.
        let seq3 = [ev(0, 2 * DAY), ev(1, 4 * DAY)];
        assert!(!m.accepts(&seq3));
    }

    #[test]
    fn skips_noise_events() {
        let tag = next_day_tag();
        let m = Matcher::new(&tag);
        let seq = [
            ev(7, 2 * DAY),
            ev(0, 2 * DAY + 100),
            ev(9, 2 * DAY + 200),
            ev(1, 3 * DAY + 100),
            ev(7, 3 * DAY + 200),
        ];
        assert!(m.accepts(&seq));
    }

    #[test]
    fn anchored_requires_root_first() {
        let tag = next_day_tag();
        let anchored = Matcher::with_options(
            &tag,
            MatchOptions {
                anchored: true,
                ..Default::default()
            },
        );
        // Noise before A: anchored matching must fail...
        let seq = [ev(7, 2 * DAY), ev(0, 2 * DAY + 100), ev(1, 3 * DAY)];
        assert!(!anchored.accepts(&seq));
        // ...but succeeds when A is first.
        let seq2 = [ev(0, 2 * DAY + 100), ev(7, 2 * DAY + 200), ev(1, 3 * DAY)];
        assert!(anchored.accepts(&seq2));
    }

    #[test]
    fn nondeterministic_choice_of_a() {
        // Two As: the second one pairs with B on the next day.
        let tag = next_day_tag();
        let m = Matcher::new(&tag);
        let seq = [ev(0, 0), ev(0, 2 * DAY), ev(1, 3 * DAY)];
        assert!(m.accepts(&seq));
    }

    #[test]
    fn strict_updates_kill_on_gaps() {
        let cal = Calendar::standard();
        let mut b = TagBuilder::new();
        let x = b.clock("x_bday", cal.get("business-day").unwrap());
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        let s2 = b.state("s2");
        b.start(s0).accepting(s2);
        b.transition(s0, s1, Symbol::Exact(EventType(0)), ClockConstraint::True, vec![x]);
        b.transition(s1, s2, Symbol::Exact(EventType(1)), ClockConstraint::eq(x, 1), vec![]);
        b.skip_loop(s0);
        b.skip_loop(s1);
        b.skip_loop(s2);
        let tag = b.build();

        // A on Monday (day 2), noise on Saturday (day 7), B next Monday:
        // b-day distance Monday->Monday is 5, so no match either way, but
        // A Thursday(5)->B Friday(6) with Saturday noise in between:
        let seq = [ev(0, 5 * DAY), ev(9, 7 * DAY + 100), ev(1, 8 * DAY)];
        // Wait: day 5 is Thursday 2000-01-06, day 6 Friday, day 7 Saturday,
        // day 8 Sunday. Use Friday -> Monday instead:
        let seq2 = [ev(0, 6 * DAY), ev(9, 7 * DAY + 100), ev(1, 9 * DAY)];
        let lazy = Matcher::new(&tag);
        // Lazy semantics: the Saturday noise is skippable.
        assert!(lazy.accepts(&seq2));
        let strict = Matcher::with_options(
            &tag,
            MatchOptions {
                strict_updates: true,
                ..Default::default()
            },
        );
        // Strict semantics (paper): the Saturday event has no business-day
        // tick, killing every run.
        assert!(!strict.accepts(&seq2));
        // Without weekend noise both agree.
        let clean = [ev(0, 6 * DAY), ev(1, 9 * DAY)];
        assert!(lazy.accepts(&clean));
        assert!(strict.accepts(&clean));
        let _ = seq;
    }

    #[test]
    fn empty_sequence() {
        let tag = next_day_tag();
        let m = Matcher::new(&tag);
        assert!(!m.accepts(&[]));
    }

    #[test]
    fn column_runs_agree_with_direct_runs() {
        use tgm_events::TickColumns;
        let tag = next_day_tag();
        let m = Matcher::new(&tag);
        let grans: Vec<_> = tag.clocks().iter().map(|(_, g)| g.clone()).collect();
        let seqs: Vec<Vec<Event>> = vec![
            vec![ev(0, 2 * DAY + 43_200), ev(1, 3 * DAY + 3_600)], // accept
            vec![ev(0, 2 * DAY), ev(1, 2 * DAY + 100)],            // same day
            vec![ev(7, 2 * DAY), ev(0, 2 * DAY + 1), ev(1, 3 * DAY)], // noise
            vec![ev(0, 0), ev(0, 2 * DAY), ev(1, 3 * DAY)],        // nondet
        ];
        let mut scratch = MatcherScratch::new();
        let mut run_cols = |slice: &[Event], cols: &TickColumns, start: usize, early: bool| {
            let mut ctx = RunCtx {
                cols: Some((cols, start)),
                ..RunCtx::new(&mut scratch)
            };
            m.run_in(slice, early, &mut ctx).stats
        };
        for events in &seqs {
            let cols = TickColumns::build(events, &grans);
            for start in 0..events.len() {
                let slice = &events[start..];
                assert_eq!(m.run(slice, false), run_cols(slice, &cols, start, false));
                assert_eq!(m.run(slice, true), run_cols(slice, &cols, start, true));
            }
        }
        // Clocks without a column fall back to direct resolution.
        let empty_cols = TickColumns::build(&seqs[0], &[]);
        assert!(run_cols(&seqs[0], &empty_cols, 0, false).accepted);
    }

    #[test]
    fn stats_reported() {
        let tag = next_day_tag();
        let m = Matcher::new(&tag);
        let seq = [ev(0, 2 * DAY), ev(1, 3 * DAY)];
        let stats = m.run(&seq, false);
        assert!(stats.accepted);
        assert_eq!(stats.events, 2);
        assert!(stats.peak_configs >= 1);
        assert!(stats.expansions >= 2);
    }

    #[test]
    fn scratch_reuse_across_runs_and_tags() {
        let tag = next_day_tag();
        let m = Matcher::new(&tag);
        let mut scratch = MatcherScratch::new();
        let seqs = [
            vec![ev(0, 2 * DAY), ev(1, 3 * DAY)],
            vec![ev(0, 2 * DAY), ev(1, 4 * DAY)],
            vec![ev(7, 2 * DAY), ev(0, 2 * DAY + 1), ev(1, 3 * DAY)],
        ];
        for seq in &seqs {
            let fresh = m.run(seq, false);
            let reused = m.run_in(seq, false, &mut RunCtx::new(&mut scratch)).stats;
            assert_eq!(fresh, reused);
        }
        // The same scratch serves a different TAG (different clock count).
        let cal = Calendar::standard();
        let mut b = TagBuilder::new();
        let x = b.clock("x_day", cal.get("day").unwrap());
        let y = b.clock("x_week", cal.get("week").unwrap());
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.start(s0).accepting(s1);
        b.transition(
            s0,
            s1,
            Symbol::Exact(EventType(1)),
            ClockConstraint::And(vec![ClockConstraint::eq(x, 1), ClockConstraint::Le(y, 1)]),
            vec![],
        );
        b.skip_loop(s0);
        let tag2 = b.build();
        let m2 = Matcher::new(&tag2);
        let seq = [ev(0, 2 * DAY), ev(1, 3 * DAY)];
        assert_eq!(
            m2.run(&seq, false),
            m2.run_in(&seq, false, &mut RunCtx::new(&mut scratch)).stats
        );
    }

    #[test]
    fn find_occurrence_witness_pinned() {
        // Regression: the provenance arena must report exactly the same witness
        // indices as the reference engine, with noise interleaved and a
        // nondeterministic earlier A that cannot complete.
        let tag = next_day_tag();
        let m = Matcher::new(&tag);
        let seq = [
            ev(7, 0),             // noise
            ev(0, 2 * DAY),       // A (this one completes)
            ev(9, 2 * DAY + 50),  // noise
            ev(1, 3 * DAY),       // B, next day
            ev(1, 5 * DAY),       // late B
        ];
        let got = m.find_occurrence(&seq);
        assert_eq!(got, Some(vec![1, 3]));
        assert_eq!(got, m.find_occurrence_reference(&seq));
        // No occurrence.
        let seq2 = [ev(0, 2 * DAY), ev(1, 4 * DAY)];
        assert_eq!(m.find_occurrence(&seq2), None);
        assert_eq!(m.find_occurrence_reference(&seq2), None);
        // Scratch reuse returns the same witness.
        let mut scratch = MatcherScratch::new();
        let mut ctx = RunCtx::new(&mut scratch);
        assert_eq!(m.find_occurrence_in(&seq, &mut ctx), Ok(Some(vec![1, 3])));
        assert_eq!(m.find_occurrence_in(&seq2, &mut ctx), Ok(None));
    }

    /// All four `MatchOptions` combinations.
    fn all_option_combos() -> Vec<MatchOptions> {
        let mut out = Vec::new();
        for bits in 0..4u32 {
            out.push(MatchOptions {
                anchored: bits & 1 != 0,
                strict_updates: bits & 2 != 0,
            });
        }
        out
    }

    /// A business-day TAG (gapped granularity) for strict-semantics tests.
    fn bday_tag() -> crate::Tag {
        let cal = Calendar::standard();
        let mut b = TagBuilder::new();
        let x = b.clock("x_bday", cal.get("business-day").unwrap());
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        let s2 = b.state("s2");
        b.start(s0).accepting(s2);
        b.transition(s0, s1, Symbol::Exact(EventType(0)), ClockConstraint::True, vec![x]);
        b.transition(s1, s2, Symbol::Exact(EventType(1)), ClockConstraint::eq(x, 1), vec![]);
        b.skip_loop(s0);
        b.skip_loop(s1);
        b.skip_loop(s2);
        b.build()
    }

    #[test]
    fn strict_updates_parity_between_run_and_find_occurrence() {
        // Pinned semantics: for TAGs whose start states are NOT accepting
        // (every constructed TAG — an occurrence needs at least one pattern
        // transition), `find_occurrence` succeeds iff `matches_within`
        // accepts, under every option combination — including strict
        // updates over sequences with gap (weekend) events, where both
        // treat the first uncovered event as killing every run.
        //
        // Day 6 = Friday, day 7 = Saturday (gap), day 9 = Monday.
        let sequences: Vec<Vec<Event>> = vec![
            vec![ev(0, 6 * DAY), ev(9, 7 * DAY + 100), ev(1, 9 * DAY)], // gap noise
            vec![ev(0, 6 * DAY), ev(1, 9 * DAY)],                       // clean
            vec![ev(9, 7 * DAY), ev(0, 9 * DAY), ev(1, 10 * DAY)],     // gap first
            vec![ev(0, 7 * DAY), ev(1, 9 * DAY)],                       // A in gap
            vec![ev(0, 6 * DAY)],                                       // incomplete
        ];
        let tag = bday_tag();
        for opts in all_option_combos() {
            let m = Matcher::with_options(&tag, opts);
            for (i, seq) in sequences.iter().enumerate() {
                let within = m.matches_within(seq);
                let occ = m.find_occurrence(seq);
                assert_eq!(
                    occ.is_some(),
                    within,
                    "opts {opts:?}, sequence {i}: find_occurrence/matches_within parity"
                );
                // And the reference engine pins the same semantics.
                assert_eq!(occ, m.find_occurrence_reference(seq), "opts {opts:?}, seq {i}");
            }
        }
    }

    #[test]
    fn strict_updates_accepting_start_divergence_pinned() {
        // The one intended divergence: a TAG whose start state is already
        // accepting (empty pattern). `matches_within` accepts before
        // consuming any event, while `find_occurrence` requires a
        // completing pattern transition and returns None — even under
        // strict updates where the gap event would kill the run.
        let cal = Calendar::standard();
        let mut b = TagBuilder::new();
        let _x = b.clock("x_bday", cal.get("business-day").unwrap());
        let s0 = b.state("s0");
        b.start(s0).accepting(s0);
        b.skip_loop(s0);
        let tag = b.build();
        let gap_only = [ev(0, 7 * DAY)]; // Saturday: no business-day tick
        for opts in all_option_combos() {
            let m = Matcher::with_options(&tag, opts);
            assert!(m.matches_within(&gap_only), "opts {opts:?}");
            assert_eq!(m.find_occurrence(&gap_only), None, "opts {opts:?}");
            // Full-sequence acceptance differs from prefix acceptance when
            // the run cannot consume the gap event: strict updates kill it,
            // and anchored matching forbids the pre-start skip loop.
            let full = m.run(&gap_only, false).accepted;
            assert_eq!(
                full,
                !opts.strict_updates && !opts.anchored,
                "opts {opts:?}"
            );
            // Reference engine: identical on all of the above.
            assert_eq!(m.run_reference(&gap_only, false), m.run(&gap_only, false));
            assert_eq!(m.run_reference(&gap_only, true), m.run(&gap_only, true));
        }
    }
}
