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
//! the same deduplication helper. Both always saturate. Two independent
//! oracles live in the crate's tests: a per-`Config` reference engine
//! (`tests/common/reference.rs`) pins `RunStats` and witnesses bit for
//! bit, and `tests/unsaturated_oracle.rs` pins saturation and the paper's
//! strict clock updates on pre-filtered input.

use std::sync::Arc;

use tgm_events::{Event, TickColumns};
use tgm_granularity::Tick;
use tgm_limits::{Interrupt, Limits, Verdict};
use tgm_obs::metrics::{self, Histogram};
use tgm_obs::{Observable, ObsValue};

use crate::automaton::{StateId, Tag, Transition};
use crate::constraint::ClockId;
use crate::multi::{Lane, LaneScratch};
use crate::session::MatchSession;

/// Matching options.
///
/// Clock updates are always *lazy* (see the crate docs):
/// [`MatchOptions::default`] is unanchored matching, used by sessions, the
/// CLI and the server; the miner sets `anchored`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MatchOptions {
    /// Anchored matching: skip transitions are disallowed until the first
    /// pattern transition has fired, so the pattern's root must match the
    /// *first* event of the input. Used by the miner, which starts one
    /// automaton per reference-event occurrence (§5).
    pub anchored: bool,
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
/// never collide with the undefined encoding. The reference engine in the
/// crate's tests repeats this formula, so saturated rows stay
/// bit-comparable.
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
/// representative is clamped away from the [`NONE_TICK`] encoding.
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
        let anchored = Matcher::with_options(&tag, MatchOptions { anchored: true });
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
        // Regression: the provenance arena reports the completing A's
        // witness, with noise interleaved and a nondeterministic earlier A
        // that cannot complete.
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
        // No occurrence.
        let seq2 = [ev(0, 2 * DAY), ev(1, 4 * DAY)];
        assert_eq!(m.find_occurrence(&seq2), None);
        // Scratch reuse returns the same witness.
        let mut scratch = MatcherScratch::new();
        let mut ctx = RunCtx::new(&mut scratch);
        assert_eq!(m.find_occurrence_in(&seq, &mut ctx), Ok(Some(vec![1, 3])));
        assert_eq!(m.find_occurrence_in(&seq2, &mut ctx), Ok(None));
    }

    /// A business-day TAG (gapped granularity): A, then B one business
    /// day later.
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
    fn find_occurrence_parity_with_matches_within() {
        // For TAGs whose start states are not accepting (every constructed
        // TAG), `find_occurrence` succeeds iff `matches_within` accepts,
        // anchored or not, over sequences with gap (weekend) events: lazy
        // updates let a gap event be skipped, never consulted.
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
        let lazy = Matcher::new(&tag);
        assert!(lazy.accepts(&sequences[0]), "the Saturday noise is skippable");
        for anchored in [false, true] {
            let m = Matcher::with_options(&tag, MatchOptions { anchored });
            for (i, seq) in sequences.iter().enumerate() {
                assert_eq!(
                    m.find_occurrence(seq).is_some(),
                    m.matches_within(seq),
                    "anchored {anchored}, sequence {i}"
                );
            }
        }
    }

    #[test]
    fn accepting_start_divergence_pinned() {
        // The one intended divergence: a TAG whose start state is already
        // accepting (empty pattern). `matches_within` accepts before
        // consuming any event, while `find_occurrence` requires a
        // completing pattern transition and returns None.
        let cal = Calendar::standard();
        let mut b = TagBuilder::new();
        let _x = b.clock("x_bday", cal.get("business-day").unwrap());
        let s0 = b.state("s0");
        b.start(s0).accepting(s0);
        b.skip_loop(s0);
        let tag = b.build();
        let gap_only = [ev(0, 7 * DAY)]; // Saturday: no business-day tick
        for anchored in [false, true] {
            let m = Matcher::with_options(&tag, MatchOptions { anchored });
            assert!(m.matches_within(&gap_only), "anchored {anchored}");
            assert_eq!(m.find_occurrence(&gap_only), None, "anchored {anchored}");
            // Full-sequence acceptance differs from prefix acceptance when
            // anchored matching forbids the pre-start skip loop.
            assert_eq!(m.run(&gap_only, false).accepted, !anchored);
        }
    }
}
