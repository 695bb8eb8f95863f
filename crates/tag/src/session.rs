//! Long-lived incremental matching sessions.
//!
//! A [`MatchSession`] drives one TAG's compiled one-member lane — the lane
//! engine of [`MultiMatcher`](crate::MultiMatcher), the crate's only
//! forward simulation (Theorem 4) — one event at a time via
//! [`push`](MatchSession::push) / [`push_batch`](MatchSession::push_batch).
//! Every batch entry point of [`Matcher`] (`run`, `run_in`,
//! `matches_within`, …) is a thin wrapper that constructs a session,
//! pushes the whole slice and reads the verdict back — a batch run *is* a
//! replayed stream, bit-identical in stats and occurrences (differentially
//! tested against the reference engine).
//!
//! # Completions
//!
//! An occurrence *completes* at an event when a pattern (non-skip)
//! transition into an accepting state fires. Completions are buffered and
//! drained through [`completed`](MatchSession::completed), so a monitoring
//! loop can push a batch and then react to everything that fired inside
//! it.
//!
//! # Horizon eviction
//!
//! A long-running session with [`with_eviction`](MatchSession::with_eviction)
//! periodically ages out frontier rows that can no longer influence any
//! future completion:
//!
//! * rows at states from which no accepting state is graph-reachable are
//!   dropped outright;
//! * each surviving row is re-canonicalized against the *per-state*
//!   residual guard constants: `fut[s][x]` is the largest constant clock
//!   `x` is compared against on any path from state `s` before `x` is
//!   reset (a location-based bounds fixpoint). A reading past `fut[s][x]`
//!   can never again satisfy a `≤`-window and always satisfies the `≥`
//!   side, so it is saturated to the canonical representative
//!   `fut[s][x] + 1` and merged with its duplicates.
//!
//! The pass runs deterministically in *event time*, never wall-clock: it
//! triggers when the stream has advanced past the session's **horizon** —
//! the largest `maxsize(μ, K+1)` over clocks (the [`SizeTable`] bound of
//! Theorem 4: once `maxsize(μ, K+1)` seconds elapse, the tick distance in
//! `μ` provably exceeds the largest guard constant `K`) — or when the
//! frontier doubles since the last pass. Eviction is sound for completions
//! (proptested under arbitrary push-chunking) but merges rows earlier than
//! plain saturation would, so [`RunStats`] counters like `peak_configs`
//! may differ from a batch run; the batch wrappers therefore never enable
//! it.
//!
//! [`SizeTable`]: tgm_granularity::SizeTable

use std::sync::Arc;

use tgm_events::{Event, TickColumns};
use tgm_granularity::Second;
use tgm_limits::{Interrupt, Limits, Verdict};
use tgm_obs::metrics::{self, Histogram};
use tgm_obs::{Observable, ObsScope, ObsValue, RecEvent};

use crate::automaton::Tag;
use crate::matcher::{
    collect_guard_consts, dedup_tail, meta_state, saturate_row, BoundedRun, MatchOptions, Matcher,
    MatcherScratch, RunStats, NONE_TICK,
};
use crate::multi::{Lane, LaneScratch, LaneState};

/// The outcome of pushing one event into a [`MatchSession`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub enum Push {
    /// The event was consumed; `completed` reports whether at least one
    /// occurrence completed at it.
    Advanced {
        /// Whether a pattern transition into an accepting state fired.
        completed: bool,
    },
    /// The event was *not* consumed: every configuration died earlier (a
    /// strict-updates gap, or an anchored frontier that ran out), so no
    /// future event can complete an occurrence. [`MatchSession::reset`]
    /// re-arms the session.
    Dead,
    /// The event was *not* consumed: the session was interrupted by its
    /// [`Limits`] (sticky — every later push reports the same interrupt).
    Interrupted(Interrupt),
}

impl Push {
    /// Whether an occurrence completed at this event.
    pub fn completed(&self) -> bool {
        matches!(self, Push::Advanced { completed: true })
    }
}

/// One completed occurrence, as observed by a [`MatchSession`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// 0-based index of the completing event in the session's stream
    /// (counting every pushed event since construction or
    /// [`reset`](MatchSession::reset)).
    pub index: u64,
    /// Timestamp of the completing event.
    pub at: Second,
}

/// Accumulated counters of a [`MatchSession`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Events consumed so far.
    pub events: usize,
    /// Events at which at least one occurrence completed.
    pub completions: u64,
    /// Current live frontier rows.
    pub frontier: usize,
    /// Peak frontier rows (post-advance, pre-eviction).
    pub peak_frontier: usize,
    /// Total configuration expansions.
    pub expansions: u64,
    /// Successors rejected by per-event deduplication.
    pub dedup_hits: u64,
    /// Frontier rows dropped or merged by horizon eviction passes.
    pub evicted_rows: u64,
    /// Eviction passes run.
    pub evictions: u64,
    /// Why the session stopped early, if it did.
    pub interrupted: Option<Interrupt>,
}

impl Observable for SessionStats {
    fn observe(&self, out: &mut Vec<(&'static str, ObsValue)>) {
        out.push(("events", self.events.into()));
        out.push(("completions", self.completions.into()));
        out.push(("frontier", self.frontier.into()));
        out.push(("peak_frontier", self.peak_frontier.into()));
        out.push(("expansions", self.expansions.into()));
        out.push(("dedup_hits", self.dedup_hits.into()));
        out.push(("evicted_rows", self.evicted_rows.into()));
        out.push(("evictions", self.evictions.into()));
    }
}

/// Precomputed eviction tables: accepting-state reachability plus the
/// per-state residual guard constants (see the module docs).
struct EvictionPlan {
    /// Per state: whether an accepting state is graph-reachable.
    can_accept: Vec<bool>,
    /// Per `state * n_clocks + clock`: the largest constant the clock is
    /// compared against on any path from the state before the clock is
    /// reset; `-1` when no such comparison exists (the reading is inert).
    fut_consts: Vec<i64>,
    /// Event-time horizon in seconds: the largest `maxsize(μ, K+1)` over
    /// clocks. `None` when the TAG has no clocks.
    horizon: Option<i64>,
    /// Evict when event time passes this point…
    next_at: Option<Second>,
    /// …or when the frontier reaches this many rows.
    watermark: usize,
}

/// Frontier rows below which growth-triggered eviction is not worth it.
const EVICT_MIN_WATERMARK: usize = 64;

impl EvictionPlan {
    fn new(tag: &Tag) -> Self {
        let n_states = tag.n_states();
        let n = tag.clocks().len();

        // Reverse reachability of accepting states over the transition
        // graph (symbols and guards over-approximated as satisfiable).
        let mut can_accept: Vec<bool> = (0..n_states)
            .map(|s| tag.is_accepting(crate::automaton::StateId(s)))
            .collect();
        loop {
            let mut changed = false;
            for s in 0..n_states {
                if can_accept[s] {
                    continue;
                }
                if tag
                    .transitions_from(crate::automaton::StateId(s))
                    .iter()
                    .any(|tr| can_accept[tr.to.index()])
                {
                    can_accept[s] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Location-based clock bounds fixpoint: fut[s][x] is the largest
        // constant x is compared against, reachable from s without an
        // intervening reset of x. Guards fire with pre-reset readings, so
        // a transition's own guard always counts; its target's residuals
        // count unless the transition resets x.
        let mut fut_consts = vec![-1i64; n_states * n.max(1)];
        if n > 0 {
            let mut local = vec![-1i64; n];
            let mut per_tr: Vec<(usize, usize, Vec<i64>, Vec<bool>)> = Vec::new();
            for s in 0..n_states {
                for tr in tag.transitions_from(crate::automaton::StateId(s)) {
                    local.iter_mut().for_each(|c| *c = -1);
                    // collect_guard_consts takes max against the slice, and
                    // every guard constant is >= 0, so -1 means "none".
                    collect_guard_consts(&tr.guard, &mut local);
                    let mut resets = vec![false; n];
                    for &x in &tr.resets {
                        resets[x.index()] = true;
                    }
                    per_tr.push((s, tr.to.index(), local.clone(), resets));
                }
            }
            loop {
                let mut changed = false;
                for (s, to, consts, resets) in &per_tr {
                    for x in 0..n {
                        let mut c = consts[x];
                        if !resets[x] {
                            c = c.max(fut_consts[to * n + x]);
                        }
                        if c > fut_consts[s * n + x] {
                            fut_consts[s * n + x] = c;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        // The Theorem 4 horizon: once maxsize(μ, K+1) seconds elapse, the
        // tick distance in μ provably exceeds K, the largest constant the
        // clock is ever compared against — every un-reset reading is then
        // saturated, so one pass per horizon keeps the frontier canonical.
        let mut global_consts = vec![0i64; n];
        for tr in tag.transitions() {
            collect_guard_consts(&tr.guard, &mut global_consts);
        }
        let horizon = tag
            .clocks()
            .iter()
            .zip(&global_consts)
            .map(|((_, g), &k)| g.sizes().max_size(k.saturating_add(1).max(1) as u64))
            .max();

        EvictionPlan {
            can_accept,
            fut_consts,
            horizon,
            next_at: None,
            watermark: EVICT_MIN_WATERMARK,
        }
    }

    /// The residual constants of `state`'s `n` clocks.
    fn residual(&self, state: usize, n: usize) -> &[i64] {
        &self.fut_consts[state * n..state * n + n]
    }
}


/// A suspended [`MatchSession`]: every piece of session state except the
/// borrow of the [`Tag`] — including the compiled lane and the pooled
/// scratch, so resuming recompiles and reallocates nothing.
///
/// `MatchSession<'a>` borrows its automaton, which makes it impossible to
/// store sessions next to the `Tag`s they run over (a self-referential
/// struct) — exactly what a server holding thousands of tenant sessions
/// needs to do. [`MatchSession::suspend`] tears a session into this owned,
/// `Send` value; [`MatchSession::resume`] reattaches it to the same
/// automaton and continues bit-identically (differentially tested against
/// an uninterrupted session). Resuming against a *different* automaton is
/// a contract violation; a cheap shape check (state/clock counts) panics
/// on obvious mismatches.
pub struct SessionState {
    /// The TAG compiled as a one-member lane (shared with the [`Matcher`]
    /// that spawned a batch session).
    lane: Arc<Lane>,
    /// Pooled buffers; the session's lane runs in `scratch.lanes[0]`.
    scratch: MatcherScratch,
    run: LaneState,
    limits: Option<Limits>,
    stats: RunStats,
    /// Sticky interrupt: set once, reported by every later push.
    interrupt: Option<Interrupt>,
    events_pushed: u64,
    completions: Vec<Completion>,
    total_completions: u64,
    evicted_rows: u64,
    evictions: u64,
    eviction: Option<EvictionPlan>,
    /// Per-event frontier histogram (metrics only). Batch wrappers thread
    /// their own through [`for_batch`](MatchSession::for_batch) and merge
    /// it under the historical `tag.matcher.*` names; sessions finalize it
    /// under `tag.session.frontier`.
    hist: Option<Histogram>,
    /// Scoped metric domain: when set, every emission block (the
    /// `session.push` span, eviction counters and recorder events, the
    /// finalize merge) runs with this scope entered, isolating the
    /// session's telemetry from the default registry and from other
    /// sessions on the same thread.
    scope: Option<ObsScope>,
    /// Emit a live-stats frame every this many events (see
    /// [`stats_due`](MatchSession::stats_due)).
    stats_every: Option<u64>,
    /// Events pushed when [`stats_due`](MatchSession::stats_due) last
    /// fired.
    last_stats_at: u64,
    /// Instance ids of the columns [`push_row`](MatchSession::push_row)
    /// last bound the lane's clock → column map to.
    col_ids: Vec<u64>,
}

impl SessionState {
    /// The options the suspended session was built with.
    pub fn options(&self) -> MatchOptions {
        self.lane.opts
    }

    /// Events consumed before suspension.
    pub fn events_pushed(&self) -> u64 {
        self.events_pushed
    }
}

/// A long-lived incremental matcher for one TAG: the engine behind every
/// batch entry point, usable directly for streams. The `session` module
/// docs describe the lifecycle and eviction semantics.
///
/// ```
/// use tgm_core::examples::{example_1, figure_1a_witness};
/// use tgm_events::{Event, TypeRegistry};
/// use tgm_granularity::Calendar;
/// use tgm_tag::{build_tag, MatchSession};
///
/// let cal = Calendar::standard();
/// let mut reg = TypeRegistry::new();
/// let (cet, tys) = example_1(&cal, &mut reg);
/// let tag = build_tag(&cet);
/// let mut session = MatchSession::new(&tag);
/// let w = figure_1a_witness();
/// assert!(!session.push(Event::new(tys.ibm_rise, w[0])).completed());
/// assert!(!session.push(Event::new(tys.ibm_report, w[1])).completed());
/// assert!(!session.push(Event::new(tys.hp_rise, w[2])).completed());
/// assert!(session.push(Event::new(tys.ibm_fall, w[3])).completed());
/// let fired: Vec<_> = session.completed().collect();
/// assert_eq!(fired.len(), 1);
/// assert_eq!(fired[0].index, 3);
/// assert_eq!(session.stats().completions, 1);
/// ```
pub struct MatchSession<'a> {
    tag: &'a Tag,
    s: SessionState,
}

impl<'a> MatchSession<'a> {
    /// A session with default options, no limits, eviction off.
    pub fn new(tag: &'a Tag) -> Self {
        Self::with_options(tag, MatchOptions::default())
    }

    /// A session with explicit options. Without
    /// [`with_eviction`](Self::with_eviction) the replayed stream is
    /// bit-identical to a batch [`Matcher::run`] over the same events.
    pub fn with_options(tag: &'a Tag, opts: MatchOptions) -> Self {
        let hist = opts.obs.metrics_on().then(Histogram::new);
        Self::for_batch(&Matcher::with_options(tag, opts), MatcherScratch::new(), None, hist)
    }

    /// A session running `matcher`'s compiled lane in the donated scratch
    /// (the batch entry points' constructor): externally owned histogram,
    /// eviction off.
    pub(crate) fn for_batch(
        matcher: &Matcher<'a>,
        mut scratch: MatcherScratch,
        limits: Option<Limits>,
        hist: Option<Histogram>,
    ) -> Self {
        // The session's lane runs in `lanes[0]`.
        scratch.lanes(1);
        MatchSession {
            tag: matcher.tag,
            s: SessionState {
                lane: Arc::clone(&matcher.lane),
                scratch,
                run: matcher.lane.start(),
                limits,
                stats: RunStats::default(),
                interrupt: None,
                events_pushed: 0,
                completions: Vec::new(),
                total_completions: 0,
                evicted_rows: 0,
                evictions: 0,
                eviction: None,
                hist,
                scope: None,
                stats_every: None,
                last_stats_at: 0,
                col_ids: Vec::new(),
            },
        }
    }

    /// Bounds the session: [`Limits::check`] is polled before each event
    /// and the frontier-row budget after each (budget unit = frontier
    /// rows, the Theorem 4 space measure). An interrupt is sticky; see
    /// [`Push::Interrupted`].
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.s.limits = Some(limits);
        self
    }

    /// Donates pooled scratch buffers (e.g. recovered from a previous
    /// session via [`finish`](Self::finish)), so steady-state pushes
    /// allocate nothing from the first event.
    pub fn with_scratch(mut self, mut scratch: MatcherScratch) -> Self {
        scratch.lanes(1);
        self.s.scratch = scratch;
        self
    }

    /// Enables deterministic horizon eviction (see the `session` module
    /// docs). Sound for completions under any push-chunking
    /// (proptested); [`RunStats`] counters may differ from a batch run.
    pub fn with_eviction(mut self) -> Self {
        self.s.eviction = Some(EvictionPlan::new(self.tag));
        self
    }

    /// Attaches a scoped metric domain: the session's spans, counters and
    /// flight-recorder events land in `scope` instead of the calling
    /// thread's current scope, so concurrent sessions (or a session and
    /// its host process) keep separate telemetry. The scope is entered
    /// only around emission blocks — results are unchanged (differential
    /// tests assert bit-identical runs with and without a scope).
    pub fn with_scope(mut self, scope: ObsScope) -> Self {
        self.s.scope = Some(scope);
        self
    }

    /// The attached scoped metric domain, if any.
    pub fn scope(&self) -> Option<&ObsScope> {
        self.s.scope.as_ref()
    }

    /// Arms the live-stats cadence: [`stats_due`](Self::stats_due)
    /// reports `true` once every `every` pushed events (`0` disarms).
    /// Pair with [`tgm_obs::Exporter`] to emit periodic delta frames —
    /// the `tgm stream --stats-every N` path.
    pub fn with_stats_every(mut self, every: u64) -> Self {
        self.s.stats_every = (every > 0).then_some(every);
        self
    }

    /// Whether a live-stats frame is due: `true` at most once per
    /// [`with_stats_every`](Self::with_stats_every) window, measured in
    /// pushed events (deterministic in the stream, never wall-clock).
    pub fn stats_due(&mut self) -> bool {
        let s = &mut self.s;
        match s.stats_every {
            Some(n) if s.events_pushed.saturating_sub(s.last_stats_at) >= n => {
                s.last_stats_at = s.events_pushed;
                true
            }
            _ => false,
        }
    }

    /// The session's lane buffers.
    fn lane(&self) -> &LaneScratch {
        &self.s.scratch.lanes[0]
    }

    /// The Theorem 4 watermark-lag gauge: over all live frontier rows and
    /// defined clock readings, the largest number of ticks a reading
    /// still has to age before it saturates at its horizon — the distance
    /// canonicalization waits out. A plain session saturates every
    /// reading at its clock's `K + 1`; an evicting one saturates a row at
    /// its state's residual constant `fut[s][x] + 1`, so that is its
    /// horizon, and a clock no guard from the row's state ever reads
    /// again (`fut = −1`) is inert and contributes 0. `0` means the whole
    /// frontier is saturated; `None` when the TAG has no clocks, the
    /// session is unseeded, or the frontier is empty. Monitoring loops
    /// export this as `watermark_lag`.
    pub fn watermark_lag(&self) -> Option<u64> {
        let n = self.s.lane.n_clocks;
        let ls = self.lane();
        if n == 0 || !self.s.run.seeded || ls.meta.is_empty() {
            return None;
        }
        let mut lag = 0u64;
        for (ci, &m) in ls.meta.iter().enumerate() {
            let caps = match &self.s.eviction {
                Some(plan) => plan.residual(meta_state(m).index(), n),
                None => &self.s.lane.max_consts[..],
            };
            for (x, &reset) in ls.rows[ci * n..ci * n + n].iter().enumerate() {
                let cur = ls.ticks[x];
                if reset == NONE_TICK || cur == NONE_TICK {
                    continue;
                }
                let elapsed = cur.saturating_sub(reset).max(0);
                let horizon = caps[x].saturating_add(1);
                lag = lag.max(horizon.saturating_sub(elapsed).max(0) as u64);
            }
        }
        Some(lag)
    }

    /// The Theorem 4 frontier bound `2·|V|·∏(Kₓ+3)` (states × started
    /// flag × canonical readings per clock: undefined, `0..=K`, and the
    /// saturated representative). With saturation on (the default) the
    /// live frontier never exceeds it, streamed or batch; the long-stream
    /// CI check asserts exactly this.
    pub fn frontier_bound(&self) -> u64 {
        let mut bound = (self.tag.n_states() as u64).saturating_mul(2);
        for &k in &self.s.lane.max_consts {
            bound = bound.saturating_mul((k.max(0) as u64).saturating_add(3));
        }
        bound
    }

    // -- push paths ---------------------------------------------------------

    /// Consumes one event (timestamps must be non-decreasing), resolving
    /// each clock's covering tick directly.
    pub fn push(&mut self, e: Event) -> Push {
        self.push_at(&e, None)
    }

    /// Pushes a slice of events, stopping at the first death or
    /// interrupt; returns how many events were consumed. Completions land
    /// in the [`completed`](Self::completed) drain. Emits one
    /// `session.push` span per call (never per event) when span
    /// observability is on.
    pub fn push_batch(&mut self, events: &[Event]) -> usize {
        let _scope = self.s.scope.as_ref().map(ObsScope::enter);
        let _span = tgm_obs::span::span_if(self.s.lane.opts.obs.spans, "session.push");
        let before = self.s.stats.events;
        for e in events {
            match self.push_at(e, None) {
                Push::Advanced { .. } => {}
                Push::Dead | Push::Interrupted(_) => break,
            }
        }
        let consumed = self.s.stats.events - before;
        if self.s.lane.opts.obs.metrics_on() {
            metrics::counter_add("tag.session.events", consumed as u64);
        }
        consumed
    }

    /// Like [`push`](Self::push), but the event's covering ticks are read
    /// from pre-resolved [`TickColumns`] at `row` (clocks without a
    /// column fall back to direct resolution). The columns may grow
    /// between pushes — pair this with
    /// [`TickColumns::append`](tgm_events::TickColumns::append) to
    /// resolve a live stream incrementally in chunks.
    pub fn push_row(&mut self, e: Event, cols: &TickColumns, row: usize) -> Push {
        assert!(row < cols.len(), "row {row} out of {} column rows", cols.len());
        // Rebind the clock → column map only when the column set changed
        // (cheap instance-id comparison per push).
        let ids = cols.granularities().iter().map(|g| g.instance_id());
        if self.s.col_ids.is_empty() || !ids.clone().eq(self.s.col_ids.iter().copied()) {
            self.s.col_ids.clear();
            self.s.col_ids.extend(ids);
            self.bind_batch_columns(cols);
        }
        self.push_at(&e, Some((cols, row)))
    }

    /// Binds the lane's clock → column map to `cols` for
    /// [`push_at`](Self::push_at) with column rows.
    pub(crate) fn bind_batch_columns(&mut self, cols: &TickColumns) {
        self.s.scratch.lanes[0].bind_columns(self.tag, cols);
    }

    /// The one push path: [`advance`](Self::advance), then the
    /// completion (if any) is buffered for [`completed`](Self::completed).
    pub(crate) fn push_at(&mut self, e: &Event, row: Option<(&TickColumns, usize)>) -> Push {
        let push = self.advance(e, row);
        if push.completed() {
            let index = self.s.events_pushed - 1;
            self.s.completions.push(Completion { index, at: e.time });
        }
        push
    }

    /// The pre-push gate (sticky interrupt, death, the cooperative limits
    /// poll), then one lane step reading column row `row` when given. The
    /// batch wrappers call this directly: they need the completion flag,
    /// not a buffer of completions.
    pub(crate) fn advance(&mut self, e: &Event, row: Option<(&TickColumns, usize)>) -> Push {
        if let Some(i) = self.s.interrupt {
            return Push::Interrupted(i);
        }
        if self.is_dead() {
            return Push::Dead;
        }
        if let Some(l) = &self.s.limits {
            if let Err(i) = l.check() {
                self.s.interrupt = Some(i);
                return Push::Interrupted(i);
            }
        }
        let s = &mut self.s;
        let ls = &mut s.scratch.lanes[0];
        let stats = std::slice::from_mut(&mut s.stats);
        let completed = s.lane.step(self.tag, ls, &mut s.run, stats, e, row, false) != 0;
        if let Some(h) = s.hist.as_mut() {
            h.record(ls.meta.len() as u64);
        }
        s.events_pushed += 1;
        s.total_completions += u64::from(completed);
        if s.eviction.is_some() && s.run.active != 0 {
            self.maybe_evict(e.time);
        }
        // Death before budget: a dead session has nothing left to cap.
        if !self.is_dead() {
            if let Some(l) = &self.s.limits {
                if l.budget_exceeded(self.s.stats.peak_configs as u64) {
                    self.s.interrupt = Some(Interrupt::BudgetExhausted);
                }
            }
        }
        Push::Advanced { completed }
    }

    // -- eviction -----------------------------------------------------------

    /// Runs the eviction pass when the event-time horizon has elapsed or
    /// the frontier doubled since the last pass (both deterministic in the
    /// pushed events).
    fn maybe_evict(&mut self, now: Second) {
        let frontier = self.lane().meta.len();
        let Some(plan) = &mut self.s.eviction else {
            return;
        };
        let time_due = match (plan.horizon, plan.next_at) {
            (Some(h), Some(at)) => {
                if now >= at {
                    plan.next_at = Some(now.saturating_add(h));
                    true
                } else {
                    false
                }
            }
            (Some(h), None) => {
                plan.next_at = Some(now.saturating_add(h));
                false
            }
            (None, _) => false,
        };
        if time_due || frontier >= plan.watermark {
            self.evict();
        }
    }

    /// One deterministic eviction pass: drop rows that cannot reach an
    /// accepting state, saturate each survivor against its state's
    /// residual guard constants, and merge the duplicates that creates.
    fn evict(&mut self) {
        let _scope = self.s.scope.as_ref().map(ObsScope::enter);
        let _span = tgm_obs::span::span_if(self.s.lane.opts.obs.spans, "session.evict");
        let s = &mut self.s;
        let Some(plan) = &mut s.eviction else {
            return;
        };
        let n = s.lane.n_clocks;
        let ls = &mut s.scratch.lanes[0];
        let before = ls.meta.len();
        ls.next_meta.clear();
        ls.next_cands.clear();
        ls.next_rows.clear();
        ls.table.reset();
        for ci in 0..before {
            let m = ls.meta[ci];
            let state = meta_state(m).index();
            if !plan.can_accept[state] {
                continue;
            }
            let base = ls.next_rows.len();
            ls.next_rows.extend_from_slice(&ls.rows[ci * n..ci * n + n]);
            // `ticks` still holds the current event's row; clocks in a gap
            // right now keep their reset (their reading is undefined until
            // the next covered event, when a later pass can revisit them).
            saturate_row(&mut ls.next_rows[base..], &ls.ticks, plan.residual(state, n));
            // The session's lane has one member, so every row holds the
            // same member set and a merged duplicate needs no update.
            if dedup_tail(&mut ls.table, &mut ls.next_meta, &mut ls.next_rows, n, m).is_none() {
                ls.next_cands.push(ls.cands[ci]);
            }
        }
        std::mem::swap(&mut ls.meta, &mut ls.next_meta);
        std::mem::swap(&mut ls.cands, &mut ls.next_cands);
        std::mem::swap(&mut ls.rows, &mut ls.next_rows);
        let after = ls.meta.len();
        ls.live_cnt[0] = after as u32;
        if after == 0 {
            s.run.active = 0;
        }
        s.evicted_rows += (before - after) as u64;
        s.evictions += 1;
        plan.watermark = EVICT_MIN_WATERMARK.max(after * 2);
        if s.lane.opts.obs.metrics_on() {
            metrics::counter_add("tag.session.evictions", 1);
            metrics::counter_add("tag.session.evicted_rows", (before - after) as u64);
            tgm_obs::recorder::record(RecEvent::Eviction {
                before: before as u64,
                after: after as u64,
            });
        }
    }

    // -- inspection ---------------------------------------------------------

    /// Drains the completions buffered since the last call, oldest first.
    pub fn completed(&mut self) -> std::vec::Drain<'_, Completion> {
        self.s.completions.drain(..)
    }

    /// Accumulated counters.
    pub fn stats(&self) -> SessionStats {
        let s = &self.s;
        SessionStats {
            events: s.stats.events,
            completions: s.total_completions,
            frontier: self.frontier_size(),
            peak_frontier: s.stats.peak_configs,
            expansions: s.stats.expansions,
            dedup_hits: s.stats.dedup_hits,
            evicted_rows: s.evicted_rows,
            evictions: s.evictions,
            interrupted: s.interrupt,
        }
    }

    /// Current live frontier rows.
    pub fn frontier_size(&self) -> usize {
        self.lane().meta.len()
    }

    /// Whether the frontier died (see [`Push::Dead`]).
    pub fn is_dead(&self) -> bool {
        self.s.run.active == 0
    }

    /// The sticky interrupt, if the session was stopped by its limits.
    pub fn interrupted(&self) -> Option<Interrupt> {
        self.s.interrupt
    }

    /// Forgets all progress — frontier, stats, completions, interrupt —
    /// keeping the grown buffer capacity. The next push re-seeds.
    pub fn reset(&mut self) {
        let s = &mut self.s;
        let ls = &mut s.scratch.lanes[0];
        ls.meta.clear();
        ls.cands.clear();
        ls.rows.clear();
        s.run = s.lane.start();
        s.stats = RunStats::default();
        s.interrupt = None;
        s.events_pushed = 0;
        s.completions.clear();
        s.total_completions = 0;
        s.evicted_rows = 0;
        s.evictions = 0;
        s.last_stats_at = 0;
        if let Some(plan) = &mut s.eviction {
            plan.next_at = None;
            plan.watermark = EVICT_MIN_WATERMARK;
        }
    }

    // -- suspend / resume ---------------------------------------------------

    /// Tears the session into an owned [`SessionState`], releasing the
    /// borrow of the automaton. The state is `Send`: it can be parked in a
    /// session table, moved across worker threads, and picked back up with
    /// [`resume`](Self::resume).
    pub fn suspend(self) -> SessionState {
        self.s
    }

    /// Reattaches a suspended session to its automaton and continues
    /// exactly where [`suspend`](Self::suspend) left off: frontier, stats,
    /// buffered completions, sticky interrupt, eviction schedule, limits
    /// and the compiled lane all survive the round trip (the replayed
    /// stream stays bit-identical to an uninterrupted session).
    ///
    /// # Panics
    ///
    /// Panics when `tag`'s state or clock count differs from the automaton
    /// the state was suspended from — a cheap guard against resuming
    /// against the wrong automaton (which would silently corrupt the
    /// packed frontier).
    pub fn resume(tag: &'a Tag, state: SessionState) -> Self {
        assert_eq!(
            (state.lane.n_states(), state.lane.n_clocks),
            (tag.n_states(), tag.clocks().len()),
            "SessionState resumed against a different automaton shape"
        );
        MatchSession { tag, s: state }
    }

    // -- finalize -----------------------------------------------------------

    /// Finishes the session with the batch-compatible verdict: the
    /// familiar [`BoundedRun`] whose `stats.accepted` is the final
    /// frontier acceptance scan (exactly [`Matcher::run`] over the pushed
    /// prefix), or `Interrupted` with prefix stats if the limits tripped.
    /// Merges the session's metrics under `tag.session.*`.
    pub fn finalize(self) -> BoundedRun {
        self.finish().0
    }

    /// [`finalize`](Self::finalize), additionally returning the pooled
    /// scratch so a follow-up session can reuse the grown buffers.
    pub fn finish(mut self) -> (BoundedRun, MatcherScratch) {
        let run = self.outcome();
        let s = &mut self.s;
        if s.lane.opts.obs.metrics_on() {
            let _scope = s.scope.as_ref().map(ObsScope::enter);
            metrics::counter_add("tag.session.finalized", 1);
            metrics::counter_add("tag.session.completions", s.total_completions);
            if let Some(hist) = s.hist.take() {
                metrics::histogram_merge("tag.session.frontier", &hist);
            }
        }
        (run, std::mem::take(&mut s.scratch))
    }

    /// The verdict so far: prefix stats plus the interrupt, or the
    /// acceptance scan of the live frontier. An unseeded (never pushed)
    /// session accepts iff a start state accepts — the same answer a
    /// batch run gives for the empty sequence.
    pub(crate) fn outcome(&self) -> BoundedRun {
        let mut stats = self.s.stats;
        let verdict = match self.s.interrupt {
            Some(i) => i.into(),
            None => {
                stats.accepted = if self.s.run.seeded {
                    self.lane()
                        .meta
                        .iter()
                        .any(|&m| self.tag.is_accepting(meta_state(m)))
                } else {
                    self.s.lane.start_accepting
                };
                Verdict::Completed
            }
        };
        BoundedRun { stats, verdict }
    }

    /// Raw counters (accepted not yet resolved).
    pub(crate) fn raw_stats(&self) -> RunStats {
        self.s.stats
    }

    /// Tears a batch session back into its donated parts.
    pub(crate) fn into_parts(self) -> (MatcherScratch, Option<Histogram>) {
        (self.s.scratch, self.s.hist)
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
    fn session_reports_each_completion() {
        let tag = next_day_tag();
        let mut session = MatchSession::new(&tag);
        assert!(!session.push(ev(0, 2 * DAY)).completed());
        assert!(!session.push(ev(7, 2 * DAY + 100)).completed());
        assert!(session.push(ev(1, 3 * DAY)).completed());
        assert!(!session.push(ev(0, 10 * DAY)).completed());
        assert!(session.push(ev(1, 11 * DAY)).completed());
        let fired: Vec<_> = session.completed().collect();
        assert_eq!(
            fired,
            vec![
                Completion { index: 2, at: 3 * DAY },
                Completion { index: 4, at: 11 * DAY }
            ]
        );
        // Drained: a second call yields nothing.
        assert_eq!(session.completed().count(), 0);
        let stats = session.stats();
        assert_eq!(stats.completions, 2);
        assert_eq!(stats.events, 5);
        assert!(stats.frontier >= 1);
    }

    #[test]
    fn session_agrees_with_batch_prefix_acceptance() {
        let tag = next_day_tag();
        let events = [
            ev(0, 2 * DAY),
            ev(1, 4 * DAY), // too late
            ev(0, 6 * DAY),
            ev(1, 7 * DAY), // completes
        ];
        let mut session = MatchSession::new(&tag);
        let mut completed_at = None;
        for (i, &e) in events.iter().enumerate() {
            if session.push(e).completed() && completed_at.is_none() {
                completed_at = Some(i);
            }
        }
        let m = Matcher::new(&tag);
        for i in 0..events.len() {
            let prefix_accepts = m.matches_within(&events[..=i]);
            assert_eq!(
                prefix_accepts,
                completed_at.is_some_and(|c| i >= c),
                "prefix {i}"
            );
        }
    }

    #[test]
    fn finalize_matches_batch_run() {
        let tag = next_day_tag();
        let events = [ev(0, 2 * DAY), ev(7, 2 * DAY + 50), ev(1, 3 * DAY)];
        let m = Matcher::new(&tag);
        let batch = m.run(&events, false);
        let mut session = MatchSession::new(&tag);
        assert_eq!(session.push_batch(&events), 3);
        let run = session.finalize();
        assert_eq!(run.stats, batch);
        assert!(run.verdict.is_complete());
    }

    #[test]
    fn session_reset_rearms() {
        let tag = next_day_tag();
        let mut session = MatchSession::new(&tag);
        let _ = session.push(ev(0, 2 * DAY));
        assert!(session.push(ev(1, 3 * DAY)).completed());
        assert_eq!(session.stats().completions, 1);
        session.reset();
        assert_eq!(session.stats().completions, 0);
        assert_eq!(session.frontier_size(), 0);
        let _ = session.push(ev(0, 20 * DAY));
        assert!(session.push(ev(1, 21 * DAY)).completed());
    }

    #[test]
    fn dead_session_stays_dead_until_reset() {
        // Strict updates + a business-day gap kill every configuration.
        let cal = Calendar::standard();
        let mut b = TagBuilder::new();
        let x = b.clock("x_bday", cal.get("business-day").unwrap());
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.start(s0).accepting(s1);
        b.transition(s0, s1, Symbol::Exact(EventType(0)), ClockConstraint::Le(x, 1), vec![]);
        b.skip_loop(s0);
        let tag = b.build();
        let opts = MatchOptions::builder().strict_updates(true).build();
        let mut session = MatchSession::with_options(&tag, opts);
        // Day 7 = Saturday 2000-01-08: no business-day tick.
        assert_eq!(session.push(ev(9, 7 * DAY)), Push::Advanced { completed: false });
        assert!(session.is_dead());
        assert_eq!(session.push(ev(0, 10 * DAY)), Push::Dead);
        assert_eq!(session.stats().events, 1);
        session.reset();
        assert!(session.push(ev(0, 10 * DAY)).completed());
    }

    #[test]
    fn budget_interrupt_is_sticky() {
        let tag = next_day_tag();
        let mut session =
            MatchSession::new(&tag).with_limits(Limits::none().with_budget(0));
        assert_eq!(session.push(ev(0, 2 * DAY)), Push::Advanced { completed: false });
        let i = Interrupt::BudgetExhausted;
        assert_eq!(session.interrupted(), Some(i));
        assert_eq!(session.push(ev(1, 3 * DAY)), Push::Interrupted(i));
        assert_eq!(session.stats().events, 1);
        let run = session.finalize();
        assert_eq!(run.verdict.interrupt(), Some(i));
        assert!(!run.stats.accepted);
    }

    #[test]
    fn eviction_drops_unreachable_and_merges() {
        // Without saturation the frontier grows per event; eviction must
        // keep it bounded and preserve every completion.
        let tag = next_day_tag();
        let opts = MatchOptions::builder().saturate(false).build();
        let events: Vec<Event> = (0..400)
            .flat_map(|i| {
                [
                    ev(0, (2 + 2 * i) * DAY),
                    ev(1, (3 + 2 * i) * DAY), // completes next day
                ]
            })
            .collect();
        let mut plain = MatchSession::with_options(&tag, opts);
        let mut evicting = MatchSession::with_options(&tag, opts).with_eviction();
        for &e in &events {
            let a = plain.push(e);
            let b = evicting.push(e);
            assert_eq!(a.completed(), b.completed(), "at {:?}", e);
        }
        let p = plain.stats();
        let q = evicting.stats();
        assert_eq!(p.completions, q.completions);
        assert!(q.evictions > 0, "eviction never triggered");
        assert!(q.evicted_rows > 0);
        assert!(
            q.peak_frontier < p.peak_frontier,
            "evicting peak {} vs plain {}",
            q.peak_frontier,
            p.peak_frontier
        );
        // With saturation on, the Theorem 4 bound caps the evicting
        // session's live frontier.
        let sat = MatchSession::new(&tag);
        let bound = sat.frontier_bound();
        let mut sat = sat.with_eviction();
        for &e in &events {
            let _ = sat.push(e);
        }
        assert!(sat.stats().peak_frontier as u64 <= bound);
        assert_eq!(sat.stats().completions, p.completions);
    }

    #[test]
    fn idle_evicting_session_watermark_settles_at_zero() {
        // One out-of-alphabet event per day keeps the frontier idle in the
        // start state, which never compares its clock before resetting it
        // (fut = −1): once an eviction pass has run, nothing is left to
        // age, so the lag must read 0 like the plain session's.
        let tag = next_day_tag();
        let mut plain = MatchSession::new(&tag);
        let mut evicting = MatchSession::new(&tag).with_eviction();
        for day in 2..40 {
            let e = ev(7, day * DAY);
            assert_eq!(plain.push(e), evicting.push(e));
            if evicting.stats().evictions > 0 {
                assert_eq!(evicting.watermark_lag(), Some(0), "day {day}");
            }
        }
        assert!(evicting.stats().evictions > 0, "eviction never triggered");
        assert_eq!(plain.watermark_lag(), Some(0));
    }

    #[test]
    fn suspend_resume_is_bit_identical() {
        let tag = next_day_tag();
        let events: Vec<Event> = (0..40)
            .flat_map(|i| [ev(0, (2 + 2 * i) * DAY), ev(1, (3 + 2 * i) * DAY)])
            .collect();
        let mut continuous = MatchSession::new(&tag);
        let mut resumed = MatchSession::new(&tag);
        for (i, &e) in events.iter().enumerate() {
            let a = continuous.push(e);
            // Suspend/resume around every third event.
            if i % 3 == 0 {
                let state = resumed.suspend();
                assert_eq!(state.events_pushed(), i as u64);
                resumed = MatchSession::resume(&tag, state);
            }
            let b = resumed.push(e);
            assert_eq!(a, b, "event {i}");
        }
        assert_eq!(continuous.stats(), resumed.stats());
        let fired_a: Vec<_> = continuous.completed().collect();
        let fired_b: Vec<_> = resumed.completed().collect();
        assert_eq!(fired_a, fired_b);
        let (ra, _) = continuous.finish();
        let (rb, _) = resumed.finish();
        assert_eq!(ra, rb);
    }

    #[test]
    fn suspend_preserves_interrupt_and_limits() {
        let tag = next_day_tag();
        let mut session =
            MatchSession::new(&tag).with_limits(Limits::none().with_budget(0));
        let _ = session.push(ev(0, 2 * DAY));
        assert_eq!(session.interrupted(), Some(Interrupt::BudgetExhausted));
        let mut session = MatchSession::resume(&tag, session.suspend());
        assert_eq!(
            session.push(ev(1, 3 * DAY)),
            Push::Interrupted(Interrupt::BudgetExhausted)
        );
        assert_eq!(session.stats().events, 1);
    }

    #[test]
    #[should_panic(expected = "different automaton shape")]
    fn resume_rejects_wrong_shape() {
        let tag = next_day_tag();
        let state = MatchSession::new(&tag).suspend();
        // A shape-incompatible automaton: no clocks, one state.
        let mut b = TagBuilder::new();
        let s0 = b.state("s0");
        b.start(s0).accepting(s0);
        b.skip_loop(s0);
        let other = b.build();
        let _ = MatchSession::resume(&other, state);
    }

    #[test]
    fn push_row_matches_direct_push() {
        use tgm_events::TickColumns;
        let tag = next_day_tag();
        let grans: Vec<_> = tag.clocks().iter().map(|(_, g)| g.clone()).collect();
        let events = [
            ev(0, 2 * DAY + 43_200),
            ev(7, 2 * DAY + 50_000),
            ev(1, 3 * DAY + 3_600),
        ];
        // Incremental append: bind columns chunk by chunk.
        let mut cols = TickColumns::with_granularities(&grans);
        let mut by_row = MatchSession::new(&tag);
        let mut direct = MatchSession::new(&tag);
        for (i, &e) in events.iter().enumerate() {
            cols.append(&events[i..i + 1]);
            let a = by_row.push_row(e, &cols, i);
            let b = direct.push(e);
            assert_eq!(a, b, "event {i}");
        }
        let (ra, _) = by_row.finish();
        let (rb, _) = direct.finish();
        assert_eq!(ra, rb);
    }
}
