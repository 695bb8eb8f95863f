//! The lane engine — the crate's one forward simulation of Theorem 4 —
//! and the multi-TAG shared scan built on it.
//!
//! A *lane* is a compiled set of up to 64 structurally identical TAGs
//! advanced by a single NFA simulation. A [`Matcher`](crate::Matcher) and
//! a [`MatchSession`](crate::MatchSession) run a one-member lane; a
//! [`MultiMatcher`] compiles a candidate set into many lanes and advances
//! them together in one pass over the event sequence, with the same
//! per-event [`step`](Lane::step).
//!
//! The §5 miner's step 5 runs one anchored matcher per candidate × per
//! reference occurrence — thousands of full scans whose automata differ
//! *only* in the event types labelling their `Exact` transitions, because
//! every candidate is built from the same event structure with a different
//! `φ`. The multi scan shares that work:
//!
//! * **Skeleton lanes.** Tags are grouped by *skeleton* — everything except
//!   the `Exact` symbol payloads (clocks, states, guards, resets, skip
//!   structure). Structurally identical automata collapse into one lane.
//! * **Shared packed arena.** A lane's frontier is a packed
//!   `(meta, reset-row)` pool plus one *member-set* word per row: the set
//!   of candidates whose private frontier contains that configuration.
//!   Candidates sharing a prefix (e.g. everything before their
//!   distinguishing symbol fires) share the physical row — the trie
//!   factoring happens implicitly through deduplication keyed on
//!   `(meta, row)` only, merging member sets by OR.
//! * **Alphabet gating.** Per lane, a type → transition-mask table tells
//!   which members' `Exact` transitions an event can fire. Events outside
//!   the lane's alphabet take a skip-only path, and when the event's tick
//!   row also equals the previous event's (and every state carries exactly
//!   one pure skip loop), the frontier is provably unchanged and the whole
//!   loop is skipped — only per-member expansion counters advance.
//!
//! Per-member [`RunStats`] are recovered exactly: every count is
//! order-independent within an event (expansions = guard-passing firings,
//! dedup hits = repeat arrivals at a configuration already holding the
//! member's bit, frontier sizes = live per-member row counts), so a member
//! of a shared lane reports exactly what its own one-member lane would —
//! and both are pinned bit-for-bit against the independent reference
//! engine in `tests/multi_tag_differential.rs` and
//! `tests/engine_differential.rs`.

use std::collections::HashMap;

use tgm_events::{Event, EventType, TickColumns};
use tgm_granularity::Granularity;
use tgm_limits::{Interrupt, Verdict};
use tgm_obs::metrics::{self, Histogram};
use tgm_obs::span::span;

use crate::automaton::{Symbol, Tag, Transition};
use crate::constraint::ClockConstraint;
use crate::matcher::{
    collect_guard_consts, count_interrupt, dedup_tail, ensure_interrupt_observer, guard_holds,
    meta_started, meta_state, pack_meta, pack_tick, saturate_row, DedupTable, MatchOptions,
    RunCtx, RunStats,
};

/// Candidate bits per lane: member sets are one `u64` word per row.
const LANE_WIDTH: usize = 64;

#[inline]
fn full_mask(k: usize) -> u64 {
    debug_assert!((1..=LANE_WIDTH).contains(&k));
    if k == LANE_WIDTH {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Iterates the set bit positions of `mask`, ascending.
#[inline]
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let c = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(c)
        }
    })
}

/// The skeleton of a TAG: a canonical string of everything *except* the
/// `Exact` symbol payloads. Two tags with equal skeletons differ only in
/// which event types their pattern transitions consume, so they share
/// states, clocks, guards, resets and skip structure and can be advanced
/// by one simulation. Granularities compare by instance identity — the
/// tick streams must be literally the same.
fn skeleton_key(tag: &Tag) -> String {
    use std::fmt::Write as _;
    let mut k = String::new();
    let _ = write!(k, "n{};start{:?};", tag.n_states, tag.start);
    for (_, g) in &tag.clocks {
        let _ = write!(k, "c{};", g.instance_id());
    }
    for (i, a) in tag.accepting.iter().enumerate() {
        if *a {
            let _ = write!(k, "a{i};");
        }
    }
    for (s, trs) in tag.by_state.iter().enumerate() {
        let _ = write!(k, "s{s}:");
        for t in trs {
            let sym = match t.symbol {
                Symbol::Exact(_) => 'E',
                Symbol::Any => '*',
            };
            let _ = write!(
                k,
                "[{}{sym}{}r{:?}g{:?}k{}]",
                t.from.index(),
                t.to.index(),
                t.resets,
                t.guard,
                u8::from(t.is_skip)
            );
        }
    }
    k
}

/// Per-state transition plan of a lane's representative.
struct StatePlan {
    /// Indices of `Any`-symbol transitions (identical across members).
    uniform: Vec<u32>,
    /// `(transition index, flat Exact slot)` pairs; the slot indexes the
    /// per-type member masks.
    exact: Vec<(u32, u32)>,
}

/// One compiled lane: up to [`LANE_WIDTH`] structurally identical tags
/// advanced by a single shared-frontier simulation.
///
/// The plan owns everything it needs except the representative automaton
/// itself, which every [`step`](Self::step) borrows — so a suspended
/// session carries its compiled lane without borrowing the [`Tag`].
pub(crate) struct Lane {
    pub(crate) opts: MatchOptions,
    /// Global candidate indices of the members, bit position = list order.
    /// The first member is the lane's representative automaton.
    members: Vec<usize>,
    plans: Vec<StatePlan>,
    /// Per event type in the lane's alphabet: for each flat Exact slot,
    /// the mask of members whose transition consumes that type.
    type_masks: HashMap<EventType, Box<[u64]>>,
    /// Largest guard constant per clock (identical across members).
    pub(crate) max_consts: Vec<i64>,
    pub(crate) n_clocks: usize,
    n_exact: usize,
    /// Some start state is accepting (length-0 prefix acceptance).
    pub(crate) start_accepting: bool,
    /// Every state carries exactly one uniform transition and it is a pure
    /// skip self-loop (`ANY`, guard `True`, no resets) — the constructed
    /// TAG shape. Enables the unchanged-frontier fast path.
    pure_skips: bool,
}

impl Lane {
    /// An empty lane with `rep`'s skeleton; members join via
    /// [`add_member`](Self::add_member).
    fn build(rep: &Tag, opts: MatchOptions) -> Self {
        let mut plans = Vec::with_capacity(rep.n_states);
        let mut n_exact = 0usize;
        let mut pure = true;
        for trs in &rep.by_state {
            let mut plan = StatePlan {
                uniform: Vec::new(),
                exact: Vec::new(),
            };
            for (ti, tr) in trs.iter().enumerate() {
                match tr.symbol {
                    Symbol::Exact(_) => {
                        plan.exact.push((ti as u32, n_exact as u32));
                        n_exact += 1;
                    }
                    Symbol::Any => {
                        plan.uniform.push(ti as u32);
                        pure &= tr.is_skip
                            && tr.to == tr.from
                            && tr.resets.is_empty()
                            && matches!(tr.guard, ClockConstraint::True);
                    }
                }
            }
            pure &= plan.uniform.len() == 1;
            plans.push(plan);
        }
        let mut max_consts = vec![0i64; rep.clocks.len()];
        for tr in rep.transitions() {
            collect_guard_consts(&tr.guard, &mut max_consts);
        }
        Lane {
            opts,
            members: Vec::new(),
            plans,
            type_masks: HashMap::new(),
            max_consts,
            n_clocks: rep.clocks.len(),
            n_exact,
            start_accepting: rep
                .start_states()
                .iter()
                .any(|&s| rep.is_accepting(s)),
            pure_skips: pure,
        }
    }

    /// The one-member lane of `tag` (member index 0): the single-pattern
    /// engine behind [`Matcher`](crate::Matcher) and
    /// [`MatchSession`](crate::MatchSession).
    pub(crate) fn single(tag: &Tag, opts: MatchOptions) -> Self {
        let mut lane = Lane::build(tag, opts);
        lane.add_member(0, tag);
        lane
    }

    /// States of the representative automaton (the shape check of
    /// [`MatchSession::resume`](crate::MatchSession::resume)).
    pub(crate) fn n_states(&self) -> usize {
        self.plans.len()
    }

    /// Registers `tag` (global candidate index `ci`) as the next member:
    /// walks its `Exact` transitions in the representative's flat order and
    /// sets the member's bit in each payload type's slot mask.
    fn add_member(&mut self, ci: usize, tag: &Tag) {
        let bit = self.members.len();
        debug_assert!(bit < LANE_WIDTH);
        self.members.push(ci);
        let mut k = 0usize;
        for trs in &tag.by_state {
            for tr in trs {
                if let Symbol::Exact(ty) = tr.symbol {
                    let masks = self
                        .type_masks
                        .entry(ty)
                        .or_insert_with(|| vec![0u64; self.n_exact].into_boxed_slice());
                    masks[k] |= 1u64 << bit;
                    k += 1;
                }
            }
        }
        debug_assert_eq!(k, self.n_exact, "skeleton-equal tags have equal Exact counts");
    }

    /// Every member active, nothing seeded: the state a run starts from.
    pub(crate) fn start(&self) -> LaneState {
        LaneState {
            active: full_mask(self.members.len()),
            seeded: false,
            all_started: false,
            have_prev: false,
        }
    }

    /// Consumes one event: resolves its tick row (column row `row` when
    /// given, see [`LaneScratch::bind_columns`]), seeds the frontier on the
    /// lane's first event, and advances every active member — maintaining
    /// per-member stats (indexed by global candidate index), deaths, and
    /// with `early_exit` each completing member's acceptance and
    /// retirement. Returns the members that completed an occurrence at `e`
    /// (a pattern transition into an accepting state fired).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step(
        &self,
        rep: &Tag,
        ls: &mut LaneScratch,
        st: &mut LaneState,
        stats: &mut [RunStats],
        e: &Event,
        row: Option<(&TickColumns, usize)>,
        early_exit: bool,
    ) -> u64 {
        ls.fill_ticks(rep, e, row);
        if !st.seeded {
            self.seed(rep, ls, st.active);
            st.seeded = true;
        }
        // Every active member consumes the event.
        for c in bits(st.active) {
            stats[self.members[c]].events += 1;
        }
        let tmask = self.type_masks.get(&e.ty);
        let ticks_same = st.have_prev && ls.ticks == ls.prev_ticks;
        if tmask.is_none()
            && self.pure_skips
            && ticks_same
            && (!self.opts.anchored || st.all_started)
        {
            // Out-of-alphabet event with an unchanged tick row: every row
            // fires exactly its pure skip loop and reproduces itself (rows
            // are already canonical for these ticks), so the frontier is
            // literally unchanged. Only the expansion counters move.
            for c in bits(st.active) {
                stats[self.members[c]].expansions += u64::from(ls.live_cnt[c]);
            }
            return 0;
        }
        let LaneScratch {
            meta,
            cands,
            rows,
            next_meta,
            next_cands,
            next_rows,
            table,
            ticks,
            live_cnt,
            merged,
            ..
        } = &mut *ls;
        let n = self.n_clocks;
        next_meta.clear();
        next_cands.clear();
        next_rows.clear();
        for c in bits(st.active) {
            live_cnt[c] = 0;
        }
        let mut ctx = FireCtx {
            next_meta,
            next_cands,
            next_rows,
            table,
            live_cnt,
            stats,
            members: &self.members,
            ticks,
            caps: &self.max_consts,
            n,
            anchored: self.opts.anchored,
            reached: 0,
            next_all_started: true,
            merged: 0,
        };
        ctx.table.reset();
        for ri in 0..meta.len() {
            let (state, started) = (meta_state(meta[ri]), meta_started(meta[ri]));
            let cs = cands[ri];
            let row = &rows[ri * n..ri * n + n];
            let plan = &self.plans[state.index()];
            let trs = &rep.by_state[state.index()];
            for &ti in &plan.uniform {
                ctx.fire(rep, &trs[ti as usize], cs, started, row);
            }
            if let Some(tm) = tmask {
                for &(ti, k) in &plan.exact {
                    let mask = cs & tm[k as usize];
                    if mask != 0 {
                        ctx.fire(rep, &trs[ti as usize], mask, started, row);
                    }
                }
            }
        }
        let reached = ctx.reached & st.active;
        let next_all_started = ctx.next_all_started;
        *merged += ctx.merged;
        std::mem::swap(meta, next_meta);
        std::mem::swap(cands, next_cands);
        std::mem::swap(rows, next_rows);
        // Per-member peak = that member's post-event frontier size
        // (including the event a member completes or dies on).
        for c in bits(st.active) {
            let g = self.members[c];
            stats[g].peak_configs = stats[g].peak_configs.max(live_cnt[c] as usize);
        }
        let mut retire = 0u64;
        if early_exit {
            for c in bits(reached) {
                stats[self.members[c]].accepted = true;
            }
            retire = reached;
        }
        for c in bits(st.active & !retire) {
            if live_cnt[c] == 0 {
                // Death: the member's frontier emptied; `accepted` stays
                // false.
                retire |= 1 << c;
            }
        }
        ls.retire(st, retire, n);
        ls.prev_ticks.clear();
        ls.prev_ticks.extend_from_slice(&ls.ticks);
        st.have_prev = true;
        st.all_started = next_all_started;
        reached
    }

    /// Seeds a lane's frontier at the current tick row: one row per
    /// distinct start state, held by every member in `mask`.
    fn seed(&self, rep: &Tag, ls: &mut LaneScratch, mask: u64) {
        let n = self.n_clocks;
        ls.meta.clear();
        ls.cands.clear();
        ls.rows.clear();
        ls.table.reset();
        for &s in rep.start_states() {
            ls.rows.extend_from_slice(&ls.ticks);
            if dedup_tail(&mut ls.table, &mut ls.meta, &mut ls.rows, n, pack_meta(s, false)).is_none() {
                ls.cands.push(mask);
            }
        }
        let cnt = ls.meta.len() as u32;
        ls.live_cnt.resize(LANE_WIDTH, 0);
        for c in bits(mask) {
            ls.live_cnt[c] = cnt;
        }
    }
}

/// Per-lane run state. Travels with a suspended session, so it is part of
/// what a [`SessionState`](crate::SessionState) carries.
#[derive(Clone, Copy)]
pub(crate) struct LaneState {
    /// Members still running (not dead, not retired by early exit).
    pub(crate) active: u64,
    /// The frontier was seeded at the lane's first event.
    pub(crate) seeded: bool,
    /// Every live row has fired a pattern transition (anchored fast path).
    all_started: bool,
    /// `prev_ticks` holds the previous event's tick row.
    have_prev: bool,
}

/// Reusable buffers of one lane: the current and next frontier (meta
/// words, member sets, flat reset rows), the deduplication table, and the
/// current and previous event's tick rows.
#[derive(Default)]
pub(crate) struct LaneScratch {
    pub(crate) meta: Vec<u64>,
    /// Member set per row (parallel to `meta`).
    pub(crate) cands: Vec<u64>,
    /// Reset rows, stride = number of clocks.
    pub(crate) rows: Vec<i64>,
    pub(crate) next_meta: Vec<u64>,
    pub(crate) next_cands: Vec<u64>,
    pub(crate) next_rows: Vec<i64>,
    pub(crate) table: DedupTable,
    /// Packed covering ticks of the current event, one per clock.
    pub(crate) ticks: Vec<i64>,
    prev_ticks: Vec<i64>,
    /// Per-clock column index for column-reading runs.
    clock_cols: Vec<Option<usize>>,
    /// Live rows per member in the current frontier.
    pub(crate) live_cnt: Vec<u32>,
    /// Physical rows merged (shared between members) since last taken.
    merged: u64,
}

impl LaneScratch {
    /// Binds the clock → column map of `rep`'s clocks for column-reading
    /// steps.
    pub(crate) fn bind_columns(&mut self, rep: &Tag, cols: &TickColumns) {
        self.clock_cols.clear();
        self.clock_cols
            .extend(rep.clocks.iter().map(|(_, g)| cols.index_of(g)));
    }

    /// Resolves every clock's covering tick at `e` into `ticks`, reading
    /// row `row` of the bound columns where a clock has one.
    pub(crate) fn fill_ticks(&mut self, rep: &Tag, e: &Event, row: Option<(&TickColumns, usize)>) {
        self.ticks.clear();
        self.ticks.extend(rep.clocks.iter().enumerate().map(|(x, (_, g))| {
            pack_tick(match (row, self.clock_cols.get(x)) {
                (Some((cols, r)), Some(&Some(c))) => cols.tick(c, r),
                _ => g.covering_tick(e.time),
            })
        }));
    }

    /// Deactivates the members in `retire` and purges their bits from the
    /// frontier, dropping rows nobody holds any more.
    pub(crate) fn retire(&mut self, st: &mut LaneState, retire: u64, n: usize) {
        if retire == 0 {
            return;
        }
        st.active &= !retire;
        let mut w = 0usize;
        for r in 0..self.meta.len() {
            let cs = self.cands[r] & st.active;
            if cs == 0 {
                continue;
            }
            self.meta[w] = self.meta[r];
            self.cands[w] = cs;
            if w != r {
                self.rows.copy_within(r * n..r * n + n, w * n);
            }
            w += 1;
        }
        self.meta.truncate(w);
        self.cands.truncate(w);
        self.rows.truncate(w * n);
    }
}

/// Split borrows of one lane's *next*-frontier buffers plus the stats
/// sinks, so [`fire`](FireCtx::fire) can stage successors while the caller
/// iterates the current frontier.
struct FireCtx<'x> {
    next_meta: &'x mut Vec<u64>,
    next_cands: &'x mut Vec<u64>,
    next_rows: &'x mut Vec<i64>,
    table: &'x mut DedupTable,
    live_cnt: &'x mut [u32],
    stats: &'x mut [RunStats],
    members: &'x [usize],
    ticks: &'x [i64],
    /// Saturation caps per clock.
    caps: &'x [i64],
    n: usize,
    anchored: bool,
    /// Members that reached an accepting state via a pattern transition
    /// this event.
    reached: u64,
    next_all_started: bool,
    /// Physical rows merged (shared) this event.
    merged: u64,
}

impl FireCtx<'_> {
    /// Fires `tr` from a row for the member set `mask`: guard check,
    /// per-member expansion counting, successor staging with reset +
    /// canonicalization, and the member-set merge on deduplication.
    fn fire(&mut self, rep: &Tag, tr: &Transition, mask: u64, started: bool, row: &[i64]) {
        if (self.anchored && !started && tr.is_skip) || !guard_holds(tr, self.ticks, row) {
            return;
        }
        for c in bits(mask) {
            self.stats[self.members[c]].expansions += 1;
        }
        let base = self.next_rows.len();
        self.next_rows.extend_from_slice(row);
        let staged = &mut self.next_rows[base..];
        for &x in &tr.resets {
            staged[x.index()] = self.ticks[x.index()];
        }
        saturate_row(staged, self.ticks, self.caps);
        let nm = pack_meta(tr.to, started || !tr.is_skip);
        if rep.is_accepting(tr.to) && !tr.is_skip {
            self.reached |= mask;
        }
        match dedup_tail(self.table, self.next_meta, self.next_rows, self.n, nm) {
            None => {
                self.next_cands.push(mask);
                self.next_all_started &= meta_started(nm);
                for c in bits(mask) {
                    self.live_cnt[c] += 1;
                }
            }
            Some(j) => {
                let ex = self.next_cands[j];
                // Members already holding the configuration score a dedup
                // hit (their own frontier would have rejected the
                // duplicate); first arrivals gain a live row.
                for c in bits(mask & ex) {
                    self.stats[self.members[c]].dedup_hits += 1;
                }
                for c in bits(mask & !ex) {
                    self.live_cnt[c] += 1;
                }
                self.next_cands[j] = ex | mask;
                self.merged += 1;
            }
        }
    }
}

/// Result of a multi run: one [`RunStats`] per candidate (in input order)
/// plus the run-level [`Verdict`]. On an interrupt, stats of candidates
/// whose outcome was not yet established are partial and their `accepted`
/// is `false`.
pub struct MultiRun {
    /// Per-candidate statistics, bit-identical to per-candidate
    /// [`Matcher::run_in`](crate::Matcher::run_in) runs when the run
    /// completes.
    pub stats: Vec<RunStats>,
    /// Completed, or the first interrupt.
    pub verdict: Verdict,
}

/// A compiled set of candidate TAGs sharing one scan (see the module
/// docs). Construction groups the tags into skeleton lanes; runs advance
/// every live candidate per event and return per-candidate [`RunStats`]
/// bit-identical to per-candidate runs.
pub struct MultiMatcher<'t> {
    tags: Vec<&'t Tag>,
    lanes: Vec<Lane>,
    /// Per candidate: some start state is accepting (length-0 acceptance).
    start_acc: Vec<bool>,
}

impl<'t> MultiMatcher<'t> {
    /// Compiles `tags` with default (lazy, unanchored) options.
    pub fn new(tags: Vec<&'t Tag>) -> Self {
        Self::with_options(tags, MatchOptions::default())
    }

    /// Compiles `tags` under explicit matching options (shared by every
    /// candidate).
    pub fn with_options(tags: Vec<&'t Tag>, opts: MatchOptions) -> Self {
        ensure_interrupt_observer();
        let mut lanes: Vec<Lane> = Vec::new();
        let mut by_key: HashMap<String, Vec<usize>> = HashMap::new();
        let mut start_acc = Vec::with_capacity(tags.len());
        for (ci, &tag) in tags.iter().enumerate() {
            start_acc.push(tag.start_states().iter().any(|&s| tag.is_accepting(s)));
            let lane_ids = by_key.entry(skeleton_key(tag)).or_default();
            match lane_ids
                .iter()
                .copied()
                .find(|&li| lanes[li].members.len() < LANE_WIDTH)
            {
                Some(li) => lanes[li].add_member(ci, tag),
                None => {
                    lane_ids.push(lanes.len());
                    let mut lane = Lane::build(tag, opts);
                    lane.add_member(ci, tag);
                    lanes.push(lane);
                }
            }
        }
        MultiMatcher {
            tags,
            lanes,
            start_acc,
        }
    }

    /// Number of candidate TAGs.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the candidate set is empty.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Number of skeleton lanes (shared simulations actually run).
    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// States in the compiled plan: one state set per lane, however many
    /// members share it.
    pub fn shared_states(&self) -> usize {
        self.lanes.iter().map(Lane::n_states).sum()
    }

    /// States summed over every candidate individually (what per-candidate
    /// scans would simulate); `total_states - shared_states` is the
    /// construction-time deduplication.
    pub fn total_states(&self) -> usize {
        self.tags.iter().map(|t| t.n_states).sum()
    }

    /// Runs every candidate over `events`, returning per-candidate stats
    /// in input order. `early_exit` stops a candidate at its first
    /// acceptance (the miner's anchored mode); other candidates keep
    /// scanning. Ticks come from the context's columns when present; the
    /// context's limits are polled per event, and their budget caps the
    /// *pooled* frontier rows summed across every lane (the shared arena
    /// is the resource actually consumed).
    ///
    /// Emits one `tag.multi.run` span, `tag.multi.*` counters and the
    /// pooled per-event frontier histogram while observability is on.
    pub fn run_in(&self, events: &[Event], early_exit: bool, ctx: &mut RunCtx<'_>) -> MultiRun {
        let _span = span("tag.multi.run");
        let mut hist = tgm_obs::enabled().then(Histogram::new);
        let mut merged = 0u64;
        let run = self.run_loop(events, early_exit, ctx, &mut hist, &mut merged);
        if let Some(h) = &hist {
            metrics::counter_add("tag.multi.runs", 1);
            metrics::counter_add("tag.multi.candidates", self.tags.len() as u64);
            metrics::counter_add("tag.multi.lanes", self.lanes.len() as u64);
            metrics::counter_add("tag.multi.shared_states", self.shared_states() as u64);
            metrics::counter_add("tag.multi.dedup_rows", merged);
            metrics::counter_add(
                "tag.multi.accepted",
                run.stats.iter().filter(|s| s.accepted).count() as u64,
            );
            metrics::histogram_merge("tag.multi.frontier", h);
            if let Some(i) = run.verdict.interrupt() {
                count_interrupt(i);
            }
        }
        run
    }

    fn run_loop(
        &self,
        events: &[Event],
        early_exit: bool,
        ctx: &mut RunCtx<'_>,
        hist: &mut Option<Histogram>,
        merged_rows: &mut u64,
    ) -> MultiRun {
        let mut stats = vec![RunStats::default(); self.tags.len()];
        // Empty input: accepted iff a start state is accepting.
        if events.is_empty() {
            for (ci, s) in stats.iter_mut().enumerate() {
                s.accepted = self.start_acc[ci];
            }
            return MultiRun {
                stats,
                verdict: Verdict::Completed,
            };
        }
        tgm_limits::fail::point("tag.multi.run", ctx.limits);
        ctx.check_columns(events.len());
        let (cols, limits) = (ctx.cols, ctx.limits);
        let scratch = ctx.scratch.lanes(self.lanes.len());
        let mut lane_states: Vec<LaneState> = Vec::with_capacity(self.lanes.len());
        for (lane, ls) in self.lanes.iter().zip(scratch.iter_mut()) {
            let mut st = lane.start();
            if early_exit && lane.start_accepting {
                // Length-0 prefix acceptance before consuming anything.
                for &g in &lane.members {
                    stats[g].accepted = true;
                }
                st.active = 0;
            }
            lane_states.push(st);
            ls.merged = 0;
            if let Some((cols, _)) = cols {
                ls.bind_columns(self.tags[lane.members[0]], cols);
            }
        }
        let mut verdict = Verdict::Completed;
        let mut pool_peak: u64 = 0;
        for (i, e) in events.iter().enumerate() {
            if lane_states.iter().all(|s| s.active == 0) {
                break;
            }
            if let Some(l) = limits {
                if let Err(int) = l.check() {
                    verdict = int.into();
                    break;
                }
            }
            let row = cols.map(|(cols, offset)| (cols, offset + i));
            let mut total_rows: u64 = 0;
            for ((lane, ls), st) in self.lanes.iter().zip(scratch.iter_mut()).zip(&mut lane_states) {
                if st.active == 0 {
                    continue;
                }
                let rep = self.tags[lane.members[0]];
                lane.step(rep, ls, st, &mut stats, e, row, early_exit);
                if st.active != 0 {
                    total_rows += ls.meta.len() as u64;
                }
            }
            if let Some(h) = hist.as_mut() {
                h.record(total_rows);
            }
            pool_peak = pool_peak.max(total_rows);
            if let Some(l) = limits {
                if l.budget_exceeded(pool_peak) {
                    verdict = Interrupt::BudgetExhausted.into();
                    break;
                }
            }
        }
        for ((lane, ls), st) in self.lanes.iter().zip(scratch.iter_mut()).zip(&lane_states) {
            *merged_rows += std::mem::take(&mut ls.merged);
            if st.active == 0 || verdict.interrupt().is_some() {
                continue;
            }
            // Survivors: acceptance from the final frontier, like a
            // per-candidate run's end-of-input answer.
            let rep = self.tags[lane.members[0]];
            let mut acc_mask = 0u64;
            for (r, &m) in ls.meta.iter().enumerate() {
                if rep.is_accepting(meta_state(m)) {
                    acc_mask |= ls.cands[r];
                }
            }
            for c in bits(st.active & acc_mask) {
                stats[lane.members[c]].accepted = true;
            }
        }
        MultiRun { stats, verdict }
    }
}

#[cfg(test)]
mod tests {
    use tgm_core::examples::example_1;
    use tgm_events::{Event, EventType, TypeRegistry};
    use tgm_granularity::Calendar;

    use super::*;
    use crate::construct::{build_tag, TagTemplate};
    use crate::matcher::{Matcher, MatcherScratch};
    use tgm_limits::Limits;

    fn run_all(mm: &MultiMatcher<'_>, events: &[Event], early: bool) -> Vec<RunStats> {
        mm.run_in(events, early, &mut RunCtx::new(&mut MatcherScratch::new()))
            .stats
    }
    use tgm_core::ComplexEventType;

    const DAY: i64 = 86_400;

    fn chain_structure(cal: &Calendar) -> tgm_core::EventStructure {
        let mut sb = tgm_core::StructureBuilder::new();
        let x0 = sb.var("X0");
        let x1 = sb.var("X1");
        sb.constrain(x0, x1, tgm_core::Tcg::new(0, 2, cal.get("day").unwrap()));
        sb.build().unwrap()
    }

    #[test]
    fn lanes_group_structurally_identical_tags() {
        let cal = Calendar::standard();
        let s = chain_structure(&cal);
        let template = TagTemplate::new(&s);
        let a: Vec<Tag> = (0..5)
            .map(|i| template.instantiate(&[EventType(0), EventType(i)]))
            .collect();
        // A structurally different tag: Example 1's automaton.
        let mut reg = TypeRegistry::new();
        let (cet, _) = example_1(&cal, &mut reg);
        let other = build_tag(&cet);
        let mut tags: Vec<&Tag> = a.iter().collect();
        tags.push(&other);
        let mm = MultiMatcher::new(tags);
        assert_eq!(mm.len(), 6);
        assert_eq!(mm.n_lanes(), 2, "5 siblings share one lane");
        assert!(mm.shared_states() < mm.total_states());
    }

    #[test]
    fn empty_input_and_empty_set() {
        let cal = Calendar::standard();
        let s = chain_structure(&cal);
        let template = TagTemplate::new(&s);
        let t0 = template.instantiate(&[EventType(0), EventType(1)]);
        let mm = MultiMatcher::new(vec![&t0]);
        let stats = run_all(&mm, &[], false);
        assert_eq!(stats.len(), 1);
        assert!(!stats[0].accepted);
        assert_eq!(stats[0].events, 0);
        let none = MultiMatcher::new(Vec::new());
        assert!(none.is_empty());
        assert!(run_all(&none, &[Event::new(EventType(0), 0)], true).is_empty());
    }

    #[test]
    fn pooled_budget_interrupts_with_typed_verdict() {
        let cal = Calendar::standard();
        let s = chain_structure(&cal);
        let template = TagTemplate::new(&s);
        let tags: Vec<Tag> = (0..8)
            .map(|i| template.instantiate(&[EventType(0), EventType(i)]))
            .collect();
        let events: Vec<Event> = (0..30)
            .map(|i| Event::new(EventType((i % 8) as u32), i * DAY + 2 * DAY))
            .collect();
        let mm = MultiMatcher::new(tags.iter().collect());
        let bounded = |budget: u64| {
            let limits = Limits::none().with_budget(budget);
            let mut scratch = MatcherScratch::new();
            let mut ctx = RunCtx {
                limits: Some(&limits),
                ..RunCtx::new(&mut scratch)
            };
            mm.run_in(&events, false, &mut ctx)
        };
        let run = bounded(0);
        assert_eq!(run.verdict.interrupt(), Some(Interrupt::BudgetExhausted));
        // And an ample budget completes identically to the unbounded run.
        let free = bounded(1_000_000);
        assert!(free.verdict.interrupt().is_none());
        assert_eq!(free.stats, run_all(&mm, &events, false));
    }

    /// `TagTemplate::instantiate` is bit-identical to building the tag for
    /// the same `φ` from scratch (same builder call sequence, relabelled
    /// symbols only).
    #[test]
    fn template_instantiation_matches_direct_build() {
        let cal = Calendar::standard();
        let mut reg = TypeRegistry::new();
        let (cet, tys) = example_1(&cal, &mut reg);
        let template = TagTemplate::new(cet.structure());
        let phi = [tys.ibm_rise, tys.ibm_report, tys.hp_rise, tys.ibm_fall];
        let direct = build_tag(&ComplexEventType::new(cet.structure().clone(), phi.to_vec()));
        let inst = template.instantiate(&phi);
        assert_eq!(format!("{direct:?}"), format!("{inst:?}"));
        let events: Vec<Event> = (0..30)
            .map(|i| Event::new(phi[(i % 4) as usize], i * DAY / 2 + 2 * DAY))
            .collect();
        assert_eq!(
            Matcher::new(&direct).run(&events, false),
            Matcher::new(&inst).run(&events, false),
        );
    }
}
