//! The reference engine: the pre-packed-representation NFA simulation,
//! kept as the differential oracle of the production lane engine.
//!
//! One `Vec<Option<Tick>>` of clock resets per configuration, each
//! event's frontier deduplicated by cloning into a `HashSet`. It reads the
//! TAG only through the public [`Tag`] API, recomputes each clock's cap
//! (its largest guard constant) from the guards, and repeats the
//! saturation formula, so it shares no matching code with the crate. It
//! produces bit-identical [`RunStats`] and occurrence witnesses to
//! [`Matcher`](tgm_tag::Matcher), and under [`Limits`] polls and
//! budget-caps at the same points as `Matcher::run_in`.

use std::collections::HashSet;

use tgm_events::{Event, TickColumns};
use tgm_granularity::{Granularity, Second, Tick};
use tgm_limits::{Interrupt, Limits, Verdict};
use tgm_tag::{BoundedRun, ClockConstraint, ClockId, MatchOptions, RunStats, StateId, Tag};

#[derive(Clone, PartialEq, Eq, Hash)]
struct Config {
    state: StateId,
    started: bool,
    /// Covering tick of each clock's granularity at its last reset.
    resets: Vec<Option<Tick>>,
}

/// The reference engine for one TAG under one set of options.
pub struct Reference<'a> {
    tag: &'a Tag,
    anchored: bool,
    /// Largest constant each clock is compared against in any guard.
    caps: Vec<i64>,
}

/// Raises `caps` to every constant `guard` compares a clock against.
fn collect_caps(guard: &ClockConstraint, caps: &mut [i64]) {
    match guard {
        ClockConstraint::True => {}
        ClockConstraint::Le(x, k) | ClockConstraint::Ge(x, k) => {
            caps[x.index()] = caps[x.index()].max(*k);
        }
        ClockConstraint::And(cs) | ClockConstraint::Or(cs) => {
            for c in cs {
                collect_caps(c, caps);
            }
        }
        ClockConstraint::Not(c) => collect_caps(c, caps),
    }
}

impl<'a> Reference<'a> {
    /// The reference engine of `tag` under `opts`.
    pub fn new(tag: &'a Tag, opts: MatchOptions) -> Self {
        let mut caps = vec![0i64; tag.clocks().len()];
        for tr in tag.transitions() {
            collect_caps(&tr.guard, &mut caps);
        }
        Reference {
            tag,
            anchored: opts.anchored,
            caps,
        }
    }

    fn clock_tick(&self, x: usize, t: Second) -> Option<Tick> {
        self.tag.clocks()[x].1.covering_tick(t)
    }

    fn ticks_at(&self, t: Second) -> Vec<Option<Tick>> {
        (0..self.tag.clocks().len())
            .map(|x| self.clock_tick(x, t))
            .collect()
    }

    /// Saturates resets whose readings exceed their clock's cap to the
    /// canonical representative one past the cap, clamped one above the
    /// lane engine's `i64::MIN` encoding of an undefined reset.
    fn canonicalize(&self, resets: &mut [Option<Tick>], cur_ticks: &[Option<Tick>]) {
        for (x, r) in resets.iter_mut().enumerate() {
            if let (Some(cur), Some(res)) = (cur_ticks[x], *r) {
                let cap = self.caps[x];
                if cur.saturating_sub(res) > cap {
                    *r = Some(cur.saturating_sub(cap).saturating_sub(1).max(i64::MIN + 1));
                }
            }
        }
    }

    /// [`Matcher::run`](tgm_tag::Matcher::run).
    pub fn run(&self, events: &[Event], early_exit: bool) -> RunStats {
        self.run_core(events, early_exit, |_, e| self.ticks_at(e.time), None)
            .stats
    }

    /// [`run`](Self::run) under [`Limits`].
    pub fn run_bounded(&self, events: &[Event], early_exit: bool, limits: &Limits) -> BoundedRun {
        self.run_core(events, early_exit, |_, e| self.ticks_at(e.time), Some(limits))
    }

    /// [`run`](Self::run) reading the ticks of `events` from rows
    /// `offset..` of `cols`; clocks without a column resolve directly.
    pub fn run_columns(
        &self,
        events: &[Event],
        cols: &TickColumns,
        offset: usize,
        early_exit: bool,
    ) -> RunStats {
        assert!(offset + events.len() <= cols.len());
        let clock_cols: Vec<Option<usize>> =
            self.tag.clocks().iter().map(|(_, g)| cols.index_of(g)).collect();
        let ticks_at = |i: usize, e: &Event| {
            clock_cols
                .iter()
                .enumerate()
                .map(|(x, c)| match c {
                    Some(c) => cols.tick(*c, offset + i),
                    None => self.clock_tick(x, e.time),
                })
                .collect()
        };
        self.run_core(events, early_exit, ticks_at, None).stats
    }

    /// The indices of events at which some occurrence *completes* (a
    /// pattern transition into an accepting state fires): the completions
    /// a [`MatchSession`](tgm_tag::MatchSession) reports while replaying
    /// the sequence.
    pub fn completions(&self, events: &[Event]) -> Vec<usize> {
        let mut out = Vec::new();
        let Some(first) = events.first() else {
            return out;
        };
        let mut stats = RunStats::default();
        let mut frontier = self.initial_frontier(self.ticks_at(first.time));
        for (i, e) in events.iter().enumerate() {
            let (next, reached) = self.advance(&frontier, e, &self.ticks_at(e.time), &mut stats);
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

    /// [`Matcher::find_occurrence`](tgm_tag::Matcher::find_occurrence):
    /// the witness event indices of the first occurrence found.
    pub fn find_occurrence(&self, events: &[Event]) -> Option<Vec<usize>> {
        // Arena of configurations with provenance.
        struct Node {
            cfg: Config,
            parent: usize, // usize::MAX for roots
            event: usize,
            pattern: bool,
        }
        let first = events.first()?;
        let mut arena: Vec<Node> = Vec::new();
        let mut frontier: Vec<usize> = Vec::new();
        for cfg in self.initial_frontier(self.ticks_at(first.time)) {
            arena.push(Node {
                cfg,
                parent: usize::MAX,
                event: usize::MAX,
                pattern: false,
            });
            frontier.push(arena.len() - 1);
        }
        for (eidx, e) in events.iter().enumerate() {
            let cur_ticks = self.ticks_at(e.time);
            let mut next: Vec<usize> = Vec::new();
            let mut seen: HashSet<Config> = HashSet::new();
            for &node_idx in &frontier {
                let cfg = arena[node_idx].cfg.clone();
                for tr in self.tag.transitions_from(cfg.state) {
                    let Some(nc) = self.fire(&cfg, tr, e, &cur_ticks) else {
                        continue;
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

    /// Initial configurations from the clock ticks at the first instant.
    fn initial_frontier(&self, init_resets: Vec<Option<Tick>>) -> Vec<Config> {
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

    /// The canonical successor of `cfg` when `tr` fires at `e`, or `None`
    /// when it does not fire.
    fn fire(
        &self,
        cfg: &Config,
        tr: &tgm_tag::Transition,
        e: &Event,
        cur_ticks: &[Option<Tick>],
    ) -> Option<Config> {
        if !tr.symbol.matches(e.ty) || (self.anchored && !cfg.started && tr.is_skip) {
            return None;
        }
        let value = |x: ClockId| -> Option<i64> {
            match (cur_ticks[x.index()], cfg.resets[x.index()]) {
                (Some(cur), Some(reset)) => Some(cur.saturating_sub(reset)),
                _ => None,
            }
        };
        if tr.guard.eval(&value) != Some(true) {
            return None;
        }
        let mut resets = cfg.resets.clone();
        for &x in &tr.resets {
            resets[x.index()] = cur_ticks[x.index()];
        }
        self.canonicalize(&mut resets, cur_ticks);
        Some(Config {
            state: tr.to,
            started: cfg.started || !tr.is_skip,
            resets,
        })
    }

    /// Advances the frontier by one event given its clock ticks. Returns
    /// the next frontier and whether a pattern transition into an
    /// accepting state fired.
    fn advance(
        &self,
        frontier: &[Config],
        e: &Event,
        cur_ticks: &[Option<Tick>],
        stats: &mut RunStats,
    ) -> (Vec<Config>, bool) {
        stats.events += 1;
        let mut next: Vec<Config> = Vec::new();
        let mut next_seen: HashSet<Config> = HashSet::new();
        let mut reached_accepting = false;
        for cfg in frontier {
            for tr in self.tag.transitions_from(cfg.state) {
                let Some(nc) = self.fire(cfg, tr, e, cur_ticks) else {
                    continue;
                };
                stats.expansions += 1;
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
        stats.peak_configs = stats.peak_configs.max(next.len());
        (next, reached_accepting)
    }

    /// The NFA simulation, parameterized over how each event's clock ticks
    /// are obtained.
    fn run_core(
        &self,
        events: &[Event],
        early_exit: bool,
        mut ticks_at: impl FnMut(usize, &Event) -> Vec<Option<Tick>>,
        limits: Option<&Limits>,
    ) -> BoundedRun {
        let mut stats = RunStats::default();
        let done = |stats: RunStats, verdict: Verdict| BoundedRun { stats, verdict };

        // Empty input: accepted iff a start state is accepting.
        let Some(first) = events.first() else {
            stats.accepted = self
                .tag
                .start_states()
                .iter()
                .any(|&s| self.tag.is_accepting(s));
            return done(stats, Verdict::Completed);
        };

        let mut frontier = self.initial_frontier(ticks_at(0, first));
        if early_exit && frontier.iter().any(|c| self.tag.is_accepting(c.state)) {
            stats.accepted = true;
            return done(stats, Verdict::Completed);
        }

        for (i, e) in events.iter().enumerate() {
            // Same poll points as the lane engine's replay.
            if let Some(Err(int)) = limits.map(Limits::check) {
                return done(stats, int.into());
            }
            let cur_ticks = ticks_at(i, e);
            let (next, reached_accepting) = self.advance(&frontier, e, &cur_ticks, &mut stats);
            frontier = next;
            if early_exit && reached_accepting {
                stats.accepted = true;
                return done(stats, Verdict::Completed);
            }
            if frontier.is_empty() {
                break;
            }
            if limits.is_some_and(|l| l.budget_exceeded(stats.peak_configs as u64)) {
                return done(stats, Interrupt::BudgetExhausted.into());
            }
        }
        stats.accepted = frontier.iter().any(|c| self.tag.is_accepting(c.state));
        done(stats, Verdict::Completed)
    }
}
