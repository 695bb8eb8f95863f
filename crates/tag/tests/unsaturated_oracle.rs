//! Soundness of clock-reading saturation against an independent oracle.
//!
//! Every production engine canonicalizes configurations by saturating
//! clock readings past their clock's largest guard constant (Theorem 4's
//! frontier bound). The oracle below is a plain forward simulation over
//! the public [`Tag`] API that never canonicalizes: a configuration keeps
//! the exact covering tick of every clock reset, and the frontier is
//! deduplicated only on exact equality. On randomized TAGs and short
//! inputs, [`Matcher::run`] acceptance (full and early-exit) and
//! [`MatchSession`] per-event completions (plain and evicting) must equal
//! the oracle's, anchored and unanchored.
//!
//! The oracle also implements the paper's *strict* clock updates (§4): a
//! configuration dies on any event some clock granularity does not cover.
//! The engines implement only the lazy semantics, which coincides with the
//! strict one on input pre-filtered to events every clock granularity
//! covers (the miner's step 2); the second property pins that.

mod common;

use std::collections::HashSet;

use common::{all_option_combos, build_random_tag, events_from};
use proptest::prelude::*;
use tgm_events::Event;
use tgm_granularity::{Granularity, Tick};
use tgm_tag::{ClockId, MatchOptions, MatchSession, Matcher, StateId, Tag};

/// An unsaturated configuration: state, started flag, exact reset ticks.
type Config = (StateId, bool, Vec<Option<Tick>>);

/// What the oracle observed over one input.
struct OracleRun {
    /// Indices of the events at which a pattern transition into an
    /// accepting state fired.
    completions: Vec<usize>,
    /// Whether the frontier after the last event holds an accepting state.
    accepted: bool,
    /// Whether some prefix is accepted: a start state is accepting or an
    /// occurrence completes.
    prefix_accepted: bool,
}

/// The unsaturated, unabstracted forward simulation of `tag` over
/// `events`, with strict clock updates when `strict` is set.
fn oracle(tag: &Tag, opts: MatchOptions, strict: bool, events: &[Event]) -> OracleRun {
    let ticks_at = |t| -> Vec<Option<Tick>> {
        tag.clocks()
            .iter()
            .map(|(_, g)| g.covering_tick(t))
            .collect()
    };
    let mut frontier: HashSet<Config> = match events.first() {
        Some(e) => {
            let init = ticks_at(e.time);
            tag.start_states()
                .iter()
                .map(|&s| (s, false, init.clone()))
                .collect()
        }
        None => tag
            .start_states()
            .iter()
            .map(|&s| (s, false, Vec::new()))
            .collect(),
    };
    let mut completions = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let cur = ticks_at(e.time);
        let mut next = HashSet::new();
        if !(strict && cur.contains(&None)) {
            for (state, started, resets) in &frontier {
                for tr in tag.transitions_from(*state) {
                    if !tr.symbol.matches(e.ty) || (opts.anchored && !started && tr.is_skip) {
                        continue;
                    }
                    let value = |x: ClockId| match (cur[x.index()], resets[x.index()]) {
                        (Some(c), Some(r)) => Some(c.saturating_sub(r)),
                        _ => None,
                    };
                    if tr.guard.eval(&value) != Some(true) {
                        continue;
                    }
                    let mut resets = resets.clone();
                    for &x in &tr.resets {
                        resets[x.index()] = cur[x.index()];
                    }
                    if tag.is_accepting(tr.to) && !tr.is_skip && completions.last() != Some(&i) {
                        completions.push(i);
                    }
                    next.insert((tr.to, *started || !tr.is_skip, resets));
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    let start_accepting = tag.start_states().iter().any(|&s| tag.is_accepting(s));
    OracleRun {
        accepted: frontier.iter().any(|(s, _, _)| tag.is_accepting(*s)),
        prefix_accepted: start_accepting || !completions.is_empty(),
        completions,
    }
}

/// Per-event completion indices of a session replaying `events`.
fn session_completions(mut session: MatchSession<'_>, events: &[Event]) -> Vec<usize> {
    (0..events.len())
        .filter(|&i| session.push(events[i]).completed())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn saturated_engines_agree_with_unsaturated_oracle(
        chain_len in 2usize..4,
        gran_picks in proptest::collection::vec(0usize..4, 3),
        bounds in proptest::collection::vec((0u64..3, 0u64..3), 3),
        phi_picks in proptest::collection::vec(0u32..3, 3),
        raw_events in proptest::collection::vec((0u32..4, 0i64..60), 0..24),
    ) {
        let tag = build_random_tag(chain_len, &gran_picks, &bounds, &phi_picks);
        // Events over ~15 days from Monday 2000-01-03 in quarter-day steps,
        // so business-day gaps occur and readings outgrow every guard
        // constant (the saturating engines then merge what the oracle
        // keeps apart).
        let events = events_from(&raw_events);
        for opts in all_option_combos() {
            let want = oracle(&tag, opts, false, &events);
            let m = Matcher::with_options(&tag, opts);
            prop_assert_eq!(m.run(&events, false).accepted, want.accepted, "full run, {:?}", opts);
            prop_assert_eq!(
                m.run(&events, true).accepted,
                want.prefix_accepted,
                "early exit, {:?}",
                opts
            );
            let plain = MatchSession::with_options(&tag, opts);
            prop_assert_eq!(
                &session_completions(plain, &events),
                &want.completions,
                "session completions, {:?}",
                opts
            );
            let evicting = MatchSession::with_options(&tag, opts).with_eviction();
            prop_assert_eq!(
                &session_completions(evicting, &events),
                &want.completions,
                "evicting session completions, {:?}",
                opts
            );
        }
    }
}

/// The miner's step 2: keeps the events every clock granularity of `tag`
/// covers.
fn prefilter(tag: &Tag, events: Vec<Event>) -> Vec<Event> {
    events
        .into_iter()
        .filter(|e| tag.clocks().iter().all(|(_, g)| g.covering_tick(e.time).is_some()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lazy engines ≡ the strict oracle on pre-filtered input: full and
    /// early-exit acceptance and per-event session completions.
    #[test]
    fn lazy_engines_agree_with_strict_oracle_on_covered_input(
        chain_len in 2usize..4,
        gran_picks in proptest::collection::vec(0usize..4, 3),
        bounds in proptest::collection::vec((0u64..3, 0u64..3), 3),
        phi_picks in proptest::collection::vec(0u32..3, 3),
        raw_events in proptest::collection::vec((0u32..4, 0i64..60), 0..24),
    ) {
        let tag = build_random_tag(chain_len, &gran_picks, &bounds, &phi_picks);
        let events = prefilter(&tag, events_from(&raw_events));
        for opts in all_option_combos() {
            let want = oracle(&tag, opts, true, &events);
            let m = Matcher::with_options(&tag, opts);
            prop_assert_eq!(m.run(&events, false).accepted, want.accepted, "full run, {:?}", opts);
            prop_assert_eq!(
                m.run(&events, true).accepted,
                want.prefix_accepted,
                "early exit, {:?}",
                opts
            );
            let session = MatchSession::with_options(&tag, opts);
            prop_assert_eq!(
                &session_completions(session, &events),
                &want.completions,
                "session completions, {:?}",
                opts
            );
        }
    }
}

/// The strict oracle is not the lazy one: an event in a business-day gap
/// kills every strict run but is skipped lazily, and dropping it (the
/// pre-filter) makes the two agree again.
#[test]
fn strict_oracle_kills_runs_on_gaps() {
    // X0 -> X1 exactly one business day apart, φ = (type 0, type 1).
    let tag = build_random_tag(2, &[3], &[(1, 0)], &[1]);
    // Quarter-day steps from Monday 2000-01-03: A on Friday 2000-01-07,
    // noise on Saturday, B on Monday 2000-01-10.
    let events = events_from(&[(0, 16), (2, 20), (1, 28)]);
    let lazy = oracle(&tag, MatchOptions::default(), false, &events);
    let strict = oracle(&tag, MatchOptions::default(), true, &events);
    assert_eq!(lazy.completions, vec![2]);
    assert!(strict.completions.is_empty() && !strict.accepted);
    assert!(Matcher::new(&tag).accepts(&events));

    let covered = prefilter(&tag, events);
    assert_eq!(covered.len(), 2);
    let strict = oracle(&tag, MatchOptions::default(), true, &covered);
    assert_eq!(strict.completions, vec![1]);
    assert!(Matcher::new(&tag).accepts(&covered));
}
