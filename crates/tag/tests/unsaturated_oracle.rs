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
//! the oracle's, under every `MatchOptions` combination.

use std::collections::HashSet;

use proptest::prelude::*;
use tgm_core::{ComplexEventType, StructureBuilder, Tcg};
use tgm_events::{Event, EventType};
use tgm_granularity::{Calendar, Gran, Granularity, Tick};
use tgm_tag::{build_tag, ClockId, MatchOptions, MatchSession, Matcher, StateId, Tag};

const DAY: i64 = 86_400;

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

/// The unsaturated, unabstracted forward simulation of `tag` over `events`.
fn oracle(tag: &Tag, opts: MatchOptions, events: &[Event]) -> OracleRun {
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
        if !(opts.strict_updates && cur.contains(&None)) {
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

fn grans() -> Vec<Gran> {
    let cal = Calendar::standard();
    ["hour", "day", "week", "business-day"]
        .iter()
        .map(|n| cal.get(n).unwrap())
        .collect()
}

fn all_option_combos() -> Vec<MatchOptions> {
    (0..4u32)
        .map(|bits| {
            MatchOptions::builder()
                .anchored(bits & 1 != 0)
                .strict_updates(bits & 2 != 0)
                .build()
        })
        .collect()
}

/// Builds a chain-structured complex event type and its TAG from the
/// proptest-drawn parameters.
fn build_random_tag(
    chain_len: usize,
    gran_picks: &[usize],
    bounds: &[(u64, u64)],
    phi_picks: &[u32],
) -> Tag {
    let gs = grans();
    let mut b = StructureBuilder::new();
    let vars: Vec<_> = (0..chain_len).map(|i| b.var(format!("X{i}"))).collect();
    for i in 1..chain_len {
        let (lo, w) = bounds[i - 1];
        let g = gs[gran_picks[i - 1] % gs.len()].clone();
        b.constrain(vars[i - 1], vars[i], Tcg::new(lo, lo + w, g));
    }
    let s = b.build().unwrap();
    let phi: Vec<EventType> = (0..chain_len)
        .map(|i| {
            if i == 0 {
                EventType(0)
            } else {
                EventType(phi_picks[i - 1])
            }
        })
        .collect();
    build_tag(&ComplexEventType::new(s, phi))
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
        let mut events: Vec<Event> = raw_events
            .iter()
            .map(|&(ty, step)| Event::new(EventType(ty), 2 * DAY + step * 6 * 3_600))
            .collect();
        events.sort_by_key(|e| e.time);
        for opts in all_option_combos() {
            let want = oracle(&tag, opts, &events);
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
