//! Helpers shared by the `tgm-tag` integration tests: the option values,
//! the random chain-structured TAGs of the property tests, and the
//! reference engine that the differentials compare against.

// Every test binary compiles its own copy and uses a different subset.
#![allow(dead_code)]

pub mod reference;

use tgm_core::{ComplexEventType, StructureBuilder, Tcg};
use tgm_events::{Event, EventType};
use tgm_granularity::{Calendar, Gran};
use tgm_tag::{build_tag, MatchOptions, Tag};

pub const DAY: i64 = 86_400;

/// Both `MatchOptions` values: unanchored and anchored.
pub fn all_option_combos() -> Vec<MatchOptions> {
    vec![MatchOptions { anchored: false }, MatchOptions { anchored: true }]
}

/// The clock granularities the random TAGs draw from; `business-day` has
/// gaps, so some events are uncovered.
pub fn grans() -> Vec<Gran> {
    let cal = Calendar::standard();
    ["hour", "day", "week", "business-day"]
        .iter()
        .map(|n| cal.get(n).unwrap())
        .collect()
}

/// Builds a chain-structured complex event type and its TAG from the
/// proptest-drawn parameters.
pub fn build_random_tag(
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

/// Events from proptest-drawn `(type, step)` pairs, in time order: steps
/// are quarter days from Monday 2000-01-03, so business-day gaps occur.
pub fn events_from(raw: &[(u32, i64)]) -> Vec<Event> {
    let mut events: Vec<Event> = raw
        .iter()
        .map(|&(ty, step)| Event::new(EventType(ty), 2 * DAY + step * 6 * 3_600))
        .collect();
    events.sort_by_key(|e| e.time);
    events
}
