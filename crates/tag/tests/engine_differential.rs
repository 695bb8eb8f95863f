//! Differential property tests for the lane engine: on randomized TAGs
//! (built from random chain structures) and randomized event sequences,
//! [`Matcher::run_in`] must produce *bit-identical* [`RunStats`] — and
//! [`Matcher::find_occurrence_in`] identical occurrence witnesses — to the
//! independent reference engine, under every `MatchOptions` combination,
//! for direct, column-reading, early-exit, and suffix-offset runs alike.

use proptest::prelude::*;
use tgm_core::{ComplexEventType, StructureBuilder, Tcg};
use tgm_events::{Event, EventType, TickColumns};
use tgm_granularity::{Calendar, Gran};
use tgm_tag::{build_tag, MatchOptions, Matcher, MatcherScratch, RunCtx, Tag};

const DAY: i64 = 86_400;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lane_engine_bit_identical_to_reference(
        chain_len in 2usize..4,
        gran_picks in proptest::collection::vec(0usize..4, 3),
        bounds in proptest::collection::vec((0u64..3, 0u64..3), 3),
        phi_picks in proptest::collection::vec(0u32..3, 3),
        raw_events in proptest::collection::vec((0u32..4, 0i64..60), 1..40),
        start in 0usize..8,
    ) {
        let tag = build_random_tag(chain_len, &gran_picks, &bounds, &phi_picks);
        // Events over ~15 days starting Monday 2000-01-03 (quarter-day
        // steps, so business-day gaps occur), in time order.
        let mut events: Vec<Event> = raw_events
            .iter()
            .map(|&(ty, step)| Event::new(EventType(ty), 2 * DAY + step * 6 * 3_600))
            .collect();
        events.sort_by_key(|e| e.time);
        let tag_grans: Vec<Gran> = tag.clocks().iter().map(|(_, g)| g.clone()).collect();
        let cols = TickColumns::build(&events, &tag_grans);
        let start = start.min(events.len().saturating_sub(1));
        let slice = &events[start..];

        // One scratch reused across every combination: reuse must not
        // leak state between runs of different options or engines.
        let mut scratch = MatcherScratch::new();
        for opts in all_option_combos() {
            let m = Matcher::with_options(&tag, opts);
            for early_exit in [false, true] {
                let reference = m.run_reference(&events, early_exit);
                let lane = m.run_in(&events, early_exit, &mut RunCtx::new(&mut scratch));
                prop_assert_eq!(reference, lane.stats, "run, opts {:?}", opts);

                let reference =
                    m.run_columns_reference(slice, &cols, start, early_exit);
                let mut ctx = RunCtx { cols: Some((&cols, start)), ..RunCtx::new(&mut scratch) };
                let lane = m.run_in(slice, early_exit, &mut ctx);
                prop_assert_eq!(reference, lane.stats, "run with columns, opts {:?}", opts);
            }
            prop_assert_eq!(
                Ok(m.find_occurrence_reference(&events)),
                m.find_occurrence_in(&events, &mut RunCtx::new(&mut scratch)),
                "find_occurrence, opts {:?}",
                opts
            );
            let mut ctx = RunCtx { cols: Some((&cols, start)), ..RunCtx::new(&mut scratch) };
            prop_assert_eq!(
                Ok(m.find_occurrence_reference(slice)),
                m.find_occurrence_in(slice, &mut ctx),
                "find_occurrence with columns, opts {:?}",
                opts
            );
        }
    }
}

#[test]
fn engines_agree_on_empty_input() {
    let tag = build_random_tag(2, &[1], &[(1, 0)], &[1]);
    let mut scratch = MatcherScratch::new();
    for opts in all_option_combos() {
        let m = Matcher::with_options(&tag, opts);
        for early_exit in [false, true] {
            assert_eq!(
                m.run_reference(&[], early_exit),
                m.run_in(&[], early_exit, &mut RunCtx::new(&mut scratch)).stats,
                "opts {opts:?}"
            );
        }
        assert_eq!(m.find_occurrence_reference(&[]), None);
        assert_eq!(m.find_occurrence_in(&[], &mut RunCtx::new(&mut scratch)), Ok(None));
    }
}
