//! Differential property tests for the lane engine: on randomized TAGs
//! (built from random chain structures) and randomized event sequences,
//! [`Matcher::run_in`] must produce *bit-identical* [`RunStats`] — and
//! [`Matcher::find_occurrence_in`] identical occurrence witnesses — to the
//! independent reference engine, anchored and unanchored, for direct,
//! column-reading, early-exit, and suffix-offset runs alike.
//!
//! [`RunStats`]: tgm_tag::RunStats

mod common;

use common::reference::Reference;
use common::{all_option_combos, build_random_tag, events_from};
use proptest::prelude::*;
use tgm_events::TickColumns;
use tgm_granularity::Gran;
use tgm_tag::{Matcher, MatcherScratch, RunCtx};

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
        let events = events_from(&raw_events);
        let tag_grans: Vec<Gran> = tag.clocks().iter().map(|(_, g)| g.clone()).collect();
        let cols = TickColumns::build(&events, &tag_grans);
        let start = start.min(events.len().saturating_sub(1));
        let slice = &events[start..];

        // One scratch reused across every combination: reuse must not
        // leak state between runs of different options or engines.
        let mut scratch = MatcherScratch::new();
        for opts in all_option_combos() {
            let m = Matcher::with_options(&tag, opts);
            let r = Reference::new(&tag, opts);
            for early_exit in [false, true] {
                let reference = r.run(&events, early_exit);
                let lane = m.run_in(&events, early_exit, &mut RunCtx::new(&mut scratch));
                prop_assert_eq!(reference, lane.stats, "run, opts {:?}", opts);

                let reference = r.run_columns(slice, &cols, start, early_exit);
                let mut ctx = RunCtx { cols: Some((&cols, start)), ..RunCtx::new(&mut scratch) };
                let lane = m.run_in(slice, early_exit, &mut ctx);
                prop_assert_eq!(reference, lane.stats, "run with columns, opts {:?}", opts);
            }
            prop_assert_eq!(
                Ok(r.find_occurrence(&events)),
                m.find_occurrence_in(&events, &mut RunCtx::new(&mut scratch)),
                "find_occurrence, opts {:?}",
                opts
            );
            let mut ctx = RunCtx { cols: Some((&cols, start)), ..RunCtx::new(&mut scratch) };
            prop_assert_eq!(
                Ok(r.find_occurrence(slice)),
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
        let r = Reference::new(&tag, opts);
        for early_exit in [false, true] {
            assert_eq!(
                r.run(&[], early_exit),
                m.run_in(&[], early_exit, &mut RunCtx::new(&mut scratch)).stats,
                "opts {opts:?}"
            );
        }
        assert_eq!(r.find_occurrence(&[]), None);
        assert_eq!(m.find_occurrence_in(&[], &mut RunCtx::new(&mut scratch)), Ok(None));
    }
}
