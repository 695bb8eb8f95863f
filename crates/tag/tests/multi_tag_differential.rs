//! Differential property tests for the multi-TAG shared-scan engine: on
//! randomized candidate sets (sibling assignments of a random chain
//! structure, optionally mixed with a structurally different tag so runs
//! span several lanes), [`MultiMatcher`] must produce *bit-identical*
//! per-candidate [`RunStats`](tgm_tag::RunStats) to running the
//! independent reference engine — the oracle — one tag at a time,
//! anchored and unanchored, for direct, column-reading, early-exit, and
//! suffix-offset runs alike, and under bounded execution with typed
//! verdicts.

mod common;

use common::reference::Reference;
use common::{all_option_combos, events_from, grans, DAY};
use proptest::prelude::*;
use tgm_core::{StructureBuilder, Tcg};
use tgm_events::{Event, EventType, TickColumns};
use tgm_granularity::Gran;
use tgm_limits::{Interrupt, Limits};
use tgm_tag::{MatchOptions, MatcherScratch, MultiMatcher, MultiRun, RunCtx, Tag, TagTemplate};

/// A random chain-structure template: `chain_len` variables, random
/// granularities and bounds on the arcs.
fn build_template(chain_len: usize, gran_picks: &[usize], bounds: &[(u64, u64)]) -> TagTemplate {
    let gs = grans();
    let mut b = StructureBuilder::new();
    let vars: Vec<_> = (0..chain_len).map(|i| b.var(format!("X{i}"))).collect();
    for i in 1..chain_len {
        let (lo, w) = bounds[i - 1];
        let g = gs[gran_picks[i - 1] % gs.len()].clone();
        b.constrain(vars[i - 1], vars[i], Tcg::new(lo, lo + w, g));
    }
    TagTemplate::new(&b.build().unwrap())
}

/// Per-candidate oracle: the reference engine run one tag at a time,
/// reading `cols` from row `offset` when given.
fn oracle_runs(
    tags: &[Tag],
    opts: MatchOptions,
    events: &[Event],
    cols: Option<(&TickColumns, usize)>,
    early_exit: bool,
) -> Vec<tgm_tag::RunStats> {
    tags.iter()
        .map(|t| {
            let r = Reference::new(t, opts);
            match cols {
                Some((cols, offset)) => r.run_columns(events, cols, offset, early_exit),
                None => r.run(events, early_exit),
            }
        })
        .collect()
}

/// One multi run in a fresh context with the given inputs.
fn multi_run(
    mm: &MultiMatcher<'_>,
    events: &[Event],
    early_exit: bool,
    scratch: &mut MatcherScratch,
    cols: Option<(&TickColumns, usize)>,
    limits: Option<&Limits>,
) -> MultiRun {
    mm.run_in(events, early_exit, &mut RunCtx { scratch, cols, limits })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shared_scan_bit_identical_to_per_candidate(
        chain_len in 2usize..4,
        gran_picks in proptest::collection::vec(0usize..4, 3),
        bounds in proptest::collection::vec((0u64..3, 0u64..3), 3),
        // Candidate assignments: each a φ over a 4-type pool.
        phis in proptest::collection::vec(
            proptest::collection::vec(0u32..4, 4), 1..7),
        mix_other in any::<bool>(),
        raw_events in proptest::collection::vec((0u32..4, 0i64..60), 1..40),
        start in 0usize..8,
    ) {
        let template = build_template(chain_len, &gran_picks, &bounds);
        let mut tags: Vec<Tag> = phis
            .iter()
            .map(|p| {
                let phi: Vec<EventType> = p.iter().map(|&t| EventType(t)).collect();
                template.instantiate(&phi)
            })
            .collect();
        if mix_other {
            // A different skeleton (other chain length / granularity), so
            // the run exercises the multi-lane path.
            let other = build_template(chain_len + 1, &[2, 1, 3], &[(1, 1), (0, 2), (1, 0)]);
            tags.push(other.instantiate(&[
                EventType(0),
                EventType(1),
                EventType(2),
                EventType(3),
            ]));
        }
        let events = events_from(&raw_events);
        // Columns over the union of every candidate's clock granularities.
        let mut all_grans: Vec<Gran> = Vec::new();
        for t in &tags {
            for (_, g) in t.clocks() {
                if !all_grans.contains(g) {
                    all_grans.push(g.clone());
                }
            }
        }
        let cols = TickColumns::build(&events, &all_grans);
        let start = start.min(events.len().saturating_sub(1));
        let slice = &events[start..];

        let mut mscratch = MatcherScratch::new();
        for opts in all_option_combos() {
            let mm = MultiMatcher::with_options(tags.iter().collect(), opts);
            for early_exit in [false, true] {
                let want = oracle_runs(&tags, opts, &events, None, early_exit);
                let got = multi_run(&mm, &events, early_exit, &mut mscratch, None, None);
                prop_assert!(got.verdict.is_complete());
                prop_assert_eq!(&want, &got.stats, "run, opts {:?}", opts);

                // Column-reading suffix run vs the oracle's column run.
                let want_cols = oracle_runs(&tags, opts, slice, Some((&cols, start)), early_exit);
                let got_cols =
                    multi_run(&mm, slice, early_exit, &mut mscratch, Some((&cols, start)), None);
                prop_assert_eq!(&want_cols, &got_cols.stats, "run with columns, opts {:?}", opts);

                // Limits::none() must not perturb anything and completes.
                let none = Limits::none();
                let bounded = multi_run(&mm, &events, early_exit, &mut mscratch, None, Some(&none));
                prop_assert!(bounded.verdict.is_complete());
                prop_assert_eq!(&want, &bounded.stats, "bounded none, opts {:?}", opts);

                // A zero budget either completes (frontier emptied before
                // any pooled row survived an event) with identical stats,
                // or trips the typed budget verdict.
                let zero = Limits::none().with_budget(0);
                let tight = multi_run(&mm, &events, early_exit, &mut mscratch, None, Some(&zero));
                match tight.verdict.interrupt() {
                    None => prop_assert_eq!(&want, &tight.stats, "tight-completed {:?}", opts),
                    Some(i) => prop_assert_eq!(i, Interrupt::BudgetExhausted),
                }
            }
        }
    }

    /// Candidate-set composition is irrelevant: any subset scanned
    /// together gives each member the stats it gets scanned alone (with
    /// obs on, to cover the instrumented path).
    #[test]
    fn arbitrary_subsets_obs_on(
        subset_mask in 1u32..63,
        raw_events in proptest::collection::vec((0u32..4, 0i64..40), 1..30),
    ) {
        tgm_obs::set_enabled(true);
        let template = build_template(3, &[1, 2], &[(0, 2), (1, 1)]);
        let pool: Vec<Tag> = (0..6)
            .map(|i| {
                template.instantiate(&[
                    EventType(i % 4),
                    EventType((i + 1) % 4),
                    EventType((i + 2) % 4),
                ])
            })
            .collect();
        let tags: Vec<&Tag> = pool
            .iter()
            .enumerate()
            .filter(|(i, _)| subset_mask & (1 << i) != 0)
            .map(|(_, t)| t)
            .collect();
        let events = events_from(&raw_events);
        let opts = MatchOptions::default();
        let mm = MultiMatcher::with_options(tags.clone(), opts);
        let got = multi_run(&mm, &events, true, &mut MatcherScratch::new(), None, None).stats;
        for (k, t) in tags.iter().enumerate() {
            let want = Reference::new(t, opts).run(&events, true);
            prop_assert_eq!(got[k], want, "member {}", k);
        }
        tgm_obs::set_enabled(false);
    }
}

/// Shared scan over sibling candidates == per-candidate runs, on a fixed
/// small world: one day-bounded chain instantiated for six types, with
/// events every eight hours.
#[test]
fn sibling_candidates_bit_identical() {
    let template = build_template(2, &[1], &[(0, 2)]);
    let tys: Vec<EventType> = (0..6).map(EventType).collect();
    let tags: Vec<Tag> = tys
        .iter()
        .map(|&t| template.instantiate(&[tys[0], t]))
        .collect();
    let events: Vec<Event> = (0..40)
        .map(|i| Event::new(tys[(i % 5) as usize], i * DAY / 3 + 2 * DAY))
        .collect();
    for opts in all_option_combos() {
        let mm = MultiMatcher::with_options(tags.iter().collect(), opts);
        for early_exit in [false, true] {
            let got = multi_run(&mm, &events, early_exit, &mut MatcherScratch::new(), None, None);
            let want = oracle_runs(&tags, opts, &events, None, early_exit);
            assert_eq!(got.stats, want, "early_exit={early_exit}, {opts:?}");
        }
    }
}

/// A deadline already in the past interrupts with the typed verdict before
/// any event is consumed.
#[test]
fn past_deadline_typed_verdict() {
    let template = build_template(2, &[1], &[(0, 2)]);
    let tags: Vec<Tag> = (0..4)
        .map(|i| template.instantiate(&[EventType(0), EventType(i)]))
        .collect();
    let events: Vec<Event> = (0..10)
        .map(|i| Event::new(EventType(i % 4), 2 * DAY + i as i64 * 3_600))
        .collect();
    let mm = MultiMatcher::new(tags.iter().collect());
    let past = Limits::none()
        .with_deadline(std::time::Instant::now() - std::time::Duration::from_secs(1));
    let run = multi_run(&mm, &events, false, &mut MatcherScratch::new(), None, Some(&past));
    assert_eq!(run.verdict.interrupt(), Some(Interrupt::DeadlineExceeded));
    for s in &run.stats {
        assert!(!s.accepted);
        assert_eq!(s.events, 0);
    }
}

/// Cancellation via a shared token interrupts with the typed verdict.
#[test]
fn cancelled_token_typed_verdict() {
    let template = build_template(2, &[1], &[(0, 2)]);
    let t0 = template.instantiate(&[EventType(0), EventType(1)]);
    let events: Vec<Event> = (0..10)
        .map(|i| Event::new(EventType(i % 2), 2 * DAY + i as i64 * 3_600))
        .collect();
    let mm = MultiMatcher::new(vec![&t0]);
    let token = tgm_limits::CancelToken::new();
    token.cancel();
    let cancelled = Limits::none().with_cancel(token);
    let run = multi_run(&mm, &events, false, &mut MatcherScratch::new(), None, Some(&cancelled));
    assert_eq!(run.verdict.interrupt(), Some(Interrupt::Cancelled));
}
