//! Differential tests for bounded matcher runs: with [`Limits::none`] the
//! bounded lane-engine runs are bit-identical to the unbounded reference
//! engine, anchored and unanchored, direct and
//! column-reading; with a tight budget or deadline they stop
//! deterministically with a typed [`Verdict`] instead of running away; and
//! the lane and reference engines interrupt identically.

use std::time::{Duration, Instant};

mod common;

use common::reference::Reference;
use common::{all_option_combos, grans, DAY};
use tgm_core::{ComplexEventType, StructureBuilder, Tcg};
use tgm_events::{Event, EventType, TickColumns};
use tgm_granularity::Gran;
use tgm_limits::{CancelToken, Interrupt, Limits, Verdict};
use tgm_tag::{build_tag, BoundedRun, Matcher, MatcherScratch, RunCtx, Tag};

/// A three-variable chain over mixed granularities with enough events to
/// make the matcher do real frontier work.
fn fixture() -> (Tag, Vec<Event>) {
    let gs = grans();
    let mut b = StructureBuilder::new();
    let x0 = b.var("X0");
    let x1 = b.var("X1");
    let x2 = b.var("X2");
    b.constrain(x0, x1, Tcg::new(0, 2, gs[1].clone())); // 0..2 days
    b.constrain(x1, x2, Tcg::new(0, 1, gs[2].clone())); // same/next week
    let s = b.build().unwrap();
    let cet = ComplexEventType::new(s, vec![EventType(0), EventType(1), EventType(2)]);
    let tag = build_tag(&cet);
    // Monday 2000-01-03 onward, interleaved types every 6 hours.
    let events: Vec<Event> = (0..48)
        .map(|i| Event::new(EventType(i % 3), 2 * DAY + i as i64 * 6 * 3_600))
        .collect();
    (tag, events)
}

/// A lane-engine run of `events` under `limits`, reading `cols` when given.
fn bounded(
    m: &Matcher<'_>,
    events: &[Event],
    cols: Option<(&TickColumns, usize)>,
    early_exit: bool,
    limits: &Limits,
) -> BoundedRun {
    let mut scratch = MatcherScratch::new();
    let mut ctx = RunCtx {
        cols,
        limits: Some(limits),
        ..RunCtx::new(&mut scratch)
    };
    m.run_in(events, early_exit, &mut ctx)
}

/// [`Matcher::find_occurrence_in`] under `limits`.
fn find_bounded(m: &Matcher<'_>, events: &[Event], limits: &Limits) -> Result<Option<Vec<usize>>, Interrupt> {
    let mut scratch = MatcherScratch::new();
    let mut ctx = RunCtx {
        limits: Some(limits),
        ..RunCtx::new(&mut scratch)
    };
    m.find_occurrence_in(events, &mut ctx)
}

#[test]
fn none_limits_bit_identical_all_combos() {
    let (tag, events) = fixture();
    let grans: Vec<Gran> = tag.clocks().iter().map(|(_, g)| g.clone()).collect();
    let cols = TickColumns::build(&events, &grans);
    let none = Limits::none();
    for opts in all_option_combos() {
        let m = Matcher::with_options(&tag, opts);
        let r = Reference::new(&tag, opts);
        for early_exit in [false, true] {
            let free = r.run(&events, early_exit);
            let run = bounded(&m, &events, None, early_exit, &none);
            assert_eq!(run.verdict, Verdict::Completed, "{opts:?}");
            assert_eq!(run.stats, free, "direct {opts:?} early_exit={early_exit}");

            let free_cols = r.run_columns(&events, &cols, 0, early_exit);
            let bounded_cols = bounded(&m, &events, Some((&cols, 0)), early_exit, &none);
            assert_eq!(bounded_cols.verdict, Verdict::Completed);
            assert_eq!(
                bounded_cols.stats, free_cols,
                "columns {opts:?} early_exit={early_exit}"
            );

            let bounded_ref = r.run_bounded(&events, early_exit, &none);
            assert_eq!(bounded_ref.verdict, Verdict::Completed);
            assert_eq!(bounded_ref.stats, free, "reference {opts:?}");
        }
        let free = r.find_occurrence(&events);
        let found = find_bounded(&m, &events, &none).expect("no limits, no interrupt");
        assert_eq!(found, free, "find_occurrence {opts:?}");
    }
}

#[test]
fn tiny_budget_exhausts_deterministically() {
    let (tag, events) = fixture();
    let m = Matcher::new(&tag);
    let limits = Limits::none().with_budget(2);
    let a = bounded(&m, &events, None, false, &limits);
    let b = bounded(&m, &events, None, false, &limits);
    assert_eq!(
        a.verdict,
        Verdict::Interrupted(Interrupt::BudgetExhausted),
        "a 2-row budget cannot fit this frontier"
    );
    assert_eq!(a.verdict, b.verdict);
    assert_eq!(a.stats, b.stats, "exhaustion must be deterministic");
    // The consumed prefix is a real prefix: fewer events than the input.
    assert!(a.stats.events < events.len());
}

#[test]
fn lane_and_reference_interrupt_identically() {
    let (tag, events) = fixture();
    let m = Matcher::new(&tag);
    let r = Reference::new(&tag, Default::default());
    for budget in [1u64, 2, 4, 8, 1 << 40] {
        let limits = Limits::none().with_budget(budget);
        let lane = bounded(&m, &events, None, false, &limits);
        let reference = r.run_bounded(&events, false, &limits);
        assert_eq!(lane.verdict, reference.verdict, "budget={budget}");
        assert_eq!(lane.stats, reference.stats, "budget={budget}");
    }
}

#[test]
fn expired_deadline_interrupts_immediately() {
    let (tag, events) = fixture();
    let m = Matcher::new(&tag);
    let limits = Limits::none().with_deadline(Instant::now() - Duration::from_secs(1));
    let run = bounded(&m, &events, None, false, &limits);
    assert_eq!(run.verdict, Verdict::Interrupted(Interrupt::DeadlineExceeded));
    assert_eq!(run.stats.events, 0, "no event may be consumed past the deadline");
    let err = find_bounded(&m, &events, &limits).unwrap_err();
    assert_eq!(err, Interrupt::DeadlineExceeded);
}

#[test]
fn cancelled_token_interrupts() {
    let (tag, events) = fixture();
    let m = Matcher::new(&tag);
    let token = CancelToken::new();
    token.cancel();
    let limits = Limits::none().with_cancel(token);
    let run = bounded(&m, &events, None, false, &limits);
    assert_eq!(run.verdict, Verdict::Interrupted(Interrupt::Cancelled));
    let err = bounded(&m, &events, None, true, &limits)
        .acceptance()
        .unwrap_err();
    assert_eq!(err, Interrupt::Cancelled);
}

#[test]
fn generous_limits_complete_identically() {
    let (tag, events) = fixture();
    let m = Matcher::new(&tag);
    let limits = Limits::none()
        .with_timeout(Duration::from_secs(600))
        .with_budget(1 << 40);
    let free = Reference::new(&tag, Default::default()).run(&events, false);
    let run = bounded(&m, &events, None, false, &limits);
    assert_eq!(run.verdict, Verdict::Completed);
    assert_eq!(run.stats, free);
}
