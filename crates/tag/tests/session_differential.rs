//! Differential tests for [`MatchSession`]: replaying a stream through a
//! session must be *bit-identical* — stats and completion occurrences —
//! to the independent reference engine (`Reference::run`,
//! `Reference::run_columns`, `Reference::completions`) and to the batch
//! entry points, anchored and unanchored, under any push-chunking;
//! suspending and resuming at any cut point must not change anything; and
//! per-state extrapolation keeps the frontier within the Theorem 4 bound,
//! merging rows the global caps keep apart.

mod common;

use common::reference::Reference;
use common::{
    all_option_combos, build_random_forked_tag, build_random_tag, events_from, DAY,
};
use proptest::prelude::*;
use tgm_events::{Event, EventType, TickColumns};
use tgm_granularity::Gran;
use tgm_limits::{Limits, Verdict};
use tgm_tag::{ClockConstraint, MatchOptions, MatchSession, Matcher, Push, Symbol, TagBuilder};

/// Splits `events` into chunks whose sizes cycle through `chunking`
/// (zero sizes are bumped to one), covering the whole slice.
fn push_chunked(session: &mut MatchSession<'_>, events: &[Event], chunking: &[usize]) {
    let mut rest = events;
    let mut k = 0;
    while !rest.is_empty() {
        let take = chunking[k % chunking.len()].min(rest.len());
        let (chunk, tail) = rest.split_at(take.max(1).min(rest.len()));
        session.push_batch(chunk);
        rest = tail;
        k += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The acceptance-criteria differential: anchored and unanchored,
    /// a session replay of the stream — under an arbitrary push-chunking —
    /// finalizes to the reference engine's run (and the batch `run`), its
    /// completion indices equal the reference engine's, and the
    /// column-reading `push_row` path reproduces the reference column run
    /// the same way.
    #[test]
    fn session_replay_bit_identical_to_batch(
        chain_len in 2usize..4,
        gran_picks in proptest::collection::vec(0usize..4, 3),
        bounds in proptest::collection::vec((0u64..3, 0u64..3), 3),
        phi_picks in proptest::collection::vec(0u32..3, 3),
        raw_events in proptest::collection::vec((0u32..4, 0i64..60), 1..40),
        chunking in proptest::collection::vec(0usize..7, 1..5),
        start in 0usize..8,
        fork in any::<bool>(),
    ) {
        let tag = build_random_forked_tag(chain_len, &gran_picks, &bounds, &phi_picks, fork);
        let events = events_from(&raw_events);
        let tag_grans: Vec<Gran> = tag.clocks().iter().map(|(_, g)| g.clone()).collect();
        let cols = TickColumns::build(&events, &tag_grans);
        let start = start.min(events.len().saturating_sub(1));
        let slice = &events[start..];

        for opts in all_option_combos() {
            let m = Matcher::with_options(&tag, opts);
            let r = Reference::new(&tag, opts);

            // Direct-resolution push vs the reference run.
            let batch = r.run(&events, false);
            prop_assert_eq!(m.run(&events, false), batch, "batch run, opts {:?}", opts);
            let mut session = MatchSession::with_options(&tag, opts);
            push_chunked(&mut session, &events, &chunking);
            let completions: Vec<usize> =
                session.completed().map(|c| c.index as usize).collect();
            prop_assert_eq!(
                &completions,
                &r.completions(&events),
                "completions, opts {:?}", opts
            );
            let run = session.finalize();
            prop_assert_eq!(run.stats, batch, "run stats, opts {:?}", opts);
            prop_assert!(matches!(run.verdict, Verdict::Completed));

            // Column-reading push_row vs the reference column run (suffix
            // offset).
            let batch_cols = r.run_columns(slice, &cols, start, false);
            let mut session = MatchSession::with_options(&tag, opts);
            for (i, &e) in slice.iter().enumerate() {
                if !matches!(
                    session.push_row(e, &cols, start + i),
                    Push::Advanced { .. }
                ) {
                    break;
                }
            }
            let run = session.finalize();
            prop_assert_eq!(run.stats, batch_cols, "column stats, opts {:?}", opts);
        }
    }

    /// Suspend/resume is invisible: a session torn into a `SessionState`
    /// and resumed at random cut points — with a random frontier budget,
    /// and direct or column-reading pushes — reports the same `Push` per
    /// event, the same completions, the same `SessionStats` and the same
    /// `finish()` as an uninterrupted session.
    #[test]
    fn suspend_resume_bit_identical_at_any_cut(
        chain_len in 2usize..4,
        gran_picks in proptest::collection::vec(0usize..4, 3),
        bounds in proptest::collection::vec((0u64..3, 0u64..3), 3),
        phi_picks in proptest::collection::vec(0u32..3, 3),
        raw_events in proptest::collection::vec((0u32..4, 0i64..200), 1..60),
        opts_pick in 0usize..2,
        budget in (any::<bool>(), 0u64..16),
        cuts in proptest::collection::vec(any::<bool>(), 1..8),
        by_row in any::<bool>(),
    ) {
        let tag = build_random_tag(chain_len, &gran_picks, &bounds, &phi_picks);
        let events = events_from(&raw_events);
        let tag_grans: Vec<Gran> = tag.clocks().iter().map(|(_, g)| g.clone()).collect();
        let cols = TickColumns::build(&events, &tag_grans);
        let opts = all_option_combos()[opts_pick];
        let open = || {
            let mut s = MatchSession::with_options(&tag, opts);
            if let (true, b) = budget {
                s = s.with_limits(Limits::none().with_budget(b));
            }
            s
        };
        let push = |s: &mut MatchSession<'_>, i: usize| {
            if by_row {
                s.push_row(events[i], &cols, i)
            } else {
                s.push(events[i])
            }
        };
        let mut continuous = open();
        let mut resumed = open();
        for i in 0..events.len() {
            if cuts[i % cuts.len()] {
                let state = resumed.suspend();
                prop_assert_eq!(state.events_pushed(), continuous.stats().events as u64);
                resumed = MatchSession::resume(&tag, state);
            }
            let a = push(&mut continuous, i);
            let b = push(&mut resumed, i);
            prop_assert_eq!(a, b, "push {}", i);
            prop_assert_eq!(continuous.watermark_lag(), resumed.watermark_lag(), "lag {}", i);
        }
        prop_assert_eq!(continuous.stats(), resumed.stats());
        let fired_a: Vec<_> = continuous.completed().collect();
        let fired_b: Vec<_> = resumed.completed().collect();
        prop_assert_eq!(fired_a, fired_b);
        let (ra, _) = continuous.finish();
        let (rb, _) = MatchSession::resume(&tag, resumed.suspend()).finish();
        prop_assert_eq!(ra, rb);
    }

    /// Longer streams than the replay differential: under any
    /// push-chunking, the session reports exactly the same completion
    /// events as the reference engine — no occurrence is lost or invented
    /// when rows are dropped or merged.
    #[test]
    fn chunked_push_never_loses_a_completion(
        chain_len in 2usize..4,
        gran_picks in proptest::collection::vec(0usize..4, 3),
        bounds in proptest::collection::vec((0u64..3, 0u64..3), 3),
        phi_picks in proptest::collection::vec(0u32..3, 3),
        raw_events in proptest::collection::vec((0u32..4, 0i64..200), 1..60),
        chunking in proptest::collection::vec(0usize..7, 1..5),
    ) {
        let tag = build_random_tag(chain_len, &gran_picks, &bounds, &phi_picks);
        let events = events_from(&raw_events);

        for opts in all_option_combos() {
            let expected = Reference::new(&tag, opts).completions(&events);
            let mut session = MatchSession::with_options(&tag, opts);
            push_chunked(&mut session, &events, &chunking);
            let got: Vec<usize> = session.completed().map(|c| c.index as usize).collect();
            prop_assert_eq!(&got, &expected, "opts {:?}", opts);
        }
    }
}

#[test]
fn empty_and_unpushed_sessions_match_batch() {
    let tag = build_random_tag(2, &[1], &[(1, 1)], &[1]);
    for opts in all_option_combos() {
        let m = Matcher::with_options(&tag, opts);
        let batch = m.run(&[], false);
        let run = MatchSession::with_options(&tag, opts).finalize();
        assert_eq!(run.stats, batch, "opts {opts:?}");
        // Pushing an empty batch changes nothing either.
        let mut session = MatchSession::with_options(&tag, opts);
        assert_eq!(session.push_batch(&[]), 0);
        assert_eq!(session.finalize().stats, batch, "opts {opts:?}");
    }
}

/// The long-stream memory ceiling of the acceptance criteria: a
/// 10⁶-event synthetic stream (driven through chunked incremental
/// `TickColumns::append` + `push_row`, the `tgm stream` pipeline) keeps
/// peak frontier rows within the Theorem 4 `frontier_bound()`, far below
/// the event count. Run by the CI `stream-smoke` job with `--ignored
/// --release`.
#[test]
#[ignore = "long stream; run in release via the stream-smoke CI job"]
fn million_event_stream_is_frontier_bounded() {
    let tag = build_random_tag(3, &[1, 3], &[(0, 2), (1, 1)], &[1, 2]);
    let tag_grans: Vec<Gran> = tag.clocks().iter().map(|(_, g)| g.clone()).collect();

    let mut session = MatchSession::new(&tag);
    let bound = session.frontier_bound();

    // A synthetic year-scale stream: type cycles with a pseudo-random
    // phase, ~87 events/day, timestamps strictly increasing.
    const N: usize = 1_000_000;
    const CHUNK: usize = 4096;
    let mut cols = TickColumns::with_granularities(&tag_grans);
    let mut pushed = 0usize;
    let mut completions = 0u64;
    let mut peak = 0usize;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut t = 2 * DAY;
    while pushed < N {
        let chunk: Vec<Event> = (0..CHUNK.min(N - pushed))
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                t += 1 + (state >> 33) as i64 % 1700;
                Event::new(EventType((state >> 7) as u32 % 4), t)
            })
            .collect();
        let base = cols.len();
        cols.append(&chunk);
        for (i, &e) in chunk.iter().enumerate() {
            match session.push_row(e, &cols, base + i) {
                Push::Advanced { .. } => {}
                p => panic!("stream stopped early: {p:?}"),
            }
            peak = peak.max(session.frontier_size());
        }
        completions += session.completed().count() as u64;
        pushed += chunk.len();
    }
    let stats = session.stats();
    assert_eq!(stats.events, N);
    assert_eq!(stats.completions, completions);
    assert!(
        (peak as u64) <= bound,
        "live frontier peak {peak} exceeded the Theorem 4 bound {bound}"
    );
}

/// "A then B on the next day" over days, every state with a skip loop.
fn next_day_tag() -> tgm_tag::Tag {
    let cal = tgm_granularity::Calendar::standard();
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

/// A B every midnight and an A every noon: each B completes with the
/// previous day's A. The accepting state holds the new completion
/// (reading 1) next to older ones; no guard reads that clock again
/// (`fut = −1`), so extrapolation merges them where the global caps keep
/// both apart.
#[test]
fn extrapolation_merges_rows_the_global_caps_keep_apart() {
    let tag = next_day_tag();
    let events: Vec<Event> = (0..400)
        .flat_map(|i| {
            [
                Event::new(EventType(1), (2 + i) * DAY),
                Event::new(EventType(0), (2 + i) * DAY + DAY / 2),
            ]
        })
        .collect();
    let mut session = MatchSession::new(&tag);
    let bound = session.frontier_bound();
    assert_eq!(session.push_batch(&events), events.len());
    let stats = session.stats();
    assert_eq!(stats.completions, 399, "every B but the first completes");
    let global = Reference::with_global_caps(&tag, MatchOptions::default()).run(&events, false);
    assert!(
        stats.peak_frontier < global.peak_configs,
        "peak {} not below the global-cap peak {}",
        stats.peak_frontier,
        global.peak_configs
    );
    assert!(stats.peak_frontier as u64 <= bound);
}
