//! Differential tests for observability: enabling the process-wide obs
//! switch (and routing emission through scopes) must not change any
//! matching result — `RunStats` stays bit-identical and
//! occurrence witnesses stay equal, anchored and unanchored,
//! for direct, column-reading, early-exit, and scratch-reusing runs.

mod common;

use common::{all_option_combos, DAY};
use parking_lot::Mutex;
use tgm_core::{ComplexEventType, StructureBuilder, Tcg};
use tgm_events::{Event, EventType, TickColumns};
use tgm_granularity::{Calendar, Gran};
use tgm_tag::{build_tag, MatchOptions, Matcher, MatcherScratch, RunCtx, RunStats, Tag};

/// Serializes tests that toggle the process-wide obs flag (the harness
/// runs tests concurrently in one process).
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// A two-granularity chain TAG (business-day + week) so gap handling and
/// multi-clock canonicalization are both exercised.
fn chain_tag() -> Tag {
    let cal = Calendar::standard();
    let mut b = StructureBuilder::new();
    let x0 = b.var("X0");
    let x1 = b.var("X1");
    let x2 = b.var("X2");
    b.constrain(x0, x1, Tcg::new(1, 2, cal.get("business-day").unwrap()));
    b.constrain(x1, x2, Tcg::new(0, 1, cal.get("week").unwrap()));
    let s = b.build().unwrap();
    build_tag(&ComplexEventType::new(
        s,
        vec![EventType(0), EventType(1), EventType(2)],
    ))
}

/// Deterministic mixed sequences: matches, near-misses, weekend gaps,
/// nondeterministic repeats, and an empty one.
fn sequences() -> Vec<Vec<Event>> {
    let ev = |ty: u32, t: i64| Event::new(EventType(ty), t);
    vec![
        vec![ev(0, 2 * DAY), ev(1, 3 * DAY), ev(2, 4 * DAY)],
        vec![ev(0, 5 * DAY), ev(9, 7 * DAY + 100), ev(1, 9 * DAY), ev(2, 10 * DAY)],
        vec![ev(0, 2 * DAY), ev(0, 3 * DAY), ev(1, 4 * DAY), ev(2, 9 * DAY), ev(2, 30 * DAY)],
        vec![ev(7, 7 * DAY), ev(0, 7 * DAY + 50), ev(1, 9 * DAY)],
        vec![ev(0, 2 * DAY)],
        vec![],
    ]
}

/// One full matrix of runs for a fixed obs configuration.
fn run_matrix(opts_list: &[MatchOptions]) -> Vec<(RunStats, RunStats, Option<Vec<usize>>)> {
    let tag = chain_tag();
    let tag_grans: Vec<Gran> = tag.clocks().iter().map(|(_, g)| g.clone()).collect();
    let mut scratch = MatcherScratch::new();
    let mut out = Vec::new();
    for events in &sequences() {
        let cols = TickColumns::build(events, &tag_grans);
        for opts in opts_list {
            let m = Matcher::with_options(&tag, *opts);
            for early_exit in [false, true] {
                let direct = m.run_in(events, early_exit, &mut RunCtx::new(&mut scratch));
                let mut ctx = RunCtx {
                    cols: Some((&cols, 0)),
                    ..RunCtx::new(&mut scratch)
                };
                let columns = m.run_in(events, early_exit, &mut ctx);
                let found = m.find_occurrence_in(events, &mut RunCtx::new(&mut scratch));
                out.push((direct.stats, columns.stats, found.unwrap()));
            }
        }
    }
    out
}

#[test]
fn results_identical_with_obs_on_and_off() {
    let _guard = TEST_LOCK.lock();
    let combos = all_option_combos();

    tgm_obs::set_enabled(false);
    let baseline = run_matrix(&combos);

    tgm_obs::set_enabled(true);
    let observed = run_matrix(&combos);
    let snap = tgm_obs::metrics::snapshot();
    tgm_obs::set_enabled(false);

    assert_eq!(baseline, observed, "observability changed a result");
    // The instrumentation did actually fire while enabled.
    assert!(snap.counter("tag.matcher.runs") > 0);
    assert!(snap.histogram("tag.matcher.frontier").is_some());
    tgm_obs::reset();
}

#[test]
fn scoped_exporting_and_recording_do_not_change_results() {
    let _guard = TEST_LOCK.lock();
    tgm_obs::reset();
    let combos = all_option_combos();

    tgm_obs::set_enabled(false);
    let baseline = run_matrix(&combos);

    // Same matrix inside a recorder-equipped scope, with an exporter
    // pulling delta frames mid-run: results must stay bit-identical and
    // every emission must land in the scope, not the default registry.
    tgm_obs::set_enabled(true);
    let scope = tgm_obs::ObsScope::with_recorder(64);
    let mut exporter = tgm_obs::Exporter::new(scope.clone());
    let observed = {
        let _in = scope.enter();
        let out = run_matrix(&combos);
        let frame = exporter.frame();
        assert!(frame.delta.metrics.counter("tag.matcher.runs") > 0);
        assert!(!frame.to_ndjson().is_empty());
        out
    };
    let default_snap = tgm_obs::metrics::snapshot();
    tgm_obs::set_enabled(false);

    assert_eq!(baseline, observed, "scoped observability changed a result");
    assert_eq!(
        default_snap.counter("tag.matcher.runs"),
        0,
        "scoped run leaked into the default registry"
    );
    tgm_obs::reset();
}

#[test]
fn session_scope_and_stats_cadence_do_not_change_results() {
    let _guard = TEST_LOCK.lock();
    tgm_obs::reset();
    let tag = chain_tag();
    tgm_obs::set_enabled(true);
    for events in &sequences() {
        let mut plain = tgm_tag::MatchSession::new(&tag);
        let scope = tgm_obs::ObsScope::with_recorder(32);
        let mut exporter = tgm_obs::Exporter::new(scope.clone());
        let mut scoped = tgm_tag::MatchSession::new(&tag)
            .with_scope(scope.clone())
            .with_stats_every(2);
        let mut frames = 0usize;
        for &e in events {
            let a = plain.push(e);
            let b = scoped.push(e);
            assert_eq!(a, b, "scoped session diverged at {e:?}");
            if scoped.stats_due() {
                // The live-gauge reads a monitoring loop performs.
                let _ = scoped.watermark_lag();
                let _ = exporter.frame();
                frames += 1;
            }
        }
        let (ra, _) = plain.finish();
        let (rb, _) = scoped.finish();
        assert_eq!(ra, rb, "scoped finalize diverged");
        if events.len() >= 2 {
            assert!(frames > 0, "stats cadence never fired");
        }
    }
    tgm_obs::set_enabled(false);
    tgm_obs::reset();
}
