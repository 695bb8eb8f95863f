//! Differential property tests for the shared resolution layer at the
//! matcher and pipeline level: results must be bit-identical with the
//! cache on or off, and with tick columns or direct per-event resolution.
//!
//! The cache enable flag is process-wide, so tests in this binary
//! serialize on one lock (separate test binaries are separate processes).

use std::sync::Mutex;

use proptest::prelude::*;
use tgm_core::{ComplexEventType, StructureBuilder, Tcg};
use tgm_events::{Event, EventSequence, EventType, TickColumns};
use tgm_granularity::{cache, periodic, Calendar, Gran};
use tgm_mining::{naive, pipeline, DiscoveryProblem};
use tgm_tag::{build_tag, Matcher, MatcherScratch, RunCtx};

const DAY: i64 = 86_400;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn grans() -> Vec<Gran> {
    let cal = Calendar::standard();
    ["hour", "day", "week", "business-day", "business-week"]
        .iter()
        .map(|n| cal.get(n).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Matcher: the full `RunStats` (acceptance, frontier peaks, expansion
    /// counts) is identical across cache on / cache off / tick columns.
    #[test]
    fn matcher_identical_cache_on_off_and_columns(
        gran_picks in proptest::collection::vec(0usize..5, 2),
        bounds in proptest::collection::vec((0u64..3, 0u64..3), 2),
        raw_events in proptest::collection::vec((0u32..3, 0i64..60), 2..30),
    ) {
        let _serial = TEST_LOCK.lock().unwrap();
        let gs = grans();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        let x2 = b.var("X2");
        let (lo0, w0) = bounds[0];
        let (lo1, w1) = bounds[1];
        b.constrain(x0, x1, Tcg::new(lo0, lo0 + w0, gs[gran_picks[0]].clone()));
        b.constrain(x1, x2, Tcg::new(lo1, lo1 + w1, gs[gran_picks[1]].clone()));
        let s = b.build().unwrap();
        let cet = ComplexEventType::new(s, vec![EventType(0), EventType(1), EventType(2)]);
        let tag = build_tag(&cet);
        let m = Matcher::new(&tag);

        let events: Vec<Event> = raw_events
            .iter()
            .map(|&(ty, step)| Event::new(EventType(ty), 2 * DAY + step * 6 * 3_600))
            .collect();
        let seq = EventSequence::from_events(events);

        periodic::set_enabled(false);
        cache::set_enabled(true);
        let on = m.run(seq.events(), false);
        let clock_grans: Vec<Gran> =
            tag.clocks().iter().map(|(_, g)| g.clone()).collect();
        let cols = TickColumns::build(seq.events(), &clock_grans);
        let mut scratch = MatcherScratch::new();
        let mut ctx = RunCtx {
            cols: Some((&cols, 0)),
            ..RunCtx::new(&mut scratch)
        };
        let with_cols = m.run_in(seq.events(), false, &mut ctx).stats;
        cache::set_enabled(false);
        let off = m.run(seq.events(), false);
        periodic::set_enabled(true);
        for g in &clock_grans {
            prop_assert!(g.compiled().is_some(), "{} did not compile", g.name());
        }
        let compiled = m.run(seq.events(), false);
        cache::set_enabled(true);

        prop_assert_eq!(&on, &off, "cache on vs off");
        prop_assert_eq!(&on, &with_cols, "direct vs tick columns");
        prop_assert_eq!(&on, &compiled, "cache vs compiled tables");
    }

    /// Discovery: naive and pipeline solutions are identical with the
    /// resolution layer on (cache + columns) and fully off.
    #[test]
    fn discovery_identical_with_layer_on_and_off(
        gran_picks in proptest::collection::vec(0usize..5, 2),
        bounds in proptest::collection::vec((0u64..3, 0u64..3), 2),
        raw_events in proptest::collection::vec((0u32..4, 0i64..40), 4..24),
        confidence in 0.0f64..0.9,
    ) {
        let _serial = TEST_LOCK.lock().unwrap();
        let gs = grans();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        let x2 = b.var("X2");
        let (lo0, w0) = bounds[0];
        let (lo1, w1) = bounds[1];
        b.constrain(x0, x1, Tcg::new(lo0, lo0 + w0, gs[gran_picks[0]].clone()));
        b.constrain(x1, x2, Tcg::new(lo1, lo1 + w1, gs[gran_picks[1]].clone()));
        let s = b.build().unwrap();
        let events: Vec<Event> = raw_events
            .iter()
            .map(|&(ty, step)| Event::new(EventType(ty), 2 * DAY + step * 6 * 3_600))
            .collect();
        let seq = EventSequence::from_events(events);
        let problem = DiscoveryProblem::new(s, confidence, EventType(0));

        let layer_on = pipeline::PipelineOptions::default();
        let layer_off = layer_on.to_builder().use_tick_columns(false).build();

        periodic::set_enabled(false);
        cache::set_enabled(true);
        let (pipe_on, _) = pipeline::mine_with(&problem, &seq, &layer_on);
        let (naive_on, _) = naive::mine(&problem, &seq);
        cache::set_enabled(false);
        let (pipe_off, _) = pipeline::mine_with(&problem, &seq, &layer_off);
        let (naive_off, _) = naive::mine(&problem, &seq);
        periodic::set_enabled(true);
        for g in &gs {
            prop_assert!(g.compiled().is_some(), "{} did not compile", g.name());
        }
        let (pipe_compiled, _) = pipeline::mine_with(&problem, &seq, &layer_on);
        cache::set_enabled(true);

        prop_assert_eq!(&pipe_on, &pipe_off, "pipeline layer on vs off");
        prop_assert_eq!(&naive_on, &naive_off, "naive cache on vs off");
        prop_assert_eq!(&pipe_on, &naive_on, "pipeline vs naive");
        prop_assert_eq!(&pipe_on, &pipe_compiled, "pipeline cache vs compiled");
    }
}

/// The E6 grouped-granularity chain ([0,1] business-week then [0,1]
/// business-month — the granularities with the heaviest raw resolution)
/// and an E10-style discovery run over it: matcher `RunStats` and mining
/// solutions are bit-identical across all four resolution modes
/// (uncached, mutex cache, compiled tables, compiled without the cache).
#[test]
fn grouped_workload_identical_across_resolution_modes() {
    let _serial = TEST_LOCK.lock().unwrap();
    let cal = Calendar::standard();
    let mut b = StructureBuilder::new();
    let x0 = b.var("X0");
    let x1 = b.var("X1");
    let x2 = b.var("X2");
    b.constrain(x0, x1, Tcg::new(0, 1, cal.get("business-week").unwrap()));
    b.constrain(x1, x2, Tcg::new(0, 1, cal.get("business-month").unwrap()));
    let s = b.build().unwrap();
    let cet = ComplexEventType::new(
        s.clone(),
        vec![EventType(0), EventType(1), EventType(0)],
    );
    let tag = build_tag(&cet);
    let m = Matcher::new(&tag);

    // ~90 days of synthetic stream, 4 types, deterministic LCG times.
    let events: Vec<Event> = {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut t = 2 * DAY;
        (0..800)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                t += 1 + (state >> 33) as i64 % 10_000;
                Event::new(EventType((state >> 7) as u32 % 4), t)
            })
            .collect()
    };
    let seq = EventSequence::from_events(events);
    let problem = DiscoveryProblem::new(s, 0.5, EventType(0));
    let opts = pipeline::PipelineOptions::default();

    let modes = [(false, false), (true, false), (true, true), (false, true)];
    let mut stats = Vec::new();
    let mut sols = Vec::new();
    for (cache_on, periodic_on) in modes {
        cache::set_enabled(cache_on);
        periodic::set_enabled(periodic_on);
        if periodic_on {
            for (_, g) in tag.clocks() {
                assert!(g.compiled().is_some(), "{} did not compile", g.name());
            }
        }
        stats.push(m.run(seq.events(), false));
        sols.push(pipeline::mine_with(&problem, &seq, &opts).0);
    }
    cache::set_enabled(true);
    periodic::set_enabled(true);
    for (i, (cache_on, periodic_on)) in modes.iter().enumerate().skip(1) {
        assert_eq!(
            stats[0], stats[i],
            "RunStats diverged (cache={cache_on}, compiled={periodic_on})"
        );
        assert_eq!(
            sols[0], sols[i],
            "solutions diverged (cache={cache_on}, compiled={periodic_on})"
        );
    }
}
