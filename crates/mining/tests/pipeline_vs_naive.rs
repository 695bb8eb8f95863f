//! Differential property test: the optimized pipeline (§5 steps 1–5, with
//! chain screening off and at `k = 2, 3`) finds exactly the same solutions
//! as the naive algorithm.

use proptest::prelude::*;
use tgm_core::{StructureBuilder, Tcg};
use tgm_events::{Event, EventSequence, EventType};
use tgm_granularity::{Calendar, Gran};
use tgm_mining::{naive, pipeline, DiscoveryProblem};

const DAY: i64 = 86_400;

fn grans() -> Vec<Gran> {
    let cal = Calendar::standard();
    ["hour", "day", "week", "business-day"]
        .iter()
        .map(|n| cal.get(n).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pipeline_equals_naive(
        chain_len in 2usize..4,
        gran_picks in proptest::collection::vec(0usize..4, 3),
        bounds in proptest::collection::vec((0u64..3, 0u64..3), 3),
        raw_events in proptest::collection::vec((0u32..4, 0i64..40), 4..30),
        confidence in 0.0f64..0.9,
    ) {
        let gs = grans();
        let mut b = StructureBuilder::new();
        let vars: Vec<_> = (0..chain_len).map(|i| b.var(format!("X{i}"))).collect();
        for i in 1..chain_len {
            let (lo, w) = bounds[i - 1];
            let g = gs[gran_picks[i - 1] % gs.len()].clone();
            b.constrain(vars[i - 1], vars[i], Tcg::new(lo, lo + w, g));
        }
        let s = b.build().unwrap();

        // Events over ~40 quarter-days starting Monday 2000-01-03.
        let events: Vec<Event> = raw_events
            .iter()
            .map(|&(ty, step)| Event::new(EventType(ty), 2 * DAY + step * 6 * 3_600))
            .collect();
        let seq = EventSequence::from_events(events);
        let problem = DiscoveryProblem::new(s, confidence, EventType(0));

        let (naive_sols, _) = naive::mine(&problem, &seq);
        for chain_screening_k in [0, 2, 3] {
            let opts = pipeline::PipelineOptions { chain_screening_k };
            let (pipe_sols, stats) = pipeline::mine_with(&problem, &seq, &opts);
            prop_assert_eq!(
                &naive_sols, &pipe_sols,
                "pipeline (k = {}) vs naive mismatch (stats {:?})", chain_screening_k, stats
            );
            // Screening must never increase the candidate space.
            prop_assert!(stats.candidates_after_var_screen <= stats.candidates_initial);
            prop_assert!(stats.candidates_scanned <= stats.candidates_after_var_screen);
            prop_assert!(stats.refs_kept <= stats.refs_total);
            prop_assert!(stats.events_kept <= stats.events_total);
        }
    }
}

#[test]
fn diamond_structure_differential() {
    // Non-chain structure: two root paths meet at X3, so the windows
    // steps 3-4 screen with come from propagation across both branches.
    let cal = Calendar::standard();
    let day = cal.get("day").unwrap();
    let hour = cal.get("hour").unwrap();
    let mut b = StructureBuilder::new();
    let x0 = b.var("X0");
    let x1 = b.var("X1");
    let x2 = b.var("X2");
    let x3 = b.var("X3");
    b.constrain(x0, x1, Tcg::new(0, 1, day.clone()));
    b.constrain(x0, x2, Tcg::new(0, 2, day.clone()));
    b.constrain(x1, x3, Tcg::new(0, 1, day));
    b.constrain(x2, x3, Tcg::new(0, 30, hour));
    let s = b.build().unwrap();

    let mk = |ty: u32, t: i64| Event::new(EventType(ty), t);
    let seq = EventSequence::from_events(vec![
        mk(0, 2 * DAY),
        mk(1, 2 * DAY + 3_600),
        mk(2, 3 * DAY),
        mk(3, 3 * DAY + 7_200),
        mk(0, 9 * DAY),
        mk(1, 9 * DAY + 3_600),
        mk(2, 10 * DAY),
        mk(3, 10 * DAY + 7_200),
        mk(0, 16 * DAY),
        mk(2, 16 * DAY + 60),
    ]);
    let problem = DiscoveryProblem::new(s, 0.5, EventType(0));
    let (naive_sols, naive_stats) = naive::mine(&problem, &seq);
    let (pipe_sols, pipe_stats) = pipeline::mine(&problem, &seq);
    assert_eq!(naive_sols, pipe_sols);
    // The pipeline must have done less TAG work.
    assert!(pipe_stats.tag_runs <= naive_stats.tag_runs);
}

#[test]
fn chain_screening_bans_infrequent_tuples() {
    // Both A and C frequently appear one day after the root, and B
    // frequently two days after it — but only (A, B) chains with the
    // [20,28]-hour link; (C, B) never does. Per-variable screening keeps
    // everything; chain screening (k = 2) bans the (C, B) tuple with
    // anchored TAGs on the induced sub-structure, halving the final scan.
    let cal = Calendar::standard();
    let day = cal.get("day").unwrap();
    let hour = cal.get("hour").unwrap();
    let mut b = StructureBuilder::new();
    let x0 = b.var("X0");
    let x1 = b.var("X1");
    let x2 = b.var("X2");
    b.constrain(x0, x1, Tcg::new(1, 1, day.clone()));
    b.constrain(x1, x2, Tcg::new(1, 1, day));
    b.constrain(x1, x2, Tcg::new(20, 28, hour));
    let s = b.build().unwrap();

    const HOUR: i64 = 3_600;
    let r = EventType(0);
    let a = EventType(1);
    let c = EventType(2);
    let bt = EventType(3);
    let mut events = Vec::new();
    for k in 0..10i64 {
        let t = 21 * k * DAY + 8 * HOUR; // root at 08:00
        events.push(Event::new(r, t));
        events.push(Event::new(a, t + DAY + HOUR)); // A next day 09:00
        events.push(Event::new(c, t + DAY + 15 * HOUR)); // C next day 23:00
        if k < 7 {
            // B two days after the root at 10:00 => 25h after A (chains),
            // 11h after C (violates the 20-28h link).
            events.push(Event::new(bt, t + 2 * DAY + 2 * HOUR));
        }
    }
    let seq = EventSequence::from_events(events);
    let problem = DiscoveryProblem::new(s, 0.5, r)
        .with_candidates(tgm_core::VarId(1), [a, c])
        .with_candidates(tgm_core::VarId(2), [bt]);

    let with_chain = pipeline::PipelineOptions {
        chain_screening_k: 2,
    };
    let (sols_chain, stats_chain) = pipeline::mine_with(&problem, &seq, &with_chain);
    let (sols_naive, _) = naive::mine(&problem, &seq);
    assert_eq!(sols_chain, sols_naive);
    assert_eq!(sols_chain.len(), 1);
    assert_eq!(sols_chain[0].assignment, vec![r, a, bt]);
    // The (C, B) tuple was banned before the final scan.
    assert!(stats_chain.banned_tuples >= 1, "stats: {stats_chain:?}");
    assert!(stats_chain.screening_tag_runs > 0);
    let plain = pipeline::PipelineOptions::default();
    let (_, stats_plain) = pipeline::mine_with(&problem, &seq, &plain);
    assert!(
        stats_chain.candidates_scanned < stats_plain.candidates_scanned,
        "chain screening must reduce the scanned candidates: {} vs {}",
        stats_chain.candidates_scanned,
        stats_plain.candidates_scanned
    );
}
