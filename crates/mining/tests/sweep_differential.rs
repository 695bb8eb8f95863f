//! Differential property test for the pipeline's parallel step-5 scan:
//! on randomized discovery problems and event sequences, the pipeline (its
//! step-5 scan split across the host's workers) must produce exactly the
//! solutions of the single-threaded naive miner, its oracle.

use proptest::prelude::*;
use tgm_core::{StructureBuilder, Tcg};
use tgm_events::{Event, EventSequence, EventType};
use tgm_granularity::{Calendar, Gran};
use tgm_mining::naive;
use tgm_mining::pipeline::{mine_with, PipelineOptions};
use tgm_mining::DiscoveryProblem;

const DAY: i64 = 86_400;

fn grans() -> Vec<Gran> {
    let cal = Calendar::standard();
    ["hour", "day", "week", "business-day"]
        .iter()
        .map(|n| cal.get(n).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sweep_parallelism_preserves_miner_output(
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
        let events: Vec<Event> = raw_events
            .iter()
            .map(|&(ty, step)| Event::new(EventType(ty), 2 * DAY + step * 6 * 3_600))
            .collect();
        let seq = EventSequence::from_events(events);
        let problem = DiscoveryProblem::new(s, confidence, EventType(0));

        let (naive_sols, _) = naive::mine(&problem, &seq);
        let (pipe_sols, _) = mine_with(&problem, &seq, &PipelineOptions::default());
        prop_assert_eq!(&naive_sols, &pipe_sols);
    }
}
