//! Differential property tests for the miners' parallel anchored sweeps:
//! on randomized discovery problems and event sequences, chunking the
//! naive per-occurrence sweep across workers (`parallel_sweep`) must
//! produce exactly the serial solutions with the same number of anchored
//! TAG runs, and the pipeline (its step-5 scan split across the host's
//! workers) must agree with both.

use proptest::prelude::*;
use tgm_core::{StructureBuilder, Tcg};
use tgm_events::{Event, EventSequence, EventType};
use tgm_granularity::{Calendar, Gran};
use tgm_mining::naive::{self, NaiveOptions};
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

        // Naive: serial vs chunked sweep.
        let (serial_sols, serial_stats) = naive::mine(&problem, &seq);
        let (sweep_sols, sweep_stats) =
            naive::mine_with(&problem, &seq, &NaiveOptions { parallel_sweep: true, ..Default::default() });
        prop_assert_eq!(&serial_sols, &sweep_sols);
        prop_assert_eq!(serial_stats.tag_runs, sweep_stats.tag_runs);
        prop_assert_eq!(serial_stats.candidates, sweep_stats.candidates);

        // The pipeline agrees with both.
        let (pipe_sols, _) = mine_with(&problem, &seq, &PipelineOptions::default());
        prop_assert_eq!(&serial_sols, &pipe_sols);
    }
}
