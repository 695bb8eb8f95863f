//! Bounded-mining differential tests: `mine_bounded` with [`Limits::none`]
//! is bit-identical to the unbounded run; tight budgets scan exactly the budgeted
//! prefix of step-5 assignments; and expired deadlines or cancelled tokens
//! return typed partial results instead of panicking or hanging.

use std::time::{Duration, Instant};

use tgm_core::{StructureBuilder, Tcg};
use tgm_events::{Event, EventSequence, EventType};
use tgm_granularity::Calendar;
use tgm_limits::{CancelToken, Interrupt, Limits, Verdict};
use tgm_mining::episodes::EpisodeMiner;
use tgm_mining::{naive, pipeline, DiscoveryProblem};

const DAY: i64 = 86_400;

fn fixture() -> (DiscoveryProblem, EventSequence) {
    let cal = Calendar::standard();
    let day = cal.get("day").unwrap();
    let week = cal.get("week").unwrap();
    let mut b = StructureBuilder::new();
    let x0 = b.var("X0");
    let x1 = b.var("X1");
    let x2 = b.var("X2");
    b.constrain(x0, x1, Tcg::new(0, 2, day));
    b.constrain(x1, x2, Tcg::new(0, 1, week));
    let s = b.build().unwrap();
    let events: Vec<Event> = (0..40)
        .map(|i| Event::new(EventType(i % 4), 2 * DAY + i as i64 * 6 * 3_600))
        .collect();
    (
        DiscoveryProblem::new(s, 0.1, EventType(0)),
        EventSequence::from_events(events),
    )
}

#[test]
fn pipeline_none_limits_bit_identical() {
    let (problem, seq) = fixture();
    let opts = pipeline::PipelineOptions::default();
    let (free_sols, free_stats) = pipeline::mine_with(&problem, &seq, &opts);
    let run = pipeline::mine_bounded(&problem, &seq, &opts, &Limits::none())
        .expect("no failpoints, no worker panic");
    assert_eq!(run.verdict, Verdict::Completed);
    assert_eq!(run.solutions, free_sols);
    assert_eq!(run.stats, free_stats);
}

#[test]
fn naive_none_limits_bit_identical() {
    let (problem, seq) = fixture();
    let (free_sols, free_stats) = naive::mine(&problem, &seq);
    let run = naive::mine_bounded(&problem, &seq, &Limits::none());
    assert_eq!(run.verdict, Verdict::Completed);
    assert_eq!(run.solutions, free_sols);
    assert_eq!(run.stats, free_stats);
}

#[test]
fn pipeline_budget_deterministic() {
    let (problem, seq) = fixture();
    let opts = pipeline::PipelineOptions::default();
    // Find how many assignments a full run scans, then cut the budget.
    let full = pipeline::mine_bounded(&problem, &seq, &opts, &Limits::none()).unwrap();
    let scanned = full.stats.candidates_scanned;
    assert!(scanned > 2, "fixture must scan enough candidates to cut");
    for budget in [1, scanned / 2, scanned - 1] {
        let limits = Limits::none().with_budget(budget);
        let runs: Vec<_> = (0..2)
            .map(|_| pipeline::mine_bounded(&problem, &seq, &opts, &limits).unwrap())
            .collect();
        for run in &runs {
            assert_eq!(
                run.verdict,
                Verdict::Interrupted(Interrupt::BudgetExhausted),
                "budget={budget}"
            );
            // Exactly the budgeted prefix ran, every kept reference each.
            assert_eq!(
                run.stats.tag_runs,
                budget as usize * full.stats.refs_kept,
                "budget={budget}"
            );
            assert!(run.solutions.iter().all(|s| full.solutions.contains(s)));
        }
        assert_eq!(runs[0].solutions, runs[1].solutions, "budget={budget}");
        assert_eq!(runs[0].stats, runs[1].stats, "budget={budget}");
    }
}

/// `step5_workers` counts the threads that actually ran: a budget that
/// admits one assignment leaves no work to share.
#[test]
fn step5_workers_bounded_by_the_budgeted_prefix() {
    let (problem, seq) = fixture();
    let opts = pipeline::PipelineOptions::default();
    for budget in [0u64, 1, 2] {
        let limits = Limits::none().with_budget(budget);
        let run = pipeline::mine_bounded(&problem, &seq, &opts, &limits).unwrap();
        let allowed = budget.min(run.stats.candidates_scanned) as usize;
        assert!(
            run.stats.step5_workers <= allowed.max(1),
            "budget={budget}: {} workers for {allowed} assignments",
            run.stats.step5_workers
        );
    }
}

#[test]
fn naive_budget_deterministic() {
    let (problem, seq) = fixture();
    let limits = Limits::none().with_budget(3);
    let a = naive::mine_bounded(&problem, &seq, &limits);
    let b = naive::mine_bounded(&problem, &seq, &limits);
    assert_eq!(a.verdict, Verdict::Interrupted(Interrupt::BudgetExhausted));
    assert_eq!(a.stats.candidates, 3, "exactly the budgeted candidates run");
    assert_eq!(a.solutions, b.solutions);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn expired_deadline_returns_partial_not_panic() {
    let (problem, seq) = fixture();
    let limits = Limits::none().with_deadline(Instant::now() - Duration::from_secs(1));
    let opts = pipeline::PipelineOptions::default();
    let run = pipeline::mine_bounded(&problem, &seq, &opts, &limits).unwrap();
    assert_eq!(run.verdict, Verdict::Interrupted(Interrupt::DeadlineExceeded));
    assert!(run.solutions.is_empty(), "nothing can finish past the deadline");
    let run = naive::mine_bounded(&problem, &seq, &limits);
    assert_eq!(run.verdict, Verdict::Interrupted(Interrupt::DeadlineExceeded));
}

#[test]
fn cancellation_stops_all_paths() {
    let (problem, seq) = fixture();
    let token = CancelToken::new();
    token.cancel();
    let limits = Limits::none().with_cancel(token);
    let opts = pipeline::PipelineOptions::default();
    let run = pipeline::mine_bounded(&problem, &seq, &opts, &limits).unwrap();
    assert_eq!(run.verdict, Verdict::Interrupted(Interrupt::Cancelled));
    let run = naive::mine_bounded(&problem, &seq, &limits);
    assert_eq!(run.verdict, Verdict::Interrupted(Interrupt::Cancelled));
}

#[test]
fn episodes_bounded_matches_unbounded_and_cancels() {
    let a = EventType(0);
    let b = EventType(1);
    let seq = EventSequence::from_events(
        (0..30)
            .flat_map(|i| {
                [
                    Event::new(a, i * 3_600),
                    Event::new(b, i * 3_600 + 1_800),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let miner = EpisodeMiner::new(3_600, 0.01);
    let free = miner.mine_serial(&seq);
    let (bounded, verdict) = miner.mine_serial_bounded(&seq, &Limits::none());
    assert_eq!(verdict, Verdict::Completed);
    assert_eq!(bounded, free);
    let (par, verdict) = miner.mine_parallel_bounded(&seq, &Limits::none());
    assert_eq!(verdict, Verdict::Completed);
    assert_eq!(par.len(), miner.mine_parallel(&seq).len());

    let token = CancelToken::new();
    token.cancel();
    let (partial, verdict) = miner.mine_serial_bounded(&seq, &Limits::none().with_cancel(token));
    assert_eq!(verdict, Verdict::Interrupted(Interrupt::Cancelled));
    assert!(partial.len() <= free.len());

    let (partial, verdict) = miner.mine_serial_bounded(&seq, &Limits::none().with_budget(1));
    assert_eq!(verdict, Verdict::Interrupted(Interrupt::BudgetExhausted));
    assert!(partial.len() <= 1);
}

/// The NP-hard direction: a deliberately wide problem (many candidate
/// types per variable) interrupted by a short wall-clock deadline must
/// return, not hang — and return a typed verdict.
#[test]
fn tiny_deadline_on_wide_problem_returns_quickly() {
    let cal = Calendar::standard();
    let hour = cal.get("hour").unwrap();
    let mut b = StructureBuilder::new();
    let vars: Vec<_> = (0..4).map(|i| b.var(format!("X{i}"))).collect();
    for i in 1..4 {
        b.constrain(vars[i - 1], vars[i], Tcg::new(0, 48, hour.clone()));
    }
    let s = b.build().unwrap();
    let events: Vec<Event> = (0..400)
        .map(|i| Event::new(EventType(i % 8), 2 * DAY + i as i64 * 900))
        .collect();
    let seq = EventSequence::from_events(events);
    let problem = DiscoveryProblem::new(s, 0.0, EventType(0));
    let limits = Limits::none().with_timeout(Duration::from_millis(5));
    let started = Instant::now();
    let run = naive::mine_bounded(&problem, &seq, &limits);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "bounded run must not run the full enumeration"
    );
    assert!(matches!(run.verdict, Verdict::Interrupted(_)));
}
