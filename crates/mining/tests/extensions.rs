//! Tests for the §6 extensions: same/distinct type constraints,
//! generalized references, and discovery over unrolled repetitive
//! structures.

use tgm_core::repeat::unrolled;
use tgm_core::{StructureBuilder, Tcg, VarId};
use tgm_events::{Event, EventSequence, TypeRegistry};
use tgm_granularity::Calendar;
use tgm_mining::pipeline::PipelineOptions;
use tgm_mining::{naive, pipeline, DiscoveryProblem, TypeConstraint};

const DAY: i64 = 86_400;
const HOUR: i64 = 3_600;

/// A world where both (A, B, B) and (A, B, C) chains are frequent.
fn chain_world() -> (TypeRegistry, EventSequence, DiscoveryProblem) {
    let mut reg = TypeRegistry::new();
    let a = reg.intern("A");
    let b = reg.intern("B");
    let c = reg.intern("C");
    let mut events = Vec::new();
    for k in 0..6i64 {
        let t = 14 * k * DAY;
        events.push(Event::new(a, t));
        events.push(Event::new(b, t + DAY));
        events.push(Event::new(b, t + 2 * DAY));
        events.push(Event::new(c, t + 2 * DAY + HOUR));
    }
    let seq = EventSequence::from_events(events);
    let cal = Calendar::standard();
    let mut sb = StructureBuilder::new();
    let x0 = sb.var("X0");
    let x1 = sb.var("X1");
    let x2 = sb.var("X2");
    sb.constrain(x0, x1, Tcg::new(1, 1, cal.get("day").unwrap()));
    sb.constrain(x1, x2, Tcg::new(1, 1, cal.get("day").unwrap()));
    let s = sb.build().unwrap();
    (reg, seq, DiscoveryProblem::new(s, 0.8, a))
}

#[test]
fn same_type_constraint_restricts_solutions() {
    let (reg, seq, p) = chain_world();
    let b = reg.get("B").unwrap();
    let (unconstrained, _) = pipeline::mine_with(&p, &seq, &PipelineOptions::default());
    assert!(unconstrained.len() >= 2);
    let p_same = p
        .clone()
        .with_type_constraint(TypeConstraint::Same(vec![VarId(1), VarId(2)]));
    let (same_sols, _) = pipeline::mine_with(&p_same, &seq, &PipelineOptions::default());
    assert!(!same_sols.is_empty());
    for sol in &same_sols {
        assert_eq!(sol.assignment[1], sol.assignment[2]);
    }
    assert!(same_sols.iter().any(|s| s.assignment[1] == b));
    // Naive agrees under the constraint.
    let (naive_sols, _) = naive::mine(&p_same, &seq);
    assert_eq!(naive_sols, same_sols);
}

#[test]
fn distinct_type_constraint_restricts_solutions() {
    let (_reg, seq, p) = chain_world();
    let p_distinct = p
        .clone()
        .with_type_constraint(TypeConstraint::Distinct(vec![VarId(1), VarId(2)]));
    let (sols, _) = pipeline::mine_with(&p_distinct, &seq, &PipelineOptions::default());
    for sol in &sols {
        assert_ne!(sol.assignment[1], sol.assignment[2]);
    }
    let (naive_sols, _) = naive::mine(&p_distinct, &seq);
    assert_eq!(naive_sols, sols);
}

#[test]
fn constraints_compose() {
    let (_reg, seq, p) = chain_world();
    // Same(1,2) AND Distinct(1,2): unsatisfiable together.
    let p_both = p
        .with_type_constraint(TypeConstraint::Same(vec![VarId(1), VarId(2)]))
        .with_type_constraint(TypeConstraint::Distinct(vec![VarId(1), VarId(2)]));
    let (sols, _) = pipeline::mine_with(&p_both, &seq, &PipelineOptions::default());
    assert!(sols.is_empty());
}

#[test]
fn repetitive_pattern_discovery_via_unrolling() {
    // "A burst (spike then ack within 2 hours) happened on three
    // consecutive days": unroll the base pattern and mine.
    let cal = Calendar::standard();
    let mut reg = TypeRegistry::new();
    let spike = reg.intern("spike");
    let ack = reg.intern("ack");
    let noise = reg.intern("noise");

    let mut sb = StructureBuilder::new();
    let x0 = sb.var("spike");
    let x1 = sb.var("ack");
    sb.constrain(x0, x1, Tcg::new(0, 2, cal.get("hour").unwrap()));
    let base = sb.build().unwrap();
    let link = [Tcg::new(1, 1, cal.get("day").unwrap())];
    let s3 = unrolled(&base, 3, &link).unwrap();
    assert_eq!(s3.len(), 6);

    // Plant 3-day bursts starting at days 2, 16, 30, 44; a broken (2-day)
    // run at day 58.
    let mut events = Vec::new();
    for start in [2i64, 16, 30, 44] {
        for d in 0..3i64 {
            events.push(Event::new(spike, (start + d) * DAY + 9 * HOUR));
            events.push(Event::new(ack, (start + d) * DAY + 10 * HOUR));
        }
    }
    events.push(Event::new(spike, 58 * DAY + 9 * HOUR));
    events.push(Event::new(ack, 58 * DAY + 10 * HOUR));
    events.push(Event::new(spike, 59 * DAY + 9 * HOUR));
    events.push(Event::new(ack, 59 * DAY + 10 * HOUR));
    for d in (0..70i64).step_by(5) {
        events.push(Event::new(noise, d * DAY + 12 * HOUR));
    }
    let seq = EventSequence::from_events(events);

    // References: the first spike of a potential 3-day run.
    let problem = DiscoveryProblem::new(s3, 0.25, spike);
    let (sols, stats) = pipeline::mine_with(&problem, &seq, &PipelineOptions::default());
    let (naive_sols, _) = naive::mine(&problem, &seq);
    assert_eq!(sols, naive_sols);
    let full = sols
        .iter()
        .find(|s| s.assignment == vec![spike, ack, spike, ack, spike, ack])
        .expect("the repetitive pattern must be found");
    // Supported by the first spike of each complete 3-day run (4 planted
    // runs; later spikes inside a run also start shorter suffix runs, but
    // the day-58 run is too short).
    assert_eq!(full.support, 4, "stats {stats:?}");
}

#[test]
fn screening_stays_sound_under_type_constraints() {
    // Candidate screening must not interact incorrectly with Same
    // constraints: compare against naive across thresholds.
    let (_reg, seq, base) = chain_world();
    for conf in [0.0, 0.3, 0.5, 0.8] {
        let mut p = base.clone();
        p.min_confidence = conf;
        let p = p.with_type_constraint(TypeConstraint::Same(vec![VarId(1), VarId(2)]));
        let (a, _) = naive::mine(&p, &seq);
        let (b, _) = pipeline::mine_with(&p, &seq, &PipelineOptions::default());
        assert_eq!(a, b, "mismatch at confidence {conf}");
    }
}
