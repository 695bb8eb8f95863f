//! Generalized reference types (paper §6): the reference `E₀` of a
//! discovery problem "needs not be a 'regular' event type. It can be the
//! event type, say, 'the beginning of a week' … Furthermore, the reference
//! type can be extended to be a set of types."
//!
//! Both extensions are realized by *materializing* synthetic reference
//! events into the sequence and then running the ordinary discovery
//! machinery against the synthetic type.

use tgm_events::{Event, EventSequence, EventType, TypeRegistry};
use tgm_granularity::{Gran, Granularity};

use crate::pipeline::{self, PipelineOptions, PipelineStats};
use crate::problem::{DiscoveryProblem, Solution};

/// A generalized discovery reference.
#[derive(Clone, Debug)]
pub enum Reference {
    /// An ordinary event type.
    Type(EventType),
    /// Any of a set of event types: each occurrence of any member counts as
    /// one reference occurrence.
    AnyOf(Vec<EventType>),
    /// The beginning of every tick of a granularity within the sequence
    /// span (e.g. "the beginning of a week").
    TickStart(Gran),
}

/// Materializes the reference into `(reference type, augmented sequence)`.
///
/// * `Type` passes through unchanged.
/// * `AnyOf` adds a synthetic marker event at each member occurrence.
/// * `TickStart` adds a synthetic marker event at the first instant of
///   every tick of the granularity overlapping the sequence span.
pub fn materialize_reference(
    reference: &Reference,
    seq: &EventSequence,
    reg: &mut TypeRegistry,
) -> (EventType, EventSequence) {
    match reference {
        Reference::Type(ty) => (*ty, seq.clone()),
        Reference::AnyOf(types) => {
            let name = format!(
                "<any-of:{}>",
                types
                    .iter()
                    .map(|t| t.0.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            let marker = reg.intern(&name);
            let mut events = seq.events().to_vec();
            for e in seq.events() {
                if types.contains(&e.ty) {
                    events.push(Event::new(marker, e.time));
                }
            }
            (marker, EventSequence::from_events(events))
        }
        Reference::TickStart(g) => {
            let marker = reg.intern(&format!("<tick-start:{}>", g.name()));
            let mut events = seq.events().to_vec();
            if let (Some(lo), Some(hi)) = (seq.start(), seq.end()) {
                let mut z = match g.next_tick_at_or_after(lo) {
                    Some(z) => z,
                    None => return (marker, seq.clone()),
                };
                while let Some(set) = g.tick_intervals(z) {
                    if set.min() > hi {
                        break;
                    }
                    events.push(Event::new(marker, set.min()));
                    z += 1;
                }
            }
            (marker, EventSequence::from_events(events))
        }
    }
}

/// Runs the optimized discovery pipeline against a generalized reference.
///
/// The structure's root variable is bound to the (possibly synthetic)
/// reference; candidate restrictions and type constraints of `problem_fn`
/// apply as usual. Returns the solutions together with the augmented
/// sequence's registry-visible reference type.
pub fn mine_with_reference(
    structure: tgm_core::EventStructure,
    min_confidence: f64,
    reference: &Reference,
    seq: &EventSequence,
    reg: &mut TypeRegistry,
    opts: &PipelineOptions,
) -> (EventType, Vec<Solution>, PipelineStats) {
    let (ref_ty, augmented) = materialize_reference(reference, seq, reg);
    let mut problem = DiscoveryProblem::new(structure, min_confidence, ref_ty);
    // Synthetic markers must never fill non-root variables.
    if !matches!(reference, Reference::Type(_)) {
        let occurring: Vec<EventType> = seq.types_present();
        for v in problem.structure.vars().skip(1) {
            if problem.candidates.get(v).is_none() {
                problem.candidates.restrict(v, occurring.iter().copied());
            }
        }
    }
    let (sols, stats) = pipeline::mine_with(&problem, &augmented, opts);
    (ref_ty, sols, stats)
}

#[cfg(test)]
mod tests {
    use tgm_core::{StructureBuilder, Tcg};
    use tgm_granularity::Calendar;

    use super::*;

    const DAY: i64 = 86_400;
    const HOUR: i64 = 3_600;

    #[test]
    fn tick_start_reference_finds_weekly_pattern() {
        // "What happens in most weeks?" — a standup within the first two
        // business days of (almost) every week.
        let cal = Calendar::standard();
        let mut reg = TypeRegistry::new();
        let standup = reg.intern("standup");
        let misc = reg.intern("misc");
        let mut events = Vec::new();
        for k in 0..10i64 {
            let monday = (2 + 7 * k) * DAY;
            if k != 4 {
                events.push(Event::new(standup, monday + 9 * HOUR));
            }
            events.push(Event::new(misc, monday + 3 * DAY));
        }
        let seq = EventSequence::from_events(events);

        let mut b = StructureBuilder::new();
        let x0 = b.var("week-start");
        let x1 = b.var("what");
        b.constrain(x0, x1, Tcg::new(0, 0, cal.get("week").unwrap()));
        b.constrain(x0, x1, Tcg::new(0, 1, cal.get("day").unwrap()));
        let s = b.build().unwrap();

        let week = cal.get("week").unwrap();
        let opts = PipelineOptions::default();
        let (ref_ty, sols, stats) = mine_with_reference(
            s,
            0.5,
            &Reference::TickStart(week),
            &seq,
            &mut reg,
            &opts,
        );
        assert!(reg.name(ref_ty).starts_with("<tick-start:week>"));
        // 10 weeks overlap the span; the standup occurs in the first day of
        // 9 of them.
        assert_eq!(sols.len(), 1, "solutions: {sols:?} (stats {stats:?})");
        assert_eq!(sols[0].assignment[1], standup);
        assert!(sols[0].frequency >= 0.85);
        // The synthetic marker never fills a non-root variable.
        assert_ne!(sols[0].assignment[1], ref_ty);
    }

    #[test]
    fn any_of_reference_unions_occurrences() {
        let cal = Calendar::standard();
        let mut reg = TypeRegistry::new();
        let alarm_a = reg.intern("alarm-a");
        let alarm_b = reg.intern("alarm-b");
        let ack = reg.intern("ack");
        let mut events = Vec::new();
        for k in 0..6i64 {
            let t = k * DAY + 8 * HOUR;
            events.push(Event::new(if k % 2 == 0 { alarm_a } else { alarm_b }, t));
            events.push(Event::new(ack, t + HOUR));
        }
        let seq = EventSequence::from_events(events);

        let mut b = StructureBuilder::new();
        let x0 = b.var("alarm");
        let x1 = b.var("response");
        b.constrain(x0, x1, Tcg::new(0, 2, cal.get("hour").unwrap()));
        let s = b.build().unwrap();
        let opts = PipelineOptions::default();
        let (_, sols, stats) = mine_with_reference(
            s,
            0.9,
            &Reference::AnyOf(vec![alarm_a, alarm_b]),
            &seq,
            &mut reg,
            &opts,
        );
        assert_eq!(stats.refs_total, 6, "all six alarms are references");
        assert!(sols.iter().any(|s| s.assignment[1] == ack && s.support == 6));
    }

    #[test]
    fn plain_type_reference_is_identity() {
        let mut reg = TypeRegistry::new();
        let a = reg.intern("A");
        let seq = EventSequence::from_events(vec![Event::new(a, 5)]);
        let (ty, aug) = materialize_reference(&Reference::Type(a), &seq, &mut reg);
        assert_eq!(ty, a);
        assert_eq!(aug, seq);
    }
}
