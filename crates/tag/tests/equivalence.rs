//! Theorem 3 equivalence, tested by brute force: for small inputs, the
//! constructed TAG accepts a sequence iff the complex event type occurs in
//! it (an injective, type- and constraint-respecting assignment of events
//! to variables exists).

use proptest::prelude::*;
use tgm_core::{ComplexEventType, EventStructure, StructureBuilder, Tcg, VarId};
use tgm_events::{Event, EventType};
use tgm_granularity::{Calendar, Gran};
use tgm_tag::{build_tag, Matcher};

const DAY: i64 = 86_400;

/// Brute-force occurrence check: try every injective assignment of events
/// to variables with matching types.
///
/// Sequential-consumption tie rule: the TAG reads the event *list* in
/// order, so for every arc `(a, b)` the event assigned to `a` must precede
/// the event assigned to `b` in the list (this only differs from the pure
/// timestamp semantics when distinct events share a timestamp).
fn occurs_brute_force(cet: &ComplexEventType, events: &[Event]) -> bool {
    let s = cet.structure();
    let n = s.len();
    let mut chosen: Vec<usize> = Vec::with_capacity(n);
    fn rec(
        cet: &ComplexEventType,
        s: &EventStructure,
        events: &[Event],
        chosen: &mut Vec<usize>,
    ) -> bool {
        let v = VarId(chosen.len());
        if chosen.len() == s.len() {
            let times: Vec<i64> = chosen.iter().map(|&i| events[i].time).collect();
            let list_order_ok = s
                .arcs()
                .all(|(a, b, _)| chosen[a.index()] < chosen[b.index()]);
            return list_order_ok && s.satisfied_by(&times);
        }
        for (i, e) in events.iter().enumerate() {
            if e.ty != cet.event_type(v) || chosen.contains(&i) {
                continue;
            }
            chosen.push(i);
            if rec(cet, s, events, chosen) {
                return true;
            }
            chosen.pop();
        }
        false
    }
    rec(cet, s, events, &mut chosen)
}

fn grans() -> Vec<Gran> {
    let cal = Calendar::standard();
    ["hour", "day", "week", "business-day"]
        .iter()
        .map(|n| cal.get(n).unwrap())
        .collect()
}

/// A small random structure: either a 3-chain or a diamond, with random
/// TCGs, and a random type assignment over a 3-letter alphabet.
fn random_cet(
    shape: bool,
    gran_picks: [usize; 4],
    bounds: [(u64, u64); 4],
    type_picks: [u32; 4],
) -> ComplexEventType {
    let gs = grans();
    let tcg = |i: usize| {
        let (lo, w) = bounds[i];
        Tcg::new(lo, lo + w, gs[gran_picks[i] % gs.len()].clone())
    };
    let mut b = StructureBuilder::new();
    if shape {
        // Chain X0 -> X1 -> X2.
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        let x2 = b.var("X2");
        b.constrain(x0, x1, tcg(0));
        b.constrain(x1, x2, tcg(1));
        let s = b.build().unwrap();
        ComplexEventType::new(
            s,
            type_picks[..3].iter().map(|&t| EventType(t % 3)).collect(),
        )
    } else {
        // Diamond.
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        let x2 = b.var("X2");
        let x3 = b.var("X3");
        b.constrain(x0, x1, tcg(0));
        b.constrain(x0, x2, tcg(1));
        b.constrain(x1, x3, tcg(2));
        b.constrain(x2, x3, tcg(3));
        let s = b.build().unwrap();
        ComplexEventType::new(
            s,
            type_picks.iter().map(|&t| EventType(t % 3)).collect(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tag_acceptance_equals_brute_force(
        shape in any::<bool>(),
        gran_picks in [0usize..4, 0usize..4, 0usize..4, 0usize..4],
        bounds in [(0u64..3, 0u64..3), (0u64..3, 0u64..3), (0u64..3, 0u64..3), (0u64..3, 0u64..3)],
        type_picks in [0u32..3, 0u32..3, 0u32..3, 0u32..3],
        raw_events in proptest::collection::vec((0u32..3, 0i64..12), 0..8),
    ) {
        let cet = random_cet(shape, gran_picks, bounds, type_picks);
        let tag = build_tag(&cet);
        // Events over ~12 days in 6-hour steps, starting Monday 2000-01-03.
        let events: Vec<Event> = {
            let mut v: Vec<Event> = raw_events
                .iter()
                .map(|&(ty, step)| Event::new(EventType(ty), 2 * DAY + step * 6 * 3_600))
                .collect();
            v.sort();
            v.dedup();
            v
        };
        let expected = occurs_brute_force(&cet, &events);
        let got = Matcher::new(&tag).accepts(&events);
        prop_assert_eq!(
            got, expected,
            "TAG acceptance mismatch for {:?} over {:?}",
            cet, events
        );
    }
}

#[test]
fn anchored_acceptance_pins_root_occurrence() {
    // Root type A at two positions; constraints satisfiable only from the
    // second one. Anchored matching from the first occurrence must fail,
    // from the second must succeed.
    let cal = Calendar::standard();
    let day = cal.get("day").unwrap();
    let mut b = StructureBuilder::new();
    let x0 = b.var("X0");
    let x1 = b.var("X1");
    b.constrain(x0, x1, Tcg::new(1, 1, day));
    let s = b.build().unwrap();
    let a = EventType(0);
    let bt = EventType(1);
    let cet = ComplexEventType::new(s, vec![a, bt]);
    let tag = build_tag(&cet);
    let m = Matcher::with_options(&tag, tgm_tag::MatchOptions { anchored: true });
    let events = vec![
        Event::new(a, 0),
        Event::new(a, 5 * DAY),
        Event::new(bt, 6 * DAY),
    ];
    // From the first A: the B is 6 days later, no match anchored at it.
    assert!(!m.accepts(&events));
    // From the second A (suffix): match.
    assert!(m.accepts(&events[1..]));
}

/// `find_occurrence` returns genuine witness events: right count, right
/// type multiset, and assignable to variables satisfying the structure.
#[test]
fn find_occurrence_returns_real_witnesses() {
    use tgm_core::examples::{example_1, figure_1a_witness};
    use tgm_events::TypeRegistry;

    let cal = Calendar::standard();
    let mut reg = TypeRegistry::new();
    let (cet, tys) = example_1(&cal, &mut reg);
    let tag = build_tag(&cet);
    let w = figure_1a_witness();
    let noise = EventType(99);
    let mut events = vec![
        Event::new(noise, w[0] - 3_600),
        Event::new(tys.ibm_rise, w[0]),
        Event::new(noise, w[0] + 60),
        Event::new(tys.ibm_report, w[1]),
        Event::new(tys.hp_rise, w[2]),
        Event::new(noise, w[2] + 60),
        Event::new(tys.ibm_fall, w[3]),
        Event::new(noise, w[3] + 60),
    ];
    events.sort();
    let occ = Matcher::new(&tag)
        .find_occurrence(&events)
        .expect("occurrence exists");
    assert_eq!(occ.len(), 4);
    // Consumption order for the Figure 1(a) cross product is X0, then
    // X1/X2 in stream order, then X3.
    assert_eq!(events[occ[0]].ty, tys.ibm_rise);
    assert_eq!(events[occ[3]].ty, tys.ibm_fall);
    let consumed: Vec<(tgm_events::EventType, i64)> = vec![
        (events[occ[0]].ty, events[occ[0]].time),
        (events[occ[1]].ty, events[occ[1]].time),
        (events[occ[2]].ty, events[occ[2]].time),
        (events[occ[3]].ty, events[occ[3]].time),
    ];
    // Map consumed events to variables by type (all distinct here).
    let mut inst = [(tys.ibm_rise, 0i64); 4];
    for &(ty, t) in &consumed {
        let v = if ty == tys.ibm_rise {
            0
        } else if ty == tys.ibm_report {
            1
        } else if ty == tys.hp_rise {
            2
        } else {
            3
        };
        inst[v] = (ty, t);
    }
    assert!(cet.occurred_by(&inst));
    // No occurrence -> None.
    let short = &events[..3];
    assert!(Matcher::new(&tag).find_occurrence(short).is_none());
    assert!(Matcher::new(&tag).find_occurrence(&[]).is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// find_occurrence is consistent with accepts, and its witnesses are
    /// valid: the consumed types match the assignment multiset and the
    /// timestamps satisfy the structure under some variable mapping.
    #[test]
    fn find_occurrence_matches_accepts(
        shape in any::<bool>(),
        gran_picks in [0usize..4, 0usize..4, 0usize..4, 0usize..4],
        bounds in [(0u64..3, 0u64..3), (0u64..3, 0u64..3), (0u64..3, 0u64..3), (0u64..3, 0u64..3)],
        type_picks in [0u32..3, 0u32..3, 0u32..3, 0u32..3],
        raw_events in proptest::collection::vec((0u32..3, 0i64..12), 0..8),
    ) {
        let cet = random_cet(shape, gran_picks, bounds, type_picks);
        let tag = build_tag(&cet);
        let events: Vec<Event> = {
            let mut v: Vec<Event> = raw_events
                .iter()
                .map(|&(ty, step)| Event::new(EventType(ty), 2 * DAY + step * 6 * 3_600))
                .collect();
            v.sort();
            v.dedup();
            v
        };
        let m = Matcher::new(&tag);
        let accepted = m.accepts(&events);
        match m.find_occurrence(&events) {
            Some(occ) => {
                prop_assert!(accepted, "found an occurrence but accepts() is false");
                prop_assert_eq!(occ.len(), cet.structure().len());
                // Indices strictly increasing (consumption order).
                prop_assert!(occ.windows(2).all(|w| w[0] < w[1]));
                // Type multiset matches the assignment.
                let mut got: Vec<u32> = occ.iter().map(|&i| events[i].ty.0).collect();
                let mut want: Vec<u32> = cet.assignment().iter().map(|t| t.0).collect();
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }
            None => prop_assert!(!accepted, "accepts() but no occurrence found"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The streaming matcher reports a completion iff some prefix is
    /// accepted by the batch matcher, at exactly the first accepting
    /// prefix.
    #[test]
    fn stream_equals_batch_prefixes(
        gran_picks in [0usize..4, 0usize..4, 0usize..4, 0usize..4],
        bounds in [(0u64..3, 0u64..3), (0u64..3, 0u64..3), (0u64..3, 0u64..3), (0u64..3, 0u64..3)],
        type_picks in [0u32..3, 0u32..3, 0u32..3, 0u32..3],
        raw_events in proptest::collection::vec((0u32..3, 0i64..12), 0..8),
    ) {
        let cet = random_cet(true, gran_picks, bounds, type_picks);
        let tag = build_tag(&cet);
        let events: Vec<Event> = {
            let mut v: Vec<Event> = raw_events
                .iter()
                .map(|&(ty, step)| Event::new(EventType(ty), 2 * DAY + step * 6 * 3_600))
                .collect();
            v.sort();
            v.dedup();
            v
        };
        let m = Matcher::new(&tag);
        let mut sm = tgm_tag::MatchSession::new(&tag);
        let mut first_completion = None;
        for (i, &e) in events.iter().enumerate() {
            if sm.push(e).completed() && first_completion.is_none() {
                first_completion = Some(i);
            }
        }
        for i in 0..events.len() {
            let batch = m.matches_within(&events[..=i]);
            let stream = first_completion.is_some_and(|c| i >= c);
            prop_assert_eq!(batch, stream, "prefix {} of {:?}", i, events);
        }
    }
}
