//! User-defined granularities through the whole stack: custom calendars
//! with holidays, composed grouped granularities, and their use in
//! constraints, propagation, automata, and mining.

use std::sync::Arc;

use tgm::core::propagate::propagate;
use tgm::granularity::builtin::{self, GroupInto, SECONDS_PER_DAY};
use tgm::granularity::convert_tick;
use tgm::prelude::*;

const DAY: i64 = SECONDS_PER_DAY;
const HOUR: i64 = 3_600;

#[test]
fn holidays_change_business_day_semantics() {
    // Tuesday 2000-01-04 (day 3) declared a holiday.
    let with_holiday = Calendar::with_holidays(vec![3]);
    let plain = Calendar::standard();
    let next_bday_plain = Tcg::new(1, 1, plain.get("business-day").unwrap());
    let next_bday_hol = Tcg::new(1, 1, with_holiday.get("business-day").unwrap());
    // Monday 2000-01-03 -> Tuesday 2000-01-04.
    let (mon, tue, wed) = (2 * DAY + HOUR, 3 * DAY + HOUR, 4 * DAY + HOUR);
    assert!(next_bday_plain.satisfied(mon, tue));
    assert!(!next_bday_hol.satisfied(mon, tue)); // Tuesday has no b-day tick
    assert!(next_bday_hol.satisfied(mon, wed)); // Wednesday is the next one
}

#[test]
fn custom_semester_granularity_in_constraints() {
    let mut cal = Calendar::standard();
    let semester = Gran::from_expr("6 months").unwrap();
    // Differential: the DSL expression matches the hand-rolled builtin.
    let hand_rolled = Gran::new(builtin::n_month(6));
    for z in [-3, 1, 2, 8] {
        assert_eq!(semester.tick_intervals(z), hand_rolled.tick_intervals(z));
    }
    cal.register(semester.clone()).unwrap();
    let semester = cal.get("6 months").unwrap();
    let tcg = Tcg::new(1, 1, semester.clone());
    // Jan 2000 -> Aug 2000: next semester.
    let jan = 10 * DAY;
    let aug = 210 * DAY;
    assert!(tcg.satisfied(jan, aug));
    // Jan -> Mar: same semester.
    assert!(!tcg.satisfied(jan, 70 * DAY));

    // Propagation handles the custom granularity (converting into months,
    // days, seconds).
    let mut b = StructureBuilder::new();
    let x0 = b.var("X0");
    let x1 = b.var("X1");
    b.constrain(x0, x1, tcg);
    let s = b.build().unwrap();
    let p = propagate(&s);
    assert!(p.is_consistent());
    let w = p.seconds_window(x0, x1).unwrap();
    assert!(w.lo >= 1);
    assert!(w.hi <= 366 * DAY, "next semester within a year: {w:?}");
}

#[test]
fn grouped_business_quarter_composes() {
    let bq =
        Gran::from_expr("business-days except 2000-01-04,2000-01-11 into quarters").unwrap();
    // Differential: the DSL grouping matches the hand-rolled composition
    // (holiday day-indices 3 and 10 are those dates).
    let bday: Arc<dyn Granularity> = Arc::new(builtin::business_day(vec![3, 10]));
    let quarter: Arc<dyn Granularity> = Arc::new(builtin::n_month(3));
    let hand_rolled = Gran::new(GroupInto::new("business-quarter", bday, quarter));
    for z in [-2, 1, 2, 5] {
        assert_eq!(bq.tick_intervals(z), hand_rolled.tick_intervals(z));
    }
    // Q1 2000 business days: 65 minus the two holidays.
    assert_eq!(
        bq.tick_intervals(1).unwrap().count(),
        63 * DAY,
        "business quarter content"
    );
    // Ticks of business-quarter convert into quarters.
    let q = Gran::new(builtin::n_month(3));
    assert_eq!(convert_tick(&bq, 1, &q), Some(1));
    // Saturday is covered by no business quarter.
    assert_eq!(bq.covering_tick(0), None);
}

#[test]
fn mining_with_custom_calendar() {
    // Pattern: order placed, then shipped within the same business week
    // (with a Wednesday holiday making some weeks shorter).
    let cal = Calendar::with_holidays(vec![4]); // Wed 2000-01-05
    let mut reg = TypeRegistry::new();
    let order = reg.intern("order");
    let ship = reg.intern("ship");
    let mut b = StructureBuilder::new();
    let x0 = b.var("X0");
    let x1 = b.var("X1");
    b.constrain(x0, x1, Tcg::new(0, 0, cal.get("business-week").unwrap()));
    let s = b.build().unwrap();

    let mut sb = SequenceBuilder::new();
    // Week of Jan 3: order Monday, ship Friday (same business week).
    sb.push(order, 2 * DAY + 9 * HOUR).push(ship, 6 * DAY + 9 * HOUR);
    // Week of Jan 10: order Friday, ship next Monday (different week).
    sb.push(order, 13 * DAY + 9 * HOUR).push(ship, 16 * DAY + 9 * HOUR);
    let seq = sb.build();

    let (sols, _) = pipeline::mine(&DiscoveryProblem::new(s, 0.4, order), &seq);
    assert_eq!(sols.len(), 1);
    assert_eq!(sols[0].assignment, vec![order, ship]);
    assert_eq!(sols[0].support, 1, "only the Monday order ships in-week");
}

/// Two granularities that share a name (the standard `business-day` and one
/// with Tuesday 2000-01-04 as a holiday) stay two granularities: the
/// structure lists both, the TAG gets a clock for each, and the miner
/// resolves a tick column for each.
#[test]
fn same_named_granularities_stay_distinct() {
    let bday = Calendar::standard().get("business-day").unwrap();
    let bday_holiday = Gran::new(builtin::business_day(vec![3]));
    assert_eq!(bday.name(), bday_holiday.name());
    assert_ne!(bday, bday_holiday);

    let mut b = StructureBuilder::new();
    let x0 = b.var("X0");
    let x1 = b.var("X1");
    let x2 = b.var("X2");
    b.constrain(x0, x1, Tcg::new(1, 1, bday));
    b.constrain(x1, x2, Tcg::new(1, 1, bday_holiday));
    let s = b.build().unwrap();
    assert_eq!(s.granularities().len(), 2);

    let mut reg = TypeRegistry::new();
    let tys: Vec<EventType> = ["A", "B", "C"].iter().map(|n| reg.intern(n)).collect();
    let cet = ComplexEventType::new(s.clone(), tys.clone());
    let tag = build_tag(&cet);
    assert_eq!(tag.clocks().len(), 2);
    let m = Matcher::new(&tag);
    let at = |day: i64| day * DAY + HOUR;
    let (mon, tue, wed, thu) = (at(2), at(3), at(4), at(5));
    let seq = |evs: &[(usize, i64)]| -> EventSequence {
        let mut sb = SequenceBuilder::new();
        for &(ty, t) in evs {
            sb.push(tys[ty], t);
        }
        sb.build()
    };
    // X1 on the holiday Tuesday has no tick of the second granularity.
    let rejected = seq(&[(0, mon), (1, tue), (2, wed), (2, thu)]);
    assert!(!m.run(rejected.events(), false).accepted);
    // Tue -> Wed -> Thu satisfies both.
    let accepted = seq(&[(0, tue), (1, wed), (2, thu)]);
    assert!(m.run(accepted.events(), false).accepted);

    let problem = DiscoveryProblem::new(s, 0.1, tys[0]);
    for events in [&rejected, &accepted] {
        let (pipe, _) = pipeline::mine(&problem, events);
        let (naive, _) = naive::mine(&problem, events);
        assert_eq!(pipe, naive);
    }
}
