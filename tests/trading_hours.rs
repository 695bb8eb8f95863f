//! End-to-end test over an *intra-day* granularity: trading hours
//! (09:30–16:00 on business days), exercising the full stack — granularity
//! grammar → TCG → propagation → TAG → mining — on an order/fill
//! workload.

use tgm::granularity::builtin;
use tgm::granularity::instant;
use tgm::granularity::parse::parse_granularity;
use tgm::prelude::*;

#[test]
fn same_trading_day_fill_discovery() {
    let th = parse_granularity("trading-hours").unwrap();
    // Differential: the parsed spec matches the hand-rolled builtin
    // window, tick for tick.
    let hand_rolled = Gran::new(builtin::trading_hours(Vec::new()));
    for z in [-7, 1, 2, 30] {
        assert_eq!(th.tick_intervals(z), hand_rolled.tick_intervals(z));
    }
    let mut cal = Calendar::standard();
    cal.register(th.clone()).unwrap();

    // The pattern: an order filled within 2 hours, during the SAME trading
    // session. An order at 15:30 filled at 17:00 is within 2 hours but
    // outside the session — not a fill-by-close.
    let mut b = StructureBuilder::new();
    let order = b.var("order");
    let fill = b.var("fill");
    b.constrain(order, fill, Tcg::new(0, 0, th.clone()));
    b.constrain(order, fill, Tcg::new(0, 2, cal.get("hour").unwrap()));
    let s = b.build().unwrap();

    // Propagation handles the gapped intra-day granularity soundly.
    let p = tgm::core::propagate::propagate(&s);
    assert!(p.is_consistent());

    let mut reg = TypeRegistry::new();
    let order_ty = reg.intern("order");
    let fill_ty = reg.intern("fill");
    let late_ty = reg.intern("late-fill");

    let mut sb = SequenceBuilder::new();
    // Mon-Thu 2000-01-03..06: order 11:00, fill 12:30 (same session).
    for (y, m, d) in [(2000, 1, 3), (2000, 1, 4), (2000, 1, 5), (2000, 1, 6)] {
        sb.push(order_ty, instant(y, m, d as u8, 11, 0, 0));
        sb.push(fill_ty, instant(y, m, d as u8, 12, 30, 0));
    }
    // Friday: order at 15:30, "fill" at 17:00 — within 2h but after close.
    sb.push(order_ty, instant(2000, 1, 7, 15, 30, 0));
    sb.push(late_ty, instant(2000, 1, 7, 17, 0, 0));
    let seq = sb.build();

    // TAG semantics: the Friday pair must NOT match.
    let cet = ComplexEventType::new(s.clone(), vec![order_ty, late_ty]);
    let tag = build_tag(&cet);
    assert!(!Matcher::new(&tag).accepts(seq.events()));

    // Discovery: fills follow 4 of 5 orders within the session.
    let problem = DiscoveryProblem::new(s, 0.5, order_ty);
    let (sols, stats) = pipeline::mine(&problem, &seq);
    assert_eq!(sols.len(), 1, "{sols:?} (stats {stats:?})");
    assert_eq!(sols[0].assignment[1], fill_ty);
    assert_eq!(sols[0].support, 4);
    assert!((sols[0].frequency - 0.8).abs() < 1e-9);

    // Sequence reduction drops the after-hours event for the fill slot...
    // it can still bind nothing (late-fill at 17:00 is outside every
    // trading-hours tick), so step 2 removes it.
    assert!(stats.events_kept < stats.events_total);
}

#[test]
fn cross_session_constraint() {
    // "Next trading session" via tick distance 1 on trading-hours.
    let th = parse_granularity("hours 9..16 of business-days").unwrap();
    let next_session = Tcg::new(1, 1, th);
    // Friday 2000-01-07 10:00 -> Monday 2000-01-10 10:00: next session
    // (the weekend has no sessions).
    assert!(next_session.satisfied(
        instant(2000, 1, 7, 10, 0, 0),
        instant(2000, 1, 10, 10, 0, 0)
    ));
    // Friday -> Tuesday skips a session.
    assert!(!next_session.satisfied(
        instant(2000, 1, 7, 10, 0, 0),
        instant(2000, 1, 11, 10, 0, 0)
    ));
    // An after-hours timestamp has no tick: constraint unsatisfied.
    assert!(!next_session.satisfied(
        instant(2000, 1, 7, 18, 0, 0),
        instant(2000, 1, 10, 10, 0, 0)
    ));
}
