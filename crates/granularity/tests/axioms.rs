//! Property tests for the temporal-type axioms of the paper (§2) and the
//! soundness of conversion and size tables.

use std::sync::Arc;

use proptest::prelude::*;
use tgm_granularity::{builtin, convert_tick, Calendar, Gran, Granularity};

const DAY: i64 = 86_400;

fn all_grans() -> Vec<Gran> {
    let mut grans: Vec<Gran> = Calendar::with_holidays(vec![2, 6, 150, 151, 366])
        .iter()
        .cloned()
        .collect();
    // The extended types: trading hours, fiscal years/quarters, parsed
    // specs — all must satisfy the same axioms.
    grans.push(Gran::new(builtin::trading_hours(vec![2, 6])));
    grans.push(Gran::new(builtin::Months::with_anchor("fiscal-year", 12, 3)));
    grans.push(Gran::new(builtin::Months::with_anchor("odd-quarter", 3, 2)));
    grans.push(tgm_granularity::parse::parse_granularity("90 minute").unwrap());
    grans.push(tgm_granularity::parse::parse_granularity("days(mon,wed,fri)").unwrap());
    grans.push(tgm_granularity::parse::parse_granularity("days(sat,sun) into week").unwrap());
    grans.push(tgm_granularity::parse::parse_granularity("08:00-12:00 of days(mon,tue)").unwrap());
    grans
}

fn gran_strategy() -> impl Strategy<Value = Gran> {
    let grans = all_grans();
    (0..grans.len()).prop_map(move |i| grans[i].clone())
}

proptest! {
    /// Axiom 1 (monotonicity): ticks i < j have strictly ordered extents.
    #[test]
    fn monotonicity(g in gran_strategy(), z in -500i64..500, d in 1i64..100) {
        if let (Some(a), Some(b)) = (g.tick_intervals(z), g.tick_intervals(z + d)) {
            prop_assert!(a.max() < b.min(),
                "{}: tick {z} [{},{}] must precede tick {} [{},{}]",
                g.name(), a.min(), a.max(), z + d, b.min(), b.max());
        }
    }

    /// The two trait views agree: covering_tick(t) == z iff t in tick z.
    #[test]
    fn views_agree(g in gran_strategy(), t in -400i64 * DAY..400 * DAY) {
        match g.covering_tick(t) {
            Some(z) => {
                let set = g.tick_intervals(z).expect("covering tick must exist");
                prop_assert!(set.contains(t), "{}: tick {z} must contain {t}", g.name());
            }
            None => {
                // t is in a gap: neighbouring ticks must not contain it.
                if let Some(z) = g.next_tick_at_or_after(t) {
                    for w in [z - 1, z, z + 1] {
                        if let Some(set) = g.tick_intervals(w) {
                            prop_assert!(!set.contains(t),
                                "{}: gap instant {t} found in tick {w}", g.name());
                        }
                    }
                }
            }
        }
    }

    /// Ticks tile without overlap: each instant has at most one tick, and
    /// consecutive ticks never share instants.
    #[test]
    fn no_overlap(g in gran_strategy(), z in -500i64..500) {
        if let (Some(a), Some(b)) = (g.tick_intervals(z), g.tick_intervals(z + 1)) {
            prop_assert!(a.max() < b.min(), "{}: ticks {z},{} overlap", g.name(), z + 1);
        }
    }

    /// next_tick_at_or_after returns the first tick whose extent ends at or
    /// after t.
    #[test]
    fn next_tick_correct(g in gran_strategy(), t in -400i64 * DAY..400 * DAY) {
        if let Some(z) = g.next_tick_at_or_after(t) {
            let set = g.tick_intervals(z).expect("returned tick must exist");
            prop_assert!(set.max() >= t);
            if let Some(prev) = g.tick_intervals(z - 1) {
                prop_assert!(prev.max() < t,
                    "{}: tick {} also ends at/after {t}", g.name(), z - 1);
            }
        }
    }

    /// Conversion correctness: ⌈z⌉ is defined iff a covering tick exists,
    /// and when defined it covers the source tick.
    #[test]
    fn conversion_covering(src in gran_strategy(), dst in gran_strategy(), z in -400i64..400) {
        if let Some(set) = src.tick_intervals(z) {
            match convert_tick(&src, z, &dst) {
                Some(z2) => {
                    let big = dst.tick_intervals(z2).expect("target tick must exist");
                    prop_assert!(set.is_subset_of(&big));
                }
                None => {
                    // No target tick may cover the source tick: check the
                    // tick containing the source minimum (the only candidate
                    // by monotonicity).
                    if let Some(z2) = dst.covering_tick(set.min()) {
                        let big = dst.tick_intervals(z2).unwrap();
                        prop_assert!(!set.is_subset_of(&big));
                    }
                }
            }
        }
    }

    /// Size-table soundness: for every concrete run of k consecutive ticks,
    /// minsize <= span <= maxsize and gap >= mingap.
    #[test]
    fn size_bounds_sound(g in gran_strategy(), z in -400i64..400, k in 1u64..20) {
        let t = g.sizes();
        let ki = k as i64;
        if let (Some(first), Some(last)) = (g.tick_intervals(z), g.tick_intervals(z + ki - 1)) {
            let span = last.max() - first.min() + 1;
            let b = t.bounds(k);
            prop_assert!(b.min_span <= span,
                "{}: minsize({k})={} > observed span {span} at tick {z}", g.name(), b.min_span);
            prop_assert!(span <= b.max_span,
                "{}: maxsize({k})={} < observed span {span} at tick {z}", g.name(), b.max_span);
        }
        if let (Some(first), Some(next)) = (g.tick_intervals(z), g.tick_intervals(z + ki)) {
            let gap = next.min() - first.max();
            prop_assert!(t.bounds(k).min_gap <= gap,
                "{}: mingap({k}) too large at tick {z}", g.name());
        }
    }

    /// Gapless granularities really cover every instant.
    #[test]
    fn gapless_total(g in gran_strategy(), t in -400i64 * DAY..400 * DAY) {
        if !g.has_gaps() {
            prop_assert!(g.covering_tick(t).is_some(),
                "{}: claims gapless but {t} is uncovered", g.name());
        }
    }
}

#[test]
fn conversion_examples_from_paper() {
    let cal = Calendar::standard();
    let sec = cal.get("second").unwrap();
    let month = cal.get("month").unwrap();
    let week = cal.get("week").unwrap();
    let day = cal.get("day").unwrap();
    let bday = cal.get("business-day").unwrap();

    // ⌈z⌉ month over second is always defined.
    for z in [1i64, 1_000_000, 50_000_000] {
        assert!(convert_tick(&sec, z, &month).is_some());
    }
    // ⌈z⌉ month over week is undefined if the week straddles two months.
    assert_eq!(convert_tick(&week, 1, &month), None); // 1999-12-27..2000-01-02
    assert_eq!(convert_tick(&week, 2, &month), Some(1));
    // ⌈z⌉ b-day over day is undefined on Saturdays/Sundays.
    assert_eq!(convert_tick(&day, 1, &bday), None); // Sat 2000-01-01
    assert_eq!(convert_tick(&day, 2, &bday), None); // Sun 2000-01-02
    assert_eq!(convert_tick(&day, 3, &bday), Some(1)); // Mon 2000-01-03
}

#[test]
fn group_into_respects_frame_boundaries() {
    // Business-week of a week fully containing a holiday shrinks.
    let hol = 4 * DAY; // Wednesday 2000-01-05
    let cal = Calendar::with_holidays(vec![hol / DAY]);
    let bw = cal.get("business-week").unwrap();
    // Week 2 (Mon 2000-01-03 .. Sun 09) has 4 business days.
    assert_eq!(bw.tick_intervals(2).unwrap().count(), 4 * DAY);
    let plain = Calendar::standard().get("business-week").unwrap();
    assert_eq!(plain.tick_intervals(2).unwrap().count(), 5 * DAY);
}

#[test]
fn weekend_day_has_two_per_week() {
    let wd = builtin::weekend_day();
    // Ticks 1 and 2 are Sat/Sun 2000-01-01/02; tick 3 is Sat 2000-01-08.
    assert_eq!(wd.tick_intervals(1).unwrap().min(), 0);
    assert_eq!(wd.tick_intervals(2).unwrap().min(), DAY);
    assert_eq!(wd.tick_intervals(3).unwrap().min(), 7 * DAY);
}

#[test]
fn custom_granularity_composes() {
    // A "semester" = 6-month groups registered into a calendar.
    let mut cal = Calendar::standard();
    cal.register(Gran::new(builtin::n_month(6))).unwrap();
    let sem = cal.get("6-month").unwrap();
    // First semester of 2000: Jan..Jun = 182 days (leap year).
    assert_eq!(sem.tick_intervals(1).unwrap().count(), 182 * DAY);
    let month = cal.get("month").unwrap();
    assert_eq!(convert_tick(&month, 6, &sem), Some(1));
    assert_eq!(convert_tick(&month, 7, &sem), Some(2));
}

#[test]
fn business_month_group_into_arc_composition() {
    let bday: Arc<dyn Granularity> = Arc::new(builtin::business_day(Vec::new()));
    let quarter: Arc<dyn Granularity> = Arc::new(builtin::n_month(3));
    let bq = builtin::GroupInto::new("business-quarter", bday, quarter);
    // Q1 2000 business days: Jan 21 + Feb 21 + Mar 23 = 65.
    assert_eq!(bq.tick_intervals(1).unwrap().count(), 65 * DAY);
}

proptest! {
    /// The spec parser never panics on arbitrary input.
    #[test]
    fn spec_parser_never_panics(s in "\\PC{0,40}") {
        let _ = tgm_granularity::parse::parse_granularity(&s);
        let _ = tgm_granularity::parse::calendar_from_config(&s);
    }
}

/// Draws grammar productions from a fixed roll of dice (0 once spent).
struct Dice(std::vec::IntoIter<u32>);

impl Dice {
    fn pick<'a>(&mut self, tokens: &[&'a str]) -> &'a str {
        tokens[self.below(tokens.len())]
    }
    fn below(&mut self, n: usize) -> usize {
        self.0.next().unwrap_or(0) as usize % n
    }
}

/// Counts at the edges of `i64`: a count times a unit's length must not
/// overflow into a panic.
const COUNTS: &[&str] = &["0", "1", "3", "03", "-2", "9223372036854775807", "1317624576693539401"];
const UNITS: &[&str] = &[
    "second", "seconds", "minute", "minutes", "hour", "hours", "day", "days", "week", "weeks",
    "month", "months", "quarter", "quarters", "year", "years", "parsec",
];
const DAY_HEADS: &[&str] = &[
    "day", "days", "business-day", "business-days", "weekend-day", "weekend-days", "weekends",
    "business-weeks", "business-months", "trading-hours",
];
const WEEKDAYS: &[&str] = &["mon", "tue", "wed", "thu", "fri", "sat", "sun", "funday", ""];
const MONTHS: &[&str] = &["jan", "feb", "apr", "dec", "smarch"];
const YEARS: &[&str] = &["2000", "2001", "1900", "-44", "2147483647"];

/// `YYYY-MM-DD` with month 0–13 and day 0–32, or `YYYY-MM`.
fn date(d: &mut Dice) -> String {
    let (y, m) = (d.pick(YEARS), d.below(14));
    match d.below(4) {
        0 => format!("{y}-{m:02}"),
        _ => format!("{y}-{m:02}-{:02}", d.below(33)),
    }
}

fn day_filter(d: &mut Dice) -> String {
    let mut out = match d.below(3) {
        0 => d.pick(DAY_HEADS).to_owned(),
        n => {
            let wds: Vec<&str> = (0..1 + d.below(3)).map(|_| d.pick(WEEKDAYS)).collect();
            match n {
                1 => format!("days({})", wds.join(",")),
                _ => format!("days {}", wds.join(",")),
            }
        }
    };
    if d.below(2) == 0 {
        let dates: Vec<String> = (0..1 + d.below(2)).map(|_| date(d)).collect();
        out = format!("{out} except {}", dates.join(","));
    }
    out
}

fn atom(d: &mut Dice) -> String {
    match d.below(6) {
        0 => d.pick(UNITS).to_owned(),
        1 => format!("{} {}", d.pick(COUNTS), d.pick(UNITS)),
        2 => format!("{} {} @ {}", d.pick(COUNTS), d.pick(UNITS), date(d)),
        3 => day_filter(d),
        4 => {
            let window = match d.below(2) {
                0 => {
                    let mut hm = || format!("{:02}:{:02}", d.below(26), [0, 30, 59, 60][d.below(4)]);
                    format!("{}-{}", hm(), hm())
                }
                _ => format!("hours {}..{}", d.below(26), d.below(26)),
            };
            format!("{window} of {}", day_filter(d))
        }
        _ => {
            let units = d.pick(&["weeks", "years", "fiscal-years", "quarters", "seconds"]);
            let at = match d.below(2) {
                0 => d.pick(WEEKDAYS),
                _ => d.pick(MONTHS),
            };
            format!("{units} starting {at}")
        }
    }
}

/// A spec of up to six `into`-joined atoms, one more than a chain may
/// hold, with a whitespace run on either side of each `into`.
fn spec(d: &mut Dice) -> String {
    let mut out = atom(d);
    for _ in 0..d.below(6) {
        let mut gap = || d.pick(&[" ", "  ", "\t"]);
        out = format!("{out}{}into{}{}", gap(), gap(), atom(d));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    /// Specs built from the grammar's own tokens — edge counts, impossible
    /// dates, out-of-range hours, bogus names — parse, register and load
    /// from a calendar file as values or typed errors, never as panics.
    #[test]
    fn grammar_specs_never_panic(dice in prop::collection::vec(any::<u32>(), 64)) {
        let mut d = Dice(dice.into_iter());
        let spec = spec(&mut d);
        if let Ok(g) = tgm_granularity::parse::parse_granularity(&spec) {
            let _ = Calendar::standard().register(g);
        }
        let config = format!("holiday {}\ngran {spec}\n", date(&mut d));
        let _ = tgm_granularity::parse::calendar_from_config(&config);
    }
}
