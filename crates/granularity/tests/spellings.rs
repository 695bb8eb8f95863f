//! The spelling corpus of the granularity grammar: every spelling the
//! docs, examples and tests use, each pinned to its canonical name and to a
//! granularity built directly from the `builtin` constructors. Structure
//! JSON names a `--gran` / `grans` granularity by its name, so a parser
//! change that renames a spelling or moves a tick fails here.

use std::sync::Arc;

use tgm_granularity::builtin::{
    self, DayWindow, FilteredDays, GroupInto, Months, Uniform, SECONDS_PER_DAY as DAY,
};
use tgm_granularity::parse::parse_granularity;
use tgm_granularity::{days_from_civil, CivilDate, Gran, Granularity};

const HOUR: i64 = 3_600;
const ALL: [bool; 7] = [true; 7];
const BUSINESS: [bool; 7] = [true, true, true, true, true, false, false];
const WEEKEND: [bool; 7] = [false, false, false, false, false, true, true];
const MWF: [bool; 7] = [true, false, true, false, true, false, false];

/// Day index (0 = 2000-01-01) of a civil date.
fn day(y: i32, m: u8, d: u8) -> i64 {
    days_from_civil(CivilDate::new(y, m, d))
}

fn uniform(name: &str, period: i64, anchor: i64) -> Gran {
    Gran::new(Uniform::new(name, period, anchor))
}

fn months(name: &str, per_tick: i64, anchor: i64) -> Gran {
    Gran::new(Months::with_anchor(name, per_tick, anchor))
}

fn days(name: &str, keep: [bool; 7], holidays: Vec<i64>) -> Gran {
    Gran::new(FilteredDays::new(name, keep, holidays))
}

fn window(name: &str, keep: [bool; 7], holidays: Vec<i64>, start: i64, end: i64) -> Gran {
    Gran::new(DayWindow::new(
        name,
        FilteredDays::new(name, keep, holidays),
        start,
        end,
    ))
}

fn group(name: &str, inner: impl Granularity + 'static, frame: impl Granularity + 'static) -> Gran {
    Gran::new(GroupInto::new(name, Arc::new(inner), Arc::new(frame)))
}

/// `(spec, canonical name, the same granularity from builtin constructors)`.
fn corpus() -> Vec<(&'static str, &'static str, Gran)> {
    let fd = FilteredDays::new;
    vec![
        // Base names.
        ("second", "second", Gran::new(builtin::second())),
        ("minute", "minute", Gran::new(builtin::minute())),
        ("hour", "hour", Gran::new(builtin::hour())),
        ("day", "day", Gran::new(builtin::day())),
        ("week", "week", Gran::new(builtin::week())),
        ("month", "month", Gran::new(builtin::month())),
        ("year", "year", Gran::new(builtin::year())),
        (
            "business-day",
            "business-day",
            Gran::new(builtin::business_day(vec![])),
        ),
        (
            "weekend-day",
            "weekend-day",
            Gran::new(builtin::weekend_day()),
        ),
        // Plural bases.
        ("seconds", "seconds", uniform("seconds", 1, 0)),
        ("minutes", "minutes", uniform("minutes", 60, 0)),
        ("hours", "hours", uniform("hours", HOUR, 0)),
        ("days", "days", uniform("days", DAY, 0)),
        ("weeks", "weeks", uniform("weeks", 7 * DAY, -5 * DAY)),
        ("months", "months", months("months", 1, 0)),
        ("quarters", "quarters", months("quarters", 3, 0)),
        ("years", "years", months("years", 12, 0)),
        (
            "business-days",
            "business-days",
            days("business-days", BUSINESS, vec![]),
        ),
        (
            "weekend-days",
            "weekend-days",
            days("weekend-days", WEEKEND, vec![]),
        ),
        // Counted units, singular (optionally anchored) and plural.
        ("90 minute", "90 minute", uniform("90 minute", 90 * 60, 0)),
        ("2 week", "2 week", uniform("2 week", 14 * DAY, -5 * DAY)),
        ("3 month", "3 month", months("3 month", 3, 0)),
        ("6 month", "6 month", months("6 month", 6, 0)),
        (
            "12 month @ 2000-04",
            "12 month @ 2000-04",
            months("12 month @ 2000-04", 12, 3),
        ),
        (
            "3 month @ 2000-04",
            "3 month @ 2000-04",
            months("3 month @ 2000-04", 3, 3),
        ),
        (
            "1 year @ 2000-04",
            "1 year @ 2000-04",
            months("1 year @ 2000-04", 12, 3),
        ),
        (
            "  12   month   @  2000-04 ",
            "12 month @ 2000-04",
            months("12 month @ 2000-04", 12, 3),
        ),
        (
            "1 day @ 2000-01-03",
            "1 day @ 2000-01-03",
            uniform("1 day @ 2000-01-03", DAY, 2 * DAY),
        ),
        (
            "90 minutes",
            "90 minutes",
            uniform("90 minutes", 90 * 60, 0),
        ),
        ("6 months", "6 months", months("6 months", 6, 0)),
        ("2 quarters", "2 quarters", months("2 quarters", 6, 0)),
        // `… starting …`.
        (
            "weeks starting mon",
            "weeks starting mon",
            uniform("weeks starting mon", 7 * DAY, -5 * DAY),
        ),
        (
            "weeks starting wed",
            "weeks starting wed",
            uniform("weeks starting wed", 7 * DAY, -3 * DAY),
        ),
        (
            "fiscal-years starting apr",
            "fiscal-years starting apr",
            months("fiscal-years starting apr", 12, 3),
        ),
        (
            "quarters starting feb",
            "quarters starting feb",
            months("quarters starting feb", 3, 1),
        ),
        (
            "quarters starting apr",
            "quarters starting apr",
            months("quarters starting apr", 3, 3),
        ),
        // Day filters.
        (
            "days(mon,wed,fri)",
            "days(mon,wed,fri)",
            days("days(mon,wed,fri)", MWF, vec![]),
        ),
        // A weekday list in parentheses keeps its text as written; a list
        // without them reads each whitespace run as one space.
        (
            "days(mon,  wed,fri)",
            "days(mon,  wed,fri)",
            days("days(mon,  wed,fri)", MWF, vec![]),
        ),
        (
            "days  mon,  wed,fri",
            "days mon, wed,fri",
            days("days mon, wed,fri", MWF, vec![]),
        ),
        (
            "days mon,wed,fri",
            "days mon,wed,fri",
            days("days mon,wed,fri", MWF, vec![]),
        ),
        (
            "business-day except 2000-01-03",
            "business-day except 2000-01-03",
            days("business-day except 2000-01-03", BUSINESS, vec![2]),
        ),
        (
            "business-days except 2000-01-03",
            "business-days except 2000-01-03",
            days("business-days except 2000-01-03", BUSINESS, vec![2]),
        ),
        (
            "business-days except 2000-01-17,2000-07-04",
            "business-days except 2000-01-17,2000-07-04",
            days(
                "business-days except 2000-01-17,2000-07-04",
                BUSINESS,
                vec![day(2000, 1, 17), day(2000, 7, 4)],
            ),
        ),
        // Intra-day windows.
        (
            "09:30-16:00 of business-day",
            "09:30-16:00 of business-day",
            window(
                "09:30-16:00 of business-day",
                BUSINESS,
                vec![],
                9 * HOUR + 1_800,
                16 * HOUR - 1,
            ),
        ),
        (
            "00:00-06:00 of day",
            "00:00-06:00 of day",
            window("00:00-06:00 of day", ALL, vec![], 0, 6 * HOUR - 1),
        ),
        (
            "08:00-12:00 of days(mon,wed,fri)",
            "08:00-12:00 of days(mon,wed,fri)",
            window(
                "08:00-12:00 of days(mon,wed,fri)",
                MWF,
                vec![],
                8 * HOUR,
                12 * HOUR - 1,
            ),
        ),
        (
            "08:00-12:00 of days(mon,tue)",
            "08:00-12:00 of days(mon,tue)",
            window(
                "08:00-12:00 of days(mon,tue)",
                [true, true, false, false, false, false, false],
                vec![],
                8 * HOUR,
                12 * HOUR - 1,
            ),
        ),
        (
            "hours 9..17 of business-days",
            "hours 9..17 of business-days",
            window(
                "hours 9..17 of business-days",
                BUSINESS,
                vec![],
                9 * HOUR,
                17 * HOUR - 1,
            ),
        ),
        (
            "hours 9..16 of business-days",
            "hours 9..16 of business-days",
            window(
                "hours 9..16 of business-days",
                BUSINESS,
                vec![],
                9 * HOUR,
                16 * HOUR - 1,
            ),
        ),
        (
            "hours 9..17 of business-days except 2000-01-17",
            "hours 9..17 of business-days except 2000-01-17",
            window(
                "hours 9..17 of business-days except 2000-01-17",
                BUSINESS,
                vec![day(2000, 1, 17)],
                9 * HOUR,
                17 * HOUR - 1,
            ),
        ),
        // An hour window names its filter with `except` between single
        // spaces.
        (
            "hours 9..17 of business-daysexcept 2000-01-17",
            "hours 9..17 of business-days except 2000-01-17",
            window(
                "hours 9..17 of business-days except 2000-01-17",
                BUSINESS,
                vec![day(2000, 1, 17)],
                9 * HOUR,
                17 * HOUR - 1,
            ),
        ),
        (
            "trading-hours",
            "trading-hours",
            Gran::new(builtin::trading_hours(vec![])),
        ),
        (
            "trading-hours except 2000-01-17",
            "trading-hours except 2000-01-17",
            Gran::new(DayWindow::new(
                "trading-hours except 2000-01-17",
                builtin::business_day(vec![day(2000, 1, 17)]),
                9 * HOUR + 1_800,
                16 * HOUR,
            )),
        ),
        // Grouped plural bases.
        (
            "weekends",
            "weekends",
            group("weekends", builtin::weekend_day(), builtin::week()),
        ),
        (
            "business-months",
            "business-months",
            group(
                "business-months",
                builtin::business_day(vec![]),
                builtin::month(),
            ),
        ),
        // `into`.
        (
            "days(sat,sun) into week",
            "days(sat,sun) into week",
            group(
                "days(sat,sun) into week",
                fd("days(sat,sun)", WEEKEND, vec![]),
                builtin::week(),
            ),
        ),
        (
            "business-day into month",
            "business-day into month",
            group(
                "business-day into month",
                builtin::business_day(vec![]),
                builtin::month(),
            ),
        ),
        (
            "business-days into weeks",
            "business-days into weeks",
            group(
                "business-days into weeks",
                fd("business-days", BUSINESS, vec![]),
                Uniform::new("weeks", 7 * DAY, -5 * DAY),
            ),
        ),
        (
            "business-days except 2000-01-17 into quarters",
            "business-days except 2000-01-17 into quarters",
            group(
                "business-days except 2000-01-17 into quarters",
                fd(
                    "business-days except 2000-01-17",
                    BUSINESS,
                    vec![day(2000, 1, 17)],
                ),
                Months::new("quarters", 3),
            ),
        ),
        (
            "business-days except 2000-01-04,2000-01-11 into quarters",
            "business-days except 2000-01-04,2000-01-11 into quarters",
            group(
                "business-days except 2000-01-04,2000-01-11 into quarters",
                fd(
                    "business-days except 2000-01-04,2000-01-11",
                    BUSINESS,
                    vec![3, 10],
                ),
                Months::new("quarters", 3),
            ),
        ),
        // An `into` is named from its components' canonical names.
        (
            "1 day @2000-01-03 into week",
            "1 day @ 2000-01-03 into week",
            group(
                "1 day @ 2000-01-03 into week",
                Uniform::new("1 day @ 2000-01-03", DAY, 2 * DAY),
                builtin::week(),
            ),
        ),
    ]
}

/// Spellings the grammar rejects: each must stay a `ParseError`.
const REJECTED: &[&str] = &[
    "",
    "fortnight",
    "lightyear",
    "0 day",
    "0 days",
    "3 parsec",
    "3 quarter",
    "days()",
    "days(funday)",
    "days mon,",
    "1 day @ 2000-13-01",
    "1 month @ 2000-01-01",
    "16:00-09:30 of business-day",
    "25:00-26:00 of day",
    "months except 2000-01-03",
    "days except 2000-01-03",
    "hours 17..9 of days",
    "hours 9..25 of days",
    "weeks starting noday",
    "fiscal-years starting smarch",
    "seconds starting apr",
    "6 months @ 2000-04",
    "day into",
    "into week",
    // More than four `into`s: the chain is bounded.
    "day into day into day into day into day into day",
];

#[test]
fn every_spelling_keeps_its_name_and_ticks() {
    for (spec, name, want) in corpus() {
        let got = parse_granularity(spec).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        assert_eq!(got.name(), name, "{spec:?}");
        assert_eq!(got.has_gaps(), want.has_gaps(), "{spec:?}: has_gaps");
        for z in -400..=400 {
            assert_eq!(
                got.tick_intervals(z),
                want.tick_intervals(z),
                "{spec:?}: tick {z}"
            );
        }
    }
}

#[test]
fn rejected_spellings_stay_rejected() {
    for spec in REJECTED {
        assert!(
            parse_granularity(spec).is_err(),
            "{spec:?} must be rejected"
        );
    }
}
