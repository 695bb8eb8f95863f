//! The granularity grammar: one text syntax for user-defined
//! granularities, shared by `tgm --gran`, calendar files
//! ([`calendar_from_config`]), the server's `grans` field and library code
//! ([`parse_granularity`]).
//!
//! Any run of whitespace separates two words. Grammar:
//!
//! ```text
//! spec    := atom ( "into" atom )*            "business-days into weeks"
//! atom    := window | units | grouped | filter
//! window  := HH:MM "-" HH:MM "of" filter      "09:30-16:00 of business-day"
//!          | "hours" a ".." b "of" filter     "hours 9..17 of business-days"
//! units   := unit | plural                    "day", "weeks"
//!          | n unit [ "@" anchor ]            "3 month", "12 month @ 2000-04"
//!          | n plural                         "6 months", "90 minutes"
//!          | "weeks starting" wd              "weeks starting wed"
//!          | ("years" | "fiscal-years" | "quarters") "starting" mo
//!                                             "fiscal-years starting apr"
//! grouped := ("weekends" | "business-weeks" | "business-months"
//!          | "trading-hours") [ except ]      "trading-hours except 2000-01-17"
//! filter  := days [ except ]                  "business-day except 2000-01-03"
//! days    := day | days | business-day | business-days
//!          | weekend-day | weekend-days       (inside a window: every day)
//!          | "days(" wd ("," wd)* ")"         "days(mon,wed,fri)"
//!          | "days" wd ("," wd)*              "days mon,wed,fri"
//! except  := "except" date ("," date)*
//! unit    := second | minute | hour | day | week | month | year
//! plural  := seconds | minutes | hours | days | weeks | months | quarters
//!          | years
//! anchor  := date (second … week) | YYYY-MM (month, year)
//! date    := YYYY-MM-DD
//! wd      := mon | tue | wed | thu | fri | sat | sun
//! mo      := jan | feb | mar | apr | may | jun | jul | aug | sep | oct
//!          | nov | dec
//! ```
//!
//! Every form lowers to the [`builtin`] combinators. `into` groups to the
//! right (`a into b into c` is `a into (b into c)`) and chains at most four
//! times. Outside a window, `day` and `days` are the uniform unit and take
//! no except-list; weeks start on Monday and every other unit at the epoch
//! unless anchored; `a` and `b` are whole hours with `0 <= a < b <= 24`;
//! `n >= 1`, and a counted tick spans at most 1,000 years.
//!
//! A granularity is named by its spec text with each whitespace run read as
//! one space and `except` between single spaces. Some forms are named
//! otherwise:
//!
//! - a spec that starts `days(` or `business-day except` keeps the text of
//!   its weekday list and except-list as written (`"days(mon,  wed)"` keeps
//!   its two spaces);
//! - an `HH:MM-HH:MM` window keeps the text on each side of its `of` as
//!   written;
//! - a singular count reads `n unit [@ anchor]` (`"03 month@2000-04"` is
//!   `"3 month @ 2000-04"`), and an hour window writes its hours as
//!   numbers;
//! - an `into` joins the names of its two sides.

use std::fmt;
use std::sync::Arc;

use crate::builtin::{self, DayWindow, FilteredDays, GroupInto, Months, Uniform};
use crate::calendar_math::{days_from_civil, days_in_month, months_from_civil, CivilDate};
use crate::granularity::Granularity;
use crate::registry::Gran;

/// The most `into`s one spec may chain. Each nests a `GroupInto` that
/// building, evaluating and dropping the granularity all recurse through,
/// so an unbounded chain from outside the program could overflow the stack.
const MAX_INTO: usize = 4;
/// The longest tick a counted unit may span, in years of at most 366
/// days. Tick arithmetic on longer periods overflows `i64` over the
/// instants the library converts, so the grammar refuses them.
const MAX_PERIOD_YEARS: i64 = 1_000;
/// The most characters of input an error message quotes (see [`quote`]).
const QUOTE_CHARS: usize = 64;
const DAY: i64 = builtin::SECONDS_PER_DAY;
const HOUR: i64 = 3_600;
const BUSINESS: [bool; 7] = [true, true, true, true, true, false, false];
const WEEKEND: [bool; 7] = [false, false, false, false, false, true, true];
const WEEKDAYS: [&str; 7] = ["mon", "tue", "wed", "thu", "fri", "sat", "sun"];
const MONTHS: [&str; 12] = [
    "jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec",
];

/// Errors from [`parse_granularity`].
#[derive(Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
}

impl ParseError {
    fn new(msg: impl Into<String>) -> Self {
        ParseError {
            message: msg.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "granularity spec error: {}", self.message)
    }
}

impl fmt::Debug for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for ParseError {}

/// `s` in backquotes for an error message. Past [`QUOTE_CHARS`]
/// characters only its prefix and its byte length are quoted, so a
/// message stays short whatever the input.
fn quote(s: &str) -> String {
    match s.char_indices().nth(QUOTE_CHARS) {
        None => format!("`{s}`"),
        Some((end, _)) => format!("`{}…` ({} bytes)", &s[..end], s.len()),
    }
}

/// Parses a granularity spec of the [module grammar](self).
///
/// ```
/// use tgm_granularity::parse::parse_granularity;
/// use tgm_granularity::Granularity as _;
///
/// let fiscal_year = parse_granularity("fiscal-years starting apr").unwrap();
/// assert!(!fiscal_year.has_gaps());
/// let weekend = parse_granularity("days(sat,sun) into week").unwrap();
/// assert!(weekend.has_gaps());
/// let sessions = parse_granularity("hours 9..17 of business-days").unwrap();
/// assert_eq!(sessions.covering_tick(2 * 86_400 + 10 * 3_600), Some(1)); // Mon 10:00
/// ```
pub fn parse_granularity(spec: &str) -> Result<Gran, ParseError> {
    let spec = spec.trim();
    parse_spec(spec).map_err(|e| ParseError::new(format!("{}: {}", quote(spec), e.message)))
}

/// `atom (into atom)*`, grouped to the right.
fn parse_spec(spec: &str) -> Result<Gran, ParseError> {
    let mut inners = Vec::new();
    let mut rest = spec;
    while let Some((inner, frame)) = split_word(rest, "into") {
        if inners.len() == MAX_INTO {
            return Err(ParseError::new(format!(
                "more than {MAX_INTO} `into`s in one spec"
            )));
        }
        inners.push(parse_atom(inner)?);
        rest = frame;
    }
    let last = parse_atom(rest)?;
    Ok(inners.into_iter().rfold(last, |frame, inner| {
        let name = format!("{} into {}", inner.name(), frame.name());
        Gran::new(GroupInto::new(name, Arc::new(inner), Arc::new(frame)))
    }))
}

fn parse_atom(spec: &str) -> Result<Gran, ParseError> {
    if let Some((window, days)) = split_word(spec, "of") {
        return parse_window(window, days);
    }
    let (head, except) = split_except(spec);
    if let Some(g) = parse_units(head)? {
        return match except {
            Some(_) => Err(ParseError::new(format!("{} takes no except-list", quote(head)))),
            None => Ok(g),
        };
    }
    let name = except_name(head, except);
    // These two keep their lists as written (see the module docs).
    let name = if spec.starts_with("days(") || spec.starts_with("business-day except") {
        name
    } else {
        collapse(&name)
    };
    let days = |filter: &str| parse_day_filter(&name, filter, except);
    let group = |inner: FilteredDays, frame: Arc<dyn Granularity>| {
        Gran::new(GroupInto::new(name.as_str(), Arc::new(inner), frame))
    };
    Ok(match head {
        "weekends" => group(days("weekend-days")?, Arc::new(builtin::week())),
        "business-weeks" => group(days("business-days")?, Arc::new(builtin::week())),
        "business-months" => group(days("business-days")?, Arc::new(builtin::month())),
        // The window of `builtin::trading_hours`: 09:30 through 16:00:00.
        "trading-hours" => Gran::new(DayWindow::new(
            name.as_str(),
            days("business-days")?,
            9 * HOUR + 30 * 60,
            16 * HOUR,
        )),
        _ => Gran::new(days(head)?),
    })
}

/// `HH:MM-HH:MM of <filter>` (through the second before the end minute)
/// or `hours a..b of <filter>` (`[a:00, b:00)`).
fn parse_window(window: &str, days: &str) -> Result<Gran, ParseError> {
    let (head, except) = split_except(days);
    let (name, start, end) = match strip_word(window, "hours") {
        Some(range) => {
            let (a, b) = range.split_once("..").ok_or_else(|| {
                ParseError::new(format!("bad window {} (want hours a..b)", quote(window)))
            })?;
            let hour = |s: &str| {
                s.trim()
                    .parse::<i64>()
                    .map_err(|_| ParseError::new(format!("bad hour {}", quote(s))))
            };
            let (a, b) = (hour(a)?, hour(b)?);
            if !(0..24).contains(&a) || !(1..=24).contains(&b) || a >= b {
                return Err(ParseError::new(format!(
                    "bad hour window `{a}..{b}` (want 0 <= a < b <= 24)"
                )));
            }
            let filter = collapse(&except_name(head, except));
            (
                format!("hours {a}..{b} of {filter}"),
                a * HOUR,
                b * HOUR - 1,
            )
        }
        None => {
            let (start, end) = window.split_once('-').ok_or_else(|| {
                ParseError::new(format!("bad window {} (want HH:MM-HH:MM)", quote(window)))
            })?;
            let (start, end) = (time_of_day(start.trim())?, time_of_day(end.trim())? - 1);
            if start > end {
                return Err(ParseError::new(format!("empty window {}", quote(window))));
            }
            (format!("{window} of {days}"), start, end)
        }
    };
    let days = parse_day_filter(&name, head, except)?;
    Ok(Gran::new(DayWindow::new(name, days, start, end)))
}

/// `HH:MM` as seconds after midnight.
fn time_of_day(s: &str) -> Result<i64, ParseError> {
    let (h, m) = s
        .split_once(':')
        .ok_or_else(|| ParseError::new(format!("bad time {} (want HH:MM)", quote(s))))?;
    let h: i64 = h
        .parse()
        .map_err(|_| ParseError::new(format!("bad hour in {}", quote(s))))?;
    let m: i64 = m
        .parse()
        .map_err(|_| ParseError::new(format!("bad minute in {}", quote(s))))?;
    if !(0..24).contains(&h) || !(0..60).contains(&m) {
        return Err(ParseError::new(format!("time {} out of range", quote(s))));
    }
    Ok(h * HOUR + m * 60)
}

/// A unit's tick length.
#[derive(Clone, Copy)]
enum Len {
    Seconds(i64),
    Months(i64),
}

/// A unit word: its tick length and whether it is the plural form.
fn unit(word: &str) -> Option<(Len, bool)> {
    use Len::{Months, Seconds};
    Some(match word {
        "second" => (Seconds(1), false),
        "seconds" => (Seconds(1), true),
        "minute" => (Seconds(60), false),
        "minutes" => (Seconds(60), true),
        "hour" => (Seconds(HOUR), false),
        "hours" => (Seconds(HOUR), true),
        "day" => (Seconds(DAY), false),
        "days" => (Seconds(DAY), true),
        "week" => (Seconds(7 * DAY), false),
        "weeks" => (Seconds(7 * DAY), true),
        "month" => (Months(1), false),
        "months" => (Months(1), true),
        "quarters" => (Months(3), true),
        "year" => (Months(12), false),
        "years" => (Months(12), true),
        _ => return None,
    })
}

/// Uniform and month-based units: bare, counted, or anchored by
/// `starting`. `None` if `spec` is none of these.
fn parse_units(spec: &str) -> Result<Option<Gran>, ParseError> {
    if let Some((units, at)) = split_word(spec, "starting") {
        return parse_starting(&collapse(spec), units, at).map(Some);
    }
    if let Some((len, _)) = unit(spec) {
        return counted(spec.to_owned(), 1, len, None).map(Some);
    }
    let Some((count, rest)) = spec.split_once(char::is_whitespace) else {
        return Ok(None);
    };
    let Ok(n) = count.parse::<i64>() else {
        return Ok(None);
    };
    if n < 1 {
        return Err(ParseError::new("count must be >= 1"));
    }
    let (word, anchor) = match rest.split_once('@') {
        Some((word, anchor)) => (word.trim(), Some(anchor.trim())),
        None => (rest.trim(), None),
    };
    let (len, plural) =
        unit(word).ok_or_else(|| ParseError::new(format!("unknown unit {}", quote(word))))?;
    let name = match (plural, anchor) {
        (true, None) => format!("{count} {word}"),
        (true, Some(_)) => {
            return Err(ParseError::new(format!(
                "{} takes no anchor (anchor a singular unit: `{n} month @ 2000-04`)",
                quote(word)
            )))
        }
        (false, Some(a)) => format!("{n} {word} @ {a}"),
        (false, None) => format!("{n} {word}"),
    };
    counted(name, n, len, anchor).map(Some)
}

/// `n` units per tick, at most [`MAX_PERIOD_YEARS`] long. The anchor is
/// the first day (uniform units) or month (month units) of tick 1.
fn counted(name: String, n: i64, len: Len, anchor: Option<&str>) -> Result<Gran, ParseError> {
    let too_long = || {
        ParseError::new(format!(
            "{} is too long a period (at most {MAX_PERIOD_YEARS} years)",
            quote(&name)
        ))
    };
    Ok(match len {
        Len::Seconds(per) => {
            let period = n
                .checked_mul(per)
                .filter(|&p| p <= MAX_PERIOD_YEARS * 366 * DAY)
                .ok_or_else(too_long)?;
            let anchor = match anchor {
                Some(a) => parse_date(a)? * DAY,
                // Weeks start on Monday like the builtin; others at the epoch.
                None if per == 7 * DAY => -5 * DAY,
                None => 0,
            };
            Gran::new(Uniform::new(name, period, anchor))
        }
        Len::Months(per) => {
            let per_tick = n
                .checked_mul(per)
                .filter(|&m| m <= MAX_PERIOD_YEARS * 12)
                .ok_or_else(too_long)?;
            let anchor = anchor.map(parse_month).transpose()?.unwrap_or(0);
            Gran::new(Months::with_anchor(name, per_tick, anchor))
        }
    })
}

/// `weeks starting <weekday>` and `(fiscal-)years`/`quarters starting
/// <month>`.
fn parse_starting(name: &str, units: &str, at: &str) -> Result<Gran, ParseError> {
    match units {
        "weeks" => {
            // Day d falls on weekday (d + 5) mod 7 (Monday = 0), so the
            // last day before the epoch with weekday w is ((w + 2) mod 7) - 7.
            let first = (name_index(&WEEKDAYS, at, "weekday")? as i64 + 2) % 7 - 7;
            Ok(Gran::new(Uniform::new(name, 7 * DAY, first * DAY)))
        }
        "years" | "fiscal-years" | "quarters" => {
            let per_tick = if units == "quarters" { 3 } else { 12 };
            let anchor = name_index(&MONTHS, at, "month")? as i64;
            Ok(Gran::new(Months::with_anchor(name, per_tick, anchor)))
        }
        other => Err(ParseError::new(format!(
            "{} does not take `starting` (want weeks, years, fiscal-years or quarters)",
            quote(other)
        ))),
    }
}

/// A day filter named `name`: every day, business days, weekend days or a
/// weekday list, minus an optional except-list.
fn parse_day_filter(
    name: &str,
    head: &str,
    except: Option<&str>,
) -> Result<FilteredDays, ParseError> {
    let keep = match head {
        "day" | "days" => [true; 7],
        "business-day" | "business-days" => BUSINESS,
        "weekend-day" | "weekend-days" => WEEKEND,
        _ => parse_weekdays(head)?,
    };
    let holidays = match except {
        Some(list) => list
            .split(',')
            .map(|d| parse_date(d.trim()))
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };
    Ok(FilteredDays::new(name, keep, holidays))
}

/// `days(wd,…)` or `days wd,…` as a weekday mask (Monday = 0).
fn parse_weekdays(head: &str) -> Result<[bool; 7], ParseError> {
    let list = head
        .strip_prefix("days(")
        .and_then(|s| s.strip_suffix(')'))
        .or_else(|| strip_word(head, "days"))
        .ok_or_else(|| ParseError::new(format!("unknown granularity {}", quote(head))))?;
    let mut keep = [false; 7];
    for wd in list.split(',') {
        keep[name_index(&WEEKDAYS, wd.trim(), "weekday")?] = true;
    }
    Ok(keep)
}

/// Splits `s` around the first `word` with whitespace on both sides.
fn split_word<'a>(s: &'a str, word: &str) -> Option<(&'a str, &'a str)> {
    s.match_indices(word).find_map(|(i, _)| {
        let (head, tail) = (&s[..i], &s[i + word.len()..]);
        (head.ends_with(char::is_whitespace) && tail.starts_with(char::is_whitespace))
            .then(|| (head.trim_end(), tail.trim_start()))
    })
}

/// `s` after a leading `word` and the whitespace that follows it.
fn strip_word<'a>(s: &'a str, word: &str) -> Option<&'a str> {
    s.strip_prefix(word)
        .filter(|rest| rest.starts_with(char::is_whitespace))
        .map(str::trim_start)
}

/// `s` with each whitespace run read as one space.
fn collapse(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Splits `<head> except <list>`.
fn split_except(spec: &str) -> (&str, Option<&str>) {
    match spec.split_once("except") {
        Some((head, list)) => (head.trim(), Some(list.trim())),
        None => (spec, None),
    }
}

fn except_name(head: &str, except: Option<&str>) -> String {
    match except {
        Some(list) => format!("{head} except {list}"),
        None => head.to_owned(),
    }
}

/// The position of `word` in a table of names.
fn name_index(table: &[&str], word: &str, what: &str) -> Result<usize, ParseError> {
    table
        .iter()
        .position(|&n| n == word)
        .ok_or_else(|| ParseError::new(format!("unknown {what} {}", quote(word))))
}

/// Parses `YYYY-MM-DD` into a day index (0 = 2000-01-01).
fn parse_date(s: &str) -> Result<i64, ParseError> {
    let parts: Vec<&str> = s.split('-').collect();
    let [y, m, d] = parts.as_slice() else {
        return Err(ParseError::new(format!("bad date {} (want YYYY-MM-DD)", quote(s))));
    };
    let year: i32 = y
        .parse()
        .map_err(|_| ParseError::new(format!("bad year in {}", quote(s))))?;
    let month: u8 = m
        .parse()
        .map_err(|_| ParseError::new(format!("bad month in {}", quote(s))))?;
    let day: u8 = d
        .parse()
        .map_err(|_| ParseError::new(format!("bad day in {}", quote(s))))?;
    if !(1..=12).contains(&month) || !(1..=days_in_month(year, month)).contains(&day) {
        return Err(ParseError::new(format!("date {} out of range", quote(s))));
    }
    Ok(days_from_civil(CivilDate::new(year, month, day)))
}

/// Parses `YYYY-MM` into a month index (0 = January 2000).
fn parse_month(s: &str) -> Result<i64, ParseError> {
    let parts: Vec<&str> = s.split('-').collect();
    let [y, m] = parts.as_slice() else {
        return Err(ParseError::new(format!("bad month {} (want YYYY-MM)", quote(s))));
    };
    let year: i32 = y
        .parse()
        .map_err(|_| ParseError::new(format!("bad year in {}", quote(s))))?;
    let month: u8 = m
        .parse()
        .map_err(|_| ParseError::new(format!("bad month in {}", quote(s))))?;
    if !(1..=12).contains(&month) {
        return Err(ParseError::new(format!("month {} out of range", quote(s))));
    }
    Ok(months_from_civil(year, month))
}

/// Builds a calendar from a config text: one directive per line, `#`
/// comments. Directives:
///
/// ```text
/// holiday YYYY-MM-DD      # removes the day from the business types
/// gran <spec>             # registers a `parse_granularity` spec
/// ```
///
/// Holidays apply to the standard `business-day`/`business-week`/
/// `business-month` types regardless of directive order.
pub fn calendar_from_config(text: &str) -> Result<crate::Calendar, ParseError> {
    let mut holidays: Vec<i64> = Vec::new();
    let mut specs: Vec<&str> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(date) = line.strip_prefix("holiday ") {
            holidays.push(parse_date(date.trim())?);
        } else if let Some(spec) = line.strip_prefix("gran ") {
            specs.push(spec.trim());
        } else {
            return Err(ParseError::new(format!(
                "line {}: unknown directive {}",
                lineno + 1,
                quote(line)
            )));
        }
    }
    let mut cal = crate::Calendar::with_holidays(holidays);
    for spec in specs {
        let g = parse_granularity(spec)?;
        cal.register(g)
            .map_err(|e| ParseError::new(e.to_string()))?;
    }
    Ok(cal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datetime::format_instant;

    fn parse(spec: &str) -> Gran {
        parse_granularity(spec).unwrap_or_else(|e| panic!("{spec:?}: {e}"))
    }

    #[test]
    fn base_and_plural_names_match_builtins() {
        let cal = crate::Calendar::standard();
        for (spec, builtin_name) in [
            ("second", "second"),
            ("minute", "minute"),
            ("hour", "hour"),
            ("day", "day"),
            ("week", "week"),
            ("month", "month"),
            ("year", "year"),
            ("business-day", "business-day"),
            ("weekend-day", "weekend-day"),
            ("seconds", "second"),
            ("minutes", "minute"),
            ("hours", "hour"),
            ("days", "day"),
            ("weeks", "week"),
            ("months", "month"),
            ("years", "year"),
            ("business-days", "business-day"),
            ("weekend-days", "weekend-day"),
        ] {
            let g = parse(spec);
            let b = cal.get(builtin_name).unwrap();
            assert_eq!(g.name(), spec);
            for z in [-500, -1, 1, 2, 500] {
                assert_eq!(g.tick_intervals(z), b.tick_intervals(z), "{spec} tick {z}");
            }
        }
    }

    #[test]
    fn counted_units() {
        let g = parse("90 minute");
        assert_eq!(g.tick_intervals(1).unwrap().count(), 90 * 60);
        assert_eq!(parse("90 minutes").tick_intervals(1), g.tick_intervals(1));
        let g2 = parse("2 week");
        assert_eq!(g2.tick_intervals(1).unwrap().count(), 14 * DAY);
        // Weeks stay Monday-anchored.
        assert_eq!(
            format_instant(g2.tick_intervals(1).unwrap().min()),
            "1999-12-27 00:00:00 Mon"
        );
        let q = parse("3 month");
        assert_eq!(q.tick_intervals(1).unwrap().count(), 91 * DAY); // Q1 2000
        assert_eq!(parse("quarters").tick_intervals(1), q.tick_intervals(1));
        assert_eq!(
            parse("2 quarters").tick_intervals(3),
            parse("6 month").tick_intervals(3)
        );
    }

    #[test]
    fn anchors() {
        let fy = parse("12 month @ 2000-04");
        assert_eq!(
            format_instant(fy.tick_intervals(1).unwrap().min()),
            "2000-04-01 00:00:00 Sat"
        );
        for spec in [
            "1 year @ 2000-04",
            "fiscal-years starting apr",
            "years starting apr",
        ] {
            let g = parse(spec);
            for z in [-5, 1, 7] {
                assert_eq!(g.tick_intervals(z), fy.tick_intervals(z), "{spec} tick {z}");
            }
        }
        let qf = parse("quarters starting feb");
        assert_eq!(
            format_instant(qf.tick_intervals(1).unwrap().min()),
            "2000-02-01 00:00:00 Tue"
        );
        assert_eq!(
            format_instant(parse("1 day @ 2000-01-03").tick_intervals(1).unwrap().min()),
            "2000-01-03 00:00:00 Mon"
        );
        // "weeks starting mon" is exactly the builtin week.
        let mon = parse("weeks starting mon");
        let week = Gran::new(builtin::week());
        for z in [-10, 1, 10] {
            assert_eq!(mon.tick_intervals(z), week.tick_intervals(z));
        }
        let wed = parse("weeks starting wed");
        assert_eq!(
            format_instant(wed.tick_intervals(1).unwrap().min()),
            "1999-12-29 00:00:00 Wed"
        );
        assert_eq!(wed.tick_intervals(1).unwrap().count(), 7 * DAY);
    }

    #[test]
    fn day_filters() {
        let mwf = parse("days(mon,wed,fri)");
        // Tick 1 = Mon 2000-01-03, tick 2 = Wed 2000-01-05.
        assert_eq!(mwf.tick_intervals(1).unwrap().min(), 2 * DAY);
        assert_eq!(mwf.tick_intervals(2).unwrap().min(), 4 * DAY);
        assert!(mwf.has_gaps());
        let list = parse("days mon,wed,fri");
        for z in [-9, 1, 9] {
            assert_eq!(list.tick_intervals(z), mwf.tick_intervals(z));
        }
        // The first business day at/after the epoch is now Tuesday the 4th.
        for spec in [
            "business-day except 2000-01-03",
            "business-days except 2000-01-03",
        ] {
            assert_eq!(
                parse(spec).tick_intervals(1).unwrap().min(),
                3 * DAY,
                "{spec}"
            );
        }
    }

    #[test]
    fn grouped() {
        let weekend = parse("days(sat,sun) into week");
        assert_eq!(weekend.tick_intervals(1).unwrap().count(), 2 * DAY);
        assert_eq!(weekend.covering_tick(0), Some(1)); // Sat 2000-01-01
        assert_eq!(weekend.covering_tick(2 * DAY), None); // Monday
        assert_eq!(parse("weekends").covering_tick(0), Some(1));
        for spec in ["business-day into month", "business-months"] {
            assert_eq!(
                parse(spec).tick_intervals(1).unwrap().count(),
                21 * DAY,
                "{spec}"
            );
        }
        let bw = parse("business-days into weeks");
        assert_eq!(bw.tick_intervals(2).unwrap().count(), 5 * DAY);
        // `into` nests to the right and is named from its sides' names.
        let nested = parse("days(mon) into 2 week into 12 month@2000-04");
        assert_eq!(
            nested.name(),
            "days(mon) into 2 week into 12 month @ 2000-04"
        );
    }

    #[test]
    fn windows() {
        for spec in [
            "09:30-16:00 of business-day",
            "09:30-16:00 of business-days",
        ] {
            let th = parse(spec);
            // Monday 2000-01-03 10:00 is inside trading hours.
            assert_eq!(th.covering_tick(2 * DAY + 10 * HOUR), Some(1));
            assert_eq!(th.covering_tick(2 * DAY + 17 * HOUR), None); // after close
            assert_eq!(th.covering_tick(10 * HOUR), None); // Saturday
                                                           // The end is exclusive at the minute: 16:00:00 is outside.
            assert_eq!(th.covering_tick(2 * DAY + 16 * HOUR), None);
            assert_eq!(th.covering_tick(2 * DAY + 16 * HOUR - 1), Some(1));
        }
        let night = parse("00:00-06:00 of day");
        assert_eq!(night.covering_tick(HOUR), Some(1));
        assert_eq!(night.covering_tick(12 * HOUR), None);
        let mwf_morning = parse("08:00-12:00 of days(mon,wed,fri)");
        assert_eq!(mwf_morning.covering_tick(2 * DAY + 9 * HOUR), Some(1)); // Mon
        assert_eq!(mwf_morning.covering_tick(3 * DAY + 9 * HOUR), None); // Tue

        let th = parse("hours 9..17 of business-days");
        assert_eq!(th.covering_tick(2 * DAY + 10 * HOUR), Some(1)); // Mon 10:00
        assert_eq!(th.covering_tick(2 * DAY + 17 * HOUR), None); // after close
        assert_eq!(th.covering_tick(10 * HOUR), None); // Saturday
        assert_eq!(parse("hours 09..17 of days").name(), "hours 9..17 of days");

        // "trading-hours" matches the builtin factory exactly.
        let t1 = parse("trading-hours");
        let t2 = Gran::new(builtin::trading_hours(Vec::new()));
        for z in [-50, 1, 50] {
            assert_eq!(t1.tick_intervals(z), t2.tick_intervals(z));
        }
    }

    #[test]
    fn whitespace_runs_separate_words() {
        for (spec, name) in [
            ("  12   month   @  2000-04 ", "12 month @ 2000-04"),
            (
                "hours\t9..17  of business-days",
                "hours 9..17 of business-days",
            ),
            ("fiscal-years\tstarting  apr", "fiscal-years starting apr"),
            ("days  mon,  wed", "days mon, wed"),
            (
                "business-days  except  2000-01-03",
                "business-days except 2000-01-03",
            ),
            ("days(sat,sun)\tinto\tweek", "days(sat,sun) into week"),
            // Written lists and windows keep their text.
            ("days(mon,  wed)", "days(mon,  wed)"),
            (
                "business-day except 2000-01-03,  2000-01-04",
                "business-day except 2000-01-03,  2000-01-04",
            ),
            (
                "09:30 -  16:00  of days(mon,  wed)",
                "09:30 -  16:00 of days(mon,  wed)",
            ),
        ] {
            assert_eq!(parse(spec).name(), name, "{spec:?}");
        }
    }

    #[test]
    fn into_chains_are_bounded() {
        let chain = |n: usize| vec!["day"; n + 1].join(" into ");
        assert!(parse_granularity(&chain(MAX_INTO)).is_ok());
        assert!(parse_granularity(&chain(MAX_INTO + 1)).is_err());
    }

    #[test]
    fn long_specs_are_quoted_by_prefix() {
        assert_eq!(quote("fortnight"), "`fortnight`");
        let junk = "x".repeat(50_000);
        assert_eq!(quote(&junk), format!("`{}…` (50000 bytes)", &junk[..QUOTE_CHARS]));
        // Multibyte input is cut on a character boundary.
        let wide = "é".repeat(1_000);
        assert_eq!(quote(&wide), format!("`{}…` (2000 bytes)", "é".repeat(QUOTE_CHARS)));
    }

    #[test]
    fn errors() {
        for spec in [
            "",
            "fortnight",
            "0 day",
            "0 days",
            "3 parsec",
            "days()",
            "days(funday)",
            "1 day @ 2000-13-01",
            "1 month @ 2000-01-01", // want YYYY-MM
            "6 months @ 2000-04",
            "months except 2000-01-03",
            "16:00-09:30 of business-day",
            "25:00-26:00 of day",
            "hours 17..9 of days",
            "weeks starting noday",
            "fiscal-years starting smarch",
            "seconds starting apr",
        ] {
            assert!(parse_granularity(spec).is_err(), "{spec:?}");
        }
    }

    #[test]
    fn out_of_range_input_is_an_error_not_a_panic() {
        for spec in [
            "business-day except 2000-02-30",
            "business-day except 2001-02-29",
            "1 day @ 2000-04-31",
            "9223372036854775807 week",
            "9223372036854775807 year",
            "1317624576693539401 weeks",
            "3074457345618258603 quarters",
            // Counted periods past 1,000 years.
            "9223372036854775807 second",
            "768614336404564650 year",
            "1001 year",
            "12001 months",
            "52300 weeks",
            "366001 days",
        ] {
            assert!(parse_granularity(spec).is_err(), "{spec:?}");
        }
        for spec in ["1000 year", "12000 months", "52000 weeks", "366000 days"] {
            assert!(parse_granularity(spec).is_ok(), "{spec:?}");
        }
        // Leap days are real dates.
        assert!(parse_granularity("business-day except 2000-02-29").is_ok());
        assert!(calendar_from_config("holiday 2000-02-30").is_err());
    }

    #[test]
    fn parsed_specs_compose_with_calendars() {
        let mut cal = crate::Calendar::standard();
        cal.register(parse("3 month")).unwrap();
        assert!(cal.get("3 month").is_ok());
    }

    #[test]
    fn config_round_trip() {
        let cal = calendar_from_config(
            "# trading calendar\n\
             holiday 2000-01-03   # observed New Year\n\
             gran 3 month\n\
             gran 09:30-16:00 of business-day\n\
             gran fiscal-years starting apr\n",
        )
        .unwrap();
        // The holiday removed Monday 2000-01-03 from business days.
        let bd = cal.get("business-day").unwrap();
        assert_eq!(bd.covering_tick(2 * DAY + 100), None);
        for name in [
            "3 month",
            "09:30-16:00 of business-day",
            "fiscal-years starting apr",
        ] {
            assert!(cal.get(name).is_ok(), "{name}");
        }
    }

    #[test]
    fn config_errors() {
        assert!(calendar_from_config("holiday not-a-date").is_err());
        assert!(calendar_from_config("frobnicate day").is_err());
        assert!(calendar_from_config("gran lightyear").is_err());
        // Duplicate registration.
        assert!(calendar_from_config("gran 3 month\ngran 3 month").is_err());
        // Empty config is the standard calendar.
        let cal = calendar_from_config("").unwrap();
        assert!(cal.get("second").is_ok());
    }
}
