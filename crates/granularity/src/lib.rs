//! Temporal types ("time granularities") as defined in Bettini, Wang &
//! Jajodia, *Testing Complex Temporal Relationships Involving Multiple
//! Granularities and Its Application to Data Mining* (PODS 1996), §2.
//!
//! A *temporal type* (granularity) is a mapping `μ` from tick indices to sets
//! of absolute time instants such that
//!
//! 1. (monotonicity) for `i < j`, every instant of `μ(i)` precedes every
//!    instant of `μ(j)`, and
//! 2. (no revival) once a tick is empty, all later ticks are empty.
//!
//! This crate models absolute time as discrete integer seconds (the paper
//! notes all its results carry over from continuous to discrete time). Ticks
//! may be *non-convex* sets of intervals — e.g. a *business month* is the
//! union of the business days of a month — and granularities may have *gaps*:
//! a Saturday is covered by no business-day tick.
//!
//! The paper indexes ticks by positive integers. We extend indices to all of
//! `i64` (anchored at an epoch) so that granularities are total over the
//! supported horizon; the constraint semantics built on top only ever uses
//! *differences* of tick indices, which are unaffected by the extension.
//!
//! # Overview
//!
//! * [`Granularity`] — the core trait ([`covering_tick`](Granularity::covering_tick),
//!   [`tick_intervals`](Granularity::tick_intervals)).
//! * [`builtin`] — seconds, minutes, hours, days, weeks, months, years,
//!   business days/weeks/months, weekends, and `n`-month groupings.
//! * [`convert_tick`] — the paper's `⌈z⌉ᵘᵥ` covering-tick conversion.
//! * [`SizeTable`] — `minsize`/`maxsize`/`mingap` used by the constraint
//!   conversion algorithm of the paper's Appendix A.1.
//! * [`Calendar`] — a registry of named granularities, handing out
//!   [`Gran`] handles.
//! * [`periodic`] — the one acceleration layer: each [`Gran`] compiles
//!   lazily to a minimal periodic set ([`PeriodicTable`]) that answers by
//!   closed-form arithmetic, and falls back to its raw implementation
//!   outside the table's domain. The raw implementation stays the
//!   reference ([`periodic::set_enabled`]`(false)` selects it).
//!
//! # Example
//!
//! ```
//! use tgm_granularity::{Calendar, convert_tick};
//!
//! let cal = Calendar::standard();
//! let day = cal.get("day").unwrap();
//! let month = cal.get("month").unwrap();
//!
//! // The month that covers day tick 40 (2000-02-09) is February 2000.
//! let m = convert_tick(&day, 40, &month).unwrap();
//! assert_eq!(m, 2); // month tick 1 = January 2000
//!
//! // A Saturday is covered by no business day.
//! let bday = cal.get("business-day").unwrap();
//! assert!(convert_tick(&day, 1, &bday).is_none()); // 2000-01-01 is a Saturday
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod calendar_math;
mod convert;
mod error;
mod granularity;
mod interval;
mod registry;
mod size_table;

pub mod builtin;
pub mod cache;
pub mod datetime;
pub mod parse;
pub mod periodic;
pub mod relations;

pub use calendar_math::{
    civil_from_days, days_from_civil, days_in_month, is_leap_year, weekday_from_days, CivilDate,
    Weekday, EPOCH_YEAR,
};
pub use convert::{convert_tick, tick_covers};
pub use datetime::{datetime_of, format_instant, instant, DateTime};
pub use error::GranularityError;
pub use granularity::{Granularity, Second, Tick};
pub use interval::{Interval, IntervalSet};
pub use periodic::{PeriodicHint, PeriodicTable};
pub use registry::{Calendar, Gran};
pub use size_table::SizeTable;
