//! # tgm — Temporal Granularity Mining
//!
//! A production-quality reproduction of **Bettini, Wang & Jajodia,
//! *Testing Complex Temporal Relationships Involving Multiple Granularities
//! and Its Application to Data Mining* (PODS 1996)**: temporal constraints
//! with granularities (TCGs), event structures, sound approximate
//! constraint propagation, exact (NP-hard) consistency checking, timed
//! automata with granularities (TAGs), and frequent-complex-event
//! discovery.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`granularity`] | `tgm-granularity` | temporal types, calendars, tick conversion, size tables |
//! | [`limits`] | `tgm-limits` | deadlines, work budgets, cooperative cancellation, panic containment |
//! | [`obs`] | `tgm-obs` | spans, metrics, pruning-funnel reports (process-wide toggle, off by default) |
//! | [`stp`] | `tgm-stp` | Simple Temporal Problem networks (Dechter–Meiri–Pearl) |
//! | [`events`] | `tgm-events` | event types, sequences, JSON I/O, workload generators |
//! | [`core`] | `tgm-core` | TCGs, event structures, conversion, propagation, exact checking |
//! | [`tag`] | `tgm-tag` | timed automata with granularities and matching |
//! | [`mining`] | `tgm-mining` | naive + optimized discovery, WINEPI episode baseline |
//! | [`serve`] | `tgm-serve` | multi-tenant session server: framed protocol, admission control, load shedding, graceful drain |
//!
//! # Quickstart
//!
//! Everything below comes from `tgm::prelude` alone; fallible calls
//! compose through the unified [`enum@Error`] with `?`.
//!
//! ```
//! use tgm::prelude::*;
//!
//! fn quickstart() -> Result<(), Error> {
//!     // "The earnings report came one business day after the rise, and
//!     // the stock fell in the same or the next week."
//!     let cal = Calendar::standard();
//!     let mut b = StructureBuilder::new();
//!     let rise = b.var("rise");
//!     let report = b.var("report");
//!     let fall = b.var("fall");
//!     b.constrain(rise, report, Tcg::new(1, 1, cal.get("business-day")?));
//!     b.constrain(report, fall, Tcg::new(0, 1, cal.get("week")?));
//!     let structure = b.build()?;
//!
//!     // Sound propagation derives implied constraints across
//!     // granularities.
//!     let p = propagate(&structure);
//!     assert!(p.is_consistent());
//!     let window = p.seconds_window(rise, fall).unwrap();
//!     assert!(window.lo >= 1);
//!
//!     // Match the pattern over an event stream with a TAG, reading
//!     // pre-resolved tick columns.
//!     let mut reg = TypeRegistry::new();
//!     let tys: Vec<EventType> =
//!         ["rise", "report", "fall"].iter().map(|n| reg.intern(n)).collect();
//!     let cet = ComplexEventType::new(structure, tys.clone());
//!     let tag = build_tag(&cet);
//!     const DAY: i64 = 86_400;
//!     // Mon 2000-01-03 rise, Tue report, Thu fall.
//!     let mut sb = SequenceBuilder::new();
//!     sb.push(tys[0], 2 * DAY + 9 * 3600);
//!     sb.push(tys[1], 3 * DAY + 9 * 3600);
//!     sb.push(tys[2], 5 * DAY + 9 * 3600);
//!     let seq = sb.build();
//!     let grans: Vec<Gran> = tag.clocks().iter().map(|(_, g)| g.clone()).collect();
//!     let cols = TickColumns::build(seq.events(), &grans);
//!     let matcher = Matcher::new(&tag);
//!     let mut scratch = MatcherScratch::new();
//!     let mut ctx = RunCtx { cols: Some((&cols, 0)), ..RunCtx::new(&mut scratch) };
//!     assert!(matcher.run_in(seq.events(), false, &mut ctx).stats.accepted);
//!
//!     // Every clock granularity compiles to a minimal periodic table.
//!     assert!(grans.iter().all(|g| g.compiled().is_some()));
//!     Ok(())
//! }
//! quickstart().unwrap();
//! ```

mod error;

/// The README's Rust snippets, compiled and run as doctests, so a snippet
/// that names a removed item fails `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub mod cli;
pub mod json;

pub use error::Error;

pub use tgm_core as core;
pub use tgm_events as events;
pub use tgm_granularity as granularity;
pub use tgm_limits as limits;
pub use tgm_mining as mining;
pub use tgm_obs as obs;
pub use tgm_serve as serve;
pub use tgm_stp as stp;
pub use tgm_tag as tag;

/// The most commonly used items across the workspace.
///
/// One `use tgm::prelude::*;` is enough to build event structures,
/// propagate and exact-check them, construct and run TAG matchers (direct
/// or over pre-resolved [`TickColumns`](tgm_events::TickColumns)), mine
/// discovery problems, and inspect each granularity's compiled
/// [`periodic`](tgm_granularity::periodic) table — with all fallible calls
/// funneled into [`Error`].
pub mod prelude {
    pub use crate::Error;
    pub use tgm_core::exact::{
        check as exact_check, check_bounded as exact_check_bounded,
        check_with as exact_check_with, ExactOutcome,
    };
    pub use tgm_core::propagate::{propagate, propagate_bounded, Propagated};
    pub use tgm_limits::{CancelToken, Interrupt, Limits, Verdict, WorkerPanic};
    pub use tgm_core::{
        convert_constraint, ComplexEventType, EventStructure, StructureBuilder, Tcg, VarId,
    };
    pub use tgm_events::{
        Event, EventSequence, EventType, SequenceBuilder, TickColumns, TypeRegistry,
    };
    pub use tgm_granularity::{periodic, Calendar, Gran, Granularity, Second, Tick};
    pub use tgm_mining::pipeline::{mine_with, PipelineOptions, PipelineStats};
    pub use tgm_mining::{naive, pipeline, BoundedMining, DiscoveryProblem, Solution};
    pub use tgm_obs::{Observable, Report};
    pub use tgm_tag::{
        build_tag, BoundedRun, Completion, MatchOptions, MatchSession, Matcher, MatcherScratch,
        RunCtx, RunStats, SessionStats, Tag,
    };
}
