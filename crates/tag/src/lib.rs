//! Timed automata with granularities — TAGs (paper §4).
//!
//! A TAG is a finite automaton whose transitions are guarded by *clocks*,
//! each ticking in its own time granularity (so a guard can say "still in
//! the same business day" or "in the next week"). When a transition fires
//! it may reset clocks; the reading of a clock at an event with timestamp
//! `t` is `⌈t⌉μ − ⌈t_reset⌉μ` — the tick distance in the clock's
//! granularity since the last reset.
//!
//! * [`Tag`] / [`TagBuilder`] — the automaton: states, granularity clocks,
//!   guarded transitions (with explicit *skip* self-loops for event
//!   skipping), accepting states.
//! * [`ClockConstraint`] — the guard algebra of §4: atoms `x ≤ k`, `k ≤ x`
//!   and boolean combinations.
//! * [`Matcher`] — NFA-simulation over `(state, clock-reset)` configuration
//!   frontiers with deduplication (the technique behind Theorem 4).
//! * [`build_tag`] — Theorem 3's construction: decompose the event
//!   structure into a minimal set of root-to-sink chains covering all arcs
//!   (a min-flow computation), build one clocked chain automaton each,
//!   combine by cross product, add skip loops, and relabel variables with
//!   event types.
//!
//! # Clock-undefinedness semantics
//!
//! The paper requires every clock update `⌈t_i⌉μ − ⌈t_{i−1}⌉μ` along a run
//! to be defined, which presupposes the sequence was pre-filtered to events
//! covered by all clock granularities (its mining step 2). This
//! implementation evaluates clocks *lazily*: a guard consulting a clock
//! whose granularity does not cover the current event (or its reset point)
//! fails, but events in gaps can still be *skipped*. On pre-filtered
//! sequences the two semantics coincide (a property test in
//! `tests/unsaturated_oracle.rs` pins this against a strict oracle), so
//! lazy updates are the only semantics the matchers implement.
//!
//! # Simultaneous-event semantics
//!
//! The automaton consumes the event *list* in order. When distinct events
//! share a timestamp, an occurrence is recognized iff it is realizable in
//! list order: for every arc `(X, Y)` of the structure, the event bound to
//! `X` must precede the event bound to `Y` in the list (the paper's
//! set-based occurrence definition does not pin down tie behaviour).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod automaton;
mod chains;
mod constraint;
mod construct;
mod matcher;
mod multi;
mod session;

pub mod dot;

pub use automaton::{StateId, Symbol, Tag, TagBuilder, Transition};
pub use chains::{greedy_chain_cover, is_valid_cover, minimal_chain_cover, Chain};
pub use constraint::{ClockConstraint, ClockId};
pub use construct::{build_tag, build_tag_for_structure, build_tag_with_cover, TagTemplate};
pub use matcher::{BoundedRun, MatchOptions, Matcher, MatcherScratch, RunCtx, RunStats};
pub use multi::{MultiMatcher, MultiRun};
pub use session::{Completion, MatchSession, Push, SessionState, SessionStats};

#[doc(hidden)]
pub use matcher::count_interrupt;
