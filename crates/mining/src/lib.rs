//! Event discovery: mining frequent complex event types (paper §5).
//!
//! An *event-discovery problem* `(S, ϑ, E₀, δ)` asks for every complex
//! event type derived from the event structure `S` — root variable
//! instantiated with the reference type `E₀`, other variables with types
//! from `δ` — that occurs in a given event sequence with frequency greater
//! than `ϑ`, where frequency is counted per *distinct occurrence of `E₀`*.
//!
//! * [`DiscoveryProblem`] — the problem statement.
//! * [`naive`] — the paper's baseline: enumerate every candidate type, run
//!   one TAG per reference occurrence, on one thread.
//!   `O(nˢ · |σ_{E₀}| · T_tag)`. It is the oracle of every pipeline ≡
//!   naive test.
//! * [`pipeline`] — the optimized procedure (§5 steps 1–5): consistency
//!   screening by sound propagation, sequence reduction by granularity
//!   coverage, reference-occurrence pruning by derived windows,
//!   Apriori-style candidate reduction through induced discovery problems
//!   (§5.1), and a final anchored TAG scan that advances every candidate
//!   in one shared pass, split across the host's workers. Steps 2–4 can
//!   each be toggled for ablation studies.
//! * [`episodes`] — a WINEPI-style frequent-episode miner (serial and
//!   parallel episodes under a sliding window), reimplementing the paper's
//!   closest related work \[MTV95\] as a single-granularity baseline.
//!
//! Every miner also has a `*_bounded` entry point taking
//! [`tgm_limits::Limits`]: a wall-clock deadline, a deterministic
//! candidate budget, and a cooperative cancel token. Bounded runs return
//! partial solutions with a [`tgm_limits::Verdict`]. The pipeline's step-5
//! workers are the only threads the miners start; one that panics is
//! contained as a typed [`tgm_limits::WorkerPanic`] error after its
//! siblings have been cancelled.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod bounded;
mod multi_scan;
mod problem;

pub mod episodes;
pub mod naive;
pub mod pipeline;
pub mod reference;

pub use bounded::BoundedMining;
pub use problem::{CandidateMap, DiscoveryProblem, Solution, TypeConstraint};
pub use reference::{materialize_reference, mine_with_reference, Reference};
