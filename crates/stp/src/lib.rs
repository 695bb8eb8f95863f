//! Simple Temporal Problem (STP) networks, after Dechter, Meiri & Pearl,
//! *Temporal constraint networks* (Artificial Intelligence 49, 1991).
//!
//! An STP constrains pairs of real/integer variables by bounded differences
//! `lo ≤ x_j − x_i ≤ hi`. Its constraint graph maps to a *distance graph*
//! whose shortest paths yield the tightest implied constraints (the *minimal
//! network*); the STP is consistent iff the distance graph has no negative
//! cycle. Path consistency (here: Floyd–Warshall) is complete for STPs.
//!
//! This crate is the single-granularity constraint-propagation substrate of
//! the multi-granularity propagation algorithm in `tgm-core` (paper §3.2):
//! each granularity group `C_μ` of an event structure is an STP over tick
//! differences. That propagation needs only STP path consistency, so the
//! crate has no solver for the general, disjunctive TCSP.
//!
//! # Example
//!
//! ```
//! use tgm_stp::{Stp, Range};
//!
//! let mut stp = Stp::new(3);
//! stp.constrain(0, 1, Range::new(10, 20)); // x1 - x0 in [10, 20]
//! stp.constrain(1, 2, Range::new(30, 40)); // x2 - x1 in [30, 40]
//! let min = stp.minimize().expect("consistent");
//! assert_eq!(min.range(0, 2), Range::new(40, 60)); // implied
//! let sol = min.solution();
//! assert!((10..=20).contains(&(sol[1] - sol[0])));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod network;

pub use network::{Inconsistent, MinimalNetwork, Range, Stp, INF, NEG_INF};
