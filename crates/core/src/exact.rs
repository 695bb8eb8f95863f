//! Exact, horizon-bounded consistency checking for event structures.
//!
//! Deciding consistency is NP-hard (paper Theorem 1), so this checker is
//! exponential in the number of variables. It is *complete relative to a
//! horizon*: it decides whether a matching timestamp assignment exists with
//! the root inside a caller-supplied window of absolute time. (Absolute
//! position matters: calendars are not shift-invariant — months differ in
//! length — so "consistent somewhere on the time line" is only decidable up
//! to a horizon.)
//!
//! # Method: overlay-cell search
//!
//! TCG satisfaction depends only on the vector of covering ticks
//! `(⌈t⌉μ)_{μ∈M}` of each timestamp, so timestamps can be canonicalized to
//! the left endpoint of their *overlay cell* — a maximal run of instants
//! with identical tick vectors. Cell boundaries are exactly the tick starts
//! and gap starts of the granularities in `M`; the checker therefore
//! backtracks over candidate timestamps drawn from those boundaries (clipped
//! to windows derived by sound propagation), which is complete within the
//! horizon.

use tgm_granularity::{Gran, Granularity, Second};
use tgm_limits::{Interrupt, Limits};
use tgm_stp::INF;

use crate::propagate::{propagate_bounded, Propagated};
use crate::structure::{EventStructure, VarId};

/// Options for the exact checker.
#[derive(Clone, Debug)]
pub struct ExactOptions {
    /// Earliest admissible root timestamp.
    pub horizon_start: Second,
    /// Latest admissible root timestamp.
    pub horizon_end: Second,
    /// Abort (returning `Err`) after this many candidate timestamps have
    /// been enumerated for any single variable, to bound blow-ups from
    /// fine granularities over wide windows.
    pub max_candidates_per_var: usize,
    /// Abort after this many backtracking node visits.
    pub max_nodes: u64,
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions {
            horizon_start: 0,
            // Four years of seconds.
            horizon_end: 4 * 366 * 86_400,
            max_candidates_per_var: 200_000,
            max_nodes: 50_000_000,
        }
    }
}

/// Outcome of an exact consistency check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExactOutcome {
    /// A witness assignment (timestamps indexed by variable id).
    Consistent(Vec<Second>),
    /// No matching assignment exists with the root inside the horizon.
    InconsistentWithinHorizon,
}

/// Resource-limit error from the exact checker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExactError {
    /// A variable's candidate set exceeded `max_candidates_per_var`.
    TooManyCandidates,
    /// The search exceeded `max_nodes` visits — or, under
    /// [`check_bounded`], the caller's [`Limits`] row budget if that was
    /// tighter.
    SearchBudgetExhausted,
    /// The wall-clock deadline of the caller's [`Limits`] passed.
    DeadlineExceeded,
    /// The caller's [`Limits`] cancel token was cancelled.
    Cancelled,
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactError::TooManyCandidates => write!(f, "candidate enumeration limit exceeded"),
            ExactError::SearchBudgetExhausted => write!(f, "backtracking budget exhausted"),
            ExactError::DeadlineExceeded => write!(f, "wall-clock deadline exceeded"),
            ExactError::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for ExactError {}

impl From<Interrupt> for ExactError {
    fn from(i: Interrupt) -> Self {
        match i {
            Interrupt::DeadlineExceeded => ExactError::DeadlineExceeded,
            Interrupt::BudgetExhausted => ExactError::SearchBudgetExhausted,
            Interrupt::Cancelled => ExactError::Cancelled,
        }
    }
}

/// Exact consistency check with default options.
///
/// ```
/// use tgm_core::{exact, StructureBuilder, Tcg};
/// use tgm_granularity::Calendar;
///
/// let cal = Calendar::standard();
/// let mut b = StructureBuilder::new();
/// let x0 = b.var("X0");
/// let x1 = b.var("X1");
/// b.constrain(x0, x1, Tcg::new(1, 1, cal.get("business-day").unwrap()));
/// let s = b.build().unwrap();
/// match exact::check(&s).unwrap() {
///     exact::ExactOutcome::Consistent(witness) => assert!(s.satisfied_by(&witness)),
///     other => panic!("expected a witness, got {other:?}"),
/// }
/// ```
pub fn check(s: &EventStructure) -> Result<ExactOutcome, ExactError> {
    check_with(s, &ExactOptions::default())
}

/// Exact, horizon-bounded consistency check.
///
/// Runs approximate propagation first: a refutation there is final (the
/// propagator is sound), and its derived second-level windows prune the
/// search.
pub fn check_with(s: &EventStructure, opts: &ExactOptions) -> Result<ExactOutcome, ExactError> {
    check_bounded(s, opts, &Limits::none())
}

/// [`check_with`] under [`Limits`].
///
/// The checker's bespoke node budget is expressed through the same
/// machinery: the effective search budget is the tighter of
/// `opts.max_nodes` and `limits`' row budget, and the backtracking loop
/// additionally polls the deadline and cancel token. Interruptions map
/// onto [`ExactError`] ([`ExactError::DeadlineExceeded`] /
/// [`ExactError::SearchBudgetExhausted`] / [`ExactError::Cancelled`]).
/// With [`Limits::none`] this is exactly [`check_with`].
pub fn check_bounded(
    s: &EventStructure,
    opts: &ExactOptions,
    limits: &Limits,
) -> Result<ExactOutcome, ExactError> {
    let p = propagate_bounded(s, limits)?;
    if !p.is_consistent() {
        return Ok(ExactOutcome::InconsistentWithinHorizon);
    }
    let searcher = Searcher::new(s, &p, opts, limits);
    searcher.run()
}

struct Searcher<'a> {
    s: &'a EventStructure,
    opts: &'a ExactOptions,
    /// Caller limits, with the node budget folded in (tighter of
    /// `opts.max_nodes` and the caller's row budget).
    limits: Limits,
    grans: Vec<Gran>,
    /// Second-level window of each variable relative to the root.
    windows: Vec<(i64, i64)>,
    order: Vec<VarId>,
    nodes: std::cell::Cell<u64>,
}

impl<'a> Searcher<'a> {
    fn new(s: &'a EventStructure, p: &Propagated, opts: &'a ExactOptions, limits: &Limits) -> Self {
        let root = s.root();
        let span = opts.horizon_end - opts.horizon_start;
        let windows = s
            .vars()
            .map(|v| {
                if v == root {
                    return (0, 0);
                }
                // The derived window bounds the variable's offset from the
                // root; only an *unbounded* derived window falls back to the
                // horizon span (a documented incompleteness for structures
                // with no finite constraints to some variable).
                match p.seconds_window(root, v) {
                    Some(r) => (r.lo.max(0), if r.hi >= INF { span } else { r.hi }),
                    None => (0, span),
                }
            })
            .collect();
        Searcher {
            s,
            opts,
            limits: limits.clone().with_budget(opts.max_nodes),
            grans: s.granularities(),
            windows,
            order: Self::search_order(s, p),
            nodes: std::cell::Cell::new(0),
        }
    }

    /// A search order that keeps the frontier *connected through tight
    /// constraints*: starting from the root, repeatedly pick the unassigned
    /// variable whose tightest propagated second-level window against any
    /// assigned variable is smallest. This makes `compatible` prune early
    /// (each new variable is pinned by an already-assigned neighbour), which
    /// is what keeps e.g. the SUBSET-SUM gadget search feasible for small k.
    fn search_order(s: &EventStructure, p: &Propagated) -> Vec<VarId> {
        let n = s.len();
        let width = |u: VarId, v: VarId| -> i64 {
            match p.seconds_window(u, v) {
                Some(r) if r.lo > -INF && r.hi < INF => r.hi - r.lo,
                _ => INF,
            }
        };
        let mut order = vec![s.root()];
        let mut visited = vec![false; n];
        visited[s.root().index()] = true;
        while order.len() < n {
            let mut best: Option<(i64, VarId)> = None;
            for v in s.vars() {
                if visited[v.index()] {
                    continue;
                }
                let w = order
                    .iter()
                    .map(|&u| width(u, v).min(width(v, u)))
                    .min()
                    .unwrap_or(INF);
                if best.is_none_or(|(bw, _)| w < bw) {
                    best = Some((w, v));
                }
            }
            // Invariant: the while condition guarantees an unvisited var.
            #[allow(clippy::expect_used)]
            let (_, v) = best.expect("some variable must remain");
            visited[v.index()] = true;
            order.push(v);
        }
        order
    }

    fn run(&self) -> Result<ExactOutcome, ExactError> {
        self.limits.check().map_err(ExactError::from)?;
        let root_cands =
            self.cell_starts(self.opts.horizon_start, self.opts.horizon_end)?;
        for &r in &root_cands {
            let mut assignment: Vec<Option<Second>> = vec![None; self.s.len()];
            assignment[self.s.root().index()] = Some(r);
            if let Some(times) = self.extend(&mut assignment, 1, r)? {
                debug_assert!(self.s.satisfied_by(&times));
                return Ok(ExactOutcome::Consistent(times));
            }
        }
        Ok(ExactOutcome::InconsistentWithinHorizon)
    }

    /// Backtracks over `order[depth..]`, extending the partial assignment.
    fn extend(
        &self,
        assignment: &mut Vec<Option<Second>>,
        depth: usize,
        root_time: Second,
    ) -> Result<Option<Vec<Second>>, ExactError> {
        if depth == self.order.len() {
            // Invariant: at full depth every variable has been assigned.
            #[allow(clippy::unwrap_used)]
            let times: Vec<Second> = assignment.iter().map(|t| t.unwrap()).collect();
            return Ok(if self.s.satisfied_by(&times) {
                Some(times)
            } else {
                None
            });
        }
        let v = self.order[depth];
        let (wlo, whi) = self.windows[v.index()];
        let lo = root_time + wlo;
        let hi = root_time + whi;
        if lo > hi {
            return Ok(None);
        }
        for t in self.cell_starts(lo, hi)? {
            let n = self.nodes.get() + 1;
            self.nodes.set(n);
            if self.limits.budget_exceeded(n) {
                return Err(ExactError::SearchBudgetExhausted);
            }
            // The deterministic budget check runs every node; the clock
            // read and atomic load only every 1024 nodes.
            if n & 1023 == 0 {
                self.limits.check().map_err(ExactError::from)?;
            }
            if !self.compatible(assignment, v, t) {
                continue;
            }
            assignment[v.index()] = Some(t);
            if let Some(sol) = self.extend(assignment, depth + 1, root_time)? {
                return Ok(Some(sol));
            }
            assignment[v.index()] = None;
        }
        Ok(None)
    }

    /// Checks every TCG between `v` and already-assigned variables.
    fn compatible(&self, assignment: &[Option<Second>], v: VarId, t: Second) -> bool {
        for u in self.s.vars() {
            let Some(tu) = assignment[u.index()] else {
                continue;
            };
            for c in self.s.constraints(u, v) {
                if !c.satisfied(tu, t) {
                    return false;
                }
            }
            for c in self.s.constraints(v, u) {
                if !c.satisfied(t, tu) {
                    return false;
                }
            }
        }
        true
    }

    /// Candidate timestamps within `[lo, hi]`: the overlay-cell left
    /// endpoints (tick starts and gap starts of every granularity of the
    /// structure), plus `lo` itself.
    fn cell_starts(&self, lo: Second, hi: Second) -> Result<Vec<Second>, ExactError> {
        let mut out: Vec<Second> = vec![lo];
        for g in &self.grans {
            let mut z = match g.next_tick_at_or_after(lo) {
                Some(z) => z,
                None => continue,
            };
            while let Some(set) = g.tick_intervals(z) {
                if set.min() > hi {
                    break;
                }
                for iv in set.intervals() {
                    // Tick-interval start and the instant just past its end
                    // (a gap start or the next tick's start region).
                    if iv.start >= lo && iv.start <= hi {
                        out.push(iv.start);
                    }
                    let after = iv.end + 1;
                    if after >= lo && after <= hi {
                        out.push(after);
                    }
                }
                if out.len() > self.opts.max_candidates_per_var.saturating_mul(4) {
                    return Err(ExactError::TooManyCandidates);
                }
                z += 1;
            }
        }
        out.sort_unstable();
        out.dedup();
        if out.len() > self.opts.max_candidates_per_var {
            return Err(ExactError::TooManyCandidates);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use tgm_granularity::Calendar;

    use super::*;
    use crate::structure::StructureBuilder;
    use crate::tcg::Tcg;

    const DAY: i64 = 86_400;

    fn opts_days(days: i64) -> ExactOptions {
        ExactOptions {
            horizon_start: 0,
            horizon_end: days * DAY,
            ..ExactOptions::default()
        }
    }

    #[test]
    fn simple_chain_has_witness() {
        let cal = Calendar::standard();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        b.constrain(x0, x1, Tcg::new(1, 1, cal.get("day").unwrap()));
        let s = b.build().unwrap();
        match check_with(&s, &opts_days(10)).unwrap() {
            ExactOutcome::Consistent(times) => {
                assert!(s.satisfied_by(&times));
            }
            other => panic!("expected witness, got {other:?}"),
        }
    }

    #[test]
    fn business_day_and_weekend_conflict() {
        // X1 must be both the next business day and a weekend day after X0:
        // impossible; propagation alone cannot see it (weekend is gapped),
        // the exact checker must.
        let cal = Calendar::standard();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        b.constrain(x0, x1, Tcg::new(0, 5, cal.get("business-day").unwrap()));
        b.constrain(x0, x1, Tcg::new(0, 0, cal.get("weekend-day").unwrap()));
        let s = b.build().unwrap();
        // weekend-day [0,0] forces X0 and X1 on the same weekend day, but
        // business-day requires both covered by business days. Contradiction.
        assert_eq!(
            check_with(&s, &opts_days(60)).unwrap(),
            ExactOutcome::InconsistentWithinHorizon
        );
    }

    #[test]
    fn figure_1b_style_disjunction() {
        // X0 in the first month of a year; X2 likewise; X0..X2 within
        // [0,12] months forces distance 0 or 12. Requiring day-distance
        // within [20, 200] then forces exactly 12 months.
        let cal = Calendar::standard();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        let x2 = b.var("X2");
        // Emulate the month-of-year pinning directly with [11,11] month +
        // [0,0] year (as in Figure 1(b)): X1 is 11 months after X0 within
        // the same year => X0 in January, X1 in December.
        b.constrain(x0, x1, Tcg::new(11, 11, cal.get("month").unwrap()));
        b.constrain(x0, x1, Tcg::new(0, 0, cal.get("year").unwrap()));
        b.constrain(x0, x2, Tcg::new(0, 12, cal.get("month").unwrap()));
        b.constrain(x2, x1, Tcg::new(0, 11, cal.get("month").unwrap()));
        let s = b.build().unwrap();
        match check_with(&s, &opts_days(800)).unwrap() {
            ExactOutcome::Consistent(times) => {
                assert!(s.satisfied_by(&times));
                let month = cal.get("month").unwrap();
                let d = month.covering_tick(times[2]).unwrap()
                    - month.covering_tick(times[0]).unwrap();
                assert!(d == 0 || d == 12, "month distance must be 0 or 12, got {d}");
            }
            other => panic!("expected witness, got {other:?}"),
        }
    }

    #[test]
    fn refuted_by_propagation_short_circuits() {
        let cal = Calendar::standard();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        b.constrain(x0, x1, Tcg::new(0, 0, cal.get("day").unwrap()));
        b.constrain(x0, x1, Tcg::new(26, 30, cal.get("hour").unwrap()));
        let s = b.build().unwrap();
        assert_eq!(
            check(&s).unwrap(),
            ExactOutcome::InconsistentWithinHorizon
        );
    }

    #[test]
    fn candidate_limit_enforced() {
        // A seconds-granularity constraint over a huge window blows the
        // candidate budget.
        let cal = Calendar::standard();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        b.constrain(x0, x1, Tcg::new(0, 10_000_000, cal.get("second").unwrap()));
        let s = b.build().unwrap();
        let opts = ExactOptions {
            max_candidates_per_var: 1_000,
            ..opts_days(365)
        };
        assert_eq!(
            check_with(&s, &opts).unwrap_err(),
            ExactError::TooManyCandidates
        );
    }

    #[test]
    fn same_business_day_witness_lands_on_weekday() {
        let cal = Calendar::standard();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        b.constrain(x0, x1, Tcg::new(0, 0, cal.get("business-day").unwrap()));
        let s = b.build().unwrap();
        match check_with(&s, &opts_days(14)).unwrap() {
            ExactOutcome::Consistent(times) => {
                let bd = cal.get("business-day").unwrap();
                assert!(bd.covering_tick(times[0]).is_some());
                assert_eq!(
                    bd.covering_tick(times[0]),
                    bd.covering_tick(times[1])
                );
            }
            other => panic!("expected witness, got {other:?}"),
        }
    }
}
