//! STP networks, distance graphs, and minimal-network computation.

use std::fmt;

/// Sentinel for "+∞" (no upper bound). Kept far from `i64::MAX` so sums of
/// two finite weights can never be mistaken for it.
pub const INF: i64 = i64::MAX / 4;

/// Sentinel for "−∞" (no lower bound).
pub const NEG_INF: i64 = -INF;

#[inline]
fn add_weight(a: i64, b: i64) -> i64 {
    if a >= INF || b >= INF {
        INF
    } else {
        // Finite weights in practical networks are far below INF/2, so this
        // cannot overflow into the sentinel range.
        a + b
    }
}

/// A bounded-difference range `[lo, hi]` (use [`NEG_INF`]/[`INF`] for
/// unbounded sides).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Range {
    /// Lower bound on the difference.
    pub lo: i64,
    /// Upper bound on the difference.
    pub hi: i64,
}

impl Range {
    /// Creates `[lo, hi]`; panics if `lo > hi` (an empty range should be
    /// expressed by never adding it, or detected via inconsistency).
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        Range { lo, hi }
    }

    /// The unconstrained range `(-∞, +∞)`.
    pub fn full() -> Self {
        Range {
            lo: NEG_INF,
            hi: INF,
        }
    }

    /// A point range `[v, v]`.
    pub fn exactly(v: i64) -> Self {
        Range { lo: v, hi: v }
    }

    /// Range `[lo, +∞)`.
    pub fn at_least(lo: i64) -> Self {
        Range { lo, hi: INF }
    }

    /// Whether `v` lies in the range.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Intersection, or `None` if empty.
    pub fn intersect(&self, other: &Range) -> Option<Range> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Range { lo, hi })
    }

    /// Whether both bounds are finite.
    pub fn is_finite(&self) -> bool {
        self.lo > NEG_INF && self.hi < INF
    }

    /// Whether this is the unconstrained range.
    pub fn is_full(&self) -> bool {
        self.lo <= NEG_INF && self.hi >= INF
    }
}

impl fmt::Debug for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.lo <= NEG_INF, self.hi >= INF) {
            (true, true) => write!(f, "(-inf, +inf)"),
            (true, false) => write!(f, "(-inf, {}]", self.hi),
            (false, true) => write!(f, "[{}, +inf)", self.lo),
            (false, false) => write!(f, "[{}, {}]", self.lo, self.hi),
        }
    }
}

/// The STP is unsatisfiable: the distance graph contains a negative cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Inconsistent {
    /// A variable lying on a negative cycle.
    pub witness: usize,
}

impl fmt::Display for Inconsistent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "STP inconsistent: negative cycle through variable {}",
            self.witness
        )
    }
}

impl std::error::Error for Inconsistent {}

/// A Simple Temporal Problem over `n` variables.
///
/// Internally a dense distance matrix `d[i][j]` = tightest known upper bound
/// on `x_j − x_i` (the distance-graph edge weight).
#[derive(Clone)]
pub struct Stp {
    n: usize,
    /// Row-major `n × n`; `d[i*n + j]` bounds `x_j − x_i` from above.
    d: Vec<i64>,
}

impl Stp {
    /// An unconstrained STP over `n` variables.
    pub fn new(n: usize) -> Self {
        let mut d = vec![INF; n * n];
        for i in 0..n {
            d[i * n + i] = 0;
        }
        Stp { n, d }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the network has no variables.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> i64 {
        self.d[i * self.n + j]
    }

    #[inline]
    fn at_mut(&mut self, i: usize, j: usize) -> &mut i64 {
        &mut self.d[i * self.n + j]
    }

    /// Adds (intersects in) the constraint `x_j − x_i ∈ r`.
    pub fn constrain(&mut self, i: usize, j: usize, r: Range) {
        assert!(i < self.n && j < self.n, "variable out of range");
        // x_j - x_i <= hi  and  x_i - x_j <= -lo.
        let ij = self.at_mut(i, j);
        *ij = (*ij).min(r.hi.min(INF));
        let ji = self.at_mut(j, i);
        let neg_lo = if r.lo <= NEG_INF { INF } else { -r.lo };
        *ji = (*ji).min(neg_lo);
    }

    /// The currently recorded (not necessarily minimal) range on
    /// `x_j − x_i`.
    pub fn range(&self, i: usize, j: usize) -> Range {
        let hi = self.at(i, j);
        let ji = self.at(j, i);
        Range {
            lo: if ji >= INF { NEG_INF } else { -ji },
            hi: if hi >= INF { INF } else { hi },
        }
    }

    /// Computes the minimal network via Floyd–Warshall; errs with a negative
    /// cycle witness if inconsistent. `O(n³)`.
    pub fn minimize(&self) -> Result<MinimalNetwork, Inconsistent> {
        let n = self.n;
        let mut d = self.d.clone();
        for k in 0..n {
            for i in 0..n {
                let dik = d[i * n + k];
                if dik >= INF {
                    continue;
                }
                for j in 0..n {
                    let via = add_weight(dik, d[k * n + j]);
                    if via < d[i * n + j] {
                        d[i * n + j] = via;
                    }
                }
            }
        }
        for i in 0..n {
            if d[i * n + i] < 0 {
                return Err(Inconsistent { witness: i });
            }
        }
        Ok(MinimalNetwork { inner: Stp { n, d } })
    }

    /// Consistency check without retaining the minimal network.
    pub fn is_consistent(&self) -> bool {
        self.minimize().is_ok()
    }

    /// Single-source shortest-path distances from `src` (Bellman–Ford),
    /// yielding the tightest upper bounds `x_j − x_src`. Errs on a negative
    /// cycle reachable from `src`.
    pub fn distances_from(&self, src: usize) -> Result<Vec<i64>, Inconsistent> {
        let n = self.n;
        let mut dist = vec![INF; n];
        dist[src] = 0;
        for round in 0..n {
            let mut changed = false;
            for i in 0..n {
                if dist[i] >= INF {
                    continue;
                }
                for j in 0..n {
                    let w = self.at(i, j);
                    if w >= INF {
                        continue;
                    }
                    let cand = add_weight(dist[i], w);
                    if cand < dist[j] {
                        dist[j] = cand;
                        changed = true;
                    }
                }
            }
            if !changed {
                return Ok(dist);
            }
            if round == n - 1 {
                return Err(Inconsistent { witness: src });
            }
        }
        Ok(dist)
    }
}

impl fmt::Debug for Stp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Stp(n={})", self.n)?;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j && !self.range(i, j).is_full() && i < j {
                    writeln!(f, "  x{j} - x{i} in {:?}", self.range(i, j))?;
                }
            }
        }
        Ok(())
    }
}

/// A consistent STP in minimal (all-pairs-tightest) form.
///
/// Obtained from [`Stp::minimize`]; exposes implied constraints and solution
/// extraction.
#[derive(Clone, Debug)]
pub struct MinimalNetwork {
    inner: Stp,
}

impl MinimalNetwork {
    /// Number of variables.
    pub fn len(&self) -> usize {
        self.inner.n
    }

    /// Whether the network has no variables.
    pub fn is_empty(&self) -> bool {
        self.inner.n == 0
    }

    /// The tightest implied range on `x_j − x_i`.
    pub fn range(&self, i: usize, j: usize) -> Range {
        self.inner.range(i, j)
    }

    /// The underlying minimized STP.
    pub fn as_stp(&self) -> &Stp {
        &self.inner
    }

    /// Extracts one solution with `x_0 = 0`, using the decomposability of
    /// minimal STP networks (assign variables in order, each within the
    /// intersection of ranges against already-assigned variables).
    pub fn solution(&self) -> Vec<i64> {
        let n = self.inner.n;
        let mut x = vec![0i64; n];
        for j in 1..n {
            let mut window = Range::full();
            for (i, &xi) in x.iter().enumerate().take(j) {
                let r = self.range(i, j);
                let shifted = Range {
                    lo: if r.lo <= NEG_INF { NEG_INF } else { r.lo + xi },
                    hi: if r.hi >= INF { INF } else { r.hi + xi },
                };
                window = window
                    .intersect(&shifted)
                    .expect("minimal network must be decomposable");
            }
            // Prefer the earliest finite value; an all-unbounded window means
            // the variable is fully unconstrained relative to x0..x_{j-1}.
            x[j] = if window.lo > NEG_INF {
                window.lo
            } else if window.hi < INF {
                window.hi
            } else {
                0
            };
        }
        x
    }

    /// Re-tightens `x_j − x_i` to `r` and restores minimality incrementally
    /// in `O(n²)`; errs if the tightening makes the network inconsistent.
    pub fn tighten(&mut self, i: usize, j: usize, r: Range) -> Result<(), Inconsistent> {
        let current = self.range(i, j);
        let Some(tight) = current.intersect(&r) else {
            return Err(Inconsistent { witness: i });
        };
        if tight == current {
            return Ok(());
        }
        self.inner.constrain(i, j, tight);
        let n = self.inner.n;
        // Propagate through the updated edge pair (i→j weight hi, j→i −lo):
        // new d[a][b] = min(old, d[a][i] + w(i,j) + d[j][b], d[a][j] + w(j,i) + d[i][b]).
        for a in 0..n {
            for b in 0..n {
                let via_ij = add_weight(
                    add_weight(self.inner.at(a, i), self.inner.at(i, j)),
                    self.inner.at(j, b),
                );
                let via_ji = add_weight(
                    add_weight(self.inner.at(a, j), self.inner.at(j, i)),
                    self.inner.at(i, b),
                );
                let best = self.inner.at(a, b).min(via_ij).min(via_ji);
                *self.inner.at_mut(a, b) = best;
            }
        }
        for v in 0..n {
            if self.inner.at(v, v) < 0 {
                return Err(Inconsistent { witness: v });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_implied_constraint() {
        let mut stp = Stp::new(3);
        stp.constrain(0, 1, Range::new(10, 20));
        stp.constrain(1, 2, Range::new(30, 40));
        let m = stp.minimize().unwrap();
        assert_eq!(m.range(0, 2), Range::new(40, 60));
        assert_eq!(m.range(2, 0), Range::new(-60, -40));
    }

    #[test]
    fn diamond_tightening() {
        // x3 - x0 in [0, 25] is tightened through both diamond branches to
        // [9, 20].
        let mut stp = Stp::new(4);
        stp.constrain(0, 1, Range::new(0, 10));
        stp.constrain(0, 2, Range::new(0, 10));
        stp.constrain(1, 3, Range::new(0, 10));
        stp.constrain(2, 3, Range::new(9, 10));
        stp.constrain(0, 3, Range::new(0, 25));
        let m = stp.minimize().unwrap();
        assert_eq!(m.range(0, 3), Range::new(9, 20));
    }

    #[test]
    fn negative_cycle_detected() {
        let mut stp = Stp::new(2);
        stp.constrain(0, 1, Range::new(5, 10));
        stp.constrain(1, 0, Range::new(0, 2)); // x0 - x1 in [0,2] contradicts
        assert!(stp.minimize().is_err());
        assert!(!stp.is_consistent());
    }

    #[test]
    fn diamond_inconsistent() {
        let mut stp = Stp::new(4);
        stp.constrain(0, 1, Range::new(0, 10));
        stp.constrain(0, 2, Range::new(0, 10));
        stp.constrain(1, 3, Range::new(0, 10));
        stp.constrain(2, 3, Range::new(9, 10));
        stp.constrain(0, 3, Range::new(0, 5));
        assert!(stp.minimize().is_err());
    }

    #[test]
    fn solution_satisfies_all_constraints() {
        let mut stp = Stp::new(5);
        let cons = [
            (0usize, 1usize, Range::new(2, 7)),
            (1, 2, Range::new(-3, 4)),
            (0, 3, Range::new(0, 100)),
            (3, 4, Range::new(5, 5)),
            (2, 4, Range::new(-10, 50)),
        ];
        for (i, j, r) in cons {
            stp.constrain(i, j, r);
        }
        let m = stp.minimize().unwrap();
        let x = m.solution();
        assert_eq!(x[0], 0);
        for (i, j, r) in cons {
            assert!(
                r.contains(x[j] - x[i]),
                "x{j} - x{i} = {} not in {r:?}",
                x[j] - x[i]
            );
        }
    }

    #[test]
    fn minimize_is_idempotent() {
        let mut stp = Stp::new(4);
        stp.constrain(0, 1, Range::new(1, 5));
        stp.constrain(1, 2, Range::new(1, 5));
        stp.constrain(0, 2, Range::new(3, 4));
        let m1 = stp.minimize().unwrap();
        let m2 = m1.as_stp().minimize().unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m1.range(i, j), m2.range(i, j));
            }
        }
    }

    #[test]
    fn incremental_tighten_matches_batch() {
        let mut stp = Stp::new(4);
        stp.constrain(0, 1, Range::new(0, 20));
        stp.constrain(1, 2, Range::new(0, 20));
        stp.constrain(2, 3, Range::new(0, 20));
        let mut inc = stp.minimize().unwrap();
        inc.tighten(0, 3, Range::new(30, 35)).unwrap();

        stp.constrain(0, 3, Range::new(30, 35));
        let batch = stp.minimize().unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(inc.range(i, j), batch.range(i, j), "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn incremental_tighten_detects_inconsistency() {
        let mut stp = Stp::new(3);
        stp.constrain(0, 1, Range::new(5, 10));
        stp.constrain(1, 2, Range::new(5, 10));
        let mut m = stp.minimize().unwrap();
        assert!(m.tighten(0, 2, Range::new(0, 9)).is_err());
    }

    #[test]
    fn bellman_ford_matches_floyd_warshall() {
        let mut stp = Stp::new(5);
        stp.constrain(0, 1, Range::new(2, 9));
        stp.constrain(1, 3, Range::new(1, 4));
        stp.constrain(0, 2, Range::new(0, 3));
        stp.constrain(2, 3, Range::new(2, 8));
        stp.constrain(3, 4, Range::new(-2, 2));
        let m = stp.minimize().unwrap();
        let d = stp.distances_from(0).unwrap();
        for (j, &dj) in d.iter().enumerate() {
            assert_eq!(dj, m.as_stp().at(0, j), "distance to {j}");
        }
    }

    #[test]
    fn range_algebra() {
        assert_eq!(
            Range::new(0, 10).intersect(&Range::new(5, 20)),
            Some(Range::new(5, 10))
        );
        assert_eq!(Range::new(0, 4).intersect(&Range::new(5, 6)), None);
        assert!(Range::full().is_full());
    }

    #[test]
    fn unconstrained_variables_get_default_values() {
        let stp = Stp::new(3);
        let m = stp.minimize().unwrap();
        let x = m.solution();
        assert_eq!(x, vec![0, 0, 0]);
    }

    #[test]
    fn empty_network() {
        let stp = Stp::new(0);
        assert!(stp.is_empty());
        let m = stp.minimize().unwrap();
        assert!(m.solution().is_empty());
    }

    #[test]
    fn half_bounded_ranges() {
        let mut stp = Stp::new(2);
        stp.constrain(0, 1, Range::at_least(10));
        let m = stp.minimize().unwrap();
        assert_eq!(m.range(0, 1), Range::at_least(10));
        let x = m.solution();
        assert!(x[1] - x[0] >= 10);
    }
}
