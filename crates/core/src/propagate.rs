//! Approximate constraint propagation for event structures (paper §3.2,
//! Theorem 2): sound, terminating, polynomial.
//!
//! The algorithm partitions the TCGs of an event structure into groups
//! `C_μ`, one per granularity `μ` appearing in `Γ` (always including the
//! primitive `second`). Each group is a Simple Temporal Problem over the
//! *tick indices* `⌈t_X⌉μ` of the variables. It then alternates
//!
//! 1. **path consistency** within each group (STP minimization — complete
//!    for single-granularity networks, per Dechter–Meiri–Pearl), and
//! 2. **conversion**: every finite derived constraint of one group is
//!    translated (Appendix A.1) into every *gap-free* other granularity and
//!    intersected into that group,
//!
//! until no group changes. Inconsistency of any group refutes the
//! structure; the reverse direction is necessarily incomplete (consistency
//! is NP-hard, Theorem 1).
//!
//! # Why this is sound
//!
//! Every constraint entering a group `C_μ` is satisfied by every complex
//! event matching the structure whenever the `μ`-ticks of its two variables
//! are defined:
//!
//! * *explicit* TCGs by the match semantics (which also force definedness
//!   of their endpoints' ticks);
//! * *precedence* constraints `⌈t_Y⌉μ − ⌈t_X⌉μ ≥ 0` for every arc
//!   `(X, Y)`, because arc semantics order the timestamps and temporal
//!   types are monotone;
//! * *converted* constraints because conversion targets either gap-free
//!   granularities (ticks always defined) or gapped ones restricted to
//!   variable pairs whose definedness is forced by explicit TCGs, and
//!   Appendix A.1 derives implied bounds.
//!
//! Any *finite* bound derived by shortest paths only traverses explicit or
//! converted edges between finite endpoints (precedence contributes only
//! zeroes), and every intermediate variable on such a path has a defined
//! tick (it is an endpoint of an explicit or converted constraint, whose
//! endpoints are defined by construction, or the granularity is gap-free),
//! so derived finite bounds hold for every matching event.

use std::collections::{BTreeMap, HashMap};

use tgm_granularity::{Calendar, Gran, Granularity};
use tgm_limits::{Interrupt, Limits};
use tgm_stp::{MinimalNetwork, Range, Stp, INF};

use crate::structure::{EventStructure, VarId};
use crate::tcg::Tcg;

/// Conversions are pure functions of (source granularity instance, target
/// granularity instance, bounds); identical ranges recur across propagation
/// calls whenever the same calendar is reused (the mining pipeline invokes
/// propagation once per candidate sub-structure), so the memo is
/// process-wide. Keys use [`Gran::instance_id`] — process-unique and never
/// reused — so name collisions (e.g. `business-day` with different holiday
/// sets) cannot alias.
type ConvKey = (u64, u64, i64, i64);

fn converted_bounds_cached(src: &Gran, dst: &Gran, lo: i64, hi: i64) -> Option<(i64, i64)> {
    let key = (src.instance_id(), dst.instance_id(), lo, hi);
    type ConvMap = HashMap<ConvKey, Option<(i64, i64)>>;
    static GLOBAL: parking_lot::Mutex<Option<ConvMap>> = parking_lot::Mutex::new(None);
    const MAX_ENTRIES: usize = 1 << 16;
    let mut guard = GLOBAL.lock();
    let map = guard.get_or_insert_with(HashMap::new);
    if let Some(v) = map.get(&key) {
        return *v;
    }
    let src_tcg = Tcg::new(lo as u64, hi as u64, src.clone());
    let v = crate::convert::convert_constraint_for_defined_ticks(&src_tcg, dst)
        .map(|c| (c.lo() as i64, c.hi() as i64));
    if map.len() >= MAX_ENTRIES {
        map.clear();
    }
    map.insert(key, v);
    v
}

/// Safety cap on propagation iterations (the algorithm terminates on its
/// own; Theorem 2 bounds iterations by `n²·|M|·w`).
const MAX_ITERATIONS: usize = 100_000;

/// Result of approximate propagation: per-granularity minimal tick-distance
/// networks, or a refutation.
#[derive(Debug)]
pub struct Propagated {
    grans: Vec<Gran>,
    /// Minimal networks parallel to `grans`; `None` iff inconsistent.
    networks: Option<Vec<MinimalNetwork>>,
    /// `defined[g][v]`: matching events are guaranteed to have a defined
    /// `grans[g]`-tick for variable `v` (gap-free granularity, or `v` is an
    /// endpoint of an explicit TCG in that granularity).
    defined: Vec<Vec<bool>>,
    /// On refutation: the granularity group where the contradiction
    /// surfaced (either its own path consistency, or a converted
    /// constraint tightened it to empty).
    refuted_in: Option<Gran>,
    iterations: usize,
    n_vars: usize,
}

impl Propagated {
    /// Whether propagation failed to refute the structure. A `true` result
    /// does **not** prove consistency (the algorithm is approximate).
    pub fn is_consistent(&self) -> bool {
        self.networks.is_some()
    }

    /// Number of outer iterations (path consistency + conversion rounds)
    /// performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// On refutation, the granularity group in which the contradiction
    /// surfaced (useful for explaining why a structure was rejected).
    pub fn refuted_in(&self) -> Option<&Gran> {
        self.refuted_in.as_ref()
    }

    /// The granularity groups, in order.
    pub fn granularities(&self) -> &[Gran] {
        &self.grans
    }

    /// The minimal derived tick-distance range `⌈t_j⌉μ − ⌈t_i⌉μ` for a
    /// group, or `None` if the structure was refuted or `μ` has no group.
    pub fn range(&self, gran: &Gran, i: VarId, j: VarId) -> Option<Range> {
        let nets = self.networks.as_ref()?;
        let idx = self.grans.iter().position(|g| g == gran)?;
        Some(nets[idx].range(i.index(), j.index()))
    }

    /// The derived window on `t_j − t_i` in seconds (from the primitive
    /// `second` group, which propagation always adds), or `None` if the
    /// structure was refuted.
    pub fn seconds_window(&self, i: VarId, j: VarId) -> Option<Range> {
        let sec = self.grans.iter().find(|g| g.name() == "second")?;
        self.range(&sec.clone(), i, j)
    }

    /// All finite, forward (`lo ≥ 0`) derived constraints between `i` and
    /// `j`, one per group, expressed as TCGs — the `Γ'` sets used by the
    /// induced approximated sub-structures of §5.1.
    ///
    /// TCG semantics presuppose `t_i ≤ t_j` *and* defined covering ticks, so
    /// constraints are only reported when (a) the derived second-level
    /// window proves the order (which holds for all path-ordered pairs) and
    /// (b) every matching event is guaranteed a defined tick for both
    /// variables in that granularity — either because the granularity is
    /// gap-free or because the variable carries an explicit TCG in it.
    pub fn derived_tcgs(&self, i: VarId, j: VarId) -> Vec<Tcg> {
        let Some(nets) = self.networks.as_ref() else {
            return Vec::new();
        };
        if self.seconds_window(i, j).is_none_or(|r| r.lo < 0) {
            return Vec::new();
        }
        self.grans
            .iter()
            .enumerate()
            .zip(nets)
            .filter_map(|((gi, g), net)| {
                if !(self.defined[gi][i.index()] && self.defined[gi][j.index()]) {
                    return None;
                }
                let r = net.range(i.index(), j.index());
                (r.lo >= 0 && r.hi < INF)
                    .then(|| Tcg::new(r.lo as u64, r.hi as u64, g.clone()))
            })
            .collect()
    }
}

impl Propagated {
    /// Renders the derived minimal tick-distance ranges per granularity for
    /// every path-ordered pair — a human-readable propagation report.
    pub fn describe(&self, s: &EventStructure) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.is_consistent() {
            match self.refuted_in() {
                Some(g) => {
                    let _ = writeln!(
                        out,
                        "INCONSISTENT (refuted by propagation in the `{}` group)",
                        g.name()
                    );
                }
                None => out.push_str("INCONSISTENT (refuted by propagation)\n"),
            }
            return out;
        }
        for i in s.vars() {
            for j in s.vars() {
                if i == j || !s.has_path(i, j) {
                    continue;
                }
                let tcgs = self.derived_tcgs(i, j);
                if tcgs.is_empty() {
                    continue;
                }
                let parts: Vec<String> = tcgs.iter().map(|t| t.to_string()).collect();
                let _ = writeln!(out, "{} -> {}: {}", s.name(i), s.name(j), parts.join(" & "));
            }
        }
        out
    }
}

/// Runs approximate propagation (paper §3.2).
///
/// ```
/// use tgm_core::{propagate::propagate, StructureBuilder, Tcg};
/// use tgm_granularity::Calendar;
///
/// let cal = Calendar::standard();
/// let mut b = StructureBuilder::new();
/// let x0 = b.var("X0");
/// let x1 = b.var("X1");
/// // Same day, but at least 26 hours apart: contradictory across
/// // granularities — propagation refutes it.
/// b.constrain(x0, x1, Tcg::new(0, 0, cal.get("day").unwrap()));
/// b.constrain(x0, x1, Tcg::new(26, 30, cal.get("hour").unwrap()));
/// let s = b.build().unwrap();
/// assert!(!propagate(&s).is_consistent());
/// ```
pub fn propagate(s: &EventStructure) -> Propagated {
    match propagate_core(s, None) {
        Ok(p) => p,
        // Unreachable: without limits nothing interrupts the fixpoint.
        Err(i) => unreachable!("unlimited propagation interrupted: {i}"),
    }
}

/// [`propagate`] under [`Limits`]: the fixpoint loop polls cancellation
/// and the deadline per conversion pass and returns `Err` when interrupted
/// (propagation has no meaningful partial result — a half-tightened
/// network is not sound to read). With [`Limits::none`] behaves exactly
/// like [`propagate`].
pub fn propagate_bounded(s: &EventStructure, limits: &Limits) -> Result<Propagated, Interrupt> {
    propagate_core(s, Some(limits))
}

fn propagate_core(s: &EventStructure, limits: Option<&Limits>) -> Result<Propagated, Interrupt> {
    let n = s.len();
    let mut grans = s.granularities();
    // Always include the primitive `second` group, so second-level windows
    // are available even when no explicit TCG uses seconds.
    if !grans.iter().any(|g| g.name() == "second") {
        // The shared handle keeps one warm size table and compiled table
        // across every propagation call instead of rebuilding them here.
        // Invariant: the standard calendar always defines `second`.
        #[allow(clippy::expect_used)]
        let second = Calendar::shared_standard()
            .get("second")
            .expect("standard calendar defines `second`");
        grans.push(second);
        grans.sort();
    }

    // Definedness guarantees per group (see `Propagated::defined`).
    let defined: Vec<Vec<bool>> = grans
        .iter()
        .map(|g| {
            if !g.has_gaps() {
                return vec![true; n];
            }
            let mut mask = vec![false; n];
            for (a, b, cs) in s.arcs() {
                if cs.iter().any(|c| c.gran() == g) {
                    mask[a.index()] = true;
                    mask[b.index()] = true;
                }
            }
            mask
        })
        .collect();

    // Build the initial group STPs: explicit TCGs plus arc precedence.
    let mut groups: BTreeMap<usize, Stp> = BTreeMap::new();
    for (gi, g) in grans.iter().enumerate() {
        let mut stp = Stp::new(n);
        for (a, b, cs) in s.arcs() {
            stp.constrain(a.index(), b.index(), Range::at_least(0));
            for c in cs {
                if c.gran() == g {
                    stp.constrain(a.index(), b.index(), Range::new(c.lo() as i64, c.hi() as i64));
                }
            }
        }
        groups.insert(gi, stp);
    }

    // Initial path consistency.
    let mut nets: Vec<MinimalNetwork> = Vec::with_capacity(grans.len());
    for gi in 0..grans.len() {
        match groups[&gi].minimize() {
            Ok(m) => nets.push(m),
            Err(_) => {
                let refuted_in = Some(grans[gi].clone());
                return Ok(Propagated {
                    grans,
                    networks: None,
                    defined,
                    iterations: 0,
                    n_vars: n,
                    refuted_in,
                });
            }
        }
    }

    // Conversion is only sound for timestamp-ordered pairs (the TCG and
    // size-table semantics assume t_i <= t_j), so restrict it to pairs
    // connected by a directed path.
    let mut ordered = vec![false; n * n];
    for i in s.vars() {
        for j in s.vars() {
            if i != j && s.has_path(i, j) {
                ordered[i.index() * n + j.index()] = true;
            }
        }
    }

    // Alternate conversion + incremental re-tightening to a fixpoint.
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let mut changed = false;
        for src_idx in 0..grans.len() {
            for dst_idx in 0..grans.len() {
                if src_idx == dst_idx {
                    continue;
                }
                // Cooperative poll, once per conversion pass: the network
                // state between passes is consistent (tightenings are
                // individually sound), but we discard it anyway — see
                // propagate_bounded's contract.
                if let Some(l) = limits {
                    l.check()?;
                }
                let dst_gapped = grans[dst_idx].has_gaps();
                for i in 0..n {
                    for j in 0..n {
                        if i == j || !ordered[i * n + j] {
                            continue;
                        }
                        // Conversion into a gapped granularity is sound only
                        // when both endpoints are guaranteed defined ticks
                        // there (explicit TCGs force that); gap-free targets
                        // are unconditional. This realizes the paper's
                        // b-week -> b-day style conversions.
                        if dst_gapped && !(defined[dst_idx][i] && defined[dst_idx][j]) {
                            continue;
                        }
                        let r = nets[src_idx].range(i, j);
                        if r.lo < 0 || r.hi >= INF {
                            continue;
                        }
                        let converted = converted_bounds_cached(
                            &grans[src_idx],
                            &grans[dst_idx],
                            r.lo,
                            r.hi,
                        );
                        let Some((clo, chi)) = converted else {
                            continue;
                        };
                        let target = Range::new(clo, chi);
                        let before = nets[dst_idx].range(i, j);
                        match nets[dst_idx].tighten(i, j, target) {
                            Ok(()) => {
                                if nets[dst_idx].range(i, j) != before {
                                    changed = true;
                                }
                            }
                            Err(_) => {
                                let refuted_in = Some(grans[dst_idx].clone());
                                return Ok(Propagated {
                                    grans,
                                    networks: None,
                                    defined,
                                    iterations,
                                    n_vars: n,
                                    refuted_in,
                                });
                            }
                        }
                    }
                }
            }
        }
        if !changed || iterations >= MAX_ITERATIONS {
            break;
        }
    }

    Ok(Propagated {
        grans,
        networks: Some(nets),
        defined,
        iterations,
        n_vars: n,
        refuted_in: None,
    })
}

impl Propagated {
    /// Number of variables of the propagated structure.
    pub fn len(&self) -> usize {
        self.n_vars
    }

    /// Whether the propagated structure has no variables.
    pub fn is_empty(&self) -> bool {
        self.n_vars == 0
    }
}

#[cfg(test)]
mod tests {
    use tgm_granularity::Calendar;

    use super::*;
    use crate::structure::StructureBuilder;

    const DAY: i64 = 86_400;

    #[test]
    fn chain_derives_seconds_window() {
        let cal = Calendar::standard();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        let x2 = b.var("X2");
        b.constrain(x0, x1, Tcg::new(1, 2, cal.get("day").unwrap()));
        b.constrain(x1, x2, Tcg::new(1, 2, cal.get("day").unwrap()));
        let s = b.build().unwrap();
        let p = propagate(&s);
        assert!(p.is_consistent());
        let day = cal.get("day").unwrap();
        // Day-distance X0..X2 is the sum [2, 4].
        assert_eq!(p.range(&day, x0, x2).unwrap(), Range::new(2, 4));
        // A seconds window must have been derived by conversion.
        let w = p.seconds_window(x0, x2).unwrap();
        assert!(w.lo >= 1, "lower bound should be positive, got {w:?}");
        assert!(w.hi <= 5 * DAY, "upper bound too loose: {w:?}");
    }

    #[test]
    fn contradictory_same_granularity_refuted() {
        let cal = Calendar::standard();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        let x2 = b.var("X2");
        b.constrain(x0, x1, Tcg::new(3, 5, cal.get("day").unwrap()));
        b.constrain(x1, x2, Tcg::new(3, 5, cal.get("day").unwrap()));
        b.constrain(x0, x2, Tcg::new(0, 2, cal.get("day").unwrap()));
        let s = b.build().unwrap();
        assert!(!propagate(&s).is_consistent());
    }

    #[test]
    fn cross_granularity_refutation() {
        // Same day but at least 25 hours apart: refuted only via
        // conversion between the day and hour groups.
        let cal = Calendar::standard();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        b.constrain(x0, x1, Tcg::new(0, 0, cal.get("day").unwrap()));
        b.constrain(x0, x1, Tcg::new(26, 40, cal.get("hour").unwrap()));
        let s = b.build().unwrap();
        assert!(!propagate(&s).is_consistent());
    }

    #[test]
    fn same_day_and_few_hours_is_kept() {
        let cal = Calendar::standard();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        b.constrain(x0, x1, Tcg::new(0, 0, cal.get("day").unwrap()));
        b.constrain(x0, x1, Tcg::new(4, 6, cal.get("hour").unwrap()));
        let s = b.build().unwrap();
        let p = propagate(&s);
        assert!(p.is_consistent());
        // Witness check: 08:00 and 13:00 of day 0 match, and satisfy every
        // derived TCG (soundness).
        assert!(s.satisfied_by(&[8 * 3_600, 13 * 3_600]));
        for t in p.derived_tcgs(x0, x1) {
            assert!(t.satisfied(8 * 3_600, 13 * 3_600), "derived {t} violated");
        }
    }

    #[test]
    fn derived_tcgs_exclude_unrelated_pairs() {
        let cal = Calendar::standard();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        let x2 = b.var("X2");
        b.constrain(x0, x1, Tcg::new(0, 1, cal.get("day").unwrap()));
        b.constrain(x0, x2, Tcg::new(0, 1, cal.get("day").unwrap()));
        let s = b.build().unwrap();
        let p = propagate(&s);
        // X1 and X2 are ordered neither way: day distance spans negatives,
        // so no forward TCG should be derived in either direction ... but
        // the day range [-1, 1] is not forward; ensure filtering applies.
        for t in p.derived_tcgs(x1, x2) {
            assert!(t.lo() == 0 || t.hi() < u64::MAX);
        }
        // The root-to-leaf windows exist.
        assert!(p.seconds_window(x0, x1).is_some());
    }

    #[test]
    fn iterations_reported() {
        let cal = Calendar::standard();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        b.constrain(x0, x1, Tcg::new(0, 3, cal.get("week").unwrap()));
        let s = b.build().unwrap();
        let p = propagate(&s);
        assert!(p.is_consistent());
        assert!(p.iterations() >= 1);
        assert_eq!(p.len(), 2);
    }
}

#[cfg(test)]
mod describe_tests {
    use tgm_granularity::Calendar;

    use crate::examples::figure_1a;
    use crate::propagate::propagate;

    #[test]
    fn describe_renders_derived_constraints() {
        let cal = Calendar::standard();
        let (s, _) = figure_1a(&cal);
        let p = propagate(&s);
        let text = p.describe(&s);
        assert!(text.contains("X0 -> X3"), "{text}");
        assert!(text.contains("week"), "{text}");
        // Unordered pairs (X1, X2) are not reported.
        assert!(!text.contains("X1 -> X2"), "{text}");
        assert!(!text.contains("X2 -> X1"), "{text}");
    }

    #[test]
    fn describe_reports_refutation() {
        use crate::structure::StructureBuilder;
        use crate::tcg::Tcg;
        let cal = Calendar::standard();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        b.constrain(x0, x1, Tcg::new(0, 0, cal.get("day").unwrap()));
        b.constrain(x0, x1, Tcg::new(26, 30, cal.get("hour").unwrap()));
        let s = b.build().unwrap();
        let p = propagate(&s);
        assert!(p.describe(&s).contains("INCONSISTENT"));
    }
}

#[cfg(test)]
mod refutation_tests {
    use tgm_granularity::Calendar;

    use crate::propagate::propagate;
    use crate::structure::StructureBuilder;
    use crate::tcg::Tcg;

    #[test]
    fn refutation_names_the_group() {
        let cal = Calendar::standard();
        // Contradiction entirely inside the day group.
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        let x2 = b.var("X2");
        b.constrain(x0, x1, Tcg::new(3, 3, cal.get("day").unwrap()));
        b.constrain(x1, x2, Tcg::new(3, 3, cal.get("day").unwrap()));
        b.constrain(x0, x2, Tcg::new(0, 1, cal.get("day").unwrap()));
        let s = b.build().unwrap();
        let p = propagate(&s);
        assert!(!p.is_consistent());
        assert_eq!(p.refuted_in().map(|g| g.name()), Some("day"));
        assert!(p.describe(&s).contains("`day` group"));

        // Cross-granularity contradiction surfaces in whichever group the
        // converted constraint empties — it must name *some* group.
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        b.constrain(x0, x1, Tcg::new(0, 0, cal.get("day").unwrap()));
        b.constrain(x0, x1, Tcg::new(26, 40, cal.get("hour").unwrap()));
        let s = b.build().unwrap();
        let p = propagate(&s);
        assert!(!p.is_consistent());
        assert!(p.refuted_in().is_some());
        // A consistent structure reports no refutation group.
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        b.constrain(x0, x1, Tcg::new(0, 1, cal.get("day").unwrap()));
        let s = b.build().unwrap();
        assert!(propagate(&s).refuted_in().is_none());
    }
}

#[cfg(test)]
mod gapped_conversion_tests {
    use tgm_granularity::Calendar;
    use tgm_stp::Range;

    use crate::propagate::propagate;
    use crate::structure::StructureBuilder;
    use crate::tcg::Tcg;

    /// Conversion INTO a gapped granularity (the paper's b-week -> b-day
    /// style) when explicit TCGs force definedness: an hour bound tightens
    /// a business-day range.
    #[test]
    fn hour_constraint_tightens_business_day_range() {
        let cal = Calendar::standard();
        let bday = cal.get("business-day").unwrap();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        b.constrain(x0, x1, Tcg::new(0, 5, bday.clone()));
        b.constrain(x0, x1, Tcg::new(0, 30, cal.get("hour").unwrap()));
        let s = b.build().unwrap();
        let p = propagate(&s);
        assert!(p.is_consistent());
        // Within 30 hours one can reach at most 2 business days ahead
        // (Fri morning -> Sat crosses one b-day boundary; two boundaries
        // need > 30h... concretely mingap(b-day, 3) > 31h - 1).
        let r = p.range(&bday, x0, x1).unwrap();
        assert!(r.hi <= 2, "b-day range should tighten below 5, got {r:?}");
        assert_eq!(r.lo, 0);
        // And the derived TCG set on (X0, X1) includes the tightened b-day
        // constraint (definedness is forced by the explicit TCG).
        let derived = p.derived_tcgs(x0, x1);
        let got = derived.iter().find(|t| t.gran().name() == "business-day");
        assert!(got.is_some_and(|t| t.hi() <= 2), "{derived:?}");
    }

    /// Chains combine inside the gapped group across arcs.
    #[test]
    fn business_day_chain_composes() {
        let cal = Calendar::standard();
        let bday = cal.get("business-day").unwrap();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        let x2 = b.var("X2");
        b.constrain(x0, x1, Tcg::new(1, 1, bday.clone()));
        b.constrain(x1, x2, Tcg::new(2, 2, bday.clone()));
        let s = b.build().unwrap();
        let p = propagate(&s);
        assert_eq!(p.range(&bday, x0, x2).unwrap(), Range::new(3, 3));
    }

    /// Variables WITHOUT explicit b-day constraints get no b-day-derived
    /// TCGs even if connected (definedness cannot be guaranteed).
    #[test]
    fn no_gapped_derivation_without_definedness() {
        let cal = Calendar::standard();
        let bday = cal.get("business-day").unwrap();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        let x2 = b.var("X2");
        b.constrain(x0, x1, Tcg::new(0, 2, bday));
        b.constrain(x1, x2, Tcg::new(0, 10, cal.get("hour").unwrap()));
        let s = b.build().unwrap();
        let p = propagate(&s);
        assert!(p.is_consistent());
        // (x1, x2): x2 has no b-day TCG -> no derived b-day constraint.
        assert!(p
            .derived_tcgs(x1, x2)
            .iter()
            .all(|t| t.gran().name() != "business-day"));
        // (x0, x1): both defined -> a b-day constraint is derived.
        assert!(p
            .derived_tcgs(x0, x1)
            .iter()
            .any(|t| t.gran().name() == "business-day"));
    }
}
