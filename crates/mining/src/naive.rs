//! The naive discovery algorithm (paper §5): enumerate every candidate
//! complex type and start one TAG per reference occurrence, on one
//! thread, as the paper states it. It is the oracle every pipeline ≡
//! naive test compares against.

use tgm_core::ComplexEventType;
use tgm_events::{Event, EventSequence, EventType, TickColumns};
use tgm_limits::{Interrupt, Limits, Verdict};
use tgm_obs::span::span;
use tgm_obs::{metrics, Observable, ObsValue};
use tgm_tag::{build_tag, count_interrupt, MatchOptions, Matcher, MatcherScratch, RunCtx, Tag};

use crate::bounded::BoundedMining;
use crate::problem::{DiscoveryProblem, Solution};

/// Instrumentation from a naive run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NaiveStats {
    /// Candidate complex types enumerated (`n^s` in the paper's analysis).
    pub candidates: usize,
    /// Anchored TAG runs performed (candidates × reference occurrences).
    pub tag_runs: usize,
    /// Solutions found.
    pub solutions: usize,
}

impl Observable for NaiveStats {
    fn observe(&self, out: &mut Vec<(&'static str, ObsValue)>) {
        out.push(("candidates", ObsValue::from(self.candidates)));
        out.push(("tag_runs", ObsValue::from(self.tag_runs)));
        out.push(("solutions", ObsValue::from(self.solutions)));
    }
}

/// Runs the naive algorithm.
pub fn mine(problem: &DiscoveryProblem, seq: &EventSequence) -> (Vec<Solution>, NaiveStats) {
    let run = mine_core(problem, seq, None);
    (run.solutions, run.stats)
}

/// Runs the naive algorithm under execution [`Limits`].
///
/// The budget counts *candidate complex types processed* (deterministic:
/// the same input and budget always stop at the same candidate); the
/// deadline and cancel token are additionally polled between anchored runs
/// and inside each matcher run. Solutions found before the interrupt are
/// returned with [`Verdict::Interrupted`].
pub fn mine_bounded(
    problem: &DiscoveryProblem,
    seq: &EventSequence,
    limits: &Limits,
) -> BoundedMining<NaiveStats> {
    mine_core(problem, seq, Some(limits))
}

fn mine_core(
    problem: &DiscoveryProblem,
    seq: &EventSequence,
    limits: Option<&Limits>,
) -> BoundedMining<NaiveStats> {
    let _span = span("mining.naive");
    let run = mine_inner(problem, seq, limits);
    if tgm_obs::enabled() {
        metrics::counter_add("mining.naive.runs", 1);
        metrics::counter_add("mining.naive.candidates", run.stats.candidates as u64);
        metrics::counter_add("mining.naive.tag_runs", run.stats.tag_runs as u64);
        metrics::counter_add("mining.naive.solutions", run.stats.solutions as u64);
        if let Some(i) = run.verdict.interrupt() {
            count_interrupt(i);
        }
    }
    run
}

fn mine_inner(
    problem: &DiscoveryProblem,
    seq: &EventSequence,
    limits: Option<&Limits>,
) -> BoundedMining<NaiveStats> {
    let mut stats = NaiveStats::default();
    let denominator = problem.reference_count(seq);
    if denominator == 0 {
        return BoundedMining {
            solutions: Vec::new(),
            stats,
            verdict: Verdict::Completed,
        };
    }
    // Matcher-level runs get the budget stripped (the budget unit here is
    // candidates, not frontier rows).
    let run_limits = limits.map(|l| l.clone().without_budget());
    let occurring = seq.types_present();
    let refs: Vec<usize> = seq
        .events()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.ty == problem.reference_type)
        .map(|(i, _)| i)
        .collect();

    // Every candidate's TAG clocks over the structure's granularities:
    // resolve each event's ticks once, up front, for all of them.
    let cols = TickColumns::build(seq.events(), &problem.structure.granularities());

    let mut solutions = Vec::new();
    let mut verdict = Verdict::Completed;
    // One scratch reused across every candidate's every anchored run.
    let mut scratch = MatcherScratch::new();
    let mut assignment: Vec<EventType> = vec![problem.reference_type; problem.structure.len()];
    enumerate(problem, &occurring, 1, &mut assignment, &mut |phi| {
        if !problem.assignment_admissible(phi) {
            return true;
        }
        if let Some(l) = limits {
            // Budget unit: candidates processed (this would be the
            // `candidates + 1`-th).
            if let Err(i) = l.check_with_used(stats.candidates as u64 + 1) {
                verdict = i.into();
                return false;
            }
        }
        stats.candidates += 1;
        let cet = ComplexEventType::new(problem.structure.clone(), phi.to_vec());
        let tag = build_tag(&cet);
        let counted = count_support(
            &tag,
            seq.events(),
            &refs,
            None,
            Some(&cols),
            &mut scratch,
            &mut stats.tag_runs,
            run_limits.as_ref(),
        );
        let support = match counted {
            Ok(s) => s,
            Err(i) => {
                verdict = i.into();
                return false;
            }
        };
        let frequency = support as f64 / denominator as f64;
        if frequency > problem.min_confidence {
            solutions.push(Solution {
                assignment: phi.to_vec(),
                frequency,
                support,
            });
        }
        true
    });
    stats.solutions = solutions.len();
    solutions.sort_by(|a, b| a.assignment.cmp(&b.assignment));
    BoundedMining {
        solutions,
        stats,
        verdict,
    }
}

/// Recursively enumerates candidate assignments (root fixed to `E₀`);
/// `f` returns `false` to stop the enumeration early.
fn enumerate(
    problem: &DiscoveryProblem,
    occurring: &[EventType],
    var: usize,
    assignment: &mut Vec<EventType>,
    f: &mut impl FnMut(&[EventType]) -> bool,
) -> bool {
    if var == problem.structure.len() {
        return f(assignment);
    }
    let cands = problem
        .candidates
        .resolve(tgm_core::VarId(var), occurring);
    for ty in cands {
        assignment[var] = ty;
        if !enumerate(problem, occurring, var + 1, assignment, f) {
            return false;
        }
    }
    true
}

/// The miner's matcher configuration: anchored, lazy updates.
fn anchored_matcher(tag: &Tag) -> Matcher<'_> {
    Matcher::with_options(tag, MatchOptions { anchored: true })
}

/// Counts distinct reference occurrences from which the TAG accepts,
/// running one anchored matcher per occurrence. `window` optionally bounds
/// the scanned suffix to `ref_time + window` seconds. When `cols` (built
/// over exactly `events`) is given, clock updates read the pre-resolved
/// tick columns instead of re-resolving each timestamp per run. `scratch`
/// is reused across every run (and across calls), so the sweep allocates
/// nothing in steady state. `limits` (deadline/cancel; any budget should
/// already be stripped by the caller) is polled between anchored runs and
/// inside each run; an interrupt abandons the count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn count_support(
    tag: &Tag,
    events: &[Event],
    refs: &[usize],
    window: Option<i64>,
    cols: Option<&TickColumns>,
    scratch: &mut MatcherScratch,
    tag_runs: &mut usize,
    limits: Option<&Limits>,
) -> Result<usize, Interrupt> {
    let matcher = anchored_matcher(tag);
    let mut support = 0;
    for &idx in refs {
        if let Some(l) = limits {
            l.check()?;
        }
        let slice = match window {
            Some(w) => {
                let t0 = events[idx].time;
                let end = events.partition_point(|e| e.time <= t0.saturating_add(w));
                &events[idx..end]
            }
            None => &events[idx..],
        };
        *tag_runs += 1;
        let mut ctx = RunCtx {
            scratch: &mut *scratch,
            cols: cols.map(|cols| (cols, idx)),
            limits,
        };
        if matcher.run_in(slice, true, &mut ctx).acceptance()? {
            support += 1;
        }
    }
    Ok(support)
}

#[cfg(test)]
mod tests {
    use tgm_core::{StructureBuilder, Tcg};
    use tgm_events::{Event, TypeRegistry};
    use tgm_granularity::Calendar;

    use super::*;

    const DAY: i64 = 86_400;

    /// A: reference; B follows A the next day in 2 of 3 cases; C never.
    fn small_world() -> (TypeRegistry, EventSequence, DiscoveryProblem) {
        let mut reg = TypeRegistry::new();
        let a = reg.intern("A");
        let b = reg.intern("B");
        let c = reg.intern("C");
        let events = vec![
            Event::new(a, 2 * DAY),             // Mon
            Event::new(b, 3 * DAY),             // Tue: match
            Event::new(c, 3 * DAY + 10),
            Event::new(a, 4 * DAY),             // Wed
            Event::new(b, 5 * DAY),             // Thu: match
            Event::new(a, 9 * DAY),             // Mon
            Event::new(b, 11 * DAY),            // Wed: 2 days, no match
        ];
        let seq = EventSequence::from_events(events);
        let cal = Calendar::standard();
        let mut sb = StructureBuilder::new();
        let x0 = sb.var("X0");
        let x1 = sb.var("X1");
        sb.constrain(x0, x1, Tcg::new(1, 1, cal.get("day").unwrap()));
        let s = sb.build().unwrap();
        let p = DiscoveryProblem::new(s, 0.5, a);
        (reg, seq, p)
    }

    #[test]
    fn finds_frequent_next_day_pattern() {
        let (_reg, seq, p) = small_world();
        let (sols, stats) = mine(&p, &seq);
        // Only the assignment X1 = B has frequency 2/3 > 0.5.
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].support, 2);
        assert!((sols[0].frequency - 2.0 / 3.0).abs() < 1e-9);
        // Candidates: 3 occurring types for X1.
        assert_eq!(stats.candidates, 3);
        assert_eq!(stats.tag_runs, 9); // 3 candidates x 3 refs
    }

    #[test]
    fn threshold_is_strict() {
        let (_reg, seq, mut p) = small_world();
        p.min_confidence = 2.0 / 3.0; // frequency must be STRICTLY greater
        let (sols, _) = mine(&p, &seq);
        assert!(sols.is_empty());
    }

    #[test]
    fn empty_when_reference_absent() {
        let (_reg, seq, mut p) = small_world();
        p.reference_type = EventType(99);
        let (sols, stats) = mine(&p, &seq);
        assert!(sols.is_empty());
        assert_eq!(stats.candidates, 0);
    }

    #[test]
    fn candidate_restriction_respected() {
        let (reg, seq, p) = small_world();
        let c = reg.get("C").unwrap();
        let p = p.with_candidates(tgm_core::VarId(1), [c]);
        let (sols, stats) = mine(&p, &seq);
        assert!(sols.is_empty());
        assert_eq!(stats.candidates, 1);
    }
}
