//! The naive discovery algorithm (paper §5): enumerate every candidate
//! complex type and start one TAG per reference occurrence.

use tgm_core::ComplexEventType;
use tgm_events::{Event, EventSequence, EventType, TickColumns};
use tgm_limits::{fail, CancelToken, Interrupt, Limits, Verdict, WorkerPanic};
use tgm_obs::span::span_if;
use tgm_obs::{metrics, Observable, ObsOptions, ObsValue};
use tgm_tag::{build_tag, count_interrupt, MatchOptions, Matcher, MatcherScratch, RunCtx, Tag};

use crate::bounded::{contain, BoundedMining, Halt};
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

/// Options for the naive algorithm (it has no screening steps to ablate —
/// only the execution strategy of its anchored sweeps).
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveOptions {
    /// Chunk each candidate's per-occurrence anchored sweep across worker
    /// threads (one matcher scratch per worker). Off by default: the naive
    /// baseline is traditionally measured single-threaded.
    pub parallel_sweep: bool,
    /// Per-run observability knobs (effective only while the process-wide
    /// toggle is on).
    pub obs: ObsOptions,
}

/// Runs the naive algorithm single-threaded.
pub fn mine(problem: &DiscoveryProblem, seq: &EventSequence) -> (Vec<Solution>, NaiveStats) {
    mine_with(problem, seq, &NaiveOptions::default())
}

/// Runs the naive algorithm with explicit options.
pub fn mine_with(
    problem: &DiscoveryProblem,
    seq: &EventSequence,
    opts: &NaiveOptions,
) -> (Vec<Solution>, NaiveStats) {
    match mine_core(problem, seq, opts, None) {
        Ok(run) => (run.solutions, run.stats),
        // Without limits there is no cooperative recovery path: re-raise
        // the contained worker panic as our own.
        Err(wp) => panic!("{wp}"),
    }
}

/// Runs the naive algorithm under execution [`Limits`].
///
/// The budget counts *candidate complex types processed* (deterministic:
/// the same input and budget always stop at the same candidate); the
/// deadline and cancel token are additionally polled between anchored runs
/// and inside each matcher run. Solutions found before the interrupt are
/// returned with [`Verdict::Interrupted`]. A panic in a parallel sweep
/// worker cancels its siblings and surfaces as [`WorkerPanic`].
pub fn mine_bounded(
    problem: &DiscoveryProblem,
    seq: &EventSequence,
    opts: &NaiveOptions,
    limits: &Limits,
) -> Result<BoundedMining<NaiveStats>, WorkerPanic> {
    mine_core(problem, seq, opts, Some(limits))
}

fn mine_core(
    problem: &DiscoveryProblem,
    seq: &EventSequence,
    opts: &NaiveOptions,
    limits: Option<&Limits>,
) -> Result<BoundedMining<NaiveStats>, WorkerPanic> {
    let _span = span_if(opts.obs.spans, "mining.naive");
    let result = mine_inner(problem, seq, opts, limits);
    if opts.obs.metrics_on() {
        match &result {
            Ok(run) => {
                metrics::counter_add("mining.naive.runs", 1);
                metrics::counter_add("mining.naive.candidates", run.stats.candidates as u64);
                metrics::counter_add("mining.naive.tag_runs", run.stats.tag_runs as u64);
                metrics::counter_add("mining.naive.solutions", run.stats.solutions as u64);
                if let Some(i) = run.verdict.interrupt() {
                    count_interrupt(i);
                }
            }
            Err(_) => metrics::counter_add("limits.worker_panics", 1),
        }
    }
    result
}

fn mine_inner(
    problem: &DiscoveryProblem,
    seq: &EventSequence,
    opts: &NaiveOptions,
    limits: Option<&Limits>,
) -> Result<BoundedMining<NaiveStats>, WorkerPanic> {
    let mut stats = NaiveStats::default();
    let done = |solutions, stats, verdict| {
        Ok(BoundedMining {
            solutions,
            stats,
            verdict,
        })
    };
    let denominator = problem.reference_count(seq);
    if denominator == 0 {
        return done(Vec::new(), stats, Verdict::Completed);
    }
    // A worker panic must be able to cancel its siblings even when the
    // caller supplied no token, so attach one up front; matcher-level runs
    // get the budget stripped (the budget unit here is candidates, not
    // frontier rows).
    let mut eff = limits.cloned();
    let token = eff.as_mut().map(Limits::cancel_token);
    let run_limits = eff.as_ref().map(|l| l.clone().without_budget());
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

    let n_threads = if opts.parallel_sweep {
        // At least two workers, so the option exercises the parallel path
        // (and its panic containment) even on single-core hosts.
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .max(2)
    } else {
        1
    };
    let mut solutions = Vec::new();
    let mut verdict = Verdict::Completed;
    let mut worker_panic: Option<WorkerPanic> = None;
    // One scratch reused across every candidate's every anchored run.
    let mut scratch = MatcherScratch::new();
    let mut assignment: Vec<EventType> = vec![problem.reference_type; problem.structure.len()];
    enumerate(problem, &occurring, 1, &mut assignment, &mut |phi| {
        if !problem.assignment_admissible(phi) {
            return true;
        }
        if let Some(l) = eff.as_ref() {
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
        let support = if n_threads > 1 {
            let swept = count_support_sweep(
                &tag,
                seq.events(),
                &refs,
                None,
                Some(&cols),
                n_threads,
                &mut stats.tag_runs,
                opts.obs,
                run_limits.as_ref(),
                token.as_ref(),
            );
            match swept {
                Ok(s) => s,
                Err(Halt::Interrupted(i)) => {
                    verdict = i.into();
                    return false;
                }
                Err(Halt::Panicked(wp)) => {
                    worker_panic = Some(wp);
                    return false;
                }
            }
        } else {
            let counted = count_support(
                &tag,
                seq.events(),
                &refs,
                None,
                Some(&cols),
                &mut scratch,
                &mut stats.tag_runs,
                opts.obs,
                run_limits.as_ref(),
            );
            match counted {
                Ok(s) => s,
                Err(i) => {
                    verdict = i.into();
                    return false;
                }
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
    if let Some(wp) = worker_panic {
        return Err(wp);
    }
    stats.solutions = solutions.len();
    solutions.sort_by(|a, b| a.assignment.cmp(&b.assignment));
    done(solutions, stats, verdict)
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

/// The miner's matcher configuration: anchored, lazy updates, saturating.
/// Matcher-level emission (frontier histogram, dedup hits, pool high-water)
/// inherits the mining caller's obs knobs.
fn anchored_matcher(tag: &Tag, obs: ObsOptions) -> Matcher<'_> {
    Matcher::with_options(
        tag,
        MatchOptions::builder()
            .anchored(true)
            .strict_updates(false)
            .saturate(true)
            .obs(obs)
            .build(),
    )
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
    obs: ObsOptions,
    limits: Option<&Limits>,
) -> Result<usize, Interrupt> {
    let matcher = anchored_matcher(tag, obs);
    count_refs(&matcher, events, refs, window, cols, scratch, tag_runs, limits)
}

/// The inner anchored sweep over one slice of reference occurrences.
#[allow(clippy::too_many_arguments)]
fn count_refs(
    matcher: &Matcher<'_>,
    events: &[Event],
    refs: &[usize],
    window: Option<i64>,
    cols: Option<&TickColumns>,
    scratch: &mut MatcherScratch,
    tag_runs: &mut usize,
    limits: Option<&Limits>,
) -> Result<usize, Interrupt> {
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

/// [`count_support`] with the anchor start positions chunked across up to
/// `n_threads` workers (one scratch per worker): parallelism *inside* one
/// candidate, for when there are fewer candidates than cores. Each
/// reference occurrence is an independent anchored run, so the support sum
/// is identical to the serial sweep in any chunking. A panic in one
/// worker cancels `token` (stopping siblings at their next poll) and
/// surfaces as [`Halt::Panicked`]; the first panic wins over any
/// interrupt, since cancellation interrupts in siblings are a side effect
/// of the panic itself.
#[allow(clippy::too_many_arguments)]
fn count_support_sweep(
    tag: &Tag,
    events: &[Event],
    refs: &[usize],
    window: Option<i64>,
    cols: Option<&TickColumns>,
    n_threads: usize,
    tag_runs: &mut usize,
    obs: ObsOptions,
    limits: Option<&Limits>,
    token: Option<&CancelToken>,
) -> Result<usize, Halt> {
    let n_threads = n_threads.min(refs.len());
    if n_threads <= 1 {
        let counted = count_support(
            tag,
            events,
            refs,
            window,
            cols,
            &mut MatcherScratch::new(),
            tag_runs,
            obs,
            limits,
        );
        return counted.map_err(Halt::from);
    }
    let matcher = anchored_matcher(tag, obs);
    let matcher = &matcher;
    const SITE: &str = "mining.sweep.worker";
    let worker_panic = |payload: &(dyn std::any::Any + Send)| {
        if let Some(t) = token {
            t.cancel();
        }
        WorkerPanic {
            site: SITE,
            message: tgm_limits::panic_message(payload),
        }
    };
    type ChunkResult = Result<Result<(usize, usize), Interrupt>, WorkerPanic>;
    // Workers are fresh threads with an empty scope stack: hand them the
    // caller's current scoped metric domain so their emissions (and any
    // contained-panic flush) land where the caller's would.
    let worker_scope = tgm_obs::scope::current();
    let joined: Vec<ChunkResult> = crossbeam::scope(|scope| {
            let handles: Vec<_> = refs
                .chunks(refs.len().div_ceil(n_threads))
                .map(|chunk| {
                    let worker_scope = worker_scope.clone();
                    scope.spawn(move |_| {
                        let _obs_scope = worker_scope.enter();
                        contain(SITE, token, || {
                            fail::point(SITE, limits);
                            // Per-chunk timing; the chunk-size histogram
                            // shows how evenly the anchors split across
                            // workers.
                            let _s = span_if(obs.spans, "mining.sweep.chunk");
                            if obs.metrics_on() {
                                metrics::histogram_record(
                                    "mining.sweep.chunk_refs",
                                    chunk.len() as u64,
                                );
                            }
                            let mut scratch = MatcherScratch::new();
                            let mut runs = 0usize;
                            count_refs(
                                matcher,
                                events,
                                chunk,
                                window,
                                cols,
                                &mut scratch,
                                &mut runs,
                                limits,
                            )
                            .map(|support| (support, runs))
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| Err(worker_panic(p.as_ref()))))
                .collect()
        })
        .unwrap_or_else(|p| vec![Err(worker_panic(p.as_ref()))]);
    if obs.metrics_on() {
        metrics::counter_add("mining.sweep.chunks", joined.len() as u64);
    }
    let mut support = 0;
    let mut first_interrupt: Option<Interrupt> = None;
    let mut first_panic: Option<WorkerPanic> = None;
    for r in joined {
        match r {
            Ok(Ok((s, runs))) => {
                support += s;
                *tag_runs += runs;
            }
            Ok(Err(i)) => {
                first_interrupt.get_or_insert(i);
            }
            Err(wp) => {
                if first_panic.is_none() {
                    first_panic = Some(wp);
                }
            }
        }
    }
    if let Some(wp) = first_panic {
        return Err(Halt::Panicked(wp));
    }
    if let Some(i) = first_interrupt {
        return Err(Halt::Interrupted(i));
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
