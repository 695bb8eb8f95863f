//! The optimized discovery pipeline (paper §5, steps 1–5).
//!
//! 1. **Consistency screening** — run the sound propagation of §3.2;
//!    an inconsistent structure has no solutions at all.
//! 2. **Sequence reduction** — drop events that cannot bind to any
//!    variable: wrong type for every candidate set, or not covered by a
//!    gapped granularity that explicitly constrains every variable they
//!    could bind to (the paper's business-day example).
//! 3. **Reference pruning** — a reference occurrence can only root a match
//!    if every variable's derived window (from propagation, in seconds)
//!    contains at least one eligible event; otherwise no automaton is
//!    started for it.
//! 4. **Candidate reduction** — the induced discovery problems of §5.1:
//!    for each variable, a type survives only if it appears, often enough
//!    (w.r.t. *all* reference occurrences), inside the variable's window
//!    satisfying all derived root-to-variable TCGs (`k = 1`); optionally
//!    extended to tuples along root-anchored chains for `k = 2, 3, …`,
//!    each an induced sub-problem solved with anchored TAGs.
//! 5. **Final scan** — enumerate the surviving assignments and run one
//!    anchored TAG per (candidate, reference occurrence), with the scan
//!    bounded by the derived windows. All candidates advance together in
//!    one shared multi-TAG pass, split across the host's workers.
//!
//! Steps 1–5 always run; none of them changes the answer, only the work
//! left for step 5. [`PipelineStats`] reports what each step kept (its
//! [`funnel`](PipelineStats::funnel)). The one option,
//! [`PipelineOptions::chain_screening_k`], turns on the `k ≥ 2` screens.

use std::collections::{BTreeMap, BTreeSet};

use tgm_core::propagate::{propagate, propagate_bounded, Propagated};
use tgm_core::{EventStructure, Tcg, VarId};
use tgm_events::{Event, EventSequence, EventType, TickColumns};
use tgm_granularity::Granularity as _;
use tgm_limits::{CancelToken, Interrupt, Limits, Verdict, WorkerPanic};
use tgm_obs::span::span;
use tgm_obs::{metrics, FunnelStage, ObsValue, Observable};
use tgm_stp::INF;
use tgm_tag::{count_interrupt, Tag};

use crate::bounded::{BoundedMining, Halt};
use crate::multi_scan::{count_supports, ScanInput, TemplateCache};
use crate::problem::{DiscoveryProblem, Solution};

/// The maximum number of variables in a structure the pipeline mines: the
/// width of the per-event eligibility bitmask of step 2. Callers taking
/// outside input check it up front; [`mine_with`] and [`mine_bounded`]
/// panic past it.
pub const MAX_VARIABLES: usize = 64;

/// The pipeline's one option. Steps 1–5 always run; their effect shows in
/// the [`PipelineStats`] funnel.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineOptions {
    /// Step 4 extension, the paper's full form: solve *induced discovery
    /// problems* on root-anchored sub-chains of up to this many non-root
    /// variables with anchored TAGs, banning infrequent tuples
    /// ("for each integer k = 2, 3, …" in §5.1). `0` (the default)
    /// disables; screened-out tuples from smaller `k` are never
    /// reconsidered at larger `k`.
    pub chain_screening_k: usize,
}

/// Per-step instrumentation. Every field but `step5_workers` is identical
/// whatever the step-5 worker count, and [`funnel`](Self::funnel) renders
/// the §5 pruning funnel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Whether step 1 refuted the structure outright.
    pub refuted: bool,
    /// Events in the input / after step 2.
    pub events_total: usize,
    /// Events surviving sequence reduction.
    pub events_kept: usize,
    /// Reference occurrences in the input (frequency denominator).
    pub refs_total: usize,
    /// Reference occurrences surviving step 3.
    pub refs_kept: usize,
    /// Candidate assignments before any screening (`∏ |δ(X)|`).
    pub candidates_initial: u64,
    /// Candidate assignments after per-variable screening.
    pub candidates_after_var_screen: u64,
    /// Candidate assignments actually scanned in step 5 (after chain
    /// screening).
    pub candidates_scanned: u64,
    /// Anchored TAG runs in step 5.
    pub tag_runs: usize,
    /// Anchored TAG runs spent on induced chain screening (step 4, k >= 2).
    pub screening_tag_runs: usize,
    /// Candidate tuples banned by induced chain screening.
    pub banned_tuples: usize,
    /// Threads the step-5 scan ran on, the caller's included (0 when no
    /// assignment was scanned).
    pub step5_workers: usize,
    /// Solutions found.
    pub solutions: usize,
}

impl PipelineStats {
    /// The §5 pruning funnel, one stage per pipeline step: how many
    /// items entered each step and how many survived it.
    pub fn funnel(&self) -> Vec<FunnelStage> {
        vec![
            FunnelStage {
                step: "step1.consistency".into(),
                input: 1,
                output: u64::from(!self.refuted),
                detail: "structures (refuted by propagation = 0 survivors)".into(),
            },
            FunnelStage {
                step: "step2.sequence_reduction".into(),
                input: self.events_total as u64,
                output: self.events_kept as u64,
                detail: "events".into(),
            },
            FunnelStage {
                step: "step3.reference_pruning".into(),
                input: self.refs_total as u64,
                output: self.refs_kept as u64,
                detail: "reference occurrences".into(),
            },
            FunnelStage {
                step: "step4.candidate_reduction".into(),
                input: self.candidates_initial,
                output: self.candidates_scanned,
                detail: format!(
                    "assignments ({} after k=1 screen; {} tuples banned)",
                    self.candidates_after_var_screen, self.banned_tuples
                ),
            },
            FunnelStage {
                step: "step5.final_scan".into(),
                input: self.candidates_scanned,
                output: self.solutions as u64,
                detail: format!(
                    "assignments -> solutions ({} anchored runs, {} worker{})",
                    self.tag_runs,
                    self.step5_workers,
                    if self.step5_workers == 1 { "" } else { "s" }
                ),
            },
        ]
    }
}

impl Observable for PipelineStats {
    fn observe(&self, out: &mut Vec<(&'static str, ObsValue)>) {
        out.push(("refuted", self.refuted.into()));
        out.push(("events_total", self.events_total.into()));
        out.push(("events_kept", self.events_kept.into()));
        out.push(("refs_total", self.refs_total.into()));
        out.push(("refs_kept", self.refs_kept.into()));
        out.push(("candidates_initial", self.candidates_initial.into()));
        out.push((
            "candidates_after_var_screen",
            self.candidates_after_var_screen.into(),
        ));
        out.push(("candidates_scanned", self.candidates_scanned.into()));
        out.push(("tag_runs", self.tag_runs.into()));
        out.push(("screening_tag_runs", self.screening_tag_runs.into()));
        out.push(("banned_tuples", self.banned_tuples.into()));
        out.push(("step5_workers", self.step5_workers.into()));
        out.push(("solutions", self.solutions.into()));
    }
}

/// Runs the optimized pipeline with default options.
///
/// ```
/// use tgm_core::{StructureBuilder, Tcg};
/// use tgm_events::{Event, EventSequence, TypeRegistry};
/// use tgm_granularity::Calendar;
/// use tgm_mining::{pipeline, DiscoveryProblem};
///
/// let cal = Calendar::standard();
/// let mut reg = TypeRegistry::new();
/// let (a, b) = (reg.intern("A"), reg.intern("B"));
/// let mut sb = StructureBuilder::new();
/// let x0 = sb.var("X0");
/// let x1 = sb.var("X1");
/// sb.constrain(x0, x1, Tcg::new(1, 1, cal.get("day").unwrap()));
/// let s = sb.build().unwrap();
///
/// const DAY: i64 = 86_400;
/// let seq = EventSequence::from_events(vec![
///     Event::new(a, 2 * DAY), Event::new(b, 3 * DAY),
///     Event::new(a, 9 * DAY), Event::new(b, 10 * DAY),
/// ]);
/// let (solutions, _) = pipeline::mine(&DiscoveryProblem::new(s, 0.9, a), &seq);
/// assert_eq!(solutions.len(), 1);
/// assert_eq!(solutions[0].assignment, vec![a, b]);
/// ```
pub fn mine(problem: &DiscoveryProblem, seq: &EventSequence) -> (Vec<Solution>, PipelineStats) {
    mine_with(problem, seq, &PipelineOptions::default())
}

/// Runs the optimized pipeline.
pub fn mine_with(
    problem: &DiscoveryProblem,
    seq: &EventSequence,
    opts: &PipelineOptions,
) -> (Vec<Solution>, PipelineStats) {
    match mine_core(problem, seq, opts, None) {
        Ok(run) => (run.solutions, run.stats),
        // Without limits there is no cooperative recovery path: re-raise
        // the contained worker panic as our own.
        Err(wp) => panic!("{wp}"),
    }
}

/// Runs the optimized pipeline under execution [`Limits`].
///
/// The budget counts *step-5 candidate assignments scanned* and is
/// deterministic: with budget `B`, exactly the first `B` surviving
/// assignments (in enumeration order) are scanned, whatever the worker
/// count. The deadline and cancel token are polled at every step
/// boundary, between reference occurrences inside the screening loops,
/// and inside every anchored TAG run. Solutions counted before an
/// interrupt are returned with [`Verdict::Interrupted`]. A panic in a
/// step-5 or chain-screening worker cancels its siblings via the shared
/// token and surfaces as [`WorkerPanic`].
pub fn mine_bounded(
    problem: &DiscoveryProblem,
    seq: &EventSequence,
    opts: &PipelineOptions,
    limits: &Limits,
) -> Result<BoundedMining<PipelineStats>, WorkerPanic> {
    mine_core(problem, seq, opts, Some(limits))
}

fn mine_core(
    problem: &DiscoveryProblem,
    seq: &EventSequence,
    opts: &PipelineOptions,
    limits: Option<&Limits>,
) -> Result<BoundedMining<PipelineStats>, WorkerPanic> {
    let _span = span("pipeline");
    let mut stats = PipelineStats {
        events_total: seq.len(),
        ..PipelineStats::default()
    };
    let result = match mine_inner(problem, seq, opts, limits, &mut stats) {
        Ok(found) => Ok(found),
        Err(Halt::Interrupted(i)) => Ok((Vec::new(), i.into())),
        Err(Halt::Panicked(wp)) => Err(wp),
    }
    .map(|(solutions, verdict)| BoundedMining {
        solutions,
        stats,
        verdict,
    });
    if tgm_obs::enabled() {
        match &result {
            Ok(run) => {
                let stats = &run.stats;
                metrics::counter_add("mining.pipeline.runs", 1);
                metrics::counter_add("mining.pipeline.tag_runs", stats.tag_runs as u64);
                metrics::counter_add(
                    "mining.pipeline.screening_tag_runs",
                    stats.screening_tag_runs as u64,
                );
                metrics::counter_add("mining.pipeline.solutions", stats.solutions as u64);
                if let Some(i) = run.verdict.interrupt() {
                    count_interrupt(i);
                }
            }
            Err(_) => metrics::counter_add("limits.worker_panics", 1),
        }
    }
    result
}

/// Tuples banned by chain screening, grouped by the chain they bind.
type BannedTuples = Vec<(Vec<VarId>, BTreeSet<Vec<EventType>>)>;

/// The span and failpoint site of the step-5 scan's workers.
const STEP5_SITE: &str = "pipeline.step5.worker";
/// The span and failpoint site of induced chain screening's workers.
const CHAIN_SITE: &str = "pipeline.step4.chain_worker";

/// What every step reads: the problem, the options and the run's limits.
struct Ctx<'a> {
    problem: &'a DiscoveryProblem,
    opts: &'a PipelineOptions,
    /// The caller's limits with a cancel token attached. Only step 5
    /// reads the budget; its unit is step-5 candidates scanned.
    limits: Option<&'a Limits>,
    /// The same limits without the budget, for polls and inner engines.
    run_limits: Option<&'a Limits>,
    token: Option<&'a CancelToken>,
    /// Reference occurrences in the input (the frequency denominator).
    denominator: usize,
    /// Worker threads a support count may use: what the host grants.
    workers: usize,
}

impl Ctx<'_> {
    fn check(&self) -> Result<(), Interrupt> {
        self.run_limits.map_or(Ok(()), Limits::check)
    }

    /// Whether `support` reference occurrences exceed the confidence.
    fn frequent(&self, support: usize) -> bool {
        support as f64 / self.denominator as f64 > self.problem.min_confidence
    }
}

/// The event list after step 2.
struct Reduced {
    events: Vec<Event>,
    /// Per event, a bitmask of the variables it could bind.
    masks: Vec<u64>,
    /// Tick columns re-indexed to `events`.
    cols: TickColumns,
    /// Reference occurrences whose own mask has the root bit.
    refs: Vec<usize>,
}

/// What propagation derives from the root to each variable: a window in
/// seconds and the TCGs an event bound to the variable must satisfy.
struct RootBounds {
    windows: Vec<(i64, i64)>,
    tcgs: Vec<Vec<Tcg>>,
}

impl RootBounds {
    fn new(s: &EventStructure, p: &Propagated) -> Self {
        let (windows, tcgs) = s
            .vars()
            .map(|v| {
                if v == s.root() {
                    return ((0, 0), Vec::new());
                }
                let window = match p.seconds_window(s.root(), v) {
                    Some(r) => (r.lo.max(0), if r.hi >= INF { i64::MAX / 2 } else { r.hi }),
                    None => (0, i64::MAX / 2),
                };
                (window, p.derived_tcgs(s.root(), v))
            })
            .unzip();
        RootBounds { windows, tcgs }
    }

    fn max_window(&self) -> i64 {
        self.windows.iter().map(|&(_, hi)| hi).max().unwrap_or(0)
    }

    /// The events of `red` that could bind `v` for a reference at `t0`:
    /// inside `v`'s window, eligible for `v`, and satisfying every derived
    /// root→`v` TCG.
    fn bindable<'a>(
        &'a self,
        red: &'a Reduced,
        v: VarId,
        t0: i64,
    ) -> impl Iterator<Item = &'a Event> + 'a {
        let (lo, hi) = self.windows[v.index()];
        let (wlo, whi) = (t0.saturating_add(lo), t0.saturating_add(hi));
        let start = red.events.partition_point(|e| e.time < wlo);
        let bit = 1u64 << v.index();
        red.events[start..]
            .iter()
            .zip(&red.masks[start..])
            .take_while(move |(e, _)| e.time <= whi)
            .filter(move |&(e, &m)| {
                m & bit != 0 && self.tcgs[v.index()].iter().all(|c| c.satisfied(t0, e.time))
            })
            .map(|(e, _)| e)
    }
}

/// `∏ |candidates(X)|`, saturating: a wide structure over many occurring
/// types can exceed `u64`.
fn assignment_count(candidates: &[Vec<EventType>]) -> u64 {
    candidates
        .iter()
        .map(|c| c.len() as u64)
        .fold(1, u64::saturating_mul)
}

/// The pipeline behind [`mine_with`] / [`mine_bounded`], one call per §5
/// step. Spans around each step fire from inside; run-level counters are
/// emitted by the wrapper so early returns are covered too.
fn mine_inner(
    problem: &DiscoveryProblem,
    seq: &EventSequence,
    opts: &PipelineOptions,
    limits: Option<&Limits>,
    stats: &mut PipelineStats,
) -> Result<(Vec<Solution>, Verdict), Halt> {
    let s = &problem.structure;
    assert!(
        s.len() <= MAX_VARIABLES,
        "pipeline supports at most {MAX_VARIABLES} variables"
    );
    // A worker panic must be able to cancel its siblings even when the
    // caller supplied no token, so attach one up front.
    let mut eff = limits.cloned();
    let token = eff.as_mut().map(Limits::cancel_token);
    let run_limits = eff.as_ref().map(|l| l.clone().without_budget());
    let ctx = Ctx {
        problem,
        opts,
        limits: eff.as_ref(),
        run_limits: run_limits.as_ref(),
        token: token.as_ref(),
        denominator: problem.reference_count(seq),
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    stats.refs_total = ctx.denominator;
    if ctx.denominator == 0 {
        return Ok((Vec::new(), Verdict::Completed));
    }

    let p = consistency(&ctx)?;
    if !p.is_consistent() {
        stats.refuted = true;
        return Ok((Vec::new(), Verdict::Completed));
    }

    let occurring = seq.types_present();
    let mut candidates: Vec<Vec<EventType>> = s
        .vars()
        .map(|v| {
            if v == s.root() {
                vec![problem.reference_type]
            } else {
                problem.candidates.resolve(v, &occurring)
            }
        })
        .collect();
    stats.candidates_initial = assignment_count(&candidates);

    let red = reduce_sequence(&ctx, seq, &candidates)?;
    stats.events_kept = red.events.len();

    let bounds = RootBounds::new(s, &p);
    let kept_refs = screen_references(&ctx, &red, &bounds, &mut candidates)?;
    stats.refs_kept = kept_refs.len();
    stats.candidates_after_var_screen = assignment_count(&candidates);
    if candidates.iter().any(Vec::is_empty) || kept_refs.is_empty() {
        return Ok((Vec::new(), Verdict::Completed));
    }

    let input = ScanInput {
        events: &red.events,
        refs: &kept_refs,
        window: bounds.max_window(),
        cols: &red.cols,
    };
    // Automaton shapes are memoized per structure: chain screening builds
    // each induced substructure's automaton once (per-tuple candidates are
    // symbol relabellings) and step 5 builds the main structure's once.
    let mut templates = TemplateCache::default();
    let banned_tuples = chain_screening(&ctx, &p, &input, &candidates, &mut templates, stats)?;
    let (solutions, verdict) = final_scan(
        &ctx,
        &input,
        &candidates,
        &banned_tuples,
        &mut templates,
        stats,
    )?;
    stats.solutions = solutions.len();
    Ok((solutions, verdict))
}

/// Step 1: the sound propagation of §3.2, which refutes an inconsistent
/// structure and derives the windows and TCGs steps 3–5 use.
fn consistency(ctx: &Ctx<'_>) -> Result<Propagated, Interrupt> {
    let _s = span("pipeline.step1.consistency");
    let s = &ctx.problem.structure;
    match ctx.run_limits {
        Some(l) => propagate_bounded(s, l),
        None => Ok(propagate(s)),
    }
}

/// Step 2: sequence reduction. Drops the events that cannot bind any
/// variable: wrong type for every candidate set, or not covered by a
/// gapped granularity that constrains every variable they could bind.
fn reduce_sequence(
    ctx: &Ctx<'_>,
    seq: &EventSequence,
    candidates: &[Vec<EventType>],
) -> Result<Reduced, Interrupt> {
    let (problem, s) = (ctx.problem, &ctx.problem.structure);
    // Resolve every event's tick in every structure granularity once, in
    // parallel; steps 2-5 and the final anchored scans read these columns
    // instead of repeating calendar arithmetic per event per run.
    let full_cols = TickColumns::build(seq.events(), &s.granularities());

    // Per-variable column indices of the gapped granularities that must
    // cover a bound event. Invariant: the columns were built over exactly
    // `s.granularities()`.
    #[allow(clippy::expect_used)]
    let var_gapped_cols: Vec<Vec<usize>> = s
        .vars()
        .map(|v| {
            let mut cols: Vec<usize> = Vec::new();
            for (a, b, cs) in s.arcs() {
                if a != v && b != v {
                    continue;
                }
                for c in cs.iter().filter(|c| c.gran().has_gaps()) {
                    let col = full_cols
                        .index_of(c.gran())
                        .expect("structure gran has a column");
                    if !cols.contains(&col) {
                        cols.push(col);
                    }
                }
            }
            cols
        })
        .collect();

    // Eligibility bitmask per event: which variables it could bind.
    let eligible = |row: usize, e: &Event| -> u64 {
        let mut mask = 0u64;
        for v in s.vars() {
            let type_ok = if v == s.root() {
                e.ty == problem.reference_type
            } else {
                candidates[v.index()].contains(&e.ty)
            };
            if !type_ok {
                continue;
            }
            if var_gapped_cols[v.index()]
                .iter()
                .all(|&c| full_cols.tick(c, row).is_some())
            {
                mask |= 1 << v.index();
            }
        }
        mask
    };

    let mut events = Vec::new();
    let mut masks = Vec::new();
    let mut rows = Vec::new();
    {
        let _s = span("pipeline.step2.sequence_reduction");
        for (row, e) in seq.events().iter().enumerate() {
            if row & 1023 == 0 {
                ctx.check()?;
            }
            let m = eligible(row, e);
            if m != 0 {
                events.push(*e);
                masks.push(m);
                rows.push(row);
            }
        }
    }
    // A reference event whose own mask lacks the root bit can never match;
    // it stays in the denominator but is not scanned.
    let root_bit = 1u64 << s.root().index();
    let refs = (0..events.len())
        .filter(|&i| events[i].ty == problem.reference_type && masks[i] & root_bit != 0)
        .collect();
    Ok(Reduced {
        events,
        masks,
        // Columns re-indexed to the reduced event list (no re-resolution).
        cols: full_cols.select(&rows),
        refs,
    })
}

/// Steps 3 and 4 (`k = 1`) in one pass over the references. Step 3 keeps a
/// reference only if every variable's derived window holds a bindable
/// event. Step 4 keeps a variable's candidate type only if it is bindable
/// from more than the confidence share of *all* references. Returns the
/// kept references.
fn screen_references(
    ctx: &Ctx<'_>,
    red: &Reduced,
    bounds: &RootBounds,
    candidates: &mut [Vec<EventType>],
) -> Result<Vec<usize>, Interrupt> {
    let _s = span("pipeline.step3_4.screening");
    let s = &ctx.problem.structure;
    let mut kept_refs: Vec<usize> = Vec::new();
    let mut var_type_support: BTreeMap<(VarId, EventType), usize> = BTreeMap::new();
    for &ridx in &red.refs {
        ctx.check()?;
        let t0 = red.events[ridx].time;
        let mut ok = true;
        let mut seen_types: BTreeSet<(VarId, EventType)> = BTreeSet::new();
        for v in s.vars().filter(|&v| v != s.root()) {
            let mut any = false;
            for e in bounds.bindable(red, v, t0) {
                any = true;
                seen_types.insert((v, e.ty));
            }
            ok &= any;
        }
        if ok {
            kept_refs.push(ridx);
        }
        for key in seen_types {
            *var_type_support.entry(key).or_insert(0) += 1;
        }
    }
    for v in s.vars().filter(|&v| v != s.root()) {
        candidates[v.index()]
            .retain(|&ty| ctx.frequent(var_type_support.get(&(v, ty)).copied().unwrap_or(0)));
    }
    Ok(kept_refs)
}

/// Step 4 (`k ≥ 2`, the paper's full form): induced discovery problems on
/// root-anchored sub-chains, solved with anchored TAGs over the induced
/// approximated sub-structure. A tuple whose frequency cannot exceed the
/// threshold bans every candidate complex type containing it; tuples
/// banned at smaller `k` are never reconsidered at larger `k`.
fn chain_screening(
    ctx: &Ctx<'_>,
    p: &Propagated,
    input: &ScanInput<'_>,
    candidates: &[Vec<EventType>],
    templates: &mut TemplateCache,
    stats: &mut PipelineStats,
) -> Result<BannedTuples, Halt> {
    let mut banned_tuples = BannedTuples::new();
    if ctx.opts.chain_screening_k < 2 {
        return Ok(banned_tuples);
    }
    let _s = span("pipeline.step4.chain_screening");
    let (problem, s) = (ctx.problem, &ctx.problem.structure);
    // Enumerate root-to-sink paths, then in-order sub-sequences of
    // non-root variables of each length k.
    let paths = root_paths(s);
    let mut done_chains: BTreeSet<Vec<VarId>> = BTreeSet::new();
    for k in 2..=ctx.opts.chain_screening_k.min(s.len().saturating_sub(1)) {
        for path in &paths {
            let tail: Vec<VarId> = path.iter().copied().filter(|&v| v != s.root()).collect();
            for combo in in_order_subsets(&tail, k) {
                if !done_chains.insert(combo.clone()) {
                    continue;
                }
                // Candidate tuples = product of surviving per-variable
                // candidates, minus tuples containing a banned sub-tuple
                // from an earlier round.
                let mut tuples: Vec<Vec<EventType>> = Vec::new();
                let mut tuple = vec![problem.reference_type; combo.len()];
                enumerate_tuples(candidates, &combo, 0, &mut tuple, &mut |tpl| {
                    if !tuple_contains_banned(&combo, tpl, &banned_tuples) {
                        tuples.push(tpl.to_vec());
                    }
                });
                // One automaton shape per substructure; each tuple is an
                // `Exact`-symbol relabelling of it, φ in `kept_vars` order
                // (every non-root kept variable comes from `combo`).
                let (sub, kept_vars) = tgm_core::substructure::induced_substructure(s, p, &combo);
                let template = templates.get(&sub);
                let tags: Vec<Tag> = tuples
                    .iter()
                    .map(|tpl| {
                        let phi: Vec<EventType> = kept_vars
                            .iter()
                            .map(|v| match combo.iter().position(|c| c == v) {
                                Some(i) => tpl[i],
                                None => problem.reference_type,
                            })
                            .collect();
                        template.instantiate(&phi)
                    })
                    .collect();
                let counted = count_supports(
                    CHAIN_SITE,
                    &tags,
                    input,
                    ctx.workers,
                    ctx.run_limits,
                    ctx.token,
                )?;
                stats.screening_tag_runs += counted.tag_runs;
                if let Some(i) = counted.interrupt {
                    return Err(i.into());
                }
                let banned: BTreeSet<Vec<EventType>> = tuples
                    .into_iter()
                    .zip(counted.support)
                    .filter(|&(_, support)| !ctx.frequent(support))
                    .map(|(tpl, _)| tpl)
                    .collect();
                stats.banned_tuples += banned.len();
                if !banned.is_empty() {
                    banned_tuples.push((combo, banned));
                }
            }
        }
    }
    Ok(banned_tuples)
}

/// Step 5: the final anchored TAG scan over every surviving assignment, all
/// candidates advancing together in [`count_supports`]. With budget `B`,
/// exactly the first `B` assignments in enumeration order are scanned,
/// whatever the worker count; a candidate whose count an interrupt cut
/// short yields no solution.
fn final_scan(
    ctx: &Ctx<'_>,
    input: &ScanInput<'_>,
    candidates: &[Vec<EventType>],
    banned_tuples: &BannedTuples,
    templates: &mut TemplateCache,
    stats: &mut PipelineStats,
) -> Result<(Vec<Solution>, Verdict), WorkerPanic> {
    let _s5 = span("pipeline.step5.scan");
    let (problem, s) = (ctx.problem, &ctx.problem.structure);
    // The root's candidate list is the reference type alone.
    let vars: Vec<VarId> = s.vars().collect();
    let mut assignments: Vec<Vec<EventType>> = Vec::new();
    let mut cur = vec![problem.reference_type; s.len()];
    enumerate_tuples(candidates, &vars, 0, &mut cur, &mut |phi| {
        if problem.assignment_admissible(phi)
            && banned_tuples.iter().all(|(chain, banned)| {
                let tpl: Vec<EventType> = chain.iter().map(|v| phi[v.index()]).collect();
                !banned.contains(&tpl)
            })
        {
            assignments.push(phi.to_vec());
        }
    });
    stats.candidates_scanned = assignments.len() as u64;

    let mut verdict = Verdict::Completed;
    let mut allowed = assignments.len();
    if let Some(l) = ctx.limits {
        for idx in 0..assignments.len() {
            if let Err(i) = l.check_with_used(idx as u64 + 1) {
                verdict = i.into();
                allowed = idx;
                break;
            }
        }
    }
    let template = templates.get(s);
    let tags: Vec<Tag> = assignments[..allowed]
        .iter()
        .map(|phi| template.instantiate(phi))
        .collect();
    let counted = count_supports(
        STEP5_SITE,
        &tags,
        input,
        ctx.workers,
        ctx.run_limits,
        ctx.token,
    )?;
    stats.tag_runs = counted.tag_runs;
    stats.step5_workers = counted.workers;
    if let Some(i) = counted.interrupt {
        verdict = i.into();
    }
    let mut solutions: Vec<Solution> = assignments
        .into_iter()
        .zip(counted.support)
        .zip(counted.counted)
        .filter(|&((_, support), counted)| counted && ctx.frequent(support))
        .map(|((assignment, support), _)| Solution {
            assignment,
            frequency: support as f64 / ctx.denominator as f64,
            support,
        })
        .collect();
    solutions.sort_by(|a, b| a.assignment.cmp(&b.assignment));
    Ok((solutions, verdict))
}

/// All root-to-sink variable paths of the structure.
fn root_paths(s: &EventStructure) -> Vec<Vec<VarId>> {
    let mut out = Vec::new();
    let mut stack = vec![s.root()];
    fn dfs(s: &EventStructure, stack: &mut Vec<VarId>, out: &mut Vec<Vec<VarId>>) {
        // Invariant: the stack always holds at least the root.
        #[allow(clippy::expect_used)]
        let v = *stack.last().expect("non-empty");
        let children = s.children(v);
        if children.is_empty() {
            out.push(stack.clone());
            return;
        }
        for c in children {
            stack.push(c);
            dfs(s, stack, out);
            stack.pop();
        }
    }
    dfs(s, &mut stack, &mut out);
    out
}

/// In-order subsets of `items` of exactly `k` elements.
fn in_order_subsets(items: &[VarId], k: usize) -> Vec<Vec<VarId>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    fn rec(
        items: &[VarId],
        k: usize,
        start: usize,
        cur: &mut Vec<VarId>,
        out: &mut Vec<Vec<VarId>>,
    ) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..items.len() {
            cur.push(items[i]);
            rec(items, k, i + 1, cur, out);
            cur.pop();
        }
    }
    rec(items, k, 0, &mut cur, &mut out);
    out
}

/// Enumerates candidate type tuples for the given variables.
fn enumerate_tuples(
    candidates: &[Vec<EventType>],
    vars: &[VarId],
    depth: usize,
    tuple: &mut Vec<EventType>,
    f: &mut impl FnMut(&[EventType]),
) {
    if depth == vars.len() {
        return f(tuple);
    }
    for &ty in &candidates[vars[depth].index()] {
        tuple[depth] = ty;
        enumerate_tuples(candidates, vars, depth + 1, tuple, f);
    }
}

/// Whether the tuple (over `vars`) contains a previously banned sub-tuple.
fn tuple_contains_banned(
    vars: &[VarId],
    tuple: &[EventType],
    banned: &[(Vec<VarId>, BTreeSet<Vec<EventType>>)],
) -> bool {
    for (bvars, set) in banned {
        // The banned chain must be a subset of `vars` (in-order).
        let mut projected = Vec::with_capacity(bvars.len());
        let mut ok = true;
        for bv in bvars {
            match vars.iter().position(|v| v == bv) {
                Some(i) => projected.push(tuple[i]),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && set.contains(&projected) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use tgm_core::{StructureBuilder, Tcg};
    use tgm_events::{Event, TypeRegistry};
    use tgm_granularity::Calendar;

    use super::*;
    use crate::naive;

    const DAY: i64 = 86_400;

    /// Builds a workload where A is the reference and B follows the next
    /// day with frequency 3/4; C is noise.
    fn world() -> (TypeRegistry, EventSequence, DiscoveryProblem) {
        let mut reg = TypeRegistry::new();
        let a = reg.intern("A");
        let b = reg.intern("B");
        let c = reg.intern("C");
        let mut events = Vec::new();
        // Mondays of 4 consecutive weeks (days 2, 9, 16, 23).
        for (i, d) in [2i64, 9, 16, 23].iter().enumerate() {
            events.push(Event::new(a, d * DAY + 10_000));
            if i != 3 {
                events.push(Event::new(b, (d + 1) * DAY + 5_000));
            }
            events.push(Event::new(c, d * DAY + 20_000));
        }
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
    fn pipeline_matches_naive() {
        let (_reg, seq, p) = world();
        let (naive_sols, _) = naive::mine(&p, &seq);
        let (pipe_sols, stats) = mine(&p, &seq);
        assert_eq!(naive_sols, pipe_sols);
        assert_eq!(stats.solutions, 1);
        assert!(stats.candidates_after_var_screen <= stats.candidates_initial);
    }

    #[test]
    fn all_ablations_agree() {
        let (_reg, seq, p) = world();
        let (reference, _) = naive::mine(&p, &seq);
        for chain_screening_k in [0, 2, 3] {
            let opts = PipelineOptions { chain_screening_k };
            let (sols, _) = mine_with(&p, &seq, &opts);
            assert_eq!(
                sols, reference,
                "chain screening k = {chain_screening_k} changed results"
            );
        }
    }

    #[test]
    fn candidate_screening_prunes_noise_type() {
        let (_reg, seq, p) = world();
        let (_, stats) = mine(&p, &seq);
        // 3 occurring types initially; B survives screening, C and A are
        // pruned for X1 (they never appear exactly one day after A...
        // A does not, C appears same-day only).
        assert_eq!(stats.candidates_initial, 3);
        assert_eq!(stats.candidates_after_var_screen, 1);
    }

    #[test]
    fn inconsistent_structure_short_circuits() {
        let mut reg = TypeRegistry::new();
        let a = reg.intern("A");
        let cal = Calendar::standard();
        let mut sb = StructureBuilder::new();
        let x0 = sb.var("X0");
        let x1 = sb.var("X1");
        sb.constrain(x0, x1, Tcg::new(0, 0, cal.get("day").unwrap()));
        sb.constrain(x0, x1, Tcg::new(26, 30, cal.get("hour").unwrap()));
        let s = sb.build().unwrap();
        let p = DiscoveryProblem::new(s, 0.1, a);
        let seq = EventSequence::from_events(vec![Event::new(a, 0)]);
        let (sols, stats) = mine(&p, &seq);
        assert!(sols.is_empty());
        assert!(stats.refuted);
        assert_eq!(stats.tag_runs, 0);
    }

    /// Steps 2 and 3 each drop something the other keeps: step 2 drops
    /// the weekend events (no business-day tick), step 3 the weekday
    /// reference with no follow-up on the next business day.
    #[test]
    fn business_day_structure_drops_weekend_events() {
        let mut reg = TypeRegistry::new();
        let a = reg.intern("A");
        let b = reg.intern("B");
        let c = reg.intern("C");
        let cal = Calendar::standard();
        let mut sb = StructureBuilder::new();
        let x0 = sb.var("X0");
        let x1 = sb.var("X1");
        sb.constrain(x0, x1, Tcg::new(1, 1, cal.get("business-day").unwrap()));
        let s = sb.build().unwrap();
        let p = DiscoveryProblem::new(s, 0.3, a);
        // A on Friday day 6 with B on Monday day 9 (the next business
        // day); A on Saturday day 7 and C on Sunday day 8; A on Tuesday
        // day 10 with nothing on Wednesday.
        let seq = EventSequence::from_events(vec![
            Event::new(a, 6 * DAY + 100),
            Event::new(a, 7 * DAY + 100),
            Event::new(c, 8 * DAY + 100),
            Event::new(b, 9 * DAY + 100),
            Event::new(a, 10 * DAY + 100),
        ]);
        let (sols, stats) = mine(&p, &seq);
        // Denominator 3 (every A), support 1 (the Friday A) => 1/3 > 0.3.
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].assignment, vec![a, b]);
        assert_eq!(sols[0].support, 1);
        assert!((sols[0].frequency - 1.0 / 3.0).abs() < 1e-9);
        let funnel: Vec<(u64, u64)> = stats.funnel().iter().map(|f| (f.input, f.output)).collect();
        assert_eq!(
            funnel,
            [
                (1, 1), // step 1: consistent
                (5, 3), // step 2: the Saturday A and the Sunday C dropped
                (3, 1), // step 3: the Saturday A (step 2) and the Tuesday A
                (3, 1), // step 4: A, B, C for X1 -> B
                (1, 1), // step 5: one assignment, one solution
            ]
        );
        assert_eq!(stats.tag_runs, 1);
    }

    /// A 21-variable chain over 10 occurring types has 10^20 candidate
    /// assignments, more than `u64` holds: the funnel saturates instead of
    /// overflowing. The types lie 400 days apart, so steps 3–4 prune
    /// everything before any automaton is built.
    #[test]
    fn candidate_count_saturates_on_wide_structures() {
        let cal = Calendar::standard();
        let mut sb = StructureBuilder::new();
        let vars: Vec<_> = (0..21).map(|i| sb.var(format!("X{i}"))).collect();
        for w in vars.windows(2) {
            sb.constrain(w[0], w[1], Tcg::new(1, 2, cal.get("day").unwrap()));
        }
        let s = sb.build().unwrap();
        let seq = EventSequence::from_events(
            (0..10u32)
                .map(|k| Event::new(EventType(k), 400 * DAY * i64::from(k)))
                .collect(),
        );
        let (sols, stats) = mine(&DiscoveryProblem::new(s, 0.5, EventType(0)), &seq);
        assert_eq!(stats.candidates_initial, u64::MAX);
        assert!(sols.is_empty());
        assert_eq!(stats.tag_runs, 0);
    }
}
