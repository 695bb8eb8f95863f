//! Shared-scan support counting for the §5 miner: run *all* candidate TAGs
//! of a discovery problem together over each reference occurrence with one
//! [`MultiMatcher`] pass, instead of one full scan per (candidate,
//! reference) pair. [`count_supports`] is the pipeline's only support
//! counter: step 5 and step 4's induced chain screening both call it.
//!
//! Also home to the [`TemplateCache`]: candidate automata of one
//! discovery problem differ only in their `Exact` symbol payloads, so the
//! cross-product construction is done once per *structure* (keyed by a
//! structural fingerprint) and instantiated per assignment by symbol
//! relabelling — step 3-4 chain screening and step 5 stop rebuilding
//! identical automata for symmetric candidates.

use std::collections::HashMap;

use tgm_core::EventStructure;
use tgm_events::{Event, TickColumns};
use tgm_limits::{fail, CancelToken, Interrupt, Limits, WorkerPanic};
use tgm_obs::span::span_if;
use tgm_obs::ObsOptions;
use tgm_tag::{MatchOptions, MatcherScratch, MultiMatcher, RunCtx, Tag, TagTemplate};

use crate::bounded::contain;

/// Memoized [`TagTemplate`]s keyed by a structural fingerprint of the
/// event structure (arcs with bounds and granularity identity). Within one
/// discovery problem the main structure and each induced screening
/// substructure is constructed once; every candidate assignment is then a
/// clone-and-relabel.
#[derive(Default)]
pub(crate) struct TemplateCache {
    by_key: HashMap<String, TagTemplate>,
}

/// A deterministic structural fingerprint: variable count plus every arc's
/// endpoints, TCG bounds, and granularity instance identity (granularities
/// compare by instance so cached automata share tick streams).
fn structure_key(s: &EventStructure) -> String {
    use std::fmt::Write as _;
    let mut k = String::new();
    let _ = write!(k, "n{};r{};", s.len(), s.root().index());
    for (a, b, tcgs) in s.arcs() {
        let _ = write!(k, "{}>{}:", a.index(), b.index());
        for c in tcgs {
            let _ = write!(k, "[{},{},{}]", c.lo(), c.hi(), c.gran().instance_id());
        }
        k.push(';');
    }
    k
}

impl TemplateCache {
    /// The template for `s`, building it on first use.
    pub(crate) fn get(&mut self, s: &EventStructure) -> &TagTemplate {
        self.by_key
            .entry(structure_key(s))
            .or_insert_with(|| TagTemplate::new(s))
    }
}

/// The miner's matcher configuration (anchored, lazy updates, saturating)
/// applied to a whole candidate set.
fn anchored_multi<'t>(tags: &'t [Tag], obs: ObsOptions) -> MultiMatcher<'t> {
    MultiMatcher::with_options(
        tags.iter().collect(),
        MatchOptions::builder()
            .anchored(true)
            .strict_updates(false)
            .saturate(true)
            .obs(obs)
            .build(),
    )
}

/// What every anchored run reads: the (reduced) event list, the reference
/// occurrences to anchor at, an optional scan window in seconds past each
/// reference, and tick columns built over exactly `events`.
pub(crate) struct ScanInput<'a> {
    pub(crate) events: &'a [Event],
    pub(crate) refs: &'a [usize],
    pub(crate) window: Option<i64>,
    pub(crate) cols: &'a TickColumns,
}

/// Counts, for every candidate in `mm`, the distinct reference occurrences
/// in `refs` from which its TAG accepts — one multi pass per reference.
/// Accumulates into `supports` (length ≥ `mm.len()`); `tag_runs` counts
/// *logical* anchored runs (`mm.len()` per reference), so funnel stats
/// match a per-candidate engine. `limits` (deadline/cancel; any budget
/// already stripped) is polled between references and per event inside
/// each pass.
fn multi_count_support(
    mm: &MultiMatcher<'_>,
    input: &ScanInput<'_>,
    refs: &[usize],
    scratch: &mut MatcherScratch,
    tag_runs: &mut usize,
    limits: Option<&Limits>,
    supports: &mut [usize],
) -> Result<(), Interrupt> {
    let events = input.events;
    for &idx in refs {
        if let Some(l) = limits {
            l.check()?;
        }
        let slice = match input.window {
            Some(w) => {
                let t0 = events[idx].time;
                let end = events.partition_point(|e| e.time <= t0.saturating_add(w));
                &events[idx..end]
            }
            None => &events[idx..],
        };
        *tag_runs += mm.len();
        let mut ctx = RunCtx {
            scratch: &mut *scratch,
            cols: Some((input.cols, idx)),
            limits,
        };
        let run = mm.run_in(slice, true, &mut ctx);
        if let Some(i) = run.verdict.interrupt() {
            return Err(i);
        }
        for (c, s) in run.stats.iter().enumerate() {
            if s.accepted {
                supports[c] += 1;
            }
        }
    }
    Ok(())
}

/// The fewest anchored runs worth a worker of their own: below this a
/// thread costs more to start than the runs it would take over.
const MIN_UNIT_RUNS: usize = 64;

/// Splits `n_cands × n_refs` anchored runs into at most `max_workers`
/// units of at least [`MIN_UNIT_RUNS`] runs each, as (candidate chunks,
/// reference chunks). References split first, since a unit holding every
/// candidate keeps the whole shared scan; candidates split only the
/// workers left over once every reference has a chunk of its own.
fn split(n_cands: usize, n_refs: usize, max_workers: usize) -> (usize, usize) {
    let units = (n_cands.saturating_mul(n_refs) / MIN_UNIT_RUNS).clamp(1, max_workers.max(1));
    let ref_chunks = units.min(n_refs).max(1);
    ((units / ref_chunks).min(n_cands).max(1), ref_chunks)
}

/// Per-candidate supports from one [`count_supports`] call.
pub(crate) struct Supports {
    /// Accepting reference occurrences per candidate.
    pub(crate) support: Vec<usize>,
    /// Whether every unit counting the candidate completed; a candidate
    /// whose count was cut short must not yield a solution.
    pub(crate) counted: Vec<bool>,
    /// Logical anchored runs performed, interrupted units included.
    pub(crate) tag_runs: usize,
    /// Threads the units ran on, the caller's included (0 = nothing to
    /// scan).
    pub(crate) workers: usize,
    /// The first interrupt a unit hit, in unit order.
    pub(crate) interrupt: Option<Interrupt>,
}

/// Counts every candidate's support over `input`. The (candidates ×
/// references) runs are split into (candidate-chunk × reference-chunk)
/// units, one per worker, at most `max_workers`; the first unit runs on
/// the caller's thread. Each reference occurrence is an independent
/// anchored run, so the per-candidate sums are identical in any split.
///
/// Every unit runs under [`contain`], the `site` failpoint and a `site`
/// span. `limits` (deadline/cancel, budget stripped) is polled inside
/// every unit. A panic cancels `token`, so sibling units stop at their
/// next poll, and comes back as the error; the first panic wins over any
/// interrupt, since siblings' cancellations are its side effect.
pub(crate) fn count_supports(
    site: &'static str,
    tags: &[Tag],
    input: &ScanInput<'_>,
    max_workers: usize,
    obs: ObsOptions,
    limits: Option<&Limits>,
    token: Option<&CancelToken>,
) -> Result<Supports, WorkerPanic> {
    let mut out = Supports {
        support: vec![0; tags.len()],
        counted: vec![true; tags.len()],
        tag_runs: 0,
        workers: 0,
        interrupt: None,
    };
    if tags.is_empty() || input.refs.is_empty() {
        return Ok(out);
    }
    let (cand_chunks, ref_chunks) = split(tags.len(), input.refs.len(), max_workers);
    let cand_len = tags.len().div_ceil(cand_chunks);
    let ref_len = input.refs.len().div_ceil(ref_chunks);
    // (first candidate, candidate chunk, reference chunk) per unit.
    let units: Vec<(usize, &[Tag], &[usize])> = tags
        .chunks(cand_len)
        .enumerate()
        .flat_map(|(ci, chunk)| {
            input
                .refs
                .chunks(ref_len)
                .map(move |refs| (ci * cand_len, chunk, refs))
        })
        .collect();
    out.workers = units.len();

    type UnitResult = Result<(Vec<usize>, usize, Option<Interrupt>), WorkerPanic>;
    let run_unit = |&(_, chunk, refs): &(usize, &[Tag], &[usize])| -> UnitResult {
        contain(site, token, || {
            fail::point(site, limits);
            let _s = span_if(obs.spans, site);
            let mm = anchored_multi(chunk, obs);
            let mut local = vec![0; chunk.len()];
            let mut runs = 0;
            let r = multi_count_support(
                &mm,
                input,
                refs,
                &mut MatcherScratch::new(),
                &mut runs,
                limits,
                &mut local,
            );
            (local, runs, r.err())
        })
    };
    let worker_panic = |payload: &(dyn std::any::Any + Send)| {
        if let Some(t) = token {
            t.cancel();
        }
        WorkerPanic {
            site,
            message: tgm_limits::panic_message(payload),
        }
    };
    // Spawned workers start with an empty scope stack: hand them the
    // caller's scoped metric domain so their emissions (and any
    // contained-panic flush) land where the caller's would.
    let worker_scope = tgm_obs::scope::current();
    let results: Vec<UnitResult> = crossbeam::scope(|scope| {
        let run_unit = &run_unit;
        let handles: Vec<_> = units[1..]
            .iter()
            .map(|unit| {
                let worker_scope = worker_scope.clone();
                scope.spawn(move |_| {
                    let _obs_scope = worker_scope.enter();
                    run_unit(unit)
                })
            })
            .collect();
        let mut results = vec![run_unit(&units[0])];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| Err(worker_panic(p.as_ref())))),
        );
        results
    })
    .unwrap_or_else(|p| vec![Err(worker_panic(p.as_ref()))]);

    let mut first_panic: Option<WorkerPanic> = None;
    for (&(first, chunk, _), r) in units.iter().zip(results) {
        let range = first..first + chunk.len();
        match r {
            Ok((local, runs, interrupt)) => {
                out.tag_runs += runs;
                if let Some(i) = interrupt {
                    out.counted[range].fill(false);
                    out.interrupt.get_or_insert(i);
                } else {
                    for (acc, s) in out.support[range].iter_mut().zip(local) {
                        *acc += s;
                    }
                }
            }
            Err(wp) => {
                first_panic.get_or_insert(wp);
            }
        }
    }
    match first_panic {
        Some(wp) => Err(wp),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use tgm_core::{StructureBuilder, Tcg};
    use tgm_events::EventType;
    use tgm_granularity::Calendar;

    use super::*;
    use crate::naive::count_support;

    /// Every split, on every worker count, reproduces a per-candidate
    /// `count_support` loop: identical supports and anchored-run counts,
    /// never more workers than allowed.
    #[test]
    fn count_supports_matches_per_candidate_loop_in_every_split() {
        let cal = Calendar::standard();
        let mut sb = StructureBuilder::new();
        let x0 = sb.var("X0");
        let x1 = sb.var("X1");
        let x2 = sb.var("X2");
        sb.constrain(x0, x1, Tcg::new(0, 1, cal.get("day").unwrap()));
        sb.constrain(x1, x2, Tcg::new(1, 2, cal.get("hour").unwrap()));
        let s = sb.build().unwrap();
        let template = TagTemplate::new(&s);
        // 36 distinct candidates (0, a, b) over a 6-type alphabet, four
        // times over, so a single reference holds enough runs to split.
        let tags: Vec<Tag> = (0..144u32)
            .map(|k| {
                let k = k % 36;
                template.instantiate(&[EventType(0), EventType(k / 6), EventType(k % 6)])
            })
            .collect();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut t = 2 * 86_400i64;
        let events: Vec<Event> = (0..2_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                t += 300 + (state >> 33) as i64 % 4_000;
                Event::new(EventType((state >> 7) as u32 % 6), t)
            })
            .collect();
        let cols = TickColumns::build(&events, &s.granularities());
        let all_refs: Vec<usize> = (0..events.len())
            .filter(|&i| events[i].ty == EventType(0))
            .collect();
        assert!(all_refs.len() > 200);
        let mut spawned = false;
        for n_cands in [1, 7, 36, 144] {
            for n_refs in [1, 3, 64, 200] {
                let input = ScanInput {
                    events: &events,
                    refs: &all_refs[..n_refs],
                    window: Some(2 * 86_400),
                    cols: &cols,
                };
                let tags = &tags[..n_cands];
                let mut oracle_runs = 0;
                let oracle: Vec<usize> = tags
                    .iter()
                    .map(|tag| {
                        count_support(
                            tag,
                            &events,
                            input.refs,
                            input.window,
                            Some(input.cols),
                            &mut MatcherScratch::new(),
                            &mut oracle_runs,
                            ObsOptions::default(),
                            None,
                        )
                        .unwrap()
                    })
                    .collect();
                for max_workers in [1, 2, 3, 5, 8] {
                    let got = count_supports(
                        "test.worker",
                        tags,
                        &input,
                        max_workers,
                        ObsOptions::default(),
                        None,
                        None,
                    )
                    .unwrap();
                    let case = format!("{n_cands} candidates x {n_refs} refs on {max_workers}");
                    assert_eq!(got.support, oracle, "{case}");
                    assert_eq!(got.tag_runs, oracle_runs, "{case}");
                    assert!(got.counted.iter().all(|&c| c), "{case}");
                    assert!(got.interrupt.is_none(), "{case}");
                    assert!((1..=max_workers).contains(&got.workers), "{case}");
                    spawned |= got.workers > 1;
                }
            }
        }
        assert!(spawned, "no case split across workers");
    }

    #[test]
    fn split_respects_worker_cap_and_unit_floor() {
        assert_eq!(split(1, 10, 8), (1, 1), "too little work to share");
        assert_eq!(split(867, 40, 2), (1, 2), "references split first");
        assert_eq!(
            split(500, 3, 8),
            (2, 3),
            "leftover workers split candidates"
        );
        assert_eq!(split(0, 0, 0), (1, 1));
    }
}
