//! E11 — ablations of this implementation's own design choices (DESIGN.md
//! §3): clock-reading saturation in the matcher, minimal (min-flow) vs
//! greedy chain covers in the TAG construction, the zero-allocation lane
//! matcher engine vs the reference per-`Config` engine, the parallel
//! anchored-sweep split in discovery, and the observability layer's
//! overhead (§3.13). The compiled-vs-raw granularity ablation lives in
//! E6 and E10.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tgm_core::{ComplexEventType, StructureBuilder, Tcg, VarId};
use tgm_events::TypeRegistry;
use tgm_granularity::Calendar;
use tgm_mining::naive::{self, NaiveOptions};
use tgm_mining::pipeline::{mine_with, PipelineOptions};
use tgm_mining::DiscoveryProblem;
use tgm_obs::Report;
use tgm_tag::{
    build_tag, build_tag_with_cover, greedy_chain_cover, minimal_chain_cover, MatchOptions,
    Matcher, MatcherScratch, RunCtx,
};

use crate::workloads::{daily_stock_workload, planted_stock_workload};
use crate::{print_table, timed};

/// Runs E11 and prints its tables.
pub fn run() {
    println!("\n## E11 — Implementation ablations");

    // (1) Saturation: with it the frontier is bounded by the guard
    // constants; without it, configurations differing only in
    // indistinguishable clock readings accumulate.
    let mut rows = Vec::new();
    for days in [30i64, 90, 270] {
        let w = planted_stock_workload(days, &[], (days / 30) as usize, 42);
        let tag = build_tag(&w.cet);
        let events = w.sequence.events();
        let on = Matcher::new(&tag);
        let off = Matcher::with_options(
            &tag,
            MatchOptions::builder().saturate(false).build(),
        );
        let (s_on, ms_on) = timed(|| on.run(events, false));
        let (s_off, ms_off) = timed(|| off.run(events, false));
        assert_eq!(s_on.accepted, s_off.accepted, "saturation is semantics-preserving");
        rows.push(vec![
            events.len().to_string(),
            format!("{ms_on:.1}"),
            s_on.peak_configs.to_string(),
            format!("{ms_off:.1}"),
            s_off.peak_configs.to_string(),
        ]);
    }
    print_table(
        "Clock-reading saturation (Example 1 TAG over stock streams)",
        &["events", "saturated ms", "saturated frontier", "unsaturated ms", "unsaturated frontier"],
        &rows,
    );

    // (2) Chain covers: random layered DAGs; min-flow vs greedy cover
    // sizes and the resulting automaton sizes.
    let cal = Calendar::standard();
    let day = cal.get("day").unwrap();
    let mut rng = StdRng::seed_from_u64(0xC07E);
    let mut rows = Vec::new();
    for (layers, width) in [(2usize, 2usize), (2, 3), (3, 2), (3, 3)] {
        let mut min_chains_total = 0usize;
        let mut greedy_chains_total = 0usize;
        let mut min_states_total = 0usize;
        let mut greedy_states_total = 0usize;
        const TRIALS: usize = 8;
        for _ in 0..TRIALS {
            // Random layered DAG: root -> layer1 -> ... -> layer_k, plus
            // random skip arcs.
            let mut b = StructureBuilder::new();
            let root = b.var("R");
            let mut prev = vec![root];
            for l in 0..layers {
                let cur: Vec<_> = (0..width).map(|i| b.var(format!("L{l}N{i}"))).collect();
                for &c in &cur {
                    // Each node gets 1..=2 random parents from the previous
                    // layer (ensures reachability).
                    let n_parents = rng.gen_range(1..=2.min(prev.len()));
                    let mut parents = prev.clone();
                    for _ in 0..n_parents {
                        let k = rng.gen_range(0..parents.len());
                        let p = parents.swap_remove(k);
                        b.constrain(p, c, Tcg::new(0, 3, day.clone()));
                    }
                }
                prev = cur;
            }
            let s = match b.build() {
                Ok(s) => s,
                Err(_) => continue,
            };
            let minimal = minimal_chain_cover(&s);
            let greedy = greedy_chain_cover(&s);
            min_chains_total += minimal.len();
            greedy_chains_total += greedy.len();
            let mut reg = TypeRegistry::new();
            let phi: Vec<_> = s
                .vars()
                .map(|v| reg.intern(&format!("T{}", v.index())))
                .collect();
            let cet = ComplexEventType::new(s.clone(), phi);
            let t_min =
                build_tag_with_cover(cet.structure(), |v| cet.event_type(v), minimal);
            let t_greedy =
                build_tag_with_cover(cet.structure(), |v| cet.event_type(v), greedy);
            min_states_total += t_min.n_states();
            greedy_states_total += t_greedy.n_states();
        }
        rows.push(vec![
            format!("{layers}x{width}"),
            format!("{:.1}", min_chains_total as f64 / TRIALS as f64),
            format!("{:.1}", greedy_chains_total as f64 / TRIALS as f64),
            format!("{:.1}", min_states_total as f64 / TRIALS as f64),
            format!("{:.1}", greedy_states_total as f64 / TRIALS as f64),
        ]);
    }
    print_table(
        "Chain cover: min-flow vs greedy (random layered DAGs, 8 trials each)",
        &[
            "layers x width",
            "chains (minimal)",
            "chains (greedy)",
            "TAG states (minimal)",
            "TAG states (greedy)",
        ],
        &rows,
    );

    // (3) Matcher engine: the reference per-`Config` engine (heap vector
    // per configuration, HashSet dedup) vs the lane engine (flat
    // pooled rows, generation-stamped in-place dedup). RunStats asserted
    // bit-identical; the engine is what every higher layer (miner, stream
    // matcher) runs on.
    let mut rows = Vec::new();
    let mut scratch = MatcherScratch::new();
    let mut ctx = RunCtx::new(&mut scratch);
    for days in [90i64, 270] {
        let w = planted_stock_workload(days, &[], (days / 30) as usize, 42);
        let tag = build_tag(&w.cet);
        let m = Matcher::new(&tag);
        let events = w.sequence.events();
        let (s_ref, ms_ref) = timed(|| m.run_reference(events, false));
        let _ = m.run_in(events, false, &mut ctx).stats; // warm capacity
        let (s_lane, ms_lane) = timed(|| m.run_in(events, false, &mut ctx).stats);
        assert_eq!(s_ref, s_lane, "engines are bit-identical");
        rows.push(vec![
            events.len().to_string(),
            format!("{ms_ref:.1}"),
            format!("{ms_lane:.1}"),
            s_lane.peak_configs.to_string(),
            format!("{:.1}x", ms_ref / ms_lane.max(0.001)),
        ]);
    }
    print_table(
        "Matcher engine: reference per-Config vs lane engine (Example 1 TAG)",
        &["events", "reference ms", "lane ms", "peak frontier", "engine speedup"],
        &rows,
    );

    // (4) Parallel anchored sweep: naive discovery with the anchored
    // support sweep split across workers (one scratch per worker) vs a
    // single serial sweep, next to the pipeline. Solutions and tag-run
    // counts asserted identical — support is a sum of independent
    // per-reference boolean runs, so chunking cannot change it.
    let mut rows = Vec::new();
    for days in [360i64, 720] {
        let w = daily_stock_workload(days, &[], 0.85, 23);
        let problem =
            DiscoveryProblem::new(w.cet.structure().clone(), 0.6, w.types.ibm_rise)
                .with_candidates(VarId(3), [w.types.ibm_fall]);
        let ((n_serial, n_serial_stats), n_serial_ms) =
            timed(|| naive::mine(&problem, &w.sequence));
        let ((n_sweep, n_sweep_stats), n_sweep_ms) = timed(|| {
            naive::mine_with(
                &problem,
                &w.sequence,
                &NaiveOptions {
                    parallel_sweep: true,
                    ..Default::default()
                },
            )
        });
        let ((p_sols, _), p_ms) =
            timed(|| mine_with(&problem, &w.sequence, &PipelineOptions::default()));
        assert_eq!(n_serial, n_sweep, "naive sweep changed solutions");
        assert_eq!(n_serial_stats.tag_runs, n_sweep_stats.tag_runs);
        assert_eq!(n_serial, p_sols, "pipeline diverged from naive");
        rows.push(vec![
            days.to_string(),
            w.sequence.len().to_string(),
            format!("{n_serial_ms:.0}"),
            format!("{n_sweep_ms:.0}"),
            format!("{p_ms:.0}"),
            format!("{:.1}x", n_serial_ms / n_sweep_ms.max(0.001)),
        ]);
    }
    print_table(
        "Parallel anchored sweep: serial vs sweep-split support counting",
        &[
            "days",
            "events",
            "naive ms (serial sweep)",
            "naive ms (parallel sweep)",
            "pipeline ms",
            "naive sweep speedup",
        ],
        &rows,
    );

    // (5) Observability (DESIGN.md §3.13): the instrumentation's overhead
    // on the hottest loop (Example 1 full scan), measured noise-robustly
    // (see below), with results asserted identical —
    // then the §5 pruning funnel captured from one instrumented discovery
    // run, ingested via Observable/Report rather than hand-printed.
    let w = planted_stock_workload(120, &[], 4, 42);
    let tag = build_tag(&w.cet);
    let events = w.sequence.events();
    let m = Matcher::new(&tag);
    let mut scratch = MatcherScratch::new();
    let mut ctx = RunCtx::new(&mut scratch);
    tgm_obs::set_enabled(false);
    let base_stats = m.run_in(events, false, &mut ctx).stats;
    tgm_obs::set_enabled(true);
    tgm_obs::reset();
    let obs_stats = m.run_in(events, false, &mut ctx).stats;
    assert_eq!(base_stats, obs_stats, "observability changed matcher results");
    // Within a round, off/on samples are interleaved (host clock drift
    // hits both modes equally) and each mode takes its min-of-N; across
    // rounds, the median discards rounds where one mode never got a quiet
    // window. Same estimator as the `obs_report` CI gate.
    const OBS_ROUNDS: usize = 5;
    const OBS_REPS: usize = 15;
    let mut estimates: Vec<(f64, f64)> = Vec::with_capacity(OBS_ROUNDS);
    for _ in 0..OBS_ROUNDS {
        let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..OBS_REPS {
            tgm_obs::set_enabled(false);
            let t = timed(|| std::hint::black_box(m.run_in(events, false, &mut ctx).stats)).1;
            off = off.min(t);
            tgm_obs::set_enabled(true);
            let t = timed(|| std::hint::black_box(m.run_in(events, false, &mut ctx).stats)).1;
            on = on.min(t);
        }
        estimates.push((off, on));
    }
    tgm_obs::set_enabled(false);
    estimates.sort_by(|a, b| {
        let pa = (a.1 - a.0) / a.0.max(1e-9);
        let pb = (b.1 - b.0) / b.0.max(1e-9);
        pa.partial_cmp(&pb).expect("finite")
    });
    let (off_ms, on_ms) = estimates[estimates.len() / 2];
    let overhead = (on_ms - off_ms) / off_ms.max(1e-9) * 100.0;
    print_table(
        "Observability: instrumented vs uninstrumented full scan (median of 5 interleaved min-of-15 rounds)",
        &["events", "obs off ms", "obs on ms", "overhead"],
        &[vec![
            events.len().to_string(),
            format!("{off_ms:.2}"),
            format!("{on_ms:.2}"),
            format!("{overhead:+.1}%"),
        ]],
    );

    let w = daily_stock_workload(360, &[], 0.85, 23);
    let problem = DiscoveryProblem::new(w.cet.structure().clone(), 0.6, w.types.ibm_rise)
        .with_candidates(VarId(3), [w.types.ibm_fall]);
    tgm_obs::set_enabled(true);
    tgm_obs::reset();
    let (_, pstats) = mine_with(&problem, &w.sequence, &PipelineOptions::default());
    let mut report = Report::capture();
    tgm_obs::set_enabled(false);
    report.set_funnel(pstats.funnel());
    report.add_section("mining.pipeline", &pstats);
    let rows: Vec<Vec<String>> = report
        .funnel()
        .iter()
        .map(|stage| {
            vec![
                stage.step.clone(),
                stage.input.to_string(),
                stage.output.to_string(),
                format!("{:.1}%", stage.pruned_frac() * 100.0),
                stage.detail.clone(),
            ]
        })
        .collect();
    print_table(
        "§5 pruning funnel (instrumented discovery, 360-day stock stream)",
        &["step", "in", "out", "pruned", "detail"],
        &rows,
    );
    tgm_obs::reset();
}
