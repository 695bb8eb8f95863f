//! E11 — ablations of this implementation's own design choices (DESIGN.md
//! §3): minimal (min-flow) vs greedy chain covers in the TAG construction,
//! and the observability layer's overhead (§3.13). The reference-vs-lane
//! matcher engine ablation and the compiled-vs-raw granularity ablation
//! live in E6 (E10 repeats the latter for mining); E6 (1) also shows the
//! saturated frontier staying flat as the input grows.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tgm_core::{ComplexEventType, StructureBuilder, Tcg, VarId};
use tgm_events::TypeRegistry;
use tgm_granularity::Calendar;
use tgm_mining::pipeline::{mine_with, PipelineOptions};
use tgm_mining::DiscoveryProblem;
use tgm_obs::Report;
use tgm_tag::{
    build_tag, build_tag_with_cover, greedy_chain_cover, minimal_chain_cover, Matcher,
    MatcherScratch, RunCtx,
};

use crate::workloads::{daily_stock_workload, planted_stock_workload};
use crate::{interleaved_overhead, print_table, timed};

/// Runs E11 and prints its tables.
pub fn run() {
    println!("\n## E11 — Implementation ablations");

    // (1) Chain covers: random layered DAGs; min-flow vs greedy cover
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

    // (2) Observability (DESIGN.md §3.13): the instrumentation's overhead
    // on the hottest loop (Example 1 full scan), with results asserted
    // identical — then the §5 pruning funnel captured from one
    // instrumented discovery run, ingested via Observable/Report rather
    // than hand-printed.
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
    // The `obs_report` budget's estimator: median of interleaved
    // min-of-N rounds.
    const OBS_ROUNDS: usize = 5;
    const OBS_REPS: usize = 15;
    let on = interleaved_overhead(2, OBS_ROUNDS, OBS_REPS, |mode| {
        tgm_obs::set_enabled(mode == 1);
        timed(|| std::hint::black_box(m.run_in(events, false, &mut ctx).stats)).1
    })[0];
    tgm_obs::set_enabled(false);
    print_table(
        "Observability: instrumented vs uninstrumented full scan (median of 5 interleaved min-of-15 rounds)",
        &["events", "obs off ms", "obs on ms", "overhead"],
        &[vec![
            events.len().to_string(),
            format!("{:.2}", on.base_ms),
            format!("{:.2}", on.mode_ms),
            format!("{:+.1}%", on.pct),
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
