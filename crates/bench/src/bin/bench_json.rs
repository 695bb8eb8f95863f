//! Machine-readable record of the gates no other harness runs: the
//! multi-TAG shared scan against a loop of one-member lanes, compiled
//! periodic tables against the raw granularities, and the instrumented
//! step-5 scan of one discovery run. Writes `BENCH_matcher.json` (schema
//! `bench_matcher/v3`).
//!
//! Run with `cargo run --release -p tgm-bench --bin bench_json [-- --quick]
//! [-- --test]`. `--quick` lowers the repetition count for CI smoke runs;
//! `--test` turns gates 1–5 into a nonzero exit.
//!
//! Every measurement pair also *asserts* result equality (bit-identical
//! `RunStats` and tick columns across paths, identical miner solutions with
//! and without instrumentation), so each recorded ratio compares equal
//! computations.
//!
//! The other numbers have one harness each: engine ablation in E6 table
//! (1c) of `experiments`; mining and the streaming session in `tgmbench`
//! (`mine`, `stream`) and E10; serve saturation in `tgmbench` `serve` and
//! the `tgm-serve` test `saturation_yields_only_results_or_typed_sheds`;
//! the observability budget and the `limits.*` counters in `obs_report`.

use std::fmt::Write as _;

use tgm_bench::workloads::{lcg_events, planted_stock_workload};
use tgm_bench::median_ms;
use tgm_core::{StructureBuilder, Tcg, VarId};
use tgm_events::TickColumns;
use tgm_granularity::{periodic, Calendar, Gran};
use tgm_mining::pipeline::{mine_with, PipelineOptions};
use tgm_mining::DiscoveryProblem;
use tgm_obs::Report;
use tgm_tag::{Matcher, MatcherScratch, MultiMatcher, RunCtx, Tag, TagTemplate};

/// `pipeline.step5.scan` total from the last pre-shared-scan record
/// (90-day seed-7 mining workload, v1 schema): the `--test` gate requires
/// the shared engine to at least halve it.
const STEP5_BASELINE_MS: f64 = 25.076;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let test_mode = std::env::args().any(|a| a == "--test");
    let reps = if quick { 5 } else { 15 };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cal = Calendar::standard();

    // The multi-TAG shared scan. Up to 64 sibling candidates of one
    // 2-variable chain template (φ pairs over an 8-type pool) scanned over
    // a synthetic stream — the shared scan in one pass vs a loop of
    // one-member lanes (`Matcher::run_in`), `RunStats` asserted
    // bit-identical at every set size.
    let multi_template = {
        let mut sb = StructureBuilder::new();
        let x0 = sb.var("X0");
        let x1 = sb.var("X1");
        sb.constrain(x0, x1, Tcg::new(0, 1, cal.get("day").unwrap()));
        TagTemplate::new(&sb.build().unwrap())
    };
    let multi_tags: Vec<Tag> = (0..64u32)
        .map(|k| {
            multi_template.instantiate(&[tgm_events::EventType(k / 8), tgm_events::EventType(k % 8)])
        })
        .collect();
    let multi_n: usize = if quick { 15_000 } else { 60_000 };
    let multi_events = lcg_events(0x243f_6a88_85a3_08d3, multi_n, 600, 14_000, 8);
    // Saturation keeps both frontiers bounded, so this measures scan cost,
    // not frontier blowup.
    // (candidates, shared ns/event/candidate, per-candidate ns/event/candidate)
    let mut multi_rows: Vec<(usize, f64, f64)> = Vec::new();
    for &n in &[1usize, 8, 32, 64] {
        let tags = &multi_tags[..n];
        let mm = MultiMatcher::new(tags.iter().collect());
        let mut mscratch = MatcherScratch::new();
        let mut mctx = RunCtx::new(&mut mscratch);
        let mut pscratch = MatcherScratch::new();
        let mut pctx = RunCtx::new(&mut pscratch);
        let shared = mm.run_in(&multi_events, false, &mut mctx).stats;
        let solo: Vec<_> = tags
            .iter()
            .map(|t| {
                Matcher::new(t)
                    .run_in(&multi_events, false, &mut pctx)
                    .stats
            })
            .collect();
        assert_eq!(solo, shared, "shared scan diverged at {n} candidates");
        let multi_ms = median_ms(reps, || {
            std::hint::black_box(mm.run_in(&multi_events, false, &mut mctx).stats);
        });
        let percand_ms = median_ms(reps, || {
            for t in tags {
                std::hint::black_box(
                    Matcher::new(t)
                        .run_in(&multi_events, false, &mut pctx)
                        .stats,
                );
            }
        });
        let per = 1e6 / (multi_n as f64 * n as f64); // ms -> ns/event/candidate
        multi_rows.push((n, multi_ms * per, percand_ms * per));
    }

    // Granularity conversion — the compiled periodic fast path vs the raw
    // interval arithmetic (`periodic::set_enabled(false)`, the reference
    // path) on `convert_tick`, single-thread and under 4-thread
    // contention, plus the TickColumns bulk build. Both modes' results are
    // asserted bit-identical before any timing is recorded.
    let conv_src = cal.get("day").unwrap();
    let conv_dst = cal.get("business-month").unwrap();
    let conv_ticks: Vec<i64> = {
        let mut state = 0x853c_49e6_748f_ea9bu64;
        (0..4096)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as i64 % 6_000) - 3_000
            })
            .collect()
    };
    let conv_run = |src: &Gran, dst: &Gran| -> Vec<Option<i64>> {
        conv_ticks.iter().map(|&z| src.convert_tick_to(z, dst)).collect()
    };
    periodic::set_enabled(true);
    assert!(
        conv_src.compiled().is_some() && conv_dst.compiled().is_some(),
        "conversion pair must compile"
    );
    let conv_compiled_res = conv_run(&conv_src, &conv_dst);
    let conv_compiled_ms = median_ms(reps, || {
        std::hint::black_box(conv_run(&conv_src, &conv_dst));
    });
    periodic::set_enabled(false);
    let conv_uncached_res = conv_run(&conv_src, &conv_dst);
    let conv_uncached_ms = median_ms(reps, || {
        std::hint::black_box(conv_run(&conv_src, &conv_dst));
    });
    periodic::set_enabled(true);
    assert_eq!(conv_compiled_res, conv_uncached_res, "compiled vs uncached results differ");
    let conv_ns = 1e6 / conv_ticks.len() as f64; // ms -> ns/op
    // Contended: 4 threads sweep disjoint 18k-tick ranges through the same
    // shared handles — the miner's anchored sweeps in miniature. The
    // compiled path answers lock-free from the shared table.
    let conv_threads = 4usize;
    let conv_span = 18_000i64;
    let conv_contended = |reps: usize| {
        median_ms(reps, || {
            std::thread::scope(|scope| {
                for k in 0..conv_threads as i64 {
                    let (conv_src, conv_dst) = (&conv_src, &conv_dst);
                    scope.spawn(move || {
                        let lo = (k - 2) * conv_span;
                        for z in lo..lo + conv_span {
                            std::hint::black_box(conv_src.convert_tick_to(z, conv_dst));
                        }
                    });
                }
            });
        })
    };
    periodic::set_enabled(true);
    let conv_contended_compiled_ms = conv_contended(reps);
    periodic::set_enabled(false);
    let conv_contended_uncached_ms = conv_contended(reps);
    periodic::set_enabled(true);
    let conv_contended_ns = 1e6 / (conv_span as usize * conv_threads) as f64;
    let conv_contended_speedup = conv_contended_uncached_ms / conv_contended_compiled_ms.max(1e-9);
    // TickColumns bulk build over the same mode split.
    let col_grans: Vec<Gran> = ["day", "business-day", "week", "business-month"]
        .iter()
        .map(|n| cal.get(n).unwrap())
        .collect();
    let col_n: usize = if quick { 10_000 } else { 50_000 };
    let col_events = lcg_events(0xda3e_39cb_94b9_5bdb, col_n, 1, 3_000, 4);
    periodic::set_enabled(true);
    let cols_compiled = TickColumns::build(&col_events, &col_grans);
    let tick_columns_compiled_ms = median_ms(reps, || {
        std::hint::black_box(TickColumns::build(&col_events, &col_grans));
    });
    periodic::set_enabled(false);
    let cols_uncached = TickColumns::build(&col_events, &col_grans);
    let tick_columns_uncached_ms = median_ms(reps, || {
        std::hint::black_box(TickColumns::build(&col_events, &col_grans));
    });
    periodic::set_enabled(true);
    for g in &col_grans {
        assert_eq!(
            cols_compiled.column(g),
            cols_uncached.column(g),
            "TickColumns diverged between modes on {}",
            g.name()
        );
    }

    // Discovery (the `mining` criterion bench, seed 7): one untimed warm-up
    // run, then one instrumented run whose span timings gate 3 reads
    // (solutions asserted unchanged by the instrumentation).
    let w = planted_stock_workload(90, &[], 9, 7);
    let problem = DiscoveryProblem::new(w.cet.structure().clone(), 0.6, w.types.ibm_rise)
        .with_candidates(VarId(3), [w.types.ibm_fall]);
    let pipeline_opts = PipelineOptions::default();
    let (plain_sols, _) = mine_with(&problem, &w.sequence, &pipeline_opts);
    tgm_obs::set_enabled(true);
    tgm_obs::reset();
    let (obs_sols, _) = mine_with(&problem, &w.sequence, &pipeline_opts);
    let obs_report = Report::capture();
    tgm_obs::set_enabled(false);
    tgm_obs::reset();
    assert_eq!(obs_sols, plain_sols, "instrumentation changed mining solutions");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"bench_matcher/v3\",");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"multi_scan\": {\n");
    let _ = writeln!(json, "    \"events\": {multi_n},");
    json.push_str("    \"points\": [\n");
    let n_rows = multi_rows.len();
    for (i, (n, m, p)) in multi_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{ \"candidates\": {n}, \"multi_ns_per_event_per_candidate\": {m:.1}, \
             \"percand_ns_per_event_per_candidate\": {p:.1}, \"speedup\": {:.2} }}{}",
            p / m.max(1e-9),
            if i + 1 < n_rows { "," } else { "" }
        );
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    json.push_str("  \"granularity_conversion\": {\n");
    let _ = writeln!(json, "    \"pair\": \"day -> business-month\",");
    let _ = writeln!(json, "    \"ops\": {},", conv_ticks.len());
    let _ = writeln!(
        json,
        "    \"compiled_ns_per_op\": {:.1},",
        conv_compiled_ms * conv_ns
    );
    let _ = writeln!(
        json,
        "    \"uncached_ns_per_op\": {:.1},",
        conv_uncached_ms * conv_ns
    );
    let _ = writeln!(json, "    \"contended_threads\": {conv_threads},");
    let _ = writeln!(
        json,
        "    \"contended_compiled_ns_per_op\": {:.1},",
        conv_contended_compiled_ms * conv_contended_ns
    );
    let _ = writeln!(
        json,
        "    \"contended_uncached_ns_per_op\": {:.1},",
        conv_contended_uncached_ms * conv_contended_ns
    );
    let _ = writeln!(json, "    \"contended_speedup\": {conv_contended_speedup:.2},");
    let _ = writeln!(json, "    \"tick_columns_events\": {col_n},");
    let _ = writeln!(
        json,
        "    \"tick_columns_compiled_ms\": {tick_columns_compiled_ms:.3},"
    );
    let _ = writeln!(
        json,
        "    \"tick_columns_uncached_ms\": {tick_columns_uncached_ms:.3}"
    );
    json.push_str("  },\n");
    json.push_str("  \"obs_spans\": {\n");
    let n_spans = obs_report.spans.spans.len();
    for (i, (name, s)) in obs_report.spans.spans.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{name}\": {{ \"count\": {}, \"total_ms\": {:.3}, \"mean_ms\": {:.3} }}{}",
            s.count,
            s.total_ms(),
            s.total_ms() / s.count.max(1) as f64,
            if i + 1 < n_spans { "," } else { "" }
        );
    }
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::write("BENCH_matcher.json", &json).expect("write BENCH_matcher.json");
    print!("{json}");

    if test_mode {
        let mut failures: Vec<String> = Vec::new();
        let (_, npc_1, _) = multi_rows[0];
        let &(n_max, npc_max, _) = multi_rows.last().expect("multi rows measured");
        // Gate 1: the shared scan amortizes — per-candidate cost at the
        // largest set is at most half the single-candidate cost.
        if npc_max > 0.5 * npc_1 {
            failures.push(format!(
                "shared scan at {n_max} candidates costs {npc_max:.1} ns/event/candidate, \
                 more than half the single-candidate {npc_1:.1}"
            ));
        }
        // Gate 2: from 32 candidates up, the shared scan beats running the
        // per-candidate engine in a loop.
        for &(n, m, p) in &multi_rows {
            if n >= 32 && m > p {
                failures.push(format!(
                    "shared scan at {n} candidates ({m:.1} ns/event/candidate) is slower \
                     than the per-candidate loop ({p:.1})"
                ));
            }
        }
        // Gate 3: the instrumented step-5 scan at least halves the recorded
        // pre-shared-scan baseline on the same workload and seeds.
        let step5_ms = obs_report
            .spans
            .spans
            .iter()
            .find(|(name, _)| name.as_str() == "pipeline.step5.scan")
            .map(|(_, s)| s.total_ms())
            .unwrap_or(f64::INFINITY);
        if step5_ms > STEP5_BASELINE_MS / 2.0 {
            failures.push(format!(
                "pipeline.step5.scan took {step5_ms:.3} ms, above half the \
                 {STEP5_BASELINE_MS} ms baseline"
            ));
        }
        // Gate 4: under contention the compiled conversion path beats the
        // raw reference path by at least 3x.
        if conv_contended_speedup < 3.0 {
            failures.push(format!(
                "contended compiled conversion is only {conv_contended_speedup:.2}x the \
                 raw reference path (want >= 3x)"
            ));
        }
        // Gate 5: the TickColumns bulk build through compiled tables is no
        // slower than through the raw reference path (10% noise allowance).
        if tick_columns_compiled_ms > tick_columns_uncached_ms * 1.10 {
            failures.push(format!(
                "TickColumns build regressed: compiled {tick_columns_compiled_ms:.3} ms vs \
                 uncached {tick_columns_uncached_ms:.3} ms"
            ));
        }
        for f in &failures {
            eprintln!("bench gate violated: {f}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        eprintln!(
            "bench gates passed (multi-scan amortization, step5 regression, \
             granularity conversion)"
        );
    }
}
