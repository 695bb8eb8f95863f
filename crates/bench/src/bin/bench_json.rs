//! Machine-readable benchmark record: measures the matcher engines and the
//! miner at fixed seeds and writes `BENCH_matcher.json` (median wall time,
//! ns/event for matching, ms for mining) so CI and PR descriptions can
//! quote — and scripts can diff — the engine/sweep speedups without
//! scraping criterion output.
//!
//! Run with `cargo run --release -p tgm-bench --bin bench_json [-- --quick]
//! [-- --test]`. `--quick` lowers the repetition count for CI smoke runs;
//! `--test` turns the shared-scan acceptance gates (multi-TAG per-candidate
//! cost amortization, step-5 scan regression vs the recorded baseline) into
//! a nonzero exit.
//!
//! Every measurement pair also *asserts* result equality (bit-identical
//! `RunStats` across engines, identical miner solutions across execution
//! strategies), so the recorded speedups are guaranteed to compare equal
//! computations.

use std::fmt::Write as _;

use tgm_bench::workloads::planted_stock_workload;
use tgm_bench::timed;
use tgm_core::{ComplexEventType, StructureBuilder, Tcg, VarId};
use tgm_events::TypeRegistry;
use tgm_events::TickColumns;
use tgm_granularity::{periodic, Calendar, Gran};
use tgm_limits::{CancelToken, Limits, Quotas};
use tgm_mining::naive::{self, NaiveOptions};
use tgm_mining::pipeline::{mine_bounded, mine_with, PipelineOptions};
use tgm_mining::DiscoveryProblem;
use tgm_obs::Report;
use tgm_serve::proto::{ErrorKind, Response};
use tgm_serve::{ServerConfig, ServerCore};
use tgm_events::Event;
use tgm_tag::{
    build_tag, MatchOptions, MatchSession, Matcher, MatcherScratch, MultiMatcher, RunCtx, Tag,
    TagTemplate,
};

/// Resident set size in bytes from `/proc/self/statm` (0 off Linux).
fn resident_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|f| f.parse::<u64>().ok()))
        .map(|pages| pages * 4096)
        .unwrap_or(0)
}

/// Median of the per-repetition milliseconds of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

struct EnginePair {
    events: usize,
    reference_ns_per_event: f64,
    /// The lane engine (recorded under its historical
    /// `packed_ns_per_event` key).
    packed_ns_per_event: f64,
}

impl EnginePair {
    fn speedup(&self) -> f64 {
        self.reference_ns_per_event / self.packed_ns_per_event.max(1e-9)
    }
}

/// Medians for one workload: the reference engine vs the lane engine with
/// a reused scratch on a full (non-early-exit) run, with `RunStats`
/// asserted equal.
fn measure_engines(tag: &Tag, events: &[tgm_events::Event], reps: usize) -> EnginePair {
    let m = Matcher::new(tag);
    let mut scratch = MatcherScratch::new();
    let mut ctx = RunCtx::new(&mut scratch);
    assert_eq!(
        m.run_reference(events, false),
        m.run_in(events, false, &mut ctx).stats,
        "engines must produce bit-identical RunStats"
    );
    let reference_ms = median_ms(reps, || {
        std::hint::black_box(m.run_reference(events, false));
    });
    let packed_ms = median_ms(reps, || {
        std::hint::black_box(m.run_in(events, false, &mut ctx).stats);
    });
    let per_event = 1e6 / events.len() as f64; // ms -> ns/event
    EnginePair {
        events: events.len(),
        reference_ns_per_event: reference_ms * per_event,
        packed_ns_per_event: packed_ms * per_event,
    }
}

/// `pipeline.step5.scan` total from the last pre-shared-scan record
/// (90-day seed-7 mining workload, v1 schema): the `--test` gate requires
/// the shared engine to at least halve it.
const STEP5_BASELINE_MS: f64 = 25.076;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let test_mode = std::env::args().any(|a| a == "--test");
    let reps = if quick { 5 } else { 15 };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Workload 1: Example 1 TAG over the planted stock stream (the
    // `tag_matching/example1_full_scan` criterion bench, seed 42).
    let w1 = planted_stock_workload(120, &[], 4, 42);
    let tag1 = build_tag(&w1.cet);
    let example1 = measure_engines(&tag1, w1.sequence.events(), reps);

    // Workload 2: the E6 grouped-granularity chain ([0,1] business-week,
    // [0,1] business-month; seed 44) — the acceptance-criterion workload.
    let cal = Calendar::standard();
    let w2 = planted_stock_workload(90, &[], 0, 44);
    let ty = |reg: &TypeRegistry, name: &str| reg.get(name).expect("stock type present");
    let ibm_rise = ty(&w2.registry, "IBM-rise");
    let ibm_fall = ty(&w2.registry, "IBM-fall");
    let mut sb = StructureBuilder::new();
    let x0 = sb.var("X0");
    let x1 = sb.var("X1");
    let x2 = sb.var("X2");
    sb.constrain(x0, x1, Tcg::new(0, 1, cal.get("business-week").unwrap()));
    sb.constrain(x1, x2, Tcg::new(0, 1, cal.get("business-month").unwrap()));
    let cet2 = ComplexEventType::new(sb.build().unwrap(), vec![ibm_rise, ibm_fall, ibm_rise]);
    let tag2 = build_tag(&cet2);
    let e6_grouped = measure_engines(&tag2, w2.sequence.events(), reps);

    // Workload 3: discovery (the `mining` criterion bench, seed 7): naive
    // vs the pipeline, solutions asserted equal.
    let w3 = planted_stock_workload(90, &[], 9, 7);
    let problem = DiscoveryProblem::new(w3.cet.structure().clone(), 0.6, w3.types.ibm_rise)
        .with_candidates(VarId(3), [w3.types.ibm_fall]);
    let mining_reps = if quick { 3 } else { 7 };
    let pipeline_opts = PipelineOptions::default();
    let (naive_sols, _) = naive::mine(&problem, &w3.sequence);
    let (naive_sweep_sols, _) = naive::mine_with(
        &problem,
        &w3.sequence,
        &NaiveOptions {
            parallel_sweep: true,
            ..Default::default()
        },
    );
    let (pipeline_sols, pipeline_stats) = mine_with(&problem, &w3.sequence, &pipeline_opts);
    assert_eq!(naive_sols, naive_sweep_sols, "naive sweep changed solutions");
    assert_eq!(naive_sols, pipeline_sols, "pipeline diverged from naive");
    let naive_ms = median_ms(mining_reps, || {
        std::hint::black_box(naive::mine(&problem, &w3.sequence));
    });
    let pipeline_ms = median_ms(mining_reps, || {
        std::hint::black_box(mine_with(&problem, &w3.sequence, &pipeline_opts));
    });

    // Workload 4: the streaming session. Replay of workload 1 through
    // chunked `push_batch` (asserted bit-identical to the batch run), then
    // a long synthetic stream with horizon eviction to measure steady-state
    // throughput and memory.
    let m1 = Matcher::new(&tag1);
    let batch1 = m1.run(w1.sequence.events(), false);
    {
        let mut s = MatchSession::new(&tag1);
        s.push_batch(w1.sequence.events());
        assert_eq!(
            s.finalize().stats,
            batch1,
            "session replay must be bit-identical to the batch run"
        );
    }
    let replay_ms = median_ms(reps, || {
        let mut s = MatchSession::new(&tag1);
        for chunk in w1.sequence.events().chunks(256) {
            s.push_batch(chunk);
        }
        std::hint::black_box(s.finalize());
    });
    let session_replay_events_per_sec = w1.sequence.events().len() as f64 / (replay_ms / 1e3);

    let stream_n: usize = if quick { 200_000 } else { 1_000_000 };
    let stream: Vec<Event> = {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut t = 2 * 86_400i64;
        (0..stream_n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                t += 1 + (state >> 33) as i64 % 1700;
                Event::new(tgm_events::EventType((state >> 7) as u32 % 4), t)
            })
            .collect()
    };
    let mut stream_session = MatchSession::new(&tag2).with_eviction();
    let (_, stream_ms) = timed(|| {
        for chunk in stream.chunks(4096) {
            stream_session.push_batch(chunk);
            let _ = stream_session.completed().count();
        }
    });
    let stream_events_per_sec = stream_n as f64 / (stream_ms / 1e3);
    let stream_stats = stream_session.stats();
    let steady_state_rss = resident_bytes();

    // Workload 5: the multi-TAG shared scan. Up to 64 sibling candidates of
    // one 2-variable chain template (φ pairs over an 8-type pool) scanned
    // over a synthetic stream — the shared scan in one pass vs a loop of
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
    let multi_events: Vec<Event> = {
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut t = 2 * 86_400i64;
        (0..multi_n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                t += 600 + (state >> 33) as i64 % 14_000;
                Event::new(tgm_events::EventType((state >> 7) as u32 % 8), t)
            })
            .collect()
    };
    // The miner's saturating configuration keeps both frontiers bounded, so
    // this measures scan cost, not frontier blowup.
    let multi_opts = MatchOptions::builder().saturate(true).build();
    // (candidates, shared ns/event/candidate, per-candidate ns/event/candidate)
    let mut multi_rows: Vec<(usize, f64, f64)> = Vec::new();
    for &n in &[1usize, 8, 32, 64] {
        let tags = &multi_tags[..n];
        let mm = MultiMatcher::with_options(tags.iter().collect(), multi_opts);
        let mut mscratch = MatcherScratch::new();
        let mut mctx = RunCtx::new(&mut mscratch);
        let mut pscratch = MatcherScratch::new();
        let mut pctx = RunCtx::new(&mut pscratch);
        let shared = mm.run_in(&multi_events, false, &mut mctx).stats;
        let solo: Vec<_> = tags
            .iter()
            .map(|t| {
                Matcher::with_options(t, multi_opts)
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
                    Matcher::with_options(t, multi_opts)
                        .run_in(&multi_events, false, &mut pctx).stats,
                );
            }
        });
        let per = 1e6 / (multi_n as f64 * n as f64); // ms -> ns/event/candidate
        multi_rows.push((n, multi_ms * per, percand_ms * per));
    }

    // Workload 6: granularity conversion — the compiled periodic fast path
    // vs the raw interval arithmetic (`periodic::set_enabled(false)`, the
    // reference path) on `convert_tick`, single-thread and under 4-thread
    // contention, plus the TickColumns bulk build. Both modes' results are
    // asserted bit-identical before any timing is recorded.
    let conv_cal = Calendar::standard();
    let conv_src = conv_cal.get("day").unwrap();
    let conv_dst = conv_cal.get("business-month").unwrap();
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
        .map(|n| conv_cal.get(n).unwrap())
        .collect();
    let col_n: usize = if quick { 10_000 } else { 50_000 };
    let col_events: Vec<Event> = {
        let mut state = 0xda3e_39cb_94b9_5bdbu64;
        let mut t = 2 * 86_400i64;
        (0..col_n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                t += 1 + (state >> 33) as i64 % 3_000;
                Event::new(tgm_events::EventType((state >> 7) as u32 % 4), t)
            })
            .collect()
    };
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

    // Workload 8: the serve front end under saturation. Concurrent client
    // threads at several times the admission capacity (tenants x inflight
    // cap) hammer an in-process `ServerCore` with batch match requests.
    // Every response must be well-formed `tgm_serve/v1`: a correct result
    // or a *typed* shed (`Overloaded` with a retry hint) — the `--test`
    // gate fails on any untyped or unexpected outcome.
    let serve_threads: usize = if quick { 64 } else { 256 };
    let serve_reqs_per_thread: usize = if quick { 2 } else { 4 };
    let serve_tenants = 4usize;
    let serve_inflight = 2u32; // capacity = 8 concurrent admissions
    let serve_workers = host_cpus.clamp(2, 8);
    let serve_core = ServerCore::start(ServerConfig {
        workers: serve_workers,
        queue_depth: 64,
        default_quotas: Quotas::unlimited().with_max_inflight(serve_inflight),
        tenant_quotas: Vec::new(),
    });
    let serve_payloads: Vec<String> = (0..serve_tenants)
        .map(|t| {
            format!(
                r#"{{"op":"match","tenant":"tenant-{t}","structure":{{
                  "variables": ["rise", "report", "fall"],
                  "constraints": [
                    {{"from": 0, "to": 1, "lo": 1, "hi": 1, "granularity": "business-day"}},
                    {{"from": 1, "to": 2, "lo": 0, "hi": 1, "granularity": "week"}}
                  ]}},"types":["rise","report","fall"],
                  "events":[{{"ty":"rise","time":208800}},{{"ty":"noise","time":250000}},
                            {{"ty":"report","time":291600}},{{"ty":"fall","time":500000}},
                            {{"ty":"rise","time":813600}}]}}"#
            )
        })
        .collect();
    const SERVE_EVENTS_PER_REQ: f64 = 5.0;
    let serve_barrier = std::sync::Barrier::new(serve_threads + 1);
    // (ok latencies ms, ok, shed, other typed, untyped)
    let (serve_tallies, serve_wall_ms) = {
        let barrier = &serve_barrier;
        let payloads = &serve_payloads;
        let core = &serve_core;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..serve_threads)
                .map(|i| {
                    let client = core.client();
                    scope.spawn(move || {
                        let payload = &payloads[i % payloads.len()];
                        let mut lat = Vec::with_capacity(serve_reqs_per_thread);
                        let (mut ok, mut shed, mut typed, mut untyped) = (0u64, 0, 0, 0);
                        barrier.wait();
                        for _ in 0..serve_reqs_per_thread {
                            let t0 = std::time::Instant::now();
                            let resp = client.request_parsed(payload);
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            match resp {
                                Ok(Response::Ok(_)) => {
                                    ok += 1;
                                    lat.push(ms);
                                }
                                Ok(Response::Err {
                                    kind: ErrorKind::Overloaded,
                                    retry_after_ms,
                                    ..
                                }) => {
                                    shed += 1;
                                    assert!(
                                        retry_after_ms.is_some(),
                                        "sheds must carry a retry hint"
                                    );
                                }
                                Ok(Response::Err { .. }) => typed += 1,
                                Err(_) => untyped += 1,
                            }
                        }
                        (lat, ok, shed, typed, untyped)
                    })
                })
                .collect();
            barrier.wait();
            let t0 = std::time::Instant::now();
            let tallies: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            (tallies, t0.elapsed().as_secs_f64() * 1e3)
        })
    };
    let serve_requests = (serve_threads * serve_reqs_per_thread) as u64;
    let serve_ok: u64 = serve_tallies.iter().map(|t| t.1).sum();
    let serve_shed: u64 = serve_tallies.iter().map(|t| t.2).sum();
    let serve_other_typed: u64 = serve_tallies.iter().map(|t| t.3).sum();
    let serve_untyped: u64 = serve_tallies.iter().map(|t| t.4).sum();
    let mut serve_lat: Vec<f64> = serve_tallies.iter().flat_map(|t| t.0.iter().copied()).collect();
    serve_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let serve_pct = |p: f64| -> f64 {
        if serve_lat.is_empty() {
            return 0.0;
        }
        serve_lat[((serve_lat.len() - 1) as f64 * p) as usize]
    };
    let (serve_p50_ms, serve_p99_ms) = (serve_pct(0.50), serve_pct(0.99));
    let serve_events_per_sec = serve_ok as f64 * SERVE_EVENTS_PER_REQ / (serve_wall_ms / 1e3);
    let serve_server_sheds = serve_core.sheds();
    serve_core.drain();

    // One instrumented pass over the same workloads: span-derived timings
    // recorded alongside the stopwatch medians (results asserted unchanged
    // against the uninstrumented runs above).
    tgm_obs::set_enabled(true);
    tgm_obs::reset();
    let mut scratch = MatcherScratch::new();
    let mut ctx = RunCtx::new(&mut scratch);
    let obs_scan = Matcher::new(&tag1).run_in(w1.sequence.events(), false, &mut ctx).stats;
    let (obs_sols, _) = mine_with(&problem, &w3.sequence, &pipeline_opts);
    // One interrupted run per limit class so the limits.* counters land in
    // the record alongside the throughput numbers.
    let _ = mine_bounded(
        &problem,
        &w3.sequence,
        &pipeline_opts,
        &Limits::none().with_budget(0),
    );
    let _ = mine_bounded(
        &problem,
        &w3.sequence,
        &pipeline_opts,
        &Limits::none()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_secs(1)),
    );
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let _ = mine_bounded(
        &problem,
        &w3.sequence,
        &pipeline_opts,
        &Limits::none().with_cancel(cancelled),
    );
    let obs_report = Report::capture();
    tgm_obs::set_enabled(false);
    tgm_obs::reset();
    assert_eq!(
        obs_scan,
        Matcher::new(&tag1).run_in(w1.sequence.events(), false, &mut ctx).stats,
        "instrumentation changed the scan"
    );
    assert_eq!(obs_sols, pipeline_sols, "instrumentation changed mining solutions");

    // Workload 7: live-telemetry overhead on the streaming session. A prefix
    // of the same LCG stream replayed through `MatchSession` in three
    // interleaved modes — obs disabled, a scoped metric domain attached
    // (counters + spans routed to the scope), and the scope plus an
    // `Exporter` rendering an NDJSON frame every 1024 events. Min-of-reps
    // per round and the median round (by overhead ratio) reject scheduler
    // noise, mirroring obs_report. The flight-recorder ring write is timed
    // separately.
    let obs_events = &stream[..stream_n.min(120_000)];
    let obs_stream_n = obs_events.len();
    let obs_export_every: u64 = 1024;
    let run_obs_stream = |scope: Option<&tgm_obs::ObsScope>, export: bool| -> f64 {
        let mut exporter =
            if export { scope.map(|s| tgm_obs::Exporter::new(s.clone())) } else { None };
        let mut session = MatchSession::new(&tag2).with_eviction();
        if let Some(s) = scope {
            session = session.with_scope(s.clone()).with_stats_every(obs_export_every);
        }
        let mut sink = 0usize;
        let (_, ms) = timed(|| {
            for chunk in obs_events.chunks(obs_export_every as usize) {
                session.push_batch(chunk);
                sink += session.completed().count();
                if session.stats_due() {
                    if let Some(ex) = exporter.as_mut() {
                        let mut frame = ex.frame();
                        frame.set_gauge("frontier", session.frontier_size() as f64);
                        std::hint::black_box(frame.to_ndjson());
                    }
                }
            }
        });
        std::hint::black_box(sink);
        ms
    };
    let obs_scope = tgm_obs::ObsScope::with_recorder(256);
    let obs_rounds = if quick { 3 } else { 5 };
    let obs_reps = if quick { 3 } else { 5 };
    let mut obs_round_est: Vec<(f64, f64, f64)> = Vec::new();
    for _ in 0..obs_rounds {
        let (mut off, mut scoped, mut exporting) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..obs_reps {
            tgm_obs::set_enabled(false);
            off = off.min(run_obs_stream(None, false));
            tgm_obs::set_enabled(true);
            scoped = scoped.min(run_obs_stream(Some(&obs_scope), false));
            exporting = exporting.min(run_obs_stream(Some(&obs_scope), true));
            tgm_obs::set_enabled(false);
        }
        obs_round_est.push((off, scoped, exporting));
    }
    let median_by_overhead = |mut pairs: Vec<(f64, f64)>| -> (f64, f64) {
        pairs.sort_by(|a, b| (a.1 / a.0).partial_cmp(&(b.1 / b.0)).expect("finite"));
        pairs[pairs.len() / 2]
    };
    let (off_ms, scoped_ms) =
        median_by_overhead(obs_round_est.iter().map(|&(o, s, _)| (o, s)).collect());
    let (off_ms_e, exporting_ms) =
        median_by_overhead(obs_round_est.iter().map(|&(o, _, e)| (o, e)).collect());
    let obs_stream_ns = 1e6 / obs_stream_n as f64; // ms -> ns/event
    let scope_only_overhead_pct = (scoped_ms / off_ms.max(1e-9) - 1.0) * 100.0;
    let exporting_overhead_pct = (exporting_ms / off_ms_e.max(1e-9) - 1.0) * 100.0;
    // Recorder ring write cost: reserve-slot + seal on the hot path.
    tgm_obs::set_enabled(true);
    let rec_writes = 200_000u64;
    let recorder_ms = median_ms(if quick { 3 } else { 7 }, || {
        let _in = obs_scope.enter();
        for i in 0..rec_writes {
            tgm_obs::recorder::record(tgm_obs::RecEvent::Counter {
                name: "bench.ring",
                delta: i,
            });
        }
    });
    tgm_obs::set_enabled(false);
    let recorder_write_ns = recorder_ms * 1e6 / rec_writes as f64;

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"bench_matcher/v2\",");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"tag_matching\": {\n");
    for (i, (name, days, seed, pair)) in [
        ("example1_full_scan", 120, 42, &example1),
        ("e6_grouped_granularity", 90, 44, &e6_grouped),
    ]
    .iter()
    .enumerate()
    {
        let _ = writeln!(json, "    \"{name}\": {{");
        let _ = writeln!(json, "      \"days\": {days},");
        let _ = writeln!(json, "      \"seed\": {seed},");
        let _ = writeln!(json, "      \"events\": {},", pair.events);
        let _ = writeln!(
            json,
            "      \"reference_ns_per_event\": {:.1},",
            pair.reference_ns_per_event
        );
        let _ = writeln!(
            json,
            "      \"packed_ns_per_event\": {:.1},",
            pair.packed_ns_per_event
        );
        let _ = writeln!(json, "      \"speedup\": {:.2}", pair.speedup());
        let _ = writeln!(json, "    }}{}", if i == 0 { "," } else { "" });
    }
    json.push_str("  },\n");
    json.push_str("  \"mining\": {\n");
    let _ = writeln!(json, "    \"days\": 90,");
    let _ = writeln!(json, "    \"seed\": 7,");
    let _ = writeln!(json, "    \"naive_ms\": {naive_ms:.2},");
    let _ = writeln!(json, "    \"pipeline_ms\": {pipeline_ms:.2},");
    // Threads the step-5 scan actually ran on (bounded by `host_cpus`).
    let _ = writeln!(json, "    \"step5_workers\": {}", pipeline_stats.step5_workers);
    json.push_str("  },\n");
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
    json.push_str("  \"session\": {\n");
    let _ = writeln!(
        json,
        "    \"replay_events_per_sec\": {session_replay_events_per_sec:.0},"
    );
    let _ = writeln!(json, "    \"stream_events\": {stream_n},");
    let _ = writeln!(json, "    \"stream_events_per_sec\": {stream_events_per_sec:.0},");
    let _ = writeln!(json, "    \"stream_completions\": {},", stream_stats.completions);
    let _ = writeln!(json, "    \"stream_peak_frontier\": {},", stream_stats.peak_frontier);
    let _ = writeln!(json, "    \"stream_evicted_rows\": {},", stream_stats.evicted_rows);
    let _ = writeln!(json, "    \"stream_evictions\": {},", stream_stats.evictions);
    let _ = writeln!(json, "    \"steady_state_rss_bytes\": {steady_state_rss}");
    json.push_str("  },\n");
    json.push_str("  \"serve\": {\n");
    let _ = writeln!(json, "    \"threads\": {serve_threads},");
    let _ = writeln!(json, "    \"requests\": {serve_requests},");
    let _ = writeln!(json, "    \"tenants\": {serve_tenants},");
    let _ = writeln!(json, "    \"max_inflight_per_tenant\": {serve_inflight},");
    let _ = writeln!(json, "    \"workers\": {serve_workers},");
    let _ = writeln!(json, "    \"ok\": {serve_ok},");
    let _ = writeln!(json, "    \"shed\": {serve_shed},");
    let _ = writeln!(json, "    \"other_typed_errors\": {serve_other_typed},");
    let _ = writeln!(json, "    \"untyped_errors\": {serve_untyped},");
    let _ = writeln!(json, "    \"p50_ms\": {serve_p50_ms:.3},");
    let _ = writeln!(json, "    \"p99_ms\": {serve_p99_ms:.3},");
    let _ = writeln!(json, "    \"events_per_sec\": {serve_events_per_sec:.0},");
    let _ = writeln!(json, "    \"server_sheds\": {serve_server_sheds}");
    json.push_str("  },\n");
    json.push_str("  \"obs_stream\": {\n");
    let _ = writeln!(json, "    \"events\": {obs_stream_n},");
    let _ = writeln!(json, "    \"export_every\": {obs_export_every},");
    let _ = writeln!(json, "    \"off_ns_per_event\": {:.1},", off_ms * obs_stream_ns);
    let _ = writeln!(
        json,
        "    \"scope_only_ns_per_event\": {:.1},",
        scoped_ms * obs_stream_ns
    );
    let _ = writeln!(
        json,
        "    \"exporting_ns_per_event\": {:.1},",
        exporting_ms * obs_stream_ns
    );
    let _ = writeln!(
        json,
        "    \"scope_only_overhead_pct\": {scope_only_overhead_pct:.2},"
    );
    let _ = writeln!(
        json,
        "    \"exporting_overhead_pct\": {exporting_overhead_pct:.2},"
    );
    let _ = writeln!(json, "    \"recorder_write_ns\": {recorder_write_ns:.1}");
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
    json.push_str("  },\n");
    json.push_str("  \"limits\": {\n");
    let limit_counters: Vec<(&String, u64)> = obs_report
        .metrics
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("limits."))
        .map(|(name, v)| (name, *v))
        .collect();
    for (i, (name, v)) in limit_counters.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{name}\": {v}{}",
            if i + 1 < limit_counters.len() { "," } else { "" }
        );
    }
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::write("BENCH_matcher.json", &json).expect("write BENCH_matcher.json");
    print!("{json}");
    eprintln!(
        "engine speedup: example1 {:.2}x, e6 grouped {:.2}x (written to BENCH_matcher.json)",
        example1.speedup(),
        e6_grouped.speedup()
    );

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
        // Gate 6: attaching a scoped metric domain to the streaming session
        // stays within the observability overhead budget
        // (`OBS_OVERHEAD_BUDGET_PCT`, default 3%).
        let obs_budget_pct = std::env::var("OBS_OVERHEAD_BUDGET_PCT")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(3.0);
        if scope_only_overhead_pct > obs_budget_pct {
            failures.push(format!(
                "scoped session telemetry costs {scope_only_overhead_pct:.2}% over the \
                 disabled path, above the {obs_budget_pct}% budget"
            ));
        }
        // Gate 7: saturating the serve front end yields only well-formed
        // outcomes — correct results or typed sheds, never an untyped
        // internal error, and at least one request is actually served.
        if serve_untyped > 0 || serve_other_typed > 0 {
            failures.push(format!(
                "serve saturation produced {serve_untyped} untyped and \
                 {serve_other_typed} unexpected typed error(s) across \
                 {serve_requests} requests"
            ));
        }
        if serve_ok == 0 {
            failures.push(format!(
                "serve saturation served none of its {serve_requests} requests"
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
             granularity conversion, scoped-telemetry overhead, serve saturation)"
        );
    }
}
