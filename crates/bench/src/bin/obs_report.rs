//! Unified observability report and the one owner of the observability
//! overhead budget. Runs an instrumented Example 1 matcher scan and an
//! instrumented discovery-pipeline run, measures the observability
//! layer's overhead with [`tgm_bench::interleaved_overhead`] (results
//! asserted identical), and emits the [`tgm_obs::Report`] both ways — the
//! human-readable span/funnel tree on stdout and machine-readable JSON in
//! `OBS_report.json`.
//!
//! Run with `cargo run --release -p tgm-bench --bin obs_report [-- --test]`.
//! `--test` additionally enforces the overhead budget (default 3%,
//! override with `OBS_OVERHEAD_BUDGET_PCT`) on three modes — the plain
//! enabled path and the scoped path (obs on + a scope entered) of the
//! Example 1 scan, and the session-scope mode (a scoped metric domain
//! attached to an evicting streaming session, section
//! `obs.session_scope`) — and validates the emitted JSON against the
//! `tgm_obs_report/v1` schema (parsed back with the workspace's own
//! `minijson`), exiting nonzero on any violation.
//!
//! `--validate-stream <file>` is a standalone mode: it checks that every
//! JSON line in `file` is a well-formed `tgm_obs_stream/v1` frame
//! (schema tag, strictly increasing `seq`, numeric gauges including
//! `watermark_lag`, object-shaped counters/histograms/spans) and exits
//! nonzero on any violation — the CI `obs-stream-smoke` job runs it over
//! captured `tgm stream --stats-every` output.

use tgm_bench::workloads::{
    daily_stock_workload, grouped_chain_cet, lcg_events, planted_stock_workload,
};
use tgm_bench::{interleaved_overhead, median_ms, obs_overhead_budget_pct, timed, Overhead};
use tgm_core::examples::example_1;
use tgm_core::VarId;
use tgm_events::{minijson, TypeRegistry};
use tgm_granularity::Calendar;
use tgm_limits::{CancelToken, Limits};
use tgm_mining::pipeline::{mine_bounded, mine_with, PipelineOptions};
use tgm_mining::DiscoveryProblem;
use tgm_obs::{ObsScope, ObsValue, Observable, Report};
use tgm_tag::{build_tag, MatchSession, Matcher, MatcherScratch, RunCtx};

/// The §5 funnel steps the report must carry, in order.
const FUNNEL_STEPS: [&str; 5] = [
    "step1.consistency",
    "step2.sequence_reduction",
    "step3.reference_pruning",
    "step4.candidate_reduction",
    "step5.final_scan",
];

/// Events the session-scope mode replays.
const SESSION_EVENTS: usize = 120_000;
/// Events between two frames of the exporting mode.
const EXPORT_EVERY: u64 = 1024;

/// The session-scope mode's estimates, reported as section
/// `obs.session_scope`.
struct SessionScope {
    scoped: Overhead,
    exporting: Overhead,
    recorder_write_ns: f64,
}

impl Observable for SessionScope {
    fn observe(&self, out: &mut Vec<(&'static str, ObsValue)>) {
        let ns = 1e6 / SESSION_EVENTS as f64; // ms -> ns/event
        out.push(("events", SESSION_EVENTS.into()));
        out.push(("export_every", EXPORT_EVERY.into()));
        out.push(("off_ns_per_event", (self.scoped.base_ms * ns).into()));
        out.push(("scoped_ns_per_event", (self.scoped.mode_ms * ns).into()));
        out.push(("exporting_ns_per_event", (self.exporting.mode_ms * ns).into()));
        out.push(("scoped_overhead_pct", self.scoped.pct.into()));
        out.push(("exporting_overhead_pct", self.exporting.pct.into()));
        out.push(("recorder_write_ns", self.recorder_write_ns.into()));
    }
}

/// Live telemetry on the streaming session: an evicting `MatchSession` on
/// the grouped business-week/business-month chain replays a seeded
/// 120 000-event stream in three interleaved modes — obs disabled, a
/// scoped metric domain attached (counters and spans routed to the
/// scope), and the scope plus an `Exporter` rendering an NDJSON frame
/// every 1024 events — then times the flight-recorder ring write.
fn measure_session_scope(rounds: usize) -> SessionScope {
    let cal = Calendar::standard();
    let (_, types) = example_1(&cal, &mut TypeRegistry::new());
    let chain = build_tag(&grouped_chain_cet(&cal, &types));
    let stream = lcg_events(0x9e37_79b9_7f4a_7c15, SESSION_EVENTS, 1, 1_700, 4);
    let scope = ObsScope::with_recorder(256);
    let modes = interleaved_overhead(3, rounds, 5, |mode| {
        tgm_obs::set_enabled(mode > 0);
        let mut session = MatchSession::new(&chain).with_eviction();
        if mode > 0 {
            session = session.with_scope(scope.clone()).with_stats_every(EXPORT_EVERY);
        }
        let mut exporter = (mode == 2).then(|| tgm_obs::Exporter::new(scope.clone()));
        let mut sink = 0usize;
        let ms = timed(|| {
            for chunk in stream.chunks(EXPORT_EVERY as usize) {
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
        })
        .1;
        std::hint::black_box(sink);
        ms
    });
    // Recorder ring write cost: reserve-slot + seal on the hot path.
    tgm_obs::set_enabled(true);
    let writes = 200_000u64;
    let recorder_ms = median_ms(7, || {
        let _in = scope.enter();
        for i in 0..writes {
            tgm_obs::recorder::record(tgm_obs::RecEvent::Counter {
                name: "bench.ring",
                delta: i,
            });
        }
    });
    tgm_obs::set_enabled(false);
    SessionScope {
        scoped: modes[0],
        exporting: modes[1],
        recorder_write_ns: recorder_ms * 1e6 / writes as f64,
    }
}

/// Validates the emitted JSON against the `tgm_obs_report/v1` shape.
/// Returns the list of violations (empty = valid).
fn validate_schema(json: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let doc = match minijson::parse(json) {
        Ok(v) => v,
        Err(e) => return vec![format!("JSON does not parse: {e}")],
    };
    if doc.get("schema").and_then(|v| v.as_str()) != Some("tgm_obs_report/v1") {
        errs.push("schema field is not \"tgm_obs_report/v1\"".into());
    }

    match doc.get("spans") {
        Some(minijson::Value::Object(spans)) => {
            if !spans.iter().any(|(name, _)| name == "tag.matcher.run") {
                errs.push("spans lack tag.matcher.run".into());
            }
            for (name, s) in spans {
                for field in ["count", "total_ns", "max_ns"] {
                    if s.get(field).and_then(|v| v.as_u64()).is_none() {
                        errs.push(format!("span {name} lacks u64 {field}"));
                    }
                }
            }
        }
        _ => errs.push("spans is not an object".into()),
    }

    match doc.get("counters") {
        Some(minijson::Value::Object(counters)) => {
            for required in [
                "tag.matcher.runs",
                "tag.multi.runs",
                "tag.multi.candidates",
                "mining.pipeline.runs",
                "limits.budget_hit",
                "limits.deadline_hit",
                "limits.cancelled",
            ] {
                let v = counters
                    .iter()
                    .find(|(k, _)| k == required)
                    .and_then(|(_, v)| v.as_u64());
                if v.unwrap_or(0) == 0 {
                    errs.push(format!("counter {required} missing or zero"));
                }
            }
        }
        _ => errs.push("counters is not an object".into()),
    }

    match doc.get("histograms") {
        Some(minijson::Value::Object(hists)) => {
            for required in [
                "tag.matcher.frontier",
                "tag.matcher.peak_frontier",
                "tag.multi.frontier",
            ] {
                match hists.iter().find(|(k, _)| k == required) {
                    Some((_, h)) => {
                        if h.get("count").and_then(|v| v.as_u64()).unwrap_or(0) == 0 {
                            errs.push(format!("histogram {required} is empty"));
                        }
                        let pairs_ok = h
                            .get("buckets")
                            .and_then(|v| v.as_array())
                            .is_some_and(|buckets| {
                                buckets.iter().all(|b| {
                                    b.as_array().is_some_and(|p| {
                                        p.len() == 2 && p.iter().all(|x| x.as_u64().is_some())
                                    })
                                })
                            });
                        if !pairs_ok {
                            errs.push(format!("histogram {required} buckets are not [lo,count] pairs"));
                        }
                    }
                    None => errs.push(format!("histograms lack {required}")),
                }
            }
        }
        _ => errs.push("histograms is not an object".into()),
    }

    match doc.get("funnel").and_then(|v| v.as_array()) {
        Some(stages) => {
            let steps: Vec<&str> = stages
                .iter()
                .filter_map(|s| s.get("step").and_then(|v| v.as_str()))
                .collect();
            if steps != FUNNEL_STEPS {
                errs.push(format!("funnel steps are {steps:?}, want {FUNNEL_STEPS:?}"));
            }
            for s in stages {
                if s.get("in").and_then(|v| v.as_u64()).is_none()
                    || s.get("out").and_then(|v| v.as_u64()).is_none()
                {
                    errs.push("funnel stage lacks u64 in/out".into());
                }
            }
        }
        None => errs.push("funnel is not an array".into()),
    }

    match doc.get("sections").and_then(|v| v.get("granularity.compile")) {
        Some(compile) => {
            for field in ["compiled", "fallback"] {
                if compile.get(field).and_then(|v| v.as_u64()).is_none() {
                    errs.push(format!("granularity.compile lacks u64 {field}"));
                }
            }
            // The default registry must compile cleanly: the raw
            // implementation is the reference, not a production path.
            if compile.get("fallback").and_then(|v| v.as_u64()) != Some(0) {
                errs.push("granularity.compile.fallback is nonzero".into());
            }
        }
        None => errs.push("sections lack granularity.compile".into()),
    }
    if doc
        .get("sections")
        .and_then(|v| v.get("obs.session_scope"))
        .and_then(|v| v.get("scoped_overhead_pct"))
        .is_none()
    {
        errs.push("sections lack obs.session_scope.scoped_overhead_pct".into());
    }
    if doc
        .get("sections")
        .and_then(|v| v.get("mining.pipeline"))
        .and_then(|v| v.get("solutions"))
        .is_none()
    {
        errs.push("sections lack mining.pipeline.solutions".into());
    }
    errs
}

/// Whether a parsed value is a JSON number (int or float).
fn is_number(v: &minijson::Value) -> bool {
    matches!(v, minijson::Value::Int(_) | minijson::Value::Float(_))
}

/// Validates captured `tgm stream --stats-every` output: every line that
/// looks like JSON must be a well-formed `tgm_obs_stream/v1` frame.
/// Returns the violations (empty = valid, at least one frame seen).
fn validate_stream(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    // Sequence numbers are per exporter; labeled (per-tenant) streams may
    // interleave in one capture, so track one expected seq per label set.
    // A capture may join a stream mid-flight (e.g. a server's drain frames
    // after earlier scrapes went to clients), so the first frame of each
    // label set anchors its sequence; later frames must increment by one.
    let mut next_seqs: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut frames = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue; // the human summary after the frames
        }
        let n = i + 1;
        let doc = match minijson::parse(line) {
            Ok(v) => v,
            Err(e) => {
                errs.push(format!("line {n}: does not parse: {e}"));
                continue;
            }
        };
        frames += 1;
        if doc.get("schema").and_then(|v| v.as_str()) != Some("tgm_obs_stream/v1") {
            errs.push(format!("line {n}: schema is not \"tgm_obs_stream/v1\""));
        }
        let label_key = match doc.get("labels") {
            None => String::new(),
            Some(minijson::Value::Object(labels)) => labels
                .iter()
                .map(|(k, v)| format!("{k}={v:?};"))
                .collect(),
            Some(_) => {
                errs.push(format!("line {n}: labels is not an object"));
                String::new()
            }
        };
        match doc.get("seq").and_then(|v| v.as_u64()) {
            Some(s) => match next_seqs.entry(label_key) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(s + 1);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let next_seq = e.get_mut();
                    if s != *next_seq {
                        errs.push(format!("line {n}: seq {s}, want {next_seq}"));
                    }
                    *next_seq = s + 1;
                }
            },
            None => errs.push(format!("line {n}: missing u64 seq")),
        }
        match doc.get("gauges") {
            Some(minijson::Value::Object(gauges)) => {
                for required in [
                    "frontier",
                    "events_total",
                    "events_per_sec",
                    "evicted_rows_total",
                    "watermark_lag",
                ] {
                    let ok = gauges
                        .iter()
                        .find(|(k, _)| k == required)
                        .is_some_and(|(_, v)| is_number(v));
                    if !ok {
                        errs.push(format!("line {n}: gauge {required} missing or non-numeric"));
                    }
                }
            }
            _ => errs.push(format!("line {n}: gauges is not an object")),
        }
        for section in ["counters", "histograms", "spans"] {
            if !matches!(doc.get(section), Some(minijson::Value::Object(_))) {
                errs.push(format!("line {n}: {section} is not an object"));
            }
        }
        if let Some(minijson::Value::Object(counters)) = doc.get("counters") {
            for (k, v) in counters {
                if v.as_u64().is_none() {
                    errs.push(format!("line {n}: counter {k} is not a u64"));
                }
            }
        }
    }
    if frames == 0 {
        errs.push("no tgm_obs_stream/v1 frames found".into());
    }
    errs
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if let Some(i) = argv.iter().position(|a| a == "--validate-stream") {
        let Some(path) = argv.get(i + 1) else {
            eprintln!("--validate-stream needs a file path");
            std::process::exit(2);
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        let errs = validate_stream(&text);
        for e in &errs {
            eprintln!("stream violation: {e}");
        }
        if !errs.is_empty() {
            std::process::exit(1);
        }
        let frames = text.lines().filter(|l| l.trim_start().starts_with('{')).count();
        eprintln!("validate-stream: {frames} valid tgm_obs_stream/v1 frame(s)");
        return;
    }
    let test_mode = argv.iter().any(|a| a == "--test");
    let mut failures: Vec<String> = Vec::new();

    // Overhead: the Example 1 full scan (the hottest loop) with the obs
    // toggle off vs on, results asserted identical.
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
    // Third interleaved mode: obs on *and* a scoped metric domain entered,
    // so the scope-routing indirection pays the same budget as the toggle.
    let scoped_domain = tgm_obs::ObsScope::new();
    let rounds = if test_mode { 7 } else { 5 };
    let budget = obs_overhead_budget_pct();
    let scan = interleaved_overhead(3, rounds, 15, |mode| {
        tgm_obs::set_enabled(mode > 0);
        let _in = (mode == 2).then(|| scoped_domain.enter());
        timed(|| std::hint::black_box(m.run_in(events, false, &mut ctx).stats)).1
    });
    let (on, scoped) = (scan[0], scan[1]);
    eprintln!(
        "obs overhead on example1 scan ({} events): off {:.3} ms, on {:.3} ms \
         => {:+.2}% (budget {budget}%)",
        events.len(),
        on.base_ms,
        on.mode_ms,
        on.pct
    );
    eprintln!(
        "scoped obs overhead: off {:.3} ms, scoped {:.3} ms => {:+.2}% (budget {budget}%)",
        scoped.base_ms, scoped.mode_ms, scoped.pct
    );
    if test_mode && on.pct > budget {
        failures.push(format!("overhead {:+.2}% exceeds the {budget}% budget", on.pct));
    }
    if test_mode && scoped.pct > budget {
        failures.push(format!(
            "scoped overhead {:+.2}% exceeds the {budget}% budget",
            scoped.pct
        ));
    }

    // Instrumented discovery run: populates the pipeline spans, the §5
    // funnel, and the matcher counters flowing up from the anchored
    // sweeps. Obs is still enabled from the measurement above.
    let w = daily_stock_workload(360, &[], 0.85, 23);
    let problem = DiscoveryProblem::new(w.cet.structure().clone(), 0.6, w.types.ibm_rise)
        .with_candidates(VarId(3), [w.types.ibm_fall]);
    let (solutions, pstats) = mine_with(&problem, &w.sequence, &PipelineOptions::default());

    // One interrupted run per limit class, so the report carries the
    // limits.* counters (graceful-degradation observability).
    let popts = PipelineOptions::default();
    let budgeted = mine_bounded(&problem, &w.sequence, &popts, &Limits::none().with_budget(0))
        .expect("no failpoints armed");
    let expired = mine_bounded(
        &problem,
        &w.sequence,
        &popts,
        &Limits::none().with_deadline(std::time::Instant::now() - std::time::Duration::from_secs(1)),
    )
    .expect("no failpoints armed");
    let token = CancelToken::new();
    token.cancel();
    let cancelled = mine_bounded(&problem, &w.sequence, &popts, &Limits::none().with_cancel(token))
        .expect("no failpoints armed");
    for (name, run) in [
        ("budget", &budgeted),
        ("deadline", &expired),
        ("cancel", &cancelled),
    ] {
        assert!(
            run.verdict.interrupt().is_some(),
            "{name}-limited run must report an interruption"
        );
    }

    let mut report = Report::capture();
    tgm_obs::set_enabled(false);
    report.set_funnel(pstats.funnel());
    report.add_section("tag.matcher.last_scan", &obs_stats);
    report.add_section("mining.pipeline", &pstats);

    let session = measure_session_scope(rounds);
    eprintln!(
        "session-scope obs overhead ({SESSION_EVENTS} events, evicting session): \
         off {:.3} ms, scoped {:.3} ms => {:+.2}% (budget {budget}%); \
         exporting {:.3} ms => {:+.2}%; recorder write {:.1} ns",
        session.scoped.base_ms,
        session.scoped.mode_ms,
        session.scoped.pct,
        session.exporting.mode_ms,
        session.exporting.pct,
        session.recorder_write_ns
    );
    if test_mode && session.scoped.pct > budget {
        failures.push(format!(
            "session-scope mode: scoped session telemetry costs {:+.2}% over the \
             disabled path, above the {budget}% budget",
            session.scoped.pct
        ));
    }
    report.add_section("obs.session_scope", &session);

    print!("{}", report.render());
    println!(
        "\ndiscovery: {} solutions, {} anchored runs across {} workers",
        solutions.len(),
        pstats.tag_runs,
        pstats.step5_workers
    );

    let json = report.to_json();
    std::fs::write("OBS_report.json", &json).expect("write OBS_report.json");
    eprintln!("wrote OBS_report.json ({} bytes)", json.len());

    // Schema validation runs in every mode; only --test turns violations
    // into a nonzero exit.
    let schema_errs = validate_schema(&json);
    for e in &schema_errs {
        eprintln!("schema violation: {e}");
    }
    if test_mode {
        failures.extend(schema_errs);
        // The cheap consistency checks the report itself makes possible.
        if pstats.solutions != solutions.len() {
            failures.push("PipelineStats.solutions disagrees with returned solutions".into());
        }
        if pstats
            .funnel()
            .iter()
            .any(|stage| stage.output > stage.input)
        {
            failures.push("funnel stage grew (output > input)".into());
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("obs_report --test: all checks passed");
    }
}
