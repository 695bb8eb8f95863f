//! Differential tests for mining observability: enabling the process-wide
//! obs switch (or routing emission through a scope) must not change
//! solutions or stats, for the naive miner and for the pipeline.

use parking_lot::Mutex;
use tgm_core::{StructureBuilder, Tcg};
use tgm_events::{Event, EventSequence, TypeRegistry};
use tgm_granularity::Calendar;
use tgm_mining::naive;
use tgm_mining::pipeline::{self, PipelineOptions, PipelineStats};
use tgm_mining::{DiscoveryProblem, Solution};

/// Serializes tests that toggle the process-wide obs flag.
static TEST_LOCK: Mutex<()> = Mutex::new(());

const DAY: i64 = 86_400;

/// A 3-variable chain workload: A on Mondays, B next day (3 of 4 weeks),
/// C two days after A (2 of 4 weeks), plus same-day noise.
fn world() -> (EventSequence, DiscoveryProblem) {
    let mut reg = TypeRegistry::new();
    let a = reg.intern("A");
    let b = reg.intern("B");
    let c = reg.intern("C");
    let mut events = Vec::new();
    for (i, d) in [2i64, 9, 16, 23].iter().enumerate() {
        events.push(Event::new(a, d * DAY + 10_000));
        if i != 3 {
            events.push(Event::new(b, (d + 1) * DAY + 5_000));
        }
        if i < 2 {
            events.push(Event::new(c, (d + 2) * DAY + 7_000));
        }
        events.push(Event::new(c, d * DAY + 20_000));
    }
    let seq = EventSequence::from_events(events);
    let cal = Calendar::standard();
    let mut sb = StructureBuilder::new();
    let x0 = sb.var("X0");
    let x1 = sb.var("X1");
    let x2 = sb.var("X2");
    sb.constrain(x0, x1, Tcg::new(1, 1, cal.get("day").unwrap()));
    sb.constrain(x1, x2, Tcg::new(0, 1, cal.get("day").unwrap()));
    let s = sb.build().unwrap();
    (seq, DiscoveryProblem::new(s, 0.4, a))
}

fn run() -> (Vec<Solution>, PipelineStats) {
    let (seq, p) = world();
    pipeline::mine_with(&p, &seq, &PipelineOptions::default())
}

#[test]
fn pipeline_results_identical_with_obs_on_and_off() {
    let _guard = TEST_LOCK.lock();
    tgm_obs::set_enabled(false);
    let baseline = run();

    tgm_obs::set_enabled(true);
    tgm_obs::reset();
    let observed = run();
    let metrics = tgm_obs::metrics::snapshot();
    let spans = tgm_obs::span::snapshot();
    tgm_obs::set_enabled(false);

    assert_eq!(baseline, observed, "observability changed a mining result");
    // Instrumentation really fired: run counters, the §5 per-step spans,
    // and the shared-scan counters flowing up from the anchored runs.
    assert_eq!(metrics.counter("mining.pipeline.runs"), 1);
    assert!(metrics.counter("mining.pipeline.tag_runs") > 0);
    assert!(metrics.counter("tag.multi.runs") > 0);
    assert!(metrics.counter("tag.multi.candidates") > 0);
    for name in [
        "pipeline",
        "pipeline.step1.consistency",
        "pipeline.step2.sequence_reduction",
        "pipeline.step3_4.screening",
        "pipeline.step5.scan",
    ] {
        assert!(spans.get(name).is_some(), "missing span {name}");
    }
    tgm_obs::reset();
}

/// A pipeline run inside a recorder-equipped scoped metric domain (with an
/// exporter pulling a frame) produces bit-identical solutions and stats;
/// step-5 workers inherit the scope, so nothing leaks into the default
/// registry.
#[test]
fn scoped_pipeline_results_identical_and_contained() {
    let _guard = TEST_LOCK.lock();
    tgm_obs::set_enabled(false);
    let baseline = run();

    tgm_obs::set_enabled(true);
    tgm_obs::reset();
    let scope = tgm_obs::ObsScope::with_recorder(128);
    let mut exporter = tgm_obs::Exporter::new(scope.clone());
    let (observed, frame) = {
        let _in = scope.enter();
        let out = run();
        (out, exporter.frame())
    };
    let default_metrics = tgm_obs::metrics::snapshot();
    let default_spans = tgm_obs::span::snapshot();
    tgm_obs::set_enabled(false);

    assert_eq!(baseline, observed, "scoped observability changed a result");
    // The scope saw the whole funnel — including counters emitted from
    // step-5 workers, which enter the caller's scope at spawn.
    assert_eq!(frame.delta.metrics.counter("mining.pipeline.runs"), 1);
    assert!(frame.delta.metrics.counter("mining.pipeline.tag_runs") > 0);
    assert!(frame.delta.metrics.counter("tag.multi.runs") > 0);
    assert!(frame.delta.spans.get("pipeline").is_some());
    assert!(
        frame.delta.spans.get("pipeline.step5.worker").is_some(),
        "worker spans did not land in the scope"
    );
    // …and none of it escaped to the default registry.
    assert_eq!(default_metrics.counter("mining.pipeline.runs"), 0);
    assert_eq!(default_metrics.counter("tag.multi.runs"), 0);
    assert!(default_spans.get("pipeline").is_none());
    tgm_obs::reset();
}

#[test]
fn naive_results_identical_with_obs_on_and_off() {
    let _guard = TEST_LOCK.lock();
    let (seq, p) = world();

    tgm_obs::set_enabled(false);
    let baseline = naive::mine(&p, &seq);

    tgm_obs::set_enabled(true);
    tgm_obs::reset();
    let observed = naive::mine(&p, &seq);
    let metrics = tgm_obs::metrics::snapshot();
    let spans = tgm_obs::span::snapshot();
    tgm_obs::set_enabled(false);

    assert_eq!(baseline, observed);
    assert_eq!(metrics.counter("mining.naive.runs"), 1);
    assert!(spans.get("mining.naive").is_some());
    assert!(metrics.counter("mining.naive.tag_runs") > 0);
    tgm_obs::reset();
}
