//! `mine`: batch discovery with the §5 pipeline (`pipeline::mine`, default
//! options) on the daily stock workload — Example 1's structure rooted at
//! `IBM-rise`, every other variable free over 17 event types (8 symbols
//! rising or falling, plus IBM's earnings report).

use std::time::{Duration, Instant};

use tgm_bench::workloads::{daily_stock_workload, PlantedWorkload};
use tgm_core::examples::example_1;
use tgm_events::{TickColumns, TypeRegistry};
use tgm_mining::{naive, pipeline, DiscoveryProblem, Solution};
use tgm_tag::build_tag;

use crate::{median_setup, median_us, Outcome};

/// Calendar days of ticker data in the timed instance.
const DAYS: i64 = 1080;
/// Calendar days of the instance checked against the naive miner, which
/// is exponentially slower.
const ORACLE_DAYS: i64 = 60;
/// Symbols besides IBM and HP.
const EXTRA_SYMBOLS: [&str; 6] = ["SUN", "DEC", "MSFT", "ORCL", "AAPL", "CSCO"];
const PLANT_RATE: f64 = 0.85;
const CONFIDENCE: f64 = 0.6;
/// The granularities of Example 1's structure.
const GRANS: [&str; 3] = ["business-day", "week", "hour"];

fn input(days: i64, seed: u64) -> PlantedWorkload {
    daily_stock_workload(days, &EXTRA_SYMBOLS, PLANT_RATE, seed)
}

/// Instances per seed, mined in turn. One instance's draw (how often IBM
/// rises, which types pass screening) moves its call time by up to ±15%;
/// cycling through several keeps one draw from setting the figure.
const INSTANCES: u64 = 4;

/// The timed instances of `seed` and each one's first answer, which
/// every later call must reproduce.
struct Instances {
    inputs: Vec<PlantedWorkload>,
    references: Vec<Vec<Solution>>,
}

impl Instances {
    fn new(seed: u64) -> Instances {
        let mut rng = crate::Rng::new(seed, 2);
        Instances {
            inputs: (0..INSTANCES)
                .map(|_| input(DAYS, rng.next_u64()))
                .collect(),
            references: Vec::new(),
        }
    }

    /// Untimed first call per instance: lazy state settles, and the
    /// answers become the references.
    fn settle(&mut self, problem: &DiscoveryProblem) {
        self.references = self
            .inputs
            .iter()
            .map(|w| pipeline::mine(problem, &w.sequence).0)
            .collect();
    }

    /// Calls `pipeline::mine` on each instance in turn until `run`
    /// elapses; returns per-call ms and the events mined.
    fn timed_loop(
        &self,
        problem: &DiscoveryProblem,
        run: Duration,
        out: &mut Outcome,
    ) -> (Vec<f64>, usize) {
        let mut ms = Vec::new();
        let mut events = 0;
        let end = Instant::now() + run;
        for (w, reference) in self.inputs.iter().zip(&self.references).cycle() {
            if Instant::now() >= end {
                break;
            }
            let t0 = Instant::now();
            let (sols, _) = pipeline::mine(problem, &w.sequence);
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            events += w.sequence.len();
            out.check(&sols == reference, || {
                "mine solutions changed between calls".into()
            });
        }
        (ms, events)
    }
}

/// The program's set-up: calendar (compiled) and the discovery problem.
fn setup(w: &PlantedWorkload) -> DiscoveryProblem {
    let seq = &w.sequence;
    let (cal, _) = crate::warm_calendar(
        &GRANS,
        seq.start().expect("non-empty input"),
        seq.end().expect("non-empty input"),
    );
    let (cet, types) = example_1(&cal, &mut TypeRegistry::new());
    // Interning order makes these ids the input's ids too.
    assert_eq!(w.registry.get("IBM-rise"), Some(types.ibm_rise));
    DiscoveryProblem::new(cet.structure().clone(), CONFIDENCE, types.ibm_rise)
}

/// Pipeline ≡ naive miner on a smaller instance from the same generator
/// and seed (untimed).
fn check_against_naive(seed: u64, out: &mut Outcome) {
    let small = input(ORACLE_DAYS, seed);
    let problem = setup(&small);
    let (fast, _) = pipeline::mine(&problem, &small.sequence);
    let (slow, _) = naive::mine(&problem, &small.sequence);
    out.check(fast == slow, || {
        format!(
            "pipeline found {} solutions, naive {} ({ORACLE_DAYS} days)",
            fast.len(),
            slow.len()
        )
    });
}

pub fn run(seed: u64, run: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut instances = Instances::new(seed);
    let (setup_s, problem) = median_setup(|| setup(&instances.inputs[0]), drop);
    crate::assert_default_switches();
    instances.settle(&problem);
    let (mut ms, events) = instances.timed_loop(&problem, run, &mut out);
    let rss_mb = crate::peak_rss_mb();
    check_against_naive(seed, &mut out);
    let throughput = events as f64 / (ms.iter().sum::<f64>() / 1e3);
    out.notes.push(format!(
        "mine: {INSTANCES} instances of ~{} events, solutions {:?}",
        instances.inputs[0].sequence.len(),
        instances
            .references
            .iter()
            .map(Vec::len)
            .collect::<Vec<_>>()
    ));
    out.end_to_end(setup_s, &mut ms, throughput, rss_mb);
    out
}

/// Median call time untraced, then with `tgm_obs` on; returns the traced
/// run's excess in percent.
pub fn overhead_pct(seed: u64, half: Duration, out: &mut Outcome) -> f64 {
    let mut instances = Instances::new(seed);
    let problem = setup(&instances.inputs[0]);
    crate::assert_default_switches();
    instances.settle(&problem);
    let mut plain = instances.timed_loop(&problem, half, out).0;
    tgm_obs::set_enabled(true);
    let mut traced = instances.timed_loop(&problem, half, out).0;
    tgm_obs::set_enabled(false);
    tgm_obs::reset();
    (crate::median(&mut traced) / crate::median(&mut plain) - 1.0) * 100.0
}

/// Set-up layers on this workload: (calendar build µs, `build_tag` µs).
pub fn setup_layers() -> (f64, f64) {
    let (from, to) = (0, DAYS * 86_400);
    let cal_us = median_us(31, || crate::warm_calendar(&GRANS, from, to));
    let (cal, _) = crate::warm_calendar(&GRANS, from, to);
    let (cet, _) = example_1(&cal, &mut TypeRegistry::new());
    (cal_us, median_us(31, || build_tag(&cet)))
}

/// Layer metrics measured on this workload's input: tick columns, step 1
/// propagation, per-step span times and the pipeline's funnel counts.
pub fn layers(seed: u64, out: &mut Outcome) {
    let instances = Instances::new(seed);
    let problem = setup(&instances.inputs[0]);
    let grans = problem.structure.granularities();
    let events = instances.inputs[0].sequence.events();
    let cols_us = median_us(31, || TickColumns::build(events, &grans));
    out.metric("events.tick_columns_build_ms", cols_us / 1e3, "ms");
    let prop_us = median_us(101, || tgm_core::propagate::propagate(&problem.structure));
    out.metric("core.propagate_us", prop_us, "us");

    // One traced call per instance; spans and counts are per-call means.
    tgm_obs::set_enabled(true);
    tgm_obs::reset();
    let stats: Vec<_> = instances
        .inputs
        .iter()
        .map(|w| pipeline::mine(&problem, &w.sequence).1)
        .collect();
    let spans = tgm_obs::span::snapshot();
    tgm_obs::set_enabled(false);
    tgm_obs::reset();
    for (metric, span) in [
        ("mining.step1_ms", "pipeline.step1.consistency"),
        ("mining.step2_ms", "pipeline.step2.sequence_reduction"),
        ("mining.step3_4_ms", "pipeline.step3_4.screening"),
        ("mining.step5_ms", "pipeline.step5.scan"),
    ] {
        let s = spans.get(span).unwrap_or_default();
        out.check(s.count == INSTANCES, || {
            format!("span {span} recorded {} of {INSTANCES} calls", s.count)
        });
        out.metric(metric, s.total_ns as f64 / INSTANCES as f64 / 1e6, "ms");
    }
    let mean = |f: fn(&pipeline::PipelineStats) -> f64| {
        stats.iter().map(f).sum::<f64>() / stats.len() as f64
    };
    let scanned = mean(|s| s.candidates_scanned as f64);
    out.metric("mining.candidates_scanned", scanned, "count");
    out.metric("mining.tag_runs", mean(|s| s.tag_runs as f64), "count");
    out.metric(
        "mining.solution_yield",
        mean(|s| s.solutions as f64) / scanned,
        "share",
    );
    out.metric(
        "mining.step5_workers",
        mean(|s| s.step5_workers as f64),
        "count",
    );
}
