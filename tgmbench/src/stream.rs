//! `stream`: one evicting `MatchSession` over a long LCG event stream,
//! pushed in fixed-size batches. The pattern is a `business-week` →
//! `business-month` chain, so every event resolves ticks in two grouped
//! granularities and Theorem-4 eviction keeps the frontier bounded.

use std::time::{Duration, Instant};

use tgm_core::{ComplexEventType, StructureBuilder, Tcg};
use tgm_events::{Event, EventType};
use tgm_granularity::{Gran, Granularity};
use tgm_tag::{build_tag, Completion, MatchSession, Matcher, Tag};

use crate::{median_setup, median_us, Outcome};

/// Events per `push_batch`.
const BATCH: usize = 4096;
/// Stream prefix checked against the batch matcher (untimed).
const ORACLE_EVENTS: usize = 100 * BATCH;
/// Stream prefix the traced layer probes use.
const PROBE_EVENTS: usize = 100 * BATCH;
/// Distinct event types in the stream.
const TYPES: u64 = 4;
const GRANS: [&str; 2] = ["business-week", "business-month"];
/// Events after which a feed starts a fresh session and restarts its
/// clock at `START`. Timestamps then stay within one epoch, about 28
/// years, however fast the session runs, well inside the horizons of the
/// granularities' compiled tables.
const EPOCH_EVENTS: usize = 256 * BATCH;
/// First timestamp (Monday 2000-01-03) and the span the calendar is
/// warmed over: one epoch.
const START: i64 = 2 * 86_400;
const WARM_SPAN: i64 = 28 * 365 * 86_400;

/// The event stream: a 64-bit LCG seeded from the seed, one event every
/// 1–1700 s over four types.
struct Lcg {
    state: u64,
    time: i64,
}

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg {
            state: crate::Rng::new(seed, 1).next_u64(),
            time: START,
        }
    }

    fn fill(&mut self, buf: &mut Vec<Event>, n: usize) {
        buf.clear();
        for _ in 0..n {
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.time += 1 + (self.state >> 33) as i64 % 1700;
            buf.push(Event::new(
                EventType(((self.state >> 7) % TYPES) as u32),
                self.time,
            ));
        }
    }

    fn take(seed: u64, n: usize) -> Vec<Event> {
        let mut v = Vec::new();
        Lcg::new(seed).fill(&mut v, n);
        v
    }
}

/// The program's set-up: calendar (compiled), structure and automaton.
/// `X0 -[0,1] business-week-> X1 -[0,1] business-month-> X2` over types
/// 0, 1, 0.
fn setup() -> Tag {
    let (_, grans) = crate::warm_calendar(&GRANS, START, START + WARM_SPAN);
    build_tag(&cet(&grans))
}

fn cet(grans: &[Gran]) -> ComplexEventType {
    let mut sb = StructureBuilder::new();
    let x0 = sb.var("X0");
    let x1 = sb.var("X1");
    let x2 = sb.var("X2");
    sb.constrain(x0, x1, Tcg::new(0, 1, grans[0].clone()));
    sb.constrain(x1, x2, Tcg::new(0, 1, grans[1].clone()));
    let structure = sb.build().expect("a chain is a valid structure");
    ComplexEventType::new(structure, vec![EventType(0), EventType(1), EventType(0)])
}

/// One evicting session fed batch by batch from its own copy of the
/// stream, replaced by a fresh one every `EPOCH_EVENTS`.
struct Feed<'t> {
    tag: &'t Tag,
    gen: Lcg,
    batch: Vec<Event>,
    session: MatchSession<'t>,
    epoch_events: usize,
}

impl<'t> Feed<'t> {
    fn new(tag: &'t Tag, seed: u64) -> Self {
        Feed {
            tag,
            gen: Lcg::new(seed),
            batch: Vec::with_capacity(BATCH),
            session: MatchSession::new(tag).with_eviction(),
            epoch_events: 0,
        }
    }

    /// Pushes batches until `run` elapses, appending each batch's ms
    /// (`push_batch` plus draining `completed()`); returns the events
    /// consumed.
    fn run(&mut self, run: Duration, ms: &mut Vec<f64>, out: &mut Outcome) -> u64 {
        let mut events = 0u64;
        let end = Instant::now() + run;
        while Instant::now() < end {
            if self.epoch_events == EPOCH_EVENTS {
                self.gen.time = START;
                self.session = MatchSession::new(self.tag).with_eviction();
                self.epoch_events = 0;
            }
            self.gen.fill(&mut self.batch, BATCH);
            self.epoch_events += BATCH;
            let t0 = Instant::now();
            let consumed = self.session.push_batch(&self.batch);
            std::hint::black_box(self.session.completed().count());
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            events += consumed as u64;
            out.check(consumed == BATCH, || {
                format!(
                    "session consumed {consumed} of {BATCH} events: {:?}",
                    self.session.stats()
                )
            });
        }
        events
    }
}

/// On a stream prefix: a plain session's stats equal the batch matcher's,
/// and the evicting session (the timed configuration) reports exactly the
/// plain session's completions.
fn check_against_batch(tag: &Tag, seed: u64, out: &mut Outcome) {
    let prefix = Lcg::take(seed, ORACLE_EVENTS);
    let batch = Matcher::new(tag).run(&prefix, false);
    let drain = |mut s: MatchSession| {
        let mut got: Vec<Completion> = Vec::new();
        for chunk in prefix.chunks(BATCH) {
            s.push_batch(chunk);
            got.extend(s.completed());
        }
        (got, s.stats())
    };
    let (plain, ps) = drain(MatchSession::new(tag));
    let (evicting, es) = drain(MatchSession::new(tag).with_eviction());
    out.check(
        (ps.events, ps.peak_frontier, ps.expansions, ps.dedup_hits)
            == (
                batch.events,
                batch.peak_configs,
                batch.expansions,
                batch.dedup_hits,
            ),
        || format!("session stats {ps:?} differ from the batch matcher's {batch:?}"),
    );
    out.check(
        !plain.is_empty() && plain == evicting && es.events == ORACLE_EVENTS,
        || {
            format!(
                "evicting session found {} completions, plain session {}",
                evicting.len(),
                plain.len()
            )
        },
    );
}

pub fn run(seed: u64, run: Duration) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, tag) = median_setup(setup, drop);
    crate::assert_default_switches();
    let mut ms = Vec::new();
    let events = Feed::new(&tag, seed).run(run, &mut ms, &mut out);
    let rss_mb = crate::peak_rss_mb();
    check_against_batch(&tag, seed, &mut out);
    let throughput = events as f64 / (ms.iter().sum::<f64>() / 1e3);
    out.end_to_end(setup_s, &mut ms, throughput, rss_mb);
    out
}

/// Slices the untraced and traced sessions alternate in, so drift in the
/// host's speed falls on both alike.
const SLICE: Duration = Duration::from_millis(250);

/// Events per second of a session with `tgm_obs` off against one with it
/// on, fed the same stream in alternating slices; returns the traced
/// session's excess time per event in percent.
pub fn overhead_pct(seed: u64, half: Duration, out: &mut Outcome) -> f64 {
    let tag = setup();
    crate::assert_default_switches();
    let mut feeds = [Feed::new(&tag, seed), Feed::new(&tag, seed)];
    let mut ms = [Vec::new(), Vec::new()];
    let mut events = [0u64; 2];
    for slice in 0..2 * half.as_millis() / SLICE.as_millis() {
        let traced = (slice % 2) as usize;
        tgm_obs::set_enabled(traced == 1);
        events[traced] += feeds[traced].run(SLICE, &mut ms[traced], out);
    }
    tgm_obs::set_enabled(false);
    tgm_obs::reset();
    let rate = |i: usize| events[i] as f64 / ms[i].iter().sum::<f64>();
    (rate(0) / rate(1) - 1.0) * 100.0
}

/// Set-up layers on this workload: (calendar build µs, `build_tag` µs).
pub fn setup_layers() -> (f64, f64) {
    let cal_us = median_us(31, || {
        crate::warm_calendar(&GRANS, START, START + WARM_SPAN)
    });
    let (_, grans) = crate::warm_calendar(&GRANS, START, START + WARM_SPAN);
    let cet = cet(&grans);
    (cal_us, median_us(31, || build_tag(&cet)))
}

/// Layer metrics measured on this workload's input: granularity
/// conversion, `push_batch` alone, and the session's counters.
pub fn layers(seed: u64, out: &mut Outcome) {
    let (cal, grans) = crate::warm_calendar(&GRANS, START, START + WARM_SPAN);
    let tag = build_tag(&cet(&grans));
    let events = Lcg::take(seed, PROBE_EVENTS);

    let second = cal.get("second").expect("standard calendar has `second`");
    let ticks: Vec<i64> = events
        .iter()
        .map(|e| {
            second
                .covering_tick(e.time)
                .expect("second covers all time")
        })
        .collect();
    let clocks: Vec<Gran> = tag.clocks().iter().map(|(_, g)| g.clone()).collect();
    let t0 = Instant::now();
    for g in &clocks {
        for &z in &ticks {
            std::hint::black_box(second.convert_tick_to(z, g));
        }
    }
    let conversions = (ticks.len() * clocks.len()) as f64;
    out.metric(
        "granularity.convert_ns",
        t0.elapsed().as_secs_f64() * 1e9 / conversions,
        "ns",
    );

    let mut session = MatchSession::new(&tag).with_eviction();
    let mut busy = Duration::ZERO;
    for chunk in events.chunks(BATCH) {
        let t0 = Instant::now();
        session.push_batch(chunk);
        busy += t0.elapsed();
        std::hint::black_box(session.completed().count());
    }
    let s = session.stats();
    out.check(s.events == PROBE_EVENTS, || {
        format!("probe session stopped early: {s:?}")
    });
    out.metric(
        "tag.session_ns_per_event",
        busy.as_secs_f64() * 1e9 / s.events as f64,
        "ns",
    );
    out.metric(
        "tag.expansions_per_event",
        s.expansions as f64 / s.events as f64,
        "count",
    );
    out.metric(
        "tag.dedup_hit_share",
        s.dedup_hits as f64 / s.expansions.max(1) as f64,
        "share",
    );
    out.metric("tag.peak_frontier", s.peak_frontier as f64, "count");
    out.metric("tag.evicted_rows", s.evicted_rows as f64, "count");
}
