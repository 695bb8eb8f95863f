//! Fault-injection tests (run with `--features failpoints`): a panic
//! injected into a parallel worker is contained as a typed
//! [`WorkerPanic`] naming the site, siblings are cancelled via the shared
//! token, injected delays trip the deadline, and injected cancellations
//! surface as [`Interrupt::Cancelled`]. The failpoint registry is
//! process-global, so every test serializes on one mutex and clears the
//! registry on entry and exit.

#![cfg(feature = "failpoints")]

use std::sync::Mutex;
use std::time::Duration;

use tgm_core::{StructureBuilder, Tcg};
use tgm_events::{Event, EventSequence, EventType};
use tgm_granularity::Calendar;
use tgm_limits::{fail, CancelToken, Interrupt, Limits, Verdict};
use tgm_mining::{pipeline, DiscoveryProblem};

const DAY: i64 = 86_400;
static GUARD: Mutex<()> = Mutex::new(());

fn fixture() -> (DiscoveryProblem, EventSequence) {
    let cal = Calendar::standard();
    let day = cal.get("day").unwrap();
    let week = cal.get("week").unwrap();
    let mut b = StructureBuilder::new();
    let x0 = b.var("X0");
    let x1 = b.var("X1");
    let x2 = b.var("X2");
    b.constrain(x0, x1, Tcg::new(0, 2, day));
    b.constrain(x1, x2, Tcg::new(0, 1, week));
    let s = b.build().unwrap();
    let events: Vec<Event> = (0..40)
        .map(|i| Event::new(EventType(i % 4), 2 * DAY + i as i64 * 6 * 3_600))
        .collect();
    (
        DiscoveryProblem::new(s, 0.1, EventType(0)),
        EventSequence::from_events(events),
    )
}

/// Holds the suite mutex and guarantees a clean registry on both sides.
struct Armed(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

impl Armed {
    fn lock() -> Self {
        let g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        fail::clear_all();
        Armed(g)
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        fail::clear_all();
    }
}

#[test]
fn step5_worker_panic_is_contained_and_cancels_siblings() {
    let _armed = Armed::lock();
    let (problem, seq) = fixture();
    fail::set(
        "pipeline.step5.worker",
        fail::Action::PanicOnce("injected".into()),
    );
    let token = CancelToken::new();
    let limits = Limits::none().with_cancel(token.clone());
    let opts = pipeline::PipelineOptions::default();
    let err = pipeline::mine_bounded(&problem, &seq, &opts, &limits)
        .expect_err("the injected panic must surface as a typed error");
    assert_eq!(err.site, "pipeline.step5.worker");
    assert!(err.message.contains("injected"), "message: {}", err.message);
    assert!(
        token.is_cancelled(),
        "the caller's token must be cancelled so siblings stop"
    );
}

#[test]
fn worker_panic_increments_obs_counter() {
    let _armed = Armed::lock();
    let (problem, seq) = fixture();
    fail::set(
        "pipeline.step5.worker",
        fail::Action::PanicOnce("injected".into()),
    );
    tgm_obs::set_enabled(true);
    tgm_obs::reset();
    let opts = pipeline::PipelineOptions::default();
    let result = pipeline::mine_bounded(&problem, &seq, &opts, &Limits::none());
    let report = tgm_obs::Report::capture();
    tgm_obs::set_enabled(false);
    tgm_obs::reset();
    assert!(result.is_err());
    assert_eq!(
        report.metrics.counters.get("limits.worker_panics").copied(),
        Some(1),
        "a contained worker panic must be counted"
    );
}

#[test]
fn unbounded_entry_point_reraises_worker_panic() {
    let _armed = Armed::lock();
    let (problem, seq) = fixture();
    fail::set(
        "pipeline.step5.worker",
        fail::Action::PanicOnce("injected".into()),
    );
    let opts = pipeline::PipelineOptions::default();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pipeline::mine_with(&problem, &seq, &opts)
    }));
    assert!(
        caught.is_err(),
        "without Limits the contained panic is re-raised"
    );
}

/// Every non-`Ok` bounded verdict ships with a non-empty flight-recorder
/// dump when the caller's scope carries a recorder: contained panics,
/// injected cancellations, tripped deadlines and exhausted budgets all
/// leave their last-N-events context behind (workers inherit the scope at
/// spawn, so the dump works from inside parallel step 5 too).
#[test]
fn bounded_failures_carry_flight_recorder_dumps() {
    let _armed = Armed::lock();
    let (problem, seq) = fixture();
    tgm_obs::set_enabled(true);
    let opts = pipeline::PipelineOptions::default();

    // Contained worker panic: the dump carries both the panic marker and
    // the tagged partial-span flush from the containment site.
    fail::set(
        "pipeline.step5.worker",
        fail::Action::PanicOnce("injected".into()),
    );
    let scope = tgm_obs::ObsScope::with_recorder(64);
    {
        let _in = scope.enter();
        let err = pipeline::mine_bounded(&problem, &seq, &opts, &Limits::none());
        assert!(err.is_err());
    }
    let dump = scope.take_dump().expect("contained panic left no flight dump");
    assert!(!dump.events.is_empty());
    assert!(
        dump.events.iter().any(|(_, e)| matches!(
            e,
            tgm_obs::RecEvent::WorkerPanic { site } if *site == "pipeline.step5.worker"
        )),
        "dump is missing the panic marker: {}",
        dump.render()
    );
    assert!(
        dump.events
            .iter()
            .any(|(_, e)| matches!(e, tgm_obs::RecEvent::PanickedFlush { .. })),
        "the partial span flush was not tagged: {}",
        dump.render()
    );
    fail::clear_all();

    // Injected cancellation, tripped deadline, exhausted budget: each
    // verdict must appear in its dump with the right interrupt class.
    let cases: [(&str, Option<fail::Action>, Limits, Interrupt); 3] = [
        (
            "cancelled",
            Some(fail::Action::Cancel),
            Limits::none(),
            Interrupt::Cancelled,
        ),
        (
            "deadline",
            Some(fail::Action::Delay(Duration::from_millis(30))),
            Limits::none().with_timeout(Duration::from_millis(5)),
            Interrupt::DeadlineExceeded,
        ),
        (
            "budget",
            None,
            Limits::none().with_budget(1),
            Interrupt::BudgetExhausted,
        ),
    ];
    for (class, action, limits, expect) in cases {
        fail::clear_all();
        if let Some(a) = action {
            fail::set("pipeline.step5.worker", a);
        }
        let scope = tgm_obs::ObsScope::with_recorder(64);
        {
            let _in = scope.enter();
            let run = pipeline::mine_bounded(&problem, &seq, &opts, &limits).unwrap();
            assert_eq!(run.verdict, Verdict::Interrupted(expect), "{class}");
        }
        let dump = scope
            .take_dump()
            .unwrap_or_else(|| panic!("{class} verdict left no flight dump"));
        assert!(!dump.events.is_empty(), "{class}: empty dump");
        assert!(
            dump.events.iter().any(|(_, e)| matches!(
                e,
                tgm_obs::RecEvent::Verdict { interrupt, .. } if *interrupt == class
            )),
            "{class}: dump is missing its verdict event: {}",
            dump.render()
        );
    }

    tgm_obs::set_enabled(false);
    tgm_obs::reset();
}

#[test]
fn injected_delay_trips_the_deadline() {
    let _armed = Armed::lock();
    let (problem, seq) = fixture();
    fail::set(
        "pipeline.step5.worker",
        fail::Action::Delay(Duration::from_millis(30)),
    );
    let limits = Limits::none().with_timeout(Duration::from_millis(5));
    let opts = pipeline::PipelineOptions::default();
    let run = pipeline::mine_bounded(&problem, &seq, &opts, &limits).unwrap();
    assert_eq!(run.verdict, Verdict::Interrupted(Interrupt::DeadlineExceeded));
}

#[test]
fn injected_cancellation_surfaces_as_cancelled() {
    let _armed = Armed::lock();
    let (problem, seq) = fixture();
    fail::set("pipeline.step5.worker", fail::Action::Cancel);
    let opts = pipeline::PipelineOptions::default();
    let run = pipeline::mine_bounded(&problem, &seq, &opts, &Limits::none()).unwrap();
    assert_eq!(run.verdict, Verdict::Interrupted(Interrupt::Cancelled));
}
