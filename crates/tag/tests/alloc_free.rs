//! Zero steady-state allocation (DESIGN.md decision 12): once a scratch
//! is warm, repeated [`Matcher::run_in`] calls — direct and column-reading,
//! with and without [`Limits`] — and `push_batch` on a plain session whose
//! completions are drained allocate nothing.
//!
//! A counting global allocator tallies allocations per thread, so other
//! tests running in parallel cannot pollute the count; everything lives in
//! one test function regardless.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use tgm_core::{ComplexEventType, StructureBuilder, Tcg};
use tgm_events::{Event, EventType, TickColumns};
use tgm_granularity::{Calendar, Gran};
use tgm_limits::Limits;
use tgm_tag::{build_tag, MatchSession, Matcher, MatcherScratch, RunCtx};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local counter is const-initialized and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made on this thread while running `f`.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const DAY: i64 = 86_400;

/// A constructed three-variable TAG over day, week and business-day
/// clocks, and a stream that repeats one week's pattern, so every week
/// drives the engine through the same frontier shapes.
fn fixture(weeks: i64) -> (tgm_tag::Tag, Vec<Event>, Vec<Gran>) {
    let cal = Calendar::standard();
    let g = |n: &str| cal.get(n).unwrap();
    let mut b = StructureBuilder::new();
    let x0 = b.var("X0");
    let x1 = b.var("X1");
    let x2 = b.var("X2");
    b.constrain(x0, x1, Tcg::new(0, 2, g("day")));
    b.constrain(x1, x2, Tcg::new(0, 1, g("business-day")));
    b.constrain(x0, x2, Tcg::new(0, 1, g("week")));
    let tag = build_tag(&ComplexEventType::new(
        b.build().unwrap(),
        vec![EventType(0), EventType(1), EventType(2)],
    ));
    // Monday 2000-01-03 onward: 28 events a week, every 6 hours, types
    // 0..4 (type 3 is outside the pattern's alphabet).
    let events = (0..weeks * 28)
        .map(|i| Event::new(EventType((i % 4) as u32), 2 * DAY + i * 6 * 3_600))
        .collect();
    let grans = tag.clocks().iter().map(|(_, g)| g.clone()).collect();
    (tag, events, grans)
}

#[test]
fn warmed_runs_and_sessions_allocate_nothing() {
    let (tag, events, grans) = fixture(12);
    let cols = TickColumns::build(&events, &grans);
    let limits = Limits::none()
        .with_timeout(Duration::from_secs(3_600))
        .with_budget(1 << 40);
    let m = Matcher::new(&tag);
    let mut scratch = MatcherScratch::new();
    let slice = &events[5..];

    for with_cols in [false, true] {
        for with_limits in [false, true] {
            for early_exit in [false, true] {
                let mut ctx = RunCtx {
                    cols: with_cols.then_some((&cols, 5)),
                    limits: with_limits.then_some(&limits),
                    ..RunCtx::new(&mut scratch)
                };
                let warm = m.run_in(slice, early_exit, &mut ctx);
                let n = allocs_in(|| {
                    for _ in 0..5 {
                        assert_eq!(m.run_in(slice, early_exit, &mut ctx), warm);
                    }
                });
                assert_eq!(
                    n, 0,
                    "run_in allocated (columns={with_cols}, limits={with_limits}, \
                     early_exit={early_exit})"
                );
            }
        }
    }

    // A plain session, fed one week per batch and drained after each.
    let mut session = MatchSession::new(&tag);
    let weeks: Vec<&[Event]> = events.chunks(28).collect();
    let mut completed = 0;
    for week in &weeks[..4] {
        assert_eq!(session.push_batch(week), week.len());
        completed += session.completed().count();
    }
    assert!(completed > 0, "the fixture must complete occurrences");
    let n = allocs_in(|| {
        for week in &weeks[4..] {
            assert_eq!(session.push_batch(week), week.len());
            completed += session.completed().count();
        }
    });
    assert_eq!(n, 0, "push_batch allocated on a warmed session");
    assert!(session.stats().completions as usize == completed);
}
