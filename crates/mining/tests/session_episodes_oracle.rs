//! Windowed-episodes oracle for the streaming [`MatchSession`]: on the
//! `second` granularity a serial two-element episode `A → B` within a
//! `W`-second window is exactly the TCG `B − A ∈ [0, W] second`, so the
//! session's completions must line up with `mining::episodes`' MINEPI
//! minimal occurrences — an oracle computed by a completely independent
//! algorithm (greedy earliest-completion scan, no automaton, no frontier).

use tgm_events::{Event, EventSequence, EventType};
use tgm_granularity::Calendar;
use tgm_mining::episodes::{minepi_support, minimal_occurrences_serial, Episode, EpisodeMiner};
use tgm_core::{ComplexEventType, StructureBuilder, Tcg};
use tgm_tag::{build_tag, MatchSession, Tag};

const A: EventType = EventType(0);
const B: EventType = EventType(1);
const NOISE: EventType = EventType(2);

/// The TAG for "a `B` follows an `A` within `[0, w]` seconds".
fn window_tag(w: u64) -> Tag {
    let cal = Calendar::standard();
    let mut b = StructureBuilder::new();
    let va = b.var("A");
    let vb = b.var("B");
    b.constrain(va, vb, Tcg::new(0, w, cal.get("second").unwrap()));
    build_tag(&ComplexEventType::new(b.build().unwrap(), vec![A, B]))
}

/// A deterministic pseudo-random A/B/noise stream with strictly
/// increasing timestamps.
fn stream(n: usize, seed: u64) -> Vec<Event> {
    let mut state = seed | 1;
    let mut t = 0i64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t += 1 + ((state >> 33) % 97) as i64;
            let ty = match (state >> 7) % 4 {
                0 => A,
                1 | 2 => B,
                _ => NOISE,
            };
            Event::new(ty, t)
        })
        .collect()
}

/// Completion timestamps of a session over the stream, pushed in chunks.
fn session_completions(tag: &Tag, events: &[Event], chunk: usize) -> Vec<i64> {
    let mut session = MatchSession::new(tag);
    for c in events.chunks(chunk.max(1)) {
        session.push_batch(c);
    }
    session.completed().map(|c| c.at).collect()
}

#[test]
fn completions_cover_minimal_occurrences() {
    for (n, seed, w) in [(300, 7, 60u64), (500, 99, 25), (400, 1234, 300)] {
        let events = stream(n, seed);
        let seq = EventSequence::from_events(events.clone());
        let tag = window_tag(w);
        let completions = session_completions(&tag, &events, 64);

        // Every MINEPI minimal occurrence of A→B whose span fits the
        // window must complete the session at its end event…
        let minimal = minimal_occurrences_serial(&seq, &[A, B]);
        for occ in minimal.iter().filter(|o| o.span() <= w as i64) {
            assert!(
                completions.contains(&occ.end),
                "minimal occurrence {occ:?} (span {}) missing from session \
                 completions (w = {w})",
                occ.span()
            );
        }
        // …and the first completion is exactly the earliest such end.
        let earliest = minimal
            .iter()
            .filter(|o| o.span() <= w as i64)
            .map(|o| o.end)
            .min();
        assert_eq!(completions.first().copied(), earliest, "w = {w}");
        // Support counts agree in aggregate: each in-window minimal
        // occurrence ends at a distinct completing event.
        assert!(
            minepi_support(&seq, &[A, B], w as i64) <= completions.len(),
            "w = {w}"
        );
    }
}

#[test]
fn completions_match_brute_force_window_scan() {
    let w = 120u64;
    let events = stream(600, 42);
    let tag = window_tag(w);
    // Brute force: a B event completes iff any earlier A is within the
    // window. (Timestamps are strictly increasing, so list order = time
    // order and the `second` tick distance is the time difference.)
    let expected: Vec<i64> = events
        .iter()
        .enumerate()
        .filter(|(i, e)| {
            e.ty == B
                && events[..*i]
                    .iter()
                    .any(|a| a.ty == A && e.time - a.time <= w as i64)
        })
        .map(|(_, e)| e.time)
        .collect();
    // The oracle must hold for any chunking.
    for chunk in [1, 17, 64, 600] {
        let got = session_completions(&tag, &events, chunk);
        assert_eq!(got, expected, "chunk {chunk}");
    }
}

#[test]
fn frequency_positive_iff_session_completes() {
    // WINEPI frequency over sliding windows and the session agree on
    // emptiness: some window contains A→B iff some completion fires.
    for (seed, w) in [(5u64, 40u64), (11, 2), (77, 1000)] {
        let events = stream(250, seed);
        let seq = EventSequence::from_events(events.clone());
        let tag = window_tag(w);
        let completions = session_completions(&tag, &events, 32);
        // A window of length w+1 seconds contains both endpoints of any
        // occurrence with span <= w, and conversely; a 1-second shift
        // makes the window grid dense, so containment implies a counted
        // window start.
        let miner = EpisodeMiner {
            window: w as i64 + 1,
            shift: 1,
            min_frequency: 0.0,
            max_len: 2,
        };
        let freq = miner.frequency(&seq, &Episode::Serial(vec![A, B]));
        assert_eq!(
            freq > 0.0,
            !completions.is_empty(),
            "seed {seed}, w {w}: frequency {freq}, {} completions",
            completions.len()
        );
    }
}
