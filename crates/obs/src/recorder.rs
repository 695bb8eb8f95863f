//! Flight recorder: a fixed-capacity ring of recent structured events.
//!
//! Every [`ObsScope`](crate::scope::ObsScope) built with
//! [`with_recorder`](crate::scope::ObsScope::with_recorder) keeps the last
//! N structured events — span enter/exit, counter deltas, histogram
//! samples, limit verdicts, contained panics — in a ring buffer. When a
//! `*_bounded` entry point returns a non-`Ok` verdict or a worker panic
//! is contained, the ring is dumped into a [`FlightDump`] retrievable via
//! [`ObsScope::take_dump`](crate::scope::ObsScope::take_dump), so every
//! `Interrupt` ships with its last-N-events context.
//!
//! Writers reserve a slot with one lock-free atomic `fetch_add` on the
//! ring cursor; publishing the event into the reserved slot takes an
//! uncontended per-slot `parking_lot` mutex (the crate forbids `unsafe`,
//! so slots are not raw cells). Concurrent writers therefore never
//! serialize on a shared lock — they only collide when the ring laps
//! itself onto the same slot, where "loser overwrites" is exactly the
//! ring semantics. Dumps walk the slots read-only and order by sequence
//! number.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// One structured flight-recorder event. All payloads are `'static`
/// names plus integers, so recording never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecEvent {
    /// A timing span started.
    SpanEnter(&'static str),
    /// A timing span completed.
    SpanExit {
        /// Span name.
        name: &'static str,
        /// Elapsed nanoseconds.
        ns: u64,
    },
    /// A counter was incremented.
    Counter {
        /// Counter name.
        name: &'static str,
        /// Amount added.
        delta: u64,
    },
    /// A histogram recorded one sample.
    Sample {
        /// Histogram name.
        name: &'static str,
        /// The sample.
        value: u64,
    },
    /// A locally accumulated histogram was merged in.
    Merge {
        /// Histogram name.
        name: &'static str,
        /// Samples in the merged batch.
        count: u64,
    },
    /// A limits check produced a non-`Ok` verdict.
    Verdict {
        /// The observing call site (e.g. `"limits.check"`).
        site: &'static str,
        /// The interrupt class (`"deadline"`, `"budget"`, `"cancelled"`).
        interrupt: &'static str,
    },
    /// A worker panic was contained.
    WorkerPanic {
        /// The containment site (e.g. `"pipeline.step5.worker"`).
        site: &'static str,
    },
    /// A thread's span buffer was force-flushed from a panic containment
    /// site (the spans themselves land in the scope's aggregates; this
    /// event is the `panicked=true` tag).
    PanickedFlush {
        /// The containment site.
        site: &'static str,
    },
}

impl RecEvent {
    /// One-line human rendering, used by [`FlightDump::render`].
    pub fn describe(&self) -> String {
        match self {
            RecEvent::SpanEnter(name) => format!("span+ {name}"),
            RecEvent::SpanExit { name, ns } => format!("span- {name} ({ns} ns)"),
            RecEvent::Counter { name, delta } => format!("count {name} +{delta}"),
            RecEvent::Sample { name, value } => format!("hist  {name} <- {value}"),
            RecEvent::Merge { name, count } => format!("hist  {name} <- batch of {count}"),
            RecEvent::Verdict { site, interrupt } => {
                format!("limit {interrupt} at {site}")
            }
            RecEvent::WorkerPanic { site } => format!("panic contained at {site}"),
            RecEvent::PanickedFlush { site } => {
                format!("spans flushed panicked=true at {site}")
            }
        }
    }
}

struct Slot {
    /// Sequence number + 1 of the event held (0 = never written).
    seq: AtomicU64,
    ev: Mutex<Option<RecEvent>>,
}

/// The ring buffer behind a scope's flight recorder (see the module
/// docs for the write protocol).
pub struct Recorder {
    slots: Box<[Slot]>,
    /// Next sequence number to reserve.
    cursor: AtomicU64,
    /// Total dumps triggered.
    dumps: AtomicU64,
    last_dump: Mutex<Option<FlightDump>>,
}

impl Recorder {
    /// A ring holding the most recent `capacity` events (rounded up to a
    /// power of two, minimum 8 — power-of-two capacity keeps the slot
    /// index a mask instead of a division).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                ev: Mutex::new(None),
            })
            .collect();
        Recorder {
            slots,
            cursor: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            last_dump: Mutex::new(None),
        }
    }

    /// Slot capacity (a power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Appends one event, overwriting the oldest when full.
    pub fn record(&self, ev: RecEvent) {
        let n = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n as usize) & (self.slots.len() - 1)];
        *slot.ev.lock() = Some(ev);
        slot.seq.store(n + 1, Ordering::Release);
    }

    /// Dumps the ring's current contents (oldest first) into the
    /// last-dump slot, tagged with `reason`; returns the event count.
    pub fn dump(&self, reason: &'static str) -> usize {
        let mut events: Vec<(u64, RecEvent)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 {
                continue;
            }
            if let Some(ev) = *slot.ev.lock() {
                events.push((seq - 1, ev));
            }
        }
        events.sort_unstable_by_key(|(seq, _)| *seq);
        let len = events.len();
        *self.last_dump.lock() = Some(FlightDump { reason, events });
        self.dumps.fetch_add(1, Ordering::Relaxed);
        len
    }

    /// Takes the most recent dump, leaving `None` behind.
    pub fn take_dump(&self) -> Option<FlightDump> {
        self.last_dump.lock().take()
    }

    /// Total dumps triggered since construction (or the last clear).
    pub fn dump_count(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Clears the ring, the pending dump, and the dump counter.
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Relaxed);
            *slot.ev.lock() = None;
        }
        self.cursor.store(0, Ordering::Relaxed);
        self.dumps.store(0, Ordering::Relaxed);
        *self.last_dump.lock() = None;
    }
}

/// A captured ring: the last-N events (oldest first) with the trigger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightDump {
    /// Why the dump was triggered (e.g. `"interrupt:deadline"`).
    pub reason: &'static str,
    /// `(sequence, event)` pairs, ordered oldest first.
    pub events: Vec<(u64, RecEvent)>,
}

impl FlightDump {
    /// Human-readable rendering, one event per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "flight recorder dump ({}, {} events):\n",
            self.reason,
            self.events.len()
        );
        for (seq, ev) in &self.events {
            out.push_str(&format!("  #{seq:<8} {}\n", ev.describe()));
        }
        out
    }
}

/// Appends one event to the **current** scope's recorder, if it has one
/// (no-op while observability is disabled) — the hook instrumented code
/// calls without holding a scope handle.
pub fn record(ev: RecEvent) {
    if !crate::enabled() {
        return;
    }
    crate::scope::with_current_inner(|inner| {
        if let Some(r) = inner.recorder() {
            r.record(ev);
        }
    });
}

/// Records a limit verdict and dumps the current scope's ring: the
/// automatic "every `Interrupt` ships with context" trigger. `interrupt`
/// should be a short class name (`"deadline"`, `"budget"`, `"cancelled"`).
pub fn interrupt(site: &'static str, interrupt: &'static str) {
    if !crate::enabled() {
        return;
    }
    crate::scope::with_current_inner(|inner| {
        if let Some(r) = inner.recorder() {
            r.record(RecEvent::Verdict { site, interrupt });
            r.dump("interrupt");
        }
    });
}

/// Records a contained worker panic and dumps the current scope's ring.
pub fn worker_panic(site: &'static str) {
    if !crate::enabled() {
        return;
    }
    crate::scope::with_current_inner(|inner| {
        if let Some(r) = inner.recorder() {
            r.record(RecEvent::WorkerPanic { site });
            r.dump("worker_panic");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let r = Recorder::new(8);
        assert_eq!(r.capacity(), 8);
        for i in 0..20u64 {
            r.record(RecEvent::Counter {
                name: "c",
                delta: i,
            });
        }
        assert_eq!(r.dump("test"), 8);
        let d = r.take_dump().expect("dump stored");
        assert_eq!(d.reason, "test");
        assert_eq!(d.events.len(), 8);
        // Oldest-first ordering and exactly the last 8 writes (12..20).
        let deltas: Vec<u64> = d
            .events
            .iter()
            .map(|(_, e)| match e {
                RecEvent::Counter { delta, .. } => *delta,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(deltas, (12..20).collect::<Vec<_>>());
        assert!(r.take_dump().is_none(), "take drains");
        assert_eq!(r.dump_count(), 1);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(Recorder::new(0).capacity(), 8);
        assert_eq!(Recorder::new(9).capacity(), 16);
        assert_eq!(Recorder::new(256).capacity(), 256);
    }

    #[test]
    fn concurrent_writers_never_lose_the_ring() {
        let r = Recorder::new(64);
        crossbeam::scope(|scope| {
            for w in 0..4u64 {
                let r = &r;
                scope.spawn(move |_| {
                    for i in 0..1000 {
                        r.record(RecEvent::Counter {
                            name: "w",
                            delta: w * 10_000 + i,
                        });
                    }
                });
            }
        })
        .expect("crossbeam scope");
        let n = r.dump("test");
        assert_eq!(n, 64, "a full ring dumps exactly its capacity");
        let d = r.take_dump().unwrap();
        // Sequence numbers are strictly increasing after the sort.
        for pair in d.events.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
    }
}
