//! Pre-resolved tick columns: every event timestamp resolved into its
//! covering tick, per granularity, once up front.
//!
//! The matcher and the mining pipeline repeatedly ask "which `μ`-tick covers
//! event `i`?" — per clock, per configuration, per anchored run. A
//! [`TickColumns`] answers that with one array lookup: column `c` holds
//! `⌈tᵢ⌉μ_c` for every event `i` (or `None` where the granularity has a gap
//! at `tᵢ`). Columns for distinct granularities are independent, so
//! [`TickColumns::build`] resolves them in parallel.
//!
//! Columns are addressed by [`Gran::instance_id`], never by name: two
//! `business-day` granularities with different holiday sets must not share
//! a column.

use tgm_granularity::{Gran, Granularity as _, Second, Tick};

use crate::sequence::Event;

/// Below this many cells total, a parallel build costs more than it saves.
const PARALLEL_THRESHOLD_CELLS: usize = 4096;

/// Columns at least this tall force periodic compilation up front
/// ([`Gran::compiled`]), so the whole column resolves through the compiled
/// table instead of spending its first rows warming up the per-handle use
/// counter on the raw implementation. Shorter columns resolve however the
/// handle already answers — a compile would cost more than it saves.
const COMPILE_THRESHOLD_ROWS: usize = 256;

/// Per-granularity covering-tick columns over one event slice.
///
/// Build once per sequence (or reduced sequence), then index by event
/// position. See [`TickColumns::build`].
#[derive(Clone, Debug)]
pub struct TickColumns {
    grans: Vec<Gran>,
    cols: Vec<Vec<Option<Tick>>>,
    len: usize,
    /// Timestamp of the last appended/built row, seeding the
    /// adjacent-duplicate short-circuit across [`append`](Self::append)
    /// chunks.
    last_time: Option<Second>,
}

fn resolve_column(g: &Gran, events: &[Event]) -> Vec<Option<Tick>> {
    if events.len() >= COMPILE_THRESHOLD_ROWS {
        // Result unused: covering_tick below consults the compiled table.
        let _ = g.compiled();
    }
    let mut out = Vec::with_capacity(events.len());
    // Events are time-sorted with ties, so adjacent duplicates are common;
    // short-circuit them before even touching the granularity.
    let mut last: Option<(Second, Option<Tick>)> = None;
    for e in events {
        let tick = match last {
            Some((t, v)) if t == e.time => v,
            _ => g.covering_tick(e.time),
        };
        last = Some((e.time, tick));
        out.push(tick);
    }
    out
}

impl TickColumns {
    /// Resolves every event's covering tick in each granularity.
    ///
    /// Granularities appearing more than once (same
    /// [instance](Gran::instance_id)) get a single column. Columns are
    /// computed in parallel when the total cell count is large enough to
    /// pay for the threads.
    pub fn build(events: &[Event], grans: &[Gran]) -> Self {
        let _span = tgm_obs::span!("events.tick_columns.build");
        let mut uniq: Vec<Gran> = Vec::new();
        for g in grans {
            if !uniq.iter().any(|u| u.instance_id() == g.instance_id()) {
                uniq.push(g.clone());
            }
        }
        let cells = events.len().saturating_mul(uniq.len());
        let cols: Vec<Vec<Option<Tick>>> =
            if uniq.len() <= 1 || cells < PARALLEL_THRESHOLD_CELLS {
                uniq.iter().map(|g| resolve_column(g, events)).collect()
            } else {
                let parallel: Option<Vec<Vec<Option<Tick>>>> = crossbeam::scope(|scope| {
                    let handles: Vec<_> = uniq
                        .iter()
                        .map(|g| scope.spawn(move |_| resolve_column(g, events)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().ok())
                        .collect::<Option<Vec<_>>>()
                })
                .ok()
                .flatten();
                match parallel {
                    Some(cols) => cols,
                    // A worker (or the scope) panicked. Resolution is
                    // deterministic, so redoing it serially either
                    // reproduces the panic in the caller's thread with its
                    // original payload or succeeds if the failure was
                    // spurious (e.g. thread-spawn pressure).
                    None => uniq.iter().map(|g| resolve_column(g, events)).collect(),
                }
            };
        tgm_obs::metrics::counter_add("events.tick_columns.builds", 1);
        tgm_obs::metrics::counter_add("events.tick_columns.columns", uniq.len() as u64);
        tgm_obs::metrics::counter_add("events.tick_columns.cells", cells as u64);
        TickColumns {
            grans: uniq,
            cols,
            len: events.len(),
            last_time: events.last().map(|e| e.time),
        }
    }

    /// Empty columns for a granularity set, ready for incremental
    /// [`append`](Self::append) as a stream arrives in chunks.
    ///
    /// Granularities appearing more than once (same
    /// [instance](Gran::instance_id)) get a single column, exactly as in
    /// [`build`](Self::build).
    pub fn with_granularities(grans: &[Gran]) -> Self {
        let mut uniq: Vec<Gran> = Vec::new();
        for g in grans {
            if !uniq.iter().any(|u| u.instance_id() == g.instance_id()) {
                uniq.push(g.clone());
            }
        }
        let cols = vec![Vec::new(); uniq.len()];
        TickColumns {
            grans: uniq,
            cols,
            len: 0,
            last_time: None,
        }
    }

    /// Appends resolved rows for a further chunk of events.
    ///
    /// `TickColumns::build(all) == { with_granularities(g) + append per
    /// chunk }` for any chunking of `all` — the adjacent-duplicate
    /// short-circuit is seeded from each column's tail, so splitting
    /// between two equal timestamps costs one extra resolution, never a
    /// different answer. Appending is serial: chunked streaming callers
    /// push small batches where thread fan-out cannot pay for itself.
    pub fn append(&mut self, events: &[Event]) {
        if events.is_empty() {
            return;
        }
        let _span = tgm_obs::span!("events.tick_columns.append");
        if self.len + events.len() >= COMPILE_THRESHOLD_ROWS {
            for g in &self.grans {
                let _ = g.compiled();
            }
        }
        for (g, col) in self.grans.iter().zip(self.cols.iter_mut()) {
            col.reserve(events.len());
            let mut last: Option<(Second, Option<Tick>)> = self
                .last_time
                .map(|t| (t, col.last().copied().flatten()));
            for e in events {
                let tick = match last {
                    Some((t, v)) if t == e.time => v,
                    _ => g.covering_tick(e.time),
                };
                last = Some((e.time, tick));
                col.push(tick);
            }
        }
        self.len += events.len();
        self.last_time = events.last().map(|e| e.time);
        tgm_obs::metrics::counter_add("events.tick_columns.appends", 1);
        tgm_obs::metrics::counter_add(
            "events.tick_columns.cells",
            events.len().saturating_mul(self.grans.len()) as u64,
        );
    }

    /// Number of events (rows).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The granularities with a column, in column order.
    pub fn granularities(&self) -> &[Gran] {
        &self.grans
    }

    /// The column index for a granularity (by instance), if present.
    pub fn index_of(&self, g: &Gran) -> Option<usize> {
        self.grans
            .iter()
            .position(|u| u.instance_id() == g.instance_id())
    }

    /// The full column for a granularity: `column(g)[i]` is the covering
    /// tick of event `i`, `None` on a gap.
    pub fn column(&self, g: &Gran) -> Option<&[Option<Tick>]> {
        self.index_of(g).map(|c| self.cols[c].as_slice())
    }

    /// The covering tick of event `row` in column `col`.
    ///
    /// `col` comes from [`index_of`](Self::index_of); out-of-range rows
    /// panic (they indicate an index/columns mismatch, not a gap).
    pub fn tick(&self, col: usize, row: usize) -> Option<Tick> {
        self.cols[col][row]
    }

    /// Projects the columns onto a subset of rows (e.g. the events kept by
    /// the pipeline's sequence reduction), preserving column order. Indices
    /// must be in range; this copies cells, it never re-resolves.
    pub fn select(&self, rows: &[usize]) -> TickColumns {
        TickColumns {
            grans: self.grans.clone(),
            cols: self
                .cols
                .iter()
                .map(|col| rows.iter().map(|&r| col[r]).collect())
                .collect(),
            len: rows.len(),
            // Row timestamps are not retained; the first append after a
            // projection simply pays one extra resolution.
            last_time: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use tgm_granularity::Calendar;

    use super::*;
    use crate::registry::EventType;

    const DAY: i64 = 86_400;

    fn ev(t: i64) -> Event {
        Event::new(EventType(0), t)
    }

    #[test]
    fn columns_match_direct_resolution() {
        let cal = Calendar::standard();
        let day = cal.get("day").unwrap();
        let bday = cal.get("business-day").unwrap();
        let events: Vec<Event> = (0..20).map(|i| ev(i * DAY / 2 + 37)).collect();
        let cols = TickColumns::build(&events, &[day.clone(), bday.clone()]);
        assert_eq!(cols.len(), events.len());
        for (i, e) in events.iter().enumerate() {
            assert_eq!(cols.column(&day).unwrap()[i], day.covering_tick(e.time));
            assert_eq!(cols.column(&bday).unwrap()[i], bday.covering_tick(e.time));
        }
        // 2000-01-01 (day tick 1) is a Saturday: business-day gap.
        assert!(cols.column(&bday).unwrap()[0].is_none());
    }

    #[test]
    fn duplicate_granularities_share_a_column() {
        let cal = Calendar::standard();
        let day = cal.get("day").unwrap();
        let cols = TickColumns::build(&[ev(0), ev(DAY)], &[day.clone(), day.clone()]);
        assert_eq!(cols.granularities().len(), 1);
        assert_eq!(cols.index_of(&day), Some(0));
    }

    #[test]
    fn same_name_different_instance_gets_own_column() {
        let cal = Calendar::with_holidays(vec![]);
        let cal2 = Calendar::with_holidays(vec![4]); // 2000-01-05 off
        let a = cal.get("business-day").unwrap();
        let b = cal2.get("business-day").unwrap();
        let events = [ev(4 * DAY + 100)]; // Wed 2000-01-05
        let cols = TickColumns::build(&events, &[a.clone(), b.clone()]);
        assert_eq!(cols.granularities().len(), 2);
        assert!(cols.column(&a).unwrap()[0].is_some());
        assert!(cols.column(&b).unwrap()[0].is_none(), "holiday is a gap");
    }

    #[test]
    fn select_projects_rows() {
        let cal = Calendar::standard();
        let day = cal.get("day").unwrap();
        let events: Vec<Event> = (0..10).map(|i| ev(i * DAY)).collect();
        let cols = TickColumns::build(&events, std::slice::from_ref(&day));
        let sub = cols.select(&[1, 4, 7]);
        assert_eq!(sub.len(), 3);
        let full = cols.column(&day).unwrap();
        let proj = sub.column(&day).unwrap();
        assert_eq!(proj, &[full[1], full[4], full[7]]);
    }

    #[test]
    fn parallel_build_agrees_with_serial() {
        let cal = Calendar::standard();
        let grans: Vec<Gran> = ["day", "hour", "week", "business-day"]
            .iter()
            .map(|n| cal.get(n).unwrap())
            .collect();
        // Enough cells to cross the parallel threshold.
        let events: Vec<Event> = (0..2000).map(|i| ev(i * 3_600 + 11)).collect();
        let cols = TickColumns::build(&events, &grans);
        for g in &grans {
            let col = cols.column(g).unwrap();
            for (i, e) in events.iter().enumerate() {
                assert_eq!(col[i], g.covering_tick(e.time), "{} row {i}", g.name());
            }
        }
    }
}
