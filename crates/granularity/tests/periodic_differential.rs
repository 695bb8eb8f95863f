//! Differential tests for the compiled periodic fast path, the one
//! acceleration layer of a `Gran`: every builtin and DSL granularity must
//! compile (zero fallbacks), and every answer served from a compiled
//! table — resolution, next-tick, and tick conversion — must agree
//! bit-for-bit with the raw interval arithmetic (periodic fast path
//! disabled). `compiled_tables_are_exact_on_every_period_kind` checks
//! whole periods exhaustively; the proptests sample the rest.
//!
//! The enable flag is process-wide, so every test in this binary
//! serializes on one lock; other test binaries run in their own process.

use std::sync::OnceLock;

use parking_lot::Mutex;
use proptest::prelude::*;
use tgm_granularity::{
    builtin, convert_tick, periodic, tick_covers, Calendar, Gran, Granularity, PeriodicTable, Tick,
};

const DAY: i64 = 86_400;

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// DSL expressions exercising every compiler shape: uniform, anchored
/// uniform, month-based, filtered days with exceptions, day windows, and
/// grouped granularities.
const DSL_CORPUS: &[&str] = &[
    "weeks starting wed",
    "fiscal-years starting apr",
    "quarters starting feb",
    "90 minutes",
    "days mon,wed,fri",
    "business-days except 2000-01-17,2000-07-04",
    "weekends",
    "hours 9..17 of business-days",
    "trading-hours except 2000-01-17",
];

/// Shared handles (compiled once for the whole binary): the standard
/// calendar with holidays, the DSL corpus, and builtins and legacy specs
/// the calendar does not register.
fn corpus() -> &'static [Gran] {
    static CORPUS: OnceLock<Vec<Gran>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut grans: Vec<Gran> = Calendar::with_holidays(vec![4, 17, 200, 366])
            .iter()
            .cloned()
            .collect();
        for expr in DSL_CORPUS {
            grans.push(Gran::from_expr(expr).unwrap());
        }
        grans.push(Gran::new(builtin::trading_hours(vec![4, 17])));
        grans.push(Gran::new(builtin::Months::with_anchor(
            "fiscal-year",
            12,
            3,
        )));
        for spec in ["90 minute", "days(mon,wed,fri)", "days(sat,sun) into week"] {
            grans.push(tgm_granularity::parse::parse_granularity(spec).unwrap());
        }
        grans
    })
}

/// The ticks the exhaustive check walks in `t`'s domain: the first and
/// last period, two consecutive clean periods (the two before the
/// exception window, or two mid-domain), and every exception tick.
fn exhaustive_ticks(t: &PeriodicTable) -> Vec<Tick> {
    let (lo, hi) = t.tick_domain();
    let n = t.ticks_per_period();
    let mut ticks: Vec<Tick> = (lo..lo + n).chain(hi - n + 1..=hi).collect();
    match t.exception_tick_range() {
        Some((e_lo, e_hi)) => ticks.extend((e_lo - 2 * n..e_lo).chain(e_lo..=e_hi)),
        None => {
            let mid = lo + ((hi - lo + 1) / n / 2 - 1) * n;
            ticks.extend(mid..mid + 2 * n);
        }
    }
    ticks
}

/// Exhaustive compiled ≡ raw check over whole periods of every corpus
/// granularity: each walked tick's compiled intervals equal the raw ones,
/// and the compiled covering tick equals the raw one at each interval's
/// start − 1, start, end and end + 1. The raw side is
/// [`Gran::granularity`] with the fast path off, so composite DSL
/// granularities resolve their children raw too.
#[test]
fn compiled_tables_are_exact_on_every_period_kind() {
    let _serial = TEST_LOCK.lock();
    for g in corpus() {
        periodic::set_enabled(true);
        let table = g
            .compiled()
            .unwrap_or_else(|| panic!("{} did not compile", g.name()));
        let (lo, hi) = table.tick_domain();
        let ticks = exhaustive_ticks(&table);
        periodic::set_enabled(false);
        let raw = g.granularity();
        for z in ticks {
            let set = table
                .tick_intervals(z)
                .unwrap_or_else(|| panic!("{}: in-domain tick {z} delegated", g.name()));
            assert_eq!(
                Some(&set),
                raw.tick_intervals(z).as_ref(),
                "{}: tick {z}",
                g.name()
            );
            for iv in set.intervals() {
                for x in [iv.start - 1, iv.start, iv.end, iv.end + 1] {
                    match table.covering_tick(x) {
                        Some(ans) => {
                            assert_eq!(ans, raw.covering_tick(x), "{}: covering({x})", g.name())
                        }
                        // Only the domain's edge ticks may reach past it.
                        None => assert!(z == lo || z == hi, "{}: {x} delegated", g.name()),
                    }
                }
            }
        }
    }
    periodic::set_enabled(true);
}

/// Every granularity of the default registry and the DSL corpus compiles —
/// the raw path serves only outside a table's domain, and nothing falls
/// back.
#[test]
fn every_standard_granularity_compiles() {
    let _serial = TEST_LOCK.lock();
    periodic::set_enabled(true);
    periodic::reset_stats();
    for g in Calendar::with_holidays(vec![4, 17, 200, 366]).iter() {
        assert!(
            g.compiled().is_some(),
            "{} fell back to the raw path",
            g.name()
        );
    }
    for expr in DSL_CORPUS {
        let g = Gran::from_expr(expr).unwrap();
        assert!(g.compiled().is_some(), "{expr} fell back to the raw path");
    }
    let stats = periodic::stats();
    assert_eq!(stats.fallback, 0, "unexpected fallbacks: {stats:?}");
    assert!(stats.compiled > 0);
}

proptest! {
    /// covering_tick / tick_intervals / next_tick_at_or_after served by the
    /// compiled table == the raw interval arithmetic, plus the two-view
    /// round trip (the covering tick's interval set contains the instant).
    #[test]
    fn compiled_resolution_agrees_with_direct(
        t in -400i64 * DAY..400 * DAY,
        z in -3_000i64..3_000,
    ) {
        let _serial = TEST_LOCK.lock();
        for g in corpus() {
            periodic::set_enabled(true);
            prop_assert!(g.compiled().is_some(), "{} did not compile", g.name());
            let cov_fast = g.covering_tick(t);
            let ints_fast = g.tick_intervals(z);
            let next_fast = g.next_tick_at_or_after(t);
            periodic::set_enabled(false);
            let cov_direct = g.covering_tick(t);
            let ints_direct = g.tick_intervals(z);
            let next_direct = g.next_tick_at_or_after(t);
            periodic::set_enabled(true);
            prop_assert_eq!(cov_direct, cov_fast, "{}: covering_tick({t})", g.name());
            prop_assert_eq!(&ints_direct, &ints_fast, "{}: tick_intervals({z})", g.name());
            prop_assert_eq!(next_direct, next_fast, "{}: next_tick_at_or_after({t})", g.name());
            if let Some(zc) = cov_fast {
                let ints = g.tick_intervals(zc);
                prop_assert!(
                    ints.as_ref().is_some_and(|s| s.contains(t)),
                    "{}: tick {zc} does not contain {t}", g.name()
                );
            }
        }
    }

    /// Closed-form table-to-table conversion == the direct covering-tick
    /// conversion, and the result satisfies the paper's `tick_covers`
    /// two-view consistency.
    #[test]
    fn compiled_conversion_agrees_with_direct(
        z in -2_000i64..2_000,
        i in 0usize..64,
        j in 0usize..64,
    ) {
        let _serial = TEST_LOCK.lock();
        let grans = corpus();
        let src = &grans[i % grans.len()];
        let dst = &grans[j % grans.len()];
        periodic::set_enabled(true);
        prop_assert!(src.compiled().is_some() && dst.compiled().is_some());
        let fast = src.convert_tick_to(z, dst);
        periodic::set_enabled(false);
        let direct = convert_tick(src, z, dst);
        let covers_direct = fast.map(|zt| tick_covers(dst, zt, src, z));
        periodic::set_enabled(true);
        prop_assert_eq!(direct, fast, "{} -> {} at {z}", src.name(), dst.name());
        if let Some(zt) = fast {
            prop_assert_eq!(covers_direct, Some(true), "two-view direct");
            prop_assert!(
                tick_covers(dst, zt, src, z),
                "{} tick {zt} must cover {} tick {z}", dst.name(), src.name()
            );
        }
    }
}

/// Toggling the periodic fast path mid-stream never changes answers: warm
/// tables left behind by one mode cannot leak wrong results into the other.
#[test]
fn disabling_mid_stream_keeps_results_identical() {
    let _serial = TEST_LOCK.lock();
    let g = Gran::from_expr("hours 9..17 of business-days except 2000-01-17").unwrap();
    periodic::set_enabled(true);
    assert!(g.compiled().is_some());
    for t in (-40 * DAY..40 * DAY).step_by(7_919) {
        periodic::set_enabled(true);
        let fast = g.covering_tick(t);
        periodic::set_enabled(false);
        let direct = g.covering_tick(t);
        periodic::set_enabled(true);
        assert_eq!(fast, direct, "t = {t}");
    }
}
