//! Shared synthetic workloads for the experiments: a stock-ticker stream
//! with planted occurrences of the paper's Example 1 complex event, the
//! grouped-granularity chain over it, and seeded uniform event streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tgm_core::examples::{example_1, Example1Types};
use tgm_core::{ComplexEventType, StructureBuilder, Tcg};
use tgm_events::gen::{stock_market, with_planted, StockMarketConfig};
use tgm_events::{Event, EventSequence, EventType, TypeRegistry};
use tgm_granularity::{weekday_from_days, Calendar, Weekday};

const DAY: i64 = 86_400;

/// A stock workload with Example-1 occurrences planted after a fraction of
/// the IBM-rise events.
pub struct PlantedWorkload {
    /// Interned event types.
    pub registry: TypeRegistry,
    /// The generated sequence.
    pub sequence: EventSequence,
    /// Example 1's complex event type over `registry`.
    pub cet: ComplexEventType,
    /// The event types of Example 1.
    pub types: Example1Types,
    /// Number of planted occurrences.
    pub planted: usize,
}

/// Builds a *daily* stock workload suited to discovery experiments: each
/// business day every symbol emits exactly one of `<sym>-rise` /
/// `<sym>-fall` around 10:00, and a fraction `plant_rate` of the IBM-rise
/// days receives a full Example-1 occurrence rooted at that rise (report
/// the next business day 09:00, HP rise two business days later 06:00,
/// IBM fall the same day 11:00).
pub fn daily_stock_workload(
    days: i64,
    extra_symbols: &[&str],
    plant_rate: f64,
    seed: u64,
) -> PlantedWorkload {
    let cal = Calendar::standard();
    let mut registry = TypeRegistry::new();
    let (cet, types) = example_1(&cal, &mut registry);
    let mut symbols = vec!["IBM".to_owned(), "HP".to_owned()];
    symbols.extend(extra_symbols.iter().map(|s| (*s).to_owned()));
    let sym_types: Vec<(tgm_events::EventType, tgm_events::EventType)> = symbols
        .iter()
        .map(|s| {
            (
                registry.intern(&format!("{s}-rise")),
                registry.intern(&format!("{s}-fall")),
            )
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = tgm_events::SequenceBuilder::new();
    let mut groups: Vec<Vec<(tgm_events::EventType, i64)>> = Vec::new();
    let bdays: Vec<i64> = (0..days)
        .filter(|&d| !matches!(weekday_from_days(d), Weekday::Sat | Weekday::Sun))
        .collect();
    let next_bday = |d: i64| -> i64 {
        (d + 1..d + 5)
            .find(|&x| !matches!(weekday_from_days(x), Weekday::Sat | Weekday::Sun))
            .expect("a business day within 4 days")
    };
    let mut planted = 0usize;
    for &d in &bdays {
        let mut ibm_rise_today = false;
        for (si, &(rise, fall)) in sym_types.iter().enumerate() {
            let ty = if rng.gen_bool(0.5) { rise } else { fall };
            b.push(ty, d * DAY + 10 * 3_600 + si as i64 * 60);
            if si == 0 && ty == rise {
                ibm_rise_today = true;
            }
        }
        if ibm_rise_today && rng.gen_bool(plant_rate) && d + 7 < days {
            let root = d * DAY + 10 * 3_600;
            let d1 = next_bday(d);
            let d2 = next_bday(d1);
            groups.push(vec![
                (types.ibm_report, d1 * DAY + 9 * 3_600),
                (types.hp_rise, d2 * DAY + 6 * 3_600),
                (types.ibm_fall, d2 * DAY + 11 * 3_600),
            ]);
            planted += 1;
            let _ = root;
        }
    }
    let sequence = with_planted(&b.build(), &groups);
    PlantedWorkload {
        registry,
        sequence,
        cet,
        types,
        planted,
    }
}

/// Builds the workload: `days` of background ticker data for the given
/// symbols plus `planted` Example-1 occurrences rooted at Monday/Tuesday
/// rises.
pub fn planted_stock_workload(
    days: i64,
    extra_symbols: &[&str],
    planted: usize,
    seed: u64,
) -> PlantedWorkload {
    let cal = Calendar::standard();
    let mut registry = TypeRegistry::new();
    let (cet, types) = example_1(&cal, &mut registry);
    let mut symbols = vec!["IBM".to_owned(), "HP".to_owned()];
    symbols.extend(extra_symbols.iter().map(|s| (*s).to_owned()));
    let cfg = StockMarketConfig {
        symbols,
        days,
        tick_minutes: 60,
        report_period_bdays: 40,
        seed,
        ..StockMarketConfig::default()
    };
    let background = stock_market(&cfg, &mut registry);

    // Plant occurrences rooted at Mondays: rise Mon 10:00, report Tue
    // 09:00, HP rise Thu 06:00, fall Thu 11:00 (the Figure 1(a) witness
    // shape shifted week by week).
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37);
    let mut groups = Vec::new();
    let mondays: Vec<i64> = (0..days)
        .filter(|&d| weekday_from_days(d) == Weekday::Mon)
        .collect();
    for k in 0..planted {
        let monday = mondays[k % mondays.len()] * DAY;
        let jitter = rng.gen_range(0i64..1_800);
        groups.push(vec![
            (types.ibm_rise, monday + 10 * 3_600 + jitter),
            (types.ibm_report, monday + DAY + 9 * 3_600 + jitter),
            (types.hp_rise, monday + 3 * DAY + 6 * 3_600 + jitter),
            (types.ibm_fall, monday + 3 * DAY + 11 * 3_600 + jitter),
        ]);
    }
    let sequence = with_planted(&background, &groups);
    PlantedWorkload {
        registry,
        sequence,
        cet,
        types,
        planted,
    }
}

/// The grouped-granularity chain `X0 →[0,1] business-week→ X1
/// →[0,1] business-month→ X2` over (IBM-rise, IBM-fall, IBM-rise): every
/// raw resolution of its clocks materializes interval sets, so it is the
/// workload where the compiled tables pay off most.
pub fn grouped_chain_cet(cal: &Calendar, types: &Example1Types) -> ComplexEventType {
    let mut sb = StructureBuilder::new();
    let x0 = sb.var("X0");
    let x1 = sb.var("X1");
    let x2 = sb.var("X2");
    sb.constrain(x0, x1, Tcg::new(0, 1, cal.get("business-week").unwrap()));
    sb.constrain(x1, x2, Tcg::new(0, 1, cal.get("business-month").unwrap()));
    let s = sb.build().unwrap();
    ComplexEventType::new(s, vec![types.ibm_rise, types.ibm_fall, types.ibm_rise])
}

/// `n` events from a 64-bit LCG seeded with `seed`, starting on Monday
/// 2000-01-03: each gap is `min_gap + r % gap_span` seconds and each type
/// is one of `EventType(0..n_types)`.
pub fn lcg_events(seed: u64, n: usize, min_gap: i64, gap_span: i64, n_types: u32) -> Vec<Event> {
    let mut state = seed;
    let mut t = 2 * DAY;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t += min_gap + (state >> 33) as i64 % gap_span;
            Event::new(EventType((state >> 7) as u32 % n_types), t)
        })
        .collect()
}
