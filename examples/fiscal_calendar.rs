//! Custom calendars via the granularity grammar: a fiscal year starting
//! in April, fiscal quarters, and discovery relative to "the beginning of a
//! fiscal quarter" (the paper's §6 generalized-reference extension).
//!
//! Run with `cargo run --release --example fiscal_calendar`.

use tgm::events::stats::render_summary;
use tgm::granularity::builtin::Months;
use tgm::granularity::parse::parse_granularity;
use tgm::granularity::format_instant;
use tgm::mining::{mine_with_reference, Reference};
use tgm::prelude::*;

const DAY: i64 = 86_400;
const HOUR: i64 = 3_600;

fn main() {
    // A fiscal calendar: FY starts April 1st, quarters follow it.
    let mut cal = Calendar::standard();
    let fy = parse_granularity("fiscal-years starting apr").expect("valid spec");
    let fq = parse_granularity("quarters starting apr").expect("valid spec");
    cal.register(fy.clone()).unwrap();
    cal.register(fq.clone()).unwrap();
    // Both lower to the month-grouping builtin anchored at April 2000 —
    // same ticks.
    let fq_builtin = Gran::new(Months::with_anchor("fiscal-quarter", 3, 3));
    for z in [-4, 1, 2, 9] {
        assert_eq!(fq.tick_intervals(z), fq_builtin.tick_intervals(z));
    }
    println!(
        "fiscal year 1:    {} .. {}",
        format_instant(fy.tick_intervals(1).unwrap().min()),
        format_instant(fy.tick_intervals(1).unwrap().max())
    );
    println!(
        "fiscal quarter 1: {} .. {}",
        format_instant(fq.tick_intervals(1).unwrap().min()),
        format_instant(fq.tick_intervals(1).unwrap().max())
    );

    // TCGs in fiscal granularities behave like any other: "same fiscal
    // year" and "next fiscal quarter".
    let same_fy = Tcg::new(0, 0, fy.clone());
    let next_fq = Tcg::new(1, 1, fq.clone());
    let t_may = tgm::granularity::instant(2000, 5, 10, 12, 0, 0);
    let t_aug = tgm::granularity::instant(2000, 8, 2, 9, 0, 0);
    let t_feb = tgm::granularity::instant(2001, 2, 1, 9, 0, 0);
    println!("\nMay-2000 -> Aug-2000: same FY = {}, next FQ = {}",
        same_fy.satisfied(t_may, t_aug), next_fq.satisfied(t_may, t_aug));
    println!("May-2000 -> Feb-2001: same FY = {} (fiscal years run Apr..Mar)",
        same_fy.satisfied(t_may, t_feb));

    // Synthesize two fiscal years of bookkeeping: a `close-books` event in
    // the first 5 days of almost every fiscal quarter, plus audits and
    // noise.
    let mut reg = TypeRegistry::new();
    let close = reg.intern("close-books");
    let audit = reg.intern("audit");
    let misc = reg.intern("misc");
    let mut sb = SequenceBuilder::new();
    for q in 1..=8i64 {
        let Some(start) = fq.tick_intervals(q).map(|s| s.min()) else { continue };
        if q != 5 {
            sb.push(close, start + 2 * DAY + 10 * HOUR);
        }
        if q % 2 == 0 {
            sb.push(audit, start + 20 * DAY);
        }
        sb.push(misc, start + 40 * DAY);
    }
    let seq = sb.build();
    println!("\n{}", render_summary(&seq, &reg));

    // "What happens in the first business week of most fiscal quarters?"
    let mut b = StructureBuilder::new();
    let q_start = b.var("fq-start");
    let what = b.var("what");
    b.constrain(q_start, what, Tcg::new(0, 0, fq));
    b.constrain(q_start, what, Tcg::new(0, 5, cal.get("day").unwrap()));
    let s = b.build().unwrap();

    let (ref_ty, sols, stats) = mine_with_reference(
        s,
        0.7,
        &Reference::TickStart(cal.get("quarters starting apr").unwrap()),
        &seq,
        &mut reg,
        &tgm::mining::pipeline::PipelineOptions::default(),
    );
    println!(
        "reference: {} ({} occurrences)",
        reg.name(ref_ty),
        stats.refs_total
    );
    println!("frequent starts-of-fiscal-quarter events (> 70% of quarters):");
    for sol in &sols {
        println!(
            "  {:<16} frequency {:.2}",
            reg.name(sol.assignment[1]),
            sol.frequency
        );
    }
    assert!(
        sols.iter().any(|s| s.assignment[1] == close),
        "close-books must be discovered"
    );
}
