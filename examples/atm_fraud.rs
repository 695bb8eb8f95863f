//! ATM transaction analysis (paper §1 motivation): find account-activity
//! patterns with quantitative bounds in the *right* granularity — "a large
//! withdrawal on the same day as a PIN failure" is not the same thing as
//! "within 24 hours".
//!
//! Run with `cargo run --release --example atm_fraud`.

use tgm::events::gen::{atm_transactions, with_planted, AtmConfig};
use tgm::prelude::*;

const DAY: i64 = 86_400;
const HOUR: i64 = 3_600;

fn main() {
    let cal = Calendar::standard();
    let mut reg = TypeRegistry::new();
    let mut seq = atm_transactions(
        &AtmConfig {
            customers: 12,
            days: 120,
            txns_per_day: 0.8,
            seed: 0xF00D,
        },
        &mut reg,
    );
    let pin_fail = reg.get("pin-failure").unwrap();
    let large = reg.get("large-withdrawal").unwrap();

    // Plant a fraud signature after most PIN failures: a large withdrawal
    // 1-3 hours later the same day.
    let mut groups = Vec::new();
    for (i, e) in seq.occurrences_of(pin_fail).enumerate() {
        if i % 5 == 0 {
            continue; // 80% of failures are followed by the signature
        }
        let offset = (1 + (i as i64 % 3)) * HOUR;
        let t = (e.time + offset).min((e.time / DAY) * DAY + DAY - 1);
        groups.push(vec![(large, t)]);
    }
    // Also plant cross-midnight impostors: a PIN failure at 22:30 followed
    // by a large withdrawal at 01:00 the next day — within 4 hours, but not
    // the same day.
    for d in (10..110i64).step_by(9) {
        groups.push(vec![
            (pin_fail, d * DAY + 22 * HOUR + 1_800),
            (large, (d + 1) * DAY + HOUR),
        ]);
    }
    seq = with_planted(&seq, &groups);
    println!(
        "{} events, {} PIN failures, {} large withdrawals",
        seq.len(),
        seq.count_of(pin_fail),
        seq.count_of(large)
    );

    // The fraud pattern: pin-failure -> large-withdrawal within [0,4] hours
    // AND the same day.
    let mut b = StructureBuilder::new();
    let x0 = b.var("pin-failure");
    let x1 = b.var("follow-up");
    b.constrain(x0, x1, Tcg::new(0, 4, cal.get("hour").unwrap()));
    b.constrain(x0, x1, Tcg::new(0, 0, cal.get("day").unwrap()));
    let s = b.build().unwrap();

    let problem = DiscoveryProblem::new(s, 0.5, pin_fail);
    let (solutions, stats) = pipeline::mine(&problem, &seq);
    println!(
        "\ncandidates {} -> {}, {} TAG runs",
        stats.candidates_initial, stats.candidates_scanned, stats.tag_runs
    );
    println!("\nEvent types frequently following a PIN failure (same day, <= 4h):");
    for sol in &solutions {
        println!(
            "  {:<20} frequency {:.2} (support {}/{})",
            reg.name(sol.assignment[1]),
            sol.frequency,
            sol.support,
            stats.refs_total
        );
    }
    assert!(
        solutions.iter().any(|s| s.assignment[1] == large),
        "the planted fraud signature must surface"
    );

    // Now deploy the signature as a *live monitor*: two long-lived
    // MatchSessions consume the transaction feed incrementally, one with
    // the paper's same-day granularity constraint and one with a naive
    // flat 4-hour rule that ignores day boundaries. Streaming replay is
    // bit-identical to the batch matcher, so the difference between the
    // two alert streams is exactly the cross-midnight false positives.
    let fraud_tag = {
        let mut b = StructureBuilder::new();
        let x0 = b.var("pin-failure");
        let x1 = b.var("follow-up");
        b.constrain(x0, x1, Tcg::new(0, 4, cal.get("hour").unwrap()));
        b.constrain(x0, x1, Tcg::new(0, 0, cal.get("day").unwrap()));
        build_tag(&ComplexEventType::new(b.build().unwrap(), vec![pin_fail, large]))
    };
    let naive_tag = {
        let mut b = StructureBuilder::new();
        let x0 = b.var("pin-failure");
        let x1 = b.var("follow-up");
        b.constrain(x0, x1, Tcg::new(0, 4 * HOUR as u64, cal.get("second").unwrap()));
        build_tag(&ComplexEventType::new(b.build().unwrap(), vec![pin_fail, large]))
    };
    let mut strict = MatchSession::new(&fraud_tag);
    let mut naive = MatchSession::new(&naive_tag);
    let mut strict_alerts = Vec::new();
    let mut naive_alerts = Vec::new();
    for chunk in seq.events().chunks(128) {
        strict.push_batch(chunk);
        naive.push_batch(chunk);
        strict_alerts.extend(strict.completed().map(|c| c.at));
        naive_alerts.extend(naive.completed().map(|c| c.at));
    }
    let false_positives: Vec<i64> = naive_alerts
        .iter()
        .copied()
        .filter(|t| !strict_alerts.contains(t))
        .collect();
    println!(
        "\nlive monitors over {} events: same-day rule raised {} alerts \
         (frontier peak {}); flat 4h rule raised {}",
        strict.stats().events,
        strict_alerts.len(),
        strict.stats().peak_frontier,
        naive_alerts.len()
    );
    println!(
        "cross-midnight withdrawals only the flat 4h rule flags: {}",
        false_positives.len()
    );
    assert!(!strict_alerts.is_empty(), "the planted signatures must alert");
    assert!(
        !false_positives.is_empty(),
        "the cross-midnight impostors must separate the two rules"
    );
    // Every disputed alert really does cross midnight: no same-day PIN
    // failure precedes it within the window.
    let same_day = Tcg::new(0, 0, cal.get("day").unwrap());
    for &t in &false_positives {
        assert!(
            !seq.occurrences_of(pin_fail)
                .any(|f| t - f.time >= 0 && t - f.time <= 4 * HOUR && same_day.satisfied(f.time, t)),
            "alert at {t} should not have a same-day trigger"
        );
    }
    println!("every disputed alert verified to cross a midnight boundary — not fraud-signature matches.");
}
