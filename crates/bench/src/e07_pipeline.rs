//! E7 — §5 steps 1–5: the optimized discovery pipeline against the naive
//! algorithm on a stock workload with planted Example-1 events, with the
//! §5 funnel of every run. The paper claims "in practice, the reduction
//! produced by steps 1–4 makes the mining process effective".

use tgm_core::VarId;
use tgm_mining::pipeline::{mine_with, PipelineOptions, PipelineStats};
use tgm_mining::{naive, DiscoveryProblem};

use crate::workloads::daily_stock_workload;
use crate::{print_table, warm_median_ms};

/// Timed runs per row, after one untimed warm-up.
const REPS: usize = 5;

/// Runs E7 and prints its tables.
pub fn run() {
    println!("\n## E7 — Discovery pipeline (naive vs §5 steps 1-5)");
    let w = daily_stock_workload(365, &["SUN", "DEC"], 0.85, 7);
    // Discovery problem of Example 2: what fills X1..X3 between IBM rises
    // and (constrained) falls? X3 pinned to IBM-fall as in the paper.
    let problem = DiscoveryProblem::new(w.cet.structure().clone(), 0.6, w.types.ibm_rise)
        .with_candidates(VarId(3), [w.types.ibm_fall]);

    let ((naive_sols, nstats), naive_ms) =
        warm_median_ms(REPS, || naive::mine(&problem, &w.sequence));
    let mut rows: Vec<Vec<String>> = vec![vec![
        "naive (§5 baseline)".into(),
        format!("{0}/{0}", w.sequence.len()),
        "-".into(),
        format!("{0} → {0} → {0}", nstats.candidates),
        nstats.tag_runs.to_string(),
        format!("{naive_ms:.1}"),
        naive_sols.len().to_string(),
    ]];

    let configs = [
        ("steps 1-5 (default)", 0),
        ("+ induced chain screening (k <= 2, TAGs)", 2),
        ("+ induced chain screening (k <= 3, TAGs)", 3),
    ];
    for (label, chain_screening_k) in configs {
        let opts = PipelineOptions { chain_screening_k };
        let ((sols, stats), ms) = warm_median_ms(REPS, || mine_with(&problem, &w.sequence, &opts));
        assert_eq!(
            sols, naive_sols,
            "pipeline config `{label}` must agree with naive"
        );
        rows.push(funnel_row(label, &stats, ms, sols.len()));
    }
    print_table(
        "Funnel on a 365-day daily stock stream, Example-1 pattern planted after 85% of IBM rises (ϑ = 0.6)",
        &FUNNEL_HEADER,
        &rows,
    );
    println!(
        "\nSolutions found: {:?}",
        naive_sols
            .iter()
            .map(|s| {
                s.assignment
                    .iter()
                    .map(|&t| w.registry.name(t).to_owned())
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .collect::<Vec<_>>()
    );
    weekend_noise_variant();
}

/// A workload where steps 2 and 3 genuinely bite: business-day
/// constraints with heavy weekend noise and weekend-stranded references.
fn weekend_noise_variant() {
    use tgm_core::{StructureBuilder, Tcg};
    use tgm_events::gen::{poisson_noise, with_planted};
    use tgm_events::TypeRegistry;
    use tgm_granularity::{weekday_from_days, Calendar, Weekday};

    const DAY: i64 = 86_400;
    let cal = Calendar::standard();
    let mut reg = TypeRegistry::new();
    let alarm = reg.intern("alarm");
    let followup = reg.intern("follow-up");
    let weekend_chatter = reg.intern("weekend-chatter");

    // alarm -> follow-up on the next business day.
    let mut b = StructureBuilder::new();
    let x0 = b.var("X0");
    let x1 = b.var("X1");
    b.constrain(x0, x1, Tcg::new(1, 1, cal.get("business-day").unwrap()));
    let s = b.build().unwrap();

    // Alarms every weekday (follow-up planted 80% of the time) AND every
    // weekend day (never matchable: no business-day tick); weekend-only
    // chatter dominates the event count.
    let mut events: Vec<(tgm_events::EventType, i64)> = Vec::new();
    let mut rng_flip = 0u32;
    for d in 0..365i64 {
        let weekend = matches!(weekday_from_days(d), Weekday::Sat | Weekday::Sun);
        events.push((alarm, d * DAY + 8 * 3_600));
        if !weekend {
            rng_flip = rng_flip.wrapping_mul(1664525).wrapping_add(1013904223);
            if rng_flip % 10 < 8 {
                let next_bday = (d + 1..)
                    .find(|&x| !matches!(weekday_from_days(x), Weekday::Sat | Weekday::Sun))
                    .unwrap();
                events.push((followup, next_bday * DAY + 9 * 3_600));
            }
        }
    }
    let noise = poisson_noise(&[weekend_chatter], 1_800.0, 0, 365 * DAY, 99);
    let noise = noise.filtered(|e| {
        matches!(
            weekday_from_days(e.time.div_euclid(DAY)),
            Weekday::Sat | Weekday::Sun
        )
    });
    let seq = with_planted(&noise, &[events]);

    let problem = DiscoveryProblem::new(s, 0.4, alarm);
    let opts = PipelineOptions::default();
    let ((sols, stats), ms) = warm_median_ms(REPS, || mine_with(&problem, &seq, &opts));
    assert_eq!(
        sols,
        naive::mine(&problem, &seq).0,
        "pipeline must agree with naive"
    );
    print_table(
        "Steps 2-3 on a weekend-noise workload (b-day constraint, ϑ = 0.4)",
        &FUNNEL_HEADER,
        &[funnel_row("steps 1-5 (default)", &stats, ms, sols.len())],
    );
}

/// The columns of every E7 table: the §5 funnel of one run.
const FUNNEL_HEADER: [&str; 7] = [
    "configuration",
    "events kept",
    "refs kept",
    "candidates (initial → k=1 → scanned)",
    "TAG runs",
    "ms",
    "solutions",
];

/// A [`FUNNEL_HEADER`] row; the TAG runs include chain screening's.
fn funnel_row(label: &str, stats: &PipelineStats, ms: f64, solutions: usize) -> Vec<String> {
    vec![
        label.into(),
        format!("{}/{}", stats.events_kept, stats.events_total),
        format!("{}/{}", stats.refs_kept, stats.refs_total),
        format!(
            "{} → {} → {}",
            stats.candidates_initial, stats.candidates_after_var_screen, stats.candidates_scanned
        ),
        (stats.tag_runs + stats.screening_tag_runs).to_string(),
        format!("{ms:.1}"),
        solutions.to_string(),
    ]
}
