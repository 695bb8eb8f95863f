//! E7 — §5 steps 1–5: ablation of the optimized discovery pipeline against
//! the naive algorithm on a stock workload with planted Example-1 events.
//! The paper claims "in practice, the reduction produced by steps 1–4 makes
//! the mining process effective".

use tgm_core::VarId;
use tgm_mining::pipeline::{mine_with, PipelineOptions};
use tgm_mining::{naive, DiscoveryProblem};

use crate::workloads::daily_stock_workload;
use crate::{print_table, timed};

/// Runs E7 and prints its table.
pub fn run() {
    println!("\n## E7 — Discovery pipeline ablation (naive vs steps 1-4)");
    let w = daily_stock_workload(365, &["SUN", "DEC"], 0.85, 7);
    // Discovery problem of Example 2: what fills X1..X3 between IBM rises
    // and (constrained) falls? X3 pinned to IBM-fall as in the paper.
    let problem = DiscoveryProblem::new(w.cet.structure().clone(), 0.6, w.types.ibm_rise)
        .with_candidates(VarId(3), [w.types.ibm_fall]);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let ((naive_sols, nstats), naive_ms) = timed(|| naive::mine(&problem, &w.sequence));
    rows.push(vec![
        "naive (§5 baseline)".into(),
        nstats.candidates.to_string(),
        nstats.tag_runs.to_string(),
        w.sequence.len().to_string(),
        "-".into(),
        format!("{naive_ms:.0}"),
        naive_sols.len().to_string(),
    ]);

    let configs: [(&str, PipelineOptions); 7] = [
        (
            "steps 1-5 (full pipeline)",
            PipelineOptions::default(),
        ),
        (
            "without candidate screening (step 4 off)",
            PipelineOptions::builder().candidate_screening(false).build(),
        ),
        (
            "without reference pruning (step 3 off)",
            PipelineOptions::builder().reference_pruning(false).build(),
        ),
        (
            "without sequence reduction (step 2 off)",
            PipelineOptions::builder().sequence_reduction(false).build(),
        ),
        (
            "full + pair screening (k = 2, windows)",
            PipelineOptions::builder().pair_screening(true).build(),
        ),
        (
            "full + induced chain screening (k <= 2, TAGs)",
            PipelineOptions::builder().chain_screening_k(2).build(),
        ),
        (
            "full + induced chain screening (k <= 3, TAGs)",
            PipelineOptions::builder().chain_screening_k(3).build(),
        ),
    ];
    for (label, opts) in configs {
        let ((sols, stats), ms) = timed(|| mine_with(&problem, &w.sequence, &opts));
        assert_eq!(
            sols, naive_sols,
            "pipeline config `{label}` must agree with naive"
        );
        rows.push(vec![
            label.into(),
            stats.candidates_scanned.to_string(),
            (stats.tag_runs + stats.screening_tag_runs).to_string(),
            stats.events_kept.to_string(),
            format!("{}/{}", stats.refs_kept, stats.refs_total),
            format!("{ms:.0}"),
            sols.len().to_string(),
        ]);
    }
    print_table(
        "Ablation on a 365-day daily stock stream, Example-1 pattern planted after 85% of IBM rises (ϑ = 0.6)",
        &[
            "configuration",
            "candidates scanned",
            "TAG runs",
            "events scanned",
            "refs kept",
            "ms",
            "solutions",
        ],
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
    let full = PipelineOptions::default();
    let off = PipelineOptions::builder().sequence_reduction(false).reference_pruning(false).build();
    let ((sols_on, on), ms_on) = timed(|| mine_with(&problem, &seq, &full));
    let ((sols_off, off_stats), ms_off) = timed(|| mine_with(&problem, &seq, &off));
    assert_eq!(sols_on, sols_off);
    print_table(
        "Steps 2-3 on a weekend-noise workload (b-day constraint, ϑ = 0.4)",
        &["configuration", "events scanned", "refs kept", "TAG runs", "ms", "solutions"],
        &[
            vec![
                "steps 2+3 on".into(),
                format!("{}/{}", on.events_kept, on.events_total),
                format!("{}/{}", on.refs_kept, on.refs_total),
                on.tag_runs.to_string(),
                format!("{ms_on:.0}"),
                sols_on.len().to_string(),
            ],
            vec![
                "steps 2+3 off".into(),
                format!("{}/{}", off_stats.events_kept, off_stats.events_total),
                format!("{}/{}", off_stats.refs_kept, off_stats.refs_total),
                off_stats.tag_runs.to_string(),
                format!("{ms_off:.0}"),
                sols_off.len().to_string(),
            ],
        ],
    );
}
