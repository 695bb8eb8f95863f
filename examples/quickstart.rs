//! Quickstart: build a multi-granularity temporal pattern, check it,
//! compile it to a timed automaton, and find it in an event stream.
//!
//! Run with `cargo run --example quickstart`.

use tgm::prelude::*;

const DAY: i64 = 86_400;
const HOUR: i64 = 3_600;

fn main() -> Result<(), Error> {
    // 1. A calendar of granularities (second/hour/day/week/month/...,
    //    business days, business weeks, weekends).
    let cal = Calendar::standard();

    // 2. An event structure: "a deploy, then an alert within 4 to 12 hours,
    //    on the same business day".
    let mut b = StructureBuilder::new();
    let deploy = b.var("deploy");
    let alert = b.var("alert");
    b.constrain(deploy, alert, Tcg::new(4, 12, cal.get("hour")?));
    b.constrain(deploy, alert, Tcg::new(0, 0, cal.get("business-day")?));
    let structure = b.build()?;
    println!("structure:\n{structure:?}");

    // 3. Consistency: sound polynomial propagation (paper §3.2) derives
    //    implied constraints and refutes contradictions.
    let p = propagate(&structure);
    println!("propagation refuted: {}", !p.is_consistent());
    println!(
        "derived window (seconds): {:?}",
        p.seconds_window(deploy, alert).unwrap()
    );

    // 4. Exact (horizon-bounded) consistency with a witness (paper Thm 1 is
    //    NP-hard, so this is exponential in general).
    match exact_check(&structure)? {
        ExactOutcome::Consistent(witness) => {
            println!("exact witness timestamps: {witness:?}")
        }
        ExactOutcome::InconsistentWithinHorizon => println!("inconsistent"),
    }

    // 5. Compile to a timed automaton with granularities (paper §4) and
    //    match against an event stream.
    let mut reg = TypeRegistry::new();
    let deploy_ty = reg.intern("deploy");
    let alert_ty = reg.intern("alert");
    let noise_ty = reg.intern("heartbeat");
    let cet = ComplexEventType::new(structure.clone(), vec![deploy_ty, alert_ty]);
    let tag = build_tag(&cet);
    println!(
        "TAG: {} states, {} clocks, {} transitions",
        tag.n_states(),
        tag.clocks().len(),
        tag.n_transitions()
    );

    // Monday 2000-01-03 09:00 deploy, 15:00 alert (6h later, same b-day).
    let monday = 2 * DAY;
    let mut sb = SequenceBuilder::new();
    sb.push(deploy_ty, monday + 9 * HOUR);
    sb.push(noise_ty, monday + 11 * HOUR);
    sb.push(alert_ty, monday + 15 * HOUR);
    // A Friday deploy whose alert lands on Saturday: NOT the same b-day.
    let friday = 6 * DAY;
    sb.push(deploy_ty, friday + 20 * HOUR);
    sb.push(alert_ty, friday + 28 * HOUR);
    let seq = sb.build();

    // Resolve every event's tick per clock granularity once (the shared
    // resolution layer); the matcher reads the columns instead of
    // repeating calendar arithmetic.
    let grans: Vec<Gran> = tag.clocks().iter().map(|(_, g)| g.clone()).collect();
    let cols = TickColumns::build(seq.events(), &grans);
    let matcher = Matcher::new(&tag);
    let mut scratch = MatcherScratch::new();
    let mut ctx = RunCtx {
        cols: Some((&cols, 0)),
        ..RunCtx::new(&mut scratch)
    };
    println!(
        "stream matches pattern: {}",
        matcher.run_in(seq.events(), true, &mut ctx).stats.accepted
    );

    // 6. Discovery (paper §5): which alert-like types frequently follow
    //    deploys under these constraints?
    let problem = DiscoveryProblem::new(structure, 0.4, deploy_ty);
    let (solutions, stats) = pipeline::mine(&problem, &seq);
    for sol in &solutions {
        let names: Vec<&str> = sol.assignment.iter().map(|&t| reg.name(t)).collect();
        println!(
            "frequent: {:?} (frequency {:.2}, support {})",
            names, sol.frequency, sol.support
        );
    }
    println!(
        "pipeline stats: {} candidates scanned, {} TAG runs",
        stats.candidates_scanned, stats.tag_runs
    );
    let compile = periodic::stats();
    println!(
        "granularity tables: {} compiled, {} left on the raw calendar",
        compile.compiled, compile.fallback
    );
    Ok(())
}
