//! Industrial-plant telemetry (paper §1 motivation): discover the
//! malfunction cascade embedded in the sensor stream — a temperature spike,
//! a pressure drop a few hours later, and a valve fault the *next calendar
//! day* (not "within 24 hours").
//!
//! Run with `cargo run --release --example plant_monitoring`.

use tgm::events::gen::{plant_telemetry, PlantConfig};
use tgm::prelude::*;

fn main() {
    let cal = Calendar::standard();
    let mut reg = TypeRegistry::new();
    let seq = plant_telemetry(
        &PlantConfig {
            days: 365,
            cascade_period_days: 4.0,
            noise_per_day: 4.0,
            seed: 0xBEEF,
        },
        &mut reg,
    );
    let temp = reg.get("temp-spike").unwrap();
    println!(
        "{} events over one year; {} temperature spikes",
        seq.len(),
        seq.count_of(temp)
    );

    // Hypothesis structure: spike -> ? within [2,6] hours, then ? on the
    // next calendar day.
    let mut b = StructureBuilder::new();
    let x0 = b.var("spike");
    let x1 = b.var("soon-after");
    let x2 = b.var("next-day");
    b.constrain(x0, x1, Tcg::new(0, 6, cal.get("hour").unwrap()));
    b.constrain(x0, x1, Tcg::new(0, 0, cal.get("day").unwrap()));
    b.constrain(x1, x2, Tcg::new(1, 1, cal.get("day").unwrap()));
    let s = b.build().unwrap();
    let monitor_structure = s.clone();

    // Which (X1, X2) type pairs complete the cascade for >= 70% of spikes?
    let problem = DiscoveryProblem::new(s, 0.7, temp);
    let (solutions, stats) = pipeline::mine(&problem, &seq);
    println!(
        "candidates {} -> {} after screening; {} TAG runs over {} spikes",
        stats.candidates_initial,
        stats.candidates_scanned,
        stats.tag_runs,
        stats.refs_total
    );
    println!("\nDiscovered cascades (frequency > 0.7 per spike):");
    for sol in &solutions {
        println!(
            "  spike -> {:<14} -> {:<12} frequency {:.2}",
            reg.name(sol.assignment[1]),
            reg.name(sol.assignment[2]),
            sol.frequency
        );
    }
    let pressure = reg.get("pressure-drop").unwrap();
    let valve = reg.get("valve-fault").unwrap();
    assert!(
        solutions
            .iter()
            .any(|s| s.assignment[1] == pressure && s.assignment[2] == valve),
        "the generator's embedded cascade must be discovered"
    );
    println!("\nThe embedded temp-spike -> pressure-drop -> valve-fault cascade was recovered.");

    // Deploy the discovered cascade as a *live monitor*: one long-lived
    // MatchSession consumes the telemetry feed incrementally (here in
    // day-sized chunks), raising an alert at every completed occurrence.
    // Per-state clock extrapolation keeps the frontier bounded over the
    // unbounded stream — a partial match whose clock has drifted past
    // every remaining TCG window merges with its equivalents.
    let cet = ComplexEventType::new(monitor_structure, vec![temp, pressure, valve]);
    let tag = build_tag(&cet);
    let mut monitor = MatchSession::new(&tag);
    let mut alerts = 0u64;
    for day_chunk in seq.events().chunks(96) {
        monitor.push_batch(day_chunk);
        for c in monitor.completed() {
            alerts += 1;
            if alerts <= 3 {
                println!(
                    "  ALERT: cascade completed at stream event #{} (t = {})",
                    c.index, c.at
                );
            }
        }
    }
    let stats = monitor.stats();
    println!(
        "\nlive monitor: {} events streamed, {} alerts; frontier {} live / {} peak",
        stats.events, alerts, stats.frontier, stats.peak_frontier
    );
    assert!(alerts > 0, "the embedded cascades must alert the live monitor");
}
