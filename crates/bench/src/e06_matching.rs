//! E6 — Theorem 4: TAG matching cost. The bound is
//! `O(|σ|·(|S|·min(|σ|, (|V|·K)^p))²)`; we measure wall time and frontier
//! sizes against the sequence length `|σ|`, the maximal constraint range
//! `K`, and the number of chains `p`.

use tgm_core::{ComplexEventType, StructureBuilder, Tcg};
use tgm_events::{EventSequence, TypeRegistry};
use tgm_granularity::{periodic, Calendar};
use tgm_tag::{build_tag, Matcher, MatcherScratch, RunCtx};

use crate::workloads::planted_stock_workload;
use crate::{print_table, timed};

/// Runs E6 and prints its tables.
pub fn run() {
    println!("\n## E6 — Theorem 4: TAG matching complexity");
    let cal = Calendar::standard();

    // (1) vs sequence length, matching Example 1 over stock data — the
    // resolution ablation: pre-resolved tick columns, direct resolution
    // through the compiled periodic tables, and direct resolution through
    // the raw granularities (tables off).
    let mut rows = Vec::new();
    for days in [30i64, 90, 270, 810] {
        let w = planted_stock_workload(days, &[], (days / 30) as usize, 42);
        let tag = build_tag(&w.cet);
        let m = Matcher::new(&tag);
        let events = w.sequence.events();
        let grans: Vec<_> = tag.clocks().iter().map(|(_, g)| g.clone()).collect();
        let (cols, cols_ms) = timed(|| tgm_events::TickColumns::build(events, &grans));
        let mut scratch = MatcherScratch::new();
        let mut ctx = RunCtx {
            cols: Some((&cols, 0)),
            ..RunCtx::new(&mut scratch)
        };
        let (stats_cols, run_ms) = timed(|| m.run_in(events, false, &mut ctx).stats);
        let cols_total_ms = cols_ms + run_ms;
        let (stats, ms) = timed(|| m.run(events, false));
        periodic::set_enabled(false);
        let (stats_off, ms_off) = timed(|| m.run(events, false));
        periodic::set_enabled(true);
        assert_eq!(stats, stats_off, "compiled tables are semantics-preserving");
        assert_eq!(stats, stats_cols, "columns are semantics-preserving");
        rows.push(vec![
            events.len().to_string(),
            format!("{cols_total_ms:.1}"),
            format!("{ms:.1}"),
            format!("{ms_off:.1}"),
            stats.peak_configs.to_string(),
            stats.accepted.to_string(),
        ]);
    }
    print_table(
        "Matching time vs sequence length |σ| (Example 1 TAG)",
        &[
            "events",
            "ms (columns, incl. build)",
            "ms (compiled)",
            "ms (raw)",
            "peak frontier",
            "accepted",
        ],
        &rows,
    );

    // (1b) The same ablation with *grouped* granularity clocks
    // (business-week / business-month group business days into calendar
    // frames: every raw resolution materializes interval sets and checks
    // containment), where the compiled tables pay off most.
    let bweek = cal.get("business-week").unwrap();
    let bmonth = cal.get("business-month").unwrap();
    let mut rows = Vec::new();
    for days in [30i64, 90, 270] {
        let w = planted_stock_workload(days, &[], 0, 44);
        let ibm_rise = w_type(&w.registry, "IBM-rise");
        let ibm_fall = w_type(&w.registry, "IBM-fall");
        let mut sb = StructureBuilder::new();
        let x0 = sb.var("X0");
        let x1 = sb.var("X1");
        let x2 = sb.var("X2");
        sb.constrain(x0, x1, Tcg::new(0, 1, bweek.clone()));
        sb.constrain(x1, x2, Tcg::new(0, 1, bmonth.clone()));
        let s = sb.build().unwrap();
        let cet = ComplexEventType::new(s, vec![ibm_rise, ibm_fall, ibm_rise]);
        let tag = build_tag(&cet);
        let m = Matcher::new(&tag);
        let events = w.sequence.events();
        let (_, _) = timed(|| m.run(events, false)); // compile the tables
        let (stats, ms) = timed(|| m.run(events, false));
        periodic::set_enabled(false);
        let (stats_off, ms_off) = timed(|| m.run(events, false));
        periodic::set_enabled(true);
        assert_eq!(stats, stats_off, "compiled tables are semantics-preserving");
        rows.push(vec![
            events.len().to_string(),
            format!("{ms:.1}"),
            format!("{ms_off:.1}"),
            format!("{:.1}x", ms_off / ms.max(0.001)),
        ]);
    }
    print_table(
        "Matching time with grouped-granularity clocks ([0,1] business-week, [0,1] business-month chain)",
        &["events", "ms (compiled)", "ms (raw)", "compiled speedup"],
        &rows,
    );

    // (1c) Engine ablation: the reference per-`Config` engine (one heap
    // vector per configuration, HashSet dedup) vs the lane engine (flat
    // pooled rows, in-place dedup), with a fresh scratch per run and with
    // one reused scratch. RunStats are asserted bit-identical.
    let mut rows = Vec::new();
    for days in [30i64, 120, 480] {
        let w = planted_stock_workload(days, &[], (days / 30) as usize, 42);
        let tag = build_tag(&w.cet);
        let m = Matcher::new(&tag);
        let events = w.sequence.events();
        let (stats_ref, ms_ref) = timed(|| m.run_reference(events, false));
        let (stats_fresh, ms_fresh) = timed(|| m.run(events, false));
        let mut scratch = MatcherScratch::new();
        let mut ctx = RunCtx::new(&mut scratch);
        let _ = m.run_in(events, false, &mut ctx).stats; // warm capacity
        let (stats_reused, ms_reused) = timed(|| m.run_in(events, false, &mut ctx).stats);
        assert_eq!(stats_ref, stats_fresh, "engines are bit-identical");
        assert_eq!(stats_ref, stats_reused, "scratch reuse is bit-identical");
        rows.push(vec![
            events.len().to_string(),
            format!("{ms_ref:.1}"),
            format!("{ms_fresh:.1}"),
            format!("{ms_reused:.1}"),
            format!("{:.1}x", ms_ref / ms_reused.max(0.001)),
        ]);
    }
    print_table(
        "Engine ablation: reference vs lane engine (Example 1 TAG)",
        &[
            "events",
            "ms (reference)",
            "ms (lane, fresh scratch)",
            "ms (lane, reused scratch)",
            "engine speedup",
        ],
        &rows,
    );

    // (2) vs maximal range K: chain A -> B with [0, K] hour.
    let mut reg = TypeRegistry::new();
    let a = reg.intern("A");
    let bt = reg.intern("B");
    let hour = cal.get("hour").unwrap();
    let mut rows = Vec::new();
    let base = planted_stock_workload(120, &[], 0, 43);
    for k in [2u64, 8, 32, 128, 512] {
        let mut sb = StructureBuilder::new();
        let x0 = sb.var("X0");
        let x1 = sb.var("X1");
        sb.constrain(x0, x1, Tcg::new(0, k, hour.clone()));
        let s = sb.build().unwrap();
        // Relabel two stock types as A/B so the pattern occurs organically.
        let ibm_rise = w_type(&base.registry, "IBM-rise");
        let ibm_fall = w_type(&base.registry, "IBM-fall");
        let cet = ComplexEventType::new(s, vec![ibm_rise, ibm_fall]);
        let tag = build_tag(&cet);
        let m = Matcher::new(&tag);
        let (stats, ms) = timed(|| m.run(base.sequence.events(), false));
        rows.push(vec![
            k.to_string(),
            format!("{ms:.1}"),
            stats.peak_configs.to_string(),
        ]);
    }
    print_table(
        "Matching time vs maximal range K ([0,K] hour chain, 120-day stock stream)",
        &["K (hours)", "ms", "peak frontier"],
        &rows,
    );
    let _ = (a, bt);

    // (3) vs number of chains p: root fanning out to p leaves.
    let day = cal.get("day").unwrap();
    let mut rows = Vec::new();
    for p in [1usize, 2, 3, 4] {
        let mut reg = TypeRegistry::new();
        let root_ty = reg.intern("R");
        let leaf_tys: Vec<_> = (0..p).map(|i| reg.intern(&format!("L{i}"))).collect();
        let mut sb = StructureBuilder::new();
        let x0 = sb.var("X0");
        let leaves: Vec<_> = (0..p).map(|i| sb.var(format!("Y{i}"))).collect();
        for &l in &leaves {
            sb.constrain(x0, l, Tcg::new(0, 3, day.clone()));
        }
        let s = sb.build().unwrap();
        let mut phi = vec![root_ty];
        phi.extend(leaf_tys.iter().copied());
        let cet = ComplexEventType::new(s, phi);
        let tag = build_tag(&cet);
        // Synthetic sequence: R and all leaves daily for 120 days.
        let mut b = tgm_events::SequenceBuilder::new();
        for d in 0..120i64 {
            b.push(root_ty, d * 86_400 + 1_000);
            for (i, &lt) in leaf_tys.iter().enumerate() {
                b.push(lt, d * 86_400 + 2_000 + i as i64 * 100);
            }
        }
        let seq: EventSequence = b.build();
        let m = Matcher::new(&tag);
        let (stats, ms) = timed(|| m.run(seq.events(), false));
        rows.push(vec![
            p.to_string(),
            tag.n_states().to_string(),
            format!("{ms:.1}"),
            stats.peak_configs.to_string(),
        ]);
    }
    print_table(
        "Matching time vs number of chains p (fan-out structure, daily events)",
        &["p", "TAG states", "ms", "peak frontier"],
        &rows,
    );
}

fn w_type(reg: &TypeRegistry, name: &str) -> tgm_events::EventType {
    reg.get(name).expect("stock type present")
}
