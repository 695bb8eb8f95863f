//! E10 — §5 complexity discussion: the naive algorithm is
//! `O(nˢ · |σ_{E0}| · T_tag)` in the alphabet size `n`; the optimized
//! pipeline's screening keeps the scanned candidate set nearly constant.
//! Measures full-discovery wall time against sequence length and alphabet
//! size.

use tgm_core::{StructureBuilder, Tcg, VarId};
use tgm_granularity::{periodic, Calendar};
use tgm_mining::pipeline::{mine_with, PipelineOptions};
use tgm_mining::{naive, DiscoveryProblem};

use crate::workloads::daily_stock_workload;
use crate::{print_table, timed};

/// Runs E10 and prints its tables.
pub fn run() {
    println!("\n## E10 — Discovery scaling: naive vs optimized pipeline");
    let pipeline = PipelineOptions::default();

    // vs sequence length, with the compiled periodic tables on and off —
    // the off column resolves every tick through the raw granularities.
    let mut rows = Vec::new();
    for days in [90i64, 180, 360, 720] {
        let w = daily_stock_workload(days, &[], 0.85, 11);
        let problem =
            DiscoveryProblem::new(w.cet.structure().clone(), 0.6, w.types.ibm_rise)
                .with_candidates(VarId(3), [w.types.ibm_fall]);
        let ((nsols, _), nms) = timed(|| naive::mine(&problem, &w.sequence));
        let ((psols, _), pms) = timed(|| mine_with(&problem, &w.sequence, &pipeline));
        periodic::set_enabled(false);
        let ((psols_off, _), pms_off) = timed(|| mine_with(&problem, &w.sequence, &pipeline));
        periodic::set_enabled(true);
        assert_eq!(nsols, psols);
        assert_eq!(psols, psols_off, "compiled tables are semantics-preserving");
        rows.push(vec![
            days.to_string(),
            w.sequence.len().to_string(),
            format!("{nms:.0}"),
            format!("{pms:.0}"),
            format!("{pms_off:.0}"),
            format!("{:.1}x", nms / pms.max(0.001)),
        ]);
    }
    print_table(
        "Discovery time vs sequence length (2 symbols, ϑ = 0.6)",
        &[
            "days",
            "events",
            "naive ms",
            "pipeline ms",
            "pipeline ms (raw granularities)",
            "speedup",
        ],
        &rows,
    );

    // vs granularity cost: the same discovery over a structure constrained
    // in *grouped* granularities (business-week / business-month), whose
    // raw resolution materializes interval sets per call — the compiled
    // tables' win case. Both modes are warmed once before timing so
    // one-time setup doesn't bias the first row.
    let cal = Calendar::shared_standard();
    let bweek = cal.get("business-week").unwrap();
    let bmonth = cal.get("business-month").unwrap();
    let mut rows = Vec::new();
    for days in [180i64, 360, 720] {
        let w = daily_stock_workload(days, &[], 0.85, 19);
        let mut sb = StructureBuilder::new();
        let x0 = sb.var("X0");
        let x1 = sb.var("X1");
        let x2 = sb.var("X2");
        sb.constrain(x0, x1, Tcg::new(0, 1, bweek.clone()));
        sb.constrain(x1, x2, Tcg::new(0, 1, bmonth.clone()));
        let s = sb.build().unwrap();
        let problem = DiscoveryProblem::new(s, 0.3, w.types.ibm_rise);
        let _ = mine_with(&problem, &w.sequence, &pipeline); // warm
        let ((sols_on, _), ms_on) = timed(|| mine_with(&problem, &w.sequence, &pipeline));
        periodic::set_enabled(false);
        let _ = mine_with(&problem, &w.sequence, &pipeline); // warm
        let ((sols_off, _), ms_off) = timed(|| mine_with(&problem, &w.sequence, &pipeline));
        periodic::set_enabled(true);
        assert_eq!(
            sols_on, sols_off,
            "compiled tables are semantics-preserving"
        );
        rows.push(vec![
            days.to_string(),
            w.sequence.len().to_string(),
            format!("{ms_on:.0}"),
            format!("{ms_off:.0}"),
            format!("{:.1}x", ms_off / ms_on.max(0.001)),
        ]);
    }
    print_table(
        "Discovery over grouped granularities (business-week/business-month chain, ϑ = 0.3)",
        &[
            "days",
            "events",
            "pipeline ms (compiled)",
            "pipeline ms (raw)",
            "compiled speedup",
        ],
        &rows,
    );

    // vs alphabet size (extra symbols inflate the candidate space n^2).
    let extra_sets: [&[&str]; 4] = [
        &[],
        &["SUN", "DEC"],
        &["SUN", "DEC", "MSFT", "ORCL"],
        &["SUN", "DEC", "MSFT", "ORCL", "AAPL", "CSCO", "INTC", "AMD"],
    ];
    let mut rows = Vec::new();
    for extra in extra_sets {
        let w = daily_stock_workload(180, extra, 0.85, 13);
        let problem =
            DiscoveryProblem::new(w.cet.structure().clone(), 0.6, w.types.ibm_rise)
                .with_candidates(VarId(3), [w.types.ibm_fall]);
        let ((nsols, nstats), nms) = timed(|| naive::mine(&problem, &w.sequence));
        let ((psols, pstats), pms) = timed(|| mine_with(&problem, &w.sequence, &pipeline));
        assert_eq!(nsols, psols);
        rows.push(vec![
            (2 + extra.len()).to_string(),
            nstats.candidates.to_string(),
            pstats.candidates_scanned.to_string(),
            format!("{nms:.0}"),
            format!("{pms:.0}"),
            format!("{:.1}x", nms / pms.max(0.001)),
        ]);
    }
    print_table(
        "Discovery time vs alphabet size (180 days, ϑ = 0.6)",
        &["symbols", "naive candidates", "pipeline candidates", "naive ms", "pipeline ms", "speedup"],
        &rows,
    );
}
