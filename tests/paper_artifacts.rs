//! Integration tests pinning the paper's concrete artifacts: Figure 1,
//! Figure 2, the §3.1 disjunction, the §5.1 derived constraints, the §3
//! "one day ≠ 24 hours" example, and the Theorem 1 gadget (with erratum).

use tgm::core::examples::{example_1, figure_1a, figure_1a_witness, figure_1b};
use tgm::core::exact::{check_with, ExactOptions, ExactOutcome};
use tgm::core::propagate::propagate;
use tgm::core::reductions::{
    gadget_ground_truth, subset_sum_dp, subset_sum_options, subset_sum_structure,
    values_pairwise_coprime,
};
use tgm::prelude::*;
use tgm::tag::minimal_chain_cover;

const DAY: i64 = 86_400;

#[test]
fn figure_1a_and_example_1() {
    let cal = Calendar::standard();
    let (s, v) = figure_1a(&cal);
    assert_eq!(s.len(), 4);
    assert!(s.satisfied_by(&figure_1a_witness()));
    assert!(propagate(&s).is_consistent());

    // The chains of the Theorem 3 construction.
    let chains = minimal_chain_cover(&s);
    assert_eq!(chains.len(), 2);

    // The constructed TAG is Figure 2: 6 states, 4 clocks.
    let mut reg = TypeRegistry::new();
    let (cet, tys) = example_1(&cal, &mut reg);
    let tag = build_tag(&cet);
    assert_eq!(tag.n_states(), 6);
    assert_eq!(tag.clocks().len(), 4);
    let w = figure_1a_witness();
    let seq = [
        Event::new(tys.ibm_rise, w[0]),
        Event::new(tys.ibm_report, w[1]),
        Event::new(tys.hp_rise, w[2]),
        Event::new(tys.ibm_fall, w[3]),
    ];
    assert!(Matcher::new(&tag).accepts(&seq));
    let _ = v;
}

#[test]
fn figure_1b_disjunction_is_exactly_0_or_12() {
    let cal = Calendar::standard();
    let month = cal.get("month").unwrap();
    let (s, v) = figure_1b(&cal);
    let mut feasible = Vec::new();
    for d in 0..=12u64 {
        let mut b = StructureBuilder::new();
        let ids: Vec<VarId> = (0..4).map(|i| b.var(format!("X{i}"))).collect();
        for (a, to, cs) in s.arcs() {
            for c in cs {
                b.constrain(ids[a.index()], ids[to.index()], c.clone());
            }
        }
        b.constrain(ids[v.x0.index()], ids[v.x2.index()], Tcg::new(d, d, month.clone()));
        let pinned = b.build().unwrap();
        let opts = ExactOptions {
            horizon_start: 0,
            horizon_end: 3 * 366 * DAY,
            ..ExactOptions::default()
        };
        if matches!(
            check_with(&pinned, &opts).unwrap(),
            ExactOutcome::Consistent(_)
        ) {
            feasible.push(d);
        }
    }
    assert_eq!(feasible, vec![0, 12], "the §3.1 disjunction");
}

#[test]
fn section_5_1_derived_constraints() {
    // The paper derives a week and an hour constraint on (X0, X3); our
    // sound discrete-time conversion gives [0,2] week (the paper prints
    // [0,1], which contradicts its own Figure 2 chain: Fri rise -> Mon
    // report -> next-week fall spans two week boundaries) and an hour
    // bound of the same order as the paper's [1,175].
    let cal = Calendar::standard();
    let (s, v) = figure_1a(&cal);
    let p = propagate(&s);
    let derived = p.derived_tcgs(v.x0, v.x3);
    let week = derived.iter().find(|t| t.gran().name() == "week").unwrap();
    assert_eq!((week.lo(), week.hi()), (0, 2));
    let hour = derived.iter().find(|t| t.gran().name() == "hour").unwrap();
    assert_eq!(hour.lo(), 0);
    assert!(hour.hi() >= 175 && hour.hi() <= 220, "hour bound {}", hour.hi());
    // Every derived constraint admits the witness (soundness).
    let w = figure_1a_witness();
    for t in &derived {
        assert!(t.satisfied(w[0], w[3]));
    }
}

#[test]
fn one_day_is_not_24_hours() {
    let cal = Calendar::standard();
    let same_day = Tcg::new(0, 0, cal.get("day").unwrap());
    let day_of_seconds = Tcg::new(0, 86_399, cal.get("second").unwrap());
    // The paper's example: 11 pm / 4 am next day.
    let (t1, t2) = (23 * 3_600, DAY + 4 * 3_600);
    assert!(!same_day.satisfied(t1, t2));
    assert!(day_of_seconds.satisfied(t1, t2));
    // And conversion of [0,0] day into seconds yields exactly [0,86399] —
    // the weakest implied constraint, not an equivalent one.
    let conv = convert_constraint(&same_day, &cal.get("second").unwrap()).unwrap();
    assert_eq!((conv.lo(), conv.hi()), (0, 86_399));
}

#[test]
fn theorem_1_gadget_faithful_for_coprime_values() {
    for target in [2u64, 5, 7, 8, 10] {
        let values = vec![2u64, 3, 5];
        assert!(values_pairwise_coprime(&values));
        let s = subset_sum_structure(&values, target);
        let got = matches!(
            check_with(&s, &subset_sum_options(&values, target)).unwrap(),
            ExactOutcome::Consistent(_)
        );
        assert_eq!(got, subset_sum_dp(&values, target), "target {target}");
        // Ground truth and DP coincide for coprime values.
        assert_eq!(gadget_ground_truth(&values, target), subset_sum_dp(&values, target));
    }
}
