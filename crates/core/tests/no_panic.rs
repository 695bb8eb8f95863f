//! No-panic property tests for the structure-construction and checking
//! surfaces: arbitrary constraint graphs — self-loops, cycles, duplicate
//! edges, extreme bounds — fed through `StructureBuilder::build`,
//! `propagate_bounded`, and `check_bounded` must return `Ok`/`Err`, never
//! panic, even under tiny budgets and expired deadlines.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use tgm_core::exact::{check_bounded, ExactError, ExactOptions};
use tgm_core::reductions::{subset_sum_options, subset_sum_structure};
use tgm_core::{StructureBuilder, Tcg};
use tgm_core::propagate::propagate_bounded;
use tgm_granularity::{Calendar, Gran};
use tgm_limits::{CancelToken, Limits};

fn grans() -> Vec<Gran> {
    let cal = Calendar::standard();
    ["second", "hour", "day", "week", "business-day", "month", "year"]
        .iter()
        .map(|n| cal.get(n).unwrap())
        .collect()
}

/// Bounds spanning the whole supported range, including the maximum.
const BOUNDS: &[u64] = &[0, 1, 2, 100, Tcg::MAX_BOUND - 1, Tcg::MAX_BOUND];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_constraint_graphs_never_panic(
        n_vars in 1usize..6,
        edges in proptest::collection::vec(
            (0usize..6, 0usize..6, 0usize..7, 0usize..6, 0usize..6),
            0..10,
        ),
        budget in 0u64..64,
    ) {
        let gs = grans();
        let mut b = StructureBuilder::new();
        let vars: Vec<_> = (0..n_vars).map(|i| b.var(format!("X{i}"))).collect();
        for &(from, to, g, lo, w) in &edges {
            // Arbitrary topology: self-loops, back edges, parallel edges.
            let lo = BOUNDS[lo % BOUNDS.len()];
            let hi = lo.saturating_add(BOUNDS[w % BOUNDS.len()]).min(Tcg::MAX_BOUND);
            b.constrain(
                vars[from % n_vars],
                vars[to % n_vars],
                Tcg::new(lo, hi, gs[g % gs.len()].clone()),
            );
        }
        let Ok(s) = b.build() else {
            // Rejected topologies (cycles, self-loops, …) are typed errors.
            return Ok(());
        };

        // Unlimited, budget-capped, and expired-deadline bounded runs must
        // all come back with a value or a typed interrupt.
        let _ = propagate_bounded(&s, &Limits::none());
        let _ = propagate_bounded(&s, &Limits::none().with_budget(budget));
        let _ = propagate_bounded(
            &s,
            &Limits::none().with_deadline(Instant::now() - Duration::from_secs(1)),
        );
        let opts = ExactOptions::default();
        let _ = check_bounded(&s, &opts, &Limits::none().with_budget(budget));
        let _ = check_bounded(
            &s,
            &opts,
            &Limits::none().with_deadline(Instant::now() - Duration::from_secs(1)),
        );
    }
}

/// The E2 NP-hard workload (Theorem 1's SUBSET-SUM gadget) under tiny
/// limits: a small budget, an expired deadline, and a pre-cancelled token
/// must each come back promptly as a typed error — no panic, no hang.
#[test]
fn np_hard_gadget_under_tiny_limits_returns_typed_errors() {
    // Pairwise-coprime values (the largest instance E2 itself runs: the
    // gadget caps the value LCM at the month horizon).
    let values = [2u64, 3, 5, 7, 11, 13];
    let target = 17;
    let s = subset_sum_structure(&values, target);
    let opts = subset_sum_options(&values, target);

    let started = Instant::now();
    let budgeted = check_bounded(&s, &opts, &Limits::none().with_budget(4));
    assert!(
        matches!(budgeted, Err(ExactError::SearchBudgetExhausted)),
        "tiny budget must surface as a typed exhaustion: {budgeted:?}"
    );

    let expired = check_bounded(
        &s,
        &opts,
        &Limits::none().with_deadline(Instant::now() - Duration::from_secs(1)),
    );
    assert!(matches!(expired, Err(ExactError::DeadlineExceeded)), "{expired:?}");

    let token = CancelToken::new();
    token.cancel();
    let cancelled = check_bounded(&s, &opts, &Limits::none().with_cancel(token));
    assert!(matches!(cancelled, Err(ExactError::Cancelled)), "{cancelled:?}");

    assert!(
        started.elapsed() < Duration::from_secs(30),
        "limited runs must not explore the exponential space"
    );
}
