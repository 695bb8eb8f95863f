//! The retired switch of the granularity resolution memo.
//!
//! Resolution has one acceleration layer: each [`Gran`](crate::Gran)
//! answers from its compiled [`PeriodicTable`](crate::PeriodicTable) or
//! from its raw implementation (see [`periodic`](crate::periodic), whose
//! [`set_enabled`](crate::periodic::set_enabled) is the one process-wide
//! granularity switch).

/// Always `true`: there is no memo left to switch off. Remains only
/// because the `tgmbench` benchmark asserts it in `assert_default_switches`
/// and its sources change only together with the benchmark baseline.
pub fn enabled() -> bool {
    true
}
