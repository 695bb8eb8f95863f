//! Bounded execution for every long-running tgm engine.
//!
//! Consistency with multiple granularities is NP-hard (paper §4, Theorem 2),
//! so the exact checker, the packed TAG matcher, and the §5 mining pipeline
//! can all blow up in time and memory on hostile — or merely unlucky —
//! inputs. This crate provides the one shared vocabulary for keeping them
//! on a leash:
//!
//! * [`Limits`] — a cheap, cloneable handle bundling a wall-clock
//!   **deadline**, a **row/node budget**, and a cooperative
//!   [`CancelToken`]. Engines poll it at safe points and stop early with a
//!   typed outcome instead of running away.
//! * [`Interrupt`] — why an engine stopped early
//!   (deadline / budget / cancellation).
//! * [`Verdict`] — `Completed` or `Interrupted(..)`; bounded entry points
//!   return it next to whatever partial stats they accumulated.
//! * [`WorkerPanic`] — a panic caught inside one parallel worker,
//!   downgraded from a process-poisoning abort to a typed error after the
//!   siblings have been cancelled.
//!
//! Semantics engines must uphold (and tests pin):
//!
//! * **Limits-off is free.** With [`Limits::none`] every check is a branch
//!   on `None`; results and stats are bit-identical to the unbounded path.
//! * **Budgets are deterministic.** A budget counts engine work units
//!   (frontier rows, search nodes), never wall time, so the same input and
//!   budget always exhaust at the same point with the same partial stats.
//! * **Deadlines and cancellation are cooperative.** They are observed at
//!   poll points, so engines overshoot by at most one unit of work between
//!   polls; they never abort mid-mutation.
//!
//! The serving layer adds two policy vocabularies on top:
//!
//! * [`Quotas`] — per-tenant admission quotas (inflight requests, open
//!   sessions, per-request budget/deadline) that mint a [`Limits`] handle
//!   for every admitted request.
//! * [`backoff`] — deterministic, seedable full-jitter exponential backoff
//!   used for `retry_after` hints on shed responses.
//!
//! The `failpoints` cargo feature adds the [`fail`] module: test-only
//! fault injection (panics, delays, spurious cancellations) at named sites
//! to prove recovery deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod backoff;
pub mod fail;
pub mod quota;

pub use backoff::Backoff;
pub use quota::Quotas;

/// A cloneable cancellation flag shared across threads.
///
/// Cloning is cheap (one `Arc` bump); all clones observe the same flag.
/// Cancellation is one-way: once set it stays set for the lifetime of the
/// token.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every holder of a clone observes it at its
    /// next poll.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why an engine stopped before finishing its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Interrupt {
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The row/node budget was used up.
    BudgetExhausted,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::DeadlineExceeded => write!(f, "wall-clock deadline exceeded"),
            Interrupt::BudgetExhausted => write!(f, "row/node budget exhausted"),
            Interrupt::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for Interrupt {}

/// The outcome of a bounded run: finished, or stopped early and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The engine consumed its whole input.
    Completed,
    /// The engine stopped early; partial results/stats are still valid.
    Interrupted(Interrupt),
}

impl Verdict {
    /// Whether the run finished without interruption.
    pub fn is_complete(&self) -> bool {
        matches!(self, Verdict::Completed)
    }

    /// The interrupt, if the run stopped early.
    pub fn interrupt(&self) -> Option<Interrupt> {
        match self {
            Verdict::Completed => None,
            Verdict::Interrupted(i) => Some(*i),
        }
    }
}

impl From<Interrupt> for Verdict {
    fn from(i: Interrupt) -> Self {
        Verdict::Interrupted(i)
    }
}

/// A panic caught inside one parallel worker.
///
/// The worker's siblings have already been cancelled via the shared token
/// by the time this surfaces; `message` is the panic payload (when it was a
/// string) and `site` names where it was caught.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The named catch site, e.g. `"pipeline.step5.worker"`.
    pub site: &'static str,
    /// The panic payload rendered as text (`"<non-string panic payload>"`
    /// when the payload was not a string).
    pub message: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker panicked at {}: {}", self.site, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Renders a caught panic payload as text.
///
/// `&str` and `String` payloads (what `panic!` produces) come through
/// verbatim; anything else becomes a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A cheap, shareable bundle of execution bounds.
///
/// All fields are optional; [`Limits::none`] (also `Default`) never
/// interrupts anything. Cloning shares the cancel token and copies the
/// rest.
///
/// ```
/// use std::time::Duration;
/// use tgm_limits::{CancelToken, Limits};
///
/// let token = CancelToken::new();
/// let limits = Limits::none()
///     .with_timeout(Duration::from_millis(50))
///     .with_budget(1_000_000)
///     .with_cancel(token.clone());
/// assert!(limits.check().is_ok());
/// token.cancel();
/// assert!(limits.check().is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Limits {
    deadline: Option<Instant>,
    budget: Option<u64>,
    cancel: Option<CancelToken>,
}

impl Limits {
    /// No bounds at all: every check passes.
    pub fn none() -> Self {
        Self::default()
    }

    /// Caps wall-clock time at an absolute instant.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(match self.deadline {
            Some(d) => d.min(deadline),
            None => deadline,
        });
        self
    }

    /// Caps wall-clock time at `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        let now = Instant::now();
        self.with_deadline(now.checked_add(timeout).unwrap_or(now))
    }

    /// Caps deterministic work units: frontier rows for the matcher,
    /// search nodes for the exact checker. Tighter of the two if already
    /// set.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(match self.budget {
            Some(b) => b.min(budget),
            None => budget,
        });
        self
    }

    /// Drops the work budget, keeping deadline and cancellation.
    ///
    /// Budgets count engine-specific work units, so an outer engine that
    /// budgets its own units (e.g. mining candidates) strips the budget
    /// before handing the limits to an inner engine with different units
    /// (e.g. matcher frontier rows).
    pub fn without_budget(mut self) -> Self {
        self.budget = None;
        self
    }

    /// Attaches a cancellation token (replacing any previous one).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The cancel token, creating and attaching one if absent.
    ///
    /// Parallel engines call this before fanning out so a worker panic can
    /// cancel its siblings even when the caller supplied no token.
    pub fn cancel_token(&mut self) -> CancelToken {
        match &self.cancel {
            Some(t) => t.clone(),
            None => {
                let t = CancelToken::new();
                self.cancel = Some(t.clone());
                t
            }
        }
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The configured work budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Whether no bound is configured (checks can be skipped wholesale).
    pub fn is_none(&self) -> bool {
        self.deadline.is_none() && self.budget.is_none() && self.cancel.is_none()
    }

    /// Polls cancellation and the deadline (in that order: cancellation is
    /// an atomic load, the deadline costs a clock read and is only taken
    /// when one is set).
    pub fn check(&self) -> Result<(), Interrupt> {
        if let Some(t) = &self.cancel {
            if t.is_cancelled() {
                return Err(hook::observed(Interrupt::Cancelled));
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(hook::observed(Interrupt::DeadlineExceeded));
            }
        }
        Ok(())
    }

    /// Polls cancellation, the deadline, and the work budget against
    /// `used` units. Budget is checked last so time-based interrupts win
    /// when both have tripped — but note budget-only limits are fully
    /// deterministic.
    pub fn check_with_used(&self, used: u64) -> Result<(), Interrupt> {
        self.check()?;
        if let Some(b) = self.budget {
            if used > b {
                return Err(hook::observed(Interrupt::BudgetExhausted));
            }
        }
        Ok(())
    }

    /// Whether `used` work units exceed the budget (ignores deadline and
    /// cancellation).
    pub fn budget_exceeded(&self, used: u64) -> bool {
        let exceeded = matches!(self.budget, Some(b) if used > b);
        if exceeded {
            hook::observed(Interrupt::BudgetExhausted);
        }
        exceeded
    }
}

/// Process-wide interrupt observer: a verdict→telemetry hook.
///
/// This crate stays zero-dependency, so it cannot talk to the
/// observability layer itself; instead, a higher layer (the `tag` engine)
/// installs a plain `fn` observer once, and every non-`Ok` verdict any
/// [`Limits`] check produces is reported through it — which is how an
/// `Interrupt` triggers a flight-recorder dump in the scope it happened
/// in, no matter which engine's polling loop detected it.
pub mod hook {
    use super::Interrupt;
    use std::sync::OnceLock;

    static OBSERVER: OnceLock<fn(Interrupt)> = OnceLock::new();

    /// Installs the process-wide interrupt observer. The first install
    /// wins; later calls are ignored (installation is idempotent by
    /// design — engines may race to install the same observer).
    pub fn set_interrupt_observer(f: fn(Interrupt)) {
        let _ = OBSERVER.set(f);
    }

    /// Reports `i` to the observer (if any) and passes it through —
    /// called on every non-`Ok` verdict path.
    pub(crate) fn observed(i: Interrupt) -> Interrupt {
        if let Some(f) = OBSERVER.get() {
            f(i);
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_interrupts() {
        let l = Limits::none();
        assert!(l.is_none());
        assert!(l.check().is_ok());
        assert!(l.check_with_used(u64::MAX).is_ok());
    }

    #[test]
    fn budget_trips_deterministically() {
        let l = Limits::none().with_budget(10);
        assert!(l.check_with_used(10).is_ok());
        assert_eq!(l.check_with_used(11), Err(Interrupt::BudgetExhausted));
        assert!(l.budget_exceeded(11));
        assert!(!l.budget_exceeded(10));
    }

    #[test]
    fn tighter_bound_wins() {
        let l = Limits::none().with_budget(10).with_budget(5).with_budget(7);
        assert_eq!(l.budget(), Some(5));
        let now = Instant::now();
        let l = Limits::none()
            .with_deadline(now + Duration::from_secs(60))
            .with_deadline(now + Duration::from_secs(1));
        assert_eq!(l.deadline(), Some(now + Duration::from_secs(1)));
    }

    #[test]
    fn past_deadline_trips() {
        let l = Limits::none().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(l.check(), Err(Interrupt::DeadlineExceeded));
    }

    #[test]
    fn cancel_shared_across_clones() {
        let token = CancelToken::new();
        let l = Limits::none().with_cancel(token.clone());
        let l2 = l.clone();
        assert!(l2.check().is_ok());
        token.cancel();
        assert_eq!(l.check(), Err(Interrupt::Cancelled));
        assert_eq!(l2.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn cancel_token_created_on_demand() {
        let mut l = Limits::none();
        let t = l.cancel_token();
        assert!(!l.is_none());
        t.cancel();
        assert_eq!(l.check(), Err(Interrupt::Cancelled));
        // Second call returns the same token.
        assert!(l.cancel_token().is_cancelled());
    }

    #[test]
    fn verdict_helpers() {
        assert!(Verdict::Completed.is_complete());
        assert_eq!(Verdict::Completed.interrupt(), None);
        let v: Verdict = Interrupt::Cancelled.into();
        assert!(!v.is_complete());
        assert_eq!(v.interrupt(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn panic_message_renders_strings() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(s.as_ref()), "boom");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("ow"));
        assert_eq!(panic_message(s.as_ref()), "ow");
        let s: Box<dyn std::any::Any + Send> = Box::new(42_u32);
        assert_eq!(panic_message(s.as_ref()), "<non-string panic payload>");
    }
}
