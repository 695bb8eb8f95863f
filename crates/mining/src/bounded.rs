//! Shared bounded-execution plumbing for the miners: the partial-result
//! container returned by `mine_bounded`, the early-stop type, and the
//! panic-containment wrapper for crossbeam workers.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tgm_limits::{panic_message, CancelToken, Interrupt, Verdict, WorkerPanic};

use crate::problem::Solution;

/// The outcome of a bounded mining run: everything found before the run
/// completed or was interrupted.
///
/// Interruption never invalidates what was already found — `solutions`
/// holds every solution whose support count finished, `stats` reflects
/// the work actually performed, and `verdict` says whether the result is
/// exhaustive ([`Verdict::Completed`]) or a prefix
/// ([`Verdict::Interrupted`]).
#[derive(Clone, Debug)]
pub struct BoundedMining<S> {
    /// Solutions fully counted before the run ended.
    pub solutions: Vec<Solution>,
    /// Per-run instrumentation for the work actually performed.
    pub stats: S,
    /// Whether the run completed or stopped early (and why).
    pub verdict: Verdict,
}

/// Why a support count (or a whole mining step) stopped without a result.
pub(crate) enum Halt {
    /// A limit tripped (deadline, cancellation); the count is incomplete
    /// and must be discarded.
    Interrupted(Interrupt),
    /// A worker panicked; siblings have been cancelled via the shared
    /// token.
    Panicked(WorkerPanic),
}

impl From<Interrupt> for Halt {
    fn from(i: Interrupt) -> Self {
        Halt::Interrupted(i)
    }
}

impl From<WorkerPanic> for Halt {
    fn from(p: WorkerPanic) -> Self {
        Halt::Panicked(p)
    }
}

/// Runs `f`, converting a panic into a typed [`WorkerPanic`] after
/// cancelling `token` so sibling workers stop at their next poll instead
/// of burning through their chunks (or aborting the process, with
/// `panic = "abort"`-style configs, before anyone can report).
pub(crate) fn contain<T>(
    site: &'static str,
    token: Option<&CancelToken>,
    f: impl FnOnce() -> T,
) -> Result<T, WorkerPanic> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => {
            if let Some(t) = token {
                t.cancel();
            }
            // The unwind stopped here, so this thread's span stack is the
            // known-good depth again: flush the partial span tree (tagged
            // via the `obs.spans.panicked_flushes` counter) instead of
            // dropping it, and dump the flight ring with the panic site.
            tgm_obs::span::flush_panicked(site);
            tgm_obs::recorder::worker_panic(site);
            Err(WorkerPanic {
                site,
                message: panic_message(payload.as_ref()),
            })
        }
    }
}
