//! Test-only fault injection at named sites (`failpoints` feature).
//!
//! Engines place `fail::point("site.name", limits)` at interesting spots:
//! worker entry, run-loop start, step boundaries. Without the `failpoints`
//! cargo feature the call compiles to nothing. With it, tests arm a site
//! with an `Action` and the next `point` hit executes it — panic, delay,
//! or spurious cancellation — so recovery paths can be proven
//! deterministically instead of waiting for a real fault.
//!
//! The registry is process-global; tests that arm sites must serialize
//! (the suites here take a shared mutex) and `clear_all` when
//! done.

#[cfg(feature = "failpoints")]
pub use imp::{clear_all, list_armed, set, Action};

#[cfg(feature = "failpoints")]
mod imp {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Duration;

    /// What an armed failpoint does when hit.
    #[derive(Clone, Debug)]
    pub enum Action {
        /// Panic with this message on every hit.
        Panic(String),
        /// Panic with this message on the first hit only; later hits (e.g.
        /// sibling workers) pass through so they can observe cancellation.
        PanicOnce(String),
        /// Sleep this long on every hit (drives deadline-expiry tests).
        Delay(Duration),
        /// Cancel the limits' token, simulating an external cancellation.
        Cancel,
    }

    struct Armed {
        action: Action,
        fired: Arc<AtomicBool>,
    }

    fn registry() -> &'static Mutex<HashMap<&'static str, Armed>> {
        static REGISTRY: OnceLock<Mutex<HashMap<&'static str, Armed>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Arms `site` with `action` (replacing any previous arming).
    pub fn set(site: &'static str, action: Action) {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.insert(
            site,
            Armed {
                action,
                fired: Arc::new(AtomicBool::new(false)),
            },
        );
    }

    /// Disarms every site.
    pub fn clear_all() {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.clear();
    }

    /// The currently armed site names (diagnostics).
    pub fn list_armed() -> Vec<&'static str> {
        let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.keys().copied().collect()
    }

    pub(super) fn hit(site: &str, limits: Option<&crate::Limits>) {
        // Snapshot under the lock, act outside it: a panicking action must
        // not poison the registry for the rest of the suite.
        let action = {
            let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
            match reg.get(site) {
                Some(armed) => match &armed.action {
                    Action::PanicOnce(msg) => {
                        if armed.fired.swap(true, Ordering::SeqCst) {
                            return;
                        }
                        Action::Panic(msg.clone())
                    }
                    other => other.clone(),
                },
                None => return,
            }
        };
        match action {
            Action::Panic(msg) | Action::PanicOnce(msg) => {
                panic!("failpoint {site}: {msg}")
            }
            Action::Delay(d) => std::thread::sleep(d),
            Action::Cancel => {
                if let Some(l) = limits {
                    if let Some(t) = &l.cancel {
                        t.cancel();
                    }
                }
            }
        }
    }
}

/// Executes the action armed at `site`, if any. No-op without the
/// `failpoints` feature.
#[cfg(feature = "failpoints")]
#[inline]
pub fn point(site: &'static str, limits: Option<&crate::Limits>) {
    imp::hit(site, limits);
}

/// Executes the action armed at `site`, if any. No-op without the
/// `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn point(_site: &'static str, _limits: Option<&crate::Limits>) {}
