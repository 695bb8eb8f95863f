//! A registry of named granularities and the shared [`Gran`] handle used
//! throughout the constraint and automaton layers.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::builtin;
use crate::error::GranularityError;
use crate::granularity::{Granularity, Second, Tick};
use crate::interval::IntervalSet;
use crate::periodic::{CompiledView, PeriodicTable};
use crate::size_table::SizeTable;

/// Monotonic source of process-unique granularity instance ids.
static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(1);

/// A cheap-to-clone handle to a registered granularity, carrying its
/// memoized [`SizeTable`] and its lazily compiled [`PeriodicTable`].
///
/// Every query asks the compiled table first and falls back to the raw
/// implementation outside the table's domain (or when the granularity
/// does not compile). All clones of a handle share the same table.
///
/// Equality and hashing are by *instance*: two handles are equal iff they
/// are clones of one [`Gran::new`]/[`Gran::from_arc`] call, so two
/// granularities that merely share a name (say, `business-day` with
/// different holiday sets) stay distinct. Ordering is by name, then by
/// [`instance_id`](Gran::instance_id).
#[derive(Clone)]
pub struct Gran {
    inner: Arc<GranInner>,
}

struct GranInner {
    /// The raw granularity behind its compiled table; shared with the size
    /// table, so its scans use the same compiled fast path.
    view: CompiledView,
    sizes: SizeTable,
    /// Process-unique, never reused.
    id: u64,
}

impl Gran {
    /// Wraps a granularity into a standalone handle (outside any calendar).
    pub fn from_arc(gran: Arc<dyn Granularity>) -> Self {
        let view = CompiledView::new(gran);
        Gran {
            inner: Arc::new(GranInner {
                sizes: SizeTable::new(Arc::new(view.clone())),
                view,
                id: NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed),
            }),
        }
    }

    /// Wraps a concrete granularity value.
    pub fn new(gran: impl Granularity + 'static) -> Self {
        Self::from_arc(Arc::new(gran))
    }

    /// The granularity's name.
    pub fn name(&self) -> &str {
        self.inner.view.name()
    }

    /// The underlying raw granularity: the reference implementation the
    /// compiled table is verified and tested against.
    pub fn granularity(&self) -> &dyn Granularity {
        self.inner.view.raw()
    }

    /// The memoized size table for this granularity.
    pub fn sizes(&self) -> &SizeTable {
        &self.inner.sizes
    }

    /// A process-unique id for this handle's shared inner state. Ids are
    /// never reused, which makes them the identity behind `==` and safe
    /// keys for cross-granularity memoization (names are not: two
    /// `business-day` granularities with different holiday sets share a
    /// name).
    pub fn instance_id(&self) -> u64 {
        self.inner.id
    }

    /// The compiled periodic table for this granularity, compiling it on
    /// first use. `None` if the periodic fast path is disabled or the
    /// granularity did not compile, in which case every query runs on the
    /// raw implementation.
    pub fn compiled(&self) -> Option<Arc<PeriodicTable>> {
        self.inner.view.compiled()
    }

    /// `⌈z⌉ᵘᵥ`: the tick of `target` covering tick `z` of `self`. Same
    /// semantics as [`convert_tick`](crate::convert_tick). When both
    /// granularities compiled, the conversion is closed-form and
    /// allocation-free; otherwise it runs the free function.
    pub fn convert_tick_to(&self, z: Tick, target: &Gran) -> Option<Tick> {
        if let (Some(ts), Some(tt)) = (self.inner.view.table(), target.inner.view.table()) {
            if let Some(ans) = ts.convert_tick_to(z, tt) {
                return ans;
            }
        }
        crate::convert::convert_tick(self, z, target)
    }
}

impl Granularity for Gran {
    fn name(&self) -> &str {
        self.inner.view.name()
    }
    fn covering_tick(&self, t: Second) -> Option<Tick> {
        self.inner.view.covering_tick(t)
    }
    fn tick_intervals(&self, z: Tick) -> Option<IntervalSet> {
        self.inner.view.tick_intervals(z)
    }
    fn has_gaps(&self) -> bool {
        self.inner.view.has_gaps()
    }
    fn exact_sizes(&self, k: u64) -> Option<crate::size_table::SizeBounds> {
        self.inner.view.exact_sizes(k)
    }
    fn scan_window(&self, k: u64) -> (Tick, Tick) {
        self.inner.view.scan_window(k)
    }
    fn next_tick_at_or_after(&self, t: Second) -> Option<Tick> {
        self.inner.view.next_tick_at_or_after(t)
    }
    fn periodic_hint(&self) -> Option<crate::periodic::PeriodicHint> {
        self.inner.view.periodic_hint()
    }
    fn periodic_accel(&self) -> Option<Arc<dyn Granularity>> {
        self.inner.view.periodic_accel()
    }
}

impl PartialEq for Gran {
    fn eq(&self, other: &Self) -> bool {
        self.inner.id == other.inner.id
    }
}
impl Eq for Gran {}

impl std::hash::Hash for Gran {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.inner.id.hash(state);
    }
}

impl PartialOrd for Gran {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Gran {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name()
            .cmp(other.name())
            .then(self.inner.id.cmp(&other.inner.id))
    }
}

impl fmt::Debug for Gran {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gran({})", self.name())
    }
}

impl fmt::Display for Gran {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of named granularities sharing one clock domain.
///
/// [`Calendar::standard`] preloads the types used throughout the paper:
/// `second`, `minute`, `hour`, `day`, `week`, `month`, `year`,
/// `business-day`, `business-week`, `business-month`, `weekend-day` and
/// `weekend`.
pub struct Calendar {
    grans: BTreeMap<String, Gran>,
}

impl Calendar {
    /// An empty calendar.
    pub fn empty() -> Self {
        Calendar {
            grans: BTreeMap::new(),
        }
    }

    /// The standard calendar with no holidays.
    pub fn standard() -> Self {
        Self::with_holidays(Vec::new())
    }

    /// A process-wide shared instance of [`Calendar::standard`].
    ///
    /// All callers get the *same* [`Gran`] handles, so size tables and
    /// compiled periodic tables built anywhere serve everyone. Prefer this
    /// over `Calendar::standard()` in hot paths that need a throwaway
    /// builtin granularity.
    pub fn shared_standard() -> &'static Calendar {
        static SHARED: OnceLock<Calendar> = OnceLock::new();
        SHARED.get_or_init(Calendar::standard)
    }

    /// The standard calendar whose business types exclude the given holiday
    /// day indices (0 = 2000-01-01).
    pub fn with_holidays(holidays: Vec<i64>) -> Self {
        let mut cal = Calendar::empty();
        let reg = |cal: &mut Calendar, g: Gran| {
            cal.register(g).expect("standard names are unique");
        };
        reg(&mut cal, Gran::new(builtin::second()));
        reg(&mut cal, Gran::new(builtin::minute()));
        reg(&mut cal, Gran::new(builtin::hour()));
        reg(&mut cal, Gran::new(builtin::day()));
        reg(&mut cal, Gran::new(builtin::week()));
        reg(&mut cal, Gran::new(builtin::month()));
        reg(&mut cal, Gran::new(builtin::year()));

        let bday: Arc<dyn Granularity> = Arc::new(builtin::business_day(holidays));
        let wday: Arc<dyn Granularity> = Arc::new(builtin::weekend_day());
        let week: Arc<dyn Granularity> = Arc::new(builtin::week());
        let month: Arc<dyn Granularity> = Arc::new(builtin::month());

        reg(&mut cal, Gran::from_arc(Arc::clone(&bday)));
        reg(&mut cal, Gran::from_arc(Arc::clone(&wday)));
        reg(
            &mut cal,
            Gran::new(builtin::GroupInto::new(
                "business-week",
                Arc::clone(&bday),
                Arc::clone(&week),
            )),
        );
        reg(
            &mut cal,
            Gran::new(builtin::GroupInto::new("business-month", bday, month)),
        );
        reg(
            &mut cal,
            Gran::new(builtin::GroupInto::new("weekend", wday, week)),
        );
        cal
    }

    /// Registers a granularity; fails on duplicate names.
    pub fn register(&mut self, gran: Gran) -> Result<(), GranularityError> {
        let name = gran.name().to_owned();
        if self.grans.contains_key(&name) {
            return Err(GranularityError::DuplicateName(name));
        }
        self.grans.insert(name, gran);
        Ok(())
    }

    /// Looks up a granularity by name.
    pub fn get(&self, name: &str) -> Result<Gran, GranularityError> {
        self.grans
            .get(name)
            .cloned()
            .ok_or_else(|| GranularityError::UnknownName(name.to_owned()))
    }

    /// Iterates all registered granularities in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Gran> {
        self.grans.values()
    }

    /// Number of registered granularities.
    pub fn len(&self) -> usize {
        self.grans.len()
    }

    /// Whether the calendar is empty.
    pub fn is_empty(&self) -> bool {
        self.grans.is_empty()
    }
}

impl fmt::Debug for Calendar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.grans.keys()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_calendar_contents() {
        let cal = Calendar::standard();
        for name in [
            "second",
            "minute",
            "hour",
            "day",
            "week",
            "month",
            "year",
            "business-day",
            "business-week",
            "business-month",
            "weekend-day",
            "weekend",
        ] {
            assert!(cal.get(name).is_ok(), "missing standard granularity {name}");
        }
        assert_eq!(cal.len(), 12);
    }

    #[test]
    fn duplicate_registration_fails() {
        let mut cal = Calendar::standard();
        let err = cal.register(Gran::new(builtin::second())).unwrap_err();
        assert_eq!(err, GranularityError::DuplicateName("second".into()));
    }

    #[test]
    fn unknown_lookup_fails() {
        let cal = Calendar::standard();
        assert!(matches!(
            cal.get("fortnight"),
            Err(GranularityError::UnknownName(_))
        ));
    }

    #[test]
    fn gran_equality_by_instance() {
        let cal = Calendar::standard();
        let a = cal.get("day").unwrap();
        let b = cal.get("day").unwrap();
        let c = cal.get("hour").unwrap();
        assert_eq!(a, b, "clones of one handle are equal");
        assert_ne!(a, c);
        assert!(a < c, "ordering is by name first");
        // Same name, separate instance: distinct, ordered by instance id.
        let standalone = Gran::new(builtin::day());
        assert_ne!(a, standalone);
        assert_eq!(
            a.cmp(&standalone),
            a.instance_id().cmp(&standalone.instance_id())
        );
        // Hashing agrees with equality (the size table's interior
        // mutability never feeds the hash).
        #[allow(clippy::mutable_key_type)]
        let set: std::collections::HashSet<Gran> = [a, b, standalone].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn instance_ids_are_unique() {
        let a = Gran::new(builtin::day());
        let b = Gran::new(builtin::day());
        assert_ne!(a.instance_id(), b.instance_id());
    }

    #[test]
    fn business_week_in_calendar() {
        let cal = Calendar::standard();
        let bw = cal.get("business-week").unwrap();
        // Business week tick 2 (week of Mon 2000-01-03) covers Mon-Fri.
        let set = bw.tick_intervals(2).unwrap();
        assert_eq!(set.count(), 5 * builtin::SECONDS_PER_DAY);
    }
}
