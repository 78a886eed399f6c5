//! A wall-clock self-profiler for the simulator itself.
//!
//! Simulated time tells us where the *modeled* microseconds go; the
//! profiler tells us where the *host's* microseconds go while computing
//! them — event scheduling, event callbacks, the observe-only oracle
//! probe, telemetry sampling. Scopes accumulate call
//! counts, total and maximum wall-clock time under `&'static str` names.
//!
//! Wall-clock readings are inherently nondeterministic, so profiler
//! output is **never** part of any byte-identity gate: the bench layer
//! writes it to separate `PROF_*.json` files that CI explicitly excludes
//! from diffs. The profiler itself is observe-only with respect to the
//! simulation — it draws no randomness and schedules nothing, so enabling
//! it cannot change simulation results (only slow them down slightly).
//!
//! The engine owns its profiler ([`crate::Engine::set_profiler`]): the
//! accumulator is an `Option<RefCell<..>>`, so a scope records through a
//! shared reference, a clone is an independent copy, and the disabled
//! form is `None`: a disabled scope is an inlined null check that
//! allocates nothing and takes no timestamp.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Default, Clone)]
struct ScopeAcc {
    calls: u64,
    total: Duration,
    max: Duration,
}

#[derive(Debug, Default, Clone)]
struct ProfilerInner {
    scopes: BTreeMap<&'static str, ScopeAcc>,
}

impl ProfilerInner {
    fn record(&mut self, name: &'static str, elapsed: Duration) {
        let acc = self.scopes.entry(name).or_default();
        acc.calls += 1;
        acc.total += elapsed;
        acc.max = acc.max.max(elapsed);
    }
}

/// Wall-clock statistics for one named scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeStats {
    /// The scope name (`"engine.callback"`, `"telemetry.sample"`, …).
    pub name: &'static str,
    /// Times the scope was entered.
    pub calls: u64,
    /// Total wall-clock time spent inside.
    pub total: Duration,
    /// Longest single entry.
    pub max: Duration,
}

impl ScopeStats {
    /// Mean wall-clock time per call (zero when never called).
    pub fn mean(&self) -> Duration {
        if self.calls == 0 {
            Duration::ZERO
        } else {
            self.total / u32::try_from(self.calls).unwrap_or(u32::MAX)
        }
    }
}

/// A profiler export: every scope in sorted-name order. Plain data
/// (`Send`) — crosses sweep worker threads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfReport {
    /// Per-scope statistics, sorted by name.
    pub scopes: Vec<ScopeStats>,
}

impl ProfReport {
    /// Looks a scope up by name.
    pub fn scope(&self, name: &str) -> Option<&ScopeStats> {
        self.scopes.iter().find(|s| s.name == name)
    }
}

/// The self-profiler. A clone copies the accumulator; the disabled
/// profiler ignores every call and takes no timestamps.
///
/// # Examples
///
/// ```
/// use vrio_sim::Profiler;
///
/// let prof = Profiler::new(true);
/// {
///     let _guard = prof.scope("engine.callback");
///     // ... timed work ...
/// }
/// let report = prof.export();
/// assert_eq!(report.scopes.len(), 1);
/// assert_eq!(report.scopes[0].calls, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Option<RefCell<ProfilerInner>>,
}

impl Profiler {
    /// Creates a profiler: live when `enabled`, inert otherwise.
    pub fn new(enabled: bool) -> Self {
        Profiler {
            inner: enabled.then(RefCell::default),
        }
    }

    /// The inert profiler: every call is a no-op.
    pub fn off() -> Self {
        Profiler::default()
    }

    /// Whether this profiler records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Enters a named scope; the returned guard records the elapsed
    /// wall-clock time into the scope when dropped. On a disabled
    /// profiler no timestamp is even taken.
    #[must_use = "the guard records on drop; binding it to _ ends the scope immediately"]
    #[inline]
    pub fn scope(&self, name: &'static str) -> ProfGuard<'_> {
        ProfGuard {
            active: self
                .inner
                .as_ref()
                .map(|inner| (inner, name, Instant::now())),
        }
    }

    /// Records one completed timing for a named scope directly.
    pub fn record(&self, name: &'static str, elapsed: Duration) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().record(name, elapsed);
        }
    }

    /// Exports every scope as plain data (empty when disabled).
    pub fn export(&self) -> ProfReport {
        let Some(inner) = &self.inner else {
            return ProfReport::default();
        };
        let inner = inner.borrow();
        ProfReport {
            scopes: inner
                .scopes
                .iter()
                .map(|(&name, acc)| ScopeStats {
                    name,
                    calls: acc.calls,
                    total: acc.total,
                    max: acc.max,
                })
                .collect(),
        }
    }
}

/// RAII guard returned by [`Profiler::scope`]; records on drop.
#[derive(Debug)]
pub struct ProfGuard<'a> {
    active: Option<(&'a RefCell<ProfilerInner>, &'static str, Instant)>,
}

impl Drop for ProfGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some((inner, name, start)) = self.active.take() {
            inner.borrow_mut().record(name, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let p = Profiler::off();
        assert!(!p.enabled());
        {
            let _g = p.scope("x");
        }
        p.record("y", Duration::from_micros(5));
        assert!(p.export().scopes.is_empty());
    }

    #[test]
    fn scopes_accumulate_and_export_sorted() {
        let p = Profiler::new(true);
        p.record("b.pop", Duration::from_micros(2));
        p.record("a.callback", Duration::from_micros(10));
        p.record("b.pop", Duration::from_micros(4));
        let r = p.export();
        let names: Vec<&str> = r.scopes.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["a.callback", "b.pop"]);
        let pop = r.scope("b.pop").unwrap();
        assert_eq!(pop.calls, 2);
        assert_eq!(pop.total, Duration::from_micros(6));
        assert_eq!(pop.max, Duration::from_micros(4));
        assert_eq!(pop.mean(), Duration::from_micros(3));
        assert!(r.scope("missing").is_none());
    }

    #[test]
    fn guard_records_on_drop_and_clones_are_independent() {
        let p = Profiler::new(true);
        {
            let _g = p.scope("before");
        }
        let other = p.clone();
        {
            let _g = other.scope("after");
        }
        assert!(p.export().scope("after").is_none());
        let r = other.export();
        assert_eq!(r.scope("before").unwrap().calls, 1);
        assert_eq!(r.scope("after").unwrap().calls, 1);
    }

    #[test]
    fn mean_of_uncalled_scope_is_zero() {
        let s = ScopeStats {
            name: "idle",
            calls: 0,
            total: Duration::ZERO,
            max: Duration::ZERO,
        };
        assert_eq!(s.mean(), Duration::ZERO);
    }
}
