//! Lightweight scope profiling: RAII timers feeding per-thread counters.
//!
//! The simulator's hot paths (`Tage::predict`/`update`, LLBP's pattern-set
//! lookup and prefetch, the workload generator) open a
//! [`scope!`](crate::scope!) guard; dropping the guard adds the elapsed wall
//! time to that scope's running totals. Every distinct scope name owns one
//! process-wide slot below [`MAX_SCOPES`], and each call site caches its
//! slot after the first entry. Entering a scope is then one relaxed load of
//! that cached slot plus one increment of this thread's call counter for
//! it, held in a fixed, const-initialized thread-local array (no lazy
//! allocation, no borrow flag, no destructor). The runner snapshots the
//! counters around each run and reports the delta as the run's profile
//! section, so optimisation work has a per-run baseline to beat.
//!
//! Call counts are exact. Wall time is *sampled*: one in
//! [`SAMPLE_PERIOD`] entries of each scope is timed (the first always is)
//! and the measured nanoseconds are scaled by the period, so `nanos` is an
//! unbiased estimate of the true total while the per-entry overhead of the
//! untimed majority is a counter bump — no clock reads. A timed entry's
//! span also holds about one clock read (the tail of the read that starts
//! it and the head of the one that ends it); its cost is measured once
//! per process and taken off every sample before the scaling. At millions
//! of entries per run the estimate converges tightly; scopes entered once
//! (coarse phases) are always timed exactly.
//!
//! The counters are thread-local: a simulation run reads exactly the
//! scopes its own thread executed, and parallel test threads never contend
//! or mix their numbers.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Every `SAMPLE_PERIOD`-th entry of a scope is timed; the rest only count.
pub const SAMPLE_PERIOD: u64 = 64;

/// Most distinct scope names a process may use. Each thread holds two
/// counters per slot; registering one more name panics.
pub const MAX_SCOPES: usize = 64;

/// Back-to-back clock-read pairs whose median is the per-sample clock cost.
const CLOCK_PAIRS: usize = 501;

/// Accumulated totals for one named scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeTotals {
    /// Scope name (e.g. `"tage::predict"`).
    pub name: &'static str,
    /// Times the scope was entered (exact).
    pub calls: u64,
    /// Total nanoseconds spent inside the scope (including callees),
    /// estimated from the timed sample and scaled by [`SAMPLE_PERIOD`].
    pub nanos: u64,
}

/// Every scope name any thread has entered. A name's position is its slot
/// in each thread's counters, fixed for the life of the process.
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// One thread's counters, indexed by slot.
struct Counters {
    calls: [Cell<u64>; MAX_SCOPES],
    nanos: [Cell<u64>; MAX_SCOPES],
}

thread_local! {
    static COUNTERS: Counters = const {
        Counters {
            calls: [const { Cell::new(0) }; MAX_SCOPES],
            nanos: [const { Cell::new(0) }; MAX_SCOPES],
        }
    };
}

/// The slot of `name` in `names`, appending it on first use.
///
/// # Panics
///
/// Panics if `name` would be the `MAX_SCOPES + 1`-th distinct name.
fn intern_in(names: &mut Vec<&'static str>, name: &'static str) -> usize {
    if let Some(slot) = names.iter().position(|&n| n == name) {
        return slot;
    }
    if names.len() == MAX_SCOPES {
        panic!(
            "scope `{name}` exceeds the profiler's {MAX_SCOPES} scope names; \
             raise telemetry::profile::MAX_SCOPES"
        );
    }
    names.push(name);
    names.len() - 1
}

/// The process-wide slot of `name`.
fn intern(name: &'static str) -> usize {
    let mut names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
    intern_in(&mut names, name)
}

/// A site's slot before its first entry resolves it.
const UNRESOLVED: usize = usize::MAX;

/// One scope call site, created by [`scope!`](crate::scope!): the name and,
/// after the first entry, its slot. Entering a resolved site is one relaxed
/// load and a counter bump with no name lookup.
#[derive(Debug)]
pub struct ScopeSite {
    name: &'static str,
    slot: AtomicUsize,
}

impl ScopeSite {
    /// A site for `name`; its slot is resolved on first entry.
    pub const fn new(name: &'static str) -> Self {
        ScopeSite {
            name,
            slot: AtomicUsize::new(UNRESOLVED),
        }
    }

    /// Starts timing this site's scope until the returned guard drops.
    #[inline]
    pub fn enter(&self) -> ScopeGuard {
        // Relaxed suffices: every thread that resolves the site stores the
        // same slot, and nothing else is published through it.
        let slot = match self.slot.load(Ordering::Relaxed) {
            UNRESOLVED => self.resolve(),
            slot => slot,
        };
        enter(slot)
    }

    #[cold]
    #[inline(never)]
    fn resolve(&self) -> usize {
        let slot = intern(self.name);
        self.slot.store(slot, Ordering::Relaxed);
        slot
    }
}

/// Starts timing a scope at a static call site until the guard drops:
/// `let _t = telemetry::scope!("tage::predict");`.
///
/// The entry is counted immediately; whether it is *timed* depends on the
/// scope's sampling phase (see the module docs). Sites sharing a name share
/// one totals entry.
#[macro_export]
macro_rules! scope {
    ($name:expr) => {{
        static SITE: $crate::profile::ScopeSite = $crate::profile::ScopeSite::new($name);
        SITE.enter()
    }};
}

/// An RAII guard timing one scope entry; created by
/// [`scope!`](crate::scope!).
#[must_use = "the scope is timed until this guard is dropped"]
pub struct ScopeGuard {
    /// Slot the entry was counted in.
    slot: usize,
    /// `Some` only for the sampled (timed) entries.
    start: Option<Instant>,
}

#[inline]
fn enter(slot: usize) -> ScopeGuard {
    let calls = COUNTERS.with(|c| {
        let calls = &c.calls[slot];
        let n = calls.get() + 1;
        calls.set(n);
        n
    });
    // The first call of every scope is timed, so any entered scope has
    // nonzero time; after that, one in SAMPLE_PERIOD.
    if calls % SAMPLE_PERIOD == 1 {
        ScopeGuard::timed(slot)
    } else {
        ScopeGuard { slot, start: None }
    }
}

impl ScopeGuard {
    #[cold]
    #[inline(never)]
    fn timed(slot: usize) -> ScopeGuard {
        ScopeGuard {
            slot,
            start: Some(Instant::now()),
        }
    }

    #[cold]
    #[inline(never)]
    fn record(slot: usize, start: Instant) {
        let nanos = sample_nanos(start.elapsed().as_nanos() as u64, clock_nanos());
        // A reset while this guard was live (tests) leaves the slot in
        // place, so the time still lands on this scope.
        COUNTERS.with(|c| {
            let total = &c.nanos[slot];
            total.set(total.get() + nanos);
        });
    }
}

/// The cost of one clock read inside a timed span: the median of
/// back-to-back `Instant::now()` pairs, measured on first use.
fn clock_nanos() -> u64 {
    static CLOCK: OnceLock<u64> = OnceLock::new();
    *CLOCK.get_or_init(|| {
        let mut pairs: Vec<u64> = (0..CLOCK_PAIRS)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .collect();
        pairs.sort_unstable();
        pairs[CLOCK_PAIRS / 2]
    })
}

/// One timed sample's share of its scope's `nanos`: the `elapsed` span
/// less the `clock` read it holds (at least zero), scaled by
/// [`SAMPLE_PERIOD`].
fn sample_nanos(elapsed: u64, clock: u64) -> u64 {
    elapsed.saturating_sub(clock).saturating_mul(SAMPLE_PERIOD)
}

impl Drop for ScopeGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            Self::record(self.slot, start);
        }
    }
}

/// Current totals for every scope this thread has entered, sorted by name.
pub fn snapshot() -> Vec<ScopeTotals> {
    let names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
    let mut v: Vec<ScopeTotals> = COUNTERS.with(|c| {
        names
            .iter()
            .enumerate()
            .map(|(slot, &name)| ScopeTotals {
                name,
                calls: c.calls[slot].get(),
                nanos: c.nanos[slot].get(),
            })
            .filter(|t| t.calls > 0 || t.nanos > 0)
            .collect()
    });
    v.sort_by(|a, b| a.name.cmp(b.name));
    v
}

/// Totals accumulated since `before` (a prior [`snapshot`]), dropping
/// scopes with no new activity.
pub fn since(before: &[ScopeTotals]) -> Vec<ScopeTotals> {
    snapshot()
        .into_iter()
        .filter_map(|now| {
            let prior = before.iter().find(|b| b.name == now.name);
            let calls = now.calls - prior.map_or(0, |b| b.calls);
            let nanos = now.nanos.saturating_sub(prior.map_or(0, |b| b.nanos));
            (calls > 0).then_some(ScopeTotals {
                name: now.name,
                calls,
                nanos,
            })
        })
        .collect()
}

/// Zeroes this thread's counters (tests). Slots stay assigned.
pub fn reset() {
    COUNTERS.with(|c| {
        for cell in c.calls.iter().chain(&c.nanos) {
            cell.set(0);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_accumulate_calls_and_time() {
        reset();
        for _ in 0..10 {
            let _g = crate::scope!("test::a");
            std::hint::black_box(());
        }
        {
            let _g = crate::scope!("test::b");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = snapshot();
        let a = snap
            .iter()
            .find(|t| t.name == "test::a")
            .expect("scope a recorded");
        let b = snap
            .iter()
            .find(|t| t.name == "test::b")
            .expect("scope b recorded");
        assert_eq!(a.calls, 10);
        assert_eq!(b.calls, 1);
        assert!(b.nanos >= 1_000_000, "2ms sleep timed as {}ns", b.nanos);
    }

    #[test]
    fn since_reports_only_new_activity() {
        reset();
        {
            let _g = crate::scope!("test::warm");
        }
        let before = snapshot();
        {
            let _g = crate::scope!("test::hot");
        }
        {
            let _g = crate::scope!("test::hot");
        }
        let delta = since(&before);
        assert_eq!(delta.len(), 1, "only the active scope appears: {delta:?}");
        assert_eq!(delta[0].name, "test::hot");
        assert_eq!(delta[0].calls, 2);
    }

    #[test]
    fn nested_scopes_time_independently() {
        reset();
        {
            let _outer = crate::scope!("test::outer");
            let _inner = crate::scope!("test::inner");
        }
        let snap = snapshot();
        assert!(snap.iter().any(|t| t.name == "test::outer"));
        assert!(snap.iter().any(|t| t.name == "test::inner"));
    }

    #[test]
    fn sampling_keeps_calls_exact_and_time_nonzero() {
        reset();
        for _ in 0..(SAMPLE_PERIOD * 3 + 5) {
            let _g = crate::scope!("test::sampled");
            // A body that outlasts a clock read, so the timed samples
            // hold time after the clock cost is taken off.
            std::thread::sleep(std::time::Duration::from_micros(1));
        }
        let snap = snapshot();
        let t = snap
            .iter()
            .find(|t| t.name == "test::sampled")
            .expect("recorded");
        assert_eq!(t.calls, SAMPLE_PERIOD * 3 + 5, "every entry counts");
        assert!(t.nanos > 0, "sampled entries accumulate scaled time");
    }

    #[test]
    fn samples_lose_one_clock_read_and_scale_by_the_period() {
        assert_eq!(sample_nanos(145, 45), 100 * SAMPLE_PERIOD);
        assert_eq!(sample_nanos(45, 45), 0, "an empty span is no time");
        assert_eq!(sample_nanos(30, 45), 0, "a fast read saturates at 0");
        assert_eq!(sample_nanos(u64::MAX, 0), u64::MAX, "scaling saturates");
        let clock = clock_nanos();
        assert_eq!(clock, clock_nanos(), "measured once per process");
        assert!(clock < 1_000_000, "a clock read costs {clock} ns");
    }

    #[test]
    fn sites_sharing_a_name_share_totals() {
        reset();
        for _ in 0..3 {
            let _g = crate::scope!("test::site");
        }
        {
            let _g = crate::scope!("test::site");
        }
        let snap = snapshot();
        let site: Vec<_> = snap.iter().filter(|t| t.name == "test::site").collect();
        assert_eq!(site.len(), 1, "one totals entry per name: {snap:?}");
        assert_eq!(site[0].calls, 4);
    }

    #[test]
    fn other_threads_scopes_do_not_appear_here() {
        reset();
        std::thread::spawn(|| {
            let _g = crate::scope!("test::elsewhere");
        })
        .join()
        .expect("scope thread");
        {
            let _g = crate::scope!("test::here");
        }
        let names: Vec<_> = snapshot().iter().map(|t| t.name).collect();
        assert_eq!(names, ["test::here"]);
    }

    #[test]
    fn interning_reuses_slots_and_caps_the_names() {
        let mut names = Vec::new();
        assert_eq!(intern_in(&mut names, "a"), 0);
        assert_eq!(intern_in(&mut names, "b"), 1);
        assert_eq!(intern_in(&mut names, "a"), 0, "a known name keeps its slot");
        let leaked: Vec<&'static str> = (2..MAX_SCOPES)
            .map(|i| &*Box::leak(format!("cap::{i}").into_boxed_str()))
            .collect();
        for (i, &name) in leaked.iter().enumerate() {
            assert_eq!(intern_in(&mut names, name), i + 2);
        }
        assert_eq!(names.len(), MAX_SCOPES);
        assert_eq!(
            intern_in(&mut names, "b"),
            1,
            "known names resolve at the cap"
        );
        let over = std::panic::catch_unwind(move || intern_in(&mut names, "one::too::many"));
        let msg = over.expect_err("the cap panics");
        let msg = msg
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(
            msg.contains("one::too::many") && msg.contains("MAX_SCOPES"),
            "{msg}"
        );
    }

    #[test]
    fn reset_while_a_guard_is_live_does_not_corrupt_slots() {
        reset();
        {
            let _live = crate::scope!("test::live");
            reset();
            {
                let _other = crate::scope!("test::other");
            }
            // `_live` drops here, after its slot was cleared and reused.
        }
        let snap = snapshot();
        let other = snap
            .iter()
            .find(|t| t.name == "test::other")
            .expect("other recorded");
        assert_eq!(other.calls, 1);
        let live = snap
            .iter()
            .find(|t| t.name == "test::live")
            .expect("live re-registered");
        assert!(live.nanos > 0);
    }
}
