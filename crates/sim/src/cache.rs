//! The shared trace cache behind the run matrix.
//!
//! Traces are materialized *lazily*, at the moment the first cell on a
//! workload claims them, and held as `Arc<Vec<BranchRecord>>` entries for
//! the rest of the matrix under the `LLBPX_TRACE_CACHE_MB` cap.
//! Concurrent cells on the same workload generate its trace once: the
//! first claimant generates, later claimants wait on a condvar.
//!
//! Everything that cannot be cached streams from the generator instead:
//! workloads with a single cell (materializing would cost more than it
//! saves), every workload when the cap is zero, a workload whose trace
//! does not fit in what the cap has left, and a workload whose generation
//! fails (invalid spec, corrupt stream), where the same failure then
//! surfaces per cell instead of poisoning the sweep. Streaming and replay
//! produce the same records, so which path ran never changes results.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use traces::{BranchRecord, BranchStream, StreamValidator};
use workloads::WorkloadSpec;

use crate::error::SimError;

/// How the shared trace cache behaved for one matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceCacheStats {
    /// Distinct workload specs materialized into shared storage.
    pub specs_cached: usize,
    /// Distinct specs that streamed (single-job specs, cap overflow, or
    /// generation failures).
    pub specs_streamed: usize,
    /// Total records materialized across all cached traces.
    pub cached_records: u64,
    /// Total bytes materialized across all cached traces.
    pub cached_bytes: u64,
    /// Wall-clock seconds spent generating shared traces.
    pub generation_seconds: f64,
}

#[derive(Default)]
struct Inner {
    cached: Vec<(WorkloadSpec, Arc<Vec<BranchRecord>>)>,
    /// Specs some worker is currently generating; others wait.
    generating: Vec<WorkloadSpec>,
    /// Specs that stream: decided once, never regenerated.
    streamed: Vec<WorkloadSpec>,
    stats: TraceCacheStats,
}

impl Inner {
    fn stream(&mut self, spec: &WorkloadSpec) {
        self.streamed.push(spec.clone());
        self.stats.specs_streamed += 1;
    }
}

/// The shared, lazily-filled trace cache for one matrix.
pub struct TraceCache {
    cap_bytes: u64,
    /// Instructions each trace must cover (warmup + measurement).
    budget: u64,
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl TraceCache {
    /// A cache holding at most `cap_bytes` of materialized records, each
    /// trace covering `budget` instructions.
    pub fn new(cap_bytes: u64, budget: u64) -> Self {
        TraceCache {
            cap_bytes,
            budget,
            inner: Mutex::new(Inner::default()),
            ready: Condvar::new(),
        }
    }

    /// Cache behavior so far.
    pub fn stats(&self) -> TraceCacheStats {
        self.lock().stats
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims workload `spec`'s shared trace for one cell, or `None` when
    /// the cell should stream it. `sharers` is how many cells of the
    /// matrix run this workload. Blocks while another worker generates
    /// the same trace.
    pub fn acquire(&self, spec: &WorkloadSpec, sharers: usize) -> Option<Arc<Vec<BranchRecord>>> {
        let mut inner = self.lock();
        loop {
            if let Some((_, trace)) = inner.cached.iter().find(|(s, _)| s == spec) {
                return Some(Arc::clone(trace));
            }
            if inner.streamed.contains(spec) {
                return None;
            }
            if sharers < 2 || self.cap_bytes == 0 {
                inner.stream(spec);
                return None;
            }
            if !inner.generating.contains(spec) {
                break;
            }
            inner = self.ready.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        inner.generating.push(spec.clone());
        let room = self.cap_bytes.saturating_sub(inner.stats.cached_bytes);
        drop(inner);

        let started = Instant::now();
        let generated = crate::exec::try_materialize(spec, self.budget, room);

        let mut inner = self.lock();
        inner.generating.retain(|s| s != spec);
        inner.stats.generation_seconds += started.elapsed().as_secs_f64();
        let trace = match generated {
            Ok(Some(trace)) => {
                inner.stats.specs_cached += 1;
                inner.stats.cached_records += trace.len() as u64;
                inner.stats.cached_bytes += trace_bytes(&trace);
                inner.cached.push((spec.clone(), Arc::clone(&trace)));
                Some(trace)
            }
            Ok(None) => {
                inner.stream(spec);
                None
            }
            Err(e) => {
                eprintln!("warning: {e}; streaming workload `{}`", spec.name);
                inner.stream(spec);
                None
            }
        };
        drop(inner);
        self.ready.notify_all();
        trace
    }
}

fn trace_bytes(trace: &[BranchRecord]) -> u64 {
    trace.len() as u64 * std::mem::size_of::<BranchRecord>() as u64
}

/// Materializes `stream` into shared read-only storage covering at least
/// `instructions`, validating every record structurally on the way in.
///
/// Returns `Ok(None)` when materializing would exceed `cap_bytes` or the
/// stream ends early (callers fall back to per-job streaming), and an
/// error when the stream emits a structurally corrupt record — a corrupt
/// shared trace would poison every cell that replays it, so it is rejected
/// before any cell runs.
///
/// The trace is generated past the requested budget by twice the largest
/// record seen, which provably covers the runner's boundary overshoot (the
/// warmup and measurement loops each run their crossing record to
/// completion), so replaying the result is bit-identical to streaming the
/// generator — same records, same order, same stopping point.
///
/// The record buffer is allocated once up front (sized by `capacity_hint`,
/// clamped to the cap) and handed to the `Arc` by move. Growth
/// reallocations and the old `Vec → Arc<[_]>` slice conversion each copied
/// the whole trace through fresh pages — for the ~100 MB traces fig01
/// shares, the first-touch page faults cost multiples of the generation
/// arithmetic itself.
pub(crate) fn materialize_stream<S: BranchStream>(
    workload: &str,
    stream: &mut S,
    instructions: u64,
    cap_bytes: u64,
    capacity_hint: usize,
) -> Result<Option<Arc<Vec<BranchRecord>>>, SimError> {
    let _t = telemetry::scope!("workload::materialize");
    let record_bytes = std::mem::size_of::<BranchRecord>() as u64;
    let hint = (capacity_hint as u64).min(cap_bytes / record_bytes.max(1)) as usize;
    let mut validator = StreamValidator::new();
    let mut records: Vec<BranchRecord> = Vec::with_capacity(hint);
    let mut generated = 0u64;
    let mut largest = 1u64;
    while generated < instructions.saturating_add(2 * largest) {
        if (records.len() as u64 + 1) * record_bytes > cap_bytes {
            return Ok(None);
        }
        let Some(rec) = stream.next_branch() else { return Ok(None) };
        validator
            .check(&rec)
            .map_err(|defect| SimError::Trace { workload: workload.to_owned(), defect })?;
        generated += rec.instructions();
        largest = largest.max(rec.instructions());
        records.push(rec);
    }
    Ok(Some(Arc::new(records)))
}

/// Expected record count for a trace covering `instructions` of `spec`:
/// each record covers its own instruction plus a uniform gap in
/// `gap_min..=gap_max`, so the mean spacing is `1 + (gap_min + gap_max)/2`.
/// A ~2% slack term absorbs sampling variance so the buffer almost never
/// regrows.
pub(crate) fn estimated_records(spec: &WorkloadSpec, instructions: u64) -> usize {
    let mean_gap = (u64::from(spec.gap_min) + u64::from(spec.gap_max)) / 2;
    let estimate = instructions / (1 + mean_gap).max(1);
    (estimate + estimate / 50 + 1024) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(name: &str, seed: u64) -> WorkloadSpec {
        WorkloadSpec::new(name, seed).with_request_types(64).with_handlers(8)
    }

    const BUDGET: u64 = 120_000;

    #[test]
    fn shared_specs_materialize_once_and_hit_after() {
        let cache = TraceCache::new(u64::MAX, BUDGET);
        let spec = tiny_spec("hit", 1);
        let a = cache.acquire(&spec, 2).expect("materialized");
        let b = cache.acquire(&spec, 2).expect("materialized");
        assert!(Arc::ptr_eq(&a, &b), "one generation, shared storage");
        let stats = cache.stats();
        assert_eq!(stats.specs_cached, 1);
        assert_eq!(stats.specs_streamed, 0);
        assert_eq!(stats.cached_records, a.len() as u64);
        assert_eq!(stats.cached_bytes, trace_bytes(&a));
    }

    #[test]
    fn singletons_and_zero_cap_stream_undegraded() {
        let cache = TraceCache::new(u64::MAX, BUDGET);
        let spec = tiny_spec("single", 2);
        assert!(cache.acquire(&spec, 1).is_none());
        let zero = TraceCache::new(0, BUDGET);
        assert!(zero.acquire(&spec, 2).is_none());
        for stats in [cache.stats(), zero.stats()] {
            assert_eq!(stats.specs_streamed, 1);
            assert_eq!(stats.specs_cached, 0);
            assert_eq!(stats.generation_seconds, 0.0, "streaming by design generates nothing");
        }
    }

    #[test]
    fn a_spec_that_does_not_fit_what_is_left_streams() {
        let spec_a = tiny_spec("fit-a", 3);
        let spec_b = tiny_spec("fit-b", 4);
        let one = trace_bytes(&TraceCache::new(u64::MAX, BUDGET).acquire(&spec_a, 2).expect("fits"));

        // Room for one trace: A is cached, B overflows what is left and
        // streams, and later claims of B stream without regenerating.
        let cache = TraceCache::new(one + one / 2, BUDGET);
        assert!(cache.acquire(&spec_a, 2).is_some());
        assert!(cache.acquire(&spec_b, 2).is_none());
        let after_first = cache.stats();
        assert!(cache.acquire(&spec_b, 2).is_none());
        let stats = cache.stats();
        assert_eq!(stats.generation_seconds, after_first.generation_seconds);
        assert_eq!((stats.specs_cached, stats.specs_streamed), (1, 1));
        assert_eq!(stats.cached_bytes, one);
    }

    #[test]
    fn failed_generation_is_remembered_and_streams_clean() {
        let bad = WorkloadSpec::new("bad", 1).with_request_types(0);
        let cache = TraceCache::new(u64::MAX, BUDGET);
        for _ in 0..2 {
            assert!(cache.acquire(&bad, 2).is_none());
        }
        assert_eq!(cache.stats().specs_streamed, 1);
    }

    #[test]
    fn concurrent_claimants_share_one_generation() {
        let cache = TraceCache::new(u64::MAX, BUDGET);
        let spec = tiny_spec("race", 5);
        let start = std::sync::Barrier::new(4);
        let traces: Vec<_> = std::thread::scope(|scope| {
            let claim = || {
                start.wait();
                cache.acquire(&spec, 4)
            };
            let claims: Vec<_> = (0..4).map(|_| scope.spawn(claim)).collect();
            claims.into_iter().map(|c| c.join().expect("claimant").expect("cached")).collect()
        });
        assert!(traces.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        assert_eq!(cache.stats().specs_cached, 1);
    }
}
