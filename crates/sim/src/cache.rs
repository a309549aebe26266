//! Shared traces for the run matrix, scoped to their rows.
//!
//! A matrix row is one workload and the cells (predictors) that run on it.
//! A row with two or more unfinished cells materializes its trace at its
//! first claim, as an `Arc<Vec<BranchRecord>>` that every cell of the row
//! replays read-only; cells that claim while the first one generates wait
//! on the row's lock. The row drops its trace when its last cell finishes
//! — completed, failed or restored from the checkpoint — so only rows in
//! flight hold trace memory, and the `LLBPX_TRACE_CACHE_MB` cap bounds the
//! bytes live at once across them.
//!
//! Everything that cannot be shared streams from the generator instead:
//! single-cell rows (materializing would cost more than it saves), every
//! row when the cap is zero, a row whose trace does not fit in what the cap
//! has left, and a row whose spec is invalid, where the same failure then
//! surfaces per cell instead of poisoning the sweep. Streaming and replay
//! produce the same records, so which path ran never changes results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use traces::{BranchRecord, BranchStream};
use workloads::WorkloadSpec;

/// How the shared traces behaved for one matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceCacheStats {
    /// Rows whose trace was materialized into shared storage.
    pub specs_cached: usize,
    /// Rows that streamed (single-cell rows, cap overflow, or generation
    /// failures).
    pub specs_streamed: usize,
    /// Total records materialized across all shared traces.
    pub cached_records: u64,
    /// Total bytes materialized across all shared traces.
    pub cached_bytes: u64,
    /// Most bytes of shared traces live at once.
    pub peak_bytes: u64,
    /// Wall-clock seconds spent generating shared traces.
    pub generation_seconds: f64,
}

#[derive(Default)]
struct Ledger {
    live_bytes: u64,
    stats: TraceCacheStats,
}

/// What one matrix's rows share: the cap on live trace bytes, the
/// instruction budget every trace covers, and the stats.
pub struct TraceCache {
    cap_bytes: u64,
    /// Instructions each trace must cover (warmup + measurement).
    budget: u64,
    ledger: Mutex<Ledger>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl TraceCache {
    /// Rows holding at most `cap_bytes` of materialized records at once,
    /// each trace covering `budget` instructions.
    pub fn new(cap_bytes: u64, budget: u64) -> Self {
        TraceCache { cap_bytes, budget, ledger: Mutex::new(Ledger::default()) }
    }

    /// Shared-trace behavior so far.
    pub fn stats(&self) -> TraceCacheStats {
        lock(&self.ledger).stats
    }

    /// Materializes `spec` for `sharers` cells if that pays and fits in
    /// what the cap has left, or returns `None` to stream.
    fn share(&self, spec: &WorkloadSpec, sharers: usize) -> Option<Arc<Vec<BranchRecord>>> {
        let room = self.cap_bytes.saturating_sub(lock(&self.ledger).live_bytes);
        let trace = (sharers >= 2 && room > 0)
            .then(|| {
                let started = Instant::now();
                let generated = crate::exec::try_materialize(spec, self.budget, room);
                lock(&self.ledger).stats.generation_seconds += started.elapsed().as_secs_f64();
                generated.unwrap_or_else(|e| {
                    eprintln!("warning: {e}; streaming workload `{}`", spec.name);
                    None
                })
            })
            .flatten();

        let mut ledger = lock(&self.ledger);
        match trace {
            // Re-checked under the lock: rows generating concurrently all
            // sized themselves against the same room.
            Some(trace) if ledger.live_bytes + trace_bytes(&trace) <= self.cap_bytes => {
                let bytes = trace_bytes(&trace);
                let Ledger { live_bytes, stats } = &mut *ledger;
                *live_bytes += bytes;
                stats.specs_cached += 1;
                stats.cached_records += trace.len() as u64;
                stats.cached_bytes += bytes;
                stats.peak_bytes = stats.peak_bytes.max(*live_bytes);
                Some(trace)
            }
            _ => {
                ledger.stats.specs_streamed += 1;
                None
            }
        }
    }
}

/// How a row's cells get their records, decided by its first claim.
enum Slot {
    Unclaimed,
    Shared(Arc<Vec<BranchRecord>>),
    Streamed,
}

/// One row's trace: materialized at the row's first claim, dropped when
/// its last cell finishes.
pub struct RowTrace {
    spec: WorkloadSpec,
    slot: Mutex<Slot>,
    /// Cells of the row that have not finished yet.
    unfinished: AtomicUsize,
}

impl RowTrace {
    /// The trace of a row of `cells` cells on workload `spec`.
    pub fn new(spec: WorkloadSpec, cells: usize) -> Self {
        RowTrace { spec, slot: Mutex::new(Slot::Unclaimed), unfinished: AtomicUsize::new(cells) }
    }

    /// The row's workload.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Claims the row's shared trace for one cell, or `None` when the cell
    /// should stream. The first claim decides: it materializes the trace
    /// when another cell of the row is still unfinished and the trace fits
    /// the cap. Cells claiming meanwhile block on the row's lock.
    pub fn claim(&self, cache: &TraceCache) -> Option<Arc<Vec<BranchRecord>>> {
        let mut slot = lock(&self.slot);
        match &*slot {
            Slot::Shared(trace) => Some(Arc::clone(trace)),
            Slot::Streamed => None,
            Slot::Unclaimed => {
                let trace = cache.share(&self.spec, self.unfinished.load(Ordering::Acquire));
                *slot = trace.clone().map_or(Slot::Streamed, Slot::Shared);
                trace
            }
        }
    }

    /// Marks one cell of the row finished, however it ended. The last one
    /// drops the row's trace and returns its bytes to the cap; cells must
    /// drop their own handles on the trace first.
    pub fn finish(&self, cache: &TraceCache) {
        if self.unfinished.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        if let Slot::Shared(trace) = std::mem::replace(&mut *lock(&self.slot), Slot::Streamed) {
            lock(&cache.ledger).live_bytes -= trace_bytes(&trace);
        }
    }
}

fn trace_bytes(trace: &[BranchRecord]) -> u64 {
    trace.len() as u64 * std::mem::size_of::<BranchRecord>() as u64
}

/// Materializes `stream` into shared read-only storage covering at least
/// `instructions`, or returns `None` when materializing would exceed
/// `cap_bytes` or the stream ends early (callers fall back to per-job
/// streaming).
///
/// The trace is generated past the requested budget by twice the largest
/// record seen, which provably covers the runner's boundary overshoot (the
/// warmup and measurement loops each run their crossing record to
/// completion), so replaying the result is bit-identical to streaming the
/// generator — same records, same order, same stopping point.
///
/// The record buffer is allocated once up front (sized by `capacity_hint`,
/// clamped to the cap) and handed to the `Arc` by move: copying a ~100 MB
/// trace through fresh pages costs more than generating it.
pub(crate) fn materialize_stream<S: BranchStream>(
    stream: &mut S,
    instructions: u64,
    cap_bytes: u64,
    capacity_hint: usize,
) -> Option<Arc<Vec<BranchRecord>>> {
    let _t = telemetry::scope!("workload::materialize");
    let record_bytes = std::mem::size_of::<BranchRecord>() as u64;
    let hint = (capacity_hint as u64).min(cap_bytes / record_bytes.max(1)) as usize;
    let mut records: Vec<BranchRecord> = Vec::with_capacity(hint);
    let mut generated = 0u64;
    let mut largest = 1u64;
    while generated < instructions.saturating_add(2 * largest) {
        if (records.len() as u64 + 1) * record_bytes > cap_bytes {
            return None;
        }
        let rec = stream.next_branch()?;
        generated += rec.instructions();
        largest = largest.max(rec.instructions());
        records.push(rec);
    }
    Some(Arc::new(records))
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
        let row = RowTrace::new(tiny_spec("hit", 1), 2);
        let a = row.claim(&cache).expect("materialized");
        let b = row.claim(&cache).expect("materialized");
        assert!(Arc::ptr_eq(&a, &b), "one generation, shared storage");
        let stats = cache.stats();
        assert_eq!(stats.specs_cached, 1);
        assert_eq!(stats.specs_streamed, 0);
        assert_eq!(stats.cached_records, a.len() as u64);
        assert_eq!(stats.cached_bytes, trace_bytes(&a));
        assert_eq!(stats.peak_bytes, stats.cached_bytes);
    }

    #[test]
    fn singletons_and_zero_cap_stream_undegraded() {
        let cache = TraceCache::new(u64::MAX, BUDGET);
        assert!(RowTrace::new(tiny_spec("single", 2), 1).claim(&cache).is_none());
        let zero = TraceCache::new(0, BUDGET);
        assert!(RowTrace::new(tiny_spec("single", 2), 2).claim(&zero).is_none());
        for stats in [cache.stats(), zero.stats()] {
            assert_eq!(stats.specs_streamed, 1);
            assert_eq!(stats.specs_cached, 0);
            assert_eq!(stats.generation_seconds, 0.0, "streaming by design generates nothing");
        }
    }

    #[test]
    fn a_spec_that_does_not_fit_what_is_left_streams() {
        let (spec_a, spec_b) = (tiny_spec("fit-a", 3), tiny_spec("fit-b", 4));
        let probe = TraceCache::new(u64::MAX, BUDGET);
        let one = trace_bytes(&RowTrace::new(spec_a.clone(), 2).claim(&probe).expect("fits"));

        // Room for one trace: A is live, so B overflows what is left and
        // streams, and later claims of B stream without regenerating.
        let cache = TraceCache::new(one + one / 2, BUDGET);
        let (row_a, row_b) = (RowTrace::new(spec_a, 2), RowTrace::new(spec_b, 2));
        assert!(row_a.claim(&cache).is_some());
        assert!(row_b.claim(&cache).is_none());
        let after_first = cache.stats();
        assert!(row_b.claim(&cache).is_none());
        let stats = cache.stats();
        assert_eq!(stats.generation_seconds, after_first.generation_seconds);
        assert_eq!((stats.specs_cached, stats.specs_streamed), (1, 1));
        assert_eq!(stats.cached_bytes, one);
    }

    #[test]
    fn the_last_finished_cell_releases_the_row_trace() {
        let (spec_a, spec_b) = (tiny_spec("rel-a", 5), tiny_spec("rel-b", 6));
        let probe = TraceCache::new(u64::MAX, BUDGET);
        let one = trace_bytes(&RowTrace::new(spec_a.clone(), 2).claim(&probe).expect("fits"));

        // The same room for one trace as above, but A's row finishes first:
        // its bytes return to the cap and B materializes too.
        let cache = TraceCache::new(one + one / 2, BUDGET);
        let (row_a, row_b) = (RowTrace::new(spec_a, 2), RowTrace::new(spec_b, 2));
        let a = row_a.claim(&cache).expect("fits");
        assert_eq!(Arc::strong_count(&a), 2, "the row and this cell");
        drop(a);
        row_a.finish(&cache);
        assert!(row_a.claim(&cache).is_some(), "one cell left: the trace stays");
        row_a.finish(&cache);
        let b = row_b.claim(&cache).expect("A's bytes were released");
        let stats = cache.stats();
        assert_eq!(stats.specs_cached, 2);
        assert_eq!(stats.cached_bytes, one + trace_bytes(&b));
        assert_eq!(stats.peak_bytes, one.max(trace_bytes(&b)));
    }

    #[test]
    fn failed_generation_is_remembered_and_streams_clean() {
        let cache = TraceCache::new(u64::MAX, BUDGET);
        let bad = RowTrace::new(WorkloadSpec::new("bad", 1).with_request_types(0), 2);
        for _ in 0..2 {
            assert!(bad.claim(&cache).is_none());
        }
        assert_eq!(cache.stats().specs_streamed, 1);
    }

    #[test]
    fn concurrent_claimants_share_one_generation() {
        let cache = TraceCache::new(u64::MAX, BUDGET);
        let row = RowTrace::new(tiny_spec("race", 5), 4);
        let start = std::sync::Barrier::new(4);
        let traces: Vec<_> = std::thread::scope(|scope| {
            let claim = || {
                start.wait();
                row.claim(&cache)
            };
            let claims: Vec<_> = (0..4).map(|_| scope.spawn(claim)).collect();
            claims.into_iter().map(|c| c.join().expect("claimant").expect("cached")).collect()
        });
        assert!(traces.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        assert_eq!(cache.stats().specs_cached, 1);
    }
}
