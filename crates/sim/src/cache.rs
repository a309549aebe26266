//! The shared trace cache behind the run matrix, with a memory-pressure
//! degradation ladder instead of the old binary materialize/stream choice.
//!
//! Traces are materialized *lazily*, at the moment the first cell on a
//! workload claims them, and held as `Arc<Vec<BranchRecord>>` entries under
//! the `LLBPX_TRACE_CACHE_MB` cap. When admitting a new trace would exceed
//! the cap, the ladder degrades gracefully instead of refusing outright:
//!
//! 1. **Evict** least-recently-used entries that no in-flight run holds
//!    (`Arc` strong count of 1) until the newcomer fits;
//! 2. if pinned entries alone exceed the budget, **demote** the newcomer's
//!    cells to the streaming path — bit-identical results (streaming and
//!    replay are proven equal), attributed with `degraded: true` in
//!    telemetry;
//! 3. a workload whose generation *fails* (invalid spec, corrupt stream —
//!    including chaos-injected corruption) is remembered and streamed by
//!    every cell, where the same failure surfaces per cell instead of
//!    poisoning the sweep.
//!
//! Concurrent cells on the same workload generate its trace once: the
//! first claimant generates (bumping its supervision heartbeat as it
//! goes), later claimants wait on a condvar. Degradation never changes
//! simulated results, only memory footprint and attribution.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use traces::{BranchRecord, BranchStream, FaultInjector, StreamValidator};
use workloads::{ServerWorkload, WorkloadSpec};

use crate::chaos::{ChaosEvent, ChaosPlan};
use crate::error::SimError;
use crate::supervise::JobTicket;

/// How many records the generator emits between heartbeat bumps and
/// cancellation checks while materializing.
const GENERATION_STRIDE: usize = 4096;

/// How the shared trace cache behaved for one matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceCacheStats {
    /// Distinct workload specs materialized into shared storage at some
    /// point during the sweep.
    pub specs_cached: usize,
    /// Distinct specs that only ever streamed (single-job specs, cap
    /// overflow, or generation failures).
    pub specs_streamed: usize,
    /// Total records materialized across all cached traces (cumulative,
    /// not high-water).
    pub cached_records: u64,
    /// Total bytes materialized across all cached traces (cumulative).
    pub cached_bytes: u64,
    /// Wall-clock seconds spent generating shared traces.
    pub generation_seconds: f64,
    /// Idle (unreferenced) traces evicted to admit newcomers.
    pub evictions: u64,
    /// Cell claims demoted to streaming under memory pressure.
    pub demotions: u64,
}

/// What one cell got from the cache.
#[derive(Debug, Clone)]
pub enum TraceLease {
    /// A shared materialized trace to replay read-only.
    Materialized(Arc<Vec<BranchRecord>>),
    /// Stream from the generator. `degraded` is true when the cell
    /// *wanted* the cache but memory pressure demoted it.
    Streamed {
        /// Demoted under memory pressure (vs. streaming by design).
        degraded: bool,
    },
}

struct CacheEntry {
    spec: WorkloadSpec,
    trace: Arc<Vec<BranchRecord>>,
    bytes: u64,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: Vec<CacheEntry>,
    /// Specs some worker is currently generating; others wait.
    generating: Vec<WorkloadSpec>,
    /// Specs whose generation failed: stream forever, don't retry.
    rejected: Vec<WorkloadSpec>,
    /// Specs that overflowed the cap once: stream (degraded) without
    /// re-generating — regeneration would redo the whole overflowing scan.
    demoted: Vec<WorkloadSpec>,
    /// Specs already counted in `specs_cached` / `specs_streamed`.
    counted_cached: Vec<WorkloadSpec>,
    counted_streamed: Vec<WorkloadSpec>,
    clock: u64,
    stats: TraceCacheStats,
}

impl Inner {
    fn used_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    fn count_streamed(&mut self, spec: &WorkloadSpec) {
        if !self.counted_streamed.contains(spec) && !self.counted_cached.contains(spec) {
            self.counted_streamed.push(spec.clone());
            self.stats.specs_streamed += 1;
        }
    }
}

/// The shared, lazily-filled, LRU-evicting trace cache for one matrix.
pub struct TraceCache {
    cap_bytes: u64,
    /// Instructions each trace must cover (warmup + measurement).
    budget: u64,
    chaos: Option<Arc<ChaosPlan>>,
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl TraceCache {
    /// A cache holding at most `cap_bytes` of materialized records, each
    /// covering `budget` instructions.
    pub fn new(cap_bytes: u64, budget: u64, chaos: Option<Arc<ChaosPlan>>) -> Self {
        TraceCache {
            cap_bytes,
            budget,
            chaos,
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

    /// Claims workload `spec`'s trace for one cell. `sharers` is how many
    /// cells of the matrix run this workload — singletons stream by
    /// design (materializing would cost more than it saves), as does
    /// everything when the cap is zero.
    ///
    /// Blocks while another worker generates the same trace; generation on
    /// this worker bumps `ticket`'s heartbeat and aborts if the ticket is
    /// cancelled (the caller notices the cancellation right after).
    pub fn acquire(
        &self,
        spec: &WorkloadSpec,
        sharers: usize,
        ticket: &JobTicket,
    ) -> TraceLease {
        let mut inner = self.lock();
        loop {
            if let Some(entry) =
                inner.entries.iter_mut().find(|e| e.spec == *spec)
            {
                let lease = TraceLease::Materialized(Arc::clone(&entry.trace));
                inner.clock += 1;
                let clock = inner.clock;
                // Re-find to appease the borrow checker after the clock bump.
                if let Some(entry) = inner.entries.iter_mut().find(|e| e.spec == *spec) {
                    entry.last_used = clock;
                }
                return lease;
            }
            if inner.rejected.contains(spec) {
                inner.count_streamed(spec);
                return TraceLease::Streamed { degraded: false };
            }
            if inner.demoted.contains(spec) {
                inner.stats.demotions += 1;
                return TraceLease::Streamed { degraded: true };
            }
            if sharers < 2 || self.cap_bytes == 0 {
                inner.count_streamed(spec);
                return TraceLease::Streamed { degraded: false };
            }
            if inner.generating.contains(spec) {
                inner = self.ready.wait(inner).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            break;
        }

        inner.generating.push(spec.clone());
        // Entries still referenced by running cells are pinned; only the
        // rest is reclaimable, so generation gets the cap minus pins.
        let pinned: u64 = inner
            .entries
            .iter()
            .filter(|e| Arc::strong_count(&e.trace) > 1)
            .map(|e| e.bytes)
            .sum();
        let gen_cap = self.cap_bytes.saturating_sub(pinned);
        drop(inner);

        let started = Instant::now();
        let generated = self.generate(spec, gen_cap, ticket);
        let elapsed = started.elapsed().as_secs_f64();

        let mut inner = self.lock();
        inner.generating.retain(|s| s != spec);
        inner.stats.generation_seconds += elapsed;
        let lease = if ticket.cancelled().is_some() {
            // Aborted mid-generation: decide nothing about this spec; the
            // caller is about to unwind into a timeout error anyway.
            TraceLease::Streamed { degraded: false }
        } else {
            match generated {
                Ok(Some(trace)) => {
                    let bytes =
                        trace.len() as u64 * std::mem::size_of::<BranchRecord>() as u64;
                    while inner.used_bytes() + bytes > self.cap_bytes {
                        let victim = inner
                            .entries
                            .iter()
                            .enumerate()
                            .filter(|(_, e)| Arc::strong_count(&e.trace) == 1)
                            .min_by_key(|(_, e)| e.last_used)
                            .map(|(i, _)| i);
                        let Some(victim) = victim else { break };
                        inner.entries.swap_remove(victim);
                        inner.stats.evictions += 1;
                    }
                    if !inner.counted_cached.contains(spec) {
                        inner.counted_cached.push(spec.clone());
                        inner.stats.specs_cached += 1;
                    }
                    inner.stats.cached_records += trace.len() as u64;
                    inner.stats.cached_bytes += bytes;
                    inner.clock += 1;
                    let clock = inner.clock;
                    inner.entries.push(CacheEntry {
                        spec: spec.clone(),
                        trace: Arc::clone(&trace),
                        bytes,
                        last_used: clock,
                    });
                    TraceLease::Materialized(trace)
                }
                Ok(None) => {
                    inner.demoted.push(spec.clone());
                    inner.count_streamed(spec);
                    inner.stats.demotions += 1;
                    TraceLease::Streamed { degraded: true }
                }
                Err(e) => {
                    // The cells still run (individually isolated) on the
                    // streaming path, where the same failure surfaces as
                    // per-cell errors instead of one global abort.
                    eprintln!("warning: {e}; streaming workload `{}`", spec.name);
                    inner.rejected.push(spec.clone());
                    inner.count_streamed(spec);
                    TraceLease::Streamed { degraded: false }
                }
            }
        };
        drop(inner);
        self.ready.notify_all();
        lease
    }

    fn generate(
        &self,
        spec: &WorkloadSpec,
        cap_bytes: u64,
        ticket: &JobTicket,
    ) -> Result<Option<Arc<Vec<BranchRecord>>>, SimError> {
        let fault = self.chaos.as_deref().and_then(|c| {
            let class = c.trace_fault(&spec.name)?;
            c.record(ChaosEvent {
                cell: None,
                attempt: 0,
                workload: spec.name.clone(),
                kind: format!("trace-{class:?}").to_lowercase(),
                outcome: "injected".into(),
            });
            Some((class, c.trace_fault_seed(&spec.name)))
        });
        let mut stream = ServerWorkload::try_new(spec)
            .map_err(|reason| SimError::InvalidSpec { workload: spec.name.clone(), reason })?;
        let hint = estimated_records(spec, self.budget);
        match fault {
            Some((class, seed)) => {
                let mut faulty = FaultInjector::new(stream, class, seed);
                materialize_stream(
                    &spec.name,
                    &mut faulty,
                    self.budget,
                    cap_bytes,
                    hint,
                    Some(ticket),
                )
            }
            None => materialize_stream(
                &spec.name,
                &mut stream,
                self.budget,
                cap_bytes,
                hint,
                Some(ticket),
            ),
        }
    }
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
/// With a `ticket`, generation bumps its supervision heartbeat every
/// [`GENERATION_STRIDE`] records and stops early (returning `Ok(None)`)
/// once the ticket is cancelled.
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
    ticket: Option<&JobTicket>,
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
        if let Some(ticket) = ticket {
            if records.len().is_multiple_of(GENERATION_STRIDE) {
                ticket.bump();
                if ticket.cancelled().is_some() {
                    return Ok(None);
                }
            }
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

    fn ticket() -> JobTicket {
        JobTicket::unsupervised()
    }

    #[test]
    fn shared_specs_materialize_once_and_hit_after() {
        let cache = TraceCache::new(u64::MAX, BUDGET, None);
        let spec = tiny_spec("hit", 1);
        let a = cache.acquire(&spec, 2, &ticket());
        let b = cache.acquire(&spec, 2, &ticket());
        let (TraceLease::Materialized(ta), TraceLease::Materialized(tb)) = (&a, &b) else {
            panic!("both claims must be materialized");
        };
        assert!(Arc::ptr_eq(ta, tb), "one generation, shared storage");
        let stats = cache.stats();
        assert_eq!(stats.specs_cached, 1);
        assert_eq!(stats.specs_streamed, 0);
        assert!(stats.cached_records > 0);
    }

    #[test]
    fn singletons_and_zero_cap_stream_undegraded() {
        let cache = TraceCache::new(u64::MAX, BUDGET, None);
        let spec = tiny_spec("single", 2);
        assert!(matches!(
            cache.acquire(&spec, 1, &ticket()),
            TraceLease::Streamed { degraded: false }
        ));
        let zero = TraceCache::new(0, BUDGET, None);
        assert!(matches!(
            zero.acquire(&spec, 2, &ticket()),
            TraceLease::Streamed { degraded: false }
        ));
        assert_eq!(cache.stats().specs_streamed, 1);
        assert_eq!(cache.stats().demotions, 0);
    }

    #[test]
    fn pressure_evicts_idle_lru_entries_first() {
        let spec_a = tiny_spec("lru-a", 3);
        let spec_b = tiny_spec("lru-b", 4);
        // Size the cap to one trace: admitting B must evict idle A.
        let probe = TraceCache::new(u64::MAX, BUDGET, None);
        let TraceLease::Materialized(trace) = probe.acquire(&spec_a, 2, &ticket()) else {
            panic!("probe materializes");
        };
        let one = trace.len() as u64 * std::mem::size_of::<BranchRecord>() as u64;
        drop(trace);

        let cache = TraceCache::new(one + one / 2, BUDGET, None);
        let lease_a = cache.acquire(&spec_a, 2, &ticket());
        assert!(matches!(lease_a, TraceLease::Materialized(_)));
        drop(lease_a); // A idle → evictable
        assert!(matches!(
            cache.acquire(&spec_b, 2, &ticket()),
            TraceLease::Materialized(_)
        ));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1, "idle A evicted for B");
        assert_eq!(stats.specs_cached, 2, "both specs were cached at some point");
        assert_eq!(stats.demotions, 0);
    }

    #[test]
    fn pinned_entries_demote_newcomers_to_degraded_streaming() {
        let spec_a = tiny_spec("pin-a", 5);
        let spec_b = tiny_spec("pin-b", 6);
        let probe = TraceCache::new(u64::MAX, BUDGET, None);
        let TraceLease::Materialized(trace) = probe.acquire(&spec_a, 2, &ticket()) else {
            panic!("probe materializes");
        };
        let one = trace.len() as u64 * std::mem::size_of::<BranchRecord>() as u64;
        drop(trace);

        let cache = TraceCache::new(one + one / 2, BUDGET, None);
        let lease_a = cache.acquire(&spec_a, 2, &ticket());
        assert!(matches!(lease_a, TraceLease::Materialized(_)));
        // A is still held (pinned): B cannot evict it and must demote.
        assert!(matches!(
            cache.acquire(&spec_b, 2, &ticket()),
            TraceLease::Streamed { degraded: true }
        ));
        // Later claims of B stream degraded without re-generating.
        assert!(matches!(
            cache.acquire(&spec_b, 2, &ticket()),
            TraceLease::Streamed { degraded: true }
        ));
        let stats = cache.stats();
        assert_eq!(stats.demotions, 2);
        assert_eq!(stats.evictions, 0);
        drop(lease_a);
    }

    #[test]
    fn failed_generation_is_remembered_and_streams_clean() {
        let bad = WorkloadSpec::new("bad", 1).with_request_types(0);
        let cache = TraceCache::new(u64::MAX, BUDGET, None);
        for _ in 0..2 {
            assert!(matches!(
                cache.acquire(&bad, 2, &ticket()),
                TraceLease::Streamed { degraded: false }
            ));
        }
        assert_eq!(cache.stats().specs_streamed, 1);
    }

    #[test]
    fn chaos_trace_faults_reject_the_spec_and_attribute_it() {
        let spec = tiny_spec("chaos-trace", 7);
        let plan = Arc::new(ChaosPlan::new(11, 1.0));
        let cache = TraceCache::new(u64::MAX, BUDGET, Some(Arc::clone(&plan)));
        assert!(
            matches!(
                cache.acquire(&spec, 2, &ticket()),
                TraceLease::Streamed { degraded: false }
            ),
            "a corrupted generation must fall back to clean streaming"
        );
        let events = plan.take_events();
        assert_eq!(events.len(), 1);
        assert!(events[0].kind.starts_with("trace-"), "{:?}", events[0]);
        assert_eq!(events[0].workload, spec.name);
    }

    #[test]
    fn a_cancelled_ticket_aborts_generation() {
        use crate::supervise::CancelReason;
        let cache = TraceCache::new(u64::MAX, BUDGET, None);
        let spec = tiny_spec("cancel", 8);
        let t = JobTicket::new(0);
        t.cancel(CancelReason::DeadlineExceeded);
        assert!(matches!(
            cache.acquire(&spec, 2, &t),
            TraceLease::Streamed { degraded: false }
        ));
        // The abort decided nothing: a healthy claimant still materializes.
        assert!(matches!(
            cache.acquire(&spec, 2, &ticket()),
            TraceLease::Materialized(_)
        ));
    }
}
