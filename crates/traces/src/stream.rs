//! Abstractions for consuming sequences of branch records.
//!
//! Simulators pull records one at a time from a [`BranchStream`].
//! Streams are ordinary state machines, so workload generators can synthesize
//! records lazily without materializing multi-hundred-million-branch traces.

use std::sync::Arc;

use crate::branch::BranchRecord;

/// A source of dynamic branch records.
///
/// Implementors produce records in program order until exhaustion. Generators
/// in the `workloads` crate are infinite streams; [`Take`] bounds them.
///
/// ```
/// use traces::{BranchRecord, BranchStream, StreamExt, VecTrace};
///
/// let mut s = VecTrace::new(vec![BranchRecord::cond(0x10, 0x20, true, 0)]).take_branches(1);
/// assert!(s.next_branch().is_some());
/// assert!(s.next_branch().is_none());
/// ```
pub trait BranchStream {
    /// Produces the next branch record, or `None` when the stream ends.
    fn next_branch(&mut self) -> Option<BranchRecord>;
}

/// Blanket impl so `&mut S` can be passed where a stream is expected,
/// mirroring `Iterator`'s ergonomics.
impl<S: BranchStream + ?Sized> BranchStream for &mut S {
    #[inline]
    fn next_branch(&mut self) -> Option<BranchRecord> {
        (**self).next_branch()
    }
}

impl<S: BranchStream + ?Sized> BranchStream for Box<S> {
    #[inline]
    fn next_branch(&mut self) -> Option<BranchRecord> {
        (**self).next_branch()
    }
}

/// Extension adapters for [`BranchStream`], in the spirit of `Iterator`.
pub trait StreamExt: BranchStream + Sized {
    /// Bounds the stream to at most `n` branch records.
    fn take_branches(self, n: u64) -> Take<Self> {
        Take { inner: self, remaining: n }
    }

    /// Adapts the stream into a standard [`Iterator`].
    fn iter(self) -> StreamIter<Self> {
        StreamIter { inner: self }
    }
}

impl<S: BranchStream + Sized> StreamExt for S {}

/// Stream adapter produced by [`StreamExt::take_branches`].
#[derive(Debug, Clone)]
pub struct Take<S> {
    inner: S,
    remaining: u64,
}

impl<S: BranchStream> BranchStream for Take<S> {
    #[inline]
    fn next_branch(&mut self) -> Option<BranchRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.inner.next_branch()
    }
}

/// Iterator adapter produced by [`StreamExt::iter`].
#[derive(Debug, Clone)]
pub struct StreamIter<S> {
    inner: S,
}

impl<S: BranchStream> Iterator for StreamIter<S> {
    type Item = BranchRecord;

    #[inline]
    fn next(&mut self) -> Option<BranchRecord> {
        self.inner.next_branch()
    }
}

/// An in-memory trace backed by a `Vec<BranchRecord>`.
///
/// Useful for tests and small captured workloads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VecTrace {
    records: Vec<BranchRecord>,
    cursor: usize,
}

impl VecTrace {
    /// Creates a trace over `records`, positioned at the start.
    pub fn new(records: Vec<BranchRecord>) -> Self {
        VecTrace { records, cursor: 0 }
    }

    /// Number of records in the trace (independent of the cursor).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Read-only view of the underlying records.
    pub fn records(&self) -> &[BranchRecord] {
        &self.records
    }

    /// Consumes the trace and returns the underlying records.
    pub fn into_inner(self) -> Vec<BranchRecord> {
        self.records
    }
}

impl BranchStream for VecTrace {
    #[inline]
    fn next_branch(&mut self) -> Option<BranchRecord> {
        let record = self.records.get(self.cursor).copied()?;
        self.cursor += 1;
        Some(record)
    }
}

/// A read-only trace over shared, immutable records.
///
/// Cloning a `SharedTrace` (or building several from the same
/// `Arc<Vec<BranchRecord>>`) shares the backing storage, so many
/// simulations can replay the identical materialized trace concurrently
/// without duplicating it, as the benchmark driver's in-process replay
/// (`perfbench/driver`) does. Each instance keeps its own cursor.
///
/// The storage is an `Arc<Vec<_>>` rather than an `Arc<[_]>` so a freshly
/// generated `Vec` moves in without the slice-conversion copy, which would
/// touch every page of a large trace a second time.
#[derive(Debug, Clone)]
pub struct SharedTrace {
    records: Arc<Vec<BranchRecord>>,
    cursor: usize,
}

impl SharedTrace {
    /// Creates a trace over `records`, positioned at the start.
    pub fn new(records: Arc<Vec<BranchRecord>>) -> Self {
        SharedTrace { records, cursor: 0 }
    }

    /// Number of records in the trace (independent of the cursor).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Read-only view of the underlying records.
    pub fn records(&self) -> &[BranchRecord] {
        &self.records
    }
}

impl From<Vec<BranchRecord>> for SharedTrace {
    fn from(records: Vec<BranchRecord>) -> Self {
        SharedTrace::new(Arc::new(records))
    }
}

impl BranchStream for SharedTrace {
    #[inline]
    fn next_branch(&mut self) -> Option<BranchRecord> {
        let record = self.records.get(self.cursor).copied()?;
        self.cursor += 1;
        Some(record)
    }
}

impl FromIterator<BranchRecord> for VecTrace {
    fn from_iter<I: IntoIterator<Item = BranchRecord>>(iter: I) -> Self {
        VecTrace::new(iter.into_iter().collect())
    }
}

impl Extend<BranchRecord> for VecTrace {
    fn extend<I: IntoIterator<Item = BranchRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

impl IntoIterator for VecTrace {
    type Item = BranchRecord;
    type IntoIter = StreamIter<VecTrace>;

    fn into_iter(self) -> Self::IntoIter {
        StreamIter { inner: self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::{BranchKind, BranchRecord};

    fn sample(n: usize) -> Vec<BranchRecord> {
        (0..n)
            .map(|i| {
                BranchRecord::new(
                    0x1000 + i as u64 * 8,
                    0x2000,
                    BranchKind::CondDirect,
                    i % 2 == 0,
                    i as u32,
                )
            })
            .collect()
    }

    #[test]
    fn vec_trace_yields_records_in_order() {
        let records = sample(5);
        let mut trace = VecTrace::new(records.clone());
        for expected in &records {
            assert_eq!(trace.next_branch().as_ref(), Some(expected));
        }
        assert_eq!(trace.next_branch(), None);
        assert_eq!(trace.next_branch(), None, "stream stays exhausted");
    }

    #[test]
    fn take_bounds_an_infinite_stream() {
        struct Forever;
        impl BranchStream for Forever {
            fn next_branch(&mut self) -> Option<BranchRecord> {
                Some(BranchRecord::cond(0x10, 0x20, true, 0))
            }
        }
        let taken = Forever.take_branches(17);
        assert_eq!(taken.iter().count(), 17);
    }

    #[test]
    fn take_zero_is_empty() {
        let mut s = VecTrace::new(sample(3)).take_branches(0);
        assert_eq!(s.next_branch(), None);
    }

    #[test]
    fn take_does_not_overrun_a_short_stream() {
        let taken = VecTrace::new(sample(2)).take_branches(10);
        assert_eq!(taken.iter().count(), 2);
    }

    #[test]
    fn mut_reference_is_a_stream() {
        fn consume_one(s: impl BranchStream) -> Option<BranchRecord> {
            let mut s = s;
            s.next_branch()
        }
        let mut trace = VecTrace::new(sample(2));
        assert!(consume_one(&mut trace).is_some());
        // The underlying trace advanced through the reference.
        assert_eq!(trace.iter().count(), 1);
    }

    #[test]
    fn shared_trace_replays_identically_from_shared_storage() {
        let records = sample(4);
        let shared: SharedTrace = records.clone().into();
        let mut a = shared.clone();
        let mut b = shared.clone();
        for expected in &records {
            assert_eq!(a.next_branch().as_ref(), Some(expected));
            assert_eq!(b.next_branch().as_ref(), Some(expected));
        }
        assert_eq!(a.next_branch(), None);
        assert!(Arc::ptr_eq(&a.records, &shared.records), "clones share one buffer");
        assert_eq!(shared.len(), 4, "cloned cursors leave the source untouched");
        assert_eq!(shared.records(), &records[..]);
    }

    #[test]
    fn collect_and_extend_roundtrip() {
        let mut trace: VecTrace = sample(2).into_iter().collect();
        trace.extend(sample(3));
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.into_inner().len(), 5);
    }
}
