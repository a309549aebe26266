//! Interval time-series: phase-behavior sampling of a simulation run.
//!
//! The runner feeds the recorder cumulative counters once per branch; every
//! `every` instructions the recorder closes an interval and stores the
//! *deltas* — interval MPKI, prefetch timeliness, allocation rate. The
//! result is the repo's first per-interval view of the synthetic workloads
//! (the kind of breakdown the paper's Figs. 6-9 and
//! workload-characterization follow-ups build on).

use crate::json::Json;

/// Cumulative counter values at one observation point (all monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalSnapshot {
    /// Instructions retired so far in the measurement phase.
    pub instructions: u64,
    /// Conditional branches measured so far.
    pub cond_branches: u64,
    /// Mispredictions so far.
    pub mispredicts: u64,
    /// Prefetches issued so far (hierarchical predictors; 0 otherwise).
    pub prefetches_issued: u64,
    /// Prefetched sets classified on-time so far.
    pub prefetch_on_time: u64,
    /// Prefetched sets classified late so far.
    pub prefetch_late: u64,
    /// Pattern allocations so far.
    pub allocations: u64,
}

/// One closed interval of the time-series.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample {
    /// Instruction offset (measurement-relative) at which the interval closed.
    pub instructions: u64,
    /// Conditional branches inside the interval.
    pub cond_branches: u64,
    /// Mispredictions inside the interval.
    pub mispredicts: u64,
    /// Interval MPKI.
    pub mpki: f64,
    /// Prefetches issued inside the interval.
    pub prefetches_issued: u64,
    /// On-time prefetch classifications inside the interval.
    pub prefetch_on_time: u64,
    /// Late prefetch classifications inside the interval.
    pub prefetch_late: u64,
    /// Pattern allocations inside the interval.
    pub allocations: u64,
    /// Allocations per kilo-instruction inside the interval.
    pub allocs_per_kilo: f64,
}

impl IntervalSample {
    /// The sample as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("instructions", self.instructions)
            .set("cond_branches", self.cond_branches)
            .set("mispredicts", self.mispredicts)
            .set("mpki", self.mpki)
            .set("prefetches_issued", self.prefetches_issued)
            .set("prefetch_on_time", self.prefetch_on_time)
            .set("prefetch_late", self.prefetch_late)
            .set("allocations", self.allocations)
            .set("allocs_per_kilo", self.allocs_per_kilo)
    }

    /// The inverse of [`IntervalSample::to_json`]; `None` when a field is
    /// missing or out of range.
    pub fn from_json(j: &Json) -> Option<IntervalSample> {
        let u = |key: &str| j.get(key).and_then(Json::as_u64);
        let f = |key: &str| j.get(key).and_then(Json::as_f64);
        Some(IntervalSample {
            instructions: u("instructions")?,
            cond_branches: u("cond_branches")?,
            mispredicts: u("mispredicts")?,
            mpki: f("mpki")?,
            prefetches_issued: u("prefetches_issued")?,
            prefetch_on_time: u("prefetch_on_time")?,
            prefetch_late: u("prefetch_late")?,
            allocations: u("allocations")?,
            allocs_per_kilo: f("allocs_per_kilo")?,
        })
    }
}

/// Samples cumulative counters into fixed-width intervals.
#[derive(Debug, Clone)]
pub struct IntervalRecorder {
    every: u64,
    next_at: u64,
    last: IntervalSnapshot,
    samples: Vec<IntervalSample>,
}

impl IntervalRecorder {
    /// A recorder closing an interval every `every` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(every: u64) -> Self {
        assert!(every > 0, "interval width must be positive");
        IntervalRecorder {
            every,
            next_at: every,
            last: IntervalSnapshot::default(),
            samples: Vec::new(),
        }
    }

    /// Instruction offset of the next interval boundary.
    ///
    /// Observations strictly below this offset never close an interval, so
    /// a driver can skip building snapshots between boundaries entirely and
    /// call [`IntervalRecorder::observe`] only once the offset is reached —
    /// the samples are identical to observing every event.
    #[inline]
    pub fn next_boundary(&self) -> u64 {
        self.next_at
    }

    /// Feeds the current cumulative counters; closes an interval when the
    /// instruction offset crosses the next boundary.
    #[inline]
    pub fn observe(&mut self, snap: IntervalSnapshot) {
        if snap.instructions >= self.next_at {
            self.close(snap);
            // One interval per crossing: a coarse-grained stream can skip
            // boundaries, so realign to the next one past the observation.
            let periods = snap.instructions / self.every + 1;
            self.next_at = periods * self.every;
        }
    }

    /// Flushes a final partial interval if anything happened since the last
    /// close, and returns the samples.
    pub fn finish(mut self, snap: IntervalSnapshot) -> Vec<IntervalSample> {
        if snap.instructions > self.last.instructions {
            self.close(snap);
        }
        self.samples
    }

    /// Samples closed so far.
    pub fn samples(&self) -> &[IntervalSample] {
        &self.samples
    }

    fn close(&mut self, snap: IntervalSnapshot) {
        let instr = snap.instructions - self.last.instructions;
        let mispredicts = snap.mispredicts - self.last.mispredicts;
        let allocations = snap.allocations - self.last.allocations;
        let per_kilo = |n: u64| {
            if instr == 0 {
                0.0
            } else {
                n as f64 * 1000.0 / instr as f64
            }
        };
        self.samples.push(IntervalSample {
            instructions: snap.instructions,
            cond_branches: snap.cond_branches - self.last.cond_branches,
            mispredicts,
            mpki: per_kilo(mispredicts),
            prefetches_issued: snap.prefetches_issued - self.last.prefetches_issued,
            prefetch_on_time: snap.prefetch_on_time - self.last.prefetch_on_time,
            prefetch_late: snap.prefetch_late - self.last.prefetch_late,
            allocations,
            allocs_per_kilo: per_kilo(allocations),
        });
        self.last = snap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(instructions: u64, mispredicts: u64) -> IntervalSnapshot {
        IntervalSnapshot {
            instructions,
            cond_branches: instructions / 5,
            mispredicts,
            ..IntervalSnapshot::default()
        }
    }

    #[test]
    fn boundary_gated_observation_matches_per_event_observation() {
        let mut dense = IntervalRecorder::new(100);
        let mut gated = IntervalRecorder::new(100);
        for i in 1..=40 {
            let s = snap(i * 9, i);
            dense.observe(s);
            if s.instructions >= gated.next_boundary() {
                gated.observe(s);
            }
        }
        let tail = snap(361, 41);
        assert_eq!(dense.finish(tail), gated.finish(tail));
    }

    #[test]
    fn closes_one_interval_per_boundary_crossing() {
        let mut r = IntervalRecorder::new(100);
        for i in 1..=35 {
            r.observe(snap(i * 10, i));
        }
        // 350 instructions / width 100 → boundaries at 100, 200, 300.
        assert_eq!(r.samples().len(), 3);
        let offs: Vec<u64> = r.samples().iter().map(|s| s.instructions).collect();
        assert_eq!(offs, vec![100, 200, 300]);
    }

    #[test]
    fn samples_hold_deltas_not_cumulative_values() {
        let mut r = IntervalRecorder::new(100);
        r.observe(snap(100, 4));
        r.observe(snap(200, 10));
        let s = r.samples();
        assert_eq!(s[0].mispredicts, 4);
        assert_eq!(
            s[1].mispredicts, 6,
            "second interval holds only its own events"
        );
        assert!((s[1].mpki - 60.0).abs() < 1e-9);
    }

    #[test]
    fn finish_flushes_a_partial_tail() {
        let mut r = IntervalRecorder::new(100);
        r.observe(snap(100, 1));
        r.observe(snap(130, 2));
        let samples = r.finish(snap(130, 2));
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].instructions, 130);
        assert_eq!(samples[1].mispredicts, 1);
    }

    #[test]
    fn offsets_are_strictly_monotone_even_with_jumps() {
        let mut r = IntervalRecorder::new(50);
        // A coarse stream that jumps several boundaries at once.
        for &i in &[40u64, 170, 180, 420, 421] {
            r.observe(snap(i, i / 7));
        }
        let offs: Vec<u64> = r.samples().iter().map(|s| s.instructions).collect();
        assert!(
            offs.windows(2).all(|w| w[0] < w[1]),
            "non-monotone {offs:?}"
        );
    }

    #[test]
    fn json_shape_round_trips() {
        let mut r = IntervalRecorder::new(10);
        r.observe(IntervalSnapshot {
            instructions: 12,
            mispredicts: 1,
            allocations: 3,
            ..IntervalSnapshot::default()
        });
        let j = r.samples()[0].to_json();
        assert_eq!(j.get("instructions").unwrap().as_i64(), Some(12));
        assert_eq!(j.get("allocations").unwrap().as_i64(), Some(3));
        assert!(j.get("pb_occupancy").is_none(), "v7 dropped the gauge");
        assert_eq!(
            IntervalSample::from_json(&j).as_ref(),
            Some(&r.samples()[0])
        );
    }
}
