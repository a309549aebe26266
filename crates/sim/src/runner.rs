//! The simulation driver: warmup, measurement, result collection and
//! telemetry (wall clock, scope profile). A run measures one window: the
//! last instructions of a run are the window of a run with a longer
//! warmup.

use std::time::Instant;

use llbpx::LlbpStats;
use tage::bimodal::Bimodal;
use tage::PredictInput;
use telemetry::{Json, ScopeTotals};
use traces::BranchStream;
use workloads::{ServerWorkload, WorkloadSpec};

use crate::env::Knob;
use crate::error::SimError;
use crate::predictor::SimPredictor;
use crate::timing::FrontendCounters;

/// Result of one predictor × workload run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Predictor label.
    pub name: String,
    /// Workload name.
    pub workload: String,
    /// Instructions in the measurement phase.
    pub instructions: u64,
    /// Conditional branches measured.
    pub cond_branches: u64,
    /// Final mispredictions.
    pub mispredicts: u64,
    /// Measured branches whose final prediction differed from the 1-cycle
    /// first guess (bimodal, or LLBP's pattern buffer when it provided) —
    /// the override bubbles of the overriding pipeline model (§VII-C).
    pub override_candidates: u64,
    /// Second-level statistics (hierarchical predictors only), snapshot
    /// after [`SimPredictor::finish`].
    pub llbp: Option<LlbpStats>,
    /// Storage budget of the predictor that ran (`u64::MAX` for the
    /// idealized infinite designs).
    pub storage_bits: u64,
    /// The shallow context IDs whose final depth decision is deep, sorted:
    /// the exact Opt-W oracle of this run, since the oracle reads a missing
    /// context as shallow. `Some` only for predictors whose CTT decides
    /// depths (LLBP-X without an oracle).
    pub deep_contexts: Option<Vec<u64>>,
    /// Frontend counters over the measurement phase, for a predictor that
    /// ran behind the frontend observer (`pipeline::Frontend`); the
    /// warmup's share is subtracted, like the second-level statistics'.
    pub frontend: Option<FrontendCounters>,
    /// Wall-clock seconds of the whole run (warmup + measurement).
    ///
    /// This is per-job wall time: under the parallel experiment engine
    /// ([`crate::exec`]) runs overlap, so the sum of `wall_seconds` across
    /// runs exceeds the elapsed wall clock of the invoking binary.
    pub wall_seconds: f64,
    /// Scope profile accumulated during the run (warmup + measurement).
    pub profile: Vec<ScopeTotals>,
    /// Why a matrix cell failed: its index, design and workload, and the
    /// captured panic message. `None` for a completed run; coordinators
    /// render a failed run as an `n/a` row.
    pub error: Option<String>,
    /// Whether this result was restored from a checkpoint journal instead
    /// of simulated in this invocation.
    pub resumed: bool,
}

impl RunResult {
    /// Whether the cell did not complete (the accuracy fields are
    /// meaningless then).
    pub fn is_failed(&self) -> bool {
        self.error.is_some()
    }

    /// Mispredictions per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mispredicts as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Fractional MPKI reduction relative to `base` (positive = better).
    pub fn reduction_vs(&self, base: &RunResult) -> f64 {
        if base.mpki() == 0.0 {
            0.0
        } else {
            1.0 - self.mpki() / base.mpki()
        }
    }

    /// The run record: the run as one JSON object, the shape of both a
    /// telemetry run and a checkpoint journal line. `sim` supplies the
    /// requested protocol (warmup/measurement budgets). A failed run
    /// carries its `error` and no `storage_bits`. A depth-adapting run
    /// carries `deep_contexts` as 16-digit hex strings (a context ID is a
    /// full 64-bit hash, beyond what a JSON number holds exactly); an
    /// observed run carries its `frontend` counters.
    pub fn to_json(&self, sim: &Simulation) -> Json {
        let mut counters = Json::obj();
        let mut histogram = Vec::new();
        if let Some(stats) = &self.llbp {
            for (name, value) in stats.counters() {
                counters = counters.set(name, value);
            }
            histogram = stats
                .alloc_len_histogram
                .iter()
                .map(|&v| Json::from(v))
                .collect();
        }
        let j = Json::obj()
            .set("predictor", self.name.as_str())
            .set("workload", self.workload.as_str())
            .set("warmup_instructions", sim.warmup_instructions)
            .set("measure_instructions", sim.measure_instructions)
            .set("instructions", self.instructions)
            .set("cond_branches", self.cond_branches)
            .set("mispredicts", self.mispredicts)
            .set("mpki", self.mpki())
            .set("override_candidates", self.override_candidates)
            .set("wall_seconds", self.wall_seconds)
            .set("counters", counters)
            .set("alloc_len_histogram", histogram);
        let j = match &self.deep_contexts {
            Some(deep) => {
                let hex: Vec<Json> = deep
                    .iter()
                    .map(|cid| format!("{cid:016x}").into())
                    .collect();
                j.set("deep_contexts", hex)
            }
            None => j,
        };
        let j = match &self.frontend {
            Some(frontend) => j.set(
                "frontend",
                Json::obj()
                    .set("fetch_cycles", frontend.fetch_cycles)
                    .set("target_misses", frontend.target_misses),
            ),
            None => j,
        };
        let mut j = telemetry::record::with_run_sections(
            j,
            &self.profile,
            self.error.as_deref(),
            self.resumed,
        );
        if !self.is_failed() {
            j = j.set("storage_bits", self.storage_bits);
        }
        j
    }

    /// The inverse of [`RunResult::to_json`] for a completed run: the
    /// accuracy fields, the second-level counters (`None` when the record's
    /// `counters` object is empty), the deep contexts, the frontend
    /// counters, the storage bits and `wall_seconds`. The scope profile is
    /// not restored: its labels are `&'static str`s into the binary. `None`
    /// for a failed run, or when any field is missing, negative or
    /// fractional.
    pub fn from_json(j: &Json) -> Option<RunResult> {
        if j.get("status")?.as_str()? != "ok" {
            return None;
        }
        let u = |key: &str| j.get(key).and_then(Json::as_u64);
        let counters = j.get("counters")?;
        let llbp = if *counters == Json::obj() {
            None
        } else {
            let histogram = j
                .get("alloc_len_histogram")?
                .as_arr()?
                .iter()
                .map(Json::as_u64);
            Some(LlbpStats {
                alloc_len_histogram: histogram.collect::<Option<Vec<_>>>()?.try_into().ok()?,
                ..LlbpStats::from_counters(|name| counters.get(name)?.as_u64())?
            })
        };
        let deep_contexts = match j.get("deep_contexts") {
            Some(deep) => {
                let cid = |v: &Json| u64::from_str_radix(v.as_str()?, 16).ok();
                Some(deep.as_arr()?.iter().map(cid).collect::<Option<Vec<_>>>()?)
            }
            None => None,
        };
        let frontend = match j.get("frontend") {
            Some(f) => Some(FrontendCounters {
                fetch_cycles: f.get("fetch_cycles")?.as_u64()?,
                target_misses: f.get("target_misses")?.as_u64()?,
            }),
            None => None,
        };
        Some(RunResult {
            name: j.get("predictor")?.as_str()?.to_owned(),
            workload: j.get("workload")?.as_str()?.to_owned(),
            instructions: u("instructions")?,
            cond_branches: u("cond_branches")?,
            mispredicts: u("mispredicts")?,
            override_candidates: u("override_candidates")?,
            llbp,
            storage_bits: u("storage_bits")?,
            deep_contexts,
            frontend,
            wall_seconds: j.get("wall_seconds")?.as_f64()?,
            profile: Vec::new(),
            error: None,
            resumed: j.get("resumed") == Some(&Json::Bool(true)),
        })
    }
}

fn parse_instruction_count(raw: &str) -> Option<u64> {
    raw.replace('_', "").parse::<u64>().ok()
}

/// `REPRO_WARMUP` knob: warmup instruction budget.
pub static WARMUP: Knob<u64> = Knob::new(
    "REPRO_WARMUP",
    "an instruction count",
    "using the default budget",
    parse_instruction_count,
);

/// `REPRO_INSTRUCTIONS` knob: measurement instruction budget. Zero is
/// rejected: a run that measures nothing has no MPKI to normalize by.
pub static MEASURE: Knob<u64> = Knob::new(
    "REPRO_INSTRUCTIONS",
    "a positive instruction count",
    "using the default budget",
    |raw| parse_instruction_count(raw).filter(|&n| n > 0),
);

/// Warmup/measurement protocol, in instructions (the paper warms 100M and
/// measures 200M; scale to taste via [`Simulation::from_env`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Simulation {
    /// Instructions to run before measurement starts.
    pub warmup_instructions: u64,
    /// Instructions to measure.
    pub measure_instructions: u64,
}

impl Simulation {
    /// The default protocol, 4M + 8M instructions: the one every
    /// committed `results/*.txt` file was recorded at, so a bare run of a
    /// binary prints its committed table.
    pub fn quick() -> Self {
        Simulation {
            warmup_instructions: 4_000_000,
            measure_instructions: 8_000_000,
        }
    }

    /// Reads `REPRO_WARMUP` / `REPRO_INSTRUCTIONS` from the environment
    /// (instruction counts), falling back to [`Simulation::quick`]. The
    /// experiment binaries all use this, so one variable rescales every
    /// figure. A set-but-unparsable value falls back too, with a
    /// once-per-key warning on stderr (via [`crate::env::Knob`]) so a
    /// typo'd budget doesn't invisibly shrink a run.
    pub fn from_env() -> Self {
        let quick = Simulation::quick();
        Simulation {
            warmup_instructions: WARMUP.get(|| quick.warmup_instructions),
            measure_instructions: MEASURE.get(|| quick.measure_instructions),
        }
    }

    /// Runs `predictor` over the workload described by `spec`.
    ///
    /// The workload stream is regenerated from the spec's seed, so every
    /// predictor sees the identical trace.
    ///
    /// # Panics
    ///
    /// Panics with [`SimError::InvalidSpec`]'s message if `spec` fails
    /// validation.
    pub fn run<P: SimPredictor + ?Sized>(
        &self,
        predictor: &mut P,
        spec: &WorkloadSpec,
    ) -> RunResult {
        let mut stream = ServerWorkload::try_new(spec).unwrap_or_else(|reason| {
            panic!(
                "{}",
                SimError::InvalidSpec {
                    workload: spec.name.clone(),
                    reason
                }
            )
        });
        self.run_stream(predictor, &mut stream, &spec.name)
    }

    /// Runs `predictor` over an arbitrary branch stream.
    pub fn run_stream<P, S>(&self, predictor: &mut P, stream: &mut S, workload: &str) -> RunResult
    where
        P: SimPredictor + ?Sized,
        S: BranchStream + ?Sized,
    {
        let started = Instant::now();
        let profile_before = telemetry::profile::snapshot();

        // Warmup.
        let mut elapsed = 0u64;
        while elapsed < self.warmup_instructions {
            let Some(rec) = stream.next_branch() else {
                break;
            };
            elapsed += rec.instructions();
            predictor.process(PredictInput::new(&rec));
        }
        // Second-level and frontend counters are cumulative; snapshot them
        // so the result reports the measurement phase only.
        let warm = predictor.observe();
        let (warm_stats, warm_frontend) = (warm.llbp.cloned(), warm.frontend);

        // Measurement, with the bimodal shadow for the overriding model.
        let mut shadow = Bimodal::new(13);
        let mut result = RunResult {
            name: predictor.name(),
            workload: workload.to_owned(),
            ..RunResult::default()
        };
        while result.instructions < self.measure_instructions {
            let Some(rec) = stream.next_branch() else {
                break;
            };
            result.instructions += rec.instructions();
            let update = predictor.process(PredictInput::new(&rec));
            if let Some(pred) = update.pred {
                result.cond_branches += 1;
                if pred != rec.taken {
                    result.mispredicts += 1;
                }
                // PB-provided predictions are first-cycle and never bubble;
                // the flag rides in the `Update` so no second (virtual)
                // predictor call is needed per branch.
                if pred != shadow.predict(rec.pc) && !update.first_cycle {
                    result.override_candidates += 1;
                }
                shadow.update(rec.pc, rec.taken);
            }
        }
        predictor.finish();
        // Invariants are cumulative-state properties; check them before the
        // warmup delta is taken (a no-op in release builds).
        if let Some(end) = predictor.observe().llbp {
            end.validate();
        }
        result.llbp = predictor.observe().llbp.map(|end| match &warm_stats {
            Some(start) => end.delta_since(start),
            None => end.clone(),
        });
        result.frontend = predictor
            .observe()
            .frontend
            .map(|end| end.delta_since(&warm_frontend.unwrap_or_default()));
        result.deep_contexts = predictor.observe().depth_decisions.map(|decisions| {
            let deep = decisions
                .iter()
                .filter(|&(_, &deep)| deep)
                .map(|(&cid, _)| cid);
            let mut deep: Vec<u64> = deep.collect();
            deep.sort_unstable();
            deep
        });
        result.storage_bits = predictor.storage_bits();
        result.profile = telemetry::profile::since(&profile_before);
        result.wall_seconds = started.elapsed().as_secs_f64();
        result
    }
}

/// Convenience: one warmed-up run of each provided predictor over the same
/// workload, in order.
pub fn compare<'a>(
    sim: &Simulation,
    spec: &WorkloadSpec,
    predictors: impl IntoIterator<Item = &'a mut (dyn SimPredictor + 'a)>,
) -> Vec<RunResult> {
    predictors.into_iter().map(|p| sim.run(p, spec)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::Observation;
    use llbpx::{Llbp, LlbpConfig};
    use tage::{DirectionPredictor, TageScl, TslConfig, Update};
    use traces::VecTrace;

    /// A stand-in for the frontend observer (`pipeline::Frontend`, which
    /// depends on this crate): it forwards every call and counts each
    /// branch's instructions as fetch cycles and each taken branch as a
    /// target miss.
    struct Observed<P>(P, FrontendCounters);

    impl<P: SimPredictor + 'static> Observed<P> {
        fn boxed(inner: P) -> Box<dyn SimPredictor> {
            Box::new(Observed(inner, FrontendCounters::default()))
        }
    }

    impl<P: SimPredictor> DirectionPredictor for Observed<P> {
        fn process(&mut self, input: PredictInput<'_>) -> Update {
            self.1.fetch_cycles += input.record.instructions();
            self.1.target_misses += u64::from(input.record.taken);
            self.0.process(input)
        }
        fn name(&self) -> String {
            self.0.name()
        }
        fn storage_bits(&self) -> u64 {
            self.0.storage_bits()
        }
    }

    impl<P: SimPredictor> SimPredictor for Observed<P> {
        fn finish(&mut self) {
            self.0.finish();
        }
        fn observe(&self) -> Observation<'_> {
            Observation {
                frontend: Some(self.1),
                ..self.0.observe()
            }
        }
    }

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec::new("tiny", 3)
            .with_request_types(64)
            .with_handlers(8)
    }

    fn tiny_sim() -> Simulation {
        Simulation {
            warmup_instructions: 100_000,
            measure_instructions: 200_000,
        }
    }

    #[test]
    fn measures_the_requested_instruction_budget() {
        let r = tiny_sim().run(&mut TageScl::new(TslConfig::kilobytes(64)), &tiny_spec());
        assert!(r.instructions >= 200_000);
        assert!(
            r.instructions < 220_000,
            "should stop promptly after the budget"
        );
        assert!(r.cond_branches > 10_000);
        assert!(r.mpki() > 0.0);
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let a = tiny_sim().run(&mut TageScl::new(TslConfig::kilobytes(64)), &tiny_spec());
        let b = tiny_sim().run(&mut TageScl::new(TslConfig::kilobytes(64)), &tiny_spec());
        assert_eq!(a.mispredicts, b.mispredicts);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.override_candidates, b.override_candidates);
    }

    #[test]
    fn llbp_results_carry_second_level_stats() {
        let r = tiny_sim().run(&mut Llbp::new(LlbpConfig::paper_baseline()), &tiny_spec());
        let stats = r.llbp.expect("LLBP stats present");
        assert!(stats.cond_branches > 0);
        assert_eq!(r.name, "LLBP");
    }

    #[test]
    fn reduction_vs_is_signed() {
        let base = RunResult {
            name: "a".into(),
            workload: "w".into(),
            instructions: 1000,
            cond_branches: 100,
            mispredicts: 10,
            ..RunResult::default()
        };
        let better = RunResult {
            mispredicts: 8,
            ..base.clone()
        };
        let worse = RunResult {
            mispredicts: 12,
            ..base.clone()
        };
        assert!(better.reduction_vs(&base) > 0.0);
        assert!(worse.reduction_vs(&base) < 0.0);
    }

    #[test]
    fn exhausted_streams_end_the_run_gracefully() {
        let sim = Simulation {
            warmup_instructions: 0,
            measure_instructions: u64::MAX,
        };
        let mut trace = VecTrace::new(vec![
            traces::BranchRecord::cond(0x10, 0x20, true, 4),
            traces::BranchRecord::cond(0x10, 0x20, false, 4),
        ]);
        let r = sim.run_stream(&mut TageScl::new(TslConfig::kilobytes(64)), &mut trace, "t");
        assert_eq!(r.cond_branches, 2);
        assert_eq!(r.instructions, 10);
    }

    #[test]
    fn frontend_counters_cover_the_measured_window_only() {
        let plain = tiny_sim().run(&mut TageScl::new(TslConfig::kilobytes(64)), &tiny_spec());
        assert!(plain.frontend.is_none(), "no observer, no counters");
        let mut observed = Observed::boxed(TageScl::new(TslConfig::kilobytes(64)));
        let r = tiny_sim().run(observed.as_mut(), &tiny_spec());
        let frontend = r.frontend.expect("an observed run carries counters");
        assert_eq!(
            frontend.fetch_cycles, r.instructions,
            "the warmup's instructions are subtracted"
        );
        assert!(frontend.target_misses > 0);
        assert_eq!(
            r.mispredicts, plain.mispredicts,
            "the observer is transparent"
        );
    }

    #[test]
    fn runs_collect_telemetry_sections() {
        let sim = tiny_sim();
        let r = sim.run(&mut Llbp::new(LlbpConfig::paper_baseline()), &tiny_spec());
        assert!(r.wall_seconds > 0.0);
        let named: Vec<&str> = r.profile.iter().map(|s| s.name).collect();
        for scope in ["tage::predict", "tage::update", "llbp::pattern_lookup"] {
            assert!(named.contains(&scope), "{scope} missing from {named:?}");
        }
        assert!(r.profile.iter().all(|s| s.calls > 0 && s.nanos > 0));
    }

    #[test]
    fn to_json_captures_protocol_and_counters() {
        let sim = tiny_sim();
        let mut llbp = Llbp::new(LlbpConfig::paper_baseline());
        let r = sim.run(&mut llbp, &tiny_spec());
        let json = r.to_json(&sim);
        let get = |key: &str| json.get(key).unwrap();
        assert_eq!(
            get("warmup_instructions").as_u64(),
            Some(sim.warmup_instructions)
        );
        assert_eq!(
            get("measure_instructions").as_u64(),
            Some(sim.measure_instructions)
        );
        assert!(
            json.get("intervals").is_none(),
            "v8 dropped the time-series"
        );
        assert_eq!(get("profile").as_arr().unwrap().len(), r.profile.len());
        assert_eq!(
            get("counters").get("cond_branches").and_then(Json::as_u64),
            Some(r.llbp.as_ref().unwrap().cond_branches)
        );
        assert!((get("mpki").as_f64().unwrap() - r.mpki()).abs() < 1e-12);
        assert_eq!(get("storage_bits").as_u64(), Some(llbp.storage_bits()));
        assert_eq!(get("status").as_str(), Some("ok"));
        assert!(json.get("error").is_none() && json.get("resumed").is_none());
    }

    /// `from_json` inverts `to_json` on real runs of every storage class
    /// and predictor family, the TSLs' empty counter set included, with
    /// and without frontend counters.
    #[test]
    fn run_records_round_trip_through_from_json() {
        let sim = tiny_sim();
        let strip_profile = |j: Json| match j {
            Json::Obj(fields) => {
                Json::Obj(fields.into_iter().filter(|(k, _)| k != "profile").collect())
            }
            other => other,
        };
        let designs: [Box<dyn SimPredictor>; 6] = [
            Box::new(TageScl::new(TslConfig::kilobytes(64))),
            Box::new(TageScl::new(TslConfig::infinite())),
            Box::new(Llbp::new(LlbpConfig::paper_baseline())),
            Box::new(Llbp::new(LlbpConfig::llbpx())),
            Observed::boxed(TageScl::new(TslConfig::kilobytes(64))),
            Observed::boxed(Llbp::new(LlbpConfig::llbpx())),
        ];
        for mut design in designs {
            let run = sim.run(design.as_mut(), &tiny_spec());
            let json = run.to_json(&sim);
            let back = RunResult::from_json(&json).expect("a completed run restores");
            assert_eq!(back.llbp.is_some(), run.llbp.is_some(), "{}", run.name);
            assert_eq!(back.storage_bits, run.storage_bits);
            assert_eq!(back.frontend, run.frontend, "{}", run.name);
            assert_eq!(
                strip_profile(back.to_json(&sim)),
                strip_profile(json),
                "{}",
                run.name
            );
        }
    }

    #[test]
    fn statuses_map_to_labels_and_placeholders() {
        let json = |r: &RunResult| Json::parse(&r.to_json(&tiny_sim()).to_string()).unwrap();
        let resumed = RunResult {
            resumed: true,
            ..RunResult::default()
        };
        assert!(!resumed.is_failed());
        let j = json(&resumed);
        assert_eq!(j.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(j.get("resumed"), Some(&Json::Bool(true)));
        assert!(RunResult::from_json(&j).unwrap().resumed);
        let error = Some("boom".to_owned());
        let r = RunResult {
            name: "LLBP".into(),
            workload: "w".into(),
            error,
            ..RunResult::default()
        };
        assert!(r.is_failed());
        assert_eq!((r.name.as_str(), r.workload.as_str()), ("LLBP", "w"));
        assert_eq!(r.error.as_deref(), Some("boom"));
        let j = json(&r);
        assert_eq!(j.get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(j.get("error").and_then(Json::as_str), Some("boom"));
        assert!(
            j.get("storage_bits").is_none(),
            "a failed run has no storage"
        );
        assert!(
            RunResult::from_json(&j).is_none(),
            "only completed runs restore"
        );
    }

    #[test]
    fn from_env_falls_back_to_quick() {
        // Only checks the fallback path (environment mutation is unsafe in
        // multithreaded test runs).
        if std::env::var("REPRO_WARMUP").is_err() && std::env::var("REPRO_INSTRUCTIONS").is_err() {
            assert_eq!(Simulation::from_env(), Simulation::quick());
        }
    }
}
