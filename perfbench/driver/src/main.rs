//! Replays the cells of one benchmark workload in process and reports
//! per-layer numbers.
//!
//! ```text
//! perfbench-driver --warmup N --measure N --threads T [--traced] [--spans PATH]
//!                  --matrix fig04=NodeApp,TPCC [--matrix fig12=NodeApp,TPCC ...]
//! perfbench-driver --calibrate THREADS
//! perfbench-driver --spawn SECONDS CMD [ARG...]
//! ```
//!
//! Each `--matrix` names an experiment binary and its presets; the driver
//! replays that binary's cells with the same design constructors, in the
//! same order, by calling each crate's public functions: it drains every
//! preset's `ServerWorkload` into a shared trace, then runs each cell's
//! predictor over it with `Simulation::run_stream`, spreading both steps
//! over `--threads` workers with `exec::run_jobs_with`.
//!
//! Untraced, only the whole replay is timed. Traced, every predictor is
//! wrapped in [`Timed`] and spans are recorded around generation,
//! construction, oracle training and each run; they stay in memory and are
//! written to `--spans` (one JSON object per line) when the replay ends.
//! After the replay, outside its wall time, a traced driver also runs each
//! trace with an [`Idle`] predictor (the runner's own cost) and with a 64K
//! TSL where the replay has none (the base of the LLBP overhead), on
//! `--threads` workers like the replay's cells, so they share the cores the
//! same way.
//! Either way one JSON object goes to stdout: the replay's wall time, every
//! cell's counters (which the caller checks against a reference) and, when
//! traced, the per-layer metrics.
//!
//! `--calibrate` instead prints the seconds [`calibrate`] takes: a fixed
//! kernel that uses none of the repository's code, so its time tracks only
//! how fast the host runs at that moment.
//!
//! `--spawn SECONDS CMD [ARG...]` runs CMD as this process's only child and
//! prints its exit code, wall and CPU seconds and max-RSS as one JSON line
//! on stderr; see [`spawn`].

use std::collections::{BTreeMap, HashMap};
use std::ffi::{c_int, c_long, c_uint};
use std::fmt::Write as _;
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bpsim::exec::{run_jobs_with, BoxedJob};
use bpsim::predictor::Observation;
use bpsim::runner::Simulation;
use bpsim::SimPredictor;
use llbpx::LlbpConfig;
use tage::{DirectionPredictor, PredictInput, Update};
use traces::{BranchRecord, BranchStream, SharedTrace};
use workloads::{ServerWorkload, WorkloadSpec};

/// One in this many `process` calls is timed. Prime, so the sample does
/// not lock onto a power-of-two period in the trace.
const SAMPLE_PERIOD: u64 = 61;

/// The predictor designs the benchmark's binaries build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Design {
    Tsl64,
    Tsl512,
    TslInf,
    Llbp,
    Llbp0Lat,
    Llbpx,
    OptW,
    NoTweaks,
    Tag20,
    InfContexts,
    InfPatterns,
    NoContext,
}

use Design::*;

impl Design {
    const ALL: [Design; 12] = [
        Tsl64,
        Tsl512,
        TslInf,
        Llbp,
        Llbp0Lat,
        Llbpx,
        OptW,
        NoTweaks,
        Tag20,
        InfContexts,
        InfPatterns,
        NoContext,
    ];

    /// The design's name in metric keys.
    fn key(self) -> &'static str {
        match self {
            Tsl64 => "tsl64",
            Tsl512 => "tsl512",
            TslInf => "inf",
            Llbp => "llbp",
            Llbp0Lat => "llbp0lat",
            Llbpx => "llbpx",
            OptW => "optw",
            NoTweaks => "no_tweaks",
            Tag20 => "tag20",
            InfContexts => "inf_contexts",
            InfPatterns => "inf_patterns",
            NoContext => "no_context",
        }
    }

    /// The crate whose predictor this design is: `tage` or `llbpx`.
    fn layer(self) -> &'static str {
        match self {
            Tsl64 | Tsl512 | TslInf => "tage",
            _ => "llbpx",
        }
    }

    /// Builds the predictor with the constructor its binary uses; Opt-W
    /// takes the depth oracle trained beforehand.
    fn build(self, oracle: Option<HashMap<u64, bool>>) -> Box<dyn SimPredictor> {
        match self {
            Tsl64 => bench::tsl64(),
            Tsl512 => bench::tsl(512),
            TslInf => bench::tsl_inf(),
            Llbp => bench::llbp(),
            Llbp0Lat => bench::llbp_0lat(),
            Llbpx => bench::llbpx(),
            OptW => bench::llbpx_opt_w(oracle.unwrap_or_default()),
            NoTweaks => bench::llbp_with(LlbpConfig::no_design_tweaks()),
            Tag20 => bench::llbp_with(LlbpConfig::with_20b_tags()),
            InfContexts => bench::llbp_with(LlbpConfig::with_infinite_contexts()),
            InfPatterns => bench::llbp_with(LlbpConfig::with_infinite_patterns()),
            NoContext => bench::llbp_with(LlbpConfig::without_contextualization()),
        }
    }
}

/// The cells of one experiment binary, per preset, in its job order.
fn matrix(binary: &str) -> Option<&'static [Design]> {
    match binary {
        "fig04" => Some(&[Tsl64, Llbp, Llbp0Lat, Tsl512, TslInf]),
        "fig12" => Some(&[Tsl64, Llbp, Llbpx, OptW, Tsl512]),
        "table1" => Some(&[Tsl64]),
        "fig05" => Some(&[
            Llbp0Lat,
            NoTweaks,
            Tag20,
            InfContexts,
            InfPatterns,
            NoContext,
        ]),
        _ => None,
    }
}

/// A predictor wrapper that counts every `process` call and times one in
/// [`SAMPLE_PERIOD`] of them.
struct Timed {
    inner: Box<dyn SimPredictor>,
    calls: u64,
    sampled_calls: u64,
    sampled_ns: u64,
}

impl Timed {
    fn new(inner: Box<dyn SimPredictor>) -> Self {
        Timed {
            inner,
            calls: 0,
            sampled_calls: 0,
            sampled_ns: 0,
        }
    }

    /// Estimated time inside the predictor, with `timer_ns` (the cost of
    /// one empty timed interval) taken off each sample.
    fn busy_ns(&self, timer_ns: f64) -> f64 {
        if self.sampled_calls == 0 {
            return 0.0;
        }
        let per_call = self.sampled_ns as f64 / self.sampled_calls as f64 - timer_ns;
        per_call.max(0.0) * self.calls as f64
    }
}

impl DirectionPredictor for Timed {
    fn process(&mut self, input: PredictInput<'_>) -> Update {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_PERIOD) {
            return self.inner.process(input);
        }
        let started = Instant::now();
        let update = self.inner.process(input);
        self.sampled_ns += started.elapsed().as_nanos() as u64;
        self.sampled_calls += 1;
        update
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }
}

impl SimPredictor for Timed {
    fn finish(&mut self) {
        self.inner.finish();
    }

    fn observe(&self) -> Observation<'_> {
        self.inner.observe()
    }
}

/// A predictor that does no work, so a run with it costs only the runner:
/// replay, the shadow bimodal and interval bookkeeping.
struct Idle {
    calls: u64,
}

impl DirectionPredictor for Idle {
    fn process(&mut self, input: PredictInput<'_>) -> Update {
        self.calls += 1;
        if input.record.kind.is_conditional() {
            Update::predicted(true)
        } else {
            Update::unconditional()
        }
    }

    fn name(&self) -> String {
        "idle".to_owned()
    }

    fn storage_bits(&self) -> u64 {
        0
    }
}

impl SimPredictor for Idle {}

/// Runs a fixed kernel shaped like a predictor's hot path (hashed updates
/// to a 2 MiB table of counters, data-dependent branches) on `threads`
/// threads at once, like the benchmark's programs, and returns its wall
/// seconds. Changing it changes every scaled benchmark number.
fn calibrate(threads: usize) -> f64 {
    fn kernel() -> u64 {
        const SLOTS: usize = 1 << 20;
        let mut table = vec![0u16; SLOTS];
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for _ in 0..10_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & (SLOTS - 1);
            let c = table[i];
            if (c ^ (x >> 40) as u16) & 3 == 0 {
                table[i] = c.wrapping_add(3);
                acc += u64::from(c);
            } else {
                table[i.wrapping_mul(7) & (SLOTS - 1)] = c ^ 1;
            }
        }
        acc
    }
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| std::hint::black_box(kernel()));
        }
    });
    started.elapsed().as_secs_f64()
}

/// `struct rusage` of Linux, as `getrusage(2)` fills it.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
    fn waitid(idtype: c_int, id: c_uint, info: *mut [u8; 128], options: c_int) -> c_int;
}

const RUSAGE_CHILDREN: c_int = -1;
const SIGKILL: c_int = 9;
const P_PID: c_int = 1;
const WEXITED: c_int = 4;
const WNOWAIT: c_int = 0x0100_0000;

/// Runs `cmd` with this process's stdout, a null stderr and its own cwd and
/// environment, kills it after `timeout_s`, and prints
/// `{"rc", "wall_s", "cpu_s", "maxrss_kib"}` on stderr.
///
/// The max-RSS is why this exists: exec carries the parent's high-water RSS
/// over into the child's, so a program started straight from the Python
/// harness reports at least the harness's own RSS. Started from this small
/// process, it reports its own.
fn spawn(timeout_s: u64, cmd: &[String]) -> ExitCode {
    let Some((program, args)) = cmd.split_first() else {
        eprintln!("perfbench-driver: --spawn needs a command");
        return ExitCode::from(2);
    };
    let started = Instant::now();
    let mut child = match Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => {
            eprintln!("perfbench-driver: starting {program}: {e}");
            return ExitCode::from(2);
        }
    };
    let pid = child.id() as c_int;
    let (done, waited) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if waited.recv_timeout(Duration::from_secs(timeout_s)).is_err() {
            // SAFETY: `kill` only sends a signal. The child is reaped only
            // after `done` is sent, so `pid` still names it.
            unsafe { kill(pid, SIGKILL) };
        }
    });
    // Wait for the exit without reaping the child, so that its pid cannot
    // be reused before the watchdog has stopped.
    let mut info = [0u8; 128];
    // SAFETY: `info` is as large as a `siginfo_t`.
    let exited = unsafe { waitid(P_PID, pid as c_uint, &mut info, WEXITED | WNOWAIT) } == 0;
    let wall_s = started.elapsed().as_secs_f64();
    if !exited {
        // SAFETY: as in the watchdog; the child is not reaped yet.
        unsafe { kill(pid, SIGKILL) };
    }
    let _ = done.send(());
    let _ = watchdog.join();
    let status = child.wait();
    if !exited {
        eprintln!("perfbench-driver: waitid failed for {program}");
        return ExitCode::from(2);
    }
    let status = match status {
        Ok(status) => status,
        Err(e) => {
            eprintln!("perfbench-driver: waiting for {program}: {e}");
            return ExitCode::from(2);
        }
    };
    let rc = status
        .code()
        .unwrap_or_else(|| -status.signal().unwrap_or(0));
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a writable `struct rusage`.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        eprintln!("perfbench-driver: getrusage failed");
        return ExitCode::from(2);
    }
    let seconds = |t: [c_long; 2]| t[0] as f64 + t[1] as f64 / 1e6;
    eprintln!(
        "{{\"rc\": {rc}, \"wall_s\": {wall_s}, \"cpu_s\": {}, \"maxrss_kib\": {}}}",
        seconds(usage.utime) + seconds(usage.stime),
        usage.maxrss
    );
    ExitCode::SUCCESS
}

/// The median cost of timing an empty interval, in nanoseconds.
fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<u64> = (0..10_001)
        .map(|_| {
            let started = Instant::now();
            started.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// One traced interval: `parent` is the span that caused it (0 for the
/// root); `calls`/`busy_ns` carry the predictor counts of a `run` span.
struct Span {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
    calls: u64,
    busy_ns: f64,
}

/// The spans one job records; a no-op when tracing is off.
struct Spans {
    on: bool,
    epoch: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn new(on: bool, epoch: Instant) -> Self {
        Spans {
            on,
            epoch,
            list: Vec::new(),
        }
    }

    /// A fresh span id, allocated before the span's children are recorded.
    fn id(&self) -> u64 {
        if self.on {
            NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    fn push(&mut self, id: u64, parent: u64, name: String, start: Instant) {
        self.push_counted(id, parent, name, start, 0, 0.0);
    }

    fn push_counted(
        &mut self,
        id: u64,
        parent: u64,
        name: String,
        start: Instant,
        calls: u64,
        busy_ns: f64,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = ns(Instant::now());
        self.list.push(Span {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns,
            calls,
            busy_ns,
        });
    }
}

/// Drains `spec`'s generator into a shared trace long enough for one run
/// of `budget` instructions.
///
/// It runs past the budget by twice the largest record seen: the runner's
/// warmup and measurement loops each finish the record that crosses their
/// budget, so the replay consumes exactly the records a streamed run does.
fn generate(spec: &WorkloadSpec, budget: u64) -> Arc<Vec<BranchRecord>> {
    let mut stream = ServerWorkload::new(spec);
    let mut records = Vec::new();
    let (mut instructions, mut largest) = (0u64, 0u64);
    while instructions < budget + 2 * largest {
        let Some(rec) = stream.next_branch() else {
            break;
        };
        instructions += rec.instructions();
        largest = largest.max(rec.instructions());
        records.push(rec);
    }
    Arc::new(records)
}

/// One preset's generated trace, the drain's time in ns, and its span.
type Drained = (Arc<Vec<BranchRecord>>, f64, Vec<Span>);

/// What one replayed cell produced.
struct Cell {
    binary: String,
    design: Design,
    preset: String,
    instructions: u64,
    cond_branches: u64,
    mispredicts: u64,
    /// Whether the cell belongs to the replay (a `false` cell is a 64K TSL
    /// reference run for the LLBP overhead, outside the replay's wall).
    visible: bool,
    calls: u64,
    busy_ns: f64,
    new_ns: f64,
    oracle_ns: f64,
    spans: Vec<Span>,
}

/// Everything a cell job needs besides the design.
#[derive(Clone, Copy)]
struct CellCtx<'a> {
    binary: &'a str,
    sim: &'a Simulation,
    traced: bool,
    timer_ns: f64,
    epoch: Instant,
    parent: u64,
}

fn run_cell(
    ctx: CellCtx<'_>,
    design: Design,
    spec: &WorkloadSpec,
    trace: &Arc<Vec<BranchRecord>>,
) -> Cell {
    let mut spans = Spans::new(ctx.traced, ctx.epoch);
    let cell_id = spans.id();
    let cell_start = Instant::now();

    let mut oracle_ns = 0.0;
    let oracle = (design == OptW).then(|| {
        let started = Instant::now();
        let oracle = bench::opt_w_oracle(spec, ctx.sim);
        oracle_ns = started.elapsed().as_nanos() as f64;
        spans.push(spans.id(), cell_id, "llbpx.oracle".to_owned(), started);
        oracle
    });

    let started = Instant::now();
    let predictor = design.build(oracle);
    let new_ns = started.elapsed().as_nanos() as f64;
    spans.push(
        spans.id(),
        cell_id,
        format!("{}.new", design.layer()),
        started,
    );

    let mut stream = SharedTrace::new(Arc::clone(trace));
    let started = Instant::now();
    let (result, calls, busy_ns) = if ctx.traced {
        let mut timed = Timed::new(predictor);
        let result = ctx.sim.run_stream(&mut timed, &mut stream, &spec.name);
        let busy = timed.busy_ns(ctx.timer_ns);
        (result, timed.calls, busy)
    } else {
        let mut predictor = predictor;
        (
            ctx.sim
                .run_stream(predictor.as_mut(), &mut stream, &spec.name),
            0,
            0.0,
        )
    };
    spans.push_counted(
        spans.id(),
        cell_id,
        "runner.run_stream".to_owned(),
        started,
        calls,
        busy_ns,
    );
    let name = format!("cell {} {} {}", ctx.binary, design.key(), spec.name);
    spans.push(cell_id, ctx.parent, name, cell_start);

    Cell {
        binary: ctx.binary.to_owned(),
        design,
        preset: spec.name.clone(),
        instructions: result.instructions,
        cond_branches: result.cond_branches,
        mispredicts: result.mispredicts,
        visible: true,
        calls,
        busy_ns,
        new_ns,
        oracle_ns,
        spans: spans.list,
    }
}

struct Args {
    sim: Simulation,
    threads: usize,
    traced: bool,
    spans: Option<String>,
    matrices: Vec<(String, Vec<String>)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sim: Simulation {
            warmup_instructions: 0,
            measure_instructions: 0,
        },
        threads: 1,
        traced: false,
        spans: None,
        matrices: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            args.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--warmup" => args.sim.warmup_instructions = number()?,
            "--measure" => args.sim.measure_instructions = number()?,
            "--threads" => args.threads = number()?.max(1) as usize,
            "--spans" => args.spans = Some(value),
            "--matrix" => {
                let (binary, presets) = value
                    .split_once('=')
                    .ok_or_else(|| format!("--matrix {value}: want BIN=P1,P2"))?;
                if matrix(binary).is_none() {
                    return Err(format!("--matrix: no cell list for binary `{binary}`"));
                }
                let presets = presets
                    .split(',')
                    .map(|p| p.trim().to_ascii_lowercase())
                    .collect();
                args.matrices.push((binary.to_owned(), presets));
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.matrices.is_empty() || args.sim.measure_instructions == 0 {
        return Err("need --measure and at least one --matrix".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--calibrate") {
        let Some(threads) = std::env::args().nth(2).and_then(|t| t.parse().ok()) else {
            eprintln!("perfbench-driver: --calibrate needs a thread count");
            return ExitCode::from(2);
        };
        println!("{}", calibrate(threads));
        return ExitCode::SUCCESS;
    }
    if std::env::args().nth(1).as_deref() == Some("--spawn") {
        let argv: Vec<String> = std::env::args().skip(2).collect();
        let Some(timeout_s) = argv.first().and_then(|t| t.parse().ok()) else {
            eprintln!("perfbench-driver: --spawn needs a timeout in seconds");
            return ExitCode::from(2);
        };
        return spawn(timeout_s, &argv[1..]);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench-driver: {e}");
            return ExitCode::from(2);
        }
    };
    let sim = args.sim;
    let budget = sim.warmup_instructions + sim.measure_instructions;
    let timer_ns = if args.traced {
        timer_overhead_ns()
    } else {
        0.0
    };
    let epoch = Instant::now();
    let mut spans = Spans::new(args.traced, epoch);
    let root = spans.id();

    let mut cells: Vec<Cell> = Vec::new();
    let mut generated: Vec<(u64, f64)> = Vec::new(); // (records, ns) per drain
    let mut traces: HashMap<String, Arc<Vec<BranchRecord>>> = HashMap::new();
    let started = Instant::now();
    for (binary, wanted) in &args.matrices {
        let matrix_id = spans.id();
        let matrix_start = Instant::now();
        // Table I order, as `bench::presets` filters it.
        let specs: Vec<WorkloadSpec> = workloads::presets::all()
            .into_iter()
            .map(|p| p.spec)
            .filter(|s| wanted.contains(&s.name.to_ascii_lowercase()))
            .collect();

        // Each binary's engine generates its own traces, so the replay does too.
        let jobs: Vec<BoxedJob<'_, Drained>> = specs
            .iter()
            .map(|spec| {
                Box::new(move || {
                    let mut spans = Spans::new(args.traced, epoch);
                    let started = Instant::now();
                    let trace = generate(spec, budget);
                    let ns = started.elapsed().as_nanos() as f64;
                    spans.push(
                        spans.id(),
                        matrix_id,
                        format!("workloads.generate {}", spec.name),
                        started,
                    );
                    (trace, ns, spans.list)
                }) as BoxedJob<'_, _>
            })
            .collect();
        let drained = run_jobs_with(args.threads, jobs);
        let mut shared = Vec::new();
        for (spec, (trace, ns, list)) in specs.iter().zip(drained) {
            generated.push((trace.len() as u64, ns));
            spans.list.extend(list);
            traces.insert(spec.name.clone(), Arc::clone(&trace));
            shared.push(trace);
        }

        let ctx = CellCtx {
            binary,
            sim: &sim,
            traced: args.traced,
            timer_ns,
            epoch,
            parent: matrix_id,
        };
        let designs = matrix(binary).unwrap_or_default();
        let jobs: Vec<BoxedJob<'_, Cell>> = specs
            .iter()
            .zip(&shared)
            .flat_map(|(spec, trace)| {
                designs.iter().map(move |&design| {
                    Box::new(move || run_cell(ctx, design, spec, trace)) as BoxedJob<'_, Cell>
                })
            })
            .collect();
        cells.extend(run_jobs_with(args.threads, jobs));
        spans.push(matrix_id, root, format!("binary {binary}"), matrix_start);
    }
    let wall_s = started.elapsed().as_secs_f64();
    spans.push(root, 0, "replay".to_owned(), started);

    let mut runner = (0.0, 0);
    if args.traced {
        add_reference_cells(&mut cells, &traces, &sim, args.threads, timer_ns, epoch);
        runner = idle_runs(&traces, &sim, args.threads, &mut spans, root);
        for cell in &mut cells {
            spans.list.append(&mut cell.spans);
        }
        if let Some(path) = &args.spans {
            if let Err(e) = write_spans(path, &spans.list) {
                eprintln!("perfbench-driver: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{}",
        report(wall_s, &cells, &generated, runner, args.traced)
    );
    ExitCode::SUCCESS
}

/// Times a 64K TSL run on every preset that has LLBP-family cells but no
/// 64K TSL cell of its own, so `llbpx.overhead` has a base on every
/// workload. These runs are outside the replay's wall time.
fn add_reference_cells(
    cells: &mut Vec<Cell>,
    traces: &HashMap<String, Arc<Vec<BranchRecord>>>,
    sim: &Simulation,
    threads: usize,
    timer_ns: f64,
    epoch: Instant,
) {
    let mut missing: Vec<WorkloadSpec> = workloads::presets::all()
        .into_iter()
        .map(|p| p.spec)
        .filter(|s| {
            let has = |d: fn(&Cell) -> bool| cells.iter().any(|c| c.preset == s.name && d(c));
            traces.contains_key(&s.name)
                && has(|c| c.design.layer() == "llbpx")
                && !has(|c| c.design == Tsl64)
        })
        .collect();
    missing.sort_by(|a, b| a.name.cmp(&b.name));
    let ctx = CellCtx {
        binary: "reference",
        sim,
        traced: true,
        timer_ns,
        epoch,
        parent: 0,
    };
    let jobs: Vec<BoxedJob<'_, Cell>> = missing
        .iter()
        .map(|spec| {
            Box::new(move || run_cell(ctx, Tsl64, spec, &traces[&spec.name])) as BoxedJob<'_, _>
        })
        .collect();
    for mut cell in run_jobs_with(threads, jobs) {
        cell.visible = false;
        cells.push(cell);
    }
}

/// Runs every preset's trace through the runner with an [`Idle`]
/// predictor; returns the total (ns, calls). These runs are outside the
/// replay's wall time.
fn idle_runs(
    traces: &HashMap<String, Arc<Vec<BranchRecord>>>,
    sim: &Simulation,
    threads: usize,
    spans: &mut Spans,
    parent: u64,
) -> (f64, u64) {
    let mut presets: Vec<&String> = traces.keys().collect();
    presets.sort();
    let (on, epoch) = (spans.on, spans.epoch);
    let jobs: Vec<BoxedJob<'_, (f64, u64, Vec<Span>)>> = presets
        .into_iter()
        .map(|preset| {
            Box::new(move || {
                let mut spans = Spans::new(on, epoch);
                let mut idle = Idle { calls: 0 };
                let started = Instant::now();
                sim.run_stream(
                    &mut idle,
                    &mut SharedTrace::new(Arc::clone(&traces[preset])),
                    preset,
                );
                let ns = started.elapsed().as_nanos() as f64;
                spans.push_counted(
                    spans.id(),
                    parent,
                    format!("runner.idle {preset}"),
                    started,
                    idle.calls,
                    0.0,
                );
                (ns, idle.calls, spans.list)
            }) as BoxedJob<'_, _>
        })
        .collect();
    let (mut ns, mut calls) = (0.0, 0);
    for (run_ns, run_calls, mut list) in run_jobs_with(threads, jobs) {
        ns += run_ns;
        calls += run_calls;
        spans.list.append(&mut list);
    }
    (ns, calls)
}

/// The driver's stdout object: wall time, cell counters and, when traced,
/// the per-layer metrics.
fn report(
    wall_s: f64,
    cells: &[Cell],
    generated: &[(u64, f64)],
    runner: (f64, u64),
    traced: bool,
) -> String {
    let mut out = format!("{{\"wall_s\": {wall_s}, \"cells\": [");
    for (i, c) in cells.iter().filter(|c| c.visible).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}[\"{}\", \"{}\", \"{}\", {}, {}, {}]",
            c.binary,
            c.design.key(),
            c.preset,
            c.instructions,
            c.cond_branches,
            c.mispredicts
        );
    }
    out.push(']');
    if traced {
        out.push_str(", \"layers\": {");
        for (i, (name, value)) in layer_metrics(cells, generated, runner).iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {value}");
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// The per-layer metrics of one traced replay; a layer the workload does
/// not run reports 0.
fn layer_metrics(
    cells: &[Cell],
    generated: &[(u64, f64)],
    runner: (f64, u64),
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };

    let records: u64 = generated.iter().map(|g| g.0).sum();
    let gen_ns: f64 = generated.iter().map(|g| g.1).sum();
    m.insert("workloads.generate.calls".into(), records as f64);
    m.insert("workloads.generate.s".into(), gen_ns / 1e9);
    m.insert(
        "workloads.generate.ns_per_branch".into(),
        per(gen_ns, records),
    );
    let largest = generated.iter().map(|g| g.0).max().unwrap_or(0);
    let bytes = largest as usize * std::mem::size_of::<BranchRecord>();
    m.insert("traces.trace_mb".into(), bytes as f64 / (1024.0 * 1024.0));

    let visible = || cells.iter().filter(|c| c.visible);
    for design in Design::ALL {
        let of = || visible().filter(|c| c.design == design);
        let busy: f64 = of().map(|c| c.busy_ns).sum();
        let calls: u64 = of().map(|c| c.calls).sum();
        m.insert(
            format!("{}.{}.ns_per_branch", design.layer(), design.key()),
            per(busy, calls),
        );
    }
    for layer in ["tage", "llbpx"] {
        let of = || visible().filter(|c| c.design.layer() == layer);
        m.insert(
            format!("{layer}.process.s"),
            of().map(|c| c.busy_ns).sum::<f64>() / 1e9,
        );
        m.insert(
            format!("{layer}.process.calls"),
            of().map(|c| c.calls).sum::<u64>() as f64,
        );
        m.insert(
            format!("{layer}.new.ms"),
            of().map(|c| c.new_ns).sum::<f64>() / 1e6,
        );
    }
    m.insert(
        "llbpx.oracle.s".into(),
        visible().map(|c| c.oracle_ns).sum::<f64>() / 1e9,
    );

    // LLBP-family cost above a 64K TSL on the same preset's trace.
    let tsl_rate = |preset: &str| {
        let base = || {
            cells
                .iter()
                .filter(|c| c.design == Tsl64 && c.preset == preset)
        };
        per(
            base().map(|c| c.busy_ns).sum(),
            base().map(|c| c.calls).sum(),
        )
    };
    let llbp = || visible().filter(|c| c.design.layer() == "llbpx");
    let extra: f64 = llbp()
        .map(|c| c.busy_ns - tsl_rate(&c.preset) * c.calls as f64)
        .sum();
    m.insert(
        "llbpx.overhead.ns_per_branch".into(),
        per(extra, llbp().map(|c| c.calls).sum()),
    );

    // Measured with an idle predictor rather than as cell wall minus the
    // sampled predictor time: each sampled call is timed on its own and so
    // loses the overlap it has with the runner's code, which inflates the
    // sampled time by about the runner's whole cost.
    m.insert("runner.self.ns_per_branch".into(), per(runner.0, runner.1));
    m
}

fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"calls\": {}, \"busy_ns\": {:.0}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.calls, s.busy_ns
        );
    }
    std::fs::write(path, out)
}
