#!/usr/bin/env python3
"""The repository's benchmark: regenerates figures the way a user does.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 30 --trace 0

Run from the repository root. It builds the experiment binaries and the
in-process driver (`perfbench/driver`) into `$CARGO_TARGET_DIR` (default
`.bench_build`), then:

* `--trace 0` (end-to-end): times the workload's binaries at a token
  budget several times (`setup_s`), then runs them one after another at the
  benchmark's protocol, pass after pass, until `--seconds` have passed, and
  reports medians over the passes, each pass scaled to the reference host
  speed by a calibration kernel timed around it. Every invocation is
  hermetic: inherited `LLBPX_*`/`REPRO_*` variables are dropped,
  `LLBPX_THREADS` and the protocol are set explicitly, and each starts in a
  fresh temporary directory with no checkpoint journal. Each is started
  and measured by the driver's small `--spawn` launcher.
* `--trace 1` (per-layer): three end-to-end passes for the engine's CPU
  utilisation, then the driver replays the same cells in process,
  alternating untraced and traced runs, and reports the traced layers.

Every binary's stdout must match `perfbench/reference/` byte for byte (the
`engine: ... total wall time` line aside), and every driver cell's counters
must match exactly; a mismatch, an `n/a` row or a non-zero exit counts
its cells as failed. `--seed` only shuffles the order in which presets
are named to the programs, which both canonicalise, so one reference serves
every seed. The last stdout line is the JSON result; the line before it is
the provenance tag. `--out FILE` also appends both to FILE for
`perfbench/compare.py`. `--record` rewrites the references (run it on a
commit whose outputs are known good). See `perfbench/README.md`.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ALL_PRESETS = [
    "NodeApp", "PHPWiki", "TPCC", "Twitter", "Wikipedia", "Kafka", "Spring",
    "Tomcat", "Chirper", "FinagleHTTP", "Charlie", "Delta", "Merced", "Whiskey",
]
HEADLINE = ["NodeApp", "TPCC"]

# workload -> the binaries it runs, in order, each with its presets.
WORKLOADS = {
    "headline": [("fig04", HEADLINE), ("fig12", HEADLINE)],
    "baseline": [("table1", ALL_PRESETS)],
    "limit": [("fig05", ["NodeApp", "Whiskey"])],
}
# Visible cells per preset row of each binary's table.
CELLS_PER_ROW = {"fig04": 5, "fig12": 5, "table1": 1, "fig05": 6}

THREADS = 2
WARMUP, MEASURE = 250_000, 1_000_000
# Set-up budget: one measured instruction already renders, but the ratio
# columns divide by the 64K MPKI, so 1000 keeps every cell safely non-zero.
SETUP_WARMUP, SETUP_MEASURE = 0, 1000
SETUP_REPS = 3  # per pass, so set-up samples span the whole run
MIN_PASSES = 5
# A hung program is killed and its cells count as failed.
TIMEOUT_S = 60
# About the seconds the driver's fixed calibration kernel takes on the
# reference box. Timings are scaled by CAL_REF_S / (the kernel's time
# around them), so host-speed drift cancels; the constant only sets the scale.
CAL_REF_S = 0.095

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference"
ENGINE_LINE = re.compile(r"^engine: .* total wall time\n", re.M)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    bins = sorted({b for runs in WORKLOADS.values() for b, _ in runs})
    commands = [
        ["cargo", "build", "--release", "--offline", "-p", "bench"]
        + [arg for b in bins for arg in ("--bin", b)],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(BENCH_DIR / "driver" / "Cargo.toml")],
    ]
    for cmd in commands:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def hermetic_env(warmup, measure):
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LLBPX_", "REPRO_"))}
    env.update(LLBPX_THREADS=str(THREADS), REPRO_WARMUP=str(warmup),
               REPRO_INSTRUCTIONS=str(measure))
    return env


def invoke(launcher, cmd, env, scratch):
    """Runs `cmd` in a fresh directory; returns (stdout, rc, wall_s, cpu_s, maxrss_mib).

    `cmd` is started by the driver's `--spawn` launcher, which times it and
    reads its max-RSS. Started from this process instead, it would inherit
    the interpreter's high-water RSS at exec and report at least that.
    """
    cwd = tempfile.mkdtemp(dir=scratch)
    try:
        with open(os.path.join(cwd, "stdout"), "w+") as out:
            proc = subprocess.run([str(launcher), "--spawn", str(TIMEOUT_S)] + cmd, cwd=cwd,
                                  env=dict(env, TMPDIR=cwd), stdout=out, stderr=subprocess.PIPE,
                                  text=True, timeout=TIMEOUT_S + 30)
            if proc.returncode != 0:
                sys.exit(f"perfbench: the launcher failed: {proc.stderr.strip()}")
            usage = json.loads(proc.stderr.strip().splitlines()[-1])
            out.seek(0)
            stdout = out.read()
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    return stdout, usage["rc"], usage["wall_s"], usage["cpu_s"], usage["maxrss_kib"] / 1024


def failed_cells(binary, stdout, rc, reference, presets):
    """Cells of one invocation that failed against its reference output."""
    total = CELLS_PER_ROW[binary] * len(presets)
    if rc != 0:
        return total
    got_rows, got_rest = split_rows(ENGINE_LINE.sub("", stdout), presets)
    want_rows, want_rest = split_rows(ENGINE_LINE.sub("", reference), presets)
    if got_rest != want_rest:
        return total
    bad = [p for p in presets if got_rows.get(p, "n/a") != want_rows.get(p) or "n/a" in got_rows[p]]
    return CELLS_PER_ROW[binary] * len(bad)


def split_rows(text, presets):
    """A table's per-preset rows (keyed by preset) and all other lines."""
    rows, rest = {}, []
    for line in text.splitlines():
        first = line.split(maxsplit=1)[0] if line.strip() else ""
        if first in presets:
            rows[first] = line
        else:
            rest.append(line)
    return rows, rest


class Run:
    """One benchmark run: the workload's commands, checks and tallies."""

    def __init__(self, root, target, workload, seed, record):
        self.workload, self.record = workload, record
        self.bin_dir = target / "release"
        rng = random.Random(seed)
        # The programs canonicalise the preset order; shuffling it checks that.
        self.runs = [(b, rng.sample(ps, len(ps))) for b, ps in WORKLOADS[workload]]
        self.cells = sum(CELLS_PER_ROW[b] * len(ps) for b, ps in self.runs)
        self.attempted = self.failed = 0
        scratch_root = root / ".bench_build" / "perfbench"
        scratch_root.mkdir(parents=True, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
        self.out_dir = scratch_root

    def reference(self, binary, kind):
        return REFERENCE / f"{self.workload}.{binary}.{kind}.txt"

    def binaries_pass(self, warmup, measure, kind):
        """Runs every binary once; returns (wall_s, cpu_s, peak_rss_mib)."""
        env = hermetic_env(warmup, measure)
        wall = cpu = rss = 0.0
        for binary, presets in self.runs:
            stdout, rc, w, c, r = invoke(
                self.bin_dir / "perfbench-driver", [str(self.bin_dir / binary)],
                dict(env, REPRO_WORKLOADS=",".join(presets)), self.scratch)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            path = self.reference(binary, kind)
            if self.record:
                if rc != 0 or "n/a" in stdout:
                    sys.exit(f"perfbench: {binary} failed; not recording a reference")
                path.write_text(ENGINE_LINE.sub("", stdout))
            self.attempted += CELLS_PER_ROW[binary] * len(presets)
            self.failed += failed_cells(binary, stdout, rc, path.read_text(), presets)
        return wall, cpu, rss

    def driver(self, traced):
        cmd = [str(self.bin_dir / "perfbench-driver"), "--warmup", str(WARMUP),
               "--measure", str(MEASURE), "--threads", str(THREADS)]
        for binary, presets in self.runs:
            cmd += ["--matrix", f"{binary}={','.join(presets)}"]
        if traced:
            cmd += ["--traced", "--spans", str(self.out_dir / f"spans-{self.workload}.jsonl")]
        path = REFERENCE / f"{self.workload}.cells.json"
        self.attempted += self.cells
        try:
            proc = subprocess.run(cmd, cwd=self.scratch, capture_output=True, text=True,
                                  env=hermetic_env(WARMUP, MEASURE), timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = subprocess.CompletedProcess(cmd, -9, "", "timed out")
        if proc.returncode != 0:
            log(f"driver failed: {proc.stderr.strip()}")
            self.failed += self.cells
            return None
        result = json.loads(proc.stdout)
        if self.record:
            path.write_text(json.dumps(result["cells"], indent=0) + "\n")
        want = json.loads(path.read_text())
        self.failed += sum(a != b for a, b in zip(result["cells"], want))
        self.failed += abs(len(result["cells"]) - len(want))
        return result

    def calibrate(self):
        proc = subprocess.run([str(self.bin_dir / "perfbench-driver"), "--calibrate", str(THREADS)],
                              capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
        return float(proc.stdout)

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


def end_to_end(run, seconds):
    passes, setup, cal = [], [], [run.calibrate()]
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        setup.append([run.binaries_pass(SETUP_WARMUP, SETUP_MEASURE, "setup")[0]
                      for _ in range(SETUP_REPS)])
        passes.append(run.binaries_pass(WARMUP, MEASURE, "protocol"))
        cal.append(run.calibrate())
    # The host's speed drifts by tens of percent over minutes, so each pass
    # is scaled by the calibration kernel's time just before and after it.
    scale = [CAL_REF_S / statistics.mean(pair) for pair in zip(cal, cal[1:])]
    walls, cpus, rsss = zip(*passes)
    instructions = run.cells * (WARMUP + MEASURE)
    metrics = {
        "sim_mips": (statistics.median(instructions / (w * k) for w, k in zip(walls, scale)) / 1e6,
                     "MIPS"),
        "cpu_s": (statistics.median(c * k for c, k in zip(cpus, scale)), "s"),
        "peak_rss_mb": (statistics.median(rsss), "MiB"),
        "setup_s": (statistics.median(w * k for ws, k in zip(setup, scale) for w in ws), "s"),
    }
    raw = {
        "sim_mips": statistics.median(instructions / w for w in walls) / 1e6,
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(w for ws in setup for w in ws),
        "calibration_s": statistics.median(cal),
    }
    print("unscaled: " + json.dumps(raw))
    return metrics, len(passes)


def per_layer(run, seconds):
    started = time.perf_counter()
    util = statistics.median(cpu / (wall * THREADS) for wall, cpu, _ in
                             (run.binaries_pass(WARMUP, MEASURE, "protocol") for _ in range(3)))
    plain, traced, cal = [], [], []
    while not plain or time.perf_counter() - started < seconds:
        cal.append(run.calibrate())
        for runs, flag in ((plain, False), (traced, True)):
            result = run.driver(flag)
            if result is None:
                sys.exit("perfbench: the driver failed")
            runs.append(result)
    cal.append(run.calibrate())
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    scaled_wall = statistics.median(
        r["wall_s"] * CAL_REF_S / statistics.mean(pair) for r, pair in zip(plain, zip(cal, cal[1:])))
    metrics = {
        name: (statistics.median(r["layers"][name] for r in traced), unit_of(name))
        for name in traced[0]["layers"]
    }
    metrics["engine.cpu_util"] = (util, "ratio")
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced) / untraced_wall - 1, "ratio")
    metrics["driver.sim_mips"] = (run.cells * (WARMUP + MEASURE) / scaled_wall / 1e6, "MIPS")
    return metrics, len(traced)


def record(run):
    """Rewrites the workload's references, after checking that the driver's
    cells reproduce every number the binaries print for them."""
    REFERENCE.mkdir(exist_ok=True)
    run.binaries_pass(SETUP_WARMUP, SETUP_MEASURE, "setup")
    run.binaries_pass(WARMUP, MEASURE, "protocol")
    cells = run.driver(traced=False)["cells"]
    mpki = {(b, d, p): m * 1000.0 / i for b, d, p, i, _, m in cells}
    for binary, presets in run.runs:
        rows, _ = split_rows(run.reference(binary, "protocol").read_text(), presets)
        for preset in presets:
            mine = [v for (b, _, p), v in mpki.items() if b == binary and p == preset]
            base, others = mine[0], mine[1:]
            if binary == "fig12":
                want = [f"{base:.3f}"] + [f"{(1.0 - v / base) * 100.0:+.1f}%" for v in others]
            else:
                want = [f"{base:.3f}"] + [f"{v / base:.3f}" for v in others]
            got = rows[preset].split()[1:1 + len(want)]
            if got != want:
                sys.exit(f"perfbench: driver disagrees with {binary} on {preset}: {want} vs {got}")
    log(f"recorded references for {run.workload}; the driver reproduces every table cell")


def unit_of(name):
    suffix = name.rsplit(".", 1)[1]
    return {"ns_per_branch": "ns", "s": "s", "ms": "ms", "calls": "count", "trace_mb": "MiB"}[suffix]


def provenance(root, workload, seed, trace):
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    tree = hashlib.sha256()
    sources = [root / "Cargo.toml", root / "Cargo.lock"] + sorted((root / "crates").rglob("*"))
    for path in sources:
        if path.is_file() and "target" not in path.parts:
            tree.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    return {
        "git_sha": sha,
        "source_sha256": tree.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "rustc": rustc,
        "protocol": f"{WARMUP}+{MEASURE}",
        "threads": THREADS,
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also append the tagged result to this file")
    parser.add_argument("--record", action="store_true", help="rewrite the reference outputs")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates" / "bench").is_dir():
        sys.exit("perfbench: run from the repository root (no Cargo.toml or crates/bench here)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else root / target
    build(root, target)

    run = Run(root, target, args.workload, args.seed, args.record)
    try:
        if args.record:
            record(run)
            return
        if args.trace:
            metrics, samples = per_layer(run, args.seconds)
        else:
            metrics, samples = end_to_end(run, args.seconds)
    finally:
        run.close()
    tag = provenance(root, args.workload, args.seed, args.trace)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    log(f"{args.workload}: {samples} measured sample(s), {run.failed}/{run.attempted} failed cells")
    if args.out:
        with args.out.open("a") as f:
            f.write(json.dumps({"provenance": tag, "result": result}) + "\n")
    print("provenance: " + json.dumps(tag))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
