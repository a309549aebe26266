#!/usr/bin/env bash
# Tier-1 verification, fully offline: the format gate, release build, the
# whole test suite, the panic-free lint gate, the rustdoc link gate, and
# smoke experiments covering every binary's main, the examples,
# determinism (fig01 and the fig08 context analyses), fault isolation,
# checkpoint/resume, and a journal shared by fig13 and fig13p.
#
# Usage: scripts/verify.sh
# Exits nonzero on the first failure.

set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting first: it is the cheapest gate. `--all` covers every workspace
# member; perfbench/driver is a workspace of its own and is not checked.
echo "== lint: cargo fmt --check (whole workspace) =="
cargo fmt --all --check

echo "== tier-1: release build =="
cargo build --release --offline

# The benchmark driver is a separate workspace that calls the engine's
# public API; build it here so an API change breaks CI, not the next
# benchmark run. Its artifacts go to the repository's target directory.
# Its lock file does not yet record that `pipeline` depends on `bpsim`, so
# a build rewrites it; the committed file is put back either way, and the
# working tree stays as clean as it was.
echo "== build: benchmark driver (perfbench/driver) =="
driver_lock="$(mktemp -t llbpx-verify-lock-XXXXXX)"
cp perfbench/driver/Cargo.lock "$driver_lock"
driver_status=0
cargo build --release --offline --manifest-path perfbench/driver/Cargo.toml \
    --target-dir target || driver_status=$?
cp "$driver_lock" perfbench/driver/Cargo.lock
rm -f "$driver_lock"
[ "$driver_status" -eq 0 ] || exit "$driver_status"

echo "== tier-1: test suite =="
cargo test -q --offline

# Every target of every crate (libraries, the experiment binaries, tests,
# examples) must be clippy-clean. The library crates also deny
# unwrap/expect outside tests (see the `#![cfg_attr(not(test), deny(...))]`
# attribute in each crate's lib.rs); clippy enforces that here too.
if cargo clippy --version >/dev/null 2>&1; then
    echo "== lint: clippy -D warnings (whole workspace, all targets) =="
    cargo clippy -q --offline --workspace --all-targets -- -D warnings
else
    echo "== lint: clippy unavailable, skipping (lib.rs deny attributes still apply) =="
fi

echo "== lint: rustdoc (broken or ambiguous intra-doc links fail) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline --workspace

echo "== smoke: fig01 --json, LLBPX_THREADS=1 vs 4 =="
sink1="$(mktemp -t llbpx-verify-t1-XXXXXX.json)"
sink4="$(mktemp -t llbpx-verify-t4-XXXXXX.json)"
trap 'rm -f "$sink1" "$sink4"' EXIT
for t in 1 4; do
    sink_var="sink$t"
    LLBPX_THREADS=$t REPRO_WORKLOADS=NodeApp,TPCC \
        REPRO_WARMUP=100000 REPRO_INSTRUCTIONS=400000 \
        ./target/release/fig01 --json "${!sink_var}"
done

# Each record must be one well-formed JSON line with runs (none carrying
# the interval series schema v8 dropped), the engine bookkeeping, and a
# nonzero scope profile that includes the run's
# own workload generation (the same contract tests/telemetry.rs
# enforces) — and every accuracy field must be
# bit-identical between the 1-thread and 4-thread invocations (only the
# timing fields may differ).
python3 - "$sink1" "$sink4" <<'EOF'
import json, sys

def load(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    assert len(lines) == 1, f"expected one record line, got {len(lines)}"
    rec = json.loads(lines[0])
    assert rec["schema"] == "llbpx-telemetry/8", rec["schema"]
    assert rec["bench"] == "fig01"
    assert "failed_cells" not in rec, "no cell may fail in the clean smoke"
    assert rec["total_wall_seconds"] > 0
    assert len(rec["runs"]) >= 1
    for run in rec["runs"]:
        assert run["status"] == "ok", run
        assert "intervals" not in run, "schema v8 dropped the interval series"
        timed = [s for s in run["profile"] if s["nanos"] > 0 and s["calls"] > 0]
        assert len(timed) >= 2, f"too few timed scopes: {run['profile']}"
        assert any(s["scope"] == "workload::emit_request" for s in timed), \
            f"generation not timed in the run that paid for it: {run['profile']}"
    return rec

one, four = load(sys.argv[1]), load(sys.argv[2])
assert one["threads"] == 1 and four["threads"] == 4, (one["threads"], four["threads"])
assert len(one["runs"]) == len(four["runs"])
ACCURACY = ["predictor", "workload", "instructions", "cond_branches",
            "mispredicts", "mpki", "counters", "alloc_len_histogram"]
for r1, r4 in zip(one["runs"], four["runs"]):
    for key in ACCURACY:
        assert r1[key] == r4[key], \
            f"{key} differs between threads=1 and threads=4 for {r1['predictor']}"
print(f"ok: {len(one['runs'])} run record(s), accuracy bit-identical at 1 and 4 threads, "
      f"wall {one['total_wall_seconds']:.2f}s vs {four['total_wall_seconds']:.2f}s")
EOF

echo "== smoke: fig08 context analyses, LLBPX_THREADS=1 vs 2 =="
# The analyses run as one grid row of the engine too: their tables must
# not depend on the worker count (only the engine: line may differ).
analysis1="$(mktemp -t llbpx-verify-fig08-t1-XXXXXX.out)"
analysis2="$(mktemp -t llbpx-verify-fig08-t2-XXXXXX.out)"
for t in 1 2; do
    out_var="analysis$t"
    LLBPX_THREADS=$t REPRO_WORKLOADS=NodeApp REPRO_WARMUP=100000 REPRO_INSTRUCTIONS=400000 \
        ./target/release/fig08 | grep -v '^engine:' >"${!out_var}"
done
if ! diff "$analysis1" "$analysis2"; then
    echo "error: fig08 differs between LLBPX_THREADS=1 and 2" >&2
    exit 1
fi
echo "ok: fig08 stdout byte-identical at 1 and 2 threads"
rm -f "$analysis1" "$analysis2"

echo "== smoke: every experiment binary on a small protocol =="
# CI's only run of every binary's main: each must exit 0, print its paper
# reference and no NaN (a summary over missing data prints n/a), and an
# engine line must report the worker count its record line holds; the
# record is schema v8, so no run carries an interval series.
bin_out="$(mktemp -t llbpx-verify-bin-XXXXXX.out)"
bin_sink="$(mktemp -t llbpx-verify-bin-XXXXXX.json)"
count=0
for src in crates/bench/src/bin/*.rs; do
    bin="$(basename "$src" .rs)"
    rm -f "$bin_sink"
    if ! LLBPX_THREADS=2 REPRO_WORKLOADS=NodeApp REPRO_WARMUP=20000 REPRO_INSTRUCTIONS=60000 \
        "./target/release/$bin" --json "$bin_sink" >"$bin_out" 2>/dev/null; then
        echo "error: $bin exited nonzero" >&2
        exit 1
    fi
    grep -q '^paper reference:' "$bin_out" || { echo "error: $bin printed no paper reference" >&2; exit 1; }
    if grep -q 'NaN' "$bin_out"; then
        echo "error: $bin printed NaN" >&2
        exit 1
    fi
    python3 - "$bin" "$bin_out" "$bin_sink" <<'EOF'
import json, re, sys
name, out, sink = sys.argv[1:]
engine = [l for l in open(out).read().splitlines() if l.startswith("engine:")]
rec = json.loads(open(sink).read().splitlines()[0])
threads = rec["threads"]
for line in engine:
    shown = int(re.match(r"engine: (\d+) thread", line).group(1))
    assert shown == threads, f"{name}: engine line says {shown} thread(s), record {threads}"
assert rec["schema"] == "llbpx-telemetry/8", f"{name}: {rec['schema']}"
assert not any("intervals" in run for run in rec["runs"]), f"{name}: a run carries intervals"
EOF
    count=$((count + 1))
done
rm -f "$bin_out" "$bin_sink"
echo "ok: $count binaries exit 0 with a paper reference, no NaN and one thread count"

echo "== smoke: the bench examples run to completion =="
# Clippy builds the examples but nothing else runs them; custom_workload
# is the only caller of the WorkloadSpec builder outside the presets and
# the tests. Each must exit 0 (set -e stops the script otherwise).
cargo build -q --release --offline -p bench --examples
for example in quickstart h2p_explorer capacity_planner custom_workload; do
    "./target/release/examples/$example" >/dev/null
done
echo "ok: 4 examples exit 0"

echo "== smoke: fig01 accuracy parity vs recorded stats =="
# The per-branch kernel is optimization territory; any change that shifts
# a single misprediction is a correctness bug, not a perf win. Diff the
# threads=1 smoke record against the stats recorded before the kernel
# optimization (scripts/fig01_accuracy.json, same protocol).
python3 - "$sink1" scripts/fig01_accuracy.json <<'EOF'
import json, sys
rec = json.loads(open(sys.argv[1]).read().splitlines()[0])
want = json.load(open(sys.argv[2]))
got_proto = [rec["runs"][0]["warmup_instructions"],
             rec["runs"][0]["measure_instructions"]]
assert got_proto == want["protocol"], \
    f"smoke protocol drifted: {got_proto} vs recorded {want['protocol']}"
ACCURACY = ["predictor", "workload", "instructions", "cond_branches",
            "mispredicts", "mpki", "override_candidates"]
got = [{k: r[k] for k in ACCURACY} for r in rec["runs"]]
assert len(got) == len(want["runs"]), (len(got), len(want["runs"]))
for g, w in zip(got, want["runs"]):
    assert g == w, f"accuracy drifted from the recorded stats:\n  got  {g}\n  want {w}"
print(f"ok: {len(got)} run(s) bit-identical to the recorded pre-optimization stats")
EOF

echo "== gate: golden stats for every predictor family =="
# Every bench design constructor (TSL 8K-512K, Inf TSL, the LLBP family,
# the fig05 limit-study and breakdown configs) on NodeApp and TPCC must
# reproduce scripts/golden.json counter for counter.
cargo test -q --release --offline -p bench --test golden

echo "== smoke: fault isolation (LLBPX_FAULT_CELL) =="
# One deliberately-panicking cell: the run must exit nonzero, render the
# broken preset as n/a, keep the other preset's row, and mark exactly one
# telemetry run failed. A panic is the only way a cell fails, so every
# run is "ok" or "failed" and the record carries no other failure count.
sink_fault="$(mktemp -t llbpx-verify-fault-XXXXXX.json)"
fault_out="$(mktemp -t llbpx-verify-fault-XXXXXX.out)"
if LLBPX_FAULT_CELL=1 LLBPX_THREADS=4 REPRO_WORKLOADS=NodeApp,TPCC \
    REPRO_WARMUP=100000 REPRO_INSTRUCTIONS=400000 \
    ./target/release/fig01 --json "$sink_fault" >"$fault_out" 2>/dev/null; then
    echo "error: fig01 exited 0 despite a failed cell" >&2
    exit 1
fi
grep -q "n/a" "$fault_out" || { echo "error: no n/a row for the failed cell" >&2; exit 1; }
python3 - "$sink_fault" <<'EOF'
import json, sys
rec = json.loads(open(sys.argv[1]).read().splitlines()[0])
assert rec["failed_cells"] == 1, rec.get("failed_cells")
# The record line holds the engine bookkeeping and nothing else: no
# failure count besides failed_cells.
RECORD_KEYS = {"schema", "bench", "total_wall_seconds", "runs", "threads",
               "failed_cells", "resumed_cells"}
assert set(rec) <= RECORD_KEYS, set(rec) - RECORD_KEYS
statuses = {r["status"] for r in rec["runs"]}
assert statuses <= {"ok", "failed"}, statuses
failed = [r for r in rec["runs"] if r["status"] == "failed"]
assert len(failed) == 1 and "LLBPX_FAULT_CELL" in failed[0]["error"], failed
ok = [r for r in rec["runs"] if r["status"] == "ok"]
assert len(ok) == len(rec["runs"]) - 1, "the other cells must complete"
print(f"ok: 1 of {len(rec['runs'])} cells failed, isolated, exit nonzero")
EOF
rm -f "$sink_fault" "$fault_out"

echo "== smoke: kill -9 mid-matrix, resume from LLBPX_CHECKPOINT =="
ckpt="$(mktemp -t llbpx-verify-ckpt-XXXXXX.jsonl)"
clean_out="$(mktemp -t llbpx-verify-clean-XXXXXX.out)"
resume_out="$(mktemp -t llbpx-verify-resume-XXXXXX.out)"
rm -f "$ckpt"
fig01_4t=(env LLBPX_THREADS=4 REPRO_WORKLOADS=NodeApp,TPCC,Wikipedia,Spring
          REPRO_WARMUP=300000 REPRO_INSTRUCTIONS=1000000)
"${fig01_4t[@]}" ./target/release/fig01 >"$clean_out"
# A plain command, not a shell function: then `$!` is fig01 itself, and
# the kill below stops it instead of a subshell whose fig01 runs on.
"${fig01_4t[@]}" "LLBPX_CHECKPOINT=$ckpt" ./target/release/fig01 >/dev/null 2>&1 &
victim=$!
# Kill as soon as the journal holds one finished cell (mid-matrix).
for _ in $(seq 1 600); do
    [ -s "$ckpt" ] && break
    kill -0 "$victim" 2>/dev/null || break
    sleep 0.05
done
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
[ -s "$ckpt" ] || { echo "error: the killed run journaled nothing" >&2; exit 1; }
before=$(wc -l <"$ckpt")
"${fig01_4t[@]}" "LLBPX_CHECKPOINT=$ckpt" ./target/release/fig01 >"$resume_out" 2>/dev/null
# Only the wall-time line may differ from the uninterrupted run.
if ! diff <(grep -v "total wall time" "$clean_out") \
          <(grep -v "total wall time" "$resume_out"); then
    echo "error: resumed output is not byte-identical to a clean run" >&2
    exit 1
fi
# Every journal line is a run record (the object a telemetry run holds)
# plus the format version and the cell's fingerprint: one line per cell.
python3 - "$ckpt" <<'EOF'
import json, sys
RECORD_KEYS = {"predictor", "workload", "instructions", "cond_branches",
               "mispredicts", "override_candidates", "counters",
               "alloc_len_histogram", "storage_bits"}
lines = [l for l in open(sys.argv[1]).read().splitlines() if l.strip()]
assert len(lines) == 8, f"expected one line per fig01 cell, got {len(lines)}"
for line in lines:
    entry = json.loads(line)
    assert entry["v"] == 5, entry["v"]
    assert entry["fingerprint"], "a journal line needs its cell's fingerprint"
    missing = RECORD_KEYS - set(entry)
    assert not missing, f"journal line lacks run-record keys {sorted(missing)}"
    assert "intervals" not in entry, "schema v8 dropped the interval series"
print(f"ok: {len(lines)} journal line(s), each a v5 run record")
EOF
echo "ok: killed after $before journaled cell(s); resumed output byte-identical"
rm -f "$ckpt" "$clean_out" "$resume_out"

echo "== smoke: fig12 rebuilds Opt-W from a restored LLBP-X record =="
# fig12's Opt-W cell takes its depth oracle from the deep contexts of the
# row's LLBP-X run. Journal a clean run, delete its Opt-W lines and keep
# the LLBP-X lines, then re-run: each Opt-W cell is rebuilt from a
# *restored* LLBP-X record and must match the clean run — the table byte
# for byte, and every counter of the re-simulated cell. Kafka has a deep
# context at this budget, so the oracle under test is not empty.
ckpt="$(mktemp -t llbpx-verify-optw-XXXXXX.jsonl)"
optw_clean="$(mktemp -t llbpx-verify-optw-XXXXXX.jsonl)"
clean_out="$(mktemp -t llbpx-verify-optw-XXXXXX.out)"
resume_out="$(mktemp -t llbpx-verify-optw-XXXXXX.out)"
rm -f "$ckpt"
fig12_small=(env LLBPX_THREADS=2 REPRO_WORKLOADS=NodeApp,Kafka
             REPRO_WARMUP=100000 REPRO_INSTRUCTIONS=400000 "LLBPX_CHECKPOINT=$ckpt")
"${fig12_small[@]}" ./target/release/fig12 >"$clean_out"
python3 - "$ckpt" "$optw_clean" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]).read().splitlines() if l.strip()]
runs = [json.loads(l) for l in lines]
assert len(runs) == 10, f"expected one line per fig12 cell, got {len(runs)}"
kafka = [r for r in runs if r["predictor"] == "LLBP-X" and r["workload"] == "Kafka"]
assert len(kafka) == 1 and kafka[0]["deep_contexts"], "Kafka's LLBP-X must record a deep context"
is_optw = [r["predictor"] == "LLBP-X Opt-W" for r in runs]
assert sum(is_optw) == 2, sum(is_optw)
open(sys.argv[1], "w").write("".join(l + "\n" for l, o in zip(lines, is_optw) if not o))
open(sys.argv[2], "w").write("".join(l + "\n" for l, o in zip(lines, is_optw) if o))
EOF
"${fig12_small[@]}" ./target/release/fig12 >"$resume_out" 2>/dev/null
if ! diff <(grep -v '^engine:' "$clean_out") <(grep -v '^engine:' "$resume_out"); then
    echo "error: fig12 with Opt-W rebuilt from restored LLBP-X records differs" >&2
    exit 1
fi
python3 - "$ckpt" "$optw_clean" <<'EOF'
import json, sys
TIMING = {"wall_seconds", "profile", "fingerprint"}
def optw_counters(path):
    runs = [json.loads(l) for l in open(path).read().splitlines() if l.strip()]
    optw = [r for r in runs if r["predictor"] == "LLBP-X Opt-W"]
    return sorted(({k: v for k, v in r.items() if k not in TIMING} for r in optw),
                  key=lambda r: r["workload"])
rerun, clean = optw_counters(sys.argv[1]), optw_counters(sys.argv[2])
assert len(rerun) == 2, f"the re-run must journal both Opt-W cells anew, got {len(rerun)}"
assert rerun == clean, "an Opt-W cell built from a restored LLBP-X record drifted"
print("ok: 2 Opt-W cells rebuilt from restored LLBP-X records, counter-identical")
EOF
rm -f "$ckpt" "$optw_clean" "$clean_out" "$resume_out"

echo "== smoke: fig13p restores every cell from fig13's journal =="
# fig13 and fig13p run one grid (bench::fig13_designs) behind the frontend
# observer, so a fig13 journal restores all 8 of fig13p's cells, and the
# restored fig13p prints what a fresh one does (the engine: line aside).
# Its record holds one ok run per cell, each with its frontend counters.
ckpt="$(mktemp -t llbpx-verify-fig13-XXXXXX.jsonl)"
fresh_out="$(mktemp -t llbpx-verify-fig13p-XXXXXX.out)"
shared_out="$(mktemp -t llbpx-verify-fig13p-XXXXXX.out)"
shared_err="$(mktemp -t llbpx-verify-fig13p-XXXXXX.err)"
shared_sink="$(mktemp -t llbpx-verify-fig13p-XXXXXX.json)"
rm -f "$ckpt" "$shared_sink"
fig13_small=(env LLBPX_THREADS=2 REPRO_WORKLOADS=NodeApp,TPCC
             REPRO_WARMUP=100000 REPRO_INSTRUCTIONS=400000)
"${fig13_small[@]}" "LLBPX_CHECKPOINT=$ckpt" ./target/release/fig13 >/dev/null
"${fig13_small[@]}" ./target/release/fig13p >"$fresh_out"
"${fig13_small[@]}" "LLBPX_CHECKPOINT=$ckpt" ./target/release/fig13p --json "$shared_sink" \
    >"$shared_out" 2>"$shared_err"
grep -q '^checkpoint: 8 cell(s) restored' "$shared_err" || {
    echo "error: fig13p did not restore its 8 cells from fig13's journal:" >&2
    cat "$shared_err" >&2
    exit 1
}
if ! diff <(grep -v '^engine:' "$fresh_out") <(grep -v '^engine:' "$shared_out"); then
    echo "error: fig13p restored from fig13's journal differs from a fresh run" >&2
    exit 1
fi
python3 - "$ckpt" "$shared_sink" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]).read().splitlines() if l.strip()]
assert len(lines) == 8 and all(l["v"] == 5 for l in lines), [l["v"] for l in lines]
assert not any("intervals" in l for l in lines), "schema v8 dropped the interval series"
rec = json.loads(open(sys.argv[2]).read().splitlines()[0])
assert rec["schema"] == "llbpx-telemetry/8" and rec["bench"] == "fig13p"
assert rec["resumed_cells"] == 8, rec.get("resumed_cells")
assert len(rec["runs"]) == 8, len(rec["runs"])
for run in rec["runs"]:
    assert run["status"] == "ok", run
    assert run["frontend"]["fetch_cycles"] > 0, run["frontend"]
    assert "intervals" not in run, "schema v8 dropped the interval series"
print("ok: 8 fig13p cells restored from fig13's v5 journal, each with frontend counters")
EOF
echo "ok: fig13p on fig13's journal prints what a fresh fig13p does"
rm -f "$ckpt" "$fresh_out" "$shared_out" "$shared_err" "$shared_sink"

echo "== verify: all green =="
