"""Benchmark of the facebalance CLI on four seeded workloads.

    python3 bench/run.py --workload cm_ladder --seed 1 --seconds 20 --trace 0

Run from a checkout; the program is imported from its ``src/``.  The run
builds the workload's inputs from the seed (set-up, repeated and timed),
then runs passes for ``--seconds``, starting none that would end past it.
A pass is every command of the workload in one fresh worker process; passes
run one at a time, each under another PYTHONHASHSEED, so a cache kept
across passes cannot help and output that depends on the hash seed shows up
as a failure.  Pass and command times are normalised to the host's speed
(speed.py): the shared host's own drift would otherwise swamp them.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (commands run over all passes, and those the checker or the
cross-pass byte comparison rejected) and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run alternates
untraced and traced passes and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# least number of set-ups per run; one runs before the passes and one after
# each pass, so that their median sees the same machine as the passes do
SETUP_REPEATS = 9
# a run must end within 180 s: every child is killed at this deadline, and
# no new pass starts once the passes have used LAST_START_S
RUN_LIMIT_S = 170
LAST_START_S = 120


def setup(workload: str, seed: int, work: Path, deadline: float
          ) -> tuple[workloads.Plan, float]:
    """Time one set-up, normalised to the host's speed: build and write the
    inputs, then import the program in a fresh interpreter."""
    def build():
        plan = workloads.make_plan(workload, seed)
        plan.write(work)
        return plan

    plan, build_s = speed.measure(build)
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(SRC), "--import"],
                          capture_output=True, text=True, check=True,
                          timeout=deadline - perf_counter())
    return plan, build_s + json.loads(proc.stdout.splitlines()[-1])["import_s"]


def run_pass(work: Path, hash_seed: int, trace_out: Path | None,
             deadline: float) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), str(SRC), "plan.json"]
    if trace_out is not None:
        argv.append(str(trace_out))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(argv, cwd=work, env=env, capture_output=True,
                          text=True, timeout=deadline - perf_counter())
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(passes: list[dict]) -> tuple[int, list[str]]:
    """Commands attempted over all passes, and one line per failed one.

    A command also fails in every pass whose stdout differs from the first
    pass's, since passes differ only in their PYTHONHASHSEED.
    """
    first = {c["id"]: c["stdout_sha256"] for c in passes[0]["commands"]}
    attempted = 0
    reasons = []
    for k, p in enumerate(passes):
        for c in p["commands"]:
            attempted += 1
            why = list(c["problems"])
            if c["stdout_sha256"] != first[c["id"]]:
                why.append("stdout differs from pass 0 under another hash seed")
            if why:
                reasons.append(f"pass {k} {c['id']}: {'; '.join(why)}")
    return attempted, reasons


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Set-up time, memory, and the speed-normalised times of speed.py."""
    latencies = {}
    for p in passes:
        for c in p["commands"]:
            latencies.setdefault(c["id"], []).append(c["norm_s"])
    per_command = [statistics.median(xs) for xs in latencies.values()]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(p["pass_norm_s"] for p in passes), "s"),
        "cmd_p50_s": (statistics.median(per_command), "s"),
        "slowest_cmd_s": (max(per_command), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def basis_size_problems(plan: workloads.Plan, runs: list[dict]) -> list[str]:
    """The Macaulay sweep's standard monomials number sum(h) per witness,
    which the trace can confirm when every witness took one attempt."""
    balance = [c for c in plan.commands if c["expect"]["kind"] == "balance"]
    want = sum(sum(c["expect"]["h"]) for c in balance)
    return [f"traced pass {k}: {m['polynomials.standard_monomials']} standard "
            f"monomials, expected sum(h) = {want}"
            for k, m in enumerate(runs)
            if m["balancing.attempts"] == len(balance)
            and m["polynomials.standard_monomials"] != want]


def per_layer(untraced: list[dict], traced: list[tuple], runs: list[dict]) -> dict:
    m = tracer.median_metrics(runs)
    m["trace.raw_pass_s"] = statistics.median(
        (p["pass_ns"] - p["samples_ns"]) / 1e9 for p in untraced)
    m["trace.slowdown"] = statistics.median(p["slowdown"] for p in untraced)
    m["trace.overhead_ratio"] = (statistics.median(p["pass_norm_s"] for p, _ in traced)
                                 / statistics.median(p["pass_norm_s"] for p in untraced) - 1)
    return {k: (v, unit_of(k)) for k, v in m.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith(("ratio", "slowdown")) else "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "facebalance" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'facebalance'} is missing",
              file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_LIMIT_S
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan, first = setup(args.workload, args.seed, work, deadline)
        setups = [first]
        started = perf_counter()
        untraced, traced = [], []
        k = 0
        while True:
            hash_seed = (args.seed * 1000003 + k) % 4294967296
            if args.trace and k % 2 == 1:
                trace_file = WORK / f"trace-{args.workload}.json"
                p = run_pass(work, hash_seed, trace_file, deadline)
                traced.append((p, json.loads(trace_file.read_text(encoding="utf-8"))))
            else:
                untraced.append(run_pass(work, hash_seed, None, deadline))
            k += 1
            setups.append(setup(args.workload, args.seed, work, deadline)[1])
            elapsed = perf_counter() - started
            # stop before a pass that would end past --seconds
            projected = elapsed * (k + 1) / k
            enough = untraced and (traced or not args.trace) and k >= 2
            if enough and (projected > args.seconds or elapsed >= LAST_START_S):
                break
        while len(setups) < SETUP_REPEATS:
            setups.append(setup(args.workload, args.seed, work, deadline)[1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + [p for p, _ in traced]
    attempted, reasons = tally(passes)
    runs = [tracer.layer_metrics(trace, p["pass_ns"]) for p, trace in traced]
    reasons += basis_size_problems(plan, runs)
    for line in reasons:
        print(f"FAILED {line}")
    metrics = (per_layer(untraced, traced, runs) if args.trace
               else end_to_end(untraced, setups))
    failed = len(reasons)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
