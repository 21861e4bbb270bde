"""One benchmark pass: run every command of a plan through the real CLI.

Usage: ``python3 worker.py SRC_DIR PLAN_JSON [TRACE_OUT]`` from the plan's
directory, or ``python3 worker.py SRC_DIR --import`` to print only the
normalised time of ``import facebalance.cli`` (part of the set-up).  The
pass runs in this fresh process, one command after another, each as
``facebalance.cli.main([..., "--json"])`` with stdout captured.
speed.py's sampler runs alongside the commands so that their times can be
normalised to the host's speed.  With TRACE_OUT the functions named in
tracer.py are wrapped in spans first, and the spans and the samples'
intervals are written there when the pass ends.  Prints one JSON line: the pass
time (raw, and normalised), the samples' share of it, the host's median
slowdown, peak memory and, per command, its latency (raw and normalised),
the digest of its stdout and the checker's findings.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import check
import speed


def main(argv: list[str]) -> int:
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    cli, import_s = speed.measure(lambda: importlib.import_module("facebalance.cli"))
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"facebalance imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    if argv[1] == "--import":
        print(json.dumps({"import_s": import_s}))
        return 0
    plan = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    trace_out = argv[2] if len(argv) > 2 else None
    import facebalance
    tracer = None
    if trace_out:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, facebalance)

    sampler = speed.Sampler()
    sampler.start()
    runs = []
    started = perf_counter_ns()
    for i, command in enumerate(plan["commands"]):
        if tracer is not None:
            tracer.command = i
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(command["argv"]))
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a crash is a failed command, not a dead pass
            code = f"raised {type(e).__name__}: {e}"
        runs.append((t0, perf_counter(), code, out.getvalue()))
    pass_ns = perf_counter_ns() - started
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    sampler.stop()
    samples = sampler.samples()
    report = {
        "pass_ns": pass_ns,
        # the first and last samples ran before and after the pass
        "samples_ns": round(sum(sampler.durations[1:-1]) * 1e9),
        "slowdown": statistics.median(sampler.durations) / speed.NOMINAL_S,
        "peak_rss_mb": peak_kb / 1024, "commands": []}
    for command, (t0, t1, code, stdout) in zip(plan["commands"], runs):
        report["commands"].append({
            "id": command["id"], "latency_s": t1 - t0,
            "norm_s": speed.normalised(*samples, t0, t1),
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "problems": check.problems(command["expect"], code, stdout)})
    report["pass_norm_s"] = sum(c["norm_s"] for c in report["commands"])
    if tracer is not None:
        trace = tracer.dump()
        trace["samples"] = [[round(t * 1e9), round((t + d) * 1e9)]
                            for t, d in zip(sampler.starts, sampler.durations)]
        Path(trace_out).write_text(json.dumps(trace, separators=(",", ":")),
                                   encoding="utf-8")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
