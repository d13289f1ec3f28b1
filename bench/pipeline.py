"""Pipeline process of the benchmark: runs the stages through ltakit.cli.run in a loop.

Usage: python3 bench/pipeline.py PLAN.json

The plan (written by run.py) lists the stages with their argv and output
files, an optional reference stage run once after the loop, and whether to
trace. Standard input drives the loop in chunks: each line
"run <until> <min iterations>" repeats whole iterations until the loop has
run for <until> seconds in all and this chunk has run <min iterations>,
then "done" is printed. Between chunks run.py repeats its set-up,
so set-up samples are spread over the same window as the pipeline's.
End of input ends the loop. The first iteration is a warm-up. With tracing
on, untraced and traced iterations alternate, so both see the same machine
state. Each iteration records per-stage wall time, exit code and the sha256
of every output; the result, with this process's peak RSS after the first
pass, is written to the plan's result path and the spans to its spans path.
A stage that fails ends the loop at once.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import time


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process image, in MB (10^6 bytes).

    This is VmHWM, not ru_maxrss: Linux carries ru_maxrss over an execve, so
    here it would report run.py's set-up footprint at the moment it started
    this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_stage(run, stage: dict, tracer, devnull) -> dict:
    start = time.perf_counter()
    with contextlib.redirect_stdout(devnull):
        if tracer is None:
            rc = run(stage["argv"])
        else:
            with tracer.span(f"cli.{stage['name']}", root=True):
                rc = run(stage["argv"])
    wall = time.perf_counter() - start
    record = {"wall": wall, "rc": rc}
    if rc == 0:
        record["digests"] = {os.path.basename(p): sha256_file(p) for p in stage["outputs"]}
    if tracer is not None and tracer.clients:
        record["llm_attempts"] = sum(len(c.requests) for c in tracer.clients)
        tracer.clients.clear()
    return record


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from ltakit.cli import run

    from spans import Tracer

    tracer = Tracer(plan["run_id"]) if plan["trace"] else None
    result: dict = {"iterations": []}
    failed, spent = False, 0.0  # spent: seconds of loop time over all chunks so far
    with open(os.devnull, "w") as devnull:
        for command in sys.stdin:
            _, until, min_iterations = command.split()
            origin, count = time.perf_counter() - spent, 0
            while not failed and (count < int(min_iterations)
                                  or time.perf_counter() - origin < float(until)):
                index = len(result["iterations"])
                # Iteration 0 is a warm-up (lazy imports, first-touch allocations);
                # after it, untraced and traced iterations alternate when tracing.
                traced = tracer is not None and index > 0 and index % 2 == 0
                record = {"warmup": index == 0, "traced": traced, "stages": {}}
                if traced:
                    tracer.run_id = f"{plan['run_id']}:{index}"
                with tracer.installed() if traced else contextlib.nullcontext():
                    for stage in plan["stages"]:
                        outcome = run_stage(run, stage, tracer if traced else None, devnull)
                        record["stages"][stage["name"]] = outcome
                        if outcome["rc"] != 0:
                            failed = True
                            break
                result["iterations"].append(record)
                count += 1
                if index == 0:  # later passes add allocator growth a single run never sees
                    result["peak_rss_mb"] = peak_rss_mb()
            spent = time.perf_counter() - origin
            if failed:
                break
            print("done", flush=True)
        if plan.get("reference") and not failed:
            result["reference"] = run_stage(run, plan["reference"], None, devnull)
    if tracer is not None:
        tracer.dump(plan["spans"])
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
