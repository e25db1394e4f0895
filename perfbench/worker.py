"""One benchmark process: set up a workload, then (unless --setup-only) run it.

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1.  It prints
``READY`` once set up (imports, first-round inputs and the workload's
warm-up) and, after the timed loop and the known-verdict checks, one
``RESULT <json>`` line.
Items run in rounds (one item of every kind the workload has); the loop
stops at the first round boundary after ``--seconds`` of timed item time.
Latency metrics cover the items that succeeded; a failed item is counted,
listed and makes the run incorrect.  Peak RSS is read at the end of the
second round, so it covers set-up and one item of every kind (library_large
needs two rounds to pair each shape with each memory dim) however many rounds
fit.  On library_small the near-cutoff family then runs untimed: failures
listed in ``workloads.KNOWN_FAILURES`` are reported as the known defect, any
other makes the run incorrect.  With ``--trace 1`` rounds alternate untraced /
traced, and the wrappers are installed only for the traced rounds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import layers
import workloads
from tracing import Tracer
from workloads import attempt, guarded

# stop after the current round once this much time has passed since start,
# whatever --seconds says, so a run always ends within its time limit
HARD_STOP_S = 140.0


def _thread_env(env):
    return {k: v for k, v in sorted(env.items()) if k.endswith("_THREADS")}


def environment(seed, wl):
    config = np.show_config(mode="dicts")
    started = {"worker": _thread_env(os.environ)}
    if hasattr(wl, "env"):
        started["cli children"] = _thread_env(wl.env)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": started,
        "seed": seed,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    started = time.perf_counter()

    with open(os.path.join(workloads.HERE, "workloads.json")) as fh:
        config = json.load(fh)["workloads"][args.workload]
    work_dir = os.path.join(args.out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    wl = workloads.build(args.workload, config, work_dir, dict(os.environ))
    rounds = wl.rounds(args.seed)
    pending = [wl.make(spec) for spec in next(rounds)]
    problems = guarded(wl.warm_up, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return

    tracer = Tracer() if args.trace else None
    # latencies of the items that succeeded; failed items are left out
    latencies = {False: [], True: []}
    timed = 0.0  # every item, failed or not
    traced_wall = 0.0  # every traced item: the wall time of the spans
    failures = []
    attempted = 0
    round_log = []
    for round_no in itertools.count():
        traced = bool(args.trace) and round_no % 2 == 1
        first = len(latencies[traced])
        if traced:
            tracer.install()
        try:
            for inputs in pending:
                latency, failure, _ = attempt(
                    wl, inputs, tracer if traced else None)
                attempted += 1
                timed += latency
                if traced:
                    traced_wall += latency
                if failure:
                    failures.append(failure)
                    problems.append(f"failed: {failure}")
                else:
                    latencies[traced].append(latency)
        finally:
            if traced:
                tracer.uninstall()
        round_log.append((traced, latencies[traced][first:]))
        # the peak over a whole run hung on how many rounds fit (a third
        # six-item library_large round added 6 MiB); two rounds hold one item
        # of every kind on every workload
        if round_no < 2:
            peak_rss_mib = resource.getrusage(
                resource.RUSAGE_CHILDREN if args.workload == "cli_pipeline"
                else resource.RUSAGE_SELF).ru_maxrss / 1024.0
        both = not args.trace or latencies[True]
        if (timed >= args.seconds and both) or \
                time.perf_counter() - started > HARD_STOP_S:
            break
        pending = [wl.make(spec) for spec in next(rounds)]

    problems += guarded(wl.known_verdicts)
    known_defect = None
    if hasattr(wl, "near_cutoff"):
        known, found = wl.near_cutoff()
        known_defect = {"items": len(workloads.NEAR_CUTOFF_EPS),
                        "failed": known}
        problems += found
    untraced = latencies[False]
    if not untraced or (args.trace and not latencies[True]):
        raise RuntimeError("no item succeeded: " + "; ".join(failures[:3]))
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "known_defect": known_defect,
        "environment": environment(args.seed, wl),
        "rounds": round_no + 1,
        "round_latencies": round_log,
    }
    if args.trace:
        metrics, info = layers.analyse(tracer.spans, traced_wall)
        metrics["trace.items_per_s.traced"] = (
            len(latencies[True]) / sum(latencies[True]))
        metrics["trace.items_per_s.untraced"] = len(untraced) / sum(untraced)
        metrics["trace.overhead_ratio"] = (
            metrics["trace.items_per_s.traced"]
            / metrics["trace.items_per_s.untraced"])
        spans_path = os.path.join(args.out_dir, "spans.jsonl")
        tracer.dump(spans_path)
        result.update(metrics=metrics, trace_info=info, spans_file=spans_path)
    else:
        tail_s, pct, beyond = layers.tail(untraced)
        result["metrics"] = {
            "items_per_s": len(untraced) / sum(untraced),
            "item_p50_s": statistics.median(untraced),
            "item_tail_s": tail_s,
            "peak_rss_mib": peak_rss_mib,
        }
        result["tail"] = {"percentile": pct, "samples": len(untraced),
                          "beyond": beyond}
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    except Exception:
        traceback.print_exc()
        sys.exit(3)
