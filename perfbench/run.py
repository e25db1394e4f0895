"""superchan benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload {cli_pipeline,library_large,library_small,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout holding ``src/superchan`` and
``BENCHMARK.json``; the package is used from ``src`` as it is, nothing is
installed.  This launcher imports no numpy: it starts the worker processes
with BLAS/OpenMP threads pinned to 1 and measures set-up time as the median,
over five fresh workers, of spawn -> first timed item.  The last one then
runs the timed loop.  With ``--trace 0`` the result holds the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The last
line of standard output is one JSON object; the lines before it are the same
figures for people, with units, failure list and environment.  Detail files
go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli_pipeline", "library_large", "library_small")
SETUPS = 5
RUN_LIMIT_S = 170.0
PINNED = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def _spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "superchan", "__init__.py")):
        raise BenchError(f"no src/superchan package under {ROOT}")
    if not os.path.isfile(path):
        raise BenchError(f"missing {path}")
    with open(path) as fh:
        return json.load(fh)


def _worker_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _start_worker(args, out_dir, setup_only, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        ready = None
        result = None
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None or (not setup_only and result is None):
        raise BenchError(f"worker for {args.workload} exited with {code}")
    return ready, result


def measure(args):
    """Set up SETUPS times, measure once; returns (result, median setup s)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = os.path.join(ROOT, ".perfbench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = _worker_env()
    setups = []
    try:
        for k in range(SETUPS):
            ready, result = _start_worker(args, out_dir, k < SETUPS - 1, env,
                                          deadline)
            setups.append(ready)
    finally:
        shutil.rmtree(os.path.join(out_dir, "work"), ignore_errors=True)
    result["setups_s"] = setups
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result, statistics.median(setups)


def _report(args, result, setup_s, declared):
    """Print the figures for people; return the contract's metrics."""
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = setup_s
    missing = set(declared) - set(values)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items()}
    w = args.workload
    print(f"== {w}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}  rounds={result['rounds']}")
    for name, m in metrics.items():
        print(f"{w} {name} = {m['value']:.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{w} failed_ratio = {failed}/{attempted} = "
          f"{failed / attempted:.6g} (failed items / attempted items)")
    if args.trace:
        info = result["trace_info"]
        traced, untraced = (values["trace.items_per_s.traced"],
                            values["trace.items_per_s.untraced"])
        print(f"{w} tracing overhead: traced {traced:.6g} items/s vs untraced "
              f"{untraced:.6g} items/s, ratio {traced / untraced:.4f}; "
              f"{info['n_items']} traced items, {info['spans']} spans in "
              f"{os.path.relpath(result['spans_file'], ROOT)}")
        if info["cli_process_tail"]:
            pct, beyond = info["cli_process_tail"]
            print(f"{w} cli.process_s.tail is p{pct:g} with {beyond} samples "
                  "beyond it")
    else:
        tail = result["tail"]
        print(f"{w} item_tail_s is p{tail['percentile']:g} of "
              f"{tail['samples']} items ({tail['beyond']} beyond it"
              + ("; fewer than ten, no percentile has ten samples beyond"
                 if tail["beyond"] < 10 else "") + ")")
        print(f"{w} setup_s is the median of {len(result['setups_s'])} "
              f"setups: {', '.join(f'{s:.4f}' for s in result['setups_s'])} s")
    print(f"{w} wait time: none measured; nothing in superchan waits on a "
          "queue, lock or other thread")
    # failed items, failed warm-up or known-verdict checks and near-cutoff
    # failures outside workloads.KNOWN_FAILURES: each makes the result incorrect
    for problem in result["problems"]:
        print(f"{w} INCORRECT {problem}")
    defect = result["known_defect"]
    if defect is not None:
        print(f"{w} known defect (ROADMAP item 3): {len(defect['failed'])} of "
              f"{defect['items']} near-cutoff items fail, run untimed after "
              "the timed loop and not counted in failed_ratio")
        for failure in defect["failed"]:
            print(f"{w} KNOWN DEFECT {failure}")
    print(f"{w} environment: {json.dumps(result['environment'])}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        spec = _spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        declared = {m["name"]: m["unit"] for m in
                    spec["per_layer" if args.trace else "end_to_end"]}
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        correct, attempted, failed, metrics = True, 0, 0, {}
        for name in names:
            args.workload = name
            result, setup_s = measure(args)
            found = _report(args, result, setup_s, declared)
            correct = correct and not result["problems"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update(found if len(names) == 1 else
                           {f"{name}/{k}": v for k, v in found.items()})
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
