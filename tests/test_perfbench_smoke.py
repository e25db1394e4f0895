"""Smoke runs of the benchmark harness, so it cannot drift from the library."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_workload(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0


def test_library_small_runs_correct():
    run_workload("library_small")


def test_cli_pipeline_runs_correct():
    # its checks guard the document format end to end: `gour --inverse` must
    # write bytes identical to its source, and a saved superchannel must load
    # back to the same document
    run_workload("cli_pipeline")
