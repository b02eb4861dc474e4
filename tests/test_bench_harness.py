"""The benchmark harness must keep working against the package.

``morsebench/tracer.py`` wraps ``integrate``, ``flow``, ``fixed_time_flow``,
``transport_frame``, ``find_connections``, ``count_flow_lines``,
``point_at_time`` and the operations entry points by name, counts a flow as
loose only when it is called with ``loose=``, which no flow takes, so every
``flow`` counts as strict, and fails when ``integrate`` is called from
anywhere but ``flow``/``fixed_time_flow``.  Its self-test exercises all of
that on tiny inputs in about a second.  A traced run of each listed
workload must reconcile and pass its oracles, so a change to the package
that breaks either fails here, not only in the benchmark.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "morsebench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["complexes", "fig8-table"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "morsebench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
