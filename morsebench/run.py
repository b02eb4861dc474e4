"""morseflow benchmark: oracle-checked operations on seeded workloads.

    python3 morsebench/run.py --workload complexes --seed 1 --seconds 30 \
        --trace 0

Each workload is a closed loop: one client, in one process and one thread,
starts an operation only after the previous one has finished.  Every output
is checked against an answer reached another way (``oracles.py``).

``--trace 0`` runs draws until ``--seconds`` have passed (the draw under way
is finished) and reports the end-to-end metrics.  ``--trace 1`` runs a
fixed number of draws three times, each in a fresh interpreter: once plain,
then twice with the layer tracer installed.  It reports the per-layer
metrics, and fails unless both traced runs give identical counters, their
outputs equal the plain run's, and the tracer's import-site check holds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when an operation returned an answer that its oracle rejects; an operation
that raises (or a CLI run that exits nonzero) counts as failed but not as
incorrect, since a count is allowed to refuse.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads as W
from speed import SpeedProbe

SETUP_PROBES = 11
# A fresh interpreter that imports numpy, timed beside each set-up
# interpreter: set-up is mostly the same kind of work, and its time tracks
# the machine's speed far better than the loop's probe does (README.md,
# "Speed normalisation").
REF_START = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
REF_START_S = 0.2          # scale of reference seconds for set-up
TRACE_BUDGET = 170.0        # seconds for the three passes of a traced run
HERE = os.path.abspath(__file__)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def summarize(records):
    attempted = sum(r.parts for r in records)
    failed = sum(r.bad for r in records)
    wrong = [r for r in records if r.status == "wrong"]
    return attempted, failed, wrong


def result_line(correct, attempted, failed, metrics):
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}), flush=True)


def declared_units():
    """Metric units, from the BENCHMARK.json next to this directory."""
    with open(os.path.join(W.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def with_units(values):
    units = declared_units()
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise RuntimeError("metrics missing from BENCHMARK.json: %s"
                           % undeclared)
    return {name: {"value": v, "unit": units[name]}
            for name, v in values.items()}


def spawn(args, timeout):
    """Run this script in a fresh interpreter; returns its stdout lines."""
    proc = subprocess.Popen([sys.executable, HERE] + args,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("child %s timed out" % args)
    if proc.returncode != 0:
        raise RuntimeError("child %s exited with %d" % (args, proc.returncode))
    return out.splitlines()


# -- set-up -------------------------------------------------------------------

def setup_probe(workload, seed):
    """Child: import the package and build the input pool, then report."""
    mf = W.load_morseflow()
    W.Inputs(mf, W.WORKLOADS[workload], seed)
    print("ready", flush=True)


def time_ready(args):
    """Seconds from spawning ``args`` to its first line, which must be
    ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        seconds = time.perf_counter() - t0
        proc.wait(timeout=60)
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError("%s failed (%r, exit %s)"
                           % (args, line, proc.returncode))
    return seconds


def measure_setup(workload, seed):
    """Median seconds from spawning a fresh interpreter to inputs ready,
    and median seconds of the reference start, timed in turn."""
    probe = [sys.executable, HERE, "--setup-probe", "--workload", workload,
             "--seed", str(seed)]
    setup, ref = [], []
    for _ in range(SETUP_PROBES):
        ref.append(time_ready(REF_START))
        setup.append(time_ready(probe))
    return statistics.median(setup), statistics.median(ref)


# -- untraced, time-bounded run -----------------------------------------------

def timed_run(workload, seed, seconds):
    mf = W.load_morseflow()
    wl = W.WORKLOADS[workload]
    records = []
    setup_s, ref_s = measure_setup(workload, seed)
    inputs = W.Inputs(mf, wl, seed)
    with SpeedProbe() as speed:
        t0 = time.perf_counter()
        deadline = t0 + seconds
        index = 0
        while True:
            records += W.run_unit(mf, wl, inputs, index, log=log)
            index += 1
            if time.perf_counter() >= deadline:
                break
        # operation time, without the probe samples taken during it
        op_s = time.perf_counter() - t0 - speed.seconds
    k = speed.factor()
    attempted, failed, wrong = summarize(records)
    ok = attempted - failed
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log("%s seed %d: %d draws, %d/%d ok in %.2f s of operations, %d "
        "re-draws, set-up %.3f s against a %.3f s reference start; speed "
        "factor %.3f (%d probe steps)"
        % (workload, seed, index, ok, attempted, op_s, inputs.redraws,
           setup_s, ref_s, k, speed.steps))
    result_line(not wrong, attempted, failed, with_units({
        "ok_per_min": ok / (op_s * k) * 60.0,
        "setup_s": setup_s * REF_START_S / ref_s,
        "peak_rss_mb": peak_mb,
    }))
    return 0


# -- fixed-work passes for the traced run -------------------------------------

def one_pass(workload, seed, traced, spans=None):
    """Child: run the fixed draws of a traced run, plain or traced; the
    spans of a traced run are written to ``spans`` when given."""
    t0 = time.perf_counter()
    mf = W.load_morseflow()
    import_s = time.perf_counter() - t0
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer().install()
    wl = W.WORKLOADS[workload]
    t1 = time.perf_counter()
    inputs = W.Inputs(mf, wl, seed, pool=wl.trace_units)
    inputs_s = time.perf_counter() - t1

    def on_op(index, op_no):
        if tracer is not None:
            tracer.op = "%d.%d" % (index, op_no)

    cpu0 = cpu_seconds()
    t2 = time.perf_counter()
    records = []
    for index in range(wl.trace_units):
        records += W.run_unit(mf, wl, inputs, index, on_op=on_op, log=log)
    wall = time.perf_counter() - t2
    cpu = cpu_seconds() - cpu0
    attempted, failed, wrong = summarize(records)
    out = {
        "outputs": [[r.op, r.status, r.output] for r in records],
        "wrong": [[r.op, r.problems] for r in wrong],
        "attempted": attempted, "failed": failed,
        "wall": wall, "cpu": cpu, "import_s": import_s,
        "inputs_s": inputs_s, "redraws": inputs.redraws,
    }
    if tracer is not None:
        tracer.uninstall()
        out["counters"] = tracer.counters()
        out["layers"] = tracer.layer_metrics()
        out["problems"] = tracer.reconcile()
        if spans:
            tracer.write_spans(spans)
    print(json.dumps(out), flush=True)


def traced_run(workload, seed):
    base = ["--workload", workload, "--seed", str(seed)]
    os.makedirs(W.OUT_DIR, exist_ok=True)
    spans = os.path.join(W.OUT_DIR, "spans-%s-%d.jsonl" % (workload, seed))
    deadline = time.perf_counter() + TRACE_BUDGET

    def run_pass(*extra):
        left = deadline - time.perf_counter()
        return json.loads(spawn(list(extra) + base, left)[-1])

    plain = run_pass("--pass", "plain")
    first = run_pass("--pass", "traced", "--spans", spans)
    second = run_pass("--pass", "traced")
    problems = list(first["problems"]) + list(second["problems"])
    if first["counters"] != second["counters"]:
        a, b = first["counters"], second["counters"]
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        problems.append("traced runs disagree on counters: %s" % diff)
    for run in (first, second):
        if run["outputs"] != plain["outputs"]:
            problems.append("traced outputs differ from the plain run")
    metrics = dict(first["layers"])
    attempted = plain["attempted"]
    metrics.update({
        "fail_ratio": plain["failed"] / attempted,
        "setup.import_s": plain["import_s"],
        "setup.inputs_s": plain["inputs_s"],
        "setup.redraws": plain["redraws"],
        "proc.cpu_s": plain["cpu"],
        "trace.overhead_s": first["wall"] - plain["wall"],
    })
    out = with_units(metrics)
    for p in problems:
        log("trace check failed: %s" % p)
    for op, why in plain["wrong"]:
        log("wrong answer from %s: %s" % (op, why))
    log("%s seed %d: spans in %s" % (workload, seed, spans))
    result_line(not problems and not plain["wrong"], attempted,
                plain["failed"], out)
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--pass", dest="pass_kind", choices=("plain", "traced"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--spans", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        W.require_sources()
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        if args.pass_kind:
            one_pass(args.workload, args.seed, args.pass_kind == "traced",
                     args.spans)
            return 0
        if args.trace:
            return traced_run(args.workload, args.seed)
        return timed_run(args.workload, args.seed, args.seconds)
    except W.SourceMissing as exc:
        log("morsebench: %s" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
