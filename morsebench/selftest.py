"""Fast self-test of the benchmark harness on tiny inputs.

    python3 morsebench/selftest.py

Runs in seconds and exits nonzero on the first broken check:

* the circle complex ``torus_cosine(1, [1.0])`` and the figure-8 count
  (x11, x11) -> x11 pass their oracles, untraced and traced;
* two traced runs give identical counters and the untraced outputs;
* the tracer's import-site check passes, and catches a binding left
  unpatched on purpose;
* every oracle rejects a deliberately wrong output.
"""

from __future__ import annotations

import sys

import oracles
import workloads as W
from tracer import Tracer


def circle_complex(mf):
    system = mf.geometry.torus_cosine(1, [1.0])
    return W._homology_summary(mf, mf.counting.boundary_operator(system))


def fig8_unit_count(mf):
    problem = W._fig8_draw(mf, W.FIG8_PHASES).problem
    return int(mf.operations.graph_flow_count(problem, ("x11", "x11"), "x11"))


def outputs(mf):
    return {"circle": circle_complex(mf), "fig8": fig8_unit_count(mf)}


def traced(mf, sabotage=False):
    tracer = Tracer().install()
    try:
        if sabotage:
            # undo one import-site patch, as a forgotten binding would
            mf.counting.flow = mf.counting.flow.__wrapped__
        out = outputs(mf)
    finally:
        tracer.uninstall()
    return out, tracer


def main():
    mf = W.load_morseflow()
    failures = []

    def expect(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    plain = outputs(mf)
    expect(not oracles.check_torus_homology(1, plain["circle"]),
           "circle complex matches the Kuenneth oracle")
    want = oracles.torus_intersection_table()[("x11", "x11")]
    expect(want == {"x11": plain["fig8"]},
           "figure-8 count (x11, x11) -> x11 is the unit, +1")

    out1, t1 = traced(mf)
    out2, t2 = traced(mf)
    expect(out1 == plain and out2 == plain, "traced outputs equal untraced")
    expect(t1.counters() == t2.counters(), "traced counters repeat exactly")
    expect(t1.calls["flow.integrate"] > 0
           and t1.kernel_calls["geometry.field"] > 0
           and t1.calls["counting.find_connections"] > 0
           and t1.calls["operations.graph_flow_count"] > 0,
           "every layer was seen by the tracer")
    expect(not t1.reconcile(), "import-site reconciliation passes")
    _, broken = traced(mf, sabotage=True)
    expect(bool(broken.reconcile()),
           "reconciliation catches an unpatched import site")
    expect(mf.counting.flow is mf.geometry.flow,
           "uninstall restores every binding")

    wrong_circle = dict(plain["circle"], differentials={"1": [[2]]})
    expect(bool(oracles.check_torus_homology(1, wrong_circle)),
           "Kuenneth oracle rejects a nonzero differential")
    expect(bool(oracles.check_band_cli({})), "band oracle rejects a change")
    expect(bool(oracles.check_pushforward({"0": [[1]], "1": [[1], [1]]})),
           "pushforward oracle rejects |push[1]| = [1, 1]")
    expect(bool(oracles.check_umkehr({"1": [[0, 1]], "2": [[1]]},
                                     {"0": [[1]], "1": [[0], [1]]})),
           "umkehr oracle rejects umkehr[1] . push[1] != 0")
    expect(bool(oracles.check_continuation({"0": [[1]], "1": [[1, 1],
                                                               [1, 1]],
                                            "2": [[1]]})),
           "continuation oracle rejects a singular block")
    table = {"%s,%s" % k: v
             for k, v in oracles.torus_intersection_table().items()}
    table["x10,x01"] = {"x00": 1}
    expect(bool(oracles.check_operation_table(table)),
           "table oracle rejects c1 . c2 = +pt")
    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
