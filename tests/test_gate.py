"""The doubling gate at every site that uses it.

Each case injects a 2k run that finds one extra +1/-1 pair of lines, so
the signed total is unchanged, and the gate must still raise: it compares
the number of lines as well as the signed count.  The top umkehr entry
is one backward shot, with no resolution to double, so it has no gate.
"""

import pytest

import morseflow.counting as counting
import morseflow.operations as operations
from morseflow.errors import CountInstabilityError
from morseflow.fatgraph import ChordDiagram, FatGraph
from morseflow.geometry import torus_cosine


def t2():
    return torus_cosine(2, [1.0, 0.7])


def t3():
    # the circle lattice, and so its gate, counts index-2 -> index-1
    # pairs only in dimension three and up
    return torus_cosine(3, [1.0, 0.7, 0.55])


def t2_shifted():
    return torus_cosine(2, [1.0, 0.7], phases=[0.9, 1.3])


def factor_circle():
    return operations.torus_factor_circle(t2_shifted(), fixed_axis=1,
                                          level=2.0, phase=0.3)


def figure8_problem():
    g = FatGraph.from_vertex_cycles(pairs=[(0, 1), (2, 3)],
                                    vertex_cycles=[(0, 3, 2, 1)])
    labels = [torus_cosine(2, [1.0, 0.7], phases=ph, name=name)
              for ph, name in (([0.0, 0.0], "in1"), ([0.9, 1.3], "in2"),
                               ([-0.7, 0.55], "out"))]
    return operations.FlowGraphProblem(ChordDiagram(g), labels[:2],
                                       labels[2:])


def every_second_call(real, change):
    """Wrap ``real`` so that its 2nd, 4th, ... results pass through
    ``change``: the gate's 2k run is the second of each pair of calls."""
    calls = {"n": 0}

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        calls["n"] += 1
        return change(out) if calls["n"] % 2 == 0 else out

    return wrapped


def repeat_lines(dirs):
    # x110 -> x100 on T3 has two lines, signed +1 and -1: finding both
    # twice adds a cancelling pair
    assert len(dirs) == 2
    return dirs + dirs


def add_pair(result):
    count, lines = result
    return count, lines + 2


SITES = {
    "count_flow_lines": (
        counting, "find_connections", repeat_lines,
        lambda: counting.count_flow_lines(t3(), "x110", "x100")),
    # continuation and pushforward share one curve-crossing count; each
    # site is reached through its own public call
    "continuation": (
        counting, "_hybrid_crossings", add_pair,
        lambda: counting.continuation(t2(), t2_shifted())),
    "pushforward": (
        counting, "_hybrid_crossings", add_pair,
        lambda: operations.pushforward(factor_circle(), verify=False)),
    "graph_flow_count": (
        operations, "_configuration_count", add_pair,
        lambda: operations.graph_flow_count(figure8_problem(),
                                            ("x11", "x11"), "x11")),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_gate_catches_cancelling_pair(site, monkeypatch):
    module, attr, change, call = SITES[site]
    monkeypatch.setattr(module, attr,
                        every_second_call(getattr(module, attr), change))
    with pytest.raises(CountInstabilityError):
        call()
