"""The per-system table of lattice shots: exact and shared.

Each source's lattice is shot once per system and reused by every target
and by the gate's doubled resolution, so a filled table must give the
same directions, bit for bit, as a fresh system, and must save exactly
the shots it holds.
"""

import numpy as np
import pytest

import morseflow.counting as counting
from morseflow.geometry import product_system, sphere_band, torus_cosine


def t3():
    return torus_cosine(3, [1.0, 0.7, 0.55])


# the lattice counts index-2 -> index-1 pairs only in dimension three and up
SEARCHES = {
    "torus": (t3, "x110", "x100"),
    "band": (lambda: product_system(torus_cosine(1, [1.0]), sphere_band(2)),
             "x0|pole+", "x0|rim_hi"),
}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_filled_table_gives_identical_directions(name):
    make, x, y = SEARCHES[name]
    filled = make()
    counting.boundary_operator(filled)
    # only lattice shots are kept: the 2k = 96 circle directions per
    # index-2 source, whatever the number of targets and refinements
    assert len(filled.lattice_shots) == 96 * len(filled.by_index(2))
    for k in (48, 96):
        fresh = make()
        a = counting.find_connections(fresh, fresh.point(x), fresh.point(y),
                                      k=k)
        b = counting.find_connections(filled, filled.point(x),
                                      filled.point(y), k=k)
        assert len(a) == len(b) > 0
        assert all(np.array_equal(u, v) for u, v in zip(a, b))


def test_second_target_reuses_every_lattice_shot(monkeypatch):
    loose = []
    real = counting.flow

    def counted(*args, **kwargs):
        loose.append(bool(kwargs.get("loose")))
        return real(*args, **kwargs)

    monkeypatch.setattr(counting, "flow", counted)

    def count_x010(system):
        before = sum(loose)
        n = counting.count_flow_lines(system, "x110", "x010")
        return n, sum(loose) - before

    shared = t3()
    counting.count_flow_lines(shared, "x110", "x100")
    n_fresh, flows_fresh = count_x010(t3())
    n_shared, flows_shared = count_x010(shared)
    assert n_shared == n_fresh
    # the 48 + 48 new lattice shots of the gated search are all reused
    assert flows_fresh - flows_shared == 96
