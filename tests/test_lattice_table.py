"""The lattice shots and verified flows kept in a call's store: exact and
shared.

Each source's lattice is shot once per outermost public call and reused
by every target and by the gate's doubled resolution, so a filled store
must give the same directions, bit for bit, as a fresh one, and must save
exactly the shots it holds; the store is dropped with its call.  The
strict flow that verifies a line is kept too, and signs it.
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
    with counting.keeping():
        counting.boundary_operator(filled)
        # only lattice shots are kept: the 2k = 96 circle directions per
        # index-2 source, whatever the number of targets and refinements
        shots = [key for key in counting._kept() if key[1] == "shot"]
        assert len(shots) == 96 * len(filled.by_index(2))
        for k in (48, 96):
            fresh = make()
            a = counting.find_connections(fresh, fresh.point(x),
                                          fresh.point(y), k=k)
            b = counting.find_connections(filled, filled.point(x),
                                          filled.point(y), k=k)
            assert len(a) == len(b) > 0
            assert all(np.array_equal(u, v) for u, v in zip(a, b))


def spy_flows(monkeypatch):
    """(loose, record, start bytes) of every flow counting launches."""
    flows = []
    real = counting.flow

    def counted(system, x0, *args, **kwargs):
        flows.append((bool(kwargs.get("loose")), kwargs.get("record"),
                      x0.tobytes()))
        return real(system, x0, *args, **kwargs)

    monkeypatch.setattr(counting, "flow", counted)
    return flows


def test_second_target_reuses_every_lattice_shot(monkeypatch):
    flows = spy_flows(monkeypatch)

    def count_x010(system):
        before = len(flows)
        n = counting.count_flow_lines(system, "x110", "x010")
        return n, sum(loose for loose, _r, _x in flows[before:])

    shared = t3()
    n_fresh, flows_fresh = count_x010(t3())
    with counting.keeping():
        counting.count_flow_lines(shared, "x110", "x100")
        n_shared, flows_shared = count_x010(shared)
    assert n_shared == n_fresh
    # the 48 + 48 new lattice shots of the gated search are all reused
    assert flows_fresh - flows_shared == 96
    # and dropped with the block: the next call shoots them again
    assert count_x010(shared) == (n_fresh, flows_fresh)


def test_each_verified_flow_flies_once(monkeypatch):
    # the signs read the verifying flows, and the gate's two runs refine
    # directions that start at the same points: 18 strict recorded flows,
    # each from its own start
    flows = spy_flows(monkeypatch)
    cx = counting.boundary_operator(t3())
    starts = [x0 for loose, record, x0 in flows if record and not loose]
    assert len(starts) == len(set(starts)) == 18
    assert [cx.map_from(p).tolist() for p in (1, 2, 3)] == [
        [[0, 0, 0]], [[0] * 3] * 3, [[0], [0], [0]]]
