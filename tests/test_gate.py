"""The doubling gate at the one site that still uses it.

The level search of ``count_flow_lines`` (index 2 -> index 1 on a
3-manifold) is the only search left with a resolution.  The case injects a 2k run that finds one extra +1/-1 pair of
lines, so the signed total is unchanged, and the gate must still raise: it
compares the number of lines as well as the signed count.  Continuation,
pushforward and figure-8 counts intersect curves of branch flows, and the
top umkehr entry is one backward shot; none has a resolution to double, so
their former gate cases are oracle tests at near-alignment inputs
(``test_counting.TestContinuation`` and ``test_operations``).
"""

import pytest

import morseflow.counting as counting
from morseflow.errors import CountInstabilityError
from morseflow.geometry import torus_cosine


def t3():
    # the level search, and so its gate, counts index-2 -> index-1 pairs
    # only on 3-manifolds
    return torus_cosine(3, [1.0, 0.7, 0.55])


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


SITES = {
    "count_flow_lines": (
        counting, "find_connections", repeat_lines,
        lambda: counting.count_flow_lines(t3(), "x110", "x100")),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_gate_catches_cancelling_pair(site, monkeypatch):
    module, attr, change, call = SITES[site]
    monkeypatch.setattr(module, attr,
                        every_second_call(getattr(module, attr), change))
    with pytest.raises(CountInstabilityError):
        call()


def test_instability_carries_both_runs(monkeypatch):
    module, attr, change, call = SITES["count_flow_lines"]
    monkeypatch.setattr(module, attr,
                        every_second_call(getattr(module, attr), change))
    with pytest.raises(CountInstabilityError) as info:
        call()
    err = info.value
    # (signed count, number of lines) at k and at 2k
    assert (err.first, err.second) == ((0, 2), (0, 4))
    assert str(err) == ("count x110->x100 changed under resolution "
                        "doubling (0/2 lines -> 0/4)")
