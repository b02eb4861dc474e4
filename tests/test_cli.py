import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morseflow.cli import main
import morseflow.counting as counting
from morseflow.errors import CountingIncompleteError
from morseflow.geometry import parse_system_config, systems

from test_counting import open_beside_a_crossing

DATA = os.path.join(os.path.dirname(__file__), "data")

FIG8 = """\
halfedges 4
pair 0 1
pair 2 3
vertex 0: 0 3 2 1
cycle-role 0 incoming
cycle-role 2 incoming
cycle-role 1 outgoing
"""

TORUS_CFG = "kind torus\ndim 2\namplitudes 1.0 0.7\n"
SPHERE_CFG = "kind sphere\ndim 2\n"
BAND_CFG = "kind sphere-band\ndim 2\neps 0.15\n"


@pytest.fixture
def fig8_file(tmp_path):
    p = tmp_path / "fig8.graph"
    p.write_text(FIG8)
    return str(p)


@pytest.fixture
def torus_cfg(tmp_path):
    p = tmp_path / "torus.cfg"
    p.write_text(TORUS_CFG)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGraphCommands:
    def test_cycles_text(self, capsys, fig8_file):
        code, out, _ = run(capsys, "graph", "cycles", fig8_file)
        assert code == 0
        assert "(0)" in out and "(1 3)" in out and "(2)" in out

    def test_cycles_json_matches_printed_partition(self, capsys, fig8_file):
        code, out, _ = run(capsys, "--json", "graph", "cycles", fig8_file)
        data = json.loads(out)
        assert data["cycles"] == [[0], [1, 3], [2]]
        assert data["euler_characteristic"] == -1

    def test_genus(self, capsys, fig8_file):
        code, out, _ = run(capsys, "--json", "graph", "genus", fig8_file)
        data = json.loads(out)
        assert (data["genus"], data["boundary_cycles"]) == (0, 3)

    def test_genus_components_text(self, capsys):
        code, out, _ = run(capsys, "graph", "genus", "--components",
                           os.path.join(DATA, "fig8.graph"))
        assert (code, out) == (0, "component 0: genus 0, 3 boundary cycles\n")

    def test_admissible(self, capsys, fig8_file):
        code, out, _ = run(capsys, "--json", "graph", "admissible", fig8_file)
        assert json.loads(out)["admissible"] is True

    def test_validate_ok(self, capsys, fig8_file):
        code, out, _ = run(capsys, "--json", "graph", "validate", fig8_file)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_validate_violation_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text(FIG8 + "ghost 0\n")
        code, out, _ = run(capsys, "--json", "graph", "validate", str(bad))
        assert code == 3
        assert json.loads(out)["ok"] is False

    def test_reduce_roundtrip(self, capsys, tmp_path):
        dumbbell = tmp_path / "dumbbell.graph"
        dumbbell.write_text(
            "halfedges 6\npair 0 1\npair 2 3\npair 4 5\n"
            "vertex 0: 0 1 4\nvertex 1: 2 3 5\nghost 2\n")
        code, out, _ = run(capsys, "--json", "graph", "reduce", str(dumbbell))
        data = json.loads(out)
        assert code == 0
        assert data["euler_characteristic"] == -1
        assert data["incoming"] == 2
        # the emitted file parses back to a one-vertex two-loop graph
        from morseflow.fatgraph import parse_graph_file
        again = parse_graph_file(data["graph_file"])
        assert again.graph.num_vertices == 1
        assert again.graph.num_edges == 2

    def test_parse_error_exit_code(self, capsys, tmp_path):
        p = tmp_path / "junk.graph"
        p.write_text("nonsense\n")
        code, _out, err = run(capsys, "graph", "cycles", str(p))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("line, code, key", [
        ("cycle-role 7 incoming", 2, "cycle-role for unknown cycle 7"),
        ("cycle-role -1 incoming", 2, "cycle-role for unknown cycle -1"),
        ("cycle-role 0 outgoing", 2, "cycle-role 0 conflicts"),
        ("length 0 nan", 3, "positive and finite"),
        ("length 1 inf", 3, "positive and finite"),
        ("halfedges 4", 2, "line 8: halfedges declared twice"),
        ("halfedges 4 9", 2, "line 8: extra fields on a halfedges line: 9"),
        ("pair 0 1 7", 2, "line 8: extra fields on a pair line: 7"),
        ("length 0 2 extra", 2,
         "line 8: extra fields on a length line: extra"),
        ("cycle-role 0 incoming extra", 2,
         "line 8: extra fields on a cycle-role line: extra")])
    def test_directives_it_would_drop_are_refused(self, capsys, tmp_path,
                                                   line, code, key):
        # each line was accepted: the role or the extra fields dropped, a
        # second halfedges line in place of the first, or the length
        # written back by graph reduce
        p = tmp_path / "bad.graph"
        p.write_text(FIG8 + line + "\n")
        for cmd in ("cycles", "reduce"):
            got, out, err = run(capsys, "--json", "graph", cmd, str(p))
            assert (got, out) == (code, "")
            assert key in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_a_graph_without_half_edges_is_refused(self, capsys, tmp_path,
                                                   count):
        # it read as genus 1 with no boundary cycles
        p = tmp_path / "empty.graph"
        p.write_text("halfedges %s\n" % count)
        for cmd in ("cycles", "reduce"):
            got, out, err = run(capsys, "--json", "graph", cmd, str(p))
            assert (got, out) == (2, "")
            assert json.loads(err)["error"]["message"] == (
                "line 1: halfedges must be at least 1, got %s" % count)

    def test_reduce_keeps_the_lengths_it_parsed(self, capsys, tmp_path):
        # a length that 12 significant digits would round is written in full
        length = 0.12345678901234567
        p = tmp_path / "dumbbell.graph"
        p.write_text("halfedges 6\npair 0 1\npair 2 3\npair 4 5\n"
                     "vertex 0: 0 1 4\nvertex 1: 2 3 5\nghost 2\n"
                     "length 0 %r\nlength 1 0.5\n" % length)
        code, out, _ = run(capsys, "--json", "graph", "reduce", str(p))
        assert code == 0
        from morseflow.fatgraph import parse_graph_file
        again = parse_graph_file(json.loads(out)["graph_file"])
        assert sorted(again.graph.edge_lengths) == [length, 0.5]
        assert "length 1 0.5\n" in json.loads(out)["graph_file"]

    def test_a_repeated_role_is_accepted(self, capsys, tmp_path):
        p = tmp_path / "again.graph"
        p.write_text(FIG8 + "cycle-role 0 incoming\n")
        code, out, _ = run(capsys, "--json", "graph", "cycles", str(p))
        assert code == 0
        assert json.loads(out)["roles"] == ["incoming", "outgoing",
                                            "incoming"]

    def test_deterministic_byte_identical(self, capsys, fig8_file):
        _, out1, _ = run(capsys, "--json", "--deterministic", "graph",
                         "cycles", fig8_file)
        _, out2, _ = run(capsys, "--json", "--deterministic", "graph",
                         "cycles", fig8_file)
        assert out1 == out2

    def test_deterministic_computation_byte_identical(self, capsys,
                                                      torus_cfg):
        _, out1, _ = run(capsys, "--json", "--deterministic", "homology",
                         torus_cfg)
        _, out2, _ = run(capsys, "--json", "--deterministic", "homology",
                         torus_cfg)
        assert out1 == out2

    def test_transversality_failure_exit_code(self, capsys, tmp_path,
                                              fig8_file):
        cfg = tmp_path / "same.cfg"
        cfg.write_text(TORUS_CFG)
        code, _out, err = run(capsys, "--json", "op", "nu", fig8_file,
                              "--label", str(cfg), "--label", str(cfg),
                              "--label", str(cfg), "--table")
        assert code == 5
        assert "error" in err


class TestConfigErrors:
    # keys a config would drop: (text, the key named, its line)
    UNREAD = {
        "misspelt-amplitudes": ("kind torus\ndim 2\namplitude 1.0 0.7\n",
                                "'amplitude'", 3),
        "amplitudes-on-a-sphere": ("kind sphere\ndim 2\n"
                                   "amplitudes 1.0 0.7 0.3\n",
                                   "'amplitudes'", 3),
        "factor-on-a-torus": ("kind torus\ndim 1\nfactor torus dim=1\n",
                              "factor lines", 3),
        "unread-factor-keys": ("kind product\n"
                               "factor sphere dim=1 eps=0.3 junk=1\n"
                               "factor sphere dim=1\n", "'eps'", 2),
        "dim-on-a-product": ("kind product\ndim 3\nfactor sphere dim=1\n"
                             "factor sphere dim=1\n", "'dim'", 2),
        "second-kind": ("kind torus\nkind sphere\ndim 2\n", "'kind'", 2),
        "second-dim": ("kind sphere\ndim 2\ndim 3\n", "'dim'", 3),
        "repeated-factor-key": ("kind product\nfactor sphere dim=1 dim=2\n"
                                "factor sphere dim=1\n", "'dim'", 2),
    }
    # each malformed system config must map to a documented exit status
    CASES = {
        "malformed-dim": ("kind torus\ndim x\n", 2),
        "factor-without-dim": ("kind product\nfactor torus amplitudes=1\n"
                               "factor torus dim=1\n", 2),
        "malformed-tol-conv": ("kind torus\ndim 2\ntol-conv abc\n", 2),
        "zero-dim-sphere": ("kind sphere\ndim 0\n", 3),
        **{case: (text, 2) for case, (text, _key, _line) in UNREAD.items()},
    }

    @pytest.mark.parametrize("case", sorted(UNREAD))
    def test_unread_keys_are_named(self, capsys, tmp_path, case):
        text, key, line = self.UNREAD[case]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "--json", "homology", str(cfg))
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["message"].startswith("line %d: " % line)
        assert key in error["message"]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_code_without_traceback(self, capsys, tmp_path, case):
        text, expected = self.CASES[case]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code, _out, err = run(capsys, "--json", "homology", str(cfg))
        assert code == expected
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "kind torus\ndim 20\n",
        "kind product\nfactor torus dim=11\nfactor sphere dim=1\n"])
    def test_torus_above_the_ceiling_builds_nothing(self, capsys, tmp_path,
                                                    monkeypatch, text):
        def no_catalog(*args, **kwargs):
            raise AssertionError("a torus catalog was built")

        monkeypatch.setattr(systems, "torus_cosine", no_catalog)
        cfg = tmp_path / "big.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "--json", "homology", str(cfg))
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert error["type"] == "StructuralValidationError"
        assert "ceiling %d" % systems.MAX_TORUS_DIM in error["message"]

    @pytest.mark.parametrize("text, key", [
        ("kind torus\ndim 2\namplitudes 1 nan\n", "amplitudes"),
        ("kind torus\ndim 2\namplitudes 1 inf\n", "amplitudes"),
        ("kind torus\ndim 2\nphases 0 nan\n", "phases"),
        ("kind torus\ndim 2\nphases -inf 0\n", "phases"),
        ("kind torus\ndim 2\nperturb nan\n", "perturb"),
        ("kind torus\ndim 2\nperturb inf\n", "perturb"),
        ("kind product\nfactor torus dim=1 amplitudes=nan\n"
         "factor sphere dim=1\n", "amplitudes"),
        ("kind torus\ndim 2\ntol-conv 0\n", "tol-conv"),
        ("kind torus\ndim 2\ntol-conv -1e-3\n", "tol-conv"),
        ("kind torus\ndim 2\ntol-conv nan\n", "tol-conv"),
        ("kind torus\ndim 2\ntol-conv inf\n", "tol-conv")])
    def test_values_outside_their_range_are_named(self, capsys, tmp_path,
                                                   text, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "--json", "homology", str(cfg))
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert error["type"] == "StructuralValidationError"
        assert error["message"].startswith(key + " must be")

    def test_torus_at_the_ceiling_is_built(self, monkeypatch):
        monkeypatch.setattr(systems, "torus_cosine",
                            lambda n, *args, **kwargs: n)
        n = systems.MAX_TORUS_DIM
        assert parse_system_config("kind torus\ndim %d\n" % n) == n

    def test_unsupported_pair_exit_code(self, capsys, tmp_path):
        # on T4 no search reaches index 2 -> index 1, the first pair of
        # its complex
        cfg = tmp_path / "torus4.cfg"
        cfg.write_text("kind torus\ndim 4\n")
        code, out, err = run(capsys, "--json", "homology", str(cfg))
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert error["type"] == "UnsupportedPairError"
        assert error["code"] == 3
        assert error["fields"] == {"names": ["x1100", "x1000"],
                                   "indices": [2, 1]}
        assert "x1100" in error["message"]

    def test_t3_answers_where_the_lattice_refused(self, capsys, tmp_path):
        cfg = tmp_path / "torus3.cfg"
        cfg.write_text("kind torus\ndim 3\namplitudes 1 0.7 0.5\n")
        code, out, _err = run(capsys, "--json", "homology", str(cfg))
        assert code == 0
        betti = json.loads(out)["blocks"]["total"]["betti"]
        assert [betti[p] for p in "0123"] == [1, 3, 3, 1]

    def test_crossing_beside_a_split_gives_its_fields(self, capsys,
                                                      tmp_path, monkeypatch):
        open_beside_a_crossing(monkeypatch)
        cfg = tmp_path / "torus3.cfg"
        cfg.write_text("kind torus\ndim 3\namplitudes 1 0.7 0.5\n")
        code, out, err = run(capsys, "--json", "homology", str(cfg))
        assert (code, out) == (4, "")
        error = json.loads(err)["error"]
        assert error["type"] == "CountingIncompleteError"
        assert "a crossing lies beside a split" in error["message"]
        fields = error["fields"]
        assert sorted(fields) == ["gap", "hit", "names", "status", "steps",
                                  "t_end"]
        assert len(fields["names"]) == 2 and len(fields["hit"]) == 3
        lo, hi = fields["gap"]
        assert lo < hi <= lo + 2.0 * np.pi


# numbers stop at 3: counting reaches dimension three, and a torus config
# of dimension n builds a catalog of 2^n critical points
FUZZ_TOKENS = ["0", "1", "2", "3", "-1", "0.5", "1e-9", "nan", "inf", "-inf",
               "x", "", "#", "=", "0:", "dim=1", "torus", "sphere",
               "sphere-band", "product", "factor", "dim", "eps", "amplitudes",
               "phases", "perturb", "tol-conv", "halfedges", "pair", "vertex",
               "ghost", "cycle-role", "incoming", "outgoing"]

# (checked-in input, arguments before its path, arguments after it)
FUZZ_RUNS = [
    ("fig8.graph", ("--json", "graph", "cycles"), ()),
    ("fig8.graph", ("--json", "graph", "genus"), ()),
    ("fig8.graph", ("--json", "graph", "validate"), ()),
    ("dumbbell.graph", ("--json", "graph", "reduce"), ()),
    ("torus.cfg", ("--json", "homology"), ()),
    ("sphere.cfg", ("--json", "homology"), ()),
    ("band.cfg", ("--json", "homology"), ("--relative", "band:0.25")),
]


def mutated(text, edits):
    """``text`` after each edit (op, a, b, token): op 0 deletes line a, 1
    copies line b to before line a, 2 replaces word b of line a by token,
    3 inserts token before word b of line a, 4 deletes character a, and 5
    swaps lines a and b (indices taken modulo the lengths)."""
    lines = text.split("\n")
    for op, a, b, token in edits:
        if op == 4:
            joined = "\n".join(lines)
            a %= max(len(joined), 1)
            lines = (joined[:a] + joined[a + 1:]).split("\n")
            continue
        if not lines:
            lines = [""]
        a %= len(lines)
        words = lines[a].split(" ")
        if op == 0:
            del lines[a]
        elif op == 1:
            lines.insert(a, lines[b % len(lines)])
        elif op == 2:
            words[b % len(words)] = token
            lines[a] = " ".join(words)
        elif op == 3:
            words.insert(b % (len(words) + 1), token)
            lines[a] = " ".join(words)
        else:
            b %= len(lines)
            lines[a], lines[b] = lines[b], lines[a]
    return "\n".join(lines)


class TestFuzzedInputs:
    @settings(max_examples=50, derandomize=True, deadline=None,
              database=None)
    @given(run_index=st.integers(0, len(FUZZ_RUNS) - 1),
           edits=st.lists(st.tuples(st.integers(0, 5),
                                    st.integers(0, 2**16),
                                    st.integers(0, 2**16),
                                    st.sampled_from(FUZZ_TOKENS)),
                          min_size=1, max_size=3))
    def test_mutated_inputs_exit_with_a_documented_status(self, run_index,
                                                          edits):
        # a mutated graph or config either runs or fails with a parse (2),
        # structural (3), counting (4) or transversality (5) status; it
        # never raises out of main and never exits 1
        name, before, after = FUZZ_RUNS[run_index]
        with open(os.path.join(DATA, name)) as fh:
            text = mutated(fh.read(), edits)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                fh.write(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main([*before, path, *after])
        assert code in (0, 2, 3, 4, 5), (text, err.getvalue())


class TestGeomCommands:
    def test_probe(self, capsys, torus_cfg):
        code, out, _ = run(capsys, "--json", "geom", "probe", torus_cfg,
                           "--seeds", "6")
        data = json.loads(out)
        assert code == 0
        assert data["unresolved"] == 0
        assert sum(data["forward"].values()) == 6

    def test_probe_trajectories_csv_monotone(self, capsys, tmp_path):
        cfg = tmp_path / "sphere.cfg"
        cfg.write_text(SPHERE_CFG)
        csv = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "geom", "probe", str(cfg), "--seeds", "2",
                         "--trajectories-csv", str(csv))
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("trajectory,t,")
        f_col = lines[0].split(",").index("f")
        by_traj = {}
        for row in lines[1:]:
            vals = row.split(",")
            by_traj.setdefault(vals[0], []).append(float(vals[f_col]))
        for fs in by_traj.values():
            assert all(b <= a + 1e-8 for a, b in zip(fs, fs[1:]))

    def test_probe_empty_job(self, capsys, tmp_path):
        cfg = tmp_path / "sphere.cfg"
        cfg.write_text(SPHERE_CFG)
        csv = tmp_path / "empty.csv"
        code, _, _ = run(capsys, "geom", "probe", str(cfg), "--seeds", "0",
                         "--trajectories-csv", str(csv))
        assert code == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("trajectory")

    def test_negative_seed_count_is_a_parse_error(self, capsys, torus_cfg):
        code, out, err = run(capsys, "geom", "probe", torus_cfg,
                             "--seeds", "-3")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "--seeds" in err
        code, out, err = run(capsys, "--json", "geom", "probe", torus_cfg,
                             "--seeds", "-3")
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["code"]) == ("ParseError", 2)
        assert "--seeds" in error["message"]

    def test_negative_seed_is_a_parse_error(self, capsys, torus_cfg):
        # before, numpy's "expected non-negative integer" exited 1
        code, out, err = run(capsys, "--seed", "-1", "geom", "probe",
                             torus_cfg, "--seeds", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "--seed " in err and "-1" in err
        code, out, err = run(capsys, "--json", "--seed", "-1", "geom",
                             "probe", torus_cfg, "--seeds", "2")
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["code"]) == ("ParseError", 2)
        assert "--seed " in error["message"]

    def test_connections_csv(self, capsys, tmp_path, torus_cfg):
        csv = tmp_path / "conn.csv"
        code, out, _ = run(capsys, "--json", "geom", "connections", torus_cfg,
                           "--source", "x11", "--target", "x10",
                           "--csv", str(csv))
        data = json.loads(out)
        assert code == 0
        assert data["count"] == 2
        ids = {row.split(",")[0] for row in csv.read_text().splitlines()[1:]}
        assert ids == {"0", "1"}

    def test_connections_csv_ends_at_target(self, capsys, tmp_path):
        # the lines into x10 are found from x10's side; each trajectory is
        # that line, so it ends at x10 rather than sliding past it
        cfg = tmp_path / "perturbed.cfg"
        cfg.write_text(TORUS_CFG + "perturb 0.02\nseed 3\n")
        csv = tmp_path / "conn.csv"
        code, out, _ = run(capsys, "--json", "geom", "connections", str(cfg),
                           "--source", "x11", "--target", "x10",
                           "--csv", str(csv))
        assert code == 0
        assert json.loads(out)["count"] == 2
        system = parse_system_config(cfg.read_text())
        target = system.point("x10").point
        last = {}
        for row in csv.read_text().splitlines()[1:]:
            vals = row.split(",")
            last[vals[0]] = np.array([float(v) for v in vals[2:4]])
        assert sorted(last) == ["0", "1"]
        for pt in last.values():
            assert system.manifold.distance(pt, target) <= 2e-3

    @pytest.mark.parametrize("radius", ["1.2", "2"])
    def test_radius_past_half_the_gap_is_refused(self, capsys, tmp_path,
                                                 radius):
        # branch flows start 10 tol-conv off their point: at these radii,
        # past half the way to the next point, x11 -> x10 read 0 lines
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(TORUS_CFG + "tol-conv %s\n" % radius)
        code, out, err = run(capsys, "--json", "geom", "connections",
                             str(cfg), "--source", "x11", "--target", "x10")
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert error["type"] == "StructuralValidationError"
        assert "x00 and x10" in error["message"]
        assert "tol-conv %s " % radius in error["message"]

    def test_radius_below_the_bound_counts_both_lines(self, capsys,
                                                      tmp_path):
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(TORUS_CFG + "tol-conv 0.1\n")
        code, out, _ = run(capsys, "--json", "geom", "connections", str(cfg),
                           "--source", "x11", "--target", "x10")
        assert code == 0
        assert json.loads(out)["count"] == 2

    def test_connections_from_index_three(self, capsys, tmp_path):
        cfg = tmp_path / "torus3.cfg"
        cfg.write_text("kind torus\ndim 3\namplitudes 1.0 0.7 0.55\n")
        code, out, _ = run(capsys, "--json", "geom", "connections", str(cfg),
                           "--source", "x111", "--target", "x110")
        assert code == 0
        assert json.loads(out)["count"] == 2

    def test_connections_unknown_point(self, capsys, torus_cfg):
        code, _out, err = run(capsys, "geom", "connections", torus_cfg,
                              "--source", "x99", "--target", "x00")
        assert code == 3
        assert "x99" in err
        assert "Traceback" not in err

    def test_connections_index_drop_two(self, capsys, torus_cfg):
        # a maximum and a minimum are not index-adjacent
        code, _out, err = run(capsys, "geom", "connections", torus_cfg,
                              "--source", "x11", "--target", "x00")
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_connections_index_drop_two_json(self, capsys, torus_cfg):
        # a failure outside the error taxonomy is one JSON object too
        code, out, err = run(capsys, "--json", "geom", "connections",
                             torus_cfg, "--source", "x11", "--target", "x00")
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["code"]) == ("ValueError", 1)
        assert "index" in error["message"]


class TestHomologyCommand:
    def test_torus_betti(self, capsys, torus_cfg):
        code, out, _ = run(capsys, "--json", "homology", torus_cfg)
        data = json.loads(out)
        betti = data["blocks"]["total"]["betti"]
        assert (betti["0"], betti["1"], betti["2"]) == (1, 2, 1)

    def test_phased_torus_betti(self, capsys, tmp_path):
        # the index-2 circle lattice counted -1 here, giving H_1 rank 1
        cfg = tmp_path / "phased.cfg"
        cfg.write_text("kind torus\ndim 2\namplitudes 1.0 0.55\n"
                       "phases 0.3 2.0\n")
        code, out, _ = run(capsys, "homology", str(cfg))
        assert code == 0
        assert "H_1: rank 2  (" in out
        assert "H_2: rank 1  (" in out

    def test_torus_lattice_instability_input(self, capsys, tmp_path):
        # the index-2 circle lattice raised CountInstabilityError (exit 5)
        cfg = tmp_path / "a0803171.cfg"
        cfg.write_text("kind torus\ndim 2\namplitudes 1.0 0.803171\n")
        code, _out, err = run(capsys, "homology", str(cfg))
        assert code == 0, err

    def test_mod2_ring(self, capsys, torus_cfg):
        code, out, _ = run(capsys, "--json", "homology", torus_cfg,
                           "--ring", "z2")
        data = json.loads(out)
        assert data["ring"] == "Z2"
        assert data["blocks"]["total"]["betti"]["1"] == 2

    def test_relative_band(self, capsys, tmp_path):
        cfg = tmp_path / "band.cfg"
        cfg.write_text(BAND_CFG)
        code, out, _ = run(capsys, "--json", "homology", str(cfg),
                           "--relative", "band:0.25")
        data = json.loads(out)
        sub = data["blocks"]["subcomplex"]["betti"]
        assert (sub["0"], sub["1"]) == (1, 1)

    def test_relative_empty(self, capsys, torus_cfg):
        # the empty region takes no admissibility check: the quotient is
        # the whole complex and the subcomplex has no generator
        code, out, _ = run(capsys, "homology", torus_cfg, "--relative",
                           "empty")
        whole = ("  H_0: rank 1  (generators: x00)\n"
                 "  H_1: rank 2  (generators: x10 x01)\n"
                 "  H_2: rank 1  (generators: x11)\n")
        assert (code, out) == (0, "torus2 (ring Z)\nquotient:\n" + whole
                               + "subcomplex:\ntotal:\n" + whole)

    def test_matrices_export(self, capsys, tmp_path):
        cfg = tmp_path / "band.cfg"
        cfg.write_text(BAND_CFG)
        mats = tmp_path / "mats.txt"
        code, _, _ = run(capsys, "homology", str(cfg),
                         "--matrices-out", str(mats))
        text = mats.read_text()
        assert "# total degree 2 -> 1" in text

    def test_csv_summary(self, capsys, tmp_path, torus_cfg):
        csv = tmp_path / "sum.csv"
        run(capsys, "homology", torus_cfg, "--csv", str(csv))
        lines = csv.read_text().splitlines()
        assert lines[0] == "block,degree,betti,torsion,generators"
        assert any(line.startswith("total,1,2") for line in lines)


class TestOpCommands:
    def test_push_and_umkehr(self, capsys, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("kind torus\ndim 2\namplitudes 1.0 0.7\n"
                       "phases 0.9 1.3\n")
        code, out, _ = run(capsys, "--json", "op", "push", str(cfg),
                           "--embedding", "factor:1:2.0:0.3")
        data = json.loads(out)
        assert code == 0
        assert data["matrices"]["0"] == [[1]]
        code, out, _ = run(capsys, "--json", "op", "umkehr", str(cfg),
                           "--embedding", "factor:1:2.0:0.3")
        data = json.loads(out)
        assert [abs(v) for v in data["matrices"]["2"][0]] == [1]

    def test_thom_and_euler(self, capsys, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SPHERE_CFG)
        code, out, _ = run(capsys, "--json", "op", "thom", str(cfg),
                           "--bundle", "trivial:1")
        data = json.loads(out)
        assert data["relative_betti"] == {"1": 1, "3": 1}
        assert data["fiber_pairing"] == 1
        code, out, _ = run(capsys, "--json", "op", "euler", str(cfg),
                           "--bundle", "tangent")
        data = json.loads(out)
        assert abs(data["pairing_with_fundamental_class"]) == 2

    def test_push_and_umkehr_of_the_equator(self, capsys, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SPHERE_CFG)
        code, out, _ = run(capsys, "op", "push", str(cfg), "--embedding",
                           "equator")
        assert (code, out) == (0, "push matrices for equator:\n"
                                  "  degree 0: [[1]]\n  degree 1: []\n")
        code, out, _ = run(capsys, "--json", "op", "umkehr", str(cfg),
                           "--embedding", "equator")
        assert code == 0
        assert json.loads(out) == {"embedding": "equator",
                                   "matrices": {"0": [], "2": [[1]]}}

    @pytest.mark.parametrize("command", ["push", "umkehr"])
    def test_identity_embedding_of_the_torus(self, capsys, torus_cfg,
                                             command):
        code, out, _ = run(capsys, "--json", "op", command, torus_cfg,
                           "--embedding", "identity")
        assert code == 0
        assert json.loads(out)["matrices"] == {
            "0": [[1]], "1": [[1, 0], [0, 1]], "2": [[1]]}

    def test_thom_of_the_torus_tangent_bundle(self, capsys, torus_cfg):
        code, out, _ = run(capsys, "op", "thom", torus_cfg, "--bundle",
                           "tangent")
        assert (code, out) == (0, "Thom data for TT2 (rank 2):\n"
                                  "  relative H_2 rank 1\n"
                                  "  relative H_3 rank 2\n"
                                  "  relative H_4 rank 1\n"
                                  "  class = dual of x00\n"
                                  "  fiber pairing +1\n")

    def test_euler_of_tangent_plus_trivial(self, capsys, tmp_path):
        # the trivial summand's section vanishes nowhere: no zeros
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SPHERE_CFG)
        argv = ["op", "euler", str(cfg), "--bundle", "tangent+trivial"]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, "Euler class of TS2+triv1:\n"
                                  "  cochain: 0\n"
                                  "  pairing with fundamental class: None\n")
        code, out, _ = run(capsys, "--json", *argv)
        assert json.loads(out) == {
            "bundle": "TS2+triv1", "coefficients": {},
            "pairing_with_fundamental_class": None, "zeros": []}

    @pytest.mark.parametrize("dim,betti", [(1, {"1": 1, "2": 1}),
                                           (3, {"3": 1, "6": 1})])
    def test_odd_sphere_tangent_bundles_are_oriented(self, capsys, tmp_path,
                                                     dim, betti):
        # TS^n is oriented on every sphere; before, only TS2 carried a
        # frame, and these exited 5 as not orientable.  The Euler class of
        # an odd sphere pairs to chi = 0
        cfg = tmp_path / "s.cfg"
        cfg.write_text("kind sphere\ndim %d\n" % dim)
        code, out, _ = run(capsys, "--json", "op", "thom", str(cfg),
                           "--bundle", "tangent")
        data = json.loads(out)
        assert code == 0
        assert (data["bundle"], data["rank"]) == ("TS%d" % dim, dim)
        assert data["relative_betti"] == betti
        assert data["fiber_pairing"] == 1
        code, out, _ = run(capsys, "--json", "op", "euler", str(cfg),
                           "--bundle", "tangent")
        data = json.loads(out)
        assert code == 0
        assert data["coefficients"] == {"north": 0}
        assert data["pairing_with_fundamental_class"] == 0
        assert sorted(z["sign"] for z in data["zeros"]) == [-1, 1]
        code, out, _ = run(capsys, "--json", "op", "euler", str(cfg),
                           "--bundle", "tangent+trivial")
        assert code == 0
        assert json.loads(out)["zeros"] == []

    @pytest.fixture
    def label_args(self, tmp_path):
        args = []
        for i, phases in enumerate(("0.0 0.0", "0.9 1.3", "-0.7 0.55")):
            p = tmp_path / ("label%d.cfg" % i)
            p.write_text("kind torus\ndim 2\namplitudes 1.0 0.7\nphases %s\n"
                         % phases)
            args += ["--label", str(p)]
        return args

    def test_nu_table_text(self, capsys, fig8_file, label_args):
        code, out, _ = run(capsys, "op", "nu", fig8_file, *label_args,
                           "--table")
        assert (code, out) == (0, "operation table (edge time 0):\n"
                                  "  x00 * x11 -> {'x00': 1}\n"
                                  "  x01 * x10 -> {'x00': 1}\n"
                                  "  x01 * x11 -> {'x01': 1}\n"
                                  "  x10 * x01 -> {'x00': -1}\n"
                                  "  x10 * x11 -> {'x10': 1}\n"
                                  "  x11 * x00 -> {'x00': 1}\n"
                                  "  x11 * x01 -> {'x01': 1}\n"
                                  "  x11 * x10 -> {'x10': 1}\n"
                                  "  x11 * x11 -> {'x11': 1}\n")

    def test_nu_single_input_golden_args(self, capsys, fig8_file, label_args):
        code, out, _ = run(capsys, "--json", "op", "nu", fig8_file,
                           *label_args, "--input", "x10,x01")
        data = json.loads(out)
        assert code == 0
        assert data["output"] == {"x00": -1}

    def test_nu_aligned_labels_exit_code(self, capsys, tmp_path, fig8_file):
        # in2's minimum on in1's unstable curve of x10: not transverse
        args = []
        for i, phases in enumerate(("0.0 0.0", "0.9 0.0", "-0.7 0.55")):
            p = tmp_path / ("label%d.cfg" % i)
            p.write_text("kind torus\ndim 2\namplitudes 1.0 0.7\nphases %s\n"
                         % phases)
            args += ["--label", str(p)]
        code, _out, err = run(capsys, "op", "nu", fig8_file, *args,
                              "--table")
        assert code == 5
        assert "Traceback" not in err

    def test_unresolved_classification_flow_gives_its_fields(
            self, capsys, fig8_file, label_args, monkeypatch):
        # classification flows capped at t = 1e-3 stop unresolved; the
        # error carries the flow's status, end time and step count, on the
        # exception and in the --json payload.  The cap also takes their
        # level trap, which proves some limits at a flow's first points.  A
        # classification flow is unrecorded and takes the default time limit
        real = counting.flow

        def capped(*args, **kwargs):
            if kwargs.get("record") is False and "t_max" not in kwargs:
                kwargs["t_max"] = 1e-3
                kwargs["trap"] = None
            return real(*args, **kwargs)

        monkeypatch.setattr(counting, "flow", capped)
        t2 = parse_system_config(TORUS_CFG)
        with pytest.raises(CountingIncompleteError,
                           match="classification flow unresolved") as err:
            counting.flow_limit(t2, np.array([1.0, 2.0]),
                                what="classification flow")
        e = err.value
        assert e.code == 4 and e.status == "fixed_time"
        assert e.t_end == pytest.approx(1e-3) and e.steps >= 1
        code, out, err = run(capsys, "--json", "op", "nu", fig8_file,
                             *label_args, "--input", "x10,x01")
        assert (code, out) == (4, "")
        error = json.loads(err)["error"]
        assert error["type"] == "CountingIncompleteError"
        assert "classification flow unresolved" in error["message"]
        fields = error["fields"]
        assert sorted(fields) == ["status", "steps", "t_end"]
        assert fields["status"] == "fixed_time"
        assert fields["t_end"] == pytest.approx(1e-3)
        assert isinstance(fields["steps"], int) and fields["steps"] >= 1

    @pytest.mark.parametrize("edge_time", ["-1", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("mode", [["--table"], ["--input", "x10,x01"]],
                             ids=["table", "input"])
    def test_bad_edge_time_is_a_parse_error(self, capsys, fig8_file,
                                            label_args, edge_time, mode):
        # a flow cannot run backwards or forever: before, -1 and nan gave
        # the table of edge time 0 under the bad label
        argv = ["op", "nu", fig8_file, *label_args, *mode,
                "--edge-time=" + edge_time]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "--edge-time" in err
        code, out, err = run(capsys, "--json", *argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["code"]) == ("ParseError", 2)
        assert "--edge-time" in error["message"]

    def test_nu_unknown_input_point(self, capsys, fig8_file, label_args):
        code, _out, err = run(capsys, "op", "nu", fig8_file, *label_args,
                              "--input", "x99,x00")
        assert code == 3
        assert "x99" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, path, option, spec", [
        (("homology",), "band.cfg", "--relative", "band:abc"),
        (("homology",), "band.cfg", "--relative", "cap:"),
        # a nan level holds no point, an infinite one every point
        (("homology",), "band.cfg", "--relative", "band:nan"),
        (("homology",), "band.cfg", "--relative", "cap:inf"),
        (("op", "push"), "torus.cfg", "--embedding", "factor:x"),
        # the circle's axis is 0 or 1 and its level finite
        (("op", "push"), "torus.cfg", "--embedding", "factor:9:1:1"),
        (("op", "umkehr"), "torus.cfg", "--embedding", "factor:-1:1:1"),
        (("op", "push"), "torus.cfg", "--embedding", "factor:0:nan"),
        (("op", "umkehr"), "torus.cfg", "--embedding", "factor:0:inf:0"),
        (("op", "thom"), "sphere.cfg", "--bundle", "trivial:q"),
        (("op", "thom"), "sphere.cfg", "--bundle", "trivial:-1"),
        # the rank is the one field: before, this ran as rank 1
        (("op", "thom"), "sphere.cfg", "--bundle", "trivial:1:2"),
        # extra fields: before, they were ignored
        (("op", "push"), "torus.cfg", "--embedding", "factor:0:2.0:0.3:junk"),
        (("op", "umkehr"), "torus.cfg", "--embedding", "identity:x"),
        (("op", "push"), "sphere.cfg", "--embedding", "equator:1"),
        (("op", "push"), "sphere.cfg", "--embedding", "equator:"),
        (("op", "nu"), "fig8.graph", "--input", "x10"),
        # an empty coefficient: before, it ran as 1
        (("op", "nu"), "fig8.graph", "--input", "x10,x01=")])
    def test_malformed_spec_is_a_parse_error(self, capsys, label_args,
                                             command, path, option, spec):
        argv = [*command, os.path.join(DATA, path), option, spec]
        if "nu" in command:
            argv += label_args
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and repr(spec) in err
        code, out, err = run(capsys, "--json", *argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["code"]) == ("ParseError", 2)
        assert repr(spec) in error["message"]

    def test_missing_input_names_the_syntax(self, capsys, fig8_file,
                                            label_args):
        code, out, err = run(capsys, "op", "nu", fig8_file, *label_args)
        assert (code, out) == (2, "")
        assert "--input 'a,b[=coeff];...'" in err

    @pytest.mark.parametrize("config, spec, manifold", [
        (SPHERE_CFG, "factor", "SphereModel"),
        ("kind torus\ndim 3\n", "factor:0", "TorusModel(dim=3)"),
        (TORUS_CFG, "equator", "TorusModel(dim=2)")])
    def test_embedding_on_the_wrong_manifold_is_refused(
            self, capsys, tmp_path, config, spec, manifold):
        # before, factor on the sphere exited 3 on normal coordinates that
        # do not vanish, and the other two exited 1 in the library
        cfg = tmp_path / "system.cfg"
        cfg.write_text(config)
        argv = ["op", "push", str(cfg), "--embedding", spec]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error:") and manifold in err
        code, out, err = run(capsys, "--json", *argv)
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["code"]) == (
            "StructuralValidationError", 3)

    @pytest.mark.parametrize("command", ["thom", "euler"])
    def test_tangent_bundle_of_a_product_is_refused(self, capsys, tmp_path,
                                                    command):
        # before, a product was taken for a sphere: thom exited 3 on a
        # projector that is not idempotent, euler 5 on orientation
        cfg = tmp_path / "product.cfg"
        cfg.write_text("kind product\nfactor torus dim=1\n"
                       "factor sphere-band dim=2\n")
        argv = ["op", command, str(cfg), "--bundle", "tangent"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "ProductModel" in err
        code, out, err = run(capsys, "--json", *argv)
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["code"]) == (
            "StructuralValidationError", 3)
        assert "--bundle tangent" in error["message"]

    def test_csv_without_table_is_a_parse_error(self, capsys, tmp_path,
                                                fig8_file, label_args):
        # before, --csv with --input wrote nothing and exited 0
        csv = tmp_path / "out.csv"
        argv = ["op", "nu", fig8_file, *label_args, "--input", "x10,x01",
                "--csv", str(csv)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "--table" in err
        code, out, err = run(capsys, "--json", *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "ParseError"
        assert not csv.exists()


class TestUnwritableOutputs:
    """An output path in a missing directory is a parse error (exit 2)
    that names the path, plain and under ``--json``; before, each of
    these ended in a FileNotFoundError traceback."""

    @pytest.fixture
    def cases(self, tmp_path, fig8_file):
        band = os.path.join(DATA, "band.cfg")
        torus = os.path.join(DATA, "torus.cfg")
        labels = []
        for i, phases in enumerate(("0.0 0.0", "0.9 1.3", "-0.7 0.55")):
            p = tmp_path / ("label%d.cfg" % i)
            p.write_text("kind torus\ndim 2\namplitudes 1.0 0.7\n"
                         "phases %s\n" % phases)
            labels += ["--label", str(p)]
        return {
            "probe": ["geom", "probe", torus, "--seeds", "2",
                      "--trajectories-csv"],
            "connections": ["geom", "connections", torus, "--source", "x10",
                            "--target", "x00", "--csv"],
            "matrices": ["homology", band, "--matrices-out"],
            "summary": ["homology", torus, "--csv"],
            "table": ["op", "nu", fig8_file, *labels, "--table", "--csv"],
        }

    @pytest.mark.parametrize("name", ["probe", "connections", "matrices",
                                      "summary", "table"])
    def test_missing_directory_is_a_parse_error(self, capsys, tmp_path,
                                                cases, name):
        path = str(tmp_path / "no" / "such" / "dir" / "out.txt")
        argv = cases[name] + [path]
        code, _out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: cannot write %s" % path)
        assert "Traceback" not in err
        code, _out, err = run(capsys, "--json", *argv)
        assert code == 2
        error = json.loads(err)["error"]
        assert (error["type"], error["code"]) == ("ParseError", 2)
        assert path in error["message"]

    @pytest.mark.parametrize("name", ["probe", "connections", "matrices",
                                      "summary", "table"])
    def test_a_failed_write_prints_nothing(self, capsys, tmp_path, cases,
                                           name):
        # the file is written before the result is printed; before, the
        # whole result reached stdout, and under --json stdout held a
        # success object while stderr held the error object
        path = str(tmp_path / "missing" / "out.txt")
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, *flags, *cases[name], path)
            assert (code, out) == (2, "")
            assert path in err


GOLDEN_CASES = [
    (("--json", "graph", "cycles", os.path.join(DATA, "fig8.graph")),
     "fig8.cycles.golden"),
    (("--json", "graph", "genus", os.path.join(DATA, "fig8.graph")),
     "fig8.genus.golden"),
    (("--json", "graph", "reduce", os.path.join(DATA, "dumbbell.graph")),
     "dumbbell.reduce.golden"),
    (("--json", "homology", os.path.join(DATA, "torus.cfg")),
     "torus.homology.golden"),
    (("--json", "homology", os.path.join(DATA, "band.cfg"),
      "--relative", "band:0.25"),
     "band.relative.golden"),
]


class TestGoldenFiles:
    @pytest.mark.parametrize("argv,golden", GOLDEN_CASES,
                             ids=[g for _a, g in GOLDEN_CASES])
    def test_output_matches_checked_in_golden(self, capsys, argv, golden):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        with open(os.path.join(DATA, golden)) as fh:
            assert out == fh.read()
