"""`cubicalc derive` and the edge tables read only what they print.

`derive` stages one vertex map (`laws.full_vertex_map`) and the edge tables
read the staged targets (`constructions.gfull_edge_target`); neither builds a
presentation.  These tests pin their outputs to the law and the presentations
they used to be read from, and bound the dimension of every path that
enumerates the vertices of G^N.
"""
import contextlib
import io
import itertools
import json
from functools import lru_cache

import pytest

import cubicalc.constructions as constructions
import cubicalc.laws as laws
import cubicalc.tables as tables
from cubicalc.cli import run
from cubicalc.constructions import gfull, gfull_edge_target, scaleoid
from cubicalc.derive import display_label, monomial_key
from cubicalc.hypercube import MAX_DIM, HypercubeError, kcubes, subsets
from cubicalc.laws import LawError, derive_law_full, full_vertex_map
from cubicalc.parser import parse
from cubicalc.rings import QQ, IntegersMod, ring_from_spec
from cubicalc.tables import edge_table, vertex_table

EXPRS = ("f(x)=x^3 - 2*x", "f(x,y)=(x*y, x^2 + 3/2*y)")
RINGS = ("rational", "mod:7")
# (the CLI arguments, the directions they name)
CUBES = [(["--n", "1"], (1,)), (["--n", "2"], (1, 2)),
         (["--n", "3"], (1, 2, 3)), (["--N", "1,3"], (1, 3)),
         (["--N", "3,1"], (1, 3))]


def _out(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@lru_cache(maxsize=None)
def _law(expr: str, ring: str, N: tuple):
    return derive_law_full(parse(expr, ring_from_spec(ring)), N)


def _alphas(N) -> list:
    """(--alpha argument or None, vertex) for every vertex of P(N)."""
    return [(None, frozenset(N))] + [
        ("".join(map(str, a)) or "0", frozenset(a))
        for k in range(len(N) + 1) for a in itertools.combinations(N, k)]


@pytest.mark.parametrize("expr", EXPRS)
@pytest.mark.parametrize("ring", RINGS)
def test_derive_prints_the_law_vertex_map(expr, ring):
    for cube, N in CUBES:
        law = _law(expr, ring, N)
        for arg, alpha in _alphas(N):
            argv = (["derive", "--expr", expr] + cube + ["--ring", ring]
                    + ([] if arg is None else ["--alpha", arg]))
            m = law.vertex_maps[alpha]
            assert _out(argv) == (0, m.fmt(monomial_order=monomial_key) + "\n",
                                  "")
            code, out, _ = _out(argv + ["--format", "json"])
            inputs = [display_label(l) for l in m.in_labels]
            assert code == 0 and json.loads(out) == {
                "alpha": sorted(alpha), "inputs": inputs,
                "outputs": [display_label(l) for l in m.out_labels],
                "components": [c.fmt(inputs) for c in m.comps]}


def test_full_vertex_map_is_the_law_vertex_map():
    f = parse(EXPRS[1])
    law = _law(EXPRS[1], "rational", (1, 2, 3))
    for alpha in subsets((1, 2, 3)):
        assert full_vertex_map(f, (3, 2, 1), alpha).equals(
            law.vertex_maps[alpha])
    with pytest.raises(LawError, match="alpha"):
        full_vertex_map(f, (1, 3), {2})


@pytest.mark.parametrize("ring", (QQ, IntegersMod(7)))
def test_edge_table_rows_are_the_presentation_targets(ring):
    for N in (1, 2, 3, (1, 3)):
        for scaleoid_table in (False, True):
            pres = scaleoid(N, ring) if scaleoid_table else gfull(N, ring=ring)
            rows = edge_table(N, scaleoid_table=scaleoid_table, ring=ring)
            keys = kcubes(subsets(pres.directions, binary=True), 1)
            assert [r["edge"] for r in rows] == [
                f"{tables.subset_label(lo)}>{tables.subset_label(hi)}"
                for lo, hi in keys]
            for row, key in zip(rows, keys):
                e = pres.edges[key]
                assert row["formula"] == (
                    "pi" + tables.coords_str(e.dom.labels) + " = "
                    + e.target.fmt(monomial_order=monomial_key))
                assert row["outputs"] == tables.coords_str(e.target.out_labels)
                target = gfull_edge_target(N, *key, 0 if scaleoid_table else 1,
                                           ring)
                assert target.in_labels == e.dom.labels
                assert target.equals(e.target)


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("construction", ("gfull", "scaleoid"))
def test_one_row_tables_are_rows_of_the_full_table(construction, ring):
    for cube in ("1", "1,2", "1,2,3", "1,3"):
        for what, option, columns in (
                ("vertex", "--alpha", ["N", "alpha", "vertex_set", "coords"]),
                ("edge", "--edge", ["N", "edge", "formula", "outputs"])):
            argv = ["table", "--construction", construction, "--N", cube,
                    "--what", what, "--ring", ring]
            code, out, _ = _out(argv + ["--format", "json"])
            rows = json.loads(out)
            assert code == 0 and rows
            for row in rows:
                one = argv + [option, row[columns[1]]]
                code, out, _ = _out(one + ["--format", "json"])
                assert (code, json.loads(out)) == (0, [row])
                assert _out(one) == (
                    0, tables.render_rows([row], columns) + "\n", "")


@pytest.mark.parametrize("argv", [
    ["--N", "1,2", "--what", "vertex", "--alpha", "11"],
    ["--N", "1,2", "--what", "vertex", "--alpha", "3"],
    ["--N", "1,2", "--what", "vertex", "--alpha", "21"],
    ["--N", "1,2", "--what", "vertex", "--alpha", "0",
     "--construction", "scaleoid"],
    ["--N", "1,2", "--what", "edge", "--edge", "1>13"],
    ["--N", "1,2", "--what", "edge", "--edge", "12>1"],
    ["--N", "1,2", "--what", "edge", "--edge", "0>12"],
])
def test_table_rejects_a_label_that_names_nothing(argv):
    code, out, err = _out(["table"] + argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: --") and "names no" in err


def test_one_edge_row_builds_one_target(monkeypatch):
    calls = []
    real = constructions.gfull_edge_target

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(constructions, "gfull_edge_target", counted)
    monkeypatch.setattr(tables, "gfull_edge_target", counted)
    code, out, _ = _out(["table", "--N", "1,2,3", "--what", "edge",
                         "--edge", "1>13"])
    assert code == 0 and "1>13" in out
    assert len(calls) == 1


def test_derive_and_edge_tables_build_no_edge_category(monkeypatch):
    calls = []
    real = constructions.additive_edge_cat

    def counted(*args, **kwargs):
        calls.append(args[1:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(constructions, "additive_edge_cat", counted)
    for argv in (["derive", "--expr", EXPRS[1], "--n", "3"],
                 ["derive", "--expr", EXPRS[0], "--N", "3,1", "--alpha", "3"],
                 ["derive", "--expr", EXPRS[0], "--n", "2", "--alpha", "0",
                  "--ring", "mod:7", "--format", "json"],
                 ["table", "--construction", "gfull", "--N", "1,2,3",
                  "--what", "edge"],
                 ["table", "--construction", "scaleoid", "--N", "2,3",
                  "--what", "edge", "--ring", "mod:7", "--format", "json"],
                 ["table", "--construction", "gfull", "--N", "1,3",
                  "--what", "vertex"]):
        assert _out(argv)[0] == 0
    assert calls == []
    gfull(1)  # the counter sees a presentation build
    assert len(calls) == 1


def test_every_dimension_path_is_bounded(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("nothing may be built past the dimension bound")

    for module, name in ((constructions, "subsets"), (tables, "subsets"),
                         (constructions, "_staged_labels"),
                         (laws, "_staged")):
        monkeypatch.setattr(module, name, never)
    n = MAX_DIM + 8
    many = ",".join(map(str, range(1, n + 1)))
    for argv in (["check", "--construction", "gfull", "--n", str(n)],
                 ["check", "--construction", "scaleoid", "--n", str(n)],
                 ["table", "--N", many, "--what", "vertex"],
                 ["table", "--construction", "scaleoid", "--N", many,
                  "--what", "edge"],
                 ["derive", "--expr", "f(x)=x^2", "--n", str(n),
                  "--alpha", "1"],
                 ["derive", "--expr", "f(x)=x^2", "--N", many, "--alpha", "1"]):
        code, out, err = _out(argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: dimension must be in 0..{MAX_DIM}, got {n}\n"
    f = parse("f(x)=x^2")
    for call in (lambda: gfull(n), lambda: scaleoid(n),
                 lambda: gfull(range(1, n + 1)), lambda: vertex_table(n),
                 lambda: edge_table(n), lambda: full_vertex_map(f, n, {1}),
                 lambda: derive_law_full(f, n),
                 lambda: gfull_edge_target(n, set(), {1})):
        with pytest.raises(HypercubeError, match="dimension"):
            call()


@pytest.mark.parametrize("alpha", ["11", "1x", "", "1 2", "²", "00"])
def test_derive_rejects_malformed_alpha(alpha):
    code, out, err = _out(["derive", "--expr", "f(x)=x^2", "--n", "2",
                           "--alpha", alpha])
    assert (code, out) == (2, "")
    assert err.startswith("error: --alpha must be 0 or a string of distinct "
                          "digits") and len(err.splitlines()) == 1


def test_derive_alpha_digits_in_any_order():
    argv = ["derive", "--expr", "f(x)=x^2", "--n", "2"]
    assert _out(argv + ["--alpha", "21"]) == _out(argv + ["--alpha", "12"]) \
        == _out(argv)
