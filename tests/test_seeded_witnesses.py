"""Pinned JSON of seeded failing reports, witnesses included.

Each case plants one extra term (the first input, or its square, which
also breaks associativity) in the first component of one structure map and
checks the edge and a face through it.  A witness is a drawn composable
tuple, so these pins move when a parameterization draws its parameters in
another order, which an oracle built on the same parameterization objects
cannot see.  The expected reports are in
`seeded_reports.json`, recorded before the edge builders were merged.

A passing report holds no witness, so the draws behind passing reports are
pinned apart: the SHA-256 of every point `check_presentation` passes to
`CoordSchema.satisfies` (`tools/report_digest.py`), recorded before the laws
were written as tables.
"""
import hashlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from cubicalc.checks import (check_edge_category, check_face,
                             check_presentation, reports_ok)
from cubicalc.constructions import gfull, gsy, pair_groupoid, scaled_action
from cubicalc.polymap import PolyMap
from cubicalc.presentation import CoordSchema
from cubicalc.twotyped import g_overline

fs = frozenset
EXPECTED = json.loads(
    (Path(__file__).with_name("seeded_reports.json")).read_text())


def _corrupt(p, key, which, power=1):
    e = p.edges[key]
    m = getattr(e, which)
    comps = (m.comps[0] + m.var(m.in_labels[0]) ** power,) + m.comps[1:]
    setattr(e, which, PolyMap(m.ring, m.in_labels, comps, m.out_labels))
    return p


def cases() -> dict:
    """name -> (corrupted presentation, edge key, face)."""
    out = {}
    key, face = (fs({1}), fs({1, 2})), (fs(), fs({1, 2}))
    for which in ("compose", "target", "unit", "inverse"):
        out[f"gsy2-{which}"] = (
            _corrupt(gsy(2, [Fraction(1)] * 2), key, which), key, face)
    out["gsy2-compose-square"] = (
        _corrupt(gsy(2, [Fraction(1)] * 2), key, "compose", 2), key, face)
    for d, name in ((1, "first-kind"), (-1, "second-kind")):
        key = (fs(), fs({d}))
        for power, suffix in ((1, ""), (2, "-square")):
            out[f"g_overline1-{name}-compose{suffix}"] = (
                _corrupt(g_overline(1), key, "compose", power), key,
                (fs(), fs({1, -1})))
    return out


def reports_json(case) -> dict:
    p, key, face = case
    return {"edge": [r.to_json() for r in check_edge_category(p, key, seed=6,
                                                              samples=25)],
            "face": [r.to_json() for r in check_face(p, face, seed=6,
                                                     samples=25)]}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_seeded_failing_reports(name):
    got = reports_json(cases()[name])
    assert got == EXPECTED[name]
    assert any(r["status"] == "fail" and r.get("witness")
               for r in got["edge"] + got["face"])


def test_every_case_is_pinned():
    assert sorted(cases()) == sorted(EXPECTED)


def _report_digest_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"
    spec = importlib.util.spec_from_file_location("report_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# check_presentation(p, seed=42, samples=20)
DRAWS = {
    "pair_groupoid(2)": (
        lambda: pair_groupoid(2),
        "4bfc630aac04f98c7ae3bea41b41a44d6cc655fe31912366a9cb1d9b8a966daa"),
    "gsy(2, (1, 2))": (
        lambda: gsy(2, (Fraction(1), Fraction(2))),
        "0e9acdd017c430e5c4322007fb65215bea00d135c92e2ebfc1e8295c2d08f61d"),
    "scaled_action(2)": (
        lambda: scaled_action(2),
        "5144645ef3ef9993336cb4e1df852c4cdd2b1b25290973ef0ac9b74a1b7c4848"),
    "gfull(2)": (
        lambda: gfull(2),
        "7c59ca853924496890683f32bc9e1c90c934da2df98fe506ebae7eaf50646be6"),
    "g_overline(1)": (
        lambda: g_overline(1),
        "ff042b5d5ac561660a0aa56e0e3e216a71e2033f0ac73a2ddc292d464c9f8753"),
}


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_passing_reports_draw_the_pinned_points(name, monkeypatch):
    build, expected = DRAWS[name]
    sink = hashlib.sha256()
    monkeypatch.setattr(CoordSchema, "satisfies", _report_digest_tool()
                        .point_recorder(CoordSchema.satisfies, sink))
    assert reports_ok(check_presentation(build(), seed=42, samples=20))
    assert sink.hexdigest() == expected
