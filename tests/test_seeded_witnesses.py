"""Pinned JSON of seeded failing reports, witnesses included.

Each case plants one extra term (the first input, or its square, which
also breaks associativity) in the first component of one structure map and
checks the edge and a face through it.  A witness is a drawn composable
tuple, so these pins move when a parameterization draws its parameters in
another order, which an oracle built on the same parameterization objects
cannot see.  The expected reports are in
`seeded_reports.json`, recorded before the edge builders were merged.
"""
import json
from fractions import Fraction
from pathlib import Path

import pytest

from cubicalc.checks import check_edge_category, check_face
from cubicalc.constructions import gsy
from cubicalc.polymap import PolyMap
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
