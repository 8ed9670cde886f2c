"""The edge and face law tables of `cubicalc.checks` on the symbolic
back-end: on every construction each law holds as a polynomial identity,
the tables give the reports of `check_presentation` in the same order, and
a planted term fails exactly the laws that read the map it is planted in."""
from fractions import Fraction

import pytest

from cubicalc.checks import (_edge_laws, _edge_loc, _edge_sort_key,
                             _face_laws, _run, _Symbolic, check_presentation)
from cubicalc.constructions import (gfull, gsy, pair_groupoid, scaled_action,
                                    scaleoid, tangent)
from cubicalc.hypercube import subset_label
from cubicalc.polymap import PolyMap
from cubicalc.presentation import attach_generic_params
from cubicalc.twotyped import g_overline

fs = frozenset
CONSTRUCTIONS = {
    "pair_groupoid(3)": lambda: pair_groupoid(3),
    "scaled_action(3)": lambda: scaled_action(3),
    "gsy(3, (1, 2, 1/2))": lambda: gsy(3, (Fraction(1), Fraction(2),
                                           Fraction(1, 2))),
    "gfull(3)": lambda: gfull(3),
    "scaleoid(3)": lambda: scaleoid(3),
    "tangent(2)": lambda: tangent(2),
    "g_overline(2)": lambda: g_overline(2),
}


def _edge_reports(p, key):
    e = attach_generic_params(p.edges[key])
    B = _Symbolic(p.ring)
    return _run(B, _edge_loc(e), _edge_laws(B, e))


def _face_reports(p, face):
    B = _Symbolic(p.ring)
    return _run(B, f"face {subset_label(face[0])}>{subset_label(face[1])}",
                _face_laws(B, p, face))


def _symbolic_reports(p):
    return [r for key in sorted(p.edges, key=_edge_sort_key)
            for r in _edge_reports(p, key)] \
        + [r for face in sorted(p.faces, key=_edge_sort_key)
           for r in _face_reports(p, face)]


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_every_edge_and_face_law_is_an_identity(name):
    p = CONSTRUCTIONS[name]()
    reports = _symbolic_reports(p)
    failed = [(r.law, r.location) for r in reports if not r.ok]
    assert not failed
    assert all(r.samples == 0 and r.seed is None and r.witness is None
               for r in reports)
    sampled = check_presentation(CONSTRUCTIONS[name](), seed=1, samples=1)
    assert [(r.law, r.location) for r in reports] \
        == [(r.law, r.location) for r in sampled]


def test_planted_term_fails_the_laws_that_read_it():
    """x0*x1 added to the first compose component of gfull(3)'s edge
    {1}>{1,2}."""
    p = gfull(3)
    key = (fs({1}), fs({1, 2}))
    e = p.edges[key]
    m = e.compose
    x0, x1 = m.var(m.in_labels[0]), m.var(m.in_labels[1])
    e.compose = PolyMap(m.ring, m.in_labels,
                        (m.comps[0] + x0 * x1,) + m.comps[1:], m.out_labels)
    edge = {r.law: r.ok for r in _edge_reports(p, key)}
    assert edge == {"unit-source-target": True, "compose-source-target": False,
                    "unit-absorption": False, "associativity": False,
                    "inverse": False}
    face = {r.law: r.ok for r in _face_reports(p, (fs(), fs({1, 2})))}
    assert face == {"projections-commute": True, "units-commute": True,
                    "projection-functorial": False, "unit-functorial": True,
                    "interchange": False}
