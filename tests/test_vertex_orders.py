"""Pinned vertex, edge and face orders of three presentations.

`p.vertices`, `list(p.edges)` and `list(p.faces)` fix the order in which
callers meet the cube, and callers may pick edges and faces by index (the
benchmark checks every other one); `check_presentation` fixes the order of
its report locations.  A change to the vertex model must leave all four
sequences as they are.  Vertices are named as the report locations name
them, so the test does not depend on how a vertex is stored.
"""
from cubicalc.checks import check_edge_category, check_face, check_presentation
from cubicalc.constructions import gfull
from cubicalc.twotyped import g_overline


def _orders(p) -> dict:
    def where(reports):  # "edge 1>12" -> "1>12"
        return reports[0].location.split(" ", 1)[1]

    edges = [where(check_edge_category(p, key, samples=1)) for key in p.edges]
    faces = [where(check_face(p, face, samples=1)) for face in p.faces]
    label = {}
    for key, name in zip(p.edges, edges):
        label.update(zip(key, name.split(">")))
    reports = check_presentation(p, seed=0, samples=1)
    return {"vertices": [label[v] for v in p.vertices],
            "edges": edges, "faces": faces,
            "locations": list(dict.fromkeys(r.location for r in reports))}


G_OVERLINE_1 = {
    "vertices": [
        '0', "1'", '1', "11'",
    ],
    "edges": [
        '0>1', "0>1'", "1'>11'", "1>11'",
    ],
    "faces": [
        "0>11'",
    ],
    "locations": [
        'edge 0>1', "edge 0>1'", "edge 1>11'", "edge 1'>11'", "face 0>11'",
    ],
}

G_OVERLINE_2 = {
    "vertices": [
        '0', "1'", "2'", '1', '2', "1'2'", "11'", "12'", "21'", "22'", '12',
        "11'2'", "21'2'", "121'", "122'", "121'2'",
    ],
    "edges": [
        '0>1', '0>2', '2>12', '1>12', "0>1'", "1'>11'", "1>11'", "2>21'",
        "1'>21'", "21'>121'", "12>121'", "11'>121'", "0>2'", "2'>12'", "1>12'",
        "2'>22'", "2>22'", "22'>122'", "12'>122'", "12>122'", "2'>1'2'",
        "1'>1'2'", "1'2'>11'2'", "12'>11'2'", "11'>11'2'", "22'>21'2'",
        "1'2'>21'2'", "21'>21'2'", "21'2'>121'2'", "122'>121'2'",
        "11'2'>121'2'", "121'>121'2'",
    ],
    "faces": [
        '0>12', "0>11'", "0>21'", "0>12'", "0>22'", "0>1'2'", "1>121'",
        "1>122'", "1>11'2'", "2>121'", "2>122'", "2>21'2'", "12>121'2'",
        "1'>121'", "1'>11'2'", "1'>21'2'", "11'>121'2'", "21'>121'2'",
        "2'>122'", "2'>11'2'", "2'>21'2'", "12'>121'2'", "22'>121'2'",
        "1'2'>121'2'",
    ],
    "locations": [
        'edge 0>1', "edge 0>1'", "edge 1'>1'2'", "edge 2'>1'2'", "edge 1>11'",
        "edge 1'>11'", "edge 1'2'>11'2'", "edge 11'>11'2'", "edge 12'>11'2'",
        'edge 1>12', 'edge 2>12', "edge 1>12'", "edge 2'>12'", "edge 11'>121'",
        "edge 12>121'", "edge 21'>121'", "edge 11'2'>121'2'",
        "edge 121'>121'2'", "edge 122'>121'2'", "edge 21'2'>121'2'",
        "edge 12>122'", "edge 12'>122'", "edge 22'>122'", 'edge 0>2',
        "edge 0>2'", "edge 1'>21'", "edge 2>21'", "edge 1'2'>21'2'",
        "edge 21'>21'2'", "edge 22'>21'2'", "edge 2>22'", "edge 2'>22'",
        "face 0>1'2'", "face 0>11'", "face 1>11'2'", "face 1'>11'2'",
        "face 2'>11'2'", 'face 0>12', "face 0>12'", "face 1>121'",
        "face 1'>121'", "face 2>121'", "face 1'2'>121'2'", "face 11'>121'2'",
        "face 12>121'2'", "face 12'>121'2'", "face 21'>121'2'",
        "face 22'>121'2'", "face 1>122'", "face 2>122'", "face 2'>122'",
        "face 0>21'", "face 1'>21'2'", "face 2>21'2'", "face 2'>21'2'",
        "face 0>22'",
    ],
}

GFULL_3 = {
    "vertices": [
        '0', '1', '2', '3', '12', '13', '23', '123',
    ],
    "edges": [
        '0>1', '0>2', '0>3', '1>12', '1>13', '2>12', '2>23', '3>13', '3>23',
        '12>123', '13>123', '23>123',
    ],
    "faces": [
        '0>12', '0>13', '0>23', '1>123', '2>123', '3>123',
    ],
    "locations": [
        'edge 0>1', 'edge 1>12', 'edge 2>12', 'edge 12>123', 'edge 13>123',
        'edge 23>123', 'edge 1>13', 'edge 3>13', 'edge 0>2', 'edge 2>23',
        'edge 3>23', 'edge 0>3', 'face 0>12', 'face 1>123', 'face 2>123',
        'face 3>123', 'face 0>13', 'face 0>23',
    ],
}


def test_orders_g_overline_1():
    assert _orders(g_overline(1)) == G_OVERLINE_1


def test_orders_g_overline_2():
    assert _orders(g_overline(2)) == G_OVERLINE_2


def test_orders_gfull_3():
    assert _orders(gfull(3)) == GFULL_3
