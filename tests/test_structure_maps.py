"""Every structure map of the cubic builders, pinned by one SHA-256 per case.

A digest runs over each map's input labels, output labels, and each
component's integer numerators by exponent and its denominator, in the order
the builder lays them out.  A change that builds the same maps by another
route must leave every pin as it is.  The pins were recorded on the builders
that wrote the stage iteration once per construction (a loop or a recursion
on the top stage each), before `derive._staged` replaced them.
"""
from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from cubicalc.constructions import gfull
from cubicalc.derive import display_label
from cubicalc.laws import derive_law_full, derive_law_sym
from cubicalc.parser import parse
from cubicalc.presentation import edge_order
from cubicalc.twotyped import g_overline

F_TEXT = "f(x,y) = (x^3*y + 2*x*y^2 - y^4, x^2 - 3/2*y^3)"
T = (Fraction(2), Fraction(-1, 3), Fraction(5))
EDGE_MAPS = ("source", "target", "unit", "compose", "inverse", "pair_param",
             "triple_param")


def _feed(h, m) -> None:
    if m is None:
        h.update(b"None;")
        return
    h.update(repr((tuple(map(display_label, m.in_labels)),
                   tuple(map(display_label, m.out_labels)),
                   tuple((sorted(c.nums.items()), c.den) for c in m.comps))
                  ).encode() + b";")


def _presentation_digest(p) -> str:
    h = hashlib.sha256()
    for v in p.vertices:
        s = p.schemas[v]
        h.update(repr((sorted(v), tuple(map(display_label, s.labels)),
                       sorted(map(display_label, s.unit_labels)))).encode())
    for key in sorted(p.edges, key=edge_order):
        for name in EDGE_MAPS:
            _feed(h, getattr(p.edges[key], name))
    for face in p.faces:
        h.update(repr((sorted(face[0]), sorted(face[1]))).encode())
        _feed(h, p.quad_params.get(face))
    return h.hexdigest()


def _law_digest(law) -> str:
    h = hashlib.sha256()
    for alpha in sorted(law.vertex_maps, key=lambda a: (len(a), sorted(a))):
        h.update(repr(sorted(alpha)).encode())
        _feed(h, law.vertex_maps[alpha])
    return h.hexdigest()


def case_digest(kind: str, n, vdim: int | None) -> str:
    if kind == "gfull":
        return _presentation_digest(gfull(n, vdim))
    if kind == "gfull-finite":
        return _presentation_digest(gfull(n, vdim, finite=True))
    if kind == "g_overline":
        return _presentation_digest(g_overline(n, vdim))
    if kind == "law-full":
        return _law_digest(derive_law_full(parse(F_TEXT), n))
    return _law_digest(derive_law_sym(parse(F_TEXT), n, T[:n]))


CASES = (
    [("gfull", N, vdim) for N in (1, 2, 3, (1, 3), (2, 3, 5))
     for vdim in (0, 1, 2)]
    + [("gfull-finite", N, 1) for N in (1, 2, 3, (1, 3))]
    + [("g_overline", n, vdim) for n in (1, 2) for vdim in (0, 1, 2)]
    + [("law-full", N, None) for N in (1, 2, 3, (1, 3))]
    + [("law-sym", n, None) for n in (1, 2, 3)])


def case_id(case) -> str:
    kind, n, vdim = case
    return f"{kind}:{n!r}:{'-' if vdim is None else vdim}"


PINS = {
    "gfull:1:0": "3b9c81fc88f72380a7cb21ba49d92074636f37ba756f0758c6cdecfa97547292",
    "gfull:1:1": "f5b799ad42412c5225872aac18dfe1eb41d45a475b2b2ae15158d1490dd1bc56",
    "gfull:1:2": "b4b6ef5321b51161e1e144d24f7a59d77ae25c15d855b3b3d61fc2dc8c1573d9",
    "gfull:2:0": "4f01c70738ab5ec865bcc114ca618cce6ef78af0e565ed43b657507f5ffffae7",
    "gfull:2:1": "1996fd1c0ed028ceb20a15776df7b0b293446e6de83db59e91de3a9447e73a6c",
    "gfull:2:2": "ef55f06b23f8ea2d43b4f2a568f87f3e88ea202dff975b3828cd944b2151c3c0",
    "gfull:3:0": "09b33a4bacddb9062549a697b7edd09b548a6120250ec36a09fc9277f3ac3fa0",
    "gfull:3:1": "29fede48c85cd54a114ce52632e1d2c0ee8ef90ededa523ef7ca3110fe5dd51a",
    "gfull:3:2": "34ba16554eda5e1a66687438790b48e3575d021aecc2746df84b583be20d99b1",
    "gfull:(1, 3):0": "c409b34e3b76d7aeffa35429b5b067cbab09a2920c0af91eccd26a6bd367f24e",
    "gfull:(1, 3):1": "f07c5965f45cdc6c2c7098820d27b94a1ad888d84bd29479b7ac801b4db6e4ce",
    "gfull:(1, 3):2": "49d885e9d8f2a774fd78e9b396a4ae5313d992f8842a667aa25edc43c0b17b4e",
    "gfull:(2, 3, 5):0": "c3f963cf99d246f17324b9edbe85d455a642b916d4e6c21f9693b91b743471a0",
    "gfull:(2, 3, 5):1": "c1bcb30bad8aec8b11fae9be8eb6e2ddbbe560de0ec24c1160be07be9e35cb36",
    "gfull:(2, 3, 5):2": "db8d1f3ea96932f8a1255ae17b12cad995d7349a662167536e647f4606424006",
    "gfull-finite:1:1": "a46d0d0a7b2a838ece4b19fd3546c93043d49e0cbf4849a551ac0a18d02263f3",
    "gfull-finite:2:1": "6170723ec10a61906aed4f8899d3a5f0ff36aebbe9c86964817910433d81bad4",
    "gfull-finite:3:1": "3468489af4f8f9cd9c0db3068eebf88581e490ba667ad1cbedec05d0c2d304fd",
    "gfull-finite:(1, 3):1": "010f25f2222ad9b5325ac0d7b5acc9887750dc1641caf11a1e2399b77069377f",
    "g_overline:1:0": "2174102a13ce89ace485cb9b6c49bc3872235ec81102d5dfbee278fd979888b8",
    "g_overline:1:1": "56933f0fb434a36af30943bc30bff4094119670b8cd3b1f68a1687091ce177fe",
    "g_overline:1:2": "917b392264b1352878d13c2ed7b91d1f027e507b8b7c68214be8ea6817c56411",
    "g_overline:2:0": "f58e778343d5f13ae0d77e8bb85f5cf65a7fca599bd71c2a7295e4278d3af22c",
    "g_overline:2:1": "0c139a656e1cf7592dadac19ba6ec86ca17f1985eeca9e7c7991ea7da43c82fb",
    "g_overline:2:2": "f08001ed8e24f42fbf26d56fefe4301e228a1575c1c63944ab3fbccba0f24984",
    "law-full:1:-": "03d87153f6e837228ee1d603a508879e2580480d3f23b0df7e6fa36f777e5b50",
    "law-full:2:-": "d191cd24319c569e114df7d2301a9a7f285ca1bdb48e69d60feb0dcfe848347f",
    "law-full:3:-": "01628c406756d252d1cc078afb1013c938817841c6b50be478dd5f490e9ec056",
    "law-full:(1, 3):-": "7dc6e647a4a806220a9f79b47e14acc42fe0db666a2285745c4307a13e388138",
    "law-sym:1:-": "246f4021e8db398596f59e56a573918cd5d8ff0c3dc151bf70822e52a648209f",
    "law-sym:2:-": "7624aae163fc3e876bd8115754fdc1392059c7ff4f7fddd98958fed9bdf316f8",
    "law-sym:3:-": "2853109e70b97e42b52657762670465399796d0f4f78cdceb62cc54d8a074e80",
}


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_structure_maps_are_pinned(case):
    assert case_digest(*case) == PINS[case_id(case)]
