"""Print SHA-256 digests of seeded law reports, to show that a change leaves
every report byte-identical.

    python3 tools/report_digest.py
    python3 tools/report_digest.py --samples 100

The script imports cubicalc from `src/` of the checkout it lives in; copy it
into another checkout to digest that one, and compare the two outputs line by
line.  It prints:

- one line per construction of the c04 list (pair groupoids, scaled action
  cats, Gsy at unit, zero and mixed scales, G^n and the scaleoid for
  n = 1..3, and G^n-bar for n = 1, 2; the scales are drawn as the acceptance
  suite draws them): the SHA-256 of the JSON of `check_presentation(p,
  seed=42, samples=S)`, S given by `--samples` (default 20);
- one line per planted corruption: a single extra term, the first input or
  its square, in the first component of one structure map of
  `gsy(2, (1, 1))` (compose, target, unit, inverse; the square in compose)
  or of `g_overline(1)` (the compose of the edges 0>1 and 0>1', both
  terms), with the SHA-256 of the JSON of `check_edge_category` and
  `check_face` on it (seed 6, 25 samples).  These reports fail, the squares
  associativity too, so their witnesses, and with them the draw order of
  the composable pairs and triples, are in the digest.  A passing report
  holds no witness, so the per-construction lines show only verdicts and
  sample counts;
- one line per construction of the c04 list: the SHA-256 of every point
  that `check_presentation(p, seed=42, samples=S)` passes to
  `CoordSchema.satisfies`, one line of values per point, rejected draws
  included.  These pin what the passing reports were drawn on.  The script
  installs the recording wrapper (`point_recorder`) itself and removes it
  afterwards; nothing under `src/` is edited;
- one line per symbolic law check of the aim-1 map
  f(x,y) = (x^3*y + 2*x*y^2 - y^4, x^2 - 3/2*y^3): the SHA-256 of the JSON
  of `check_law_compatibility` on `derive_law_full(f, n)` for n = 1, 2 and
  on `derive_law_sym(f, n, t)` for n = 1..3, and of `check_homogeneity`
  (two scalar vectors) and `check_symmetry` (every permutation) on each
  symmetric law; then the same checks of the n = 2 symmetric law with an
  extra term v_0 * v_12 in the first component of its top vertex map.
  These are proofs, so a report holds only its verdict.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 42
AIM1 = "f(x,y) = (x^3*y + 2*x*y^2 - y^4, x^2 - 3/2*y^3)"
SYM_T = (Fraction(2), Fraction(-1, 3), Fraction(5))
SCALARS = ((Fraction(1),) * 3, (Fraction(3), Fraction(-1, 2), Fraction(2)))


def _rand_unit(rng: random.Random, span: int = 5) -> Fraction:
    """A nonzero fraction, drawn as the acceptance suite draws its scales."""
    while True:
        x = Fraction(rng.randint(-span, span), rng.randint(1, 3))
        if x:
            return x


def c04_presentations() -> list:
    from cubicalc.constructions import (gfull, gsy, pair_groupoid,
                                        scaled_action, scaleoid)
    from cubicalc.twotyped import g_overline

    out = []
    for n in (1, 2, 3):
        out += [pair_groupoid(n, 1), scaled_action(n, 1)]
        rng = random.Random(40 + n)
        units = [_rand_unit(rng) for _ in range(n)]
        zeros = [Fraction(0)] * n
        mixed = [_rand_unit(rng) if i % 2 == 0 else Fraction(0)
                 for i in range(n)]
        out += [gsy(n, t) for t in (units, zeros, mixed)]
        out += [gfull(n), scaleoid(n)]
    return out + [g_overline(1), g_overline(2)]


def _corrupt(p, key, which: str, power: int = 1):
    """Add a power of the first input to the first component of one
    structure map."""
    from cubicalc.polymap import PolyMap

    e = p.edges[key]
    m = getattr(e, which)
    comps = (m.comps[0] + m.var(m.in_labels[0]) ** power,) + m.comps[1:]
    setattr(e, which, PolyMap(m.ring, m.in_labels, comps, m.out_labels))
    return p


def planted_corruptions() -> list:
    """(name, presentation, edge key, face) of every planted corruption."""
    from cubicalc.constructions import gsy
    from cubicalc.twotyped import g_overline

    fs = frozenset
    out = []
    key, face = (fs({1}), fs({1, 2})), (fs(), fs({1, 2}))
    for which, power in (("compose", 1), ("target", 1), ("unit", 1),
                         ("inverse", 1), ("compose", 2)):
        out.append((f"gsy(2) {which}^{power} 1>12",
                    _corrupt(gsy(2, [Fraction(1)] * 2), key, which, power),
                    key, face))
    for d, name in ((1, "0>1"), (-1, "0>1'")):
        key = (fs(), fs({d}))
        for power in (1, 2):
            out.append((f"g_overline(1) compose^{power} {name}",
                        _corrupt(g_overline(1), key, "compose", power), key,
                        (fs(), fs({1, -1}))))
    return out


def point_recorder(satisfies, sink):
    """`CoordSchema.satisfies` wrapped so that it first writes the point it
    is passed, a list of canonical (numerator, denominator) pairs, to
    `sink`, a hashlib object, as one line of values formatted by the
    schema's ring."""
    def recorded(schema, point):
        ring = schema.ring
        sink.update((" ".join(ring.fmt(ring.join(*v)) for v in point)
                     + "\n").encode())
        return satisfies(schema, point)
    return recorded


def draw_digest(p, samples: int, seed: int = SEED) -> str:
    """SHA-256 of every point `check_presentation(p, seed, samples)` passes
    to `CoordSchema.satisfies`."""
    from cubicalc.checks import check_presentation
    from cubicalc.presentation import CoordSchema

    sink = hashlib.sha256()
    satisfies = CoordSchema.satisfies
    CoordSchema.satisfies = point_recorder(satisfies, sink)
    try:
        check_presentation(p, seed=seed, samples=samples)
    finally:
        CoordSchema.satisfies = satisfies
    return sink.hexdigest()


def _sym_law_checks(name: str, law, n: int) -> list:
    """(name, reports) of the compatibility, homogeneity and symmetry checks
    of a symmetric law."""
    from cubicalc.laws import (check_homogeneity, check_law_compatibility,
                               check_symmetry)

    out = [(f"{name} compatibility", check_law_compatibility(law))]
    for s in SCALARS:
        out.append((f"{name} homogeneity s={','.join(map(str, s[:n]))}",
                    check_homogeneity(law, s[:n])))
    for perm in itertools.permutations(range(1, n + 1)):
        out.append((f"{name} symmetry sigma={''.join(map(str, perm))}",
                    check_symmetry(law, dict(zip(range(1, n + 1), perm)))))
    return out


def law_reports() -> list:
    """(name, reports) of every symbolic law check of the aim-1 map, then
    of its n = 2 symmetric law with a planted term."""
    from cubicalc.derive import vlab
    from cubicalc.laws import (check_law_compatibility, derive_law_full,
                               derive_law_sym)
    from cubicalc.parser import parse
    from cubicalc.polymap import PolyMap

    f = parse(AIM1)
    out = [(f"full n={n} compatibility",
            check_law_compatibility(derive_law_full(f, n))) for n in (1, 2)]
    for n in (1, 2, 3):
        out += _sym_law_checks(f"sym n={n}", derive_law_sym(f, n, SYM_T[:n]),
                               n)
    law = derive_law_sym(f, 2, SYM_T[:2])
    top = frozenset({1, 2})
    m = law.vertex_maps[top]
    comps = (m.comps[0] + m.var(vlab((), 0)) * m.var(vlab(top, 0)),) \
        + m.comps[1:]
    law.vertex_maps[top] = PolyMap(m.ring, m.in_labels, comps, m.out_labels)
    return out + _sym_law_checks("planted sym n=2", law, 2)


def digest(reports) -> str:
    text = json.dumps([r.to_json() for r in reports], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--samples", type=int, default=20,
                    help="samples per law of check_presentation (default 20)")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from cubicalc.checks import (check_edge_category, check_face,
                                 check_presentation)

    print(f"check_presentation seed={SEED} samples={args.samples}")
    for p in c04_presentations():
        reports = check_presentation(p, seed=SEED, samples=args.samples)
        print(f"{digest(reports)}  {p.name}")
    print("planted corruptions seed=6 samples=25")
    for name, p, key, face in planted_corruptions():
        reports = check_edge_category(p, key, seed=6, samples=25) \
            + check_face(p, face, seed=6, samples=25)
        print(f"{digest(reports)}  {name}")
    print(f"draws of check_presentation seed={SEED} samples={args.samples}")
    for p in c04_presentations():
        print(f"{draw_digest(p, args.samples)}  {p.name}")
    print(f"symbolic law checks of {AIM1}")
    for name, reports in law_reports():
        print(f"{digest(reports)}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
