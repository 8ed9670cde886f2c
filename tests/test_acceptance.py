"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (run with -s to see them).  Flagged
deviations from the printed reference tables carry pointers to the decisions
ledger kept outside the package.
"""
import random
import time
from fractions import Fraction
from itertools import combinations, permutations

from cubicalc.checks import (check_edge_category, check_face, check_morphism,
                             check_presentation, first_failure, reports_ok)
from cubicalc.constructions import (PullbackC1, finite_part, gfull,
                                    gfull_vertex_schema, gsy, gsy_symbolic,
                                    imbed_gsy_into_gfull, pair_groupoid,
                                    scaled_action, scaleoid, tangent,
                                    trivialization_maps)
from cubicalc.derive import tlab, vlab
from cubicalc.hypercube import count_kcubes, kcubes, vertices
from cubicalc.laws import (check_finite_law, check_homogeneity,
                           check_law_compatibility, check_symmetry,
                           derive_law_sym, finite_law_from_map,
                           flip_isomorphism_reports, ring_goid_structure,
                           sym_law_via_extension)
from cubicalc.polymap import Poly, PolyMap
from cubicalc.rings import QQ
from cubicalc.slopes import sym_slope_closed, sym_slope_iterated
from cubicalc.tables import edge_table, vertex_table
from cubicalc.twotyped import g_overline

from conftest import (mixed_partial_map, rand_fraction, rand_unit,
                      random_polymap)
from reference_checks import eval_labeled

F = Fraction
fs = frozenset


def _report(num: int, desc: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {desc}" + (f" [{extra}]" if extra else ""))
    assert ok, f"criterion {num} failed: {desc} {extra}"


def _subsets(n):
    out = [fs()]
    for k in range(1, n + 1):
        out.extend(fs(c) for c in combinations(range(1, n + 1), k))
    return out


def test_c01_closed_vs_iterated():
    """Closed cubic formula == iterated symmetric factorizer, exact, < 30 s."""
    rng = random.Random(101)
    t0 = time.time()
    checked = 0
    for i in range(50):
        n = (i % 3) + 1
        p = rng.randint(1, 3)
        f = random_polymap(rng, p, rng.randint(1, 2), 3)
        m = sym_slope_iterated(f, n)
        for _ in range(100):
            t = [rand_unit(rng, 4) for _ in range(n)]
            v = {s: [rand_fraction(rng, 4) for _ in range(p)]
                 for s in _subsets(n)}
            closed = sym_slope_closed(f, n, t, v)
            pt = {}
            for s, vec in v.items():
                for c, x in enumerate(vec):
                    pt[vlab(s, c)] = x
            for k, tv in enumerate(t):
                pt[tlab({k + 1})] = tv
            iterated = m.eval([pt[l] for l in m.in_labels])
            assert closed == iterated, (i, n)
            checked += 1
    elapsed = time.time() - t0
    _report(1, "closed == iterated on 50 maps x 100 unit-scale points",
            checked == 5000 and elapsed < 30.0, f"{elapsed:.1f}s")


# -- criterion 2: the reference tables ---------------------------------------

VERTEX_COORDS = {
    # canonical coordinates (v-block then t-block, (length, lex) in each)
    (1, ""): "(v0,t1)", (1, "1"): "(v0,v1,t1)",
    (2, ""): "(v0,t1,t2)", (2, "1"): "(v0,v1,t1,t2)",
    (2, "2"): "(v0,v2,t1,t2,t12)", (2, "12"): "(v0,v1,v2,v12,t1,t2,t12)",
    (3, ""): "(v0,t1,t2,t3)", (3, "1"): "(v0,v1,t1,t2,t3)",
    (3, "2"): "(v0,v2,t1,t2,t3,t12)",
    (3, "12"): "(v0,v1,v2,v12,t1,t2,t3,t12)",
    (3, "3"): "(v0,v3,t1,t2,t3,t13,t23)",
    (3, "13"): "(v0,v1,v3,v13,t1,t2,t3,t13,t23)",
    (3, "23"): "(v0,v2,v3,v23,t1,t2,t3,t12,t13,t23,t123)",
    (3, "123"): "(v0,v1,v2,v3,v12,v13,v23,v123,t1,t2,t3,t12,t13,t23,t123)",
}

VERTEX_SETS = {
    (1, ""): "U x 0^{1}", (1, "1"): "U^{1}",
    (2, ""): "U x 0^{1} x 0^{2}", (2, "1"): "U^{1} x 0^{2}",
    (2, "2"): "U^{2} x_{0^{2}} 0^{12}", (2, "12"): "U^{12}",
    (3, ""): "U x 0^{1} x 0^{2} x 0^{3}", (3, "1"): "U^{1} x 0^{2} x 0^{3}",
    (3, "2"): "U^{2} x_{0^{2}} 0^{12} x 0^{3}", (3, "12"): "U^{12} x 0^{3}",
    (3, "3"): "U^{3} x_{0^{3}} 0^{13} x_{0^{3}} 0^{23}",
    (3, "13"): "U^{13} x_{0^{3}} 0^{23}",
    (3, "23"): "U^{23} x_{0^{23}} 0^{123}", (3, "123"): "U^{123}",
}

# rows whose printed within-row coordinate order deviates from the canonical
# order (set-equal, order-only); see the decisions ledger, "table order" entry
PRINTED_ORDER_DEVIATIONS = {
    (3, "2"): "v0,v2,t1,t2,t12,t3",
    (3, "12"): "v0,v1,v2,v12,t1,t2,t12,t3",
    (3, "3"): "v0,v3,t1,t3,t13,t2,t23",
    (3, "13"): "v0,v1,v3,v13,t1,t3,t2,t13,t23",
    (3, "123"): "v0,v1,v2,v3,v23,v13,v12,v123,t1,t2,t3,t12,t13,t23,t123",
}

EDGE_ROWS_GENERAL = {
    (1, "0>1"): "(v0 + t1*v1, t1)",
    (2, "0>1"): "(v0 + t1*v1, t1, t2)",
    (2, "2>12"): "(v0 + t1*v1, v2 + t1*v12 + t12*v1 + t2*t12*v12, t1, t12, t2)",
    (2, "0>2"): "(v0 + t2*v2, t1 + t2*t12, t2)",
    (2, "1>12"): "(v0 + t2*v2, v1 + t2*v12, t1 + t2*t12, t2)",
}

EDGE_ROWS_SCALEOID = {
    (2, "1>12"): "(t1 + t2*t12, t2)",
    (3, "1>12"): "(t1 + t2*t12, t2, t3)",
    (3, "13>123"): "(t1 + t2*t12, t13 + t2*t123 + t12*t23 + t3*t23*t123, t2, t23, t3)",
    (3, "12>123"): "(t1 + t3*t13, t2 + t3*t23, t12 + t3*t123, t3)",
    (3, "1>13"): "(t1 + t3*t13, t2 + t3*t23, t3)",
}

# printed rows that conflict with the inductive construction (and, for the
# scaleoid rows, with the double-cat face law); see the decisions ledger
PRINTED_FORMULA_DEVIATIONS = {
    (2, "0>2", "general"):
        "printed final slot t1; constructed t2 (ledger: edge (0,{2}) typo)",
    (3, "13>123", "scaleoid"):
        "printed last term t3*t2*t12; constructed t3*t23*t123 "
        "(ledger: scaleoid N=3 typo, fails the face law as printed)",
    (3, "1>13", "scaleoid"):
        "printed slot t2; constructed t2 + t3*t23 "
        "(ledger: scaleoid N=3 typo, fails the face law as printed)",
}


def test_c02_paper_table_goldens():
    ok = True
    details = []
    for n in (1, 2, 3):
        rows = {r["alpha"] if r["alpha"] != "0" else "": r
                for r in vertex_table(n)}
        for (nn, alpha), want in VERTEX_COORDS.items():
            if nn != n:
                continue
            got = rows[alpha]["coords"]
            if got != want:
                ok = False
                details.append(f"coords {nn};{alpha}: {got} != {want}")
            if VERTEX_SETS[(nn, alpha)] != rows[alpha]["vertex_set"]:
                ok = False
                details.append(f"set {nn};{alpha}: {rows[alpha]['vertex_set']}")
            printed = PRINTED_ORDER_DEVIATIONS.get((nn, alpha))
            if printed is not None:
                # order-only deviation: same coordinate set as printed
                assert set(printed.split(",")) == set(got.strip("()").split(","))
                print(f"  flagged: vertex row {nn};{alpha} printed order "
                      f"'{printed}' differs from canonical (see ledger)")
    for n in (1, 2):
        rows = {r["edge"]: r["formula"] for r in edge_table(n)}
        for (nn, edge), want in EDGE_ROWS_GENERAL.items():
            if nn != n:
                continue
            got = rows[edge].split(" = ", 1)[1]
            if got != want:
                ok = False
                details.append(f"edge {nn};{edge}: {got} != {want}")
    for n in (2, 3):
        rows = {r["edge"]: r["formula"] for r in edge_table(n, scaleoid_table=True)}
        for (nn, edge), want in EDGE_ROWS_SCALEOID.items():
            if nn != n:
                continue
            got = rows[edge].split(" = ", 1)[1]
            if got != want:
                ok = False
                details.append(f"scaleoid {nn};{edge}: {got} != {want}")
    for key, note in PRINTED_FORMULA_DEVIATIONS.items():
        print(f"  flagged: edge row {key[0]};{key[1]} ({key[2]}): {note}")
    # the Sym2-proof misprint: the implemented target follows Sym2(2)
    g = gsy(2, [F(1), F(1)])
    e = g.edges[(fs({1}), fs({1, 2}))]
    pt = {vlab((), 0): F(0), vlab({1}, 0): F(1), vlab({2}, 0): F(0),
          vlab({1, 2}, 0): F(10)}
    got = eval_labeled(e.target, pt)[vlab({1}, 0)]
    assert got == 11  # v1 + t2 v12, not the printed v2 + t2 v12
    print("  flagged: Sym2 proof prints (v0+t2v2, v2+t2v12); implemented "
          "second slot v1+t2v12 per Sym2(2) (see ledger)")
    _report(2, "vertex/edge tables match the reference rows "
               "(4 recorded typos + 5 order-only rows flagged)", ok,
            "; ".join(details))


def test_c03_degree_claim():
    e = gfull(3).edges[(fs({2, 3}), fs({1, 2, 3}))]
    _report(3, "target projection of edge ({2,3},{1,2,3}) has total degree 5",
            e.target.degree() == 5, f"degree={e.target.degree()}")


def test_c04_axiom_suites():
    t0 = time.time()
    suites = []
    for n in (1, 2, 3):
        suites.append(pair_groupoid(n, 1))
        suites.append(scaled_action(n, 1))
        rng = random.Random(40 + n)
        units = [rand_unit(rng) for _ in range(n)]
        zeros = [F(0)] * n
        mixed = [rand_unit(rng) if i % 2 == 0 else F(0) for i in range(n)]
        for t in (units, zeros, mixed):
            suites.append(gsy(n, t))
        suites.append(gfull(n))
        suites.append(scaleoid(n))
    for n in (1, 2):
        suites.append(g_overline(n))
    all_ok = True
    for pres in suites:
        reports = check_presentation(pres, seed=42, samples=100)
        if not reports_ok(reports):
            all_ok = False
            print(f"  {pres.name}: {first_failure(reports).to_json()}")
    elapsed = time.time() - t0
    _report(4, "edge and face axioms on PG, SA, Gsy (3 scale regimes), "
               "G^n, scaleoids, G^n-bar at 100 samples",
            all_ok and elapsed < 300.0, f"{elapsed:.1f}s")


def test_c05_schwarz():
    flip_ok = reports_ok(flip_isomorphism_reports(2, [F(2), F(3)], seed=50,
                                                  samples=100))
    rng = random.Random(51)
    sym_ok = True
    for _ in range(12):
        p = rng.randint(1, 2)
        f = random_polymap(rng, p, 1, 3)
        m = sym_slope_iterated(f, 2)
        zero = {l: Poly.const(QQ, len(m.in_labels) - 2, F(0))
                for l in m.in_labels if l.kind == "t"}
        keep = tuple(l for l in m.in_labels if l.kind == "v")
        at0 = m.subst({**{l: Poly.var(QQ, len(keep), keep.index(l))
                          for l in keep},
                       **{l: Poly.zero(QQ, len(keep)) for l in m.in_labels
                          if l.kind == "t"}}, keep)
        # symmetry in (v1, v2) as a polynomial identity
        swap = {}
        for l in keep:
            if l.index == fs({1}):
                swap[l] = Poly.var(QQ, len(keep), keep.index(vlab({2}, l.comp)))
            elif l.index == fs({2}):
                swap[l] = Poly.var(QQ, len(keep), keep.index(vlab({1}, l.comp)))
            else:
                swap[l] = Poly.var(QQ, len(keep), keep.index(l))
        swapped = at0.subst(swap, keep)
        sym_ok = sym_ok and all(a == b for a, b in zip(at0.comps, swapped.comps))
        # equality with the independent mixed partial at v12 = 0
        oracle = mixed_partial_map(f, 2)
        keep2 = tuple(l for l in keep if len(l.index) <= 1)
        at0_v12 = at0.subst({**{l: Poly.var(QQ, len(keep2), keep2.index(l))
                                for l in keep2},
                             **{l: Poly.zero(QQ, len(keep2)) for l in keep
                                if len(l.index) > 1}}, keep2)
        def to_cubic(s):
            k, c = s[1:].split("_")
            return vlab(() if k == "0" else {int(k)}, int(c))

        oracle_named = oracle.rename(to_cubic, None)
        sym_ok = sym_ok and at0_v12.equals(
            PolyMap(QQ, oracle_named.in_labels, oracle_named.comps,
                    at0_v12.out_labels))
    _report(5, "flip is a verified double-groupoid isomorphism; the second "
               "factorizer at t=0 is (v1,v2)-symmetric and equals the mixed "
               "partial", flip_ok and sym_ok)


def test_c06_scalar_extension_equivalence():
    rng = random.Random(61)
    ok = True
    for i in range(20):
        n = (i % 3) + 1
        p = rng.randint(1, 2)
        f = random_polymap(rng, p, 1, 3)
        t = [rand_fraction(rng) for _ in range(n)]
        law = derive_law_sym(f, n, t)
        for alpha in law.src.vertices:
            via_ext = sym_law_via_extension(f, n, t, tuple(sorted(alpha)))
            ok = ok and via_ext.equals(law.vertex_maps[alpha])
    for n in (1, 2):
        res = ring_goid_structure(n, [F(2)] * n)
        ok = ok and res["matches_ext_mul"]
    _report(6, "eval over A_t reproduces every vertex map of the symmetric "
               "law (20 maps, n <= 3); derived ring product == ext_mul", ok)


def test_c07_imbedding():
    ok = True
    for n in (1, 2, 3):
        res = imbed_gsy_into_gfull(n)
        bad = [(k, name) for k, name, good in res if not good]
        if bad:
            ok = False
            print(f"  n={n}: {bad}")
    _report(7, "substituting t_gamma = 0 (|gamma|>1) into every G^n "
               "structure map yields the Gsy^n maps symbolically, n <= 3", ok)


def test_c08_pullback():
    rng = random.Random(81)
    ok = True
    for i in range(10):
        g = random_polymap(rng, 1, 1, 2)
        psi = random_polymap(rng, 1, 1, 2)
        f = PolyMap(QQ, ("u",), g.compose(
            PolyMap(QQ, ("u",), psi.comps, g.in_labels)).comps)
        pb = PullbackC1(f, g, PolyMap.identity(QQ, ("u",)),
                        PolyMap(QQ, ("u",), psi.comps), QQ)
        for pt in pb.sample(rng, 100):
            ok = ok and pb.in_p1(pt) and pb.in_q(pt)
        for _ in range(100):
            l, r = pb.sample_composable_pair(rng)
            c = pb.compose_points(l, r)
            ok = ok and pb.in_q(c)
    fz = PolyMap(QQ, ("x",), ())
    gz = PolyMap(QQ, ("y",), ())
    from cubicalc.parser import parse

    pb0 = PullbackC1(fz, gz, parse("h(x,y) = x"), parse("k(x,y) = y"), QQ)
    ok = ok and pb0.equality_with_p1()
    _report(8, "Q within P^<1> and *-closure on 100 samples for 10 random "
               "pairs; equality at C = 0", ok)


def test_c09_finite_part():
    rng = random.Random(91)
    ok = True
    for n in (1, 2, 3):
        t = [rand_unit(rng) for _ in range(n)]
        pres, pg, fwd, back = finite_part(n, "gsy", t)
        for a in pres.vertices:
            ident = PolyMap.identity(QQ, pres.schemas[a].labels)
            ok = ok and back[a].compose(fwd[a]).equals(ident)
            ok = ok and fwd[a].compose(back[a]).equals(ident)
        reports = check_morphism(pres, pg, fwd, seed=92, samples=40)
        ok = ok and reports_ok(reports)
    plaw = finite_law_from_map(lambda p: (abs(p[0]),), 2, [F(1), F(1, 3)])
    ok = ok and reports_ok(check_finite_law(plaw, samples=25))
    plaw3 = finite_law_from_map(lambda p: (max(p[0], F(0)),), 1, [F(2)])
    ok = ok and reports_ok(check_finite_law(plaw3, samples=25))
    _report(9, "Gsy trivialization onto PG^n x units is a verified iso "
               "(n <= 3); black-box maps satisfy the finite-part morphism "
               "identities", ok)


def test_c10_homogeneity_symmetry_polynomial_laws():
    rng = random.Random(102)
    ok = True
    for i in range(20):
        n = [1, 2, 2, 3][i % 4]
        f = random_polymap(rng, 1, 1, 3)
        t = [rand_fraction(rng) for _ in range(n)]
        law = derive_law_sym(f, n, t)
        s_unit = [rand_unit(rng) for _ in range(n)]
        s_any = [rand_fraction(rng) for _ in range(n)]  # may be non-unit
        ok = ok and reports_ok(check_homogeneity(law, s_unit))
        ok = ok and reports_ok(check_homogeneity(law, s_any))
        for perm in permutations(range(1, n + 1)):
            sigma = {i + 1: perm[i] for i in range(n)}
            ok = ok and reports_ok(check_symmetry(law, sigma))
        ok = ok and reports_ok(check_law_compatibility(law))
    _report(10, "Phi_s-equivariance (unit and non-unit s) and full "
                "S_n-equivariance hold symbolically for 20 random laws", ok)


def test_c11_hypercube_counts():
    ok = (count_kcubes(4, 0), count_kcubes(4, 1), count_kcubes(4, 2),
          count_kcubes(4, 3)) == (16, 32, 24, 8)
    for n in range(7):
        for k in range(n + 1):
            ok = ok and count_kcubes(n, k) == len(kcubes(vertices(n), k))
    _report(11, "tesseract counts (16,32,24,8); formula matches enumeration "
                "for n <= 6", ok)


def test_c12_mutation_sensitivity():
    ok = True
    key = (fs({1}), fs({1, 2}))

    def corrupted(which):
        p = gsy(2, [F(1), F(2)])
        e = p.edges[key]
        m = getattr(e, which)
        comps = (m.comps[0] + m.var(m.in_labels[0]),) + m.comps[1:]
        setattr(e, which, PolyMap(QQ, m.in_labels, comps, m.out_labels))
        return p

    for which in ("compose", "target", "unit"):
        p = corrupted(which)
        bad = first_failure(check_edge_category(p, key, seed=120, samples=40))
        ok = ok and bad is not None and bad.witness is not None
        if bad is None:
            print(f"  edge checker missed corrupted {which}")
    p = corrupted("unit")
    bad = first_failure(check_face(p, (fs(), fs({1, 2})), seed=121, samples=40))
    ok = ok and bad is not None and bad.witness is not None
    p = corrupted("target")
    bad = first_failure(check_face(p, (fs(), fs({1, 2})), seed=122, samples=40))
    ok = ok and bad is not None
    # morphism checker notices a corrupted vertex map
    t = [F(1), F(1)]
    src = gsy(2, t)
    from cubicalc.constructions import anchor_maps

    maps = anchor_maps(src, 1)
    m = maps[fs({1, 2})]
    maps[fs({1, 2})] = PolyMap(QQ, m.in_labels,
                               (m.comps[0] + m.var(m.in_labels[0]),)
                               + m.comps[1:], m.out_labels)
    bad = first_failure(check_morphism(src, pair_groupoid(2, 1), maps,
                                       seed=123, samples=40))
    ok = ok and bad is not None
    _report(12, "every checker detects planted single-term corruptions in "
                "compose/target/unit with a concrete witness", ok)
