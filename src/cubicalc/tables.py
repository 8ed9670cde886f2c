"""Render vertex-set and edge-projection tables in the printed-table format.

Rows follow the binary-code (lexicographic) vertex order; coordinates are the
canonical v-block / s-block / t-block order, each block sorted by (length,
elements).  These renderings are the golden-file source for the table tests.
"""
from __future__ import annotations

from .constructions import gfull, gfull_vertex_schema, scaleoid
from .derive import display_label, monomial_key
from .hypercube import kcubes, subset_label, subsets
from .rings import QQ, Ring


def coords_str(labels) -> str:
    return "(" + ",".join(display_label(l) for l in labels) + ")"


def vertex_table(N, vdim: int = 1, ring: Ring = QQ) -> list[dict]:
    """One row per vertex: the fiber-product expression and the affine
    coordinates of G^{alpha;N} U (vdim=0 gives the scaleoid table)."""
    if isinstance(N, int):
        N = tuple(range(1, N + 1))
    rows = []
    for alpha in subsets(N, binary=True):
        if vdim == 0 and not alpha:
            continue
        schema = gfull_vertex_schema(N, alpha, vdim)
        rows.append({
            "N": subset_label(set(N)),
            "alpha": subset_label(alpha),
            "vertex_set": schema.display(),
            "coords": coords_str(schema.flatten()),
        })
    return rows


def edge_table(N, scaleoid_table: bool = False, ring: Ring = QQ) -> list[dict]:
    """One row per edge: the target projection in affine coordinates."""
    if isinstance(N, int):
        N = tuple(range(1, N + 1))
    pres = scaleoid(N, ring) if scaleoid_table else gfull(N, ring=ring)
    rows = []
    for lo, hi in kcubes(subsets(N, binary=True), 1):
        e = pres.edges[(lo, hi)]
        if not e.dom.labels:
            continue
        rows.append({
            "N": subset_label(set(N)),
            "edge": f"{subset_label(lo)}>{subset_label(hi)}",
            "formula": "pi" + coords_str(e.dom.labels) + " = "
            + e.target.fmt(monomial_order=monomial_key),
            "outputs": coords_str(e.target.out_labels),
        })
    return rows


def render_rows(rows: list[dict], columns: list[str]) -> str:
    widths = {c: max([len(c)] + [len(str(r.get(c, ""))) for r in rows])
              for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)
