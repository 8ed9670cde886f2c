"""Render vertex-set and edge-projection tables in the printed-table format.

Rows follow the binary-code (lexicographic) vertex order; coordinates are the
canonical v-block / s-block / t-block order, each block sorted by (length,
elements).  These renderings are the golden-file source for the table tests.
"""
from __future__ import annotations

from .constructions import gfull_edge_target, gfull_vertex_schema
from .derive import display_label, monomial_key
from .hypercube import cube_directions, kcubes, subset_label, subsets
from .rings import QQ, Ring


def coords_str(labels) -> str:
    return "(" + ",".join(display_label(l) for l in labels) + ")"


def vertex_row(N, alpha, vdim: int = 1) -> dict:
    """The row of the vertex alpha: the fiber-product expression and the
    affine coordinates of G^{alpha;N} U (vdim=0 gives the scaleoid's)."""
    schema = gfull_vertex_schema(N, alpha, vdim)
    return {
        "N": subset_label(set(N)),
        "alpha": subset_label(alpha),
        "vertex_set": schema.display(),
        "coords": coords_str(schema.flatten()),
    }


def vertex_table(N, vdim: int = 1, ring: Ring = QQ) -> list[dict]:
    """One row per vertex (the scaleoid table has no bottom vertex)."""
    N = cube_directions(N)
    return [vertex_row(N, alpha, vdim) for alpha in subsets(N, binary=True)
            if vdim or alpha]


def edge_label(lo, hi) -> str:
    """The table name of the edge lo > hi: "2>12" for {2} > {1,2}."""
    return f"{subset_label(lo)}>{subset_label(hi)}"


def edge_row(N, lo, hi, vdim: int = 1, ring: Ring = QQ) -> dict:
    """The row of the edge lo > hi: its target projection in affine
    coordinates, read off the staged target alone (no presentation is
    built)."""
    target = gfull_edge_target(N, lo, hi, vdim, ring)
    return {
        "N": subset_label(set(N)),
        "edge": edge_label(lo, hi),
        "formula": "pi" + coords_str(target.in_labels) + " = "
        + target.fmt(monomial_order=monomial_key),
        "outputs": coords_str(target.out_labels),
    }


def edge_table(N, scaleoid_table: bool = False, ring: Ring = QQ) -> list[dict]:
    """One row per edge, lo-major in binary-code vertex order."""
    N = cube_directions(N)
    vdim = 0 if scaleoid_table else 1
    return [edge_row(N, lo, hi, vdim, ring)
            for lo, hi in kcubes(subsets(N, binary=True), 1)]


def render_rows(rows: list[dict], columns: list[str]) -> str:
    widths = {c: max([len(c)] + [len(str(r.get(c, ""))) for r in rows])
              for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)
